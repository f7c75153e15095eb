//! Phase 3: bottom-up merging by orientation beam search (§III-D).
//!
//! Solved child blocks are absorbed one at a time, in decreasing order of
//! pairwise interaction (average pair MCL), trying every hyperoctahedral
//! re-orientation of the incoming block against each of the best `N`
//! partial merges retained so far. The first pair is special: both blocks'
//! orientations are searched exhaustively, exactly as in the paper's
//! walkthrough (Figure 7). `N` (the beam width) is the paper's key knob —
//! it fixes `N = 64`; `N = 1` degenerates to the pure greedy the paper
//! argues against, and the ablation bench sweeps it.
//!
//! Evaluation is incremental: each beam entry carries its accumulated
//! channel loads; a candidate's MCL is computed by routing only the flows
//! *incident to the incoming block* into a scratch accumulator and taking
//! the elementwise max against the entry's loads — no full re-routing.
//! Positions are dense `Vec`s indexed by cluster id and the channel list
//! is precomputed, keeping the per-candidate cost at
//! `O(incident flows × path box + channels)`.

use crate::block::Block;
use rahtm_commgraph::{CommGraph, Rank};
use rahtm_lp::Deadline;
use rahtm_obs::{counters, Recorder};
use rahtm_routing::{ChannelLoads, RouteStencilCache, Routing};
use rahtm_topology::{ChannelId, Coord, NodeId, Orientation, Torus};
use std::sync::Arc;

const UNPLACED: NodeId = NodeId::MAX;

/// Merge-phase knobs.
#[derive(Clone, Debug)]
pub struct MergeOptions {
    /// Beam width `N` (paper: 64).
    pub beam_width: usize,
    /// Routing model used for MCL scoring (paper: the MAR approximation).
    pub routing: Routing,
    /// Restrict the search to proper rotations (half the group). The paper
    /// uses the full rotation/reflection set; this is an ablation knob.
    pub proper_rotations_only: bool,
    /// Blocks with more members than this search only axis flips (identity
    /// permutation) instead of the full hyperoctahedral group. This bounds
    /// the cost of merging very large blocks — in practice only the final
    /// machine-level merge of whole slices, where re-routing every flow
    /// per candidate makes the full group intractable.
    pub full_group_member_limit: usize,
    /// Wall-clock budget: checked on entry and between beam steps. On
    /// expiry the search stops and any still-unplaced child keeps its
    /// identity orientation — a valid (if unoptimized) composition is
    /// always returned. The default never expires.
    pub deadline: Deadline,
    /// Trace sink (disabled by default; search totals are recorded once
    /// per merge, never per candidate).
    pub recorder: Recorder,
    /// Shared routing-stencil cache for `topo` (a private one is created
    /// when absent). The same machine topology hosts every merge of a run,
    /// so sharing amortizes stencil construction across all of them.
    pub stencils: Option<Arc<RouteStencilCache>>,
    /// Core cap for the orientation-search worker pool (`0` = all
    /// available cores). The pipeline sets this to the calling slice's
    /// core share ([`crate::cores::share`]) so concurrent slice workers —
    /// and the MILP's branch-and-bound threads — never oversubscribe the
    /// machine between them.
    pub thread_cap: usize,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            beam_width: 64,
            routing: Routing::UniformMinimal,
            proper_rotations_only: false,
            full_group_member_limit: 64,
            deadline: Deadline::never(),
            recorder: Recorder::disabled(),
            stencils: None,
            thread_cap: 0,
        }
    }
}

/// A child block positioned (pseudo-pinned) at a global origin.
#[derive(Clone, Debug)]
pub struct PositionedBlock {
    /// The rigid block.
    pub block: Block,
    /// Global machine coordinate of the block's origin.
    pub origin: Coord,
}

/// Result of merging one parent's children.
#[derive(Clone, Debug)]
pub struct MergeResult {
    /// The merged parent block (coordinates relative to `parent_origin`).
    pub block: Block,
    /// MCL of the parent's internal traffic under the chosen orientations.
    pub mcl: f64,
    /// Orientation candidates evaluated.
    pub candidates_evaluated: usize,
    /// Candidates surviving beam truncation across all steps (the beam
    /// entries actually carried forward).
    pub candidates_kept: usize,
    /// Whether the wall-clock deadline cut the orientation search short
    /// (unsearched children were composed with identity orientation).
    pub deadline_hit: bool,
}

struct BeamEntry {
    /// chosen orientation index per child (UNSET for unplaced children)
    choices: Vec<usize>,
    loads: ChannelLoads,
    mcl: f64,
}

const UNSET: usize = usize::MAX;

/// Merges positioned child blocks inside the parent region
/// `[parent_origin, parent_origin + parent_extent)`, searching child
/// orientations by beam search and scoring with `graph`'s flows routed on
/// `topo`. Only flows with both endpoints inside the parent contribute.
pub fn merge_blocks(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    parent_origin: &Coord,
    parent_extent: &Coord,
    opts: &MergeOptions,
) -> MergeResult {
    assert!(!children.is_empty());
    let local_cache;
    let stencils: &RouteStencilCache = match &opts.stencils {
        Some(c) => {
            debug_assert!(c.matches(topo), "stencil cache bound to a different topology");
            c
        }
        None => {
            local_cache = RouteStencilCache::new(topo);
            &local_cache
        }
    };
    // Trivial cases: single child or no orientation freedom anywhere. An
    // already-expired deadline takes the same path: identity composition
    // is the merge ladder's bottom rung and costs one routing pass.
    let expired_on_entry = opts.deadline.is_expired();
    if children.iter().all(|c| c.block.is_unit()) || children.len() == 1 || expired_on_entry {
        let composed = Block::compose(
            parent_origin,
            parent_extent,
            &children
                .iter()
                .map(|c| (c.block.clone(), c.origin))
                .collect::<Vec<_>>(),
        );
        let mcl = block_mcl(topo, graph, &composed, parent_origin, opts.routing, stencils);
        opts.recorder.incr(counters::DEADLINE_CHECKS);
        if expired_on_entry {
            opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
        }
        return MergeResult {
            block: composed,
            mcl,
            candidates_evaluated: 0,
            candidates_kept: 0,
            deadline_hit: expired_on_entry,
        };
    }

    let nclusters = graph.num_ranks() as usize;
    let chans: Vec<(ChannelId, f64)> = topo.channels().map(|c| (c.id, c.width)).collect();

    // Orientation list per child.
    let orient_sets: Vec<Vec<Orientation>> = children
        .iter()
        .map(|c| {
            let extent = &c.block.extent;
            let mut os = Orientation::enumerate_for(extent);
            // dedupe: flipping an extent-1 output dimension is a no-op
            os.retain(|o| (0..o.ndims()).all(|d| extent.get(o.perm(d)) > 1 || !o.flipped(d)));
            if opts.proper_rotations_only {
                os.retain(|o| o.is_proper_rotation());
            }
            if c.block.members.len() > opts.full_group_member_limit {
                // large block: axis flips only (identity permutation)
                os.retain(|o| (0..o.ndims()).all(|d| o.perm(d) == d));
            }
            debug_assert!(!os.is_empty());
            os
        })
        .collect();

    // child index of each cluster inside the parent (UNSET = outside)
    let mut child_of = vec![UNSET; nclusters];
    for (i, c) in children.iter().enumerate() {
        for &(m, _) in &c.block.members {
            child_of[m as usize] = i;
        }
    }
    // flows fully inside the parent
    let local_flows: Vec<(Rank, Rank, f64)> = graph
        .flows()
        .iter()
        .filter(|f| child_of[f.src as usize] != UNSET && child_of[f.dst as usize] != UNSET)
        .map(|f| (f.src, f.dst, f.bytes))
        .collect();

    // Precompute member node positions for every (child, orientation).
    let positions: Vec<Vec<Vec<(Rank, NodeId)>>> = children
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            orient_sets[ci]
                .iter()
                .map(|o| {
                    c.block
                        .reoriented(o)
                        .placed(&c.origin)
                        .into_iter()
                        .map(|(m, g)| (m, topo.node_id(&g)))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Merge order: decreasing average pairwise MCL (identity orientations).
    let order = merge_order(topo, graph, children, opts.routing, stencils);

    opts.recorder.add(
        counters::MERGE_ORIENTATIONS,
        orient_sets.iter().map(|os| os.len() as u64).sum(),
    );

    let mut candidates_evaluated = 0usize;
    let mut candidates_kept = 0usize;
    let mut deadline_polls = 1usize; // the entry check above
    let mut node_of = vec![UNPLACED; nclusters];
    // Recycled accumulators for beam re-scoring: entries evicted from the
    // beam donate their allocation back instead of dropping it.
    let mut pool: Vec<ChannelLoads> = Vec::new();

    // --- First pair: exhaustive over both orientation sets. ---
    let (a, b) = (order[0], order[1]);
    let pair_flows: Vec<&(Rank, Rank, f64)> = local_flows
        .iter()
        .filter(|&&(s, d, _)| {
            let (cs, cd) = (child_of[s as usize], child_of[d as usize]);
            (cs == a || cs == b) && (cd == a || cd == b)
        })
        .collect();
    let mut beam: Vec<BeamEntry> = Vec::new();
    {
        // Exhaustive orientation pairs are embarrassingly parallel: chunk
        // the outer orientations across crossbeam scoped threads (each
        // with its own scratch accumulator), then sort deterministically.
        let oa_count = orient_sets[a].len();
        let n_threads = num_worker_threads(oa_count, opts.thread_cap);
        let chunk = oa_count.div_ceil(n_threads);
        let mut ranked: Vec<(f64, usize, usize)> = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..n_threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(oa_count);
                let positions = &positions;
                let pair_flows = &pair_flows;
                let chans = &chans;
                let orient_sets = &orient_sets;
                handles.push(scope.spawn(move |_| {
                    let mut node_of = vec![UNPLACED; nclusters];
                    let mut scratch = ChannelLoads::new(topo);
                    let mut out = Vec::with_capacity((hi - lo) * orient_sets[b].len());
                    for oa in lo..hi {
                        for ob in 0..orient_sets[b].len() {
                            for &(m, nd) in positions[a][oa].iter().chain(&positions[b][ob]) {
                                node_of[m as usize] = nd;
                            }
                            scratch.clear();
                            for &&(s, d, bytes) in pair_flows {
                                stencils.route_flow(
                                    topo,
                                    opts.routing,
                                    node_of[s as usize],
                                    node_of[d as usize],
                                    bytes,
                                    &mut scratch,
                                );
                            }
                            let mut mcl = 0.0f64;
                            for &(id, w) in chans {
                                let v = scratch.get(id) / w;
                                if v > mcl {
                                    mcl = v;
                                }
                            }
                            out.push((mcl, oa, ob));
                            for &(m, _) in positions[a][oa].iter().chain(&positions[b][ob]) {
                                node_of[m as usize] = UNPLACED;
                            }
                        }
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
                .collect()
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        candidates_evaluated += ranked.len();
        ranked.sort_by(|x, y| {
            x.0.total_cmp(&y.0)
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        ranked.truncate(opts.beam_width.max(1));
        for (_, oa, ob) in ranked {
            let mut loads = match pool.pop() {
                Some(mut l) => {
                    l.clear();
                    l
                }
                None => ChannelLoads::new(topo),
            };
            for &(m, nd) in positions[a][oa].iter().chain(&positions[b][ob]) {
                node_of[m as usize] = nd;
            }
            for &&(s, d, bytes) in &pair_flows {
                stencils.route_flow(
                    topo,
                    opts.routing,
                    node_of[s as usize],
                    node_of[d as usize],
                    bytes,
                    &mut loads,
                );
            }
            for &(m, _) in positions[a][oa].iter().chain(&positions[b][ob]) {
                node_of[m as usize] = UNPLACED;
            }
            let mcl = loads.mcl(topo);
            let mut choices = vec![UNSET; children.len()];
            choices[a] = oa;
            choices[b] = ob;
            beam.push(BeamEntry { choices, loads, mcl });
        }
        candidates_kept += beam.len();
    }

    // --- Subsequent blocks: incoming orientations × beam entries. ---
    let mut deadline_hit = false;
    let mut placed: Vec<usize> = vec![a, b];
    for &next in order.iter().skip(2) {
        deadline_polls += 1;
        if opts.deadline.is_expired() {
            // out of time: children not yet searched keep their identity
            // orientation (filled in below)
            deadline_hit = true;
            break;
        }
        // flows incident to `next` with the other endpoint placed or
        // internal to `next`
        let placed_mask: Vec<bool> = {
            let mut m = vec![false; children.len()];
            for &p in &placed {
                m[p] = true;
            }
            m
        };
        let incident: Vec<&(Rank, Rank, f64)> = local_flows
            .iter()
            .filter(|&&(s, d, _)| {
                let cs = child_of[s as usize];
                let cd = child_of[d as usize];
                (cs == next && (placed_mask[cd] || cd == next))
                    || (cd == next && placed_mask[cs])
            })
            .collect();
        // Parallelize over beam entries (each worker owns a scratch
        // accumulator and a positions array), deterministic sort after.
        let n_threads = num_worker_threads(beam.len(), opts.thread_cap);
        let chunk = beam.len().div_ceil(n_threads);
        let mut ranked: Vec<(f64, usize, usize)> = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..n_threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(beam.len());
                let beam = &beam;
                let placed = &placed;
                let positions = &positions;
                let incident = &incident;
                let chans = &chans;
                let orient_sets = &orient_sets;
                handles.push(scope.spawn(move |_| {
                    let mut node_of = vec![UNPLACED; nclusters];
                    let mut scratch = ChannelLoads::new(topo);
                    let mut out = Vec::new();
                    for (ei, entry) in beam.iter().enumerate().take(hi).skip(lo) {
                        // set placed positions for this entry
                        for &pc in placed {
                            for &(m, nd) in &positions[pc][entry.choices[pc]] {
                                node_of[m as usize] = nd;
                            }
                        }
                        for oi in 0..orient_sets[next].len() {
                            for &(m, nd) in &positions[next][oi] {
                                node_of[m as usize] = nd;
                            }
                            scratch.clear();
                            for &&(s, d, bytes) in incident {
                                stencils.route_flow(
                                    topo,
                                    opts.routing,
                                    node_of[s as usize],
                                    node_of[d as usize],
                                    bytes,
                                    &mut scratch,
                                );
                            }
                            // incremental MCL: untouched channels keep the
                            // entry's loads
                            let mut mcl = entry.mcl;
                            for &(id, w) in chans {
                                let add = scratch.get(id);
                                if add > 0.0 {
                                    let v = (entry.loads.get(id) + add) / w;
                                    if v > mcl {
                                        mcl = v;
                                    }
                                }
                            }
                            out.push((mcl, ei, oi));
                            for &(m, _) in &positions[next][oi] {
                                node_of[m as usize] = UNPLACED;
                            }
                        }
                        for &pc in placed {
                            for &(m, _) in &positions[pc][entry.choices[pc]] {
                                node_of[m as usize] = UNPLACED;
                            }
                        }
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
                .collect()
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        candidates_evaluated += ranked.len();
        ranked.sort_by(|x, y| {
            x.0.total_cmp(&y.0)
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        ranked.truncate(opts.beam_width.max(1));
        let mut new_beam = Vec::with_capacity(ranked.len());
        for (_, ei, oi) in ranked {
            let entry = &beam[ei];
            for &pc in &placed {
                for &(m, nd) in &positions[pc][entry.choices[pc]] {
                    node_of[m as usize] = nd;
                }
            }
            for &(m, nd) in &positions[next][oi] {
                node_of[m as usize] = nd;
            }
            let mut loads = match pool.pop() {
                Some(mut l) => {
                    l.copy_from(&entry.loads);
                    l
                }
                None => entry.loads.clone(),
            };
            for &&(s, d, bytes) in &incident {
                stencils.route_flow(
                    topo,
                    opts.routing,
                    node_of[s as usize],
                    node_of[d as usize],
                    bytes,
                    &mut loads,
                );
            }
            for &pc in &placed {
                for &(m, _) in &positions[pc][entry.choices[pc]] {
                    node_of[m as usize] = UNPLACED;
                }
            }
            for &(m, _) in &positions[next][oi] {
                node_of[m as usize] = UNPLACED;
            }
            let mcl = loads.mcl(topo);
            let mut choices = entry.choices.clone();
            choices[next] = oi;
            new_beam.push(BeamEntry { choices, loads, mcl });
        }
        candidates_kept += new_beam.len();
        let evicted = std::mem::replace(&mut beam, new_beam);
        pool.extend(evicted.into_iter().map(|e| e.loads));
        placed.push(next);
    }

    // best entry -> composed parent block; children the (possibly
    // deadline-cut) search never placed fall back to identity orientation
    let identity_choice: Vec<usize> = orient_sets
        .iter()
        .map(|os| {
            os.iter()
                .position(|o| (0..o.ndims()).all(|d| o.perm(d) == d && !o.flipped(d)))
                .unwrap_or(0)
        })
        .collect();
    let best_choices: Vec<usize> = match beam.iter().min_by(|x, y| x.mcl.total_cmp(&y.mcl)) {
        Some(best) => best
            .choices
            .iter()
            .enumerate()
            .map(|(i, &c)| if c == UNSET { identity_choice[i] } else { c })
            .collect(),
        // beam is non-empty by construction (the first pair always yields
        // at least one entry); identity everywhere is the safe fallback
        None => identity_choice.clone(),
    };
    let composed = Block::compose(
        parent_origin,
        parent_extent,
        &children
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let o = &orient_sets[i][best_choices[i]];
                (c.block.reoriented(o), c.origin)
            })
            .collect::<Vec<_>>(),
    );
    // a deadline-cut search composed children its beam never scored, so
    // recompute the MCL of what was actually built
    let mcl = block_mcl(topo, graph, &composed, parent_origin, opts.routing, stencils);
    opts.recorder
        .add(counters::MERGE_CANDIDATES_EVALUATED, candidates_evaluated as u64);
    opts.recorder
        .add(counters::MERGE_CANDIDATES_KEPT, candidates_kept as u64);
    opts.recorder.add(counters::DEADLINE_CHECKS, deadline_polls as u64);
    if deadline_hit {
        opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
    }
    MergeResult {
        block: composed,
        mcl,
        candidates_evaluated,
        candidates_kept,
        deadline_hit,
    }
}

/// Worker-thread count for a task of `items` independent units, delegated
/// to the central core-budget helper so this phase shares the machine
/// with concurrent slice workers and MILP branch-and-bound threads.
fn num_worker_threads(items: usize, cap: usize) -> usize {
    crate::cores::workers_for(items, cap)
}

/// MCL of a block's internal traffic at a given origin.
fn block_mcl(
    topo: &Torus,
    graph: &CommGraph,
    block: &Block,
    origin: &Coord,
    routing: Routing,
    stencils: &RouteStencilCache,
) -> f64 {
    let mut loads = ChannelLoads::new(topo);
    let mut node_of = vec![UNPLACED; graph.num_ranks() as usize];
    for (m, g) in block.placed(origin) {
        node_of[m as usize] = topo.node_id(&g);
    }
    for f in graph.flows() {
        let (ns, nd) = (node_of[f.src as usize], node_of[f.dst as usize]);
        if ns != UNPLACED && nd != UNPLACED {
            stencils.route_flow(topo, routing, ns, nd, f.bytes, &mut loads);
        }
    }
    loads.mcl(topo)
}

/// The paper's merge order: decreasing average pairwise MCL. Pairwise
/// interaction is measured with identity orientations (an exhaustive
/// orientation-pair minimum is exponential in n and changes only the
/// *order*, not the search itself).
fn merge_order(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    routing: Routing,
    stencils: &RouteStencilCache,
) -> Vec<usize> {
    let k = children.len();
    if k <= 2 {
        return (0..k).collect();
    }
    let nclusters = graph.num_ranks() as usize;
    let mut child_of = vec![UNSET; nclusters];
    let mut node_at = vec![UNPLACED; nclusters];
    for (i, c) in children.iter().enumerate() {
        for (m, g) in c.block.placed(&c.origin) {
            child_of[m as usize] = i;
            node_at[m as usize] = topo.node_id(&g);
        }
    }
    let mut avg = vec![0.0f64; k];
    let mut loads = ChannelLoads::new(topo);
    for i in 0..k {
        for j in i + 1..k {
            loads.clear();
            for f in graph.flows() {
                let (cs, cd) = (child_of[f.src as usize], child_of[f.dst as usize]);
                let cross = (cs == i && cd == j) || (cs == j && cd == i);
                if cross {
                    stencils.route_flow(
                        topo,
                        routing,
                        node_at[f.src as usize],
                        node_at[f.dst as usize],
                        f.bytes,
                        &mut loads,
                    );
                }
            }
            let m = loads.mcl(topo);
            avg[i] += m;
            avg[j] += m;
        }
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&x, &y| avg[y].total_cmp(&avg[x]).then(x.cmp(&y)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    fn c(xs: &[u16]) -> Coord {
        Coord::new(xs)
    }

    /// Two 2x1 blocks side by side on a 2x2 mesh; a heavy flow between one
    /// member of each. Under the MAR approximation the beam search must
    /// flip the blocks so the heavy endpoints sit on a *diagonal* (two
    /// minimal paths, half load each) — the Figure 1 insight, opposite of
    /// what hop-bytes would choose.
    #[test]
    fn merge_flips_blocks_to_shorten_heavy_flow() {
        let topo = Torus::mesh(&[2, 2]);
        let mut g = CommGraph::new(4);
        // clusters 0,1 in block A (column 0); 2,3 in block B (column 1)
        g.add(0, 2, 100.0); // heavy: wants 0 and 2 diagonal under MAR
        g.add(1, 3, 1.0);
        let block_a = Block {
            extent: c(&[2, 1]),
            members: vec![(0, c(&[0, 0])), (1, c(&[1, 0]))],
        };
        let block_b = Block {
            extent: c(&[2, 1]),
            // NOTE: 2 is at the far corner initially
            members: vec![(3, c(&[0, 0])), (2, c(&[1, 0]))],
        };
        let children = vec![
            PositionedBlock { block: block_a, origin: c(&[0, 0]) },
            PositionedBlock { block: block_b, origin: c(&[0, 1]) },
        ];
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        // find final positions
        let pos: std::collections::HashMap<_, _> =
            r.block.members.iter().cloned().collect();
        let d = pos[&0].l1_mesh(&pos[&2]);
        assert_eq!(d, 2, "heavy pair must end up diagonal: {:?}", r.block);
        // MCL: 50 from the split heavy flow (plus nothing overlapping)
        assert!(r.mcl <= 51.0 + 1e-9, "mcl {}", r.mcl);
        assert!(r.candidates_evaluated > 0);
    }

    #[test]
    fn unit_children_compose_directly() {
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::ring(4, 2.0);
        let children: Vec<PositionedBlock> = (0..4)
            .map(|i| PositionedBlock {
                block: Block::single(2, i),
                origin: c(&[(i / 2) as u16, (i % 2) as u16]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        assert_eq!(r.candidates_evaluated, 0);
        assert_eq!(r.block.members.len(), 4);
        assert!(r.mcl > 0.0);
    }

    #[test]
    fn beam_one_never_beats_wide_beam() {
        let topo = Torus::mesh(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 10.0, 11);
        // four 2x2 blocks with scrambled interiors
        let children: Vec<PositionedBlock> = (0..4)
            .map(|q| {
                let base = q * 4;
                PositionedBlock {
                    block: Block {
                        extent: c(&[2, 2]),
                        members: vec![
                            (base + 3, c(&[0, 0])),
                            (base + 1, c(&[0, 1])),
                            (base + 2, c(&[1, 0])),
                            (base, c(&[1, 1])),
                        ],
                    },
                    origin: c(&[(q / 2) as u16 * 2, (q % 2) as u16 * 2]),
                }
            })
            .collect();
        let narrow = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { beam_width: 1, ..Default::default() },
        );
        let wide = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { beam_width: 64, ..Default::default() },
        );
        assert!(wide.mcl <= narrow.mcl + 1e-9, "wide {} narrow {}", wide.mcl, narrow.mcl);
    }

    #[test]
    fn merged_block_has_all_members_bijectively_placed() {
        let topo = Torus::mesh(&[4, 2]);
        let g = patterns::random(8, 20, 1.0, 5.0, 3);
        let children: Vec<PositionedBlock> = (0..2)
            .map(|h| PositionedBlock {
                block: Block {
                    extent: c(&[2, 2]),
                    members: (0..4)
                        .map(|i| (h * 4 + i, c(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: c(&[h as u16 * 2, 0]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions::default(),
        );
        assert_eq!(r.block.members.len(), 8);
        let coords: std::collections::HashSet<_> =
            r.block.members.iter().map(|&(_, x)| x).collect();
        assert_eq!(coords.len(), 8);
    }

    #[test]
    fn reported_mcl_matches_recomputation() {
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(50.0, 2.0);
        let children: Vec<PositionedBlock> = vec![
            PositionedBlock {
                block: Block {
                    extent: c(&[1, 2]),
                    members: vec![(0, c(&[0, 0])), (1, c(&[0, 1]))],
                },
                origin: c(&[0, 0]),
            },
            PositionedBlock {
                block: Block {
                    extent: c(&[1, 2]),
                    members: vec![(2, c(&[0, 0])), (3, c(&[0, 1]))],
                },
                origin: c(&[1, 0]),
            },
        ];
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!((r.mcl - check).abs() < 1e-9);
    }

    #[test]
    fn large_blocks_search_flips_only() {
        // with full_group_member_limit = 0, every block is "large": the
        // candidate count must drop to (2^active_dims)^2 for the first
        // pair instead of the full hyperoctahedral square
        let topo = Torus::mesh(&[4, 2]);
        let g = patterns::random(8, 16, 1.0, 5.0, 21);
        let children: Vec<PositionedBlock> = (0..2)
            .map(|h| PositionedBlock {
                block: Block {
                    extent: c(&[2, 2]),
                    members: (0..4)
                        .map(|i| (h * 4 + i, c(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: c(&[h as u16 * 2, 0]),
            })
            .collect();
        let full = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions::default(),
        );
        let flips = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions {
                full_group_member_limit: 0,
                ..Default::default()
            },
        );
        // 2x2 block: full group = 8 orientations; flips-only = 4
        assert_eq!(full.candidates_evaluated, 8 * 8);
        assert_eq!(flips.candidates_evaluated, 4 * 4);
        // restricted search can never beat the full one
        assert!(full.mcl <= flips.mcl + 1e-9);
    }

    #[test]
    fn expired_deadline_composes_identity_and_reports_it() {
        let topo = Torus::mesh(&[4, 2]);
        let g = patterns::random(8, 20, 1.0, 5.0, 3);
        let children: Vec<PositionedBlock> = (0..2)
            .map(|h| PositionedBlock {
                block: Block {
                    extent: c(&[2, 2]),
                    members: (0..4)
                        .map(|i| (h * 4 + i, c(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: c(&[h as u16 * 2, 0]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions {
                deadline: Deadline::after_secs(0.0),
                ..Default::default()
            },
        );
        assert!(r.deadline_hit, "expired deadline must be reported");
        assert_eq!(r.candidates_evaluated, 0, "no search under a dead clock");
        assert_eq!(r.block.members.len(), 8, "composition must still be complete");
        let coords: std::collections::HashSet<_> =
            r.block.members.iter().map(|&(_, x)| x).collect();
        assert_eq!(coords.len(), 8);
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!((r.mcl - check).abs() < 1e-9);
    }

    #[test]
    fn three_block_merge_uses_incremental_path() {
        // 3 children exercise the post-first-pair incremental branch
        let topo = Torus::mesh(&[2, 3]);
        let g = patterns::random(6, 14, 1.0, 8.0, 42);
        let children: Vec<PositionedBlock> = (0..3)
            .map(|i| PositionedBlock {
                block: Block {
                    extent: c(&[2, 1]),
                    members: vec![(2 * i, c(&[0, 0])), (2 * i + 1, c(&[1, 0]))],
                },
                origin: c(&[0, i as u16]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 3]),
            &MergeOptions::default(),
        );
        assert_eq!(r.block.members.len(), 6);
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!(
            (r.mcl - check).abs() < 1e-9,
            "incremental mcl {} vs recomputed {}",
            r.mcl,
            check
        );
    }

    /// Four 2×2 quadrant children of a 4×4 parent, members shuffled.
    fn quadrant_children() -> Vec<PositionedBlock> {
        (0..4)
            .map(|q| {
                let base = q * 4;
                PositionedBlock {
                    block: Block {
                        extent: c(&[2, 2]),
                        members: vec![
                            (base + 3, c(&[0, 0])),
                            (base + 1, c(&[0, 1])),
                            (base + 2, c(&[1, 0])),
                            (base, c(&[1, 1])),
                        ],
                    },
                    origin: c(&[(q / 2) as u16 * 2, (q % 2) as u16 * 2]),
                }
            })
            .collect()
    }

    #[test]
    fn shared_cache_does_not_change_the_merge() {
        // A pre-warmed shared stencil cache must yield the identical block
        // and bit-identical MCL as a run with a private cache.
        let topo = Torus::mesh(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 10.0, 11);
        let children = quadrant_children();
        let private = merge_blocks(&topo, &g, &children, &c(&[0, 0]), &c(&[4, 4]), &MergeOptions::default());
        let shared = Arc::new(RouteStencilCache::new(&topo));
        let cached = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { stencils: Some(Arc::clone(&shared)), ..Default::default() },
        );
        assert_eq!(private.mcl, cached.mcl);
        assert_eq!(private.block.members, cached.block.members);
        assert!(shared.hits() > 0, "second run must hit warmed stencils");
        // run again through the warmed cache: still identical
        let rerun = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { stencils: Some(shared), ..Default::default() },
        );
        assert_eq!(private.mcl, rerun.mcl);
        assert_eq!(private.block.members, rerun.block.members);
    }

    #[test]
    fn concurrent_merges_on_one_cold_shared_cache_match_private() {
        // Two threads merge at once through one cold shared cache, racing
        // to fill its cells (as the pipeline's slice workers do). Each must
        // return the private-cache block and a bit-identical MCL.
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 60, 1.0, 10.0, 23);
        let children = quadrant_children();
        let merge = |stencils| {
            let opts = MergeOptions {
                stencils,
                thread_cap: 1,
                ..Default::default()
            };
            merge_blocks(&topo, &g, &children, &c(&[0, 0]), &c(&[4, 4]), &opts)
        };
        let private = merge(None);
        for _ in 0..8 {
            let shared = Arc::new(RouteStencilCache::new(&topo));
            let barrier = std::sync::Barrier::new(2);
            let results: Vec<MergeResult> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            merge(Some(Arc::clone(&shared)))
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for r in &results {
                assert_eq!(r.mcl.to_bits(), private.mcl.to_bits());
                assert_eq!(r.block.members, private.block.members);
            }
            // both merges looked up the same flows; only first lookups miss
            assert_eq!(shared.misses(), shared.entries());
            assert!(shared.hits() > shared.misses());
        }
    }

    use rahtm_commgraph::CommGraph;
}
