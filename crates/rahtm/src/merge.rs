//! Phase 3: bottom-up merging by orientation beam search (§III-D).
//!
//! Solved child blocks are absorbed one at a time, in decreasing order of
//! pairwise interaction (average pair MCL), trying every hyperoctahedral
//! re-orientation of the incoming block against each of the best `N`
//! partial merges retained so far. The beam starts with one entry per
//! orientation of the first block, so the first step ranks every
//! combination of both blocks' orientations, as in the paper's
//! walkthrough (Figure 7). `N` (the beam width) is the paper's key knob —
//! it fixes `N = 64`; `N = 1` degenerates to the pure greedy the paper
//! argues against, and `harness ablation` sweeps it.
//!
//! Every step is incremental and bounded: each beam entry carries the
//! channel loads of the flows among its placed blocks; a candidate's MCL
//! is computed by routing only the flows that placing the incoming block
//! adds into a scratch accumulator, tracking the max of entry load plus
//! scratch load over the channels it touches — no full re-routing. That
//! running max never exceeds the final MCL, so routing a candidate stops
//! as soon as it reaches the cut line (the worst of the best `N`
//! candidates finished before it): such a candidate provably cannot make
//! the beam (DESIGN.md §13). Positions are dense `Vec`s indexed by
//! cluster id, keeping the per-candidate cost at `O(incident flows × path
//! box)` at most.
//!
//! A step scores its candidates in fixed chunks, a wave at a time,
//! through the run's job runner: on the calling thread and on helper
//! threads that claim spare cores ([`crate::cores`]). A wave's caller keeps
//! its core while it joins, since other merges may claim spare cores
//! meanwhile. Each chunk's cut line starts from the earlier waves' best
//! scores, so the result, prune count included, is the same on any number
//! of cores.
//!
//! The first step routes only one candidate per orbit of the torus
//! reflections that fix both boxes: such a reflection maps a candidate to
//! its mirror image, whose MCL is the same bit for bit under
//! uniform-minimal routing. Every other member of an orbit is ranked with
//! its representative's score, or dropped with its cut, so the beam is
//! exactly that of routing every candidate in full (DESIGN.md §12).

use crate::block::Block;
use crate::cores::{run_jobs, CoreBudget};
use rahtm_commgraph::{CommGraph, Flow, Rank};
use rahtm_lp::Deadline;
use rahtm_obs::{counters, Recorder};
use rahtm_routing::{ChannelLoads, RouteStencilCache, Routing};
use rahtm_topology::{Coord, NodeId, Orientation, Torus};
use std::collections::HashMap;
use std::sync::Arc;

const UNPLACED: NodeId = NodeId::MAX;

/// Merge-phase knobs.
#[derive(Clone, Debug)]
pub struct MergeOptions {
    /// Beam width `N` (paper: 64).
    pub beam_width: usize,
    /// Routing model used for MCL scoring (paper: the MAR approximation).
    pub routing: Routing,
    /// Blocks with more members than this search only axis flips (identity
    /// permutation) instead of the full hyperoctahedral group. This bounds
    /// the cost of merging very large blocks, where re-routing every flow
    /// per candidate makes the full group intractable. In the pipeline
    /// only slice blocks reach the default limit of 64, in the machine-wide
    /// merge: Mira's 256-member slices search flips only, while the
    /// 64-member slices of 4×4×4×2 search the full group.
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
    /// Most threads one beam step runs on, the calling thread included
    /// (`0` = no cap). A step borrows helper threads only from cores that
    /// are spare: a direct call has the whole machine, and a pipeline run
    /// shares one spare-core budget among all its jobs ([`crate::cores`]),
    /// so it passes `0`. The result, counters included, is the same for
    /// any number of threads.
    pub thread_cap: usize,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            beam_width: 64,
            routing: Routing::UniformMinimal,
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
    /// Orientation candidates ranked.
    pub candidates_evaluated: usize,
    /// Candidates surviving beam truncation across all steps (the beam
    /// entries actually carried forward).
    pub candidates_kept: usize,
    /// Routed candidates ranked out by the cut line (DESIGN.md §13): part
    /// of `candidates_evaluated`, but never routed to their full MCL. Only
    /// orbit representatives count, so this and `symmetry_skipped` are
    /// disjoint. Each chunk of a step has its own cut line, seeded from the
    /// earlier waves of chunks, and the chunks do not depend on the thread
    /// count, so neither does this.
    pub candidates_pruned: usize,
    /// First-step candidates that took their reflection-orbit
    /// representative's score or cut instead of being routed themselves.
    pub symmetry_skipped: usize,
    /// Whether the wall-clock deadline cut the orientation search short
    /// (unsearched children were composed with identity orientation).
    pub deadline_hit: bool,
}

/// Orbit representatives per chunk of a beam step, for beam width
/// `keep`: enough that a chunk's cut line fills early and outweighs the
/// cost of handing the chunk to a thread.
fn chunk_len(keep: usize) -> usize {
    (16 * keep).max(256)
}

/// Chunks per wave of a beam step after the first, which is one chunk:
/// the most threads one step runs on.
const WAVE: usize = 4;

struct BeamEntry {
    /// chosen orientation index per child (UNSET for unplaced children)
    choices: Vec<usize>,
    /// loads of the flows among the placed children (`None`: all zero)
    loads: Option<ChannelLoads>,
    mcl: f64,
}

const UNSET: usize = usize::MAX;

/// A ranked candidate: `(mcl, beam entry, incoming orientation)`.
type Ranked = (f64, usize, usize);

/// Sorts candidates by MCL, ties broken by index, so the ranking does not
/// depend on the order the workers returned them in.
fn sort_ranked(ranked: &mut [Ranked]) {
    ranked.sort_by(|x, y| {
        x.0.total_cmp(&y.0)
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });
}

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
    merge_within(
        topo,
        graph,
        children,
        parent_origin,
        parent_extent,
        opts,
        &CoreBudget::new(crate::cores::available()),
    )
}

/// [`merge_blocks`] whose beam steps borrow helper cores from `cores`.
pub(crate) fn merge_within(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    parent_origin: &Coord,
    parent_extent: &Coord,
    opts: &MergeOptions,
    cores: &CoreBudget,
) -> MergeResult {
    merge_with(
        topo,
        graph,
        children,
        parent_origin,
        parent_extent,
        opts,
        Shortcuts { quotient: true, bound: true },
        cores,
    )
}

/// The search's two exact shortcuts. Switching both off gives the
/// reference search, which routes every candidate in full.
#[derive(Clone, Copy)]
struct Shortcuts {
    /// Route one first-step candidate per reflection orbit (DESIGN.md §12).
    quotient: bool,
    /// Stop routing a candidate once it cannot make the beam (DESIGN.md §13).
    bound: bool,
}

/// [`merge_within`] with a choice of [`Shortcuts`].
#[allow(clippy::too_many_arguments)]
fn merge_with(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    parent_origin: &Coord,
    parent_extent: &Coord,
    opts: &MergeOptions,
    shortcuts: Shortcuts,
    cores: &CoreBudget,
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
            candidates_pruned: 0,
            symmetry_skipped: 0,
            deadline_hit: expired_on_entry,
        };
    }

    let nclusters = graph.num_ranks() as usize;

    // Orientation list per child.
    let orient_sets: Vec<Vec<Orientation>> = children
        .iter()
        .map(|c| {
            let extent = &c.block.extent;
            let mut os = Orientation::enumerate_for(extent);
            // dedupe: flipping an extent-1 output dimension is a no-op
            os.retain(|o| (0..o.ndims()).all(|d| extent.get(o.perm(d)) > 1 || !o.flipped(d)));
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

    // The beam starts with one entry per orientation of the first child,
    // in orientation order: placed, but with nothing routed yet. They all
    // share one zero accumulator.
    let a = order[0];
    let zero = ChannelLoads::new(topo);
    let mut beam: Vec<BeamEntry> = (0..orient_sets[a].len())
        .map(|oa| {
            let mut choices = vec![UNSET; children.len()];
            choices[a] = oa;
            BeamEntry { choices, loads: None, mcl: 0.0 }
        })
        .collect();
    let mut placed: Vec<usize> = vec![a];
    // children whose flows among themselves the entries' loads hold
    let mut routed = vec![false; children.len()];

    let keep = opts.beam_width.max(1);
    let mut width_of = vec![1.0f64; topo.num_channel_slots()];
    for ch in topo.channels() {
        width_of[ch.id as usize] = ch.width;
    }
    let mut candidates_evaluated = 0usize;
    let mut candidates_kept = 0usize;
    let mut candidates_pruned = 0usize;
    let mut symmetry_skipped = 0usize;
    let mut deadline_polls = 1usize; // the entry check above
    let mut deadline_hit = false;
    let mut node_of = vec![UNPLACED; nclusters];
    // Recycled accumulators for beam re-scoring: entries evicted from the
    // beam donate their allocation back instead of dropping it.
    let mut pool: Vec<ChannelLoads> = Vec::new();

    // --- Each step: incoming orientations × beam entries. ---
    for (step, &next) in order.iter().enumerate().skip(1) {
        if step > 1 {
            deadline_polls += 1;
            if opts.deadline.is_expired() {
                // out of time: children not yet searched keep their
                // identity orientation (filled in below)
                deadline_hit = true;
                break;
            }
        }
        // flows with both endpoints placed after this step that the
        // entries' loads do not hold yet: on the first step every flow
        // inside the pair, later the flows incident to `next`
        let in_step: Vec<bool> = {
            let mut m = vec![false; children.len()];
            for &p in placed.iter().chain([&next]) {
                m[p] = true;
            }
            m
        };
        let incident: Vec<&(Rank, Rank, f64)> = local_flows
            .iter()
            .filter(|&&(s, d, _)| {
                let (cs, cd) = (child_of[s as usize], child_of[d as usize]);
                in_step[cs] && in_step[cd] && !(routed[cs] && routed[cd])
            })
            .collect();
        let n_orient = orient_sets[next].len();
        // The first step's entries are `a`'s orientations in order, so a
        // reflection fixing both boxes acts on candidate `entry · n_orient
        // + orientation` through its actions on both orientation sets.
        // Later steps have no quotient.
        let reflections = if shortcuts.quotient && step == 1 {
            pair_reflections(
                topo,
                opts.routing,
                [&children[a], &children[next]],
                [&orient_sets[a], &orient_sets[next]],
            )
        } else {
            Vec::new()
        };
        // An orbit's representative is its least candidate index, so a
        // worker meets it before the rest of its orbit.
        let rep_of = |i: usize| {
            reflections
                .iter()
                .fold(i, |r, [ga, gb]| r.min(ga[i / n_orient] * n_orient + gb[i % n_orient]))
        };
        // The step scores its orbit representatives in chunks, a wave of
        // chunks at a time. A chunk's size depends only on the
        // representative count and the beam width, and its cut line starts
        // from the best `keep` scores of the earlier waves, so what a chunk
        // returns does not depend on which thread ran it or on how many
        // helper cores the wave borrowed (DESIGN.md §13). A chunk returns
        // one score per representative: `None` for a cut one.
        let n_cand = beam.len() * n_orient;
        let reps: Vec<usize> = (0..n_cand).filter(|&i| rep_of(i) == i).collect();
        let score_chunk = |chunk: &[usize], mut cut: Option<CutLine>| {
            let mut node_of = vec![UNPLACED; nclusters];
            let mut scratch = ChannelLoads::new(topo);
            let mut out = Vec::with_capacity(chunk.len());
            let mut pruned = 0usize;
            let mut placed_entry = UNSET;
            for &i in chunk {
                let (ei, oi) = (i / n_orient, i % n_orient);
                let entry = &beam[ei];
                let threshold = cut.as_ref().map_or(f64::INFINITY, CutLine::threshold);
                if entry.mcl >= threshold {
                    // scores at least the entry's own MCL
                    pruned += 1;
                    out.push(None);
                    continue;
                }
                // every entry places the same children, so placing this
                // entry's orientations overwrites the previous entry's
                if ei != placed_entry {
                    for &pc in &placed {
                        for &(m, nd) in &positions[pc][entry.choices[pc]] {
                            node_of[m as usize] = nd;
                        }
                    }
                    placed_entry = ei;
                }
                for &(m, nd) in &positions[next][oi] {
                    node_of[m as usize] = nd;
                }
                let base = entry.loads.as_ref().unwrap_or(&zero);
                scratch.clear();
                // incremental MCL: untouched channels keep the entry's
                // loads, and a touched channel's load only grows, so the
                // running max is a lower bound at every flow boundary and
                // exact after the last flow
                let mut mcl = entry.mcl;
                let mut flows = incident.iter();
                let cut_off = loop {
                    if mcl >= threshold {
                        break true;
                    }
                    let Some(&&(s, d, bytes)) = flows.next() else {
                        break false;
                    };
                    stencils.for_each_load(
                        topo,
                        opts.routing,
                        node_of[s as usize],
                        node_of[d as usize],
                        bytes,
                        |slot, v| {
                            scratch.add(slot, v);
                            let load =
                                (base.get(slot) + scratch.get(slot)) / width_of[slot as usize];
                            if load > mcl {
                                mcl = load;
                            }
                        },
                    );
                };
                if cut_off {
                    pruned += 1;
                    out.push(None);
                } else {
                    if let Some(cut) = &mut cut {
                        cut.record(mcl);
                    }
                    out.push(Some(mcl));
                }
            }
            (out, pruned)
        };
        let mut scores: Vec<Option<f64>> = vec![None; n_cand];
        let mut seed = shortcuts.bound.then(|| CutLine::new(keep));
        let chunks: Vec<&[usize]> = reps.chunks(chunk_len(keep)).collect();
        // the first wave is a single chunk, so every later chunk starts
        // from a full cut line
        let (first, rest) = chunks.split_at(1);
        let max_helpers = opts.thread_cap.checked_sub(1).unwrap_or(usize::MAX);
        for wave in std::iter::once(first).chain(rest.chunks(WAVE)) {
            let outs = run_jobs(cores, wave.len(), max_helpers, false, |c| {
                score_chunk(wave[c], seed.clone())
            });
            for (chunk, (out, pruned)) in wave.iter().zip(outs) {
                candidates_pruned += pruned;
                for (&i, score) in chunk.iter().zip(out) {
                    scores[i] = score;
                    if let (Some(mcl), Some(seed)) = (score, &mut seed) {
                        seed.record(mcl);
                    }
                }
            }
        }
        // Every member of an orbit takes its representative's score, or
        // its cut (DESIGN.md §12–13).
        let mut ranked: Vec<Ranked> = Vec::new();
        for i in 0..n_cand {
            let rep = rep_of(i);
            symmetry_skipped += usize::from(rep != i);
            if let Some(mcl) = scores[rep] {
                ranked.push((mcl, i / n_orient, i % n_orient));
            }
        }
        candidates_evaluated += n_cand;
        sort_ranked(&mut ranked);
        ranked.truncate(keep);
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
            let base = entry.loads.as_ref().unwrap_or(&zero);
            let mut loads = match pool.pop() {
                Some(mut l) => {
                    l.copy_from(base);
                    l
                }
                None => base.clone(),
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
            new_beam.push(BeamEntry { choices, loads: Some(loads), mcl });
        }
        candidates_kept += new_beam.len();
        let evicted = std::mem::replace(&mut beam, new_beam);
        pool.extend(evicted.into_iter().filter_map(|e| e.loads));
        placed.push(next);
        for &p in &placed {
            routed[p] = true;
        }
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
        // beam is non-empty by construction (the first step always yields
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
    opts.recorder
        .add(counters::MERGE_CANDIDATES_PRUNED, candidates_pruned as u64);
    opts.recorder
        .add(counters::MERGE_SYMMETRY_SKIPPED, symmetry_skipped as u64);
    opts.recorder.add(counters::DEADLINE_CHECKS, deadline_polls as u64);
    if deadline_hit {
        opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
    }
    MergeResult {
        block: composed,
        mcl,
        candidates_evaluated,
        candidates_kept,
        candidates_pruned,
        symmetry_skipped,
        deadline_hit,
    }
}

/// The cut line of one chunk of a beam step: the MCLs of the best `keep`
/// candidates finished before the chunk's next one, ascending. A chunk
/// starts from the best of the earlier waves' chunks, which hold smaller
/// indices, and visits its own candidates in ascending `(entry,
/// orientation)` order. So a later candidate that provably scores at
/// least the largest of them has `keep` candidates ahead of it in the
/// ranking and cannot make the beam (DESIGN.md §13).
#[derive(Clone)]
struct CutLine {
    keep: usize,
    best: Vec<f64>,
}

impl CutLine {
    fn new(keep: usize) -> Self {
        CutLine {
            keep,
            best: Vec::with_capacity(keep),
        }
    }

    /// The largest kept MCL, or +∞ until `keep` candidates have finished.
    fn threshold(&self) -> f64 {
        if self.best.len() < self.keep {
            f64::INFINITY
        } else {
            self.best[self.keep - 1]
        }
    }

    fn record(&mut self, mcl: f64) {
        if self.best.len() == self.keep {
            if mcl >= self.best[self.keep - 1] {
                return;
            }
            self.best.pop();
        }
        let at = self.best.partition_point(|&m| m <= mcl);
        self.best.insert(at, mcl);
    }
}

/// The non-identity global reflections that map both first-step boxes onto
/// themselves, each as its action `[on a's, on b's]` orientation indices.
///
/// Reflecting dimension `d` is `x ↦ (c − x) mod k` with `c = 2·origin +
/// extent − 1` for both boxes; a wrapped dimension allows any `c`, a mesh
/// one (extent-2 dimensions included) only `c = k − 1`. On a box it
/// mirrors the placed block, that is it toggles an orientation flip bit,
/// so reflections that lead out of either orientation set (proper
/// rotations only, flips-only large blocks) are dropped. DOR sends ties
/// the `+` way, so its loads are not mirror-symmetric and it gets none.
fn pair_reflections(
    topo: &Torus,
    routing: Routing,
    pair: [&PositionedBlock; 2],
    sets: [&[Orientation]; 2],
) -> Vec<[Vec<usize>; 2]> {
    if routing != Routing::UniformMinimal {
        return Vec::new();
    }
    let centre = |p: &PositionedBlock, d: usize| {
        2 * u32::from(p.origin.get(d)) + u32::from(p.block.extent.get(d)) - 1
    };
    let dims: Vec<usize> = (0..topo.ndims())
        .filter(|&d| {
            let k = u32::from(topo.dim(d));
            let [ca, cb] = pair.map(|p| centre(p, d));
            let fixes_both = if topo.wraps(d) {
                ca % k == cb % k
            } else {
                ca == k - 1 && cb == k - 1
            };
            // a dimension both blocks are flat along moves nothing
            fixes_both && pair.iter().any(|p| p.block.extent.get(d) > 1)
        })
        .collect();
    let index: [HashMap<Orientation, usize>; 2] =
        sets.map(|set| set.iter().enumerate().map(|(i, &o)| (o, i)).collect());
    // the action of reflection subset `sub` of `dims` on child `c`, if it
    // stays inside the child's orientation set
    let act = |sub: u32, c: usize| -> Option<Vec<usize>> {
        let mask = dims
            .iter()
            .enumerate()
            .filter(|&(bit, &d)| (sub >> bit) & 1 == 1 && pair[c].block.extent.get(d) > 1)
            .fold(0u8, |m, (_, &d)| m | (1 << d));
        sets[c]
            .iter()
            .map(|o| index[c].get(&o.with_flips_toggled(mask)).copied())
            .collect()
    };
    (1..1u32 << dims.len())
        .filter_map(|sub| Some([act(sub, 0)?, act(sub, 1)?]))
        .collect()
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
    // one pass buckets the flows between two children by unordered child
    // pair, keeping flow order, so each pair's loads add up as if its
    // flows were filtered from the whole graph
    let mut cross: Vec<Vec<&Flow>> = vec![Vec::new(); k * k];
    for f in graph.flows() {
        let (cs, cd) = (child_of[f.src as usize], child_of[f.dst as usize]);
        if cs != UNSET && cd != UNSET && cs != cd {
            cross[cs.min(cd) * k + cs.max(cd)].push(f);
        }
    }
    let mut avg = vec![0.0f64; k];
    let mut loads = ChannelLoads::new(topo);
    for i in 0..k {
        for j in i + 1..k {
            loads.clear();
            for f in &cross[i * k + j] {
                stencils.route_flow(
                    topo,
                    routing,
                    node_at[f.src as usize],
                    node_at[f.dst as usize],
                    f.bytes,
                    &mut loads,
                );
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
        // 3 children exercise a step on top of routed beam entries
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
        // to fill its cells (as a batch's parallel merges do). Each must
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

    /// A merge problem: children tiling a parent box on some machine.
    struct Case {
        topo: Torus,
        graph: CommGraph,
        children: Vec<PositionedBlock>,
        parent_origin: Coord,
        parent_extent: Coord,
    }

    const FULL: Shortcuts = Shortcuts { quotient: false, bound: false };
    const QUOTIENT: Shortcuts = Shortcuts { quotient: true, bound: false };
    const BOUND: Shortcuts = Shortcuts { quotient: false, bound: true };
    const BOTH: Shortcuts = Shortcuts { quotient: true, bound: true };

    impl Case {
        /// The merge on a budget of `cores` cores.
        fn merge(&self, opts: &MergeOptions, shortcuts: Shortcuts, cores: usize) -> MergeResult {
            merge_with(
                &self.topo,
                &self.graph,
                &self.children,
                &self.parent_origin,
                &self.parent_extent,
                opts,
                shortcuts,
                &CoreBudget::new(cores),
            )
        }

        /// Asserts the search with `shortcuts` returns exactly what the
        /// reference search, which routes every candidate in full, does,
        /// and that a bounded search's whole result, prune count included,
        /// is the same on 1, 2, 3 and 8 cores; returns the shortcut
        /// search's result.
        fn assert_matches_full(&self, opts: &MergeOptions, shortcuts: Shortcuts) -> MergeResult {
            let fast = self.merge(opts, shortcuts, 1);
            let full = self.merge(opts, FULL, 1);
            assert_eq!(fast.block.members, full.block.members);
            assert_eq!(fast.mcl.to_bits(), full.mcl.to_bits());
            assert_eq!(fast.candidates_evaluated, full.candidates_evaluated);
            assert_eq!(fast.candidates_kept, full.candidates_kept);
            assert_eq!((full.candidates_pruned, full.symmetry_skipped), (0, 0));
            if !shortcuts.quotient {
                assert_eq!(fast.symmetry_skipped, 0);
            }
            if !shortcuts.bound {
                assert_eq!(fast.candidates_pruned, 0);
            }
            let summary = |r: &MergeResult| {
                (
                    r.block.members.clone(),
                    r.mcl.to_bits(),
                    r.candidates_evaluated,
                    r.candidates_kept,
                    r.candidates_pruned,
                    r.symmetry_skipped,
                    r.deadline_hit,
                )
            };
            if shortcuts.bound {
                for cores in [2, 3, 8] {
                    let other = self.merge(opts, shortcuts, cores);
                    assert_eq!(summary(&other), summary(&fast), "{cores} cores");
                }
            }
            fast
        }

        /// Asserts the orbit quotient is exact, alone and under the cut
        /// line; returns the number of candidates it skipped.
        fn assert_quotient_exact(&self, opts: &MergeOptions) -> usize {
            let alone = self.assert_matches_full(opts, QUOTIENT);
            let bounded = self.assert_matches_full(opts, BOTH);
            assert_eq!(bounded.symmetry_skipped, alone.symmetry_skipped);
            alone.symmetry_skipped
        }

        /// Asserts the cut line is exact, alone and with the orbit
        /// quotient; returns the number of candidates both together cut.
        fn assert_bound_exact(&self, opts: &MergeOptions) -> usize {
            self.assert_matches_full(opts, BOUND);
            let both = self.assert_matches_full(opts, BOTH);
            assert_eq!(both.symmetry_skipped, self.merge(opts, QUOTIENT, 1).symmetry_skipped);
            both.candidates_pruned
        }
    }

    /// A random case: 1–5 dimensions of extent 1–4, each wrapped or not
    /// (extent-2 wraps become meshes), children of extent 1–4 tiling a
    /// parent box at a random origin, members shuffled. At most three
    /// dimensions are non-flat and at most eight children, so the
    /// reference search stays cheap. With `equal_bytes` every flow carries
    /// the same volume, so candidates tie often.
    fn random_case(seed: u64, equal_bytes: bool) -> Case {
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // redraw until there are at least two children to merge
        let (n, dims, wraps, extent, tiles, origin, children) = loop {
            let n = rng.gen_range(1..6);
            let (mut dims, mut wraps) = (Vec::new(), Vec::new());
            let (mut extent, mut tiles, mut origin) = (Vec::new(), Vec::new(), Vec::new());
            let (mut non_flat, mut children) = (0, 1);
            for _ in 0..n {
                let k: u16 = rng.gen_range(1..5);
                let e: u16 = if non_flat < 3 { rng.gen_range(1..k + 1) } else { 1 };
                non_flat += usize::from(e > 1);
                let m: u16 = if 2 * e <= k && children < 8 && rng.gen_bool(0.7) { 2 } else { 1 };
                children *= usize::from(m);
                dims.push(k);
                wraps.push(rng.gen_bool(0.5));
                extent.push(e);
                tiles.push(m);
                origin.push(rng.gen_range(0..k - e * m + 1));
            }
            if children >= 2 {
                break (n, dims, wraps, extent, tiles, origin, children);
            }
        };
        let extent = Coord::new(&extent);
        let cells: usize = extent.iter().map(usize::from).product();
        let mut ids: Vec<Rank> = (0..(children * cells) as Rank).collect();
        ids.shuffle(&mut rng);
        let ids_per_child = ids.chunks(cells);
        let children: Vec<PositionedBlock> = ids_per_child
            .enumerate()
            .map(|(ci, ids)| {
                let (mut child_origin, mut rest) = (Coord::new(&origin), ci);
                for d in 0..n {
                    let t = (rest % usize::from(tiles[d])) as u16;
                    rest /= usize::from(tiles[d]);
                    child_origin.set(d, origin[d] + t * extent.get(d));
                }
                let members = ids
                    .iter()
                    .enumerate()
                    .map(|(cell, &id)| {
                        let (mut local, mut rest) = (Coord::zero(n), cell);
                        for d in 0..n {
                            local.set(d, (rest % usize::from(extent.get(d))) as u16);
                            rest /= usize::from(extent.get(d));
                        }
                        (id, local)
                    })
                    .collect();
                PositionedBlock { block: Block { extent, members }, origin: child_origin }
            })
            .collect();
        let clusters = ids.len() as u32;
        let max_bytes = if equal_bytes { 1.0 } else { 8.0 };
        let graph = if rng.gen_bool(0.25) {
            patterns::all_to_all(clusters, 1.0)
        } else {
            let flows = rng.gen_range(1..4 * ids.len() + 1);
            patterns::random(clusters, flows, 1.0, max_bytes, rng.gen())
        };
        let parent_extent: Vec<u16> = (0..n).map(|d| extent.get(d) * tiles[d]).collect();
        Case {
            topo: Torus::with_wraps(&dims, &wraps),
            graph,
            children,
            parent_origin: Coord::new(&origin),
            parent_extent: Coord::new(&parent_extent),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 24 } else { 400 }
        ))]

        /// The orbit quotient changes nothing: same merged block, MCL bits
        /// and candidate counts as routing every candidate in full, alone
        /// or under the cut line, under any orientation-set restriction.
        /// The result, prune count included, is the same on any number of
        /// cores. DOR gets no quotient.
        #[test]
        fn orbit_quotient_matches_exhaustive_search(
            seed in 0..u64::MAX,
            equal_bytes in proptest::bool::ANY,
            flips_only in proptest::bool::ANY,
            beam_width in proptest::sample::select(vec![1usize, 4, 64]),
        ) {
            let case = random_case(seed, equal_bytes);
            let opts = MergeOptions {
                beam_width,
                full_group_member_limit: if flips_only { 0 } else { 64 },
                ..Default::default()
            };
            case.assert_quotient_exact(&opts);
            let dor = MergeOptions { routing: Routing::DimOrder, ..opts };
            proptest::prop_assert_eq!(case.assert_quotient_exact(&dor), 0);
        }

        /// The cut line changes nothing: same merged block, MCL bits and
        /// candidate counts as routing every candidate in full, alone or
        /// with the orbit quotient, under either routing model and any
        /// orientation-set restriction. The result, prune count included,
        /// is the same on any number of cores.
        #[test]
        fn beam_bound_matches_unbounded_search(
            seed in 0..u64::MAX,
            equal_bytes in proptest::bool::ANY,
            flips_only in proptest::bool::ANY,
            beam_width in proptest::sample::select(vec![1usize, 4, 64]),
        ) {
            let case = random_case(seed, equal_bytes);
            let opts = MergeOptions {
                beam_width,
                full_group_member_limit: if flips_only { 0 } else { 64 },
                ..Default::default()
            };
            case.assert_bound_exact(&opts);
            case.assert_bound_exact(&MergeOptions { routing: Routing::DimOrder, ..opts });
        }
    }

    #[test]
    fn beam_bound_prunes_the_quadrant_merge() {
        // four 2x2 quadrants of a 4x4 mesh: with a beam of one, the cut
        // line must rank candidates out without finishing them
        let case = Case {
            topo: Torus::mesh(&[4, 4]),
            graph: patterns::random(16, 40, 1.0, 10.0, 11),
            children: quadrant_children(),
            parent_origin: c(&[0, 0]),
            parent_extent: c(&[4, 4]),
        };
        let opts = MergeOptions {
            beam_width: 1,
            ..Default::default()
        };
        let pruned = case.assert_bound_exact(&opts);
        assert!(pruned > 0, "the cut line never fired");
    }

    #[test]
    fn beam_steps_split_into_waves_independent_of_cores() {
        // Eight 2x2x2 octants of a 4x4x4 torus, beam width 1: without the
        // quotient the first step has 48 x 48 representatives in nine
        // chunks, a first wave of one and two of four, so later waves start
        // from seeded cut lines and run on helper threads.
        let octant = |o: u16| {
            let base = Rank::from(o) * 8;
            PositionedBlock {
                block: Block {
                    extent: c(&[2, 2, 2]),
                    members: (0..8u16)
                        .map(|i| {
                            let cell = i * 5 % 8;
                            (base + Rank::from(i), c(&[cell / 4, cell / 2 % 2, cell % 2]))
                        })
                        .collect(),
                },
                origin: c(&[o / 4 * 2, o / 2 % 2 * 2, o % 2 * 2]),
            }
        };
        let case = Case {
            topo: Torus::torus(&[4, 4, 4]),
            graph: patterns::random(64, 200, 1.0, 10.0, 17),
            children: (0..8).map(octant).collect(),
            parent_origin: c(&[0, 0, 0]),
            parent_extent: c(&[4, 4, 4]),
        };
        assert!(48 * 48 > (1 + WAVE) * chunk_len(1), "two waves cover the first step");
        for routing in [Routing::UniformMinimal, Routing::DimOrder] {
            let opts = MergeOptions { beam_width: 1, routing, ..Default::default() };
            assert!(case.assert_bound_exact(&opts) > 0, "the cut line never fired");
        }
    }

    #[test]
    fn orbit_quotient_routes_one_candidate_per_mirror_image() {
        // Two 2x2x2 octants of a 4x4x4 torus: all eight reflections fix
        // both boxes and act freely on the 48 x 48 candidates.
        let topo = Torus::torus(&[4, 4, 4]);
        let g = patterns::random(16, 60, 1.0, 10.0, 5);
        let octant = |parity: Rank, x: u16| PositionedBlock {
            block: Block {
                extent: c(&[2, 2, 2]),
                // cluster 2i + parity sits at cell 3i mod 8
                members: (0..8u16)
                    .map(|i| {
                        let cell = i * 3 % 8;
                        (2 * Rank::from(i) + parity, c(&[cell / 4, cell / 2 % 2, cell % 2]))
                    })
                    .collect(),
            },
            origin: c(&[x, 2, 0]),
        };
        let case = Case {
            topo,
            graph: g,
            children: vec![octant(0, 0), octant(1, 2)],
            parent_origin: c(&[0, 2, 0]),
            parent_extent: c(&[4, 2, 2]),
        };
        let skipped = case.assert_quotient_exact(&MergeOptions::default());
        assert_eq!(skipped, 48 * 48 - 48 * 48 / 8);
        let dor = MergeOptions { routing: Routing::DimOrder, ..Default::default() };
        assert_eq!(case.assert_quotient_exact(&dor), 0);
    }

    use rahtm_commgraph::CommGraph;
}
