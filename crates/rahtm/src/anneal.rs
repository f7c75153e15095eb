//! Simulated-annealing mapper for small sub-problems.
//!
//! RAHTM's MILP (Table II) benefits enormously from a good incumbent: the
//! branch-and-bound can prune against it from the first node, and when the
//! deterministic node budget runs out the incumbent *is* the answer. This
//! module provides that incumbent: a seeded simulated annealing over
//! cluster↔vertex assignments scored by MCL under the chosen routing
//! model. It is also the pipeline's fallback when a sub-problem exceeds
//! the MILP budget entirely.

use rahtm_commgraph::CommGraph;
use rahtm_lp::Deadline;
use rahtm_obs::{counters, Recorder};
use rahtm_routing::{ChannelLoads, RouteStencilCache, Routing};
use rahtm_topology::{NodeId, Torus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How many proposals run between wall-clock deadline polls. Checking
/// `Instant::now()` per proposal would dominate the cheap move evaluation.
const DEADLINE_CHECK_EVERY: usize = 256;

/// Initial temperature as a fraction of the initial MCL.
const T0_FRAC: f64 = 0.3;
/// Geometric cooling: final temperature as a fraction of the initial one.
const T_END_FRAC: f64 = 1e-3;

/// Annealing knobs.
#[derive(Clone, Debug)]
pub struct AnnealOptions {
    /// Proposal count.
    pub iterations: usize,
    /// RNG seed (annealing is fully reproducible).
    pub seed: u64,
    /// Routing model used for scoring.
    pub routing: Routing,
    /// Wall-clock budget: polled every `DEADLINE_CHECK_EVERY` (256)
    /// proposals; on expiry the best placement found so far is returned.
    /// The default never expires, keeping runs deterministic.
    pub deadline: Deadline,
    /// Trace sink (disabled by default; accept/reject totals are recorded
    /// once at the end of the run, never per proposal).
    pub recorder: Recorder,
    /// Shared routing-stencil cache for the scoring cube (a private one is
    /// created when absent). Sharing lets sibling sub-problems on the same
    /// cube reuse each other's displacement stencils.
    pub stencils: Option<Arc<RouteStencilCache>>,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            iterations: 20_000,
            seed: 0x5eed,
            routing: Routing::UniformMinimal,
            deadline: Deadline::never(),
            recorder: Recorder::disabled(),
            stencils: None,
        }
    }
}

/// Result of an annealing run.
#[derive(Clone, Debug)]
pub struct AnnealResult {
    /// cluster → vertex assignment (injective).
    pub placement: Vec<NodeId>,
    /// MCL of the returned placement.
    pub mcl: f64,
    /// Proposals evaluated.
    pub iterations: usize,
    /// Proposals accepted (including downhill moves).
    pub accepted: usize,
    /// Proposals rejected and reverted.
    pub rejected: usize,
}

/// Maps `graph`'s clusters onto the vertices of `cube` (requires
/// `graph.num_ranks() <= cube.num_nodes()`), minimizing MCL by simulated
/// annealing over swaps. Deterministic for a fixed seed.
///
/// # Panics
/// Panics if the graph has more vertices than the cube.
pub fn anneal_map(cube: &Torus, graph: &CommGraph, opts: &AnnealOptions) -> AnnealResult {
    let a = graph.num_ranks() as usize;
    let v = cube.num_nodes() as usize;
    assert!(a <= v, "more clusters than cube vertices");
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // slot occupancy: contents[vertex] = Some(cluster)
    let mut contents: Vec<Option<u32>> = (0..v)
        .map(|i| if i < a { Some(i as u32) } else { None })
        .collect();
    let mut placement: Vec<NodeId> = (0..a as u32).collect();

    let local_cache;
    let stencils: &RouteStencilCache = match &opts.stencils {
        Some(c) => {
            debug_assert!(c.matches(cube), "stencil cache bound to a different cube");
            c
        }
        None => {
            local_cache = RouteStencilCache::new(cube);
            &local_cache
        }
    };
    // A proposal re-routes the whole graph into one reused accumulator,
    // `route_graph` bit for bit. The pipeline's sub-problems have at most
    // 2^n clusters, where that costs less than per-channel delta
    // bookkeeping.
    // `chan_widths` is `ChannelLoads::mcl`'s scan order, built once
    // instead of walking `cube.channels()` per proposal.
    let chan_widths: Vec<(u32, f64)> = cube.channels().map(|ch| (ch.id, ch.width)).collect();
    let mut loads = ChannelLoads::new(cube);
    let mut score = |placement: &[NodeId]| {
        stencils.route_graph_into(cube, graph, placement, opts.routing, &mut loads);
        width_max(&loads, &chan_widths)
    };
    let mut cur = score(&placement);
    let mut best = cur;
    let mut best_placement = placement.clone();

    if a <= 1 || graph.num_flows() == 0 || opts.iterations == 0 {
        return AnnealResult {
            placement,
            mcl: cur,
            iterations: 0,
            accepted: 0,
            rejected: 0,
        };
    }

    let t0 = (cur * T0_FRAC).max(1e-9);
    let t_end = (t0 * T_END_FRAC).max(1e-12);
    let cool = (t_end / t0).powf(1.0 / opts.iterations as f64);
    let mut temp = t0;

    let mut done = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for it in 0..opts.iterations {
        if it.is_multiple_of(DEADLINE_CHECK_EVERY) && opts.deadline.is_expired() {
            break;
        }
        done = it + 1;
        // propose swapping the contents of two vertices (at least one
        // occupied, otherwise it's a no-op)
        let va = rng.gen_range(0..v);
        let mut vb = rng.gen_range(0..v - 1);
        if vb >= va {
            vb += 1;
        }
        if contents[va].is_none() && contents[vb].is_none() {
            temp *= cool;
            continue;
        }
        swap_vertices(&mut contents, &mut placement, va, vb);
        let cand = score(&placement);
        let accept = cand <= cur || {
            let p = ((cur - cand) / temp).exp();
            rng.gen::<f64>() < p
        };
        if accept {
            accepted += 1;
            cur = cand;
            if cand < best {
                best = cand;
                best_placement.copy_from_slice(&placement);
            }
        } else {
            rejected += 1;
            swap_vertices(&mut contents, &mut placement, va, vb);
        }
        temp *= cool;
    }
    opts.recorder
        .add(counters::ANNEAL_ACCEPTED, accepted as u64);
    opts.recorder
        .add(counters::ANNEAL_REJECTED, rejected as u64);
    opts.recorder.add(
        counters::DEADLINE_CHECKS,
        (done / DEADLINE_CHECK_EVERY + 1) as u64,
    );
    AnnealResult {
        placement: best_placement,
        mcl: best,
        iterations: done,
        accepted,
        rejected,
    }
}

/// Swaps the contents of vertices `va` and `vb` and moves their clusters
/// in `placement` along.
fn swap_vertices(contents: &mut [Option<u32>], placement: &mut [NodeId], va: usize, vb: usize) {
    contents.swap(va, vb);
    for vx in [va, vb] {
        if let Some(c) = contents[vx] {
            placement[c as usize] = vx as NodeId;
        }
    }
}

/// Width-normalized maximum of `loads` over `chan_widths`, scanned in
/// order: bit for bit `ChannelLoads::mcl` when the list is the topology's
/// `(slot, width)` channel list.
fn width_max(loads: &ChannelLoads, chan_widths: &[(u32, f64)]) -> f64 {
    let mut max = 0.0f64;
    for &(slot, w) in chan_widths {
        let v = loads.get(slot) / w;
        if v > max {
            max = v;
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;
    use rahtm_routing::route_graph;

    #[test]
    fn deterministic_for_seed() {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::random(8, 20, 1.0, 10.0, 3);
        let a = anneal_map(&cube, &g, &AnnealOptions::default());
        let b = anneal_map(&cube, &g, &AnnealOptions::default());
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.mcl, b.mcl);
    }

    #[test]
    fn injective_placement() {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::random(6, 12, 1.0, 5.0, 9);
        let r = anneal_map(&cube, &g, &AnnealOptions::default());
        let set: std::collections::HashSet<_> = r.placement.iter().collect();
        assert_eq!(set.len(), 6, "placement must be injective");
    }

    #[test]
    fn improves_over_identity() {
        // figure-1 style: heavy pair + ring; identity puts heavy pair on
        // one link of a 2x2; annealing should find the diagonal.
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100.0, 1.0);
        let identity: Vec<NodeId> = (0..4).collect();
        let id_mcl = route_graph(&cube, &g, &identity, Routing::UniformMinimal).mcl(&cube);
        let r = anneal_map(&cube, &g, &AnnealOptions::default());
        assert!(r.mcl < id_mcl, "anneal {} vs identity {id_mcl}", r.mcl);
        // optimal is the diagonal split: 100/2 + light traffic
        assert!(r.mcl <= 52.0 + 1e-9, "should find near-optimal: {}", r.mcl);
    }

    #[test]
    fn single_cluster_trivial() {
        let cube = Torus::two_ary_cube(2);
        let g = CommGraph::new(1);
        let r = anneal_map(&cube, &g, &AnnealOptions::default());
        assert_eq!(r.placement, vec![0]);
        assert_eq!(r.mcl, 0.0);
    }

    #[test]
    fn expired_deadline_returns_valid_placement_immediately() {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::random(8, 20, 1.0, 10.0, 3);
        let r = anneal_map(
            &cube,
            &g,
            &AnnealOptions {
                deadline: Deadline::after_secs(0.0),
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 0, "no proposals under an expired deadline");
        let set: std::collections::HashSet<_> = r.placement.iter().collect();
        assert_eq!(set.len(), 8, "placement must still be injective");
        let check = route_graph(&cube, &g, &r.placement, Routing::UniformMinimal).mcl(&cube);
        assert!((r.mcl - check).abs() < 1e-12);
    }

    #[test]
    fn result_mcl_matches_placement() {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::butterfly(8, 2.0);
        let r = anneal_map(&cube, &g, &AnnealOptions::default());
        let check = route_graph(&cube, &g, &r.placement, Routing::UniformMinimal).mcl(&cube);
        assert!((r.mcl - check).abs() < 1e-12);
    }

    #[test]
    fn reroute_scoring_is_bit_identical_to_route_graph() {
        // Every proposal is scored by re-routing through the stencil
        // cache; the best MCL must be exactly the direct router's for the
        // returned placement, under both routing models, on a full cube
        // and on one with empty vertices (moves onto an empty vertex), and
        // a shared external cache must perturb neither placement nor MCL.
        let cube = Torus::two_ary_cube(4);
        for routing in [Routing::UniformMinimal, Routing::DimOrder] {
            for clusters in [16u32, 11] {
                let g = patterns::random(clusters, 60, 1.0, 30.0, 21);
                let opts = AnnealOptions {
                    routing,
                    ..Default::default()
                };
                let r = anneal_map(&cube, &g, &opts);
                let check = route_graph(&cube, &g, &r.placement, routing).mcl(&cube);
                assert_eq!(
                    r.mcl.to_bits(),
                    check.to_bits(),
                    "{routing:?}, {clusters} clusters: anneal MCL {} vs route_graph {check}",
                    r.mcl
                );
                let shared = Arc::new(RouteStencilCache::new(&cube));
                let r2 = anneal_map(
                    &cube,
                    &g,
                    &AnnealOptions {
                        stencils: Some(Arc::clone(&shared)),
                        ..opts
                    },
                );
                assert_eq!(r.placement, r2.placement);
                assert_eq!(r.mcl.to_bits(), r2.mcl.to_bits());
                assert!(shared.hits() > 0);
            }
        }
    }

    use rahtm_commgraph::CommGraph;
}
