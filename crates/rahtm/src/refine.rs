//! Post-pipeline refinement (§VI: "we are also pursuing techniques to
//! \[improve\] the quality of mapping").
//!
//! The hierarchical decomposition occasionally strands a pair of clusters
//! in sub-optimal positions that no block orientation can fix (the
//! "restrictive recursive structure" the paper's merge phase loosens but
//! cannot eliminate). A short greedy pairwise-swap descent over the final
//! node-level placement repairs exactly those cases: propose swapping the
//! contents of the two nodes touching the current bottleneck channel (plus
//! random candidates), accept strict MCL improvements, stop at a local
//! optimum or budget.
//!
//! This is *not* part of the paper's algorithm — it is the obvious
//! instantiation of its future-work remark, off by default
//! (`RahtmConfig::default` leaves `polish_swaps = 0`).

use rahtm_commgraph::CommGraph;
use rahtm_routing::{ChannelLoads, RouteStencilCache, Routing};
use rahtm_topology::{NodeId, Torus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a polish pass.
#[derive(Clone, Debug)]
pub struct PolishResult {
    /// Refined cluster → node placement.
    pub placement: Vec<NodeId>,
    /// MCL before.
    pub initial_mcl: f64,
    /// MCL after.
    pub final_mcl: f64,
    /// Accepted swaps.
    pub swaps_accepted: usize,
    /// Proposals evaluated.
    pub proposals: usize,
}

/// Greedily improves a node-level placement by cluster swaps.
///
/// `max_proposals` bounds the work; the search proposes swaps between a
/// bottleneck-adjacent cluster and (a) the other bottleneck endpoint's
/// cluster, then (b) random clusters, accepting strict improvements.
/// Each proposal re-routes the whole graph through `stencils` into a
/// reused candidate accumulator, which becomes the current one on accept.
///
/// # Panics
/// Panics if `placement.len() != graph.num_ranks()` or the placement is
/// not injective.
pub fn polish_placement_with(
    topo: &Torus,
    graph: &CommGraph,
    placement: &[NodeId],
    routing: Routing,
    max_proposals: usize,
    seed: u64,
    stencils: &RouteStencilCache,
) -> PolishResult {
    assert_eq!(placement.len(), graph.num_ranks() as usize);
    let mut place = placement.to_vec();
    {
        let distinct: std::collections::HashSet<_> = place.iter().collect();
        assert_eq!(distinct.len(), place.len(), "placement must be injective");
    }
    // node -> cluster (dense inverse; placement is injective)
    let mut cluster_at: Vec<Option<u32>> = vec![None; topo.num_nodes() as usize];
    for (cl, &n) in place.iter().enumerate() {
        cluster_at[n as usize] = Some(cl as u32);
    }
    let mut loads = stencils.route_graph(topo, graph, &place, routing);
    let mut cand_loads = ChannelLoads::new(topo);
    let initial_mcl = loads.mcl(topo);
    let mut cur = initial_mcl;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut swaps_accepted = 0;
    let mut proposals = 0;

    while proposals < max_proposals {
        // find the bottleneck channel's endpoints
        let Some((bottleneck, _)) = loads.argmax(topo) else {
            break;
        };
        let (src_node, dim, dir) = topo.channel_parts(bottleneck);
        let dst_node = topo.step(src_node, dim, dir);
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        // swap the clusters on the bottleneck's endpoints with random peers
        for &n in &[src_node, dst_node] {
            if let Some(cl) = cluster_at[n as usize] {
                for _ in 0..4 {
                    let other = rng.gen_range(0..place.len() as u32);
                    if other != cl {
                        candidates.push((cl, other));
                    }
                }
            }
        }
        if let (Some(a), Some(b)) = (cluster_at[src_node as usize], cluster_at[dst_node as usize]) {
            if a != b {
                candidates.push((a, b));
            }
        }
        let mut improved = false;
        for (a, b) in candidates {
            if proposals >= max_proposals {
                break;
            }
            proposals += 1;
            place.swap(a as usize, b as usize);
            stencils.route_graph_into(topo, graph, &place, routing, &mut cand_loads);
            let cand = cand_loads.mcl(topo);
            if cand < cur - 1e-12 {
                std::mem::swap(&mut loads, &mut cand_loads);
                cur = cand;
                cluster_at[place[a as usize] as usize] = Some(a);
                cluster_at[place[b as usize] as usize] = Some(b);
                swaps_accepted += 1;
                improved = true;
                break;
            }
            place.swap(a as usize, b as usize);
        }
        if !improved {
            break; // local optimum w.r.t. this neighborhood
        }
    }
    PolishResult {
        placement: place,
        initial_mcl,
        final_mcl: cur,
        swaps_accepted,
        proposals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;
    use rahtm_routing::route_graph;

    fn polish(
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
        max_proposals: usize,
        seed: u64,
    ) -> PolishResult {
        let stencils = RouteStencilCache::new(topo);
        let routing = Routing::UniformMinimal;
        polish_placement_with(
            topo,
            graph,
            placement,
            routing,
            max_proposals,
            seed,
            &stencils,
        )
    }

    #[test]
    fn never_worse_and_stays_injective() {
        let topo = Torus::torus(&[4, 4]);
        for seed in [1u64, 2, 3] {
            let g = patterns::random(16, 40, 1.0, 20.0, seed);
            let place: Vec<NodeId> = (0..16).collect();
            let r = polish(&topo, &g, &place, 500, seed);
            assert!(r.final_mcl <= r.initial_mcl + 1e-9);
            let distinct: std::collections::HashSet<_> = r.placement.iter().collect();
            assert_eq!(distinct.len(), 16);
            // reported MCL is exactly the direct router's
            let check = route_graph(&topo, &g, &r.placement, Routing::UniformMinimal).mcl(&topo);
            assert_eq!(r.final_mcl.to_bits(), check.to_bits());
        }
    }

    #[test]
    fn repairs_a_planted_bad_swap() {
        // figure1 with the heavy pair adjacent: one swap reaches the
        // diagonal optimum
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100.0, 1.0);
        let adjacent: Vec<NodeId> = vec![0, 1, 2, 3];
        let r = polish(&topo, &g, &adjacent, 200, 7);
        assert!(r.final_mcl < r.initial_mcl);
        assert!(r.swaps_accepted >= 1);
        assert!(
            r.final_mcl <= 52.0,
            "should reach near-optimal: {}",
            r.final_mcl
        );
    }

    #[test]
    fn zero_budget_is_identity() {
        let topo = Torus::torus(&[4]);
        let g = patterns::ring(4, 1.0);
        let place: Vec<NodeId> = vec![2, 0, 3, 1];
        let r = polish(&topo, &g, &place, 0, 1);
        assert_eq!(r.placement, place);
        assert_eq!(r.swaps_accepted, 0);
    }

    #[test]
    #[should_panic]
    fn non_injective_rejected() {
        let topo = Torus::torus(&[4]);
        let g = patterns::ring(4, 1.0);
        polish(&topo, &g, &[0, 0, 1, 2], 10, 1);
    }
}
