//! Dragonfly extension (§VI: "RAHTM can be extended to other topologies
//! like fat-trees and dragonfly").
//!
//! A canonical dragonfly is three nested complete graphs: `p` compute
//! nodes per router, `a` routers all-to-all within a group, `g` groups
//! all-to-all through global links. Every level is vertex-symmetric, so —
//! as with the fat-tree — RAHTM's orientation machinery degenerates and
//! the mapping problem reduces to a *recursive partition*: which ranks
//! share a node, which nodes share a router, which routers share a group.
//! What stays interesting is the load model: local links carry both
//! direct intra-group traffic and the gateway detours of inter-group
//! traffic, so partition quality at one level interacts with the level
//! above — exactly the coupling the phase-1 tiling search navigates.
//!
//! Routing model: minimal dragonfly routing with ECMP over gateways
//! (every router has `h` global links; an inter-group flow picks a
//! uniform-random gateway router pair, giving exact per-link expected
//! loads — the dragonfly analogue of the paper's MAR approximation).

use crate::fattree::number_leaves;
use rahtm_commgraph::{CommGraph, RankGrid};

/// A canonical dragonfly machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Dragonfly {
    /// Compute nodes per router (`p`).
    pub nodes_per_router: u32,
    /// Routers per group (`a`), fully connected locally.
    pub routers_per_group: u32,
    /// Number of groups (`g`), fully connected globally.
    pub num_groups: u32,
    /// Aggregate global-link capacity between each ordered group pair
    /// (unit links; canonical balanced dragonfly has `a·h/(g−1)`).
    pub global_width: f64,
}

impl Dragonfly {
    /// A balanced dragonfly from the canonical `p = h = a/2` rule:
    /// `a` routers/group, `a/2` nodes/router, `a/2` global links/router,
    /// `a²/2 / (g−1)` aggregate width per group pair.
    ///
    /// # Panics
    /// Panics unless `a` is even, `a ≥ 2`, and `g ≥ 2`.
    pub fn balanced(a: u32, g: u32) -> Self {
        assert!(a >= 2 && a.is_multiple_of(2) && g >= 2);
        let h = a / 2;
        Dragonfly {
            nodes_per_router: a / 2,
            routers_per_group: a,
            num_groups: g,
            global_width: (a * h) as f64 / (g - 1) as f64,
        }
    }

    /// Total compute nodes.
    pub fn num_nodes(&self) -> u32 {
        self.nodes_per_router * self.routers_per_group * self.num_groups
    }

    /// Router index (machine-global) of a node.
    pub fn router_of(&self, node: u32) -> u32 {
        node / self.nodes_per_router
    }

    /// Group index of a node.
    pub fn group_of(&self, node: u32) -> u32 {
        self.router_of(node) / self.routers_per_group
    }

    /// Minimal-path hop count between nodes (terminal links excluded):
    /// 0 same router, 1 same group, ≤ 3 inter-group (local, global,
    /// local).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        if self.router_of(a) == self.router_of(b) {
            0
        } else if self.group_of(a) == self.group_of(b) {
            1
        } else {
            3
        }
    }

    /// Maximum channel load of `graph` under `placement` (rank → node),
    /// normalized per channel class:
    ///
    /// * terminal links (node↔router), width 1;
    /// * local links (ordered router pairs within a group), width 1,
    ///   loaded by direct intra-group flows plus the ECMP-spread gateway
    ///   hops of inter-group flows;
    /// * global links (ordered group pairs), width `global_width`.
    ///
    /// # Panics
    /// Panics on placement/shape mismatches.
    pub fn mcl(&self, graph: &CommGraph, placement: &[u32]) -> f64 {
        assert_eq!(placement.len(), graph.num_ranks() as usize);
        let n = self.num_nodes();
        for &nd in placement {
            assert!(nd < n, "node {nd} out of range");
        }
        let a = self.routers_per_group as usize;
        let g = self.num_groups as usize;
        // terminal loads per node (out, in)
        let mut term_out = vec![0.0f64; n as usize];
        let mut term_in = vec![0.0f64; n as usize];
        // local link loads, ordered router pair within group:
        // index = group * a * a + src_local * a + dst_local
        let mut local = vec![0.0f64; g * a * a];
        // global link loads per ordered group pair
        let mut global = vec![0.0f64; g * g];

        for f in graph.flows() {
            let (ns, nd) = (placement[f.src as usize], placement[f.dst as usize]);
            if ns == nd {
                continue;
            }
            let (rs, rd) = (self.router_of(ns), self.router_of(nd));
            term_out[ns as usize] += f.bytes;
            term_in[nd as usize] += f.bytes;
            if rs == rd {
                continue;
            }
            let (gs, gd) = (self.group_of(ns), self.group_of(nd));
            let (ls, ld) = (
                (rs % self.routers_per_group) as usize,
                (rd % self.routers_per_group) as usize,
            );
            if gs == gd {
                local[gs as usize * a * a + ls * a + ld] += f.bytes;
            } else {
                // ECMP over gateway routers: the source's local hop goes to
                // a uniform-random router of the group (including possibly
                // rs itself, in which case no local hop); symmetric at the
                // destination.
                let share = f.bytes / a as f64;
                for gw in 0..a {
                    if gw != ls {
                        local[gs as usize * a * a + ls * a + gw] += share;
                    }
                    if gw != ld {
                        local[gd as usize * a * a + gw * a + ld] += share;
                    }
                }
                global[gs as usize * g + gd as usize] += f.bytes;
            }
        }
        let mut worst = 0.0f64;
        for v in term_out.into_iter().chain(term_in) {
            worst = worst.max(v);
        }
        for v in local {
            worst = worst.max(v);
        }
        for v in global {
            worst = worst.max(v / self.global_width);
        }
        worst
    }
}

/// Result of the dragonfly mapper.
#[derive(Clone, Debug)]
pub struct DragonflyMapping {
    /// rank → node assignment.
    pub node_of: Vec<u32>,
    /// Achieved MCL.
    pub mcl: f64,
}

/// RAHTM-for-dragonflies: recursive partition (ranks → nodes → routers →
/// groups) by the phase-1 tiling search. All three machine levels are
/// vertex-symmetric, so the partition is the mapping (no orientations).
///
/// # Panics
/// Panics unless the rank count fills the machine uniformly.
pub fn dragonfly_map(df: &Dragonfly, graph: &CommGraph, grid: &RankGrid) -> DragonflyMapping {
    let r = graph.num_ranks();
    let n = df.num_nodes();
    assert!(r >= n && r.is_multiple_of(n), "ranks must fill nodes");
    assert_eq!(grid.num_ranks(), r);

    // ranks -> nodes -> routers -> groups
    let arities = [df.nodes_per_router, df.routers_per_group, df.num_groups];
    let (node_of, _) = number_leaves(graph, grid, r / n, &arities);
    let mcl = df.mcl(graph, &node_of);
    DragonflyMapping { node_of, mcl }
}

/// The default dragonfly mapping: rank r → node r / concentration.
pub fn dragonfly_default(df: &Dragonfly, num_ranks: u32) -> Vec<u32> {
    let conc = (num_ranks / df.num_nodes()).max(1);
    (0..num_ranks).map(|r| r / conc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    #[test]
    fn balanced_geometry() {
        let df = Dragonfly::balanced(4, 3);
        assert_eq!(df.nodes_per_router, 2);
        assert_eq!(df.num_nodes(), 24);
        assert_eq!(df.group_of(0), 0);
        assert_eq!(df.group_of(23), 2);
        assert_eq!(df.distance(0, 1), 0); // same router
        assert_eq!(df.distance(0, 2), 1); // same group
        assert_eq!(df.distance(0, 8), 3); // inter-group
    }

    #[test]
    fn mcl_intra_router_is_terminal_only() {
        let df = Dragonfly::balanced(4, 2);
        let mut g = CommGraph::new(df.num_nodes());
        g.add(0, 1, 10.0); // nodes 0,1 share router 0
        let place: Vec<u32> = (0..df.num_nodes()).collect();
        // terminal links carry it; no local/global load
        assert_eq!(df.mcl(&g, &place), 10.0);
    }

    #[test]
    fn mcl_intra_group_uses_one_local_link() {
        let df = Dragonfly::balanced(4, 2);
        let mut g = CommGraph::new(df.num_nodes());
        g.add(0, 2, 10.0); // routers 0 -> 1, same group
        let place: Vec<u32> = (0..df.num_nodes()).collect();
        assert_eq!(df.mcl(&g, &place), 10.0);
    }

    #[test]
    fn inter_group_spreads_over_gateways() {
        let df = Dragonfly::balanced(4, 2);
        let n = df.num_nodes();
        let mut g = CommGraph::new(n);
        // node 0 (group 0) -> node in group 1
        let target = df.nodes_per_router * df.routers_per_group; // first node of group 1
        g.add(0, target, 12.0);
        let place: Vec<u32> = (0..n).collect();
        let mcl = df.mcl(&g, &place);
        // terminal = 12; local gateway hops = 12/4 = 3 each; global =
        // 12 / width (width = 4*2/1 = 8) = 1.5 -> terminal dominates
        assert_eq!(mcl, 12.0);
        // remove terminal domination by lowering volume per flow but
        // many flows from distinct nodes of group 0 to distinct nodes of
        // group 1: global aggregates
        let mut g2 = CommGraph::new(n);
        for i in 0..8u32 {
            g2.add(i, target + i % df.nodes_per_router, 8.0);
        }
        let mcl2 = df.mcl(&g2, &place);
        // global pair load = 64 / 8 = 8; terminal at target nodes: 4 flows
        // each? 8 sources -> 2 destination nodes: 4*8 = 32 in-term load
        assert_eq!(mcl2, 32.0);
    }

    #[test]
    fn mapper_beats_or_ties_default_on_halo() {
        let df = Dragonfly::balanced(4, 4); // 2*4*4 = 32 nodes
        let g = patterns::halo_2d(8, 8, 100.0, true); // 64 ranks, conc 2
        let grid = RankGrid::new(&[8, 8]);
        let m = dragonfly_map(&df, &g, &grid);
        let d = df.mcl(&g, &dragonfly_default(&df, 64));
        assert!(m.mcl <= d + 1e-9, "mapper {} vs default {d}", m.mcl);
        // bijective up to concentration: every node exactly 2 ranks
        let mut counts = std::collections::HashMap::new();
        for &nd in &m.node_of {
            *counts.entry(nd).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 32);
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    fn reported_mcl_matches_recomputation() {
        let df = Dragonfly::balanced(2, 3); // 1*2*3 = 6 nodes
        let g = patterns::random(6, 14, 1.0, 10.0, 5);
        let grid = RankGrid::new(&[2, 3]);
        let m = dragonfly_map(&df, &g, &grid);
        assert!((m.mcl - df.mcl(&g, &m.node_of)).abs() < 1e-12);
    }

    /// Reference node numbering, written out level by level: one slot
    /// counter per group, then one per router.
    fn reference_dragonfly_map(df: &Dragonfly, graph: &CommGraph, grid: &RankGrid) -> Vec<u32> {
        let n = df.num_nodes();
        let conc = graph.num_ranks() / n;
        let lvl_node = cluster_level(graph, grid, conc);
        let lvl_router = cluster_level(
            &lvl_node.coarse_graph,
            &lvl_node.coarse_grid,
            df.nodes_per_router,
        );
        let lvl_group = cluster_level(
            &lvl_router.coarse_graph,
            &lvl_router.coarse_grid,
            df.routers_per_group,
        );
        let num_routers = (df.routers_per_group * df.num_groups) as usize;
        let mut router_phys = vec![u32::MAX; num_routers];
        let mut next_in_group = vec![0u32; df.num_groups as usize];
        for rc in 0..num_routers {
            let grp = lvl_group.assignment[rc];
            let slot = next_in_group[grp as usize];
            assert!(slot < df.routers_per_group);
            router_phys[rc] = grp * df.routers_per_group + slot;
            next_in_group[grp as usize] = slot + 1;
        }
        let mut node_phys = vec![u32::MAX; n as usize];
        let mut next_on_router = vec![0u32; num_routers];
        for nc in 0..n as usize {
            let rc = lvl_router.assignment[nc];
            let slot = next_on_router[rc as usize];
            assert!(slot < df.nodes_per_router);
            node_phys[nc] = router_phys[rc as usize] * df.nodes_per_router + slot;
            next_on_router[rc as usize] = slot + 1;
        }
        lvl_node
            .assignment
            .iter()
            .map(|&nc| node_phys[nc as usize])
            .collect()
    }

    #[test]
    fn node_numbering_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..60u64 {
            let df = Dragonfly {
                nodes_per_router: rng.gen_range(1..4),
                routers_per_group: rng.gen_range(2..5),
                num_groups: rng.gen_range(2..5),
                global_width: 1.0,
            };
            let r = df.num_nodes() * rng.gen_range(1..4);
            let flows = rng.gen_range(r as usize..4 * r as usize);
            let g = patterns::random(r, flows, 1.0, 10.0, case);
            let grid = random_grid(&mut rng, r);
            let m = dragonfly_map(&df, &g, &grid);
            let reference = reference_dragonfly_map(&df, &g, &grid);
            assert_eq!(m.node_of, reference, "case {case}: {df:?}, grid {:?}", grid.dims());
        }
    }

    use crate::cluster::cluster_level;
    use crate::fattree::tests::random_grid;
    use rahtm_commgraph::CommGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
}
