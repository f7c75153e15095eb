//! Routing-unaware comparators: greedy hop-bytes and random mappings.
//!
//! The greedy mapper is representative of the heuristic, application-aware
//! but routing-*oblivious* tools of §II-B: it minimizes hop-bytes by
//! pulling heavy communication partners close together. Section III-A
//! shows why this is the wrong objective under minimum adaptive routing —
//! `harness ablation` quantifies it. The random mapping provides the
//! worst-case-ish floor.

use rahtm_commgraph::CommGraph;
use rahtm_topology::{BgqMachine, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Greedy hop-bytes construction: ranks are placed in decreasing order of
/// incident volume; each rank takes the free node slot minimizing the
/// hop-bytes to its already-placed partners (first placed rank takes node
/// 0). Ties break toward the lowest node id, so the mapping is
/// deterministic.
///
/// # Panics
/// Panics if the ranks don't fit the machine.
pub fn greedy_hop_bytes(machine: &BgqMachine, graph: &CommGraph) -> Vec<NodeId> {
    let topo = machine.torus();
    let r = graph.num_ranks();
    assert!(r as u64 <= machine.num_process_slots());
    let conc = machine.concentration();
    let mut free = vec![conc; topo.num_nodes() as usize];
    let mut placed: Vec<Option<NodeId>> = vec![None; r as usize];

    // process ranks by decreasing incident volume
    let vols = graph.rank_volumes();
    let mut order: Vec<u32> = (0..r).collect();
    order.sort_by(|&a, &b| {
        vols[b as usize]
            .partial_cmp(&vols[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    // adjacency: partners with volumes
    let mut partners: Vec<Vec<(u32, f64)>> = vec![Vec::new(); r as usize];
    for f in graph.flows() {
        partners[f.src as usize].push((f.dst, f.bytes));
        partners[f.dst as usize].push((f.src, f.bytes));
    }

    for &rank in &order {
        let mut best: Option<(f64, NodeId)> = None;
        for node in topo.nodes() {
            if free[node as usize] == 0 {
                continue;
            }
            let cost: f64 = partners[rank as usize]
                .iter()
                .filter_map(|&(p, bytes)| {
                    placed[p as usize].map(|pn| bytes * topo.distance(node, pn) as f64)
                })
                .sum();
            let better = match best {
                None => true,
                Some((bc, bn)) => cost < bc - 1e-12 || (cost < bc + 1e-12 && node < bn),
            };
            if better {
                best = Some((cost, node));
            }
        }
        let (_, node) = best.expect("machine has room");
        placed[rank as usize] = Some(node);
        free[node as usize] -= 1;
    }
    placed.into_iter().map(|p| p.unwrap()).collect()
}

/// A seeded uniform-random mapping (each node receives exactly
/// `ranks / nodes` ranks).
///
/// # Panics
/// Panics unless `num_ranks` is a multiple of the node count within the
/// machine's capacity.
pub fn random_mapping(machine: &BgqMachine, num_ranks: u32, seed: u64) -> Vec<NodeId> {
    let nodes = machine.torus().num_nodes();
    assert!(num_ranks.is_multiple_of(nodes));
    let conc = num_ranks / nodes;
    assert!(conc <= machine.concentration());
    let mut slots: Vec<NodeId> = (0..nodes)
        .flat_map(|n| std::iter::repeat_n(n, conc as usize))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    slots.shuffle(&mut rng);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;
    use rahtm_routing::{mapping_hop_bytes, Routing};
    use rahtm_topology::Torus;

    fn toy() -> BgqMachine {
        BgqMachine::new(Torus::torus(&[4, 4]), 1, 1)
    }

    #[test]
    fn greedy_beats_random_on_hop_bytes() {
        let m = toy();
        let g = patterns::halo_2d(4, 4, 5.0, true);
        let greedy = greedy_hop_bytes(&m, &g);
        let rnd = random_mapping(&m, 16, 4);
        let hb_g = mapping_hop_bytes(m.torus(), &g, &greedy);
        let hb_r = mapping_hop_bytes(m.torus(), &g, &rnd);
        assert!(hb_g < hb_r, "greedy {hb_g} vs random {hb_r}");
    }

    #[test]
    fn greedy_pulls_heavy_pair_together() {
        let m = toy();
        let g = patterns::figure1(100.0, 1.0);
        let map = greedy_hop_bytes(&m, &g);
        // the two heavy partners end up adjacent (hop-bytes logic),
        // which figure1 shows is exactly the routing-unaware mistake
        assert_eq!(m.torus().distance(map[0], map[1]), 1);
    }

    #[test]
    fn greedy_respects_concentration() {
        let m = BgqMachine::new(Torus::torus(&[2, 2]), 4, 2);
        let g = patterns::ring(8, 1.0);
        let map = greedy_hop_bytes(&m, &g);
        let mut counts = std::collections::HashMap::new();
        for &n in &map {
            *counts.entry(n).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c <= 2));
    }

    #[test]
    fn greedy_is_deterministic() {
        let m = toy();
        let g = patterns::random(16, 40, 1.0, 9.0, 12);
        assert_eq!(greedy_hop_bytes(&m, &g), greedy_hop_bytes(&m, &g));
    }

    #[test]
    fn random_mapping_balanced_and_seeded() {
        let m = BgqMachine::new(Torus::torus(&[2, 2]), 4, 4);
        let a = random_mapping(&m, 16, 7);
        let b = random_mapping(&m, 16, 7);
        assert_eq!(a, b);
        let mut counts = std::collections::HashMap::new();
        for &n in &a {
            *counts.entry(n).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c == 4));
        assert_ne!(a, random_mapping(&m, 16, 8));
    }

    #[test]
    fn greedy_hopbytes_vs_mcl_tension() {
        // On figure1, greedy (hop-bytes) yields a higher MCL than the
        // diagonal placement RAHTM's objective prefers.
        let m = BgqMachine::new(Torus::torus(&[2, 2]), 1, 1);
        let g = patterns::figure1(100.0, 1.0);
        let greedy = greedy_hop_bytes(&m, &g);
        let mcl_greedy =
            rahtm_routing::mapping_mcl(m.torus(), &g, &greedy, Routing::UniformMinimal);
        // diagonal placement
        let diag = vec![0u32, 3, 1, 2];
        let mcl_diag = rahtm_routing::mapping_mcl(m.torus(), &g, &diag, Routing::UniformMinimal);
        assert!(mcl_diag < mcl_greedy);
    }
}
