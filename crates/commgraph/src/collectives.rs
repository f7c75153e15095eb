//! Collective-communication patterns lowered to point-to-point flows.
//!
//! The paper's RAHTM handles point-to-point traffic only, but §VI sketches
//! the extension: "it is possible to use the communication patterns for
//! known implementations of collective communication primitives to extend
//! RAHTM beyond point-to-point communication". This module implements that
//! extension — each collective, for a chosen implementation algorithm,
//! expands into the exact (src, dst, bytes) flows the algorithm induces,
//! which then feed the unchanged RAHTM pipeline.
//!
//! Implementations follow the classic MPICH/OpenMPI algorithm families the
//! paper cites (recursive doubling, dissemination \[21\], rings, binomial
//! trees).

use crate::graph::CommGraph;

/// Which algorithm a collective is lowered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveAlgorithm {
    /// Pairwise XOR exchange; requires power-of-two ranks.
    RecursiveDoubling,
    /// Hensgen et al. dissemination: rank `i` sends to `(i + 2^s) % n`
    /// at stage `s`; works for any rank count.
    Dissemination,
    /// Neighbor ring (bandwidth-optimal for large payloads).
    Ring,
    /// Binomial tree rooted at rank 0.
    BinomialTree,
}

/// Adds the flows of an **all-gather** of `bytes_per_rank` per rank.
///
/// # Panics
/// Panics if `RecursiveDoubling` is requested with a non-power-of-two rank
/// count.
pub fn allgather(g: &mut CommGraph, algo: CollectiveAlgorithm, bytes_per_rank: f64) {
    let n = g.num_ranks();
    assert!(n >= 2);
    match algo {
        CollectiveAlgorithm::RecursiveDoubling => {
            assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
            // stage s: exchange 2^s * bytes with partner rank ^ 2^s
            for s in 0..n.trailing_zeros() {
                let vol = (1u32 << s) as f64 * bytes_per_rank;
                for r in 0..n {
                    g.add(r, r ^ (1 << s), vol);
                }
            }
        }
        CollectiveAlgorithm::Dissemination => {
            // ceil(log2 n) stages; stage s sends everything gathered so far
            let mut s = 0u32;
            while (1u64 << s) < n as u64 {
                let vol = ((1u64 << s).min(n as u64 - (1u64 << s))) as f64 * bytes_per_rank;
                for r in 0..n {
                    g.add(r, (r + (1 << s)) % n, vol);
                }
                s += 1;
            }
        }
        CollectiveAlgorithm::Ring => {
            // n-1 steps, each rank forwards one block to its successor
            for r in 0..n {
                g.add(r, (r + 1) % n, (n - 1) as f64 * bytes_per_rank);
            }
        }
        CollectiveAlgorithm::BinomialTree => {
            // gather up the tree then broadcast down: model as the tree
            // edges carrying the full payload both ways
            binomial_edges(n, |parent, child, subtree| {
                g.add(child, parent, subtree as f64 * bytes_per_rank);
                g.add(parent, child, (n - subtree) as f64 * bytes_per_rank);
            });
        }
    }
}

/// Adds the flows of an **all-reduce** of a `bytes`-sized vector.
pub fn allreduce(g: &mut CommGraph, algo: CollectiveAlgorithm, bytes: f64) {
    let n = g.num_ranks();
    assert!(n >= 2);
    match algo {
        CollectiveAlgorithm::RecursiveDoubling => {
            assert!(n.is_power_of_two());
            for s in 0..n.trailing_zeros() {
                for r in 0..n {
                    g.add(r, r ^ (1 << s), bytes);
                }
            }
        }
        CollectiveAlgorithm::Ring => {
            // reduce-scatter + all-gather: 2(n-1) steps of bytes/n
            for r in 0..n {
                g.add(r, (r + 1) % n, 2.0 * (n - 1) as f64 * bytes / n as f64);
            }
        }
        CollectiveAlgorithm::Dissemination => {
            let mut s = 0u32;
            while (1u64 << s) < n as u64 {
                for r in 0..n {
                    g.add(r, (r + (1 << s)) % n, bytes);
                }
                s += 1;
            }
        }
        CollectiveAlgorithm::BinomialTree => {
            binomial_edges(n, |parent, child, _| {
                g.add(child, parent, bytes);
                g.add(parent, child, bytes);
            });
        }
    }
}

/// Adds the flows of a **broadcast** of `bytes` from `root`.
pub fn broadcast(g: &mut CommGraph, algo: CollectiveAlgorithm, root: u32, bytes: f64) {
    let n = g.num_ranks();
    assert!(root < n);
    match algo {
        CollectiveAlgorithm::BinomialTree => {
            binomial_edges(n, |parent, child, _| {
                // re-root the tree by XOR-relabeling (standard trick for
                // power-of-two; rotation otherwise)
                let (p, c) = if n.is_power_of_two() {
                    (parent ^ root, child ^ root)
                } else {
                    ((parent + root) % n, (child + root) % n)
                };
                g.add(p, c, bytes);
            });
        }
        CollectiveAlgorithm::Ring => {
            for off in 0..n - 1 {
                g.add((root + off) % n, (root + off + 1) % n, bytes);
            }
        }
        _ => {
            // scatter + allgather (van de Geijn) approximated by the
            // dissemination allgather of bytes/n blocks
            for r in 0..n {
                g.add(root, r, if r == root { 0.0 } else { bytes / n as f64 });
            }
            allgather(g, CollectiveAlgorithm::Dissemination, bytes / n as f64);
        }
    }
}

/// Visits the edges of a binomial tree over `0..n` in top-down order
/// (parents always before their children), passing (parent, child,
/// child-subtree size).
fn binomial_edges(n: u32, mut visit: impl FnMut(u32, u32, u32)) {
    // child = parent | bit for each parent whose bits below `bit` are
    // zero; visiting larger bits first yields broadcast order
    let mut bit = (n - 1).next_power_of_two();
    if bit >= n {
        bit >>= 1;
    }
    while bit >= 1 {
        let mut parent = 0u32;
        while parent + bit < n {
            if parent & ((bit << 1) - 1) == 0 {
                let child = parent + bit;
                // subtree of `child` = nodes child..min(child+bit, n)
                let subtree = bit.min(n - child);
                visit(parent, child, subtree);
            }
            parent += 1;
        }
        bit >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_doubling_allgather_structure() {
        let mut g = CommGraph::new(8);
        allgather(&mut g, CollectiveAlgorithm::RecursiveDoubling, 100.0);
        // stage volumes: 100, 200, 400 to partners at XOR 1, 2, 4
        assert_eq!(g.volume(0, 1), 100.0);
        assert_eq!(g.volume(0, 2), 200.0);
        assert_eq!(g.volume(0, 4), 400.0);
        assert_eq!(g.volume(5, 4), 100.0);
        g.validate();
        // total: every rank ships n-1 blocks overall
        assert!((g.total_volume() - 8.0 * 7.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn dissemination_works_for_any_n() {
        let mut g = CommGraph::new(6);
        allgather(&mut g, CollectiveAlgorithm::Dissemination, 10.0);
        g.validate();
        // 3 stages: offsets 1, 2, 4
        assert!(g.volume(0, 1) > 0.0);
        assert!(g.volume(0, 2) > 0.0);
        assert!(g.volume(0, 4) > 0.0);
        assert_eq!(g.volume(0, 3), 0.0);
    }

    #[test]
    #[should_panic]
    fn recursive_doubling_rejects_non_pow2() {
        let mut g = CommGraph::new(6);
        allgather(&mut g, CollectiveAlgorithm::RecursiveDoubling, 1.0);
    }

    #[test]
    fn ring_allreduce_volume() {
        let mut g = CommGraph::new(4);
        allreduce(&mut g, CollectiveAlgorithm::Ring, 400.0);
        // each rank sends 2*(n-1)/n * bytes = 600 to its successor
        assert!((g.volume(1, 2) - 600.0).abs() < 1e-9);
        assert_eq!(g.num_flows(), 4);
    }

    #[test]
    fn allreduce_recursive_doubling_is_butterfly() {
        let mut g = CommGraph::new(8);
        allreduce(&mut g, CollectiveAlgorithm::RecursiveDoubling, 64.0);
        let b = crate::patterns::butterfly(8, 64.0);
        assert_eq!(g, b);
    }

    #[test]
    fn binomial_tree_covers_all_ranks() {
        for n in [2u32, 5, 8, 13] {
            let mut reached = vec![false; n as usize];
            reached[0] = true;
            binomial_edges(n, |p, c, _| {
                assert!(reached[p as usize], "parent {p} before child {c}?");
                reached[c as usize] = true;
            });
            assert!(reached.iter().all(|&r| r), "n={n}");
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let mut g = CommGraph::new(8);
        broadcast(&mut g, CollectiveAlgorithm::BinomialTree, 3, 50.0);
        g.validate();
        // root sends at least once, everyone reachable
        assert!(g.rank_volume(3) > 0.0);
        let mut reached = std::collections::HashSet::from([3u32]);
        // fixed-point reachability over flows
        for _ in 0..8 {
            for f in g.flows() {
                if reached.contains(&f.src) {
                    reached.insert(f.dst);
                }
            }
        }
        assert_eq!(reached.len(), 8);
    }

    #[test]
    fn collectives_compose_with_point_to_point() {
        // the paper's extension scenario: a stencil plus an allreduce
        let mut g = crate::patterns::halo_2d(4, 4, 1000.0, true);
        allreduce(&mut g, CollectiveAlgorithm::RecursiveDoubling, 500.0);
        g.validate();
        assert!(g.volume(0, 8) >= 500.0, "allreduce partner present");
        assert!(g.volume(0, 1) >= 1000.0, "halo edge still present");
    }
}
