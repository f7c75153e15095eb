//! Synthetic communication kernels.
//!
//! These generators produce the classic HPC traffic shapes used throughout
//! the test suite and `harness ablation`: nearest-neighbor halos, rings,
//! transposes, butterflies, and random traffic. They are deliberately
//! simple and fully deterministic (random traffic takes an explicit seed)
//! so mapping-quality comparisons are reproducible.

use crate::graph::{CommGraph, Rank};
use crate::tiling::RankGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unidirectional ring: rank `i` sends `bytes` to `(i+1) % n`.
pub fn ring(n: u32, bytes: f64) -> CommGraph {
    assert!(n >= 2);
    let mut g = CommGraph::new(n);
    for i in 0..n {
        g.add(i, (i + 1) % n, bytes);
    }
    g
}

/// A 2-D nearest-neighbor halo exchange on an `rows × cols` grid: every
/// rank sends `bytes` to each of its four neighbors (periodic when
/// `periodic`, truncated at edges otherwise).
pub fn halo_2d(rows: u32, cols: u32, bytes: f64, periodic: bool) -> CommGraph {
    let grid = RankGrid::new(&[rows, cols]);
    let mut g = CommGraph::new(grid.num_ranks());
    for r in 0..rows {
        for c in 0..cols {
            let me = grid.rank_of(&[r, c]);
            let mut push = |nr: i64, nc: i64| {
                let (nr, nc) = if periodic {
                    (
                        nr.rem_euclid(rows as i64) as u32,
                        nc.rem_euclid(cols as i64) as u32,
                    )
                } else {
                    if nr < 0 || nr >= rows as i64 || nc < 0 || nc >= cols as i64 {
                        return;
                    }
                    (nr as u32, nc as u32)
                };
                g.add(me, grid.rank_of(&[nr, nc]), bytes);
            };
            push(r as i64 - 1, c as i64);
            push(r as i64 + 1, c as i64);
            push(r as i64, c as i64 - 1);
            push(r as i64, c as i64 + 1);
        }
    }
    g
}

/// A matrix-transpose pattern on a square `side × side` rank grid: rank
/// `(i,j)` exchanges `bytes` with rank `(j,i)` — long-distance traffic that
/// stresses bisection bandwidth.
pub fn transpose(side: u32, bytes: f64) -> CommGraph {
    let grid = RankGrid::new(&[side, side]);
    let mut g = CommGraph::new(grid.num_ranks());
    for i in 0..side {
        for j in 0..side {
            if i != j {
                g.add(grid.rank_of(&[i, j]), grid.rank_of(&[j, i]), bytes);
            }
        }
    }
    g
}

/// A butterfly (recursive-doubling) pattern: rank `r` exchanges `bytes`
/// with `r ^ 2^s` for every stage `s < log2(n)`. `n` must be a power of
/// two. Models all-reduce/all-gather internals.
pub fn butterfly(n: u32, bytes: f64) -> CommGraph {
    assert!(n.is_power_of_two() && n >= 2);
    let stages = n.trailing_zeros();
    let mut g = CommGraph::new(n);
    for r in 0..n {
        for s in 0..stages {
            g.add(r, r ^ (1 << s), bytes);
        }
    }
    g
}

/// Uniform-random traffic: `num_flows` (src, dst) pairs drawn uniformly
/// (self-pairs rejected), each with volume in `[min_bytes, max_bytes)`.
pub fn random(n: u32, num_flows: usize, min_bytes: f64, max_bytes: f64, seed: u64) -> CommGraph {
    assert!(n >= 2);
    assert!(min_bytes > 0.0 && max_bytes >= min_bytes);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = CommGraph::new(n);
    for _ in 0..num_flows {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let bytes = if max_bytes > min_bytes {
            rng.gen_range(min_bytes..max_bytes)
        } else {
            min_bytes
        };
        g.add(src, dst, bytes);
    }
    g
}

/// All-to-all personalized exchange: every ordered pair carries `bytes`.
pub fn all_to_all(n: u32, bytes: f64) -> CommGraph {
    let mut g = CommGraph::new(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                g.add(s, d, bytes);
            }
        }
    }
    g
}

/// Bit-complement permutation: rank `r` sends `bytes` to `~r` (within
/// `log2 n` bits). The classic adversarial pattern for dimension-order
/// routing on tori — every flow crosses the bisection. `n` must be a
/// power of two.
pub fn bit_complement(n: u32, bytes: f64) -> CommGraph {
    assert!(n.is_power_of_two() && n >= 2);
    let mask = n - 1;
    let mut g = CommGraph::new(n);
    for r in 0..n {
        g.add(r, (!r) & mask, bytes);
    }
    g
}

/// Perfect-shuffle permutation: rank `r` sends to `rotate_left(r)` within
/// `log2 n` bits. `n` must be a power of two.
pub fn shuffle(n: u32, bytes: f64) -> CommGraph {
    assert!(n.is_power_of_two() && n >= 2);
    let bits = n.trailing_zeros();
    let mask = n - 1;
    let mut g = CommGraph::new(n);
    for r in 0..n {
        let dst = ((r << 1) | (r >> (bits - 1))) & mask;
        g.add(r, dst, bytes);
    }
    g
}

/// The paper's Figure 1 example: four processes where `P1↔P2` carry a
/// heavy volume (`heavy`) and `P1↔P3`, `P2↔P4`, `P3↔P4` carry `light`.
/// With minimum adaptive routing, placing the heavy pair on a diagonal of a
/// 2×2 network halves its channel load — the motivating example for
/// routing-aware mapping.
pub fn figure1(heavy: f64, light: f64) -> CommGraph {
    let mut g = CommGraph::new(4);
    // ranks: P1=0, P2=1, P3=2, P4=3
    g.add(0, 1, heavy);
    g.add(1, 0, heavy);
    g.add(0, 2, light);
    g.add(2, 0, light);
    g.add(1, 3, light);
    g.add(3, 1, light);
    g.add(2, 3, light);
    g.add(3, 2, light);
    g
}

/// Convenience: is `r` a neighbor of `s` in `g` (positive volume either
/// direction)?
pub fn connected(g: &CommGraph, s: Rank, r: Rank) -> bool {
    g.pair_volume(s, r) > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shape() {
        let g = ring(5, 2.0);
        assert_eq!(g.num_flows(), 5);
        assert_eq!(g.volume(4, 0), 2.0);
        g.validate();
    }

    #[test]
    fn halo_2d_periodic_degree() {
        let g = halo_2d(4, 4, 1.0, true);
        // 16 ranks x 4 neighbors
        assert_eq!(g.num_flows(), 64);
        assert_eq!(g.total_volume(), 64.0);
        g.validate();
    }

    #[test]
    fn halo_2d_open_boundary() {
        let g = halo_2d(3, 3, 1.0, false);
        // corner has 2 neighbors, edge 3, center 4: total directed =
        // 4*2 + 4*3 + 1*4 = 24
        assert_eq!(g.num_flows(), 24);
    }

    #[test]
    fn halo_2d_2x2_periodic_collapses_double_edges() {
        // with extent 2, +1 and -1 reach the same neighbor: volumes merge
        let g = halo_2d(2, 2, 1.0, true);
        assert_eq!(g.num_flows(), 8);
        assert_eq!(g.volume(0, 1), 2.0);
    }

    #[test]
    fn transpose_is_symmetric_without_diagonal() {
        let g = transpose(4, 3.0);
        assert_eq!(g.num_flows(), 12);
        let grid = RankGrid::new(&[4, 4]);
        let a = grid.rank_of(&[1, 3]);
        let b = grid.rank_of(&[3, 1]);
        assert_eq!(g.volume(a, b), 3.0);
        assert_eq!(g.volume(b, a), 3.0);
    }

    #[test]
    fn butterfly_stage_count() {
        let g = butterfly(8, 1.0);
        assert_eq!(g.num_flows(), 8 * 3);
        assert_eq!(g.volume(0, 4), 1.0);
        g.validate();
    }

    #[test]
    fn random_is_deterministic() {
        let a = random(16, 40, 1.0, 10.0, 42);
        let b = random(16, 40, 1.0, 10.0, 42);
        assert_eq!(a, b);
        assert_ne!(a, random(16, 40, 1.0, 10.0, 43));
        a.validate();
    }

    #[test]
    fn all_to_all_count() {
        let g = all_to_all(5, 1.0);
        assert_eq!(g.num_flows(), 20);
    }

    #[test]
    fn bit_complement_is_involution() {
        let g = bit_complement(16, 3.0);
        assert_eq!(g.num_flows(), 16);
        assert_eq!(g.volume(0, 15), 3.0);
        assert_eq!(g.volume(15, 0), 3.0);
        assert_eq!(g.volume(5, 10), 3.0);
    }

    #[test]
    fn shuffle_structure() {
        let g = shuffle(8, 1.0);
        // r=3 (0b011) -> 0b110 = 6
        assert_eq!(g.volume(3, 6), 1.0);
        // r=4 (0b100) -> 0b001 = 1
        assert_eq!(g.volume(4, 1), 1.0);
        g.validate();
    }

    #[test]
    fn figure1_volumes() {
        let g = figure1(100.0, 1.0);
        assert_eq!(g.num_flows(), 8);
        assert_eq!(g.pair_volume(0, 1), 200.0);
        assert_eq!(g.pair_volume(2, 3), 2.0);
        assert!(connected(&g, 0, 2));
        assert!(!connected(&g, 1, 2));
    }
}
