//! Rectangular tilings of a logical rank grid (the paper's Figure 2).
//!
//! RAHTM's clustering phase assumes the application's ranks form a logical
//! grid (NAS BT/SP/CG all do) and groups them with a repeated rectangular
//! tile. For a required cluster size `V`, every factorization of `V` into
//! per-dimension tile extents that divide the grid is a candidate; the
//! phase-1 search (in `rahtm-core`) evaluates each candidate by the
//! inter-tile communication volume it leaves and keeps the best. This module
//! provides the grid/tile mechanics: shape enumeration, rank↔cell codecs,
//! and the rank→tile assignment induced by a tile shape.

use crate::graph::{CommGraph, Rank};

/// A logical grid arrangement of MPI ranks (last dimension fastest, like
/// node ids in `rahtm-topology`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankGrid {
    dims: Vec<u32>,
    strides: Vec<u32>,
}

impl RankGrid {
    /// Builds a grid with the given extents.
    ///
    /// # Panics
    /// Panics on empty dims or zero extents.
    pub fn new(dims: &[u32]) -> Self {
        assert!(!dims.is_empty());
        assert!(dims.iter().all(|&d| d >= 1));
        let mut strides = vec![0u32; dims.len()];
        let mut acc: u64 = 1;
        for d in (0..dims.len()).rev() {
            strides[d] = acc as u32;
            acc *= dims[d] as u64;
            assert!(acc <= u32::MAX as u64);
        }
        RankGrid {
            dims: dims.to_vec(),
            strides,
        }
    }

    /// A near-square 2-D grid holding exactly `n` ranks: the most balanced
    /// `r × c = n` factorization (rows ≤ cols). Used when an application
    /// gives no explicit grid.
    pub fn near_square(n: u32) -> Self {
        assert!(n >= 1);
        let mut best = (1u32, n);
        let mut r = 1u32;
        while (r as u64) * (r as u64) <= n as u64 {
            if n.is_multiple_of(r) {
                best = (r, n / r);
            }
            r += 1;
        }
        RankGrid::new(&[best.0, best.1])
    }

    /// Grid extents.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total rank count.
    pub fn num_ranks(&self) -> u32 {
        self.dims.iter().product()
    }

    /// Rank id of a grid cell.
    #[inline]
    pub fn rank_of(&self, cell: &[u32]) -> Rank {
        debug_assert_eq!(cell.len(), self.ndims());
        let mut rank = 0;
        for d in 0..self.ndims() {
            debug_assert!(cell[d] < self.dims[d], "cell out of grid range");
            rank += cell[d] * self.strides[d];
        }
        rank
    }

    /// Grid cell of a rank id.
    #[inline]
    pub fn cell_of(&self, mut rank: Rank) -> Vec<u32> {
        debug_assert!(rank < self.num_ranks());
        let mut cell = vec![0u32; self.ndims()];
        for d in 0..self.ndims() {
            cell[d] = rank / self.strides[d];
            rank %= self.strides[d];
        }
        cell
    }

    /// Enumerates every tile shape of volume `tile_volume` whose extents
    /// divide the grid extents (Figure 2's candidate set). Shapes are
    /// returned in lexicographic order; the list is empty when no valid
    /// factorization exists.
    pub fn tile_shapes(&self, tile_volume: u32) -> Vec<Vec<u32>> {
        assert!(tile_volume >= 1);
        let mut out = Vec::new();
        let mut cur = vec![0u32; self.ndims()];
        self.tile_shapes_rec(0, tile_volume, &mut cur, &mut out);
        out
    }

    fn tile_shapes_rec(
        &self,
        d: usize,
        remaining: u32,
        cur: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if d == self.ndims() {
            if remaining == 1 {
                out.push(cur.clone());
            }
            return;
        }
        let mut t = 1u32;
        while t <= self.dims[d] && t <= remaining {
            if remaining.is_multiple_of(t) && self.dims[d].is_multiple_of(t) {
                cur[d] = t;
                self.tile_shapes_rec(d + 1, remaining / t, cur, out);
            }
            // next divisor of remaining
            t += 1;
        }
    }

    /// Assigns each rank to a tile id under the repeated tile `shape`.
    /// Tile ids are dense, enumerated in lexicographic order of tile
    /// origin — i.e. the contracted graph's rank grid is
    /// `dims[d] / shape[d]` per dimension with the same orientation.
    ///
    /// # Panics
    /// Panics if any `shape[d]` does not divide `dims[d]`.
    pub fn tile_assignment(&self, shape: &[u32]) -> Vec<Rank> {
        assert_eq!(shape.len(), self.ndims());
        for d in 0..self.ndims() {
            assert!(
                shape[d] >= 1 && self.dims[d].is_multiple_of(shape[d]),
                "tile extent {} does not divide grid extent {}",
                shape[d],
                self.dims[d]
            );
        }
        let tiles_grid = RankGrid::new(
            &self
                .dims
                .iter()
                .zip(shape)
                .map(|(&g, &t)| g / t)
                .collect::<Vec<_>>(),
        );
        (0..self.num_ranks())
            .map(|r| {
                let cell = self.cell_of(r);
                let tile_cell: Vec<u32> = cell.iter().zip(shape).map(|(&c, &t)| c / t).collect();
                tiles_grid.rank_of(&tile_cell)
            })
            .collect()
    }

    /// The grid of tiles induced by `shape` (extents `dims/shape`).
    pub fn tiled_grid(&self, shape: &[u32]) -> RankGrid {
        RankGrid::new(
            &self
                .dims
                .iter()
                .zip(shape)
                .map(|(&g, &t)| g / t)
                .collect::<Vec<_>>(),
        )
    }

    /// Inter-tile volume of `graph` when clustered with `shape`: the total
    /// volume of flows whose endpoints land in different tiles — the metric
    /// minimized by the phase-1 tiling search (§III-B).
    pub fn inter_tile_volume(&self, graph: &CommGraph, shape: &[u32]) -> f64 {
        let assign = self.tile_assignment(shape);
        graph
            .flows()
            .iter()
            .filter(|f| assign[f.src as usize] != assign[f.dst as usize])
            .map(|f| f.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn rank_cell_roundtrip() {
        let g = RankGrid::new(&[4, 8]);
        assert_eq!(g.num_ranks(), 32);
        for r in 0..32 {
            assert_eq!(g.rank_of(&g.cell_of(r)), r);
        }
    }

    #[test]
    fn last_dim_fastest() {
        let g = RankGrid::new(&[2, 3]);
        assert_eq!(g.rank_of(&[0, 1]), 1);
        assert_eq!(g.rank_of(&[1, 0]), 3);
    }

    #[test]
    fn near_square_shapes() {
        assert_eq!(RankGrid::near_square(16).dims(), &[4, 4]);
        assert_eq!(RankGrid::near_square(12).dims(), &[3, 4]);
        assert_eq!(RankGrid::near_square(7).dims(), &[1, 7]);
    }

    #[test]
    fn tile_shapes_figure2() {
        // Figure 2: an 8-cell tile in a 2-D grid searches 8x1, 4x2, 2x4, 1x8
        let g = RankGrid::new(&[8, 8]);
        let shapes = g.tile_shapes(8);
        assert_eq!(shapes, vec![vec![1, 8], vec![2, 4], vec![4, 2], vec![8, 1]]);
    }

    #[test]
    fn tile_shapes_respect_grid_divisibility() {
        let g = RankGrid::new(&[2, 16]);
        let shapes = g.tile_shapes(8);
        // 4x2 and 8x1 are invalid because 4,8 do not divide 2
        assert_eq!(shapes, vec![vec![1, 8], vec![2, 4]]);
    }

    #[test]
    fn tile_assignment_2x2() {
        let g = RankGrid::new(&[4, 4]);
        let a = g.tile_assignment(&[2, 2]);
        // ranks (0,0),(0,1),(1,0),(1,1) in tile 0; (0,2),(0,3)... in tile 1
        assert_eq!(a[g.rank_of(&[0, 0]) as usize], 0);
        assert_eq!(a[g.rank_of(&[1, 1]) as usize], 0);
        assert_eq!(a[g.rank_of(&[0, 2]) as usize], 1);
        assert_eq!(a[g.rank_of(&[2, 0]) as usize], 2);
        assert_eq!(a[g.rank_of(&[3, 3]) as usize], 3);
        // 4 tiles, each with 4 members
        for t in 0..4u32 {
            assert_eq!(a.iter().filter(|&&x| x == t).count(), 4);
        }
    }

    #[test]
    fn inter_tile_volume_prefers_matching_tiles() {
        // a 4x4 periodic halo: row-major tiles that keep row neighbors
        // together beat column-cut shapes along the heavier axis
        let g = RankGrid::new(&[4, 4]);
        let mut graph = CommGraph::new(16);
        // heavy horizontal traffic, light vertical
        for r in 0..4u32 {
            for c in 0..4u32 {
                let me = g.rank_of(&[r, c]);
                let right = g.rank_of(&[r, (c + 1) % 4]);
                let down = g.rank_of(&[(r + 1) % 4, c]);
                graph.add(me, right, 100.0);
                graph.add(me, down, 1.0);
            }
        }
        let horizontal = g.inter_tile_volume(&graph, &[1, 4]);
        let vertical = g.inter_tile_volume(&graph, &[4, 1]);
        assert!(
            horizontal < vertical,
            "keeping heavy rows intact should cut less volume"
        );
    }

    #[test]
    fn whole_grid_tile_cuts_nothing() {
        let g = RankGrid::new(&[4, 4]);
        let graph = patterns::halo_2d(4, 4, 10.0, true);
        assert_eq!(g.inter_tile_volume(&graph, &[4, 4]), 0.0);
    }

    #[test]
    fn unit_tile_cuts_everything() {
        let g = RankGrid::new(&[4, 4]);
        let graph = patterns::halo_2d(4, 4, 10.0, true);
        let cut = g.inter_tile_volume(&graph, &[1, 1]);
        assert!((cut - graph.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn tiled_grid_extents() {
        let g = RankGrid::new(&[8, 4]);
        assert_eq!(g.tiled_grid(&[2, 2]).dims(), &[4, 2]);
    }
}
