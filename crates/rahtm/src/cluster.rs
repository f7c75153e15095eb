//! Phase 1: tiling-based clustering (paper §III-B, Figure 2).
//!
//! At every hierarchy level RAHTM groups the current cluster graph by a
//! repeated rectangular tile over its logical grid, choosing — among all
//! tile shapes of the required volume — the one that minimizes inter-tile
//! communication. The paper found this simple search "outperformed more
//! sophisticated clustering because it preserved the structure of the
//! communication pattern"; min-cut clustering was deliberately not used.
//!
//! When the required volume admits no rectangular factorization of the
//! grid (irregular rank counts), we fall back to contiguous rank chunks,
//! which preserves the dominant locality of rank-ordered applications.

use rahtm_commgraph::contract::{contract, Contraction};
use rahtm_commgraph::{CommGraph, Rank, RankGrid};

/// One level of clustering: fine graph → coarse graph.
#[derive(Clone, Debug)]
pub struct LevelClustering {
    /// fine cluster → coarse cluster.
    pub assignment: Vec<Rank>,
    /// The contracted coarse graph.
    pub coarse_graph: CommGraph,
    /// Logical grid of the coarse clusters.
    pub coarse_grid: RankGrid,
    /// Winning tile shape (empty when the chunk fallback was used).
    pub shape: Vec<u32>,
    /// Volume absorbed inside clusters at this level.
    pub internal_volume: f64,
}

/// Searches all tile shapes of `volume` on `grid` and returns the one with
/// minimal inter-tile volume (ties broken toward the lexicographically
/// first shape, which the deterministic enumeration guarantees stable).
pub fn best_tiling(graph: &CommGraph, grid: &RankGrid, volume: u32) -> Option<Vec<u32>> {
    let mut best: Option<(f64, Vec<u32>)> = None;
    for shape in grid.tile_shapes(volume) {
        let cut = grid.inter_tile_volume(graph, &shape);
        let better = match &best {
            None => true,
            Some((bcut, _)) => cut < *bcut - 1e-12,
        };
        if better {
            best = Some((cut, shape));
        }
    }
    best.map(|(_, s)| s)
}

/// Clusters `graph` down by a factor of `volume`, preferring the best
/// rectangular tiling and falling back to contiguous chunks.
///
/// # Panics
/// Panics if `volume` does not divide the rank count.
pub fn cluster_level(graph: &CommGraph, grid: &RankGrid, volume: u32) -> LevelClustering {
    cluster_level_with(graph, grid, volume, true)
}

/// [`cluster_level`] with the tile-shape *search* optionally disabled
/// (ablation: `search = false` takes the first valid shape instead of the
/// minimum-cut one, isolating the contribution of Figure 2's search).
///
/// # Panics
/// Panics if `volume` does not divide the rank count.
pub fn cluster_level_with(
    graph: &CommGraph,
    grid: &RankGrid,
    volume: u32,
    search: bool,
) -> LevelClustering {
    assert!(volume >= 1);
    let n = graph.num_ranks();
    assert_eq!(
        n % volume,
        0,
        "cluster volume {volume} must divide rank count {n}"
    );
    let num_clusters = n / volume;
    if volume == 1 {
        return LevelClustering {
            assignment: (0..n).collect(),
            coarse_graph: graph.clone(),
            coarse_grid: grid.clone(),
            shape: vec![1; grid.ndims()],
            internal_volume: 0.0,
        };
    }
    let chosen = if search {
        best_tiling(graph, grid, volume)
    } else {
        grid.tile_shapes(volume).into_iter().next()
    };
    match chosen {
        Some(shape) => {
            let assignment = grid.tile_assignment(&shape);
            let Contraction {
                coarse,
                internal_volume,
                ..
            } = contract(graph, &assignment, num_clusters);
            LevelClustering {
                assignment,
                coarse_graph: coarse,
                coarse_grid: grid.tiled_grid(&shape),
                shape,
                internal_volume,
            }
        }
        None => {
            // contiguous chunk fallback
            let assignment: Vec<Rank> = (0..n).map(|r| r / volume).collect();
            let Contraction {
                coarse,
                internal_volume,
                ..
            } = contract(graph, &assignment, num_clusters);
            LevelClustering {
                assignment,
                coarse_graph: coarse,
                coarse_grid: RankGrid::near_square(num_clusters),
                shape: Vec::new(),
                internal_volume,
            }
        }
    }
}

/// Builds the full clustering hierarchy for RAHTM: first absorb the
/// concentration factor (`concentration` ranks per node-cluster), then
/// repeatedly cluster by `branching` (`2^n`) until `root_count` clusters
/// remain. `search` enables the tile-shape search (see
/// [`cluster_level_with`]).
///
/// Returns levels ordered **coarse to fine**: `levels[0]` contracts to the
/// root cluster count, `levels.last()` is the concentration clustering of
/// the original ranks.
pub fn build_hierarchy_with(
    graph: &CommGraph,
    grid: &RankGrid,
    concentration: u32,
    branching: u32,
    root_count: u32,
    search: bool,
) -> Vec<LevelClustering> {
    assert!(branching >= 2);
    let mut levels_fine_to_coarse = Vec::new();
    let base = cluster_level_with(graph, grid, concentration, search);
    let mut cur_graph = base.coarse_graph.clone();
    let mut cur_grid = base.coarse_grid.clone();
    levels_fine_to_coarse.push(base);
    while cur_graph.num_ranks() > root_count {
        assert!(
            cur_graph.num_ranks().is_multiple_of(branching),
            "hierarchy requires cluster counts divisible by 2^n"
        );
        let lvl = cluster_level_with(&cur_graph, &cur_grid, branching, search);
        cur_graph = lvl.coarse_graph.clone();
        cur_grid = lvl.coarse_grid.clone();
        levels_fine_to_coarse.push(lvl);
    }
    assert_eq!(cur_graph.num_ranks(), root_count);
    levels_fine_to_coarse.reverse();
    levels_fine_to_coarse
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    #[test]
    fn best_tiling_prefers_square_for_halo() {
        // an isotropic halo wants square tiles
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let shape = best_tiling(&g, &grid, 4).unwrap();
        assert_eq!(shape, vec![2, 2]);
    }

    #[test]
    fn best_tiling_follows_anisotropy() {
        // heavy row traffic: prefer wide tiles
        let grid = RankGrid::new(&[4, 4]);
        let mut g = CommGraph::new(16);
        for r in 0..4u32 {
            for c in 0..4u32 {
                let me = grid.rank_of(&[r, c]);
                g.add(me, grid.rank_of(&[r, (c + 1) % 4]), 100.0);
                g.add(me, grid.rank_of(&[(r + 1) % 4, c]), 1.0);
            }
        }
        let shape = best_tiling(&g, &grid, 4).unwrap();
        assert_eq!(shape, vec![1, 4]);
    }

    #[test]
    fn cluster_level_conserves_volume() {
        let g = patterns::halo_2d(4, 4, 2.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let lvl = cluster_level(&g, &grid, 4);
        assert_eq!(lvl.coarse_graph.num_ranks(), 4);
        assert!(
            (lvl.internal_volume + lvl.coarse_graph.total_volume() - g.total_volume()).abs() < 1e-9
        );
        assert_eq!(lvl.coarse_grid.num_ranks(), 4);
    }

    #[test]
    fn volume_one_is_identity() {
        let g = patterns::ring(6, 1.0);
        let grid = RankGrid::new(&[2, 3]);
        let lvl = cluster_level(&g, &grid, 1);
        assert_eq!(lvl.assignment, (0..6).collect::<Vec<_>>());
        assert_eq!(lvl.coarse_graph, g);
    }

    #[test]
    fn chunk_fallback_on_awkward_grid() {
        // 6 ranks on a 1x6 grid, volume 3: shapes exist (1x3); force the
        // fallback with a prime-ish case: 2x5 grid, volume 4 -> no shape
        let g = patterns::ring(10, 1.0);
        let grid = RankGrid::new(&[2, 5]);
        assert!(grid.tile_shapes(4).is_empty());
        // volume must divide rank count: use 5 -> shapes: 1x5 exists.
        let lvl = cluster_level(&g, &grid, 5);
        assert_eq!(lvl.coarse_graph.num_ranks(), 2);
        // now a genuinely impossible one: volume 2 on 1x5... doesn't divide.
        // fallback covered via grid [3,3] volume 3 (only 3x1/1x3 exist ->
        // shapes exist). Construct no-shape case: grid [4], volume 8 with 8
        // ranks? tile larger than dim -> no shape, chunks used.
        let g8 = patterns::ring(8, 1.0);
        let grid8 = RankGrid::new(&[8]);
        let lvl8 = cluster_level(&g8, &grid8, 8);
        assert_eq!(lvl8.coarse_graph.num_ranks(), 1);
    }

    #[test]
    fn shapes_exist_whenever_volume_divides() {
        // Per-prime splitting argument: if volume | ∏dims, a rectangular
        // factorization with per-dim divisors always exists, so the chunk
        // fallback is purely defensive. Verify across a sweep.
        for dims in [vec![4u32, 6], vec![3, 4], vec![2, 2, 9], vec![8, 8]] {
            let n: u32 = dims.iter().product();
            let grid = RankGrid::new(&dims);
            for v in 1..=n {
                if n.is_multiple_of(v) {
                    assert!(
                        !grid.tile_shapes(v).is_empty(),
                        "no shape for volume {v} on {dims:?}"
                    );
                }
            }
        }
        // and volumes that do NOT divide the grid have no shapes
        let grid = RankGrid::new(&[3, 4]);
        assert!(grid.tile_shapes(8).is_empty());
    }

    #[test]
    fn build_hierarchy_shapes() {
        // 64 ranks, concentration 4 -> 16 node-clusters; branching 4 ->
        // root 4: levels = [16->4, 64->16 (conc)] coarse-to-fine
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let levels = build_hierarchy_with(&g, &grid, 4, 4, 4, true);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].coarse_graph.num_ranks(), 4);
        assert_eq!(levels[1].coarse_graph.num_ranks(), 16);
        // composing assignments maps every rank to a root cluster
        let full = rahtm_commgraph::contract::compose_assignments(
            &levels[1].assignment,
            &levels[0].assignment,
        );
        assert_eq!(full.len(), 64);
        assert!(full.iter().all(|&c| c < 4));
    }

    #[test]
    fn hierarchy_levels_have_uniform_cluster_sizes() {
        // every level's clusters must hold exactly `branching` children —
        // the MILP phase depends on it
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let levels = build_hierarchy_with(&g, &grid, 1, 4, 4, true);
        for lvl in &levels {
            let mut counts = std::collections::HashMap::new();
            for &c in &lvl.assignment {
                *counts.entry(c).or_insert(0u32) += 1;
            }
            let sizes: std::collections::HashSet<u32> = counts.values().cloned().collect();
            assert_eq!(sizes.len(), 1, "uneven clusters: {counts:?}");
        }
    }

    #[test]
    fn tiling_search_off_uses_first_shape() {
        // 8x8 halo: a 1x4 row chunk leaves 10 boundary edges per tile, a
        // 2x2 square only 8, so the search strictly prefers the square.
        // (On a 4x4 periodic grid they tie because a 1x4 tile wraps the
        // whole row.)
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let searched = cluster_level_with(&g, &grid, 4, true);
        let unsearched = cluster_level_with(&g, &grid, 4, false);
        assert_eq!(unsearched.shape, vec![1, 4]);
        assert_eq!(searched.shape, vec![2, 2]);
        assert!(searched.internal_volume > unsearched.internal_volume);
    }

    #[test]
    fn hierarchy_without_concentration() {
        let g = patterns::halo_2d(4, 4, 1.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let levels = build_hierarchy_with(&g, &grid, 1, 4, 4, true);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].coarse_graph.num_ranks(), 4);
        assert_eq!(levels[1].coarse_graph.num_ranks(), 16);
    }

    use rahtm_commgraph::CommGraph;
}
