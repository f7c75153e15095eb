//! Rubik-like Hierarchical Tiling (RHT, §IV).
//!
//! The paper compares against a mapping produced with LLNL's Rubik tool:
//! the application's rank space is cut into rectangular tiles, and each
//! tile is mapped onto a compact sub-torus block of the machine
//! ("hierarchically tiled using 4x4 tiles from the application space which
//! are mapped to 4x2x2 3D tori in the A, B and E dimensions"). Rubik
//! itself only *applies* such mappings a human expert specifies; this
//! module re-implements that tiling scheme so the comparison point exists
//! without the external tool.

use rahtm_commgraph::RankGrid;
use rahtm_topology::{BgqMachine, Coord, NodeId, Torus};

/// An RHT configuration: application tile shape and machine block shape.
#[derive(Clone, Debug)]
pub struct RhtConfig {
    /// Tile extents over the application rank grid.
    pub app_tile: Vec<u32>,
    /// Block extents over the machine torus dimensions.
    pub node_block: Vec<u16>,
}

impl RhtConfig {
    /// A generic configuration for any machine: blocks of extent 2 on
    /// every dimension ≥ 2, square-ish application tiles of matching
    /// volume.
    pub fn generic(machine: &BgqMachine, grid: &RankGrid) -> Self {
        let topo = machine.torus();
        let node_block: Vec<u16> = (0..topo.ndims())
            .map(|d| if topo.dim(d) >= 2 { 2 } else { 1 })
            .collect();
        let block_vol: u32 = node_block.iter().map(|&e| e as u32).product();
        let tile_vol = block_vol * machine.concentration();
        // pick the most balanced valid factorization of tile_vol over grid
        let shapes = grid.tile_shapes(tile_vol);
        let app_tile = shapes
            .into_iter()
            .min_by_key(|s| {
                let mx = *s.iter().max().unwrap();
                let mn = *s.iter().min().unwrap();
                mx - mn
            })
            .unwrap_or_else(|| {
                let mut t = vec![1; grid.ndims()];
                t[grid.ndims() - 1] = tile_vol;
                t
            });
        RhtConfig {
            app_tile,
            node_block,
        }
    }
}

/// Maps ranks by RHT: application tiles (lexicographic) onto machine
/// blocks (lexicographic); within a tile, ranks fill the block's nodes in
/// dimension order, `concentration` ranks per node.
///
/// # Panics
/// Panics when shapes do not divide the grid/torus or volumes mismatch
/// (`tile volume == block volume × concentration`).
pub fn rht_mapping(
    machine: &BgqMachine,
    grid: &RankGrid,
    cfg: &RhtConfig,
    num_ranks: u32,
) -> Vec<NodeId> {
    let topo = machine.torus();
    assert_eq!(grid.num_ranks(), num_ranks);
    assert_eq!(cfg.node_block.len(), topo.ndims());
    let block_vol: u32 = cfg.node_block.iter().map(|&e| e as u32).product();
    let tile_vol: u32 = cfg.app_tile.iter().product();
    let conc = num_ranks / topo.num_nodes();
    assert!(conc >= 1 && num_ranks.is_multiple_of(topo.num_nodes()));
    assert_eq!(
        tile_vol,
        block_vol * conc,
        "tile volume must equal block volume x concentration"
    );
    for d in 0..topo.ndims() {
        assert!(
            topo.dim(d).is_multiple_of(cfg.node_block[d]),
            "block extent must divide torus extent"
        );
    }
    // enumerate blocks lexicographically
    let blocks_per_dim: Vec<u16> = (0..topo.ndims())
        .map(|d| topo.dim(d) / cfg.node_block[d])
        .collect();
    let block_grid = Torus::mesh(&blocks_per_dim);
    let block_mesh = Torus::mesh(&cfg.node_block);

    let assignment = grid.tile_assignment(&cfg.app_tile);
    // local index of each rank within its tile (order of appearance =
    // lexicographic within the tile)
    let mut next_local: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    (0..num_ranks)
        .map(|r| {
            let tile = assignment[r as usize];
            let slot = next_local.entry(tile).or_insert(0);
            let local = *slot;
            *slot += 1;
            let node_in_block = local / conc; // conc ranks per node
                                              // block origin
            let bc = block_grid.coord(tile);
            let ic = block_mesh.coord(node_in_block);
            let mut c = Coord::zero(topo.ndims());
            for d in 0..topo.ndims() {
                c.set(d, bc.get(d) * cfg.node_block[d] + ic.get(d));
            }
            topo.node_id(&c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_config_is_consistent() {
        let m = BgqMachine::mira_512();
        // 16384 ranks on a 128x128 grid; mira tile 4x4 has volume 16 but
        // block volume 16 x conc 32 = 512 -> the paper's "4x4 tiles" are
        // tiles of node-groups; our generic config handles the scaling.
        let grid = RankGrid::new(&[128, 128]);
        let cfg = RhtConfig::generic(&m, &grid);
        let map = rht_mapping(&m, &grid, &cfg, 16384);
        let mut counts = vec![0u32; 512];
        for &n in &map {
            counts[n as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 32));
    }

    #[test]
    fn tile_members_stay_in_one_block() {
        let m = BgqMachine::new(Torus::torus(&[4, 4]), 4, 1);
        let grid = RankGrid::new(&[4, 4]);
        let cfg = RhtConfig {
            app_tile: vec![2, 2],
            node_block: vec![2, 2],
        };
        let map = rht_mapping(&m, &grid, &cfg, 16);
        // ranks of tile 0 are grid cells (0,0),(0,1),(1,0),(1,1)
        let tile0 = [
            grid.rank_of(&[0, 0]),
            grid.rank_of(&[0, 1]),
            grid.rank_of(&[1, 0]),
            grid.rank_of(&[1, 1]),
        ];
        let topo = m.torus();
        for &r in &tile0 {
            let c = topo.coord(map[r as usize]);
            assert!(c.get(0) < 2 && c.get(1) < 2, "tile 0 -> block at origin");
        }
        // bijective overall
        let set: std::collections::HashSet<_> = map.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn concentration_packs_within_block_nodes() {
        let m = BgqMachine::new(Torus::torus(&[2, 2]), 4, 2);
        let grid = RankGrid::new(&[2, 4]);
        let cfg = RhtConfig {
            app_tile: vec![2, 2],
            node_block: vec![1, 2],
        };
        let map = rht_mapping(&m, &grid, &cfg, 8);
        // each consecutive local pair shares a node
        let mut counts = std::collections::HashMap::new();
        for &n in &map {
            *counts.entry(n).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    #[should_panic]
    fn volume_mismatch_rejected() {
        let m = BgqMachine::new(Torus::torus(&[4, 4]), 4, 1);
        let grid = RankGrid::new(&[4, 4]);
        let cfg = RhtConfig {
            app_tile: vec![2, 2],
            node_block: vec![4, 2],
        };
        rht_mapping(&m, &grid, &cfg, 16);
    }
}
