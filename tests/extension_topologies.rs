//! Integration tests for the §VI topology extensions: the same workloads
//! mapped on torus, fat-tree, and dragonfly machines through the public
//! API, with mapper-vs-default guarantees on each.

use rahtm_repro::core::dragonfly::{dragonfly_default, dragonfly_map, Dragonfly};
use rahtm_repro::core::fattree::{fattree_default, fattree_map, FatTree};
use rahtm_repro::prelude::*;

#[test]
fn same_workload_three_machines() {
    // one 64-rank halo, three machine families
    let g = patterns::halo_2d(8, 8, 1000.0, true);
    let grid = RankGrid::new(&[8, 8]);

    // torus
    let torus_machine = BgqMachine::new(Torus::torus(&[4, 4]), 4, 4);
    let torus_res =
        RahtmMapper::new(RahtmConfig::fast()).map(&torus_machine, &g, Some(grid.clone()));
    let torus_default = TaskMapping::abcdet(&torus_machine, 64);
    assert!(
        torus_res
            .mapping
            .mcl(&torus_machine, &g, Routing::UniformMinimal)
            <= torus_default.mcl(&torus_machine, &g, Routing::UniformMinimal) + 1e-9
    );

    // fat-tree (16 leaves, conc 4)
    let tree = FatTree::tapered(&[4, 4], 0.5);
    let ft = fattree_map(&tree, &g, &grid);
    assert!(ft.mcl <= tree.mcl(&g, &fattree_default(&tree, 64)) + 1e-9);

    // dragonfly (2 nodes/router, 4 routers/group, 8 groups = 64 nodes,
    // conc 1)
    let df = Dragonfly::balanced(4, 8);
    assert_eq!(df.num_nodes(), 64);
    let dm = dragonfly_map(&df, &g, &grid);
    assert!(dm.mcl <= df.mcl(&g, &dragonfly_default(&df, 64)) + 1e-9);
}

#[test]
fn collectives_map_on_every_machine() {
    use rahtm_repro::commgraph::collectives::{allreduce, CollectiveAlgorithm};
    let mut g = patterns::halo_2d(8, 8, 512.0, true);
    allreduce(&mut g, CollectiveAlgorithm::RecursiveDoubling, 4096.0);
    let grid = RankGrid::new(&[8, 8]);

    let tree = FatTree::full_bisection(&[4, 4]);
    let ft = fattree_map(&tree, &g, &grid);
    let set: std::collections::HashSet<_> = ft.leaf_of.iter().collect();
    assert_eq!(set.len(), 16, "4 ranks per leaf, all leaves used");

    let df = Dragonfly::balanced(4, 4); // 32 nodes, conc 2
    let dm = dragonfly_map(&df, &g, &grid);
    let mut counts = std::collections::HashMap::new();
    for &n in &dm.node_of {
        *counts.entry(n).or_insert(0u32) += 1;
    }
    assert!(counts.values().all(|&c| c == 2));
}

#[test]
fn dragonfly_global_taper_is_visible() {
    // squeezing the global width must raise inter-group-heavy MCL but
    // leave an intra-group workload untouched
    let narrow = Dragonfly {
        global_width: 1.0,
        ..Dragonfly::balanced(4, 2)
    };
    let wide = Dragonfly::balanced(4, 2);
    let n = wide.num_nodes();
    let mut inter = CommGraph::new(n);
    // group 0 node -> group 1 node, several pairs
    for i in 0..4u32 {
        inter.add(i, n / 2 + i, 1000.0);
    }
    let place: Vec<u32> = (0..n).collect();
    assert!(narrow.mcl(&inter, &place) > wide.mcl(&inter, &place));

    let mut intra = CommGraph::new(n);
    intra.add(0, 2, 1000.0); // same group, different routers
    assert_eq!(
        narrow.mcl(&intra, &place),
        wide.mcl(&intra, &place),
        "intra-group traffic ignores global width"
    );
}

#[test]
fn fattree_mapper_prefers_local_subtrees_strictly() {
    // anisotropic workload: heavy rows; mapper should strictly beat the
    // row-chunking default when rows don't align with switches
    let tree = FatTree::tapered(&[4, 4], 0.25);
    let grid = RankGrid::new(&[4, 4]);
    let mut g = CommGraph::new(16);
    for r in 0..4u32 {
        for c in 0..4u32 {
            let me = r * 4 + c;
            g.add(me, r * 4 + (c + 1) % 4, 100.0);
            g.add(me, ((r + 1) % 4) * 4 + c, 100.0);
        }
    }
    let m = fattree_map(&tree, &g, &grid);
    let d = tree.mcl(&g, &fattree_default(&tree, 16));
    assert!(m.mcl <= d + 1e-9);
}
