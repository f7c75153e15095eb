//! The paper's running example (Figures 3–7), narrated step by step:
//! 16 ranks onto a 4×4 torus through all three RAHTM phases.
//!
//! ```sh
//! cargo run --release --example walkthrough_16
//! ```

use rahtm_repro::core::anneal::{anneal_map, AnnealOptions};
use rahtm_repro::core::cluster::cluster_level;
use rahtm_repro::core::milp::{milp_map, MilpMapOptions};
use rahtm_repro::prelude::*;

fn main() {
    println!("== RAHTM walkthrough: 16 ranks -> 4x4 torus ==\n");
    let machine = BgqMachine::toy_4x4();
    let topo = machine.torus();
    let app = patterns::halo_2d(4, 4, 10.0, true);
    let grid = RankGrid::new(&[4, 4]);

    // ---- Phase 1: clustering (Figures 2-4) ----
    println!("-- Phase 1: clustering --");
    let lvl = cluster_level(&app, &grid, 4);
    println!(
        "tiling search picked a {:?} tile; {} of {} volume units became\ncluster-internal (off the network)",
        lvl.shape,
        lvl.internal_volume,
        app.total_volume()
    );
    println!(
        "coarse graph: {} clusters, {} flows\n",
        lvl.coarse_graph.num_ranks(),
        lvl.coarse_graph.num_flows()
    );

    // ---- Phase 2: optimal mapping of the root hypercube (Figure 5) ----
    println!("-- Phase 2: MILP mapping of the cluster graph (Table II) --");
    let root = Torus::two_ary_root(2); // 2-ary 2-torus == double-wide 2x2 mesh
    let sa = anneal_map(&root, &lvl.coarse_graph, &AnnealOptions::default());
    println!("simulated-annealing incumbent MCL: {:.1}", sa.mcl);
    let milp = milp_map(
        &root,
        &lvl.coarse_graph,
        &MilpMapOptions {
            incumbent: Some(sa.placement.clone()),
            ..Default::default()
        },
    )
    .expect("Table II solve");
    println!(
        "MILP placement {:?}, objective (optimal-split MCL) {:.1}, proven optimal: {}\n",
        milp.placement, milp.mcl, milp.proven_optimal
    );

    // ---- Full pipeline: phases 1-3 together (Figures 6-7) ----
    println!("-- Phases 1+2+3: full pipeline with orientation merge --");
    let result = RahtmMapper::new(RahtmConfig::default()).map(&machine, &app, Some(grid));
    println!(
        "merge candidates evaluated: {}",
        result.stats.merge_candidates
    );
    println!("predicted node-level MCL  : {:.1}", result.predicted_mcl);

    let default = TaskMapping::abcdet(&machine, 16);
    println!(
        "\nfinal comparison (uniform-minimal routing):\n  default ABCDET MCL: {:.1}\n  RAHTM MCL         : {:.1}",
        default.mcl(&machine, &app, Routing::UniformMinimal),
        result.mapping.mcl(&machine, &app, Routing::UniformMinimal),
    );
    println!("\nfinal rank -> node coordinates:");
    for r in 0..16u32 {
        let node = result.mapping.node(r);
        print!("  r{r:<2}->{}", topo.coord(node));
        if r % 4 == 3 {
            println!();
        }
    }
}
