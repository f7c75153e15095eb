//! Quickstart: map a small application onto a torus and compare RAHTM
//! against the machine's default mapping.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rahtm_repro::prelude::*;

fn main() {
    // A 4x4 torus machine, one process per node (the paper's walkthrough
    // setup), and a matrix-transpose application — long-distance traffic
    // that the default dimension-order mapping handles poorly.
    let machine = BgqMachine::toy_4x4();
    let app = patterns::transpose(4, 10.0);
    let grid = RankGrid::new(&[4, 4]);

    // The machine's default mapping: dimension order, ranks in sequence.
    let default = TaskMapping::abcdet(&machine, app.num_ranks());

    // RAHTM: clustering -> hierarchical MILP -> orientation merge.
    let mapper = RahtmMapper::new(RahtmConfig::default());
    let result = mapper.map(&machine, &app, Some(grid));

    // Compare under the paper's metric: maximum channel load (MCL) with
    // the minimum-adaptive-routing approximation.
    let mcl_default = default.mcl(&machine, &app, Routing::UniformMinimal);
    let mcl_rahtm = result.mapping.mcl(&machine, &app, Routing::UniformMinimal);

    println!("application : 4x4 matrix transpose, 16 ranks");
    println!("machine     : 4x4 torus, 16 nodes");
    println!("default MCL : {mcl_default:.1}");
    println!("RAHTM MCL   : {mcl_rahtm:.1}");
    println!(
        "improvement : {:.1}%",
        (1.0 - mcl_rahtm / mcl_default) * 100.0
    );
    println!();
    println!("phase stats : {:?}", result.stats);
    println!();
    println!("BG/Q mapfile (first 4 ranks):");
    for line in result.mapping.to_bgq_mapfile(&machine).lines().take(4) {
        println!("  {line}");
    }

    assert!(mcl_rahtm <= mcl_default + 1e-9, "RAHTM must not lose");
}
