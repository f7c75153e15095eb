//! Produce a BG/Q mapfile for the paper's full platform: NAS BT at 16 384
//! ranks on Mira's 4×4×4×4×2 partition — the offline-mapping workflow of
//! §V-B (compute once, reuse on every run).
//!
//! Writes `bt_16k_rahtm.map` to the working directory, then reads it back
//! and verifies it.
//!
//! ```sh
//! cargo run --release --example bgq_mapfile   # takes a few minutes: it
//! # really is the full 16 384-rank mapping problem
//! ```

use rahtm_repro::prelude::*;
use std::time::Instant;

fn main() {
    let machine = BgqMachine::mira_512();
    let bench = Benchmark::Bt;
    let spec = bench.spec(16384);
    let graph = spec.comm_graph();
    println!(
        "profiling stand-in: {} flows, {:.1} MB/iteration",
        graph.num_flows(),
        graph.total_volume() / 1024.0
    );

    // annealing-only configuration: the fast end of the quality/time
    // trade-off (`harness ablation` sweeps the knobs)
    let cfg = RahtmConfig {
        use_milp: false,
        ..RahtmConfig::default()
    };
    let t0 = Instant::now();
    let result = RahtmMapper::new(cfg).map(&machine, &graph, Some(spec.grid.clone()));
    println!(
        "mapping computed in {:.1} s (cluster {:.1}s, map {:.1}s, merge {:.1}s)",
        t0.elapsed().as_secs_f64(),
        result.stats.clustering_secs,
        result.stats.milp_secs,
        result.stats.merge_secs,
    );

    let default = TaskMapping::abcdet(&machine, 16384);
    println!(
        "MCL: default {:.0} -> RAHTM {:.0}",
        default.mcl(&machine, &graph, Routing::UniformMinimal),
        result
            .mapping
            .mcl(&machine, &graph, Routing::UniformMinimal),
    );

    let path = "bt_16k_rahtm.map";
    let text = result.mapping.to_bgq_mapfile(&machine);
    std::fs::write(path, &text).expect("write mapfile");
    println!("wrote {} ({} lines)", path, text.lines().count());

    // round-trip check, exactly what the MPI runtime would consume
    let back = TaskMapping::from_bgq_mapfile(&machine, &text).expect("parse back");
    back.validate(&machine);
    assert_eq!(&back, &result.mapping);
    println!("mapfile verified: parses back to an identical mapping");
}
