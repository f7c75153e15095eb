//! Map NAS CG at 1 024 ranks onto a BG/Q-like 4×4×4×2 torus and compare
//! all the paper's mapping strategies end to end, including predicted
//! execution time through the calibrated application model.
//!
//! ```sh
//! cargo run --release --example nas_cg_mapping
//! ```

use rahtm_repro::baselines::permute::parse_order;
use rahtm_repro::prelude::*;

fn main() {
    let machine = BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 8);
    let ranks = 1024u32;
    let bench = Benchmark::Cg;
    let spec = bench.spec(ranks);
    let graph = spec.comm_graph();
    let topo = machine.torus();

    println!(
        "NAS {} at {} ranks on a {:?} torus (concentration {})\n",
        bench.name(),
        ranks,
        topo.dims(),
        machine.concentration()
    );

    // candidate mappings
    let default = dim_order_mapping(&machine, &parse_order(&machine, "ABCDT").unwrap(), ranks);
    let t_first = dim_order_mapping(&machine, &parse_order(&machine, "TABCD").unwrap(), ranks);
    let hilbert = hilbert_mapping(&machine, ranks);
    let greedy = greedy_hop_bytes(&machine, &graph);
    let rahtm =
        RahtmMapper::new(RahtmConfig::default()).map(&machine, &graph, Some(spec.grid.clone()));

    // execution-time model calibrated so the default mapping spends the
    // benchmark's Figure-9 fraction in communication
    let app = AppModel::calibrated(
        topo,
        &graph,
        &default,
        bench.comm_fraction(),
        bench.iterations(),
        CommTimeModel::default(),
        Routing::UniformMinimal,
    );

    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "mapping", "MCL", "comm time", "exec time"
    );
    println!("{}", "-".repeat(54));
    let base = app.execute(topo, &graph, &default);
    for (name, place) in [
        ("ABCDT", &default),
        ("TABCD", &t_first),
        ("Hilbert", &hilbert),
        ("HopBytes", &greedy),
        ("RAHTM", &rahtm.mapping.nodes().to_vec()),
    ] {
        let mcl = mapping_mcl(topo, &graph, place, Routing::UniformMinimal);
        let e = app.execute(topo, &graph, place);
        println!(
            "{name:<10} {mcl:>12.0} {:>9.2} ms ({:+5.1}%) {:>7.2} ms ({:+5.1}%)",
            e.comm / 1000.0,
            (e.comm / base.comm - 1.0) * 100.0,
            e.total / 1000.0,
            (e.total / base.total - 1.0) * 100.0,
        );
    }
    println!("\nRAHTM phase stats: {:?}", rahtm.stats);
}
