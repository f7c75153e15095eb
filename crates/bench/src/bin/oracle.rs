//! Analysis tool: how much MCL headroom does a benchmark have at a scale?
//!
//! Runs an unconstrained global simulated annealing over node placements
//! of the (concentration-clustered) node graph and compares it with the
//! default mapping and RAHTM. If the oracle cannot beat the default, the
//! workload has no mapping headroom at that scale and a tie is the correct
//! result.

use rahtm_bench::experiments::Scale;
use rahtm_commgraph::Benchmark;
use rahtm_core::anneal::{anneal_map, AnnealOptions};
use rahtm_core::cluster::cluster_level;
use rahtm_routing::{mapping_mcl, Routing};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.first().map(String::as_str).unwrap_or("micro") {
        "micro" => Scale::micro(),
        "mini" => Scale::mini(),
        "paper" => Scale::paper(),
        other => panic!("unknown scale {other}"),
    };
    let iters: usize = args
        .get(1)
        .map(|s| s.parse().expect("iterations"))
        .unwrap_or(200_000);
    let machine = &scale.machine;
    let topo = machine.torus();
    for bench in Benchmark::all() {
        let spec = bench.spec(scale.ranks);
        let graph = spec.comm_graph();
        let conc = scale.ranks / topo.num_nodes();
        let lvl = cluster_level(&graph, &spec.grid, conc);
        let g_node = &lvl.coarse_graph;
        // default: node-cluster i -> node i (equivalent to ABCDET after
        // row-major tiling; report its MCL as the baseline)
        let ident: Vec<u32> = (0..g_node.num_ranks()).collect();
        let default_mcl = mapping_mcl(topo, g_node, &ident, Routing::UniformMinimal);
        let sa = anneal_map(
            topo,
            g_node,
            &AnnealOptions {
                iterations: iters,
                seed: 7,
                ..Default::default()
            },
        );
        println!(
            "{}: default-MCL {:.0}, oracle-SA MCL {:.0} ({:+.1}%)",
            bench.name(),
            default_mcl,
            sa.mcl,
            (sa.mcl / default_mcl - 1.0) * 100.0
        );
    }
}
