//! End-to-end integration: profile → RAHTM pipeline → mapping artifact →
//! evaluation, across every crate in the workspace.

use rahtm_repro::netsim::des::{simulate_phase, DesConfig};
use rahtm_repro::prelude::*;

fn micro_machine() -> BgqMachine {
    BgqMachine::new(Torus::torus(&[4, 4]), 4, 4)
}

#[test]
fn all_benchmarks_map_at_micro_scale() {
    let machine = micro_machine();
    for bench in Benchmark::all() {
        let spec = bench.spec(64);
        let graph = spec.comm_graph();
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, Some(spec.grid.clone()));
        res.mapping.validate(&machine);
        assert_eq!(res.mapping.num_ranks(), 64, "{}", bench.name());
        // exactly concentration ranks per node
        let by = res.mapping.ranks_by_node(&machine);
        assert!(by.iter().all(|v| v.len() == 4), "{}", bench.name());
    }
}

#[test]
fn rahtm_never_loses_to_default_at_micro_scale() {
    let machine = micro_machine();
    for bench in Benchmark::all() {
        let spec = bench.spec(64);
        let graph = spec.comm_graph();
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, Some(spec.grid.clone()));
        let default = TaskMapping::abcdet(&machine, 64);
        let rahtm_mcl = res.mapping.mcl(&machine, &graph, Routing::UniformMinimal);
        let default_mcl = default.mcl(&machine, &graph, Routing::UniformMinimal);
        assert!(
            rahtm_mcl <= default_mcl * 1.001,
            "{}: rahtm {rahtm_mcl} vs default {default_mcl}",
            bench.name()
        );
    }
}

#[test]
fn mcl_prediction_validated_by_packet_simulator() {
    // The paper's premise end to end: the mapping RAHTM prefers (lower
    // MCL) must also deliver the communication phase faster in the
    // packet-granularity simulator.
    let machine = micro_machine();
    let topo = machine.torus();
    let bench = Benchmark::Bt;
    let spec = bench.spec(64);
    let graph = spec.comm_graph();
    let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, Some(spec.grid.clone()));
    let default = TaskMapping::abcdet(&machine, 64);

    let mcl_r = res.mapping.mcl(&machine, &graph, Routing::UniformMinimal);
    let mcl_d = default.mcl(&machine, &graph, Routing::UniformMinimal);
    let des_r = simulate_phase(topo, &graph, res.mapping.nodes(), &DesConfig::default());
    let des_d = simulate_phase(topo, &graph, default.nodes(), &DesConfig::default());
    assert!(mcl_r < mcl_d, "RAHTM should strictly win on BT at micro");
    assert!(
        des_r.makespan < des_d.makespan,
        "DES must agree: rahtm {} vs default {}",
        des_r.makespan,
        des_d.makespan
    );
}

#[test]
fn profile_roundtrip_feeds_pipeline() {
    // save an IPM-style profile, load it, map from the loaded copy
    let machine = micro_machine();
    let profile = Profile::of_benchmark(Benchmark::Sp, 64);
    let json = profile.to_json();
    let loaded = Profile::from_json(&json).unwrap();
    let graph = loaded.to_graph();
    let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, None);
    res.mapping.validate(&machine);
}

#[test]
fn mapfile_workflow() {
    // pipeline -> mapfile text -> parse -> identical evaluation
    let machine = micro_machine();
    let graph = Benchmark::Cg.graph(64);
    let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, None);
    let text = res.mapping.to_bgq_mapfile(&machine);
    let parsed = TaskMapping::from_bgq_mapfile(&machine, &text).unwrap();
    assert_eq!(parsed, res.mapping);
    assert_eq!(
        parsed.mcl(&machine, &graph, Routing::UniformMinimal),
        res.mapping.mcl(&machine, &graph, Routing::UniformMinimal),
    );
}

#[test]
fn non_uniform_machine_end_to_end() {
    // BG/Q-style non-uniform last dimension exercises slicing + slice merge
    let machine = BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2);
    let graph = Benchmark::Bt.graph(64);
    let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &graph, None);
    res.mapping.validate(&machine);
    let used: std::collections::HashSet<_> = res.mapping.nodes().iter().collect();
    assert_eq!(used.len(), 32);
}

#[test]
fn baselines_and_rahtm_are_all_valid_mappings() {
    let machine = micro_machine();
    let graph = Benchmark::Cg.graph(64);
    let spec = Benchmark::Cg.spec(64);
    let candidates: Vec<(&str, Vec<u32>)> = vec![
        ("hilbert", hilbert_mapping(&machine, 64)),
        ("greedy", greedy_hop_bytes(&machine, &graph)),
        ("random", random_mapping(&machine, 64, 1)),
        (
            "rht",
            rht_mapping(
                &machine,
                &spec.grid,
                &RhtConfig::generic(&machine, &spec.grid),
                64,
            ),
        ),
        (
            "rahtm",
            RahtmMapper::new(RahtmConfig::fast())
                .map(&machine, &graph, Some(spec.grid.clone()))
                .mapping
                .nodes()
                .to_vec(),
        ),
    ];
    for (name, nodes) in candidates {
        let mapping = TaskMapping::from_nodes(&machine, nodes);
        mapping.validate(&machine);
        assert_eq!(mapping.num_ranks(), 64, "{name}");
    }
}
