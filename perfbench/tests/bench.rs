//! The benchmark's own checks, on the micro workload (CG, 64 ranks on a
//! 4×4 torus), which maps in milliseconds.

use rahtm_core::RahtmMapper;
use rahtm_perfbench::{run, Runner, MICRO};
use serde_json::Value;

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let mut out: Vec<(String, String)> = doc
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(MICRO, 7, 0.2, trace);
        assert!(report.correct(), "{section}: {:?}", report.errors);
        let mut emitted: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        emitted.sort();
        let want = declared(section);
        assert_eq!(emitted, want, "{section}");

        let line = serde_json::from_str(&report.result_json()).expect("result line is JSON");
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        for (name, unit) in &want {
            let m = line.get("metrics").and_then(|ms| ms.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
        }
    }
}

#[test]
fn corrupted_mappings_count_as_failed() {
    let inst = MICRO.setup();
    let res = RahtmMapper::new(MICRO.config(7))
        .run(&inst.machine, &inst.graph, Some(inst.grid.clone()))
        .expect("micro instance maps");
    let nodes = res.mapping.nodes().to_vec();
    let mcl = res.predicted_mcl;
    let mut runner = Runner::new(MICRO, inst, 7);

    // an over-full node: one rank moved onto rank 0's node
    let mut overfull = nodes.clone();
    let moved = overfull
        .iter()
        .position(|&n| n != nodes[0])
        .expect("two nodes");
    overfull[moved] = nodes[0];
    assert!(!runner.tally(0, &overfull, mcl, 0));
    // a predicted MCL that disagrees with the mapping
    assert!(!runner.tally(0, &nodes, mcl * (1.0 + 1e-6), 0));
    // a degradation rung taken
    assert!(!runner.tally(0, &nodes, mcl, 1));
    assert_eq!((runner.attempted, runner.failed), (3, 3));

    assert!(runner.tally(0, &nodes, mcl, 0), "{:?}", runner.errors);
    // a later run that differs from the first passing one (two ranks on
    // different nodes swapped: still a valid mapping) is nondeterminism
    let mut swapped = nodes.clone();
    swapped.swap(0, moved);
    assert!(!runner.tally(0, &swapped, mcl, 0));
    assert_eq!((runner.attempted, runner.failed), (5, 4));
}

#[test]
fn same_seed_gives_same_digest() {
    let a = run(MICRO, 11, 0.0, false);
    let b = run(MICRO, 11, 0.0, false);
    assert!(a.correct() && b.correct(), "{:?} {:?}", a.errors, b.errors);
    assert!(
        a.attempted >= 3,
        "each run maps both seeds and repeats the first"
    );
    assert!(a.digest.is_some());
    assert_eq!(a.digest, b.digest);
}
