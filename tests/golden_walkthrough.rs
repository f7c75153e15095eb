//! Golden snapshot of the paper's 16-process walkthrough (Figures 3–7):
//! pins the exact mapping, the predicted MCL, and the shape of the trace
//! journal, so any behavioural drift in the pipeline — clustering, MILP,
//! merge, or the observability layer — shows up as a one-line diff here.
//!
//! If a change legitimately alters the walkthrough output, update the
//! constants below alongside DESIGN.md's walkthrough section.

use rahtm_repro::obs::{counters, spans};
use rahtm_repro::prelude::*;

fn walkthrough() -> (BgqMachine, CommGraph, RankGrid) {
    (
        BgqMachine::toy_4x4(),
        patterns::halo_2d(4, 4, 10.0, true),
        RankGrid::new(&[4, 4]),
    )
}

fn run_traced() -> (RahtmResult, Journal) {
    run_traced_with(RahtmConfig::default())
}

fn run_traced_with(config: RahtmConfig) -> (RahtmResult, Journal) {
    let (machine, app, grid) = walkthrough();
    let recorder = Recorder::enabled();
    let res = RahtmMapper::new(config)
        .with_recorder(recorder.clone())
        .run(&machine, &app, Some(grid))
        .expect("walkthrough mapping succeeds");
    let journal = res
        .journal
        .clone()
        .expect("enabled recorder yields journal");
    (res, journal)
}

/// The walkthrough is fully deterministic: the journal (modulo wall-clock
/// span durations) and the mapping are identical run to run.
#[test]
fn walkthrough_is_deterministic_including_journal() {
    let (res_a, journal_a) = run_traced();
    let (res_b, journal_b) = run_traced();
    assert_eq!(res_a.mapping, res_b.mapping);
    assert_eq!(res_a.predicted_mcl, res_b.predicted_mcl);
    assert_eq!(journal_a.normalized(), journal_b.normalized());
}

/// Golden mapping + MCL: the exact rank→node assignment the pipeline
/// produces for the paper's running example.
#[test]
fn walkthrough_mapping_snapshot() {
    let (res, _) = run_traced();
    let (machine, app, _) = walkthrough();
    let mcl = res.mapping.mcl(&machine, &app, Routing::UniformMinimal);
    // the halo exchange on a matched 4x4 torus routes every flow one hop:
    // predicted and realized MCL are both exactly one 10-byte flow per
    // directed channel
    assert_eq!(res.predicted_mcl, 10.0, "predicted MCL drifted");
    assert_eq!(mcl, 10.0, "realized MCL drifted");
    // bijective onto the 16 nodes
    let mut seen = [false; 16];
    for r in 0..16u32 {
        let n = res.mapping.node(r) as usize;
        assert!(!seen[n], "mapping must be bijective");
        seen[n] = true;
    }
}

/// Golden journal shape: the spans, counters, and gauges the walkthrough
/// run must record, with exact values for everything deterministic.
#[test]
fn walkthrough_journal_snapshot() {
    let (_, journal) = run_traced();

    // -- spans: exactly this set, each entered a pinned number of times --
    let span_counts: Vec<(&str, u64)> = journal
        .spans
        .iter()
        .map(|s| (s.name.as_str(), s.count))
        .collect();
    assert_eq!(
        span_counts,
        vec![
            (spans::PIPELINE, 1),
            (spans::CLUSTERING, 2),
            (spans::MERGE, 1),
            ("pipeline.merge.side2", 1),
            ("pipeline.merge.side4", 1),
            (spans::MILP, 1),
        ],
        "span inventory drifted"
    );
    // every span accumulated nonzero-or-positive wall time
    assert!(journal.spans.iter().all(|s| s.secs >= 0.0));

    // -- counters: pinned names and values (the walkthrough is single-
    //    slice, so even cache hit/miss counts are deterministic) --
    for (name, expect) in [
        (counters::SUBPROBLEMS_SOLVED, 2),
        (counters::SUB_CACHE_MISSES, 2),
        (counters::SUB_CACHE_HITS, 3),
        (counters::MERGE_CACHE_MISSES, 2),
        (counters::MERGE_CACHE_HITS, 3),
        (counters::DEGRADE_MILP, 2),
        (counters::BNB_NODES_EXPLORED, 2),
        (counters::SIMPLEX_SOLVES, 2),
        (counters::SIMPLEX_PIVOTS, 114),
        (counters::MILP_SYMMETRY_PRUNED, 2),
        (counters::MERGE_ORIENTATIONS, 32),
        (counters::MERGE_CANDIDATES_EVALUATED, 1088),
        (counters::MERGE_CANDIDATES_KEPT, 192),
        (counters::MERGE_CANDIDATES_PRUNED, 767),
    ] {
        assert_eq!(
            journal.counter(name),
            Some(expect),
            "counter {name} drifted"
        );
    }
    // the side-4 merge's first step: two 2x2 quadrants of the 4x4 torus,
    // both fixed by the 4 reflections of its two dimensions, which act
    // freely on the 8 x 8 candidates: 16 representatives, 48 skipped
    assert_eq!(
        journal.counter(counters::MERGE_SYMMETRY_SKIPPED),
        Some(48),
        "counter {} drifted",
        counters::MERGE_SYMMETRY_SKIPPED
    );

    // anneal totals and deadline polls are deterministic too but tied to
    // tuning constants that shift legitimately; pin presence + positivity
    for name in [
        counters::ANNEAL_ACCEPTED,
        counters::ANNEAL_REJECTED,
        counters::DEADLINE_CHECKS,
    ] {
        assert!(
            journal.counter(name).unwrap_or(0) > 0,
            "counter {name} missing or zero"
        );
    }
    // nothing degraded in an unconstrained run
    for name in [
        counters::DEGRADE_ANNEAL,
        counters::DEGRADE_GREEDY,
        counters::DEGRADE_DOWNGRADED,
        counters::DEGRADE_IDENTITY_MERGES,
        counters::DEGRADE_SALVAGED_WORKERS,
    ] {
        assert_eq!(journal.counter(name), None, "unexpected degradation {name}");
    }

    // -- gauges: cluster sizes per level and the final MCL --
    let gauge_names: Vec<&str> = journal.gauges.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(
        gauge_names,
        vec![
            "cluster.level0.clusters",
            "cluster.level1.clusters",
            "merge.mcl.side2",
            "merge.mcl.side4",
            "pipeline.predicted_mcl",
        ],
        "gauge inventory drifted"
    );
    let gauge_values = |name: &str| {
        journal
            .gauge(name)
            .map(|g| g.values.clone())
            .unwrap_or_default()
    };
    assert_eq!(gauge_values("cluster.level0.clusters"), vec![4.0]);
    assert_eq!(gauge_values("cluster.level1.clusters"), vec![16.0]);
    assert_eq!(gauge_values("pipeline.predicted_mcl"), vec![10.0]);
    assert_eq!(gauge_values("merge.mcl.side2"), vec![10.0]);
    assert_eq!(gauge_values("merge.mcl.side4"), vec![10.0]);

    // -- events: an undegraded run records none --
    assert!(journal.events.is_empty(), "{:?}", journal.events);
}

/// The number of candidates the cut line ranks out before their routing
/// finishes, at a beam of 8. Only orbit representatives count: the first
/// step's cut ones included, their mirror images not.
#[test]
fn walkthrough_beam_8_prune_count() {
    let (res, journal) = run_traced_with(RahtmConfig {
        beam_width: 8,
        ..Default::default()
    });
    assert_eq!(res.predicted_mcl, 10.0);
    for (name, expect) in [
        (counters::MERGE_CANDIDATES_EVALUATED, 192),
        (counters::MERGE_CANDIDATES_KEPT, 24),
        (counters::MERGE_CANDIDATES_PRUNED, 92),
    ] {
        assert_eq!(
            journal.counter(name),
            Some(expect),
            "counter {name} drifted"
        );
    }
}

/// The journal survives a JSON round-trip bit-for-bit.
#[test]
fn walkthrough_journal_json_roundtrip() {
    let (_, journal) = run_traced();
    let json = journal.to_json_pretty();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let back = Journal::from_json(&parsed).expect("well-formed journal JSON");
    assert_eq!(back, journal);
}
