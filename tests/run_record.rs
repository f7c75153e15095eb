//! `RahtmResult::stats` is a view of the run's journal: a traced run and an
//! untraced run of the same deterministic workload report the same counts,
//! and those counts are exactly what `PhaseStats::from_journal` reads off
//! the traced run's journal.

use rahtm_repro::prelude::*;

/// Every count field of the stats and its degradation report (the phase
/// times are wall-clock and left out).
fn counts(s: &PhaseStats) -> Vec<(&'static str, usize)> {
    let d = &s.degradation;
    vec![
        ("milp_solves", s.milp_solves),
        ("milp_cache_hits", s.milp_cache_hits),
        ("milp_nodes", s.milp_nodes),
        ("milp_symmetry_pruned", s.milp_symmetry_pruned),
        ("merge_candidates", s.merge_candidates),
        ("degradation.milp", d.milp),
        ("degradation.anneal", d.anneal),
        ("degradation.greedy", d.greedy),
        ("degradation.downgraded", d.downgraded),
        ("degradation.identity_merges", d.identity_merges),
        ("degradation.salvaged_workers", d.salvaged_workers),
        ("degradation.events", d.events.len()),
    ]
}

fn assert_stats_are_a_journal_view(
    cfg: RahtmConfig,
    machine: &BgqMachine,
    g: &CommGraph,
    grid: Option<RankGrid>,
) {
    let untraced = RahtmMapper::new(cfg.clone())
        .run(machine, g, grid.clone())
        .expect("untraced run");
    let traced = RahtmMapper::new(cfg)
        .with_recorder(Recorder::enabled())
        .run(machine, g, grid)
        .expect("traced run");
    assert!(untraced.journal.is_none(), "no export target, no journal");
    let journal = traced.journal.as_ref().expect("traced run returns its journal");
    assert_eq!(untraced.mapping, traced.mapping);
    assert_eq!(counts(&untraced.stats), counts(&traced.stats));
    let view = PhaseStats::from_journal(journal);
    assert_eq!(counts(&traced.stats), counts(&view));
    assert_eq!(traced.stats.degradation.events, view.degradation.events);
    assert_eq!(traced.stats.milp_secs, view.milp_secs);
    assert!(traced.stats.milp_solves > 0 && traced.stats.merge_candidates > 0);
}

#[test]
fn walkthrough_stats_match_traced_and_untraced() {
    assert_stats_are_a_journal_view(
        RahtmConfig::default(),
        &BgqMachine::toy_4x4(),
        &patterns::halo_2d(4, 4, 10.0, true),
        Some(RankGrid::new(&[4, 4])),
    );
}

#[test]
fn two_slice_stats_match_traced_and_untraced() {
    // 4x4x2 torus slices into two 4x4 planes solved by concurrent workers.
    // With the shared caches on, which worker solves a sub-problem both
    // slices share and which one hits the cache (or whether both solve
    // it) depends on scheduling, so the solve/hit split is not
    // reproducible run to run; without them every count is.
    assert_stats_are_a_journal_view(
        RahtmConfig {
            cache_subproblems: false,
            ..RahtmConfig::fast()
        },
        &BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2),
        &Benchmark::Cg.graph(64),
        None,
    );
}

#[test]
fn reused_recorder_keeps_stats_per_run() {
    use rahtm_repro::obs::counters;
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let recorder = Recorder::enabled();
    let mapper = RahtmMapper::new(RahtmConfig::fast()).with_recorder(recorder.clone());
    let first = mapper.run(&machine, &g, None).expect("first run");
    let second = mapper.run(&machine, &g, None).expect("second run");
    assert_eq!(counts(&first.stats), counts(&second.stats));
    let (j1, j2) = (first.journal.unwrap(), second.journal.unwrap());
    assert_eq!(j1.normalized(), j2.normalized(), "each result holds its own run");
    // the caller's recorder accumulates both runs
    let solved = j1.counter(counters::SUBPROBLEMS_SOLVED).unwrap();
    assert_eq!(recorder.counter(counters::SUBPROBLEMS_SOLVED), 2 * solved);
}
