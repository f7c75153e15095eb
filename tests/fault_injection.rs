//! Fault-injection tests for the pipeline's degradation ladder: every
//! rung (MILP → annealing → greedy) and the level-pass salvage path must be
//! exercised deterministically, and the run must still deliver a valid
//! mapping with the downgrade visible in the [`DegradationReport`].

use rahtm_repro::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

/// The permutation invariants from `tests/property_invariants.rs`: every
/// node used, capacities respected.
fn assert_valid_mapping(machine: &BgqMachine, res: &RahtmResult) {
    res.mapping.validate(machine);
    let nodes: HashSet<_> = res.mapping.nodes().iter().collect();
    assert_eq!(
        nodes.len(),
        machine.torus().num_nodes() as usize,
        "every node used"
    );
    let conc = res.mapping.num_ranks() / machine.torus().num_nodes();
    let by = res.mapping.ranks_by_node(machine);
    assert!(
        by.iter().all(|v| v.len() == conc as usize),
        "node capacities respected"
    );
}

fn milp_cfg(plan: FaultPlan) -> RahtmConfig {
    RahtmConfig {
        use_milp: true,
        milp_node_budget: 25,
        anneal_iters: 2_000,
        beam_width: 8,
        fault_plan: Some(plan),
        ..Default::default()
    }
}

/// (a) A MILP timeout at the first sub-problem degrades to the annealing
/// incumbent; the mapping still satisfies the permutation invariants.
#[test]
fn milp_timeout_falls_back_to_annealing() {
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let plan = FaultPlan::inject(Fault::SolverTimeout, 0);
    let res = RahtmMapper::new(milp_cfg(plan.clone()))
        .run(&machine, &g, Some(RankGrid::new(&[4, 4])))
        .expect("degradation ladder absorbs a solver timeout");
    assert!(plan.fired(), "the targeted solve was reached");
    assert_valid_mapping(&machine, &res);
    let d = &res.stats.degradation;
    assert_eq!(d.downgraded, 1, "exactly the injected fault: {d:?}");
    assert!(
        d.events.iter().any(|e| e.contains("deadline hit")),
        "timeout recorded: {:?}",
        d.events
    );
}

/// A forced infeasibility takes the same rung with its own event trail.
#[test]
fn forced_infeasibility_falls_back_to_annealing() {
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let plan = FaultPlan::inject(Fault::Infeasible, 0);
    let res = RahtmMapper::new(milp_cfg(plan))
        .run(&machine, &g, Some(RankGrid::new(&[4, 4])))
        .expect("degradation ladder absorbs infeasibility");
    assert_valid_mapping(&machine, &res);
    let d = &res.stats.degradation;
    assert_eq!(d.downgraded, 1, "{d:?}");
    assert!(
        d.events.iter().any(|e| e.contains("infeasibility")),
        "{:?}",
        d.events
    );
}

/// (b) One slice-worker panic on a multi-slice machine: the panicking
/// slice is re-solved sequentially and the mapping is still complete.
#[test]
fn worker_panic_on_multi_slice_machine_is_salvaged() {
    // 4x4x2 torus slices into two 4x4 planes → two workers
    let machine = BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2);
    let g = Benchmark::Cg.graph(64);
    let plan = FaultPlan::inject(Fault::WorkerPanic, 0);
    let res = RahtmMapper::new(RahtmConfig {
        fault_plan: Some(plan.clone()),
        ..RahtmConfig::fast()
    })
    .run(&machine, &g, None)
    .expect("one worker panic must not kill the run");
    assert!(plan.fired());
    assert_valid_mapping(&machine, &res);
    assert_eq!(res.stats.degradation.salvaged_workers, 1);
    assert!(res
        .stats
        .degradation
        .events
        .iter()
        .any(|e| e.contains("panicked")));
}

/// A worker panic is salvaged on a single-slice machine too (the common
/// uniform-torus case).
#[test]
fn worker_panic_on_single_slice_machine_is_salvaged() {
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let plan = FaultPlan::inject(Fault::WorkerPanic, 0);
    let res = RahtmMapper::new(RahtmConfig {
        fault_plan: Some(plan),
        ..RahtmConfig::fast()
    })
    .run(&machine, &g, Some(RankGrid::new(&[4, 4])))
    .expect("single-slice salvage");
    assert_valid_mapping(&machine, &res);
    assert_eq!(res.stats.degradation.salvaged_workers, 1);
}

/// (c) Report counts match the injected faults exactly: one fault, one
/// downgrade, one event — and a fault-free control run reports zero.
#[test]
fn report_counts_match_injected_faults() {
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let grid = RankGrid::new(&[4, 4]);

    let control = RahtmMapper::new(RahtmConfig {
        use_milp: true,
        milp_node_budget: 25,
        anneal_iters: 2_000,
        beam_width: 8,
        ..Default::default()
    })
    .run(&machine, &g, Some(grid.clone()))
    .expect("control run");
    assert_eq!(control.stats.degradation.total_downgrades(), 0);
    assert!(control.stats.degradation.events.is_empty());

    for fault in [Fault::SolverTimeout, Fault::Infeasible] {
        let res = RahtmMapper::new(milp_cfg(FaultPlan::inject(fault, 0)))
            .run(&machine, &g, Some(grid.clone()))
            .expect("faulted run");
        let d = &res.stats.degradation;
        assert_eq!(d.total_downgrades(), 1, "{fault:?}: {d:?}");
        assert_eq!(d.events.len(), 1, "{fault:?}: {:?}", d.events);
        // the downgrade landed on the annealing rung, not greedy
        assert!(d.anneal >= 1 && d.greedy == 0, "{fault:?}: {d:?}");
    }
}

/// An injected fault at a later sub-problem (not the first) also lands
/// exactly once — the shared counter works across the solve sequence.
#[test]
fn fault_at_later_subproblem_fires_once() {
    let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
    let g = patterns::halo_2d(8, 8, 5.0, true);
    let plan = FaultPlan::inject(Fault::Infeasible, 2);
    // cache off: cache hits do no solver work and don't advance the plan
    let res = RahtmMapper::new(RahtmConfig {
        cache_subproblems: false,
        ..milp_cfg(plan.clone())
    })
    .run(&machine, &g, Some(RankGrid::new(&[8, 8])))
    .expect("faulted run");
    assert!(plan.fired());
    assert_valid_mapping(&machine, &res);
    assert_eq!(res.stats.degradation.downgraded, 1);
}

/// The trace journal mirrors the degradation report rung by rung: each
/// injected fault shows up under the right `degrade.rung.*` counter with
/// the same totals the report carries.
#[test]
fn journal_records_each_degradation_rung() {
    use rahtm_repro::obs::counters;
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let grid = RankGrid::new(&[4, 4]);

    for fault in [Fault::SolverTimeout, Fault::Infeasible] {
        let res = RahtmMapper::new(milp_cfg(FaultPlan::inject(fault, 0)))
            .with_recorder(Recorder::enabled())
            .run(&machine, &g, Some(grid.clone()))
            .expect("faulted run");
        let d = &res.stats.degradation;
        let j = res.journal.as_ref().expect("journal present when enabled");
        assert_eq!(
            j.counter(counters::DEGRADE_ANNEAL),
            Some(d.anneal as u64),
            "{fault:?}: anneal rung"
        );
        assert_eq!(
            j.counter(counters::DEGRADE_MILP).unwrap_or(0),
            d.milp as u64,
            "{fault:?}: milp rung"
        );
        assert_eq!(
            j.counter(counters::DEGRADE_DOWNGRADED),
            Some(d.downgraded as u64),
            "{fault:?}: downgrade total"
        );
        assert_eq!(
            j.counter(counters::DEGRADE_GREEDY),
            None,
            "{fault:?}: no greedy rung"
        );
    }
}

/// A salvaged worker panic lands in the journal exactly once, alongside
/// the report — and a fault-free control run records no degradation
/// counters at all.
#[test]
fn journal_records_salvage_and_stays_clean_without_faults() {
    use rahtm_repro::obs::counters;
    let machine = BgqMachine::toy_4x4();
    let g = patterns::halo_2d(4, 4, 10.0, true);
    let grid = RankGrid::new(&[4, 4]);

    let control = RahtmMapper::new(RahtmConfig {
        fault_plan: None,
        ..milp_cfg(FaultPlan::inject(Fault::SolverTimeout, 0))
    })
    .with_recorder(Recorder::enabled())
    .run(&machine, &g, Some(grid.clone()))
    .expect("control run");
    let j = control.journal.as_ref().expect("journal");
    for name in [
        counters::DEGRADE_ANNEAL,
        counters::DEGRADE_GREEDY,
        counters::DEGRADE_DOWNGRADED,
        counters::DEGRADE_IDENTITY_MERGES,
        counters::DEGRADE_SALVAGED_WORKERS,
    ] {
        assert_eq!(j.counter(name), None, "control run must not record {name}");
    }

    let res = RahtmMapper::new(RahtmConfig {
        fault_plan: Some(FaultPlan::inject(Fault::WorkerPanic, 0)),
        ..RahtmConfig::fast()
    })
    .with_recorder(Recorder::enabled())
    .run(&machine, &g, Some(grid))
    .expect("salvaged run");
    let j = res.journal.as_ref().expect("journal");
    assert_eq!(j.counter(counters::DEGRADE_SALVAGED_WORKERS), Some(1));
    assert_eq!(
        res.stats.degradation.salvaged_workers, 1,
        "journal and report agree on the salvage"
    );
}

/// Under combined pressure the journal's rung counters equal the
/// degradation report's, even though which rung answers each sub-problem
/// is wall-clock dependent.
#[test]
fn journal_rungs_reconcile_with_report_under_pressure() {
    use rahtm_repro::obs::counters;
    let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
    let g = patterns::halo_2d(8, 8, 5.0, true);
    let res = RahtmMapper::new(RahtmConfig {
        time_limit: Some(Duration::from_millis(50)),
        fault_plan: Some(FaultPlan::inject(Fault::WorkerPanic, 1)),
        ..RahtmConfig::fast()
    })
    .with_recorder(Recorder::enabled())
    .run(&machine, &g, Some(RankGrid::new(&[8, 8])))
    .expect("valid mapping under combined pressure");
    let d = &res.stats.degradation;
    let j = res.journal.as_ref().expect("journal");
    let rung = |name| j.counter(name).unwrap_or(0) as usize;
    // the report is a view of the journal, so both count the same work,
    // including solves the panicking worker finished before dying
    let journal_rungs = rung(counters::DEGRADE_MILP)
        + rung(counters::DEGRADE_ANNEAL)
        + rung(counters::DEGRADE_GREEDY);
    let report_rungs = d.milp + d.anneal + d.greedy;
    assert_eq!(
        journal_rungs, report_rungs,
        "journal rungs {journal_rungs} must equal the report's {report_rungs}: {d:?}"
    );
    assert_eq!(
        journal_rungs,
        rung("pipeline.subproblems_solved"),
        "every recorded solve is attributed to exactly one rung"
    );
    assert_eq!(rung(counters::DEGRADE_SALVAGED_WORKERS), d.salvaged_workers);
}

/// The acceptance scenario in miniature plus faults: a tight (but nonzero)
/// budget and an injected worker panic together still produce a valid
/// mapping; the report shows which rungs answered.
#[test]
fn tight_budget_and_fault_combine() {
    let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
    let g = patterns::halo_2d(8, 8, 5.0, true);
    let plan = FaultPlan::inject(Fault::WorkerPanic, 1);
    let res = RahtmMapper::new(RahtmConfig {
        time_limit: Some(Duration::from_millis(50)),
        fault_plan: Some(plan),
        ..RahtmConfig::fast()
    })
    .run(&machine, &g, Some(RankGrid::new(&[8, 8])))
    .expect("valid mapping under combined pressure");
    assert_valid_mapping(&machine, &res);
    let d = &res.stats.degradation;
    assert_eq!(d.salvaged_workers, 1, "{d:?}");
    // ladder accounting covers every sub-problem that was actually solved
    assert_eq!(
        d.milp + d.anneal + d.greedy,
        res.stats.milp_solves,
        "every solve accounted to a rung: {d:?}"
    );
}
