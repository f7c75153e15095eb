//! # rahtm-perfbench
//!
//! One benchmark for the RAHTM mapper. RAHTM is an offline mapper: a user
//! waits for [`RahtmMapper::run`] and then keeps the mapping, so the two
//! numbers that matter are the wall time of a run and how much
//! communication the mapping saves against the machine's default ABCDET
//! order (the paper's §V-B cost and Fig. 10 benefit).
//!
//! A run of the benchmark works on one [`Workload`]: a NAS communication
//! graph at a fixed decomposition, a machine, and a mapper configuration.
//!
//! * **End to end** (`trace = false`): set up the instance several times
//!   (median `setup_s`), then map it untraced, one run at a time, for the
//!   time budget (median `map_s`). Every run's output is checked
//!   (`check_output`) and counted in `attempted` / `failed`.
//! * **Per layer** (`trace = true`): untraced runs for CPU time, one traced
//!   run whose [`rahtm_obs::Journal`] gives spans and counters, and probes
//!   that time calls into each layer's public functions on inputs cut from
//!   the same workload and its returned mapping.
//!
//! Nothing here adds tracing inside the mapper; the only internal record
//! read is the existing `RahtmResult::journal`.

#![forbid(unsafe_code)]

use rahtm_commgraph::{Benchmark, CommGraph, Rank, RankGrid};
use rahtm_core::anneal::{anneal_map, AnnealOptions, AnnealResult};
use rahtm_core::block::Block;
use rahtm_core::cluster::{build_hierarchy_with, cluster_level, cluster_level_with};
use rahtm_core::merge::{merge_blocks, MergeOptions, PositionedBlock};
use rahtm_core::milp::{milp_map, MilpMapOptions};
use rahtm_core::{RahtmConfig, RahtmMapper, TaskMapping};
use rahtm_lp::{Deadline, MilpOptions, SimplexOptions};
use rahtm_netsim::{AppModel, CommTimeModel};
use rahtm_obs::{counters, spans, Journal, Recorder};
use rahtm_routing::{mapping_mcl, route_graph, RouteStencilCache, Routing};
use rahtm_topology::{BgqMachine, Coord, NodeId, SubCube, Torus};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative tolerance between the recomputed and the predicted MCL. Both
/// sum the same per-channel loads, only in a different order (rank-level
/// flows vs. node-level contracted flows), so they agree to a few ulps of
/// accumulated rounding. A larger gap is a bug, not noise.
const MCL_REL_TOL: f64 = 1e-9;

/// A run sets the instance up repeatedly for this long (and at least
/// [`SETUP_MIN_REPS`] times); `setup_s` is the median set-up.
const SETUP_SECS: f64 = 1.0;
const SETUP_MIN_REPS: usize = 5;

/// A probe repeats its call until it has run this long and reports the
/// median call.
const PROBE_SECS: f64 = 0.5;

/// Wall-clock cap of the MILP probe. At paper scale one simplex pivot of
/// the root LP takes tens of milliseconds, so the probe measures rates over
/// a bounded slice of the solve instead of the whole budgeted search.
const MILP_PROBE_SECS: f64 = 3.0;

/// One benchmark workload: a NAS decomposition on a machine, mapped with a
/// fixed configuration. A run's seed gives its [`mapper_seeds`], which
/// become [`RahtmConfig::seed`].
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    bench: Benchmark,
    ranks: u32,
    machine: fn() -> BgqMachine,
    config: fn() -> RahtmConfig,
}

/// 4×4×4×2 torus, 16 cores per node, concentration 8 (1,024 ranks).
fn mini_torus() -> BgqMachine {
    BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 8)
}

/// 4×4 torus, concentration 4 (64 ranks): the micro scale the tests use.
fn micro_torus() -> BgqMachine {
    BgqMachine::new(Torus::torus(&[4, 4]), 4, 4)
}

/// The default configuration with the MILP rung switched off.
fn anneal_only() -> RahtmConfig {
    RahtmConfig {
        use_milp: false,
        ..RahtmConfig::default()
    }
}

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cg-1k-anneal",
        bench: Benchmark::Cg,
        ranks: 1024,
        machine: mini_torus,
        config: anneal_only,
    },
    Workload {
        name: "bt-16k-fast",
        bench: Benchmark::Bt,
        ranks: 16384,
        machine: BgqMachine::mira_512,
        config: RahtmConfig::fast,
    },
];

/// The CG instance under the default configuration (Table II MILP).
/// Runnable by name but not listed in `BENCHMARK.json`: which slice worker
/// solves each shared sub-problem first depends on timing, so its wall time
/// is multimodal (12-19 s here for identical work) and a median of the two
/// or three runs a 50 s run holds does not settle.
pub const CG_1K_MILP: Workload = Workload {
    name: "cg-1k-milp",
    bench: Benchmark::Cg,
    ranks: 1024,
    machine: mini_torus,
    config: RahtmConfig::default,
};

/// A seconds-long variant for the benchmark's own tests (not in
/// `BENCHMARK.json`): CG on 64 ranks of a 4×4 torus, fast configuration.
pub const MICRO: Workload = Workload {
    name: "micro",
    bench: Benchmark::Cg,
    ranks: 64,
    machine: micro_torus,
    config: RahtmConfig::fast,
};

/// Looks a workload up by name (the listed ones, [`CG_1K_MILP`] and
/// [`MICRO`]).
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS
        .iter()
        .chain([&CG_1K_MILP, &MICRO])
        .find(|w| w.name == name)
        .copied()
}

/// A generated instance: what the mapper receives.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The machine.
    pub machine: BgqMachine,
    /// The NAS communication graph.
    pub graph: CommGraph,
    /// The benchmark's logical rank grid.
    pub grid: RankGrid,
}

impl Workload {
    /// Builds the machine, the rank grid and the communication graph.
    pub fn setup(&self) -> Instance {
        let machine = (self.machine)();
        let spec = self.bench.spec(self.ranks);
        let graph = spec.comm_graph();
        Instance {
            machine,
            graph,
            grid: spec.grid,
        }
    }

    /// The mapper configuration for a run with `seed`.
    pub fn config(&self, seed: u64) -> RahtmConfig {
        RahtmConfig {
            seed,
            ..(self.config)()
        }
    }
}

/// The default ABCDET mapping's figures, against which a run is scored.
#[derive(Clone, Debug)]
struct Reference {
    mcl: f64,
    comm: f64,
    model: AppModel,
}

impl Reference {
    /// Scores the ABCDET order and calibrates the Fig. 10 time model on it.
    fn new(workload: &Workload, inst: &Instance) -> Self {
        let topo = inst.machine.torus();
        let default = TaskMapping::abcdet(&inst.machine, inst.graph.num_ranks());
        let model = AppModel::calibrated(
            topo,
            &inst.graph,
            default.nodes(),
            workload.bench.comm_fraction(),
            workload.bench.iterations(),
            CommTimeModel::default(),
            Routing::UniformMinimal,
        );
        Reference {
            mcl: default.mcl(&inst.machine, &inst.graph, Routing::UniformMinimal),
            comm: model.execute(topo, &inst.graph, default.nodes()).comm,
            model,
        }
    }
}

/// The checked figures of one run's mapping.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Checked {
    /// FNV-1a digest of the per-rank node assignment.
    digest: u64,
    /// Recomputed MCL over the ABCDET mapping's MCL.
    mcl_vs_default: f64,
    /// Flow-model communication time over the ABCDET mapping's.
    comm_vs_default: f64,
}

/// FNV-1a over the per-rank node ids: equal mappings, equal digests.
fn digest(nodes: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in nodes {
        for b in n.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checks one returned mapping and scores it:
///
/// * every rank is placed on a node of the machine;
/// * each node holds exactly `ranks / nodes` ranks (the concentration);
/// * no rung of the degradation ladder was taken;
/// * the MCL recomputed from scratch (what `TaskMapping::mcl` computes)
///   equals the mapper's `predicted_mcl` within [`MCL_REL_TOL`].
///
/// # Errors
/// A description of the first violated check.
fn check_output(
    inst: &Instance,
    reference: &Reference,
    nodes: &[NodeId],
    predicted_mcl: f64,
    downgrades: usize,
) -> Result<Checked, String> {
    let topo = inst.machine.torus();
    let ranks = inst.graph.num_ranks() as usize;
    if nodes.len() != ranks {
        return Err(format!("mapping places {} of {ranks} ranks", nodes.len()));
    }
    let num_nodes = topo.num_nodes() as usize;
    let per_node = ranks / num_nodes;
    let mut held = vec![0usize; num_nodes];
    for (rank, &n) in nodes.iter().enumerate() {
        match held.get_mut(n as usize) {
            Some(k) => *k += 1,
            None => return Err(format!("rank {rank} placed on node {n} of {num_nodes}")),
        }
    }
    if let Some((n, &k)) = held.iter().enumerate().find(|&(_, &k)| k != per_node) {
        return Err(format!("node {n} holds {k} ranks, expected {per_node}"));
    }
    if downgrades != 0 {
        return Err(format!(
            "{downgrades} degradation rung(s) taken in an untimed run"
        ));
    }
    let mcl = mapping_mcl(topo, &inst.graph, nodes, Routing::UniformMinimal);
    if (mcl - predicted_mcl).abs() > MCL_REL_TOL * mcl.abs().max(predicted_mcl.abs()) {
        return Err(format!(
            "recomputed MCL {mcl} != predicted MCL {predicted_mcl}: the mapper's MCL accounting is wrong"
        ));
    }
    let comm = reference.model.execute(topo, &inst.graph, nodes).comm;
    Ok(Checked {
        digest: digest(nodes),
        mcl_vs_default: mcl / reference.mcl,
        comm_vs_default: comm / reference.comm,
    })
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Mapper seeds per run.
pub const MAPPER_SEEDS: usize = 2;

/// The mapper seeds of a run: the run's seed and one derived from it
/// (splitmix64). A run alternates between them, so its figures rest on two
/// annealing trajectories; on `bt-16k-fast` one seed's MCL ratio alone
/// ranges 0.18-0.24.
pub fn mapper_seeds(seed: u64) -> [u64; MAPPER_SEEDS] {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    [seed, z ^ (z >> 31)]
}

/// Runs the mapper on one instance and keeps the accounting: every run is
/// attempted, and a run that errs or fails a check is failed.
pub struct Runner {
    inst: Instance,
    reference: Reference,
    /// One configuration per mapper seed.
    configs: [RahtmConfig; MAPPER_SEEDS],
    /// Per mapper seed, the first verified run: its figures and predicted
    /// MCL bits. Later runs with that seed must reproduce both exactly
    /// (untimed runs are bit-deterministic).
    first: [Option<(Checked, u64)>; MAPPER_SEEDS],
    /// Peak resident MiB once the first run returned. Later runs in the
    /// same process only add allocator fragmentation, so this is the
    /// footprint of one set-up plus one mapping run.
    first_peak_mb: Option<f64>,
    /// Runs attempted.
    pub attempted: usize,
    /// Runs that returned `Err` or failed a check.
    pub failed: usize,
    /// One line per failure.
    pub errors: Vec<String>,
}

/// Wall and CPU seconds of one `RahtmMapper::run`, and its journal.
struct MapRun {
    wall: f64,
    cpu: f64,
    nodes: Option<Vec<NodeId>>,
    journal: Option<Journal>,
}

impl Runner {
    /// A runner for `workload` with the mapper seeds of `seed`, on an
    /// instance already set up.
    pub fn new(workload: Workload, inst: Instance, seed: u64) -> Self {
        let reference = Reference::new(&workload, &inst);
        Runner::with_reference(workload, inst, reference, seed)
    }

    fn with_reference(workload: Workload, inst: Instance, reference: Reference, seed: u64) -> Self {
        Runner {
            configs: mapper_seeds(seed).map(|s| workload.config(s)),
            inst,
            reference,
            first: [None; MAPPER_SEEDS],
            first_peak_mb: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// The checked figures of the first passing run with mapper seed
    /// `seed_index`, if any.
    fn checked(&self, seed_index: usize) -> Option<Checked> {
        self.first[seed_index].map(|(c, _)| c)
    }

    /// Counts one run's output with mapper seed `seed_index`: checks it, and
    /// requires that it matches that seed's first passing run bit for bit.
    pub fn tally(
        &mut self,
        seed_index: usize,
        nodes: &[NodeId],
        predicted_mcl: f64,
        downgrades: usize,
    ) -> bool {
        self.attempted += 1;
        let verdict = match self.first[seed_index] {
            Some((first, bits)) if downgrades == 0 => {
                let d = digest(nodes);
                if d != first.digest {
                    Err(format!(
                        "mapping digest {d:016x} differs from the first run's {:016x}",
                        first.digest
                    ))
                } else if predicted_mcl.to_bits() != bits {
                    Err(format!(
                        "predicted MCL {predicted_mcl} differs from the first run's {}",
                        f64::from_bits(bits)
                    ))
                } else {
                    Ok(())
                }
            }
            _ => check_output(
                &self.inst,
                &self.reference,
                nodes,
                predicted_mcl,
                downgrades,
            )
            .map(|c| self.first[seed_index] = Some((c, predicted_mcl.to_bits()))),
        };
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    fn map_once(&mut self, seed_index: usize, recorder: Recorder) -> MapRun {
        let mapper = RahtmMapper::new(self.configs[seed_index].clone()).with_recorder(recorder);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let res = mapper.run(
            &self.inst.machine,
            &self.inst.graph,
            Some(self.inst.grid.clone()),
        );
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        self.first_peak_mb.get_or_insert_with(peak_rss_mb);
        match res {
            Ok(r) => {
                let downgrades = r.stats.degradation.total_downgrades();
                let ok = self.tally(seed_index, r.mapping.nodes(), r.predicted_mcl, downgrades);
                MapRun {
                    wall,
                    cpu,
                    nodes: ok.then(|| r.mapping.nodes().to_vec()),
                    journal: r.journal,
                }
            }
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("run returned Err: {e}"));
                MapRun {
                    wall,
                    cpu,
                    nodes: None,
                    journal: None,
                }
            }
        }
    }

    /// Untraced runs, one at a time and cycling through the first `seeds`
    /// mapper seeds, until starting another would overrun `budget`
    /// seconds; at least `min_runs`.
    fn timed_runs(&mut self, budget: f64, min_runs: usize, seeds: usize) -> Vec<MapRun> {
        let start = Instant::now();
        let mut runs: Vec<MapRun> = Vec::new();
        loop {
            runs.push(self.map_once(runs.len() % seeds, Recorder::disabled()));
            let typical = median(runs.iter().map(|r| r.wall));
            if runs.len() >= min_runs && start.elapsed().as_secs_f64() + typical > budget {
                return runs;
            }
        }
    }
}

/// Thread settings of the mapper on this machine.
#[derive(Clone, Debug)]
pub struct Threads {
    /// Concurrent slice workers (one per uniform slice of the machine).
    pub slice_workers: usize,
    /// Core cap of each slice's merge worker pool.
    pub merge_thread_cap: usize,
    /// Branch-and-bound threads per Table II solve.
    pub milp_threads: usize,
}

impl Threads {
    fn of(inst: &Instance, config: &RahtmConfig) -> Self {
        let slices = inst.machine.uniform_slices().len();
        Threads {
            slice_workers: slices,
            merge_thread_cap: rahtm_core::cores::share(slices),
            milp_threads: rahtm_core::cores::resolve(config.milp_threads, slices),
        }
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed passed as `RahtmConfig::seed`.
    pub seed: u64,
    /// Whether this was the per-layer (traced) run.
    pub trace: bool,
    /// Mapper runs attempted.
    pub attempted: usize,
    /// Mapper runs that erred or failed a check (a failed probe check
    /// fails the traced run it probed).
    pub failed: usize,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Digest of the returned mapping (same seed, same digest).
    pub digest: Option<u64>,
    /// Thread settings the mapper ran with.
    pub threads: Threads,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// True when every run and probe passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` with `seed` for about `seconds` seconds of mapping:
/// the end-to-end metrics, or with `trace` the per-layer ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let (inst, reference, setup_s, graph_build_s) = measure_setup(&workload);
    let mut runner = Runner::with_reference(workload, inst, reference, seed);
    let threads = Threads::of(&runner.inst, &runner.configs[0]);
    let metrics = if trace {
        per_layer(&mut runner, seconds, graph_build_s)
    } else {
        end_to_end(&mut runner, seconds, setup_s)
    };
    Report {
        workload: workload.name,
        seed,
        trace,
        attempted: runner.attempted,
        failed: runner.failed,
        digest: runner.checked(0).map(|c| c.digest),
        errors: runner.errors,
        threads,
        metrics,
    }
}

/// Sets the benchmark up repeatedly for [`SETUP_SECS`] (at least
/// [`SETUP_MIN_REPS`] times): the instance, and the ABCDET reference that
/// scores its runs. Returns the last set-up, the median set-up seconds, and
/// the median seconds of generating the graph alone. The reference is part
/// of `setup_s` because the instance alone builds in under a millisecond on
/// the 1K workload, where allocator and page-fault effects moved the median
/// by 31% between two sets of ten runs.
fn measure_setup(workload: &Workload) -> (Instance, Reference, f64, f64) {
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut graph_build = Vec::new();
    loop {
        let t = Instant::now();
        let inst = workload.setup();
        let reference = Reference::new(workload, &inst);
        setup.push(t.elapsed().as_secs_f64());
        let spec = workload.bench.spec(workload.ranks);
        let t = Instant::now();
        std::hint::black_box(spec.comm_graph());
        graph_build.push(t.elapsed().as_secs_f64());
        if setup.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_SECS {
            return (inst, reference, median(setup), median(graph_build));
        }
    }
}

/// End-to-end metrics: untraced runs alternating the mapper seeds (at
/// least one more than there are seeds, so the first seed repeats).
fn end_to_end(runner: &mut Runner, seconds: f64, setup_s: f64) -> Vec<Metric> {
    let runs = runner.timed_runs(seconds, MAPPER_SEEDS + 1, MAPPER_SEEDS);
    let map_s = median(runs.iter().map(|r| r.wall));
    // mean over the mapper seeds; NaN (a wrong result) if one never passed
    let seed_mean = |figure: fn(&Checked) -> f64| {
        (0..MAPPER_SEEDS)
            .map(|i| runner.checked(i).map_or(f64::NAN, |c| figure(&c)))
            .sum::<f64>()
            / MAPPER_SEEDS as f64
    };
    let attempted = runner.attempted.max(1) as f64;
    vec![
        metric("map_s", map_s, "s"),
        metric("mcl_vs_default", seed_mean(|c| c.mcl_vs_default), "ratio"),
        metric("comm_vs_default", seed_mean(|c| c.comm_vs_default), "ratio"),
        metric(
            "peak_rss_mb",
            runner.first_peak_mb.unwrap_or(f64::NAN),
            "MB",
        ),
        metric("setup_s", setup_s, "s"),
        metric(
            "pass_ratio",
            (attempted - runner.failed as f64) / attempted,
            "ratio",
        ),
    ]
}

/// Per-layer metrics, all with the first mapper seed: CPU time of untraced
/// runs (the first half of the budget), one traced run's journal, and
/// probes of each layer. Journal spans are summed across the concurrently
/// running slice workers.
fn per_layer(runner: &mut Runner, seconds: f64, graph_build_s: f64) -> Vec<Metric> {
    let untraced = runner.timed_runs(seconds / 2.0, 1, 1);
    let map_s = median(untraced.iter().map(|r| r.wall));
    let cpu_s = median(untraced.iter().map(|r| r.cpu));
    let traced = runner.map_once(0, Recorder::enabled());
    let journal = traced.journal.unwrap_or_default();
    let counter = |name: &str| journal.counter(name).unwrap_or(0) as f64;
    let span = |name: &str| journal.span(name).map_or(0.0, |s| s.secs);
    let cores = rahtm_core::cores::available() as f64;

    let inst = &runner.inst;
    let config = &runner.configs[0];
    let (hierarchy_s, cut) = probe(|| cut_first_slice(inst, config.tiling_search));
    let (anneal_s, annealed) = probe(|| anneal_root(&cut, config));
    let iterations = annealed.iterations;
    let milp = milp_probe(&cut, config, annealed.placement);

    let mut metrics = vec![
        metric("pipeline.cpu_s", cpu_s, "s"),
        metric(
            "pipeline.core_utilization",
            cpu_s / (map_s * cores),
            "ratio",
        ),
        metric("pipeline.clustering_s", span(spans::CLUSTERING), "s"),
        metric("pipeline.milp_cpu_s", span(spans::MILP), "s"),
        metric("pipeline.merge_cpu_s", span(spans::MERGE), "s"),
        metric("pipeline.merge_slices_s", span(spans::MERGE_SLICES), "s"),
        metric(
            "cache.subproblem_hit_ratio",
            share(
                counter(counters::SUB_CACHE_HITS),
                counter(counters::SUB_CACHE_MISSES),
            ),
            "ratio",
        ),
        metric(
            "cache.merge_hit_ratio",
            share(
                counter(counters::MERGE_CACHE_HITS),
                counter(counters::MERGE_CACHE_MISSES),
            ),
            "ratio",
        ),
        metric("cluster.hierarchy_s", hierarchy_s, "s"),
        metric(
            "anneal.proposals_per_s",
            iterations as f64 / anneal_s,
            "1/s",
        ),
        metric(
            "anneal.accept_ratio",
            share(
                counter(counters::ANNEAL_ACCEPTED),
                counter(counters::ANNEAL_REJECTED),
            ),
            "ratio",
        ),
        metric("lp.pivots", counter(counters::SIMPLEX_PIVOTS), "count"),
        metric(
            "lp.bnb_nodes",
            counter(counters::BNB_NODES_EXPLORED),
            "count",
        ),
        metric("lp.pivots_per_s", milp.pivots / milp.secs, "1/s"),
        metric("lp.bnb_nodes_per_s", milp.nodes / milp.secs, "1/s"),
        metric(
            "lp.pivot_cap_share",
            pivot_cap_share(
                counter(counters::SIMPLEX_PIVOTS),
                counter(counters::SIMPLEX_SOLVES),
                config.milp_lp_iters,
            ),
            "ratio",
        ),
    ];
    let evaluated = counter(counters::MERGE_CANDIDATES_EVALUATED);
    metrics.push(metric("merge.candidates", evaluated, "count"));
    metrics.push(metric(
        "merge.kept_ratio",
        counter(counters::MERGE_CANDIDATES_KEPT) / evaluated.max(1.0),
        "ratio",
    ));
    // the merge and routing probes start from the traced run's mapping;
    // when that run failed they report NaN, which marks the result wrong
    let (mut merge_rate, mut cached_s, mut direct_s) = (f64::NAN, f64::NAN, f64::NAN);
    let mut routing_differs = false;
    if let Some(nodes) = &traced.nodes {
        let placement = node_placement(&cut, nodes);
        let (merge_s, candidates) = probe(|| merge_probe(inst, &cut, &placement, config));
        merge_rate = candidates as f64 / merge_s;
        let topo = inst.machine.torus();
        let cache = RouteStencilCache::new(topo);
        let warm = cache.route_graph(topo, &cut.g_node, &placement, config.routing);
        let cached;
        (cached_s, cached) =
            probe(|| cache.route_graph(topo, &cut.g_node, &placement, config.routing));
        let direct;
        (direct_s, direct) = probe(|| route_graph(topo, &cut.g_node, &placement, config.routing));
        routing_differs =
            warm.as_slice() != cached.as_slice() || cached.as_slice() != direct.as_slice();
    }
    if routing_differs {
        runner.fail("stencil-cached routing differs from direct routing".into());
    }
    let hits = counter(counters::STENCIL_HITS);
    let applies = hits + counter(counters::STENCIL_MISSES);
    metrics.extend([
        metric("merge.candidates_per_s", merge_rate, "1/s"),
        metric("route.stencil_applies", applies, "count"),
        metric("route.stencil_hit_ratio", hits / applies.max(1.0), "ratio"),
        metric("route.cached_route_graph_s", cached_s, "s"),
        metric("route.direct_route_graph_s", direct_s, "s"),
        metric("obs.trace_overhead_s", traced.wall - map_s, "s"),
        metric("commgraph.graph_build_s", graph_build_s, "s"),
    ]);
    metrics
}

/// `part / (part + rest)`, 0 when both are 0.
fn share(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// Share of simplex solves that stopped at the pivot cap, from the
/// journal's totals. A solve stopped at the cap spends exactly `cap`
/// pivots (both phases share one budget), so at most `pivots / cap` solves
/// can have been capped: exact when all or none were, an upper bound
/// otherwise.
fn pivot_cap_share(pivots: f64, solves: f64, cap: usize) -> f64 {
    if solves == 0.0 || cap == 0 {
        return 0.0;
    }
    ((pivots / cap as f64).floor() / solves).min(1.0)
}

/// Calls `f` until [`PROBE_SECS`] have passed (once, for a call that
/// takes longer); returns the median call's seconds and the last result.
fn probe<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= PROBE_SECS {
            return (median(secs), out);
        }
    }
}

/// The inputs the pipeline derives for the machine's first uniform slice,
/// rebuilt with the same public clustering functions: the node-level
/// graph, the slice, and the slice hierarchy's root cluster graph and cube.
struct SliceCut {
    /// Rank → node-cluster.
    assignment: Vec<Rank>,
    /// The node-level (concentration-contracted) graph.
    g_node: CommGraph,
    slice: SubCube,
    /// Machine dimensions the slice spans.
    active: Vec<usize>,
    root_graph: CommGraph,
    root_cube: Torus,
}

fn cut_first_slice(inst: &Instance, search: bool) -> SliceCut {
    let topo = inst.machine.torus();
    let conc = inst.graph.num_ranks() / topo.num_nodes();
    let conc_level = cluster_level_with(&inst.graph, &inst.grid, conc, search);
    let g_node = conc_level.coarse_graph;
    let slices = inst.machine.uniform_slices();
    let (members, grid): (Vec<Rank>, RankGrid) = if slices.len() == 1 {
        ((0..g_node.num_ranks()).collect(), conc_level.coarse_grid)
    } else {
        let per = g_node.num_ranks() / slices.len() as u32;
        let split = cluster_level(&g_node, &conc_level.coarse_grid, per);
        let members = (0..g_node.num_ranks())
            .filter(|&c| split.assignment[c as usize] == 0)
            .collect();
        let grid = if split.shape.is_empty() {
            RankGrid::near_square(per)
        } else {
            RankGrid::new(&split.shape)
        };
        (members, grid)
    };
    let slice = slices[0].clone();
    let active: Vec<usize> = (0..topo.ndims())
        .filter(|&d| slice.extent().get(d) > 1)
        .collect();
    let branching = 1u32 << active.len();
    let g_slice = g_node.induced(&members);
    let levels = build_hierarchy_with(&g_slice, &grid, 1, branching, branching, search);
    let wraps: Vec<bool> = active
        .iter()
        .map(|&d| topo.wraps(d) && slice.extent().get(d) == topo.dim(d))
        .collect();
    SliceCut {
        assignment: conc_level.assignment,
        g_node,
        slice,
        root_graph: levels[0].coarse_graph.clone(),
        root_cube: Torus::with_wraps(&vec![2u16; active.len()], &wraps),
        active,
    }
}

/// Anneals the root cluster graph as the pipeline does (the workload's
/// proposals and seed, a stencil cache for the cube).
fn anneal_root(cut: &SliceCut, config: &RahtmConfig) -> AnnealResult {
    anneal_map(
        &cut.root_cube,
        &cut.root_graph,
        &AnnealOptions {
            iterations: config.anneal_iters,
            seed: config.seed,
            routing: config.routing,
            stencils: Some(Arc::new(RouteStencilCache::new(&cut.root_cube))),
            ..Default::default()
        },
    )
}

struct MilpProbe {
    secs: f64,
    pivots: f64,
    nodes: f64,
}

/// One Table II solve of the root cluster graph with the workload's node
/// and pivot budgets, warm-started like the pipeline from the annealed
/// `incumbent`, capped at [`MILP_PROBE_SECS`].
fn milp_probe(cut: &SliceCut, config: &RahtmConfig, incumbent: Vec<NodeId>) -> MilpProbe {
    let recorder = Recorder::enabled();
    let t = Instant::now();
    let res = milp_map(
        &cut.root_cube,
        &cut.root_graph,
        &MilpMapOptions {
            enforce_minimal: config.enforce_minimal,
            symmetry_break: config.milp_threads > 1,
            incumbent: Some(incumbent),
            milp: MilpOptions {
                max_nodes: config.milp_node_budget,
                threads: config.milp_threads.max(1),
                lp: SimplexOptions {
                    max_iters: config.milp_lp_iters,
                    deadline: Deadline::after(Duration::from_secs_f64(MILP_PROBE_SECS)),
                    recorder: recorder.clone(),
                    ..Default::default()
                },
                ..Default::default()
            },
        },
    );
    let secs = t.elapsed().as_secs_f64();
    MilpProbe {
        secs,
        pivots: recorder.counter(counters::SIMPLEX_PIVOTS) as f64,
        nodes: res.map_or(0.0, |r| r.nodes as f64),
    }
}

/// Node of every node-cluster under the returned mapping.
fn node_placement(cut: &SliceCut, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut placement = vec![0 as NodeId; cut.g_node.num_ranks() as usize];
    for (rank, &cluster) in cut.assignment.iter().enumerate() {
        placement[cluster as usize] = nodes[rank];
    }
    placement
}

/// One side-4 parent merge at the first slice's origin, its side-2
/// children cut from the returned mapping. Returns candidates evaluated.
fn merge_probe(
    inst: &Instance,
    cut: &SliceCut,
    placement: &[NodeId],
    config: &RahtmConfig,
) -> usize {
    let topo = inst.machine.torus();
    let nd = topo.ndims();
    let origin = cut.slice.origin();
    let extent = |side: u16| {
        let mut e = Coord::new(&vec![1u16; nd]);
        for &d in &cut.active {
            e.set(d, side);
        }
        e
    };
    let parent = extent(4);
    let mut children: Vec<PositionedBlock> = (0..1usize << cut.active.len())
        .map(|bits| {
            let mut o = *origin;
            for (i, &d) in cut.active.iter().enumerate() {
                o.set(d, origin.get(d) + 2 * ((bits >> i) & 1) as u16);
            }
            PositionedBlock {
                block: Block {
                    extent: extent(2),
                    members: Vec::new(),
                },
                origin: o,
            }
        })
        .collect();
    for (cluster, &node) in placement.iter().enumerate() {
        let c = topo.coord(node);
        let inside = (0..nd).all(|d| c.get(d).wrapping_sub(origin.get(d)) < parent.get(d));
        if !inside {
            continue;
        }
        let mut bits = 0usize;
        let mut local = Coord::zero(nd);
        for (i, &d) in cut.active.iter().enumerate() {
            let rel = c.get(d) - origin.get(d);
            bits |= usize::from(rel / 2) << i;
            local.set(d, rel % 2);
        }
        children[bits].block.members.push((cluster as Rank, local));
    }
    merge_blocks(
        topo,
        &cut.g_node,
        &children,
        origin,
        &parent,
        &MergeOptions {
            beam_width: config.beam_width,
            routing: config.routing,
            thread_cap: rahtm_core::cores::share(inst.machine.uniform_slices().len()),
            ..Default::default()
        },
    )
    .candidates_evaluated
}

/// Median of `values` (0 when empty).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// User + system CPU seconds of this process, all threads (Linux
/// `/proc/self/stat`, in USER_HZ = 100 ticks per second).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    if ticks.len() == 2 {
        (ticks[0] + ticks[1]) / 100.0
    } else {
        f64::NAN
    }
}

/// Peak resident set of this process in MiB (`VmHWM`, Linux).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs from (`unknown` outside
/// a git work tree), read from `.git` without running git.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
