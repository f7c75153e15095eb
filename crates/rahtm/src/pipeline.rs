//! The full RAHTM pipeline (§III): clustering → hierarchical MILP →
//! orientation merge, with non-uniform-machine slicing and symmetric
//! sub-problem caching.
//!
//! The driver mirrors the paper's workflow end to end:
//!
//! 1. Cluster the rank grid by the concentration factor so application
//!    clusters and machine nodes correspond 1:1.
//! 2. Slice a non-uniform torus into uniform sub-tori (Mira's arity-2 E
//!    dimension → two 4×4×4×4 slices) and split the node-cluster graph
//!    across slices with another tiling.
//! 3. Per slice, build the 2^n-ary clustering hierarchy, then map each
//!    level's cluster graphs onto 2-ary n-cubes top-down with the Table II
//!    MILP (simulated-annealing incumbent, deterministic node budget,
//!    symmetric-sub-problem cache — the paper's "copy to neighboring nodes
//!    with identical local communication graphs").
//! 4. Merge solved blocks bottom-up with the orientation beam search, then
//!    merge the slices themselves (orientation search restricted to flips
//!    for these large blocks).
//!
//! Wall-clock time is measured only here, at the driver, for the §V-B
//! optimization-time report; all algorithms below are deterministic.

use crate::anneal::{anneal_map, AnnealOptions};
use crate::block::Block;
use crate::cluster::{build_hierarchy_with, cluster_level, cluster_level_with, LevelClustering};
use crate::error::{panic_message, RahtmError};
use crate::fault::{Fault, FaultPlan};
use crate::mapping::TaskMapping;
use crate::merge::{merge_blocks, MergeOptions, PositionedBlock};
use crate::milp::{milp_map, MilpMapOptions};
use rahtm_commgraph::{CommGraph, Rank, RankGrid};
use rahtm_lp::{Deadline, MilpOptions, SimplexOptions};
use rahtm_obs::{counters, gauges, spans, Journal, Recorder};
use rahtm_routing::{RouteStencilCache, Routing};
use rahtm_topology::{BgqMachine, Coord, NodeId, SubCube, Torus};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct RahtmConfig {
    /// Merge-phase beam width `N` (paper: 64).
    pub beam_width: usize,
    /// Routing model for all MCL scoring (paper: MAR approximation).
    pub routing: Routing,
    /// Enforce Table II's C3 in the MILPs (see `milp` module docs).
    pub enforce_minimal: bool,
    /// Use the MILP at all (false = simulated annealing only, the cheap
    /// ablation).
    pub use_milp: bool,
    /// Branch-and-bound node budget per sub-problem.
    pub milp_node_budget: usize,
    /// Simplex pivot budget per LP.
    pub milp_lp_iters: usize,
    /// Branch-and-bound worker threads per Table II solve (default 1).
    /// `0` means auto: each slice worker gets an even share of the cores
    /// ([`crate::cores::share`]), so slice-level and node-level
    /// parallelism never oversubscribe the machine between them. The
    /// count sets only the number of workers: every count solves the same
    /// formulation, symmetry breaking included (`rahtm_lp::milp` states
    /// when the answers are bit-identical).
    pub milp_threads: usize,
    /// Simulated-annealing proposals per sub-problem (incumbent and/or
    /// fallback).
    pub anneal_iters: usize,
    /// Cache solutions of structurally identical sub-problems.
    pub cache_subproblems: bool,
    /// Search tile shapes in phase 1 (ablation knob; `false` takes the
    /// first valid shape instead of the minimum-cut one).
    pub tiling_search: bool,
    /// Greedy pairwise-swap polish proposals applied to the final
    /// placement (§VI future-work refinement; 0 = off, the paper's
    /// algorithm).
    pub polish_swaps: usize,
    /// RNG seed for annealing.
    pub seed: u64,
    /// Wall-clock budget for the whole run (`None` = unlimited, fully
    /// deterministic). When set, a [`Deadline`] is threaded through every
    /// solver loop; phases that run out of time take the degradation
    /// ladder (MILP → annealing incumbent → greedy placement, beam merge →
    /// identity composition) and the downgrades are recorded in
    /// [`PhaseStats::degradation`]. A valid mapping is returned even for a
    /// zero budget.
    pub time_limit: Option<Duration>,
    /// Deterministic fault injection for tests (`None` in production).
    /// See [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RahtmConfig {
    fn default() -> Self {
        RahtmConfig {
            beam_width: 64,
            routing: Routing::UniformMinimal,
            enforce_minimal: false,
            use_milp: true,
            milp_node_budget: 60,
            milp_lp_iters: 50_000,
            milp_threads: 1,
            anneal_iters: 20_000,
            cache_subproblems: true,
            tiling_search: true,
            polish_swaps: 0,
            seed: 0xAB1E,
            time_limit: None,
            fault_plan: None,
        }
    }
}

impl RahtmConfig {
    /// A cheap configuration for tests and quick experiments: annealing
    /// only, narrow beam.
    pub fn fast() -> Self {
        RahtmConfig {
            beam_width: 8,
            use_milp: false,
            anneal_iters: 4_000,
            ..Default::default()
        }
    }
}

/// Per-ladder-level accounting of how sub-problems were actually solved,
/// and every fallback the run took. A report with `total_downgrades() == 0`
/// means the pipeline delivered exactly what the configuration asked for;
/// anything else tells the operator which quality was traded for meeting
/// the time budget (or for surviving a fault). Derived from the run's
/// journal by [`PhaseStats::from_journal`].
#[derive(Clone, Debug, Default)]
pub struct DegradationReport {
    /// Sub-problems answered by the Table II MILP within budget.
    pub milp: usize,
    /// Sub-problems answered by the simulated-annealing incumbent (the
    /// configured path when `use_milp` is off; a downgrade otherwise).
    pub anneal: usize,
    /// Sub-problems answered by the greedy bottom rung (deadline expired
    /// before annealing could run).
    pub greedy: usize,
    /// Solves that landed below the configured top level.
    pub downgraded: usize,
    /// Merges that stopped their orientation search on deadline expiry
    /// and composed remaining children with identity orientation.
    pub identity_merges: usize,
    /// Slice workers that panicked and whose slice was re-solved
    /// sequentially on the fallback path.
    pub salvaged_workers: usize,
    /// One human-readable line per degradation event, sorted (slices run
    /// concurrently, so occurrence order is not reproducible).
    pub events: Vec<String>,
}

impl DegradationReport {
    /// Total fallbacks of any kind taken during the run.
    pub fn total_downgrades(&self) -> usize {
        self.downgraded + self.identity_merges + self.salvaged_workers
    }
}

/// Per-phase instrumentation (the §V-B optimization-time report): a
/// read-only view of the run's journal, built once at the end of
/// [`RahtmMapper::run`] by [`PhaseStats::from_journal`]. Counts cover all
/// work performed, including solves finished by a slice worker that later
/// panicked. Phase times add across concurrent slices (total work, not
/// elapsed time).
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Phase 1 wall time (seconds).
    pub clustering_secs: f64,
    /// Phase 2 wall time (seconds).
    pub milp_secs: f64,
    /// Phase 3 wall time (seconds), slice merge included.
    pub merge_secs: f64,
    /// Sub-problem solves actually performed.
    pub milp_solves: usize,
    /// Sub-problems answered from the symmetry cache.
    pub milp_cache_hits: usize,
    /// Total branch-and-bound nodes across solves.
    pub milp_nodes: usize,
    /// Placement columns eliminated by hyperoctahedral symmetry breaking
    /// (vertex pinning and orbital fixing) across all Table II solves.
    pub milp_symmetry_pruned: usize,
    /// Orientation candidates evaluated in phase 3.
    pub merge_candidates: usize,
    /// Which ladder level answered each sub-problem, and every fallback
    /// taken (time budget or fault).
    pub degradation: DegradationReport,
}

impl PhaseStats {
    /// The stats view of a pipeline journal: phase times from the
    /// `pipeline.*` spans, counts from the solver, cache and `degrade.*`
    /// counters, and the journal's event lines.
    pub fn from_journal(j: &Journal) -> Self {
        let count = |name: &str| j.counter(name).unwrap_or(0) as usize;
        let secs = |name: &str| j.span(name).map_or(0.0, |s| s.secs);
        PhaseStats {
            clustering_secs: secs(spans::CLUSTERING),
            milp_secs: secs(spans::MILP),
            merge_secs: secs(spans::MERGE) + secs(spans::MERGE_SLICES),
            milp_solves: count(counters::SUBPROBLEMS_SOLVED),
            milp_cache_hits: count(counters::SUB_CACHE_HITS),
            milp_nodes: count(counters::BNB_NODES_EXPLORED),
            milp_symmetry_pruned: count(counters::MILP_SYMMETRY_PRUNED),
            merge_candidates: count(counters::MERGE_CANDIDATES_EVALUATED),
            degradation: DegradationReport {
                milp: count(counters::DEGRADE_MILP),
                anneal: count(counters::DEGRADE_ANNEAL),
                greedy: count(counters::DEGRADE_GREEDY),
                downgraded: count(counters::DEGRADE_DOWNGRADED),
                identity_merges: count(counters::DEGRADE_IDENTITY_MERGES),
                salvaged_workers: count(counters::DEGRADE_SALVAGED_WORKERS),
                events: j.events.clone(),
            },
        }
    }
}

/// Result of a pipeline run.
#[derive(Clone, Debug)]
pub struct RahtmResult {
    /// The computed mapping.
    pub mapping: TaskMapping,
    /// Predicted MCL of the node-level traffic under the configured
    /// routing model.
    pub predicted_mcl: f64,
    /// Phase instrumentation, derived from this run's journal.
    pub stats: PhaseStats,
    /// This run's journal (`Some` only when the mapper's
    /// [`RahtmMapper::recorder`] is live): spans, counters, gauges and
    /// degradation events of this run alone, even when the caller reuses
    /// one recorder across runs.
    pub journal: Option<Journal>,
}

/// The RAHTM mapper.
#[derive(Clone, Debug, Default)]
pub struct RahtmMapper {
    /// Configuration.
    pub config: RahtmConfig,
    /// Export target for run journals. Every run records into its own
    /// live recorder (its only record, from which [`RahtmResult::stats`]
    /// is derived); when this one is enabled, the run's journal is added
    /// to it and returned in [`RahtmResult::journal`]. Disabled by default.
    pub recorder: Recorder,
}

impl RahtmMapper {
    /// Creates a mapper with the given configuration (tracing disabled).
    pub fn new(config: RahtmConfig) -> Self {
        RahtmMapper {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a trace recorder; pass [`Recorder::enabled`] to collect a
    /// [`Journal`] in [`RahtmResult::journal`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Maps `graph`'s ranks onto `machine`. `grid` is the application's
    /// logical rank grid; `None` uses a near-square 2-D grid.
    ///
    /// Convenience wrapper over [`RahtmMapper::run`] for callers that
    /// treat any failure as fatal (examples, the experiment harness).
    ///
    /// # Panics
    /// Panics on any [`RahtmError`] — prefer [`RahtmMapper::run`] in code
    /// that must not crash.
    pub fn map(
        &self,
        machine: &BgqMachine,
        graph: &CommGraph,
        grid: Option<RankGrid>,
    ) -> RahtmResult {
        match self.run(machine, graph, grid) {
            Ok(res) => res,
            Err(e) => panic!("RAHTM pipeline failed: {e}"),
        }
    }

    /// Checks that `(machine, graph, grid)` form a mappable instance,
    /// reporting **every** problem found in one
    /// [`RahtmError::InvalidInput`] rather than stopping at the first.
    pub fn validate(
        &self,
        machine: &BgqMachine,
        graph: &CommGraph,
        grid: Option<&RankGrid>,
    ) -> Result<(), RahtmError> {
        let topo = machine.torus();
        let r = graph.num_ranks();
        let m = topo.num_nodes();
        let mut problems = Vec::new();
        if r == 0 {
            problems.push("workload has zero ranks".to_string());
        } else if r < m {
            problems.push(format!(
                "{r} ranks cannot fill {m} nodes (fewer ranks than nodes)"
            ));
        } else if !r.is_multiple_of(m) {
            problems.push(format!(
                "{r} ranks do not fill {m} nodes uniformly (not a multiple)"
            ));
        } else {
            let conc = r / m;
            if conc > machine.concentration() {
                problems.push(format!(
                    "needs concentration {conc} > machine capacity {} cores/node",
                    machine.concentration()
                ));
            }
        }
        if let Some(g) = grid {
            if g.num_ranks() != r {
                problems.push(format!(
                    "grid {:?} covers {} ranks but the workload has {r}",
                    g.dims(),
                    g.num_ranks()
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(RahtmError::invalid(problems))
        }
    }

    /// Runs the pipeline: always a valid mapping or a typed error, never a
    /// panic, never an unbounded run (set [`RahtmConfig::time_limit`]).
    ///
    /// Solver-level trouble — a timed-out or infeasible MILP, an expired
    /// merge budget, even a panicking slice worker — is absorbed by the
    /// degradation ladder and recorded in
    /// [`PhaseStats::degradation`]; only unmappable inputs
    /// ([`RahtmError::InvalidInput`]), a twice-panicking slice
    /// ([`RahtmError::WorkerPanic`]), or a broken internal invariant
    /// ([`RahtmError::Internal`]) surface as errors.
    ///
    /// # Errors
    /// See above; no other variant is returned from this entry point.
    pub fn run(
        &self,
        machine: &BgqMachine,
        graph: &CommGraph,
        grid: Option<RankGrid>,
    ) -> Result<RahtmResult, RahtmError> {
        self.validate(machine, graph, grid.as_ref())?;
        let cfg = &self.config;
        let topo = machine.torus();
        let r = graph.num_ranks();
        let m = topo.num_nodes();
        let conc = r / m;
        let grid = grid.unwrap_or_else(|| RankGrid::near_square(r));
        let deadline = match cfg.time_limit {
            Some(budget) => Deadline::after(budget),
            None => Deadline::never(),
        };
        let recorder = Recorder::enabled();
        let t_run = Instant::now();

        // ---- Phase 1a: concentration clustering ----
        let t0 = Instant::now();
        let conc_level = cluster_level_with(graph, &grid, conc, cfg.tiling_search);
        let g_node = conc_level.coarse_graph.clone();
        let node_grid = conc_level.coarse_grid.clone();

        // ---- Slicing ----
        let slices = machine.uniform_slices();
        let s = slices.len() as u32;
        let (slice_members, slice_grids) = split_into_slices(&g_node, &node_grid, s);
        recorder.record_span_secs(spans::CLUSTERING, t0.elapsed().as_secs_f64());

        // ---- Per-slice phases 2+3 (slices are independent; run them on
        // crossbeam scoped threads sharing the sub-problem cache) ----
        // Core budget: slice workers split the machine evenly, and each
        // slice's merge pool and branch-and-bound workers live inside that
        // share — the three layers of parallelism never multiply.
        let ctx = RunContext {
            cfg,
            machine,
            g_node: &g_node,
            sub_cache: Mutex::new(HashMap::new()),
            merge_cache: Mutex::new(HashMap::new()),
            // One stencil cache for the machine topology serves every
            // merge, the polish pass, and the final MCL prediction.
            machine_stencils: Arc::new(RouteStencilCache::new(topo)),
            deadline,
            core_share: crate::cores::share(slices.len()),
            milp_threads: crate::cores::resolve(cfg.milp_threads, slices.len()),
            recorder,
        };
        let rec = &ctx.recorder;
        type SliceOutcome = Result<PositionedBlock, Box<dyn std::any::Any + Send + 'static>>;
        let slice_results: Vec<SliceOutcome> = match crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..slices.len())
                .map(|si| {
                    let ctx = &ctx;
                    let (slice, members) = (&slices[si], &slice_members[si]);
                    let sgrid = &slice_grids[si];
                    scope.spawn(move |_| ctx.solve_slice(slice, members, sgrid))
                })
                .collect();
            // join() captures worker panics as Err payloads instead of
            // taking the whole run down; salvage happens below
            handles.into_iter().map(|h| h.join()).collect()
        }) {
            Ok(v) => v,
            Err(p) => {
                return Err(RahtmError::internal(format!(
                    "slice scope panicked: {}",
                    panic_message(p.as_ref())
                )))
            }
        };
        let mut slice_blocks: Vec<PositionedBlock> = Vec::with_capacity(slices.len());
        for (si, outcome) in slice_results.into_iter().enumerate() {
            let block = match outcome {
                Ok(block) => block,
                Err(payload) => {
                    // Panic isolation: the other slices' work is already
                    // salvaged above; re-solve only the failed slice,
                    // sequentially, on the fallback path. A second panic
                    // becomes a typed error.
                    let msg = panic_message(payload.as_ref());
                    rec.incr(counters::DEGRADE_SALVAGED_WORKERS);
                    rec.event(format!(
                        "slice {si}: worker panicked ({msg}); re-solved sequentially"
                    ));
                    catch_unwind(AssertUnwindSafe(|| {
                        ctx.solve_slice(&slices[si], &slice_members[si], &slice_grids[si])
                    }))
                    .map_err(|p2| RahtmError::WorkerPanic {
                        slice: si,
                        message: panic_message(p2.as_ref()),
                    })?
                }
            };
            slice_blocks.push(block);
        }

        // ---- Final slice merge ----
        let t3 = Instant::now();
        let whole = SubCube::whole(topo);
        let final_block = match slice_blocks.len() {
            0 => return Err(RahtmError::internal("no slice produced a block")),
            1 => match slice_blocks.pop() {
                Some(b) => b.block,
                None => return Err(RahtmError::internal("slice block vanished")),
            },
            _ => {
                let res = merge_blocks(
                    topo,
                    &g_node,
                    &slice_blocks,
                    whole.origin(),
                    whole.extent(),
                    &MergeOptions {
                        beam_width: cfg.beam_width,
                        routing: cfg.routing,
                        deadline,
                        recorder: rec.clone(),
                        stencils: Some(Arc::clone(&ctx.machine_stencils)),
                        // slice blocks exceed full_group_member_limit, so the
                        // search automatically restricts to axis flips
                        ..Default::default()
                    },
                );
                rec.gauge(gauges::MERGE_MCL_SLICES, res.mcl);
                if res.deadline_hit {
                    rec.event("final slice merge: deadline hit, identity composition".to_string());
                }
                res.block
            }
        };
        rec.record_span_secs(spans::MERGE_SLICES, t3.elapsed().as_secs_f64());

        // ---- Expand to a process mapping ----
        let mut node_of_cluster = vec![u32::MAX; g_node.num_ranks() as usize];
        for &(cluster, ref coord) in final_block.members.iter() {
            node_of_cluster[cluster as usize] = topo.node_id(coord);
        }
        if node_of_cluster.contains(&u32::MAX) {
            return Err(RahtmError::internal(
                "final merged block left node-clusters unplaced",
            ));
        }
        // optional §VI polish pass on the node-level placement
        let node_of_cluster = if cfg.polish_swaps > 0 {
            let tp = Instant::now();
            let polished = crate::refine::polish_placement_with(
                topo,
                &g_node,
                &node_of_cluster,
                cfg.routing,
                cfg.polish_swaps,
                cfg.seed,
                &ctx.machine_stencils,
            )
            .placement;
            rec.record_span_secs(spans::POLISH, tp.elapsed().as_secs_f64());
            polished
        } else {
            node_of_cluster
        };
        let node_of_rank: Vec<NodeId> = conc_level
            .assignment
            .iter()
            .map(|&cl| node_of_cluster[cl as usize])
            .collect();
        let mapping = TaskMapping::from_nodes(machine, node_of_rank);
        let predicted_mcl = ctx
            .machine_stencils
            .route_graph(topo, &g_node, &node_of_cluster, cfg.routing)
            .mcl(topo);
        rec.gauge(gauges::PREDICTED_MCL, predicted_mcl);
        ctx.machine_stencils.report(rec);
        rec.record_span_secs(spans::PIPELINE, t_run.elapsed().as_secs_f64());
        let journal = rec.journal();
        self.recorder.absorb(&journal);
        Ok(RahtmResult {
            mapping,
            predicted_mcl,
            stats: PhaseStats::from_journal(&journal),
            journal: self.recorder.is_enabled().then_some(journal),
        })
    }
}

/// One run's shared state: the inputs, both solution caches, the machine
/// stencils, the time and core budgets, and the run's recorder. Slice
/// workers borrow it concurrently.
struct RunContext<'a> {
    cfg: &'a RahtmConfig,
    machine: &'a BgqMachine,
    /// The node-cluster graph (one cluster per machine node).
    g_node: &'a CommGraph,
    sub_cache: Mutex<HashMap<SubKey, Vec<NodeId>>>,
    merge_cache: Mutex<HashMap<MergeKey, Vec<Coord>>>,
    machine_stencils: Arc<RouteStencilCache>,
    deadline: Deadline,
    /// Cores available to one slice worker's merge pool.
    core_share: usize,
    milp_threads: usize,
    recorder: Recorder,
}

impl RunContext<'_> {
    /// Phases 2 and 3 for one uniform slice; returns the slice's solved
    /// block positioned at the slice origin.
    fn solve_slice(&self, slice: &SubCube, members: &[Rank], sgrid: &RankGrid) -> PositionedBlock {
        let (cfg, rec, g_node) = (self.cfg, &self.recorder, self.g_node);
        let g_slice = g_node.induced(members);
        let topo = self.machine.torus();
        let nd = topo.ndims();
        let active: Vec<usize> = (0..nd).filter(|&d| slice.extent().get(d) > 1).collect();
        let n_eff = active.len();
        let side = if n_eff == 0 {
            1u16
        } else {
            slice.extent().get(active[0])
        };
        for &d in &active {
            assert_eq!(slice.extent().get(d), side, "slice must be uniform");
        }
        if g_slice.num_ranks() == 1 || n_eff == 0 {
            // single node: trivial block
            return PositionedBlock {
                block: Block::single(nd, members[0]),
                origin: *slice.origin(),
            };
        }
        let branching = 1u32 << n_eff;
        assert!(
            g_slice.num_ranks() == (side as u32).pow(n_eff as u32),
            "slice cluster count mismatch"
        );

        // ---- Phase 1b: hierarchy within the slice ----
        let t0 = Instant::now();
        let levels = build_hierarchy_with(&g_slice, sgrid, 1, branching, branching, cfg.tiling_search);
        rec.record_span_secs(spans::CLUSTERING, t0.elapsed().as_secs_f64());
        for (i, lvl) in levels.iter().enumerate() {
            rec.gauge(
                &gauges::cluster_level_size(i),
                lvl.coarse_graph.num_ranks() as f64,
            );
        }

        // ---- Phase 2: top-down MILP pinning ----
        let t1 = Instant::now();
        // root cube: double-wide where the slice spans a wrapped machine dim
        let root_wraps: Vec<bool> = active
            .iter()
            .map(|&d| topo.wraps(d) && slice.extent().get(d) == topo.dim(d))
            .collect();
        let root_cube = Torus::with_wraps(&vec![2u16; n_eff], &root_wraps);
        let leaf_cube = Torus::two_ary_cube(n_eff);
        let root_stencils = Arc::new(RouteStencilCache::new(&root_cube));
        let leaf_stencils = Arc::new(RouteStencilCache::new(&leaf_cube));

        // pin[i][c]: block coordinate (machine dims, slice-relative units of
        // level-i blocks) of cluster c in levels[i].coarse_graph
        let d_levels = levels.len();
        let mut pin: Vec<Vec<Coord>> = Vec::with_capacity(d_levels);
        // root solve
        let root_graph = &levels[0].coarse_graph;
        let root_place = self.solve_subproblem(&root_cube, root_graph, &root_stencils);
        pin.push(
            root_place
                .iter()
                .map(|&v| embed_vertex(&root_cube, v, &active, nd))
                .collect(),
        );
        for i in 0..d_levels - 1 {
            let parent_graph = &levels[i].coarse_graph;
            let child_graph = &levels[i + 1].coarse_graph;
            let assign = &levels[i].assignment; // child -> parent
            let mut pin_next = vec![Coord::zero(nd); child_graph.num_ranks() as usize];
            // children of each parent, ascending, from one pass over `assign`
            let mut children_of: Vec<Vec<Rank>> =
                vec![Vec::new(); parent_graph.num_ranks() as usize];
            for (c, &parent) in assign.iter().enumerate() {
                children_of[parent as usize].push(c as Rank);
            }
            for (parent, children) in children_of.iter().enumerate() {
                assert_eq!(children.len(), branching as usize);
                let induced = child_graph.induced(children);
                let place = self.solve_subproblem(&leaf_cube, &induced, &leaf_stencils);
                for (li, &child) in children.iter().enumerate() {
                    let v = embed_vertex(&leaf_cube, place[li], &active, nd);
                    // inactive dims stay 0: both terms are 0 there
                    let mut c = Coord::zero(nd);
                    for d in 0..nd {
                        c.set(d, pin[i][parent].get(d) * 2 + v.get(d));
                    }
                    pin_next[child as usize] = c;
                }
            }
            pin.push(pin_next);
        }
        rec.record_span_secs(spans::MILP, t1.elapsed().as_secs_f64());

        // pin.last(): slice-relative node coordinates of every slice
        // cluster (local ids): 0..side-1 on active dims, 0 on inactive ones.

        // ---- Phase 3: bottom-up merge ----
        let t2 = Instant::now();
        // pin is never empty: the root placement is pushed unconditionally
        let finest = match pin.last() {
            Some(f) => f,
            None => unreachable!("hierarchy produced no levels"),
        };
        let mut blocks: Vec<PositionedBlock> = finest
            .iter()
            .enumerate()
            .map(|(local, coord)| {
                let mut origin = *slice.origin();
                for d in 0..nd {
                    origin.set(d, origin.get(d) + coord.get(d));
                }
                PositionedBlock {
                    block: Block::single(nd, members[local]),
                    origin,
                }
            })
            .collect();
        let mut sb = 2u16;
        while sb <= side {
            let t_level = Instant::now();
            // group blocks into parent boxes of side sb on active dims
            let mut groups: HashMap<Coord, Vec<PositionedBlock>> = HashMap::new();
            for b in blocks.drain(..) {
                let mut key = *slice.origin();
                for &d in &active {
                    let rel = b.origin.get(d) - slice.origin().get(d);
                    key.set(d, slice.origin().get(d) + (rel / sb) * sb);
                }
                groups.entry(key).or_default().push(b);
            }
            let mut parent_extent = Coord::zero(nd);
            for d in 0..nd {
                parent_extent.set(d, 1);
            }
            for &d in &active {
                parent_extent.set(d, sb);
            }
            let mut new_blocks: Vec<PositionedBlock> = Vec::with_capacity(groups.len());
            let mut grouped: Vec<(Coord, Vec<PositionedBlock>)> = groups.drain().collect();
            grouped.sort_by_key(|(c, _)| c.as_slice().to_vec());
            // Paper §III-D: a merged parent's mapping "can be copied to the
            // neighboring nodes in the same level as long as they have
            // identical local communication graphs". The torus is
            // vertex-transitive, so translated parents with identical
            // relative structure share one merge solve (across slices too).
            for (key, mut children) in grouped {
                children.sort_by_key(|c| c.origin.as_slice().to_vec());
                let (mkey, canon_ids) = merge_key(g_node, &children, &key, &parent_extent);
                if cfg.cache_subproblems {
                    if let Some(coords) = self.merge_cache.lock().get(&mkey).cloned().as_ref() {
                        rec.incr(counters::MERGE_CACHE_HITS);
                        let members = canon_ids
                            .iter()
                            .zip(coords)
                            .map(|(&id, &c)| (id, c))
                            .collect();
                        new_blocks.push(PositionedBlock {
                            block: Block {
                                extent: parent_extent,
                                members,
                            },
                            origin: key,
                        });
                        continue;
                    }
                }
                rec.incr(counters::MERGE_CACHE_MISSES);
                let res = merge_blocks(
                    topo,
                    g_node,
                    &children,
                    &key,
                    &parent_extent,
                    &MergeOptions {
                        beam_width: cfg.beam_width,
                        routing: cfg.routing,
                        deadline: self.deadline,
                        recorder: rec.clone(),
                        stencils: Some(Arc::clone(&self.machine_stencils)),
                        thread_cap: self.core_share,
                        ..Default::default()
                    },
                );
                rec.gauge(&gauges::merge_mcl(sb), res.mcl);
                if res.deadline_hit {
                    rec.event(format!(
                        "merge of {} blocks (side {sb}): deadline hit, identity composition",
                        children.len()
                    ));
                }
                if cfg.cache_subproblems {
                    // store coords in canonical member order
                    let coord_of: HashMap<Rank, Coord> =
                        res.block.members.iter().cloned().collect();
                    let coords: Vec<Coord> =
                        canon_ids.iter().map(|id| coord_of[id]).collect();
                    self.merge_cache.lock().insert(mkey, coords);
                }
                new_blocks.push(PositionedBlock {
                    block: res.block,
                    origin: key,
                });
            }
            blocks = new_blocks;
            rec.record_span_secs(&spans::merge_side(sb), t_level.elapsed().as_secs_f64());
            sb *= 2;
        }
        rec.record_span_secs(spans::MERGE, t2.elapsed().as_secs_f64());
        // invariant: a panic here is caught by the slice-salvage layer and
        // surfaces as RahtmError::WorkerPanic, never a crash of run()
        match blocks.pop() {
            Some(block) if blocks.is_empty() => block,
            _ => panic!("slice must merge to a single block"),
        }
    }

    /// Solves one cluster-graph → cube sub-problem through the degradation
    /// ladder, memoized on the graph's exact structure:
    ///
    /// 1. **MILP** — Table II with the SA incumbent (when `use_milp`);
    ///    a timed-out or infeasible solve falls through to…
    /// 2. **Annealing** — the incumbent itself (always computed first, so
    ///    this rung is free); an already-expired deadline falls through to…
    /// 3. **Greedy** — a deterministic volume-ordered placement that costs
    ///    one sort.
    ///
    /// The answering rung is counted under `degrade.rung.*`; every rung
    /// below the configured top level is also a downgrade with an event
    /// line. The ladder always produces a valid placement.
    fn solve_subproblem(
        &self,
        cube: &Torus,
        graph: &CommGraph,
        stencils: &Arc<RouteStencilCache>,
    ) -> Vec<NodeId> {
        let (cfg, rec) = (self.cfg, &self.recorder);
        let key = sub_key(cube, graph);
        if cfg.cache_subproblems {
            if let Some(hit) = self.sub_cache.lock().get(&key) {
                rec.incr(counters::SUB_CACHE_HITS);
                return hit.clone();
            }
        }
        rec.incr(counters::SUB_CACHE_MISSES);
        // fault injection counts actual solves (cache hits do no work)
        let fault = cfg.fault_plan.as_ref().and_then(|p| p.check());
        if fault == Some(Fault::WorkerPanic) {
            panic!(
                "injected fault: worker panic at sub-problem {} ({} clusters)",
                rec.counter(counters::SUBPROBLEMS_SOLVED),
                graph.num_ranks()
            );
        }
        rec.incr(counters::SUBPROBLEMS_SOLVED);
        let clusters = graph.num_ranks();
        let downgrade = |rung: &str, why: &str| {
            rec.incr(rung);
            rec.incr(counters::DEGRADE_DOWNGRADED);
            rec.event(format!("sub-problem ({clusters} clusters): {why}"));
        };

        // Bottom rung: no time even for annealing.
        if self.deadline.is_expired() {
            downgrade(counters::DEGRADE_GREEDY, "deadline expired, greedy placement");
            let placement = greedy_place(cube, graph);
            if cfg.cache_subproblems {
                self.sub_cache.lock().insert(key, placement.clone());
            }
            return placement;
        }

        // Middle rung (and the MILP's warm incumbent): deadline-aware SA.
        let sa = anneal_map(
            cube,
            graph,
            &AnnealOptions {
                iterations: cfg.anneal_iters,
                seed: cfg.seed,
                routing: cfg.routing,
                deadline: self.deadline,
                recorder: rec.clone(),
                stencils: Some(Arc::clone(stencils)),
                ..Default::default()
            },
        );
        let placement = if !cfg.use_milp {
            // annealing IS the configured top level here — not a downgrade
            rec.incr(counters::DEGRADE_ANNEAL);
            sa.placement
        } else if fault == Some(Fault::Infeasible) {
            downgrade(counters::DEGRADE_ANNEAL, "injected infeasibility, SA incumbent");
            sa.placement
        } else {
            // Top rung. An injected timeout hands the MILP an already
            // expired deadline, exercising the real timeout path.
            let milp_deadline = if fault == Some(Fault::SolverTimeout) {
                Deadline::after(Duration::ZERO)
            } else {
                self.deadline
            };
            let milp_res = milp_map(
                cube,
                graph,
                &MilpMapOptions {
                    enforce_minimal: cfg.enforce_minimal,
                    incumbent: Some(sa.placement.clone()),
                    milp: MilpOptions {
                        max_nodes: cfg.milp_node_budget,
                        threads: self.milp_threads,
                        lp: SimplexOptions {
                            max_iters: cfg.milp_lp_iters,
                            deadline: milp_deadline,
                            recorder: rec.clone(),
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            match milp_res {
                Ok(res) => {
                    if res.deadline_hit {
                        downgrade(counters::DEGRADE_ANNEAL, "MILP deadline hit, kept incumbent");
                    } else {
                        rec.incr(counters::DEGRADE_MILP);
                    }
                    // Keep whichever is better under the oblivious scoring
                    // model (the MILP optimizes the LP split, SA the
                    // uniform split).
                    let milp_mcl = stencils
                        .route_graph(cube, graph, &res.placement, cfg.routing)
                        .mcl(cube);
                    if milp_mcl <= sa.mcl + 1e-9 {
                        res.placement
                    } else {
                        sa.placement
                    }
                }
                Err(e) => {
                    let why = format!("MILP failed ({e}), SA incumbent");
                    downgrade(counters::DEGRADE_ANNEAL, &why);
                    sa.placement
                }
            }
        };
        if cfg.cache_subproblems {
            self.sub_cache.lock().insert(key, placement.clone());
        }
        placement
    }
}

/// The degradation ladder's bottom rung: a deterministic placement that
/// costs one sort. Clusters in decreasing traffic volume take vertices in
/// node-id order (node-id neighbors are coordinate-adjacent on the cube,
/// giving heavy clusters crude locality). Never examines the clock.
fn greedy_place(cube: &Torus, graph: &CommGraph) -> Vec<NodeId> {
    let a = graph.num_ranks() as usize;
    debug_assert!(a <= cube.num_nodes() as usize);
    let vols = graph.rank_volumes();
    let mut order: Vec<usize> = (0..a).collect();
    order.sort_by(|&x, &y| vols[y].total_cmp(&vols[x]).then(x.cmp(&y)));
    let mut placement = vec![0 as NodeId; a];
    for (vertex, &cluster) in order.iter().enumerate() {
        placement[cluster] = vertex as NodeId;
    }
    placement
}

/// Embeds a cube vertex (n_eff dims) into machine dimensionality.
fn embed_vertex(cube: &Torus, v: NodeId, active: &[usize], nd: usize) -> Coord {
    let cv = cube.coord(v);
    let mut out = Coord::zero(nd);
    for (i, &d) in active.iter().enumerate() {
        out.set(d, cv.get(i));
    }
    out
}

/// Splits the node-cluster graph into `s` slice groups with a tiling.
/// Returns per-slice member lists (global cluster ids, local-lexicographic
/// order) and per-slice logical grids.
fn split_into_slices(
    g_node: &CommGraph,
    node_grid: &RankGrid,
    s: u32,
) -> (Vec<Vec<Rank>>, Vec<RankGrid>) {
    let m = g_node.num_ranks();
    if s == 1 {
        return (vec![(0..m).collect()], vec![node_grid.clone()]);
    }
    assert!(m.is_multiple_of(s));
    let per = m / s;
    let lvl: LevelClustering = cluster_level(g_node, node_grid, per);
    let mut members: Vec<Vec<Rank>> = vec![Vec::new(); s as usize];
    for (rank, &tile) in lvl.assignment.iter().enumerate() {
        members[tile as usize].push(rank as Rank);
    }
    let sub_grid = if lvl.shape.is_empty() {
        RankGrid::near_square(per)
    } else {
        RankGrid::new(&lvl.shape)
    };
    let grids = vec![sub_grid; s as usize];
    (members, grids)
}

/// Merge cache key: parent extent + per-child relative structure + the
/// induced flow graph over canonically relabeled members. Two parents with
/// equal keys differ only by a torus translation, so the merged
/// orientation solution transfers verbatim.
type MergeKey = (
    Vec<u16>,                       // parent extent
    Vec<(Vec<u16>, Vec<u16>, Vec<Vec<u16>>)>, // per child: rel origin, extent, member coords
    Vec<(u32, u32, u64)>,           // canonical flows
);

/// Builds the translation-invariant key of a parent merge and the member
/// ids in canonical order (children by origin, members by local coord).
fn merge_key(
    g_node: &CommGraph,
    children: &[PositionedBlock],
    parent_origin: &Coord,
    parent_extent: &Coord,
) -> (MergeKey, Vec<Rank>) {
    let mut canon_ids: Vec<Rank> = Vec::new();
    let mut child_desc = Vec::with_capacity(children.len());
    for c in children {
        let rel: Vec<u16> = (0..parent_origin.ndims())
            .map(|d| c.origin.get(d) - parent_origin.get(d))
            .collect();
        let mut members = c.block.members.clone();
        members.sort_by_key(|(_, coord)| coord.as_slice().to_vec());
        let coords: Vec<Vec<u16>> = members
            .iter()
            .map(|(_, coord)| coord.as_slice().to_vec())
            .collect();
        for &(id, _) in &members {
            canon_ids.push(id);
        }
        child_desc.push((rel, c.block.extent.as_slice().to_vec(), coords));
    }
    let canon_index: HashMap<Rank, u32> = canon_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    let mut flows: Vec<(u32, u32, u64)> = g_node
        .flows()
        .iter()
        .filter_map(|f| {
            match (canon_index.get(&f.src), canon_index.get(&f.dst)) {
                (Some(&s), Some(&d)) => Some((s, d, f.bytes.to_bits())),
                _ => None,
            }
        })
        .collect();
    flows.sort_unstable();
    (
        (parent_extent.as_slice().to_vec(), child_desc, flows),
        canon_ids,
    )
}

/// Cache key: cube shape + exact flow structure.
type SubKey = (Vec<u16>, Vec<bool>, u32, Vec<(Rank, Rank, u64)>);

fn sub_key(cube: &Torus, graph: &CommGraph) -> SubKey {
    let mut flows: Vec<(Rank, Rank, u64)> = graph
        .flows()
        .iter()
        .map(|f| (f.src, f.dst, f.bytes.to_bits()))
        .collect();
    flows.sort_unstable();
    let wraps: Vec<bool> = (0..cube.ndims()).map(|d| cube.dim_width(d) > 1.0).collect();
    (cube.dims().to_vec(), wraps, graph.num_ranks(), flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::{patterns, Benchmark};

    #[test]
    fn walkthrough_16_ranks_on_4x4() {
        // The paper's running example: 16 ranks onto a 4x4 torus.
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(
            &machine,
            &g,
            Some(RankGrid::new(&[4, 4])),
        );
        res.mapping.validate(&machine);
        assert_eq!(res.mapping.num_ranks(), 16);
        // all 16 nodes used exactly once
        let nodes: std::collections::HashSet<_> = res.mapping.nodes().iter().collect();
        assert_eq!(nodes.len(), 16);
        assert!(res.predicted_mcl > 0.0);
    }

    #[test]
    fn rahtm_beats_or_ties_default_on_toy_halo() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(
            &machine,
            &g,
            Some(RankGrid::new(&[4, 4])),
        );
        let default = TaskMapping::abcdet(&machine, 16);
        let rahtm_mcl = res.mapping.mcl(&machine, &g, Routing::UniformMinimal);
        let def_mcl = default.mcl(&machine, &g, Routing::UniformMinimal);
        assert!(
            rahtm_mcl <= def_mcl + 1e-9,
            "rahtm {rahtm_mcl} vs default {def_mcl}"
        );
    }

    #[test]
    fn concentration_factor_respected() {
        // 64 ranks on 16 nodes: concentration 4
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
        let g = patterns::halo_2d(8, 8, 5.0, true);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(
            &machine,
            &g,
            Some(RankGrid::new(&[8, 8])),
        );
        res.mapping.validate(&machine);
        // every node holds exactly 4 ranks
        let by = res.mapping.ranks_by_node(&machine);
        assert!(by.iter().all(|v| v.len() == 4));
    }

    #[test]
    fn non_uniform_machine_slices_and_merges() {
        // 4x4x2 torus: slices into two 4x4 planes
        let machine = BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2);
        let g = Benchmark::Cg.graph(64);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, None);
        res.mapping.validate(&machine);
        let nodes: std::collections::HashSet<_> = res.mapping.nodes().iter().collect();
        assert_eq!(nodes.len(), 32, "all nodes used");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::random(16, 50, 1.0, 10.0, 21);
        let cfg = RahtmConfig::fast();
        let a = RahtmMapper::new(cfg.clone()).map(&machine, &g, None);
        let b = RahtmMapper::new(cfg).map(&machine, &g, None);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn cache_hits_on_symmetric_patterns() {
        // translation-symmetric halo: leaf sub-problems repeat
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
        let g = patterns::halo_2d(8, 8, 5.0, true);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(
            &machine,
            &g,
            Some(RankGrid::new(&[8, 8])),
        );
        assert!(
            res.stats.milp_cache_hits > 0,
            "expected symmetric sub-problems to hit the cache: {:?}",
            res.stats
        );
    }

    #[test]
    fn asymmetric_machine_slices_to_one_dim_hierarchy() {
        // [8,4] torus: auto-slicing picks side 8, giving four 8x1 slices
        // whose hierarchies are 1-D (n_eff = 1, branching 2) — exercises
        // the degenerate-dimension path end to end.
        let machine = BgqMachine::new(Torus::torus(&[8, 4]), 4, 2);
        let g = patterns::random(64, 150, 1.0, 20.0, 77);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, None);
        res.mapping.validate(&machine);
        let nodes: std::collections::HashSet<_> = res.mapping.nodes().iter().collect();
        assert_eq!(nodes.len(), 32);
    }

    #[test]
    fn single_node_machine_trivial() {
        let machine = BgqMachine::new(Torus::torus(&[1]), 4, 4);
        let g = patterns::ring(4, 5.0);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, None);
        assert!(res.mapping.nodes().iter().all(|&n| n == 0));
        assert_eq!(res.predicted_mcl, 0.0);
    }

    #[test]
    fn polish_never_hurts_the_pipeline_output() {
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 4, 4);
        let g = patterns::random(64, 160, 1.0, 30.0, 99);
        let base = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, None);
        let polished = RahtmMapper::new(RahtmConfig {
            polish_swaps: 400,
            ..RahtmConfig::fast()
        })
        .map(&machine, &g, None);
        polished.mapping.validate(&machine);
        assert!(
            polished.predicted_mcl <= base.predicted_mcl + 1e-9,
            "polish {} vs base {}",
            polished.predicted_mcl,
            base.predicted_mcl
        );
    }

    #[test]
    fn validate_collects_every_problem_at_once() {
        // 10 ranks on 16 nodes (not a multiple) AND a 3x3 grid covering 9
        // ranks: both problems must come back in one error
        let machine = BgqMachine::toy_4x4();
        let g = patterns::ring(10, 1.0);
        let err = RahtmMapper::new(RahtmConfig::fast())
            .run(&machine, &g, Some(RankGrid::new(&[3, 3])))
            .unwrap_err();
        match err {
            RahtmError::InvalidInput { problems } => {
                assert_eq!(problems.len(), 2, "{problems:?}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn excess_concentration_is_a_typed_error() {
        // 64 ranks on 16 nodes needs concentration 4 > capacity 2
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 2, 2);
        let g = patterns::halo_2d(8, 8, 5.0, true);
        let err = RahtmMapper::new(RahtmConfig::fast())
            .run(&machine, &g, None)
            .unwrap_err();
        assert!(matches!(err, RahtmError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn zero_time_limit_still_produces_valid_mapping() {
        // the acceptance property in miniature: an already-expired budget
        // must still deliver a complete, capacity-respecting mapping, with
        // the downgrades visible in the report
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
        let g = patterns::halo_2d(8, 8, 5.0, true);
        let cfg = RahtmConfig {
            time_limit: Some(Duration::ZERO),
            ..Default::default()
        };
        let res = RahtmMapper::new(cfg)
            .run(&machine, &g, Some(RankGrid::new(&[8, 8])))
            .unwrap();
        res.mapping.validate(&machine);
        let by = res.mapping.ranks_by_node(&machine);
        assert!(by.iter().all(|v| v.len() == 4), "capacities respected");
        let d = &res.stats.degradation;
        assert!(d.greedy > 0, "sub-problems must have hit the greedy rung: {d:?}");
        assert!(d.total_downgrades() > 0 && !d.events.is_empty());
        assert_eq!(d.milp, 0, "no MILP can finish in zero time");
    }

    #[test]
    fn untimed_run_reports_no_downgrades() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let res = RahtmMapper::new(RahtmConfig::fast())
            .run(&machine, &g, Some(RankGrid::new(&[4, 4])))
            .unwrap();
        assert_eq!(res.stats.degradation.total_downgrades(), 0);
        assert!(res.stats.degradation.events.is_empty());
    }

    #[test]
    fn milp_config_prunes_symmetry_for_any_thread_count() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        for milp_threads in [1, 2] {
            let cfg = RahtmConfig {
                use_milp: true,
                milp_threads,
                milp_node_budget: 25,
                anneal_iters: 2_000,
                beam_width: 8,
                ..Default::default()
            };
            let res = RahtmMapper::new(cfg.clone()).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
            res.mapping.validate(&machine);
            assert!(res.stats.milp_nodes > 0);
            assert!(
                res.stats.milp_symmetry_pruned > 0,
                "{milp_threads} worker(s) must run with orbital fixing: {:?}",
                res.stats
            );
            // the branch-and-bound is deterministic: repeat runs agree
            let again = RahtmMapper::new(cfg).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
            assert_eq!(res.mapping, again.mapping);
        }
    }

    #[test]
    fn milp_config_runs_on_small_instance() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let cfg = RahtmConfig {
            use_milp: true,
            milp_node_budget: 25,
            anneal_iters: 2_000,
            beam_width: 8,
            ..Default::default()
        };
        let res = RahtmMapper::new(cfg).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
        res.mapping.validate(&machine);
        assert!(res.stats.milp_nodes > 0);
    }
}
