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
//!    MILP (simulated-annealing incumbent, deterministic node budget).
//! 4. Merge solved blocks bottom-up with the orientation beam search, one
//!    side at a time; the last side merges the slice blocks over the whole
//!    machine. A block of more than 64 members searches axis flips only
//!    (Mira's 256-member slices); smaller ones, such as the 64-member
//!    slices of 4×4×4×2, search the full orientation group.
//!
//! Steps 3 and 4 walk the hierarchy level by level across all slices:
//! each level's sub-problems, and each merge side's parent merges, form
//! one batch. A batch solves each structurally distinct job once, in
//! parallel on the run's spare cores ([`crate::cores`]), and copies the
//! answer to the others — the paper's "copy to neighboring nodes with
//! identical local communication graphs".
//!
//! Wall-clock time is measured only here, at the driver, for the §V-B
//! optimization-time report; all algorithms below are deterministic.

use crate::anneal::{anneal_map, AnnealOptions};
use crate::block::Block;
use crate::cluster::{build_hierarchy_with, cluster_level_with, LevelClustering};
use crate::cores::{run_jobs, CoreBudget};
use crate::error::{panic_message, RahtmError};
use crate::fault::{Fault, FaultPlan};
use crate::mapping::TaskMapping;
use crate::merge::{merge_within, MergeOptions, PositionedBlock};
use crate::milp::{milp_map, MilpMapOptions};
use rahtm_commgraph::{CommGraph, Rank, RankGrid};
use rahtm_lp::{Deadline, MilpOptions, SimplexOptions};
use rahtm_obs::{counters, gauges, spans, Journal, Recorder};
use rahtm_routing::{RouteStencilCache, Routing};
use rahtm_topology::{BgqMachine, Coord, NodeId, SubCube, Torus};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
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
    /// Ignored: each Table II solve runs its branch-and-bound on the
    /// thread that solves the sub-problem. Kept only for the benchmark
    /// driver that still reads it.
    pub milp_threads: usize,
    /// Simulated-annealing proposals per sub-problem (incumbent and/or
    /// fallback).
    pub anneal_iters: usize,
    /// Solve structurally identical sub-problems once per level, and merge
    /// parents with equal merge keys once per side (repeats take the
    /// first's answer). `false` solves and merges every job.
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
    /// Level passes that panicked and were re-run on one core (at most
    /// one per run).
    pub salvaged_workers: usize,
    /// One human-readable line per degradation event, sorted (a batch's
    /// jobs run in parallel, so occurrence order is not reproducible).
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
/// work performed, including solves finished by a pass that later
/// panicked. Phase times are elapsed wall time: the driver times each
/// phase once per pass, across all slices.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Phase 1 wall time (seconds).
    pub clustering_secs: f64,
    /// Phase 2 wall time (seconds).
    pub milp_secs: f64,
    /// Phase 3 wall time (seconds), slice merge included (the
    /// `pipeline.merge` span, which holds `pipeline.merge.slices`).
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
            merge_secs: secs(spans::MERGE),
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
        if let Err(e) = machine.try_uniform_slices() {
            problems.push(format!("machine cannot be cut into uniform slices: {e}"));
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
    /// merge budget, even a panicking solve — is absorbed by the
    /// degradation ladder and recorded in
    /// [`PhaseStats::degradation`]; only unmappable inputs
    /// ([`RahtmError::InvalidInput`]), a level pass that panics twice
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
        self.run_on(machine, graph, grid, crate::cores::available())
    }

    /// [`Self::run`] on a budget of `cores` cores. The mapping and the
    /// normalized journal do not depend on it.
    pub(crate) fn run_on(
        &self,
        machine: &BgqMachine,
        graph: &CommGraph,
        grid: Option<RankGrid>,
        cores: usize,
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
        let (slice_members, slice_grid) =
            split_into_slices(&g_node, &node_grid, slices.len() as u32, cfg.tiling_search);
        recorder.record_span_secs(spans::CLUSTERING, t0.elapsed().as_secs_f64());

        let ctx = RunContext {
            cfg,
            machine,
            g_node: &g_node,
            // One stencil cache for the machine topology serves every
            // merge, the polish pass, and the final MCL prediction.
            machine_stencils: Arc::new(RouteStencilCache::new(topo)),
            deadline,
            recorder,
        };
        let rec = &ctx.recorder;
        let cores = CoreBudget::new(cores);

        // ---- Phases 1b–3, level by level across all slices ----
        // Panic isolation: a pass that panics is re-run once on one core,
        // keeping the sub-problem answers it stored; a second panic becomes
        // a typed error.
        let mut solved = HashMap::new();
        let pass = |cores: &CoreBudget, solved: &mut HashMap<SubKey, Vec<NodeId>>| {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.level_pass(&slices, &slice_members, &slice_grid, cores, solved)
            }))
        };
        let final_block = match pass(&cores, &mut solved) {
            Ok(block) => block,
            Err(payload) => {
                rec.incr(counters::DEGRADE_SALVAGED_WORKERS);
                rec.event(format!(
                    "level pass panicked ({}); re-run on one core",
                    panic_message(payload.as_ref())
                ));
                pass(&CoreBudget::new(1), &mut solved).map_err(|p| RahtmError::WorkerPanic {
                    message: panic_message(p.as_ref()),
                })?
            }
        };

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

/// A phase-3 job: a parent box and its children, sorted by origin.
struct MergeJob {
    origin: Coord,
    extent: Coord,
    children: Vec<PositionedBlock>,
}

/// One run's shared state: the inputs, the machine stencils, the time
/// budget, and the run's recorder. A batch's jobs borrow it concurrently.
struct RunContext<'a> {
    cfg: &'a RahtmConfig,
    machine: &'a BgqMachine,
    /// The node-cluster graph (one cluster per machine node).
    g_node: &'a CommGraph,
    machine_stencils: Arc<RouteStencilCache>,
    deadline: Deadline,
    recorder: Recorder,
}

impl RunContext<'_> {
    /// Phases 1b, 2 and 3 for every slice, level by level: each phase-2
    /// level and each phase-3 merge side is one batch across all slices,
    /// whose jobs run in parallel on `cores`. With several slices, the last
    /// merge side is the whole machine over the slice blocks. Returns the
    /// machine's one block. `solved` keeps sub-problem answers across
    /// batches.
    fn level_pass(
        &self,
        slices: &[SubCube],
        members: &[Vec<Rank>],
        grid: &RankGrid,
        cores: &CoreBudget,
        solved: &mut HashMap<SubKey, Vec<NodeId>>,
    ) -> Block {
        let (rec, topo) = (&self.recorder, self.machine.torus());
        let nd = topo.ndims();
        // the slices are translates of one box of side `side` on the
        // active dims
        let extent = *slices[0].extent();
        let active: Vec<usize> = (0..nd).filter(|&d| extent.get(d) > 1).collect();
        let n_eff = active.len();
        let side = active.first().map_or(1, |&d| extent.get(d));
        assert!(
            slices.iter().all(|s| *s.extent() == extent)
                && active.iter().all(|&d| extent.get(d) == side),
            "slices must be uniform"
        );
        let branching = 1u32 << n_eff;

        // ---- Phase 1b: every slice's hierarchy ----
        // (a one-node slice has none: its node is its block)
        let t0 = Instant::now();
        let hierarchies = if n_eff == 0 {
            Vec::new()
        } else {
            run_jobs(cores, slices.len(), usize::MAX, true, |s| {
                let g_slice = self.g_node.induced(&members[s]);
                assert!(
                    g_slice.num_ranks() == (side as u32).pow(n_eff as u32),
                    "slice cluster count mismatch"
                );
                let tiling_search = self.cfg.tiling_search;
                let levels =
                    build_hierarchy_with(&g_slice, grid, 1, branching, branching, tiling_search);
                for (i, lvl) in levels.iter().enumerate() {
                    let clusters = lvl.coarse_graph.num_ranks() as f64;
                    rec.gauge(&gauges::cluster_level_size(i), clusters);
                }
                levels
            })
        };
        rec.record_span_secs(spans::CLUSTERING, t0.elapsed().as_secs_f64());

        // ---- Phase 2: top-down pinning, one batch per level ----
        let t1 = Instant::now();
        // root cube: double-wide where the slices span a wrapped machine dim
        let root_wraps: Vec<bool> = active
            .iter()
            .map(|&d| topo.wraps(d) && side == topo.dim(d))
            .collect();
        // pins[s][c]: block coordinate (machine dims, slice-relative units
        // of the current level's blocks) of cluster c of slice s; above
        // the root level there is one block, at zero
        let mut pins: Vec<Vec<Coord>> = vec![vec![Coord::zero(nd)]; slices.len()];
        let depth = hierarchies.iter().map(Vec::len).max().unwrap_or(0);
        for level in 0..depth {
            let cube = match level {
                0 => Torus::with_wraps(&vec![2u16; n_eff], &root_wraps),
                _ => Torus::two_ary_cube(n_eff),
            };
            let batch: Vec<_> = hierarchies
                .iter()
                .map(|levels| subproblems(levels, level))
                .collect();
            let graphs: Vec<&CommGraph> = batch.iter().flatten().map(|(_, g)| g).collect();
            let mut places = self.solve_level(cores, &cube, &graphs, solved).into_iter();
            for ((levels, subs), pin) in hierarchies.iter().zip(&batch).zip(&mut pins) {
                if subs.is_empty() {
                    continue;
                }
                let mut next =
                    vec![Coord::zero(nd); levels[level].coarse_graph.num_ranks() as usize];
                for (parent, ((children, _), place)) in subs.iter().zip(places.by_ref()).enumerate()
                {
                    assert_eq!(children.len(), branching as usize);
                    for (&child, &vertex) in children.iter().zip(&place) {
                        let v = embed_vertex(&cube, vertex, &active, nd);
                        // inactive dims stay 0: both terms are 0 there
                        let c = &mut next[child as usize];
                        for d in 0..nd {
                            c.set(d, pin[parent].get(d) * 2 + v.get(d));
                        }
                    }
                }
                *pin = next;
            }
        }
        rec.record_span_secs(spans::MILP, t1.elapsed().as_secs_f64());

        // ---- Phase 3: bottom-up merge, one batch per side ----
        // pins[s] now holds slice-relative node coordinates: 0..side-1 on
        // active dims, 0 on inactive ones. The sides are each slice's
        // boxes of side 2, 4, …, `side`, then, with several slices, the
        // whole machine over the slice blocks.
        let t2 = Instant::now();
        let mut blocks: Vec<Vec<PositionedBlock>> = slices
            .iter()
            .zip(members)
            .zip(&pins)
            .map(|((slice, members), pin)| {
                members
                    .iter()
                    .zip(pin)
                    .map(|(&m, coord)| PositionedBlock {
                        block: Block::single(nd, m),
                        origin: slice.to_global(coord),
                    })
                    .collect()
            })
            .collect();
        let whole = SubCube::whole(topo);
        let mut regions = slices;
        let mut parent_extent = extent;
        let mut sb = 2u16;
        while sb <= side || regions.len() > 1 {
            let t_side = Instant::now();
            let (span, gauge) = if sb <= side {
                for &d in &active {
                    parent_extent.set(d, sb);
                }
                (spans::merge_side(sb), gauges::merge_mcl(sb))
            } else {
                regions = std::slice::from_ref(&whole);
                blocks = vec![blocks.into_iter().flatten().collect()];
                parent_extent = *whole.extent();
                (spans::MERGE_SLICES.into(), gauges::MERGE_MCL_SLICES.into())
            };
            let batch: Vec<Vec<MergeJob>> = regions
                .iter()
                .zip(&mut blocks)
                .map(|(region, b)| {
                    parents(region.origin(), &active, &parent_extent, std::mem::take(b))
                })
                .collect();
            let jobs: Vec<&MergeJob> = batch.iter().flatten().collect();
            let mut merged = self.merge_level(cores, &gauge, &jobs).into_iter();
            for (b, parents) in blocks.iter_mut().zip(&batch) {
                b.extend(
                    parents
                        .iter()
                        .zip(merged.by_ref())
                        .map(|(job, block)| PositionedBlock {
                            block,
                            origin: job.origin,
                        }),
                );
            }
            rec.record_span_secs(&span, t_side.elapsed().as_secs_f64());
            sb *= 2;
        }
        rec.record_span_secs(spans::MERGE, t2.elapsed().as_secs_f64());
        // the last side left one block, at the machine's origin
        let left: Vec<(Block, Coord)> = blocks
            .into_iter()
            .flatten()
            .map(|b| (b.block, b.origin))
            .collect();
        Block::compose(whole.origin(), whole.extent(), &left)
    }

    /// Phase 2's batch at one level: every slice's sub-problems there, all
    /// on `cube`, memoized on each graph's exact structure. Each key that
    /// `solved` lacks is solved once, by its first job, in parallel with
    /// the batch's other new keys; every job then takes its key's answer,
    /// in input order. With `cache_subproblems` off every job is solved.
    fn solve_level(
        &self,
        cores: &CoreBudget,
        cube: &Torus,
        graphs: &[&CommGraph],
        solved: &mut HashMap<SubKey, Vec<NodeId>>,
    ) -> Vec<Vec<NodeId>> {
        let solve = |j: usize| self.solve_subproblem(cube, graphs[j]);
        if !self.cfg.cache_subproblems {
            return run_jobs(cores, graphs.len(), usize::MAX, true, solve);
        }
        let keys: Vec<SubKey> = graphs.iter().map(|g| sub_key(cube, g)).collect();
        let todo = first_of_each_key(&keys, |key| solved.contains_key(key));
        let hits = graphs.len() - todo.len();
        self.recorder.add(counters::SUB_CACHE_HITS, hits as u64);
        let places = run_jobs(cores, todo.len(), usize::MAX, true, |t| solve(todo[t]));
        for (&j, place) in todo.iter().zip(places) {
            solved.insert(keys[j].clone(), place);
        }
        keys.iter().map(|key| solved[key].clone()).collect()
    }

    /// Phase 3's batch at one merge side: every parent merge there, each
    /// recording its merged MCL under `gauge`. Paper §III-D: a merged
    /// parent's mapping "can be copied to the neighboring nodes in the same
    /// level as long as they have identical local communication graphs".
    /// The torus is vertex-transitive, so parents with equal [`merge_key`]s
    /// differ only by a translation: the first job of each key is merged,
    /// in parallel with the batch's other keys, and every repeat takes its
    /// block's coordinates. A key holds the parent extent, so it never
    /// repeats across sides. With `cache_subproblems` off every job is
    /// merged.
    fn merge_level(&self, cores: &CoreBudget, gauge: &str, jobs: &[&MergeJob]) -> Vec<Block> {
        let rec = &self.recorder;
        let merge = |j: usize| {
            let job = jobs[j];
            let res = merge_within(
                self.machine.torus(),
                self.g_node,
                &job.children,
                &job.origin,
                &job.extent,
                &MergeOptions {
                    beam_width: self.cfg.beam_width,
                    routing: self.cfg.routing,
                    deadline: self.deadline,
                    recorder: rec.clone(),
                    stencils: Some(Arc::clone(&self.machine_stencils)),
                    ..Default::default()
                },
                cores,
            );
            rec.gauge(gauge, res.mcl);
            if res.deadline_hit {
                let n = job.children.len();
                rec.event(format!(
                    "merge of {n} blocks ({gauge}): deadline hit, identity composition"
                ));
            }
            res.block
        };
        if !self.cfg.cache_subproblems {
            rec.add(counters::MERGE_CACHE_MISSES, jobs.len() as u64);
            return run_jobs(cores, jobs.len(), usize::MAX, true, merge);
        }
        let (keys, ids): (Vec<MergeKey>, Vec<Vec<Rank>>) = jobs
            .iter()
            .map(|j| merge_key(self.g_node, &j.children, &j.origin, &j.extent))
            .unzip();
        let todo = first_of_each_key(&keys, |_| false);
        rec.add(counters::MERGE_CACHE_MISSES, todo.len() as u64);
        rec.add(counters::MERGE_CACHE_HITS, (jobs.len() - todo.len()) as u64);
        let merged = run_jobs(cores, todo.len(), usize::MAX, true, |t| merge(todo[t]));
        let merged: HashMap<&MergeKey, (usize, Block)> = todo
            .iter()
            .zip(merged)
            .map(|(&j, block)| (&keys[j], (j, block)))
            .collect();
        keys.iter()
            .enumerate()
            .map(|(j, key)| {
                let (solver, block) = &merged[key];
                if *solver == j {
                    return block.clone();
                }
                // a repeat: the merged block's coordinates, matched to
                // this job's members in canonical order
                let coord_of: HashMap<Rank, Coord> = block.members.iter().cloned().collect();
                let members = ids[j].iter().zip(&ids[*solver]);
                Block {
                    extent: jobs[j].extent,
                    members: members
                        .map(|(&id, solver_id)| (id, coord_of[solver_id]))
                        .collect(),
                }
            })
            .collect()
    }

    /// Solves one cluster-graph → cube sub-problem through the degradation
    /// ladder:
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
    fn solve_subproblem(&self, cube: &Torus, graph: &CommGraph) -> Vec<NodeId> {
        let (cfg, rec) = (self.cfg, &self.recorder);
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
            downgrade(
                counters::DEGRADE_GREEDY,
                "deadline expired, greedy placement",
            );
            return greedy_place(cube, graph);
        }

        // Middle rung (and the MILP's warm incumbent): deadline-aware SA.
        // Each solve routes through a stencil cache of its own: a batch
        // runs its solves side by side, and one cache shared between them
        // made each 8-cluster anneal of cg-1k-anneal about 2.5 ms (9%)
        // slower. It adds its counters to the journal once, at the end.
        let stencils = Arc::new(RouteStencilCache::new(cube));
        let sa = anneal_map(
            cube,
            graph,
            &AnnealOptions {
                iterations: cfg.anneal_iters,
                seed: cfg.seed,
                routing: cfg.routing,
                deadline: self.deadline,
                recorder: rec.clone(),
                stencils: Some(Arc::clone(&stencils)),
            },
        );
        let placement = if !cfg.use_milp {
            // annealing IS the configured top level here — not a downgrade
            rec.incr(counters::DEGRADE_ANNEAL);
            sa.placement
        } else if fault == Some(Fault::Infeasible) {
            downgrade(
                counters::DEGRADE_ANNEAL,
                "injected infeasibility, SA incumbent",
            );
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
                        lp: SimplexOptions {
                            max_iters: cfg.milp_lp_iters,
                            deadline: milp_deadline,
                            recorder: rec.clone(),
                        },
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            match milp_res {
                Ok(res) => {
                    if res.deadline_hit {
                        downgrade(
                            counters::DEGRADE_ANNEAL,
                            "MILP deadline hit, kept incumbent",
                        );
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
        stencils.report(rec);
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

/// One slice's sub-problems at hierarchy level `level`, each with the
/// clusters it places, in order: one per cluster of level `level − 1` (one
/// root above level 0), over its children.
fn subproblems(levels: &[LevelClustering], level: usize) -> Vec<(Vec<Rank>, CommGraph)> {
    let Some(lvl) = levels.get(level) else {
        return Vec::new();
    };
    let parent = level.checked_sub(1).map(|p| &levels[p]);
    let parents = parent.map_or(1, |p| p.coarse_graph.num_ranks() as usize);
    let mut children_of: Vec<Vec<Rank>> = vec![Vec::new(); parents];
    for c in 0..lvl.coarse_graph.num_ranks() {
        children_of[parent.map_or(0, |p| p.assignment[c as usize] as usize)].push(c);
    }
    children_of
        .into_iter()
        .map(|children| {
            let graph = lvl.coarse_graph.induced(&children);
            (children, graph)
        })
        .collect()
}

/// Groups one slice's blocks into the parent boxes of `extent` that tile
/// the slice from `slice_origin`: one merge job per parent, sorted by
/// origin, each with its children sorted by origin.
fn parents(
    slice_origin: &Coord,
    active: &[usize],
    extent: &Coord,
    blocks: Vec<PositionedBlock>,
) -> Vec<MergeJob> {
    let mut groups: HashMap<Coord, Vec<PositionedBlock>> = HashMap::new();
    for b in blocks {
        let mut key = *slice_origin;
        for &d in active {
            let rel = b.origin.get(d) - slice_origin.get(d);
            key.set(
                d,
                slice_origin.get(d) + (rel / extent.get(d)) * extent.get(d),
            );
        }
        groups.entry(key).or_default().push(b);
    }
    let mut jobs: Vec<MergeJob> = groups
        .into_iter()
        .map(|(origin, mut children)| {
            children.sort_by(|x, y| x.origin.as_slice().cmp(y.origin.as_slice()));
            MergeJob {
                origin,
                extent: *extent,
                children,
            }
        })
        .collect();
    jobs.sort_by(|x, y| x.origin.as_slice().cmp(y.origin.as_slice()));
    jobs
}

/// A batch's jobs to solve: the first job of each key that is not
/// `known`, in input order.
fn first_of_each_key<K: Eq + Hash>(keys: &[K], known: impl Fn(&K) -> bool) -> Vec<usize> {
    let mut seen = HashSet::new();
    (0..keys.len())
        .filter(|&j| !known(&keys[j]) && seen.insert(&keys[j]))
        .collect()
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

/// Splits the node-cluster graph into `s` slice groups with a tiling
/// (searched for the minimum cut unless `search` is off).
/// Returns per-slice member lists (global cluster ids, local-lexicographic
/// order) and the logical grid every slice shares.
fn split_into_slices(
    g_node: &CommGraph,
    node_grid: &RankGrid,
    s: u32,
    search: bool,
) -> (Vec<Vec<Rank>>, RankGrid) {
    let m = g_node.num_ranks();
    if s == 1 {
        return (vec![(0..m).collect()], node_grid.clone());
    }
    assert!(m.is_multiple_of(s));
    let per = m / s;
    let lvl = cluster_level_with(g_node, node_grid, per, search);
    let mut members: Vec<Vec<Rank>> = vec![Vec::new(); s as usize];
    for (rank, &tile) in lvl.assignment.iter().enumerate() {
        members[tile as usize].push(rank as Rank);
    }
    let grid = if lvl.shape.is_empty() {
        RankGrid::near_square(per)
    } else {
        RankGrid::new(&lvl.shape)
    };
    (members, grid)
}

/// Merge cache key: parent extent + per-child relative structure + the
/// induced flow graph over canonically relabeled members. Two parents with
/// equal keys differ only by a torus translation, so the merged
/// orientation solution transfers verbatim.
type MergeKey = (
    Vec<u16>,                                 // parent extent
    Vec<(Vec<u16>, Vec<u16>, Vec<Vec<u16>>)>, // per child: rel origin, extent, member coords
    Vec<(u32, u32, u64)>,                     // canonical flows
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
        .filter_map(
            |f| match (canon_index.get(&f.src), canon_index.get(&f.dst)) {
                (Some(&s), Some(&d)) => Some((s, d, f.bytes.to_bits())),
                _ => None,
            },
        )
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
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
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
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
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
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, Some(RankGrid::new(&[8, 8])));
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
    fn slice_merge_covers_the_whole_machine() {
        // The slice merge routes every node-level flow of the final
        // placement, as the prediction does. [3, 3] slices into nine
        // one-node slices, which only the machine side merges.
        let cases = [
            (
                BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2),
                Benchmark::Cg.graph(64),
            ),
            (
                BgqMachine::new(Torus::torus(&[3, 3]), 1, 1),
                patterns::random(9, 18, 1.0, 5.0, 3),
            ),
        ];
        for (machine, g) in cases {
            let res = RahtmMapper::new(RahtmConfig::fast())
                .with_recorder(Recorder::enabled())
                .run(&machine, &g, None)
                .expect("run");
            res.mapping.validate(&machine);
            let nodes: HashSet<_> = res.mapping.nodes().iter().collect();
            assert_eq!(nodes.len(), machine.torus().num_nodes() as usize);
            let journal = res.journal.expect("traced run");
            let slices = journal
                .gauge(gauges::MERGE_MCL_SLICES)
                .expect("slice merge");
            assert_eq!(slices.values.len(), 1);
            let (merged, predicted) = (slices.values[0], res.predicted_mcl);
            assert!(
                (merged - predicted).abs() <= 1e-9 * predicted,
                "slice merge {merged} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn slice_split_without_tiling_search_takes_the_first_shape() {
        // 8x8 halo into 16 slices of 4: the search picks 2x2 tiles, the
        // first shape `tile_shapes` lists is 1x4
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let first = grid.tile_shapes(4)[0].clone();
        assert_eq!(first, vec![1, 4]);
        for (search, shape) in [(false, first), (true, vec![2, 2])] {
            let (members, slice_grid) = split_into_slices(&g, &grid, 16, search);
            assert_eq!(slice_grid.dims(), shape.as_slice(), "search {search}");
            let tile = grid.tile_assignment(&shape);
            for (s, m) in members.iter().enumerate() {
                assert!(m.iter().all(|&r| tile[r as usize] == s as Rank));
            }
        }
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

    /// Two disjoint random graphs of 16 clusters, one per 4x4 plane of a
    /// 4x4x2 torus, so the two slices' batches hold different keys.
    fn two_random_halves() -> CommGraph {
        let mut both = CommGraph::new(32);
        for (half, seed) in [(0, 7), (1, 8)] {
            for f in patterns::random(16, 48, 1.0, 10.0, seed).flows() {
                both.add(f.src + 16 * half, f.dst + 16 * half, f.bytes);
            }
        }
        both
    }

    #[test]
    fn two_slice_run_is_independent_of_cores() {
        // 4x4x4x2 torus: two 4x4x4 slices. Under DOR (no orbit quotient)
        // the first step of a side-4 merge scores 48 x 48 candidates in
        // nine chunks, so a four-core budget lends its waves helpers,
        // while one core runs every chunk on the driver itself. The random
        // halves give the two slices different root keys, so the batches
        // hold two distinct jobs.
        let dor = RahtmConfig {
            routing: Routing::DimOrder,
            ..RahtmConfig::fast()
        };
        let cases = [
            (
                BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 1),
                Benchmark::Cg.graph(128),
                dor,
                None,
            ),
            (
                BgqMachine::new(Torus::torus(&[4, 4, 2]), 1, 1),
                two_random_halves(),
                RahtmConfig::fast(),
                Some(RankGrid::new(&[4, 4, 2])),
            ),
        ];
        for (machine, g, config, grid) in cases {
            let mapper = RahtmMapper::new(config).with_recorder(Recorder::enabled());
            let run = |cores| {
                let res = mapper
                    .run_on(&machine, &g, grid.clone(), cores)
                    .expect("run");
                let journal = res.journal.expect("traced run");
                (res.mapping, res.predicted_mcl.to_bits(), journal)
            };
            let (one, four) = (run(1), run(4));
            assert_eq!(one.0, four.0, "mapping");
            assert_eq!(one.1, four.1, "predicted MCL");
            assert_eq!(one.2.normalized(), four.2.normalized());
            assert!(one.2.counter(counters::MERGE_CANDIDATES_PRUNED) > Some(0));
        }
    }

    #[test]
    fn batch_helper_panic_is_salvaged_independent_of_cores() {
        // The two slices' root sub-problems differ, so the root batch runs
        // on two threads of a four-core budget, and the injected panic
        // fires on whichever thread starts the second solve: a helper, or
        // the driver while a helper runs. The re-run keeps the answers
        // already stored, and answers do not depend on the thread that
        // solved them, so the mapping is the fault-free one-core mapping.
        let machine = BgqMachine::new(Torus::torus(&[4, 4, 2]), 1, 1);
        let (g, grid) = (two_random_halves(), RankGrid::new(&[4, 4, 2]));
        let clean = RahtmMapper::new(RahtmConfig::fast())
            .run_on(&machine, &g, Some(grid.clone()), 1)
            .expect("fault-free run");
        for _ in 0..4 {
            let plan = FaultPlan::inject(Fault::WorkerPanic, 1);
            let res = RahtmMapper::new(RahtmConfig {
                fault_plan: Some(plan.clone()),
                ..RahtmConfig::fast()
            })
            .run_on(&machine, &g, Some(grid.clone()), 4)
            .expect("a panicking batch job is salvaged");
            assert!(plan.fired());
            res.mapping.validate(&machine);
            assert_eq!(res.mapping, clean.mapping);
            let d = &res.stats.degradation;
            assert_eq!(d.salvaged_workers, 1, "{d:?}");
            assert!(
                d.events.iter().any(|e| e.contains("panicked")),
                "{:?}",
                d.events
            );
        }
    }

    #[test]
    fn cache_hits_on_symmetric_patterns() {
        // translation-symmetric halo: leaf sub-problems repeat
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 16, 4);
        let g = patterns::halo_2d(8, 8, 5.0, true);
        let res =
            RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, Some(RankGrid::new(&[8, 8])));
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
    fn non_dividing_slice_side_is_a_typed_error() {
        // 2x3: the slice side 2 (the only power-of-two extent) does not
        // divide 3; with 7 ranks on 6 nodes both problems come back at once
        let machine = BgqMachine::new(Torus::torus(&[2, 3]), 6, 6);
        let mapper = RahtmMapper::new(RahtmConfig::fast());
        for (ranks, expect) in [(36, 1), (7, 2)] {
            let g = patterns::ring(ranks, 1.0);
            match mapper.run(&machine, &g, None).unwrap_err() {
                RahtmError::InvalidInput { problems } => {
                    assert_eq!(problems.len(), expect, "{problems:?}");
                    assert!(
                        problems
                            .iter()
                            .any(|p| p.contains("does not divide extent 3")),
                        "{problems:?}"
                    );
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
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
        assert!(
            d.greedy > 0,
            "sub-problems must have hit the greedy rung: {d:?}"
        );
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
    fn milp_config_prunes_symmetry() {
        let machine = BgqMachine::toy_4x4();
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let cfg = RahtmConfig {
            use_milp: true,
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
            "the MILP must run with orbital fixing: {:?}",
            res.stats
        );
        // the branch-and-bound is deterministic: repeat runs agree
        let again = RahtmMapper::new(cfg).map(&machine, &g, Some(RankGrid::new(&[4, 4])));
        assert_eq!(res.mapping, again.mapping);
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
