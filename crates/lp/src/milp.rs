//! Branch-and-bound mixed-integer solver over the simplex relaxation.
//!
//! Best-bound pruning, most-fractional branching, and the nearest-integer
//! child explored first. Search is bounded two ways: a deterministic node
//! budget (keeps runs reproducible) and an optional wall-clock
//! [`Deadline`](crate::deadline::Deadline) carried in `opts.lp` (keeps runs
//! inside a service-level time limit). Either limit returns the best
//! incumbent with [`MilpStatus::Feasible`] — mirroring how the paper's
//! authors would run CPLEX with a limit on hard instances — and a tripped
//! deadline is reported via [`MilpResult::deadline_hit`].
//!
//! RAHTM seeds the search with a simulated-annealing incumbent
//! (`initial_incumbent`), which both prunes aggressively and guarantees a
//! usable mapping even at tiny budgets.
//!
//! ## Work stealing
//!
//! [`solve_milp`] spreads nodes over `opts.threads` workers (one included),
//! each owning a mutex-guarded deque. The owner pushes and pops at the
//! back (LIFO, depth-first locally); idle siblings steal from the front,
//! taking the oldest entries — the nodes closest to the root, i.e. the
//! largest subtrees. The root node seeds worker 0's deque; after that,
//! load balance is pure stealing. Worker 0 runs on the calling thread and
//! the others on scoped threads, so a one-worker solve spawns none.
//!
//! Every node runs the full two-phase simplex under its accumulated bound
//! overrides, in the worker's private simplex scratch, so a node's
//! `(status, objective, x)` depends on its overrides alone, not on which
//! worker runs it or when.
//!
//! ## Determinism rule
//!
//! The shared incumbent is ordered by `(objective, x)`: a candidate
//! replaces the incumbent when its objective is strictly smaller, or equal
//! with a lexicographically smaller solution vector. Combined with
//! node results that do not depend on the schedule, the returned optimum is
//! bit-identical for any worker count whenever the true optimum is
//! separated from the runner-up by more than `1e-9·max(|obj|, 1)` (the
//! relative-gap pruning slack): every schedule then explores some node whose solution
//! is that optimum, and the `(objective, x)` order picks the same winner
//! regardless of discovery order. Optima tied within the gap slack may be
//! pruned against each other in schedule-dependent order, and budget- or
//! deadline-truncated searches are best-effort. With more than one worker
//! `nodes`/`best_bound` are diagnostics and may vary across schedules.

use crate::problem::Problem;
use crate::simplex::{LpStatus, SimplexOptions, SimplexScratch};
use rahtm_obs::counters;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Integrality tolerance: a value within this of an integer is integral.
const INT_TOL: f64 = 1e-6;
/// Relative optimality gap below which a node is pruned.
const REL_GAP: f64 = 1e-9;

/// Termination status of a MILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpStatus {
    /// Incumbent proven optimal.
    Optimal,
    /// Budget exhausted; incumbent available but not proven optimal.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Budget exhausted with no incumbent found.
    Unknown,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
pub struct MilpResult {
    /// Termination status.
    pub status: MilpStatus,
    /// Best objective found (minimization; `NAN` if no incumbent).
    pub objective: f64,
    /// Best solution found (empty if no incumbent).
    pub x: Vec<f64>,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Best lower bound on the optimum at termination (−∞ if unknown).
    pub best_bound: f64,
    /// Whether the wall-clock deadline (not the node budget) cut the search
    /// short. Lets callers distinguish "budget-shaped as configured" from
    /// "out of time" when deciding how far to degrade.
    pub deadline_hit: bool,
}

/// Solver knobs.
#[derive(Clone, Debug)]
pub struct MilpOptions {
    /// LP sub-solver options.
    pub lp: SimplexOptions,
    /// Node budget: at most this many node LPs are solved.
    pub max_nodes: usize,
    /// Optional warm incumbent: a feasible integral point.
    pub initial_incumbent: Option<Vec<f64>>,
    /// Branch-and-bound worker threads (`0` counts as one). The search and
    /// its optimum are the same for any count; see the module docs for the
    /// exact determinism rule.
    pub threads: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            lp: SimplexOptions::default(),
            max_nodes: 10_000,
            initial_incumbent: None,
            threads: 1,
        }
    }
}

/// A branch-and-bound node in flight between workers.
struct Node {
    /// `(col, lower, upper)` overrides accumulated from the root.
    overrides: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (prune before solving).
    parent_bound: f64,
}

/// Best-known integral solution, guarded by one mutex; `best_bits` mirrors
/// `obj` for cheap lock-free prune reads.
struct Incumbent {
    obj: f64,
    x: Option<Vec<f64>>,
}

struct Shared<'a> {
    p: &'a Problem,
    opts: &'a MilpOptions,
    int_cols: Vec<usize>,
    /// One deque per worker: the owner pushes and pops at the back,
    /// siblings steal from the front.
    deques: Vec<Mutex<VecDeque<Node>>>,
    incumbent: Mutex<Incumbent>,
    /// `f64::to_bits` of the incumbent objective (`+inf` when none).
    best_bits: AtomicU64,
    /// Nodes queued or being processed; workers exit when it hits zero.
    pending: AtomicUsize,
    /// Node-budget tickets claimed (== nodes whose LP was solved).
    explored: AtomicUsize,
    exhausted: AtomicBool,
    deadline_hit: AtomicBool,
    /// A worker panicked; siblings must stop spinning and unwind too.
    poisoned: AtomicBool,
    /// Parent bounds of subtrees dropped by budget/deadline/LP limits.
    open_bounds: Mutex<Vec<f64>>,
}

/// Per-worker tallies, summed into the obs counters after the join.
#[derive(Default)]
struct WorkerStats {
    pruned: u64,
    steals: u64,
    incumbent_updates: u64,
    lp_solves: u64,
    pivots: u64,
    polls: u64,
}

/// Locks `m`, ignoring poison: a panicking worker is already flagged by
/// its [`PanicGuard`], and its siblings only need to drain and exit.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flags `poisoned` if the worker body unwinds, so idle siblings stop
/// waiting for `pending` to drain and the scope can propagate the panic.
struct PanicGuard<'a>(&'a AtomicBool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Solves the mixed-integer problem `p` by branch and bound on
/// `opts.threads` work-stealing workers.
///
/// # Panics
/// Panics if a provided incumbent is not feasible/integral for `p`.
pub fn solve_milp(p: &Problem, opts: &MilpOptions) -> MilpResult {
    let mut best_obj = f64::INFINITY;
    let mut best_x: Option<Vec<f64>> = None;
    if let Some(inc) = &opts.initial_incumbent {
        assert!(
            p.is_feasible(inc, 1e-6) && p.is_integral(inc, 1e-6),
            "warm incumbent is not feasible/integral"
        );
        best_obj = p.objective_value(inc);
        best_x = Some(inc.clone());
    }

    let workers = opts.threads.max(1);
    let shared = Shared {
        p,
        opts,
        int_cols: p.integer_cols().iter().map(|c| c.index()).collect(),
        deques: (0..workers).map(|_| Mutex::default()).collect(),
        incumbent: Mutex::new(Incumbent {
            obj: best_obj,
            x: best_x,
        }),
        best_bits: AtomicU64::new(best_obj.to_bits()),
        pending: AtomicUsize::new(1),
        explored: AtomicUsize::new(0),
        exhausted: AtomicBool::new(false),
        deadline_hit: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        open_bounds: Mutex::new(Vec::new()),
    };
    lock(&shared.deques[0]).push_back(Node {
        overrides: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
    });

    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (1..workers)
            .map(|i| scope.spawn(move || worker_loop(i, shared)))
            .collect();
        let first = worker_loop(0, shared);
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| match h.join() {
                Ok(s) => s,
                Err(payload) => std::panic::resume_unwind(payload),
            }))
            .collect()
    });

    let nodes = shared.explored.load(Ordering::Acquire);
    let exhausted = shared.exhausted.load(Ordering::Acquire);
    let deadline_hit = shared.deadline_hit.load(Ordering::Acquire);
    let Incumbent {
        obj: best_obj,
        x: best_x,
    } = shared
        .incumbent
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let open_bounds = shared
        .open_bounds
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    let rec = &opts.lp.recorder;
    let total = |f: fn(&WorkerStats) -> u64| stats.iter().map(f).sum::<u64>();
    rec.add(counters::BNB_NODES_EXPLORED, nodes as u64);
    rec.add(counters::BNB_NODES_PRUNED, total(|s| s.pruned));
    rec.add(counters::DEADLINE_CHECKS, total(|s| s.polls));
    rec.add(counters::SIMPLEX_SOLVES, total(|s| s.lp_solves));
    rec.add(counters::SIMPLEX_PIVOTS, total(|s| s.pivots));
    rec.add(counters::MILP_STEALS, total(|s| s.steals));
    rec.add(
        counters::MILP_INCUMBENT_UPDATES,
        total(|s| s.incumbent_updates),
    );

    let open_min = open_bounds.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_bound = if exhausted {
        open_min.min(best_obj)
    } else {
        best_obj
    };
    let (status, objective, x) = match best_x {
        Some(x) => {
            let status = if exhausted && best_bound < best_obj - gap_slack(best_obj) {
                MilpStatus::Feasible
            } else {
                MilpStatus::Optimal
            };
            (status, best_obj, x)
        }
        None if exhausted => (MilpStatus::Unknown, f64::NAN, Vec::new()),
        None => (MilpStatus::Infeasible, f64::NAN, Vec::new()),
    };
    MilpResult {
        status,
        objective,
        x,
        nodes,
        best_bound,
        deadline_hit,
    }
}

fn worker_loop(index: usize, shared: &Shared<'_>) -> WorkerStats {
    let _guard = PanicGuard(&shared.poisoned);
    let local = &shared.deques[index];
    let mut scratch = SimplexScratch::new(shared.p);
    let mut stats = WorkerStats::default();
    loop {
        // The own deque's guard must drop before a sibling's is taken:
        // holding it through the steal lets two idle workers deadlock.
        let popped = lock(local).pop_back();
        let node = popped.or_else(|| {
            let k = shared.deques.len();
            let stolen = (1..k).find_map(|off| {
                let sibling = &shared.deques[(index + off) % k];
                lock(sibling).pop_front()
            });
            stats.steals += u64::from(stolen.is_some());
            stolen
        });
        let Some(node) = node else {
            if shared.pending.load(Ordering::Acquire) == 0
                || shared.poisoned.load(Ordering::Acquire)
            {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        process(node, local, &mut scratch, shared, &mut stats);
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    stats
}

/// Marks the search truncated and records the dropped subtree's bound.
fn drop_subtree(shared: &Shared<'_>, bound: f64, deadline: bool) {
    lock(&shared.open_bounds).push(bound);
    shared.exhausted.store(true, Ordering::Release);
    if deadline {
        shared.deadline_hit.store(true, Ordering::Release);
    }
}

/// One node: deadline poll, bound prune, node-budget ticket, LP solve,
/// then either an incumbent update or a branch pushing two children onto
/// the local deque with the nearest-integer child on top.
fn process(
    node: Node,
    local: &Mutex<VecDeque<Node>>,
    scratch: &mut SimplexScratch,
    shared: &Shared<'_>,
    stats: &mut WorkerStats,
) {
    let opts = shared.opts;
    stats.polls += 1;
    if opts.lp.deadline.is_expired() {
        drop_subtree(shared, node.parent_bound, true);
        return;
    }
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if node.parent_bound >= best - gap_slack(best) {
        stats.pruned += 1;
        return;
    }
    // Claiming the ticket and checking the budget is one atomic step, so
    // concurrent workers can never solve more than `max_nodes` LPs.
    let ticket = shared
        .explored
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < opts.max_nodes).then_some(n + 1)
        });
    if ticket.is_err() {
        drop_subtree(shared, node.parent_bound, false);
        return;
    }

    scratch.set_node_bounds(&node.overrides);
    let (sol, polls) = scratch.solve_fresh(&opts.lp);
    stats.lp_solves += 1;
    stats.pivots += sol.iterations as u64;
    stats.polls += polls as u64;

    match sol.status {
        LpStatus::Infeasible => return,
        // With bounded integers this means the continuous part is
        // unbounded: no incumbent can bound it.
        LpStatus::Unbounded => return drop_subtree(shared, f64::NEG_INFINITY, false),
        LpStatus::IterLimit => return drop_subtree(shared, node.parent_bound, false),
        LpStatus::TimeLimit => return drop_subtree(shared, node.parent_bound, true),
        LpStatus::Optimal => {}
    }
    let bound = sol.objective;
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if bound >= best - gap_slack(best) {
        stats.pruned += 1;
        return;
    }
    // Most fractional integer variable.
    let mut branch: Option<(usize, f64)> = None;
    let mut best_frac = INT_TOL;
    for &j in &shared.int_cols {
        let v = sol.x[j];
        let frac = (v - v.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            branch = Some((j, v));
        }
    }
    match branch {
        None => {
            let mut x = sol.x;
            for &j in &shared.int_cols {
                x[j] = x[j].round();
            }
            let obj = shared.p.objective_value(&x);
            if obj <= f64::from_bits(shared.best_bits.load(Ordering::Acquire))
                && shared.p.is_feasible(&x, 1e-5)
            {
                let mut inc = lock(&shared.incumbent);
                let better = match &inc.x {
                    None => obj < inc.obj || inc.obj.is_infinite(),
                    Some(bx) => obj < inc.obj || (obj == inc.obj && lex_less(&x, bx)),
                };
                if better {
                    inc.obj = obj;
                    inc.x = Some(x);
                    shared.best_bits.store(obj.to_bits(), Ordering::Release);
                    stats.incumbent_updates += 1;
                }
            }
        }
        Some((j, v)) => {
            let floor = v.floor();
            let (node_lo, node_hi) = scratch.bounds(j);
            let child = |lo: f64, hi: f64| {
                let mut overrides = node.overrides.clone();
                overrides.push((j, lo, hi));
                fix_override(&mut overrides, j);
                Node {
                    overrides,
                    parent_bound: bound,
                }
            };
            let lo_child = child(node_lo, floor);
            let hi_child = child(floor + 1.0, node_hi);
            // LIFO deque: push the nearest-integer child last so it pops
            // first.
            shared.pending.fetch_add(2, Ordering::AcqRel);
            let mut local = lock(local);
            if v - floor <= 0.5 {
                local.push_back(hi_child);
                local.push_back(lo_child);
            } else {
                local.push_back(lo_child);
                local.push_back(hi_child);
            }
        }
    }
}

/// Absolute slack corresponding to the relative gap `REL_GAP`.
fn gap_slack(best_obj: f64) -> f64 {
    if best_obj.is_finite() {
        REL_GAP * best_obj.abs().max(1.0)
    } else {
        0.0
    }
}

/// Collapse repeated overrides of the same column into their intersection
/// (keeps the override list minimal and the interval consistent).
fn fix_override(ov: &mut Vec<(usize, f64, f64)>, j: usize) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for &(c, l, h) in ov.iter() {
        if c == j {
            lo = lo.max(l);
            hi = hi.min(h);
        }
    }
    ov.retain(|&(c, _, _)| c != j);
    // Branching on a fractional value gives floor < ceil, so never empty.
    if lo > hi {
        unreachable!("branching produced an empty interval");
    }
    ov.push((j, lo, hi));
}

/// Strict lexicographic order on solution vectors (the incumbent
/// tie-break; inputs are finite by construction).
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return true;
        }
        if x > y {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Worker counts every test runs with: one worker, and enough to make
    /// steals and concurrent incumbent updates likely.
    const THREADS: [usize; 2] = [1, 4];

    fn threaded(threads: usize) -> MilpOptions {
        MilpOptions {
            threads,
            ..Default::default()
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Six binaries of weight 1.5 under capacity 4: optimum takes 2 items,
    /// and the root LP is fractional, so the search needs several nodes.
    fn six_item_knapsack() -> Problem {
        let mut p = Problem::new();
        let cols: Vec<_> = (0..6).map(|_| p.add_bin_col(-1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 4.0, &coeffs);
        p
    }

    /// Random binary problem with random costs, so the LP vertices and the
    /// MILP optimum are generically unique (the documented determinism
    /// regime).
    #[allow(clippy::type_complexity)]
    fn random_binary_problem(rng: &mut StdRng) -> (Problem, Vec<f64>, Vec<(Vec<f64>, f64)>) {
        let n = rng.gen_range(2..8usize);
        let m = rng.gen_range(1..5usize);
        let mut p = Problem::new();
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let cols: Vec<_> = obj.iter().map(|&c| p.add_bin_col(c)).collect();
        let mut rows = Vec::new();
        for _ in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let rhs = rng.gen_range(-2.0..4.0);
            let cc: Vec<_> = cols.iter().zip(&coeffs).map(|(&c, &a)| (c, a)).collect();
            p.add_row(Sense::Le, rhs, &cc);
            rows.push((coeffs, rhs));
        }
        (p, obj, rows)
    }

    fn brute_force(n: usize, obj: &[f64], rows: &[(Vec<f64>, f64)]) -> f64 {
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            let feas = rows
                .iter()
                .all(|(c, rhs)| c.iter().zip(&x).map(|(a, v)| a * v).sum::<f64>() <= rhs + 1e-9);
            if feas {
                best = best.min(obj.iter().zip(&x).map(|(c, v)| c * v).sum());
            }
        }
        best
    }

    #[test]
    fn knapsack_3_items() {
        // max 5a + 4b + 3c st 2a + 3b + c <= 5, binary -> optimum 9 (a,b)
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        let b = p.add_bin_col(-4.0);
        let c = p.add_bin_col(-3.0);
        p.add_row(Sense::Le, 5.0, &[(a, 2.0), (b, 3.0), (c, 1.0)]);
        for threads in THREADS {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.objective, -9.0);
            assert_eq!(r.x, vec![1.0, 1.0, 0.0], "threads {threads}");
            assert!(r.nodes >= 1, "threads {threads}");
        }
    }

    #[test]
    fn integrality_changes_optimum() {
        // max x st 2x <= 3: LP gives 1.5, ILP gives 1
        let mut p = Problem::new();
        let x = p.add_int_col(0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 3.0, &[(x, 2.0)]);
        for threads in THREADS {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.objective, -1.0);
            assert_close(r.x[0], 1.0);
        }
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new();
        let x = p.add_bin_col(1.0);
        let y = p.add_bin_col(1.0);
        p.add_row(Sense::Ge, 3.0, &[(x, 1.0), (y, 1.0)]);
        for threads in THREADS {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Infeasible, "threads {threads}");
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -y - 0.5 x st y <= 2.5 (y int), x <= y, x cont in [0, 10]
        // y = 2, x = 2 -> obj = -3
        let mut p = Problem::new();
        let x = p.add_col(0.0, 10.0, -0.5);
        let y = p.add_int_col(0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 2.5, &[(y, 1.0)]);
        p.add_row(Sense::Le, 0.0, &[(x, 1.0), (y, -1.0)]);
        for threads in THREADS {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.x[1], 2.0);
            assert_close(r.objective, -3.0);
        }
    }

    /// 3x3 assignment problem cross-checked against brute force.
    #[test]
    fn assignment_3x3_matches_bruteforce() {
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut p = Problem::new();
        let mut cols = Vec::new();
        for row in &cost {
            for &c in row {
                cols.push(p.add_bin_col(c));
            }
        }
        for i in 0..3 {
            let coeffs: Vec<_> = (0..3).map(|j| (cols[i * 3 + j], 1.0)).collect();
            p.add_row(Sense::Eq, 1.0, &coeffs);
        }
        for j in 0..3 {
            let coeffs: Vec<_> = (0..3).map(|i| (cols[i * 3 + j], 1.0)).collect();
            p.add_row(Sense::Eq, 1.0, &coeffs);
        }
        // brute force over 6 permutations
        let mut best = f64::INFINITY;
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for perm in perms {
            let v: f64 = (0..3).map(|i| cost[i][perm[i]]).sum();
            best = best.min(v);
        }
        for threads in THREADS {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.objective, best);
        }
    }

    #[test]
    fn warm_incumbent_accepted_and_never_worse() {
        // a=1,b=0 (2<=4, -5) beats a=0,b=1 (-4); a=b=1 is infeasible (5>4)
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        let b = p.add_bin_col(-4.0);
        p.add_row(Sense::Le, 4.0, &[(a, 2.0), (b, 3.0)]);
        for threads in THREADS {
            let opts = MilpOptions {
                initial_incumbent: Some(vec![1.0, 0.0]),
                ..threaded(threads)
            };
            let r = solve_milp(&p, &opts);
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.objective, -5.0);
        }
    }

    #[test]
    fn bogus_incumbent_rejected() {
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        p.add_row(Sense::Le, 0.0, &[(a, 1.0)]);
        for threads in THREADS {
            let opts = MilpOptions {
                initial_incumbent: Some(vec![1.0]),
                ..threaded(threads)
            };
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve_milp(&p, &opts)));
            assert!(
                r.is_err(),
                "threads {threads}: infeasible incumbent accepted"
            );
        }
    }

    #[test]
    fn node_budget_respected_with_incumbent() {
        // A problem needing several nodes: budget 1 solves exactly one LP
        // (no worker overruns it), returns without panicking, and the full
        // search still proves the optimum.
        let p = six_item_knapsack();
        for threads in THREADS {
            let opts = MilpOptions {
                max_nodes: 1,
                ..threaded(threads)
            };
            let r = solve_milp(&p, &opts);
            assert!(
                matches!(
                    r.status,
                    MilpStatus::Feasible | MilpStatus::Unknown | MilpStatus::Optimal
                ),
                "threads {threads}"
            );
            assert!(r.nodes <= 1, "threads {threads}: {} nodes", r.nodes);
            let full = solve_milp(&p, &threaded(threads));
            assert_eq!(full.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(full.objective, -2.0); // floor(4/1.5) = 2 items
        }
    }

    /// Larger budgets on a deeper tree, repeated so workers contend for the
    /// last tickets: one worker solves exactly the first `budget` nodes of
    /// the unbudgeted search, and no worker count ever exceeds the budget.
    #[test]
    fn node_budget_is_exact_under_contention() {
        let mut p = Problem::new();
        let cols: Vec<_> = (0..10)
            .map(|i| p.add_bin_col(-1.0 - 0.01 * i as f64))
            .collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 7.0, &coeffs);
        let full = solve_milp(&p, &threaded(1));
        assert!(full.nodes > 8, "tree too shallow: {} nodes", full.nodes);
        for budget in [2, 3, 5, 8] {
            let one = solve_milp(
                &p,
                &MilpOptions {
                    max_nodes: budget,
                    ..threaded(1)
                },
            );
            assert_eq!(one.nodes, budget);
            for threads in [4, 8] {
                for rep in 0..20 {
                    let r = solve_milp(
                        &p,
                        &MilpOptions {
                            max_nodes: budget,
                            ..threaded(threads)
                        },
                    );
                    assert!(
                        r.nodes <= budget,
                        "budget {budget} threads {threads} rep {rep}: {} nodes",
                        r.nodes
                    );
                }
            }
        }
    }

    #[test]
    fn expired_deadline_keeps_warm_incumbent() {
        // With a pre-expired deadline the solver must return immediately,
        // flag deadline_hit, and still hand back the warm incumbent.
        let p = six_item_knapsack();
        let mut inc = vec![0.0; 6];
        inc[0] = 1.0;
        let expired = || SimplexOptions {
            deadline: crate::deadline::Deadline::after(std::time::Duration::ZERO),
            ..Default::default()
        };
        for threads in THREADS {
            let opts = MilpOptions {
                lp: expired(),
                initial_incumbent: Some(inc.clone()),
                ..threaded(threads)
            };
            let r = solve_milp(&p, &opts);
            assert!(r.deadline_hit, "threads {threads}");
            assert_eq!(r.status, MilpStatus::Feasible, "threads {threads}");
            assert_eq!(r.x, inc, "threads {threads}");
            // without an incumbent it reports Unknown, still without panicking
            let r = solve_milp(
                &p,
                &MilpOptions {
                    lp: expired(),
                    ..threaded(threads)
                },
            );
            assert!(r.deadline_hit, "threads {threads}");
            assert_eq!(r.status, MilpStatus::Unknown, "threads {threads}");
        }
    }

    #[test]
    fn random_binary_problems_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 25;
        let mut one_worker_nodes = 0;
        for trial in 0..trials {
            let (p, obj, rows) = random_binary_problem(&mut rng);
            let best = brute_force(p.num_cols(), &obj, &rows);
            for threads in THREADS {
                let r = solve_milp(&p, &threaded(threads));
                if threads == 1 {
                    one_worker_nodes += r.nodes;
                }
                if best.is_finite() {
                    assert_eq!(
                        r.status,
                        MilpStatus::Optimal,
                        "trial {trial} threads {threads}"
                    );
                    assert!(
                        (r.objective - best).abs() < 1e-5,
                        "trial {trial} threads {threads}: milp {} vs brute {best}",
                        r.objective
                    );
                } else {
                    assert_eq!(
                        r.status,
                        MilpStatus::Infeasible,
                        "trial {trial} threads {threads}"
                    );
                }
            }
        }
        // some trials branch, so the search is tested past the root
        assert!(
            one_worker_nodes > trials,
            "{one_worker_nodes} nodes over {trials} trials"
        );
    }

    /// The determinism property test named in CI: over random binary
    /// problems, 2, 4 and 8 workers return the exact objective bits and `x`
    /// vector of one worker, and all match brute force.
    #[test]
    fn parallel_bnb_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(777);
        let trials = 25;
        let mut one_worker_nodes = 0;
        for trial in 0..trials {
            let (p, obj, rows) = random_binary_problem(&mut rng);
            let one = solve_milp(&p, &threaded(1));
            one_worker_nodes += one.nodes;
            let brute = brute_force(p.num_cols(), &obj, &rows);
            if one.status == MilpStatus::Optimal {
                assert!(
                    (one.objective - brute).abs() < 1e-5,
                    "trial {trial}: one worker {} vs brute {brute}",
                    one.objective
                );
            }
            for threads in [2usize, 4, 8] {
                let many = solve_milp(&p, &threaded(threads));
                assert_eq!(many.status, one.status, "trial {trial} threads {threads}");
                if one.status == MilpStatus::Optimal {
                    assert_eq!(
                        many.objective.to_bits(),
                        one.objective.to_bits(),
                        "trial {trial} threads {threads}: {} vs {}",
                        many.objective,
                        one.objective
                    );
                    assert_eq!(many.x, one.x, "trial {trial} threads {threads}");
                }
            }
        }
        assert!(
            one_worker_nodes > trials,
            "{one_worker_nodes} nodes over {trials} trials"
        );
    }

    /// Assignment problems stress equality rows (phase 1 must drive an
    /// artificial out of every row); four workers must agree with one on
    /// the permutation cost.
    #[test]
    fn random_assignment_problems_match_one_worker() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let n = rng.gen_range(2..5usize);
            let mut p = Problem::new();
            let cols: Vec<_> = (0..n * n)
                .map(|_| p.add_bin_col(rng.gen_range(0.0..9.0)))
                .collect();
            for i in 0..n {
                let cc: Vec<_> = (0..n).map(|j| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            for j in 0..n {
                let cc: Vec<_> = (0..n).map(|i| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            let one = solve_milp(&p, &threaded(1));
            let many = solve_milp(&p, &threaded(4));
            assert_eq!(many.status, MilpStatus::Optimal, "trial {trial}");
            assert_eq!(
                many.objective.to_bits(),
                one.objective.to_bits(),
                "trial {trial}"
            );
            assert_eq!(many.x, one.x, "trial {trial}");
        }
    }
}
