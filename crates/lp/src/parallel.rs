//! Work-stealing parallel branch-and-bound over the simplex relaxation.
//!
//! [`solve_milp_parallel`] explores the same tree as the serial solver in
//! [`crate::milp`] but spreads nodes over `opts.threads` workers, each
//! owning a LIFO deque (depth-first locally, like the serial stack) whose
//! oldest entries — the nodes closest to the root, i.e. the largest
//! subtrees — can be stolen by idle siblings. A shared [`Injector`] seeds
//! the root and absorbs nothing else; after that, load balance is pure
//! stealing.
//!
//! ## Why node results don't depend on interleaving
//!
//! Each node carries everything its LP solve depends on: the accumulated
//! bound overrides *and* the parent's optimal basis
//! ([`BasisSnapshot`]), captured at branch time. A worker installs both
//! into its private [`SimplexScratch`] and repairs the basis with a
//! bounded dual simplex ([`SimplexScratch::resolve_from_basis`]), falling
//! back to the full two-phase solve on any stall — both paths are pure
//! functions of `(overrides, snapshot)`, so a node produces bit-identical
//! `(status, objective, x)` no matter which worker runs it or when.
//!
//! ## Determinism rule
//!
//! The shared incumbent is ordered by `(objective, x)`: a candidate
//! replaces the incumbent when its objective is strictly smaller, or equal
//! with a lexicographically smaller solution vector. Combined with
//! interleaving-independent node results, the returned optimum is
//! bit-identical for any thread count whenever the true optimum is
//! separated from the runner-up by more than `rel_gap·max(|obj|, 1)` (the
//! serial pruning slack): every schedule then explores some node whose
//! solution is that optimum, and the `(objective, x)` order picks the same
//! winner regardless of discovery order. Optima tied within the gap slack
//! may be pruned against each other in schedule-dependent order — exactly
//! the tolerance the serial solver already accepts — and budget- or
//! deadline-truncated searches are best-effort in both solvers.
//! `nodes`/`best_bound` are diagnostics and may vary across schedules.

use crate::milp::{fix_override, gap_slack, MilpOptions, MilpResult, MilpStatus};
use crate::problem::Problem;
use crate::simplex::{BasisSnapshot, LpStatus, SimplexScratch};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use rahtm_obs::counters;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A branch-and-bound node in flight between workers.
struct PNode {
    /// `(col, lower, upper)` overrides accumulated from the root.
    overrides: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (prune before solving).
    parent_bound: f64,
    /// Parent's optimal basis for the dual-simplex warm start (shared by
    /// both children; `None` when the parent had no reusable basis).
    snapshot: Option<Arc<BasisSnapshot>>,
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
    injector: Injector<PNode>,
    stealers: Vec<Stealer<PNode>>,
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

/// Parallel counterpart of [`crate::milp::solve_milp`]; entered via
/// `MilpOptions::threads > 1`. See the module docs for the determinism
/// contract relative to the serial solver.
///
/// # Panics
/// Panics if a provided incumbent is not feasible/integral for `p`.
pub fn solve_milp_parallel(p: &Problem, opts: &MilpOptions) -> MilpResult {
    let threads = opts.threads.max(2);
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

    let workers: Vec<Worker<PNode>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let shared = Shared {
        p,
        opts,
        int_cols: p.integer_cols().iter().map(|c| c.index()).collect(),
        injector: Injector::new(),
        stealers: workers.iter().map(Worker::stealer).collect(),
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
    shared.injector.push(PNode {
        overrides: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
        snapshot: None,
    });

    let stats: Vec<WorkerStats> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = &shared;
                scope.spawn(move |_| worker_loop(i, local, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(s) => s,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .unwrap_or_default();

    let explored = shared.explored.load(Ordering::Acquire);
    let exhausted = shared.exhausted.load(Ordering::Acquire);
    let deadline_hit = shared.deadline_hit.load(Ordering::Acquire);
    let Incumbent { obj: best_obj, x: best_x } = shared.incumbent.into_inner();
    let open_bounds = shared.open_bounds.into_inner();

    let pruned: u64 = stats.iter().map(|s| s.pruned).sum();
    let steals: u64 = stats.iter().map(|s| s.steals).sum();
    let updates: u64 = stats.iter().map(|s| s.incumbent_updates).sum();
    let rec = &opts.lp.recorder;
    rec.add(counters::BNB_NODES_EXPLORED, explored as u64);
    rec.add(counters::BNB_NODES_PRUNED, pruned);
    rec.add(counters::DEADLINE_CHECKS, stats.iter().map(|s| s.polls).sum());
    rec.add(counters::SIMPLEX_SOLVES, stats.iter().map(|s| s.lp_solves).sum());
    rec.add(counters::SIMPLEX_PIVOTS, stats.iter().map(|s| s.pivots).sum());
    rec.add(counters::MILP_STEALS, steals);
    rec.add(counters::MILP_INCUMBENT_UPDATES, updates);

    let open_min = open_bounds.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_bound = if exhausted {
        open_min.min(best_obj)
    } else {
        best_obj
    };
    match best_x {
        Some(x) => MilpResult {
            status: if exhausted && best_bound < best_obj - gap_slack(best_obj, opts.rel_gap) {
                MilpStatus::Feasible
            } else {
                MilpStatus::Optimal
            },
            objective: best_obj,
            x,
            nodes: explored,
            best_bound,
            deadline_hit,
        },
        None => MilpResult {
            status: if exhausted {
                MilpStatus::Unknown
            } else {
                MilpStatus::Infeasible
            },
            objective: f64::NAN,
            x: Vec::new(),
            nodes: explored,
            best_bound,
            deadline_hit,
        },
    }
}

fn worker_loop(index: usize, local: Worker<PNode>, shared: &Shared<'_>) -> WorkerStats {
    let _guard = PanicGuard(&shared.poisoned);
    let mut scratch = SimplexScratch::new(shared.p);
    let mut stats = WorkerStats::default();
    loop {
        let node = local
            .pop()
            .or_else(|| shared.injector.steal().success())
            .or_else(|| {
                let k = shared.stealers.len();
                (1..k).find_map(|off| {
                    if let Steal::Success(n) = shared.stealers[(index + off) % k].steal() {
                        stats.steals += 1;
                        Some(n)
                    } else {
                        None
                    }
                })
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
        process(node, &local, &mut scratch, shared, &mut stats);
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    stats
}

/// Mirrors one iteration of the serial solver's node loop: budget check,
/// deadline poll, bound prune, LP (re-)solve, then either an incumbent
/// update or a branch pushing two children onto the local deque with the
/// nearest-integer child on top.
fn process(
    node: PNode,
    local: &Worker<PNode>,
    scratch: &mut SimplexScratch,
    shared: &Shared<'_>,
    stats: &mut WorkerStats,
) {
    let opts = shared.opts;
    if shared.explored.load(Ordering::Acquire) >= opts.max_nodes {
        shared.exhausted.store(true, Ordering::Release);
        shared.open_bounds.lock().push(node.parent_bound);
        return;
    }
    stats.polls += 1;
    if opts.lp.deadline.is_expired() {
        shared.exhausted.store(true, Ordering::Release);
        shared.deadline_hit.store(true, Ordering::Release);
        shared.open_bounds.lock().push(node.parent_bound);
        return;
    }
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if node.parent_bound >= best - gap_slack(best, opts.rel_gap) {
        stats.pruned += 1;
        return;
    }
    shared.explored.fetch_add(1, Ordering::AcqRel);

    scratch.set_node_bounds(&node.overrides);
    let (sol, polls) = match &node.snapshot {
        Some(snap) => scratch.resolve_from_basis(snap, &opts.lp),
        None => scratch.solve_fresh(&opts.lp),
    };
    stats.lp_solves += 1;
    stats.pivots += sol.iterations as u64;
    stats.polls += polls as u64;

    match sol.status {
        LpStatus::Infeasible => return,
        LpStatus::Unbounded => {
            shared.open_bounds.lock().push(f64::NEG_INFINITY);
            shared.exhausted.store(true, Ordering::Release);
            return;
        }
        LpStatus::IterLimit => {
            shared.open_bounds.lock().push(node.parent_bound);
            shared.exhausted.store(true, Ordering::Release);
            return;
        }
        LpStatus::TimeLimit => {
            shared.open_bounds.lock().push(node.parent_bound);
            shared.exhausted.store(true, Ordering::Release);
            shared.deadline_hit.store(true, Ordering::Release);
            return;
        }
        LpStatus::Optimal => {}
    }
    let bound = sol.objective;
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if bound >= best - gap_slack(best, opts.rel_gap) {
        stats.pruned += 1;
        return;
    }
    // Most fractional integer variable.
    let mut branch: Option<(usize, f64)> = None;
    let mut best_frac = opts.int_tol;
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
            let mut x = sol.x.clone();
            for &j in &shared.int_cols {
                x[j] = x[j].round();
            }
            let obj = shared.p.objective_value(&x);
            if obj <= f64::from_bits(shared.best_bits.load(Ordering::Acquire))
                && shared.p.is_feasible(&x, 1e-5)
            {
                let mut inc = shared.incumbent.lock();
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
            let snap = scratch.snapshot().map(Arc::new);
            let lo_child = {
                let mut ov = node.overrides.clone();
                ov.push((j, node_lo.max(f64::NEG_INFINITY), floor));
                fix_override(&mut ov, j);
                PNode {
                    overrides: ov,
                    parent_bound: bound,
                    snapshot: snap.clone(),
                }
            };
            let hi_child = {
                let mut ov = node.overrides.clone();
                ov.push((j, floor + 1.0, node_hi.min(f64::INFINITY)));
                fix_override(&mut ov, j);
                PNode {
                    overrides: ov,
                    parent_bound: bound,
                    snapshot: snap,
                }
            };
            // LIFO deque: push the nearest-integer child last so it pops
            // first, matching the serial exploration order.
            shared.pending.fetch_add(2, Ordering::AcqRel);
            if v - floor <= 0.5 {
                local.push(hi_child);
                local.push(lo_child);
            } else {
                local.push(lo_child);
                local.push(hi_child);
            }
        }
    }
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
    use crate::milp::{solve_milp, MilpOptions, MilpStatus};
    use crate::problem::{Problem, Sense};
    use crate::simplex::SimplexOptions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn threaded(n: usize) -> MilpOptions {
        MilpOptions {
            threads: n,
            ..Default::default()
        }
    }

    /// Random binary problem in the same family the serial suite brute
    ///-forces (random costs make both the LP vertices and the MILP optimum
    /// generically unique, which is the documented determinism regime).
    #[allow(clippy::type_complexity)]
    fn random_binary_problem(rng: &mut StdRng) -> (Problem, Vec<f64>, Vec<(Vec<f64>, f64)>) {
        let n = rng.gen_range(2..8usize);
        let m = rng.gen_range(1..5usize);
        let mut p = Problem::new();
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let cols: Vec<_> = obj
            .iter()
            .enumerate()
            .map(|(i, &c)| p.add_bin_col(&format!("x{i}"), c))
            .collect();
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

    /// The determinism property test named in CI: over random binary
    /// assignment-style problems, the parallel solver returns the exact
    /// serial objective bits and `x` vector for threads ∈ {2, 4, 8}, and
    /// both match brute force.
    #[test]
    fn parallel_bnb_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..25 {
            let (p, obj, rows) = random_binary_problem(&mut rng);
            let serial = solve_milp(&p, &MilpOptions::default());
            let brute = brute_force(p.num_cols(), &obj, &rows);
            for threads in [2usize, 4, 8] {
                let par = solve_milp(&p, &threaded(threads));
                assert_eq!(par.status, serial.status, "trial {trial} threads {threads}");
                if serial.status == MilpStatus::Optimal {
                    assert_eq!(
                        par.objective.to_bits(),
                        serial.objective.to_bits(),
                        "trial {trial} threads {threads}: {} vs {}",
                        par.objective,
                        serial.objective
                    );
                    assert_eq!(par.x, serial.x, "trial {trial} threads {threads}");
                    assert!(
                        (par.objective - brute).abs() < 1e-5,
                        "trial {trial}: parallel {} vs brute {brute}",
                        par.objective
                    );
                }
            }
        }
    }

    #[test]
    fn knapsack_parallel_matches_serial() {
        let mut p = Problem::new();
        let a = p.add_bin_col("a", -5.0);
        let b = p.add_bin_col("b", -4.0);
        let c = p.add_bin_col("c", -3.0);
        p.add_row(Sense::Le, 5.0, &[(a, 2.0), (b, 3.0), (c, 1.0)]);
        let r = solve_milp(&p, &threaded(4));
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - -9.0).abs() < 1e-6);
        assert_eq!(r.x, vec![1.0, 1.0, 0.0]);
        assert!(r.nodes >= 1);
    }

    #[test]
    fn infeasible_detected_in_parallel() {
        let mut p = Problem::new();
        let x = p.add_bin_col("x", 1.0);
        let y = p.add_bin_col("y", 1.0);
        p.add_row(Sense::Ge, 3.0, &[(x, 1.0), (y, 1.0)]);
        let r = solve_milp(&p, &threaded(4));
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous_parallel() {
        let mut p = Problem::new();
        let x = p.add_col("x", 0.0, 10.0, -0.5);
        let y = p.add_int_col("y", 0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 2.5, &[(y, 1.0)]);
        p.add_row(Sense::Le, 0.0, &[(x, 1.0), (y, -1.0)]);
        let r = solve_milp(&p, &threaded(4));
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.x[1] - 2.0).abs() < 1e-6);
        assert!((r.objective - -3.0).abs() < 1e-6);
    }

    #[test]
    fn expired_deadline_returns_warm_incumbent_multithreaded() {
        let mut p = Problem::new();
        let cols: Vec<_> = (0..6).map(|i| p.add_bin_col(&format!("x{i}"), -1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 4.0, &coeffs);
        let mut inc = vec![0.0; 6];
        inc[0] = 1.0;
        let opts = MilpOptions {
            lp: SimplexOptions {
                deadline: crate::deadline::Deadline::after(std::time::Duration::ZERO),
                ..Default::default()
            },
            initial_incumbent: Some(inc.clone()),
            threads: 4,
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert!(r.deadline_hit);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!(r.x, inc);
    }

    #[test]
    fn node_budget_respected_with_incumbent() {
        let mut p = Problem::new();
        let cols: Vec<_> = (0..6).map(|i| p.add_bin_col(&format!("x{i}"), -1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 4.0, &coeffs);
        let opts = MilpOptions {
            max_nodes: 1,
            threads: 4,
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert!(matches!(
            r.status,
            MilpStatus::Feasible | MilpStatus::Unknown | MilpStatus::Optimal
        ));
        // budget overrun is bounded by the worker count
        assert!(r.nodes <= 1 + 4);
    }

    #[test]
    #[should_panic]
    fn bogus_incumbent_rejected_in_parallel() {
        let mut p = Problem::new();
        let a = p.add_bin_col("a", -5.0);
        p.add_row(Sense::Le, 0.0, &[(a, 1.0)]);
        let opts = MilpOptions {
            initial_incumbent: Some(vec![1.0]),
            threads: 2,
            ..Default::default()
        };
        solve_milp(&p, &opts);
    }

    /// Assignment problems stress equality rows (phase-1-heavy warm
    /// starts); parallel must agree with serial on the permutation cost.
    #[test]
    fn random_assignment_problems_match_serial() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let n = rng.gen_range(2..5usize);
            let mut p = Problem::new();
            let mut cols = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    cols.push(p.add_bin_col(&format!("x{i}{j}"), rng.gen_range(0.0..9.0)));
                }
            }
            for i in 0..n {
                let cc: Vec<_> = (0..n).map(|j| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            for j in 0..n {
                let cc: Vec<_> = (0..n).map(|i| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            let serial = solve_milp(&p, &MilpOptions::default());
            let par = solve_milp(&p, &threaded(4));
            assert_eq!(par.status, MilpStatus::Optimal, "trial {trial}");
            assert_eq!(
                par.objective.to_bits(),
                serial.objective.to_bits(),
                "trial {trial}"
            );
            assert_eq!(par.x, serial.x, "trial {trial}");
        }
    }
}
