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
//! ## Depth-first search
//!
//! [`solve_milp`] runs the tree on the calling thread: it pops nodes from
//! one stack (LIFO, so the search is depth-first) and solves each in one
//! simplex scratch. Every node runs the full two-phase simplex under its
//! accumulated bound overrides, so a node's `(status, objective, x)`
//! depends on its overrides alone. Callers that want parallelism run
//! several solves side by side.
//!
//! ## Determinism rule
//!
//! Nodes are explored in one fixed depth-first order: after branching, the
//! nearest-integer child is solved first. The incumbent is ordered by
//! `(objective, x)`: a candidate replaces it when its objective is strictly
//! smaller, or equal with a lexicographically smaller solution vector.

use crate::problem::Problem;
use crate::simplex::{LpStatus, SimplexOptions, SimplexScratch};
use rahtm_obs::counters;

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
    /// Ignored: the search always runs on the calling thread. Kept only
    /// for the benchmark driver that still sets it.
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

/// A branch-and-bound node waiting on the stack.
struct Node {
    /// `(col, lower, upper)` overrides accumulated from the root.
    overrides: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (prune before solving).
    parent_bound: f64,
}

/// Solves the mixed-integer problem `p` by depth-first branch and bound on
/// the calling thread.
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

    let int_cols: Vec<usize> = p.integer_cols().iter().map(|c| c.index()).collect();
    let mut scratch = SimplexScratch::new(p);
    let mut stack = vec![Node {
        overrides: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
    }];
    let mut nodes = 0usize;
    let (mut pruned, mut incumbent_updates, mut pivots, mut polls) = (0u64, 0u64, 0u64, 0u64);
    // Parent bounds of subtrees dropped by budget/deadline/LP limits.
    let mut open_bounds: Vec<f64> = Vec::new();
    let mut deadline_hit = false;
    // Marks the search truncated and records the dropped subtree's bound.
    let mut drop_subtree = |bound: f64, deadline: bool| {
        open_bounds.push(bound);
        deadline_hit |= deadline;
    };

    while let Some(node) = stack.pop() {
        polls += 1;
        if opts.lp.deadline.is_expired() {
            drop_subtree(node.parent_bound, true);
            continue;
        }
        if node.parent_bound >= best_obj - gap_slack(best_obj) {
            pruned += 1;
            continue;
        }
        if nodes >= opts.max_nodes {
            drop_subtree(node.parent_bound, false);
            continue;
        }
        nodes += 1;

        scratch.set_node_bounds(&node.overrides);
        let (sol, lp_polls) = scratch.solve_fresh(&opts.lp);
        pivots += sol.iterations as u64;
        polls += lp_polls as u64;

        match sol.status {
            LpStatus::Infeasible => continue,
            // With bounded integers this means the continuous part is
            // unbounded: no incumbent can bound it.
            LpStatus::Unbounded => {
                drop_subtree(f64::NEG_INFINITY, false);
                continue;
            }
            LpStatus::IterLimit => {
                drop_subtree(node.parent_bound, false);
                continue;
            }
            LpStatus::TimeLimit => {
                drop_subtree(node.parent_bound, true);
                continue;
            }
            LpStatus::Optimal => {}
        }
        let bound = sol.objective;
        if bound >= best_obj - gap_slack(best_obj) {
            pruned += 1;
            continue;
        }
        // Most fractional integer variable.
        let mut branch: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOL;
        for &j in &int_cols {
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
                for &j in &int_cols {
                    x[j] = x[j].round();
                }
                let obj = p.objective_value(&x);
                if obj <= best_obj && p.is_feasible(&x, 1e-5) {
                    let better = match &best_x {
                        None => obj < best_obj || best_obj.is_infinite(),
                        Some(bx) => obj < best_obj || (obj == best_obj && lex_less(&x, bx)),
                    };
                    if better {
                        best_obj = obj;
                        best_x = Some(x);
                        incumbent_updates += 1;
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
                // Push the nearest-integer child last so it pops first.
                if v - floor <= 0.5 {
                    stack.extend([hi_child, lo_child]);
                } else {
                    stack.extend([lo_child, hi_child]);
                }
            }
        }
    }

    let rec = &opts.lp.recorder;
    rec.add(counters::BNB_NODES_EXPLORED, nodes as u64);
    rec.add(counters::BNB_NODES_PRUNED, pruned);
    rec.add(counters::DEADLINE_CHECKS, polls);
    rec.add(counters::SIMPLEX_SOLVES, nodes as u64);
    rec.add(counters::SIMPLEX_PIVOTS, pivots);
    rec.add(counters::MILP_INCUMBENT_UPDATES, incumbent_updates);

    let exhausted = !open_bounds.is_empty();
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
    /// MILP optimum are generically unique.
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

    /// Every permutation of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for pos in 0..n {
                let mut perm = rest.clone();
                perm.insert(pos, n - 1);
                out.push(perm);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn knapsack_3_items() {
        // max 5a + 4b + 3c st 2a + 3b + c <= 5, binary -> optimum 9 (a,b)
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        let b = p.add_bin_col(-4.0);
        let c = p.add_bin_col(-3.0);
        p.add_row(Sense::Le, 5.0, &[(a, 2.0), (b, 3.0), (c, 1.0)]);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -9.0);
        assert_eq!(r.x, vec![1.0, 1.0, 0.0]);
        assert!(r.nodes >= 1);
    }

    #[test]
    fn integrality_changes_optimum() {
        // max x st 2x <= 3: LP gives 1.5, ILP gives 1
        let mut p = Problem::new();
        let x = p.add_int_col(0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 3.0, &[(x, 2.0)]);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -1.0);
        assert_close(r.x[0], 1.0);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new();
        let x = p.add_bin_col(1.0);
        let y = p.add_bin_col(1.0);
        p.add_row(Sense::Ge, 3.0, &[(x, 1.0), (y, 1.0)]);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
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
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[1], 2.0);
        assert_close(r.objective, -3.0);
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
        let best = permutations(3)
            .iter()
            .map(|perm| (0..3).map(|i| cost[i][perm[i]]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, best);
    }

    #[test]
    fn warm_incumbent_accepted_and_never_worse() {
        // a=1,b=0 (2<=4, -5) beats a=0,b=1 (-4); a=b=1 is infeasible (5>4)
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        let b = p.add_bin_col(-4.0);
        p.add_row(Sense::Le, 4.0, &[(a, 2.0), (b, 3.0)]);
        let opts = MilpOptions {
            initial_incumbent: Some(vec![1.0, 0.0]),
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -5.0);
    }

    #[test]
    fn bogus_incumbent_rejected() {
        let mut p = Problem::new();
        let a = p.add_bin_col(-5.0);
        p.add_row(Sense::Le, 0.0, &[(a, 1.0)]);
        let opts = MilpOptions {
            initial_incumbent: Some(vec![1.0]),
            ..Default::default()
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve_milp(&p, &opts)));
        assert!(r.is_err(), "infeasible incumbent accepted");
    }

    #[test]
    fn node_budget_respected_with_incumbent() {
        // A problem needing several nodes: budget 1 solves exactly one LP,
        // returns without panicking, and the full search still proves the
        // optimum.
        let p = six_item_knapsack();
        let opts = MilpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert!(matches!(
            r.status,
            MilpStatus::Feasible | MilpStatus::Unknown | MilpStatus::Optimal
        ));
        assert!(r.nodes <= 1, "{} nodes", r.nodes);
        let full = solve_milp(&p, &MilpOptions::default());
        assert_eq!(full.status, MilpStatus::Optimal);
        assert_close(full.objective, -2.0); // floor(4/1.5) = 2 items
    }

    /// Larger budgets on a deeper tree: the search solves exactly the first
    /// `budget` nodes of the unbudgeted search.
    #[test]
    fn node_budget_is_exact() {
        let mut p = Problem::new();
        let cols: Vec<_> = (0..10)
            .map(|i| p.add_bin_col(-1.0 - 0.01 * i as f64))
            .collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 7.0, &coeffs);
        let full = solve_milp(&p, &MilpOptions::default());
        assert!(full.nodes > 8, "tree too shallow: {} nodes", full.nodes);
        for budget in [2, 3, 5, 8] {
            let r = solve_milp(
                &p,
                &MilpOptions {
                    max_nodes: budget,
                    ..Default::default()
                },
            );
            assert_eq!(r.nodes, budget);
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
        let opts = MilpOptions {
            lp: expired(),
            initial_incumbent: Some(inc.clone()),
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert!(r.deadline_hit);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!(r.x, inc);
        // without an incumbent it reports Unknown, still without panicking
        let r = solve_milp(
            &p,
            &MilpOptions {
                lp: expired(),
                ..Default::default()
            },
        );
        assert!(r.deadline_hit);
        assert_eq!(r.status, MilpStatus::Unknown);
    }

    #[test]
    fn random_binary_problems_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 25;
        let mut nodes = 0;
        for trial in 0..trials {
            let (p, obj, rows) = random_binary_problem(&mut rng);
            let best = brute_force(p.num_cols(), &obj, &rows);
            let r = solve_milp(&p, &MilpOptions::default());
            nodes += r.nodes;
            if best.is_finite() {
                assert_eq!(r.status, MilpStatus::Optimal, "trial {trial}");
                assert!(
                    (r.objective - best).abs() < 1e-5,
                    "trial {trial}: milp {} vs brute {best}",
                    r.objective
                );
            } else {
                assert_eq!(r.status, MilpStatus::Infeasible, "trial {trial}");
            }
        }
        // some trials branch, so the search is tested past the root
        assert!(nodes > trials, "{nodes} nodes over {trials} trials");
    }

    /// Assignment problems stress equality rows (phase 1 must drive an
    /// artificial out of every row); the search must find the cheapest of
    /// the n! permutations, as a 0/1 permutation matrix.
    #[test]
    fn random_assignment_problems_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let n = rng.gen_range(2..5usize);
            let mut p = Problem::new();
            let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..9.0)).collect();
            let cols: Vec<_> = cost.iter().map(|&c| p.add_bin_col(c)).collect();
            for i in 0..n {
                let cc: Vec<_> = (0..n).map(|j| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            for j in 0..n {
                let cc: Vec<_> = (0..n).map(|i| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            let best = permutations(n)
                .iter()
                .map(|perm| (0..n).map(|i| cost[i * n + perm[i]]).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            let r = solve_milp(&p, &MilpOptions::default());
            assert_eq!(r.status, MilpStatus::Optimal, "trial {trial}");
            assert!(
                (r.objective - best).abs() < 1e-6,
                "trial {trial}: milp {} vs brute {best}",
                r.objective
            );
            assert!(p.is_integral(&r.x, 1e-9), "trial {trial}: {:?}", r.x);
        }
    }
}
