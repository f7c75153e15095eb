//! Two-phase bounded-variable revised primal simplex.
//!
//! The solver keeps an explicit dense basis inverse `B⁻¹` (updated by
//! elementary row operations each pivot, refactorized periodically by
//! Gauss–Jordan for numerical hygiene). Constraint rows receive one slack
//! each; phase 1 adds signed artificial variables and minimizes their sum.
//! Pricing is Dantzig (most negative reduced cost) with an automatic
//! switch to Bland's rule after a run of degenerate pivots, which
//! guarantees termination.
//!
//! This is a deliberately transparent implementation sized for RAHTM's
//! sub-cube MILPs (hundreds to a few thousand rows) rather than a
//! general-purpose sparse-LU code; see the crate docs for the scoping
//! rationale.

use crate::deadline::Deadline;
use crate::problem::{Problem, Sense};
use rahtm_obs::{counters, Recorder};

/// Termination status of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration budget exhausted before convergence.
    IterLimit,
    /// Wall-clock deadline expired before convergence.
    TimeLimit,
}

/// Result of an LP solve.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (meaningful for `Optimal`; best-known for
    /// `IterLimit`/`TimeLimit` if feasible).
    pub objective: f64,
    /// Structural variable values (empty unless `Optimal`, or
    /// `IterLimit`/`TimeLimit` with a feasible basis).
    pub x: Vec<f64>,
    /// Simplex iterations performed (both phases).
    pub iterations: usize,
}

/// Solver knobs.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Pivot budget across both phases.
    pub max_iters: usize,
    /// Wall-clock budget, polled before every pivot and once per column of
    /// each basis refactorization.
    pub deadline: Deadline,
    /// Trace sink (disabled by default; counters are recorded once per
    /// solve, never per pivot).
    pub recorder: Recorder,
}

/// Primal feasibility tolerance.
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost (dual) tolerance.
const COST_TOL: f64 = 1e-9;
/// Pivots between refactorizations of the basis inverse.
const REFACTOR_EVERY: usize = 500;

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 100_000,
            deadline: Deadline::never(),
            recorder: Recorder::disabled(),
        }
    }
}

/// Solves the continuous relaxation of `p` (integrality flags ignored).
pub fn solve_lp(p: &Problem, opts: &SimplexOptions) -> Solution {
    solve_lp_refactoring_every(p, opts, REFACTOR_EVERY)
}

/// [`solve_lp`] with the basis inverse refactorized every `period` pivots.
fn solve_lp_refactoring_every(p: &Problem, opts: &SimplexOptions, period: usize) -> Solution {
    let mut tab = Tableau::build(p);
    tab.refactor_every = period;
    let (sol, polls) = tab.solve_core(opts);
    opts.recorder.incr(counters::SIMPLEX_SOLVES);
    opts.recorder
        .add(counters::SIMPLEX_PIVOTS, sol.iterations as u64);
    opts.recorder.add(counters::DEADLINE_CHECKS, polls as u64);
    sol
}

const NONBASIC: u32 = u32::MAX;

struct Tableau {
    m: usize,
    n_struct: usize,
    n_total: usize,
    /// Column-wise sparse matrix including slacks and artificials.
    cols: Vec<Vec<(usize, f64)>>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 (true) costs.
    cost: Vec<f64>,
    rhs: Vec<f64>,
    /// basis[r] = column occupying row r.
    basis: Vec<usize>,
    /// basis_row[j] = row of basic column j, or NONBASIC.
    basis_row: Vec<u32>,
    /// For nonbasic columns: resting at upper bound?
    at_upper: Vec<bool>,
    /// Values of basic variables, by row.
    beta: Vec<f64>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    /// Pivots between refactorizations of `binv`.
    refactor_every: usize,
}

impl Tableau {
    fn build(p: &Problem) -> Tableau {
        let m = p.num_rows();
        let n_struct = p.num_cols();
        let n_total = n_struct + 2 * m; // slacks + artificials
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_total];
        for (r, row) in p.rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                cols[j].push((r, a));
            }
        }
        let mut lower = p.lower.clone();
        let mut upper = p.upper.clone();
        let mut cost = p.obj.clone();
        let mut rhs = Vec::with_capacity(m);
        // slacks
        for (r, row) in p.rows.iter().enumerate() {
            let j = n_struct + r;
            cols[j].push((r, 1.0));
            let (lo, hi) = match row.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Eq => (0.0, 0.0),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
            cost.push(0.0);
            rhs.push(row.rhs);
        }
        // artificials (coefficients signed later, in `reset_phase1`)
        for r in 0..m {
            let j = n_struct + m + r;
            cols[j].push((r, 1.0)); // placeholder; sign fixed in reset
            lower.push(0.0);
            upper.push(f64::INFINITY);
            cost.push(0.0);
        }
        Tableau {
            m,
            n_struct,
            n_total,
            cols,
            lower,
            upper,
            cost,
            rhs,
            basis: Vec::new(),
            basis_row: vec![NONBASIC; n_total],
            at_upper: vec![false; n_total],
            beta: Vec::new(),
            binv: Vec::new(),
            refactor_every: REFACTOR_EVERY,
        }
    }

    /// Resting value of a nonbasic column.
    #[inline]
    fn nb_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.upper[j]
        } else if self.lower[j].is_finite() {
            self.lower[j]
        } else if self.upper[j].is_finite() {
            self.upper[j]
        } else {
            0.0
        }
    }

    /// Sets initial nonbasic rest positions and installs the artificial
    /// basis sized to absorb each row's residual.
    fn reset_phase1(&mut self) {
        let m = self.m;
        for j in 0..self.n_total {
            self.basis_row[j] = NONBASIC;
            self.at_upper[j] = !self.lower[j].is_finite() && self.upper[j].is_finite();
        }
        // residual r_i = rhs_i - sum_j a_ij * nb_value(j) over non-artificials
        let mut resid = self.rhs.clone();
        for j in 0..self.n_struct + m {
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(r, a) in &self.cols[j] {
                    resid[r] -= a * v;
                }
            }
        }
        self.basis = Vec::with_capacity(m);
        self.beta = vec![0.0; m];
        self.binv = vec![0.0; m * m];
        for r in 0..m {
            let j = self.n_struct + m + r;
            let sign = if resid[r] >= 0.0 { 1.0 } else { -1.0 };
            self.cols[j] = vec![(r, sign)];
            self.basis.push(j);
            self.basis_row[j] = r as u32;
            self.beta[r] = resid[r].abs();
            self.binv[r * m + r] = sign;
        }
    }

    /// FTRAN: w = B⁻¹ · A_j.
    fn ftran(&self, j: usize, w: &mut [f64]) {
        let m = self.m;
        w.iter_mut().for_each(|x| *x = 0.0);
        for &(r, a) in &self.cols[j] {
            let col = r; // A_j has entry a at row r; w += a * binv[:, r]
            for (k, wk) in w.iter_mut().enumerate() {
                *wk += a * self.binv[k * m + col];
            }
        }
    }

    /// y = c_Bᵀ · B⁻¹ for the given cost vector.
    fn duals(&self, cost: &[f64], y: &mut [f64]) {
        let m = self.m;
        y.iter_mut().for_each(|x| *x = 0.0);
        for (k, &bj) in self.basis.iter().enumerate() {
            let cb = cost[bj];
            if cb != 0.0 {
                let row = &self.binv[k * m..(k + 1) * m];
                for (yi, &bv) in y.iter_mut().zip(row) {
                    *yi += cb * bv;
                }
            }
        }
    }

    /// Reduced cost of nonbasic column j.
    #[inline]
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(r, a) in &self.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    /// Rebuilds B⁻¹ by Gauss–Jordan elimination and recomputes beta,
    /// polling `deadline` once per eliminated column (each poll counted in
    /// `polls`). Returns true when the deadline expired mid-elimination.
    /// B⁻¹ and beta are then left as they were, as they are when the basis
    /// matrix is numerically singular.
    fn refactorize(&mut self, deadline: &Deadline, polls: &mut usize) -> bool {
        let m = self.m;
        // Build dense B and identity side-by-side.
        let mut b = vec![0.0f64; m * m];
        for (k, &j) in self.basis.iter().enumerate() {
            for &(r, a) in &self.cols[j] {
                b[r * m + k] = a;
            }
        }
        let mut inv = vec![0.0f64; m * m];
        for k in 0..m {
            inv[k * m + k] = 1.0;
        }
        for col in 0..m {
            *polls += 1;
            if deadline.is_expired() {
                return true;
            }
            // partial pivot
            let mut piv = col;
            let mut best = b[col * m + col].abs();
            for r in col + 1..m {
                let v = b[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return false;
            }
            if piv != col {
                for c in 0..m {
                    b.swap(piv * m + c, col * m + c);
                    inv.swap(piv * m + c, col * m + c);
                }
            }
            let d = b[col * m + col];
            for c in 0..m {
                b[col * m + c] /= d;
                inv[col * m + c] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = b[r * m + col];
                    if f != 0.0 {
                        for c in 0..m {
                            b[r * m + c] -= f * b[col * m + c];
                            inv[r * m + c] -= f * inv[col * m + c];
                        }
                    }
                }
            }
        }
        self.binv = inv;
        self.recompute_beta();
        false
    }

    /// beta = B⁻¹ (rhs − A_N x_N).
    fn recompute_beta(&mut self) {
        let m = self.m;
        let mut resid = self.rhs.clone();
        for j in 0..self.n_total {
            if self.basis_row[j] == NONBASIC {
                let v = self.nb_value(j);
                if v != 0.0 {
                    for &(r, a) in &self.cols[j] {
                        resid[r] -= a * v;
                    }
                }
            }
        }
        for k in 0..m {
            let mut s = 0.0;
            for r in 0..m {
                s += self.binv[k * m + r] * resid[r];
            }
            self.beta[k] = s;
        }
    }

    /// Runs simplex iterations with the given cost vector until optimal /
    /// unbounded / out of budget. Returns (status, iterations used,
    /// deadline polls).
    fn iterate(
        &mut self,
        cost: &[f64],
        opts: &SimplexOptions,
        budget: usize,
        allow_artificials: bool,
    ) -> (LpStatus, usize, usize) {
        let m = self.m;
        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut iters = 0usize;
        let mut polls = 0usize;
        let mut degen_run = 0usize;
        let mut bland = false;
        let art_start = self.n_struct + m;
        while iters < budget {
            polls += 1;
            if opts.deadline.is_expired() {
                return (LpStatus::TimeLimit, iters, polls);
            }
            if iters > 0
                && iters.is_multiple_of(self.refactor_every)
                && self.refactorize(&opts.deadline, &mut polls)
            {
                return (LpStatus::TimeLimit, iters, polls);
            }
            self.duals(cost, &mut y);
            // pricing
            let mut enter: Option<(usize, f64, i32)> = None; // (col, |d|, dir)
            for j in 0..self.n_total {
                if self.basis_row[j] != NONBASIC {
                    continue;
                }
                if !allow_artificials && j >= art_start {
                    continue;
                }
                if self.lower[j] == self.upper[j] {
                    continue; // fixed
                }
                let d = self.reduced_cost(cost, &y, j);
                let at_up = self.at_upper[j];
                let free = !self.lower[j].is_finite() && !self.upper[j].is_finite();
                // increasing improves if d < -tol and we're not at upper;
                // decreasing improves if d > tol and we're not at lower.
                let mut cand: Option<i32> = None;
                if d < -COST_TOL && (!at_up || free) {
                    cand = Some(1);
                } else if d > COST_TOL && (at_up || free) {
                    cand = Some(-1);
                }
                if let Some(dir) = cand {
                    let score = d.abs();
                    let better = match &enter {
                        None => true,
                        Some((bj, bs, _)) => {
                            if bland {
                                j < *bj
                            } else {
                                score > *bs
                            }
                        }
                    };
                    if better {
                        enter = Some((j, score, dir));
                        if bland {
                            // first eligible smallest index: can stop early
                        }
                    }
                }
            }
            let Some((j, _, dir)) = enter else {
                return (LpStatus::Optimal, iters, polls);
            };
            let delta = dir as f64;
            self.ftran(j, &mut w);
            // ratio test: basic k moves by -delta * t * w_k
            let mut t_best = f64::INFINITY;
            let mut leave: Option<usize> = None; // row index
            for k in 0..m {
                let g = delta * w[k];
                if g > FEAS_TOL {
                    let lb = self.lower[self.basis[k]];
                    if lb.is_finite() {
                        let t = (self.beta[k] - lb) / g;
                        if t < t_best - FEAS_TOL
                            || (t < t_best + FEAS_TOL && better_leave(self, leave, k, &w, bland))
                        {
                            t_best = t.max(0.0);
                            leave = Some(k);
                        }
                    }
                } else if g < -FEAS_TOL {
                    let ub = self.upper[self.basis[k]];
                    if ub.is_finite() {
                        let t = (ub - self.beta[k]) / (-g);
                        if t < t_best - FEAS_TOL
                            || (t < t_best + FEAS_TOL && better_leave(self, leave, k, &w, bland))
                        {
                            t_best = t.max(0.0);
                            leave = Some(k);
                        }
                    }
                }
            }
            // bound-flip limit for the entering variable
            let span = self.upper[j] - self.lower[j];
            let flip_limit = if span.is_finite() {
                span
            } else {
                f64::INFINITY
            };
            if flip_limit <= t_best {
                if !flip_limit.is_finite() {
                    return (LpStatus::Unbounded, iters, polls);
                }
                // flip j to its other bound
                let t = flip_limit;
                for k in 0..m {
                    self.beta[k] -= delta * t * w[k];
                }
                self.at_upper[j] = delta > 0.0;
                iters += 1;
                continue;
            }
            let Some(r) = leave else {
                return (LpStatus::Unbounded, iters, polls);
            };
            let t = t_best;
            if t <= FEAS_TOL {
                degen_run += 1;
                if degen_run > 100 + 2 * m {
                    bland = true;
                }
            } else {
                degen_run = 0;
            }
            // leaving variable hits which bound?
            let leaving = self.basis[r];
            let leaving_to_upper = delta * w[r] < 0.0;
            // update beta
            for k in 0..m {
                self.beta[k] -= delta * t * w[k];
            }
            let enter_val = self.nb_value(j) + delta * t;
            debug_assert!(w[r].abs() > 1e-12, "zero pivot");
            self.pivot_binv(r, &w);
            // bookkeeping
            self.basis[r] = j;
            self.basis_row[j] = r as u32;
            self.basis_row[leaving] = NONBASIC;
            self.at_upper[leaving] = leaving_to_upper;
            self.beta[r] = enter_val;
            iters += 1;
        }
        (LpStatus::IterLimit, iters, polls)
    }

    /// Elementary row update of B⁻¹ after column `w = B⁻¹·A_enter` pivots
    /// on row `r`.
    fn pivot_binv(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let wr = w[r];
        let (head, tail) = self.binv.split_at_mut(r * m);
        let (prow, rest) = tail.split_at_mut(m);
        for x in prow.iter_mut() {
            *x /= wr;
        }
        for (k, chunk) in head.chunks_mut(m).enumerate() {
            let f = w[k];
            if f != 0.0 {
                for (c, x) in chunk.iter_mut().enumerate() {
                    *x -= f * prow[c];
                }
            }
        }
        for (off, chunk) in rest.chunks_mut(m).enumerate() {
            let f = w[r + 1 + off];
            if f != 0.0 {
                for (c, x) in chunk.iter_mut().enumerate() {
                    *x -= f * prow[c];
                }
            }
        }
    }

    fn solve_core(&mut self, opts: &SimplexOptions) -> (Solution, usize) {
        let m = self.m;
        // Trivial no-constraint case: each variable to its cheapest bound.
        if m == 0 {
            let mut x = vec![0.0; self.n_struct];
            for j in 0..self.n_struct {
                let c = self.cost[j];
                x[j] = if c > 0.0 {
                    if self.lower[j].is_finite() {
                        self.lower[j]
                    } else {
                        return (unbounded(0), 0);
                    }
                } else if c < 0.0 {
                    if self.upper[j].is_finite() {
                        self.upper[j]
                    } else {
                        return (unbounded(0), 0);
                    }
                } else {
                    self.nb_value(j)
                };
            }
            let obj = self.objective_of(&x);
            return (
                Solution {
                    status: LpStatus::Optimal,
                    objective: obj,
                    x,
                    iterations: 0,
                },
                0,
            );
        }
        self.reset_phase1();
        // Phase 1: minimize sum of artificials.
        let mut phase1_cost = vec![0.0; self.n_total];
        for j in self.n_struct + m..self.n_total {
            phase1_cost[j] = 1.0;
        }
        let (s1, it1, polls1) = self.iterate(&phase1_cost, opts, opts.max_iters, true);
        let infeas: f64 = self
            .basis
            .iter()
            .enumerate()
            .filter(|(_, &j)| j >= self.n_struct + m)
            .map(|(k, _)| self.beta[k].max(0.0))
            .sum();
        if s1 == LpStatus::IterLimit || s1 == LpStatus::TimeLimit {
            return (
                Solution {
                    status: s1,
                    objective: f64::NAN,
                    x: Vec::new(),
                    iterations: it1,
                },
                polls1,
            );
        }
        if infeas > 1e-6 {
            return (
                Solution {
                    status: LpStatus::Infeasible,
                    objective: f64::NAN,
                    x: Vec::new(),
                    iterations: it1,
                },
                polls1,
            );
        }
        // Freeze artificials at zero so they never re-enter.
        for j in self.n_struct + m..self.n_total {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            if self.basis_row[j] == NONBASIC {
                self.at_upper[j] = false;
            }
        }
        // Phase 2.
        let cost = self.cost.clone();
        let (s2, it2, polls2) =
            self.iterate(&cost, opts, opts.max_iters.saturating_sub(it1), false);
        let x = self.extract();
        let obj = self.objective_of(&x);
        (
            Solution {
                status: s2,
                objective: obj,
                x,
                iterations: it1 + it2,
            },
            polls1 + polls2,
        )
    }

    /// Structural objective value; matches `Problem::objective_value`
    /// term-for-term (the tableau's leading costs are the problem's).
    fn objective_of(&self, x: &[f64]) -> f64 {
        self.cost[..self.n_struct]
            .iter()
            .zip(x)
            .map(|(c, v)| c * v)
            .sum()
    }

    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_struct];
        for (j, xv) in x.iter_mut().enumerate() {
            *xv = if self.basis_row[j] != NONBASIC {
                self.beta[self.basis_row[j] as usize]
            } else {
                self.nb_value(j)
            };
            // Clamp tiny numerical spill back into bounds (the structural
            // bounds are copied verbatim from the problem at build time and
            // only ever replaced wholesale by `SimplexScratch`).
            *xv = xv.max(self.lower[j]).min(self.upper[j]);
        }
        x
    }
}

/// Reusable simplex state for repeated node solves over one [`Problem`]
/// whose *bounds* vary (branch-and-bound): one per worker. Building the
/// tableau, slacks, and artificials happens once; each node installs its
/// bounds and runs the full two-phase solve.
///
/// A solve reads nothing a previous solve left behind, so a node's result
/// is a function of its bound overrides alone, whichever worker runs it.
pub(crate) struct SimplexScratch {
    tab: Tableau,
    base_lower: Vec<f64>,
    base_upper: Vec<f64>,
}

impl SimplexScratch {
    /// Builds the persistent tableau for `p`; `p`'s bounds become the base
    /// bounds every [`SimplexScratch::set_node_bounds`] call starts from.
    pub fn new(p: &Problem) -> SimplexScratch {
        let tab = Tableau::build(p);
        let ns = tab.n_struct;
        SimplexScratch {
            base_lower: tab.lower[..ns].to_vec(),
            base_upper: tab.upper[..ns].to_vec(),
            tab,
        }
    }

    /// Installs a node's bounds: the root problem's bounds overlaid with
    /// the node's accumulated `(col, lower, upper)` overrides.
    pub fn set_node_bounds(&mut self, overrides: &[(usize, f64, f64)]) {
        let ns = self.tab.n_struct;
        self.tab.lower[..ns].copy_from_slice(&self.base_lower);
        self.tab.upper[..ns].copy_from_slice(&self.base_upper);
        for &(j, lo, hi) in overrides {
            self.tab.lower[j] = lo;
            self.tab.upper[j] = hi;
        }
    }

    /// Effective bounds of structural column `j` under the currently
    /// installed node overrides.
    pub fn bounds(&self, j: usize) -> (f64, f64) {
        (self.tab.lower[j], self.tab.upper[j])
    }

    /// Two-phase solve under the currently installed bounds. The
    /// artificial columns are restored first, so the pivot sequence is
    /// bit-identical to a [`solve_lp`] of the same problem and bounds.
    /// Returns the solution and the number of deadline polls.
    pub fn solve_fresh(&mut self, opts: &SimplexOptions) -> (Solution, usize) {
        let m = self.tab.m;
        for j in self.tab.n_struct + m..self.tab.n_total {
            self.tab.lower[j] = 0.0;
            self.tab.upper[j] = f64::INFINITY;
        }
        self.tab.solve_core(opts)
    }
}

fn unbounded(iters: usize) -> Solution {
    Solution {
        status: LpStatus::Unbounded,
        objective: f64::NEG_INFINITY,
        x: Vec::new(),
        iterations: iters,
    }
}

/// Tie-breaking for the leaving row: prefer larger |w_r| for stability, or
/// smallest basis column under Bland's rule.
fn better_leave(t: &Tableau, cur: Option<usize>, cand: usize, w: &[f64], bland: bool) -> bool {
    match cur {
        None => true,
        Some(c) => {
            if bland {
                t.basis[cand] < t.basis[c]
            } else {
                w[cand].abs() > w[c].abs()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_2d_max() {
        // max x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
        // -> min -x - y; optimum at intersection (8/5, 6/5), obj 14/5
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, -1.0);
        p.add_row(Sense::Le, 4.0, &[(x, 1.0), (y, 2.0)]);
        p.add_row(Sense::Le, 6.0, &[(x, 3.0), (y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -14.0 / 5.0);
        assert_close(s.x[0], 8.0 / 5.0);
        assert_close(s.x[1], 6.0 / 5.0);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn equality_rows() {
        // min x + y st x + y = 2, x - y = 0 -> x=y=1
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(Sense::Eq, 2.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(Sense::Eq, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 1.0, 1.0);
        p.add_row(Sense::Ge, 5.0, &[(x, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, 0.0);
        p.add_row(Sense::Ge, 0.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_variables_optimum_at_bounds() {
        // min -x - 2y with 0<=x<=3, 0<=y<=2, x + y <= 4 -> x=2,y=2
        let mut p = Problem::new();
        let x = p.add_col(0.0, 3.0, -1.0);
        let y = p.add_col(0.0, 2.0, -2.0);
        p.add_row(Sense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[1], 2.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.objective, -6.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 (free-ish), x + y = 0, y <= 2 -> x = -2
        let mut p = Problem::new();
        let x = p.add_col(-5.0, f64::INFINITY, 1.0);
        let y = p.add_col(f64::NEG_INFINITY, 2.0, 0.0);
        p.add_row(Sense::Eq, 0.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], -2.0);
    }

    #[test]
    fn free_variable() {
        // min |style| problem: min z st z >= x - 3, z >= 3 - x, x free
        // optimum z = 0 at x = 3
        let mut p = Problem::new();
        let x = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let z = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_row(Sense::Ge, -3.0, &[(z, 1.0), (x, -1.0)]);
        p.add_row(Sense::Ge, 3.0, &[(z, 1.0), (x, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.0);
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn no_constraints_bound_optimum() {
        let mut p = Problem::new();
        let _x = p.add_col(-1.0, 5.0, 2.0);
        let _y = p.add_col(-3.0, 4.0, -1.0);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -2.0 + -4.0);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut p = Problem::new();
        p.add_col(0.0, f64::INFINITY, -1.0);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-like / heavily degenerate: many redundant rows
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, -1.0);
        for _ in 0..10 {
            p.add_row(Sense::Le, 1.0, &[(x, 1.0), (y, 1.0)]);
        }
        p.add_row(Sense::Le, 1.0, &[(x, 1.0)]);
        p.add_row(Sense::Le, 1.0, &[(y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -1.0);
    }

    /// min-cost single path: LP value of a shortest-path flow LP equals the
    /// graph shortest path (total unimodularity), cross-checked against a
    /// hand Dijkstra.
    #[test]
    fn shortest_path_lp_matches_dijkstra() {
        // graph: 0->1 (1), 0->2 (4), 1->2 (2), 1->3 (6), 2->3 (3)
        // shortest 0->3 = 1 + 2 + 3 = 6
        let edges = [
            (0, 1, 1.0),
            (0, 2, 4.0),
            (1, 2, 2.0),
            (1, 3, 6.0),
            (2, 3, 3.0),
        ];
        let n = 4;
        let mut p = Problem::new();
        let cols: Vec<_> = edges
            .iter()
            .map(|&(_, _, c)| p.add_col(0.0, f64::INFINITY, c))
            .collect();
        for node in 0..n {
            let mut coeffs = Vec::new();
            for (i, &(u, v, _)) in edges.iter().enumerate() {
                if u == node {
                    coeffs.push((cols[i], 1.0));
                }
                if v == node {
                    coeffs.push((cols[i], -1.0));
                }
            }
            let rhs = match node {
                0 => 1.0,
                3 => -1.0,
                _ => 0.0,
            };
            p.add_row(Sense::Eq, rhs, &coeffs);
        }
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 6.0);
    }

    /// Transportation problem with a known optimum.
    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15)
        // costs: c[0][0]=1, c[0][1]=4, c[1][0]=2, c[1][1]=1
        // optimum: s0->d0 10, s1->d0 5, s1->d1 15 => 10 + 10 + 15 = 35
        let mut p = Problem::new();
        let x00 = p.add_col(0.0, f64::INFINITY, 1.0);
        let x01 = p.add_col(0.0, f64::INFINITY, 4.0);
        let x10 = p.add_col(0.0, f64::INFINITY, 2.0);
        let x11 = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(Sense::Eq, 10.0, &[(x00, 1.0), (x01, 1.0)]);
        p.add_row(Sense::Eq, 20.0, &[(x10, 1.0), (x11, 1.0)]);
        p.add_row(Sense::Eq, 15.0, &[(x00, 1.0), (x10, 1.0)]);
        p.add_row(Sense::Eq, 15.0, &[(x01, 1.0), (x11, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 35.0);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    /// A min-max (MCL-style) LP: route 2 units across two parallel links to
    /// minimize the max link load -> split 1/1.
    #[test]
    fn min_max_load_splits() {
        let mut p = Problem::new();
        let f1 = p.add_col(0.0, f64::INFINITY, 0.0);
        let f2 = p.add_col(0.0, f64::INFINITY, 0.0);
        let z = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(Sense::Eq, 2.0, &[(f1, 1.0), (f2, 1.0)]);
        p.add_row(Sense::Le, 0.0, &[(f1, 1.0), (z, -1.0)]);
        p.add_row(Sense::Le, 0.0, &[(f2, 1.0), (z, -1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut p = Problem::new();
        let x = p.add_col(2.0, 2.0, 1.0);
        let y = p.add_col(0.0, 10.0, 1.0);
        p.add_row(Sense::Ge, 5.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn aggressive_refactorization_changes_nothing() {
        // refactorize after every pivot: slower but must agree exactly
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, -2.0);
        let z = p.add_col(0.0, f64::INFINITY, -1.5);
        p.add_row(Sense::Le, 10.0, &[(x, 1.0), (y, 2.0), (z, 1.0)]);
        p.add_row(Sense::Le, 8.0, &[(x, 2.0), (y, 1.0), (z, 3.0)]);
        p.add_row(Sense::Le, 6.0, &[(x, 1.0), (y, 1.0), (z, 1.0)]);
        let normal = solve_lp(&p, &SimplexOptions::default());
        let refactored = solve_lp_refactoring_every(&p, &SimplexOptions::default(), 1);
        assert_eq!(normal.status, LpStatus::Optimal);
        assert_eq!(refactored.status, LpStatus::Optimal);
        assert_close(normal.objective, refactored.objective);
    }

    #[test]
    fn iteration_limit_reported() {
        // a problem that cannot finish in 1 pivot
        let mut p = Problem::new();
        let cols: Vec<_> = (0..10)
            .map(|_| p.add_col(0.0, f64::INFINITY, -1.0))
            .collect();
        for w in cols.windows(2) {
            p.add_row(Sense::Le, 1.0, &[(w[0], 1.0), (w[1], 1.0)]);
        }
        let s = solve_lp(
            &p,
            &SimplexOptions {
                max_iters: 1,
                ..Default::default()
            },
        );
        assert_eq!(s.status, LpStatus::IterLimit);
    }

    #[test]
    fn expired_deadline_reported_as_time_limit() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, -1.0);
        p.add_row(Sense::Le, 4.0, &[(x, 1.0), (y, 2.0)]);
        let s = solve_lp(
            &p,
            &SimplexOptions {
                deadline: crate::deadline::Deadline::after(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert_eq!(s.status, LpStatus::TimeLimit);
        // an unlimited deadline changes nothing
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
    }

    #[test]
    fn refactorization_stops_at_an_expired_deadline() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        let y = p.add_col(0.0, f64::INFINITY, -2.0);
        p.add_row(Sense::Ge, 1.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(Sense::Le, 4.0, &[(x, 1.0), (y, 3.0)]);
        let mut tab = Tableau::build(&p);
        let (sol, _) = tab.solve_core(&SimplexOptions::default());
        assert_eq!(sol.status, LpStatus::Optimal);
        let (binv, beta) = (tab.binv.clone(), tab.beta.clone());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut polls = 0;
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert!(tab.refactorize(&expired, &mut polls));
        assert_eq!(polls, 1);
        assert_eq!(bits(&tab.binv), bits(&binv));
        assert_eq!(bits(&tab.beta), bits(&beta));

        // without a limit it eliminates every column and reports no expiry
        let mut polls = 0;
        assert!(!tab.refactorize(&Deadline::never(), &mut polls));
        assert_eq!(polls, 2);
    }

    /// A 2,000-row LP whose basis is refactorized after every pivot: one
    /// refactorization takes about ten times as long as the pivot before
    /// it, so the pivot loop's own poll cannot end the solve on time. Two
    /// untimed solves measure when the first refactorization starts and
    /// how long it lasts; a deadline a quarter of the way into it must end
    /// the solve well before the refactorization would have finished.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing test; run with --release")]
    fn deadline_interrupts_refactorization() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::time::Instant;
        let (m, n) = (2000, 200);
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Problem::new();
        let cols: Vec<_> = (0..n)
            .map(|_| p.add_col(0.0, f64::INFINITY, rng.gen_range(1.0..2.0)))
            .collect();
        for _ in 0..m {
            let coeffs: Vec<_> = cols.iter().map(|&c| (c, rng.gen_range(0.5..1.5))).collect();
            p.add_row(Sense::Ge, rng.gen_range(1.0..10.0), &coeffs);
        }
        let solve = |max_iters: usize, deadline: Deadline| {
            let opts = SimplexOptions {
                max_iters,
                deadline,
                ..Default::default()
            };
            let start = Instant::now();
            let s = solve_lp_refactoring_every(&p, &opts, 1);
            (s, start.elapsed())
        };
        // One pivot runs before the first refactorization; a second pivot
        // runs after it.
        let (_, before) = solve(1, Deadline::never());
        let (_, through) = solve(2, Deadline::never());
        let refactor = through.saturating_sub(before);
        let limit = before + refactor / 4;
        let (s, elapsed) = solve(100_000, Deadline::after(limit));
        assert_eq!(s.status, LpStatus::TimeLimit);
        assert!(s.iterations < 64, "{} pivots", s.iterations);
        assert!(
            elapsed < limit + refactor / 2,
            "deadline {limit:?}, returned after {elapsed:?} (refactorization {refactor:?})"
        );
    }

    #[test]
    fn equality_only_system_unique_point() {
        // 3 equations, 3 unknowns, unique solution: simplex must land on it
        let mut p = Problem::new();
        let x = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let z = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_row(Sense::Eq, 6.0, &[(x, 1.0), (y, 1.0), (z, 1.0)]);
        p.add_row(Sense::Eq, 1.0, &[(x, 1.0), (y, -1.0)]);
        p.add_row(Sense::Eq, 2.0, &[(y, 1.0), (z, -1.0)]);
        let s = solve_lp(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        // x - y = 1, y - z = 2, x + y + z = 6 -> y = (6 - 1 + ... solve:
        // x = y + 1, z = y - 2 => 3y - 1 = 6 => y = 7/3
        assert_close(s.x[1], 7.0 / 3.0);
        assert_close(s.x[0], 10.0 / 3.0);
        assert_close(s.x[2], 1.0 / 3.0);
    }

    #[test]
    fn scratch_fresh_solve_matches_solve_lp_bitwise() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 3.0, -1.0);
        let y = p.add_col(0.0, 2.0, -2.0);
        p.add_row(Sense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        let opts = SimplexOptions::default();
        let direct = solve_lp(&p, &opts);
        let mut scratch = SimplexScratch::new(&p);
        scratch.set_node_bounds(&[]);
        let (s, _) = scratch.solve_fresh(&opts);
        assert_eq!(s.status, direct.status);
        assert_eq!(s.objective.to_bits(), direct.objective.to_bits());
        assert_eq!(s.x, direct.x);
        // and again after a bound change + restore (state must not leak)
        scratch.set_node_bounds(&[(0, 0.0, 1.0)]);
        let (tight, _) = scratch.solve_fresh(&opts);
        assert!(tight.objective > direct.objective);
        scratch.set_node_bounds(&[]);
        let (again, _) = scratch.solve_fresh(&opts);
        assert_eq!(again.objective.to_bits(), direct.objective.to_bits());
        assert_eq!(again.x, direct.x);
    }

    #[test]
    fn random_lps_feasible_and_dual_sane() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..30 {
            let n = rng.gen_range(2..8);
            let m = rng.gen_range(1..8);
            let mut p = Problem::new();
            // random feasible point within boxes, rows built around it
            let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let cols: Vec<_> = (0..n)
                .map(|_| p.add_col(0.0, 10.0, rng.gen_range(-3.0..3.0)))
                .collect();
            for _ in 0..m {
                let coeffs: Vec<(crate::problem::Col, f64)> = cols
                    .iter()
                    .map(|&c| (c, rng.gen_range(-2.0..2.0)))
                    .collect();
                let lhs: f64 = coeffs.iter().map(|&(c, a)| a * x0[c.index()]).sum();
                // keep x0 feasible
                let slackiness = rng.gen_range(0.0..2.0);
                if rng.gen_bool(0.5) {
                    p.add_row(Sense::Le, lhs + slackiness, &coeffs);
                } else {
                    p.add_row(Sense::Ge, lhs - slackiness, &coeffs);
                }
            }
            let s = solve_lp(&p, &SimplexOptions::default());
            assert_eq!(s.status, LpStatus::Optimal, "trial {trial}");
            assert!(p.is_feasible(&s.x, 1e-5), "trial {trial} infeasible point");
            // optimum must be at least as good as the known feasible x0
            assert!(
                s.objective <= p.objective_value(&x0) + 1e-6,
                "trial {trial}: {} > {}",
                s.objective,
                p.objective_value(&x0)
            );
        }
    }
}
