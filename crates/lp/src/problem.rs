//! Sparse LP/MILP model builder.
//!
//! A [`Problem`] is built column-by-column and row-by-row; rows store
//! sparse coefficient lists. The builder is solver-agnostic: `simplex`
//! consumes the continuous relaxation, `milp` additionally reads the
//! per-column integrality flags.

use std::fmt;

/// A column (variable) handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Col(pub(crate) usize);

impl Col {
    /// The dense column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A row (constraint) handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Row(pub(crate) usize);

impl Row {
    /// The dense row index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Row sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs = rhs`
    Eq,
    /// `lhs ≥ rhs`
    Ge,
}

#[derive(Clone, Debug)]
pub(crate) struct RowData {
    pub coeffs: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// A minimization problem: `min c·x` subject to sparse rows and variable
/// bounds, with optional per-variable integrality.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    pub(crate) obj: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) integer: Vec<bool>,
    pub(crate) rows: Vec<RowData>,
}

impl Problem {
    /// An empty minimization problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and
    /// objective coefficient `obj`. Use `f64::INFINITY` /
    /// `f64::NEG_INFINITY` for free directions.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_col(&mut self, lower: f64, upper: f64, obj: f64) -> Col {
        assert!(!lower.is_nan() && !upper.is_nan() && !obj.is_nan());
        assert!(
            lower <= upper,
            "empty bound interval for column {}",
            self.obj.len()
        );
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(false);
        Col(self.obj.len() - 1)
    }

    /// Adds an integer variable (bounds inclusive).
    pub fn add_int_col(&mut self, lower: f64, upper: f64, obj: f64) -> Col {
        let c = self.add_col(lower, upper, obj);
        self.integer[c.0] = true;
        c
    }

    /// Adds a binary (0/1) variable.
    pub fn add_bin_col(&mut self, obj: f64) -> Col {
        self.add_int_col(0.0, 1.0, obj)
    }

    /// Adds a sparse constraint row. Duplicate column entries are summed.
    ///
    /// # Panics
    /// Panics on out-of-range columns or a NaN coefficient/rhs.
    pub fn add_row(&mut self, sense: Sense, rhs: f64, coeffs: &[(Col, f64)]) -> Row {
        assert!(!rhs.is_nan());
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for &(c, a) in coeffs {
            assert!(c.0 < self.obj.len(), "column out of range");
            assert!(!a.is_nan());
            if a == 0.0 {
                continue;
            }
            match merged.iter_mut().find(|(i, _)| *i == c.0) {
                Some((_, acc)) => *acc += a,
                None => merged.push((c.0, a)),
            }
        }
        self.rows.push(RowData {
            coeffs: merged,
            sense,
            rhs,
        });
        Row(self.rows.len() - 1)
    }

    /// Number of variables.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraints.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Variable bounds.
    pub fn bounds(&self, c: Col) -> (f64, f64) {
        (self.lower[c.0], self.upper[c.0])
    }

    /// Overwrites a variable's bounds (used by branch-and-bound).
    ///
    /// # Panics
    /// Panics if `lower > upper`.
    pub fn set_bounds(&mut self, c: Col, lower: f64, upper: f64) {
        assert!(lower <= upper, "empty bound interval");
        self.lower[c.0] = lower;
        self.upper[c.0] = upper;
    }

    /// Indices of all integer variables.
    pub fn integer_cols(&self) -> Vec<Col> {
        self.integer
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| Col(i))
            .collect()
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_cols());
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks a point against all rows and bounds within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_cols() {
            return false;
        }
        for (i, &v) in x.iter().enumerate() {
            if v < self.lower[i] - tol || v > self.upper[i] + tol {
                return false;
            }
        }
        for r in &self.rows {
            let lhs: f64 = r.coeffs.iter().map(|&(c, a)| a * x[c]).sum();
            let ok = match r.sense {
                Sense::Le => lhs <= r.rhs + tol,
                Sense::Ge => lhs >= r.rhs - tol,
                Sense::Eq => (lhs - r.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Checks integrality of all integer columns within `tol`.
    pub fn is_integral(&self, x: &[f64], tol: f64) -> bool {
        self.integer
            .iter()
            .enumerate()
            .all(|(i, &int)| !int || (x[i] - x[i].round()).abs() <= tol)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "min problem: {} cols ({} integer), {} rows",
            self.num_cols(),
            self.integer.iter().filter(|&&b| b).count(),
            self.num_rows()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 10.0, 1.0);
        let y = p.add_bin_col(-2.0);
        let r = p.add_row(Sense::Le, 5.0, &[(x, 1.0), (y, 3.0)]);
        assert_eq!(p.num_cols(), 2);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(r.index(), 0);
        assert_eq!(p.bounds(y), (0.0, 1.0));
        assert_eq!(p.integer_cols(), vec![y]);
    }

    #[test]
    fn duplicate_coeffs_merge() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 1.0, 0.0);
        p.add_row(Sense::Eq, 3.0, &[(x, 1.0), (x, 2.0)]);
        assert_eq!(p.rows[0].coeffs, vec![(0, 3.0)]);
    }

    #[test]
    fn zero_coeffs_dropped() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 1.0, 0.0);
        let y = p.add_col(0.0, 1.0, 0.0);
        p.add_row(Sense::Le, 1.0, &[(x, 0.0), (y, 2.0)]);
        assert_eq!(p.rows[0].coeffs, vec![(1, 2.0)]);
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 4.0, 1.0);
        let y = p.add_col(0.0, 4.0, 1.0);
        p.add_row(Sense::Le, 5.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(Sense::Ge, 1.0, &[(x, 1.0)]);
        assert!(p.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[3.0, 3.0], 1e-9)); // row 0 violated
        assert!(!p.is_feasible(&[0.5, 5.0], 1e-9)); // bound violated
    }

    #[test]
    fn integrality_check() {
        let mut p = Problem::new();
        let _x = p.add_col(0.0, 4.0, 1.0);
        let _y = p.add_int_col(0.0, 4.0, 1.0);
        assert!(p.is_integral(&[0.5, 2.0], 1e-6));
        assert!(!p.is_integral(&[0.5, 2.5], 1e-6));
    }

    #[test]
    fn objective_value() {
        let mut p = Problem::new();
        let x = p.add_col(0.0, 1.0, 2.0);
        let _ = x;
        let _y = p.add_col(0.0, 1.0, -1.0);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic]
    fn reversed_bounds_panic() {
        let mut p = Problem::new();
        p.add_col(1.0, 0.0, 0.0);
    }
}
