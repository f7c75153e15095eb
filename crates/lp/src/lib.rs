//! # rahtm-lp
//!
//! A from-scratch linear-programming and mixed-integer-programming solver.
//!
//! The RAHTM paper solves its per-sub-cube mapping MILPs (Table II) with
//! CPLEX 12.5. No comparable solver exists in the offline Rust crate set,
//! so this crate is the reproduction's CPLEX substitute:
//!
//! * [`Problem`] — a sparse model builder (columns with bounds and
//!   integrality, rows with `≤ / = / ≥` senses).
//! * [`simplex`] — a two-phase, bounded-variable *revised* primal simplex
//!   with a dense maintained basis inverse; Dantzig pricing with a Bland
//!   anti-cycling fallback.
//! * [`milp`] — one depth-first branch-and-bound over the simplex
//!   relaxation, on the calling thread: most-fractional branching,
//!   best-bound pruning, each node's LP solved fresh under its own bounds,
//!   warm incumbents (RAHTM seeds one from simulated annealing), and
//!   deterministic node budgets alongside optional wall-clock deadlines.
//!   With an exhausted budget the solver returns the best incumbent —
//!   exactly how practitioners run CPLEX on hard instances (the paper's
//!   solves took up to 35 hours; ours are budgeted to keep the test suite
//!   fast).
//!
//! The solver is deliberately scoped to RAHTM's problem sizes (hundreds to
//! a few thousand rows); it favours clarity and correctness over
//! large-scale sparse-LU machinery.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's math notation
#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod deadline;
pub mod milp;
pub mod problem;
pub mod simplex;

pub use deadline::Deadline;
pub use milp::{solve_milp, MilpOptions, MilpResult, MilpStatus};
pub use problem::{Col, Problem, Row, Sense};
pub use simplex::{solve_lp, LpStatus, SimplexOptions, Solution};
