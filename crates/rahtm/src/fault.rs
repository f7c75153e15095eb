//! Deterministic fault injection for the pipeline's degradation ladder.
//!
//! Robustness code that never runs is broken code waiting to be found in
//! production. A [`FaultPlan`] lets tests force each failure mode — a
//! solver timeout, a forced infeasibility, a worker panic — at a chosen
//! sub-problem, so every rung of the ladder (MILP → annealing → greedy)
//! and the salvage path is exercised deterministically.
//!
//! The plan counts *sub-problem solves* (cache hits don't count; they do
//! no solver work) with a shared atomic, so it fires exactly once, at the
//! Nth solve globally, even when a level's sub-problems are solved in
//! parallel. Which sub-problem and which thread that is can vary between
//! runs when a batch holds several new keys; tests assert mapping
//! invariants, which hold regardless of where the fault landed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The failure mode to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The targeted solve behaves as if its wall-clock budget expired
    /// before branch-and-bound started (exercises the real deadline path:
    /// the MILP returns its warm incumbent with `deadline_hit`).
    SolverTimeout,
    /// The targeted solve reports infeasibility (unreachable for a real
    /// Table II instance, which always has a feasible assignment — this is
    /// exactly why it needs injection to be tested).
    Infeasible,
    /// The thread solving the targeted sub-problem panics.
    WorkerPanic,
}

/// A deterministic plan: inject `fault` at the `nth` sub-problem solve
/// (0-based). Clones share the solve counter.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    fault: Fault,
    nth: usize,
    counter: Arc<AtomicUsize>,
}

impl FaultPlan {
    /// Plans one injection of `fault` at the `nth` sub-problem solve.
    pub fn inject(fault: Fault, nth: usize) -> Self {
        FaultPlan {
            fault,
            nth,
            counter: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Registers one sub-problem solve and reports whether the fault fires
    /// on it. Exactly one call across all clones returns `Some`.
    pub fn check(&self) -> Option<Fault> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        (n == self.nth).then_some(self.fault)
    }

    /// Whether the targeted solve has been reached (and the fault fired).
    pub fn fired(&self) -> bool {
        self.counter.load(Ordering::SeqCst) > self.nth
    }

    /// The planned failure mode.
    pub fn fault(&self) -> Fault {
        self.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_nth() {
        let plan = FaultPlan::inject(Fault::Infeasible, 2);
        assert_eq!(plan.check(), None);
        assert!(!plan.fired());
        assert_eq!(plan.check(), None);
        assert_eq!(plan.check(), Some(Fault::Infeasible));
        assert!(plan.fired());
        assert_eq!(plan.check(), None);
    }

    #[test]
    fn clones_share_the_counter() {
        let plan = FaultPlan::inject(Fault::WorkerPanic, 1);
        let other = plan.clone();
        assert_eq!(plan.check(), None);
        assert_eq!(other.check(), Some(Fault::WorkerPanic));
        assert!(plan.fired());
    }
}
