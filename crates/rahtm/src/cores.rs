//! Central core accounting for every parallel phase.
//!
//! Three subsystems run worker threads: the per-slice pipeline scope
//! ([`crate::pipeline`]), the merge's beam steps ([`crate::merge`]), and
//! the work-stealing branch-and-bound inside the MILP ([`rahtm_lp::milp`]).
//! A run shares one spare-core budget (`CoreBudget`) between the first
//! two: each working thread holds one core, and a thread that blocks (a
//! slice worker waiting for an answer another slice is solving) or
//! finishes (a slice worker that has returned) lends its core back. A
//! beam step borrows spare cores as helpers without waiting for any, and
//! gives them back when it ends, so the idle cores of one slice speed up
//! whichever merge is running. A step's result never depends on how many
//! helpers it got. [`share`] and [`resolve`] size the branch-and-bound,
//! whose thread count is fixed per run.

use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Number of usable cores (`available_parallelism`, 1 on failure).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An even share of the core budget for one of `parts` concurrent
/// consumers (e.g. per-slice workers running side by side). Always at
/// least 1.
pub fn share(parts: usize) -> usize {
    available() / parts.max(1).min(available())
}

/// Resolves a user-facing thread knob: `0` means "auto" (an even
/// [`share`] for one of `parts` concurrent consumers, which never
/// oversubscribes the machine); an explicit request is honored verbatim —
/// asking for more threads than cores merely timeshares, and solver
/// results are thread-count-independent, so silently downgrading the
/// request (e.g. four workers → one on a 1-core box) would be the bigger
/// surprise.
pub fn resolve(requested: usize, parts: usize) -> usize {
    if requested == 0 {
        share(parts)
    } else {
        requested
    }
}

/// A run's cores that no working thread holds. The count goes negative
/// while a thread that stopped blocking has taken its core back from a
/// helper that still runs; no claim succeeds until the helper is done.
/// The count guards no other data, so every access is `Relaxed`.
pub(crate) struct CoreBudget {
    spare: AtomicIsize,
}

impl CoreBudget {
    /// A budget of `cores` cores, one of them held by the calling thread.
    pub(crate) fn new(cores: usize) -> Self {
        CoreBudget {
            spare: AtomicIsize::new(cores as isize - 1),
        }
    }

    /// One more thread starts working: it holds a core, spare or not,
    /// until the grant drops.
    pub(crate) fn hold(&self) -> Grant<'_> {
        self.take(1)
    }

    /// The calling thread blocks: its core is spare until the grant drops.
    pub(crate) fn lend(&self) -> Grant<'_> {
        self.take(-1)
    }

    /// Up to `want` spare cores, possibly none; never waits.
    pub(crate) fn claim(&self, want: usize) -> Grant<'_> {
        let mut cores = 0;
        // the closure always returns `Some`, so the update always succeeds
        let _ = self.spare.fetch_update(Relaxed, Relaxed, |spare| {
            cores = spare.clamp(0, want as isize);
            Some(spare - cores)
        });
        Grant { budget: self, cores }
    }

    fn take(&self, cores: isize) -> Grant<'_> {
        self.spare.fetch_sub(cores, Relaxed);
        Grant { budget: self, cores }
    }
}

/// Cores taken from a [`CoreBudget`] (or, when negative, given to it);
/// dropping the grant undoes the move.
pub(crate) struct Grant<'a> {
    budget: &'a CoreBudget,
    cores: isize,
}

impl Grant<'_> {
    /// The number of cores taken.
    pub(crate) fn cores(&self) -> usize {
        self.cores.max(0) as usize
    }
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        self.budget.spare.fetch_add(self.cores, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_splits_evenly_and_never_zero() {
        assert!(available() >= 1);
        assert!(share(1) >= 1);
        assert!(share(available() * 4) >= 1);
        assert_eq!(share(1), available());
    }

    #[test]
    fn resolve_auto_and_explicit() {
        assert_eq!(resolve(0, 1), available());
        assert_eq!(resolve(1, 8), 1);
        // explicit requests are honored verbatim, even above core count
        assert_eq!(resolve(4, 1), 4);
        assert!(resolve(0, available() * 4) >= 1, "auto never returns 0");
    }

    #[test]
    fn claims_take_only_spare_cores_and_give_them_back() {
        let budget = CoreBudget::new(4);
        {
            let helpers = budget.claim(8);
            assert_eq!(helpers.cores(), 3, "the caller holds the fourth core");
            assert_eq!(budget.claim(1).cores(), 0, "nothing is spare");
        }
        // two workers start while the caller blocks on them
        let lent = budget.lend();
        let workers = [budget.hold(), budget.hold()];
        assert_eq!(budget.claim(8).cores(), 2);
        // one worker blocks: its core is lent to a claim
        let blocked = budget.lend();
        let helper = budget.claim(8);
        assert_eq!(helper.cores(), 3);
        // it wakes while the helper still runs: the count goes negative
        drop(blocked);
        assert_eq!(budget.claim(1).cores(), 0);
        drop(helper);
        assert_eq!(budget.claim(8).cores(), 2);
        drop(workers);
        drop(lent);
        assert_eq!(budget.claim(8).cores(), 3, "every move was undone");
    }

    #[test]
    fn a_one_core_budget_never_grants_a_helper() {
        let budget = CoreBudget::new(1);
        assert_eq!(budget.claim(4).cores(), 0);
        let _lent = budget.lend();
        let _workers = [budget.hold(), budget.hold()];
        assert_eq!(budget.claim(4).cores(), 0);
    }
}
