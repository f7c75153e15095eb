//! Central core accounting for every parallel phase.
//!
//! One job runner (`run_jobs`) starts every worker thread of a run: it
//! runs the pipeline's per-level batches ([`crate::pipeline`]) and the
//! merge's beam-step waves ([`crate::merge`]). The MILP inside a job runs
//! on that job's thread ([`rahtm_lp::milp`]). A run's runners share one
//! spare-core budget (`CoreBudget`): a helper thread claims one spare
//! core, without waiting, until it exits, and the pipeline driver lends
//! its own core while it joins a batch's helpers. So a core a batch no
//! longer needs speeds up whichever merge is still running in it. A job's
//! result never depends on how many helpers ran. [`share`] and [`resolve`]
//! turn a thread knob into a count for a benchmark driver outside the
//! pipeline; nothing in the workspace calls them.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Number of usable cores (`available_parallelism`, 1 on failure).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An even share of the core budget for one of `parts` concurrent
/// consumers (e.g. one per machine slice). Always at least 1.
pub fn share(parts: usize) -> usize {
    available() / parts.max(1).min(available())
}

/// Resolves a thread knob: `0` means "auto" (an even [`share`] for one of
/// `parts` concurrent consumers); an explicit request is returned as is.
/// Nothing in the workspace calls it: the pipeline ignores its one thread
/// knob (`RahtmConfig::milp_threads`), and only the benchmark driver still
/// resolves it for its report.
pub fn resolve(requested: usize, parts: usize) -> usize {
    if requested == 0 {
        share(parts)
    } else {
        requested
    }
}

/// A run's cores that no working thread holds. The count guards no other
/// data, so every access is `Relaxed`.
pub(crate) struct CoreBudget {
    spare: AtomicUsize,
}

impl CoreBudget {
    /// A budget of `cores` cores, one of them held by the calling thread.
    pub(crate) fn new(cores: usize) -> Self {
        CoreBudget {
            spare: AtomicUsize::new(cores.saturating_sub(1)),
        }
    }

    /// One spare core, if there is one; never waits.
    fn claim(&self) -> Option<Grant<'_>> {
        let taken = self
            .spare
            .fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1));
        taken.ok().map(|_| Grant { budget: self })
    }
}

/// A core claimed from a [`CoreBudget`]; dropping the grant returns it.
struct Grant<'a> {
    budget: &'a CoreBudget,
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        self.budget.spare.fetch_add(1, Relaxed);
    }
}

/// Runs `job` on `0..jobs` on the calling thread and on up to
/// `max_helpers` helpers, one per spare core it can claim (never more than
/// `jobs − 1`); each thread takes the next job until none is left, and the
/// results come back in job order. With `lend`, the caller's core is spare
/// while it joins its helpers. Only a caller whose join waits for every
/// other thread that claims from `cores` may lend (the pipeline driver):
/// then every claim of the lent core ends before the caller takes it back,
/// and the spare count never goes negative. A job's panic is resumed on the
/// caller once every helper has exited.
pub(crate) fn run_jobs<T: Send>(
    cores: &CoreBudget,
    jobs: usize,
    max_helpers: usize,
    lend: bool,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let grants: Vec<Grant> = (0..max_helpers.min(jobs.saturating_sub(1)))
        .map_while(|_| cores.claim())
        .collect();
    if grants.is_empty() {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let j = next.fetch_add(1, Relaxed);
            if j >= jobs {
                return done;
            }
            done.push((j, job(j)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = grants
            .into_iter()
            .map(|grant| {
                scope.spawn(move || {
                    let _grant = grant;
                    work()
                })
            })
            .collect();
        let mut done = work();
        if lend {
            cores.spare.fetch_add(1, Relaxed);
        }
        let joined: Vec<_> = helpers.into_iter().map(|h| h.join()).collect();
        if lend {
            cores.spare.fetch_sub(1, Relaxed);
        }
        for helper in joined {
            done.extend(helper.unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_by_key(|&(j, _)| j);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

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

    /// The cores `budget` grants now, all returned again.
    fn spare(budget: &CoreBudget) -> usize {
        std::iter::from_fn(|| budget.claim())
            .collect::<Vec<_>>()
            .len()
    }

    #[test]
    fn claims_take_only_spare_cores_and_give_them_back() {
        let budget = CoreBudget::new(4);
        {
            let helpers: Vec<_> = std::iter::from_fn(|| budget.claim()).collect();
            assert_eq!(helpers.len(), 3, "the caller holds the fourth core");
            assert!(budget.claim().is_none(), "nothing is spare");
        }
        assert_eq!(spare(&budget), 3, "every claim was returned");
        assert_eq!(spare(&CoreBudget::new(1)), 0);
    }

    #[test]
    fn jobs_claim_the_joining_callers_core_independent_of_cores() {
        // Two cores: the runner's one helper takes the spare core. Both
        // jobs meet at a barrier, so each thread runs one of them. The
        // caller's job returns at once; the helper's job then waits for a
        // spare core, which only the caller's lend can free.
        let budget = CoreBudget::new(2);
        let caller = std::thread::current().id();
        let both = Barrier::new(2);
        let mut claimed = run_jobs(&budget, 2, usize::MAX, true, |_| {
            both.wait();
            if std::thread::current().id() == caller {
                return None;
            }
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(20) {
                if budget.claim().is_some() {
                    return Some(true);
                }
                std::thread::yield_now();
            }
            Some(false)
        });
        claimed.sort();
        assert_eq!(
            claimed,
            [None, Some(true)],
            "the helper claimed the lent core"
        );
        assert_eq!(spare(&budget), 1, "back to cores − 1 spare");
    }

    #[test]
    fn job_results_in_order_independent_of_cores() {
        for cores in [1, 2, 8] {
            let budget = CoreBudget::new(cores);
            let out = run_jobs(&budget, 40, usize::MAX, true, |j| j * j);
            assert_eq!(out, (0..40).map(|j| j * j).collect::<Vec<_>>());
            assert_eq!(spare(&budget), cores - 1, "{cores} cores");
        }
    }
}
