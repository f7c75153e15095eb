//! Central core-budget accounting for every parallel phase.
//!
//! Three independent subsystems spawn worker threads: the per-slice
//! pipeline scope ([`crate::pipeline`]), the merge-phase orientation
//! search ([`crate::merge`]), and the work-stealing branch-and-bound
//! inside the MILP ([`rahtm_lp::milp`]). Each used to size itself against
//! `available_parallelism` in isolation, which oversubscribes the machine
//! as soon as two of them overlap (slice workers each launching a
//! multi-threaded MILP). This module is the single place that answer
//! "how many cores may *this* phase use" questions so the products of
//! concurrent layers never exceed the physical core count.

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

/// Worker-thread count for a data-parallel task of `items` independent
/// units under a per-phase core cap: one thread per ~8 units (thread
/// spawn costs more than tiny work chunks), never more than the cap, and
/// `cap == 0` means "this phase owns the whole machine".
pub fn workers_for(items: usize, cap: usize) -> usize {
    let cap = if cap == 0 { available() } else { cap.min(available()) };
    (items / 8).clamp(1, cap.max(1))
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
    fn workers_scale_with_items_and_respect_cap() {
        assert_eq!(workers_for(0, 0), 1, "tiny work stays single-threaded");
        assert_eq!(workers_for(7, 0), 1);
        assert!(workers_for(10_000, 0) <= available());
        assert_eq!(workers_for(10_000, 1), 1, "cap wins over item count");
    }
}
