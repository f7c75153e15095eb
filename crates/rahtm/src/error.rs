//! Typed errors for the RAHTM pipeline.
//!
//! The pipeline's contract is: **always a valid mapping or a typed error,
//! never a panic, never an unbounded run**. Production mapping tools
//! (Schulz & Träff; Schulz & Woydt) are engineered the same way — the
//! optimizer degrades quality under pressure instead of failing — and
//! RAHTM's hierarchical structure makes that natural because every
//! sub-problem has a cheap annealing/greedy substitute (see the
//! degradation ladder in [`crate::pipeline`]).
//!
//! [`RahtmError`] is the workspace-wide error hierarchy: it covers
//! failures originating in every layer the pipeline touches — input
//! validation, the `rahtm_lp` solvers, `rahtm_commgraph` profile parsing
//! (used by the CLI), and the pipeline's parallel batches. It is written in the
//! `thiserror` style by hand (the offline build has no proc-macro error
//! crates): one variant per failure class, a `Display` that reads as a
//! one-line human message, and `std::error::Error` for composability.

use std::fmt;

/// Everything that can go wrong in a pipeline run, as data.
///
/// The degradation ladder absorbs most solver-level failures (an
/// infeasible or timed-out MILP falls back to annealing, annealing to a
/// greedy placement), so in practice `run` only surfaces the variants that
/// have no fallback: bad inputs, a worker that panicked twice, or a broken
/// internal invariant. The other variants exist so lower layers can report
/// *why* a rung of the ladder was taken, and so the CLI can map every
/// failure class to a distinct exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RahtmError {
    /// Input validation failed. Collects **every** problem found, not just
    /// the first, so a user fixes their invocation in one round trip.
    InvalidInput {
        /// One human-readable line per independent problem.
        problems: Vec<String>,
    },
    /// A Table II MILP came back infeasible or unknown with no usable
    /// incumbent. Inside the pipeline the degradation ladder catches this;
    /// it only escapes when `milp_map` is called directly.
    Infeasible {
        /// Which solve failed and with what solver status.
        context: String,
    },
    /// A phase exhausted its wall-clock budget and no fallback could
    /// produce an answer. The pipeline itself never returns this (the
    /// greedy rung always succeeds); callers driving solvers directly can.
    Timeout {
        /// Which phase ran out of time.
        phase: String,
    },
    /// The pipeline's level pass panicked, and so did its re-run on one
    /// core.
    WorkerPanic {
        /// The extracted panic payload of the re-run.
        message: String,
    },
    /// Reading or writing a file failed (CLI layer).
    Io {
        /// The offending path.
        path: String,
        /// The OS error, rendered.
        message: String,
    },
    /// A communication profile failed to parse or had the wrong shape
    /// (originates in `rahtm_commgraph`; surfaced here so the CLI exit-code
    /// mapping covers it).
    Profile {
        /// Parser or shape-check message.
        message: String,
    },
    /// An internal invariant broke. Seeing this is a bug in RAHTM, not in
    /// the caller's input.
    Internal {
        /// What was violated.
        message: String,
    },
}

impl RahtmError {
    /// Builds [`RahtmError::InvalidInput`] from collected problems.
    pub fn invalid(problems: Vec<String>) -> Self {
        RahtmError::InvalidInput { problems }
    }

    /// Builds [`RahtmError::Internal`] from a message.
    pub fn internal(message: impl Into<String>) -> Self {
        RahtmError::Internal {
            message: message.into(),
        }
    }
}

impl fmt::Display for RahtmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RahtmError::InvalidInput { problems } => {
                write!(f, "invalid input ({} problem(s)):", problems.len())?;
                for p in problems {
                    write!(f, "\n  - {p}")?;
                }
                Ok(())
            }
            RahtmError::Infeasible { context } => {
                write!(f, "MILP infeasible: {context}")
            }
            RahtmError::Timeout { phase } => {
                write!(f, "time limit exhausted in {phase} with no fallback")
            }
            RahtmError::WorkerPanic { message } => {
                write!(f, "level pass panicked twice (salvage failed): {message}")
            }
            RahtmError::Io { path, message } => write!(f, "{path}: {message}"),
            RahtmError::Profile { message } => write!(f, "profile: {message}"),
            RahtmError::Internal { message } => {
                write!(f, "internal invariant violated (RAHTM bug): {message}")
            }
        }
    }
}

impl std::error::Error for RahtmError {}

/// Renders a `catch_unwind`/`join` panic payload as a string. Panics carry
/// `&str` or `String` payloads in practice; anything else gets a generic
/// label rather than being rethrown.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_input_lists_every_problem() {
        let e = RahtmError::invalid(vec!["first".into(), "second".into()]);
        let msg = e.to_string();
        assert!(msg.contains("2 problem(s)"));
        assert!(msg.contains("first") && msg.contains("second"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(RahtmError::internal("x"));
        assert!(e.to_string().contains("RAHTM bug"));
    }

    #[test]
    fn panic_payloads_render() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
