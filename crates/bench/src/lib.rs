//! # rahtm-bench
//!
//! Experiment harness regenerating every table and figure of the RAHTM
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! The `harness` binary drives the [`experiments`] runners and prints the
//! same rows/series the paper reports; EXPERIMENTS.md records the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{MappingKind, Scale};
