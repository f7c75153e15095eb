//! # rahtm-commgraph
//!
//! Application-side substrate for the RAHTM reproduction: communication
//! graphs and the workloads that produce them.
//!
//! * [`CommGraph`] — a weighted, directed point-to-point communication
//!   graph over MPI ranks (what IPM profiling gave the paper's authors).
//! * [`patterns`] — synthetic kernels (rings, halos, transposes, random
//!   traffic) used by tests and `harness ablation`.
//! * [`nas`] — generators reproducing the per-iteration point-to-point
//!   patterns of the paper's three benchmarks (NAS BT, SP, CG; Table I),
//!   including the computation/communication split of Figure 9. This is the
//!   documented substitution for IPM profiles collected on Mira.
//! * [`tiling`] — rectangular tilings of a logical rank grid (Figure 2),
//!   the clustering primitive of RAHTM's phase 1.
//! * [`contract`] — graph contraction: collapsing clusters of ranks into
//!   single vertices while aggregating inter-cluster volumes.
//! * [`collectives`] — the paper's §VI extension: collective operations
//!   (all-gather, all-reduce, broadcast) lowered to the point-to-point
//!   flows of their implementation algorithms, so they feed the unchanged
//!   RAHTM pipeline.
//! * [`profile`] — JSON (de)serialization of profiles so mappings can be
//!   computed offline from saved traces, as the paper's workflow does.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's math notation
#![deny(missing_docs)]

pub mod collectives;
pub mod contract;
pub mod graph;
pub mod nas;
pub mod patterns;
pub mod profile;
pub mod tiling;

pub use graph::{CommGraph, Flow, Rank};
pub use nas::{Benchmark, BenchmarkSpec};
pub use tiling::RankGrid;
