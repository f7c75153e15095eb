//! # rahtm-netsim
//!
//! The evaluation substrate standing in for the paper's Blue Gene/Q runs
//! (see DESIGN.md's substitution table).
//!
//! * [`flowmodel`] — a bandwidth-bound flow-level communication-time
//!   model: per-iteration communication time is dominated by the most
//!   contended link, i.e. MCL / link bandwidth, plus latency terms. This
//!   is exactly the regime the paper targets ("for communication-heavy
//!   workloads, the bandwidth is the important metric", §II-B).
//! * [`appmodel`] — an iterative-application execution-time model with a
//!   computation/communication split calibrated to Figure 9, which turns
//!   communication-time changes (Figure 10) into overall execution-time
//!   changes (Figure 8) through Amdahl's law.
//! * [`des`] — a packet-granularity discrete-event torus simulator with
//!   dimension-order and congestion-aware minimal-adaptive routing, used
//!   to validate that the MCL metric predicts delivered communication
//!   time.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod appmodel;
pub mod des;
pub mod flowmodel;

pub use appmodel::{AppModel, ExecutionBreakdown};
pub use des::{simulate_phase, DesConfig, DesResult, DesRouting};
pub use flowmodel::{CommTimeBreakdown, CommTimeModel};
