//! # rahtm-routing
//!
//! Routing models and channel-load evaluation — the "routing-aware" half of
//! RAHTM.
//!
//! The paper's key argument (§III-A) is that mapping quality must be judged
//! by **maximum channel load (MCL)** *under the machine's routing
//! algorithm*, not by routing-oblivious proxies like hop-bytes. Blue
//! Gene/Q uses minimum adaptive routing (MAR); following the paper, we
//! approximate it with an *oblivious* algorithm that spreads each flow
//! uniformly over all minimal (Manhattan) paths, evaluated exactly with
//! lattice-path combinatorics (§III-D, citing Towles & Dally's channel-load
//! technique).
//!
//! * [`ChannelLoads`] — dense per-channel load accumulator with
//!   width-normalized MCL.
//! * [`Routing`] — per-flow load models: dimension-order (the deterministic
//!   baseline) and uniform-minimal (the MAR approximation).
//! * [`adaptive`] — an LP lower bound: the best possible minimal-path split
//!   (idealized adaptivity), built on `rahtm-lp`; used for small-scale
//!   validation of the combinatorial model.
//! * [`metrics`] — MCL, hop-bytes and friends for whole mappings.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's math notation
#![deny(missing_docs)]

pub mod adaptive;
pub mod incremental;
pub mod load;
pub mod metrics;
pub mod oblivious;
pub mod stencil;

pub use incremental::IncrementalLoads;
pub use load::ChannelLoads;
pub use metrics::{mapping_hop_bytes, mapping_mcl, MappingEval};
pub use oblivious::{route_flow, route_graph, Routing};
pub use stencil::RouteStencilCache;
