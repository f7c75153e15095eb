//! # rahtm-repro
//!
//! A full reproduction of *RAHTM: Routing Algorithm Aware Hierarchical
//! Task Mapping* (Abdel-Gawad, Thottethodi, Bhatele — SC 2014) as a Rust
//! workspace, including every substrate the paper depends on: topology
//! models, communication-graph generators, an LP/MILP solver, routing-load
//! models, baseline mappers, and a network/execution-time simulator.
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! ```
//! use rahtm_repro::prelude::*;
//!
//! let machine = BgqMachine::toy_4x4();
//! let app = Benchmark::Cg.graph(16);
//! let result = RahtmMapper::new(RahtmConfig::fast())
//!     .map(&machine, &app, None);
//! assert_eq!(result.mapping.num_ranks(), 16);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured experiment log.

#![forbid(unsafe_code)]

pub use rahtm_baselines as baselines;
pub use rahtm_commgraph as commgraph;
pub use rahtm_core as core;
pub use rahtm_lp as lp;
pub use rahtm_netsim as netsim;
pub use rahtm_obs as obs;
pub use rahtm_routing as routing;
pub use rahtm_topology as topology;

/// Convenient glob-import surface covering the common workflow:
/// build a machine + communication graph, run a mapper, evaluate it.
pub mod prelude {
    pub use rahtm_baselines::{
        dim_order_mapping, greedy_hop_bytes, hilbert_mapping, random_mapping, rht_mapping,
        RhtConfig,
    };
    pub use rahtm_commgraph::{patterns, profile::Profile, Benchmark, CommGraph, RankGrid};
    pub use rahtm_core::{
        DegradationReport, Fault, FaultPlan, PhaseStats, RahtmConfig, RahtmError, RahtmMapper,
        RahtmResult, TaskMapping,
    };
    pub use rahtm_lp::Deadline;
    pub use rahtm_netsim::{AppModel, CommTimeModel, DesConfig, DesRouting};
    pub use rahtm_obs::{Journal, Recorder};
    pub use rahtm_routing::{mapping_hop_bytes, mapping_mcl, ChannelLoads, Routing};
    pub use rahtm_topology::{BgqMachine, Coord, Orientation, SubCube, Torus};
}
