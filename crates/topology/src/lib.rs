//! # rahtm-topology
//!
//! Network-topology substrate for the RAHTM reproduction.
//!
//! This crate models the interconnect side of the task-mapping problem:
//!
//! * [`Coord`] — fixed-capacity multi-dimensional coordinates.
//! * [`Torus`] — k-ary n-mesh / n-torus topology graphs with dense,
//!   per-direction channel indexing (the Blue Gene/Q 5-D torus is an
//!   instance).
//! * [`SubCube`] — axis-aligned sub-regions of a torus that never cross
//!   its wrap-around seam (the machine's uniform slices).
//! * [`Orientation`] — the hyperoctahedral symmetry group (rotations and
//!   reflections of a cube) used in the merge phase to re-orient solved
//!   blocks.
//! * [`hilbert`] — d-dimensional Hilbert space-filling curves (one of the
//!   baseline mappings evaluated in the paper).
//! * [`bgq`] — a machine model of the paper's evaluation platform: a
//!   4×4×4×4×2 torus partition of Mira with 16 cores per node.
//!
//! Everything is deterministic and allocation-conscious: coordinates are
//! inline arrays, channels are dense integer ids, and node enumeration is
//! lexicographic with the **last dimension fastest** (row-major), matching
//! the `ABCDET`-style orders in the paper where `T` (the on-node core slot)
//! varies fastest.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's math notation
#![deny(missing_docs)]

pub mod bgq;
pub mod coord;
pub mod hilbert;
pub mod orientation;
pub mod subcube;
pub mod torus;

pub use bgq::BgqMachine;
pub use coord::{Coord, MAX_DIMS};
pub use orientation::Orientation;
pub use subcube::SubCube;
pub use torus::{Channel, ChannelId, Direction, NodeId, Torus};
