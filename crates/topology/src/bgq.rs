//! Blue Gene/Q machine model.
//!
//! The paper's evaluation platform is a 512-node partition of Mira with a
//! 4×4×4×4×2 torus (dimensions A–E) and 16 cores per node; benchmarks run
//! 16 384 processes, i.e. a concentration factor of 32 (§IV). This module
//! packages those machine facts and the uniform-partition preprocessing step
//! RAHTM needs: the hierarchy requires all torus dimensions equal, so a
//! non-conforming machine is sliced into uniform sub-tori (for Mira: two
//! 4×4×4×4 slices along the arity-2 E dimension, §III-B), each solved
//! independently and merged back in phase 3.

use crate::coord::Coord;
use crate::subcube::SubCube;
use crate::torus::Torus;

/// A machine: a node-level torus plus per-node process capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct BgqMachine {
    torus: Torus,
    cores_per_node: u32,
    concentration: u32,
}

impl BgqMachine {
    /// Builds a machine from a node torus, physical core count, and the
    /// process concentration factor (processes per node).
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(torus: Torus, cores_per_node: u32, concentration: u32) -> Self {
        assert!(cores_per_node >= 1 && concentration >= 1);
        BgqMachine {
            torus,
            cores_per_node,
            concentration,
        }
    }

    /// The paper's platform: 512 nodes as a 4×4×4×4×2 torus, 16 cores per
    /// node, concentration factor 32 (16 384 processes).
    pub fn mira_512() -> Self {
        BgqMachine::new(Torus::torus(&[4, 4, 4, 4, 2]), 16, 32)
    }

    /// A small toy machine for examples and tests: 4×4 torus, 1 process per
    /// node (the paper's walkthrough of Figures 3–7).
    pub fn toy_4x4() -> Self {
        BgqMachine::new(Torus::torus(&[4, 4]), 1, 1)
    }

    /// The node-level torus.
    #[inline]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Physical cores per node.
    #[inline]
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Processes placed on each node.
    #[inline]
    pub fn concentration(&self) -> u32 {
        self.concentration
    }

    /// Total process slots (`nodes × concentration`).
    #[inline]
    pub fn num_process_slots(&self) -> u64 {
        self.torus.num_nodes() as u64 * self.concentration as u64
    }

    /// Slices the torus into uniform sub-tori of side `side`: every
    /// dimension with extent ≥ `side` is chopped into `extent/side` chunks
    /// and smaller dimensions into unit chunks, so each slice has extents in
    /// `{side, 1}`.
    ///
    /// # Errors
    /// Names the first extent ≥ `side` that `side` does not divide.
    ///
    /// # Panics
    /// Panics if `side` is 0.
    pub fn uniform_slices_with_side(&self, side: u16) -> Result<Vec<SubCube>, String> {
        assert!(side >= 1);
        let n = self.torus.ndims();
        let mut chunks = Vec::with_capacity(n);
        for d in 0..n {
            let k = self.torus.dim(d);
            chunks.push(if k < side {
                k
            } else if k.is_multiple_of(side) {
                k / side
            } else {
                return Err(format!("side {side} does not divide extent {k}"));
            });
        }
        let mut slices = Vec::new();
        let counter = Torus::mesh(&chunks);
        for idx in counter.nodes() {
            let which = counter.coord(idx);
            let mut origin = Coord::zero(n);
            let mut extent = Coord::zero(n);
            for d in 0..n {
                let k = self.torus.dim(d);
                if k >= side {
                    origin.set(d, which.get(d) * side);
                    extent.set(d, side);
                } else {
                    origin.set(d, which.get(d));
                    extent.set(d, 1);
                }
            }
            let sc = SubCube::new(origin, extent);
            sc.validate(&self.torus);
            slices.push(sc);
        }
        Ok(slices)
    }

    /// Slices the torus into uniform sub-tori, choosing the side
    /// automatically as the most common power-of-two extent (ties broken
    /// toward the larger side). For Mira's 4×4×4×4×2 this selects side 4 and
    /// returns the two 4×4×4×4 E-slices, matching the paper.
    ///
    /// # Panics
    /// Panics if the chosen side does not divide every extent ≥ it
    /// ([`Self::try_uniform_slices`] reports that as an error).
    pub fn uniform_slices(&self) -> Vec<SubCube> {
        self.try_uniform_slices().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::uniform_slices`], reporting a machine that the chosen side
    /// cannot cut uniformly (e.g. 2×3: side 2 does not divide 3) as an
    /// error instead of a panic.
    ///
    /// # Errors
    /// Names the first extent that the chosen side does not divide.
    pub fn try_uniform_slices(&self) -> Result<Vec<SubCube>, String> {
        let mut counts = std::collections::BTreeMap::new();
        for d in 0..self.torus.ndims() {
            let k = self.torus.dim(d);
            if k > 1 && k.is_power_of_two() {
                *counts.entry(k).or_insert(0usize) += 1;
            }
        }
        let side = counts
            .into_iter()
            .max_by_key(|&(k, c)| (c, k))
            .map(|(k, _)| k)
            .unwrap_or(1);
        self.uniform_slices_with_side(side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_shape() {
        let m = BgqMachine::mira_512();
        assert_eq!(m.torus().num_nodes(), 512);
        assert_eq!(m.cores_per_node(), 16);
        assert_eq!(m.concentration(), 32);
        assert_eq!(m.num_process_slots(), 16 * 1024);
    }

    #[test]
    fn mira_slices_along_e() {
        let m = BgqMachine::mira_512();
        let slices = m.uniform_slices();
        assert_eq!(slices.len(), 2);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.extent().as_slice(), &[4, 4, 4, 4, 1]);
            assert_eq!(s.origin().get(4), i as u16);
            assert_eq!(s.len(), 256);
        }
    }

    #[test]
    fn slices_cover_disjointly() {
        let m = BgqMachine::mira_512();
        let slices = m.uniform_slices();
        let mut seen = vec![false; 512];
        for s in &slices {
            for n in s.nodes(m.torus()) {
                assert!(!seen[n as usize], "node {n} covered twice");
                seen[n as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn explicit_side_two() {
        let m = BgqMachine::mira_512();
        let slices = m.uniform_slices_with_side(2).unwrap();
        assert_eq!(slices.len(), 16); // (4/2)^4 * (2/2) = 16 slices of 2^5
        assert!(slices.iter().all(|s| s.len() == 32));
    }

    #[test]
    fn non_dividing_side_is_an_error() {
        // 2x3: the most common power-of-two extent is 2, which does not
        // divide 3
        let m = BgqMachine::new(Torus::torus(&[2, 3]), 6, 6);
        let err = m.try_uniform_slices().unwrap_err();
        assert_eq!(err, "side 2 does not divide extent 3");
    }

    #[test]
    fn uniform_machine_single_slice() {
        let m = BgqMachine::new(Torus::torus(&[4, 4]), 16, 16);
        let slices = m.uniform_slices();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len(), 16);
    }
}
