//! Axis-aligned sub-regions of a torus.
//!
//! A [`SubCube`] is an origin plus per-dimension extents inside a parent
//! [`Torus`]. The pipeline uses it for the machine's uniform slices
//! ([`BgqMachine::uniform_slices`](crate::BgqMachine::uniform_slices)) and
//! for the whole machine. Sub-cubes never cross the wrap-around seam, so
//! their induced sub-topology is always a *mesh* — exactly the property
//! the paper's MILP exploits to enforce minimal routing with one direction
//! binary per dimension (§III-C, constraint C3). RAHTM's hierarchy itself
//! comes from clustering the communication graph (`rahtm-core`'s
//! `cluster` module), not from bisecting boxes.

use crate::coord::Coord;
use crate::torus::{NodeId, Torus};

/// An axis-aligned box of nodes inside a parent torus.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SubCube {
    origin: Coord,
    extent: Coord,
}

impl SubCube {
    /// Creates a sub-cube with the given origin and per-dimension extents.
    ///
    /// # Panics
    /// Panics if dimensions mismatch, any extent is zero, or the box leaves
    /// the parent when checked against `parent` via [`SubCube::validate`].
    pub fn new(origin: Coord, extent: Coord) -> Self {
        assert_eq!(origin.ndims(), extent.ndims());
        assert!(extent.iter().all(|e| e >= 1), "zero-extent sub-cube");
        SubCube { origin, extent }
    }

    /// The whole of `parent` as a sub-cube.
    pub fn whole(parent: &Torus) -> Self {
        let n = parent.ndims();
        let mut extent = Coord::zero(n);
        for d in 0..n {
            extent.set(d, parent.dim(d));
        }
        SubCube::new(Coord::zero(n), extent)
    }

    /// Checks the box lies within `parent` (no seam crossing).
    pub fn validate(&self, parent: &Torus) {
        assert_eq!(self.ndims(), parent.ndims());
        for d in 0..self.ndims() {
            assert!(
                self.origin.get(d) + self.extent.get(d) <= parent.dim(d),
                "sub-cube dim {d} [{}+{}] exceeds parent extent {}",
                self.origin.get(d),
                self.extent.get(d),
                parent.dim(d)
            );
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.origin.ndims()
    }

    /// Box origin (inclusive lower corner).
    #[inline]
    pub fn origin(&self) -> &Coord {
        &self.origin
    }

    /// Per-dimension extents.
    #[inline]
    pub fn extent(&self) -> &Coord {
        &self.extent
    }

    /// Node count inside the box.
    pub fn len(&self) -> usize {
        self.extent.iter().map(|e| e as usize).product()
    }

    /// Always false: extents are ≥ 1, so a box holds at least one node
    /// (kept beside [`SubCube::len`], as clippy asks).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `c` (parent-global coordinate) lies inside the box.
    pub fn contains(&self, c: &Coord) -> bool {
        (0..self.ndims()).all(|d| {
            let x = c.get(d);
            x >= self.origin.get(d) && x < self.origin.get(d) + self.extent.get(d)
        })
    }

    /// Converts a box-local coordinate to a parent-global one.
    #[inline]
    pub fn to_global(&self, local: &Coord) -> Coord {
        debug_assert_eq!(local.ndims(), self.ndims());
        let mut g = *local;
        for d in 0..self.ndims() {
            debug_assert!(local.get(d) < self.extent.get(d));
            g.set(d, local.get(d) + self.origin.get(d));
        }
        g
    }

    /// The box as a standalone mesh topology (local coordinates).
    pub fn as_mesh(&self) -> Torus {
        Torus::mesh(self.extent.as_slice())
    }

    /// Iterates parent-global node ids inside the box, in local
    /// lexicographic order (matching [`SubCube::as_mesh`] node ids).
    pub fn nodes<'a>(&'a self, parent: &'a Torus) -> impl Iterator<Item = NodeId> + 'a {
        let mesh = self.as_mesh();
        (0..self.len() as u32).map(move |local| {
            let lc = mesh.coord(local);
            parent.node_id(&self.to_global(&lc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(xs: &[u16]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn whole_covers_everything() {
        let t = Torus::torus(&[4, 4]);
        let s = SubCube::whole(&t);
        assert_eq!(s.len(), 16);
        assert_eq!(s.nodes(&t).count(), 16);
        s.validate(&t);
    }

    #[test]
    fn local_to_global_offsets_by_origin() {
        let t = Torus::mesh(&[8, 8]);
        let s = SubCube::new(c(&[2, 4]), c(&[2, 2]));
        s.validate(&t);
        assert_eq!(s.to_global(&c(&[0, 0])), c(&[2, 4]));
        assert_eq!(s.to_global(&c(&[1, 1])), c(&[3, 5]));
        assert_eq!(s.to_global(&c(&[0, 1])), c(&[2, 5]));
        assert!(s.contains(&c(&[3, 5])));
        assert!(!s.contains(&c(&[4, 4])));
    }

    #[test]
    fn nodes_follow_mesh_order() {
        let t = Torus::mesh(&[4, 4]);
        let s = SubCube::new(c(&[2, 2]), c(&[2, 2]));
        let nodes: Vec<_> = s.nodes(&t).collect();
        // local order (0,0),(0,1),(1,0),(1,1) -> global (2,2),(2,3),(3,2),(3,3)
        assert_eq!(nodes, vec![10, 11, 14, 15]);
    }

    #[test]
    fn as_mesh_shape() {
        let s = SubCube::new(c(&[1, 1]), c(&[2, 3]));
        let m = s.as_mesh();
        assert_eq!(m.dims(), &[2, 3]);
        assert!(!m.wraps(0));
    }

    #[test]
    #[should_panic]
    fn validate_rejects_overflow() {
        let t = Torus::mesh(&[4, 4]);
        SubCube::new(c(&[3, 0]), c(&[2, 2])).validate(&t);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every box point maps to a global point inside the box, offset
            /// by the origin.
            #[test]
            fn local_to_global_all(
                e0 in 1u16..5, e1 in 1u16..5, o0 in 0u16..3, o1 in 0u16..3,
            ) {
                let s = SubCube::new(c(&[o0, o1]), c(&[e0, e1]));
                let mesh = s.as_mesh();
                for n in mesh.nodes() {
                    let lc = mesh.coord(n);
                    let g = s.to_global(&lc);
                    prop_assert!(s.contains(&g));
                    prop_assert_eq!(g, c(&[lc.get(0) + o0, lc.get(1) + o1]));
                }
            }
        }
    }
}
