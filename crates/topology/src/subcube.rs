//! Axis-aligned sub-regions of a torus, and the recursive bisection that
//! generates RAHTM's hierarchy.
//!
//! RAHTM decomposes a 2^L-ary n-torus into a tree: the root is the whole
//! machine seen as a 2-ary n-cube of half-side blocks, each block recursively
//! bisects into 2^n children, and the leaves are single nodes. A [`SubCube`]
//! is one block of that tree: an origin plus per-dimension extents inside a
//! parent [`Torus`]. Sub-cubes never cross the wrap-around seam, so their
//! induced sub-topology is always a *mesh* — exactly the property the
//! paper's MILP exploits to enforce minimal routing with one direction
//! binary per dimension (§III-C, constraint C3).

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

    /// True when the box holds exactly one node.
    pub fn is_empty(&self) -> bool {
        false // extents are >= 1 by construction; kept for clippy symmetry
    }

    /// True when the box holds exactly one node (a hierarchy leaf).
    pub fn is_single(&self) -> bool {
        self.len() == 1
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

    /// Converts a parent-global coordinate to a box-local one.
    ///
    /// # Panics
    /// Panics (in debug) if `global` is outside the box.
    #[inline]
    pub fn to_local(&self, global: &Coord) -> Coord {
        debug_assert!(self.contains(global), "{global:?} outside {self:?}");
        let mut l = *global;
        for d in 0..self.ndims() {
            l.set(d, global.get(d) - self.origin.get(d));
        }
        l
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

    /// Splits the box into 2^s children by halving every dimension with an
    /// even extent ≥ 2 (dimensions of extent 1 are not split), where `s` is
    /// the number of split dimensions. Children are returned in
    /// lexicographic order of their origin octant.
    ///
    /// # Panics
    /// Panics if any dimension has an odd extent > 1 (the hierarchy requires
    /// power-of-two sides; the pipeline pre-partitions non-conforming
    /// machines, see `rahtm-core`).
    pub fn bisect(&self) -> Vec<SubCube> {
        let n = self.ndims();
        let split: Vec<bool> = (0..n)
            .map(|d| {
                let e = self.extent.get(d);
                assert!(e == 1 || e.is_multiple_of(2), "odd extent {e} in dim {d}");
                e >= 2
            })
            .collect();
        let s = split.iter().filter(|&&b| b).count();
        let mut out = Vec::with_capacity(1 << s);
        for mask in 0..(1u32 << s) {
            let mut origin = self.origin;
            let mut extent = self.extent;
            let mut bit = 0;
            for d in 0..n {
                if split[d] {
                    let half = self.extent.get(d) / 2;
                    extent.set(d, half);
                    if (mask >> (s - 1 - bit)) & 1 == 1 {
                        origin.set(d, self.origin.get(d) + half);
                    }
                    bit += 1;
                }
            }
            out.push(SubCube::new(origin, extent));
        }
        out
    }

    /// Number of bisection levels until single nodes, assuming power-of-two
    /// extents: `log2(max extent)`.
    pub fn depth(&self) -> u32 {
        self.extent
            .iter()
            .map(|e| {
                assert!(e.is_power_of_two(), "extent {e} not a power of two");
                e.trailing_zeros()
            })
            .max()
            .unwrap_or(0)
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
    fn local_global_roundtrip() {
        let t = Torus::mesh(&[8, 8]);
        let s = SubCube::new(c(&[2, 4]), c(&[2, 2]));
        s.validate(&t);
        for l in [c(&[0, 0]), c(&[1, 1]), c(&[0, 1])] {
            assert_eq!(s.to_local(&s.to_global(&l)), l);
        }
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
    fn bisect_4x4_into_quadrants() {
        let s = SubCube::new(c(&[0, 0]), c(&[4, 4]));
        let kids = s.bisect();
        assert_eq!(kids.len(), 4);
        assert_eq!(kids[0].origin(), &c(&[0, 0]));
        assert_eq!(kids[1].origin(), &c(&[0, 2]));
        assert_eq!(kids[2].origin(), &c(&[2, 0]));
        assert_eq!(kids[3].origin(), &c(&[2, 2]));
        assert!(kids.iter().all(|k| k.extent() == &c(&[2, 2])));
    }

    #[test]
    fn bisect_skips_unit_dims() {
        let s = SubCube::new(c(&[0, 0, 0]), c(&[4, 1, 2]));
        let kids = s.bisect();
        assert_eq!(kids.len(), 4);
        assert!(kids.iter().all(|k| k.extent() == &c(&[2, 1, 1])));
    }

    #[test]
    fn bisect_to_leaves() {
        let s = SubCube::new(c(&[0, 0]), c(&[4, 4]));
        let mut level = vec![s];
        for _ in 0..2 {
            level = level.into_iter().flat_map(|b| b.bisect()).collect();
        }
        assert_eq!(level.len(), 16);
        assert!(level.iter().all(|b| b.is_single()));
    }

    #[test]
    fn depth_of_power_of_two_cube() {
        assert_eq!(SubCube::new(c(&[0, 0]), c(&[8, 8])).depth(), 3);
        assert_eq!(SubCube::new(c(&[0]), c(&[1])).depth(), 0);
        assert_eq!(SubCube::new(c(&[0, 0]), c(&[4, 2])).depth(), 2);
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

    #[test]
    #[should_panic]
    fn bisect_rejects_odd() {
        SubCube::new(c(&[0]), c(&[3])).bisect();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Bisection exactly partitions the parent: every node of the
            /// parent appears in exactly one child.
            #[test]
            fn bisect_partitions_parent(
                e0 in prop::sample::select(vec![1u16, 2, 4, 8]),
                e1 in prop::sample::select(vec![1u16, 2, 4]),
                o0 in 0u16..4,
                o1 in 0u16..4,
            ) {
                let parent_topo = Torus::mesh(&[16, 8]);
                let s = SubCube::new(c(&[o0, o1]), c(&[e0, e1]));
                s.validate(&parent_topo);
                let kids = s.bisect();
                let mut seen = std::collections::HashSet::new();
                for k in &kids {
                    for n in k.nodes(&parent_topo) {
                        prop_assert!(seen.insert(n), "node covered twice");
                    }
                }
                let all: std::collections::HashSet<_> =
                    s.nodes(&parent_topo).collect();
                prop_assert_eq!(seen, all);
            }

            /// local->global->local round-trips for every box point.
            #[test]
            fn local_global_roundtrip_all(
                e0 in 1u16..5, e1 in 1u16..5, o0 in 0u16..3, o1 in 0u16..3,
            ) {
                let s = SubCube::new(c(&[o0, o1]), c(&[e0, e1]));
                let mesh = s.as_mesh();
                for n in mesh.nodes() {
                    let lc = mesh.coord(n);
                    prop_assert_eq!(s.to_local(&s.to_global(&lc)), lc);
                }
            }
        }
    }
}
