//! The hyperoctahedral group: rotations and reflections of an n-dimensional
//! box.
//!
//! RAHTM's merge phase (§III-D) re-orients each solved block — "all possible
//! reorientations and rotations" of a sub-cube. The symmetry group of an
//! n-cube is the hyperoctahedral group **B_n** of signed permutations:
//! permute the axes, then optionally mirror along each axis. `|B_n| = 2^n
//! n!` (8 for the paper's 2-D walkthrough, 3840 for the 5-D BG/Q case).
//!
//! An [`Orientation`] acts on *box-local* coordinates. Axis permutation is
//! only shape-preserving between dimensions of equal extent; RAHTM applies
//! orientations to 2-ary n-cubes where all extents are 2, so the whole group
//! is always available, but [`Orientation::enumerate_for`] also supports
//! non-uniform boxes by restricting to extent-preserving permutations.

use crate::coord::{Coord, MAX_DIMS};
use serde::{Deserialize, Serialize};

/// A signed permutation of box axes: `y[d] = flip_d(x[perm[d]])`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Orientation {
    n: u8,
    /// `perm[d]` is the input axis that feeds output axis `d`.
    perm: [u8; MAX_DIMS],
    /// Bit `d` set means output axis `d` is mirrored.
    flips: u8,
}

impl std::fmt::Debug for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Orientation(perm=[")?;
        for d in 0..self.n as usize {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.perm[d])?;
        }
        write!(f, "], flips=0b{:b})", self.flips)
    }
}

impl Orientation {
    /// The identity orientation in `n` dimensions.
    pub fn identity(n: usize) -> Self {
        assert!(n <= MAX_DIMS && n > 0);
        let mut perm = [0u8; MAX_DIMS];
        for (d, p) in perm.iter_mut().enumerate().take(n) {
            *p = d as u8;
        }
        Orientation {
            n: n as u8,
            perm,
            flips: 0,
        }
    }

    /// Builds an orientation from a permutation slice and a flip bitmask.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n` or flips has bits
    /// beyond `n`.
    pub fn new(perm: &[u8], flips: u8) -> Self {
        let n = perm.len();
        assert!(n <= MAX_DIMS && n > 0);
        let mut seen = [false; MAX_DIMS];
        for &p in perm {
            assert!((p as usize) < n && !seen[p as usize], "not a permutation");
            seen[p as usize] = true;
        }
        assert!(
            n == 8 || flips < (1 << n),
            "flip bits beyond dimension count"
        );
        let mut pa = [0u8; MAX_DIMS];
        pa[..n].copy_from_slice(perm);
        Orientation {
            n: n as u8,
            perm: pa,
            flips,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.n as usize
    }

    /// The input axis feeding output axis `d`.
    #[inline]
    pub fn perm(&self, d: usize) -> usize {
        self.perm[d] as usize
    }

    /// Whether output axis `d` is mirrored.
    #[inline]
    pub fn flipped(&self, d: usize) -> bool {
        (self.flips >> d) & 1 == 1
    }

    /// The same axis permutation with the output-axis flip bits in `mask`
    /// toggled. Placed at a fixed origin, this is the block mirrored inside
    /// its box along each axis in `mask`.
    ///
    /// # Panics
    /// Panics if `mask` has bits beyond the dimension count.
    pub fn with_flips_toggled(&self, mask: u8) -> Orientation {
        assert!(self.n == 8 || mask < (1 << self.n), "flip bits beyond dimension count");
        Orientation {
            flips: self.flips ^ mask,
            ..*self
        }
    }

    /// Applies the orientation to a box-local coordinate, given the box
    /// extents *after* the transform (`extent[d]` must equal the input
    /// extent of axis `perm[d]`).
    #[inline]
    pub fn apply(&self, x: &Coord, extent: &Coord) -> Coord {
        debug_assert_eq!(x.ndims(), self.ndims());
        debug_assert_eq!(extent.ndims(), self.ndims());
        let mut y = Coord::zero(self.ndims());
        for d in 0..self.ndims() {
            let v = x.get(self.perm(d));
            let e = extent.get(d);
            debug_assert!(v < e, "coord outside extent after permutation");
            y.set(d, if self.flipped(d) { e - 1 - v } else { v });
        }
        y
    }

    /// Composition: `(a.then(b)).apply(x) == b.apply(a.apply(x))` on a
    /// uniform cube (all extents equal).
    pub fn then(&self, b: &Orientation) -> Orientation {
        assert_eq!(self.ndims(), b.ndims());
        let n = self.ndims();
        let mut perm = [0u8; MAX_DIMS];
        let mut flips = 0u8;
        for d in 0..n {
            // b output d reads b.perm(d) of a's output, which reads
            // a.perm(b.perm(d)) of the original input.
            perm[d] = self.perm[b.perm(d)];
            let f = b.flipped(d) ^ self.flipped(b.perm(d));
            if f {
                flips |= 1 << d;
            }
        }
        Orientation {
            n: n as u8,
            perm,
            flips,
        }
    }

    /// The inverse orientation (uniform cubes).
    pub fn inverse(&self) -> Orientation {
        let n = self.ndims();
        let mut perm = [0u8; MAX_DIMS];
        let mut flips = 0u8;
        for d in 0..n {
            perm[self.perm[d] as usize] = d as u8;
            if self.flipped(d) {
                flips |= 1 << self.perm[d];
            }
        }
        Orientation {
            n: n as u8,
            perm,
            flips,
        }
    }

    /// Enumerates the full hyperoctahedral group for an `n`-cube
    /// (`2^n · n!` elements). Deterministic order: permutations in
    /// lexicographic order, flips as an inner counter.
    pub fn enumerate(n: usize) -> Vec<Orientation> {
        assert!(n > 0 && n <= MAX_DIMS);
        let mut perms = Vec::new();
        let mut cur: Vec<u8> = (0..n as u8).collect();
        permutations(&mut cur, 0, &mut perms);
        perms.sort();
        let mut out = Vec::with_capacity(perms.len() << n);
        for p in &perms {
            for flips in 0..(1u16 << n) {
                out.push(Orientation::new(p, flips as u8));
            }
        }
        out
    }

    /// Enumerates orientations valid for a (possibly non-uniform) box with
    /// the given extents: only permutations mapping equal-extent axes onto
    /// each other are included.
    pub fn enumerate_for(extent: &Coord) -> Vec<Orientation> {
        Orientation::enumerate(extent.ndims())
            .into_iter()
            .filter(|o| {
                (0..extent.ndims()).all(|d| extent.get(o.perm(d)) == extent.get(d))
            })
            .collect()
    }
}

fn permutations(cur: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
    if k == cur.len() {
        out.push(cur.clone());
        return;
    }
    for i in k..cur.len() {
        cur.swap(k, i);
        permutations(cur, k + 1, out);
        cur.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cube(n: usize, side: u16) -> Coord {
        let mut e = Coord::zero(n);
        for d in 0..n {
            e.set(d, side);
        }
        e
    }

    #[test]
    fn identity_is_identity() {
        let id = Orientation::identity(3);
        let e = cube(3, 4);
        let x = Coord::new(&[1, 2, 3]);
        assert_eq!(id.apply(&x, &e), x);
    }

    #[test]
    fn group_size() {
        assert_eq!(Orientation::enumerate(1).len(), 2);
        assert_eq!(Orientation::enumerate(2).len(), 8);
        assert_eq!(Orientation::enumerate(3).len(), 48);
        assert_eq!(Orientation::enumerate(4).len(), 384);
    }

    #[test]
    fn enumeration_is_distinct() {
        let all = Orientation::enumerate(3);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn quarter_turn_2d() {
        // 90° rotation of a square: (x,y) -> (y, side-1-x)
        let rot = Orientation::new(&[1, 0], 0b10);
        let e = cube(2, 4);
        assert_eq!(rot.apply(&Coord::new(&[0, 0]), &e), Coord::new(&[0, 3]));
        assert_eq!(rot.apply(&Coord::new(&[1, 0]), &e), Coord::new(&[0, 2]));
    }

    #[test]
    fn action_is_bijective_on_cube() {
        let e = cube(3, 2);
        let mesh = crate::Torus::mesh(e.as_slice());
        for o in Orientation::enumerate(3) {
            let mut seen = [false; 8];
            for n in mesh.nodes() {
                let y = o.apply(&mesh.coord(n), &e);
                let id = mesh.node_id(&y) as usize;
                assert!(!seen[id], "orientation not injective");
                seen[id] = true;
            }
        }
    }

    #[test]
    fn toggled_flips_mirror_the_output_axes() {
        let e = Coord::new(&[2, 3, 4]);
        for o in Orientation::enumerate_for(&e) {
            let t = o.with_flips_toggled(0b101);
            assert_eq!(t.with_flips_toggled(0b101), o);
            for x in [Coord::new(&[0, 0, 0]), Coord::new(&[1, 2, 3]), Coord::new(&[1, 0, 2])] {
                let (y, z) = (o.apply(&x, &e), t.apply(&x, &e));
                assert_eq!(z, Coord::new(&[1 - y.get(0), y.get(1), 3 - y.get(2)]));
            }
        }
    }

    #[test]
    fn non_uniform_box_restricts_perms() {
        let e = Coord::new(&[4, 2]);
        let valid = Orientation::enumerate_for(&e);
        // axis swap would map extent 2 onto extent 4: only identity perm
        // remains, with 4 flip choices
        assert_eq!(valid.len(), 4);
        assert!(valid.iter().all(|o| o.perm(0) == 0 && o.perm(1) == 1));
    }

    proptest! {
        #[test]
        fn compose_matches_sequential_application(
            ai in 0usize..48, bi in 0usize..48, x0 in 0u16..4, x1 in 0u16..4, x2 in 0u16..4
        ) {
            let all = Orientation::enumerate(3);
            let (a, b) = (all[ai], all[bi]);
            let e = cube(3, 4);
            let x = Coord::new(&[x0, x1, x2]);
            let lhs = a.then(&b).apply(&x, &e);
            let rhs = b.apply(&a.apply(&x, &e), &e);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn inverse_undoes(ai in 0usize..48, x0 in 0u16..4, x1 in 0u16..4, x2 in 0u16..4) {
            let all = Orientation::enumerate(3);
            let a = all[ai];
            let e = cube(3, 4);
            let x = Coord::new(&[x0, x1, x2]);
            prop_assert_eq!(a.inverse().apply(&a.apply(&x, &e), &e), x);
            prop_assert_eq!(a.then(&a.inverse()), Orientation::identity(3));
        }

        #[test]
        fn associativity(ai in 0usize..8, bi in 0usize..8, ci in 0usize..8) {
            let all = Orientation::enumerate(2);
            let (a, b, c) = (all[ai], all[bi], all[ci]);
            prop_assert_eq!(a.then(&b).then(&c), a.then(&b.then(&c)));
        }
    }
}
