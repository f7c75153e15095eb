//! Fixed-capacity multi-dimensional coordinates.
//!
//! Task-mapping code manipulates millions of coordinates (one per node per
//! candidate mapping per beam entry), so [`Coord`] stores its components
//! inline in a fixed array instead of heap-allocating a `Vec` — the
//! "short vector" idiom from the Rust performance guides, without pulling in
//! an extra dependency.

use std::fmt;

/// Maximum number of topology dimensions supported.
///
/// Blue Gene/Q uses 5 torus dimensions plus the on-node `T` dimension; 8
/// leaves headroom for experimentation (e.g. 6-D tori, extra concentration
/// levels) while keeping `Coord` a 17-byte value type.
pub const MAX_DIMS: usize = 8;

/// A point in an n-dimensional grid, `n <= MAX_DIMS`.
///
/// Components are `u16`, which supports tori up to 65 536 nodes per
/// dimension — far beyond any machine the paper considers (BG/Q dimensions
/// have arity 2–16).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    n: u8,
    xs: [u16; MAX_DIMS],
}

impl Coord {
    /// Creates a coordinate from a slice of components.
    ///
    /// # Panics
    /// Panics if `xs.len() > MAX_DIMS`.
    #[inline]
    pub fn new(xs: &[u16]) -> Self {
        assert!(
            xs.len() <= MAX_DIMS,
            "coordinate has {} dims, max is {}",
            xs.len(),
            MAX_DIMS
        );
        let mut c = Coord {
            n: xs.len() as u8,
            xs: [0; MAX_DIMS],
        };
        c.xs[..xs.len()].copy_from_slice(xs);
        c
    }

    /// The all-zeros coordinate with `n` dimensions.
    #[inline]
    pub fn zero(n: usize) -> Self {
        assert!(n <= MAX_DIMS);
        Coord {
            n: n as u8,
            xs: [0; MAX_DIMS],
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.n as usize
    }

    /// Component along dimension `d`.
    #[inline]
    pub fn get(&self, d: usize) -> u16 {
        debug_assert!(d < self.ndims());
        self.xs[d]
    }

    /// Sets the component along dimension `d`.
    #[inline]
    pub fn set(&mut self, d: usize, v: u16) {
        debug_assert!(d < self.ndims());
        self.xs[d] = v;
    }

    /// Components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        &self.xs[..self.n as usize]
    }

    /// Iterator over components.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.as_slice().iter().copied()
    }

    /// Returns a copy with dimension `d` replaced by `v`.
    #[inline]
    pub fn with(&self, d: usize, v: u16) -> Self {
        let mut c = *self;
        c.set(d, v);
        c
    }

    /// Component-wise addition (no wrapping; caller handles modular
    /// arithmetic via [`crate::Torus`]).
    #[inline]
    pub fn add(&self, other: &Coord) -> Self {
        debug_assert_eq!(self.ndims(), other.ndims());
        let mut c = *self;
        for d in 0..self.ndims() {
            c.xs[d] += other.xs[d];
        }
        c
    }

    /// L1 (Manhattan) distance to `other`, ignoring wrap-around.
    #[inline]
    pub fn l1_mesh(&self, other: &Coord) -> u32 {
        debug_assert_eq!(self.ndims(), other.ndims());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs())
            .sum()
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::ops::Index<usize> for Coord {
    type Output = u16;
    #[inline]
    fn index(&self, d: usize) -> &u16 {
        &self.as_slice()[d]
    }
}

impl From<&[u16]> for Coord {
    fn from(xs: &[u16]) -> Self {
        Coord::new(xs)
    }
}

impl<const N: usize> From<[u16; N]> for Coord {
    fn from(xs: [u16; N]) -> Self {
        Coord::new(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_get() {
        let c = Coord::new(&[1, 2, 3]);
        assert_eq!(c.ndims(), 3);
        assert_eq!(c.get(0), 1);
        assert_eq!(c.get(2), 3);
        assert_eq!(c[1], 2);
    }

    #[test]
    fn zero_is_all_zeros() {
        let z = Coord::zero(5);
        assert_eq!(z.ndims(), 5);
        assert!(z.iter().all(|x| x == 0));
    }

    #[test]
    fn with_replaces_one_component() {
        let c = Coord::new(&[4, 5, 6]);
        let d = c.with(1, 9);
        assert_eq!(d.as_slice(), &[4, 9, 6]);
        assert_eq!(c.as_slice(), &[4, 5, 6], "original untouched");
    }

    #[test]
    fn l1_mesh_distance() {
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[3, 1]);
        assert_eq!(a.l1_mesh(&b), 4);
        assert_eq!(b.l1_mesh(&a), 4);
        assert_eq!(a.l1_mesh(&a), 0);
    }

    #[test]
    fn add_componentwise() {
        let a = Coord::new(&[1, 2]);
        let b = Coord::new(&[10, 20]);
        assert_eq!(a.add(&b).as_slice(), &[11, 22]);
    }

    #[test]
    fn display_format() {
        let c = Coord::new(&[1, 0, 2]);
        assert_eq!(format!("{c}"), "(1,0,2)");
    }

    #[test]
    #[should_panic]
    fn too_many_dims_panics() {
        let _ = Coord::new(&[0; MAX_DIMS + 1]);
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let a = Coord::new(&[1, 2]);
        let mut b = Coord::new(&[1, 2]);
        b.set(1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn from_array() {
        let c: Coord = [3u16, 4].into();
        assert_eq!(c.as_slice(), &[3, 4]);
    }
}
