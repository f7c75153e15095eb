//! k-ary n-mesh / n-torus topology graphs.
//!
//! The paper evaluates RAHTM on Blue Gene/Q's 5-D torus, and its
//! divide-and-conquer solves sub-problems on 2-ary n-cubes (sub-meshes of
//! the torus). [`Torus`] models both: every dimension independently either
//! wraps (torus) or does not (mesh), and a per-dimension *channel width*
//! implements the paper's observation that a 2-ary n-torus is equivalent to
//! a 2-ary n-mesh with double-wide links (§III-C).
//!
//! ## Channel indexing
//!
//! Channels (directed links) get dense integer ids:
//! `id = node * 2n + 2*dim + dir`, where `dir` is 0 for the positive and 1
//! for the negative direction. Some slots are invalid (mesh boundaries);
//! load vectors are simply sized by [`Torus::num_channel_slots`] and invalid
//! slots stay zero. This keeps per-channel accumulation a bounds-checked
//! array index instead of a hash lookup — the hot path of MCL evaluation.

use crate::coord::Coord;

/// Dense node identifier (lexicographic, last dimension fastest).
pub type NodeId = u32;

/// Dense directed-channel identifier (see module docs for layout).
pub type ChannelId = u32;

/// Direction of travel along a dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing coordinate.
    Plus,
    /// Decreasing coordinate.
    Minus,
}

impl Direction {
    /// 0 for `Plus`, 1 for `Minus` (the channel-id sub-index).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::Plus => 0,
            Direction::Minus => 1,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }

    /// +1 / -1 as an i32.
    #[inline]
    pub fn sign(self) -> i32 {
        match self {
            Direction::Plus => 1,
            Direction::Minus => -1,
        }
    }

    /// Both directions, `Plus` first.
    #[inline]
    pub fn both() -> [Direction; 2] {
        [Direction::Plus, Direction::Minus]
    }
}

/// A directed channel (link) of the topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Channel {
    /// Dense channel id.
    pub id: ChannelId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Dimension the channel spans.
    pub dim: usize,
    /// Direction of travel.
    pub dir: Direction,
    /// Relative capacity (2.0 for the double-wide links of a 2-ary torus
    /// treated as a mesh, 1.0 otherwise).
    pub width: f64,
}

/// A k-ary n-mesh or n-torus (mixed per dimension).
///
/// Node ids are lexicographic with the **last dimension varying fastest**,
/// so for dims `[A,B]` node `(a,b)` has id `a*B + b`.
#[derive(Clone, Debug, PartialEq)]
pub struct Torus {
    dims: Vec<u16>,
    wrap: Vec<bool>,
    /// Per-dimension channel width multiplier.
    dim_width: Vec<f64>,
    strides: Vec<u32>,
    num_nodes: u32,
}

impl Torus {
    /// Builds a topology with per-dimension wrap flags and unit widths.
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than [`crate::MAX_DIMS`], has a
    /// zero extent, or `wrap.len() != dims.len()`.
    pub fn with_wraps(dims: &[u16], wrap: &[bool]) -> Self {
        assert!(!dims.is_empty(), "topology needs at least one dimension");
        assert!(dims.len() <= crate::MAX_DIMS);
        assert_eq!(dims.len(), wrap.len());
        assert!(dims.iter().all(|&k| k >= 1), "zero-extent dimension");
        let mut strides = vec![0u32; dims.len()];
        let mut acc: u64 = 1;
        for d in (0..dims.len()).rev() {
            strides[d] = acc as u32;
            acc *= dims[d] as u64;
            assert!(acc <= u32::MAX as u64, "topology too large");
        }
        // Wrap on a 1- or 2-extent dimension adds no distinct links in our
        // channel model; a 2-ary torus dimension is modelled as a mesh
        // dimension with double-wide links (paper §III-C).
        let mut wrap = wrap.to_vec();
        let mut dim_width = vec![1.0f64; dims.len()];
        for d in 0..dims.len() {
            if dims[d] <= 2 && wrap[d] {
                wrap[d] = false;
                if dims[d] == 2 {
                    dim_width[d] = 2.0;
                }
            }
        }
        Torus {
            dims: dims.to_vec(),
            wrap,
            dim_width,
            strides,
            num_nodes: acc as u32,
        }
    }

    /// A fully wrapped k-ary n-torus.
    #[allow(clippy::self_named_constructors)] // `Torus::torus` vs `Torus::mesh` is the clearest pair
    pub fn torus(dims: &[u16]) -> Self {
        Self::with_wraps(dims, &vec![true; dims.len()])
    }

    /// A fully unwrapped mesh.
    pub fn mesh(dims: &[u16]) -> Self {
        Self::with_wraps(dims, &vec![false; dims.len()])
    }

    /// A 2-ary n-cube (hypercube), i.e. a 2×2×…×2 mesh — RAHTM's leaf
    /// sub-problem topology.
    pub fn two_ary_cube(n: usize) -> Self {
        Self::mesh(&vec![2; n])
    }

    /// A 2-ary n-torus expressed as a double-wide 2-ary n-mesh — RAHTM's
    /// root sub-problem topology (§III-C).
    pub fn two_ary_root(n: usize) -> Self {
        Self::torus(&vec![2; n])
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> u16 {
        self.dims[d]
    }

    /// All extents.
    #[inline]
    pub fn dims(&self) -> &[u16] {
        &self.dims
    }

    /// Whether dimension `d` wraps around.
    #[inline]
    pub fn wraps(&self, d: usize) -> bool {
        self.wrap[d]
    }

    /// Channel width multiplier for dimension `d`.
    #[inline]
    pub fn dim_width(&self, d: usize) -> f64 {
        self.dim_width[d]
    }

    /// Total node count.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Node-id stride of dimension `d` (the id delta of a unit step along
    /// `d`). Lets routing code translate node ids without going through
    /// [`Torus::coord`] / [`Torus::node_id`].
    #[inline]
    pub fn stride(&self, d: usize) -> u32 {
        self.strides[d]
    }

    /// Converts a coordinate to a node id.
    #[inline]
    pub fn node_id(&self, c: &Coord) -> NodeId {
        debug_assert_eq!(c.ndims(), self.ndims());
        let mut id = 0u32;
        for d in 0..self.ndims() {
            debug_assert!(c.get(d) < self.dims[d], "coord {c:?} out of range");
            id += c.get(d) as u32 * self.strides[d];
        }
        id
    }

    /// Converts a node id to its coordinate.
    #[inline]
    pub fn coord(&self, mut node: NodeId) -> Coord {
        debug_assert!(node < self.num_nodes);
        let mut c = Coord::zero(self.ndims());
        for d in 0..self.ndims() {
            c.set(d, (node / self.strides[d]) as u16);
            node %= self.strides[d];
        }
        c
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes
    }

    /// The neighbor of `node` along `dim` in direction `dir`, if the link
    /// exists (mesh boundaries have none).
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let k = self.dims[dim];
        let x = c.get(dim);
        let nx = match (dir, self.wrap[dim]) {
            (Direction::Plus, false) => {
                if x + 1 < k {
                    x + 1
                } else {
                    return None;
                }
            }
            (Direction::Minus, false) => {
                if x > 0 {
                    x - 1
                } else {
                    return None;
                }
            }
            (Direction::Plus, true) => (x + 1) % k,
            (Direction::Minus, true) => (x + k - 1) % k,
        };
        Some(self.node_id(&c.with(dim, nx)))
    }

    /// Number of channel-id slots (including invalid boundary slots).
    #[inline]
    pub fn num_channel_slots(&self) -> usize {
        self.num_nodes as usize * 2 * self.ndims()
    }

    /// Dense channel id for `(node, dim, dir)` if the channel exists.
    #[inline]
    pub fn channel_id(&self, node: NodeId, dim: usize, dir: Direction) -> Option<ChannelId> {
        self.neighbor(node, dim, dir)?;
        Some(self.channel_slot(node, dim, dir))
    }

    /// Channel-id slot for `(node, dim, dir)` without validity checking.
    #[inline]
    pub fn channel_slot(&self, node: NodeId, dim: usize, dir: Direction) -> ChannelId {
        node * (2 * self.ndims() as u32) + (2 * dim as u32) + dir.index() as u32
    }

    /// Decodes a channel id into `(node, dim, dir)`.
    #[inline]
    pub fn channel_parts(&self, id: ChannelId) -> (NodeId, usize, Direction) {
        let per = 2 * self.ndims() as u32;
        let node = id / per;
        let rest = (id % per) as usize;
        let dim = rest / 2;
        let dir = if rest.is_multiple_of(2) {
            Direction::Plus
        } else {
            Direction::Minus
        };
        (node, dim, dir)
    }

    /// Iterates over all valid channels.
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        self.nodes().flat_map(move |node| {
            (0..self.ndims()).flat_map(move |dim| {
                Direction::both().into_iter().filter_map(move |dir| {
                    let dst = self.neighbor(node, dim, dir)?;
                    Some(Channel {
                        id: self.channel_slot(node, dim, dir),
                        src: node,
                        dst,
                        dim,
                        dir,
                        width: self.dim_width[dim],
                    })
                })
            })
        })
    }

    /// Per-dimension signed minimal displacement from `src` to `dst`.
    ///
    /// For a wrapped dimension the shorter way around is chosen; an exact
    /// tie (`|Δ| == k/2` on even `k`) is reported via the second tuple
    /// element so callers (e.g. the uniform-minimal routing model) can split
    /// the flow across both directions.
    pub fn displacement(&self, src: NodeId, dst: NodeId) -> Vec<(i32, bool)> {
        let mut out = vec![(0i32, false); self.ndims()];
        self.displacement_into(src, dst, &mut out);
        out
    }

    /// [`Self::displacement`] into a caller-provided buffer (first
    /// `ndims()` entries), returning the dimension count. Allocation-free
    /// for hot paths that resolve displacements per flow.
    ///
    /// # Panics
    /// Panics if `out.len() < self.ndims()`.
    pub fn displacement_into(&self, src: NodeId, dst: NodeId, out: &mut [(i32, bool)]) -> usize {
        let n = self.ndims();
        assert!(out.len() >= n);
        let a = self.coord(src);
        let b = self.coord(dst);
        for (d, slot) in out.iter_mut().enumerate().take(n) {
            let k = self.dims[d] as i32;
            let raw = b.get(d) as i32 - a.get(d) as i32;
            *slot = if !self.wrap[d] {
                (raw, false)
            } else {
                // shortest modular displacement in (-k/2, k/2]
                let m = raw.rem_euclid(k);
                let fwd = m;
                let bwd = m - k; // negative
                if 2 * fwd < k {
                    (fwd, false)
                } else if 2 * fwd > k {
                    (bwd, false)
                } else {
                    (fwd, true) // tie: k even, |Δ| = k/2 both ways
                }
            };
        }
        n
    }

    /// Minimal hop distance between two nodes (respecting wraps).
    pub fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        self.displacement(src, dst)
            .iter()
            .map(|(d, _)| d.unsigned_abs())
            .sum()
    }

    /// Walks one hop from `node` along `dim`/`dir`, panicking if the link
    /// does not exist. Useful in routing code where validity is known.
    #[inline]
    pub fn step(&self, node: NodeId, dim: usize, dir: Direction) -> NodeId {
        self.neighbor(node, dim, dir)
            .expect("step over a non-existent channel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip_4x4() {
        let t = Torus::torus(&[4, 4]);
        assert_eq!(t.num_nodes(), 16);
        for n in t.nodes() {
            assert_eq!(t.node_id(&t.coord(n)), n);
        }
    }

    #[test]
    fn last_dim_fastest() {
        let t = Torus::mesh(&[2, 3]);
        assert_eq!(t.node_id(&Coord::new(&[0, 1])), 1);
        assert_eq!(t.node_id(&Coord::new(&[1, 0])), 3);
    }

    #[test]
    fn mesh_boundary_has_no_neighbor() {
        let t = Torus::mesh(&[3]);
        assert_eq!(t.neighbor(0, 0, Direction::Minus), None);
        assert_eq!(t.neighbor(2, 0, Direction::Plus), None);
        assert_eq!(t.neighbor(1, 0, Direction::Plus), Some(2));
    }

    #[test]
    fn torus_wraps() {
        let t = Torus::torus(&[4]);
        assert_eq!(t.neighbor(0, 0, Direction::Minus), Some(3));
        assert_eq!(t.neighbor(3, 0, Direction::Plus), Some(0));
    }

    #[test]
    fn two_ary_torus_becomes_double_wide_mesh() {
        let t = Torus::two_ary_root(3);
        assert!(!t.wraps(0) && !t.wraps(1) && !t.wraps(2));
        assert_eq!(t.dim_width(0), 2.0);
        // 2-ary 3-cube: 12 undirected = 24 directed channels
        assert_eq!(t.channels().count(), 24);
    }

    #[test]
    fn two_ary_cube_channel_count() {
        // n * 2^(n-1) undirected edges, ×2 directed
        for n in 1..=5 {
            let t = Torus::two_ary_cube(n);
            assert_eq!(t.channels().count(), n * (1 << (n - 1)) * 2);
            assert_eq!(t.dim_width(0), 1.0);
        }
    }

    #[test]
    fn channel_count_torus() {
        // k-ary n-torus with k>2: every node has 2n outgoing channels
        let t = Torus::torus(&[4, 4, 4]);
        assert_eq!(t.channels().count(), 64 * 6);
    }

    #[test]
    fn channel_id_roundtrip() {
        let t = Torus::torus(&[4, 3]);
        for ch in t.channels() {
            let (node, dim, dir) = t.channel_parts(ch.id);
            assert_eq!(node, ch.src);
            assert_eq!(dim, ch.dim);
            assert_eq!(dir, ch.dir);
            assert_eq!(t.step(node, dim, dir), ch.dst);
        }
    }

    #[test]
    fn displacement_mesh() {
        let t = Torus::mesh(&[8]);
        assert_eq!(t.displacement(1, 6), vec![(5, false)]);
        assert_eq!(t.displacement(6, 1), vec![(-5, false)]);
    }

    #[test]
    fn displacement_torus_shortcut() {
        let t = Torus::torus(&[8]);
        assert_eq!(t.displacement(1, 6), vec![(-3, false)]);
        assert_eq!(t.displacement(6, 1), vec![(3, false)]);
    }

    #[test]
    fn displacement_tie() {
        let t = Torus::torus(&[4]);
        let d = t.displacement(0, 2);
        assert_eq!(d, vec![(2, true)]);
    }

    #[test]
    fn distance_respects_wrap() {
        let t = Torus::torus(&[4, 4]);
        let a = t.node_id(&Coord::new(&[0, 0]));
        let b = t.node_id(&Coord::new(&[3, 3]));
        assert_eq!(t.distance(a, b), 2);
        let m = Torus::mesh(&[4, 4]);
        assert_eq!(m.distance(a, b), 6);
    }

    #[test]
    fn bgq_partition_shape() {
        let t = Torus::torus(&[4, 4, 4, 4, 2]);
        assert_eq!(t.num_nodes(), 512);
        assert!(t.wraps(0) && !t.wraps(4));
        assert_eq!(t.dim_width(4), 2.0);
    }
}
