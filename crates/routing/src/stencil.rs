//! Displacement-class routing stencils.
//!
//! A torus is vertex-transitive: the load footprint of a flow depends only
//! on its displacement vector, never on where the source sits. The anneal
//! and merge hot paths route the same handful of displacements thousands of
//! times, so we memoize — per displacement class — the sparse list of
//! `(relative offset, dim, dir, fraction)` load entries of a flow, and
//! applying a flow becomes a translate-and-scatter sparse add.
//!
//! The classes of a topology are few and known up front, so the cache is a
//! dense table indexed by class, not a map: per dimension the class digit
//! is `(c_dst − c_src) mod k` on a wrapped dimension and
//! `c_dst − c_src + k − 1` on a mesh one, and the routing model doubles the
//! table. A lookup reads both endpoints' coordinates from a per-node table
//! (no divisions), forms the index, and does one acquire load on the cell.
//! A hit writes nothing another routing thread touches: cells are written
//! once, and lookups are counted in per-thread padded slots.
//!
//! Determinism contract: a stencil is built by the *same* enumerator
//! (`oblivious::for_each_entry`) that drives the direct
//! [`crate::route_flow`], stores the raw per-variant fractions unscaled and
//! unreordered, and the apply loop replays them in order, adding
//! `weight * frac` exactly as the direct router does. Cached routing is
//! therefore bit-identical to direct routing — same values, same
//! floating-point add order — which the property tests pin down.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use rahtm_commgraph::CommGraph;
use rahtm_topology::{NodeId, Torus, MAX_DIMS};

use crate::load::ChannelLoads;
use crate::oblivious::{for_each_entry, num_variants};
use crate::Routing;

/// The memoized sparse footprint of one displacement class.
///
/// Entries are stored flattened in emission order: entry `i` has relative
/// offsets `offsets[i*ndims..(i+1)*ndims]` (signed coordinate deltas from
/// the source), channel sub-slot `subs[i]` (`2*dim + dir.index()`), and raw
/// per-variant path fraction `fracs[i]`.
struct Stencil {
    /// Tie-orientation variants; a flow of `bytes` applies each entry with
    /// weight `bytes / variants`.
    variants: u32,
    offsets: Vec<i32>,
    subs: Vec<u32>,
    fracs: Vec<f64>,
}

impl Stencil {
    /// Builds the stencil for `disp` under `routing` by replaying the
    /// shared flow enumerator.
    fn build(routing: Routing, disp: &[(i32, bool)]) -> Self {
        let mut offsets = Vec::new();
        let mut subs = Vec::new();
        let mut fracs = Vec::new();
        for_each_entry(routing, disp, |off, dim, dir, frac| {
            offsets.extend_from_slice(off);
            subs.push((2 * dim + dir.index()) as u32);
            fracs.push(frac);
        });
        Stencil {
            variants: num_variants(routing, disp),
            offsets,
            subs,
            fracs,
        }
    }
}

/// One dimension of the cached topology.
struct Axis {
    k: i32,
    wrap: bool,
    /// Node-id stride of the dimension.
    stride: u32,
    /// Displacement classes along the dimension: `k` wrapped, `2k − 1` not.
    classes: usize,
}

/// Lookup-counter slots per cache. Threads take slots round-robin in
/// order of first use, so threads spawned together count on different
/// cache lines; two threads that share a slot stay exact because the add
/// is atomic.
const COUNTER_SLOTS: usize = 16;

/// A lookup counter alone on 128 bytes: its cache line plus the neighbour
/// line that adjacent-line prefetchers pull in with it.
#[derive(Default)]
#[repr(align(128))]
struct PaddedCounter(AtomicU64);

static NEXT_COUNTER_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTER_SLOT: usize =
        NEXT_COUNTER_SLOT.fetch_add(1, Ordering::Relaxed) % COUNTER_SLOTS;
}

/// A dense, lazily filled, lock-free cache of stencils for one topology.
///
/// Worker threads share one cache (behind an `Arc`) and fill it
/// concurrently: each cell is initialized exactly once, by the first
/// thread to look it up, while concurrent lookups of that cell wait for
/// it. A miss is counted inside that one-time initialization, so
/// `misses == distinct displacement classes` and `hits == lookups −
/// misses` — both deterministic run to run regardless of thread
/// interleaving.
pub struct RouteStencilCache {
    axes: Vec<Axis>,
    /// `coords[node * ndims + d]`: coordinate of `node` along dimension `d`.
    coords: Vec<u16>,
    /// One cell per (displacement class, routing model) pair:
    /// `2 × Π(wrap ? k : 2k − 1)` cells.
    cells: Vec<OnceLock<Box<Stencil>>>,
    lookups: Vec<PaddedCounter>,
    misses: AtomicU64,
}

impl std::fmt::Debug for RouteStencilCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteStencilCache")
            .field("dims", &self.axes.iter().map(|a| a.k).collect::<Vec<_>>())
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl RouteStencilCache {
    /// An empty cache bound to `topo`'s shape (dims + wrap pattern).
    pub fn new(topo: &Torus) -> Self {
        let n = topo.ndims();
        let axes: Vec<Axis> = (0..n)
            .map(|d| {
                let k = topo.dim(d) as usize;
                let wrap = topo.wraps(d);
                Axis {
                    k: k as i32,
                    wrap,
                    stride: topo.stride(d),
                    classes: if wrap { k } else { 2 * k - 1 },
                }
            })
            .collect();
        let coords = topo
            .nodes()
            .flat_map(|node| {
                let c = topo.coord(node);
                (0..n).map(move |d| c.get(d))
            })
            .collect();
        let num_cells = 2 * axes.iter().map(|a| a.classes).product::<usize>();
        RouteStencilCache {
            axes,
            coords,
            cells: (0..num_cells).map(|_| OnceLock::new()).collect(),
            lookups: (0..COUNTER_SLOTS)
                .map(|_| PaddedCounter::default())
                .collect(),
            misses: AtomicU64::new(0),
        }
    }

    /// True when `topo` has the shape this cache was built for.
    pub fn matches(&self, topo: &Torus) -> bool {
        self.axes.len() == topo.ndims()
            && self
                .axes
                .iter()
                .enumerate()
                .all(|(d, a)| a.k == i32::from(topo.dim(d)) && a.wrap == topo.wraps(d))
    }

    /// Coordinates of `node`, one per dimension.
    #[inline]
    fn coord(&self, node: NodeId) -> &[u16] {
        let n = self.axes.len();
        &self.coords[node as usize * n..][..n]
    }

    /// Visits each `(channel slot, load value)` of one flow, through the
    /// cache, in exactly the order the direct router deposits them.
    /// `src == dst` and zero-byte flows visit nothing.
    ///
    /// The channel slot is computed by integer translation: per dimension
    /// `v = src[d] + off[d]` with a single conditional ±k wrap (valid
    /// because offsets of a minimal path lie in `(-k, k)`), then
    /// `node = Σ v_d · stride_d` and `slot = node·2n + sub`. Minimality
    /// also guarantees the channel exists, so no per-entry validity check
    /// is needed.
    #[inline]
    pub fn for_each_load(
        &self,
        topo: &Torus,
        routing: Routing,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        mut visit: impl FnMut(u32, f64),
    ) {
        debug_assert!(
            self.matches(topo),
            "stencil cache bound to a different topology"
        );
        if src == dst || bytes == 0.0 {
            return;
        }
        let src_coord = self.coord(src);
        let mut class = 0usize;
        for ((a, &s), &t) in self.axes.iter().zip(src_coord).zip(self.coord(dst)) {
            let raw = i32::from(t) - i32::from(s);
            let digit = match (a.wrap, raw < 0) {
                (true, true) => raw + a.k,
                (true, false) => raw,
                (false, _) => raw + a.k - 1,
            };
            class = class * a.classes + digit as usize;
        }
        let cell = &self.cells[2 * class + usize::from(routing == Routing::DimOrder)];
        self.lookups[COUNTER_SLOT.with(|&slot| slot)]
            .0
            .fetch_add(1, Ordering::Relaxed);
        let stencil = cell.get_or_init(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut disp = [(0i32, false); MAX_DIMS];
            let n = topo.displacement_into(src, dst, &mut disp);
            Box::new(Stencil::build(routing, &disp[..n]))
        });

        let n = self.axes.len();
        let two_n = (2 * n) as u32;
        let weight = bytes / stencil.variants as f64;
        let entries = stencil.subs.iter().zip(&stencil.fracs);
        for ((&sub, &frac), off) in entries.zip(stencil.offsets.chunks_exact(n)) {
            let mut node = 0u32;
            for ((a, &s), &o) in self.axes.iter().zip(src_coord).zip(off) {
                let mut v = i32::from(s) + o;
                if v < 0 {
                    v += a.k;
                } else if v >= a.k {
                    v -= a.k;
                }
                node += v as u32 * a.stride;
            }
            visit(node * two_n + sub, weight * frac);
        }
    }

    /// Cache-accelerated drop-in for [`crate::route_flow`]: bit-identical
    /// loads, same add order.
    #[inline]
    pub fn route_flow(
        &self,
        topo: &Torus,
        routing: Routing,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        loads: &mut ChannelLoads,
    ) {
        self.for_each_load(topo, routing, src, dst, bytes, |slot, v| loads.add(slot, v));
    }

    /// Cache-accelerated drop-in for [`crate::route_graph`].
    ///
    /// # Panics
    /// Panics if `placement.len() != graph.num_ranks()`.
    pub fn route_graph(
        &self,
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
        routing: Routing,
    ) -> ChannelLoads {
        assert_eq!(placement.len(), graph.num_ranks() as usize);
        let mut loads = ChannelLoads::new(topo);
        for flow in graph.flows() {
            let src = placement[flow.src as usize];
            let dst = placement[flow.dst as usize];
            self.route_flow(topo, routing, src, dst, flow.bytes, &mut loads);
        }
        loads
    }

    /// Lookups answered from the cache.
    ///
    /// Exact once the routing threads are joined. A read racing them may
    /// see a miss whose lookup it did not sum, hence the saturation.
    pub fn hits(&self) -> u64 {
        let lookups: u64 = self
            .lookups
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum();
        lookups.saturating_sub(self.misses())
    }

    /// Lookups that built a new stencil (== distinct displacement classes).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stencils currently resident (filled cells).
    pub fn entries(&self) -> u64 {
        self.cells.iter().filter(|c| c.get().is_some()).count() as u64
    }

    /// Publishes hit/miss/entry counters to `rec`.
    pub fn report(&self, rec: &rahtm_obs::Recorder) {
        rec.add(rahtm_obs::counters::STENCIL_HITS, self.hits());
        rec.add(rahtm_obs::counters::STENCIL_MISSES, self.misses());
        rec.add(rahtm_obs::counters::STENCIL_ENTRIES, self.entries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::{route_flow, route_graph};
    use proptest::prelude::*;
    use rahtm_commgraph::patterns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_bit_identical(topo: &Torus, routing: Routing, src: NodeId, dst: NodeId, bytes: f64) {
        let cache = RouteStencilCache::new(topo);
        let mut direct = ChannelLoads::new(topo);
        route_flow(topo, routing, src, dst, bytes, &mut direct);
        // Twice through the cache: once building, once hitting.
        for _ in 0..2 {
            let mut cached = ChannelLoads::new(topo);
            cache.route_flow(topo, routing, src, dst, bytes, &mut cached);
            assert_eq!(direct, cached, "{routing:?} {src}->{dst}");
        }
        assert_eq!(cache.misses(), u64::from(src != dst && bytes != 0.0));
    }

    #[test]
    fn torus_ties_bit_identical() {
        let t = Torus::torus(&[4, 4, 4]);
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            for (src, dst) in [(0, 42), (7, 7), (63, 0), (1, 33), (10, 12)] {
                assert_bit_identical(&t, routing, src, dst, 3.5);
            }
        }
    }

    #[test]
    fn mesh_edges_bit_identical() {
        let t = Torus::mesh(&[6, 6]);
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            for (src, dst) in [(0, 35), (5, 30), (0, 5), (35, 0), (14, 21)] {
                assert_bit_identical(&t, routing, src, dst, 1.0);
            }
        }
    }

    #[test]
    fn width_two_rings_bit_identical() {
        // k=2 wrapped dims collapse to double-wide mesh links; the stencil
        // must reproduce that footprint (and its MCL) exactly.
        let t = Torus::two_ary_cube(4);
        let cache = RouteStencilCache::new(&t);
        let g = patterns::random(16, 60, 1.0, 20.0, 3);
        let placement: Vec<u32> = (0..16).collect();
        let direct = route_graph(&t, &g, &placement, Routing::UniformMinimal);
        let cached = cache.route_graph(&t, &g, &placement, Routing::UniformMinimal);
        assert_eq!(direct, cached);
        assert_eq!(direct.mcl(&t), cached.mcl(&t));
    }

    #[test]
    fn counters_track_unique_displacements() {
        let t = Torus::torus(&[4, 4]);
        let cache = RouteStencilCache::new(&t);
        let mut loads = ChannelLoads::new(&t);
        // same displacement class from different anchors: 1 miss, then hits
        cache.route_flow(&t, Routing::UniformMinimal, 0, 5, 1.0, &mut loads);
        cache.route_flow(&t, Routing::UniformMinimal, 1, 6, 1.0, &mut loads);
        cache.route_flow(&t, Routing::UniformMinimal, 10, 15, 1.0, &mut loads);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.entries(), 1);
        // a different displacement is a second miss
        cache.route_flow(&t, Routing::UniformMinimal, 0, 3, 1.0, &mut loads);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn table_size_follows_the_class_rule() {
        // 2 × Π(wrap ? k : 2k − 1): wrapped 4s, a 2-extent dim that the
        // topology models as a double-wide mesh dim, and a 1-extent dim
        let t = Torus::torus(&[4, 4, 4, 4, 2]);
        assert_eq!(
            RouteStencilCache::new(&t).cells.len(),
            2 * 4 * 4 * 4 * 4 * 3
        );
        let t = Torus::with_wraps(&[5, 3, 1], &[true, false, false]);
        assert_eq!(RouteStencilCache::new(&t).cells.len(), 2 * 5 * 5);
    }

    #[test]
    fn long_haul_cached_matches_direct() {
        // paths of length ≥ 257 take the Stirling tail of ln_factorial
        let ring = Torus::torus(&[600]);
        assert_bit_identical(&ring, Routing::UniformMinimal, 0, 300, 4.0);
        assert_bit_identical(&ring, Routing::DimOrder, 599, 299, 4.0);
        let m = Torus::mesh(&[300, 4]);
        assert_bit_identical(&m, Routing::UniformMinimal, 0, m.num_nodes() - 1, 1.0);
        assert_bit_identical(&m, Routing::UniformMinimal, m.num_nodes() - 1, 0, 1.0);
    }

    /// Routes `flows` through `cache` and directly, in order, into one
    /// accumulator each, and asserts the loads are bit-identical.
    fn assert_flows_bit_identical(
        t: &Torus,
        cache: &RouteStencilCache,
        routing: Routing,
        flows: &[(NodeId, NodeId, f64)],
    ) {
        let mut direct = ChannelLoads::new(t);
        let mut cached = ChannelLoads::new(t);
        for &(src, dst, bytes) in flows {
            route_flow(t, routing, src, dst, bytes, &mut direct);
            cache.route_flow(t, routing, src, dst, bytes, &mut cached);
        }
        let bits = |l: &ChannelLoads| l.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&direct),
            bits(&cached),
            "{routing:?} on {:?}",
            t.dims()
        );
    }

    #[test]
    fn mira_shape_bit_identical() {
        // BG/Q Mira's 4×4×4×4×2 partition: every tie pattern of the four
        // 4-ary rings appears among the displacements from one source.
        let t = Torus::torus(&[4, 4, 4, 4, 2]);
        let cache = RouteStencilCache::new(&t);
        let last = t.num_nodes() - 1;
        let flows: Vec<(NodeId, NodeId, f64)> = [0, 171, last]
            .into_iter()
            .flat_map(|src| {
                t.nodes()
                    .map(move |dst| (src, dst, 1.0 + f64::from(dst % 7)))
            })
            .collect();
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            // cold (building) and warm (hitting) passes
            assert_flows_bit_identical(&t, &cache, routing, &flows);
            assert_flows_bit_identical(&t, &cache, routing, &flows);
        }
        // the 2-extent dim is a mesh dim: three classes (−1, 0, +1) along it
        assert_eq!(cache.misses(), 2 * (4 * 4 * 4 * 4 * 3 - 1));
    }

    #[test]
    fn edge_extents_bit_identical_on_all_pairs() {
        // size-1 and size-2 dims (wrapped or not), a tying 4-ring and 6-ring
        // and an odd mesh dim, every source to every destination
        let shapes = [
            Torus::with_wraps(&[2, 1, 4, 3], &[true, true, true, false]),
            Torus::with_wraps(&[6, 2, 1], &[true, false, false]),
        ];
        for t in &shapes {
            let cache = RouteStencilCache::new(t);
            let flows: Vec<(NodeId, NodeId, f64)> = t
                .nodes()
                .flat_map(|src| {
                    t.nodes()
                        .map(move |dst| (src, dst, 0.5 + f64::from(src ^ dst)))
                })
                .collect();
            for routing in [Routing::DimOrder, Routing::UniformMinimal] {
                assert_flows_bit_identical(t, &cache, routing, &flows);
                assert_flows_bit_identical(t, &cache, routing, &flows);
            }
        }
    }

    #[test]
    fn concurrent_lookups_keep_exact_counters() {
        // Several threads route one flow list through one shared cache at
        // the same time. Whichever thread initializes a cell, misses must
        // equal the distinct classes and hits + misses the lookups.
        let t = Torus::torus(&[4, 4, 4, 2]);
        let g = patterns::random(t.num_nodes(), 600, 1.0, 9.0, 5);
        let flows: Vec<(NodeId, NodeId, f64)> =
            g.flows().iter().map(|f| (f.src, f.dst, f.bytes)).collect();
        let routings = [Routing::UniformMinimal, Routing::DimOrder];
        let mut classes = std::collections::HashSet::new();
        let mut lookups_per_thread = 0u64;
        for routing in routings {
            for &(src, dst, _) in flows.iter().filter(|&&(s, d, _)| s != d) {
                classes.insert((t.displacement(src, dst), routing == Routing::DimOrder));
                lookups_per_thread += 1;
            }
        }
        const THREADS: u64 = 4;
        for _ in 0..20 {
            let cache = RouteStencilCache::new(&t);
            let barrier = std::sync::Barrier::new(THREADS as usize);
            let loads: Vec<ChannelLoads> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let mut loads = ChannelLoads::new(&t);
                            for routing in routings {
                                for &(src, dst, bytes) in &flows {
                                    cache.route_flow(&t, routing, src, dst, bytes, &mut loads);
                                }
                            }
                            loads
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert!(loads.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(cache.misses(), classes.len() as u64);
            assert_eq!(cache.entries(), classes.len() as u64);
            assert_eq!(cache.hits() + cache.misses(), THREADS * lookups_per_thread);
        }
    }

    /// A random mixed topology: 1–5 dimensions of extent 1–6, each wrapped
    /// or not (wrapped extents ≤ 2 become double-wide mesh dimensions).
    fn random_shape(rng: &mut StdRng) -> Torus {
        let n = rng.gen_range(1..6);
        let dims: Vec<u16> = (0..n).map(|_| rng.gen_range(1..7)).collect();
        let wraps: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        Torus::with_wraps(&dims, &wraps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Differential: on random shapes, a random flow list routed
        /// through the cache (cold, then warm) accumulates exactly the
        /// loads the direct router does, under both routing models.
        #[test]
        fn cached_matches_direct_on_random_shapes(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = random_shape(&mut rng);
            let nodes = t.num_nodes();
            let flows: Vec<(NodeId, NodeId, f64)> = (0..rng.gen_range(1..40))
                .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes), rng.gen_range(0.1..50.0)))
                .collect();
            let cache = RouteStencilCache::new(&t);
            for routing in [Routing::DimOrder, Routing::UniformMinimal] {
                assert_flows_bit_identical(&t, &cache, routing, &flows);
                assert_flows_bit_identical(&t, &cache, routing, &flows);
            }
        }
    }

    proptest! {
        /// Stencil-cached routing equals direct routing bit-for-bit on a
        /// mixed torus (ties, wraps, width-2 dims all exercised).
        #[test]
        fn cached_matches_direct_exactly(
            src in 0u32..64, dst in 0u32..64, bytes in 0.1f64..50.0,
            dor in proptest::bool::ANY,
        ) {
            let t = Torus::torus(&[4, 4, 2, 2]);
            let routing = if dor { Routing::DimOrder } else { Routing::UniformMinimal };
            let cache = RouteStencilCache::new(&t);
            let mut direct = ChannelLoads::new(&t);
            route_flow(&t, routing, src, dst, bytes, &mut direct);
            let mut cached = ChannelLoads::new(&t);
            cache.route_flow(&t, routing, src, dst, bytes, &mut cached);
            prop_assert_eq!(&direct, &cached);
            let mut again = ChannelLoads::new(&t);
            cache.route_flow(&t, routing, src, dst, bytes, &mut again);
            prop_assert_eq!(&direct, &again);
        }

        /// Whole-graph cached routing equals `route_graph` exactly,
        /// including the width-normalized MCL.
        #[test]
        fn cached_graph_matches_route_graph(seed in 0u64..32) {
            let t = Torus::mesh(&[4, 4]);
            let g = patterns::random(16, 40, 1.0, 30.0, seed);
            let placement: Vec<u32> = (0..16).collect();
            let cache = RouteStencilCache::new(&t);
            for routing in [Routing::DimOrder, Routing::UniformMinimal] {
                let direct = route_graph(&t, &g, &placement, routing);
                let cached = cache.route_graph(&t, &g, &placement, routing);
                prop_assert_eq!(&direct, &cached);
                prop_assert_eq!(direct.mcl(&t), cached.mcl(&t));
            }
        }
    }
}
