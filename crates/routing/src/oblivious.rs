//! Per-flow channel-load models for oblivious routing.
//!
//! Two models matter to the paper:
//!
//! * **Dimension-order routing (DOR)** — the deterministic baseline: a flow
//!   fully traverses dimension 0, then dimension 1, etc. One path, all
//!   bytes on it.
//! * **Uniform-minimal routing** — the paper's approximation of BG/Q's
//!   minimum adaptive routing: a flow spreads *uniformly over every minimal
//!   (Manhattan) path*. The per-channel fraction is computed exactly with
//!   lattice-path counting: of the `H!/(∏ dᵢ!)` monotone paths for a
//!   displacement `d`, the fraction crossing the edge `p → p+eᵢ` is
//!   `N(p) · N(d−p−eᵢ) / N(d)` where `N(q)` is the multinomial path count
//!   to `q`. Torus displacements that tie (`|Δ| = k/2`) split the flow
//!   equally across both orientations, recursively over tie dimensions.

use crate::load::ChannelLoads;
use rahtm_commgraph::CommGraph;
use rahtm_topology::{Coord, Direction, NodeId, Torus};
use std::sync::OnceLock;

/// An oblivious routing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Deterministic dimension-order routing (ascending dimensions,
    /// positive direction on torus ties).
    DimOrder,
    /// Uniform split over all minimal paths (the MAR approximation).
    UniformMinimal,
}

/// ln(n!): a memoized table for `n ≤ 256` (bit-stable across the whole
/// workspace), a Stirling-series tail beyond it. The tail keeps long-haul
/// flows (path length ≥ 257, e.g. a large 1-D torus) routable instead of
/// panicking; at `n = 257` the series is already accurate to f64 roundoff.
fn ln_factorial(n: usize) -> f64 {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let t = TABLE.get_or_init(|| {
        let mut v = vec![0.0f64; 257];
        for i in 1..v.len() {
            v[i] = v[i - 1] + (i as f64).ln();
        }
        v
    });
    if n < t.len() {
        return t[n];
    }
    let x = n as f64;
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    x * x.ln() - x + 0.5 * (ln2pi + x.ln()) + 1.0 / (12.0 * x) - 1.0 / (360.0 * x * x * x)
        + 1.0 / (1260.0 * x.powi(5))
}

/// ln of the multinomial path count to offset `q`.
fn ln_paths(q: &[u16]) -> f64 {
    let total: usize = q.iter().map(|&x| x as usize).sum();
    let mut v = ln_factorial(total);
    for &x in q {
        v -= ln_factorial(x as usize);
    }
    v
}

/// Number of tie variants a displacement splits into under `routing`.
pub(crate) fn num_variants(routing: Routing, disp: &[(i32, bool)]) -> u32 {
    match routing {
        Routing::DimOrder => 1,
        Routing::UniformMinimal => 1u32 << disp.iter().filter(|&&(_, tie)| tie).count(),
    }
}

/// Enumerates the per-channel load entries of one flow as
/// `emit(offset-from-source, dim, dir, fraction)` calls, in exactly the
/// order [`route_flow`] deposits them. Offsets are per-dimension signed
/// coordinate deltas from the source node; fractions are raw per-variant
/// path fractions (1.0 for DOR) — a caller accumulating loads multiplies
/// each by `bytes / num_variants(..)`.
///
/// This is the single source of truth for flow enumeration: the direct
/// router and the stencil builder both call it, so a cached flow can never
/// drift from a directly routed one — not in values, not in add order.
pub(crate) fn for_each_entry(
    routing: Routing,
    disp: &[(i32, bool)],
    mut emit: impl FnMut(&[i32], usize, Direction, f64),
) {
    let n = disp.len();
    match routing {
        Routing::DimOrder => {
            let mut off = vec![0i32; n];
            for (dim, &(delta, _tie)) in disp.iter().enumerate() {
                let dir = if delta >= 0 {
                    Direction::Plus
                } else {
                    Direction::Minus
                };
                for _ in 0..delta.unsigned_abs() {
                    emit(&off, dim, dir, 1.0);
                    off[dim] += dir.sign();
                }
            }
        }
        Routing::UniformMinimal => {
            // Resolve torus ties by splitting across both orientations.
            let ties: Vec<usize> = disp
                .iter()
                .enumerate()
                .filter(|(_, &(_, tie))| tie)
                .map(|(d, _)| d)
                .collect();
            let variants = 1u32 << ties.len();
            let mut deltas: Vec<i32> = disp.iter().map(|&(d, _)| d).collect();
            for mask in 0..variants {
                for (bit, &dim) in ties.iter().enumerate() {
                    let mag = disp[dim].0.abs();
                    deltas[dim] = if (mask >> bit) & 1 == 0 { mag } else { -mag };
                }
                uniform_minimal_entries(&deltas, &mut emit);
            }
        }
    }
}

/// Emits one orientation's uniform-minimal entries (see [`for_each_entry`]).
fn uniform_minimal_entries(deltas: &[i32], emit: &mut impl FnMut(&[i32], usize, Direction, f64)) {
    let n = deltas.len();
    let d: Vec<u16> = deltas.iter().map(|&x| x.unsigned_abs() as u16).collect();
    let total_hops: usize = d.iter().map(|&x| x as usize).sum();
    if total_hops == 0 {
        return;
    }
    let ln_total = ln_paths(&d);
    // Mixed-radix enumeration of box points p (0..=d_i per dim).
    let mut p = vec![0u16; n];
    let mut rem = vec![0u16; n]; // d - p - e_i helper reused
    let mut off = vec![0i32; n];
    loop {
        for dim in 0..n {
            off[dim] = if deltas[dim] >= 0 {
                p[dim] as i32
            } else {
                -(p[dim] as i32)
            };
        }
        let ln_pre = ln_paths(&p);
        for dim in 0..n {
            if p[dim] < d[dim] {
                rem.copy_from_slice(&d);
                for (r, pv) in rem.iter_mut().zip(&p) {
                    *r -= pv;
                }
                rem[dim] -= 1;
                let frac = (ln_pre + ln_paths(&rem) - ln_total).exp();
                let dir = if deltas[dim] >= 0 {
                    Direction::Plus
                } else {
                    Direction::Minus
                };
                emit(&off, dim, dir, frac);
            }
        }
        // increment mixed-radix counter
        let mut dim = n;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            if p[dim] < d[dim] {
                p[dim] += 1;
                break;
            }
            p[dim] = 0;
        }
    }
}

/// Accumulates the channel loads of one flow under `routing`.
///
/// `bytes` may be any positive volume; `src == dst` contributes nothing.
pub fn route_flow(
    topo: &Torus,
    routing: Routing,
    src: NodeId,
    dst: NodeId,
    bytes: f64,
    loads: &mut ChannelLoads,
) {
    if src == dst || bytes == 0.0 {
        return;
    }
    let disp = topo.displacement(src, dst);
    let weight = bytes / num_variants(routing, &disp) as f64;
    let src_coord = topo.coord(src);
    let n = topo.ndims();
    for_each_entry(routing, &disp, |off, dim, dir, frac| {
        let mut c = Coord::zero(n);
        for d in 0..n {
            let k = topo.dim(d) as i32;
            let v = (src_coord.get(d) as i32 + off[d]).rem_euclid(k);
            c.set(d, v as u16);
        }
        let ch = topo
            .channel_id(topo.node_id(&c), dim, dir)
            .expect("minimal path crosses missing channel");
        loads.add(ch, weight * frac);
    });
}

/// Routes every flow of `graph` under the rank→node `placement` and
/// returns the accumulated channel loads. Flows between ranks placed on
/// the same node stay on-node and contribute nothing.
///
/// This is the reference router: it enumerates every flow's paths from
/// scratch. Scoring goes through [`crate::metrics::placement_loads`] or a
/// [`crate::RouteStencilCache`], which are tested against this function
/// bit for bit.
///
/// # Panics
/// Panics if `placement.len() != graph.num_ranks()`.
pub fn route_graph(
    topo: &Torus,
    graph: &CommGraph,
    placement: &[NodeId],
    routing: Routing,
) -> ChannelLoads {
    assert_eq!(placement.len(), graph.num_ranks() as usize);
    let mut loads = ChannelLoads::new(topo);
    for f in graph.flows() {
        route_flow(
            topo,
            routing,
            placement[f.src as usize],
            placement[f.dst as usize],
            f.bytes,
            &mut loads,
        );
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rahtm_commgraph::patterns;

    fn mesh_ch(t: &Torus, node: NodeId, dim: usize, dir: Direction) -> u32 {
        t.channel_id(node, dim, dir).unwrap()
    }

    #[test]
    fn one_dim_line_full_load() {
        let t = Torus::mesh(&[4]);
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            let mut l = ChannelLoads::new(&t);
            route_flow(&t, routing, 0, 3, 5.0, &mut l);
            for node in 0..3 {
                assert!(
                    (l.get(mesh_ch(&t, node, 0, Direction::Plus)) - 5.0).abs() < 1e-9,
                    "{routing:?}"
                );
            }
        }
    }

    #[test]
    fn dor_takes_single_path() {
        let t = Torus::mesh(&[3, 3]);
        let mut l = ChannelLoads::new(&t);
        // (0,0) -> (2,1): dim0 first (down 2), then dim1 (right 1)
        let src = t.node_id(&Coord::new(&[0, 0]));
        let dst = t.node_id(&Coord::new(&[2, 1]));
        route_flow(&t, Routing::DimOrder, src, dst, 1.0, &mut l);
        assert_eq!(
            l.get(mesh_ch(&t, t.node_id(&[0, 0].into()), 0, Direction::Plus)),
            1.0
        );
        assert_eq!(
            l.get(mesh_ch(&t, t.node_id(&[1, 0].into()), 0, Direction::Plus)),
            1.0
        );
        assert_eq!(
            l.get(mesh_ch(&t, t.node_id(&[2, 0].into()), 1, Direction::Plus)),
            1.0
        );
        assert_eq!(l.total(&t), 3.0);
    }

    #[test]
    fn uniform_fractions_2x1_displacement() {
        // displacement (2,1): 3 paths; first-hop split 2/3 vs 1/3
        let t = Torus::mesh(&[3, 2]);
        let mut l = ChannelLoads::new(&t);
        let src = t.node_id(&Coord::new(&[0, 0]));
        let dst = t.node_id(&Coord::new(&[2, 1]));
        route_flow(&t, Routing::UniformMinimal, src, dst, 3.0, &mut l);
        let down = l.get(mesh_ch(&t, src, 0, Direction::Plus));
        let right = l.get(mesh_ch(&t, src, 1, Direction::Plus));
        assert!((down - 2.0).abs() < 1e-9, "down={down}");
        assert!((right - 1.0).abs() < 1e-9, "right={right}");
        // conservation: 3 hops x 3 bytes
        assert!((l.total(&t) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn torus_tie_splits_both_ways() {
        let t = Torus::torus(&[4]);
        let mut l = ChannelLoads::new(&t);
        route_flow(&t, Routing::UniformMinimal, 0, 2, 8.0, &mut l);
        // 4 units go 0->1->2, 4 units go 0->3->2
        assert!((l.get(mesh_ch(&t, 0, 0, Direction::Plus)) - 4.0).abs() < 1e-9);
        assert!((l.get(mesh_ch(&t, 0, 0, Direction::Minus)) - 4.0).abs() < 1e-9);
        assert!((l.total(&t) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn figure1_diagonal_beats_adjacent_under_mar() {
        // The paper's Figure 1: heavy pair P1-P2 (100 each way), light
        // edges (1). On a 2x2 mesh, MCL prefers the heavy pair on the
        // diagonal; hop-bytes prefers them adjacent.
        let t = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100.0, 1.0);
        // adjacent placement: P1=(0,0), P2=(0,1), P3=(1,0), P4=(1,1)
        let adjacent = vec![0u32, 1, 2, 3];
        // diagonal placement: P1=(0,0), P2=(1,1), P3=(0,1), P4=(1,0)
        let diagonal = vec![0u32, 3, 1, 2];
        let mcl_adj = route_graph(&t, &g, &adjacent, Routing::UniformMinimal).mcl(&t);
        let mcl_diag = route_graph(&t, &g, &diagonal, Routing::UniformMinimal).mcl(&t);
        assert!(
            mcl_diag < mcl_adj,
            "diagonal {mcl_diag} should beat adjacent {mcl_adj}"
        );
        // hop-bytes tells the opposite story (the paper's point)
        let hb = |place: &[u32]| g.hop_bytes(|r| place[r as usize], |a, b| t.distance(a, b));
        assert!(hb(&adjacent) < hb(&diagonal));
    }

    #[test]
    fn same_node_contributes_nothing() {
        let t = Torus::mesh(&[2, 2]);
        let mut g = CommGraph::new(2);
        g.add(0, 1, 50.0);
        let l = route_graph(&t, &g, &[3, 3], Routing::UniformMinimal);
        assert_eq!(l.mcl(&t), 0.0);
    }

    #[test]
    fn route_graph_matches_per_flow_routing() {
        let t = Torus::torus(&[4, 4]);
        let g = patterns::ring(16, 2.0);
        let placement: Vec<u32> = (0..16).collect();
        let a = route_graph(&t, &g, &placement, Routing::UniformMinimal);
        let mut b = ChannelLoads::new(&t);
        for f in g.flows() {
            let (s, d) = (placement[f.src as usize], placement[f.dst as usize]);
            route_flow(&t, Routing::UniformMinimal, s, d, f.bytes, &mut b);
        }
        assert_eq!(a, b);
    }

    proptest! {
        /// Conservation: every minimal-routing model deposits exactly
        /// bytes x minimal-hops of load in total.
        #[test]
        fn load_conservation(
            src in 0u32..64, dst in 0u32..64, bytes in 0.1f64..100.0,
            dor in proptest::bool::ANY,
        ) {
            let t = Torus::torus(&[4, 4, 4]);
            let routing = if dor { Routing::DimOrder } else { Routing::UniformMinimal };
            let mut l = ChannelLoads::new(&t);
            route_flow(&t, routing, src, dst, bytes, &mut l);
            let expect = bytes * t.distance(src, dst) as f64;
            prop_assert!((l.total(&t) - expect).abs() < 1e-6 * expect.max(1.0));
        }

        /// Outgoing fractions at the source sum to the flow volume.
        #[test]
        fn source_outflow_complete(src in 0u32..36, dst in 0u32..36) {
            prop_assume!(src != dst);
            let t = Torus::mesh(&[6, 6]);
            let mut l = ChannelLoads::new(&t);
            route_flow(&t, Routing::UniformMinimal, src, dst, 7.0, &mut l);
            let mut out = 0.0;
            for dim in 0..2 {
                for dir in Direction::both() {
                    if let Some(ch) = t.channel_id(src, dim, dir) {
                        out += l.get(ch);
                    }
                }
            }
            prop_assert!((out - 7.0).abs() < 1e-9);
        }

        /// Uniform-minimal never exceeds DOR's MCL on a single flow (DOR
        /// concentrates everything on one path).
        #[test]
        fn uniform_no_worse_than_dor_single_flow(src in 0u32..64, dst in 0u32..64) {
            prop_assume!(src != dst);
            let t = Torus::torus(&[4, 4, 4]);
            let mut lu = ChannelLoads::new(&t);
            let mut ld = ChannelLoads::new(&t);
            route_flow(&t, Routing::UniformMinimal, src, dst, 10.0, &mut lu);
            route_flow(&t, Routing::DimOrder, src, dst, 10.0, &mut ld);
            prop_assert!(lu.mcl(&t) <= ld.mcl(&t) + 1e-9);
        }
    }

    /// Regression: paths of length >= 257 used to panic in `ln_factorial`
    /// (fixed-size log table). A long-haul flow on a large 1-D torus now
    /// routes fine and conserves load through the Stirling tail.
    #[test]
    fn long_haul_flow_on_large_torus() {
        let t = Torus::torus(&[600]);
        let mut l = ChannelLoads::new(&t);
        // 0 -> 300 is a 300-hop tie: splits both ways around the ring.
        route_flow(&t, Routing::UniformMinimal, 0, 300, 4.0, &mut l);
        assert!((l.get(t.channel_id(0, 0, Direction::Plus).unwrap()) - 2.0).abs() < 1e-9);
        assert!((l.get(t.channel_id(0, 0, Direction::Minus).unwrap()) - 2.0).abs() < 1e-9);
        assert!((l.total(&t) - 4.0 * 300.0).abs() < 1e-6);
    }

    #[test]
    fn long_haul_flow_on_large_mesh() {
        let t = Torus::mesh(&[520]);
        let mut l = ChannelLoads::new(&t);
        route_flow(&t, Routing::UniformMinimal, 0, 519, 3.0, &mut l);
        // single path down the line: every +channel carries the full flow
        assert!((l.get(t.channel_id(0, 0, Direction::Plus).unwrap()) - 3.0).abs() < 1e-9);
        assert!((l.total(&t) - 3.0 * 519.0).abs() < 1e-6);
    }

    /// Multi-dimensional long haul exercises ln_paths with a genuinely
    /// multinomial count past the table boundary.
    #[test]
    fn long_haul_flow_multidim_conserves() {
        let t = Torus::mesh(&[300, 4]);
        let src = t.node_id(&Coord::new(&[0, 0]));
        let dst = t.node_id(&Coord::new(&[299, 3]));
        let mut l = ChannelLoads::new(&t);
        route_flow(&t, Routing::UniformMinimal, src, dst, 1.0, &mut l);
        assert!((l.total(&t) - 302.0).abs() < 1e-6);
        // outflow at the source still sums to the volume
        let mut out = 0.0;
        for dim in 0..2 {
            for dir in Direction::both() {
                if let Some(ch) = t.channel_id(src, dim, dir) {
                    out += l.get(ch);
                }
            }
        }
        assert!((out - 1.0).abs() < 1e-9);
    }

    use rahtm_commgraph::CommGraph;
}
