//! Idealized adaptive routing: the optimal minimal-path flow split.
//!
//! The uniform-minimal model of [`crate::oblivious`] is an *oblivious*
//! approximation of BG/Q's minimum adaptive routing. A true adaptive router
//! can do no better than the LP that routes every flow over its minimal-path
//! polytope to minimize the maximum channel load; this module builds that LP
//! (on `rahtm-lp`) and solves it, giving a lower bound used to validate the
//! combinatorial model at small scales and to evaluate the Figure 1 example
//! exactly.
//!
//! Torus displacement ties (`|Δ| = k/2`) are split equally across the two
//! orientations before the LP (each orientation's box is a DAG); within
//! each orientation the split is fully optimized. The LP grows with
//! `flows × box volume`, so this evaluator is intended for sub-networks up
//! to a few hundred nodes — exactly where the paper uses exact methods.

use rahtm_lp::{solve_lp, Col, LpStatus, Problem, Sense, SimplexOptions};
use rahtm_topology::{Coord, Direction, NodeId, Torus};

/// Result of the optimal-split evaluation.
#[derive(Clone, Debug)]
pub struct AdaptiveEval {
    /// Optimal (minimal) achievable MCL.
    pub mcl: f64,
    /// LP iterations spent.
    pub iterations: usize,
}

/// Computes the optimal minimal-path MCL for pre-placed node-level flows.
/// Returns `None` when the LP fails to converge within `opts`.
///
/// # Panics
/// Panics if the generated LP exceeds an internal size guard (~200k
/// variables) — this evaluator is for small sub-networks.
pub fn optimal_adaptive_mcl(
    topo: &Torus,
    flows: &[(NodeId, NodeId, f64)],
    opts: &SimplexOptions,
) -> Option<AdaptiveEval> {
    let mut p = Problem::new();
    let z = p.add_col(0.0, f64::INFINITY, 1.0);
    // per-channel-slot accumulation of (variable, coefficient)
    let mut per_channel: Vec<Vec<(Col, f64)>> = vec![Vec::new(); topo.num_channel_slots()];
    let mut var_guard = 0usize;

    for &(src, dst, bytes) in flows {
        if src == dst || bytes <= 0.0 {
            continue;
        }
        let disp = topo.displacement(src, dst);
        let ties: Vec<usize> = disp
            .iter()
            .enumerate()
            .filter(|(_, &(_, tie))| tie)
            .map(|(d, _)| d)
            .collect();
        let variants = 1u32 << ties.len();
        let weight = bytes / variants as f64;
        let mut deltas: Vec<i32> = disp.iter().map(|&(d, _)| d).collect();
        for mask in 0..variants {
            for (bit, &dim) in ties.iter().enumerate() {
                let mag = disp[dim].0.abs();
                deltas[dim] = if (mask >> bit) & 1 == 0 { mag } else { -mag };
            }
            add_variant(
                topo,
                &mut p,
                &mut per_channel,
                &mut var_guard,
                src,
                &deltas,
                weight,
            );
        }
    }
    // channel capacity rows: sum(f) <= width * z
    for ch in topo.channels() {
        let vars = &per_channel[ch.id as usize];
        if vars.is_empty() {
            continue;
        }
        let mut coeffs: Vec<(Col, f64)> = vars.clone();
        coeffs.push((z, -ch.width));
        p.add_row(Sense::Le, 0.0, &coeffs);
    }
    let sol = solve_lp(&p, opts);
    if sol.status != LpStatus::Optimal {
        return None;
    }
    Some(AdaptiveEval {
        mcl: sol.objective,
        iterations: sol.iterations,
    })
}

/// Adds one orientation's minimal-path DAG flow to the LP.
fn add_variant(
    topo: &Torus,
    p: &mut Problem,
    per_channel: &mut [Vec<(Col, f64)>],
    var_guard: &mut usize,
    src: NodeId,
    deltas: &[i32],
    weight: f64,
) {
    let n = topo.ndims();
    let d: Vec<u16> = deltas.iter().map(|&x| x.unsigned_abs() as u16).collect();
    let box_size: usize = d.iter().map(|&x| x as usize + 1).product();
    let src_coord = topo.coord(src);

    // Enumerate box points (mixed radix) and create edge variables.
    // edge_vars[point_index][dim] = column (if p_dim < d_dim)
    let mut edge_vars: Vec<Vec<Option<Col>>> = vec![vec![None; n]; box_size];
    let point_index = |pt: &[u16]| -> usize {
        let mut idx = 0usize;
        for dim in 0..n {
            idx = idx * (d[dim] as usize + 1) + pt[dim] as usize;
        }
        idx
    };
    let abs_node = |pt: &[u16]| -> NodeId {
        let mut c = Coord::zero(n);
        for dim in 0..n {
            let k = topo.dim(dim) as i32;
            let step = if deltas[dim] >= 0 {
                pt[dim] as i32
            } else {
                -(pt[dim] as i32)
            };
            c.set(dim, (src_coord.get(dim) as i32 + step).rem_euclid(k) as u16);
        }
        topo.node_id(&c)
    };

    let mut pt = vec![0u16; n];
    loop {
        let pi = point_index(&pt);
        let node = abs_node(&pt);
        for dim in 0..n {
            if pt[dim] < d[dim] {
                let col = p.add_col(0.0, f64::INFINITY, 0.0);
                *var_guard += 1;
                assert!(*var_guard <= 200_000, "adaptive LP too large");
                edge_vars[pi][dim] = Some(col);
                let dir = if deltas[dim] >= 0 {
                    Direction::Plus
                } else {
                    Direction::Minus
                };
                let ch = topo
                    .channel_id(node, dim, dir)
                    .expect("minimal path crosses missing channel");
                per_channel[ch as usize].push((col, 1.0));
            }
        }
        if !advance(&mut pt, &d) {
            break;
        }
    }
    // conservation rows
    let mut pt = vec![0u16; n];
    loop {
        let pi = point_index(&pt);
        let mut coeffs: Vec<(Col, f64)> = Vec::new();
        for dim in 0..n {
            if let Some(col) = edge_vars[pi][dim] {
                coeffs.push((col, 1.0)); // outgoing
            }
            if pt[dim] > 0 {
                let mut prev = pt.clone();
                prev[dim] -= 1;
                if let Some(col) = edge_vars[point_index(&prev)][dim] {
                    coeffs.push((col, -1.0)); // incoming
                }
            }
        }
        let is_src = pt.iter().all(|&x| x == 0);
        let is_dst = pt.iter().zip(&d).all(|(&x, &dd)| x == dd);
        let rhs = if is_src {
            weight
        } else if is_dst {
            -weight
        } else {
            0.0
        };
        if !coeffs.is_empty() || rhs != 0.0 {
            p.add_row(Sense::Eq, rhs, &coeffs);
        }
        if !advance(&mut pt, &d) {
            break;
        }
    }
}

/// Mixed-radix increment over `0..=d`; returns false on wrap-around.
fn advance(pt: &mut [u16], d: &[u16]) -> bool {
    for dim in (0..pt.len()).rev() {
        if pt[dim] < d[dim] {
            pt[dim] += 1;
            return true;
        }
        pt[dim] = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::{route_flow, Routing};
    use crate::ChannelLoads;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn default_eval(topo: &Torus, flows: &[(NodeId, NodeId, f64)]) -> f64 {
        optimal_adaptive_mcl(topo, flows, &SimplexOptions::default())
            .expect("LP should converge")
            .mcl
    }

    fn uniform_mcl(topo: &Torus, flows: &[(NodeId, NodeId, f64)]) -> f64 {
        let mut loads = ChannelLoads::new(topo);
        for &(s, d, b) in flows {
            route_flow(topo, Routing::UniformMinimal, s, d, b, &mut loads);
        }
        loads.mcl(topo)
    }

    #[test]
    fn straight_line_has_no_choice() {
        let t = Torus::mesh(&[4]);
        let mcl = default_eval(&t, &[(0, 3, 6.0)]);
        assert!((mcl - 6.0).abs() < 1e-6);
    }

    #[test]
    fn diagonal_splits_in_half() {
        // 2x2 mesh corner-to-corner: two disjoint paths, half each
        let t = Torus::mesh(&[2, 2]);
        let mcl = default_eval(&t, &[(0, 3, 10.0)]);
        assert!((mcl - 5.0).abs() < 1e-6);
    }

    #[test]
    fn matches_uniform_on_symmetric_instance() {
        // symmetric diagonal: uniform is already optimal
        let t = Torus::mesh(&[2, 2]);
        let flows = [(0u32, 3u32, 10.0), (3u32, 0u32, 10.0)];
        let lp = default_eval(&t, &flows);
        let uni = uniform_mcl(&t, &flows);
        assert!((lp - uni).abs() < 1e-6);
    }

    #[test]
    fn beats_uniform_when_asymmetric() {
        // Two flows share one quadrant under uniform split; LP shifts one
        // flow fully onto the untouched path.
        // 3x3 mesh: flow A (0,0)->(2,2)... plus a straight flow loading a
        // middle edge. LP <= uniform always; strict improvement case:
        let t = Torus::mesh(&[3, 3]);
        let a = t.node_id(&Coord::new(&[0, 0]));
        let b = t.node_id(&Coord::new(&[1, 1]));
        let c = t.node_id(&Coord::new(&[0, 1]));
        let d = t.node_id(&Coord::new(&[1, 0]));
        // heavy corner flow + a flow pinned on one of its two paths
        let flows = [(a, b, 10.0), (c, b, 10.0), (d, b, 1.0)];
        let lp = default_eval(&t, &flows);
        let uni = uniform_mcl(&t, &flows);
        assert!(lp <= uni + 1e-9);
        assert!(lp < uni - 1e-6, "lp={lp} uni={uni}");
    }

    #[test]
    fn torus_tie_handled() {
        let t = Torus::torus(&[4]);
        // 0 -> 2 ties; equal split means 4.0 on each side
        let mcl = default_eval(&t, &[(0, 2, 8.0)]);
        assert!((mcl - 4.0).abs() < 1e-6);
    }

    #[test]
    fn lp_is_lower_bound_of_uniform_random() {
        let t = Torus::torus(&[4, 4]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let flows: Vec<(u32, u32, f64)> = (0..6)
                .map(|_| {
                    (
                        rng.gen_range(0..16),
                        rng.gen_range(0..16),
                        rng.gen_range(1.0..10.0),
                    )
                })
                .collect();
            let lp = default_eval(&t, &flows);
            let uni = uniform_mcl(&t, &flows);
            assert!(lp <= uni + 1e-6, "lp={lp} uni={uni}");
        }
    }

    #[test]
    fn empty_flows_zero() {
        let t = Torus::mesh(&[2, 2]);
        assert_eq!(default_eval(&t, &[]), 0.0);
    }
}
