//! The Table II MILP: optimal routing-aware mapping of a cluster graph
//! onto a 2-ary n-cube.
//!
//! Variables (paper notation):
//! * `g_{a,v}` — binary: cluster `a` sits on vertex `v`.
//! * `f_i(u,v)` — load of flow `i` on directed channel `(u,v)`.
//! * `r_{i,dim}` — binary direction selector enforcing minimal routing
//!   (constraint C3; optional, see below).
//! * `z` — the MCL being minimized.
//!
//! Constraints: C1 (assignment), C2 (flow conservation with floating
//! endpoints via `g`), C3 (one direction per dimension ⇒ minimal routing on
//! meshes), and the MCL linking rows `Σᵢ fᵢ(u,v) ≤ width·z`.
//!
//! **C3 and 2-ary cubes.** The paper notes C3 "may simply be omitted" when
//! minimal routing emerges naturally (§III-C). Enforcing it multiplies the
//! row count by the flow count, which dominates solve time, so the
//! pipeline defaults to `enforce_minimal = false` and *verifies* post hoc
//! whether the optimum used minimal routing (it reports `minimal` in the
//! result). Tests exercise both settings; Table II is implemented in full.

use crate::error::RahtmError;
use rahtm_commgraph::CommGraph;
use rahtm_lp::{solve_milp, Col, MilpOptions, MilpStatus, Problem, Sense};
use rahtm_obs::counters;
use rahtm_topology::{Channel, Coord, Direction, NodeId, Orientation, Torus};

/// Options for a Table II solve.
#[derive(Clone, Debug)]
pub struct MilpMapOptions {
    /// Enforce constraint C3 (direction binaries). See module docs.
    pub enforce_minimal: bool,
    /// Hyperoctahedral symmetry breaking. Pins the heaviest-communicating
    /// cluster to vertex 0 (valid on a vertex-transitive cube; the merge
    /// phase re-orients blocks anyway), and — on an all-extent-2 cube —
    /// additionally restricts the second-heaviest cluster to one canonical
    /// vertex per orbit of the width-preserving axis permutations (the
    /// stabilizer of vertex 0 in the cube's automorphism group), pruning
    /// up to `n!` equivalent subtrees before branch-and-bound starts. A
    /// warm incumbent is canonicalized by the same automorphisms instead
    /// of being dropped.
    pub symmetry_break: bool,
    /// Branch-and-bound budget and tolerances.
    pub milp: MilpOptions,
    /// Warm placement (e.g. from simulated annealing).
    pub incumbent: Option<Vec<NodeId>>,
}

impl Default for MilpMapOptions {
    fn default() -> Self {
        MilpMapOptions {
            enforce_minimal: false,
            symmetry_break: true,
            milp: MilpOptions::default(),
            incumbent: None,
        }
    }
}

/// Result of a Table II solve.
#[derive(Clone, Debug)]
pub struct MilpMapResult {
    /// cluster → vertex placement.
    pub placement: Vec<NodeId>,
    /// The MILP objective: optimal MCL under the LP's flow split.
    pub mcl: f64,
    /// Whether branch-and-bound proved optimality (vs. budget exhaustion).
    pub proven_optimal: bool,
    /// Whether the optimum's flow split was minimal (total load equals
    /// Σ lᵢ·distᵢ) — always true with `enforce_minimal`.
    pub minimal: bool,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Whether the solve ended because the wall-clock deadline in
    /// `opts.milp.lp.deadline` expired (the result is then the best
    /// incumbent, not a proven optimum).
    pub deadline_hit: bool,
    /// Number of placement columns eliminated by hyperoctahedral orbital
    /// fixing before branch-and-bound started (0 when `symmetry_break` is
    /// off or the cube is not an all-extent-2 cube).
    pub symmetry_pruned: usize,
}

/// Solves the Table II MILP mapping `graph` onto `cube`.
///
/// # Errors
/// [`RahtmError::InvalidInput`] if the graph has more clusters than the
/// cube has vertices or the instance exceeds the intended sub-problem
/// scale (64 vertices); [`RahtmError::Infeasible`] if branch-and-bound
/// ends infeasible or unknown with no usable incumbent (cannot happen for
/// a well-formed Table II instance, but the degradation ladder in
/// [`crate::pipeline`] handles it anyway).
pub fn milp_map(
    cube: &Torus,
    graph: &CommGraph,
    opts: &MilpMapOptions,
) -> Result<MilpMapResult, RahtmError> {
    let a = graph.num_ranks() as usize;
    let v = cube.num_nodes() as usize;
    let mut problems = Vec::new();
    if a > v {
        problems.push(format!("{a} clusters cannot map onto {v} vertices"));
    }
    if v > 64 {
        problems.push(format!(
            "Table II solves are leaf-scale (<= 64 vertices), got {v}"
        ));
    }
    if !problems.is_empty() {
        return Err(RahtmError::invalid(problems));
    }
    let channels: Vec<Channel> = cube.channels().collect();
    let ne = channels.len();
    let flows = graph.flows();
    let m = flows.len();

    let mut p = Problem::new();
    // g_{a,v}
    let g: Vec<Vec<Col>> = (0..a)
        .map(|_| (0..v).map(|_| p.add_bin_col(0.0)).collect())
        .collect();
    // z
    let z = p.add_col(0.0, f64::INFINITY, 1.0);
    // f_{i,e}
    let f: Vec<Vec<Col>> = flows
        .iter()
        .map(|fl| (0..ne).map(|_| p.add_col(0.0, fl.bytes, 0.0)).collect())
        .collect();
    // C1a / C1b
    for ga in &g {
        let coeffs: Vec<(Col, f64)> = ga.iter().map(|&c| (c, 1.0)).collect();
        p.add_row(Sense::Eq, 1.0, &coeffs);
    }
    for vi in 0..v {
        let coeffs: Vec<(Col, f64)> = g.iter().map(|ga| (ga[vi], 1.0)).collect();
        p.add_row(Sense::Le, 1.0, &coeffs);
    }
    // C2: conservation at every vertex for every flow
    for (i, fl) in flows.iter().enumerate() {
        for u in 0..v {
            let mut coeffs: Vec<(Col, f64)> = Vec::new();
            for (e, ch) in channels.iter().enumerate() {
                if ch.src == u as NodeId {
                    coeffs.push((f[i][e], 1.0));
                }
                if ch.dst == u as NodeId {
                    coeffs.push((f[i][e], -1.0));
                }
            }
            coeffs.push((g[fl.src as usize][u], -fl.bytes));
            coeffs.push((g[fl.dst as usize][u], fl.bytes));
            p.add_row(Sense::Eq, 0.0, &coeffs);
        }
    }
    // C3: direction binaries
    let mut r: Vec<Vec<Col>> = Vec::new();
    if opts.enforce_minimal {
        for (i, fl) in flows.iter().enumerate() {
            let ri: Vec<Col> = (0..cube.ndims()).map(|_| p.add_bin_col(0.0)).collect();
            for (e, ch) in channels.iter().enumerate() {
                match ch.dir {
                    Direction::Plus => {
                        // f <= l * r
                        p.add_row(Sense::Le, 0.0, &[(f[i][e], 1.0), (ri[ch.dim], -fl.bytes)]);
                    }
                    Direction::Minus => {
                        // f <= l * (1 - r)
                        p.add_row(
                            Sense::Le,
                            fl.bytes,
                            &[(f[i][e], 1.0), (ri[ch.dim], fl.bytes)],
                        );
                    }
                }
            }
            r.push(ri);
        }
    }
    // MCL linking rows
    for (e, ch) in channels.iter().enumerate() {
        let mut coeffs: Vec<(Col, f64)> = (0..m).map(|i| (f[i][e], 1.0)).collect();
        coeffs.push((z, -ch.width));
        p.add_row(Sense::Le, 0.0, &coeffs);
    }
    // Symmetry breaking: pin the heaviest cluster to vertex 0 and, on an
    // all-extent-2 cube, keep only one vertex per orbit of the stabilizer
    // of vertex 0 for the second-heaviest cluster (orbital fixing).
    let sym = if opts.symmetry_break && a > 0 {
        Some(build_symmetry(cube, graph, a, v))
    } else {
        None
    };
    let mut symmetry_pruned = 0usize;
    if let Some(s) = &sym {
        for vi in 0..v {
            let want = if vi == 0 { 1.0 } else { 0.0 };
            p.set_bounds(g[s.heaviest][vi], want, want);
        }
        if let Some(second) = s.second {
            for vi in 1..v {
                if !s.canonical[vi] {
                    p.set_bounds(g[second][vi], 0.0, 0.0);
                    symmetry_pruned += 1;
                }
            }
        }
    }
    if symmetry_pruned > 0 {
        opts.milp
            .lp
            .recorder
            .add(counters::MILP_SYMMETRY_PRUNED, symmetry_pruned as u64);
    }

    // Warm incumbent: expand a placement into a full feasible MILP point.
    // A caller incumbent that contradicts the symmetry pins is first
    // canonicalized by the same automorphism group (so annealing seeds
    // survive symmetry breaking). If none is usable, fall back to a
    // pin-respecting identity placement so branch-and-bound always holds a
    // feasible incumbent — a budgeted solve can then never come back
    // empty-handed.
    let mut milp_opts = opts.milp.clone();
    if let Some(inc) = &opts.incumbent {
        let inc = match &sym {
            Some(s) => canonicalize_placement(cube, inc, s),
            None => inc.clone(),
        };
        if let Some(x) = expand_incumbent(cube, graph, &channels, &p, &g, &f, &r, z, &inc) {
            milp_opts.initial_incumbent = Some(x);
        }
    }
    if milp_opts.initial_incumbent.is_none() {
        let fallback: Vec<NodeId> = match &sym {
            Some(s) => {
                // pin-respecting: heaviest at vertex 0, second-heaviest on
                // its smallest canonical vertex, the rest in order on the
                // remaining free vertices
                let mut placement = vec![0 as NodeId; a];
                let mut used = vec![false; v];
                used[0] = true;
                if let Some(second) = s.second {
                    let sv = (1..v).find(|&vi| s.canonical[vi] && !used[vi]).unwrap_or(1);
                    used[sv] = true;
                    placement[second] = sv as NodeId;
                }
                let mut next = 0usize;
                for (ai, pl) in placement.iter_mut().enumerate() {
                    if ai == s.heaviest || Some(ai) == s.second {
                        continue;
                    }
                    while used[next] {
                        next += 1;
                    }
                    used[next] = true;
                    *pl = next as NodeId;
                }
                placement
            }
            None => (0..a as NodeId).collect(),
        };
        if let Some(x) = expand_incumbent(cube, graph, &channels, &p, &g, &f, &r, z, &fallback) {
            milp_opts.initial_incumbent = Some(x);
        }
    }

    let res = solve_milp(&p, &milp_opts);
    let (placement, mcl, proven, nodes) = match res.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            let mut placement = vec![0 as NodeId; a];
            for (ai, ga) in g.iter().enumerate() {
                let mut found = None;
                for (vi, &col) in ga.iter().enumerate() {
                    if res.x[col.index()] > 0.5 {
                        found = Some(vi as NodeId);
                        break;
                    }
                }
                placement[ai] = match found {
                    Some(vi) => vi,
                    None => {
                        return Err(RahtmError::internal(format!(
                            "C1 row violated: cluster {ai} has no assigned vertex"
                        )))
                    }
                };
            }
            (
                placement,
                res.objective,
                res.status == MilpStatus::Optimal,
                res.nodes,
            )
        }
        // A well-formed Table II instance always has a feasible assignment,
        // but a budgeted/timed solve without an incumbent ends Unknown and
        // a faulty model would end Infeasible — both become typed errors
        // for the degradation ladder instead of a crash.
        other => {
            return Err(RahtmError::Infeasible {
                context: format!(
                    "Table II solve ended {other:?} after {} nodes ({a} clusters on {v} vertices)",
                    res.nodes
                ),
            })
        }
    };
    // Post-hoc minimality check: total deposited load vs Σ l·dist.
    let minimal = if opts.enforce_minimal {
        true
    } else {
        let total: f64 = (0..m)
            .map(|i| (0..ne).map(|e| res.x[f[i][e].index()]).sum::<f64>())
            .sum();
        let lower: f64 = flows
            .iter()
            .map(|fl| {
                fl.bytes
                    * cube.distance(placement[fl.src as usize], placement[fl.dst as usize]) as f64
            })
            .sum();
        total <= lower + 1e-6 * lower.max(1.0)
    };
    Ok(MilpMapResult {
        placement,
        mcl,
        proven_optimal: proven,
        minimal,
        nodes,
        deadline_hit: res.deadline_hit,
        symmetry_pruned,
    })
}

/// Root symmetry-breaking plan: which clusters are pinned or restricted,
/// and the cube automorphisms that justify it.
struct Symmetry {
    /// Cluster pinned to vertex 0 (valid by vertex transitivity).
    heaviest: usize,
    /// Cluster restricted to orbit representatives, when orbital fixing
    /// applies (all-extent-2 cube with at least two clusters).
    second: Option<usize>,
    /// Per-vertex flag: is this vertex the minimum of its orbit under the
    /// stabilizer of vertex 0? (all true when orbital fixing is off)
    canonical: Vec<bool>,
    /// The stabilizer of vertex 0 in the cube's automorphism group: axis
    /// permutations preserving each dimension's (width, wrap) class.
    perms: Vec<Orientation>,
}

fn build_symmetry(cube: &Torus, graph: &CommGraph, a: usize, v: usize) -> Symmetry {
    let vols = graph.rank_volumes();
    let heaviest = (0..a)
        .max_by(|&x, &y| vols[x].total_cmp(&vols[y]))
        .unwrap_or(0);
    // Orbital fixing needs the full hyperoctahedral structure: every
    // dimension of extent 2, so each per-dimension flip is an automorphism
    // (a translation on wrapped dims, a mirror on mesh dims) and axis
    // permutations generate the stabilizer of vertex 0.
    let orbital = !cube.dims().is_empty() && cube.dims().iter().all(|&e| e == 2);
    let second = if orbital {
        (0..a)
            .filter(|&ai| ai != heaviest)
            .max_by(|&x, &y| vols[x].total_cmp(&vols[y]))
    } else {
        None
    };
    let (perms, canonical) = if second.is_some() {
        let perms = stabilizer_perms(cube);
        let extent = Coord::new(cube.dims());
        let canonical = (0..v)
            .map(|vi| canonical_vertex(cube, &extent, vi as NodeId, &perms) == vi as NodeId)
            .collect();
        (perms, canonical)
    } else {
        (Vec::new(), vec![true; v])
    };
    Symmetry {
        heaviest,
        second,
        canonical,
        perms,
    }
}

/// Flip-free axis permutations that preserve each dimension's channel
/// width and wrap class — exactly the automorphisms fixing vertex 0.
fn stabilizer_perms(cube: &Torus) -> Vec<Orientation> {
    let n = cube.ndims();
    Orientation::enumerate(n)
        .into_iter()
        .filter(|o| {
            (0..n).all(|d| !o.flipped(d))
                && (0..n).all(|d| {
                    cube.dim_width(o.perm(d)) == cube.dim_width(d)
                        && cube.wraps(o.perm(d)) == cube.wraps(d)
                })
        })
        .collect()
}

/// The minimum node id in `vi`'s orbit under `perms`.
fn canonical_vertex(cube: &Torus, extent: &Coord, vi: NodeId, perms: &[Orientation]) -> NodeId {
    let c = cube.coord(vi);
    perms
        .iter()
        .map(|o| cube.node_id(&o.apply(&c, extent)))
        .min()
        .unwrap_or(vi)
}

/// Maps a placement onto an equivalent one satisfying the symmetry pins:
/// translate the heaviest cluster to vertex 0 (per-dimension flips), then
/// rotate the second-heaviest onto its orbit representative with a
/// stabilizer permutation. Every step is a cube automorphism, so the MCL
/// of the placement is unchanged.
fn canonicalize_placement(cube: &Torus, placement: &[NodeId], sym: &Symmetry) -> Vec<NodeId> {
    if sym.perms.is_empty() {
        // Orbital data absent (not an all-2 cube): the heaviest pin alone
        // still applies, but a general translation is only available on
        // fully wrapped tori; leave the placement as-is and let
        // `expand_incumbent` drop it if it contradicts the pin.
        return placement.to_vec();
    }
    let n = cube.ndims();
    let extent = Coord::new(cube.dims());
    let h = cube.coord(placement[sym.heaviest]);
    let mut flips = 0u8;
    for d in 0..n {
        if h.get(d) == 1 {
            flips |= 1 << d;
        }
    }
    let ident: Vec<u8> = (0..n as u8).collect();
    let flip = Orientation::new(&ident, flips);
    let mut coords: Vec<Coord> = placement
        .iter()
        .map(|&w| flip.apply(&cube.coord(w), &extent))
        .collect();
    if let Some(second) = sym.second {
        let mut best: Option<(NodeId, &Orientation)> = None;
        for o in &sym.perms {
            let img = cube.node_id(&o.apply(&coords[second], &extent));
            if best.is_none_or(|(b, _)| img < b) {
                best = Some((img, o));
            }
        }
        if let Some((_, o)) = best {
            for c in coords.iter_mut() {
                *c = o.apply(c, &extent);
            }
        }
    }
    coords.iter().map(|c| cube.node_id(c)).collect()
}

/// Builds a complete feasible MILP point from a placement by routing each
/// flow with dimension-order routing (minimal, one direction per dim).
#[allow(clippy::too_many_arguments)]
fn expand_incumbent(
    cube: &Torus,
    graph: &CommGraph,
    channels: &[Channel],
    p: &Problem,
    g: &[Vec<Col>],
    f: &[Vec<Col>],
    r: &[Vec<Col>],
    z: Col,
    placement: &[NodeId],
) -> Option<Vec<f64>> {
    let mut x = vec![0.0; p.num_cols()];
    for (ai, &vi) in placement.iter().enumerate() {
        x[g[ai][vi as usize].index()] = 1.0;
    }
    // per-flow DOR walk
    let slot_to_edge: std::collections::HashMap<u32, usize> = channels
        .iter()
        .enumerate()
        .map(|(e, ch)| (ch.id, e))
        .collect();
    for (i, fl) in graph.flows().iter().enumerate() {
        let (src, dst) = (placement[fl.src as usize], placement[fl.dst as usize]);
        let mut cur = src;
        let disp = cube.displacement(src, dst);
        for (dim, &(delta, _)) in disp.iter().enumerate() {
            let dir = if delta >= 0 {
                Direction::Plus
            } else {
                Direction::Minus
            };
            if !r.is_empty() {
                x[r[i][dim].index()] = if dir == Direction::Plus { 1.0 } else { 0.0 };
            }
            for _ in 0..delta.unsigned_abs() {
                let ch = cube.channel_id(cur, dim, dir)?;
                let e = *slot_to_edge.get(&ch)?;
                x[f[i][e].index()] += fl.bytes;
                cur = cube.step(cur, dim, dir);
            }
        }
    }
    // z = max normalized channel load
    let mut zval = 0.0f64;
    for (e, ch) in channels.iter().enumerate() {
        let load: f64 = (0..graph.num_flows()).map(|i| x[f[i][e].index()]).sum();
        zval = zval.max(load / ch.width);
    }
    x[z.index()] = zval;
    // The pin from symmetry breaking may contradict the incumbent.
    if !p.is_feasible(&x, 1e-6) || !p.is_integral(&x, 1e-6) {
        return None;
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{anneal_map, AnnealOptions};
    use rahtm_commgraph::patterns;
    use rahtm_lp::SimplexOptions;
    use rahtm_routing::adaptive::optimal_adaptive_mcl;

    fn quick_opts() -> MilpMapOptions {
        MilpMapOptions::default()
    }

    #[test]
    fn figure1_milp_finds_diagonal() {
        // Under minimal routing (C3 enforced, as BG/Q's MAR requires), the
        // heavy pair must land on a diagonal so its load splits across two
        // paths — the paper's Figure 1(c).
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100.0, 1.0);
        let r = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                enforce_minimal: true,
                ..quick_opts()
            },
        )
        .unwrap();
        assert!(r.proven_optimal);
        assert_eq!(cube.distance(r.placement[0], r.placement[1]), 2);
        // optimal MCL: ~49.5 of the heavy flow + light traffic = 51.5
        // (hand-checkable: balance x+2 = 101-x over the four links)
        assert!((r.mcl - 51.5).abs() < 1e-4, "mcl={}", r.mcl);
    }

    #[test]
    fn relaxed_c3_is_a_lower_bound() {
        // Dropping C3 lets the LP route non-minimally, which can only
        // lower the objective (on Figure 1 it finds 50.5 via a detour —
        // the reason the paper includes C3 for minimal-routing hardware).
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100.0, 1.0);
        let relaxed = milp_map(&cube, &g, &quick_opts()).unwrap();
        let strict = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                enforce_minimal: true,
                ..quick_opts()
            },
        )
        .unwrap();
        assert!(strict.minimal);
        assert!(relaxed.mcl <= strict.mcl + 1e-6);
        assert!((relaxed.mcl - 50.5).abs() < 1e-4, "relaxed={}", relaxed.mcl);
        assert!(!relaxed.minimal, "the relaxed optimum detours on Figure 1");
    }

    #[test]
    fn milp_at_least_as_good_as_annealing() {
        let cube = Torus::two_ary_cube(2);
        for seed in [1u64, 2, 3] {
            let g = patterns::random(4, 8, 1.0, 20.0, seed);
            let sa = anneal_map(&cube, &g, &AnnealOptions::default());
            let milp = milp_map(&cube, &g, &quick_opts()).unwrap();
            // MILP objective is an optimal-split MCL; the SA MCL uses
            // uniform splitting, so MILP's objective must be <= SA's.
            assert!(
                milp.mcl <= sa.mcl + 1e-6,
                "seed {seed}: milp {} vs sa {}",
                milp.mcl,
                sa.mcl
            );
        }
    }

    #[test]
    fn milp_matches_bruteforce_placements() {
        // exhaustive over all 4! placements of 4 clusters on a 2x2 mesh,
        // evaluating each with the optimal minimal-split LP.
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::random(4, 6, 1.0, 10.0, 77);
        let strict = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                enforce_minimal: true,
                ..quick_opts()
            },
        )
        .unwrap();
        let mut best = f64::INFINITY;
        let perms = permutations(4);
        for perm in &perms {
            let flows: Vec<(NodeId, NodeId, f64)> = g
                .flows()
                .iter()
                .map(|fl| {
                    (
                        perm[fl.src as usize] as NodeId,
                        perm[fl.dst as usize] as NodeId,
                        fl.bytes,
                    )
                })
                .collect();
            let e = optimal_adaptive_mcl(&cube, &flows, &SimplexOptions::default()).unwrap();
            best = best.min(e.mcl);
        }
        assert!(
            (strict.mcl - best).abs() < 1e-4,
            "milp {} vs brute {best}",
            strict.mcl
        );
    }

    #[test]
    fn incumbent_from_annealing_used() {
        let cube = Torus::two_ary_cube(2);
        let g = patterns::random(4, 8, 1.0, 20.0, 5);
        let sa = anneal_map(&cube, &g, &AnnealOptions::default());
        let opts = MilpMapOptions {
            incumbent: Some(sa.placement.clone()),
            milp: MilpOptions {
                max_nodes: 1,
                ..Default::default()
            },
            symmetry_break: false,
            ..quick_opts()
        };
        let r = milp_map(&cube, &g, &opts).unwrap();
        // with a 1-node budget the incumbent guarantees a usable answer
        assert_eq!(r.placement.len(), 4);
        let set: std::collections::HashSet<_> = r.placement.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn fewer_clusters_than_vertices() {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::ring(5, 4.0);
        let r = milp_map(&cube, &g, &quick_opts()).unwrap();
        let set: std::collections::HashSet<_> = r.placement.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(r.mcl > 0.0);
    }

    #[test]
    fn root_double_wide_links_halve_mcl() {
        // On the double-wide 2-ary root, the same traffic yields half the
        // normalized MCL of the plain cube.
        let g = patterns::ring(4, 8.0);
        let plain = milp_map(&Torus::two_ary_cube(2), &g, &quick_opts()).unwrap();
        let root = milp_map(&Torus::two_ary_root(2), &g, &quick_opts()).unwrap();
        assert!(root.mcl <= plain.mcl / 2.0 + 1e-6);
    }

    #[test]
    fn oversized_instances_are_typed_errors_not_panics() {
        // more clusters than vertices AND above leaf scale: both problems
        // must be collected into one InvalidInput
        let cube = Torus::mesh(&[16, 16]);
        let g = patterns::ring(300, 1.0);
        match milp_map(&cube, &g, &quick_opts()) {
            Err(crate::error::RahtmError::InvalidInput { problems }) => {
                assert_eq!(problems.len(), 2, "{problems:?}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_returns_incumbent_with_flag() {
        let cube = Torus::two_ary_cube(2);
        let g = patterns::random(4, 8, 1.0, 20.0, 5);
        let sa = anneal_map(&cube, &g, &AnnealOptions::default());
        let r = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                incumbent: Some(sa.placement.clone()),
                symmetry_break: false,
                milp: MilpOptions {
                    lp: SimplexOptions {
                        deadline: rahtm_lp::Deadline::after_secs(0.0),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..quick_opts()
            },
        )
        .unwrap();
        assert!(r.deadline_hit, "zero deadline must be reported");
        assert_eq!(r.placement, sa.placement, "incumbent survives the timeout");
        assert!(!r.proven_optimal);
    }

    #[test]
    fn orbital_fixing_preserves_optimum_and_prunes() {
        // On the 2-ary 2-cube the stabilizer of vertex 0 swaps the axes;
        // vertex orbits are the Hamming-weight classes {0}, {1, 2}, {3},
        // so orbital fixing eliminates 1 of the second cluster's 4
        // placement columns. The optimum must be unchanged: the pruned
        // placements are automorphic images.
        let cube = Torus::two_ary_cube(2);
        for seed in [11u64, 12, 13] {
            let g = patterns::random(4, 7, 1.0, 15.0, seed);
            let on = milp_map(&cube, &g, &quick_opts()).unwrap();
            let off = milp_map(
                &cube,
                &g,
                &MilpMapOptions {
                    symmetry_break: false,
                    ..quick_opts()
                },
            )
            .unwrap();
            assert_eq!(on.symmetry_pruned, 1, "seed {seed}");
            assert_eq!(off.symmetry_pruned, 0, "seed {seed}");
            assert!(on.proven_optimal && off.proven_optimal, "seed {seed}");
            assert!(
                (on.mcl - off.mcl).abs() < 1e-6,
                "seed {seed}: symmetric {} vs free {}",
                on.mcl,
                off.mcl
            );
        }
        // On the 3-cube the stabilizer is S3 and the weight-class
        // representatives are {0, 1, 3, 7}: 4 of 8 columns pruned.
        let cube3 = Torus::two_ary_cube(3);
        let g3 = patterns::random(5, 8, 1.0, 15.0, 11);
        let on3 = milp_map(&cube3, &g3, &quick_opts()).unwrap();
        assert_eq!(on3.symmetry_pruned, 4);
    }

    #[test]
    fn incumbent_is_canonicalized_not_dropped() {
        // An annealing incumbent almost never satisfies the symmetry pins
        // as-is; canonicalization re-orients it with cube automorphisms so
        // a 1-node budget still returns a usable placement that respects
        // the pin (heaviest cluster on vertex 0).
        let cube = Torus::two_ary_cube(2);
        let g = patterns::random(4, 8, 1.0, 20.0, 5);
        let sa = anneal_map(&cube, &g, &AnnealOptions::default());
        let r = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                incumbent: Some(sa.placement.clone()),
                milp: MilpOptions {
                    max_nodes: 1,
                    ..Default::default()
                },
                ..quick_opts()
            },
        )
        .unwrap();
        let set: std::collections::HashSet<_> = r.placement.iter().collect();
        assert_eq!(set.len(), 4, "placement must stay a bijection");
        let vols = g.rank_volumes();
        let heaviest = (0..4).max_by(|&x, &y| vols[x].total_cmp(&vols[y])).unwrap();
        assert_eq!(
            r.placement[heaviest], 0,
            "pin respected after re-orientation"
        );
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur: Vec<usize> = (0..n).collect();
        fn rec(cur: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == cur.len() {
                out.push(cur.clone());
                return;
            }
            for i in k..cur.len() {
                cur.swap(k, i);
                rec(cur, k + 1, out);
                cur.swap(k, i);
            }
        }
        rec(&mut cur, 0, &mut out);
        out
    }
}
