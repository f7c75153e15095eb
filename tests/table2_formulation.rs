//! Table II formulation integration tests: the MILP's constraints and
//! objective verified against independent evaluators from other crates.

use rahtm_repro::core::milp::{milp_map, MilpMapOptions};
use rahtm_repro::lp::{MilpOptions, SimplexOptions};
use rahtm_repro::prelude::*;
use rahtm_repro::routing::adaptive::optimal_adaptive_mcl;

fn strict() -> MilpMapOptions {
    MilpMapOptions {
        enforce_minimal: true,
        ..Default::default()
    }
}

/// The MILP objective equals the optimal-split LP of its own placement:
/// Table II is exactly "choose g to minimize the routing LP value".
#[test]
fn objective_equals_routing_lp_of_chosen_placement() {
    for seed in [3u64, 14, 15] {
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::random(4, 7, 1.0, 12.0, seed);
        let res = milp_map(&cube, &g, &strict()).expect("Table II solve");
        assert!(res.proven_optimal, "seed {seed}");
        let flows: Vec<(u32, u32, f64)> = g
            .flows()
            .iter()
            .map(|f| {
                (
                    res.placement[f.src as usize],
                    res.placement[f.dst as usize],
                    f.bytes,
                )
            })
            .collect();
        let lp = optimal_adaptive_mcl(&cube, &flows, &SimplexOptions::default())
            .unwrap()
            .mcl;
        assert!(
            (res.mcl - lp).abs() < 1e-5,
            "seed {seed}: milp {} vs routing-lp {lp}",
            res.mcl
        );
    }
}

/// C1: the assignment is a bijection onto a vertex subset (budgeted
/// solve — B&B optimality proofs on 64 binaries are too slow for CI).
#[test]
fn c1_assignment_structure() {
    let cube = Torus::two_ary_cube(3);
    let g = patterns::butterfly(8, 4.0);
    let res = milp_map(
        &cube,
        &g,
        &MilpMapOptions {
            incumbent: Some((0..8).collect()),
            symmetry_break: false,
            milp: MilpOptions {
                max_nodes: 40,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("Table II solve");
    let distinct: std::collections::HashSet<_> = res.placement.iter().collect();
    assert_eq!(distinct.len(), 8);
    assert!(res.placement.iter().all(|&v| v < 8));
}

/// A butterfly graph embeds perfectly in its matching hypercube: the
/// identity is a perfect embedding (XOR partners are cube neighbors), the
/// MILP accepts it as an incumbent, and any placement matching its MCL of
/// 4.0 must route every flow exactly one hop (24 unit-distance flows of
/// volume 4 over 24 directed channels leave no slack).
#[test]
fn butterfly_embeds_into_cube() {
    let cube = Torus::two_ary_cube(3);
    let g = patterns::butterfly(8, 4.0);
    let res = milp_map(
        &cube,
        &g,
        &MilpMapOptions {
            enforce_minimal: true,
            incumbent: Some((0..8).collect()),
            symmetry_break: false,
            milp: MilpOptions {
                max_nodes: 20,
                ..Default::default()
            },
        },
    )
    .expect("Table II solve");
    assert!(
        res.mcl <= 4.0 + 1e-5,
        "perfect embedding exists: {}",
        res.mcl
    );
    for f in g.flows() {
        assert_eq!(
            cube.distance(res.placement[f.src as usize], res.placement[f.dst as usize]),
            1,
            "butterfly edges must map onto cube edges"
        );
    }
}

/// Budgeted solves return the incumbent and never panic (the production
/// configuration at paper scale).
#[test]
fn budgeted_solve_returns_incumbent() {
    let cube = Torus::two_ary_cube(3);
    let g = patterns::random(8, 20, 1.0, 9.0, 8);
    let incumbent = rahtm_repro::core::anneal::anneal_map(
        &cube,
        &g,
        &rahtm_repro::core::anneal::AnnealOptions::default(),
    );
    let res = milp_map(
        &cube,
        &g,
        &MilpMapOptions {
            incumbent: Some(incumbent.placement.clone()),
            symmetry_break: false,
            milp: MilpOptions {
                max_nodes: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("Table II solve");
    let distinct: std::collections::HashSet<_> = res.placement.iter().collect();
    assert_eq!(distinct.len(), 8);
}

/// Symmetry breaking never degrades the optimum (the cube is
/// vertex-transitive, so pinning one cluster is lossless).
#[test]
fn symmetry_breaking_is_lossless() {
    for seed in [5u64, 6] {
        let cube = Torus::mesh(&[2, 2]);
        let g = patterns::random(4, 6, 1.0, 10.0, seed);
        let pinned = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                symmetry_break: true,
                enforce_minimal: true,
                ..Default::default()
            },
        )
        .expect("Table II solve");
        let free = milp_map(
            &cube,
            &g,
            &MilpMapOptions {
                symmetry_break: false,
                enforce_minimal: true,
                ..Default::default()
            },
        )
        .expect("Table II solve");
        assert!(pinned.proven_optimal && free.proven_optimal);
        assert!(
            (pinned.mcl - free.mcl).abs() < 1e-5,
            "seed {seed}: pinned {} vs free {}",
            pinned.mcl,
            free.mcl
        );
    }
}
