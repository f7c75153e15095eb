//! Exact-output pins for the two swap searches: `anneal_map` (the MILP
//! incumbent and the whole phase-2 answer under `--fast`) and
//! `polish_placement_with` (the post-pipeline swap descent). Both score
//! each proposal by re-routing the whole graph through the stencil cache
//! (`RouteStencilCache::route_graph_into`); any change to the flows
//! routed, their add order, the max scan or the stencil values moves a
//! candidate MCL by a few ulps, flips an accept decision somewhere in the
//! run, and shows up here as a different placement or MCL bit pattern.
//!
//! Each search runs on one instance that fills its cube and one that
//! leaves vertices empty (annealing then also moves single clusters onto
//! free vertices), under both routing models.
//!
//! If a change is meant to alter these searches, update the constants
//! below and say why in the change log.

use rahtm_repro::core::anneal::{anneal_map, AnnealOptions};
use rahtm_repro::core::refine::polish_placement_with;
use rahtm_repro::prelude::*;
use rahtm_repro::routing::RouteStencilCache;

/// Runs `anneal_map` for 5,000 proposals; returns placement and MCL bits.
fn anneal(cube: &Torus, g: &CommGraph, routing: Routing) -> (Vec<u32>, u64) {
    let r = anneal_map(
        cube,
        g,
        &AnnealOptions {
            iterations: 5_000,
            routing,
            ..Default::default()
        },
    );
    (r.placement, r.mcl.to_bits())
}

/// Runs a 500-proposal polish with seed 3; returns placement, final MCL
/// bits and accepted swaps.
fn polish(topo: &Torus, g: &CommGraph, place: &[u32], routing: Routing) -> (Vec<u32>, u64, usize) {
    let stencils = RouteStencilCache::new(topo);
    let r = polish_placement_with(topo, g, place, routing, 500, 3, &stencils);
    (r.placement, r.final_mcl.to_bits(), r.swaps_accepted)
}

#[test]
fn anneal_outputs_are_pinned() {
    let cube = Torus::two_ary_cube(4);
    // 16 clusters fill the 4-cube; 11 leave five vertices empty
    let full = patterns::random(16, 60, 1.0, 30.0, 21);
    let sparse = patterns::random(11, 40, 1.0, 20.0, 5);
    let cases: [(&CommGraph, Routing, &[u32], u64); 4] = [
        (
            &full,
            Routing::DimOrder,
            &[3, 0, 15, 8, 5, 14, 6, 13, 12, 11, 7, 1, 9, 4, 10, 2],
            4632940271195131846,
        ),
        (
            &full,
            Routing::UniformMinimal,
            &[1, 3, 8, 7, 2, 12, 6, 15, 11, 5, 4, 13, 10, 0, 14, 9],
            4632352266579923862,
        ),
        (
            &sparse,
            Routing::DimOrder,
            &[0, 10, 4, 3, 1, 11, 2, 9, 15, 6, 5],
            4629906035972745945,
        ),
        (
            &sparse,
            Routing::UniformMinimal,
            &[14, 1, 11, 2, 5, 15, 8, 4, 13, 3, 9],
            4628699095091426481,
        ),
    ];
    for (g, routing, placement, mcl_bits) in cases {
        let (got_placement, got_bits) = anneal(&cube, g, routing);
        let label = format!("{} clusters, {routing:?}", g.num_ranks());
        assert_eq!(
            got_placement, placement,
            "anneal placement drifted: {label}"
        );
        assert_eq!(
            got_bits,
            mcl_bits,
            "anneal MCL drifted: {label}: {} vs {}",
            f64::from_bits(got_bits),
            f64::from_bits(mcl_bits)
        );
    }
}

#[test]
fn polish_outputs_are_pinned() {
    // 36 clusters on the 6x6 torus from the identity placement; 30
    // clusters scattered over the 48 nodes of a 4x4x3 torus
    let full_topo = Torus::torus(&[6, 6]);
    let full = patterns::random(36, 120, 1.0, 20.0, 2);
    let identity: Vec<u32> = (0..36).collect();
    let sparse_topo = Torus::torus(&[4, 4, 3]);
    let sparse = patterns::random(30, 100, 1.0, 20.0, 9);
    let scattered: Vec<u32> = (0..30).map(|i| (i * 5) % 48).collect();
    type Case<'a> = (
        &'a Torus,
        &'a CommGraph,
        &'a [u32],
        Routing,
        &'a [u32],
        u64,
        usize,
    );
    let cases: [Case; 4] = [
        (
            &full_topo,
            &full,
            &identity,
            Routing::DimOrder,
            &[
                0, 1, 2, 3, 12, 5, 27, 7, 11, 6, 4, 8, 10, 13, 14, 21, 22, 35, 18, 19, 20, 15, 16,
                23, 24, 25, 26, 9, 28, 29, 30, 31, 34, 33, 32, 17,
            ],
            4633826747370897271,
            9,
        ),
        (
            &full_topo,
            &full,
            &identity,
            Routing::UniformMinimal,
            &[
                0, 1, 6, 33, 4, 5, 2, 7, 31, 9, 22, 11, 12, 13, 24, 15, 16, 17, 18, 19, 20, 21, 10,
                23, 14, 28, 29, 27, 25, 26, 30, 8, 32, 3, 34, 35,
            ],
            4631451484368999717,
            7,
        ),
        (
            &sparse_topo,
            &sparse,
            &scattered,
            Routing::DimOrder,
            &[
                0, 5, 10, 15, 20, 37, 30, 35, 40, 45, 2, 7, 12, 17, 22, 47, 42, 25, 1, 27, 4, 9,
                14, 19, 24, 29, 34, 39, 44, 32,
            ],
            4631503960916320009,
            4,
        ),
        (
            &sparse_topo,
            &sparse,
            &scattered,
            Routing::UniformMinimal,
            &[
                12, 5, 1, 15, 0, 25, 30, 35, 14, 45, 2, 7, 20, 17, 9, 27, 32, 47, 29, 37, 4, 22,
                40, 19, 24, 44, 34, 39, 10, 42,
            ],
            4629004093270888000,
            9,
        ),
    ];
    for (topo, g, start, routing, placement, mcl_bits, swaps) in cases {
        let (got_placement, got_bits, got_swaps) = polish(topo, g, start, routing);
        let label = format!("{} clusters, {routing:?}", g.num_ranks());
        assert_eq!(
            got_placement, placement,
            "polish placement drifted: {label}"
        );
        assert_eq!(
            got_bits,
            mcl_bits,
            "polish MCL drifted: {label}: {} vs {}",
            f64::from_bits(got_bits),
            f64::from_bits(mcl_bits)
        );
        assert_eq!(got_swaps, swaps, "polish accepted swaps drifted: {label}");
    }
}
