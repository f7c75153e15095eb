//! Property-based cross-crate invariants: every mapper yields a valid
//! mapping, routing models conserve load, and pipelines are deterministic,
//! for randomized workloads and machine shapes.

use proptest::prelude::*;
use rahtm_repro::prelude::*;
use rahtm_repro::routing::route_graph;

/// A seeded bijection on `0..n` (multiplier must be coprime with `n`).
fn affine_perm(n: u32, mul: u32, add: u32) -> Vec<u32> {
    (0..n).map(|r| (r * mul + add) % n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RAHTM produces a bijective node assignment for any workload shape
    /// at fixed machine size.
    #[test]
    fn rahtm_mapping_is_bijective(seed in 0u64..1000, flows in 10usize..80) {
        let machine = BgqMachine::new(Torus::torus(&[4, 4]), 1, 1);
        let g = patterns::random(16, flows, 1.0, 50.0, seed);
        let res = RahtmMapper::new(RahtmConfig::fast()).map(&machine, &g, None);
        let distinct: std::collections::HashSet<_> =
            res.mapping.nodes().iter().collect();
        prop_assert_eq!(distinct.len(), 16);
    }

    /// Load conservation holds for random graphs on random torus shapes.
    #[test]
    fn conservation_on_random_machines(
        seed in 0u64..1000,
        dims_idx in 0usize..4,
    ) {
        let dims: &[u16] = [&[8u16][..], &[4, 4], &[2, 4, 2], &[3, 5]][dims_idx];
        let topo = Torus::torus(dims);
        let n = topo.num_nodes();
        let g = patterns::random(n, 30, 1.0, 10.0, seed);
        let place: Vec<u32> = (0..n).collect();
        let loads = route_graph(&topo, &g, &place, Routing::UniformMinimal);
        let expect: f64 = g
            .flows()
            .iter()
            .map(|f| f.bytes * topo.distance(f.src, f.dst) as f64)
            .sum();
        prop_assert!((loads.total(&topo) - expect).abs() <= 1e-6 * expect.max(1.0));
    }

    /// Hop-bytes is invariant under the identity and symmetric under
    /// graph symmetrization.
    #[test]
    fn hop_bytes_symmetrization(seed in 0u64..1000) {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 10.0, seed);
        let place: Vec<u32> = (0..16).collect();
        let hb = mapping_hop_bytes(&topo, &g, &place);
        let hb_sym = mapping_hop_bytes(&topo, &g.symmetrized(), &place);
        prop_assert!((hb - hb_sym).abs() < 1e-6 * hb.max(1.0));
    }

    /// The annealing mapper never returns something worse than its own
    /// reported MCL, and the report matches an independent evaluation.
    #[test]
    fn anneal_report_is_honest(seed in 0u64..1000) {
        let cube = Torus::two_ary_cube(3);
        let g = patterns::random(8, 16, 1.0, 10.0, seed);
        let r = rahtm_repro::core::anneal::anneal_map(
            &cube,
            &g,
            &rahtm_repro::core::anneal::AnnealOptions {
                iterations: 2000,
                seed,
                ..Default::default()
            },
        );
        let check = mapping_mcl(&cube, &g, &r.placement, Routing::UniformMinimal);
        prop_assert!((r.mcl - check).abs() < 1e-9);
    }

    /// Metamorphic: the hyperoctahedral symmetries of the torus, composed
    /// with translations, are graph automorphisms — transporting any
    /// placement through one must leave the oblivious uniform-minimal MCL
    /// exactly invariant (minimal paths map onto minimal paths, so channel
    /// loads are a permutation of each other).
    #[test]
    fn mcl_invariant_under_torus_symmetry(
        seed in 0u64..500,
        oi in 0usize..8,
        t0 in 0u16..4,
        t1 in 0u16..4,
    ) {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 20.0, seed);
        // a nontrivial but deterministic placement
        let place = affine_perm(16, 5, (seed % 16) as u32);
        let extent = Coord::new(&[4, 4]);
        let syms = Orientation::enumerate_for(&extent);
        prop_assert_eq!(syms.len(), 8); // square torus has the full B_2 group
        let o = &syms[oi];
        let place2: Vec<u32> = place
            .iter()
            .map(|&v| {
                let mut c = o.apply(&topo.coord(v), &extent);
                c.set(0, (c.get(0) + t0) % 4);
                c.set(1, (c.get(1) + t1) % 4);
                topo.node_id(&c)
            })
            .collect();
        let a = mapping_mcl(&topo, &g, &place, Routing::UniformMinimal);
        let b = mapping_mcl(&topo, &g, &place2, Routing::UniformMinimal);
        prop_assert!(
            (a - b).abs() <= 1e-9 * a.max(1.0),
            "MCL changed under torus automorphism: {} vs {}", a, b
        );
    }

    /// Metamorphic: renaming ranks consistently (permute flow endpoints AND
    /// the placement) is a pure relabeling — the physical traffic is
    /// identical, so the MCL must not move at all.
    #[test]
    fn mcl_invariant_under_rank_relabeling(seed in 0u64..500, add in 0u32..16) {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 20.0, seed);
        let p = affine_perm(16, 3, add);
        let mut g2 = CommGraph::new(16);
        for f in g.flows() {
            g2.add(p[f.src as usize], p[f.dst as usize], f.bytes);
        }
        let place = affine_perm(16, 5, 7);
        let mut place2 = vec![0u32; 16];
        for r in 0..16 {
            place2[p[r] as usize] = place[r];
        }
        let a = mapping_mcl(&topo, &g, &place, Routing::UniformMinimal);
        let b = mapping_mcl(&topo, &g2, &place2, Routing::UniformMinimal);
        prop_assert!(
            (a - b).abs() <= 1e-9 * a.max(1.0),
            "MCL changed under rank relabeling: {} vs {}", a, b
        );
    }

    /// Dimension-permutation mappings are always balanced: every node gets
    /// exactly `concentration` ranks regardless of the order chosen.
    #[test]
    fn permutation_orders_balanced(which in 0usize..3) {
        let machine = BgqMachine::new(Torus::torus(&[2, 3, 2]), 4, 4);
        let order = ["ABCT", "TCBA", "BTAC"][which];
        let nodes = dim_order_mapping(
            &machine,
            &rahtm_repro::baselines::permute::parse_order(&machine, order).unwrap(),
            48,
        );
        let mut counts = [0u32; 12];
        for &n in &nodes {
            counts[n as usize] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == 4));
    }
}

/// Pipeline determinism across repeated runs (not proptest: exact equality
/// must hold run-to-run for the offline-mapping workflow).
#[test]
fn pipeline_is_reproducible() {
    let machine = BgqMachine::new(Torus::torus(&[4, 4]), 4, 4);
    let g = Benchmark::Cg.graph(64);
    let cfg = RahtmConfig::fast();
    let a = RahtmMapper::new(cfg.clone()).map(&machine, &g, None);
    let b = RahtmMapper::new(cfg).map(&machine, &g, None);
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.predicted_mcl, b.predicted_mcl);
}

/// The sub-problem and merge caches are pure memoization: switching them
/// off must reproduce the cached run's mapping and predicted MCL bit for
/// bit. The two-slice 4×4×2 machine exercises merge dedupe across slices.
#[test]
fn subproblem_caches_do_not_change_the_mapping() {
    let halo = (
        "halo 8x8 on 4x4",
        BgqMachine::new(Torus::torus(&[4, 4]), 4, 4),
        patterns::halo_2d(8, 8, 1000.0, true),
        RankGrid::new(&[8, 8]),
    );
    let nas = |bench: Benchmark, ranks: u32, machine: BgqMachine| {
        let spec = bench.spec(ranks);
        (bench.name(), machine, spec.comm_graph(), spec.grid)
    };
    let cases = [
        halo,
        nas(
            Benchmark::Cg,
            64,
            BgqMachine::new(Torus::torus(&[4, 4, 2]), 16, 2),
        ),
        nas(
            Benchmark::Bt,
            1024,
            BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 8),
        ),
    ];
    let anneal_only = RahtmConfig {
        use_milp: false,
        ..RahtmConfig::default()
    };
    for (name, machine, graph, grid) in &cases {
        for base in [RahtmConfig::fast(), anneal_only.clone()] {
            let run = |cache_subproblems: bool| {
                let cfg = RahtmConfig {
                    cache_subproblems,
                    ..base.clone()
                };
                RahtmMapper::new(cfg).map(machine, graph, Some(grid.clone()))
            };
            let (cached, uncached) = (run(true), run(false));
            let label = format!("{name}, beam {}", base.beam_width);
            assert_eq!(cached.mapping, uncached.mapping, "{label}");
            assert_eq!(
                cached.predicted_mcl.to_bits(),
                uncached.predicted_mcl.to_bits(),
                "{label}"
            );
        }
    }
}

/// The level batches solve every sub-problem and merge key once, even
/// when both slices ask for it in the same batch. A 4x4x2 torus slices
/// into two 4x4 planes; the workload is two disjoint copies of one random
/// graph, one per plane, so the two slices ask for exactly the keys a
/// one-slice run of a single copy asks for, plus the one key of the
/// machine-wide merge of the two slice blocks, and a one-slice run's
/// batches hold one slice's jobs only.
#[test]
fn two_slice_caches_solve_each_key_once() {
    use rahtm_repro::obs::counters;
    let copy = patterns::random(16, 48, 1.0, 10.0, 7);
    let mut both = CommGraph::new(32);
    for half in 0..2 {
        for f in copy.flows() {
            both.add(f.src + 16 * half, f.dst + 16 * half, f.bytes);
        }
    }
    let traced = |machine: &BgqMachine, graph: &CommGraph, grid: RankGrid| {
        let journal = RahtmMapper::new(RahtmConfig::fast())
            .with_recorder(Recorder::enabled())
            .run(machine, graph, Some(grid))
            .expect("run")
            .journal
            .expect("traced run returns its journal");
        [
            counters::SUB_CACHE_MISSES,
            counters::SUB_CACHE_HITS,
            counters::MERGE_CACHE_MISSES,
            counters::MERGE_CACHE_HITS,
            counters::SUBPROBLEMS_SOLVED,
        ]
        .map(|name| journal.counter(name).unwrap_or(0))
    };
    let one_slice = traced(
        &BgqMachine::new(Torus::torus(&[4, 4]), 1, 1),
        &copy,
        RankGrid::new(&[4, 4]),
    );
    let two_slices = BgqMachine::new(Torus::torus(&[4, 4, 2]), 1, 1);
    let first = traced(&two_slices, &both, RankGrid::new(&[4, 4, 2]));
    let [sub_misses, _, merge_misses, _, solved] = first;
    assert_eq!(sub_misses, one_slice[0], "sub-problem keys solved twice");
    assert_eq!(merge_misses, one_slice[2] + 1, "merge keys solved twice");
    assert_eq!(solved, sub_misses);
    for _ in 0..8 {
        assert_eq!(traced(&two_slices, &both, RankGrid::new(&[4, 4, 2])), first);
    }
}
