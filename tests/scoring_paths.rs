//! Differential tests of the whole-mapping scoring paths.
//!
//! `mapping_mcl`, `metrics::evaluate`, `CommTimeModel::comm_time` and
//! `opportunity::assess` route through a call-local stencil cache. Each
//! must equal the same quantity derived from the direct reference router,
//! `route_graph`, bit for bit (`to_bits`), so a change of add order or of
//! any load value shows.

use rahtm_repro::core::opportunity::assess;
use rahtm_repro::prelude::*;
use rahtm_repro::routing::metrics::evaluate;
use rahtm_repro::routing::route_graph;
use rahtm_repro::topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUTINGS: [Routing; 2] = [Routing::DimOrder, Routing::UniformMinimal];

/// Fixed shapes that every run covers: wrapped, mesh, mixed wraps, and
/// 2-extent wrapped dimensions (double-width mesh links).
fn fixed_shapes() -> Vec<Torus> {
    vec![
        Torus::torus(&[4, 4, 2]),
        Torus::mesh(&[3, 5]),
        Torus::with_wraps(&[4, 2, 3], &[true, true, false]),
        Torus::two_ary_cube(4),
        Torus::torus(&[5, 3]),
    ]
}

/// A random shape: 1–4 dimensions of extent 1–5, each wrapped or not.
fn random_shape(rng: &mut StdRng) -> Torus {
    let n = rng.gen_range(1..5);
    let dims: Vec<u16> = (0..n).map(|_| rng.gen_range(1..6)).collect();
    let wraps: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    Torus::with_wraps(&dims, &wraps)
}

/// A random graph on `ranks` ranks with non-representable volumes (so a
/// different add order rounds differently). The self and zero-byte flows
/// offered to `CommGraph::add` are dropped there; ranks that share a node
/// make node-local flows the routers must skip.
fn random_graph(rng: &mut StdRng, ranks: u32) -> CommGraph {
    let mut g = CommGraph::new(ranks);
    for _ in 0..rng.gen_range(1..4 * ranks as usize + 2) {
        let (a, b) = (rng.gen_range(0..ranks), rng.gen_range(0..ranks));
        let bytes = match rng.gen_range(0..8) {
            0 => 0.0,
            _ => rng.gen_range(0.1..50.0),
        };
        g.add(a, b, bytes);
        g.add(a, a, 1.0);
    }
    g
}

/// A random placement: any number of ranks on a node, some nodes empty.
fn random_placement(rng: &mut StdRng, ranks: u32, nodes: u32) -> Vec<NodeId> {
    (0..ranks).map(|_| rng.gen_range(0..nodes)).collect()
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:?} != {want:?}");
}

/// Checks every scoring path of `graph` under `placement` against the
/// direct router.
fn check_scores(topo: &Torus, graph: &CommGraph, placement: &[NodeId], routing: Routing) {
    let direct: ChannelLoads = route_graph(topo, graph, placement, routing);
    let mcl = direct.mcl(topo);
    assert_bits(
        "mapping_mcl",
        mapping_mcl(topo, graph, placement, routing),
        mcl,
    );
    let e = evaluate(topo, graph, placement, routing);
    assert_bits("evaluate.mcl", e.mcl, mcl);
    assert_bits(
        "evaluate.hop_bytes",
        e.hop_bytes,
        mapping_hop_bytes(topo, graph, placement),
    );
    assert_bits("evaluate.total_load", e.total_load, direct.total(topo));
    assert_bits("evaluate.mean_load", e.mean_load, direct.mean(topo));
    let model = CommTimeModel::default();
    let b = model.comm_time(topo, graph, placement, routing);
    assert_bits("comm_time.mcl", b.mcl, mcl);
    assert_bits(
        "comm_time.bandwidth_term",
        b.bandwidth_term,
        mcl / model.link_bandwidth,
    );
}

#[test]
fn scoring_paths_match_the_direct_router() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut shapes = fixed_shapes();
    shapes.extend((0..60).map(|_| random_shape(&mut rng)));
    for topo in &shapes {
        let nodes = topo.num_nodes();
        for per_node in [1, 3] {
            let ranks = (nodes * per_node).max(2);
            let graph = random_graph(&mut rng, ranks);
            // underflow to zero: some flows of the scaled graph carry 0 bytes
            let tiny = graph.scaled(f64::from_bits(1));
            let placement = random_placement(&mut rng, ranks, nodes);
            for routing in ROUTINGS {
                check_scores(topo, &graph, &placement, routing);
                check_scores(topo, &tiny, &placement, routing);
            }
        }
    }
}

#[test]
fn assess_matches_the_direct_router() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut shapes = fixed_shapes();
    shapes.extend((0..30).map(|_| random_shape(&mut rng)));
    for topo in shapes {
        for conc in [1, 4] {
            let machine = BgqMachine::new(topo.clone(), conc, conc);
            let ranks = (topo.num_nodes() * conc).max(2);
            if u64::from(ranks) > machine.num_process_slots() {
                continue;
            }
            let graph = random_graph(&mut rng, ranks);
            let place = TaskMapping::abcdet(&machine, ranks);
            for routing in ROUTINGS {
                let direct = route_graph(&topo, &graph, place.nodes(), routing);
                let mean = direct.mean_loaded(&topo);
                let imbalance = if mean > 0.0 {
                    direct.mcl(&topo) / mean
                } else {
                    1.0
                };
                let r = assess(&machine, &graph, 1, routing);
                assert_bits("assess.imbalance", r.imbalance, imbalance);
            }
        }
    }
}

/// Paper-scale pin: 16K BT under the ABCDET order on Mira's 4x4x4x4x2
/// partition. The bits were taken from the direct router; the Fig. 10
/// communication time is the one the model calibrated on that mapping
/// gives it.
#[test]
fn bt_16k_abcdet_scores_are_pinned() {
    let machine = BgqMachine::mira_512();
    let bench = Benchmark::Bt;
    let graph = bench.graph(16_384);
    let default = TaskMapping::abcdet(&machine, 16_384);
    let mcl = default.mcl(&machine, &graph, Routing::UniformMinimal);
    assert_eq!(mcl.to_bits(), 0x4184_0000_0000_0018, "MCL {mcl:?}");
    let topo = machine.torus();
    let app = AppModel::calibrated(
        topo,
        &graph,
        default.nodes(),
        bench.comm_fraction(),
        bench.iterations(),
        CommTimeModel::default(),
        Routing::UniformMinimal,
    );
    let comm = app.execute(topo, &graph, default.nodes()).comm;
    assert_eq!(comm.to_bits(), 0x4150_0200_0000_0013, "comm {comm:?}");
}
