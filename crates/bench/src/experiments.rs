//! Experiment runners for the paper's tables and figures.
//!
//! Each runner is a pure function from a [`Scale`] (machine + rank count)
//! to result rows, so the `harness` binary and this module's unit tests
//! share one code path.

use rahtm_baselines::{
    dim_order_mapping, hilbert_mapping, permute::parse_order, rht_mapping, RhtConfig,
};
use rahtm_commgraph::{Benchmark, CommGraph, RankGrid};
use rahtm_core::{RahtmConfig, RahtmMapper};
use rahtm_netsim::{AppModel, CommTimeModel, ExecutionBreakdown};
use rahtm_routing::{mapping_hop_bytes, mapping_mcl, Routing};
use rahtm_topology::{BgqMachine, NodeId, Torus};
use std::time::Instant;

/// An evaluation scale: the machine and the process count.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Human-readable name.
    pub name: String,
    /// The machine model.
    pub machine: BgqMachine,
    /// MPI rank count.
    pub ranks: u32,
    /// Dimension-permutation orders evaluated at this scale
    /// (label, order string).
    pub orders: Vec<(&'static str, String)>,
}

impl Scale {
    /// The paper's scale: Mira 512 nodes (4×4×4×4×2), 16 384 ranks,
    /// orders ABCDET / TABCDE / ACEBDT.
    pub fn paper() -> Self {
        Scale {
            name: "paper-16k".into(),
            machine: BgqMachine::mira_512(),
            ranks: 16384,
            orders: vec![
                ("ABCDET", "ABCDET".into()),
                ("TABCDE", "TABCDE".into()),
                ("ACEBDT", "ACEBDT".into()),
            ],
        }
    }

    /// A laptop-scale analogue preserving the paper's structure: a
    /// 4×4×4×2 torus (non-uniform final dimension, like Mira's E), 16
    /// cores per node, concentration 8 → 1 024 ranks.
    pub fn mini() -> Self {
        Scale {
            name: "mini-1k".into(),
            machine: BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 8),
            ranks: 1024,
            orders: vec![
                ("ABCDT", "ABCDT".into()),
                ("TABCD", "TABCD".into()),
                ("ACBDT", "ACBDT".into()),
            ],
        }
    }

    /// A tiny smoke-test scale: 4×4 torus, concentration 4, 64 ranks.
    pub fn micro() -> Self {
        Scale {
            name: "micro-64".into(),
            machine: BgqMachine::new(Torus::torus(&[4, 4]), 4, 4),
            ranks: 64,
            orders: vec![
                ("ABT", "ABT".into()),
                ("TAB", "TAB".into()),
                ("BAT", "BAT".into()),
            ],
        }
    }
}

/// One of the evaluated mapping strategies.
#[derive(Clone, Debug)]
pub enum MappingKind {
    /// Dimension-permutation order (index into `Scale::orders`).
    Order(usize),
    /// Adapted Hilbert curve.
    Hilbert,
    /// Rubik-like hierarchical tiling.
    Rht,
    /// RAHTM with the given configuration.
    Rahtm(Box<RahtmConfig>),
}

impl MappingKind {
    /// Display label (order labels resolve through the scale).
    pub fn label(&self, scale: &Scale) -> String {
        match self {
            MappingKind::Order(i) => scale.orders[*i].0.to_string(),
            MappingKind::Hilbert => "Hilbert".into(),
            MappingKind::Rht => "RHT".into(),
            MappingKind::Rahtm(_) => "RAHTM".into(),
        }
    }

    /// The paper's Figure 8/10 line-up (default order first, RAHTM last).
    /// [`run_figures`] takes its first cell as the reference.
    pub fn paper_lineup(scale: &Scale, rahtm: RahtmConfig) -> Vec<MappingKind> {
        let mut v: Vec<MappingKind> = (0..scale.orders.len()).map(MappingKind::Order).collect();
        v.push(MappingKind::Hilbert);
        v.push(MappingKind::Rht);
        v.push(MappingKind::Rahtm(Box::new(rahtm)));
        v
    }
}

/// Computes the node placement of `kind` for a benchmark instance.
pub fn compute_mapping(
    kind: &MappingKind,
    scale: &Scale,
    graph: &CommGraph,
    grid: &RankGrid,
) -> Vec<NodeId> {
    let machine = &scale.machine;
    match kind {
        MappingKind::Order(i) => {
            let order = parse_order(machine, &scale.orders[*i].1).expect("bad order");
            dim_order_mapping(machine, &order, scale.ranks)
        }
        MappingKind::Hilbert => hilbert_mapping(machine, scale.ranks),
        MappingKind::Rht => {
            let cfg = RhtConfig::generic(machine, grid);
            rht_mapping(machine, grid, &cfg, scale.ranks)
        }
        MappingKind::Rahtm(cfg) => RahtmMapper::new((**cfg).clone())
            .map(machine, graph, Some(grid.clone()))
            .mapping
            .nodes()
            .to_vec(),
    }
}

/// One cell of the figure pass: a (benchmark, mapping) pair.
#[derive(Clone, Debug)]
pub struct FigRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Mapping label.
    pub mapping: String,
    /// Communication time over all iterations (µs).
    pub comm_time: f64,
    /// Total execution time (µs).
    pub exec_time: f64,
    /// Communication time relative to the default mapping (Figure 10).
    pub comm_rel: f64,
    /// Execution time relative to the default mapping (Figure 8).
    pub exec_rel: f64,
    /// MCL under the MAR approximation.
    pub mcl: f64,
    /// Hop-bytes (the routing-unaware metric, for contrast).
    pub hop_bytes: f64,
    /// Mapping computation wall time (seconds, §V-B).
    pub map_secs: f64,
}

/// The figure pass: every benchmark under every mapping of `mappings`,
/// each cell computed and routed once. Figures 8 and 10 and the §V-B
/// mapping cost are views of its rows; Figure 9 is the calibration input
/// [`Benchmark::comm_fraction`].
///
/// The first mapping is the reference (the default order in
/// [`MappingKind::paper_lineup`]): the application model is calibrated on
/// its routed communication time, and every row's times are relative to
/// its row, which therefore reads exactly 1.
pub fn run_figures(scale: &Scale, mappings: &[MappingKind]) -> Vec<FigRow> {
    let topo = scale.machine.torus();
    let comm_model = CommTimeModel::default();
    let routing = Routing::UniformMinimal;
    let mut rows = Vec::new();
    for bench in Benchmark::all() {
        let spec = bench.spec(scale.ranks);
        let graph = spec.comm_graph();
        let mut reference: Option<(AppModel, ExecutionBreakdown)> = None;
        for kind in mappings {
            let t0 = Instant::now();
            let placement = compute_mapping(kind, scale, &graph, &spec.grid);
            let map_secs = t0.elapsed().as_secs_f64();
            let comm_iter = comm_model.comm_time(topo, &graph, &placement, routing);
            let (app, base) = reference.get_or_insert_with(|| {
                let app = AppModel::from_reference(
                    &comm_iter,
                    bench.comm_fraction(),
                    bench.iterations(),
                    comm_model,
                    routing,
                );
                let base = app.breakdown(&comm_iter);
                (app, base)
            });
            let e = app.breakdown(&comm_iter);
            rows.push(FigRow {
                bench: bench.name(),
                mapping: kind.label(scale),
                comm_time: e.comm,
                exec_time: e.total,
                comm_rel: e.comm / base.comm,
                exec_rel: e.total / base.total,
                mcl: e.mcl,
                hop_bytes: mapping_hop_bytes(topo, &graph, &placement),
                map_secs,
            });
        }
    }
    rows
}

/// Figure 1 result: the motivating 2×2 example, per placement strategy.
#[derive(Clone, Debug)]
pub struct Fig1Result {
    /// MCL of the hop-bytes-optimal (adjacent) placement under MAR.
    pub hopbytes_placement_mcl: f64,
    /// MCL of the MCL-optimal (diagonal) placement under MAR.
    pub mcl_placement_mcl: f64,
    /// Hop-bytes of each placement, for contrast.
    pub hopbytes_placement_hb: f64,
    /// Hop-bytes of the diagonal placement.
    pub mcl_placement_hb: f64,
}

/// Reproduces Figure 1: hop-bytes mapping vs MCL mapping of the 4-process
/// example on a 2×2 network under the MAR approximation.
pub fn run_fig1() -> Fig1Result {
    let topo = Torus::mesh(&[2, 2]);
    let g = rahtm_commgraph::patterns::figure1(100.0, 1.0);
    let adjacent: Vec<NodeId> = vec![0, 1, 2, 3]; // Figure 1(b)
    let diagonal: Vec<NodeId> = vec![0, 3, 1, 2]; // Figure 1(c)
    Fig1Result {
        hopbytes_placement_mcl: mapping_mcl(&topo, &g, &adjacent, Routing::UniformMinimal),
        mcl_placement_mcl: mapping_mcl(&topo, &g, &diagonal, Routing::UniformMinimal),
        hopbytes_placement_hb: mapping_hop_bytes(&topo, &g, &adjacent),
        mcl_placement_hb: mapping_hop_bytes(&topo, &g, &diagonal),
    }
}

/// One ablation measurement: a configuration knob's effect on mapping
/// quality and cost.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Knob family ("beam", "routing", "tiling", "milp", "cache").
    pub knob: &'static str,
    /// Knob setting.
    pub value: String,
    /// Benchmark evaluated.
    pub bench: &'static str,
    /// Final MCL under the MAR approximation.
    pub mcl: f64,
    /// MCL relative to the paper-default configuration.
    pub mcl_rel: f64,
    /// Mapping wall time (seconds).
    pub map_secs: f64,
}

/// Sweeps the design choices DESIGN.md §5 calls out, on one benchmark:
/// merge beam width, scoring routing model, tiling search, and the MILP
/// budget. The baseline row is the paper configuration (beam 64, MAR
/// scoring, tiling search on) restricted to `base` (so sweeps are
/// comparable at any scale).
pub fn run_ablation(scale: &Scale, bench: Benchmark, base: &RahtmConfig) -> Vec<AblationRow> {
    let spec = bench.spec(scale.ranks);
    let graph = spec.comm_graph();
    let topo = scale.machine.torus();
    let eval = |cfg: RahtmConfig| -> (f64, f64) {
        let t0 = Instant::now();
        let res = RahtmMapper::new(cfg).map(&scale.machine, &graph, Some(spec.grid.clone()));
        let secs = t0.elapsed().as_secs_f64();
        (
            mapping_mcl(topo, &graph, res.mapping.nodes(), Routing::UniformMinimal),
            secs,
        )
    };
    let (base_mcl, base_secs) = eval(base.clone());
    let mut rows = vec![AblationRow {
        knob: "baseline",
        value: format!("beam {}", base.beam_width),
        bench: bench.name(),
        mcl: base_mcl,
        mcl_rel: 1.0,
        map_secs: base_secs,
    }];
    let mut push = |knob: &'static str, value: String, cfg: RahtmConfig| {
        let (mcl, secs) = eval(cfg);
        rows.push(AblationRow {
            knob,
            value,
            bench: bench.name(),
            mcl,
            mcl_rel: mcl / base_mcl,
            map_secs: secs,
        });
    };
    for beam in [1usize, 4, 16, 256] {
        if beam != base.beam_width {
            push(
                "beam",
                beam.to_string(),
                RahtmConfig {
                    beam_width: beam,
                    ..base.clone()
                },
            );
        }
    }
    push(
        "routing",
        "dim-order scoring".into(),
        RahtmConfig {
            routing: Routing::DimOrder,
            ..base.clone()
        },
    );
    push(
        "tiling",
        "search off".into(),
        RahtmConfig {
            tiling_search: false,
            ..base.clone()
        },
    );
    push(
        "milp",
        "anneal only".into(),
        RahtmConfig {
            use_milp: false,
            ..base.clone()
        },
    );
    push(
        "cache",
        "off".into(),
        RahtmConfig {
            cache_subproblems: false,
            ..base.clone()
        },
    );
    rows
}

/// One row of the model-validation experiment: the flow-level model's
/// prediction vs the packet simulator's measurement for one mapping.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Mapping label.
    pub mapping: String,
    /// MCL under the MAR approximation.
    pub mcl: f64,
    /// Flow-model per-iteration communication time (µs).
    pub model_time: f64,
    /// Packet-simulator phase makespan (µs).
    pub des_makespan: f64,
}

/// Cross-validates the flow-level model against the packet-level DES:
/// every mapping of the line-up, measured both ways. The *ordering* of
/// mappings is the quantity under test (DESIGN.md's substitution
/// argument); absolute times differ because the DES models per-packet
/// serialization. Intended for micro/mini scales (DES cost grows with
/// packets).
pub fn run_validation(scale: &Scale, mappings: &[MappingKind]) -> Vec<ValidationRow> {
    use rahtm_netsim::des::{simulate_phase, DesConfig};
    let topo = scale.machine.torus();
    let model = CommTimeModel::default();
    let mut rows = Vec::new();
    for bench in Benchmark::all() {
        let spec = bench.spec(scale.ranks);
        let graph = spec.comm_graph();
        for kind in mappings {
            let place = compute_mapping(kind, scale, &graph, &spec.grid);
            let b = model.comm_time(topo, &graph, &place, Routing::UniformMinimal);
            let des = simulate_phase(topo, &graph, &place, &DesConfig::default());
            rows.push(ValidationRow {
                bench: bench.name(),
                mapping: kind.label(scale),
                mcl: b.mcl,
                model_time: b.total(),
                des_makespan: des.makespan,
            });
        }
    }
    rows
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_tension() {
        let r = run_fig1();
        assert!(r.mcl_placement_mcl < r.hopbytes_placement_mcl);
        assert!(r.hopbytes_placement_hb < r.mcl_placement_hb);
    }

    #[test]
    fn fig9_micro_matches_calibration() {
        // the reference rows spend exactly the Figure 9 fraction communicating
        let scale = Scale::micro();
        let rows = run_figures(&scale, &[MappingKind::Order(0)]);
        assert_eq!(rows.len(), 3);
        for (row, bench) in rows.iter().zip(Benchmark::all()) {
            assert_eq!(row.bench, bench.name());
            let expect = match row.bench {
                "BT" => 0.34,
                "SP" => 0.36,
                "CG" => 0.72,
                _ => unreachable!(),
            };
            assert_eq!(bench.comm_fraction(), expect);
            assert!(
                (row.comm_time / row.exec_time - expect).abs() < 1e-9,
                "{row:?}"
            );
            assert_eq!((row.comm_rel, row.exec_rel), (1.0, 1.0));
        }
    }

    #[test]
    fn figure_pass_matches_calibrated_execute() {
        // one routing per cell gives the same bits as calibrating on the
        // default order and executing every mapping separately
        let scale = Scale::micro();
        let mappings = MappingKind::paper_lineup(&scale, RahtmConfig::fast());
        let rows = run_figures(&scale, &mappings);
        let topo = scale.machine.torus();
        let mut rows = rows.iter();
        for bench in Benchmark::all() {
            let spec = bench.spec(scale.ranks);
            let graph = spec.comm_graph();
            let place = |kind| compute_mapping(kind, &scale, &graph, &spec.grid);
            let app = AppModel::calibrated(
                topo,
                &graph,
                &place(&MappingKind::Order(0)),
                bench.comm_fraction(),
                bench.iterations(),
                CommTimeModel::default(),
                Routing::UniformMinimal,
            );
            let base = app.execute(topo, &graph, &place(&MappingKind::Order(0)));
            for kind in &mappings {
                let e = app.execute(topo, &graph, &place(kind));
                let row = rows.next().expect("one row per cell");
                assert_eq!(
                    (row.bench, row.mapping.as_str()),
                    (bench.name(), kind.label(&scale).as_str())
                );
                let got = [
                    row.comm_time,
                    row.exec_time,
                    row.comm_rel,
                    row.exec_rel,
                    row.mcl,
                ];
                let want = [
                    e.comm,
                    e.total,
                    e.comm / base.comm,
                    e.total / base.total,
                    e.mcl,
                ];
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{row:?}");
            }
        }
        assert!(rows.next().is_none());
    }

    #[test]
    fn fig8_micro_runs_and_rahtm_wins_or_ties() {
        let scale = Scale::micro();
        let mappings = MappingKind::paper_lineup(&scale, RahtmConfig::fast());
        let rows = run_figures(&scale, &mappings);
        assert_eq!(rows.len(), 3 * mappings.len());
        // default order rows have rel == 1
        for r in rows.iter().filter(|r| r.mapping == "ABT") {
            assert!((r.exec_rel - 1.0).abs() < 1e-9);
            assert!((r.comm_rel - 1.0).abs() < 1e-9);
        }
        // RAHTM no worse than default on geomean of comm time
        let rahtm_rels: Vec<f64> = rows
            .iter()
            .filter(|r| r.mapping == "RAHTM")
            .map(|r| r.comm_rel)
            .collect();
        assert_eq!(rahtm_rels.len(), 3);
        assert!(geomean(&rahtm_rels) <= 1.0 + 1e-9, "{rahtm_rels:?}");
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
