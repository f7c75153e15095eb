//! Experiment harness: regenerates every table and figure of the RAHTM
//! paper.
//!
//! ```text
//! harness <command> [--scale micro|mini|paper] [--milp] [--beam N]
//!
//! commands:
//!   table1        benchmark roster (Table I)
//!   table2-check  solve a Table II instance and verify C1/C2/C3
//!   fig1          hop-bytes vs MCL example (Figure 1)
//!   figures       one pass over every (benchmark, mapping) cell: Figures 9,
//!                 10 and 8, then each cell's MCL, hop-bytes and mapping
//!                 time (§V-B)
//!   ablation      beam / scoring / tiling / MILP knob sweeps
//!   validate      flow model vs packet simulator cross-check
//!   opportunity   §VI mapping-opportunity prediction per benchmark
//!   trace         run one mapping with tracing on (phase split of the
//!                 mapping time); [--trace-json FILE] exports the journal
//!   all           table1, table2-check, fig1 and figures in sequence
//! ```

use rahtm_bench::experiments::{
    geomean, run_ablation, run_fig1, run_figures, run_validation, FigRow, MappingKind, Scale,
};
use rahtm_bench::report::{pct, render_table, secs};
use rahtm_commgraph::{patterns, Benchmark};
use rahtm_core::milp::{milp_map, MilpMapOptions};
use rahtm_core::{RahtmConfig, RahtmMapper};
use rahtm_obs::Recorder;
use rahtm_topology::Torus;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let scale = match flag_value(&args, "--scale").unwrap_or("mini") {
        "micro" => Scale::micro(),
        "mini" => Scale::mini(),
        "paper" => Scale::paper(),
        other => {
            eprintln!("unknown scale '{other}'");
            std::process::exit(2);
        }
    };
    let mut cfg = if args.iter().any(|a| a == "--milp") {
        RahtmConfig::default()
    } else {
        RahtmConfig {
            use_milp: false,
            ..RahtmConfig::default()
        }
    };
    if let Some(b) = flag_value(&args, "--beam") {
        cfg.beam_width = b.parse().expect("--beam takes a number");
    }

    match cmd {
        "table1" => table1(),
        "table2-check" => table2_check(),
        "fig1" => fig1(),
        "figures" => figures(&scale, &cfg),
        "ablation" => ablation(&scale, &cfg),
        "validate" => validate(&scale, &cfg),
        "opportunity" => opportunity(&scale),
        "trace" => trace(&scale, &cfg, &args),
        "all" => {
            table1();
            table2_check();
            fig1();
            figures(&scale, &cfg);
        }
        _ => {
            eprintln!("usage: harness <table1|table2-check|fig1|figures|ablation|validate|opportunity|trace|all> [--scale micro|mini|paper] [--milp] [--beam N] [--benchmark BT|SP|CG] [--trace-json FILE]");
            std::process::exit(2);
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn table1() {
    println!("== Table I: benchmarks ==");
    let rows: Vec<Vec<String>> = Benchmark::all()
        .into_iter()
        .map(|b| {
            vec![
                b.name().to_string(),
                b.suite().to_string(),
                b.description().to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["Name", "Suite", "Description"], &rows));
}

fn table2_check() {
    println!("== Table II: MILP formulation check ==");
    // Solve the Figure 1 instance with full Table II constraints and
    // verify the solution's structure.
    let cube = Torus::mesh(&[2, 2]);
    let g = patterns::figure1(100.0, 1.0);
    let res = milp_map(
        &cube,
        &g,
        &MilpMapOptions {
            enforce_minimal: true,
            ..Default::default()
        },
    )
    .expect("Table II solve");
    let unique: std::collections::HashSet<_> = res.placement.iter().collect();
    println!(
        "  C1 (assignment)      : {} clusters on {} distinct vertices -> {}",
        res.placement.len(),
        unique.len(),
        if unique.len() == res.placement.len() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "  C2+C3 (minimal flow) : solver reports minimal routing = {}",
        res.minimal
    );
    println!(
        "  objective (MCL)      : {:.3} ({}proven optimal)",
        res.mcl,
        if res.proven_optimal { "" } else { "not " }
    );
    println!(
        "  heavy pair placed at distance {} (diagonal expected)\n",
        cube.distance(res.placement[0], res.placement[1])
    );
}

fn fig1() {
    println!("== Figure 1: routing-aware vs hop-bytes mapping (2x2, MAR) ==");
    let r = run_fig1();
    let rows = vec![
        vec![
            "hop-bytes mapping (adjacent)".to_string(),
            format!("{:.1}", r.hopbytes_placement_mcl),
            format!("{:.0}", r.hopbytes_placement_hb),
        ],
        vec![
            "MCL mapping (diagonal)".to_string(),
            format!("{:.1}", r.mcl_placement_mcl),
            format!("{:.0}", r.mcl_placement_hb),
        ],
    ];
    println!(
        "{}",
        render_table(&["placement", "MCL", "hop-bytes"], &rows)
    );
    println!(
        "  -> lower hop-bytes picks the adjacent placement, but MAR makes the\n     diagonal {}x better on actual channel load\n",
        (r.hopbytes_placement_mcl / r.mcl_placement_mcl * 10.0).round() / 10.0
    );
}

/// The figure pass: every (benchmark, mapping) cell computed once, then
/// Figure 9 (the calibration input), Figure 10, Figure 8 and each cell's
/// mapping cost.
fn figures(scale: &Scale, cfg: &RahtmConfig) {
    println!("== Figure 9: communication vs computation fraction ==");
    let table: Vec<Vec<String>> = Benchmark::all()
        .into_iter()
        .map(|b| {
            vec![
                b.name().to_string(),
                format!("{:.0}%", b.comm_fraction() * 100.0),
                format!("{:.0}%", (1.0 - b.comm_fraction()) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["benchmark", "communication", "computation"], &table)
    );
    let mappings = MappingKind::paper_lineup(scale, cfg.clone());
    let rows = run_figures(scale, &mappings);
    print_fig(
        "== Figure 10: communication time vs default ==",
        scale,
        &mappings,
        &rows,
        |r| r.comm_rel,
    );
    print_fig(
        "== Figure 8: overall execution time vs default ==",
        scale,
        &mappings,
        &rows,
        |r| r.exec_rel,
    );
    println!("== Mapping cost per cell (§V-B, scale {}) ==", scale.name);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.to_string(),
                r.mapping.clone(),
                format!("{:.0}", r.mcl),
                format!("{:.2e}", r.hop_bytes),
                secs(r.map_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["bench", "mapping", "MCL", "hop-bytes", "map time"],
            &table
        )
    );
}

fn print_fig(
    title: &str,
    scale: &Scale,
    mappings: &[MappingKind],
    rows: &[FigRow],
    get: impl Fn(&FigRow) -> f64,
) {
    println!("{title} (scale {}):", scale.name);
    let benches = ["BT", "SP", "CG"];
    let mut table = Vec::new();
    for kind in mappings {
        let label = kind.label(scale);
        let mut cells = vec![label.clone()];
        let mut rels = Vec::new();
        for b in benches {
            let row = rows
                .iter()
                .find(|r| r.bench == b && r.mapping == label)
                .expect("row exists");
            cells.push(pct(get(row)));
            rels.push(get(row));
        }
        cells.push(pct(geomean(&rels)));
        table.push(cells);
    }
    println!(
        "{}",
        render_table(&["mapping", "BT", "SP", "CG", "geomean"], &table)
    );
}

fn opportunity(scale: &Scale) {
    println!(
        "== Mapping-opportunity prediction (§VI, scale {}) ==",
        scale.name
    );
    let rows: Vec<Vec<String>> = Benchmark::all()
        .into_iter()
        .map(|bench| {
            let g = bench.graph(scale.ranks);
            let r = rahtm_core::opportunity::assess(
                &scale.machine,
                &g,
                2,
                rahtm_routing::Routing::UniformMinimal,
            );
            vec![
                bench.name().to_string(),
                format!("{:.2}", r.imbalance),
                format!("{:.0}%", r.distant_heavy_fraction * 100.0),
                format!("{:.0}%", r.off_node_fraction * 100.0),
                format!("{:.2}", r.score()),
                if r.worth_mapping() { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "bench",
                "imbalance",
                "distant",
                "off-node",
                "score",
                "map it?"
            ],
            &rows
        )
    );
}

/// Run one RAHTM mapping with the trace recorder on and report the
/// journal: phase spans, solver counters, and per-level MCL gauges.
/// `--trace-json FILE` additionally exports the journal as JSON (the
/// same shape `rahtm-map --trace-json` writes).
fn trace(scale: &Scale, cfg: &RahtmConfig, args: &[String]) {
    let bench = match flag_value(args, "--benchmark")
        .unwrap_or("CG")
        .to_ascii_uppercase()
        .as_str()
    {
        "BT" => Benchmark::Bt,
        "SP" => Benchmark::Sp,
        "CG" => Benchmark::Cg,
        other => {
            eprintln!("unknown benchmark '{other}' (BT, SP, CG)");
            std::process::exit(2);
        }
    };
    println!(
        "== Trace: {} at scale {} ({} ranks) ==",
        bench.name(),
        scale.name,
        scale.ranks
    );
    let spec = bench.spec(scale.ranks);
    let graph = spec.comm_graph();
    let recorder = Recorder::enabled();
    let mapper = RahtmMapper::new(cfg.clone()).with_recorder(recorder.clone());
    let res = match mapper.run(&scale.machine, &graph, Some(spec.grid)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mapping failed: {e}");
            std::process::exit(1);
        }
    };
    let journal = res.journal.unwrap_or_default();
    let span_rows: Vec<Vec<String>> = journal
        .spans
        .iter()
        .map(|s| vec![s.name.clone(), s.count.to_string(), secs(s.secs)])
        .collect();
    println!("{}", render_table(&["span", "count", "total"], &span_rows));
    let counter_rows: Vec<Vec<String>> = journal
        .counters
        .iter()
        .map(|c| vec![c.name.clone(), c.value.to_string()])
        .collect();
    println!("{}", render_table(&["counter", "value"], &counter_rows));
    let gauge_rows: Vec<Vec<String>> = journal
        .gauges
        .iter()
        .map(|g| {
            let vals: Vec<String> = g.values.iter().map(|v| format!("{v:.1}")).collect();
            vec![g.name.clone(), vals.join(", ")]
        })
        .collect();
    println!("{}", render_table(&["gauge", "values"], &gauge_rows));
    if let Some(path) = flag_value(args, "--trace-json") {
        if let Err(e) = std::fs::write(path, journal.to_json_pretty()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn validate(scale: &Scale, cfg: &RahtmConfig) {
    println!(
        "== Model validation: flow model vs packet simulator (scale {}) ==",
        scale.name
    );
    let mappings = MappingKind::paper_lineup(scale, cfg.clone());
    let rows = run_validation(scale, &mappings);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.to_string(),
                r.mapping.clone(),
                format!("{:.0}", r.mcl),
                format!("{:.0} us", r.model_time),
                format!("{:.0} us", r.des_makespan),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["bench", "mapping", "MCL", "model comm", "DES makespan"],
            &table
        )
    );
    println!("  (orderings should agree; absolute scales differ by design)\n");
}

fn ablation(scale: &Scale, cfg: &RahtmConfig) {
    println!(
        "== Ablation of RAHTM design choices (scale {}, CG) ==",
        scale.name
    );
    let rows = run_ablation(scale, Benchmark::Cg, cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.knob.to_string(),
                r.value.clone(),
                format!("{:.0}", r.mcl),
                pct(r.mcl_rel),
                secs(r.map_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["knob", "setting", "MCL", "vs baseline", "map time"],
            &table
        )
    );
}
