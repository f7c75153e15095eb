//! `rahtm-map` — the offline mapping tool, end to end.
//!
//! Reads a communication profile (or generates one for a named NAS
//! benchmark), runs the RAHTM pipeline for a given machine, reports the
//! improvement over the default mapping, and writes a BG/Q-style mapfile
//! that an MPI runtime consumes. This is the workflow of §V-B: pay the
//! mapping cost once, reuse the mapfile on every run.
//!
//! ```text
//! rahtm-map --benchmark CG --ranks 1024 --machine 4x4x4x2 --cores 16 --out cg.map
//! rahtm-map --profile trace.json --machine 4x4 --out app.map --fast
//! rahtm-map --benchmark CG --ranks 1024 --machine 8x8x4 --time-limit 5 --out cg.map
//! ```
//!
//! The tool never backtraces on user errors: every failure class maps to a
//! distinct exit code with a one-line (or one-line-per-problem) message.
//!
//! | exit | meaning                                    |
//! |------|--------------------------------------------|
//! | 0    | success                                    |
//! | 1    | I/O failure (read/write)                   |
//! | 2    | usage error (bad flags)                    |
//! | 3    | invalid input (profile shape, grid, ranks) |
//! | 4    | MILP infeasible with no fallback           |
//! | 5    | time limit exhausted with no fallback      |
//! | 6    | level pass panicked twice                  |
//! | 7    | internal invariant violated (a RAHTM bug)  |
//!
//! With `--time-limit` the pipeline still exits 0 whenever the degradation
//! ladder can absorb the pressure — it prints which sub-problems were
//! downgraded instead of failing.

use rahtm_repro::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    profile: Option<String>,
    benchmark: Option<Benchmark>,
    ranks: Option<u32>,
    machine: Vec<u16>,
    cores: u32,
    grid: Option<Vec<u32>>,
    out: Option<String>,
    fast: bool,
    milp: bool,
    beam: Option<usize>,
    milp_threads: Option<usize>,
    time_limit: Option<f64>,
    trace_json: Option<String>,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: rahtm-map (--profile FILE.json | --benchmark BT|SP|CG --ranks N)\n       \
     --machine AxBxC... [--cores N] [--grid RxC] [--out FILE.map]\n       \
     [--fast] [--milp] [--milp-threads N] [--beam N] [--time-limit SECS]\n       \
     [--trace-json FILE] [--quiet]\n\n\
     --milp-threads N   branch-and-bound workers per MILP solve\n\
                        (default 1, 0 = one per usable core;\n\
                        same formulation for any count)"
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        profile: None,
        benchmark: None,
        ranks: None,
        machine: Vec::new(),
        cores: 16,
        grid: None,
        out: None,
        fast: false,
        milp: false,
        beam: None,
        milp_threads: None,
        time_limit: None,
        trace_json: None,
        quiet: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--profile" => {
                a.profile = Some(value(&argv, i, "--profile")?);
                i += 2;
            }
            "--benchmark" => {
                let name = value(&argv, i, "--benchmark")?;
                a.benchmark = Some(match name.to_ascii_uppercase().as_str() {
                    "BT" => Benchmark::Bt,
                    "SP" => Benchmark::Sp,
                    "CG" => Benchmark::Cg,
                    other => return Err(format!("unknown benchmark '{other}' (BT, SP, CG)")),
                });
                i += 2;
            }
            "--ranks" => {
                a.ranks = Some(
                    value(&argv, i, "--ranks")?
                        .parse()
                        .map_err(|e| format!("--ranks: {e}"))?,
                );
                i += 2;
            }
            "--machine" => {
                a.machine = value(&argv, i, "--machine")?
                    .split('x')
                    .map(|t| t.parse::<u16>().map_err(|e| format!("--machine: {e}")))
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--cores" => {
                a.cores = value(&argv, i, "--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
                i += 2;
            }
            "--grid" => {
                a.grid = Some(
                    value(&argv, i, "--grid")?
                        .split('x')
                        .map(|t| t.parse::<u32>().map_err(|e| format!("--grid: {e}")))
                        .collect::<Result<_, _>>()?,
                );
                i += 2;
            }
            "--out" => {
                a.out = Some(value(&argv, i, "--out")?);
                i += 2;
            }
            "--beam" => {
                a.beam = Some(
                    value(&argv, i, "--beam")?
                        .parse()
                        .map_err(|e| format!("--beam: {e}"))?,
                );
                i += 2;
            }
            "--milp-threads" => {
                a.milp_threads = Some(
                    value(&argv, i, "--milp-threads")?
                        .parse()
                        .map_err(|e| format!("--milp-threads: {e}"))?,
                );
                i += 2;
            }
            "--time-limit" => {
                let secs: f64 = value(&argv, i, "--time-limit")?
                    .parse()
                    .map_err(|e| format!("--time-limit: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--time-limit: must be a non-negative number of seconds".into());
                }
                a.time_limit = Some(secs);
                i += 2;
            }
            "--trace-json" => {
                a.trace_json = Some(value(&argv, i, "--trace-json")?);
                i += 2;
            }
            "--fast" => {
                a.fast = true;
                i += 1;
            }
            "--milp" => {
                a.milp = true;
                i += 1;
            }
            "--quiet" => {
                a.quiet = true;
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if a.machine.is_empty() {
        return Err(format!("--machine is required\n{}", usage()));
    }
    if a.profile.is_none() && a.benchmark.is_none() {
        return Err(format!("need --profile or --benchmark\n{}", usage()));
    }
    if a.benchmark.is_some() && a.ranks.is_none() {
        return Err(format!("--benchmark needs --ranks\n{}", usage()));
    }
    Ok(a)
}

/// One distinct exit code per [`RahtmError`] class (documented in the
/// module header). Usage errors exit 2 before this mapping is reached.
fn exit_code(e: &RahtmError) -> u8 {
    match e {
        RahtmError::Io { .. } => 1,
        RahtmError::InvalidInput { .. } | RahtmError::Profile { .. } => 3,
        RahtmError::Infeasible { .. } => 4,
        RahtmError::Timeout { .. } => 5,
        RahtmError::WorkerPanic { .. } => 6,
        RahtmError::Internal { .. } => 7,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rahtm-map: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rahtm-map: {e}");
            ExitCode::from(exit_code(&e))
        }
    }
}

fn run(args: &Args) -> Result<(), RahtmError> {
    // ---- workload ----
    let (name, graph, grid) = if let Some(path) = &args.profile {
        let text = std::fs::read_to_string(path).map_err(|e| RahtmError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let profile = Profile::from_json(&text).map_err(|e| RahtmError::Profile {
            message: format!("{path}: {e}"),
        })?;
        let g = profile.to_graph();
        let grid = args
            .grid
            .clone()
            .map(|d| RankGrid::new(&d))
            .unwrap_or_else(|| RankGrid::near_square(g.num_ranks()));
        (profile.name.clone(), g, grid)
    } else {
        // parse_args guarantees benchmark and ranks are both present
        let (bench, ranks) = match (args.benchmark, args.ranks) {
            (Some(b), Some(r)) => (b, r),
            _ => {
                return Err(RahtmError::internal(
                    "argument parser admitted benchmark without ranks",
                ))
            }
        };
        let spec = bench.spec(ranks);
        let graph = spec.comm_graph();
        let grid = args
            .grid
            .clone()
            .map(|d| RankGrid::new(&d))
            .unwrap_or(spec.grid);
        (format!("{}.{}", bench.name(), ranks), graph, grid)
    };

    // ---- machine ----
    // Oversubscription (concentration above --cores) is paper-normal:
    // mira_512 runs 32 ranks/node on 16 cores. Shape errors (ranks not
    // filling nodes, grid mismatch) are the mapper's validate() call, which
    // reports every problem at once.
    let nodes: u32 = args.machine.iter().map(|&k| k as u32).product();
    let conc = if nodes > 0 && graph.num_ranks().is_multiple_of(nodes) {
        (graph.num_ranks() / nodes).max(1)
    } else {
        1 // invalid shape: let validate() report it
    };
    let machine = BgqMachine::new(Torus::torus(&args.machine), args.cores, conc);

    // ---- mapping ----
    let mut cfg = if args.fast {
        RahtmConfig::fast()
    } else {
        RahtmConfig::default()
    };
    cfg.use_milp = args.milp || (!args.fast && cfg.use_milp);
    if let Some(b) = args.beam {
        cfg.beam_width = b;
    }
    if let Some(t) = args.milp_threads {
        cfg.milp_threads = t;
    }
    cfg.time_limit = args.time_limit.map(Duration::from_secs_f64);
    let recorder = if args.trace_json.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let t0 = std::time::Instant::now();
    let result = RahtmMapper::new(cfg)
        .with_recorder(recorder)
        .run(&machine, &graph, Some(grid))?;
    let elapsed = t0.elapsed().as_secs_f64();

    let default = TaskMapping::abcdet(&machine, graph.num_ranks());
    let mcl_default = default.mcl(&machine, &graph, Routing::UniformMinimal);
    let mcl_rahtm = result
        .mapping
        .mcl(&machine, &graph, Routing::UniformMinimal);

    if !args.quiet {
        println!("workload     : {name} ({} ranks)", graph.num_ranks());
        println!(
            "machine      : {:?} torus, {} nodes, concentration {}",
            args.machine,
            nodes,
            machine.concentration()
        );
        println!("mapping time : {elapsed:.1} s");
        println!("default MCL  : {mcl_default:.0}");
        println!("RAHTM MCL    : {mcl_rahtm:.0}");
        if mcl_default > 0.0 {
            println!(
                "improvement  : {:+.1}%",
                (mcl_rahtm / mcl_default - 1.0) * 100.0
            );
        }
        let d = &result.stats.degradation;
        if d.total_downgrades() > 0 {
            // The parenthesised terms sum to the total; the rung counts
            // after them include configured top-rung answers too.
            println!(
                "degradation  : {} downgrade(s) under the time budget \
                 (sub-problems {}, identity merges {}, salvaged passes {}); \
                 rungs: milp {}, anneal {}, greedy {}",
                d.total_downgrades(),
                d.downgraded,
                d.identity_merges,
                d.salvaged_workers,
                d.milp,
                d.anneal,
                d.greedy
            );
        }
    }
    if let Some(path) = &args.trace_json {
        let journal = result.journal.clone().unwrap_or_default();
        let text = journal.to_json_pretty();
        std::fs::write(path, &text).map_err(|e| RahtmError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        if !args.quiet {
            println!(
                "trace        : {path} ({} spans, {} counters, {} gauges, {} events)",
                journal.spans.len(),
                journal.counters.len(),
                journal.gauges.len(),
                journal.events.len()
            );
        }
    }
    if let Some(out) = &args.out {
        let text = result.mapping.to_bgq_mapfile(&machine);
        std::fs::write(out, &text).map_err(|e| RahtmError::Io {
            path: out.clone(),
            message: e.to_string(),
        })?;
        if !args.quiet {
            println!("wrote        : {out} ({} lines)", text.lines().count());
        }
    }
    Ok(())
}
