//! Command line of the mapper benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg-1k-anneal|bt-16k-fast|cg-1k-milp|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's context and every metric with its unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--workload all` runs every listed workload in turn in this
//! process and prints one such line per workload.

use rahtm_perfbench::{git_commit, mapper_seeds, run, workload, Report, WORKLOADS};

// Exit codes: 0 with a result printed; 2 on a usage error.

const USAGE: &str =
    "usage: rahtm-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = parse(value("--seed").unwrap_or("0"), "--seed");
    let seconds: f64 = parse(value("--seconds").unwrap_or("10"), "--seconds");
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace takes 0 or 1, got '{other}'")),
    };
    let workloads = if name == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload(name).unwrap_or_else(|| usage(&format!("unknown workload '{name}'")))]
    };
    // a failed check is reported in the result line (`correct`, `failed`),
    // not by the exit code
    for w in workloads {
        print_report(&run(w, seed, seconds, trace));
    }
}

fn print_report(r: &Report) {
    println!(
        "# workload {} seed {} (mapper seeds {:?}) trace {} | cores_available {} | rustc {} | profile {} | commit {}",
        r.workload,
        r.seed,
        mapper_seeds(r.seed),
        u8::from(r.trace),
        rahtm_core::cores::available(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
    );
    println!(
        "# threads: slice_workers {} merge_thread_cap {} milp_threads {}",
        r.threads.slice_workers, r.threads.merge_thread_cap, r.threads.milp_threads
    );
    if r.trace {
        println!("# journal spans (pipeline.*_s) are summed across concurrent slice workers");
    }
    if let Some(d) = r.digest {
        println!("# mapping digest {d:016x}");
    }
    println!(
        "# runs attempted {} failed {} fail_ratio {}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for e in &r.errors {
        println!("# FAILED: {e}");
    }
    for m in &r.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", r.result_json());
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes a number, got '{text}'")))
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}
