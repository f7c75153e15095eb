//! Integration tests for the `rahtm-map` CLI: the full user workflow from
//! profile / benchmark to mapfile, via the compiled binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rahtm-map"))
}

#[test]
fn benchmark_to_mapfile_roundtrip() {
    let dir = std::env::temp_dir().join("rahtm_cli_test_bt");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("bt.map");
    let status = bin()
        .args([
            "--benchmark",
            "BT",
            "--ranks",
            "64",
            "--machine",
            "4x4",
            "--cores",
            "4",
            "--fast",
            "--quiet",
            "--out",
            out.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&out).unwrap();
    assert_eq!(text.lines().count(), 64);
    // parse it back through the library
    let machine =
        rahtm_repro::prelude::BgqMachine::new(rahtm_repro::prelude::Torus::torus(&[4, 4]), 4, 4);
    let map =
        rahtm_repro::prelude::TaskMapping::from_bgq_mapfile(&machine, &text).expect("valid map");
    map.validate(&machine);
}

#[test]
fn profile_input() {
    use rahtm_repro::prelude::*;
    let dir = std::env::temp_dir().join("rahtm_cli_test_profile");
    std::fs::create_dir_all(&dir).unwrap();
    let profile_path = dir.join("halo.json");
    let profile = Profile::from_graph("halo16", &patterns::halo_2d(4, 4, 10.0, true), 0.5, 10);
    std::fs::write(&profile_path, profile.to_json()).unwrap();
    let output = bin()
        .args([
            "--profile",
            profile_path.to_str().unwrap(),
            "--machine",
            "4x4",
            "--grid",
            "4x4",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("halo16"));
    assert!(text.contains("RAHTM MCL"));
}

/// `--trace-json` writes a well-formed journal whose deterministic content
/// (everything but wall-clock span durations) is identical run to run —
/// the acceptance criterion for the trace-export surface.
#[test]
fn trace_json_export_is_deterministic() {
    use rahtm_repro::obs::Journal;
    let dir = std::env::temp_dir().join("rahtm_cli_test_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str| -> Journal {
        let path = dir.join(name);
        let output = bin()
            .args([
                "--benchmark",
                "CG",
                "--ranks",
                "16",
                "--machine",
                "4x4",
                "--cores",
                "1",
                "--trace-json",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{output:?}");
        let text = String::from_utf8_lossy(&output.stdout);
        assert!(text.contains("trace"), "trace write reported: {text}");
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
                .expect("trace file is valid JSON");
        Journal::from_json(&json).expect("trace file is a well-formed journal")
    };
    let a = run("a.json");
    let b = run("b.json");
    // spans present with real timings...
    assert!(a.span("pipeline").is_some_and(|s| s.secs > 0.0));
    assert!(a.span("pipeline.milp").is_some());
    assert!(a.span("pipeline.merge").is_some());
    // ...counters and gauges populated...
    assert!(a.counter("pipeline.subproblems_solved").unwrap_or(0) > 0);
    assert!(a.gauge("pipeline.predicted_mcl").is_some());
    // ...and the journal is reproducible modulo wall time
    assert_eq!(a.normalized(), b.normalized());
}

#[test]
fn missing_args_fail_cleanly() {
    let output = bin().output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage"));
}

#[test]
fn bad_benchmark_rejected() {
    let output = bin()
        .args(["--benchmark", "LU", "--ranks", "64", "--machine", "4x4"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown benchmark"));
}

#[test]
fn non_dividing_ranks_rejected() {
    let output = bin()
        .args([
            "--benchmark",
            "CG",
            "--ranks",
            "64",
            "--machine",
            "3x5",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "invalid input");
    assert!(String::from_utf8_lossy(&output.stderr).contains("uniformly"));
}

#[test]
fn all_input_problems_reported_in_one_invocation() {
    // 64 ranks on 3x5=15 nodes (not a multiple) AND a grid covering the
    // wrong rank count: both must appear in stderr of a single run.
    let output = bin()
        .args([
            "--benchmark",
            "CG",
            "--ranks",
            "64",
            "--machine",
            "3x5",
            "--grid",
            "4x4",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "invalid input");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(
        err.contains("uniformly"),
        "rank/node mismatch listed: {err}"
    );
    assert!(err.contains("grid"), "grid mismatch listed: {err}");
    assert!(
        !err.contains("panicked"),
        "no backtrace for user errors: {err}"
    );
}

#[test]
fn non_dividing_slice_side_is_invalid_input() {
    // 2x3: the slice side 2 does not divide the extent 3, which the mapper
    // reports as invalid input instead of panicking
    let output = bin()
        .args([
            "--benchmark",
            "BT",
            "--ranks",
            "36",
            "--machine",
            "2x3",
            "--cores",
            "6",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "invalid input: {output:?}");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("side 2 does not divide extent 3"), "{err}");
    assert!(
        !err.contains("panicked"),
        "no backtrace for user errors: {err}"
    );
}

#[test]
fn missing_profile_is_io_error() {
    let output = bin()
        .args([
            "--profile",
            "/nonexistent/trace.json",
            "--machine",
            "4x4",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "I/O error");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("/nonexistent/trace.json"), "{err}");
}

#[test]
fn malformed_profile_is_invalid_input() {
    let dir = std::env::temp_dir().join("rahtm_cli_test_badjson");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{ this is not json").unwrap();
    let output = bin()
        .args([
            "--profile",
            path.to_str().unwrap(),
            "--machine",
            "4x4",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "invalid input");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("profile"), "{err}");
}

#[test]
fn bad_time_limit_rejected_as_usage() {
    let output = bin()
        .args([
            "--benchmark",
            "CG",
            "--ranks",
            "16",
            "--machine",
            "4x4",
            "--time-limit",
            "-3",
            "--fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--time-limit"));
}

#[test]
fn zero_time_limit_still_succeeds_with_degradation_note() {
    // The resilience contract end to end: an already-expired budget still
    // produces a mapfile and exit 0; the degradation ladder is reported.
    let dir = std::env::temp_dir().join("rahtm_cli_test_tl");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("cg.map");
    let output = bin()
        .args([
            "--benchmark",
            "CG",
            "--ranks",
            "64",
            "--machine",
            "4x4",
            "--cores",
            "4",
            "--time-limit",
            "0",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("degradation"))
        .unwrap_or_else(|| panic!("downgrades reported: {text}"));
    // "degradation  : N downgrade(s) … (sub-problems s, identity merges i,
    // salvaged passes p); rungs: …" — the three terms must add up to N.
    let count_after = |label: &str| -> usize {
        let at = line
            .find(label)
            .unwrap_or_else(|| panic!("{label} in {line}"));
        let rest = line[at + label.len()..].trim_start();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("count after {label} in {line}"))
    };
    let total = count_after(":");
    let terms = count_after("sub-problems")
        + count_after("identity merges")
        + count_after("salvaged passes");
    assert!(total > 0, "{line}");
    assert_eq!(terms, total, "terms add up to the total: {line}");
    let mapfile = std::fs::read_to_string(&out).unwrap();
    assert_eq!(mapfile.lines().count(), 64, "complete mapping written");
}
