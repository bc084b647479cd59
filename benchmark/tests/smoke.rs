//! Smoke test of the benchmark itself: every workload at a tiny size prints
//! every metric `BENCHMARK.json` names, with its unit, and a deliberately
//! wrong pinned digest is reported as a failure instead of passing.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use multival_svc::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at tiny size; returns the exit code and the parsed
/// last stdout line.
fn run(workload: &str, trace: u8, pinned: Option<&Path>) -> (i32, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_multival-benchmark"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--tiny"]);
    cmd.args(["--trace", &trace.to_string()]);
    if let Some(p) = pinned {
        cmd.arg("--pinned").arg(p);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"));
    (out.status.code().unwrap_or(-1), json)
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        for workload in ["verify", "evaluate", "serve"] {
            let (code, result) = run(workload, trace, None);
            assert_eq!(code, 0, "{workload} trace {trace}: {result:?}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            let metrics = result.get("metrics").expect("metrics object");
            for (name, unit) in declared(section) {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert!(
                    m.get("value").and_then(Json::as_num).is_some(),
                    "{workload}: {name} value"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    let pinned = std::fs::read_to_string(manifest_dir().join("pinned.txt")).expect("pinned.txt");
    // Corrupt the digest of a job every evaluate run executes.
    let wrong: String = pinned
        .lines()
        .map(|l| match l.strip_prefix("solve:contended ") {
            Some(d) => format!("solve:contended {}\n", d.replace(|c: char| c != '0', "0")),
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(wrong, pinned, "solve:contended is pinned");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong_pinned.txt");
    std::fs::write(&path, wrong).expect("write corrupted pins");
    let (code, result) = run("evaluate", 0, Some(&path));
    assert_ne!(code, 0, "a wrong digest must fail the run");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(result.get("failed").and_then(Json::as_num).is_some_and(|f| f > 0.0));
}
