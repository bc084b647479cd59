//! Byte pins of the two front ends over the shared evaluation core.
//!
//! `tests/data/cli_outputs.sha256` maps each CLI invocation below to its
//! exit code and the SHA-256 of its normalized stdout (normalized the way
//! the benchmark's correctness gate does: timing and `wrote` lines and
//! dash rules dropped, whitespace collapsed). `tests/data/service_bodies.sha256`
//! maps each canonical service request to the SHA-256 of its `evaluate`
//! body (`error: MESSAGE` for a failed evaluation). On a mismatch the test
//! prints the recomputed file, so an intended change shows entry by entry.

use multival::cli::{execute, parse_args, Command};
use multival::par::Workers;
use multival_integration::sha256_hex;
use multival_svc::json::Json;
use multival_svc::sweep::{run_explore_space, SweepOptions, SweepSpec};
use multival_svc::JobRequest;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ has a parent").to_owned()
}

const DEADLOCK_FREE: &str = "nu X. <true> true and [true] X";
const XSTREAM: &str = "tests/data/xstream_pipeline.aut";
const XSTREAM_RATES: [&str; 8] =
    ["--rate", "push=1", "--rate", "xfer=4", "--rate", "pop=2", "--rate", "credit=8"];

/// The pinned invocations; paths are relative to the repository root.
fn invocations() -> Vec<Vec<&'static str>> {
    let chain = "examples/reduce_chain.lot";
    let fabric = "examples/contended_fabric.lot";
    let budget = "tests/data/budget.lot";
    let looped = "tests/data/loop.lot";
    let fabric_rates =
        ["--rate", "issue=200", "--rate", "flush=20", "--rate", "mem=5", "--rate", "consume=100"];
    let with = |head: &[&'static str], tail: &[&'static str]| [head, tail].concat();
    vec![
        vec!["help"],
        vec!["explore", chain],
        vec!["explore", "examples/xmas_fab_3.lot", "--store", "arena"],
        vec!["explore", "examples/xmas_fab_3.lot", "--store", "spill", "--mem-budget", "1k"],
        vec!["explore", chain, "--on-the-fly"],
        vec!["explore", XSTREAM],
        vec!["explore", budget, "--max-states", "10"],
        vec!["explore", budget, "--max-states", "10", "--store", "hash"],
        vec!["explore", budget, "--timeout-secs", "0"],
        vec!["explore", looped],
        vec!["explore", looped, "--on-the-fly"],
        vec!["check", chain, DEADLOCK_FREE],
        vec!["check", chain, DEADLOCK_FREE, "--on-the-fly"],
        vec!["check", XSTREAM, "<\"push\"> true"],
        vec!["check", budget, DEADLOCK_FREE, "--max-states", "10"],
        vec!["check", budget, DEADLOCK_FREE, "--timeout-secs", "0"],
        vec!["check", looped, DEADLOCK_FREE],
        with(&["check", XSTREAM, "throughput(pop) >= 0.5"], &XSTREAM_RATES),
        with(&["check", fabric, "throughput(mark) >= 1", "--scheduler", "bounds"], &fabric_rates),
        vec!["check", budget, "throughput(tick) >= 0.1", "--rate", "tick=1", "--max-states", "10"],
        vec!["check", budget, "throughput(tick) >= 0.1", "--rate", "tick=1", "--timeout-secs", "0"],
        vec!["check", looped, "throughput(a) >= 0.1", "--rate", "a=1"],
        vec!["minimize", chain, "--eq", "strong"],
        vec!["minimize", "tests/data/fame2_ping_pong.aut"],
        vec!["minimize", looped],
        vec!["reduce", chain],
        vec!["reduce", chain, "--store", "spill", "--mem-budget", "1k", "--order", "given"],
        vec!["reduce", chain, "--eq", "strong", "--order", "seed:7", "--store", "arena"],
        vec!["reduce", chain, "--max-states", "2"],
        vec!["reduce", chain, "--timeout-secs", "0"],
        vec!["reduce", XSTREAM],
        vec!["compare", chain, "tests/data/pipeline_xstream_pipeline.aut"],
        vec!["compare", XSTREAM, "tests/data/pipeline_xstream_pipeline.aut", "--eq", "strong"],
        vec!["compare", chain, chain, "--eq", "traces", "--on-the-fly"],
        with(&["solve", XSTREAM, "--probe", "pop"], &XSTREAM_RATES),
        with(&["solve", fabric, "--probe", "mark"], &fabric_rates),
        with(
            &["simulate", XSTREAM, "--trajectories", "2000", "--horizon", "50", "--time", "2"],
            &XSTREAM_RATES,
        ),
        vec!["simulate", budget, "--rate", "tick=1", "--max-states", "10"],
        vec!["simulate", budget, "--rate", "tick=1", "--timeout-secs", "0"],
        vec!["simulate", looped, "--rate", "a=1"],
        vec!["walk", chain, "--steps", "6", "--seed", "3"],
        vec!["walk", XSTREAM, "--steps", "4"],
        vec!["refines", chain, chain, "--weak"],
        vec!["refines", "tests/data/pipeline_xstream_pipeline.aut", XSTREAM],
        vec!["lint", fabric],
        vec!["fuzz", "--seeds", "3..4", "--max-steps", "2"],
        vec!["explore-space", "tests/data/sweep_xstream.toml"],
        vec!["explore", "--threads"],
    ]
}

/// Runs one invocation the way the `multival` binary does; returns the
/// exit code and stdout.
fn run_cli(args: &[String]) -> (i32, String) {
    let Ok(cmd) = parse_args(args) else {
        return (1, String::new());
    };
    if let Command::ExploreSpace { spec, workers, endpoint, cache_dir, max_states } = &cmd {
        let text = std::fs::read_to_string(spec).expect("sweep spec reads");
        let spec = SweepSpec::parse(&text).expect("sweep spec parses");
        let options = SweepOptions {
            workers: *workers,
            endpoint: endpoint.clone(),
            cache_dir: cache_dir.as_ref().map(PathBuf::from),
            max_states: *max_states,
        };
        return match run_explore_space(&spec, &options) {
            Ok(run) => (run.status.exit_code(), run.report().render()),
            Err(_) => (1, String::new()),
        };
    }
    match execute(&cmd) {
        Ok(out) => (out.status.exit_code(), out.text),
        Err(_) => (1, String::new()),
    }
}

fn normalized(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !["wall-clock", "trajectories/sec", "wrote "].iter().any(|p| l.starts_with(p)))
        .filter(|l| !l.chars().all(|c| c == '-'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ") + "\n")
        .collect()
}

/// The invocation as a shell line: arguments with spaces single-quoted.
fn shell_line(args: &[&str]) -> String {
    let quoted: Vec<String> = args
        .iter()
        .map(|a| if a.contains(' ') { format!("'{a}'") } else { (*a).to_owned() })
        .collect();
    quoted.join(" ")
}

/// Compares `computed` (`(key, value)` pairs, one `VALUE  KEY` line each)
/// with the committed pin file.
fn check_pins(file: &str, computed: &[(String, String)]) {
    let path = root().join("tests/data").join(file);
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    let got: String = computed.iter().map(|(k, v)| format!("{v}  {k}\n")).collect();
    if want != got {
        let want_lines: Vec<&str> = want.lines().collect();
        let moved: Vec<&str> = got.lines().filter(|l| !want_lines.contains(l)).collect();
        panic!(
            "{file} does not match the recomputed pins; changed or new entries:\n{}\n\n\
             recomputed file:\n{got}",
            moved.join("\n")
        );
    }
}

#[test]
fn cli_outputs_match_their_pins() {
    let root = root();
    let mut computed = Vec::new();
    for args in invocations() {
        let resolved: Vec<String> = args
            .iter()
            .map(|a| {
                if a.starts_with("examples/") || a.starts_with("tests/data/") {
                    root.join(a).display().to_string()
                } else {
                    (*a).to_owned()
                }
            })
            .collect();
        let (code, stdout) = run_cli(&resolved);
        let digest = sha256_hex(normalized(&stdout).as_bytes());
        computed.push((shell_line(&args), format!("{code} {digest}")));
    }
    check_pins("cli_outputs.sha256", &computed);
}

const BUF: &str = "process Buf[put, get](full: bool) :=
     [not full] -> put; Buf[put, get](true)
  [] [full] -> get; Buf[put, get](false)
 endproc
 behaviour Buf[put, get](false)";

const ARB: &str = "process Arb[pa, pb, fast, slow, done] :=
        pa; fast; done; Arb[pa, pb, fast, slow, done]
     [] pb; slow; done; Arb[pa, pb, fast, slow, done]
     endproc
     behaviour Arb[pa, pb, fast, slow, done]";

const NET: &str = "process P[a, m] := a; m; P[a, m] endproc
     process Q[m, b] := m; b; Q[m, b] endproc
     behaviour hide m in ( P[a, m] |[m]| Q[m, b] )";

const COUNTER: &str = "process C[t](n: int 0..9) := [n < 9] -> t; C[t](n + 1) endproc
     behaviour C[t](0)";

const LOOP: &str = "process Loop[a] := Loop[a] endproc behaviour a; Loop[a]";

const RING: &str = "des (0, 3, 3)\n(0, \"a\", 1)\n(1, \"b\", 2)\n(2, \"c\", 0)\n";

/// The pinned requests, as JSON texts.
fn requests() -> Vec<String> {
    let builtin = |kind: &str, name: &str, rest: &str| {
        format!(r#"{{"kind":"{kind}","model":{{"builtin":"{name}"}}{rest}}}"#)
    };
    let source = |kind: &str, src: &str, rest: &str| {
        format!(r#"{{"kind":"{kind}","model":{{"source":{}}}{rest}}}"#, Json::str(src))
    };
    let aut = |kind: &str, rest: &str| {
        format!(r#"{{"kind":"{kind}","model":{{"aut":{}}}{rest}}}"#, Json::str(RING))
    };
    let xstream_rates = r#","rates":{"push":1,"xfer":4,"pop":2,"credit":8}"#;
    let ping_pong_rates =
        r#","rates":{"RD":2,"WR":2,"GRANT":5,"MEM":1,"POLL":3,"FLUSH":4,"INV":6,"UPG":6}"#;
    let deadlock_free = format!(r#","formula":{}"#, Json::str(DEADLOCK_FREE));
    vec![
        builtin("explore", "xstream_pipeline", ""),
        builtin("explore", "fame2_ping_pong", ""),
        builtin("explore", "faust_single_packet", ""),
        source("explore", BUF, ""),
        aut("explore", ""),
        builtin("check", "faust_single_packet", &deadlock_free),
        source("check", BUF, &deadlock_free),
        aut("check", r#","formula":"<\"a\"> true""#),
        builtin("steady", "xstream_pipeline", &format!(r#"{xstream_rates},"probes":["pop"]"#)),
        builtin("steady", "fame2_ping_pong", ping_pong_rates),
        source("steady", BUF, r#","rates":{"put":2,"get":1},"probes":["get"]"#),
        builtin("transient", "xstream_pipeline", &format!(r#"{xstream_rates},"time":2"#)),
        aut("transient", r#","rates":{"a":1,"b":2,"c":3},"time":0.5"#),
        source("simulate", BUF, r#","rates":{"put":2,"get":3},"trajectories":512,"horizon":20"#),
        builtin(
            "simulate",
            "xstream_pipeline",
            &format!(r#"{xstream_rates},"trajectories":1024,"horizon":50,"seed":7"#),
        ),
        source("bounds", ARB, r#","rates":{"fast":4,"slow":1},"probes":["done"]"#),
        builtin("bounds", "xstream_pipeline", &format!(r#"{xstream_rates},"probes":["pop"]"#)),
        source("reduce", NET, ""),
        source("reduce", NET, r#","store":"arena","order":"given""#),
        source("reduce", NET, r#","store":"spill","mem_budget":65536,"eq":"strong""#),
        source("reduce", NET, r#","max_states":1"#),
        builtin("sweep", "xstream_pipeline", r#","sweep":{"delay":"erlang:2","push_capacity":3}"#),
        source("explore", COUNTER, r#","max_states":1"#),
        source("explore", LOOP, ""),
        source("simulate", LOOP, r#","rates":{"a":1}"#),
    ]
}

#[test]
fn service_bodies_match_their_pins() {
    let mut computed = Vec::new();
    for text in requests() {
        let request = JobRequest::from_json_text(&text).expect("pinned request parses");
        let body = match request.evaluate(Workers::sequential()) {
            Ok(json) => json.to_string(),
            Err(e) => format!("error: {e}"),
        };
        computed.push((request.canonical(), sha256_hex(body.as_bytes())));
    }
    check_pins("service_bodies.sha256", &computed);
}
