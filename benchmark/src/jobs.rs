//! The job lists of the `verify` and `evaluate` workloads, the inputs they
//! need, and the correctness gate every job output passes through.
//!
//! A job is one CLI invocation, run in-process through
//! `multival::cli::parse_args` + `execute`, or one `explore-space` run
//! through `multival_svc::sweep::run_explore_space` (the path the `multival`
//! binary takes for that verb).

use multival::cli::{execute, parse_args, CmdStatus, Command};
use multival::lts::io::write_aut;
use multival::lts::pipeline::{canonicalize, run_pipeline, PipelineOptions};
use multival::models::xmas::gen::SplitMix64;
use multival::models::xmas::{compile_network, generate, render_lot, GenConfig, RenderOptions};
use multival_integration::sha256_hex;
use multival_svc::sweep::{run_explore_space, SweepOptions, SweepSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The verbs the end-to-end metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Explore,
    Check,
    Minimize,
    Reduce,
    Solve,
    Bounds,
    Simulate,
    Sweep,
}

pub const VERBS: [Verb; 8] = [
    Verb::Explore,
    Verb::Check,
    Verb::Minimize,
    Verb::Reduce,
    Verb::Solve,
    Verb::Bounds,
    Verb::Simulate,
    Verb::Sweep,
];

impl Verb {
    /// The end-to-end metric that times one pass over this verb's jobs.
    pub fn metric(self) -> &'static str {
        match self {
            Verb::Explore => "explore_ms",
            Verb::Check => "check_ms",
            Verb::Minimize => "minimize_ms",
            Verb::Reduce => "reduce_ms",
            Verb::Solve => "solve_ms",
            Verb::Bounds => "bounds_ms",
            Verb::Simulate => "simulate_ms",
            Verb::Sweep => "sweep_ms",
        }
    }

    /// Verbs of the functional-verification half (the `verify` workload).
    pub fn is_functional(self) -> bool {
        matches!(self, Verb::Explore | Verb::Check | Verb::Minimize | Verb::Reduce)
    }
}

/// One check of a job's output.
#[derive(Debug, Clone)]
pub enum Check {
    /// SHA-256 of the normalized stdout (plus the written file) must equal
    /// the digest pinned under the job's name.
    Pinned,
    /// SHA-256 of the written output file.
    FileSha(String),
    /// stdout has a line that is this text or starts with it and a space.
    Line(String),
    /// stdout equals this text.
    Text(String),
    /// The `[min, max]` row of `measure` matches these endpoints to 1e-4.
    Interval { measure: String, min: f64, max: f64 },
}

/// One job of a workload's list.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: String,
    pub verb: Verb,
    pub cmd: Command,
    /// File the job writes, checked after each run.
    pub out_file: Option<PathBuf>,
    pub checks: Vec<Check>,
    /// Back-to-back runs per pass (tiny jobs run several times so a pass
    /// spends enough time in them to be timed steadily).
    pub reps: usize,
}

/// What one run of a job produced.
pub struct RunOutput {
    pub stdout: String,
    pub status: CmdStatus,
}

/// Repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark dir has a parent").to_owned()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn data(name: &str) -> PathBuf {
    repo_root().join("tests/data").join(name)
}

fn example(name: &str) -> String {
    repo_root().join("examples").join(name).display().to_string()
}

/// First line of a committed `.sha256` golden.
fn golden_sha(name: &str) -> String {
    read(&data(name)).trim().to_owned()
}

const DEADLOCK_FREE: &str = "nu X. <true> true and [true] X";

/// Rates of the xSTream pipeline's four stages (the golden measures use
/// the default pipeline configuration).
const XSTREAM_RATES: [&str; 8] =
    ["--rate", "push=1", "--rate", "xfer=4", "--rate", "pop=2", "--rate", "credit=8"];

/// Rates of the FAME2 contended fabric the committed bounds golden uses.
const FABRIC_RATES: [&str; 8] =
    ["--rate", "issue=200", "--rate", "flush=20", "--rate", "mem=5", "--rate", "consume=100"];

const PING_PONG_RATES: [&str; 16] = [
    "--rate", "RD=2", "--rate", "WR=2", "--rate", "GRANT=5", "--rate", "MEM=1", "--rate", "POLL=3",
    "--rate", "FLUSH=4", "--rate", "INV=6", "--rate", "UPG=6",
];

/// The sweep spec of the `evaluate` workload: delay style × push capacity
/// × scheduler over the xSTream pipeline.
pub const EVALUATE_SWEEP: &str = "\
name = \"bench_evaluate\"
model = \"xstream_pipeline\"

[axes]
delay = [\"erlang:4\", \"erlang:16\", \"det:0.2\"]
push_capacity = [4, 8]
scheduler = [\"uniform\", \"max\"]
";

/// Builds jobs; `dir` is the run's scratch directory for inputs/outputs.
pub struct JobBuilder<'a> {
    dir: &'a Path,
    jobs: Vec<Job>,
}

impl<'a> JobBuilder<'a> {
    pub fn new(dir: &'a Path) -> Self {
        JobBuilder { dir, jobs: Vec::new() }
    }

    fn input(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    fn out(&self, name: &str) -> PathBuf {
        self.dir.join("out").join(name)
    }

    fn push(&mut self, name: &str, verb: Verb, args: Vec<String>, checks: Vec<Check>) -> &mut Job {
        let cmd = parse_args(&args).unwrap_or_else(|e| panic!("job {name}: {e}"));
        let out_file = args
            .iter()
            .position(|a| a == "--aut" || a == "--blts")
            .map(|i| PathBuf::from(&args[i + 1]));
        self.jobs.push(Job { name: name.to_owned(), verb, cmd, out_file, checks, reps: 1 });
        self.jobs.last_mut().expect("just pushed")
    }

    fn cli(&mut self, name: &str, verb: Verb, args: &[&str], checks: Vec<Check>) -> &mut Job {
        let args = args.iter().map(|s| (*s).to_owned()).collect();
        self.push(name, verb, args, checks)
    }

    fn sweep(&mut self, name: &str, spec: &str, checks: Vec<Check>) -> &mut Job {
        self.cli(name, Verb::Sweep, &["explore-space", spec, "--workers", "2"], checks)
    }

    pub fn finish(self) -> Vec<Job> {
        self.jobs
    }
}

/// `check INPUT FORMULA --rate ...` (performance mode), with
/// `--scheduler bounds` when `bounds` is set.
fn check_rate(input: &str, formula: &str, rates: &[&str], bounds: bool) -> Vec<String> {
    let scheduler: &[&str] = if bounds { &["--scheduler", "bounds"] } else { &[] };
    ["check", input, formula]
        .iter()
        .chain(rates)
        .chain(scheduler)
        .map(|s| (*s).to_owned())
        .collect()
}

/// Writes the generated model and spec files of a run into `dir`.
pub fn write_inputs(dir: &Path) {
    use multival::models::faust::{noc, router};
    std::fs::create_dir_all(dir.join("out")).expect("create run directory");
    let files = [
        ("router4.lot", router::router_source(4)),
        ("complement.lot", noc::complement_source()),
        ("mesh2x2_if1.lot", noc::mesh_source(Some(1))),
        ("evaluate_sweep.toml", EVALUATE_SWEEP.to_owned()),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).expect("write generated input");
    }
}

/// Generated xMAS fabrics: `count` fabrics drawn from the benchmark seed,
/// written as `.lot` files, each with the SHA-256 of its canonical reduced
/// LTS computed through the independent builder path (`compile_network`).
pub fn generated_fabrics(dir: &Path, seed: u64, count: usize) -> Vec<(String, String)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let fabric_seed = rng.next_u64() % 1_000_000;
        let fab = generate(fabric_seed, &GenConfig::default());
        let (Ok(net), Ok(lot)) =
            (compile_network(&fab), render_lot(&fab, &RenderOptions::default()))
        else {
            continue;
        };
        // Fabrics whose reduction peaks above the cap are skipped, so the
        // work the seed adds stays small and about the same for every seed.
        let run = run_pipeline(
            &net,
            &PipelineOptions { max_states: Some(FABRIC_PEAK_CAP), ..PipelineOptions::default() },
        );
        if !run.complete() {
            continue;
        }
        let digest = sha256_hex(write_aut(&canonicalize(&run.lts)).as_bytes());
        let path = dir.join(format!("xmas_gen_{fabric_seed}.lot"));
        std::fs::write(&path, lot).expect("write generated fabric");
        out.push((path.display().to_string(), digest));
    }
    out
}

/// Largest intermediate product a generated fabric may reach.
const FABRIC_PEAK_CAP: usize = 300;

/// The committed xMAS fixture seeds (their reduced-LTS digests are goldens).
const FIXTURE_SEEDS: [u64; 8] = [3, 11, 25, 29, 42, 47, 54, 60];

/// `verify`: functional verbs only — exploration, on-the-fly search,
/// μ-calculus checking, minimization and compositional reduction.
pub fn verify_jobs(dir: &Path, fabrics: &[(String, String)], small: bool) -> Vec<Job> {
    let mut b = JobBuilder::new(dir);
    let mesh3 = example("mesh_3x3.lot");
    let (router, complement, mesh_if1) =
        (b.input("router4.lot"), b.input("complement.lot"), b.input("mesh2x2_if1.lot"));
    let out = |b: &JobBuilder, n: &str| b.out(n).display().to_string();
    let pinned = || vec![Check::Pinned];
    if !small {
        let blts = out(&b, "router4.blts");
        b.cli("explore:router4", Verb::Explore, &["explore", &router, "--blts", &blts], pinned());
        let otf = ["check", router.as_str(), DEADLOCK_FREE, "--on-the-fly"];
        b.cli("check-otf:router4", Verb::Check, &otf, pinned());
        let aut = out(&b, "mesh_3x3.aut");
        b.cli("explore:mesh_3x3", Verb::Explore, &["explore", &mesh3, "--aut", &aut], pinned());
        b.cli(
            "explore-otf:mesh_3x3",
            Verb::Explore,
            &["explore", &mesh3, "--on-the-fly"],
            pinned(),
        );
        b.cli("check:mesh_3x3", Verb::Check, &["check", &mesh3, DEADLOCK_FREE], pinned());
        let aut = out(&b, "mesh_3x3.min.aut");
        let min = ["minimize", mesh3.as_str(), "--eq", "branching", "--aut", aut.as_str()];
        b.cli("minimize:mesh_3x3", Verb::Minimize, &min, pinned());
        let stages = read(&data("pipeline_faust_complement.stages.txt"));
        let mut checks = vec![Check::FileSha(golden_sha("pipeline_faust_complement.aut.sha256"))];
        checks.extend(
            stages
                .lines()
                .filter(|l| l.starts_with("peak intermediate states:") || l.starts_with("reduced:"))
                .map(|l| Check::Line(l.to_owned())),
        );
        let aut = out(&b, "complement.aut");
        b.cli("reduce:complement", Verb::Reduce, &["reduce", &complement, "--aut", &aut], checks);
        b.cli("explore:mesh2x2_if1", Verb::Explore, &["explore", &mesh_if1], pinned());
    } else {
        let fab = example("xmas_fab_42.lot");
        b.cli("explore:xmas_fab_42", Verb::Explore, &["explore", &fab], pinned());
        b.cli("check:xmas_fab_42", Verb::Check, &["check", &fab, DEADLOCK_FREE], pinned());
        let min = ["minimize", fab.as_str(), "--eq", "branching"];
        b.cli("minimize:xmas_fab_42", Verb::Minimize, &min, pinned());
    }
    // The jobs so far run twice per pass. The xMAS reductions below
    // (milliseconds each) and the two multi-second jobs run once, so fewer
    // than half of the runs are tiny and the p50 lands among the medium
    // jobs instead of on a seed-dependent generated fabric.
    for job in &mut b.jobs {
        job.reps = 2;
    }
    for seed in FIXTURE_SEEDS {
        let aut = out(&b, &format!("xmas_fab_{seed}.aut"));
        let sha = golden_sha(&format!("xmas_fab_{seed}.aut.sha256"));
        let lot = example(&format!("xmas_fab_{seed}.lot"));
        b.cli(
            &format!("reduce:xmas_fab_{seed}"),
            Verb::Reduce,
            &["reduce", &lot, "--aut", &aut],
            vec![Check::FileSha(sha)],
        );
    }
    for (i, (path, digest)) in fabrics.iter().enumerate() {
        let aut = out(&b, &format!("xmas_gen_{i}.aut"));
        b.cli(
            &format!("reduce:xmas_gen_{i}"),
            Verb::Reduce,
            &["reduce", path, "--aut", &aut],
            vec![Check::FileSha(digest.clone())],
        );
    }
    if !small {
        let flat = ["explore", complement.as_str(), "--store", "arena"];
        b.cli("explore:complement", Verb::Explore, &flat, pinned());
        b.cli("reduce:mesh2x2_if1", Verb::Reduce, &["reduce", &mesh_if1], pinned());
    }
    b.finish()
}

/// Golden checks of the xSTream simulate job: the numerical steady-state
/// column must match the committed measures snapshot.
fn xstream_steady_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    for line in read(&data("xstream_pipeline.measures.txt")).lines() {
        if let Some(rest) = line.strip_prefix("ctmc states: ") {
            checks.push(Check::Line(format!("ctmc states: {rest}")));
        }
        // "state 3: steady 0.176794  mc ..." → table row "3      0.176794 ..."
        if let Some((state, rest)) =
            line.strip_prefix("state ").and_then(|l| l.split_once(": steady "))
        {
            let value = rest.split_whitespace().next().unwrap_or("");
            checks.push(Check::Line(format!("{state:<7}{value}")));
        }
    }
    checks
}

/// The `[min, max]` endpoints of the committed contended-fabric bounds.
fn fabric_bounds_check() -> Check {
    let text = read(&data("bounds_fame2.txt"));
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("rounds/time bounds: "))
        .expect("bounds_fame2.txt has the fabric interval");
    let inner = line.trim().trim_start_matches('[').trim_end_matches(']');
    let (min, max) = inner.split_once(',').expect("interval has two endpoints");
    Check::Interval {
        measure: "throughput(mark)".to_owned(),
        min: min.trim().parse().expect("numeric min"),
        max: max.trim().parse().expect("numeric max"),
    }
}

/// `evaluate`: performance verbs — sweeps with phase-type fitting,
/// `check --rate` (uniform and bounds) and Monte-Carlo simulation. `small`
/// leaves out the sweep that takes seconds.
pub fn evaluate_jobs(dir: &Path, small: bool) -> Vec<Job> {
    let mut b = JobBuilder::new(dir);
    // Enough runs of each tiny job for a steady fastest run. `solve:ping_pong`
    // runs twice as often, so the p50 of a pass (73 runs) falls mid-way
    // through its runs instead of on the border between two jobs' runs.
    let reps = 10;
    let fabric = example("contended_fabric.lot");
    let ping_pong = data("fame2_ping_pong.aut").display().to_string();
    let xstream = data("xstream_pipeline.aut").display().to_string();
    let golden_spec = data("sweep_xstream.toml").display().to_string();
    if !small {
        let spec = b.input("evaluate_sweep.toml");
        b.sweep("sweep:evaluate", &spec, vec![Check::Pinned]);
    }
    let golden = read(&data("sweep_xstream_report.txt"));
    b.sweep("sweep:golden", &golden_spec, vec![Check::Text(golden)]).reps = reps;
    let (pp_latency, mark) = ("latency(95) <= 100", "throughput(mark) >= 1");
    let args = check_rate(&ping_pong, pp_latency, &PING_PONG_RATES, false);
    b.push("solve:ping_pong", Verb::Solve, args, vec![Check::Pinned]).reps = 2 * reps;
    let args = check_rate(&fabric, mark, &FABRIC_RATES, false);
    b.push("solve:contended", Verb::Solve, args, vec![Check::Pinned]).reps = reps;
    let args = check_rate(&fabric, mark, &FABRIC_RATES, true);
    b.push("bounds:contended", Verb::Bounds, args, vec![fabric_bounds_check()]).reps = reps;
    let args = check_rate(&ping_pong, pp_latency, &PING_PONG_RATES, true);
    b.push("bounds:ping_pong", Verb::Bounds, args, vec![Check::Pinned]).reps = reps;
    let args = check_rate(&xstream, "throughput(pop) >= 0.1", &XSTREAM_RATES, true);
    b.push("bounds:xstream", Verb::Bounds, args, vec![Check::Pinned]).reps = reps;
    let mut args = vec!["simulate", xstream.as_str()];
    args.extend(XSTREAM_RATES);
    args.extend(["--trajectories", "65536", "--horizon", "1000", "--time", "2", "--seed", "42"]);
    let mut checks = xstream_steady_checks();
    checks.push(Check::Pinned);
    b.cli("simulate:xstream", Verb::Simulate, &args, checks).reps = 2;
    b.finish()
}

/// Small jobs of every verb: the warm-up of every set-up, and the probe
/// suite that times the verbs a workload's own list does not run, so every
/// verb metric is defined on every workload.
pub fn probe_jobs(dir: &Path) -> Vec<Job> {
    let functional = verify_jobs(dir, &[], true)
        .into_iter()
        .filter(|j| j.verb != Verb::Reduce || j.name == "reduce:xmas_fab_42")
        .map(|mut j| {
            j.reps = if j.verb == Verb::Reduce { 10 } else { 3 };
            j
        });
    functional.chain(evaluate_jobs(dir, true)).collect()
}

/// Runs a job once.
pub fn run_job(job: &Job) -> Result<RunOutput, String> {
    if let Command::ExploreSpace { spec, workers, endpoint, cache_dir, max_states } = &job.cmd {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        let spec = SweepSpec::parse(&text)?;
        let options = SweepOptions {
            workers: *workers,
            endpoint: endpoint.clone(),
            cache_dir: cache_dir.as_ref().map(PathBuf::from),
            max_states: *max_states,
        };
        let run = run_explore_space(&spec, &options)?;
        return Ok(RunOutput { stdout: run.report().render(), status: run.status });
    }
    let out = execute(&job.cmd).map_err(|e| e.to_string())?;
    Ok(RunOutput { stdout: out.text, status: out.status })
}

/// A verb's stdout without the lines that carry wall-clock readings or the
/// run's scratch paths, and without table alignment (column widths follow
/// the widest cell, which includes those readings).
fn normalized(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !["wall-clock", "trajectories/sec", "wrote "].iter().any(|p| l.starts_with(p)))
        .filter(|l| !l.chars().all(|c| c == '-'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ") + "\n")
        .collect()
}

/// The digest a `Pinned` check compares: normalized stdout plus the bytes
/// of the written file, if any.
pub fn output_digest(job: &Job, stdout: &str) -> String {
    let mut bytes = normalized(stdout).into_bytes();
    if let Some(path) = &job.out_file {
        bytes.extend(std::fs::read(path).unwrap_or_default());
    }
    sha256_hex(&bytes)
}

/// Pinned digests, one `name digest` pair per line.
pub fn parse_pinned(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' ').map(|(n, d)| (n.to_owned(), d.trim().to_owned())))
        .collect()
}

/// Checks one run of a job; `Err` names the first failed check.
pub fn gate(
    job: &Job,
    result: &Result<RunOutput, String>,
    pinned: &BTreeMap<String, String>,
) -> Result<(), String> {
    let out = result.as_ref().map_err(|e| format!("{}: error: {e}", job.name))?;
    if out.status != CmdStatus::Ok {
        return Err(format!("{}: exit code {}", job.name, out.status.exit_code()));
    }
    for check in &job.checks {
        let ok = match check {
            Check::Pinned => {
                let got = output_digest(job, &out.stdout);
                match pinned.get(&job.name) {
                    Some(want) if *want == got => true,
                    want => {
                        return Err(format!(
                            "{}: digest {got} does not match pinned {}",
                            job.name,
                            want.map_or("(none)", String::as_str)
                        ))
                    }
                }
            }
            Check::FileSha(want) => {
                let path = job.out_file.as_ref().expect("FileSha jobs write a file");
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", job.name))?;
                sha256_hex(&bytes) == *want
            }
            Check::Line(line) => out.stdout.lines().any(|l| {
                l.strip_prefix(line.as_str())
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
            }),
            Check::Text(text) => out.stdout == *text,
            Check::Interval { measure, min, max } => out.stdout.lines().any(|l| {
                let t: Vec<&str> = l.split_whitespace().collect();
                let num = |i: usize| t.get(i).and_then(|s| s.parse::<f64>().ok());
                t.first() == Some(&measure.as_str())
                    && num(1).is_some_and(|v| (v - min).abs() < 1e-4)
                    && num(2).is_some_and(|v| (v - max).abs() < 1e-4)
            }),
        };
        if !ok {
            return Err(format!("{}: check failed: {check:?}", job.name));
        }
    }
    Ok(())
}

/// Timings and failures of one pass.
pub struct PassResult {
    /// Seconds of every run of each job, in job-list order.
    pub job_secs: Vec<Vec<f64>>,
    /// Wall time of every single job run, in seconds.
    pub latencies: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Removes the file a job writes, so the gate after its next run checks
/// bytes that run wrote and not a file an earlier run left.
pub fn clear_output(job: &Job) {
    if let Some(path) = &job.out_file {
        let _ = std::fs::remove_file(path);
    }
}

/// Runs every job of the list `reps` times, round-robin so the repetitions
/// of a job spread over the pass, timing each run and gating its output
/// outside the timed region.
pub fn run_pass(jobs: &[Job], pinned: &BTreeMap<String, String>) -> PassResult {
    let mut pass = PassResult {
        job_secs: vec![Vec::new(); jobs.len()],
        latencies: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let rounds = jobs.iter().map(|j| j.reps.max(1)).max().unwrap_or(0);
    for round in 0..rounds {
        for (job, t) in jobs.iter().zip(&mut pass.job_secs) {
            if round >= job.reps.max(1) {
                continue;
            }
            clear_output(job);
            let start = Instant::now();
            let result = run_job(job);
            let secs = start.elapsed().as_secs_f64();
            t.push(secs);
            pass.latencies.push(secs);
            pass.attempted += 1;
            if let Err(e) = gate(job, &result, pinned) {
                pass.failures.push(e);
            }
        }
    }
    pass
}
