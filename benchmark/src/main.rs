//! The multival benchmark: one command per workload, end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload verify|evaluate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it carry the host fingerprint,
//! the seed, the sample counts and (traced runs) the per-layer table. Any
//! failed job, wrong output or rejected request makes the exit code 1.
//! `NOTES.md` next to this file explains the workloads and metrics.

mod jobs;
mod replay;
mod serve;
mod trace;

use jobs::{repo_root, Job, Verb, VERBS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Seed reserved for re-checking claims: never use it while tuning a change.
const HELD_OUT_SEED: u64 = 20_081_003;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Passes over the small per-verb probe suite.
const PROBE_PASSES: usize = 5;
/// Timed passes of an untraced `verify`/`evaluate` run, at least: every
/// job, the multi-second ones included, then has two runs to take the
/// fastest of.
const MIN_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke-test size: tiny job lists and a single set-up.
    tiny: bool,
    /// Replaces the committed pinned digests.
    pinned: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        pinned: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--pinned" => args.pinned = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["verify", "evaluate", "serve"].contains(&args.workload.as_str()) {
        return Err("--workload must be verify, evaluate or serve".to_owned());
    }
    Ok(args)
}

/// A reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Default)]
struct Outcome {
    setup_secs: Vec<f64>,
    metrics: Vec<Metric>,
    attempted: usize,
    failures: Vec<String>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_owned(), |k| k.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\" git={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"])
    )
}

/// Whether another pass fits in the measured time: at least `min_passes`
/// passes, and no pass beyond them that would end past `seconds` at the
/// mean pass length so far.
fn more_passes(start: Instant, passes: usize, min_passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    passes < min_passes.max(1) || elapsed + elapsed / passes as f64 <= seconds
}

/// The verb metrics of a job list, in ms: for each verb, the sum over its
/// jobs of the job's fastest run in the whole run. The reference host
/// alternates between a fast and a slow speed phase; a job's fastest run
/// moves much less from run to run than its median (see `NOTES.md`).
/// Records each job's run count, fastest and median run in `notes` and
/// returns each job's fastest run.
fn verb_times(
    job_list: &[Job],
    passes: &[jobs::PassResult],
    verbs: &[Verb],
    out: &mut BTreeMap<Verb, f64>,
    notes: &mut Vec<String>,
) -> Vec<f64> {
    let mut fastest_runs = Vec::new();
    for (i, job) in job_list.iter().enumerate() {
        let runs: Vec<f64> =
            passes.iter().flat_map(|p| p.job_secs[i].iter().map(|s| s * 1e3)).collect();
        let fastest = runs.iter().copied().fold(f64::INFINITY, f64::min);
        notes.push(format!(
            "job {}: {} runs, fastest {fastest:.3} ms, median {:.3} ms",
            job.name,
            runs.len(),
            median(&runs)
        ));
        if verbs.contains(&job.verb) {
            *out.entry(job.verb).or_insert(0.0) += fastest;
        }
        fastest_runs.push(fastest);
    }
    fastest_runs
}

/// The small probe suite for the verbs a workload's own list lacks.
struct Probes {
    jobs: Vec<Job>,
    missing: Vec<Verb>,
    passes: Vec<jobs::PassResult>,
}

impl Probes {
    fn new(dir: &std::path::Path, main_verbs: &[Verb]) -> Probes {
        let missing: Vec<Verb> =
            VERBS.iter().copied().filter(|v| !main_verbs.contains(v)).collect();
        let jobs =
            jobs::probe_jobs(dir).into_iter().filter(|j| missing.contains(&j.verb)).collect();
        Probes { jobs, missing, passes: Vec::new() }
    }

    fn pass(&mut self, pinned: &BTreeMap<String, String>) {
        self.passes.push(jobs::run_pass(&self.jobs, pinned));
    }

    /// Tops the passes up to `PROBE_PASSES` and records the missing verbs'
    /// medians.
    fn finish(
        mut self,
        pinned: &BTreeMap<String, String>,
        o: &mut Outcome,
        verbs: &mut BTreeMap<Verb, f64>,
    ) {
        while self.passes.len() < PROBE_PASSES {
            self.pass(pinned);
        }
        for p in &self.passes {
            o.attempted += p.attempted;
            o.failures.extend(p.failures.iter().cloned());
        }
        verb_times(&self.jobs, &self.passes, &self.missing, verbs, &mut o.notes);
        o.notes.push(format!(
            "probe suite: {} jobs x {} passes for {:?}",
            self.jobs.len(),
            self.passes.len(),
            self.missing
        ));
    }
}

fn push_verb_metrics(o: &mut Outcome, verbs: &BTreeMap<Verb, f64>) {
    for verb in VERBS {
        o.metric(verb.metric(), verbs[&verb], "ms");
    }
}

/// `verify` and `evaluate`: job lists through the CLI entry points.
fn run_job_workload(
    args: &Args,
    work: &std::path::Path,
    pinned: &BTreeMap<String, String>,
    o: &mut Outcome,
) {
    let verify = args.workload == "verify";
    let repeats = if args.tiny { 1 } else { SETUP_REPEATS };
    let mut job_list = Vec::new();
    let mut dir = PathBuf::new();
    for i in 0..repeats {
        let start = Instant::now();
        dir = work.join(format!("setup{i}"));
        jobs::write_inputs(&dir);
        job_list = if verify {
            let fabrics = jobs::generated_fabrics(&dir, args.seed, if args.tiny { 1 } else { 4 });
            jobs::verify_jobs(&dir, &fabrics, args.tiny)
        } else {
            jobs::evaluate_jobs(&dir, args.tiny)
        };
        let warm = jobs::run_pass(&jobs::probe_jobs(&dir), pinned);
        o.setup_secs.push(start.elapsed().as_secs_f64());
        o.attempted += warm.attempted;
        o.failures.extend(warm.failures);
        if i + 1 < repeats {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let main_verbs: Vec<Verb> =
        VERBS.iter().copied().filter(|v| v.is_functional() == verify).collect();
    let start = Instant::now();
    if args.trace {
        run_traced(args, &job_list, pinned, o, start);
        return;
    }
    // Probe passes interleave with the main passes, outside their timing.
    let mut probes = Probes::new(&dir, &main_verbs);
    let mut passes = Vec::new();
    let mut secs = 0.0;
    while more_passes(start, passes.len(), MIN_PASSES, args.seconds) {
        let begin = Instant::now();
        passes.push(jobs::run_pass(&job_list, pinned));
        secs += begin.elapsed().as_secs_f64();
        probes.pass(pinned);
    }
    let latencies: Vec<f64> =
        passes.iter().flat_map(|p| p.latencies.iter().map(|s| s * 1e3)).collect();
    for p in &passes {
        o.attempted += p.attempted;
        o.failures.extend(p.failures.iter().cloned());
    }
    let mut verbs = BTreeMap::new();
    let fastest = verb_times(&job_list, &passes, &main_verbs, &mut verbs, &mut o.notes);
    probes.finish(pinned, o, &mut verbs);
    // The latency percentiles are those of one pass's runs (each job `reps`
    // times), every run at its job's fastest time, for the same reason as
    // the verb metrics: the whole run's percentile of sub-millisecond jobs
    // swung by 1.5× with the host's speed phase.
    let pass_runs: Vec<f64> = job_list
        .iter()
        .zip(&fastest)
        .flat_map(|(job, &ms)| std::iter::repeat_n(ms, job.reps.max(1)))
        .collect();
    o.notes.push(format!(
        "samples: {} passes over {} jobs, {} job runs; percentiles over the {} runs of a pass \
         (the p99 has {} samples beyond it); whole-run p50 {:.4} ms",
        passes.len(),
        job_list.len(),
        latencies.len(),
        pass_runs.len(),
        pass_runs.len() / 100,
        percentile(&latencies, 50.0)
    ));
    o.metric("jobs_per_s", latencies.len() as f64 / secs, "1/s");
    o.metric("latency_p50_ms", percentile(&pass_runs, 50.0), "ms");
    o.metric("latency_p99_ms", percentile(&pass_runs, 99.0), "ms");
    push_verb_metrics(o, &verbs);
}

/// The traced run of `verify`/`evaluate`: every job run once untraced (the
/// verb wall time) and then replayed as spanned layer calls; `reps` are not
/// repeated, so per-layer figures are per pass of one run per job.
fn run_traced(
    args: &Args,
    job_list: &[Job],
    pinned: &BTreeMap<String, String>,
    o: &mut Outcome,
    start: Instant,
) {
    let mut t = Tracer::new();
    let mut passes = 0usize;
    let (mut untraced_s, mut traced_s, mut cli_self_us) = (0.0, 0.0, 0.0);
    while more_passes(start, passes, 1, args.seconds) {
        let mut r = replay::Replay::default();
        for (id, job) in job_list.iter().enumerate() {
            t.set_job(id as u32);
            jobs::clear_output(job);
            let begin = Instant::now();
            let result = jobs::run_job(job);
            let exec = begin.elapsed().as_secs_f64();
            o.attempted += 1;
            if let Err(e) = jobs::gate(job, &result, pinned) {
                o.failures.push(e);
            }
            let begin = Instant::now();
            match r.job(&mut t, job) {
                Ok(children_us) => cli_self_us += (exec * 1e6 - children_us).max(0.0),
                Err(e) => o.failures.push(format!("{}: replay: {e}", job.name)),
            }
            traced_s += begin.elapsed().as_secs_f64();
            untraced_s += exec;
        }
        passes += 1;
    }
    t.add("core.cli.self_us", cli_self_us);
    t.add("trace.traced_s", traced_s);
    t.add("trace.untraced_s", untraced_s);
    o.notes.push(format!("traced samples: {passes} passes over {} jobs", job_list.len()));
    layer_metrics(&t, passes as f64, o);
    write_trace(args, &t);
}

/// `serve`: live server, two closed-loop clients, bodies checked against
/// in-process evaluation.
fn run_serve(
    args: &Args,
    work: &std::path::Path,
    pinned: &BTreeMap<String, String>,
    o: &mut Outcome,
) {
    let repeats = if args.tiny { 1 } else { SETUP_REPEATS };
    let mut setup = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let s = serve::setup(args.seed);
        o.setup_secs.push(start.elapsed().as_secs_f64());
        o.attempted += s.pool.len();
        o.failures.extend(s.failures.iter().cloned());
        if let Some(previous) = setup.replace(s) {
            let previous: serve::Setup = previous;
            let _ = previous.handle.shutdown_and_drain();
        }
    }
    let setup = setup.expect("at least one set-up");
    // Probe passes bracket the load (none run during it), so their samples
    // spread over the run.
    let dir = work.join("probe");
    jobs::write_inputs(&dir);
    let mut probes = Probes::new(&dir, &[]);
    if !args.trace {
        for _ in 0..PROBE_PASSES / 2 {
            probes.pass(pinned);
        }
    }
    let run = serve::load(&setup, args.seconds);
    let svc = serve::metrics(&setup);
    setup.handle.request_shutdown();
    let svc = svc.unwrap_or_else(|e| {
        o.failures.push(format!("metrics: {e}"));
        serve::SvcMetrics { hit_ratio: 0.0, coalesced: 0.0, rejected: 0.0, failed: 0.0 }
    });
    o.attempted += run.samples.len();
    let mut t = Tracer::new();
    let replay_start = Instant::now();
    let (failures, fresh_eval_s) =
        serve::verify_samples(&run.samples, &setup, args.trace.then_some(&mut t));
    let _ = setup.handle.shutdown_and_drain();
    o.notes.push(format!("in-process body check: {:.1} s", replay_start.elapsed().as_secs_f64()));
    o.failures.extend(failures);
    if svc.rejected > 0.0 || svc.failed > 0.0 {
        o.failures
            .push(format!("service rejected {} and failed {} jobs", svc.rejected, svc.failed));
    }
    let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency * 1e3).collect();
    let cold: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| !s.cached && matches!(s.req, serve::Req::Fresh(_)))
        .map(|s| s.latency)
        .collect();
    let rtt: Vec<f64> = run.samples.iter().filter(|s| s.cached).map(|s| s.post_rtt * 1e3).collect();
    o.notes.push(format!(
        "samples: {} requests in {:.1} s ({} cache reads, {} fresh); p99 has {} samples beyond \
         it; whole-run p50 {:.4} ms; cache hit ratio {:.3}, {} coalesced",
        latencies.len(),
        run.secs,
        rtt.len(),
        run.samples.iter().filter(|s| matches!(s.req, serve::Req::Fresh(_))).count(),
        latencies.len() / 100,
        percentile(&latencies, 50.0),
        svc.hit_ratio,
        svc.coalesced
    ));
    if args.trace {
        let mean =
            |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
        t.add("svc.job.wait_ms", ((mean(&cold) - fresh_eval_s) * 1e3).max(0.0));
        t.add("svc.http.rtt_ms", mean(&rtt));
        t.add("svc.cache.hit_ratio", svc.hit_ratio);
        t.add("svc.job.coalesced", svc.coalesced);
        t.add("svc.job.rejected", svc.rejected);
        t.add("svc.job.failed", svc.failed);
        layer_metrics(&t, 1.0, o);
        write_trace(args, &t);
        return;
    }
    let mut verbs = BTreeMap::new();
    probes.finish(pinned, o, &mut verbs);
    o.metric("jobs_per_s", run.samples.len() as f64 / run.secs, "1/s");
    o.metric("latency_p50_ms", serve::fastest_window_p50_ms(&run), "ms");
    o.metric("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    push_verb_metrics(o, &verbs);
}

/// The per-layer metrics of a traced run, per pass.
fn layer_metrics(t: &Tracer, passes: f64, o: &mut Outcome) {
    let table = t.self_times();
    let ms = |name: &str| table.get(name).map_or(0.0, |e| e.0) / passes;
    let sum = |key: &str| t.sum_of(key) / passes;
    let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };
    let total: f64 = table.values().map(|e| e.0).sum::<f64>().max(1e-9);
    o.notes.push("per-layer self time (ms per pass) and calls per pass:".to_owned());
    for (name, (self_ms, calls)) in &table {
        o.notes.push(format!(
            "  {name:<22} {:>12.3} ms {:>8.1} calls {:>6.1}%",
            self_ms / passes,
            *calls as f64 / passes,
            100.0 * self_ms / total
        ));
    }
    let states = sum("pa.explore.states");
    let mc_s = ms("ctmc.mc") / 1e3;
    let serve_requests = t.sum_of("svc.request.count").max(1.0);
    let rows: [(&'static str, f64, &'static str); 38] = [
        ("pa.parse.ms", ms("pa.parse"), "ms"),
        ("pa.explore.ms", ms("pa.explore"), "ms"),
        ("pa.explore.states", states, "count"),
        ("pa.explore.transitions", sum("pa.explore.transitions"), "count"),
        ("pa.explore.us_per_state", ratio(ms("pa.explore") * 1e3, states, 0.0), "us"),
        ("pa.extract_network.ms", ms("pa.extract_network"), "ms"),
        ("lts.store.resident_bytes", t.max_of("lts.store.resident_bytes"), "bytes"),
        ("lts.minimize.ms", ms("lts.minimize"), "ms"),
        (
            "lts.minimize.ratio",
            ratio(t.sum_of("lts.minimize.out"), t.sum_of("lts.minimize.in"), 1.0),
            "ratio",
        ),
        ("lts.pipeline.ms", ms("lts.pipeline"), "ms"),
        ("lts.pipeline.peak_states", t.max_of("lts.pipeline.peak_states"), "count"),
        ("lts.pipeline.peak_over_flat", t.max_of("lts.pipeline.peak_over_flat"), "ratio"),
        ("lts.io.ms", ms("lts.io"), "ms"),
        ("lts.io.bytes", sum("lts.io.bytes"), "bytes"),
        ("mcl.check.ms", ms("mcl.check"), "ms"),
        (
            "mcl.onthefly.visited_ratio",
            ratio(t.sum_of("mcl.onthefly.visited"), t.sum_of("mcl.onthefly.flat"), 0.0),
            "ratio",
        ),
        ("ctmc.phfit.ms", ms("ctmc.phfit"), "ms"),
        ("ctmc.phfit.k", t.max_of("ctmc.phfit.k"), "count"),
        ("imc.decorate.ms", ms("imc.decorate"), "ms"),
        ("imc.decorate.states", sum("imc.decorate.states"), "count"),
        ("imc.to_ctmc.ms", ms("imc.to_ctmc"), "ms"),
        ("imc.to_ctmc.ctmc_states", sum("imc.to_ctmc.ctmc_states"), "count"),
        ("ctmc.steady.ms", ms("ctmc.steady"), "ms"),
        ("ctmc.transient.ms", ms("ctmc.transient"), "ms"),
        ("ctmc.mdp.ms", ms("ctmc.mdp"), "ms"),
        ("ctmc.mc.ms", ms("ctmc.mc"), "ms"),
        ("ctmc.mc.trajectories_per_s", ratio(sum("ctmc.mc.trajectories"), mc_s, 0.0), "1/s"),
        ("svc.sweep.expand_ms", ms("svc.sweep.expand"), "ms"),
        ("svc.request.evaluate_ms", ms("svc.request.evaluate") * passes / serve_requests, "ms"),
        ("svc.job.wait_ms", t.sum_of("svc.job.wait_ms"), "ms"),
        ("svc.http.rtt_ms", t.sum_of("svc.http.rtt_ms"), "ms"),
        ("svc.json.ms", ms("svc.json") * passes / serve_requests, "ms"),
        ("svc.cache.hit_ratio", t.sum_of("svc.cache.hit_ratio"), "ratio"),
        ("svc.job.coalesced", t.sum_of("svc.job.coalesced"), "count"),
        ("svc.job.rejected", t.sum_of("svc.job.rejected"), "count"),
        ("svc.job.failed", t.sum_of("svc.job.failed"), "count"),
        ("core.cli.self_ms", sum("core.cli.self_us") / 1e3, "ms"),
        (
            "trace.overhead_ratio",
            ratio(t.sum_of("trace.traced_s"), t.sum_of("trace.untraced_s"), 1.0),
            "ratio",
        ),
    ];
    for (name, value, unit) in rows {
        o.metric(name, value, unit);
    }
}

/// Writes the spans as JSON lines under `.bench_work/traces/`.
fn write_trace(args: &Args, t: &Tracer) {
    let dir = repo_root().join(".bench_work").join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_jsonl())).is_ok() {
        println!("# spans written to {}", path.display());
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned_text = match &args.pinned {
        Some(path) => std::fs::read_to_string(path).unwrap_or_default(),
        None => include_str!("../pinned.txt").to_owned(),
    };
    let pinned = jobs::parse_pinned(&pinned_text);
    println!("# host {}", host_fingerprint());
    println!(
        "# workload {} seed {} (held-out seed for claims: {HELD_OUT_SEED}) seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let work =
        repo_root().join(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let mut o = Outcome::default();
    if args.workload == "serve" {
        run_serve(&args, &work, &pinned, &mut o);
    } else {
        run_job_workload(&args, &work, &pinned, &mut o);
    }
    let _ = std::fs::remove_dir_all(&work);
    if !args.trace {
        let setup = median(&o.setup_secs);
        o.metrics.insert(0, Metric { name: "setup_s", value: setup, unit: "s" });
        o.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let failed = o.failures.len();
    o.notes.push(format!(
        "setup runs (s): {:?}; attempted {} failed {} failed_ratio {:.4}",
        o.setup_secs.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        o.attempted,
        failed,
        failed as f64 / o.attempted.max(1) as f64
    ));
    for note in &o.notes {
        println!("# {note}");
    }
    let distinct: std::collections::BTreeSet<&String> = o.failures.iter().collect();
    for f in distinct.iter().take(40) {
        println!("# FAILED {f}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        o.attempted.max(1),
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
