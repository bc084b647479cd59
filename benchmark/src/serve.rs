//! The `serve` workload: a live `multival_svc::server::serve` on loopback,
//! driven by two closed-loop clients over a seeded request mix.
//!
//! About three requests in four repeat a request from a seeded pool whose
//! results the warm-up put in the cache (cache reads); the rest are fresh
//! (a new simulate seed or new rates), so each is an evaluation plus a
//! cache write. Every eighth round both clients send the same fresh request
//! at once, which exercises in-flight coalescing. Every response body must
//! equal the in-process `JobRequest::evaluate` body of the same request.

use crate::jobs::repo_root;
use crate::trace::Tracer;
use multival::models::xmas::gen::SplitMix64;
use multival::par::Workers;
use multival_svc::json::{parse, Json};
use multival_svc::server::{serve, ServerConfig, ServerHandle};
use multival_svc::JobRequest;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Load-generating clients (the host has two cores).
const CLIENTS: usize = 2;
/// Every `PAIRED`-th round both clients send one shared fresh request.
const PAIRED: u64 = 8;
/// Fresh-request numbers of the shared requests start here; the clients'
/// own fresh requests are numbered `2 * round + client` below it.
const PAIRED_BASE: u64 = 500_000;

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn rates(pairs: &[(&str, f64)]) -> Json {
    obj(pairs.iter().map(|&(g, r)| (g, Json::num(r))).collect())
}

fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(*s)).collect())
}

fn builtin(name: &str) -> Json {
    obj(vec![("builtin", Json::str(name))])
}

fn source(text: String) -> Json {
    obj(vec![("source", Json::str(text))])
}

fn example(name: &str) -> String {
    let path = repo_root().join("examples").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// A rate in [1, 4] with two decimals, drawn from `rng`.
fn draw_rate(rng: &mut SplitMix64) -> f64 {
    1.0 + rng.below(301) as f64 / 100.0
}

fn xstream_rates(xfer: f64) -> Json {
    rates(&[("credit", 8.0), ("pop", 2.0), ("push", 1.0), ("xfer", xfer)])
}

/// The repeat pool: two seeded variants of each of the eight job kinds on
/// small models (built-ins, inline mini-LOTOS, small xMAS sources).
pub fn pool(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x005E_ED0F_5E7E);
    let fabric = example("contended_fabric.lot");
    let mut out = Vec::new();
    for variant in 0..2u64 {
        let xfer = draw_rate(&mut rng);
        let reduce_src =
            if variant == 0 { example("xmas_fab_3.lot") } else { example("reduce_chain.lot") };
        let explore_model = if variant == 0 {
            builtin("fame2_ping_pong")
        } else {
            source(example("xmas_fab_54.lot"))
        };
        let reqs = [
            obj(vec![("kind", Json::str("explore")), ("model", explore_model)]),
            obj(vec![
                ("kind", Json::str("check")),
                ("model", builtin("xstream_pipeline")),
                (
                    "formula",
                    Json::str(if variant == 0 {
                        "nu X. <true> true and [true] X"
                    } else {
                        "<true> true"
                    }),
                ),
            ]),
            obj(vec![
                ("kind", Json::str("steady")),
                ("model", builtin("xstream_pipeline")),
                ("rates", xstream_rates(xfer)),
                ("probes", strs(&["pop"])),
            ]),
            obj(vec![
                ("kind", Json::str("transient")),
                ("model", builtin("xstream_pipeline")),
                ("rates", xstream_rates(xfer)),
                ("time", Json::num(1.0 + variant as f64)),
            ]),
            obj(vec![
                ("kind", Json::str("simulate")),
                ("model", builtin("xstream_pipeline")),
                ("rates", xstream_rates(xfer)),
                ("trajectories", Json::num(512.0)),
                ("seed", Json::num(rng.below(1 << 20) as f64)),
            ]),
            obj(vec![
                ("kind", Json::str("bounds")),
                ("model", source(fabric.clone())),
                (
                    "rates",
                    rates(&[
                        ("consume", 100.0),
                        ("flush", 20.0),
                        ("issue", 200.0),
                        ("mem", draw_rate(&mut rng)),
                    ]),
                ),
                ("probes", strs(&["mark"])),
            ]),
            obj(vec![("kind", Json::str("reduce")), ("model", source(reduce_src))]),
            obj(vec![
                ("kind", Json::str("sweep")),
                ("model", builtin("xstream_pipeline")),
                (
                    "sweep",
                    obj(vec![
                        ("push_capacity", Json::num(1.0 + variant as f64)),
                        ("delay", Json::str("erlang:2")),
                        ("transfer_rate", Json::num(xfer)),
                    ]),
                ),
            ]),
        ];
        out.extend(reqs.iter().map(Json::to_string));
    }
    out
}

/// Fresh request number `n` of the run: never seen before, alternating a
/// new simulate seed and new steady rates (kept in a moderate range, so
/// every fresh request costs about the same).
fn fresh(seed: u64, n: u64) -> String {
    let req = if n.is_multiple_of(2) {
        obj(vec![
            ("kind", Json::str("simulate")),
            ("model", builtin("xstream_pipeline")),
            ("rates", xstream_rates(4.0)),
            ("trajectories", Json::num(128.0)),
            ("horizon", Json::num(20.0)),
            ("seed", Json::num(((seed.wrapping_mul(1_000_003) ^ n) % (1 << 40)) as f64)),
        ])
    } else {
        obj(vec![
            ("kind", Json::str("steady")),
            ("model", builtin("xstream_pipeline")),
            ("rates", xstream_rates(2.0 + (seed % 1000) as f64 / 1000.0 + n as f64 * 1e-6)),
            ("probes", strs(&["pop"])),
        ])
    };
    req.to_string()
}

/// The body `GET /v1/jobs/{id}` must return for `request`.
pub fn expected_body(request: &str) -> Result<String, String> {
    let parsed = JobRequest::from_json_text(request)?;
    let result = parsed.evaluate(Workers::new(1))?;
    Ok(format!("{{\"result\":{result},\"status\":\"done\"}}"))
}

/// One blocking HTTP/1.1 exchange on a fresh connection (the server
/// answers one request per connection).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read: {e}"))?;
    let status =
        raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or("bad status line")?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((status, body))
}

/// Which request a sample sent: a pool entry or fresh request number `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    Pool(usize),
    Fresh(u64),
}

/// 64-bit digest of a response body (samples keep digests, not bodies, so
/// the benchmark's own memory does not grow with throughput).
fn digest(body: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One request's outcome as its client saw it.
pub struct Sample {
    pub req: Req,
    /// Digest of the final body, or what went wrong.
    pub body: Result<u64, String>,
    pub latency: f64,
    /// When the POST was sent.
    pub sent: Instant,
    /// The POST answered `done` at once: a cache read.
    pub cached: bool,
    /// POST round trip.
    pub post_rtt: f64,
}

/// Pause between polls of an unfinished job: the poll policy of
/// `explore-space --endpoint`, the in-repo client of the service.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Submits `request`, then polls it to a terminal state the way
/// `explore-space --endpoint` does: `GET /v1/jobs/{id}` until the job is no
/// longer queued or running, sleeping `POLL_INTERVAL` between polls.
fn submit(addr: SocketAddr, request: &str, req: Req) -> Sample {
    let start = Instant::now();
    let mut sample = Sample {
        req,
        body: Err(String::new()),
        latency: 0.0,
        sent: start,
        cached: false,
        post_rtt: 0.0,
    };
    sample.body = (|| {
        let (status, reply) = http(addr, "POST", "/v1/jobs", request)?;
        sample.post_rtt = start.elapsed().as_secs_f64();
        if status != 200 && status != 202 {
            return Err(format!("POST answered {status}: {reply}"));
        }
        sample.cached = status == 200;
        let id = parse(&reply)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_num))
            .ok_or("no job id")?;
        loop {
            let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "")?;
            if status != 200
                || !body.contains("\"status\":\"queued\"")
                    && !body.contains("\"status\":\"running\"")
            {
                return Ok(digest(&body));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    })();
    sample.latency = start.elapsed().as_secs_f64();
    sample
}

/// A started server plus its warmed pool.
pub struct Setup {
    pub handle: ServerHandle,
    pub seed: u64,
    pub pool: Vec<String>,
    /// Digests of the pool's in-process bodies.
    pub pool_digests: Vec<Result<u64, String>>,
    pub failures: Vec<String>,
}

impl Setup {
    fn text(&self, req: Req) -> String {
        match req {
            Req::Pool(i) => self.pool[i].clone(),
            Req::Fresh(n) => fresh(self.seed, n),
        }
    }
}

/// Starts and health-checks the server, computes the pool's expected bodies
/// in-process and submits the pool once (the warm-up that fills the cache).
pub fn setup(seed: u64) -> Setup {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: 64,
        cache_capacity: 1 << 16,
        cache_dir: None,
        mc_workers: 1,
        event_threads: 1,
        journal_dir: None,
        read_deadline: Duration::from_secs(10),
    })
    .expect("serve binds a loopback port");
    let mut failures = Vec::new();
    match http(handle.addr(), "GET", "/v1/healthz", "") {
        Ok((200, _)) => {}
        other => failures.push(format!("healthz: {other:?}")),
    }
    let pool = pool(seed);
    let pool_digests: Vec<_> = pool.iter().map(|r| expected_body(r).map(|b| digest(&b))).collect();
    for (i, req) in pool.iter().enumerate() {
        let s = submit(handle.addr(), req, Req::Pool(i));
        if s.body != pool_digests[i] {
            failures.push(format!("warm-up body mismatch for {req}: {:?}", s.body));
        }
    }
    Setup { handle, seed, pool, pool_digests, failures }
}

/// The closed loop's samples, its start and its duration.
pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub start: Instant,
    pub secs: f64,
}

/// Length of the windows `fastest_window_p50_ms` splits the loop into.
const P50_WINDOW_S: f64 = 1.0;
/// Fewest requests a window needs to count (drops the loop's partial last
/// window); a loop with no such window reports its whole-run median.
const P50_WINDOW_MIN: usize = 100;

/// The `serve` p50 in ms: the median latency of the requests sent in each
/// one-second window of the loop, at the window where it is lowest. The
/// reference host alternates between speed phases that stretch the round
/// trip of a cache read by up to 1.5×; the median of a whole run follows
/// whichever phase covered most of it, the fastest window does not.
pub fn fastest_window_p50_ms(run: &LoadRun) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in &run.samples {
        let at = s.sent.saturating_duration_since(run.start).as_secs_f64();
        windows.entry((at / P50_WINDOW_S) as u64).or_default().push(s.latency * 1e3);
    }
    let median = |mut w: Vec<f64>| {
        w.sort_by(f64::total_cmp);
        w.get(w.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
    };
    let all: Vec<f64> = windows.values().flatten().copied().collect();
    let fastest = windows
        .into_values()
        .filter(|w| w.len() >= P50_WINDOW_MIN)
        .map(median)
        .fold(f64::INFINITY, f64::min);
    if fastest.is_finite() {
        fastest
    } else {
        median(all)
    }
}

/// Request budget per second of `--seconds`: the closed loop stops at its
/// time or after this many requests per second of it, whichever comes
/// first. The job engine keeps every finished job in a hash table that
/// doubles its capacity as it fills (at 28,672 and 57,344 jobs), so
/// resident memory steps up with requests served. The budget keeps a run
/// between two such steps whatever the host's speed, so `peak_rss_mb`
/// neither flips with run-to-run throughput noise nor charges a throughput
/// gain as a memory regression.
const MAX_REQUESTS_PER_S: f64 = 1500.0;

/// Runs the two closed-loop clients for `seconds` or the request budget:
/// each client sends its next request only after the previous one is done.
pub fn load(setup: &Setup, seconds: f64) -> LoadRun {
    let addr = setup.handle.addr();
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let sent = AtomicUsize::new(0);
    let budget = (MAX_REQUESTS_PER_S * seconds) as usize;
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS as u64 {
            let (barrier, stop, samples, sent) = (&barrier, &stop, &samples, &sent);
            scope.spawn(move || {
                let mut rng =
                    SplitMix64::new(setup.seed.wrapping_add(client.wrapping_mul(0x9E37_79B9)));
                let mut mine = Vec::new();
                for round in 0u64.. {
                    let req = if round % PAIRED == PAIRED - 1 {
                        if barrier.wait().is_leader() {
                            let done = start.elapsed().as_secs_f64() >= seconds
                                || sent.load(Ordering::Relaxed) >= budget;
                            stop.store(done, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        Req::Fresh(PAIRED_BASE + round)
                    } else if rng.below(7) == 0 {
                        Req::Fresh(2 * round + client)
                    } else {
                        Req::Pool(rng.below(setup.pool.len()))
                    };
                    mine.push(submit(addr, &setup.text(req), req));
                    sent.fetch_add(1, Ordering::Relaxed);
                }
                samples.lock().expect("no client panicked holding the lock").extend(mine);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    LoadRun { samples: samples.into_inner().expect("clients joined"), start, secs }
}

/// Service counters read from `GET /v1/metrics`.
pub struct SvcMetrics {
    pub hit_ratio: f64,
    pub coalesced: f64,
    pub rejected: f64,
    pub failed: f64,
}

pub fn metrics(setup: &Setup) -> Result<SvcMetrics, String> {
    let (_, body) = http(setup.handle.addr(), "GET", "/v1/metrics", "")?;
    let v = parse(&body).map_err(|e| e.to_string())?;
    let num =
        |a: &str, b: &str| v.get(a).and_then(|o| o.get(b)).and_then(Json::as_num).unwrap_or(0.0);
    let (hits, misses) =
        (num("cache", "mem_hits") + num("cache", "disk_hits"), num("cache", "misses"));
    Ok(SvcMetrics {
        hit_ratio: hits / (hits + misses).max(1.0),
        coalesced: num("jobs", "coalesced"),
        rejected: num("jobs", "rejected"),
        failed: num("jobs", "failed"),
    })
}

/// Checks every sample's body against the in-process evaluation of the
/// same request, evaluating each distinct fresh request once. With a
/// tracer, every distinct request (pool included) is replayed traced: the
/// JSON codec and the evaluation get a span each, and the untraced run
/// before it gives the tracing overhead. Returns the failures and the mean
/// evaluate seconds of the fresh requests.
pub fn verify_samples(
    samples: &[Sample],
    setup: &Setup,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let mut expected: BTreeMap<Req, (Result<u64, String>, f64)> = BTreeMap::new();
    let (mut untraced, mut traced) = (0.0, 0.0);
    for s in samples {
        if !expected.contains_key(&s.req) && (tracer.is_some() || matches!(s.req, Req::Fresh(_))) {
            let text = setup.text(s.req);
            let start = Instant::now();
            let body = expected_body(&text).map(|b| digest(&b));
            let mut secs = start.elapsed().as_secs_f64();
            untraced += secs;
            if let Some(t) = tracer.as_deref_mut() {
                let traced_start = Instant::now();
                let _ = t.enter("job");
                let parsed = t.leaf("svc.json", || JobRequest::from_json_text(&text));
                if let Ok(p) = parsed {
                    t.leaf("svc.json", || p.canonical());
                    let start = Instant::now();
                    let result = t.leaf("svc.request.evaluate", || p.evaluate(Workers::new(1)));
                    secs = start.elapsed().as_secs_f64();
                    if let Ok(result) = result {
                        t.leaf("svc.json", || result.to_string());
                    }
                }
                t.exit();
                traced += traced_start.elapsed().as_secs_f64();
            }
            expected.insert(s.req, (body, secs));
        }
        let want = match s.req {
            Req::Pool(i) => &setup.pool_digests[i],
            Req::Fresh(_) => &expected[&s.req].0,
        };
        if want.is_err() || s.body != *want {
            failures.push(format!(
                "body mismatch for {}: {:?} vs {want:?}",
                setup.text(s.req),
                s.body
            ));
        }
    }
    if let Some(t) = tracer {
        t.add("trace.traced_s", traced);
        t.add("trace.untraced_s", untraced);
        t.add("svc.request.count", expected.len() as f64);
    }
    let fresh: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cached && matches!(s.req, Req::Fresh(_)))
        .filter_map(|s| expected.get(&s.req).map(|e| e.1))
        .collect();
    let mean = if fresh.is_empty() { 0.0 } else { fresh.iter().sum::<f64>() / fresh.len() as f64 };
    (failures, mean)
}
