//! The metamorphic *sandwich* harness for scheduler-quantified bounds: on
//! seeded random nondeterministic models, every concrete resolution of the
//! nondeterminism — first-choice, last-choice, per-state seeded-random, and
//! the uniform policy — must land inside the `[min, max]` interval the
//! lifted CTMDP computes, for all four measures. Degenerate models (no
//! nondeterminism) must collapse the interval onto the CTMC answer, and
//! bounds must be invariant under lumping.

use multival::ctmc::Workers;
use multival::flow::{BoundsSolved, Flow, Interval, Solved};
use multival::imc::NondetPolicy;
use multival::lts::equiv::lts_from_triples;
use multival::models::common::explore_model;
use multival::models::fame2::benchmark::{
    contended_fabric_bounds, contended_fabric_source, label_delay, RateConfig,
};
use multival::models::fame2::coherence::Protocol;
use multival::models::fame2::mpi::{MpiConfig, MpiImpl, MpiModel};
use multival::models::fame2::topology::Topology;
use multival::models::xstream::perf::{explore_pipeline, PerfConfig};
use multival::par::SplitMix64;
use std::collections::HashMap;

const TOL: f64 = 1e-9;

type Triple = (u32, &'static str, u32);

const MARKOV_GATES: [&str; 3] = ["ga", "gb", "gc"];

fn markov_rates() -> HashMap<String, f64> {
    [("ga".to_owned(), 0.7), ("gb".to_owned(), 1.3), ("gc".to_owned(), 2.9)].into_iter().collect()
}

/// A random `n`-state model: a Markovian spanning cycle (`ga`/`gb`/`gc`,
/// decorated) plus extra Markovian edges, and strictly *forward* internal
/// edges — `choice` (hidden, the scheduler's nondeterminism) and `tick`
/// (the throughput probe). Forward-only internal edges rule out Zeno
/// τ-cycles, and the spanning cycle keeps state `n-1` reachable under every
/// scheduler, so all four measures are well-defined for every resolution.
fn random_nondet_triples(seed: u64, n: u32) -> Vec<Triple> {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |k: u32| rng.below(k as usize) as u32;
    let mut t = Vec::new();
    for i in 0..n - 1 {
        t.push((i, MARKOV_GATES[draw(3) as usize], i + 1));
    }
    t.push((n - 1, MARKOV_GATES[draw(3) as usize], 0));
    for _ in 0..n {
        let a = draw(n);
        let b = draw(n);
        if a != b {
            t.push((a, MARKOV_GATES[draw(3) as usize], b));
        }
    }
    for _ in 0..n {
        let a = draw(n - 1);
        let b = a + 1 + draw(n - 1 - a);
        let label = if draw(2) == 0 { "choice" } else { "tick" };
        t.push((a, label, b));
    }
    t
}

/// Keeps one internal (`choice`/`tick`) edge per state — a stationary
/// deterministic scheduler. `pick` selects among a state's internal edges
/// by count.
fn resolve(triples: &[Triple], mut pick: impl FnMut(u32, usize) -> usize) -> Vec<Triple> {
    let mut internal: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &(a, l, _)) in triples.iter().enumerate() {
        if l == "choice" || l == "tick" {
            internal.entry(a).or_default().push(i);
        }
    }
    let mut keep: Vec<bool> = vec![true; triples.len()];
    for (&state, edges) in &internal {
        let chosen = edges[pick(state, edges.len())];
        for &e in edges {
            keep[e] = e == chosen;
        }
    }
    triples.iter().enumerate().filter(|&(i, _)| keep[i]).map(|(_, &t)| t).collect()
}

/// The four measures of one concrete (fully or partially resolved) model.
fn measures(solved: &Solved, occ: &[u32], target: &[u32], t: f64) -> [f64; 4] {
    let tick = solved
        .throughputs()
        .expect("throughputs")
        .into_iter()
        .find(|(l, _)| l == "tick")
        .map_or(0.0, |(_, v)| v);
    [
        tick,
        solved.occupancy(occ).expect("occupancy"),
        solved.mean_time_to_states(target).expect("latency"),
        solved.timed_reach(target, t).expect("transient"),
    ]
}

/// The four measure intervals of the lifted CTMDP.
fn measure_bounds(bounds: &BoundsSolved, occ: &[u32], target: &[u32], t: f64) -> [Interval; 4] {
    let tick = bounds
        .throughput_bounds()
        .expect("throughput bounds")
        .into_iter()
        .find(|(l, _)| l == "tick")
        .map(|(_, i)| i)
        .expect("tick probe present");
    [
        tick,
        bounds.occupancy_bounds(occ).expect("occupancy bounds"),
        bounds.latency_bounds(target).expect("latency bounds"),
        bounds.transient_bounds(target, t).expect("transient bounds"),
    ]
}

const MEASURE_NAMES: [&str; 4] = ["throughput", "occupancy", "latency", "transient"];

#[test]
fn random_models_sandwich_every_scheduler_resolution() {
    let rates = markov_rates();
    let mut spreads = 0usize;
    for seed in 0..12u64 {
        let n = 5 + (seed % 4) as u32;
        let triples = random_nondet_triples(seed * 7919 + 1, n);
        let occ: Vec<u32> = (0..n).filter(|s| s % 3 == 0).collect();
        let target = [n - 1];
        let t = 0.7;

        let full = Flow::from_lts(lts_from_triples(&triples));
        let perf = full.with_rates(&rates);
        let bounds = perf.solve_bounds(&["tick"]).expect("bounds solve");
        let iv = measure_bounds(&bounds, &occ, &target, t);
        spreads += usize::from(iv.iter().any(|i| i.width() > 1e-6));

        // The uniform policy resolves choices on the *unresolved* model;
        // the three prunings are stationary deterministic schedulers.
        let mut resolutions: Vec<(String, Vec<Triple>)> = vec![
            ("first-choice".into(), resolve(&triples, |_, _| 0)),
            ("last-choice".into(), resolve(&triples, |_, k| k - 1)),
        ];
        for salt in [3u64, 17] {
            resolutions.push((
                format!("seeded-random({salt})"),
                resolve(&triples, |state, k| {
                    SplitMix64::new(seed ^ (u64::from(state) << 32) ^ salt).below(k)
                }),
            ));
        }
        let uniform = perf.solve(NondetPolicy::Uniform, &["tick"]).expect("uniform solve");
        let mut resolved: Vec<(String, [f64; 4])> =
            vec![("uniform".into(), measures(&uniform, &occ, &target, t))];
        for (name, pruned) in resolutions {
            let solved = Flow::from_lts(lts_from_triples(&pruned))
                .with_rates(&rates)
                .solve(NondetPolicy::Uniform, &["tick"])
                .expect("resolved solve");
            resolved.push((name, measures(&solved, &occ, &target, t)));
        }

        for (name, vals) in &resolved {
            for (m, (&v, i)) in vals.iter().zip(&iv).enumerate() {
                assert!(
                    i.min - TOL <= v && v <= i.max + TOL,
                    "seed {seed} ({n} states), {} under {name}: {v} outside [{}, {}]",
                    MEASURE_NAMES[m],
                    i.min,
                    i.max
                );
            }
        }
    }
    assert!(spreads >= 6, "only {spreads}/12 seeds had a genuine spread — generator too tame");
}

#[test]
fn deterministic_case_studies_collapse_onto_the_ctmc_answer() {
    // xSTream pipeline: all four measures.
    let explored = explore_pipeline(&PerfConfig::default()).expect("explores");
    let rates: HashMap<String, f64> = [
        ("push".to_owned(), 1.0),
        ("xfer".to_owned(), 4.0),
        ("pop".to_owned(), 2.0),
        ("credit".to_owned(), 8.0),
    ]
    .into_iter()
    .collect();
    let occ: Vec<u32> = (0..explored.lts.num_states() as u32).filter(|s| s % 2 == 0).collect();
    let target = [explored.lts.num_states() as u32 - 1];
    let perf = Flow::from_lts(explored.lts).with_rates(&rates);
    let solved = perf.solve(NondetPolicy::Uniform, &["pop"]).expect("solves");
    let bounds = perf.solve_bounds(&["pop"]).expect("bounds");
    let vals = [
        solved.throughputs().expect("tp").into_iter().find(|(l, _)| l == "pop").expect("pop").1,
        solved.occupancy(&occ).expect("occ"),
        solved.mean_time_to_states(&target).expect("lat"),
        solved.timed_reach(&target, 0.5).expect("tr"),
    ];
    let ivs = [
        bounds
            .throughput_bounds()
            .expect("tp")
            .into_iter()
            .find(|(l, _)| l == "pop")
            .expect("pop")
            .1,
        bounds.occupancy_bounds(&occ).expect("occ"),
        bounds.latency_bounds(&target).expect("lat"),
        bounds.transient_bounds(&target, 0.5).expect("tr"),
    ];
    for (m, (&v, i)) in vals.iter().zip(&ivs).enumerate() {
        assert!(i.width() < TOL, "xstream {}: width {}", MEASURE_NAMES[m], i.width());
        assert!(
            (i.min - v).abs() < TOL,
            "xstream {}: {v} vs [{}, {}]",
            MEASURE_NAMES[m],
            i.min,
            i.max
        );
    }

    // FAME2 ping-pong (absorbing round trip): latency and transient against
    // the CTMC first-passage solvers; the chain is deterministic, so the
    // interval is a point.
    let config = MpiConfig {
        topology: Topology::Crossbar(2),
        protocol: Protocol::Msi,
        implementation: MpiImpl::Eager,
        payload: 1,
    };
    let model = MpiModel::ping_pong(config);
    let explored = explore_model(&model, 4_000_000).expect("explores");
    let done: Vec<u32> = explored.states_where(|s| model.finished(s));
    let rc = RateConfig::default();
    let homes: Vec<usize> = model.lines.iter().map(|l| l.home).collect();
    let perf = Flow::from_lts(explored.lts)
        .with_delays_by_label(|label| label_delay(label, &rc, &config.topology, &|l| homes[l]));
    let solved = perf.solve(NondetPolicy::Uniform, &[]).expect("solves");
    let bounds = perf.solve_bounds(&[]).expect("bounds");
    let latency = solved.mean_time_to_states(&done).expect("latency");
    let reach = solved.timed_reach(&done, latency).expect("transient");
    let lat_iv = bounds.latency_bounds(&done).expect("latency bounds");
    let reach_iv = bounds.transient_bounds(&done, latency).expect("transient bounds");
    assert!(
        lat_iv.width() < TOL && (lat_iv.min - latency).abs() < TOL,
        "fame2 latency {latency} vs [{}, {}]",
        lat_iv.min,
        lat_iv.max
    );
    assert!(
        reach_iv.width() < TOL && (reach_iv.min - reach).abs() < TOL,
        "fame2 transient {reach} vs [{}, {}]",
        reach_iv.min,
        reach_iv.max
    );
}

#[test]
fn bounds_are_invariant_under_lumping() {
    // The contended-fabric model is genuinely nondeterministic; lumping the
    // decorated IMC must not move either endpoint.
    let rc = RateConfig::default();
    let rates: HashMap<String, f64> = [
        ("issue".to_owned(), rc.issue_rate),
        ("flush".to_owned(), rc.transfer_rate),
        ("mem".to_owned(), rc.memory_rate / 2.0),
        ("consume".to_owned(), rc.cache_rate),
    ]
    .into_iter()
    .collect();
    let flow = Flow::from_source(&contended_fabric_source()).expect("parses");
    let perf = flow.with_rates(&rates);
    let original = perf.solve_bounds(&["mark"]).expect("bounds");
    let (lumped, stats) = perf.lumped();
    let quotient = lumped.solve_bounds(&["mark"]).expect("lumped bounds");
    let a = original.throughput_bounds().expect("tp")[0].1;
    let b = quotient.throughput_bounds().expect("tp")[0].1;
    assert!(a.max > a.min + 1e-6, "the fabric spread must be genuine: [{}, {}]", a.min, a.max);
    assert!(
        (a.min - b.min).abs() < TOL && (a.max - b.max).abs() < TOL,
        "lumping moved the bounds: [{}, {}] vs [{}, {}]",
        a.min,
        a.max,
        b.min,
        b.max
    );
    assert!(stats.states_after <= stats.states_before, "lump must not grow the chain");

    // Cross-validation: the Flow path (closed + lifted) and the models-crate
    // path (relabel + lifted) must compute the same interval.
    let m = contended_fabric_bounds(&rc, 1).expect("model bounds");
    assert!(
        (a.min - m.min_rounds_per_time).abs() < TOL && (a.max - m.max_rounds_per_time).abs() < TOL,
        "flow [{}, {}] vs models [{}, {}]",
        a.min,
        a.max,
        m.min_rounds_per_time,
        m.max_rounds_per_time
    );
}

#[test]
fn bounds_jobs_match_the_flow_engine_across_workers() {
    // The svc `bounds` kind must agree with the Flow engine bit-for-bit and
    // be worker-invariant (value iteration has no parallel section — the
    // determinism the cache key relies on).
    use multival_svc::request::JobRequest;
    let src = contended_fabric_source();
    let rc = RateConfig::default();
    let text = format!(
        r#"{{"kind":"bounds","model":{{"source":{}}},"rates":{{"issue":{},"flush":{},"mem":{},"consume":{}}},"probes":["mark"]}}"#,
        multival_svc::json::Json::str(src.clone()),
        rc.issue_rate,
        rc.transfer_rate,
        rc.memory_rate / 2.0,
        rc.cache_rate,
    );
    let req = JobRequest::from_json_text(&text).expect("parses");
    let seq = req.evaluate(Workers::sequential()).expect("evaluates").to_string();
    let par = req.evaluate(Workers::new(4)).expect("evaluates").to_string();
    assert_eq!(seq, par, "bounds evaluation must be byte-identical across worker counts");
    let m = contended_fabric_bounds(&rc, 1).expect("model bounds");
    let parsed = multival_svc::json::parse(&seq).expect("json");
    let tp = parsed
        .get("throughput_bounds")
        .and_then(|t| t.get("mark"))
        .expect("mark bounds in response");
    let min = tp.get("min").and_then(multival_svc::json::Json::as_num).expect("min");
    let max = tp.get("max").and_then(multival_svc::json::Json::as_num).expect("max");
    assert!((min - m.min_rounds_per_time).abs() < TOL, "{min} vs {}", m.min_rounds_per_time);
    assert!((max - m.max_rounds_per_time).abs() < TOL, "{max} vs {}", m.max_rounds_per_time);
}
