//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public
//! layer call; nothing inside the program is instrumented. A span keeps its
//! name, start and end (µs since the recorder was created), its parent and
//! the job it belongs to. Counters sit next to the spans so ratios are
//! formed from the same calls that were timed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    job: u32,
}

/// Span and counter store for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            sums: BTreeMap::new(),
            maxes: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            job: self.job,
        };
        self.open.push(id);
        self.spans.push(span);
        id
    }

    /// Total µs of the closed direct children of span `id`.
    pub fn child_us(&self, id: usize) -> f64 {
        self.spans[id..]
            .iter()
            .filter(|s| s.parent == Some(id) && s.end_us.is_finite())
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// Closes the innermost open span and returns its duration in µs.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        end - span.start_us
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _ = self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Raises counter `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.maxes.entry(key).or_insert(v);
        *e = e.max(v);
    }

    pub fn sum_of(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn max_of(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }

    /// Self time (ms) and call count per span name: a span's duration
    /// minus the durations of its direct children, which never overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.end_us - s.start_us - child_us[i]).max(0.0) / 1e3;
            e.1 += 1;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_us, s.end_us, s.job
            );
        }
        out
    }
}
