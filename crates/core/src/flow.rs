//! The integrated Multival flow: one fluent API from a mini-LOTOS source
//! to functional verdicts and performance numbers.
//!
//! This is the facade over the full §2–§4 pipeline of the paper:
//!
//! ```text
//! mini-LOTOS ──explore──> LTS ──verify──> verdicts        (§3)
//!                          │
//!                          └──decorate──> IMC ──hide/convert──> CTMC
//!                                          └──> measures        (§4)
//! ```

use multival_ctmc::absorb::mean_time_to_target;
use multival_ctmc::mdp::Opt;
use multival_ctmc::steady::{steady_state, SolveOptions};
use multival_ctmc::{McOptions, McRun, McSim};
use multival_imc::decorate::{decorate, decorate_by_label};
use multival_imc::phase_type::Delay;
use multival_imc::to_ctmc::{
    probe_throughputs, to_ctmc, to_ctmdp_lifted, CtmcConversion, CtmdpConversion, NondetPolicy,
};
use multival_imc::Imc;
use multival_lts::analysis::{deadlock_witness, Trace};
use multival_lts::equiv::{compare_determinized, determinize_ts, Determinized, Verdict};
use multival_lts::minimize::{divergent_states, minimize, Equivalence, ReductionStats};
use multival_lts::reach::{deadlock_search, scan, ReachOptions, ScanSummary, SearchOutcome};
use multival_lts::Lts;
use multival_mcl::{check, parse_formula, CheckResult, OnTheFlyReport};
use multival_pa::{explore, explore_partial, parse_spec, ExploreOptions, PaTs};
use std::collections::HashMap;
use std::fmt;

/// Error of the integrated flow.
#[derive(Debug)]
pub enum FlowError {
    /// Parsing the model failed.
    Parse(multival_pa::ParseError),
    /// State-space generation failed.
    Explore(multival_pa::ExploreError),
    /// Parsing or evaluating a formula failed.
    Formula(String),
    /// IMC → CTMC conversion failed.
    Conversion(multival_imc::ToCtmcError),
    /// A Markov solver failed.
    Solver(multival_ctmc::CtmcError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "{e}"),
            FlowError::Explore(e) => write!(f, "{e}"),
            FlowError::Formula(e) => write!(f, "{e}"),
            FlowError::Conversion(e) => write!(f, "{e}"),
            FlowError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<multival_pa::ParseError> for FlowError {
    fn from(e: multival_pa::ParseError) -> Self {
        FlowError::Parse(e)
    }
}

impl From<multival_pa::ExploreError> for FlowError {
    fn from(e: multival_pa::ExploreError) -> Self {
        FlowError::Explore(e)
    }
}

impl From<multival_imc::ToCtmcError> for FlowError {
    fn from(e: multival_imc::ToCtmcError) -> Self {
        FlowError::Conversion(e)
    }
}

impl From<multival_ctmc::CtmcError> for FlowError {
    fn from(e: multival_ctmc::CtmcError) -> Self {
        FlowError::Solver(e)
    }
}

/// A functional model in flight through the flow.
#[derive(Debug, Clone)]
pub struct Flow {
    lts: Lts,
}

impl Flow {
    /// Parses a mini-LOTOS source and generates its state space.
    ///
    /// # Errors
    ///
    /// Propagates parse and exploration errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use multival::flow::Flow;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let flow = Flow::from_source("behaviour tick; tock; stop")?;
    /// assert_eq!(flow.lts().num_states(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_source(src: &str) -> Result<Flow, FlowError> {
        Self::from_source_with(src, &ExploreOptions::default())
    }

    /// Like [`Flow::from_source`] with explicit exploration caps.
    ///
    /// # Errors
    ///
    /// Propagates parse and exploration errors.
    pub fn from_source_with(src: &str, options: &ExploreOptions) -> Result<Flow, FlowError> {
        let spec = parse_spec(src)?;
        let explored = explore(&spec, options)?;
        Ok(Flow { lts: explored.lts })
    }

    /// Like [`Flow::from_source_with`], but keeps the partially explored
    /// state space when exploration aborts (cap hit or semantics error):
    /// the returned flow holds exactly the states admitted before the
    /// abort, and the abort cause rides alongside.
    ///
    /// # Errors
    ///
    /// Propagates parse errors; exploration aborts are *not* errors here.
    pub fn from_source_partial(
        src: &str,
        options: &ExploreOptions,
    ) -> Result<(Flow, Option<multival_pa::ExploreError>), FlowError> {
        let spec = parse_spec(src)?;
        let exploration = explore_partial(&spec, options);
        Ok((Flow { lts: exploration.explored.lts }, exploration.aborted))
    }

    /// Wraps an existing LTS.
    pub fn from_lts(lts: Lts) -> Flow {
        Flow { lts }
    }

    /// The underlying LTS.
    pub fn lts(&self) -> &Lts {
        &self.lts
    }

    /// Minimizes modulo the given equivalence, returning the new flow and
    /// reduction statistics.
    pub fn minimized(&self, eq: Equivalence) -> (Flow, ReductionStats) {
        let (lts, stats) = minimize(&self.lts, eq);
        (Flow { lts }, stats)
    }

    /// Hides the listed gates (they become τ).
    pub fn hidden<I, S>(&self, gates: I) -> Flow
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Flow { lts: multival_lts::ops::hide(&self.lts, gates) }
    }

    /// Shortest deadlock witness, or `None` when deadlock-free.
    pub fn deadlock(&self) -> Option<Trace> {
        deadlock_witness(&self.lts)
    }

    /// States that can diverge (τ-cycles).
    pub fn divergences(&self) -> Vec<multival_lts::StateId> {
        divergent_states(&self.lts)
    }

    /// Model-checks a μ-calculus formula given as text.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Formula`] on parse or evaluation failure.
    pub fn check(&self, formula: &str) -> Result<CheckResult, FlowError> {
        let f = parse_formula(formula).map_err(|e| FlowError::Formula(e.to_string()))?;
        check(&self.lts, &f).map_err(|e| FlowError::Formula(e.to_string()))
    }

    /// Decorates gates with exponential rates, entering the performance
    /// side of the flow.
    pub fn with_rates(&self, rates: &HashMap<String, f64>) -> PerfFlow {
        let delays: HashMap<String, Delay> =
            rates.iter().map(|(g, &r)| (g.clone(), Delay::Exponential { rate: r })).collect();
        PerfFlow { imc: decorate(&self.lts, &delays) }
    }

    /// Decorates gates with general phase-type delays.
    pub fn with_delays(&self, delays: &HashMap<String, Delay>) -> PerfFlow {
        PerfFlow { imc: decorate(&self.lts, delays) }
    }

    /// Decorates with a per-label delay function.
    pub fn with_delays_by_label(&self, f: impl FnMut(&str) -> Option<Delay>) -> PerfFlow {
        PerfFlow { imc: decorate_by_label(&self.lts, f) }
    }

    /// Scans the state space of `src` on the fly — counting states,
    /// transitions, and deadlocks — without ever materializing an LTS.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and semantic errors hit during the walk.
    pub fn scan_on_the_fly(src: &str, options: &ReachOptions) -> Result<ScanSummary, FlowError> {
        let spec = parse_spec(src)?;
        let ts = PaTs::new(&spec);
        let summary = scan(&ts, options);
        take_pa_error(&ts)?;
        Ok(summary)
    }

    /// Searches `src` for a deadlock on the fly; the walk stops at the
    /// first deadlocked state instead of generating the full state space.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and semantic errors hit during the walk.
    pub fn deadlock_on_the_fly(
        src: &str,
        options: &ReachOptions,
    ) -> Result<SearchOutcome, FlowError> {
        let spec = parse_spec(src)?;
        let ts = PaTs::new(&spec);
        let outcome = deadlock_search(&ts, options);
        take_pa_error(&ts)?;
        Ok(outcome)
    }

    /// Model-checks a formula over `src` on the fly, if the formula falls
    /// in the safety/possibility/inevitability fragment. Returns `Ok(None)`
    /// when it does not — callers then materialize and use [`Flow::check`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors, semantic errors hit during the walk, and
    /// truncation (cap hit before a verdict).
    pub fn check_on_the_fly(
        src: &str,
        formula: &str,
        options: &ReachOptions,
    ) -> Result<Option<OnTheFlyReport>, FlowError> {
        let spec = parse_spec(src)?;
        let f = parse_formula(formula).map_err(|e| FlowError::Formula(e.to_string()))?;
        let ts = PaTs::new(&spec);
        let report = match multival_mcl::check_on_the_fly(&ts, &f, options) {
            None => return Ok(None),
            Some(r) => r,
        };
        take_pa_error(&ts)?;
        report.map(Some).map_err(|e| FlowError::Formula(e.to_string()))
    }

    /// Weak-trace-compares two sources on the fly: each side is
    /// determinized straight from its term graph (τ-closure + subset
    /// construction over the implicit states), never materializing either
    /// LTS.
    ///
    /// # Errors
    ///
    /// Propagates parse and semantic errors; [`FlowError::Formula`] when a
    /// side exceeds `cap` subset states.
    pub fn weak_traces_on_the_fly(
        left: &str,
        right: &str,
        cap: usize,
    ) -> Result<Verdict, FlowError> {
        let da = Self::determinize_source(left, cap)?;
        let db = Self::determinize_source(right, cap)?;
        Ok(compare_determinized(&da, &db))
    }

    /// Determinizes a mini-LOTOS source straight from its term graph
    /// (τ-closure + subset construction, no intermediate LTS). The result
    /// feeds [`compare_determinized`].
    ///
    /// # Errors
    ///
    /// Propagates parse and semantic errors; [`FlowError::Formula`] when
    /// the subset construction exceeds `cap` states.
    pub fn determinize_source(src: &str, cap: usize) -> Result<Determinized, FlowError> {
        let spec = parse_spec(src)?;
        let ts = PaTs::new(&spec);
        let d = determinize_ts(&ts, cap);
        take_pa_error(&ts)?;
        d.ok_or_else(|| {
            FlowError::Formula(format!("determinization cap of {cap} subset states exceeded"))
        })
    }
}

/// Converts a semantic error parked in a [`PaTs`] into a [`FlowError`].
fn take_pa_error(ts: &PaTs<'_>) -> Result<(), FlowError> {
    match ts.take_error() {
        Some((error, term)) => Err(FlowError::Explore(multival_pa::ExploreError::Semantics {
            error,
            state: term.to_string(),
        })),
        None => Ok(()),
    }
}

/// A performance model in flight (an IMC about to become a CTMC).
#[derive(Debug, Clone)]
pub struct PerfFlow {
    imc: Imc,
}

impl PerfFlow {
    /// Wraps an existing IMC.
    pub fn from_imc(imc: Imc) -> PerfFlow {
        PerfFlow { imc }
    }

    /// The underlying IMC.
    pub fn imc(&self) -> &Imc {
        &self.imc
    }

    /// Minimizes the IMC by lumping.
    pub fn lumped(&self) -> (PerfFlow, multival_imc::LumpStats) {
        let (imc, stats) = multival_imc::lump(&self.imc, &multival_imc::LumpOptions::default());
        (PerfFlow { imc }, stats)
    }

    /// Converts to a CTMC, treating the listed labels as throughput probes
    /// and hiding everything else.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors (visible labels, nondeterminism under
    /// the chosen policy, timelocks).
    pub fn solve(&self, policy: NondetPolicy, probes: &[&str]) -> Result<Solved, FlowError> {
        let conv = to_ctmc(&self.closed(probes), policy, probes)?;
        Ok(Solved { conv })
    }

    /// Converts to a CTMDP keeping internal nondeterminism as scheduler
    /// choices: every measure of the resulting [`BoundsSolved`] is a
    /// `[min, max]` interval over all schedulers — the quantified answer
    /// where [`PerfFlow::solve`] with [`NondetPolicy::Reject`] errors out.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors (visible labels, timelocks).
    pub fn solve_bounds(&self, probes: &[&str]) -> Result<BoundsSolved, FlowError> {
        let conv = to_ctmdp_lifted(&self.closed(probes), probes)?;
        Ok(BoundsSolved { conv })
    }

    /// Hides everything that is not a probe.
    fn closed(&self, probes: &[&str]) -> Imc {
        let keep: Vec<String> = probes.iter().map(|s| s.to_string()).collect();
        multival_imc::ops::relabel(&self.imc, |name| {
            if keep.iter().any(|p| p == name) {
                Some(name.to_owned())
            } else {
                None
            }
        })
    }
}

/// A solved performance model.
#[derive(Debug, Clone)]
pub struct Solved {
    conv: CtmcConversion,
}

impl Solved {
    /// The underlying CTMC.
    pub fn ctmc(&self) -> &multival_ctmc::Ctmc {
        &self.conv.ctmc
    }

    /// The conversion record (state map, probe flows).
    pub fn conversion(&self) -> &CtmcConversion {
        &self.conv
    }

    /// Steady-state distribution.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn steady_state(&self) -> Result<Vec<f64>, FlowError> {
        Ok(steady_state(&self.conv.ctmc, &SolveOptions::default())?)
    }

    /// Steady-state probe throughputs.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn throughputs(&self) -> Result<Vec<(String, f64)>, FlowError> {
        Ok(probe_throughputs(&self.conv, &SolveOptions::default())?)
    }

    /// Mean time to reach any of the given *functional* states (ids of the
    /// pre-decoration LTS, which the decoration keeps as an id prefix).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn mean_time_to_states(&self, functional: &[u32]) -> Result<f64, FlowError> {
        let targets: Vec<usize> = functional
            .iter()
            .filter_map(|&s| self.conv.state_map.get(s as usize).copied().flatten())
            .collect();
        Ok(mean_time_to_target(&self.conv.ctmc, &targets, &SolveOptions::default())?)
    }

    /// Long-run fraction of time spent in the given functional states —
    /// the CTMC reference measure for [`BoundsSolved::occupancy_bounds`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn occupancy(&self, functional: &[u32]) -> Result<f64, FlowError> {
        let pi = self.steady_state()?;
        let mut states: Vec<usize> = functional
            .iter()
            .filter_map(|&s| self.conv.state_map.get(s as usize).copied().flatten())
            .collect();
        states.sort_unstable();
        states.dedup();
        Ok(states.iter().map(|&c| pi[c]).sum())
    }

    /// Transient (time `t`) distribution — the numerical counterpart of
    /// [`Self::simulate_transient`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn transient(&self, t: f64) -> Result<Vec<f64>, FlowError> {
        Ok(multival_ctmc::transient::transient(
            &self.conv.ctmc,
            t,
            &multival_ctmc::TransientOptions::default(),
        )?)
    }

    /// A Monte-Carlo evaluator over the solved chain (CSR view built once;
    /// reuse it across measures).
    pub fn simulator(&self) -> McSim {
        McSim::new(&self.conv.ctmc)
    }

    /// Statistical estimate of the per-state long-run occupancy: fraction
    /// of `[0, horizon]` each trajectory spends per state. Cross-validates
    /// [`Self::steady_state`] on ergodic chains.
    pub fn simulate_occupancy(&self, horizon: f64, opts: &McOptions) -> McRun {
        self.simulator().occupancy(horizon, opts)
    }

    /// Statistical estimate of the transient distribution at time `t`.
    /// Cross-validates [`Self::transient`].
    pub fn simulate_transient(&self, t: f64, opts: &McOptions) -> McRun {
        self.simulator().transient(t, opts)
    }

    /// Probability that the chain has reached any of the given functional
    /// states within time `t` (CSL bounded reachability) — the CTMC
    /// reference measure for [`BoundsSolved::transient_bounds`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn timed_reach(&self, functional: &[u32], t: f64) -> Result<f64, FlowError> {
        let mut is_target = vec![false; self.conv.ctmc.num_states()];
        for &f in functional {
            if let Some(Some(c)) = self.conv.state_map.get(f as usize) {
                is_target[*c] = true;
            }
        }
        Ok(multival_ctmc::csl::bounded_reach(
            &self.conv.ctmc,
            |s| is_target[s],
            t,
            &multival_ctmc::TransientOptions::default(),
        )?)
    }
}

/// A `[min, max]` interval over all schedulers of a nondeterministic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Best case over schedulers (for "larger is better" measures, the
    /// guaranteed floor is `min`).
    pub min: f64,
    /// Worst case over schedulers.
    pub max: f64,
}

impl Interval {
    /// The spread between the two scheduler extremes.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Whether `x` lies inside the interval (with slack `tol` on both
    /// sides) — every concrete scheduler resolution must.
    pub fn contains(&self, x: f64, tol: f64) -> bool {
        self.min - tol <= x && x <= self.max + tol
    }

    /// Whether a threshold falls strictly between the extremes, so neither
    /// `TRUE` nor `FALSE` holds for all schedulers (`NO VERDICT`).
    pub fn straddles(&self, threshold: f64) -> bool {
        self.min < threshold && threshold < self.max
    }
}

/// Value-iteration tolerance for bounds measures.
const BOUNDS_TOL: f64 = 1e-12;
/// Iteration cap for bounds value iteration.
const BOUNDS_MAX_ITERS: usize = 1_000_000;

/// A performance model solved for scheduler bounds: each measure answers
/// with an [`Interval`] covering every scheduler, instead of one number
/// under one arbitrary resolution.
#[derive(Debug, Clone)]
pub struct BoundsSolved {
    conv: CtmdpConversion,
}

impl BoundsSolved {
    /// The underlying CTMDP.
    pub fn mdp(&self) -> &multival_ctmc::Ctmdp {
        &self.conv.mdp
    }

    /// The conversion record (state maps, probe impulses).
    pub fn conversion(&self) -> &CtmdpConversion {
        &self.conv
    }

    /// Maps functional state ids to CTMDP states (through eliminated
    /// deterministic τ-chains).
    fn targets(&self, functional: &[u32]) -> Vec<usize> {
        let mut ts: Vec<usize> = functional
            .iter()
            .filter_map(|&s| self.conv.resolved.get(s as usize).copied())
            .collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Long-run throughput interval of every probe.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (including the Zeno guard).
    pub fn throughput_bounds(&self) -> Result<Vec<(String, Interval)>, FlowError> {
        let zeros = vec![0.0; self.conv.mdp.num_states()];
        self.conv
            .probe_impulse
            .iter()
            .map(|(name, imp)| {
                let min = self.conv.mdp.long_run_average(
                    &zeros,
                    Some(imp),
                    Opt::Min,
                    BOUNDS_TOL,
                    BOUNDS_MAX_ITERS,
                )?;
                let max = self.conv.mdp.long_run_average(
                    &zeros,
                    Some(imp),
                    Opt::Max,
                    BOUNDS_TOL,
                    BOUNDS_MAX_ITERS,
                )?;
                Ok((name.clone(), Interval { min, max }))
            })
            .collect()
    }

    /// Long-run occupancy interval of a set of functional states (fraction
    /// of time spent there — queue-fill levels, functional modes).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn occupancy_bounds(&self, functional: &[u32]) -> Result<Interval, FlowError> {
        let mut reward = vec![0.0; self.conv.mdp.num_states()];
        for &f in functional {
            if let Some(Some(c)) = self.conv.state_map.get(f as usize) {
                reward[*c] = 1.0;
            }
        }
        let min = self.conv.mdp.long_run_average(
            &reward,
            None,
            Opt::Min,
            BOUNDS_TOL,
            BOUNDS_MAX_ITERS,
        )?;
        let max = self.conv.mdp.long_run_average(
            &reward,
            None,
            Opt::Max,
            BOUNDS_TOL,
            BOUNDS_MAX_ITERS,
        )?;
        Ok(Interval { min, max })
    }

    /// Expected-latency interval: time to first reach any of the given
    /// functional states, from the initial state.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn latency_bounds(&self, functional: &[u32]) -> Result<Interval, FlowError> {
        let targets = self.targets(functional);
        let min = self.conv.mdp.expected_time_to_reach(
            &targets,
            Opt::Min,
            BOUNDS_TOL,
            BOUNDS_MAX_ITERS,
        )?;
        let max = self.conv.mdp.expected_time_to_reach(
            &targets,
            Opt::Max,
            BOUNDS_TOL,
            BOUNDS_MAX_ITERS,
        )?;
        Ok(Interval { min: min[self.conv.initial], max: max[self.conv.initial] })
    }

    /// Transient-probability interval: probability of having reached any of
    /// the given functional states within time `t`, from the initial state.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn transient_bounds(&self, functional: &[u32], t: f64) -> Result<Interval, FlowError> {
        let targets = self.targets(functional);
        let min = self.conv.mdp.timed_reach_probability(&targets, t, Opt::Min, BOUNDS_TOL)?;
        let max = self.conv.mdp.timed_reach_probability(&targets, t, Opt::Max, BOUNDS_TOL)?;
        Ok(Interval { min: min[self.conv.initial], max: max[self.conv.initial] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORK_REST: &str = "process P[work, rest] := work; rest; P[work, rest] endproc
                             behaviour P[work, rest]";

    #[test]
    fn functional_side() {
        let flow = Flow::from_source(WORK_REST).expect("parses");
        assert!(flow.deadlock().is_none());
        assert!(flow.divergences().is_empty());
        assert!(flow.check("nu X. <true> true and [true] X").expect("mc").holds);
        assert!(!flow.check("<\"rest\"> true").expect("mc").holds, "rest is not first");
    }

    #[test]
    fn partial_flow_survives_a_cap_hit() {
        // Unbounded interleaving would explode; the partial entry point
        // keeps what was admitted and reports why it stopped.
        let src = "process P[a] := a; P[a] ||| a; P[a] endproc behaviour P[a]";
        let options = ExploreOptions::with_max_states(8);
        let (flow, aborted) = Flow::from_source_partial(src, &options).expect("parses");
        assert_eq!(flow.lts().num_states(), 8);
        match aborted {
            Some(multival_pa::ExploreError::Explosion { states, .. }) => {
                assert_eq!(states, 8)
            }
            other => panic!("expected a cap abort, got {other:?}"),
        }
        // A non-aborting run returns no cause.
        let (_, aborted) =
            Flow::from_source_partial(WORK_REST, &ExploreOptions::default()).expect("parses");
        assert!(aborted.is_none());
    }

    #[test]
    fn performance_side() {
        let flow = Flow::from_source(WORK_REST).expect("parses");
        let mut rates = HashMap::new();
        rates.insert("work".to_owned(), 2.0);
        rates.insert("rest".to_owned(), 1.0);
        let solved =
            flow.with_rates(&rates).solve(NondetPolicy::Reject, &["work"]).expect("solves");
        let tp = solved.throughputs().expect("throughputs");
        // Alternating exp(2)/exp(1): cycle time 1.5, work throughput 2/3.
        assert!((tp[0].1 - 2.0 / 3.0).abs() < 1e-9, "{}", tp[0].1);
    }

    #[test]
    fn occupancy_matches_bounds_on_a_deterministic_model() {
        let flow = Flow::from_source(WORK_REST).expect("parses");
        let mut rates = HashMap::new();
        rates.insert("work".to_owned(), 2.0);
        rates.insert("rest".to_owned(), 1.0);
        let perf = flow.with_rates(&rates);
        let solved = perf.solve(NondetPolicy::Reject, &[]).expect("solves");
        // Functional state 1 (between work and rest) holds exp(1): the
        // chain spends 1/(1/2 + 1) · 1 = 2/3 of its time there.
        let occ = solved.occupancy(&[1]).expect("occupancy");
        assert!((occ - 2.0 / 3.0).abs() < 1e-9, "{occ}");
        // No nondeterminism: the scheduler interval collapses onto it.
        let bounds = perf.solve_bounds(&[]).expect("bounds");
        let i = bounds.occupancy_bounds(&[1]).expect("bounds");
        assert!((i.min - occ).abs() < 1e-9 && (i.max - occ).abs() < 1e-9, "{i:?}");
    }

    #[test]
    fn minimization_through_facade() {
        let flow = Flow::from_source("behaviour hide mid in (a; mid; stop |[mid]| mid; b; stop)")
            .expect("parses");
        let (min, stats) = flow.minimized(Equivalence::Branching);
        assert!(min.lts().num_states() < stats.states_before);
    }

    #[test]
    fn lumping_through_facade_preserves_measures() {
        let flow = Flow::from_source(WORK_REST).expect("parses");
        let mut rates = HashMap::new();
        rates.insert("work".to_owned(), 2.0);
        rates.insert("rest".to_owned(), 1.0);
        let perf = flow.with_rates(&rates);
        let (lumped, stats) = perf.lumped();
        assert!(stats.states_after <= stats.states_before);
        let a =
            perf.solve(NondetPolicy::Reject, &["work"]).expect("solves").throughputs().expect("tp")
                [0]
            .1;
        let b = lumped
            .solve(NondetPolicy::Reject, &["work"])
            .expect("solves")
            .throughputs()
            .expect("tp")[0]
            .1;
        assert!((a - b).abs() < 1e-9, "lumping must not change throughput");
    }

    #[test]
    fn on_the_fly_scan_matches_eager_counts() {
        let flow = Flow::from_source(WORK_REST).expect("parses");
        let summary = Flow::scan_on_the_fly(WORK_REST, &ReachOptions::default()).expect("scans");
        assert_eq!(summary.states, flow.lts().num_states());
        assert_eq!(summary.transitions, flow.lts().num_transitions());
        assert_eq!(summary.deadlocks, 0);
    }

    #[test]
    fn on_the_fly_deadlock_agrees_with_eager_witness() {
        let src = "behaviour a; b; stop";
        let eager = Flow::from_source(src).expect("parses").deadlock().expect("deadlocks");
        let otf = Flow::deadlock_on_the_fly(src, &ReachOptions::default()).expect("searches");
        assert_eq!(otf.witness.as_ref().map(Vec::len), Some(eager.len()));
    }

    #[test]
    fn on_the_fly_check_covers_fragment_and_declines_rest() {
        let src = "behaviour a; b; stop";
        let r =
            Flow::check_on_the_fly(src, "mu X. <\"b\"> true or <true> X", &ReachOptions::default())
                .expect("checks")
                .expect("in fragment");
        assert!(r.holds);
        assert_eq!(r.trace, Some(vec!["a".to_owned(), "b".to_owned()]));
        // Outside the fragment: caller falls back to the eager path.
        let none =
            Flow::check_on_the_fly(src, "<\"a\"> true", &ReachOptions::default()).expect("parses");
        assert!(none.is_none());
    }

    #[test]
    fn on_the_fly_weak_traces() {
        let with_tau = "behaviour hide m in (m; a; stop)";
        let plain = "behaviour a; stop";
        assert!(Flow::weak_traces_on_the_fly(with_tau, plain, 1 << 16).expect("compares").holds());
        let other = "behaviour b; stop";
        match Flow::weak_traces_on_the_fly(plain, other, 1 << 16).expect("compares") {
            multival_lts::equiv::Verdict::Inequivalent { witness: Some(w) } => {
                assert_eq!(w.len(), 1)
            }
            v => panic!("expected inequivalent with witness, got {v:?}"),
        }
    }

    #[test]
    fn hitting_time_through_facade() {
        // 3-state chain: initial --go--> mid --fin--> end(deadlock).
        let flow = Flow::from_source("behaviour go; fin; stop").expect("parses");
        let mut rates = HashMap::new();
        rates.insert("go".to_owned(), 2.0);
        rates.insert("fin".to_owned(), 2.0);
        let solved = flow.with_rates(&rates).solve(NondetPolicy::Reject, &[]).expect("solves");
        // Functional state 2 is the deadlock (BFS order: 0, 1, 2).
        let t = solved.mean_time_to_states(&[2]).expect("solves");
        assert!((t - 1.0).abs() < 1e-9, "{t}");
    }
}
