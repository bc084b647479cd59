//! The evaluation core shared by the CLI ([`crate::cli`]) and the service
//! (`multival-svc`). Each front end parses its own request type and renders
//! its own output; the decisions in between are made here once: how a
//! model is loaded ([`load`]), which budget applies ([`Limits`]), which
//! exploration aborts are budget trips ([`settle`]), and how the layers
//! after loading are set up ([`rated`], [`reduce`], [`mc_options`]).

use crate::budget::Budget;
use crate::flow::{Flow, PerfFlow};
use multival_ctmc::McOptions;
use multival_lts::io::{read_aut, read_blts};
use multival_lts::pipeline::{run_pipeline, Network, PipelineOptions, PipelineRun};
use multival_lts::Lts;
use multival_models::common::explore_model;
use multival_models::fame2::coherence::Protocol;
use multival_models::fame2::mpi::{MpiConfig, MpiImpl, MpiModel};
use multival_models::fame2::topology::Topology;
use multival_models::faust::noc::single_packet_source;
use multival_models::xstream::perf::{explore_pipeline, PerfConfig};
use multival_pa::{explore_partial, parse_spec, ExploreError, ExploreOptions};
use multival_par::Workers;
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// State ceiling of an evaluation whose budget sets none.
pub const DEFAULT_MAX_STATES: usize = 1_000_000;

/// A [`Budget`] resolved when an evaluation starts: the state ceiling with
/// the default filled in, and one absolute deadline that every layer of
/// the evaluation shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on explored states and on every intermediate product.
    pub max_states: usize,
    /// Wall-clock deadline, `None` = unlimited.
    pub deadline: Option<Instant>,
}

impl Limits {
    /// Starts the clock on `budget`.
    #[must_use]
    pub fn start(budget: &Budget) -> Limits {
        Limits { max_states: budget.max_states_or(DEFAULT_MAX_STATES), deadline: budget.deadline() }
    }

    /// Exploration options that honor these limits.
    #[must_use]
    pub fn explore_options(&self) -> ExploreOptions {
        let options = ExploreOptions::with_max_states(self.max_states);
        match self.deadline {
            Some(deadline) => options.with_deadline(deadline),
            None => options,
        }
    }
}

/// The limits of a verb without budget flags: the default ceiling and no
/// deadline.
impl Default for Limits {
    fn default() -> Limits {
        Limits::start(&Budget::default())
    }
}

/// Where a model comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model<'a> {
    /// A file: `.aut` (Aldebaran text) and `.blts` (compact binary) are
    /// read as LTSs, anything else is parsed as mini-LOTOS.
    Path(&'a str),
    /// Inline mini-LOTOS source.
    Source(&'a str),
    /// Inline Aldebaran text.
    Aut(&'a str),
    /// A built-in case study (see [`builtin_names`]).
    Builtin(&'a str),
}

/// A model as read, before any exploration.
#[derive(Debug)]
pub enum Input<'a> {
    /// An explicit LTS.
    Lts(Lts),
    /// Mini-LOTOS source text.
    Source(Cow<'a, str>),
}

/// Reads `model` without exploring it.
///
/// # Errors
///
/// Returns I/O and LTS decode errors, and unknown builtin names.
pub fn read(model: Model<'_>) -> Result<Input<'_>, Box<dyn Error>> {
    let cannot_read = |path: &str, e: std::io::Error| format!("cannot read `{path}`: {e}");
    Ok(match model {
        Model::Path(path) if path.ends_with(".blts") => {
            Input::Lts(read_blts(&std::fs::read(path).map_err(|e| cannot_read(path, e))?)?)
        }
        Model::Path(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| cannot_read(path, e))?;
            if path.ends_with(".aut") {
                Input::Lts(read_aut(&text)?)
            } else {
                Input::Source(Cow::Owned(text))
            }
        }
        Model::Source(text) => Input::Source(Cow::Borrowed(text)),
        Model::Aut(text) => Input::Lts(read_aut(text)?),
        Model::Builtin(name) => Input::Lts(builtin_lts(name)?),
    })
}

/// Exploration stopped by the budget: the state cap
/// ([`ExploreError::Explosion`]) or the deadline
/// ([`ExploreError::Deadline`]).
#[derive(Debug)]
pub struct Trip {
    /// Why exploration stopped.
    pub reason: ExploreError,
    /// The states and transitions admitted before the trip.
    pub partial: Lts,
}

/// `Budget exceeded: REASON`, the report of every verb that withholds its
/// answer on a trip. The alternate form (`{:#}`) is `explore`'s, which
/// reports the partial state space instead.
impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write!(
                f,
                "warning: exploration aborted: {}\n\
                 Budget exceeded; reporting the partial state space",
                self.reason
            )
        } else {
            write!(f, "Budget exceeded: {}", self.reason)
        }
    }
}

/// A loaded model: the complete LTS, or the [`Trip`] that stopped its
/// exploration.
pub type Loaded = Result<Lts, Trip>;

/// Sorts the outcome of an exploration that kept its partial work: only
/// the state cap and the deadline are budget trips; a semantics error is
/// a modeling error and comes back as `Err`.
///
/// # Errors
///
/// Returns [`ExploreError::Semantics`] aborts.
pub fn settle(lts: Lts, aborted: Option<ExploreError>) -> Result<Loaded, ExploreError> {
    match aborted {
        None => Ok(Ok(lts)),
        Some(reason @ (ExploreError::Explosion { .. } | ExploreError::Deadline { .. })) => {
            Ok(Err(Trip { reason, partial: lts }))
        }
        Some(error) => Err(error),
    }
}

/// Loads `model` under `limits`: LTS inputs are read as they are, and a
/// mini-LOTOS source is explored up to the state ceiling and the deadline.
///
/// # Errors
///
/// Returns read, decode and parse errors and modeling errors; a budget
/// trip is not an error but an `Ok(Err(trip))`.
pub fn load(model: Model<'_>, limits: &Limits) -> Result<Loaded, Box<dyn Error>> {
    match read(model)? {
        Input::Lts(lts) => Ok(Ok(lts)),
        Input::Source(text) => {
            let spec = parse_spec(&text)?;
            let run = explore_partial(&spec, &limits.explore_options());
            Ok(settle(run.explored.lts, run.aborted)?)
        }
    }
}

/// The performance model of `lts`: every gate named in `rates` becomes an
/// exponential delay of that rate.
#[must_use]
pub fn rated(lts: Lts, rates: &[(String, f64)]) -> PerfFlow {
    let rates: HashMap<String, f64> = rates.iter().cloned().collect();
    Flow::from_lts(lts).with_rates(&rates)
}

/// Compositional reduction of a mini-LOTOS model's component network.
/// `options` carries the front end's choices (equivalence, order, workers,
/// store, checkpoints); the state ceiling and the deadline come from
/// `limits`.
///
/// # Errors
///
/// Returns read and parse errors, an error for an LTS input (it has no
/// parallel structure left to reduce), and network extraction errors. A
/// budget trip is reported by the run's `abort`.
pub fn reduce(
    model: Model<'_>,
    options: PipelineOptions,
    limits: &Limits,
) -> Result<(Network, PipelineRun), Box<dyn Error>> {
    let Input::Source(text) = read(model)? else {
        return Err("reduce needs a mini-LOTOS model: a .aut/.blts file has no \
                    parallel structure left to reduce compositionally"
            .into());
    };
    let spec = parse_spec(&text)?;
    // Components explore under the default cap: the limits bound the
    // intermediate *products*, which is where compositional state spaces
    // actually blow up.
    let network = multival_pa::extract_network(&spec, &ExploreOptions::default())?;
    let options = PipelineOptions {
        max_states: Some(limits.max_states),
        deadline: limits.deadline,
        ..options
    };
    let run = run_pipeline(&network, &options);
    Ok((network, run))
}

/// Monte-Carlo options of a `simulate` evaluation: the request's seed,
/// workers and trajectory cap, and the evaluation's deadline (checked
/// between batches).
#[must_use]
pub fn mc_options(
    seed: u64,
    workers: Workers,
    max_trajectories: usize,
    limits: &Limits,
) -> McOptions {
    McOptions { seed, workers, max_trajectories, deadline: limits.deadline, ..McOptions::default() }
}

/// The names accepted as [`Model::Builtin`], in stable order.
#[must_use]
pub fn builtin_names() -> [&'static str; 3] {
    ["xstream_pipeline", "fame2_ping_pong", "faust_single_packet"]
}

/// Materializes a built-in case study as an LTS.
///
/// # Errors
///
/// Returns a message for unknown names or (theoretical) exploration caps.
pub fn builtin_lts(name: &str) -> Result<Lts, String> {
    match name {
        "xstream_pipeline" => Ok(explore_pipeline(&PerfConfig::default())
            .map_err(|e| format!("xstream_pipeline: {e}"))?
            .lts),
        "fame2_ping_pong" => {
            let config = MpiConfig {
                topology: Topology::Crossbar(2),
                protocol: Protocol::Msi,
                implementation: MpiImpl::Eager,
                payload: 1,
            };
            Ok(explore_model(&MpiModel::ping_pong(config), 4_000_000)
                .map_err(|e| format!("fame2_ping_pong: {e}"))?
                .lts)
        }
        "faust_single_packet" => {
            let spec = parse_spec(&single_packet_source(3))
                .map_err(|e| format!("faust_single_packet: {e}"))?;
            let explored = explore_partial(&spec, &ExploreOptions::default());
            match explored.aborted {
                Some(e) => Err(format!("faust_single_packet: {e}")),
                None => Ok(explored.explored.lts),
            }
        }
        other => Err(format!(
            "unknown builtin model `{other}` (expected one of {})",
            builtin_names().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unbounded interleaving: every cap trips.
    const GROWING: &str = "process P[a] := a; P[a] ||| a; P[a] endproc behaviour P[a]";

    #[test]
    fn load_keeps_the_partial_lts_of_a_cap_trip() {
        let limits = Limits { max_states: 8, deadline: None };
        let trip = load(Model::Source(GROWING), &limits).expect("loads").expect_err("trips");
        assert_eq!(trip.partial.num_states(), 8);
        assert!(matches!(trip.reason, ExploreError::Explosion { states: 8, .. }), "{trip}");
        assert!(trip.to_string().starts_with("Budget exceeded: state-space explosion"), "{trip}");
        // A model within the ceiling loads completely.
        let lts = load(Model::Source("behaviour a; b; stop"), &limits).expect("loads");
        assert_eq!(lts.expect("no trip").num_states(), 3);
    }

    #[test]
    fn a_passed_deadline_is_a_trip() {
        let limits = Limits { max_states: 1 << 20, deadline: Some(Instant::now()) };
        let trip = load(Model::Source(GROWING), &limits).expect("loads").expect_err("trips");
        assert!(matches!(trip.reason, ExploreError::Deadline { .. }), "{trip}");
        assert!(trip.to_string().starts_with("Budget exceeded: wall-clock budget"), "{trip}");
    }

    #[test]
    fn a_modeling_error_is_an_error_not_a_trip() {
        let looped = "process Loop[a] := Loop[a] endproc behaviour a; Loop[a]";
        let err = load(Model::Source(looped), &Limits::default()).expect_err("modeling error");
        let text = err.to_string();
        assert!(text.starts_with("unguarded recursion while unfolding `Loop`"), "{text}");
        assert!(!text.contains("Budget exceeded"), "{text}");
    }

    /// The flagless verbs (`minimize`, `compare`, `refines`, `walk`,
    /// `solve`) load under `Limits::default()`: the default ceiling trips
    /// like any other cap. Exploring a million states is too slow for a
    /// debug test, so the ceiling is checked as a value and the trip on a
    /// smaller cap.
    #[test]
    fn flagless_verbs_get_the_default_ceiling() {
        let limits = Limits::default();
        assert_eq!(limits, Limits { max_states: DEFAULT_MAX_STATES, deadline: None });
        assert_eq!(limits.explore_options().max_states, DEFAULT_MAX_STATES);
        let capped = Limits::start(&Budget::default().with_max_states(5));
        assert_eq!(capped.max_states, 5);
        assert!(load(Model::Source(GROWING), &capped).expect("loads").is_err());
    }

    #[test]
    fn one_deadline_per_evaluation() {
        let budget = Budget::default().with_timeout_secs(60);
        let limits = Limits::start(&budget);
        let deadline = limits.deadline.expect("deadline set");
        assert_eq!(limits.explore_options().deadline, Some(deadline));
        let mc = mc_options(7, Workers::sequential(), 100, &limits);
        assert_eq!(mc.deadline, Some(deadline), "simulation shares the exploration's deadline");
    }

    #[test]
    fn paths_dispatch_on_their_extension() {
        let dir = std::env::temp_dir().join("multival-eval-read");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let lot = dir.join("m.lot");
        let aut = dir.join("m.aut");
        let blts = dir.join("m.blts");
        std::fs::write(&lot, "behaviour a; stop").expect("write");
        let lts = load(Model::Path(&lot.to_string_lossy()), &Limits::default())
            .expect("loads")
            .expect("no trip");
        std::fs::write(&aut, multival_lts::io::write_aut(&lts)).expect("write");
        std::fs::write(&blts, multival_lts::io::write_blts(&lts)).expect("write");
        for path in [&aut, &blts] {
            match read(Model::Path(&path.to_string_lossy())).expect("reads") {
                Input::Lts(read) => assert_eq!(read.num_transitions(), 1),
                Input::Source(_) => panic!("{} is an LTS", path.display()),
            }
        }
        assert!(matches!(read(Model::Path(&lot.to_string_lossy())), Ok(Input::Source(_))));
        let err = read(Model::Path("no/such/model.aut")).expect_err("missing file");
        assert!(err.to_string().starts_with("cannot read `no/such/model.aut`"), "{err}");
    }

    #[test]
    fn reduce_rejects_lts_inputs() {
        let ring = "des (0, 1, 1)\n(0, \"a\", 0)\n";
        let err = reduce(Model::Aut(ring), PipelineOptions::default(), &Limits::default())
            .expect_err("an LTS has no network");
        assert!(err.to_string().contains("parallel structure"), "{err}");
    }
}
