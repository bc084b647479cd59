//! Compositional IMC generation: alternate parallel composition and
//! stochastic minimization (the paper's §4 flow), keeping intermediate
//! state spaces small.
//!
//! Experiment E9 uses [`compose_minimize`] with lumping on and off to
//! quantify how much the intermediate minimization buys.

use crate::imc::Imc;
use crate::lump::{lump, LumpOptions, LumpStats};
use crate::ops::{compose, hide};
use multival_lts::ops::Sync;

/// One component of a compositional build, with the synchronization
/// discipline used when it is composed onto the accumulated product —
/// mirroring how LOTOS writes `A |[g1]| B |[g2]| C` with per-operator gate
/// sets. (A single global gate set would block gates whose partner has not
/// been folded in yet.)
#[derive(Debug, Clone)]
pub struct Component {
    /// Display name (for stage statistics).
    pub name: String,
    /// The component IMC.
    pub imc: Imc,
    /// Gates to synchronize with the product built so far (ignored for the
    /// first component).
    pub sync: Sync,
}

impl Component {
    /// Creates a named component synchronized on the given gates.
    pub fn new<I, S>(name: &str, imc: Imc, sync_gates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Component { name: name.to_owned(), imc, sync: Sync::on(sync_gates) }
    }
}

/// Statistics of one composition stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Human-readable description (`"A || B"`).
    pub stage: String,
    /// Product size before minimization.
    pub states_before: usize,
    /// Size after minimization (equals `states_before` when lumping is off).
    pub states_after: usize,
    /// Lumping details, when performed.
    pub lump: Option<LumpStats>,
}

/// Options for the compositional pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Hide these gates after each composition (internalized interfaces),
    /// enabling further reduction.
    pub hide_after: Vec<String>,
    /// Minimize after every composition step.
    pub minimize: bool,
    /// Lumping tolerances.
    pub lump: LumpOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { hide_after: Vec::new(), minimize: true, lump: LumpOptions::default() }
    }
}

/// Left-fold composition of `components` (each with its own sync set) with
/// optional per-stage lumping. Returns the final IMC and per-stage
/// statistics.
///
/// # Panics
///
/// Panics if `components` is empty.
///
/// # Examples
///
/// ```
/// use multival_imc::{ImcBuilder, compositional::{compose_minimize, Component, PipelineOptions}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = |rate: f64| {
///     let mut b = ImcBuilder::new();
///     let (s0, s1) = (b.add_state(), b.add_state());
///     b.markovian(s0, s1, rate).unwrap();
///     b.interactive(s1, "SYNC", s0);
///     b.build(s0)
/// };
/// let comps = vec![
///     Component::new("a", mk(1.0), ["SYNC"]),
///     Component::new("b", mk(1.0), ["SYNC"]),
/// ];
/// let (imc, stages) = compose_minimize(&comps, &PipelineOptions::default());
/// assert_eq!(stages.len(), 2); // initial lump + one composition stage
/// assert!(imc.num_states() <= 4);
/// # Ok(())
/// # }
/// ```
pub fn compose_minimize(
    components: &[Component],
    options: &PipelineOptions,
) -> (Imc, Vec<StageStats>) {
    assert!(!components.is_empty(), "compose_minimize needs at least one component");
    let mut stats = Vec::new();
    let mut acc = components[0].imc.clone();
    let mut acc_name = components[0].name.clone();
    // The initial stage is recorded whether or not minimization is on:
    // `peak_states` uses an *inclusive* peak, and with minimization off the
    // first component can be the largest intermediate of the whole run.
    if options.minimize {
        let (m, ls) = lump(&acc, &options.lump);
        stats.push(StageStats {
            stage: acc_name.clone(),
            states_before: ls.states_before,
            states_after: ls.states_after,
            lump: Some(ls),
        });
        acc = m;
    } else {
        stats.push(StageStats {
            stage: acc_name.clone(),
            states_before: acc.num_states(),
            states_after: acc.num_states(),
            lump: None,
        });
    }
    for c in &components[1..] {
        let product = compose(&acc, &c.imc, &c.sync);
        let product = if options.hide_after.is_empty() {
            product
        } else {
            hide(&product, options.hide_after.iter().cloned())
        };
        let before = product.num_states();
        let stage_name = format!("{acc_name} || {}", c.name);
        if options.minimize {
            let (m, ls) = lump(&product, &options.lump);
            stats.push(StageStats {
                stage: stage_name.clone(),
                states_before: before,
                states_after: m.num_states(),
                lump: Some(ls),
            });
            acc = m;
        } else {
            stats.push(StageStats {
                stage: stage_name.clone(),
                states_before: before,
                states_after: before,
                lump: None,
            });
            acc = product;
        }
        acc_name = stage_name;
    }
    (acc, stats)
}

/// Peak intermediate state count of a pipeline run — the quantity that
/// compositional minimization is designed to keep small.
///
/// The peak is *inclusive*: it counts the pre-minimization product of
/// every stage (matching the inclusive-cap convention of the exploration
/// budgets) as well as each stage's result, so a run whose largest state
/// space was an un-minimized intermediate reports that intermediate.
pub fn peak_states(stages: &[StageStats]) -> usize {
    stages.iter().map(|s| s.states_before.max(s.states_after)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imc::ImcBuilder;

    fn server(rate: f64) -> Imc {
        let mut b = ImcBuilder::new();
        let (s0, s1) = (b.add_state(), b.add_state());
        b.markovian(s0, s1, rate).unwrap();
        b.interactive(s1, "SYNC", s0);
        b.build(s0)
    }

    #[test]
    fn pipeline_with_lumping_is_smaller_or_equal() {
        let comps: Vec<Component> =
            (0..4).map(|i| Component::new(&format!("c{i}"), server(1.0), ["SYNC"])).collect();
        let opts_on = PipelineOptions::default();
        let opts_off = PipelineOptions { minimize: false, ..Default::default() };
        let (on, stages_on) = compose_minimize(&comps, &opts_on);
        let (off, stages_off) = compose_minimize(&comps, &opts_off);
        assert!(peak_states(&stages_on) <= peak_states(&stages_off));
        assert!(on.num_states() <= off.num_states());
        // Symmetric servers lump aggressively: the composed behaviour only
        // tracks how many are ready, not which.
        assert!(on.num_states() < off.num_states());
    }

    #[test]
    fn stage_stats_report_every_step() {
        let comps: Vec<Component> =
            (0..3).map(|i| Component::new(&format!("c{i}"), server(2.0), ["SYNC"])).collect();
        let (_, stages) = compose_minimize(&comps, &PipelineOptions::default());
        // Initial minimize + 2 composition stages.
        assert_eq!(stages.len(), 3);
        assert!(stages[1].stage.contains("||"));
    }

    #[test]
    fn hide_after_enables_tau_elimination_later() {
        let comps: Vec<Component> =
            (0..2).map(|i| Component::new(&format!("c{i}"), server(1.0), ["SYNC"])).collect();
        let opts = PipelineOptions { hide_after: vec!["SYNC".to_owned()], ..Default::default() };
        let (imc, _) = compose_minimize(&comps, &opts);
        assert!(!imc.has_visible());
    }

    #[test]
    fn peak_is_inclusive_of_the_initial_component() {
        // Regression: with minimization off, the first component used to be
        // absent from the stage stats, so a pipeline whose *largest* state
        // space was component 0 under-reported its peak. Craft a network
        // where the big component sits first and every later product is
        // smaller than it.
        let big = {
            let mut b = ImcBuilder::new();
            let states: Vec<_> = (0..12).map(|_| b.add_state()).collect();
            for w in states.windows(2) {
                b.interactive(w[0], "step", w[1]);
            }
            b.interactive(states[11], "SYNC", states[0]);
            b.build(states[0])
        };
        // `small` blocks SYNC forever, so the product collapses onto the
        // big component's chain: 12 · 1 = 12 states, never larger.
        let small = {
            let mut b = ImcBuilder::new();
            let s0 = b.add_state();
            b.build(s0)
        };
        let comps = vec![
            Component::new("big", big, [] as [&str; 0]),
            Component::new("s1", small.clone(), ["SYNC"]),
            Component::new("s2", small, ["SYNC"]),
        ];
        let (_, stages) =
            compose_minimize(&comps, &PipelineOptions { minimize: false, ..Default::default() });
        assert_eq!(stages.len(), 3, "the initial component must be a recorded stage");
        assert_eq!(stages[0].stage, "big");
        assert_eq!(
            peak_states(&stages),
            12,
            "the inclusive peak must count the un-minimized first component"
        );
    }

    #[test]
    fn per_stage_sync_lets_late_partners_join() {
        // Tandem a --h1--> b --h2--> c: h2 must not be blocked while only
        // a||b exist. With per-stage sync this works out of the box.
        let mk_fwd = |inp: &str, outp: &str| {
            let mut b = ImcBuilder::new();
            let s0 = b.add_state();
            let s1 = b.add_state();
            b.interactive(s0, inp, s1);
            b.interactive(s1, outp, s0);
            b.build(s0)
        };
        let src = {
            let mut b = ImcBuilder::new();
            let s0 = b.add_state();
            let s1 = b.add_state();
            b.markovian(s0, s1, 1.0).unwrap();
            b.interactive(s1, "h1", s0);
            b.build(s0)
        };
        let comps = vec![
            Component::new("src", src, [] as [&str; 0]),
            Component::new("fwd1", mk_fwd("h1", "h2"), ["h1"]),
            Component::new("fwd2", mk_fwd("h2", "h3"), ["h2"]),
        ];
        let (imc, _) =
            compose_minimize(&comps, &PipelineOptions { minimize: false, ..Default::default() });
        // h3 must be reachable.
        let lts = imc.to_lts();
        let h3 = multival_lts::analysis::find_action(&lts, |l| l == "h3");
        assert!(h3.is_some(), "late-joined partner must not be blocked");
    }
}
