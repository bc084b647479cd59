//! IMC → CTMC transformation ("the decorated model … is then transformed
//! into a Markov chain", §4 of the paper).
//!
//! After hiding all visible actions and applying maximal progress, internal
//! (τ or *probe*) transitions are instantaneous: states offering them are
//! *vanishing* and are eliminated by computing their absorption
//! distributions into *tangible* states — exactly like vanishing-marking
//! elimination in GSPNs.
//!
//! Nondeterministic internal choice (the paper's §5 open issue) is handled
//! by an explicit [`NondetPolicy`]:
//! * [`NondetPolicy::Reject`] mirrors CADP's solvers, which "currently do
//!   not accept" nondeterminism — conversion fails with a diagnostic;
//! * [`NondetPolicy::Uniform`] resolves internal choices uniformly (a
//!   specific randomized scheduler);
//! * for *bounds over all schedulers*, use [`to_ctmdp_lifted`] and the
//!   `multival-ctmc` value-iteration solvers.
//!
//! *Probes* are visible labels that should survive into the chain for
//! throughput measurement: they are treated exactly like τ for timing
//! purposes, but every traversal is counted, yielding per-state label flow
//! rates for [`probe_throughputs`].

use crate::imc::{Imc, State};
use multival_ctmc::{ActionChoice, Ctmc, CtmcBuilder, Ctmdp};
use std::collections::HashMap;
use std::fmt;

/// How to treat internal nondeterminism during conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetPolicy {
    /// Fail on any state with more than one internal successor (the
    /// behaviour of CADP's Markov solvers at the time of the paper).
    Reject,
    /// Resolve internal choices uniformly at random.
    Uniform,
}

/// Error during IMC → CTMC conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCtmcError {
    /// Visible labels remain: hide them (or list them as probes) first.
    VisibleLabels(Vec<String>),
    /// Internal nondeterminism under [`NondetPolicy::Reject`].
    Nondeterministic {
        /// The offending state.
        state: State,
        /// Number of distinct internal successors.
        choices: usize,
    },
    /// A τ-cycle with no Markovian escape: time cannot progress (the
    /// probabilistic counterpart of a livelock).
    Timelock {
        /// A state on the divergent τ-cycle.
        state: State,
    },
    /// A numeric stage failed.
    Numeric(String),
}

impl fmt::Display for ToCtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToCtmcError::VisibleLabels(ls) => {
                write!(f, "IMC still has visible labels: {}", ls.join(", "))
            }
            ToCtmcError::Nondeterministic { state, choices } => write!(
                f,
                "internal nondeterminism at state {state} ({choices} choices); \
                 CADP-style solvers reject this — use NondetPolicy::Uniform or to_ctmdp_lifted"
            ),
            ToCtmcError::Timelock { state } => {
                write!(f, "τ-cycle without Markovian escape at state {state} (timelock)")
            }
            ToCtmcError::Numeric(m) => write!(f, "numeric failure: {m}"),
        }
    }
}

impl std::error::Error for ToCtmcError {}

/// The result of a successful conversion.
#[derive(Debug, Clone)]
pub struct CtmcConversion {
    /// The resulting chain over tangible states.
    pub ctmc: Ctmc,
    /// For each IMC state, its CTMC state (tangible states only).
    pub state_map: Vec<Option<usize>>,
    /// `probe_flow[p][c]` = expected number of probe-`p` crossings per unit
    /// time contributed while the chain resides in CTMC state `c`, *per unit
    /// rate already weighted* — multiply by the steady-state distribution and
    /// sum to get throughputs (see [`probe_throughputs`]).
    pub probe_flow: Vec<(String, Vec<f64>)>,
}

/// The distinct `(probe index or none, target)` internal options of one
/// state.
type InternalOptions = Vec<(Option<usize>, State)>;

/// Checks that every interactive label is internal (τ or a probe) and
/// returns the dedup'd internal successor lists: `internal[s]` holds the
/// distinct `(probe index or none, target)` options of state `s`.
fn internal_successors(imc: &Imc, probes: &[&str]) -> Result<Vec<InternalOptions>, ToCtmcError> {
    let n = imc.num_states();
    let is_probe = |name: &str| probes.contains(&name);
    {
        let mut offending: Vec<String> =
            imc.visible_labels().into_iter().filter(|l| !is_probe(l)).collect();
        offending.dedup();
        if !offending.is_empty() {
            return Err(ToCtmcError::VisibleLabels(offending));
        }
    }
    let probe_index: HashMap<String, usize> =
        probes.iter().enumerate().map(|(i, p)| (p.to_string(), i)).collect();
    let mut internal: Vec<Vec<(Option<usize>, State)>> = vec![Vec::new(); n];
    for s in 0..n as State {
        let mut seen = std::collections::HashSet::new();
        for t in imc.interactive_from(s) {
            let p =
                if t.label.is_tau() { None } else { Some(probe_index[imc.labels().name(t.label)]) };
            if seen.insert((p, t.target)) {
                internal[s as usize].push((p, t.target));
            }
        }
    }
    Ok(internal)
}

/// Converts a closed IMC (all interactive transitions τ or listed in
/// `probes`) into a CTMC.
///
/// # Errors
///
/// See [`ToCtmcError`].
///
/// # Examples
///
/// ```
/// use multival_imc::{ImcBuilder, to_ctmc::{to_ctmc, NondetPolicy}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ImcBuilder::new();
/// let s0 = b.add_state();
/// let s1 = b.add_state();
/// let s2 = b.add_state();
/// b.markovian(s0, s1, 2.0)?;
/// b.interactive(s1, "i", s2);   // vanishing state
/// b.markovian(s2, s0, 1.0)?;
/// let conv = to_ctmc(&b.build(s0), NondetPolicy::Reject, &[])?;
/// assert_eq!(conv.ctmc.num_states(), 2); // s1 eliminated
/// # Ok(())
/// # }
/// ```
pub fn to_ctmc(
    imc: &Imc,
    policy: NondetPolicy,
    probes: &[&str],
) -> Result<CtmcConversion, ToCtmcError> {
    let n = imc.num_states();
    let internal = internal_successors(imc, probes)?;
    let vanishing: Vec<bool> = (0..n).map(|s| !internal[s].is_empty()).collect();
    if policy == NondetPolicy::Reject {
        for (s, succ) in internal.iter().enumerate() {
            if succ.len() > 1 {
                return Err(ToCtmcError::Nondeterministic {
                    state: s as State,
                    choices: succ.len(),
                });
            }
        }
    }

    // Absorption of vanishing states into tangible states + expected probe
    // crossings, by Gauss–Seidel over sparse maps.
    // A[v]: map tangible -> probability; C[v]: crossings per probe.
    let mut absorb: Vec<HashMap<State, f64>> = vec![HashMap::new(); n];
    let mut crossings: Vec<Vec<f64>> = vec![vec![0.0; probes.len()]; n];
    {
        let vanishing_states: Vec<usize> = (0..n).filter(|&s| vanishing[s]).collect();
        let max_iter = 100_000;
        let tol = 1e-12;
        let mut iter = 0;
        loop {
            iter += 1;
            let mut delta: f64 = 0.0;
            for &v in &vanishing_states {
                let k = internal[v].len() as f64;
                let mut new_a: HashMap<State, f64> = HashMap::new();
                let mut new_c = vec![0.0; probes.len()];
                for &(p, w) in &internal[v] {
                    let weight = 1.0 / k;
                    if let Some(pi) = p {
                        new_c[pi] += weight;
                    }
                    if vanishing[w as usize] {
                        for (&u, &q) in &absorb[w as usize] {
                            *new_a.entry(u).or_insert(0.0) += weight * q;
                        }
                        for (pi, &c) in crossings[w as usize].iter().enumerate() {
                            new_c[pi] += weight * c;
                        }
                    } else {
                        *new_a.entry(w).or_insert(0.0) += weight;
                    }
                }
                // Convergence tracking on total absorbed mass and crossings.
                let old_mass: f64 = absorb[v].values().sum();
                let new_mass: f64 = new_a.values().sum();
                delta = delta.max((new_mass - old_mass).abs());
                for (o, nw) in crossings[v].iter().zip(&new_c) {
                    delta = delta.max((nw - o).abs());
                }
                absorb[v] = new_a;
                crossings[v] = new_c;
            }
            if delta < tol {
                break;
            }
            if iter > max_iter {
                return Err(ToCtmcError::Numeric(format!(
                    "vanishing-state elimination did not converge (residual {delta:.3e})"
                )));
            }
        }
        // Timelock check: every vanishing state must absorb with mass ~1.
        for &v in &vanishing_states {
            let mass: f64 = absorb[v].values().sum();
            if mass < 1.0 - 1e-6 {
                return Err(ToCtmcError::Timelock { state: v as State });
            }
        }
    }

    // Enumerate tangible states.
    let mut state_map: Vec<Option<usize>> = vec![None; n];
    let mut tangible: Vec<State> = Vec::new();
    for s in 0..n {
        if !vanishing[s] {
            state_map[s] = Some(tangible.len());
            tangible.push(s as State);
        }
    }
    if tangible.is_empty() {
        return Err(ToCtmcError::Timelock { state: imc.initial() });
    }

    let mut builder = CtmcBuilder::new(tangible.len());
    let mut probe_flow: Vec<Vec<f64>> = vec![vec![0.0; tangible.len()]; probes.len()];
    for (ci, &s) in tangible.iter().enumerate() {
        for m in imc.markovian_from(s) {
            let t = m.target;
            if !vanishing[t as usize] {
                builder
                    .rate(ci, state_map[t as usize].expect("tangible"), m.rate)
                    .map_err(|e| ToCtmcError::Numeric(e.to_string()))?;
            } else {
                for (&u, &q) in &absorb[t as usize] {
                    let r = m.rate * q;
                    if r > 0.0 {
                        builder
                            .rate(ci, state_map[u as usize].expect("tangible"), r)
                            .map_err(|e| ToCtmcError::Numeric(e.to_string()))?;
                    }
                }
                for (pi, &c) in crossings[t as usize].iter().enumerate() {
                    probe_flow[pi][ci] += m.rate * c;
                }
            }
        }
    }

    // Initial distribution: the IMC initial state, redistributed if
    // vanishing.
    let init = imc.initial();
    let dist: Vec<(usize, f64)> = if vanishing[init as usize] {
        absorb[init as usize]
            .iter()
            .map(|(&u, &q)| (state_map[u as usize].expect("tangible"), q))
            .collect()
    } else {
        vec![(state_map[init as usize].expect("tangible"), 1.0)]
    };
    builder.set_initial(dist).map_err(|e| ToCtmcError::Numeric(e.to_string()))?;

    Ok(CtmcConversion {
        ctmc: builder.build().map_err(|e| ToCtmcError::Numeric(e.to_string()))?,
        state_map,
        probe_flow: probes.iter().map(|p| p.to_string()).zip(probe_flow).collect(),
    })
}

/// Steady-state throughput of each probe label: Σ_c π(c) · flow(c).
///
/// # Errors
///
/// Propagates solver errors from the steady-state computation.
pub fn probe_throughputs(
    conv: &CtmcConversion,
    options: &multival_ctmc::SolveOptions,
) -> Result<Vec<(String, f64)>, multival_ctmc::CtmcError> {
    let pi = multival_ctmc::steady::steady_state(&conv.ctmc, options)?;
    Ok(conv
        .probe_flow
        .iter()
        .map(|(name, flow)| {
            let tp: f64 = pi.iter().zip(flow).map(|(&p, &f)| p * f).sum();
            (name.clone(), tp)
        })
        .collect())
}

/// The result of a choice-preserving IMC → CTMDP lifting
/// ([`to_ctmdp_lifted`]).
#[derive(Debug, Clone)]
pub struct CtmdpConversion {
    /// The lifted process: tangible states with one combined Markovian
    /// choice, nondeterministic vanishing states as *instant* states with
    /// one probability-1 choice per internal option.
    pub mdp: Ctmdp,
    /// For each IMC state, its CTMDP state — `None` for *deterministic*
    /// vanishing states, which are eliminated exactly as in [`to_ctmc`].
    pub state_map: Vec<Option<usize>>,
    /// For each IMC state, the CTMDP state standing in for it: itself if
    /// kept, the endpoint of its τ-chain if eliminated. Use this to map
    /// target sets of reachability measures.
    pub resolved: Vec<usize>,
    /// Per probe: `impulse[s][a]` = expected crossings of the probe per
    /// transition taken from CTMDP state `s` under choice `a` (shaped for
    /// [`Ctmdp::long_run_average`]).
    pub probe_impulse: Vec<(String, Vec<Vec<f64>>)>,
    /// The CTMDP initial state (the IMC initial, resolved through any
    /// eliminated τ-chain).
    pub initial: usize,
}

/// Converts a closed IMC (all interactive transitions τ or listed in
/// `probes`) into a CTMDP, *preserving* internal nondeterminism as
/// scheduler choices instead of rejecting or uniformizing it.
///
/// Deterministic vanishing states — exactly one internal option — are
/// eliminated by following their τ-chain and accumulating probe crossings,
/// as in [`to_ctmc`]; by Bellman optimality a scheduler gains nothing from
/// them, so no choice structure is lost. Nondeterministic vanishing states
/// become *instant* CTMDP states ([`Ctmdp::set_instant`]) with one
/// probability-1 choice per internal option: zero sojourn time, true
/// zero-cost preemption, with no pseudo-rate skew on expected times.
/// Tangible states keep their Markovian race as a
/// single combined choice (the race is resolved by the exponential clocks,
/// not by the scheduler).
///
/// A vanishing state *between* two nondeterministic choices (reachable in
/// the FAME2 coherence model) is handled: its chain simply ends at the next
/// kept state.
///
/// # Errors
///
/// [`ToCtmcError::VisibleLabels`] if unhidden non-probe labels remain,
/// [`ToCtmcError::Timelock`] on a deterministic τ-cycle or when no tangible
/// state exists at all.
///
/// # Examples
///
/// ```
/// use multival_imc::{ImcBuilder, to_ctmc::to_ctmdp_lifted};
/// use multival_ctmc::Opt;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A scheduler routes each job to a fast (rate 10) or slow (rate 1)
/// // server; the choice state is vanishing and nondeterministic.
/// let mut b = ImcBuilder::new();
/// let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
/// b.interactive(s[0], "i", s[1]);
/// b.interactive(s[0], "i", s[2]);
/// b.markovian(s[1], s[3], 10.0)?;
/// b.markovian(s[2], s[3], 1.0)?;
/// let conv = to_ctmdp_lifted(&b.build(s[0]), &[])?;
/// let target = conv.resolved[s[3] as usize];
/// let lo = conv.mdp.expected_time_to_reach(&[target], Opt::Min, 1e-12, 100_000)?;
/// assert!((lo[conv.initial] - 0.1).abs() < 1e-9); // exactly 1/10, no 1e-9 skew
/// # Ok(())
/// # }
/// ```
pub fn to_ctmdp_lifted(imc: &Imc, probes: &[&str]) -> Result<CtmdpConversion, ToCtmcError> {
    let n = imc.num_states();
    let internal = internal_successors(imc, probes)?;
    let det: Vec<bool> = internal.iter().map(|opts| opts.len() == 1).collect();

    // Resolve each deterministic vanishing state to the endpoint of its
    // τ-chain plus the probe crossings collected along it (memoized walks).
    let mut chain: Vec<Option<(State, Vec<f64>)>> = vec![None; n];
    for s0 in 0..n {
        if !det[s0] || chain[s0].is_some() {
            continue;
        }
        let mut path: Vec<State> = Vec::new();
        let mut on_path = std::collections::HashSet::new();
        let mut cur = s0 as State;
        while det[cur as usize] && chain[cur as usize].is_none() {
            if !on_path.insert(cur) {
                return Err(ToCtmcError::Timelock { state: cur });
            }
            path.push(cur);
            cur = internal[cur as usize][0].1;
        }
        let (endpoint, mut acc) = match &chain[cur as usize] {
            Some((e, c)) => (*e, c.clone()),
            None => (cur, vec![0.0; probes.len()]),
        };
        for &v in path.iter().rev() {
            if let Some(pi) = internal[v as usize][0].0 {
                acc[pi] += 1.0;
            }
            chain[v as usize] = Some((endpoint, acc.clone()));
        }
    }
    // Resolves an IMC state to (kept state, crossings along the way).
    let resolve = |s: State| -> (State, Option<&Vec<f64>>) {
        match &chain[s as usize] {
            Some((e, c)) => (*e, Some(c)),
            None => (s, None),
        }
    };

    // Kept states: tangible ones and nondeterministic vanishing ones.
    let mut state_map: Vec<Option<usize>> = vec![None; n];
    let mut kept: Vec<State> = Vec::new();
    let mut any_tangible = false;
    for s in 0..n {
        if !det[s] {
            state_map[s] = Some(kept.len());
            kept.push(s as State);
            if internal[s].is_empty() {
                any_tangible = true;
            }
        }
    }
    if !any_tangible {
        return Err(ToCtmcError::Timelock { state: imc.initial() });
    }

    let mut mdp = Ctmdp::new(kept.len());
    let mut impulse: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); kept.len()]; probes.len()];
    for (idx, &s) in kept.iter().enumerate() {
        if !internal[s as usize].is_empty() {
            // Nondeterministic vanishing state → instant choices.
            mdp.set_instant(idx);
            for &(p, w) in &internal[s as usize] {
                let (endpoint, crossed) = resolve(w);
                let target = state_map[endpoint as usize].expect("chain ends at a kept state");
                mdp.add_choice(idx, ActionChoice { name: None, transitions: vec![(target, 1.0)] });
                for (pi, rows) in impulse.iter_mut().enumerate() {
                    let mut c = crossed.map_or(0.0, |cs| cs[pi]);
                    if p == Some(pi) {
                        c += 1.0;
                    }
                    rows[idx].push(c);
                }
            }
        } else if !imc.markovian_from(s).is_empty() {
            // Tangible state → one combined Markovian choice; targets are
            // resolved through eliminated chains, rates aggregated per
            // endpoint in state order for deterministic output.
            let mut agg: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
            let exit: f64 = imc.markovian_from(s).iter().map(|m| m.rate).sum();
            let mut per_jump = vec![0.0; probes.len()];
            for m in imc.markovian_from(s) {
                let (endpoint, crossed) = resolve(m.target);
                let target = state_map[endpoint as usize].expect("chain ends at a kept state");
                *agg.entry(target).or_insert(0.0) += m.rate;
                if let Some(cs) = crossed {
                    for (pi, &c) in cs.iter().enumerate() {
                        per_jump[pi] += (m.rate / exit) * c;
                    }
                }
            }
            mdp.add_choice(
                idx,
                ActionChoice { name: None, transitions: agg.into_iter().collect() },
            );
            for (pi, rows) in impulse.iter_mut().enumerate() {
                rows[idx].push(per_jump[pi]);
            }
        }
        // Absorbing tangible states keep zero choices (and empty impulse
        // rows, matching the choice arity).
    }

    let resolved: Vec<usize> = (0..n as State)
        .map(|s| state_map[resolve(s).0 as usize].expect("resolution ends at a kept state"))
        .collect();
    let initial = resolved[imc.initial() as usize];
    Ok(CtmdpConversion {
        mdp,
        state_map,
        resolved,
        probe_impulse: probes.iter().map(|p| p.to_string()).zip(impulse).collect(),
        initial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imc::ImcBuilder;
    use multival_ctmc::steady::SolveOptions;
    use multival_ctmc::Opt;

    #[test]
    fn deterministic_tau_chain_eliminated() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 2.0).unwrap();
        b.interactive(s[1], "i", s[2]);
        b.interactive(s[2], "i", s[3]);
        b.markovian(s[3], s[0], 1.0).unwrap();
        let conv = to_ctmc(&b.build(s[0]), NondetPolicy::Reject, &[]).expect("converts");
        assert_eq!(conv.ctmc.num_states(), 2);
        // Rate structure: 0 →2.0→ {3}, {3} →1.0→ 0.
        let pi = multival_ctmc::steady::steady_state(&conv.ctmc, &SolveOptions::default())
            .expect("solves");
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn visible_labels_rejected() {
        let mut b = ImcBuilder::new();
        let s0 = b.add_state();
        b.interactive(s0, "OOPS", s0);
        let err = to_ctmc(&b.build(s0), NondetPolicy::Reject, &[]).expect_err("visible");
        assert!(matches!(err, ToCtmcError::VisibleLabels(ref v) if v == &vec!["OOPS".to_owned()]));
    }

    #[test]
    fn nondeterminism_rejected_then_uniform() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 1.0).unwrap();
        b.interactive(s[1], "i", s[2]);
        b.interactive(s[1], "i", s[3]);
        b.markovian(s[2], s[0], 10.0).unwrap();
        b.markovian(s[3], s[0], 1.0).unwrap();
        let imc = b.build(s[0]);
        assert!(matches!(
            to_ctmc(&imc, NondetPolicy::Reject, &[]),
            Err(ToCtmcError::Nondeterministic { state: 1, choices: 2 })
        ));
        let conv = to_ctmc(&imc, NondetPolicy::Uniform, &[]).expect("uniform resolves");
        // 0 → (0.5 to fast 2, 0.5 to slow 3).
        let from0: f64 =
            conv.ctmc.transitions_from(conv.state_map[0].unwrap()).iter().map(|t| t.rate).sum();
        assert!((from0 - 1.0).abs() < 1e-9);
        assert_eq!(conv.ctmc.transitions_from(conv.state_map[0].unwrap()).len(), 2);
    }

    #[test]
    fn timelock_detected() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 1.0).unwrap();
        b.interactive(s[1], "i", s[2]);
        b.interactive(s[2], "i", s[1]); // τ-cycle, no escape
        let err = to_ctmc(&b.build(s[0]), NondetPolicy::Uniform, &[]).expect_err("timelock");
        assert!(matches!(err, ToCtmcError::Timelock { .. }));
    }

    #[test]
    fn tau_cycle_with_escape_converges() {
        // v1 → v2 → v1 with v2 also escaping to tangible u: absorption is
        // still total (geometric escape).
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 1.0).unwrap();
        b.interactive(s[1], "i", s[2]);
        b.interactive(s[2], "i", s[1]);
        b.interactive(s[2], "i", s[3]);
        b.markovian(s[3], s[0], 1.0).unwrap();
        let conv = to_ctmc(&b.build(s[0]), NondetPolicy::Uniform, &[]).expect("converges");
        assert_eq!(conv.ctmc.num_states(), 2);
    }

    #[test]
    fn probes_counted_in_throughput() {
        // 0 -λ-> v --PROBE--> 0' : every Markovian firing crosses PROBE once.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 2.0).unwrap();
        b.interactive(s[1], "PROBE", s[2]);
        b.markovian(s[2], s[0], 2.0).unwrap();
        let conv = to_ctmc(&b.build(s[0]), NondetPolicy::Reject, &["PROBE"]).expect("converts");
        let tp = probe_throughputs(&conv, &SolveOptions::default()).expect("solves");
        // Steady state: two states each with exit rate 2 → π = (1/2, 1/2);
        // PROBE crossed at rate 2 from state 0 → throughput 1.0.
        assert!((tp[0].1 - 1.0).abs() < 1e-9, "throughput {}", tp[0].1);
    }

    #[test]
    fn lifted_preserves_choice_bounds_exactly() {
        // Nondeterministic τ: fast route (rate 10) vs slow route (rate 1).
        // The lifted form must give *exact* bounds (instant states, no
        // pseudo-rate skew) and eliminate nothing nondeterministic.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.interactive(s[0], "i", s[1]);
        b.interactive(s[0], "i", s[2]);
        b.markovian(s[1], s[3], 10.0).unwrap();
        b.markovian(s[2], s[3], 1.0).unwrap();
        let conv = to_ctmdp_lifted(&b.build(s[0]), &[]).expect("lifts");
        assert!(conv.mdp.is_instant(conv.initial));
        let t = conv.resolved[3];
        let lo = conv.mdp.expected_time_to_reach(&[t], Opt::Min, 1e-12, 100_000).unwrap();
        let hi = conv.mdp.expected_time_to_reach(&[t], Opt::Max, 1e-12, 100_000).unwrap();
        assert!((lo[conv.initial] - 0.1).abs() < 1e-12, "min {}", lo[conv.initial]);
        assert!((hi[conv.initial] - 1.0).abs() < 1e-12, "max {}", hi[conv.initial]);
    }

    #[test]
    fn vanishing_state_between_nondet_choices_is_preserved() {
        // Regression (FAME2 coherence shape): nondet v0 → det v1 → nondet
        // v2; the deterministic middle state must be eliminated while BOTH
        // surrounding choice points survive as instant states. The middle
        // hop crosses a probe that must not be lost.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..7).map(|_| b.add_state()).collect();
        // nondet choice #1 at s0: straight to tangible s5, or into the chain.
        b.interactive(s[0], "i", s[1]);
        b.interactive(s[0], "i", s[5]);
        // deterministic vanishing middle: s1 --MARK--> s2.
        b.interactive(s[1], "MARK", s[2]);
        // nondet choice #2 at s2: fast or slow server.
        b.interactive(s[2], "i", s[3]);
        b.interactive(s[2], "i", s[4]);
        b.markovian(s[3], s[6], 10.0).unwrap();
        b.markovian(s[4], s[6], 1.0).unwrap();
        b.markovian(s[5], s[6], 2.0).unwrap();
        b.markovian(s[6], s[0], 1.0).unwrap();
        let imc = b.build(s[0]);
        // The seed path rejects this outright…
        assert!(matches!(
            to_ctmc(&imc, NondetPolicy::Reject, &["MARK"]),
            Err(ToCtmcError::Nondeterministic { .. })
        ));
        // …the lifted path keeps both choice points.
        let conv = to_ctmdp_lifted(&imc, &["MARK"]).expect("lifts");
        assert_eq!(conv.state_map[1], None, "deterministic middle state is eliminated");
        assert!(conv.mdp.is_instant(conv.state_map[0].unwrap()));
        assert!(conv.mdp.is_instant(conv.state_map[2].unwrap()));
        assert_eq!(conv.mdp.choices(conv.state_map[0].unwrap()).len(), 2);
        assert_eq!(conv.mdp.choices(conv.state_map[2].unwrap()).len(), 2);
        // The s0 choice into the chain carries the MARK crossing.
        let s0_idx = conv.state_map[0].unwrap();
        let (name, imp) = &conv.probe_impulse[0];
        assert_eq!(name, "MARK");
        let crossings: Vec<f64> = imp[s0_idx].clone();
        assert!(crossings.contains(&1.0) && crossings.contains(&0.0), "{crossings:?}");
        // Latency bounds: min routes via the rate-10 server (0.1 + 1.0
        // return is not needed: target is s6), max waits on rate 1.
        let t = conv.resolved[6];
        let lo = conv.mdp.expected_time_to_reach(&[t], Opt::Min, 1e-12, 100_000).unwrap();
        let hi = conv.mdp.expected_time_to_reach(&[t], Opt::Max, 1e-12, 100_000).unwrap();
        assert!((lo[conv.initial] - 0.1).abs() < 1e-9, "min {}", lo[conv.initial]);
        assert!((hi[conv.initial] - 1.0).abs() < 1e-9, "max {}", hi[conv.initial]);
        // Throughput bounds on MARK: a scheduler can avoid it entirely
        // (min 0) or take the chain every cycle through the fast server:
        // cycle time 0.1 + 1.0 → max rate 1/1.1.
        let zeros = vec![0.0; conv.mdp.num_states()];
        let lo_tp = conv.mdp.long_run_average(&zeros, Some(imp), Opt::Min, 1e-12, 100_000).unwrap();
        let hi_tp = conv.mdp.long_run_average(&zeros, Some(imp), Opt::Max, 1e-12, 100_000).unwrap();
        assert!(lo_tp.abs() < 1e-9, "min throughput {lo_tp}");
        assert!((hi_tp - 1.0 / 1.1).abs() < 1e-9, "max throughput {hi_tp}");
    }

    #[test]
    fn lifted_deterministic_model_matches_to_ctmc() {
        // No nondeterminism: the lifted CTMDP must collapse to the CTMC for
        // steady-state throughput on both optimization sides.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 2.0).unwrap();
        b.interactive(s[1], "PROBE", s[2]);
        b.markovian(s[2], s[0], 2.0).unwrap();
        let imc = b.build(s[0]);
        let conv = to_ctmc(&imc, NondetPolicy::Reject, &["PROBE"]).expect("converts");
        let want = probe_throughputs(&conv, &SolveOptions::default()).expect("solves")[0].1;
        let lifted = to_ctmdp_lifted(&imc, &["PROBE"]).expect("lifts");
        let zeros = vec![0.0; lifted.mdp.num_states()];
        for opt in [Opt::Min, Opt::Max] {
            let g = lifted
                .mdp
                .long_run_average(&zeros, Some(&lifted.probe_impulse[0].1), opt, 1e-12, 100_000)
                .unwrap();
            assert!((g - want).abs() < 1e-9, "{opt:?}: {g} vs {want}");
        }
    }

    #[test]
    fn initial_vanishing_state_redistributed() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], "i", s[1]);
        b.interactive(s[0], "i", s[2]);
        b.markovian(s[1], s[2], 1.0).unwrap();
        b.markovian(s[2], s[1], 1.0).unwrap();
        let conv = to_ctmc(&b.build(s[0]), NondetPolicy::Uniform, &[]).expect("converts");
        let init = conv.ctmc.initial_dense();
        assert!((init.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((init[0] - 0.5).abs() < 1e-9);
    }
}
