//! State-space generation: breadth-first enumeration of the SOS semantics
//! into an explicit LTS (the CADP `cæsar`/`generator` role).
//!
//! Exploration is parallel when [`ExploreOptions::threads`] asks for it,
//! yet **bit-identical to sequential execution**: workers only compute
//! transition derivations (the expensive part) level by level, while
//! state numbering, label interning, and cap enforcement happen in a
//! sequential merge that walks the frontier in canonical order. See
//! `DESIGN.md` §6 for the full scheme.

use crate::pack::pack_term;
use crate::semantics::{transitions, Label, SemError};
use crate::spec::Spec;
use crate::term::Term;
use multival_lts::store::{make_store, StateStore, StoreConfig, StoreStats};
use multival_lts::{LabelId, Lts, LtsBuilder, StateId};
use multival_par::fx::FxHashMap;
use multival_par::{par_map, ShardedIndex, Workers};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Exploration limits and options.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum number of states to enumerate before aborting.
    pub max_states: usize,
    /// Maximum number of transitions to enumerate before aborting.
    pub max_transitions: usize,
    /// Worker threads for transition derivation: `1` (the default) is
    /// strictly sequential, `0` means one per hardware thread. The result
    /// is identical whatever the value.
    pub threads: usize,
    /// Wall-clock budget: exploration aborts (keeping partial work) once
    /// this instant passes. `None` (the default) runs unbounded. Unlike the
    /// state caps, where the abort lands depends on machine speed — callers
    /// wanting reproducible truncation should cap states instead.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            max_transitions: 8_000_000,
            threads: 1,
            deadline: None,
        }
    }
}

impl ExploreOptions {
    /// Options with a custom state cap (transition cap scales 8×).
    pub fn with_max_states(max_states: usize) -> Self {
        ExploreOptions {
            max_states,
            max_transitions: max_states.saturating_mul(8),
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    fn workers(&self) -> Workers {
        Workers::from_threads(self.threads)
    }
}

/// Error raised by [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A cap was exceeded (state-space explosion). The counts report the
    /// work actually admitted before the abort — both caps are inclusive:
    /// exploration fails on the first state/transition that would push a
    /// count *past* its cap.
    Explosion {
        /// States enumerated when the cap was hit.
        states: usize,
        /// Transitions enumerated when the cap was hit.
        transitions: usize,
        /// BFS depth of the state being expanded when the cap was hit.
        depth: usize,
    },
    /// The semantics reported a modeling error, with the shortest-path
    /// offending state printed for diagnosis.
    Semantics {
        /// The underlying error.
        error: SemError,
        /// Display form of the state whose transitions failed to derive.
        state: String,
    },
    /// The wall-clock budget ([`ExploreOptions::deadline`]) ran out. The
    /// counts report the work admitted before the abort.
    Deadline {
        /// States enumerated when the budget ran out.
        states: usize,
        /// Transitions enumerated when the budget ran out.
        transitions: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Explosion { states, transitions, depth } => write!(
                f,
                "state-space explosion: caps exceeded after {states} states / \
                 {transitions} transitions (BFS depth {depth})"
            ),
            ExploreError::Semantics { error, state } => {
                write!(f, "{error} (in state `{state}`)")
            }
            ExploreError::Deadline { states, transitions } => write!(
                f,
                "wall-clock budget exhausted after {states} states / \
                 {transitions} transitions"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// The result of a successful exploration: the LTS plus the term each state
/// id denotes (for state-predicate checks on the model's data).
#[derive(Debug, Clone)]
#[must_use]
pub struct Explored {
    /// The generated LTS; state ids are BFS discovery order, state 0 initial.
    pub lts: Lts,
    /// `states[i]` is the closed term that state `i` denotes.
    pub states: Vec<Arc<Term>>,
}

impl Explored {
    /// Finds all states whose term satisfies `pred`.
    pub fn states_where(&self, mut pred: impl FnMut(&Term) -> bool) -> Vec<StateId> {
        self.states.iter().enumerate().filter(|(_, t)| pred(t)).map(|(i, _)| i as StateId).collect()
    }
}

/// An exploration outcome that keeps partial work on failure: `explored`
/// holds whatever was enumerated before completion or abort.
#[derive(Debug, Clone)]
#[must_use]
pub struct Exploration {
    /// Everything enumerated so far (complete iff `aborted` is `None`).
    pub explored: Explored,
    /// `None` when exploration ran to completion; the abort reason
    /// otherwise.
    pub aborted: Option<ExploreError>,
}

impl Exploration {
    /// Converts to a plain result, dropping partial work on failure.
    pub fn into_result(self) -> Result<Explored, ExploreError> {
        match self.aborted {
            None => Ok(self.explored),
            Some(e) => Err(e),
        }
    }
}

/// Explores the state space of `spec`'s top behaviour.
///
/// # Errors
///
/// Returns [`ExploreError::Explosion`] when a cap is exceeded and
/// [`ExploreError::Semantics`] when transition derivation fails (which
/// pinpoints the offending reachable state).
///
/// # Examples
///
/// ```
/// use multival_pa::parser::parse_spec;
/// use multival_pa::explorer::{explore, ExploreOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = parse_spec(
///     "process P[a, b] := a; b; P[a, b] endproc
///      behaviour P[x, y]",
/// )?;
/// let explored = explore(&spec, &ExploreOptions::default())?;
/// assert_eq!(explored.lts.num_states(), 2);
/// # Ok(())
/// # }
/// ```
pub fn explore(spec: &Spec, options: &ExploreOptions) -> Result<Explored, ExploreError> {
    explore_term(spec.top().clone(), spec, options)
}

/// Explores from an explicit initial term (rather than the spec's top).
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_term(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
) -> Result<Explored, ExploreError> {
    explore_term_partial(initial, spec, options).into_result()
}

/// Like [`explore`], but retains partial work when exploration aborts.
pub fn explore_partial(spec: &Spec, options: &ExploreOptions) -> Exploration {
    explore_term_partial(spec.top().clone(), spec, options)
}

/// Like [`explore_term`], but retains partial work when exploration
/// aborts: on a cap hit or semantics error, `explored` holds exactly the
/// states and transitions admitted before the abort (identical between
/// sequential and parallel runs).
pub fn explore_term_partial(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
) -> Exploration {
    let workers = options.workers();
    if workers.is_sequential() {
        explore_sequential(initial, spec, options)
    } else {
        explore_parallel(initial, spec, options, workers)
    }
}

/// Interned label ids keyed by *semantic* label, so each distinct label
/// is rendered to its textual form exactly once per exploration instead
/// of once per transition.
#[derive(Default)]
struct LabelCache {
    // Fx-hashed: looked up once per derived transition.
    ids: FxHashMap<Label, LabelId>,
}

impl LabelCache {
    fn id(&mut self, builder: &mut LtsBuilder, label: Label) -> LabelId {
        match self.ids.get(&label) {
            Some(&id) => id,
            None => {
                let id = builder.intern(&render_label(&label));
                self.ids.insert(label, id);
                id
            }
        }
    }
}

/// How many dequeued states pass between wall-clock checks in the
/// sequential loop — keeps `Instant::now` off the per-state hot path.
const DEADLINE_STRIDE: usize = 128;

/// Whether the options' wall-clock budget has run out.
fn past_deadline(options: &ExploreOptions) -> bool {
    options.deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

fn explore_sequential(initial: Arc<Term>, spec: &Spec, options: &ExploreOptions) -> Exploration {
    let mut builder = LtsBuilder::new();
    let mut labels = LabelCache::default();
    let mut index: FxHashMap<Arc<Term>, StateId> = FxHashMap::default();
    let mut states: Vec<Arc<Term>> = Vec::new();
    let mut queue: VecDeque<(StateId, usize)> = VecDeque::new();
    let mut ntrans = 0usize;
    let mut since_check = 0usize;

    let s0 = builder.add_state();
    index.insert(initial.clone(), s0);
    states.push(initial);
    queue.push_back((s0, 0));

    while let Some((s, depth)) = queue.pop_front() {
        since_check += 1;
        if since_check >= DEADLINE_STRIDE {
            since_check = 0;
            if past_deadline(options) {
                let aborted = ExploreError::Deadline { states: states.len(), transitions: ntrans };
                return finish(builder, states, Some(aborted));
            }
        }
        let term = states[s as usize].clone();
        let outgoing = match transitions(&term, spec) {
            Ok(o) => o,
            Err(error) => {
                let aborted = ExploreError::Semantics { error, state: term.to_string() };
                return finish(builder, states, Some(aborted));
            }
        };
        for (label, target) in outgoing {
            let dst = match index.get(&target) {
                Some(&d) => d,
                None => {
                    if states.len() >= options.max_states {
                        let aborted = ExploreError::Explosion {
                            states: states.len(),
                            transitions: ntrans,
                            depth,
                        };
                        return finish(builder, states, Some(aborted));
                    }
                    let d = builder.add_state();
                    index.insert(target.clone(), d);
                    states.push(target);
                    queue.push_back((d, depth + 1));
                    d
                }
            };
            if ntrans >= options.max_transitions {
                let aborted =
                    ExploreError::Explosion { states: states.len(), transitions: ntrans, depth };
                return finish(builder, states, Some(aborted));
            }
            ntrans += 1;
            let lid = labels.id(&mut builder, label);
            builder.add_transition_id(s, lid, dst);
        }
    }
    finish(builder, states, None)
}

/// Outgoing transitions derived from one term: `(label, successor term)`.
type Outgoing = Vec<(Label, Arc<Term>)>;

/// Per-frontier-state output of a parallel derivation worker.
struct LevelOut {
    /// `(label, provisional target id)` in derivation order.
    succ: Vec<(Label, u32)>,
    /// Targets whose provisional id this worker allocated.
    fresh: Vec<(u32, Arc<Term>)>,
}

/// Sentinel: a provisional id with no canonical number assigned yet.
const NO_CANON: StateId = StateId::MAX;

fn explore_parallel(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
    workers: Workers,
) -> Exploration {
    let mut builder = LtsBuilder::new();
    let mut labels = LabelCache::default();
    let index: ShardedIndex<Arc<Term>> = ShardedIndex::new();
    let mut states: Vec<Arc<Term>> = Vec::new();
    // Provisional id -> canonical (BFS discovery order) id.
    let mut prov2canon: Vec<StateId> = Vec::new();
    let mut ntrans = 0usize;

    let s0 = builder.add_state();
    let (p0, _) = index.get_or_insert(initial.clone());
    debug_assert_eq!(p0, 0);
    prov2canon.push(s0);
    states.push(initial);

    let mut frontier: Vec<StateId> = vec![s0];
    let mut depth = 0usize;

    while !frontier.is_empty() {
        // Wall-clock budget, checked once per BFS level (the sequential
        // loop checks every few states; a level is the coarser analogue).
        if past_deadline(options) {
            let aborted = ExploreError::Deadline { states: states.len(), transitions: ntrans };
            return finish(builder, states, Some(aborted));
        }
        // Parallel stage: derive successors of every frontier state.
        // Workers touch only the sharded index; ids they hand out are
        // provisional (scheduling-dependent) and renumbered below.
        let results: Vec<Result<LevelOut, ExploreError>> = par_map(workers, &frontier, |_, &s| {
            let term = &states[s as usize];
            let outgoing = transitions(term, spec)
                .map_err(|error| ExploreError::Semantics { error, state: term.to_string() })?;
            let mut succ = Vec::with_capacity(outgoing.len());
            let mut fresh = Vec::new();
            for (label, target) in outgoing {
                let (prov, was_new) = index.get_or_insert(target.clone());
                if was_new {
                    fresh.push((prov, target));
                }
                succ.push((label, prov));
            }
            Ok(LevelOut { succ, fresh })
        });

        // Collect the term behind every provisional id allocated this
        // level: first canonical sight of an id may come from a *different*
        // frontier state than the one whose worker inserted it.
        let first_new = prov2canon.len() as u32;
        let new_count = (index.next_id() - first_new) as usize;
        let mut fresh_terms: Vec<Option<Arc<Term>>> = vec![None; new_count];
        for out in results.iter().filter_map(|r| r.as_ref().ok()) {
            for (prov, term) in &out.fresh {
                fresh_terms[(prov - first_new) as usize] = Some(term.clone());
            }
        }
        prov2canon.resize(index.next_id() as usize, NO_CANON);

        // Sequential merge in frontier order: canonical numbering, label
        // interning, cap checks, and transition emission — byte-for-byte
        // the order the sequential loop would produce.
        let mut next_frontier: Vec<StateId> = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let src = frontier[i];
            let out = match result {
                Ok(out) => out,
                Err(aborted) => return finish(builder, states, Some(aborted)),
            };
            for (label, prov) in out.succ {
                let mut dst = prov2canon[prov as usize];
                if dst == NO_CANON {
                    if states.len() >= options.max_states {
                        let aborted = ExploreError::Explosion {
                            states: states.len(),
                            transitions: ntrans,
                            depth,
                        };
                        return finish(builder, states, Some(aborted));
                    }
                    dst = builder.add_state();
                    prov2canon[prov as usize] = dst;
                    let term = fresh_terms[(prov - first_new) as usize]
                        .clone()
                        .expect("every provisional id has a registered term");
                    states.push(term);
                    next_frontier.push(dst);
                }
                if ntrans >= options.max_transitions {
                    let aborted = ExploreError::Explosion {
                        states: states.len(),
                        transitions: ntrans,
                        depth,
                    };
                    return finish(builder, states, Some(aborted));
                }
                ntrans += 1;
                let lid = labels.id(&mut builder, label);
                builder.add_transition_id(src, lid, dst);
            }
        }
        frontier = next_frontier;
        depth += 1;
    }
    finish(builder, states, None)
}

fn finish(
    builder: LtsBuilder,
    states: Vec<Arc<Term>>,
    aborted: Option<ExploreError>,
) -> Exploration {
    Exploration { explored: Explored { lts: builder.build(0), states }, aborted }
}

/// Result of a store-backed exploration: the LTS plus the dedup store's
/// accounting. Unlike [`Explored`], per-state terms are *not* retained —
/// only the current BFS frontier's terms stay resident, and the dedup
/// index holds packed byte keys (see [`crate::pack`]) in the configured
/// [`StateStore`] backend. This is the
/// million-state entry point: with [`StoreKind::Spill`], resident memory
/// is bounded by the budget plus the frontier.
///
/// [`StoreKind::Spill`]: multival_lts::store::StoreKind::Spill
#[derive(Debug, Clone)]
#[must_use]
pub struct StoreExploration {
    /// The generated LTS; numbering is identical to [`explore`]'s.
    pub lts: Lts,
    /// Dedup-store counters (states, key bytes, resident/spilled bytes).
    pub store: StoreStats,
    /// `None` when exploration ran to completion; the abort reason
    /// otherwise (partial work is kept in `lts`).
    pub aborted: Option<ExploreError>,
}

/// Explores `spec`'s top behaviour through a pluggable state store,
/// without retaining a term per state.
///
/// The LTS — state numbering, label table, transitions — is byte-identical
/// to [`explore`]'s at any backend and worker count.
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_store(
    spec: &Spec,
    options: &ExploreOptions,
    config: &StoreConfig,
) -> Result<Lts, ExploreError> {
    explore_term_store(spec.top().clone(), spec, options, config)
}

/// [`explore_store`] from an explicit initial term.
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_term_store(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
    config: &StoreConfig,
) -> Result<Lts, ExploreError> {
    let run = explore_term_store_partial(initial, spec, options, config);
    match run.aborted {
        None => Ok(run.lts),
        Some(e) => Err(e),
    }
}

/// Like [`explore_term_store`], but retains partial work when exploration
/// aborts. The wall-clock budget is checked once per BFS level (as in the
/// parallel path), so deadline aborts land on level boundaries.
pub fn explore_term_store_partial(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
    config: &StoreConfig,
) -> StoreExploration {
    let workers = options.workers();
    let mut store = make_store(config);
    let mut builder = LtsBuilder::new();
    let mut labels = LabelCache::default();
    let mut buf: Vec<u8> = Vec::new();

    pack_term(&initial, &mut buf);
    let s0 = builder.add_state();
    let (k0, _) = store.get_or_insert(&buf);
    debug_assert_eq!(k0, s0);

    // States of the last discovered BFS level, in id order: frontier[i]
    // denotes state `level_base + i`. Terms live only this long.
    let mut frontier: Vec<Arc<Term>> = vec![initial];
    let mut level_base = 0usize;
    let mut nstates = 1usize;
    let mut ntrans = 0usize;
    let mut depth = 0usize;

    while !frontier.is_empty() {
        if past_deadline(options) {
            let aborted = ExploreError::Deadline { states: nstates, transitions: ntrans };
            return store_finish(builder, store, Some(aborted));
        }
        // Parallel stage: derive successor terms of every frontier state.
        let results: Vec<Result<Outgoing, ExploreError>> =
            par_map(workers, &frontier, |_, term| {
                transitions(term, spec)
                    .map_err(|error| ExploreError::Semantics { error, state: term.to_string() })
            });
        // Sequential merge in frontier order: packing, dedup, numbering,
        // label interning, and cap checks — the same admission order as
        // the sequential loop, hence identical ids and abort reports.
        let mut next: Vec<Arc<Term>> = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let src = (level_base + i) as StateId;
            let outgoing = match result {
                Ok(o) => o,
                Err(aborted) => return store_finish(builder, store, Some(aborted)),
            };
            for (label, target) in outgoing {
                buf.clear();
                pack_term(&target, &mut buf);
                let (dst, is_new) = store.get_or_insert(&buf);
                if is_new {
                    if nstates >= options.max_states {
                        let aborted =
                            ExploreError::Explosion { states: nstates, transitions: ntrans, depth };
                        return store_finish(builder, store, Some(aborted));
                    }
                    let b = builder.add_state();
                    debug_assert_eq!(b, dst);
                    nstates += 1;
                    next.push(target);
                }
                if ntrans >= options.max_transitions {
                    let aborted =
                        ExploreError::Explosion { states: nstates, transitions: ntrans, depth };
                    return store_finish(builder, store, Some(aborted));
                }
                ntrans += 1;
                let lid = labels.id(&mut builder, label);
                builder.add_transition_id(src, lid, dst);
            }
        }
        level_base += frontier.len();
        frontier = next;
        depth += 1;
    }
    store_finish(builder, store, None)
}

fn store_finish(
    builder: LtsBuilder,
    store: Box<dyn StateStore>,
    aborted: Option<ExploreError>,
) -> StoreExploration {
    StoreExploration { lts: builder.build(0), store: store.stats(), aborted }
}

/// Renders a semantic label in the LTS textual convention
/// (`i`, `exit !v…`, `GATE !v…`).
pub fn render_label(label: &Label) -> String {
    label.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::spec::ProcDef;
    use crate::term::{Action, Offer, SyncKind};
    use crate::value::{sym, Type};
    use multival_lts::io::write_aut;

    fn counter_spec(max: i64) -> Spec {
        // Count[up, down](n): up when n<max, down when n>0.
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("Count"),
            gates: vec![sym("up"), sym("down")],
            params: vec![(sym("n"), Type::Int(0, max))],
            body: Term::Choice(
                Term::Guard(
                    Expr::bin(BinOp::Lt, Expr::var("n"), Expr::int(max)),
                    Term::Prefix(
                        Action::bare("up"),
                        Term::Call(
                            sym("Count"),
                            vec![sym("up"), sym("down")],
                            vec![Expr::bin(BinOp::Add, Expr::var("n"), Expr::int(1))],
                        )
                        .rc(),
                    )
                    .rc(),
                )
                .rc(),
                Term::Guard(
                    Expr::bin(BinOp::Gt, Expr::var("n"), Expr::int(0)),
                    Term::Prefix(
                        Action::bare("down"),
                        Term::Call(
                            sym("Count"),
                            vec![sym("up"), sym("down")],
                            vec![Expr::bin(BinOp::Sub, Expr::var("n"), Expr::int(1))],
                        )
                        .rc(),
                    )
                    .rc(),
                )
                .rc(),
            )
            .rc(),
        });
        s.set_top(Term::Call(sym("Count"), vec![sym("up"), sym("down")], vec![Expr::int(0)]).rc());
        s
    }

    /// Three interleaved counters: 5³ = 125 states, a frontier wide enough
    /// to exercise the parallel merge across several levels.
    fn triple_counter_top() -> (Spec, Arc<Term>) {
        let s = counter_spec(4);
        let call = |u: &str, d: &str| {
            Term::Call(sym("Count"), vec![sym(u), sym(d)], vec![Expr::int(0)]).rc()
        };
        let top = Term::Par(
            SyncKind::Interleave,
            call("u1", "d1"),
            Term::Par(SyncKind::Interleave, call("u2", "d2"), call("u3", "d3")).rc(),
        )
        .rc();
        (s, top)
    }

    #[test]
    fn counter_has_linear_state_space() {
        let s = counter_spec(4);
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 5);
        assert_eq!(e.lts.num_transitions(), 8); // 4 up + 4 down
        assert!(e.lts.deadlock_states().is_empty());
    }

    #[test]
    fn state_cap_triggers_explosion_error() {
        let s = counter_spec(100);
        let err = explore(&s, &ExploreOptions::with_max_states(10)).expect_err("cap");
        assert!(matches!(err, ExploreError::Explosion { .. }));
    }

    #[test]
    fn state_cap_is_inclusive_at_the_boundary() {
        // The full space is 5 states / 8 transitions: caps equal to the
        // exact counts must succeed, caps one below must fail and report
        // exactly the admitted work.
        let s = counter_spec(4);
        let exact =
            ExploreOptions { max_states: 5, max_transitions: 8, ..ExploreOptions::default() };
        let e = explore(&s, &exact).expect("caps equal to the space succeed");
        assert_eq!(e.lts.num_states(), 5);
        assert_eq!(e.lts.num_transitions(), 8);

        let tight_states =
            ExploreOptions { max_states: 4, max_transitions: 8, ..ExploreOptions::default() };
        match explore(&s, &tight_states).expect_err("state cap") {
            ExploreError::Explosion { states, .. } => assert_eq!(states, 4),
            other => panic!("unexpected {other}"),
        }

        let tight_trans =
            ExploreOptions { max_states: 5, max_transitions: 7, ..ExploreOptions::default() };
        match explore(&s, &tight_trans).expect_err("transition cap") {
            ExploreError::Explosion { transitions, .. } => assert_eq!(transitions, 7),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn explosion_retains_partial_work() {
        let s = counter_spec(100);
        let opts =
            ExploreOptions { max_states: 10, max_transitions: 800, ..ExploreOptions::default() };
        let partial = explore_partial(&s, &opts);
        let err = partial.aborted.expect("cap hit");
        match err {
            ExploreError::Explosion { states, transitions, depth } => {
                assert_eq!(states, 10, "all admitted states reported");
                assert_eq!(partial.explored.states.len(), 10);
                assert_eq!(partial.explored.lts.num_states(), 10);
                assert_eq!(partial.explored.lts.num_transitions(), transitions);
                assert!(depth > 0, "the counter chain is deeper than one level");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn semantic_error_pinpoints_state() {
        let mut s = Spec::new();
        s.set_top(Term::Exit(vec![Expr::var("ghost")]).rc());
        let err = explore(&s, &ExploreOptions::default()).expect_err("unbound");
        match err {
            ExploreError::Semantics { error, state } => {
                assert!(matches!(error, SemError::Eval(_)));
                assert!(state.contains("ghost"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn interleaving_counters_multiply() {
        // Two independent 3-state counters → 9 product states.
        let s = counter_spec(2);
        let top = Term::Par(
            SyncKind::Interleave,
            Term::Call(sym("Count"), vec![sym("u1"), sym("d1")], vec![Expr::int(0)]).rc(),
            Term::Call(sym("Count"), vec![sym("u2"), sym("d2")], vec![Expr::int(0)]).rc(),
        )
        .rc();
        let e = explore_term(top, &s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 9);
    }

    #[test]
    fn parallel_exploration_is_bit_identical() {
        let (s, top) = triple_counter_top();
        let seq = explore_term(top.clone(), &s, &ExploreOptions::default()).expect("seq");
        for threads in [2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let par = explore_term(top.clone(), &s, &opts).expect("par");
            assert_eq!(par.states, seq.states, "state numbering at {threads} threads");
            assert_eq!(
                write_aut(&par.lts),
                write_aut(&seq.lts),
                "transition listing at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_explosion_matches_sequential_partial_work() {
        let (s, top) = triple_counter_top();
        let opts =
            ExploreOptions { max_states: 60, max_transitions: 480, ..ExploreOptions::default() };
        let seq = explore_term_partial(top.clone(), &s, &opts);
        let par = explore_term_partial(top, &s, &opts.clone().with_threads(4));
        assert_eq!(seq.aborted, par.aborted, "identical abort report");
        assert!(seq.aborted.is_some(), "cap must trigger");
        assert_eq!(seq.explored.states, par.explored.states);
        assert_eq!(write_aut(&seq.explored.lts), write_aut(&par.explored.lts));
    }

    #[test]
    fn parallel_semantic_error_matches_sequential() {
        // A guard that errors only after a few steps: `down` below zero is
        // fine, but an unbound variable appears at n = 3.
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("Bad"),
            gates: vec![sym("g")],
            params: vec![(sym("n"), Type::Int(0, 10))],
            body: Term::Choice(
                Term::Prefix(
                    Action::bare("g"),
                    Term::Call(
                        sym("Bad"),
                        vec![sym("g")],
                        vec![Expr::bin(BinOp::Add, Expr::var("n"), Expr::int(1))],
                    )
                    .rc(),
                )
                .rc(),
                Term::Guard(
                    Expr::bin(BinOp::Lt, Expr::int(2), Expr::var("n")),
                    Term::Exit(vec![Expr::var("ghost")]).rc(),
                )
                .rc(),
            )
            .rc(),
        });
        s.set_top(Term::Call(sym("Bad"), vec![sym("g")], vec![Expr::int(0)]).rc());
        let seq = explore_partial(&s, &ExploreOptions::default());
        let par = explore_partial(&s, &ExploreOptions::default().with_threads(4));
        assert!(matches!(seq.aborted, Some(ExploreError::Semantics { .. })));
        assert_eq!(seq.aborted, par.aborted);
        assert_eq!(seq.explored.states, par.explored.states);
    }

    #[test]
    fn store_backed_exploration_is_backend_and_thread_invariant() {
        use multival_lts::store::StoreKind;
        let (s, top) = triple_counter_top();
        let base = explore_term(top.clone(), &s, &ExploreOptions::default()).expect("baseline");
        for kind in StoreKind::ALL {
            // A 1-byte budget forces the spill backend to page on every
            // sealed segment.
            let config = StoreConfig { kind, mem_budget: Some(1) };
            for threads in [1, 4] {
                let opts = ExploreOptions::default().with_threads(threads);
                let lts = explore_term_store(top.clone(), &s, &opts, &config).expect("store run");
                assert_eq!(write_aut(&lts), write_aut(&base.lts), "{kind:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn store_backed_explosion_matches_sequential_partial_work() {
        let (s, top) = triple_counter_top();
        let opts =
            ExploreOptions { max_states: 60, max_transitions: 480, ..ExploreOptions::default() };
        let seq = explore_term_partial(top.clone(), &s, &opts);
        let run = explore_term_store_partial(top, &s, &opts, &StoreConfig::default());
        assert_eq!(seq.aborted, run.aborted, "identical abort report");
        assert!(run.aborted.is_some(), "cap must trigger");
        assert_eq!(write_aut(&seq.explored.lts), write_aut(&run.lts));
        assert!(run.store.states >= run.lts.num_states(), "store saw every admitted state");
    }

    #[test]
    fn store_backed_semantic_error_matches_sequential() {
        let mut s = Spec::new();
        s.set_top(Term::Exit(vec![Expr::var("ghost")]).rc());
        let seq = explore_partial(&s, &ExploreOptions::default());
        let run = explore_term_store_partial(
            s.top().clone(),
            &s,
            &ExploreOptions::default(),
            &StoreConfig::default(),
        );
        assert_eq!(seq.aborted, run.aborted);
    }

    #[test]
    fn states_where_inspects_terms() {
        let s = counter_spec(3);
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        // All states are process calls Count(..) — count those with arg 0.
        let zeros = e.states_where(|t| {
            matches!(t, Term::Call(_, _, args)
            if args == &vec![Expr::int(0)])
        });
        assert_eq!(zeros.len(), 1);
    }

    #[test]
    fn data_offers_fan_out() {
        let mut s = Spec::new();
        s.set_top(
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Recv(sym("x"), Type::Int(0, 4))] },
                Term::Stop.rc(),
            )
            .rc(),
        );
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_transitions(), 5);
        assert_eq!(e.lts.num_states(), 2, "all branches reach the same stop state");
    }
}
