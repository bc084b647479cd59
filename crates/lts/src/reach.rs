//! Generic on-the-fly exploration over any [`TransitionSystem`]:
//! materialization into an explicit [`Lts`], capped reachability scans,
//! deadlock search with counterexample traces, and the violation searches
//! behind the on-the-fly fragment of the μ-calculus checker.
//!
//! The searches are *short-circuiting*: they stop at the first state that
//! settles the question, so a deadlock in a lazy product can be found
//! after materializing a fraction of the full product (the whole point of
//! the implicit-graph seam — see `DESIGN.md` §6).

use crate::label::{LabelId, LabelTable};
use crate::lts::{Lts, StateId};
use crate::store::{PackState, StateStore};
use crate::ts::TransitionSystem;
use multival_par::fx::FxHashMap;
use multival_par::{par_map, ShardedIndex, Workers};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Caps for the on-the-fly searches.
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Maximum number of states to visit before giving up (inclusive: the
    /// search stops admitting states once this many are indexed).
    pub max_states: usize,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions { max_states: 1_000_000 }
    }
}

impl ReachOptions {
    /// Options with a custom visited-state cap.
    pub fn with_max_states(max_states: usize) -> Self {
        ReachOptions { max_states }
    }
}

/// What an on-the-fly search actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachStats {
    /// States visited (hash-consed) before the search stopped.
    pub visited: usize,
    /// Transitions enumerated before the search stopped.
    pub transitions: usize,
    /// `true` when the state cap stopped the search before it could settle
    /// the question — the verdict is then inconclusive.
    pub truncated: bool,
}

/// The outcome of an on-the-fly search: an optional witness trace (its
/// meaning depends on the search — a path to a deadlock, to a matching
/// action, ...) plus the work statistics.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The witness trace (label names along the path), if the searched-for
    /// situation was found.
    pub witness: Option<Vec<String>>,
    /// Visited/transition counts and the truncation flag.
    pub stats: ReachStats,
}

/// Materializes the reachable part of `ts` into an explicit [`Lts`],
/// numbering states in BFS discovery order (state 0 initial).
///
/// For a [`crate::ts::LazyProduct`] of two components this is byte-identical
/// to the eager [`crate::ops::compose`] — which is now implemented as
/// exactly this call.
pub fn materialize<T: TransitionSystem>(ts: &T) -> Lts {
    materialize_with(ts, Workers::sequential())
}

/// [`materialize`] with an explicit worker count for successor derivation.
///
/// The result is identical at any worker count for systems with a fixed
/// label table: workers only derive successor lists level by level, and a
/// sequential merge in canonical frontier order assigns state numbers
/// exactly as the sequential BFS would (the same scheme as the parallel
/// `pa` explorer). Lazily-interning systems must use
/// [`Workers::sequential`] — see the determinism contract in
/// [`crate::ts`].
pub fn materialize_with<T: TransitionSystem>(ts: &T, workers: Workers) -> Lts {
    materialize_capped(ts, workers, usize::MAX).expect("an uncapped materialization completes")
}

/// [`materialize_with`] under an inclusive state cap: returns `None` as
/// soon as a state beyond the first `max_states` would be admitted. The
/// cap is checked only where a new state is numbered, so a run that stays
/// under it costs the same as an uncapped one and yields the same LTS.
pub fn materialize_capped<T: TransitionSystem>(
    ts: &T,
    workers: Workers,
    max_states: usize,
) -> Option<Lts> {
    if workers.is_sequential() {
        return materialize_sequential(ts, max_states);
    }

    /// Sentinel: provisional id not yet assigned a canonical number.
    const NO_CANON: StateId = StateId::MAX;
    let index: ShardedIndex<T::State> = ShardedIndex::new();
    let mut prov2canon: Vec<StateId> = Vec::new();
    let mut states: Vec<T::State> = Vec::new();
    let mut transitions: Vec<(StateId, LabelId, StateId)> = Vec::new();

    let init = ts.initial_state();
    index.get_or_insert(init.clone());
    prov2canon.push(0);
    states.push(init);
    let mut num_states: u32 = 1;

    // Per-frontier-state output of the parallel stage: the successor list
    // (label, provisional id) plus the freshly discovered target states.
    type LevelResult<S> = (Vec<(LabelId, u32)>, Vec<(u32, S)>);

    let mut frontier: Vec<StateId> = vec![0];
    while !frontier.is_empty() {
        // Parallel stage: successor derivation + provisional numbering.
        let results: Vec<LevelResult<T::State>> = par_map(workers, &frontier, |_, &s| {
            let mut succ = Vec::new();
            let mut fresh = Vec::new();
            for (label, target) in ts.successors(&states[s as usize]) {
                let (prov, was_new) = index.get_or_insert(target.clone());
                if was_new {
                    fresh.push((prov, target));
                }
                succ.push((label, prov));
            }
            (succ, fresh)
        });

        let first_new = prov2canon.len() as u32;
        let new_count = (index.next_id() - first_new) as usize;
        let mut fresh_states: Vec<Option<T::State>> = vec![None; new_count];
        for (_, fresh) in &results {
            for (prov, state) in fresh {
                fresh_states[(prov - first_new) as usize] = Some(state.clone());
            }
        }
        prov2canon.resize(index.next_id() as usize, NO_CANON);

        // Sequential merge: canonical numbering in frontier order.
        let mut next_frontier: Vec<StateId> = Vec::new();
        for (i, (succ, _)) in results.into_iter().enumerate() {
            let src = frontier[i];
            for (label, prov) in succ {
                let mut dst = prov2canon[prov as usize];
                if dst == NO_CANON {
                    if num_states as usize >= max_states {
                        return None;
                    }
                    dst = num_states;
                    num_states += 1;
                    prov2canon[prov as usize] = dst;
                    states.push(
                        fresh_states[(prov - first_new) as usize]
                            .take()
                            .expect("every provisional id has a registered state"),
                    );
                    next_frontier.push(dst);
                }
                transitions.push((src, label, dst));
            }
        }
        frontier = next_frontier;
    }
    Some(Lts::from_parts(ts.label_table(), num_states, 0, transitions))
}

/// [`materialize_with`] over a pluggable [`StateStore`]: visited-state
/// dedup runs on *packed byte keys* owned by the store instead of a
/// `HashMap` of cloned state values, so the resident set can live in a
/// packed arena or spill to disk (see [`crate::store`]).
///
/// The result is byte-identical to [`materialize_with`] at any worker
/// count and with any backend: workers only derive successor lists level
/// by level, and the sequential merge interns targets in canonical
/// frontier order — exactly the discovery order of the sequential BFS.
/// Only frontier states are kept as live values; the interior of the
/// visited set exists solely as packed keys inside the store.
pub fn materialize_store<T>(ts: &T, workers: Workers, store: &mut dyn StateStore) -> Lts
where
    T: TransitionSystem,
    T::State: PackState,
{
    materialize_store_capped(ts, workers, store, usize::MAX)
        .expect("an uncapped materialization completes")
}

/// [`materialize_store`] under an inclusive state cap, with the contract
/// of [`materialize_capped`].
pub fn materialize_store_capped<T>(
    ts: &T,
    workers: Workers,
    store: &mut dyn StateStore,
    max_states: usize,
) -> Option<Lts>
where
    T: TransitionSystem,
    T::State: PackState,
{
    let mut key = Vec::new();
    let init = ts.initial_state();
    init.pack(&mut key);
    let (id, fresh) = store.get_or_insert(&key);
    assert!(fresh && id == 0, "materialize_store needs an empty store");
    let mut frontier: Vec<(StateId, T::State)> = vec![(0, init)];
    let mut transitions: Vec<(StateId, LabelId, StateId)> = Vec::new();

    while !frontier.is_empty() {
        // Parallel stage: derivation only — dedup is the merge's job, so
        // the store needs no synchronization at all.
        let results: Vec<Vec<(LabelId, T::State)>> =
            par_map(workers, &frontier, |_, (_, s)| ts.successors(s));

        let mut next: Vec<(StateId, T::State)> = Vec::new();
        for ((src, _), succ) in frontier.iter().zip(results) {
            for (label, target) in succ {
                key.clear();
                target.pack(&mut key);
                let (dst, new) = store.get_or_insert(&key);
                if new {
                    if dst as usize >= max_states {
                        return None;
                    }
                    next.push((dst, target));
                }
                transitions.push((*src, label, dst));
            }
        }
        frontier = next;
    }
    Some(Lts::from_parts(ts.label_table(), store.len() as u32, 0, transitions))
}

fn materialize_sequential<T: TransitionSystem>(ts: &T, max_states: usize) -> Option<Lts> {
    let mut index: FxHashMap<T::State, StateId> = FxHashMap::default();
    // Queue entries carry their id, so a popped state is never re-hashed.
    let mut queue: VecDeque<(T::State, StateId)> = VecDeque::new();
    let mut transitions: Vec<(StateId, LabelId, StateId)> = Vec::new();

    let init = ts.initial_state();
    index.insert(init.clone(), 0);
    queue.push_back((init, 0));

    while let Some((state, src)) = queue.pop_front() {
        for (label, target) in ts.successors(&state) {
            let next = index.len() as StateId;
            let dst = match index.entry(target) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    if next as usize >= max_states {
                        return None;
                    }
                    queue.push_back((slot.key().clone(), next));
                    *slot.insert(next)
                }
            };
            transitions.push((src, label, dst));
        }
    }
    Some(Lts::from_parts(ts.label_table(), index.len() as u32, 0, transitions))
}

/// A streaming reachability scan: counts without storing the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSummary {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions enumerated.
    pub transitions: usize,
    /// Visited states with no outgoing transition.
    pub deadlocks: usize,
    /// `true` when the state cap truncated the scan.
    pub truncated: bool,
}

/// Visits the reachable states of `ts` breadth-first, counting states,
/// transitions, and deadlocks, without materializing an LTS.
pub fn scan<T: TransitionSystem>(ts: &T, options: &ReachOptions) -> ScanSummary {
    let mut index: HashMap<T::State, StateId> = HashMap::new();
    let mut queue: VecDeque<T::State> = VecDeque::new();
    let mut summary = ScanSummary { states: 1, transitions: 0, deadlocks: 0, truncated: false };

    let init = ts.initial_state();
    index.insert(init.clone(), 0);
    queue.push_back(init);

    while let Some(state) = queue.pop_front() {
        let succ = ts.successors(&state);
        if succ.is_empty() {
            summary.deadlocks += 1;
        }
        summary.transitions += succ.len();
        for (_, target) in succ {
            if !index.contains_key(&target) {
                if summary.states >= options.max_states {
                    summary.truncated = true;
                    continue;
                }
                index.insert(target.clone(), summary.states as StateId);
                summary.states += 1;
                queue.push_back(target);
            }
        }
    }
    summary
}

/// The BFS bookkeeping shared by the trace-producing searches: visited
/// states with, for each, the predecessor edge that discovered it.
struct TraceBfs<T: TransitionSystem> {
    index: HashMap<T::State, u32>,
    states: Vec<T::State>,
    /// `pred[i]` — `(predecessor index, label)` that discovered state `i`.
    pred: Vec<Option<(u32, LabelId)>>,
    queue: VecDeque<u32>,
    transitions: usize,
}

impl<T: TransitionSystem> TraceBfs<T> {
    fn new(ts: &T) -> Self {
        let init = ts.initial_state();
        let mut bfs = TraceBfs {
            index: HashMap::new(),
            states: Vec::new(),
            pred: Vec::new(),
            queue: VecDeque::new(),
            transitions: 0,
        };
        bfs.index.insert(init.clone(), 0);
        bfs.states.push(init);
        bfs.pred.push(None);
        bfs.queue.push_back(0);
        bfs
    }

    /// Admits `target` (discovered from `src` via `label`) if new; returns
    /// `false` when the state cap refused a fresh state.
    fn admit(&mut self, src: u32, label: LabelId, target: T::State, cap: usize) -> bool {
        if self.index.contains_key(&target) {
            return true;
        }
        if self.states.len() >= cap {
            return false;
        }
        let d = self.states.len() as u32;
        self.index.insert(target.clone(), d);
        self.states.push(target);
        self.pred.push(Some((src, label)));
        self.queue.push_back(d);
        true
    }

    /// The label-name path from the initial state to `state`.
    fn trace_to(&self, table: &LabelTable, state: u32) -> Vec<String> {
        let mut labels = Vec::new();
        let mut cur = state;
        while let Some((prev, label)) = self.pred[cur as usize] {
            labels.push(table.name(label).to_owned());
            cur = prev;
        }
        labels.reverse();
        labels
    }

    fn stats(&self, truncated: bool) -> ReachStats {
        ReachStats { visited: self.states.len(), transitions: self.transitions, truncated }
    }
}

/// Searches breadth-first for a reachable deadlock state (no outgoing
/// transitions). The witness is a shortest trace to the deadlock.
pub fn deadlock_search<T: TransitionSystem>(ts: &T, options: &ReachOptions) -> SearchOutcome {
    let mut bfs = TraceBfs::new(ts);
    let mut truncated = false;
    while let Some(s) = bfs.queue.pop_front() {
        let succ = ts.successors(&bfs.states[s as usize]);
        if succ.is_empty() {
            let witness = bfs.trace_to(&ts.label_table(), s);
            return SearchOutcome { witness: Some(witness), stats: bfs.stats(false) };
        }
        bfs.transitions += succ.len();
        for (label, target) in succ {
            if !bfs.admit(s, label, target, options.max_states) {
                truncated = true;
            }
        }
    }
    SearchOutcome { witness: None, stats: bfs.stats(truncated) }
}

/// Per-label-id memo of a name predicate, refreshed from the system's
/// table snapshot on first sight of each id (lazily-interning systems grow
/// their tables during the search).
struct LabelMemo {
    verdicts: Vec<Option<bool>>,
}

impl LabelMemo {
    fn new() -> Self {
        LabelMemo { verdicts: Vec::new() }
    }

    fn matches<T: TransitionSystem>(
        &mut self,
        ts: &T,
        label: LabelId,
        pred: &dyn Fn(&str) -> bool,
    ) -> bool {
        if label.index() >= self.verdicts.len() {
            self.verdicts.resize(label.index() + 1, None);
        }
        *self.verdicts[label.index()].get_or_insert_with(|| pred(ts.label_table().name(label)))
    }
}

/// Searches breadth-first for a reachable transition whose label name
/// satisfies `pred`. The witness is a shortest trace *ending with* the
/// matching action.
pub fn action_search<T: TransitionSystem>(
    ts: &T,
    pred: impl Fn(&str) -> bool,
    options: &ReachOptions,
) -> SearchOutcome {
    let mut bfs = TraceBfs::new(ts);
    let mut memo = LabelMemo::new();
    let mut truncated = false;
    while let Some(s) = bfs.queue.pop_front() {
        let succ = ts.successors(&bfs.states[s as usize]);
        bfs.transitions += succ.len();
        for (label, target) in succ {
            if memo.matches(ts, label, &pred) {
                let table = ts.label_table();
                let mut witness = bfs.trace_to(&table, s);
                witness.push(table.name(label).to_owned());
                return SearchOutcome { witness: Some(witness), stats: bfs.stats(false) };
            }
            if !bfs.admit(s, label, target, options.max_states) {
                truncated = true;
            }
        }
    }
    SearchOutcome { witness: None, stats: bfs.stats(truncated) }
}

/// Searches depth-first for an execution that *avoids* actions matching
/// `pred` forever — the violation pattern of inevitability: either a path
/// over non-matching transitions ending in a deadlock, or a cycle of
/// non-matching transitions.
///
/// The witness is the offending path; for a cycle it includes the
/// transition that closes the loop. Branches entered through a matching
/// transition are never explored — the obligation is discharged there.
pub fn avoid_search<T: TransitionSystem>(
    ts: &T,
    pred: impl Fn(&str) -> bool,
    options: &ReachOptions,
) -> SearchOutcome {
    #[derive(Clone, Copy, PartialEq)]
    enum Status {
        New,
        OnStack,
        Done,
    }

    // Each frame: the state, the label that entered it (None for the
    // root), its non-matching successor edges, and a cursor into them.
    struct Frame {
        state: u32,
        entry: Option<LabelId>,
        edges: Vec<(LabelId, u32)>,
        cursor: usize,
    }

    /// Shared exploration state, factored out so `expand` can borrow it
    /// all at once.
    struct Dfs<S> {
        index: HashMap<S, u32>,
        states: Vec<S>,
        status: Vec<Status>,
        memo: LabelMemo,
        transitions: usize,
        truncated: bool,
    }

    impl<S: Clone + Eq + std::hash::Hash + Send + Sync> Dfs<S> {
        /// Classifies a state's successors into non-matching edges;
        /// `None` means the state is a deadlock (no successors at all).
        fn expand<T: TransitionSystem<State = S>>(
            &mut self,
            ts: &T,
            pred: &dyn Fn(&str) -> bool,
            s: u32,
            cap: usize,
        ) -> Option<Vec<(LabelId, u32)>> {
            let succ = ts.successors(&self.states[s as usize]);
            if succ.is_empty() {
                return None;
            }
            self.transitions += succ.len();
            let mut edges = Vec::new();
            for (label, target) in succ {
                if self.memo.matches(ts, label, pred) {
                    continue;
                }
                let idx = match self.index.get(&target) {
                    Some(&i) => i,
                    None => {
                        if self.states.len() >= cap {
                            self.truncated = true;
                            continue;
                        }
                        let i = self.states.len() as u32;
                        self.index.insert(target.clone(), i);
                        self.states.push(target);
                        self.status.push(Status::New);
                        i
                    }
                };
                edges.push((label, idx));
            }
            Some(edges)
        }

        fn stats(&self, truncated: bool) -> ReachStats {
            ReachStats { visited: self.states.len(), transitions: self.transitions, truncated }
        }
    }

    let mut dfs: Dfs<T::State> = Dfs {
        index: HashMap::new(),
        states: Vec::new(),
        status: Vec::new(),
        memo: LabelMemo::new(),
        transitions: 0,
        truncated: false,
    };
    let init = ts.initial_state();
    dfs.index.insert(init.clone(), 0);
    dfs.states.push(init);
    dfs.status.push(Status::OnStack);

    let trace_of = |stack: &[Frame], table: &LabelTable| -> Vec<String> {
        stack.iter().filter_map(|f| f.entry).map(|l| table.name(l).to_owned()).collect()
    };

    let mut stack: Vec<Frame> = Vec::new();
    match dfs.expand(ts, &pred, 0, options.max_states) {
        None => {
            // The initial state is itself a deadlock: the empty execution
            // avoids `pred` forever.
            return SearchOutcome { witness: Some(Vec::new()), stats: dfs.stats(false) };
        }
        Some(edges) => stack.push(Frame { state: 0, entry: None, edges, cursor: 0 }),
    }

    while let Some(top) = stack.last_mut() {
        if top.cursor >= top.edges.len() {
            dfs.status[top.state as usize] = Status::Done;
            stack.pop();
            continue;
        }
        let (label, target) = top.edges[top.cursor];
        top.cursor += 1;
        match dfs.status[target as usize] {
            Status::OnStack => {
                // A cycle of non-matching transitions: `pred` can be
                // avoided forever.
                let table = ts.label_table();
                let mut witness = trace_of(&stack, &table);
                witness.push(table.name(label).to_owned());
                return SearchOutcome { witness: Some(witness), stats: dfs.stats(false) };
            }
            Status::Done => continue,
            Status::New => {
                dfs.status[target as usize] = Status::OnStack;
                match dfs.expand(ts, &pred, target, options.max_states) {
                    None => {
                        // Deadlock at the end of a non-matching path.
                        let table = ts.label_table();
                        let mut witness = trace_of(&stack, &table);
                        witness.push(table.name(label).to_owned());
                        return SearchOutcome { witness: Some(witness), stats: dfs.stats(false) };
                    }
                    Some(edges) => {
                        stack.push(Frame { state: target, entry: Some(label), edges, cursor: 0 })
                    }
                }
            }
        }
    }

    let truncated = dfs.truncated;
    SearchOutcome { witness: None, stats: dfs.stats(truncated) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::LtsBuilder;
    use crate::ops;
    use crate::ts::LazyProduct;

    /// a -> b -> c, with a self-loop on the middle state.
    fn chain() -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        b.add_transition(s0, "a", s1);
        b.add_transition(s1, "loop", s1);
        b.add_transition(s1, "b", s2);
        b.add_transition(s2, "c", s3);
        b.build(s0)
    }

    #[test]
    fn materialize_round_trips_an_lts() {
        let lts = chain();
        let again = materialize(&lts);
        assert_eq!(crate::io::write_aut(&lts), crate::io::write_aut(&again));
    }

    #[test]
    fn scan_counts_match_materialization() {
        let lts = chain();
        let summary = scan(&lts, &ReachOptions::default());
        assert_eq!(summary.states, lts.num_states());
        assert_eq!(summary.transitions, lts.num_transitions());
        assert_eq!(summary.deadlocks, 1);
        assert!(!summary.truncated);
    }

    #[test]
    fn scan_reports_truncation() {
        let lts = chain();
        let summary = scan(&lts, &ReachOptions::with_max_states(2));
        assert!(summary.truncated);
        assert_eq!(summary.states, 2);
    }

    #[test]
    fn deadlock_search_finds_shortest_trace() {
        let lts = chain();
        let outcome = deadlock_search(&lts, &ReachOptions::default());
        assert_eq!(outcome.witness, Some(vec!["a".into(), "b".into(), "c".into()]));
        assert!(!outcome.stats.truncated);
    }

    #[test]
    fn deadlock_search_on_cycle_finds_nothing() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        b.add_transition(s0, "tick", s0);
        let lts = b.build(s0);
        let outcome = deadlock_search(&lts, &ReachOptions::default());
        assert!(outcome.witness.is_none());
        assert_eq!(outcome.stats.visited, 1);
    }

    #[test]
    fn action_search_trace_ends_with_match() {
        let lts = chain();
        let outcome = action_search(&lts, |name| name == "c", &ReachOptions::default());
        assert_eq!(outcome.witness, Some(vec!["a".into(), "b".into(), "c".into()]));
        let missing = action_search(&lts, |name| name == "zzz", &ReachOptions::default());
        assert!(missing.witness.is_none());
        assert!(!missing.stats.truncated);
    }

    #[test]
    fn avoid_search_finds_cycle_and_deadlock_violations() {
        // A cycle that never does "goal": inevitability is violated.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "step", s1);
        b.add_transition(s1, "step", s0);
        b.add_transition(s0, "goal", s1);
        let lts = b.build(s0);
        let outcome = avoid_search(&lts, |name| name == "goal", &ReachOptions::default());
        assert_eq!(outcome.witness, Some(vec!["step".into(), "step".into()]));

        // Every path hits "goal": no violation.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "goal", s1);
        b.add_transition(s1, "goal", s0);
        let all_goal = b.build(s0);
        let ok = avoid_search(&all_goal, |name| name == "goal", &ReachOptions::default());
        assert!(ok.witness.is_none());

        // The chain's self-loop is found first; it also deadlocks after
        // "c" — either way inevitability of "goal" is violated.
        let violated = avoid_search(&chain(), |name| name == "goal", &ReachOptions::default());
        assert_eq!(violated.witness, Some(vec!["a".into(), "loop".into()]));

        // Without the self-loop the deadlock path is the witness.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "b", s[2]);
        b.add_transition(s[2], "c", s[3]);
        let straight = b.build(s[0]);
        let dead = avoid_search(&straight, |name| name == "goal", &ReachOptions::default());
        assert_eq!(dead.witness, Some(vec!["a".into(), "b".into(), "c".into()]));
    }

    #[test]
    fn materialize_store_matches_hashmap_on_every_backend() {
        use crate::store::{make_store, StoreConfig, StoreKind};
        // A 60-state product with both interleaved and synchronized moves.
        let mut left = LtsBuilder::new();
        let ls: Vec<_> = (0..10).map(|_| left.add_state()).collect();
        for (i, w) in ls.windows(2).enumerate() {
            left.add_transition(w[0], &format!("L !{i}"), w[1]);
        }
        left.add_transition(ls[9], "S", ls[0]);
        let left = left.build(ls[0]);
        let mut right = LtsBuilder::new();
        let rs: Vec<_> = (0..6).map(|_| right.add_state()).collect();
        for (i, w) in rs.windows(2).enumerate() {
            right.add_transition(w[0], &format!("R !{i}"), w[1]);
        }
        right.add_transition(rs[5], "S", rs[0]);
        let right = right.build(rs[0]);

        let parts = [&left, &right];
        let product = LazyProduct::new(&parts, &ops::Sync::on(["S"]));
        let want = crate::io::write_aut(&materialize(&product));
        for kind in StoreKind::ALL {
            for workers in [1, 4] {
                // A 1-byte budget forces the spill backend to page out
                // every sealed segment; other backends ignore it.
                let mut store = make_store(&StoreConfig { kind, mem_budget: Some(1) });
                let got = materialize_store(&product, Workers::new(workers), store.as_mut());
                assert_eq!(
                    want,
                    crate::io::write_aut(&got),
                    "store {kind} at {workers} workers diverged"
                );
                assert_eq!(store.len(), got.num_states());
            }
        }
    }

    #[test]
    fn search_visits_fewer_states_than_product_when_bug_is_shallow() {
        // Two independent 50-state counters, plus a shared "halt" available
        // immediately: the deadlock sits one step from the root, while the
        // full product has ~2.5k states.
        let mut counter = LtsBuilder::new();
        let states: Vec<_> = (0..50).map(|_| counter.add_state()).collect();
        for w in states.windows(2) {
            counter.add_transition(w[0], "tick", w[1]);
        }
        let stop = counter.add_state();
        counter.add_transition(states[0], "halt", stop);
        let counter = counter.build(states[0]);

        let parts = [&counter, &counter];
        let product = LazyProduct::new(&parts, &ops::Sync::on(["halt"]));
        let eager = materialize(&product).num_states();
        let outcome = deadlock_search(&product, &ReachOptions::default());
        assert!(outcome.witness.is_some());
        assert!(
            outcome.stats.visited < eager,
            "on-the-fly visited {} vs {} materialized",
            outcome.stats.visited,
            eager
        );
    }
}
