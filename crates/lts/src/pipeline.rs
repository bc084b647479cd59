//! Smart compositional reduction pipeline.
//!
//! The paper's weapon against state explosion is *compositional
//! verification*: minimize each component modulo a bisimulation before
//! composing it, so the product never materializes at full size. This
//! module supplies the engine that decides *how* to apply the primitives
//! from [`crate::ops`] and [`crate::minimize`]:
//!
//! 1. **Order** — candidate composition orders are scored with a
//!    smart-reduction-style heuristic (estimated product transitions from
//!    interleaving and synchronization counts, with a bonus for orders
//!    that let internal gates be hidden early);
//! 2. **Hide early** — at each stage, every gate slated for hiding whose
//!    possessors have all been folded in (and every hidden gate that never
//!    synchronizes) is turned into τ before minimization;
//! 3. **Minimize** — the intermediate product is reduced modulo the
//!    chosen [`Equivalence`] (both strong and branching bisimulation are
//!    congruences for parallel composition and hiding, so intermediate
//!    minimization is sound);
//! 4. **Checkpoint** — each stage can be persisted as a compact binary
//!    `.blts` file ([`crate::io::write_blts`]) plus a fingerprinted
//!    manifest, so an interrupted pipeline resumes instead of recomputing.
//!
//! The final result is passed through [`canonicalize`], which renumbers
//! states and labels into a form that depends only on the structure of
//! the LTS — byte-identical [`crate::io::write_aut`] output across
//! composition orders, worker counts, and checkpoint restarts.
//!
//! # Network semantics
//!
//! A [`Network`] is a set of named components plus a set of *sync gates*
//! and a set of *hidden gates*. A sync gate synchronizes among exactly
//! the components whose alphabet contains it (EXP.OPEN-style alphabet
//! scoping); all other gates interleave freely. The special LOTOS
//! termination gate `exit` always synchronizes among **all** components,
//! mirroring [`crate::ops::compose`]. Hidden gates are internalized (τ)
//! in the final result; the pipeline merely hides them as early as is
//! sound.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use crate::io::{fnv1a, read_blts, write_aut, write_blts};
use crate::label::gate_of;
use crate::lts::{Lts, LtsBuilder};
use crate::minimize::{minimize, Equivalence};
use crate::ops::{self, Sync};
use crate::reach;
use crate::store::{make_store, StoreConfig, StoreKind};
use crate::ts::LazyProduct;
use multival_par::{SplitMix64, Workers};

/// The LOTOS successful-termination gate: always joint, never hidden early.
const EXIT_GATE: &str = "exit";

/// A network of components with alphabet-scoped synchronization.
#[derive(Debug, Clone)]
pub struct Network {
    components: Vec<(String, Lts)>,
    sync_gates: BTreeSet<String>,
    hidden: BTreeSet<String>,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network { components: Vec::new(), sync_gates: BTreeSet::new(), hidden: BTreeSet::new() }
    }

    /// Adds a named component.
    pub fn add_component(&mut self, name: impl Into<String>, lts: Lts) -> &mut Self {
        self.components.push((name.into(), lts));
        self
    }

    /// Declares gates that synchronize among all their possessors.
    pub fn sync_on<I, S>(&mut self, gates: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.sync_gates.extend(gates.into_iter().map(Into::into));
        self
    }

    /// Declares gates hidden (τ) in the final result.
    pub fn hide<I, S>(&mut self, gates: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.hidden.extend(gates.into_iter().map(Into::into));
        self
    }

    /// The components, in declaration order.
    pub fn components(&self) -> &[(String, Lts)] {
        &self.components
    }

    /// The synchronizing gates.
    pub fn sync_gates(&self) -> &BTreeSet<String> {
        &self.sync_gates
    }

    /// The gates hidden in the final result.
    pub fn hidden(&self) -> &BTreeSet<String> {
        &self.hidden
    }

    /// The *static* alphabet of each component: every gate that appears on
    /// a transition (τ excluded). Alphabets are computed from the original
    /// components and never shrink as intermediates are minimized — a sync
    /// gate a possessor can no longer offer must keep blocking its peers.
    fn alphabets(&self) -> Vec<BTreeSet<String>> {
        self.components
            .iter()
            .map(|(_, lts)| lts.used_gates().into_iter().filter(|g| g != "i").collect())
            .collect()
    }

    /// A structural fingerprint of the network (components, sync set, hide
    /// set), used to validate checkpoints.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::from("network v1\n");
        for (name, lts) in &self.components {
            text.push_str("component\n");
            text.push_str(name);
            text.push('\n');
            text.push_str(&write_aut(lts));
        }
        for g in &self.sync_gates {
            text.push_str(&format!("sync {g}\n"));
        }
        for g in &self.hidden {
            text.push_str(&format!("hide {g}\n"));
        }
        fnv1a(text.as_bytes())
    }
}

/// Composition-order policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Fold components in declaration order.
    Given,
    /// Greedy smart-reduction heuristic (Crouzen & Lang): repeatedly fold
    /// the component minimizing the estimated product transition count,
    /// with a bonus when the fold completes a hidden gate's possessor set.
    Smart,
    /// A seeded pseudo-random permutation (deterministic per seed) — used
    /// by the differential harness to stress order-independence.
    Seeded(u64),
}

impl fmt::Display for Order {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Order::Given => write!(f, "given"),
            Order::Smart => write!(f, "smart"),
            Order::Seeded(s) => write!(f, "seed:{s}"),
        }
    }
}

/// Options for [`run_pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Equivalence used for intermediate and final minimization.
    pub equivalence: Equivalence,
    /// Composition-order policy.
    pub order: Order,
    /// Worker count for composition.
    pub workers: Workers,
    /// Inclusive cap on any intermediate product's state count: the stage
    /// product stops growing at the first state past the cap and the
    /// pipeline aborts with partial progress.
    pub max_states: Option<usize>,
    /// Wall-clock deadline, checked between stages.
    pub deadline: Option<Instant>,
    /// Directory for per-stage `.blts` checkpoints plus a manifest; if it
    /// already holds a manifest matching this network and options, the
    /// pipeline resumes from the last completed stage.
    pub checkpoint_dir: Option<PathBuf>,
    /// State-store backend for the stage products (and memory budget for
    /// the spill backend). Every backend yields byte-identical results;
    /// see [`crate::store`].
    pub store: StoreConfig,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            equivalence: Equivalence::Branching,
            order: Order::Smart,
            workers: Workers::default(),
            max_states: None,
            deadline: None,
            checkpoint_dir: None,
            store: StoreConfig::default(),
        }
    }
}

/// Per-stage statistics: stage 0 is the first component alone, stage `k`
/// folds the `k`-th component of the resolved order into the accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage index (0-based).
    pub stage: usize,
    /// Name of the component folded in at this stage.
    pub component: String,
    /// Product states before hiding/minimization (the stage peak).
    pub states_before: usize,
    /// Product transitions before hiding/minimization.
    pub transitions_before: usize,
    /// States after hiding + minimization.
    pub states_after: usize,
    /// Transitions after hiding + minimization.
    pub transitions_after: usize,
    /// Gates hidden at this stage (their possessors are now all folded).
    pub hidden: Vec<String>,
}

/// Why a pipeline stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// The next stage's product would exceed the state cap.
    MaxStates {
        /// Stage that tripped the cap.
        stage: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The deadline passed between stages.
    Timeout {
        /// First stage that was not run.
        stage: usize,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::MaxStates { stage, cap } => {
                write!(f, "stage {stage} product exceeds the {cap}-state cap")
            }
            AbortReason::Timeout { stage } => write!(f, "deadline reached before stage {stage}"),
        }
    }
}

/// Result of [`run_pipeline`]: the (possibly partial) reduced LTS plus the
/// full stage-by-stage account.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The canonicalized result. On abort this is the last completed
    /// intermediate (partial progress), already canonicalized.
    pub lts: Lts,
    /// Statistics for every completed stage, in execution order.
    pub stages: Vec<StageStats>,
    /// The resolved composition order (indices into the network's
    /// component list).
    pub order: Vec<usize>,
    /// Present when the budget stopped the pipeline early.
    pub abort: Option<AbortReason>,
    /// Number of leading stages restored from a checkpoint instead of
    /// recomputed.
    pub resumed_stages: usize,
}

impl PipelineRun {
    /// True when every component was folded in.
    pub fn complete(&self) -> bool {
        self.abort.is_none()
    }

    /// Peak intermediate size: the largest state count that ever existed,
    /// inclusive of pre-minimization products.
    pub fn peak_states(&self) -> usize {
        self.stages.iter().map(|s| s.states_before.max(s.states_after)).max().unwrap_or(0)
    }
}

/// Result of the [`monolithic`] reference build.
#[derive(Debug, Clone)]
pub struct MonolithicRun {
    /// The canonicalized minimized product (same observable behaviour as
    /// the pipeline's result).
    pub lts: Lts,
    /// States of the full product before hiding/minimization.
    pub product_states: usize,
    /// Transitions of the full product before hiding/minimization.
    pub product_transitions: usize,
    /// Largest intermediate state count during the fold (the product
    /// itself is always the last and largest candidate).
    pub peak_states: usize,
}

/// The monolithic reference: fold every component in declaration order
/// with the same alphabet-scoped synchronization — but **no** intermediate
/// hiding or minimization — then hide, minimize once, and canonicalize.
///
/// This is the semantic yardstick the differential harness compares the
/// pipeline against, and the baseline the paper's compositional flow is
/// measured by.
///
/// # Panics
///
/// Panics if the network has no components.
pub fn monolithic(network: &Network, eq: Equivalence, workers: Workers) -> MonolithicRun {
    assert!(!network.components.is_empty(), "monolithic build needs at least one component");
    let alphabets = network.alphabets();
    let mut folded_alpha = alphabets[0].clone();
    let mut acc = network.components[0].1.clone();
    let mut peak = acc.num_states();
    for (k, (_, comp)) in network.components.iter().enumerate().skip(1) {
        let sync = stage_sync(&folded_alpha, &alphabets[k], &network.sync_gates);
        acc = ops::compose_with(&acc, comp, &sync, workers);
        folded_alpha.extend(alphabets[k].iter().cloned());
        peak = peak.max(acc.num_states());
    }
    let product_states = acc.num_states();
    let product_transitions = acc.num_transitions();
    let hidden = ops::hide(&acc, network.hidden.iter().map(String::as_str));
    let (minimized, _) = minimize(&hidden, eq);
    MonolithicRun {
        lts: canonicalize(&minimized),
        product_states,
        product_transitions,
        peak_states: peak,
    }
}

/// Runs the compositional reduction pipeline on `network`.
///
/// # Panics
///
/// Panics if the network has no components.
pub fn run_pipeline(network: &Network, options: &PipelineOptions) -> PipelineRun {
    let n = network.components.len();
    assert!(n > 0, "pipeline needs at least one component");
    let alphabets = network.alphabets();
    let order = resolve_order(network, &alphabets, options.order);

    let checkpoint = options.checkpoint_dir.as_deref().map(|dir| Checkpoint {
        dir: dir.to_path_buf(),
        fingerprint: checkpoint_fingerprint(network, options, &order),
    });

    let mut stages: Vec<StageStats> = Vec::new();
    let mut acc: Option<Lts> = None;
    let mut resumed_stages = 0usize;
    if let Some(cp) = &checkpoint {
        if let Some((restored_stages, restored_acc)) = cp.try_resume(&order) {
            resumed_stages = restored_stages.len();
            stages = restored_stages;
            acc = Some(restored_acc);
        }
    }
    if resumed_stages == 0 {
        if let Some(cp) = &checkpoint {
            cp.reset(&order);
        }
    }

    // Rebuild the folded bookkeeping for the stages already done.
    let mut folded: BTreeSet<usize> = order[..resumed_stages].iter().copied().collect();
    let mut folded_alpha: BTreeSet<String> = BTreeSet::new();
    for &i in &folded {
        folded_alpha.extend(alphabets[i].iter().cloned());
    }
    let mut hidden_done: BTreeSet<String> =
        stages.iter().flat_map(|s| s.hidden.iter().cloned()).collect();

    let mut abort = None;
    for (k, &idx) in order.iter().enumerate().skip(resumed_stages) {
        if let Some(deadline) = options.deadline {
            if Instant::now() >= deadline {
                abort = Some(AbortReason::Timeout { stage: k });
                break;
            }
        }
        let (name, comp) = &network.components[idx];
        let product = if let Some(prev) = acc.as_ref() {
            let sync = stage_sync(&folded_alpha, &alphabets[idx], &network.sync_gates);
            let lazy = LazyProduct::new(&[prev, comp], &sync);
            let cap = options.max_states.unwrap_or(usize::MAX);
            let product = if options.store.kind == StoreKind::Hash {
                reach::materialize_capped(&lazy, options.workers, cap)
            } else {
                let mut store = make_store(&options.store);
                reach::materialize_store_capped(&lazy, options.workers, store.as_mut(), cap)
            };
            match product {
                Some(product) => product,
                None => {
                    abort = Some(AbortReason::MaxStates { stage: k, cap });
                    break;
                }
            }
        } else {
            if let Some(cap) = options.max_states {
                if comp.num_states() > cap {
                    abort = Some(AbortReason::MaxStates { stage: k, cap });
                    break;
                }
            }
            comp.clone()
        };
        folded.insert(idx);
        folded_alpha.extend(alphabets[idx].iter().cloned());

        let (to_hide, completed) =
            hideable_now(network, &alphabets, &folded, &folded_alpha, &hidden_done);
        let states_before = product.num_states();
        let transitions_before = product.num_transitions();
        let internalized = if to_hide.is_empty() {
            product
        } else {
            ops::hide(&product, to_hide.iter().map(String::as_str))
        };
        let (minimized, _) = minimize(&internalized, options.equivalence);
        hidden_done.extend(completed.iter().cloned());
        let stat = StageStats {
            stage: k,
            component: name.clone(),
            states_before,
            transitions_before,
            states_after: minimized.num_states(),
            transitions_after: minimized.num_transitions(),
            hidden: completed,
        };
        if let Some(cp) = &checkpoint {
            cp.record_stage(&stat, &minimized, &stages);
        }
        stages.push(stat);
        acc = Some(minimized);
    }

    let result = match acc {
        Some(lts) => canonicalize(&lts),
        // Aborted before even the first component fit: a single idle state.
        None => {
            let mut b = LtsBuilder::new();
            let s = b.add_state();
            b.build(s)
        }
    };
    PipelineRun { lts: result, stages, order, abort, resumed_stages }
}

/// The synchronization set for folding a component with alphabet `next`
/// onto an accumulator covering `folded`: exactly the declared sync gates
/// both sides possess. (`exit` is joint regardless — [`ops::compose`]
/// enforces that unconditionally.)
fn stage_sync(
    folded: &BTreeSet<String>,
    next: &BTreeSet<String>,
    sync_gates: &BTreeSet<String>,
) -> Sync {
    let shared: Vec<&String> =
        sync_gates.iter().filter(|g| folded.contains(*g) && next.contains(*g)).collect();
    if shared.is_empty() {
        Sync::Interleave
    } else {
        Sync::on(shared.into_iter().map(String::as_str))
    }
}

/// The hidden gates that may be internalized once the components in
/// `folded` are in. Returns `(apply, completed)`:
///
/// * `apply` — gates to hide at this stage. A non-synchronizing gate can
///   be hidden as soon as any possessor is folded (its occurrences never
///   interact across components), but it is hidden again at every stage
///   until the last possessor arrives; a synchronizing gate only once all
///   possessors are in (earlier, hiding would break the pending
///   synchronizations); `exit` only when everything is folded (it is
///   joint among all components).
/// * `completed` — the subset whose possessor set is now complete; these
///   are recorded in the stage stats and never revisited.
fn hideable_now(
    network: &Network,
    alphabets: &[BTreeSet<String>],
    folded: &BTreeSet<usize>,
    folded_alpha: &BTreeSet<String>,
    hidden_done: &BTreeSet<String>,
) -> (Vec<String>, Vec<String>) {
    let n = network.components.len();
    let mut apply = Vec::new();
    let mut completed = Vec::new();
    for g in network.hidden.iter().filter(|g| !hidden_done.contains(*g) && g.as_str() != "i") {
        let all_folded = if g == EXIT_GATE {
            folded.len() == n
        } else {
            (0..n).all(|i| folded.contains(&i) || !alphabets[i].contains(g))
        };
        let syncs = g == EXIT_GATE || network.sync_gates.contains(g);
        if all_folded {
            apply.push(g.clone());
            completed.push(g.clone());
        } else if !syncs && folded_alpha.contains(g) {
            apply.push(g.clone());
        }
    }
    (apply, completed)
}

// ---------------------------------------------------------------------------
// Order resolution
// ---------------------------------------------------------------------------

/// Per-component counts feeding the smart-order estimator.
struct CompStats {
    /// State count (upper bound for the accumulated pseudo-component).
    states: u128,
    /// Transitions on gates *not* in the sync set.
    free_transitions: u128,
    /// Transition count per synchronizing gate.
    sync_counts: BTreeMap<String, u128>,
}

fn comp_stats(lts: &Lts, sync_gates: &BTreeSet<String>) -> CompStats {
    let mut free = 0u128;
    let mut sync_counts: BTreeMap<String, u128> = BTreeMap::new();
    for (_, label, _) in lts.iter_transitions() {
        let name = lts.labels().name(label);
        let gate = gate_of(name);
        if sync_gates.contains(gate) || gate == EXIT_GATE {
            *sync_counts.entry(gate.to_owned()).or_insert(0) += 1;
        } else {
            free += 1;
        }
    }
    CompStats { states: lts.num_states() as u128, free_transitions: free, sync_counts }
}

fn resolve_order(network: &Network, alphabets: &[BTreeSet<String>], order: Order) -> Vec<usize> {
    let n = network.components.len();
    match order {
        Order::Given => (0..n).collect(),
        Order::Seeded(seed) => {
            let mut perm: Vec<usize> = (0..n).collect();
            let mut rng = SplitMix64::new(seed);
            // Fisher–Yates driven by splitmix64: deterministic per seed,
            // no dependence on std's RandomState.
            for i in (1..n).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            perm
        }
        Order::Smart => smart_order(network, alphabets),
    }
}

/// Greedy smart-reduction order: start from the smallest component, then
/// repeatedly fold the candidate with the lowest estimated product
/// transition count
///
/// ```text
/// score = free(acc)·states(c) + free(c)·states(acc)
///       + Σ_{shared sync gate g} cnt_acc(g)·cnt_c(g)
/// ```
///
/// discounted when the fold completes a hidden gate's possessor set (early
/// hiding is what lets branching minimization collapse the intermediate).
/// Ties break on estimated product states, then component index, so the
/// order is deterministic.
fn smart_order(network: &Network, alphabets: &[BTreeSet<String>]) -> Vec<usize> {
    let n = network.components.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let stats: Vec<CompStats> =
        network.components.iter().map(|(_, lts)| comp_stats(lts, &network.sync_gates)).collect();

    let first = (0..n).min_by_key(|&i| (stats[i].states, i)).expect("non-empty network");
    let mut order = vec![first];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != first).collect();

    // Accumulated pseudo-component (coarse upper bounds).
    let mut acc = CompStats {
        states: stats[first].states,
        free_transitions: stats[first].free_transitions,
        sync_counts: stats[first].sync_counts.clone(),
    };
    let mut folded: BTreeSet<usize> = BTreeSet::from([first]);

    while !remaining.is_empty() {
        let mut best: Option<(u128, u128, usize)> = None;
        for &c in &remaining {
            let s = &stats[c];
            let shared: Vec<&String> =
                acc.sync_counts.keys().filter(|g| s.sync_counts.contains_key(*g)).collect();
            let shared_acc: u128 = shared.iter().map(|g| acc.sync_counts[*g]).sum();
            let shared_c: u128 = shared.iter().map(|g| s.sync_counts[*g]).sum();
            let free_acc =
                acc.free_transitions + acc.sync_counts.values().sum::<u128>() - shared_acc;
            let free_c = s.free_transitions + s.sync_counts.values().sum::<u128>() - shared_c;
            let mut score =
                free_acc.saturating_mul(s.states).saturating_add(free_c.saturating_mul(acc.states));
            for g in &shared {
                score = score.saturating_add(acc.sync_counts[*g].saturating_mul(s.sync_counts[*g]));
            }
            // Bonus: each hidden gate whose possessor set this fold
            // completes shaves 20% off the score.
            let mut with_c = folded.clone();
            with_c.insert(c);
            let completed = network
                .hidden
                .iter()
                .filter(|g| network.sync_gates.contains(*g) && alphabets[c].contains(*g))
                .filter(|g| (0..n).all(|i| with_c.contains(&i) || !alphabets[i].contains(*g)))
                .count() as u128;
            score = score.saturating_mul(100) / (100 + 20 * completed);
            let est_states = acc.states.saturating_mul(s.states);
            let key = (score, est_states, c);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, chosen) = best.expect("remaining is non-empty");
        remaining.retain(|&i| i != chosen);
        folded.insert(chosen);
        order.push(chosen);

        let s = &stats[chosen];
        let prev_states = acc.states;
        let next_states = acc.states.saturating_mul(s.states);
        acc.free_transitions = acc
            .free_transitions
            .saturating_mul(s.states)
            .saturating_add(s.free_transitions.saturating_mul(prev_states));
        let mut merged: BTreeMap<String, u128> = BTreeMap::new();
        for (g, &cnt) in &acc.sync_counts {
            match s.sync_counts.get(g) {
                Some(&other) => {
                    merged.insert(g.clone(), cnt.saturating_mul(other));
                }
                None => {
                    merged.insert(g.clone(), cnt.saturating_mul(s.states));
                }
            }
        }
        for (g, &cnt) in &s.sync_counts {
            merged.entry(g.clone()).or_insert_with(|| cnt.saturating_mul(prev_states));
        }
        acc.sync_counts = merged;
        acc.states = next_states;
    }
    order
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

/// Renumbers states and labels of `lts` into a canonical form: the output
/// depends only on the structure of the LTS (up to isomorphism), so two
/// isomorphic inputs — e.g. the same network reduced in different orders,
/// at different worker counts, or across a checkpoint restart — serialize
/// to byte-identical [`write_aut`] text.
///
/// States are ordered by color refinement (iterated strong-bisimulation
/// signatures): on a bisimulation-minimal LTS no two states share a final
/// color, so the refinement yields a total, structure-only order. Labels
/// are re-interned sorted by name (τ stays id 0), and the initial state
/// becomes state 0.
pub fn canonicalize(lts: &Lts) -> Lts {
    let n = lts.num_states();
    if n == 0 {
        return lts.clone();
    }
    // Rank labels by name; τ participates like any other label in the
    // signature (its name "i" sorts deterministically).
    let mut by_name: Vec<(&str, u32)> =
        lts.labels().iter().map(|(id, name)| (name, id.0)).collect();
    by_name.sort_unstable();
    let mut label_rank = vec![0u32; lts.labels().len()];
    for (rank, &(_, id)) in by_name.iter().enumerate() {
        label_rank[id as usize] = rank as u32;
    }

    // Color refinement: start from {initial} vs rest, then iterate
    // signature-based splitting to a fixed point.
    // (own color, sorted deduped (label rank, successor color) pairs, state)
    type Signature = (u32, Vec<(u32, u32)>, usize);
    let mut colors: Vec<u32> = (0..n).map(|s| u32::from(s as u32 == lts.initial())).collect();
    let mut num_colors = if n == 1 { 1 } else { 2 };
    loop {
        let mut sigs: Vec<Signature> = (0..n)
            .map(|s| {
                let mut succ: Vec<(u32, u32)> = lts
                    .transitions_from(s as u32)
                    .iter()
                    .map(|t| (label_rank[t.label.index()], colors[t.target as usize]))
                    .collect();
                succ.sort_unstable();
                succ.dedup();
                (colors[s], succ, s)
            })
            .collect();
        sigs.sort_unstable();
        let mut next = vec![0u32; n];
        let mut fresh = 0u32;
        for i in 0..n {
            if i > 0 && (sigs[i].0, &sigs[i].1) != (sigs[i - 1].0, &sigs[i - 1].1) {
                fresh += 1;
            }
            next[sigs[i].2] = fresh;
        }
        let fresh_count = fresh as usize + 1;
        if fresh_count == num_colors {
            break;
        }
        num_colors = fresh_count;
        colors = next;
    }

    // Canonical state order: initial first, then ascending final color;
    // residual ties (only possible on non-minimal inputs) break on the
    // original id, which is deterministic for a fixed input LTS.
    let mut order: Vec<usize> = (0..n).collect();
    let init = lts.initial() as usize;
    order.sort_by_key(|&s| (s != init, colors[s], s));
    let mut perm = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        perm[old] = new as u32;
    }

    let mut b = LtsBuilder::new();
    b.ensure_states(n as u32);
    let mut new_label = vec![crate::label::LabelId::TAU; lts.labels().len()];
    for &(name, id) in &by_name {
        new_label[id as usize] = b.intern(name);
    }
    for (src, label, dst) in lts.iter_transitions() {
        b.add_transition_id(perm[src as usize], new_label[label.index()], perm[dst as usize]);
    }
    b.build(0)
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

const MANIFEST_NAME: &str = "pipeline.manifest";
// v2: stage snapshots moved from `.aut` text to `.blts` binary. v1
// checkpoints fail the header check and are recomputed from scratch.
const MANIFEST_HEADER: &str = "multival-pipeline-checkpoint v2";

struct Checkpoint {
    dir: PathBuf,
    fingerprint: u64,
}

/// Fingerprint covering everything the intermediate results depend on:
/// the network, the equivalence, and the resolved order. Worker counts and
/// budgets are deliberately excluded — they never change the stage LTSs.
fn checkpoint_fingerprint(network: &Network, options: &PipelineOptions, order: &[usize]) -> u64 {
    let mut bytes = network.fingerprint().to_le_bytes().to_vec();
    bytes.extend_from_slice(format!("eq {:?}\n", options.equivalence).as_bytes());
    for &i in order {
        bytes.extend_from_slice(format!("order {i}\n").as_bytes());
    }
    fnv1a(&bytes)
}

impl Checkpoint {
    fn stage_path(&self, stage: usize) -> PathBuf {
        self.dir.join(format!("stage_{stage}.blts"))
    }

    /// Clears stale checkpoint state and writes a fresh manifest header.
    fn reset(&self, order: &[usize]) {
        let _ = std::fs::create_dir_all(&self.dir);
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_NAME));
        for k in 0..order.len() {
            let _ = std::fs::remove_file(self.stage_path(k));
        }
    }

    /// Persists one completed stage: its `.blts` plus a rewritten manifest
    /// listing every stage done so far (the manifest is small; rewriting
    /// it whole keeps the format trivially robust).
    fn record_stage(&self, stat: &StageStats, lts: &Lts, done: &[StageStats]) {
        let _ = std::fs::create_dir_all(&self.dir);
        if std::fs::write(self.stage_path(stat.stage), write_blts(lts)).is_err() {
            return;
        }
        let mut manifest = String::new();
        manifest.push_str(MANIFEST_HEADER);
        manifest.push('\n');
        manifest.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        for s in done.iter().chain(std::iter::once(stat)) {
            manifest.push_str(&format!(
                "stage {} {} {} {} {} {} {}\n",
                s.stage,
                s.states_before,
                s.transitions_before,
                s.states_after,
                s.transitions_after,
                s.component.replace(char::is_whitespace, "_"),
                if s.hidden.is_empty() { "-".to_owned() } else { s.hidden.join(",") },
            ));
        }
        let _ = std::fs::write(self.dir.join(MANIFEST_NAME), manifest);
    }

    /// Attempts to restore completed stages. Returns the restored stats
    /// plus the last stage's LTS, or `None` when the checkpoint is absent,
    /// stale (fingerprint mismatch), or unreadable in any way.
    fn try_resume(&self, order: &[usize]) -> Option<(Vec<StageStats>, Lts)> {
        let manifest = std::fs::read_to_string(self.dir.join(MANIFEST_NAME)).ok()?;
        let mut lines = manifest.lines();
        if lines.next()? != MANIFEST_HEADER {
            return None;
        }
        let fp_line = lines.next()?;
        let fp = u64::from_str_radix(fp_line.strip_prefix("fingerprint ")?, 16).ok()?;
        if fp != self.fingerprint {
            return None;
        }
        let mut stages = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            if parts.next()? != "stage" {
                return None;
            }
            let stage: usize = parts.next()?.parse().ok()?;
            if stage != stages.len() || stage >= order.len() {
                return None;
            }
            let states_before: usize = parts.next()?.parse().ok()?;
            let transitions_before: usize = parts.next()?.parse().ok()?;
            let states_after: usize = parts.next()?.parse().ok()?;
            let transitions_after: usize = parts.next()?.parse().ok()?;
            let component = parts.next()?.to_owned();
            let hidden_field = parts.next()?;
            let hidden = if hidden_field == "-" {
                Vec::new()
            } else {
                hidden_field.split(',').map(str::to_owned).collect()
            };
            stages.push(StageStats {
                stage,
                component,
                states_before,
                transitions_before,
                states_after,
                transitions_after,
                hidden,
            });
        }
        if stages.is_empty() {
            return None;
        }
        let last = stages.len() - 1;
        let bytes = std::fs::read(self.stage_path(last)).ok()?;
        let lts = read_blts(&bytes).ok()?;
        if lts.num_states() != stages[last].states_after {
            return None;
        }
        Some((stages, lts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{disjoint_union, lts_from_triples};
    use crate::minimize::same_block;

    fn cell(inp: &str, outp: &str) -> Lts {
        lts_from_triples(&[(0, inp, 1), (1, outp, 0)])
    }

    /// A 3-cell buffer chain: enq → h1 → h2 → deq, hops hidden.
    fn chain() -> Network {
        let mut net = Network::new();
        net.add_component("c1", cell("enq", "h1"))
            .add_component("c2", cell("h1", "h2"))
            .add_component("c3", cell("h2", "deq"))
            .sync_on(["h1", "h2"])
            .hide(["h1", "h2"]);
        net
    }

    #[test]
    fn pipeline_matches_monolithic_on_chain() {
        let net = chain();
        let mono = monolithic(&net, Equivalence::Branching, Workers::default());
        for order in [Order::Given, Order::Smart, Order::Seeded(7)] {
            let run = run_pipeline(&net, &PipelineOptions { order, ..PipelineOptions::default() });
            assert!(run.complete());
            assert_eq!(
                write_aut(&run.lts),
                write_aut(&mono.lts),
                "order {order} diverged from the monolithic reference"
            );
        }
    }

    #[test]
    fn pipeline_peak_beats_monolithic_on_long_chain() {
        let mut net = Network::new();
        let k = 7;
        for i in 0..k {
            let inp = if i == 0 { "enq".to_owned() } else { format!("h{i}") };
            let outp = if i + 1 == k { "deq".to_owned() } else { format!("h{}", i + 1) };
            net.add_component(format!("c{i}"), cell(&inp, &outp));
        }
        let hops: Vec<String> = (1..k).map(|i| format!("h{i}")).collect();
        net.sync_on(hops.iter().cloned()).hide(hops);
        let mono = monolithic(&net, Equivalence::Branching, Workers::default());
        let run = run_pipeline(&net, &PipelineOptions::default());
        assert!(run.complete());
        assert_eq!(mono.product_states, 1 << k);
        assert!(
            run.peak_states() < mono.product_states,
            "pipeline peak {} must beat the 2^k product {}",
            run.peak_states(),
            mono.product_states
        );
        assert_eq!(write_aut(&run.lts), write_aut(&mono.lts));
    }

    #[test]
    fn canonical_form_is_order_and_worker_invariant() {
        let net = chain();
        let reference = run_pipeline(&net, &PipelineOptions::default());
        for seed in 0..6 {
            for workers in [1, 4] {
                let run = run_pipeline(
                    &net,
                    &PipelineOptions {
                        order: Order::Seeded(seed),
                        workers: Workers::new(workers),
                        ..PipelineOptions::default()
                    },
                );
                assert_eq!(
                    write_aut(&run.lts),
                    write_aut(&reference.lts),
                    "seed {seed} × {workers} workers broke canonical determinism"
                );
            }
        }
    }

    #[test]
    fn pipeline_is_store_invariant() {
        let net = chain();
        let reference = run_pipeline(&net, &PipelineOptions::default());
        for kind in StoreKind::ALL {
            // A 1-byte budget forces the spill backend to page everything.
            let run = run_pipeline(
                &net,
                &PipelineOptions {
                    store: StoreConfig { kind, mem_budget: Some(1) },
                    ..PipelineOptions::default()
                },
            );
            assert_eq!(
                write_aut(&run.lts),
                write_aut(&reference.lts),
                "store backend {kind} diverged"
            );
        }
    }

    #[test]
    fn strong_equivalence_pipeline_agrees() {
        let net = chain();
        let mono = monolithic(&net, Equivalence::Strong, Workers::default());
        let run = run_pipeline(
            &net,
            &PipelineOptions { equivalence: Equivalence::Strong, ..PipelineOptions::default() },
        );
        assert_eq!(write_aut(&run.lts), write_aut(&mono.lts));
        let (u, ia, ib) = disjoint_union(&run.lts, &mono.lts);
        assert!(same_block(&u, ia, ib, Equivalence::Strong));
    }

    #[test]
    fn single_possessor_sync_gate_moves_freely() {
        // `b` is declared synchronizing but only one component has it: it
        // must interleave (alphabet-scoped synchronization), in any order.
        let mut net = Network::new();
        net.add_component("l", lts_from_triples(&[(0, "a", 1), (1, "b", 0)]))
            .add_component("r", lts_from_triples(&[(0, "a", 1), (1, "c", 0)]))
            .sync_on(["a", "b"]);
        let mono = monolithic(&net, Equivalence::Branching, Workers::default());
        for order in [Order::Given, Order::Seeded(3)] {
            let run = run_pipeline(&net, &PipelineOptions { order, ..PipelineOptions::default() });
            assert_eq!(write_aut(&run.lts), write_aut(&mono.lts));
        }
        // `b` must actually be reachable in the product.
        assert!(mono.lts.used_gates().contains("b"));
    }

    #[test]
    fn exit_stays_joint_and_is_never_hidden_early() {
        // Left exits; right never does: the product must not exit, even
        // though `exit` is slated for hiding and right joins last.
        let mut net = Network::new();
        net.add_component("l", lts_from_triples(&[(0, "a", 1), (1, "exit", 2)]))
            .add_component("m", lts_from_triples(&[(0, "a", 1), (1, "exit", 2)]))
            .add_component("r", lts_from_triples(&[(0, "a", 1), (1, "b", 0)]))
            .sync_on(["a"])
            .hide(["exit", "b"]);
        let mono = monolithic(&net, Equivalence::Branching, Workers::default());
        assert!(!mono.lts.used_gates().contains("exit"));
        for order in [Order::Given, Order::Smart, Order::Seeded(11)] {
            let run = run_pipeline(&net, &PipelineOptions { order, ..PipelineOptions::default() });
            assert_eq!(write_aut(&run.lts), write_aut(&mono.lts), "order {order}");
        }
    }

    #[test]
    fn max_states_aborts_with_partial_progress() {
        let net = chain();
        let run = run_pipeline(
            &net,
            &PipelineOptions { max_states: Some(3), ..PipelineOptions::default() },
        );
        assert!(matches!(run.abort, Some(AbortReason::MaxStates { cap: 3, .. })));
        assert!(!run.stages.is_empty(), "partial progress must be reported");
        assert!(run.lts.num_states() > 0);
    }

    #[test]
    fn expired_deadline_aborts_before_stage() {
        let net = chain();
        let run = run_pipeline(
            &net,
            &PipelineOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
                ..PipelineOptions::default()
            },
        );
        assert_eq!(run.abort, Some(AbortReason::Timeout { stage: 0 }));
        assert!(run.stages.is_empty());
    }

    #[test]
    fn checkpoint_resumes_and_matches_fresh_run() {
        let dir = std::env::temp_dir().join("multival-pipeline-ckpt-test");
        let _ = std::fs::remove_dir_all(&dir);
        let net = chain();
        let options =
            PipelineOptions { checkpoint_dir: Some(dir.clone()), ..PipelineOptions::default() };
        let fresh = run_pipeline(&net, &options);
        assert_eq!(fresh.resumed_stages, 0);
        // A second run over the same directory restores every stage.
        let resumed = run_pipeline(&net, &options);
        assert_eq!(resumed.resumed_stages, net.components().len());
        assert_eq!(write_aut(&resumed.lts), write_aut(&fresh.lts));
        assert_eq!(resumed.stages, fresh.stages);
        // Truncating the checkpoint to one stage resumes the tail only.
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = std::fs::read_to_string(&manifest_path).expect("manifest");
        let head: Vec<&str> = manifest.lines().take(3).collect();
        std::fs::write(&manifest_path, format!("{}\n", head.join("\n"))).expect("truncate");
        let partial = run_pipeline(&net, &options);
        assert_eq!(partial.resumed_stages, 1);
        assert_eq!(write_aut(&partial.lts), write_aut(&fresh.lts));
        assert_eq!(partial.stages, fresh.stages);
        // A different equivalence invalidates the fingerprint.
        let other = run_pipeline(
            &net,
            &PipelineOptions {
                equivalence: Equivalence::Strong,
                checkpoint_dir: Some(dir.clone()),
                ..PipelineOptions::default()
            },
        );
        assert_eq!(other.resumed_stages, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonicalize_is_idempotent_and_permutation_invariant() {
        let a = lts_from_triples(&[(0, "b", 1), (1, "a", 2), (2, "b", 0), (0, "a", 0)]);
        // The same structure with states renumbered (0→2, 1→0, 2→1).
        let b = lts_from_triples(&[(2, "b", 0), (0, "a", 1), (1, "b", 2), (2, "a", 2)]);
        let b = Lts::from_parts(b.labels().clone(), 3, 2, b.iter_transitions().collect());
        let ca = canonicalize(&a);
        assert_eq!(write_aut(&ca), write_aut(&canonicalize(&ca)));
        assert_eq!(write_aut(&ca), write_aut(&canonicalize(&b)));
        assert_eq!(ca.initial(), 0);
    }

    #[test]
    fn smart_order_prefers_early_hiding() {
        // A chain declared in an adversarial order: smart must still find
        // a fold that keeps intermediates small (strictly below the
        // full-product bound that the worst order would hit).
        let mut net = Network::new();
        net.add_component("c3", cell("h2", "deq"))
            .add_component("c1", cell("enq", "h1"))
            .add_component("c2", cell("h1", "h2"))
            .sync_on(["h1", "h2"])
            .hide(["h1", "h2"]);
        let run =
            run_pipeline(&net, &PipelineOptions { order: Order::Smart, ..Default::default() });
        assert!(run.complete());
        // Smart must pick a connected fold: c3 and c1 share nothing, so
        // folding them first would interleave into 4 states; a connected
        // order keeps every stage at or below the minimized queue sizes.
        let mono = monolithic(&net, Equivalence::Branching, Workers::default());
        assert!(run.peak_states() <= mono.product_states);
        assert_eq!(write_aut(&run.lts), write_aut(&mono.lts));
    }
}
