//! Bisimulation minimization (the CADP `bcg_min` / `aldebaran` role).
//!
//! Implements signature-based partition refinement (Blom–Orzan style) for
//! *strong* and *branching* bisimulation. Branching bisimulation comes
//! divergence-blind, as is customary for compositional verification flows,
//! and divergence-preserving for livelock-preserving reductions.
//!
//! Minimization is the engine of the paper's compositional verification:
//! sub-module LTSs are minimized before being composed, keeping intermediate
//! state spaces small (experiment E1/E9).
//!
//! # Refinement kernel
//!
//! Each sweep recomputes one signature per *group* against the frozen
//! partition: a group is a τ-SCC for branching bisimulation (its states are
//! mutually inert-reachable, so they always share a block) and a single
//! state for strong bisimulation. A signature is written as packed
//! `label << 32 | block` words into one arena reused by every sweep. A
//! branching group appends the signatures of its inert-τ successor groups
//! from that arena; Tarjan numbers τ-SCCs in reverse topological order, so
//! those are already final. Each signature is then sorted and deduplicated
//! in place, and the `(block, signature)` keys are interned in a map that
//! borrows the arena. A group alone in its block keeps a block of its own
//! and skips both steps. New blocks are numbered by first occurrence in
//! state order, so the partition (block ids included) depends only on the
//! LTS. Refinement stops at the first sweep that splits no block.
//!
//! # Divergence
//!
//! For [`Equivalence::BranchingDivergence`] each sweep also flags the
//! groups that start an infinite τ-path inside their block: those with an
//! internal τ edge, and those with an inert τ edge to a flagged group
//! (computed in the same Tarjan order). The flag is part of the interned
//! key, and the quotient puts a τ self-loop on exactly the flagged blocks.

use crate::label::LabelId;
use crate::lts::{Lts, StateId};
use multival_par::fx::FxHashMap;

/// Which behavioural equivalence to minimize (or compare) modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Equivalence {
    /// Strong bisimulation: τ is treated like any other label.
    Strong,
    /// Branching bisimulation (divergence-blind): inert τ steps are
    /// abstracted away while preserving the branching structure.
    Branching,
    /// Divergence-preserving branching bisimulation (CADP's
    /// `divbranching`): like [`Equivalence::Branching`], but a state with
    /// an infinite τ-path that stays inside its own equivalence class is
    /// never merged with one without, and the quotient keeps a τ self-loop
    /// on exactly those classes. This is the variant needed when livelocks
    /// matter — e.g. before an IMC maximal-progress analysis, where
    /// divergence is a timelock.
    BranchingDivergence,
}

/// CADP's names: `strong`, `branching`, `divbranching`.
impl std::fmt::Display for Equivalence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Equivalence::Strong => "strong",
            Equivalence::Branching => "branching",
            Equivalence::BranchingDivergence => "divbranching",
        })
    }
}

/// Parses the equivalences a user may name: `strong` and `branching`.
/// Divergence-preserving branching is an internal choice, not a spelling.
impl std::str::FromStr for Equivalence {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strong" => Ok(Equivalence::Strong),
            "branching" => Ok(Equivalence::Branching),
            other => Err(format!("unknown equivalence `{other}`")),
        }
    }
}

/// A partition of the states of an LTS into equivalence blocks.
#[derive(Debug, Clone)]
pub struct Partition {
    block_of: Vec<u32>,
    num_blocks: u32,
    /// Per block: an infinite τ-path stays inside it. Recorded only by
    /// [`Equivalence::BranchingDivergence`] refinement (empty otherwise).
    divergent: Vec<bool>,
}

impl Partition {
    /// The trivial one-block partition over `n` states.
    pub fn unit(n: usize) -> Self {
        Partition::from_assignment(vec![0; n], u32::from(n > 0))
    }

    /// Builds a partition from an explicit block assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not dense in `0..num_blocks`.
    pub fn from_assignment(block_of: Vec<u32>, num_blocks: u32) -> Self {
        debug_assert!(block_of.iter().all(|&b| b < num_blocks));
        Partition { block_of, num_blocks, divergent: Vec::new() }
    }

    /// Block id of state `s`.
    pub fn block(&self, s: StateId) -> u32 {
        self.block_of[s as usize]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// `true` if the partition covers no states.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    fn is_divergent(&self, b: u32) -> bool {
        self.divergent.get(b as usize).copied().unwrap_or(false)
    }
}

/// Statistics reported by [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct ReductionStats {
    /// States before minimization.
    pub states_before: usize,
    /// States after minimization.
    pub states_after: usize,
    /// Transitions before minimization.
    pub transitions_before: usize,
    /// Transitions after minimization.
    pub transitions_after: usize,
    /// Number of refinement sweeps until the partition stabilized.
    pub iterations: usize,
}

/// Computes the coarsest partition of `lts` for the given equivalence.
pub fn partition_refinement(lts: &Lts, eq: Equivalence) -> Partition {
    refine(lts, eq).0
}

/// Minimizes `lts` modulo `eq`, returning the quotient and statistics.
///
/// # Examples
///
/// ```
/// use multival_lts::{LtsBuilder, minimize::{minimize, Equivalence}};
///
/// // Two strongly bisimilar branches collapse into one.
/// let mut b = LtsBuilder::new();
/// let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
/// b.add_transition(s[0], "A", s[1]);
/// b.add_transition(s[0], "A", s[2]);
/// let lts = b.build(s[0]);
/// let (min, stats) = minimize(&lts, Equivalence::Strong);
/// assert_eq!(min.num_states(), 2);
/// assert_eq!(stats.states_before, 3);
/// ```
pub fn minimize(lts: &Lts, eq: Equivalence) -> (Lts, ReductionStats) {
    let (part, iterations) = refine(lts, eq);
    let quotient = quotient(lts, &part, eq);
    let stats = ReductionStats {
        states_before: lts.num_states(),
        states_after: quotient.num_states(),
        transitions_before: lts.num_transitions(),
        transitions_after: quotient.num_transitions(),
        iterations,
    };
    (quotient, stats)
}

/// Builds the quotient LTS induced by a (stable) partition.
///
/// For the branching equivalences, inert τ transitions (block to itself)
/// are dropped, matching the stuttering abstraction; for strong
/// bisimulation all transitions are kept (dedup'd per block). Blocks of a
/// [`Equivalence::BranchingDivergence`] partition that hold an infinite
/// internal run get a τ self-loop. Blocks are renumbered in BFS order.
pub fn quotient(lts: &Lts, part: &Partition, eq: Equivalence) -> Lts {
    block_quotient(lts, part, eq).reachable().0
}

/// The quotient with state `b` standing for block `b` (no renumbering).
fn block_quotient(lts: &Lts, part: &Partition, eq: Equivalence) -> Lts {
    let branching = eq != Equivalence::Strong;
    let mut transitions: Vec<(StateId, LabelId, StateId)> = lts
        .iter_transitions()
        .map(|(s, l, t)| (part.block(s), l, part.block(t)))
        .filter(|&(bs, l, bt)| !(branching && l.is_tau() && bs == bt))
        .collect();
    // Divergent classes keep a τ self-loop so the quotient diverges
    // exactly where the original does.
    transitions.extend(
        (0..part.num_blocks()).filter(|&b| part.is_divergent(b)).map(|b| (b, LabelId::TAU, b)),
    );
    transitions.sort_unstable();
    transitions.dedup();
    let initial = part.block(lts.initial());
    Lts::from_parts(lts.labels().clone(), part.num_blocks().max(1), initial, transitions)
}

/// The units a refinement sweep computes signatures for.
struct Groups {
    /// Group of each state.
    of: Vec<u32>,
    /// Members of group `g` are `members[start[g]..start[g + 1]]`.
    start: Vec<u32>,
    members: Vec<StateId>,
    /// The group has an internal τ edge (a τ-cycle or a τ self-loop).
    cyclic: Vec<bool>,
}

impl Groups {
    /// One group per state (strong bisimulation).
    fn singletons(n: usize) -> Self {
        Groups {
            of: (0..n as u32).collect(),
            start: (0..=n as u32).collect(),
            members: (0..n as StateId).collect(),
            cyclic: vec![false; n],
        }
    }

    /// One group per τ-SCC, numbered in Tarjan's reverse topological order
    /// so every τ-successor group has a smaller id.
    fn tau_sccs(lts: &Lts) -> Self {
        let (of, num) = tau_sccs(lts);
        let mut start = vec![0u32; num as usize + 1];
        for &g in &of {
            start[g as usize + 1] += 1;
        }
        for g in 0..num as usize {
            start[g + 1] += start[g];
        }
        let mut fill = start.clone();
        let mut members = vec![0; of.len()];
        let mut cyclic = vec![false; num as usize];
        for (s, &g) in of.iter().enumerate() {
            members[fill[g as usize] as usize] = s as StateId;
            fill[g as usize] += 1;
            if lts
                .transitions_from(s as StateId)
                .iter()
                .any(|t| t.label.is_tau() && of[t.target as usize] == g)
            {
                cyclic[g as usize] = true;
            }
        }
        Groups { of, start, members, cyclic }
    }

    fn len(&self) -> usize {
        self.cyclic.len()
    }

    fn members(&self, g: usize) -> &[StateId] {
        &self.members[self.start[g] as usize..self.start[g + 1] as usize]
    }
}

/// The refinement kernel (see the module docs): returns the coarsest
/// stable partition and the number of sweeps it took.
fn refine(lts: &Lts, eq: Equivalence) -> (Partition, usize) {
    let n = lts.num_states();
    let branching = eq != Equivalence::Strong;
    let diverge = eq == Equivalence::BranchingDivergence;
    let groups = if branching { Groups::tau_sccs(lts) } else { Groups::singletons(n) };
    let num_groups = groups.len();

    let mut block = vec![0u32; n];
    let mut num_blocks = u32::from(n > 0);
    let mut next = vec![0u32; n];
    // Signature of group `g` is `arena[bounds[g]..bounds[g + 1]]`.
    let mut arena: Vec<u64> = Vec::new();
    let mut bounds: Vec<usize> = Vec::with_capacity(num_groups + 1);
    // Per group: an infinite inert τ-path starts in it (this sweep).
    let mut divergent = vec![false; num_groups];
    let mut group_block = vec![0u32; num_groups];
    // Groups per block. A block holding one group cannot split, and no
    // other group reads that group's signature (inert τ edges stay inside
    // a block), so such a group skips both the signature and the map.
    let mut block_groups: Vec<u32> = Vec::new();
    let mut iterations = 0;
    loop {
        iterations += 1;
        block_groups.clear();
        block_groups.resize(num_blocks as usize, 0);
        for g in 0..num_groups {
            block_groups[block[groups.members(g)[0] as usize] as usize] += 1;
        }
        arena.clear();
        bounds.clear();
        bounds.push(0);
        let mut in_shared_blocks = 0;
        for g in 0..num_groups {
            let start = arena.len();
            let members = groups.members(g);
            let b = block[members[0] as usize];
            let mut div = groups.cyclic[g];
            if block_groups[b as usize] > 1 {
                in_shared_blocks += 1;
                for &s in members {
                    for t in lts.transitions_from(s) {
                        let bt = block[t.target as usize];
                        if branching && t.label.is_tau() && bt == b {
                            let h = groups.of[t.target as usize] as usize;
                            if h != g {
                                debug_assert!(h < g, "τ-successor group must precede");
                                arena.extend_from_within(bounds[h]..bounds[h + 1]);
                                div |= divergent[h];
                            }
                        } else {
                            arena.push(u64::from(t.label.0) << 32 | u64::from(bt));
                        }
                    }
                }
                let sig = &mut arena[start..];
                sig.sort_unstable();
                let len = dedup_sorted(sig);
                arena.truncate(start + len);
            }
            bounds.push(arena.len());
            divergent[g] = diverge && div;
        }

        // Intern `(block, divergence, signature)` in state order; the
        // members of a group share their key, so each group is hashed once.
        let mut index: FxHashMap<(u64, &[u64]), u32> =
            FxHashMap::with_capacity_and_hasher(in_shared_blocks, Default::default());
        let mut nb = 0u32;
        group_block.fill(u32::MAX);
        for s in 0..n {
            let g = groups.of[s] as usize;
            if group_block[g] == u32::MAX {
                group_block[g] = if block_groups[block[s] as usize] == 1 {
                    nb += 1;
                    nb - 1
                } else {
                    let key = (
                        u64::from(block[s]) | u64::from(divergent[g]) << 32,
                        &arena[bounds[g]..bounds[g + 1]],
                    );
                    *index.entry(key).or_insert_with(|| {
                        nb += 1;
                        nb - 1
                    })
                };
            }
            next[s] = group_block[g];
        }
        if nb == num_blocks {
            let mut part = Partition::from_assignment(block, num_blocks);
            if diverge {
                part.divergent = vec![false; num_blocks as usize];
                for s in 0..n {
                    if divergent[groups.of[s] as usize] {
                        part.divergent[part.block_of[s] as usize] = true;
                    }
                }
            }
            return (part, iterations);
        }
        std::mem::swap(&mut block, &mut next);
        num_blocks = nb;
    }
}

/// Moves the distinct values of the sorted `sig` to its front and returns
/// their count.
fn dedup_sorted(sig: &mut [u64]) -> usize {
    if sig.is_empty() {
        return 0;
    }
    let mut len = 1;
    for i in 1..sig.len() {
        if sig[i] != sig[len - 1] {
            sig[len] = sig[i];
            len += 1;
        }
    }
    len
}

/// Tarjan SCC over the τ-subgraph; returns (scc id per state, #sccs) with
/// SCC ids in reverse topological order (successors have smaller ids).
fn tau_sccs(lts: &Lts) -> (Vec<u32>, u32) {
    let n = lts.num_states();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![u32::MAX; n];
    let mut stack: Vec<StateId> = Vec::new();
    let mut next_index = 0u32;
    let mut next_scc = 0u32;

    // Iterative Tarjan to avoid recursion-depth limits on long τ chains.
    enum Frame {
        Enter(StateId),
        Post(StateId, StateId),
    }
    for root in 0..n as StateId {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    if index[v as usize] != u32::MAX {
                        continue;
                    }
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    // Re-visit v after children to pop the SCC.
                    call.push(Frame::Post(v, v));
                    for t in lts.transitions_from(v) {
                        if !t.label.is_tau() {
                            continue;
                        }
                        let w = t.target;
                        if index[w as usize] == u32::MAX {
                            call.push(Frame::Post(v, w));
                            call.push(Frame::Enter(w));
                        } else if on_stack[w as usize] {
                            low[v as usize] = low[v as usize].min(index[w as usize]);
                        }
                    }
                }
                Frame::Post(v, w) => {
                    if w != v {
                        // Child w finished: propagate lowlink — but only if w
                        // is still in an open SCC. If w was completed into
                        // another SCC (it was reached first through a sibling
                        // subtree), this edge is a cross edge and must not
                        // propagate.
                        if scc[w as usize] == u32::MAX {
                            low[v as usize] = low[v as usize].min(low[w as usize]);
                        }
                        continue;
                    }
                    if low[v as usize] == index[v as usize] {
                        loop {
                            let x = stack.pop().expect("tarjan stack underflow");
                            on_stack[x as usize] = false;
                            scc[x as usize] = next_scc;
                            if x == v {
                                break;
                            }
                        }
                        next_scc += 1;
                    }
                }
            }
        }
    }
    (scc, next_scc)
}

/// Compresses τ-SCCs of an LTS without any other reduction: every τ-cycle is
/// collapsed to a single state. Useful as a cheap preprocessing step and for
/// divergence (livelock) analysis.
pub fn collapse_tau_sccs(lts: &Lts) -> (Lts, Vec<u32>) {
    let (scc_of, num_sccs) = tau_sccs(lts);
    let mut set: std::collections::BTreeSet<(u32, crate::label::LabelId, u32)> =
        std::collections::BTreeSet::new();
    for (s, l, t) in lts.iter_transitions() {
        let (a, b) = (scc_of[s as usize], scc_of[t as usize]);
        if l.is_tau() && a == b {
            continue;
        }
        set.insert((a, l, b));
    }
    let transitions: Vec<_> = set.into_iter().collect();
    let initial = scc_of[lts.initial() as usize];
    let lts2 = Lts::from_parts(lts.labels().clone(), num_sccs.max(1), initial, transitions);
    (lts2.reachable().0, scc_of)
}

/// States that can diverge: members of a τ-SCC that contains a τ-cycle
/// (including τ self-loops). In LOTOS terms these are livelocks.
pub fn divergent_states(lts: &Lts) -> Vec<StateId> {
    let groups = Groups::tau_sccs(lts);
    (0..lts.num_states() as StateId)
        .filter(|&s| groups.cyclic[groups.of[s as usize] as usize])
        .collect()
}

/// Helper used by tests and the equivalence checker: do two states of one
/// LTS share a block under `eq`?
pub fn same_block(lts: &Lts, a: StateId, b: StateId, eq: Equivalence) -> bool {
    let part = partition_refinement(lts, eq);
    part.block(a) == part.block(b)
}

/// The refinement loops the kernel replaced, kept as the reference for the
/// differential suite: per-state `Vec` signatures interned in a SipHash
/// map, and a `BTreeSet` quotient.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    /// The reference partition and sweep count. Divergence-preserving
    /// branching bisimilarity is branching bisimilarity once every state
    /// on a τ-cycle carries a fresh visible self-loop, so
    /// [`Equivalence::BranchingDivergence`] runs the branching loop on that
    /// marked LTS.
    pub(super) fn partition(lts: &Lts, eq: Equivalence) -> (Partition, usize) {
        match eq {
            Equivalence::Strong => strong_partition(lts),
            Equivalence::Branching => branching_partition(lts),
            Equivalence::BranchingDivergence => {
                let mut labels = lts.labels().clone();
                let mark = labels.intern("divergence mark");
                let mut transitions: Vec<_> = lts.iter_transitions().collect();
                transitions.extend(divergent_states(lts).into_iter().map(|s| (s, mark, s)));
                let n = lts.num_states() as u32;
                branching_partition(&Lts::from_parts(labels, n, lts.initial(), transitions))
            }
        }
    }

    /// Reference quotient and statistics for strong and divergence-blind
    /// branching bisimulation.
    pub(super) fn minimize(lts: &Lts, eq: Equivalence) -> (Lts, ReductionStats) {
        let (part, iterations) = partition(lts, eq);
        let mut set: BTreeSet<(u32, LabelId, u32)> = BTreeSet::new();
        for (s, l, t) in lts.iter_transitions() {
            let (bs, bt) = (part.block(s), part.block(t));
            if eq != Equivalence::Strong && l.is_tau() && bs == bt {
                continue;
            }
            set.insert((bs, l, bt));
        }
        let initial = part.block(lts.initial());
        let full = Lts::from_parts(
            lts.labels().clone(),
            part.num_blocks().max(1),
            initial,
            set.into_iter().collect(),
        );
        let quotient = full.reachable().0;
        let stats = ReductionStats {
            states_before: lts.num_states(),
            states_after: quotient.num_states(),
            transitions_before: lts.num_transitions(),
            transitions_after: quotient.num_transitions(),
            iterations,
        };
        (quotient, stats)
    }

    fn strong_partition(lts: &Lts) -> (Partition, usize) {
        let n = lts.num_states();
        let mut part = Partition::unit(n);
        let mut iterations = 0;
        loop {
            iterations += 1;
            let mut sig_index: HashMap<(u32, Vec<(u32, u32)>), u32> = HashMap::new();
            let mut new_block = vec![0u32; n];
            for (s, slot) in new_block.iter_mut().enumerate() {
                let mut sig: Vec<(u32, u32)> = lts
                    .transitions_from(s as StateId)
                    .iter()
                    .map(|t| (t.label.0, part.block(t.target)))
                    .collect();
                sig.sort_unstable();
                sig.dedup();
                let next = sig_index.len() as u32;
                *slot = *sig_index.entry((part.block(s as StateId), sig)).or_insert(next);
            }
            let nb = sig_index.len() as u32;
            if nb == part.num_blocks() {
                return (part, iterations);
            }
            part = Partition::from_assignment(new_block, nb);
        }
    }

    fn branching_partition(lts: &Lts) -> (Partition, usize) {
        let n = lts.num_states();
        let (scc_of, num_sccs) = tau_sccs(lts);
        let mut members: Vec<Vec<StateId>> = vec![Vec::new(); num_sccs as usize];
        for s in 0..n {
            members[scc_of[s] as usize].push(s as StateId);
        }
        let mut part = Partition::unit(n);
        let mut iterations = 0;
        loop {
            iterations += 1;
            //   sig(C) = ⋃ over s ∈ C of
            //              {(l, B(t)) | s -l-> t non-inert}
            //            ∪ {sig(C') | s -τ-> t inert, t ∈ C' ≠ C}
            let mut scc_sigs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(num_sccs as usize);
            for (c, scc) in members.iter().enumerate() {
                let mut sig: Vec<(u32, u32)> = Vec::new();
                for &s in scc {
                    for t in lts.transitions_from(s) {
                        let inert = t.label.is_tau() && part.block(t.target) == part.block(s);
                        if !inert {
                            sig.push((t.label.0, part.block(t.target)));
                        } else if scc_of[t.target as usize] as usize != c {
                            sig.extend_from_slice(&scc_sigs[scc_of[t.target as usize] as usize]);
                        }
                    }
                }
                sig.sort_unstable();
                sig.dedup();
                scc_sigs.push(sig);
            }
            let mut sig_index: HashMap<(u32, Vec<(u32, u32)>), u32> = HashMap::new();
            let mut new_block = vec![0u32; n];
            for (s, slot) in new_block.iter_mut().enumerate() {
                let key = (part.block(s as StateId), scc_sigs[scc_of[s] as usize].clone());
                let next = sig_index.len() as u32;
                *slot = *sig_index.entry(key).or_insert(next);
            }
            let nb = sig_index.len() as u32;
            if nb == part.num_blocks() {
                return (part, iterations);
            }
            part = Partition::from_assignment(new_block, nb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_aut;
    use crate::lts::LtsBuilder;
    use proptest::prelude::*;

    #[test]
    fn equivalence_parses_user_spellings_only() {
        assert_eq!("strong".parse::<Equivalence>(), Ok(Equivalence::Strong));
        assert_eq!("branching".parse::<Equivalence>(), Ok(Equivalence::Branching));
        let err = "divbranching".parse::<Equivalence>().expect_err("internal only");
        assert_eq!(err, "unknown equivalence `divbranching`");
        assert_eq!(Equivalence::BranchingDivergence.to_string(), "divbranching");
    }

    /// a.(b + c) vs a.b + a.c — branching-equivalent? No! Classic example:
    /// they are *not* strongly bisimilar and not branching bisimilar.
    #[test]
    fn classic_nondeterminism_not_bisimilar() {
        // P = a.(b.0 + c.0)
        let mut p = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| p.add_state()).collect();
        p.add_transition(s[0], "a", s[1]);
        p.add_transition(s[1], "b", s[2]);
        p.add_transition(s[1], "c", s[3]);
        let p = p.build(s[0]);

        // Q = a.b.0 + a.c.0
        let mut q = LtsBuilder::new();
        let t: Vec<_> = (0..5).map(|_| q.add_state()).collect();
        q.add_transition(t[0], "a", t[1]);
        q.add_transition(t[1], "b", t[3]);
        q.add_transition(t[0], "a", t[2]);
        q.add_transition(t[2], "c", t[4]);
        let q = q.build(t[0]);

        let (mp, _) = minimize(&p, Equivalence::Strong);
        let (mq, _) = minimize(&q, Equivalence::Strong);
        assert_ne!(mp.num_states(), mq.num_states());
    }

    #[test]
    fn strong_collapses_duplicate_branches() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        // 0 -a-> 1 -b-> 3 ; 0 -a-> 2 -b-> 4 : 1≡2, 3≡4
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[2], "b", s[4]);
        let lts = b.build(s[0]);
        let (min, stats) = minimize(&lts, Equivalence::Strong);
        assert_eq!(min.num_states(), 3);
        assert_eq!(min.num_transitions(), 2);
        assert_eq!(stats.states_before, 5);
    }

    #[test]
    fn strong_keeps_tau_distinctions() {
        // 0 -tau-> 1 -a-> 2  vs  0' -a-> 1' are NOT strongly bisimilar.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Strong);
        assert_eq!(min.num_states(), 3);
    }

    #[test]
    fn branching_removes_inert_tau() {
        // 0 -tau-> 1 -a-> 2 is branching equivalent to  0 -a-> 1.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_transitions(), 1);
    }

    #[test]
    fn branching_keeps_observable_choice_tau() {
        // 0 -tau-> 1 (1 can only do b), 0 -a-> 2: the τ is NOT inert
        // (it discards the option a), so it must be kept.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[0], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        // The τ must be kept: 0 and 1 differ (0 offers a, 1 does not). The
        // only reduction is merging the two deadlock states {2, 3}.
        assert_eq!(min.num_states(), 3);
        assert_eq!(min.num_transitions(), 3);
        assert!(min.has_tau(min.initial()), "non-inert tau survives");
    }

    #[test]
    fn branching_collapses_tau_cycles() {
        // 0 <-> 1 by τ, both can do a to 2: divergence-blind branching
        // collapses {0,1}.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_transitions(), 1);
    }

    #[test]
    fn branching_tau_cycle_with_escape_via_member() {
        // SCC {0,1}; only 1 offers a. Divergence-blind: 0 ≡ 1 (0 reaches the
        // offer via inert τ).
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn divergence_sensitive_keeps_livelocks_apart() {
        // 0 -a-> 1 (τ self-loop), 0 -b-> 2 (deadlock): divergence-blind
        // branching merges 1 and 2? No — 1 has a τ loop (inert) and nothing
        // else; blind branching treats it like a deadlock, so {1,2} merge.
        // Divergence-sensitive must keep them apart and keep the τ loop.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "i", s[1]);
        b.add_transition(s[0], "b", s[2]);
        let lts = b.build(s[0]);
        let (blind, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(blind.num_states(), 2, "blind: livelock ≡ deadlock");
        let (sensitive, _) = minimize(&lts, Equivalence::BranchingDivergence);
        assert_eq!(sensitive.num_states(), 3, "sensitive: livelock ≠ deadlock");
        assert!(!divergent_states(&sensitive).is_empty(), "the quotient must still diverge");
    }

    #[test]
    fn divergence_sensitive_idempotent_and_refines_blind() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        b.add_transition(s[2], "a", s[3]);
        b.add_transition(s[3], "i", s[4]);
        let lts = b.build(s[0]);
        let (m1, _) = minimize(&lts, Equivalence::BranchingDivergence);
        let (m2, _) = minimize(&m1, Equivalence::BranchingDivergence);
        assert_eq!(m1.num_states(), m2.num_states());
        let (blind, _) = minimize(&lts, Equivalence::Branching);
        assert!(m1.num_states() >= blind.num_states());
    }

    #[test]
    fn divergence_detection() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "i", s[1]); // τ self-loop: livelock
        b.add_transition(s[0], "b", s[2]);
        let lts = b.build(s[0]);
        assert_eq!(divergent_states(&lts), vec![1]);
    }

    #[test]
    fn collapse_tau_sccs_shrinks_cycles() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        b.add_transition(s[2], "i", s[3]);
        let lts = b.build(s[0]);
        let (c, _) = collapse_tau_sccs(&lts);
        assert_eq!(c.num_states(), 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn quotient_preserves_determinism_of_minimal_lts() {
        // Minimizing twice is idempotent.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..6).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "i", s[3]);
        b.add_transition(s[2], "i", s[4]);
        b.add_transition(s[3], "b", s[5]);
        b.add_transition(s[4], "b", s[5]);
        let lts = b.build(s[0]);
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let (m1, _) = minimize(&lts, eq);
            let (m2, _) = minimize(&m1, eq);
            assert_eq!(m1.num_states(), m2.num_states(), "{eq:?} not idempotent");
            assert_eq!(m1.num_transitions(), m2.num_transitions());
        }
    }

    #[test]
    fn divbranching_separates_livelock_from_escape() {
        // r -b-> u, r -c-> s; u loops on τ and offers a, s offers a; both
        // can fall by τ into the livelock d. Only u can diverge without
        // leaving its class, so u and s must not merge: after c the
        // quotient may not livelock with a still enabled.
        let (r, u, s, x, d) = (0, 1, 2, 3, 4);
        let lts = crate::equiv::lts_from_triples(&[
            (r, "b", u),
            (r, "c", s),
            (u, "i", u),
            (u, "a", x),
            (u, "i", d),
            (s, "a", x),
            (s, "i", d),
            (d, "i", d),
        ]);
        let eq = Equivalence::BranchingDivergence;
        assert!(!same_block(&lts, u, s, eq), "u diverges inside its class, s does not");
        assert!(same_block(&lts, u, s, Equivalence::Branching), "divergence-blind merges them");
        let (min, _) = minimize(&lts, eq);
        assert_eq!(min.num_states(), 5);
        let after = |label: &str| {
            let id = min.labels().lookup(label).expect("label");
            min.transitions_from(min.initial()).iter().find(|t| t.label == id).expect("edge").target
        };
        let tau_loop =
            |q: StateId| min.transitions_from(q).iter().any(|t| t.label.is_tau() && t.target == q);
        assert!(tau_loop(after("b")));
        assert!(!tau_loop(after("c")), "no livelock with a still enabled after c");
    }

    #[test]
    fn divbranching_self_loop_only_on_internally_divergent_class() {
        // 0 -τ-> 1 -τ-> 1, 0 -a-> 2: the τ out of 0 leaves its class, so
        // only the class of 1 diverges.
        let lts = crate::equiv::lts_from_triples(&[(0, "i", 1), (1, "i", 1), (0, "a", 2)]);
        let (min, _) = minimize(&lts, Equivalence::BranchingDivergence);
        assert_eq!(min.num_states(), 3);
        assert_eq!(min.num_transitions(), 3, "no spurious τ self-loop on the initial class");
        let init = min.initial();
        assert!(!min.transitions_from(init).iter().any(|t| t.target == init));
    }

    /// A 600-state pseudo-random LTS, big enough for many sweeps: 3 labels
    /// plus τ, about four transitions per state.
    #[test]
    fn kernel_matches_reference_on_large_lts() {
        let mut b = LtsBuilder::new();
        let n = 600u32;
        b.ensure_states(n);
        let labels = ["a", "b", "c", "i"];
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for s in 0..n {
            b.add_transition(s, "i", (s + 1) % n); // τ chain keeps all reachable
            for _ in 0..3 {
                let l = labels[(step() % 4) as usize];
                let t = (step() % n as u64) as u32;
                b.add_transition(s, l, t);
            }
        }
        let lts = b.build(0);
        if let Err(e) = check_against_reference(&lts) {
            panic!("{e}");
        }
    }

    /// Random LTS genome: state count, initial state, edges and τ
    /// self-loops, with endpoints reduced modulo the state count (so the
    /// genome shrinks as plain integers and vectors). Two in five edge
    /// labels are τ, which makes τ-cycles common; there is no spanning
    /// chain, so some states are usually unreachable.
    type Genome = (u32, u32, Vec<(u32, usize, u32)>, Vec<u32>);

    fn arb_genome() -> impl Strategy<Value = Genome> {
        (
            1..=48u32,
            0..48u32,
            prop::collection::vec((0..48u32, 0..5usize, 0..48u32), 0..144),
            prop::collection::vec(0..48u32, 0..4),
        )
    }

    fn build(genome: &Genome) -> Lts {
        const LABELS: [&str; 5] = ["i", "i", "a", "b", "c"];
        let (n, initial, edges, loops) = genome;
        let mut b = LtsBuilder::new();
        b.ensure_states(*n);
        for &(s, l, t) in edges.iter().take(3 * *n as usize) {
            b.add_transition(s % n, LABELS[l], t % n);
        }
        for &s in loops {
            b.add_transition(s % n, "i", s % n);
        }
        b.build(initial % n)
    }

    /// Kernel vs reference: identical block ids and sweep counts for every
    /// equivalence; identical statistics and quotient bytes for the two
    /// the reference quotient covers.
    fn check_against_reference(lts: &Lts) -> Result<(), TestCaseError> {
        for eq in [Equivalence::Strong, Equivalence::Branching, Equivalence::BranchingDivergence] {
            let (part, iterations) = refine(lts, eq);
            let (want, want_iterations) = reference::partition(lts, eq);
            prop_assert_eq!(&part.block_of, &want.block_of, "{:?} blocks", eq);
            prop_assert_eq!(part.num_blocks, want.num_blocks, "{:?} block count", eq);
            prop_assert_eq!(iterations, want_iterations, "{:?} sweeps", eq);
        }
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let (min, stats) = minimize(lts, eq);
            let (want, want_stats) = reference::minimize(lts, eq);
            prop_assert_eq!(stats, want_stats, "{:?} stats", eq);
            prop_assert_eq!(write_aut(&min), write_aut(&want), "{:?} quotient", eq);
        }
        Ok(())
    }

    /// Does `s` start an infinite τ-path that never leaves its block?
    /// Computed directly: collect the states reachable from `s` by τ steps
    /// inside the block, then peel off those with no such step to a
    /// remaining state; whatever survives lies on or leads to a cycle.
    fn diverges_inside_class(lts: &Lts, part: &Partition, s: StateId) -> bool {
        let inert = |u: StateId| {
            lts.transitions_from(u)
                .iter()
                .filter(move |t| t.label.is_tau() && part.block(t.target) == part.block(u))
                .map(|t| t.target)
        };
        let mut alive = vec![false; lts.num_states()];
        alive[s as usize] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for t in inert(u) {
                if !alive[t as usize] {
                    alive[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        loop {
            let sinks: Vec<usize> = (0..alive.len())
                .filter(|&u| alive[u] && inert(u as StateId).all(|t| !alive[t as usize]))
                .collect();
            if sinks.is_empty() {
                return alive.contains(&true);
            }
            for u in sinks {
                alive[u] = false;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn kernel_matches_reference_on_random_lts(genome in arb_genome()) {
            check_against_reference(&build(&genome))?;
        }

        #[test]
        fn divbranching_loops_mark_exactly_internal_divergence(genome in arb_genome()) {
            let lts = build(&genome);
            let eq = Equivalence::BranchingDivergence;
            let part = partition_refinement(&lts, eq);
            let q = block_quotient(&lts, &part, eq);
            for s in 0..lts.num_states() as StateId {
                let b = part.block(s);
                let looped = q.transitions_from(b).iter().any(|t| t.label.is_tau() && t.target == b);
                prop_assert_eq!(looped, diverges_inside_class(&lts, &part, s), "state {}", s);
            }
        }
    }
}
