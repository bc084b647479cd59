//! Stochastic bisimulation (lumping) minimization for IMCs — the engine of
//! *compositional* IMC generation (the paper's §4: "alternates state space
//! generation and stochastic state space minimization").
//!
//! Two states are lumpably equivalent iff they offer the same interactive
//! actions into the same classes and the same *cumulative Markovian rate*
//! into each class. The algorithm is signature-based partition refinement;
//! rate sums are quantized by a relative tolerance to make them hashable.

use crate::imc::{Imc, ImcBuilder, State};
use std::collections::HashMap;

/// Options for lumping.
#[derive(Debug, Clone, Copy)]
pub struct LumpOptions {
    /// Rates whose ratio differs by less than this are considered equal.
    pub rate_tolerance: f64,
}

impl Default for LumpOptions {
    fn default() -> Self {
        LumpOptions { rate_tolerance: 1e-9 }
    }
}

/// Statistics of a lumping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LumpStats {
    /// States before.
    pub states_before: usize,
    /// States after.
    pub states_after: usize,
    /// Refinement sweeps performed.
    pub iterations: usize,
}

fn quantize(rate: f64, tol: f64) -> i64 {
    (rate / tol).round() as i64
}

/// Signature key: (current block, interactive pairs, quantized rate pairs).
type LumpSignature = (u32, Vec<(u32, u32)>, Vec<(u32, i64)>);

/// Computes the coarsest lumping partition: returns (block id per state,
/// #blocks, refinement sweeps).
pub fn lump_partition(imc: &Imc, options: &LumpOptions) -> (Vec<u32>, u32, usize) {
    let n = imc.num_states();
    let mut block = vec![0u32; n];
    let mut num_blocks = 1u32.min(n as u32);
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        // Per-state signatures — interactive pairs plus cumulative
        // quantized Markovian rates per target block, read from the frozen
        // partition — interned in state order.
        let mut sig_index: HashMap<LumpSignature, u32> = HashMap::new();
        let mut next = vec![0u32; n];
        for s in 0..n as State {
            // Interactive signature: sorted (label, target block) pairs.
            let mut isig: Vec<(u32, u32)> = imc
                .interactive_from(s)
                .iter()
                .map(|t| (t.label.0, block[t.target as usize]))
                .collect();
            isig.sort_unstable();
            isig.dedup();
            // Markovian signature: cumulative rate per target block.
            let mut rates: HashMap<u32, f64> = HashMap::new();
            for m in imc.markovian_from(s) {
                *rates.entry(block[m.target as usize]).or_insert(0.0) += m.rate;
            }
            let mut msig: Vec<(u32, i64)> =
                rates.into_iter().map(|(b, r)| (b, quantize(r, options.rate_tolerance))).collect();
            msig.sort_unstable();
            let key = (block[s as usize], isig, msig);
            let fresh = sig_index.len() as u32;
            next[s as usize] = *sig_index.entry(key).or_insert(fresh);
        }
        let nb = sig_index.len() as u32;
        if nb == num_blocks {
            return (block, num_blocks, sweeps);
        }
        block = next;
        num_blocks = nb;
    }
}

/// Minimizes an IMC modulo stochastic (lumping) bisimulation.
///
/// # Examples
///
/// ```
/// use multival_imc::{ImcBuilder, lump::{lump, LumpOptions}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two parallel rate-λ branches into symmetric states lump together:
/// // 0 -λ-> 1 -μ-> 3, 0 -λ-> 2 -μ-> 3 becomes 0 -2λ-> {1,2} -μ-> 3.
/// let mut b = ImcBuilder::new();
/// let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
/// b.markovian(s[0], s[1], 1.0)?;
/// b.markovian(s[0], s[2], 1.0)?;
/// b.markovian(s[1], s[3], 5.0)?;
/// b.markovian(s[2], s[3], 5.0)?;
/// let (min, stats) = lump(&b.build(s[0]), &LumpOptions::default());
/// assert_eq!(min.num_states(), 3);
/// assert_eq!(stats.states_before, 4);
/// // The lumped rate into the merged block is the *sum* 1 + 1 = 2.
/// assert!((min.exit_rate(min.initial()) - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn lump(imc: &Imc, options: &LumpOptions) -> (Imc, LumpStats) {
    let n = imc.num_states();
    let (block, num_blocks, sweeps) = lump_partition(imc, options);
    // Representative member per block (signatures agree, so any member
    // works); aggregate its rates per target block.
    let mut rep: Vec<Option<State>> = vec![None; num_blocks as usize];
    for (s, &b) in block.iter().enumerate() {
        if rep[b as usize].is_none() {
            rep[b as usize] = Some(s as State);
        }
    }
    let mut builder = ImcBuilder::new();
    for _ in 0..num_blocks {
        builder.add_state();
    }
    for (b, member) in rep.iter().enumerate() {
        let s = member.expect("every block has a member");
        // Interactive transitions: dedup per (label, block).
        let mut seen = std::collections::HashSet::new();
        for t in imc.interactive_from(s) {
            let key = (t.label, block[t.target as usize]);
            if seen.insert(key) {
                let name = imc.labels().name(t.label).to_owned();
                builder.interactive(b as State, &name, block[t.target as usize]);
            }
        }
        // Markovian: cumulative rate per target block.
        let mut rates: HashMap<u32, f64> = HashMap::new();
        for m in imc.markovian_from(s) {
            *rates.entry(block[m.target as usize]).or_insert(0.0) += m.rate;
        }
        let mut sorted: Vec<(u32, f64)> = rates.into_iter().collect();
        sorted.sort_by_key(|&(b, _)| b);
        for (tb, rate) in sorted {
            builder.markovian(b as State, tb, rate).expect("positive aggregate rate");
        }
    }
    let initial = block[imc.initial() as usize];
    let min = builder.build(initial).reachable();
    let stats = LumpStats { states_before: n, states_after: min.num_states(), iterations: sweeps };
    (min, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_rates_not_lumped() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 1.0).unwrap();
        b.markovian(s[0], s[2], 1.0).unwrap();
        b.markovian(s[1], s[3], 5.0).unwrap();
        b.markovian(s[2], s[3], 7.0).unwrap(); // different downstream rate
        let (min, _) = lump(&b.build(s[0]), &LumpOptions::default());
        assert_eq!(min.num_states(), 4);
    }

    #[test]
    fn interactive_labels_block_lumping() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], "A", s[1]);
        b.interactive(s[0], "B", s[2]);
        // 1 and 2 both deadlock but are reached by different labels —
        // they still lump together (same empty signature).
        let (min, _) = lump(&b.build(s[0]), &LumpOptions::default());
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_interactive(), 2, "both labels must survive");
    }

    #[test]
    fn erlang_phases_do_not_lump() {
        // A 3-phase Erlang chain must stay 4 states: each phase is a
        // different distance from absorption.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        for i in 0..3 {
            b.markovian(s[i], s[i + 1], 2.0).unwrap();
        }
        let (min, _) = lump(&b.build(s[0]), &LumpOptions::default());
        assert_eq!(min.num_states(), 4);
    }

    #[test]
    fn symmetric_fork_lumps_with_rate_addition() {
        // Classic lumping: fork into k symmetric branches of rate λ each
        // merges into a single transition of rate kλ.
        let k = 5;
        let mut b = ImcBuilder::new();
        let root = b.add_state();
        let end = b.add_state();
        let mids: Vec<_> = (0..k).map(|_| b.add_state()).collect();
        for &m in &mids {
            b.markovian(root, m, 1.0).unwrap();
            b.markovian(m, end, 3.0).unwrap();
        }
        let (min, stats) = lump(&b.build(root), &LumpOptions::default());
        assert_eq!(min.num_states(), 3);
        assert_eq!(stats.states_before, 2 + k);
        assert!((min.exit_rate(min.initial()) - k as f64).abs() < 1e-9);
    }

    #[test]
    fn lump_is_idempotent() {
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..6).map(|_| b.add_state()).collect();
        b.markovian(s[0], s[1], 1.0).unwrap();
        b.markovian(s[0], s[2], 1.0).unwrap();
        b.interactive(s[1], "GO", s[3]);
        b.interactive(s[2], "GO", s[4]);
        b.markovian(s[3], s[5], 2.0).unwrap();
        b.markovian(s[4], s[5], 2.0).unwrap();
        let (m1, _) = lump(&b.build(s[0]), &LumpOptions::default());
        let (m2, _) = lump(&m1, &LumpOptions::default());
        assert_eq!(m1.num_states(), m2.num_states());
        assert_eq!(m1.num_markovian(), m2.num_markovian());
    }

    #[test]
    fn tau_distinction_preserved() {
        // τ to a "fast" continuation vs τ to a "slow" one must not lump.
        let mut b = ImcBuilder::new();
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        b.interactive(s[0], "i", s[1]);
        b.interactive(s[0], "i", s[2]);
        b.markovian(s[1], s[3], 1.0).unwrap();
        b.markovian(s[2], s[4], 100.0).unwrap();
        b.interactive(s[3], "DONE", s[3]);
        let (min, _) = lump(&b.build(s[0]), &LumpOptions::default());
        assert!(min.num_states() >= 4, "fast/slow τ branches must stay distinct");
    }
}
