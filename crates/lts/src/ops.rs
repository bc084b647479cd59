//! Compositional operators on LTSs: parallel composition, hiding, renaming.
//!
//! These mirror the LOTOS operators used in the Multival flow for
//! *structural* (bottom-up) modeling: sub-module LTSs are generated
//! separately, minimized, then composed — the key weapon against state-space
//! explosion (§3 of the paper).

use crate::label::gate_of;
use crate::lts::Lts;
use crate::reach::materialize_with;
use crate::ts::LazyProduct;
use multival_par::Workers;
use std::collections::{HashMap, HashSet};

/// Synchronization discipline for [`compose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sync {
    /// `|||` — pure interleaving, no synchronization.
    Interleave,
    /// `|[G]|` — synchronize on the listed gates (labels whose gate is in
    /// the set must be taken jointly, with identical full labels).
    Gates(HashSet<String>),
    /// `||` — synchronize on every visible label.
    Full,
}

impl Sync {
    /// Convenience constructor from gate names.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = multival_lts::ops::Sync::on(["PUSH", "POP"]);
    /// assert!(matches!(s, multival_lts::ops::Sync::Gates(_)));
    /// ```
    pub fn on<I, S>(gates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Sync::Gates(gates.into_iter().map(Into::into).collect())
    }

    pub(crate) fn synchronizes(&self, gate: &str) -> bool {
        match self {
            Sync::Interleave => false,
            Sync::Gates(set) => set.contains(gate),
            Sync::Full => true,
        }
    }
}

/// Parallel composition of two LTSs, exploring only the reachable product.
///
/// Labels whose gate is in the synchronization set must be performed jointly
/// by both components *with identical full labels* (LOTOS value negotiation:
/// `PUSH !1` only synchronizes with `PUSH !1`). τ never synchronizes. The
/// special gate `exit` (successful termination δ) always synchronizes, as in
/// LOTOS.
///
/// # Examples
///
/// ```
/// use multival_lts::{LtsBuilder, ops::{compose, Sync}};
///
/// let mut a = LtsBuilder::new();
/// let (a0, a1) = (a.add_state(), a.add_state());
/// a.add_transition(a0, "GO", a1);
/// let a = a.build(a0);
///
/// let mut b = LtsBuilder::new();
/// let (b0, b1) = (b.add_state(), b.add_state());
/// b.add_transition(b0, "GO", b1);
/// let b = b.build(b0);
///
/// let sync = compose(&a, &b, &Sync::on(["GO"]));
/// assert_eq!(sync.num_states(), 2); // lock-step
/// let inter = compose(&a, &b, &Sync::Interleave);
/// assert_eq!(inter.num_states(), 4); // diamond
/// ```
pub fn compose(left: &Lts, right: &Lts, sync: &Sync) -> Lts {
    compose_with(left, right, sync, Workers::sequential())
}

/// [`compose`] with an explicit worker count for product-state successor
/// generation. The result — state numbering, label table, transitions —
/// is identical at any worker count: this is a thin wrapper that explores
/// a [`LazyProduct`] with [`materialize_with`], whose parallel path only
/// derives successor lists level by level and renumbers sequentially.
pub fn compose_with(left: &Lts, right: &Lts, sync: &Sync, workers: Workers) -> Lts {
    materialize_with(&LazyProduct::new(&[left, right], sync), workers)
}

/// N-ary parallel composition of `parts` under a single sync discipline,
/// exploring the flat product on the fly (every component participates in
/// each synchronized move, with identical full labels).
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn compose_all(parts: &[&Lts], sync: &Sync) -> Lts {
    compose_all_with(parts, sync, Workers::sequential())
}

/// [`compose_all`] with an explicit worker count.
pub fn compose_all_with(parts: &[&Lts], sync: &Sync, workers: Workers) -> Lts {
    assert!(!parts.is_empty(), "compose_all needs at least one LTS");
    materialize_with(&LazyProduct::new(parts, sync), workers)
}

/// Hides every label whose gate is in `gates`, turning it into τ
/// (the LOTOS `hide G in B` operator).
///
/// # Examples
///
/// ```
/// use multival_lts::{LtsBuilder, ops::hide};
///
/// let mut b = LtsBuilder::new();
/// let (s0, s1) = (b.add_state(), b.add_state());
/// b.add_transition(s0, "INT !1", s1);
/// b.add_transition(s1, "OBS", s0);
/// let lts = b.build(s0);
/// let h = hide(&lts, ["INT"]);
/// assert!(h.has_tau(0));
/// assert!(h.labels().lookup("OBS").is_some());
/// ```
pub fn hide<I, S>(lts: &Lts, gates: I) -> Lts
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let set: HashSet<String> = gates.into_iter().map(Into::into).collect();
    lts.relabel(|name| if set.contains(gate_of(name)) { None } else { Some(name.to_owned()) })
}

/// Hides every label *except* those whose gate is in `gates`.
pub fn hide_all_but<I, S>(lts: &Lts, gates: I) -> Lts
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let keep: HashSet<String> = gates.into_iter().map(Into::into).collect();
    lts.relabel(|name| if keep.contains(gate_of(name)) { Some(name.to_owned()) } else { None })
}

/// Renames gates according to `map` (offers are preserved):
/// a label `G !1` with `map[G] = H` becomes `H !1`.
pub fn rename_gates(lts: &Lts, map: &HashMap<String, String>) -> Lts {
    lts.relabel(|name| {
        let gate = gate_of(name);
        match map.get(gate) {
            Some(new_gate) => {
                let rest = &name[gate.len()..];
                Some(format!("{new_gate}{rest}"))
            }
            None => Some(name.to_owned()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::LtsBuilder;

    fn cycle(labels: &[&str]) -> Lts {
        let mut b = LtsBuilder::new();
        let states: Vec<_> = labels.iter().map(|_| b.add_state()).collect();
        for (i, l) in labels.iter().enumerate() {
            b.add_transition(states[i], l, states[(i + 1) % states.len()]);
        }
        b.build(states[0])
    }

    #[test]
    fn full_sync_is_lockstep_intersection() {
        let a = cycle(&["X", "Y"]);
        let b = cycle(&["X", "Y"]);
        let c = compose(&a, &b, &Sync::Full);
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_transitions(), 2);
    }

    #[test]
    fn full_sync_with_disjoint_alphabets_deadlocks() {
        let a = cycle(&["X"]);
        let b = cycle(&["Y"]);
        let c = compose(&a, &b, &Sync::Full);
        assert_eq!(c.num_states(), 1);
        assert_eq!(c.num_transitions(), 0);
    }

    #[test]
    fn interleaving_is_product() {
        let a = cycle(&["X", "Y"]);
        let b = cycle(&["P", "Q", "R"]);
        let c = compose(&a, &b, &Sync::Interleave);
        assert_eq!(c.num_states(), 6);
        assert_eq!(c.num_transitions(), 12);
    }

    #[test]
    fn value_negotiation_requires_identical_offers() {
        let mut l = LtsBuilder::new();
        let (l0, l1) = (l.add_state(), l.add_state());
        l.add_transition(l0, "CH !1", l1);
        let l = l.build(l0);

        let mut r = LtsBuilder::new();
        let (r0, r1) = (r.add_state(), r.add_state());
        r.add_transition(r0, "CH !2", r1);
        let r = r.build(r0);

        let c = compose(&l, &r, &Sync::on(["CH"]));
        assert_eq!(c.num_transitions(), 0, "CH !1 must not sync with CH !2");

        let mut r2 = LtsBuilder::new();
        let (r0, r1) = (r2.add_state(), r2.add_state());
        r2.add_transition(r0, "CH !1", r1);
        let r2 = r2.build(r0);
        let c2 = compose(&l, &r2, &Sync::on(["CH"]));
        assert_eq!(c2.num_transitions(), 1);
    }

    #[test]
    fn tau_never_synchronizes() {
        let a = cycle(&["i"]);
        let b = cycle(&["i"]);
        let c = compose(&a, &b, &Sync::Full);
        // Both taus interleave freely: 1x1 state, two self-loops.
        assert_eq!(c.num_states(), 1);
        assert_eq!(c.num_transitions(), 2);
    }

    #[test]
    fn exit_always_synchronizes() {
        let a = cycle(&["exit"]);
        let b = cycle(&["exit"]);
        let c = compose(&a, &b, &Sync::Interleave);
        assert_eq!(c.num_states(), 1);
        assert_eq!(c.num_transitions(), 1, "exit must be joint even under |||");
    }

    #[test]
    fn hide_then_gates_disappear() {
        let a = cycle(&["X !3", "Y"]);
        let h = hide(&a, ["X"]);
        assert!(h.used_gates().contains("Y"));
        assert!(!h.used_gates().contains("X"));
    }

    #[test]
    fn hide_all_but_keeps_only_interface() {
        let a = cycle(&["X", "Y", "Z"]);
        let h = hide_all_but(&a, ["Y"]);
        let gates = h.used_gates();
        assert_eq!(gates.len(), 1);
        assert!(gates.contains("Y"));
    }

    #[test]
    fn rename_preserves_offers() {
        let a = cycle(&["PUSH !7"]);
        let mut map = HashMap::new();
        map.insert("PUSH".to_owned(), "IN".to_owned());
        let r = rename_gates(&a, &map);
        assert!(r.labels().lookup("IN !7").is_some());
    }

    #[test]
    fn parallel_compose_is_bit_identical() {
        // Two medium cycles sharing a sync gate: 30×42 product with both
        // interleaved and synchronized moves.
        let mut left_labels: Vec<String> = (0..30).map(|i| format!("L !{i}")).collect();
        left_labels[7] = "S !1".to_owned();
        left_labels[19] = "S !2".to_owned();
        let mut right_labels: Vec<String> = (0..42).map(|i| format!("R !{i}")).collect();
        right_labels[3] = "S !1".to_owned();
        right_labels[31] = "S !2".to_owned();
        fn as_strs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }
        let a = cycle(&as_strs(&left_labels));
        let b = cycle(&as_strs(&right_labels));
        for sync in [Sync::Interleave, Sync::on(["S"]), Sync::Full] {
            let seq = compose(&a, &b, &sync);
            for threads in [2, 4] {
                let par = compose_with(&a, &b, &sync, Workers::new(threads));
                assert_eq!(
                    crate::io::write_aut(&seq),
                    crate::io::write_aut(&par),
                    "{sync:?} @{threads}"
                );
            }
        }
    }

    #[test]
    fn compose_all_folds() {
        let a = cycle(&["X"]);
        let b = cycle(&["X"]);
        let c = cycle(&["X"]);
        let all = compose_all(&[&a, &b, &c], &Sync::on(["X"]));
        assert_eq!(all.num_states(), 1);
        assert_eq!(all.num_transitions(), 1);
    }
}
