//! Compressed sparse row (CSR) kernels for the rate matrix.
//!
//! The builder-facing [`Ctmc`] stores one `Vec<RateTransition>`
//! per state, which is convenient to grow but costly to traverse: every hot
//! loop pays a pointer chase per state and recomputes exit rates by
//! summation. [`Csr`] flattens the matrix once into three parallel arrays
//! (`row_ptr`, `col`, `rate`) with precomputed per-state exit rates, so the
//! iterative solvers ([`steady`](crate::steady), [`transient`](crate::transient),
//! [`rewards`](crate::rewards)) and the Monte-Carlo engine ([`mc`](crate::mc))
//! stream through contiguous memory.

use crate::ctmc::Ctmc;

/// Sentinel in the label slice of [`Csr::row_labeled`] for an unlabeled
/// transition.
pub const NO_LABEL: u32 = u32::MAX;

/// Immutable CSR view of a CTMC's rate matrix, with exit rates precomputed.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    /// `row_ptr[s]..row_ptr[s+1]` indexes the transitions of state `s`.
    row_ptr: Vec<usize>,
    /// Transition targets.
    col: Vec<u32>,
    /// Transition rates (positive).
    rate: Vec<f64>,
    /// Transition label ids ([`NO_LABEL`] when unlabeled).
    label: Vec<u32>,
    /// Per-state exit rates `E(s) = Σ rate(s → ·)`.
    exit: Vec<f64>,
    /// `max_s E(s)`.
    max_exit: f64,
}

impl Csr {
    /// Flattens `ctmc` into CSR form. Transition order within a row is
    /// preserved, so row scans visit transitions exactly as
    /// [`Ctmc::transitions_from`] would.
    #[must_use]
    pub fn new(ctmc: &Ctmc) -> Csr {
        let n = ctmc.num_states();
        let nnz = ctmc.num_transitions();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::with_capacity(nnz);
        let mut rate = Vec::with_capacity(nnz);
        let mut label = Vec::with_capacity(nnz);
        let mut exit = Vec::with_capacity(n);
        let mut max_exit = 0.0f64;
        row_ptr.push(0);
        for s in 0..n {
            let mut e = 0.0;
            for t in ctmc.transitions_from(s) {
                col.push(t.target as u32);
                rate.push(t.rate);
                label.push(t.label.unwrap_or(NO_LABEL));
                e += t.rate;
            }
            row_ptr.push(col.len());
            max_exit = max_exit.max(e);
            exit.push(e);
        }
        Csr { n, row_ptr, col, rate, label, exit, max_exit }
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.col.len()
    }

    /// Exit rate of `s` (precomputed; no summation).
    #[must_use]
    pub fn exit(&self, s: usize) -> f64 {
        self.exit[s]
    }

    /// Largest exit rate over all states.
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        self.max_exit
    }

    /// The `(targets, rates)` slices of one row.
    #[must_use]
    pub fn row(&self, s: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[s], self.row_ptr[s + 1]);
        (&self.col[lo..hi], &self.rate[lo..hi])
    }

    /// The `(targets, rates, labels)` slices of one row.
    #[must_use]
    pub fn row_labeled(&self, s: usize) -> (&[u32], &[f64], &[u32]) {
        let (lo, hi) = (self.row_ptr[s], self.row_ptr[s + 1]);
        (&self.col[lo..hi], &self.rate[lo..hi], &self.label[lo..hi])
    }

    /// One step of the uniformized chain: `out = v · P` with `P = I + Q/Λ`.
    ///
    /// This is the inner kernel of uniformization — a vector-matrix product
    /// over the flat arrays with the self-loop mass `1 − E(s)/Λ` folded in.
    pub fn uniform_step(&self, lambda: f64, v: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for s in 0..self.n {
            let p = v[s];
            if p == 0.0 {
                continue;
            }
            out[s] += p * (1.0 - self.exit[s] / lambda);
            let (cols, rates) = self.row(s);
            let scale = p / lambda;
            for (&c, &r) in cols.iter().zip(rates) {
                out[c as usize] += scale * r;
            }
        }
    }

    /// Samples the successor of `s` given a uniform draw `u ∈ [0, 1)`:
    /// scans the row until the cumulative rate passes `u · E(s)`.
    ///
    /// Must not be called on absorbing states (`exit(s) == 0`).
    #[must_use]
    pub fn sample_successor(&self, s: usize, u: f64) -> usize {
        let (cols, rates) = self.row(s);
        debug_assert!(!cols.is_empty(), "sample_successor on absorbing state {s}");
        let threshold = u * self.exit[s];
        let mut acc = 0.0;
        for (&c, &r) in cols.iter().zip(rates) {
            acc += r;
            if u_below(threshold, acc) {
                return c as usize;
            }
        }
        // Rounding slack: fall through to the last transition.
        cols[cols.len() - 1] as usize
    }
}

/// Strict comparison hoisted out so the sampling loop stays branch-simple.
#[inline]
fn u_below(threshold: f64, acc: f64) -> bool {
    threshold < acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn chain() -> Ctmc {
        let mut b = CtmcBuilder::new(3);
        b.rate_labeled(0, 1, 2.0, "up").unwrap();
        b.rate(1, 0, 1.0).unwrap();
        b.rate(1, 2, 3.0).unwrap();
        b.rate(2, 0, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn csr_matches_ctmc_structure() {
        let c = chain();
        let csr = Csr::new(&c);
        assert_eq!(csr.num_states(), 3);
        assert_eq!(csr.num_transitions(), 4);
        for s in 0..3 {
            assert!((csr.exit(s) - c.exit_rate(s)).abs() < 1e-15);
            let (cols, rates) = csr.row(s);
            let ts = c.transitions_from(s);
            assert_eq!(cols.len(), ts.len());
            for (i, t) in ts.iter().enumerate() {
                assert_eq!(cols[i] as usize, t.target);
                assert!((rates[i] - t.rate).abs() < 1e-15);
            }
        }
        assert!((csr.max_exit_rate() - 4.0).abs() < 1e-15);
        let (_, _, labels) = csr.row_labeled(0);
        assert_eq!(labels, &[c.label_id("up").unwrap()]);
    }

    #[test]
    fn uniform_step_preserves_mass() {
        let c = chain();
        let csr = Csr::new(&c);
        let lambda = csr.max_exit_rate() * 1.02;
        let v = vec![0.2, 0.5, 0.3];
        let mut out = vec![0.0; 3];
        csr.uniform_step(lambda, &v, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Hand-check state 0's inflow: stay + from 1 + from 2.
        let want = 0.2 * (1.0 - 2.0 / lambda) + 0.5 * (1.0 / lambda) + 0.3 * (0.5 / lambda);
        assert!((out[0] - want).abs() < 1e-12);
    }

    #[test]
    fn sample_successor_covers_row() {
        let c = chain();
        let csr = Csr::new(&c);
        // State 1 has successors 0 (rate 1) and 2 (rate 3): the split point
        // is at u = 0.25.
        assert_eq!(csr.sample_successor(1, 0.0), 0);
        assert_eq!(csr.sample_successor(1, 0.24), 0);
        assert_eq!(csr.sample_successor(1, 0.26), 2);
        assert_eq!(csr.sample_successor(1, 0.9999), 2);
    }
}
