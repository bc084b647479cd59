//! Phase-type delay distributions.
//!
//! The Multival flow instantiates delays *compositionally*: a delay is an
//! auxiliary process synchronized with the functional model on the gates
//! marking the start and end of the delay. This module provides the standard
//! phase-type family and, crucially, the Erlang approximation of
//! *fixed-time* delays — the paper's §5 names the resulting space/accuracy
//! trade-off as an open issue, which experiment E7 quantifies.

use crate::imc::{Imc, ImcBuilder};
use multival_ctmc::phfit::{self, FitOptions, PhaseFit};
use multival_ctmc::{Ctmc, CtmcBuilder};
use std::fmt;

/// A phase-type delay distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Delay {
    /// Exponential with the given rate (mean `1/rate`).
    Exponential {
        /// Rate λ.
        rate: f64,
    },
    /// Erlang: `phases` sequential exponential phases of rate `rate` each
    /// (mean `phases/rate`, squared coefficient of variation `1/phases`).
    Erlang {
        /// Number of phases k ≥ 1.
        phases: u32,
        /// Per-phase rate λ.
        rate: f64,
    },
    /// Hypo-exponential: sequential phases with individual rates.
    HypoExponential {
        /// Per-phase rates, in order.
        rates: Vec<f64>,
    },
    /// Hyper-exponential: probabilistic mixture of exponentials.
    HyperExponential {
        /// `(probability, rate)` branches; probabilities must sum to 1.
        branches: Vec<(f64, f64)>,
    },
    /// A *deterministic* delay of duration `mean`, auto-fitted to an Erlang
    /// chain by [`multival_ctmc::phfit::fit_deterministic`]: the smallest
    /// order k whose sup-CDF error against the unit step (outside the
    /// ±10 %·mean band around the jump) is ≤ `tol`, capped at
    /// [`phfit::DEFAULT_MAX_K`]. Users state the delay and the accuracy they
    /// need instead of hand-picking k — use [`Delay::fit_report`] to see
    /// what the fitter chose and whether the tolerance was met.
    Deterministic {
        /// Duration d of the fixed delay (d > 0).
        mean: f64,
        /// Sup-CDF tolerance the automatic fit must meet (0 < tol < 1).
        tol: f64,
    },
}

impl Delay {
    /// The canonical Erlang-k approximation of a *deterministic* delay of
    /// duration `d`: k phases of rate `k/d` (mean d, CV² = 1/k). Larger `k`
    /// is more accurate and costs more states — the space/accuracy
    /// trade-off of the paper's §5.
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0` or `phases == 0`.
    pub fn fixed(d: f64, phases: u32) -> Delay {
        assert!(d > 0.0, "fixed delay must be positive");
        assert!(phases > 0, "need at least one phase");
        Delay::Erlang { phases, rate: phases as f64 / d }
    }

    /// A deterministic delay of duration `d` that auto-fits its Erlang order
    /// to the stated sup-CDF tolerance (see [`Delay::Deterministic`]).
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0` or `tol` is not in `(0, 1)`.
    pub fn deterministic(d: f64, tol: f64) -> Delay {
        assert!(d > 0.0, "fixed delay must be positive");
        assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0, 1)");
        Delay::Deterministic { mean: d, tol }
    }

    /// Resolves [`Delay::Deterministic`] to the concrete fitted
    /// [`Delay::Erlang`]; every other variant is returned as-is. All
    /// structural operations (`to_ctmc`, `to_imc_process`, decoration)
    /// instantiate the resolved chain.
    ///
    /// # Panics
    ///
    /// Panics if a `Deterministic` delay carries an invalid mean/tolerance
    /// (constructing through [`Delay::deterministic`] rules this out).
    pub fn resolved(&self) -> Delay {
        match self.fit_report() {
            Some(fit) => Delay::Erlang { phases: fit.k as u32, rate: fit.rate },
            None => self.clone(),
        }
    }

    /// The fitter's report for a [`Delay::Deterministic`] delay — chosen
    /// order, per-phase rate, achieved sup-CDF error, and whether the stated
    /// tolerance was met (`false` means the order cap was reached; the cap
    /// fit is still returned and used). `None` for concrete variants.
    pub fn fit_report(&self) -> Option<PhaseFit> {
        match self {
            Delay::Deterministic { mean, tol } => Some(
                phfit::fit_deterministic(*mean, *tol, &FitOptions::default())
                    .expect("deterministic delay carries a valid mean and tolerance"),
            ),
            _ => None,
        }
    }

    /// Fits a phase-type distribution to a target mean and coefficient of
    /// variation by standard moment matching:
    ///
    /// * `cv == 1` → exponential;
    /// * `cv < 1`  → [`phfit::fit_moments`]: pure Erlang-k when `1/cv²` is
    ///   an integer, otherwise a k-phase hypo-exponential matching *both*
    ///   moments exactly;
    /// * `cv > 1`  → two-branch balanced hyper-exponential.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv <= 0`.
    pub fn fit_moments(mean: f64, cv: f64) -> Delay {
        assert!(mean > 0.0, "mean must be positive");
        assert!(cv > 0.0, "cv must be positive");
        if (cv - 1.0).abs() < 1e-12 {
            return Delay::Exponential { rate: 1.0 / mean };
        }
        if cv < 1.0 {
            let fit = phfit::fit_moments(mean, cv).expect("validated mean and cv");
            if fit.is_erlang() {
                let k = fit.k();
                return Delay::Erlang { phases: k as u32, rate: k as f64 / mean };
            }
            return Delay::HypoExponential { rates: fit.rates };
        }
        // Balanced two-phase hyper-exponential (p, λ1) / (1-p, λ2) matching
        // the first two moments, with the "balanced means" convention
        // p/λ1 = (1-p)/λ2.
        let cv2 = cv * cv;
        let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
        let l1 = 2.0 * p / mean;
        let l2 = 2.0 * (1.0 - p) / mean;
        Delay::HyperExponential { branches: vec![(p, l1), (1.0 - p, l2)] }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Delay::Exponential { rate } => 1.0 / rate,
            Delay::Erlang { phases, rate } => *phases as f64 / rate,
            Delay::HypoExponential { rates } => rates.iter().map(|r| 1.0 / r).sum(),
            Delay::HyperExponential { branches } => branches.iter().map(|(p, r)| p / r).sum(),
            // Erlang fits of rate k/mean preserve the mean exactly.
            Delay::Deterministic { mean, .. } => *mean,
        }
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        match self {
            Delay::Exponential { rate } => 1.0 / (rate * rate),
            Delay::Erlang { phases, rate } => *phases as f64 / (rate * rate),
            Delay::HypoExponential { rates } => rates.iter().map(|r| 1.0 / (r * r)).sum(),
            Delay::HyperExponential { branches } => {
                let m = self.mean();
                let second: f64 = branches.iter().map(|(p, r)| 2.0 * p / (r * r)).sum();
                second - m * m
            }
            // The variance of the *instantiated* chain (mean²/k), not the
            // zero variance of the ideal: it is the fitted chain that enters
            // the state space, and honesty about its dispersion is the point.
            Delay::Deterministic { .. } => self.resolved().variance(),
        }
    }

    /// Coefficient of variation (σ/μ). Zero is a deterministic delay; the
    /// Erlang-k approximation achieves `1/√k`.
    pub fn cv(&self) -> f64 {
        self.variance().sqrt() / self.mean()
    }

    /// Number of CTMC phases (states) the delay occupies — the *space* side
    /// of the space/accuracy trade-off.
    pub fn num_phases(&self) -> usize {
        match self {
            Delay::Exponential { .. } => 1,
            Delay::Erlang { phases, .. } => *phases as usize,
            Delay::HypoExponential { rates } => rates.len(),
            Delay::HyperExponential { branches } => branches.len(),
            Delay::Deterministic { .. } => self.fit_report().expect("deterministic variant").k,
        }
    }

    /// The absorbing CTMC of the delay (phases → absorbing state last).
    /// Used to evaluate the CDF numerically via uniformization.
    pub fn to_ctmc(&self) -> Ctmc {
        match self {
            Delay::Exponential { rate } => {
                let mut b = CtmcBuilder::new(2);
                b.rate(0, 1, *rate).expect("validated");
                b.build().expect("nonempty")
            }
            Delay::Erlang { phases, rate } => {
                let k = *phases as usize;
                let mut b = CtmcBuilder::new(k + 1);
                for i in 0..k {
                    b.rate(i, i + 1, *rate).expect("validated");
                }
                b.build().expect("nonempty")
            }
            Delay::HypoExponential { rates } => {
                let k = rates.len();
                let mut b = CtmcBuilder::new(k + 1);
                for (i, &r) in rates.iter().enumerate() {
                    b.rate(i, i + 1, r).expect("validated");
                }
                b.build().expect("nonempty")
            }
            Delay::HyperExponential { branches } => {
                let k = branches.len();
                let mut b = CtmcBuilder::new(k + 1);
                let dist: Vec<(usize, f64)> =
                    branches.iter().enumerate().map(|(i, &(p, _))| (i, p)).collect();
                b.set_initial(dist).expect("probabilities sum to 1");
                for (i, &(_, r)) in branches.iter().enumerate() {
                    b.rate(i, k, r).expect("validated");
                }
                b.build().expect("nonempty")
            }
            Delay::Deterministic { .. } => self.resolved().to_ctmc(),
        }
    }

    /// CDF `P(T ≤ t)`, evaluated by uniformization on [`Delay::to_ctmc`].
    pub fn cdf(&self, t: f64) -> f64 {
        let c = self.to_ctmc();
        let absorbing = c.num_states() - 1;
        multival_ctmc::transient::transient_probability(
            &c,
            &[absorbing],
            t,
            &multival_ctmc::TransientOptions::default(),
        )
        .unwrap_or(0.0)
    }

    /// Supremum distance between this delay's CDF and the step CDF of a
    /// deterministic delay `d` (evaluated on a grid of `samples` points over
    /// `[0, 3d]`) — the *accuracy* side of the space/accuracy trade-off.
    pub fn sup_error_vs_fixed(&self, d: f64, samples: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..=samples {
            let t = 3.0 * d * i as f64 / samples as f64;
            let step = if t >= d { 1.0 } else { 0.0 };
            worst = worst.max((self.cdf(t) - step).abs());
        }
        worst
    }

    /// Like [`Delay::sup_error_vs_fixed`], but excluding a ±`window`·d band
    /// around the jump at `t = d`. The raw sup-distance saturates at 0.5
    /// (any continuous CDF is ~0.5 at the step), so the *far-from-the-jump*
    /// error is the meaningful accuracy figure for the space/accuracy
    /// trade-off table (experiment E7).
    pub fn sup_error_vs_fixed_excluding(&self, d: f64, window: f64, samples: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..=samples {
            let t = 3.0 * d * i as f64 / samples as f64;
            if (t - d).abs() <= window * d {
                continue;
            }
            let step = if t >= d { 1.0 } else { 0.0 };
            worst = worst.max((self.cdf(t) - step).abs());
        }
        worst
    }

    /// The delay as an IMC *delay process*: it waits for `start`, runs its
    /// phases, emits `end`, and loops. Synchronizing this process with a
    /// functional model on `start`/`end` is the paper's compositional delay
    /// instantiation (§4, steps 1–3).
    pub fn to_imc_process(&self, start: &str, end: &str) -> Imc {
        if let Delay::Deterministic { .. } = self {
            return self.resolved().to_imc_process(start, end);
        }
        let mut b = ImcBuilder::new();
        let idle = b.add_state();
        match self {
            Delay::Exponential { rate } => {
                let busy = b.add_state();
                let done = b.add_state();
                b.interactive(idle, start, busy);
                b.markovian(busy, done, *rate).expect("validated");
                b.interactive(done, end, idle);
            }
            Delay::Erlang { phases, rate } => {
                let mut prev = b.add_state();
                b.interactive(idle, start, prev);
                for _ in 0..*phases {
                    let next = b.add_state();
                    b.markovian(prev, next, *rate).expect("validated");
                    prev = next;
                }
                b.interactive(prev, end, idle);
            }
            Delay::HypoExponential { rates } => {
                let mut prev = b.add_state();
                b.interactive(idle, start, prev);
                for &r in rates {
                    let next = b.add_state();
                    b.markovian(prev, next, r).expect("validated");
                    prev = next;
                }
                b.interactive(prev, end, idle);
            }
            Delay::HyperExponential { branches } => {
                // Branch selection is a probabilistic choice; encode it as a
                // race of scaled rates from a single dispatch state, which
                // yields the same mixture: from dispatch, branch i is taken
                // with probability p_i if its dispatch rate is proportional
                // to p_i. We use a two-stage encoding: dispatch rates p_i·Λ
                // (Λ large relative to branch rates would skew the total
                // delay, so instead we fold the dispatch into the branch:
                // exp(p_i·…) is NOT the mixture). The faithful encoding uses
                // an instantaneous probabilistic choice, which IMCs express
                // as a race of τ? τ is nondeterministic, not probabilistic.
                // The standard trick: start gate leads to a dispatch state
                // whose outgoing *Markovian* race with rates r_i' = p_i·R
                // followed by an Erlang correction is involved; for the
                // library we instead expose the mixture exactly through
                // multiple start transitions — the *caller* of a
                // HyperExponential delay should use `to_ctmc` semantics.
                // Here we approximate the mixture by a fast dispatch race:
                // rates p_i·FAST with FAST = 10⁶ × max branch rate, adding
                // a negligible 1/FAST to the mean.
                let fast = 1e6 * branches.iter().map(|&(_, r)| r).fold(1.0, f64::max);
                let dispatch = b.add_state();
                b.interactive(idle, start, dispatch);
                for &(p, r) in branches {
                    let phase = b.add_state();
                    let done = b.add_state();
                    b.markovian(dispatch, phase, p * fast).expect("validated");
                    b.markovian(phase, done, r).expect("validated");
                    b.interactive(done, end, idle);
                }
            }
            Delay::Deterministic { .. } => unreachable!("resolved above"),
        }
        b.build(idle)
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delay::Exponential { rate } => write!(f, "exp({rate})"),
            Delay::Erlang { phases, rate } => write!(f, "erlang({phases}, {rate})"),
            Delay::HypoExponential { rates } => write!(f, "hypo({rates:?})"),
            Delay::HyperExponential { branches } => write!(f, "hyper({branches:?})"),
            Delay::Deterministic { mean, tol } => write!(f, "det({mean}, tol {tol})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_moments() {
        let d = Delay::Erlang { phases: 4, rate: 8.0 };
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((d.variance() - 4.0 / 64.0).abs() < 1e-12);
        assert!((d.cv() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fixed_fit_preserves_mean() {
        for k in [1, 2, 5, 10, 50] {
            let d = Delay::fixed(2.5, k);
            assert!((d.mean() - 2.5).abs() < 1e-12, "k={k}");
            assert!((d.cv() - 1.0 / (k as f64).sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn cv_decreases_with_phases() {
        let mut prev = f64::INFINITY;
        for k in [1, 2, 4, 8, 16] {
            let cv = Delay::fixed(1.0, k).cv();
            assert!(cv < prev);
            prev = cv;
        }
    }

    #[test]
    fn sup_error_decreases_with_phases() {
        let e1 = Delay::fixed(1.0, 1).sup_error_vs_fixed(1.0, 200);
        let e10 = Delay::fixed(1.0, 10).sup_error_vs_fixed(1.0, 200);
        let e50 = Delay::fixed(1.0, 50).sup_error_vs_fixed(1.0, 200);
        assert!(e10 < e1, "{e10} !< {e1}");
        assert!(e50 < e10, "{e50} !< {e10}");
    }

    #[test]
    fn exponential_cdf_analytic() {
        let d = Delay::Exponential { rate: 2.0 };
        for t in [0.1f64, 0.5, 1.0] {
            let want = 1.0 - (-2.0 * t).exp();
            assert!((d.cdf(t) - want).abs() < 1e-8);
        }
    }

    #[test]
    fn hypoexponential_mean_adds() {
        let d = Delay::HypoExponential { rates: vec![1.0, 2.0, 4.0] };
        assert!((d.mean() - 1.75).abs() < 1e-12);
        assert_eq!(d.num_phases(), 3);
    }

    #[test]
    fn hyperexponential_moments() {
        let d = Delay::HyperExponential { branches: vec![(0.5, 1.0), (0.5, 2.0)] };
        assert!((d.mean() - 0.75).abs() < 1e-12);
        // Second moment = 2(0.5/1 + 0.5/4) = 1.25; var = 1.25 - 0.5625.
        assert!((d.variance() - 0.6875).abs() < 1e-12);
        assert!(d.cv() > 1.0, "hyper-exponential is over-dispersed");
    }

    #[test]
    fn delay_process_shape() {
        let imc = Delay::fixed(1.0, 3).to_imc_process("S", "E");
        // idle + entry + 3 phase targets = 5 states; S, E interactive; 3 rates.
        assert_eq!(imc.num_states(), 5);
        assert_eq!(imc.num_interactive(), 2);
        assert_eq!(imc.num_markovian(), 3);
    }

    #[test]
    fn hyper_process_mixture_mean_close() {
        let d = Delay::HyperExponential { branches: vec![(0.3, 1.0), (0.7, 5.0)] };
        let imc = d.to_imc_process("S", "E");
        // Rough check on structure: dispatch + 2 branches (phase+done) + idle.
        assert_eq!(imc.num_states(), 6);
    }

    #[test]
    #[should_panic(expected = "fixed delay must be positive")]
    fn fixed_rejects_nonpositive() {
        let _ = Delay::fixed(0.0, 3);
    }

    #[test]
    fn moment_matching_exact_for_exponential() {
        let d = Delay::fit_moments(2.0, 1.0);
        assert!(matches!(d, Delay::Exponential { .. }));
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.cv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn moment_matching_low_variability() {
        // cv = 0.5 → Erlang-4 exactly (1/cv² = 4).
        let d = Delay::fit_moments(3.0, 0.5);
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((d.cv() - 0.5).abs() < 1e-12);
        assert_eq!(d.num_phases(), 4);
        // Non-integer 1/cv²: mean still exact, cv approximated from below.
        let d = Delay::fit_moments(1.0, 0.6);
        assert!((d.mean() - 1.0).abs() < 1e-12);
        assert!(d.cv() <= 0.6 + 1e-12);
    }

    #[test]
    fn moment_matching_low_variability_is_exact_hypo() {
        // Non-integer 1/cv² now matches *both* moments via hypo-exponential.
        let d = Delay::fit_moments(1.0, 0.6);
        assert!(matches!(d, Delay::HypoExponential { .. }));
        assert!((d.mean() - 1.0).abs() < 1e-9);
        assert!((d.cv() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn deterministic_resolves_to_erlang_meeting_tolerance() {
        let d = Delay::deterministic(2.0, 0.1);
        let fit = d.fit_report().expect("deterministic delay has a fit");
        assert!(fit.tolerance_met);
        assert!(fit.achieved_error <= 0.1);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let r = d.resolved();
        assert!(matches!(r, Delay::Erlang { .. }));
        assert_eq!(r.num_phases(), d.num_phases());
        assert!((r.mean() - 2.0).abs() < 1e-9);
        // Variance reports the instantiated chain, not the ideal zero.
        assert!((d.variance() - r.variance()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tighter_tolerance_needs_more_phases() {
        let loose = Delay::deterministic(1.0, 0.2).num_phases();
        let tight = Delay::deterministic(1.0, 0.05).num_phases();
        assert!(tight > loose, "{tight} !> {loose}");
    }

    #[test]
    fn deterministic_process_matches_resolved_erlang() {
        let d = Delay::deterministic(1.0, 0.15);
        let imc = d.to_imc_process("S", "E");
        assert_eq!(imc.num_markovian(), d.num_phases());
        let c = d.to_ctmc();
        assert_eq!(c.num_states(), d.num_phases() + 1);
    }

    #[test]
    #[should_panic(expected = "tolerance must be in (0, 1)")]
    fn deterministic_rejects_bad_tolerance() {
        let _ = Delay::deterministic(1.0, 1.5);
    }

    #[test]
    fn moment_matching_high_variability_is_exact() {
        for cv in [1.5, 2.0, 4.0] {
            let d = Delay::fit_moments(0.7, cv);
            assert!((d.mean() - 0.7).abs() < 1e-9, "cv={cv}: mean {}", d.mean());
            assert!((d.cv() - cv).abs() < 1e-9, "cv={cv}: got {}", d.cv());
        }
    }
}
