//! Parallel batched Monte-Carlo evaluation of CTMCs.
//!
//! The statistical counterpart of the numerical solvers: trajectories are
//! sampled in batches distributed over `multival-par` workers, folded into
//! [`Welford`] accumulators, and the run stops once every estimate's
//! confidence interval is narrower than the requested width (or the
//! trajectory cap is reached).
//!
//! # Determinism
//!
//! Results are **bit-identical across thread counts**: every trajectory
//! draws from its own RNG seeded by `mix(seed, trajectory index)`, batches
//! are mapped with the order-preserving
//! [`par_map_min`], and the accumulator fold is
//! sequential in trajectory order. Scheduling can change wall time only.

use crate::ctmc::{Ctmc, State};
use crate::sparse::Csr;
use crate::stats::Welford;
use multival_par::{mix64, par_map_min, SplitMix64, Workers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Knobs of the Monte-Carlo engine.
#[derive(Debug, Clone, Copy)]
pub struct McOptions {
    /// Base seed of the per-trajectory seed stream.
    pub seed: u64,
    /// Worker threads for trajectory batches.
    pub workers: Workers,
    /// Trajectories per batch (the stopping rule is checked between
    /// batches).
    pub batch: usize,
    /// Hard cap on the total number of trajectories.
    pub max_trajectories: usize,
    /// Confidence level of the reported intervals (e.g. `0.99`).
    pub confidence: f64,
    /// Stop when every half-width is below `rel_width · |mean|` …
    pub rel_width: f64,
    /// … or below this absolute width (whichever is larger per estimate;
    /// keeps near-zero means from demanding unbounded precision).
    pub abs_width: f64,
    /// Wall-clock budget, checked between batches: when the instant passes
    /// the run stops and reports the estimates accumulated so far with
    /// [`McRun::budget_hit`] set. `None` (the default) runs to the
    /// trajectory cap. A tripped deadline makes the trajectory count
    /// machine-dependent, so deterministic callers leave this unset and cap
    /// trajectories instead.
    pub deadline: Option<Instant>,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            seed: 0x5EED_CAFE,
            workers: Workers::sequential(),
            batch: 512,
            max_trajectories: 65_536,
            confidence: 0.99,
            rel_width: 0.02,
            abs_width: 5e-3,
            deadline: None,
        }
    }
}

/// One estimated quantity.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Confidence-interval half-width at the run's confidence level.
    pub half_width: f64,
}

/// Result of one engine run: a vector of estimates plus run accounting.
#[derive(Debug, Clone)]
pub struct McRun {
    /// The estimates, one per requested dimension (e.g. per state).
    pub estimates: Vec<Estimate>,
    /// Trajectories actually sampled.
    pub trajectories: usize,
    /// Batches executed.
    pub batches: usize,
    /// Whether the width-based stopping rule was met before the cap.
    pub converged: bool,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Confidence level of the reported half-widths.
    pub confidence: f64,
    /// Whether the wall-clock deadline tripped before the stopping rule or
    /// trajectory cap was reached (estimates are still valid, just wider).
    pub budget_hit: bool,
}

impl McRun {
    /// Largest half-width over all estimates.
    #[must_use]
    pub fn max_half_width(&self) -> f64 {
        self.estimates.iter().map(|e| e.half_width).fold(0.0, f64::max)
    }
}

/// Deterministic per-trajectory seed: a splitmix64-style scramble of the
/// base seed and the trajectory index, so seed streams are decorrelated
/// and depend only on `(seed, index)` — never on scheduling.
#[must_use]
pub fn trajectory_seed(base: u64, index: u64) -> u64 {
    mix64(base ^ index.wrapping_add(1).wrapping_mul(SplitMix64::GAMMA))
}

/// Batched driver shared by all estimators: runs `traj` per trajectory
/// (returning one sample per dimension), folds batches sequentially in
/// trajectory order, and applies the width stopping rule between batches.
fn run_batched(
    dim: usize,
    opts: &McOptions,
    traj: impl Fn(&mut StdRng) -> Vec<f64> + Sync,
) -> McRun {
    let start = Instant::now();
    let batch = opts.batch.max(2);
    let mut acc = vec![Welford::new(); dim];
    let mut done = 0usize;
    let mut batches = 0usize;
    let mut converged = false;
    let mut budget_hit = false;
    while done < opts.max_trajectories {
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            budget_hit = true;
            break;
        }
        let size = batch.min(opts.max_trajectories - done);
        let indices: Vec<u64> = (done as u64..(done + size) as u64).collect();
        let samples = par_map_min(opts.workers, 2, &indices, |_, &i| {
            let mut rng = StdRng::seed_from_u64(trajectory_seed(opts.seed, i));
            traj(&mut rng)
        });
        for sample in &samples {
            for (w, &x) in acc.iter_mut().zip(sample) {
                w.push(x);
            }
        }
        done += size;
        batches += 1;
        converged = acc.iter().all(|w| {
            let hw = w.ci_half_width(opts.confidence);
            hw <= (opts.rel_width * w.mean().abs()).max(opts.abs_width)
        });
        if converged {
            break;
        }
    }
    McRun {
        estimates: acc
            .iter()
            .map(|w| Estimate {
                mean: w.mean(),
                variance: w.variance(),
                half_width: w.ci_half_width(opts.confidence),
            })
            .collect(),
        trajectories: done,
        batches,
        converged,
        wall: start.elapsed(),
        threads: opts.workers.get(),
        confidence: opts.confidence,
        budget_hit,
    }
}

/// Monte-Carlo evaluator of one chain: a CSR view plus the initial
/// distribution, with one method per measure.
///
/// # Examples
///
/// Occupancy of a flip-flop converges to its steady state:
///
/// ```
/// use multival_ctmc::{CtmcBuilder, McOptions, McSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 2.0)?;
/// b.rate(1, 0, 1.0)?;
/// let ctmc = b.build()?;
/// let run = McSim::new(&ctmc).occupancy(200.0, &McOptions::default());
/// assert!((run.estimates[0].mean - 1.0 / 3.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub struct McSim {
    csr: Csr,
    initial: Vec<(State, f64)>,
}

impl McSim {
    /// Builds the CSR view once; trajectories then run allocation-free
    /// through the flat arrays.
    #[must_use]
    pub fn new(ctmc: &Ctmc) -> McSim {
        McSim { csr: Csr::new(ctmc), initial: ctmc.initial().to_vec() }
    }

    /// Number of states of the underlying chain.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.csr.num_states()
    }

    /// Samples the initial state.
    fn sample_initial(&self, rng: &mut StdRng) -> State {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for &(s, p) in &self.initial {
            acc += p;
            if u < acc {
                return s;
            }
        }
        self.initial.last().map_or(0, |&(s, _)| s)
    }

    /// One jump: exponential dwell at the exit rate, then a successor drawn
    /// proportionally to the outgoing rates. `None` when absorbing.
    fn step(&self, s: State, rng: &mut StdRng) -> Option<(f64, State)> {
        let e = self.csr.exit(s);
        if e == 0.0 {
            return None;
        }
        let u: f64 = rng.gen();
        let dwell = -(1.0 - u).ln() / e;
        let next = self.csr.sample_successor(s, rng.gen());
        Some((dwell, next))
    }

    /// Fraction of `[0, horizon]` spent in each state (dimension = number
    /// of states). For ergodic chains and a long horizon this estimates
    /// the steady-state distribution.
    #[must_use]
    pub fn occupancy(&self, horizon: f64, opts: &McOptions) -> McRun {
        let n = self.num_states();
        run_batched(n, opts, |rng| {
            let mut out = vec![0.0; n];
            let mut s = self.sample_initial(rng);
            let mut t = 0.0;
            while t < horizon {
                match self.step(s, rng) {
                    None => {
                        out[s] += horizon - t;
                        break;
                    }
                    Some((dwell, next)) => {
                        out[s] += dwell.min(horizon - t);
                        t += dwell;
                        s = next;
                    }
                }
            }
            for x in &mut out {
                *x /= horizon;
            }
            out
        })
    }

    /// Probability of being in each state at time `t` (dimension = number
    /// of states; each trajectory contributes a one-hot sample).
    #[must_use]
    pub fn transient(&self, t: f64, opts: &McOptions) -> McRun {
        let n = self.num_states();
        run_batched(n, opts, |rng| {
            let mut out = vec![0.0; n];
            let mut s = self.sample_initial(rng);
            let mut clock = 0.0;
            while clock < t {
                match self.step(s, rng) {
                    None => break,
                    Some((dwell, next)) => {
                        clock += dwell;
                        if clock < t {
                            s = next;
                        }
                    }
                }
            }
            out[s] = 1.0;
            out
        })
    }

    /// Time until the target set is first hit, truncated at `time_cap`
    /// (scalar estimate). The truncation biases the mean low when the cap
    /// is reached; choose `time_cap` generously against the expected
    /// hitting time.
    #[must_use]
    pub fn hitting_time(&self, targets: &[State], time_cap: f64, opts: &McOptions) -> McRun {
        let mut is_target = vec![false; self.num_states()];
        for &t in targets {
            is_target[t] = true;
        }
        run_batched(1, opts, |rng| {
            let mut s = self.sample_initial(rng);
            let mut t = 0.0;
            while !is_target[s] && t < time_cap {
                match self.step(s, rng) {
                    None => return vec![time_cap],
                    Some((dwell, next)) => {
                        t += dwell;
                        s = next;
                    }
                }
            }
            vec![t.min(time_cap)]
        })
    }

    /// Reward accumulated until the target set is hit (state reward per
    /// unit dwell time, impulse per transition), truncated at `time_cap`
    /// like [`Self::hitting_time`]. Scalar estimate.
    #[must_use]
    pub fn accumulated_reward(
        &self,
        targets: &[State],
        state_reward: impl Fn(State) -> f64 + Sync,
        impulse: impl Fn(State, State) -> f64 + Sync,
        time_cap: f64,
        opts: &McOptions,
    ) -> McRun {
        let mut is_target = vec![false; self.num_states()];
        for &t in targets {
            is_target[t] = true;
        }
        run_batched(1, opts, |rng| {
            let mut s = self.sample_initial(rng);
            let mut t = 0.0;
            let mut total = 0.0;
            while !is_target[s] && t < time_cap {
                match self.step(s, rng) {
                    None => break,
                    Some((dwell, next)) => {
                        let credited = dwell.min(time_cap - t);
                        total += state_reward(s) * credited;
                        t += dwell;
                        if t < time_cap {
                            total += impulse(s, next);
                        }
                        s = next;
                    }
                }
            }
            vec![total]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorb::mean_time_to_target;
    use crate::ctmc::CtmcBuilder;
    use crate::rewards::accumulated_until;
    use crate::steady::{steady_state, SolveOptions};
    use crate::transient::{transient, TransientOptions};

    #[test]
    fn trajectory_seed_keeps_its_stream() {
        // The scramble predating the shared `mix64` finalizer, inlined.
        fn reference(base: u64, index: u64) -> u64 {
            let mut z = base ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let bases = [0, 1, 2024, 0x5EED_CAFE, u64::MAX / 3, u64::MAX];
        let indices = [0, 1, 2, 511, 65_535, 1 << 40, u64::MAX - 1, u64::MAX];
        for &base in &bases {
            for &index in &indices {
                assert_eq!(
                    trajectory_seed(base, index),
                    reference(base, index),
                    "({base}, {index})"
                );
            }
        }
    }

    fn flip_flop() -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        b.build().unwrap()
    }

    fn erlang3() -> Ctmc {
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 2, 2.0).unwrap();
        b.rate(2, 3, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn thread_counts_do_not_change_estimates() {
        let c = flip_flop();
        let sim = McSim::new(&c);
        let base = McOptions { batch: 128, max_trajectories: 1024, ..McOptions::default() };
        let one = sim.occupancy(50.0, &McOptions { workers: Workers::new(1), ..base });
        let four = sim.occupancy(50.0, &McOptions { workers: Workers::new(4), ..base });
        assert_eq!(one.trajectories, four.trajectories);
        for (a, b) in one.estimates.iter().zip(&four.estimates) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "bit-identical means");
            assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
        }
    }

    #[test]
    fn occupancy_approaches_steady_state() {
        let c = flip_flop();
        let pi = steady_state(&c, &SolveOptions::default()).expect("solves");
        let run = McSim::new(&c).occupancy(500.0, &McOptions::default());
        for (e, &want) in run.estimates.iter().zip(&pi) {
            assert!(
                (e.mean - want).abs() < e.half_width + 5e-3,
                "{} vs {want} (hw {})",
                e.mean,
                e.half_width
            );
        }
    }

    #[test]
    fn transient_matches_uniformization() {
        let c = flip_flop();
        let t = 0.7;
        let exact = transient(&c, t, &TransientOptions::default()).expect("solves");
        let run = McSim::new(&c).transient(t, &McOptions::default());
        for (e, &want) in run.estimates.iter().zip(&exact) {
            assert!((e.mean - want).abs() < e.half_width.max(1e-3), "{} vs {want}", e.mean);
        }
    }

    #[test]
    fn hitting_time_matches_absorb() {
        let c = erlang3();
        let exact = mean_time_to_target(&c, &[3], &SolveOptions::default()).expect("solves");
        let run = McSim::new(&c).hitting_time(&[3], 1e4, &McOptions::default());
        let e = &run.estimates[0];
        assert!((e.mean - exact).abs() < e.half_width.max(1e-2), "{} vs {exact}", e.mean);
    }

    #[test]
    fn accumulated_reward_matches_gauss_seidel() {
        let c = erlang3();
        let exact = accumulated_until(&c, &[3], |_| 2.0, |_, _| 0.5, &SolveOptions::default())
            .expect("solves")[0];
        let run = McSim::new(&c).accumulated_reward(
            &[3],
            |_| 2.0,
            |_, _| 0.5,
            1e4,
            &McOptions::default(),
        );
        let e = &run.estimates[0];
        assert!((e.mean - exact).abs() < e.half_width.max(2e-2), "{} vs {exact}", e.mean);
    }

    #[test]
    fn stopping_rule_halts_before_cap() {
        let c = flip_flop();
        let opts = McOptions {
            rel_width: 0.2,
            abs_width: 0.05,
            batch: 256,
            max_trajectories: 1 << 20,
            ..McOptions::default()
        };
        let run = McSim::new(&c).transient(0.5, &opts);
        assert!(run.converged, "loose widths must converge quickly");
        assert!(run.trajectories < 1 << 20);
        for e in &run.estimates {
            assert!(e.half_width <= (0.2 * e.mean.abs()).max(0.05) + 1e-12);
        }
    }

    #[test]
    fn seed_changes_estimates_but_structure_holds() {
        let c = flip_flop();
        let sim = McSim::new(&c);
        let a = sim
            .transient(0.5, &McOptions { seed: 1, max_trajectories: 2048, ..McOptions::default() });
        let b = sim
            .transient(0.5, &McOptions { seed: 2, max_trajectories: 2048, ..McOptions::default() });
        assert_ne!(a.estimates[0].mean.to_bits(), b.estimates[0].mean.to_bits());
        // Both still sum to 1 across states (each sample is one-hot).
        let sa: f64 = a.estimates.iter().map(|e| e.mean).sum();
        assert!((sa - 1.0).abs() < 1e-12);
    }
}
