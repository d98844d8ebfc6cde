//! Transient analysis via uniformisation.
//!
//! The transient distribution of a CTMC is
//! `pi(t) = sum_k psi(k; q t) * pi(0) * P^k` where `P = I + Q/q` is the
//! uniformised DTMC and `psi` the Poisson pmf. [`TransientSolver`] evaluates
//! this sum with Fox–Glynn weights; it also computes time-bounded reachability
//! probabilities (the CSL `P=? [ a U<=t b ]` operator) by the standard
//! absorbing-state transformation, and the "expected total time spent per
//! state" vector used for accumulated-reward measures.
//!
//! Every measure runs through one uniformisation loop. Only the step
//! `x ↦ x·P` (or `P·x` for bounded until) depends on the input: a chain
//! precomputes `P` as a CSR matrix; a rate operator plus exit rates
//! ([`TransientSolver::from_operator`], e.g. the Kronecker sum of per-factor
//! quotients from `arcade_lumping::product`) applies `x + (x·R − x∘E)/q`
//! directly, with absorbing states masked on the fly, so coupling-free
//! facility transients run in `O(states)` memory. The two steps round
//! differently (`I` and the diagonal are applied outside the operator), so
//! the inputs agree to numerical tolerance rather than bit-for-bit; each is
//! bit-identical across thread counts whenever its kernels are (the
//! [`crate::ops`] contract).

use std::borrow::Cow;

use arcade_telemetry::Recorder;

use crate::error::CtmcError;
use crate::exec::ExecOptions;
use crate::foxglynn::FoxGlynn;
use crate::markov::{Ctmc, StateIndex};
use crate::ops::{Generator, LinearOperator};
use crate::sparse::SparseMatrix;

/// Options controlling the uniformisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Truncation error for the Poisson window (total discarded probability mass).
    pub epsilon: f64,
    /// Multiplier applied to the maximal exit rate to obtain the uniformisation
    /// rate; values slightly above one avoid a purely periodic uniformised DTMC.
    pub uniformization_factor: f64,
    /// Worker pool for the matrix–vector kernels. The sharded kernels are
    /// bit-identical to the serial ones, so this knob changes wall-clock time
    /// only, never results.
    pub exec: ExecOptions,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-12,
            uniformization_factor: 1.02,
            exec: ExecOptions::default(),
        }
    }
}

/// Transient (time-dependent) analysis of a labelled chain or a matrix-free
/// rate operator (see the module docs).
#[derive(Debug, Clone)]
pub struct TransientSolver<'a> {
    generator: Generator<'a>,
    initial: Cow<'a, [f64]>,
    options: TransientOptions,
}

impl<'a> TransientSolver<'a> {
    /// Creates a solver with default options.
    pub fn new(chain: &'a Ctmc) -> Self {
        Self::with_options(chain, TransientOptions::default())
    }

    /// Creates a solver with explicit options.
    pub fn with_options(chain: &'a Ctmc, options: TransientOptions) -> Self {
        TransientSolver {
            generator: Generator::Chain(chain),
            initial: Cow::Borrowed(chain.initial_distribution()),
            options,
        }
    }

    /// Creates a matrix-free solver for the rate operator `rates` with the
    /// given exit rates, started from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the operator is not square
    /// or `exit_rates` or `initial` has the wrong length, and
    /// [`CtmcError::InvalidArgument`] for negative or non-finite exits.
    pub fn from_operator(
        rates: &'a dyn LinearOperator,
        exit_rates: Vec<f64>,
        initial: Vec<f64>,
        options: TransientOptions,
    ) -> Result<Self, CtmcError> {
        let generator = Generator::operator(rates, exit_rates)?;
        if initial.len() != generator.num_states() {
            return Err(CtmcError::DimensionMismatch {
                expected: generator.num_states(),
                actual: initial.len(),
            });
        }
        Ok(TransientSolver {
            generator,
            initial: Cow::Owned(initial),
            options,
        })
    }

    /// Computes the state probability vector at time `t`, starting from the
    /// initial distribution.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] if `t` is negative or not finite.
    pub fn probabilities_at(&self, t: f64) -> Result<Vec<f64>, CtmcError> {
        Ok(self
            .probabilities_at_many(std::slice::from_ref(&t))?
            .pop()
            .expect("one time point yields one distribution"))
    }

    /// Computes state probability vectors at several time points over a
    /// *single* uniformisation pass.
    ///
    /// The uniformisation rate does not depend on the time bound, so all
    /// points share the sequence of DTMC powers `pi(0) * P^k`; each point
    /// keeps its own Fox–Glynn window and accumulates exactly the terms a
    /// fresh single-point computation would, making every returned vector
    /// bit-identical to [`TransientSolver::probabilities_at`] while the
    /// matrix–vector products are paid once instead of once per point.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] if any time is negative or not
    /// finite and propagates numerics errors.
    pub fn probabilities_at_many(&self, times: &[f64]) -> Result<Vec<Vec<f64>>, CtmcError> {
        validate_times(times)?;
        let Some(q) = self.uniformization_rate(None, times)? else {
            return Ok(times.iter().map(|_| self.initial.to_vec()).collect());
        };
        let step = self.forward_step(q)?;
        let mut results =
            self.uniformise(q, step, self.initial.to_vec(), times, Accumulate::Poisson)?;
        for (result, &t) in results.iter_mut().zip(times.iter()) {
            if t == 0.0 {
                result.copy_from_slice(&self.initial);
            }
        }
        Ok(results)
    }

    /// Expected total time spent in each state during `[0, t]`:
    /// `L_s(t) = integral_0^t P[X_u = s] du`.
    ///
    /// Using uniformisation, `L(t) = (1/q) * sum_k (1 - F(k)) * pi(0) P^k` where
    /// `F` is the Poisson CDF. This vector dotted with a state-reward vector
    /// yields the expected accumulated reward (the CSRL `R=? [ C<=t ]` operator).
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] if `t` is negative or not finite.
    pub fn expected_sojourn_times(&self, t: f64) -> Result<Vec<f64>, CtmcError> {
        Ok(self
            .expected_sojourn_times_many(std::slice::from_ref(&t))?
            .pop()
            .expect("one time point yields one vector"))
    }

    /// Expected sojourn-time vectors for several horizons over a single
    /// uniformisation pass (see [`TransientSolver::probabilities_at_many`]
    /// for the sharing argument; each horizon accumulates exactly the terms
    /// of its own single-point computation, so results are bit-identical).
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] if any time is negative or not
    /// finite and propagates numerics errors.
    pub fn expected_sojourn_times_many(&self, times: &[f64]) -> Result<Vec<Vec<f64>>, CtmcError> {
        validate_times(times)?;
        let Some(q) = self.uniformization_rate(None, times)? else {
            // Nothing moves (or no time passes): time accumulates in the
            // initial states.
            return Ok(times
                .iter()
                .map(|&t| self.initial.iter().map(|p| p * t).collect())
                .collect());
        };
        let step = self.forward_step(q)?;
        self.uniformise(q, step, self.initial.to_vec(), times, Accumulate::Sojourn)
    }

    /// Time-bounded reachability: the probability, per the initial distribution,
    /// of reaching a `goal` state within `t` while only passing through states
    /// satisfying `safe` (CSL `P=? [ safe U<=t goal ]`).
    ///
    /// States violating `safe` (and not in `goal`) cannot be traversed; goal
    /// states are absorbing.
    ///
    /// # Errors
    ///
    /// Returns an error if the masks have the wrong length or `t` is invalid.
    pub fn bounded_until(&self, safe: &[bool], goal: &[bool], t: f64) -> Result<f64, CtmcError> {
        Ok(self
            .bounded_until_many(safe, goal, std::slice::from_ref(&t))?
            .pop()
            .expect("one time bound yields one probability"))
    }

    /// Per-state time-bounded reachability probabilities (the probability of the
    /// until formula holding when starting deterministically in each state).
    ///
    /// # Errors
    ///
    /// Returns an error if the masks have the wrong length or `t` is invalid.
    pub fn bounded_until_per_state(
        &self,
        safe: &[bool],
        goal: &[bool],
        t: f64,
    ) -> Result<Vec<f64>, CtmcError> {
        Ok(self
            .bounded_until_per_state_many(safe, goal, std::slice::from_ref(&t))?
            .pop()
            .expect("one time bound yields one vector"))
    }

    /// Per-state time-bounded reachability probabilities for several time
    /// bounds over a single uniformisation pass.
    ///
    /// The absorbing-state transformation and the sequence of backward DTMC
    /// products `P^k * 1_goal` depend only on the masks, so all bounds share
    /// them; each bound keeps its own Fox–Glynn window and the results are
    /// bit-identical to calling
    /// [`TransientSolver::bounded_until_per_state`] once per bound. This is
    /// the kernel behind whole survivability and reliability *curves*.
    ///
    /// # Errors
    ///
    /// Returns an error if the masks have the wrong length or any time bound
    /// is invalid.
    pub fn bounded_until_per_state_many(
        &self,
        safe: &[bool],
        goal: &[bool],
        times: &[f64],
    ) -> Result<Vec<Vec<f64>>, CtmcError> {
        validate_times(times)?;
        let n = self.generator.num_states();
        for mask in [safe, goal] {
            if mask.len() != n {
                return Err(CtmcError::DimensionMismatch {
                    expected: n,
                    actual: mask.len(),
                });
            }
        }

        // States that are neither safe nor goal act as sinks (the path is cut);
        // goal states are made absorbing so "reached by t" equals "in goal at t".
        let absorbing: Vec<bool> = (0..n).map(|s| goal[s] || !safe[s]).collect();
        let indicator: Vec<f64> = (0..n).map(|s| if goal[s] { 1.0 } else { 0.0 }).collect();
        let Some(q) = self.uniformization_rate(Some(&absorbing), times)? else {
            // Every state absorbing after the transformation (nothing moves)
            // or no positive bound: the goal indicator answers every query.
            return Ok(times.iter().map(|_| indicator.clone()).collect());
        };

        // A backward pass yields the per-state probabilities at once:
        // x_{k+1} = P * x_k with x_0 = 1_goal.
        let step = self.backward_step(q, &absorbing)?;
        let mut results =
            self.uniformise(q, step, indicator.clone(), times, Accumulate::Poisson)?;
        for (result, &t) in results.iter_mut().zip(times.iter()) {
            if t == 0.0 {
                result.copy_from_slice(&indicator);
                continue;
            }
            // Goal states trivially satisfy the formula; clamp for numerical noise.
            for s in 0..n {
                if goal[s] {
                    result[s] = 1.0;
                }
                result[s] = result[s].clamp(0.0, 1.0);
            }
        }
        Ok(results)
    }

    /// Time-bounded reachability from the initial distribution for several
    /// time bounds over one shared uniformisation pass (the batched
    /// counterpart of [`TransientSolver::bounded_until`]).
    ///
    /// # Errors
    ///
    /// See [`TransientSolver::bounded_until_per_state_many`].
    pub fn bounded_until_many(
        &self,
        safe: &[bool],
        goal: &[bool],
        times: &[f64],
    ) -> Result<Vec<f64>, CtmcError> {
        let per_state = self.bounded_until_per_state_many(safe, goal, times)?;
        Ok(per_state
            .iter()
            .map(|probs| {
                self.initial
                    .iter()
                    .zip(probs.iter())
                    .map(|(p0, p)| p0 * p)
                    .sum()
            })
            .collect())
    }

    /// Convenience wrapper for `P=? [ true U<=t goal ]` from the initial distribution.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`TransientSolver::bounded_until`].
    pub fn bounded_reachability(&self, goal: &[StateIndex], t: f64) -> Result<f64, CtmcError> {
        let n = self.generator.num_states();
        let mut goal_mask = vec![false; n];
        for &s in goal {
            if s >= n {
                return Err(CtmcError::StateOutOfBounds {
                    state: s,
                    num_states: n,
                });
            }
            goal_mask[s] = true;
        }
        self.bounded_until(&vec![true; n], &goal_mask, t)
    }

    /// The uniformisation rate `q = max_exit * factor`, the maximum taken
    /// over the states that are not `absorbing`. `None` when nothing ever
    /// moves (every exit rate zero) or no time passes: the callers answer
    /// those from the start vector. Only a rate that is actually used
    /// validates the factor.
    fn uniformization_rate(
        &self,
        absorbing: Option<&[bool]>,
        times: &[f64],
    ) -> Result<Option<f64>, CtmcError> {
        let max_exit = self
            .generator
            .exit_rates()
            .iter()
            .enumerate()
            .filter(|(s, _)| absorbing.is_none_or(|mask| !mask[*s]))
            .map(|(_, &e)| e)
            .fold(0.0f64, f64::max);
        if max_exit == 0.0 || times.iter().all(|&t| t == 0.0) {
            return Ok(None);
        }
        let factor = self.options.uniformization_factor;
        if !factor.is_finite() || factor < 1.0 {
            return Err(CtmcError::InvalidArgument {
                reason: format!("uniformisation factor must be finite and >= 1, got {factor}"),
            });
        }
        Ok(Some(max_exit * factor))
    }

    /// The step `x ↦ x·P` of distribution propagation.
    fn forward_step(&self, q: f64) -> Result<Step<'_>, CtmcError> {
        Ok(match &self.generator {
            Generator::Chain(chain) => Step::Forward(chain.uniformized_matrix(q)?),
            Generator::Operator { rates, exit_rates } => Step::OperatorForward {
                rates: *rates,
                exit_rates,
                q,
                scratch: vec![0.0; exit_rates.len()],
            },
        })
    }

    /// The step `x ↦ P·x` of value back-propagation, with the `absorbing`
    /// states' transitions removed.
    fn backward_step<'s>(&'s self, q: f64, absorbing: &'s [bool]) -> Result<Step<'s>, CtmcError> {
        Ok(match &self.generator {
            Generator::Chain(chain) => {
                Step::Backward(chain.make_absorbing(absorbing)?.uniformized_matrix(q)?)
            }
            Generator::Operator { rates, exit_rates } => Step::OperatorBackward {
                rates: *rates,
                exit_rates,
                absorbing,
                q,
                scratch: vec![0.0; exit_rates.len()],
            },
        })
    }

    /// The uniformisation loop every measure runs through: `start` is
    /// stepped `k = 0, 1, ...` up to the largest Fox–Glynn right bound, and
    /// each time point accumulates its own weight of every iterate.
    fn uniformise(
        &self,
        q: f64,
        mut step: Step<'_>,
        start: Vec<f64>,
        times: &[f64],
        accumulate: Accumulate,
    ) -> Result<Vec<Vec<f64>>, CtmcError> {
        let windows = poisson_windows(q, times, self.options.epsilon)?;
        let global_right = windows
            .iter()
            .flatten()
            .map(|fg| fg.right)
            .max()
            .unwrap_or(0);
        let n = start.len();
        let mut span = Recorder::current().span("transient");
        span.count("states", n as u64);
        span.count("steps", global_right as u64 + 1);
        span.count("points", times.len() as u64);

        let mut vk = start;
        let mut results: Vec<Vec<f64>> = times.iter().map(|_| vec![0.0; n]).collect();
        let mut next = vec![0.0; n];
        let mut cdfs = vec![0.0; times.len()];
        for k in 0..=global_right {
            for ((window, result), cdf) in
                windows.iter().zip(results.iter_mut()).zip(cdfs.iter_mut())
            {
                let Some(fg) = window else { continue };
                let w = match accumulate {
                    Accumulate::Poisson => fg.weight(k),
                    Accumulate::Sojourn => {
                        // Beyond a point's own fg.right the factor is
                        // negligible. Jumps below fg.left have zero weight,
                        // so their factor is exactly 1/q.
                        if k > fg.right {
                            continue;
                        }
                        *cdf += fg.weight(k);
                        (1.0 - *cdf).max(0.0) / q
                    }
                };
                if w > 0.0 {
                    for s in 0..n {
                        result[s] += w * vk[s];
                    }
                }
            }
            if k < global_right {
                step.apply(&vk, &mut next, &self.options.exec)?;
                std::mem::swap(&mut vk, &mut next);
            }
        }
        Ok(results)
    }
}

/// How a time point weighs the `k`-th iterate of the uniformisation loop.
#[derive(Debug, Clone, Copy)]
enum Accumulate {
    /// The Poisson probability of `k` jumps: distributions and bounded until.
    Poisson,
    /// `(1 - F(k)) / q` with `F` the Poisson CDF including `k`: expected
    /// sojourn times.
    Sojourn,
}

/// One step of the uniformised DTMC `P = I + Q/q` — the only part of the
/// uniformisation loop that depends on the input.
enum Step<'a> {
    /// `y = x·P` with a chain's precomputed CSR `P`.
    Forward(SparseMatrix),
    /// `y = P·x` with the CSR `P` of the chain whose absorbing states have
    /// lost their transitions.
    Backward(SparseMatrix),
    /// `y = x + (x·R − x∘E)/q`, matrix-free.
    OperatorForward {
        rates: &'a dyn LinearOperator,
        exit_rates: &'a [f64],
        q: f64,
        scratch: Vec<f64>,
    },
    /// `y = x + (R·x − E∘x)/q` with the absorbing states frozen,
    /// matrix-free.
    OperatorBackward {
        rates: &'a dyn LinearOperator,
        exit_rates: &'a [f64],
        absorbing: &'a [bool],
        q: f64,
        scratch: Vec<f64>,
    },
}

impl Step<'_> {
    fn apply(&mut self, x: &[f64], y: &mut [f64], exec: &ExecOptions) -> Result<(), CtmcError> {
        match self {
            Step::Forward(p) => p.left_multiply_exec(x, y, exec),
            Step::Backward(p) => p.right_multiply_exec(x, y, exec),
            Step::OperatorForward {
                rates,
                exit_rates,
                q,
                scratch,
            } => {
                rates.left_multiply_exec(x, scratch, exec)?;
                for s in 0..x.len() {
                    y[s] = x[s] + (scratch[s] - x[s] * exit_rates[s]) / *q;
                }
                Ok(())
            }
            Step::OperatorBackward {
                rates,
                exit_rates,
                absorbing,
                q,
                scratch,
            } => {
                rates.right_multiply_exec(x, scratch, exec)?;
                for s in 0..x.len() {
                    y[s] = if absorbing[s] {
                        x[s]
                    } else {
                        x[s] + (scratch[s] - exit_rates[s] * x[s]) / *q
                    };
                }
                Ok(())
            }
        }
    }
}

/// One Fox–Glynn window per requested time point; `None` marks `t == 0`
/// (no jumps, handled by the caller's indicator/initial shortcut).
fn poisson_windows(
    q: f64,
    times: &[f64],
    epsilon: f64,
) -> Result<Vec<Option<FoxGlynn>>, CtmcError> {
    times
        .iter()
        .map(|&t| {
            if t == 0.0 {
                Ok(None)
            } else {
                FoxGlynn::new(q * t, epsilon).map(Some)
            }
        })
        .collect()
}

fn validate_times(times: &[f64]) -> Result<(), CtmcError> {
    match times.iter().find(|t| **t < 0.0 || !t.is_finite()) {
        Some(t) => Err(CtmcError::InvalidArgument {
            reason: format!("time bound must be non-negative and finite, got {t}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::CtmcBuilder;

    /// Two-state repairable component: up (0) -> down (1) with rate `lambda`,
    /// down -> up with rate `mu`. The transient unavailability has the closed
    /// form `lambda/(lambda+mu) * (1 - exp(-(lambda+mu) t))` when starting up.
    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, lambda).unwrap();
        b.add_transition(1, 0, mu).unwrap();
        b.set_initial_state(0).unwrap();
        b.build().unwrap()
    }

    fn closed_form_unavailability(lambda: f64, mu: f64, t: f64) -> f64 {
        lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp())
    }

    #[test]
    fn transient_matches_closed_form_two_state() {
        let lambda = 0.002;
        let mu = 0.2;
        let chain = two_state(lambda, mu);
        let solver = TransientSolver::new(&chain);
        for &t in &[0.0, 0.5, 1.0, 5.0, 10.0, 50.0, 500.0] {
            let probs = solver.probabilities_at(t).unwrap();
            let expected = closed_form_unavailability(lambda, mu, t);
            assert!(
                (probs[1] - expected).abs() < 1e-9,
                "t={t}: got {}, expected {expected}",
                probs[1]
            );
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_from_alternative_initial_state() {
        let chain = two_state(1.0, 2.0).with_initial_state(1).unwrap();
        let solver = TransientSolver::new(&chain);
        let probs = solver.probabilities_at(0.0).unwrap();
        assert_eq!(probs, vec![0.0, 1.0]);
        // As t -> infinity the distribution approaches the steady state (2/3, 1/3).
        let probs = solver.probabilities_at(100.0).unwrap();
        assert!((probs[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_negative_or_nan_time() {
        let chain = two_state(1.0, 1.0);
        let solver = TransientSolver::new(&chain);
        assert!(solver.probabilities_at(-1.0).is_err());
        assert!(solver.probabilities_at(f64::NAN).is_err());
        assert!(solver.expected_sojourn_times(-2.0).is_err());
        assert!(solver
            .bounded_until(&[true, true], &[false, true], f64::INFINITY)
            .is_err());
    }

    #[test]
    fn absorbing_chain_probabilities() {
        // Pure death process 0 -> 1 -> 2 (absorbing).
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 1.0).unwrap();
        let chain = b.build().unwrap();
        let solver = TransientSolver::new(&chain);
        let probs = solver.probabilities_at(100.0).unwrap();
        assert!(probs[2] > 0.999999);
    }

    #[test]
    fn bounded_reachability_matches_exponential_cdf() {
        // Single transition 0 -> 1 at rate r: P(reach 1 by t) = 1 - exp(-r t).
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 0.5).unwrap();
        let chain = b.build().unwrap();
        let solver = TransientSolver::new(&chain);
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            let p = solver.bounded_reachability(&[1], t).unwrap();
            let expected = 1.0 - (-0.5 * t).exp();
            assert!((p - expected).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn bounded_until_respects_unsafe_states() {
        // 0 -> 1 -> 2 and 0 -> 3 -> 2; state 1 is forbidden, so the only way to
        // reach 2 is via 3.
        let mut b = CtmcBuilder::new(4);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 10.0).unwrap();
        b.add_transition(0, 3, 1.0).unwrap();
        b.add_transition(3, 2, 10.0).unwrap();
        let chain = b.build().unwrap();
        let solver = TransientSolver::new(&chain);

        let all_safe = vec![true; 4];
        let safe_no_1 = vec![true, false, true, true];
        let goal = vec![false, false, true, false];

        let p_all = solver.bounded_until(&all_safe, &goal, 50.0).unwrap();
        let p_restricted = solver.bounded_until(&safe_no_1, &goal, 50.0).unwrap();
        assert!(p_all > 0.999);
        // Only half of the initial flow may pass.
        assert!((p_restricted - 0.5).abs() < 1e-6, "got {p_restricted}");
    }

    #[test]
    fn bounded_until_at_time_zero_is_goal_indicator() {
        let chain = two_state(1.0, 1.0);
        let solver = TransientSolver::new(&chain);
        let per_state = solver
            .bounded_until_per_state(&[true, true], &[false, true], 0.0)
            .unwrap();
        assert_eq!(per_state, vec![0.0, 1.0]);
    }

    #[test]
    fn bounded_until_rejects_wrong_mask_lengths() {
        let chain = two_state(1.0, 1.0);
        let solver = TransientSolver::new(&chain);
        assert!(solver.bounded_until(&[true], &[false, true], 1.0).is_err());
        assert!(solver.bounded_until(&[true, true], &[false], 1.0).is_err());
        assert!(solver.bounded_reachability(&[5], 1.0).is_err());
    }

    #[test]
    fn sojourn_times_sum_to_t() {
        let chain = two_state(0.3, 0.7);
        let solver = TransientSolver::new(&chain);
        for &t in &[0.5, 2.0, 20.0] {
            let l = solver.expected_sojourn_times(t).unwrap();
            let total: f64 = l.iter().sum();
            assert!((total - t).abs() < 1e-8, "t={t}, total={total}");
        }
    }

    #[test]
    fn sojourn_times_match_integral_of_closed_form() {
        let lambda = 0.1;
        let mu = 1.0;
        let chain = two_state(lambda, mu);
        let solver = TransientSolver::new(&chain);
        let t = 5.0;
        let l = solver.expected_sojourn_times(t).unwrap();
        // integral_0^t P[down at u] du with P[down at u] = a(1 - e^{-bu}),
        // a = lambda/(lambda+mu), b = lambda+mu
        let a = lambda / (lambda + mu);
        let b = lambda + mu;
        let expected_down = a * (t - (1.0 - (-b * t).exp()) / b);
        assert!(
            (l[1] - expected_down).abs() < 1e-8,
            "got {}, expected {expected_down}",
            l[1]
        );
    }

    #[test]
    fn sojourn_times_on_transition_free_chain() {
        let mut b = CtmcBuilder::new(2);
        b.set_initial_distribution(vec![0.25, 0.75]).unwrap();
        let chain = b.build().unwrap();
        let solver = TransientSolver::new(&chain);
        let l = solver.expected_sojourn_times(8.0).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-12);
        assert!((l[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn all_absorbing_chain_is_handled_degenerately() {
        // A chain with no transitions at all: the uniformisation rate would be
        // zero; the probabilities must stay at the initial distribution for
        // every t, with no NaNs anywhere.
        let mut b = CtmcBuilder::new(3);
        b.set_initial_distribution(vec![0.5, 0.25, 0.25]).unwrap();
        let chain = b.build().unwrap();
        let solver = TransientSolver::new(&chain);
        for &t in &[0.0, 1.0, 1000.0] {
            let probs = solver.probabilities_at(t).unwrap();
            assert_eq!(probs, vec![0.5, 0.25, 0.25], "t={t}");
            assert!(probs.iter().all(|p| p.is_finite()));
        }
        // Bounded until: only the goal indicator matters.
        let p = solver
            .bounded_until(&[true, true, true], &[false, true, false], 10.0)
            .unwrap();
        assert!((p - 0.25).abs() < 1e-12);
        // Sojourn times accumulate linearly in the initial states.
        let l = solver.expected_sojourn_times(4.0).unwrap();
        assert_eq!(l, vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn bounded_until_with_all_goal_states_is_degenerate_after_absorption() {
        // Making every state absorbing (goal everywhere) used to drive the
        // uniformisation rate to zero; the answer is trivially 1 per state.
        let chain = two_state(1.0, 2.0);
        let solver = TransientSolver::new(&chain);
        let per_state = solver
            .bounded_until_per_state(&[true, true], &[true, true], 5.0)
            .unwrap();
        assert_eq!(per_state, vec![1.0, 1.0]);
    }

    #[test]
    fn invalid_uniformization_factor_is_rejected() {
        let chain = two_state(1.0, 2.0);
        for factor in [0.0, 0.5, f64::NAN, f64::INFINITY] {
            let solver = TransientSolver::with_options(
                &chain,
                TransientOptions {
                    uniformization_factor: factor,
                    ..Default::default()
                },
            );
            assert!(
                solver.probabilities_at(1.0).is_err(),
                "factor {factor} must be rejected"
            );
            assert!(solver
                .bounded_until(&[true, true], &[false, true], 1.0)
                .is_err());
        }
    }

    /// A 4-state chain with some structure (two components, coupled rates).
    fn four_state() -> Ctmc {
        let mut b = CtmcBuilder::new(4);
        b.add_transition(0, 1, 0.4).unwrap();
        b.add_transition(0, 2, 0.2).unwrap();
        b.add_transition(1, 0, 1.0).unwrap();
        b.add_transition(1, 3, 0.2).unwrap();
        b.add_transition(2, 0, 2.0).unwrap();
        b.add_transition(2, 3, 0.4).unwrap();
        b.add_transition(3, 1, 2.0).unwrap();
        b.add_transition(3, 2, 1.0).unwrap();
        b.set_initial_state(0).unwrap();
        b.build().unwrap()
    }

    /// The matrix-free input of a chain: its rate matrix as a bare operator.
    fn operator_of(chain: &Ctmc) -> TransientSolver<'_> {
        TransientSolver::from_operator(
            chain.rate_matrix(),
            chain.exit_rates().to_vec(),
            chain.initial_distribution().to_vec(),
            TransientOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn operator_solver_matches_the_materialized_path() {
        // Driving the uniformisation loop through the rate matrix as a bare
        // LinearOperator (plus exit rates) must reproduce the CSR step to
        // numerical tolerance on every measure.
        let chain = four_state();
        let reference = TransientSolver::new(&chain);
        let solver = operator_of(&chain);
        let times = [0.0, 0.3, 1.0, 4.0, 20.0];
        let close = |got: &[f64], want: &[f64]| {
            for (a, b) in got.iter().zip(want.iter()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        };

        let probs = solver.probabilities_at_many(&times).unwrap();
        let want = reference.probabilities_at_many(&times).unwrap();
        for (got, expected) in probs.iter().zip(want.iter()) {
            close(got, expected);
        }

        let sojourn = solver.expected_sojourn_times_many(&times).unwrap();
        let want = reference.expected_sojourn_times_many(&times).unwrap();
        for (got, expected) in sojourn.iter().zip(want.iter()) {
            close(got, expected);
        }

        let safe = [true, true, false, true];
        let goal = [false, false, false, true];
        let per_state = solver
            .bounded_until_per_state_many(&safe, &goal, &times)
            .unwrap();
        let want = reference
            .bounded_until_per_state_many(&safe, &goal, &times)
            .unwrap();
        for (got, expected) in per_state.iter().zip(want.iter()) {
            close(got, expected);
        }
        let scalars = solver.bounded_until_many(&safe, &goal, &times).unwrap();
        let want = reference.bounded_until_many(&safe, &goal, &times).unwrap();
        close(&scalars, &want);
    }

    #[test]
    fn operator_solver_validates_inputs_and_degenerate_cases() {
        let chain = four_state();
        let rates = chain.rate_matrix();
        let initial = chain.initial_distribution().to_vec();
        let options = TransientOptions::default();
        assert!(
            TransientSolver::from_operator(rates, vec![0.0; 3], initial.clone(), options).is_err()
        );
        assert!(TransientSolver::from_operator(
            rates,
            vec![-1.0, 0.0, 0.0, 0.0],
            initial.clone(),
            options
        )
        .is_err());
        assert!(TransientSolver::from_operator(
            rates,
            chain.exit_rates().to_vec(),
            vec![1.0],
            options
        )
        .is_err());

        let solver = operator_of(&chain);
        assert!(solver.probabilities_at_many(&[-1.0]).is_err());
        assert!(solver
            .bounded_until_per_state_many(&[true; 3], &[true; 4], &[1.0])
            .is_err());

        // All-goal query: every state absorbing, answer is the indicator.
        let per_state = solver
            .bounded_until_per_state_many(&[true; 4], &[true; 4], &[5.0])
            .unwrap();
        assert_eq!(per_state, vec![vec![1.0; 4]]);

        // A transition-free operator: distributions never move.
        let empty = crate::sparse::SparseMatrixBuilder::new(2, 2).build();
        let frozen =
            TransientSolver::from_operator(&empty, vec![0.0, 0.0], vec![0.25, 0.75], options)
                .unwrap();
        let probs = frozen.probabilities_at_many(&[0.0, 7.0]).unwrap();
        assert_eq!(probs[1], vec![0.25, 0.75]);
        let sojourn = frozen.expected_sojourn_times_many(&[4.0]).unwrap();
        assert_eq!(sojourn[0], vec![1.0, 3.0]);
    }

    #[test]
    fn many_time_points() {
        let chain = two_state(1.0, 1.0);
        let solver = TransientSolver::new(&chain);
        let results = solver.probabilities_at_many(&[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], vec![1.0, 0.0]);
    }

    #[test]
    fn batched_time_points_are_bit_identical_to_single_point_solves() {
        // The batched pass shares one Fox–Glynn window sequence across all
        // time points; every point must nevertheless reproduce its fresh
        // single-point computation exactly (same weights, same accumulation
        // order), including the unsorted grid and the t = 0 entry.
        let chain = two_state(0.3, 0.7);
        let solver = TransientSolver::new(&chain);
        let times = [2.5, 0.0, 0.4, 11.0, 1.7];

        let probs = solver.probabilities_at_many(&times).unwrap();
        let sojourn = solver.expected_sojourn_times_many(&times).unwrap();
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(probs[i], solver.probabilities_at(t).unwrap(), "t={t}");
            assert_eq!(
                sojourn[i],
                solver.expected_sojourn_times(t).unwrap(),
                "t={t}"
            );
        }

        let safe = [true, true];
        let goal = [false, true];
        let per_state = solver
            .bounded_until_per_state_many(&safe, &goal, &times)
            .unwrap();
        let scalars = solver.bounded_until_many(&safe, &goal, &times).unwrap();
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(
                per_state[i],
                solver.bounded_until_per_state(&safe, &goal, t).unwrap(),
                "t={t}"
            );
            assert_eq!(
                scalars[i],
                solver.bounded_until(&safe, &goal, t).unwrap(),
                "t={t}"
            );
        }

        // Empty batches are fine.
        assert!(solver.probabilities_at_many(&[]).unwrap().is_empty());
        assert!(solver
            .bounded_until_many(&safe, &goal, &[])
            .unwrap()
            .is_empty());
        // One bad point poisons the whole batch.
        assert!(solver.probabilities_at_many(&[1.0, -2.0]).is_err());
        assert!(solver
            .bounded_until_per_state_many(&safe, &goal, &[f64::NAN])
            .is_err());
    }
}
