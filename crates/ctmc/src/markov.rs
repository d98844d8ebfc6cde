//! Labelled continuous-time Markov chains.
//!
//! A [`Ctmc`] couples a sparse rate matrix with an initial probability
//! distribution and a set of named state labels (atomic propositions). Labels
//! are what the CSL layer and the Arcade measures operate on: a fault tree
//! evaluated over a composed state space becomes a label such as `"down"` or
//! `"service_ge_0.66"` attached to the relevant states.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::CtmcError;
use crate::sparse::{SparseMatrix, SparseMatrixBuilder};

/// Index of a state in a CTMC.
pub type StateIndex = usize;

/// A labelled continuous-time Markov chain.
///
/// The rate matrix stores only off-diagonal entries `R[s][s'] = rate of the
/// transition s -> s'`; exit rates and the generator diagonal are derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ctmc {
    rates: SparseMatrix,
    exit_rates: Vec<f64>,
    initial: Vec<f64>,
    labels: BTreeMap<String, Vec<bool>>,
}

impl Ctmc {
    /// Builds a chain from a rate matrix already in compressed sparse row
    /// form, with all initial mass on `initial_state` and the given labels.
    ///
    /// Row `s` holds the transitions `s -> cols[k]` at `rates[k]` for `k` in
    /// `row_offsets[s]..row_offsets[s + 1]`, so `row_offsets` has one entry
    /// more than the chain has states. This is the constructor for callers
    /// that emit rows in order and merge parallel transitions themselves:
    /// the arrays become the chain's matrix without a copy. Every entry is
    /// checked as [`CtmcBuilder::add_transition`] checks it, and the layout
    /// must be canonical: columns strictly increasing within each row.
    ///
    /// # Errors
    ///
    /// - [`CtmcError::EmptyChain`] if the offsets describe no rows;
    /// - [`CtmcError::InvalidArgument`] if the offsets do not run
    ///   non-decreasing from 0 to `cols.len()`, or a row's columns are not
    ///   strictly increasing;
    /// - [`CtmcError::DimensionMismatch`] if `rates` and `cols` differ in
    ///   length, or a label mask is not one entry per state;
    /// - [`CtmcError::StateOutOfBounds`] for a target or initial state
    ///   outside the chain;
    /// - [`CtmcError::SelfLoop`] for a transition from a state to itself;
    /// - [`CtmcError::InvalidRate`] for a rate that is not positive and finite.
    pub fn from_csr(
        row_offsets: Vec<usize>,
        cols: Vec<StateIndex>,
        rates: Vec<f64>,
        initial_state: StateIndex,
        labels: BTreeMap<String, Vec<bool>>,
    ) -> Result<Ctmc, CtmcError> {
        let num_states = row_offsets.len().saturating_sub(1);
        if num_states == 0 {
            return Err(CtmcError::EmptyChain);
        }
        if rates.len() != cols.len() {
            return Err(CtmcError::DimensionMismatch {
                expected: cols.len(),
                actual: rates.len(),
            });
        }
        if row_offsets[0] != 0
            || row_offsets[num_states] != cols.len()
            || row_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(CtmcError::InvalidArgument {
                reason: format!(
                    "row offsets must run non-decreasing from 0 to the {} stored entries",
                    cols.len()
                ),
            });
        }
        for from in 0..num_states {
            let range = row_offsets[from]..row_offsets[from + 1];
            let targets = &cols[range.clone()];
            if targets.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(CtmcError::InvalidArgument {
                    reason: format!("the columns of row {from} are not strictly increasing"),
                });
            }
            for (&to, &rate) in targets.iter().zip(&rates[range]) {
                if to >= num_states {
                    return Err(CtmcError::StateOutOfBounds {
                        state: to,
                        num_states,
                    });
                }
                if to == from {
                    return Err(CtmcError::SelfLoop { state: from });
                }
                if rate <= 0.0 || !rate.is_finite() {
                    return Err(CtmcError::InvalidRate { from, to, rate });
                }
            }
        }
        if initial_state >= num_states {
            return Err(CtmcError::StateOutOfBounds {
                state: initial_state,
                num_states,
            });
        }
        if let Some(mask) = labels.values().find(|mask| mask.len() != num_states) {
            return Err(CtmcError::DimensionMismatch {
                expected: num_states,
                actual: mask.len(),
            });
        }
        let rates = SparseMatrix::from_checked_csr(num_states, row_offsets, cols, rates);
        let exit_rates = rates.row_sums();
        let mut initial = vec![0.0; num_states];
        initial[initial_state] = 1.0;
        Ok(Ctmc {
            rates,
            exit_rates,
            initial,
            labels,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rates.num_rows()
    }

    /// Number of transitions (stored non-zero rates).
    pub fn num_transitions(&self) -> usize {
        self.rates.num_entries()
    }

    /// The off-diagonal rate matrix `R` with `R[s][s']` the rate from `s` to `s'`.
    pub fn rate_matrix(&self) -> &SparseMatrix {
        &self.rates
    }

    /// The exit rate `E(s) = sum_{s'} R[s][s']` of each state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit_rates
    }

    /// The maximal exit rate over all states; zero for a chain with no transitions.
    pub fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().copied().fold(0.0, f64::max)
    }

    /// The initial probability distribution over states.
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial
    }

    /// Returns the set of label names attached to this chain.
    pub fn label_names(&self) -> impl Iterator<Item = &str> {
        self.labels.keys().map(String::as_str)
    }

    /// Returns the characteristic vector of a label, if present.
    pub fn label(&self, name: &str) -> Option<&[bool]> {
        self.labels.get(name).map(Vec::as_slice)
    }

    /// Returns the states satisfying a label, if present.
    pub fn states_with_label(&self, name: &str) -> Option<Vec<StateIndex>> {
        self.labels.get(name).map(|mask| {
            mask.iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i))
                .collect()
        })
    }

    /// Returns `true` when `state` carries label `name`.
    pub fn state_has_label(&self, state: StateIndex, name: &str) -> bool {
        self.labels
            .get(name)
            .map(|mask| mask.get(state).copied().unwrap_or(false))
            .unwrap_or(false)
    }

    /// Attaches (or replaces) a label given its characteristic vector.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the vector length differs from
    /// the number of states.
    pub fn set_label(&mut self, name: impl Into<String>, mask: Vec<bool>) -> Result<(), CtmcError> {
        if mask.len() != self.num_states() {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_states(),
                actual: mask.len(),
            });
        }
        self.labels.insert(name.into(), mask);
        Ok(())
    }

    /// Replaces the initial distribution in place, taking the vector by
    /// value, so a chain that is being assembled or owned gets its start
    /// without a copy of its matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidInitialDistribution`] if the distribution has
    /// negative entries or does not sum to one (within `1e-9`), or a dimension
    /// mismatch error if the length is wrong.
    pub fn set_initial_distribution(&mut self, initial: Vec<f64>) -> Result<(), CtmcError> {
        validate_distribution(&initial, self.num_states())?;
        self.initial = initial;
        Ok(())
    }

    /// Returns a copy of this chain with a different initial distribution.
    ///
    /// This is the "given occurrence of disaster" (GOOD) construction used by the
    /// survivability measures: analysis is restarted from the disaster state.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::set_initial_distribution`].
    pub fn with_initial_distribution(&self, initial: Vec<f64>) -> Result<Ctmc, CtmcError> {
        let mut out = self.clone();
        out.set_initial_distribution(initial)?;
        Ok(out)
    }

    /// Returns a copy of this chain with all probability mass on `state`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateOutOfBounds`] if `state` is not a valid index.
    pub fn with_initial_state(&self, state: StateIndex) -> Result<Ctmc, CtmcError> {
        if state >= self.num_states() {
            return Err(CtmcError::StateOutOfBounds {
                state,
                num_states: self.num_states(),
            });
        }
        let mut initial = vec![0.0; self.num_states()];
        initial[state] = 1.0;
        self.with_initial_distribution(initial)
    }

    /// Returns a copy of this chain in which every state in `absorbing` has had
    /// all outgoing transitions removed.
    ///
    /// Making states absorbing is the standard transformation behind
    /// time-bounded reachability: the probability of having reached a goal set by
    /// time `t` equals the transient probability of sitting in the (absorbing)
    /// goal set at time `t`.
    pub fn make_absorbing(&self, absorbing: &[bool]) -> Result<Ctmc, CtmcError> {
        if absorbing.len() != self.num_states() {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_states(),
                actual: absorbing.len(),
            });
        }
        let n = self.num_states();
        let mut builder = SparseMatrixBuilder::new(n, n);
        for (s, &is_absorbing) in absorbing.iter().enumerate() {
            if is_absorbing {
                continue;
            }
            let (cols, values) = self.rates.row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                builder.push(s, *c, *v);
            }
        }
        let rates = builder.build();
        let exit_rates = rates.row_sums();
        Ok(Ctmc {
            rates,
            exit_rates,
            initial: self.initial.clone(),
            labels: self.labels.clone(),
        })
    }

    /// Builds the uniformised discrete-time transition probability matrix
    /// `P = I + Q / q` for a uniformisation rate `q >= max_exit_rate()`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidArgument`] if `q` is not strictly positive or
    /// is smaller than the maximal exit rate.
    pub fn uniformized_matrix(&self, q: f64) -> Result<SparseMatrix, CtmcError> {
        if q <= 0.0 || q.is_nan() {
            return Err(CtmcError::InvalidArgument {
                reason: format!("uniformisation rate must be positive, got {q}"),
            });
        }
        if q + 1e-12 < self.max_exit_rate() {
            return Err(CtmcError::InvalidArgument {
                reason: format!(
                    "uniformisation rate {q} is smaller than the maximal exit rate {}",
                    self.max_exit_rate()
                ),
            });
        }
        let n = self.num_states();
        let mut builder = SparseMatrixBuilder::new(n, n);
        for s in 0..n {
            let (cols, values) = self.rates.row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                builder.push(s, *c, *v / q);
            }
            let stay = 1.0 - self.exit_rates[s] / q;
            if stay != 0.0 {
                builder.push(s, s, stay);
            }
        }
        Ok(builder.build())
    }

    /// Builds the embedded jump-chain probability matrix: `P[s][s'] = R[s][s'] / E(s)`
    /// for non-absorbing `s`, and `P[s][s] = 1` for absorbing states.
    pub fn embedded_matrix(&self) -> SparseMatrix {
        let n = self.num_states();
        let mut builder = SparseMatrixBuilder::new(n, n);
        for s in 0..n {
            if self.exit_rates[s] <= 0.0 {
                builder.push(s, s, 1.0);
                continue;
            }
            let (cols, values) = self.rates.row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                builder.push(s, *c, *v / self.exit_rates[s]);
            }
        }
        builder.build()
    }

    /// The infinitesimal generator `Q = R - diag(E)` as a sparse matrix.
    pub fn generator_matrix(&self) -> SparseMatrix {
        let n = self.num_states();
        let mut builder = SparseMatrixBuilder::new(n, n);
        for s in 0..n {
            let (cols, values) = self.rates.row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                builder.push(s, *c, *v);
            }
            if self.exit_rates[s] != 0.0 {
                builder.push(s, s, -self.exit_rates[s]);
            }
        }
        builder.build()
    }
}

fn validate_distribution(dist: &[f64], num_states: usize) -> Result<(), CtmcError> {
    if dist.len() != num_states {
        return Err(CtmcError::DimensionMismatch {
            expected: num_states,
            actual: dist.len(),
        });
    }
    if dist.iter().any(|&p| p < 0.0 || p.is_nan()) {
        return Err(CtmcError::InvalidInitialDistribution {
            reason: "negative or NaN probability".to_string(),
        });
    }
    let total: f64 = dist.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(CtmcError::InvalidInitialDistribution {
            reason: format!("probabilities sum to {total}, expected 1"),
        });
    }
    Ok(())
}

/// Builder for [`Ctmc`].
///
/// # Example
///
/// ```
/// # use ctmc::CtmcBuilder;
/// # fn main() -> Result<(), ctmc::CtmcError> {
/// let mut b = CtmcBuilder::new(3);
/// b.add_transition(0, 1, 2.0)?;
/// b.add_transition(1, 2, 1.0)?;
/// b.add_transition(2, 0, 0.5)?;
/// b.set_initial_state(0)?;
/// b.add_label("goal", &[2])?;
/// let chain = b.build()?;
/// assert_eq!(chain.num_states(), 3);
/// assert!(chain.state_has_label(2, "goal"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CtmcBuilder {
    num_states: usize,
    transitions: Vec<(StateIndex, StateIndex, f64)>,
    initial: Vec<f64>,
    labels: BTreeMap<String, Vec<bool>>,
}

impl CtmcBuilder {
    /// Creates a builder for a chain with `num_states` states. The initial
    /// distribution defaults to all mass on state 0.
    pub fn new(num_states: usize) -> Self {
        let mut initial = vec![0.0; num_states];
        if num_states > 0 {
            initial[0] = 1.0;
        }
        CtmcBuilder {
            num_states,
            transitions: Vec::new(),
            initial,
            labels: BTreeMap::new(),
        }
    }

    /// Number of states the chain will have.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Adds a transition `from -> to` with the given rate. Rates of repeated
    /// calls for the same pair accumulate.
    ///
    /// # Errors
    ///
    /// Returns an error if either state is out of bounds, the rate is not a
    /// strictly positive finite number, or `from == to` (CTMCs have no
    /// self-loops).
    pub fn add_transition(
        &mut self,
        from: StateIndex,
        to: StateIndex,
        rate: f64,
    ) -> Result<&mut Self, CtmcError> {
        if from >= self.num_states {
            return Err(CtmcError::StateOutOfBounds {
                state: from,
                num_states: self.num_states,
            });
        }
        if to >= self.num_states {
            return Err(CtmcError::StateOutOfBounds {
                state: to,
                num_states: self.num_states,
            });
        }
        if from == to {
            return Err(CtmcError::SelfLoop { state: from });
        }
        if rate <= 0.0 || !rate.is_finite() {
            return Err(CtmcError::InvalidRate { from, to, rate });
        }
        self.transitions.push((from, to, rate));
        Ok(self)
    }

    /// Sets the initial distribution to all mass on `state`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateOutOfBounds`] if `state` is invalid.
    pub fn set_initial_state(&mut self, state: StateIndex) -> Result<&mut Self, CtmcError> {
        if state >= self.num_states {
            return Err(CtmcError::StateOutOfBounds {
                state,
                num_states: self.num_states,
            });
        }
        self.initial.iter_mut().for_each(|p| *p = 0.0);
        self.initial[state] = 1.0;
        Ok(self)
    }

    /// Sets the full initial distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if the distribution has the wrong length, negative
    /// entries, or does not sum to one.
    pub fn set_initial_distribution(&mut self, dist: Vec<f64>) -> Result<&mut Self, CtmcError> {
        validate_distribution(&dist, self.num_states)?;
        self.initial = dist;
        Ok(self)
    }

    /// Attaches a label to the given states (all other states do not carry it).
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateOutOfBounds`] if any state index is invalid.
    pub fn add_label(
        &mut self,
        name: impl Into<String>,
        states: &[StateIndex],
    ) -> Result<&mut Self, CtmcError> {
        let mut mask = vec![false; self.num_states];
        for &s in states {
            if s >= self.num_states {
                return Err(CtmcError::StateOutOfBounds {
                    state: s,
                    num_states: self.num_states,
                });
            }
            mask[s] = true;
        }
        self.labels.insert(name.into(), mask);
        Ok(self)
    }

    /// Attaches a label from a characteristic vector.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the mask has the wrong length.
    pub fn add_label_mask(
        &mut self,
        name: impl Into<String>,
        mask: Vec<bool>,
    ) -> Result<&mut Self, CtmcError> {
        if mask.len() != self.num_states {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_states,
                actual: mask.len(),
            });
        }
        self.labels.insert(name.into(), mask);
        Ok(self)
    }

    /// Finalises the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::EmptyChain`] if the chain has no states.
    pub fn build(self) -> Result<Ctmc, CtmcError> {
        if self.num_states == 0 {
            return Err(CtmcError::EmptyChain);
        }
        let mut builder = SparseMatrixBuilder::new(self.num_states, self.num_states);
        for (from, to, rate) in &self.transitions {
            builder.push(*from, *to, *rate);
        }
        let rates = builder.build();
        let exit_rates = rates.row_sums();
        Ok(Ctmc {
            rates,
            exit_rates,
            initial: self.initial,
            labels: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_state_cycle() -> Ctmc {
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 2.0).unwrap();
        b.add_transition(1, 2, 3.0).unwrap();
        b.add_transition(2, 0, 4.0).unwrap();
        b.add_label("start", &[0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = CtmcBuilder::new(2);
        assert!(matches!(
            b.add_transition(0, 5, 1.0),
            Err(CtmcError::StateOutOfBounds { .. })
        ));
        assert!(matches!(
            b.add_transition(5, 0, 1.0),
            Err(CtmcError::StateOutOfBounds { .. })
        ));
        assert!(matches!(
            b.add_transition(0, 0, 1.0),
            Err(CtmcError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_transition(0, 1, 0.0),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.add_transition(0, 1, -1.0),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.add_transition(0, 1, f64::NAN),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.add_transition(0, 1, f64::INFINITY),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.set_initial_state(9),
            Err(CtmcError::StateOutOfBounds { .. })
        ));
        assert!(matches!(
            b.set_initial_distribution(vec![0.5, 0.2]),
            Err(CtmcError::InvalidInitialDistribution { .. })
        ));
        assert!(matches!(
            b.set_initial_distribution(vec![0.5]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.add_label("x", &[7]),
            Err(CtmcError::StateOutOfBounds { .. })
        ));
    }

    /// The CSR arrays of [`three_state_cycle`].
    fn cycle_csr() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (vec![0, 1, 2, 3], vec![1, 2, 0], vec![2.0, 3.0, 4.0])
    }

    #[test]
    fn from_csr_matches_the_builder() {
        let (offsets, cols, rates) = cycle_csr();
        let labels = BTreeMap::from([("start".to_string(), vec![true, false, false])]);
        let chain = Ctmc::from_csr(offsets, cols, rates, 0, labels).unwrap();
        assert_eq!(chain, three_state_cycle());

        // Empty rows are allowed; the initial state may be any state.
        let chain = Ctmc::from_csr(vec![0, 1, 1], vec![1], vec![0.5], 1, BTreeMap::new()).unwrap();
        assert_eq!(chain.exit_rates(), &[0.5, 0.0]);
        assert_eq!(chain.initial_distribution(), &[0.0, 1.0]);
    }

    #[test]
    fn from_csr_rejects_bad_input() {
        let build = |offsets: Vec<usize>, cols: Vec<usize>, rates: Vec<f64>| {
            Ctmc::from_csr(offsets, cols, rates, 0, BTreeMap::new())
        };
        let invalid = |result: Result<Ctmc, CtmcError>| {
            matches!(result, Err(CtmcError::InvalidArgument { .. }))
        };
        assert!(matches!(
            build(vec![0], vec![], vec![]),
            Err(CtmcError::EmptyChain)
        ));
        assert!(matches!(
            build(vec![], vec![], vec![]),
            Err(CtmcError::EmptyChain)
        ));
        // Entries the builder rejects one by one.
        assert!(matches!(
            build(vec![0, 1, 1], vec![5], vec![1.0]),
            Err(CtmcError::StateOutOfBounds { state: 5, .. })
        ));
        assert!(matches!(
            build(vec![0, 0, 1], vec![1], vec![1.0]),
            Err(CtmcError::SelfLoop { state: 1 })
        ));
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                build(vec![0, 1, 1], vec![1], vec![rate]),
                Err(CtmcError::InvalidRate { from: 0, to: 1, .. })
            ));
        }
        // Unsorted and repeated columns.
        assert!(invalid(build(vec![0, 2, 2, 2], vec![2, 1], vec![1.0, 1.0])));
        assert!(invalid(build(vec![0, 2, 2, 2], vec![1, 1], vec![1.0, 1.0])));
        // Offsets that do not start at 0, decrease or miss the entry count.
        assert!(invalid(build(vec![1, 1, 1], vec![1], vec![1.0])));
        assert!(invalid(build(vec![0, 2, 1], vec![1], vec![1.0])));
        assert!(invalid(build(vec![0, 1, 2], vec![1], vec![1.0])));
        assert!(invalid(build(vec![0, 0, 0], vec![1], vec![1.0])));
        assert!(matches!(
            build(vec![0, 1, 1], vec![1], vec![1.0, 2.0]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
        // Initial state and label masks.
        let (offsets, cols, rates) = cycle_csr();
        assert!(matches!(
            Ctmc::from_csr(
                offsets.clone(),
                cols.clone(),
                rates.clone(),
                3,
                BTreeMap::new()
            ),
            Err(CtmcError::StateOutOfBounds { state: 3, .. })
        ));
        let short = BTreeMap::from([("x".to_string(), vec![true])]);
        assert!(matches!(
            Ctmc::from_csr(offsets, cols, rates, 0, short),
            Err(CtmcError::DimensionMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn empty_chain_is_rejected() {
        assert!(matches!(
            CtmcBuilder::new(0).build(),
            Err(CtmcError::EmptyChain)
        ));
    }

    #[test]
    fn exit_rates_and_max() {
        let chain = three_state_cycle();
        assert_eq!(chain.exit_rates(), &[2.0, 3.0, 4.0]);
        assert_eq!(chain.max_exit_rate(), 4.0);
        assert_eq!(chain.num_transitions(), 3);
    }

    #[test]
    fn parallel_transitions_accumulate() {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(0, 1, 2.5).unwrap();
        let chain = b.build().unwrap();
        assert_eq!(chain.rate_matrix().get(0, 1), 3.5);
        assert_eq!(chain.num_transitions(), 1);
    }

    #[test]
    fn labels_are_queryable() {
        let chain = three_state_cycle();
        assert!(chain.state_has_label(0, "start"));
        assert!(!chain.state_has_label(1, "start"));
        assert!(!chain.state_has_label(0, "nonexistent"));
        assert_eq!(chain.states_with_label("start"), Some(vec![0]));
        assert_eq!(chain.label_names().collect::<Vec<_>>(), vec!["start"]);
    }

    #[test]
    fn set_label_after_build() {
        let mut chain = three_state_cycle();
        chain.set_label("goal", vec![false, false, true]).unwrap();
        assert!(chain.state_has_label(2, "goal"));
        assert!(matches!(
            chain.set_label("bad", vec![true]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn make_absorbing_removes_outgoing_transitions() {
        let chain = three_state_cycle();
        let absorbing = chain.make_absorbing(&[false, true, false]).unwrap();
        assert_eq!(absorbing.exit_rates()[1], 0.0);
        assert_eq!(absorbing.exit_rates()[0], 2.0);
        assert_eq!(absorbing.num_transitions(), 2);
    }

    #[test]
    fn uniformized_matrix_rows_sum_to_one() {
        let chain = three_state_cycle();
        let q = chain.max_exit_rate() * 1.02;
        let p = chain.uniformized_matrix(q).unwrap();
        for sum in p.row_sums() {
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(chain.uniformized_matrix(0.0).is_err());
        assert!(chain.uniformized_matrix(1.0).is_err());
    }

    #[test]
    fn embedded_matrix_is_stochastic() {
        let chain = three_state_cycle();
        let p = chain.embedded_matrix();
        for sum in p.row_sums() {
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn embedded_matrix_self_loops_absorbing_states() {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 1.0).unwrap();
        let chain = b.build().unwrap();
        let p = chain.embedded_matrix();
        assert_eq!(p.get(1, 1), 1.0);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let chain = three_state_cycle();
        let q = chain.generator_matrix();
        for sum in q.row_sums() {
            assert!(sum.abs() < 1e-12);
        }
    }

    #[test]
    fn initial_distribution_transformations() {
        let chain = three_state_cycle();
        let good = chain.with_initial_state(2).unwrap();
        assert_eq!(good.initial_distribution(), &[0.0, 0.0, 1.0]);
        assert!(chain.with_initial_state(10).is_err());
        let uniform = chain.with_initial_distribution(vec![1.0 / 3.0; 3]).unwrap();
        assert!((uniform.initial_distribution().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(chain
            .with_initial_distribution(vec![0.7, 0.7, -0.4])
            .is_err());
    }
}
