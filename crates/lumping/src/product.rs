//! The product of quotients: lumped CTMCs as composable components.
//!
//! The paper's facility is two *independent* process lines; its joint chain
//! is the Kronecker sum of the per-line generators. Because each line is
//! already lumped to its coarsest quotient, the joint chain of the facility
//! is the product of the per-line *quotients* — Line 1 × Line 2 under FRF-1
//! is 449 × 257 ≈ 115k blocks instead of 111,809 × 8129 ≈ 9×10⁸ flat states.
//! This module makes that product a first-class object:
//!
//! * joint states are **tuples of block ids** (mixed-radix encoded, factor 0
//!   most significant), carried from one index to the next as an odometer,
//!   so no pass over the joint states divides per state;
//! * the joint generator is the **Kronecker sum** `Q = ⊕ᵢ Qᵢ`: exactly one
//!   factor moves per transition, at its local rate;
//! * the joint initial distribution, labels and reward vectors are
//!   **cylinder extensions** of the per-factor data (products of masks,
//!   sums of additive rewards);
//! * the chain is available **materialised** ([`QuotientProduct::materialize`]
//!   writes the joint rows in index order straight into compressed sparse
//!   rows: each row comes out sorted, so nothing is sorted, merged or copied)
//!   or **matrix-free** ([`QuotientProduct::operator`], a [`KroneckerSum`]
//!   implementing [`LinearOperator`] so the exec SpMV kernels can run without
//!   ever storing the joint matrix).
//!
//! This is the Plateau/Buchholz structured-composition idea (stochastic
//! automata networks, structured lumping) specialised to factors that are
//! themselves quotients produced by this crate.

use std::collections::BTreeMap;
use std::ops::Range;

use arcade_symmetry::chain::group_identical_chains;
use arcade_symmetry::orbit::FactorClasses;
use ctmc::exec::{self, ExecOptions};
use ctmc::ops::LinearOperator;
use ctmc::{Ctmc, CtmcError, RewardStructure, SparseMatrix, SteadyStateSolver};

use crate::error::LumpError;
use crate::quotient::LumpedCtmc;

/// The product of `N` quotient chains: tuple states, Kronecker-sum generator.
///
/// Factors are identified by unique names; the joint index of a block tuple
/// `(t₀, …, t_{N−1})` is the mixed-radix number with factor 0 most
/// significant, so iterating joint indices enumerates tuples in
/// lexicographic order.
#[derive(Debug, Clone)]
pub struct QuotientProduct {
    names: Vec<String>,
    factors: Vec<Ctmc>,
    /// Transposed factor rate matrices (incoming transitions), precomputed
    /// for the matrix-free left-multiply kernel.
    transposed: Vec<SparseMatrix>,
    /// `sizes[i]` = number of states of factor `i` (the radix of digit `i`).
    sizes: Vec<usize>,
    /// `strides[i]` = product of the factor sizes right of `i`.
    strides: Vec<usize>,
    num_states: usize,
}

/// Whether `count` values of `T` fit in one allocation.
fn allocatable<T>(count: usize) -> bool {
    count
        .checked_mul(std::mem::size_of::<T>())
        .is_some_and(|bytes| bytes <= isize::MAX as usize)
}

impl QuotientProduct {
    /// Builds the product of named lumped quotients (the factor order is the
    /// tuple order).
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::InvalidProduct`] for an empty factor list,
    /// duplicate or empty names, or a joint state count that overflows.
    pub fn new(factors: Vec<(String, &LumpedCtmc)>) -> Result<Self, LumpError> {
        Self::from_chains(
            factors
                .into_iter()
                .map(|(name, lumped)| (name, lumped.quotient().clone()))
                .collect(),
        )
    }

    /// Builds the product from already-extracted factor chains. The factors
    /// are typically quotients, but any labelled CTMC composes; per-factor
    /// chains are small (that is the point of lumping first), so they are
    /// stored by value.
    ///
    /// # Errors
    ///
    /// See [`QuotientProduct::new`].
    pub fn from_chains(factors: Vec<(String, Ctmc)>) -> Result<Self, LumpError> {
        if factors.is_empty() {
            return Err(LumpError::InvalidProduct {
                reason: "a product needs at least one factor".to_string(),
            });
        }
        let mut names = Vec::with_capacity(factors.len());
        let mut chains = Vec::with_capacity(factors.len());
        for (name, chain) in factors {
            if name.is_empty() {
                return Err(LumpError::InvalidProduct {
                    reason: "factor names must be non-empty".to_string(),
                });
            }
            if names.contains(&name) {
                return Err(LumpError::InvalidProduct {
                    reason: format!("duplicate factor name `{name}`"),
                });
            }
            if chain.num_states() == 0 {
                return Err(LumpError::InvalidProduct {
                    reason: format!("factor `{name}` has no states"),
                });
            }
            names.push(name);
            chains.push(chain);
        }
        let sizes: Vec<usize> = chains.iter().map(Ctmc::num_states).collect();
        let num_states = sizes
            .iter()
            .try_fold(1usize, |total, &size| total.checked_mul(size))
            .ok_or_else(|| LumpError::InvalidProduct {
                reason: "joint state count overflows usize".to_string(),
            })?;
        let mut strides = vec![1usize; chains.len()];
        for i in (0..chains.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * sizes[i + 1];
        }
        let transposed = chains
            .iter()
            .map(|chain| chain.rate_matrix().transpose())
            .collect();
        Ok(QuotientProduct {
            names,
            factors: chains,
            transposed,
            sizes,
            strides,
            num_states,
        })
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// The factor names, in tuple order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A factor's quotient chain.
    pub fn factor(&self, index: usize) -> &Ctmc {
        &self.factors[index]
    }

    /// Number of joint states: the product of the factor sizes.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of joint transitions of the Kronecker sum:
    /// `Σᵢ Tᵢ · Πⱼ≠ᵢ nⱼ` (each factor transition occurs once per context of
    /// the other factors), saturating at `usize::MAX`.
    pub fn num_transitions(&self) -> usize {
        self.checked_transitions().unwrap_or(usize::MAX)
    }

    /// [`QuotientProduct::num_transitions`], or `None` when it overflows.
    fn checked_transitions(&self) -> Option<usize> {
        self.factors.iter().try_fold(0usize, |total, chain| {
            chain
                .num_transitions()
                .checked_mul(self.num_states / chain.num_states())?
                .checked_add(total)
        })
    }

    /// Calls `visit(state, tuple)` for every joint state of `range`, in
    /// index order, with `tuple` its block tuple. The tuple is carried from
    /// one index to the next as an odometer (the last digit counts up and
    /// carries into the ones before it), so the walk divides only at its
    /// start.
    fn for_each_tuple(&self, range: Range<usize>, mut visit: impl FnMut(usize, &[usize])) {
        let mut tuple = self.tuple_of(range.start);
        for state in range {
            visit(state, &tuple);
            for (digit, &size) in tuple.iter_mut().zip(&self.sizes).rev() {
                *digit += 1;
                if *digit < size {
                    break;
                }
                *digit = 0;
            }
        }
    }

    /// Calls `visit(digit, range)` for the runs of consecutive joint indices
    /// that share factor `factor`'s digit, in index order: the odometer of
    /// [`QuotientProduct::for_each_tuple`] read at one digit, which changes
    /// every `strides[factor]` states.
    fn for_each_run(&self, factor: usize, mut visit: impl FnMut(usize, Range<usize>)) {
        let stride = self.strides[factor];
        let mut start = 0;
        while start < self.num_states {
            for digit in 0..self.sizes[factor] {
                visit(digit, start..start + stride);
                start += stride;
            }
        }
    }

    /// The joint index of a block tuple; `None` if the tuple has the wrong
    /// arity or an out-of-range block.
    pub fn index_of(&self, tuple: &[usize]) -> Option<usize> {
        if tuple.len() != self.factors.len() {
            return None;
        }
        let mut index = 0usize;
        for ((&block, &size), &stride) in tuple.iter().zip(&self.sizes).zip(&self.strides) {
            if block >= size {
                return None;
            }
            index += block * stride;
        }
        Some(index)
    }

    /// The block tuple of a joint index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_states()`.
    pub fn tuple_of(&self, index: usize) -> Vec<usize> {
        assert!(index < self.num_states, "joint index out of range");
        self.strides
            .iter()
            .zip(&self.sizes)
            .map(|(&stride, &size)| (index / stride) % size)
            .collect()
    }

    /// Checks a factor index and the length of a per-factor-state vector.
    fn check_factor(&self, factor: usize, len: usize) -> Result<(), LumpError> {
        let size = *self
            .sizes
            .get(factor)
            .ok_or_else(|| LumpError::InvalidProduct {
                reason: format!("unknown factor index {factor}"),
            })?;
        if len != size {
            return Err(LumpError::DimensionMismatch {
                expected: size,
                actual: len,
            });
        }
        Ok(())
    }

    /// Cylinder extension of a per-factor-state mask to the joint states:
    /// `joint[s] = mask[tupleᵢ(s)]`.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::DimensionMismatch`] on a length mismatch and
    /// [`LumpError::InvalidProduct`] for an unknown factor index.
    pub fn expand_mask(&self, factor: usize, mask: &[bool]) -> Result<Vec<bool>, LumpError> {
        self.expand(factor, mask)
    }

    /// Cylinder extension of per-factor-state values to the joint states:
    /// `joint[s] = values[tupleᵢ(s)]`.
    ///
    /// # Errors
    ///
    /// See [`QuotientProduct::expand_mask`].
    pub fn expand_values(&self, factor: usize, values: &[f64]) -> Result<Vec<f64>, LumpError> {
        self.expand(factor, values)
    }

    fn expand<T: Copy>(&self, factor: usize, values: &[T]) -> Result<Vec<T>, LumpError> {
        self.check_factor(factor, values.len())?;
        let mut out = Vec::with_capacity(self.num_states);
        self.for_each_run(factor, |digit, run| {
            out.resize(run.end, values[digit]);
        });
        Ok(out)
    }

    /// The outer product of per-factor distributions (or of any per-factor
    /// vectors): `joint[s] = Πᵢ perᵢ[tupleᵢ(s)]`, multiplied from 1.0 in
    /// factor order. With the factor stationary distributions as input this
    /// is the joint stationary distribution of the Kronecker sum — the
    /// product form independence buys.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::InvalidProduct`] for a wrong number of vectors
    /// and [`LumpError::DimensionMismatch`] on a length mismatch.
    pub fn product_distribution(&self, per_factor: &[Vec<f64>]) -> Result<Vec<f64>, LumpError> {
        if per_factor.len() != self.factors.len() {
            return Err(LumpError::InvalidProduct {
                reason: format!(
                    "expected {} per-factor vectors, got {}",
                    self.factors.len(),
                    per_factor.len()
                ),
            });
        }
        for (factor, vector) in per_factor.iter().enumerate() {
            self.check_factor(factor, vector.len())?;
        }
        Ok(self.fold_factors(1.0, per_factor.iter().map(Vec::as_slice), |p, v| p * v))
    }

    /// `joint[s] = op(…op(op(init, v₀[t₀(s)]), v₁[t₁(s)])…)` for the
    /// per-factor vectors `vᵢ`, applied in factor order.
    fn fold_factors<'v>(
        &self,
        init: f64,
        vectors: impl Iterator<Item = &'v [f64]>,
        op: impl Fn(f64, f64) -> f64,
    ) -> Vec<f64> {
        let mut out = vec![init; self.num_states];
        for (factor, vector) in vectors.enumerate() {
            self.for_each_run(factor, |digit, run| {
                for slot in &mut out[run] {
                    *slot = op(*slot, vector[digit]);
                }
            });
        }
        out
    }

    /// The marginal of a joint distribution on one factor:
    /// `marginalᵢ[b] = Σ_{s: tupleᵢ(s)=b} joint[s]`, accumulated in joint
    /// index order.
    ///
    /// # Errors
    ///
    /// See [`QuotientProduct::expand_mask`].
    pub fn marginal(&self, factor: usize, joint: &[f64]) -> Result<Vec<f64>, LumpError> {
        let size = *self
            .sizes
            .get(factor)
            .ok_or_else(|| LumpError::InvalidProduct {
                reason: format!("unknown factor index {factor}"),
            })?;
        if joint.len() != self.num_states {
            return Err(LumpError::DimensionMismatch {
                expected: self.num_states,
                actual: joint.len(),
            });
        }
        let mut out = vec![0.0; size];
        self.for_each_run(factor, |digit, run| {
            for &p in &joint[run] {
                out[digit] += p;
            }
        });
        Ok(out)
    }

    /// Sums per-factor reward rates into the joint reward structure
    /// `joint[s] = Σᵢ rewardsᵢ[tupleᵢ(s)]` — additive rewards (costs) of
    /// independent subsystems add. Factors without a reward contribute zero.
    ///
    /// The per-state contributions are sorted by value before summation, so
    /// joint states whose contributions form the same *multiset* get
    /// bit-identical sums — in particular, tuples related by a permutation
    /// of interchangeable factors, which keeps summed rewards exactly
    /// constant on [`ProductOrbit`] orbits for any factor count (floating
    /// point addition does not commute across more than two summands
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Propagates length mismatches; see [`QuotientProduct::expand_mask`].
    pub fn sum_rewards(
        &self,
        name: &str,
        per_factor: &[Option<&RewardStructure>],
    ) -> Result<RewardStructure, LumpError> {
        if per_factor.len() != self.factors.len() {
            return Err(LumpError::InvalidProduct {
                reason: format!(
                    "expected {} per-factor rewards, got {}",
                    self.factors.len(),
                    per_factor.len()
                ),
            });
        }
        let mut present = Vec::with_capacity(per_factor.len());
        for (factor, rewards) in per_factor.iter().enumerate() {
            if let Some(rewards) = rewards {
                self.check_factor(factor, rewards.state_rewards().len())?;
                present.push((factor, rewards.state_rewards()));
            }
        }
        let mut joint = Vec::with_capacity(self.num_states);
        let mut contributions = Vec::with_capacity(present.len());
        self.for_each_tuple(0..self.num_states, |_, tuple| {
            contributions.clear();
            contributions.extend(
                present
                    .iter()
                    .map(|&(factor, rewards)| rewards[tuple[factor]]),
            );
            contributions.sort_by(f64::total_cmp);
            joint.push(contributions.iter().sum::<f64>());
        });
        Ok(RewardStructure::new(name, joint)?)
    }

    /// The joint exit rate of every state: `E(s) = Σᵢ Eᵢ(tupleᵢ(s))`, added
    /// from 0.0 in factor order.
    pub fn exit_rates(&self) -> Vec<f64> {
        self.fold_factors(0.0, self.factors.iter().map(Ctmc::exit_rates), |e, v| e + v)
    }

    /// The matrix-free Kronecker-sum operator over this product's factors,
    /// ready for the exec SpMV kernels.
    pub fn operator(&self) -> KroneckerSum<'_> {
        KroneckerSum { product: self }
    }

    /// Maximum absolute balance-equation residual of a candidate stationary
    /// vector against the *joint* chain, computed matrix-free through the
    /// Kronecker-sum operator: `max_s |(π R)ₛ − πₛ E(s)|` (the steady-state
    /// solver's certificate, [`SteadyStateSolver::balance_residual`]). A tiny
    /// residual certifies that `π` is stationary for the genuine joint chain
    /// without materialising it.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the operator kernels.
    pub fn balance_residual(&self, pi: &[f64], exec: &ExecOptions) -> Result<f64, LumpError> {
        let operator = self.operator();
        Ok(
            SteadyStateSolver::from_operator(&operator, self.exit_rates())?
                .exec(*exec)
                .balance_residual(pi)?,
        )
    }

    /// The joint initial distribution: the product of the factor initials.
    fn joint_initial(&self) -> Result<Vec<f64>, LumpError> {
        self.product_distribution(
            &self
                .factors
                .iter()
                .map(|chain| chain.initial_distribution().to_vec())
                .collect::<Vec<_>>(),
        )
    }

    /// Every factor label's cylinder extension under `{factor}/{label}`, in
    /// factor order and each factor's label order.
    fn cylinder_labels(&self) -> Result<Vec<(String, Vec<bool>)>, LumpError> {
        let mut labels = Vec::new();
        for (factor, (name, chain)) in self.names.iter().zip(&self.factors).enumerate() {
            for label in chain.label_names() {
                let mask = chain.label(label).expect("name came from the chain");
                labels.push((format!("{name}/{label}"), self.expand_mask(factor, mask)?));
            }
        }
        Ok(labels)
    }

    /// Materialises the joint chain.
    ///
    /// The rows are written in joint index order straight into compressed
    /// sparse rows. Row `s` holds every factor's local row at its digit of
    /// `s`, and a move of factor `i` shifts `s` by a multiple of `strideᵢ`,
    /// more than any move of a later factor: listing the targets below each
    /// digit in factor order, then those above in reverse factor order,
    /// gives strictly ascending columns, so nothing is sorted or merged.
    /// [`Ctmc::from_csr`] checks the arrays and takes the row sums as exit
    /// rates. The initial distribution is the product of the factor
    /// initials, and every factor label is attached as its cylinder
    /// extension under the name `{factor}/{label}`. The write is serial, so
    /// `_exec` changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::InvalidProduct`] before allocating anything when
    /// the joint transitions overflow `usize` or the rows cannot be stored,
    /// and propagates chain-construction errors.
    pub fn materialize(&self, _exec: &ExecOptions) -> Result<Ctmc, LumpError> {
        let transitions = self
            .checked_transitions()
            .filter(|&t| {
                allocatable::<usize>(t)
                    && allocatable::<f64>(t)
                    && allocatable::<usize>(self.num_states.saturating_add(1))
            })
            .ok_or_else(|| LumpError::InvalidProduct {
                reason: format!(
                    "the joint chain of {} states and {} transitions is too large to store",
                    self.num_states,
                    self.num_transitions()
                ),
            })?;
        let mut row_offsets = Vec::with_capacity(self.num_states + 1);
        let mut cols = Vec::with_capacity(transitions);
        let mut rates = Vec::with_capacity(transitions);
        row_offsets.push(0);
        // How many targets of each factor's local row `d` lie below `d`.
        let splits: Vec<Vec<usize>> = self
            .factors
            .iter()
            .map(|chain| {
                (0..chain.num_states())
                    .map(|d| chain.rate_matrix().row(d).0.partition_point(|&t| t < d))
                    .collect()
            })
            .collect();
        let k = self.factors.len();
        self.for_each_tuple(0..self.num_states, |state, tuple| {
            // The targets below each digit in factor order, then the
            // targets above it in reverse factor order.
            let parts = (0..k)
                .map(|f| (f, true))
                .chain((0..k).rev().map(|f| (f, false)));
            for (factor, lower) in parts {
                let (digit, stride) = (tuple[factor], self.strides[factor]);
                let (targets, values) = self.factors[factor].rate_matrix().row(digit);
                let below = splits[factor][digit];
                let part = if lower {
                    0..below
                } else {
                    below..targets.len()
                };
                let base = state - digit * stride;
                cols.extend(targets[part.clone()].iter().map(|&t| base + t * stride));
                rates.extend_from_slice(&values[part]);
            }
            row_offsets.push(cols.len());
        });
        let labels = self.cylinder_labels()?.into_iter().collect();
        let mut chain = Ctmc::from_csr(row_offsets, cols, rates, 0, labels)?;
        chain.set_initial_distribution(self.joint_initial()?)?;
        Ok(chain)
    }

    /// Partitions the factors into interchangeability classes: factors whose
    /// quotient chains have **identical presentations** (same states in the
    /// same order, same transitions and rates, same initials and labels —
    /// what the deterministic composer produces for isomorphic models) share
    /// a class id, assigned in first-appearance order.
    pub fn factor_classes(&self) -> Vec<usize> {
        let chains: Vec<&Ctmc> = self.factors.iter().collect();
        group_identical_chains(&chains)
    }

    /// The sorted-tuple orbit quotient of this product, or `None` when no
    /// two factors are interchangeable. Exchanging the coordinates of an
    /// interchangeability class is an automorphism of the Kronecker sum, so
    /// the orbit partition is ordinarily lumpable: every class-symmetric
    /// measure solved on orbit representatives equals the unreduced product
    /// exactly. Two identical factors of `n` blocks fold `n²` tuples to
    /// `n(n+1)/2` orbits — the promised halving — **before** the joint chain
    /// is ever materialised. One walk numbers the orbits: a tuple with every
    /// class sorted opens one, and any other joins the orbit of its sorted
    /// form, the orbit's least tuple, which the walk visited first.
    pub fn orbit(&self) -> Option<ProductOrbit> {
        let classes = FactorClasses::new(self.factor_classes(), self.sizes.clone())
            .expect("factors of one class are identical, so sizes match");
        if !classes.has_symmetry() {
            return None;
        }
        let mut representatives = Vec::with_capacity(classes.num_orbits());
        let mut orbit_sizes = Vec::with_capacity(classes.num_orbits());
        let mut orbit_of = Vec::with_capacity(self.num_states);
        let mut sorted = vec![0; self.factors.len()];
        self.for_each_tuple(0..self.num_states, |state, tuple| {
            sorted.copy_from_slice(tuple);
            classes.canonicalize(&mut sorted);
            if sorted == tuple {
                orbit_of.push(representatives.len());
                orbit_sizes.push(classes.orbit_size(tuple));
                representatives.push(state);
            } else {
                let representative = self
                    .index_of(&sorted)
                    .expect("canonical tuples stay in range");
                orbit_of.push(orbit_of[representative]);
            }
        });
        Some(ProductOrbit {
            classes,
            representatives,
            orbit_of,
            orbit_sizes,
        })
    }
}

/// The orbit quotient of a [`QuotientProduct`] under the permutations of its
/// interchangeable factors: joint tuples folded to their sorted-tuple
/// representatives (see [`QuotientProduct::orbit`]).
///
/// All methods take the product they were derived from; passing a different
/// product yields dimension errors or nonsense, not unsoundness — the maps
/// are pure index arithmetic.
#[derive(Debug, Clone)]
pub struct ProductOrbit {
    classes: FactorClasses,
    /// Joint indices of the canonical representatives, ascending.
    representatives: Vec<usize>,
    /// The orbit id of every joint state (dense lookup table).
    orbit_of: Vec<usize>,
    /// Number of joint tuples in each orbit.
    orbit_sizes: Vec<usize>,
}

impl ProductOrbit {
    /// Number of orbits (= states of the orbit-quotient chain).
    pub fn num_orbits(&self) -> usize {
        self.representatives.len()
    }

    /// The interchangeability classes of the factors.
    pub fn classes(&self) -> &FactorClasses {
        &self.classes
    }

    /// The representative joint index of every orbit, ascending.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// Number of joint tuples in an orbit.
    pub fn orbit_size(&self, orbit: usize) -> usize {
        self.orbit_sizes[orbit]
    }

    /// The orbit of a joint state (one table read; the `product` parameter
    /// documents which product the indices refer to).
    ///
    /// # Panics
    ///
    /// Panics if `joint` is out of range for the product.
    pub fn orbit_of(&self, product: &QuotientProduct, joint: usize) -> usize {
        debug_assert_eq!(product.num_states(), self.orbit_of.len());
        self.orbit_of[joint]
    }

    /// Projects a joint mask onto the orbits.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::NotBlockConstant`] when the mask distinguishes
    /// two tuples of one orbit (the measure is not class-symmetric — solve
    /// it on the unreduced product instead) and
    /// [`LumpError::DimensionMismatch`] on a length mismatch.
    pub fn project_mask(
        &self,
        product: &QuotientProduct,
        mask: &[bool],
    ) -> Result<Vec<bool>, LumpError> {
        self.project(product, mask, |a, b| a == b)
    }

    /// Projects orbit-constant joint values onto the orbits; constancy is
    /// checked on the bit patterns.
    ///
    /// # Errors
    ///
    /// See [`ProductOrbit::project_mask`].
    pub fn project_values(
        &self,
        product: &QuotientProduct,
        values: &[f64],
    ) -> Result<Vec<f64>, LumpError> {
        self.project(product, values, |a, b| a.to_bits() == b.to_bits())
    }

    fn project<T: Copy>(
        &self,
        product: &QuotientProduct,
        values: &[T],
        same: impl Fn(T, T) -> bool,
    ) -> Result<Vec<T>, LumpError> {
        if values.len() != product.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: product.num_states(),
                actual: values.len(),
            });
        }
        let out: Vec<T> = self.representatives.iter().map(|&r| values[r]).collect();
        for (&orbit, &value) in self.orbit_of.iter().zip(values) {
            if !same(out[orbit], value) {
                return Err(LumpError::NotBlockConstant {
                    what: "joint values".to_string(),
                    block: orbit,
                });
            }
        }
        Ok(out)
    }

    /// Expands per-orbit forward quantities (transient probabilities of
    /// reaching a goal, expected rewards from a start state, CSL verdicts)
    /// back to the joint states: every tuple of an orbit carries its orbit's
    /// value.
    pub fn expand_values(&self, product: &QuotientProduct, orbit_values: &[f64]) -> Vec<f64> {
        (0..product.num_states())
            .map(|joint| orbit_values[self.orbit_of(product, joint)])
            .collect()
    }

    /// Aggregates a joint distribution onto the orbits.
    pub fn aggregate_distribution(&self, product: &QuotientProduct, joint: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_orbits()];
        for (state, &probability) in joint.iter().enumerate() {
            out[self.orbit_of(product, state)] += probability;
        }
        out
    }

    /// Expands an orbit distribution that is **invariant under the factor
    /// permutations** — any stationary distribution of the orbit chain is,
    /// because the permutations are automorphisms — uniformly over each
    /// orbit's tuples. The result satisfies the joint balance equations,
    /// which is what lets the matrix-free Kronecker residual certify an
    /// orbit-level solve against the unreduced product.
    pub fn expand_distribution(
        &self,
        product: &QuotientProduct,
        orbit_distribution: &[f64],
    ) -> Vec<f64> {
        (0..product.num_states())
            .map(|joint| {
                let orbit = self.orbit_of(product, joint);
                orbit_distribution[orbit] / self.orbit_sizes[orbit] as f64
            })
            .collect()
    }

    /// Materialises the orbit-quotient chain.
    ///
    /// Each orbit's row is read off its representative on the joint row
    /// walk of [`QuotientProduct::materialize`]: the aggregate rate into a
    /// target orbit is the sum of the representative's Kronecker-sum rates
    /// into that orbit's tuples (constant across the orbit because the
    /// folded permutations are automorphisms). The moves are collected as
    /// `(target orbit, rate)` pairs, factors in tuple order and each in CSR
    /// order, and stably sorted by target, so each target's rates add from
    /// 0.0 in that order. The write is serial, so `_exec` changes nothing.
    /// The initial distribution aggregates the product of the factor
    /// initials; every factor label is attached as its orbit-folded
    /// cylinder under `{factor}/{label}` when it is class-symmetric and
    /// dropped otherwise.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction errors.
    pub fn materialize(
        &self,
        product: &QuotientProduct,
        _exec: &ExecOptions,
    ) -> Result<Ctmc, LumpError> {
        let mut row_offsets = Vec::with_capacity(self.num_orbits() + 1);
        let (mut cols, mut rates) = (Vec::new(), Vec::new());
        let mut outgoing: Vec<(usize, f64)> = Vec::new();
        row_offsets.push(0);
        product.for_each_tuple(0..product.num_states, |state, tuple| {
            let orbit = self.orbit_of[state];
            if self.representatives[orbit] != state {
                return;
            }
            outgoing.clear();
            for (factor, (&digit, &stride)) in tuple.iter().zip(&product.strides).enumerate() {
                let (targets, values) = product.factors[factor].rate_matrix().row(digit);
                let base = state - digit * stride;
                for (&target, &rate) in targets.iter().zip(values) {
                    let target = self.orbit_of[base + target * stride];
                    if target != orbit {
                        outgoing.push((target, rate));
                    }
                }
            }
            outgoing.sort_by_key(|&(target, _)| target);
            for run in outgoing.chunk_by(|a, b| a.0 == b.0) {
                cols.push(run[0].0);
                rates.push(run.iter().fold(0.0, |total, &(_, rate)| total + rate));
            }
            row_offsets.push(cols.len());
        });

        let labels: BTreeMap<String, Vec<bool>> = product
            .cylinder_labels()?
            .into_iter()
            .filter_map(|(name, joint)| Some((name, self.project_mask(product, &joint).ok()?)))
            .collect();
        let mut chain = Ctmc::from_csr(row_offsets, cols, rates, 0, labels)?;
        chain.set_initial_distribution(
            self.aggregate_distribution(product, &product.joint_initial()?),
        )?;
        Ok(chain)
    }
}

/// The Kronecker sum `⊕ᵢ Rᵢ` of the factor rate matrices as a matrix-free
/// [`LinearOperator`]: SpMV against the joint chain without storing it.
///
/// Both kernels compute each output entry completely within one worker, in a
/// fixed accumulation order (factors in tuple order, factor transitions in
/// CSR order), so the results are bit-identical to the serial path for every
/// thread count — the same contract as the CSR exec kernels.
#[derive(Debug, Clone, Copy)]
pub struct KroneckerSum<'a> {
    product: &'a QuotientProduct,
}

impl KroneckerSum<'_> {
    /// Shared kernel: `y[s] = Σᵢ Σ_{(c,v) ∈ matricesᵢ.row(tupleᵢ(s))}
    /// v · x[s with tupleᵢ ↦ c]`. With the factor rate matrices this is
    /// `y = A·x` (outgoing transitions); with the transposes it is `y = x·A`
    /// (incoming transitions). Rows are sharded contiguously, each shard
    /// walking its tuples as an odometer; each output entry is accumulated
    /// by exactly one worker in factor-then-CSR order.
    fn multiply(
        &self,
        matrices: &[&SparseMatrix],
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let product = self.product;
        let n = product.num_states;
        if x.len() != n {
            return Err(CtmcError::DimensionMismatch {
                expected: n,
                actual: x.len(),
            });
        }
        if y.len() != n {
            return Err(CtmcError::DimensionMismatch {
                expected: n,
                actual: y.len(),
            });
        }
        let work: usize = matrices
            .iter()
            .zip(&product.sizes)
            .map(|(m, &size)| m.num_entries().saturating_mul(n / size))
            .fold(0usize, usize::saturating_add);
        let workers = exec.workers_for(work).min(n.max(1));
        exec::for_each_shard(y, workers, |start, shard| {
            product.for_each_tuple(start..start + shard.len(), |s, tuple| {
                let mut acc = 0.0;
                for ((matrix, &stride), &local) in matrices.iter().zip(&product.strides).zip(tuple)
                {
                    let base = s - local * stride;
                    let (cols, values) = matrix.row(local);
                    for (&c, &v) in cols.iter().zip(values) {
                        acc += v * x[base + c * stride];
                    }
                }
                shard[s - start] = acc;
            });
        });
        Ok(())
    }
}

impl LinearOperator for KroneckerSum<'_> {
    fn num_rows(&self) -> usize {
        self.product.num_states
    }

    fn num_cols(&self) -> usize {
        self.product.num_states
    }

    /// `y = x · (⊕ᵢ Rᵢ)`: every output entry gathers its *incoming*
    /// transitions through the transposed factor matrices.
    fn left_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let matrices: Vec<&SparseMatrix> = self.product.transposed.iter().collect();
        self.multiply(&matrices, x, y, exec)
    }

    /// `y = (⊕ᵢ Rᵢ) · x`: every output entry gathers its *outgoing*
    /// transitions through the factor rate matrices.
    fn right_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let matrices: Vec<&SparseMatrix> = self
            .product
            .factors
            .iter()
            .map(|chain| chain.rate_matrix())
            .collect();
        self.multiply(&matrices, x, y, exec)
    }
}

#[cfg(test)]
mod tests {
    use ctmc::CtmcBuilder;

    use super::*;

    /// A repairable two-state component: up (0) ⇄ down (1).
    fn component(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, lambda).unwrap();
        b.add_transition(1, 0, mu).unwrap();
        b.set_initial_state(0).unwrap();
        b.add_label_mask("up", vec![true, false]).unwrap();
        b.build().unwrap()
    }

    fn two_factor_product() -> QuotientProduct {
        QuotientProduct::from_chains(vec![
            ("a".to_string(), component(0.1, 1.0)),
            ("b".to_string(), component(0.5, 2.0)),
        ])
        .unwrap()
    }

    #[test]
    fn indices_and_tuples_round_trip() {
        let product = QuotientProduct::from_chains(vec![
            ("a".to_string(), component(0.1, 1.0)),
            ("b".to_string(), component(0.5, 2.0)),
            ("c".to_string(), component(0.2, 3.0)),
        ])
        .unwrap();
        assert_eq!(product.num_factors(), 3);
        assert_eq!(product.num_states(), 8);
        assert_eq!(product.num_transitions(), 3 * 2 * 4);
        for s in 0..product.num_states() {
            let tuple = product.tuple_of(s);
            assert_eq!(product.index_of(&tuple), Some(s));
        }
        // Factor 0 is most significant.
        assert_eq!(product.index_of(&[1, 0, 0]), Some(4));
        assert_eq!(product.index_of(&[0, 0, 1]), Some(1));
        assert_eq!(product.index_of(&[2, 0, 0]), None);
        assert_eq!(product.index_of(&[0, 0]), None);
    }

    #[test]
    fn invalid_products_are_rejected() {
        assert!(matches!(
            QuotientProduct::from_chains(Vec::new()),
            Err(LumpError::InvalidProduct { .. })
        ));
        assert!(matches!(
            QuotientProduct::from_chains(vec![
                ("x".to_string(), component(0.1, 1.0)),
                ("x".to_string(), component(0.1, 1.0)),
            ]),
            Err(LumpError::InvalidProduct { .. })
        ));
        assert!(matches!(
            QuotientProduct::from_chains(vec![(String::new(), component(0.1, 1.0))]),
            Err(LumpError::InvalidProduct { .. })
        ));
    }

    #[test]
    fn materialized_chain_matches_the_kronecker_sum() {
        let product = two_factor_product();
        let exec = ExecOptions::serial();
        let joint = product.materialize(&exec).unwrap();
        assert_eq!(joint.num_states(), 4);
        assert_eq!(joint.num_transitions(), product.num_transitions());

        // Rates: from (up, up) the chain fails either component at its rate.
        let rates = joint.rate_matrix();
        assert_eq!(rates.get(0, 2), 0.1); // a fails
        assert_eq!(rates.get(0, 1), 0.5); // b fails
        assert_eq!(rates.get(3, 1), 1.0); // a repaired
        assert_eq!(rates.get(3, 2), 2.0); // b repaired
        assert_eq!(rates.get(0, 3), 0.0); // no simultaneous moves

        // Labels are cylinder extensions under prefixed names.
        assert_eq!(
            joint.label("a/up").unwrap(),
            &[true, true, false, false][..]
        );
        assert_eq!(
            joint.label("b/up").unwrap(),
            &[true, false, true, false][..]
        );
        // Initial distribution is the product point mass.
        assert_eq!(joint.initial_distribution()[0], 1.0);
    }

    #[test]
    fn operator_kernels_match_the_materialized_matrix() {
        let product = two_factor_product();
        let serial = ExecOptions::serial();
        let joint = product.materialize(&serial).unwrap();
        let n = product.num_states();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();

        let mut left_reference = vec![0.0; n];
        joint
            .rate_matrix()
            .left_multiply(&x, &mut left_reference)
            .unwrap();
        let mut right_reference = vec![0.0; n];
        joint
            .rate_matrix()
            .right_multiply(&x, &mut right_reference)
            .unwrap();

        let op = product.operator();
        for threads in [1usize, 2, 4, 8] {
            let exec = ExecOptions::with_threads(threads);
            let mut y = vec![f64::NAN; n];
            op.left_multiply_exec(&x, &mut y, &exec).unwrap();
            for (got, want) in y.iter().zip(left_reference.iter()) {
                assert!((got - want).abs() < 1e-12, "left, {threads} threads");
            }
            let mut y = vec![f64::NAN; n];
            op.right_multiply_exec(&x, &mut y, &exec).unwrap();
            for (got, want) in y.iter().zip(right_reference.iter()) {
                assert!((got - want).abs() < 1e-12, "right, {threads} threads");
            }
        }
        let mut wrong = vec![0.0; n - 1];
        assert!(op.left_multiply_exec(&x, &mut wrong, &serial).is_err());
        assert!(op
            .right_multiply_exec(&x[..n - 1], &mut vec![0.0; n], &serial)
            .is_err());
    }

    #[test]
    fn product_of_stationary_distributions_is_stationary() {
        let product = two_factor_product();
        let exec = ExecOptions::serial();
        let marginals: Vec<Vec<f64>> = (0..2)
            .map(|i| SteadyStateSolver::new(product.factor(i)).solve().unwrap())
            .collect();
        let joint_guess = product.product_distribution(&marginals).unwrap();
        // The outer product satisfies the joint balance equations: the
        // matrix-free residual certifies it without materialising the chain.
        let residual = product.balance_residual(&joint_guess, &exec).unwrap();
        assert!(residual < 1e-12, "residual {residual}");

        // And it agrees with a genuine solve of the materialised joint chain.
        let joint = product.materialize(&exec).unwrap();
        let pi = SteadyStateSolver::new(&joint).solve().unwrap();
        for (a, b) in pi.iter().zip(joint_guess.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        // Marginalising the joint solve recovers the factor solutions.
        for (i, marginal) in marginals.iter().enumerate() {
            let recovered = product.marginal(i, &pi).unwrap();
            for (a, b) in recovered.iter().zip(marginal.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn masks_values_and_rewards_expand_as_cylinders() {
        let product = two_factor_product();
        let mask = product.expand_mask(1, &[true, false]).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
        let values = product.expand_values(0, &[3.0, 7.0]).unwrap();
        assert_eq!(values, vec![3.0, 3.0, 7.0, 7.0]);
        assert!(product.expand_mask(0, &[true]).is_err());
        assert!(product.expand_values(5, &[1.0, 2.0]).is_err());

        let ra = RewardStructure::new("cost", vec![0.0, 3.0]).unwrap();
        let rb = RewardStructure::new("cost", vec![1.0, 4.0]).unwrap();
        let joint = product
            .sum_rewards("cost", &[Some(&ra), Some(&rb)])
            .unwrap();
        assert_eq!(joint.state_rewards(), &[1.0, 4.0, 4.0, 7.0][..]);
        let only_a = product.sum_rewards("cost", &[Some(&ra), None]).unwrap();
        assert_eq!(only_a.state_rewards(), &[0.0, 0.0, 3.0, 3.0][..]);

        let exits = product.exit_rates();
        assert_eq!(exits, vec![0.6, 2.1, 1.5, 3.0]);
    }

    #[test]
    fn orbit_folds_identical_factors_and_matches_the_full_product() {
        // Two identical components and one odd one: classes {0, 0, 1},
        // 2·2·3 = 12 tuples fold to 3·3 = 9 orbits.
        let mut odd = CtmcBuilder::new(3);
        odd.add_transition(0, 1, 0.3).unwrap();
        odd.add_transition(1, 2, 0.7).unwrap();
        odd.add_transition(2, 0, 1.5).unwrap();
        odd.set_initial_state(0).unwrap();
        let product = QuotientProduct::from_chains(vec![
            ("a".to_string(), component(0.1, 1.0)),
            ("b".to_string(), component(0.1, 1.0)),
            ("c".to_string(), odd.build().unwrap()),
        ])
        .unwrap();
        assert_eq!(product.factor_classes(), vec![0, 0, 1]);
        let orbit = product.orbit().expect("two identical factors");
        assert_eq!(orbit.num_orbits(), 3 * 3);
        assert_eq!(orbit.classes().num_orbits(), 9);

        // Orbit sizes cover the raw tuples.
        let total: usize = (0..orbit.num_orbits()).map(|o| orbit.orbit_size(o)).sum();
        assert_eq!(total, product.num_states());

        // Swapped tuples share an orbit.
        let up_down = product.index_of(&[0, 1, 2]).unwrap();
        let down_up = product.index_of(&[1, 0, 2]).unwrap();
        assert_eq!(
            orbit.orbit_of(&product, up_down),
            orbit.orbit_of(&product, down_up)
        );

        let exec = ExecOptions::serial();
        let chain = orbit.materialize(&product, &exec).unwrap();
        assert_eq!(chain.num_states(), 9);
        // The symmetric cylinder labels fold; each factor's own label is
        // asymmetric and dropped for the twins, kept for the singleton.
        assert!(chain.label("c/up").is_none());
        assert!(chain.label("a/up").is_none());

        // Steady state: the orbit solve aggregates the full product solve.
        let joint = product.materialize(&exec).unwrap();
        let joint_pi = SteadyStateSolver::new(&joint).solve().unwrap();
        let orbit_pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let aggregated = orbit.aggregate_distribution(&product, &joint_pi);
        for (a, b) in aggregated.iter().zip(orbit_pi.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // The uniform expansion of the orbit stationary vector satisfies the
        // joint balance equations — the matrix-free certificate.
        let expanded = orbit.expand_distribution(&product, &orbit_pi);
        let residual = product.balance_residual(&expanded, &exec).unwrap();
        assert!(residual < 1e-9, "residual {residual}");

        // Symmetric masks project; asymmetric masks are rejected.
        let a_up = product.expand_mask(0, &[true, false]).unwrap();
        let b_up = product.expand_mask(1, &[true, false]).unwrap();
        let both: Vec<bool> = a_up
            .iter()
            .zip(b_up.iter())
            .map(|(&x, &y)| x && y)
            .collect();
        let projected = orbit.project_mask(&product, &both).unwrap();
        assert_eq!(projected.len(), 9);
        assert!(matches!(
            orbit.project_mask(&product, &a_up),
            Err(LumpError::NotBlockConstant { .. })
        ));
        assert!(orbit.project_mask(&product, &[true]).is_err());

        // Forward quantities expand orbit-constantly.
        let forward = orbit.expand_values(&product, &[1.0; 9]);
        assert_eq!(forward.len(), product.num_states());
    }

    #[test]
    fn summed_rewards_stay_orbit_constant_for_three_twins() {
        // Floating-point addition does not commute across three summands:
        // (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1. With three identical
        // factors the per-state contributions of orbit siblings are the
        // same multiset in different orders, so the sorted summation of
        // `sum_rewards` is what keeps the joint rewards projectable.
        let factors: Vec<(String, Ctmc)> = (0..3)
            .map(|i| (format!("twin{i}"), component(0.4, 2.0)))
            .collect();
        let product = QuotientProduct::from_chains(factors).unwrap();
        let orbit = product.orbit().expect("three identical factors");
        let rewards = RewardStructure::new("cost", vec![0.1, 0.2]).unwrap();
        let joint = product
            .sum_rewards("cost", &[Some(&rewards), Some(&rewards), Some(&rewards)])
            .unwrap();
        let projected = orbit
            .project_values(&product, joint.state_rewards())
            .expect("sorted sums are bit-identical across each orbit");
        assert_eq!(projected.len(), orbit.num_orbits());
        // Wrong-length reward vectors are rejected up front.
        let short = RewardStructure::new("cost", vec![0.1]).unwrap();
        assert!(product
            .sum_rewards("cost", &[Some(&short), None, None])
            .is_err());
    }

    #[test]
    fn orbit_is_absent_without_interchangeable_factors() {
        let product = two_factor_product();
        assert_eq!(product.factor_classes(), vec![0, 1]);
        assert!(product.orbit().is_none());
    }

    #[test]
    fn orbit_materialization_is_thread_count_invariant() {
        let factors: Vec<(String, Ctmc)> = (0..5)
            .map(|i| (format!("f{i}"), component(0.25, 2.0)))
            .collect();
        let product = QuotientProduct::from_chains(factors).unwrap();
        let orbit = product.orbit().expect("five identical factors");
        // Multisets of 5 over 2 local states: C(6, 5) = 6 orbits from 32.
        assert_eq!(orbit.num_orbits(), 6);
        let reference = orbit.materialize(&product, &ExecOptions::serial()).unwrap();
        for threads in [2usize, 4, 8] {
            let sharded = orbit
                .materialize(&product, &ExecOptions::with_threads(threads))
                .unwrap();
            assert_eq!(sharded, reference, "{threads} threads");
        }
        // Aggregated rates: from all-up (orbit of tuple 0…0) the fold merges
        // the five failure transitions into one orbit at 5λ.
        let all_up = orbit.orbit_of(&product, 0);
        let (_, values) = reference.rate_matrix().row(all_up);
        let total: f64 = values.iter().sum();
        assert!((total - 5.0 * 0.25).abs() < 1e-12, "{total}");
    }

    #[test]
    fn materialization_is_thread_count_invariant() {
        // Enough factors that the joint chain clears the parallel-work
        // threshold, so the sharded path actually runs.
        let factors: Vec<(String, Ctmc)> = (0..6)
            .map(|i| (format!("f{i}"), component(0.1 + i as f64 * 0.05, 1.0)))
            .collect();
        let product = QuotientProduct::from_chains(factors).unwrap();
        assert_eq!(product.num_states(), 64);
        let reference = product.materialize(&ExecOptions::serial()).unwrap();
        for threads in [2usize, 4, 8] {
            let sharded = product
                .materialize(&ExecOptions::with_threads(threads))
                .unwrap();
            assert_eq!(sharded, reference, "{threads} threads");
        }
    }
}
