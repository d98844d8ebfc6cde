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
//!   most significant);
//! * the joint generator is the **Kronecker sum** `Q = ⊕ᵢ Qᵢ`: exactly one
//!   factor moves per transition, at its local rate;
//! * the joint initial distribution, labels and reward vectors are
//!   **cylinder extensions** of the per-factor data (products of masks,
//!   sums of additive rewards);
//! * the chain is available **materialised** ([`QuotientProduct::materialize`],
//!   joint rows enumerated across the shared worker pool in index order, so
//!   states, transitions and rates are bit-identical for every thread count)
//!   or **matrix-free** ([`QuotientProduct::operator`], a [`KroneckerSum`]
//!   implementing [`LinearOperator`] so the exec SpMV kernels can run without
//!   ever storing the joint matrix).
//!
//! This is the Plateau/Buchholz structured-composition idea (stochastic
//! automata networks, structured lumping) specialised to factors that are
//! themselves quotients produced by this crate.

use std::collections::HashMap;

use arcade_symmetry::chain::group_identical_chains;
use arcade_symmetry::orbit::FactorClasses;
use ctmc::exec::{self, ExecOptions};
use ctmc::ops::LinearOperator;
use ctmc::{Ctmc, CtmcBuilder, CtmcError, RewardStructure, SparseMatrix, SteadyStateSolver};

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
    /// `strides[i]` = product of the factor sizes right of `i`.
    strides: Vec<usize>,
    num_states: usize,
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
        let mut num_states: usize = 1;
        for chain in &chains {
            num_states = num_states.checked_mul(chain.num_states()).ok_or_else(|| {
                LumpError::InvalidProduct {
                    reason: "joint state count overflows usize".to_string(),
                }
            })?;
        }
        let mut strides = vec![1usize; chains.len()];
        for i in (0..chains.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * chains[i + 1].num_states();
        }
        let transposed = chains
            .iter()
            .map(|chain| chain.rate_matrix().transpose())
            .collect();
        Ok(QuotientProduct {
            names,
            factors: chains,
            transposed,
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
    /// the other factors).
    pub fn num_transitions(&self) -> usize {
        self.factors
            .iter()
            .map(|chain| {
                chain
                    .num_transitions()
                    .saturating_mul(self.num_states / chain.num_states())
            })
            .fold(0usize, usize::saturating_add)
    }

    /// The joint index of a block tuple; `None` if the tuple has the wrong
    /// arity or an out-of-range block.
    pub fn index_of(&self, tuple: &[usize]) -> Option<usize> {
        if tuple.len() != self.factors.len() {
            return None;
        }
        let mut index = 0usize;
        for ((&block, chain), &stride) in tuple
            .iter()
            .zip(self.factors.iter())
            .zip(self.strides.iter())
        {
            if block >= chain.num_states() {
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
            .zip(self.factors.iter())
            .map(|(&stride, chain)| (index / stride) % chain.num_states())
            .collect()
    }

    /// Cylinder extension of a per-factor-state mask to the joint states:
    /// `joint[s] = mask[tupleᵢ(s)]`.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::DimensionMismatch`] on a length mismatch and
    /// [`LumpError::InvalidProduct`] for an unknown factor index.
    pub fn expand_mask(&self, factor: usize, mask: &[bool]) -> Result<Vec<bool>, LumpError> {
        let values: Vec<f64> = mask.iter().map(|&b| f64::from(u8::from(b))).collect();
        Ok(self
            .expand_values(factor, &values)?
            .into_iter()
            .map(|v| v != 0.0)
            .collect())
    }

    /// Cylinder extension of per-factor-state values to the joint states:
    /// `joint[s] = values[tupleᵢ(s)]`.
    ///
    /// # Errors
    ///
    /// See [`QuotientProduct::expand_mask`].
    pub fn expand_values(&self, factor: usize, values: &[f64]) -> Result<Vec<f64>, LumpError> {
        let chain = self
            .factors
            .get(factor)
            .ok_or_else(|| LumpError::InvalidProduct {
                reason: format!("unknown factor index {factor}"),
            })?;
        if values.len() != chain.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: chain.num_states(),
                actual: values.len(),
            });
        }
        let stride = self.strides[factor];
        let mut out = Vec::with_capacity(self.num_states);
        for s in 0..self.num_states {
            out.push(values[(s / stride) % chain.num_states()]);
        }
        Ok(out)
    }

    /// The outer product of per-factor distributions (or of any per-factor
    /// vectors): `joint[s] = Πᵢ perᵢ[tupleᵢ(s)]`. With the factor stationary
    /// distributions as input this is the joint stationary distribution of
    /// the Kronecker sum — the product form independence buys.
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
        for (vector, chain) in per_factor.iter().zip(self.factors.iter()) {
            if vector.len() != chain.num_states() {
                return Err(LumpError::DimensionMismatch {
                    expected: chain.num_states(),
                    actual: vector.len(),
                });
            }
        }
        let mut out = Vec::with_capacity(self.num_states);
        for s in 0..self.num_states {
            let mut value = 1.0;
            for ((vector, chain), &stride) in per_factor
                .iter()
                .zip(self.factors.iter())
                .zip(self.strides.iter())
            {
                value *= vector[(s / stride) % chain.num_states()];
            }
            out.push(value);
        }
        Ok(out)
    }

    /// The marginal of a joint distribution on one factor:
    /// `marginalᵢ[b] = Σ_{s: tupleᵢ(s)=b} joint[s]`, accumulated in joint
    /// index order.
    ///
    /// # Errors
    ///
    /// See [`QuotientProduct::expand_mask`].
    pub fn marginal(&self, factor: usize, joint: &[f64]) -> Result<Vec<f64>, LumpError> {
        let chain = self
            .factors
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
        let stride = self.strides[factor];
        let mut out = vec![0.0; chain.num_states()];
        for (s, &p) in joint.iter().enumerate() {
            out[(s / stride) % chain.num_states()] += p;
        }
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
        for (factor, rewards) in per_factor.iter().enumerate() {
            if let Some(rewards) = rewards {
                let chain = &self.factors[factor];
                if rewards.state_rewards().len() != chain.num_states() {
                    return Err(LumpError::DimensionMismatch {
                        expected: chain.num_states(),
                        actual: rewards.state_rewards().len(),
                    });
                }
            }
        }
        let mut joint = Vec::with_capacity(self.num_states);
        let mut contributions = Vec::with_capacity(self.factors.len());
        for s in 0..self.num_states {
            contributions.clear();
            for (factor, rewards) in per_factor.iter().enumerate() {
                if let Some(rewards) = rewards {
                    let chain = &self.factors[factor];
                    let local = (s / self.strides[factor]) % chain.num_states();
                    contributions.push(rewards.state_rewards()[local]);
                }
            }
            contributions.sort_by(f64::total_cmp);
            joint.push(contributions.iter().sum::<f64>());
        }
        Ok(RewardStructure::new(name, joint)?)
    }

    /// The joint exit rate of every state: `E(s) = Σᵢ Eᵢ(tupleᵢ(s))`.
    pub fn exit_rates(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_states];
        for (factor, chain) in self.factors.iter().enumerate() {
            let stride = self.strides[factor];
            let exits = chain.exit_rates();
            for (s, slot) in out.iter_mut().enumerate() {
                *slot += exits[(s / stride) % chain.num_states()];
            }
        }
        out
    }

    /// The matrix-free Kronecker-sum operator over this product's factors,
    /// ready for the exec SpMV kernels.
    pub fn operator(&self) -> KroneckerSum<'_> {
        KroneckerSum {
            factors: &self.factors,
            transposed: &self.transposed,
            strides: &self.strides,
            num_states: self.num_states,
        }
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

    /// Materialises the joint chain.
    ///
    /// Joint rows are enumerated in index order, sharded across the worker
    /// pool (each worker generates the transitions of a contiguous row range;
    /// the shards are then appended in range order), so the resulting states,
    /// transition order and rates are bit-identical for every thread count.
    /// The initial distribution is the product of the factor initials, and
    /// every factor label is attached as its cylinder extension under the
    /// name `{factor}/{label}`.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction errors.
    pub fn materialize(&self, exec: &ExecOptions) -> Result<Ctmc, LumpError> {
        let mut builder = CtmcBuilder::new(self.num_states);

        // Generate each row shard's transition triplets on the worker pool.
        let workers = exec
            .workers_for(self.num_transitions())
            .min(self.num_states.max(1));
        let shards = exec::shard_ranges(self.num_states, workers);
        let triplet_shards: Vec<Vec<(usize, usize, f64)>> =
            exec::map_ordered(&shards, *exec, |range| {
                let mut triplets = Vec::new();
                for s in range.clone() {
                    for (factor, chain) in self.factors.iter().enumerate() {
                        let stride = self.strides[factor];
                        let local = (s / stride) % chain.num_states();
                        let (cols, values) = chain.rate_matrix().row(local);
                        for (&target, &rate) in cols.iter().zip(values.iter()) {
                            let neighbor = s + (target * stride) - (local * stride);
                            triplets.push((s, neighbor, rate));
                        }
                    }
                }
                triplets
            });
        for triplets in triplet_shards {
            for (from, to, rate) in triplets {
                builder.add_transition(from, to, rate)?;
            }
        }

        let initial = self.product_distribution(
            &self
                .factors
                .iter()
                .map(|chain| chain.initial_distribution().to_vec())
                .collect::<Vec<_>>(),
        )?;
        builder.set_initial_distribution(initial)?;

        for (factor, (name, chain)) in self.names.iter().zip(self.factors.iter()).enumerate() {
            let labels: Vec<String> = chain.label_names().map(str::to_string).collect();
            for label in labels {
                let mask = chain.label(&label).expect("name came from the chain");
                let joint = self.expand_mask(factor, mask)?;
                builder.add_label_mask(format!("{name}/{label}"), joint)?;
            }
        }

        Ok(builder.build()?)
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
    /// is ever materialised.
    pub fn orbit(&self) -> Option<ProductOrbit> {
        let classes = FactorClasses::new(
            self.factor_classes(),
            self.factors.iter().map(Ctmc::num_states).collect(),
        )
        .expect("factors of one class are identical, so sizes match");
        if !classes.has_symmetry() {
            return None;
        }
        let mut representatives = Vec::with_capacity(classes.num_orbits());
        let mut orbit_index: HashMap<usize, usize> = HashMap::with_capacity(classes.num_orbits());
        let mut orbit_sizes = Vec::with_capacity(classes.num_orbits());
        for joint in 0..self.num_states {
            let tuple = self.tuple_of(joint);
            if classes.is_canonical(&tuple) {
                orbit_index.insert(joint, representatives.len());
                orbit_sizes.push(classes.orbit_size(&tuple));
                representatives.push(joint);
            }
        }
        // The dense joint → orbit table: every projection, expansion and
        // materialisation pass scans all joint states (or transitions), so
        // the per-state canonicalisation is paid once here and every later
        // lookup is one array read.
        let orbit_of = (0..self.num_states)
            .map(|joint| {
                let mut tuple = self.tuple_of(joint);
                classes.canonicalize(&mut tuple);
                let representative = self
                    .index_of(&tuple)
                    .expect("canonical tuples stay in range");
                orbit_index[&representative]
            })
            .collect();
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
        let values: Vec<f64> = mask.iter().map(|&b| f64::from(u8::from(b))).collect();
        Ok(self
            .project_values(product, &values)?
            .into_iter()
            .map(|v| v != 0.0)
            .collect())
    }

    /// Projects orbit-constant joint values onto the orbits.
    ///
    /// # Errors
    ///
    /// See [`ProductOrbit::project_mask`].
    pub fn project_values(
        &self,
        product: &QuotientProduct,
        values: &[f64],
    ) -> Result<Vec<f64>, LumpError> {
        if values.len() != product.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: product.num_states(),
                actual: values.len(),
            });
        }
        let out: Vec<f64> = self.representatives.iter().map(|&r| values[r]).collect();
        for (joint, &value) in values.iter().enumerate() {
            let orbit = self.orbit_of(product, joint);
            if out[orbit].to_bits() != value.to_bits() {
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
    /// Each orbit's row is read off its representative: the aggregate rate
    /// into a target orbit is the sum of the representative's Kronecker-sum
    /// rates into that orbit's tuples (constant across the orbit because the
    /// folded permutations are automorphisms). Rows are sharded over the
    /// worker pool in orbit order with a fixed per-row accumulation order
    /// (factors in tuple order, factor transitions in CSR order, targets in
    /// ascending orbit order), so the chain is bit-identical for every
    /// thread count. The initial distribution aggregates the product of the
    /// factor initials; every factor label is attached as its orbit-folded
    /// cylinder under `{factor}/{label}` when it is class-symmetric and
    /// dropped otherwise.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction errors.
    pub fn materialize(
        &self,
        product: &QuotientProduct,
        exec: &ExecOptions,
    ) -> Result<Ctmc, LumpError> {
        let mut builder = CtmcBuilder::new(self.num_orbits());
        let workers = exec
            .workers_for(product.num_transitions())
            .min(self.num_orbits().max(1));
        let shards = exec::shard_ranges(self.num_orbits(), workers);
        let triplet_shards: Vec<Vec<(usize, usize, f64)>> =
            exec::map_ordered(&shards, *exec, |range| {
                let mut triplets = Vec::new();
                for orbit in range.clone() {
                    let source = self.representatives[orbit];
                    // (target orbit, rate) aggregated in ascending target
                    // order; within a target, rates add in factor-then-CSR
                    // encounter order.
                    let mut outgoing: std::collections::BTreeMap<usize, f64> =
                        std::collections::BTreeMap::new();
                    for (factor, chain) in product.factors.iter().enumerate() {
                        let stride = product.strides[factor];
                        let local = (source / stride) % chain.num_states();
                        let (cols, values) = chain.rate_matrix().row(local);
                        for (&target, &rate) in cols.iter().zip(values.iter()) {
                            let neighbor = source + (target * stride) - (local * stride);
                            let target_orbit = self.orbit_of(product, neighbor);
                            if target_orbit != orbit {
                                *outgoing.entry(target_orbit).or_insert(0.0) += rate;
                            }
                        }
                    }
                    for (target, rate) in outgoing {
                        triplets.push((orbit, target, rate));
                    }
                }
                triplets
            });
        for triplets in triplet_shards {
            for (from, to, rate) in triplets {
                builder.add_transition(from, to, rate)?;
            }
        }

        let joint_initial = product.product_distribution(
            &product
                .factors
                .iter()
                .map(|chain| chain.initial_distribution().to_vec())
                .collect::<Vec<_>>(),
        )?;
        builder.set_initial_distribution(self.aggregate_distribution(product, &joint_initial))?;

        for (factor, (name, chain)) in product.names.iter().zip(product.factors.iter()).enumerate()
        {
            let labels: Vec<String> = chain.label_names().map(str::to_string).collect();
            for label in labels {
                let mask = chain.label(&label).expect("name came from the chain");
                let joint = product.expand_mask(factor, mask)?;
                if let Ok(orbit_mask) = self.project_mask(product, &joint) {
                    builder.add_label_mask(format!("{name}/{label}"), orbit_mask)?;
                }
            }
        }

        Ok(builder.build()?)
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
    factors: &'a [Ctmc],
    transposed: &'a [SparseMatrix],
    strides: &'a [usize],
    num_states: usize,
}

impl KroneckerSum<'_> {
    /// Shared kernel: `y[s] = Σᵢ Σ_{(c,v) ∈ matricesᵢ.row(tupleᵢ(s))}
    /// v · x[s with tupleᵢ ↦ c]`. With the factor rate matrices this is
    /// `y = A·x` (outgoing transitions); with the transposes it is `y = x·A`
    /// (incoming transitions). Rows are sharded contiguously; each output
    /// entry is accumulated by exactly one worker in factor-then-CSR order.
    fn multiply(
        &self,
        matrices: &[&SparseMatrix],
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        if x.len() != self.num_states {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_states,
                actual: x.len(),
            });
        }
        if y.len() != self.num_states {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_states,
                actual: y.len(),
            });
        }
        let work: usize = matrices
            .iter()
            .zip(self.factors.iter())
            .map(|(m, chain)| {
                m.num_entries()
                    .saturating_mul(self.num_states / chain.num_states())
            })
            .fold(0usize, usize::saturating_add);
        let workers = exec.workers_for(work).min(self.num_states.max(1));
        exec::for_each_shard(y, workers, |start, shard| {
            for (offset, slot) in shard.iter_mut().enumerate() {
                let s = start + offset;
                let mut acc = 0.0;
                for (factor, matrix) in matrices.iter().enumerate() {
                    let n = self.factors[factor].num_states();
                    let stride = self.strides[factor];
                    let local = (s / stride) % n;
                    let (cols, values) = matrix.row(local);
                    for (&c, &v) in cols.iter().zip(values.iter()) {
                        acc += v * x[s + c * stride - local * stride];
                    }
                }
                *slot = acc;
            }
        });
        Ok(())
    }
}

impl LinearOperator for KroneckerSum<'_> {
    fn num_rows(&self) -> usize {
        self.num_states
    }

    fn num_cols(&self) -> usize {
        self.num_states
    }

    /// `y = x · (⊕ᵢ Rᵢ)`: every output entry gathers its *incoming*
    /// transitions through the transposed factor matrices.
    fn left_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let matrices: Vec<&SparseMatrix> = self.transposed.iter().collect();
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
            .factors
            .iter()
            .map(|chain| chain.rate_matrix())
            .collect();
        self.multiply(&matrices, x, y, exec)
    }
}

#[cfg(test)]
mod tests {
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
