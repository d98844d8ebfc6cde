//! Property tests of the quotient product: the matrix-free Kronecker-sum
//! operator must agree with the materialised joint chain for any factor
//! shapes and any thread count, and the product of the factor stationary
//! distributions must be stationary for the joint chain.
//!
//! A reference oracle pins both materialisers and every odometer pass bit
//! for bit: the joint chain against triplets sorted by `CtmcBuilder`, the
//! orbit chain against a `BTreeMap` per row, and each cylinder, product,
//! marginal, reward sum, exit rate and operator apply against the same
//! quantity computed with one division per factor per joint state.

use std::collections::BTreeMap;

use arcade_lumping::{LumpError, ProductOrbit, QuotientProduct};
use ctmc::ops::LinearOperator;
use ctmc::{Ctmc, CtmcBuilder, ExecOptions, RewardStructure, SteadyStateSolver};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// An irreducible ring chain with `n` states, shortcut chords and
/// deterministic pseudo-random rates derived from `seed`.
fn ring_chain(n: usize, seed: u64) -> Ctmc {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = CtmcBuilder::new(n);
    for s in 0..n {
        let rate = 0.1 + (next() % 1000) as f64 / 250.0;
        builder.add_transition(s, (s + 1) % n, rate).unwrap();
        if n > 2 {
            let chord = (s + 1 + next() as usize % (n - 2)) % n;
            if chord != s {
                let rate = 0.05 + (next() % 1000) as f64 / 500.0;
                builder.add_transition(s, chord, rate).unwrap();
            }
        }
    }
    builder.set_initial_state(0).unwrap();
    builder
        .add_label_mask("even", (0..n).map(|s| s % 2 == 0).collect())
        .unwrap();
    builder.build().unwrap()
}

fn factor_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(2usize..=6, 2..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn operator_and_materialised_chain_agree_for_every_thread_count(
        sizes in factor_sizes(),
        seed in 1u64..10_000,
    ) {
        let product = QuotientProduct::from_chains(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (format!("f{i}"), ring_chain(n, seed + i as u64)))
                .collect(),
        )
        .unwrap();
        let serial = ExecOptions::serial();
        let joint = product.materialize(&serial).unwrap();
        prop_assert_eq!(joint.num_states(), product.num_states());
        prop_assert_eq!(joint.num_transitions(), product.num_transitions());

        let n = product.num_states();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 + seed as f64).sin() + 1.5).collect();
        let mut left_reference = vec![0.0; n];
        joint.rate_matrix().left_multiply(&x, &mut left_reference).unwrap();
        let mut right_reference = vec![0.0; n];
        joint.rate_matrix().right_multiply(&x, &mut right_reference).unwrap();

        let op = product.operator();
        let mut left_serial = vec![0.0; n];
        op.left_multiply_exec(&x, &mut left_serial, &serial).unwrap();
        let mut right_serial = vec![0.0; n];
        op.right_multiply_exec(&x, &mut right_serial, &serial).unwrap();
        for s in 0..n {
            prop_assert!((left_serial[s] - left_reference[s]).abs() <= 1e-12 * left_reference[s].abs().max(1.0));
            prop_assert!((right_serial[s] - right_reference[s]).abs() <= 1e-12 * right_reference[s].abs().max(1.0));
        }

        // Sharded operator kernels and materialisation are bit-identical to
        // their serial counterparts for every thread count.
        for &threads in &THREAD_COUNTS {
            let exec = ExecOptions::with_threads(threads);
            let mut y = vec![f64::NAN; n];
            op.left_multiply_exec(&x, &mut y, &exec).unwrap();
            prop_assert_eq!(&y, &left_serial);
            let mut y = vec![f64::NAN; n];
            op.right_multiply_exec(&x, &mut y, &exec).unwrap();
            prop_assert_eq!(&y, &right_serial);
            let sharded = product.materialize(&exec).unwrap();
            prop_assert_eq!(&sharded, &joint);
        }
    }

    #[test]
    fn product_form_is_stationary_for_the_joint_chain(
        sizes in factor_sizes(),
        seed in 1u64..10_000,
    ) {
        let product = QuotientProduct::from_chains(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (format!("f{i}"), ring_chain(n, seed * 31 + i as u64)))
                .collect(),
        )
        .unwrap();
        let marginals: Vec<Vec<f64>> = (0..product.num_factors())
            .map(|i| {
                SteadyStateSolver::new(product.factor(i))
                    .tolerance(1e-13)
                    .solve()
                    .unwrap()
            })
            .collect();
        let joint_guess = product.product_distribution(&marginals).unwrap();
        let residual = product
            .balance_residual(&joint_guess, &ExecOptions::serial())
            .unwrap();
        prop_assert!(residual < 1e-9, "residual {residual}");

        // Marginals of the outer product recover the factors exactly.
        for (i, marginal) in marginals.iter().enumerate() {
            let recovered = product.marginal(i, &joint_guess).unwrap();
            for (a, b) in recovered.iter().zip(marginal.iter()) {
                prop_assert!((a - b).abs() < 1e-10);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sorted-tuple orbit folding of interchangeable factors: for a product
    /// of `copies` identical chains (plus one odd factor), the orbit chain
    /// must carry the multiset-count state space, aggregate the joint
    /// stationary distribution exactly, and certify its uniform expansion
    /// against the matrix-free Kronecker sum — for every thread count.
    #[test]
    fn orbit_quotient_agrees_with_the_unreduced_product(
        copies in 2usize..=3,
        size in 2usize..=4,
        seed in 1u64..10_000,
    ) {
        let mut factors: Vec<(String, Ctmc)> = (0..copies)
            .map(|i| (format!("twin{i}"), ring_chain(size, seed)))
            .collect();
        factors.push(("odd".to_string(), ring_chain(size + 1, seed * 7 + 1)));
        let product = QuotientProduct::from_chains(factors).unwrap();

        let classes = product.factor_classes();
        prop_assert!(classes[..copies].iter().all(|&c| c == 0));
        prop_assert_eq!(classes[copies], 1);

        let orbit = product.orbit().expect("identical twins fold");
        // Multisets of `copies` over `size` local states, times the odd factor.
        let mut expected = size + 1;
        let mut binom = 1usize;
        for i in 0..copies {
            binom = binom * (size + i) / (i + 1);
        }
        expected *= binom;
        prop_assert_eq!(orbit.num_orbits(), expected);
        let covered: usize = (0..orbit.num_orbits()).map(|o| orbit.orbit_size(o)).sum();
        prop_assert_eq!(covered, product.num_states());

        let serial = ExecOptions::serial();
        let reference = orbit.materialize(&product, &serial).unwrap();
        for &threads in THREAD_COUNTS.iter() {
            let sharded = orbit
                .materialize(&product, &ExecOptions::with_threads(threads))
                .unwrap();
            prop_assert!(sharded == reference, "{threads} threads differ");
        }

        // The aggregated joint stationary distribution solves the orbit
        // chain, and its uniform expansion solves the joint chain.
        let joint = product.materialize(&serial).unwrap();
        let joint_pi = SteadyStateSolver::new(&joint)
            .tolerance(1e-13)
            .solve()
            .unwrap();
        let orbit_pi = SteadyStateSolver::new(&reference)
            .tolerance(1e-13)
            .solve()
            .unwrap();
        let aggregated = orbit.aggregate_distribution(&product, &joint_pi);
        for (a, b) in aggregated.iter().zip(orbit_pi.iter()) {
            prop_assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
        }
        let expanded = orbit.expand_distribution(&product, &orbit_pi);
        let residual = product.balance_residual(&expanded, &serial).unwrap();
        prop_assert!(residual < 1e-9, "residual {residual}");
    }
}

/// A random labelled chain of `n` states for the reference oracle: about two
/// thirds of all off-diagonal pairs carry a transition, the initial
/// distribution spreads over every state, and two labels mark states.
fn oracle_chain(n: usize, seed: u64) -> Ctmc {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = CtmcBuilder::new(n);
    for from in 0..n {
        for to in (0..n).filter(|&to| to != from) {
            if next() % 3 != 0 {
                let rate = 0.05 + (next() % 1000) as f64 / 250.0;
                builder.add_transition(from, to, rate).unwrap();
            }
        }
    }
    let weights: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 7) as f64).collect();
    let total: f64 = weights.iter().sum();
    builder
        .set_initial_distribution(weights.iter().map(|w| w / total).collect())
        .unwrap();
    builder
        .add_label_mask("even", (0..n).map(|s| s % 2 == 0).collect())
        .unwrap();
    builder
        .add_label_mask("marked", (0..n).map(|_| next() % 2 == 0).collect())
        .unwrap();
    builder.build().unwrap()
}

/// Factor sizes and strides of a product, read through its public API.
fn radices(product: &QuotientProduct) -> (Vec<usize>, Vec<usize>) {
    let sizes: Vec<usize> = (0..product.num_factors())
        .map(|i| product.factor(i).num_states())
        .collect();
    let mut strides = vec![1; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    (sizes, strides)
}

/// Digit `factor` of joint state `s` by the division formula.
fn digit(s: usize, factor: usize, sizes: &[usize], strides: &[usize]) -> usize {
    (s / strides[factor]) % sizes[factor]
}

/// The joint initial distribution by the division formula: per state, the
/// factor initials multiplied from 1.0 in factor order.
fn reference_initial(product: &QuotientProduct) -> Vec<f64> {
    let (sizes, strides) = radices(product);
    (0..product.num_states())
        .map(|s| {
            (0..product.num_factors()).fold(1.0, |p, i| {
                p * product.factor(i).initial_distribution()[digit(s, i, &sizes, &strides)]
            })
        })
        .collect()
}

/// Every factor label's cylinder under `{factor}/{label}`, by division.
fn reference_labels(product: &QuotientProduct) -> Vec<(String, Vec<bool>)> {
    let (sizes, strides) = radices(product);
    let mut labels = Vec::new();
    for i in 0..product.num_factors() {
        let chain = product.factor(i);
        for label in chain.label_names() {
            let mask = chain.label(label).unwrap();
            let joint = (0..product.num_states())
                .map(|s| mask[digit(s, i, &sizes, &strides)])
                .collect();
            labels.push((format!("{}/{label}", product.names()[i]), joint));
        }
    }
    labels
}

/// The joint chain as triplets through `CtmcBuilder`, which sorts them:
/// every factor's moves of every joint state, found by division.
fn reference_materialize(product: &QuotientProduct) -> Ctmc {
    let (sizes, strides) = radices(product);
    let mut builder = CtmcBuilder::new(product.num_states());
    for s in 0..product.num_states() {
        for i in 0..product.num_factors() {
            let local = digit(s, i, &sizes, &strides);
            let (targets, rates) = product.factor(i).rate_matrix().row(local);
            for (&t, &rate) in targets.iter().zip(rates) {
                builder
                    .add_transition(s, s + t * strides[i] - local * strides[i], rate)
                    .unwrap();
            }
        }
    }
    builder
        .set_initial_distribution(reference_initial(product))
        .unwrap();
    for (name, mask) in reference_labels(product) {
        builder.add_label_mask(name, mask).unwrap();
    }
    builder.build().unwrap()
}

/// The orbit chain by the division formula and a `BTreeMap` per row: each
/// representative's moves, factors in order and each in CSR order, summed
/// per target orbit from 0.0 in that encounter order.
fn reference_orbit_chain(product: &QuotientProduct, orbit: &ProductOrbit) -> Ctmc {
    let (sizes, strides) = radices(product);
    let mut builder = CtmcBuilder::new(orbit.num_orbits());
    for (from, &source) in orbit.representatives().iter().enumerate() {
        let mut outgoing: BTreeMap<usize, f64> = BTreeMap::new();
        for i in 0..product.num_factors() {
            let local = digit(source, i, &sizes, &strides);
            let (targets, rates) = product.factor(i).rate_matrix().row(local);
            for (&t, &rate) in targets.iter().zip(rates) {
                let neighbor = source + t * strides[i] - local * strides[i];
                let to = orbit.orbit_of(product, neighbor);
                if to != from {
                    *outgoing.entry(to).or_insert(0.0) += rate;
                }
            }
        }
        for (to, rate) in outgoing {
            builder.add_transition(from, to, rate).unwrap();
        }
    }
    let mut initial = vec![0.0; orbit.num_orbits()];
    for (s, p) in reference_initial(product).into_iter().enumerate() {
        initial[orbit.orbit_of(product, s)] += p;
    }
    builder.set_initial_distribution(initial).unwrap();
    for (name, joint) in reference_labels(product) {
        let folded: Vec<bool> = orbit.representatives().iter().map(|&r| joint[r]).collect();
        if (0..product.num_states()).all(|s| joint[s] == folded[orbit.orbit_of(product, s)]) {
            builder.add_label_mask(name, folded).unwrap();
        }
    }
    builder.build().unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Rows, rate bits, exit-rate bits, initial-distribution bits and labels.
fn assert_same_chain(got: &Ctmc, want: &Ctmc) -> TestCaseResult {
    prop_assert_eq!(got.num_states(), want.num_states());
    prop_assert_eq!(got.num_transitions(), want.num_transitions());
    for s in 0..want.num_states() {
        let (got_cols, got_rates) = got.rate_matrix().row(s);
        let (want_cols, want_rates) = want.rate_matrix().row(s);
        prop_assert_eq!(got_cols, want_cols, "row {}", s);
        prop_assert_eq!(bits(got_rates), bits(want_rates), "row {}", s);
    }
    prop_assert_eq!(bits(got.exit_rates()), bits(want.exit_rates()));
    prop_assert_eq!(
        bits(got.initial_distribution()),
        bits(want.initial_distribution())
    );
    let got_labels: Vec<&str> = got.label_names().collect();
    let want_labels: Vec<&str> = want.label_names().collect();
    prop_assert_eq!(&got_labels, &want_labels);
    for name in want_labels {
        prop_assert_eq!(got.label(name), want.label(name), "label {}", name);
    }
    Ok(())
}

/// The product of `sizes.len()` oracle chains, with factor `one` (when in
/// range) a one-state chain.
fn oracle_product(sizes: &[usize], one: usize, seed: u64) -> QuotientProduct {
    QuotientProduct::from_chains(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let n = if i == one { 1 } else { n };
                (format!("f{i}"), oracle_chain(n, seed * 17 + i as u64))
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The row writer against triplets sorted by `CtmcBuilder`, bit for bit,
    /// at every thread count.
    #[test]
    fn materialisation_matches_the_triplet_reference(
        sizes in proptest::collection::vec(1usize..=5, 1..=4),
        one in 0usize..6,
        seed in 1u64..10_000,
    ) {
        let product = oracle_product(&sizes, one, seed);
        let reference = reference_materialize(&product);
        for threads in [1usize, 2, 4, 8] {
            let joint = product.materialize(&ExecOptions::with_threads(threads)).unwrap();
            assert_same_chain(&joint, &reference)?;
        }
    }

    /// Every odometer pass against the division formula, bit for bit.
    #[test]
    fn odometer_passes_match_the_division_formula(
        sizes in proptest::collection::vec(1usize..=5, 1..=4),
        one in 0usize..6,
        seed in 1u64..10_000,
    ) {
        let product = oracle_product(&sizes, one, seed);
        let (sizes, strides) = radices(&product);
        let n = product.num_states();
        let k = product.num_factors();
        let per_factor: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..sizes[i]).map(|b| ((b + i) as f64 * 0.37 + seed as f64).sin() + 1.1).collect())
            .collect();
        for i in 0..k {
            let mask: Vec<bool> = (0..sizes[i]).map(|b| (b + seed as usize).is_multiple_of(3)).collect();
            let want: Vec<bool> = (0..n).map(|s| mask[digit(s, i, &sizes, &strides)]).collect();
            prop_assert_eq!(product.expand_mask(i, &mask).unwrap(), want);
            let want: Vec<f64> = (0..n).map(|s| per_factor[i][digit(s, i, &sizes, &strides)]).collect();
            prop_assert_eq!(bits(&product.expand_values(i, &per_factor[i]).unwrap()), bits(&want));
        }
        let want: Vec<f64> = (0..n)
            .map(|s| (0..k).fold(1.0, |p, i| p * per_factor[i][digit(s, i, &sizes, &strides)]))
            .collect();
        let joint = product.product_distribution(&per_factor).unwrap();
        prop_assert_eq!(bits(&joint), bits(&want));
        for i in 0..k {
            let mut want = vec![0.0; sizes[i]];
            for (s, &p) in joint.iter().enumerate() {
                want[digit(s, i, &sizes, &strides)] += p;
            }
            prop_assert_eq!(bits(&product.marginal(i, &joint).unwrap()), bits(&want));
        }
        let rewards: Vec<RewardStructure> = per_factor
            .iter()
            .map(|values| RewardStructure::new("cost", values.clone()).unwrap())
            .collect();
        let present: Vec<Option<&RewardStructure>> = rewards
            .iter()
            .enumerate()
            .map(|(i, r)| (i != one).then_some(r))
            .collect();
        let want: Vec<f64> = (0..n)
            .map(|s| {
                let mut contributions: Vec<f64> = (0..k)
                    .filter(|&i| present[i].is_some())
                    .map(|i| per_factor[i][digit(s, i, &sizes, &strides)])
                    .collect();
                contributions.sort_by(f64::total_cmp);
                contributions.iter().sum::<f64>()
            })
            .collect();
        let summed = product.sum_rewards("cost", &present).unwrap();
        prop_assert_eq!(bits(summed.state_rewards()), bits(&want));
        let want: Vec<f64> = (0..n)
            .map(|s| {
                (0..k).fold(0.0, |e, i| {
                    e + product.factor(i).exit_rates()[digit(s, i, &sizes, &strides)]
                })
            })
            .collect();
        prop_assert_eq!(bits(&product.exit_rates()), bits(&want));

        // The operator applies: factor by factor, each in CSR order.
        let x: Vec<f64> = (0..n).map(|s| (s as f64 * 0.61).cos() + 1.3).collect();
        let transposed: Vec<_> = (0..k).map(|i| product.factor(i).rate_matrix().transpose()).collect();
        for (left, matrices) in [
            (true, transposed.iter().collect::<Vec<_>>()),
            (false, (0..k).map(|i| product.factor(i).rate_matrix()).collect()),
        ] {
            let want: Vec<f64> = (0..n)
                .map(|s| {
                    let mut acc = 0.0;
                    for (i, matrix) in matrices.iter().enumerate() {
                        let local = digit(s, i, &sizes, &strides);
                        let (cols, values) = matrix.row(local);
                        for (&c, &v) in cols.iter().zip(values) {
                            acc += v * x[s + c * strides[i] - local * strides[i]];
                        }
                    }
                    acc
                })
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let exec = ExecOptions::with_threads(threads);
                let mut y = vec![f64::NAN; n];
                if left {
                    product.operator().left_multiply_exec(&x, &mut y, &exec).unwrap();
                } else {
                    product.operator().right_multiply_exec(&x, &mut y, &exec).unwrap();
                }
                prop_assert_eq!(bits(&y), bits(&want), "left {} threads {}", left, threads);
            }
        }
    }

    /// The orbit walk and the orbit chain against the division formula and
    /// the `BTreeMap` reference, bit for bit, at every thread count.
    #[test]
    fn orbit_materialisation_matches_the_btreemap_reference(
        copies in 2usize..=3,
        twin_size in 1usize..=4,
        odd_size in 1usize..=5,
        seed in 1u64..10_000,
    ) {
        let mut factors: Vec<(String, Ctmc)> = (0..copies)
            .map(|i| (format!("twin{i}"), oracle_chain(twin_size, seed)))
            .collect();
        factors.push(("odd".to_string(), oracle_chain(odd_size, seed * 7 + 1)));
        let product = QuotientProduct::from_chains(factors).unwrap();
        let orbit = product.orbit().expect("identical twins fold");

        // Representatives are the sorted tuples, every tuple joins the orbit
        // of its sorted form, and orbit sizes count the arrangements.
        let classes = orbit.classes();
        let mut representatives = Vec::new();
        for s in 0..product.num_states() {
            let tuple = product.tuple_of(s);
            let mut sorted = tuple.clone();
            classes.canonicalize(&mut sorted);
            if sorted == tuple {
                prop_assert_eq!(orbit.orbit_of(&product, s), representatives.len());
                prop_assert_eq!(orbit.orbit_size(representatives.len()), classes.orbit_size(&tuple));
                representatives.push(s);
            } else {
                let representative = product.index_of(&sorted).unwrap();
                prop_assert_eq!(orbit.orbit_of(&product, s), orbit.orbit_of(&product, representative));
            }
        }
        prop_assert_eq!(orbit.representatives(), &representatives[..]);

        let reference = reference_orbit_chain(&product, &orbit);
        for threads in [1usize, 2, 4, 8] {
            let chain = orbit
                .materialize(&product, &ExecOptions::with_threads(threads))
                .unwrap();
            assert_same_chain(&chain, &reference)?;
        }
    }
}

/// Fifteen complete 16-state factors: 2^60 joint states fit in `usize`,
/// about 2^68 joint transitions do not. The writer refuses the product
/// before it allocates the rows (which would abort, not return).
#[cfg(target_pointer_width = "64")]
#[test]
fn materialisation_refuses_a_transition_count_that_overflows() {
    let mut complete = CtmcBuilder::new(16);
    for from in 0..16 {
        for to in (0..16).filter(|&to| to != from) {
            complete.add_transition(from, to, 1.0).unwrap();
        }
    }
    let complete = complete.build().unwrap();
    let product = QuotientProduct::from_chains(
        (0..15)
            .map(|i| (format!("f{i}"), complete.clone()))
            .collect(),
    )
    .unwrap();
    assert_eq!(product.num_states(), 1 << 60);
    assert_eq!(product.num_transitions(), usize::MAX);
    assert!(matches!(
        product.materialize(&ExecOptions::serial()),
        Err(LumpError::InvalidProduct { .. })
    ));
}
