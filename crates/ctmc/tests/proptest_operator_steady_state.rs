//! Property tests of the matrix-free input of the stationary solver: for
//! random irreducible chains, [`SteadyStateSolver::from_operator`] must agree
//! with the chain input to 1e-10, and the sharded solves must be
//! bit-identical for every thread count.

use ctmc::{Ctmc, CtmcBuilder, ExecOptions, SteadyStateSolver};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn operator_of(chain: &Ctmc) -> SteadyStateSolver<'_> {
    SteadyStateSolver::from_operator(chain.rate_matrix(), chain.exit_rates().to_vec()).unwrap()
}

/// An irreducible ring chain with shortcut chords and deterministic
/// pseudo-random rates derived from `seed` — the same chain family the
/// lumping product proptests use.
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
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Operator ≡ materialised on random irreducible chains: both inputs
    /// driven to a tolerance well below the comparison threshold.
    #[test]
    fn operator_methods_agree_with_the_materialised_solver(
        n in 2usize..=40,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        let reference = SteadyStateSolver::new(&chain)
            .tolerance(1e-13)
            .solve()
            .unwrap();
        let (pi, _, tier) = operator_of(&chain)
            .tolerance(1e-13)
            .solve_reported()
            .unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{tier}");
        for (s, (a, b)) in pi.iter().zip(reference.iter()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-10, "{tier}, state {s}: {a} vs {b}");
        }
    }

    /// The sharded solves are bit-identical (same vector, same apply count,
    /// same tier) for every thread count.
    #[test]
    fn sharded_operator_solves_are_bit_identical(
        n in 8usize..=40,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        let reference = operator_of(&chain)
            .exec(ExecOptions::serial())
            .solve_reported()
            .unwrap();
        for &threads in &THREAD_COUNTS {
            let sharded = operator_of(&chain)
                .exec(ExecOptions::with_threads(threads))
                .solve_reported()
                .unwrap();
            prop_assert_eq!(&sharded, &reference, "{} threads", threads);
        }
        // The balance-residual certificate accepts the solution.
        prop_assert!(operator_of(&chain).balance_residual(&reference.0).unwrap() < 1e-7);
    }
}
