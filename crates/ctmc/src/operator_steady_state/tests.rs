use crate::error::CtmcError;
use crate::exec::ExecOptions;
use crate::markov::{Ctmc, CtmcBuilder};
use crate::ops::LinearOperator;
use crate::sparse::SparseMatrixBuilder;
use crate::steady_state::SteadyStateSolver;
use crate::transient::{TransientOptions, TransientSolver};

fn two_state(lambda: f64, mu: f64) -> Ctmc {
    let mut b = CtmcBuilder::new(2);
    b.add_transition(0, 1, lambda).unwrap();
    b.add_transition(1, 0, mu).unwrap();
    b.build().unwrap()
}

/// Irreducible ring chain with shortcut chords, large enough to clear the
/// parallel-work threshold.
fn ring_chain(n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new(n);
    for s in 0..n {
        b.add_transition(s, (s + 1) % n, 1.0 + (s % 5) as f64)
            .unwrap();
        b.add_transition(s, (s + n / 2 + s % 7) % n, 2.0).unwrap();
    }
    b.build().unwrap()
}

/// The matrix-free input of a chain: its rate matrix as a bare operator.
fn operator_of(chain: &Ctmc) -> SteadyStateSolver<'_> {
    SteadyStateSolver::from_operator(chain.rate_matrix(), chain.exit_rates().to_vec()).unwrap()
}

/// Damped Jacobi from the uniform start with `solver`'s settings, called
/// directly: a converging Krylov solve never reaches it.
fn jacobi_from_uniform(
    solver: &SteadyStateSolver<'_>,
    chain: &Ctmc,
) -> Result<(Vec<f64>, usize), CtmcError> {
    let n = chain.num_states();
    solver.damped_jacobi(
        chain.rate_matrix(),
        chain.exit_rates(),
        vec![1.0 / n as f64; n],
    )
}

#[test]
fn stiff_two_state_matches_closed_form_for_every_method() {
    // Repair rate two orders of magnitude above the failure rate — the
    // stiffness regime of the paper's component models.
    let chain = two_state(0.002, 0.2);
    let expected_down = 0.002 / 0.202;
    let solver = operator_of(&chain).tolerance(1e-12);
    let (krylov, _, tier) = solver.solve_reported().unwrap();
    assert_eq!(tier, "krylov-operator");
    let (jacobi, _) = jacobi_from_uniform(&solver, &chain).unwrap();
    for (method, pi) in [("krylov", krylov), ("jacobi", jacobi)] {
        assert!((pi[1] - expected_down).abs() < 1e-9, "{method}: {}", pi[1]);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{method}");
    }
}

#[test]
fn matches_the_materialised_solver_on_a_ring_chain() {
    let chain = ring_chain(600);
    let reference = SteadyStateSolver::new(&chain)
        .tolerance(1e-13)
        .solve()
        .unwrap();
    let solver = operator_of(&chain).tolerance(1e-13);
    let krylov = solver.solve().unwrap();
    let (jacobi, _) = jacobi_from_uniform(&solver, &chain).unwrap();
    for (method, pi) in [("krylov", krylov), ("jacobi", jacobi)] {
        for (a, b) in pi.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-10, "{method}: {a} vs {b}");
        }
    }
}

#[test]
fn sharded_solves_are_bit_identical_to_serial() {
    // The operator applies shard: every thread count must take the same
    // number of applies to exactly the same vector. The damped-Jacobi sweeps
    // are checked in `steady_state::tests::sharded_sweeps_are_bit_identical_to_serial`.
    let chain = ring_chain(2200);
    let solve = |exec: ExecOptions| {
        operator_of(&chain)
            .tolerance(1e-8)
            .exec(exec)
            .solve_reported()
            .unwrap()
    };
    let reference = solve(ExecOptions::serial());
    assert_eq!(reference.2, "krylov-operator");
    for threads in [1usize, 2, 4, 8] {
        let sharded = solve(ExecOptions::with_threads(threads));
        assert_eq!(sharded, reference, "{threads} threads");
    }
}

#[test]
fn warm_start_shortens_the_krylov_solve_and_keeps_the_fixed_point() {
    let chain = ring_chain(600);
    let solver = |guess: Option<Vec<f64>>| {
        let mut s = operator_of(&chain).tolerance(1e-12);
        if let Some(g) = guess {
            s = s.initial_guess(g);
        }
        s.solve_counted().unwrap()
    };
    let (cold, cold_applies) = solver(None);
    let (warm, warm_applies) = solver(Some(cold.clone()));
    assert!(
        warm_applies <= cold_applies,
        "{warm_applies} > {cold_applies}"
    );
    for (a, b) in warm.iter().zip(cold.iter()) {
        assert!((a - b).abs() < 1e-10);
    }
    // A zero-mass guess falls back to the uniform start.
    let (fallback, _) = solver(Some(vec![0.0; 600]));
    for (a, b) in fallback.iter().zip(cold.iter()) {
        assert!((a - b).abs() < 1e-10);
    }
}

#[test]
fn balance_residual_certifies_the_solution() {
    let chain = ring_chain(600);
    let solver = operator_of(&chain).tolerance(1e-12);
    let pi = solver.solve().unwrap();
    // The certificate is an unscaled balance residual; rates here are
    // O(1), so the solve tolerance bounds it up to the uniformisation
    // factor.
    assert!(solver.balance_residual(&pi).unwrap() < 1e-9);
    let uniform = vec![1.0 / 600.0; 600];
    let residual = solver.balance_residual(&uniform).unwrap();
    assert!(residual > 1e-6);
    // One certificate for both inputs: the chain input computes the same bits.
    assert_eq!(
        SteadyStateSolver::new(&chain)
            .balance_residual(&uniform)
            .unwrap(),
        residual
    );
    assert!(solver.balance_residual(&[1.0]).is_err());
}

#[test]
fn validation_mirrors_the_transient_operator_solver() {
    let chain = two_state(1.0, 2.0);
    let rates = chain.rate_matrix();
    let mut b = SparseMatrixBuilder::new(2, 3);
    b.push(0, 1, 1.0);
    let rect = b.build();
    let invalid: [(&dyn LinearOperator, Vec<f64>); 4] = [
        (rates, vec![0.0; 3]),
        (rates, vec![-1.0, 0.0]),
        (rates, vec![f64::NAN, 0.0]),
        (&rect, vec![0.0; 2]),
    ];
    for (rates, exit_rates) in invalid {
        let steady = SteadyStateSolver::from_operator(rates, exit_rates.clone()).err();
        let transient = TransientSolver::from_operator(
            rates,
            exit_rates.clone(),
            vec![0.5, 0.5],
            TransientOptions::default(),
        )
        .err();
        assert!(steady.is_some(), "{exit_rates:?}");
        assert_eq!(steady, transient, "{exit_rates:?}");
    }
}

#[test]
fn transition_free_operator_returns_the_start() {
    let empty = SparseMatrixBuilder::new(3, 3).build();
    let (pi, applies) = SteadyStateSolver::from_operator(&empty, vec![0.0; 3])
        .unwrap()
        .solve_counted()
        .unwrap();
    assert_eq!(pi, vec![1.0 / 3.0; 3]);
    assert_eq!(applies, 0);
}

#[test]
fn iteration_cap_produces_not_converged() {
    // Asymmetric rates so the uniform start is not already the answer. One
    // apply can converge neither Krylov (it needs the initial residual apply
    // plus an Arnoldi step) nor its damped-Jacobi fallback.
    let chain = two_state(1.0, 3.0);
    let result = operator_of(&chain)
        .max_iterations(1)
        .tolerance(1e-16)
        .solve();
    assert!(
        matches!(result, Err(CtmcError::NotConverged { .. })),
        "{result:?}"
    );
}

#[test]
fn stalled_krylov_falls_back_to_damped_jacobi() {
    // A directed 8-cycle with unit rates from a point mass: GMRES(1)
    // stalls far from the answer, damped Jacobi converges. The solve
    // reports the fallback tier and lands on the Gauss–Seidel answer.
    let n = 8;
    let mut b = CtmcBuilder::new(n);
    for s in 0..n {
        b.add_transition(s, (s + 1) % n, 1.0).unwrap();
    }
    let chain = b.build().unwrap();
    let reference = SteadyStateSolver::new(&chain).solve().unwrap();
    let mut point_mass = vec![0.0; n];
    point_mass[0] = 1.0;
    let (pi, iterations, tier) = operator_of(&chain)
        .restart(1)
        .max_iterations(2000)
        .tolerance(1e-12)
        .initial_guess(point_mass)
        .solve_reported()
        .unwrap();
    assert_eq!(tier, "jacobi-operator");
    assert!(iterations > 2000, "the stalled applies count too");
    for (a, b) in pi.iter().zip(reference.iter()) {
        assert!((a - b).abs() <= 1e-10, "{a} vs {b}");
    }
}

#[test]
fn tier_names_are_stable() {
    let chain = two_state(0.002, 0.2);
    let (_, _, tier) = operator_of(&chain).solve_reported().unwrap();
    assert_eq!(tier, "krylov-operator");
    // `jacobi-operator` is pinned by `stalled_krylov_falls_back_to_damped_jacobi`.
}
