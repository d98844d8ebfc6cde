//! Long-run (steady-state) analysis.
//!
//! [`SteadyStateSolver`] picks its method from its input:
//!
//! * **A chain** ([`SteadyStateSolver::new`]). For an irreducible CTMC the
//!   steady-state distribution is the unique probability vector solving
//!   `pi Q = 0`. For reducible chains the standard decomposition applies: all
//!   long-run mass lives in the bottom strongly connected components
//!   (BSCCs); the solver computes the probability of ending up in each BSCC
//!   (via the embedded jump chain) and combines it with the local
//!   steady-state distribution of each BSCC, solved by Gauss–Seidel. This is
//!   what the CSL steady-state operator `S=? [ phi ]` evaluates.
//! * **A rate operator plus exit rates**
//!   ([`SteadyStateSolver::from_operator`]), e.g. the Kronecker sum of
//!   per-line quotient generators from `arcade_lumping::product`. The
//!   balance equations `pi_s E(s) = sum_{s'} pi_{s'} R[s'][s]` are driven
//!   through the operator's sharded left-multiply kernel — the joint
//!   generator is never stored, so a facility product of `k` line quotients
//!   solves in `O(states)` memory instead of `O(transitions)`. Restarted
//!   GMRES on the normalised balance equations converges in a handful of
//!   operator applies where stationary iterations need thousands on stiff
//!   chains (repair rates four orders of magnitude above failure rates, as
//!   in the water-treatment models); if it stalls, damped Jacobi takes over
//!   from the same start. There is no BSCC decomposition on this path: the
//!   caller guarantees the operator describes a single irreducible chain
//!   (e.g. a product of irreducible factors).
//!
//! [`SteadyStateSolver::solve_reported`] names the tier that produced the
//! answer: `gauss-seidel`, `krylov-operator` or `jacobi-operator`.
//!
//! # Determinism
//!
//! Every tier is bit-identical for every thread count: Gauss–Seidel sweeps
//! are serial (see [`SteadyStateSolver::exec`]), operator applies are
//! bit-identical by the [`crate::ops`] contract, the damped-Jacobi update
//! merges per-shard maxima with the order-independent `f64::max`, and every
//! Krylov reduction (dot products, norms, the re-orthogonalisation pass) runs
//! serially in state-index order. The chain and operator inputs of the same
//! chain agree to numerical tolerance, not bit-for-bit.

use arcade_telemetry::Recorder;

use crate::error::CtmcError;
use crate::exec::{self, ExecOptions};
use crate::graph::bottom_sccs;
use crate::markov::{Ctmc, StateIndex};
use crate::ops::{Generator, LinearOperator};
use crate::sparse::{SparseMatrix, SparseMatrixBuilder};
use crate::{DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

/// Tier of a chain solve: Gauss–Seidel per BSCC.
const GAUSS_SEIDEL: &str = "gauss-seidel";

/// Tier of an operator solve that restarted GMRES certified.
const KRYLOV_OPERATOR: &str = "krylov-operator";

/// Tier of an operator solve that fell back to damped Jacobi.
const JACOBI_OPERATOR: &str = "jacobi-operator";

/// Headroom applied to the maximal exit rate when scaling the Krylov system
/// by the uniformisation rate.
const UNIFORMIZATION_FACTOR: f64 = 1.02;

/// Damping of the Jacobi update (averaging it with the previous iterate),
/// which prevents the oscillation Jacobi is prone to on nearly-periodic
/// chains.
const DAMPING: f64 = 0.5;

/// Default Krylov restart length: `restart + 2` basis vectors bound the
/// solver's memory at roughly `32 * num_states` doubles.
const DEFAULT_RESTART: usize = 30;

/// Steady-state solver for a labelled chain or a matrix-free rate operator
/// (see the module docs for how the input selects the method).
#[derive(Debug, Clone)]
pub struct SteadyStateSolver<'a> {
    generator: Generator<'a>,
    tolerance: f64,
    max_iterations: usize,
    restart: usize,
    exec: ExecOptions,
    initial_guess: Option<Vec<f64>>,
    recorder: Recorder,
}

impl<'a> SteadyStateSolver<'a> {
    /// Creates a solver for a chain (BSCC decomposition, Gauss–Seidel per
    /// BSCC) with the default tolerances. Telemetry defaults to the ambient
    /// [`Recorder::current`] scope.
    pub fn new(chain: &'a Ctmc) -> Self {
        Self::with_generator(Generator::Chain(chain))
    }

    /// Creates a matrix-free solver for the rate operator `rates` with the
    /// given exit rates: restarted GMRES with the damped-Jacobi fallback.
    ///
    /// ```
    /// use ctmc::sparse::SparseMatrixBuilder;
    /// use ctmc::{ExecOptions, SteadyStateSolver};
    ///
    /// // A two-state repairable component as a bare operator: fail 0.002/h,
    /// // repair 0.2/h.
    /// let mut b = SparseMatrixBuilder::new(2, 2);
    /// b.push(0, 1, 0.002);
    /// b.push(1, 0, 0.2);
    /// let rates = b.build();
    /// let (pi, _, tier) = SteadyStateSolver::from_operator(&rates, vec![0.002, 0.2])
    ///     .unwrap()
    ///     .exec(ExecOptions::serial())
    ///     .solve_reported()
    ///     .unwrap();
    /// assert!((pi[1] - 0.002 / 0.202).abs() < 1e-12);
    /// assert_eq!(tier, "krylov-operator");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the operator is not square
    /// or `exit_rates` has the wrong length, and
    /// [`CtmcError::InvalidArgument`] for negative or non-finite exits.
    pub fn from_operator(
        rates: &'a dyn LinearOperator,
        exit_rates: Vec<f64>,
    ) -> Result<Self, CtmcError> {
        Generator::operator(rates, exit_rates).map(Self::with_generator)
    }

    fn with_generator(generator: Generator<'a>) -> Self {
        SteadyStateSolver {
            generator,
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            restart: DEFAULT_RESTART,
            exec: ExecOptions::default(),
            initial_guess: None,
            recorder: Recorder::current(),
        }
    }

    /// Overrides the telemetry recorder the solve reports spans and
    /// convergence probes to. Observability only — never changes results.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Selects the worker pool used by the operator applies, the
    /// damped-Jacobi update and the balance residual.
    ///
    /// Gauss–Seidel *sweeps* cannot shard: row `s` of a sweep reads the
    /// already-updated values of rows `< s` from the same sweep (that forward
    /// substitution is exactly why GS converges in fewer sweeps than Jacobi),
    /// so splitting the sweep across workers would either change the iterates
    /// (block-Jacobi hybrid, different fixed-point trajectory and thus
    /// thread-count-dependent results) or serialise on a dependency chain the
    /// length of the state space. The GS path therefore keeps its sweep
    /// serial and shards only the embarrassingly parallel residual norm. The
    /// knob never changes results.
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Warm-starts the iteration from `guess` (a nonnegative vector over the
    /// *full* state space; it is restricted to each irreducible subset and
    /// normalised there, falling back to the uniform start when the guess
    /// carries no mass on a subset). The fixed point is unchanged — a good
    /// guess only shortens the iteration, and a converged result still
    /// satisfies the same stopping criterion as a cold start. For
    /// Kronecker-sum products the product of the factor stationary
    /// distributions is *exactly* stationary, so a warm-started operator
    /// solve converges in a handful of applies and acts as an independent
    /// validation of the product-form argument.
    pub fn initial_guess(mut self, guess: Vec<f64>) -> Self {
        self.initial_guess = Some(guess);
        self
    }

    /// Sets the convergence tolerance: the maximum change per sweep
    /// (Gauss–Seidel, damped Jacobi), the mass not yet absorbed (the BSCC
    /// weights of a reducible chain) or the maximum normalised-balance
    /// residual (Krylov).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the iteration cap: jump steps of the BSCC absorption and sweeps
    /// per BSCC for a chain; operator applies of the Krylov solve and sweeps
    /// of its fallback for an operator.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the Krylov restart length of an operator solve (a chain ignores
    /// it). The solver keeps `restart + 2` basis vectors, so this bounds its
    /// working memory.
    pub fn restart(mut self, restart: usize) -> Self {
        self.restart = restart.max(1);
        self
    }

    /// Computes the steady-state distribution, taking a chain's initial
    /// distribution into account when it has several BSCCs.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotConverged`] if an iterative solve fails to
    /// reach the requested tolerance within the iteration cap, and
    /// validation errors for a malformed initial guess.
    pub fn solve(&self) -> Result<Vec<f64>, CtmcError> {
        self.solve_counted().map(|(pi, _)| pi)
    }

    /// [`SteadyStateSolver::solve`] plus the iteration count — the
    /// observable a warm start shortens. The distribution returned is
    /// bit-identical to [`SteadyStateSolver::solve`]'s.
    ///
    /// # Errors
    ///
    /// See [`SteadyStateSolver::solve`].
    pub fn solve_counted(&self) -> Result<(Vec<f64>, usize), CtmcError> {
        self.solve_reported()
            .map(|(pi, iterations, _)| (pi, iterations))
    }

    /// [`SteadyStateSolver::solve_counted`] plus the tier that produced the
    /// distribution: `gauss-seidel` for a chain; `krylov-operator` for an
    /// operator, or `jacobi-operator` when the Krylov iteration stalled and
    /// damped Jacobi finished the solve. Iterations are Gauss–Seidel sweeps
    /// summed over the BSCCs of a chain, and operator applies of an operator
    /// (the stalled Krylov applies included).
    ///
    /// # Errors
    ///
    /// See [`SteadyStateSolver::solve`].
    pub fn solve_reported(&self) -> Result<(Vec<f64>, usize, &'static str), CtmcError> {
        let mut span = self.recorder.span("solve");
        span.count("states", self.generator.num_states() as u64);
        let result = self.solve_inner();
        if let Ok((_, iterations, _)) = &result {
            span.count("iterations", *iterations as u64);
            if let Generator::Operator { .. } = self.generator {
                span.count("operator_applies", *iterations as u64);
            }
        }
        result
    }

    fn solve_inner(&self) -> Result<(Vec<f64>, usize, &'static str), CtmcError> {
        let n = self.generator.num_states();
        if let Some(guess) = &self.initial_guess {
            if guess.len() != n {
                return Err(CtmcError::DimensionMismatch {
                    expected: n,
                    actual: guess.len(),
                });
            }
            if guess.iter().any(|&g| !g.is_finite() || g < 0.0) {
                return Err(CtmcError::InvalidArgument {
                    reason: "initial guess must be nonnegative and finite".to_string(),
                });
            }
        }
        match &self.generator {
            Generator::Chain(chain) => {
                let (pi, sweeps) = self.solve_chain(chain)?;
                Ok((pi, sweeps, GAUSS_SEIDEL))
            }
            Generator::Operator { rates, exit_rates } => self.solve_operator(*rates, exit_rates),
        }
    }

    /// Computes the long-run probability of residing in any state of `states`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SteadyStateSolver::solve`] and returns
    /// [`CtmcError::StateOutOfBounds`] for invalid indices.
    pub fn probability_of(&self, states: &[StateIndex]) -> Result<f64, CtmcError> {
        let pi = self.solve()?;
        let mut total = 0.0;
        for &s in states {
            if s >= pi.len() {
                return Err(CtmcError::StateOutOfBounds {
                    state: s,
                    num_states: pi.len(),
                });
            }
            total += pi[s];
        }
        Ok(total)
    }

    /// Computes the long-run probability of the given label; `Ok(None)` when
    /// the label is not attached to the chain (an operator carries none).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SteadyStateSolver::solve`].
    pub fn probability_of_label(&self, label: &str) -> Result<Option<f64>, CtmcError> {
        let Generator::Chain(chain) = &self.generator else {
            return Ok(None);
        };
        match chain.states_with_label(label) {
            None => Ok(None),
            Some(states) => self.probability_of(&states).map(Some),
        }
    }

    /// Maximum absolute balance-equation residual of `pi` against the full
    /// rate matrix or operator: `max_s |(pi R)_s - pi_s E(s)|`.
    ///
    /// This is an independent certificate of a (possibly externally
    /// computed) stationary vector: a tiny residual means `pi` satisfies
    /// *this* generator's balance equations, regardless of how it was
    /// obtained. One sharded operator apply plus an elementwise pass,
    /// bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] on a length mismatch.
    pub fn balance_residual(&self, pi: &[f64]) -> Result<f64, CtmcError> {
        balance_residual(
            self.generator.rates(),
            self.generator.exit_rates(),
            pi,
            &self.exec,
        )
    }

    /// The chain path: one Gauss–Seidel solve for an irreducible chain;
    /// otherwise BSCC absorption probabilities times the conditional steady
    /// state inside each BSCC.
    fn solve_chain(&self, chain: &Ctmc) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = chain.num_states();
        let bsccs = bottom_sccs(chain);
        if bsccs.len() == 1 && bsccs[0].len() == n {
            return self.solve_irreducible_subset(chain, &bsccs[0]);
        }
        let absorption = self.bscc_absorption_probabilities(chain, &bsccs)?;
        let mut result = vec![0.0; n];
        let mut iterations = 0;
        for (bscc, mass) in bsccs.iter().zip(absorption.iter()) {
            if *mass <= 0.0 {
                continue;
            }
            if bscc.len() == 1 {
                result[bscc[0]] += mass;
                continue;
            }
            let (local, local_iterations) = self.solve_irreducible_subset(chain, bscc)?;
            iterations += local_iterations;
            for (&s, &p) in bscc.iter().zip(local_states(&local, bscc).iter()) {
                result[s] += mass * p;
            }
        }
        Ok((result, iterations))
    }

    /// Solves the steady state restricted to an irreducible subset of states
    /// (either the full chain or one BSCC), returning the distribution over the
    /// full state space (zero outside the subset) and the number of iterative
    /// sweeps used.
    fn solve_irreducible_subset(
        &self,
        chain: &Ctmc,
        subset: &[StateIndex],
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = chain.num_states();
        if subset.len() == 1 {
            let mut pi = vec![0.0; n];
            pi[subset[0]] = 1.0;
            return Ok((pi, 0));
        }

        // Build the restricted rate matrix over local indices.
        let mut local_index = vec![usize::MAX; n];
        for (li, &s) in subset.iter().enumerate() {
            local_index[s] = li;
        }
        let m = subset.len();
        let mut builder = SparseMatrixBuilder::new(m, m);
        for (li, &s) in subset.iter().enumerate() {
            let (cols, values) = chain.rate_matrix().row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                let lj = local_index[*c];
                if lj != usize::MAX {
                    builder.push(li, lj, *v);
                }
            }
        }
        let local_rates = builder.build();
        let start = self.start_on(subset.iter().copied());
        let (local_pi, iterations) = self.gauss_seidel(&local_rates, start)?;

        let mut pi = vec![0.0; n];
        for (li, &s) in subset.iter().enumerate() {
            pi[s] = local_pi[li];
        }
        Ok((pi, iterations))
    }

    /// The starting vector of an iterative solve on `subset`: the restricted
    /// and renormalised [`SteadyStateSolver::initial_guess`] when one is set
    /// and carries mass on the subset, the uniform distribution otherwise.
    fn start_on(&self, subset: impl ExactSizeIterator<Item = StateIndex>) -> Vec<f64> {
        let m = subset.len();
        if let Some(guess) = &self.initial_guess {
            let mut local: Vec<f64> = subset.map(|s| guess[s]).collect();
            let total: f64 = local.iter().sum();
            if total > 0.0 {
                local.iter_mut().for_each(|x| *x /= total);
                return local;
            }
        }
        vec![1.0 / m as f64; m]
    }

    /// Gauss–Seidel on the balance equations `pi_s * E(s) = sum_{s'} pi_{s'} R[s'][s]`.
    ///
    /// The sweep itself is inherently serial — see [`SteadyStateSolver::exec`]
    /// — so only the residual norm reported on failure shards.
    fn gauss_seidel(
        &self,
        rates: &SparseMatrix,
        start: Vec<f64>,
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let exit: Vec<f64> = rates.row_sums();
        let incoming = rates.transpose();
        let mut pi = start;
        let m = pi.len();
        let mut probe = self.recorder.probe("residual", GAUSS_SEIDEL);

        for iteration in 0..self.max_iterations {
            let mut max_delta: f64 = 0.0;
            for s in 0..m {
                if exit[s] <= 0.0 {
                    continue;
                }
                let (cols, values) = incoming.row(s);
                let mut inflow = 0.0;
                for (c, v) in cols.iter().zip(values.iter()) {
                    if *c != s {
                        inflow += pi[*c] * v;
                    }
                }
                let new_value = inflow / exit[s];
                max_delta = max_delta.max((new_value - pi[s]).abs());
                pi[s] = new_value;
            }
            probe.record(max_delta);
            normalize(&mut pi);
            if max_delta < self.tolerance {
                return Ok((pi, iteration + 1));
            }
        }
        Err(CtmcError::NotConverged {
            solver: "gauss-seidel steady-state",
            iterations: self.max_iterations,
            residual: balance_residual(rates, &exit, &pi, &self.exec)?,
        })
    }

    /// Probability, under the chain's initial distribution, of eventual
    /// absorption into each BSCC.
    ///
    /// The initial mass on transient states is pushed through the embedded
    /// jump chain, and whatever enters a BSCC is banked there. After `k`
    /// jumps each bank holds the probability of absorption within `k` jumps,
    /// so it approaches its limit from below, and the mass still in flight
    /// bounds the error of every BSCC at once. The iteration stops once that
    /// unabsorbed mass falls below the tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotConverged`] if more than the tolerance is
    /// still unabsorbed after the iteration cap.
    fn bscc_absorption_probabilities(
        &self,
        chain: &Ctmc,
        bsccs: &[Vec<StateIndex>],
    ) -> Result<Vec<f64>, CtmcError> {
        let n = chain.num_states();
        let embedded = chain.embedded_matrix();
        let mut in_bscc = vec![usize::MAX; n];
        for (bi, bscc) in bsccs.iter().enumerate() {
            for &s in bscc {
                in_bscc[s] = bi;
            }
        }
        let mut absorbed = vec![0.0; bsccs.len()];
        let mut in_flight = vec![0.0; n];
        for (s, &p) in chain.initial_distribution().iter().enumerate() {
            match in_bscc[s] {
                usize::MAX => in_flight[s] = p,
                bi => absorbed[bi] += p,
            }
        }
        let mut next = vec![0.0; n];
        let mut steps = 0;
        loop {
            let unabsorbed: f64 = in_flight.iter().sum();
            if unabsorbed < self.tolerance {
                return Ok(absorbed);
            }
            if steps == self.max_iterations {
                return Err(CtmcError::NotConverged {
                    solver: "bscc-absorption steady-state",
                    iterations: steps,
                    residual: unabsorbed,
                });
            }
            next.iter_mut().for_each(|v| *v = 0.0);
            for (s, &p) in in_flight.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let (cols, values) = embedded.row(s);
                for (&c, &v) in cols.iter().zip(values.iter()) {
                    match in_bscc[c] {
                        usize::MAX => next[c] += p * v,
                        bi => absorbed[bi] += p * v,
                    }
                }
            }
            std::mem::swap(&mut in_flight, &mut next);
            steps += 1;
        }
    }

    /// The operator path: restarted GMRES from the (normalised) start, and
    /// damped Jacobi from the same start if the Krylov iteration stalls.
    fn solve_operator(
        &self,
        rates: &dyn LinearOperator,
        exit: &[f64],
    ) -> Result<(Vec<f64>, usize, &'static str), CtmcError> {
        let n = exit.len();
        let start = self.start_on(0..n);
        let max_exit = exit.iter().copied().fold(0.0f64, f64::max);
        if max_exit <= 0.0 {
            // No transitions at all: every distribution is stationary; return
            // the (normalised) start, matching the chain path.
            return Ok((start, 0, KRYLOV_OPERATOR));
        }
        match self.krylov(rates, exit, start, max_exit) {
            Ok((pi, applies)) => Ok((pi, applies, KRYLOV_OPERATOR)),
            Err(CtmcError::NotConverged {
                iterations: applies,
                ..
            }) => {
                let (pi, sweeps) = self.damped_jacobi(rates, exit, self.start_on(0..n))?;
                Ok((pi, applies + sweeps, JACOBI_OPERATOR))
            }
            Err(other) => Err(other),
        }
    }

    /// Restarted GMRES on the normalised balance equations.
    ///
    /// The singular system `pi Q = 0` (with `Q = (R - diag E)/q`, scaled by
    /// the uniformisation rate so the residual norm is comparable across
    /// chains of any stiffness) is made nonsingular by replacing the column
    /// of the maximal-exit state `k` with the all-ones column — i.e. solve
    /// `pi Ã = e_k` where `(x Ã)[k] = sum_s x_s` and `(x Ã)[j] = (x Q)[j]`
    /// elsewhere. Because `Q`'s rows sum to zero, any solution satisfies
    /// *all* balance equations (the replaced one included) and sums to
    /// exactly one; for an irreducible chain it is the unique stationary
    /// vector.
    ///
    /// Determinism: the Arnoldi process re-orthogonalises with a second
    /// modified-Gram–Schmidt pass in fixed basis order, and every dot
    /// product and norm is a serial fold in state-index order; only the
    /// operator applies shard, and those are bit-identical by contract.
    fn krylov(
        &self,
        rates: &dyn LinearOperator,
        exit: &[f64],
        start: Vec<f64>,
        max_exit: f64,
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = exit.len();
        let q = max_exit * UNIFORMIZATION_FACTOR;
        // First occurrence of the maximal exit rate: a deterministic pivot.
        let k = exit
            .iter()
            .position(|&e| e == max_exit)
            .expect("max_exit is attained");
        let m = self.restart.min(n);

        // One application of Ã to a row vector; counts one operator apply.
        let mut scratch = vec![0.0; n];
        let mut applies = 0usize;
        let mut x = start;
        let mut w = vec![0.0; n];
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut residual_inf = f64::INFINITY;
        let mut probe = self.recorder.probe("residual", KRYLOV_OPERATOR);

        while applies < self.max_iterations {
            // True residual r = e_k - x Ã.
            apply_modified(rates, exit, q, k, &x, &mut w, &mut scratch, &self.exec)?;
            applies += 1;
            let mut r: Vec<f64> = w.iter().map(|v| -v).collect();
            r[k] += 1.0;
            residual_inf = r.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
            probe.record(residual_inf);
            if residual_inf < self.tolerance {
                clamp_normalize(&mut x);
                return Ok((x, applies));
            }
            let beta = norm2(&r);
            if beta == 0.0 {
                clamp_normalize(&mut x);
                return Ok((x, applies));
            }
            r.iter_mut().for_each(|v| *v /= beta);

            basis.clear();
            basis.push(r);
            // Upper-Hessenberg columns (rotated in place into R) and the
            // Givens-rotated right-hand side.
            let mut hcols: Vec<Vec<f64>> = Vec::with_capacity(m);
            let mut cs: Vec<f64> = Vec::with_capacity(m);
            let mut sn: Vec<f64> = Vec::with_capacity(m);
            let mut g = vec![0.0; m + 1];
            g[0] = beta;
            let mut cols = 0usize;
            let mut breakdown = false;

            for i in 0..m {
                if applies >= self.max_iterations {
                    break;
                }
                apply_modified(
                    rates,
                    exit,
                    q,
                    k,
                    &basis[i],
                    &mut w,
                    &mut scratch,
                    &self.exec,
                )?;
                applies += 1;
                // Modified Gram–Schmidt, twice, in fixed basis order: the
                // deterministic re-orthogonalisation that keeps the basis
                // orthogonal to working precision without any
                // scheduling-dependent pivoting.
                let mut h = vec![0.0; i + 2];
                for pass in 0..2 {
                    for (j, v) in basis.iter().enumerate().take(i + 1) {
                        let c = dot(&w, v);
                        if pass == 0 {
                            h[j] = c;
                        } else {
                            h[j] += c;
                        }
                        for (ws, vs) in w.iter_mut().zip(v.iter()) {
                            *ws -= c * vs;
                        }
                    }
                }
                let hnorm = norm2(&w);
                h[i + 1] = hnorm;
                // Apply the accumulated Givens rotations to the new column,
                // then compute the rotation that annihilates its subdiagonal.
                for j in 0..i {
                    let t = cs[j] * h[j] + sn[j] * h[j + 1];
                    h[j + 1] = -sn[j] * h[j] + cs[j] * h[j + 1];
                    h[j] = t;
                }
                let denom = (h[i] * h[i] + h[i + 1] * h[i + 1]).sqrt();
                if denom == 0.0 {
                    // The subspace is invariant and exhausted: stagnation.
                    breakdown = true;
                    break;
                }
                cs.push(h[i] / denom);
                sn.push(h[i + 1] / denom);
                h[i] = denom;
                h[i + 1] = 0.0;
                g[i + 1] = -sn[i] * g[i];
                g[i] *= cs[i];
                hcols.push(h);
                cols = i + 1;
                if hnorm == 0.0 {
                    // Happy breakdown: the exact solution lies in the span.
                    breakdown = true;
                    break;
                }
                if g[i + 1].abs() < self.tolerance {
                    break;
                }
                let mut v = vec![0.0; n];
                for (vs, ws) in v.iter_mut().zip(w.iter()) {
                    *vs = ws / hnorm;
                }
                basis.push(v);
            }

            if cols > 0 {
                // Back-substitute the least-squares solution and update x.
                let mut y = vec![0.0; cols];
                let mut solvable = true;
                for j in (0..cols).rev() {
                    let mut acc = g[j];
                    for (l, yl) in y.iter().enumerate().skip(j + 1) {
                        acc -= hcols[l][j] * yl;
                    }
                    let diag = hcols[j][j];
                    if diag == 0.0 {
                        solvable = false;
                        break;
                    }
                    y[j] = acc / diag;
                }
                if solvable {
                    for (yi, v) in y.iter().zip(basis.iter()) {
                        for (xs, vs) in x.iter_mut().zip(v.iter()) {
                            *xs += yi * vs;
                        }
                    }
                } else {
                    // A singular projected system: no progress possible.
                    break;
                }
            } else if breakdown {
                // No progress possible from this iterate.
                break;
            }
        }
        Err(CtmcError::NotConverged {
            solver: "krylov-operator steady-state",
            iterations: applies,
            residual: residual_inf,
        })
    }

    /// Damped Jacobi on the balance equations: one operator apply plus one
    /// fused update-and-norm pass per sweep, sharded over the output. The
    /// fixed point is unchanged by any diagonal entries the operator may
    /// carry (a self-loop contributes equally to both sides of the balance
    /// equation). Slow on stiff chains but it always makes progress, which
    /// is why it backs up a stalled Krylov solve.
    pub(crate) fn damped_jacobi(
        &self,
        rates: &dyn LinearOperator,
        exit: &[f64],
        start: Vec<f64>,
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = exit.len();
        let mut pi = start;
        let mut next = vec![0.0; n];
        let mut inflow = vec![0.0; n];
        let workers = self.exec.workers_for(n).min(n.max(1));
        let mut probe = self.recorder.probe("residual", JACOBI_OPERATOR);
        for iteration in 0..self.max_iterations {
            rates.left_multiply_exec(&pi, &mut inflow, &self.exec)?;
            let (pi_ref, inflow_ref) = (&pi, &inflow);
            // Each shard writes the damped update and returns its maximum
            // undamped change, the convergence criterion.
            let max_delta = exec::for_each_shard(&mut next, workers, |start, shard| {
                let mut max_delta = 0.0f64;
                for (offset, slot) in shard.iter_mut().enumerate() {
                    let s = start + offset;
                    if exit[s] <= 0.0 {
                        *slot = pi_ref[s];
                        continue;
                    }
                    let updated = inflow_ref[s] / exit[s];
                    *slot = DAMPING * updated + (1.0 - DAMPING) * pi_ref[s];
                    max_delta = max_delta.max((updated - pi_ref[s]).abs());
                }
                max_delta
            })
            .into_iter()
            .fold(0.0f64, f64::max);
            probe.record(max_delta);
            std::mem::swap(&mut pi, &mut next);
            normalize(&mut pi);
            if max_delta < self.tolerance {
                return Ok((pi, iteration + 1));
            }
        }
        Err(CtmcError::NotConverged {
            solver: "jacobi-operator steady-state",
            iterations: self.max_iterations,
            residual: balance_residual(rates, exit, &pi, &self.exec)?,
        })
    }
}

/// `max_s |(pi R)_s - pi_s E(s)|`: one sharded apply of `rates`, then the
/// elementwise maximum. Every state's residual is a pure function of `pi`
/// and `f64::max` is order-independent, so the result is bit-identical for
/// any thread count.
fn balance_residual(
    rates: &dyn LinearOperator,
    exit: &[f64],
    pi: &[f64],
    exec: &ExecOptions,
) -> Result<f64, CtmcError> {
    let mut inflow = vec![0.0; exit.len()];
    rates.left_multiply_exec(pi, &mut inflow, exec)?;
    Ok(inflow
        .iter()
        .zip(pi.iter().zip(exit.iter()))
        .map(|(&inf, (&p, &e))| (inf - p * e).abs())
        .fold(0.0f64, f64::max))
}

/// One application of the modified balance operator:
/// `w = x Ã` with `(x Ã)[j] = ((x R)[j] - x_j E_j)/q` for `j != k` and
/// `(x Ã)[k] = sum_s x_s` (the normalisation column). The column sum runs
/// serially in state-index order — deterministic for every thread count.
#[allow(clippy::too_many_arguments)]
fn apply_modified(
    rates: &dyn LinearOperator,
    exit: &[f64],
    q: f64,
    k: usize,
    x: &[f64],
    w: &mut [f64],
    scratch: &mut [f64],
    exec: &ExecOptions,
) -> Result<(), CtmcError> {
    rates.left_multiply_exec(x, scratch, exec)?;
    for (ws, ((&sc, &xs), &es)) in w
        .iter_mut()
        .zip(scratch.iter().zip(x.iter()).zip(exit.iter()))
    {
        *ws = (sc - xs * es) / q;
    }
    w[k] = x.iter().sum();
    Ok(())
}

/// Serial dot product in index order (deterministic across thread counts).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Serial Euclidean norm in index order.
fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

fn local_states(full: &[f64], subset: &[StateIndex]) -> Vec<f64> {
    subset.iter().map(|&s| full[s]).collect()
}

fn normalize(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        v.iter_mut().for_each(|x| *x /= total);
    }
}

/// Clamps the tiny negative entries a Krylov least-squares solution may carry
/// (at residual scale) and renormalises to a probability vector.
fn clamp_normalize(v: &mut [f64]) {
    v.iter_mut().for_each(|x| {
        if *x < 0.0 {
            *x = 0.0;
        }
    });
    normalize(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, lambda).unwrap();
        b.add_transition(1, 0, mu).unwrap();
        b.build().unwrap()
    }

    /// Irreducible ring chain with shortcut chords; mixes in few sweeps.
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

    #[test]
    fn two_state_steady_state_closed_form() {
        // Repair rate two orders of magnitude above the failure rate — the
        // stiffness regime of the paper's component models.
        let chain = two_state(0.002, 0.2);
        let expected_down = 0.002 / 0.202;
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!((pi[1] - expected_down).abs() < 1e-9, "{}", pi[1]);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        // 0 <-> 1 <-> 2 with birth rate 1, death rate 2: pi_k proportional to (1/2)^k.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 1.0).unwrap();
        b.add_transition(1, 0, 2.0).unwrap();
        b.add_transition(2, 1, 2.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let z = 1.0 + 0.5 + 0.25;
        assert!((pi[0] - 1.0 / z).abs() < 1e-8);
        assert!((pi[1] - 0.5 / z).abs() < 1e-8);
        assert!((pi[2] - 0.25 / z).abs() < 1e-8);
    }

    #[test]
    fn independent_components_product_form() {
        // Two independent 2-state components composed into a 4-state chain:
        // state = (a, b); the steady state is the product of the marginals.
        let la = 0.1;
        let ma = 1.0;
        let lb = 0.5;
        let mb = 2.0;
        let idx = |a: usize, b: usize| a * 2 + b;
        let mut builder = CtmcBuilder::new(4);
        for a in 0..2 {
            for b_state in 0..2 {
                let s = idx(a, b_state);
                if a == 0 {
                    builder.add_transition(s, idx(1, b_state), la).unwrap();
                } else {
                    builder.add_transition(s, idx(0, b_state), ma).unwrap();
                }
                if b_state == 0 {
                    builder.add_transition(s, idx(a, 1), lb).unwrap();
                } else {
                    builder.add_transition(s, idx(a, 0), mb).unwrap();
                }
            }
        }
        let chain = builder.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let a_up = ma / (la + ma);
        let b_up = mb / (lb + mb);
        assert!((pi[idx(0, 0)] - a_up * b_up).abs() < 1e-8);
        assert!((pi[idx(1, 1)] - (1.0 - a_up) * (1.0 - b_up)).abs() < 1e-8);
    }

    #[test]
    fn reducible_chain_absorbing_state() {
        // 0 -> 1 (absorbing) means all long-run mass is on 1.
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 3.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!((pi[0]).abs() < 1e-12);
        assert!((pi[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reducible_chain_two_bsccs_split_by_branching() {
        // 0 -> 1 with rate 1 and 0 -> 2 with rate 3: absorption probabilities 1/4, 3/4.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(0, 2, 3.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!((pi[1] - 0.25).abs() < 1e-9);
        assert!((pi[2] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn reducible_chain_with_cyclic_bscc() {
        // 0 -> {1,2} cycle; the cycle's local steady state follows the rates.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 1.0).unwrap();
        b.add_transition(2, 1, 4.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!(pi[0].abs() < 1e-12);
        assert!((pi[1] - 0.8).abs() < 1e-8);
        assert!((pi[2] - 0.2).abs() < 1e-8);
    }

    #[test]
    fn reducible_chain_absorption_stops_on_the_unabsorbed_mass() {
        // 0 ⇄ 3 at rate 10 leaks to the absorbing states 1 (from 0, rate
        // 0.01) and 2 (from 3, rate 0.03): about 0.4% of the mass is
        // absorbed per round trip, so successive iterates barely move long
        // before the split is resolved. Exact split: 0.1003 / 0.4003 into 1.
        let mut b = CtmcBuilder::new(4);
        b.add_transition(0, 3, 10.0).unwrap();
        b.add_transition(3, 0, 10.0).unwrap();
        b.add_transition(0, 1, 0.01).unwrap();
        b.add_transition(3, 2, 0.03).unwrap();
        b.set_initial_state(0).unwrap();
        let chain = b.build().unwrap();

        let capped = SteadyStateSolver::new(&chain).max_iterations(3).solve();
        assert!(
            matches!(capped, Err(CtmcError::NotConverged { .. })),
            "{capped:?}"
        );

        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let into_1 = 0.1003 / 0.4003;
        assert!((pi[1] - into_1).abs() < 1e-9, "{}", pi[1]);
        assert!((pi[2] - (1.0 - into_1)).abs() < 1e-9, "{}", pi[2]);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn probability_of_label_and_states() {
        let mut chain = two_state(1.0, 1.0);
        chain.set_label("down", vec![false, true]).unwrap();
        let solver = SteadyStateSolver::new(&chain);
        let p = solver.probability_of_label("down").unwrap().unwrap();
        assert!((p - 0.5).abs() < 1e-9);
        assert_eq!(solver.probability_of_label("unknown").unwrap(), None);
        assert!(solver.probability_of(&[9]).is_err());
        // An operator carries no labels.
        assert_eq!(
            operator_of(&chain).probability_of_label("down").unwrap(),
            None
        );
    }

    #[test]
    fn sharded_sweeps_are_bit_identical_to_serial() {
        // Large enough that the operator apply *and* the fused damped-Jacobi
        // update clear the parallel-work threshold: every thread count must
        // converge after the same number of sweeps to exactly the same
        // vector. Called directly, since a converging Krylov solve never
        // reaches the fallback.
        let chain = ring_chain(5000);
        let n = chain.num_states();
        let jacobi = |exec: ExecOptions| {
            SteadyStateSolver::new(&chain)
                .tolerance(1e-6)
                .exec(exec)
                .damped_jacobi(
                    chain.rate_matrix(),
                    chain.exit_rates(),
                    vec![1.0 / n as f64; n],
                )
                .unwrap()
        };
        let reference = jacobi(ExecOptions::serial());
        for threads in [1usize, 2, 4, 8] {
            let sharded = jacobi(ExecOptions::with_threads(threads));
            assert_eq!(sharded, reference, "{threads} threads");
        }
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point() {
        let chain = two_state(0.002, 0.2);
        let cold = SteadyStateSolver::new(&chain).solve().unwrap();
        for solver in [SteadyStateSolver::new(&chain), operator_of(&chain)] {
            // Warm-starting from the answer, from a bad guess and from a
            // zero-mass guess (uniform fallback) must all land on the fixed
            // point; the guess changes only the trajectory.
            for guess in [cold.clone(), vec![0.9, 0.1], vec![0.0, 0.0]] {
                let (warm, _, tier) = solver
                    .clone()
                    .initial_guess(guess)
                    .solve_reported()
                    .unwrap();
                assert!((warm[1] - cold[1]).abs() < 1e-8, "{tier}: {}", warm[1]);
            }
            // Invalid guesses are rejected up front.
            assert!(solver.clone().initial_guess(vec![1.0]).solve().is_err());
            assert!(solver
                .clone()
                .initial_guess(vec![-1.0, 2.0])
                .solve()
                .is_err());
        }
    }

    #[test]
    fn balance_residual_certifies_stationarity() {
        let chain = two_state(0.002, 0.2);
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let solver = SteadyStateSolver::new(&chain);
        assert!(solver.balance_residual(&pi).unwrap() < 1e-10);
        // A non-stationary vector has a visible residual, identically for
        // every thread count.
        let reference = solver.balance_residual(&[0.5, 0.5]).unwrap();
        assert!(reference > 1e-3);
        for threads in [2usize, 4, 8] {
            let sharded = SteadyStateSolver::new(&chain)
                .exec(ExecOptions::with_threads(threads))
                .balance_residual(&[0.5, 0.5])
                .unwrap();
            assert_eq!(sharded, reference);
        }
        assert!(solver.balance_residual(&[1.0]).is_err());
    }

    #[test]
    fn solve_counted_reports_iterations_and_matches_solve() {
        let chain = two_state(0.002, 0.2);
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let (counted_pi, cold_iterations) = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        assert_eq!(counted_pi, pi);
        assert!(cold_iterations > 0);
        // Warm-starting from the answer converges in fewer sweeps.
        let (warm_pi, warm_iterations) = SteadyStateSolver::new(&chain)
            .initial_guess(pi.clone())
            .solve_counted()
            .unwrap();
        assert!(warm_iterations <= cold_iterations);
        assert!((warm_pi[1] - pi[1]).abs() < 1e-10);
        // Singleton BSCCs need no sweeps at all.
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 3.0).unwrap();
        let absorbing = b.build().unwrap();
        let (_, iterations) = SteadyStateSolver::new(&absorbing).solve_counted().unwrap();
        assert_eq!(iterations, 0);
    }

    #[test]
    fn iteration_cap_produces_not_converged() {
        // Asymmetric rates so the uniform starting guess is not already the answer.
        let chain = two_state(1.0, 3.0);
        let result = SteadyStateSolver::new(&chain)
            .max_iterations(1)
            .tolerance(1e-16)
            .solve();
        assert!(
            matches!(result, Err(CtmcError::NotConverged { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn tier_names_are_stable() {
        let chain = two_state(0.002, 0.2);
        let (_, _, tier) = SteadyStateSolver::new(&chain).solve_reported().unwrap();
        assert_eq!(tier, "gauss-seidel");
        // The operator tiers are pinned in `operator_steady_state::tests`.
    }

    #[test]
    fn recorder_captures_solve_span_and_residual_series_without_changing_results() {
        let chain = two_state(0.002, 0.2);
        let plain = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        for solver in [SteadyStateSolver::new(&chain), operator_of(&chain)] {
            let reference = solver.solve_reported().unwrap();
            let tier = reference.2;
            let recorder = arcade_telemetry::Recorder::with_probes();
            let traced = solver
                .clone()
                .recorder(recorder.clone())
                .solve_reported()
                .unwrap();
            assert_eq!(traced, reference, "{tier}: tracing must not perturb");
            assert_eq!(recorder.span_count("solve"), 1);
            assert_eq!(
                recorder.counter_total("solve", "iterations"),
                reference.1 as u64
            );
            let series = recorder.series();
            assert_eq!(series.len(), 1, "{tier}: one residual series");
            assert_eq!(series[0].kind, "residual");
            assert_eq!(series[0].tier, tier);
            // Gauss–Seidel probes every sweep; Krylov probes the true
            // residual once per restart cycle.
            if tier == "gauss-seidel" {
                assert_eq!(series[0].values.len(), reference.1);
            }
            let last = *series[0].values.last().unwrap();
            assert!(last < 1e-8, "{tier}: converged residual, got {last}");
        }
        // The ambient default (no scope, no global) records nothing and the
        // result is bit-identical.
        let ambient = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        assert_eq!(ambient, plain);
    }
}
