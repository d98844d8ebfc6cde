//! Micro-benchmarks of the numerical engine underneath the case study:
//! Fox–Glynn weights, transient analysis, bounded reachability, steady-state
//! solves, SpMV kernels (blocked vs unblocked CSR, Kronecker-sum apply) and
//! Monte-Carlo simulation throughput.

use arcade_core::{CompiledModel, FacilityAnalysis};
use arcade_sim::{SimulationOptions, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use ctmc::{ExecOptions, FoxGlynn, LinearOperator, SteadyStateSolver, TransientSolver};
use watertreatment::{facility, strategies, Line};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts two vectors are bit-identical — every SpMV gate below proves its
/// thread-count determinism contract before any timing runs.
fn assert_bit_identical(reference: &[f64], candidate: &[f64], what: &str) {
    assert_eq!(reference.len(), candidate.len(), "{what}: length");
    for (index, (a, b)) in reference.iter().zip(candidate.iter()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: component {index} differs ({a} vs {b})"
        );
    }
}

fn engine_benchmarks(c: &mut Criterion) {
    let model = facility::line_model(Line::Line2, &strategies::frf(1)).unwrap();
    let compiled = CompiledModel::compile(&model).unwrap();
    let chain = compiled.chain();

    let mut group = c.benchmark_group("engine");
    group.sample_size(20);

    group.bench_function("fox_glynn_lambda_1e3", |b| {
        b.iter(|| FoxGlynn::new(1000.0, 1e-12).unwrap().len())
    });
    group.bench_function("fox_glynn_lambda_1e5", |b| {
        b.iter(|| FoxGlynn::new(100_000.0, 1e-10).unwrap().len())
    });

    group.bench_function("transient_line2_frf1_t100", |b| {
        b.iter(|| TransientSolver::new(chain).probabilities_at(100.0).unwrap())
    });

    // The CSR→CSC counting-pass transpose (used by the Gauss–Seidel setup), on
    // the flat Line 2 FRF chain so the matrix is large enough to be
    // representative.
    let flat = CompiledModel::compile_with(
        &model,
        arcade_core::ComposerOptions {
            lumping: arcade_core::LumpingMode::Disabled,
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("transpose_line2_frf1_flat", |b| {
        let rates = flat.chain().rate_matrix();
        b.iter(|| rates.transpose().num_entries())
    });

    // SpMV gates. Determinism first: the blocked kernel and every sharded
    // thread count must reproduce the plain serial scatter bit for bit.
    {
        let rates = flat.chain().rate_matrix();
        let n = rates.num_rows();
        let x: Vec<f64> = (0..n).map(|s| 1.0 / (1.0 + s as f64)).collect();
        let mut reference = vec![0.0; n];
        rates.left_multiply(&x, &mut reference).unwrap();
        let mut blocked = vec![0.0; n];
        rates.left_multiply_blocked(&x, &mut blocked).unwrap();
        assert_bit_identical(&reference, &blocked, "blocked left multiply");
        let mut right_reference = vec![0.0; n];
        rates.right_multiply(&x, &mut right_reference).unwrap();
        for threads in THREAD_COUNTS {
            let exec = ExecOptions::with_threads(threads);
            let mut sharded = vec![0.0; n];
            rates.left_multiply_exec(&x, &mut sharded, &exec).unwrap();
            assert_bit_identical(&reference, &sharded, "sharded left multiply");
            let mut right_sharded = vec![0.0; n];
            rates
                .right_multiply_exec(&x, &mut right_sharded, &exec)
                .unwrap();
            assert_bit_identical(&right_reference, &right_sharded, "sharded right multiply");
        }

        group.bench_function("spmv_left_unblocked_line2_frf1_flat", |b| {
            let mut y = vec![0.0; n];
            b.iter(|| rates.left_multiply(&x, &mut y).unwrap())
        });
        group.bench_function("spmv_left_blocked_line2_frf1_flat", |b| {
            let mut y = vec![0.0; n];
            b.iter(|| rates.left_multiply_blocked(&x, &mut y).unwrap())
        });
        group.bench_function("spmv_right_line2_frf1_flat", |b| {
            let mut y = vec![0.0; n];
            b.iter(|| rates.right_multiply(&x, &mut y).unwrap())
        });
    }

    // Kronecker-sum apply on the FRF-1 × FRF-1 facility product
    // (449 × 257 = 115,393 joint states), matrix-free: the operator is the
    // joint generator that the steady-state tiers apply without ever
    // materialising it.
    {
        let facility_model =
            facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap();
        let analysis = FacilityAnalysis::new(&facility_model).unwrap();
        let product = analysis.quotient_product().unwrap();
        let operator = product.operator();
        let n = operator.num_rows();
        let x: Vec<f64> = (0..n).map(|s| 1.0 / (1.0 + s as f64)).collect();
        let serial = ExecOptions::serial();
        let mut reference = vec![0.0; n];
        operator
            .left_multiply_exec(&x, &mut reference, &serial)
            .unwrap();
        for threads in THREAD_COUNTS {
            let mut sharded = vec![0.0; n];
            operator
                .left_multiply_exec(&x, &mut sharded, &ExecOptions::with_threads(threads))
                .unwrap();
            assert_bit_identical(&reference, &sharded, "Kronecker-sum apply");
        }
        group.bench_function("kronecker_sum_apply_frf1_frf1", |b| {
            let mut y = vec![0.0; n];
            b.iter(|| operator.left_multiply_exec(&x, &mut y, &serial).unwrap())
        });
    }
    group.bench_function("bounded_reachability_line2_frf1", |b| {
        let goal = compiled.service_at_least_mask(1.0);
        let safe = vec![true; chain.num_states()];
        b.iter(|| {
            TransientSolver::new(chain)
                .bounded_until(&safe, &goal, 50.0)
                .unwrap()
        })
    });

    // A chain solves by Gauss–Seidel per BSCC.
    group.bench_function("steady_state_GaussSeidel", |b| {
        b.iter(|| SteadyStateSolver::new(chain).solve().unwrap())
    });

    group.bench_function("simulation_1000_replications_reliability", |b| {
        let simulator = Simulator::new(&model).unwrap();
        let options = SimulationOptions {
            replications: 1000,
            seed: 1,
            ..SimulationOptions::with_threads(4)
        };
        b.iter(|| simulator.reliability(100.0, &options).unwrap())
    });

    group.finish();
}

criterion_group!(benches, engine_benchmarks);
criterion_main!(benches);
