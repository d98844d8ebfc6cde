//! Product-of-quotients engine: construction and solve timings.
//!
//! Tracks the two-line facility pipeline end to end at 1 and 4 threads:
//!
//! * **construct** — compile both lines compositionally, lump them, build
//!   the `QuotientProduct` and materialise the joint FRF-1 × FRF-1 chain
//!   (449 × 257 = 115,393 blocks, ≈ 1.2M transitions) through the sharded
//!   row enumeration;
//! * **availability** — the `table_facility_with` validation solve: per-line
//!   availabilities, the product form, and the genuine joint-chain
//!   stationary solve (warm started, residual-certified).
//!
//! Every thread count must produce bit-identical results before timing — the
//! sweep asserts this up front, mirroring `compositional_parallel`.

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments;
use watertreatment::{facility, strategies};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

fn bench_product_construction(c: &mut Criterion) {
    // Determinism gate: the materialised joint chain must be identical for
    // every thread count.
    let reference = {
        let model = facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(1)).unwrap();
        analysis
            .quotient_product()
            .unwrap()
            .materialize(&ExecOptions::with_threads(1))
            .unwrap()
    };
    assert_eq!(reference.num_states(), 449 * 257);
    for threads in THREAD_COUNTS {
        let model = facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        let joint = analysis
            .quotient_product()
            .unwrap()
            .materialize(&ExecOptions::with_threads(threads))
            .unwrap();
        assert_eq!(joint, reference, "materialisation at {threads} threads");
    }

    let mut group = c.benchmark_group("facility_product_construct");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("frf1_pair/threads_{threads}"), |b| {
            b.iter(|| {
                let model =
                    facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap();
                let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
                analysis
                    .quotient_product()
                    .unwrap()
                    .materialize(&ExecOptions::with_threads(threads))
                    .unwrap()
                    .num_transitions()
            })
        });
    }
    group.finish();
}

fn bench_joint_availability(c: &mut Criterion) {
    // Determinism gate for the full validation solve.
    let pair = [(strategies::frf(1), strategies::frf(1))];
    let reference = experiments::table_facility_with(&pair, ExecOptions::with_threads(1)).unwrap();
    for threads in THREAD_COUNTS {
        let rows =
            experiments::table_facility_with(&pair, ExecOptions::with_threads(threads)).unwrap();
        assert_eq!(rows, reference, "solve at {threads} threads");
        assert!(rows[0].difference <= 1e-9);
    }

    let mut group = c.benchmark_group("facility_product_availability");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("table_facility_frf1/threads_{threads}"), |b| {
            b.iter(|| {
                experiments::table_facility_with(&pair, ExecOptions::with_threads(threads)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_product_construction,
    bench_joint_availability
);
criterion_main!(benches);
