//! Thread-count scaling of the parallel execution layer.
//!
//! The tracked workload is the Fig. 8/9-style survivability sweep: all five
//! paper strategies on Line 2, each compiled compositionally and evaluated on
//! two service-level curves over the full time grid. The five strategy tasks
//! are independent, so the experiment layer fans them out across the worker
//! pool; inside each task the curves batch all time points over one
//! Fox–Glynn pass. The acceptance target of the parallel-execution subsystem
//! is a ≥ 2× wall-clock improvement at 4 threads over 1 thread on this
//! sweep, with bit-identical curve values.
//!
//! A second group times the *flat* Line 2 composition + availability solve:
//! the composition is serial at every thread count, and the solve exercises
//! the row-parallel kernels on a state space large enough (8129 states) to
//! clear the work thresholds.

use arcade_core::{Analysis, CompiledModel, ComposerOptions, ExecOptions, LumpingMode};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids};
use watertreatment::{facility, strategies, Line};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn bench_survivability_sweep(c: &mut Criterion) {
    let times = grids::fig8_9();

    // The sweep is deterministic: every thread count must reproduce the
    // serial curves exactly before it is worth timing.
    let (reference, _) =
        experiments::fig8_9_survivability_line2_with(&times, ExecOptions::serial())
            .expect("paper sweep runs");
    for threads in THREAD_COUNTS {
        let (fig8, _) = experiments::fig8_9_survivability_line2_with(
            &times,
            ExecOptions::with_threads(threads),
        )
        .expect("paper sweep runs");
        assert_eq!(
            fig8, reference,
            "sweep must not depend on {threads} threads"
        );
    }

    let mut group = c.benchmark_group("compositional_parallel_survivability_sweep");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("fig8_9_sweep/threads_{threads}"), |b| {
            b.iter(|| {
                experiments::fig8_9_survivability_line2_with(
                    &times,
                    ExecOptions::with_threads(threads),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_flat_composition(c: &mut Criterion) {
    let model = facility::line_model(Line::Line2, &strategies::frf(1)).expect("paper model");
    let mut group = c.benchmark_group("compositional_parallel_flat_frontier");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        let options = ComposerOptions {
            lumping: LumpingMode::Disabled,
            exec: ExecOptions::with_threads(threads),
            ..Default::default()
        };
        group.bench_function(format!("flat_compose_solve/threads_{threads}"), |b| {
            b.iter(|| {
                let compiled = CompiledModel::compile_with(&model, options).unwrap();
                let analysis = Analysis::from_compiled(&model, compiled);
                analysis.steady_state_availability().unwrap()
            })
        });
    }
    group.finish();
}

fn compositional_parallel(c: &mut Criterion) {
    bench_survivability_sweep(c);
    bench_flat_composition(c);
}

criterion_group!(benches, compositional_parallel);
criterion_main!(benches);
