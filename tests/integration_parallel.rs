//! End-to-end determinism of the parallel execution layer on the paper's
//! models: composing and analysing Line 1 and Line 2 with 2/4/8 worker
//! threads must reproduce the single-threaded pipeline — bit-identical
//! composed chains (including the pinned canonical state counts; the
//! composer itself is serial) and measures agreeing far below the 1e-12
//! acceptance bound.

use arcade_core::{
    Analysis, CompiledModel, ComposerOptions, ExecOptions, GlobalState, LumpingMode,
};
use watertreatment::experiments::{self, grids, service_levels};
use watertreatment::{facility, strategies, Line};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Every explored state, in index order.
fn states(compiled: &CompiledModel) -> Vec<GlobalState> {
    (0..compiled.chain().num_states())
        .map(|index| compiled.state(index))
        .collect()
}

fn options(lumping: LumpingMode, threads: usize) -> ComposerOptions {
    ComposerOptions {
        lumping,
        exec: ExecOptions::with_threads(threads),
        ..Default::default()
    }
}

/// The canonical composition explores the same states in the same order for
/// every worker count, on both lines and for the heavy queueing strategies;
/// the pinned canonical counts (Line 1: 160/449/727, Line 2: 96/257/387)
/// hold for every thread count.
#[test]
fn canonical_frontier_is_bit_identical_across_thread_counts() {
    let pinned = [
        (Line::Line1, strategies::dedicated(), 160),
        (Line::Line1, strategies::frf(1), 449),
        (Line::Line1, strategies::fff(2), 727),
        (Line::Line2, strategies::dedicated(), 96),
        (Line::Line2, strategies::frf(1), 257),
        (Line::Line2, strategies::fff(2), 387),
    ];
    for (line, spec, canonical_states) in pinned {
        let model = facility::line_model(line, &spec).unwrap();
        let reference =
            CompiledModel::compile_with(&model, options(LumpingMode::Compositional, 1)).unwrap();
        assert_eq!(
            reference.stats().num_states,
            canonical_states,
            "{} {}",
            line.id(),
            spec.label
        );
        for threads in THREAD_COUNTS {
            let parallel =
                CompiledModel::compile_with(&model, options(LumpingMode::Compositional, threads))
                    .unwrap();
            assert_eq!(
                states(&parallel),
                states(&reference),
                "{} {} states, {threads} threads",
                line.id(),
                spec.label
            );
            assert_eq!(
                parallel.chain(),
                reference.chain(),
                "{} {} chain, {threads} threads",
                line.id(),
                spec.label
            );
        }
    }
}

/// The *flat* Line 2 chain (8129 states under FRF-1) is large enough to
/// engage the sharded solver kernels; its composition must be bit-identical
/// for every worker count.
#[test]
fn flat_frontier_is_bit_identical_across_thread_counts() {
    let model = facility::line_model(Line::Line2, &strategies::frf(1)).unwrap();
    let reference = CompiledModel::compile_with(&model, options(LumpingMode::Disabled, 1)).unwrap();
    assert_eq!(reference.stats().num_states, 8129);
    for threads in THREAD_COUNTS {
        let parallel =
            CompiledModel::compile_with(&model, options(LumpingMode::Disabled, threads)).unwrap();
        assert_eq!(states(&parallel), states(&reference), "{threads} threads");
        assert_eq!(parallel.chain(), reference.chain(), "{threads} threads");
        assert_eq!(
            parallel.cost_rewards(),
            reference.cost_rewards(),
            "{threads} threads"
        );
    }
}

/// Table 2 availability and a Fig. 8/9 survivability curve agree with the
/// serial pipeline to <= 1e-12 for every worker count (they are in fact
/// bit-identical: the sharded kernels accumulate in the serial order).
#[test]
fn measures_agree_with_serial_below_1e12() {
    let model = facility::line_model(Line::Line2, &strategies::frf(1)).unwrap();
    let disaster = model.disaster(facility::DISASTER_LINE2_MIXED).unwrap();
    let times = grids::fig8_9();

    let serial = Analysis::with_options(&model, options(LumpingMode::Compositional, 1)).unwrap();
    let availability = serial.steady_state_availability().unwrap();
    let curve = serial
        .survivability_curve(disaster, service_levels::LINE2_X1, &times)
        .unwrap();

    for threads in THREAD_COUNTS {
        let parallel =
            Analysis::with_options(&model, options(LumpingMode::Compositional, threads)).unwrap();
        let a = parallel.steady_state_availability().unwrap();
        assert!(
            (a - availability).abs() <= 1e-12,
            "{threads} threads: availability {a} vs {availability}"
        );
        let c = parallel
            .survivability_curve(disaster, service_levels::LINE2_X1, &times)
            .unwrap();
        for ((t, serial_v), (_, parallel_v)) in curve.iter().zip(c.iter()) {
            assert!(
                (serial_v - parallel_v).abs() <= 1e-12,
                "{threads} threads, t={t}: {parallel_v} vs {serial_v}"
            );
        }
    }
}

/// The experiment-level sweep (the `--threads` knob of `wt_experiments`)
/// returns identical figures for every worker count.
#[test]
fn experiment_sweeps_do_not_depend_on_the_thread_count() {
    let times = grids::fig8_9();
    let reference = experiments::fig8_9_survivability_line2(&times, ExecOptions::serial()).unwrap();
    for threads in THREAD_COUNTS {
        let sweep =
            experiments::fig8_9_survivability_line2(&times, ExecOptions::with_threads(threads))
                .unwrap();
        assert_eq!(sweep, reference, "{threads} threads");
    }
}
