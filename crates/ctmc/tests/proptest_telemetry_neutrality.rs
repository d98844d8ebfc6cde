//! Property tests that telemetry is observationally free: running either
//! stationary solver under an enabled recorder — spans only, or spans plus
//! per-iteration residual probes — returns bit-identical vectors and
//! identical iteration counts to the untraced solve, at 1, 2, 4 and 8
//! worker threads. Spans observe, they never steer.

use arcade_telemetry::Recorder;
use ctmc::{Ctmc, CtmcBuilder, ExecOptions, SteadyStateSolver};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The same irreducible ring-with-chords family the other solver proptests
/// draw from.
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

fn bits(pi: &[f64]) -> Vec<u64> {
    pi.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The materialised Gauss–Seidel solver under a scoped recorder (with
    /// and without probes) is bit-identical to the untraced solve at every
    /// thread count, and the recorder's counters agree with the returned
    /// iteration count.
    #[test]
    fn materialised_solver_is_bit_identical_under_recording(
        n in 2usize..=32,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        for &threads in &THREAD_COUNTS {
            let exec = ExecOptions::with_threads(threads);
            let baseline = SteadyStateSolver::new(&chain)
                .exec(exec)
                .solve_counted()
                .unwrap();
            for recorder in [Recorder::enabled(), Recorder::with_probes()] {
                let traced = {
                    let _scope = recorder.enter();
                    SteadyStateSolver::new(&chain)
                        .exec(exec)
                        .solve_counted()
                        .unwrap()
                };
                prop_assert_eq!(
                    bits(&traced.0),
                    bits(&baseline.0),
                    "threads {}, probes {}",
                    threads,
                    recorder.probes_enabled()
                );
                prop_assert_eq!(traced.1, baseline.1);
                prop_assert_eq!(
                    recorder.counter_total("solve", "iterations"),
                    baseline.1 as u64
                );
                if recorder.probes_enabled() {
                    let series = recorder.series();
                    prop_assert_eq!(series.len(), 1);
                    prop_assert_eq!(series[0].values.len(), baseline.1);
                }
            }
        }
    }

    /// The matrix-free input — Krylov, the numerically most delicate tier —
    /// under recording, same contract.
    #[test]
    fn operator_solver_is_bit_identical_under_recording(
        n in 8usize..=32,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        for &threads in &THREAD_COUNTS {
            let exec = ExecOptions::with_threads(threads);
            let solver = || {
                SteadyStateSolver::from_operator(
                    chain.rate_matrix(),
                    chain.exit_rates().to_vec(),
                )
                .unwrap()
                .exec(exec)
            };
            let baseline = solver().solve_reported().unwrap();
            let recorder = Recorder::with_probes();
            let traced = {
                let _scope = recorder.enter();
                solver().solve_reported().unwrap()
            };
            prop_assert_eq!(bits(&traced.0), bits(&baseline.0), "threads {}", threads);
            prop_assert_eq!(traced.1, baseline.1);
            prop_assert_eq!(traced.2, baseline.2);
            prop_assert_eq!(
                recorder.counter_total("solve", "iterations"),
                baseline.1 as u64
            );
        }
    }
}
