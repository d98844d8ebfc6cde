//! Ablation study beyond the paper's tables:
//!
//! * queue disciplines — the priority-sorted queue used for the reproduction
//!   versus the same dispatch with the queue kept in arrival order, the
//!   unreduced baseline (it is not closer to the paper's models: on Line 2
//!   FRF-1 it has 986,410 flat states, the paper 8,129), on Line 2;
//! * FCFS as a first-class strategy (the paper uses it only as tie-break);
//! * the availability / cost trade-off across all strategies and crew counts,
//!   including the preemptive discipline.

use arcade_core::{Analysis, CompiledModel, QueueDiscipline};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::{facility, strategies, Line};

fn ablation(c: &mut Criterion) {
    // --- Queue-discipline ablation (printed) ---
    // The arrival-order queue keeps the full arrival permutation of waiting
    // components and is considerably larger, so it is only built for the
    // single-crew FRF configuration here.
    println!("\n===== ablation: queue disciplines on Line 2 =====");
    println!("strategy  discipline         states   transitions");
    let canonical = ("priority-canonical", QueueDiscipline::PriorityCanonical);
    for (spec, disciplines) in [
        (strategies::fcfs(1), vec![canonical]),
        (
            strategies::frf(1),
            vec![canonical, ("arrival-order", QueueDiscipline::ArrivalOrder)],
        ),
        (strategies::frf(2), vec![canonical]),
        (strategies::fff(2), vec![canonical]),
    ] {
        for (label, discipline) in disciplines {
            let model =
                facility::line_model(Line::Line2, &spec.clone().with_discipline(discipline))
                    .unwrap();
            let stats = CompiledModel::compile(&model).unwrap().stats();
            println!(
                "{:<9} {:<18} {:<8} {}",
                spec.label, label, stats.num_states, stats.num_transitions
            );
        }
    }

    // --- Strategy trade-off table including FCFS and the preemptive extension ---
    println!("\n===== ablation: availability vs long-run cost on Line 2 =====");
    println!("strategy  availability  long-run cost rate  states");
    for spec in [
        strategies::dedicated(),
        strategies::fcfs(1),
        strategies::fcfs(2),
        strategies::frf(1),
        strategies::frf(2),
        strategies::fff(1),
        strategies::fff(2),
        strategies::frf_preemptive(1),
        strategies::frf_preemptive(2),
        strategies::fff_preemptive(1),
        strategies::fff_preemptive(2),
    ] {
        let model = facility::line_model(Line::Line2, &spec).unwrap();
        let analysis = Analysis::new(&model).unwrap();
        println!(
            "{:<9} {:<13.7} {:<19.4} {}",
            spec.label,
            analysis.steady_state_availability().unwrap(),
            analysis.long_run_cost_rate().unwrap(),
            analysis.state_space_stats().num_states
        );
    }

    // --- Timed kernels (default discipline only; the arrival-order queue is
    // reported above but is too large to re-build inside a sampling loop) ---
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    let model = facility::line_model(Line::Line2, &strategies::frf(1)).unwrap();
    group.bench_function("compile_line2_frf1_canonical", |b| {
        b.iter(|| CompiledModel::compile(&model).unwrap().stats())
    });
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
