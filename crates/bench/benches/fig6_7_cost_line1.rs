//! Figs. 6 and 7: instantaneous and accumulated repair cost of Line 1 after
//! Disaster 1, for DED / FRF-1 / FRF-2.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids};
use watertreatment::{facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    // Coarser grids than the paper's plots keep the bench run short; the
    // full-resolution curves come from `wt-experiments fig6 fig7`.
    let (fig6, fig7) = experiments::fig6_7_cost_line1(
        &grids::step_grid(0.0, 4.5, 0.45),
        &grids::step_grid(0.0, 10.0, 1.0),
        ExecOptions::default(),
    )
    .expect("figs 6-7 regenerate");
    wt_bench::print_figure(&fig6);
    wt_bench::print_figure(&fig7);

    let model = facility::line_model(Line::Line1, &strategies::frf(2)).unwrap();
    let analysis = Analysis::new(&model).unwrap();
    let disaster = model.disaster(facility::DISASTER_ALL_PUMPS).unwrap();
    let mut group = c.benchmark_group("fig6_7_costs");
    group.sample_size(10);
    group.bench_function("line1_frf2_accumulated_cost_10h", |b| {
        b.iter(|| {
            analysis
                .accumulated_cost_curve(Some(disaster), &[10.0])
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
