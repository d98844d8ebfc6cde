//! Figs. 10 and 11: instantaneous and accumulated repair cost of Line 2 after
//! Disaster 2, for FFF-1 / FFF-2 / FRF-1 / FRF-2.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids};
use watertreatment::{facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    let (fig10, fig11) =
        experiments::fig10_11_cost_line2(&grids::step_grid(0.0, 50.0, 2.5), ExecOptions::default())
            .expect("figs 10-11 regenerate");
    wt_bench::print_figure(&fig10);
    wt_bench::print_figure(&fig11);

    let model = facility::line_model(Line::Line2, &strategies::frf(2)).unwrap();
    let analysis = Analysis::new(&model).unwrap();
    let disaster = model.disaster(facility::DISASTER_LINE2_MIXED).unwrap();
    let mut group = c.benchmark_group("fig10_11_costs");
    group.sample_size(10);
    group.bench_function("line2_frf2_instantaneous_cost_50h", |b| {
        b.iter(|| {
            analysis
                .instantaneous_cost_curve(Some(disaster), &[50.0])
                .unwrap()
        })
    });
    group.bench_function("line2_frf2_accumulated_cost_50h", |b| {
        b.iter(|| {
            analysis
                .accumulated_cost_curve(Some(disaster), &[50.0])
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
