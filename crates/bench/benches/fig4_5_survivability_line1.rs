//! Figs. 4 and 5: survivability of Line 1 after Disaster 1 (all pumps failed),
//! recovery to service intervals X1 and X2, for DED / FRF-1 / FRF-2.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids, service_levels};
use watertreatment::{facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    // A coarser grid than `grids::fig4_to_6()` keeps the bench run short; the
    // full-resolution curves come from `wt-experiments fig4 fig5`.
    let grid = grids::step_grid(0.0, 4.5, 0.45);
    let (fig4, fig5) = experiments::fig4_5_survivability_line1(&grid, ExecOptions::default())
        .expect("figs 4-5 regenerate");
    wt_bench::print_figure(&fig4);
    wt_bench::print_figure(&fig5);

    // Benchmark one survivability evaluation on the large Line 1 / FRF-1 chain.
    let model = facility::line_model(Line::Line1, &strategies::frf(1)).unwrap();
    let analysis = Analysis::new(&model).unwrap();
    let disaster = model.disaster(facility::DISASTER_ALL_PUMPS).unwrap();
    let mut group = c.benchmark_group("fig4_5_survivability");
    group.sample_size(10);
    group.bench_function("line1_frf1_x1_at_4_5h", |b| {
        b.iter(|| {
            analysis
                .survivability(disaster, service_levels::LINE1_X1, 4.5)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
