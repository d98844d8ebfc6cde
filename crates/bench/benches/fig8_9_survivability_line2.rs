//! Figs. 8 and 9: survivability of Line 2 after Disaster 2, recovery to
//! service intervals X1 and X3, for all five strategies.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids, service_levels};
use watertreatment::{facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    let (fig8, fig9) = experiments::fig8_9_survivability_line2(
        &grids::step_grid(0.0, 100.0, 5.0),
        ExecOptions::default(),
    )
    .expect("figs 8-9 regenerate");
    wt_bench::print_figure(&fig8);
    wt_bench::print_figure(&fig9);

    let model = facility::line_model(Line::Line2, &strategies::fff(1)).unwrap();
    let analysis = Analysis::new(&model).unwrap();
    let disaster = model.disaster(facility::DISASTER_LINE2_MIXED).unwrap();
    let mut group = c.benchmark_group("fig8_9_survivability");
    group.sample_size(10);
    group.bench_function("line2_fff1_x1_at_100h", |b| {
        b.iter(|| {
            analysis
                .survivability(disaster, service_levels::LINE2_X1, 100.0)
                .unwrap()
        })
    });
    group.bench_function("line2_fff1_x3_at_100h", |b| {
        b.iter(|| {
            analysis
                .survivability(disaster, service_levels::LINE2_X3, 100.0)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
