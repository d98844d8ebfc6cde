//! Fig. 3: reliability of both process lines over the mission time.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::{self, grids};
use watertreatment::{facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    let figure = experiments::fig3_reliability(
        &Line::both(),
        &grids::step_grid(0.0, 1000.0, 50.0),
        ExecOptions::default(),
    )
    .expect("fig 3 regenerates");
    wt_bench::print_figure(&figure);

    let mut group = c.benchmark_group("fig3_reliability");
    group.sample_size(10);
    for line in Line::both() {
        let model = facility::line_model(line, &strategies::dedicated()).unwrap();
        let analysis = Analysis::new(&model).unwrap();
        group.bench_function(format!("{}_reliability_1000h", line.id()), |b| {
            b.iter(|| analysis.reliability(1000.0).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
