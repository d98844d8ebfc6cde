//! Table 2: steady-state availability per repair strategy.
//!
//! Regenerates the table (printed to stdout) and benchmarks the steady-state
//! solver on the Line 2 models.

use arcade_core::{Analysis, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::{experiments, facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    let rows =
        experiments::table2(&Line::both(), ExecOptions::default()).expect("table 2 regenerates");
    wt_bench::print_table(
        "Table 2 (steady-state availability)",
        &experiments::format_table2(&rows),
    );
    wt_bench::print_table(
        "Table 2 (paper reference)",
        &experiments::format_table2(&experiments::table2_paper_reference()),
    );

    let mut group = c.benchmark_group("table2_availability");
    group.sample_size(10);
    for spec in [
        strategies::dedicated(),
        strategies::frf(1),
        strategies::frf(2),
    ] {
        let model = facility::line_model(Line::Line2, &spec).unwrap();
        let analysis = Analysis::new(&model).unwrap();
        group.bench_function(format!("line2_{}", spec.label), |b| {
            b.iter(|| analysis.steady_state_availability().unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
