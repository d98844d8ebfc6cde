//! Table 1: state-space sizes for every repair strategy and both lines.
//!
//! Regenerates the table (printed to stdout) and benchmarks the state-space
//! composition itself for representative configurations.

use arcade_core::{CompiledModel, ComposerOptions, ExecOptions, LumpingMode};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::{experiments, facility, strategies, Line};

fn regenerate_and_bench(c: &mut Criterion) {
    let rows = experiments::table1(&Line::both(), LumpingMode::Exact, ExecOptions::default())
        .expect("table 1 regenerates");
    wt_bench::print_table(
        "Table 1 (state-space sizes)",
        &experiments::format_table1(&rows),
    );
    wt_bench::print_table(
        "Table 1 (paper reference)",
        &experiments::format_table1(&experiments::table1_paper_reference()),
    );

    let mut group = c.benchmark_group("table1_composition");
    group.sample_size(10);
    for (line, spec) in [
        (Line::Line1, strategies::dedicated()),
        (Line::Line2, strategies::dedicated()),
        (Line::Line2, strategies::frf(1)),
        (Line::Line2, strategies::fff(2)),
    ] {
        let model = facility::line_model(line, &spec).unwrap();
        // Table 1 reports flat product sizes, so this benchmark times the
        // flat composition; the compositional_vs_flat bench covers the
        // default pipeline's canonical exploration.
        let options = ComposerOptions {
            lumping: LumpingMode::Exact,
            ..Default::default()
        };
        group.bench_function(format!("{}_{}", line.id(), spec.label), |b| {
            b.iter(|| {
                CompiledModel::compile_with(&model, options)
                    .unwrap()
                    .stats()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
