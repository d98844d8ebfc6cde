//! The repository benchmark: four named workloads, each driven through the
//! program's public entry points, with its outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path arcadebench/Cargo.toml -- \
//!     --workload paper-tables --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced and traced passes and reports per-layer self time
//! from the benchmark's own spans, the share of traced wall time the
//! top-level spans cover, and the tracing overhead. Every metric is printed
//! by name with its unit; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Results and
//! the Chrome trace land in `arcadebench/results/`. See `README.md`.

mod daemon_mixed;
mod facility_curves;
mod paper_tables;
mod rare_event;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use arcade_core::ExecOptions;
use arcade_server::Json;

use crate::stats::{median, peak_rss_mb, quantile, tail_percentile};
use crate::trace::{chrome_trace, layer_totals, Phase, Tracer};
use crate::workload::{Ctx, Record, RunSummary, Workload};

/// Worker threads of every pool the benchmark hands the program.
const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Environment variables the program reads that would change the pool or
/// the solver tier between two builds; the benchmark refuses to run with
/// either set.
const AMBIENT_KNOBS: [&str; 2] = ["ARCADE_THREADS", "ARCADE_JOINT_SOLVER"];

type Setup = fn(u64, &Ctx<'_>) -> Result<Box<dyn Workload>, String>;

const WORKLOADS: [(&str, Setup); 4] = [
    ("paper-tables", paper_tables::setup),
    ("facility-curves", facility_curves::setup),
    ("daemon-mixed", daemon_mixed::setup),
    ("rare-event", rare_event::setup),
];

/// The end-to-end metrics (untraced run), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
];

/// The per-layer metrics (traced run), with units.
const PER_LAYER: [(&str, &str); 39] = [
    ("registry.ms", "ms"),
    ("composer.ms", "ms"),
    ("composer.states", "count"),
    ("composer.transitions", "count"),
    ("composer.us_per_state", "us"),
    ("lumping.ms", "ms"),
    ("lumping.blocks", "count"),
    ("lumping.merge_ratio", "ratio"),
    ("product.ms", "ms"),
    ("product.joint_blocks", "count"),
    ("product.joint_transitions", "count"),
    ("symmetry.ms", "ms"),
    ("symmetry.orbits", "count"),
    ("steady.ms", "ms"),
    ("steady.iterations", "count"),
    ("steady.operator_applies", "count"),
    ("steady.residual", "ratio"),
    ("transient.ms", "ms"),
    ("transient.survivability_ms", "ms"),
    ("transient.inst_cost_ms", "ms"),
    ("transient.acc_cost_ms", "ms"),
    ("transient.state_points", "count"),
    ("sim.build_ms", "ms"),
    ("sim.ms", "ms"),
    ("sim.replications", "count"),
    ("sim.ns_per_replication", "ns"),
    ("sim.lr_mean", "ratio"),
    ("server.handle_p50_ms", "ms"),
    ("server.handle_p50_ms.availability", "ms"),
    ("server.handle_p50_ms.survivability", "ms"),
    ("server.handle_p50_ms.cost", "ms"),
    ("server.handle_p50_ms.simulate", "ms"),
    ("server.transport_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.warm_solve_ratio", "ratio"),
    ("server.coalesced", "count"),
    ("server.evictions", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let usage = "usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("arcadebench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    for knob in AMBIENT_KNOBS {
        if let Ok(value) = std::env::var(knob) {
            return Err(format!(
                "{knob}={value} is set; unset it so the environment cannot change the worker \
                 pool or the solver tier between two measured builds"
            ));
        }
    }
    let setup = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, setup)| setup)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown workload `{}` (expected one of {names:?})",
                args.workload
            )
        })?;

    let tracer = Tracer::new();
    let exec = ExecOptions::with_threads(THREADS);
    let ctx = |traced: bool| Ctx {
        tracer: &tracer,
        exec,
        traced,
    };

    // Set-up, repeated; the last one is kept (and traced in the traced run).
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for repeat in 0..SETUP_REPEATS {
        let traced = args.trace && repeat + 1 == SETUP_REPEATS;
        drop(workload.take());
        tracer.set_phase(Phase::Setup);
        tracer.set_enabled(traced);
        let start = Instant::now();
        workload = Some(setup(args.seed, &ctx(traced))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");

    // The timed phase: passes until the next one would overrun the budget.
    // The traced run alternates untraced (even) and traced (odd) passes.
    let budget = args.seconds as f64;
    let mut rec = Record::default();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut pass_counts = Vec::new();
    // Memory of a repeating workload is sampled after its first pass: later
    // passes only add allocator fragmentation, which would tie the figure to
    // the number of passes a run fits in. A stream workload is sampled at the
    // end, once its cache holds the whole spec pool.
    let mut peak_rss = None;
    let timed = Instant::now();
    let mut index = 0;
    loop {
        let traced = args.trace && index % 2 == 1;
        tracer.set_phase(Phase::Pass(index));
        tracer.set_enabled(traced);
        rec.keep_ops = !traced;
        let start = Instant::now();
        workload.pass(index, &ctx(traced), &mut rec);
        walls[usize::from(traced)].push(start.elapsed().as_secs_f64());
        pass_counts.push(std::mem::take(&mut rec.counts));
        if index == 0 && workload.passes_repeat() {
            peak_rss = peak_rss_mb();
        }
        index += 1;

        let next_traced = args.trace && index % 2 == 1;
        let estimate = median(&walls[usize::from(next_traced)])
            .or_else(|| median(&walls[usize::from(!next_traced)]))
            .unwrap_or(0.0);
        let minimum_done = !args.trace || !walls[1].is_empty();
        if minimum_done && timed.elapsed().as_secs_f64() + estimate > budget {
            break;
        }
    }
    tracer.set_enabled(false);
    if !workload.passes_repeat() {
        peak_rss = peak_rss_mb();
    }

    let run = RunSummary {
        untraced_wall_s: walls[0].iter().sum(),
        traced: args.trace,
    };
    workload.finish(&ctx(false), &mut rec, &run);

    // Every pass of a repeating workload must reproduce the first pass's
    // exact counts.
    let fingerprint = if workload.passes_repeat() {
        let first = pass_counts[0].clone();
        for (pass, counts) in pass_counts.iter().enumerate().skip(1) {
            rec.check(*counts == first, || {
                format!("pass {pass} counts {counts:?} differ from pass 0 {first:?}")
            });
        }
        first
    } else {
        workload.fingerprint()
    };
    let op_ms: Vec<f64> = if workload.query_is_pass() {
        walls[0].iter().map(|s| s * 1e3).collect()
    } else {
        rec.ops.iter().map(|op| op.ms).collect()
    };
    drop(workload);

    let failed_frac = rec.failed as f64 / rec.attempted.max(1) as f64;
    let tail = tail_percentile(op_ms.len());
    let end_to_end: BTreeMap<&str, f64> = BTreeMap::from([
        ("wall_s", median(&walls[0]).unwrap_or(0.0)),
        ("setup_s", median(&setup_s).unwrap_or(0.0)),
        ("peak_rss_mb", peak_rss.unwrap_or(0.0)),
        ("query_p50_ms", quantile(&op_ms, 0.5).unwrap_or(0.0)),
        (
            "query_tail_ms",
            quantile(&op_ms, tail / 100.0).unwrap_or(0.0),
        ),
        ("queries_per_s", op_ms.len() as f64 / run.untraced_wall_s),
    ]);

    println!(
        "workload {} seed {} threads {} (available parallelism {}) trace {}",
        args.workload,
        args.seed,
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(args.trace)
    );
    println!(
        "passes: {} untraced, {} traced; {} queries; tail = p{tail} ({} beyond it)",
        walls[0].len(),
        walls[1].len(),
        op_ms.len(),
        op_ms.len() - ((tail / 100.0) * op_ms.len() as f64).ceil() as usize
    );
    for (name, unit) in END_TO_END {
        println!("{name} = {} {unit}", end_to_end[name]);
    }
    println!("failed_frac = {failed_frac} ratio");
    for (name, value, unit) in &rec.extra {
        println!("{name} = {value} {unit}");
    }
    println!("fingerprint {fingerprint:?}");
    for failure in &rec.failures {
        eprintln!("FAILED {failure}");
    }

    let mut results = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("threads", Json::from(THREADS)),
        ("query_tail_percentile", Json::Number(tail)),
        ("failed_frac", Json::Number(failed_frac)),
        ("untraced_pass_walls_s", Json::numbers(&walls[0])),
        ("traced_pass_walls_s", Json::numbers(&walls[1])),
        ("setup_walls_s", Json::numbers(&setup_s)),
        (
            "end_to_end",
            metrics_json(END_TO_END.iter().map(|&(n, u)| (n, end_to_end[n], u))),
        ),
        (
            "extra",
            metrics_json(rec.extra.iter().map(|&(n, v, u)| (n, v, u))),
        ),
        (
            "fingerprint",
            Json::Object(
                fingerprint
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Array(
                rec.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ];

    let metrics = if args.trace {
        let spans = tracer.spans();
        let layers = per_layer(&spans, &walls, &rec);
        for (name, unit) in PER_LAYER {
            println!("{name} = {} {unit}", layers[name]);
        }
        results.push((
            "per_layer",
            metrics_json(PER_LAYER.iter().map(|&(n, u)| (n, layers[n], u))),
        ));
        write_result(
            &format!("{}-seed{}.trace.json", args.workload, args.seed),
            &chrome_trace(&spans),
        );
        metrics_json(PER_LAYER.iter().map(|&(n, u)| (n, layers[n], u)))
    } else {
        metrics_json(END_TO_END.iter().map(|&(n, u)| (n, end_to_end[n], u)))
    };
    write_result(
        &format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        &Json::Object(
            results
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .to_string(),
    );

    println!(
        "{}",
        Json::object(vec![
            ("correct", Json::Bool(rec.failed == 0)),
            ("attempted", Json::from(rec.attempted)),
            ("failed", Json::from(rec.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(())
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Object(
        metrics
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::object(vec![
                        ("value", Json::Number(value)),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The per-layer metrics of the traced run. Layer times and counts are per
/// traced pass; `registry.ms` and `sim.build_ms` come from the traced
/// set-up, where those layers run.
fn per_layer(
    spans: &[trace::Span],
    walls: &[Vec<f64>; 2],
    rec: &Record,
) -> BTreeMap<&'static str, f64> {
    let passes = walls[1].len().max(1) as f64;
    let in_pass = layer_totals(spans, |s| matches!(s.phase, Phase::Pass(_)));
    let in_setup = layer_totals(spans, |s| s.phase == Phase::Setup);
    let ms = |layer: &str| in_pass.get(layer).map_or(0.0, |t| t.self_ms) / passes;
    let kind_ms = |layer: &str, kind: &str| {
        in_pass
            .get(layer)
            .and_then(|t| t.self_ms_by_kind.get(kind))
            .copied()
            .unwrap_or(0.0)
            / passes
    };
    let count = |layer: &str, key: &str| {
        in_pass
            .get(layer)
            .and_then(|t| t.counts.get(key))
            .copied()
            .unwrap_or(0.0)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let traced_ns: f64 = walls[1].iter().sum::<f64>() * 1e9;
    let top_level_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && matches!(s.phase, Phase::Pass(_)))
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let overhead = match (median(&walls[1]), median(&walls[0])) {
        (Some(traced), Some(untraced)) if untraced > 0.0 => traced / untraced - 1.0,
        _ => 0.0,
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "registry.ms",
        in_setup.get("registry").map_or(0.0, |t| t.self_ms),
    );
    m.insert("composer.ms", ms("composer"));
    m.insert("composer.states", count("composer", "states") / passes);
    m.insert(
        "composer.transitions",
        count("composer", "transitions") / passes,
    );
    m.insert(
        "composer.us_per_state",
        ratio(ms("composer") * 1e3, count("composer", "states") / passes),
    );
    m.insert("lumping.ms", ms("lumping"));
    m.insert("lumping.blocks", count("lumping", "blocks") / passes);
    m.insert(
        "lumping.merge_ratio",
        ratio(count("lumping", "states"), count("lumping", "blocks")),
    );
    m.insert("product.ms", ms("product"));
    m.insert(
        "product.joint_blocks",
        count("product", "joint_blocks") / passes,
    );
    m.insert(
        "product.joint_transitions",
        count("product", "joint_transitions") / passes,
    );
    m.insert("symmetry.ms", ms("symmetry"));
    m.insert("symmetry.orbits", count("symmetry", "orbits") / passes);
    m.insert("steady.ms", ms("steady"));
    m.insert("steady.iterations", count("steady", "iterations") / passes);
    m.insert(
        "steady.operator_applies",
        count("steady", "operator_applies") / passes,
    );
    m.insert("steady.residual", count("steady", "residual").max(0.0));
    m.insert("transient.ms", ms("transient"));
    m.insert(
        "transient.survivability_ms",
        kind_ms("transient", "survivability"),
    );
    m.insert("transient.inst_cost_ms", kind_ms("transient", "inst_cost"));
    m.insert("transient.acc_cost_ms", kind_ms("transient", "acc_cost"));
    m.insert(
        "transient.state_points",
        count("transient", "state_points") / passes,
    );
    m.insert(
        "sim.build_ms",
        in_setup
            .get("sim")
            .and_then(|t| t.self_ms_by_kind.get("build"))
            .copied()
            .unwrap_or(0.0),
    );
    m.insert("sim.ms", ms("sim"));
    m.insert("sim.replications", count("sim", "replications") / passes);
    m.insert(
        "sim.ns_per_replication",
        ratio(ms("sim") * 1e6, count("sim", "replications") / passes),
    );
    m.insert(
        "sim.lr_mean",
        ratio(count("sim", "lr_mean_sum"), count("sim", "lr_runs")),
    );
    for (name, _) in PER_LAYER {
        if name.starts_with("server.") {
            m.insert(name, rec.layer.get(name).copied().unwrap_or(0.0));
        }
    }
    m.insert("trace.coverage", ratio(top_level_ns, traced_ns));
    m.insert("trace.overhead_frac", overhead);
    m
}

/// Writes one result file under `arcadebench/results/`; a write failure is
/// reported but does not fail the run.
fn write_result(name: &str, contents: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    match written {
        Ok(()) => println!("wrote {}", dir.join(name).display()),
        Err(e) => eprintln!("arcadebench: could not write {name}: {e}"),
    }
}
