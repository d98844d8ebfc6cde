//! Command-line runner for the paper's experiments and the analysis daemon.
//!
//! ```text
//! wt-experiments all                # run every table and figure
//! wt-experiments --threads 4 all    # same, on a 4-worker pool
//! wt-experiments --line 1 all       # only Line 1 experiments
//! wt-experiments --json table2      # the same results as JSON
//! wt-experiments table1             # state-space sizes
//! wt-experiments table2             # steady-state availability
//! wt-experiments facility           # two-line facility: product vs joint chain
//! wt-experiments fig3               # reliability over time
//! wt-experiments fig4 fig5          # survivability Line 1, Disaster 1
//! wt-experiments fig6 fig7          # costs Line 1, Disaster 1
//! wt-experiments fig8 fig9          # survivability Line 2, Disaster 2
//! wt-experiments fig10 fig11        # costs Line 2, Disaster 2
//!
//! wt-experiments facility --k 2,3,4,8       # k-line reduction ladder
//! wt-experiments facility --k 4 --strategy frf-1
//! wt-experiments facility --lines ded,ded,frf-1
//!
//! wt-experiments simulate line1/frf-1 --replications 2000   # quotient Monte-Carlo
//! wt-experiments simulate line2/ded --measure cost --disaster disaster-2-mixed \
//!     --horizon 48 --bias 100 --json
//!
//! wt-experiments --trace out.json facility --k 3   # Chrome-trace any command
//!
//! wt-experiments serve --port 7411          # run the analysis daemon
//! wt-experiments serve --trace-dir traces/  # …with the per-query flight recorder
//! wt-experiments query --port 7411 availability line1/ded
//! wt-experiments query --port 7411 survivability line2/ded \
//!     disaster-2-mixed 1.0 0,20,40,60
//! wt-experiments query --port 7411 cost accumulated facility/ded+ded \
//!     facility-all-pumps 0,50,100
//! wt-experiments query --port 7411 stats    # counter + latency table
//! wt-experiments query --port 7411 metrics  # Prometheus text exposition
//! wt-experiments query --port 7411 shutdown
//! ```
//!
//! `--threads N` sizes the worker pool shared by the solver kernels and the
//! per-strategy experiment sweeps (composition is serial); `--threads 1` is
//! the serial path and `--threads 0` (the default) auto-detects. Results are
//! identical for every thread count.
//!
//! `--line` selects the process line(s) by index (`--line 2`, `--line 1,2`,
//! `--line all`; `both` is accepted as an alias of `all`): tables report only
//! the selected lines and line-specific figures (figs. 4–7 are Line 1, figs.
//! 8–11 are Line 2) are skipped when their line is deselected. Indices beyond
//! the loaded model's line count are rejected with the model's actual size,
//! and so is an index given twice.
//! The `facility` experiment needs both lines and is skipped otherwise.
//!
//! `facility --k K0,K1,...` prints the **k-line reduction ladder**: for each
//! homogeneous bank of `k` identical twin lines (strategy `--strategy`,
//! default `ded`) the flat, product and orbit rungs and the availability from
//! the cheapest exact tier — the joint solve on the materialised orbit fold
//! where the product fits, the lazy orbit enumeration where only the orbit
//! bound does (the flat k-product is never materialised), the counts-only
//! product form beyond that. `facility --lines s0,s1,...` runs one
//! heterogeneous bank through the same ladder via the registry spec
//! `facility/s0+s1+...`.
//!
//! `--symmetric-only` restricts the `facility` experiment to the symmetric
//! strategy pairs and prints the symmetry engine's reduction ladder (product
//! blocks → sorted-tuple orbit representatives → solved blocks, plus the
//! exact-lumping minimality certificate) instead of the full figure sweep.
//!
//! `--json` prints every requested table and figure as one JSON document per
//! experiment instead of the text rendering. `query` replies are always the
//! daemon's JSON payload, one document per line. `--trace` writes the
//! recorder through `Json::chrome_trace`, the server crate's JSON writer.
//!
//! The experiments are the entries of one list, `EXPERIMENTS`, which `all`
//! runs in this order: `table1`, `table2`, `facility`, `fig3`, `fig4`+`fig5`,
//! `fig6`+`fig7`, `fig8`+`fig9`, `fig10`+`fig11` (a pair is one run). An
//! unknown name, a malformed flag value or a subcommand after a flag
//! (`serve`, `query` and `simulate` come first) is a usage error: exit
//! status 2, nothing on stdout.

use std::process::ExitCode;
use std::sync::Arc;

use arcade_core::{ArcadeError, ExecOptions, LumpingMode};
use arcade_server::{
    server, AnalysisService, Client, CostKind, Json, QueryOp, Request, Response, SimMeasure,
    StatsSnapshot,
};
use arcade_telemetry::Recorder;
use watertreatment::experiments::{
    self, grids, Figure, KLineReductionRow, SymmetryReductionRow, Table1Row, Table2Row,
    TableFacilityRow,
};
use watertreatment::{Line, LineSelection, ModelSpec};

const DEFAULT_PORT: u16 = 7411;

/// What the experiment runner reads from the command line besides the
/// experiment names.
struct Settings {
    exec: ExecOptions,
    lines: Vec<Line>,
    symmetric_only: bool,
    /// Registry specs of the `facility --k` / `--lines` ladder; empty runs
    /// the paper's strategy pairs.
    ladder: Vec<String>,
}

/// One printed result of an experiment, in both renderings.
struct Doc {
    /// The experiment name that prints it (`fig5` of the Figs. 4–5 entry).
    name: String,
    json: Json,
    /// The text rendering, trailing blank line included.
    text: String,
}

impl Doc {
    fn print(&self, json: bool) {
        if json {
            println!("{}", self.json);
        } else {
            print!("{}", self.text);
        }
    }
}

/// One entry of [`EXPERIMENTS`].
struct Experiment {
    /// The names that select it. One run serves them all: Figs. 4 and 5
    /// share their compilations.
    names: &'static [&'static str],
    /// The lines it needs; unless `--line` selects all of them, a skip note
    /// is printed instead.
    needs: &'static [Line],
    /// Runs it, returning one document per name.
    run: fn(&Settings) -> Result<Vec<Doc>, ArcadeError>,
}

/// Every experiment, in the order `all` runs them. Name checking, `all`,
/// `--line` skipping and `--json` all read this list.
const EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        names: &["table1"],
        needs: &[],
        run: table1,
    },
    Experiment {
        names: &["table2"],
        needs: &[],
        run: table2,
    },
    Experiment {
        names: &["facility"],
        needs: &[Line::Line1, Line::Line2],
        run: facility,
    },
    Experiment {
        names: &["fig3"],
        needs: &[],
        run: |settings| {
            let figure =
                experiments::fig3_reliability(&settings.lines, &grids::fig3(), settings.exec)?;
            Ok(vec![figure_doc(&figure)])
        },
    },
    Experiment {
        names: &["fig4", "fig5"],
        needs: &[Line::Line1],
        run: |settings| {
            let times = grids::fig4_to_6();
            let figures = experiments::fig4_5_survivability_line1(&times, settings.exec)?;
            Ok(figure_docs(figures))
        },
    },
    Experiment {
        names: &["fig6", "fig7"],
        needs: &[Line::Line1],
        run: |settings| {
            let (instantaneous, accumulated) = (grids::fig4_to_6(), grids::fig7());
            let figures =
                experiments::fig6_7_cost_line1(&instantaneous, &accumulated, settings.exec)?;
            Ok(figure_docs(figures))
        },
    },
    Experiment {
        names: &["fig8", "fig9"],
        needs: &[Line::Line2],
        run: |settings| {
            let times = grids::fig8_9();
            let figures = experiments::fig8_9_survivability_line2(&times, settings.exec)?;
            Ok(figure_docs(figures))
        },
    },
    Experiment {
        names: &["fig10", "fig11"],
        needs: &[Line::Line2],
        run: |settings| {
            let times = grids::fig10_11();
            let figures = experiments::fig10_11_cost_line2(&times, settings.exec)?;
            Ok(figure_docs(figures))
        },
    },
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.names.to_vec()).collect();
    format!(
        "usage: wt-experiments [--trace FILE] [--threads N] [--line I0,I1|all] \
         [--symmetric-only] [--json] [all|{}]...\n\
         |  wt-experiments facility [--k K0,K1,..] [--strategy S] [--lines S0,S1,..] \
         [--threads N] [--json]\n\
         |  wt-experiments simulate MODEL [--measure unavailability|ttf|cost] [--disaster D] \
         [--horizon H] [--replications N] [--seed S] [--bias B] [--alpha A] [--threads N] \
         [--json]\n\
         |  wt-experiments serve [--port N] [--threads N] [--cache-cap N] [--trace-dir DIR]\n\
         |  wt-experiments query [--port N] [--json] \
         <ping|stats|metrics|shutdown|availability MODEL|simulate MODEL|\
         survivability MODEL DISASTER LEVEL T0,T1,..|\
         cost instantaneous|accumulated MODEL DISASTER|- T0,T1,..>",
        names.join("|")
    )
}

fn main() -> ExitCode {
    // `--trace FILE` wraps any subcommand: install a process-global recorder
    // (spans + probes), run the command, write the Chrome-trace JSON.
    let given: Vec<String> = std::env::args().skip(1).collect();
    let (mut args, mut trace_file) = (Vec::new(), None);
    let mut rest = given.iter();
    while let Some(arg) = rest.next() {
        match flag(arg, "--trace", &mut rest, |v| Some(v.to_string())) {
            Ok(Some(path)) => trace_file = Some(path),
            Ok(None) => args.push(arg.clone()),
            Err(message) => return usage_error(&message),
        }
    }
    let recorder = trace_file.as_ref().map(|_| {
        let recorder = Recorder::with_probes();
        Recorder::install_global(recorder.clone());
        recorder
    });
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("query") => query_main(&args[1..]),
        Some("simulate") => simulate_main(&args[1..]),
        _ => experiments_main(&args),
    }
    .unwrap_or_else(|message| usage_error(&message));
    if let (Some(path), Some(recorder)) = (trace_file, recorder) {
        match std::fs::write(&path, Json::chrome_trace(&recorder).to_string()) {
            Ok(()) => eprintln!(
                "trace: {} spans written to {path} (chrome://tracing, Perfetto)",
                recorder.spans().len()
            ),
            Err(err) => {
                eprintln!("cannot write trace file `{path}`: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

/// `serve [--port N] [--threads N] [--cache-cap N] [--trace-dir DIR]`: run
/// the daemon in the foreground. `--cache-cap` bounds the quotient cache to
/// N spec keys with least-recently-used eviction (unbounded by default);
/// `--trace-dir` turns on the flight recorder (a bounded ring of per-query
/// Chrome-trace files, query ids echoed in replies).
fn serve_main(args: &[String]) -> Result<ExitCode, String> {
    let mut port = DEFAULT_PORT;
    let mut exec = ExecOptions::default();
    let mut cache_cap: Option<usize> = None;
    let mut trace_dir: Option<String> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(value) = flag(arg, "--port", &mut rest, |v| v.parse().ok())? {
            port = value;
        } else if let Some(threads) = flag(arg, "--threads", &mut rest, |v| v.parse().ok())? {
            exec = ExecOptions::with_threads(threads);
        } else if let Some(cap) = flag(arg, "--cache-cap", &mut rest, |v| v.parse().ok())? {
            cache_cap = Some(cap);
        } else if let Some(dir) = flag(arg, "--trace-dir", &mut rest, |v| Some(v.to_string()))? {
            trace_dir = Some(dir);
        } else {
            return Err(format!("unknown serve option `{arg}`"));
        }
    }
    let mut service = match cache_cap {
        Some(cap) => AnalysisService::with_cache_capacity(exec, cap),
        None => AnalysisService::new(exec),
    };
    if let Some(dir) = &trace_dir {
        service = service.with_trace_dir(dir);
        println!("flight recorder on: per-query traces in {dir}/query-NNNNNN.json");
    }
    let service = Arc::new(service);
    let handle = match server::spawn(("127.0.0.1", port), service) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("wt-experiments daemon listening on {}", handle.addr());
    println!(
        "stop with: wt-experiments query --port {} shutdown",
        handle.addr().port()
    );
    handle.join_until_shutdown();
    println!("daemon stopped");
    Ok(ExitCode::SUCCESS)
}

/// `query [--port N] [--json] <op> [args...]`: one request. Most ops print
/// the JSON payload; `stats` renders a counter/latency table and `metrics`
/// prints the Prometheus text unless `--json` asks for the raw payload.
fn query_main(args: &[String]) -> Result<ExitCode, String> {
    let mut port = DEFAULT_PORT;
    let mut json = false;
    let mut words: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(value) = flag(arg, "--port", &mut rest, |v| v.parse().ok())? {
            port = value;
        } else if arg == "--json" {
            json = true;
        } else {
            words.push(arg);
        }
    }
    let request = parse_query(&words)?;
    let mut client = match Client::connect(("127.0.0.1", port)) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("cannot reach the daemon on 127.0.0.1:{port}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let payload = match client.request(&request) {
        Ok(payload) => payload,
        Err(err) => {
            eprintln!("query failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match request {
        Request::Stats if !json => match StatsSnapshot::from_json(&payload) {
            Ok(snapshot) => print!("{}", format_stats(&snapshot)),
            Err(err) => {
                eprintln!("malformed stats payload: {err}");
                return Ok(ExitCode::FAILURE);
            }
        },
        Request::Metrics if !json => match payload.get("metrics").and_then(Json::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("reply lacks a `metrics` text field: {payload}");
                return Ok(ExitCode::FAILURE);
            }
        },
        _ => println!("{payload}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The human rendering of a stats snapshot: the scalar counters followed by
/// an aligned per-op latency percentile table.
fn format_stats(snapshot: &StatsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "uptime {} s  queries {}  cache {}/{} hit/miss (evictions {})  coalesced {}\n",
        snapshot.uptime_seconds,
        snapshot.queries,
        snapshot.cache_hits,
        snapshot.cache_misses,
        snapshot.evictions,
        snapshot.coalesced_queries,
    ));
    out.push_str(&format!(
        "solves {} ({} warm)  tiers gs/jacobi/krylov {}/{}/{}  transient passes {}\n",
        snapshot.stationary_solves,
        snapshot.warm_solves,
        snapshot.gs_materialised_solves,
        snapshot.jacobi_operator_solves,
        snapshot.krylov_operator_solves,
        snapshot.transient_passes,
    ));
    out.push_str(&format!(
        "simulate {} runs / {} replications\n\n",
        snapshot.simulate_runs, snapshot.simulate_replications,
    ));
    out.push_str(&format!(
        "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
        "op", "count", "p50(us)", "p90(us)", "p99(us)", "max(us)"
    ));
    let quantile = |value: Option<u64>| value.map_or("-".to_string(), |v| v.to_string());
    let ops = QueryOp::ALL.map(|op| (op.name(), snapshot.queries_of(op), snapshot.latency_of(op)));
    let (iterations, batches) = (
        &snapshot.solve_iterations_hist,
        &snapshot.replication_batches_hist,
    );
    let histograms = [
        ("solve-iters", iterations.count, iterations),
        ("sim-batches", batches.count, batches),
    ];
    for (label, count, hist) in ops.into_iter().chain(histograms) {
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            label,
            count,
            quantile(hist.p50()),
            quantile(hist.p90()),
            quantile(hist.p99()),
            if hist.count > 0 {
                hist.max.to_string()
            } else {
                "-".to_string()
            },
        ));
    }
    out
}

/// `simulate MODEL [--measure M] [--disaster D] [--horizon H]
/// [--replications N] [--seed S] [--bias B] [--alpha A] [--threads N]
/// [--json]`: one in-process Monte-Carlo estimate on the model's quotient.
///
/// The command drives the same [`AnalysisService::handle`] entry point as the
/// daemon, so `--json` prints byte-for-byte the payload a daemon `simulate`
/// query would return (the `json` module's f64 rendering is bit-exact).
fn simulate_main(args: &[String]) -> Result<ExitCode, String> {
    let mut model: Option<String> = None;
    let mut measure = SimMeasure::Unavailability;
    let mut disaster: Option<String> = None;
    let mut horizon = 1000.0;
    let mut replications = 10_000usize;
    let mut seed = arcade_server::protocol::DEFAULT_SIM_SEED;
    let mut bias = 1.0;
    let mut alpha = arcade_server::protocol::DEFAULT_SIM_ALPHA;
    let mut exec = ExecOptions::default();
    let mut json = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(value) = flag(arg, "--horizon", &mut rest, |v| v.parse().ok())? {
            horizon = value;
        } else if let Some(value) = flag(arg, "--replications", &mut rest, |v| v.parse().ok())? {
            replications = value;
        } else if let Some(value) = flag(arg, "--seed", &mut rest, |v| v.parse().ok())? {
            seed = value;
        } else if let Some(value) = flag(arg, "--bias", &mut rest, |v| v.parse().ok())? {
            bias = value;
        } else if let Some(value) = flag(arg, "--alpha", &mut rest, |v| v.parse().ok())? {
            alpha = value;
        } else if let Some(value) = flag(arg, "--measure", &mut rest, |v| {
            SimMeasure::parse(&v.to_lowercase())
        })? {
            measure = value;
        } else if let Some(value) = flag(arg, "--disaster", &mut rest, |v| Some(v.to_string()))? {
            disaster = Some(value);
        } else if let Some(threads) = flag(arg, "--threads", &mut rest, |v| v.parse().ok())? {
            exec = ExecOptions::with_threads(threads);
        } else if arg == "--json" {
            json = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown simulate option `{arg}`"));
        } else if model.is_none() {
            model = Some(arg.clone());
        } else {
            return Err(format!("unexpected simulate argument `{arg}`"));
        }
    }
    let model = model.ok_or("simulate needs a MODEL spec (e.g. line1/frf-1)")?;

    let service = AnalysisService::new(exec);
    let request = Request::Simulate {
        model,
        measure,
        disaster,
        horizon,
        replications,
        seed,
        bias,
        alpha,
    };
    let payload = match service.handle(&request) {
        Response::Ok(payload) => payload,
        Response::Err(err) => {
            eprintln!("simulate failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if json {
        println!("{payload}");
        return Ok(ExitCode::SUCCESS);
    }
    let text = |name: &str| payload.get(name).map(|v| v.to_string()).unwrap_or_default();
    println!(
        "== Simulate {} on {} ({} blocks / {} source states) ==",
        text("measure"),
        text("model"),
        text("blocks"),
        text("source_states"),
    );
    println!(
        "replications {}  seed {}  horizon {} h  bias {}",
        text("replications"),
        text("seed"),
        text("horizon"),
        text("bias"),
    );
    println!("mean {} ± {}", text("mean"), text("half_width"));
    if payload.get("var").is_some() {
        println!(
            "VaR[{}] {} ± {}   CVaR {} ± {}",
            text("alpha"),
            text("var"),
            text("var_half_width"),
            text("cvar"),
            text("cvar_half_width"),
        );
    }
    if payload.get("lr_mean").is_some() {
        println!(
            "likelihood-ratio certificate: mean {} ± {} (must cover 1)",
            text("lr_mean"),
            text("lr_half_width"),
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_query(words: &[&String]) -> Result<Request, String> {
    let times_of = |word: &str| -> Result<Vec<f64>, String> {
        word.split(',')
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid time point `{t}`"))
            })
            .collect()
    };
    match words {
        [op] if op.as_str() == "ping" => Ok(Request::Ping),
        [op] if op.as_str() == "stats" => Ok(Request::Stats),
        [op] if op.as_str() == "metrics" => Ok(Request::Metrics),
        [op] if op.as_str() == "shutdown" => Ok(Request::Shutdown),
        [op, model] if op.as_str() == "availability" => Ok(Request::Availability {
            model: model.to_string(),
        }),
        [op, model, disaster, level, times] if op.as_str() == "survivability" => {
            Ok(Request::Survivability {
                model: model.to_string(),
                disaster: disaster.to_string(),
                level: level
                    .parse::<f64>()
                    .map_err(|_| format!("invalid service level `{level}`"))?,
                times: times_of(times)?,
            })
        }
        [op, kind, model, disaster, times] if op.as_str() == "cost" => Ok(Request::Cost {
            model: model.to_string(),
            kind: CostKind::parse(kind).ok_or_else(|| format!("invalid cost kind `{kind}`"))?,
            disaster: (disaster.as_str() != "-").then(|| disaster.to_string()),
            times: times_of(times)?,
        }),
        // `simulate MODEL` asks the daemon for the default Monte-Carlo
        // estimate (unavailability, protocol-default horizon/replications);
        // the in-process `simulate` subcommand exposes every knob.
        [op, model] if op.as_str() == "simulate" => Ok(Request::Simulate {
            model: model.to_string(),
            measure: SimMeasure::Unavailability,
            disaster: None,
            horizon: 1000.0,
            replications: 10_000,
            seed: arcade_server::protocol::DEFAULT_SIM_SEED,
            bias: 1.0,
            alpha: arcade_server::protocol::DEFAULT_SIM_ALPHA,
        }),
        _ => Err("unrecognised query".to_string()),
    }
}

/// Reads flag `name` when `arg` is it, as `--name value` (the value taken
/// from `rest`) or `--name=value`: `Ok(None)` when `arg` is another
/// argument, an error naming the flag when the value is missing or `parse`
/// rejects it.
fn flag<T>(
    arg: &str,
    name: &str,
    rest: &mut std::slice::Iter<'_, String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(tail) = arg.strip_prefix(name) else {
        return Ok(None);
    };
    let value = match tail.strip_prefix('=') {
        Some(value) => value,
        None if tail.is_empty() => rest
            .next()
            .ok_or_else(|| format!("{name} expects a value"))?,
        None => return Ok(None),
    };
    parse(value)
        .map(Some)
        .ok_or_else(|| format!("invalid {name} value `{value}`"))
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{}", usage());
    ExitCode::from(2)
}

/// The experiment runner: `[--threads N] [--line ..] [--symmetric-only]
/// [--json] [--k ..] [--lines ..] [--strategy S] NAME...`, case-insensitive.
fn experiments_main(args: &[String]) -> Result<ExitCode, String> {
    let args: Vec<String> = args.iter().map(|arg| arg.to_lowercase()).collect();
    let mut settings = Settings {
        exec: ExecOptions::default(),
        lines: Line::both().to_vec(),
        symmetric_only: false,
        ladder: Vec::new(),
    };
    let mut json = false;
    let mut requested: Vec<&str> = Vec::new();
    let mut ks: Vec<usize> = Vec::new();
    let mut bank: Vec<String> = Vec::new();
    let mut strategy = "ded".to_string();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(threads) = flag(arg, "--threads", &mut rest, |v| v.parse().ok())? {
            settings.exec = ExecOptions::with_threads(threads);
        } else if let Some(selection) = flag(arg, "--line", &mut rest, LineSelection::from_arg)? {
            let indices = selection.resolve(Line::both().len())?;
            settings.lines = indices.into_iter().map(|i| Line::both()[i]).collect();
        } else if let Some(lines) = flag(arg, "--lines", &mut rest, |v| {
            Some(
                v.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
            )
        })? {
            bank = lines;
        } else if let Some(values) = flag(arg, "--k", &mut rest, |v| {
            v.split(',')
                .filter(|s| !s.is_empty())
                .map(|k| k.trim().parse().ok())
                .collect()
        })? {
            ks = values;
        } else if let Some(name) = flag(arg, "--strategy", &mut rest, |v| Some(v.to_string()))? {
            strategy = name;
        } else if arg == "--symmetric-only" {
            settings.symmetric_only = true;
        } else if arg == "--json" {
            json = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else {
            requested.push(arg);
        }
    }
    settings.ladder = ks
        .iter()
        .map(|k| format!("facility/{strategy}^{k}"))
        .collect();
    if !bank.is_empty() {
        settings.ladder.push(format!("facility/{}", bank.join("+")));
    }
    if !settings.ladder.is_empty() {
        if requested.iter().any(|&name| name != "facility") {
            return Err("--k/--lines apply to the `facility` experiment only".to_string());
        }
        requested = vec!["facility"];
    }
    if requested.is_empty() {
        return Err("name an experiment or a subcommand".to_string());
    }
    let known = |name: &str| {
        name == "all"
            || EXPERIMENTS
                .iter()
                .any(|experiment| experiment.names.contains(&name))
    };
    if let Some(unknown) = requested.iter().find(|name| !known(name)) {
        return Err(format!("unknown experiment `{unknown}`"));
    }

    let all = requested.contains(&"all");
    let wants = |name: &str| all || requested.contains(&name);
    for experiment in &EXPERIMENTS {
        if !experiment.names.iter().any(|name| wants(name)) {
            continue;
        }
        if !experiment
            .needs
            .iter()
            .all(|line| settings.lines.contains(line))
        {
            skip_note(experiment).print(json);
            continue;
        }
        match (experiment.run)(&settings) {
            Ok(docs) => docs
                .iter()
                .filter(|doc| wants(&doc.name))
                .for_each(|doc| doc.print(json)),
            Err(err) => {
                eprintln!("experiment failed: {err}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The note printed in place of an experiment whose lines `--line`
/// deselected.
fn skip_note(experiment: &Experiment) -> Doc {
    let name = experiment.names.join("/");
    let needs = match experiment.needs {
        [Line::Line1] => "line 1",
        [Line::Line2] => "line 2",
        _ => "both lines",
    };
    Doc {
        json: Json::object(vec![
            ("experiment", Json::from(name.as_str())),
            ("skipped", Json::Bool(true)),
            ("needs", Json::from(needs)),
        ]),
        text: format!("== {name}: skipped (needs {needs}; pass --line both) ==\n\n"),
        name,
    }
}

fn table1(settings: &Settings) -> Result<Vec<Doc>, ArcadeError> {
    let (lines, exec) = (&settings.lines, settings.exec);
    let measured = experiments::table1(lines, LumpingMode::Exact, exec)?;
    let compositional = experiments::table1(lines, LumpingMode::Compositional, exec)?;
    let reference = experiments::table1_paper_reference();
    Ok(vec![Doc {
        name: "table1".to_string(),
        json: Json::object(vec![
            ("experiment", Json::from("table1")),
            ("measured", table1_json(&measured)),
            ("paper_reference", table1_json(&reference)),
            ("compositional", table1_json(&compositional)),
        ]),
        text: format!(
            "== Table 1: state-space sizes (flat product, as the paper reports) ==\n{}\n\
             -- paper reference --\n{}\n\
             -- compositional pipeline (per-line sub-chains lumped before the product) --\n{}\n",
            experiments::format_table1(&measured),
            experiments::format_table1(&reference),
            experiments::format_table1(&compositional),
        ),
    }])
}

fn table2(settings: &Settings) -> Result<Vec<Doc>, ArcadeError> {
    let measured = experiments::table2(&settings.lines, settings.exec)?;
    let reference = experiments::table2_paper_reference();
    Ok(vec![Doc {
        name: "table2".to_string(),
        json: Json::object(vec![
            ("experiment", Json::from("table2")),
            ("measured", table2_json(&measured)),
            ("paper_reference", table2_json(&reference)),
        ]),
        text: format!(
            "== Table 2: steady-state availability ==\n{}\n-- paper reference --\n{}\n",
            experiments::format_table2(&measured),
            experiments::format_table2(&reference),
        ),
    }])
}

/// The `facility` experiment: the k-line reduction ladder when `--k` or
/// `--lines` name banks, the symmetry report under `--symmetric-only`, else
/// the paper's strategy pairs as one validation table and four figures.
fn facility(settings: &Settings) -> Result<Vec<Doc>, ArcadeError> {
    let exec = settings.exec;
    let (json, text) = if !settings.ladder.is_empty() {
        let specs = settings
            .ladder
            .iter()
            .map(|spec| ModelSpec::parse(spec))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = experiments::kline_reduction_table(&specs, exec)?;
        (
            Json::object(vec![
                ("experiment", Json::from("facility-kline")),
                ("rows", kline_json(&rows)),
            ]),
            format!(
                "== Facility k-line reduction ladder: flat → product → orbit ==\n{}\n\
                 Tiers: joint-solve runs the matrix-free Krylov solver (damped-Jacobi\n\
                 fallback) on the Kronecker-sum operator; orbit-enumeration walks the sorted\n\
                 multisets lazily under the product measure (the flat k-product is never\n\
                 materialised); product-form reports counts and 1 - prod P(line down) only.\n\n",
                experiments::format_kline_reduction(&rows)
            ),
        )
    } else if settings.symmetric_only {
        let rows = experiments::symmetry_reduction_table(exec)?;
        (
            Json::object(vec![
                ("experiment", Json::from("facility-symmetry")),
                ("rows", symmetry_json(&rows)),
            ]),
            format!(
                "== Facility symmetry: orbit quotients of the symmetric strategy pairs ==\n{}\n\
                 Paper pairs compose two *different* lines, so no cross-line symmetry\n\
                 exists; the `Exact-min` column certifies their products minimal. The\n\
                 twin facilities (two identical Line 2 copies) fold to n(n+1)/2 sorted\n\
                 pairs before materialisation.\n\n",
                experiments::format_symmetry_reduction(&rows)
            ),
        )
    } else {
        let suite = experiments::facility_suite(
            &experiments::paired_strategies(),
            &grids::fig4_to_6(),
            &grids::fig4_to_6(),
            &grids::fig7(),
            exec,
        )?;
        let figures = [
            &suite.recovery_full,
            &suite.recovery_basic,
            &suite.cost_instantaneous,
            &suite.cost_accumulated,
        ];
        let mut text = format!(
            "== Facility: combined availability, product form vs genuine joint chain ==\n{}\n",
            experiments::format_table_facility(&suite.table)
        );
        for figure in figures {
            text.push_str(&figure_doc(figure).text);
        }
        (
            Json::object(vec![
                ("experiment", Json::from("facility")),
                ("table", facility_table_json(&suite.table)),
                ("recovery_full", figure_json(&suite.recovery_full)),
                ("recovery_basic", figure_json(&suite.recovery_basic)),
                ("cost_instantaneous", figure_json(&suite.cost_instantaneous)),
                ("cost_accumulated", figure_json(&suite.cost_accumulated)),
            ]),
            text,
        )
    };
    Ok(vec![Doc {
        name: "facility".to_string(),
        json,
        text,
    }])
}

fn figure_doc(figure: &Figure) -> Doc {
    Doc {
        name: figure.id.clone(),
        json: figure_json(figure),
        text: format!("{}\n", experiments::format_figure(figure)),
    }
}

fn figure_docs((first, second): (Figure, Figure)) -> Vec<Doc> {
    vec![figure_doc(&first), figure_doc(&second)]
}

/// A JSON array with one object per row.
fn objects<T>(rows: &[T], fields: impl Fn(&T) -> Vec<(&str, Json)>) -> Json {
    Json::Array(rows.iter().map(|row| Json::object(fields(row))).collect())
}

fn figure_json(figure: &Figure) -> Json {
    let series = objects(&figure.series, |series| {
        vec![
            ("label", Json::from(series.label.as_str())),
            ("points", Json::curve(&series.points)),
        ]
    });
    Json::object(vec![
        ("id", Json::from(figure.id.as_str())),
        ("title", Json::from(figure.title.as_str())),
        ("x_label", Json::from(figure.x_label.as_str())),
        ("y_label", Json::from(figure.y_label.as_str())),
        ("series", series),
    ])
}

fn table1_json(rows: &[Table1Row]) -> Json {
    let opt = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    objects(rows, |row| {
        vec![
            ("line", Json::from(row.line.id())),
            ("strategy", Json::from(row.strategy.as_str())),
            ("states", Json::from(row.states)),
            ("transitions", Json::from(row.transitions)),
            ("lumped_states", opt(row.lumped_states)),
            ("lumped_transitions", opt(row.lumped_transitions)),
        ]
    })
}

fn table2_json(rows: &[Table2Row]) -> Json {
    objects(rows, |row| {
        vec![
            ("strategy", Json::from(row.strategy.as_str())),
            ("line1", Json::Number(row.line1)),
            ("line2", Json::Number(row.line2)),
            ("combined", Json::Number(row.combined)),
        ]
    })
}

fn facility_table_json(rows: &[TableFacilityRow]) -> Json {
    objects(rows, |row| {
        vec![
            ("pair", Json::from(row.pair.as_str())),
            ("line1", Json::Number(row.line1)),
            ("line2", Json::Number(row.line2)),
            ("combined", Json::Number(row.combined)),
            ("joint", Json::Number(row.joint)),
            ("difference", Json::Number(row.difference)),
            ("joint_blocks", Json::from(row.joint_blocks)),
            ("solved_blocks", Json::from(row.solved_blocks)),
            ("residual", Json::Number(row.residual)),
            ("solver_tier", Json::from(row.solver_tier.as_str())),
            ("iterations", Json::from(row.iterations)),
        ]
    })
}

fn kline_json(rows: &[KLineReductionRow]) -> Json {
    let opt_count = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    let opt_number = |value: Option<f64>| value.map_or(Json::Null, Json::Number);
    objects(rows, |row| {
        vec![
            ("k", Json::from(row.k)),
            ("facility", Json::from(row.facility.as_str())),
            ("flat_states", Json::from(row.flat_states)),
            ("product_blocks", Json::from(row.product_blocks)),
            ("orbit_blocks", opt_count(row.orbit_blocks)),
            ("solved_blocks", opt_count(row.solved_blocks)),
            ("availability", Json::Number(row.availability)),
            ("joint_availability", opt_number(row.joint_availability)),
            ("certificate", opt_number(row.certificate)),
            ("tier", Json::from(row.tier.as_str())),
            (
                "solver",
                row.solver.as_deref().map_or(Json::Null, Json::from),
            ),
            ("iterations", opt_count(row.iterations)),
        ]
    })
}

fn symmetry_json(rows: &[SymmetryReductionRow]) -> Json {
    objects(rows, |row| {
        vec![
            ("facility", Json::from(row.facility.as_str())),
            ("product_blocks", Json::from(row.product_blocks)),
            (
                "orbit_blocks",
                row.orbit_blocks.map_or(Json::Null, Json::from),
            ),
            ("solver_blocks", Json::from(row.solver_blocks)),
            ("exact_blocks", Json::from(row.exact_blocks)),
            ("reduction_factor", Json::Number(row.reduction_factor())),
        ]
    })
}
