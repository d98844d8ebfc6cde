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
//! the loaded model's line count are rejected with the model's actual size.
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
//! daemon's JSON payload, one document per line.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;

use arcade_core::ExecOptions;
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

const USAGE: &str = "usage: wt-experiments [--trace FILE] [--threads N] [--line I0,I1|all] \
     [--symmetric-only] \
     [--json] [all|table1|table2|facility|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11]...\n\
     |  wt-experiments facility [--k K0,K1,..] [--strategy S] [--lines S0,S1,..] \
     [--threads N] [--json]\n\
     |  wt-experiments simulate MODEL [--measure unavailability|ttf|cost] [--disaster D] \
     [--horizon H] [--replications N] [--seed S] [--bias B] [--alpha A] [--threads N] [--json]\n\
     |  wt-experiments serve [--port N] [--threads N] [--cache-cap N] [--trace-dir DIR]\n\
     |  wt-experiments query [--port N] [--json] \
     <ping|stats|metrics|shutdown|availability MODEL|simulate MODEL|\
survivability MODEL DISASTER LEVEL T0,T1,..|\
cost instantaneous|accumulated MODEL DISASTER|- T0,T1,..>";

const DEFAULT_PORT: u16 = 7411;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace FILE` wraps any subcommand: install a process-global recorder
    // (spans + probes), run the command, write the Chrome-trace JSON.
    let trace_file = match extract_trace_flag(&mut args) {
        Ok(path) => path,
        Err(message) => return usage_error(&message),
    };
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
    };
    if let (Some(path), Some(recorder)) = (trace_file, recorder) {
        match std::fs::write(&path, recorder.chrome_trace()) {
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

/// Removes `--trace FILE` / `--trace=FILE` from `args`, returning the file.
fn extract_trace_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(position) = args
        .iter()
        .position(|arg| arg == "--trace" || arg.starts_with("--trace="))
    else {
        return Ok(None);
    };
    let arg = args.remove(position);
    if let Some(value) = arg.strip_prefix("--trace=") {
        return Ok(Some(value.to_string()));
    }
    if position < args.len() {
        return Ok(Some(args.remove(position)));
    }
    Err("--trace expects a file path".to_string())
}

/// `serve [--port N] [--threads N] [--cache-cap N] [--trace-dir DIR]`: run
/// the daemon in the foreground. `--cache-cap` bounds the quotient cache to
/// N spec keys with least-recently-used eviction (unbounded by default);
/// `--trace-dir` turns on the flight recorder (a bounded ring of per-query
/// Chrome-trace files, query ids echoed in replies).
fn serve_main(args: &[String]) -> ExitCode {
    let mut port = DEFAULT_PORT;
    let mut exec = ExecOptions::default();
    let mut cache_cap: Option<usize> = None;
    let mut trace_dir: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(result) = flag_value(arg, "--port", &mut iter) {
            match result.and_then(|value| {
                value
                    .parse::<u16>()
                    .map_err(|_| format!("invalid --port value `{value}`"))
            }) {
                Ok(p) => port = p,
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(arg, "--threads", &mut iter) {
            match result.and_then(|value| {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --threads value `{value}`"))
            }) {
                Ok(threads) => exec = ExecOptions::with_threads(threads),
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(arg, "--cache-cap", &mut iter) {
            match result.and_then(|value| {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --cache-cap value `{value}`"))
            }) {
                Ok(cap) => cache_cap = Some(cap),
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(arg, "--trace-dir", &mut iter) {
            match result {
                Ok(dir) => trace_dir = Some(dir),
                Err(message) => return usage_error(&message),
            }
        } else {
            return usage_error(&format!("unknown serve option `{arg}`"));
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
            return ExitCode::FAILURE;
        }
    };
    println!("wt-experiments daemon listening on {}", handle.addr());
    println!(
        "stop with: wt-experiments query --port {} shutdown",
        handle.addr().port()
    );
    handle.join_until_shutdown();
    println!("daemon stopped");
    ExitCode::SUCCESS
}

/// `query [--port N] [--json] <op> [args...]`: one request. Most ops print
/// the JSON payload; `stats` renders a counter/latency table and `metrics`
/// prints the Prometheus text unless `--json` asks for the raw payload.
fn query_main(args: &[String]) -> ExitCode {
    let mut port = DEFAULT_PORT;
    let mut json = false;
    let mut rest: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(result) = flag_value(arg, "--port", &mut iter) {
            match result.and_then(|value| {
                value
                    .parse::<u16>()
                    .map_err(|_| format!("invalid --port value `{value}`"))
            }) {
                Ok(p) => port = p,
                Err(message) => return usage_error(&message),
            }
        } else if arg == "--json" {
            json = true;
        } else {
            rest.push(arg);
        }
    }
    let request = match parse_query(&rest) {
        Ok(request) => request,
        Err(message) => return usage_error(&message),
    };
    let mut client = match Client::connect(("127.0.0.1", port)) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("cannot reach the daemon on 127.0.0.1:{port}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let payload = match client.request(&request) {
        Ok(payload) => payload,
        Err(err) => {
            eprintln!("query failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    match request {
        Request::Stats if !json => match StatsSnapshot::from_json(&payload) {
            Ok(snapshot) => print!("{}", format_stats(&snapshot)),
            Err(err) => {
                eprintln!("malformed stats payload: {err}");
                return ExitCode::FAILURE;
            }
        },
        Request::Metrics if !json => match payload.get("metrics").and_then(Json::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("reply lacks a `metrics` text field: {payload}");
                return ExitCode::FAILURE;
            }
        },
        _ => println!("{payload}"),
    }
    ExitCode::SUCCESS
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
    for op in QueryOp::ALL {
        let hist = snapshot.latency_of(op);
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            op.name(),
            snapshot.queries_of(op),
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
    for (label, hist) in [
        ("solve-iters", &snapshot.solve_iterations_hist),
        ("sim-batches", &snapshot.replication_batches_hist),
    ] {
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            label,
            hist.count,
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
fn simulate_main(args: &[String]) -> ExitCode {
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
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        macro_rules! numeric_flag {
            ($flag:literal, $target:ident, $ty:ty) => {
                if let Some(result) = flag_value(arg, $flag, &mut iter) {
                    match result.and_then(|value| {
                        value
                            .parse::<$ty>()
                            .map_err(|_| format!(concat!("invalid ", $flag, " value `{}`"), value))
                    }) {
                        Ok(value) => $target = value,
                        Err(message) => return usage_error(&message),
                    }
                    continue;
                }
            };
        }
        numeric_flag!("--horizon", horizon, f64);
        numeric_flag!("--replications", replications, usize);
        numeric_flag!("--seed", seed, u64);
        numeric_flag!("--bias", bias, f64);
        numeric_flag!("--alpha", alpha, f64);
        if let Some(result) = flag_value(arg, "--measure", &mut iter) {
            match result.and_then(|value| {
                SimMeasure::parse(&value.to_lowercase())
                    .ok_or_else(|| format!("invalid --measure value `{value}`"))
            }) {
                Ok(value) => measure = value,
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(arg, "--disaster", &mut iter) {
            match result {
                Ok(value) => disaster = Some(value),
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(arg, "--threads", &mut iter) {
            match result.and_then(|value| {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --threads value `{value}`"))
            }) {
                Ok(threads) => exec = ExecOptions::with_threads(threads),
                Err(message) => return usage_error(&message),
            }
        } else if arg == "--json" {
            json = true;
        } else if arg.starts_with('-') {
            return usage_error(&format!("unknown simulate option `{arg}`"));
        } else if model.is_none() {
            model = Some(arg.clone());
        } else {
            return usage_error(&format!("unexpected simulate argument `{arg}`"));
        }
    }
    let Some(model) = model else {
        return usage_error("simulate needs a MODEL spec (e.g. line1/frf-1)");
    };

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
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{payload}");
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
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

/// Matches `--flag value` / `--flag=value`; advances `iter` for the spaced
/// form. `Some(Err(..))` means the flag was present but valueless.
fn flag_value(
    arg: &str,
    flag: &str,
    iter: &mut std::slice::Iter<'_, String>,
) -> Option<Result<String, String>> {
    if let Some(value) = arg.strip_prefix(flag) {
        if let Some(value) = value.strip_prefix('=') {
            return Some(Ok(value.to_string()));
        }
        if value.is_empty() {
            return Some(match iter.next() {
                Some(value) => Ok(value.clone()),
                None => Err(format!("{flag} expects a value")),
            });
        }
    }
    None
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// Resolves a `--line` argument against the paper's two-line facility:
/// arbitrary indices parse, but only indices the model actually has resolve.
fn parse_line_selection(value: &str) -> Result<Vec<Line>, String> {
    let selection = LineSelection::from_arg(value).ok_or_else(|| {
        format!("invalid --line value `{value}` (expected indices like 1,2 or all)")
    })?;
    let indices = selection.resolve(Line::both().len())?;
    Ok(indices
        .into_iter()
        .map(|index| Line::both()[index])
        .collect())
}

fn experiments_main(args: &[String]) -> ExitCode {
    let mut requested: BTreeSet<String> = BTreeSet::new();
    let mut exec = ExecOptions::default();
    let mut lines: Vec<Line> = Line::both().to_vec();
    let mut symmetric_only = false;
    let mut json = false;
    let mut kline_ks: Vec<usize> = Vec::new();
    let mut kline_lines: Vec<String> = Vec::new();
    let mut kline_strategy = "ded".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let lower = arg.to_lowercase();
        if let Some(value) = lower.strip_prefix("--threads=") {
            match value.parse::<usize>() {
                Ok(threads) => exec = ExecOptions::with_threads(threads),
                Err(_) => return usage_error(&format!("invalid --threads value `{value}`")),
            }
        } else if lower == "--threads" {
            match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(threads)) => exec = ExecOptions::with_threads(threads),
                _ => return usage_error("--threads expects a number"),
            }
        } else if let Some(result) = flag_value(&lower, "--lines", &mut iter) {
            match result {
                Ok(value) => {
                    kline_lines = value
                        .to_lowercase()
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect()
                }
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(&lower, "--line", &mut iter) {
            match result.and_then(|value| parse_line_selection(&value.to_lowercase())) {
                Ok(selection) => lines = selection,
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(&lower, "--k", &mut iter) {
            let parsed = result.and_then(|value| {
                value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("invalid --k value `{s}`"))
                    })
                    .collect::<Result<Vec<usize>, String>>()
            });
            match parsed {
                Ok(ks) => kline_ks = ks,
                Err(message) => return usage_error(&message),
            }
        } else if let Some(result) = flag_value(&lower, "--strategy", &mut iter) {
            match result {
                Ok(value) => kline_strategy = value.to_lowercase(),
                Err(message) => return usage_error(&message),
            }
        } else if lower == "--symmetric-only" {
            symmetric_only = true;
        } else if lower == "--json" {
            json = true;
        } else if lower.starts_with('-') {
            return usage_error(&format!("unknown option `{arg}`"));
        } else {
            requested.insert(lower);
        }
    }
    if !kline_ks.is_empty() || !kline_lines.is_empty() {
        if !requested.is_empty() && requested != BTreeSet::from(["facility".to_string()]) {
            return usage_error("--k/--lines apply to the `facility` experiment only");
        }
        if let Err(err) = run_kline(&kline_ks, &kline_lines, &kline_strategy, exec, json) {
            eprintln!("experiment failed: {err}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    if requested.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let all = requested.contains("all");
    let wants = |name: &str| all || requested.contains(name);

    if let Err(err) = run(wants, exec, &lines, symmetric_only, json) {
        eprintln!("experiment failed: {err}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `facility --k ... / --lines ...` sweep: builds one registry spec per
/// requested bank and prints the k-line reduction ladder.
fn run_kline(
    ks: &[usize],
    line_strategies: &[String],
    strategy: &str,
    exec: ExecOptions,
    json: bool,
) -> Result<(), arcade_core::ArcadeError> {
    let mut specs = Vec::new();
    for &k in ks {
        specs.push(ModelSpec::parse(&format!("facility/{strategy}^{k}"))?);
    }
    if !line_strategies.is_empty() {
        specs.push(ModelSpec::parse(&format!(
            "facility/{}",
            line_strategies.join("+")
        ))?);
    }
    let rows = experiments::kline_reduction_table(&specs, exec)?;
    if json {
        println!(
            "{}",
            Json::object(vec![
                ("experiment", Json::from("facility-kline")),
                ("rows", kline_json(&rows)),
            ])
        );
    } else {
        println!("== Facility k-line reduction ladder: flat → product → orbit ==");
        println!("{}", experiments::format_kline_reduction(&rows));
        println!(
            "Tiers: joint-solve runs the matrix-free Krylov solver (damped-Jacobi\n\
             fallback) on the Kronecker-sum operator; orbit-enumeration walks the sorted\n\
             multisets lazily under the product measure (the flat k-product is never\n\
             materialised); product-form reports counts and 1 - prod P(line down) only.\n"
        );
    }
    Ok(())
}

fn run(
    wants: impl Fn(&str) -> bool,
    exec: ExecOptions,
    lines: &[Line],
    symmetric_only: bool,
    json: bool,
) -> Result<(), arcade_core::ArcadeError> {
    let has = |line: Line| lines.contains(&line);
    let both = has(Line::Line1) && has(Line::Line2);
    let figure = |fig: &Figure| {
        if json {
            println!("{}", figure_json(fig));
        } else {
            println!("{}", experiments::format_figure(fig));
        }
    };
    let skip = |name: &str, needed: &str| {
        if json {
            println!(
                "{}",
                Json::object(vec![
                    ("experiment", Json::from(name)),
                    ("skipped", Json::Bool(true)),
                    ("needs", Json::from(needed)),
                ])
            );
        } else {
            println!("== {name}: skipped (needs {needed}; pass --line both) ==\n");
        }
    };

    if wants("table1") {
        let measured = experiments::table1_lines_with(lines, exec)?;
        let compositional = experiments::table1_compositional()?;
        if json {
            println!(
                "{}",
                Json::object(vec![
                    ("experiment", Json::from("table1")),
                    ("measured", table1_json(&measured)),
                    (
                        "paper_reference",
                        table1_json(&experiments::table1_paper_reference()),
                    ),
                    ("compositional", table1_json(&compositional)),
                ])
            );
        } else {
            println!("== Table 1: state-space sizes (flat product, as the paper reports) ==");
            println!("{}", experiments::format_table1(&measured));
            println!("-- paper reference --");
            println!(
                "{}",
                experiments::format_table1(&experiments::table1_paper_reference())
            );
            println!(
                "-- compositional pipeline (per-line sub-chains lumped before the product) --"
            );
            println!("{}", experiments::format_table1(&compositional));
        }
    }
    if wants("table2") {
        let measured = experiments::table2_lines_with(lines, exec)?;
        if json {
            println!(
                "{}",
                Json::object(vec![
                    ("experiment", Json::from("table2")),
                    ("measured", table2_json(&measured)),
                    (
                        "paper_reference",
                        table2_json(&experiments::table2_paper_reference()),
                    ),
                ])
            );
        } else {
            println!("== Table 2: steady-state availability ==");
            println!("{}", experiments::format_table2(&measured));
            println!("-- paper reference --");
            println!(
                "{}",
                experiments::format_table2(&experiments::table2_paper_reference())
            );
        }
    }
    if wants("facility") {
        if both && symmetric_only {
            let rows = experiments::symmetry_reduction_table(exec)?;
            if json {
                println!(
                    "{}",
                    Json::object(vec![
                        ("experiment", Json::from("facility-symmetry")),
                        ("rows", symmetry_json(&rows)),
                    ])
                );
            } else {
                println!(
                    "== Facility symmetry: orbit quotients of the symmetric strategy pairs =="
                );
                println!("{}", experiments::format_symmetry_reduction(&rows));
                println!(
                    "Paper pairs compose two *different* lines, so no cross-line symmetry\n\
                     exists; the `Exact-min` column certifies their products minimal. The\n\
                     twin facilities (two identical Line 2 copies) fold to n(n+1)/2 sorted\n\
                     pairs before materialisation.\n"
                );
            }
        } else if both {
            let suite = experiments::facility_suite_with(
                &experiments::paired_strategies(),
                &grids::fig4_to_6(),
                &grids::fig4_to_6(),
                &grids::fig7(),
                exec,
            )?;
            if json {
                println!(
                    "{}",
                    Json::object(vec![
                        ("experiment", Json::from("facility")),
                        ("table", facility_table_json(&suite.table)),
                        ("recovery_full", figure_json(&suite.recovery_full)),
                        ("recovery_basic", figure_json(&suite.recovery_basic)),
                        ("cost_instantaneous", figure_json(&suite.cost_instantaneous)),
                        ("cost_accumulated", figure_json(&suite.cost_accumulated)),
                    ])
                );
            } else {
                println!(
                    "== Facility: combined availability, product form vs genuine joint chain =="
                );
                println!("{}", experiments::format_table_facility(&suite.table));
                println!("{}", experiments::format_figure(&suite.recovery_full));
                println!("{}", experiments::format_figure(&suite.recovery_basic));
                println!("{}", experiments::format_figure(&suite.cost_instantaneous));
                println!("{}", experiments::format_figure(&suite.cost_accumulated));
            }
        } else {
            skip("facility", "both lines");
        }
    }
    if wants("fig3") {
        let fig = experiments::fig3_reliability_lines_with(lines, &grids::fig3(), exec)?;
        figure(&fig);
    }
    if wants("fig4") || wants("fig5") {
        if has(Line::Line1) {
            let (fig4, fig5) =
                experiments::fig4_5_survivability_line1_with(&grids::fig4_to_6(), exec)?;
            if wants("fig4") {
                figure(&fig4);
            }
            if wants("fig5") {
                figure(&fig5);
            }
        } else {
            skip("fig4/fig5", "line 1");
        }
    }
    if wants("fig6") || wants("fig7") {
        if has(Line::Line1) {
            let (fig6, fig7) =
                experiments::fig6_7_cost_line1_with(&grids::fig4_to_6(), &grids::fig7(), exec)?;
            if wants("fig6") {
                figure(&fig6);
            }
            if wants("fig7") {
                figure(&fig7);
            }
        } else {
            skip("fig6/fig7", "line 1");
        }
    }
    if wants("fig8") || wants("fig9") {
        if has(Line::Line2) {
            let (fig8, fig9) =
                experiments::fig8_9_survivability_line2_with(&grids::fig8_9(), exec)?;
            if wants("fig8") {
                figure(&fig8);
            }
            if wants("fig9") {
                figure(&fig9);
            }
        } else {
            skip("fig8/fig9", "line 2");
        }
    }
    if wants("fig10") || wants("fig11") {
        if has(Line::Line2) {
            let (fig10, fig11) = experiments::fig10_11_cost_line2_with(&grids::fig10_11(), exec)?;
            if wants("fig10") {
                figure(&fig10);
            }
            if wants("fig11") {
                figure(&fig11);
            }
        } else {
            skip("fig10/fig11", "line 2");
        }
    }
    Ok(())
}

fn figure_json(figure: &Figure) -> Json {
    Json::object(vec![
        ("id", Json::from(figure.id.as_str())),
        ("title", Json::from(figure.title.as_str())),
        ("x_label", Json::from(figure.x_label.as_str())),
        ("y_label", Json::from(figure.y_label.as_str())),
        (
            "series",
            Json::Array(
                figure
                    .series
                    .iter()
                    .map(|series| {
                        Json::object(vec![
                            ("label", Json::from(series.label.as_str())),
                            ("points", Json::curve(&series.points)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn table1_json(rows: &[Table1Row]) -> Json {
    let opt = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
                    ("line", Json::from(row.line.id())),
                    ("strategy", Json::from(row.strategy.as_str())),
                    ("states", Json::from(row.states)),
                    ("transitions", Json::from(row.transitions)),
                    ("lumped_states", opt(row.lumped_states)),
                    ("lumped_transitions", opt(row.lumped_transitions)),
                ])
            })
            .collect(),
    )
}

fn table2_json(rows: &[Table2Row]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
                    ("strategy", Json::from(row.strategy.as_str())),
                    ("line1", Json::Number(row.line1)),
                    ("line2", Json::Number(row.line2)),
                    ("combined", Json::Number(row.combined)),
                ])
            })
            .collect(),
    )
}

fn facility_table_json(rows: &[TableFacilityRow]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
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
                ])
            })
            .collect(),
    )
}

fn kline_json(rows: &[KLineReductionRow]) -> Json {
    let opt_count = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    let opt_number = |value: Option<f64>| value.map_or(Json::Null, Json::Number);
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
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
                ])
            })
            .collect(),
    )
}

fn symmetry_json(rows: &[SymmetryReductionRow]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
                    ("facility", Json::from(row.facility.as_str())),
                    ("product_blocks", Json::from(row.product_blocks)),
                    (
                        "orbit_blocks",
                        row.orbit_blocks.map_or(Json::Null, Json::from),
                    ),
                    ("solver_blocks", Json::from(row.solver_blocks)),
                    ("exact_blocks", Json::from(row.exact_blocks)),
                    ("reduction_factor", Json::Number(row.reduction_factor())),
                ])
            })
            .collect(),
    )
}
