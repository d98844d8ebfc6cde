//! Telemetry neutrality at the service level: every query op — availability,
//! survivability, cost, simulate (naive and failure-biased) — returns a
//! byte-identical JSON payload whether the recorder is off, on, or on with
//! convergence probes, at 1, 2, 4 and 8 worker threads. Also pins the
//! trace-vs-stats agreement: the spans a traced query leaves behind name the
//! solver tier and count exactly the iterations the service's own counters
//! report.

use arcade_core::ExecOptions;
use arcade_server::{AnalysisService, CostKind, Request, Response, SimMeasure};
use arcade_telemetry::Recorder;
use watertreatment::facility::{DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED};

/// One request per query op, fixed parameters, deterministic seeds.
fn all_ops() -> Vec<Request> {
    vec![
        Request::Availability {
            model: "line2/ded".into(),
        },
        Request::Survivability {
            model: "line1/ded".into(),
            disaster: DISASTER_ALL_PUMPS.into(),
            level: 1.0,
            times: vec![0.0, 10.0, 25.0],
        },
        Request::Cost {
            model: "line2/ded".into(),
            kind: CostKind::Accumulated,
            disaster: Some(DISASTER_LINE2_MIXED.into()),
            times: vec![0.0, 24.0],
        },
        Request::Simulate {
            model: "line2/ded".into(),
            measure: SimMeasure::Unavailability,
            disaster: None,
            horizon: 200.0,
            replications: 200,
            seed: 7,
            bias: 1.0,
            alpha: 0.95,
        },
        Request::Simulate {
            model: "line2/ded".into(),
            measure: SimMeasure::Cost,
            disaster: Some(DISASTER_LINE2_MIXED.into()),
            horizon: 24.0,
            replications: 150,
            seed: 3,
            bias: 2.0,
            alpha: 0.9,
        },
    ]
}

/// Serves every op on a fresh service, optionally under a scoped recorder,
/// and returns the rendered payloads (the JSON rendering is bit-exact for
/// f64, so string equality is bit equality).
fn serve_all(threads: usize, recorder: Option<&Recorder>) -> Vec<String> {
    let service = AnalysisService::new(ExecOptions::with_threads(threads));
    let _scope = recorder.map(Recorder::enter);
    all_ops()
        .iter()
        .map(|request| match service.handle(request) {
            Response::Ok(payload) => payload.to_string(),
            Response::Err(err) => panic!("{request:?} failed: {err}"),
        })
        .collect()
}

#[test]
fn every_op_is_byte_identical_with_recording_off_on_and_probed() {
    let baseline = serve_all(1, None);
    for threads in [1usize, 2, 4, 8] {
        for (label, recorder) in [
            ("off", None),
            ("on", Some(Recorder::enabled())),
            ("probes", Some(Recorder::with_probes())),
        ] {
            let served = serve_all(threads, recorder.as_ref());
            assert_eq!(
                served, baseline,
                "threads={threads}, recorder={label}: payload drifted"
            );
        }
    }
}

#[test]
fn traced_spans_agree_with_the_service_counters() {
    let recorder = Recorder::with_probes();
    let service = AnalysisService::new(ExecOptions::serial());
    let _scope = recorder.enter();
    let availability = Request::Availability {
        model: "line2/ded".into(),
    };
    let payload = match service.handle(&availability) {
        Response::Ok(payload) => payload,
        Response::Err(err) => panic!("availability failed: {err}"),
    };
    let stats = service.stats();

    // One compile (compose → lump → materialise) and one solve.
    assert_eq!(recorder.span_count("compose"), 1);
    assert_eq!(recorder.span_count("solve"), 1);
    assert_eq!(stats.stationary_solves, 1);

    // Iteration totals: reply field == service counters == span counter ==
    // residual-series length.
    let reply_iterations = payload.get("iterations").unwrap().as_usize().unwrap() as u64;
    assert_eq!(
        stats.cold_iterations + stats.warm_iterations,
        reply_iterations
    );
    assert_eq!(
        recorder.counter_total("solve", "iterations"),
        reply_iterations
    );
    let residuals: Vec<_> = recorder
        .series()
        .into_iter()
        .filter(|series| series.kind == "residual")
        .collect();
    assert_eq!(residuals.len(), 1);
    assert_eq!(residuals[0].values.len() as u64, reply_iterations);

    // The solver tier named in the reply is the tier the probe ran under and
    // the tier the service counted.
    assert_eq!(
        payload.get("solver_tier").unwrap().as_str(),
        Some("gs-materialised")
    );
    assert_eq!(residuals[0].tier, "gauss-seidel");
    assert_eq!(stats.gs_materialised_solves, 1);

    // The Chrome trace of the same recorder carries the solve span with its
    // iteration counter intact.
    let trace = arcade_server::Json::chrome_trace(&recorder).to_string();
    let parsed = arcade_server::Json::parse(&trace).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let solve = events
        .iter()
        .find(|e| e.get("name").and_then(arcade_server::Json::as_str) == Some("solve"))
        .expect("trace lacks the solve span");
    let traced_iterations = solve
        .get("args")
        .and_then(|args| args.get("iterations"))
        .and_then(arcade_server::Json::as_usize)
        .unwrap() as u64;
    assert_eq!(traced_iterations, reply_iterations);
}
