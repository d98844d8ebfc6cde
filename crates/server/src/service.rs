//! The analysis service: protocol requests in, measure payloads out.
//!
//! [`AnalysisService`] is transport-agnostic — the TCP daemon
//! ([`crate::server`]) and in-process callers (tests, benches) drive the
//! same [`AnalysisService::handle`] entry point, which is what makes
//! "daemon responses are bit-identical to in-process results" a structural
//! property rather than a numerical accident: both paths execute the same
//! [`CompiledQuotient`] methods. For a facility spec the cached artifact is
//! the joint chain, `FacilityAnalysis::compiled_quotient()`: the daemon's
//! facility curves are bit-identical to that artifact's, and agree with the
//! product-form `FacilityAnalysis` curves, solved per group, to 1e-12
//! relative.
//!
//! Per query the service:
//!
//! 1. resolves the model spec in the [`QuotientCache`] (compiling at most
//!    once per spec, interning identical artifacts by presentation code),
//! 2. coalesces concurrent identical computations — one stationary solve
//!    per chain, one batched Fox–Glynn pass per distinct curve query — with
//!    every waiter receiving bit-identical results,
//! 3. warm-starts stationary solves from a solved same-family,
//!    same-dimension sibling (a rate-perturbed variant of a chain already
//!    solved), which shortens the Gauss–Seidel iteration without moving the
//!    fixed point beyond solver tolerance.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use arcade_core::{ArcadeError, ComposerOptions, ExecOptions};
use arcade_sim::{QuotientSimulator, SimulationOptions};
use arcade_telemetry::Recorder;
use watertreatment::ModelSpec;

use crate::cache::{CacheEntry, QuotientCache};
use crate::coalesce::{Coalescer, Role};
use crate::json::Json;
use crate::protocol::{CostKind, Request, Response, SimMeasure};
use crate::stats::{QueryOp, ServiceStats, StatsSnapshot};

/// How many per-query trace files the flight recorder keeps on disk: writing
/// trace `n` deletes trace `n - TRACE_RING`, so a long-running daemon holds a
/// bounded ring of the most recent queries.
const TRACE_RING: u64 = 64;

/// The result of one stationary solve, shared by every coalesced waiter.
#[derive(Clone)]
struct StationarySolve {
    pi: Arc<Vec<f64>>,
    iterations: usize,
    warm: bool,
}

/// Exact identity of a curve query (bitwise on the floats): the coalescing
/// unit for transient passes.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CurveKey {
    code: u64,
    op: &'static str,
    disaster: Option<String>,
    level_bits: u64,
    times_bits: Vec<u64>,
}

impl CurveKey {
    fn new(code: u64, op: &'static str, disaster: Option<&str>, level: f64, times: &[f64]) -> Self {
        CurveKey {
            code,
            op,
            disaster: disaster.map(str::to_string),
            level_bits: level.to_bits(),
            times_bits: times.iter().map(|t| t.to_bits()).collect(),
        }
    }
}

/// The persistent solver service (see the module docs).
pub struct AnalysisService {
    exec: ExecOptions,
    cache: QuotientCache,
    stats: ServiceStats,
    builds: Coalescer<String, Result<Arc<CacheEntry>, ArcadeError>>,
    stationary: Coalescer<u64, Result<StationarySolve, ArcadeError>>,
    curves: Coalescer<CurveKey, Result<Vec<(f64, f64)>, ArcadeError>>,
    trace_dir: Option<PathBuf>,
    query_ids: AtomicU64,
}

impl AnalysisService {
    /// A fresh service whose solves run on the given worker pool, with an
    /// unbounded quotient cache.
    pub fn new(exec: ExecOptions) -> Self {
        AnalysisService::with_cache(exec, QuotientCache::new())
    }

    /// A fresh service whose quotient cache holds at most `capacity` spec
    /// keys, evicting the least-recently-used spec beyond that (see
    /// [`QuotientCache::with_capacity`]). Eviction trades memoised work for
    /// memory; answers stay bit-identical because evicted specs recompile to
    /// identical artifacts.
    pub fn with_cache_capacity(exec: ExecOptions, capacity: usize) -> Self {
        AnalysisService::with_cache(exec, QuotientCache::with_capacity(capacity))
    }

    fn with_cache(exec: ExecOptions, cache: QuotientCache) -> Self {
        AnalysisService {
            exec,
            cache,
            stats: ServiceStats::new(),
            builds: Coalescer::new(),
            stationary: Coalescer::new(),
            curves: Coalescer::new(),
            trace_dir: None,
            query_ids: AtomicU64::new(0),
        }
    }

    /// Turns on the flight recorder: every query runs under its own enabled
    /// [`Recorder`] (probes included), its Chrome-trace JSON is written to
    /// `dir/query-NNNNNN.json`, only the most recent [`TRACE_RING`] files are
    /// kept, and successful payloads carry the `query_id` the file is named
    /// after. Tracing never changes results — spans observe, they do not
    /// steer.
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// The worker pool queries run on.
    pub fn exec(&self) -> ExecOptions {
        self.exec
    }

    /// A point-in-time snapshot of the service counters, including the
    /// cache's eviction count.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.evictions = self.cache.evictions();
        snapshot
    }

    /// The quotient cache (exposed for tests and benches).
    pub fn cache(&self) -> &QuotientCache {
        &self.cache
    }

    /// Handles one request, never panicking on bad input: every failure is a
    /// [`Response::Err`]. Query ops are timed into the per-op latency
    /// histograms; with a trace dir configured each query additionally runs
    /// under its own recorder and lands in the flight-recorder ring.
    pub fn handle(&self, request: &Request) -> Response {
        self.stats.query();
        let op = op_of(request);
        let start = Instant::now();
        let response = match &self.trace_dir {
            None => self.dispatch(request),
            Some(dir) => {
                let id = self.query_ids.fetch_add(1, Ordering::Relaxed);
                let recorder = Recorder::with_probes();
                let response = {
                    let _scope = recorder.enter();
                    self.dispatch(request)
                };
                self.write_trace(dir, id, &recorder);
                match response {
                    Response::Ok(Json::Object(mut fields)) => {
                        fields.push(("query_id".to_string(), Json::from(id)));
                        Response::Ok(Json::Object(fields))
                    }
                    other => other,
                }
            }
        };
        if let Some(op) = op {
            self.stats.op_served(op, start.elapsed().as_micros() as u64);
        }
        response
    }

    /// Writes one flight-recorder trace and prunes the ring. IO failures are
    /// swallowed: tracing must never fail a query.
    fn write_trace(&self, dir: &Path, id: u64, recorder: &Recorder) {
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("query-{id:06}.json")),
            recorder.chrome_trace(),
        );
        if id >= TRACE_RING {
            let _ = std::fs::remove_file(dir.join(format!("query-{:06}.json", id - TRACE_RING)));
        }
    }

    fn dispatch(&self, request: &Request) -> Response {
        let result = match request {
            Request::Ping => Ok(Json::object(vec![("pong", Json::Bool(true))])),
            Request::Stats => Ok(self.stats().to_json()),
            Request::Metrics => Ok(Json::object(vec![(
                "metrics",
                Json::from(self.stats().to_prometheus()),
            )])),
            Request::Shutdown => Ok(Json::object(vec![("stopping", Json::Bool(true))])),
            Request::Availability { model } => self.availability(model),
            Request::Survivability {
                model,
                disaster,
                level,
                times,
            } => self.survivability(model, disaster, *level, times),
            Request::Cost {
                model,
                kind,
                disaster,
                times,
            } => self.cost(model, *kind, disaster.as_deref(), times),
            Request::Simulate {
                model,
                measure,
                disaster,
                horizon,
                replications,
                seed,
                bias,
                alpha,
            } => self.simulate(
                model,
                *measure,
                disaster.as_deref(),
                *horizon,
                *replications,
                *seed,
                *bias,
                *alpha,
            ),
        };
        match result {
            Ok(payload) => Response::Ok(payload),
            Err(err) => Response::Err(err.to_string()),
        }
    }

    /// Steady-state availability of `model` (cached, coalesced,
    /// warm-started).
    ///
    /// # Errors
    ///
    /// Propagates spec, compilation and solver errors.
    pub fn availability(&self, model: &str) -> Result<Json, ArcadeError> {
        let entry = self.entry(model)?;
        let solve = self.stationary(&entry)?;
        let availability = entry.quotient().availability_of(&solve.pi);
        Ok(Json::object(vec![
            ("model", Json::from(ModelSpec::parse(model)?.canonical())),
            ("availability", Json::Number(availability)),
            ("states", Json::from(entry.quotient().num_states())),
            (
                "source_states",
                Json::from(entry.quotient().source_states()),
            ),
            ("iterations", Json::from(solve.iterations)),
            ("warm_started", Json::Bool(solve.warm)),
            // The daemon always solves the cached materialised quotient; the
            // matrix-free tiers live in the facility experiments.
            ("solver_tier", Json::from("gs-materialised")),
        ]))
    }

    /// Survivability curve of `model` after `disaster` (cached artifact, one
    /// coalesced Fox–Glynn pass per distinct query).
    ///
    /// # Errors
    ///
    /// Propagates spec, compilation, lookup and solver errors.
    pub fn survivability(
        &self,
        model: &str,
        disaster: &str,
        level: f64,
        times: &[f64],
    ) -> Result<Json, ArcadeError> {
        let entry = self.entry(model)?;
        let key = CurveKey::new(entry.code(), "surv", Some(disaster), level, times);
        let curve = self.curve(key, || {
            entry
                .quotient()
                .survivability_curve(disaster, level, times, self.exec)
        })?;
        Ok(Json::object(vec![
            ("model", Json::from(ModelSpec::parse(model)?.canonical())),
            ("disaster", Json::from(disaster)),
            ("level", Json::Number(level)),
            ("curve", Json::curve(&curve)),
        ]))
    }

    /// Cost curve of `model` (instantaneous rate or accumulated), optionally
    /// after a disaster.
    ///
    /// # Errors
    ///
    /// Propagates spec, compilation, lookup and solver errors.
    pub fn cost(
        &self,
        model: &str,
        kind: CostKind,
        disaster: Option<&str>,
        times: &[f64],
    ) -> Result<Json, ArcadeError> {
        let entry = self.entry(model)?;
        let key = CurveKey::new(entry.code(), kind.wire_name(), disaster, 0.0, times);
        let curve = self.curve(key, || match kind {
            CostKind::Instantaneous => entry
                .quotient()
                .instantaneous_cost_curve(disaster, times, self.exec),
            CostKind::Accumulated => entry
                .quotient()
                .accumulated_cost_curve(disaster, times, self.exec),
        })?;
        Ok(Json::object(vec![
            ("model", Json::from(ModelSpec::parse(model)?.canonical())),
            ("kind", Json::from(kind.wire_name())),
            (
                "disaster",
                match disaster {
                    Some(name) => Json::from(name),
                    None => Json::Null,
                },
            ),
            ("curve", Json::curve(&curve)),
        ]))
    }

    /// Monte-Carlo estimate of `measure` on the cached quotient of `model`
    /// (quotient-resident trajectories, O(1) alias jumps, optional failure
    /// biasing). The replication batches ride the service's worker pool;
    /// results are bit-identical for any thread count and depend only on
    /// `(seed, replications)`.
    ///
    /// # Errors
    ///
    /// Propagates spec, compilation, lookup and parameter errors.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate(
        &self,
        model: &str,
        measure: SimMeasure,
        disaster: Option<&str>,
        horizon: f64,
        replications: usize,
        seed: u64,
        bias: f64,
        alpha: f64,
    ) -> Result<Json, ArcadeError> {
        if disaster.is_some() && measure != SimMeasure::Cost {
            return Err(ArcadeError::UnsupportedMeasure {
                reason: format!(
                    "a disaster start applies to the `cost` measure only, not `{}`",
                    measure.wire_name()
                ),
            });
        }
        let entry = self.entry(model)?;
        let quotient = entry.quotient();
        let simulator = QuotientSimulator::new(quotient);
        let options = SimulationOptions {
            replications,
            seed,
            exec: self.exec,
            bias,
            ..Default::default()
        };
        let report = match measure {
            SimMeasure::Unavailability => simulator.unavailability(horizon, &options)?,
            SimMeasure::TimeToFailure => simulator.time_to_failure(horizon, alpha, &options)?,
            SimMeasure::Cost => simulator.accumulated_cost(disaster, horizon, alpha, &options)?,
        };
        let batches = replications.div_ceil(options.batch.max(1));
        self.stats.simulate_run(replications, batches);

        let mut fields = vec![
            ("model", Json::from(ModelSpec::parse(model)?.canonical())),
            ("measure", Json::from(measure.wire_name())),
            (
                "disaster",
                match disaster {
                    Some(name) => Json::from(name),
                    None => Json::Null,
                },
            ),
            ("horizon", Json::Number(horizon)),
            ("replications", Json::from(replications)),
            ("seed", Json::from(seed)),
            ("bias", Json::Number(bias)),
            ("blocks", Json::from(quotient.num_states())),
            ("source_states", Json::from(quotient.source_states())),
            ("mean", Json::Number(report.estimate.mean)),
            ("half_width", Json::Number(report.estimate.half_width)),
        ];
        if let Some(tail) = report.tail {
            fields.push(("alpha", Json::Number(tail.alpha)));
            fields.push(("var", Json::Number(tail.var)));
            fields.push(("var_half_width", Json::Number(tail.var_half_width)));
            fields.push(("cvar", Json::Number(tail.cvar)));
            fields.push(("cvar_half_width", Json::Number(tail.cvar_half_width)));
        }
        if let Some(lr) = report.lr_mean {
            fields.push(("lr_mean", Json::Number(lr.mean)));
            fields.push(("lr_half_width", Json::Number(lr.half_width)));
        }
        Ok(Json::object(fields))
    }

    /// Resolves a model spec to its cached (or freshly compiled and
    /// interned) artifact entry. Concurrent first queries of one spec
    /// compile once.
    fn entry(&self, model: &str) -> Result<Arc<CacheEntry>, ArcadeError> {
        let spec = ModelSpec::parse(model)?;
        let key = spec.canonical();
        if let Some(entry) = self.cache.get(&key) {
            self.stats.cache_hit();
            return Ok(entry);
        }
        let (result, role) = self.builds.run(key.clone(), || {
            let quotient = spec.build_quotient(self.composer_options())?;
            let (entry, shared) = self.cache.insert(&key, &spec.family(), quotient);
            if shared {
                self.stats.interned_shared();
            }
            Ok(entry)
        });
        match role {
            Role::Leader => self.stats.cache_miss(),
            Role::Follower => self.stats.cache_hit(),
        }
        self.reap_evictions();
        result
    }

    /// Releases the memoised build and solve slots of whatever the bounded
    /// cache just evicted, so eviction actually frees the artifact memory
    /// instead of leaving it pinned by the coalescers. A later query of an
    /// evicted spec recompiles and re-solves to bit-identical numbers.
    fn reap_evictions(&self) {
        let (specs, codes) = self.cache.drain_evicted();
        if specs.is_empty() && codes.is_empty() {
            return;
        }
        self.builds.forget_matching(|spec| specs.contains(spec));
        self.stationary.forget_matching(|code| codes.contains(code));
        self.curves.forget_matching(|key| codes.contains(&key.code));
    }

    /// The (coalesced, memoised, warm-started) stationary solve of an
    /// entry's chain.
    fn stationary(&self, entry: &Arc<CacheEntry>) -> Result<StationarySolve, ArcadeError> {
        let (result, role) = self.stationary.run(entry.code(), || {
            let quotient = entry.quotient();
            let donor = self
                .cache
                .warm_donor(entry.family(), quotient.num_states(), entry.code());
            let guess = donor.as_ref().map(|pi| pi.as_slice());
            let (pi, iterations) = quotient.stationary_counted(guess, self.exec)?;
            let pi = Arc::new(pi);
            entry.set_stationary(Arc::clone(&pi));
            let warm = donor.is_some();
            self.stats.stationary_solve(warm, iterations);
            self.stats.tier_solve("gs-materialised");
            Ok(StationarySolve {
                pi,
                iterations,
                warm,
            })
        });
        if role == Role::Follower {
            self.stats.coalesced();
        }
        result
    }

    /// One coalesced transient pass per distinct curve query.
    fn curve(
        &self,
        key: CurveKey,
        compute: impl FnOnce() -> Result<Vec<(f64, f64)>, ArcadeError>,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let (result, role) = self.curves.run(key, || {
            let curve = compute()?;
            self.stats.transient_pass();
            Ok(curve)
        });
        if role == Role::Follower {
            self.stats.coalesced();
        }
        result
    }

    fn composer_options(&self) -> ComposerOptions {
        ComposerOptions {
            exec: self.exec,
            ..ComposerOptions::default()
        }
    }
}

/// The tracked query op of a request (`None` for ping/shutdown control
/// traffic).
fn op_of(request: &Request) -> Option<QueryOp> {
    match request {
        Request::Availability { .. } => Some(QueryOp::Availability),
        Request::Survivability { .. } => Some(QueryOp::Survivability),
        Request::Cost { .. } => Some(QueryOp::Cost),
        Request::Simulate { .. } => Some(QueryOp::Simulate),
        Request::Stats => Some(QueryOp::Stats),
        Request::Metrics => Some(QueryOp::Metrics),
        Request::Ping | Request::Shutdown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcade_core::Analysis;
    use watertreatment::facility::{line_model, DISASTER_ALL_PUMPS};
    use watertreatment::{strategies, Line};

    fn service() -> AnalysisService {
        AnalysisService::new(ExecOptions::serial())
    }

    #[test]
    fn availability_matches_the_in_process_analysis_bit_for_bit() {
        let service = service();
        let response = service.handle(&Request::Availability {
            model: "line2/ded".into(),
        });
        let payload = match response {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("query failed: {err}"),
        };
        let model = line_model(Line::Line2, &strategies::dedicated()).unwrap();
        let reference = Analysis::new(&model)
            .unwrap()
            .steady_state_availability()
            .unwrap();
        let served = payload.get("availability").unwrap().as_f64().unwrap();
        assert_eq!(served.to_bits(), reference.to_bits());
        assert!(!payload.get("warm_started").unwrap().as_bool().unwrap());
        assert_eq!(
            payload.get("solver_tier").unwrap().as_str(),
            Some("gs-materialised")
        );
        assert_eq!(service.stats().gs_materialised_solves, 1);
    }

    #[test]
    fn repeat_queries_hit_the_cache_and_memoised_solve() {
        let service = service();
        let request = Request::Availability {
            model: "line2/frf-1".into(),
        };
        let first = service.handle(&request);
        let second = service.handle(&request);
        assert_eq!(first, second, "memoised replies are bit-identical");
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.stationary_solves, 1, "the solve ran once");
        assert_eq!(stats.coalesced_queries, 1, "the repeat was coalesced");
    }

    #[test]
    fn rate_perturbed_variants_warm_start_from_the_nominal_solution() {
        let service = service();
        let cold = service.handle(&Request::Availability {
            model: "line2/ded".into(),
        });
        assert!(matches!(cold, Response::Ok(_)));
        let warm = service.handle(&Request::Availability {
            model: "line2/ded@1.02".into(),
        });
        let payload = match warm {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("warm query failed: {err}"),
        };
        assert!(payload.get("warm_started").unwrap().as_bool().unwrap());
        let stats = service.stats();
        assert_eq!(stats.warm_solves, 1);
        assert!(
            stats.mean_warm_iterations().unwrap() <= stats.mean_cold_iterations().unwrap(),
            "warm start must not lengthen the iteration: {stats:?}"
        );
    }

    #[test]
    fn curves_match_the_in_process_analysis_and_coalesce() {
        let service = service();
        let times = vec![0.0, 5.0, 20.0];
        let request = Request::Survivability {
            model: "line1/ded".into(),
            disaster: DISASTER_ALL_PUMPS.into(),
            level: 1.0,
            times: times.clone(),
        };
        let payload = match service.handle(&request) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("query failed: {err}"),
        };
        let model = line_model(Line::Line1, &strategies::dedicated()).unwrap();
        let analysis = Analysis::new(&model).unwrap();
        let reference = analysis
            .survivability_curve(model.disaster(DISASTER_ALL_PUMPS).unwrap(), 1.0, &times)
            .unwrap();
        assert_eq!(payload.get("curve").unwrap().to_curve().unwrap(), reference);
        assert_eq!(service.handle(&request), Response::Ok(payload));
        let stats = service.stats();
        assert_eq!(stats.transient_passes, 1, "one Fox–Glynn pass");
        assert_eq!(stats.coalesced_queries, 1);
    }

    #[test]
    fn capped_cache_answers_bit_identically_after_eviction() {
        let unbounded = service();
        let capped = AnalysisService::with_cache_capacity(ExecOptions::serial(), 1);
        let ded = Request::Availability {
            model: "line2/ded".into(),
        };
        let frf = Request::Availability {
            model: "line2/frf-1".into(),
        };

        let reference = match unbounded.handle(&ded) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("query failed: {err}"),
        };
        let first = capped.handle(&ded);
        assert!(matches!(capped.handle(&frf), Response::Ok(_)), "evicts ded");
        assert_eq!(capped.cache().num_specs(), 1, "the cap holds");
        let again = match capped.handle(&ded) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("re-query after eviction failed: {err}"),
        };

        // The evicted spec recompiles and re-solves to bit-identical
        // numbers — eviction trades memoised work, never correctness.
        let bits = |payload: &Json| {
            payload
                .get("availability")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits()
        };
        assert_eq!(bits(&again), bits(&reference));
        match first {
            Response::Ok(payload) => assert_eq!(bits(&again), bits(&payload)),
            Response::Err(err) => panic!("first capped query failed: {err}"),
        }

        let stats = capped.stats();
        assert!(
            stats.evictions >= 1,
            "evictions surface in stats: {stats:?}"
        );
        assert_eq!(
            stats.cache_misses, 3,
            "the evicted spec recompiled instead of riding a pinned memo: {stats:?}"
        );
        assert_eq!(
            stats.stationary_solves, 3,
            "the evicted chain re-solved from scratch: {stats:?}"
        );
        assert_eq!(unbounded.stats().evictions, 0, "unbounded never evicts");
        // The wire-level Stats reply carries the counter too.
        let wire = match capped.handle(&Request::Stats) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("stats failed: {err}"),
        };
        let snapshot = StatsSnapshot::from_json(&wire).unwrap();
        assert_eq!(snapshot.evictions, capped.cache().evictions());
    }

    #[test]
    fn simulate_serves_bit_identical_json_with_counters() {
        let service = service();
        let request = Request::Simulate {
            model: "line2/ded".into(),
            measure: SimMeasure::Unavailability,
            disaster: None,
            horizon: 500.0,
            replications: 400,
            seed: 11,
            bias: 1.0,
            alpha: 0.95,
        };
        let payload = match service.handle(&request) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("simulate failed: {err}"),
        };
        // Repeats are bit-identical (same seed, same replication streams).
        assert_eq!(service.handle(&request), Response::Ok(payload.clone()));
        // The payload survives a print/parse round trip exactly — the json
        // module's f64 formatting is bit-exact.
        let reparsed = Json::parse(&payload.to_string()).unwrap();
        assert_eq!(reparsed, payload);
        let mean = payload.get("mean").unwrap().as_f64().unwrap();
        assert!((0.0..1.0).contains(&mean), "{payload}");
        assert!(payload.get("lr_mean").is_none(), "unbiased run has no LR");
        let stats = service.stats();
        assert_eq!(stats.simulate_runs, 2);
        assert_eq!(stats.simulate_replications, 800);
    }

    #[test]
    fn simulate_reports_tails_and_the_lr_certificate() {
        let service = service();
        let request = Request::Simulate {
            model: "line2/ded".into(),
            measure: SimMeasure::Cost,
            disaster: Some(watertreatment::facility::DISASTER_LINE2_MIXED.into()),
            horizon: 24.0,
            replications: 300,
            seed: 3,
            bias: 2.0,
            alpha: 0.9,
        };
        let payload = match service.handle(&request) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("simulate failed: {err}"),
        };
        for field in [
            "var",
            "cvar",
            "var_half_width",
            "cvar_half_width",
            "lr_mean",
        ] {
            assert!(payload.get(field).is_some(), "missing `{field}`: {payload}");
        }
        let var = payload.get("var").unwrap().as_f64().unwrap();
        let cvar = payload.get("cvar").unwrap().as_f64().unwrap();
        assert!(cvar >= var, "{payload}");
    }

    #[test]
    fn simulate_rejects_bad_parameters_cleanly() {
        let service = service();
        let base = |measure: SimMeasure, disaster: Option<String>, bias: f64| Request::Simulate {
            model: "line2/ded".into(),
            measure,
            disaster,
            horizon: 10.0,
            replications: 10,
            seed: 1,
            bias,
            alpha: 0.95,
        };
        // A disaster start only applies to the cost measure.
        let bad = base(
            SimMeasure::Unavailability,
            Some(DISASTER_ALL_PUMPS.into()),
            1.0,
        );
        assert!(matches!(service.handle(&bad), Response::Err(_)));
        // Non-positive bias is rejected by the engine.
        let bad = base(SimMeasure::Unavailability, None, 0.0);
        assert!(matches!(service.handle(&bad), Response::Err(_)));
        // Unknown disasters fail cleanly.
        let bad = base(SimMeasure::Cost, Some("no-such-disaster".into()), 1.0);
        assert!(matches!(service.handle(&bad), Response::Err(_)));
    }

    #[test]
    fn per_op_latency_histograms_fill_as_queries_run() {
        let service = service();
        let availability = Request::Availability {
            model: "line2/ded".into(),
        };
        assert!(matches!(service.handle(&availability), Response::Ok(_)));
        assert!(matches!(service.handle(&availability), Response::Ok(_)));
        assert!(matches!(service.handle(&Request::Stats), Response::Ok(_)));
        assert!(matches!(service.handle(&Request::Ping), Response::Ok(_)));
        let stats = service.stats();
        assert_eq!(stats.availability_queries, 2);
        assert_eq!(stats.stats_queries, 1);
        assert_eq!(stats.latency_availability.count, 2);
        assert!(stats.latency_availability.p50().is_some());
        assert_eq!(stats.queries, 4, "ping counts as a query…");
        let tracked: u64 = crate::stats::QueryOp::ALL
            .iter()
            .map(|op| stats.queries_of(*op))
            .sum();
        assert_eq!(tracked, 3, "…but has no per-op histogram");
    }

    #[test]
    fn metrics_op_returns_parseable_prometheus_text_agreeing_with_stats() {
        let service = service();
        assert!(matches!(
            service.handle(&Request::Availability {
                model: "line2/ded".into(),
            }),
            Response::Ok(_)
        ));
        let payload = match service.handle(&Request::Metrics) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("metrics failed: {err}"),
        };
        let text = payload.get("metrics").unwrap().as_str().unwrap();
        let value_of = |name: &str| -> Option<f64> {
            text.lines()
                .find(|line| line.split(' ').next() == Some(name))
                .and_then(|line| line.split(' ').nth(1))
                .and_then(|v| v.parse().ok())
        };
        // The metrics query itself is already counted by the time the
        // exposition renders.
        assert_eq!(value_of("arcade_queries_total"), Some(2.0));
        assert_eq!(
            value_of("arcade_queries_op_total{op=\"availability\"}"),
            Some(1.0)
        );
        assert_eq!(value_of("arcade_stationary_solves_total"), Some(1.0));
        assert_eq!(
            value_of("arcade_tier_solves_total{tier=\"gs-materialised\"}"),
            Some(1.0)
        );
        // The exposition agrees with the structured snapshot taken after it.
        let stats = service.stats();
        assert_eq!(stats.stationary_solves, 1);
        assert_eq!(stats.metrics_queries, 1);
    }

    #[test]
    fn flight_recorder_writes_ring_traces_and_echoes_query_ids() {
        let dir = std::env::temp_dir().join(format!(
            "arcade-flight-recorder-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AnalysisService::new(ExecOptions::serial()).with_trace_dir(&dir);
        let untraced = AnalysisService::new(ExecOptions::serial());
        let request = Request::Availability {
            model: "line2/ded".into(),
        };
        let traced_payload = match service.handle(&request) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("traced query failed: {err}"),
        };
        assert_eq!(
            traced_payload.get("query_id").and_then(Json::as_usize),
            Some(0),
            "the first query is trace 0: {traced_payload}"
        );
        // Tracing never perturbs numerics: same bits as an untraced service.
        let reference = match untraced.handle(&request) {
            Response::Ok(payload) => payload,
            Response::Err(err) => panic!("untraced query failed: {err}"),
        };
        let bits = |p: &Json| p.get("availability").unwrap().as_f64().unwrap().to_bits();
        assert_eq!(bits(&traced_payload), bits(&reference));
        // The trace file exists, parses as JSON and carries the solve span.
        let trace = std::fs::read_to_string(dir.join("query-000000.json")).unwrap();
        let parsed = Json::parse(&trace).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("solve")),
            "trace lacks the solve span: {trace}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_become_protocol_errors_not_panics() {
        let service = service();
        for request in [
            Request::Availability {
                model: "line9/ded".into(),
            },
            Request::Survivability {
                model: "line1/ded".into(),
                disaster: "no-such-disaster".into(),
                level: 1.0,
                times: vec![1.0],
            },
            Request::Survivability {
                model: "line1/ded".into(),
                disaster: DISASTER_ALL_PUMPS.into(),
                level: 2.0,
                times: vec![1.0],
            },
        ] {
            assert!(
                matches!(service.handle(&request), Response::Err(_)),
                "{request:?} must fail cleanly"
            );
        }
    }
}
