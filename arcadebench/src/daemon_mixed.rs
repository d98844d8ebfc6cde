//! `daemon-mixed`: a seeded request stream on one persistent, closed-loop
//! client connection to an in-process daemon on an ephemeral loopback port.
//!
//! About half the requests ask for the availability of a spec from a seeded
//! pool of `lineN/<strategy>@<scale>` specs plus `facility/ded+ded`; the
//! first touch of a spec compiles it and solves (a cache miss), repeats are
//! cache hits. The rest are survivability and cost curves on line specs
//! already cached, plus a few small `simulate` queries. A pass is a fixed
//! chunk of the stream. After the timed phase every request is replayed
//! in-process through [`AnalysisService::handle`] on a fresh service, and
//! each daemon reply must be byte-identical to the replayed one.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use arcade_server::{
    server, AnalysisService, Client, ClientError, CostKind, Request, Response, ServerHandle,
    SimMeasure, StatsSnapshot,
};
use watertreatment::experiments::grids::step_grid;
use watertreatment::facility::{DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED};
use watertreatment::ModelSpec;

use crate::stats::{quantile, SplitMix64};
use crate::workload::{err, Ctx, Record, RunSummary, Workload};

/// Requests per pass.
const CHUNK: usize = 25;

/// Line specs drawn into the pool (duplicates are dropped).
const POOL_LINES: usize = 14;

/// The fingerprint covers the first this many requests of the stream, so
/// it does not depend on how many requests a run got through.
const FINGERPRINT_REQUESTS: usize = 150;

const STRATEGIES: [&str; 5] = ["ded", "frf-1", "frf-2", "fff-1", "fff-2"];
const SCALES: [f64; 7] = [0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25];

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamItem {
    /// The request sent.
    pub request: Request,
    /// Whether it is the first touch of its spec (the daemon compiles).
    pub miss: bool,
}

/// The seeded request stream: an endless, deterministic function of the
/// workload seed.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SplitMix64,
    pool: Vec<String>,
    touched: Vec<bool>,
}

impl RequestStream {
    /// The stream of `seed`; its spec pool is drawn first.
    pub fn new(seed: u64) -> RequestStream {
        let mut rng = SplitMix64::new(seed);
        let mut pool: Vec<String> = Vec::new();
        for _ in 0..POOL_LINES {
            let line = 1 + rng.below(2);
            let strategy = STRATEGIES[rng.below(STRATEGIES.len())];
            let scale = SCALES[rng.below(SCALES.len())];
            let family = format!("line{line}/{strategy}");
            let spec = format!("{family}@{scale:?}");
            // At most two scales per family: with three or more solved
            // siblings the daemon picks its warm-start donor in hash-map
            // order, so two services fed the same stream could answer with
            // different iteration counts and the replay check would fail.
            let siblings = pool
                .iter()
                .filter(|s| s.split('@').next() == Some(family.as_str()))
                .count();
            if !pool.contains(&spec) && siblings < 2 {
                pool.push(spec);
            }
        }
        pool.push("facility/ded+ded".to_string());
        let touched = vec![false; pool.len()];
        RequestStream { rng, pool, touched }
    }

    /// The spec pool.
    pub fn pool(&self) -> &[String] {
        &self.pool
    }

    /// The next request.
    pub fn next_item(&mut self) -> StreamItem {
        let cached_lines: Vec<usize> = (0..self.pool.len())
            .filter(|&i| self.touched[i] && self.pool[i].starts_with("line"))
            .collect();
        let u = self.rng.unit();
        if u < 0.5 || cached_lines.is_empty() {
            let index = self.rng.below(self.pool.len());
            let miss = !self.touched[index];
            self.touched[index] = true;
            return StreamItem {
                request: Request::Availability {
                    model: self.pool[index].clone(),
                },
                miss,
            };
        }
        let model = self.pool[cached_lines[self.rng.below(cached_lines.len())]].clone();
        let disaster = if model.starts_with("line1") {
            DISASTER_ALL_PUMPS
        } else {
            DISASTER_LINE2_MIXED
        };
        let request = if u < 0.7 {
            let level = [1.0 / 3.0, 2.0 / 3.0, 1.0][self.rng.below(3)];
            let horizon = [5.0, 10.0, 20.0][self.rng.below(3)];
            Request::Survivability {
                model,
                disaster: disaster.to_string(),
                level,
                times: step_grid(0.0, horizon, horizon / 20.0),
            }
        } else if u < 0.96 {
            let kind = if self.rng.unit() < 0.5 {
                CostKind::Instantaneous
            } else {
                CostKind::Accumulated
            };
            let horizon = [12.0, 24.0, 48.0][self.rng.below(3)];
            Request::Cost {
                model,
                kind,
                disaster: (self.rng.unit() < 0.5).then(|| disaster.to_string()),
                times: step_grid(0.0, horizon, horizon / 12.0),
            }
        } else {
            Request::Simulate {
                model,
                measure: SimMeasure::Unavailability,
                disaster: None,
                horizon: 100.0,
                replications: 500,
                // Seeds travel as JSON numbers: keep them below 2^53.
                seed: self.rng.next_u64() >> 11,
                bias: 1.0,
                alpha: 0.95,
            }
        };
        StreamItem {
            request,
            miss: false,
        }
    }
}

/// The operation name of a request.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Availability { .. } => "availability",
        Request::Survivability { .. } => "survivability",
        Request::Cost { .. } => "cost",
        Request::Simulate { .. } => "simulate",
        _ => "control",
    }
}

fn model_of(request: &Request) -> &str {
    match request {
        Request::Availability { model }
        | Request::Survivability { model, .. }
        | Request::Cost { model, .. }
        | Request::Simulate { model, .. } => model,
        _ => "",
    }
}

/// The wire line of a reply envelope.
fn wire(response: &Response) -> String {
    response.to_json().to_string()
}

pub struct DaemonMixed {
    // Dropped in declaration order: the client disconnects before the
    // daemon is stopped and joined.
    client: Client,
    daemon: Option<ServerHandle>,
    stream: RequestStream,
    /// Every request sent, with the daemon's reply line.
    sent: Vec<(Request, Option<String>)>,
    fingerprint: BTreeMap<&'static str, u64>,
}

/// Draws the stream, checks its specs through the registry, spawns the
/// daemon with two exec threads, connects and pings.
pub fn setup(seed: u64, ctx: &Ctx<'_>) -> Result<Box<dyn Workload>, String> {
    let stream = RequestStream::new(seed);
    for spec in stream.pool() {
        ctx.tracer.layer(
            "registry",
            || spec.clone(),
            |_| ModelSpec::parse(spec).map_err(err),
        )?;
    }
    let service = Arc::new(AnalysisService::new(ctx.exec));
    let daemon = server::spawn("127.0.0.1:0", service).map_err(err)?;
    let mut client = Client::connect(daemon.addr()).map_err(err)?;
    // A connection counts as set up once the daemon has answered on it.
    client.ping().map_err(err)?;
    Ok(Box::new(DaemonMixed {
        client,
        daemon: Some(daemon),
        stream,
        sent: Vec::new(),
        fingerprint: BTreeMap::new(),
    }))
}

impl Workload for DaemonMixed {
    fn pass(&mut self, _index: usize, ctx: &Ctx<'_>, rec: &mut Record) {
        for _ in 0..CHUNK {
            let item = self.stream.next_item();
            let kind = op_name(&item.request);
            let client = &mut self.client;
            let reply = rec.op_flagged(kind, item.miss, || {
                ctx.tracer.layer(
                    "server",
                    || format!("{kind} {}", model_of(&item.request)),
                    |_| match client.request(&item.request) {
                        Ok(payload) => Ok(wire(&Response::Ok(payload))),
                        Err(ClientError::Service(message)) => Err(message),
                        Err(other) => Err(err(other)),
                    },
                )
            });
            self.sent.push((item.request, reply));
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>, rec: &mut Record, run: &RunSummary) {
        match self.client.stats() {
            Ok(stats) => record_service_counters(rec, &stats),
            Err(e) => rec.fail(format!("stats: {e}")),
        }

        // Replay in-process on a fresh service, in the same order, so cache,
        // warm-start and memo state evolve exactly as in the daemon.
        let replay = AnalysisService::new(ctx.exec);
        let mut handle_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (index, (request, reply)) in self.sent.iter().enumerate() {
            let start = Instant::now();
            let response = replay.handle(request);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            handle_ms.entry(op_name(request)).or_default().push(ms);
            if let Some(reply) = reply {
                let expected = wire(&response);
                rec.check(*reply == expected, || {
                    format!("daemon reply to {request:?} differs from the in-process reply")
                });
            }
            if index + 1 == FINGERPRINT_REQUESTS {
                self.fingerprint = fingerprint_of(&replay.stats());
            }
        }
        // Runs that got through fewer requests still fingerprint the same
        // prefix: the stream continues where the daemon stopped.
        for _ in self.sent.len()..FINGERPRINT_REQUESTS {
            let item = self.stream.next_item();
            let _ = replay.handle(&item.request);
        }
        if self.sent.len() < FINGERPRINT_REQUESTS {
            self.fingerprint = fingerprint_of(&replay.stats());
        }

        let client_ms: Vec<f64> = rec.ops.iter().map(|op| op.ms).collect();
        let miss_ms: Vec<f64> = rec
            .ops
            .iter()
            .filter(|op| op.miss)
            .map(|op| op.ms)
            .collect();
        if let Some(p50) = quantile(&miss_ms, 0.5) {
            rec.extra.push(("miss_p50_ms", p50, "ms"));
        }
        if run.traced {
            let all: Vec<f64> = handle_ms.values().flatten().copied().collect();
            let handle_p50 = quantile(&all, 0.5).unwrap_or(0.0);
            rec.layer.insert("server.handle_p50_ms", handle_p50);
            for (op, values) in &handle_ms {
                let key = match *op {
                    "availability" => "server.handle_p50_ms.availability",
                    "survivability" => "server.handle_p50_ms.survivability",
                    "cost" => "server.handle_p50_ms.cost",
                    "simulate" => "server.handle_p50_ms.simulate",
                    _ => continue,
                };
                rec.layer.insert(key, quantile(values, 0.5).unwrap_or(0.0));
            }
            let client_p50 = quantile(&client_ms, 0.5).unwrap_or(0.0);
            rec.layer
                .insert("server.transport_ms", client_p50 - handle_p50);
        }
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
    }

    fn passes_repeat(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> BTreeMap<&'static str, u64> {
        self.fingerprint.clone()
    }
}

fn record_service_counters(rec: &mut Record, stats: &StatsSnapshot) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    rec.layer.insert(
        "server.cache_hit_ratio",
        ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
    );
    rec.layer.insert(
        "server.warm_solve_ratio",
        ratio(stats.warm_solves, stats.stationary_solves),
    );
    rec.layer
        .insert("server.coalesced", stats.coalesced_queries as f64);
    rec.layer.insert("server.evictions", stats.evictions as f64);
}

fn fingerprint_of(stats: &StatsSnapshot) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("requests", FINGERPRINT_REQUESTS as u64),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("stationary_solves", stats.stationary_solves),
        ("warm_solves", stats.warm_solves),
        (
            "solve_iterations",
            stats.cold_iterations + stats.warm_iterations,
        ),
        ("transient_passes", stats.transient_passes),
        ("coalesced", stats.coalesced_queries),
        ("replications", stats.simulate_replications),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(seed: u64, n: usize) -> Vec<StreamItem> {
        let mut stream = RequestStream::new(seed);
        (0..n).map(|_| stream.next_item()).collect()
    }

    #[test]
    fn one_seed_gives_one_stream() {
        assert_eq!(prefix(7, 500), prefix(7, 500));
        assert_eq!(RequestStream::new(7).pool(), RequestStream::new(7).pool());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(prefix(7, 50), prefix(8, 50));
        assert_ne!(prefix(0, 50), prefix(1, 50));
    }

    #[test]
    fn the_mix_covers_every_op_and_misses_only_on_first_touch() {
        let items = prefix(3, 2000);
        for op in ["availability", "survivability", "cost", "simulate"] {
            assert!(
                items.iter().any(|i| op_name(&i.request) == op),
                "{op} missing"
            );
        }
        let availability = items
            .iter()
            .filter(|i| op_name(&i.request) == "availability")
            .count();
        assert!((800..1200).contains(&availability), "{availability}");
        let misses = items.iter().filter(|i| i.miss).count();
        assert!(misses <= RequestStream::new(3).pool().len());
        for spec in RequestStream::new(3).pool() {
            ModelSpec::parse(spec).unwrap();
        }
    }
}
