//! What every workload shares: the per-run record of operations, checks and
//! exact counts, and the registry front door the set-ups go through.

use std::collections::BTreeMap;
use std::time::Instant;

use arcade_core::{ArcadeModel, ExecOptions};
use watertreatment::facility::line_model_scaled;
use watertreatment::{ModelSpec, ModelTarget};

use crate::trace::Tracer;

/// What a workload's set-up and passes run with.
pub struct Ctx<'a> {
    /// The benchmark's span recorder (disabled in untraced passes).
    pub tracer: &'a Tracer,
    /// The worker pool every call into the program gets, passed explicitly.
    pub exec: ExecOptions,
    /// Whether the current pass is traced.
    pub traced: bool,
}

/// What the timed phase amounted to, for figures computed after it.
pub struct RunSummary {
    /// Wall time of the untraced passes, summed, in seconds.
    pub untraced_wall_s: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// One timed operation: a call through a public entry point, as its caller
/// sees it.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Latency in milliseconds.
    pub ms: f64,
    /// Whether the operation had to compile its model first (a cache miss).
    pub miss: bool,
}

/// Everything a run records besides spans.
#[derive(Debug, Default)]
pub struct Record {
    /// Latency of every operation of the untraced passes.
    pub ops: Vec<OpSample>,
    /// Operations plus output checks attempted.
    pub attempted: u64,
    /// Operations that returned an error plus checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Exact counts of the current pass (its fingerprint).
    pub counts: BTreeMap<&'static str, u64>,
    /// Whether operation latencies are being kept (untraced passes only).
    pub keep_ops: bool,
    /// Workload-specific end-to-end figures, printed alongside the metrics.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics a workload computes itself (not from spans).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Record {
    /// Times one operation and records its outcome; `None` when it failed.
    pub fn op<T>(
        &mut self,
        kind: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.op_flagged(kind, false, f)
    }

    /// [`Record::op`] for an operation that may be a cache miss.
    pub fn op_flagged<T>(
        &mut self,
        kind: &'static str,
        miss: bool,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let start = Instant::now();
        let result = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        if self.keep_ops {
            self.ops.push(OpSample { ms, miss });
        }
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.fail(format!("{kind}: {err}"));
                None
            }
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {}", what()));
        }
    }

    /// Counts one failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Adds to an exact count of the current pass.
    pub fn tally(&mut self, key: &'static str, value: usize) {
        *self.counts.entry(key).or_default() += value as u64;
    }
}

/// One workload: set up by its constructor, then run pass by pass.
pub trait Workload {
    /// Runs timed pass `index`.
    fn pass(&mut self, index: usize, ctx: &Ctx<'_>, rec: &mut Record);

    /// Checks and figures that need the whole timed phase; runs after it,
    /// untimed.
    fn finish(&mut self, _ctx: &Ctx<'_>, _rec: &mut Record, _run: &RunSummary) {}

    /// Whether a query — the unit `query_p50_ms`, `query_tail_ms` and
    /// `queries_per_s` count — is a whole pass rather than one operation.
    fn query_is_pass(&self) -> bool {
        false
    }

    /// Whether every pass does identical work, so each pass's exact counts
    /// must repeat. Workloads that walk a stream instead report their own
    /// fingerprint from [`Workload::fingerprint`].
    fn passes_repeat(&self) -> bool {
        true
    }

    /// The fingerprint of a workload whose passes differ.
    fn fingerprint(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::new()
    }
}

/// Shorthand for turning a program error into the benchmark's error text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The transient measures the workloads evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Probability of no failure up to each time (Fig. 3).
    Reliability,
    /// Probability of reaching a service level within each deadline.
    Survivability,
    /// Expected cost rate at each time.
    InstCost,
    /// Expected cost accumulated up to each time.
    AccCost,
}

impl Curve {
    /// The operation and span-label name.
    pub fn name(self) -> &'static str {
        match self {
            Curve::Reliability => "reliability",
            Curve::Survivability => "survivability",
            Curve::InstCost => "inst_cost",
            Curve::AccCost => "acc_cost",
        }
    }

    /// Shape checks that hold for every model, so they pin no value:
    /// probabilities stay in `[0, 1]` and move the right way over time,
    /// costs are non-negative and accumulated cost never decreases.
    fn shape_ok(self, points: &[(f64, f64)]) -> bool {
        const EPS: f64 = 1e-9;
        let finite = points.iter().all(|&(t, v)| t.is_finite() && v.is_finite());
        let rising = points.windows(2).all(|w| w[1].1 >= w[0].1 - EPS);
        let falling = points.windows(2).all(|w| w[1].1 <= w[0].1 + EPS);
        let probability = points.iter().all(|&(_, v)| (-EPS..=1.0 + EPS).contains(&v));
        let non_negative = points.iter().all(|&(_, v)| v >= -EPS);
        finite
            && !points.is_empty()
            && match self {
                Curve::Reliability => probability && falling,
                Curve::Survivability => probability && rising,
                Curve::InstCost => non_negative,
                Curve::AccCost => non_negative && rising,
            }
    }
}

/// Evaluates one transient curve as an operation inside a `transient` span
/// and checks its shape. `states` is the size of the chain it runs on.
pub fn curve(
    ctx: &Ctx<'_>,
    rec: &mut Record,
    kind: Curve,
    label: &str,
    states: usize,
    f: impl FnOnce() -> Result<Vec<(f64, f64)>, arcade_core::ArcadeError>,
) {
    let points = rec.op(kind.name(), || {
        ctx.tracer.layer(
            "transient",
            || format!("{} {label}", kind.name()),
            |c| {
                let points = f().map_err(err)?;
                c.count("state_points", (states * points.len()) as f64);
                Ok(points)
            },
        )
    });
    if let Some(points) = points {
        rec.tally("curve_points", points.len());
        rec.check(kind.shape_ok(&points), || {
            format!("{} curve of {label} has the wrong shape", kind.name())
        });
    }
}

/// A single-line model built through the registry: the spec is parsed by
/// [`ModelSpec::parse`] and the model built by the line constructor it names.
pub struct LineEntry {
    /// The canonical spec.
    pub spec: String,
    /// The built model.
    pub model: ArcadeModel,
}

/// Builds a single-line model through the registry, inside a `registry` span.
pub fn registry_line(ctx: &Ctx<'_>, spec: &str) -> Result<LineEntry, String> {
    ctx.tracer.layer(
        "registry",
        || spec.to_string(),
        |_| {
            let parsed = ModelSpec::parse(spec).map_err(err)?;
            let model = match parsed.target() {
                ModelTarget::Line { line, strategy } => {
                    line_model_scaled(*line, strategy, parsed.rate_scale()).map_err(err)?
                }
                _ => return Err(format!("`{spec}` is not a single-line spec")),
            };
            Ok(LineEntry {
                spec: parsed.canonical(),
                model,
            })
        },
    )
}
