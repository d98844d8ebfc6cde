//! The span tracer and convergence probes.
//!
//! A [`Recorder`] is a handle to a shared trace buffer (or to nothing: the
//! disabled recorder is a null object). Instrumented code opens a [`Span`]
//! around a phase, attaches domain counters to it, and lets the guard's
//! `Drop` commit the timing; iterative solvers additionally open a
//! [`Probe`] and feed it the residual norm they already compute each
//! iteration. Spans and probe series are buffered under a mutex — they are
//! created at phase granularity (a handful per query), never per iteration,
//! so the lock is uncontended; the per-iteration path is the lock-free
//! `Vec::push` inside the probe guard.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span: a named phase with monotonic timing, the thread it
/// ran on and its domain counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`compose`, `lump`, `solve`, `measure`, …).
    pub name: &'static str,
    /// Start offset from the recorder's epoch, in microseconds.
    pub start_us: u64,
    /// Duration, in microseconds.
    pub duration_us: u64,
    /// Small dense id of the recording thread (stable per thread, assigned
    /// on first use; Chrome groups same-thread spans into one nested track).
    pub thread: u64,
    /// Domain counters attached with [`Span::count`], in insertion order.
    pub counters: Vec<(&'static str, u64)>,
}

/// One convergence series captured by a [`Probe`]: the per-iteration (or
/// per-restart, or per-batch) values of one solve or simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSeries {
    /// What the values are (`residual` for solvers, `lr-certificate` for
    /// the simulator's per-batch likelihood-ratio trajectory).
    pub kind: &'static str,
    /// The solver tier that produced the series (`gauss-seidel`,
    /// `krylov-operator`, …) — the `tier_name()` of the engine probed.
    pub tier: &'static str,
    /// The captured values, in iteration order.
    pub values: Vec<f64>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    probes_on: bool,
    spans: Mutex<Vec<SpanRecord>>,
    series: Mutex<Vec<ProbeSeries>>,
}

/// A cheap cloneable tracing handle; [`Recorder::disabled`] is a null
/// object whose every operation is a no-op without allocation.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// Pops the scoped recorder installed by [`Recorder::enter`] when dropped.
#[must_use = "the scope ends when the guard drops"]
pub struct ScopeGuard {
    _private: (),
}

thread_local! {
    static SCOPE: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Dense per-thread ids for span records (u64 hashes of `ThreadId` would be
/// unstable across runs; a counter keeps traces small and diffable).
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|id| *id)
}

impl Recorder {
    /// The null-object recorder: every span and probe is a no-op.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder capturing spans and counters (no convergence
    /// probes).
    pub fn enabled() -> Recorder {
        Recorder::live(false)
    }

    /// A live recorder that additionally activates convergence probes —
    /// per-iteration residual series on the solvers, the per-batch LR
    /// trajectory on the simulator.
    pub fn with_probes() -> Recorder {
        Recorder::live(true)
    }

    fn live(probes_on: bool) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                probes_on,
                spans: Mutex::new(Vec::new()),
                series: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether convergence probes are active.
    pub fn probes_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.probes_on)
    }

    /// Installs this recorder as the calling thread's scoped default —
    /// [`Recorder::current`] returns it until the guard drops. Scopes nest;
    /// the innermost wins.
    pub fn enter(&self) -> ScopeGuard {
        SCOPE.with(|stack| stack.borrow_mut().push(self.clone()));
        ScopeGuard { _private: () }
    }

    /// The recorder instrumented code should report to when no handle was
    /// threaded explicitly: the innermost [`Recorder::enter`] scope on this
    /// thread, else the process-global recorder, else the disabled null
    /// object. The miss path is one thread-local read and one `OnceLock`
    /// load — cheap enough to call once per solve, never per iteration.
    pub fn current() -> Recorder {
        let scoped = SCOPE.with(|stack| stack.borrow().last().cloned());
        if let Some(recorder) = scoped {
            return recorder;
        }
        GLOBAL.get().cloned().unwrap_or_default()
    }

    /// Installs the process-global fallback recorder (used by
    /// `wt_experiments --trace` so one flag traces any command). The first
    /// installation wins; returns whether this call installed it.
    pub fn install_global(recorder: Recorder) -> bool {
        GLOBAL.set(recorder).is_ok()
    }

    /// Opens a span; the guard records on drop. On a disabled recorder this
    /// is one branch — no clock read, no allocation.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            active: self.inner.as_ref().map(|inner| ActiveSpan {
                inner: Arc::clone(inner),
                name,
                started: Instant::now(),
                counters: Vec::new(),
            }),
        }
    }

    /// Opens a convergence probe for a solver tier. Inactive (a no-op
    /// guard) unless this recorder was built with [`Recorder::with_probes`]
    /// — spans-only tracing never pays the per-iteration push.
    pub fn probe(&self, kind: &'static str, tier: &'static str) -> Probe {
        Probe {
            active: self
                .inner
                .as_ref()
                .filter(|inner| inner.probes_on)
                .map(|inner| ActiveProbe {
                    inner: Arc::clone(inner),
                    kind,
                    tier,
                    values: Vec::new(),
                }),
        }
    }

    /// Snapshot of every completed span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span buffer poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of every committed probe series, in completion order.
    pub fn series(&self) -> Vec<ProbeSeries> {
        match &self.inner {
            Some(inner) => inner.series.lock().expect("probe buffer poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Sum of counter `key` over all completed spans named `name` — the
    /// aggregate the service counters must agree with (`solve` /
    /// `iterations` totals, `simulate` / `replications`, …).
    pub fn counter_total(&self, name: &str, key: &str) -> u64 {
        self.spans()
            .iter()
            .filter(|span| span.name == name)
            .flat_map(|span| span.counters.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Number of completed spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans().iter().filter(|span| span.name == name).count()
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    started: Instant,
    counters: Vec<(&'static str, u64)>,
}

/// A span guard: commits the timed record when dropped. The disabled guard
/// holds nothing.
#[derive(Debug)]
#[must_use = "the span is timed until the guard drops"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Attaches (or accumulates into) a domain counter. A no-op on the
    /// disabled guard.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.active {
            match active.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += value,
                None => active.counters.push((key, value)),
            }
        }
    }

    /// Whether the guard is live (so callers can skip preparing counter
    /// values that are expensive to compute).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let start_us = active
                .started
                .duration_since(active.inner.epoch)
                .as_micros() as u64;
            let duration_us = active.started.elapsed().as_micros() as u64;
            let record = SpanRecord {
                name: active.name,
                start_us,
                duration_us,
                thread: thread_ordinal(),
                counters: active.counters,
            };
            active
                .inner
                .spans
                .lock()
                .expect("span buffer poisoned")
                .push(record);
        }
    }
}

#[derive(Debug)]
struct ActiveProbe {
    inner: Arc<Inner>,
    kind: &'static str,
    tier: &'static str,
    values: Vec<f64>,
}

/// A convergence-probe guard: buffers values locally (no locks on the hot
/// path) and commits the series when dropped. The inactive guard's
/// [`Probe::record`] is a single branch.
#[derive(Debug)]
pub struct Probe {
    active: Option<ActiveProbe>,
}

impl Probe {
    /// Records one observation (a residual norm, a running LR mean). Only
    /// *reads* the value — attaching a probe can never perturb the
    /// iteration it watches.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if let Some(active) = &mut self.active {
            active.values.push(value);
        }
    }

    /// Whether observations are being captured.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let series = ProbeSeries {
                kind: active.kind,
                tier: active.tier,
                values: active.values,
            };
            active
                .inner
                .series
                .lock()
                .expect("probe buffer poisoned")
                .push(series);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        assert!(!recorder.probes_enabled());
        let mut span = recorder.span("solve");
        span.count("states", 10);
        assert!(!span.is_recording());
        drop(span);
        let mut probe = recorder.probe("residual", "gauss-seidel");
        probe.record(1e-9);
        assert!(!probe.is_active());
        drop(probe);
        assert!(recorder.spans().is_empty());
        assert!(recorder.series().is_empty());
    }

    #[test]
    fn spans_record_counters_and_nesting_order() {
        let recorder = Recorder::enabled();
        {
            let mut outer = recorder.span("measure");
            outer.count("points", 3);
            {
                let mut inner = recorder.span("solve");
                inner.count("iterations", 17);
                inner.count("iterations", 3);
            }
        }
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        // Inner drops (and therefore records) first.
        assert_eq!(spans[0].name, "solve");
        assert_eq!(spans[0].counters, vec![("iterations", 20)]);
        assert_eq!(spans[1].name, "measure");
        assert_eq!(spans[1].counters, vec![("points", 3)]);
        // The inner span starts no earlier and ends no later than the outer.
        assert!(spans[0].start_us >= spans[1].start_us);
        assert!(
            spans[0].start_us + spans[0].duration_us
                <= spans[1].start_us + spans[1].duration_us + 1
        );
        assert_eq!(recorder.counter_total("solve", "iterations"), 20);
        assert_eq!(recorder.span_count("solve"), 1);
    }

    #[test]
    fn probes_activate_only_with_probes_on() {
        let spans_only = Recorder::enabled();
        assert!(!spans_only.probe("residual", "power").is_active());

        let probed = Recorder::with_probes();
        assert!(probed.probes_enabled());
        {
            let mut probe = probed.probe("residual", "power");
            probe.record(0.5);
            probe.record(0.25);
        }
        let series = probed.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].kind, "residual");
        assert_eq!(series[0].tier, "power");
        assert_eq!(series[0].values, vec![0.5, 0.25]);
    }

    #[test]
    fn scoped_current_nests_and_pops() {
        assert!(!Recorder::current().is_enabled(), "no ambient recorder");
        let outer = Recorder::enabled();
        let _outer_guard = outer.enter();
        assert!(Recorder::current().is_enabled());
        {
            let inner = Recorder::with_probes();
            let _inner_guard = inner.enter();
            assert!(Recorder::current().probes_enabled(), "innermost wins");
        }
        assert!(!Recorder::current().probes_enabled(), "inner scope popped");
        Recorder::current().span("scoped").count("n", 1);
        assert_eq!(outer.span_count("scoped"), 1);
    }
}
