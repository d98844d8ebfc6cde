//! Spans kept by the benchmark itself, around the public calls into each
//! layer of the program.
//!
//! A [`Tracer`] is either enabled (it records name, start, end, parent and
//! counts of every span) or disabled (spans cost one branch and record
//! nothing). The untraced run uses a disabled tracer, so its timings carry no
//! tracing cost; the traced run makes the same calls with an enabled one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use arcade_server::Json;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Everything before the timed phase.
    Setup,
    /// The timed pass with this index.
    Pass(usize),
}

/// How repeated values of one count key combine within a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Totals (states, transitions, replications, …).
    Sum,
    /// Worst case (certificates such as residuals).
    Max,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer, named after the repository module it times.
    pub layer: &'static str,
    /// What the call was about (`line1/frf-2 flat`, `survivability`, …).
    pub label: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The phase the span was recorded in.
    pub phase: Phase,
    /// Counts recorded at the span's boundary.
    pub counts: Vec<(&'static str, f64, Agg)>,
}

/// A span recorder (see the module docs).
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    phase: Cell<Phase>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// The handle a traced call records its counts through.
pub struct SpanCounts<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl SpanCounts<'_> {
    /// Adds a summed count to the span (a no-op when tracing is off).
    pub fn count(&mut self, key: &'static str, value: f64) {
        self.push(key, value, Agg::Sum);
    }

    /// Adds a worst-case value to the span (a no-op when tracing is off).
    pub fn max(&mut self, key: &'static str, value: f64) {
        self.push(key, value, Agg::Max);
    }

    fn push(&mut self, key: &'static str, value: f64, agg: Agg) {
        if let Some(index) = self.index {
            self.tracer.spans.borrow_mut()[index]
                .counts
                .push((key, value, agg));
        }
    }
}

impl Tracer {
    /// A recorder that starts disabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            phase: Cell::new(Phase::Setup),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans that start from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Tags the spans that start from now on with `phase`.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`. Spans nest: a span opened while
    /// another is open becomes its child.
    pub fn layer<R>(
        &self,
        layer: &'static str,
        label: impl FnOnce() -> String,
        f: impl FnOnce(&mut SpanCounts<'_>) -> R,
    ) -> R {
        if !self.enabled.get() {
            return f(&mut SpanCounts {
                tracer: self,
                index: None,
            });
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                label: label(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                phase: self.phase.get(),
                counts: Vec::new(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f(&mut SpanCounts {
            tracer: self,
            index: Some(index),
        });
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-layer totals of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self time in milliseconds: span time minus the part child spans cover.
    pub self_ms: f64,
    /// Self time per span label prefix (the part before the first space).
    pub self_ms_by_kind: BTreeMap<String, f64>,
    /// Combined counts.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children are clipped to the parent, overlaps counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sums self time and counts per layer over the spans `keep` selects.
pub fn layer_totals(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, LayerTotals> {
    let self_ns = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, &ns) in spans.iter().zip(self_ns.iter()) {
        if !keep(span) {
            continue;
        }
        let entry = totals.entry(span.layer).or_default();
        let ms = ns as f64 / 1e6;
        entry.self_ms += ms;
        let kind = span.label.split(' ').next().unwrap_or("").to_string();
        *entry.self_ms_by_kind.entry(kind).or_default() += ms;
        for &(key, value, agg) in &span.counts {
            let slot = entry.counts.entry(key).or_insert(match agg {
                Agg::Sum => 0.0,
                Agg::Max => f64::NEG_INFINITY,
            });
            *slot = match agg {
                Agg::Sum => *slot + value,
                Agg::Max => slot.max(value),
            };
        }
    }
    totals
}

/// The spans as a Chrome-trace JSON document (opens in Perfetto or
/// `chrome://tracing`): one complete event per span, the untraced passes
/// absent.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|span| {
            let mut args = vec![("label".to_string(), Json::from(span.label.as_str()))];
            args.push((
                "phase".to_string(),
                Json::from(match span.phase {
                    Phase::Setup => "setup".to_string(),
                    Phase::Pass(i) => format!("pass {i}"),
                }),
            ));
            for &(key, value, _) in &span.counts {
                args.push((key.to_string(), Json::Number(value)));
            }
            Json::object(vec![
                ("name", Json::from(span.layer)),
                ("cat", Json::from(span.layer)),
                ("ph", Json::from("X")),
                ("ts", Json::Number(span.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Number((span.end_ns - span.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::from(1usize)),
                ("tid", Json::from(1usize)),
                ("args", Json::Object(args)),
            ])
        })
        .collect();
    Json::object(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "x",
            label: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            phase: Phase::Pass(0),
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 120, Some(0)),
        ];
        let self_ns = self_times_ns(&spans);
        // Children cover 10..40 and 90..100 of the parent: 40 ns.
        assert_eq!(self_ns[0], 60);
        assert_eq!(self_ns[1], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        let value = tracer.layer(
            "composer",
            || "a".into(),
            |c| {
                c.count("states", 3.0);
                7
            },
        );
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.layer(
            "composer",
            || "a".into(),
            |c| {
                c.count("states", 3.0);
                tracer.layer("lumping", || "b".into(), |_| ());
            },
        );
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let totals = layer_totals(&spans, |_| true);
        assert_eq!(totals["composer"].counts["states"], 3.0);
    }
}
