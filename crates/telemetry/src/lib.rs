//! # arcade-telemetry — observability substrate for the Arcade pipeline
//!
//! Three instruments, all hand-rolled on `std` alone (like the server's
//! `json` module — no external dependencies):
//!
//! * **Span tracing** ([`Recorder`]/[`Span`]) — a cheap cloneable handle
//!   that the compile → solve → simulate → serve layers report nested,
//!   monotonically-timed spans into, each carrying domain counters (states,
//!   blocks, iterations, operator applies, replications). The server crate
//!   renders a recorder as Chrome trace-event JSON (`Json::chrome_trace` in
//!   `arcade-server`, its one JSON writer), loadable in `chrome://tracing` /
//!   Perfetto.
//! * **Convergence probes** ([`Probe`]/[`ProbeSeries`]) — an opt-in observer
//!   the iterative solvers feed their per-iteration (or per-restart)
//!   residual norms into, and the quotient simulator its per-batch
//!   likelihood-ratio certificate trajectory. Probes only *read* values the
//!   solvers already compute, so attaching one never perturbs numerics.
//! * **Latency histograms** ([`Histogram`]) — lock-free log-bucketed
//!   atomic counters with p50/p90/p99/max snapshots, used by the analysis
//!   daemon for per-op query latency, solve iteration counts and
//!   replication batches.
//!
//! ## The null-object contract
//!
//! A disabled [`Recorder`] (the default everywhere) is a null object: every
//! span/probe call reduces to one branch on an `Option` that is `None`, with
//! no allocation and no clock read. The `telemetry_overhead` criterion bench
//! gates the disabled-path overhead on a full availability solve at ≤2%.
//!
//! An *enabled* recorder must never perturb numerics either: it observes
//! values the instrumented code already computes and touches no float state,
//! so all solver and simulator outputs are bit-identical with tracing on or
//! off, at any thread count (pinned by the `telemetry_neutrality` tests).
//!
//! ## Plumbing
//!
//! The handle travels the same way `ExecOptions` does — explicitly where a
//! signature carries it (solver builders, the traced `CompiledQuotient`
//! methods, the analysis service) and via a scoped thread-local default
//! ([`Recorder::enter`] / [`Recorder::current`]) across the `Copy` options
//! structs (`ComposerOptions`, `TransientOptions`, `SimulationOptions`),
//! which cannot hold an `Arc` without breaking their copy semantics. A
//! process-global fallback ([`Recorder::install_global`]) lets
//! `wt_experiments --trace out.json` wrap any command without threading a
//! handle through every experiment signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod recorder;

pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{Probe, ProbeSeries, Recorder, ScopeGuard, Span, SpanRecord};
