//! `rare-event`: Monte-Carlo on three pinned quotients.
//!
//! * naive interval unavailability on `line1/frf-1`;
//! * unavailability with bias-1000 failure biasing on `line2/ded@0.001`;
//! * accumulated cost with VaR/CVaR after `disaster-2-mixed` on `line2/ded`.
//!
//! Compiling the quotients and building the samplers is set-up; the timed
//! passes only simulate. Every estimator call draws its simulation seed from
//! a generator seeded with the workload seed. After the timed phase each
//! confidence interval is checked against the exact value the
//! [`CompiledQuotient`] solvers give, and each likelihood-ratio certificate
//! against 1.

use arcade_core::{CompiledModel, CompiledQuotient, ComposerOptions, QuotientParts};
use arcade_sim::{Estimate, QuotientSimulator, SimulationOptions};
use ctmc::RewardStructure;
use watertreatment::facility::DISASTER_LINE2_MIXED;

use crate::stats::SplitMix64;
use crate::workload::{err, registry_line, Ctx, Record, RunSummary, Workload};

/// A confidence interval "covers" a reference value when the value lies
/// within this many 95% half-widths of the mean (about 5.9 standard
/// errors). Every run checks dozens of intervals, so the plain 95% interval
/// would flag one in twenty of them by design.
const COVERAGE_WIDTHS: f64 = 3.0;

/// What one estimator measures.
#[derive(Debug, Clone, Copy)]
enum Measure {
    /// Fraction of `[0, horizon]` spent non-operational.
    Unavailability,
    /// Cost accumulated over `[0, horizon]` after a disaster.
    Cost { disaster: &'static str, alpha: f64 },
}

/// One pinned estimator.
struct Estimator {
    name: &'static str,
    spec: &'static str,
    measure: Measure,
    horizon: f64,
    replications: usize,
    bias: f64,
}

const ESTIMATORS: [Estimator; 3] = [
    Estimator {
        name: "naive_unavailability",
        spec: "line1/frf-1",
        measure: Measure::Unavailability,
        horizon: 1000.0,
        replications: 300_000,
        bias: 1.0,
    },
    Estimator {
        name: "biased_unavailability",
        spec: "line2/ded@0.001",
        measure: Measure::Unavailability,
        horizon: 100.0,
        replications: 100_000,
        bias: 1000.0,
    },
    Estimator {
        name: "cost_var_cvar",
        spec: "line2/ded",
        measure: Measure::Cost {
            disaster: DISASTER_LINE2_MIXED,
            alpha: 0.95,
        },
        horizon: 50.0,
        replications: 300_000,
        bias: 1.0,
    },
];

/// A compiled estimator: its quotient and simulator.
struct Loaded {
    estimator: &'static Estimator,
    quotient: &'static CompiledQuotient,
    simulator: QuotientSimulator<'static>,
}

/// One estimate kept for the checks after the timed phase.
struct Outcome {
    estimator: usize,
    estimate: Estimate,
    lr_mean: Option<Estimate>,
}

pub struct RareEvent {
    loaded: Vec<Loaded>,
    seeds: SplitMix64,
    outcomes: Vec<Outcome>,
    untraced_replications: usize,
}

/// Builds the models through the registry, compiles their quotients and
/// builds the samplers.
pub fn setup(seed: u64, ctx: &Ctx<'_>) -> Result<Box<dyn Workload>, String> {
    let mut loaded = Vec::new();
    for estimator in &ESTIMATORS {
        let entry = registry_line(ctx, estimator.spec)?;
        let quotient = ctx.tracer.layer(
            "composer",
            || format!("{} compositional", entry.spec),
            |c| {
                let options = ComposerOptions {
                    exec: ctx.exec,
                    ..ComposerOptions::default()
                };
                let compiled = CompiledModel::compile_with(&entry.model, options).map_err(err)?;
                c.count("states", compiled.chain().num_states() as f64);
                c.count("transitions", compiled.chain().num_transitions() as f64);
                CompiledQuotient::of_compiled(&entry.model, &compiled).map_err(err)
            },
        )?;
        // The simulator borrows its quotient for the rest of the process;
        // the few set-up repetitions leak a few small quotients.
        let quotient: &'static CompiledQuotient = Box::leak(Box::new(quotient));
        let simulator = ctx.tracer.layer(
            "sim",
            || format!("build {}", estimator.spec),
            |_| QuotientSimulator::new(quotient),
        );
        loaded.push(Loaded {
            estimator,
            quotient,
            simulator,
        });
    }
    Ok(Box::new(RareEvent {
        loaded,
        seeds: SplitMix64::new(seed),
        outcomes: Vec::new(),
        untraced_replications: 0,
    }))
}

/// The exact value an estimator's interval must cover, from the quotient's
/// own solvers: interval unavailability is the accumulated reward of the
/// down indicator divided by the horizon.
fn exact_value(loaded: &Loaded, exec: ctmc::ExecOptions) -> Result<f64, String> {
    let q = loaded.quotient;
    let horizon = loaded.estimator.horizon;
    match loaded.estimator.measure {
        Measure::Cost { disaster, .. } => {
            let curve = q
                .accumulated_cost_curve(Some(disaster), &[horizon], exec)
                .map_err(err)?;
            Ok(curve[0].1)
        }
        Measure::Unavailability => {
            let down: Vec<f64> = q
                .operational_mask()
                .iter()
                .map(|&up| if up { 0.0 } else { 1.0 })
                .collect();
            let indicator = CompiledQuotient::from_parts(QuotientParts {
                name: format!("{} down time", q.name()),
                chain: q.chain().clone(),
                operational: q.operational_mask().to_vec(),
                service: q.service_levels().to_vec(),
                cost: RewardStructure::new("down", down).map_err(err)?,
                initial: q.initial(),
                disaster_starts: q.disaster_starts().clone(),
                source_states: q.source_states(),
            })
            .map_err(err)?;
            let curve = indicator
                .accumulated_cost_curve(None, &[horizon], exec)
                .map_err(err)?;
            Ok(curve[0].1 / horizon)
        }
    }
}

fn covers(estimate: &Estimate, value: f64) -> bool {
    (estimate.mean - value).abs() <= COVERAGE_WIDTHS * estimate.half_width + 1e-12 * value.abs()
}

impl Workload for RareEvent {
    fn pass(&mut self, _index: usize, ctx: &Ctx<'_>, rec: &mut Record) {
        for (index, loaded) in self.loaded.iter().enumerate() {
            let estimator = loaded.estimator;
            let options = SimulationOptions {
                replications: estimator.replications,
                seed: self.seeds.next_u64(),
                exec: ctx.exec,
                bias: estimator.bias,
                ..SimulationOptions::default()
            };
            let report = rec.op(estimator.name, || {
                ctx.tracer.layer(
                    "sim",
                    || format!("estimate {} {}", estimator.name, estimator.spec),
                    |c| {
                        let sim = &loaded.simulator;
                        let report = match estimator.measure {
                            Measure::Unavailability => {
                                sim.unavailability(estimator.horizon, &options)
                            }
                            Measure::Cost { disaster, alpha } => sim.accumulated_cost(
                                Some(disaster),
                                estimator.horizon,
                                alpha,
                                &options,
                            ),
                        }
                        .map_err(err)?;
                        c.count("replications", estimator.replications as f64);
                        if let Some(lr) = report.lr_mean {
                            c.count("lr_mean_sum", lr.mean);
                            c.count("lr_runs", 1.0);
                        }
                        Ok(report)
                    },
                )
            });
            rec.tally("replications", estimator.replications);
            rec.tally("blocks", loaded.quotient.num_states());
            if let Some(report) = report {
                if !ctx.traced {
                    self.untraced_replications += estimator.replications;
                }
                if let (Some(tail), Measure::Cost { .. }) = (report.tail, estimator.measure) {
                    rec.check(tail.cvar >= tail.var && tail.var.is_finite(), || {
                        format!(
                            "{}: CVaR {} below VaR {}",
                            estimator.name, tail.cvar, tail.var
                        )
                    });
                }
                self.outcomes.push(Outcome {
                    estimator: index,
                    estimate: report.estimate,
                    lr_mean: report.lr_mean,
                });
            }
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>, rec: &mut Record, run: &RunSummary) {
        let exact: Vec<Option<f64>> = self
            .loaded
            .iter()
            .map(|loaded| match exact_value(loaded, ctx.exec) {
                Ok(value) => Some(value),
                Err(e) => {
                    rec.fail(format!("exact value of {}: {e}", loaded.estimator.name));
                    None
                }
            })
            .collect();
        for outcome in &self.outcomes {
            let name = self.loaded[outcome.estimator].estimator.name;
            if let Some(value) = exact[outcome.estimator] {
                rec.check(covers(&outcome.estimate, value), || {
                    format!(
                        "{name}: interval {:?} misses the exact value {value}",
                        outcome.estimate
                    )
                });
            }
            if self.loaded[outcome.estimator].estimator.bias != 1.0 {
                match &outcome.lr_mean {
                    Some(lr) => rec.check(covers(lr, 1.0), || {
                        format!("{name}: likelihood-ratio mean {lr:?} misses 1")
                    }),
                    None => rec.fail(format!("{name}: biased run without an LR certificate")),
                }
            }
        }
        if run.untraced_wall_s > 0.0 {
            rec.extra.push((
                "replications_per_s",
                self.untraced_replications as f64 / run.untraced_wall_s,
                "1/s",
            ));
        }
    }
}
