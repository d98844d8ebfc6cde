//! `facility-curves`: the two-line facility on a 281,349-block strategy
//! pair plus the k-line ladder `facility/ded^2..^4`.
//!
//! For the pair: joint product construction and materialisation
//! (`product`), product-form and matrix-free joint availability (`steady`),
//! and recovery and cost curves after the all-pumps disaster
//! (`transient`). For the ladder: the Krylov operator solve where the
//! product fits and orbit enumeration (`symmetry`). The workload has no
//! random input: every seed runs the same calls.

use arcade_core::{ComposerOptions, FacilityAnalysis, FacilityModel};
use watertreatment::experiments::{
    grids, service_levels, MAX_OPERATOR_PRODUCT, ORBIT_ENUMERATION_CAP,
};
use watertreatment::facility::FACILITY_DISASTER_ALL_PUMPS;
use watertreatment::ModelSpec;

use crate::workload::{curve, err, Ctx, Curve, Record, Workload};

/// The strategy pairs whose curves are evaluated. FRF-2 × FRF-2 is one of
/// the two pairs with 281,349 joint blocks.
const PAIRS: [&str; 1] = ["facility/frf-2+frf-2"];

/// The k-line twin banks of the ladder.
const LADDER: [&str; 3] = ["facility/ded^2", "facility/ded^3", "facility/ded^4"];

/// Hours after the all-pumps disaster the recovery and cost curves cover
/// (21 points). Pumps take an hour to repair, so most of the recovery
/// happens inside it; the paper's Figs. 4–7 run to 4.5 and 10 hours, which
/// would leave a 25-second run room for a single pass.
const HORIZON: f64 = 2.0;

/// Product-form and joint availability must agree to this much, and the
/// joint vector's balance residual must stay below it.
const CERTIFICATE: f64 = 1e-9;

pub struct FacilityCurves {
    pairs: Vec<(String, FacilityModel)>,
    ladder: Vec<(String, FacilityModel)>,
}

/// Builds the facility models through the registry.
pub fn setup(_seed: u64, ctx: &Ctx<'_>) -> Result<Box<dyn Workload>, String> {
    let parse = |spec: &str| {
        ctx.tracer.layer(
            "registry",
            || spec.to_string(),
            |_| {
                let parsed = ModelSpec::parse(spec).map_err(err)?;
                let model = parsed
                    .facility_model()
                    .map_err(err)?
                    .ok_or_else(|| format!("`{spec}` is not a facility spec"))?;
                Ok::<_, String>((parsed.canonical(), model))
            },
        )
    };
    Ok(Box::new(FacilityCurves {
        pairs: PAIRS
            .iter()
            .map(|spec| parse(spec))
            .collect::<Result<_, _>>()?,
        ladder: LADDER
            .iter()
            .map(|spec| parse(spec))
            .collect::<Result<_, _>>()?,
    }))
}

/// Compiles the per-line groups of a facility (`product` layer).
fn build<'m>(
    spec: &str,
    model: &'m FacilityModel,
    ctx: &Ctx<'_>,
    rec: &mut Record,
) -> Option<FacilityAnalysis<'m>> {
    let analysis = rec.op("facility.build", || {
        ctx.tracer.layer(
            "product",
            || format!("build {spec}"),
            |c| {
                let options = ComposerOptions {
                    exec: ctx.exec,
                    ..ComposerOptions::default()
                };
                let analysis = FacilityAnalysis::with_options(model, options).map_err(err)?;
                let stats = analysis.stats();
                c.count("joint_blocks", stats.joint_blocks as f64);
                c.count("joint_transitions", stats.joint_transitions as f64);
                Ok(analysis)
            },
        )
    })?;
    let stats = analysis.stats();
    rec.tally("joint_blocks", stats.joint_blocks);
    rec.tally("joint_transitions", stats.joint_transitions);
    for line in &stats.lines {
        rec.tally("line_states", line.stats.num_states);
        rec.tally("line_blocks", line.stats.lumped_states.unwrap_or(0));
    }
    Some(analysis)
}

/// Product-form availability (`steady`: the per-group stationary solves).
fn product_form(
    spec: &str,
    analysis: &FacilityAnalysis<'_>,
    ctx: &Ctx<'_>,
    rec: &mut Record,
) -> Option<f64> {
    rec.op("facility.product_form", || {
        ctx.tracer.layer(
            "steady",
            || format!("product-form {spec}"),
            |_| analysis.steady_state_availability().map_err(err),
        )
    })
}

/// Matrix-free joint availability on the Kronecker-sum operator (`steady`),
/// checked against the product form and its balance certificate.
fn joint(
    spec: &str,
    analysis: &FacilityAnalysis<'_>,
    product_form: Option<f64>,
    ctx: &Ctx<'_>,
    rec: &mut Record,
) {
    let joint = rec.op("facility.joint", || {
        ctx.tracer.layer(
            "steady",
            || format!("joint {spec}"),
            |c| {
                let joint = analysis
                    .matrix_free_steady_state_availability()
                    .map_err(err)?;
                c.count("operator_applies", joint.iterations as f64);
                c.max("residual", joint.residual);
                Ok(joint)
            },
        )
    });
    let Some(joint) = joint else { return };
    rec.tally("operator_applies", joint.iterations);
    rec.check(joint.residual <= CERTIFICATE, || {
        format!(
            "{spec}: joint balance residual {:e} above {CERTIFICATE:e}",
            joint.residual
        )
    });
    if let Some(product_form) = product_form {
        let diff = (joint.availability - product_form).abs();
        rec.check(diff <= CERTIFICATE, || {
            format!("{spec}: product form and joint chain differ by {diff:e}")
        });
    }
}

impl Workload for FacilityCurves {
    /// The tables and figures come out as one batch, so a query is a pass.
    fn query_is_pass(&self) -> bool {
        true
    }

    fn pass(&mut self, _index: usize, ctx: &Ctx<'_>, rec: &mut Record) {
        let times = grids::step_grid(0.0, HORIZON, HORIZON / 20.0);
        for (spec, model) in &self.pairs {
            let Some(analysis) = build(spec, model, ctx, rec) else {
                continue;
            };
            let quotient = rec.op("facility.materialise", || {
                ctx.tracer.layer(
                    "product",
                    || format!("materialise {spec}"),
                    |_| analysis.compiled_quotient().map_err(err),
                )
            });
            let Some(quotient) = quotient else { continue };
            let states = quotient.num_states();
            drop(quotient);
            rec.tally("solved_blocks", states);

            let product = product_form(spec, &analysis, ctx, rec);
            joint(spec, &analysis, product, ctx, rec);

            for level in [1.0, service_levels::LINE1_X1] {
                curve(ctx, rec, Curve::Survivability, spec, states, || {
                    analysis.survivability_curve(FACILITY_DISASTER_ALL_PUMPS, level, &times)
                });
            }
            curve(ctx, rec, Curve::InstCost, spec, states, || {
                analysis.instantaneous_cost_curve(Some(FACILITY_DISASTER_ALL_PUMPS), &times)
            });
            curve(ctx, rec, Curve::AccCost, spec, states, || {
                analysis.accumulated_cost_curve(Some(FACILITY_DISASTER_ALL_PUMPS), &times)
            });
        }

        for (spec, model) in &self.ladder {
            let Some(analysis) = build(spec, model, ctx, rec) else {
                continue;
            };
            let stats = analysis.stats();
            let product = product_form(spec, &analysis, ctx, rec);
            if stats.joint_blocks <= MAX_OPERATOR_PRODUCT {
                joint(spec, &analysis, product, ctx, rec);
            }
            if stats.orbit_blocks.is_some() {
                let orbit = rec.op("facility.orbits", || {
                    ctx.tracer.layer(
                        "symmetry",
                        || format!("orbits {spec}"),
                        |c| {
                            let orbit = analysis
                                .orbit_availability(ORBIT_ENUMERATION_CAP)
                                .map_err(err)?;
                            c.count("orbits", orbit.orbits_explored as f64);
                            Ok(orbit)
                        },
                    )
                });
                if let Some(orbit) = orbit {
                    rec.tally("orbits", orbit.orbits_explored);
                    let mass = (orbit.total_mass - 1.0).abs();
                    rec.check(mass <= CERTIFICATE, || {
                        format!("{spec}: orbit mass off 1 by {mass:e}")
                    });
                    if let Some(product) = product {
                        let diff = (orbit.availability - product).abs();
                        rec.check(diff <= CERTIFICATE, || {
                            format!("{spec}: orbit enumeration and product form differ by {diff:e}")
                        });
                    }
                }
            }
        }
    }
}
