//! `paper-tables`: Table 1, Table 2 and Figs. 3–11 of the paper.
//!
//! Table 1 composes the ten line × strategy chains flat and lumps them
//! (`composer` then `lumping`); the flat chains' `Exact` quotients are solved
//! for the reference availability. Table 2 and the figures run on the
//! compositional quotients. The workload has no random input: every seed
//! runs the same calls.

use std::collections::BTreeMap;

use arcade_core::{
    Analysis, CompiledModel, CompiledQuotient, ComposerOptions, LumpingMode, QuotientParts,
};
use watertreatment::combined_availability;
use watertreatment::experiments::{grids, service_levels, table2_paper_reference};
use watertreatment::facility::{DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED};

use crate::workload::{curve, err, registry_line, Ctx, Curve, LineEntry, Record, Workload};

/// The paper's five strategies, in Table 1/2 row order.
const STRATEGIES: [&str; 5] = ["ded", "frf-1", "frf-2", "fff-1", "fff-2"];

/// Availabilities must agree between the compositional and the flat `Exact`
/// pipeline to this much.
const EXACT_TOLERANCE: f64 = 1e-9;

pub struct PaperTables {
    /// `line1/<s>` then `line2/<s>` for every strategy of [`STRATEGIES`].
    cells: Vec<LineEntry>,
}

/// Builds the ten line models through the registry.
pub fn setup(_seed: u64, ctx: &Ctx<'_>) -> Result<Box<dyn Workload>, String> {
    let mut cells = Vec::new();
    for line in ["line1", "line2"] {
        for strategy in STRATEGIES {
            cells.push(registry_line(ctx, &format!("{line}/{strategy}"))?);
        }
    }
    Ok(Box::new(PaperTables { cells }))
}

fn is_line1(cell: &LineEntry) -> bool {
    cell.spec.starts_with("line1/")
}

fn strategy_of(cell: &LineEntry) -> &str {
    cell.spec.split('/').nth(1).unwrap_or("")
}

impl PaperTables {
    /// Table 1 for one cell: flat composition, exact lumping, and the
    /// stationary solve of the `Exact` quotient. Returns its availability.
    fn table1_cell(&self, cell: &LineEntry, ctx: &Ctx<'_>, rec: &mut Record) -> Option<f64> {
        let tracer = ctx.tracer;
        let spec = &cell.spec;
        let flat = rec.op("table1.compose", || {
            tracer.layer(
                "composer",
                || format!("{spec} flat"),
                |c| {
                    let options = ComposerOptions {
                        lumping: LumpingMode::Disabled,
                        exec: ctx.exec,
                        ..ComposerOptions::default()
                    };
                    let flat = CompiledModel::compile_with(&cell.model, options).map_err(err)?;
                    c.count("states", flat.chain().num_states() as f64);
                    c.count("transitions", flat.chain().num_transitions() as f64);
                    Ok(flat)
                },
            )
        })?;
        rec.tally("flat_states", flat.chain().num_states());
        rec.tally("flat_transitions", flat.chain().num_transitions());

        let lumped = rec.op("table1.lump", || {
            tracer.layer(
                "lumping",
                || format!("{spec} exact"),
                |c| {
                    let lumped = flat.lump().map_err(err)?;
                    c.count("states", flat.chain().num_states() as f64);
                    c.count("blocks", lumped.num_blocks() as f64);
                    Ok(lumped)
                },
            )
        })?;
        rec.tally("exact_blocks", lumped.num_blocks());
        rec.tally(
            "exact_block_transitions",
            lumped.quotient().num_transitions(),
        );

        let (availability, iterations) = rec.op("table1.solve", || {
            tracer.layer(
                "steady",
                || format!("{spec} exact"),
                |c| {
                    let quotient = CompiledQuotient::from_parts(QuotientParts {
                        name: spec.clone(),
                        chain: lumped.quotient().clone(),
                        operational: lumped.operational_mask().to_vec(),
                        service: lumped.service_levels().to_vec(),
                        cost: lumped.cost_rewards().clone(),
                        initial: lumped.lumping().block_of(flat.initial_index()),
                        disaster_starts: BTreeMap::new(),
                        source_states: flat.chain().num_states(),
                    })
                    .map_err(err)?;
                    let (pi, iterations) =
                        quotient.stationary_counted(None, ctx.exec).map_err(err)?;
                    c.count("iterations", iterations as f64);
                    Ok((quotient.availability_of(&pi), iterations))
                },
            )
        })?;
        rec.tally("solve_iterations", iterations);
        Some(availability)
    }

    /// Table 2 for one cell: compositional compilation plus the stationary
    /// solve. Returns the compiled model, its quotient and the availability.
    fn table2_cell(
        &self,
        cell: &LineEntry,
        ctx: &Ctx<'_>,
        rec: &mut Record,
    ) -> Option<(CompiledModel, CompiledQuotient, f64)> {
        let tracer = ctx.tracer;
        let spec = &cell.spec;
        let (compiled, quotient) = rec.op("table2.compile", || {
            tracer.layer(
                "composer",
                || format!("{spec} compositional"),
                |c| {
                    let options = ComposerOptions {
                        exec: ctx.exec,
                        ..ComposerOptions::default()
                    };
                    let compiled =
                        CompiledModel::compile_with(&cell.model, options).map_err(err)?;
                    let quotient =
                        CompiledQuotient::of_compiled(&cell.model, &compiled).map_err(err)?;
                    c.count("states", compiled.chain().num_states() as f64);
                    c.count("transitions", compiled.chain().num_transitions() as f64);
                    Ok((compiled, quotient))
                },
            )
        })?;
        rec.tally("canonical_states", compiled.chain().num_states());
        rec.tally("canonical_transitions", compiled.chain().num_transitions());
        rec.tally("blocks", quotient.num_states());

        let (availability, iterations) = rec.op("table2.solve", || {
            tracer.layer(
                "steady",
                || format!("{spec} compositional"),
                |c| {
                    let (pi, iterations) =
                        quotient.stationary_counted(None, ctx.exec).map_err(err)?;
                    c.count("iterations", iterations as f64);
                    Ok((quotient.availability_of(&pi), iterations))
                },
            )
        })?;
        rec.tally("solve_iterations", iterations);
        Some((compiled, quotient, availability))
    }
}

impl Workload for PaperTables {
    /// The tables and figures come out as one batch, so a query is a pass.
    fn query_is_pass(&self) -> bool {
        true
    }

    fn pass(&mut self, _index: usize, ctx: &Ctx<'_>, rec: &mut Record) {
        // Table 1 (flat + Exact), one cell at a time so the flat chain is
        // freed before the next one is composed.
        let exact: Vec<Option<f64>> = self
            .cells
            .iter()
            .map(|cell| self.table1_cell(cell, ctx, rec))
            .collect();

        // Table 2 on the compositional quotients.
        let mut compiled = Vec::new();
        for (cell, exact) in self.cells.iter().zip(exact) {
            let result = self.table2_cell(cell, ctx, rec);
            if let (Some((_, _, availability)), Some(exact)) = (&result, exact) {
                rec.check((availability - exact).abs() <= EXACT_TOLERANCE, || {
                    format!(
                        "{}: compositional {availability} vs Exact {exact} differ by more than \
                         {EXACT_TOLERANCE:e}",
                        cell.spec
                    )
                });
            }
            compiled.push(result);
        }

        // The DED row of Table 2 matches the paper to 7 digits.
        let ded = |line1: bool| {
            self.cells
                .iter()
                .zip(compiled.iter())
                .find(|(cell, _)| is_line1(cell) == line1 && strategy_of(cell) == "ded")
                .and_then(|(_, result)| result.as_ref().map(|r| r.2))
        };
        if let (Some(a1), Some(a2)) = (ded(true), ded(false)) {
            let paper = &table2_paper_reference()[0];
            for (what, ours, theirs) in [
                ("line 1", a1, paper.line1),
                ("line 2", a2, paper.line2),
                ("combined", combined_availability(a1, a2), paper.combined),
            ] {
                rec.check(format!("{ours:.7}") == format!("{theirs:.7}"), || {
                    format!("Table 2 DED {what}: {ours:.7} vs the paper's {theirs:.7}")
                });
            }
        }

        // Figures 3–11 on the compiled quotients.
        let times3 = grids::fig3();
        let times4 = grids::fig4_to_6();
        let times7 = grids::fig7();
        let times8 = grids::fig8_9();
        let times10 = grids::fig10_11();
        for (cell, result) in self.cells.iter().zip(compiled) {
            let Some((compiled, quotient, _)) = result else {
                continue;
            };
            let spec = cell.spec.as_str();
            let states = quotient.num_states();
            let strategy = strategy_of(cell);
            let disaster1 = matches!(strategy, "ded" | "frf-1" | "frf-2");
            if strategy == "ded" {
                let analysis = Analysis::from_compiled(&cell.model, compiled);
                curve(ctx, rec, Curve::Reliability, spec, states, || {
                    analysis.reliability_curve(&times3)
                });
            }
            if is_line1(cell) && disaster1 {
                for level in [service_levels::LINE1_X1, service_levels::LINE1_X2] {
                    curve(ctx, rec, Curve::Survivability, spec, states, || {
                        quotient.survivability_curve(DISASTER_ALL_PUMPS, level, &times4, ctx.exec)
                    });
                }
                curve(ctx, rec, Curve::InstCost, spec, states, || {
                    quotient.instantaneous_cost_curve(Some(DISASTER_ALL_PUMPS), &times4, ctx.exec)
                });
                curve(ctx, rec, Curve::AccCost, spec, states, || {
                    quotient.accumulated_cost_curve(Some(DISASTER_ALL_PUMPS), &times7, ctx.exec)
                });
            }
            if !is_line1(cell) {
                for level in [service_levels::LINE2_X1, service_levels::LINE2_X3] {
                    curve(ctx, rec, Curve::Survivability, spec, states, || {
                        quotient.survivability_curve(DISASTER_LINE2_MIXED, level, &times8, ctx.exec)
                    });
                }
                if strategy != "ded" {
                    curve(ctx, rec, Curve::InstCost, spec, states, || {
                        quotient.instantaneous_cost_curve(
                            Some(DISASTER_LINE2_MIXED),
                            &times10,
                            ctx.exec,
                        )
                    });
                    curve(ctx, rec, Curve::AccCost, spec, states, || {
                        quotient.accumulated_cost_curve(
                            Some(DISASTER_LINE2_MIXED),
                            &times10,
                            ctx.exec,
                        )
                    });
                }
            }
        }
    }
}
