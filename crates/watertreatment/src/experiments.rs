//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function reproduces one table or one pair of figures from the
//! evaluation section of the DSN 2010 paper. The functions return structured
//! data (rows or named series) so that the benchmark harness, the
//! `wt-experiments` binary and the integration tests can all share them; the
//! [`format_table1`]-style helpers render the same data as plain-text tables
//! comparable to the paper.

use arcade_core::{
    Analysis, ArcadeError, CompiledModel, ComposerOptions, ExecOptions, FacilityAnalysis,
    LumpingMode, Series,
};
use ctmc::exec;
use serde::{Deserialize, Serialize};

use crate::facility::{
    self, Line, LineSpec, DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED, FACILITY_DISASTER_ALL_PUMPS,
};
use crate::registry::ModelSpec;
use crate::strategies;
use crate::StrategySpec;

/// One row of Table 1 (state-space sizes per repair strategy and line),
/// extended with the post-lumping quotient sizes of this reproduction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Row {
    /// The process line.
    pub line: Line,
    /// Strategy label (`DED`, `FRF-1`, ...).
    pub strategy: String,
    /// Number of reachable states.
    pub states: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of blocks after exact lumping (`None` in the paper reference,
    /// which reports flat sizes only).
    pub lumped_states: Option<usize>,
    /// Number of quotient transitions after exact lumping.
    pub lumped_transitions: Option<usize>,
}

/// One row of Table 2 (steady-state availability per repair strategy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Strategy label (`DED`, `FRF-1`, ...).
    pub strategy: String,
    /// Availability of Line 1.
    pub line1: f64,
    /// Availability of Line 2.
    pub line2: f64,
    /// Availability of the overall facility (`A1 + A2 - A1*A2`).
    pub combined: f64,
}

/// One row of the two-line facility table: the combined-availability formula
/// `A = A1 + A2 − A1·A2` validated against the genuine Line 1 × Line 2 joint
/// chain for one pair of repair strategies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableFacilityRow {
    /// Strategy-pair label, e.g. `FRF-1×FRF-1`.
    pub pair: String,
    /// Availability of Line 1 (solved on its quotient).
    pub line1: f64,
    /// Availability of Line 2 (solved on its quotient).
    pub line2: f64,
    /// Combined availability via the product form `A1 + A2 − A1·A2`.
    pub combined: f64,
    /// Combined availability solved on the materialised joint chain.
    pub joint: f64,
    /// `|combined − joint|`, the validation gap (≤ 1e-9 expected).
    pub difference: f64,
    /// Number of joint product blocks (`449 × 257` for FRF-1 × FRF-1).
    pub joint_blocks: usize,
    /// Number of states the joint solve actually ran on: the sorted-tuple
    /// orbit quotient when the two lines' chains are interchangeable, the
    /// full product otherwise (always the latter for the paper's asymmetric
    /// Line 1 × Line 2 pairs).
    #[serde(default)]
    pub solved_blocks: usize,
    /// Matrix-free balance residual certifying the joint stationary vector.
    pub residual: f64,
    /// The solver tier that produced the joint column: `krylov-operator`, or
    /// `jacobi-operator` when the Krylov iteration stalled.
    #[serde(default)]
    pub solver_tier: String,
    /// Operator applies of the joint solve.
    #[serde(default)]
    pub iterations: usize,
}

/// One row of the symmetry-reduction report (`wt-experiments facility
/// --symmetric-only`): the reduction ladder of a facility's joint chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetryReductionRow {
    /// Facility label (`DED×DED` or `twin(line2, DED)`).
    pub facility: String,
    /// Raw product states.
    pub product_blocks: usize,
    /// Sorted-tuple orbit representatives (`None` without factor symmetry).
    pub orbit_blocks: Option<usize>,
    /// States the joint measures solve on.
    pub solver_blocks: usize,
    /// Blocks of the exact facility-label quotient of the solver chain —
    /// the minimality certificate (`== solver_blocks` means no further
    /// sound reduction exists).
    pub exact_blocks: usize,
}

impl SymmetryReductionRow {
    /// The orbit-reduction factor `product / solver` (1.0 without symmetry).
    pub fn reduction_factor(&self) -> f64 {
        self.product_blocks as f64 / self.solver_blocks as f64
    }
}

/// One row of the **k-line reduction ladder** (`wt-experiments facility
/// --k ...` / `--lines ...`): for one facility spec, the three rungs of the
/// state-space ladder — flat product, per-line quotient product, sorted-tuple
/// orbit fold — together with the availability and the evaluation tier that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KLineReductionRow {
    /// Number of process lines.
    pub k: usize,
    /// Canonical registry spec (`facility/ded^4`).
    pub facility: String,
    /// Flat rung: the product of the per-line *unlumped* state spaces
    /// (512 per DED twin line), saturating.
    pub flat_states: usize,
    /// Product rung: the product of the per-line quotient sizes (96 per DED
    /// twin line), saturating.
    pub product_blocks: usize,
    /// Orbit rung: sorted-tuple orbit representatives under factor symmetry
    /// (`C(n + k − 1, k)` for k identical lines of n blocks), `None` when no
    /// two lines are interchangeable.
    pub orbit_blocks: Option<usize>,
    /// States the joint availability was actually computed on: the
    /// materialised solver chain (joint-solve tier) or the enumerated orbit
    /// representatives (orbit-enumeration tier); `None` in the counts-only
    /// product-form tier.
    pub solved_blocks: Option<usize>,
    /// Facility availability via the product form `1 − Π P(line down)` —
    /// always computed, never materialises anything.
    pub availability: f64,
    /// Availability from the joint chain or the orbit enumeration, `None` in
    /// the product-form tier.
    pub joint_availability: Option<f64>,
    /// The tier's certificate: the Kronecker-sum balance residual
    /// (joint-solve) or `|total mass − 1|` (orbit-enumeration).
    pub certificate: Option<f64>,
    /// Which tier evaluated the row: `joint-solve`, `orbit-enumeration` or
    /// `product-form`.
    pub tier: String,
    /// The solver tier the joint-solve tier actually ran: `krylov-operator`,
    /// or `jacobi-operator` when the Krylov iteration stalled; `None` outside
    /// the joint-solve tier.
    #[serde(default)]
    pub solver: Option<String>,
    /// Operator applies the joint solve spent; `None` outside the
    /// joint-solve tier.
    #[serde(default)]
    pub iterations: Option<usize>,
}

/// Largest orbit bound the enumeration tier of the k-sweep walks
/// (`facility/ded^4` needs 3,764,376 visits and fits; `ded^8` at
/// `C(103, 8) ≈ 3.2 × 10¹¹` falls back to the counts-only product form).
pub const ORBIT_ENUMERATION_CAP: usize = 8_000_000;

/// Largest per-line quotient product the **matrix-free** joint-solve tier
/// accepts. The operator solver holds a handful of product-length vectors
/// instead of the product's transition matrix, so its ceiling sits well above
/// [`ModelSpec::MAX_MATERIALISED_PRODUCT`] (1.5M): everything up to 8M joint
/// states is solved exactly on the Kronecker-sum operator without
/// materialising a single joint transition.
pub const MAX_OPERATOR_PRODUCT: usize = 8_000_000;

/// A reproduced figure: a set of named `(time, value)` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier matching the paper (`fig3`, `fig4`, ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, one per repair strategy (or per line for Fig. 3).
    pub series: Vec<Series>,
}

/// The service level thresholds of the paper's service intervals.
pub mod service_levels {
    /// Line 1, interval X1 = [1/3, 2/3).
    pub const LINE1_X1: f64 = 1.0 / 3.0;
    /// Line 1, interval X2 = [2/3, 1).
    pub const LINE1_X2: f64 = 2.0 / 3.0;
    /// Line 1, interval X3 = [1, 1].
    pub const LINE1_X3: f64 = 1.0;
    /// Line 2, interval X1 = [1/3, 1/2).
    pub const LINE2_X1: f64 = 1.0 / 3.0;
    /// Line 2, interval X2 = [1/2, 2/3).
    pub const LINE2_X2: f64 = 0.5;
    /// Line 2, interval X3 = [2/3, 1).
    pub const LINE2_X3: f64 = 2.0 / 3.0;
    /// Line 2, interval X4 = [1, 1].
    pub const LINE2_X4: f64 = 1.0;
}

/// Default time grids matching the x-ranges of the paper's figures.
pub mod grids {
    /// Fig. 3: reliability over `[0, 1000]` hours.
    pub fn fig3() -> Vec<f64> {
        step_grid(0.0, 1000.0, 25.0)
    }

    /// Figs. 4–6: survivability / instantaneous cost over `[0, 4.5]` hours.
    pub fn fig4_to_6() -> Vec<f64> {
        step_grid(0.0, 4.5, 0.15)
    }

    /// Fig. 7: accumulated cost over `[0, 10]` hours.
    pub fn fig7() -> Vec<f64> {
        step_grid(0.0, 10.0, 0.25)
    }

    /// Figs. 8–9: survivability over `[0, 100]` hours.
    pub fn fig8_9() -> Vec<f64> {
        step_grid(0.0, 100.0, 2.5)
    }

    /// Figs. 10–11: costs over `[0, 50]` hours.
    pub fn fig10_11() -> Vec<f64> {
        step_grid(0.0, 50.0, 1.25)
    }

    /// An inclusive arithmetic grid `start, start+step, ..., end`.
    pub fn step_grid(start: f64, end: f64, step: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = start;
        while t <= end + 1e-9 {
            out.push(t.min(end));
            t += step;
        }
        out
    }
}

/// Composer options carrying an explicit worker pool (everything else at its
/// default).
fn composer_options(exec: ExecOptions) -> ComposerOptions {
    ComposerOptions {
        exec,
        ..ComposerOptions::default()
    }
}

/// Runs one independent experiment task per strategy spec on the worker pool
/// and returns the outcomes in spec order (kept deterministic by in-order
/// reassembly). The per-task `exec` budget is forwarded to the solvers inside
/// each task; composition is serial.
fn sweep_strategies<R: Send>(
    specs: &[StrategySpec],
    exec: ExecOptions,
    task: impl Fn(&StrategySpec) -> Result<R, ArcadeError> + Sync,
) -> Result<Vec<R>, ArcadeError> {
    exec::map_ordered(specs, exec, |spec| task(spec))
        .into_iter()
        .collect()
}

/// Reproduces **Table 1**: state-space sizes for every strategy and both lines.
///
/// The flat product sizes are what the paper's Table 1 reports, so this
/// experiment explicitly materialises the flat chain with
/// [`LumpingMode::Exact`]; the default analysis pipeline composes the
/// per-family sub-chain quotients instead and never visits these state counts
/// (see [`table1_compositional`]).
///
/// The dedicated rows match the paper (`2^n` states) and FRF and FFF blow
/// the state space up, but the queueing counts do not yet match the paper.
/// The paper's FRF/FFF state counts do not depend on the crew count; ours do
/// (Line 1 FRF-1 has 111,809 states, FRF-2 has 178,606, the paper reports
/// 111,809 for both), and every queueing transition count differs. Keeping
/// the queue in arrival order is not the answer: under
/// [`arcade_core::QueueDiscipline::ArrivalOrder`] flat Line 2 FRF-1 has
/// 986,410 states against the paper's 8,129, and under
/// [`arcade_core::QueueDiscipline::Preemptive`] it has 512. Reconciling the
/// repair-queue semantics is the open paper fidelity item on the ROADMAP.
///
/// # Errors
///
/// Propagates composition errors.
pub fn table1() -> Result<Vec<Table1Row>, ArcadeError> {
    table1_with(ExecOptions::default())
}

/// [`table1`] on an explicit worker pool: one flat composition per
/// (line, strategy) cell, swept across workers; each composition is serial.
///
/// # Errors
///
/// Propagates composition errors.
pub fn table1_with(exec: ExecOptions) -> Result<Vec<Table1Row>, ArcadeError> {
    table1_rows(exec, LumpingMode::Exact)
}

/// Table 1 under the default compositional pipeline: the states column counts
/// the canonical representatives actually explored (the composed per-family
/// quotients), the lumped column the blocks after the final exact pass.
///
/// # Errors
///
/// Propagates composition errors.
pub fn table1_compositional() -> Result<Vec<Table1Row>, ArcadeError> {
    table1_rows(ExecOptions::default(), LumpingMode::Compositional)
}

/// [`table1`] restricted to a selection of lines (the CLI `--line` flag).
///
/// # Errors
///
/// Propagates composition errors.
pub fn table1_lines_with(lines: &[Line], exec: ExecOptions) -> Result<Vec<Table1Row>, ArcadeError> {
    table1_rows_for(lines, exec, LumpingMode::Exact)
}

/// Shared Table 1 runner: one composition per (line, strategy) cell under the
/// given lumping mode, cells swept across the worker pool per line.
fn table1_rows(exec: ExecOptions, lumping: LumpingMode) -> Result<Vec<Table1Row>, ArcadeError> {
    table1_rows_for(&Line::both(), exec, lumping)
}

/// [`table1_rows`] over an explicit line selection.
fn table1_rows_for(
    lines: &[Line],
    exec: ExecOptions,
    lumping: LumpingMode,
) -> Result<Vec<Table1Row>, ArcadeError> {
    let mut rows = Vec::new();
    for &line in lines {
        let line_rows = sweep_strategies(&strategies::paper_strategies(), exec, |spec| {
            let model = facility::line_model(line, spec)?;
            let compiled = CompiledModel::compile_with(
                &model,
                ComposerOptions {
                    lumping,
                    ..composer_options(exec)
                },
            )?;
            let stats = compiled.stats();
            Ok(Table1Row {
                line,
                strategy: spec.label.clone(),
                states: stats.num_states,
                transitions: stats.num_transitions,
                lumped_states: stats.lumped_states,
                lumped_transitions: stats.lumped_transitions,
            })
        })?;
        rows.extend(line_rows);
    }
    Ok(rows)
}

/// The numbers reported in the paper's Table 1, for comparison in
/// `EXPERIMENTS.md`.
pub fn table1_paper_reference() -> Vec<Table1Row> {
    let data = [
        (Line::Line1, "DED", 2048, 22528),
        (Line::Line1, "FRF-1", 111_809, 388_478),
        (Line::Line1, "FRF-2", 111_809, 500_275),
        (Line::Line1, "FFF-1", 111_809, 367_106),
        (Line::Line1, "FFF-2", 111_809, 478_903),
        (Line::Line2, "DED", 512, 4606),
        (Line::Line2, "FRF-1", 8129, 25_838),
        (Line::Line2, "FRF-2", 8129, 33_957),
        (Line::Line2, "FFF-1", 8129, 23_354),
        (Line::Line2, "FFF-2", 8129, 31_473),
    ];
    data.iter()
        .map(|&(line, strategy, states, transitions)| Table1Row {
            line,
            strategy: strategy.to_string(),
            states,
            transitions,
            lumped_states: None,
            lumped_transitions: None,
        })
        .collect()
}

/// Reproduces **Table 2**: steady-state availability per repair strategy for
/// both lines and the combined facility.
///
/// # Errors
///
/// Propagates composition and steady-state solver errors.
pub fn table2() -> Result<Vec<Table2Row>, ArcadeError> {
    table2_with(ExecOptions::default())
}

/// [`table2`] on an explicit worker pool (one availability task per strategy).
///
/// # Errors
///
/// Propagates composition and steady-state solver errors.
pub fn table2_with(exec: ExecOptions) -> Result<Vec<Table2Row>, ArcadeError> {
    table2_lines_with(&Line::both(), exec)
}

/// [`table2`] restricted to a selection of lines (the CLI `--line` flag):
/// unselected line columns and — unless both lines are selected — the
/// combined column are reported as NaN and rendered as `-`.
///
/// # Errors
///
/// Propagates composition and steady-state solver errors.
pub fn table2_lines_with(lines: &[Line], exec: ExecOptions) -> Result<Vec<Table2Row>, ArcadeError> {
    sweep_strategies(&strategies::paper_strategies(), exec, |spec| {
        let mut availability = [f64::NAN; 2];
        for (i, line) in Line::both().into_iter().enumerate() {
            if !lines.contains(&line) {
                continue;
            }
            let model = facility::line_model(line, spec)?;
            let analysis = Analysis::with_options(&model, composer_options(exec))?;
            availability[i] = analysis.steady_state_availability()?;
        }
        let combined = if availability.iter().all(|a| a.is_finite()) {
            crate::combined_availability(availability[0], availability[1])
        } else {
            f64::NAN
        };
        Ok(Table2Row {
            strategy: spec.label.clone(),
            line1: availability[0],
            line2: availability[1],
            combined,
        })
    })
}

/// The numbers reported in the paper's Table 2.
pub fn table2_paper_reference() -> Vec<Table2Row> {
    let data = [
        ("DED", 0.7442018, 0.8186317, 0.9536063),
        ("FRF-1", 0.7225597, 0.8101931, 0.9473399),
        ("FRF-2", 0.7439214, 0.8186312, 0.9535554),
        ("FFF-1", 0.7273540, 0.8120302, 0.9487508),
        ("FFF-2", 0.7440022, 0.8186662, 0.9535790),
    ];
    data.iter()
        .map(|&(strategy, line1, line2, combined)| Table2Row {
            strategy: strategy.to_string(),
            line1,
            line2,
            combined,
        })
        .collect()
}

/// Reproduces **Fig. 3**: reliability of both lines over the mission time.
///
/// Reliability ignores repairs, so the dedicated model (smallest state space)
/// is used for both lines.
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig3_reliability(times: &[f64]) -> Result<Figure, ArcadeError> {
    fig3_reliability_with(times, ExecOptions::default())
}

/// [`fig3_reliability`] on an explicit worker pool (one curve per line).
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig3_reliability_with(times: &[f64], exec: ExecOptions) -> Result<Figure, ArcadeError> {
    fig3_reliability_lines_with(&Line::both(), times, exec)
}

/// [`fig3_reliability`] restricted to a selection of lines (the CLI `--line`
/// flag): one reliability curve per selected line.
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig3_reliability_lines_with(
    lines: &[Line],
    times: &[f64],
    exec: ExecOptions,
) -> Result<Figure, ArcadeError> {
    let series = exec::map_ordered(lines, exec, |&line| {
        let model = facility::line_model(line, &strategies::dedicated())?;
        let analysis = Analysis::with_options(&model, composer_options(exec))?;
        let points = analysis.reliability_curve(times)?;
        Ok::<Series, ArcadeError>(Series {
            label: format!(
                "Reliability {}",
                if line == Line::Line1 {
                    "line 1"
                } else {
                    "line 2"
                }
            ),
            points,
        })
    })
    .into_iter()
    .collect::<Result<Vec<Series>, ArcadeError>>()?;
    Ok(Figure {
        id: "fig3".to_string(),
        title: "Reliability over time".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Probability (S)".to_string(),
        series,
    })
}

/// Reproduces **Figs. 4 and 5**: survivability of Line 1 after Disaster 1
/// (all pumps failed), for recovery to service intervals X1 and X2.
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig4_5_survivability_line1(times: &[f64]) -> Result<(Figure, Figure), ArcadeError> {
    fig4_5_survivability_line1_with(times, ExecOptions::default())
}

/// [`fig4_5_survivability_line1`] on an explicit worker pool (one task per
/// strategy, each computing both service-level curves off one compilation).
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig4_5_survivability_line1_with(
    times: &[f64],
    exec: ExecOptions,
) -> Result<(Figure, Figure), ArcadeError> {
    let pairs = sweep_strategies(&strategies::disaster1_strategies(), exec, |spec| {
        let model = facility::line_model(Line::Line1, spec)?;
        let analysis = Analysis::with_options(&model, composer_options(exec))?;
        let disaster = model
            .disaster(DISASTER_ALL_PUMPS)
            .expect("disaster 1 is always defined");
        Ok((
            Series {
                label: spec.label.clone(),
                points: analysis.survivability_curve(disaster, service_levels::LINE1_X1, times)?,
            },
            Series {
                label: spec.label.clone(),
                points: analysis.survivability_curve(disaster, service_levels::LINE1_X2, times)?,
            },
        ))
    })?;
    let (x1_series, x2_series): (Vec<Series>, Vec<Series>) = pairs.into_iter().unzip();
    let fig4 = Figure {
        id: "fig4".to_string(),
        title: "Survivability Line 1, Disaster 1, X1".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Probability (S)".to_string(),
        series: x1_series,
    };
    let fig5 = Figure {
        id: "fig5".to_string(),
        title: "Survivability Line 1, Disaster 1, X2".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Probability (S)".to_string(),
        series: x2_series,
    };
    Ok((fig4, fig5))
}

/// Reproduces **Figs. 6 and 7**: instantaneous and accumulated repair cost of
/// Line 1 after Disaster 1.
///
/// # Errors
///
/// Propagates composition and reward solver errors.
pub fn fig6_7_cost_line1(
    instantaneous_times: &[f64],
    accumulated_times: &[f64],
) -> Result<(Figure, Figure), ArcadeError> {
    fig6_7_cost_line1_with(
        instantaneous_times,
        accumulated_times,
        ExecOptions::default(),
    )
}

/// [`fig6_7_cost_line1`] on an explicit worker pool (one task per strategy).
///
/// # Errors
///
/// Propagates composition and reward solver errors.
pub fn fig6_7_cost_line1_with(
    instantaneous_times: &[f64],
    accumulated_times: &[f64],
    exec: ExecOptions,
) -> Result<(Figure, Figure), ArcadeError> {
    let pairs = sweep_strategies(&strategies::disaster1_strategies(), exec, |spec| {
        let model = facility::line_model(Line::Line1, spec)?;
        let analysis = Analysis::with_options(&model, composer_options(exec))?;
        let disaster = model
            .disaster(DISASTER_ALL_PUMPS)
            .expect("disaster 1 is always defined");
        Ok((
            Series {
                label: spec.label.clone(),
                points: analysis.instantaneous_cost_curve(Some(disaster), instantaneous_times)?,
            },
            Series {
                label: spec.label.clone(),
                points: analysis.accumulated_cost_curve(Some(disaster), accumulated_times)?,
            },
        ))
    })?;
    let (inst_series, acc_series): (Vec<Series>, Vec<Series>) = pairs.into_iter().unzip();
    let fig6 = Figure {
        id: "fig6".to_string(),
        title: "Instantaneous cost Line 1, Disaster 1".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Impuls Costs (I)".to_string(),
        series: inst_series,
    };
    let fig7 = Figure {
        id: "fig7".to_string(),
        title: "Accumulated cost Line 1, Disaster 1".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Cumulative costs (I)".to_string(),
        series: acc_series,
    };
    Ok((fig6, fig7))
}

/// Reproduces **Figs. 8 and 9**: survivability of Line 2 after Disaster 2
/// (two pumps, one softener, one sand filter and the reservoir failed), for
/// recovery to service intervals X1 and X3.
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig8_9_survivability_line2(times: &[f64]) -> Result<(Figure, Figure), ArcadeError> {
    fig8_9_survivability_line2_with(times, ExecOptions::default())
}

/// [`fig8_9_survivability_line2`] on an explicit worker pool: the five
/// strategies are independent (compile + two survivability curves each), so
/// they sweep across workers while every curve is additionally batched over
/// a single Fox–Glynn pass. This is the multi-time-point survivability sweep
/// tracked by the `compositional_parallel` benchmark.
///
/// # Errors
///
/// Propagates composition and transient solver errors.
pub fn fig8_9_survivability_line2_with(
    times: &[f64],
    exec: ExecOptions,
) -> Result<(Figure, Figure), ArcadeError> {
    let pairs = sweep_strategies(&strategies::paper_strategies(), exec, |spec| {
        let model = facility::line_model(Line::Line2, spec)?;
        let analysis = Analysis::with_options(&model, composer_options(exec))?;
        let disaster = model
            .disaster(DISASTER_LINE2_MIXED)
            .expect("disaster 2 is defined for line 2");
        Ok((
            Series {
                label: spec.label.clone(),
                points: analysis.survivability_curve(disaster, service_levels::LINE2_X1, times)?,
            },
            Series {
                label: spec.label.clone(),
                points: analysis.survivability_curve(disaster, service_levels::LINE2_X3, times)?,
            },
        ))
    })?;
    let (x1_series, x3_series): (Vec<Series>, Vec<Series>) = pairs.into_iter().unzip();
    let fig8 = Figure {
        id: "fig8".to_string(),
        title: "Survivability Line 2, Disaster 2, X1".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Probability (S)".to_string(),
        series: x1_series,
    };
    let fig9 = Figure {
        id: "fig9".to_string(),
        title: "Survivability Line 2, Disaster 2, X3".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Probability (S)".to_string(),
        series: x3_series,
    };
    Ok((fig8, fig9))
}

/// Reproduces **Figs. 10 and 11**: instantaneous and accumulated repair cost of
/// Line 2 after Disaster 2 (the paper plots the four queueing strategies; the
/// dedicated strategy is included here as the reference it is described as).
///
/// # Errors
///
/// Propagates composition and reward solver errors.
pub fn fig10_11_cost_line2(times: &[f64]) -> Result<(Figure, Figure), ArcadeError> {
    fig10_11_cost_line2_with(times, ExecOptions::default())
}

/// [`fig10_11_cost_line2`] on an explicit worker pool (one task per strategy).
///
/// # Errors
///
/// Propagates composition and reward solver errors.
pub fn fig10_11_cost_line2_with(
    times: &[f64],
    exec: ExecOptions,
) -> Result<(Figure, Figure), ArcadeError> {
    let specs = [
        strategies::fff(1),
        strategies::fff(2),
        strategies::frf(1),
        strategies::frf(2),
    ];
    let pairs = sweep_strategies(&specs, exec, |spec| {
        let model = facility::line_model(Line::Line2, spec)?;
        let analysis = Analysis::with_options(&model, composer_options(exec))?;
        let disaster = model
            .disaster(DISASTER_LINE2_MIXED)
            .expect("disaster 2 is defined for line 2");
        Ok((
            Series {
                label: spec.label.clone(),
                points: analysis.instantaneous_cost_curve(Some(disaster), times)?,
            },
            Series {
                label: spec.label.clone(),
                points: analysis.accumulated_cost_curve(Some(disaster), times)?,
            },
        ))
    })?;
    let (inst_series, acc_series): (Vec<Series>, Vec<Series>) = pairs.into_iter().unzip();
    let fig10 = Figure {
        id: "fig10".to_string(),
        title: "Instantaneous cost Line 2, Disaster 2".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Impuls costs (I)".to_string(),
        series: inst_series,
    };
    let fig11 = Figure {
        id: "fig11".to_string(),
        title: "Accumulated cost Line 2, Disaster 2".to_string(),
        x_label: "t in hours".to_string(),
        y_label: "Cumulative costs (I)".to_string(),
        series: acc_series,
    };
    Ok((fig10, fig11))
}

/// The strategy pairs evaluated by the facility experiments: each paper
/// strategy paired with itself (Line 1 and Line 2 running the same repair
/// policy), matching the paper's per-strategy facility rows.
pub fn paired_strategies() -> Vec<(StrategySpec, StrategySpec)> {
    strategies::paper_strategies()
        .into_iter()
        .map(|spec| (spec.clone(), spec))
        .collect()
}

/// Label of a strategy pair (`DED×DED`, `FRF-1×FRF-1`, ...).
pub fn pair_label(pair: &(StrategySpec, StrategySpec)) -> String {
    format!("{}×{}", pair.0.label, pair.1.label)
}

/// Reproduces the **two-line facility table** for explicit strategy pairs:
/// for every pair, the per-line availabilities, the combined availability via
/// the paper's `A = A1 + A2 − A1·A2`, and the same quantity solved on the
/// **genuine joint chain** — the Line 1 × Line 2 product of the per-line
/// quotients (449 × 257 blocks for FRF-1 × FRF-1). The `difference` column
/// is the validation gap; the `residual` column is the matrix-free
/// Kronecker-sum balance certificate of the joint stationary vector. Pairs
/// are swept across the worker pool; [`paired_strategies`] lists the paper's.
///
/// # Errors
///
/// Propagates composition and solver errors.
pub fn table_facility_with(
    pairs: &[(StrategySpec, StrategySpec)],
    exec: ExecOptions,
) -> Result<Vec<TableFacilityRow>, ArcadeError> {
    exec::map_ordered(pairs, exec, |pair| {
        let model = facility::facility_model(&pair.0, &pair.1)?;
        let analysis = FacilityAnalysis::with_options(&model, composer_options(exec))?;
        facility_table_row(pair_label(pair), &analysis)
    })
    .into_iter()
    .collect()
}

/// The facility table row of one already-compiled analysis. The joint column
/// comes from the matrix-free operator solve — the `449 × 257` FRF-1 × FRF-1
/// product is never materialised.
fn facility_table_row(
    label: String,
    analysis: &FacilityAnalysis,
) -> Result<TableFacilityRow, ArcadeError> {
    let line1 = analysis.line_availability(0)?;
    let line2 = analysis.line_availability(1)?;
    let combined = analysis.steady_state_availability()?;
    let joint = analysis.matrix_free_steady_state_availability()?;
    Ok(TableFacilityRow {
        pair: label,
        line1,
        line2,
        combined,
        joint: joint.availability,
        difference: (combined - joint.availability).abs(),
        joint_blocks: joint.joint_states,
        solved_blocks: joint.solved_states,
        residual: joint.residual,
        solver_tier: joint.solver_tier,
        iterations: joint.iterations,
    })
}

/// Every figure and table of the facility evaluation, computed from **one
/// [`FacilityAnalysis`] per strategy pair**: the availability validation
/// table, both recovery figures and both cost figures share the compiled
/// per-line chains, the group stationary solves and the per-group artifacts
/// the product-form curves are solved on, instead of rebuilding them per
/// experiment. Only the table's joint column touches the joint chain, and
/// it never materialises it.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilitySuite {
    /// The combined-availability validation table.
    pub table: Vec<TableFacilityRow>,
    /// Recovery to full service after the all-pumps disaster.
    pub recovery_full: Figure,
    /// Recovery to basic service (X1) after the all-pumps disaster.
    pub recovery_basic: Figure,
    /// Instantaneous facility cost rate after the all-pumps disaster.
    pub cost_instantaneous: Figure,
    /// Accumulated facility cost after the all-pumps disaster.
    pub cost_accumulated: Figure,
}

/// Runs the whole facility evaluation on an explicit worker pool, one shared
/// [`FacilityAnalysis`] per strategy pair (see [`FacilitySuite`]).
///
/// # Errors
///
/// Propagates composition and solver errors.
pub fn facility_suite_with(
    pairs: &[(StrategySpec, StrategySpec)],
    recovery_times: &[f64],
    instantaneous_times: &[f64],
    accumulated_times: &[f64],
    exec: ExecOptions,
) -> Result<FacilitySuite, ArcadeError> {
    type PairOutput = (TableFacilityRow, (Series, Series), (Series, Series));
    let outputs: Vec<PairOutput> = exec::map_ordered(pairs, exec, |pair| {
        let model = facility::facility_model(&pair.0, &pair.1)?;
        let analysis = FacilityAnalysis::with_options(&model, composer_options(exec))?;
        let label = pair_label(pair);
        let row = facility_table_row(label.clone(), &analysis)?;
        let recovery = (
            Series {
                label: label.clone(),
                points: analysis.survivability_curve(
                    FACILITY_DISASTER_ALL_PUMPS,
                    1.0,
                    recovery_times,
                )?,
            },
            Series {
                label: label.clone(),
                points: analysis.survivability_curve(
                    FACILITY_DISASTER_ALL_PUMPS,
                    service_levels::LINE1_X1,
                    recovery_times,
                )?,
            },
        );
        let cost = (
            Series {
                label: label.clone(),
                points: analysis.instantaneous_cost_curve(
                    Some(FACILITY_DISASTER_ALL_PUMPS),
                    instantaneous_times,
                )?,
            },
            Series {
                label,
                points: analysis
                    .accumulated_cost_curve(Some(FACILITY_DISASTER_ALL_PUMPS), accumulated_times)?,
            },
        );
        Ok::<PairOutput, ArcadeError>((row, recovery, cost))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    let mut table = Vec::new();
    let (mut full, mut basic, mut inst, mut acc) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (row, (recovery_full, recovery_basic), (cost_inst, cost_acc)) in outputs {
        table.push(row);
        full.push(recovery_full);
        basic.push(recovery_basic);
        inst.push(cost_inst);
        acc.push(cost_acc);
    }
    Ok(FacilitySuite {
        table,
        recovery_full: Figure {
            id: "fig-facility-full".to_string(),
            title: "Facility recovery to full service, all pumps failed".to_string(),
            x_label: "t in hours".to_string(),
            y_label: "Probability (S)".to_string(),
            series: full,
        },
        recovery_basic: Figure {
            id: "fig-facility-basic".to_string(),
            title: "Facility recovery to basic service (X1), all pumps failed".to_string(),
            x_label: "t in hours".to_string(),
            y_label: "Probability (S)".to_string(),
            series: basic,
        },
        cost_instantaneous: Figure {
            id: "fig-facility-inst-cost".to_string(),
            title: "Instantaneous facility cost, all pumps failed".to_string(),
            x_label: "t in hours".to_string(),
            y_label: "Impuls Costs (I)".to_string(),
            series: inst,
        },
        cost_accumulated: Figure {
            id: "fig-facility-acc-cost".to_string(),
            title: "Accumulated facility cost, all pumps failed".to_string(),
            x_label: "t in hours".to_string(),
            y_label: "Cumulative costs (I)".to_string(),
            series: acc,
        },
    })
}

/// The symmetry-reduction report of the `--symmetric-only` sweep: for every
/// symmetric strategy pair, the reduction ladder of the paper's Line 1 ×
/// Line 2 facility (no cross-line symmetry — the certificate proves the
/// product minimal) followed by the twin-Line-2 facility, whose identical
/// line chains the orbit engine folds to `n(n+1)/2` sorted pairs.
///
/// # Errors
///
/// Propagates composition and lumping errors.
pub fn symmetry_reduction_table(
    exec: ExecOptions,
) -> Result<Vec<SymmetryReductionRow>, ArcadeError> {
    let specs = strategies::paper_strategies();
    let rows = exec::map_ordered(&specs, exec, |spec| {
        let reduction_of = |model: &arcade_core::FacilityModel,
                            label: String|
         -> Result<SymmetryReductionRow, ArcadeError> {
            let analysis = FacilityAnalysis::with_options(model, composer_options(exec))?;
            let reduction = analysis.joint_reduction()?;
            Ok(SymmetryReductionRow {
                facility: label,
                product_blocks: reduction.product_blocks,
                orbit_blocks: reduction.orbit_blocks,
                solver_blocks: reduction.solver_blocks,
                exact_blocks: reduction.exact_blocks,
            })
        };
        let paper = facility::facility_model(spec, spec)?;
        let twin = facility::twin_facility(Line::Line2, spec)?;
        Ok::<_, ArcadeError>(vec![
            reduction_of(&paper, format!("{}×{}", spec.label, spec.label))?,
            reduction_of(&twin, format!("twin(line2, {})", spec.label))?,
        ])
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(rows.into_iter().flatten().collect())
}

/// Renders symmetry-reduction rows as a plain-text table.
pub fn format_symmetry_reduction(rows: &[SymmetryReductionRow]) -> String {
    let mut out = String::from(
        "Facility             Product     Orbit       Solved      Exact-min   Reduction\n",
    );
    let or_dash = |value: Option<usize>| match value {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    };
    for row in rows {
        out.push_str(&format!(
            "{:<20} {:<11} {:<11} {:<11} {:<11} {:.2}x\n",
            row.facility,
            row.product_blocks,
            or_dash(row.orbit_blocks),
            row.solver_blocks,
            row.exact_blocks,
            row.reduction_factor(),
        ));
    }
    out
}

/// One row of the k-line reduction ladder: builds the facility the spec
/// names, reads the three rungs off the per-line quotients (no
/// materialisation), then evaluates the availability on the cheapest exact
/// tier that fits:
///
/// 1. **joint-solve** — the per-line quotient product is at most
///    [`MAX_OPERATOR_PRODUCT`]: solve the genuine joint chain matrix-free on
///    the Kronecker-sum operator (nothing materialised), certified by the
///    Kronecker-sum balance residual;
/// 2. **orbit-enumeration** — the product is too large but the orbit bound is
///    at most [`ORBIT_ENUMERATION_CAP`]: walk the canonical multisets lazily
///    under the stationary product measure
///    ([`FacilityAnalysis::orbit_availability`]), certified by the
///    accumulated total mass — the flat k-product is **never** materialised;
/// 3. **product-form** — counts only, availability from
///    `1 − Π P(line down)`.
///
/// # Errors
///
/// Rejects single-line specs; propagates composition and solver errors.
pub fn kline_reduction_row(
    spec: &ModelSpec,
    exec: ExecOptions,
) -> Result<KLineReductionRow, ArcadeError> {
    let line_specs = spec
        .line_specs()
        .ok_or_else(|| ArcadeError::InvalidParameter {
            reason: format!("`{spec}` is a single line, not a facility — the ladder needs k ≥ 2"),
        })?;
    let model = facility::facility_model_k_scaled(&line_specs, spec.rate_scale())?;
    let analysis = FacilityAnalysis::with_options(&model, composer_options(exec))?;
    let stats = analysis.stats();

    // Flat rung: what exploring every line without lumping would cost. Lines
    // of one spec (shape and strategy) have one flat chain, so each distinct
    // spec is composed once, and never lumped.
    let mut composed: Vec<(&LineSpec, usize)> = Vec::new();
    let mut flat_states = 1usize;
    for (line, line_spec) in model.lines().iter().zip(&line_specs) {
        let states = match composed.iter().find(|(seen, _)| *seen == line_spec) {
            Some(&(_, states)) => states,
            None => {
                let compiled = CompiledModel::compile_with(
                    line.model(),
                    ComposerOptions {
                        lumping: LumpingMode::Disabled,
                        ..composer_options(exec)
                    },
                )?;
                let states = compiled.stats().num_states;
                composed.push((line_spec, states));
                states
            }
        };
        flat_states = flat_states.saturating_mul(states);
    }

    let availability = analysis.steady_state_availability()?;
    let (tier, solved_blocks, joint_availability, certificate, solver, iterations) =
        if stats.joint_blocks <= MAX_OPERATOR_PRODUCT {
            let joint = analysis.matrix_free_steady_state_availability()?;
            (
                "joint-solve",
                Some(joint.solved_states),
                Some(joint.availability),
                Some(joint.residual),
                Some(joint.solver_tier),
                Some(joint.iterations),
            )
        } else if stats
            .orbit_blocks
            .is_some_and(|bound| bound <= ORBIT_ENUMERATION_CAP)
        {
            let orbit = analysis.orbit_availability(ORBIT_ENUMERATION_CAP)?;
            (
                "orbit-enumeration",
                Some(orbit.orbits_explored),
                Some(orbit.availability),
                Some((orbit.total_mass - 1.0).abs()),
                None,
                None,
            )
        } else {
            ("product-form", None, None, None, None, None)
        };
    Ok(KLineReductionRow {
        k: model.lines().len(),
        facility: spec.canonical(),
        flat_states,
        product_blocks: stats.joint_blocks,
        orbit_blocks: stats.orbit_blocks,
        solved_blocks,
        availability,
        joint_availability,
        certificate,
        tier: tier.to_string(),
        solver,
        iterations,
    })
}

/// The k-line reduction ladder for a list of facility specs, one row per
/// spec, swept across the worker pool in spec order.
///
/// # Errors
///
/// Propagates per-row errors (see [`kline_reduction_row`]).
pub fn kline_reduction_table(
    specs: &[ModelSpec],
    exec: ExecOptions,
) -> Result<Vec<KLineReductionRow>, ArcadeError> {
    exec::map_ordered(specs, exec, |spec| kline_reduction_row(spec, exec))
        .into_iter()
        .collect()
}

/// Renders k-line reduction rows as a plain-text table.
pub fn format_kline_reduction(rows: &[KLineReductionRow]) -> String {
    let count = |value: usize| {
        if value == usize::MAX {
            ">1.8e19".to_string()
        } else {
            value.to_string()
        }
    };
    let opt_count = |value: Option<usize>| value.map_or("-".to_string(), count);
    let opt_avail = |value: Option<f64>| value.map_or("-".to_string(), |v| format!("{v:.7}"));
    let opt_cert = |value: Option<f64>| value.map_or("-".to_string(), |v| format!("{v:.2e}"));
    let opt_text =
        |value: Option<&str>| value.map_or("-".to_string(), std::string::ToString::to_string);
    let mut out = String::from(
        "k  Facility              Flat            Product         Orbit        \
         Solved       A(product)  A(joint)    Certificate  Tier              \
         Solver           Iters\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<2} {:<21} {:<15} {:<15} {:<12} {:<12} {:<11.7} {:<11} {:<12} {:<17} {:<16} {}\n",
            row.k,
            row.facility,
            count(row.flat_states),
            count(row.product_blocks),
            opt_count(row.orbit_blocks),
            opt_count(row.solved_blocks),
            row.availability,
            opt_avail(row.joint_availability),
            opt_cert(row.certificate),
            row.tier,
            opt_text(row.solver.as_deref()),
            opt_count(row.iterations),
        ));
    }
    out
}

/// Renders facility table rows as a plain-text table.
pub fn format_table_facility(rows: &[TableFacilityRow]) -> String {
    let mut out = String::from(
        "Pair           Line 1      Line 2      A1+A2-A1A2  Joint chain  |diff|     \
         Blocks      Solved      Residual  Solver           Iters\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<11.7} {:<11.7} {:<11.7} {:<12.7} {:<10.2e} {:<11} {:<11} {:<9.2e} {:<16} {}\n",
            row.pair,
            row.line1,
            row.line2,
            row.combined,
            row.joint,
            row.difference,
            row.joint_blocks,
            row.solved_blocks,
            row.residual,
            row.solver_tier,
            row.iterations,
        ));
    }
    out
}

/// Renders Table 1 rows as a plain-text table. The lumped columns show the
/// quotient sizes after exact lumping (`-` where not computed, e.g. in the
/// paper-reference rows).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("Line    Strategy  States      Transitions  Lumped      Lumped-Trans\n");
    let or_dash = |value: Option<usize>| match value {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    };
    for row in rows {
        out.push_str(&format!(
            "{:<7} {:<9} {:<11} {:<12} {:<11} {}\n",
            row.line.id(),
            row.strategy,
            row.states,
            row.transitions,
            or_dash(row.lumped_states),
            or_dash(row.lumped_transitions),
        ));
    }
    out
}

/// Renders Table 2 rows as a plain-text table. Columns of lines excluded by
/// the `--line` selection (NaN) are rendered as `-`.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let or_dash = |value: f64| {
        if value.is_finite() {
            format!("{value:<11.7}")
        } else {
            format!("{:<11}", "-")
        }
    };
    let mut out = String::from("Strategy  Line 1      Line 2      Combined\n");
    for row in rows {
        out.push_str(&format!(
            "{:<9} {} {} {}\n",
            row.strategy,
            or_dash(row.line1),
            or_dash(row.line2),
            or_dash(row.combined).trim_end()
        ));
    }
    out
}

/// Renders a figure as a plain-text data table (one column per series), the
/// same numbers the paper plots.
pub fn format_figure(figure: &Figure) -> String {
    let mut out = format!("# {} — {}\n", figure.id, figure.title);
    out.push_str(&format!("# x: {}, y: {}\n", figure.x_label, figure.y_label));
    out.push('t');
    for series in &figure.series {
        out.push_str(&format!("\t{}", series.label));
    }
    out.push('\n');
    if let Some(first) = figure.series.first() {
        for (i, (t, _)) in first.points.iter().enumerate() {
            out.push_str(&format!("{t:.3}"));
            for series in &figure.series {
                out.push_str(&format!("\t{:.6}", series.points[i].1));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_paper_ranges() {
        let g = grids::fig3();
        assert_eq!(g.first().copied(), Some(0.0));
        assert!((g.last().copied().unwrap() - 1000.0).abs() < 1e-9);
        let g = grids::fig4_to_6();
        assert!((g.last().copied().unwrap() - 4.5).abs() < 1e-9);
        let g = grids::fig7();
        assert!((g.last().copied().unwrap() - 10.0).abs() < 1e-9);
        let g = grids::fig8_9();
        assert!((g.last().copied().unwrap() - 100.0).abs() < 1e-9);
        let g = grids::fig10_11();
        assert!((g.last().copied().unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(grids::step_grid(0.0, 1.0, 0.5), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn paper_reference_tables_are_complete() {
        assert_eq!(table1_paper_reference().len(), 10);
        assert_eq!(table2_paper_reference().len(), 5);
        let ded = &table2_paper_reference()[0];
        assert_eq!(ded.strategy, "DED");
        assert!((ded.combined - 0.9536063).abs() < 1e-7);
    }

    #[test]
    fn formatting_contains_all_rows_and_series() {
        let rows = table1_paper_reference();
        let text = format_table1(&rows);
        assert!(text.contains("FRF-2"));
        assert!(text.contains("111809"));
        let rows = table2_paper_reference();
        let text = format_table2(&rows);
        assert!(text.contains("0.7442018"));
        let figure = Figure {
            id: "figX".into(),
            title: "demo".into(),
            x_label: "t".into(),
            y_label: "p".into(),
            series: vec![Series {
                label: "DED".into(),
                points: vec![(0.0, 1.0), (1.0, 0.5)],
            }],
        };
        let text = format_figure(&figure);
        assert!(text.contains("figX"));
        assert!(text.contains("DED"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn fig3_reliability_series_shapes() {
        let fig = fig3_reliability(&[0.0, 100.0, 200.0]).unwrap();
        assert_eq!(fig.series.len(), 2);
        for series in &fig.series {
            assert_eq!(series.points.len(), 3);
            assert!((series.points[0].1 - 1.0).abs() < 1e-9);
            // Reliability decreases with time.
            assert!(series.points[2].1 < series.points[1].1);
        }
        // Line 2 is more reliable than Line 1 (the paper's observation).
        let line1_at_200 = fig.series[0].points[2].1;
        let line2_at_200 = fig.series[1].points[2].1;
        assert!(line2_at_200 > line1_at_200);
    }

    #[test]
    fn table1_line2_dedicated_lumped_counts_are_pinned() {
        // 9 components -> 512 flat states; exact lumping merges the three
        // interchangeable softeners, the interchangeable sand filters and the
        // pump group into 96 blocks. The reduction must be strict and stable.
        let spec = strategies::dedicated();
        let model = facility::line_model(Line::Line2, &spec).unwrap();
        let compiled = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                lumping: LumpingMode::Exact,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = compiled.stats();
        assert_eq!(stats.num_states, 512);
        assert_eq!(stats.lumped_states, Some(96));
        assert_eq!(stats.lumped_transitions, Some(512));
        assert!(stats.lumped_states.unwrap() < stats.num_states);
        let lumped = compiled.lumped().expect("lumping is enabled");
        lumped
            .lumping()
            .verify(compiled.chain(), 1e-12)
            .expect("partition is stable");
    }

    #[test]
    fn table1_compositional_never_materializes_the_flat_chain() {
        // The default pipeline explores canonical representatives of the
        // per-family sub-chain quotients directly: the explored state count is
        // bounded by the product of the per-family quotient sizes and lands on
        // the same coarsest quotient as flat-then-lump (pinned by PR 1).
        let spec = strategies::dedicated();
        let model = facility::line_model(Line::Line2, &spec).unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        let stats = compiled.stats();
        assert_eq!(stats.num_states, 96, "canonical representatives explored");
        assert_eq!(stats.lumped_states, Some(96));
        let bound = stats.subchain_state_bound.expect("compositional bound");
        assert!(stats.num_states <= bound, "{} > {bound}", stats.num_states);
        assert!(bound < 512, "the bound must beat the flat product");
        // Sub-chain breakdown: softeners (3), sand filters (2), reservoir,
        // pumps (3) — under dedicated repair the alphabet is {up, under
        // repair}, so the product of the local quotients is exactly 96.
        let sizes: Vec<(usize, usize)> = stats
            .subchains
            .iter()
            .map(|s| (s.members.len(), s.local_blocks))
            .collect();
        assert_eq!(sizes, vec![(3, 4), (2, 3), (1, 2), (3, 4)]);
        assert_eq!(bound, 96);
        let lumped = compiled.lumped().expect("final pass is enabled");
        lumped
            .lumping()
            .verify(compiled.chain(), 1e-12)
            .expect("the canonical chain is stably partitioned");
    }

    #[test]
    fn table_facility_dedicated_pair_validates_the_combined_formula() {
        // The DED×DED facility is the cheapest pair (160 × 96 joint blocks);
        // the full pair set is covered by the integration tests and the
        // facility bench. The product-form availability must match the
        // genuine joint chain to 1e-9 and reproduce the paper's 0.9536063.
        let pairs = [(strategies::dedicated(), strategies::dedicated())];
        let rows = table_facility_with(&pairs, ExecOptions::default()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.pair, "DED×DED");
        assert_eq!(row.joint_blocks, 160 * 96);
        assert!(row.difference <= 1e-9, "gap {}", row.difference);
        assert!(row.residual < 1e-9, "residual {}", row.residual);
        assert!((row.combined - 0.9536063).abs() < 5e-6, "{}", row.combined);
        assert!((row.combined - crate::combined_availability(row.line1, row.line2)).abs() < 1e-12);
    }

    #[test]
    fn facility_recovery_curves_start_at_zero_and_grow() {
        let pairs = [(strategies::dedicated(), strategies::dedicated())];
        let times = [0.0, 1.0, 2.0];
        let suite =
            facility_suite_with(&pairs, &times, &times, &times, ExecOptions::default()).unwrap();
        assert_eq!(suite.recovery_full.series.len(), 1);
        let curve = &suite.recovery_full.series[0].points;
        assert_eq!(curve[0].1, 0.0, "all pumps failed at t = 0");
        assert!(curve[1].1 < curve[2].1, "recovery probability grows");
        // Basic service (X1) is reached no later than full service.
        let basic = &suite.recovery_basic.series[0].points;
        for (f, b) in curve.iter().zip(basic) {
            assert!(b.1 >= f.1 - 1e-12);
        }

        // Seven failed pumps at 3/h each dominate the initial cost rate.
        let (inst, acc) = (&suite.cost_instantaneous, &suite.cost_accumulated);
        assert!(inst.series[0].points[0].1 > 21.0 - 1e-9);
        assert_eq!(acc.series[0].points[0].1, 0.0);
        assert!(acc.series[0].points[2].1 > acc.series[0].points[1].1);
    }

    #[test]
    fn paired_strategies_cover_the_paper_set() {
        let pairs = paired_strategies();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pair_label(&pairs[0]), "DED×DED");
        assert_eq!(pair_label(&pairs[1]), "FRF-1×FRF-1");
        assert!(pairs.iter().all(|(a, b)| a.label == b.label));
    }

    #[test]
    fn line_selection_restricts_tables_and_figures() {
        let line2_only = table2_lines_with(&[Line::Line2], ExecOptions::default()).unwrap();
        assert!(line2_only.iter().all(|row| row.line1.is_nan()));
        assert!(line2_only.iter().all(|row| row.line2.is_finite()));
        assert!(line2_only.iter().all(|row| row.combined.is_nan()));
        let text = format_table2(&line2_only);
        assert!(text.contains('-'), "NaN columns render as dashes");

        let rows = table1_lines_with(&[Line::Line2], ExecOptions::default()).unwrap();
        assert!(rows.iter().all(|row| row.line == Line::Line2));
        assert_eq!(rows.len(), 5);

        let fig =
            fig3_reliability_lines_with(&[Line::Line1], &[0.0, 100.0], ExecOptions::default())
                .unwrap();
        assert_eq!(fig.series.len(), 1);
        assert!(fig.series[0].label.contains("line 1"));
    }

    #[test]
    fn kline_ladder_solves_the_twin_pair_on_both_engines() {
        // `facility/ded^2`: flat 512² = 262,144, product 96² = 9,216, orbit
        // C(97, 2) = 4,656 — small enough for the joint-solve tier. The
        // ladder solves the full 9,216-state product matrix-free on the
        // Kronecker-sum operator; the materialised reference runs
        // Gauss–Seidel on the orbit fold. Both must agree with the product
        // form.
        let spec = ModelSpec::parse("facility/ded^2").unwrap();
        let row = kline_reduction_row(&spec, ExecOptions::default()).unwrap();
        assert_eq!(row.k, 2);
        assert_eq!(row.facility, "facility/ded^2");
        assert_eq!(row.flat_states, 512 * 512);
        assert_eq!(row.product_blocks, 96 * 96);
        assert_eq!(row.orbit_blocks, Some(96 * 97 / 2));
        assert_eq!(row.tier, "joint-solve");
        assert_eq!(row.solved_blocks, Some(96 * 96));
        assert_eq!(row.solver.as_deref(), Some("krylov-operator"));
        assert!(row.iterations.unwrap() >= 1);
        let joint = row.joint_availability.unwrap();
        assert!((joint - row.availability).abs() <= 1e-9);
        assert!(row.certificate.unwrap() < 1e-9);

        let model = spec.facility_model().unwrap().unwrap();
        let analysis =
            FacilityAnalysis::with_options(&model, composer_options(ExecOptions::default()))
                .unwrap();
        let materialised = analysis.joint_steady_state_availability().unwrap();
        assert_eq!(materialised.solved_states, 96 * 97 / 2);
        assert_eq!(materialised.solver_tier, "gs-materialised");
        assert!(
            (materialised.availability - joint).abs() <= 1e-10,
            "operator and materialised engines must agree: {} vs {}",
            joint,
            materialised.availability
        );

        // A mixed bank composes each distinct (line, strategy) once: the two
        // DED lines share one flat count, the FRF-1 line has its own.
        let spec = ModelSpec::parse("facility/ded+frf-1+ded").unwrap();
        let row = kline_reduction_row(&spec, ExecOptions::default()).unwrap();
        assert_eq!(row.k, 3);
        assert_eq!(row.flat_states, 512 * 8129 * 512);
        assert_eq!(row.product_blocks, 96 * 257 * 96);
    }

    #[test]
    fn kline_ladder_falls_back_to_counts_beyond_the_enumeration_cap() {
        // `facility/ded^8`: the orbit bound C(103, 8) ≈ 3.2 × 10¹¹ exceeds
        // the enumeration cap, so only the counts and the product form are
        // reported. Nothing is materialised, so the row stays instant.
        let spec = ModelSpec::parse("facility/ded^8").unwrap();
        let row = kline_reduction_row(&spec, ExecOptions::default()).unwrap();
        assert_eq!(row.k, 8);
        assert_eq!(row.tier, "product-form");
        assert_eq!(row.product_blocks, 96usize.pow(8));
        assert_eq!(row.flat_states, usize::MAX, "512⁸ = 2⁷² saturates");
        assert!(row.orbit_blocks.unwrap() > ORBIT_ENUMERATION_CAP);
        assert_eq!(row.solved_blocks, None);
        assert_eq!(row.joint_availability, None);
        assert!(row.availability > 0.9999, "{}", row.availability);

        // Single-line specs are rejected.
        let line = ModelSpec::parse("line2/ded").unwrap();
        assert!(kline_reduction_row(&line, ExecOptions::default()).is_err());

        let text = format_kline_reduction(&[row]);
        assert!(text.contains("facility/ded^8"));
        assert!(text.contains("product-form"));
    }

    #[test]
    fn table2_availability_close_to_paper_for_dedicated() {
        // Only the dedicated strategy is checked here to keep the unit-test suite
        // fast; the full table is covered by the integration tests.
        let spec = strategies::dedicated();
        let model = facility::line_model(Line::Line2, &spec).unwrap();
        let analysis =
            Analysis::with_options(&model, composer_options(ExecOptions::default())).unwrap();
        let availability = analysis.steady_state_availability().unwrap();
        assert!(
            (availability - 0.8186317).abs() < 1e-4,
            "got {availability}"
        );
    }
}
