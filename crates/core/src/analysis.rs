//! High-level analysis front end: evaluates the paper's measures on a
//! compiled model.
//!
//! [`Analysis`] compiles the model once and answers every measure with one
//! call on the disaster-free [`CompiledQuotient`] of the compiled model's
//! solver chain, resolving any [`Disaster`] to its start state on that chain
//! first.

use serde::{Deserialize, Serialize};

use crate::composer::{CompiledModel, ComposerOptions, StateSpaceStats};
use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::measures::{Measure, MeasureResult};
use crate::model::ArcadeModel;
use crate::quotient::{check_service_level, CompiledQuotient};
use ctmc::ExecOptions;

/// Evaluates dependability and performability measures of an Arcade model.
///
/// The analysis compiles the model once and reuses the compiled state space for
/// every measure.
///
/// # Example
///
/// ```no_run
/// # use arcade_core::{Analysis, ArcadeModel, BasicComponent, RepairStrategy, RepairUnit};
/// # use fault_tree::{StructureNode, SystemStructure};
/// # fn main() -> Result<(), arcade_core::ArcadeError> {
/// # let structure = SystemStructure::new(StructureNode::component("pump"));
/// # let model = ArcadeModel::builder("demo", structure)
/// #     .component(BasicComponent::from_mttf_mttr("pump", 500.0, 1.0)?)
/// #     .repair_unit(RepairUnit::new("ru", RepairStrategy::Dedicated, 1)?.responsible_for(["pump"]))
/// #     .build()?;
/// let analysis = Analysis::new(&model)?;
/// let availability = analysis.steady_state_availability()?;
/// let reliability = analysis.reliability(1000.0)?;
/// println!("A = {availability:.6}, R(1000h) = {reliability:.6}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Analysis<'a> {
    model: &'a ArcadeModel,
    compiled: CompiledModel,
    /// The solver-ready artifact of the compiled model's solver chain, with
    /// no disaster registered: disasters are resolved per query.
    quotient: CompiledQuotient,
}

/// A single named series of `(time, value)` points, e.g. one curve of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Label of the series (typically the repair strategy name).
    pub label: String,
    /// The `(time, value)` points.
    pub points: Vec<(f64, f64)>,
}

impl<'a> Analysis<'a> {
    /// Compiles the model with default composition options.
    ///
    /// # Errors
    ///
    /// Propagates composition errors.
    pub fn new(model: &'a ArcadeModel) -> Result<Self, ArcadeError> {
        CompiledModel::compile(model).map(|compiled| Self::from_compiled(model, compiled))
    }

    /// Compiles the model with explicit composition options.
    ///
    /// # Errors
    ///
    /// Propagates composition errors.
    pub fn with_options(
        model: &'a ArcadeModel,
        options: ComposerOptions,
    ) -> Result<Self, ArcadeError> {
        CompiledModel::compile_with(model, options)
            .map(|compiled| Self::from_compiled(model, compiled))
    }

    /// Wraps an already compiled model.
    pub fn from_compiled(model: &'a ArcadeModel, compiled: CompiledModel) -> Self {
        let quotient = CompiledQuotient::of_solver_chain(model.name(), &compiled, &[])
            .expect("the artifact of a compiled model's own solver chain is valid");
        Analysis {
            model,
            compiled,
            quotient,
        }
    }

    /// The model under analysis.
    pub fn model(&self) -> &ArcadeModel {
        self.model
    }

    /// The compiled state space.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Extracts the immutable solver-ready quotient artifact of this
    /// analysis' compiled model, with every disaster the model names
    /// resolved — the compile/solve split of [`CompiledQuotient`]. Every
    /// measure answered on the artifact is bit-identical to the
    /// corresponding method here (both run the same artifact methods), but
    /// the artifact carries no state-space metadata and can outlive both the
    /// model and this analysis.
    ///
    /// # Errors
    ///
    /// Propagates disaster-resolution errors.
    pub fn compiled_quotient(&self) -> Result<CompiledQuotient, ArcadeError> {
        CompiledQuotient::of_compiled(self.model, &self.compiled)
    }

    /// State-space size statistics (Table 1 of the paper).
    pub fn state_space_stats(&self) -> StateSpaceStats {
        self.compiled.stats()
    }

    /// The worker pool every solver draws from (the composition knob).
    fn exec(&self) -> ExecOptions {
        self.compiled.options().exec
    }

    /// Long-run probability that the system is fully operational
    /// (Table 2 of the paper).
    ///
    /// # Errors
    ///
    /// Propagates steady-state solver errors.
    pub fn steady_state_availability(&self) -> Result<f64, ArcadeError> {
        self.quotient.availability(self.exec())
    }

    /// Probability that the system is fully operational at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates transient solver errors.
    pub fn point_availability(&self, t: f64) -> Result<f64, ArcadeError> {
        self.quotient.point_availability(t, self.exec())
    }

    /// Reliability: probability that the system has *never* left the fully
    /// operational states within the mission time `t`.
    ///
    /// Because only the first entry into a down state matters, repairs do not
    /// influence this measure and all repair strategies give the same value, as
    /// noted in the paper.
    ///
    /// # Errors
    ///
    /// Propagates transient solver errors.
    pub fn reliability(&self, t: f64) -> Result<f64, ArcadeError> {
        self.reliability_curve(&[t]).map(|curve| curve[0].1)
    }

    /// Reliability at several mission times, batched over a single
    /// uniformisation pass (the values equal per-point [`Analysis::reliability`]
    /// calls exactly).
    ///
    /// # Errors
    ///
    /// Propagates transient solver errors.
    pub fn reliability_curve(&self, times: &[f64]) -> Result<Vec<(f64, f64)>, ArcadeError> {
        self.quotient.reliability_curve(times, self.exec())
    }

    /// Survivability: probability of reaching a state with service level at
    /// least `service_level` within `t` hours after `disaster` (GOOD model).
    ///
    /// # Errors
    ///
    /// Rejects service levels outside `[0, 1]`, then disasters that name an
    /// unknown component or lead to an unreachable state; propagates
    /// numerics failures.
    pub fn survivability(
        &self,
        disaster: &Disaster,
        service_level: f64,
        t: f64,
    ) -> Result<f64, ArcadeError> {
        self.survivability_curve(disaster, service_level, &[t])
            .map(|curve| curve[0].1)
    }

    /// Survivability at several recovery deadlines (one curve of Figs. 4, 5,
    /// 8, 9), batched over a single uniformisation pass: the whole curve
    /// costs one Fox–Glynn window at the largest deadline instead of one per
    /// point, with values equal to per-point [`Analysis::survivability`]
    /// calls exactly. Any disaster over the model's components works,
    /// whether or not the model names it.
    ///
    /// # Errors
    ///
    /// See [`Analysis::survivability`].
    pub fn survivability_curve(
        &self,
        disaster: &Disaster,
        service_level: f64,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        check_service_level(service_level)?;
        let start = self.compiled.solver_start(Some(disaster))?;
        self.quotient
            .survivability_from(start, service_level, times, self.exec())
    }

    /// Expected instantaneous cost rate at the given times (Figs. 6 and 10),
    /// optionally starting right after a disaster.
    ///
    /// # Errors
    ///
    /// Propagates numerics errors and disaster-resolution errors.
    pub fn instantaneous_cost_curve(
        &self,
        disaster: Option<&Disaster>,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let start = self.compiled.solver_start(disaster)?;
        self.quotient
            .instantaneous_cost_from(start, times, self.exec())
    }

    /// Expected accumulated cost up to the given time bounds (Figs. 7 and 11),
    /// optionally starting right after a disaster.
    ///
    /// # Errors
    ///
    /// Propagates numerics errors and disaster-resolution errors.
    pub fn accumulated_cost_curve(
        &self,
        disaster: Option<&Disaster>,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let start = self.compiled.solver_start(disaster)?;
        self.quotient
            .accumulated_cost_from(start, times, self.exec())
    }

    /// Long-run expected cost rate.
    ///
    /// # Errors
    ///
    /// Propagates numerics errors.
    pub fn long_run_cost_rate(&self) -> Result<f64, ArcadeError> {
        self.quotient.long_run_cost_rate(self.exec())
    }

    /// The attainable service levels of the model's service tree (boundaries of
    /// the paper's service intervals).
    pub fn attainable_service_levels(&self) -> Vec<f64> {
        self.model.service_tree().attainable_levels()
    }

    /// Evaluates a declarative [`Measure`].
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::UnsupportedMeasure`] for measures referencing
    /// unknown disasters and propagates numerics errors otherwise.
    pub fn evaluate(&self, measure: &Measure) -> Result<MeasureResult, ArcadeError> {
        match measure {
            Measure::SteadyStateAvailability => {
                self.steady_state_availability().map(MeasureResult::Scalar)
            }
            Measure::PointAvailability { time } => {
                self.point_availability(*time).map(MeasureResult::Scalar)
            }
            Measure::Reliability { time } => self.reliability(*time).map(MeasureResult::Scalar),
            Measure::ReliabilityCurve { times } => {
                self.reliability_curve(times).map(MeasureResult::Curve)
            }
            Measure::Survivability {
                disaster,
                service_level,
                time,
            } => {
                let disaster = self.lookup_disaster(disaster)?;
                self.survivability(disaster, *service_level, *time)
                    .map(MeasureResult::Scalar)
            }
            Measure::SurvivabilityCurve {
                disaster,
                service_level,
                times,
            } => {
                let disaster = self.lookup_disaster(disaster)?;
                self.survivability_curve(disaster, *service_level, times)
                    .map(MeasureResult::Curve)
            }
            Measure::InstantaneousCost { disaster, times } => {
                let disaster = disaster.as_deref().map(|name| self.lookup_disaster(name));
                let disaster = disaster.transpose()?;
                self.instantaneous_cost_curve(disaster, times)
                    .map(MeasureResult::Curve)
            }
            Measure::AccumulatedCost { disaster, times } => {
                let disaster = disaster.as_deref().map(|name| self.lookup_disaster(name));
                let disaster = disaster.transpose()?;
                self.accumulated_cost_curve(disaster, times)
                    .map(MeasureResult::Curve)
            }
            Measure::LongRunCostRate => self.long_run_cost_rate().map(MeasureResult::Scalar),
        }
    }

    fn lookup_disaster(&self, name: &str) -> Result<&Disaster, ArcadeError> {
        self.model
            .disaster(name)
            .ok_or_else(|| ArcadeError::UnsupportedMeasure {
                reason: format!("unknown disaster `{name}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::BasicComponent;
    use crate::repair::{RepairStrategy, RepairUnit};
    use fault_tree::{StructureNode, SystemStructure};

    /// A single repairable pump: closed forms exist for every measure.
    fn single_pump_model() -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::component("pump"));
        ArcadeModel::builder("pump", structure)
            .component(
                BasicComponent::from_mttf_mttr("pump", 500.0, 1.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["pump"])
                    .with_idle_cost(1.0),
            )
            .disaster(Disaster::new("pump-down", ["pump"]).unwrap())
            .build()
            .unwrap()
    }

    /// Two redundant components sharing one FCFS crew.
    fn redundant_pair_model(strategy: RepairStrategy, crews: usize) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::redundant(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
        ]));
        ArcadeModel::builder("pair", structure)
            .component(
                BasicComponent::from_mttf_mttr("a", 100.0, 1.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .component(
                BasicComponent::from_mttf_mttr("b", 50.0, 2.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", strategy, crews)
                    .unwrap()
                    .responsible_for(["a", "b"])
                    .with_idle_cost(1.0),
            )
            .disaster(Disaster::new("both", ["a", "b"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn single_pump_availability_matches_closed_form() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        let expected = 500.0 / 501.0;
        assert!((analysis.steady_state_availability().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_pump_reliability_is_exponential() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        for &t in &[10.0, 100.0, 500.0] {
            let expected = (-t / 500.0f64).exp();
            assert!(
                (analysis.reliability(t).unwrap() - expected).abs() < 1e-9,
                "t={t}"
            );
        }
        let curve = analysis.reliability_curve(&[0.0, 100.0]).unwrap();
        assert!((curve[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_pump_point_availability_has_closed_form() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        let lambda = 1.0 / 500.0;
        let mu = 1.0f64;
        for &t in &[0.5, 2.0, 20.0] {
            let expected = mu / (lambda + mu) + lambda / (lambda + mu) * (-(lambda + mu) * t).exp();
            assert!((analysis.point_availability(t).unwrap() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn single_pump_survivability_is_repair_cdf() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        let disaster = model.disaster("pump-down").unwrap();
        for &t in &[0.5, 1.0, 3.0] {
            // Recovery to full service requires completing one repair (rate 1).
            let expected = 1.0 - f64::exp(-t);
            let got = analysis.survivability(disaster, 1.0, t).unwrap();
            assert!((got - expected).abs() < 1e-6, "t={t}: {got} vs {expected}");
        }
        // Service level 0 is satisfied immediately.
        assert!((analysis.survivability(disaster, 0.0, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!(analysis.survivability(disaster, 2.0, 1.0).is_err());
    }

    #[test]
    fn single_pump_costs_after_disaster() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        let disaster = model.disaster("pump-down").unwrap();
        // At t=0 the pump is failed and the crew busy: cost rate = 3.
        let inst = analysis
            .instantaneous_cost_curve(Some(disaster), &[0.0, 10.0])
            .unwrap();
        assert!((inst[0].1 - 3.0).abs() < 1e-9);
        // Long after the disaster the cost rate approaches the steady state:
        // idle crew (1) most of the time plus occasional failures.
        let steady = analysis.long_run_cost_rate().unwrap();
        assert!((inst[1].1 - steady).abs() < 1e-3);
        // Accumulated cost is increasing and starts at zero.
        let acc = analysis
            .accumulated_cost_curve(Some(disaster), &[0.0, 1.0, 5.0])
            .unwrap();
        assert_eq!(acc[0].1, 0.0);
        assert!(acc[1].1 < acc[2].1);
    }

    #[test]
    fn analysis_answers_disasters_the_model_does_not_name() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();
        let named = model.disaster("pump-down").unwrap();
        let unnamed = Disaster::new("not-in-the-model", ["pump"]).unwrap();
        assert!(model.disaster(unnamed.name()).is_none());
        let times = [0.0, 0.5, 1.0, 3.0];
        assert_eq!(
            analysis.survivability_curve(&unnamed, 1.0, &times).unwrap(),
            analysis.survivability_curve(named, 1.0, &times).unwrap()
        );
        assert_eq!(
            analysis
                .instantaneous_cost_curve(Some(&unnamed), &times)
                .unwrap(),
            analysis
                .instantaneous_cost_curve(Some(named), &times)
                .unwrap()
        );
        assert_eq!(
            analysis
                .accumulated_cost_curve(Some(&unnamed), &times)
                .unwrap(),
            analysis
                .accumulated_cost_curve(Some(named), &times)
                .unwrap()
        );
    }

    #[test]
    fn redundant_pair_availability_improves_with_more_crews() {
        let one_crew = redundant_pair_model(RepairStrategy::FirstComeFirstServe, 1);
        let two_crews = redundant_pair_model(RepairStrategy::FirstComeFirstServe, 2);
        let a1 = Analysis::new(&one_crew)
            .unwrap()
            .steady_state_availability()
            .unwrap();
        let a2 = Analysis::new(&two_crews)
            .unwrap()
            .steady_state_availability()
            .unwrap();
        assert!(a2 > a1, "two crews {a2} should beat one crew {a1}");
    }

    #[test]
    fn dedicated_availability_matches_independent_product() {
        let model = redundant_pair_model(RepairStrategy::Dedicated, 1);
        let analysis = Analysis::new(&model).unwrap();
        let a = 100.0 / 101.0;
        let b = 50.0 / 52.0;
        assert!((analysis.steady_state_availability().unwrap() - a * b).abs() < 1e-9);
    }

    #[test]
    fn survivability_curve_is_monotone_in_time() {
        let model = redundant_pair_model(RepairStrategy::FastestRepairFirst, 1);
        let analysis = Analysis::new(&model).unwrap();
        let disaster = model.disaster("both").unwrap();
        let times: Vec<f64> = (0..=10).map(|i| i as f64 * 0.5).collect();
        let curve = analysis.survivability_curve(disaster, 1.0, &times).unwrap();
        for window in curve.windows(2) {
            assert!(window[1].1 >= window[0].1 - 1e-9);
        }
        assert!(analysis
            .survivability_curve(disaster, -0.5, &times)
            .is_err());
    }

    #[test]
    fn declarative_measures_match_direct_calls() {
        let model = single_pump_model();
        let analysis = Analysis::new(&model).unwrap();

        let availability = analysis
            .evaluate(&Measure::SteadyStateAvailability)
            .unwrap();
        assert_eq!(
            availability.as_scalar(),
            Some(analysis.steady_state_availability().unwrap())
        );

        let reliability = analysis
            .evaluate(&Measure::Reliability { time: 100.0 })
            .unwrap();
        assert_eq!(
            reliability.as_scalar(),
            Some(analysis.reliability(100.0).unwrap())
        );

        let curve = analysis
            .evaluate(&Measure::ReliabilityCurve {
                times: vec![1.0, 2.0],
            })
            .unwrap();
        assert_eq!(curve.as_curve().unwrap().len(), 2);

        let surv = analysis
            .evaluate(&Measure::Survivability {
                disaster: "pump-down".into(),
                service_level: 1.0,
                time: 2.0,
            })
            .unwrap();
        assert!(surv.as_scalar().unwrap() > 0.5);

        let surv_curve = analysis
            .evaluate(&Measure::SurvivabilityCurve {
                disaster: "pump-down".into(),
                service_level: 1.0,
                times: vec![1.0, 2.0],
            })
            .unwrap();
        assert_eq!(surv_curve.as_curve().unwrap().len(), 2);

        let inst = analysis
            .evaluate(&Measure::InstantaneousCost {
                disaster: Some("pump-down".into()),
                times: vec![0.0],
            })
            .unwrap();
        assert!((inst.as_curve().unwrap()[0].1 - 3.0).abs() < 1e-9);

        let acc = analysis
            .evaluate(&Measure::AccumulatedCost {
                disaster: None,
                times: vec![1.0],
            })
            .unwrap();
        assert!(acc.as_curve().unwrap()[0].1 > 0.0);

        let point = analysis
            .evaluate(&Measure::PointAvailability { time: 1.0 })
            .unwrap();
        assert!(point.as_scalar().unwrap() > 0.9);

        let rate = analysis.evaluate(&Measure::LongRunCostRate).unwrap();
        assert!(rate.as_scalar().unwrap() > 0.0);

        // Unknown disasters are reported as unsupported measures.
        let unknown = analysis.evaluate(&Measure::Survivability {
            disaster: "nope".into(),
            service_level: 1.0,
            time: 1.0,
        });
        assert!(matches!(
            unknown,
            Err(ArcadeError::UnsupportedMeasure { .. })
        ));
    }

    #[test]
    fn attainable_levels_come_from_the_service_tree() {
        let model = redundant_pair_model(RepairStrategy::Dedicated, 1);
        let analysis = Analysis::new(&model).unwrap();
        let levels = analysis.attainable_service_levels();
        assert_eq!(levels.len(), 3); // 0, 1/2, 1
    }

    #[test]
    fn strategies_do_not_change_reliability() {
        let fcfs = redundant_pair_model(RepairStrategy::FirstComeFirstServe, 1);
        let ded = redundant_pair_model(RepairStrategy::Dedicated, 1);
        let r1 = Analysis::new(&fcfs).unwrap().reliability(25.0).unwrap();
        let r2 = Analysis::new(&ded).unwrap().reliability(25.0).unwrap();
        assert!((r1 - r2).abs() < 1e-9);
    }
}
