//! The compile/solve split: an immutable, solver-ready quotient artifact,
//! and the one place where a solver chain becomes a measure.
//!
//! Compilation (explore the state space, lump it, build the product/orbit
//! fold) and solving (steady-state and transient numerics) meet in a
//! [`CompiledQuotient`]. It holds everything the solving stage needs and
//! nothing the compilation stage used to get there:
//!
//! * the (lumped/orbit) chain the solvers run on,
//! * the operational mask, per-state service levels and cost rewards on it,
//! * the solver-chain start state of every named disaster (the GOOD model),
//!   precomputed so no state-space metadata is needed at query time.
//!
//! Every measure of the crate is solved by a method of this type.
//! [`crate::Analysis`] keeps one disaster-free artifact of its compiled
//! model and resolves any [`crate::Disaster`] to a start state of it;
//! [`crate::FacilityAnalysis`] keeps one artifact per composition group and
//! combines their curves; the daemon serves artifacts directly. The choice
//! of chain, masks and start state the solvers see is made here and in
//! the composer's solver-start helper only.
//!
//! The artifact is plain data: cloning it is cheap relative to compilation,
//! it is `Send + Sync`, and two artifacts can be compared exactly
//! ([`CompiledQuotient::identical`]) or fingerprinted
//! ([`CompiledQuotient::presentation_code`]) — the pair a quotient cache
//! needs to intern artifacts by content with hash collisions ruled out.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use arcade_symmetry::{chain_presentation_code, chains_identical};
use arcade_telemetry::{Recorder, Span};
use ctmc::{
    Ctmc, ExecOptions, RewardSolver, RewardStructure, SteadyStateSolver, TransientOptions,
    TransientSolver,
};

use crate::composer::{service_at_least, CompiledModel, ComposerOptions};
use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::model::ArcadeModel;

/// The raw ingredients of a [`CompiledQuotient`], named so compilation
/// front-ends can assemble them field by field (see
/// [`CompiledQuotient::from_parts`]).
#[derive(Debug, Clone)]
pub struct QuotientParts {
    /// The artifact's display name (typically the source model's name).
    pub name: String,
    /// The chain every measure solves on.
    pub chain: Ctmc,
    /// "Fully operational" per solver-chain state.
    pub operational: Vec<bool>,
    /// The quantitative service level per solver-chain state.
    pub service: Vec<f64>,
    /// The repair-cost rewards on the solver chain.
    pub cost: RewardStructure,
    /// The no-disaster start state.
    pub initial: usize,
    /// Solver-chain start state of every named disaster.
    pub disaster_starts: BTreeMap<String, usize>,
    /// States of the chain the artifact was reduced from.
    pub source_states: usize,
}

/// An immutable solver-ready quotient: the output of the compilation stage
/// and the sole input of the solving stage (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledQuotient {
    name: String,
    /// The chain every measure solves on, with its initial distribution set
    /// to the no-disaster start state.
    chain: Ctmc,
    /// "Fully operational" per solver-chain state (for a facility artifact:
    /// at least one line fully operational).
    operational: Vec<bool>,
    /// The quantitative service level per solver-chain state.
    service: Vec<f64>,
    /// The repair-cost reward structure on the solver chain.
    cost: RewardStructure,
    /// The no-disaster start state.
    initial: usize,
    /// Solver-chain start state of every named disaster (the GOOD model).
    disaster_starts: BTreeMap<String, usize>,
    /// States of the chain the artifact was reduced from (the flat chain or
    /// the unreduced product) — the size the quotient saves over.
    source_states: usize,
}

impl CompiledQuotient {
    /// Assembles an artifact from already-prepared parts. Used by the
    /// compilation front-ends ([`CompiledQuotient::of_model`],
    /// [`crate::FacilityAnalysis::compiled_quotient`]); exposed so other
    /// composition pipelines can produce artifacts too.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidParameter`] when the metadata lengths
    /// disagree with the chain or a start state is out of range.
    pub fn from_parts(parts: QuotientParts) -> Result<Self, ArcadeError> {
        let QuotientParts {
            name,
            chain,
            operational,
            service,
            cost,
            initial,
            disaster_starts,
            source_states,
        } = parts;
        let n = chain.num_states();
        if operational.len() != n || service.len() != n || cost.state_rewards().len() != n {
            return Err(ArcadeError::InvalidParameter {
                reason: format!(
                    "quotient metadata must cover all {n} states (operational {}, service {}, \
                     cost {})",
                    operational.len(),
                    service.len(),
                    cost.state_rewards().len()
                ),
            });
        }
        if initial >= n || disaster_starts.values().any(|&s| s >= n) {
            return Err(ArcadeError::InvalidParameter {
                reason: format!("quotient start states must lie in 0..{n}"),
            });
        }
        let mut span = Recorder::current().span("materialise");
        span.count("states", n as u64);
        span.count("source_states", source_states as u64);
        span.count("disasters", disaster_starts.len() as u64);
        let chain = chain.with_initial_state(initial)?;
        Ok(CompiledQuotient {
            name,
            chain,
            operational,
            service,
            cost,
            initial,
            disaster_starts,
            source_states,
        })
    }

    /// Compiles `model` and extracts its solver-ready quotient: the exactly
    /// lumped quotient when lumping is enabled (the default), the flat chain
    /// otherwise. Every disaster of the model gets its start block resolved
    /// at compile time.
    ///
    /// # Errors
    ///
    /// Propagates composition errors.
    pub fn of_model(model: &ArcadeModel, options: ComposerOptions) -> Result<Self, ArcadeError> {
        let compiled = CompiledModel::compile_with(model, options)?;
        Self::of_compiled(model, &compiled)
    }

    /// Extracts the solver-ready quotient of an already compiled model
    /// (shares the work when a [`CompiledModel`] is at hand anyway).
    ///
    /// # Errors
    ///
    /// Propagates disaster-resolution errors.
    pub fn of_compiled(model: &ArcadeModel, compiled: &CompiledModel) -> Result<Self, ArcadeError> {
        Self::of_solver_chain(model.name(), compiled, model.disasters())
    }

    /// The artifact of `compiled`'s own solver chain — the lumped quotient
    /// when the model is lumped, the flat chain otherwise — with the start
    /// state of every disaster in `disasters`. Without disasters it cannot
    /// fail: the metadata comes from the same compiled model as the chain.
    pub(crate) fn of_solver_chain(
        name: &str,
        compiled: &CompiledModel,
        disasters: &[Disaster],
    ) -> Result<Self, ArcadeError> {
        let mut disaster_starts = BTreeMap::new();
        for disaster in disasters {
            disaster_starts.insert(
                disaster.name().to_string(),
                compiled.solver_start(Some(disaster))?,
            );
        }
        let (chain, operational, service, cost) = match compiled.lumped() {
            Some(lumped) => (
                lumped.quotient().clone(),
                lumped.operational_mask().to_vec(),
                lumped.service_levels().to_vec(),
                lumped.cost_rewards().clone(),
            ),
            None => (
                compiled.chain().clone(),
                compiled.operational_mask().to_vec(),
                compiled.service_levels().to_vec(),
                compiled.cost_rewards().clone(),
            ),
        };
        Self::from_parts(QuotientParts {
            name: name.to_string(),
            chain,
            operational,
            service,
            cost,
            initial: compiled.solver_start(None)?,
            disaster_starts,
            source_states: compiled.chain().num_states(),
        })
    }

    /// The artifact's display name (the source model's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chain every measure solves on.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// Number of solver-chain states.
    pub fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    /// States of the chain this artifact was reduced from.
    pub fn source_states(&self) -> usize {
        self.source_states
    }

    /// "Fully operational" per solver-chain state.
    pub fn operational_mask(&self) -> &[bool] {
        &self.operational
    }

    /// The quantitative service level per solver-chain state.
    pub fn service_levels(&self) -> &[f64] {
        &self.service
    }

    /// The repair-cost rewards on the solver chain.
    pub fn cost_rewards(&self) -> &RewardStructure {
        &self.cost
    }

    /// The no-disaster start state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The named disasters this artifact can answer queries about, with
    /// their solver-chain start states.
    pub fn disaster_starts(&self) -> &BTreeMap<String, usize> {
        &self.disaster_starts
    }

    /// A deterministic fingerprint of the artifact's full presentation:
    /// [`chain_presentation_code`] of the solver chain extended with the
    /// exact bit patterns of every mask, level, reward and start state.
    /// Identical artifacts get identical codes; distinct artifacts collide
    /// only with hash probability and are told apart by
    /// [`CompiledQuotient::identical`] — a cache must confirm candidates
    /// with it before sharing an artifact between keys.
    pub fn presentation_code(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        chain_presentation_code(&self.chain).hash(&mut hasher);
        self.operational.hash(&mut hasher);
        for level in &self.service {
            level.to_bits().hash(&mut hasher);
        }
        self.cost.name().hash(&mut hasher);
        for reward in self.cost.state_rewards() {
            reward.to_bits().hash(&mut hasher);
        }
        self.initial.hash(&mut hasher);
        self.disaster_starts.hash(&mut hasher);
        self.source_states.hash(&mut hasher);
        hasher.finish()
    }

    /// Exact interchangeability: every query answered on `self` equals the
    /// same query on `other` bit-for-bit. The display name is deliberately
    /// not compared — two models compiling to the same presentation may
    /// share one cached artifact.
    pub fn identical(&self, other: &CompiledQuotient) -> bool {
        chains_identical(&self.chain, &other.chain)
            && self.operational == other.operational
            && bits_equal(&self.service, &other.service)
            && self.cost.name() == other.cost.name()
            && bits_equal(self.cost.state_rewards(), other.cost.state_rewards())
            && self.initial == other.initial
            && self.disaster_starts == other.disaster_starts
            && self.source_states == other.source_states
    }

    /// The solver-chain start state of `disaster`, or the no-disaster start
    /// for `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::UnsupportedMeasure`] for unknown disasters.
    pub fn start_for(&self, disaster: Option<&str>) -> Result<usize, ArcadeError> {
        match disaster {
            None => Ok(self.initial),
            Some(name) => self.disaster_starts.get(name).copied().ok_or_else(|| {
                ArcadeError::UnsupportedMeasure {
                    reason: format!("unknown disaster `{name}`"),
                }
            }),
        }
    }

    /// The stationary distribution of the solver chain plus the number of
    /// iterative sweeps it took — warm-started from `guess` when one is
    /// given (the fixed point is unchanged; a good guess only shortens the
    /// iteration).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn stationary_counted(
        &self,
        guess: Option<&[f64]>,
        exec: ExecOptions,
    ) -> Result<(Vec<f64>, usize), ArcadeError> {
        let mut solver = SteadyStateSolver::new(&self.chain).exec(exec);
        if let Some(guess) = guess {
            solver = solver.initial_guess(guess.to_vec());
        }
        Ok(solver.solve_counted()?)
    }

    /// The operational probability mass of a stationary (or transient)
    /// distribution over the solver chain.
    pub fn availability_of(&self, pi: &[f64]) -> f64 {
        pi.iter()
            .zip(self.operational.iter())
            .filter(|(_, &up)| up)
            .map(|(p, _)| p)
            .sum()
    }

    /// Steady-state availability: one cold stationary solve followed by
    /// [`CompiledQuotient::availability_of`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn availability(&self, exec: ExecOptions) -> Result<f64, ArcadeError> {
        let _span = self.measure_span();
        let (pi, _) = self.stationary_counted(None, exec)?;
        Ok(self.availability_of(&pi))
    }

    /// Point availability: the probability of being fully operational at
    /// time `t` after the no-disaster start.
    pub(crate) fn point_availability(&self, t: f64, exec: ExecOptions) -> Result<f64, ArcadeError> {
        let _span = self.measure_span();
        let pi = TransientSolver::with_options(&self.chain, transient_options(exec))
            .probabilities_at(t)?;
        Ok(self.availability_of(&pi))
    }

    /// Reliability at each mission time after the no-disaster start: one
    /// minus the probability of having reached a state that is not fully
    /// operational, with every state safe, batched over one uniformisation
    /// pass.
    pub(crate) fn reliability_curve(
        &self,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let mut span = self.measure_span();
        span.count("points", times.len() as u64);
        let down: Vec<bool> = self.operational.iter().map(|&up| !up).collect();
        let safe = vec![true; down.len()];
        let unreliabilities = TransientSolver::with_options(&self.chain, transient_options(exec))
            .bounded_until_many(&safe, &down, times)?;
        let reliabilities = unreliabilities.into_iter().map(|u| 1.0 - u);
        Ok(times.iter().copied().zip(reliabilities).collect())
    }

    /// Survivability after `disaster`: the probability of reaching a service
    /// level of at least `service_level` within each deadline, batched over
    /// a single uniformisation pass (`bounded_until_many`).
    ///
    /// # Errors
    ///
    /// Rejects invalid service levels (before the disaster lookup, matching
    /// the analysis front-ends), unknown disasters, and propagates solver
    /// errors.
    pub fn survivability_curve(
        &self,
        disaster: &str,
        service_level: f64,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        check_service_level(service_level)?;
        let start = self.start_for(Some(disaster))?;
        self.survivability_from(start, service_level, times, exec)
    }

    /// [`CompiledQuotient::survivability_curve`] from the solver-chain state
    /// `start`.
    pub(crate) fn survivability_from(
        &self,
        start: usize,
        service_level: f64,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        check_service_level(service_level)?;
        let mut span = self.measure_span();
        span.count("points", times.len() as u64);
        let chain = self.chain.with_initial_state(start)?;
        let goal = service_at_least(&self.service, service_level);
        let safe = vec![true; goal.len()];
        let values = TransientSolver::with_options(&chain, transient_options(exec))
            .bounded_until_many(&safe, &goal, times)?;
        Ok(times.iter().copied().zip(values).collect())
    }

    /// Expected instantaneous cost rate at the given times, optionally
    /// starting right after a disaster.
    ///
    /// # Errors
    ///
    /// Rejects unknown disasters; propagates solver errors.
    pub fn instantaneous_cost_curve(
        &self,
        disaster: Option<&str>,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        self.instantaneous_cost_from(self.start_for(disaster)?, times, exec)
    }

    /// [`CompiledQuotient::instantaneous_cost_curve`] from the solver-chain
    /// state `start`.
    pub(crate) fn instantaneous_cost_from(
        &self,
        start: usize,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let mut span = self.measure_span();
        span.count("points", times.len() as u64);
        let chain = self.chain.with_initial_state(start)?;
        let values = RewardSolver::new(&chain, &self.cost)?
            .with_options(transient_options(exec))
            .instantaneous_series(times)?;
        Ok(times.iter().copied().zip(values).collect())
    }

    /// Expected accumulated cost up to the given time bounds, optionally
    /// starting right after a disaster.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuotient::instantaneous_cost_curve`].
    pub fn accumulated_cost_curve(
        &self,
        disaster: Option<&str>,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        self.accumulated_cost_from(self.start_for(disaster)?, times, exec)
    }

    /// [`CompiledQuotient::accumulated_cost_curve`] from the solver-chain
    /// state `start`.
    pub(crate) fn accumulated_cost_from(
        &self,
        start: usize,
        times: &[f64],
        exec: ExecOptions,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let mut span = self.measure_span();
        span.count("points", times.len() as u64);
        let chain = self.chain.with_initial_state(start)?;
        let values = RewardSolver::new(&chain, &self.cost)?
            .with_options(transient_options(exec))
            .accumulated_series(times)?;
        Ok(times.iter().copied().zip(values).collect())
    }

    /// The long-run expected cost rate.
    pub(crate) fn long_run_cost_rate(&self, exec: ExecOptions) -> Result<f64, ArcadeError> {
        let _span = self.measure_span();
        Ok(RewardSolver::new(&self.chain, &self.cost)?
            .with_options(transient_options(exec))
            .long_run_rate()?)
    }

    /// Opens the `measure` span of one query on this artifact.
    fn measure_span(&self) -> Span {
        let mut span = Recorder::current().span("measure");
        span.count("states", self.chain.num_states() as u64);
        span
    }
}

/// Rejects a service level outside `[0, 1]` — the one check every
/// survivability entry point shares.
pub(crate) fn check_service_level(service_level: f64) -> Result<(), ArcadeError> {
    if (0.0..=1.0).contains(&service_level) {
        Ok(())
    } else {
        Err(ArcadeError::InvalidParameter {
            reason: format!("service level must be in [0, 1], got {service_level}"),
        })
    }
}

fn transient_options(exec: ExecOptions) -> TransientOptions {
    TransientOptions {
        exec,
        ..TransientOptions::default()
    }
}

/// Exact (bitwise) equality of two f64 slices, consistent with the bit
/// patterns [`CompiledQuotient::presentation_code`] hashes.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::BasicComponent;
    use crate::repair::{RepairStrategy, RepairUnit};
    use crate::{Analysis, LumpingMode};
    use fault_tree::{StructureNode, SystemStructure};

    fn pump_model(mttf: f64) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::component("pump"));
        ArcadeModel::builder("pump", structure)
            .component(
                BasicComponent::from_mttf_mttr("pump", mttf, 1.0)
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

    /// Three pumps under one FCFS crew, two of them interchangeable, so the
    /// lumped quotient is smaller than the flat chain.
    fn pump_station_model() -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::redundant(vec![
            StructureNode::component("p1"),
            StructureNode::component("p2"),
            StructureNode::component("p3"),
        ]));
        let pump = |name: &str, mttf: f64| {
            BasicComponent::from_mttf_mttr(name, mttf, 2.0)
                .unwrap()
                .with_failed_cost(3.0)
        };
        ArcadeModel::builder("station", structure)
            .component(pump("p1", 100.0))
            .component(pump("p2", 100.0))
            .component(pump("p3", 40.0))
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["p1", "p2", "p3"])
                    .with_idle_cost(1.0),
            )
            .disaster(Disaster::new("pump-down", ["p1", "p3"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn artifact_measures_match_the_analysis_front_end() {
        fn same(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
        }
        let times = [0.0, 0.5, 1.0, 3.0];
        for model in [pump_model(500.0), pump_station_model()] {
            for lumping in [LumpingMode::Compositional, LumpingMode::Disabled] {
                let options = ComposerOptions {
                    lumping,
                    ..ComposerOptions::default()
                };
                let exec = options.exec;
                let what = format!("{} under {lumping:?}", model.name());
                let analysis = Analysis::with_options(&model, options).unwrap();
                let quotient = analysis.compiled_quotient().unwrap();
                let standalone = CompiledQuotient::of_model(&model, options).unwrap();
                assert!(quotient.identical(&standalone), "{what}");
                let disaster = model.disaster("pump-down").unwrap();
                let bits = |value: Result<f64, ArcadeError>| value.unwrap().to_bits();

                assert_eq!(
                    bits(analysis.steady_state_availability()),
                    bits(quotient.availability(exec)),
                    "{what}: availability"
                );
                assert_eq!(
                    bits(analysis.point_availability(2.0)),
                    bits(quotient.point_availability(2.0, exec)),
                    "{what}: point availability"
                );
                let reliability = quotient.reliability_curve(&times, exec).unwrap();
                assert!(
                    same(&analysis.reliability_curve(&times).unwrap(), &reliability),
                    "{what}: reliability curve"
                );
                assert_eq!(
                    bits(analysis.reliability(3.0)),
                    reliability[3].1.to_bits(),
                    "{what}: reliability"
                );
                for level in [1.0, 0.5] {
                    let survivability = quotient
                        .survivability_curve("pump-down", level, &times, exec)
                        .unwrap();
                    assert!(
                        same(
                            &analysis
                                .survivability_curve(disaster, level, &times)
                                .unwrap(),
                            &survivability
                        ),
                        "{what}: survivability curve at {level}"
                    );
                    assert_eq!(
                        bits(analysis.survivability(disaster, level, 3.0)),
                        survivability[3].1.to_bits(),
                        "{what}: survivability at {level}"
                    );
                }
                for start in [None, Some("pump-down")] {
                    let from = start.map(|_| disaster);
                    assert!(
                        same(
                            &analysis.instantaneous_cost_curve(from, &times).unwrap(),
                            &quotient
                                .instantaneous_cost_curve(start, &times, exec)
                                .unwrap()
                        ),
                        "{what}: instantaneous cost after {start:?}"
                    );
                    assert!(
                        same(
                            &analysis.accumulated_cost_curve(from, &times).unwrap(),
                            &quotient
                                .accumulated_cost_curve(start, &times, exec)
                                .unwrap()
                        ),
                        "{what}: accumulated cost after {start:?}"
                    );
                }
                assert_eq!(
                    bits(analysis.long_run_cost_rate()),
                    bits(quotient.long_run_cost_rate(exec)),
                    "{what}: long-run cost rate"
                );
            }
        }
    }

    #[test]
    fn artifact_rejects_bad_queries() {
        let model = pump_model(500.0);
        let exec = ExecOptions::default();
        let quotient = CompiledQuotient::of_model(&model, ComposerOptions::default()).unwrap();
        assert!(matches!(
            quotient.survivability_curve("nope", 1.0, &[1.0], exec),
            Err(ArcadeError::UnsupportedMeasure { .. })
        ));
        // The level check comes first, matching the analysis front-ends.
        assert!(matches!(
            quotient.survivability_curve("nope", 2.0, &[1.0], exec),
            Err(ArcadeError::InvalidParameter { .. })
        ));
        assert!(quotient
            .instantaneous_cost_curve(Some("nope"), &[1.0], exec)
            .is_err());
    }

    #[test]
    fn presentation_codes_separate_rate_variants_and_identical_confirms() {
        let a = CompiledQuotient::of_model(&pump_model(500.0), ComposerOptions::default()).unwrap();
        let b = CompiledQuotient::of_model(&pump_model(500.0), ComposerOptions::default()).unwrap();
        let c = CompiledQuotient::of_model(&pump_model(501.0), ComposerOptions::default()).unwrap();
        assert_eq!(a.presentation_code(), b.presentation_code());
        assert!(a.identical(&b));
        assert_ne!(a.presentation_code(), c.presentation_code());
        assert!(!a.identical(&c));
    }

    #[test]
    fn warm_start_shortens_the_iteration_to_the_same_fixed_point() {
        let quotient =
            CompiledQuotient::of_model(&pump_model(500.0), ComposerOptions::default()).unwrap();
        let exec = ExecOptions::default();
        let (cold, cold_iterations) = quotient.stationary_counted(None, exec).unwrap();
        let (warm, warm_iterations) = quotient.stationary_counted(Some(&cold), exec).unwrap();
        assert!(warm_iterations <= cold_iterations);
        assert!((quotient.availability_of(&warm) - quotient.availability_of(&cold)).abs() < 1e-10);
    }
}
