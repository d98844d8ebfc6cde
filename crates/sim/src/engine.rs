//! The trajectory engine: executes one stochastic run of an Arcade model.
//!
//! The engine mirrors the semantics of `arcade_core`'s state-space composer —
//! exponential failures and repairs, non-preemptive crew dispatch with
//! strategy-dependent priorities and FCFS tie-breaking, and immediate spare
//! activation — but advances a single sampled trajectory instead of building
//! the full CTMC. It keeps its own dispatch code, so it stays an independent
//! reference, and implements only the non-preemptive disciplines.

use arcade_core::{
    ArcadeError, ArcadeModel, ComponentStatus, Disaster, QueueDiscipline, RepairStrategy,
};
use fault_tree::{FaultTree, ServiceTree};
use rand::rngs::StdRng;
use rand::Rng;

/// A single simulated trajectory of an Arcade model.
#[derive(Debug, Clone)]
pub struct Trajectory<'a> {
    model: &'a ArcadeModel,
    service_tree: ServiceTree,
    degraded_tree: FaultTree,
    /// The component of every structure leaf, in leaf order.
    leaf_component: Vec<usize>,
    component_names: Vec<String>,
    failure_rates: Vec<f64>,
    repair_rates: Vec<f64>,
    dormancy: Vec<f64>,
    component_ru: Vec<Option<usize>>,
    ru_components: Vec<Vec<usize>>,
    ru_crews: Vec<usize>,
    priorities: Vec<f64>,
    smu_primaries: Vec<Vec<usize>>,
    smu_spares: Vec<Vec<usize>>,
    component_smu: Vec<Option<usize>>,
    // Mutable run state.
    statuses: Vec<ComponentStatus>,
    queues: Vec<Vec<usize>>,
    time: f64,
}

impl<'a> Trajectory<'a> {
    /// Prepares a trajectory in the model's regular initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::UnsupportedMeasure`] if a repair unit is
    /// [`QueueDiscipline::Preemptive`]: the engine dispatches
    /// non-preemptively, and both non-preemptive disciplines dispatch alike.
    /// Returns [`ArcadeError::UnknownComponent`] if the model references
    /// undeclared components (cannot happen for models built through the
    /// validated builder).
    pub fn new(model: &'a ArcadeModel) -> Result<Self, ArcadeError> {
        if let Some(ru) = model
            .repair_units()
            .iter()
            .find(|ru| ru.discipline() == QueueDiscipline::Preemptive)
        {
            return Err(ArcadeError::UnsupportedMeasure {
                reason: format!(
                    "the flat simulator dispatches non-preemptively, but repair unit `{}` \
                     is preemptive",
                    ru.name()
                ),
            });
        }
        let n = model.components().len();
        let component_names: Vec<String> = model
            .components()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        let index_of = |name: &str| -> Result<usize, ArcadeError> {
            component_names
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| ArcadeError::UnknownComponent {
                    name: name.to_string(),
                    referenced_by: "simulator".into(),
                })
        };

        let leaf_component = model
            .structure()
            .leaves()
            .map(index_of)
            .collect::<Result<Vec<_>, _>>()?;

        let mut component_ru = vec![None; n];
        let mut ru_components = Vec::new();
        let mut ru_crews = Vec::new();
        let mut priorities = vec![0.0; n];
        for (ru_idx, ru) in model.repair_units().iter().enumerate() {
            let mut members = Vec::new();
            for name in ru.components() {
                let idx = index_of(name)?;
                component_ru[idx] = Some(ru_idx);
                members.push(idx);
                if !matches!(ru.strategy(), RepairStrategy::Dedicated) {
                    priorities[idx] = ru.strategy().priority_of(&model.components()[idx]);
                }
            }
            ru_crews.push(ru.effective_crews());
            ru_components.push(members);
        }

        let mut component_smu = vec![None; n];
        let mut smu_primaries = Vec::new();
        let mut smu_spares = Vec::new();
        for (smu_idx, smu) in model.spare_units().iter().enumerate() {
            let primaries = smu
                .primaries()
                .iter()
                .map(|p| index_of(p))
                .collect::<Result<Vec<_>, _>>()?;
            let spares = smu
                .spares()
                .iter()
                .map(|p| index_of(p))
                .collect::<Result<Vec<_>, _>>()?;
            for &c in primaries.iter().chain(spares.iter()) {
                component_smu[c] = Some(smu_idx);
            }
            smu_primaries.push(primaries);
            smu_spares.push(spares);
        }

        let mut trajectory = Trajectory {
            service_tree: model.service_tree(),
            degraded_tree: model.degraded_fault_tree(),
            failure_rates: model
                .components()
                .iter()
                .map(|c| c.failure_rate())
                .collect(),
            repair_rates: model.components().iter().map(|c| c.repair_rate()).collect(),
            dormancy: model
                .components()
                .iter()
                .map(|c| c.dormancy_factor())
                .collect(),
            leaf_component,
            component_names,
            component_ru,
            ru_components,
            ru_crews,
            priorities,
            smu_primaries,
            smu_spares,
            component_smu,
            statuses: vec![ComponentStatus::Operational; n],
            queues: vec![Vec::new(); model.repair_units().len()],
            time: 0.0,
            model,
        };
        trajectory.reset();
        Ok(trajectory)
    }

    /// Resets the trajectory to the model's regular initial state.
    pub fn reset(&mut self) {
        self.time = 0.0;
        self.statuses
            .iter_mut()
            .for_each(|s| *s = ComponentStatus::Operational);
        self.queues.iter_mut().for_each(Vec::clear);
        for spares in &self.smu_spares.clone() {
            for &s in spares {
                self.statuses[s] = ComponentStatus::Dormant;
            }
        }
        for (idx, component) in self.model.components().iter().enumerate() {
            if component.is_initially_failed() {
                self.fail_component(idx);
            }
        }
    }

    /// Resets the trajectory to the state right after a disaster, queueing the
    /// failed components by dispatch priority as the GOOD models of the paper do.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidDisaster`] for unknown components.
    pub fn reset_to_disaster(&mut self, disaster: &Disaster) -> Result<(), ArcadeError> {
        self.reset();
        let mut failed: Vec<usize> = Vec::new();
        for name in disaster.failed_components() {
            let idx = self
                .component_names
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| ArcadeError::InvalidDisaster {
                    reason: format!(
                        "unknown component `{name}` in disaster `{}`",
                        disaster.name()
                    ),
                })?;
            failed.push(idx);
        }
        failed.sort_by(|&a, &b| {
            self.priorities[b]
                .partial_cmp(&self.priorities[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for idx in failed {
            if !self.statuses[idx].is_failed() {
                self.fail_component(idx);
            }
        }
        Ok(())
    }

    /// Current simulation time in hours.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current quantitative service level.
    pub fn service_level(&self) -> f64 {
        self.service_tree.service_level_by_leaf(|leaf| {
            if self.statuses[self.leaf_component[leaf]].provides_service() {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Whether the system is currently fully operational.
    pub fn is_fully_operational(&self) -> bool {
        !self
            .degraded_tree
            .is_failed_by_leaf(|leaf| !self.statuses[self.leaf_component[leaf]].provides_service())
    }

    /// Current cost rate (failed components plus idle/busy crews).
    pub fn cost_rate(&self) -> f64 {
        let mut cost = 0.0;
        for (idx, component) in self.model.components().iter().enumerate() {
            cost += if self.statuses[idx].is_failed() {
                component.failed_cost_per_hour()
            } else {
                component.operational_cost_per_hour()
            };
        }
        for (ru_idx, ru) in self.model.repair_units().iter().enumerate() {
            let busy = self.ru_components[ru_idx]
                .iter()
                .filter(|&&c| self.statuses[c] == ComponentStatus::UnderRepair)
                .count();
            let idle = self.ru_crews[ru_idx].saturating_sub(busy);
            cost += idle as f64 * ru.idle_cost_per_hour() + busy as f64 * ru.busy_cost_per_hour();
        }
        cost
    }

    /// Advances the trajectory by one event, or to `horizon` if the next event
    /// would occur later (or no event is enabled). Returns the time that passed.
    pub fn step(&mut self, horizon: f64, rng: &mut StdRng) -> f64 {
        debug_assert!(horizon >= self.time);
        // Collect enabled events and their rates.
        let mut total_rate = 0.0;
        let mut events: Vec<(usize, bool, f64)> = Vec::new(); // (component, is_repair, rate)
        for c in 0..self.statuses.len() {
            match self.statuses[c] {
                ComponentStatus::Operational => {
                    events.push((c, false, self.failure_rates[c]));
                    total_rate += self.failure_rates[c];
                }
                ComponentStatus::Dormant => {
                    let rate = self.failure_rates[c] * self.dormancy[c];
                    if rate > 0.0 {
                        events.push((c, false, rate));
                        total_rate += rate;
                    }
                }
                ComponentStatus::UnderRepair => {
                    events.push((c, true, self.repair_rates[c]));
                    total_rate += self.repair_rates[c];
                }
                ComponentStatus::WaitingForRepair => {}
            }
        }
        if total_rate <= 0.0 {
            let elapsed = horizon - self.time;
            self.time = horizon;
            return elapsed;
        }
        let delay = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / total_rate;
        if self.time + delay > horizon {
            let elapsed = horizon - self.time;
            self.time = horizon;
            return elapsed;
        }
        self.time += delay;
        // Pick the event proportionally to its rate.
        let mut pick = rng.gen::<f64>() * total_rate;
        let mut chosen = events[events.len() - 1];
        for event in &events {
            if pick < event.2 {
                chosen = *event;
                break;
            }
            pick -= event.2;
        }
        let (component, is_repair, _) = chosen;
        if is_repair {
            self.repair_component(component);
        } else {
            self.fail_component(component);
        }
        delay
    }

    fn fail_component(&mut self, c: usize) {
        let was_active = self.statuses[c] == ComponentStatus::Operational;
        self.statuses[c] = ComponentStatus::WaitingForRepair;
        if was_active {
            if let Some(smu) = self.component_smu[c] {
                self.rebalance_spares(smu);
            }
        }
        if let Some(ru) = self.component_ru[c] {
            self.queues[ru].push(c);
            self.dispatch(ru);
        }
    }

    fn repair_component(&mut self, c: usize) {
        self.statuses[c] = ComponentStatus::Operational;
        if let Some(smu) = self.component_smu[c] {
            if self.smu_spares[smu].contains(&c) {
                self.statuses[c] = ComponentStatus::Dormant;
            }
            self.rebalance_spares(smu);
        }
        if let Some(ru) = self.component_ru[c] {
            self.dispatch(ru);
        }
    }

    fn dispatch(&mut self, ru: usize) {
        loop {
            let busy = self.ru_components[ru]
                .iter()
                .filter(|&&c| self.statuses[c] == ComponentStatus::UnderRepair)
                .count();
            if busy >= self.ru_crews[ru] || self.queues[ru].is_empty() {
                return;
            }
            let mut best_pos = 0;
            for (pos, &candidate) in self.queues[ru].iter().enumerate() {
                if self.priorities[candidate] > self.priorities[self.queues[ru][best_pos]] + 1e-12 {
                    best_pos = pos;
                }
            }
            let chosen = self.queues[ru].remove(best_pos);
            self.statuses[chosen] = ComponentStatus::UnderRepair;
        }
    }

    fn rebalance_spares(&mut self, smu: usize) {
        let desired = self.smu_primaries[smu].len();
        loop {
            let active = self.smu_primaries[smu]
                .iter()
                .chain(self.smu_spares[smu].iter())
                .filter(|&&c| self.statuses[c] == ComponentStatus::Operational)
                .count();
            if active < desired {
                let dormant = self.smu_spares[smu]
                    .iter()
                    .copied()
                    .find(|&s| self.statuses[s] == ComponentStatus::Dormant);
                match dormant {
                    Some(s) => self.statuses[s] = ComponentStatus::Operational,
                    None => return,
                }
            } else if active > desired {
                let surplus = self.smu_spares[smu]
                    .iter()
                    .rev()
                    .copied()
                    .find(|&s| self.statuses[s] == ComponentStatus::Operational);
                match surplus {
                    Some(s) => self.statuses[s] = ComponentStatus::Dormant,
                    None => return,
                }
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcade_core::{BasicComponent, RepairUnit};
    use fault_tree::{StructureNode, SystemStructure};
    use rand::SeedableRng;

    fn pump_model() -> ArcadeModel {
        pump_model_with(QueueDiscipline::default())
    }

    fn pump_model_with(discipline: QueueDiscipline) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::component("pump"));
        ArcadeModel::builder("pump", structure)
            .component(
                BasicComponent::from_mttf_mttr("pump", 10.0, 1.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["pump"])
                    .with_idle_cost(1.0)
                    .with_discipline(discipline),
            )
            .disaster(Disaster::new("down", ["pump"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn preemptive_units_are_rejected() {
        let model = pump_model_with(QueueDiscipline::Preemptive);
        match Trajectory::new(&model) {
            Err(ArcadeError::UnsupportedMeasure { reason }) => {
                assert!(reason.contains("`ru`"), "{reason}")
            }
            other => panic!("expected UnsupportedMeasure, got {other:?}"),
        }
        // Both non-preemptive disciplines dispatch alike, so both are accepted.
        assert!(Trajectory::new(&pump_model_with(QueueDiscipline::ArrivalOrder)).is_ok());
        assert!(Trajectory::new(&pump_model()).is_ok());
    }

    #[test]
    fn initial_state_is_operational() {
        let model = pump_model();
        let trajectory = Trajectory::new(&model).unwrap();
        assert_eq!(trajectory.time(), 0.0);
        assert!(trajectory.is_fully_operational());
        assert_eq!(trajectory.service_level(), 1.0);
        assert_eq!(trajectory.cost_rate(), 1.0); // idle crew
    }

    #[test]
    fn disaster_reset_starts_failed() {
        let model = pump_model();
        let mut trajectory = Trajectory::new(&model).unwrap();
        let disaster = model.disaster("down").unwrap();
        trajectory.reset_to_disaster(disaster).unwrap();
        assert!(!trajectory.is_fully_operational());
        assert_eq!(trajectory.service_level(), 0.0);
        assert_eq!(trajectory.cost_rate(), 3.0); // failed component, busy crew
        let rogue = Disaster::new("rogue", ["ghost"]).unwrap();
        assert!(trajectory.reset_to_disaster(&rogue).is_err());
    }

    #[test]
    fn stepping_advances_time_and_toggles_state() {
        let model = pump_model();
        let mut trajectory = Trajectory::new(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut saw_failure = false;
        for _ in 0..200 {
            trajectory.step(1e9, &mut rng);
            if !trajectory.is_fully_operational() {
                saw_failure = true;
            }
        }
        assert!(saw_failure);
        assert!(trajectory.time() > 0.0);
    }

    #[test]
    fn step_respects_the_horizon() {
        let model = pump_model();
        let mut trajectory = Trajectory::new(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // A tiny horizon is hit before the first event with overwhelming probability.
        let elapsed = trajectory.step(1e-9, &mut rng);
        assert!(elapsed <= 1e-9);
        assert_eq!(trajectory.time(), 1e-9);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let model = pump_model();
        let mut trajectory = Trajectory::new(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            trajectory.step(1e9, &mut rng);
        }
        trajectory.reset();
        assert_eq!(trajectory.time(), 0.0);
        assert!(trajectory.is_fully_operational());
    }
}
