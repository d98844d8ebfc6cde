//! Repair units, repair strategies and queue disciplines.
//!
//! A repair unit is responsible for a set of components and owns one or more
//! repair crews. When a component under its responsibility fails it enters the
//! unit's queue; whenever a crew is free the unit dispatches the waiting
//! component selected by its [`RepairStrategy`]. How the unit keeps its queue
//! and whether a running repair can be interrupted is its
//! [`QueueDiscipline`]; the default is *non-preemptive*, as in the strategies
//! evaluated in the DSN 2010 paper.

use serde::{Deserialize, Serialize};

use crate::component::BasicComponent;
use crate::error::ArcadeError;

/// The scheduling policy of a repair unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairStrategy {
    /// One crew per component: every failed component is repaired immediately.
    /// The paper's `DED` strategy.
    Dedicated,
    /// First come, first served: the component that failed earliest is repaired
    /// first. This is also the tie-breaking rule of every other strategy.
    FirstComeFirstServe,
    /// Fastest repair first (`FRF`): the waiting component with the highest
    /// repair rate (shortest MTTR) is dispatched first; ties broken FCFS.
    FastestRepairFirst,
    /// Fastest failure first (`FFF`): the waiting component with the highest
    /// failure rate (shortest MTTF) is dispatched first; ties broken FCFS.
    FastestFailureFirst,
    /// Static priority list: components earlier in the list are dispatched
    /// first; unlisted components have the lowest priority; ties broken FCFS.
    Priority(Vec<String>),
}

impl RepairStrategy {
    /// A short identifier matching the paper's naming (`DED`, `FCFS`, `FRF`,
    /// `FFF`, `PRIO`).
    pub fn short_name(&self) -> &'static str {
        match self {
            RepairStrategy::Dedicated => "DED",
            RepairStrategy::FirstComeFirstServe => "FCFS",
            RepairStrategy::FastestRepairFirst => "FRF",
            RepairStrategy::FastestFailureFirst => "FFF",
            RepairStrategy::Priority(_) => "PRIO",
        }
    }

    /// Returns the dispatch priority of a component under this strategy; larger
    /// values are served first. FCFS gives every component the same priority so
    /// that only arrival order decides.
    pub fn priority_of(&self, component: &BasicComponent) -> f64 {
        match self {
            RepairStrategy::Dedicated => 0.0,
            RepairStrategy::FirstComeFirstServe => 0.0,
            RepairStrategy::FastestRepairFirst => component.repair_rate(),
            RepairStrategy::FastestFailureFirst => component.failure_rate(),
            RepairStrategy::Priority(order) => {
                match order.iter().position(|n| n == component.name()) {
                    Some(pos) => (order.len() - pos) as f64,
                    None => 0.0,
                }
            }
        }
    }

    /// Whether two components have equal dispatch priority (then FCFS applies).
    pub fn same_priority(&self, a: &BasicComponent, b: &BasicComponent) -> bool {
        (self.priority_of(a) - self.priority_of(b)).abs() < 1e-12
    }
}

/// How a repair unit keeps its failed components and hands them to crews.
///
/// The strategy decides *which* waiting component is served first; the
/// discipline decides whether a repair in progress may be interrupted and
/// how much of the waiting order the composed state records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Non-preemptive: a repair runs to completion, and a free crew takes
    /// the highest-priority waiting component, FCFS among equal priorities.
    /// The waiting queue is kept sorted that way, so states that differ only
    /// in the arrival order of components with *different* priorities are
    /// one state. This is the discipline of the reproduction and of every
    /// paper strategy.
    #[default]
    PriorityCanonical,
    /// Dispatches exactly like [`QueueDiscipline::PriorityCanonical`] but
    /// keeps the queue in full arrival order. The measures are the same and
    /// the state space is larger: on Line 2 under FRF-1, 986,410 flat states
    /// against 8,129, which is also the paper's count. It is the unreduced
    /// baseline of the ablation bench and the composer's property tests.
    ArrivalOrder,
    /// Preemptive: the crews always serve the highest-priority failed
    /// components (ties by component definition order), interrupting
    /// lower-priority repairs when needed. Because repair times are
    /// exponential, preempt-resume and preempt-restart coincide, so the
    /// composed model is still a CTMC. Who is served is a function of the
    /// failed set, so the unit keeps no queue and its state space does not
    /// depend on the crew count. An extension for ablation studies; the
    /// paper's strategies are non-preemptive.
    Preemptive,
}

/// A repair unit: a named set of crews responsible for a set of components.
///
/// # Example
///
/// ```
/// # use arcade_core::{RepairUnit, RepairStrategy};
/// # fn main() -> Result<(), arcade_core::ArcadeError> {
/// let unit = RepairUnit::new("line-1-ru", RepairStrategy::FastestRepairFirst, 2)?
///     .responsible_for(["pump-1", "pump-2", "reservoir"])
///     .with_idle_cost(1.0);
/// assert_eq!(unit.crews(), 2);
/// assert_eq!(unit.components().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairUnit {
    name: String,
    strategy: RepairStrategy,
    crews: usize,
    components: Vec<String>,
    idle_cost_per_hour: f64,
    busy_cost_per_hour: f64,
    #[serde(default)]
    discipline: QueueDiscipline,
}

impl RepairUnit {
    /// Creates a repair unit with the given strategy and number of crews.
    ///
    /// For [`RepairStrategy::Dedicated`] the crew count is ignored during
    /// composition (every component always has a crew available), but it is
    /// still validated.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidParameter`] if the name is empty or the
    /// crew count is zero.
    pub fn new(
        name: impl Into<String>,
        strategy: RepairStrategy,
        crews: usize,
    ) -> Result<Self, ArcadeError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ArcadeError::InvalidParameter {
                reason: "repair unit name must not be empty".to_string(),
            });
        }
        if crews == 0 {
            return Err(ArcadeError::InvalidParameter {
                reason: format!("repair unit `{name}` must have at least one crew"),
            });
        }
        Ok(RepairUnit {
            name,
            strategy,
            crews,
            components: Vec::new(),
            idle_cost_per_hour: 0.0,
            busy_cost_per_hour: 0.0,
            discipline: QueueDiscipline::default(),
        })
    }

    /// Declares the components this unit is responsible for (appends).
    pub fn responsible_for<I, S>(mut self, components: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.components
            .extend(components.into_iter().map(Into::into));
        self
    }

    /// Sets the cost per hour of an idle crew (1 in the paper's cost model).
    pub fn with_idle_cost(mut self, cost_per_hour: f64) -> Self {
        self.idle_cost_per_hour = cost_per_hour;
        self
    }

    /// Sets the cost per hour of a busy crew (0 in the paper's cost model).
    pub fn with_busy_cost(mut self, cost_per_hour: f64) -> Self {
        self.busy_cost_per_hour = cost_per_hour;
        self
    }

    /// Sets the unit's queue discipline (see [`QueueDiscipline`]).
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The unit's queue discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// The unit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The repair strategy.
    pub fn strategy(&self) -> &RepairStrategy {
        &self.strategy
    }

    /// Number of repair crews.
    pub fn crews(&self) -> usize {
        self.crews
    }

    /// Effective number of crews given the number of components covered; the
    /// dedicated strategy behaves as if it had one crew per component.
    pub fn effective_crews(&self) -> usize {
        match self.strategy {
            RepairStrategy::Dedicated => self.components.len().max(1),
            _ => self.crews,
        }
    }

    /// The component names under this unit's responsibility.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Cost per hour of an idle crew.
    pub fn idle_cost_per_hour(&self) -> f64 {
        self.idle_cost_per_hour
    }

    /// Cost per hour of a busy crew.
    pub fn busy_cost_per_hour(&self) -> f64 {
        self.busy_cost_per_hour
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn component(name: &str, mttf: f64, mttr: f64) -> BasicComponent {
        BasicComponent::from_mttf_mttr(name, mttf, mttr).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        assert!(RepairUnit::new("", RepairStrategy::Dedicated, 1).is_err());
        assert!(RepairUnit::new("ru", RepairStrategy::Dedicated, 0).is_err());
        assert!(RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1).is_ok());
    }

    #[test]
    fn short_names_match_the_paper() {
        assert_eq!(RepairStrategy::Dedicated.short_name(), "DED");
        assert_eq!(RepairStrategy::FirstComeFirstServe.short_name(), "FCFS");
        assert_eq!(RepairStrategy::FastestRepairFirst.short_name(), "FRF");
        assert_eq!(RepairStrategy::FastestFailureFirst.short_name(), "FFF");
        assert_eq!(RepairStrategy::Priority(vec![]).short_name(), "PRIO");
    }

    #[test]
    fn frf_prefers_short_repairs() {
        let pump = component("pump", 500.0, 1.0);
        let sand_filter = component("sf", 1000.0, 100.0);
        let strategy = RepairStrategy::FastestRepairFirst;
        assert!(strategy.priority_of(&pump) > strategy.priority_of(&sand_filter));
    }

    #[test]
    fn fff_prefers_short_lifetimes() {
        let pump = component("pump", 500.0, 1.0);
        let reservoir = component("res", 6000.0, 12.0);
        let strategy = RepairStrategy::FastestFailureFirst;
        assert!(strategy.priority_of(&pump) > strategy.priority_of(&reservoir));
    }

    #[test]
    fn fcfs_gives_equal_priorities() {
        let a = component("a", 10.0, 1.0);
        let b = component("b", 20.0, 2.0);
        let strategy = RepairStrategy::FirstComeFirstServe;
        assert!(strategy.same_priority(&a, &b));
    }

    #[test]
    fn priority_list_orders_components() {
        let a = component("a", 10.0, 1.0);
        let b = component("b", 10.0, 1.0);
        let c = component("c", 10.0, 1.0);
        let strategy = RepairStrategy::Priority(vec!["b".into(), "a".into()]);
        assert!(strategy.priority_of(&b) > strategy.priority_of(&a));
        assert!(strategy.priority_of(&a) > strategy.priority_of(&c));
        assert_eq!(strategy.priority_of(&c), 0.0);
    }

    #[test]
    fn same_priority_for_identical_rates() {
        let p1 = component("p1", 500.0, 1.0);
        let p2 = component("p2", 500.0, 1.0);
        for strategy in [
            RepairStrategy::FastestRepairFirst,
            RepairStrategy::FastestFailureFirst,
            RepairStrategy::FirstComeFirstServe,
        ] {
            assert!(strategy.same_priority(&p1, &p2), "{strategy:?}");
        }
    }

    #[test]
    fn effective_crews_for_dedicated_matches_component_count() {
        let unit = RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
            .unwrap()
            .responsible_for(["a", "b", "c"]);
        assert_eq!(unit.effective_crews(), 3);
        let unit = RepairUnit::new("ru", RepairStrategy::FastestRepairFirst, 2)
            .unwrap()
            .responsible_for(["a", "b", "c"]);
        assert_eq!(unit.effective_crews(), 2);
    }

    #[test]
    fn cost_setters() {
        let unit = RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
            .unwrap()
            .with_idle_cost(1.0)
            .with_busy_cost(0.5);
        assert_eq!(unit.idle_cost_per_hour(), 1.0);
        assert_eq!(unit.busy_cost_per_hour(), 0.5);
    }

    #[test]
    fn preemption_flag() {
        let unit = RepairUnit::new("ru", RepairStrategy::FastestRepairFirst, 2).unwrap();
        assert_eq!(unit.discipline(), QueueDiscipline::PriorityCanonical);
        let unit = unit.with_discipline(QueueDiscipline::Preemptive);
        assert_eq!(unit.discipline(), QueueDiscipline::Preemptive);
    }
}
