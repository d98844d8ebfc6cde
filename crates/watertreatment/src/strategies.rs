//! The repair-strategy catalogue compared in the paper.

use arcade_core::{QueueDiscipline, RepairStrategy};
use serde::{Deserialize, Serialize};

/// A named repair-strategy configuration (strategy, crew count and queue
/// discipline), e.g. `FRF-2` = fastest repair first with two crews.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategySpec {
    /// Label used in tables and figures (`DED`, `FRF-1`, `FFF-2`, ...).
    pub label: String,
    /// The scheduling policy.
    pub strategy: RepairStrategy,
    /// Number of repair crews per repair unit.
    pub crews: usize,
    /// How each repair unit queues and serves its failed components; the
    /// paper's strategies use the default, non-preemptive discipline.
    #[serde(default)]
    pub discipline: QueueDiscipline,
}

impl StrategySpec {
    /// Creates a strategy specification with the default queue discipline.
    pub fn new(label: impl Into<String>, strategy: RepairStrategy, crews: usize) -> Self {
        StrategySpec {
            label: label.into(),
            strategy,
            crews,
            discipline: QueueDiscipline::default(),
        }
    }

    /// Sets the queue discipline; the label is kept as it is.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }
}

/// Dedicated repair (`DED`): one crew per component.
pub fn dedicated() -> StrategySpec {
    StrategySpec::new("DED", RepairStrategy::Dedicated, 1)
}

/// Fastest repair first with the given number of crews (`FRF-k`).
pub fn frf(crews: usize) -> StrategySpec {
    StrategySpec::new(
        format!("FRF-{crews}"),
        RepairStrategy::FastestRepairFirst,
        crews,
    )
}

/// Fastest failure first with the given number of crews (`FFF-k`).
pub fn fff(crews: usize) -> StrategySpec {
    StrategySpec::new(
        format!("FFF-{crews}"),
        RepairStrategy::FastestFailureFirst,
        crews,
    )
}

/// First come, first served with the given number of crews (`FCFS-k`).
/// The paper uses FCFS only as a tie-break rule; it is exposed here as a
/// first-class strategy for the ablation benchmarks.
pub fn fcfs(crews: usize) -> StrategySpec {
    StrategySpec::new(
        format!("FCFS-{crews}"),
        RepairStrategy::FirstComeFirstServe,
        crews,
    )
}

/// Preemptive fastest repair first with the given number of crews (`FRF-kP`).
/// Not part of the paper's evaluation; used by the ablation benchmarks to show
/// the effect of the scheduling discipline on the state space and the measures.
pub fn frf_preemptive(crews: usize) -> StrategySpec {
    StrategySpec::new(
        format!("FRF-{crews}P"),
        RepairStrategy::FastestRepairFirst,
        crews,
    )
    .with_discipline(QueueDiscipline::Preemptive)
}

/// Preemptive fastest failure first with the given number of crews (`FFF-kP`).
pub fn fff_preemptive(crews: usize) -> StrategySpec {
    StrategySpec::new(
        format!("FFF-{crews}P"),
        RepairStrategy::FastestFailureFirst,
        crews,
    )
    .with_discipline(QueueDiscipline::Preemptive)
}

/// The five configurations evaluated throughout the paper:
/// `DED`, `FRF-1`, `FRF-2`, `FFF-1`, `FFF-2`.
pub fn paper_strategies() -> Vec<StrategySpec> {
    vec![dedicated(), frf(1), frf(2), fff(1), fff(2)]
}

/// The subset of strategies shown in the Line 1 / Disaster 1 figures
/// (`DED`, `FRF-1`, `FRF-2`); FFF coincides with FRF there because only pumps
/// have failed.
pub fn disaster1_strategies() -> Vec<StrategySpec> {
    vec![dedicated(), frf(1), frf(2)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(dedicated().label, "DED");
        assert_eq!(frf(1).label, "FRF-1");
        assert_eq!(frf(2).label, "FRF-2");
        assert_eq!(fff(2).label, "FFF-2");
        assert_eq!(fcfs(1).label, "FCFS-1");
    }

    #[test]
    fn paper_strategy_set() {
        let all = paper_strategies();
        assert_eq!(all.len(), 5);
        let labels: Vec<_> = all.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"]);
        assert_eq!(disaster1_strategies().len(), 3);
    }

    #[test]
    fn crew_counts_are_recorded() {
        assert_eq!(frf(2).crews, 2);
        assert_eq!(fff(1).crews, 1);
        assert_eq!(dedicated().crews, 1);
    }

    #[test]
    fn preemptive_variants_are_flagged_and_labelled() {
        let spec = frf_preemptive(2);
        assert_eq!(spec.label, "FRF-2P");
        assert_eq!(spec.discipline, QueueDiscipline::Preemptive);
        assert_eq!(frf(2).discipline, QueueDiscipline::PriorityCanonical);
        assert_eq!(fff_preemptive(1).discipline, QueueDiscipline::Preemptive);
    }
}
