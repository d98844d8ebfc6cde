//! Global states of a composed Arcade model.
//!
//! A global state records, for every basic component, whether it is
//! operational, dormant (a deactivated spare), waiting for repair or under
//! repair, plus the contents of every repair unit's waiting queue. The queue
//! contents are part of the state because the repair strategies of the paper
//! (FCFS tie-breaking in particular) depend on the order in which components
//! failed.

use serde::{Deserialize, Serialize};

/// Index of a component within a model (order of definition).
pub type ComponentIndex = usize;

/// The mode of one component in a global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentStatus {
    /// Up and active (failing at its full failure rate, contributing service).
    Operational,
    /// Up but deactivated spare (failing at its dormancy-scaled rate, not
    /// contributing service).
    Dormant,
    /// Failed and waiting in its repair unit's queue.
    WaitingForRepair,
    /// Failed and currently being repaired by a crew.
    UnderRepair,
}

impl ComponentStatus {
    /// Whether the component is failed (waiting or under repair).
    pub fn is_failed(self) -> bool {
        matches!(
            self,
            ComponentStatus::WaitingForRepair | ComponentStatus::UnderRepair
        )
    }

    /// Whether the component currently contributes service.
    pub fn provides_service(self) -> bool {
        matches!(self, ComponentStatus::Operational)
    }
}

/// A global state of the composed model.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalState {
    /// Status of every component, indexed by [`ComponentIndex`].
    pub statuses: Vec<ComponentStatus>,
    /// Waiting queue of every repair unit, in the order its
    /// [`QueueDiscipline`](crate::QueueDiscipline) keeps (always empty for a
    /// preemptive unit).
    pub queues: Vec<Vec<ComponentIndex>>,
}

impl GlobalState {
    /// Creates a state with the given component statuses and empty queues.
    pub fn new(statuses: Vec<ComponentStatus>, num_repair_units: usize) -> Self {
        GlobalState {
            statuses,
            queues: vec![Vec::new(); num_repair_units],
        }
    }

    /// Number of failed components (waiting or under repair).
    pub fn num_failed(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_failed()).count()
    }

    /// Whether the given component is failed in this state.
    pub fn is_failed(&self, component: ComponentIndex) -> bool {
        self.statuses[component].is_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(!ComponentStatus::Operational.is_failed());
        assert!(!ComponentStatus::Dormant.is_failed());
        assert!(ComponentStatus::WaitingForRepair.is_failed());
        assert!(ComponentStatus::UnderRepair.is_failed());
        assert!(ComponentStatus::Operational.provides_service());
        assert!(!ComponentStatus::Dormant.provides_service());
        assert!(!ComponentStatus::UnderRepair.provides_service());
    }

    #[test]
    fn state_counts() {
        let state = GlobalState::new(
            vec![
                ComponentStatus::Operational,
                ComponentStatus::UnderRepair,
                ComponentStatus::WaitingForRepair,
                ComponentStatus::Dormant,
            ],
            2,
        );
        assert_eq!(state.num_failed(), 2);
        assert!(state.is_failed(1));
        assert!(!state.is_failed(0));
        assert_eq!(state.queues.len(), 2);
    }

    #[test]
    fn default_queue_encoding_is_canonical() {
        use crate::repair::QueueDiscipline;
        assert_eq!(
            QueueDiscipline::default(),
            QueueDiscipline::PriorityCanonical
        );
    }
}
