//! # arcade-core — architectural dependability evaluation
//!
//! A Rust implementation of the **Arcade** architectural dependability
//! framework as used in *"Evaluating Repair Strategies for a Water-Treatment
//! Facility using Arcade"* (DSN 2010). Arcade models a system as
//!
//! * **basic components** with exponential failure and repair behaviour and
//!   per-mode cost rates ([`BasicComponent`]),
//! * **repair units** owning one or more crews and scheduling repairs with a
//!   strategy — dedicated, FCFS, fastest-repair-first, fastest-failure-first or
//!   a static priority list ([`RepairUnit`], [`RepairStrategy`]),
//! * **spare management units** activating dormant spares when primaries fail
//!   ([`SpareManagementUnit`]),
//!
//! together with the system's reliability block structure (from the
//! [`fault_tree`] crate), named disasters and measure specifications.
//!
//! The deterministic subclass used in the paper is composed into a labelled
//! CTMC ([`CompiledModel`]), on which the measures are evaluated with the
//! stochastic model-checking algorithms of the [`ctmc`] crate:
//!
//! * reliability and point availability (time-bounded reachability),
//! * steady-state availability,
//! * **quantitative survivability** — the probability of recovering a given
//!   service level within a deadline after a disaster, where the service level
//!   is defined by the quantitative service tree,
//! * instantaneous and accumulated repair cost (Markov reward measures).
//!
//! Every measure is solved by one type, the solver-ready
//! [`CompiledQuotient`] of a chain. [`Analysis`] (one model) and
//! [`FacilityAnalysis`] (several lines, one artifact per composition group)
//! are front ends over it.
//!
//! # Quick start
//!
//! ```
//! use arcade_core::{Analysis, ArcadeModel, BasicComponent, Disaster, RepairStrategy, RepairUnit};
//! use fault_tree::{StructureNode, SystemStructure};
//!
//! # fn main() -> Result<(), arcade_core::ArcadeError> {
//! // Two redundant pumps sharing a single repair crew.
//! let structure = SystemStructure::new(StructureNode::redundant(vec![
//!     StructureNode::component("pump-1"),
//!     StructureNode::component("pump-2"),
//! ]));
//! let model = ArcadeModel::builder("pumping-station", structure)
//!     .component(BasicComponent::from_mttf_mttr("pump-1", 500.0, 1.0)?.with_failed_cost(3.0))
//!     .component(BasicComponent::from_mttf_mttr("pump-2", 500.0, 1.0)?.with_failed_cost(3.0))
//!     .repair_unit(
//!         RepairUnit::new("crew", RepairStrategy::FirstComeFirstServe, 1)?
//!             .responsible_for(["pump-1", "pump-2"])
//!             .with_idle_cost(1.0),
//!     )
//!     .disaster(Disaster::new("both-pumps", ["pump-1", "pump-2"])?)
//!     .build()?;
//!
//! let analysis = Analysis::new(&model)?;
//! let availability = analysis.steady_state_availability()?;
//! let survivability =
//!     analysis.survivability(model.disaster("both-pumps").unwrap(), 0.5, 2.0)?;
//! assert!(availability > 0.99);
//! assert!(survivability > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod component;
pub mod composer;
pub mod disaster;
pub mod error;
pub mod facility;
pub mod families;
pub mod measures;
pub mod model;
pub mod quotient;
pub mod repair;
pub mod spare;
pub mod state;

pub use analysis::{Analysis, Series};
pub use component::BasicComponent;
pub use composer::{
    CompiledModel, ComposerOptions, LumpedModel, LumpingMode, StateSpaceStats, SubchainStats,
    SubtreeOrbitStats, LABEL_DOWN, LABEL_NO_SERVICE, LABEL_OPERATIONAL,
};
pub use ctmc::ExecOptions;
pub use disaster::Disaster;
pub use error::ArcadeError;
pub use facility::{
    CompositionGroup, CompositionTree, FacilityAnalysis, FacilityDisaster, FacilityLine,
    FacilityLineStats, FacilityModel, FacilityStats, JointAvailability, JointReduction,
    OrbitAvailability,
};
pub use families::{detect_families, detect_subtree_families, ComponentFamily, SubtreeFamily};
pub use measures::{FacilityMeasure, Measure, MeasureResult};
pub use model::{ArcadeModel, ArcadeModelBuilder};
pub use quotient::{CompiledQuotient, QuotientParts};
pub use repair::{RepairStrategy, RepairUnit};
pub use spare::SpareManagementUnit;
pub use state::{ComponentIndex, ComponentStatus, GlobalState, QueueEncoding};
