//! The Arcade architectural model and its builder.

use std::collections::{BTreeMap, BTreeSet};

use fault_tree::{FaultTree, ServiceTree, SystemStructure};
use serde::{Deserialize, Serialize};

use crate::component::BasicComponent;
use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::repair::{RepairStrategy, RepairUnit};
use crate::spare::SpareManagementUnit;

/// A complete Arcade architectural dependability model.
///
/// The model bundles the basic components, the repair units responsible for
/// them, optional spare management units, the reliability block structure from
/// which fault and service trees are derived, and named disasters used by
/// survivability measures.
///
/// Models are constructed through [`ArcadeModelBuilder`], which validates all
/// cross-references when [`ArcadeModelBuilder::build`] is called.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArcadeModel {
    name: String,
    components: Vec<BasicComponent>,
    repair_units: Vec<RepairUnit>,
    spare_units: Vec<SpareManagementUnit>,
    structure: SystemStructure,
    disasters: Vec<Disaster>,
    #[serde(default)]
    symmetry_guards: Vec<Vec<String>>,
}

impl ArcadeModel {
    /// Starts building a model with the given name and system structure.
    pub fn builder(name: impl Into<String>, structure: SystemStructure) -> ArcadeModelBuilder {
        ArcadeModelBuilder {
            name: name.into(),
            components: Vec::new(),
            repair_units: Vec::new(),
            spare_units: Vec::new(),
            structure,
            disasters: Vec::new(),
            symmetry_guards: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic components, in definition order.
    pub fn components(&self) -> &[BasicComponent] {
        &self.components
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&BasicComponent> {
        self.components.iter().find(|c| c.name() == name)
    }

    /// Index of a component in definition order.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name() == name)
    }

    /// The repair units.
    pub fn repair_units(&self) -> &[RepairUnit] {
        &self.repair_units
    }

    /// The spare management units.
    pub fn spare_units(&self) -> &[SpareManagementUnit] {
        &self.spare_units
    }

    /// The reliability block structure of the system.
    pub fn structure(&self) -> &SystemStructure {
        &self.structure
    }

    /// Fault tree for "the system is not fully operational" (used by the
    /// availability and reliability measures).
    pub fn degraded_fault_tree(&self) -> FaultTree {
        self.structure.degraded_fault_tree()
    }

    /// Fault tree for "the system delivers no service at all".
    pub fn total_failure_fault_tree(&self) -> FaultTree {
        self.structure.total_failure_fault_tree()
    }

    /// Quantitative service tree (used by survivability measures).
    pub fn service_tree(&self) -> ServiceTree {
        self.structure.service_tree()
    }

    /// The named disasters available for survivability analysis.
    pub fn disasters(&self) -> &[Disaster] {
        &self.disasters
    }

    /// Looks up a disaster by name.
    pub fn disaster(&self, name: &str) -> Option<&Disaster> {
        self.disasters.iter().find(|d| d.name() == name)
    }

    /// The repair unit responsible for a component, if any.
    pub fn repair_unit_of(&self, component: &str) -> Option<&RepairUnit> {
        self.repair_units
            .iter()
            .find(|ru| ru.components().iter().any(|c| c == component))
    }

    /// The spare management unit governing a component, if any.
    pub fn spare_unit_of(&self, component: &str) -> Option<&SpareManagementUnit> {
        self.spare_units
            .iter()
            .find(|smu| smu.all_components().any(|c| c == component))
    }

    /// The symmetry guards: component sets that every admissible symmetry
    /// permutation must map onto themselves. Guards protect observations
    /// that live *outside* the model — e.g. the per-line masks a facility
    /// evaluates on a merged group chain — from being folded away by the
    /// isomorphic-subtree reduction (see [`crate::families`]).
    pub fn symmetry_guards(&self) -> &[Vec<String>] {
        &self.symmetry_guards
    }

    /// The maximal groups of mutually interchangeable components — the
    /// per-line "sub-chains" that compositional lumping aggregates before the
    /// cross product. Every component appears in exactly one group; groups
    /// are ordered by their first member's definition order.
    pub fn component_families(&self) -> Vec<Vec<String>> {
        crate::families::detect_families(self)
            .into_iter()
            .map(|family| {
                family
                    .members
                    .iter()
                    .map(|&i| self.components[i].name().to_string())
                    .collect()
            })
            .collect()
    }

    /// Returns a copy of this model in which every repair unit uses `strategy`
    /// with `crews` crews, keeping its queue discipline. This is the knob
    /// turned throughout the paper's evaluation (DED, FRF-1, FRF-2, FFF-1,
    /// FFF-2).
    pub fn with_repair_strategy(
        &self,
        strategy: RepairStrategy,
        crews: usize,
    ) -> Result<ArcadeModel, ArcadeError> {
        let mut out = self.clone();
        out.repair_units = self
            .repair_units
            .iter()
            .map(|ru| {
                RepairUnit::new(ru.name(), strategy.clone(), crews).map(|new_ru| {
                    new_ru
                        .responsible_for(ru.components().iter().cloned())
                        .with_idle_cost(ru.idle_cost_per_hour())
                        .with_busy_cost(ru.busy_cost_per_hour())
                        .with_discipline(ru.discipline())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(out)
    }
}

/// Builder for [`ArcadeModel`]; validates the model when built.
#[derive(Debug, Clone)]
pub struct ArcadeModelBuilder {
    name: String,
    components: Vec<BasicComponent>,
    repair_units: Vec<RepairUnit>,
    spare_units: Vec<SpareManagementUnit>,
    structure: SystemStructure,
    disasters: Vec<Disaster>,
    symmetry_guards: Vec<Vec<String>>,
}

impl ArcadeModelBuilder {
    /// Adds a basic component.
    pub fn component(mut self, component: BasicComponent) -> Self {
        self.components.push(component);
        self
    }

    /// Adds several basic components.
    pub fn components<I>(mut self, components: I) -> Self
    where
        I: IntoIterator<Item = BasicComponent>,
    {
        self.components.extend(components);
        self
    }

    /// Adds a repair unit.
    pub fn repair_unit(mut self, unit: RepairUnit) -> Self {
        self.repair_units.push(unit);
        self
    }

    /// Adds a spare management unit.
    pub fn spare_unit(mut self, unit: SpareManagementUnit) -> Self {
        self.spare_units.push(unit);
        self
    }

    /// Adds a named disaster.
    pub fn disaster(mut self, disaster: Disaster) -> Self {
        self.disasters.push(disaster);
        self
    }

    /// Declares a symmetry guard: the given components form a set that every
    /// symmetry permutation must preserve (no member may be exchanged with a
    /// non-member). Use this when measures outside the model distinguish the
    /// guarded components — the facility layer guards each line's components
    /// of a merged group so per-line masks survive the subtree reduction.
    pub fn symmetry_guard<I, S>(mut self, components: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.symmetry_guards
            .push(components.into_iter().map(Into::into).collect());
        self
    }

    /// Validates cross-references and finalises the model.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found: duplicate component or repair-unit
    /// names, references to unknown components from repair units, spare units,
    /// disasters or the system structure, components repaired by two units, or
    /// a model without components.
    pub fn build(self) -> Result<ArcadeModel, ArcadeError> {
        if self.components.is_empty() {
            return Err(ArcadeError::InvalidParameter {
                reason: "a model needs at least one component".to_string(),
            });
        }

        // Unique component names.
        let mut names = BTreeSet::new();
        for c in &self.components {
            if !names.insert(c.name()) {
                return Err(ArcadeError::DuplicateComponent {
                    name: c.name().to_string(),
                });
            }
        }

        // Unique repair unit names and valid references; each component at most one unit.
        let mut unit_names = BTreeSet::new();
        let mut repaired_by: BTreeMap<&str, &str> = BTreeMap::new();
        for ru in &self.repair_units {
            if !unit_names.insert(ru.name().to_string()) {
                return Err(ArcadeError::DuplicateRepairUnit {
                    name: ru.name().to_string(),
                });
            }
            for c in ru.components() {
                if !names.contains(c.as_str()) {
                    return Err(ArcadeError::UnknownComponent {
                        name: c.clone(),
                        referenced_by: format!("repair unit `{}`", ru.name()),
                    });
                }
                if repaired_by.insert(c.as_str(), ru.name()).is_some() {
                    return Err(ArcadeError::ComponentRepairedTwice { name: c.clone() });
                }
            }
        }

        // Spare units reference known components and do not overlap in spares.
        let mut spare_owned: BTreeSet<&str> = BTreeSet::new();
        for smu in &self.spare_units {
            for c in smu.all_components() {
                if !names.contains(c) {
                    return Err(ArcadeError::UnknownComponent {
                        name: c.to_string(),
                        referenced_by: format!("spare unit `{}`", smu.name()),
                    });
                }
            }
            for spare in smu.spares() {
                if !spare_owned.insert(spare.as_str()) {
                    return Err(ArcadeError::InvalidSpareUnit {
                        reason: format!("spare `{spare}` is governed by more than one unit"),
                    });
                }
            }
        }

        // Disasters reference known components.
        for d in &self.disasters {
            for c in d.failed_components() {
                if !names.contains(c.as_str()) {
                    return Err(ArcadeError::UnknownComponent {
                        name: c.clone(),
                        referenced_by: format!("disaster `{}`", d.name()),
                    });
                }
            }
        }

        // The structure references known components; the first unknown
        // name in sorted order is reported.
        if let Some(unknown) = self
            .structure
            .leaves()
            .filter(|leaf| !names.contains(leaf))
            .min()
        {
            return Err(ArcadeError::UnknownComponent {
                name: unknown.to_string(),
                referenced_by: "system structure".to_string(),
            });
        }

        // Symmetry guards reference known components.
        for guard in &self.symmetry_guards {
            for c in guard {
                if !names.contains(c.as_str()) {
                    return Err(ArcadeError::UnknownComponent {
                        name: c.clone(),
                        referenced_by: "symmetry guard".to_string(),
                    });
                }
            }
        }

        Ok(ArcadeModel {
            name: self.name,
            components: self.components,
            repair_units: self.repair_units,
            spare_units: self.spare_units,
            structure: self.structure,
            disasters: self.disasters,
            symmetry_guards: self.symmetry_guards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::StructureNode;

    fn simple_structure() -> SystemStructure {
        SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
        ]))
    }

    fn component(name: &str) -> BasicComponent {
        BasicComponent::from_mttf_mttr(name, 100.0, 1.0).unwrap()
    }

    fn valid_builder() -> ArcadeModelBuilder {
        ArcadeModel::builder("test", simple_structure())
            .component(component("a"))
            .component(component("b"))
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["a", "b"]),
            )
    }

    #[test]
    fn valid_model_builds() {
        let model = valid_builder().build().unwrap();
        assert_eq!(model.name(), "test");
        assert_eq!(model.components().len(), 2);
        assert_eq!(model.repair_units().len(), 1);
        assert!(model.component("a").is_some());
        assert_eq!(model.component_index("b"), Some(1));
        assert!(model.repair_unit_of("a").is_some());
        assert!(model.spare_unit_of("a").is_none());
        assert!(model.disaster("x").is_none());
    }

    #[test]
    fn empty_model_is_rejected() {
        let result = ArcadeModel::builder("m", simple_structure()).build();
        assert!(matches!(result, Err(ArcadeError::InvalidParameter { .. })));
    }

    #[test]
    fn duplicate_components_are_rejected() {
        let result = valid_builder().component(component("a")).build();
        assert!(matches!(
            result,
            Err(ArcadeError::DuplicateComponent { .. })
        ));
    }

    #[test]
    fn unknown_component_in_repair_unit_is_rejected() {
        let result = ArcadeModel::builder("m", simple_structure())
            .component(component("a"))
            .component(component("b"))
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["missing"]),
            )
            .build();
        assert!(matches!(result, Err(ArcadeError::UnknownComponent { .. })));
    }

    #[test]
    fn component_in_two_repair_units_is_rejected() {
        let result = valid_builder()
            .repair_unit(
                RepairUnit::new("ru2", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["a"]),
            )
            .build();
        assert!(matches!(
            result,
            Err(ArcadeError::ComponentRepairedTwice { .. })
        ));
    }

    #[test]
    fn duplicate_repair_unit_names_are_rejected() {
        let result = ArcadeModel::builder("m", simple_structure())
            .component(component("a"))
            .component(component("b"))
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["a"]),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["b"]),
            )
            .build();
        assert!(matches!(
            result,
            Err(ArcadeError::DuplicateRepairUnit { .. })
        ));
    }

    #[test]
    fn unknown_component_in_structure_is_rejected() {
        let structure = SystemStructure::new(StructureNode::component("ghost"));
        let result = ArcadeModel::builder("m", structure)
            .component(component("a"))
            .build();
        assert!(matches!(result, Err(ArcadeError::UnknownComponent { .. })));

        // Of several unknown leaves, the first in sorted order is named.
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("zeta"),
            StructureNode::component("a"),
            StructureNode::redundant(vec![
                StructureNode::component("gamma"),
                StructureNode::component("beta"),
            ]),
        ]));
        let result = ArcadeModel::builder("m", structure)
            .component(component("a"))
            .build();
        assert!(
            matches!(&result, Err(ArcadeError::UnknownComponent { name, .. }) if name == "beta"),
            "{result:?}"
        );
    }

    #[test]
    fn unknown_component_in_disaster_is_rejected() {
        let result = valid_builder()
            .disaster(Disaster::new("d", ["ghost"]).unwrap())
            .build();
        assert!(matches!(result, Err(ArcadeError::UnknownComponent { .. })));
    }

    #[test]
    fn unknown_component_in_spare_unit_is_rejected() {
        let result = valid_builder()
            .spare_unit(SpareManagementUnit::new("smu", ["a"], ["ghost"]).unwrap())
            .build();
        assert!(matches!(result, Err(ArcadeError::UnknownComponent { .. })));
    }

    #[test]
    fn spare_owned_by_two_units_is_rejected() {
        let result = ArcadeModel::builder("m", simple_structure())
            .component(component("a"))
            .component(component("b"))
            .component(component("s"))
            .spare_unit(SpareManagementUnit::new("smu1", ["a"], ["s"]).unwrap())
            .spare_unit(SpareManagementUnit::new("smu2", ["b"], ["s"]).unwrap())
            .build();
        assert!(matches!(result, Err(ArcadeError::InvalidSpareUnit { .. })));
    }

    #[test]
    fn strategy_swap_preserves_everything_else() {
        let model = valid_builder().build().unwrap();
        let swapped = model
            .with_repair_strategy(RepairStrategy::FastestRepairFirst, 2)
            .unwrap();
        assert_eq!(swapped.repair_units()[0].crews(), 2);
        assert_eq!(swapped.repair_units()[0].strategy().short_name(), "FRF");
        assert_eq!(
            swapped.repair_units()[0].components(),
            model.repair_units()[0].components()
        );
        assert_eq!(swapped.components(), model.components());
    }

    #[test]
    fn trees_are_derived_from_the_structure() {
        let model = valid_builder().build().unwrap();
        assert_eq!(model.degraded_fault_tree().basic_events().len(), 2);
        assert_eq!(model.total_failure_fault_tree().basic_events().len(), 2);
        assert_eq!(model.service_tree().components().len(), 2);
    }
}
