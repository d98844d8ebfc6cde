//! Reliability block structure of a system.
//!
//! The water-treatment paper uses two different state classifications derived
//! from the same physical architecture:
//!
//! * availability and reliability call a line *down* as soon as it is **not
//!   fully operational** (one softener failure already counts);
//! * quantitative survivability measures the **fraction of service** still
//!   delivered, where redundant components degrade gracefully and series
//!   phases bottleneck the line.
//!
//! Both classifications, as well as the AND/OR fault tree and its quantitative
//! service-tree dual described in the paper, follow mechanically from a single
//! positive description of the architecture: which components operate in
//! series, which are redundant, and which groups carry spares. That positive
//! description is a [`StructureNode`]; this module derives the three views from
//! it.

use serde::{Deserialize, Serialize};

use crate::fault::{FaultNode, FaultTree};
use crate::service::{ServiceNode, ServiceTree};

/// A node of the reliability block structure of a system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StructureNode {
    /// A single component, referenced by name.
    Component(String),
    /// All children are needed; there is no shared capacity between them
    /// (e.g. the successive treatment phases of a process line).
    Series(Vec<StructureNode>),
    /// Redundant children sharing the load: full service requires all of them,
    /// but each working child still contributes its share of the capacity.
    Redundant(Vec<StructureNode>),
    /// A group of identical children of which `required` are needed for full
    /// service; the rest are spares. Spares keep the service level unchanged
    /// while unused, so they do not add service intervals.
    ///
    /// The children are intended to be individual components (as in the pump
    /// groups of the water-treatment facility). Nesting gates below a
    /// `RequiredOf` is allowed, but then the boolean fault trees count
    /// *degraded children* while the service tree sums *fractional
    /// capacities*, so the two views may classify partially-degraded groups
    /// differently.
    RequiredOf {
        /// Number of simultaneously working children needed for full service.
        required: usize,
        /// Child nodes (their count minus `required` is the number of spares).
        children: Vec<StructureNode>,
    },
}

impl StructureNode {
    /// Creates a component leaf.
    pub fn component(name: impl Into<String>) -> Self {
        StructureNode::Component(name.into())
    }

    /// Creates a series composition.
    pub fn series(children: Vec<StructureNode>) -> Self {
        StructureNode::Series(children)
    }

    /// Creates a redundant (load-sharing) group.
    pub fn redundant(children: Vec<StructureNode>) -> Self {
        StructureNode::Redundant(children)
    }

    /// Creates a `required`-out-of-`n` group with spares.
    pub fn required_of(required: usize, children: Vec<StructureNode>) -> Self {
        StructureNode::RequiredOf { required, children }
    }

    /// The names of the component leaves below this node, depth first and
    /// left to right; a component placed twice appears twice. Every tree
    /// derived from the node lists its leaves in this order.
    pub fn leaves(&self) -> impl Iterator<Item = &str> + '_ {
        let mut pending = vec![self];
        std::iter::from_fn(move || loop {
            match pending.pop()? {
                StructureNode::Component(name) => return Some(name.as_str()),
                StructureNode::Series(children)
                | StructureNode::Redundant(children)
                | StructureNode::RequiredOf { children, .. } => {
                    pending.extend(children.iter().rev())
                }
            }
        })
    }

    /// Fault tree for "the system is not fully operational".
    ///
    /// Any failure inside a series or redundant group degrades the system; in a
    /// `required`-of-`n` group the spares absorb the first `n - required`
    /// failures.
    pub fn degraded_fault_node(&self) -> FaultNode {
        match self {
            StructureNode::Component(name) => FaultNode::basic(name.clone()),
            StructureNode::Series(children) | StructureNode::Redundant(children) => FaultNode::or(
                children
                    .iter()
                    .map(StructureNode::degraded_fault_node)
                    .collect(),
            ),
            StructureNode::RequiredOf { required, children } => {
                let spares = children.len().saturating_sub(*required);
                FaultNode::vote(
                    spares + 1,
                    children
                        .iter()
                        .map(StructureNode::degraded_fault_node)
                        .collect(),
                )
            }
        }
    }

    /// Fault tree for "the system delivers no service at all".
    ///
    /// Series phases fail as soon as one phase delivers nothing; redundant and
    /// spare groups only fail once every member has failed. This is the
    /// AND/OR fault tree whose gate-swapped dual is the quantitative service
    /// tree of the paper.
    pub fn total_failure_fault_node(&self) -> FaultNode {
        match self {
            StructureNode::Component(name) => FaultNode::basic(name.clone()),
            StructureNode::Series(children) => FaultNode::or(
                children
                    .iter()
                    .map(StructureNode::total_failure_fault_node)
                    .collect(),
            ),
            StructureNode::Redundant(children) => FaultNode::and(
                children
                    .iter()
                    .map(StructureNode::total_failure_fault_node)
                    .collect(),
            ),
            StructureNode::RequiredOf { children, .. } => FaultNode::vote(
                children.len(),
                children
                    .iter()
                    .map(StructureNode::total_failure_fault_node)
                    .collect(),
            ),
        }
    }

    /// Quantitative service tree node for this structure.
    pub fn service_node(&self) -> ServiceNode {
        match self {
            StructureNode::Component(name) => ServiceNode::Basic(name.clone()),
            StructureNode::Series(children) => {
                ServiceNode::Min(children.iter().map(StructureNode::service_node).collect())
            }
            StructureNode::Redundant(children) => {
                ServiceNode::Mean(children.iter().map(StructureNode::service_node).collect())
            }
            StructureNode::RequiredOf { required, children } => ServiceNode::Ratio {
                required: *required,
                children: children.iter().map(StructureNode::service_node).collect(),
            },
        }
    }
}

/// The reliability block structure of a complete system, with conversions to
/// the derived fault and service trees.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemStructure {
    root: StructureNode,
}

impl SystemStructure {
    /// Creates a system structure from its root node.
    pub fn new(root: StructureNode) -> Self {
        SystemStructure { root }
    }

    /// The root node.
    pub fn root(&self) -> &StructureNode {
        &self.root
    }

    /// The component names of the structure's leaves, in the leaf order of
    /// [`StructureNode::leaves`]: leaf `i` of every derived tree names the
    /// `i`-th of them, which [`ServiceTree::service_level_by_leaf`] and
    /// [`FaultTree::is_failed_by_leaf`] rely on.
    pub fn leaves(&self) -> impl Iterator<Item = &str> + '_ {
        self.root.leaves()
    }

    /// Fault tree for "not fully operational" (used by availability and
    /// reliability in the paper).
    pub fn degraded_fault_tree(&self) -> FaultTree {
        FaultTree::new(self.root.degraded_fault_node())
    }

    /// Fault tree for "no service at all".
    pub fn total_failure_fault_tree(&self) -> FaultTree {
        FaultTree::new(self.root.total_failure_fault_node())
    }

    /// Quantitative service tree (used by survivability in the paper).
    pub fn service_tree(&self) -> ServiceTree {
        ServiceTree::new(self.root.service_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line 1 of the water-treatment facility: 3 softeners, 3 sand filters,
    /// 1 reservoir and 4 pumps of which 3 are required.
    fn line1() -> SystemStructure {
        SystemStructure::new(StructureNode::series(vec![
            StructureNode::redundant(
                (1..=3)
                    .map(|i| StructureNode::component(format!("st{i}")))
                    .collect(),
            ),
            StructureNode::redundant(
                (1..=3)
                    .map(|i| StructureNode::component(format!("sf{i}")))
                    .collect(),
            ),
            StructureNode::component("res"),
            StructureNode::required_of(
                3,
                (1..=4)
                    .map(|i| StructureNode::component(format!("p{i}")))
                    .collect(),
            ),
        ]))
    }

    fn failed<'a>(down: &'a [&'a str]) -> impl Fn(&str) -> bool + 'a {
        move |name: &str| down.contains(&name)
    }

    #[test]
    fn degraded_tree_declares_down_on_any_core_failure() {
        let tree = line1().degraded_fault_tree();
        assert!(!tree.is_failed(failed(&[])));
        assert!(tree.is_failed(failed(&["st1"])));
        assert!(tree.is_failed(failed(&["sf2"])));
        assert!(tree.is_failed(failed(&["res"])));
        // One pump is a spare.
        assert!(!tree.is_failed(failed(&["p1"])));
        assert!(tree.is_failed(failed(&["p1", "p4"])));
    }

    #[test]
    fn total_failure_tree_requires_whole_groups_to_fail() {
        let tree = line1().total_failure_fault_tree();
        assert!(!tree.is_failed(failed(&["st1", "sf1", "p1", "p2", "p3"])));
        assert!(tree.is_failed(failed(&["st1", "st2", "st3"])));
        assert!(tree.is_failed(failed(&["res"])));
        assert!(tree.is_failed(failed(&["p1", "p2", "p3", "p4"])));
    }

    #[test]
    fn service_tree_matches_paper_intervals_for_line1() {
        let service = line1().service_tree();
        let levels = service.attainable_levels();
        let expected = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0];
        assert_eq!(levels.len(), expected.len(), "{levels:?}");
        for (got, want) in levels.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn service_tree_matches_paper_intervals_for_line2() {
        // Line 2: 3 softeners, 2 sand filters, 1 reservoir, 3 pumps (2 required).
        let line2 = SystemStructure::new(StructureNode::series(vec![
            StructureNode::redundant(
                (1..=3)
                    .map(|i| StructureNode::component(format!("st{i}")))
                    .collect(),
            ),
            StructureNode::redundant(
                (1..=2)
                    .map(|i| StructureNode::component(format!("sf{i}")))
                    .collect(),
            ),
            StructureNode::component("res"),
            StructureNode::required_of(
                2,
                (1..=3)
                    .map(|i| StructureNode::component(format!("p{i}")))
                    .collect(),
            ),
        ]));
        let levels = line2.service_tree().attainable_levels();
        let expected = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0];
        assert_eq!(levels.len(), expected.len(), "{levels:?}");
        for (got, want) in levels.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
        assert_eq!(line2.service_tree().service_intervals().len(), 4);
    }

    #[test]
    fn degraded_down_iff_service_below_one() {
        // The two views agree: "not fully operational" is exactly "service < 1".
        let structure = line1();
        let degraded = structure.degraded_fault_tree();
        let service = structure.service_tree();
        let components: Vec<String> = degraded.basic_events().into_iter().collect();
        // Exhaustively check all subsets of failed components (2^11 = 2048).
        for mask in 0..(1u32 << components.len()) {
            let down: Vec<&str> = components
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            let is_degraded = degraded.is_failed(|n| down.contains(&n));
            let level = service.service_level(|n| if down.contains(&n) { 0.0 } else { 1.0 });
            assert_eq!(is_degraded, level < 1.0 - 1e-12, "mask {mask:b}");
        }
    }

    #[test]
    fn total_failure_iff_service_zero() {
        let structure = line1();
        let total = structure.total_failure_fault_tree();
        let service = structure.service_tree();
        let components: Vec<String> = total.basic_events().into_iter().collect();
        for mask in 0..(1u32 << components.len()) {
            let down: Vec<&str> = components
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            let is_total = total.is_failed(|n| down.contains(&n));
            let level = service.service_level(|n| if down.contains(&n) { 0.0 } else { 1.0 });
            assert_eq!(is_total, level < 1e-12, "mask {mask:b}");
        }
    }

    #[test]
    fn dualising_the_total_failure_tree_agrees_for_pure_and_or_structures() {
        // The paper's construction swaps AND and OR gates of the fault tree. For
        // structures without spare groups the gate-swapped dual coincides with
        // the directly constructed service tree on every state.
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::redundant(
                (1..=3)
                    .map(|i| StructureNode::component(format!("st{i}")))
                    .collect(),
            ),
            StructureNode::redundant(
                (1..=2)
                    .map(|i| StructureNode::component(format!("sf{i}")))
                    .collect(),
            ),
            StructureNode::component("res"),
        ]));
        let via_dual = structure.total_failure_fault_tree().to_service_tree();
        let direct = structure.service_tree();
        let components: Vec<String> = structure
            .degraded_fault_tree()
            .basic_events()
            .into_iter()
            .collect();
        for mask in 0..(1u32 << components.len()) {
            let down: Vec<&str> = components
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            let supply = |n: &str| if down.contains(&n) { 0.0 } else { 1.0 };
            let a = via_dual.service_level(supply);
            let b = direct.service_level(supply);
            assert!((a - b).abs() < 1e-9, "mask {mask:b}: dual {a} direct {b}");
        }
    }

    #[test]
    fn dual_and_direct_service_trees_agree_on_total_failure() {
        // With spare groups the dual only has to agree on whether *any* service
        // is delivered (the spare threshold differs quantitatively).
        let structure = line1();
        let via_dual = structure.total_failure_fault_tree().to_service_tree();
        let direct = structure.service_tree();
        let components: Vec<String> = structure
            .degraded_fault_tree()
            .basic_events()
            .into_iter()
            .collect();
        for mask in 0..(1u32 << components.len()) {
            let down: Vec<&str> = components
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            let supply = |n: &str| if down.contains(&n) { 0.0 } else { 1.0 };
            let a = via_dual.service_level(supply);
            let b = direct.service_level(supply);
            assert_eq!(a < 1e-12, b < 1e-12, "mask {mask:b}: dual {a} direct {b}");
        }
    }
}
