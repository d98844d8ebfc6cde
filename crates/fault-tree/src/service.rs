//! Quantitative service trees.
//!
//! The paper's quantitative survivability measure needs a map from system
//! states to a *service level* in `[0, 1]`. That map is given by the service
//! tree obtained from the fault tree by swapping gates:
//!
//! * series phases (fault-OR) become [`ServiceNode::Min`] — the weakest phase
//!   bottlenecks the whole line (quantitative AND);
//! * redundant components (fault-AND) become [`ServiceNode::Mean`] — each
//!   working component contributes its share of the phase's capacity
//!   (quantitative OR);
//! * `m`-out-of-`n` groups with spares become [`ServiceNode::Ratio`] — service
//!   is the number of working components capped at the required count, divided
//!   by the required count, so spare components do not add service intervals.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// A node of a quantitative service tree. Every node evaluates to a service
/// level in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceNode {
    /// The service contribution of a single component: its operational level
    /// (1 when up, 0 when down, fractional values allowed for degraded modes).
    Basic(String),
    /// Quantitative AND: the minimum of the children (series bottleneck).
    Min(Vec<ServiceNode>),
    /// Quantitative OR: the average of the children (redundant capacity).
    Mean(Vec<ServiceNode>),
    /// Capped ratio: `min(sum of children, required) / required`; used for
    /// groups with spare components.
    Ratio {
        /// Number of fully working children needed for 100% service.
        required: usize,
        /// Child nodes.
        children: Vec<ServiceNode>,
    },
}

impl ServiceNode {
    /// Evaluates the service level of this node given per-component service values.
    pub fn evaluate<F>(&self, component_service: &F) -> f64
    where
        F: Fn(&str) -> f64,
    {
        self.level(&mut |name| component_service(name))
    }

    /// The service level of this node, asking `leaf` for the service of
    /// every [`ServiceNode::Basic`] leaf exactly once, depth first and left
    /// to right: the one evaluation behind [`ServiceNode::evaluate`] and
    /// [`ServiceTree::service_level_by_leaf`].
    fn level<F>(&self, leaf: &mut F) -> f64
    where
        F: FnMut(&str) -> f64,
    {
        match self {
            ServiceNode::Basic(name) => leaf(name).clamp(0.0, 1.0),
            ServiceNode::Min(children) => {
                children.iter().map(|c| c.level(leaf)).fold(1.0, f64::min)
            }
            ServiceNode::Mean(children) => {
                if children.is_empty() {
                    return 1.0;
                }
                children.iter().map(|c| c.level(leaf)).sum::<f64>() / children.len() as f64
            }
            ServiceNode::Ratio { required, children } => {
                let total: f64 = children.iter().map(|c| c.level(leaf)).sum();
                if *required == 0 {
                    return 1.0;
                }
                (total.min(*required as f64)) / *required as f64
            }
        }
    }

    /// Collects all component names referenced below this node.
    pub fn collect_components(&self, into: &mut BTreeSet<String>) {
        match self {
            ServiceNode::Basic(name) => {
                into.insert(name.clone());
            }
            ServiceNode::Min(children) | ServiceNode::Mean(children) => {
                children.iter().for_each(|c| c.collect_components(into));
            }
            ServiceNode::Ratio { children, .. } => {
                children.iter().for_each(|c| c.collect_components(into));
            }
        }
    }

    /// The set of service levels this node can attain when every component is
    /// either fully up (1) or fully down (0).
    fn attainable_levels(&self) -> BTreeSet<ServiceLevel> {
        match self {
            ServiceNode::Basic(_) => [0.0, 1.0].iter().map(|&v| ServiceLevel(v)).collect(),
            ServiceNode::Min(children) => combine(children, |values| {
                values.iter().copied().fold(1.0, f64::min)
            }),
            ServiceNode::Mean(children) => combine(children, |values| {
                if values.is_empty() {
                    1.0
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                }
            }),
            ServiceNode::Ratio { required, children } => {
                let required = *required;
                combine(children, move |values| {
                    if required == 0 {
                        1.0
                    } else {
                        values.iter().sum::<f64>().min(required as f64) / required as f64
                    }
                })
            }
        }
    }
}

/// A service level wrapped so it can live in ordered collections (the values
/// are always finite, so total ordering is safe).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServiceLevel(f64);

impl Eq for ServiceLevel {}

impl PartialOrd for ServiceLevel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ServiceLevel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("service levels are finite")
    }
}

fn combine<F>(children: &[ServiceNode], reduce: F) -> BTreeSet<ServiceLevel>
where
    F: Fn(&[f64]) -> f64,
{
    // Cartesian product of the children's attainable levels, reduced by the gate.
    let child_levels: Vec<Vec<f64>> = children
        .iter()
        .map(|c| c.attainable_levels().into_iter().map(|l| l.0).collect())
        .collect();
    let mut out = BTreeSet::new();
    let mut assignment = vec![0usize; child_levels.len()];
    loop {
        let values: Vec<f64> = assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| child_levels[i][j])
            .collect();
        out.insert(ServiceLevel(round_level(reduce(&values))));
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == assignment.len() {
                return out;
            }
            assignment[pos] += 1;
            if assignment[pos] < child_levels[pos].len() {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

fn round_level(v: f64) -> f64 {
    // Collapse floating-point noise so 2/3 computed along different paths is a
    // single attainable level.
    (v * 1e9).round() / 1e9
}

/// A quantitative service tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceTree {
    root: ServiceNode,
}

impl ServiceTree {
    /// Creates a service tree from its root node.
    pub fn new(root: ServiceNode) -> Self {
        ServiceTree { root }
    }

    /// The root node.
    pub fn root(&self) -> &ServiceNode {
        &self.root
    }

    /// Evaluates the overall service level for per-component service values
    /// (typically 1.0 for operational components and 0.0 for failed ones).
    pub fn service_level<F>(&self, component_service: F) -> f64
    where
        F: Fn(&str) -> f64,
    {
        self.root.evaluate(&component_service)
    }

    /// [`ServiceTree::service_level`] with each leaf's service given by its
    /// position: `leaf_service(i)` is the service of the tree's `i`-th
    /// [`ServiceNode::Basic`] leaf, counted depth first and left to right.
    /// For a tree derived from a [`SystemStructure`](crate::SystemStructure)
    /// that is the `i`-th name of
    /// [`SystemStructure::leaves`](crate::SystemStructure::leaves), so a
    /// caller resolves every leaf once instead of looking names up on every
    /// evaluation. The result equals the name-keyed one bit for bit.
    pub fn service_level_by_leaf<F>(&self, leaf_service: F) -> f64
    where
        F: Fn(usize) -> f64,
    {
        let mut next = 0;
        self.root.level(&mut |_| {
            next += 1;
            leaf_service(next - 1)
        })
    }

    /// All component names referenced by the tree.
    pub fn components(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.root.collect_components(&mut set);
        set
    }

    /// The sorted list of service levels the tree can attain when every
    /// component is either fully up or fully down.
    ///
    /// These are the boundaries of the paper's service intervals `X1, X2, ...`:
    /// asking for "service at least `x`" gives the same state set for every `x`
    /// between two consecutive attainable levels.
    pub fn attainable_levels(&self) -> Vec<f64> {
        self.root
            .attainable_levels()
            .into_iter()
            .map(|l| l.0)
            .collect()
    }

    /// The half-open service intervals `[l_i, l_{i+1})` (plus the final point
    /// interval `[1, 1]`) induced by the attainable levels above zero.
    ///
    /// Asking for recovery to any service level within one interval yields the
    /// same survivability curve, which is how the paper groups its plots.
    pub fn service_intervals(&self) -> Vec<(f64, f64)> {
        let levels: Vec<f64> = self
            .attainable_levels()
            .into_iter()
            .filter(|&l| l > 0.0)
            .collect();
        let mut intervals = Vec::new();
        for (i, &level) in levels.iter().enumerate() {
            if let Some(&next) = levels.get(i + 1) {
                intervals.push((level, next));
            } else {
                intervals.push((level, level));
            }
        }
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up_except<'a>(down: &'a [&'a str]) -> impl Fn(&str) -> f64 + 'a {
        move |name: &str| if down.contains(&name) { 0.0 } else { 1.0 }
    }

    #[test]
    fn basic_node_clamps_values() {
        let node = ServiceNode::Basic("a".into());
        assert_eq!(node.evaluate(&|_: &str| 2.0), 1.0);
        assert_eq!(node.evaluate(&|_: &str| -1.0), 0.0);
        assert_eq!(node.evaluate(&|_: &str| 0.5), 0.5);
    }

    #[test]
    fn min_and_mean_gates() {
        let tree = ServiceTree::new(ServiceNode::Min(vec![
            ServiceNode::Mean(vec![
                ServiceNode::Basic("a".into()),
                ServiceNode::Basic("b".into()),
            ]),
            ServiceNode::Basic("c".into()),
        ]));
        assert_eq!(tree.service_level(up_except(&[])), 1.0);
        assert_eq!(tree.service_level(up_except(&["a"])), 0.5);
        assert_eq!(tree.service_level(up_except(&["c"])), 0.0);
        assert_eq!(tree.service_level(up_except(&["a", "b"])), 0.0);
    }

    #[test]
    fn ratio_gate_with_spare() {
        // 4 pumps, 3 required: one failure keeps full service.
        let tree = ServiceTree::new(ServiceNode::Ratio {
            required: 3,
            children: (1..=4)
                .map(|i| ServiceNode::Basic(format!("p{i}")))
                .collect(),
        });
        assert_eq!(tree.service_level(up_except(&[])), 1.0);
        assert_eq!(tree.service_level(up_except(&["p1"])), 1.0);
        assert!((tree.service_level(up_except(&["p1", "p2"])) - 2.0 / 3.0).abs() < 1e-12);
        assert!((tree.service_level(up_except(&["p1", "p2", "p3"])) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            tree.service_level(up_except(&["p1", "p2", "p3", "p4"])),
            0.0
        );
    }

    #[test]
    fn degenerate_gates() {
        assert_eq!(ServiceNode::Mean(vec![]).evaluate(&|_: &str| 0.0), 1.0);
        assert_eq!(
            ServiceNode::Ratio {
                required: 0,
                children: vec![]
            }
            .evaluate(&|_: &str| 0.0),
            1.0
        );
        assert_eq!(ServiceNode::Min(vec![]).evaluate(&|_: &str| 0.0), 1.0);
    }

    #[test]
    fn line1_service_intervals_match_the_paper() {
        // Line 1 of the water-treatment facility: 3 softeners, 3 sand filters,
        // 1 reservoir, 4 pumps (3 required). The paper reports the service
        // intervals X1 = [1/3, 2/3), X2 = [2/3, 1) and X3 = [1, 1].
        let service = ServiceTree::new(ServiceNode::Min(vec![
            ServiceNode::Mean(
                (1..=3)
                    .map(|i| ServiceNode::Basic(format!("st{i}")))
                    .collect(),
            ),
            ServiceNode::Mean(
                (1..=3)
                    .map(|i| ServiceNode::Basic(format!("sf{i}")))
                    .collect(),
            ),
            ServiceNode::Basic("res".into()),
            ServiceNode::Ratio {
                required: 3,
                children: (1..=4)
                    .map(|i| ServiceNode::Basic(format!("p{i}")))
                    .collect(),
            },
        ]));
        let levels = service.attainable_levels();
        let expected = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0];
        assert_eq!(levels.len(), expected.len());
        for (got, want) in levels.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "levels {levels:?}");
        }
        let intervals = service.service_intervals();
        assert_eq!(intervals.len(), 3);
        assert!((intervals[0].0 - 1.0 / 3.0).abs() < 1e-9);
        assert!((intervals[0].1 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(intervals[2], (1.0, 1.0));
    }

    #[test]
    fn line2_service_intervals_match_the_paper() {
        // Line 2: 3 softeners, 2 sand filters, 1 reservoir, 3 pumps (2 required).
        // The paper reports four intervals: [1/3, 1/2), [1/2, 2/3), [2/3, 1), [1, 1].
        let service = ServiceTree::new(ServiceNode::Min(vec![
            ServiceNode::Mean(
                (1..=3)
                    .map(|i| ServiceNode::Basic(format!("st{i}")))
                    .collect(),
            ),
            ServiceNode::Mean(
                (1..=2)
                    .map(|i| ServiceNode::Basic(format!("sf{i}")))
                    .collect(),
            ),
            ServiceNode::Basic("res".into()),
            ServiceNode::Ratio {
                required: 2,
                children: (1..=3)
                    .map(|i| ServiceNode::Basic(format!("p{i}")))
                    .collect(),
            },
        ]));
        let levels = service.attainable_levels();
        let expected = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0];
        assert_eq!(levels.len(), expected.len(), "levels {levels:?}");
        for (got, want) in levels.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "levels {levels:?}");
        }
        assert_eq!(service.service_intervals().len(), 4);
    }

    #[test]
    fn components_are_collected() {
        let tree = ServiceTree::new(ServiceNode::Min(vec![
            ServiceNode::Basic("x".into()),
            ServiceNode::Ratio {
                required: 1,
                children: vec![ServiceNode::Basic("y".into())],
            },
        ]));
        let components = tree.components();
        assert!(components.contains("x"));
        assert!(components.contains("y"));
        assert_eq!(components.len(), 2);
    }

    #[test]
    fn spare_components_do_not_create_extra_intervals() {
        // A 2-required-of-3 group attains {0, 1/2, 1}, just like a plain pair.
        let with_spare = ServiceTree::new(ServiceNode::Ratio {
            required: 2,
            children: (0..3)
                .map(|i| ServiceNode::Basic(format!("c{i}")))
                .collect(),
        });
        let plain_pair = ServiceTree::new(ServiceNode::Mean(vec![
            ServiceNode::Basic("a".into()),
            ServiceNode::Basic("b".into()),
        ]));
        assert_eq!(
            with_spare.attainable_levels(),
            plain_pair.attainable_levels()
        );
    }
}
