//! Evaluation by leaf index agrees bit for bit with evaluation by name.
//!
//! Callers resolve a structure's leaves once, through
//! [`SystemStructure::leaves`], and then evaluate the derived trees by leaf
//! position. This holds only if every derived tree visits its leaves in the
//! structure's order, for any nesting of gates.

use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

/// Names leaves draw from; fewer names than leaves, so some repeat.
const NAMES: u8 = 6;

/// One node read from `shape`: a leaf, or — above depth 4 — a gate whose
/// child count (0 to 3) and `RequiredOf` requirement come from further bytes.
fn node(shape: &mut impl Iterator<Item = u8>, depth: usize) -> StructureNode {
    let byte = shape.next().unwrap_or(0);
    let leaf = || StructureNode::component(format!("c{}", byte % NAMES));
    if depth >= 4 {
        return leaf();
    }
    let mut children = || {
        let count = shape.next().unwrap_or(0) % 4;
        (0..count).map(|_| node(shape, depth + 1)).collect()
    };
    match byte % 5 {
        0 | 1 => leaf(),
        2 => StructureNode::series(children()),
        3 => StructureNode::redundant(children()),
        _ => StructureNode::required_of(usize::from(byte / 5 % 4), children()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random structures, nested `RequiredOf` gates included, under random
    /// sets of failed components: the service level, the degraded flag,
    /// the total-failure flag and the level of the total-failure tree's
    /// dual are the same bits by leaf index as by name.
    #[test]
    fn leaf_index_evaluation_matches_names(
        shape in proptest::collection::vec(0u8..=255, 1..=48),
        down in any::<u64>(),
    ) {
        let structure = SystemStructure::new(node(&mut shape.into_iter(), 0));
        let leaves: Vec<&str> = structure.leaves().collect();
        let failed = |name: &str| {
            let index: u32 = name[1..].parse().expect("names are c0 to c5");
            down >> index & 1 == 1
        };
        let level = |name: &str| if failed(name) { 0.0 } else { 1.0 };

        let service = structure.service_tree();
        prop_assert_eq!(
            service.service_level(level).to_bits(),
            service.service_level_by_leaf(|leaf| level(leaves[leaf])).to_bits()
        );
        let dual = structure.total_failure_fault_tree().to_service_tree();
        prop_assert_eq!(
            dual.service_level(level).to_bits(),
            dual.service_level_by_leaf(|leaf| level(leaves[leaf])).to_bits()
        );
        for tree in [structure.degraded_fault_tree(), structure.total_failure_fault_tree()] {
            prop_assert_eq!(
                tree.is_failed(failed),
                tree.is_failed_by_leaf(|leaf| failed(leaves[leaf]))
            );
        }
    }
}
