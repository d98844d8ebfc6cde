//! Per-family sub-chain quotients for compositional aggregation.
//!
//! The paper's pipeline does not lump the flat product chain: it aggregates
//! each process line's *sub-chains* first and only then composes. The
//! behavioural unit of such a sub-chain is a **family** of interchangeable
//! components — identical rates, costs and dispatch priorities, sibling leaves
//! under the same (permutation-symmetric) structure gate, served by the same
//! repair unit. Permuting the members of a family is an automorphism of the
//! composed CTMC, so the orbit partition it induces is ordinarily lumpable:
//! composing over orbit *representatives* yields exactly the per-family
//! quotients' product, without ever materialising the flat chain.
//!
//! This module supplies the family-local machinery:
//!
//! * [`canonical_roles`] picks the canonical representative of a family's
//!   role assignment (the quotient map of the sub-chain: a local state is
//!   identified with the sorted multiset of its members' roles);
//! * [`SubchainQuotient`] enumerates a family's local state space — the flat
//!   role-vector count versus the multiset-block count — which is what the
//!   per-line reduction breakdown of the composer's statistics reports. A
//!   `k`-member family over an `r`-symbol role alphabet has
//!   `C(k + r - 1, r - 1)` blocks, the orbit count of
//!   [`arcade_symmetry::orbit_count`].
//!
//! # Interface-label preservation
//!
//! Merging two local states is only sound when every observation a cross-level
//! measure can make of the family — its contribution to the service tree, the
//! operational fault tree and the cost rewards — agrees on them. The caller
//! guarantees this by construction: families contain only components whose
//! interface (rates, costs, priorities, structural position under a symmetric
//! gate) is identical, so every such observation is a symmetric function of
//! the members and therefore constant on each role multiset. The final exact
//! lumping pass run on the composed quotient re-checks stability against the
//! labels, which pins the guarantee in the test suites.

use arcade_symmetry::orbit_count;

/// Sorts a family's role vector into its canonical (ascending) order and
/// returns the permutation that was applied: `order[i]` is the index of the
/// original role now occupying slot `i`.
///
/// Two local states of a sub-chain are in the same quotient block iff their
/// role vectors are permutations of each other, i.e. iff they sort to the same
/// canonical vector. The returned permutation lets the caller move satellite
/// data (queue slots, crew assignments) along with the roles.
///
/// The sort is stable, so members holding equal roles keep their relative
/// order and re-canonicalising a canonical vector is the identity.
pub fn canonical_roles<K: Ord>(roles: &mut [K]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..roles.len()).collect();
    order.sort_by(|&a, &b| roles[a].cmp(&roles[b]).then(a.cmp(&b)));
    apply_permutation(roles, &order);
    order
}

/// Reorders `values` so that slot `i` receives the element previously at
/// `order[i]`.
fn apply_permutation<K>(values: &mut [K], order: &[usize]) {
    debug_assert_eq!(values.len(), order.len());
    let mut visited = vec![false; order.len()];
    for start in 0..order.len() {
        if visited[start] || order[start] == start {
            visited[start] = true;
            continue;
        }
        // Walk the cycle, swapping elements into place.
        let mut current = start;
        loop {
            let source = order[current];
            visited[current] = true;
            if visited[source] {
                break;
            }
            values.swap(current, source);
            current = source;
        }
    }
}

/// The local state space of one family's sub-chain: flat role vectors versus
/// multiset quotient blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubchainQuotient {
    family_size: usize,
    alphabet: usize,
}

impl SubchainQuotient {
    /// A quotient for a family of `family_size` members, each holding one of
    /// `alphabet` roles.
    pub fn new(family_size: usize, alphabet: usize) -> Self {
        SubchainQuotient {
            family_size,
            alphabet,
        }
    }

    /// Number of members of the family.
    pub fn family_size(&self) -> usize {
        self.family_size
    }

    /// Size of the role alphabet.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Number of local states before lumping: `alphabet ^ family_size`
    /// (saturating, for display purposes).
    pub fn flat_states(&self) -> usize {
        let mut result: usize = 1;
        for _ in 0..self.family_size {
            result = result.saturating_mul(self.alphabet);
        }
        result
    }

    /// Number of quotient blocks: the number of role multisets.
    pub fn blocks(&self) -> usize {
        orbit_count(self.family_size, self.alphabet)
    }

    /// The quotient block of a local role vector: its rank among all sorted
    /// (canonical) role vectors in lexicographic order.
    ///
    /// Returns `None` if the vector has the wrong length or a role outside
    /// the alphabet.
    pub fn block_of(&self, roles: &[u8]) -> Option<usize> {
        if roles.len() != self.family_size {
            return None;
        }
        if roles.iter().any(|&r| (r as usize) >= self.alphabet) {
            return None;
        }
        let mut sorted = roles.to_vec();
        sorted.sort_unstable();
        // Rank the canonical (non-decreasing) vector: count the canonical
        // vectors that are lexicographically smaller, position by position.
        let mut rank = 0usize;
        let mut previous = 0u8;
        for (i, &role) in sorted.iter().enumerate() {
            for smaller in previous..role {
                // Vectors matching `sorted` up to position i, holding `smaller`
                // there, and continuing with any non-decreasing tail.
                rank += orbit_count(self.family_size - i - 1, self.alphabet - smaller as usize);
            }
            previous = role;
        }
        Some(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roles_sorts_and_reports_the_permutation() {
        let mut roles = vec![2u8, 0, 1, 0];
        let order = canonical_roles(&mut roles);
        assert_eq!(roles, vec![0, 0, 1, 2]);
        // Stable: the two zeros keep their original relative order.
        assert_eq!(order, vec![1, 3, 2, 0]);

        // Idempotent on a canonical vector.
        let mut again = roles.clone();
        let identity = canonical_roles(&mut again);
        assert_eq!(again, roles);
        assert_eq!(identity, vec![0, 1, 2, 3]);
    }

    #[test]
    fn canonical_roles_identifies_permutations() {
        let mut a = vec![3u8, 1, 2];
        let mut b = vec![1u8, 2, 3];
        canonical_roles(&mut a);
        canonical_roles(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn multiset_counts_match_closed_forms() {
        let blocks = |k, r| SubchainQuotient::new(k, r).blocks();
        assert_eq!(blocks(0, 3), 1);
        assert_eq!(blocks(3, 1), 1);
        assert_eq!(blocks(1, 4), 4);
        assert_eq!(blocks(2, 2), 3);
        assert_eq!(blocks(3, 3), 10); // C(5, 2)
        assert_eq!(blocks(4, 3), 15); // C(6, 2)
        assert_eq!(blocks(0, 0), 1);
        assert_eq!(blocks(2, 0), 0);
    }

    #[test]
    fn quotient_counts_and_ranks_are_consistent() {
        let quotient = SubchainQuotient::new(3, 3);
        assert_eq!(quotient.flat_states(), 27);
        assert_eq!(quotient.blocks(), 10);

        // Every role vector maps into range, permutations share a block, and
        // all blocks are hit.
        let mut seen = vec![false; quotient.blocks()];
        for a in 0..3u8 {
            for b in 0..3u8 {
                for c in 0..3u8 {
                    let block = quotient.block_of(&[a, b, c]).unwrap();
                    assert!(block < quotient.blocks());
                    assert_eq!(block, quotient.block_of(&[c, a, b]).unwrap());
                    seen[block] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));

        assert_eq!(quotient.block_of(&[0, 0]), None);
        assert_eq!(quotient.block_of(&[0, 0, 9]), None);
    }

    #[test]
    fn distinct_multisets_get_distinct_blocks() {
        let quotient = SubchainQuotient::new(2, 3);
        let mut blocks = std::collections::BTreeSet::new();
        for a in 0..3u8 {
            for b in a..3u8 {
                blocks.insert(quotient.block_of(&[a, b]).unwrap());
            }
        }
        assert_eq!(blocks.len(), quotient.blocks());
    }
}
