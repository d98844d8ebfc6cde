//! Initial partitions: which states may never be merged.
//!
//! Lumping preserves exactly the distinctions encoded in the initial
//! partition: two states can only end up in the same block if every refinement
//! key (label membership, reward rate, service level, …) agrees on them. The
//! composer therefore refines by everything its measures observe before
//! handing the partition to [`crate::lump`].

use std::collections::HashMap;

use ctmc::Ctmc;

use crate::error::LumpError;

/// A partition of the state space used as the starting point of refinement.
///
/// Internally each state carries a class id in `0..num_classes`; ids are
/// renumbered densely after every refinement step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialPartition {
    classes: Vec<usize>,
    num_classes: usize,
}

impl InitialPartition {
    /// The trivial partition: all states in one class.
    pub fn trivial(num_states: usize) -> Self {
        InitialPartition {
            classes: vec![0; num_states],
            num_classes: usize::from(num_states > 0),
        }
    }

    /// The partition induced by all labels of a chain: two states share a
    /// class iff they carry exactly the same label set.
    pub fn from_labels(chain: &Ctmc) -> Self {
        let mut partition = InitialPartition::trivial(chain.num_states());
        let names: Vec<String> = chain.label_names().map(str::to_string).collect();
        for name in names {
            if let Some(mask) = chain.label(&name) {
                let mask = mask.to_vec();
                partition
                    .refine_by_bools(&mask)
                    .expect("label masks have one entry per state");
            }
        }
        partition
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The class id of every state.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Splits classes so that states with different boolean values separate.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::DimensionMismatch`] if `mask` has the wrong length.
    pub fn refine_by_bools(&mut self, mask: &[bool]) -> Result<&mut Self, LumpError> {
        self.refine_by_keys(mask, |&b| u64::from(b))
    }

    /// Splits classes so that states with different `f64` values separate.
    ///
    /// Values are compared exactly (bitwise, with `-0.0` normalised to `0.0`);
    /// callers that want tolerance-based grouping should quantise first.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::DimensionMismatch`] if `values` has the wrong length.
    pub fn refine_by_f64(&mut self, values: &[f64]) -> Result<&mut Self, LumpError> {
        self.refine_by_keys(values, |&v| (v + 0.0).to_bits())
    }

    fn refine_by_keys<T>(
        &mut self,
        values: &[T],
        key_of: impl Fn(&T) -> u64,
    ) -> Result<&mut Self, LumpError> {
        if values.len() != self.classes.len() {
            return Err(LumpError::DimensionMismatch {
                expected: self.classes.len(),
                actual: values.len(),
            });
        }
        let mut ids: HashMap<(usize, u64), usize> = HashMap::new();
        for (class, value) in self.classes.iter_mut().zip(values.iter()) {
            let next = ids.len();
            let id = *ids.entry((*class, key_of(value))).or_insert(next);
            *class = id;
        }
        self.num_classes = ids.len();
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_partition_has_one_class() {
        let partition = InitialPartition::trivial(5);
        assert_eq!(partition.num_states(), 5);
        assert_eq!(partition.num_classes(), 1);
        assert!(partition.classes().iter().all(|&c| c == 0));
        assert_eq!(InitialPartition::trivial(0).num_classes(), 0);
    }

    #[test]
    fn refinement_splits_and_renumbers_densely() {
        let mut partition = InitialPartition::trivial(6);
        partition
            .refine_by_bools(&[true, true, false, false, true, false])
            .unwrap();
        assert_eq!(partition.num_classes(), 2);
        partition
            .refine_by_f64(&[1.0, 2.0, 1.0, 1.0, 1.0, 2.0])
            .unwrap();
        assert_eq!(partition.num_classes(), 4);
        let classes = partition.classes();
        assert_eq!(classes[0], classes[4]); // (true, 1.0)
        assert_ne!(classes[0], classes[1]); // (true, 2.0)
        assert_eq!(classes[2], classes[3]); // (false, 1.0)
        assert!(classes.iter().all(|&c| c < partition.num_classes()));
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        let mut partition = InitialPartition::trivial(2);
        partition.refine_by_f64(&[0.0, -0.0]).unwrap();
        assert_eq!(partition.num_classes(), 1);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut partition = InitialPartition::trivial(3);
        assert!(matches!(
            partition.refine_by_bools(&[true]),
            Err(LumpError::DimensionMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }
}
