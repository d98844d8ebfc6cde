//! Initial partitions: which states may never be merged.
//!
//! Lumping preserves exactly the distinctions encoded in the initial
//! partition: two states can only end up in the same block if every refinement
//! key (label membership, reward rate, service level, …) agrees on them. The
//! composer therefore refines by everything its measures observe before
//! handing the partition to [`crate::lump`].

use ctmc::Ctmc;

use crate::error::LumpError;
use crate::keys::KeyTable;

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
        for name in chain.label_names() {
            let mask = chain.label(name).expect("name just came from the chain");
            partition
                .refine_by_bools(mask)
                .expect("label masks have one entry per state");
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
        self.check_len(mask.len())?;
        // The new id of `(class, value)` sits at `2 * class + value`; ids are
        // handed out in order of first appearance.
        let mut ids = vec![usize::MAX; 2 * self.num_classes];
        let mut next = 0;
        for (class, &value) in self.classes.iter_mut().zip(mask) {
            let id = &mut ids[2 * *class + usize::from(value)];
            if *id == usize::MAX {
                *id = next;
                next += 1;
            }
            *class = *id;
        }
        self.num_classes = next;
        Ok(self)
    }

    /// Splits classes so that states with different `f64` values separate.
    ///
    /// Values are compared exactly (bitwise, with `-0.0` normalised to `0.0`);
    /// callers that want tolerance-based grouping should quantise first.
    /// The new ids are handed out in order of first appearance.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::DimensionMismatch`] if `values` has the wrong length.
    ///
    /// # Panics
    ///
    /// If the refinement has 2³² or more classes.
    pub fn refine_by_f64(&mut self, values: &[f64]) -> Result<&mut Self, LumpError> {
        self.check_len(values.len())?;
        // Key `i` of the table is the `(class, value bits)` pair of new id `i`.
        let mut ids = KeyTable::new(2);
        for (class, &value) in self.classes.iter_mut().zip(values) {
            let key = [*class as u64, (value + 0.0).to_bits()];
            *class = match ids.find(&key) {
                Ok(id) => id,
                Err(vacant) => ids.insert(vacant, &key).expect("fewer than 2^32 classes"),
            };
        }
        self.num_classes = ids.len();
        Ok(self)
    }

    fn check_len(&self, len: usize) -> Result<(), LumpError> {
        if len == self.classes.len() {
            Ok(())
        } else {
            Err(LumpError::DimensionMismatch {
                expected: self.classes.len(),
                actual: len,
            })
        }
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
        // Ids follow the order in which the classes first appear.
        assert_eq!(classes, &[0, 1, 2, 2, 0, 3]);
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
