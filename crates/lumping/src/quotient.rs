//! The quotient chain and the block ↔ state projection maps.

use std::collections::HashMap;

use ctmc::{Ctmc, CtmcBuilder, RewardStructure};

use crate::error::LumpError;

/// An exactly lumped CTMC: the quotient chain plus the maps between original
/// states and quotient blocks.
///
/// Because the partition is ordinarily lumpable, the aggregated process is a
/// Markov chain for *every* initial distribution. Consequently:
///
/// * *forward* quantities (transient/reachability probabilities, expected
///   rewards computed from a start state) are equal for all states of a block
///   and can be copied back with [`LumpedCtmc::expand_values`];
/// * *occupancy* quantities (a distribution over states) aggregate to the
///   quotient via [`LumpedCtmc::aggregate_distribution`]; per-state occupancy
///   of the flat chain is not recoverable from the quotient (and is never
///   needed by measures that only evaluate block-closed state sets);
/// * state sets (CSL atomic propositions, goal sets) that are unions of
///   blocks translate in both directions with [`LumpedCtmc::project_mask`] /
///   [`LumpedCtmc::expand_mask`].
#[derive(Debug, Clone, PartialEq)]
pub struct LumpedCtmc {
    quotient: Ctmc,
    block_of: Vec<usize>,
    blocks: Vec<Vec<usize>>,
}

impl LumpedCtmc {
    /// Builds the quotient from a stable partition. Blocks are renumbered by
    /// their smallest member so the result is deterministic.
    pub(crate) fn build(
        chain: &Ctmc,
        block_of_raw: Vec<usize>,
        blocks_raw: Vec<Vec<u32>>,
    ) -> Result<LumpedCtmc, LumpError> {
        let mut blocks: Vec<Vec<usize>> = blocks_raw
            .into_iter()
            .map(|members| {
                let mut members: Vec<usize> = members.into_iter().map(|s| s as usize).collect();
                members.sort_unstable();
                members
            })
            .collect();
        blocks.sort_unstable_by_key(|members| members[0]);

        let num_blocks = blocks.len();
        let mut block_of = block_of_raw;
        for (id, members) in blocks.iter().enumerate() {
            for &s in members {
                block_of[s] = id;
            }
        }

        let mut builder = CtmcBuilder::new(num_blocks);
        let rates = chain.rate_matrix();
        for (id, members) in blocks.iter().enumerate() {
            // Any member works as representative; stability guarantees they
            // all have the same cumulative rates into every other block.
            let representative = members[0];
            let mut outgoing: HashMap<usize, f64> = HashMap::new();
            let (cols, values) = rates.row(representative);
            for (&target, &rate) in cols.iter().zip(values.iter()) {
                let target_block = block_of[target];
                if target_block != id {
                    *outgoing.entry(target_block).or_insert(0.0) += rate;
                }
            }
            let mut outgoing: Vec<(usize, f64)> = outgoing.into_iter().collect();
            outgoing.sort_unstable_by_key(|&(target, _)| target);
            for (target, rate) in outgoing {
                builder.add_transition(id, target, rate)?;
            }
        }

        let mut initial = vec![0.0; num_blocks];
        for (s, &p) in chain.initial_distribution().iter().enumerate() {
            initial[block_of[s]] += p;
        }
        builder.set_initial_distribution(initial)?;

        // Copy every block-closed label onto the quotient; labels that cut
        // through a block (none, when the initial partition was built from
        // the chain's labels) are dropped.
        let names: Vec<String> = chain.label_names().map(str::to_string).collect();
        for name in names {
            let mask = chain.label(&name).expect("name just came from the chain");
            if let Some(block_mask) = try_project_mask(&blocks, mask) {
                builder.add_label_mask(name, block_mask)?;
            }
        }

        let quotient = builder.build()?;
        Ok(LumpedCtmc {
            quotient,
            block_of,
            blocks,
        })
    }

    /// The quotient chain.
    pub fn quotient(&self) -> &Ctmc {
        &self.quotient
    }

    /// Number of blocks (= states of the quotient).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of states of the original chain.
    pub fn num_states(&self) -> usize {
        self.block_of.len()
    }

    /// The block containing an original state.
    pub fn block_of(&self, state: usize) -> usize {
        self.block_of[state]
    }

    /// The member states of every block, sorted ascending.
    pub fn blocks(&self) -> &[Vec<usize>] {
        &self.blocks
    }

    /// The representative (smallest) original state of a block.
    pub fn representative(&self, block: usize) -> usize {
        self.blocks[block][0]
    }

    /// Projects a per-state mask to a per-block mask.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::NotBlockConstant`] if the mask cuts through a
    /// block, and [`LumpError::DimensionMismatch`] on a length mismatch.
    pub fn project_mask(&self, mask: &[bool]) -> Result<Vec<bool>, LumpError> {
        if mask.len() != self.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: self.num_states(),
                actual: mask.len(),
            });
        }
        try_project_mask(&self.blocks, mask).ok_or_else(|| {
            let block = self
                .blocks
                .iter()
                .position(|members| {
                    members.iter().any(|&s| mask[s]) && !members.iter().all(|&s| mask[s])
                })
                .unwrap_or(0);
            LumpError::NotBlockConstant {
                what: "state mask".to_string(),
                block,
            }
        })
    }

    /// Projects a block-constant per-state value vector to a per-block vector.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::NotBlockConstant`] if two states of a block carry
    /// different values, and [`LumpError::DimensionMismatch`] on a length
    /// mismatch.
    pub fn project_values(&self, values: &[f64]) -> Result<Vec<f64>, LumpError> {
        if values.len() != self.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: self.num_states(),
                actual: values.len(),
            });
        }
        let mut out = Vec::with_capacity(self.num_blocks());
        for (block, members) in self.blocks.iter().enumerate() {
            let value = values[members[0]];
            if members
                .iter()
                .any(|&s| values[s].to_bits() != value.to_bits())
            {
                return Err(LumpError::NotBlockConstant {
                    what: "state values".to_string(),
                    block,
                });
            }
            out.push(value);
        }
        Ok(out)
    }

    /// Expands a per-block mask to the original states.
    pub fn expand_mask(&self, block_mask: &[bool]) -> Vec<bool> {
        self.block_of.iter().map(|&b| block_mask[b]).collect()
    }

    /// Expands per-block values (e.g. forward probabilities or CSL verdicts
    /// per quotient state) to the original states.
    pub fn expand_values(&self, block_values: &[f64]) -> Vec<f64> {
        self.block_of.iter().map(|&b| block_values[b]).collect()
    }

    /// Aggregates a distribution over original states to the blocks.
    pub fn aggregate_distribution(&self, state_probabilities: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_blocks()];
        for (s, &p) in state_probabilities.iter().enumerate() {
            out[self.block_of[s]] += p;
        }
        out
    }

    /// Lumps a reward structure onto the quotient.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::NotBlockConstant`] if rewards differ within a
    /// block (include the reward rates in the initial partition to avoid this).
    pub fn lump_rewards(&self, rewards: &RewardStructure) -> Result<RewardStructure, LumpError> {
        let values = self.project_values(rewards.state_rewards())?;
        Ok(RewardStructure::new(rewards.name(), values)?)
    }

    /// Re-checks ordinary lumpability of the partition against the flat
    /// chain: every state of a block must have cumulative rates into every
    /// other block within `tolerance` of its block's quotient rates.
    ///
    /// # Errors
    ///
    /// Returns [`LumpError::UnstablePartition`] on a violation (which would
    /// indicate a refinement bug) and [`LumpError::DimensionMismatch`] if the
    /// chain does not match this lumping.
    pub fn verify(&self, chain: &Ctmc, tolerance: f64) -> Result<(), LumpError> {
        if chain.num_states() != self.num_states() {
            return Err(LumpError::DimensionMismatch {
                expected: self.num_states(),
                actual: chain.num_states(),
            });
        }
        let rates = chain.rate_matrix();
        let quotient_rates = self.quotient.rate_matrix();
        for (block, members) in self.blocks.iter().enumerate() {
            for &state in members {
                let mut outgoing: HashMap<usize, f64> = HashMap::new();
                let (cols, values) = rates.row(state);
                for (&target, &rate) in cols.iter().zip(values.iter()) {
                    let target_block = self.block_of[target];
                    if target_block != block {
                        *outgoing.entry(target_block).or_insert(0.0) += rate;
                    }
                }
                for other in 0..self.num_blocks() {
                    let expected = quotient_rates.get(block, other);
                    let actual = outgoing.get(&other).copied().unwrap_or(0.0);
                    if other != block && (expected - actual).abs() > tolerance {
                        return Err(LumpError::UnstablePartition {
                            block,
                            reason: format!(
                                "state {state} has rate {actual} into block {other}, \
                                 block rate is {expected}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Projects a state mask to a block mask; `None` if it cuts through a block.
fn try_project_mask(blocks: &[Vec<usize>], mask: &[bool]) -> Option<Vec<bool>> {
    let mut out = Vec::with_capacity(blocks.len());
    for members in blocks {
        let value = mask[members[0]];
        if members.iter().any(|&s| mask[s] != value) {
            return None;
        }
        out.push(value);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use ctmc::CtmcBuilder;

    use super::*;
    use crate::partition::InitialPartition;
    use crate::refine::lump;

    fn two_identical_components() -> Ctmc {
        let mut builder = CtmcBuilder::new(4);
        for (from, to, rate) in [
            (0b00, 0b01, 0.25),
            (0b00, 0b10, 0.25),
            (0b01, 0b00, 2.0),
            (0b10, 0b00, 2.0),
            (0b01, 0b11, 0.25),
            (0b10, 0b11, 0.25),
            (0b11, 0b01, 2.0),
            (0b11, 0b10, 2.0),
        ] {
            builder.add_transition(from, to, rate).unwrap();
        }
        builder.set_initial_state(0).unwrap();
        builder
            .add_label_mask("all_up", vec![true, false, false, false])
            .unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn maps_round_trip_between_states_and_blocks() {
        let chain = two_identical_components();
        let lumped = lump(&chain, &InitialPartition::from_labels(&chain)).unwrap();
        assert_eq!(lumped.num_blocks(), 3);
        assert_eq!(lumped.num_states(), 4);
        assert_eq!(lumped.block_of(0b01), lumped.block_of(0b10));
        assert_eq!(lumped.representative(lumped.block_of(0b00)), 0b00);

        let mask = vec![true, false, false, false];
        let block_mask = lumped.project_mask(&mask).unwrap();
        assert_eq!(lumped.expand_mask(&block_mask), mask);

        // A mask separating the two symmetric states is not block-closed.
        let bad = vec![false, true, false, false];
        assert!(matches!(
            lumped.project_mask(&bad),
            Err(LumpError::NotBlockConstant { .. })
        ));

        let aggregated = lumped.aggregate_distribution(&[0.1, 0.2, 0.3, 0.4]);
        assert!((aggregated.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((aggregated[lumped.block_of(0b01)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels_transfer_to_the_quotient() {
        let chain = two_identical_components();
        let lumped = lump(&chain, &InitialPartition::from_labels(&chain)).unwrap();
        let mask = lumped
            .quotient()
            .label("all_up")
            .expect("label survives lumping");
        assert_eq!(mask.iter().filter(|&&b| b).count(), 1);
        assert!(mask[lumped.block_of(0b00)]);
    }

    #[test]
    fn rewards_lump_when_block_constant() {
        let chain = two_identical_components();
        let lumped = lump(&chain, &InitialPartition::from_labels(&chain)).unwrap();
        let rewards = RewardStructure::new("cost", vec![0.0, 3.0, 3.0, 6.0]).unwrap();
        let lumped_rewards = lumped.lump_rewards(&rewards).unwrap();
        assert_eq!(lumped_rewards.len(), 3);
        assert_eq!(lumped_rewards.state_rewards()[lumped.block_of(0b11)], 6.0);

        let uneven = RewardStructure::new("cost", vec![0.0, 3.0, 4.0, 6.0]).unwrap();
        assert!(matches!(
            lumped.lump_rewards(&uneven),
            Err(LumpError::NotBlockConstant { .. })
        ));
    }

    #[test]
    fn verify_accepts_the_engine_output_and_rejects_tampering() {
        let chain = two_identical_components();
        let lumped = lump(&chain, &InitialPartition::from_labels(&chain)).unwrap();
        lumped.verify(&chain, 0.0).unwrap();

        // A chain with different rates is not lumpable under this partition.
        let mut builder = CtmcBuilder::new(4);
        builder.add_transition(0b00, 0b01, 9.0).unwrap();
        builder.add_transition(0b01, 0b00, 1.0).unwrap();
        builder.add_transition(0b10, 0b00, 1.0).unwrap();
        builder.add_transition(0b11, 0b01, 1.0).unwrap();
        let other = builder.build().unwrap();
        assert!(lumped.verify(&other, 1e-9).is_err());
    }
}
