//! The partition-refinement core.

use std::collections::VecDeque;

use ctmc::{Ctmc, SparseMatrix};

use crate::error::LumpError;
use crate::partition::InitialPartition;
use crate::quotient::LumpedCtmc;

/// Computes the coarsest ordinarily-lumpable partition of `chain` refining
/// `initial`, and returns the quotient chain with its block ↔ state maps.
///
/// See the crate-level documentation for the algorithm. The result is exact:
/// states end up in the same block only if they carry the same initial class
/// and have bit-identical cumulative rates into every other block (per-state
/// contributions are sorted before summation, so symmetric states cannot be
/// separated by floating-point rounding).
///
/// # Errors
///
/// Returns [`LumpError::DimensionMismatch`] if `initial` covers a different
/// number of states than `chain`, and propagates quotient-construction errors.
///
/// # Panics
///
/// If the chain has 2³² or more states or transitions: states, positions and
/// contribution offsets are held in 32 bits.
pub fn lump(chain: &Ctmc, initial: &InitialPartition) -> Result<LumpedCtmc, LumpError> {
    let n = chain.num_states();
    if initial.num_states() != n {
        return Err(LumpError::DimensionMismatch {
            expected: n,
            actual: initial.num_states(),
        });
    }
    let rates = chain.rate_matrix();
    assert!(
        u32::try_from(n).is_ok() && u32::try_from(rates.num_entries()).is_ok(),
        "the lumping engine indexes states and transitions in 32 bits"
    );
    let predecessors = Predecessors::new(rates);

    let mut partition = Partition::new(initial);
    let mut contributions = Contributions::new(n);
    let mut worklist: VecDeque<u32> = (0..partition.blocks.len() as u32).collect();
    while let Some(splitter) = worklist.pop_front() {
        let Segment { first, end, .. } = partition.blocks[splitter as usize];
        let members = first as usize..end as usize;
        // States outside the splitter are weighted by their cumulative rate
        // into it, collected over the transposed edges.
        for &u in &partition.elements[members.clone()] {
            let (sources, values) = predecessors.row(u as usize);
            for (&s, &r) in sources.iter().zip(values) {
                if partition.block_of[s as usize] != splitter {
                    contributions.add(s, r);
                }
            }
        }
        // Members of the splitter are weighted by (minus) their cumulative
        // rate *out of* it — generator semantics: w(s, C) = R(s, C) − E(s)
        // for s ∈ C equals −(rate leaving C). Computing the external sum
        // directly (instead of cancelling R against E) keeps the weights of
        // symmetric states bit-identical. Ordinary lumpability does not
        // constrain intra-block rates, so this — not the raw rate into C — is
        // what may split the splitter's own block.
        for &u in &partition.elements[members] {
            let (cols, values) = rates.row(u as usize);
            for (&v, &r) in cols.iter().zip(values) {
                if partition.block_of[v] != splitter {
                    contributions.add(u, r);
                }
            }
        }
        contributions.settle(|s| partition.block_of[s as usize] == splitter);

        for &s in &contributions.touched {
            partition.mark(s);
        }
        contributions.touched.clear();
        partition.split_touched(&contributions.weight, &mut worklist);
    }

    LumpedCtmc::build(chain, &partition.block_of, partition.blocks.len())
}

/// The rate matrix transposed into 32-bit compressed rows: row `u` lists
/// every `(s, R(s, u))`, sources ascending, in
/// `sources[offsets[u]..offsets[u + 1]]` and the same range of `rates` —
/// 12 bytes an edge, where [`SparseMatrix::transpose`] takes 16.
struct Predecessors {
    offsets: Vec<u32>,
    sources: Vec<u32>,
    rates: Vec<f64>,
}

impl Predecessors {
    /// Counts every state's predecessors, then scatters the edges row by
    /// row. The caller has checked that states and edges fit in 32 bits.
    fn new(matrix: &SparseMatrix) -> Self {
        let n = matrix.num_rows();
        let mut offsets = vec![0u32; n + 1];
        for s in 0..n {
            for &u in matrix.row(s).0 {
                offsets[u + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // `offsets[u]` serves as row `u`'s write cursor, which ends where
        // row `u + 1` starts; shifting by one restores the starts.
        let mut sources = vec![0; matrix.num_entries()];
        let mut rates = vec![0.0; matrix.num_entries()];
        for s in 0..n {
            let (targets, values) = matrix.row(s);
            for (&u, &r) in targets.iter().zip(values) {
                let slot = offsets[u] as usize;
                offsets[u] += 1;
                sources[slot] = s as u32;
                rates[slot] = r;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Predecessors {
            offsets,
            sources,
            rates,
        }
    }

    fn row(&self, u: usize) -> (&[u32], &[f64]) {
        let range = self.offsets[u] as usize..self.offsets[u + 1] as usize;
        (&self.sources[range.clone()], &self.rates[range])
    }
}

/// One block of a [`Partition`]: the segment `first..end` of
/// [`Partition::elements`], whose prefix `first..marked` holds the block's
/// marked states.
#[derive(Debug, Clone, Copy)]
struct Segment {
    first: u32,
    marked: u32,
    end: u32,
}

/// The refinable partition, held in flat arrays: every block is a
/// contiguous segment of one permutation of the states, so moving a state
/// into its block's marked prefix is one swap, and splitting a block only
/// cuts its segment and renumbers the states of the new pieces.
struct Partition {
    /// The states, grouped so that every block is one segment.
    elements: Vec<u32>,
    /// Index of each state in `elements`.
    position: Vec<u32>,
    /// The block of each state.
    block_of: Vec<u32>,
    blocks: Vec<Segment>,
    /// Blocks holding at least one marked state, in the order of their first
    /// mark.
    touched: Vec<u32>,
    /// Scratch for [`Partition::split`]: the `(first, end)` of every piece.
    pieces: Vec<(u32, u32)>,
}

impl Partition {
    /// One block per initial class, states in ascending order within it.
    fn new(initial: &InitialPartition) -> Self {
        let classes = initial.classes();
        let mut blocks = vec![
            Segment {
                first: 0,
                marked: 0,
                end: 0
            };
            initial.num_classes()
        ];
        for &class in classes {
            blocks[class].end += 1;
        }
        let mut next = 0;
        for block in &mut blocks {
            let size = block.end;
            *block = Segment {
                first: next,
                marked: next,
                end: next,
            };
            next += size;
        }
        let mut elements = vec![0; classes.len()];
        let mut position = vec![0; classes.len()];
        for (s, &class) in classes.iter().enumerate() {
            let slot = &mut blocks[class].end;
            elements[*slot as usize] = s as u32;
            position[s] = *slot;
            *slot += 1;
        }
        Partition {
            elements,
            position,
            block_of: classes.iter().map(|&class| class as u32).collect(),
            blocks,
            touched: Vec::new(),
            pieces: Vec::new(),
        }
    }

    /// Moves an unmarked state into its block's marked prefix.
    fn mark(&mut self, state: u32) {
        let block = self.block_of[state as usize];
        let segment = &mut self.blocks[block as usize];
        if segment.marked == segment.first {
            self.touched.push(block);
        }
        let (from, to) = (self.position[state as usize], segment.marked);
        segment.marked += 1;
        let displaced = self.elements[to as usize];
        self.elements.swap(from as usize, to as usize);
        self.position[displaced as usize] = from;
        self.position[state as usize] = to;
    }

    /// Splits every touched block by `weight` and clears all marks.
    fn split_touched(&mut self, weight: &[f64], worklist: &mut VecDeque<u32>) {
        for index in 0..self.touched.len() {
            self.split(self.touched[index], weight, worklist);
        }
        self.touched.clear();
    }

    /// Splits a touched block into its subgroups of equal weight and the
    /// unmarked residue (implicit weight zero), and clears its marks.
    ///
    /// The residue keeps the block's id if it is at least as large as every
    /// weight group; otherwise the largest group does (the first in weight
    /// order among equals). Every other non-empty piece becomes a new block
    /// on the worklist — Hopcroft's "all but the largest" rule. A block that
    /// was pending keeps its worklist entry under the same id, so every
    /// piece of it is still processed.
    fn split(&mut self, block: u32, weight: &[f64], worklist: &mut VecDeque<u32>) {
        let Segment { first, marked, end } = self.blocks[block as usize];
        let bits = |s: u32| weight[s as usize].to_bits();
        let group = &mut self.elements[first as usize..marked as usize];
        let uniform = group.iter().all(|&s| bits(s) == bits(group[0]));
        if uniform && marked == end {
            // Every member sees the same weight: no split.
            self.blocks[block as usize].marked = first;
            return;
        }
        if !uniform {
            group.sort_unstable_by(|&a, &b| weight[a as usize].total_cmp(&weight[b as usize]));
            for (index, &s) in (first..).zip(group.iter()) {
                self.position[s as usize] = index;
            }
        }

        // The pieces: the runs of equal weight, in weight order, then the
        // residue.
        let mut pieces = std::mem::take(&mut self.pieces);
        let mut start = first;
        while start < marked {
            let key = bits(self.elements[start as usize]);
            let stop = (start..marked)
                .find(|&i| bits(self.elements[i as usize]) != key)
                .unwrap_or(marked);
            pieces.push((start, stop));
            start = stop;
        }
        let size = |(first, end): (u32, u32)| end - first;
        let largest = pieces
            .iter()
            .copied()
            .reduce(|best, piece| {
                if size(piece) > size(best) {
                    piece
                } else {
                    best
                }
            })
            .expect("a touched block has a marked state");
        let keeper = if end - marked >= size(largest) {
            (marked, end)
        } else {
            largest
        };
        if marked < end {
            pieces.push((marked, end));
        }

        for &(start, stop) in &pieces {
            let segment = Segment {
                first: start,
                marked: start,
                end: stop,
            };
            if (start, stop) == keeper {
                self.blocks[block as usize] = segment;
                continue;
            }
            let id = self.blocks.len() as u32;
            self.blocks.push(segment);
            for &s in &self.elements[start as usize..stop as usize] {
                self.block_of[s as usize] = id;
            }
            worklist.push_back(id);
        }
        pieces.clear();
        self.pieces = pieces;
    }
}

/// The rates a splitter's edges contribute to each state, and the weights
/// summed from them.
struct Contributions {
    /// `(state, rate)` in the order collected.
    collected: Vec<(u32, f64)>,
    /// States with at least one contribution, in the order of their first.
    touched: Vec<u32>,
    /// Contributions per state; zero for a state not touched.
    count: Vec<u32>,
    /// Where each touched state's contributions start in `grouped`.
    start: Vec<u32>,
    /// The contributions of the touched states, one segment per state.
    grouped: Vec<f64>,
    /// The weight of each touched state.
    weight: Vec<f64>,
}

impl Contributions {
    fn new(n: usize) -> Self {
        Contributions {
            collected: Vec::new(),
            touched: Vec::new(),
            count: vec![0; n],
            start: vec![0; n],
            grouped: Vec::new(),
            weight: vec![0.0; n],
        }
    }

    fn add(&mut self, state: u32, rate: f64) {
        let count = &mut self.count[state as usize];
        if *count == 0 {
            self.touched.push(state);
        }
        *count += 1;
        self.collected.push((state, rate));
    }

    /// Weighs every touched state: its contributions are counting-scattered
    /// into one segment of `grouped`, sorted and summed, so equal multisets
    /// give equal bits. States `in_splitter` carry the negative sign of the
    /// generator diagonal.
    fn settle(&mut self, in_splitter: impl Fn(u32) -> bool) {
        // Each state's segment is filled from its end, so `start` ends up
        // where its name says.
        let mut offset = 0;
        for &s in &self.touched {
            offset += self.count[s as usize];
            self.start[s as usize] = offset;
        }
        self.grouped.resize(self.collected.len(), 0.0);
        for &(s, r) in &self.collected {
            let slot = &mut self.start[s as usize];
            *slot -= 1;
            self.grouped[*slot as usize] = r;
        }
        self.collected.clear();
        for &s in &self.touched {
            let start = self.start[s as usize] as usize;
            let count = std::mem::take(&mut self.count[s as usize]) as usize;
            let list = &mut self.grouped[start..start + count];
            list.sort_unstable_by(f64::total_cmp);
            let sum: f64 = list.iter().sum();
            let weight = if in_splitter(s) { -sum } else { sum };
            self.weight[s as usize] = weight + 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use ctmc::CtmcBuilder;

    use super::*;

    /// `k` independent identical two-state components in parallel: the flat
    /// chain has 2^k states; separating the all-up state refines to the k+1
    /// "number of failed components" birth–death blocks.
    fn parallel_components(k: usize, fail: f64, repair: f64) -> Ctmc {
        let n = 1usize << k;
        let mut builder = CtmcBuilder::new(n);
        for state in 0..n {
            for bit in 0..k {
                let flipped = state ^ (1 << bit);
                if state & (1 << bit) == 0 {
                    builder.add_transition(state, flipped, fail).unwrap();
                } else {
                    builder.add_transition(state, flipped, repair).unwrap();
                }
            }
        }
        builder.set_initial_state(0).unwrap();
        builder.build().unwrap()
    }

    fn all_up_partition(k: usize) -> InitialPartition {
        let n = 1usize << k;
        let mut initial = InitialPartition::trivial(n);
        let mask: Vec<bool> = (0..n).map(|state| state == 0).collect();
        initial.refine_by_bools(&mask).unwrap();
        initial
    }

    #[test]
    fn symmetric_components_lump_to_a_birth_death_chain() {
        for k in 1..=6 {
            let chain = parallel_components(k, 0.01, 2.0);
            let lumped = lump(&chain, &all_up_partition(k)).unwrap();
            assert_eq!(lumped.num_blocks(), k + 1, "k = {k}");
            lumped.verify(&chain, 0.0).unwrap();
            // Block membership is the popcount.
            for state in 0..chain.num_states() {
                for other in 0..chain.num_states() {
                    let same = state.count_ones() == other.count_ones();
                    assert_eq!(lumped.block_of(state) == lumped.block_of(other), same);
                }
            }
        }
    }

    #[test]
    fn trivial_partition_collapses_any_chain_to_one_block() {
        // With no initial distinctions nothing constrains the aggregation:
        // ordinary lumpability only restricts rates into *other* blocks, so
        // the coarsest partition is a single block — even for asymmetric
        // rates. (The old engine over-split here by weighing intra-block
        // rates.)
        let mut builder = CtmcBuilder::new(2);
        builder.add_transition(0, 1, 1.0).unwrap();
        builder.add_transition(1, 0, 2.0).unwrap();
        let chain = builder.build().unwrap();
        let lumped = lump(&chain, &InitialPartition::trivial(2)).unwrap();
        assert_eq!(lumped.num_blocks(), 1);
        lumped.verify(&chain, 0.0).unwrap();

        let chain = parallel_components(3, 0.5, 4.0);
        let lumped = lump(&chain, &InitialPartition::trivial(8)).unwrap();
        assert_eq!(lumped.num_blocks(), 1);
        lumped.verify(&chain, 0.0).unwrap();
    }

    #[test]
    fn quotient_rates_aggregate_the_flat_rates() {
        let chain = parallel_components(3, 0.5, 4.0);
        let lumped = lump(&chain, &all_up_partition(3)).unwrap();
        assert_eq!(lumped.num_blocks(), 4);
        let quotient = lumped.quotient();
        // From "0 failed" there are 3 ways to fail one component.
        let b0 = lumped.block_of(0b000);
        let b1 = lumped.block_of(0b001);
        assert!((quotient.rate_matrix().get(b0, b1) - 3.0 * 0.5).abs() < 1e-15);
        // From "1 failed": repair back at rate 4, fail another at 2 * 0.5.
        let b2 = lumped.block_of(0b011);
        assert!((quotient.rate_matrix().get(b1, b0) - 4.0).abs() < 1e-15);
        assert!((quotient.rate_matrix().get(b1, b2) - 2.0 * 0.5).abs() < 1e-15);
    }

    #[test]
    fn initial_partition_distinctions_are_preserved() {
        let chain = parallel_components(2, 0.1, 1.0);
        // Separate state 0b01 from 0b10 artificially: no merge may cross it.
        let mut initial = InitialPartition::trivial(4);
        initial
            .refine_by_bools(&[false, true, false, false])
            .unwrap();
        let lumped = lump(&chain, &initial).unwrap();
        assert_eq!(
            lumped.num_blocks(),
            4,
            "splitting one symmetric state splits its twin too"
        );
        lumped.verify(&chain, 0.0).unwrap();
    }

    #[test]
    fn asymmetric_rates_prevent_lumping() {
        // Two components with different failure rates; the all-up state is
        // distinguished (as the composer's labels always do).
        let mut builder = CtmcBuilder::new(4);
        builder.add_transition(0b00, 0b01, 0.1).unwrap();
        builder.add_transition(0b00, 0b10, 0.2).unwrap();
        builder.add_transition(0b01, 0b00, 1.0).unwrap();
        builder.add_transition(0b10, 0b00, 1.0).unwrap();
        builder.add_transition(0b01, 0b11, 0.2).unwrap();
        builder.add_transition(0b10, 0b11, 0.1).unwrap();
        builder.add_transition(0b11, 0b01, 1.0).unwrap();
        builder.add_transition(0b11, 0b10, 1.0).unwrap();
        let chain = builder.build().unwrap();
        let mut initial = InitialPartition::trivial(4);
        initial
            .refine_by_bools(&[true, false, false, false])
            .unwrap();
        let lumped = lump(&chain, &initial).unwrap();
        // 0b01 and 0b10 reach the fully-failed state 0b11 with different
        // rates (0.2 vs 0.1), so they must stay apart.
        assert_eq!(lumped.num_blocks(), 4);
        lumped.verify(&chain, 0.0).unwrap();
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let chain = parallel_components(2, 0.1, 1.0);
        let initial = InitialPartition::trivial(3);
        assert!(matches!(
            lump(&chain, &initial),
            Err(LumpError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }
}
