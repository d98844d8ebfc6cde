//! Reference test of the partition-refinement engine: on random chains with
//! planted interchangeable states and random initial partitions, `lump`
//! must return exactly the partition a naive fixed-point signature
//! refinement computes, and that partition must be stable.
//!
//! Every rate is a multiple of 1/4 below 4, so every sum the engine or the
//! reference forms is exact in floating point: the two agree on the
//! coarsest lumpable partition itself, not merely on one rounding of it.

use arcade_lumping::{lump, InitialPartition};
use ctmc::{Ctmc, CtmcBuilder};
use proptest::prelude::*;

/// Xorshift64: the structure of a chain follows from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A chain over `copies[a]` copies of each abstract state `a`. Each
/// abstract edge `a → b` draws one list of rates, and every copy of `a`
/// sends that list to its own random choice of copies of `b`, so copies of
/// one abstract state are interchangeable. Returns the chain and the
/// abstract state of every concrete state.
fn planted_chain(copies: &[usize], rng: &mut Rng) -> (Ctmc, Vec<usize>) {
    let abstract_of: Vec<usize> = copies
        .iter()
        .enumerate()
        .flat_map(|(a, &count)| std::iter::repeat_n(a, count))
        .collect();
    let members: Vec<Vec<usize>> = (0..copies.len())
        .map(|a| {
            (0..abstract_of.len())
                .filter(|&s| abstract_of[s] == a)
                .collect()
        })
        .collect();
    let mut builder = CtmcBuilder::new(abstract_of.len());
    for a in 0..copies.len() {
        for b in 0..copies.len() {
            // Copies of `a` reach at most `copies[b]` targets, one fewer
            // within `a` itself (no self-loops).
            let room = copies[b] - usize::from(a == b);
            if room == 0 || rng.below(3) == 0 {
                continue;
            }
            let rates: Vec<f64> = (0..=rng.below(room))
                .map(|_| (1 + rng.below(15)) as f64 / 4.0)
                .collect();
            for &s in &members[a] {
                let mut targets: Vec<usize> =
                    members[b].iter().copied().filter(|&t| t != s).collect();
                rng.shuffle(&mut targets);
                for (&t, &rate) in targets.iter().zip(&rates) {
                    builder.add_transition(s, t, rate).unwrap();
                }
            }
        }
    }
    (builder.build().unwrap(), abstract_of)
}

/// The coarsest partition refining `classes` in which every state of a
/// class has the same rate into every other class: split every class by
/// each state's rates into the other classes until nothing splits. Classes
/// are numbered by their smallest state.
fn reference_partition(chain: &Ctmc, mut classes: Vec<usize>) -> Vec<usize> {
    let rates = chain.rate_matrix();
    loop {
        let signatures: Vec<(usize, Vec<(usize, u64)>)> = (0..chain.num_states())
            .map(|s| {
                let (cols, values) = rates.row(s);
                let mut into: Vec<(usize, f64)> = cols
                    .iter()
                    .zip(values)
                    .map(|(&t, &rate)| (classes[t], rate))
                    .filter(|&(class, _)| class != classes[s])
                    .collect();
                into.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
                let mut sums: Vec<(usize, u64)> = Vec::new();
                for group in into.chunk_by(|x, y| x.0 == y.0) {
                    let sum: f64 = group.iter().map(|&(_, rate)| rate).sum();
                    sums.push((group[0].0, sum.to_bits()));
                }
                (classes[s], sums)
            })
            .collect();
        let mut seen: Vec<&(usize, Vec<(usize, u64)>)> = Vec::new();
        let refined: Vec<usize> = signatures
            .iter()
            .map(|signature| {
                seen.iter()
                    .position(|&known| known == signature)
                    .unwrap_or_else(|| {
                        seen.push(signature);
                        seen.len() - 1
                    })
            })
            .collect();
        let stable = seen.len() == 1 + classes.iter().max().copied().unwrap_or(0);
        classes = refined;
        if stable {
            return classes;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Initial classes follow a random label of each abstract state, and a
    /// random mask may further separate single copies, so the planted
    /// blocks are sometimes split, sometimes merged by the refinement.
    #[test]
    fn lump_matches_naive_signature_refinement(
        copies in proptest::collection::vec(1usize..=4, 1..=8),
        labels in proptest::collection::vec(0u8..3, 8),
        split_one_in in 0usize..=8,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let (chain, abstract_of) = planted_chain(&copies, &mut rng);
        let n = chain.num_states();
        let mut initial = InitialPartition::trivial(n);
        let levels: Vec<f64> = abstract_of.iter().map(|&a| f64::from(labels[a])).collect();
        initial.refine_by_f64(&levels).unwrap();
        if split_one_in > 0 {
            let mask: Vec<bool> = (0..n).map(|_| rng.below(split_one_in * n) == 0).collect();
            initial.refine_by_bools(&mask).unwrap();
        }

        let lumped = lump(&chain, &initial).unwrap();
        let blocks: Vec<usize> = (0..n).map(|s| lumped.block_of(s)).collect();
        let expected = reference_partition(&chain, initial.classes().to_vec());
        prop_assert_eq!(&blocks, &expected);
        prop_assert!(lumped.verify(&chain, 0.0).is_ok());
    }
}
