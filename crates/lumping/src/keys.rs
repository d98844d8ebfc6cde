//! Numbering fixed-width keys in order of first appearance.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Fixed-width keys of `u64` words, each stored once in an arena in
/// insertion order and found again through an open-addressing table of
/// their indices: key `i` is the `i`-th distinct key inserted.
///
/// The composer numbers its packed states with one, and
/// [`InitialPartition::refine_by_f64`](crate::InitialPartition::refine_by_f64)
/// numbers `(class, value)` pairs with another.
///
/// A key is hashed by a folded multiply per word — the 128-bit product of
/// the running hash, xored with the word, and a fixed odd constant, its two
/// halves xored — starting from a seed drawn from a fresh [`RandomState`]
/// for every table. Each slot pairs a key's index with a 32-bit tag, the
/// high half of its hash made odd, and the key's home slot is the top bits
/// of its tag: a probe reads the arena only when the tags agree, and
/// growing the table places every slot again from its tag alone, without
/// reading or hashing a key.
///
/// The standard library's default hasher (SipHash) is kept for keys that
/// come from outside the program, whose sender could craft them to collide.
/// These keys are words the program computes — packed reachable states,
/// class ids and the bits of values derived from a model — and the seed,
/// random per table, keeps their slots unpredictable all the same, so a
/// mix of a few word operations is enough. Indices follow insertion order
/// alone, so the seed never changes one.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// Words per key.
    words: usize,
    /// Key `i` is `keys[i * words..(i + 1) * words]`.
    keys: Vec<u64>,
    /// `(tag, index)` per slot: a power of two of them, at most half in use.
    /// Tags are odd, so tag 0 marks an empty slot.
    slots: Vec<(u32, u32)>,
    /// `log2(slots.len())`.
    slot_bits: u32,
    seed: u64,
}

/// Where [`KeyTable::find`] stopped without finding its key: the empty slot
/// an insert of that key fills, and the key's tag.
#[derive(Debug)]
pub struct Vacant {
    slot: usize,
    tag: u32,
}

impl KeyTable {
    /// An empty table of keys of `words` words each.
    ///
    /// # Panics
    ///
    /// If `words` is zero.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "a key holds at least one word");
        KeyTable {
            words,
            keys: Vec::new(),
            slots: vec![(0, 0); 16],
            slot_bits: 4,
            seed: RandomState::new().hash_one(words),
        }
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() / self.words
    }

    /// Whether no key is stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key `index`.
    ///
    /// # Panics
    ///
    /// If `index` is not below [`KeyTable::len`].
    #[inline]
    pub fn key(&self, index: usize) -> &[u64] {
        &self.keys[index * self.words..(index + 1) * self.words]
    }

    /// The tag of `key`: the high half of its hash, made odd.
    #[inline]
    fn tag(&self, key: &[u64]) -> u32 {
        // The golden ratio's bits, as in Fibonacci hashing; any odd constant
        // with well-spread bits would do.
        const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
        let hash = key.iter().fold(self.seed, |hash, &word| {
            let product = u128::from(hash ^ word) * u128::from(MULTIPLIER);
            product as u64 ^ (product >> 64) as u64
        });
        (hash >> 32) as u32 | 1
    }

    /// The slot a key with `tag` is first looked for in: the top
    /// `slot_bits` bits of the tag widened to 64 bits.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) << 32) >> (64 - self.slot_bits)) as usize
    }

    /// The index of `key`, or where inserting it goes.
    ///
    /// # Errors
    ///
    /// Returns the [`Vacant`] slot for [`KeyTable::insert`] when the table
    /// does not hold `key`.
    ///
    /// # Panics
    ///
    /// If `key` does not have the table's number of words.
    #[inline]
    pub fn find(&self, key: &[u64]) -> Result<usize, Vacant> {
        assert_eq!(key.len(), self.words, "keys have a fixed width");
        let tag = self.tag(key);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        loop {
            match self.slots[slot] {
                (0, _) => return Err(Vacant { slot, tag }),
                (seen, index) if seen == tag && self.key(index as usize) == key => {
                    return Ok(index as usize)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `key`, for which [`KeyTable::find`] just returned `vacant`, as
    /// the next index and returns that index; `None` when the index does
    /// not fit in 32 bits.
    #[inline]
    pub fn insert(&mut self, vacant: Vacant, key: &[u64]) -> Option<usize> {
        let index = self.len();
        self.slots[vacant.slot] = (vacant.tag, u32::try_from(index).ok()?);
        self.keys.extend_from_slice(key);
        if 2 * (index + 1) > self.slots.len() {
            self.grow();
        }
        Some(index)
    }

    /// Doubles the table and places every slot again from its tag.
    fn grow(&mut self) {
        let doubled = vec![(0, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.slot_bits += 1;
        let mask = self.slots.len() - 1;
        for (tag, index) in old.into_iter().filter(|&(tag, _)| tag != 0) {
            let mut slot = self.home(tag);
            while self.slots[slot].0 != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (tag, index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_numbered_in_insertion_order_across_growth() {
        // Two-word keys, enough of them to grow the table nine times.
        let mut table = KeyTable::new(2);
        let key = |i: u64| [i.wrapping_mul(0x9e37_79b9), i >> 3];
        for i in 0..5000 {
            let vacant = table.find(&key(i)).expect_err("every key is new");
            assert_eq!(table.insert(vacant, &key(i)), Some(i as usize));
        }
        assert_eq!(table.len(), 5000);
        for i in 0..5000 {
            assert_eq!(table.find(&key(i)).ok(), Some(i as usize));
            assert_eq!(table.key(i as usize), key(i));
        }
        assert!(table.find(&key(5000)).is_err());
    }

    #[test]
    fn keys_equal_in_all_but_one_word_are_distinct() {
        let mut table = KeyTable::new(3);
        for word in 0..3 {
            for bit in 0..64 {
                let mut key = [7, 7, 7];
                key[word] ^= 1 << bit;
                let vacant = table.find(&key).expect_err("every key is new");
                table.insert(vacant, &key).expect("few keys");
            }
        }
        assert_eq!(table.len(), 192);
        assert!(table.find(&[7, 7, 7]).is_err());
    }
}
