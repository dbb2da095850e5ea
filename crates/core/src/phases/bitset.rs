//! A dense, fixed-length bitset that pool workers fill concurrently.
//!
//! The phases use it wherever they need a sorted, deduplicated list of ids
//! from a dense id space: the master phase's request list (§IV-D5), edge
//! assignment's per-owner mirror lists (Algorithm 3), and the delta path's
//! dirty set and kept-edge mirrors. Inserting is one atomic `or` per new
//! bit (duplicates cost a load), and [`DenseBitset::ones_in`] yields the
//! set bits in ascending order, so the scan *is* the sorted, deduplicated
//! list — linear in the id space, with no per-occurrence storage.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A set over `0..len`, one bit per id, insertable through `&self`.
pub(crate) struct DenseBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl DenseBitset {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        DenseBitset {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Adds `i` (which must be `< len`). Safe to call from many threads.
    #[inline]
    pub(crate) fn insert(&self, i: usize) {
        debug_assert!(i < self.len, "bit {i} outside 0..{}", self.len);
        let word = &self.words[i / 64];
        let bit = 1u64 << (i % 64);
        // Repeat inserts (hub destinations) skip the read-modify-write.
        // Relaxed suffices: a bit publishes no other data, and the set is
        // scanned only after the filling workers have been joined.
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Is `i` in the set? Ids at or beyond `len` never are.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Number of ids in the set.
    pub(crate) fn count(&self) -> u64 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }

    /// The set's ids in `range` (clamped to `0..len`), ascending.
    pub(crate) fn ones_in(&self, range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let (start, end) = (range.start.min(self.len), range.end.min(self.len));
        let words = if start < end {
            start / 64..end.div_ceil(64)
        } else {
            0..0
        };
        words.flat_map(move |w| {
            let mut bits = self.words[w].load(Ordering::Relaxed);
            // Mask off the bits outside `start..end` in the edge words.
            if w == start / 64 {
                bits &= !0u64 << (start % 64);
            }
            if w == end / 64 {
                bits &= (1u64 << (end % 64)) - 1;
            }
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }

    /// All of the set's ids, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.ones_in(0..self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_dedup(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn word_boundary_bits_scan_in_order() {
        for len in [1usize, 63, 64, 65, 66, 127, 128, 129, 200] {
            let set = DenseBitset::new(len);
            let ins: Vec<usize> = [0, 63, 64, 65, len - 1]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            for &i in ins.iter().rev() {
                set.insert(i);
                set.insert(i);
            }
            let want = sorted_dedup(ins);
            assert_eq!(set.ones().collect::<Vec<_>>(), want, "len {len}");
            assert_eq!(set.count(), want.len() as u64);
            for i in 0..len + 70 {
                assert_eq!(
                    set.contains(i),
                    want.contains(&i),
                    "len {len}, contains({i})"
                );
            }
        }
    }

    #[test]
    fn ranged_scan_masks_partial_words() {
        let set = DenseBitset::new(130);
        for i in [0, 1, 62, 63, 64, 65, 127, 128, 129] {
            set.insert(i);
        }
        let got = |r: Range<usize>| set.ones_in(r).collect::<Vec<_>>();
        assert_eq!(got(63..65), vec![63, 64]);
        assert_eq!(got(1..64), vec![1, 62, 63]);
        assert_eq!(got(64..64), Vec::<usize>::new());
        assert_eq!(got(65..129), vec![65, 127, 128]);
        assert_eq!(got(128..1000), vec![128, 129]);
        assert_eq!(got(200..300), Vec::<usize>::new());
        assert_eq!(DenseBitset::new(0).ones().count(), 0);
    }

    proptest! {
        #[test]
        fn ascending_scan_equals_sort_and_dedup(
            len in 1usize..400,
            raw in proptest::collection::vec(0usize..400, 0..300),
            lo in 0usize..400,
            span in 0usize..400,
        ) {
            // Random ids plus the bits either side of the first word edge.
            let edge_bits = [63, 64, 65].into_iter().filter(|&i| i < len);
            let ins: Vec<usize> = raw.into_iter().map(|i| i % len).chain(edge_bits).collect();
            let set = DenseBitset::new(len);
            for &i in &ins {
                set.insert(i);
            }
            let want = sorted_dedup(ins);
            prop_assert_eq!(set.ones().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(set.count(), want.len() as u64);
            let ranged: Vec<usize> =
                want.iter().copied().filter(|&i| i >= lo && i < lo + span).collect();
            prop_assert_eq!(set.ones_in(lo..lo + span).collect::<Vec<_>>(), ranged);
        }
    }
}
