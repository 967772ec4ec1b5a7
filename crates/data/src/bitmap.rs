//! Per-(variable, state) sample bitmaps — the index behind the bitmap /
//! popcount counting engine.
//!
//! For every variable `v` and every state `s < arity(v)` the index holds a
//! dense sample bitmap with bit `i` set iff `column(v)[i] == s`:
//! `Σ_v arity(v) · ⌈m/64⌉ · 8` bytes total. A contingency-table cell
//! count then becomes an AND + `count_ones` sweep over `⌈m/64⌉` words per
//! involved variable instead of an `m`-element column scan — the strategy
//! bnlearn's optimised backends use for low-arity/high-sample regimes.
//!
//! The index is built lazily and cached on [`crate::Dataset`] (see
//! `Dataset::bitmap_index`), so workloads that never select the bitmap
//! engine never pay for it.

use crate::dataset::Dataset;
use fastbn_graph::BitSet;

/// The physical representation of a [`BitmapIndex`]. There is one: dense
/// `u64` words per (variable, state).
///
/// Kept only because perfbench's host line prints
/// `default_index_kind().name()`; nothing selects between kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Uncompressed `u64` words per (variable, state).
    Dense,
}

impl IndexKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Dense => "dense",
        }
    }
}

/// The [`IndexKind`] every index is built with — always
/// [`IndexKind::Dense`]. Kept for the same reporting reason as
/// [`IndexKind`].
pub fn default_index_kind() -> IndexKind {
    IndexKind::Dense
}

/// The per-(variable, state) sample-bitmap index of one dataset.
///
/// Because every sample has exactly one state per variable, the state
/// bitmaps of a variable partition the sample range: bits `>= n_samples`
/// are zero in every bitmap, so intersections never see trailing garbage.
#[derive(Clone, Debug)]
pub struct BitmapIndex {
    /// All state bitmaps, variable-major: variable `v`'s states occupy
    /// positions `offsets[v] .. offsets[v] + arity(v)`.
    sets: Vec<BitSet>,
    /// Start of each variable's state run (plus a final end-sentinel
    /// entry).
    offsets: Vec<usize>,
    /// Words per bitmap: `⌈n_samples / 64⌉`.
    n_words: usize,
    /// Samples covered.
    n_rows: usize,
}

/// Accumulate one column into per-state dense words: a local `u64` per
/// state is filled 64 rows at a time and flushed whole — roughly an order
/// of magnitude fewer stores than per-row `BitSet::insert`.
fn column_state_words(col: &[u8], arity: usize, n_words: usize) -> Vec<Vec<u64>> {
    let mut words = vec![vec![0u64; n_words]; arity];
    let mut acc = vec![0u64; arity];
    for (wi, rows) in col.chunks(64).enumerate() {
        acc.fill(0);
        for (b, &val) in rows.iter().enumerate() {
            acc[val as usize] |= 1u64 << b;
        }
        for (s, &a) in acc.iter().enumerate() {
            if a != 0 {
                words[s][wi] = a;
            }
        }
    }
    words
}

impl BitmapIndex {
    /// Build the index in one pass per column.
    pub fn build(data: &Dataset) -> Self {
        Self::build_cols(data.n_samples(), data.arities(), data.raw_col_major())
    }

    /// Build the index over any contiguous column-major block
    /// (`col_major[v * n_rows + i]`).
    pub fn build_cols(n_rows: usize, arities: &[u8], col_major: &[u8]) -> Self {
        let n_vars = arities.len();
        debug_assert_eq!(col_major.len(), n_vars * n_rows);
        let mut offsets = Vec::with_capacity(n_vars + 1);
        let mut total_states = 0usize;
        for &a in arities {
            offsets.push(total_states);
            total_states += a as usize;
        }
        offsets.push(total_states);
        let n_words = n_rows.div_ceil(64);

        let mut sets = Vec::with_capacity(total_states);
        for (v, &a) in arities.iter().enumerate() {
            let col = &col_major[v * n_rows..(v + 1) * n_rows];
            for state_words in column_state_words(col, a as usize, n_words) {
                sets.push(BitSet::from_words(state_words, n_rows));
            }
        }
        Self {
            sets,
            offsets,
            n_words,
            n_rows,
        }
    }

    /// Words per bitmap (`⌈n_samples / 64⌉`).
    #[inline]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Samples covered by every bitmap.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The sample bitmap of `(variable, state)` as raw `u64` words.
    ///
    /// # Panics
    /// Panics if `v` or `state` is out of range.
    #[inline]
    pub fn words(&self, v: usize, state: usize) -> &[u64] {
        let base = self.offsets[v];
        assert!(
            base + state < self.offsets[v + 1],
            "state {state} out of range for variable {v}"
        );
        self.sets[base + state].words()
    }

    /// Total size of the bitmap payload in bytes:
    /// `Σ_v arity(v) · ⌈m/64⌉ · 8`.
    pub fn memory_bytes(&self) -> usize {
        self.sets.len() * self.n_words * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_columns(
            vec![],
            vec![2, 3],
            vec![vec![0, 1, 1, 0, 1], vec![2, 0, 1, 2, 2]],
        )
        .unwrap()
    }

    #[test]
    fn bitmaps_match_the_columns() {
        let d = data();
        let idx = BitmapIndex::build_cols(d.n_samples(), d.arities(), d.raw_col_major());
        assert_eq!(idx.n_words(), 1);
        for v in 0..d.n_vars() {
            for s in 0..d.arity(v) {
                let w = idx.words(v, s);
                for (i, &val) in d.column(v).iter().enumerate() {
                    let bit = w[i / 64] >> (i % 64) & 1 == 1;
                    assert_eq!(bit, val as usize == s, "var {v} state {s} sample {i}");
                }
            }
        }
    }

    #[test]
    fn state_bitmaps_partition_the_samples() {
        let d = data();
        let idx = BitmapIndex::build(&d);
        for v in 0..d.n_vars() {
            let mut union = 0u64;
            let mut total = 0u32;
            for s in 0..d.arity(v) {
                union |= idx.words(v, s)[0];
                total += idx.words(v, s)[0].count_ones();
            }
            assert_eq!(total as usize, d.n_samples(), "var {v} disjoint cover");
            assert_eq!(union.count_ones() as usize, d.n_samples());
        }
    }

    #[test]
    fn memory_accounting() {
        let d = data();
        let idx = BitmapIndex::build(&d);
        // 5 state bitmaps × 1 word × 8 bytes.
        assert_eq!(idx.memory_bytes(), 40);
        assert_eq!(default_index_kind().name(), "dense");
    }

    #[test]
    fn word_accumulated_build_handles_unaligned_tails() {
        // 70 rows: one full 64-row word plus a 6-row tail.
        let n = 70;
        let col: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let idx = BitmapIndex::build_cols(n, &[3], &col);
        for s in 0..3usize {
            let expect = col.iter().filter(|&&x| x as usize == s).count();
            let pop: u32 = idx.words(0, s).iter().map(|w| w.count_ones()).sum();
            assert_eq!(pop as usize, expect, "state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let d = data();
        BitmapIndex::build(&d).words(0, 2);
    }
}
