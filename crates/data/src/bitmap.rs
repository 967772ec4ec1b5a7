//! Per-(variable, state) sample bitmaps — the index behind the bitmap /
//! popcount counting engine.
//!
//! For every variable `v` and every state `s < arity(v)` the index holds a
//! sample bitmap with bit `i` set iff `column(v)[i] == s`. A
//! contingency-table cell count then becomes an AND + `count_ones` sweep
//! over `⌈m/64⌉` words per involved variable instead of an `m`-element
//! column scan — the strategy bnlearn's optimised backends use for
//! low-arity/high-sample regimes.
//!
//! Two representations sit behind one index type, selected by
//! [`IndexKind`]:
//!
//! * [`IndexKind::Dense`] — one [`BitSet`] per (variable, state):
//!   `Σ_v arity(v) · ⌈m/64⌉ · 8` bytes total, the fastest layout when
//!   most states are common.
//! * [`IndexKind::Compressed`] — one [`CompressedBitmap`] per
//!   (variable, state): roaring-style per-block containers (dense words /
//!   sorted `u16` positions / run-length), often several times smaller on
//!   high-arity or sparse data, with AND + popcount kernels specialised
//!   per container (see `fastbn_stats::simd`).
//!
//! The process-wide default kind comes from [`BITMAP_INDEX_ENV`]
//! (`dense` | `compressed`, read once) and can be overridden
//! programmatically via [`set_default_index_kind`] — counts are
//! bit-identical across kinds by construction, so flipping the default is
//! always safe. The index is built lazily and cached on
//! [`crate::Dataset`] (see `Dataset::bitmap_index`), so workloads that
//! never select the bitmap engine never pay for it.

use crate::compressed::CompressedBitmap;
use crate::dataset::Dataset;
use fastbn_graph::BitSet;
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the default bitmap-index
/// representation: `dense` (the default) or `compressed`. Read once per
/// process; an unknown value panics rather than silently falling back.
pub const BITMAP_INDEX_ENV: &str = "FASTBN_BITMAP_INDEX";

/// Which physical representation a [`BitmapIndex`] uses (see the module
/// docs for the trade-off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Uncompressed `u64` words per (variable, state).
    Dense,
    /// Roaring-style per-block containers per (variable, state).
    Compressed,
}

impl IndexKind {
    /// Stable lowercase name (the [`BITMAP_INDEX_ENV`] vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Dense => "dense",
            IndexKind::Compressed => "compressed",
        }
    }

    /// Parse an env-var value; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(IndexKind::Dense),
            "compressed" => Some(IndexKind::Compressed),
            _ => None,
        }
    }
}

/// Process-wide default index kind, resolved lazily from
/// [`BITMAP_INDEX_ENV`] on first use (0 = unresolved, 1 = dense,
/// 2 = compressed).
static DEFAULT_KIND: AtomicU8 = AtomicU8::new(0);

/// The default [`IndexKind`] new indexes are built with.
///
/// First call resolves [`BITMAP_INDEX_ENV`] (default [`IndexKind::Dense`])
/// and caches the answer for the process lifetime.
///
/// # Panics
/// Panics if the env var holds an unknown value — misconfiguration should
/// fail loudly, not silently index densely.
pub fn default_index_kind() -> IndexKind {
    match DEFAULT_KIND.load(Ordering::Relaxed) {
        1 => IndexKind::Dense,
        2 => IndexKind::Compressed,
        _ => {
            let kind = match std::env::var(BITMAP_INDEX_ENV) {
                Ok(raw) => IndexKind::parse(&raw).unwrap_or_else(|| {
                    panic!("{BITMAP_INDEX_ENV}={raw:?} is not an index kind (dense|compressed)")
                }),
                Err(_) => IndexKind::Dense,
            };
            set_default_index_kind(kind);
            kind
        }
    }
}

/// Override the process-wide default index kind (test/tool hook; the
/// production path is [`BITMAP_INDEX_ENV`]).
///
/// Only affects indexes built *after* the call — [`crate::Dataset`]
/// caches its index on first build, so flip the default before touching
/// a dataset's index (or build a fresh dataset). Safe to race: counts
/// are bit-identical across kinds by construction.
pub fn set_default_index_kind(kind: IndexKind) {
    let code = match kind {
        IndexKind::Dense => 1,
        IndexKind::Compressed => 2,
    };
    DEFAULT_KIND.store(code, Ordering::Relaxed);
}

/// A borrowed view of one (variable, state) sample bitmap — what the
/// counting kernels dispatch on.
#[derive(Clone, Copy, Debug)]
pub enum StateBits<'a> {
    /// Dense `u64` words, `⌈m/64⌉` of them, trailing bits zero.
    Dense(&'a [u64]),
    /// A roaring-style compressed bitmap over the same sample range.
    Compressed(&'a CompressedBitmap),
}

/// The physical storage: all state bitmaps of one representation.
#[derive(Clone, Debug)]
enum Store {
    Dense(Vec<BitSet>),
    Compressed(Vec<CompressedBitmap>),
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
    store: Store,
    /// Start of each variable's state run (plus a final end-sentinel
    /// entry).
    offsets: Vec<usize>,
    /// Words per (dense) bitmap: `⌈n_samples / 64⌉`.
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
    /// Build the index in one pass per column, using the process default
    /// [`IndexKind`].
    pub fn build(data: &Dataset) -> Self {
        Self::build_cols_with(
            default_index_kind(),
            data.n_samples(),
            data.arities(),
            data.raw_col_major(),
        )
    }

    /// Build the index over any contiguous column-major block
    /// (`col_major[v * n_rows + i]`) with an explicit representation.
    pub fn build_cols_with(
        kind: IndexKind,
        n_rows: usize,
        arities: &[u8],
        col_major: &[u8],
    ) -> Self {
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

        let mut dense: Vec<BitSet> = Vec::new();
        let mut compressed: Vec<CompressedBitmap> = Vec::new();
        match kind {
            IndexKind::Dense => dense.reserve(total_states),
            IndexKind::Compressed => compressed.reserve(total_states),
        }
        for (v, &a) in arities.iter().enumerate() {
            let col = &col_major[v * n_rows..(v + 1) * n_rows];
            let words = column_state_words(col, a as usize, n_words);
            for state_words in words {
                match kind {
                    IndexKind::Dense => dense.push(BitSet::from_words(state_words, n_rows)),
                    IndexKind::Compressed => {
                        compressed.push(CompressedBitmap::from_words(&state_words, n_rows))
                    }
                }
            }
        }
        let store = match kind {
            IndexKind::Dense => Store::Dense(dense),
            IndexKind::Compressed => Store::Compressed(compressed),
        };
        Self {
            store,
            offsets,
            n_words,
            n_rows,
        }
    }

    /// Which representation this index was built with.
    #[inline]
    pub fn kind(&self) -> IndexKind {
        match self.store {
            Store::Dense(_) => IndexKind::Dense,
            Store::Compressed(_) => IndexKind::Compressed,
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

    #[inline]
    fn slot(&self, v: usize, state: usize) -> usize {
        let base = self.offsets[v];
        assert!(
            base + state < self.offsets[v + 1],
            "state {state} out of range for variable {v}"
        );
        base + state
    }

    /// The sample bitmap of `(variable, state)` as raw `u64` words.
    ///
    /// Only available on a dense index; compressed bitmaps have no
    /// resident word array — use [`BitmapIndex::state_bits`] and
    /// dispatch.
    ///
    /// # Panics
    /// Panics if `v` or `state` is out of range, or if the index is
    /// compressed.
    #[inline]
    pub fn words(&self, v: usize, state: usize) -> &[u64] {
        let slot = self.slot(v, state);
        match &self.store {
            Store::Dense(sets) => sets[slot].words(),
            Store::Compressed(_) => {
                panic!("compressed bitmap index has no dense words; use state_bits")
            }
        }
    }

    /// The sample bitmap of `(variable, state)` for kernel dispatch.
    ///
    /// # Panics
    /// Panics if `v` or `state` is out of range.
    #[inline]
    pub fn state_bits(&self, v: usize, state: usize) -> StateBits<'_> {
        let slot = self.slot(v, state);
        match &self.store {
            Store::Dense(sets) => StateBits::Dense(sets[slot].words()),
            Store::Compressed(maps) => StateBits::Compressed(&maps[slot]),
        }
    }

    /// Total size of the bitmap payload in bytes, reflecting the actual
    /// representation: `Σ_v arity(v) · ⌈m/64⌉ · 8` for a dense index,
    /// the summed per-block container payloads for a compressed one.
    pub fn memory_bytes(&self) -> usize {
        match &self.store {
            Store::Dense(sets) => sets.len() * self.n_words * 8,
            Store::Compressed(maps) => maps.iter().map(|m| m.payload_bytes()).sum(),
        }
    }

    /// Mean words a kernel streams per state bitmap of variable `v` —
    /// the quantity the `Auto` engine cost model prices. `⌈m/64⌉` for a
    /// dense index; for a compressed one, the mean container payload in
    /// words (rounded up), which is what the specialised kernels
    /// actually touch.
    pub fn mean_state_words(&self, v: usize) -> u64 {
        match &self.store {
            Store::Dense(_) => self.n_words as u64,
            Store::Compressed(maps) => {
                let lo = self.offsets[v];
                let hi = self.offsets[v + 1];
                let payload: usize = maps[lo..hi].iter().map(|m| m.payload_bytes()).sum();
                (payload as u64).div_ceil(8).div_ceil((hi - lo) as u64)
            }
        }
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
        let idx = BitmapIndex::build_cols_with(
            IndexKind::Dense,
            d.n_samples(),
            d.arities(),
            d.raw_col_major(),
        );
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
        assert_eq!(idx.kind(), IndexKind::Dense);
        assert_eq!(idx.mean_state_words(0), 1);
    }

    #[test]
    fn compressed_index_matches_dense_bit_for_bit() {
        let d = data();
        let dense = BitmapIndex::build_cols_with(
            IndexKind::Dense,
            d.n_samples(),
            d.arities(),
            d.raw_col_major(),
        );
        let comp = BitmapIndex::build_cols_with(
            IndexKind::Compressed,
            d.n_samples(),
            d.arities(),
            d.raw_col_major(),
        );
        assert_eq!(comp.kind(), IndexKind::Compressed);
        let mut buf = Vec::new();
        for v in 0..d.n_vars() {
            for s in 0..d.arity(v) {
                match comp.state_bits(v, s) {
                    StateBits::Compressed(cb) => {
                        cb.decompress_into(&mut buf);
                        assert_eq!(buf, dense.words(v, s), "var {v} state {s}");
                    }
                    StateBits::Dense(_) => panic!("compressed index returned dense bits"),
                }
            }
        }
        // Tiny sparse payloads beat whole dense words here.
        assert!(comp.memory_bytes() < dense.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "no dense words")]
    fn compressed_index_has_no_dense_words() {
        let d = data();
        BitmapIndex::build_cols_with(
            IndexKind::Compressed,
            d.n_samples(),
            d.arities(),
            d.raw_col_major(),
        )
        .words(0, 0);
    }

    #[test]
    fn kind_parsing_and_names() {
        assert_eq!(IndexKind::parse("dense"), Some(IndexKind::Dense));
        assert_eq!(IndexKind::parse("compressed"), Some(IndexKind::Compressed));
        assert_eq!(IndexKind::parse("roaring"), None);
        assert_eq!(IndexKind::Dense.name(), "dense");
        assert_eq!(IndexKind::Compressed.name(), "compressed");
    }

    #[test]
    fn word_accumulated_build_handles_unaligned_tails() {
        // 70 rows: one full 64-row word plus a 6-row tail.
        let n = 70;
        let col: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let idx = BitmapIndex::build_cols_with(IndexKind::Dense, n, &[3], &col);
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
