//! The [`Dataset`] type: a complete discrete sample matrix in both layouts.

use crate::bitmap::BitmapIndex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which physical layout a consumer wants to stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// One contiguous array per variable (Fast-BNS's transposed storage).
    #[default]
    ColumnMajor,
    /// One contiguous record per sample (naive/baseline storage).
    RowMajor,
}

/// Errors constructing or validating a dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataError {
    /// A column's length differs from the sample count.
    RaggedColumns {
        var: usize,
        expected: usize,
        got: usize,
    },
    /// A stored value is outside `0..arity` for its variable.
    ValueOutOfRange {
        var: usize,
        sample: usize,
        value: u8,
        arity: u8,
    },
    /// An arity below 1 was declared.
    BadArity { var: usize, arity: u8 },
    /// Name list length differs from the number of variables.
    NameCountMismatch { names: usize, vars: usize },
    /// The dataset would contain zero variables.
    NoVariables,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::RaggedColumns { var, expected, got } => {
                write!(f, "column {var} has {got} samples, expected {expected}")
            }
            DataError::ValueOutOfRange {
                var,
                sample,
                value,
                arity,
            } => write!(
                f,
                "value {value} at (sample {sample}, var {var}) exceeds arity {arity}"
            ),
            DataError::BadArity { var, arity } => {
                write!(f, "variable {var} has invalid arity {arity}")
            }
            DataError::NameCountMismatch { names, vars } => {
                write!(f, "{names} names provided for {vars} variables")
            }
            DataError::NoVariables => write!(f, "dataset must have at least one variable"),
        }
    }
}

impl std::error::Error for DataError {}

/// A complete (no missing values) discrete dataset over `n_vars` variables
/// and `n_samples` samples. Column-major storage (Fast-BNS's transposed
/// layout) is the authoritative copy; the row-major view is derived.
///
/// Derived views are built lazily on first use and cached for the
/// dataset's lifetime (thread-safe, built at most once):
/// * [`Dataset::row`] — the row-major transposition used by the
///   baselines; column-major hot paths never pay for it;
/// * [`Dataset::state_frequencies`] — per-column state counts, one pass;
/// * [`Dataset::bitmap_index`] — the per-(variable, state) sample bitmaps
///   behind the bitmap counting engine;
/// * [`Dataset::xlnx_table`] — `n·ln n` for every count a table over
///   this dataset can hold, read by the G² decision.
///
/// The caches are pure derived data: equality and cloning consider only
/// the logical contents (a clone starts with cold caches).
///
/// Every instance also carries a process-unique [`Dataset::id`], so
/// consumers can key per-dataset state on it instead of on an address.
#[derive(Debug)]
pub struct Dataset {
    /// Process-unique instance id (see [`Dataset::id`]).
    id: u64,
    n_vars: usize,
    n_samples: usize,
    arities: Vec<u8>,
    names: Vec<String>,
    /// `col_major[v * n_samples + s]`
    col_major: Vec<u8>,
    /// Lazily transposed `row_major[s * n_vars + v]`.
    row_major: OnceLock<Vec<u8>>,
    /// Lazily built per-(variable, state) sample bitmaps.
    bitmaps: OnceLock<BitmapIndex>,
    /// Lazily counted per-column state frequencies.
    state_freqs: OnceLock<Vec<Vec<u64>>>,
    /// Lazily derived per-column observed-state lists.
    obs_states: OnceLock<Vec<Vec<usize>>>,
    /// Lazily tabulated `n·ln n` for every count `0..=n_samples`.
    xlnx: OnceLock<Box<[f64]>>,
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        // Caches are not cloned: they are cheap to rebuild relative to
        // their memory cost, and most clones (truncations, test fixtures)
        // never need them.
        Self {
            id: next_id(),
            n_vars: self.n_vars,
            n_samples: self.n_samples,
            arities: self.arities.clone(),
            names: self.names.clone(),
            col_major: self.col_major.clone(),
            row_major: OnceLock::new(),
            bitmaps: OnceLock::new(),
            state_freqs: OnceLock::new(),
            obs_states: OnceLock::new(),
            xlnx: OnceLock::new(),
        }
    }
}

/// A fresh [`Dataset::id`]: ids are never reused within a process.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        // Logical contents only; the id names the instance, row_major is
        // redundant with col_major and the caches are derived data.
        self.n_vars == other.n_vars
            && self.n_samples == other.n_samples
            && self.arities == other.arities
            && self.names == other.names
            && self.col_major == other.col_major
    }
}

impl Eq for Dataset {}

impl Dataset {
    /// Build from per-variable columns.
    ///
    /// `names` may be empty (defaults to `V0..Vn`). Every value is validated
    /// against its variable's arity.
    pub fn from_columns(
        names: Vec<String>,
        arities: Vec<u8>,
        columns: Vec<Vec<u8>>,
    ) -> Result<Self, DataError> {
        let n_vars = columns.len();
        if n_vars == 0 {
            return Err(DataError::NoVariables);
        }
        if !names.is_empty() && names.len() != n_vars {
            return Err(DataError::NameCountMismatch {
                names: names.len(),
                vars: n_vars,
            });
        }
        if arities.len() != n_vars {
            return Err(DataError::NameCountMismatch {
                names: arities.len(),
                vars: n_vars,
            });
        }
        let n_samples = columns[0].len();
        for (v, col) in columns.iter().enumerate() {
            if col.len() != n_samples {
                return Err(DataError::RaggedColumns {
                    var: v,
                    expected: n_samples,
                    got: col.len(),
                });
            }
        }
        for (v, &a) in arities.iter().enumerate() {
            if a == 0 {
                return Err(DataError::BadArity { var: v, arity: a });
            }
        }
        for (v, col) in columns.iter().enumerate() {
            for (s, &val) in col.iter().enumerate() {
                if val >= arities[v] {
                    return Err(DataError::ValueOutOfRange {
                        var: v,
                        sample: s,
                        value: val,
                        arity: arities[v],
                    });
                }
            }
        }
        let names = if names.is_empty() {
            (0..n_vars).map(|v| format!("V{v}")).collect()
        } else {
            names
        };
        let mut col_major = Vec::with_capacity(n_vars * n_samples);
        for col in &columns {
            col_major.extend_from_slice(col);
        }
        Ok(Self {
            id: next_id(),
            n_vars,
            n_samples,
            arities,
            names,
            col_major,
            row_major: OnceLock::new(),
            bitmaps: OnceLock::new(),
            state_freqs: OnceLock::new(),
            obs_states: OnceLock::new(),
            xlnx: OnceLock::new(),
        })
    }

    /// Build from per-sample rows (each of length `n_vars`).
    pub fn from_rows(
        names: Vec<String>,
        arities: Vec<u8>,
        rows: &[Vec<u8>],
    ) -> Result<Self, DataError> {
        let n_vars = arities.len();
        if n_vars == 0 {
            return Err(DataError::NoVariables);
        }
        let mut columns = vec![Vec::with_capacity(rows.len()); n_vars];
        for (s, row) in rows.iter().enumerate() {
            if row.len() != n_vars {
                return Err(DataError::RaggedColumns {
                    var: s,
                    expected: n_vars,
                    got: row.len(),
                });
            }
            for (v, &val) in row.iter().enumerate() {
                columns[v].push(val);
            }
        }
        Self::from_columns(names, arities, columns)
    }

    /// This instance's id, unique within the process: every construction
    /// and every clone takes a new one, and a dataset never changes after
    /// construction. State derived from one dataset (the bitmap engine's
    /// pair cache) is keyed on it, so it can never be read against
    /// another dataset, even one at a reused address.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of variables (features / BN nodes).
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of samples.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Arity (number of states) of variable `v`.
    #[inline]
    pub fn arity(&self, v: usize) -> usize {
        self.arities[v] as usize
    }

    /// All arities.
    #[inline]
    pub fn arities(&self) -> &[u8] {
        &self.arities
    }

    /// Variable names.
    #[inline]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Value of variable `v` in sample `s` (reads the column-major copy).
    #[inline(always)]
    pub fn value(&self, s: usize, v: usize) -> u8 {
        self.col_major[v * self.n_samples + s]
    }

    /// The contiguous column of variable `v` — Fast-BNS's streaming access.
    #[inline]
    pub fn column(&self, v: usize) -> &[u8] {
        &self.col_major[v * self.n_samples..(v + 1) * self.n_samples]
    }

    /// The contiguous record of sample `s` — the baselines' access pattern.
    ///
    /// The row-major transposition is built on first call and cached
    /// (thread-safe, at most once); datasets that only ever stream
    /// columns never materialize it.
    #[inline]
    pub fn row(&self, s: usize) -> &[u8] {
        let rm = self.row_major.get_or_init(|| {
            let mut row_major = vec![0u8; self.n_vars * self.n_samples];
            for v in 0..self.n_vars {
                for (s, &val) in self.column(v).iter().enumerate() {
                    row_major[s * self.n_vars + v] = val;
                }
            }
            row_major
        });
        &rm[s * self.n_vars..(s + 1) * self.n_vars]
    }

    /// The whole column-major block (`col_major[v * n_samples + s]`) —
    /// the backing storage bitmap construction streams.
    #[inline]
    pub(crate) fn raw_col_major(&self) -> &[u8] {
        &self.col_major
    }

    /// Per-column state frequencies: `state_frequencies()[v][s]` is the
    /// number of samples with `column(v) == s`. Counted in one pass on
    /// first use and cached — the counting-engine cost model and the
    /// dataset summary both read these without rescanning columns.
    pub fn state_frequencies(&self) -> &[Vec<u64>] {
        self.state_freqs.get_or_init(|| {
            (0..self.n_vars)
                .map(|v| {
                    let mut counts = vec![0u64; self.arity(v)];
                    for &val in self.column(v) {
                        counts[val as usize] += 1;
                    }
                    counts
                })
                .collect()
        })
    }

    /// The states of `v` actually observed in the data (nonzero
    /// frequency), ascending. Derived from the cached frequencies on first
    /// use and cached — the bitmap counting engine iterates these on every
    /// fill, so they must not be recomputed per query.
    pub fn observed_states(&self, v: usize) -> &[usize] {
        let lists = self.obs_states.get_or_init(|| {
            self.state_frequencies()
                .iter()
                .map(|counts| {
                    counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(s, _)| s)
                        .collect()
                })
                .collect()
        });
        &lists[v]
    }

    /// Number of states of `v` actually observed in the data (nonzero
    /// frequency), at least 1. Declared-but-unseen states contribute
    /// nothing to a count table, so cost models should size work by this
    /// rather than the declared arity.
    pub fn observed_arity(&self, v: usize) -> usize {
        self.observed_states(v).len().max(1)
    }

    /// The per-(variable, state) sample-bitmap index, built on first use
    /// and cached (see [`BitmapIndex`] for the memory cost).
    pub fn bitmap_index(&self) -> &BitmapIndex {
        self.bitmaps.get_or_init(|| BitmapIndex::build(self))
    }

    /// `xlnx_table()[n] = n·ln n` for every count `n` in `0..=n_samples`
    /// (`0·ln 0 = 0`), tabulated on first use and cached. No cell or
    /// marginal of a contingency table over this dataset exceeds
    /// `n_samples`, so the G² decision reads every `x ln x` term from here
    /// instead of calling `ln`; one table serves every CI engine of every
    /// thread of a learn.
    pub fn xlnx_table(&self) -> &[f64] {
        self.xlnx.get_or_init(|| {
            (0..=self.n_samples)
                .map(|n| {
                    if n == 0 {
                        0.0
                    } else {
                        n as f64 * (n as f64).ln()
                    }
                })
                .collect()
        })
    }

    /// A view of the first `k` samples (cheap truncation used by the
    /// sample-size sweeps of Figures 3–4).
    ///
    /// # Panics
    /// Panics if `k > n_samples`.
    pub fn truncated(&self, k: usize) -> Dataset {
        assert!(
            k <= self.n_samples,
            "cannot truncate {k} > {}",
            self.n_samples
        );
        let columns: Vec<Vec<u8>> = (0..self.n_vars)
            .map(|v| self.column(v)[..k].to_vec())
            .collect();
        Dataset::from_columns(self.names.clone(), self.arities.clone(), columns)
            .expect("truncation of a valid dataset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![2, 3],
            vec![vec![0, 1, 0, 1], vec![2, 0, 1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn layouts_agree() {
        let d = small();
        assert_eq!(d.n_vars(), 2);
        assert_eq!(d.n_samples(), 4);
        for s in 0..4 {
            for v in 0..2 {
                assert_eq!(d.value(s, v), d.row(s)[v]);
                assert_eq!(d.value(s, v), d.column(v)[s]);
            }
        }
    }

    #[test]
    fn xlnx_table_covers_every_count() {
        let t = small().xlnx_table().to_vec();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 0.0);
        assert_eq!(t[4], 4.0 * 4f64.ln());
    }

    #[test]
    fn from_rows_matches_from_columns() {
        let rows = vec![vec![0, 2], vec![1, 0], vec![0, 1], vec![1, 2]];
        let d2 = Dataset::from_rows(vec!["a".into(), "b".into()], vec![2, 3], &rows).unwrap();
        assert_eq!(small(), d2);
    }

    #[test]
    fn default_names_generated() {
        let d = Dataset::from_columns(vec![], vec![2], vec![vec![0, 1]]).unwrap();
        assert_eq!(d.names(), &["V0".to_string()]);
    }

    #[test]
    fn value_out_of_range_rejected() {
        let err = Dataset::from_columns(vec![], vec![2], vec![vec![0, 2]]).unwrap_err();
        assert!(matches!(err, DataError::ValueOutOfRange { value: 2, .. }));
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = Dataset::from_columns(vec![], vec![2, 2], vec![vec![0, 1], vec![0]]).unwrap_err();
        assert!(matches!(err, DataError::RaggedColumns { .. }));
    }

    #[test]
    fn zero_arity_rejected() {
        let err = Dataset::from_columns(vec![], vec![0], vec![vec![]]).unwrap_err();
        assert!(matches!(err, DataError::BadArity { .. }));
    }

    #[test]
    fn empty_dataset_rejected() {
        assert_eq!(
            Dataset::from_columns(vec![], vec![], vec![]).unwrap_err(),
            DataError::NoVariables
        );
    }

    #[test]
    fn truncation_keeps_prefix() {
        let d = small().truncated(2);
        assert_eq!(d.n_samples(), 2);
        assert_eq!(d.column(0), &[0, 1]);
        assert_eq!(d.column(1), &[2, 0]);
        assert_eq!(d.row(1), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn over_truncation_panics() {
        small().truncated(5);
    }

    #[test]
    fn state_frequencies_count_every_sample_once() {
        let d = small();
        let f = d.state_frequencies();
        assert_eq!(f[0], vec![2, 2]);
        assert_eq!(f[1], vec![1, 1, 2]);
        for counts in f {
            assert_eq!(counts.iter().sum::<u64>(), d.n_samples() as u64);
        }
        // Cached: the second call returns the same allocation.
        assert!(std::ptr::eq(d.state_frequencies(), f));
    }

    #[test]
    fn observed_arity_ignores_unseen_states() {
        // Arity 4 declared, only states 0 and 2 observed.
        let d = Dataset::from_columns(vec![], vec![4], vec![vec![0, 2, 0, 2]]).unwrap();
        assert_eq!(d.observed_arity(0), 2);
        assert_eq!(d.observed_states(0), &[0, 2]);
        assert_eq!(d.arity(0), 4);
        // Cached: the second call serves the same allocation.
        assert!(std::ptr::eq(d.observed_states(0), d.observed_states(0)));
    }

    #[test]
    fn bitmap_index_is_cached_and_consistent() {
        let d = small();
        let idx = d.bitmap_index();
        assert!(std::ptr::eq(d.bitmap_index(), idx));
        // Popcounts of the state bitmaps equal the state frequencies.
        for v in 0..d.n_vars() {
            for s in 0..d.arity(v) {
                let pop: u64 = idx.words(v, s).iter().map(|w| w.count_ones() as u64).sum();
                assert_eq!(pop, d.state_frequencies()[v][s], "var {v} state {s}");
            }
        }
    }

    #[test]
    fn caches_are_invisible_to_equality_and_cloning() {
        let a = small();
        let b = small();
        let _ = a.bitmap_index();
        let _ = a.state_frequencies();
        assert_eq!(a, b, "built caches must not affect equality");
        let c = a.clone();
        assert_eq!(c, a);
        // Equal contents, distinct instances.
        assert!(a.id() != b.id() && c.id() != a.id());
        // The clone rebuilds its own caches on demand.
        assert_eq!(c.observed_arity(0), a.observed_arity(0));
    }

    #[test]
    fn error_display_is_informative() {
        let err = Dataset::from_columns(vec![], vec![2], vec![vec![0, 7]]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('7') && msg.contains("arity"), "{msg}");
    }
}
