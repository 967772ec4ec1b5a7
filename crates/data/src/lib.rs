//! # fastbn-data — discrete dataset substrate
//!
//! Fast-BNS's third optimization is a *cache-friendly data storage*: the
//! data matrix is transposed so each row holds one variable (feature) and
//! each column one sample. A CI test `I(X, Y | Z1..Zd)` then streams `d+2`
//! contiguous arrays instead of striding through row-major sample records —
//! turning `(d+2)·m` potential cache misses into `(d+2)·(1 + 4m/B)`
//! (paper §IV-C/§IV-D3).
//!
//! [`Dataset`] exposes **both** layouts so the learner (and the cache
//! simulator reproducing Table IV) can run the identical algorithm against
//! either memory layout:
//!
//! * column-major (`column(v)`) — Fast-BNS's transposed storage, the
//!   authoritative copy,
//! * row-major (`row(s)`) — the naive storage used by the baselines,
//!   transposed lazily on first use.
//!
//! Values are stored as `u8` state codes (`0..arity`); arities up to 255
//! cover every benchmark network in the paper.

pub mod bitmap;
pub mod compressed;
pub mod csv;
pub mod dataset;
pub mod summary;

pub use bitmap::{
    default_index_kind, set_default_index_kind, BitmapIndex, IndexKind, StateBits, BITMAP_INDEX_ENV,
};
pub use compressed::{BlockView, CompressedBitmap, BLOCK_BITS, BLOCK_WORDS};
pub use csv::{dataset_from_csv, dataset_to_csv, CsvError};
pub use dataset::{DataError, Dataset, Layout};
pub use summary::{column_counts, column_entropy, DatasetSummary};
