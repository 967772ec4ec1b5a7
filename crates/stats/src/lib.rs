//! # fastbn-stats — statistical substrate for Bayesian-network structure learning
//!
//! This crate implements, from scratch, every piece of statistical machinery
//! required by the PC-stable algorithm and its Fast-BNS acceleration
//! (Jiang, Wen & Mian, IPDPS 2022):
//!
//! * [`special`] — log-gamma and the regularized incomplete gamma functions
//!   (the numerical kernels behind every χ²-family p-value),
//! * [`chi2`] — the χ² distribution (CDF, survival function, critical values),
//! * [`contingency`] — dense contingency tables over `(X, Y | Z-configuration)`
//!   with marginal accumulation, laid out so the per-`Z`-slice is contiguous,
//! * [`gsq`] — the G² likelihood-ratio test statistic used by the paper,
//!   and [`G2Decision`], its allocation-free accept/reject decision,
//! * [`pearson`] — the classical Pearson X² statistic (alternative CI test),
//! * [`mi`] — the (conditional) mutual-information view of G² (`G² = 2·N·MI`),
//! * [`citest`] — a uniform conditional-independence-test front end used by
//!   the learner ([`CiTestKind`], [`CiOutcome`], degrees-of-freedom rules),
//! * [`batch`] — reusable table arenas: [`batch::TableArena`] of
//!   contingency tables, the sufficient-statistics store of the
//!   score-based learner, and its `f64` sibling [`batch::FactorArena`]
//!   for exact inference,
//! * [`engine`] — the pluggable **counting backends** behind every table
//!   fill: the [`engine::CountEngine`] trait, the historical
//!   [`engine::TiledScan`] column scan, the [`engine::BitmapEngine`]
//!   (AND + popcount over cached per-(variable, state) sample bitmaps),
//!   and the [`engine::EngineSelect`] policy whose `Auto` mode picks per
//!   query. Both engines produce byte-identical counts.
//! * [`simd`] — the runtime-dispatched popcount kernel tiers (scalar /
//!   AVX2 / AVX-512 VPOPCNTDQ) the bitmap engine is built on; all tiers
//!   are bit-identical, forceable via `FASTBN_SIMD`.
//!
//! Everything here is pure computation (no I/O; the only global state is
//! the process-wide kernel-tier dispatch, which cannot affect results),
//! so the learner crates can call these kernels from any thread without
//! synchronization: a CI test is a pure function of a contingency table.

pub mod batch;
pub mod chi2;
pub mod citest;
pub mod contingency;
pub mod engine;
pub mod gsq;
pub mod mi;
pub mod pearson;
pub mod simd;
pub mod special;

pub use batch::{FactorArena, TableArena, FILL_BLOCK};
pub use chi2::{chi2_cdf, chi2_critical_value, chi2_sf};
pub use citest::{CiOutcome, CiTestKind, DfRule};
pub use contingency::{mixed_radix_strides, ContingencyTable};
pub use engine::{BitmapEngine, CountEngine, CountingBackend, EngineSelect, FillSpec, TiledScan};
pub use gsq::{g2_statistic, g2_test, G2Decision};
pub use mi::{conditional_mutual_information, mi_test};
pub use pearson::{x2_statistic, x2_test};
pub use simd::{SimdTier, SIMD_ENV};
pub use special::{ln_gamma, regularized_gamma_p, regularized_gamma_q};
