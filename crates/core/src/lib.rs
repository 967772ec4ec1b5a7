//! # fastbn-core — the Fast-BNS structure learner
//!
//! A from-scratch Rust implementation of the PC-stable algorithm for
//! Bayesian-network structure learning and of **Fast-BNS**, the accelerated
//! parallel version proposed in *"Fast Parallel Bayesian Network Structure
//! Learning"* (Jiang, Wen & Mian, IPDPS 2022).
//!
//! ## Execution modes
//!
//! The learner is one algorithm behind four interchangeable schedulers
//! (paper §IV, Figure 1):
//!
//! | Mode | Granularity | Scheduling |
//! |------|-------------|------------|
//! | [`ParallelMode::Sequential`]  | —            | one thread, early-exit per edge |
//! | [`ParallelMode::EdgeLevel`]   | coarse       | static `\|Ed\|/t` edge partition |
//! | [`ParallelMode::SampleLevel`] | fine         | samples of each CI test split across threads |
//! | [`ParallelMode::CiLevel`]     | intermediate | **dynamic work pool** of (edge, progress) tasks, groups of `gs` CI tests |
//!
//! All modes produce *identical* skeletons, separating sets and CPDAGs —
//! the paper's "accuracy is exactly the same" claim, enforced by this
//! crate's test suite.
//!
//! ## The four Fast-BNS optimizations
//!
//! 1. CI-level parallelism with the dynamic work pool ([`skeleton`]),
//! 2. endpoint grouping — fuse `(Vi,Vj)` and `(Vj,Vi)` into one task
//!    ([`PcConfig::group_endpoints`]),
//! 3. cache-friendly column-major data access ([`PcConfig::layout`]),
//! 4. on-the-fly conditioning-set generation by lexicographic unranking
//!    ([`combinations`], [`PcConfig::cond_sets`]).
//!
//! Each is independently switchable so the benches can ablate them; the
//! [`baselines`] module wires the "all off" corners into faithful stand-ins
//! for the packages the paper compares against (pcalg/bnlearn-style).
//!
//! ## Learner families
//!
//! PC-stable is one of three families behind the [`score_search::Strategy`]
//! front door:
//!
//! * [`Strategy::PcStable`] — constraint-based (this crate's pipeline),
//! * [`Strategy::HillClimb`] — score-based search (`fastbn-score`'s
//!   parallel BIC/BDeu hill climber),
//! * [`Strategy::Hybrid`] — MMHC-style: the Fast-BNS skeleton restricts
//!   the candidate-parent sets, then hill climbing searches inside it
//!   ([`HybridLearner`]).
//!
//! See the top-level README's "Choosing a learner" for guidance.
//!
//! ## Quick example
//!
//! ```
//! use fastbn_core::{PcConfig, PcStable};
//! use fastbn_data::Dataset;
//!
//! // A tiny handcrafted dataset with X ⟂ Y:
//! let data = Dataset::from_columns(
//!     vec!["x".into(), "y".into()],
//!     vec![2, 2],
//!     vec![vec![0, 1, 0, 1, 0, 1, 0, 1], vec![0, 0, 1, 1, 0, 0, 1, 1]],
//! ).unwrap();
//! let result = PcStable::new(PcConfig::fast_bns()).learn(&data);
//! assert_eq!(result.skeleton().edge_count(), 0); // independent ⇒ no edge
//! ```

pub mod baselines;
pub mod combinations;
pub mod config;
pub mod learner;
pub mod oracle;
pub mod orient;
pub mod perf_model;
pub mod progress;
pub mod score_search;
pub mod skeleton;
pub mod stats_run;
pub mod trace;

pub use config::{CondSetGen, ParallelMode, PcConfig, SampleFill};
pub use fastbn_stats::EngineSelect;
pub use learner::{LearnResult, PcStable};
pub use progress::{LearnPhase, NoProgress, ProgressSink};
pub use score_search::{
    learn_structure, learn_structure_observed, HybridConfig, HybridLearner, HybridResult, Strategy,
    StructureResult,
};
pub use stats_run::{DepthStats, RunStats};
pub use trace::{record_ci_trace, CiTestRecord};
