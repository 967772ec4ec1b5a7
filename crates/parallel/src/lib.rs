//! # fastbn-parallel — parallel substrate for Fast-BNS
//!
//! The paper implements its three parallelism granularities with OpenMP;
//! this crate provides the equivalent runtime pieces in Rust, from scratch:
//!
//! * [`team`] — a scoped worker **team**: `n` threads spawned once per
//!   parallel region that repeatedly execute broadcast jobs. This is the
//!   analogue of an OpenMP parallel region, amortizing thread start-up the
//!   same way (critical for a fair sample-level-parallelism baseline, which
//!   launches one job per CI test),
//! * [`stealpool`] — the paper's **dynamic work pool** (§IV-B) and its
//!   work-stealing generalization: per-worker deques (LIFO at the owner's
//!   end, FIFO for thieves) with an in-flight drain protocol, plus
//!   [`stealpool::run_steal_pool`], which runs the pop → process-group →
//!   requeue loop on a team. The CI-level skeleton
//!   scheduler pops edges from one shard (the paper's shared stack) and
//!   runs each to completion; the score search and the junction tree
//!   shard it,
//! * [`partition`] — balanced contiguous range splitting (edge-level and
//!   sample-level static scheduling) and adjacency sharding by owner key
//!   for seeding the stealing deques,
//! * [`counters`] — per-thread accumulator slots (cache-padded) so workers
//!   can count CI tests without sharing cache lines, merged after a join;
//!   this is how Fast-BNS collects statistics while staying atomic-free on
//!   the hot path,
//! * [`jobs`] — the **serving-side job layer**: a bounded FIFO
//!   [`jobs::JobPool`] of cancellable jobs drained by long-lived runner
//!   threads, each job free to open its own scoped [`Team`] region. This
//!   is what `fastbn-serve` multiplexes client requests onto.

pub mod counters;
pub mod jobs;
pub mod partition;
pub mod stealpool;
pub mod team;

pub use counters::PerThread;
pub use jobs::{CancelToken, JobHandle, JobPool, QueueFull};
pub use partition::{chunk_ranges, shard_by_key};
pub use stealpool::{run_steal_pool, StealPool, StepResult};
pub use team::Team;
