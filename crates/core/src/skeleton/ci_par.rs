//! CI-level parallel scheduler — **the Fast-BNS contribution** (paper
//! §IV-B).
//!
//! All of a depth's edges enter a dynamic work pool with zero progress.
//! A pool entry is only the edge, its test counts and a progress index;
//! every worker reads the candidate pools from the depth's one shared
//! [`Adjacency`] snapshot. A worker pops an edge and runs its groups of
//! `gs` CI tests back to back with its own engine until the edge is
//! removed (separator found) or its tests are exhausted, then pops the
//! next. A popped edge is owned by exactly one worker, so contingency
//! tables are never shared (no atomics), and a removed edge cancels its
//! remaining CI tests at once — the "edge monitoring" early termination.
//!
//! Load balance comes from the pool, not from splitting edges: a worker
//! that finishes an edge takes whichever edge is next, so a straggler edge
//! with thousands of tests occupies one worker while the others drain the
//! rest of the pool. An edge is never handed back. Its tests run in rank
//! order, one group at a time, so once the pool is empty a handed-back
//! edge would only move to an idle worker and idle the one that gave it
//! up.
//!
//! The pool is a one-shard [`StealPool`]: the paper's single shared LIFO
//! stack. Nothing is pushed after the depth starts, so a worker that finds
//! it empty leaves at once instead of waiting for the others.

use super::common::{merge_workers, run_edge, worker_slots, Adjacency, EdgeTask, Removal};
use crate::config::PcConfig;
use fastbn_data::Dataset;
use fastbn_parallel::{StealPool, Team};

/// Run one depth through the dynamic work pool on `team`.
/// Returns (removals, CI tests performed, tests skipped).
pub fn run_depth(
    team: &Team<'_>,
    data: &Dataset,
    cfg: &PcConfig,
    adj: &Adjacency,
    tasks: Vec<EdgeTask>,
    d: usize,
) -> (Vec<Removal>, u64, u64) {
    let gs = cfg.group_size as u64;
    let pool = StealPool::from_shards(vec![tasks]);
    let workers = worker_slots(team.n_threads(), data, cfg);
    team.broadcast(&|tid| {
        workers.with(tid, |(engine, removals)| {
            while let Some(task) = pool.pop(tid) {
                removals.extend(run_edge(engine, adj, task, gs, d));
                pool.complete_one();
            }
        })
    });
    merge_workers(workers)
}
