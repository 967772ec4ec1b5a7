//! CI-level parallel scheduler — **the Fast-BNS contribution** (paper
//! §IV-B).
//!
//! All of a depth's edges enter a dynamic work pool with zero progress.
//! A pool entry is only the edge, its test counts and a progress index;
//! every worker reads the candidate pools from the depth's one shared
//! [`Adjacency`] snapshot. Workers repeatedly pop an edge, run its next
//! group of `gs` CI tests with a private engine, then either terminate
//! the edge (separator found or tests exhausted) or push it back with
//! advanced progress. Because a popped edge is owned by exactly one
//! worker, contingency tables are never shared (no atomics), and because
//! edges circulate in small slices, a straggler edge with thousands of
//! tests is interleaved across the whole team instead of pinning one
//! thread (load balance). Completed edges leave the pool immediately,
//! cancelling their remaining CI tests — the "edge monitoring" early
//! termination.
//!
//! The pool is a one-shard [`StealPool`]: the paper's single shared LIFO
//! stack, whose most recently requeued edge (columns still cache-warm) is
//! popped next.

use super::common::{process_group, Adjacency, CiEngine, EdgeTask, GroupOutcome, Removal};
use crate::config::PcConfig;
use fastbn_data::Dataset;
use fastbn_parallel::{run_steal_pool, StealPool, StepResult, Team};
use parking_lot::Mutex;

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
    let t = team.n_threads();
    let gs = cfg.group_size as u64;
    // Per-thread engines and removal buffers behind uncontended mutexes:
    // only thread `tid` touches slot `tid`.
    let engines: Vec<Mutex<CiEngine<'_>>> = (0..t)
        .map(|_| Mutex::new(CiEngine::new(data, cfg)))
        .collect();
    let removals: Vec<Mutex<Vec<Removal>>> = (0..t).map(|_| Mutex::new(Vec::new())).collect();

    let pool = StealPool::from_shards(vec![tasks]);
    run_steal_pool(team, &pool, |tid, task| {
        let mut engine = engines[tid].lock();
        match process_group(&mut engine, adj, task, gs, d) {
            GroupOutcome::Removed(r) => {
                removals[tid].lock().push(r);
                StepResult::Done
            }
            GroupOutcome::Exhausted => StepResult::Done,
            GroupOutcome::InProgress(next) => StepResult::Continue(next),
        }
    });

    let mut all = Vec::new();
    let mut performed = 0;
    let mut skipped = 0;
    for (engine, slot) in engines.into_iter().zip(removals) {
        let engine = engine.into_inner();
        performed += engine.performed;
        skipped += engine.skipped;
        all.extend(slot.into_inner());
    }
    (all, performed, skipped)
}
