//! Edge-level parallel scheduler (paper §IV-A, coarse-grained).
//!
//! Each depth's task list is split into `t` static contiguous chunks
//! (`|Ed|/t` edges per thread, Figure 1). A thread processes its edges to
//! completion with its own [`CiEngine`](super::common::CiEngine);
//! removals are buffered per thread and applied after the join. The load
//! imbalance the paper analyzes in §IV-D1 — threads whose edges happen to
//! carry many CI tests straggle while others idle — is inherent to this
//! static split and is what the Figure 2 benchmark exposes.

use super::common::{merge_workers, run_edge, worker_slots, Adjacency, EdgeTask, Removal};
use crate::config::PcConfig;
use fastbn_data::Dataset;
use fastbn_parallel::{chunk_ranges, PerThread, Team};

/// Run one depth with static edge partitioning on `team`.
/// Returns (removals, CI tests performed, tests skipped).
pub fn run_depth(
    team: &Team<'_>,
    data: &Dataset,
    cfg: &PcConfig,
    adj: &Adjacency,
    mut tasks: Vec<EdgeTask>,
    d: usize,
) -> (Vec<Removal>, u64, u64) {
    let t = team.n_threads();
    // Hand each thread an owned chunk of tasks (from the back, so the
    // remaining ranges stay valid while splitting off the tail).
    let chunks: PerThread<Vec<EdgeTask>> = PerThread::new(t);
    for (tid, range) in chunk_ranges(tasks.len(), t).into_iter().enumerate().rev() {
        chunks.with(tid, |chunk| *chunk = tasks.split_off(range.start));
    }

    let gs = cfg.group_size as u64;
    let workers = worker_slots(t, data, cfg);
    team.broadcast(&|tid| {
        let my_tasks = chunks.with(tid, std::mem::take);
        workers.with(tid, |(engine, removals)| {
            removals.extend(
                my_tasks
                    .into_iter()
                    .filter_map(|task| run_edge(engine, adj, task, gs, d)),
            )
        })
    });
    merge_workers(workers)
}
