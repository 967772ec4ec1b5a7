//! Edge-level parallel scheduler (paper §IV-A, coarse-grained).
//!
//! Each depth's task list is split into `t` static contiguous chunks
//! (`|Ed|/t` edges per thread, Figure 1). A thread processes its edges to
//! completion with a private [`CiEngine`]; removals are buffered per thread
//! and applied after the join. The load imbalance the paper analyzes in
//! §IV-D1 — threads whose edges happen to carry many CI tests straggle
//! while others idle — is inherent to this static split and is what the
//! Figure 2 benchmark exposes.

use super::common::{process_group, Adjacency, CiEngine, EdgeTask, GroupOutcome, Removal};
use crate::config::PcConfig;
use fastbn_data::Dataset;
use fastbn_parallel::{chunk_ranges, Team};
use parking_lot::Mutex;

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
    let ranges = chunk_ranges(tasks.len(), t);
    // Hand each thread an owned chunk of tasks (reverse order so indices
    // stay valid while splitting off the tail).
    let mut chunks: Vec<Mutex<Vec<EdgeTask>>> = Vec::with_capacity(t);
    for range in ranges.iter().rev() {
        chunks.push(Mutex::new(tasks.split_off(range.start)));
    }
    chunks.reverse();

    let gs = cfg.group_size as u64;
    let results: Vec<Mutex<(Vec<Removal>, u64, u64)>> =
        (0..t).map(|_| Mutex::new((Vec::new(), 0, 0))).collect();

    team.broadcast(&|tid| {
        let my_tasks = std::mem::take(&mut *chunks[tid].lock());
        let mut engine = CiEngine::new(data, cfg);
        let mut removals = Vec::new();
        for mut task in my_tasks {
            loop {
                match process_group(&mut engine, adj, task, gs, d) {
                    GroupOutcome::Removed(r) => {
                        removals.push(r);
                        break;
                    }
                    GroupOutcome::Exhausted => break,
                    GroupOutcome::InProgress(next) => task = next,
                }
            }
        }
        *results[tid].lock() = (removals, engine.performed, engine.skipped);
    });

    let mut all = Vec::new();
    let mut performed = 0;
    let mut skipped = 0;
    for slot in results {
        let (removals, p, s) = slot.into_inner();
        all.extend(removals);
        performed += p;
        skipped += s;
    }
    (all, performed, skipped)
}
