//! Sample-level parallel scheduler (paper §IV-A, fine-grained strawman).
//!
//! The edge/test loop runs sequentially on the orchestrating thread; only
//! the contingency-table *fill* of each CI test is parallelized: the `m`
//! samples are split into `m/t` static chunks (Figure 1). Two fill
//! variants reproduce the two costs the paper identifies:
//!
//! * [`SampleFill::Atomic`] — one shared table, every increment an atomic
//!   RMW (the race-condition fix that makes the scheme slow),
//! * [`SampleFill::LocalTables`] — per-thread tables merged afterwards
//!   (more memory plus a synchronization/merge step).
//!
//! Either way each CI test pays a broadcast + join, so the per-task
//! workload is too small to amortize the parallel overhead — the paper's
//! second criticism, visible in the Figure 2 reproduction.

use super::common::{fill_with, z_strides, Adjacency, CondResolver, EdgeTask, Removal};
use crate::config::{PcConfig, SampleFill};
use fastbn_data::Dataset;
use fastbn_parallel::{chunk_ranges, Team};
use fastbn_stats::citest::run_ci_test;
use fastbn_stats::contingency::AtomicContingencyTable;
use fastbn_stats::ContingencyTable;
use parking_lot::Mutex;
use std::collections::HashSet;

/// Run one depth with per-test sample parallelism on `team`.
/// Returns (removals, CI tests performed, tests skipped). Edges removed
/// earlier in the depth are skipped (the edge loop is sequential, so this
/// matches the sequential reference exactly).
pub fn run_depth(
    team: &Team<'_>,
    data: &Dataset,
    cfg: &PcConfig,
    adj: &Adjacency,
    tasks: Vec<EdgeTask>,
    d: usize,
) -> (Vec<Removal>, u64, u64) {
    let t = team.n_threads();
    let m = data.n_samples();
    let ranges = chunk_ranges(m, t);
    let gs = cfg.group_size as u64;

    let mut removals: Vec<Removal> = Vec::new();
    // Edges removed so far this depth, keyed on the normalised pair.
    let mut removed_this_depth: HashSet<(u32, u32)> = HashSet::new();
    let edge = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut performed = 0u64;
    let mut skipped = 0u64;
    let mut resolver = CondResolver::default();
    let mut zmul: Vec<usize> = Vec::new();

    for task in tasks {
        if removed_this_depth.contains(&edge(task.u, task.v)) {
            continue;
        }
        let total = task.total_tests();
        let mut r = task.progress;
        'task: while r < total {
            let group_end = (r + gs).min(total);
            let mut accepted: Option<Removal> = None;
            for rank in r..group_end {
                let cond = resolver.resolve(adj, &task, rank, d);
                let rx = data.arity(task.u as usize);
                let ry = data.arity(task.v as usize);
                let nz = match z_strides(data, cond, rx, ry, cfg.max_table_cells, &mut zmul) {
                    Some(nz) => nz.max(1),
                    None => {
                        skipped += 1;
                        continue;
                    }
                };

                // Parallel fill across sample chunks.
                let table = match cfg.sample_fill {
                    SampleFill::Atomic => {
                        let shared = AtomicContingencyTable::new(rx, ry, nz);
                        team.broadcast(&|tid| {
                            fill_with(
                                data,
                                cfg.layout,
                                task.u as usize,
                                task.v as usize,
                                cond,
                                &zmul,
                                ranges[tid].clone(),
                                |x, y, z| shared.add(x, y, z),
                            );
                        });
                        shared.into_table()
                    }
                    SampleFill::LocalTables => {
                        let locals: Vec<Mutex<ContingencyTable>> = (0..t)
                            .map(|_| Mutex::new(ContingencyTable::new(rx, ry, nz)))
                            .collect();
                        team.broadcast(&|tid| {
                            let mut local = locals[tid].lock();
                            fill_with(
                                data,
                                cfg.layout,
                                task.u as usize,
                                task.v as usize,
                                cond,
                                &zmul,
                                ranges[tid].clone(),
                                |x, y, z| local.add(x, y, z),
                            );
                        });
                        let mut merged = ContingencyTable::new(rx, ry, nz);
                        for local in locals {
                            merged.merge(&local.into_inner());
                        }
                        merged
                    }
                };

                performed += 1;
                let outcome = run_ci_test(&table, cfg.test, cfg.alpha, cfg.df_rule);
                if outcome.independent && accepted.is_none() {
                    accepted = Some(Removal {
                        u: task.u,
                        v: task.v,
                        sepset: cond.to_vec(),
                        from_first_direction: rank < task.n1,
                    });
                }
            }
            if let Some(removal) = accepted {
                removed_this_depth.insert(edge(removal.u, removal.v));
                removals.push(removal);
                break 'task;
            }
            r = group_end;
        }
    }
    (removals, performed, skipped)
}
