//! Step 1 of PC-stable: skeleton discovery (Algorithm 1), behind four
//! interchangeable schedulers.
//!
//! The depth loop lives here; per-depth execution is delegated to
//! [`seq`], [`edge_par`], [`sample_par`] or [`ci_par`] (the paper's
//! dynamic work pool) according to [`PcConfig::mode`]. Dispatch details:
//!
//! * **Depth 0.** The conditioning set is always empty and the number of
//!   tests is known up front (`n(n−1)/2`), so no dynamic scheduling is
//!   needed (§IV-B, last paragraph). `CiLevel` falls back to plain
//!   edge-level parallelism (`edge_par`) there, as the paper prescribes.
//! * **Removal buffering.** Parallel modes buffer removals and apply them
//!   at the end of the depth; the sequential mode applies them
//!   immediately. PC-stable's per-depth adjacency snapshots make both
//!   orders produce identical results, which the cross-mode tests assert.

pub mod ci_par;
pub mod common;
pub mod edge_par;
pub mod sample_par;
pub mod seq;

use crate::config::{ParallelMode, PcConfig};
use crate::progress::{NoProgress, ProgressSink};
use crate::stats_run::DepthStats;
use common::{apply_removals, build_tasks, CiEngine, CiObserver, DepthTasks, NoObserver};
use fastbn_data::Dataset;
use fastbn_graph::{SepSets, UGraph};
use fastbn_parallel::Team;
use fastbn_stats::CiTestKind;
use std::time::Instant;

/// Learn the skeleton of `data` under `cfg`.
///
/// Returns the undirected skeleton, the separating sets, and per-depth
/// statistics.
pub fn learn_skeleton(data: &Dataset, cfg: &PcConfig) -> (UGraph, SepSets, Vec<DepthStats>) {
    learn_skeleton_observed(data, cfg, NoObserver)
}

/// [`learn_skeleton`] with a per-depth [`ProgressSink`]: after every
/// completed depth the sink receives that depth's [`DepthStats`]; a
/// `false` return stops the depth loop early (deeper conditioning sets
/// are skipped, the current — consistent but less pruned — skeleton is
/// returned). A sink that always returns `true` leaves the result
/// byte-identical to [`learn_skeleton`] under every scheduler.
pub fn learn_skeleton_progress(
    data: &Dataset,
    cfg: &PcConfig,
    progress: &dyn ProgressSink,
) -> (UGraph, SepSets, Vec<DepthStats>) {
    learn_skeleton_inner(data, cfg, NoObserver, progress)
}

/// [`learn_skeleton`] with a CI-test observer. The observer is invoked
/// only under [`ParallelMode::Sequential`] (recorded traces are only
/// meaningful, and only deterministic, sequentially); parallel modes run
/// unobserved.
pub fn learn_skeleton_observed<O: CiObserver>(
    data: &Dataset,
    cfg: &PcConfig,
    observer: O,
) -> (UGraph, SepSets, Vec<DepthStats>) {
    learn_skeleton_inner(data, cfg, observer, &NoProgress)
}

/// Shared implementation behind the three public entry points.
fn learn_skeleton_inner<O: CiObserver>(
    data: &Dataset,
    cfg: &PcConfig,
    observer: O,
    progress: &dyn ProgressSink,
) -> (UGraph, SepSets, Vec<DepthStats>) {
    let n = data.n_vars();
    let mut graph = UGraph::complete(n);
    let mut sepsets = SepSets::new(n);
    let mut depth_stats = Vec::new();
    // Tabulate the dataset's `x·ln x` terms here, before any worker
    // starts: every engine of every depth then shares this one table,
    // allocated by the calling thread.
    if cfg.test != CiTestKind::PearsonX2 {
        data.xlnx_table();
    }

    match cfg.mode {
        ParallelMode::Sequential => {
            let mut engine = CiEngine::with_observer(data, cfg, observer);
            run_depth_loop(
                cfg,
                progress,
                &mut graph,
                &mut sepsets,
                &mut depth_stats,
                |graph, sepsets, DepthTasks { adj, tasks }, d| {
                    seq::run_depth(graph, sepsets, cfg, &adj, tasks, d, &mut engine)
                },
            );
        }
        mode => {
            Team::scoped(cfg.effective_threads(), |team| {
                run_depth_loop(
                    cfg,
                    progress,
                    &mut graph,
                    &mut sepsets,
                    &mut depth_stats,
                    |graph, sepsets, DepthTasks { adj, tasks }, d| {
                        let (removals, performed, _skipped) = match mode {
                            ParallelMode::CiLevel if d > 0 => {
                                ci_par::run_depth(team, data, cfg, &adj, tasks, d)
                            }
                            // CiLevel at depth 0: tests known up front ⇒
                            // the static edge split.
                            ParallelMode::CiLevel | ParallelMode::EdgeLevel => {
                                edge_par::run_depth(team, data, cfg, &adj, tasks, d)
                            }
                            ParallelMode::SampleLevel => {
                                sample_par::run_depth(team, data, cfg, &adj, tasks, d)
                            }
                            ParallelMode::Sequential => unreachable!("handled above"),
                        };
                        let removed = apply_removals(graph, sepsets, removals);
                        (performed, removed)
                    },
                );
            });
        }
    }

    (graph, sepsets, depth_stats)
}

/// The shared depth loop (Algorithm 1 lines 5–20): build tasks from the
/// current graph, dispatch them, record statistics, terminate when no edge
/// admits a conditioning set of the current size.
fn run_depth_loop(
    cfg: &PcConfig,
    progress: &dyn ProgressSink,
    graph: &mut UGraph,
    sepsets: &mut SepSets,
    depth_stats: &mut Vec<DepthStats>,
    mut run_depth: impl FnMut(&mut UGraph, &mut SepSets, DepthTasks, usize) -> (u64, usize),
) {
    let mut d = 0usize;
    loop {
        if let Some(max) = cfg.max_depth {
            if d > max {
                break;
            }
        }
        let work = build_tasks(graph, d, cfg);
        if work.tasks.is_empty() {
            break;
        }
        let edges_at_start = graph.edge_count();
        let started = Instant::now();
        let (ci_tests, edges_removed) = run_depth(graph, sepsets, work, d);
        depth_stats.push(DepthStats {
            depth: d,
            edges_at_start,
            edges_removed,
            ci_tests,
            duration: started.elapsed(),
        });
        // Progress/cancellation seam: runs between depths, on the
        // coordinating thread — a `true` return cannot perturb the run.
        if !progress.on_skeleton_depth(depth_stats.last().expect("just pushed")) {
            break;
        }
        d += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcConfig;

    /// Deterministic dataset: x ⟂ y, w = noisy x, v = noisy y.
    fn dataset() -> Dataset {
        let mut cols: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let mut state = 0xABCDEFu64;
        let mut bit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        for _ in 0..3000 {
            let r = bit();
            let x = (r & 1) as u8;
            let y = ((r >> 1) & 1) as u8;
            let noise_w = (r >> 2) % 100 < 5;
            let noise_v = (r >> 9) % 100 < 5;
            cols[0].push(x);
            cols[1].push(y);
            cols[2].push(if noise_w { 1 - x } else { x });
            cols[3].push(if noise_v { 1 - y } else { y });
        }
        Dataset::from_columns(vec![], vec![2, 2, 2, 2], cols).unwrap()
    }

    #[test]
    fn sequential_learns_expected_skeleton() {
        let data = dataset();
        let (g, sep, stats) = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        // Expected: x—w, y—v; no x—y, x—v, y—w, w—v.
        assert!(g.has_edge(0, 2), "x—w");
        assert!(g.has_edge(1, 3), "y—v");
        assert!(!g.has_edge(0, 1), "x ⟂ y");
        assert!(!g.has_edge(2, 3), "w ⟂ v");
        assert_eq!(g.edge_count(), 2);
        assert!(sep.get(0, 1).is_some(), "sepset recorded for removed pair");
        assert!(stats[0].ci_tests >= 6, "depth 0 tests every pair");
    }

    #[test]
    fn all_modes_agree_exactly() {
        let data = dataset();
        let reference = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        for mode in [
            ParallelMode::EdgeLevel,
            ParallelMode::SampleLevel,
            ParallelMode::CiLevel,
        ] {
            for threads in [1, 2, 4] {
                let cfg = PcConfig::fast_bns().with_mode(mode).with_threads(threads);
                let (g, sep, _) = learn_skeleton(&data, &cfg);
                assert_eq!(g, reference.0, "{mode:?} t={threads} skeleton");
                for v in 1..data.n_vars() {
                    for u in 0..v {
                        assert_eq!(
                            sep.get(u, v),
                            reference.1.get(u, v),
                            "{mode:?} t={threads} sepset({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_sizes_do_not_change_results() {
        let data = dataset();
        let reference = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        for gs in [2, 4, 8] {
            let cfg = PcConfig::fast_bns().with_group_size(gs).with_threads(2);
            let (g, sep, _) = learn_skeleton(&data, &cfg);
            assert_eq!(g, reference.0, "gs={gs}");
            assert_eq!(sep.get(0, 1), reference.1.get(0, 1));
        }
    }

    #[test]
    fn ungrouped_matches_grouped_skeleton() {
        let data = dataset();
        let grouped = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        let ungrouped =
            learn_skeleton(&data, &PcConfig::fast_bns_seq().with_group_endpoints(false));
        assert_eq!(grouped.0, ungrouped.0);
    }

    #[test]
    fn max_depth_caps_the_loop() {
        let data = dataset();
        let cfg = PcConfig::fast_bns_seq().with_max_depth(0);
        let (_, _, stats) = learn_skeleton(&data, &cfg);
        assert_eq!(stats.len(), 1, "only depth 0 ran");
    }

    #[test]
    fn depth_stats_are_consistent() {
        let data = dataset();
        let (g, _, stats) = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        let n = data.n_vars();
        assert_eq!(stats[0].edges_at_start, n * (n - 1) / 2);
        let total_removed: usize = stats.iter().map(|s| s.edges_removed).sum();
        assert_eq!(g.edge_count(), n * (n - 1) / 2 - total_removed);
        for w in stats.windows(2) {
            assert_eq!(w[1].depth, w[0].depth + 1);
        }
    }
}
