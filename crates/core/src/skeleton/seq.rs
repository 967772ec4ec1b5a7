//! Sequential scheduler (Fast-BNS-seq).
//!
//! Processes each task's groups to completion before moving on, applying
//! removals immediately (safe: candidate snapshots are fixed per depth, so
//! PC-stable's order-independence holds). Skips tasks whose edge was
//! already removed earlier in the depth — the behaviour of the sequential
//! reference packages, and the reason endpoint grouping only pays off
//! further in parallel settings where sibling tasks cannot see each
//! other's removals.

use super::common::{run_edge, Adjacency, CiEngine, CiObserver, EdgeTask, Removal};
use crate::config::PcConfig;
use fastbn_graph::{SepSets, UGraph};

/// Run one depth sequentially. Returns (CI tests performed, edges removed).
pub fn run_depth<O: CiObserver>(
    graph: &mut UGraph,
    sepsets: &mut SepSets,
    cfg: &PcConfig,
    adj: &Adjacency,
    tasks: Vec<EdgeTask>,
    d: usize,
    engine: &mut CiEngine<'_, O>,
) -> (u64, usize) {
    let gs = cfg.group_size as u64;
    let before = engine.performed;
    let mut removals: Vec<Removal> = Vec::new();
    for task in tasks {
        // An earlier task this depth may have removed this edge (ungrouped
        // sibling directions); the sequential reference skips it.
        if !graph.has_edge(task.u as usize, task.v as usize) {
            continue;
        }
        if let Some(removal) = run_edge(engine, adj, task, gs, d) {
            // Apply immediately: later tasks must observe it.
            graph.remove_edge(removal.u as usize, removal.v as usize);
            removals.push(removal);
        }
    }
    let removed = removals.len();
    for r in &removals {
        sepsets.set(r.u as usize, r.v as usize, &r.sepset);
    }
    (engine.performed - before, removed)
}
