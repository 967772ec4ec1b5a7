//! Machinery shared by the skeleton schedulers: the per-depth adjacency
//! snapshot and edge tasks, the CI engine (contingency fill + test +
//! counters), group and whole-edge processing, and the per-depth task
//! build and removal merge.
//!
//! Every task of a depth reads its candidate pools from one shared
//! [`Adjacency`] snapshot (Algorithm 1, lines 6–7), so a work-pool entry
//! is only an edge, its two test counts and a progress index; the
//! conditioning set of a rank is unranked straight from the snapshot when
//! its group runs (paper §IV-C3).

use crate::combinations::{binomial, unrank_combination};
use crate::config::{CondSetGen, PcConfig};
use fastbn_data::{Dataset, Layout};
use fastbn_graph::UGraph;
use fastbn_parallel::PerThread;
use fastbn_stats::citest::run_ci_test;
use fastbn_stats::{
    mixed_radix_strides, CiTestKind, ContingencyTable, CountingBackend, DfRule, FillSpec,
    G2Decision,
};

/// The adjacency snapshot `a(·)` of one depth (Algorithm 1, lines 6–7) in
/// compressed sparse row form: `n + 1` offsets into `2|E|` neighbour ids,
/// ascending per vertex. All tasks of the depth share it.
#[derive(Debug, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Box<[usize]>,
    ids: Box<[u32]>,
}

impl Adjacency {
    /// Snapshot the current adjacency of every vertex of `graph`.
    pub(crate) fn snapshot(graph: &UGraph) -> Self {
        let mut offsets = Vec::with_capacity(graph.n() + 1);
        let mut ids = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for v in 0..graph.n() {
            ids.extend(graph.neighbors(v).iter_ones().map(|x| x as u32));
            offsets.push(ids.len());
        }
        Self {
            offsets: offsets.into(),
            ids: ids.into(),
        }
    }

    /// `a(v)`: the neighbour ids of `v` at snapshot time, ascending.
    #[inline]
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        &self.ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// One schedulable unit of the skeleton phase: an edge (or an ordered
/// direction of an edge when endpoint grouping is off), its test counts
/// and its processing progress — exactly what the paper's dynamic work
/// pool stores. The candidate pools live in the depth's shared
/// [`Adjacency`].
#[derive(Clone, Debug)]
pub struct EdgeTask {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// `C(|a(u) \ {v}|, d)` — CI tests drawn from the first pool.
    pub n1: u64,
    /// `C(|a(v) \ {u}|, d)` — CI tests drawn from the second pool (0 when
    /// endpoint grouping is off — then the sibling direction is its own
    /// task).
    pub n2: u64,
    /// Next CI-test rank to process, in `0..n1+n2`.
    pub progress: u64,
    /// Flattened pre-materialized conditioning sets (`d` variable ids per
    /// test), populated only under [`CondSetGen::Precomputed`] — the memory
    /// cost Fast-BNS's on-the-fly generation avoids.
    pub precomputed: Option<Box<[u32]>>,
}

impl EdgeTask {
    /// Total CI tests this task can perform at the current depth.
    #[inline]
    pub fn total_tests(&self) -> u64 {
        self.n1 + self.n2
    }
}

/// One depth's work: the shared adjacency snapshot and the edge tasks
/// that draw their conditioning sets from it.
#[derive(Debug)]
pub struct DepthTasks {
    /// The snapshot `a(·)` taken before the depth.
    pub adj: Adjacency,
    /// The depth's tasks, in edge order.
    pub tasks: Vec<EdgeTask>,
}

/// Maps a task's test ranks to conditioning sets — the one rank-to-set
/// mapping every scheduler and the precomputed path share, plus its
/// reusable buffers.
#[derive(Default)]
pub(crate) struct CondResolver {
    combo: Vec<usize>,
    cond: Vec<usize>,
}

impl CondResolver {
    /// The conditioning set of test rank `r` of `task` at depth `d`, by
    /// the mapping [`CiEngine::resolve_cond`] documents.
    pub(crate) fn resolve(
        &mut self,
        adj: &Adjacency,
        task: &EdgeTask,
        r: u64,
        d: usize,
    ) -> &[usize] {
        self.cond.clear();
        if let Some(pre) = &task.precomputed {
            let start = r as usize * d;
            self.cond
                .extend(pre[start..start + d].iter().map(|&x| x as usize));
        } else {
            let (of, skip, rank) = if r < task.n1 {
                (task.u, task.v, r)
            } else {
                (task.v, task.u, r - task.n1)
            };
            // The pool `a(of) \ {skip}` read in place: `skip` is in
            // `a(of)` (the task is an edge of the snapshot), and element
            // `i` of the pool is `a(of)[i + (i ≥ pos(skip))]`.
            let ids = adj.neighbors(of);
            let pos = ids.partition_point(|&x| x < skip);
            debug_assert_eq!(
                ids.get(pos),
                Some(&skip),
                "task is not an edge of the snapshot"
            );
            unrank_combination(ids.len() - 1, d, rank, &mut self.combo);
            self.cond.extend(
                self.combo
                    .iter()
                    .map(|&i| ids[i + usize::from(i >= pos)] as usize),
            );
        }
        &self.cond
    }
}

/// An edge removal discovered during a depth, applied to the graph when
/// the depth's parallel region completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Removal {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// The accepted separating set (variable ids).
    pub sepset: Vec<usize>,
    /// True if found while conditioning on `a(u) \ {v}` (the `(u,v)`
    /// direction); used to break ties deterministically when endpoint
    /// grouping is off and both directions find a separator.
    pub from_first_direction: bool,
}

/// Observation hook for performed CI tests (used by the trace recorder;
/// a no-op for normal runs).
pub trait CiObserver {
    /// Called once per *performed* CI test with the tested pair and the
    /// conditioning set.
    fn record(&mut self, _u: u32, _v: u32, _cond: &[usize]) {}
}

/// The default, zero-cost observer.
pub struct NoObserver;

impl CiObserver for NoObserver {}

impl<F: FnMut(u32, u32, &[usize])> CiObserver for F {
    fn record(&mut self, u: u32, v: u32, cond: &[usize]) {
        self(u, v, cond)
    }
}

/// Stream the `(x, y, z)` triples of samples `range` into `sink`.
///
/// This is the contingency-table fill — the paper's dominant kernel — made
/// generic over the cell sink so the same loop serves the owned-table path
/// (plain `&mut` adds, no atomics) and the sample-level shared-table path
/// (atomic adds). `zmul[i]` is the mixed-radix stride of `cond[i]`.
#[inline]
#[allow(clippy::too_many_arguments)] // hot kernel; a params struct would obscure call sites
pub fn fill_with(
    data: &Dataset,
    layout: Layout,
    u: usize,
    v: usize,
    cond: &[usize],
    zmul: &[usize],
    range: std::ops::Range<usize>,
    mut sink: impl FnMut(usize, usize, usize),
) {
    match layout {
        Layout::ColumnMajor => {
            let xcol = data.column(u);
            let ycol = data.column(v);
            match cond.len() {
                0 => {
                    for s in range {
                        sink(xcol[s] as usize, ycol[s] as usize, 0);
                    }
                }
                1 => {
                    let z0 = data.column(cond[0]);
                    for s in range {
                        sink(xcol[s] as usize, ycol[s] as usize, z0[s] as usize);
                    }
                }
                _ => {
                    let zcols: Vec<&[u8]> = cond.iter().map(|&c| data.column(c)).collect();
                    for s in range {
                        let mut z = 0usize;
                        for (col, &mul) in zcols.iter().zip(zmul) {
                            z += col[s] as usize * mul;
                        }
                        sink(xcol[s] as usize, ycol[s] as usize, z);
                    }
                }
            }
        }
        Layout::RowMajor => {
            for s in range {
                let row = data.row(s);
                let mut z = 0usize;
                for (&c, &mul) in cond.iter().zip(zmul) {
                    z += row[c] as usize * mul;
                }
                sink(row[u] as usize, row[v] as usize, z);
            }
        }
    }
}

/// Mixed-radix strides for a conditioning set (first variable most
/// significant, matching lexicographic enumeration). Returns `None` if the
/// configuration count would exceed `max_cells / (rx·ry)`. Thin wrapper
/// over the workspace-wide radix definition
/// ([`fastbn_stats::mixed_radix_strides`]).
pub fn z_strides(
    data: &Dataset,
    cond: &[usize],
    rx: usize,
    ry: usize,
    max_cells: usize,
    out: &mut Vec<usize>,
) -> Option<usize> {
    out.clear();
    out.resize(cond.len(), 0);
    mixed_radix_strides(|i| data.arity(cond[i]), out, rx * ry, max_cells)
}

/// Per-thread CI-test executor: owns the reusable contingency table and
/// scratch buffers, and counts the tests it performs. One engine per
/// thread is the structural reason CI-level parallelism needs no atomics
/// (paper §IV-B): a table is never shared.
///
/// All table fills go through the configured counting backend
/// ([`PcConfig::count_engine`]): tiled column scan, bitmap/popcount, or
/// per-query auto-selection — byte-identical counts either way. (The one
/// path outside the seam is [`super::sample_par`], which does not use
/// this engine at all: sample-level parallelism is its own fill strategy,
/// measured for its own sake — see [`PcConfig::count_engine`].)
pub struct CiEngine<'d, O: CiObserver = NoObserver> {
    data: &'d Dataset,
    layout: Layout,
    test: CiTestKind,
    df_rule: DfRule,
    alpha: f64,
    max_cells: usize,
    count: CountingBackend,
    table: ContingencyTable,
    /// The G² (and MI) decision, with its marginal scratch and per-df
    /// critical values.
    decision: G2Decision,
    resolver: CondResolver,
    zmul_buf: Vec<usize>,
    /// CI tests actually performed.
    pub performed: u64,
    /// Tests skipped because the table would exceed `max_cells` (edge kept).
    pub skipped: u64,
    observer: O,
}

impl<'d> CiEngine<'d, NoObserver> {
    /// Engine with the default no-op observer.
    pub fn new(data: &'d Dataset, cfg: &PcConfig) -> Self {
        Self::with_observer(data, cfg, NoObserver)
    }
}

impl<'d, O: CiObserver> CiEngine<'d, O> {
    /// Engine that reports every performed test to `observer`.
    pub fn with_observer(data: &'d Dataset, cfg: &PcConfig, observer: O) -> Self {
        Self {
            data,
            layout: cfg.layout,
            test: cfg.test,
            df_rule: cfg.df_rule,
            alpha: cfg.alpha,
            max_cells: cfg.max_table_cells,
            count: CountingBackend::new(cfg.count_engine),
            table: ContingencyTable::new(1, 1, 1),
            decision: G2Decision::new(cfg.alpha, cfg.df_rule),
            resolver: CondResolver::default(),
            zmul_buf: Vec::new(),
            performed: 0,
            skipped: 0,
            observer,
        }
    }

    /// Run one CI test `I(u, v | cond)` over the full dataset. Returns
    /// `true` if independence is accepted. Oversized tables are treated as
    /// "cannot test" and return `false` (the edge is conservatively kept).
    pub fn run(&mut self, u: usize, v: usize, cond: &[usize]) -> bool {
        let rx = self.data.arity(u);
        let ry = self.data.arity(v);
        let mut zmul = std::mem::take(&mut self.zmul_buf);
        let nz = match z_strides(self.data, cond, rx, ry, self.max_cells, &mut zmul) {
            Some(nz) => nz,
            None => {
                self.zmul_buf = zmul;
                self.skipped += 1;
                return false;
            }
        };
        self.table.reshape(rx, ry, nz.max(1));
        self.count.fill_one(
            self.data,
            self.layout,
            FillSpec {
                x: u,
                y: Some(v),
                cond,
                zmul: &zmul,
            },
            &mut self.table,
        );
        self.zmul_buf = zmul;
        self.performed += 1;
        self.observer.record(u as u32, v as u32, cond);
        match self.test {
            // MI's decision is defined as the G² decision.
            CiTestKind::GSquared | CiTestKind::MutualInfo => self
                .decision
                .independent(&self.table, self.data.xlnx_table()),
            CiTestKind::PearsonX2 => {
                run_ci_test(&self.table, self.test, self.alpha, self.df_rule).independent
            }
        }
    }

    /// Resolve the conditioning set of test rank `r` of `task` into this
    /// engine's buffer and return it. Ranks `0..n1` are the lexicographic
    /// `d`-subsets of `a(u) \ {v}`, unranked from `adj` on the fly; ranks
    /// `n1..` those of `a(v) \ {u}`; a precomputed task reads its
    /// materialized slice instead.
    pub fn resolve_cond(&mut self, adj: &Adjacency, task: &EdgeTask, r: u64, d: usize) -> &[usize] {
        self.resolver.resolve(adj, task, r, d)
    }
}

/// Outcome of processing one group of CI tests of a task.
pub enum GroupOutcome {
    /// A separating set was found; the edge is finished.
    Removed(Removal),
    /// All tests were run without acceptance; the edge survives this depth.
    Exhausted,
    /// More tests remain; the task carries its advanced progress to the
    /// next group.
    InProgress(EdgeTask),
}

/// Process the next `gs` CI tests of `task` (paper §IV-B): run the whole
/// group, then decide. The group's independence hypothesis is accepted if
/// *any* member accepts; the recorded separating set is the first
/// accepting one, which keeps sepsets identical across all schedulers and
/// group sizes.
pub fn process_group<O: CiObserver>(
    engine: &mut CiEngine<'_, O>,
    adj: &Adjacency,
    mut task: EdgeTask,
    gs: u64,
    d: usize,
) -> GroupOutcome {
    let total = task.total_tests();
    let end = (task.progress + gs).min(total);
    let mut accepted: Option<Removal> = None;
    // Borrow the resolver out of the engine so the resolved set feeds
    // `run` in place; it is copied only on acceptance.
    let mut resolver = std::mem::take(&mut engine.resolver);
    for r in task.progress..end {
        let cond = resolver.resolve(adj, &task, r, d);
        if engine.run(task.u as usize, task.v as usize, cond) && accepted.is_none() {
            accepted = Some(Removal {
                u: task.u,
                v: task.v,
                sepset: cond.to_vec(),
                from_first_direction: r < task.n1,
            });
        }
    }
    engine.resolver = resolver;
    if let Some(removal) = accepted {
        GroupOutcome::Removed(removal)
    } else if end >= total {
        GroupOutcome::Exhausted
    } else {
        task.progress = end;
        GroupOutcome::InProgress(task)
    }
}

/// Run `task`'s groups of `gs` tests back to back through
/// [`process_group`] until the edge is removed (its [`Removal`]) or its
/// tests are exhausted (`None`). Every edge-granular scheduler finishes
/// an edge this way, on one engine and in rank order.
pub(crate) fn run_edge<O: CiObserver>(
    engine: &mut CiEngine<'_, O>,
    adj: &Adjacency,
    mut task: EdgeTask,
    gs: u64,
    d: usize,
) -> Option<Removal> {
    loop {
        match process_group(engine, adj, task, gs, d) {
            GroupOutcome::Removed(removal) => return Some(removal),
            GroupOutcome::Exhausted => return None,
            GroupOutcome::InProgress(next) => task = next,
        }
    }
}

/// One engine and one removal buffer per worker of a parallel depth,
/// each in its own cache line; worker `tid` locks slot `tid` once per
/// depth.
///
/// The engines are built on the calling thread, so their tables grow in
/// its heap rather than in a heap of each short-lived worker: engines
/// built by the workers raised `pc-wide` peak RSS by ~8% under glibc
/// malloc.
pub(crate) fn worker_slots<'d>(
    n: usize,
    data: &'d Dataset,
    cfg: &PcConfig,
) -> PerThread<(CiEngine<'d>, Vec<Removal>)> {
    PerThread::from_fn(n, |_| (CiEngine::new(data, cfg), Vec::new()))
}

/// Merge the worker slots of a depth into (removals, CI tests performed,
/// tests skipped).
pub(crate) fn merge_workers(
    slots: PerThread<(CiEngine<'_>, Vec<Removal>)>,
) -> (Vec<Removal>, u64, u64) {
    slots.fold(
        (Vec::new(), 0, 0),
        |(mut all, performed, skipped), (engine, removals)| {
            all.extend(removals);
            (all, performed + engine.performed, skipped + engine.skipped)
        },
    )
}

/// Build the per-depth work from the current graph (Algorithm 1, lines
/// 6–9): record the adjacency snapshot of every vertex once, then
/// enumerate the edges in lexicographic order.
///
/// An edge contributes no task when both candidate pools are smaller than
/// `d` (no conditioning set of size `d` exists); the depth loop terminates
/// when no edge contributes (line 20). Tasks hold no candidate copies:
/// they read their pools from the returned snapshot.
pub fn build_tasks(graph: &UGraph, d: usize, cfg: &PcConfig) -> DepthTasks {
    let adj = Adjacency::snapshot(graph);
    let mut tasks = Vec::with_capacity(graph.edge_count());
    for u in 0..graph.n() as u32 {
        let a_u = adj.neighbors(u);
        for &v in a_u.iter().filter(|&&v| v > u) {
            // |a(u) \ {v}| and |a(v) \ {u}|.
            let (p1, p2) = (a_u.len() - 1, adj.neighbors(v).len() - 1);
            if cfg.group_endpoints {
                let n1 = binomial(p1, d);
                // At depth 0 both pools yield the same (empty) conditioning
                // set; testing it twice would be pure redundancy, and the
                // paper treats depth 0 as exactly one marginal test per edge.
                let n2 = if d == 0 { 0 } else { binomial(p2, d) };
                if n1 + n2 > 0 {
                    tasks.push(make_task(&adj, u, v, n1, n2, d, cfg));
                }
            } else {
                // Original PC-stable: two ordered directions, each its own task.
                for (a, b, n) in [(u, v, binomial(p1, d)), (v, u, binomial(p2, d))] {
                    if n > 0 {
                        tasks.push(make_task(&adj, a, b, n, 0, d, cfg));
                    }
                }
            }
        }
    }
    DepthTasks { adj, tasks }
}

fn make_task(
    adj: &Adjacency,
    u: u32,
    v: u32,
    n1: u64,
    n2: u64,
    d: usize,
    cfg: &PcConfig,
) -> EdgeTask {
    let mut task = EdgeTask {
        u,
        v,
        n1,
        n2,
        progress: 0,
        precomputed: None,
    };
    if cfg.cond_sets == CondSetGen::Precomputed {
        // Materialize every conditioning set up front (the strategy the
        // paper replaces; kept for the ablation benches).
        let mut resolver = CondResolver::default();
        let mut flat: Vec<u32> = Vec::with_capacity(task.total_tests() as usize * d);
        for r in 0..task.total_tests() {
            flat.extend(resolver.resolve(adj, &task, r, d).iter().map(|&x| x as u32));
        }
        task.precomputed = Some(flat.into_boxed_slice());
    }
    task
}

/// Apply a depth's removals to the graph and sepset store. Duplicate
/// removals of the same edge (possible when endpoint grouping is off and
/// both direction-tasks find separators) resolve deterministically: the
/// `(u,v)`-direction's separator wins, matching the sequential pcalg
/// visit order.
pub fn apply_removals(
    graph: &mut UGraph,
    sepsets: &mut fastbn_graph::SepSets,
    mut removals: Vec<Removal>,
) -> usize {
    // Deterministic application order regardless of scheduler
    // interleaving: sort by edge; among sibling direction-tasks of the
    // same edge, the `(u,v)`-with-`u<v` task (the one a sequential sweep
    // visits first) wins the tie.
    removals.sort_by_key(|r| {
        let (lo, hi) = if r.u < r.v { (r.u, r.v) } else { (r.v, r.u) };
        (lo, hi, r.u > r.v, !r.from_first_direction)
    });
    let mut removed = 0;
    for r in removals {
        if graph.remove_edge(r.u as usize, r.v as usize) {
            sepsets.set(r.u as usize, r.v as usize, &r.sepset);
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinations::all_combinations;
    use fastbn_graph::SepSets;
    use proptest::prelude::*;

    fn xor_data() -> Dataset {
        // x, y independent fair bits; w = x (copy). splitmix64 gives
        // well-decorrelated bits (a plain LCG's neighbouring bits are not
        // independent enough to pass a G² test at m = 2000).
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut w = Vec::new();
        let mut state = 0x12345u64;
        for _ in 0..2000 {
            let r = next(&mut state);
            let a = (r & 1) as u8;
            let b = ((r >> 17) & 1) as u8;
            x.push(a);
            y.push(b);
            w.push(a);
        }
        Dataset::from_columns(vec![], vec![2, 2, 2], vec![x, y, w]).unwrap()
    }

    #[test]
    fn engine_detects_independence_and_dependence() {
        let data = xor_data();
        let cfg = PcConfig::fast_bns_seq();
        let mut engine = CiEngine::new(&data, &cfg);
        assert!(engine.run(0, 1, &[]), "x ⟂ y");
        assert!(!engine.run(0, 2, &[]), "x = w dependent");
        assert_eq!(engine.performed, 2);
        assert_eq!(engine.skipped, 0);
    }

    #[test]
    fn engine_layouts_agree() {
        let data = xor_data();
        let col = PcConfig::fast_bns_seq();
        let row = PcConfig::fast_bns_seq().with_layout(Layout::RowMajor);
        let mut e1 = CiEngine::new(&data, &col);
        let mut e2 = CiEngine::new(&data, &row);
        for (u, v, cond) in [(0usize, 1usize, vec![]), (0, 2, vec![1]), (1, 2, vec![0])] {
            assert_eq!(e1.run(u, v, &cond), e2.run(u, v, &cond), "{u},{v}|{cond:?}");
        }
    }

    #[test]
    fn oversized_table_is_skipped_conservatively() {
        let data = xor_data();
        let mut cfg = PcConfig::fast_bns_seq();
        cfg.max_table_cells = 4; // 2×2×2 = 8 > 4
        let mut engine = CiEngine::new(&data, &cfg);
        assert!(!engine.run(0, 1, &[2]), "skipped test keeps the edge");
        assert_eq!(engine.skipped, 1);
        assert_eq!(engine.performed, 0);
    }

    #[test]
    fn build_tasks_grouped_vs_ungrouped() {
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
        let grouped = build_tasks(&g, 1, &PcConfig::fast_bns_seq()).tasks;
        let ungrouped =
            build_tasks(&g, 1, &PcConfig::fast_bns_seq().with_group_endpoints(false)).tasks;
        // Grouped: one task per edge that has any candidate.
        assert_eq!(grouped.len(), 4);
        // Ungrouped: one per direction with a nonempty pool.
        // Edge (0,1): a(0)\{1}=∅ (n1=0), a(1)\{0}={2,3} → 1 task.
        // Edges (1,2),(1,3),(2,3): both directions nonempty → 2 each.
        assert_eq!(ungrouped.len(), 1 + 2 + 2 + 2);
        // Grouped totals must cover both directions.
        let t01 = grouped.iter().find(|t| (t.u, t.v) == (0, 1)).unwrap();
        assert_eq!(t01.n1, 0);
        assert_eq!(t01.n2, 2);
    }

    #[test]
    fn depth0_tasks_have_single_test() {
        let g = UGraph::complete(4);
        let tasks = build_tasks(&g, 0, &PcConfig::fast_bns_seq()).tasks;
        assert_eq!(tasks.len(), 6);
        for t in &tasks {
            assert_eq!(t.total_tests(), 1, "exactly one marginal test per edge");
        }
    }

    #[test]
    fn termination_no_tasks_when_depth_exceeds_candidates() {
        let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
        // Depth 2: a(u)\{v} has at most 1 element everywhere.
        let tasks = build_tasks(&g, 2, &PcConfig::fast_bns_seq()).tasks;
        assert!(tasks.is_empty());
    }

    #[test]
    fn precomputed_and_onthefly_resolve_identically() {
        let g = UGraph::complete(5);
        let d = 2;
        let cfg_fly = PcConfig::fast_bns_seq();
        let cfg_pre = PcConfig::fast_bns_seq().with_cond_sets(CondSetGen::Precomputed);
        let fly = build_tasks(&g, d, &cfg_fly);
        let pre = build_tasks(&g, d, &cfg_pre);
        assert_eq!(fly.adj, pre.adj);
        let data = xor_data(); // engine only used for buffers here
        let mut engine = CiEngine::new(&data, &cfg_fly);
        for (tf, tp) in fly.tasks.iter().zip(pre.tasks.iter()) {
            assert_eq!((tf.u, tf.v, tf.n1, tf.n2), (tp.u, tp.v, tp.n1, tp.n2));
            assert!(tf.precomputed.is_none() && tp.precomputed.is_some());
            for r in 0..tf.total_tests() {
                let a = engine.resolve_cond(&fly.adj, tf, r, d).to_vec();
                let b = engine.resolve_cond(&pre.adj, tp, r, d).to_vec();
                assert_eq!(a, b, "task ({},{}) rank {r}", tf.u, tf.v);
            }
        }
    }

    #[test]
    fn depth_tasks_share_one_snapshot() {
        // The whole depth-0 work of a complete graph is one CSR snapshot
        // of 2|E| ids plus fixed-size tasks: no per-edge pool copies.
        let work = build_tasks(&UGraph::complete(64), 0, &PcConfig::fast_bns_seq());
        assert_eq!(work.adj.ids.len(), 64 * 63);
        assert_eq!(work.adj.offsets.len(), 65);
        assert_eq!(work.tasks.len(), 64 * 63 / 2);
        assert!(work.tasks.iter().all(|t| t.precomputed.is_none()));
        assert!(std::mem::size_of::<EdgeTask>() <= 48);
    }

    /// Random undirected graph on `n` vertices, each pair an edge with
    /// probability `p_percent`%.
    fn random_graph(n: usize, p_percent: u64, seed: u64) -> UGraph {
        let mut g = UGraph::empty(n);
        let mut state = seed | 1;
        for v in 1..n {
            for u in 0..v {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 100 < p_percent {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// The conditioning sets of `task`, in rank order, built the way the
    /// naive baseline does: copy each pool out of a per-vertex snapshot
    /// and materialize every combination of it.
    fn oracle_sets(snapshots: &[Vec<usize>], task: &EdgeTask, d: usize) -> Vec<Vec<usize>> {
        let pool = |a: u32, b: u32| -> Vec<usize> {
            snapshots[a as usize]
                .iter()
                .copied()
                .filter(|&x| x != b as usize)
                .collect()
        };
        let mut sets = Vec::new();
        let mut directions = vec![pool(task.u, task.v)];
        if task.n2 > 0 {
            directions.push(pool(task.v, task.u));
        }
        for p in directions {
            for combo in all_combinations(p.len(), d) {
                sets.push(combo.iter().map(|&i| p[i]).collect());
            }
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every rank of every task resolves, through the shared snapshot,
        /// to the set an independent copy-and-enumerate oracle yields —
        /// grouped and ungrouped, on-the-fly and precomputed, d = 0..=3.
        #[test]
        fn shared_snapshot_resolves_like_the_oracle(
            n in 2usize..12,
            p in 0u64..100,
            seed in any::<u64>(),
        ) {
            let g = random_graph(n, p, seed);
            let snapshots: Vec<Vec<usize>> = (0..n).map(|v| g.neighbor_list(v)).collect();
            let data = xor_data(); // engine only used for buffers here
            let mut engine = CiEngine::new(&data, &PcConfig::fast_bns_seq());
            for grouped in [true, false] {
                for cond_sets in [CondSetGen::OnTheFly, CondSetGen::Precomputed] {
                    let cfg = PcConfig::fast_bns_seq()
                        .with_group_endpoints(grouped)
                        .with_cond_sets(cond_sets);
                    for d in 0..=3 {
                        let work = build_tasks(&g, d, &cfg);
                        for task in &work.tasks {
                            prop_assert!(g.has_edge(task.u as usize, task.v as usize));
                            let want = oracle_sets(&snapshots, task, d);
                            prop_assert_eq!(want.len() as u64, task.total_tests());
                            for (r, set) in want.iter().enumerate() {
                                let got = engine.resolve_cond(&work.adj, task, r as u64, d);
                                prop_assert_eq!(got, &set[..]);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn group_processing_respects_group_size() {
        let data = xor_data();
        let cfg = PcConfig::fast_bns_seq();
        let g = UGraph::complete(3);
        let DepthTasks { adj, tasks } = build_tasks(&g, 1, &cfg);
        let mut engine = CiEngine::new(&data, &cfg);
        // Edge (0,1) at depth 1 has 2 tests (cond {2} from each side).
        let t01 = tasks.into_iter().find(|t| (t.u, t.v) == (0, 1)).unwrap();
        assert_eq!(t01.total_tests(), 2);
        match process_group(&mut engine, &adj, t01, 1, 1) {
            // x ⟂ y given w still independent ⇒ removed at first test.
            GroupOutcome::Removed(r) => {
                assert_eq!(r.sepset, vec![2]);
                assert!(r.from_first_direction);
            }
            _ => panic!("expected removal"),
        }
        assert_eq!(engine.performed, 1, "gs=1 stops after the first group");
    }

    #[test]
    fn group_runs_all_tests_before_deciding() {
        // gs=2 must perform both tests even if the first accepts — the
        // redundancy Figure 4 measures.
        let data = xor_data();
        let cfg = PcConfig::fast_bns_seq();
        let g = UGraph::complete(3);
        let DepthTasks { adj, tasks } = build_tasks(&g, 1, &cfg);
        let t01 = tasks.into_iter().find(|t| (t.u, t.v) == (0, 1)).unwrap();
        let mut engine = CiEngine::new(&data, &cfg);
        match process_group(&mut engine, &adj, t01, 2, 1) {
            GroupOutcome::Removed(r) => assert_eq!(r.sepset, vec![2]),
            _ => panic!("expected removal"),
        }
        assert_eq!(engine.performed, 2, "whole group performed");
    }

    #[test]
    fn apply_removals_deduplicates_deterministically() {
        let mut g = UGraph::from_edges(3, &[(0, 1)]);
        let mut sep = SepSets::new(3);
        let removals = vec![
            Removal {
                u: 1,
                v: 0,
                sepset: vec![2],
                from_first_direction: true,
            },
            Removal {
                u: 0,
                v: 1,
                sepset: vec![9],
                from_first_direction: true,
            },
        ];
        // Sorted application: (0,1) direction-first wins.
        let removed = apply_removals(&mut g, &mut sep, removals);
        assert_eq!(removed, 1);
        assert_eq!(sep.get(0, 1), Some(&[9u32][..]));
        assert_eq!(g.edge_count(), 0);
    }
}
