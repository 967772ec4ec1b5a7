//! Learner configuration.
//!
//! Every Fast-BNS design decision the paper evaluates is an explicit,
//! independently switchable knob here, so the bench harness can reproduce
//! each ablation (granularity, group size, layout, grouping, conditioning-
//! set generation) without touching algorithm code.

use fastbn_data::Layout;
use fastbn_stats::{CiTestKind, DfRule, EngineSelect};

/// Which parallelism granularity drives the skeleton phase (paper §IV-A/B,
/// Figure 1 and Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ParallelMode {
    /// Single-threaded reference (Fast-BNS-seq).
    #[default]
    Sequential,
    /// Coarse-grained: each thread owns a static `|Ed|/t` slice of edges.
    EdgeLevel,
    /// Fine-grained: each CI test's sample traversal is split across
    /// threads (contingency-table generation), the paper's strawman with
    /// atomic-increment or local-table merging costs.
    SampleLevel,
    /// Fast-BNS: edges scheduled through the dynamic work pool, each
    /// run group by group on the worker that popped it.
    CiLevel,
}

impl ParallelMode {
    /// Short name used in bench output.
    pub fn name(self) -> &'static str {
        match self {
            ParallelMode::Sequential => "seq",
            ParallelMode::EdgeLevel => "edge-level",
            ParallelMode::SampleLevel => "sample-level",
            ParallelMode::CiLevel => "ci-level",
        }
    }
}

/// How conditioning sets are produced for an edge (paper §IV-C3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CondSetGen {
    /// Compute the r-th set directly by lexicographic unranking when
    /// needed — Fast-BNS; the work pool stores only `(edge, r)`.
    #[default]
    OnTheFly,
    /// Materialize every conditioning set of an edge before processing it —
    /// the naive strategy whose memory cost the paper calls out.
    Precomputed,
}

/// How sample-level parallelism combines per-thread counting work
/// (paper §IV-A, "Limitations of Sample-Level Parallelism").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SampleFill {
    /// One shared contingency table with atomic cell increments.
    #[default]
    Atomic,
    /// Per-thread local tables merged after the fill.
    LocalTables,
}

/// Full configuration of a PC-stable / Fast-BNS run.
#[derive(Clone, Debug)]
pub struct PcConfig {
    /// Significance level α for the CI tests (paper uses 0.05).
    pub alpha: f64,
    /// Statistic used for CI testing (paper uses G²).
    pub test: CiTestKind,
    /// Degrees-of-freedom rule (paper/pcalg: classic).
    pub df_rule: DfRule,
    /// Parallelism granularity.
    pub mode: ParallelMode,
    /// Worker threads `t` (ignored by `Sequential`). 0 is promoted to 1.
    pub threads: usize,
    /// Group size `gs ≥ 1`: CI tests run per accept/reject decision on
    /// an edge (paper §IV-B).
    pub group_size: usize,
    /// Fuse the CI tests of `(Vi,Vj)` and `(Vj,Vi)` into one task
    /// (Fast-BNS optimization 2). Off reproduces the original PC-stable
    /// ordered-pair behaviour.
    pub group_endpoints: bool,
    /// Which dataset layout the contingency fill streams (Fast-BNS
    /// optimization 3: `ColumnMajor`).
    pub layout: Layout,
    /// Conditioning-set generation strategy (Fast-BNS optimization 4).
    pub cond_sets: CondSetGen,
    /// Sub-strategy for `SampleLevel` mode.
    pub sample_fill: SampleFill,
    /// Optional cap on the search depth `d` (None = run to natural
    /// termination, Algorithm 1 line 20).
    pub max_depth: Option<usize>,
    /// Contingency tables larger than this many cells make the test
    /// unreliable; the edge is conservatively kept (treated as dependent).
    pub max_table_cells: usize,
    /// Which counting backend fills the contingency tables (tiled column
    /// scan, bitmap/popcount, or per-query auto-selection). Any choice
    /// produces byte-identical counts — this knob only trades speed.
    ///
    /// Exception: [`ParallelMode::SampleLevel`] ignores this knob. That
    /// mode *is* a fill strategy — the paper's strawman splits one table's
    /// fill across threads by sample range (atomic increments or
    /// local-table merging, per [`SampleFill`]) — so routing it through a
    /// whole-range engine would erase exactly the cost it exists to
    /// measure.
    pub count_engine: EngineSelect,
}

impl Default for PcConfig {
    fn default() -> Self {
        Self::fast_bns()
    }
}

impl PcConfig {
    /// The full Fast-BNS configuration: CI-level parallelism, endpoint
    /// grouping, column-major storage, on-the-fly conditioning sets,
    /// `gs = 1` (the paper's Table III setting), α = 0.05.
    pub fn fast_bns() -> Self {
        Self {
            alpha: 0.05,
            test: CiTestKind::GSquared,
            df_rule: DfRule::Classic,
            mode: ParallelMode::CiLevel,
            threads: 2,
            group_size: 1,
            group_endpoints: true,
            layout: Layout::ColumnMajor,
            cond_sets: CondSetGen::OnTheFly,
            sample_fill: SampleFill::Atomic,
            max_depth: None,
            max_table_cells: 1 << 22,
            count_engine: EngineSelect::Auto,
        }
    }

    /// The sequential Fast-BNS configuration (Fast-BNS-seq in Table III):
    /// all general optimizations on, no parallelism.
    pub fn fast_bns_seq() -> Self {
        Self {
            mode: ParallelMode::Sequential,
            threads: 1,
            ..Self::fast_bns()
        }
    }

    /// Set the thread count (builder style).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Set the significance level.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        self.alpha = alpha;
        self
    }

    /// Set the parallelism mode.
    pub fn with_mode(mut self, mode: ParallelMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the group size `gs`.
    ///
    /// # Panics
    /// Panics if `gs == 0`.
    pub fn with_group_size(mut self, gs: usize) -> Self {
        assert!(gs >= 1, "group size must be at least 1");
        self.group_size = gs;
        self
    }

    /// Set the data layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Toggle endpoint grouping.
    pub fn with_group_endpoints(mut self, on: bool) -> Self {
        self.group_endpoints = on;
        self
    }

    /// Set the conditioning-set generation strategy.
    pub fn with_cond_sets(mut self, gen: CondSetGen) -> Self {
        self.cond_sets = gen;
        self
    }

    /// Cap the search depth.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Set the CI-test kind.
    pub fn with_test(mut self, test: CiTestKind) -> Self {
        self.test = test;
        self
    }

    /// Set the counting backend (results are identical; only speed moves).
    pub fn with_count_engine(mut self, engine: EngineSelect) -> Self {
        self.count_engine = engine;
        self
    }

    /// Effective thread count (≥ 1; 1 for sequential mode).
    pub fn effective_threads(&self) -> usize {
        match self.mode {
            ParallelMode::Sequential => 1,
            _ => self.threads.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_bns_defaults_match_paper() {
        let c = PcConfig::fast_bns();
        assert_eq!(c.alpha, 0.05);
        assert_eq!(c.test, CiTestKind::GSquared);
        assert_eq!(c.mode, ParallelMode::CiLevel);
        assert_eq!(c.group_size, 1);
        assert!(c.group_endpoints);
        assert_eq!(c.layout, Layout::ColumnMajor);
        assert_eq!(c.cond_sets, CondSetGen::OnTheFly);
    }

    #[test]
    fn builders_compose() {
        let c = PcConfig::fast_bns()
            .with_threads(8)
            .with_alpha(0.01)
            .with_group_size(6)
            .with_mode(ParallelMode::EdgeLevel)
            .with_max_depth(3);
        assert_eq!(c.threads, 8);
        assert_eq!(c.alpha, 0.01);
        assert_eq!(c.group_size, 6);
        assert_eq!(c.mode, ParallelMode::EdgeLevel);
        assert_eq!(c.max_depth, Some(3));
    }

    #[test]
    fn sequential_uses_one_thread() {
        let c = PcConfig::fast_bns_seq().with_threads(16);
        // with_threads sets the field, but sequential execution ignores it.
        assert_eq!(c.effective_threads(), 1);
        let c = PcConfig::fast_bns().with_threads(16);
        assert_eq!(c.effective_threads(), 16);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        PcConfig::fast_bns().with_alpha(1.5);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_size_rejected() {
        PcConfig::fast_bns().with_group_size(0);
    }

    #[test]
    fn mode_names() {
        assert_eq!(ParallelMode::Sequential.name(), "seq");
        assert_eq!(ParallelMode::CiLevel.name(), "ci-level");
        assert_eq!(ParallelMode::EdgeLevel.name(), "edge-level");
        assert_eq!(ParallelMode::SampleLevel.name(), "sample-level");
    }

    #[test]
    fn count_engine_defaults_to_auto_and_builds() {
        let c = PcConfig::fast_bns();
        assert_eq!(c.count_engine, EngineSelect::Auto);
        let c = c.with_count_engine(EngineSelect::ForceBitmap);
        assert_eq!(c.count_engine, EngineSelect::ForceBitmap);
    }
}
