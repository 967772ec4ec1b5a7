//! The top-level learner API: [`PcStable`] and [`LearnResult`].

use crate::config::PcConfig;
use crate::orient::orient;
use crate::progress::{LearnPhase, NoProgress, ProgressSink};
use crate::skeleton::{learn_skeleton, learn_skeleton_progress};
use crate::stats_run::RunStats;
use fastbn_data::Dataset;
use fastbn_graph::{Pdag, SepSets, UGraph};
use std::time::Instant;

/// Everything a structure-learning run produces.
pub struct LearnResult {
    skeleton: UGraph,
    sepsets: SepSets,
    cpdag: Pdag,
    stats: RunStats,
}

impl LearnResult {
    /// The learned undirected skeleton (step 1 output).
    pub fn skeleton(&self) -> &UGraph {
        &self.skeleton
    }

    /// The separating sets recorded during skeleton discovery.
    pub fn sepsets(&self) -> &SepSets {
        &self.sepsets
    }

    /// The learned CPDAG (after v-structures and Meek rules).
    pub fn cpdag(&self) -> &Pdag {
        &self.cpdag
    }

    /// Run statistics (per-depth CI-test counts, timings).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Decompose into parts (for callers that want ownership).
    pub fn into_parts(self) -> (UGraph, SepSets, Pdag, RunStats) {
        (self.skeleton, self.sepsets, self.cpdag, self.stats)
    }
}

/// The PC-stable / Fast-BNS structure learner.
///
/// ```
/// use fastbn_core::{PcConfig, PcStable};
/// use fastbn_data::Dataset;
///
/// let data = Dataset::from_columns(
///     vec![],
///     vec![2, 2],
///     vec![vec![0, 1, 1, 0, 1, 0], vec![1, 1, 0, 0, 0, 1]],
/// ).unwrap();
/// let result = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
/// assert!(result.stats().total_ci_tests() >= 1);
/// ```
pub struct PcStable {
    config: PcConfig,
}

impl PcStable {
    /// Create a learner with the given configuration.
    pub fn new(config: PcConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PcConfig {
        &self.config
    }

    /// Run the full three-step pipeline on `data`.
    ///
    /// # Panics
    /// Panics if `data` has fewer than 2 variables.
    pub fn learn(&self, data: &Dataset) -> LearnResult {
        self.learn_with_progress(data, &NoProgress)
    }

    /// [`PcStable::learn`] with a [`ProgressSink`] receiving phase changes
    /// and per-depth skeleton statistics. A sink that always continues
    /// leaves the result byte-identical to [`PcStable::learn`]; one that
    /// stops ends the depth loop early and orients the partially pruned
    /// skeleton (still a valid CPDAG, just less refined).
    ///
    /// # Panics
    /// Panics if `data` has fewer than 2 variables.
    pub fn learn_with_progress(&self, data: &Dataset, progress: &dyn ProgressSink) -> LearnResult {
        assert!(
            data.n_vars() >= 2,
            "structure learning needs at least 2 variables"
        );
        let _learn_span = fastbn_obs::span!("learn");
        let t0 = Instant::now();
        progress.on_phase(LearnPhase::Skeleton);
        let (skeleton, sepsets, depths) = {
            let _span = fastbn_obs::span!("skeleton");
            learn_skeleton_progress(data, &self.config, progress)
        };
        let skeleton_duration = t0.elapsed();
        fastbn_obs::histogram!("fastbn.core.learn.skeleton_us").observe_duration(skeleton_duration);

        let t1 = Instant::now();
        progress.on_phase(LearnPhase::Orientation);
        let oriented = {
            let _span = fastbn_obs::span!("orientation");
            orient(&skeleton, &sepsets)
        };
        let orientation_duration = t1.elapsed();
        fastbn_obs::histogram!("fastbn.core.learn.orientation_us")
            .observe_duration(orientation_duration);
        fastbn_obs::counter!("fastbn.core.learn.runs").inc();

        LearnResult {
            skeleton,
            sepsets,
            cpdag: oriented.pdag,
            stats: RunStats {
                depths,
                skeleton_duration,
                orientation_duration,
                vstructure_edges: oriented.vstructure_edges,
                meek_edges: oriented.meek_edges,
            },
        }
    }

    /// Run only step 1 (skeleton discovery) — what the paper benchmarks.
    pub fn learn_skeleton(&self, data: &Dataset) -> (UGraph, SepSets, RunStats) {
        let _span = fastbn_obs::span!("skeleton");
        let t0 = Instant::now();
        let (skeleton, sepsets, depths) = learn_skeleton(data, &self.config);
        fastbn_obs::histogram!("fastbn.core.learn.skeleton_us").observe_duration(t0.elapsed());
        let stats = RunStats {
            depths,
            skeleton_duration: t0.elapsed(),
            ..RunStats::default()
        };
        (skeleton, sepsets, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelMode;
    use fastbn_graph::dag_to_cpdag;
    use fastbn_network::{generate_network, NetworkSpec};

    #[test]
    fn recovers_collider_structure() {
        // Ground truth: 0 → 2 ← 1 with strong CPTs; PC must find the
        // v-structure from data.
        use fastbn_network::{BayesNet, Cpt};
        let dag = fastbn_graph::Dag::from_edges(3, &[(0, 2), (1, 2)]);
        let root = Cpt::new(2, vec![], vec![], vec![0.5, 0.5]).unwrap();
        let collider = Cpt::new(
            2,
            vec![0, 1],
            vec![2, 2],
            vec![0.95, 0.05, 0.2, 0.8, 0.2, 0.8, 0.05, 0.95],
        )
        .unwrap();
        let net = BayesNet::new(
            "collider",
            dag,
            vec![root.clone(), root, collider],
            vec!["a".into(), "b".into(), "c".into()],
        );
        let data = net.sample_dataset(4000, 77);
        let result = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
        assert!(result.skeleton().has_edge(0, 2));
        assert!(result.skeleton().has_edge(1, 2));
        assert!(!result.skeleton().has_edge(0, 1));
        assert!(result.cpdag().has_directed(0, 2), "collider oriented");
        assert!(result.cpdag().has_directed(1, 2));
        assert_eq!(result.stats().vstructure_edges, 2);
    }

    #[test]
    fn learned_cpdag_close_to_truth_on_generated_network() {
        let net = generate_network(&NetworkSpec::small("t", 12, 14), 5);
        let data = net.sample_dataset(4000, 6);
        let result = PcStable::new(PcConfig::fast_bns().with_threads(2)).learn(&data);
        let truth_skeleton = net.dag().skeleton();
        let m = fastbn_graph::metrics::skeleton_metrics(&truth_skeleton, result.skeleton());
        assert!(m.f1 > 0.7, "skeleton F1 = {} too low", m.f1);
        // CPDAG comparison: SHD should be small relative to pair count.
        let truth_cpdag = dag_to_cpdag(net.dag());
        let shd = fastbn_graph::metrics::shd_cpdag(&truth_cpdag, result.cpdag());
        assert!(shd <= net.dag().edge_count() + 4, "SHD {shd} too large");
    }

    #[test]
    fn full_and_skeleton_only_agree() {
        let net = generate_network(&NetworkSpec::small("t", 8, 9), 3);
        let data = net.sample_dataset(1500, 4);
        let learner = PcStable::new(PcConfig::fast_bns_seq());
        let full = learner.learn(&data);
        let (skeleton, _, _) = learner.learn_skeleton(&data);
        assert_eq!(full.skeleton(), &skeleton);
    }

    #[test]
    fn parallel_full_pipeline_matches_sequential() {
        let net = generate_network(&NetworkSpec::small("t", 10, 12), 9);
        let data = net.sample_dataset(2000, 10);
        let seq = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
        for mode in [ParallelMode::EdgeLevel, ParallelMode::CiLevel] {
            let par =
                PcStable::new(PcConfig::fast_bns().with_mode(mode).with_threads(3)).learn(&data);
            assert_eq!(par.skeleton(), seq.skeleton(), "{mode:?}");
            assert_eq!(par.cpdag(), seq.cpdag(), "{mode:?} CPDAG");
        }
    }

    #[test]
    fn stats_populated() {
        let net = generate_network(&NetworkSpec::small("t", 8, 10), 1);
        let data = net.sample_dataset(1000, 2);
        let result = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
        let stats = result.stats();
        assert!(!stats.depths.is_empty());
        assert!(stats.total_ci_tests() > 0);
        assert!(stats.skeleton_duration.as_nanos() > 0);
        assert_eq!(stats.depths[0].edges_at_start, 8 * 7 / 2);
    }

    #[test]
    #[should_panic(expected = "at least 2 variables")]
    fn single_variable_rejected() {
        let data = Dataset::from_columns(vec![], vec![2], vec![vec![0, 1]]).unwrap();
        PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    }
}
