//! Score-based and hybrid structure learning — the second algorithm family
//! next to PC-stable.
//!
//! Constraint-based learning (the [`crate::learner::PcStable`] pipeline)
//! and score-based search ([`fastbn_score::HillClimb`]) are the two
//! pillars of BN structure learning; the **hybrid** (MMHC-style) learner
//! combines them: the Fast-BNS skeleton restricts the candidate-parent
//! sets, then hill climbing searches only inside that skeleton. The
//! restriction shrinks the per-iteration move set from `O(n²)` to
//! `O(|skeleton edges|)`, which is why the hybrid beats an unrestricted
//! climb on wall-clock while inheriting the skeleton's soundness.
//!
//! [`Strategy`] is the uniform front door: every learner family behind one
//! dispatch, each producing a [`StructureResult`] with a CPDAG (score-based
//! DAGs are mapped to their Markov equivalence class via
//! [`fastbn_graph::dag_to_cpdag`], making results comparable across
//! families).

use crate::config::PcConfig;
use crate::learner::PcStable;
use crate::progress::{LearnPhase, NoProgress, ProgressSink, SearchSink};
use crate::skeleton::learn_skeleton_progress;
use crate::stats_run::RunStats;
use fastbn_data::Dataset;
use fastbn_graph::{dag_to_cpdag, Dag, Pdag, UGraph};
use fastbn_score::{HillClimb, HillClimbConfig, SearchStats};
use std::time::Instant;

/// Configuration of the hybrid (skeleton-restricted) learner.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// The constraint-based stage that learns the restriction skeleton.
    pub pc: PcConfig,
    /// The score-based stage that climbs inside it.
    pub hc: HillClimbConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self::fast_bns()
    }
}

impl HybridConfig {
    /// Fast-BNS skeleton (CI-level scheduler) + default hill climb.
    pub fn fast_bns() -> Self {
        Self {
            pc: PcConfig::fast_bns(),
            hc: HillClimbConfig::default(),
        }
    }

    /// Set the worker-thread count of **both** stages (builder style).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.pc = self.pc.with_threads(t);
        self.hc = self.hc.with_threads(t);
        self
    }

    /// Set the score kind of the search stage.
    pub fn with_kind(mut self, kind: fastbn_score::ScoreKind) -> Self {
        self.hc = self.hc.with_kind(kind);
        self
    }

    /// Enable tabu search in the search stage (accept bounded
    /// non-improving moves when stuck; the result is the best DAG seen).
    pub fn with_tabu_search(mut self, on: bool) -> Self {
        self.hc = self.hc.with_tabu_search(on);
        self
    }

    /// Enable first-ascent move selection in the search stage (apply the
    /// first improving move in canonical order — cheaper iterations on
    /// very wide restriction skeletons).
    pub fn with_first_ascent(mut self, on: bool) -> Self {
        self.hc = self.hc.with_first_ascent(on);
        self
    }

    /// Choose the search stage's delta-evaluation mode (incremental
    /// maintained table vs full re-enumeration; results are identical).
    pub fn with_evaluation(mut self, evaluation: fastbn_score::MoveEval) -> Self {
        self.hc = self.hc.with_evaluation(evaluation);
        self
    }

    /// Set the counting backend of **both** stages (skeleton CI tests and
    /// search-stage count tables). Results are identical for any choice.
    pub fn with_count_engine(mut self, engine: fastbn_stats::EngineSelect) -> Self {
        self.pc = self.pc.with_count_engine(engine);
        self.hc = self.hc.with_count_engine(engine);
        self
    }
}

/// Which structure-learning algorithm family to run.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Constraint-based: PC-stable / Fast-BNS (CI tests + orientation).
    PcStable(PcConfig),
    /// Score-based: unrestricted greedy hill climbing.
    HillClimb(HillClimbConfig),
    /// Hybrid: Fast-BNS skeleton restricting a hill climb (MMHC-style).
    Hybrid(HybridConfig),
}

impl Strategy {
    /// Short name used in bench output and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::PcStable(_) => "pc-stable",
            Strategy::HillClimb(_) => "hill-climb",
            Strategy::Hybrid(_) => "hybrid",
        }
    }
}

/// Uniform result of [`learn_structure`]: whichever family ran, the learned
/// equivalence class is in `cpdag`; family-specific artifacts are optional.
pub struct StructureResult {
    /// The learned CPDAG (score-based DAGs mapped to their class).
    pub cpdag: Pdag,
    /// The learned DAG (score-based and hybrid strategies only).
    pub dag: Option<Dag>,
    /// The restriction/learned skeleton (constraint and hybrid only).
    pub skeleton: Option<UGraph>,
    /// Total decomposable score (score-based and hybrid only).
    pub score: Option<f64>,
    /// Constraint-stage statistics (per-depth CI counts, timings).
    pub pc_stats: Option<RunStats>,
    /// Search-stage statistics (iterations, cache hits, timings).
    pub search_stats: Option<SearchStats>,
}

impl StructureResult {
    /// A DAG consistent with the learned structure: score-based and hybrid
    /// strategies return the DAG they searched over; constraint-based
    /// strategies extend the CPDAG (compelled edges first, then each
    /// undirected edge oriented in whichever direction keeps the graph
    /// acyclic). Every caller that wants to *parameterize* a learned
    /// structure needs this step, so it lives here instead of being
    /// re-implemented per example.
    pub fn consistent_dag(&self) -> Dag {
        if let Some(dag) = &self.dag {
            return dag.clone();
        }
        let mut dag = Dag::empty(self.cpdag.n());
        for (u, v) in self.cpdag.directed_edges() {
            dag.try_add_edge(u, v);
        }
        for (u, v) in self.cpdag.undirected_edges() {
            if !dag.try_add_edge(u, v) {
                dag.try_add_edge(v, u);
            }
        }
        dag
    }

    /// Fit CPTs for [`StructureResult::consistent_dag`] from `data`: the
    /// one-call bridge from a learned structure to a queryable
    /// [`fastbn_network::BayesNet`] (hand the result to
    /// [`fastbn_network::JoinTree::build`] or
    /// [`fastbn_network::variable_elimination`]).
    ///
    /// # Panics
    /// Panics if `data` does not have one column per learned variable or
    /// `smoothing < 0`.
    pub fn fit(&self, data: &Dataset, smoothing: f64, name: &str) -> fastbn_network::BayesNet {
        fastbn_network::fit_cpts(&self.consistent_dag(), data, smoothing, name)
    }
}

/// Learn a structure from `data` with the given strategy.
///
/// # Panics
/// Panics if `data` has fewer than 2 variables.
pub fn learn_structure(data: &Dataset, strategy: &Strategy) -> StructureResult {
    learn_structure_observed(data, strategy, &NoProgress)
}

/// [`learn_structure`] with a [`ProgressSink`] receiving phase changes,
/// per-depth skeleton statistics and per-move search updates — whichever
/// apply to the chosen strategy. A sink that always continues leaves the
/// result byte-identical to [`learn_structure`]; a sink that stops ends
/// the run early at the next safe point with a valid, less-refined
/// structure (see [`crate::progress`]).
///
/// # Panics
/// Panics if `data` has fewer than 2 variables.
pub fn learn_structure_observed(
    data: &Dataset,
    strategy: &Strategy,
    progress: &dyn ProgressSink,
) -> StructureResult {
    assert!(
        data.n_vars() >= 2,
        "structure learning needs at least 2 variables"
    );
    match strategy {
        Strategy::PcStable(cfg) => {
            let result = PcStable::new(cfg.clone()).learn_with_progress(data, progress);
            let (skeleton, _sepsets, cpdag, stats) = result.into_parts();
            StructureResult {
                cpdag,
                dag: None,
                skeleton: Some(skeleton),
                score: None,
                pc_stats: Some(stats),
                search_stats: None,
            }
        }
        Strategy::HillClimb(cfg) => {
            progress.on_phase(LearnPhase::Search);
            let result =
                HillClimb::new(cfg.clone()).learn_observed(data, None, &SearchSink(progress));
            StructureResult {
                cpdag: dag_to_cpdag(&result.dag),
                dag: Some(result.dag),
                skeleton: None,
                score: Some(result.score),
                pc_stats: None,
                search_stats: Some(result.stats),
            }
        }
        Strategy::Hybrid(cfg) => {
            let result = HybridLearner::new(cfg.clone()).learn_observed(data, progress);
            StructureResult {
                cpdag: result.cpdag,
                dag: Some(result.dag),
                skeleton: Some(result.skeleton),
                score: Some(result.score),
                pc_stats: Some(result.pc_stats),
                search_stats: Some(result.search_stats),
            }
        }
    }
}

/// Everything a hybrid run produces.
pub struct HybridResult {
    /// The DAG the restricted climb settled on.
    pub dag: Dag,
    /// Its Markov equivalence class.
    pub cpdag: Pdag,
    /// The PC-stable skeleton that restricted the search.
    pub skeleton: UGraph,
    /// Total score of `dag`.
    pub score: f64,
    /// Skeleton-stage statistics.
    pub pc_stats: RunStats,
    /// Search-stage statistics.
    pub search_stats: SearchStats,
}

/// The hybrid learner: Fast-BNS skeleton, then a skeleton-restricted climb.
///
/// ```
/// use fastbn_core::score_search::{HybridConfig, HybridLearner};
/// use fastbn_data::Dataset;
///
/// let data = Dataset::from_columns(
///     vec![],
///     vec![2, 2],
///     vec![vec![0, 1, 1, 0, 1, 0], vec![1, 1, 0, 0, 0, 1]],
/// ).unwrap();
/// let result = HybridLearner::new(HybridConfig::fast_bns()).learn(&data);
/// assert_eq!(result.skeleton.n(), 2);
/// ```
pub struct HybridLearner {
    config: HybridConfig,
}

impl HybridLearner {
    /// A hybrid learner with the given two-stage configuration.
    pub fn new(config: HybridConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Run both stages on `data`.
    ///
    /// # Panics
    /// Panics if `data` has fewer than 2 variables.
    pub fn learn(&self, data: &Dataset) -> HybridResult {
        self.learn_observed(data, &NoProgress)
    }

    /// [`HybridLearner::learn`] with a [`ProgressSink`]: the skeleton
    /// stage reports per-depth statistics, the search stage per-move
    /// updates. A sink that stops during the skeleton stage ends the
    /// depth loop early; the search stage then starts on the partially
    /// pruned skeleton but consults the same sink, so a sink that keeps
    /// refusing (a cancellation token) stops it at its first applied
    /// move. Stopping during the search returns the best DAG seen.
    ///
    /// # Panics
    /// Panics if `data` has fewer than 2 variables.
    pub fn learn_observed(&self, data: &Dataset, progress: &dyn ProgressSink) -> HybridResult {
        assert!(
            data.n_vars() >= 2,
            "structure learning needs at least 2 variables"
        );
        let _learn_span = fastbn_obs::span!("learn");
        let t0 = Instant::now();
        progress.on_phase(LearnPhase::Skeleton);
        let (skeleton, _sepsets, depths) = {
            let _span = fastbn_obs::span!("skeleton");
            learn_skeleton_progress(data, &self.config.pc, progress)
        };
        let pc_stats = RunStats {
            depths,
            skeleton_duration: t0.elapsed(),
            ..RunStats::default()
        };

        progress.on_phase(LearnPhase::Search);
        let search = HillClimb::new(self.config.hc.clone());
        let result = search.learn_observed(data, Some(&skeleton), &SearchSink(progress));
        HybridResult {
            cpdag: dag_to_cpdag(&result.dag),
            dag: result.dag,
            skeleton,
            score: result.score,
            pc_stats,
            search_stats: result.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_network::{generate_network, NetworkSpec};
    use fastbn_score::ScoreKind;

    fn workload() -> (fastbn_network::BayesNet, Dataset) {
        let net = generate_network(&NetworkSpec::small("t", 10, 12), 13);
        let data = net.sample_dataset(2000, 14);
        (net, data)
    }

    #[test]
    fn hybrid_dag_stays_inside_the_skeleton() {
        let (_, data) = workload();
        let result = HybridLearner::new(HybridConfig::fast_bns()).learn(&data);
        for (u, v) in result.dag.edges() {
            assert!(
                result.skeleton.has_edge(u, v),
                "edge {u}→{v} outside the restriction skeleton"
            );
        }
        assert!(result.score.is_finite());
    }

    #[test]
    fn strategies_all_learn_something_reasonable() {
        let (net, data) = workload();
        let truth = fastbn_graph::dag_to_cpdag(net.dag());
        for strategy in [
            Strategy::PcStable(PcConfig::fast_bns_seq()),
            Strategy::HillClimb(HillClimbConfig::default()),
            Strategy::Hybrid(HybridConfig::fast_bns()),
        ] {
            let result = learn_structure(&data, &strategy);
            let shd = fastbn_graph::metrics::shd_cpdag(&truth, &result.cpdag);
            // Loose sanity bound: each family recovers most of the truth.
            assert!(
                shd <= net.dag().edge_count() + 6,
                "{} SHD {shd} too large",
                strategy.name()
            );
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::PcStable(PcConfig::fast_bns()).name(), "pc-stable");
        assert_eq!(
            Strategy::HillClimb(HillClimbConfig::default()).name(),
            "hill-climb"
        );
        assert_eq!(Strategy::Hybrid(HybridConfig::fast_bns()).name(), "hybrid");
    }

    #[test]
    fn hybrid_with_threads_sets_both_stages() {
        let cfg = HybridConfig::fast_bns().with_threads(6);
        assert_eq!(cfg.pc.threads, 6);
        assert_eq!(cfg.hc.threads, 6);
        let cfg = cfg.with_kind(ScoreKind::BDeu { ess: 1.0 });
        assert_eq!(cfg.hc.kind, ScoreKind::BDeu { ess: 1.0 });
        let cfg = cfg
            .with_tabu_search(true)
            .with_first_ascent(true)
            .with_evaluation(fastbn_score::MoveEval::Full);
        assert!(cfg.hc.tabu_search);
        assert!(cfg.hc.first_ascent);
        assert_eq!(cfg.hc.evaluation, fastbn_score::MoveEval::Full);
        let cfg = cfg.with_count_engine(fastbn_stats::EngineSelect::ForceBitmap);
        assert_eq!(cfg.pc.count_engine, fastbn_stats::EngineSelect::ForceBitmap);
        assert_eq!(cfg.hc.count_engine, fastbn_stats::EngineSelect::ForceBitmap);
    }

    #[test]
    fn hybrid_result_cpdag_matches_its_dag() {
        let (_, data) = workload();
        let result = HybridLearner::new(HybridConfig::fast_bns()).learn(&data);
        assert_eq!(result.cpdag, fastbn_graph::dag_to_cpdag(&result.dag));
        assert_eq!(result.cpdag.skeleton(), result.dag.skeleton());
    }

    #[test]
    fn consistent_dag_extends_every_strategy_acyclically() {
        let (net, data) = workload();
        for strategy in [
            Strategy::PcStable(PcConfig::fast_bns_seq()),
            Strategy::HillClimb(HillClimbConfig::default()),
            Strategy::Hybrid(HybridConfig::fast_bns()),
        ] {
            let result = learn_structure(&data, &strategy);
            let dag = result.consistent_dag();
            assert_eq!(dag.n(), net.n(), "{}", strategy.name());
            // Every compelled edge of the CPDAG must appear as-is.
            for (u, v) in result.cpdag.directed_edges() {
                assert!(
                    dag.children(u).contains(v),
                    "{}: compelled {u}→{v} missing",
                    strategy.name()
                );
            }
            // Score-based strategies hand back exactly their searched DAG.
            if let Some(searched) = &result.dag {
                assert_eq!(dag.edges(), searched.edges(), "{}", strategy.name());
            }
        }
    }

    #[test]
    fn fit_produces_a_queryable_network() {
        let (_, data) = workload();
        let result = learn_structure(&data, &Strategy::Hybrid(HybridConfig::fast_bns()));
        let model = result.fit(&data, 0.5, "fitted");
        assert_eq!(model.n(), data.n_vars());
        assert!(model.log_likelihood(&data).is_finite());
        // The fitted model is immediately queryable end to end.
        let jt = fastbn_network::JoinTree::build(&model, 2);
        let posterior = jt.posterior(0, &[]).unwrap();
        assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2 variables")]
    fn single_variable_rejected() {
        let data = Dataset::from_columns(vec![], vec![2], vec![vec![0, 1]]).unwrap();
        HybridLearner::new(HybridConfig::fast_bns()).learn(&data);
    }

    /// Counts every progress callback; optionally refuses to continue.
    struct CountingSink {
        phases: std::sync::Mutex<Vec<crate::progress::LearnPhase>>,
        depths: std::sync::atomic::AtomicU64,
        iterations: std::sync::atomic::AtomicU64,
        keep_going: bool,
    }

    impl CountingSink {
        fn new(keep_going: bool) -> Self {
            Self {
                phases: std::sync::Mutex::new(Vec::new()),
                depths: std::sync::atomic::AtomicU64::new(0),
                iterations: std::sync::atomic::AtomicU64::new(0),
                keep_going,
            }
        }
    }

    impl crate::progress::ProgressSink for CountingSink {
        fn on_phase(&self, phase: crate::progress::LearnPhase) {
            self.phases.lock().unwrap().push(phase);
        }
        fn on_skeleton_depth(&self, _stats: &crate::stats_run::DepthStats) -> bool {
            self.depths
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.keep_going
        }
        fn on_search_iteration(&self, _iteration: u64, _score: f64) -> bool {
            self.iterations
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.keep_going
        }
    }

    #[test]
    fn passive_sink_leaves_every_strategy_byte_identical() {
        use crate::progress::LearnPhase;
        use std::sync::atomic::Ordering;
        let (_, data) = workload();
        for strategy in [
            Strategy::PcStable(PcConfig::fast_bns()),
            Strategy::HillClimb(HillClimbConfig::default()),
            Strategy::Hybrid(HybridConfig::fast_bns()),
        ] {
            let plain = learn_structure(&data, &strategy);
            let sink = CountingSink::new(true);
            let observed = learn_structure_observed(&data, &strategy, &sink);
            assert_eq!(observed.cpdag, plain.cpdag, "{}", strategy.name());
            assert_eq!(observed.dag, plain.dag, "{}", strategy.name());
            assert_eq!(
                observed.score.map(f64::to_bits),
                plain.score.map(f64::to_bits),
                "{}",
                strategy.name()
            );
            let phases = sink.phases.lock().unwrap().clone();
            match strategy {
                Strategy::PcStable(_) => {
                    assert_eq!(phases, vec![LearnPhase::Skeleton, LearnPhase::Orientation]);
                    assert!(sink.depths.load(Ordering::Relaxed) >= 1);
                }
                Strategy::HillClimb(_) => {
                    assert_eq!(phases, vec![LearnPhase::Search]);
                    assert!(sink.iterations.load(Ordering::Relaxed) >= 1);
                }
                Strategy::Hybrid(_) => {
                    assert_eq!(phases, vec![LearnPhase::Skeleton, LearnPhase::Search]);
                    assert!(sink.depths.load(Ordering::Relaxed) >= 1);
                    assert!(sink.iterations.load(Ordering::Relaxed) >= 1);
                }
            }
        }
    }

    #[test]
    fn refusing_sink_stops_early_with_valid_results() {
        use std::sync::atomic::Ordering;
        let (_, data) = workload();
        // PC-stable: only depth 0 runs.
        let sink = CountingSink::new(false);
        let result =
            learn_structure_observed(&data, &Strategy::PcStable(PcConfig::fast_bns_seq()), &sink);
        assert_eq!(sink.depths.load(Ordering::Relaxed), 1);
        assert_eq!(result.pc_stats.as_ref().unwrap().depths.len(), 1);
        assert_eq!(result.cpdag.n(), data.n_vars());

        // Hill climb: exactly one move applies.
        let sink = CountingSink::new(false);
        let result = learn_structure_observed(
            &data,
            &Strategy::HillClimb(HillClimbConfig::default()),
            &sink,
        );
        assert_eq!(sink.iterations.load(Ordering::Relaxed), 1);
        assert_eq!(result.search_stats.as_ref().unwrap().iterations, 1);
        assert!(result.score.unwrap().is_finite());

        // Hybrid: one skeleton depth, then the search stops immediately.
        let sink = CountingSink::new(false);
        let result =
            learn_structure_observed(&data, &Strategy::Hybrid(HybridConfig::fast_bns()), &sink);
        assert_eq!(sink.depths.load(Ordering::Relaxed), 1);
        assert_eq!(sink.iterations.load(Ordering::Relaxed), 1);
        assert!(result.score.unwrap().is_finite());
    }
}
