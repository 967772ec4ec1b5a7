//! The paper's central correctness claim: "The accuracy of Fast-BNS is
//! exactly the same as the other PC-stable algorithm implementations"
//! (§V-A). Every scheduler, group size, layout, conditioning-set strategy
//! and baseline must produce identical skeletons, separating sets and
//! CPDAGs on identical inputs.

use fastbn::core::{CondSetGen, SampleFill};
use fastbn::prelude::*;
use fastbn_data::Dataset;
use fastbn_network::generate_network;

fn workload(seed: u64) -> Dataset {
    let spec = NetworkSpec {
        name: "agreement".into(),
        n_nodes: 12,
        n_edges: 15,
        min_arity: 2,
        max_arity: 3,
        max_in_degree: 3,
        skew: 0.8,
        max_samples: 10000,
    };
    generate_network(&spec, seed).sample_dataset(1500, seed + 1)
}

fn assert_identical(
    data: &Dataset,
    cfg: PcConfig,
    reference: &LearnResult,
    label: &str,
) -> LearnResult {
    let got = PcStable::new(cfg).learn(data);
    assert_eq!(
        got.skeleton(),
        reference.skeleton(),
        "{label}: skeleton differs"
    );
    assert_eq!(got.cpdag(), reference.cpdag(), "{label}: CPDAG differs");
    for v in 1..data.n_vars() {
        for u in 0..v {
            assert_eq!(
                got.sepsets().get(u, v),
                reference.sepsets().get(u, v),
                "{label}: sepset({u},{v}) differs"
            );
        }
    }
    got
}

/// [`assert_identical`], plus the amount of work: every depth runs as
/// many CI tests as the sequential `reference` at the same group size. A
/// scheduler that silently runs extra or fewer tests fails here even when
/// its structure agrees.
fn assert_identical_work(data: &Dataset, cfg: PcConfig, reference: &LearnResult, label: &str) {
    let got = assert_identical(data, cfg, reference, label);
    let per_depth = |r: &LearnResult| -> Vec<(usize, u64)> {
        r.stats()
            .depths
            .iter()
            .map(|d| (d.depth, d.ci_tests))
            .collect()
    };
    assert_eq!(
        per_depth(&got),
        per_depth(reference),
        "{label}: per-depth CI-test counts differ"
    );
}

#[test]
fn all_schedulers_and_thread_counts_agree() {
    for seed in [1u64, 2, 3] {
        let data = workload(seed);
        let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
        for mode in [
            ParallelMode::EdgeLevel,
            ParallelMode::SampleLevel,
            ParallelMode::CiLevel,
        ] {
            for threads in [1usize, 2, 3, 5] {
                let cfg = PcConfig::fast_bns().with_mode(mode).with_threads(threads);
                let label = format!("seed {seed} {mode:?} t={threads}");
                if mode == ParallelMode::SampleLevel {
                    assert_identical(&data, cfg, &reference, &label);
                } else {
                    assert_identical_work(&data, cfg, &reference, &label);
                }
            }
        }
    }
}

#[test]
fn group_sizes_agree() {
    let data = workload(11);
    let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    for gs in [1usize, 2, 3, 6, 8, 16, 64] {
        let cfg = PcConfig::fast_bns().with_threads(2).with_group_size(gs);
        assert_identical(&data, cfg, &reference, &format!("gs={gs}"));
    }
}

/// A group size changes how many tests an edge runs past its separator,
/// never which tests: the CI-level and edge-level schedulers run exactly
/// the per-depth test counts of the sequential scheduler at the same `gs`.
#[test]
fn group_sizes_run_the_sequential_amount_of_work() {
    let data = workload(11);
    for gs in [1usize, 3, 8] {
        let reference = PcStable::new(PcConfig::fast_bns_seq().with_group_size(gs)).learn(&data);
        for mode in [ParallelMode::EdgeLevel, ParallelMode::CiLevel] {
            for threads in [2usize, 3] {
                let cfg = PcConfig::fast_bns()
                    .with_mode(mode)
                    .with_threads(threads)
                    .with_group_size(gs);
                assert_identical_work(
                    &data,
                    cfg,
                    &reference,
                    &format!("gs={gs} {mode:?} t={threads}"),
                );
            }
        }
    }
}

/// The CI-level scheduler's dynamic pool must be invisible in the output
/// under every general optimization knob: ungrouped endpoints,
/// precomputed conditioning sets and the row-major layout all agree with
/// the sequential reference at t=3.
#[test]
fn ci_par_agrees_across_knobs() {
    let data = workload(61);
    let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    for layout in [
        fastbn_data::Layout::ColumnMajor,
        fastbn_data::Layout::RowMajor,
    ] {
        for cond in [CondSetGen::OnTheFly, CondSetGen::Precomputed] {
            for grouping in [true, false] {
                let cfg = PcConfig::fast_bns()
                    .with_threads(3)
                    .with_layout(layout)
                    .with_cond_sets(cond)
                    .with_group_endpoints(grouping);
                assert_identical(
                    &data,
                    cfg,
                    &reference,
                    &format!("ci-level {layout:?}/{cond:?}/grouping={grouping}"),
                );
            }
        }
    }
}

/// The counting backend is a pure implementation detail: every engine
/// policy (tiled, bitmap, per-query auto) produces identical skeletons,
/// sepsets and CPDAGs under every scheduler, thread count and layout.
#[test]
fn count_engines_agree_across_schedulers() {
    let data = workload(91);
    let reference =
        PcStable::new(PcConfig::fast_bns_seq().with_count_engine(EngineSelect::ForceTiled))
            .learn(&data);
    for engine in [
        EngineSelect::Auto,
        EngineSelect::ForceTiled,
        EngineSelect::ForceBitmap,
    ] {
        for mode in [
            ParallelMode::Sequential,
            ParallelMode::EdgeLevel,
            ParallelMode::CiLevel,
        ] {
            for threads in [1usize, 3] {
                let cfg = PcConfig::fast_bns()
                    .with_mode(mode)
                    .with_threads(threads)
                    .with_count_engine(engine);
                assert_identical(
                    &data,
                    cfg,
                    &reference,
                    &format!("{} {mode:?} t={threads}", engine.name()),
                );
            }
        }
        // The row-major layout under the CI-level scheduler: the bitmap
        // engine ignores layout entirely, the tiled engine must agree from
        // the other side.
        let cfg = PcConfig::fast_bns()
            .with_threads(2)
            .with_layout(fastbn_data::Layout::RowMajor)
            .with_count_engine(engine);
        assert_identical(
            &data,
            cfg,
            &reference,
            &format!("{} row-major", engine.name()),
        );
    }
}

/// Score-based search under `ForceBitmap` lands on the bitwise-identical
/// DAG and score as the tiled engine (count tables are byte-identical, so
/// every local score is too).
#[test]
fn count_engines_agree_on_score_search() {
    let data = workload(92);
    let reference = HillClimb::new(
        HillClimbConfig::default()
            .with_threads(1)
            .with_count_engine(EngineSelect::ForceTiled),
    )
    .learn(&data);
    for engine in [EngineSelect::Auto, EngineSelect::ForceBitmap] {
        for threads in [1usize, 3] {
            let got = HillClimb::new(
                HillClimbConfig::default()
                    .with_threads(threads)
                    .with_count_engine(engine),
            )
            .learn(&data);
            assert_eq!(got.dag, reference.dag, "{} t={threads}", engine.name());
            assert_eq!(got.score, reference.score, "{} t={threads}", engine.name());
        }
    }
}

#[test]
fn layouts_and_cond_set_strategies_agree() {
    let data = workload(21);
    let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    for layout in [
        fastbn_data::Layout::ColumnMajor,
        fastbn_data::Layout::RowMajor,
    ] {
        for cond in [CondSetGen::OnTheFly, CondSetGen::Precomputed] {
            for grouping in [true, false] {
                let cfg = PcConfig::fast_bns_seq()
                    .with_layout(layout)
                    .with_cond_sets(cond)
                    .with_group_endpoints(grouping);
                assert_identical(
                    &data,
                    cfg,
                    &reference,
                    &format!("{layout:?}/{cond:?}/grouping={grouping}"),
                );
            }
        }
    }
}

#[test]
fn sample_fill_variants_agree() {
    let data = workload(31);
    let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    for fill in [SampleFill::Atomic, SampleFill::LocalTables] {
        let mut cfg = PcConfig::fast_bns()
            .with_mode(ParallelMode::SampleLevel)
            .with_threads(3);
        cfg.sample_fill = fill;
        assert_identical(&data, cfg, &reference, &format!("{fill:?}"));
    }
}

#[test]
fn naive_baselines_agree_with_fast_bns() {
    for seed in [41u64, 42] {
        let data = workload(seed);
        let reference = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
        for style in [NaiveStyle::PcalgLike, NaiveStyle::BnlearnLike] {
            for threads in [1usize, 3] {
                let (skeleton, sepsets, _) = NaivePcStable::new(style)
                    .with_threads(threads)
                    .learn_skeleton(&data);
                assert_eq!(&skeleton, reference.skeleton(), "{style:?} t={threads}");
                for v in 1..data.n_vars() {
                    for u in 0..v {
                        assert_eq!(
                            sepsets.get(u, v),
                            reference.sepsets().get(u, v),
                            "{style:?} t={threads} sepset({u},{v})"
                        );
                    }
                }
            }
        }
    }
}

/// The hybrid learner is invariant to which skeleton scheduler ran its
/// constraint stage: all PC modes learn identical skeletons, so the
/// restricted climb — itself deterministic — must land on the identical
/// DAG, CPDAG and score.
#[test]
fn hybrid_agrees_across_skeleton_schedulers() {
    use fastbn_core::score_search::{HybridConfig, HybridLearner};
    let data = workload(71);
    let reference = {
        let mut cfg = HybridConfig::fast_bns();
        cfg.pc = PcConfig::fast_bns_seq();
        HybridLearner::new(cfg).learn(&data)
    };
    for mode in [ParallelMode::EdgeLevel, ParallelMode::CiLevel] {
        for threads in [1usize, 3] {
            let mut cfg = HybridConfig::fast_bns();
            cfg.pc = PcConfig::fast_bns().with_mode(mode).with_threads(threads);
            let got = HybridLearner::new(cfg).learn(&data);
            assert_eq!(
                got.skeleton, reference.skeleton,
                "{mode:?} t={threads} skeleton"
            );
            assert_eq!(got.dag, reference.dag, "{mode:?} t={threads} DAG");
            assert_eq!(got.cpdag, reference.cpdag, "{mode:?} t={threads} CPDAG");
            assert_eq!(got.score, reference.score, "{mode:?} t={threads} score");
        }
    }
}

/// The score cache is pure memoization: disabling it cannot change the
/// search trajectory, only its speed.
#[test]
fn score_cache_toggle_is_invisible() {
    let data = workload(81);
    for kind in [ScoreKind::Bic, ScoreKind::BDeu { ess: 1.0 }] {
        let cached =
            HillClimb::new(HillClimbConfig::default().with_kind(kind).with_threads(3)).learn(&data);
        let uncached = HillClimb::new(
            HillClimbConfig::default()
                .with_kind(kind)
                .with_threads(3)
                .with_cache(false),
        )
        .learn(&data);
        assert_eq!(cached.dag, uncached.dag, "{kind:?}");
        assert_eq!(cached.score, uncached.score, "{kind:?}");
        assert_eq!(uncached.stats.cache_hits, 0);
    }
}

#[test]
fn ci_test_kinds_are_internally_consistent() {
    // Different statistics may disagree with each other near the
    // threshold, but each must be deterministic and mode-independent.
    let data = workload(51);
    for test in [
        CiTestKind::GSquared,
        CiTestKind::PearsonX2,
        CiTestKind::MutualInfo,
    ] {
        let seq = PcStable::new(PcConfig::fast_bns_seq().with_test(test)).learn(&data);
        let par = PcStable::new(PcConfig::fast_bns().with_test(test).with_threads(2)).learn(&data);
        assert_eq!(seq.skeleton(), par.skeleton(), "{test:?}");
        assert_eq!(seq.cpdag(), par.cpdag(), "{test:?}");
    }
}
