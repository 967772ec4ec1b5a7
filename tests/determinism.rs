//! Determinism regression tests: every seeded entry point must be
//! byte-reproducible, and the learned structure must be invariant to the
//! thread count. Fast-BNS's headline claim is "same accuracy, faster" —
//! these tests pin the "same" half so perf work can never silently trade
//! it away.

use fastbn::prelude::*;
use fastbn_core::ParallelMode;
use fastbn_network::zoo;

use fastbn_core::score_search::{HybridConfig, HybridLearner};
use fastbn_score::MoveEval;

/// Sampling is a pure function of `(network, n, seed)`: two calls yield
/// byte-identical datasets.
#[test]
fn sample_dataset_is_byte_identical_across_calls() {
    let net = zoo::by_name("alarm", 7).unwrap();
    let a = net.sample_dataset(1500, 42);
    let b = net.sample_dataset(1500, 42);
    assert_eq!(a, b, "datasets from identical seeds must be equal");
    for v in 0..a.n_vars() {
        assert_eq!(a.column(v), b.column(v), "column {v} differs");
    }
    // A different seed must actually change the stream (guards against a
    // seed that is silently ignored).
    let c = net.sample_dataset(1500, 43);
    assert_ne!(a, c, "different seeds must produce different datasets");
}

/// The sampled dataset does not depend on how many learner threads are
/// configured anywhere in the process (sampling is single-threaded and
/// owns its RNG).
#[test]
fn sample_dataset_is_identical_across_thread_counts() {
    let net = zoo::by_name("insurance", 3).unwrap();
    let before = net.sample_dataset(800, 9);
    for threads in [1usize, 2, 4] {
        // Run a learner at this thread count, then resample: the sampler
        // must be unaffected by any learner-side state.
        let _ = PcStable::new(PcConfig::fast_bns().with_threads(threads)).learn(&before);
        let again = net.sample_dataset(800, 9);
        assert_eq!(
            before, again,
            "sampling drifted after a {threads}-thread run"
        );
    }
}

/// `with_threads(1)` through `with_threads(8)` learn identical skeletons,
/// separating-set decisions and CPDAGs on a fixed seed — across the
/// parallel granularities, whose pool interleavings differ on every run.
#[test]
fn thread_count_does_not_change_learned_structure() {
    let net = zoo::by_name("alarm", 11).unwrap();
    let data = net.sample_dataset(2000, 7);
    let reference = PcStable::new(PcConfig::fast_bns().with_threads(1)).learn(&data);
    for mode in [ParallelMode::CiLevel, ParallelMode::EdgeLevel] {
        for threads in [1usize, 2, 4, 8] {
            let cfg = PcConfig::fast_bns().with_mode(mode).with_threads(threads);
            let got = PcStable::new(cfg).learn(&data);
            assert_eq!(
                got.skeleton(),
                reference.skeleton(),
                "skeleton differs: {mode:?} with {threads} threads"
            );
            assert_eq!(
                got.cpdag(),
                reference.cpdag(),
                "CPDAG differs: {mode:?} with {threads} threads"
            );
        }
    }
}

/// The score-based family obeys the same discipline: hill climbing and
/// the hybrid learner are invariant to thread count (the delta fan-out
/// over the stealing deques gathers by move index and tie-breaks on
/// canonical move order, so steal interleavings are invisible).
#[test]
fn score_learners_are_thread_invariant() {
    let net = zoo::by_name("insurance", 5).unwrap();
    let data = net.sample_dataset(1000, 33);
    let hc_ref = HillClimb::new(HillClimbConfig::default().with_threads(1)).learn(&data);
    let hy_ref = HybridLearner::new(HybridConfig::fast_bns().with_threads(1)).learn(&data);
    for threads in [2usize, 4, 8] {
        let hc = HillClimb::new(HillClimbConfig::default().with_threads(threads)).learn(&data);
        assert_eq!(hc.dag, hc_ref.dag, "hill-climb t={threads}");
        assert_eq!(hc.score, hc_ref.score, "hill-climb score t={threads}");
        let hy = HybridLearner::new(HybridConfig::fast_bns().with_threads(threads)).learn(&data);
        assert_eq!(hy.dag, hy_ref.dag, "hybrid t={threads}");
        assert_eq!(hy.cpdag, hy_ref.cpdag, "hybrid CPDAG t={threads}");
    }
}

/// The maintained candidate-delta table is invisible in the results: on
/// alarm-1k, incremental evaluation learns the byte-identical DAG and
/// bitwise-identical score as the full re-enumeration oracle at 1, 2, 4
/// and 8 threads, with the score cache on and off — the acceptance gate
/// of the incremental move-list maintenance.
#[test]
fn incremental_evaluation_matches_full_oracle_on_alarm() {
    let net = zoo::by_name("alarm", 7).unwrap();
    let data = net.sample_dataset(1000, 42);
    let oracle = HillClimb::new(
        HillClimbConfig::default()
            .with_threads(1)
            .with_evaluation(MoveEval::Full),
    )
    .learn(&data);
    for threads in [1usize, 2, 4, 8] {
        for cache in [true, false] {
            let got = HillClimb::new(
                HillClimbConfig::default()
                    .with_threads(threads)
                    .with_cache(cache)
                    .with_evaluation(MoveEval::Incremental),
            )
            .learn(&data);
            assert_eq!(got.dag, oracle.dag, "t={threads} cache={cache}");
            assert_eq!(got.score, oracle.score, "t={threads} cache={cache} score");
            assert!(
                got.stats.moves_evaluated < oracle.stats.moves_evaluated,
                "t={threads} cache={cache}: incremental computed {} deltas, oracle {}",
                got.stats.moves_evaluated,
                oracle.stats.moves_evaluated
            );
        }
    }
}

/// Tabu search (bounded non-improving exploration with aspiration) obeys
/// the same oracle discipline, and never returns a worse DAG than plain
/// greedy climbing — the result is the best DAG seen.
#[test]
fn tabu_search_is_deterministic_and_never_worse_on_alarm() {
    let net = zoo::by_name("alarm", 7).unwrap();
    let data = net.sample_dataset(1000, 42);
    let greedy = HillClimb::new(HillClimbConfig::default().with_threads(1)).learn(&data);
    let oracle = HillClimb::new(
        HillClimbConfig::default()
            .with_threads(1)
            .with_tabu_search(true)
            .with_evaluation(MoveEval::Full),
    )
    .learn(&data);
    assert!(oracle.score >= greedy.score, "tabu keeps the best DAG seen");
    for threads in [2usize, 4, 8] {
        let got = HillClimb::new(
            HillClimbConfig::default()
                .with_threads(threads)
                .with_tabu_search(true)
                .with_evaluation(MoveEval::Incremental),
        )
        .learn(&data);
        assert_eq!(got.dag, oracle.dag, "tabu t={threads}");
        assert_eq!(got.score, oracle.score, "tabu t={threads} score");
    }
}

/// The counting backend is invisible in the results: under
/// `EngineSelect::ForceBitmap` every learner family — PC-stable (all
/// schedulers implicitly, via the seq reference), hill climbing and the
/// hybrid — reproduces the tiled reference byte-for-byte (skeleton,
/// CPDAG, DAG and bitwise score) at 1, 2, 4 and 8 threads. This is the
/// acceptance gate of the pluggable-engine refactor: both engines fill
/// byte-identical `u32` count tables, so no decision anywhere can move.
#[test]
fn bitmap_engine_reproduces_tiled_results_across_thread_counts() {
    let net = zoo::by_name("alarm", 11).unwrap();
    let data = net.sample_dataset(2000, 7);
    let pc_ref =
        PcStable::new(PcConfig::fast_bns_seq().with_count_engine(EngineSelect::ForceTiled))
            .learn(&data);
    let hc_ref = HillClimb::new(
        HillClimbConfig::default()
            .with_threads(1)
            .with_count_engine(EngineSelect::ForceTiled),
    )
    .learn(&data);
    let hy_ref = HybridLearner::new(
        HybridConfig::fast_bns()
            .with_threads(1)
            .with_count_engine(EngineSelect::ForceTiled),
    )
    .learn(&data);
    for threads in [1usize, 2, 4, 8] {
        let pc = PcStable::new(
            PcConfig::fast_bns()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&data);
        assert_eq!(pc.skeleton(), pc_ref.skeleton(), "bitmap pc t={threads}");
        assert_eq!(pc.cpdag(), pc_ref.cpdag(), "bitmap pc CPDAG t={threads}");
        let hc = HillClimb::new(
            HillClimbConfig::default()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&data);
        assert_eq!(hc.dag, hc_ref.dag, "bitmap hill-climb t={threads}");
        assert_eq!(
            hc.score, hc_ref.score,
            "bitmap hill-climb score t={threads}"
        );
        let hy = HybridLearner::new(
            HybridConfig::fast_bns()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&data);
        assert_eq!(hy.dag, hy_ref.dag, "bitmap hybrid t={threads}");
        assert_eq!(hy.cpdag, hy_ref.cpdag, "bitmap hybrid CPDAG t={threads}");
        assert_eq!(hy.score, hy_ref.score, "bitmap hybrid score t={threads}");
    }
}

/// The SIMD kernel tier and the bitmap-index representation are
/// invisible in the results: with the bitmap engine forced (so the
/// popcount kernels actually run), every learner family reproduces the
/// scalar/dense reference byte-for-byte under the auto-detected kernel
/// tier (AVX-512 or AVX2 where the host has them) × a compressed index ×
/// 1, 2, 4 and 8 threads. This is the acceptance gate of the SIMD +
/// compressed-bitmap work: all kernel tiers compute identical integer
/// popcounts and all containers decode to identical bitmaps, so no count
/// — and therefore no decision — can move. Mirrors the
/// `FASTBN_SIMD=scalar` vs `auto` byte-equality the CI examples job pins
/// from the environment side.
#[test]
fn simd_tier_and_index_kind_do_not_change_learned_structure() {
    use fastbn::data::{set_default_index_kind, IndexKind};
    use fastbn::stats::simd::{set_forced_tier, SimdTier};

    let net = zoo::by_name("alarm", 11).unwrap();
    let data = net.sample_dataset(2000, 7);

    // Reference: scalar kernels over a dense index (the historical path).
    set_forced_tier(Some(SimdTier::Scalar));
    set_default_index_kind(IndexKind::Dense);
    let ref_data = data.clone();
    let pc_ref =
        PcStable::new(PcConfig::fast_bns_seq().with_count_engine(EngineSelect::ForceBitmap))
            .learn(&ref_data);
    let hc_ref = HillClimb::new(
        HillClimbConfig::default()
            .with_threads(1)
            .with_count_engine(EngineSelect::ForceBitmap),
    )
    .learn(&ref_data);
    let hy_ref = HybridLearner::new(
        HybridConfig::fast_bns()
            .with_threads(1)
            .with_count_engine(EngineSelect::ForceBitmap),
    )
    .learn(&ref_data);

    // Candidate: best detected kernel tier over a compressed index.
    set_forced_tier(None);
    set_default_index_kind(IndexKind::Compressed);
    for threads in [1usize, 2, 4, 8] {
        // Fresh clone per round: the index is cached per dataset at first
        // build, so a clone is what picks up the compressed default.
        let run_data = data.clone();
        let pc = PcStable::new(
            PcConfig::fast_bns()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&run_data);
        assert_eq!(pc.skeleton(), pc_ref.skeleton(), "simd pc t={threads}");
        assert_eq!(pc.cpdag(), pc_ref.cpdag(), "simd pc CPDAG t={threads}");
        let hc = HillClimb::new(
            HillClimbConfig::default()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&run_data);
        assert_eq!(hc.dag, hc_ref.dag, "simd hill-climb t={threads}");
        assert_eq!(
            hc.score.to_bits(),
            hc_ref.score.to_bits(),
            "simd hill-climb score bits t={threads}"
        );
        let hy = HybridLearner::new(
            HybridConfig::fast_bns()
                .with_threads(threads)
                .with_count_engine(EngineSelect::ForceBitmap),
        )
        .learn(&run_data);
        assert_eq!(hy.dag, hy_ref.dag, "simd hybrid t={threads}");
        assert_eq!(hy.cpdag, hy_ref.cpdag, "simd hybrid CPDAG t={threads}");
        assert_eq!(
            hy.score.to_bits(),
            hy_ref.score.to_bits(),
            "simd hybrid score bits t={threads}"
        );
    }
    set_default_index_kind(IndexKind::Dense);
}

/// Repeated score-based runs on the same dataset are identical — the
/// shared score cache and steal timing are pure implementation detail.
#[test]
fn repeated_score_runs_are_identical() {
    let net = zoo::by_name("alarm", 3).unwrap();
    let data = net.sample_dataset(800, 17);
    let cfg = || {
        HillClimbConfig::default()
            .with_threads(4)
            .with_restarts(1)
            .with_seed(5)
    };
    let first = HillClimb::new(cfg()).learn(&data);
    for _ in 0..2 {
        let again = HillClimb::new(cfg()).learn(&data);
        assert_eq!(again.dag, first.dag);
        assert_eq!(again.score, first.score);
    }
}

/// Observability is result-invisible: with span tracing enabled (every
/// metric counter and histogram in the workspace is always live; the
/// `FASTBN_TRACE` switch additionally turns on span timing and the
/// trace-gated per-query histograms), every learner family reproduces
/// its untraced results byte-for-byte. This is the acceptance gate of
/// the instrumentation layer: nothing read from or written to the
/// metrics registry may feed back into a learner decision.
#[test]
fn instrumentation_does_not_change_results() {
    let net = zoo::by_name("alarm", 11).unwrap();
    let data = net.sample_dataset(1500, 7);

    let run_all = || {
        let pc = PcStable::new(PcConfig::fast_bns().with_threads(4)).learn(&data);
        let hc = HillClimb::new(HillClimbConfig::default().with_threads(4)).learn(&data);
        let hy = HybridLearner::new(HybridConfig::fast_bns().with_threads(4)).learn(&data);
        (pc, hc, hy)
    };

    fastbn::obs::set_trace_enabled(false);
    let (pc_off, hc_off, hy_off) = run_all();
    fastbn::obs::set_trace_enabled(true);
    let (pc_on, hc_on, hy_on) = run_all();
    fastbn::obs::set_trace_enabled(false);

    assert_eq!(pc_on.skeleton(), pc_off.skeleton(), "pc skeleton");
    assert_eq!(pc_on.cpdag(), pc_off.cpdag(), "pc CPDAG");
    assert_eq!(hc_on.dag, hc_off.dag, "hill-climb DAG");
    assert_eq!(
        hc_on.score.to_bits(),
        hc_off.score.to_bits(),
        "hill-climb score bits"
    );
    assert_eq!(hy_on.dag, hy_off.dag, "hybrid DAG");
    assert_eq!(hy_on.cpdag, hy_off.cpdag, "hybrid CPDAG");
    assert_eq!(
        hy_on.score.to_bits(),
        hy_off.score.to_bits(),
        "hybrid score bits"
    );
}

/// Repeated learning on the same dataset is deterministic even in the
/// parallel modes: the work pool changes the order of CI tests between
/// runs, never the outcome.
#[test]
fn repeated_parallel_runs_are_identical() {
    let net = zoo::by_name("insurance", 5).unwrap();
    let data = net.sample_dataset(1200, 21);
    let cfg = || PcConfig::fast_bns().with_threads(4);
    let first = PcStable::new(cfg()).learn(&data);
    for _ in 0..3 {
        let again = PcStable::new(cfg()).learn(&data);
        assert_eq!(again.skeleton(), first.skeleton());
        assert_eq!(again.cpdag(), first.cpdag());
    }
}
