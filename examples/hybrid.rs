//! Compare the learner families — constraint-based (PC-stable/Fast-BNS),
//! score-based (parallel hill climbing in its incremental, full-oracle,
//! tabu and first-ascent variants) and hybrid (skeleton-restricted,
//! MMHC-style) — on the same workload, including the incremental
//! delta-maintenance savings (`carried` column).
//!
//! Run with `cargo run --release --example hybrid`.

use fastbn::prelude::*;
use fastbn_core::score_search::{learn_structure, HybridConfig, StructureResult};
use fastbn_graph::dag_to_cpdag;
use fastbn_network::zoo;
use std::time::Instant;

fn main() {
    let net = zoo::by_name("alarm", 7).expect("alarm replica");
    let data = net.sample_dataset(1000, 42);
    let truth = dag_to_cpdag(net.dag());
    let threads = 4;
    // FASTBN_COUNT_ENGINE=tiled|bitmap|auto picks the counting backend for
    // every learner below (identical results, different fill strategy).
    let engine = EngineSelect::Auto.or_env();
    println!(
        "workload: alarm replica ({} nodes, {} edges), {} samples, t={threads}, {} engine\n",
        net.n(),
        net.dag().edge_count(),
        data.n_samples(),
        engine.name()
    );

    let hc = || {
        HillClimbConfig::default()
            .with_threads(threads)
            .with_count_engine(engine)
    };
    let strategies: Vec<(&str, Strategy)> = vec![
        (
            "pc-stable",
            Strategy::PcStable(
                PcConfig::fast_bns()
                    .with_threads(threads)
                    .with_count_engine(engine),
            ),
        ),
        (
            "hc-full",
            Strategy::HillClimb(hc().with_evaluation(MoveEval::Full)),
        ),
        ("hc-incr", Strategy::HillClimb(hc())),
        ("hc-tabu", Strategy::HillClimb(hc().with_tabu_search(true))),
        (
            "hc-first",
            Strategy::HillClimb(hc().with_first_ascent(true)),
        ),
        (
            "hybrid",
            Strategy::Hybrid(
                HybridConfig::fast_bns()
                    .with_threads(threads)
                    .with_count_engine(engine),
            ),
        ),
        (
            "hybrid-aic",
            Strategy::Hybrid(
                HybridConfig::fast_bns()
                    .with_count_engine(engine)
                    .with_threads(threads)
                    .with_kind(ScoreKind::Aic),
            ),
        ),
        (
            "hybrid-bds",
            Strategy::Hybrid(
                HybridConfig::fast_bns()
                    .with_count_engine(engine)
                    .with_threads(threads)
                    .with_kind(ScoreKind::BDs { ess: 1.0 }),
            ),
        ),
    ];

    println!(
        "{:<12} {:>9} {:>6} {:>12} {:>9} {:>9} {:>7} {:>10}",
        "learner", "time", "SHD", "score", "scored", "carried", "pruned", "cache-hit%"
    );
    for (label, strategy) in &strategies {
        let t0 = Instant::now();
        let result: StructureResult = learn_structure(&data, strategy);
        let elapsed = t0.elapsed();
        let shd = shd_cpdag(&truth, &result.cpdag);
        let score = result.score.map_or("—".to_string(), |s| format!("{s:.1}"));
        let dash = || "—".to_string();
        let (scored, carried, pruned, hit_pct) =
            result
                .search_stats
                .as_ref()
                .map_or((dash(), dash(), dash(), dash()), |s| {
                    let total = s.cache_hits + s.cache_misses;
                    let pct = if total == 0 {
                        0.0
                    } else {
                        100.0 * s.cache_hits as f64 / total as f64
                    };
                    (
                        s.moves_evaluated.to_string(),
                        s.moves_carried.to_string(),
                        s.moves_pruned.to_string(),
                        format!("{pct:.1}"),
                    )
                });
        println!(
            "{:<12} {:>8.1?} {:>6} {:>12} {:>9} {:>9} {:>7} {:>10}",
            label, elapsed, shd, score, scored, carried, pruned, hit_pct
        );
    }

    // The hybrid's restriction skeleton is the Fast-BNS skeleton itself.
    let hybrid = fastbn_core::HybridLearner::new(
        HybridConfig::fast_bns()
            .with_threads(threads)
            .with_count_engine(engine),
    )
    .learn(&data);
    let m = skeleton_metrics(&net.dag().skeleton(), &hybrid.skeleton);
    println!(
        "\nhybrid restriction skeleton: {} edges, F1 {:.3} vs truth; \
         climb kept {} of them as arcs",
        hybrid.skeleton.edge_count(),
        m.f1,
        hybrid.dag.edge_count()
    );
}
