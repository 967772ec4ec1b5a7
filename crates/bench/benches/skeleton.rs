//! Macrobench: end-to-end skeleton learning per scheduler and baseline on
//! a small Table II replica — the Criterion-tracked counterpart of the
//! Table III harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_bench::load_workload;
use fastbn_core::baselines::{NaivePcStable, NaiveStyle};
use fastbn_core::{ParallelMode, PcConfig, PcStable};
use std::hint::black_box;
use std::time::Duration;

fn bench_skeleton(c: &mut Criterion) {
    let mut group = c.benchmark_group("skeleton");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let w = load_workload("alarm", 1000, 3);

    for (label, cfg) in [
        ("fastbns_seq", PcConfig::fast_bns_seq()),
        // The CI-level scheduler on one thread: its cost over
        // `fastbns_seq` is the scheduler's own overhead.
        ("fastbns_ci_t1", PcConfig::fast_bns().with_threads(1)),
        ("fastbns_ci_t2", PcConfig::fast_bns().with_threads(2)),
        (
            "edge_level_t2",
            PcConfig::fast_bns()
                .with_mode(ParallelMode::EdgeLevel)
                .with_threads(2),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "alarm_1k"), &w.data, |b, data| {
            let learner = PcStable::new(cfg.clone());
            b.iter(|| black_box(learner.learn_skeleton(data).0.edge_count()))
        });
    }

    for (label, style) in [
        ("naive_pcalg", NaiveStyle::PcalgLike),
        ("naive_bnlearn", NaiveStyle::BnlearnLike),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "alarm_1k"), &w.data, |b, data| {
            let baseline = NaivePcStable::new(style);
            b.iter(|| black_box(baseline.learn_skeleton(data).0.edge_count()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_skeleton);
criterion_main!(benches);
