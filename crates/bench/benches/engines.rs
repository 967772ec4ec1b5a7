//! Microbench: the counting backends head-to-head on a score
//! sufficient-statistics batch, once per engine (`ForceTiled` vs
//! `ForceBitmap`), so the bench gate tracks both sides of the
//! `EngineSelect::Auto` flip point; plus the raw AND+popcount kernel
//! tiers, the bitmap-index build and a depth-1 CI-test sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_core::skeleton::common::CiEngine;
use fastbn_core::PcConfig;
use fastbn_data::{BitmapIndex, Layout};
use fastbn_network::zoo;
use fastbn_score::{LocalScorer, ScoreKind};
use fastbn_stats::simd::{self, SimdTier};
use fastbn_stats::EngineSelect;
use std::hint::black_box;
use std::time::Duration;

const ENGINES: [EngineSelect; 2] = [EngineSelect::ForceTiled, EngineSelect::ForceBitmap];

/// The historical `engines/*` kernels pin the scalar kernel tier so
/// their baselines keep meaning what they always measured; the
/// `*_simd` kernel below opts into the vector tiers explicitly.
fn pin_scalar() {
    simd::set_forced_tier(Some(SimdTier::Scalar));
}

/// Deterministic word stream for the raw-kernel benches (xorshift64*).
fn word_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Eight candidate parent sets of one child scored in one batch — the
/// hill climber's per-iteration sufficient-statistics shape.
fn bench_score_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let net = zoo::by_name("alarm", 3).expect("zoo network");
    let data = net.sample_dataset(1000, 17);
    data.bitmap_index();
    pin_scalar();
    let child = 5usize;
    let sets: Vec<Vec<u32>> = (0..8u32)
        .map(|i| {
            let a = 1 + (i % 4);
            let b = 9 + (i % 5);
            vec![a.min(b), a.max(b) + 1]
        })
        .collect();

    for engine in ENGINES {
        group.bench_function(
            BenchmarkId::new(format!("score_batch_{}", engine.name()), "alarm_1k"),
            |b| {
                let mut scorer = LocalScorer::with_options(
                    &data,
                    ScoreKind::Bic,
                    1 << 22,
                    Layout::ColumnMajor,
                    engine,
                );
                b.iter(|| {
                    let sum: f64 = scorer.score_batch(child, &sets).flatten().sum();
                    black_box(sum)
                })
            },
        );
    }

    simd::set_forced_tier(None);
    group.finish();
}

/// The raw fused AND+popcount kernel at the acceptance-gate shape
/// (≥ 16k samples): 64 bitmap pairs of 256 words each, scalar tier vs
/// the best tier the host detects. The `_simd` median over the
/// `_scalar` one in `baseline.json` is the measured speedup.
fn bench_and_popcount_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let words = 16_384 / 64; // 16k samples per bitmap
    let mut next = word_stream(0x5eed);
    let lhs: Vec<Vec<u64>> = (0..64)
        .map(|_| (0..words).map(|_| next()).collect())
        .collect();
    let rhs: Vec<Vec<u64>> = (0..64)
        .map(|_| (0..words).map(|_| next()).collect())
        .collect();

    for (label, tier) in [
        ("and_popcount_scalar_16k", Some(SimdTier::Scalar)),
        ("and_popcount_simd_16k", None),
    ] {
        simd::set_forced_tier(tier);
        group.bench_function(BenchmarkId::new(label, "p64w256"), |b| {
            b.iter(|| {
                let mut sum = 0u64;
                for (a, b) in lhs.iter().zip(&rhs) {
                    sum += simd::and_popcount(a, b);
                }
                black_box(sum)
            })
        });
    }
    simd::set_forced_tier(None);
    group.finish();
}

/// Index construction cost — the word-accumulated column build (64 rows
/// per flush). Reports nothing but time; the index memory is
/// `Σ_v arity(v) · ⌈m/64⌉ · 8` bytes by construction.
fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let net = zoo::by_name("alarm", 3).expect("zoo network");
    let data = net.sample_dataset(16_000, 17);
    group.bench_function(BenchmarkId::new("index_build_dense", "alarm_16k"), |b| {
        b.iter(|| {
            let idx = BitmapIndex::build(&data);
            black_box(idx.memory_bytes())
        })
    });
    group.finish();
}

/// Every depth-1 CI test of the depth-0 survivors of an alarm replica
/// at 5k samples, in edge order on one `CiEngine` with the default
/// (`Auto`) engine and kernel tier: the tests of one edge run back to
/// back, as a learn runs them, so the bitmap engine's pair cache serves
/// them. Every test runs (no stop at the first independence), so the
/// work does not depend on the decisions.
fn bench_ci_edge_depth1(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let net = zoo::by_name("alarm", 3).expect("zoo network");
    let data = net.sample_dataset(5_000, 17);
    let mut engine = CiEngine::new(&data, &PcConfig::fast_bns_seq());
    let n = data.n_vars();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in 0..n {
        for v in u + 1..n {
            if !engine.run(u, v, &[]) {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
    }
    let tests: Vec<(usize, usize, usize)> = (0..n)
        .flat_map(|u| adj[u].iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
        .flat_map(|(u, v)| {
            let from_u = adj[u].iter().filter(move |&&w| w != v);
            let from_v = adj[v].iter().filter(move |&&w| w != u);
            from_u.chain(from_v).map(move |&w| (u, v, w))
        })
        .collect();
    group.bench_function(BenchmarkId::new("ci_edge_depth1", "alarm_5k"), |b| {
        b.iter(|| {
            let independent = tests
                .iter()
                .filter(|&&(u, v, w)| engine.run(u, v, &[w]))
                .count();
            black_box(independent)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_score_batch,
    bench_and_popcount_kernel,
    bench_index_build,
    bench_ci_edge_depth1
);
criterion_main!(benches);
