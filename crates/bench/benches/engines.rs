//! Microbench: the counting backends head-to-head on a score
//! sufficient-statistics batch, once per engine (`ForceTiled` vs
//! `ForceBitmap`), so the bench gate tracks both sides of the
//! `EngineSelect::Auto` flip point; plus the raw AND+popcount kernel
//! tiers and the bitmap-index build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_data::{set_default_index_kind, BitmapIndex, IndexKind, Layout};
use fastbn_network::zoo;
use fastbn_score::{LocalScorer, ScoreKind};
use fastbn_stats::simd::{self, SimdTier};
use fastbn_stats::EngineSelect;
use std::hint::black_box;
use std::time::Duration;

const ENGINES: [EngineSelect; 2] = [EngineSelect::ForceTiled, EngineSelect::ForceBitmap];

/// The historical `engines/*` kernels pin the scalar kernel tier so
/// their baselines keep meaning what they always measured; the
/// `*_simd` / `*_compressed` kernels below opt into the vector tiers
/// and the compressed index explicitly.
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

    // The same batch against a compressed (roaring-style) bitmap index
    // under the best kernel tier — pricing the container-specialised
    // AND+popcount kernels against the dense baselines above.
    simd::set_forced_tier(None);
    set_default_index_kind(IndexKind::Compressed);
    let comp_data = net.sample_dataset(1000, 17);
    comp_data.bitmap_index(); // cached at build: compressed
    set_default_index_kind(IndexKind::Dense);
    group.bench_function(
        BenchmarkId::new("score_batch_compressed", "alarm_1k"),
        |b| {
            let mut scorer = LocalScorer::with_options(
                &comp_data,
                ScoreKind::Bic,
                1 << 22,
                Layout::ColumnMajor,
                EngineSelect::ForceBitmap,
            );
            b.iter(|| {
                let sum: f64 = scorer.score_batch(child, &sets).flatten().sum();
                black_box(sum)
            })
        },
    );
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

/// Index construction cost per representation — the word-accumulated
/// column build (64 rows per flush) followed by per-block container
/// choice for the compressed kind. Also reports nothing but time: the
/// memory story is in `examples/calibrate.rs` and the README table.
fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let net = zoo::by_name("alarm", 3).expect("zoo network");
    let data = net.sample_dataset(16_000, 17);
    for kind in [IndexKind::Dense, IndexKind::Compressed] {
        set_default_index_kind(kind);
        group.bench_function(
            BenchmarkId::new(format!("index_build_{}", kind.name()), "alarm_16k"),
            |b| {
                b.iter(|| {
                    let idx = BitmapIndex::build(&data);
                    black_box(idx.memory_bytes())
                })
            },
        );
    }
    set_default_index_kind(IndexKind::Dense);
    group.finish();
}

criterion_group!(
    benches,
    bench_score_batch,
    bench_and_popcount_kernel,
    bench_index_build
);
criterion_main!(benches);
