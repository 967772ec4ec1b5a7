//! Microbench: a score sufficient-statistics batch over a resident
//! dataset, plus the daemon-side payoff of dataset handles: a cached
//! `Learn` round trip by upload-once handle vs. reshipping the full
//! dataset inline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_data::{Dataset, Layout};
use fastbn_network::zoo;
use fastbn_score::{LocalScorer, ScoreKind};
use fastbn_serve::{Client, ServeConfig, Server, StrategySpec};
use std::hint::black_box;
use std::time::Duration;

fn alarm_data(rows: usize) -> Dataset {
    zoo::by_name("alarm", 3)
        .expect("zoo network")
        .sample_dataset(rows, 17)
}

/// Eight candidate parent sets scored in one batch.
fn bench_score_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let data = alarm_data(1000);
    data.bitmap_index();
    let child = 5usize;
    let sets: Vec<Vec<u32>> = (0..8u32)
        .map(|i| {
            let a = 1 + (i % 4);
            let b = 9 + (i % 5);
            vec![a.min(b), a.max(b) + 1]
        })
        .collect();

    group.bench_function(BenchmarkId::new("score_batch_resident", "alarm_1k"), |b| {
        let mut scorer = LocalScorer::with_options(
            &data,
            ScoreKind::Bic,
            1 << 22,
            Layout::ColumnMajor,
            fastbn_stats::EngineSelect::Auto,
        );
        b.iter(|| {
            let sum: f64 = scorer.score_batch(child, &sets).flatten().sum();
            black_box(sum)
        })
    });
    group.finish();
}

/// A cache-hit `Learn` round trip both ways: inline (ship ~150 KB of
/// columns, server re-fingerprints) vs. by upload-once handle (ship 9
/// bytes of dataset-ref). The gap is the wire + fingerprint cost the
/// handle removes.
fn bench_handle_learn(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let data = alarm_data(4000);
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    let spec = StrategySpec::pc(2);
    let put = client.put_dataset(&data).expect("put");
    // Warm the structure cache: both kernels measure cache-hit serving.
    let learned = client
        .learn_by_handle(spec.clone(), put.fingerprint)
        .expect("learn");
    assert!(!learned.cache_hit);

    group.bench_function(BenchmarkId::new("learn_reship", "alarm_4k"), |b| {
        b.iter(|| {
            let reply = client.learn(spec.clone(), &data).expect("inline learn");
            assert!(reply.cache_hit);
            black_box(reply.structure_key)
        })
    });

    group.bench_function(BenchmarkId::new("learn_by_handle", "alarm_4k"), |b| {
        b.iter(|| {
            let reply = client
                .learn_by_handle(spec.clone(), put.fingerprint)
                .expect("handle learn");
            assert!(reply.cache_hit);
            black_box(reply.structure_key)
        })
    });

    group.finish();

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}

criterion_group!(benches, bench_score_batch, bench_handle_learn);
criterion_main!(benches);
