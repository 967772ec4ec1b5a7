//! Microbench: dynamic work-pool scheduling vs. static chunking under a
//! skewed task-size distribution — the load-balancing mechanism of §IV-B
//! in isolation (no statistics, pure scheduling) — plus the sharded,
//! work-stealing pool the score search and junction tree fan out over.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_parallel::{chunk_ranges, run_steal_pool, shard_by_key, StealPool, StepResult, Team};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Simulated CI-test work: a few hundred ns of arithmetic.
#[inline]
fn unit_work(seed: u64) -> u64 {
    let mut acc = seed;
    for i in 0..200u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// Skewed task sizes mimicking per-edge CI-test counts: most edges have
/// a handful of tests, a few have hundreds (the paper's load-imbalance
/// source).
fn task_sizes(n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| if i % 16 == 0 { 400 } else { 4 + (i % 7) as u32 })
        .collect()
}

/// Drain `pool` on `threads` workers; each step processes up to 8 units
/// then requeues, like a group size of 8.
fn drain(pool: &StealPool<(usize, u32)>, threads: usize) -> u64 {
    let acc = AtomicU64::new(0);
    Team::scoped(threads, |team| {
        run_steal_pool(team, pool, |_tid, (id, remaining)| {
            let burst = remaining.min(8);
            for i in 0..burst {
                acc.fetch_add(unit_work(id as u64 + i as u64), Ordering::Relaxed);
            }
            if remaining <= burst {
                StepResult::Done
            } else {
                StepResult::Continue((id, remaining - burst))
            }
        });
    });
    acc.into_inner()
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let sizes = task_sizes(256);
    let threads = 2;

    group.bench_with_input(
        BenchmarkId::new("work_pool", "skewed256"),
        &sizes,
        |b, sizes| {
            b.iter(|| {
                // One shard: the CI-level scheduler's shared stack.
                let tasks: Vec<(usize, u32)> = sizes.iter().copied().enumerate().collect();
                black_box(drain(&StealPool::from_shards(vec![tasks]), threads))
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("static_chunks", "skewed256"),
        &sizes,
        |b, sizes| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                let ranges = chunk_ranges(sizes.len(), threads);
                Team::scoped(threads, |team| {
                    team.broadcast(&|tid| {
                        for i in ranges[tid].clone() {
                            for j in 0..sizes[i] {
                                acc.fetch_add(unit_work(i as u64 + j as u64), Ordering::Relaxed);
                            }
                        }
                    });
                });
                black_box(acc.into_inner())
            })
        },
    );
    group.finish();

    let mut group = c.benchmark_group("steal");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("stealing_deques", "skewed256"),
        &sizes,
        |b, sizes| {
            b.iter(|| {
                let tasks: Vec<(usize, u32)> = sizes.iter().copied().enumerate().collect();
                let shards = shard_by_key(tasks, threads, |t| t.0 % 32, |t| t.1 as u64);
                black_box(drain(&StealPool::from_shards(shards), threads))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
