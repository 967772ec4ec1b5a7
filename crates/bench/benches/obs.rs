//! Microbench: the observability hot paths.
//!
//! Two kernels: a bare counter increment (the cost every always-on
//! metric pays per event) and a span enter/exit pair (paid only when
//! `FASTBN_TRACE` is on — here forced on so the bench measures the
//! worst case).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_obs::{counter, span};
use std::hint::black_box;
use std::time::Duration;

fn bench_metric_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function(BenchmarkId::new("counter_inc", "x1000"), |b| {
        b.iter(|| {
            for _ in 0..1000 {
                counter!("fastbn.bench.obs.counter").inc();
            }
            black_box(counter!("fastbn.bench.obs.counter").get())
        })
    });

    // Force spans on so the bench measures the traced path, not the
    // single relaxed load of the disabled one.
    fastbn_obs::set_trace_enabled(true);
    group.bench_function(BenchmarkId::new("span_enter_exit", "x100"), |b| {
        b.iter(|| {
            for i in 0..100u32 {
                let _g = span!("bench.obs.span");
                black_box(i);
            }
        })
    });
    fastbn_obs::set_trace_enabled(false);
    group.finish();
}

criterion_group!(benches, bench_metric_primitives);
criterion_main!(benches);
