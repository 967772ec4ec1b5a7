//! Microbench: exact inference at serving speed — junction-tree
//! calibration cost, batched query throughput against the calibrated
//! tree, and the per-query variable-elimination path it amortizes away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbn_core::learn_structure;
use fastbn_network::{variable_elimination, zoo, JoinTree, Query};
use fastbn_serve::StrategySpec;
use std::hint::black_box;
use std::time::Duration;

/// The fitted serving model: the alarm replica itself (its generator CPTs
/// are already normalized conditionals, so no fitting pass is needed to
/// get a realistic clique structure).
fn serving_net() -> fastbn_network::BayesNet {
    zoo::by_name("alarm", 3).expect("zoo network")
}

/// A mixed serving batch over `net`: marginals for every variable plus
/// evidence-conditioned queries round-robined over a few evidence sets,
/// `size` queries in total.
fn query_batch(net: &fastbn_network::BayesNet, size: usize) -> Vec<Query> {
    let n = net.n();
    (0..size)
        .map(|i| {
            let target = i % n;
            match (i / n) % 4 {
                0 => Query::marginal(target),
                k => {
                    let ev = (target + 7 * k) % n;
                    if ev == target {
                        Query::marginal(target)
                    } else {
                        Query::with_evidence(target, vec![(ev, 0)])
                    }
                }
            }
        })
        .collect()
}

/// A perfbench-style request over variables with `arities`: `size`
/// queries with random targets, each a marginal or (by a fair coin)
/// conditioned on one other random variable's random state. Seeded, so
/// every run sends the same.
fn serving_request(arities: &[u8], size: usize, seed: u64) -> Vec<Query> {
    let mut state = seed;
    let mut below = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % bound as u64) as usize
    };
    let n = arities.len();
    (0..size)
        .map(|_| {
            let target = below(n);
            if below(2) == 0 {
                return Query::marginal(target);
            }
            let ev = (target + 1 + below(n - 1)) % n;
            Query::with_evidence(target, vec![(ev, below(usize::from(arities[ev])) as u8)])
        })
        .collect()
}

fn bench_infer(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let net = serving_net();

    // Calibration: moralize → triangulate → spanning tree → two-pass BP,
    // clique work fanned over 2 workers. The one-time cost a serving
    // process pays before the query loop starts.
    group.bench_function(BenchmarkId::new("calibrate_t2", "alarm"), |b| {
        b.iter(|| black_box(JoinTree::build(&net, 2).stats().total_belief_cells))
    });

    // Batched serving throughput: 1000 mixed queries against one
    // calibrated tree (evidence grouping + local re-propagation).
    group.bench_function(BenchmarkId::new("batch1k_t2", "alarm"), |b| {
        let jt = JoinTree::build(&net, 2);
        let queries = query_batch(&net, 1000);
        b.iter(|| {
            let answers = jt.posteriors(&queries);
            let live = answers.iter().filter(|a| a.is_ok()).count();
            black_box(live)
        })
    });

    // One serving request as perfbench sends it: 16 queries, half
    // single-evidence posteriors, against a 2-thread tree over a hybrid
    // model learned and fitted from 5000 samples of perfbench's hepar2
    // replica (zoo seed 1; the replica's own cliques are far wider than a
    // learned model's). Small enough to run on the calling thread, so this
    // prices re-propagation itself.
    group.bench_function(BenchmarkId::new("batch16_t2", "hepar2"), |b| {
        let data = zoo::by_name("hepar2", 1)
            .expect("zoo network")
            .sample_dataset(5000, 1);
        let learned = learn_structure(&data, &StrategySpec::hybrid(2).to_strategy());
        let jt = JoinTree::build(&learned.fit(&data, 1.0, "bench"), 2);
        let queries = serving_request(data.arities(), 16, 1);
        b.iter(|| {
            let answers = jt.posteriors(&queries);
            let live = answers.iter().filter(|a| a.is_ok()).count();
            black_box(live)
        })
    });

    // The per-query path the junction tree amortizes: the same mixed
    // query shapes answered by one variable elimination each. 8 queries
    // (not 1000) keeps the kernel seconds-scale; compare per-query costs
    // as (ve_batch8 / 8) vs (batch1k_t2 / 1000).
    group.bench_function(BenchmarkId::new("ve_batch8", "alarm"), |b| {
        let queries = query_batch(&net, 8);
        b.iter(|| {
            let mut acc = 0.0f64;
            for q in &queries {
                acc += variable_elimination(&net, q.target, &q.evidence).unwrap()[0];
            }
            black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_infer);
criterion_main!(benches);
