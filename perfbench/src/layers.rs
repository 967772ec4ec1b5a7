//! The per-layer probe of a traced run: each layer driven through its own
//! public functions on the workload's data, one span per call.

use crate::inputs::{self, Rng, Stream, SERVE_MAX_VARS};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use crate::workloads::{
    bit_equal, hybrid_spec, timed_learn, Daemon, Kind, Measured, SMOOTHING, THREADS,
};
use crate::Metric;
use fastbn_core::orient::orient;
use fastbn_core::perf_model::{s_ci, ModelParams};
use fastbn_core::skeleton::common::{build_tasks, z_strides, CiEngine};
use fastbn_core::{learn_structure, record_ci_trace, ParallelMode, PcConfig, PcStable, RunStats};
use fastbn_data::{BitmapIndex, Dataset};
use fastbn_graph::{SepSets, UGraph};
use fastbn_network::JoinTree;
use fastbn_obs::Snapshot;
use fastbn_parallel::Team;
use fastbn_stats::citest::run_ci_test;
use fastbn_stats::{ContingencyTable, CountingBackend, FillSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of the cheap single calls (index build, orientation, task
/// building, team spawn); each reports its median.
const REPS: usize = 9;
/// `Infer` requests of the network/serve probe.
const PROBE_INFERS: usize = 200;
/// Dataset index of the network/serve probe in the serve stream: far past
/// any round a run reaches, so the daemon has not seen it.
const PROBE_INDEX: u64 = 1 << 20;

/// The recorded CI-test sequence of one sequential learn, replayed.
pub struct Replay {
    /// Tests recorded by `record_ci_trace`.
    pub records: u64,
    /// Tests the replay performed.
    pub performed: u64,
    /// Wall time of the replay through `CiEngine::run`.
    pub replay_s: f64,
    /// Summed `CountingBackend::fill_one` time over the same tables.
    pub fill_s: f64,
    /// Summed `run_ci_test` time over the same tables.
    pub statistic_s: f64,
    /// Share of the replay's count queries the bitmap engine answered.
    pub bitmap_pick_ratio: f64,
}

/// Record the CI tests a sequential learn of `data` under `cfg` performs
/// and replay them through [`CiEngine::run`]; with `split`, time the fill
/// and the statistic of every test separately in a second pass.
pub fn replay(data: &Dataset, cfg: &PcConfig, split: bool, tracer: &mut Tracer) -> Replay {
    let cfg = cfg.clone().with_mode(ParallelMode::Sequential);
    let clone = data.clone();
    let ((records, _, _), _) =
        tracer.time("stats.record_ci_trace", || record_ci_trace(&clone, &cfg));
    let tests: Vec<(usize, usize, Vec<usize>)> = records
        .iter()
        .map(|r| {
            (
                r.u as usize,
                r.v as usize,
                r.cond.iter().map(|&c| c as usize).collect(),
            )
        })
        .collect();
    drop(records);
    // The lazy caches are built outside the timed replay (the learns pay
    // for them; `data.index_build_ms` prices the index).
    let warm = data.clone();
    warm.bitmap_index();
    warm.state_frequencies();
    warm.observed_states(0);
    let mut engine = CiEngine::new(&warm, &cfg);
    let before = fastbn_obs::global().snapshot();
    let (_, replay_s) = tracer.time("stats.replay", || {
        for (u, v, cond) in &tests {
            black_box(engine.run(*u, *v, cond));
        }
    });
    let after = fastbn_obs::global().snapshot();
    let bitmap = delta(&before, &after, "fastbn.stats.engine.bitmap_picks");
    let tiled = delta(&before, &after, "fastbn.stats.engine.tiled_picks");
    let (fill_s, statistic_s) = if split {
        fill_and_statistic(&warm, &cfg, &tests, tracer)
    } else {
        (0.0, 0.0)
    };
    Replay {
        records: tests.len() as u64,
        performed: engine.performed,
        replay_s,
        fill_s,
        statistic_s,
        bitmap_pick_ratio: ratio(bitmap as f64, (bitmap + tiled) as f64),
    }
}

/// Time `fill_one` and `run_ci_test` of every replayed test separately.
fn fill_and_statistic(
    data: &Dataset,
    cfg: &PcConfig,
    tests: &[(usize, usize, Vec<usize>)],
    tracer: &mut Tracer,
) -> (f64, f64) {
    let mut count = CountingBackend::new(cfg.count_engine);
    let mut table = ContingencyTable::new(1, 1, 1);
    let mut zmul = Vec::new();
    let (mut fill, mut statistic) = (Duration::ZERO, Duration::ZERO);
    let open = tracer.enter("stats.fill_and_statistic");
    for (u, v, cond) in tests {
        let (rx, ry) = (data.arity(*u), data.arity(*v));
        let Some(nz) = z_strides(data, cond, rx, ry, cfg.max_table_cells, &mut zmul) else {
            continue;
        };
        table.reshape(rx, ry, nz.max(1));
        let spec = FillSpec {
            x: *u,
            y: Some(*v),
            cond,
            zmul: &zmul,
        };
        let t0 = Instant::now();
        count.fill_one(data, cfg.layout, spec, &mut table);
        let t1 = Instant::now();
        black_box(run_ci_test(&table, cfg.test, cfg.alpha, cfg.df_rule));
        let t2 = Instant::now();
        fill += t1 - t0;
        statistic += t2 - t1;
    }
    tracer.exit(open);
    (fill.as_secs_f64(), statistic.as_secs_f64())
}

/// Every per-layer metric of `kind`, measured on the run's data.
pub fn probe(
    kind: Kind,
    seed: u64,
    m: &Measured,
    rep: &Replay,
    daemon: &mut Daemon,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name, value, unit| out.push(Metric { name, value, unit });
    let data = &m.data;
    let cfg = kind.pc_config();

    // data
    let index_s = median_of(REPS, || {
        tracer
            .time("data.index_build", || black_box(BitmapIndex::build(data)))
            .1
    });
    put("data.index_build_ms", index_s * 1e3, "ms");

    // stats
    put("stats.ci_tests", rep.performed as f64, "count");
    put("stats.replay_s", rep.replay_s, "s");
    put("stats.fill_s", rep.fill_s, "s");
    put("stats.statistic_s", rep.statistic_s, "s");
    put(
        "stats.ns_per_test",
        ratio(rep.replay_s * 1e9, rep.performed as f64),
        "ns",
    );
    put("stats.bitmap_pick_ratio", rep.bitmap_pick_ratio, "ratio");

    // core and parallel: one learn at t=2 and one sequential, fresh clones.
    let before = fastbn_obs::global().snapshot();
    let (par, par_s) = timed_learn(tracer, &PcStable::new(cfg.clone()), data, "core.learn_t2");
    let after = fastbn_obs::global().snapshot();
    let seq_cfg = cfg
        .clone()
        .with_mode(ParallelMode::Sequential)
        .with_threads(1);
    let (one, one_s) = timed_learn(tracer, &PcStable::new(seq_cfg), data, "core.learn_seq");
    tally.record(one.skeleton() == par.skeleton() && one.cpdag() == par.cpdag());
    let orient_s = median_of(REPS, || {
        tracer
            .time("core.orient", || {
                black_box(orient(par.skeleton(), par.sepsets()))
            })
            .1
    });
    let n_depths = par.stats().depths.len();
    let graphs: Vec<UGraph> = (0..=n_depths)
        .map(|d| graph_at_depth(par.skeleton(), par.sepsets(), d))
        .collect();
    let task_build_s = median_of(REPS, || {
        let open = tracer.enter("core.build_tasks");
        for (d, g) in graphs.iter().enumerate() {
            black_box(build_tasks(g, d, &cfg));
        }
        tracer.exit(open).as_secs_f64()
    });
    let skeleton_s = par.stats().skeleton_duration.as_secs_f64();
    put("core.skeleton_s", skeleton_s, "s");
    put("core.orient_ms", orient_s * 1e3, "ms");
    put("core.task_build_ms", task_build_s * 1e3, "ms");
    let depth_names = [
        ("core.depth0_s", "core.depth0_ci_tests"),
        ("core.depth1_s", "core.depth1_ci_tests"),
        ("core.depth2_s", "core.depth2_ci_tests"),
        ("core.depth3plus_s", "core.depth3plus_ci_tests"),
    ];
    for (i, (secs_name, tests_name)) in depth_names.into_iter().enumerate() {
        let depths = par.stats().depths.iter().filter(|d| d.depth.min(3) == i);
        let (secs, tests) = depths.fold((0.0, 0), |(s, t), d| {
            (s + d.duration.as_secs_f64(), t + d.ci_tests)
        });
        put(secs_name, secs, "s");
        put(tests_name, tests as f64, "count");
    }
    let spawn_s = median_of(REPS, || {
        tracer
            .time("parallel.team_spawn", || {
                Team::scoped(usize::from(THREADS), |_| {})
            })
            .1
    });
    // The PC workloads account for their own learns; serve-hybrid's
    // learns are hybrid, so its accounting uses the probe's PC learns.
    let (learn_s, learn_seq_s) = match kind {
        Kind::ServeHybrid => (par_s, one_s),
        _ => (
            median(&m.learn_s).unwrap_or(par_s),
            median(&m.learn_seq_s).unwrap_or(one_s),
        ),
    };
    let ci_s = rep.fill_s + rep.statistic_s;
    let named_seq = index_s + ci_s + task_build_s + orient_s;
    let named_t2 = index_s + ci_s / 2.0 + task_build_s + orient_s + spawn_s;
    put("core.unattributed_share", 1.0 - named_t2 / learn_s, "ratio");
    put(
        "core.unattributed_share_seq",
        1.0 - named_seq / learn_seq_s,
        "ratio",
    );
    put("parallel.team_spawn_us", spawn_s * 1e6, "us");
    put("parallel.overhead_s", skeleton_s - rep.replay_s / 2.0, "s");
    put(
        "parallel.efficiency",
        learn_seq_s / (2.0 * learn_s),
        "ratio",
    );
    put(
        "parallel.steals",
        delta(&before, &after, "fastbn.parallel.steal.steals") as f64,
        "count",
    );
    put(
        "parallel.idle_yields",
        delta(&before, &after, "fastbn.parallel.steal.idle_yields") as f64,
        "count",
    );
    print_depth_split(par.stats(), one.stats(), data.n_vars());

    // score: the hybrid learner's search on the workload's dataset.
    let clone = data.clone();
    let (hybrid, _) = tracer.time("score.learn_hybrid", || {
        learn_structure(&clone, &hybrid_spec().to_strategy())
    });
    let search = hybrid.search_stats.expect("the hybrid learner searches");
    put("score.search_s", search.duration.as_secs_f64(), "s");
    put("score.iterations", search.iterations as f64, "count");
    put(
        "score.moves_evaluated",
        search.moves_evaluated as f64,
        "count",
    );
    put(
        "score.cache_hit_ratio",
        ratio(
            search.cache_hits as f64,
            (search.cache_hits + search.cache_misses) as f64,
        ),
        "ratio",
    );

    // network and serve: the same model and requests, in process and
    // through the daemon, on a dataset the daemon has not seen.
    let full = inputs::dataset(&m.net, seed, Stream::Serve, PROBE_INDEX);
    let pdata = inputs::leading_columns(&full, SERVE_MAX_VARS);
    let clone = pdata.clone();
    let (learned, _) = tracer.time("core.hybrid_t2", || {
        learn_structure(&clone, &hybrid_spec().to_strategy())
    });
    let (net, fit_s) = tracer.time("network.fit", || learned.fit(&pdata, SMOOTHING, "served"));
    let (tree, jt_s) = tracer.time("network.jointree_build", || {
        JoinTree::build(&net, usize::from(THREADS))
    });
    let mut rng = Rng::new(seed, Stream::Queries, PROBE_INDEX);
    let requests: Vec<_> = (0..PROBE_INFERS)
        .map(|_| inputs::infer_request(&mut rng, pdata.arities()))
        .collect();
    let before = fastbn_obs::global().snapshot();
    let (expected, posterior_us): (Vec<_>, Vec<f64>) = requests
        .iter()
        .map(|q| {
            let (p, s) = tracer.time("network.posteriors", || tree.posteriors(q));
            (p, s * 1e6)
        })
        .unzip();
    let after = fastbn_obs::global().snapshot();
    let reused = delta(&before, &after, "fastbn.network.jointree.messages_reused");
    let recomputed = delta(
        &before,
        &after,
        "fastbn.network.jointree.messages_recomputed",
    );
    let posterior_us = median(&posterior_us).expect("PROBE_INFERS > 0");
    put("network.fit_ms", fit_s * 1e3, "ms");
    put("network.jointree_build_ms", jt_s * 1e3, "ms");
    put("network.posterior_us", posterior_us, "us");
    put(
        "network.messages_reused_ratio",
        ratio(reused as f64, (reused + recomputed) as f64),
        "ratio",
    );

    let client = &mut daemon.client;
    let (uploaded, put_s) = tracer.time("serve.put_dataset", || client.put_dataset(&pdata));
    tally.record(uploaded.is_ok());
    let fitted = uploaded.ok().and_then(|u| {
        let fit = client.fit_by_handle(hybrid_spec(), u.fingerprint, SMOOTHING, THREADS);
        fit.ok()
    });
    tally.record(fitted.is_some());
    let before = fastbn_obs::global().snapshot();
    let mut rt_us = Vec::with_capacity(PROBE_INFERS);
    if let Some(fit) = fitted {
        for (q, e) in requests.into_iter().zip(&expected) {
            let (reply, s) = tracer.time("serve.infer", || client.infer(fit.model_id, q));
            rt_us.push(s * 1e6);
            tally.record(reply.is_ok_and(|r| bit_equal(&r.results, e)));
        }
    }
    let after = fastbn_obs::global().snapshot();
    let (waits, wait_us) = hist_delta(&before, &after, "fastbn.parallel.jobs.wait_us");
    let bytes = delta(&before, &after, "fastbn.serve.conn.bytes_in")
        + delta(&before, &after, "fastbn.serve.conn.bytes_out");
    let infer_p50_us = median(&rt_us).unwrap_or(0.0);
    put("serve.wire_us", infer_p50_us - posterior_us, "us");
    put(
        "serve.queue_wait_us",
        ratio(wait_us as f64, waits as f64),
        "us",
    );
    put(
        "serve.bytes_per_infer",
        ratio(bytes as f64, rt_us.len() as f64),
        "bytes",
    );
    put("serve.put_ms", put_s * 1e3, "ms");

    let traced = median(&m.learn_traced_s).unwrap_or(f64::NAN);
    let untraced = median(&m.learn_s).unwrap_or(f64::NAN);
    put("trace.overhead_share", traced / untraced - 1.0, "ratio");
    out
}

/// The skeleton graph at the start of depth `d`: every pair except those
/// removed at an earlier depth (a pair removed at depth `k` has a
/// separating set of size `k`).
fn graph_at_depth(skeleton: &UGraph, sepsets: &SepSets, d: usize) -> UGraph {
    let n = skeleton.n();
    let mut g = UGraph::complete(n);
    for v in 1..n {
        for u in 0..v {
            if !skeleton.has_edge(u, v) && sepsets.get(u, v).is_some_and(|s| s.len() < d) {
                g.remove_edge(u, v);
            }
        }
    }
    g
}

/// The measured per-depth split at t=2 against the sequential learn,
/// beside the paper's §IV-D model of CI-level over edge-level speed-up.
fn print_depth_split(par: &RunStats, seq: &RunStats, n_vars: usize) {
    println!("# per-depth split, t={THREADS} vs sequential, with the perf_model S_CI prediction");
    println!("# depth      |Ed|   rho_d   ci_tests      t2_s     seq_s  speedup  model_S_CI");
    for (p, s) in par.depths.iter().zip(&seq.depths) {
        let model = ModelParams {
            threads: usize::from(THREADS),
            depth: p.depth,
            edges: p.edges_at_start,
            deletion_ratio: p.deletion_ratio(),
            mean_degree: ((2 * p.edges_at_start) as f64 / n_vars as f64).round() as usize,
            ..ModelParams::paper_example()
        };
        println!(
            "# {:>5} {:>9} {:>7.3} {:>10} {:>9.4} {:>9.4} {:>8.3} {:>11.3}",
            p.depth,
            p.edges_at_start,
            p.deletion_ratio(),
            p.ci_tests,
            p.duration.as_secs_f64(),
            s.duration.as_secs_f64(),
            ratio(s.duration.as_secs_f64(), p.duration.as_secs_f64()),
            s_ci(&model)
        );
    }
}

/// Median of `reps` calls of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&xs).expect("reps > 0")
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |c| c.1)
}

/// Growth of counter `name` between two snapshots.
fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    counter(after, name) - counter(before, name)
}

/// Growth of histogram `name` as (observations, sum).
fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64) {
    let get = |s: &Snapshot| {
        s.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1 - c0, s1 - s0)
}
