//! The three workloads: what one run does, times and checks.
//!
//! Every workload also runs a short serving leg (upload, fit, a stream of
//! `Infer` requests) so that each run reports every end-to-end metric;
//! on `serve-hybrid` serving is the whole workload.

use crate::check::structure_hash;
use crate::inputs::{self, Rng, Stream, SERVE_MAX_VARS};
use crate::stats::Tally;
use crate::trace::Tracer;
use fastbn_core::{
    learn_structure, LearnResult, ParallelMode, PcConfig, PcStable, Strategy, StructureResult,
};
use fastbn_data::Dataset;
use fastbn_graph::{Pdag, UGraph};
use fastbn_network::{BayesNet, InferenceError, JoinTree, Posterior};
use fastbn_serve::{Client, FitReply, LearnReply, ServeConfig, Server, ServerHandle, StrategySpec};
use std::io;
use std::time::Instant;

/// Laplace smoothing of every fit: keeps every posterior defined, so no
/// query fails with impossible evidence.
pub const SMOOTHING: f64 = 1.0;
/// Worker threads of every parallel learn, calibration and daemon job.
pub const THREADS: u16 = 2;
/// Set-ups per run, spread over the run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Serve rounds every run makes however short `--seconds` is. Every
/// round serves a new model, and latencies differ from model to model, so
/// many small rounds give steadier medians than a few long ones.
const MIN_SERVE_ROUNDS: u64 = 7;
/// Share of a PC workload's run spent in serve rounds.
const SERVE_SHARE: f64 = 0.25;
/// `Infer` requests per serve round.
const INFERS_PER_ROUND: usize = 500;
/// Consecutive `Infer` round trips per p99 window: each window leaves 10
/// samples beyond its p99, and `infer_rt_p99_us` is the median over
/// windows, so a burst of host noise moves one window, not the metric.
pub const P99_WINDOW: usize = 1000;
const _: () = assert!(MIN_SERVE_ROUNDS as usize * INFERS_PER_ROUND >= 3 * P99_WINDOW);
/// Entries the daemon keeps in each of its caches.
const SERVE_CACHE_ENTRIES: usize = 4;
/// One `Infer` reply in this many is checked bit for bit against
/// in-process posteriors.
const CHECK_ONE_IN: u64 = 8;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One wide dataset (diabetes) learned again and again.
    PcWide,
    /// A stream of small datasets (alarm), each learned once per mode.
    PcManySmall,
    /// Upload, fit and infer through the daemon (hepar2).
    ServeHybrid,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PcWide, Kind::PcManySmall, Kind::ServeHybrid];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PcWide => "pc-wide",
            Kind::PcManySmall => "pc-many-small",
            Kind::ServeHybrid => "serve-hybrid",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The Table II replica the workload samples from.
    pub fn network(self) -> &'static str {
        match self {
            Kind::PcWide => "diabetes",
            Kind::PcManySmall => "alarm",
            Kind::ServeHybrid => "hepar2",
        }
    }

    /// The workload's constraint-based learn at t=2: Fast-BNS for the PC
    /// workloads, the hybrid learner's skeleton stage for `serve-hybrid`.
    pub fn pc_config(self) -> PcConfig {
        match (self, hybrid_spec().to_strategy()) {
            (Kind::ServeHybrid, Strategy::Hybrid(cfg)) => cfg.pc,
            _ => PcConfig::fast_bns().with_threads(usize::from(THREADS)),
        }
    }
}

/// The strategy every daemon fit runs.
pub fn hybrid_spec() -> StrategySpec {
    StrategySpec::hybrid(THREADS)
}

/// The single-threaded twin of [`hybrid_spec`]: sequential skeleton,
/// one-thread climb.
fn hybrid_seq() -> Strategy {
    match hybrid_spec().to_strategy() {
        Strategy::Hybrid(mut cfg) => {
            cfg.pc = cfg.pc.with_mode(ParallelMode::Sequential).with_threads(1);
            cfg.hc = cfg.hc.with_threads(1);
            Strategy::Hybrid(cfg)
        }
        _ => unreachable!("hybrid_spec is a hybrid strategy"),
    }
}

/// An in-process daemon on loopback and one client connection to it.
pub struct Daemon {
    /// The closed-loop client.
    pub client: Client,
    handle: ServerHandle,
}

impl Daemon {
    /// Bind on an ephemeral loopback port and connect.
    pub fn start(tracer: &mut Tracer) -> io::Result<Self> {
        let open = tracer.enter("serve.bind_connect");
        // A round uses only its own dataset, structure and model; a small
        // cache keeps `peak_rss_mb` from growing with the rounds a run fits.
        let cfg = ServeConfig::default()
            .with_runners(1)
            .with_cache_capacity(SERVE_CACHE_ENTRIES);
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr();
        let handle = server.spawn();
        let client = Client::connect(addr);
        tracer.exit(open);
        Ok(Self {
            client: client?,
            handle,
        })
    }

    /// Hang up and wait for every daemon thread to end.
    pub fn stop(self) -> io::Result<()> {
        drop(self.client);
        self.handle.stop()
    }
}

/// Everything one run measured, with the first dataset and network for
/// the per-layer probe.
pub struct Measured {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced learns at t=2, seconds.
    pub learn_s: Vec<f64>,
    /// Traced learns at t=2 (traced runs only), seconds.
    pub learn_traced_s: Vec<f64>,
    /// Single-threaded learns, seconds.
    pub learn_seq_s: Vec<f64>,
    /// `put_dataset` + `fit_by_handle` round trips, seconds.
    pub fit_rt_s: Vec<f64>,
    /// `Infer` round trips, microseconds.
    pub infer_rt_us: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Hash of the first learned skeleton and CPDAG.
    pub structure_hash: u64,
    /// CI tests of the first learn's constraint stage.
    pub ci_tests: u64,
    /// Peak resident set size after the measured phases, MiB.
    pub peak_rss_mb: f64,
    /// The first learned dataset.
    pub data: Dataset,
    /// The workload's network.
    pub net: BayesNet,
}

/// Set up, then run the workload for `seconds`. The host's speed drifts
/// over seconds, so the PC workloads interleave their serve rounds with
/// the learns instead of serving at the end: every metric then samples
/// the whole run. In a traced run every other learn and round records
/// spans, so traced and untraced learns can be compared in one process.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> io::Result<(Measured, Daemon)> {
    let traced_run = tracer.enabled();
    let stream = match kind {
        Kind::ServeHybrid => Stream::Serve,
        _ => Stream::Learn,
    };
    let setup = |tracer: &mut Tracer| -> io::Result<_> {
        let open = tracer.enter("setup");
        let (net, _) = tracer.time("network.generate", || inputs::network(kind.network()));
        let (data, _) = tracer.time("network.sample", || inputs::dataset(&net, seed, stream, 0));
        let daemon = Daemon::start(tracer)?;
        Ok((net, data, daemon, tracer.exit(open).as_secs_f64()))
    };
    let (net, data, mut daemon, first_setup_s) = setup(tracer)?;
    let mut m = Measured {
        setup_s: vec![first_setup_s],
        learn_s: Vec::new(),
        learn_traced_s: Vec::new(),
        learn_seq_s: Vec::new(),
        fit_rt_s: Vec::new(),
        infer_rt_us: Vec::new(),
        tally: Tally::default(),
        structure_hash: 0,
        ci_tests: 0,
        peak_rss_mb: 0.0,
        data,
        net,
    };
    // The first request waits for the accept loop; keep that out of the
    // first timed round trip.
    m.tally.record(daemon.client.health().is_ok());

    let t2 = PcStable::new(kind.pc_config());
    let seq = PcStable::new(PcConfig::fast_bns_seq());
    let mut reference = None;
    let (mut learns, mut rounds) = (0u64, 0u64);
    let mut serve_s = 0.0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (m.setup_s.len() as f64) < SETUP_REPS as f64 * (elapsed / seconds).min(1.0) {
            let (_, _, again, secs) = setup(tracer)?;
            again.stop()?;
            m.setup_s.push(secs);
            continue;
        }
        // Two learns at least, so a traced run has traced and untraced ones.
        let learns_due = kind != Kind::ServeHybrid && (learns < 2 || elapsed < seconds);
        let rounds_due = rounds < MIN_SERVE_ROUNDS || elapsed < seconds;
        if !learns_due && !rounds_due {
            break;
        }
        if rounds_due && (!learns_due || serve_s <= SERVE_SHARE * elapsed) {
            tracer.set_enabled(traced_run && rounds.is_multiple_of(2));
            let t0 = Instant::now();
            serve_round(kind, seed, rounds, &mut daemon, tracer, &mut m);
            serve_s += t0.elapsed().as_secs_f64();
            rounds += 1;
        } else {
            tracer.set_enabled(traced_run && learns.is_multiple_of(2));
            learn_pair(
                kind,
                seed,
                learns,
                &t2,
                &seq,
                &mut reference,
                tracer,
                &mut m,
            );
            learns += 1;
        }
    }
    tracer.set_enabled(traced_run);
    m.peak_rss_mb = peak_rss_mb()?;
    Ok((m, daemon))
}

/// Learn `data` on a fresh clone (cold caches, as a user's first learn).
pub fn timed_learn(
    tracer: &mut Tracer,
    learner: &PcStable,
    data: &Dataset,
    name: &'static str,
) -> (LearnResult, f64) {
    let clone = data.clone();
    tracer.time(name, || learner.learn(&clone))
}

/// Learn number `i` of a PC workload: the same data at t=2 and
/// sequentially, alternating which goes first. `pc-wide` learns its one
/// dataset every time, so each learn must match the first (`reference`).
#[allow(clippy::too_many_arguments)]
fn learn_pair(
    kind: Kind,
    seed: u64,
    i: u64,
    t2: &PcStable,
    seq: &PcStable,
    reference: &mut Option<(UGraph, Pdag)>,
    tracer: &mut Tracer,
    m: &mut Measured,
) {
    let fresh;
    let data = match kind {
        Kind::PcManySmall if i > 0 => {
            fresh = inputs::dataset(&m.net, seed, Stream::Learn, i);
            &fresh
        }
        _ => &m.data,
    };
    let ((par, par_s), (one, one_s)) = if i.is_multiple_of(2) {
        let par = timed_learn(tracer, t2, data, "core.learn_t2");
        (par, timed_learn(tracer, seq, data, "core.learn_seq"))
    } else {
        let one = timed_learn(tracer, seq, data, "core.learn_seq");
        (timed_learn(tracer, t2, data, "core.learn_t2"), one)
    };
    if tracer.enabled() {
        m.learn_traced_s.push(par_s);
    } else {
        m.learn_s.push(par_s);
    }
    m.learn_seq_s.push(one_s);
    let learned = (par.skeleton().clone(), par.cpdag().clone());
    let reference = reference.get_or_insert_with(|| {
        m.structure_hash = structure_hash(par.skeleton(), par.cpdag());
        m.ci_tests = par.stats().total_ci_tests();
        learned.clone()
    });
    m.tally
        .record(kind == Kind::PcManySmall || learned == *reference);
    m.tally
        .record(one.skeleton() == par.skeleton() && one.cpdag() == par.cpdag());
}

/// Serve round `r`: upload a fresh dataset (at most [`SERVE_MAX_VARS`]
/// columns), fit it, then send [`INFERS_PER_ROUND`] requests; the same
/// learn, fit and posteriors are computed in process and compared. On
/// `serve-hybrid` the in-process learn at t=2 and a single-threaded one
/// are the run's learn samples.
fn serve_round(
    kind: Kind,
    seed: u64,
    r: u64,
    daemon: &mut Daemon,
    tracer: &mut Tracer,
    m: &mut Measured,
) {
    let timed_learns = kind == Kind::ServeHybrid;
    let full = inputs::dataset(&m.net, seed, Stream::Serve, r);
    let data = &inputs::leading_columns(&full, SERVE_MAX_VARS);
    let rng = &mut Rng::new(seed, Stream::Queries, r);
    let client = &mut daemon.client;
    let open = tracer.enter("serve.fit_rt");
    let (put, _) = tracer.time("serve.put_dataset", || client.put_dataset(data));
    let fit = put.as_ref().ok().map(|p| {
        let handle = p.fingerprint;
        tracer
            .time("serve.fit_by_handle", || {
                client.fit_by_handle(hybrid_spec(), handle, SMOOTHING, THREADS)
            })
            .0
    });
    let fit_rt = tracer.exit(open).as_secs_f64();
    m.tally.record(put.is_ok());
    let (Ok(put), Some(Ok(fit))) = (put, fit) else {
        m.tally.record(false);
        return;
    };
    m.fit_rt_s.push(fit_rt);

    let clone = data.clone();
    let (reference, par_s) = tracer.time("core.hybrid_t2", || {
        learn_structure(&clone, &hybrid_spec().to_strategy())
    });
    if timed_learns {
        if tracer.enabled() {
            m.learn_traced_s.push(par_s);
        } else {
            m.learn_s.push(par_s);
        }
        let clone = data.clone();
        let (one, one_s) =
            tracer.time("core.hybrid_seq", || learn_structure(&clone, &hybrid_seq()));
        m.learn_seq_s.push(one_s);
        m.tally.record(same_structure(&one, &reference));
        if r == 0 {
            let skeleton = reference
                .skeleton
                .as_ref()
                .expect("hybrid learns a skeleton");
            m.structure_hash = structure_hash(skeleton, &reference.cpdag);
            m.ci_tests = reference
                .pc_stats
                .as_ref()
                .map_or(0, |s| s.total_ci_tests());
        }
    }
    let net = reference.fit(data, SMOOTHING, "served");
    let tree = JoinTree::build(&net, usize::from(THREADS));
    let learned = client.learn_by_handle(hybrid_spec(), put.fingerprint);
    m.tally.record(learned.is_ok());
    let same_model =
        learned.is_ok_and(|l| reply_matches(&l, &reference)) && fit_matches(&fit, &net, &tree);
    m.tally.record(same_model);

    for _ in 0..INFERS_PER_ROUND {
        let queries = inputs::infer_request(rng, data.arities());
        let expected = rng
            .next_u64()
            .is_multiple_of(CHECK_ONE_IN)
            .then(|| tree.posteriors(&queries));
        let (reply, rt) = tracer.time("serve.infer", || client.infer(fit.model_id, queries));
        m.infer_rt_us.push(rt * 1e6);
        let ok = reply.is_ok_and(|r| {
            r.results.iter().all(Result::is_ok)
                && expected.is_none_or(|e| bit_equal(&r.results, &e))
        });
        m.tally.record(ok);
    }
}

fn same_structure(a: &StructureResult, b: &StructureResult) -> bool {
    a.skeleton == b.skeleton
        && a.cpdag == b.cpdag
        && a.dag == b.dag
        && a.score.map(f64::to_bits) == b.score.map(f64::to_bits)
}

fn as_u32(edges: Vec<(usize, usize)>) -> Vec<(u32, u32)> {
    edges
        .into_iter()
        .map(|(u, v)| (u as u32, v as u32))
        .collect()
}

/// Does the daemon's learned structure equal the in-process one?
fn reply_matches(reply: &LearnReply, local: &StructureResult) -> bool {
    reply.directed_edges == as_u32(local.cpdag.directed_edges())
        && reply.undirected_edges == as_u32(local.cpdag.undirected_edges())
        && reply.dag_edges == local.dag.as_ref().map(|d| as_u32(d.edges()))
        && reply.score.map(f64::to_bits) == local.score.map(f64::to_bits)
}

/// Does the daemon's fitted model have the in-process model's shape?
fn fit_matches(reply: &FitReply, net: &BayesNet, tree: &JoinTree) -> bool {
    let s = tree.stats();
    reply.n_vars as usize == net.n()
        && reply.n_edges as usize == net.dag().edge_count()
        && reply.n_cliques as usize == s.n_cliques
        && reply.width as usize == s.width
        && reply.max_clique_cells as usize == s.max_clique_cells
}

/// Bit-for-bit equality of two posterior batches.
pub fn bit_equal(
    a: &[Result<Posterior, InferenceError>],
    b: &[Result<Posterior, InferenceError>],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(p), Ok(q)) => {
                p.target == q.target
                    && p.probs.len() == q.probs.len()
                    && p.probs
                        .iter()
                        .zip(&q.probs)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Err(e), Err(f)) => e == f,
            _ => false,
        })
}

/// The process's peak resident set size (`VmHWM`), MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
