//! Loopback integration tests: the acceptance gate for the daemon.
//!
//! The core claim: a reply served over the wire is **byte-identical**
//! to running the same configuration in process — structure edges are
//! equal as sets, and every score / posterior probability matches under
//! `f64::to_bits`. Also covered: structure/model cache hits, progress
//! streaming, cancellation, `Busy` admission rejection, `Health`/`Stats`
//! and malformed-frame handling.

use std::io::Write;
use std::net::TcpStream;

use fastbn_core::learn_structure;
use fastbn_data::Dataset;
use fastbn_network::{zoo, JoinTree, Query};
use fastbn_score::ScoreKind;
use fastbn_serve::protocol::{kind, ErrorReply, HcSpec, HealthReply, LearnRequest};
use fastbn_serve::wire::{encode_frame, read_frame, Enc};
use fastbn_serve::{Client, DatasetRef, ErrorCode, JobPhase, ServeConfig, Server, StrategySpec};

fn alarm_sample(rows: usize) -> Dataset {
    zoo::by_name("alarm", 7)
        .expect("alarm replica")
        .sample_dataset(rows, 42)
}

fn spawn_server(cfg: ServeConfig) -> (fastbn_serve::ServerHandle, std::net::SocketAddr) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

#[test]
fn learn_fit_infer_over_wire_is_byte_identical_to_in_process() {
    let data = alarm_sample(1500);
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    for spec in [StrategySpec::pc(2), StrategySpec::hybrid(2)] {
        // In-process reference run of the exact same configuration.
        let reference = learn_structure(&data, &spec.to_strategy());

        let reply = client.learn(spec.clone(), &data).expect("learn");
        assert!(!reply.cache_hit);
        assert_eq!(reply.n_vars as usize, data.n_vars());
        let as_u32 = |edges: Vec<(usize, usize)>| -> Vec<(u32, u32)> {
            edges
                .into_iter()
                .map(|(u, v)| (u as u32, v as u32))
                .collect()
        };
        assert_eq!(
            reply.directed_edges,
            as_u32(reference.cpdag.directed_edges())
        );
        assert_eq!(
            reply.undirected_edges,
            as_u32(reference.cpdag.undirected_edges())
        );
        assert_eq!(
            reply.dag_edges,
            reference.dag.as_ref().map(|d| as_u32(d.edges()))
        );
        // Scores travel as raw IEEE-754 bits: compare bitwise.
        assert_eq!(
            reply.score.map(f64::to_bits),
            reference.score.map(f64::to_bits)
        );

        // Same request again: served from the structure cache, otherwise
        // identical.
        let replay = client.learn(spec.clone(), &data).expect("cached learn");
        assert!(replay.cache_hit);
        assert_eq!(replay.directed_edges, reply.directed_edges);
        assert_eq!(replay.undirected_edges, reply.undirected_edges);
        assert_eq!(
            replay.score.map(f64::to_bits),
            reply.score.map(f64::to_bits)
        );
        assert_eq!(replay.structure_key, reply.structure_key);

        // Fit + infer, against the in-process fit of the same structure.
        let fitted = client.fit(spec.clone(), &data, 1.0, 2).expect("fit");
        let ref_net = reference.fit(&data, 1.0, "ref");
        assert_eq!(fitted.n_vars as usize, ref_net.n());
        assert_eq!(fitted.n_edges as usize, ref_net.dag().edge_count());

        let ref_tree = JoinTree::build(&ref_net, 2);
        let queries = vec![
            Query::marginal(0),
            Query::marginal(data.n_vars() - 1),
            Query::with_evidence(3, vec![(0, 0), (7, 1)]),
            // Contradictory evidence must round-trip as the error variant.
            Query::with_evidence(2, vec![(5, 0), (5, 1)]),
        ];
        let answers = client
            .infer(fitted.model_id, queries.clone())
            .expect("infer");
        let reference_answers = ref_tree.posteriors(&queries);
        assert_eq!(answers.results.len(), reference_answers.len());
        for (wire, local) in answers.results.iter().zip(&reference_answers) {
            match (wire, local) {
                (Ok(w), Ok(l)) => {
                    assert_eq!(w.target, l.target);
                    let wb: Vec<u64> = w.probs.iter().map(|p| p.to_bits()).collect();
                    let lb: Vec<u64> = l.probs.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(wb, lb, "posterior bits differ over the wire");
                }
                (Err(_), Err(_)) => {}
                other => panic!("wire/local result shape mismatch: {other:?}"),
            }
        }

        // Refit of the identical request hits the model cache and hands
        // back the same model id.
        let refit = client.fit(spec.clone(), &data, 1.0, 2).expect("cached fit");
        assert!(refit.cache_hit);
        assert_eq!(refit.model_id, fitted.model_id);
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
}

/// The process's live thread count (`/proc/self/status`), where the
/// platform exposes it.
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn client_thread_counts_are_clamped_server_side() {
    let data = alarm_sample(600);
    let (handle, addr) = spawn_server(ServeConfig::default().with_max_threads(2));
    let mut client = Client::connect(addr).expect("connect");

    // Sample the thread count while the oversized requests run.
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut peak = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(live_threads().unwrap_or(0));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        })
    };
    for (huge, small) in [
        (StrategySpec::pc(u16::MAX), StrategySpec::pc(2)),
        (StrategySpec::hybrid(u16::MAX), StrategySpec::hybrid(2)),
    ] {
        let wide = client
            .learn(huge.clone(), &data)
            .expect("learn, u16::MAX threads");
        let narrow = client.learn(small, &data).expect("learn, 2 threads");
        assert_eq!(wide.directed_edges, narrow.directed_edges);
        assert_eq!(wide.undirected_edges, narrow.undirected_edges);
        assert_eq!(wide.dag_edges, narrow.dag_edges);
        assert_eq!(wide.score.map(f64::to_bits), narrow.score.map(f64::to_bits));
        let fitted = client
            .fit(huge, &data, 1.0, u16::MAX)
            .expect("fit, u16::MAX calibration threads");
        assert_eq!(fitted.n_vars as usize, data.n_vars());
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let peak = watcher.join().expect("watcher");
    assert!(peak < 1000, "{peak} live threads: the clamp did not hold");

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

#[test]
fn progress_events_stream_in_phase_order() {
    let data = alarm_sample(800);
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let mut phases: Vec<JobPhase> = Vec::new();
    let mut search_iters = 0u64;
    let reply = client
        .learn_with_progress(StrategySpec::hybrid(2), &data, |ev| {
            if phases.last() != Some(&ev.phase) {
                phases.push(ev.phase);
            }
            if ev.phase == JobPhase::Search && ev.iteration > 0 {
                search_iters = ev.iteration;
            }
            true
        })
        .expect("learn with progress");
    assert_eq!(phases, vec![JobPhase::Skeleton, JobPhase::Search]);
    // The final streamed iteration count matches the reply's stats.
    assert_eq!(
        search_iters,
        reply
            .search_stats
            .expect("hybrid has search stats")
            .iterations
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

#[test]
fn cancellation_stops_a_running_job() {
    let data = alarm_sample(800);
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A deliberately long search: many restarts, cancelled at the first
    // streamed search iteration.
    let slow = StrategySpec::HillClimb(HcSpec {
        kind: ScoreKind::Bic,
        restarts: 5_000,
        ..HcSpec::default()
    });
    let mut events = 0u64;
    let result = client.learn_with_progress(slow, &data, |_| {
        events += 1;
        events < 2
    });
    let err = result.expect_err("job should be cancelled");
    assert!(err.is_code(ErrorCode::Cancelled), "got: {err}");

    // The daemon is still healthy and the next job still runs.
    let ok = client
        .learn(StrategySpec::pc(1), &data)
        .expect("learn after cancel");
    assert!(!ok.cache_hit);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_cancelled, 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

#[test]
fn full_admission_queue_rejects_with_busy() {
    let data = alarm_sample(600);
    let (handle, addr) = spawn_server(
        ServeConfig::default()
            .with_runners(1)
            .with_queue_capacity(1),
    );

    // Raw frames: job 1 occupies the single runner, job 2 fills the
    // single queue slot, job 3 must be rejected immediately with Busy.
    // A second connection polls Health between submissions so each job
    // has observably landed (running / queued) before the next one is
    // sent — submission itself is asynchronous to the runner's dequeue.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut monitor = Client::connect(addr).expect("monitor connect");
    let send_learn = |stream: &mut TcpStream, id: u32| {
        let req = LearnRequest {
            // Distinct seeds → distinct cache keys → no cache shortcuts.
            strategy: StrategySpec::HillClimb(HcSpec {
                restarts: 5_000,
                seed: id as u64,
                ..HcSpec::default()
            }),
            dataset: DatasetRef::Inline(data.clone()),
        };
        stream
            .write_all(&encode_frame(kind::LEARN, id, &req.encode()))
            .expect("send learn");
    };
    send_learn(&mut stream, 1);
    while monitor.health().expect("health").jobs_running < 1 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    send_learn(&mut stream, 2);
    while monitor.health().expect("health").jobs_queued < 1 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    send_learn(&mut stream, 3);

    // The first non-event frame must be the Busy rejection for id 3.
    let busy = loop {
        let frame = read_frame(&mut stream).expect("read").expect("open");
        if frame.kind != kind::EVENT_PROGRESS {
            break frame;
        }
    };
    assert_eq!(busy.kind, kind::ERROR);
    assert_eq!(busy.request_id, 3);
    let err = ErrorReply::decode(&busy.payload).expect("decode error reply");
    assert_eq!(err.code, ErrorCode::Busy);

    // Cancel jobs 1 and 2 so the test finishes quickly; both must
    // answer (Cancelled error) before the connection winds down.
    for (cancel_id, target) in [(10u32, 1u32), (11, 2)] {
        let payload = fastbn_serve::protocol::CancelRequest {
            target_request_id: target,
        }
        .encode();
        stream
            .write_all(&encode_frame(kind::CANCEL, cancel_id, &payload))
            .expect("send cancel");
    }
    let mut outcomes = 0;
    while outcomes < 2 {
        let frame = read_frame(&mut stream).expect("read").expect("open");
        if frame.kind == kind::ERROR && (frame.request_id == 1 || frame.request_id == 2) {
            let err = ErrorReply::decode(&frame.payload).expect("decode");
            assert_eq!(err.code, ErrorCode::Cancelled);
            outcomes += 1;
        }
    }

    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.busy_rejections, 1);
    client.shutdown().expect("shutdown");
    drop(stream);
    handle.join().expect("server exits");
}

#[test]
fn health_stats_and_error_paths() {
    let data = alarm_sample(400);
    let (handle, addr) = spawn_server(ServeConfig::default().with_queue_capacity(5));
    let mut client = Client::connect(addr).expect("connect");

    let health = client.health().expect("health");
    assert_eq!(
        health.protocol_version,
        fastbn_serve::wire::PROTOCOL_VERSION
    );
    assert_eq!(health.queue_capacity, 5);

    // Unknown model id → UnknownModel.
    let err = client
        .infer(0xBAD_CAFE, vec![Query::marginal(0)])
        .expect_err("no such model");
    assert!(err.is_code(ErrorCode::UnknownModel), "got: {err}");

    // Out-of-range query against a real model → BadRequest.
    let fitted = client.fit(StrategySpec::pc(1), &data, 1.0, 1).expect("fit");
    let err = client
        .infer(fitted.model_id, vec![Query::marginal(10_000)])
        .expect_err("target out of range");
    assert!(err.is_code(ErrorCode::BadRequest), "got: {err}");

    // A valid batch against the same model succeeds and is counted.
    let answers = client
        .infer(
            fitted.model_id,
            vec![Query::marginal(0), Query::marginal(1)],
        )
        .expect("valid infer");
    assert_eq!(answers.results.len(), 2);

    // Unknown frame kind → Malformed error, connection stays usable.
    // (Raw socket so the client's request-id bookkeeping is untouched.)
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(&encode_frame(0x6F, 9, &[]))
        .expect("send junk kind");
    let frame = read_frame(&mut raw).expect("read").expect("open");
    assert_eq!(frame.kind, kind::ERROR);
    let err = ErrorReply::decode(&frame.payload).expect("decode");
    assert_eq!(err.code, ErrorCode::Malformed);

    let stats = client.stats().expect("stats");
    assert!(stats.jobs_accepted >= 3);
    assert_eq!(stats.model_misses, 1);
    assert!(stats.queries_answered >= 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// A `DatasetPut` whose header declares far more samples than its payload
/// carries (2^44 here, a 16 TiB column) is answered with `Malformed`
/// before anything is allocated, and the same connection keeps serving.
#[test]
fn hostile_dataset_put_is_malformed_and_daemon_keeps_serving() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let mut payload = Enc::new();
    payload.u32(2).u64(1 << 44);
    payload.str("a").u8(2).str("b").u8(2).u8(0);
    raw.write_all(&encode_frame(kind::DATASET_PUT, 1, &payload.into_bytes()))
        .expect("send hostile put");
    let frame = read_frame(&mut raw).expect("read").expect("open");
    assert_eq!((frame.kind, frame.request_id), (kind::ERROR, 1));
    let err = ErrorReply::decode(&frame.payload).expect("decode");
    assert_eq!(err.code, ErrorCode::Malformed);

    raw.write_all(&encode_frame(kind::HEALTH, 2, &[]))
        .expect("send health");
    let frame = read_frame(&mut raw).expect("read").expect("open");
    assert_eq!((frame.kind, frame.request_id), (kind::HEALTH_OK, 2));
    let health = HealthReply::decode(&frame.payload).expect("decode health");
    assert_eq!(
        health.protocol_version,
        fastbn_serve::wire::PROTOCOL_VERSION
    );
    drop(raw);

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Every admitted request gets exactly one terminal frame — its `*Ok`
/// reply or an `Error` — even when a burst of good, hostile and
/// unanswerable requests is written on one connection without reading
/// in between. A `Health` fence sent afterwards is then the very next
/// terminal frame: nothing from the burst arrives late.
#[test]
fn every_request_gets_exactly_one_terminal_reply() {
    use fastbn_serve::protocol::{DatasetPutRequest, InferRequest};
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut raw = TcpStream::connect(addr).expect("raw connect");

    let mut hostile_put = Enc::new();
    hostile_put.u32(2).u64(1 << 44);
    hostile_put.str("a").u8(2).str("b").u8(2).u8(0);
    let one_var = Dataset::from_columns(vec![], vec![2], vec![vec![0, 1, 1]]).unwrap();
    let unknown_model = InferRequest {
        model_id: 0xBAD_CAFE,
        queries: vec![Query::marginal(0)],
    };
    let unknown_handle = LearnRequest {
        strategy: StrategySpec::pc(1),
        dataset: DatasetRef::Handle(0xDEAD_BEEF),
    };
    /// One request of the burst and the terminal frame it must get.
    struct Sent {
        id: u32,
        kind: u8,
        payload: Vec<u8>,
        reply: u8,
        code: Option<ErrorCode>,
    }
    let sent = |id, kind, payload, reply, code| Sent {
        id,
        kind,
        payload,
        reply,
        code,
    };
    let burst = [
        sent(11, kind::HEALTH, vec![], kind::HEALTH_OK, None),
        sent(12, kind::STATS, vec![], kind::STATS_OK, None),
        sent(
            13,
            kind::DATASET_PUT,
            hostile_put.into_bytes(),
            kind::ERROR,
            Some(ErrorCode::Malformed),
        ),
        sent(
            14,
            kind::INFER,
            unknown_model.encode(),
            kind::ERROR,
            Some(ErrorCode::UnknownModel),
        ),
        sent(15, 0x6F, vec![], kind::ERROR, Some(ErrorCode::Malformed)),
        sent(
            16,
            kind::LEARN,
            unknown_handle.encode(),
            kind::ERROR,
            Some(ErrorCode::UnknownDataset),
        ),
        sent(
            17,
            kind::DATASET_PUT,
            DatasetPutRequest { dataset: one_var }.encode(),
            kind::ERROR,
            Some(ErrorCode::BadRequest),
        ),
    ];
    for req in &burst {
        raw.write_all(&encode_frame(req.kind, req.id, &req.payload))
            .expect("send burst frame");
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    let read_before_deadline = |raw: &mut TcpStream| {
        let left = deadline
            .checked_duration_since(Instant::now())
            .expect("terminal replies arrive before the deadline");
        raw.set_read_timeout(Some(left)).expect("set read timeout");
        read_frame(raw)
            .expect("read")
            .expect("connection stays open")
    };
    let mut terminal: BTreeMap<u32, Vec<(u8, Vec<u8>)>> = BTreeMap::new();
    while terminal.len() < burst.len() {
        let frame = read_before_deadline(&mut raw);
        if frame.kind == kind::EVENT_PROGRESS {
            continue;
        }
        terminal
            .entry(frame.request_id)
            .or_default()
            .push((frame.kind, frame.payload));
    }
    for req in &burst {
        let id = req.id;
        let replies = &terminal[&id];
        assert_eq!(replies.len(), 1, "request {id}: one terminal frame");
        let (got_kind, payload) = &replies[0];
        assert_eq!(*got_kind, req.reply, "request {id}: terminal kind");
        if let Some(code) = req.code {
            let err = ErrorReply::decode(payload).expect("decode error");
            assert_eq!(err.code, code, "request {id}: error code");
        }
    }
    assert_eq!(terminal.len(), burst.len(), "no replies for unsent ids");

    raw.write_all(&encode_frame(kind::HEALTH, 99, &[]))
        .expect("send fence");
    let fence = loop {
        let frame = read_before_deadline(&mut raw);
        if frame.kind != kind::EVENT_PROGRESS {
            break frame;
        }
    };
    assert_eq!((fence.kind, fence.request_id), (kind::HEALTH_OK, 99));
    drop(raw);

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Upload-once dataset handles: `DatasetPut` returns the content
/// fingerprint, by-handle `Learn`/`Fit` produce byte-identical replies
/// to the inline forms without reshipping the columns, and unknown
/// handles fail with `UnknownDataset`.
#[test]
fn dataset_handles_avoid_reshipping_columns() {
    let data = alarm_sample(1000);
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let put = client.put_dataset(&data).expect("put dataset");
    assert!(!put.already_cached);
    assert_eq!(put.n_vars as usize, data.n_vars());
    assert_eq!(put.n_samples as usize, data.n_samples());
    // Idempotent: a re-upload reports the cached copy and the same
    // fingerprint (it is a pure content hash).
    let reput = client.put_dataset(&data).expect("re-put dataset");
    assert!(reput.already_cached);
    assert_eq!(reput.fingerprint, put.fingerprint);

    // A by-handle learn ships 9 bytes of dataset reference instead of
    // the columns — the whole point of the handle.
    let spec = StrategySpec::pc(2);
    let inline_req = LearnRequest {
        strategy: spec.clone(),
        dataset: DatasetRef::Inline(data.clone()),
    }
    .encode();
    let handle_req = LearnRequest {
        strategy: spec.clone(),
        dataset: DatasetRef::Handle(put.fingerprint),
    }
    .encode();
    assert!(
        handle_req.len() < 64 && handle_req.len() * 100 < inline_req.len(),
        "by-handle request ({} B) must be tiny next to inline ({} B)",
        handle_req.len(),
        inline_req.len()
    );

    // Replies are interchangeable with the inline form: same structure
    // key (the handle IS the dataset fingerprint), same edges, same
    // score bits; the second request hits the structure cache.
    let by_handle = client
        .learn_by_handle(spec.clone(), put.fingerprint)
        .expect("learn by handle");
    let inline = client.learn(spec.clone(), &data).expect("learn inline");
    assert!(inline.cache_hit, "inline learn reuses the by-handle result");
    assert_eq!(by_handle.structure_key, inline.structure_key);
    assert_eq!(by_handle.directed_edges, inline.directed_edges);
    assert_eq!(by_handle.undirected_edges, inline.undirected_edges);
    assert_eq!(
        by_handle.score.map(f64::to_bits),
        inline.score.map(f64::to_bits)
    );

    // Fit by handle works the same way and yields a usable model.
    let fitted = client
        .fit_by_handle(spec.clone(), put.fingerprint, 1.0, 2)
        .expect("fit by handle");
    let answers = client
        .infer(fitted.model_id, vec![Query::marginal(0)])
        .expect("infer on by-handle model");
    assert_eq!(answers.results.len(), 1);

    // Unknown handles are a distinct, retryable error.
    let err = client
        .learn_by_handle(spec, 0xBAD0_BAD0_BAD0_BAD0)
        .expect_err("unknown handle");
    assert!(err.is_code(ErrorCode::UnknownDataset), "got: {err}");

    // Stats surface the dataset-cache traffic and byte accounting.
    let stats = client.stats().expect("stats");
    assert!(stats.dataset_hits >= 2, "handle learns + fit count as hits");
    assert_eq!(stats.dataset_misses, 1);
    assert!(stats.cache_bytes > 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// The `Metrics` frame surfaces at least one live metric from every
/// instrumented layer — parallel substrate, counting engines, score
/// cache, and the daemon's own request path — and the Prometheus render
/// of the same snapshot carries them in exposition format.
#[test]
fn metrics_frame_exposes_cross_layer_registry() {
    let data = alarm_sample(600);
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A hybrid learn exercises the CI engines, the score cache, and the
    // job pool in one request.
    client
        .learn(StrategySpec::hybrid(2), &data)
        .expect("learn for metrics");

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics
            .gauges
            .iter()
            .any(|(n, _)| n == "fastbn.parallel.jobs.queue_depth"),
        "parallel layer gauge missing"
    );
    let engine_picks: u64 = metrics
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("fastbn.stats.engine."))
        .map(|&(_, v)| v)
        .sum();
    assert!(engine_picks > 0, "no engine-pick counters recorded");
    assert!(
        metrics
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("fastbn.score.cache.")),
        "score-cache counters missing"
    );
    assert!(
        metrics
            .histograms
            .iter()
            .any(|h| h.name == "fastbn.serve.request.learn_us" && h.count >= 1),
        "serve request-latency histogram missing"
    );

    // Same snapshot, Prometheus text exposition.
    let text = client.metrics_text().expect("metrics text");
    assert!(text.contains("# TYPE fastbn_serve_request_learn_us histogram"));
    assert!(text.contains("fastbn_serve_request_learn_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains("fastbn_parallel_jobs_queue_depth"));

    // Stats carries the v2 observability fields from the same sources.
    let stats = client.stats().expect("stats");
    assert!(stats.engine_tiled_picks + stats.engine_bitmap_picks >= engine_picks);
    assert!(
        stats.moves_evaluated > 0,
        "hybrid learn must evaluate moves"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Instrumentation invariance: the same learn request answered with
/// span tracing enabled is byte-identical (timing fields zeroed, as
/// they vary run to run) to one answered with it disabled. Metrics and
/// spans must never feed back into results.
#[test]
fn replies_are_byte_identical_with_tracing_enabled() {
    let data = alarm_sample(600);
    let spec = StrategySpec::hybrid(2);

    let run_once = |trace: bool| -> Vec<u8> {
        fastbn_obs::set_trace_enabled(trace);
        let (handle, addr) = spawn_server(ServeConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let mut reply = client.learn(spec.clone(), &data).expect("learn");
        client.shutdown().expect("shutdown");
        handle.join().expect("server exits");
        if let Some(stats) = reply.pc_stats.as_mut() {
            stats.skeleton_micros = 0;
            stats.orientation_micros = 0;
            for depth in &mut stats.depths {
                depth.micros = 0;
            }
        }
        if let Some(stats) = reply.search_stats.as_mut() {
            stats.micros = 0;
        }
        reply.encode()
    };

    let plain = run_once(false);
    let traced = run_once(true);
    fastbn_obs::set_trace_enabled(false);
    assert_eq!(plain, traced, "tracing changed the reply bytes");
}

/// Regenerates the worked hex example of `docs/PROTOCOL.md` §8 and
/// asserts byte equality, so the spec's example can never drift from
/// the reference codec. Timing fields in the reply are zeroed exactly
/// as the doc's capture shows.
#[test]
fn protocol_doc_example_is_accurate() {
    use fastbn_core::ParallelMode;
    use fastbn_serve::protocol::{LearnReply, PcSpec};
    use fastbn_stats::EngineSelect;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    let dataset = Dataset::from_columns(
        vec!["a".into(), "b".into()],
        vec![2, 2],
        vec![vec![0, 1, 1, 0], vec![0, 1, 1, 0]],
    )
    .expect("tiny dataset");
    let spec = StrategySpec::PcStable(PcSpec {
        alpha: 0.05,
        threads: 1,
        mode: ParallelMode::Sequential,
        max_depth: None,
        engine: EngineSelect::Auto,
    });

    let request_frame = encode_frame(
        kind::LEARN,
        1,
        &LearnRequest {
            strategy: spec,
            dataset: DatasetRef::Inline(dataset),
        }
        .encode(),
    );
    let doc_request = "39000000050101000000009a9999999999a93f01000000000000000000020000\
                       0004000000000000000100000061020100000062020001010000010100";
    assert_eq!(hex(&request_frame), doc_request);

    // Run the exchange for real; zero the (run-varying) timing fields,
    // exactly as the doc's capture notes.
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&request_frame).expect("send request");
    let frame = loop {
        let frame = read_frame(&mut stream)
            .expect("read reply")
            .expect("reply frame");
        if frame.kind != kind::EVENT_PROGRESS {
            break frame;
        }
    };
    assert_eq!(frame.kind, kind::LEARN_OK);
    assert_eq!(frame.request_id, 1);
    let mut reply = LearnReply::decode(&frame.payload).expect("decode reply");
    if let Some(stats) = reply.pc_stats.as_mut() {
        stats.skeleton_micros = 0;
        stats.orientation_micros = 0;
        for depth in &mut stats.depths {
            depth.micros = 0;
        }
    }
    let reply_frame = encode_frame(kind::LEARN_OK, 1, &reply.encode());
    let doc_reply = "570000000581010000003b594147047e8a2d0002000000000000000100000000\
                     0000000100000000000101000000000000000100000000000000010000000000\
                     000000000000000000000000000000000000000000000000000000";
    assert_eq!(hex(&reply_frame), doc_reply);
    drop(stream);

    let mut shutdown = Client::connect(addr).expect("connect for shutdown");
    shutdown.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}
