//! The `fastbn-served` daemon binary.
//!
//! ```text
//! fastbn-served [--addr HOST:PORT] [--runners N] [--queue N] [--cache N]
//!               [--cache-budget-mb N] [--max-threads N] [--metrics-addr HOST:PORT]
//! ```
//!
//! Serves the protocol in `docs/PROTOCOL.md` until a client sends a
//! `Shutdown` frame. Prints the bound address on stdout (useful with
//! `--addr 127.0.0.1:0`).
//!
//! With `--metrics-addr`, a second listener answers every connection
//! with a Prometheus text-format dump of the process-wide metrics
//! registry over HTTP and hangs up — enough for `curl` and any
//! Prometheus scraper. With `FASTBN_TRACE=1` in the environment, the
//! daemon prints the aggregated span-timing report to stderr when it
//! shuts down.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::exit;
use std::thread;

use fastbn_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: fastbn-served [--addr HOST:PORT] [--runners N] [--queue N] [--cache N] \
         [--cache-budget-mb N] [--max-threads N] [--metrics-addr HOST:PORT]"
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("fastbn-served: bad or missing value for {flag}");
            usage();
        }
    }
}

/// Answer each connection with one HTTP response carrying the current
/// Prometheus dump, then close. Runs forever on its own thread; the
/// daemon's shutdown simply exits the process with it.
fn metrics_loop(listener: TcpListener) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // Drain whatever request line arrived (we answer any of them).
        let mut buf = [0u8; 4096];
        let _ = stream.read(&mut buf);
        let body = fastbn_obs::render_prometheus(&fastbn_obs::global().snapshot());
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

fn main() {
    let mut addr = "127.0.0.1:7733".to_string();
    let mut metrics_addr: Option<String> = None;
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse(args.next(), "--addr"),
            "--runners" => cfg.runners = parse(args.next(), "--runners"),
            "--queue" => cfg.queue_capacity = parse(args.next(), "--queue"),
            "--cache" => cfg.cache_capacity = parse(args.next(), "--cache"),
            "--cache-budget-mb" => {
                let mb: usize = parse(args.next(), "--cache-budget-mb");
                cfg.cache_budget_bytes = mb.saturating_mul(1024 * 1024);
            }
            "--max-threads" => cfg.max_threads = parse(args.next(), "--max-threads"),
            "--metrics-addr" => metrics_addr = Some(parse(args.next(), "--metrics-addr")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fastbn-served: unknown flag {other}");
                usage();
            }
        }
    }
    if let Some(maddr) = metrics_addr {
        let listener = match TcpListener::bind(&maddr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fastbn-served: cannot bind metrics listener {maddr}: {e}");
                exit(1);
            }
        };
        println!(
            "fastbn-served metrics on {}",
            listener.local_addr().map_or(maddr, |a| a.to_string())
        );
        thread::spawn(move || metrics_loop(listener));
    }
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fastbn-served: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    println!("fastbn-served listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("fastbn-served: {e}");
        exit(1);
    }
    fastbn_obs::print_report_if_traced("fastbn-served");
}
