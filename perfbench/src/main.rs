//! End-to-end and per-layer benchmark of fastbn.
//!
//! ```text
//! perfbench --workload <pc-wide|pc-many-small|serve-hybrid> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs it for `--seconds`,
//! checks every output against an independent computation, and prints
//! one `metric` line per measurement followed by a JSON summary as the
//! last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans around every layer call, probes each layer and reports
//! the per-layer metrics (spans are written under `perfbench/target/`).
//! Exits non-zero when any output fails its check.

mod check;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use stats::{median, percentile, windowed_percentile};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Kind;

/// Environment variables that switch the program's code paths. They are
/// cleared before anything runs, so a stray setting cannot make the
/// measured program differ between two runs.
const PINNED_ENV: [&str; 6] = [
    "FASTBN_COUNT_ENGINE",
    "FASTBN_SIMD",
    "FASTBN_BITMAP_INDEX",
    "FASTBN_CHUNK_ROWS",
    "FASTBN_CHUNK_BUDGET_BYTES",
    "FASTBN_TRACE",
];

/// One reported measurement.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pc-wide|pc-many-small|serve-hybrid> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    for var in PINNED_ENV {
        if let Ok(value) = std::env::var(var) {
            eprintln!("perfbench: clearing {var}={value}");
            std::env::remove_var(var);
        }
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one benchmark invocation; `Ok(false)` when an output was wrong.
fn run(args: &Args) -> std::io::Result<bool> {
    let kind = args.kind;
    println!(
        "# perfbench workload={} network={} seed={} seconds={} trace={}",
        kind.name(),
        kind.network(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# simd_tier={} index_kind={} nproc={}",
        fastbn_stats::simd::active_tier().name(),
        fastbn_data::default_index_kind().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut tracer = Tracer::new(args.trace);
    let (mut m, mut daemon) = workloads::run(kind, args.seed, args.seconds as f64, &mut tracer)?;
    let rep = layers::replay(&m.data, &kind.pc_config(), args.trace, &mut tracer);
    m.tally
        .record(rep.records == m.ci_tests && rep.performed == m.ci_tests);
    println!(
        "# structure_hash={:#018x} ci_tests={} replayed={}",
        m.structure_hash, m.ci_tests, rep.performed
    );

    let metrics = if args.trace {
        let mut tally = m.tally;
        let metrics = layers::probe(
            kind,
            args.seed,
            &m,
            &rep,
            &mut daemon,
            &mut tracer,
            &mut tally,
        );
        m.tally = tally;
        let dir = std::path::Path::new("perfbench/target/spans");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", kind.name(), args.seed));
        std::fs::write(&path, trace::to_jsonl(tracer.spans()))?;
        println!(
            "# spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        for (layer, t) in trace::layer_self_times(tracer.spans()) {
            println!("# self time {layer:<9} {:>10.4} s", t.as_secs_f64());
        }
        metrics
    } else {
        end_to_end(&m)
    };
    daemon.stop()?;

    for (name, xs) in [
        ("learn_s", &m.learn_s),
        ("learn_seq_s", &m.learn_seq_s),
        ("fit_rt_s", &m.fit_rt_s),
        ("infer_rt_us", &m.infer_rt_us),
    ] {
        println!("# {name}: n={} {}", xs.len(), quartiles(xs));
    }
    let learn_p90 = percentile(&m.learn_s, 0.9);
    println!(
        "# samples: learn={} learn_seq={} fit_rt={} infer_rt={}; learn_p90_s={}",
        m.learn_s.len(),
        m.learn_seq_s.len(),
        m.fit_rt_s.len(),
        m.infer_rt_us.len(),
        learn_p90.map_or("n/a (fewer than 10 samples beyond p90)".into(), |v| v
            .to_string())
    );
    println!(
        "# error_rate={} ({} failed of {} attempted)",
        m.tally.error_rate(),
        m.tally.failed,
        m.tally.attempted
    );
    for metric in &metrics {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let correct = m.tally.failed == 0;
    println!("{}", summary_json(correct, &m.tally, &metrics));
    Ok(correct)
}

/// `min q1 median q3 max` of `xs` (nearest rank).
fn quartiles(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    if v.is_empty() {
        return "no samples".into();
    }
    format!(
        "min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    )
}

/// The gated metrics of an untraced run.
fn end_to_end(m: &workloads::Measured) -> Vec<Metric> {
    let med = |xs: &[f64]| median(xs).expect("every run takes every sample at least once");
    vec![
        Metric {
            name: "setup_s",
            value: med(&m.setup_s),
            unit: "s",
        },
        Metric {
            name: "learn_s",
            value: med(&m.learn_s),
            unit: "s",
        },
        Metric {
            name: "learn_seq_s",
            value: med(&m.learn_seq_s),
            unit: "s",
        },
        Metric {
            name: "fit_rt_s",
            value: med(&m.fit_rt_s),
            unit: "s",
        },
        Metric {
            name: "infer_rt_p50_us",
            value: med(&m.infer_rt_us),
            unit: "us",
        },
        Metric {
            name: "infer_rt_p99_us",
            value: windowed_percentile(&m.infer_rt_us, workloads::P99_WINDOW, 0.99)
                .expect("serve rounds fill several p99 windows"),
            unit: "us",
        },
        Metric {
            name: "peak_rss_mb",
            value: m.peak_rss_mb,
            unit: "MiB",
        },
    ]
}

/// The last output line: `correct`, `attempted`, `failed` and `metrics`.
fn summary_json(correct: bool, tally: &stats::Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a value that is not finite is null.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".into()
        };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_one_json_object_with_the_four_keys() {
        let mut tally = stats::Tally::default();
        tally.record(true);
        tally.record(false);
        let metrics = [
            Metric {
                name: "learn_s",
                value: 0.25,
                unit: "s",
            },
            Metric {
                name: "ratio",
                value: f64::NAN,
                unit: "ratio",
            },
        ];
        assert_eq!(
            summary_json(false, &tally, &metrics),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"learn_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ratio\": {\"value\": null, \"unit\": \"ratio\"}}}"
        );
    }
}
