//! Compare measured bench medians against the checked-in baseline and fail
//! on regressions — the CI bench gate.
//!
//! Input format: what the criterion shim writes when `CRITERION_JSON` is
//! set — one JSON object per line, `{"id":"group/label","median_ns":N}`.
//! The baseline file (`crates/bench/baseline.json`) is a JSON array of the
//! same objects. The parser accepts both layouts, so a raw capture file
//! can be promoted to a baseline with `update`.
//!
//! ```sh
//! CRITERION_JSON=measured.jsonl cargo bench --bench gsq --bench workpool
//! cargo run -p fastbn-bench --bin bench_diff -- check \
//!     --measured measured.jsonl --baseline crates/bench/baseline.json
//! cargo run -p fastbn-bench --bin bench_diff -- update \
//!     --measured measured.jsonl --baseline crates/bench/baseline.json
//! ```
//!
//! `check` exits nonzero when any baseline kernel regressed by more than
//! `--threshold` (default 2.0×) or disappeared from the measurement. The
//! 2× default is deliberately loose: shared CI runners jitter, and the gate
//! is meant to catch algorithmic regressions (an accidental O(n²), a lost
//! cache optimization), not 10% noise. New kernels in the measurement that
//! the baseline does not know are reported but never fail — add them with
//! `update`.
//!
//! ## Hardware normalization
//!
//! Baselines are captured on *some* machine; CI runs on another. A slower
//! runner shifts **every** kernel's measured/baseline ratio by roughly the
//! same factor, while an algorithmic regression shifts **one** kernel
//! against the rest. `check` therefore divides each ratio by the median
//! ratio across all measured kernels before gating, once at least
//! [`NORMALIZE_MIN_KERNELS`] kernels are present (below that a median is
//! not robust and raw ratios gate). The known blind spot — a regression
//! that slows *every* kernel uniformly — is the trade-off for not gating
//! on absolute nanoseconds from unrelated hardware; catching those is what
//! the paper-scale runs are for.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark entry: id → median nanoseconds per iteration.
type Entries = BTreeMap<String, u128>;

/// Kernel count from which the median-ratio hardware normalization is
/// considered robust (see module docs).
const NORMALIZE_MIN_KERNELS: usize = 8;

/// Extract `{"id": ..., "median_ns": ...}` pairs from JSON text. Tolerant
/// of layout (JSON-lines or array, any whitespace); strict about each
/// object carrying both keys. Duplicate ids keep the **last** value: the
/// shim appends to `CRITERION_JSON`, so when a capture file is reused
/// across runs the newest measurement must supersede stale earlier lines
/// (a kept stale minimum would mask a real regression).
fn parse_entries(text: &str) -> Result<Entries, String> {
    let mut out = Entries::new();
    let mut rest = text;
    while let Some(start) = rest.find("{") {
        let end = rest[start..]
            .find('}')
            .ok_or_else(|| "unterminated object".to_string())?;
        let obj = &rest[start..start + end + 1];
        let id = extract_string(obj, "id")?;
        let median = extract_u128(obj, "median_ns")?;
        out.insert(id, median);
        rest = &rest[start + end + 1..];
    }
    Ok(out)
}

fn extract_string(obj: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key {key:?} in {obj}"))?;
    let after_colon = obj[at + pat.len()..]
        .find(':')
        .map(|i| &obj[at + pat.len() + i + 1..])
        .ok_or_else(|| format!("no colon after {key:?}"))?;
    let open = after_colon
        .find('"')
        .ok_or_else(|| format!("no string value for {key:?}"))?;
    let close = after_colon[open + 1..]
        .find('"')
        .ok_or_else(|| format!("unterminated string for {key:?}"))?;
    Ok(after_colon[open + 1..open + 1 + close].to_string())
}

fn extract_u128(obj: &str, key: &str) -> Result<u128, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key {key:?} in {obj}"))?;
    let after_colon = obj[at + pat.len()..]
        .find(':')
        .map(|i| &obj[at + pat.len() + i + 1..])
        .ok_or_else(|| format!("no colon after {key:?}"))?;
    let digits: String = after_colon
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits
        .parse()
        .map_err(|e| format!("bad number for {key:?}: {e}"))
}

fn render_baseline(entries: &Entries) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (id, ns) in entries {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  {{\"id\":\"{id}\",\"median_ns\":{ns}}}"));
    }
    out.push_str("\n]\n");
    out
}

/// Median of an unsorted slice (mean of the middle pair when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The comparison itself, separated from I/O so it can be unit-tested.
/// Returns (report lines, ok). Gating is on the hardware-normalized ratio
/// (raw ratio ÷ median ratio) once enough kernels are measured — see the
/// module docs.
fn diff(baseline: &Entries, measured: &Entries, threshold: f64) -> (Vec<String>, bool) {
    let mut raw_ratios: Vec<f64> = baseline
        .iter()
        .filter_map(|(id, &base_ns)| {
            measured
                .get(id)
                .map(|&meas_ns| meas_ns as f64 / base_ns.max(1) as f64)
        })
        .collect();
    let scale = if raw_ratios.len() >= NORMALIZE_MIN_KERNELS {
        median(&mut raw_ratios)
    } else {
        1.0
    };

    let mut lines = vec![format!(
        "hardware scale {scale:.2}x (median of {} kernel ratios; gate = {threshold}x relative)",
        raw_ratios.len()
    )];
    let mut ok = true;
    for (id, &base_ns) in baseline {
        match measured.get(id) {
            Some(&meas_ns) => {
                let ratio = (meas_ns as f64 / base_ns.max(1) as f64) / scale;
                let verdict = if ratio > threshold {
                    ok = false;
                    "REGRESSED"
                } else if ratio < 1.0 / threshold {
                    "improved"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{id:<50} base {base_ns:>12}ns  now {meas_ns:>12}ns  {ratio:>6.2}x  {verdict}"
                ));
            }
            None => {
                ok = false;
                lines.push(format!(
                    "{id:<50} base {base_ns:>12}ns  MISSING from measurement"
                ));
            }
        }
    }
    for id in measured.keys() {
        if !baseline.contains_key(id) {
            lines.push(format!("{id:<50} new kernel (not in baseline; not gated)"));
        }
    }
    (lines, ok)
}

fn usage() -> String {
    "usage: bench_diff <check|update> --measured <file> --baseline <file> [--threshold X]"
        .to_string()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().ok_or_else(usage)?.clone();
    let mut measured_path = None;
    let mut baseline_path = None;
    let mut threshold = 2.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--measured" => {
                measured_path = Some(args.get(i + 1).ok_or_else(usage)?.clone());
                i += 2;
            }
            "--baseline" => {
                baseline_path = Some(args.get(i + 1).ok_or_else(usage)?.clone());
                i += 2;
            }
            "--threshold" => {
                threshold = args
                    .get(i + 1)
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let measured_path = measured_path.ok_or_else(usage)?;
    let baseline_path = baseline_path.ok_or_else(usage)?;
    let measured = parse_entries(
        &std::fs::read_to_string(&measured_path)
            .map_err(|e| format!("reading {measured_path}: {e}"))?,
    )?;

    match cmd.as_str() {
        "update" => {
            std::fs::write(&baseline_path, render_baseline(&measured))
                .map_err(|e| format!("writing {baseline_path}: {e}"))?;
            println!("wrote {} entries to {baseline_path}", measured.len());
            Ok(())
        }
        "check" => {
            let baseline = parse_entries(
                &std::fs::read_to_string(&baseline_path)
                    .map_err(|e| format!("reading {baseline_path}: {e}"))?,
            )?;
            let (lines, ok) = diff(&baseline, &measured, threshold);
            for line in &lines {
                println!("{line}");
            }
            if ok {
                println!("\nbench gate passed ({}x threshold)", threshold);
                Ok(())
            } else {
                Err(format!(
                    "bench gate FAILED: at least one kernel exceeded {threshold}x the baseline \
                     (or went missing). If the regression is expected, refresh the baseline with \
                     `bench_diff update` or apply the `perf-regression-ok` PR label to skip the \
                     gate."
                ))
            }
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_json_lines_and_arrays() {
        let lines = "{\"id\":\"a/b\",\"median_ns\":120}\n{\"id\":\"c/d\",\"median_ns\":7}\n";
        let arr =
            "[\n  {\"id\":\"a/b\",\"median_ns\":120},\n  {\"id\":\"c/d\",\"median_ns\":7}\n]\n";
        let a = parse_entries(lines).unwrap();
        let b = parse_entries(arr).unwrap();
        assert_eq!(a, b);
        assert_eq!(a["a/b"], 120);
        assert_eq!(a["c/d"], 7);
    }

    #[test]
    fn duplicate_ids_keep_the_latest() {
        // The shim appends; a reused capture file must not let a stale
        // earlier (faster) line mask the newest measurement.
        let text = "{\"id\":\"k\",\"median_ns\":40}\n{\"id\":\"k\",\"median_ns\":90}\n";
        assert_eq!(parse_entries(text).unwrap()["k"], 90);
    }

    #[test]
    fn missing_key_is_an_error() {
        assert!(parse_entries("{\"id\":\"x\"}").is_err());
        assert!(parse_entries("{\"median_ns\":1}").is_err());
    }

    #[test]
    fn diff_passes_within_threshold() {
        let base = parse_entries("{\"id\":\"k\",\"median_ns\":100}").unwrap();
        let meas = parse_entries("{\"id\":\"k\",\"median_ns\":199}").unwrap();
        let (_, ok) = diff(&base, &meas, 2.0);
        assert!(ok);
    }

    #[test]
    fn diff_fails_beyond_threshold() {
        let base = parse_entries("{\"id\":\"k\",\"median_ns\":100}").unwrap();
        let meas = parse_entries("{\"id\":\"k\",\"median_ns\":201}").unwrap();
        let (lines, ok) = diff(&base, &meas, 2.0);
        assert!(!ok);
        assert!(lines[1].contains("REGRESSED"), "{lines:?}");
    }

    #[test]
    fn diff_fails_on_missing_kernel() {
        let base = parse_entries("{\"id\":\"gone\",\"median_ns\":100}").unwrap();
        let meas = Entries::new();
        let (lines, ok) = diff(&base, &meas, 2.0);
        assert!(!ok);
        assert!(lines[1].contains("MISSING"));
    }

    #[test]
    fn new_kernels_do_not_gate() {
        let base = Entries::new();
        let meas = parse_entries("{\"id\":\"fresh\",\"median_ns\":5}").unwrap();
        let (lines, ok) = diff(&base, &meas, 2.0);
        assert!(ok);
        assert!(lines[1].contains("not gated"));
    }

    /// Build matching baseline/measured entry sets where every kernel's
    /// measurement is `base × factors[i]`.
    fn scaled_pair(factors: &[f64]) -> (Entries, Entries) {
        let mut base = Entries::new();
        let mut meas = Entries::new();
        for (i, &f) in factors.iter().enumerate() {
            let b = 10_000u128;
            base.insert(format!("k{i}"), b);
            meas.insert(format!("k{i}"), (b as f64 * f) as u128);
        }
        (base, meas)
    }

    #[test]
    fn uniformly_slower_hardware_does_not_gate() {
        // All 10 kernels 3x slower — a slower runner, not a regression:
        // the median normalization absorbs it.
        let (base, meas) = scaled_pair(&[3.0; 10]);
        let (lines, ok) = diff(&base, &meas, 2.0);
        assert!(ok, "{lines:?}");
        assert!(lines[0].contains("3.00x"), "{}", lines[0]);
    }

    #[test]
    fn single_kernel_regression_gates_despite_slow_hardware() {
        // Same 3x-slower runner, but one kernel regressed 4x on top.
        let mut factors = [3.0; 10];
        factors[4] = 12.0;
        let (base, meas) = scaled_pair(&factors);
        let (lines, ok) = diff(&base, &meas, 2.0);
        assert!(!ok);
        let k4 = lines.iter().find(|l| l.starts_with("k4")).unwrap();
        assert!(k4.contains("REGRESSED"), "{k4}");
    }

    #[test]
    fn normalization_needs_enough_kernels() {
        // Below NORMALIZE_MIN_KERNELS raw ratios gate: 3 kernels all 3x
        // slower cannot be told apart from 3 real regressions.
        let (base, meas) = scaled_pair(&[3.0; 3]);
        let (_, ok) = diff(&base, &meas, 2.0);
        assert!(!ok);
    }

    #[test]
    fn baseline_roundtrips_through_render() {
        let meas =
            parse_entries("{\"id\":\"a\",\"median_ns\":12}\n{\"id\":\"b\",\"median_ns\":34}")
                .unwrap();
        let rendered = render_baseline(&meas);
        assert_eq!(parse_entries(&rendered).unwrap(), meas);
    }
}
