//! Summary statistics of timing samples, and failure counting.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a guess.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for even lengths),
/// or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`), or `None` unless
/// at least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
    let sorted = sorted(xs);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median over consecutive windows of `window` samples of each
/// window's [`percentile`]; a trailing partial window is left out. `None`
/// when no window holds enough samples for the percentile.
pub fn windowed_percentile(xs: &[f64], window: usize, q: f64) -> Option<f64> {
    let per_window: Vec<f64> = xs
        .chunks_exact(window)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&per_window)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed. A failure is an error reply, a `Busy`
/// rejection, a client error or an output that failed its correctness
/// check; each operation is recorded once, after its check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Record one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly 10 samples above it.
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // One sample fewer leaves only 9 beyond the p90 rank.
        assert_eq!(percentile(&xs[..99], 0.9), None);
        // p99 needs 1000 samples.
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.99), Some(990.0));
        assert_eq!(percentile(&ys[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.5), Some(100.0));
        assert_eq!(percentile(&xs, 0.9), Some(180.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        let window: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = window.iter().map(|x| x * 10.0).collect();
        // Two ordinary windows and one slowed by a burst, then a partial one.
        let xs = [&window[..], &slow, &window, &slow[..500]].concat();
        assert_eq!(windowed_percentile(&xs, 1000, 0.99), Some(990.0));
        // A window too short for p99 yields no value.
        assert_eq!(windowed_percentile(&xs, 999, 0.99), None);
        assert_eq!(windowed_percentile(&xs[..999], 1000, 0.99), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 1);
        assert_eq!(t.error_rate(), 0.25);
    }
}
