//! The G² likelihood-ratio test of (conditional) independence.
//!
//! For discrete variables the paper (§III-B) uses
//!
//! ```text
//! G² = 2 Σ_{x,y,z} N_xyz · ln( N_xyz / E_xyz ),   E_xyz = N_x+z N_+yz / N_++z
//! ```
//!
//! which is asymptotically χ²-distributed with
//! `(|X|−1)(|Y|−1)·∏|Z_k|` degrees of freedom. The independence hypothesis
//! `I(X, Y | Z)` is accepted iff `p-value > α`.
//!
//! # Deciding without a p-value
//!
//! [`g2_test`] is the exact path: statistic, df, `chi2_sf` p-value. The
//! skeleton phase reads only the accept/reject bit, so [`G2Decision`]
//! returns that bit without evaluating a p-value:
//!
//! 1. One pass per Z-slice computes G² in the decomposed form
//!    `2·[Σ f(N_xyz) − Σ f(N_x+z) − Σ f(N_+yz) + Σ f(N_++z)]` with
//!    `f(n) = n·ln n` read from a table over the dataset's counts
//!    (`Dataset::xlnx_table`), so a test costs table lookups instead of
//!    one `ln` per cell, and the marginals live in reusable scratch.
//!    Under [`DfRule::Adjusted`] the same pass counts the non-zero
//!    marginals for the df.
//! 2. The critical value `chi2_critical_value(α, df)` is cached per
//!    distinct df.
//! 3. The decision is `G² < critical value`.
//!
//! The fast decision equals `g2_test(..).independent` bit for bit
//! because it hands every close call to `g2_test`. It falls back when
//! `|G² − crit| ≤ 1e-6·max(crit, 1) + 1e-9·2·Σ|terms|`, a band that
//! covers three roundings:
//!
//! * **the decomposed sum** — its terms are non-negative and large, their
//!   difference small; each rounding is at most a few ulps of a term, so
//!   the cancellation error is far below `1e-9` of `2·Σ|terms|` for any
//!   table with fewer than ~10⁶ non-zero counts per term;
//! * **the exact statistic** — each `N·ln(N/E)` term carries an absolute
//!   error of a few ulps of `N`, and slices with a single sample
//!   contribute exactly zero on both paths; every other slice has
//!   `N_++z ≥ 2`, so `Σ N ≤ Σ f(N_++z)/ln 2` and this error is also
//!   inside the `Σ|terms|` allowance;
//! * **the bisected critical value** — bisection stops once its bracket
//!   `[lo, hi]`, with `chi2_sf(lo) > α ≥ chi2_sf(hi)`, is narrower than
//!   `1e-10·max(hi, 1)`, far inside `1e-6·max(crit, 1)`. A statistic
//!   below `lo` is therefore accepted by the exact test and one above
//!   `hi` rejected; the relative slack also absorbs the ~1e-15 relative
//!   error of `chi2_sf` itself.
//!
//! `df = 0` (a constant variable, or no slice with mass under the
//! adjusted rule) gives `p = 1`, so the decision is "independent"
//! without a statistic, as in `g2_test`. An `α` outside `(0, 1)` always
//! takes the exact path (there is no critical value to cache).
//!
//! The decision path computes nothing the golden values pin: `g2_test`,
//! `g2_statistic` and the χ² functions are unchanged, and the fast path
//! only chooses when to skip them.

use crate::chi2::{chi2_critical_value, chi2_sf};
use crate::citest::{CiOutcome, DfRule};
use crate::contingency::ContingencyTable;
use std::collections::HashMap;

/// Compute the raw G² statistic of a filled contingency table.
///
/// Cells with `N_xyz = 0` contribute zero (the `x ln x → 0` limit); slices
/// with `N_++z = 0` are skipped entirely.
pub fn g2_statistic(table: &ContingencyTable) -> f64 {
    let rx = table.rx();
    let ry = table.ry();
    let mut nx = vec![0u64; rx];
    let mut ny = vec![0u64; ry];
    let mut g2 = 0.0f64;
    for z in 0..table.nz() {
        let nzz = table.slice_marginals(z, &mut nx, &mut ny);
        if nzz == 0 {
            continue;
        }
        let slice = table.z_slice(z);
        let nzz_f = nzz as f64;
        for x in 0..rx {
            if nx[x] == 0 {
                continue;
            }
            let row = &slice[x * ry..(x + 1) * ry];
            let nxf = nx[x] as f64;
            for (y, &c) in row.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let observed = c as f64;
                let expected = nxf * ny[y] as f64 / nzz_f;
                g2 += observed * (observed / expected).ln();
            }
        }
    }
    2.0 * g2
}

/// Degrees of freedom of the test, under the chosen [`DfRule`].
///
/// * `Classic`: `(rx−1)(ry−1)·nz` — what the paper and pcalg use.
/// * `Adjusted`: per-slice `(nonzero X marginals − 1)(nonzero Y marginals − 1)`
///   summed over slices with mass — bnlearn's small-sample correction.
pub fn g2_degrees_of_freedom(table: &ContingencyTable, rule: DfRule) -> f64 {
    match rule {
        DfRule::Classic => ((table.rx() - 1) * (table.ry() - 1)) as f64 * table.nz() as f64,
        DfRule::Adjusted => {
            let mut nx = vec![0u64; table.rx()];
            let mut ny = vec![0u64; table.ry()];
            let mut df = 0.0;
            for z in 0..table.nz() {
                let nzz = table.slice_marginals(z, &mut nx, &mut ny);
                if nzz == 0 {
                    continue;
                }
                let ex = nx.iter().filter(|&&v| v > 0).count().saturating_sub(1);
                let ey = ny.iter().filter(|&&v| v > 0).count().saturating_sub(1);
                df += (ex * ey) as f64;
            }
            df
        }
    }
}

/// Full G² independence test: statistic, degrees of freedom, p-value and the
/// accept/reject decision at significance level `alpha`.
///
/// A degenerate table (`df ≤ 0`, e.g. a constant variable or an empty
/// conditioning slice set) yields `p = 1` — the hypothesis of independence
/// cannot be rejected without evidence, matching bnlearn's behaviour.
pub fn g2_test(table: &ContingencyTable, alpha: f64, rule: DfRule) -> CiOutcome {
    let stat = g2_statistic(table);
    let df = g2_degrees_of_freedom(table, rule);
    let p_value = if df <= 0.0 { 1.0 } else { chi2_sf(stat, df) };
    CiOutcome {
        statistic: stat,
        df,
        p_value,
        independent: p_value > alpha,
    }
}

/// Relative guard band around the critical value (see the module docs).
const CRIT_BAND: f64 = 1e-6;
/// Guard band on the decomposed sum, relative to `2·Σ|terms|`.
const SUM_BAND: f64 = 1e-9;

/// The allocation-free G² accept/reject decision: returns exactly
/// `g2_test(table, alpha, rule).independent` without computing a p-value
/// (see the module docs for the method and the guard band).
///
/// One instance belongs to one thread's CI engine: it owns the marginal
/// scratch and the per-df critical values, and reads the shared
/// `x·ln x` table it is handed on every call.
#[derive(Clone, Debug)]
pub struct G2Decision {
    alpha: f64,
    rule: DfRule,
    /// `N_+yz` of the current slice.
    ny: Vec<u64>,
    /// `chi2_critical_value(alpha, df)` per df seen so far.
    crit: HashMap<u64, f64>,
    exact_fallbacks: u64,
}

impl G2Decision {
    /// A decision at significance level `alpha` under `rule`.
    pub fn new(alpha: f64, rule: DfRule) -> Self {
        Self {
            alpha,
            rule,
            ny: Vec::new(),
            crit: HashMap::new(),
            exact_fallbacks: 0,
        }
    }

    /// Decisions handed to [`g2_test`] because the statistic fell inside
    /// the guard band.
    pub fn exact_fallbacks(&self) -> u64 {
        self.exact_fallbacks
    }

    /// Whether `table` supports independence — `g2_test(table, alpha,
    /// rule).independent`. `xlnx[n]` must be `n·ln n`; counts beyond its
    /// end are computed directly.
    pub fn independent(&mut self, table: &ContingencyTable, xlnx: &[f64]) -> bool {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return g2_test(table, self.alpha, self.rule).independent;
        }
        let f = |n: u64| match xlnx.get(n as usize) {
            Some(&v) => v,
            None if n == 0 => 0.0,
            None => n as f64 * (n as f64).ln(),
        };
        let (rx, ry) = (table.rx(), table.ry());
        self.ny.resize(ry, 0);
        // `pos` sums the cell and slice terms, `neg` the row and column
        // marginal terms: G² = 2·(pos − neg).
        let (mut pos, mut neg) = (0.0f64, 0.0f64);
        let mut adjusted_df = 0u64;
        for z in 0..table.nz() {
            let slice = table.z_slice(z);
            self.ny.fill(0);
            let (mut nzz, mut x_nonzero) = (0u64, 0u64);
            for row in slice.chunks_exact(ry) {
                let mut nx = 0u64;
                for (ny, &c) in self.ny.iter_mut().zip(row) {
                    nx += c as u64;
                    *ny += c as u64;
                    pos += f(c as u64);
                }
                neg += f(nx);
                nzz += nx;
                x_nonzero += (nx > 0) as u64;
            }
            if nzz == 0 {
                continue;
            }
            pos += f(nzz);
            let mut y_nonzero = 0u64;
            for &ny in &self.ny {
                neg += f(ny);
                y_nonzero += (ny > 0) as u64;
            }
            adjusted_df += (x_nonzero - 1) * (y_nonzero - 1);
        }
        let df = match self.rule {
            DfRule::Classic => ((rx - 1) * (ry - 1) * table.nz()) as u64,
            DfRule::Adjusted => adjusted_df,
        };
        if df == 0 {
            return true;
        }
        let stat = 2.0 * (pos - neg);
        let alpha = self.alpha;
        let crit = *self
            .crit
            .entry(df)
            .or_insert_with(|| chi2_critical_value(alpha, df as f64));
        if (stat - crit).abs() <= CRIT_BAND * crit.max(1.0) + SUM_BAND * 2.0 * (pos + neg) {
            self.exact_fallbacks += 1;
            return g2_test(table, self.alpha, self.rule).independent;
        }
        stat < crit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill a 2×2 marginal table from four cell counts.
    fn table_2x2(n00: u32, n01: u32, n10: u32, n11: u32) -> ContingencyTable {
        let mut t = ContingencyTable::new(2, 2, 1);
        for _ in 0..n00 {
            t.add(0, 0, 0);
        }
        for _ in 0..n01 {
            t.add(0, 1, 0);
        }
        for _ in 0..n10 {
            t.add(1, 0, 0);
        }
        for _ in 0..n11 {
            t.add(1, 1, 0);
        }
        t
    }

    #[test]
    fn perfectly_independent_table_has_zero_statistic() {
        // Counts exactly proportional to the product of marginals.
        let t = table_2x2(40, 60, 20, 30); // rows 100/50, cols 60/90 ⇒ E = N
        let g2 = g2_statistic(&t);
        assert!(g2.abs() < 1e-9, "G² = {g2}");
        let out = g2_test(&t, 0.05, DfRule::Classic);
        assert!(out.independent);
        assert!((out.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strongly_dependent_table_rejected() {
        let t = table_2x2(100, 0, 0, 100);
        let out = g2_test(&t, 0.05, DfRule::Classic);
        assert!(!out.independent);
        assert!(out.p_value < 1e-10);
        // For a perfect diagonal, G² = 2N ln 2.
        let expected = 2.0 * 200.0 * std::f64::consts::LN_2;
        assert!((out.statistic - expected).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_statistic() {
        // 2×2 table [[10, 20], [30, 40]]: N=100,
        // E = [[12, 18], [28, 42]].
        let t = table_2x2(10, 20, 30, 40);
        let expected = 2.0
            * (10.0 * (10.0f64 / 12.0).ln()
                + 20.0 * (20.0f64 / 18.0).ln()
                + 30.0 * (30.0f64 / 28.0).ln()
                + 40.0 * (40.0f64 / 42.0).ln());
        assert!((g2_statistic(&t) - expected).abs() < 1e-12);
    }

    #[test]
    fn statistic_is_symmetric_in_x_and_y() {
        let mut a = ContingencyTable::new(2, 3, 2);
        let mut b = ContingencyTable::new(3, 2, 2);
        let obs = [
            (0, 0, 0),
            (0, 2, 0),
            (1, 1, 0),
            (1, 2, 1),
            (0, 1, 1),
            (1, 0, 1),
        ];
        for &(x, y, z) in &obs {
            a.add(x, y, z);
            b.add(y, x, z);
        }
        assert!((g2_statistic(&a) - g2_statistic(&b)).abs() < 1e-12);
        assert_eq!(
            g2_degrees_of_freedom(&a, DfRule::Classic),
            g2_degrees_of_freedom(&b, DfRule::Classic)
        );
    }

    #[test]
    fn conditional_independence_detected() {
        // X and Y both copy Z ⇒ dependent marginally, independent given Z.
        let mut marginal = ContingencyTable::new(2, 2, 1);
        let mut conditional = ContingencyTable::new(2, 2, 2);
        for _ in 0..500 {
            for z in 0..2usize {
                // Noisy copies: 90% agreement with z.
                for (dx, dy, w) in [(0, 0, 81), (0, 1, 9), (1, 0, 9), (1, 1, 1)] {
                    let x = (z + dx) % 2;
                    let y = (z + dy) % 2;
                    for _ in 0..w {
                        marginal.add(x, y, 0);
                        conditional.add(x, y, z);
                    }
                }
            }
        }
        let m = g2_test(&marginal, 0.05, DfRule::Classic);
        let c = g2_test(&conditional, 0.05, DfRule::Classic);
        assert!(!m.independent, "marginal dependence must be detected");
        assert!(c.independent, "conditional independence must be accepted");
    }

    #[test]
    fn df_rules() {
        let mut t = ContingencyTable::new(3, 3, 4);
        t.add(0, 0, 0);
        t.add(1, 1, 0);
        // Classic df ignores emptiness: (3−1)(3−1)·4 = 16.
        assert_eq!(g2_degrees_of_freedom(&t, DfRule::Classic), 16.0);
        // Adjusted: only slice 0 has mass, with 2 nonzero x and y marginals
        // ⇒ (2−1)(2−1) = 1.
        assert_eq!(g2_degrees_of_freedom(&t, DfRule::Adjusted), 1.0);
    }

    /// `n·ln n` for `0..=m`.
    fn xlnx(m: u64) -> Vec<f64> {
        (0..=m)
            .map(|n| {
                if n == 0 {
                    0.0
                } else {
                    n as f64 * (n as f64).ln()
                }
            })
            .collect()
    }

    #[test]
    fn decision_on_the_critical_value_takes_the_exact_fallback() {
        let mut t3 = ContingencyTable::new(3, 3, 2);
        for (i, w) in [5, 9, 2, 7, 3, 8, 4, 6, 1, 2, 8, 3, 6, 5, 7, 9, 4, 3]
            .into_iter()
            .enumerate()
        {
            t3.add_count(i % 3, (i / 3) % 3, i / 9, w);
        }
        for (t, rule) in [
            (table_2x2(30, 20, 18, 31), DfRule::Classic),
            (t3.clone(), DfRule::Classic),
            (t3, DfRule::Adjusted),
        ] {
            let table = xlnx(t.total());
            let exact = g2_test(&t, 0.05, rule);
            assert!(
                exact.p_value > 1e-4 && exact.p_value < 0.9,
                "p = {}",
                exact.p_value
            );
            for k in [-3.0, -1.0, 0.0, 1.0, 3.0] {
                let alpha = exact.p_value * (1.0 + k * 1e-12);
                let mut decision = G2Decision::new(alpha, rule);
                let fast = decision.independent(&t, &table);
                assert_eq!(fast, g2_test(&t, alpha, rule).independent, "k = {k}");
                assert_eq!(decision.exact_fallbacks(), 1, "k = {k}");
            }
            // Far from the critical value the decision needs no fallback.
            let mut decision = G2Decision::new(0.05, rule);
            assert_eq!(decision.independent(&t, &table), exact.independent);
            assert_eq!(decision.exact_fallbacks(), 0);
        }
    }

    #[test]
    fn empty_table_is_independent() {
        let t = ContingencyTable::new(2, 2, 1);
        let out = g2_test(&t, 0.05, DfRule::Adjusted);
        assert!(out.independent);
        assert_eq!(out.statistic, 0.0);
    }

    #[test]
    fn false_positive_rate_near_alpha() {
        // Under H0 (independent uniform X, Y), the rejection rate at level α
        // should be ≈ α. Deterministic LCG so the test is reproducible.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let trials = 400;
        let mut rejections = 0;
        for _ in 0..trials {
            let mut t = ContingencyTable::new(2, 2, 1);
            for _ in 0..400 {
                let x = next() % 2;
                let y = next() % 2;
                t.add(x, y, 0);
            }
            if !g2_test(&t, 0.05, DfRule::Classic).independent {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(
            rate < 0.12,
            "false positive rate {rate} too far above α=0.05"
        );
    }
}
