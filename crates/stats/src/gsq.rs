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

use crate::chi2::chi2_sf;
use crate::citest::{CiOutcome, DfRule};
use crate::contingency::ContingencyTable;

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
