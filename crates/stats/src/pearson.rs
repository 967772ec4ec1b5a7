//! Pearson's X² test of (conditional) independence.
//!
//! `X² = Σ (N_xyz − E_xyz)² / E_xyz` over cells with positive expectation,
//! asymptotically χ² with the same degrees of freedom as G². The paper's
//! related work lists the "Chi-square test" alongside G²; providing both lets
//! the learner be parameterized by test kind and lets tests cross-check the
//! two statistics (they agree asymptotically).

use crate::chi2::chi2_sf;
use crate::citest::{CiOutcome, DfRule};
use crate::contingency::ContingencyTable;
use crate::gsq::g2_degrees_of_freedom;

/// Compute the raw Pearson X² statistic of a filled contingency table.
pub fn x2_statistic(table: &ContingencyTable) -> f64 {
    let rx = table.rx();
    let ry = table.ry();
    let mut nx = vec![0u64; rx];
    let mut ny = vec![0u64; ry];
    let mut x2 = 0.0f64;
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
            let nxf = nx[x] as f64;
            let row = &slice[x * ry..(x + 1) * ry];
            for (y, &c) in row.iter().enumerate() {
                if ny[y] == 0 {
                    continue;
                }
                let expected = nxf * ny[y] as f64 / nzz_f;
                let diff = c as f64 - expected;
                x2 += diff * diff / expected;
            }
        }
    }
    x2
}

/// Full Pearson X² independence test (same decision contract as
/// [`crate::gsq::g2_test`]).
pub fn x2_test(table: &ContingencyTable, alpha: f64, rule: DfRule) -> CiOutcome {
    let stat = x2_statistic(table);
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
    use crate::gsq::g2_statistic;

    fn table_2x2(n00: u32, n01: u32, n10: u32, n11: u32) -> ContingencyTable {
        let mut t = ContingencyTable::new(2, 2, 1);
        for (count, x, y) in [(n00, 0, 0), (n01, 0, 1), (n10, 1, 0), (n11, 1, 1)] {
            for _ in 0..count {
                t.add(x, y, 0);
            }
        }
        t
    }

    #[test]
    fn independent_table_scores_zero() {
        let t = table_2x2(40, 60, 20, 30);
        assert!(x2_statistic(&t).abs() < 1e-9);
        assert!(x2_test(&t, 0.05, DfRule::Classic).independent);
    }

    #[test]
    fn hand_computed_2x2() {
        // [[10, 20], [30, 40]] ⇒ E = [[12, 18], [28, 42]]
        // X² = 4/12 + 4/18 + 4/28 + 4/42 = 0.7936...
        let t = table_2x2(10, 20, 30, 40);
        let expected = 4.0 / 12.0 + 4.0 / 18.0 + 4.0 / 28.0 + 4.0 / 42.0;
        assert!((x2_statistic(&t) - expected).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_g2_asymptotically() {
        // Mild dependence, large N: the two statistics should be close
        // (within a few percent) and lead to the same decision.
        let t = table_2x2(520, 480, 470, 530);
        let x2 = x2_statistic(&t);
        let g2 = g2_statistic(&t);
        assert!((x2 - g2).abs() / g2.max(1e-12) < 0.05, "x2={x2} g2={g2}");
        assert_eq!(
            x2_test(&t, 0.05, DfRule::Classic).independent,
            crate::gsq::g2_test(&t, 0.05, DfRule::Classic).independent
        );
    }

    #[test]
    fn strong_dependence_rejected() {
        let t = table_2x2(100, 0, 0, 100);
        let out = x2_test(&t, 0.01, DfRule::Classic);
        assert!(!out.independent);
        // Perfect diagonal 2×2: X² = N.
        assert!((out.statistic - 200.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_df_accepts() {
        // Constant X ⇒ adjusted df = 0 ⇒ p = 1.
        let mut t = ContingencyTable::new(2, 2, 1);
        for _ in 0..50 {
            t.add(0, 0, 0);
            t.add(0, 1, 0);
        }
        let out = x2_test(&t, 0.05, DfRule::Adjusted);
        assert!(out.independent);
        assert_eq!(out.p_value, 1.0);
    }
}
