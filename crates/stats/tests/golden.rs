//! Golden-value tests for the G² and Pearson X² statistics, degrees of
//! freedom and χ² p-values, checked against precomputed references.
//!
//! Reference values were computed independently with mpmath at 50 decimal
//! digits (regularized incomplete gamma for the p-values; exact rational
//! arithmetic for marginals/expected counts), so these tests pin the
//! numerical behaviour of the whole CI-test stack — any regression in
//! `special::ln_gamma`, `regularized_gamma_{p,q}`, `chi2_{cdf,sf}`,
//! `g2_statistic` or `x2_statistic` shows up as a drift beyond 1e-9.

// Golden literals carry every digit the reference computation printed,
// one or two past f64 precision.
#![allow(clippy::excessive_precision)]

use fastbn_stats::{
    chi2_cdf, chi2_critical_value, chi2_sf, g2_statistic, g2_test, x2_statistic, x2_test,
    ContingencyTable, DfRule,
};

/// Assert `got` is within 1e-9 of `want`, absolutely or relatively
/// (relative for the extreme tails where 1e-9 absolute is vacuous).
fn assert_golden(got: f64, want: f64, what: &str) {
    let abs = (got - want).abs();
    let rel = abs / want.abs().max(f64::MIN_POSITIVE);
    assert!(
        abs <= 1e-9 || rel <= 1e-9,
        "{what}: got {got:e}, want {want:e} (abs err {abs:e}, rel err {rel:e})"
    );
}

/// Build a table from per-z matrices `counts[z][x][y]`.
fn table(counts: &[&[&[u32]]]) -> ContingencyTable {
    let nz = counts.len();
    let rx = counts[0].len();
    let ry = counts[0][0].len();
    let mut t = ContingencyTable::new(rx, ry, nz);
    for (z, slice) in counts.iter().enumerate() {
        for (x, row) in slice.iter().enumerate() {
            for (y, &c) in row.iter().enumerate() {
                for _ in 0..c {
                    t.add(x, y, z);
                }
            }
        }
    }
    t
}

#[test]
fn marginal_2x2_statistics_and_pvalues() {
    // [[10, 20], [30, 40]]: N = 100, E = [[12, 18], [28, 42]].
    let t = table(&[&[&[10, 20], &[30, 40]]]);
    assert_golden(g2_statistic(&t), 0.804_348_646_096_486_37, "g2");
    assert_golden(x2_statistic(&t), 0.793_650_793_650_793_65, "x2");
    let g = g2_test(&t, 0.05, DfRule::Classic);
    assert_eq!(g.df, 1.0);
    assert_golden(g.p_value, 0.369_796_367_929_895_47, "g2 p");
    assert!(g.independent);
    let x = x2_test(&t, 0.05, DfRule::Classic);
    assert_golden(x.p_value, 0.372_998_483_613_487_12, "x2 p");
    assert!(x.independent);
}

#[test]
fn strongly_dependent_2x2_tail_pvalues() {
    // [[100, 3], [5, 120]] — a deep tail; checks the continued-fraction
    // branch of the regularized incomplete gamma at relative precision.
    let t = table(&[&[&[100, 3], &[5, 120]]]);
    assert_golden(g2_statistic(&t), 245.538_084_269_309_1, "g2");
    assert_golden(x2_statistic(&t), 196.956_027_197_997_36, "x2");
    let g = g2_test(&t, 0.05, DfRule::Classic);
    assert_golden(g.p_value, 2.439_001_085_584_941_2e-55, "g2 p");
    assert!(!g.independent);
    let x = x2_test(&t, 0.05, DfRule::Classic);
    assert_golden(x.p_value, 9.640_949_507_781_129_1e-45, "x2 p");
    assert!(!x.independent);
}

#[test]
fn rectangular_table_with_zero_cell() {
    // 3×2 with one empty cell: zero-observed cells contribute 0 to G² but
    // their expectation still contributes to X².
    let t = table(&[&[&[12, 5], &[0, 7], &[9, 9]]]);
    assert_golden(g2_statistic(&t), 12.673_949_688_219_039, "g2");
    assert_golden(x2_statistic(&t), 9.882_352_941_176_470_6, "x2");
    let g = g2_test(&t, 0.05, DfRule::Classic);
    assert_eq!(g.df, 2.0);
    assert_golden(g.p_value, 1.769_647_607_351_693_1e-3, "g2 p");
    assert!(!g.independent);
    let x = x2_test(&t, 0.05, DfRule::Classic);
    assert_golden(x.p_value, 7.146_186_147_096_960_8e-3, "x2 p");
}

#[test]
fn conditional_2x2x2_sums_slice_statistics() {
    let t = table(&[&[&[20, 5], &[4, 21]], &[&[6, 18], &[17, 3]]]);
    assert_golden(g2_statistic(&t), 39.236_642_575_759_504, "g2");
    assert_golden(x2_statistic(&t), 36.254_435_419_652_811, "x2");
    let g = g2_test(&t, 0.05, DfRule::Classic);
    assert_eq!(g.df, 2.0);
    assert_golden(g.p_value, 3.019_057_054_633_486_5e-9, "g2 p");
    let x = x2_test(&t, 0.05, DfRule::Classic);
    assert_golden(x.p_value, 1.341_063_604_905_600_1e-8, "x2 p");
}

#[test]
fn adjusted_df_skips_empty_slices_and_rows() {
    // 3×3×2: slice z=1 entirely empty, slice z=0 has an empty X row.
    // Classic df: (3−1)(3−1)·2 = 8. Adjusted: (2−1)(3−1) = 2 from the one
    // populated slice.
    let t = table(&[
        &[&[8, 1, 3], &[0, 0, 0], &[2, 9, 5]],
        &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]],
    ]);
    assert_golden(g2_statistic(&t), 11.148_134_114_105_977, "g2");
    assert_golden(x2_statistic(&t), 10.135_416_666_666_667, "x2");

    let g_classic = g2_test(&t, 0.05, DfRule::Classic);
    assert_eq!(g_classic.df, 8.0);
    assert_golden(g_classic.p_value, 0.193_446_170_728_165_58, "g2 p classic");
    assert!(g_classic.independent);

    let g_adj = g2_test(&t, 0.05, DfRule::Adjusted);
    assert_eq!(g_adj.df, 2.0);
    assert_golden(g_adj.p_value, 3.795_014_463_082_061_7e-3, "g2 p adjusted");
    assert!(!g_adj.independent, "adjusted df flips the decision");

    let x_adj = x2_test(&t, 0.05, DfRule::Adjusted);
    assert_golden(x_adj.p_value, 6.296_833_863_039_098e-3, "x2 p adjusted");
}

#[test]
fn chi2_distribution_golden_points() {
    // (x, df, sf, cdf) — spans both branches of the incomplete gamma
    // (series for x < s+1, continued fraction beyond) and fractional df.
    let cases: &[(f64, f64, f64, f64)] = &[
        (
            3.841_458_820_694_124,
            1.0,
            0.050_000_000_000_000_057,
            0.949_999_999_999_999_94,
        ),
        (0.5, 1.0, 0.479_500_122_186_953_46, 0.520_499_877_813_046_54),
        (
            10.0,
            4.0,
            0.040_427_681_994_512_803,
            0.959_572_318_005_487_2,
        ),
        (
            25.3,
            7.5,
            9.724_011_859_678_298_3e-4,
            0.999_027_598_814_032_17,
        ),
        (100.0, 3.0, 1.554_159_431_389_604_9e-21, 1.0),
        (1.2, 2.0, 0.548_811_636_094_026_44, 0.451_188_363_905_973_56),
        (
            42.0,
            30.0,
            0.071_573_728_458_188_556,
            0.928_426_271_541_811_44,
        ),
    ];
    for &(x, df, sf, cdf) in cases {
        assert_golden(chi2_sf(x, df), sf, &format!("sf({x}, {df})"));
        assert_golden(chi2_cdf(x, df), cdf, &format!("cdf({x}, {df})"));
    }
}

#[test]
fn critical_value_inverts_survival_function() {
    for &(alpha, df) in &[(0.05, 1.0), (0.05, 4.0), (0.01, 2.0), (0.001, 10.0)] {
        let x = chi2_critical_value(alpha, df);
        // The bisection stops at 1e-10 relative width, so the round-trip
        // through sf is good to ~1e-9 in alpha.
        assert_golden(chi2_sf(x, df), alpha, &format!("sf(crit({alpha}, {df}))"));
    }
}
