//! Property-based tests for the statistics substrate.

use fastbn_stats::citest::run_ci_test;
use fastbn_stats::{
    chi2_cdf, chi2_sf, conditional_mutual_information, g2_statistic, g2_test, ln_gamma,
    regularized_gamma_p, regularized_gamma_q, x2_statistic, CiTestKind, ContingencyTable, DfRule,
    G2Decision,
};
use proptest::prelude::*;

/// Strategy: a random small contingency table with its observation list.
fn table_strategy() -> impl Strategy<Value = (ContingencyTable, usize)> {
    (2usize..5, 2usize..5, 1usize..5).prop_flat_map(|(rx, ry, nz)| {
        proptest::collection::vec((0..rx, 0..ry, 0..nz), 0..300).prop_map(move |obs| {
            let mut t = ContingencyTable::new(rx, ry, nz);
            for &(x, y, z) in &obs {
                t.add(x, y, z);
            }
            (t, obs.len())
        })
    })
}

/// Strategy: a sparse random table — random `rx` (1 makes X constant,
/// so df = 0), `ry`, `nz`, a few weighted cells, and (when `skip_odd`)
/// every odd Z-slice left empty.
fn sparse_table_strategy() -> impl Strategy<Value = ContingencyTable> {
    (1usize..6, 2usize..6, 1usize..9, any::<bool>()).prop_flat_map(|(rx, ry, nz, skip_odd)| {
        proptest::collection::vec((0..rx, 0..ry, 0..nz, 1u32..60), 0..40).prop_map(move |cells| {
            let mut t = ContingencyTable::new(rx, ry, nz);
            for &(x, y, z, w) in &cells {
                if !(skip_odd && z % 2 == 1) {
                    t.add_count(x, y, z, w);
                }
            }
            t
        })
    })
}

/// `n·ln n` for `0..=m` — what `Dataset::xlnx_table` holds.
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

/// Assert the fast decision equals the exact one of both G²-family kinds.
fn assert_decision_matches(t: &ContingencyTable, alpha: f64, rule: DfRule, table: &[f64]) {
    let fast = G2Decision::new(alpha, rule).independent(t, table);
    for kind in [CiTestKind::GSquared, CiTestKind::MutualInfo] {
        let exact = run_ci_test(t, kind, alpha, rule).independent;
        assert_eq!(fast, exact, "{kind:?} alpha={alpha} rule={rule:?}");
    }
}

const RULES: [DfRule; 2] = [DfRule::Classic, DfRule::Adjusted];

proptest! {
    /// The allocation-free decision equals the exact test's decision on
    /// random sparse tables, under both df rules, at valid and invalid
    /// significance levels, with a full `x ln x` table, one too short for
    /// the table's counts, and none.
    #[test]
    fn g2_decision_matches_exact_test(t in sparse_table_strategy()) {
        let full = xlnx(t.total());
        let short = xlnx(t.total() / 3);
        for rule in RULES {
            for alpha in [1e-6, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.0, 1.0, 1.5, -0.1, f64::NAN] {
                for table in [&full[..], &short, &[]] {
                    assert_decision_matches(&t, alpha, rule, table);
                }
            }
        }
    }

    /// The same equality with the statistic on the critical value: `alpha`
    /// is set to the table's own p-value, nudged by a few 1e-12 relative.
    #[test]
    fn g2_decision_matches_exact_test_on_the_critical_value(t in sparse_table_strategy()) {
        let table = xlnx(t.total());
        for rule in RULES {
            let exact = g2_test(&t, 0.05, rule);
            for k in -3i32..=3 {
                let alpha = exact.p_value * (1.0 + k as f64 * 1e-12);
                assert_decision_matches(&t, alpha, rule, &table);
            }
        }
    }
}

proptest! {
    #[test]
    fn gamma_p_q_sum_to_one(s in 0.1f64..200.0, x in 0.0f64..400.0) {
        let p = regularized_gamma_p(s, x);
        let q = regularized_gamma_q(s, x);
        prop_assert!((p + q - 1.0).abs() < 1e-10);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.05f64..150.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn chi2_cdf_is_a_cdf(df in 0.5f64..100.0, a in 0.0f64..50.0, b in 0.0f64..50.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(chi2_cdf(lo, df) <= chi2_cdf(hi, df) + 1e-12);
        prop_assert!(chi2_sf(lo, df) >= chi2_sf(hi, df) - 1e-12);
    }

    #[test]
    fn table_total_matches_observations((t, n) in table_strategy()) {
        prop_assert_eq!(t.total(), n as u64);
    }

    #[test]
    fn g2_and_x2_are_nonnegative((t, _n) in table_strategy()) {
        prop_assert!(g2_statistic(&t) >= -1e-9);
        prop_assert!(x2_statistic(&t) >= -1e-9);
        prop_assert!(conditional_mutual_information(&t) >= -1e-12);
    }

    #[test]
    fn marginals_sum_to_slice_total((t, _n) in table_strategy()) {
        let mut nx = vec![0u64; t.rx()];
        let mut ny = vec![0u64; t.ry()];
        let mut grand = 0u64;
        for z in 0..t.nz() {
            let nzz = t.slice_marginals(z, &mut nx, &mut ny);
            prop_assert_eq!(nx.iter().sum::<u64>(), nzz);
            prop_assert_eq!(ny.iter().sum::<u64>(), nzz);
            grand += nzz;
        }
        prop_assert_eq!(grand, t.total());
    }

    /// Pooling X categories can never *increase* G² (data-processing
    /// inequality on the likelihood-ratio statistic within a slice).
    /// We check the weaker, always-true invariant that the pooled table's MI
    /// is bounded by ln(min(rx, ry)).
    #[test]
    fn mi_bounded_by_log_cardinality((t, n) in table_strategy()) {
        prop_assume!(n > 0);
        let bound = (t.rx().min(t.ry()) as f64).ln() + 1e-12;
        prop_assert!(conditional_mutual_information(&t) <= bound);
    }
}
