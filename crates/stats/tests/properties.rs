//! Property-based tests for the statistics substrate.

use fastbn_stats::{
    chi2_cdf, chi2_sf, conditional_mutual_information, g2_statistic, ln_gamma, regularized_gamma_p,
    regularized_gamma_q, x2_statistic, ContingencyTable,
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
