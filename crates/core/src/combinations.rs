//! Lexicographic combination unranking (Buckles–Lybanon, ACM TOMS
//! Algorithm 515) — Fast-BNS optimization 4 (paper §IV-C3).
//!
//! Processing an edge at depth `d` enumerates all `C(p, d)` size-`d`
//! subsets of its candidate set. A naive implementation materializes that
//! list per edge; Fast-BNS instead stores only the progress index `r` and
//! computes the `r`-th subset *directly*, in lexicographic order, when a
//! thread resumes the edge — `unrank_combination(p, q, r)` here. The
//! candidate pools themselves live once per depth in the shared adjacency
//! snapshot (`skeleton::common::Adjacency`), so a work-pool entry is just
//! the edge and its progress index, and any thread can resume any edge.

/// Binomial coefficient `C(n, k)`, saturating at `u64::MAX`.
///
/// Saturation is safe for scheduling purposes: counts only gate loop
/// bounds, and a saturated bound can never be reached by per-test
/// increments in realistic time.
pub fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Compute the `rank`-th (0-based) `k`-subset of `0..p` in lexicographic
/// order, writing the element indices into `out` (cleared first).
///
/// # Panics
/// Panics if `rank >= C(p, k)`.
pub fn unrank_combination(p: usize, k: usize, rank: u64, out: &mut Vec<usize>) {
    out.clear();
    debug_assert!(
        rank < binomial(p, k),
        "rank {rank} out of range for C({p},{k})"
    );
    let mut r = rank;
    let mut x = 0usize;
    for i in 0..k {
        // Advance x until the block of combinations starting with x
        // contains r.
        loop {
            let block = binomial(p - 1 - x, k - 1 - i);
            if r < block {
                break;
            }
            r -= block;
            x += 1;
        }
        out.push(x);
        x += 1;
    }
}

/// Inverse of [`unrank_combination`]: the lexicographic rank of a strictly
/// increasing `k`-subset of `0..p`.
pub fn rank_combination(p: usize, combo: &[usize]) -> u64 {
    let k = combo.len();
    let mut rank = 0u64;
    let mut prev = 0usize; // first candidate value for this position
    for (i, &c) in combo.iter().enumerate() {
        debug_assert!(c < p);
        debug_assert!(i == 0 || c > combo[i - 1], "combination must be increasing");
        for x in prev..c {
            rank += binomial(p - 1 - x, k - 1 - i);
        }
        prev = c + 1;
    }
    rank
}

/// Iterator over all `k`-subsets of `0..p` in lexicographic order — the
/// *precomputed* strategy (used by the naive baseline and as the test
/// oracle for unranking).
pub fn all_combinations(p: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > p {
        return out;
    }
    let mut current: Vec<usize> = (0..k).collect();
    loop {
        out.push(current.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] != i + p - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        current[i] += 1;
        for j in i + 1..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 1), 10);
        assert_eq!(binomial(10, 2), 45);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(10, 11), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn binomial_saturates() {
        assert_eq!(binomial(500, 250), u64::MAX);
        // Largest exact: C(67, 33) < u64::MAX < C(68, 34).
        assert!(binomial(67, 33) < u64::MAX);
    }

    #[test]
    fn paper_example_counts() {
        // §IV-A: 2 adjacent nodes at depth 2 ⇒ C(2,2)=1; 10 ⇒ C(10,2)=45.
        assert_eq!(binomial(2, 2), 1);
        assert_eq!(binomial(10, 2), 45);
    }

    #[test]
    fn unrank_enumerates_lexicographically() {
        let (p, k) = (6, 3);
        let expected = all_combinations(p, k);
        assert_eq!(expected.len() as u64, binomial(p, k));
        let mut buf = Vec::new();
        for (r, want) in expected.iter().enumerate() {
            unrank_combination(p, k, r as u64, &mut buf);
            assert_eq!(&buf, want, "rank {r}");
        }
    }

    #[test]
    fn rank_unrank_roundtrip() {
        for (p, k) in [(5, 2), (8, 3), (10, 4), (12, 1), (7, 7)] {
            let total = binomial(p, k);
            let mut buf = Vec::new();
            for r in 0..total {
                unrank_combination(p, k, r, &mut buf);
                assert_eq!(buf.len(), k);
                assert!(buf.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                assert!(buf.iter().all(|&x| x < p));
                assert_eq!(rank_combination(p, &buf), r, "p={p} k={k}");
            }
        }
    }

    #[test]
    fn k_zero_is_the_empty_set() {
        let mut buf = vec![99];
        unrank_combination(5, 0, 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rank_combination(5, &[]), 0);
        assert_eq!(all_combinations(5, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_equals_p_single_combination() {
        let mut buf = Vec::new();
        unrank_combination(4, 4, 0, &mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_combinations_empty_when_k_exceeds_p() {
        assert!(all_combinations(3, 4).is_empty());
    }

    #[test]
    fn first_and_last_ranks() {
        let mut buf = Vec::new();
        unrank_combination(7, 3, 0, &mut buf);
        assert_eq!(buf, vec![0, 1, 2]);
        unrank_combination(7, 3, binomial(7, 3) - 1, &mut buf);
        assert_eq!(buf, vec![4, 5, 6]);
    }
}
