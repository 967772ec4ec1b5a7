//! Task partitioning: balanced contiguous ranges and sharding by owner key.
//!
//! Edge-level parallelism dedicates `|Ed|/t` edges to each thread and
//! sample-level parallelism dedicates `m/t` samples (paper §IV-A); both are
//! static splits of a contiguous index range ([`chunk_ranges`]). The
//! remainder is spread over the first `n mod k` chunks so chunk sizes
//! differ by at most one.
//!
//! A sharded work-stealing pool instead seeds per-worker deques with
//! [`shard_by_key`]: tasks are grouped by an *owner key* (for the score
//! search, a move's child — so all moves that re-score one child, which
//! share that child's data columns, land on one shard and stay cache-warm
//! there) and the key-groups are spread over shards by greedy
//! longest-processing-time placement on an estimated weight. Stealing then
//! only has to correct the residual imbalance the estimate missed.

use std::collections::HashMap;
use std::ops::Range;

/// Split `0..n` into `k` contiguous chunks whose sizes differ by ≤ 1.
/// Chunks may be empty when `n < k`. `k == 0` is promoted to 1.
pub fn chunk_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Shard `tasks` into `k` buckets by owner key, balancing estimated weight.
///
/// Tasks with equal `key` always land in the same shard, preserving their
/// relative order. Key-groups are placed largest-first
/// onto the currently lightest shard (LPT scheduling), with deterministic
/// tie-breaks (equal weights order by key, equal loads pick the lowest
/// shard index), so the same input always yields the same sharding
/// regardless of thread count or timing. `k == 0` is promoted to 1.
pub fn shard_by_key<T>(
    tasks: Vec<T>,
    k: usize,
    key: impl Fn(&T) -> usize,
    weight: impl Fn(&T) -> u64,
) -> Vec<Vec<T>> {
    let k = k.max(1);
    // Group by key, preserving intra-group order. The HashMap only maps
    // key → group index; group order is first-seen, so iteration below is
    // deterministic.
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<(usize, u64, Vec<T>)> = Vec::new();
    for task in tasks {
        let key_of = key(&task);
        let w = weight(&task).max(1); // zero-weight tasks still occupy a slot
        match index.get(&key_of) {
            Some(&g) => {
                groups[g].1 += w;
                groups[g].2.push(task);
            }
            None => {
                index.insert(key_of, groups.len());
                groups.push((key_of, w, vec![task]));
            }
        }
    }
    // Longest-processing-time placement: heaviest group first onto the
    // lightest shard. Sort is stable on (weight desc, key asc) — fully
    // deterministic.
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut shards: Vec<Vec<T>> = (0..k).map(|_| Vec::new()).collect();
    let mut loads = vec![0u64; k];
    for (_key, w, group) in groups {
        let lightest = (0..k).min_by_key(|&i| (loads[i], i)).unwrap();
        loads[lightest] += w;
        shards[lightest].extend(group);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_range_exactly() {
        for n in [0usize, 1, 7, 64, 1000, 1001] {
            for k in [1usize, 2, 3, 8, 17] {
                let chunks = chunk_ranges(n, k);
                assert_eq!(chunks.len(), k);
                let mut expected = 0;
                for c in &chunks {
                    assert_eq!(c.start, expected, "contiguous");
                    expected = c.end;
                }
                assert_eq!(expected, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        for n in [10usize, 99, 1000] {
            for k in [3usize, 7, 16] {
                let sizes: Vec<usize> = chunk_ranges(n, k).iter().map(|c| c.len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} k={k}: {sizes:?}");
            }
        }
    }

    #[test]
    fn more_chunks_than_items_yields_empties() {
        let chunks = chunk_ranges(2, 5);
        let nonempty = chunks.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 2);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 2);
    }

    #[test]
    fn zero_k_promoted() {
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn sharding_preserves_every_task_exactly_once() {
        let tasks: Vec<(usize, u64)> = (0..100).map(|i| (i % 13, 1 + (i as u64 % 5))).collect();
        let shards = shard_by_key(tasks.clone(), 4, |t| t.0, |t| t.1);
        assert_eq!(shards.len(), 4);
        let mut flat: Vec<(usize, u64)> = shards.iter().flatten().copied().collect();
        let mut expected = tasks;
        flat.sort();
        expected.sort();
        assert_eq!(flat, expected);
    }

    #[test]
    fn equal_keys_colocate() {
        let tasks: Vec<(usize, u64)> = (0..60).map(|i| (i % 6, 1)).collect();
        let shards = shard_by_key(tasks, 3, |t| t.0, |t| t.1);
        for key in 0..6 {
            let homes: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.iter().any(|t| t.0 == key))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(homes.len(), 1, "key {key} split across shards {homes:?}");
        }
    }

    #[test]
    fn sharding_is_deterministic() {
        let tasks: Vec<(usize, u64)> = (0..200)
            .map(|i| (i % 31, 1 + (i as u64 * 7) % 11))
            .collect();
        let a = shard_by_key(tasks.clone(), 8, |t| t.0, |t| t.1);
        let b = shard_by_key(tasks, 8, |t| t.0, |t| t.1);
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_groups_balance_within_one_unit() {
        // All keys distinct, all weights equal: LPT degenerates to
        // round-robin and shard sizes differ by ≤ 1.
        let tasks: Vec<(usize, u64)> = (0..103).map(|i| (i, 1)).collect();
        let shards = shard_by_key(tasks, 8, |t| t.0, |t| t.1);
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn heavy_group_does_not_attract_more_work() {
        // One group dominates: it must sit alone on its shard while the
        // light groups spread over the remaining shards.
        let mut tasks = vec![(0usize, 1000u64)];
        tasks.extend((1..9).map(|k| (k, 10u64)));
        let shards = shard_by_key(tasks, 4, |t| t.0, |t| t.1);
        let heavy_home = shards
            .iter()
            .position(|s| s.iter().any(|t| t.0 == 0))
            .unwrap();
        assert_eq!(
            shards[heavy_home].len(),
            1,
            "heavy group must not share its shard: {shards:?}"
        );
    }

    #[test]
    fn shard_zero_k_promoted() {
        let shards = shard_by_key(vec![(1usize, 1u64)], 0, |t| t.0, |t| t.1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], vec![(1, 1)]);
    }

    #[test]
    fn empty_task_list_yields_empty_shards() {
        let shards = shard_by_key(Vec::<(usize, u64)>::new(), 3, |t| t.0, |t| t.1);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.is_empty()));
    }
}
