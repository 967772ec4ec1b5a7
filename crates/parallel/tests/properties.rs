//! Property-based tests for the parallel substrate: no task lost, no task
//! duplicated, under arbitrary task shapes and thread counts.

use fastbn_parallel::{
    chunk_ranges, run_steal_pool, shard_by_key, PerThread, StealPool, StepResult, Team,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pool_processes_every_step_exactly_once(
        sizes in proptest::collection::vec(1u32..20, 1..50),
        threads in 1usize..5,
    ) {
        let expected: u64 = sizes.iter().map(|&s| s as u64).sum();
        let tasks: Vec<(usize, u32)> = sizes.iter().copied().enumerate().collect();
        let n_tasks = tasks.len() as u64;
        // One shard: the CI-level scheduler's shared stack.
        let pool = StealPool::from_shards(vec![tasks]);
        let steps = AtomicU64::new(0);
        let dones = AtomicU64::new(0);
        Team::scoped(threads, |team| {
            run_steal_pool(team, &pool, |_tid, (id, rem)| {
                steps.fetch_add(1, Ordering::Relaxed);
                if rem == 1 {
                    dones.fetch_add(1, Ordering::Relaxed);
                    StepResult::Done
                } else {
                    StepResult::Continue((id, rem - 1))
                }
            });
        });
        prop_assert_eq!(steps.load(Ordering::SeqCst), expected);
        prop_assert_eq!(dones.load(Ordering::SeqCst), n_tasks);
        prop_assert!(pool.is_drained());
    }

    #[test]
    fn steal_pool_processes_every_step_exactly_once(
        sizes in proptest::collection::vec(1u32..20, 1..50),
        threads in 1usize..5,
        skew in 0usize..3,
    ) {
        // skew 0: balanced sharding by task id; skew 1: everything on one
        // shard (maximum stealing); skew 2: shard by id % 2 (partial skew).
        let expected: u64 = sizes.iter().map(|&s| s as u64).sum();
        let tasks: Vec<(usize, u32)> = sizes.iter().copied().enumerate().collect();
        let n_tasks = tasks.len() as u64;
        let shards = match skew {
            0 => shard_by_key(tasks, threads, |t| t.0, |t| t.1 as u64),
            1 => shard_by_key(tasks, threads, |_| 0, |t| t.1 as u64),
            _ => shard_by_key(tasks, threads, |t| t.0 % 2, |t| t.1 as u64),
        };
        let pool = StealPool::from_shards(shards);
        let steps = AtomicU64::new(0);
        let dones = AtomicU64::new(0);
        Team::scoped(threads, |team| {
            run_steal_pool(team, &pool, |_tid, (id, rem)| {
                steps.fetch_add(1, Ordering::Relaxed);
                if rem == 1 {
                    dones.fetch_add(1, Ordering::Relaxed);
                    StepResult::Done
                } else {
                    StepResult::Continue((id, rem - 1))
                }
            });
        });
        prop_assert_eq!(steps.load(Ordering::SeqCst), expected);
        prop_assert_eq!(dones.load(Ordering::SeqCst), n_tasks);
        prop_assert!(pool.is_drained());
    }

    #[test]
    fn sharding_partitions_tasks(
        keys in proptest::collection::vec(0usize..12, 0..80),
        k in 1usize..9,
    ) {
        let tasks: Vec<(usize, usize)> = keys.iter().copied().enumerate().collect();
        let shards = shard_by_key(tasks.clone(), k, |t| t.1, |_| 1);
        prop_assert_eq!(shards.len(), k);
        // Every task appears exactly once.
        let mut flat: Vec<(usize, usize)> = shards.iter().flatten().copied().collect();
        flat.sort();
        prop_assert_eq!(flat, tasks);
        // Equal keys colocate.
        for key in 0..12 {
            let homes = shards
                .iter()
                .filter(|s| s.iter().any(|t| t.1 == key))
                .count();
            prop_assert!(homes <= 1, "key {} on {} shards", key, homes);
        }
    }

    #[test]
    fn chunks_partition_any_range(n in 0usize..5000, k in 1usize..64) {
        let chunks = chunk_ranges(n, k);
        // Covering, contiguous, balanced.
        let mut next = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, next);
            next = c.end;
        }
        prop_assert_eq!(next, n);
        let min = chunks.iter().map(|c| c.len()).min().unwrap();
        let max = chunks.iter().map(|c| c.len()).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn per_thread_counters_merge_losslessly(
        increments in proptest::collection::vec(0u64..100, 1..8),
    ) {
        let n = increments.len();
        let counters: PerThread<u64> = PerThread::new(n);
        Team::scoped(n, |team| {
            team.broadcast(&|tid| {
                for _ in 0..increments[tid] {
                    counters.with(tid, |c| *c += 1);
                }
            });
        });
        let total = counters.fold(0, |a, b| a + b);
        prop_assert_eq!(total, increments.iter().sum::<u64>());
    }
}
