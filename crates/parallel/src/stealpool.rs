//! The dynamic work pool (paper §IV-B) and its sharded, work-stealing
//! generalization.
//!
//! A pool is a set of per-worker deques plus an in-flight counter. Workers
//! repeatedly *pop* a task, process its next group of work (e.g. `gs` CI
//! tests of an edge), and either *complete* it or *requeue* it with
//! updated progress. The pool is drained when every deque is empty **and**
//! no task is held by a worker — tracking in-flight tasks is what lets an
//! edge be popped, partially processed, and returned without another
//! thread prematurely concluding the depth is finished.
//!
//! With one shard this is exactly the paper's pool: a shared LIFO stack,
//! which keeps recently touched edges (and their data columns) warm in
//! cache. The CI-level skeleton scheduler pops from one shard but runs
//! every popped edge to completion, so it uses neither `requeue` nor the
//! drain wait: a worker that finds the stack empty is done. With several
//! shards each worker owns a deque, pushes and pops at its **back**
//! (LIFO), and only when its own deque runs dry does it **steal** from
//! the **front** of a victim's deque (FIFO, so the thief takes the oldest
//! task, the one least likely to be warm in the victim's cache). The
//! score search and the junction tree's parallel passes drive sharded
//! pools.
//!
//! The pop → process-group → requeue/complete protocol is the same at any
//! shard count, so [`run_steal_pool`] produces the same set of completed
//! steps regardless of shard count, thread count or steal interleaving.

use crate::team::Team;
use crossbeam::utils::CachePadded;
use fastbn_obs::counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sharded pool of tasks of type `T` with per-owner deques and stealing.
pub struct StealPool<T> {
    /// One deque per shard, cache-padded so two workers touching adjacent
    /// shards never share a line.
    shards: Box<[CachePadded<Mutex<VecDeque<T>>>]>,
    /// Tasks currently held by workers (popped but neither requeued nor
    /// completed).
    in_flight: AtomicUsize,
    /// Successful steals (diagnostic; relaxed).
    steals: AtomicUsize,
}

impl<T> StealPool<T> {
    /// An empty pool with `n_shards` deques (0 is promoted to 1).
    pub fn new(n_shards: usize) -> Self {
        Self::from_shards((0..n_shards.max(1)).map(|_| Vec::new()).collect())
    }

    /// A pool pre-loaded shard by shard — the per-depth initialization once
    /// the partitioner ([`crate::partition::shard_by_key`]) has assigned
    /// every edge task an owner.
    pub fn from_shards(shards: Vec<Vec<T>>) -> Self {
        let shards: Vec<CachePadded<Mutex<VecDeque<T>>>> = if shards.is_empty() {
            vec![CachePadded::new(Mutex::new(VecDeque::new()))]
        } else {
            shards
                .into_iter()
                .map(|s| CachePadded::new(Mutex::new(VecDeque::from(s))))
                .collect()
        };
        Self {
            shards: shards.into_boxed_slice(),
            in_flight: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Number of shards (≥ 1).
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total queued tasks across all shards (tasks not held by workers).
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Successful steals so far (monotonic, diagnostic only).
    pub fn steal_count(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Pop a task for worker `tid`: first the back of its own deque, then —
    /// if that is empty — the front of each victim in round-robin order
    /// starting after `tid`. The returned task is marked in-flight. `None`
    /// means every deque was observed empty (the pool may still not be
    /// [`StealPool::is_drained`] if another worker holds a task).
    pub fn pop(&self, tid: usize) -> Option<T> {
        let n = self.shards.len();
        let own = tid % n;
        // Mark in-flight *before* touching any deque so a concurrent
        // `is_drained` between our pop and our processing cannot observe
        // "empty and idle".
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        if let Some(task) = self.shards[own].lock().pop_back() {
            return Some(task);
        }
        for k in 1..n {
            let victim = (own + k) % n;
            if let Some(task) = self.shards[victim].lock().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                counter!("fastbn.parallel.steal.steals").inc();
                return Some(task);
            }
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        None
    }

    /// Return a partially processed task to worker `tid`'s own deque. The
    /// task stays in-flight accounting-wise until the push completes, so no
    /// drain window opens; it lands at the back, where `tid` will pop it
    /// next (cache-warm continuation) unless a thief gets there first.
    pub fn requeue(&self, tid: usize, task: T) {
        self.shards[tid % self.shards.len()].lock().push_back(task);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Mark a popped task as finished.
    pub fn complete_one(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// True when every deque is empty and no task is in flight.
    pub fn is_drained(&self) -> bool {
        // Read in_flight first: a task between pop and requeue keeps
        // in_flight > 0, so the subsequent emptiness check cannot race into
        // a false "drained".
        self.in_flight.load(Ordering::Acquire) == 0
            && self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// What a processing step decided about its task.
pub enum StepResult<T> {
    /// The task has more work; return it to the pool.
    Continue(T),
    /// The task is finished.
    Done,
}

/// Drive a pool to completion on `team`: every worker loops
/// pop-or-steal → `step` → requeue/complete until the pool drains.
///
/// `step(tid, task)` processes one group of work and decides the task's
/// fate. Worker `tid` drains its own deque LIFO and steals FIFO when idle;
/// on a one-shard pool with `gs`-test steps this is the paper's
/// CI-level scheduling loop as written, which the skeleton's own
/// scheduler replaces with run-to-completion edges.
pub fn run_steal_pool<T, F>(team: &Team<'_>, pool: &StealPool<T>, step: F)
where
    T: Send,
    F: Fn(usize, T) -> StepResult<T> + Sync,
{
    team.broadcast(&|tid| loop {
        match pool.pop(tid) {
            Some(task) => match step(tid, task) {
                StepResult::Continue(t) => pool.requeue(tid, t),
                StepResult::Done => pool.complete_one(),
            },
            None => {
                if pool.is_drained() {
                    return;
                }
                // Idle spin: nothing to pop or steal, but the pool is not
                // drained yet. Each yield is one counted idle beat — the
                // load-imbalance signal the steal scheduler exists to fix.
                counter!("fastbn.parallel.steal.idle_yields").inc();
                std::thread::yield_now();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn own_shard_is_lifo() {
        let pool = StealPool::from_shards(vec![vec![1, 2, 3], vec![10]]);
        assert_eq!(pool.n_shards(), 2);
        assert_eq!(pool.queued(), 4);
        assert_eq!(pool.pop(0), Some(3), "owner pops its own back");
        assert_eq!(pool.pop(0), Some(2));
        pool.complete_one();
        pool.complete_one();
    }

    #[test]
    fn empty_own_shard_steals_oldest_from_victim() {
        let pool = StealPool::from_shards(vec![vec![1, 2, 3], vec![]]);
        // Worker 1's deque is empty: it must steal shard 0's *front* (the
        // oldest task), not the back the owner is working from.
        assert_eq!(pool.pop(1), Some(1));
        assert_eq!(pool.steal_count(), 1);
        // The owner is unaffected at its end.
        assert_eq!(pool.pop(0), Some(3));
        assert_eq!(pool.steal_count(), 1, "owner pop is not a steal");
        pool.complete_one();
        pool.complete_one();
    }

    #[test]
    fn empty_steal_returns_none_without_leaking_in_flight() {
        let pool: StealPool<u32> = StealPool::new(4);
        assert!(pool.is_drained());
        for tid in 0..4 {
            assert_eq!(pool.pop(tid), None, "tid {tid}");
        }
        // A failed pop/steal sweep must not leave phantom in-flight tasks.
        assert!(pool.is_drained());
    }

    #[test]
    fn self_steal_is_impossible() {
        // A single-shard pool: the steal sweep has no victims, so a pop on
        // the empty deque returns None instead of double-popping itself.
        let pool = StealPool::from_shards(vec![vec![7u32]]);
        assert_eq!(pool.pop(0), Some(7));
        assert_eq!(pool.pop(0), None, "no victim to steal from");
        assert!(!pool.is_drained(), "task 7 is still in flight");
        pool.complete_one();
        assert!(pool.is_drained());
    }

    #[test]
    fn requeue_lands_on_own_shard() {
        let pool = StealPool::from_shards(vec![vec![], vec![1u32]]);
        let t = pool.pop(1).unwrap();
        pool.requeue(0, t); // worker 0 stole it and requeues to *its* deque
        assert_eq!(pool.pop(0), Some(1), "requeued task is local to worker 0");
        pool.complete_one();
        assert!(pool.is_drained());
    }

    #[test]
    fn in_flight_blocks_drain_until_completion() {
        let pool = StealPool::from_shards(vec![vec![1u32], vec![]]);
        let t = pool.pop(0).unwrap();
        assert_eq!(pool.queued(), 0);
        assert!(!pool.is_drained(), "held task blocks drain");
        pool.requeue(0, t);
        assert!(!pool.is_drained(), "requeued task blocks drain");
        let t = pool.pop(0).unwrap();
        let _ = t;
        pool.complete_one();
        assert!(pool.is_drained());
    }

    #[test]
    fn tid_out_of_range_wraps() {
        let pool = StealPool::from_shards(vec![vec![1u32], vec![2]]);
        // tid 5 on 2 shards owns shard 1.
        assert_eq!(pool.pop(5), Some(2));
        pool.complete_one();
    }

    /// Drive `tasks` of `(id, remaining_steps)` on `threads` workers; each
    /// step decrements. Returns (steps executed, tasks completed).
    fn drive(pool: &StealPool<(usize, u32)>, threads: usize) -> (u64, u64) {
        let steps = AtomicU64::new(0);
        let completions = AtomicU64::new(0);
        Team::scoped(threads, |team| {
            run_steal_pool(team, pool, |_tid, (id, remaining)| {
                steps.fetch_add(1, Ordering::Relaxed);
                if remaining == 1 {
                    completions.fetch_add(1, Ordering::Relaxed);
                    StepResult::Done
                } else {
                    StepResult::Continue((id, remaining - 1))
                }
            });
        });
        assert!(pool.is_drained());
        (steps.into_inner(), completions.into_inner())
    }

    #[test]
    fn every_unit_of_work_is_processed_exactly_once_with_stealing() {
        // Heavily skewed shards: shard 0 holds everything, three other
        // workers must live off steals. Total step executions must equal the
        // sum of task sizes and every task must complete exactly once.
        let tasks: Vec<(usize, u32)> = (0..64).map(|i| (i, 1 + (i as u32 * 7) % 13)).collect();
        let expected_steps: u64 = tasks.iter().map(|&(_, s)| s as u64).sum();
        let pool = StealPool::from_shards(vec![tasks, Vec::new(), Vec::new(), Vec::new()]);
        assert_eq!(drive(&pool, 4), (expected_steps, 64));
    }

    #[test]
    fn more_threads_than_shards_still_drains() {
        let tasks: Vec<(usize, u32)> = (0..20).map(|i| (i, 3u32)).collect();
        let pool = StealPool::from_shards(vec![tasks.clone(), tasks]);
        assert_eq!(drive(&pool, 5), (2 * 20 * 3, 40));
    }

    #[test]
    fn pool_basics() {
        // One shard is the paper's shared LIFO stack.
        let pool = StealPool::from_shards(vec![vec![1, 2, 3]]);
        assert_eq!(pool.queued(), 3);
        assert!(!pool.is_drained());
        let t = pool.pop(0).unwrap();
        assert_eq!(t, 3, "LIFO order");
        assert!(!pool.is_drained(), "in-flight task blocks drain");
        pool.requeue(0, t);
        assert_eq!(pool.queued(), 3);
        for _ in 0..3 {
            pool.pop(0).unwrap();
            pool.complete_one();
        }
        assert!(pool.pop(0).is_none());
        assert!(pool.is_drained());
    }

    #[test]
    fn completion_counting_balances_pops() {
        // complete_one must pair 1:1 with pops that are not requeued.
        let pool = StealPool::from_shards(vec![vec![1u32, 2, 3]]);
        let a = pool.pop(0).unwrap();
        let b = pool.pop(0).unwrap();
        pool.requeue(0, a);
        pool.complete_one(); // finishes b
        let _ = b;
        assert_eq!(pool.queued(), 2);
        assert!(!pool.is_drained());
        pool.pop(0).unwrap();
        pool.complete_one();
        pool.pop(0).unwrap();
        pool.complete_one();
        assert!(pool.pop(0).is_none());
        assert!(pool.is_drained());
    }

    #[test]
    fn every_unit_of_work_is_processed_exactly_once() {
        // One shared shard: total step executions must equal the sum of
        // initial steps, and each task must complete exactly once.
        let tasks: Vec<(usize, u32)> = (0..64).map(|i| (i, 1 + (i as u32 * 7) % 13)).collect();
        let expected_steps: u64 = tasks.iter().map(|&(_, s)| s as u64).sum();
        let pool = StealPool::from_shards(vec![tasks]);
        assert_eq!(drive(&pool, 4), (expected_steps, 64));
    }

    #[test]
    fn uneven_tasks_are_load_balanced() {
        // One huge task and many tiny ones with 2 threads: the huge task
        // must not serialize the tiny ones (they complete while it cycles).
        // Only total correctness is asserted; timing is the benches' job.
        let mut tasks = vec![(0usize, 200u32)];
        tasks.extend((1..40).map(|i| (i, 1u32)));
        let total: u64 = tasks.iter().map(|&(_, s)| s as u64).sum();
        let pool = StealPool::from_shards(vec![tasks]);
        assert_eq!(drive(&pool, 2), (total, 40));
    }

    #[test]
    fn empty_pool_drains_immediately() {
        let pool = StealPool::new(1);
        assert_eq!(drive(&pool, 3), (0, 0));
    }

    #[test]
    fn single_thread_drive_works() {
        let pool = StealPool::from_shards(vec![vec![(0usize, 5u32)]]);
        assert_eq!(drive(&pool, 1), (5, 1));
    }
}
