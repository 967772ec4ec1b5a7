//! Per-thread accumulator slots.
//!
//! Fast-BNS's headline claim includes "no atomic operations" on the hot
//! path; statistics (CI-test counts, removal tallies) are therefore
//! accumulated in per-thread slots — each on its own cache line to avoid
//! false sharing — and merged once after the parallel region joins.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

/// `n` independent, cache-padded slots of `T`, one per worker thread.
///
/// Workers access their own slot by thread id; the mutex is uncontended by
/// construction (only thread `tid` touches slot `tid` during a region) and
/// exists to make the aggregate `Sync` without `unsafe`.
pub struct PerThread<T> {
    slots: Vec<CachePadded<Mutex<T>>>,
}

impl<T: Default> PerThread<T> {
    /// Create `n` default-initialized slots.
    pub fn new(n: usize) -> Self {
        Self::from_fn(n, |_| T::default())
    }
}

impl<T> PerThread<T> {
    /// Create `n` slots, slot `tid` holding `init(tid)`. The slots are
    /// built on the calling thread, so whatever `init` allocates comes
    /// from that thread's heap, not from each worker's.
    pub fn from_fn(n: usize, init: impl FnMut(usize) -> T) -> Self {
        let slots = (0..n.max(1))
            .map(init)
            .map(|v| CachePadded::new(Mutex::new(v)))
            .collect();
        Self { slots }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots (never happens via `new`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutate thread `tid`'s slot.
    #[inline]
    pub fn with<R>(&self, tid: usize, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.slots[tid].lock())
    }

    /// Consume the slots, folding them into an accumulator.
    pub fn fold<A>(self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        self.slots
            .into_iter()
            .fold(init, |acc, slot| f(acc, slot.into_inner().into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;

    #[test]
    fn slots_accumulate_independently_and_merge() {
        let counters: PerThread<u64> = PerThread::new(4);
        Team::scoped(4, |team| {
            team.broadcast(&|tid| {
                for _ in 0..100 {
                    counters.with(tid, |c| *c += tid as u64 + 1);
                }
            });
        });
        let total = counters.fold(0u64, |a, b| a + b);
        assert_eq!(total, 100 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn zero_slots_promoted_to_one() {
        let c: PerThread<u32> = PerThread::new(0);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        c.with(0, |v| *v = 42);
        assert_eq!(c.fold(0, |a, b| a + b), 42);
    }

    #[test]
    fn from_fn_initializes_each_slot_by_thread_id() {
        let c = PerThread::from_fn(3, |tid| tid * 10);
        c.with(1, |v| *v += 1);
        let all = c.fold(Vec::new(), |mut acc, v| {
            acc.push(v);
            acc
        });
        assert_eq!(all, vec![0, 11, 20]);
    }

    #[test]
    fn non_copy_payloads_supported() {
        let c: PerThread<Vec<usize>> = PerThread::new(3);
        for tid in 0..3 {
            c.with(tid, |v| v.push(tid * 10));
        }
        let mut all = c.fold(Vec::new(), |mut acc, v| {
            acc.extend(v);
            acc
        });
        all.sort_unstable();
        assert_eq!(all, vec![0, 10, 20]);
    }
}
