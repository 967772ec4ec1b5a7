//! Dense contingency tables over `(X, Y | Z-configuration)`.
//!
//! The table is the workhorse of every CI test (paper §IV-A decomposes a CI
//! test into: build contingency table → compute marginals → compute G²). The
//! memory layout keeps each `Z = z` slice contiguous (`(z·rx + x)·ry + y`),
//! so that the marginal/statistic pass streams memory linearly — the same
//! cache-consciousness the paper applies to the dataset itself.
//!
//! Two variants are provided:
//! * [`ContingencyTable`] — plain `u32` cells, owned by a single thread.
//!   Used by sequential, edge-level and CI-level parallelism (one thread owns
//!   one whole table; the paper's argument for why CI-level parallelism needs
//!   no atomics).
//! * [`AtomicContingencyTable`] — `AtomicU32` cells for the paper's
//!   *sample-level* parallelism strawman, where multiple threads race to
//!   increment cells of a shared table.

use std::sync::atomic::{AtomicU32, Ordering};

/// Mixed-radix strides for a sequence of digit arities, **first digit most
/// significant**, written into `out` (one stride per digit, caller-sized).
/// Returns the configuration count `q = Π arity_of(i)`, or `None` when
/// `q · scale` would exceed `max_cells` (or the product overflows) —
/// the oversized-table guard.
///
/// This is the single definition of the radix order used to index a
/// table's Z axis: the CI engine's conditioning sets (`scale = rx·ry`)
/// and the score subsystem's parent configurations (`scale = r_child`)
/// both build their strides here, so a canonical (sorted) variable list
/// maps to the same configuration index everywhere.
pub fn mixed_radix_strides(
    arity_of: impl Fn(usize) -> usize,
    out: &mut [usize],
    scale: usize,
    max_cells: usize,
) -> Option<usize> {
    let mut q = 1usize;
    // Build strides right-to-left: the last digit is least significant.
    for i in (0..out.len()).rev() {
        out[i] = q;
        q = q.checked_mul(arity_of(i))?;
        if q.saturating_mul(scale) > max_cells {
            return None;
        }
    }
    Some(q)
}

/// A dense three-way contingency table for `(X, Y | Z)` with `rx`, `ry`
/// categories and `nz` joint Z-configurations.
#[derive(Clone, Debug)]
pub struct ContingencyTable {
    rx: usize,
    ry: usize,
    nz: usize,
    counts: Vec<u32>,
    /// Consecutive much-smaller reshapes seen (see [`Self::reshape`]).
    shrink_streak: u8,
}

impl ContingencyTable {
    /// Create a zeroed `rx × ry × nz` table.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the total cell count overflows.
    pub fn new(rx: usize, ry: usize, nz: usize) -> Self {
        assert!(
            rx > 0 && ry > 0 && nz > 0,
            "table dimensions must be nonzero"
        );
        let cells = rx
            .checked_mul(ry)
            .and_then(|v| v.checked_mul(nz))
            .expect("contingency table size overflow");
        Self {
            rx,
            ry,
            nz,
            counts: vec![0; cells],
            shrink_streak: 0,
        }
    }

    /// Number of X categories.
    #[inline]
    pub fn rx(&self) -> usize {
        self.rx
    }

    /// Number of Y categories.
    #[inline]
    pub fn ry(&self) -> usize {
        self.ry
    }

    /// Number of Z configurations (product of conditioning-set arities; 1
    /// for a marginal test).
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total number of cells `rx · ry · nz`.
    #[inline]
    pub fn cells(&self) -> usize {
        self.counts.len()
    }

    /// Reset all cells to zero, keeping the allocation (workhorse-table
    /// reuse across CI tests of the same shape).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// A reshape counts toward releasing the allocation only when the new
    /// shape needs at most `1/SHRINK_DIVISOR` of the current capacity;
    /// anything larger keeps it — the workhorse-reuse pattern must not
    /// churn the allocator on ordinary shape wobble.
    const SHRINK_DIVISOR: usize = 8;
    /// Allocations below this many cells (256 KiB of `u32`s) are never
    /// shrunk: they are noise next to the dataset itself.
    const SHRINK_FLOOR: usize = 1 << 16;
    /// Consecutive much-smaller reshapes required before the allocation is
    /// actually released — the hysteresis that keeps a slot alternating
    /// between one large and many small tables from reallocating the large
    /// buffer every cycle.
    const SHRINK_STREAK: u8 = 4;

    /// Re-dimension the table in place, reusing the allocation — the
    /// workhorse pattern for a thread that runs thousands of CI tests of
    /// varying shapes. All cells are zeroed.
    ///
    /// `SHRINK_STREAK` consecutive reshapes to a *much* smaller
    /// table (see `SHRINK_DIVISOR`) release the old allocation:
    /// without this, a long hill-climb run pins every arena slot's memory
    /// at the largest table it ever held. A single large reshape resets
    /// the streak, so alternating large/small workloads keep their buffer.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn reshape(&mut self, rx: usize, ry: usize, nz: usize) {
        assert!(
            rx > 0 && ry > 0 && nz > 0,
            "table dimensions must be nonzero"
        );
        let cells = rx
            .checked_mul(ry)
            .and_then(|v| v.checked_mul(nz))
            .expect("contingency table size overflow");
        self.rx = rx;
        self.ry = ry;
        self.nz = nz;
        self.counts.clear();
        if self.counts.capacity() >= Self::SHRINK_FLOOR
            && cells <= self.counts.capacity() / Self::SHRINK_DIVISOR
        {
            self.shrink_streak += 1;
            if self.shrink_streak >= Self::SHRINK_STREAK {
                self.counts.shrink_to(cells);
                self.shrink_streak = 0;
            }
        } else {
            self.shrink_streak = 0;
        }
        self.counts.resize(cells, 0);
    }

    /// Cells the backing allocation can hold without reallocating — the
    /// capacity watermark the shrink policy in [`Self::reshape`] manages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Flat index of cell `(x, y, z)`.
    #[inline(always)]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.rx && y < self.ry && z < self.nz);
        (z * self.rx + x) * self.ry + y
    }

    /// Increment cell `(x, y, z)` — one sample observed with `X=x`, `Y=y`
    /// and joint conditioning configuration `z`.
    #[inline(always)]
    pub fn add(&mut self, x: usize, y: usize, z: usize) {
        let i = self.idx(x, y, z);
        self.counts[i] += 1;
    }

    /// Add `n` to cell `(x, y, z)` — the whole-cell write path of counting
    /// engines that produce a cell's count at once (AND + popcount) instead
    /// of scattering per-sample increments.
    #[inline(always)]
    pub fn add_count(&mut self, x: usize, y: usize, z: usize, n: u32) {
        let i = self.idx(x, y, z);
        self.counts[i] += n;
    }

    /// Read cell `(x, y, z)`.
    #[inline]
    pub fn count(&self, x: usize, y: usize, z: usize) -> u32 {
        self.counts[self.idx(x, y, z)]
    }

    /// Raw cell slice (z-major); exposed for the statistic kernels.
    #[inline]
    pub fn raw(&self) -> &[u32] {
        &self.counts
    }

    /// The contiguous `rx × ry` slice for configuration `z`.
    #[inline]
    pub fn z_slice(&self, z: usize) -> &[u32] {
        let base = z * self.rx * self.ry;
        &self.counts[base..base + self.rx * self.ry]
    }

    /// Total observation mass `N = Σ cells`.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Add every cell of `other` into `self` (local-table merging for the
    /// sample-level parallelism variant that avoids atomics).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &ContingencyTable) {
        assert_eq!(
            (self.rx, self.ry, self.nz),
            (other.rx, other.ry, other.nz),
            "cannot merge tables of different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Marginals of slice `z`: `(N_{x+z} per x, N_{+yz} per y, N_{++z})`,
    /// written into caller-provided buffers (avoids per-test allocation).
    pub fn slice_marginals(&self, z: usize, nx: &mut [u64], ny: &mut [u64]) -> u64 {
        assert_eq!(nx.len(), self.rx);
        assert_eq!(ny.len(), self.ry);
        nx.fill(0);
        ny.fill(0);
        let slice = self.z_slice(z);
        let mut nzz = 0u64;
        for x in 0..self.rx {
            let row = &slice[x * self.ry..(x + 1) * self.ry];
            for (y, &c) in row.iter().enumerate() {
                let c = c as u64;
                nx[x] += c;
                ny[y] += c;
                nzz += c;
            }
        }
        nzz
    }
}

/// A contingency table with atomic cells, shared across threads.
///
/// This exists to implement (and measure) the paper's *sample-level
/// parallelism* scheme faithfully: every sample's increment is an atomic RMW
/// on a shared cell, which is exactly the cost the paper identifies as the
/// scheme's weakness.
pub struct AtomicContingencyTable {
    rx: usize,
    ry: usize,
    nz: usize,
    counts: Vec<AtomicU32>,
}

impl AtomicContingencyTable {
    /// Create a zeroed atomic table.
    pub fn new(rx: usize, ry: usize, nz: usize) -> Self {
        assert!(
            rx > 0 && ry > 0 && nz > 0,
            "table dimensions must be nonzero"
        );
        let cells = rx * ry * nz;
        let mut counts = Vec::with_capacity(cells);
        counts.resize_with(cells, || AtomicU32::new(0));
        Self { rx, ry, nz, counts }
    }

    /// Atomically increment cell `(x, y, z)` (relaxed ordering: counters
    /// only, no inter-thread data dependencies; the final table is read
    /// after a join which provides the happens-before edge).
    #[inline(always)]
    pub fn add(&self, x: usize, y: usize, z: usize) {
        debug_assert!(x < self.rx && y < self.ry && z < self.nz);
        let i = (z * self.rx + x) * self.ry + y;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot into a plain table (called after all writer threads joined).
    pub fn into_table(self) -> ContingencyTable {
        ContingencyTable {
            rx: self.rx,
            ry: self.ry,
            nz: self.nz,
            counts: self.counts.into_iter().map(AtomicU32::into_inner).collect(),
            shrink_streak: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_count_roundtrip() {
        let mut t = ContingencyTable::new(2, 3, 4);
        t.add(1, 2, 3);
        t.add(1, 2, 3);
        t.add(0, 0, 0);
        assert_eq!(t.count(1, 2, 3), 2);
        assert_eq!(t.count(0, 0, 0), 1);
        assert_eq!(t.count(1, 1, 1), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.cells(), 24);
    }

    #[test]
    fn reshape_reuses_and_zeroes() {
        let mut t = ContingencyTable::new(4, 4, 4);
        t.add(3, 3, 3);
        t.reshape(2, 3, 2);
        assert_eq!((t.rx(), t.ry(), t.nz()), (2, 3, 2));
        assert_eq!(t.cells(), 12);
        assert_eq!(t.total(), 0, "reshape must zero all cells");
        t.add(1, 2, 1);
        assert_eq!(t.count(1, 2, 1), 1);
        // Growing works too.
        t.reshape(5, 5, 5);
        assert_eq!(t.cells(), 125);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn add_count_matches_repeated_add() {
        let mut a = ContingencyTable::new(2, 3, 2);
        let mut b = ContingencyTable::new(2, 3, 2);
        a.add_count(1, 2, 1, 5);
        a.add_count(0, 0, 0, 2);
        for _ in 0..5 {
            b.add(1, 2, 1);
        }
        for _ in 0..2 {
            b.add(0, 0, 0);
        }
        assert_eq!(a.raw(), b.raw());
    }

    #[test]
    fn reshape_releases_a_much_smaller_allocation_after_a_streak() {
        // Grow past the shrink floor, then stay small: the capacity
        // watermark must come back down instead of staying pinned at the
        // peak (the long-hill-climb memory fix) — but only after
        // SHRINK_STREAK consecutive small reshapes.
        let mut t = ContingencyTable::new(64, 64, 64); // 262144 cells
        let peak = t.capacity();
        assert!(peak >= 64 * 64 * 64);
        for i in 0..ContingencyTable::SHRINK_STREAK - 1 {
            t.reshape(2, 2, 1);
            assert_eq!(t.capacity(), peak, "reshape {i} must not yet release");
        }
        t.reshape(2, 2, 1); // streak complete
        assert!(
            t.capacity() < peak / 4,
            "capacity {} still pinned near peak {peak}",
            t.capacity()
        );
        assert_eq!(t.cells(), 4);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn reshape_alternation_keeps_the_large_allocation() {
        // A slot ping-ponging between one large and one small shape must
        // never release (and re-grow) the large buffer: the large reshape
        // resets the shrink streak every cycle.
        let mut t = ContingencyTable::new(64, 64, 64);
        let peak = t.capacity();
        for _ in 0..3 * ContingencyTable::SHRINK_STREAK as usize {
            t.reshape(2, 2, 1);
            t.reshape(64, 64, 64);
            assert_eq!(t.capacity(), peak, "alternation must keep the buffer");
        }
    }

    #[test]
    fn reshape_keeps_small_allocations_for_reuse() {
        // Ordinary shape wobble below the floor must keep the allocation —
        // that reuse is the whole point of the workhorse pattern.
        let mut t = ContingencyTable::new(4, 4, 16); // 256 cells
        let cap = t.capacity();
        for _ in 0..2 * ContingencyTable::SHRINK_STREAK as usize {
            t.reshape(2, 2, 1);
            assert_eq!(t.capacity(), cap, "small reshape must not release");
            t.reshape(4, 4, 16);
            assert_eq!(t.capacity(), cap);
        }
    }

    #[test]
    fn clear_keeps_shape() {
        let mut t = ContingencyTable::new(2, 2, 2);
        t.add(0, 1, 1);
        t.clear();
        assert_eq!(t.total(), 0);
        assert_eq!(t.cells(), 8);
    }

    #[test]
    fn z_slices_are_contiguous_and_disjoint() {
        let mut t = ContingencyTable::new(2, 2, 3);
        t.add(0, 0, 0);
        t.add(1, 1, 1);
        t.add(1, 0, 2);
        assert_eq!(t.z_slice(0), &[1, 0, 0, 0]);
        assert_eq!(t.z_slice(1), &[0, 0, 0, 1]);
        assert_eq!(t.z_slice(2), &[0, 0, 1, 0]);
    }

    #[test]
    fn marginals_are_consistent() {
        let mut t = ContingencyTable::new(3, 2, 2);
        let obs = [
            (0, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (2, 0, 1),
            (2, 0, 1),
            (1, 1, 1),
        ];
        for &(x, y, z) in &obs {
            t.add(x, y, z);
        }
        let mut nx = vec![0u64; 3];
        let mut ny = vec![0u64; 2];
        let n0 = t.slice_marginals(0, &mut nx, &mut ny);
        assert_eq!(n0, 3);
        assert_eq!(nx, vec![2, 1, 0]);
        assert_eq!(ny, vec![1, 2]);
        let n1 = t.slice_marginals(1, &mut nx, &mut ny);
        assert_eq!(n1, 3);
        assert_eq!(nx, vec![0, 1, 2]);
        assert_eq!(ny, vec![2, 1]);
        // Row marginals of each slice must sum to the slice total.
        assert_eq!(nx.iter().sum::<u64>(), n1);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = ContingencyTable::new(2, 2, 1);
        let mut b = ContingencyTable::new(2, 2, 1);
        a.add(0, 0, 0);
        b.add(0, 0, 0);
        b.add(1, 1, 0);
        a.merge(&b);
        assert_eq!(a.count(0, 0, 0), 2);
        assert_eq!(a.count(1, 1, 0), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_shape_mismatch() {
        let mut a = ContingencyTable::new(2, 2, 1);
        let b = ContingencyTable::new(2, 3, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_rejected() {
        ContingencyTable::new(0, 2, 1);
    }

    #[test]
    fn atomic_table_matches_plain_under_concurrency() {
        use std::sync::Arc;
        let at = Arc::new(AtomicContingencyTable::new(2, 2, 2));
        let mut handles = Vec::new();
        for t in 0..4 {
            let at = Arc::clone(&at);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let x = (i + t) % 2;
                    let y = i % 2;
                    let z = (i / 2) % 2;
                    at.add(x, y, z);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = Arc::try_unwrap(at).ok().unwrap().into_table();
        assert_eq!(t.total(), 4000);
    }
}
