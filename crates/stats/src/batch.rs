//! Reusable table arenas for batched counting and inference.
//!
//! * [`TableArena`] holds integer contingency tables, one slot per table
//!   of a batch, reshaped in place so allocations persist across batches.
//!   The score-based learner fills its per-(child, parent-set) count
//!   tables through it, in one tiled pass over the samples per batch.
//! * [`FactorArena`] is its `f64` sibling for factor products in exact
//!   inference.

use crate::contingency::ContingencyTable;
use crate::engine::{CountingBackend, FillSpec};
use fastbn_data::{Dataset, Layout};

/// Sample-block size for tiled batch fills: a batched counting path (the
/// score sufficient-statistics fill) inner-loops its tables over one block
/// of samples at a time, so the shared column tiles stay L1-resident instead
/// of being re-streamed per table. One definition so a future
/// hardware-tuning pass (ROADMAP) changes every fill together.
pub const FILL_BLOCK: usize = 2048;

/// A reusable arena of contingency tables: one slot per in-flight table,
/// reshaped in place so allocations persist across batches.
///
/// This is the sufficient-statistics substrate of the score-based learner
/// (`fastbn-score`): its per-(child, parent-set) count tables fill arena
/// slots through one tiled sweep over the dataset.
#[derive(Default)]
pub struct TableArena {
    /// Table slots; only the first `active` belong to the current batch.
    /// Slots are reshaped, never dropped, so allocations persist.
    tables: Vec<ContingencyTable>,
    active: usize,
}

impl TableArena {
    /// An empty arena (no tables allocated yet).
    pub fn new() -> Self {
        Self {
            tables: Vec::new(),
            active: 0,
        }
    }

    /// Start a new batch, invalidating the previous batch's tables
    /// (allocations are kept).
    pub fn begin(&mut self) {
        self.active = 0;
    }

    /// Add a zeroed `rx × ry × nz` table to the batch and return its slot
    /// index. Reuses a retired slot's allocation when one is available.
    ///
    /// # Panics
    /// Panics if any dimension is zero (same contract as
    /// [`ContingencyTable::new`]).
    pub fn add_table(&mut self, rx: usize, ry: usize, nz: usize) -> usize {
        let slot = self.active;
        if slot < self.tables.len() {
            self.tables[slot].reshape(rx, ry, nz);
        } else {
            self.tables.push(ContingencyTable::new(rx, ry, nz));
        }
        self.active += 1;
        slot
    }

    /// Number of tables in the current batch.
    pub fn len(&self) -> usize {
        self.active
    }

    /// True when the current batch holds no tables.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// The current batch's tables, mutably — this is what a shared fill
    /// pass iterates while scattering each sample into every table.
    pub fn tables_mut(&mut self) -> &mut [ContingencyTable] {
        &mut self.tables[..self.active]
    }

    /// The current batch's tables.
    pub fn tables(&self) -> &[ContingencyTable] {
        &self.tables[..self.active]
    }

    /// Read a table of the current batch.
    ///
    /// # Panics
    /// Panics if `slot` is not part of the current batch.
    pub fn table(&self, slot: usize) -> &ContingencyTable {
        assert!(slot < self.active, "slot {slot} not in the current batch");
        &self.tables[slot]
    }

    /// Fill the whole batch through a counting backend — one spec per slot,
    /// in slot order.
    ///
    /// # Panics
    /// Panics if `specs.len()` differs from the batch size.
    pub fn fill(
        &mut self,
        backend: &mut CountingBackend,
        data: &Dataset,
        layout: Layout,
        specs: &[FillSpec<'_>],
    ) {
        backend.fill_batch(data, layout, specs, self.tables_mut());
    }
}

/// A reusable arena of `f64` tables — the floating-point sibling of
/// [`TableArena`] on the same reshape-in-place substrate.
///
/// Where [`TableArena`] holds integer count tables for score sufficient
/// statistics, this arena holds *value* tables: factor/potential
/// products in exact inference (`fastbn-network`'s junction tree routes
/// every transient clique-scope product through one of these, so a batch of
/// thousands of posterior queries reuses a handful of allocations instead
/// of allocating one table per message). Slots are resized in place and
/// never dropped, so capacity ratchets up to the largest table seen and
/// stays there.
#[derive(Default)]
pub struct FactorArena {
    /// Value-table slots; only the first `active` belong to the current
    /// batch. Allocations persist across `begin` calls.
    slots: Vec<Vec<f64>>,
    active: usize,
}

impl FactorArena {
    /// An empty arena (no tables allocated yet).
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            active: 0,
        }
    }

    /// Start a new batch, invalidating the previous batch's tables
    /// (allocations are kept).
    pub fn begin(&mut self) {
        self.active = 0;
    }

    /// Add a `cells`-sized table filled with `init` and return its slot
    /// index. Reuses a retired slot's allocation when one is available.
    pub fn alloc(&mut self, cells: usize, init: f64) -> usize {
        let slot = self.active;
        if slot < self.slots.len() {
            let t = &mut self.slots[slot];
            t.clear();
            t.resize(cells, init);
        } else {
            self.slots.push(vec![init; cells]);
        }
        self.active += 1;
        slot
    }

    /// Number of tables in the current batch.
    pub fn len(&self) -> usize {
        self.active
    }

    /// True when the current batch holds no tables.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Read a table of the current batch.
    ///
    /// # Panics
    /// Panics if `slot` is not part of the current batch.
    pub fn table(&self, slot: usize) -> &[f64] {
        assert!(slot < self.active, "slot {slot} not in the current batch");
        &self.slots[slot]
    }

    /// A table of the current batch, mutably.
    ///
    /// # Panics
    /// Panics if `slot` is not part of the current batch.
    pub fn table_mut(&mut self, slot: usize) -> &mut [f64] {
        assert!(slot < self.active, "slot {slot} not in the current batch");
        &mut self.slots[slot]
    }

    /// Move a slot's buffer out of the arena, leaving an empty placeholder.
    /// Pair with [`FactorArena::restore`] so the allocation returns to the
    /// pool — the escape hatch for writing into a slot while *reading*
    /// other borrowed data the borrow checker cannot prove disjoint.
    ///
    /// # Panics
    /// Panics if `slot` is not part of the current batch.
    pub fn take(&mut self, slot: usize) -> Vec<f64> {
        assert!(slot < self.active, "slot {slot} not in the current batch");
        std::mem::take(&mut self.slots[slot])
    }

    /// Return a buffer previously [`FactorArena::take`]n from `slot`.
    pub fn restore(&mut self, slot: usize, buf: Vec<f64>) {
        assert!(slot < self.active, "slot {slot} not in the current batch");
        self.slots[slot] = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(table: &mut ContingencyTable, seed: u64, n: usize) {
        let (rx, ry, nz) = (table.rx(), table.ry(), table.nz());
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 24) as usize;
            table.add(r % rx, (r / rx) % ry, (r / (rx * ry)) % nz);
        }
    }

    #[test]
    fn slots_are_reused_across_batches() {
        let mut arena = TableArena::new();
        arena.begin();
        arena.add_table(4, 4, 8);
        fill(&mut arena.tables_mut()[0], 3, 100);
        assert_eq!(arena.len(), 1);
        // Second batch: slot 0 must come back zeroed with the new shape.
        arena.begin();
        assert!(arena.is_empty());
        let slot = arena.add_table(2, 2, 1);
        assert_eq!(slot, 0);
        assert_eq!(arena.table(0).cells(), 4);
        assert_eq!(arena.table(0).total(), 0, "reshaped slot must be zeroed");
    }

    #[test]
    fn factor_arena_reuses_slots_across_batches() {
        let mut arena = FactorArena::new();
        arena.begin();
        let s0 = arena.alloc(8, 1.0);
        let s1 = arena.alloc(3, 0.0);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.table(0), &[1.0; 8]);
        arena.table_mut(1)[2] = 9.0;
        // New batch: slot 0 comes back reshaped and re-initialized.
        arena.begin();
        assert!(arena.is_empty());
        let s = arena.alloc(4, 0.5);
        assert_eq!(s, 0);
        assert_eq!(arena.table(0), &[0.5; 4]);
    }

    #[test]
    fn factor_arena_take_restore_round_trip() {
        let mut arena = FactorArena::new();
        arena.begin();
        let slot = arena.alloc(4, 2.0);
        let mut buf = arena.take(slot);
        buf[0] = 7.0;
        arena.restore(slot, buf);
        assert_eq!(arena.table(slot), &[7.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not in the current batch")]
    fn factor_arena_retired_slot_panics() {
        let mut arena = FactorArena::new();
        arena.begin();
        arena.alloc(2, 0.0);
        arena.begin();
        arena.table(0);
    }

    #[test]
    #[should_panic(expected = "not in the current batch")]
    fn reading_a_retired_slot_panics() {
        let mut arena = TableArena::new();
        arena.begin();
        arena.add_table(2, 2, 1);
        arena.begin();
        arena.table(0);
    }
}
