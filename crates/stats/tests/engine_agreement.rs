//! Property-based agreement between the counting engines: on random
//! datasets (arities 2–5, 0–3 conditioning variables), [`TiledScan`] and
//! [`BitmapEngine`] must produce **cell-for-cell identical** `u32` counts —
//! the hard requirement that lets every CI test and score run on either
//! backend without a single decision changing.

use fastbn_data::{Dataset, Layout};
use fastbn_stats::simd::{detected_tier, set_forced_tier};
use fastbn_stats::{
    mixed_radix_strides, BitmapEngine, ContingencyTable, CountEngine, CountingBackend,
    EngineSelect, FillSpec, SimdTier, TiledScan,
};
use proptest::prelude::*;

/// A random dataset over 5 variables with arities in 2..=5, together with
/// the number of conditioning variables to use (0..=3).
///
/// Variables are assigned fixed roles by index: 0 = X, 1 = Y, 2.. = Z.
fn workload_strategy() -> impl Strategy<Value = (Dataset, usize)> {
    (
        proptest::collection::vec(2u8..=5, 5),
        1usize..200,
        0usize..=3,
    )
        .prop_flat_map(|(arities, m, d)| {
            // One flat value matrix, reduced modulo each column's arity —
            // the shim's strategies compose over tuples, not Vec<Strategy>.
            let raw = proptest::collection::vec(0u8..60, m * arities.len());
            (Just(arities), raw, Just(m), Just(d))
        })
        .prop_map(|(arities, raw, m, d)| {
            let columns: Vec<Vec<u8>> = arities
                .iter()
                .enumerate()
                .map(|(v, &a)| raw[v * m..(v + 1) * m].iter().map(|&x| x % a).collect())
                .collect();
            let data = Dataset::from_columns(vec![], arities, columns)
                .expect("generated columns are valid");
            (data, d)
        })
}

/// Fill one `(x, y | cond)` table with the given engine.
fn fill_with_engine(
    engine: &mut dyn CountEngine,
    data: &Dataset,
    layout: Layout,
    x: usize,
    y: Option<usize>,
    cond: &[usize],
) -> ContingencyTable {
    let rx = data.arity(x);
    let ry = y.map_or(1, |y| data.arity(y));
    let mut zmul = vec![0usize; cond.len()];
    let nz = mixed_radix_strides(|i| data.arity(cond[i]), &mut zmul, rx * ry, usize::MAX)
        .expect("small tables cannot overflow")
        .max(1);
    let mut table = ContingencyTable::new(rx, ry, nz);
    engine.fill_one(
        data,
        layout,
        FillSpec {
            x,
            y,
            cond,
            zmul: &zmul,
        },
        &mut table,
    );
    table
}

proptest! {
    /// CI-test-shaped tables: X × Y | Z₁..Z_d.
    #[test]
    fn engines_agree_on_ci_tables((data, d) in workload_strategy()) {
        let cond: Vec<usize> = (2..2 + d).collect();
        let tiled = fill_with_engine(&mut TiledScan::new(), &data, Layout::ColumnMajor, 0, Some(1), &cond);
        let bitmap = fill_with_engine(&mut BitmapEngine::new(), &data, Layout::ColumnMajor, 0, Some(1), &cond);
        prop_assert_eq!(tiled.raw(), bitmap.raw());
        // Sanity: the table accounts for every sample exactly once.
        prop_assert_eq!(tiled.total(), data.n_samples() as u64);
        // The tiled row-major fill is a third independent witness.
        let row = fill_with_engine(&mut TiledScan::new(), &data, Layout::RowMajor, 0, Some(1), &cond);
        prop_assert_eq!(tiled.raw(), row.raw());
    }

    /// Score-shaped tables: r_child × 1 × q (no Y axis).
    #[test]
    fn engines_agree_on_score_tables((data, d) in workload_strategy()) {
        let cond: Vec<usize> = (2..2 + d).collect();
        let tiled = fill_with_engine(&mut TiledScan::new(), &data, Layout::ColumnMajor, 1, None, &cond);
        let bitmap = fill_with_engine(&mut BitmapEngine::new(), &data, Layout::ColumnMajor, 1, None, &cond);
        prop_assert_eq!(tiled.raw(), bitmap.raw());
        prop_assert_eq!(tiled.total(), data.n_samples() as u64);
    }

    /// The kernel tier is invisible: every supported SIMD tier (scalar,
    /// AVX2, AVX-512 where the host has them) over the bitmap index
    /// produces the exact counts of the scalar tiled scan, for CI- and
    /// score-shaped tables alike. (The index has one representation,
    /// dense words, so the name's index-kind axis has a single point.)
    ///
    /// The forced tier is process-global, so this test briefly flips it
    /// for the whole binary; that is safe because every tier is
    /// count-identical by construction and nothing else in this file
    /// asserts on engine *picks*.
    #[test]
    fn kernel_tiers_and_index_kinds_agree((data, d) in workload_strategy()) {
        let cond: Vec<usize> = (2..2 + d).collect();
        let ci_ref = fill_with_engine(&mut TiledScan::new(), &data, Layout::ColumnMajor, 0, Some(1), &cond);
        let score_ref = fill_with_engine(&mut TiledScan::new(), &data, Layout::ColumnMajor, 1, None, &cond);
        let tiers = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];
        for tier in tiers.into_iter().filter(|&t| t <= detected_tier()) {
            set_forced_tier(Some(tier));
            let ci = fill_with_engine(&mut BitmapEngine::new(), &data, Layout::ColumnMajor, 0, Some(1), &cond);
            prop_assert_eq!(ci_ref.raw(), ci.raw(), "ci {:?}", tier);
            let score = fill_with_engine(&mut BitmapEngine::new(), &data, Layout::ColumnMajor, 1, None, &cond);
            prop_assert_eq!(score_ref.raw(), score.raw(), "score {:?}", tier);
        }
        set_forced_tier(None);
    }

    /// The Auto policy's per-query split is invisible: a mixed batch filled
    /// through `CountingBackend` matches both forced backends exactly.
    #[test]
    fn auto_split_is_invisible((data, d) in workload_strategy()) {
        let cond: Vec<usize> = (2..2 + d).collect();
        let rx = data.arity(0);
        let ry = data.arity(1);
        let mut zmul = vec![0usize; cond.len()];
        let nz = mixed_radix_strides(|i| data.arity(cond[i]), &mut zmul, rx * ry, usize::MAX)
            .unwrap()
            .max(1);
        // Batch: one conditioned table plus one marginal (bitmap-friendly).
        let specs = [
            FillSpec { x: 0, y: Some(1), cond: &cond, zmul: &zmul },
            FillSpec { x: 0, y: Some(1), cond: &[], zmul: &[] },
        ];
        let run = |select: EngineSelect| -> Vec<ContingencyTable> {
            let mut tables = vec![
                ContingencyTable::new(rx, ry, nz),
                ContingencyTable::new(rx, ry, 1),
            ];
            CountingBackend::new(select).fill_batch(&data, Layout::ColumnMajor, &specs, &mut tables);
            tables
        };
        let auto = run(EngineSelect::Auto);
        let tiled = run(EngineSelect::ForceTiled);
        let bitmap = run(EngineSelect::ForceBitmap);
        for i in 0..specs.len() {
            prop_assert_eq!(auto[i].raw(), tiled[i].raw());
            prop_assert_eq!(auto[i].raw(), bitmap[i].raw());
        }
    }
}
