//! Calibrate the counting-engine cost model: measure every engine ×
//! kernel tier over a (m, arity, |Z|) grid and print the flip surface
//! the `EngineSelect::Auto` policy should reproduce, plus the per-tier
//! kernel speedups that justify the `word_ops_per_read` constants in
//! `fastbn_stats::simd`.
//!
//! ```sh
//! cargo run --release --example calibrate                    # small grid
//! FASTBN_CALIBRATE_FULL=1 cargo run --release --example calibrate
//! ```
//!
//! Each cell fills one CI-shaped table `X × Y | Z₁..Z_d` repeatedly and
//! reports nanoseconds per fill. The `winner` column is the *measured*
//! flip surface (which engine was actually faster); compare it against
//! the `auto` column (what the cost model picked) to spot mispriced
//! regions. All engines produce byte-identical counts, so the sweep
//! asserts agreement as it goes — a calibration run is also a test.

use fastbn::data::{Dataset, Layout};
use fastbn::stats::simd::{self, detected_tier, SimdTier};
use fastbn::stats::{
    mixed_radix_strides, BitmapEngine, ContingencyTable, CountEngine, EngineSelect, FillSpec,
    TiledScan,
};
use std::time::Instant;

/// Deterministic value stream (xorshift64*) — no `rand` in examples.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A synthetic dataset: `2 + d_max` variables of one arity, m samples.
fn synth(m: usize, arity: u8, n_vars: usize, seed: u64) -> Dataset {
    let mut next = stream(seed);
    let columns: Vec<Vec<u8>> = (0..n_vars)
        .map(|_| (0..m).map(|_| (next() % arity as u64) as u8).collect())
        .collect();
    Dataset::from_columns(vec![], vec![arity; n_vars], columns).expect("valid synthetic columns")
}

/// Median-of-reps nanoseconds for one table fill.
fn time_fill(engine: &mut dyn CountEngine, data: &Dataset, d: usize) -> (u64, ContingencyTable) {
    let cond: Vec<usize> = (2..2 + d).collect();
    let (rx, ry) = (data.arity(0), data.arity(1));
    let mut zmul = vec![0usize; cond.len()];
    let nz = mixed_radix_strides(|i| data.arity(cond[i]), &mut zmul, rx * ry, usize::MAX)
        .expect("grid tables are small")
        .max(1);
    let mut table = ContingencyTable::new(rx, ry, nz);
    let spec = FillSpec {
        x: 0,
        y: Some(1),
        cond: &cond,
        zmul: &zmul,
    };
    // Warm up (build the bitmap index outside the timed region), then
    // run until the cell has ≥ 2 ms or 64 reps, whichever first. The
    // engines *accumulate* into the table, so clear between reps
    // (outside the timed span — learners reuse arena tables the same
    // way).
    engine.fill_one(data, Layout::ColumnMajor, spec, &mut table);
    let mut best = u64::MAX;
    let mut spent = 0u64;
    let mut reps = 0u32;
    while spent < 2_000_000 && reps < 64 {
        table.clear();
        let t0 = Instant::now();
        engine.fill_one(data, Layout::ColumnMajor, spec, &mut table);
        let ns = t0.elapsed().as_nanos() as u64;
        best = best.min(ns);
        spent += ns;
        reps += 1;
    }
    (best, table)
}

fn main() {
    let full = std::env::var("FASTBN_CALIBRATE_FULL").is_ok();
    let ms: &[usize] = if full {
        &[4_096, 16_384, 65_536]
    } else {
        &[4_096, 16_384]
    };
    let arities: &[u8] = if full { &[2, 4, 8] } else { &[2, 4] };
    let depths: &[usize] = if full { &[0, 1, 2, 3] } else { &[0, 2] };
    let tiers: Vec<SimdTier> = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| t <= detected_tier())
        .collect();

    println!("detected kernel tier: {}", detected_tier().name());
    println!(
        "grid: m ∈ {ms:?}, arity ∈ {arities:?}, |Z| ∈ {depths:?} \
         ({} tiers)\n",
        tiers.len()
    );

    // Header: one bitmap column per tier.
    print!("{:>7} {:>6} {:>3} {:>10}", "m", "arity", "|Z|", "tiled_ns");
    for tier in &tiers {
        print!(" {:>10}", tier.name());
    }
    println!(" {:>7} {:>6}", "winner", "auto");

    // Per-tier best-case speedups over scalar, collected across cells.
    let mut speedup_num = vec![0f64; tiers.len()];
    let mut speedup_den = vec![0f64; tiers.len()];

    for &m in ms {
        for &arity in arities {
            for &d in depths {
                let data = synth(m, arity, 2 + d, 0xfa57 + m as u64 + d as u64);
                data.bitmap_index();

                let (tiled_ns, reference) = time_fill(&mut TiledScan::new(), &data, d);
                print!("{m:>7} {arity:>6} {d:>3} {tiled_ns:>10}");

                let mut best_bitmap = u64::MAX;
                let mut scalar_ns = 0u64;
                for (ti, &tier) in tiers.iter().enumerate() {
                    simd::set_forced_tier(Some(tier));
                    let (ns, t) = time_fill(&mut BitmapEngine::new(), &data, d);
                    assert_eq!(t.raw(), reference.raw(), "{tier:?} diverged");
                    if tier == SimdTier::Scalar {
                        scalar_ns = ns;
                    } else if scalar_ns > 0 {
                        speedup_num[ti] += scalar_ns as f64;
                        speedup_den[ti] += ns as f64;
                    }
                    best_bitmap = best_bitmap.min(ns);
                    print!(" {ns:>10}");
                }
                simd::set_forced_tier(None);

                // What does the Auto policy actually pick here?
                let cond: Vec<usize> = (2..2 + d).collect();
                let mut zmul = vec![0usize; cond.len()];
                mixed_radix_strides(
                    |i| data.arity(cond[i]),
                    &mut zmul,
                    data.arity(0) * data.arity(1),
                    usize::MAX,
                )
                .expect("grid tables are small");
                let spec = FillSpec {
                    x: 0,
                    y: Some(1),
                    cond: &cond,
                    zmul: &zmul,
                };
                let picked = if EngineSelect::prefers_bitmap(&data, &spec) {
                    "bitmap"
                } else {
                    "tiled"
                };
                let winner = if best_bitmap < tiled_ns {
                    "bitmap"
                } else {
                    "tiled"
                };
                println!(" {winner:>7} {picked:>6}");
            }
        }
    }

    println!("\nkernel speedup over scalar (grid aggregate):");
    println!("  scalar  1.00x  (word_ops_per_read = 1, by definition)");
    for (ti, &tier) in tiers.iter().enumerate() {
        if tier != SimdTier::Scalar && speedup_den[ti] > 0.0 {
            let s = speedup_num[ti] / speedup_den[ti];
            println!(
                "  {:<7} {s:.2}x  (word_ops_per_read(simd) currently {})",
                tier.name(),
                simd::word_ops_per_read(tier)
            );
        }
    }
    println!(
        "\nReading the table: `winner` is the measured flip surface, `auto`\n\
         the cost model's pick; a disagreement is a mispriced region.\n\
         Run with FASTBN_CALIBRATE_FULL=1 for the full grid."
    );
}
