//! Runtime-dispatched SIMD popcount kernels — the word-level engine room
//! of the bitmap counting backend.
//!
//! Every bitmap-engine cell count reduces to "AND some sample bitmaps,
//! popcount the result". This module owns those word loops at three
//! tiers, picked once per process from CPU feature detection
//! (`is_x86_feature_detected!`) or forced via [`SIMD_ENV`]:
//!
//! * [`SimdTier::Scalar`] — portable `u64::count_ones` loops, the
//!   reference implementation every other tier must match bit-for-bit;
//! * [`SimdTier::Avx2`] — 256-bit lanes with the Muła nibble-lookup
//!   popcount (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`), 4 words per
//!   step;
//! * [`SimdTier::Avx512`] — 512-bit lanes with the VPOPCNTDQ
//!   `_mm512_popcnt_epi64` instruction, 8 words per step.
//!
//! All tiers compute exact integer popcounts, so counts are
//! **bit-identical across tiers by construction** — tier choice can
//! never change a CI decision, a score, or a learned structure (the
//! forced-kernel axes of `engine_agreement.rs` and `determinism.rs` pin
//! this). The scalar tail after the vector loop handles remainders, and
//! non-x86_64 builds compile to the scalar tier only.
//!
//! Every kernel entry point `debug_assert!`s that its operands cover the
//! same word range — a mismatched index is a logic error upstream and
//! must fail loudly in debug builds instead of silently truncating the
//! count.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable forcing a kernel tier: `scalar` | `avx2` |
/// `avx512` | `auto` (the default — highest detected tier). Read once
/// per process; an unknown value, or forcing a tier the CPU lacks,
/// panics rather than silently falling back.
pub const SIMD_ENV: &str = "FASTBN_SIMD";

/// A popcount kernel tier, ordered by capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdTier {
    /// Portable `u64::count_ones` loops — the reference implementation.
    Scalar = 0,
    /// 256-bit Muła nibble-lookup popcount.
    Avx2 = 1,
    /// 512-bit VPOPCNTDQ popcount.
    Avx512 = 2,
}

impl SimdTier {
    /// Stable lowercase name (the [`SIMD_ENV`] vocabulary, bench labels,
    /// and the `fastbn.stats.simd.kernel` gauge encoding: the
    /// discriminant 0/1/2 in tier order).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier name; `None` for unknown strings (`"auto"` is a
    /// policy, not a tier, and also returns `None`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "avx2" => Some(SimdTier::Avx2),
            "avx512" => Some(SimdTier::Avx512),
            _ => None,
        }
    }
}

/// The highest tier this CPU supports, detected once per process.
pub fn detected_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                SimdTier::Avx512
            } else if is_x86_feature_detected!("avx2") {
                SimdTier::Avx2
            } else {
                SimdTier::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdTier::Scalar
        }
    })
}

/// Dispatch policy codes held in [`POLICY`]: 0 = unresolved (read
/// [`SIMD_ENV`] on first use), 1 = auto, 2/3/4 = forced tier.
const P_UNSET: u8 = 0;
const P_AUTO: u8 = 1;
const P_SCALAR: u8 = 2;
const P_AVX2: u8 = 3;
const P_AVX512: u8 = 4;

static POLICY: AtomicU8 = AtomicU8::new(P_UNSET);

fn assert_supported(tier: SimdTier) {
    assert!(
        tier <= detected_tier(),
        "{SIMD_ENV} forces {} but this CPU supports at most {}",
        tier.name(),
        detected_tier().name()
    );
}

/// The tier a resolved policy code dispatches to.
fn policy_tier(code: u8) -> SimdTier {
    match code {
        P_SCALAR => SimdTier::Scalar,
        P_AVX2 => SimdTier::Avx2,
        P_AVX512 => SimdTier::Avx512,
        _ => detected_tier(),
    }
}

/// Store a resolved policy and publish its tier on the
/// `fastbn.stats.simd.kernel` gauge (0 = scalar, 1 = avx2, 2 = avx512):
/// the gauge moves only when the policy is resolved or changed, never
/// per fill.
fn store_policy(code: u8) {
    POLICY.store(code, Ordering::Relaxed);
    fastbn_obs::gauge!("fastbn.stats.simd.kernel").set(policy_tier(code) as i64);
}

fn policy_code(tier: Option<SimdTier>) -> u8 {
    match tier {
        None => P_AUTO,
        Some(SimdTier::Scalar) => P_SCALAR,
        Some(SimdTier::Avx2) => P_AVX2,
        Some(SimdTier::Avx512) => P_AVX512,
    }
}

/// Force a kernel tier (`Some`) or restore auto dispatch (`None`) —
/// the programmatic twin of [`SIMD_ENV`] used by the determinism and
/// agreement suites to flip tiers in-process. Safe to race: all tiers
/// produce identical counts, so concurrent readers can never observe a
/// result difference.
///
/// # Panics
/// Panics when forcing a tier the CPU lacks — executing its kernels
/// would fault, so the misconfiguration fails at the switch.
pub fn set_forced_tier(tier: Option<SimdTier>) {
    if let Some(t) = tier {
        assert_supported(t);
    }
    store_policy(policy_code(tier));
}

/// The tier the kernels dispatch to right now: the forced tier if one
/// is set (via [`SIMD_ENV`] or [`set_forced_tier`]), else the detected
/// one.
pub fn active_tier() -> SimdTier {
    let code = match POLICY.load(Ordering::Relaxed) {
        P_UNSET => {
            let code = match std::env::var(SIMD_ENV) {
                Ok(raw) => match raw.to_ascii_lowercase().as_str() {
                    "auto" => P_AUTO,
                    other => match SimdTier::parse(other) {
                        Some(t) => {
                            assert_supported(t);
                            policy_code(Some(t))
                        }
                        None => panic!(
                            "{SIMD_ENV}={raw:?} is not a kernel tier \
                             (scalar | avx2 | avx512 | auto)"
                        ),
                    },
                },
                Err(_) => P_AUTO,
            };
            store_policy(code);
            code
        }
        code => code,
    };
    policy_tier(code)
}

/// Calibrated word-op throughput of a tier relative to the tiled scan's
/// element reads — the factor the `Auto` engine cost model multiplies
/// its element-read budget by before comparing against bitmap word ops.
///
/// Measured by `examples/calibrate.rs` (engine × tier × (m, arity, |Z|)
/// sweep; see `crates/stats/README.md` for the flip surface): one scalar
/// word op costs about one element read, and the measured table-fill
/// speedups over scalar are ≈ 2.5× for AVX2 and ≈ 5× for AVX-512
/// (memory-bound above L2 and amortised over the non-kernel parts of a
/// fill, hence below the 4×/8× lane ratios). The constants floor the
/// measurements so a mispriced cell errs toward the tiled scan.
pub fn word_ops_per_read(tier: SimdTier) -> u64 {
    match tier {
        SimdTier::Scalar => 1,
        SimdTier::Avx2 => 2,
        SimdTier::Avx512 => 5,
    }
}

/// Serialises unit tests that mutate or depend on the process-wide tier
/// policy: tier flips can never change counts, but the `Auto` engine
/// cost model reads the active tier, so pick-count assertions must not
/// race a tier flip in a concurrently running test.
#[cfg(test)]
pub(crate) fn tier_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

mod scalar {
    #[inline(always)]
    pub fn popcount(a: &[u64]) -> u64 {
        a.iter().map(|w| w.count_ones() as u64).sum()
    }

    #[inline(always)]
    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }

    #[inline(always)]
    pub fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
        let mut sum = 0u64;
        for i in 0..a.len() {
            sum += (a[i] & b[i] & c[i]).count_ones() as u64;
        }
        sum
    }

    pub fn and_assign(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= *s;
        }
    }

    /// The three popcount kernels above compiled a second time with the
    /// hardware `POPCNT` instruction: the scalar tier's path on x86_64
    /// hosts without AVX2 (the baseline target lowers `count_ones` to a
    /// bit-twiddling sequence).
    #[cfg(target_arch = "x86_64")]
    pub mod hw {
        /// # Safety
        /// Requires POPCNT.
        #[target_feature(enable = "popcnt")]
        pub unsafe fn popcount(a: &[u64]) -> u64 {
            super::popcount(a)
        }

        /// # Safety
        /// Requires POPCNT.
        #[target_feature(enable = "popcnt")]
        pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
            super::and_popcount(a, b)
        }

        /// # Safety
        /// Requires POPCNT.
        #[target_feature(enable = "popcnt")]
        pub unsafe fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
            super::and3_popcount(a, b, c)
        }
    }
}

/// Scalar-tier dispatch of one popcount kernel: the `scalar::hw` build
/// when the CPU has `POPCNT`, else the portable one.
macro_rules! scalar_kernel {
    ($kernel:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        let count = if is_x86_feature_detected!("popcnt") {
            // SAFETY: POPCNT was detected on this CPU.
            unsafe { scalar::hw::$kernel($($arg),*) }
        } else {
            scalar::$kernel($($arg),*)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let count = scalar::$kernel($($arg),*);
        count
    }};
}

// ---------------------------------------------------------------------------
// x86_64 vector kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Per-lane popcount of 4 × u64 via the Muła nibble-lookup: split
    /// each byte into nibbles, table-lookup their popcounts with
    /// `shuffle_epi8`, then horizontally sum bytes into u64 lanes with
    /// `sad_epu8`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_m256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount_avx2(a: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let v = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount_m256(v));
        }
        hsum_epi64(acc) + super::scalar::popcount(&a[chunks * 4..])
    }

    /// # Safety
    /// Requires AVX2. `a` and `b` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount_m256(_mm256_and_si256(va, vb)));
        }
        hsum_epi64(acc) + super::scalar::and_popcount(&a[chunks * 4..], &b[chunks * 4..])
    }

    /// # Safety
    /// Requires AVX2. All three slices must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and3_popcount_avx2(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            let vc = _mm256_loadu_si256(c.as_ptr().add(i * 4) as *const __m256i);
            let v = _mm256_and_si256(_mm256_and_si256(va, vb), vc);
            acc = _mm256_add_epi64(acc, popcount_m256(v));
        }
        hsum_epi64(acc)
            + super::scalar::and3_popcount(&a[chunks * 4..], &b[chunks * 4..], &c[chunks * 4..])
    }

    /// # Safety
    /// Requires AVX2. `dst` and `src` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_assign_avx2(dst: &mut [u64], src: &[u64]) {
        let chunks = dst.len() / 4;
        for i in 0..chunks {
            let vd = _mm256_loadu_si256(dst.as_ptr().add(i * 4) as *const __m256i);
            let vs = _mm256_loadu_si256(src.as_ptr().add(i * 4) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i * 4) as *mut __m256i,
                _mm256_and_si256(vd, vs),
            );
        }
        super::scalar::and_assign(&mut dst[chunks * 4..], &src[chunks * 4..]);
    }

    /// # Safety
    /// Requires AVX-512F + VPOPCNTDQ.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn popcount_avx512(a: &[u64]) -> u64 {
        let mut acc = _mm512_setzero_si512();
        let chunks = a.len() / 8;
        for i in 0..chunks {
            let v = _mm512_loadu_epi64(a.as_ptr().add(i * 8) as *const i64);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 + super::scalar::popcount(&a[chunks * 8..])
    }

    /// # Safety
    /// Requires AVX-512F + VPOPCNTDQ. `a` and `b` must have equal lengths.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn and_popcount_avx512(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = _mm512_setzero_si512();
        let chunks = a.len() / 8;
        for i in 0..chunks {
            let va = _mm512_loadu_epi64(a.as_ptr().add(i * 8) as *const i64);
            let vb = _mm512_loadu_epi64(b.as_ptr().add(i * 8) as *const i64);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
        }
        _mm512_reduce_add_epi64(acc) as u64
            + super::scalar::and_popcount(&a[chunks * 8..], &b[chunks * 8..])
    }

    /// # Safety
    /// Requires AVX-512F + VPOPCNTDQ. All three slices must have equal
    /// lengths.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn and3_popcount_avx512(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
        let mut acc = _mm512_setzero_si512();
        let chunks = a.len() / 8;
        for i in 0..chunks {
            let va = _mm512_loadu_epi64(a.as_ptr().add(i * 8) as *const i64);
            let vb = _mm512_loadu_epi64(b.as_ptr().add(i * 8) as *const i64);
            let vc = _mm512_loadu_epi64(c.as_ptr().add(i * 8) as *const i64);
            let v = _mm512_and_si512(_mm512_and_si512(va, vb), vc);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64
            + super::scalar::and3_popcount(&a[chunks * 8..], &b[chunks * 8..], &c[chunks * 8..])
    }

    /// # Safety
    /// Requires AVX-512F. `dst` and `src` must have equal lengths.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn and_assign_avx512(dst: &mut [u64], src: &[u64]) {
        let chunks = dst.len() / 8;
        for i in 0..chunks {
            let vd = _mm512_loadu_epi64(dst.as_ptr().add(i * 8) as *const i64);
            let vs = _mm512_loadu_epi64(src.as_ptr().add(i * 8) as *const i64);
            _mm512_storeu_epi64(
                dst.as_mut_ptr().add(i * 8) as *mut i64,
                _mm512_and_si512(vd, vs),
            );
        }
        super::scalar::and_assign(&mut dst[chunks * 8..], &src[chunks * 8..]);
    }
}

// ---------------------------------------------------------------------------
// Tier-dispatched dense kernels
// ---------------------------------------------------------------------------

/// Popcount of a word slice at the active tier.
#[inline]
pub fn popcount(a: &[u64]) -> u64 {
    match active_tier() {
        SimdTier::Scalar => scalar_kernel!(popcount(a)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was validated against CPU features at dispatch
        // setup (detection or `assert_supported`).
        SimdTier::Avx2 => unsafe { x86::popcount_avx2(a) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { x86::popcount_avx512(a) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::popcount(a),
    }
}

/// Popcount of `a & b` at the active tier.
///
/// # Panics
/// `debug_assert!`s equal word lengths — a mismatched index must fail
/// loudly in debug builds, not silently truncate.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "bitmap word-length mismatch");
    match active_tier() {
        SimdTier::Scalar => scalar_kernel!(and_popcount(a, b)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier validated against CPU features at dispatch setup.
        SimdTier::Avx2 => unsafe { x86::and_popcount_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { x86::and_popcount_avx512(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::and_popcount(a, b),
    }
}

/// Fused popcount of the N-way intersection `srcs[0] & srcs[1] & …`,
/// without materialising any intermediate — one load per operand word
/// per step. The 1/2/3-way cases (all the bitmap engine emits) are
/// vectorised; wider intersections fall back to a scalar fold.
///
/// # Panics
/// `debug_assert!`s equal word lengths across all operands.
#[inline]
pub fn and_n_popcount(srcs: &[&[u64]]) -> u64 {
    if let Some(first) = srcs.first() {
        for s in &srcs[1..] {
            debug_assert_eq!(first.len(), s.len(), "bitmap word-length mismatch");
        }
    }
    match srcs {
        [] => 0,
        [a] => popcount(a),
        [a, b] => and_popcount(a, b),
        [a, b, c] => match active_tier() {
            SimdTier::Scalar => scalar_kernel!(and3_popcount(a, b, c)),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: tier validated against CPU features at dispatch setup.
            SimdTier::Avx2 => unsafe { x86::and3_popcount_avx2(a, b, c) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { x86::and3_popcount_avx512(a, b, c) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::and3_popcount(a, b, c),
        },
        [first, rest @ ..] => {
            let mut sum = 0u64;
            for i in 0..first.len() {
                let mut w = first[i];
                for s in rest {
                    w &= s[i];
                }
                sum += w.count_ones() as u64;
            }
            sum
        }
    }
}

/// In-place intersection `dst &= src` at the active tier.
///
/// # Panics
/// `debug_assert!`s equal word lengths.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "bitmap word-length mismatch");
    match active_tier() {
        SimdTier::Scalar => scalar::and_assign(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier validated against CPU features at dispatch setup.
        SimdTier::Avx2 => unsafe { x86::and_assign_avx2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { x86::and_assign_avx512(dst, src) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::and_assign(dst, src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words.
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state ^ (state >> 31)
            })
            .collect()
    }

    #[test]
    fn tier_parsing_and_names() {
        for t in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
        }
        assert_eq!(SimdTier::parse("auto"), None, "auto is a policy");
        assert_eq!(SimdTier::parse("neon"), None);
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
    }

    #[test]
    fn all_supported_tiers_match_scalar_bit_for_bit() {
        let _guard = tier_test_guard();
        // Deliberately unaligned lengths to exercise the scalar tails.
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 257] {
            let a = words(n, 0xA11CE);
            let b = words(n, 0xB0B);
            let c = words(n, 0xCAFE);
            let reference = (
                scalar::popcount(&a),
                scalar::and_popcount(&a, &b),
                scalar::and3_popcount(&a, &b, &c),
            );
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("popcnt") {
                // SAFETY: POPCNT detected.
                let hw = unsafe {
                    (
                        scalar::hw::popcount(&a),
                        scalar::hw::and_popcount(&a, &b),
                        scalar::hw::and3_popcount(&a, &b, &c),
                    )
                };
                assert_eq!(hw, reference, "scalar POPCNT build n={n}");
            }
            let mut dst_ref = a.clone();
            scalar::and_assign(&mut dst_ref, &b);
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
                if tier > detected_tier() {
                    continue;
                }
                set_forced_tier(Some(tier));
                assert_eq!(popcount(&a), reference.0, "{} popcount n={n}", tier.name());
                assert_eq!(
                    and_popcount(&a, &b),
                    reference.1,
                    "{} and_popcount n={n}",
                    tier.name()
                );
                assert_eq!(
                    and_n_popcount(&[&a, &b, &c]),
                    reference.2,
                    "{} and3 n={n}",
                    tier.name()
                );
                assert_eq!(
                    and_n_popcount(&[&a, &b]),
                    reference.1,
                    "{} and2",
                    tier.name()
                );
                assert_eq!(and_n_popcount(&[&a]), reference.0, "{} and1", tier.name());
                assert_eq!(and_n_popcount(&[]), 0);
                let mut dst = a.clone();
                and_assign(&mut dst, &b);
                assert_eq!(dst, dst_ref, "{} and_assign n={n}", tier.name());
            }
            set_forced_tier(None);
        }
    }

    #[test]
    fn four_way_fold_matches_pairwise() {
        let n = 70;
        let a = words(n, 1);
        let b = words(n, 2);
        let c = words(n, 3);
        let d = words(n, 4);
        let mut acc = a.clone();
        scalar::and_assign(&mut acc, &b);
        scalar::and_assign(&mut acc, &c);
        scalar::and_assign(&mut acc, &d);
        assert_eq!(and_n_popcount(&[&a, &b, &c, &d]), scalar::popcount(&acc));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "word-length mismatch")]
    fn debug_build_catches_mismatched_lengths() {
        let a = words(8, 5);
        let b = words(7, 6);
        and_popcount(&a, &b);
    }
}
