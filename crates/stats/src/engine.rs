//! Pluggable counting backends: the [`CountEngine`] seam behind every
//! contingency-table fill in the workspace.
//!
//! Everything Fast-BNS computes — the CI tests at every depth and the
//! score subsystem's per-(child, parent-set) count tables — reduces to
//! filling contingency tables from the dataset. This module makes the
//! *strategy* for that fill a first-class, swappable component:
//!
//! * [`TiledScan`] — the historical column-scan: stream the involved
//!   columns sample-by-sample, scattering each sample into its cell, with
//!   the whole batch tiled over [`FILL_BLOCK`]-sample blocks so shared
//!   column tiles stay L1-resident. Cost `Θ(m · (d + 2))` element reads
//!   per table; insensitive to table size.
//! * [`BitmapEngine`] — AND + popcount over the dataset's cached
//!   per-(variable, state) sample bitmaps ([`fastbn_data::BitmapIndex`]),
//!   `⌈m/64⌉` words at a time: a cell's count is the popcount of the
//!   intersection of its state bitmaps. CI tables count against the
//!   edge's cached `X=x ∧ Y=y` pair bitmaps, and the cells the marginals
//!   already fix (the last pair per Z configuration, the last
//!   configuration, a depth-0 table's last row and column) are derived by
//!   subtraction. Cost `Θ((ñz−1)·(P−1)·m/64)` word ops per CI table over
//!   `P` nonempty pairs; dominates for low-arity/high-sample queries and
//!   loses for wide conditioning sets whose configuration space outgrows
//!   the sample count.
//!
//! Both engines produce **byte-identical `u32` counts** — a count table is
//! a sum of indicator functions, invariant to how the samples are visited
//! — so swapping engines can never change a CI decision, a score, or a
//! learned structure. The engine-agreement proptest and the ForceBitmap
//! axes of the determinism/cross-impl suites pin this.
//!
//! [`EngineSelect`] is the policy knob (plumbed through `PcConfig`,
//! `HillClimbConfig` and `HybridConfig`): force either engine, or let
//! [`EngineSelect::Auto`] pick per query from the observed arity product,
//! conditioning-set size and sample count. [`CountingBackend`] bundles the
//! two engines with the policy and is what the consumers
//! (`CiEngine::run`, `score_batch`) hold.

use crate::batch::FILL_BLOCK;
use crate::contingency::ContingencyTable;
use crate::simd::{self, SimdTier};
use fastbn_data::{BitmapIndex, Dataset, Layout};

/// One table-fill request: which variables feed which axis of a table.
///
/// * `x` → the X axis (`rx` rows; `rx = arity(x)`),
/// * `y` → the Y axis, or `None` for degenerate `ry = 1` tables (the score
///   subsystem's `r_child × 1 × q` count tables),
/// * `cond` → the conditioning variables spanning the Z axis, with `zmul`
///   their mixed-radix strides (first variable most significant — the
///   workspace-wide radix order of
///   [`crate::contingency::mixed_radix_strides`]).
#[derive(Clone, Copy, Debug)]
pub struct FillSpec<'a> {
    /// X-axis variable.
    pub x: usize,
    /// Y-axis variable (`None` ⇒ the table's `ry` is 1).
    pub y: Option<usize>,
    /// Conditioning variables (Z axis).
    pub cond: &'a [usize],
    /// Mixed-radix strides of `cond` (same length).
    pub zmul: &'a [usize],
}

/// A strategy for filling pre-shaped, zeroed contingency tables from a
/// dataset.
///
/// `fill_batch` is the primary operation — engines that can amortize work
/// across a batch (the tiled scan's shared dataset pass) do it there;
/// `fill_one` is the single-table convenience. Implementations may keep
/// internal scratch (hence `&mut self`) but must be pure with respect to
/// the output: the filled counts are a function of `(data, spec)` alone,
/// identical across engines, batch compositions and call orders.
pub trait CountEngine {
    /// Short name for logs and bench labels.
    fn name(&self) -> &'static str;

    /// Fill `tables[i]` according to `specs[i]`, for all `i`, over the
    /// full sample range of `data`. Tables must be pre-shaped (matching
    /// the spec's arities/strides) and zeroed.
    fn fill_batch(
        &mut self,
        data: &Dataset,
        layout: Layout,
        specs: &[FillSpec<'_>],
        tables: &mut [&mut ContingencyTable],
    );

    /// Fill a single table (see [`CountEngine::fill_batch`]).
    fn fill_one(
        &mut self,
        data: &Dataset,
        layout: Layout,
        spec: FillSpec<'_>,
        table: &mut ContingencyTable,
    ) {
        self.fill_batch(data, layout, std::slice::from_ref(&spec), &mut [table]);
    }
}

/// The tiled column-scan engine — the workspace's historical fill path,
/// extracted verbatim: one pass over the samples per batch, tiled in
/// [`FILL_BLOCK`] blocks, with per-spec inner loops specialized for the
/// hot conditioning-set sizes (0, 1, 2).
#[derive(Debug, Default)]
pub struct TiledScan;

impl TiledScan {
    /// A tiled-scan engine.
    pub fn new() -> Self {
        Self
    }

    /// The block-tiled column-major fill.
    fn fill_columns(data: &Dataset, specs: &[FillSpec<'_>], tables: &mut [&mut ContingencyTable]) {
        let m = data.n_samples();
        // Prefetch every spec's column slices once per batch.
        let xcols: Vec<&[u8]> = specs.iter().map(|s| data.column(s.x)).collect();
        let ycols: Vec<Option<&[u8]>> = specs.iter().map(|s| s.y.map(|y| data.column(y))).collect();
        let mut zoff: Vec<usize> = Vec::with_capacity(specs.len() + 1);
        let mut zcols: Vec<&[u8]> = Vec::new();
        zoff.push(0);
        for spec in specs {
            zcols.extend(spec.cond.iter().map(|&c| data.column(c)));
            zoff.push(zcols.len());
        }
        // Tile the sample range: each table inner-loops over one
        // block at a time, so its accumulation state stays hot
        // while the column tiles shared by the batch stay
        // L1-resident instead of being re-streamed per table.
        for start in (0..m).step_by(FILL_BLOCK) {
            let end = (start + FILL_BLOCK).min(m);
            for (i, table) in tables.iter_mut().enumerate() {
                // Reborrow through the double reference once per
                // block: the per-sample `add` calls then see one
                // `&mut` level, keeping the cell pointer hoisted.
                let table: &mut ContingencyTable = table;
                let xcol = xcols[i];
                let zc = &zcols[zoff[i]..zoff[i + 1]];
                let zm = specs[i].zmul;
                match (ycols[i], zc.len()) {
                    (Some(ycol), 0) => {
                        for s in start..end {
                            table.add(xcol[s] as usize, ycol[s] as usize, 0);
                        }
                    }
                    (Some(ycol), 1) => {
                        // A single conditioning variable always has
                        // stride 1: z is the raw column.
                        let z0 = zc[0];
                        for s in start..end {
                            table.add(xcol[s] as usize, ycol[s] as usize, z0[s] as usize);
                        }
                    }
                    (Some(ycol), 2) => {
                        let (z0, z1) = (zc[0], zc[1]);
                        let m0 = zm[0]; // zm[1] is always 1
                        for s in start..end {
                            let z = z0[s] as usize * m0 + z1[s] as usize;
                            table.add(xcol[s] as usize, ycol[s] as usize, z);
                        }
                    }
                    (Some(ycol), _) => {
                        for s in start..end {
                            let mut z = 0usize;
                            for (col, &mul) in zc.iter().zip(zm) {
                                z += col[s] as usize * mul;
                            }
                            table.add(xcol[s] as usize, ycol[s] as usize, z);
                        }
                    }
                    (None, 0) => {
                        for &x in &xcol[start..end] {
                            table.add(x as usize, 0, 0);
                        }
                    }
                    (None, 1) => {
                        let z0 = zc[0];
                        for s in start..end {
                            table.add(xcol[s] as usize, 0, z0[s] as usize);
                        }
                    }
                    (None, _) => {
                        for s in start..end {
                            let mut z = 0usize;
                            for (col, &mul) in zc.iter().zip(zm) {
                                z += col[s] as usize * mul;
                            }
                            table.add(xcol[s] as usize, 0, z);
                        }
                    }
                }
            }
        }
    }

    /// The historical row-major fill — the baselines' access pattern.
    fn fill_rows(data: &Dataset, specs: &[FillSpec<'_>], tables: &mut [&mut ContingencyTable]) {
        for s in 0..data.n_samples() {
            let row = data.row(s);
            for (i, table) in tables.iter_mut().enumerate() {
                let table: &mut ContingencyTable = table;
                let spec = &specs[i];
                let mut z = 0usize;
                for (&c, &mul) in spec.cond.iter().zip(spec.zmul) {
                    z += row[c] as usize * mul;
                }
                let y = spec.y.map_or(0, |yv| row[yv] as usize);
                table.add(row[spec.x] as usize, y, z);
            }
        }
    }
}

impl CountEngine for TiledScan {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn fill_batch(
        &mut self,
        data: &Dataset,
        layout: Layout,
        specs: &[FillSpec<'_>],
        tables: &mut [&mut ContingencyTable],
    ) {
        debug_assert_eq!(specs.len(), tables.len());
        if specs.is_empty() {
            return;
        }
        match layout {
            Layout::RowMajor => Self::fill_rows(data, specs, tables),
            Layout::ColumnMajor => Self::fill_columns(data, specs, tables),
        }
    }
}

/// The bitmap/popcount engine: every count is a popcount over the
/// dataset's cached per-(variable, state) sample bitmaps
/// ([`fastbn_data::BitmapIndex`]), 64 samples per word.
///
/// States with zero global frequency are skipped entirely — their cells
/// stay zero either way — so the engine's work scales with the *observed*
/// configuration space. Counts the marginals already fix are derived, not
/// counted:
///
/// * **CI tables (`y = Some`, `d ≥ 1`)** count against cached pair
///   bitmaps. The first fill for `(x, y)` stores the `P` nonempty
///   `X=xs ∧ Y=ys` bitmaps with their totals `n_xy`; later fills for the
///   same `(dataset, x, y)` — every test of one edge — reuse them. Per
///   observed Z configuration, `P−1` cells are two-stream
///   `and_popcount(Z, pair)`s and the last pair takes `n_z − Σ`; the last
///   configuration takes each pair's `n_xy − Σ`. Cost
///   `Θ((ñz−1)·(P−1)·m/64)` word ops per table. Pairs that could exceed
///   the cache cap (32 Ki words = 256 KiB) fall back to the three-way
///   per-cell loop.
/// * **Depth-0 tables (`y = Some`, `d = 0`)** count the
///   `(r̃x−1)·(r̃y−1)` inner cells; each row's last column comes from X's
///   state frequency and the last row from Y's.
/// * **Score tables (`y = None`)** count each `X ∧ Z` cell.
///
/// The dataset layout is irrelevant here (the index is its own layout);
/// the `layout` parameter is accepted and ignored.
#[derive(Debug, Default)]
pub struct BitmapEngine {
    /// Intersection of the current Z-configuration's bitmaps.
    zbuf: Vec<u64>,
    /// Odometer position over the observed Z configurations.
    pos: Vec<usize>,
    /// `(dataset id, x, y)` of the cached pairs; `None` when empty.
    pair_key: Option<(u64, usize, usize)>,
    /// The cached nonempty `X=xs ∧ Y=ys` bitmaps, one word run each.
    pair_words: Vec<u64>,
    /// `(xs, ys)` of each cached pair.
    pair_states: Vec<(usize, usize)>,
    /// Samples in each cached pair (`n_xy`).
    pair_counts: Vec<u64>,
    /// Samples not yet placed in a cell, per pair (or per Y state at
    /// depth 0): what the last Z configuration (last X row) receives.
    rest: Vec<u64>,
}

impl BitmapEngine {
    /// Cap on the words the pair cache holds (32 Ki words = 256 KiB,
    /// L2-sized). A pair `(x, y)` whose observed-state product times
    /// `⌈m/64⌉` exceeds it is counted cell by cell instead, so hostile
    /// arities cannot grow the cache. A fixed constant, not a knob: it
    /// decides speed and memory, never counts.
    const PAIR_CACHE_WORDS: usize = 32 * 1024;

    /// A bitmap engine (scratch grows to the dataset's word count).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record which kernel tier served a table fill: the per-tier
    /// `fastbn.stats.simd.*_fills` counters accumulate fills, next to
    /// the `fastbn.stats.engine.*` pick counters. (The
    /// `fastbn.stats.simd.kernel` gauge is set by [`simd`] when the tier
    /// policy is resolved or changed.)
    fn record_tier(&self) {
        match simd::active_tier() {
            SimdTier::Scalar => fastbn_obs::counter!("fastbn.stats.simd.scalar_fills").inc(),
            SimdTier::Avx2 => fastbn_obs::counter!("fastbn.stats.simd.avx2_fills").inc(),
            SimdTier::Avx512 => fastbn_obs::counter!("fastbn.stats.simd.avx512_fills").inc(),
        }
    }

    /// Fill `table` from the dataset's (cached) bitmap index.
    fn fill_table(&mut self, data: &Dataset, spec: FillSpec<'_>, table: &mut ContingencyTable) {
        self.record_tier();
        debug_assert_eq!(spec.cond.len(), spec.zmul.len());
        debug_assert_eq!(table.rx(), data.arity(spec.x));
        debug_assert_eq!(table.ry(), spec.y.map_or(1, |y| data.arity(y)));
        if data.n_samples() == 0 {
            return; // no samples at all ⇒ the table stays zero
        }
        // Every column now has at least one observed state. All word
        // loops go through the tier-dispatched kernels in [`crate::simd`].
        match spec.y {
            Some(y) if spec.cond.is_empty() => self.fill_marginal(data, spec.x, y, table),
            Some(y) if self.load_pairs(data, spec.x, y) => self.fill_pairs(data, spec, table),
            _ => self.fill_cells(data, spec, table),
        }
    }

    /// Depth-0 `X × Y` table: count the `(r̃x−1)·(r̃y−1)` inner cells, and
    /// derive each row's last column from X's state frequency and the
    /// last row from Y's minus the rows above it.
    fn fill_marginal(&mut self, data: &Dataset, x: usize, y: usize, table: &mut ContingencyTable) {
        let idx = data.bitmap_index();
        let freqs = data.state_frequencies();
        let obs_y = data.observed_states(y);
        let (&x_last, x_inner) = data.observed_states(x).split_last().expect("m > 0");
        let (&y_last, y_inner) = obs_y.split_last().expect("m > 0");
        self.rest.clear();
        self.rest.extend(obs_y.iter().map(|&ys| freqs[y][ys]));
        for &xs in x_inner {
            let xw = idx.words(x, xs);
            let mut row = 0;
            for (j, &ys) in y_inner.iter().enumerate() {
                let c = simd::and_popcount(xw, idx.words(y, ys));
                table.add_count(xs, ys, 0, c as u32);
                row += c;
                self.rest[j] -= c;
            }
            let c = freqs[x][xs] - row;
            table.add_count(xs, y_last, 0, c as u32);
            self.rest[y_inner.len()] -= c;
        }
        for (&ys, &c) in obs_y.iter().zip(&self.rest) {
            table.add_count(x_last, ys, 0, c as u32);
        }
    }

    /// Make the pair cache hold the nonempty `X=xs ∧ Y=ys` bitmaps of
    /// `(x, y)` over `data`, building them unless they already do. False,
    /// with no pairs cached, when they could exceed
    /// [`Self::PAIR_CACHE_WORDS`].
    fn load_pairs(&mut self, data: &Dataset, x: usize, y: usize) -> bool {
        let key = (data.id(), x, y);
        if self.pair_key == Some(key) {
            return true;
        }
        self.pair_key = None;
        let idx = data.bitmap_index();
        let w = idx.n_words();
        let (obs_x, obs_y) = (data.observed_states(x), data.observed_states(y));
        let words = obs_x.len() * obs_y.len() * w;
        if words > Self::PAIR_CACHE_WORDS {
            return false;
        }
        self.pair_words.clear();
        self.pair_words.reserve_exact(words);
        self.pair_states.clear();
        self.pair_counts.clear();
        for &xs in obs_x {
            for &ys in obs_y {
                let start = self.pair_words.len();
                self.pair_words.extend_from_slice(idx.words(x, xs));
                let pair = &mut self.pair_words[start..];
                simd::and_assign(pair, idx.words(y, ys));
                let n = simd::popcount(pair);
                if n == 0 {
                    self.pair_words.truncate(start);
                } else {
                    self.pair_states.push((xs, ys));
                    self.pair_counts.push(n);
                }
            }
        }
        self.pair_key = Some(key);
        true
    }

    /// Depth ≥ 1 CI table against the cached pairs (see the type docs):
    /// `P−1` two-stream counts per observed Z configuration but the last.
    fn fill_pairs(&mut self, data: &Dataset, spec: FillSpec<'_>, table: &mut ContingencyTable) {
        let idx = data.bitmap_index();
        let freqs = data.state_frequencies();
        let w = idx.n_words();
        let d = spec.cond.len();
        let obs_z = |i: usize| data.observed_states(spec.cond[i]);
        let n_configs: usize = (0..d).map(|i| obs_z(i).len()).product();
        let last_pair = self.pair_states.len() - 1;
        self.rest.clear();
        self.rest.extend_from_slice(&self.pair_counts);
        self.pos.clear();
        self.pos.resize(d, 0);
        for _ in 1..n_configs {
            let z = z_index(&self.pos, obs_z, spec.zmul);
            // The configuration's bitmap and size: read in place at d = 1,
            // intersected into `zbuf` otherwise.
            let (zw, n_z) = if d == 1 {
                let zs = obs_z(0)[self.pos[0]];
                (idx.words(spec.cond[0], zs), freqs[spec.cond[0]][zs])
            } else {
                intersect_into(&mut self.zbuf, idx, spec.cond, &self.pos, obs_z);
                (&self.zbuf[..], simd::popcount(&self.zbuf))
            };
            if n_z > 0 {
                let mut placed = 0;
                for (p, pair) in self.pair_words.chunks_exact(w).take(last_pair).enumerate() {
                    let c = simd::and_popcount(zw, pair);
                    let (xs, ys) = self.pair_states[p];
                    table.add_count(xs, ys, z, c as u32);
                    placed += c;
                    self.rest[p] -= c;
                }
                let c = n_z - placed;
                let (xs, ys) = self.pair_states[last_pair];
                table.add_count(xs, ys, z, c as u32);
                self.rest[last_pair] -= c;
            }
            advance(&mut self.pos, obs_z);
        }
        // The last configuration receives whatever each pair has left.
        let z = z_index(&self.pos, obs_z, spec.zmul);
        for (&(xs, ys), &c) in self.pair_states.iter().zip(&self.rest) {
            table.add_count(xs, ys, z, c as u32);
        }
    }

    /// Count every observed cell with one AND + popcount (fused
    /// three-way for a CI table): score tables (`y = None`) and CI tables
    /// whose pairs exceed the cache cap.
    fn fill_cells(&mut self, data: &Dataset, spec: FillSpec<'_>, table: &mut ContingencyTable) {
        let idx = data.bitmap_index();
        let d = spec.cond.len();
        debug_assert!(
            d > 0 || spec.y.is_none(),
            "depth-0 CI tables take fill_marginal"
        );
        let obs_x = data.observed_states(spec.x);
        let obs_y = spec.y.map_or(&[][..], |y| data.observed_states(y));
        let obs_z = |i: usize| data.observed_states(spec.cond[i]);
        // Odometer over the observed Z configurations (runs once, with
        // z = 0, when the conditioning set is empty).
        self.pos.clear();
        self.pos.resize(d, 0);
        loop {
            let z = z_index(&self.pos, obs_z, spec.zmul);
            if d > 0 {
                intersect_into(&mut self.zbuf, idx, spec.cond, &self.pos, obs_z);
            }
            for &xs in obs_x {
                let xw = idx.words(spec.x, xs);
                match spec.y {
                    None => {
                        let c = if d == 0 {
                            simd::popcount(xw)
                        } else {
                            simd::and_popcount(&self.zbuf, xw)
                        };
                        if c > 0 {
                            table.add_count(xs, 0, z, c as u32);
                        }
                    }
                    // Fused three-way AND + popcount per cell — no X∩Z
                    // intermediate is materialised.
                    Some(yv) => {
                        for &ys in obs_y {
                            let c = simd::and_n_popcount(&[&self.zbuf, xw, idx.words(yv, ys)]);
                            if c > 0 {
                                table.add_count(xs, ys, z, c as u32);
                            }
                        }
                    }
                }
            }
            if !advance(&mut self.pos, obs_z) {
                return;
            }
        }
    }
}

/// Flat Z index of the odometer position `pos` over observed states.
fn z_index<'a>(pos: &[usize], obs_z: impl Fn(usize) -> &'a [usize], zmul: &[usize]) -> usize {
    pos.iter()
        .zip(zmul)
        .enumerate()
        .map(|(i, (&p, &mul))| obs_z(i)[p] * mul)
        .sum()
}

/// `zbuf` ← the intersection of the Z-configuration bitmaps at `pos`:
/// seeded from the first conditioning bitmap, then fused AND-assign.
fn intersect_into<'a>(
    zbuf: &mut Vec<u64>,
    idx: &BitmapIndex,
    cond: &[usize],
    pos: &[usize],
    obs_z: impl Fn(usize) -> &'a [usize],
) {
    zbuf.clear();
    zbuf.extend_from_slice(idx.words(cond[0], obs_z(0)[pos[0]]));
    for i in 1..cond.len() {
        simd::and_assign(zbuf, idx.words(cond[i], obs_z(i)[pos[i]]));
    }
}

/// Advance the odometer `pos` (last digit fastest); false once it wraps.
fn advance<'a>(pos: &mut [usize], obs_z: impl Fn(usize) -> &'a [usize]) -> bool {
    for i in (0..pos.len()).rev() {
        pos[i] += 1;
        if pos[i] < obs_z(i).len() {
            return true;
        }
        pos[i] = 0;
    }
    false
}

impl CountEngine for BitmapEngine {
    fn name(&self) -> &'static str {
        "bitmap"
    }

    fn fill_batch(
        &mut self,
        data: &Dataset,
        _layout: Layout,
        specs: &[FillSpec<'_>],
        tables: &mut [&mut ContingencyTable],
    ) {
        debug_assert_eq!(specs.len(), tables.len());
        for (spec, table) in specs.iter().zip(tables) {
            self.fill_table(data, *spec, table);
        }
    }

    fn fill_one(
        &mut self,
        data: &Dataset,
        _layout: Layout,
        spec: FillSpec<'_>,
        table: &mut ContingencyTable,
    ) {
        self.fill_table(data, spec, table);
    }
}

/// Which counting engine answers count queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineSelect {
    /// Pick per query from the cost model (see
    /// [`EngineSelect::prefers_bitmap`]).
    #[default]
    Auto,
    /// Always the tiled column scan.
    ForceTiled,
    /// Always the bitmap/popcount engine.
    ForceBitmap,
}

impl EngineSelect {
    /// Environment variable examples and the bench runner consult for an
    /// engine override (`auto` / `tiled` / `bitmap`).
    pub const ENV_VAR: &'static str = "FASTBN_COUNT_ENGINE";

    /// Short name used in bench output and logs.
    pub fn name(self) -> &'static str {
        match self {
            EngineSelect::Auto => "auto",
            EngineSelect::ForceTiled => "tiled",
            EngineSelect::ForceBitmap => "bitmap",
        }
    }

    /// Parse a policy name (`"auto"`, `"tiled"`, `"bitmap"`;
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(EngineSelect::Auto),
            "tiled" => Some(EngineSelect::ForceTiled),
            "bitmap" => Some(EngineSelect::ForceBitmap),
            _ => None,
        }
    }

    /// The override from [`EngineSelect::ENV_VAR`], if set.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a silently ignored typo in a CI
    /// matrix would void the per-engine coverage it exists to provide.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(Self::ENV_VAR).ok()?;
        match Self::parse(&raw) {
            Some(sel) => Some(sel),
            None => panic!(
                "unrecognized {}={raw:?} (expected auto | tiled | bitmap)",
                Self::ENV_VAR
            ),
        }
    }

    /// This policy, unless [`EngineSelect::ENV_VAR`] overrides it — the
    /// hook examples and the bench runner apply to their configs.
    pub fn or_env(self) -> Self {
        Self::from_env().unwrap_or(self)
    }

    /// The `Auto` cost model: true when the bitmap engine is expected to
    /// beat the tiled scan for this query.
    ///
    /// Every state bitmap is `w = ⌈m/64⌉` words. Per observed Z
    /// configuration the bitmap fill streams one word run per
    /// conditioning bitmap (`d · w`), one per X state (`r̃x · w`), and per
    /// (X, Y) cell one Y run (`r̃x · r̃y · w`; with no Y axis the
    /// accumulator re-read takes that slot) — observed arities `r̃` and
    /// observed configuration count `ñz`, since unobserved states are
    /// skipped outright.
    ///
    /// The tiled scan reads `m · (d + 2)` column elements. The two sides
    /// meet where word ops cross element reads scaled by the measured
    /// per-tier word-op throughput ([`crate::simd::word_ops_per_read`]):
    /// an AVX2/AVX-512 kernel retires several word ops per element read,
    /// moving the flip surface toward the bitmap engine (flip surfaces
    /// measured by `examples/calibrate.rs`; see `crates/stats/README.md`).
    /// With the scalar tier this reduces exactly to the historical
    /// `w · ñz · (d + r̃x·(1 + r̃y)) ≤ m · (d + 2)` rule.
    /// The model still prices the per-cell three-way path, not the
    /// cheaper pair path, on purpose: engine picks (and so every
    /// pick-ratio reading) stay where they were, and what the pair path
    /// saves depends on how many tests of an edge reuse its pairs, which a
    /// per-query price cannot see.
    /// Whatever the pick, counts are byte-identical — the model only
    /// decides speed, never results.
    pub fn prefers_bitmap(data: &Dataset, spec: &FillSpec<'_>) -> bool {
        let m = data.n_samples();
        if m == 0 {
            return false;
        }
        let w = m.div_ceil(64) as u64;
        let rx = data.observed_arity(spec.x) as u64;
        let d = spec.cond.len() as u64;
        let ry = spec.y.map_or(1, |y| data.observed_arity(y) as u64);
        let mut nz = 1u64;
        for &c in spec.cond {
            nz = nz.saturating_mul(data.observed_arity(c) as u64);
        }
        let per_config = d * w + rx.saturating_mul(w + ry * w);
        let bitmap_word_ops = nz.saturating_mul(per_config);
        let tiled_reads = (m as u64) * (d + 1 + spec.y.is_some() as u64);
        bitmap_word_ops <= tiled_reads.saturating_mul(simd::word_ops_per_read(simd::active_tier()))
    }
}

/// Both engines plus the selection policy — what every counting consumer
/// (the CI engine, the local scorer) holds, one per thread.
///
/// Under [`EngineSelect::Auto`], a batch is split per query: each table
/// goes to whichever engine the cost model prefers for *its* spec, and the
/// tiled subset still shares one dataset pass. Counts are identical either
/// way, so the split is invisible in the results.
#[derive(Debug, Default)]
pub struct CountingBackend {
    select: EngineSelect,
    tiled: TiledScan,
    bitmap: BitmapEngine,
    /// Queries answered by the tiled scan (per-backend; see
    /// [`CountingBackend::picks`]).
    tiled_picks: u64,
    /// Queries answered by the bitmap engine.
    bitmap_picks: u64,
}

impl CountingBackend {
    /// A backend with the given selection policy.
    pub fn new(select: EngineSelect) -> Self {
        Self {
            select,
            tiled: TiledScan::new(),
            bitmap: BitmapEngine::new(),
            tiled_picks: 0,
            bitmap_picks: 0,
        }
    }

    /// The active selection policy.
    pub fn select(&self) -> EngineSelect {
        self.select
    }

    /// Per-query engine picks so far: `(tiled, bitmap)` query counts.
    /// Backends are per-thread, so these are plain fields; the same
    /// counts are mirrored into the process-global metrics registry as
    /// `fastbn.stats.engine.tiled_picks` / `bitmap_picks`.
    pub fn picks(&self) -> (u64, u64) {
        (self.tiled_picks, self.bitmap_picks)
    }

    /// Record `tiled` + `bitmap` pick decisions locally and globally.
    #[inline]
    fn record_picks(&mut self, tiled: u64, bitmap: u64) {
        self.tiled_picks += tiled;
        self.bitmap_picks += bitmap;
        if tiled > 0 {
            fastbn_obs::counter!("fastbn.stats.engine.tiled_picks").add(tiled);
        }
        if bitmap > 0 {
            fastbn_obs::counter!("fastbn.stats.engine.bitmap_picks").add(bitmap);
        }
    }

    /// Fill one pre-shaped, zeroed table.
    pub fn fill_one(
        &mut self,
        data: &Dataset,
        layout: Layout,
        spec: FillSpec<'_>,
        table: &mut ContingencyTable,
    ) {
        let use_bitmap = match self.select {
            EngineSelect::ForceTiled => false,
            EngineSelect::ForceBitmap => true,
            EngineSelect::Auto => EngineSelect::prefers_bitmap(data, &spec),
        };
        self.record_picks(!use_bitmap as u64, use_bitmap as u64);
        // Per-query timing only under tracing: single fills are the score
        // searcher's innermost loop, where even an `Instant::now` pair is
        // measurable.
        let t0 = fastbn_obs::trace_enabled().then(std::time::Instant::now);
        if use_bitmap {
            self.bitmap.fill_one(data, layout, spec, table);
        } else {
            self.tiled.fill_one(data, layout, spec, table);
        }
        if let Some(t0) = t0 {
            fastbn_obs::histogram!("fastbn.stats.engine.fill_one_us")
                .observe_duration(t0.elapsed());
        }
    }

    /// Fill a batch of pre-shaped, zeroed tables (`specs[i]` → `tables[i]`).
    ///
    /// Allocates a small per-call `Vec` of table references (two under
    /// `Auto`) to adapt the slice to the trait's `&mut [&mut _]` shape —
    /// a handful of pointer-sized allocations per *batch*, which the g8d2
    /// microbench puts within noise of the pre-seam allocation-free path;
    /// a reusable buffer is not expressible here because the specs borrow
    /// the caller's per-call conditioning-set storage.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn fill_batch(
        &mut self,
        data: &Dataset,
        layout: Layout,
        specs: &[FillSpec<'_>],
        tables: &mut [ContingencyTable],
    ) {
        assert_eq!(specs.len(), tables.len(), "one spec per table");
        let t0 = std::time::Instant::now();
        match self.select {
            EngineSelect::ForceTiled => {
                self.record_picks(specs.len() as u64, 0);
                let mut refs: Vec<&mut ContingencyTable> = tables.iter_mut().collect();
                self.tiled.fill_batch(data, layout, specs, &mut refs);
            }
            EngineSelect::ForceBitmap => {
                self.record_picks(0, specs.len() as u64);
                let mut refs: Vec<&mut ContingencyTable> = tables.iter_mut().collect();
                self.bitmap.fill_batch(data, layout, specs, &mut refs);
            }
            EngineSelect::Auto => {
                let mut tiled_specs: Vec<FillSpec<'_>> = Vec::new();
                let mut tiled_tables: Vec<&mut ContingencyTable> = Vec::new();
                let mut bitmap_specs: Vec<FillSpec<'_>> = Vec::new();
                let mut bitmap_tables: Vec<&mut ContingencyTable> = Vec::new();
                for (spec, table) in specs.iter().zip(tables.iter_mut()) {
                    if EngineSelect::prefers_bitmap(data, spec) {
                        bitmap_specs.push(*spec);
                        bitmap_tables.push(table);
                    } else {
                        tiled_specs.push(*spec);
                        tiled_tables.push(table);
                    }
                }
                self.record_picks(tiled_specs.len() as u64, bitmap_specs.len() as u64);
                self.tiled
                    .fill_batch(data, layout, &tiled_specs, &mut tiled_tables);
                self.bitmap
                    .fill_batch(data, layout, &bitmap_specs, &mut bitmap_tables);
            }
        }
        // Batch-level timing is always on: two clock reads amortized over
        // the whole batch are noise next to the fill itself.
        fastbn_obs::histogram!("fastbn.stats.engine.fill_batch_us").observe_duration(t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 7 variables, mixed arities, with a declared-but-unobserved state in
    /// variable 3 (exercises the observed-state skipping).
    fn data() -> Dataset {
        let m = 200;
        let mut cols: Vec<Vec<u8>> = vec![Vec::new(); 7];
        let arities = [2u8, 3, 2, 4, 3, 5, 5];
        let mut state = 0x5EED_CAFEu64;
        for _ in 0..m {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 16;
            cols[0].push((r & 1) as u8);
            cols[1].push(((r >> 3) % 3) as u8);
            cols[2].push(((r >> 7) & 1) as u8);
            // Arity 4 declared, state 3 never observed.
            cols[3].push(((r >> 11) % 3) as u8);
            cols[4].push(((r >> 17) % 3) as u8);
            cols[5].push(((r >> 23) % 5) as u8);
            cols[6].push(((r >> 29) % 5) as u8);
        }
        Dataset::from_columns(vec![], arities.to_vec(), cols).unwrap()
    }

    /// Every (x, y?, cond) shape this workspace uses, cross-checked
    /// cell-for-cell between the two engines and both tiled layouts.
    #[test]
    fn engines_agree_cell_for_cell() {
        let d = data();
        let cases: Vec<(usize, Option<usize>, Vec<usize>)> = vec![
            (0, Some(1), vec![]),
            (0, Some(2), vec![1]),
            (1, Some(4), vec![0, 3]),
            (0, Some(1), vec![2, 3, 4]),
            (1, None, vec![]),
            (3, None, vec![0, 1]),
            (4, None, vec![0, 1, 2]),
        ];
        for (x, y, cond) in cases {
            let rx = d.arity(x);
            let ry = y.map_or(1, |y| d.arity(y));
            let mut zmul = vec![0usize; cond.len()];
            let nz = crate::contingency::mixed_radix_strides(
                |i| d.arity(cond[i]),
                &mut zmul,
                rx * ry,
                1 << 20,
            )
            .unwrap()
            .max(1);
            let spec = FillSpec {
                x,
                y,
                cond: &cond,
                zmul: &zmul,
            };
            let mut reference = ContingencyTable::new(rx, ry, nz);
            TiledScan::new().fill_one(&d, Layout::ColumnMajor, spec, &mut reference);
            // Sanity: the reference saw every sample.
            assert_eq!(reference.total(), d.n_samples() as u64);
            for (label, table) in [
                ("tiled/RowMajor", {
                    let mut t = ContingencyTable::new(rx, ry, nz);
                    TiledScan::new().fill_one(&d, Layout::RowMajor, spec, &mut t);
                    t
                }),
                ("bitmap", {
                    let mut t = ContingencyTable::new(rx, ry, nz);
                    BitmapEngine::new().fill_one(&d, Layout::ColumnMajor, spec, &mut t);
                    t
                }),
            ] {
                assert_eq!(
                    reference.raw(),
                    table.raw(),
                    "{label}: x={x} y={y:?} cond={cond:?}"
                );
            }
        }
    }

    #[test]
    fn auto_backend_matches_forced_backends_on_a_mixed_batch() {
        let d = data();
        // A batch mixing bitmap-friendly (tiny) and tiled-friendly (wide)
        // specs so Auto actually splits it.
        let conds: Vec<Vec<usize>> = vec![vec![], vec![2], vec![2, 3, 4]];
        let zmuls: Vec<Vec<usize>> = conds
            .iter()
            .map(|c| {
                let mut zm = vec![0usize; c.len()];
                crate::contingency::mixed_radix_strides(|i| d.arity(c[i]), &mut zm, 6, 1 << 20)
                    .unwrap();
                zm
            })
            .collect();
        let specs: Vec<FillSpec<'_>> = conds
            .iter()
            .zip(&zmuls)
            .map(|(c, zm)| FillSpec {
                x: 0,
                y: Some(1),
                cond: c,
                zmul: zm,
            })
            .collect();
        let shapes: Vec<usize> = conds
            .iter()
            .map(|c| c.iter().map(|&v| d.arity(v)).product::<usize>().max(1))
            .collect();
        let fill_all = |select: EngineSelect| -> Vec<ContingencyTable> {
            let mut tables: Vec<ContingencyTable> = shapes
                .iter()
                .map(|&nz| ContingencyTable::new(2, 3, nz))
                .collect();
            CountingBackend::new(select).fill_batch(&d, Layout::ColumnMajor, &specs, &mut tables);
            tables
        };
        let auto = fill_all(EngineSelect::Auto);
        let tiled = fill_all(EngineSelect::ForceTiled);
        let bitmap = fill_all(EngineSelect::ForceBitmap);
        for i in 0..specs.len() {
            assert_eq!(auto[i].raw(), tiled[i].raw(), "spec {i} auto vs tiled");
            assert_eq!(auto[i].raw(), bitmap[i].raw(), "spec {i} auto vs bitmap");
        }
    }

    #[test]
    fn cost_model_flips_with_query_shape() {
        // The flip point depends on the active kernel tier's word-op
        // throughput; pin the scalar tier so the assertions hold on any
        // hardware (and hold the guard against concurrent tier flips).
        let _guard = crate::simd::tier_test_guard();
        crate::simd::set_forced_tier(Some(SimdTier::Scalar));
        let d = data();
        let small = FillSpec {
            x: 0,
            y: Some(2),
            cond: &[],
            zmul: &[],
        };
        assert!(
            EngineSelect::prefers_bitmap(&d, &small),
            "2×2 marginal at m=200 is bitmap territory"
        );
        // A wide conditioning set: observed config space 3·5·5 = 75 with
        // 3×3 tables per config ⇒ word ops outgrow the scan.
        let cond = [3usize, 5, 6];
        let zmul = [25usize, 5, 1];
        let wide = FillSpec {
            x: 1,
            y: Some(4),
            cond: &cond,
            zmul: &zmul,
        };
        assert!(
            !EngineSelect::prefers_bitmap(&d, &wide),
            "wide conditioning sets stay on the tiled scan"
        );
        crate::simd::set_forced_tier(None);
    }

    #[test]
    fn select_parsing_and_names() {
        for (s, want) in [
            ("auto", EngineSelect::Auto),
            ("TILED", EngineSelect::ForceTiled),
            ("Bitmap", EngineSelect::ForceBitmap),
        ] {
            assert_eq!(EngineSelect::parse(s), Some(want));
            assert_eq!(EngineSelect::parse(want.name()), Some(want));
        }
        assert_eq!(EngineSelect::parse("popcount"), None);
        assert_eq!(EngineSelect::default(), EngineSelect::Auto);
    }

    #[test]
    fn backend_counts_per_query_engine_picks() {
        // Pick assertions go through the tier-scaled cost model: pin the
        // scalar tier (see `cost_model_flips_with_query_shape`).
        let _guard = crate::simd::tier_test_guard();
        crate::simd::set_forced_tier(Some(SimdTier::Scalar));
        let d = data();
        // Mirror of `auto_backend_matches_forced_backends_on_a_mixed_batch`:
        // a tiny marginal (bitmap side) plus a wide conditioning set
        // (tiled side) in one Auto batch.
        let cond = [3usize, 5, 6];
        let zmul = [25usize, 5, 1];
        let small = FillSpec {
            x: 1,
            y: Some(4),
            cond: &[],
            zmul: &[],
        };
        let wide = FillSpec {
            x: 1,
            y: Some(4),
            cond: &cond,
            zmul: &zmul,
        };
        assert!(EngineSelect::prefers_bitmap(&d, &small));
        assert!(!EngineSelect::prefers_bitmap(&d, &wide));

        let mut backend = CountingBackend::new(EngineSelect::Auto);
        let mut t_small = ContingencyTable::new(3, 3, 1);
        let mut t_wide = ContingencyTable::new(3, 3, 100);
        backend.fill_one(&d, Layout::ColumnMajor, small, &mut t_small);
        assert_eq!(backend.picks(), (0, 1), "marginal goes to the bitmap");
        backend.fill_one(&d, Layout::ColumnMajor, wide, &mut t_wide);
        assert_eq!(backend.picks(), (1, 1), "wide cond goes to the tiled scan");
        let mut tables = vec![
            ContingencyTable::new(3, 3, 1),
            ContingencyTable::new(3, 3, 100),
        ];
        backend.fill_batch(&d, Layout::ColumnMajor, &[small, wide], &mut tables);
        assert_eq!(backend.picks(), (2, 2), "Auto batch splits per query");

        let mut forced = CountingBackend::new(EngineSelect::ForceTiled);
        let mut t = ContingencyTable::new(3, 3, 1);
        forced.fill_one(&d, Layout::ColumnMajor, small, &mut t);
        assert_eq!(forced.picks(), (1, 0), "forcing overrides the cost model");
        crate::simd::set_forced_tier(None);
    }

    #[test]
    fn simd_kernel_gauge_tracks_the_active_tier() {
        let _guard = crate::simd::tier_test_guard();
        let d = data();
        let spec = FillSpec {
            x: 0,
            y: Some(1),
            cond: &[],
            zmul: &[],
        };
        let gauge = fastbn_obs::gauge!("fastbn.stats.simd.kernel");
        let mut tiers = vec![None, Some(SimdTier::Scalar)];
        if crate::simd::detected_tier() >= SimdTier::Avx2 {
            tiers.push(Some(SimdTier::Avx2));
        }
        for tier in tiers {
            crate::simd::set_forced_tier(tier);
            // Published by the policy change itself, before any fill.
            assert_eq!(gauge.get(), crate::simd::active_tier() as i64, "{tier:?}");
            let mut t = ContingencyTable::new(2, 3, 1);
            CountingBackend::new(EngineSelect::ForceBitmap).fill_one(
                &d,
                Layout::ColumnMajor,
                spec,
                &mut t,
            );
            assert_eq!(gauge.get(), crate::simd::active_tier() as i64, "{tier:?}");
        }
        crate::simd::set_forced_tier(None);
    }

    /// Two ~200-state columns: their pair bitmaps would outgrow
    /// [`BitmapEngine::PAIR_CACHE_WORDS`], so the engine counts cell by
    /// cell, exactly, and its cache stays under the cap — also after a
    /// small pair filled it first, and for that pair again afterwards.
    #[test]
    fn pairs_over_the_cap_take_the_cell_loop() {
        let m = 2000;
        let mut state = 0xCA9_u64;
        let mut next = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % modulus) as u8
        };
        let cols: Vec<Vec<u8>> = [200u64, 200, 3, 2]
            .iter()
            .map(|&a| (0..m).map(|_| next(a)).collect())
            .collect();
        let d = Dataset::from_columns(vec![], vec![200, 200, 3, 2], cols).unwrap();
        let words = d.observed_arity(0) * d.observed_arity(1) * d.bitmap_index().n_words();
        assert!(
            words > BitmapEngine::PAIR_CACHE_WORDS,
            "{words} words fit the cap"
        );

        let mut engine = BitmapEngine::new();
        for (x, y, cond, zmul) in [(2, 3, [0], [1]), (0, 1, [2], [1]), (2, 3, [1], [1])] {
            let (rx, ry, nz) = (d.arity(x), d.arity(y), d.arity(cond[0]));
            let spec = FillSpec {
                x,
                y: Some(y),
                cond: &cond,
                zmul: &zmul,
            };
            let mut reference = ContingencyTable::new(rx, ry, nz);
            TiledScan::new().fill_one(&d, Layout::ColumnMajor, spec, &mut reference);
            let mut t = ContingencyTable::new(rx, ry, nz);
            engine.fill_one(&d, Layout::ColumnMajor, spec, &mut t);
            assert_eq!(reference.raw(), t.raw(), "x={x} y={y} cond={cond:?}");
            let over_cap = x == 0;
            assert_eq!(engine.pair_key.is_none(), over_cap, "x={x} y={y}");
            assert!(engine.pair_words.capacity() <= BitmapEngine::PAIR_CACHE_WORDS);
        }
    }

    #[test]
    fn empty_dataset_fills_to_zero_tables() {
        let d = Dataset::from_columns(vec![], vec![2, 2], vec![vec![], vec![]]).unwrap();
        let spec = FillSpec {
            x: 0,
            y: Some(1),
            cond: &[],
            zmul: &[],
        };
        for select in [EngineSelect::ForceTiled, EngineSelect::ForceBitmap] {
            let mut t = ContingencyTable::new(2, 2, 1);
            CountingBackend::new(select).fill_one(&d, Layout::ColumnMajor, spec, &mut t);
            assert_eq!(t.total(), 0, "{select:?}");
        }
    }
}
