//! Decomposable scoring functions: BIC, AIC, BDeu and BDs local scores.
//!
//! A decomposable score of a DAG `G` over discrete data factorizes as
//! `score(G) = Σ_v local(v, Pa_G(v))`, so structure search only ever needs
//! the **local score** of one (child, parent-set) pair — a pure function of
//! the child's conditional count table. That table is an ordinary
//! [`ContingencyTable`] with `rx = r_v` child states, `ry = 1` and
//! `nz = q` parent configurations, filled through a [`TableArena`]
//! ([`fastbn_stats::batch`]) and the counting backend's tiled dataset
//! sweep: one pass over the samples fills every table of a batch, reading
//! the child column once per sample block.
//!
//! All four scores are computed with a **fixed summation order** (parent
//! configurations outer, child states inner, parents encoded most
//! significant first in ascending variable order), so a local score is
//! bit-for-bit reproducible regardless of thread, cache state or batch
//! composition — the foundation of the searcher's cross-thread determinism.

use fastbn_data::{Dataset, Layout};
use fastbn_stats::{
    ln_gamma, mixed_radix_strides, ContingencyTable, CountingBackend, EngineSelect, FillSpec,
    TableArena,
};

/// Which decomposable score the searcher maximizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScoreKind {
    /// Bayesian information criterion: `LL − (ln m / 2)·(r−1)·q` per node.
    Bic,
    /// Akaike information criterion: `LL − (r−1)·q` per node — the same
    /// likelihood with a sample-size-independent penalty, so it keeps more
    /// edges than BIC on large datasets.
    Aic,
    /// Bayesian Dirichlet equivalent uniform with equivalent sample size
    /// `ess` (bnlearn's `bde` with `iss = ess`).
    BDeu {
        /// The equivalent sample size `α > 0` (commonly 1.0).
        ess: f64,
    },
    /// Bayesian Dirichlet sparse (Scutari 2016): BDeu with the prior mass
    /// spread only over the parent configurations **actually observed** in
    /// the data (`α_j = ess / q̃` with `q̃` the observed-configuration
    /// count), which removes BDeu's bias against large parent sets whose
    /// configuration space the data barely covers. Coincides bitwise with
    /// BDeu whenever every configuration is observed.
    BDs {
        /// The equivalent sample size `α > 0` (commonly 1.0).
        ess: f64,
    },
}

impl ScoreKind {
    /// Short name used in bench output and logs.
    pub fn name(self) -> &'static str {
        match self {
            ScoreKind::Bic => "bic",
            ScoreKind::Aic => "aic",
            ScoreKind::BDeu { .. } => "bdeu",
            ScoreKind::BDs { .. } => "bds",
        }
    }
}

/// Computes local scores `local(v, P)` from the dataset.
///
/// Owns a [`TableArena`] so count tables are reshaped in place across
/// calls, and a stride scratch buffer — the per-thread workhorse pattern of
/// [`fastbn-core`'s `CiEngine`](https://docs.rs) applied to score counting.
/// One scorer per search thread; the scorer itself is single-threaded.
pub struct LocalScorer<'d> {
    data: &'d Dataset,
    kind: ScoreKind,
    layout: Layout,
    max_cells: usize,
    count: CountingBackend,
    arena: TableArena,
    /// Mixed-radix strides, flat `|P|`-strided per batch entry.
    strides_flat: Vec<usize>,
    /// Parent ids as `usize`, flat alongside `strides_flat` (the fill
    /// specs borrow conditioning variables in this form).
    parents_flat: Vec<usize>,
    /// Slot map of the current batch (None = oversized, unscorable).
    slots: Vec<Option<usize>>,
    /// Local scores actually computed (diagnostic).
    pub computed: u64,
    /// Parent sets whose count table would exceed `max_cells` (treated as
    /// unscorable; the searcher skips the move).
    pub oversized: u64,
}

impl<'d> LocalScorer<'d> {
    /// A scorer over `data` with the given score and table-size cap.
    pub fn new(data: &'d Dataset, kind: ScoreKind, max_cells: usize) -> Self {
        Self::with_options(
            data,
            kind,
            max_cells,
            Layout::ColumnMajor,
            EngineSelect::Auto,
        )
    }

    /// [`LocalScorer::new`] with an explicit dataset layout for the fill.
    pub fn with_layout(
        data: &'d Dataset,
        kind: ScoreKind,
        max_cells: usize,
        layout: Layout,
    ) -> Self {
        Self::with_options(data, kind, max_cells, layout, EngineSelect::Auto)
    }

    /// Fully explicit constructor: layout and counting backend.
    pub fn with_options(
        data: &'d Dataset,
        kind: ScoreKind,
        max_cells: usize,
        layout: Layout,
        engine: EngineSelect,
    ) -> Self {
        Self {
            data,
            kind,
            layout,
            max_cells,
            count: CountingBackend::new(engine),
            arena: TableArena::new(),
            strides_flat: Vec::new(),
            parents_flat: Vec::new(),
            slots: Vec::new(),
            computed: 0,
            oversized: 0,
        }
    }

    /// The configured score kind.
    pub fn kind(&self) -> ScoreKind {
        self.kind
    }

    /// Local score of child `v` with parent set `parents`.
    ///
    /// `parents` must be sorted ascending (the canonical encoding; the
    /// cache key and the config-index radix order both rely on it) and must
    /// not contain `v`. Returns `None` when the count table would exceed
    /// the cell cap — the searcher treats such a parent set as inadmissible.
    ///
    /// # Panics
    /// Panics (debug) if `parents` is unsorted or contains `v`.
    pub fn local_score(&mut self, v: usize, parents: &[u32]) -> Option<f64> {
        self.score_batch(v, std::slice::from_ref(&parents))
            .next()
            .expect("batch of one yields one score")
    }

    /// Local scores of child `v` for several candidate parent sets, with
    /// **one tiled pass** over the samples filling every count table — the
    /// batched sufficient-statistics path. Each parent set must be sorted
    /// ascending. Yields one `Option<f64>` per set, in order.
    pub fn score_batch<'a, P: AsRef<[u32]>>(
        &'a mut self,
        v: usize,
        parent_sets: &[P],
    ) -> impl Iterator<Item = Option<f64>> + 'a {
        let data = self.data;
        let rv = data.arity(v);
        let m = data.n_samples();

        // Shape pass: one arena slot per admissible parent set; strides are
        // mixed-radix with the *first* (smallest-id) parent most
        // significant, matching the canonical sorted encoding.
        self.arena.begin();
        self.slots.clear();
        self.strides_flat.clear();
        self.parents_flat.clear();
        for pset in parent_sets {
            let parents = pset.as_ref();
            debug_assert!(
                parents.windows(2).all(|w| w[0] < w[1]),
                "parent set must be sorted ascending: {parents:?}"
            );
            debug_assert!(
                !parents.contains(&(v as u32)),
                "child {v} cannot be its own parent"
            );
            match config_strides(data, parents, rv, self.max_cells, &mut self.strides_flat) {
                Some(q) => {
                    self.slots.push(Some(self.arena.add_table(rv, 1, q)));
                    self.parents_flat
                        .extend(parents.iter().map(|&p| p as usize));
                    self.computed += 1;
                }
                None => {
                    // Roll back the strides this set appended.
                    self.strides_flat
                        .truncate(self.strides_flat.len() - parents.len());
                    self.slots.push(None);
                    self.oversized += 1;
                }
            }
        }

        // Shared fill through the counting backend: the tiled engine reads
        // the child column once per sample block and scatters it into
        // every table; the bitmap engine
        // answers each `r_v × 1 × q` table by AND + popcount against the
        // cached sample-bitmap index. Counts are identical either way.
        if !self.arena.is_empty() {
            let mut specs: Vec<FillSpec<'_>> = Vec::with_capacity(self.arena.len());
            let mut base = 0usize;
            for (slot, pset) in self.slots.iter().zip(parent_sets) {
                if slot.is_none() {
                    continue;
                }
                let np = pset.as_ref().len();
                specs.push(FillSpec {
                    x: v,
                    y: None,
                    cond: &self.parents_flat[base..base + np],
                    zmul: &self.strides_flat[base..base + np],
                });
                base += np;
            }
            self.arena.fill(&mut self.count, data, self.layout, &specs);
        }

        // Evaluation pass, in slot order (fixed summation order per table).
        let kind = self.kind;
        let arena = &self.arena;
        self.slots
            .iter()
            .map(move |slot| slot.map(|i| eval_local(kind, arena.table(i), m)))
    }
}

/// Mixed-radix strides for a sorted parent set, first parent most
/// significant. Appends `parents.len()` strides to `out` and returns the
/// configuration count `q`, or `None` if `q · r_v` would exceed
/// `max_cells`. Thin wrapper over the workspace-wide radix definition
/// ([`fastbn_stats::mixed_radix_strides`]), so parent-configuration
/// indexing and the CI engine's Z indexing can never diverge.
fn config_strides(
    data: &Dataset,
    parents: &[u32],
    rv: usize,
    max_cells: usize,
    out: &mut Vec<usize>,
) -> Option<usize> {
    let base = out.len();
    out.resize(base + parents.len(), 0);
    mixed_radix_strides(
        |i| data.arity(parents[i] as usize),
        &mut out[base..],
        rv,
        max_cells,
    )
}

/// Evaluate the configured score on a filled `r_v × 1 × q` count table.
///
/// Iteration is configuration-outer / state-inner in increasing index —
/// the fixed order that makes local scores bit-reproducible.
fn eval_local(kind: ScoreKind, table: &ContingencyTable, m: usize) -> f64 {
    let r = table.rx();
    let q = table.nz();
    match kind {
        ScoreKind::Bic | ScoreKind::Aic => {
            let mut ll = 0.0f64;
            for c in 0..q {
                let counts = table.z_slice(c);
                let nc: u64 = counts.iter().map(|&x| x as u64).sum();
                if nc == 0 {
                    continue;
                }
                let nc_f = nc as f64;
                for &nck in counts {
                    if nck > 0 {
                        let nck_f = nck as f64;
                        ll += nck_f * (nck_f / nc_f).ln();
                    }
                }
            }
            let params = ((r - 1) * q) as f64;
            match kind {
                ScoreKind::Bic => ll - 0.5 * (m as f64).ln() * params,
                _ => ll - params,
            }
        }
        ScoreKind::BDeu { ess } => {
            assert!(ess > 0.0, "BDeu equivalent sample size must be positive");
            let alpha_q = ess / q as f64;
            let alpha_qr = alpha_q / r as f64;
            let lg_aq = ln_gamma(alpha_q);
            let lg_aqr = ln_gamma(alpha_qr);
            let mut score = 0.0f64;
            for c in 0..q {
                let counts = table.z_slice(c);
                let nc: u64 = counts.iter().map(|&x| x as u64).sum();
                score += lg_aq - ln_gamma(alpha_q + nc as f64);
                for &nck in counts {
                    score += ln_gamma(alpha_qr + nck as f64) - lg_aqr;
                }
            }
            score
        }
        ScoreKind::BDs { ess } => {
            assert!(ess > 0.0, "BDs equivalent sample size must be positive");
            // First pass (fixed order): count the observed configurations
            // q̃; the prior mass is spread over those alone. Unobserved
            // configurations contribute exactly zero (their Gamma terms
            // cancel), so the second pass skips them — which makes BDs
            // coincide bitwise with BDeu whenever q̃ == q.
            let q_obs = (0..q)
                .filter(|&c| table.z_slice(c).iter().any(|&x| x > 0))
                .count();
            if q_obs == 0 {
                return 0.0;
            }
            let alpha_q = ess / q_obs as f64;
            let alpha_qr = alpha_q / r as f64;
            let lg_aq = ln_gamma(alpha_q);
            let lg_aqr = ln_gamma(alpha_qr);
            let mut score = 0.0f64;
            for c in 0..q {
                let counts = table.z_slice(c);
                let nc: u64 = counts.iter().map(|&x| x as u64).sum();
                if nc == 0 {
                    continue;
                }
                score += lg_aq - ln_gamma(alpha_q + nc as f64);
                for &nck in counts {
                    score += ln_gamma(alpha_qr + nck as f64) - lg_aqr;
                }
            }
            score
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_data() -> Dataset {
        // x uniform bit, y = x with 25% flips, z independent ternary.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut state = 0x5EEDu64;
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 16;
            let a = (r & 1) as u8;
            x.push(a);
            y.push(if r % 100 < 25 { 1 - a } else { a });
            z.push(((r >> 8) % 3) as u8);
        }
        Dataset::from_columns(vec![], vec![2, 2, 3], vec![x, y, z]).unwrap()
    }

    #[test]
    fn bic_matches_hand_computation_for_root_node() {
        // Root node: LL = Σ_k N_k ln(N_k/m); params = r−1.
        let data = small_data();
        let m = data.n_samples() as f64;
        let mut scorer = LocalScorer::new(&data, ScoreKind::Bic, 1 << 20);
        let got = scorer.local_score(0, &[]).unwrap();
        let col = data.column(0);
        let n1 = col.iter().filter(|&&v| v == 1).count() as f64;
        let n0 = m - n1;
        let expect = n0 * (n0 / m).ln() + n1 * (n1 / m).ln() - 0.5 * m.ln();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn true_parent_beats_empty_and_spurious_parent() {
        // y's true parent is x; BIC(y | x) must beat BIC(y | ∅) and
        // BIC(y | z) (z is independent noise with an extra-parameter cost).
        let data = small_data();
        for kind in [ScoreKind::Bic, ScoreKind::BDeu { ess: 1.0 }] {
            let mut scorer = LocalScorer::new(&data, kind, 1 << 20);
            let with_x = scorer.local_score(1, &[0]).unwrap();
            let empty = scorer.local_score(1, &[]).unwrap();
            let with_z = scorer.local_score(1, &[2]).unwrap();
            assert!(with_x > empty, "{kind:?}: true parent must improve");
            assert!(with_x > with_z, "{kind:?}: true parent beats noise");
            assert!(empty > with_z, "{kind:?}: noise parent costs params");
        }
    }

    #[test]
    fn batch_matches_single_calls() {
        let data = small_data();
        for kind in [ScoreKind::Bic, ScoreKind::BDeu { ess: 2.0 }] {
            let sets: Vec<Vec<u32>> = vec![vec![], vec![0], vec![2], vec![0, 2]];
            let mut batch_scorer = LocalScorer::new(&data, kind, 1 << 20);
            let batched: Vec<Option<f64>> = batch_scorer.score_batch(1, &sets).collect();
            let mut single_scorer = LocalScorer::new(&data, kind, 1 << 20);
            for (set, b) in sets.iter().zip(&batched) {
                let s = single_scorer.local_score(1, set);
                assert_eq!(s.is_some(), b.is_some());
                assert_eq!(s, *b, "{kind:?} parents {set:?} (exact same fill+eval)");
            }
        }
    }

    #[test]
    fn layouts_agree_exactly() {
        let data = small_data();
        let mut col = LocalScorer::new(&data, ScoreKind::Bic, 1 << 20);
        let mut row = LocalScorer::with_layout(&data, ScoreKind::Bic, 1 << 20, Layout::RowMajor);
        for (v, parents) in [
            (0usize, vec![]),
            (1, vec![0]),
            (1, vec![0, 2]),
            (2, vec![0, 1]),
        ] {
            assert_eq!(
                col.local_score(v, &parents),
                row.local_score(v, &parents),
                "v={v} parents={parents:?}"
            );
        }
    }

    #[test]
    fn oversized_parent_set_is_unscorable() {
        let data = small_data();
        // r_v · q = 2 · (2·3) = 12 > 8.
        let mut scorer = LocalScorer::new(&data, ScoreKind::Bic, 8);
        assert_eq!(scorer.local_score(1, &[0, 2]), None);
        assert_eq!(scorer.oversized, 1);
        // A small set still scores, arena slot reuse notwithstanding.
        assert!(scorer.local_score(1, &[0]).is_some());
    }

    #[test]
    fn aic_matches_hand_computation_for_root_node() {
        // Root node: LL = Σ_k N_k ln(N_k/m); AIC penalty = r−1 (no ln m).
        let data = small_data();
        let m = data.n_samples() as f64;
        let mut scorer = LocalScorer::new(&data, ScoreKind::Aic, 1 << 20);
        let got = scorer.local_score(0, &[]).unwrap();
        let col = data.column(0);
        let n1 = col.iter().filter(|&&v| v == 1).count() as f64;
        let n0 = m - n1;
        let expect = n0 * (n0 / m).ln() + n1 * (n1 / m).ln() - 1.0;
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
        // AIC penalizes less than BIC once ln m > 2, so it scores higher.
        let bic = LocalScorer::new(&data, ScoreKind::Bic, 1 << 20)
            .local_score(0, &[])
            .unwrap();
        assert!(got > bic, "AIC {got} must beat BIC {bic} at m=800");
    }

    #[test]
    fn aic_keeps_the_true_parent_ordering() {
        let data = small_data();
        let mut scorer = LocalScorer::new(&data, ScoreKind::Aic, 1 << 20);
        let with_x = scorer.local_score(1, &[0]).unwrap();
        let empty = scorer.local_score(1, &[]).unwrap();
        let with_z = scorer.local_score(1, &[2]).unwrap();
        assert!(with_x > empty, "true parent must improve");
        assert!(with_x > with_z, "true parent beats noise");
    }

    #[test]
    fn bds_equals_bdeu_when_every_configuration_is_observed() {
        // 800 samples over ≤ 6 parent configurations: every configuration
        // occurs, so q̃ == q and BDs must coincide bitwise with BDeu.
        let data = small_data();
        for ess in [0.5, 1.0, 4.0] {
            let mut bds = LocalScorer::new(&data, ScoreKind::BDs { ess }, 1 << 20);
            let mut bdeu = LocalScorer::new(&data, ScoreKind::BDeu { ess }, 1 << 20);
            for (v, parents) in [
                (0usize, vec![]),
                (1, vec![0]),
                (1, vec![0, 2]),
                (2, vec![1]),
            ] {
                assert_eq!(
                    bds.local_score(v, &parents),
                    bdeu.local_score(v, &parents),
                    "ess={ess} v={v} parents={parents:?}"
                );
            }
        }
    }

    #[test]
    fn bds_diverges_from_bdeu_on_unobserved_configurations() {
        // Parent column never takes value 2 (arity 3 declared, only 0/1
        // observed): a third of the configuration space is empty, so BDs
        // spreads its prior over q̃ = 2 < q = 3 and the scores differ.
        let x = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
        let y = vec![0u8, 1, 1, 0, 0, 1, 1, 0];
        let data = Dataset::from_columns(vec![], vec![3, 2], vec![x, y]).unwrap();
        let mut bds = LocalScorer::new(&data, ScoreKind::BDs { ess: 1.0 }, 1 << 20);
        let mut bdeu = LocalScorer::new(&data, ScoreKind::BDeu { ess: 1.0 }, 1 << 20);
        let s_bds = bds.local_score(1, &[0]).unwrap();
        let s_bdeu = bdeu.local_score(1, &[0]).unwrap();
        assert!(
            (s_bds - s_bdeu).abs() > 1e-12,
            "BDs {s_bds} must diverge from BDeu {s_bdeu} with empty configs"
        );
        assert!(s_bds.is_finite() && s_bdeu.is_finite());
    }

    #[test]
    fn score_kind_names_are_stable() {
        assert_eq!(ScoreKind::Bic.name(), "bic");
        assert_eq!(ScoreKind::Aic.name(), "aic");
        assert_eq!(ScoreKind::BDeu { ess: 1.0 }.name(), "bdeu");
        assert_eq!(ScoreKind::BDs { ess: 1.0 }.name(), "bds");
    }

    #[test]
    fn bdeu_prefers_data_supported_structures_over_ess_extremes() {
        // Sanity: BDeu stays finite and ordered for a range of ess values.
        let data = small_data();
        for ess in [0.1, 1.0, 10.0] {
            let mut scorer = LocalScorer::new(&data, ScoreKind::BDeu { ess }, 1 << 20);
            let s = scorer.local_score(1, &[0]).unwrap();
            assert!(s.is_finite(), "ess={ess}");
        }
    }
}
