//! Parallel greedy hill climbing and tabu search over DAG space, with
//! incrementally maintained candidate-move deltas.
//!
//! The searcher repeatedly evaluates the admissible **add / delete /
//! reverse** moves against the current DAG, applies one (the best
//! improving move, or — in tabu mode — the best non-improving one when
//! stuck), and stops at a local optimum; seeded random restarts perturb
//! the best DAG found and climb again. Three properties are load-bearing:
//!
//! * **Incremental delta maintenance.** A move's score delta is a pure
//!   function of the parent sets (and current local scores) of the
//!   children it edits — `v` for `Add`/`Delete(u, v)`, both endpoints for
//!   `Reverse`. Applying a move therefore invalidates only the deltas
//!   whose score-children intersect the applied move's touched set; every
//!   other delta carries over bit-for-bit. [`MoveEval::Incremental`] keeps
//!   a table of live deltas across iterations and fans **only the stale
//!   slice** over [`fastbn_parallel::StealPool`]; [`MoveEval::Full`]
//!   re-evaluates everything each iteration and is kept as the test
//!   oracle — the two must produce byte-identical DAGs.
//!   (Structural admissibility — acyclicity, parent caps, the restriction
//!   graph — is recomputed from the DAG every iteration, so only *deltas*
//!   are ever carried, never validity.)
//! * **Parallel delta evaluation.** Scoring candidate moves is the
//!   dominant, embarrassingly parallel cost (each delta is one or two
//!   local-score computations — count-table fills over the dataset). The
//!   stale move list is adjacency-sharded by the move's child onto the
//!   stealing deques — moves touching the same child colocate with that
//!   child's data columns — and idle threads steal, exactly the
//!   scheduling the skeleton phase uses for CI tests.
//! * **Determinism.** Deltas are pure functions of `(move, DAG, data)`
//!   computed with a fixed summation order, results are gathered by move
//!   index, and the applied move is the *first* maximum in **canonical
//!   move order** (all adds in lexicographic `(u, v)` order, then all
//!   deletes, then all reverses). Thread count, steal interleaving, cache
//!   state and evaluation mode are therefore invisible: the learned DAG
//!   is byte-identical at 1, 2, 4 or 8 threads, with the cache on or off,
//!   incremental or full — the same discipline the cross-impl suite
//!   enforces on the constraint-based side.
//!
//! **Tabu semantics.** The tabu ring remembers the last `tabu_len`
//! *applied* moves and blocks every move that would undo one of their
//! edge-state changes ([`Move::undoers`]): re-adding a deleted edge,
//! re-deleting an added one, and — for a reversal `u→v ⇒ v→u` — both
//! re-reversing *and* deleting the new `v→u` edge (blocking only the
//! re-reverse would let a delete undo the reversal one iteration later, a
//! real plateau cycle once non-improving moves are accepted). A tabu move
//! is still admissible under the **aspiration criterion**: it may be
//! applied if it would beat the best total score seen this climb. With
//! `tabu_search` enabled the searcher accepts the best admissible
//! non-improving move when no improving one exists, bounded by `tabu_len`
//! consecutive moves without a new incumbent; the result is always the
//! best DAG seen, not the last one visited.

use crate::cache::ScoreCache;
use crate::score::{LocalScorer, ScoreKind};
use fastbn_data::{Dataset, Layout};
use fastbn_graph::{Dag, UGraph};
use fastbn_parallel::{run_steal_pool, shard_by_key, StealPool, StepResult, Team};
use fastbn_stats::EngineSelect;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Observer of a running search — the progress/cancellation seam a serving
/// process hooks the climber through.
///
/// Called from the coordinating thread at iteration granularity (after
/// every applied move), *outside* the parallel delta fan-out, so an
/// observer that always returns `true` cannot perturb the search: the
/// learned DAG stays byte-identical to an unobserved run. Returning
/// `false` requests a cooperative early stop — the search winds down
/// immediately and returns the **best DAG seen so far** (remaining
/// restarts are skipped too).
pub trait SearchObserver: Sync {
    /// One move was applied. `iteration` is the cumulative applied-move
    /// count across all climbs and restarts of this run; `score` is the
    /// current DAG's total score (which tabu exploration may hold below
    /// the incumbent). Return `false` to stop the search early.
    fn on_iteration(&self, iteration: u64, score: f64) -> bool {
        let _ = (iteration, score);
        true
    }
}

/// The do-nothing observer behind [`HillClimb::learn`] /
/// [`HillClimb::learn_restricted`].
pub struct NoSearchObserver;

impl SearchObserver for NoSearchObserver {}

/// One atomic modification of the current DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Insert the edge `u → v`.
    Add(u32, u32),
    /// Remove the existing edge `u → v`.
    Delete(u32, u32),
    /// Replace the existing edge `u → v` by `v → u`.
    Reverse(u32, u32),
}

impl Move {
    /// The single move that exactly restores the pre-move DAG.
    pub fn inverse(self) -> Move {
        match self {
            Move::Add(u, v) => Move::Delete(u, v),
            Move::Delete(u, v) => Move::Add(u, v),
            Move::Reverse(u, v) => Move::Reverse(v, u),
        }
    }

    /// The moves the tabu ring blocks after this move is applied: every
    /// move that would undo its edge-state change. For `Add`/`Delete`
    /// that is the plain [`Move::inverse`]; for `Reverse(u, v)` both
    /// `Reverse(v, u)` *and* `Delete(v, u)` revert the reversed edge
    /// state, so both are blocked — keying on the inverse alone lets a
    /// delete dismantle the reversal on the next iteration.
    pub fn undoers(self) -> (Move, Option<Move>) {
        match self {
            Move::Add(u, v) => (Move::Delete(u, v), None),
            Move::Delete(u, v) => (Move::Add(u, v), None),
            Move::Reverse(u, v) => (Move::Reverse(v, u), Some(Move::Delete(v, u))),
        }
    }

    /// The children whose parent sets (and hence local scores) this move
    /// edits: `v` for add/delete, both endpoints for a reverse. This is
    /// the invalidation key of the maintained delta table.
    pub fn touched(self) -> (u32, Option<u32>) {
        match self {
            Move::Add(_, v) | Move::Delete(_, v) => (v, None),
            Move::Reverse(u, v) => (u, Some(v)),
        }
    }

    /// The child whose parent set the move alters (for a reverse, the new
    /// child `u`; the sharding key of the delta evaluation).
    pub fn primary_child(self) -> u32 {
        match self {
            Move::Add(_, v) | Move::Delete(_, v) => v,
            Move::Reverse(u, _) => u,
        }
    }
}

/// How candidate-move deltas are obtained each iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MoveEval {
    /// Maintain the delta table across iterations: after applying a move,
    /// only deltas whose score-children were touched are recomputed (and
    /// fanned over the stealing deques); all others carry over bitwise.
    #[default]
    Incremental,
    /// Re-enumerate and re-score every candidate move every iteration —
    /// the pre-maintenance behavior, kept as the incremental path's test
    /// oracle (results must be byte-identical).
    Full,
}

/// Configuration of a [`HillClimb`] search.
#[derive(Clone, Debug)]
pub struct HillClimbConfig {
    /// The decomposable score to maximize.
    pub kind: ScoreKind,
    /// Worker threads for delta evaluation (0 is promoted to 1).
    pub threads: usize,
    /// Hard cap on any node's parent count.
    pub max_parents: usize,
    /// How many recently applied moves keep their undoing moves forbidden
    /// (see [`Move::undoers`]); also bounds tabu exploration.
    pub tabu_len: usize,
    /// Accept the best admissible **non-improving** move when no improving
    /// one exists (tabu search proper). Exploration is bounded: after
    /// `tabu_len` consecutive applied moves without a new incumbent the
    /// climb stops. The result is always the best DAG seen. Has no effect
    /// when `tabu_len == 0`.
    pub tabu_search: bool,
    /// Apply the **first** improving move in canonical order instead of
    /// the best one — fewer, cheaper iterations on very wide networks at
    /// the cost of a greedier trajectory. Still deterministic.
    pub first_ascent: bool,
    /// Delta evaluation mode (incremental table vs full re-enumeration).
    pub evaluation: MoveEval,
    /// Random restarts after the initial climb (0 = plain hill climbing).
    pub restarts: usize,
    /// Random moves applied to the incumbent before each restart climb.
    pub perturb_moves: usize,
    /// Seed for the restart RNG (the shim's deterministic xoshiro256**).
    pub seed: u64,
    /// Memoize local scores in the shared [`ScoreCache`].
    pub use_cache: bool,
    /// Minimum score improvement for a move to count as improving.
    pub epsilon: f64,
    /// Count tables larger than this many cells make the parent set
    /// unscorable; such moves are skipped.
    pub max_table_cells: usize,
    /// Which counting backend fills the count tables (tiled column scan,
    /// bitmap/popcount, or per-query auto-selection). Any choice produces
    /// byte-identical counts — and therefore bitwise-identical scores.
    pub count_engine: EngineSelect,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        Self {
            kind: ScoreKind::Bic,
            threads: 2,
            max_parents: 8,
            tabu_len: 16,
            tabu_search: false,
            first_ascent: false,
            evaluation: MoveEval::Incremental,
            restarts: 0,
            perturb_moves: 8,
            seed: 0x0FA5_7B45,
            use_cache: true,
            epsilon: 1e-9,
            max_table_cells: 1 << 22,
            count_engine: EngineSelect::Auto,
        }
    }
}

impl HillClimbConfig {
    /// Set the worker-thread count (builder style).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Set the score kind.
    pub fn with_kind(mut self, kind: ScoreKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Set the restart RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable the score cache (results must not change).
    pub fn with_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Choose the delta-evaluation mode (results must not change).
    pub fn with_evaluation(mut self, evaluation: MoveEval) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// Enable tabu search (accept bounded non-improving moves when stuck).
    pub fn with_tabu_search(mut self, on: bool) -> Self {
        self.tabu_search = on;
        self
    }

    /// Set the tabu-ring length (also the tabu exploration bound).
    pub fn with_tabu_len(mut self, tabu_len: usize) -> Self {
        self.tabu_len = tabu_len;
        self
    }

    /// Enable first-ascent move selection.
    pub fn with_first_ascent(mut self, on: bool) -> Self {
        self.first_ascent = on;
        self
    }

    /// Set the counting backend (results must not change, only speed).
    pub fn with_count_engine(mut self, engine: EngineSelect) -> Self {
        self.count_engine = engine;
        self
    }

    /// Set the parent-count cap.
    ///
    /// # Panics
    /// Panics if `max_parents == 0`.
    pub fn with_max_parents(mut self, max_parents: usize) -> Self {
        assert!(max_parents >= 1, "max_parents must be at least 1");
        self.max_parents = max_parents;
        self
    }

    /// Effective thread count (≥ 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }
}

/// Counters and timings of one search run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Moves applied across all climbs.
    pub iterations: u64,
    /// Restarts actually performed.
    pub restarts: u64,
    /// Candidate-move deltas actually **computed** (score-cache hits
    /// included; carried-over and unscorable moves are not).
    pub moves_evaluated: u64,
    /// Candidate moves whose delta computation came back unscorable (a
    /// touched parent set's count table exceeded the cell cap). Note the
    /// counters are work meters, not comparable across evaluation modes:
    /// [`MoveEval::Full`] re-counts a persistently unscorable move every
    /// iteration, while [`MoveEval::Incremental`] counts it once and then
    /// reports its cached `None` under `moves_carried`.
    pub moves_pruned: u64,
    /// Candidate-move deltas served from the maintained table without any
    /// recomputation (incremental mode only; includes carried unscorable
    /// entries — see `moves_pruned`).
    pub moves_carried: u64,
    /// Score-cache hits.
    pub cache_hits: u64,
    /// Score-cache misses (= fresh local-score computations when caching).
    pub cache_misses: u64,
    /// Parent sets skipped because their count table exceeded the cell cap.
    pub oversized_skipped: u64,
    /// Wall-clock duration of the whole search.
    pub duration: Duration,
}

/// Everything a hill-climbing run produces.
pub struct HillClimbResult {
    /// The best DAG found.
    pub dag: Dag,
    /// Its total score `Σ_v local(v, Pa(v))`.
    pub score: f64,
    /// Search counters.
    pub stats: SearchStats,
}

/// The score-based structure learner: greedy hill climbing (optionally
/// tabu search) with restarts.
///
/// ```
/// use fastbn_score::{HillClimb, HillClimbConfig};
/// use fastbn_data::Dataset;
///
/// let data = Dataset::from_columns(
///     vec![],
///     vec![2, 2],
///     vec![vec![0, 1, 1, 0, 1, 0, 0, 1], vec![0, 1, 1, 0, 1, 0, 1, 0]],
/// ).unwrap();
/// let result = HillClimb::new(HillClimbConfig::default()).learn(&data);
/// assert!(result.score.is_finite());
/// ```
pub struct HillClimb {
    config: HillClimbConfig,
}

impl HillClimb {
    /// A searcher with the given configuration.
    pub fn new(config: HillClimbConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HillClimbConfig {
        &self.config
    }

    /// Search the full DAG space over `data`.
    pub fn learn(&self, data: &Dataset) -> HillClimbResult {
        self.learn_restricted(data, None)
    }

    /// Search with candidate parents restricted to `allowed` adjacencies:
    /// an edge `u → v` may exist only if `allowed` has the undirected edge
    /// `u — v`. This is the hybrid (MMHC-style) second stage, with the
    /// PC-stable skeleton as the restriction graph.
    ///
    /// # Panics
    /// Panics if `allowed` has a different node count than `data`.
    pub fn learn_restricted(&self, data: &Dataset, allowed: Option<&UGraph>) -> HillClimbResult {
        self.learn_observed(data, allowed, &NoSearchObserver)
    }

    /// [`HillClimb::learn_restricted`] with a [`SearchObserver`] watching
    /// (and optionally stopping) the search. An observer that always
    /// returns `true` leaves the result byte-identical to the unobserved
    /// run; one that returns `false` stops the search early with the best
    /// DAG seen so far.
    ///
    /// # Panics
    /// Panics if `allowed` has a different node count than `data`.
    pub fn learn_observed(
        &self,
        data: &Dataset,
        allowed: Option<&UGraph>,
        observer: &dyn SearchObserver,
    ) -> HillClimbResult {
        if let Some(g) = allowed {
            assert_eq!(g.n(), data.n_vars(), "restriction graph node count");
        }
        let _span = fastbn_obs::span!("score.search");
        let t0 = Instant::now();
        let cfg = &self.config;
        let t = cfg.effective_threads();
        let searcher = Searcher {
            cfg,
            allowed,
            cache: ScoreCache::new(cfg.use_cache),
            scorers: (0..t)
                .map(|_| {
                    Mutex::new(LocalScorer::with_options(
                        data,
                        cfg.kind,
                        cfg.max_table_cells,
                        Layout::ColumnMajor,
                        cfg.count_engine,
                    ))
                })
                .collect(),
            stats: Mutex::new(SearchStats::default()),
            observer,
            stopped: AtomicBool::new(false),
        };

        // One worker team lives for the whole search (all climbs and
        // restarts) and is broadcast per delta evaluation — the same
        // amortization the skeleton phase uses; spawning per iteration
        // would put thread start-up on the hot path.
        let run = |team: Option<&Team<'_>>| {
            let n = data.n_vars();
            let mut dag = Dag::empty(n);
            let mut score = searcher.climb(&mut dag, team);
            let mut best = (dag, score);

            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.restarts {
                // The observer asked for a stop: skip remaining restarts.
                if searcher.stopped.load(Ordering::Relaxed) {
                    break;
                }
                let mut cand = best.0.clone();
                searcher.perturb(&mut cand, &mut rng);
                score = searcher.climb(&mut cand, team);
                // Strict improvement keeps the incumbent on ties, so the
                // result does not depend on restart exploration quirks.
                if score > best.1 + cfg.epsilon {
                    best = (cand, score);
                }
                searcher.stats.lock().restarts += 1;
            }
            best
        };
        let best = if t > 1 {
            Team::scoped(t, |team| run(Some(team)))
        } else {
            run(None)
        };

        let mut stats = searcher.stats.into_inner();
        let (hits, misses) = searcher.cache.stats();
        stats.cache_hits = hits;
        stats.cache_misses = misses;
        let cache_entries = searcher.cache.len();
        for scorer in searcher.scorers {
            stats.oversized_skipped += scorer.into_inner().oversized;
        }
        stats.duration = t0.elapsed();
        // One registry flush per run keeps the per-move hot path free of
        // shared-line traffic while still surfacing every counter live.
        fastbn_obs::counter!("fastbn.score.search.iterations").add(stats.iterations);
        fastbn_obs::counter!("fastbn.score.search.moves_evaluated").add(stats.moves_evaluated);
        fastbn_obs::counter!("fastbn.score.search.moves_pruned").add(stats.moves_pruned);
        fastbn_obs::counter!("fastbn.score.search.moves_carried").add(stats.moves_carried);
        fastbn_obs::counter!("fastbn.score.cache.hits").add(stats.cache_hits);
        fastbn_obs::counter!("fastbn.score.cache.misses").add(stats.cache_misses);
        fastbn_obs::gauge!("fastbn.score.cache.entries").set(cache_entries as i64);
        fastbn_obs::histogram!("fastbn.score.search.run_us").observe_duration(stats.duration);
        HillClimbResult {
            dag: best.0,
            score: best.1,
            stats,
        }
    }
}

/// Internal search state shared across climbs of one run.
struct Searcher<'d, 'c> {
    cfg: &'c HillClimbConfig,
    allowed: Option<&'c UGraph>,
    cache: ScoreCache,
    scorers: Vec<Mutex<LocalScorer<'d>>>,
    stats: Mutex<SearchStats>,
    observer: &'c dyn SearchObserver,
    /// Latched when `observer` returns `false`: stops the current climb
    /// and skips remaining restarts.
    stopped: AtomicBool,
}

impl Searcher<'_, '_> {
    /// Climb `dag` to a local optimum (greedy) or explore past it (tabu
    /// search); leaves the **best DAG seen** in `dag` and returns its
    /// total score. `team` is the long-lived worker team for delta
    /// fan-out (`None` = single-threaded).
    fn climb(&self, dag: &mut Dag, team: Option<&Team<'_>>) -> f64 {
        let n = dag.n();
        let mut cur: Vec<f64> = (0..n).map(|v| self.node_score(dag, v)).collect();
        // Totals are always re-summed in index order so the aspiration
        // comparison is bitwise identical in every mode and thread count.
        let mut cur_total: f64 = cur.iter().sum();
        let mut best_total = cur_total;
        // Only tabu exploration can leave `dag` below the incumbent, so
        // only it pays for best-DAG snapshots; plain greedy never applies
        // a non-improving move, so its final DAG is the best seen.
        let mut best_dag: Option<Dag> = self.cfg.tabu_search.then(|| dag.clone());
        // The tabu ring holds *applied* moves; `is_tabu` blocks their
        // undoing moves (both of them, for reversals).
        let mut tabu: VecDeque<Move> = VecDeque::new();
        // The maintained delta table (incremental mode). An entry stays
        // valid until a move touches its score-children; entries for
        // currently inadmissible moves are simply not read — validity is
        // re-derived from the DAG each iteration, only deltas carry over.
        let mut table: HashMap<Move, Option<f64>> = HashMap::new();
        // Applied moves since `best` last improved (tabu exploration bound).
        let mut stall = 0usize;

        loop {
            let moves = self.enumerate_moves(dag);
            if moves.is_empty() {
                break;
            }
            let deltas = match self.cfg.evaluation {
                MoveEval::Full => {
                    let deltas = self.eval_deltas(dag, &cur, &moves, team);
                    self.record_eval(&deltas);
                    deltas
                }
                MoveEval::Incremental => self.eval_incremental(dag, &cur, &moves, &mut table, team),
            };

            // Selection. Admissible = scorable and (not tabu, or tabu but
            // aspirating — the move would beat the best score seen).
            // `best_any` is the first maximum in canonical order over the
            // admissible moves; `first_imp` the first improving one.
            let mut best_any: Option<(usize, f64)> = None;
            let mut first_imp: Option<(usize, f64)> = None;
            for (i, delta) in deltas.iter().enumerate() {
                let Some(d) = *delta else { continue };
                let aspirates = cur_total + d > best_total + self.cfg.epsilon;
                if !aspirates && self.is_tabu(moves[i], &tabu) {
                    continue;
                }
                if first_imp.is_none() && d > self.cfg.epsilon {
                    first_imp = Some((i, d));
                    if self.cfg.first_ascent {
                        break;
                    }
                }
                if best_any.is_none_or(|(_, bd)| d > bd) {
                    best_any = Some((i, d));
                }
            }
            let improving = if self.cfg.first_ascent {
                first_imp
            } else {
                best_any.filter(|&(_, d)| d > self.cfg.epsilon)
            };
            let pick = match improving {
                Some(p) => Some(p),
                // Stuck: tabu search takes the best admissible
                // non-improving move, bounded by `tabu_len` applied moves
                // without a new incumbent.
                None if self.cfg.tabu_search && stall < self.cfg.tabu_len => best_any,
                None => None,
            };
            let Some((idx, _)) = pick else { break };

            let mv = moves[idx];
            apply_move(dag, mv);
            let (a, b) = mv.touched();
            cur[a as usize] = self.node_score(dag, a as usize);
            if let Some(b) = b {
                cur[b as usize] = self.node_score(dag, b as usize);
            }
            cur_total = cur.iter().sum();
            // Invalidate exactly the deltas whose score-children were
            // touched; everything else carries over bitwise.
            let touched = |c: u32| c == a || Some(c) == b;
            table.retain(|m, _| {
                let (x, y) = m.touched();
                !touched(x) && !y.is_some_and(touched)
            });
            if self.cfg.tabu_len > 0 {
                tabu.push_back(mv);
                while tabu.len() > self.cfg.tabu_len {
                    tabu.pop_front();
                }
            }
            let iteration = {
                let mut stats = self.stats.lock();
                stats.iterations += 1;
                stats.iterations
            };
            if cur_total > best_total + self.cfg.epsilon {
                best_total = cur_total;
                if let Some(b) = best_dag.as_mut() {
                    b.clone_from(dag);
                }
                stall = 0;
            } else {
                stall += 1;
            }
            // Progress/cancellation seam: the observer runs after the move
            // is fully applied, outside the parallel fan-out, so a `true`
            // return cannot perturb the search.
            if !self.observer.on_iteration(iteration, cur_total) {
                self.stopped.store(true, Ordering::Relaxed);
                break;
            }
        }
        match best_dag {
            // Tabu mode: the climb may end below the incumbent — return
            // the best DAG seen and its score.
            Some(b) => {
                *dag = b;
                best_total
            }
            // Greedy mode: every applied move improved, the final DAG is
            // the best seen (and its freshly summed total is the score).
            None => cur_total,
        }
    }

    /// True when `mv` would undo the edge-state change of a move still in
    /// the tabu ring.
    fn is_tabu(&self, mv: Move, tabu: &VecDeque<Move>) -> bool {
        tabu.iter().any(|&applied| {
            let (a, b) = applied.undoers();
            mv == a || Some(mv) == b
        })
    }

    /// Account one evaluation round: deltas actually computed vs pruned
    /// (unscorable) — carried-over moves never reach this.
    fn record_eval(&self, computed: &[Option<f64>]) {
        let scored = computed.iter().filter(|d| d.is_some()).count() as u64;
        let mut stats = self.stats.lock();
        stats.moves_evaluated += scored;
        stats.moves_pruned += computed.len() as u64 - scored;
    }

    /// Incremental evaluation: serve every move with a live table entry
    /// from the table, compute only the stale slice (fanned over the
    /// stealing deques) and fold the fresh deltas back in.
    fn eval_incremental(
        &self,
        dag: &Dag,
        cur: &[f64],
        moves: &[Move],
        table: &mut HashMap<Move, Option<f64>>,
        team: Option<&Team<'_>>,
    ) -> Vec<Option<f64>> {
        let mut deltas = vec![None; moves.len()];
        let mut stale_idx: Vec<usize> = Vec::new();
        let mut stale: Vec<Move> = Vec::new();
        let mut carried = 0u64;
        for (i, &mv) in moves.iter().enumerate() {
            if let Some(&d) = table.get(&mv) {
                deltas[i] = d;
                carried += 1;
            } else {
                stale_idx.push(i);
                stale.push(mv);
            }
        }
        let fresh = self.eval_deltas(dag, cur, &stale, team);
        self.record_eval(&fresh);
        self.stats.lock().moves_carried += carried;
        for ((i, mv), d) in stale_idx.into_iter().zip(stale).zip(fresh) {
            deltas[i] = d;
            table.insert(mv, d);
        }
        deltas
    }

    /// Current local score of `v` under `dag` (−∞ when unscorable, which
    /// only arises transiently after a perturbation; the climb repairs it
    /// because deleting a parent then has +∞ delta).
    fn node_score(&self, dag: &Dag, v: usize) -> f64 {
        let parents: Vec<u32> = dag.parents(v).iter_ones().map(|p| p as u32).collect();
        self.cache
            .get_or_compute(v as u32, &parents, || {
                self.scorers[0].lock().local_score(v, &parents)
            })
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// All structurally admissible moves, in canonical order: adds in
    /// lexicographic `(u, v)`, then deletes, then reverses (each over the
    /// DAG's lexicographic edge list). Tabu status is *not* filtered here —
    /// selection handles it, because a tabu move may still be applied
    /// under the aspiration criterion.
    fn enumerate_moves(&self, dag: &Dag) -> Vec<Move> {
        let n = dag.n();
        let max_parents = self.cfg.max_parents;
        let permitted = |u: usize, v: usize| self.allowed.is_none_or(|g| g.has_edge(u, v));
        // Strict-descendant bitsets, one reverse-topological sweep: the
        // cycle check of every candidate add (`v ⇝ u?`) and reverse
        // becomes a bit test instead of a DFS — with deltas maintained
        // incrementally, `n²` DFS walks would dominate the iteration.
        let desc = dag.descendants();
        let mut moves = Vec::new();
        for u in 0..n {
            for (v, desc_v) in desc.iter().enumerate() {
                if u == v || dag.has_edge(u, v) || dag.has_edge(v, u) {
                    continue;
                }
                if !permitted(u, v) || dag.in_degree(v) >= max_parents || desc_v.contains(u) {
                    continue;
                }
                moves.push(Move::Add(u as u32, v as u32));
            }
        }
        let edges = dag.edges();
        for &(u, v) in &edges {
            moves.push(Move::Delete(u as u32, v as u32));
        }
        for &(u, v) in &edges {
            // Reversing u→v cycles iff some u ⇝ v path avoids the direct
            // edge: a child c ≠ v of u from which v is still reachable.
            let alt_path = dag
                .children(u)
                .iter_ones()
                .any(|c| c != v && desc[c].contains(v));
            debug_assert_eq!(alt_path, has_path_excluding(dag, u, v), "{u}→{v}");
            if dag.in_degree(u) >= max_parents || alt_path {
                continue;
            }
            moves.push(Move::Reverse(u as u32, v as u32));
        }
        moves
    }

    /// Score deltas for every move, fanned out over the stealing deques
    /// on the search's long-lived `team` (sequential when `None`). Results
    /// indexed like `moves`; `None` means the move's new parent set is
    /// unscorable.
    fn eval_deltas(
        &self,
        dag: &Dag,
        cur: &[f64],
        moves: &[Move],
        team: Option<&Team<'_>>,
    ) -> Vec<Option<f64>> {
        // Tiny batches (the steady state of incremental maintenance) are
        // cheaper inline than broadcast: deltas are pure functions, so the
        // cutover is invisible in the results.
        const FAN_OUT_MIN: usize = 32;
        let Some(team) = team.filter(|_| moves.len() >= FAN_OUT_MIN) else {
            let mut scorer = self.scorers[0].lock();
            return moves
                .iter()
                .map(|&mv| self.move_delta(dag, cur, mv, &mut scorer))
                .collect();
        };
        let t = team.n_threads();
        let tasks: Vec<(usize, Move)> = moves.iter().copied().enumerate().collect();
        // Adjacency sharding: moves with the same child (whose columns the
        // count fill streams) colocate; weight by the child's fan-in as a
        // proxy for its table size.
        let shards = shard_by_key(
            tasks,
            t,
            |&(_, mv)| mv.primary_child() as usize,
            |&(_, mv)| 1 + dag.in_degree(mv.primary_child() as usize) as u64,
        );
        let pool = StealPool::from_shards(shards);
        // Per-thread (move index, delta) collection slots; only thread
        // `tid` touches slot `tid`, the mutexes are uncontended.
        type DeltaSlot = Mutex<Vec<(usize, Option<f64>)>>;
        let outs: Vec<DeltaSlot> = (0..t).map(|_| Mutex::new(Vec::new())).collect();
        run_steal_pool(team, &pool, |tid, (idx, mv): (usize, Move)| {
            let mut scorer = self.scorers[tid].lock();
            let delta = self.move_delta(dag, cur, mv, &mut scorer);
            outs[tid].lock().push((idx, delta));
            StepResult::Done
        });
        let mut deltas = vec![None; moves.len()];
        for slot in outs {
            for (idx, delta) in slot.into_inner() {
                deltas[idx] = delta;
            }
        }
        deltas
    }

    /// The score change `score(dag ∘ mv) − score(dag)`, or `None` when a
    /// touched parent set is unscorable.
    fn move_delta(
        &self,
        dag: &Dag,
        cur: &[f64],
        mv: Move,
        scorer: &mut LocalScorer<'_>,
    ) -> Option<f64> {
        match mv {
            Move::Add(u, v) => {
                let new = self.score_edited(dag, v as usize, Some(u), None, scorer)?;
                Some(new - cur[v as usize])
            }
            Move::Delete(u, v) => {
                let new = self.score_edited(dag, v as usize, None, Some(u), scorer)?;
                Some(new - cur[v as usize])
            }
            Move::Reverse(u, v) => {
                let new_u = self.score_edited(dag, u as usize, Some(v), None, scorer)?;
                let new_v = self.score_edited(dag, v as usize, None, Some(u), scorer)?;
                Some((new_u - cur[u as usize]) + (new_v - cur[v as usize]))
            }
        }
    }

    /// Local score of `child` with its parent set edited (one inserted,
    /// one removed), through the cache. The edited set stays sorted, so the
    /// cache key is canonical by construction.
    fn score_edited(
        &self,
        dag: &Dag,
        child: usize,
        insert: Option<u32>,
        remove: Option<u32>,
        scorer: &mut LocalScorer<'_>,
    ) -> Option<f64> {
        let mut parents: Vec<u32> = dag
            .parents(child)
            .iter_ones()
            .map(|p| p as u32)
            .filter(|&p| Some(p) != remove)
            .collect();
        if let Some(p) = insert {
            let pos = parents.partition_point(|&x| x < p);
            parents.insert(pos, p);
        }
        self.cache.get_or_compute(child as u32, &parents, || {
            scorer.local_score(child, &parents)
        })
    }

    /// Apply `perturb_moves` random admissible moves (no tabu) — the
    /// restart kick. Deterministic given the caller's seeded RNG.
    fn perturb(&self, dag: &mut Dag, rng: &mut StdRng) {
        for _ in 0..self.cfg.perturb_moves {
            let moves = self.enumerate_moves(dag);
            if moves.is_empty() {
                break;
            }
            apply_move(dag, moves[rng.gen_range(0..moves.len())]);
        }
    }
}

/// Apply a validated move to the DAG.
///
/// # Panics
/// Panics if the move is structurally invalid for `dag` (the enumerator
/// guarantees it is not).
fn apply_move(dag: &mut Dag, mv: Move) {
    match mv {
        Move::Add(u, v) => {
            assert!(
                dag.try_add_edge(u as usize, v as usize),
                "invalid add {mv:?}"
            );
        }
        Move::Delete(u, v) => {
            assert!(
                dag.remove_edge(u as usize, v as usize),
                "invalid delete {mv:?}"
            );
        }
        Move::Reverse(u, v) => {
            assert!(
                dag.remove_edge(u as usize, v as usize),
                "invalid reverse {mv:?}"
            );
            assert!(
                dag.try_add_edge(v as usize, u as usize),
                "reverse {mv:?} would create a cycle"
            );
        }
    }
}

/// True when a directed path `u ⇝ v` exists that does not use the direct
/// edge `u → v` — exactly the condition under which reversing `u → v`
/// would create a cycle. Kept as the (debug-asserted) oracle for the
/// bitset-based check in `enumerate_moves`.
fn has_path_excluding(dag: &Dag, u: usize, v: usize) -> bool {
    let mut seen = vec![false; dag.n()];
    let mut stack: Vec<usize> = dag.children(u).iter_ones().filter(|&c| c != v).collect();
    for &c in &stack {
        seen[c] = true;
    }
    while let Some(x) = stack.pop() {
        if x == v {
            return true;
        }
        for c in dag.children(x).iter_ones() {
            if c == v {
                return true;
            }
            if !seen[c] {
                seen[c] = true;
                stack.push(c);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_data() -> Dataset {
        // x → y → z with strong links: hill climbing must recover the
        // chain's adjacencies (direction within the equivalence class may
        // vary).
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut state = 0xC0FFEEu64;
        for _ in 0..1500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 16;
            let a = (r & 1) as u8;
            let b = if r % 100 < 10 { 1 - a } else { a };
            let c = if (r >> 32) % 100 < 10 { 1 - b } else { b };
            x.push(a);
            y.push(b);
            z.push(c);
        }
        Dataset::from_columns(vec![], vec![2, 2, 2], vec![x, y, z]).unwrap()
    }

    /// Two exactly independent, exactly balanced binary columns: every
    /// joint cell holds the same count, so no move ever improves (every
    /// edge costs parameters and buys zero likelihood) and the reverse
    /// delta is an exact tie — the canonical plateau workload.
    fn flat_two_var_data() -> Dataset {
        let x: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let y: Vec<u8> = (0..64).map(|i| ((i / 2) % 2) as u8).collect();
        Dataset::from_columns(vec![], vec![2, 2], vec![x, y]).unwrap()
    }

    #[test]
    fn recovers_chain_adjacencies() {
        let data = chain_data();
        let result = HillClimb::new(HillClimbConfig::default().with_threads(1)).learn(&data);
        let skel = result.dag.skeleton();
        assert!(skel.has_edge(0, 1), "x—y");
        assert!(skel.has_edge(1, 2), "y—z");
        assert!(!skel.has_edge(0, 2), "x⟂z | y: no direct edge");
        assert!(result.score.is_finite());
        assert!(result.stats.iterations >= 2);
    }

    #[test]
    fn thread_counts_learn_identical_dags() {
        let data = chain_data();
        let reference = HillClimb::new(HillClimbConfig::default().with_threads(1)).learn(&data);
        for t in [2usize, 4] {
            let got = HillClimb::new(HillClimbConfig::default().with_threads(t)).learn(&data);
            assert_eq!(got.dag, reference.dag, "t={t}");
            assert_eq!(got.score, reference.score, "t={t} (bitwise)");
        }
    }

    #[test]
    fn cache_disabled_is_identical() {
        let data = chain_data();
        let with = HillClimb::new(HillClimbConfig::default()).learn(&data);
        let without = HillClimb::new(HillClimbConfig::default().with_cache(false)).learn(&data);
        assert_eq!(with.dag, without.dag);
        assert_eq!(with.score, without.score);
        assert_eq!(without.stats.cache_hits, 0);
        assert!(with.stats.cache_hits > 0, "the cache must actually engage");
    }

    #[test]
    fn incremental_matches_full_oracle() {
        let data = chain_data();
        for t in [1usize, 2] {
            let full = HillClimb::new(
                HillClimbConfig::default()
                    .with_threads(t)
                    .with_evaluation(MoveEval::Full),
            )
            .learn(&data);
            let incr = HillClimb::new(
                HillClimbConfig::default()
                    .with_threads(t)
                    .with_evaluation(MoveEval::Incremental),
            )
            .learn(&data);
            assert_eq!(incr.dag, full.dag, "t={t}");
            assert_eq!(incr.score, full.score, "t={t} (bitwise)");
            assert!(
                incr.stats.moves_evaluated < full.stats.moves_evaluated,
                "t={t}: incremental must compute fewer deltas ({} vs {})",
                incr.stats.moves_evaluated,
                full.stats.moves_evaluated
            );
            assert!(incr.stats.moves_carried > 0, "t={t}: table must carry");
            assert_eq!(full.stats.moves_carried, 0, "full mode never carries");
        }
    }

    #[test]
    fn first_ascent_is_deterministic_and_terminates() {
        let data = chain_data();
        let cfg = |t: usize, eval: MoveEval| {
            HillClimbConfig::default()
                .with_threads(t)
                .with_first_ascent(true)
                .with_evaluation(eval)
        };
        let reference = HillClimb::new(cfg(1, MoveEval::Incremental)).learn(&data);
        assert!(reference.score.is_finite());
        for t in [2usize, 4] {
            let got = HillClimb::new(cfg(t, MoveEval::Incremental)).learn(&data);
            assert_eq!(got.dag, reference.dag, "t={t}");
            assert_eq!(got.score, reference.score, "t={t}");
        }
        let full = HillClimb::new(cfg(2, MoveEval::Full)).learn(&data);
        assert_eq!(full.dag, reference.dag, "full oracle");
        assert_eq!(full.score, reference.score, "full oracle score");
    }

    #[test]
    fn tabu_search_terminates_on_flat_two_var_data() {
        // Regression for the under-blocking tabu ring: once non-improving
        // moves are accepted, `Reverse(u,v)` followed by `Delete(v,u)`
        // could cycle a plateau forever if only `Reverse(v,u)` were tabu.
        let data = flat_two_var_data();
        for eval in [MoveEval::Incremental, MoveEval::Full] {
            let result = HillClimb::new(
                HillClimbConfig::default()
                    .with_threads(1)
                    .with_tabu_search(true)
                    .with_tabu_len(4)
                    .with_evaluation(eval),
            )
            .learn(&data);
            // Nothing improves on flat data: the best DAG seen is the
            // empty start, whatever the tabu exploration visited.
            assert_eq!(result.dag, Dag::empty(2), "{eval:?}");
            assert!(
                result.stats.iterations <= 8,
                "{eval:?}: plateau exploration must stay bounded, took {}",
                result.stats.iterations
            );
        }
    }

    #[test]
    fn tabu_blocks_both_undoers_of_a_reversal() {
        let (a, b) = Move::Reverse(3, 5).undoers();
        assert_eq!(a, Move::Reverse(5, 3));
        assert_eq!(b, Some(Move::Delete(5, 3)));
        let (a, b) = Move::Add(1, 2).undoers();
        assert_eq!((a, b), (Move::Delete(1, 2), None));
        let (a, b) = Move::Delete(1, 2).undoers();
        assert_eq!((a, b), (Move::Add(1, 2), None));
    }

    #[test]
    fn tabu_search_never_returns_worse_than_greedy() {
        let data = chain_data();
        let greedy = HillClimb::new(HillClimbConfig::default().with_threads(1)).learn(&data);
        let tabu = HillClimb::new(
            HillClimbConfig::default()
                .with_threads(1)
                .with_tabu_search(true),
        )
        .learn(&data);
        assert!(
            tabu.score >= greedy.score,
            "tabu returns the best DAG seen: {} vs {}",
            tabu.score,
            greedy.score
        );
    }

    #[test]
    fn evaluated_pruned_and_carried_counters_split_correctly() {
        // max_table_cells = 8 makes any two-parent set for a binary child
        // over binary+ternary parents unscorable (2·2·3 = 12 > 8), so the
        // search must prune some moves while evaluating others.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut state = 0xBEEFu64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 16;
            let a = (r & 1) as u8;
            x.push(a);
            y.push(if r % 100 < 20 { 1 - a } else { a });
            z.push(((r >> 8) % 3) as u8);
        }
        let data = Dataset::from_columns(vec![], vec![2, 2, 3], vec![x, y, z]).unwrap();
        let mut cfg = HillClimbConfig::default().with_threads(1);
        cfg.max_table_cells = 8;
        let full = HillClimb::new(cfg.clone().with_evaluation(MoveEval::Full)).learn(&data);
        assert!(full.stats.moves_evaluated > 0);
        assert!(
            full.stats.moves_pruned > 0,
            "oversized moves must be counted as pruned, not evaluated"
        );
        assert_eq!(full.stats.moves_carried, 0);

        let incr = HillClimb::new(cfg.with_evaluation(MoveEval::Incremental)).learn(&data);
        assert_eq!(incr.dag, full.dag, "pruning must not break the oracle");
        assert!(incr.stats.moves_evaluated <= full.stats.moves_evaluated);
        assert!(incr.stats.moves_carried > 0);
    }

    #[test]
    fn restriction_graph_is_respected() {
        let data = chain_data();
        // Forbid the (1,2) adjacency: the learned DAG must not contain it
        // in either direction.
        let mut allowed = UGraph::complete(3);
        allowed.remove_edge(1, 2);
        let result =
            HillClimb::new(HillClimbConfig::default()).learn_restricted(&data, Some(&allowed));
        assert!(!result.dag.has_edge(1, 2));
        assert!(!result.dag.has_edge(2, 1));
    }

    #[test]
    fn restarts_are_deterministic_and_never_worse() {
        let data = chain_data();
        let base = HillClimb::new(HillClimbConfig::default()).learn(&data);
        let cfg = HillClimbConfig::default().with_restarts(3).with_seed(7);
        let a = HillClimb::new(cfg.clone()).learn(&data);
        let b = HillClimb::new(cfg).learn(&data);
        assert_eq!(a.dag, b.dag, "same seed, same search");
        assert_eq!(a.score, b.score);
        assert!(a.score >= base.score, "restarts keep the best incumbent");
        assert_eq!(a.stats.restarts, 3);
    }

    #[test]
    fn max_parents_cap_holds() {
        let data = chain_data();
        let result = HillClimb::new(HillClimbConfig::default().with_max_parents(1)).learn(&data);
        for v in 0..3 {
            assert!(result.dag.in_degree(v) <= 1, "node {v} over cap");
        }
    }

    #[test]
    fn move_inverse_roundtrips() {
        for mv in [Move::Add(1, 2), Move::Delete(3, 4), Move::Reverse(5, 6)] {
            assert_eq!(mv.inverse().inverse(), mv);
        }
        assert_eq!(Move::Add(1, 2).primary_child(), 2);
        assert_eq!(Move::Reverse(5, 6).primary_child(), 5);
        assert_eq!(Move::Add(1, 2).touched(), (2, None));
        assert_eq!(Move::Delete(1, 2).touched(), (2, None));
        assert_eq!(Move::Reverse(5, 6).touched(), (5, Some(6)));
    }

    #[test]
    fn path_exclusion_detects_alternate_routes() {
        // 0→1→2 plus 0→2: reversing 0→2 must be blocked (alt path 0⇝2).
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(has_path_excluding(&dag, 0, 2));
        assert!(!has_path_excluding(&dag, 1, 2), "only the direct edge");
        // Reversing 1→2 is fine: no other 1⇝2 path.
        let mut d = dag.clone();
        apply_move(&mut d, Move::Reverse(1, 2));
        assert!(d.has_edge(2, 1));
    }

    /// Records every observer call; optionally stops after a cutoff.
    struct RecordingObserver {
        seen: Mutex<Vec<(u64, f64)>>,
        stop_after: Option<u64>,
    }

    impl SearchObserver for RecordingObserver {
        fn on_iteration(&self, iteration: u64, score: f64) -> bool {
            self.seen.lock().push((iteration, score));
            self.stop_after.is_none_or(|cut| iteration < cut)
        }
    }

    #[test]
    fn passive_observer_leaves_result_byte_identical() {
        let data = chain_data();
        let plain = HillClimb::new(HillClimbConfig::default().with_threads(2)).learn(&data);
        let obs = RecordingObserver {
            seen: Mutex::new(Vec::new()),
            stop_after: None,
        };
        let observed = HillClimb::new(HillClimbConfig::default().with_threads(2))
            .learn_observed(&data, None, &obs);
        assert_eq!(observed.dag, plain.dag);
        assert_eq!(observed.score.to_bits(), plain.score.to_bits());
        let seen = obs.seen.into_inner();
        assert_eq!(seen.len() as u64, plain.stats.iterations);
        // Iteration counts are cumulative and the last score is the final
        // greedy score (greedy mode: every applied move improved).
        assert_eq!(seen.last().unwrap().0, plain.stats.iterations);
        assert_eq!(seen.last().unwrap().1.to_bits(), plain.score.to_bits());
    }

    #[test]
    fn observer_stop_ends_search_early_with_valid_result() {
        let data = chain_data();
        let obs = RecordingObserver {
            seen: Mutex::new(Vec::new()),
            stop_after: Some(1),
        };
        let result = HillClimb::new(HillClimbConfig::default().with_threads(1).with_restarts(3))
            .learn_observed(&data, None, &obs);
        // Stopped after the first applied move: no further iterations and
        // no restarts ran.
        assert_eq!(result.stats.iterations, 1);
        assert_eq!(result.stats.restarts, 0);
        assert!(result.score.is_finite());
        assert_eq!(obs.seen.into_inner().len(), 1);
    }
}
