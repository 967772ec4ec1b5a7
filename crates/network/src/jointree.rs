//! Junction-tree exact inference at serving speed.
//!
//! [`crate::infer::variable_elimination`] re-runs the whole elimination for
//! every query: on a fitted network answering thousands of posterior
//! queries (the hot loop a serving daemon sits on — ROADMAP "parallel
//! exact inference at serving speed", and the Fast-BNS authors' follow-up
//! poster *Fast Parallel Exact Inference on Bayesian Networks*), that
//! repeats the same clique products over and over. A [`JoinTree`] pays the
//! elimination cost **once**:
//!
//! 1. **moralize** the fitted DAG (marry parents, drop directions),
//! 2. **triangulate** with greedy min-fill (ties to the lowest variable
//!    id, so the tree — and every downstream float — is platform- and
//!    thread-count-invariant),
//! 3. collect the maximal **cliques** and connect them into a junction
//!    tree (maximum-sepset-weight spanning tree, canonical tie-breaks),
//! 4. **calibrate** with two-pass belief propagation — clique-potential
//!    products and sepset marginalizations, level by level, with every
//!    per-clique reduction in a fixed structural order so the calibrated
//!    beliefs are **bitwise identical at 1, 2, 4 and 8 threads**.
//!
//! Queries then amortize: [`JoinTree::posteriors`] answers a whole batch
//! against the calibrated tree in one pass. Evidence-free queries are a
//! single marginalization of a calibrated belief; queries with evidence
//! are grouped by evidence set and answered by **demand-driven local
//! re-propagation**. A message changes under the evidence only when the
//! evidence lies on its far side: an upward message when its subtree
//! holds evidence, a downward message when evidence lies outside the
//! subtree it enters. Every other message equals its base-calibration
//! value bit for bit (same function, same sources, same order), so it is
//! read from the base calibration by reference. Changed messages are
//! computed only when a target's belief needs them — along the path from
//! the evidence cliques to each target's home clique — and memoized for
//! the rest of the group.
//!
//! Calibration levels and query batches run on the calling thread unless
//! their predicted work reaches `TEAM_MIN_CELLS`; from there they fan over
//! a [`fastbn_parallel::StealPool`] team with one
//! [`fastbn_stats::FactorArena`] of reusable product tables per worker.
//!
//! ## Memory cost
//!
//! Calibration stores one belief table per clique plus both base messages
//! on every tree edge: the resident cost is `Σ_C ∏ arities(C)` cells plus
//! twice the sepset cells — exponential in the clique width, which is
//! why [`JoinTreeStats::max_clique_cells`] is worth checking before
//! calibrating a dense network (variable elimination never materializes
//! more than one elimination frontier at a time and stays the better tool
//! for one-off queries on wide models).

use crate::bayesnet::BayesNet;
use crate::infer::{
    canonical_evidence, checked_cells, marginalize_onto, product_into_slice, Factor, InferenceError,
};
use fastbn_graph::{BitSet, UGraph};
use fastbn_parallel::{run_steal_pool, StealPool, StepResult, Team};
use fastbn_stats::FactorArena;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Predicted work, in clique-table cells, from which a calibration level
/// or a query batch fans over a thread team instead of running on the
/// calling thread.
///
/// A level's prediction is the sum of its cliques' cells; a batch's is its
/// number of evidence groups × [`JoinTreeStats::total_belief_cells`].
/// Inline, a predicted cell of a 16-query batch costs about 4–8 ns (hybrid
/// models learned from 5000 hepar2 and alarm samples, 2-vCPU x86 host),
/// so the constant is about 0.4–0.8 ms of work: 7–14× the ≈57 µs it takes
/// to spawn and join a 2-thread team (perfbench `parallel.team_spawn_us`),
/// the margin a split into a few coarse, unequal items needs before
/// halving the work repays the spawn. Forcing every level and batch onto a
/// 2-thread team on that host made those 16-query batches 1.3–3× slower
/// and the builds 2–7× slower, while the 1000-query alarm batch of
/// `benches/infer.rs` (37 groups × 4910 cells) ran about 1.4× faster than
/// inline. Perfbench's 16-query batches (at most ~64k cells) and its
/// models' calibration levels (at most ~1.2k cells) run inline.
const TEAM_MIN_CELLS: usize = 100_000;

/// One posterior request: `P(target | evidence)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// The query variable.
    pub target: usize,
    /// Observed `(variable, state)` pairs (any order; duplicates allowed,
    /// contradictions are [`InferenceError::ImpossibleEvidence`]).
    pub evidence: Vec<(usize, u8)>,
}

impl Query {
    /// An evidence-free marginal query.
    pub fn marginal(target: usize) -> Self {
        Self {
            target,
            evidence: Vec::new(),
        }
    }

    /// A conditional query.
    pub fn with_evidence(target: usize, evidence: Vec<(usize, u8)>) -> Self {
        Self { target, evidence }
    }
}

/// One answered query: the normalized distribution over `target`'s states.
#[derive(Clone, Debug, PartialEq)]
pub struct Posterior {
    /// The query variable this distribution is over.
    pub target: usize,
    /// `P(target = s | evidence)` for each state `s`.
    pub probs: Vec<f64>,
}

/// Structural statistics of a built [`JoinTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTreeStats {
    /// Number of cliques (nodes of the junction tree).
    pub n_cliques: usize,
    /// Largest clique size in *variables* (treewidth + 1 of the
    /// triangulation found).
    pub width: usize,
    /// Largest clique table in *cells* — the dominant per-message cost.
    pub max_clique_cells: usize,
    /// Total cells across all calibrated belief tables — the resident
    /// memory cost of keeping the tree calibrated.
    pub total_belief_cells: usize,
}

/// One clique of the junction tree.
struct Clique {
    /// Member variables (sorted by id).
    vars: Vec<u32>,
    /// Arities aligned with `vars`.
    arities: Vec<usize>,
    /// Table cells (`∏ arities`, checked).
    cells: usize,
    /// Parent clique in the rooted tree (`None` for the root).
    parent: Option<usize>,
    /// Child cliques (sorted — this order is the fixed reduction order).
    children: Vec<usize>,
    /// Variables shared with the parent (sorted; empty for the root and
    /// across disconnected components).
    sepset: Vec<u32>,
}

/// A calibrated junction tree over one fitted [`BayesNet`].
pub struct JoinTree {
    n_vars: usize,
    arities: Vec<usize>,
    cliques: Vec<Clique>,
    /// Clique ids grouped by depth from the root (level 0 = root). Within
    /// a level all messages are independent — the parallel wavefront.
    levels: Vec<Vec<usize>>,
    /// For each variable, the lowest-indexed clique containing it.
    home: Vec<usize>,
    /// Evidence-free clique potentials (products of assigned CPT factors).
    potentials: Vec<Factor>,
    /// Base upward messages from the evidence-free calibration (`None`
    /// only at the root). Read by local re-propagation for every clique
    /// whose subtree holds no evidence.
    base_up: Vec<Option<Factor>>,
    /// Base downward messages, one into each clique (`None` only at the
    /// root). Read by local re-propagation for every clique whose subtree
    /// holds all of the evidence.
    base_down: Vec<Option<Factor>>,
    /// Calibrated evidence-free beliefs, one full table per clique.
    beliefs: Vec<Factor>,
    threads: usize,
    stats: JoinTreeStats,
}

impl JoinTree {
    /// Build and calibrate a junction tree for `net`, fanning calibration
    /// levels (and later query batches) that reach `TEAM_MIN_CELLS` over
    /// `threads` workers (0 is promoted to 1). Results are bitwise
    /// identical for every thread count.
    ///
    /// # Panics
    /// Panics if `net` has no nodes, or a clique table would overflow
    /// `usize` (astronomically wide cliques).
    pub fn build(net: &BayesNet, threads: usize) -> Self {
        assert!(net.n() > 0, "cannot build a join tree over zero variables");
        let threads = threads.max(1);
        let n = net.n();
        let arities: Vec<usize> = (0..n).map(|v| net.arity(v)).collect();

        // 1. Moral graph: skeleton plus married parents.
        let moral = moralize(net);
        // 2–3. Min-fill triangulation → maximal cliques → spanning tree.
        let clique_sets = maximal_cliques(&moral);
        let parent = max_sepset_spanning_tree(&clique_sets);

        let k = clique_sets.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (j, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p].push(j);
            }
        }
        // Child lists are pushed in ascending j — already the canonical
        // (sorted) reduction order.
        let mut cliques: Vec<Clique> = Vec::with_capacity(k);
        for (j, vars) in clique_sets.iter().enumerate() {
            let c_arities: Vec<usize> = vars.iter().map(|&v| arities[v as usize]).collect();
            let cells = checked_cells(&c_arities);
            let sepset = match parent[j] {
                Some(p) => intersect_sorted(vars, &clique_sets[p]),
                None => Vec::new(),
            };
            cliques.push(Clique {
                vars: vars.clone(),
                arities: c_arities,
                cells,
                parent: parent[j],
                children: std::mem::take(&mut children[j]),
                sepset,
            });
        }

        // BFS levels from the root.
        let mut levels: Vec<Vec<usize>> = vec![vec![0]];
        loop {
            let next: Vec<usize> = levels
                .last()
                .unwrap()
                .iter()
                .flat_map(|&c| cliques[c].children.iter().copied())
                .collect();
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }

        // Home cliques and family assignment.
        let home: Vec<usize> = (0..n as u32)
            .map(|v| {
                cliques
                    .iter()
                    .position(|c| c.vars.binary_search(&v).is_ok())
                    .expect("every variable appears in some clique")
            })
            .collect();
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); k];
        for v in 0..n {
            let mut family: Vec<u32> = net.cpt(v).parents().to_vec();
            family.push(v as u32);
            family.sort_unstable();
            let c = cliques
                .iter()
                .position(|c| is_subset(&family, &c.vars))
                .expect("moralization guarantees a clique containing each family");
            assigned[c].push(v);
        }

        let stats = JoinTreeStats {
            n_cliques: k,
            width: cliques.iter().map(|c| c.vars.len()).max().unwrap_or(0),
            max_clique_cells: cliques.iter().map(|c| c.cells).max().unwrap_or(0),
            total_belief_cells: cliques.iter().map(|c| c.cells).sum(),
        };

        let mut tree = JoinTree {
            n_vars: n,
            arities,
            cliques,
            levels,
            home,
            potentials: Vec::new(),
            base_up: Vec::new(),
            base_down: Vec::new(),
            beliefs: Vec::new(),
            threads,
            stats,
        };
        tree.calibrate(net, &assigned);
        tree
    }

    /// Structural statistics (clique count, width, table sizes).
    pub fn stats(&self) -> &JoinTreeStats {
        &self.stats
    }

    /// Worker-thread count of the team that calibration levels and query
    /// batches fan over once their work reaches `TEAM_MIN_CELLS`.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evidence-free potential construction plus the two-pass calibration,
    /// level by level.
    fn calibrate(&mut self, net: &BayesNet, assigned: &[Vec<usize>]) {
        let _span = fastbn_obs::span!("network.jointree.calibrate");
        let t0 = std::time::Instant::now();
        let k = self.cliques.len();
        let all: Vec<usize> = (0..k).collect();
        let cpt_factors: Vec<Factor> = (0..self.n_vars).map(|v| Factor::from_cpt(net, v)).collect();

        // Clique potentials: each clique's assigned CPT factors multiplied
        // (in node-id order) into a full clique-scope table.
        self.potentials = self.par_map(&all, &|c, _| {
            let srcs: Vec<&Factor> = assigned[c].iter().map(|&v| &cpt_factors[v]).collect();
            self.scope_product(c, &srcs)
        });

        // Upward pass: deepest level first; every clique's message to its
        // parent depends only on the previous (deeper) levels.
        let mut up: Vec<Option<Factor>> = vec![None; k];
        let mut down: Vec<Option<Factor>> = vec![None; k];
        for ids in self.levels[1..].iter().rev() {
            let msgs = self.par_map(ids, &|c, arena| {
                self.up_message(c, &Sources::calibration(&up, &down), arena)
            });
            for (&c, m) in ids.iter().zip(msgs) {
                up[c] = Some(m);
            }
        }
        // Downward pass: root level first; each clique computes its own
        // inbound message from its parent's data.
        for ids in &self.levels[1..] {
            let msgs = self.par_map(ids, &|c, arena| {
                self.down_message(c, &Sources::calibration(&up, &down), arena)
            });
            for (&c, m) in ids.iter().zip(msgs) {
                down[c] = Some(m);
            }
        }
        // Beliefs: potential × inbound message × child messages, full scope.
        self.beliefs = self.par_map(&all, &|c, _| {
            self.scope_product(
                c,
                &self.belief_sources(c, &Sources::calibration(&up, &down)),
            )
        });
        self.base_up = up;
        self.base_down = down;
        fastbn_obs::counter!("fastbn.network.jointree.calibrations").inc();
        fastbn_obs::histogram!("fastbn.network.jointree.calibrate_us")
            .observe_duration(t0.elapsed());
    }

    /// Whether `items` pieces of work predicted at `cells` table cells in
    /// total go to a thread team rather than the calling thread: only with
    /// two or more threads and items, from [`TEAM_MIN_CELLS`] on.
    fn fans_out(&self, items: usize, cells: usize) -> bool {
        self.threads > 1 && items > 1 && cells >= TEAM_MIN_CELLS
    }

    /// Run `f` on items `0..n` (predicted at `cells` in total) and collect
    /// the outputs in item order: on the calling thread, or over a
    /// `StealPool` team when [`JoinTree::fans_out`] says it pays. Each item
    /// is processed by exactly one worker with a fixed-order closure, so
    /// the output is schedule-invariant.
    fn fan<T: Send>(
        &self,
        n: usize,
        cells: usize,
        f: &(dyn Fn(usize, &mut FactorArena) -> T + Sync),
    ) -> Vec<T> {
        if !self.fans_out(n, cells) {
            let mut arena = FactorArena::new();
            return (0..n).map(|i| f(i, &mut arena)).collect();
        }
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); self.threads];
        for i in 0..n {
            shards[i % self.threads].push(i);
        }
        let pool = StealPool::from_shards(shards);
        let scratch: Vec<Mutex<FactorArena>> = (0..self.threads)
            .map(|_| Mutex::new(FactorArena::new()))
            .collect();
        let results = Mutex::new(Vec::with_capacity(n));
        Team::scoped(self.threads, |team| {
            run_steal_pool(team, &pool, |tid, i| {
                let out = f(i, &mut scratch[tid].lock());
                results.lock().push((i, out));
                StepResult::Done
            });
        });
        let mut results = results.into_inner();
        results.sort_unstable_by_key(|r| r.0);
        results.into_iter().map(|(_, out)| out).collect()
    }

    /// [`JoinTree::fan`] over cliques `ids`, predicted at their summed
    /// cells; outputs align with `ids`.
    fn par_map(
        &self,
        ids: &[usize],
        f: &(dyn Fn(usize, &mut FactorArena) -> Factor + Sync),
    ) -> Vec<Factor> {
        let cells = ids.iter().map(|&c| self.cliques[c].cells).sum();
        self.fan(ids.len(), cells, &|i, arena| f(ids[i], arena))
    }

    /// The potential of clique `c`: evidence-reduced if `s` holds one,
    /// else the base potential.
    fn pot<'a>(&'a self, c: usize, s: &Sources<'a>) -> &'a Factor {
        s.pots
            .get(c)
            .and_then(Option::as_ref)
            .unwrap_or(&self.potentials[c])
    }

    /// The upward message of clique `c`: recomputed in `s`, else base.
    fn up_of<'a>(&'a self, c: usize, s: &Sources<'a>) -> &'a Factor {
        s.resolve(s.up, &self.base_up, c)
    }

    /// The downward message into clique `c` (`None` at the root):
    /// recomputed in `s`, else base.
    fn down_of<'a>(&'a self, c: usize, s: &Sources<'a>) -> Option<&'a Factor> {
        self.cliques[c].parent?;
        Some(s.resolve(s.down, &self.base_down, c))
    }

    /// Upward message of clique `c` to its parent: the clique product
    /// (potential × child messages, fixed order) marginalized onto the
    /// parent sepset.
    fn up_message(&self, c: usize, s: &Sources<'_>, arena: &mut FactorArena) -> Factor {
        let cl = &self.cliques[c];
        let mut srcs: Vec<&Factor> = Vec::with_capacity(cl.children.len() + 1);
        srcs.push(self.pot(c, s));
        for &ch in &cl.children {
            srcs.push(self.up_of(ch, s));
        }
        self.message(c, &srcs, &cl.sepset, arena)
    }

    /// Downward message into clique `c` from its parent: the parent's
    /// product with `c`'s own contribution left out, marginalized onto
    /// `c`'s sepset.
    fn down_message(&self, c: usize, s: &Sources<'_>, arena: &mut FactorArena) -> Factor {
        let p = self.cliques[c].parent.expect("root has no inbound message");
        let pc = &self.cliques[p];
        let mut srcs: Vec<&Factor> = Vec::with_capacity(pc.children.len() + 1);
        srcs.push(self.pot(p, s));
        srcs.extend(self.down_of(p, s));
        for &sib in &pc.children {
            if sib != c {
                srcs.push(self.up_of(sib, s));
            }
        }
        self.message(p, &srcs, &self.cliques[c].sepset, arena)
    }

    /// The fixed-order source list whose product is clique `c`'s belief.
    fn belief_sources<'a>(&'a self, c: usize, s: &Sources<'a>) -> Vec<&'a Factor> {
        let cl = &self.cliques[c];
        let mut srcs: Vec<&Factor> = Vec::with_capacity(cl.children.len() + 2);
        srcs.push(self.pot(c, s));
        srcs.extend(self.down_of(c, s));
        for &ch in &cl.children {
            srcs.push(self.up_of(ch, s));
        }
        srcs
    }

    /// Product of `srcs` over clique `c`'s scope, marginalized onto `keep`.
    /// The clique-scope table lives in an arena slot, so repeated messages
    /// reuse one allocation per worker.
    fn message(&self, c: usize, srcs: &[&Factor], keep: &[u32], arena: &mut FactorArena) -> Factor {
        let cl = &self.cliques[c];
        arena.begin();
        let slot = arena.alloc(cl.cells, 1.0);
        let mut buf = arena.take(slot);
        product_into_slice(&cl.vars, &cl.arities, srcs, &mut buf);
        let out = marginalize_onto(&cl.vars, &cl.arities, &buf, keep);
        arena.restore(slot, buf);
        out
    }

    /// Product of `srcs` over clique `c`'s full scope, as an owned factor
    /// (a table to keep, so it allocates its own storage, not an arena
    /// slot).
    fn scope_product(&self, c: usize, srcs: &[&Factor]) -> Factor {
        let cl = &self.cliques[c];
        let mut values = vec![1.0; cl.cells];
        product_into_slice(&cl.vars, &cl.arities, srcs, &mut values);
        Factor::new(cl.vars.clone(), cl.arities.clone(), values)
    }

    /// Posterior of a single variable (see [`JoinTree::posteriors`] for
    /// the batched form this delegates to).
    ///
    /// # Errors
    /// [`InferenceError::ImpossibleEvidence`] when the evidence has
    /// probability zero under the model.
    ///
    /// # Panics
    /// Panics on out-of-range indices or a target that is also evidence.
    pub fn posterior(
        &self,
        target: usize,
        evidence: &[(usize, u8)],
    ) -> Result<Vec<f64>, InferenceError> {
        let mut out = self.posteriors(&[Query::with_evidence(target, evidence.to_vec())]);
        out.pop()
            .expect("one query in, one answer out")
            .map(|p| p.probs)
    }

    /// Answer a batch of posterior queries against the calibrated tree.
    ///
    /// Queries are grouped by (canonicalized) evidence set; each distinct
    /// set is answered by local re-propagation, and the groups run on the
    /// calling thread unless their predicted work (evidence groups ×
    /// total belief cells) reaches `TEAM_MIN_CELLS`, from which they fan
    /// over a `StealPool` team. Answers come back in query order, bitwise
    /// identical either way. Per-query failures
    /// (impossible evidence) are reported per slot — one bad query never
    /// poisons the batch.
    ///
    /// # Panics
    /// Panics on out-of-range indices or a target that is also evidence.
    pub fn posteriors(&self, queries: &[Query]) -> Vec<Result<Posterior, InferenceError>> {
        // Validate (programmer errors panic, as in variable_elimination)
        // and canonicalize; contradictions become per-query errors.
        let mut results: Vec<Option<Result<Posterior, InferenceError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut groups: BTreeMap<Vec<(usize, u8)>, Vec<usize>> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            assert!(q.target < self.n_vars, "query variable out of range");
            assert!(
                q.evidence.iter().all(|&(v, _)| v != q.target),
                "query cannot also be evidence"
            );
            for &(v, val) in &q.evidence {
                assert!(v < self.n_vars, "evidence variable out of range");
                assert!(
                    (val as usize) < self.arities[v],
                    "evidence value out of range"
                );
            }
            match canonical_evidence(&q.evidence) {
                Ok(ev) => groups.entry(ev).or_default().push(i),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // (canonical evidence, indices of the queries sharing it).
        type EvidenceGroup = (Vec<(usize, u8)>, Vec<usize>);
        let groups: Vec<EvidenceGroup> = groups.into_iter().collect();

        let solve = |gi: usize, arena: &mut FactorArena| {
            let (ev, idxs) = &groups[gi];
            let targets: Vec<usize> = idxs.iter().map(|&i| queries[i].target).collect();
            let answers = self.group_posteriors(ev, &targets, arena);
            idxs.iter()
                .zip(answers)
                .map(|(&i, r)| {
                    let target = queries[i].target;
                    (i, r.map(|probs| Posterior { target, probs }))
                })
                .collect::<Vec<_>>()
        };
        // The evidence-free group only reads calibrated beliefs; every
        // other group may touch up to every clique once.
        let evidence_groups = groups.iter().filter(|(ev, _)| !ev.is_empty()).count();
        let cells = evidence_groups.saturating_mul(self.stats.total_belief_cells);
        for (i, r) in self.fan(groups.len(), cells, &solve).into_iter().flatten() {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// Answer all `targets` under one canonical evidence set by
    /// demand-driven local re-propagation: compute a message only when a
    /// target's belief needs it and the evidence changes it (upward
    /// messages out of subtrees holding evidence, downward messages into
    /// subtrees missing some of it), memoized across the targets; read
    /// every other message from the base calibration.
    fn group_posteriors(
        &self,
        evidence: &[(usize, u8)],
        targets: &[usize],
        arena: &mut FactorArena,
    ) -> Vec<Result<Vec<f64>, InferenceError>> {
        // Fast path: no evidence — read the calibrated beliefs directly.
        if evidence.is_empty() {
            return targets
                .iter()
                .map(|&t| {
                    let hc = self.home[t];
                    let b = &self.beliefs[hc];
                    let m = marginalize_onto(b.vars(), b.arities(), b.values(), &[t as u32]);
                    m.normalized().map(|f| f.values().to_vec())
                })
                .collect();
        }

        let t0 = std::time::Instant::now();
        let mut g = Propagation::new(self, evidence);
        let answers = targets
            .iter()
            .map(|&t| {
                let hc = self.home[t];
                self.ensure_down(hc, &mut g, arena);
                for &ch in &self.cliques[hc].children {
                    self.ensure_up(ch, &mut g, arena);
                }
                let m =
                    g.read(|s| self.message(hc, &self.belief_sources(hc, s), &[t as u32], arena));
                m.normalized().map(|f| f.values().to_vec())
            })
            .collect();
        // `messages_recomputed`: messages this group computed (up + down).
        // `messages_reused`: base-calibration messages it read instead,
        // counted once per read (a base message feeding two products
        // counts twice).
        fastbn_obs::counter!("fastbn.network.jointree.messages_recomputed").add(g.computed);
        fastbn_obs::counter!("fastbn.network.jointree.messages_reused").add(g.reused);
        fastbn_obs::histogram!("fastbn.network.jointree.repropagate_us")
            .observe_duration(t0.elapsed());
        answers
    }

    /// Make clique `c`'s upward message readable under `g`: a clean
    /// subtree keeps its base message; otherwise compute it, and first
    /// every not-yet-computed message of an evidence-holding subtree below
    /// it (children before parents).
    fn ensure_up(&self, c: usize, g: &mut Propagation, arena: &mut FactorArena) {
        let pending = |g: &Propagation, x: usize| g.below[x] > 0 && g.up[x].is_none();
        if !pending(g, c) {
            return;
        }
        // Iterative post-order, so a deep tree cannot overflow the stack.
        let mut stack = vec![(c, false)];
        while let Some((x, children_done)) = stack.pop() {
            if children_done {
                g.up[x] = Some(g.read(|s| self.up_message(x, s, arena)));
                g.computed += 1;
            } else {
                stack.push((x, true));
                let children = &self.cliques[x].children;
                stack.extend(
                    children
                        .iter()
                        .filter(|&&ch| pending(g, ch))
                        .map(|&ch| (ch, false)),
                );
            }
        }
    }

    /// Make the downward message into clique `c` readable under `g`:
    /// walk up to the nearest clique whose inbound message is known — the
    /// root, a clique whose subtree holds all the evidence (base message),
    /// or one computed earlier — then compute the chain back down,
    /// ensuring each step's sibling messages first.
    fn ensure_down(&self, c: usize, g: &mut Propagation, arena: &mut FactorArena) {
        let mut chain = Vec::new();
        let mut x = c;
        while let Some(p) = self.cliques[x].parent {
            if g.below[x] == g.n_evidence_cliques || g.down[x].is_some() {
                break;
            }
            chain.push(x);
            x = p;
        }
        for &x in chain.iter().rev() {
            let p = self.cliques[x].parent.expect("chain cliques have a parent");
            for &sib in &self.cliques[p].children {
                if sib != x {
                    self.ensure_up(sib, g, arena);
                }
            }
            g.down[x] = Some(g.read(|s| self.down_message(x, s, arena)));
            g.computed += 1;
        }
    }
}

/// The inputs one product reads: a propagation's evidence-reduced
/// potentials and recomputed messages where it has them, else the base
/// calibration's — resolved by reference, never cloned.
struct Sources<'a> {
    /// Evidence-reduced potentials (`None`, or out of range: the base).
    pots: &'a [Option<Factor>],
    /// Recomputed upward messages (`None`: the base message).
    up: &'a [Option<Factor>],
    /// Recomputed downward messages (`None`: the base message).
    down: &'a [Option<Factor>],
    /// Base messages read through this view.
    reused: Cell<u64>,
}

impl<'a> Sources<'a> {
    /// The view calibration builds the base messages through: its own
    /// messages so far, no evidence (the base is still empty).
    fn calibration(up: &'a [Option<Factor>], down: &'a [Option<Factor>]) -> Self {
        Self {
            pots: &[],
            up,
            down,
            reused: Cell::new(0),
        }
    }

    /// Message `c` from `own`, else from `base` (counted as reused).
    ///
    /// # Panics
    /// Panics if neither holds it: a message read before it was computed.
    fn resolve(
        &self,
        own: &'a [Option<Factor>],
        base: &'a [Option<Factor>],
        c: usize,
    ) -> &'a Factor {
        own[c].as_ref().unwrap_or_else(|| {
            self.reused.set(self.reused.get() + 1);
            base.get(c)
                .and_then(Option::as_ref)
                .expect("message computed before it is read")
        })
    }
}

/// One evidence group's re-propagation state.
struct Propagation {
    /// Evidence-reduced potentials of the evidence cliques.
    pots: Vec<Option<Factor>>,
    /// Distinct evidence cliques in each clique's subtree. An upward
    /// message changes iff its `below > 0`; a downward message into `c`
    /// changes iff `below[c] < n_evidence_cliques`.
    below: Vec<usize>,
    /// Distinct cliques holding evidence.
    n_evidence_cliques: usize,
    /// Upward messages computed so far (`None`: not needed yet, or base).
    up: Vec<Option<Factor>>,
    /// Downward messages computed so far (`None`: not needed yet, or base).
    down: Vec<Option<Factor>>,
    /// Messages computed (up + down).
    computed: u64,
    /// Base messages read.
    reused: u64,
}

impl Propagation {
    /// Reduce the evidence cliques' potentials (zero every disagreeing
    /// row, keeping the scope) and count evidence cliques per subtree.
    fn new(jt: &JoinTree, evidence: &[(usize, u8)]) -> Self {
        let k = jt.cliques.len();
        let mut pots: Vec<Option<Factor>> = vec![None; k];
        let mut below = vec![0usize; k];
        let mut n_evidence_cliques = 0;
        for &(v, val) in evidence {
            let hc = jt.home[v];
            if pots[hc].is_none() {
                n_evidence_cliques += 1;
                let mut c = Some(hc);
                while let Some(x) = c {
                    below[x] += 1;
                    c = jt.cliques[x].parent;
                }
            }
            let f = pots[hc].get_or_insert_with(|| jt.potentials[hc].clone());
            zero_out(f, v as u32, val);
        }
        Self {
            pots,
            below,
            n_evidence_cliques,
            up: vec![None; k],
            down: vec![None; k],
            computed: 0,
            reused: 0,
        }
    }

    /// Run `f` against this propagation's [`Sources`], counting the base
    /// messages it reads.
    fn read<R>(&mut self, f: impl FnOnce(&Sources<'_>) -> R) -> R {
        let s = Sources {
            pots: &self.pots,
            up: &self.up,
            down: &self.down,
            reused: Cell::new(0),
        };
        let out = f(&s);
        self.reused += s.reused.get();
        out
    }
}

/// Moral graph of a fitted network: the skeleton plus an edge between
/// every pair of co-parents.
fn moralize(net: &BayesNet) -> UGraph {
    let n = net.n();
    let mut moral = UGraph::empty(n);
    for v in 0..n {
        let parents: Vec<usize> = net.dag().parents(v).iter_ones().collect();
        for &p in &parents {
            moral.add_edge(p, v);
        }
        for i in 0..parents.len() {
            for j in i + 1..parents.len() {
                moral.add_edge(parents[i], parents[j]);
            }
        }
    }
    moral
}

/// Greedy min-fill triangulation: repeatedly eliminate the vertex whose
/// elimination adds the fewest fill edges (ties to the lowest id), and
/// return the elimination cliques reduced to the maximal ones.
fn maximal_cliques(moral: &UGraph) -> Vec<Vec<u32>> {
    let n = moral.n();
    let mut adj: Vec<BitSet> = (0..n).map(|v| moral.neighbors(v).clone()).collect();
    let mut alive = vec![true; n];
    let mut elim: Vec<Vec<u32>> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(usize, usize)> = None; // (fill, v): min, lowest id
        for (v, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                continue;
            }
            let nbrs: Vec<usize> = adj[v].iter_ones().collect();
            let mut fill = 0usize;
            for i in 0..nbrs.len() {
                for j in i + 1..nbrs.len() {
                    if !adj[nbrs[i]].contains(nbrs[j]) {
                        fill += 1;
                    }
                }
            }
            if best.is_none_or(|b| (fill, v) < b) {
                best = Some((fill, v));
            }
        }
        let (_, v) = best.expect("an alive vertex remains");
        let nbrs: Vec<usize> = adj[v].iter_ones().collect();
        let mut clique: Vec<u32> = nbrs.iter().map(|&u| u as u32).collect();
        clique.push(v as u32);
        clique.sort_unstable();
        elim.push(clique);
        for i in 0..nbrs.len() {
            for j in i + 1..nbrs.len() {
                adj[nbrs[i]].insert(nbrs[j]);
                adj[nbrs[j]].insert(nbrs[i]);
            }
        }
        for &u in &nbrs {
            adj[u].remove(v);
        }
        adj[v].clear();
        alive[v] = false;
    }
    // Keep only maximal cliques; among duplicates keep the first.
    let keep: Vec<bool> = (0..elim.len())
        .map(|i| {
            !elim.iter().enumerate().any(|(j, other)| {
                j != i && is_subset(&elim[i], other) && (elim[i].len() < other.len() || j < i)
            })
        })
        .collect();
    elim.into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect()
}

/// Maximum-sepset-weight spanning tree over the clique graph (Prim from
/// clique 0, canonical tie-breaks), returned as parent pointers. Any
/// maximum-weight spanning tree of the clique graph of a chordal graph is
/// a junction tree (satisfies the running-intersection property);
/// zero-weight edges bridge disconnected components harmlessly (their
/// sepset messages are scalars).
fn max_sepset_spanning_tree(cliques: &[Vec<u32>]) -> Vec<Option<usize>> {
    let k = cliques.len();
    let mut parent: Vec<Option<usize>> = vec![None; k];
    let mut in_tree = vec![false; k];
    in_tree[0] = true;
    for _ in 1..k {
        let mut best: Option<(usize, usize, usize)> = None; // (weight, j, i)
        for (j, &jt) in in_tree.iter().enumerate() {
            if jt {
                continue;
            }
            for (i, &it) in in_tree.iter().enumerate() {
                if !it {
                    continue;
                }
                let w = intersect_sorted(&cliques[i], &cliques[j]).len();
                let better = match best {
                    None => true,
                    Some((bw, bj, bi)) => w > bw || (w == bw && (j, i) < (bj, bi)),
                };
                if better {
                    best = Some((w, j, i));
                }
            }
        }
        let (_, j, i) = best.expect("a clique remains outside the tree");
        parent[j] = Some(i);
        in_tree[j] = true;
    }
    parent
}

/// Intersection of two sorted id lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Zero every cell of `f` that disagrees with `var = val` (evidence entry
/// that keeps the scope — and hence all stride bookkeeping — intact).
fn zero_out(f: &mut Factor, var: u32, val: u8) {
    let pos = f
        .vars
        .binary_search(&var)
        .expect("evidence variable must be in the clique");
    let arity = f.arities[pos];
    let right: usize = f.arities[pos + 1..].iter().product();
    let left = f.values.len() / (arity * right);
    for l in 0..left {
        for a in 0..arity {
            if a == val as usize {
                continue;
            }
            let s = (l * arity + a) * right;
            f.values[s..s + right].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpt::Cpt;
    use crate::generator::{generate_network, NetworkSpec};
    use crate::infer::{brute_force_posterior, variable_elimination};
    use fastbn_graph::Dag;

    fn sprinkler() -> BayesNet {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cloudy = Cpt::new(2, vec![], vec![], vec![0.5, 0.5]).unwrap();
        let sprinkler = Cpt::new(2, vec![0], vec![2], vec![0.5, 0.5, 0.9, 0.1]).unwrap();
        let rain = Cpt::new(2, vec![0], vec![2], vec![0.8, 0.2, 0.2, 0.8]).unwrap();
        let wet = Cpt::new(
            2,
            vec![1, 2],
            vec![2, 2],
            vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99],
        )
        .unwrap();
        BayesNet::new(
            "sprinkler",
            dag,
            vec![cloudy, sprinkler, rain, wet],
            vec!["c".into(), "s".into(), "r".into(), "w".into()],
        )
    }

    fn assert_dist_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn junction_tree_matches_ve_and_brute_force_on_sprinkler() {
        let net = sprinkler();
        let jt = JoinTree::build(&net, 1);
        for q in 0..4 {
            let m = jt.posterior(q, &[]).unwrap();
            assert_dist_close(&m, &brute_force_posterior(&net, q, &[]).unwrap(), 1e-12);
        }
        for (q, ev) in [
            (2usize, vec![(3usize, 1u8)]),
            (2, vec![(3, 1), (1, 1)]),
            (0, vec![(3, 0)]),
            (1, vec![(0, 1), (3, 1)]),
        ] {
            let jtp = jt.posterior(q, &ev).unwrap();
            assert_dist_close(&jtp, &variable_elimination(&net, q, &ev).unwrap(), 1e-12);
            assert_dist_close(&jtp, &brute_force_posterior(&net, q, &ev).unwrap(), 1e-12);
        }
    }

    #[test]
    fn batched_answers_come_back_in_query_order() {
        let net = sprinkler();
        let jt = JoinTree::build(&net, 2);
        let queries = vec![
            Query::with_evidence(2, vec![(3, 1)]),
            Query::marginal(0),
            Query::with_evidence(1, vec![(3, 1)]),
            Query::with_evidence(2, vec![(3, 1), (1, 1)]),
            Query::marginal(3),
        ];
        let answers = jt.posteriors(&queries);
        assert_eq!(answers.len(), queries.len());
        for (q, a) in queries.iter().zip(&answers) {
            let a = a.as_ref().unwrap();
            assert_eq!(a.target, q.target);
            let reference = variable_elimination(&net, q.target, &q.evidence).unwrap();
            assert_dist_close(&a.probs, &reference, 1e-12);
        }
    }

    #[test]
    fn impossible_evidence_fails_only_its_own_queries() {
        let net = sprinkler();
        let jt = JoinTree::build(&net, 2);
        let queries = vec![
            Query::marginal(2),
            // P(wet=1 | sprinkler=0, rain=0) = 0 — a null event.
            Query::with_evidence(0, vec![(1, 0), (2, 0), (3, 1)]),
            // Contradictory evidence.
            Query::with_evidence(0, vec![(1, 0), (1, 1)]),
            Query::with_evidence(2, vec![(3, 1)]),
        ];
        let answers = jt.posteriors(&queries);
        assert!(answers[0].is_ok());
        assert_eq!(answers[1], Err(InferenceError::ImpossibleEvidence));
        assert_eq!(answers[2], Err(InferenceError::ImpossibleEvidence));
        assert!(answers[3].is_ok());
    }

    #[test]
    fn agrees_with_ve_on_random_networks() {
        for seed in [2u64, 6, 11] {
            let net = generate_network(&NetworkSpec::small("jt", 9, 11), seed);
            let jt = JoinTree::build(&net, 2);
            let ev = vec![(0usize, 0u8), (4usize, 0u8)];
            for q in [1usize, 3, 7] {
                let jtp = jt.posterior(q, &ev).unwrap();
                let ve = variable_elimination(&net, q, &ev).unwrap();
                assert_dist_close(&jtp, &ve, 1e-9);
            }
        }
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let net = generate_network(&NetworkSpec::small("det", 12, 16), 21);
        let queries: Vec<Query> = (0..net.n())
            .map(|t| {
                let ev_var = (t + 1) % net.n();
                Query::with_evidence(t, vec![(ev_var, 0)])
            })
            .collect();
        let reference = JoinTree::build(&net, 1).posteriors(&queries);
        for threads in [2usize, 4, 8] {
            let jt = JoinTree::build(&net, threads);
            let answers = jt.posteriors(&queries);
            for (a, b) in answers.iter().zip(&reference) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.probs.len(), b.probs.len());
                for (x, y) in a.probs.iter().zip(&b.probs) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} diverged");
                }
            }
        }
    }

    /// A view over fully recomputed messages (never falls back to base).
    fn full<'a>(
        pots: &'a [Option<Factor>],
        up: &'a [Option<Factor>],
        down: &'a [Option<Factor>],
    ) -> Sources<'a> {
        Sources {
            pots,
            up,
            down,
            reused: Cell::new(0),
        }
    }

    /// Reference answers with no reuse and no laziness: both passes
    /// recomputed over every clique under the evidence-reduced potentials,
    /// then each target's home belief.
    fn eager_posteriors(
        jt: &JoinTree,
        evidence: &[(usize, u8)],
        targets: &[usize],
    ) -> Vec<Result<Vec<f64>, InferenceError>> {
        let k = jt.cliques.len();
        let mut pots: Vec<Option<Factor>> = vec![None; k];
        for &(v, val) in evidence {
            let hc = jt.home[v];
            zero_out(
                pots[hc].get_or_insert_with(|| jt.potentials[hc].clone()),
                v as u32,
                val,
            );
        }
        let mut arena = FactorArena::new();
        let mut up: Vec<Option<Factor>> = vec![None; k];
        let mut down: Vec<Option<Factor>> = vec![None; k];
        for ids in jt.levels[1..].iter().rev() {
            for &c in ids {
                let m = jt.up_message(c, &full(&pots, &up, &down), &mut arena);
                up[c] = Some(m);
            }
        }
        for ids in &jt.levels[1..] {
            for &c in ids {
                let m = jt.down_message(c, &full(&pots, &up, &down), &mut arena);
                down[c] = Some(m);
            }
        }
        let s = full(&pots, &up, &down);
        let answers = targets
            .iter()
            .map(|&t| {
                let hc = jt.home[t];
                let m = jt.message(hc, &jt.belief_sources(hc, &s), &[t as u32], &mut arena);
                m.normalized().map(|f| f.values().to_vec())
            })
            .collect();
        assert_eq!(s.reused.get(), 0, "the oracle reads no base message");
        answers
    }

    /// Evidence for one oracle case, drawn from `pick` by `shape`:
    /// 0 — 0–3 random items; 1 — two variables of one clique; 2 — a
    /// variable of the root clique; 3 — a variable whose home clique is
    /// home to another variable too (so some target lives in it).
    fn oracle_evidence(jt: &JoinTree, shape: usize, pick: u64) -> Vec<(usize, u8)> {
        let mut state = pick;
        let mut draw = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % bound as u64) as usize
        };
        let vars: Vec<usize> = match shape {
            0 => (0..draw(4)).map(|_| draw(jt.n_vars)).collect(),
            1 => {
                let wide: Vec<&Clique> = jt.cliques.iter().filter(|c| c.vars.len() >= 2).collect();
                let c = wide[draw(wide.len())];
                let i = draw(c.vars.len());
                let j = (i + 1 + draw(c.vars.len() - 1)) % c.vars.len();
                vec![c.vars[i] as usize, c.vars[j] as usize]
            }
            2 => {
                let root = &jt.cliques[0].vars;
                vec![root[draw(root.len())] as usize]
            }
            _ => {
                let shared: Vec<usize> = (0..jt.n_vars)
                    .filter(|&v| (0..jt.n_vars).any(|u| u != v && jt.home[u] == jt.home[v]))
                    .collect();
                vec![shared[draw(shared.len())]]
            }
        };
        let mut ev: Vec<(usize, u8)> = vars
            .into_iter()
            .map(|v| (v, draw(jt.arities[v]) as u8))
            .collect();
        ev.sort_unstable();
        ev.dedup_by_key(|e| e.0);
        ev
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Demand-driven re-propagation answers every target bit for bit
        /// like the eager oracle, whatever messages it skipped or reused.
        #[test]
        fn posteriors_match_the_eager_oracle_bitwise(
            (n, extra, seed, shape, pick) in (4usize..=12, 0usize..=8, 1u64..400, 0usize..4, 0u64..u64::MAX)
        ) {
            let edges = (n - 1 + extra).min(n * (n - 1) / 2);
            let net = generate_network(&NetworkSpec::small("oracle", n, edges), seed);
            let jt = JoinTree::build(&net, 1);
            let evidence = oracle_evidence(&jt, shape, pick);
            let targets: Vec<usize> = (0..n).filter(|t| evidence.iter().all(|e| e.0 != *t)).collect();
            // One group holding every target (so memoized messages are
            // shared across them) next to an evidence-free group.
            let mut queries: Vec<Query> = targets
                .iter()
                .map(|&t| Query::with_evidence(t, evidence.clone()))
                .collect();
            queries.extend((0..n).map(Query::marginal));
            let answers = jt.posteriors(&queries);
            let expected = eager_posteriors(&jt, &evidence, &targets);
            let marginals = eager_posteriors(&jt, &[], &(0..n).collect::<Vec<_>>());
            for (a, e) in answers.iter().zip(expected.iter().chain(&marginals)) {
                match (a, e) {
                    (Ok(a), Ok(e)) => {
                        let a_bits: Vec<u64> = a.probs.iter().map(|p| p.to_bits()).collect();
                        let e_bits: Vec<u64> = e.iter().map(|p| p.to_bits()).collect();
                        proptest::prop_assert_eq!(a_bits, e_bits, "evidence {:?}", evidence);
                    }
                    (Err(a), Err(e)) => proptest::prop_assert_eq!(a, e),
                    _ => proptest::prop_assert!(false, "feasibility diverged: {:?} vs {:?}", a, e),
                }
            }
        }
    }

    /// Two arity-12 roots parenting `m` arity-12 children: every clique is
    /// `{a, b, c_i}` (1728 cells), and all but the root clique hang off it
    /// on level 1 — enough cells per level to cross `TEAM_MIN_CELLS`.
    fn wide_fan(m: usize) -> BayesNet {
        const R: usize = 12;
        let n = m + 2;
        let edges: Vec<(usize, usize)> = (2..n).flat_map(|c| [(0, c), (1, c)]).collect();
        let row = |salt: usize| -> Vec<f64> {
            let w: Vec<f64> = (0..R)
                .map(|s| 1.0 + ((salt * 7 + s * 13) % 11) as f64)
                .collect();
            let total: f64 = w.iter().sum();
            w.into_iter().map(|x| x / total).collect()
        };
        let mut cpts = vec![
            Cpt::new(R as u8, vec![], vec![], row(1)).unwrap(),
            Cpt::new(R as u8, vec![], vec![], row(2)).unwrap(),
        ];
        for c in 2..n {
            let table: Vec<f64> = (0..R * R).flat_map(|cfg| row(cfg + 3 * c)).collect();
            cpts.push(Cpt::new(R as u8, vec![0, 1], vec![R as u8, R as u8], table).unwrap());
        }
        let names = (0..n).map(|v| format!("v{v}")).collect();
        BayesNet::new("wide_fan", Dag::from_edges(n, &edges), cpts, names)
    }

    #[test]
    fn work_past_the_team_constant_fans_out_and_stays_bitwise() {
        let net = wide_fan(64);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::with_evidence(2 + i, vec![(2 + (i + 3) % 64, i as u8)]))
            .chain([
                Query::with_evidence(5, vec![(0, 4)]),
                Query::with_evidence(1, vec![(0, 4), (9, 2)]),
                Query::marginal(3),
            ])
            .collect();
        let evidence_groups = 10;
        let reference_tree = JoinTree::build(&net, 1);
        let reference = reference_tree.posteriors(&queries);
        for threads in [2usize, 4, 8] {
            let jt = JoinTree::build(&net, threads);
            let level = &jt.levels[1];
            let level_cells: usize = level.iter().map(|&c| jt.cliques[c].cells).sum();
            assert!(jt.fans_out(level.len(), level_cells), "level 1 runs inline");
            let batch_cells = evidence_groups * jt.stats().total_belief_cells;
            assert!(
                jt.fans_out(evidence_groups + 1, batch_cells),
                "batch runs inline"
            );
            for (a, b) in jt.beliefs.iter().zip(&reference_tree.beliefs) {
                let bits = |f: &Factor| f.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "threads={threads}: beliefs diverged");
            }
            for (a, b) in jt.posteriors(&queries).iter().zip(&reference) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                for (x, y) in a.probs.iter().zip(&b.probs) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} diverged");
                }
            }
        }
    }

    #[test]
    fn serving_sized_work_runs_inline() {
        let net = crate::zoo::by_name("alarm", 3).unwrap();
        let jt = JoinTree::build(&net, 2);
        let cells = |ids: &[usize]| ids.iter().map(|&c| jt.cliques[c].cells).sum();
        for ids in &jt.levels {
            assert!(!jt.fans_out(ids.len(), cells(ids)));
        }
        let all: Vec<usize> = (0..jt.cliques.len()).collect();
        assert!(!jt.fans_out(all.len(), cells(&all)));
        // A 16-query batch has at most 16 evidence groups; the 1000-query
        // batch of `benches/infer.rs` has 37.
        let tbc = jt.stats().total_belief_cells;
        assert!(!jt.fans_out(16, 16 * tbc));
        assert!(jt.fans_out(38, 37 * tbc));
    }

    #[test]
    fn fully_disconnected_network_builds_singleton_cliques() {
        // No edges at all: every clique is a single node, sepsets are
        // empty, and the tree still answers exact marginals.
        let dag = Dag::empty(3);
        let cpts = vec![
            Cpt::new(2, vec![], vec![], vec![0.3, 0.7]).unwrap(),
            Cpt::new(3, vec![], vec![], vec![0.2, 0.3, 0.5]).unwrap(),
            Cpt::new(2, vec![], vec![], vec![0.9, 0.1]).unwrap(),
        ];
        let net = BayesNet::new("indep", dag, cpts, vec!["a".into(), "b".into(), "c".into()]);
        let jt = JoinTree::build(&net, 2);
        assert_eq!(jt.stats().n_cliques, 3);
        assert_eq!(jt.stats().width, 1);
        assert_dist_close(&jt.posterior(1, &[]).unwrap(), &[0.2, 0.3, 0.5], 1e-12);
        // Evidence on a different component leaves the marginal unchanged.
        assert_dist_close(
            &jt.posterior(1, &[(0, 1)]).unwrap(),
            &[0.2, 0.3, 0.5],
            1e-12,
        );
    }

    #[test]
    fn stats_report_tree_shape() {
        let net = sprinkler();
        let jt = JoinTree::build(&net, 1);
        let s = jt.stats();
        // Sprinkler triangulates into two 3-cliques: {c,s,r} and {s,r,w}.
        assert_eq!(s.n_cliques, 2);
        assert_eq!(s.width, 3);
        assert_eq!(s.max_clique_cells, 8);
        assert_eq!(s.total_belief_cells, 16);
    }

    #[test]
    fn single_node_network() {
        let dag = Dag::empty(1);
        let net = BayesNet::new(
            "one",
            dag,
            vec![Cpt::new(4, vec![], vec![], vec![0.1, 0.2, 0.3, 0.4]).unwrap()],
            vec!["x".into()],
        );
        let jt = JoinTree::build(&net, 1);
        assert_dist_close(&jt.posterior(0, &[]).unwrap(), &[0.1, 0.2, 0.3, 0.4], 1e-12);
    }

    #[test]
    #[should_panic(expected = "query cannot also be evidence")]
    fn target_as_evidence_panics() {
        let net = sprinkler();
        let jt = JoinTree::build(&net, 1);
        let _ = jt.posterior(0, &[(0, 1)]);
    }

    #[test]
    fn subset_and_intersection_helpers() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert_eq!(intersect_sorted(&[1, 2, 4], &[2, 3, 4]), vec![2, 4]);
        assert_eq!(intersect_sorted(&[1], &[2]), Vec::<u32>::new());
    }
}
