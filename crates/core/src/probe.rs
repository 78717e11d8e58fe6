//! **Probe**: a ProbeSim-style matrix-free Monte-Carlo engine.
//!
//! Every other engine in this workspace maintains the dense `n × n`
//! score matrix, which caps it at `n` in the thousands. This engine
//! maintains **nothing but the graph**: queries are answered on demand
//! by sampling reverse random walks and expanding reverse *probe trees*
//! (ProbeSim, Liu et al.; see PAPERS.md), so its state is `O(n + m)`
//! and a query's scratch is bounded by the reachable neighbourhood —
//! zero `n²` allocations anywhere.
//!
//! ## The estimator
//!
//! The workspace's matrix form at truncation `K` is
//! `S = (1−C)·Σ_{t=0}^{K} C^t·Q^t·(Qᵀ)^t`, i.e.
//!
//! ```text
//! S[a,b] = (1−C)·Σ_t C^t·Σ_v (Q^t)[a,v]·(Q^t)[b,v]
//! ```
//!
//! where `(Q^t)[a,v]` is the probability that a *reverse* random walk
//! from `a` (each step to a uniform in-neighbour; the walk dies at an
//! in-degree-0 node) sits at `v` after `t` steps. Two unbiased samplers
//! fall out directly:
//!
//! * **pair**: sample `R` independent walk *pairs* from `a` and `b` and
//!   add `(1−C)·C^t` whenever they coincide at step `t` — the paper-era
//!   "two-sided" estimate, `O(R·K)` time, `O(K)` space.
//! * **single-source**: sample `R` walks from `a`, tally the positions
//!   `(t, v)`, then *probe* each distinct position: expand `t` forward
//!   levels along out-edges with weight `1/in_deg(child)` per hop,
//!   which computes the exact column `(Q^t)[·, v]`. Only the walk side
//!   is sampled, so the variance is that of the empirical position
//!   distribution alone.
//!
//! With walk length capped at the configured `K`, both estimators are
//! **unbiased for the K-truncated batch scores** — the same truncation
//! every exact engine here uses — so agreement with
//! [`crate::batch_simrank`] is pure sampling noise, shrinking as
//! `1/√R`. The documented contract is `(1 ± ε)` with
//! `ε ≈ O(1/√walks)`; [`ProbeOptions::prune`] trades a small additional
//! one-sided bias (dropped probe mass below the threshold) for bounded
//! probe-tree growth on large graphs.

use crate::fxhash::FxHashMap;
use crate::maintainer::{
    validate_update, GraphSink, PairQuery, SimRankMaintainer, SingleSourceQuery, TopKQuery,
    UpdateError, UpdateStats, WalkStats,
};
use crate::query::{rank_and_truncate, RankedNode, SnapshotQuery};
use crate::rankone::UpdateKind;
use crate::SimRankConfig;
use incsim_graph::DiGraph;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sampling parameters of the probe engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOptions {
    /// Reverse walks sampled per single-source / top-k query. The probe
    /// side is exact, so the error of a score scales like `O(1/√walks)`.
    pub walks: usize,
    /// Walk *pairs* sampled per pair query (two-sided estimate — both
    /// sides are sampled, so pair queries want more samples than
    /// single-source ones for the same ε).
    pub pair_walks: usize,
    /// Probe-tree pruning threshold: frontier entries whose probability
    /// mass falls below this are dropped during expansion. `0.0` keeps
    /// the probe exact; a small positive value (the default) bounds the
    /// tree on large graphs at the cost of a one-sided bias below the
    /// threshold's magnitude.
    pub prune: f64,
    /// Base RNG seed. Queries draw per-call substreams from it, so a
    /// fixed seed makes any fixed *sequence* of queries deterministic.
    pub seed: u64,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions {
            walks: 512,
            pair_walks: 4096,
            prune: 1e-4,
            seed: 0x5EED_CAFE,
        }
    }
}

/// SplitMix64 — the workspace is offline, so the engine carries its own
/// tiny PRNG instead of depending on a rand crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` (`bound ≥ 1`; the modulo bias at
    /// graph-degree bounds is far below the sampling noise floor).
    fn gen_index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The shared walk-state: everything a query needs, behind `&self`.
/// [`ProbeSim`] wraps one; [`SimRankMaintainer::snapshot_query`] freezes
/// one into a [`ProbeSnapshot`]. Queries take `&self` (the serving
/// layer's read path), so the per-query substream counter and the
/// diagnostics are atomics.
#[derive(Debug)]
struct ProbeCore {
    graph: DiGraph,
    cfg: SimRankConfig,
    opts: ProbeOptions,
    /// Per-query substream counter: query `q` seeds its RNG from
    /// `(seed, q)`, so a fixed call sequence is reproducible.
    stream: AtomicU64,
    walks_sampled: AtomicU64,
    probe_expansions: AtomicU64,
    peak_scratch_bytes: AtomicUsize,
}

/// Approximate heap bytes of one scratch `HashMap<(u16, u32), …>` /
/// `HashMap<u32, f64>` entry (key + value + bucket overhead).
const SCRATCH_ENTRY_BYTES: usize = 48;

impl ProbeCore {
    fn new(graph: DiGraph, cfg: SimRankConfig, opts: ProbeOptions) -> Self {
        ProbeCore {
            graph,
            cfg,
            opts,
            stream: AtomicU64::new(0),
            walks_sampled: AtomicU64::new(0),
            probe_expansions: AtomicU64::new(0),
            peak_scratch_bytes: AtomicUsize::new(0),
        }
    }

    /// A frozen copy for epoch snapshots: same graph/parameters,
    /// diagnostics starting fresh. Snapshot queries use
    /// [`Self::keyed_rng`] rather than the live substream counter, so
    /// the copy's counter starts at zero and stays unused.
    fn frozen(&self) -> ProbeCore {
        ProbeCore::new(self.graph.clone(), self.cfg, self.opts)
    }

    fn rng(&self) -> SplitMix64 {
        let sub = self.stream.fetch_add(1, Ordering::Relaxed);
        // Decorrelate the substream from the base seed.
        SplitMix64(self.opts.seed ^ sub.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// A substream keyed by the query itself instead of a call counter:
    /// the frozen-epoch read path, where the same question must always
    /// return the same answer no matter how many times (or from how many
    /// threads) it is asked.
    fn keyed_rng(&self, tag: u64, a: u32, b: u32) -> SplitMix64 {
        let key = (tag << 48) ^ ((a as u64) << 24) ^ b as u64;
        SplitMix64(self.opts.seed ^ key.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn note_scratch(&self, entries: usize) {
        self.peak_scratch_bytes
            .fetch_max(entries * SCRATCH_ENTRY_BYTES, Ordering::Relaxed);
    }

    fn assert_in_range(&self, node: u32) {
        assert!(
            (node as usize) < self.graph.node_count(),
            "node {node} out of range for {} nodes",
            self.graph.node_count()
        );
    }

    /// Two-sided pair estimate over `pair_walks` coupled reverse walks.
    fn pair(&self, a: u32, b: u32) -> f64 {
        self.pair_sampled(a, b, self.rng())
    }

    fn pair_sampled(&self, a: u32, b: u32, mut rng: SplitMix64) -> f64 {
        self.assert_in_range(a);
        self.assert_in_range(b);
        let c = self.cfg.c;
        let k = self.cfg.iterations;
        let r = self.opts.pair_walks.max(1);
        let mut acc = 0.0f64;
        for _ in 0..r {
            let (mut va, mut vb) = (a, b);
            if va == vb {
                acc += 1.0; // the t = 0 coincidence
            }
            let mut ct = 1.0;
            for _t in 1..=k {
                ct *= c;
                let ins_a = self.graph.in_neighbors(va);
                let ins_b = self.graph.in_neighbors(vb);
                if ins_a.is_empty() || ins_b.is_empty() {
                    break; // a dead walk can never coincide again
                }
                va = ins_a[rng.gen_index(ins_a.len())];
                vb = ins_b[rng.gen_index(ins_b.len())];
                if va == vb {
                    acc += ct;
                }
            }
        }
        self.walks_sampled
            .fetch_add(2 * r as u64, Ordering::Relaxed);
        (1.0 - c) * acc / r as f64
    }

    /// Walk-and-probe single-source estimate: sample `walks` reverse
    /// walks from `a`, then probe each distinct position `(t, v)` with
    /// an exact `t`-level forward expansion. Returns only nodes with a
    /// nonzero estimate, in ascending node-id order (absent ⇒ 0).
    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.single_source_sampled(a, self.rng())
    }

    fn single_source_sampled(&self, a: u32, mut rng: SplitMix64) -> Vec<RankedNode> {
        self.assert_in_range(a);
        let c = self.cfg.c;
        let k = self.cfg.iterations;
        let r = self.opts.walks.max(1);

        // Empirical position distribution of the walk side: how many of
        // the R walks sit at v after t steps.
        let mut tally: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for _ in 0..r {
            let mut v = a;
            for t in 1..=k as u32 {
                let ins = self.graph.in_neighbors(v);
                if ins.is_empty() {
                    break;
                }
                v = ins[rng.gen_index(ins.len())];
                *tally.entry((t, v)).or_insert(0) += 1;
            }
        }
        self.walks_sampled.fetch_add(r as u64, Ordering::Relaxed);

        // Probe side, exact: (Q^t)[·, v] by t forward levels from v,
        // dividing by in_deg at every hop.
        let mut scores: FxHashMap<u32, f64> = FxHashMap::default();
        let mut frontier: FxHashMap<u32, f64> = FxHashMap::default();
        let mut next: FxHashMap<u32, f64> = FxHashMap::default();
        let mut expansions = 0u64;
        let mut peak_entries = tally.len();
        // All three drains below go through `detorder`: the probe sums
        // floats per target node, and float addition does not commute in
        // the last bits — hash order would make identically-seeded runs
        // disagree bit-for-bit.
        for ((t, v), cnt) in crate::detorder::sorted_kv(&tally) {
            frontier.clear();
            frontier.insert(v, 1.0);
            for _level in 0..t {
                next.clear();
                for (x, wx) in crate::detorder::sorted_kv(&frontier) {
                    for &y in self.graph.out_neighbors(x) {
                        // in_deg(y) ≥ 1: the edge x→y exists.
                        *next.entry(y).or_insert(0.0) += wx / self.graph.in_degree(y) as f64;
                        expansions += 1;
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                if self.opts.prune > 0.0 {
                    frontier.retain(|_, w| *w >= self.opts.prune);
                }
                peak_entries = peak_entries.max(frontier.len());
                if frontier.is_empty() {
                    break;
                }
            }
            let scale = (1.0 - c) * c.powi(t as i32) * cnt as f64 / r as f64;
            for (b, w) in crate::detorder::sorted_kv(&frontier) {
                *scores.entry(b).or_insert(0.0) += scale * w;
            }
            peak_entries = peak_entries.max(scores.len());
        }
        self.probe_expansions
            .fetch_add(expansions, Ordering::Relaxed);
        self.note_scratch(peak_entries);

        crate::detorder::into_sorted_kv(scores)
            .into_iter()
            .filter(|&(b, _)| b != a)
            .map(|(node, score)| RankedNode { node, score })
            .collect()
    }

    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        rank_and_truncate(self.single_source(a), k)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.single_source(a)
            .into_iter()
            .filter(|rn| rn.score >= threshold)
            .collect()
    }

    fn walk_stats(&self) -> WalkStats {
        WalkStats {
            walk_updates: 0, // stamped by the wrapping engine
            walks_sampled: self.walks_sampled.load(Ordering::Relaxed),
            probe_expansions: self.probe_expansions.load(Ordering::Relaxed),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.peak_scratch_bytes.load(Ordering::Relaxed)
    }
}

/// The matrix-free probe engine. See the [module docs](self).
///
/// Implements [`GraphSink`] + the three query capabilities but **not**
/// [`crate::MatrixAccess`]: [`SimRankMaintainer::matrix`] returns
/// `None`, and consumers that require dense state get the documented
/// [`crate::CapabilityError`] from the service layer instead of a panic.
///
/// ```
/// use incsim_core::{GraphSink, PairQuery, ProbeSim, SimRankConfig};
/// use incsim_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(2, 0), (2, 1), (0, 3)]);
/// let mut engine = ProbeSim::new(g, SimRankConfig::paper_default());
/// engine.insert_edge(1, 3).unwrap(); // just a graph edit — no n² work
/// assert!(engine.pair_score(0, 1) > 0.0); // sampled on demand
/// ```
#[derive(Debug)]
pub struct ProbeSim {
    core: ProbeCore,
    walk_updates: u64,
}

impl ProbeSim {
    /// Creates the engine over `graph` with default [`ProbeOptions`].
    /// No precomputation, no `n²` allocation — construction is `O(1)`
    /// beyond taking ownership of the graph.
    pub fn new(graph: DiGraph, cfg: SimRankConfig) -> Self {
        ProbeSim::with_options(graph, cfg, ProbeOptions::default())
    }

    /// Creates the engine with explicit sampling parameters.
    pub fn with_options(graph: DiGraph, cfg: SimRankConfig, opts: ProbeOptions) -> Self {
        ProbeSim {
            core: ProbeCore::new(graph, cfg, opts),
            walk_updates: 0,
        }
    }

    /// The sampling parameters in effect.
    pub fn options(&self) -> &ProbeOptions {
        &self.core.opts
    }

    /// Heap bytes held by the engine: the graph plus the peak query
    /// scratch observed so far — `O(n + m)`, never `n²`. This is the
    /// number the bench's sub-quadratic growth gate reads.
    pub fn heap_bytes(&self) -> usize {
        self.core.heap_bytes()
    }

    /// Peak scratch bytes any single query has used so far.
    pub fn peak_scratch_bytes(&self) -> usize {
        self.core.peak_scratch_bytes.load(Ordering::Relaxed)
    }

    fn update_stats(&self, kind: UpdateKind, edge: (u32, u32)) -> UpdateStats {
        UpdateStats {
            kind,
            edge,
            iterations: 0,
            affected_pairs: 0,
            aff_avg: 0.0,
            pruned_fraction: 1.0,
            peak_intermediate_bytes: 0,
            // No scores are touched at all — see the field docs.
            gamma_density: 0.0,
            applied_mode: crate::ApplyMode::Eager,
            pending_rank: 0,
        }
    }
}

impl GraphSink for ProbeSim {
    fn name(&self) -> &'static str {
        "Probe"
    }

    fn graph(&self) -> &DiGraph {
        &self.core.graph
    }

    fn config(&self) -> &SimRankConfig {
        &self.core.cfg
    }

    /// An update is *only* a graph edit: the next query samples against
    /// the new topology. `O(deg)` per op, nothing recomputed.
    fn insert_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        validate_update(&self.core.graph, i, j, UpdateKind::Insert)?;
        self.core.graph.insert_edge(i, j)?;
        self.walk_updates += 1;
        Ok(self.update_stats(UpdateKind::Insert, (i, j)))
    }

    fn remove_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        validate_update(&self.core.graph, i, j, UpdateKind::Delete)?;
        self.core.graph.remove_edge(i, j)?;
        self.walk_updates += 1;
        Ok(self.update_stats(UpdateKind::Delete, (i, j)))
    }

    fn add_node(&mut self) -> u32 {
        self.walk_updates += 1;
        self.core.graph.add_node()
    }
}

impl PairQuery for ProbeSim {
    fn pair_score(&self, a: u32, b: u32) -> f64 {
        self.core.pair(a, b)
    }
}

impl SingleSourceQuery for ProbeSim {
    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.core.single_source(a)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.core.similar_above(a, threshold)
    }
}

impl TopKQuery for ProbeSim {
    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.core.top_k(a, k)
    }
}

impl SimRankMaintainer for ProbeSim {
    // matrix()/matrix_mut() keep their `None` defaults: this engine has
    // no dense state — that absence *is* the point.

    fn snapshot_query(&self) -> Arc<dyn SnapshotQuery> {
        Arc::new(ProbeSnapshot {
            core: self.core.frozen(),
        })
    }

    fn walk_stats(&self) -> Option<WalkStats> {
        let mut stats = self.core.walk_stats();
        stats.walk_updates = self.walk_updates;
        Some(stats)
    }
}

/// A frozen probe-engine epoch: its own copy of the graph plus the
/// sampling parameters — `O(n + m)` epoch material where a matrix
/// engine's [`crate::ScoreSnapshot`] keeps an `n²` matrix alive. Queries
/// answer against the frozen topology forever, no matter how the live
/// engine evolves.
///
/// Reads are **idempotent**: the sampling substream is keyed by the
/// query arguments (not a call counter), so the same question on the
/// same epoch always returns the same answer — from any thread, in any
/// order — and `pair(a, b) == pair(b, a)` holds exactly. That mirrors
/// the read-consistency a dense [`crate::ScoreSnapshot`] gives for free.
#[derive(Debug)]
pub struct ProbeSnapshot {
    core: ProbeCore,
}

impl ProbeSnapshot {
    fn row(&self, a: u32) -> Vec<RankedNode> {
        self.core
            .single_source_sampled(a, self.core.keyed_rng(2, a, 0))
    }
}

impl SnapshotQuery for ProbeSnapshot {
    fn n(&self) -> usize {
        self.core.graph.node_count()
    }

    fn pair(&self, a: u32, b: u32) -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        self.core
            .pair_sampled(lo, hi, self.core.keyed_rng(1, lo, hi))
    }

    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.row(a)
    }

    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        rank_and_truncate(self.row(a), k)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.row(a)
            .into_iter()
            .filter(|rn| rn.score >= threshold)
            .collect()
    }

    fn heap_bytes(&self) -> usize {
        self.core.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_simrank;
    use std::collections::HashMap;

    /// 0 ← {2,3} and 1 ← {2,4} share referrer 2, feeding 5 ← {0,1};
    /// node 4 is a source (in-degree 0), so walks through it die.
    fn fixture() -> DiGraph {
        DiGraph::from_edges(
            7,
            &[
                (2, 0),
                (3, 0),
                (2, 1),
                (4, 1),
                (0, 5),
                (1, 5),
                (5, 6),
                (6, 2),
                (6, 3),
            ],
        )
    }

    /// Test parameters: exact probes (no pruning), enough samples that
    /// the `1/√R` noise sits well inside the asserted tolerance.
    fn test_opts() -> ProbeOptions {
        ProbeOptions {
            walks: 3000,
            pair_walks: 20_000,
            prune: 0.0,
            seed: 7,
        }
    }

    fn cfg() -> SimRankConfig {
        SimRankConfig::new(0.6, 8).expect("valid config")
    }

    #[test]
    fn pair_estimates_match_batch_truth() {
        let g = fixture();
        let truth = batch_simrank(&g, &cfg());
        let engine = ProbeSim::with_options(g, cfg(), test_opts());
        for (a, b) in [(0u32, 1u32), (2, 3), (0, 5), (2, 2), (4, 4)] {
            let got = engine.pair_score(a, b);
            let want = truth.get(a as usize, b as usize);
            assert!((got - want).abs() < 0.05, "pair ({a},{b}): {got} vs {want}");
        }
    }

    #[test]
    fn single_source_matches_batch_row() {
        let g = fixture();
        let truth = batch_simrank(&g, &cfg());
        let engine = ProbeSim::with_options(g, cfg(), test_opts());
        for a in 0..7u32 {
            let got = engine.single_source(a);
            // Absent nodes mean score 0; look every node up.
            let by_node: HashMap<u32, f64> = got.iter().map(|r| (r.node, r.score)).collect();
            for b in 0..7u32 {
                if b == a {
                    continue;
                }
                let est = by_node.get(&b).copied().unwrap_or(0.0);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (est - want).abs() < 0.05,
                    "source {a} target {b}: {est} vs {want}"
                );
            }
            // Output is ascending by node id, self excluded.
            assert!(got.windows(2).all(|w| w[0].node < w[1].node));
            assert!(got.iter().all(|r| r.node != a));
        }
    }

    #[test]
    fn top_k_ranks_the_strongest_pair_first() {
        let g = fixture();
        let truth = batch_simrank(&g, &cfg());
        let engine = ProbeSim::with_options(g, cfg(), test_opts());
        let top = engine.top_k(0, 3);
        assert!(top.len() <= 3);
        assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
        // The true argmax of row 0 must sit at the head (its margin in
        // this fixture is far beyond the sampling tolerance).
        let want = crate::query::top_k_for_node(&truth, 0, 1);
        assert_eq!(top[0].node, want[0].node);
    }

    #[test]
    fn queries_are_deterministic_per_sequence() {
        let run = || -> (f64, Vec<RankedNode>) {
            let engine = ProbeSim::with_options(fixture(), cfg(), test_opts());
            (engine.pair_score(0, 1), engine.single_source(3))
        };
        let (p1, s1) = run();
        let (p2, s2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn updates_are_graph_edits_with_walk_stats() {
        let mut engine = ProbeSim::with_options(fixture(), cfg(), test_opts());
        let stats = engine.insert_edge(0, 6).unwrap();
        assert_eq!(stats.pending_rank, 0);
        assert_eq!(stats.affected_pairs, 0);
        assert!(engine.graph().has_edge(0, 6));
        assert!(engine.insert_edge(0, 6).is_err(), "duplicate rejected");
        engine.remove_edge(0, 6).unwrap();
        assert!(!engine.graph().has_edge(0, 6));
        let _ = engine.pair_score(0, 1);
        let ws = engine.walk_stats().expect("probe reports walk stats");
        assert_eq!(ws.walk_updates, 2);
        assert!(ws.walks_sampled > 0);
        // The capability probe reports no matrix.
        assert!(engine.matrix().is_none());
    }

    #[test]
    fn updates_shift_the_estimates() {
        // Deleting 2→1 removes the shared referrer of (0,1); the sampled
        // score must track the batch truth downward.
        let g = fixture();
        let mut engine = ProbeSim::with_options(g.clone(), cfg(), test_opts());
        let before = engine.pair_score(0, 1);
        engine.remove_edge(2, 1).unwrap();
        let after = engine.pair_score(0, 1);
        let truth_after = {
            let mut g2 = g;
            g2.remove_edge(2, 1).unwrap();
            batch_simrank(&g2, &cfg()).get(0, 1)
        };
        assert!((after - truth_after).abs() < 0.05);
        assert!(before > after + 0.02, "{before} vs {after}");
    }

    #[test]
    fn snapshot_freezes_the_topology() {
        let mut engine = ProbeSim::with_options(fixture(), cfg(), test_opts());
        let snap = engine.snapshot_query();
        assert_eq!(snap.n(), 7);
        let frozen = snap.pair(0, 1);
        engine.remove_edge(2, 0).unwrap();
        engine.remove_edge(2, 1).unwrap();
        let live = engine.pair_score(0, 1);
        assert!(frozen > 0.02, "fixture pair is similar");
        assert!(live < 1e-9, "no shared in-links remain");
        // Frozen reads are idempotent and symmetric: the substream is
        // keyed by the query, so re-asking reproduces the answer exactly.
        assert_eq!(snap.pair(0, 1), frozen);
        assert_eq!(snap.pair(1, 0), frozen);
        assert_eq!(snap.single_source(0), snap.single_source(0));
        assert!(snap.heap_bytes() > 0);
        assert!(snap.score_snapshot().is_none(), "no matrix behind it");
    }

    #[test]
    fn pruning_bounds_scratch_and_stays_close() {
        let g = fixture();
        let truth = batch_simrank(&g, &cfg());
        let pruned = ProbeSim::with_options(
            g,
            cfg(),
            ProbeOptions {
                prune: 1e-3,
                ..test_opts()
            },
        );
        let got = pruned.single_source(0);
        let by_node: HashMap<u32, f64> = got.iter().map(|r| (r.node, r.score)).collect();
        for b in 1..7u32 {
            let est = by_node.get(&b).copied().unwrap_or(0.0);
            let want = truth.get(0, b as usize);
            // One-sided bias: pruning can only lose mass.
            assert!(est <= want + 0.05, "target {b}: {est} vs {want}");
            assert!((est - want).abs() < 0.08, "target {b}: {est} vs {want}");
        }
        assert!(pruned.peak_scratch_bytes() > 0);
    }
}
