//! **Probe**: the matrix-free engine.
//!
//! Every other engine in this workspace maintains the dense `n × n`
//! score matrix, which caps it at `n` in the thousands. This engine
//! maintains **nothing but the graph**: queries are answered on demand
//! from the graph alone, so its state is `O(n + m)` and no query
//! allocates anything `n²`.
//!
//! ## The series
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
//! in-degree-0 node) sits at `v` after `t` steps.
//!
//! * **Ranked reads** (single-source, top-k, threshold) are exact. They
//!   compute column `a` of `S`: `K` reverse sparse matvecs
//!   `u_{t+1} = Qᵀ·u_t` from `u_0 = e_a`, then a Horner pass
//!   `x ← u_t + C·Q·x` from `x = u_K` down to `u_0`, scaled by `1−C`.
//!   That is the exact form of the walk distribution ProbeSim (Liu et
//!   al.; see PAPERS.md) samples, and Maehara et al.'s linearization with
//!   its diagonal `(1−C)·I` known. Cost: `O(K·(n + m))` time, no
//!   randomness. Only every `⌈√(K+1)⌉`-th `u_t` is kept on the way out,
//!   and the Horner pass recomputes each segment from its checkpoint, so
//!   a read holds `O(√K·n)` floats instead of `O(K·n)` for at most `K`
//!   extra matvecs. The column equals [`crate::batch_simrank`]'s up to
//!   rounding.
//! * **Pair reads** are sampled: `pair_walks` coupled reverse walks from
//!   `a` and `b` add `(1−C)·C^t` whenever they coincide at step `t`.
//!   That is `O(pair_walks·K)` time and `O(1)` space, unbiased for the
//!   K-truncated scores, with noise shrinking as `1/√pair_walks`: the
//!   documented contract is `(1 ± ε)`.

use crate::maintainer::{
    validate_update, GraphSink, PairQuery, SimRankMaintainer, SingleSourceQuery, TopKQuery,
    UpdateError, UpdateStats, WalkStats,
};
use crate::query::{rank_and_truncate, RankedNode, SnapshotQuery};
use crate::rankone::UpdateKind;
use crate::SimRankConfig;
use incsim_graph::DiGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pair-sampling parameters of the probe engine. Ranked reads are exact
/// and take none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOptions {
    /// Walk *pairs* sampled per pair query (two-sided estimate: both
    /// sides are sampled, so the error scales like `O(1/√pair_walks)`).
    pub pair_walks: usize,
    /// Base RNG seed. Pair queries draw per-call substreams from it, so a
    /// fixed seed makes any fixed *sequence* of queries deterministic.
    pub seed: u64,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions {
            pair_walks: 4096,
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

/// The shared query state: everything a query needs, behind `&self`.
/// [`ProbeSim`] wraps one; [`SimRankMaintainer::snapshot_query`] freezes
/// one into a [`ProbeSnapshot`]. Queries take `&self` (the serving
/// layer's read path), so the per-query substream counter and the
/// diagnostics are atomics.
#[derive(Debug)]
struct ProbeCore {
    graph: DiGraph,
    cfg: SimRankConfig,
    opts: ProbeOptions,
    /// Per-query substream counter: pair query `q` seeds its RNG from
    /// `(seed, q)`, so a fixed call sequence is reproducible.
    stream: AtomicU64,
    walks_sampled: AtomicU64,
    /// In-edges visited by the series passes of ranked reads.
    probe_expansions: AtomicU64,
}

impl ProbeCore {
    fn new(graph: DiGraph, cfg: SimRankConfig, opts: ProbeOptions) -> Self {
        ProbeCore {
            graph,
            cfg,
            opts,
            stream: AtomicU64::new(0),
            walks_sampled: AtomicU64::new(0),
            probe_expansions: AtomicU64::new(0),
        }
    }

    /// A frozen copy for epoch snapshots: same graph/parameters,
    /// diagnostics starting fresh. Snapshot pair queries use
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

    /// A substream keyed by the pair itself instead of a call counter:
    /// the frozen-epoch read path, where the same question must always
    /// return the same answer no matter how many times (or from how many
    /// threads) it is asked.
    fn keyed_rng(&self, a: u32, b: u32) -> SplitMix64 {
        let key = (1 << 48) ^ ((a as u64) << 24) ^ b as u64;
        SplitMix64(self.opts.seed ^ key.wrapping_mul(0xA076_1D64_78BD_642F))
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

    /// `Qᵀ·u`: every node `i` spreads `u[i]` evenly over its
    /// in-neighbours. Adds the in-edges visited to `visits`.
    fn reverse_step(&self, u: &[f64], visits: &mut u64) -> Vec<f64> {
        let mut next = vec![0.0; u.len()];
        for (i, &ui) in u.iter().enumerate() {
            if ui != 0.0 {
                let ins = self.graph.in_neighbors(i as u32);
                let w = ui / ins.len() as f64;
                for &v in ins {
                    next[v as usize] += w;
                }
                *visits += ins.len() as u64;
            }
        }
        next
    }

    /// One Horner step in place, `u ← u + C·Q·x`. Adds the in-edges
    /// visited to `visits`.
    fn horner_step(&self, u: &mut [f64], x: &[f64], visits: &mut u64) {
        let c = self.cfg.c;
        for (i, ui) in u.iter_mut().enumerate() {
            let ins = self.graph.in_neighbors(i as u32);
            if !ins.is_empty() {
                let s: f64 = ins.iter().map(|&v| x[v as usize]).sum();
                *ui += c * s / ins.len() as f64;
                *visits += ins.len() as u64;
            }
        }
    }

    /// Column `a` of the K-truncated series, exactly: see the
    /// [module docs](self). Entry `a` is the diagonal `S[a,a]`.
    fn column(&self, a: u32) -> Vec<f64> {
        self.assert_in_range(a);
        let k = self.cfg.iterations;
        let seg = ((k + 1) as f64).sqrt().ceil() as usize;
        let mut visits = 0u64;
        // Out: the checkpoints u_0, u_seg, u_2seg, … up to K.
        let mut u0 = vec![0.0; self.graph.node_count()];
        u0[a as usize] = 1.0;
        let mut checkpoints = vec![u0];
        while checkpoints.len() * seg <= k {
            let mut u = self.reverse_step(&checkpoints[checkpoints.len() - 1], &mut visits);
            for _ in 1..seg {
                u = self.reverse_step(&u, &mut visits);
            }
            checkpoints.push(u);
        }
        // Back: the segments last to first, each recomputed from its
        // checkpoint and folded into x from u_K down to u_0.
        let mut x: Vec<f64> = Vec::new();
        while let Some(first) = checkpoints.pop() {
            let t0 = checkpoints.len() * seg;
            let mut segment = vec![first];
            while segment.len() < seg && t0 + segment.len() <= k {
                let u = self.reverse_step(&segment[segment.len() - 1], &mut visits);
                segment.push(u);
            }
            for mut u in segment.into_iter().rev() {
                if !x.is_empty() {
                    self.horner_step(&mut u, &x, &mut visits);
                }
                x = u;
            }
        }
        self.probe_expansions.fetch_add(visits, Ordering::Relaxed);
        let scale = 1.0 - self.cfg.c;
        x.iter_mut().for_each(|v| *v *= scale);
        x
    }

    /// The exact column as a list: only nodes other than `a` with a
    /// nonzero score, in ascending node-id order (absent ⇒ 0).
    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.column(a)
            .into_iter()
            .zip(0u32..)
            .filter(|&(score, node)| node != a && score != 0.0)
            .map(|(score, node)| RankedNode { node, score })
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
}

/// The matrix-free probe engine. See the [module docs](self).
///
/// Implements [`GraphSink`] + the three query capabilities but **not**
/// [`crate::MatrixAccess`]: [`SimRankMaintainer::matrix`] returns
/// `None`, and consumers that require dense state get the documented
/// [`crate::CapabilityError`] from the service layer instead of a panic.
///
/// ```
/// use incsim_core::{GraphSink, PairQuery, ProbeSim, SimRankConfig, SingleSourceQuery};
/// use incsim_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(2, 0), (2, 1), (0, 3)]);
/// let mut engine = ProbeSim::new(g, SimRankConfig::paper_default());
/// engine.insert_edge(1, 3).unwrap(); // just a graph edit — no n² work
/// assert!(engine.pair_score(0, 1) > 0.0); // sampled on demand
/// assert_eq!(engine.single_source(0)[0].node, 1); // the exact column
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

    /// Creates the engine with explicit pair-sampling parameters.
    pub fn with_options(graph: DiGraph, cfg: SimRankConfig, opts: ProbeOptions) -> Self {
        ProbeSim {
            core: ProbeCore::new(graph, cfg, opts),
            walk_updates: 0,
        }
    }

    /// The pair-sampling parameters in effect.
    pub fn options(&self) -> &ProbeOptions {
        &self.core.opts
    }

    /// Heap bytes held by the engine between queries: the graph alone,
    /// `O(n + m)`, never `n²`. A ranked read holds `O(√K·n)` more for
    /// its duration.
    pub fn heap_bytes(&self) -> usize {
        self.core.graph.heap_bytes()
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

    /// An update is *only* a graph edit: the next query reads the new
    /// topology. `O(deg)` per op, nothing recomputed.
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
/// pair-sampling parameters — `O(n + m)` epoch material where a matrix
/// engine's [`crate::ScoreSnapshot`] keeps an `n²` matrix alive. Queries
/// answer against the frozen topology forever, no matter how the live
/// engine evolves.
///
/// Reads are **idempotent**: ranked reads are exact, and the pair
/// sampling substream is keyed by the query arguments (not a call
/// counter), so the same question on the same epoch always returns the
/// same answer — from any thread, in any order — and
/// `pair(a, b) == pair(b, a)` holds exactly. That mirrors the
/// read-consistency a dense [`crate::ScoreSnapshot`] gives for free.
#[derive(Debug)]
pub struct ProbeSnapshot {
    core: ProbeCore,
}

impl SnapshotQuery for ProbeSnapshot {
    fn n(&self) -> usize {
        self.core.graph.node_count()
    }

    fn pair(&self, a: u32, b: u32) -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        self.core.pair_sampled(lo, hi, self.core.keyed_rng(lo, hi))
    }

    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.core.single_source(a)
    }

    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.core.top_k(a, k)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.core.similar_above(a, threshold)
    }

    fn heap_bytes(&self) -> usize {
        self.core.graph.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_simrank;
    use incsim_linalg::DenseMatrix;
    use std::collections::HashMap;

    /// Ranked reads against batch: rounding only.
    const EXACT: f64 = 1e-12;

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

    /// Enough pair walks that the `1/√R` noise sits well inside the
    /// asserted pair tolerance.
    fn test_opts() -> ProbeOptions {
        ProbeOptions {
            pair_walks: 20_000,
            seed: 7,
        }
    }

    fn cfg() -> SimRankConfig {
        SimRankConfig::new(0.6, 8).expect("valid config")
    }

    /// Asserts that `got` lists row `a` of `truth` within [`EXACT`]:
    /// every other node, absent meaning 0.
    fn assert_row(got: &[RankedNode], truth: &DenseMatrix, a: u32) {
        let by_node: HashMap<u32, f64> = got.iter().map(|r| (r.node, r.score)).collect();
        for b in (0..truth.rows() as u32).filter(|&b| b != a) {
            let est = by_node.get(&b).copied().unwrap_or(0.0);
            let want = truth.get(a as usize, b as usize);
            assert!(
                (est - want).abs() < EXACT,
                "source {a} target {b}: {est} vs {want}"
            );
        }
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
            assert_row(&got, &truth, a);
            // Output is ascending by node id, self and zeros excluded.
            assert!(got.windows(2).all(|w| w[0].node < w[1].node));
            assert!(got.iter().all(|r| r.node != a && r.score > 0.0));
            // A threshold read is the same column, cut at the threshold.
            let above = engine.similar_above(a, 0.01);
            assert_row(&above, &truth, a);
            let want = crate::query::similar_above(&truth, a, 0.01);
            assert_eq!(above.len(), want.len(), "source {a}");
        }
        // Node 4 has no in-links: its column is e_4 alone.
        assert!(engine.single_source(4).is_empty());
    }

    #[test]
    fn top_k_ranks_the_strongest_pair_first() {
        let g = fixture();
        let truth = batch_simrank(&g, &cfg());
        let engine = ProbeSim::with_options(g, cfg(), test_opts());
        for a in 0..7u32 {
            let top = engine.top_k(a, 3);
            assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
            let want = crate::query::top_k_for_node(&truth, a, 3);
            let want_nonzero = want.iter().filter(|r| r.score > 0.0).count();
            assert_eq!(top.len(), want_nonzero, "source {a}");
            for (got, want) in top.iter().zip(&want) {
                assert!((got.score - want.score).abs() < EXACT, "source {a}");
                let at = truth.get(a as usize, got.node as usize);
                assert!((got.score - at).abs() < EXACT, "source {a}");
            }
        }
        // The true argmax of row 0 heads the list.
        assert_eq!(engine.top_k(0, 1)[0].node, 1);
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
        assert_eq!(ws.walks_sampled, 2 * test_opts().pair_walks as u64);
        assert_eq!(ws.probe_expansions, 0, "no ranked read yet");
        let _ = engine.top_k(0, 3);
        let ws = engine.walk_stats().expect("probe reports walk stats");
        assert_eq!(ws.walks_sampled, 2 * test_opts().pair_walks as u64);
        assert!(ws.probe_expansions > 0);
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
            batch_simrank(&g2, &cfg())
        };
        assert!((after - truth_after.get(0, 1)).abs() < 0.05);
        assert!(before > after + 0.02, "{before} vs {after}");
        assert_row(&engine.single_source(0), &truth_after, 0);
    }

    #[test]
    fn snapshot_freezes_the_topology() {
        let mut engine = ProbeSim::with_options(fixture(), cfg(), test_opts());
        let snap = engine.snapshot_query();
        assert_eq!(snap.n(), 7);
        let frozen = snap.pair(0, 1);
        let frozen_row = snap.single_source(0);
        assert_eq!(frozen_row, engine.single_source(0), "same exact column");
        assert_eq!(snap.top_k(0, 3), engine.top_k(0, 3));
        engine.remove_edge(2, 0).unwrap();
        engine.remove_edge(2, 1).unwrap();
        let live = engine.pair_score(0, 1);
        assert!(frozen > 0.02, "fixture pair is similar");
        assert!(live < 1e-9, "no shared in-links remain");
        assert!(engine.single_source(0).iter().all(|r| r.node != 1));
        // Frozen reads are idempotent and symmetric: the pair substream is
        // keyed by the query, so re-asking reproduces the answer exactly.
        assert_eq!(snap.pair(0, 1), frozen);
        assert_eq!(snap.pair(1, 0), frozen);
        assert_eq!(snap.single_source(0), frozen_row);
        assert!(snap.heap_bytes() > 0);
        assert!(snap.score_snapshot().is_none(), "no matrix behind it");
    }
}
