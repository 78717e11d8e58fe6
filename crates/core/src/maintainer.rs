//! The common interface of incremental SimRank engines.

use crate::query::{RankedNode, ScoreSnapshot, ScoreView, SnapshotQuery};
use crate::rankone::UpdateKind;
use incsim_graph::{DiGraph, GraphError, UpdateOp};
use incsim_linalg::{DenseMatrix, LowRankDelta, Recompression};
use std::sync::Arc;

use crate::SimRankConfig;

/// How an engine folds the per-update terms `ξ_k·η_kᵀ + η_k·ξ_kᵀ` of ΔS
/// into its score matrix (see [`incsim_linalg::LowRankDelta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApplyMode {
    /// Apply every term immediately — `K+1` full sweeps of `S` per unit
    /// update (the paper's Algorithm 1/2 as written). The default.
    #[default]
    Eager,
    /// Buffer the terms and fold them in with **one** fused, cache-blocked,
    /// parallel sweep per mutation call; a batch of `b` updates costs one
    /// sweep instead of `b·(K+1)`.
    Fused,
    /// Never apply automatically: queries read `S_base + Δ` through the
    /// factor buffer, and the matrix is only materialised on an explicit
    /// `flush()` (or when an operation needs the full matrix, e.g. the
    /// row-grouped path or `add_node`). Reads through
    /// [`MatrixAccess::view`] compose `S_base + Δ` transparently;
    /// [`MatrixAccess::scores`] materialises the pending Δ first, so
    /// a stale base matrix is never observable through the trait.
    Lazy,
}

/// Shared deferred-ΔS state of the engines that support every
/// [`ApplyMode`] ([`crate::IncSr`], [`crate::IncUSr`]): the current mode
/// plus the pending factor buffer. Centralising it here keeps the
/// mode/flush semantics of the two engines from drifting apart.
///
/// The helpers take the engine's shared score buffer and call
/// [`Arc::make_mut`] only when they actually fold factors into it, so a
/// published snapshot keeps sharing the buffer through every call that
/// has nothing to fold.
#[derive(Debug, Clone)]
pub(crate) struct DeferredApply {
    pub mode: ApplyMode,
    pub delta: LowRankDelta,
}

impl DeferredApply {
    pub fn new(n: usize) -> Self {
        DeferredApply {
            mode: ApplyMode::Eager,
            delta: LowRankDelta::new(n),
        }
    }

    /// Folds all pending factors into `scores` (one fused sweep); returns
    /// the number of rank-two terms applied. With nothing pending the
    /// buffer is left untouched, and so stays shared.
    pub fn flush_into(&mut self, scores: &mut Arc<DenseMatrix>) -> usize {
        if self.delta.is_empty() {
            return 0;
        }
        let pairs = self.delta.pending_pairs();
        self.delta.apply_to(Arc::make_mut(scores));
        pairs
    }

    /// Switches the mode. Materialises pending ΔS only when the mode
    /// actually changes, so re-asserting the current mode (as the adaptive
    /// policy does every update) never cuts a lazy window short.
    pub fn set_mode(&mut self, mode: ApplyMode, scores: &mut Arc<DenseMatrix>) {
        if self.mode != mode {
            self.flush_into(scores);
            self.mode = mode;
        }
    }

    /// Recompresses the pending factor buffer in place to its numerical
    /// rank (see [`LowRankDelta::recompress`]) — the lazy window stays
    /// open, queries drop to `O(rank)`, and nothing is materialised.
    pub fn compress(&mut self, tol: f64) -> Recompression {
        self.delta.recompress(tol)
    }

    /// Re-dimensions the buffer to `n` because the score matrix is about
    /// to be re-shaped (`add_node`). Factors still pending at the *old*
    /// dimension cannot be applied after the re-shape, so they are
    /// flushed into `old_scores` (which must still have the old shape)
    /// first — unconditionally, in every build profile. A `debug_assert!`
    /// here used to vanish in release builds and silently drop an
    /// un-flushed Δ. Returns the number of rank-two terms flushed.
    pub fn resize(&mut self, n: usize, old_scores: &mut Arc<DenseMatrix>) -> usize {
        let flushed = self.flush_into(old_scores);
        self.delta = LowRankDelta::new(n);
        flushed
    }
}

/// Errors from incremental updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The underlying graph mutation was invalid (node out of range,
    /// duplicate insert, missing delete).
    Graph(GraphError),
    /// The engine refused to allocate past its memory budget. The paper's
    /// Inc-SVD baseline hits this on large graphs/ranks ("memory crash for
    /// high-dimension SVD"); the budget guard turns that into a clean error.
    ResourceExhausted {
        /// Bytes the engine would have needed.
        needed_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
    },
    /// A numerical routine inside the engine failed (e.g. a singular
    /// system in the Inc-SVD closed form).
    Numerical(&'static str),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Graph(e) => write!(f, "graph update rejected: {e}"),
            UpdateError::ResourceExhausted {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded: need {needed_bytes} bytes, budget {budget_bytes}"
            ),
            UpdateError::Numerical(what) => write!(f, "numerical failure: {what}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<GraphError> for UpdateError {
    fn from(e: GraphError) -> Self {
        UpdateError::Graph(e)
    }
}

/// Per-update diagnostics (drives the paper's Exp-2/Exp-3 measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Insert or delete.
    pub kind: UpdateKind,
    /// The updated edge `(i, j)`.
    pub edge: (u32, u32),
    /// Iterations `K` performed.
    pub iterations: usize,
    /// Distinct node pairs touched in the update matrix `M` (the affected
    /// area of ΔS). For the unpruned engine this is `n²`.
    pub affected_pairs: usize,
    /// The paper's `|AFF| = avg_k |A_k|·|B_k|` (Fig. 2e reports it as a
    /// percentage of `n²`).
    pub aff_avg: f64,
    /// Fraction of the `n²` node pairs *not* touched (Fig. 2d's
    /// "% of pruned node-pairs"). 0 for the unpruned engine.
    pub pruned_fraction: f64,
    /// Peak intermediate heap bytes used by this update (Fig. 3's
    /// "memory space"; excludes the `n²` score matrix itself, matching the
    /// paper's definition of intermediate space).
    pub peak_intermediate_bytes: usize,
    /// Fraction of nonzero entries in this update's γ vector (`nnz(γ)/n`).
    /// This is the workload signal the adaptive apply policy routes on:
    /// a sparse γ means the eager zero-skip sweeps are already cheap, a
    /// dense γ means a fused/deferred apply pays. Engines without a γ
    /// (Inc-SVD, batch recompute) report `1.0` — their updates always
    /// touch the full matrix.
    pub gamma_density: f64,
    /// The [`ApplyMode`] that was in effect when this update ran.
    pub applied_mode: ApplyMode,
    /// Rank of the pending ΔS factor buffer *after* this update returned
    /// (0 whenever the matrix is fully materialised; grows by `K+1` per
    /// deferred update inside a lazy window or a fused batch).
    pub pending_rank: usize,
}

/// A requested capability is not implemented by the active engine —
/// e.g. asking a matrix-free engine ([`crate::ProbeSim`]) for its dense
/// score matrix. The documented, non-panicking answer to "this engine
/// cannot do that".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityError {
    /// Name of the engine the capability was requested from.
    pub engine: &'static str,
    /// The missing capability (e.g. `"MatrixAccess"`).
    pub capability: &'static str,
}

impl std::fmt::Display for CapabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine {} does not implement the {} capability",
            self.engine, self.capability
        )
    }
}

impl std::error::Error for CapabilityError {}

/// Counters of the matrix-free (graph-only) engine — the probe engine's
/// analogue of the apply-pipeline diagnostics. Engines with an apply
/// pipeline report `None` from
/// [`SimRankMaintainer::walk_stats`]; the service layer surfaces these
/// instead of zero-stuffing its apply-mode counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Graph mutations absorbed without any score recomputation (the
    /// index-free engine's "update" is just the graph edit).
    pub walk_updates: u64,
    /// Reverse walks sampled by pair queries so far (both sides of a
    /// pair count; ranked reads are exact and sample none).
    pub walks_sampled: u64,
    /// In-edges visited by the series passes of ranked reads so far.
    pub probe_expansions: u64,
}

impl WalkStats {
    /// Accumulates `other` into `self` (saturating).
    pub fn merge(&mut self, other: &WalkStats) {
        self.walk_updates = self.walk_updates.saturating_add(other.walk_updates);
        self.walks_sampled = self.walks_sampled.saturating_add(other.walks_sampled);
        self.probe_expansions = self.probe_expansions.saturating_add(other.probe_expansions);
    }
}

/// The graph-mutation capability: an engine that consumes an evolving
/// edge stream and keeps *some* internal representation current.
///
/// This is the one capability every engine must implement; what an
/// engine maintains in response (a dense matrix, low-rank factors, or —
/// for the matrix-free probe engine — nothing beyond the graph itself)
/// is expressed through the other capability traits.
pub trait GraphSink {
    /// Engine name as used in the paper's figures (e.g. `"Inc-SR"`).
    fn name(&self) -> &'static str;

    /// The current graph.
    fn graph(&self) -> &DiGraph;

    /// The engine configuration.
    fn config(&self) -> &SimRankConfig;

    /// Inserts edge `(i, j)` and incrementally updates the maintained state.
    fn insert_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError>;

    /// Deletes edge `(i, j)` and incrementally updates the maintained state.
    fn remove_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError>;

    /// Appends an isolated node (extension beyond the paper, which fixes
    /// the node set). Engines with a score matrix grow it; the new node's
    /// only nonzero score is its diagonal `1 − C`.
    fn add_node(&mut self) -> u32;

    /// Applies one [`UpdateOp`].
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, UpdateError> {
        match op {
            UpdateOp::Insert(u, v) => self.insert_edge(u, v),
            UpdateOp::Delete(u, v) => self.remove_edge(u, v),
        }
    }

    /// Applies a batch update `ΔG` as the sequence of its unit updates
    /// (the decomposition described in §V of the paper). Stops at the first
    /// invalid op, leaving the engine consistent with the ops applied so far.
    fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, UpdateError> {
        let mut stats = Vec::with_capacity(ops.len());
        for &op in ops {
            stats.push(self.apply(op)?);
        }
        Ok(stats)
    }
}

/// The single-pair query capability: `S(a, b)` of the current graph.
///
/// Exact engines answer from their maintained matrix (`O(1)`
/// materialised, `O(r)` through a pending Δ); the probe engine answers
/// by sampling coupled reverse walks, within its documented `(1 ± ε)`
/// contract.
pub trait PairQuery {
    /// Similarity of one node pair (symmetric).
    ///
    /// # Panics
    /// Panics if either node is out of range.
    fn pair_score(&self, a: u32, b: u32) -> f64;
}

/// The single-source query capability: all similarities of one node.
pub trait SingleSourceQuery {
    /// Similarities of node `a`, excluding itself. Matrix engines list
    /// every other node (zeros included); the matrix-free engine lists
    /// only nodes with a nonzero score — an absent node means score 0.
    fn single_source(&self, a: u32) -> Vec<RankedNode>;

    /// Nodes whose similarity to `a` is at least `threshold`, unordered.
    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.single_source(a)
            .into_iter()
            .filter(|r| r.score >= threshold)
            .collect()
    }
}

/// The top-k query capability: the `k` most similar nodes to a query
/// node, ranked by the shared rule (score descending, ties by node id).
pub trait TopKQuery {
    /// The `k` most similar nodes to `a`, descending (ties by node id).
    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode>;
}

/// The dense-matrix capability: the engine maintains the full `n × n`
/// score matrix (plus, optionally, a deferred low-rank ΔS buffer).
///
/// This was the whole `SimRankMaintainer` surface before the capability
/// split; it is now optional — the matrix-free probe engine does not
/// implement it, and every consumer that used to reach for
/// `base_scores()` goes through
/// [`SimRankMaintainer::matrix`]/[`SimRankMaintainer::matrix_mut`]
/// instead, degrading gracefully when the capability is absent.
///
/// ## Reading scores
///
/// Two read paths, both always consistent regardless of [`ApplyMode`]:
///
/// * [`Self::view`] — a cheap [`ScoreView`] composing `S_base + Δ` over
///   any pending deferred update; never materialises anything.
/// * [`Self::scores`] — the materialised matrix; takes `&mut self` and
///   flushes pending ΔS first, so it can never return stale entries.
///
/// [`Self::base_scores`] exposes the raw base matrix (excluding pending
/// ΔS) for diagnostics and zero-copy internal reads; treat anything it
/// returns mid-lazy-window as stale by construction.
///
/// ## Shared base buffer
///
/// Every matrix engine keeps its base matrix in an `Arc`, which
/// [`Self::base_scores`] exposes. A [`Self::snapshot_view`] clones that
/// pointer instead of the `n²` entries, so a snapshot shares the
/// engine's buffer until the engine next writes to it; the write then
/// copies the matrix first ([`Arc::make_mut`]) and the snapshot keeps
/// the old one. Calls with nothing to write — reads, re-asserting the
/// current mode, flushing or compressing an empty buffer,
/// [`Self::scores`] with nothing pending — leave the sharing intact.
pub trait MatrixAccess {
    /// The maintained base score matrix **excluding** any pending deferred
    /// ΔS, as the shared buffer that snapshots clone (see the
    /// [trait docs](Self)). Identical to [`Self::scores`] outside lazy
    /// windows; inside one it lags the true state — prefer [`Self::view`]
    /// or [`Self::scores`] unless staleness is explicitly wanted.
    fn base_scores(&self) -> &Arc<DenseMatrix>;

    /// The maintained score matrix (matrix-form SimRank of the current
    /// graph), **with any pending deferred ΔS materialised first** — this
    /// ends a lazy window. Guaranteed never stale; the default
    /// implementation is [`Self::flush`] followed by [`Self::base_scores`].
    fn scores(&mut self) -> &DenseMatrix {
        self.flush();
        self.base_scores()
    }

    /// A transparent read view `S_base + Δ` over the current state.
    /// Answers are identical in every [`ApplyMode`] and nothing is
    /// materialised — inside a lazy window a pair read costs `O(r)` factor
    /// dot-products instead of an `n²` apply.
    fn view(&self) -> ScoreView<'_> {
        ScoreView::new(self.base_scores(), self.pending_delta())
    }

    /// An **owned** frozen handle on the current state (`S_base + Δ`) —
    /// epoch material for concurrent serving. Unlike [`Self::view`] the
    /// result borrows nothing, so it can outlive any subsequent mutation
    /// of the engine; unlike [`Self::scores`] it needs only `&self` and
    /// never materialises the pending ΔS.
    ///
    /// Costs a pointer clone of the base plus a copy of the pending
    /// factor columns: the snapshot shares the engine's base buffer until
    /// the engine's next write, which copies the matrix before changing
    /// it (see the [trait docs](Self)).
    fn snapshot_view(&self) -> ScoreSnapshot {
        ScoreSnapshot::new(Arc::clone(self.base_scores()), self.view().delta().cloned())
    }

    /// The pending deferred-ΔS factor buffer, when the engine defers
    /// applies (`None` for engines that always materialise immediately).
    fn pending_delta(&self) -> Option<&LowRankDelta> {
        None
    }

    /// Rank of the pending ΔS buffer (0 when fully materialised).
    fn pending_rank(&self) -> usize {
        self.pending_delta()
            .map_or(0, incsim_linalg::LowRankDelta::pending_pairs)
    }

    /// The current [`ApplyMode`]. Engines without deferred-apply support
    /// are always [`ApplyMode::Eager`].
    fn mode(&self) -> ApplyMode {
        ApplyMode::Eager
    }

    /// Switches the apply mode, materialising any pending ΔS when the
    /// mode actually changes. Engines without deferred-apply support
    /// ignore this (they behave eagerly in every mode — still correct,
    /// since reads compose `S_base + Δ` and their Δ is always empty).
    fn set_mode(&mut self, mode: ApplyMode) {
        let _ = mode;
    }

    /// Builder-style [`Self::set_mode`].
    fn with_mode(mut self, mode: ApplyMode) -> Self
    where
        Self: Sized,
    {
        self.set_mode(mode);
        self
    }

    /// Folds all pending ΔS factors into the score matrix (no-op when
    /// nothing is pending). Returns the number of rank-two terms applied.
    fn flush(&mut self) -> usize {
        0
    }

    /// Recompresses the pending deferred-ΔS buffer **in place** to its
    /// numerical rank at the relative tolerance `tol` (see
    /// [`LowRankDelta::recompress`]): the lazy window stays open and no
    /// `n²` materialisation happens, but queries drop from `O(r)` to
    /// `O(rank)` and the buffer memory plateaus. Returns the pending rank
    /// after compression; engines without a deferred buffer are no-ops
    /// returning 0 (their Δ is always empty).
    fn compress_pending(&mut self, tol: f64) -> usize {
        let _ = tol;
        0
    }
}

// Every matrix engine answers the three query capabilities the same way:
// through its transparent `S_base + Δ` view. These blanket impls are
// what "the four existing engines implement unchanged in behavior"
// means — their query answers are bit-identical to the pre-split
// `view()`-based reads, and a matrix engine can never drift from its
// own view. Matrix-free engines implement the query traits directly.

impl<T: MatrixAccess> PairQuery for T {
    fn pair_score(&self, a: u32, b: u32) -> f64 {
        self.view().pair(a, b)
    }
}

impl<T: MatrixAccess> SingleSourceQuery for T {
    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.view().single_source(a)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.view().similar_above(a, threshold)
    }
}

impl<T: MatrixAccess> TopKQuery for T {
    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.view().top_k(a, k)
    }
}

/// An engine that maintains SimRank answers on an evolving graph — the
/// composition of the capability traits, and the object-safe surface
/// the `incsim::api` service layer drives through
/// `Box<dyn SimRankMaintainer>`.
///
/// Every engine mutates through [`GraphSink`] and answers the three
/// query capabilities ([`PairQuery`], [`SingleSourceQuery`],
/// [`TopKQuery`]); whether it *also* maintains the dense matrix is
/// discoverable at runtime through [`Self::matrix`] — `Some` for the
/// four exact/factored engines ([`crate::IncSr`], [`crate::IncUSr`],
/// Inc-SVD, batch recompute), `None` for the matrix-free probe engine
/// ([`crate::ProbeSim`]). Consumers needing dense state must go through
/// the capability probe and degrade gracefully (return the documented
/// [`CapabilityError`], never panic) when it is absent.
pub trait SimRankMaintainer: GraphSink + PairQuery + SingleSourceQuery + TopKQuery {
    /// The dense-matrix capability, when this engine maintains the full
    /// `n × n` score matrix. `None` for matrix-free engines.
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        None
    }

    /// Mutable access to the dense-matrix capability (flush, mode
    /// switches, recompression). `None` for matrix-free engines.
    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        None
    }

    /// An **owned** frozen query surface over the current state — epoch
    /// material for concurrent serving, from *any* engine. Matrix
    /// engines freeze `S_base + Δ` through
    /// [`MatrixAccess::snapshot_view`] (the default), sharing the base
    /// buffer until their next write; matrix-free engines must override
    /// with their own graph snapshot.
    fn snapshot_query(&self) -> Arc<dyn SnapshotQuery> {
        match self.matrix() {
            Some(m) => Arc::new(m.snapshot_view()),
            // An engine must expose one of the two snapshot sources; this
            // is a contract violation in the engine, not a user error.
            None => panic!(
                "engine {} implements neither MatrixAccess nor snapshot_query",
                self.name()
            ),
        }
    }

    /// Matrix-free engine counters, for engines without an apply pipeline
    /// (`None` for matrix engines — their diagnostics live in
    /// [`UpdateStats`] and the apply-mode counters).
    fn walk_stats(&self) -> Option<WalkStats> {
        None
    }
}

/// Shared `apply_batch` driver for the deferred-ΔS engines: applies each
/// op through the engine's `apply_update`, and when `fused` is set
/// flushes exactly once at the end — including on the error path, so the
/// engine stays consistent with the ops applied so far. Both [`crate::IncUSr`]
/// and [`crate::IncSr`] delegate here so their batch semantics cannot drift.
pub(crate) fn drive_batch<E>(
    engine: &mut E,
    ops: &[UpdateOp],
    fused: bool,
    apply: impl Fn(&mut E, u32, u32, UpdateKind) -> Result<UpdateStats, UpdateError>,
    flush: impl Fn(&mut E),
) -> Result<Vec<UpdateStats>, UpdateError> {
    let finish = |e: &mut E| {
        if fused {
            flush(e);
        }
    };
    let mut stats = Vec::with_capacity(ops.len());
    for &op in ops {
        let (i, j) = op.endpoints();
        let kind = match op {
            UpdateOp::Insert(..) => UpdateKind::Insert,
            UpdateOp::Delete(..) => UpdateKind::Delete,
        };
        match apply(engine, i, j, kind) {
            Ok(s) => stats.push(s),
            Err(e) => {
                finish(engine);
                return Err(e);
            }
        }
    }
    finish(engine);
    Ok(stats)
}

/// Validates a pending update against the current graph. Shared by all
/// engines (including the Inc-SVD baseline in `incsim-baselines`) so they
/// reject invalid updates *before* touching any state.
pub fn validate_update(g: &DiGraph, i: u32, j: u32, kind: UpdateKind) -> Result<(), UpdateError> {
    let n = g.node_count();
    for v in [i, j] {
        if v as usize >= n {
            return Err(UpdateError::Graph(GraphError::NodeOutOfRange {
                node: v,
                node_count: n,
            }));
        }
    }
    match kind {
        UpdateKind::Insert => {
            if g.has_edge(i, j) {
                return Err(UpdateError::Graph(GraphError::EdgeExists {
                    src: i,
                    dst: j,
                }));
            }
        }
        UpdateKind::Delete => {
            if !g.has_edge(i, j) {
                return Err(UpdateError::Graph(GraphError::EdgeMissing {
                    src: i,
                    dst: j,
                }));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_updates() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        assert!(validate_update(&g, 0, 1, UpdateKind::Insert).is_err());
        assert!(validate_update(&g, 1, 0, UpdateKind::Insert).is_ok());
        assert!(validate_update(&g, 0, 1, UpdateKind::Delete).is_ok());
        assert!(validate_update(&g, 1, 0, UpdateKind::Delete).is_err());
        assert!(validate_update(&g, 0, 9, UpdateKind::Insert).is_err());
        assert!(validate_update(&g, 9, 0, UpdateKind::Delete).is_err());
    }

    #[test]
    fn update_error_displays() {
        let e = UpdateError::Graph(GraphError::EdgeExists { src: 1, dst: 2 });
        assert!(e.to_string().contains("already exists"));
    }
}
