//! Query helpers over maintained score matrices.
//!
//! The engines keep the full `n × n` matrix current (modulo a pending
//! deferred ΔS); these helpers answer the queries applications actually
//! ask (single pair, single source, top-k for a node) without re-deriving
//! anything. They are extensions beyond the paper, which stops at
//! producing `S̃`.
//!
//! [`ScoreView`] is the one read path for engine state: it composes
//! `S_base + Δ` over any pending [`LowRankDelta`] factor buffer, so the
//! same call returns identical answers in every
//! [`ApplyMode`](crate::maintainer::ApplyMode) — a pair query costs
//! `O(r)` factor dot-products and a per-node query one `O(r·n)` row
//! reconstruction inside a lazy window, and plain contiguous reads when
//! nothing is pending. Obtain one with
//! [`MatrixAccess::view`](crate::MatrixAccess::view).
//!
//! The free functions ([`pair_score`], [`single_source`],
//! [`top_k_for_node`], [`similar_above`]) serve raw matrices that are
//! known to be fully materialised (e.g. decoded snapshots).

use incsim_linalg::{DenseMatrix, LowRankDelta};
use std::sync::Arc;

/// A neighbor of the query node ranked by similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedNode {
    /// The similar node.
    pub node: u32,
    /// Its SimRank score with the query node.
    pub score: f64,
}

/// Similarity of a single node pair (symmetric).
///
/// # Panics
/// Panics if either node is out of range.
pub fn pair_score(scores: &DenseMatrix, a: u32, b: u32) -> f64 {
    scores.get(a as usize, b as usize)
}

/// All similarities of one node (its row of `S`), excluding itself.
pub fn single_source(scores: &DenseMatrix, a: u32) -> Vec<RankedNode> {
    scores
        .row(a as usize)
        .iter()
        .copied()
        .enumerate()
        .filter(|&(v, _)| v != a as usize)
        .map(|(v, score)| RankedNode {
            node: v as u32,
            score,
        })
        .collect()
}

/// Sorts candidates score-descending (ties by node id) and keeps the top
/// `k` — the one ranking rule shared by every top-k helper here (and by
/// the matrix-free probe engine, so rankings agree across engines).
pub(crate) fn rank_and_truncate(mut all: Vec<RankedNode>, k: usize) -> Vec<RankedNode> {
    all.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.node.cmp(&y.node))
    });
    all.truncate(k);
    all
}

/// The `k` most similar nodes to `a`, descending (ties by node id).
pub fn top_k_for_node(scores: &DenseMatrix, a: u32, k: usize) -> Vec<RankedNode> {
    rank_and_truncate(single_source(scores, a), k)
}

/// Nodes whose similarity to `a` is at least `threshold`, unordered.
pub fn similar_above(scores: &DenseMatrix, a: u32, threshold: f64) -> Vec<RankedNode> {
    single_source(scores, a)
        .into_iter()
        .filter(|r| r.score >= threshold)
        .collect()
}

/// A transparent, mode-agnostic read view over engine state
/// `S_eff = S_base + Δ`, where Δ is the (possibly empty) pending
/// [`LowRankDelta`] factor buffer of a deferred apply regime.
///
/// Every query answers against `S_eff`, so callers never need to know —
/// or branch on — the engine's
/// [`ApplyMode`](crate::maintainer::ApplyMode). When Δ is empty the view
/// degenerates to plain matrix reads with no overhead beyond one branch.
///
/// ```
/// use incsim_core::query::ScoreView;
/// use incsim_linalg::{DenseMatrix, LowRankDelta};
///
/// let base = DenseMatrix::zeros(3, 3);
/// let mut delta = LowRankDelta::new(3);
/// delta.push_dense(vec![1.0, 0.0, 0.0], vec![0.0, 2.0, 0.0]);
/// let view = ScoreView::new(&base, Some(&delta));
/// assert_eq!(view.pair(0, 1), 2.0); // composes S_base + Δ, no apply
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ScoreView<'a> {
    base: &'a DenseMatrix,
    delta: Option<&'a LowRankDelta>,
}

impl<'a> ScoreView<'a> {
    /// Creates a view over `base` plus an optional pending Δ. An empty
    /// buffer is normalised to `None`, so the fast path stays branch-cheap.
    pub fn new(base: &'a DenseMatrix, delta: Option<&'a LowRankDelta>) -> Self {
        ScoreView {
            base,
            delta: delta.filter(|d| !d.is_empty()),
        }
    }

    /// Node count `n` of the viewed `n × n` state.
    pub fn n(&self) -> usize {
        self.base.rows()
    }

    /// The base matrix (excluding Δ). For consumers that need raw rows and
    /// handle the deferred part themselves.
    pub fn base(&self) -> &'a DenseMatrix {
        self.base
    }

    /// The pending Δ, if any survives [`Self::new`]'s empty-normalisation.
    pub fn delta(&self) -> Option<&'a LowRankDelta> {
        self.delta
    }

    /// `true` when the view composes a non-empty pending Δ (i.e. the base
    /// matrix alone would be stale).
    pub fn is_deferred(&self) -> bool {
        self.delta.is_some()
    }

    /// Similarity of one node pair: `O(1)` materialised, `O(r)` deferred.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        let direct = self.base.get(a as usize, b as usize);
        match self.delta {
            None => direct,
            Some(d) => direct + d.pair_delta(a as usize, b as usize),
        }
    }

    /// Effective row `a` of `S_eff` (the single-source primitive): one
    /// contiguous row read plus `O(r·n)` factor AXPYs when deferred.
    pub fn row(&self, a: u32) -> Vec<f64> {
        let mut row = self.base.row(a as usize).to_vec();
        if let Some(d) = self.delta {
            d.add_row_delta(a as usize, &mut row);
        }
        row
    }

    /// All similarities of node `a`, excluding itself.
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.row(a)
            .into_iter()
            .enumerate()
            .filter(|&(v, _)| v != a as usize)
            .map(|(v, score)| RankedNode {
                node: v as u32,
                score,
            })
            .collect()
    }

    /// The `k` most similar nodes to `a`, descending (ties by node id).
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        rank_and_truncate(self.single_source(a), k)
    }

    /// Nodes whose similarity to `a` is at least `threshold`, unordered.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.single_source(a)
            .into_iter()
            .filter(|r| r.score >= threshold)
            .collect()
    }

    /// The fully-composed `S_eff` as a fresh matrix (an `n²` copy; for
    /// exports and tests — queries never need this).
    pub fn materialise(&self) -> DenseMatrix {
        let mut s = self.base.clone();
        if let Some(d) = self.delta {
            d.clone().apply_to(&mut s);
        }
        s
    }
}

/// An owned, immutable `S_eff = S_base + Δ` snapshot — the epoch material
/// of the concurrent serving layer (`incsim::serve`).
///
/// Where [`ScoreView`] borrows live engine state, `ScoreSnapshot` holds
/// a reference-counted base matrix plus its own copy of the pending
/// factors: it is `Clone + Send + Sync`, can be parked behind an `Arc`
/// and read from any number of threads while the engine that produced
/// it keeps mutating. Query it through [`Self::view`], which yields a
/// regular [`ScoreView`] over the frozen state.
///
/// The base is never written through a snapshot. An engine's
/// [`MatrixAccess::snapshot_view`](crate::MatrixAccess::snapshot_view)
/// hands over the engine's own buffer, so the snapshot shares it until
/// the engine's next write, which copies the matrix before changing it.
///
/// ```
/// use incsim_core::ScoreSnapshot;
/// use incsim_linalg::DenseMatrix;
/// use std::sync::Arc;
///
/// let base = Arc::new(DenseMatrix::identity(3));
/// let snap = ScoreSnapshot::new(Arc::clone(&base), None);
/// assert_eq!(snap.pair(1, 1), 1.0);
/// // Shares the buffer rather than copying it.
/// assert!(std::ptr::eq(snap.view().base(), &*base));
/// ```
#[derive(Clone, Debug)]
pub struct ScoreSnapshot {
    base: Arc<DenseMatrix>,
    delta: Option<LowRankDelta>,
}

impl ScoreSnapshot {
    /// A snapshot over a shared base matrix plus an optional pending Δ
    /// (an empty buffer is dropped, as in [`ScoreView::new`]).
    pub fn new(base: Arc<DenseMatrix>, delta: Option<LowRankDelta>) -> Self {
        ScoreSnapshot {
            base,
            delta: delta.filter(|d| !d.is_empty()),
        }
    }

    /// Node count `n` of the frozen `n × n` state.
    pub fn n(&self) -> usize {
        self.base.rows()
    }

    /// A [`ScoreView`] over the frozen state — the same query surface as
    /// a live engine view, answering from the snapshot forever.
    pub fn view(&self) -> ScoreView<'_> {
        ScoreView::new(&self.base, self.delta.as_ref())
    }

    /// Similarity of one node pair (see [`ScoreView::pair`]).
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.view().pair(a, b)
    }

    /// All similarities of node `a`, excluding itself.
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.view().single_source(a)
    }

    /// The `k` most similar nodes to `a`, descending (ties by node id).
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.view().top_k(a, k)
    }

    /// Nodes whose similarity to `a` is at least `threshold`, unordered.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.view().similar_above(a, threshold)
    }

    /// Heap bytes this snapshot keeps alive: the whole base matrix, which
    /// it may share with the engine (until the engine's next write) and
    /// with other snapshots, plus its own factor buffer.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self
                .delta
                .as_ref()
                .map_or(0, incsim_linalg::LowRankDelta::heap_bytes)
    }
}

/// An owned, engine-agnostic frozen query surface — what the concurrent
/// serving layer (`incsim::serve`) parks behind an epoch.
///
/// Matrix engines implement it via [`ScoreSnapshot`] (a frozen
/// `S_base + Δ` sharing the engine's base buffer until the engine's next
/// write); matrix-free engines (the probe engine) implement
/// it over a frozen graph copy plus their sampling parameters. Either
/// way the object is `Send + Sync`, answers forever at the state
/// observed when it was taken, and costs no `n²` memory unless the
/// engine itself holds `n²` state.
pub trait SnapshotQuery: std::fmt::Debug + Send + Sync {
    /// Node count `n` of the frozen state.
    fn n(&self) -> usize;

    /// Similarity of one node pair.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    fn pair(&self, a: u32, b: u32) -> f64;

    /// Similarities of node `a`, excluding itself. Matrix snapshots list
    /// every other node; sampling snapshots list only nodes with a
    /// nonzero estimate (absent ⇒ score 0).
    fn single_source(&self, a: u32) -> Vec<RankedNode>;

    /// The `k` most similar nodes to `a`, descending (ties by node id).
    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode>;

    /// Nodes whose similarity to `a` is at least `threshold`, unordered.
    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode>;

    /// Heap bytes held by the frozen state.
    fn heap_bytes(&self) -> usize;

    /// The underlying [`ScoreSnapshot`], when this epoch material is a
    /// frozen matrix (`None` for matrix-free snapshots). Lets consumers
    /// that genuinely need dense rows (exports, diagnostics) recover
    /// them without downcasting.
    fn score_snapshot(&self) -> Option<&ScoreSnapshot> {
        None
    }
}

/// An **epoch-addressed** snapshot handle: a successor epoch's frozen
/// query surface plus a stacked factor delta rolling it *back* to an
/// earlier epoch — the reconstruction material of the temporal epoch
/// ring (`incsim::serve`).
///
/// The ring stores each retained epoch as factor pairs of
/// `S_next − S_this` (`O(r·n)` instead of `n²`); reconstructing epoch
/// `i` stacks the **negated** deltas from `i` up to the ring head onto
/// the head's view. A pair query costs the head's pair read plus `O(r)`
/// factor dot-products; row queries reconstruct through the head's
/// dense rows when available and fall back to per-entry reads
/// otherwise. `n` is pinned to the node count *at the reconstructed
/// epoch*, so nodes added later are out of range here — exactly as they
/// were live.
#[derive(Debug)]
pub struct DeltaSnapshot {
    base: Arc<dyn SnapshotQuery>,
    delta: LowRankDelta,
    n: usize,
}

impl DeltaSnapshot {
    /// Wraps a successor view and a rollback delta into an
    /// earlier-epoch handle with `n` nodes.
    ///
    /// # Panics
    /// Panics if the delta's dimension differs from the base view's `n`
    /// or `n` exceeds it.
    pub fn new(base: Arc<dyn SnapshotQuery>, delta: LowRankDelta, n: usize) -> Self {
        assert_eq!(
            delta.dim(),
            base.n(),
            "DeltaSnapshot: delta dim must match the base view"
        );
        assert!(n <= base.n(), "DeltaSnapshot: n exceeds the base view");
        DeltaSnapshot { base, delta, n }
    }

    /// Effective row `a` at the reconstructed epoch (length `n`).
    fn row(&self, a: u32) -> Vec<f64> {
        assert!((a as usize) < self.n, "node {a} out of range");
        let mut row = match self.base.score_snapshot() {
            Some(ss) => ss.view().row(a),
            // Matrix-free base: reconstruct per entry, O(n·r).
            None => (0..self.base.n() as u32)
                .map(|b| self.base.pair(a, b))
                .collect(),
        };
        self.delta.add_row_delta(a as usize, &mut row);
        row.truncate(self.n);
        row
    }
}

impl SnapshotQuery for DeltaSnapshot {
    fn n(&self) -> usize {
        self.n
    }

    fn pair(&self, a: u32, b: u32) -> f64 {
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "pair ({a},{b}) out of range for epoch n={}",
            self.n
        );
        self.base.pair(a, b) + self.delta.pair_delta(a as usize, b as usize)
    }

    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.row(a)
            .into_iter()
            .enumerate()
            .filter(|&(v, _)| v != a as usize)
            .map(|(v, score)| RankedNode {
                node: v as u32,
                score,
            })
            .collect()
    }

    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        rank_and_truncate(self.single_source(a), k)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.single_source(a)
            .into_iter()
            .filter(|r| r.score >= threshold)
            .collect()
    }

    fn heap_bytes(&self) -> usize {
        // The base view is shared with the live epoch; only the rollback
        // factors are attributable to this handle.
        self.delta.heap_bytes()
    }
}

impl SnapshotQuery for ScoreSnapshot {
    fn n(&self) -> usize {
        ScoreSnapshot::n(self)
    }

    fn pair(&self, a: u32, b: u32) -> f64 {
        ScoreSnapshot::pair(self, a, b)
    }

    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        ScoreSnapshot::single_source(self, a)
    }

    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        ScoreSnapshot::top_k(self, a, k)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        ScoreSnapshot::similar_above(self, a, threshold)
    }

    fn heap_bytes(&self) -> usize {
        ScoreSnapshot::heap_bytes(self)
    }

    fn score_snapshot(&self) -> Option<&ScoreSnapshot> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            &[1.0, 0.5, 0.0, 0.7],
            &[0.5, 1.0, 0.2, 0.0],
            &[0.0, 0.2, 1.0, 0.1],
            &[0.7, 0.0, 0.1, 1.0],
        ])
    }

    #[test]
    fn pair_and_single_source() {
        let s = sample();
        assert_eq!(pair_score(&s, 0, 3), 0.7);
        let row = single_source(&s, 0);
        assert_eq!(row.len(), 3);
        assert!(row.iter().all(|r| r.node != 0));
    }

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let s = sample();
        let top = top_k_for_node(&s, 0, 2);
        assert_eq!(
            top[0],
            RankedNode {
                node: 3,
                score: 0.7
            }
        );
        assert_eq!(
            top[1],
            RankedNode {
                node: 1,
                score: 0.5
            }
        );
        // k larger than candidates truncates gracefully.
        assert_eq!(top_k_for_node(&s, 0, 10).len(), 3);
    }

    #[test]
    fn view_without_delta_matches_free_functions() {
        let s = sample();
        let view = ScoreView::new(&s, None);
        assert!(!view.is_deferred());
        assert_eq!(view.n(), 4);
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(view.pair(a, b), pair_score(&s, a, b));
            }
            assert_eq!(view.single_source(a), single_source(&s, a));
            assert_eq!(view.top_k(a, 2), top_k_for_node(&s, a, 2));
            assert_eq!(view.similar_above(a, 0.5), similar_above(&s, a, 0.5));
        }
    }

    #[test]
    fn deferred_view_matches_materialized_matrix() {
        let s = sample();
        let mut delta = LowRankDelta::new(4);
        delta.push_dense(vec![0.5, 0.0, -1.0, 0.0], vec![0.0, 2.0, 0.0, 1.0]);
        delta.push_sparse(vec![(0, 1.0)], vec![(3, -0.5)]);

        let mut applied = s.clone();
        delta.clone().apply_to(&mut applied);

        let view = ScoreView::new(&s, Some(&delta));
        assert!(view.is_deferred());
        assert!(view.materialise().max_abs_diff(&applied) < 1e-15);
        for a in 0..4u32 {
            for b in 0..4u32 {
                let lazy = view.pair(a, b);
                assert!((lazy - pair_score(&applied, a, b)).abs() < 1e-12);
            }
            let lazy_top = view.top_k(a, 3);
            let full_top = top_k_for_node(&applied, a, 3);
            for (l, f) in lazy_top.iter().zip(&full_top) {
                assert_eq!(l.node, f.node);
                assert!((l.score - f.score).abs() < 1e-12);
            }
            assert_eq!(
                view.single_source(a).len(),
                single_source(&applied, a).len()
            );
        }
    }

    #[test]
    fn snapshot_freezes_state_and_is_send_sync() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<ScoreSnapshot>();

        let mut s = Arc::new(sample());
        let mut delta = LowRankDelta::new(4);
        delta.push_dense(vec![0.5, 0.0, -1.0, 0.0], vec![0.0, 2.0, 0.0, 1.0]);
        let snap = ScoreSnapshot::new(Arc::clone(&s), Some(delta.clone()));
        assert_eq!(snap.n(), 4);
        assert!(snap.view().is_deferred(), "pending Δ travels with it");
        let before: Vec<f64> = (0..4u32).map(|b| snap.pair(0, b)).collect();
        // Mutate the source the way an engine does (copy on write); the
        // snapshot must not move.
        Arc::make_mut(&mut s).set(0, 1, 99.0);
        assert!(!std::ptr::eq(snap.view().base(), &*s));
        delta.push_dense(vec![9.0; 4], vec![9.0; 4]);
        let after: Vec<f64> = (0..4u32).map(|b| snap.pair(0, b)).collect();
        assert_eq!(before, after);
        // Snapshot queries agree with an equivalent live view.
        let live = snap.view();
        assert_eq!(snap.top_k(1, 3), live.top_k(1, 3));
        assert_eq!(snap.single_source(2), live.single_source(2));
        assert_eq!(snap.similar_above(3, 0.4), live.similar_above(3, 0.4));
        assert!(snap.heap_bytes() > 0);
    }

    #[test]
    fn delta_snapshot_rolls_a_view_back_to_an_earlier_epoch() {
        // "Later" epoch has 5 nodes; "earlier" had 4.
        let later = DenseMatrix::from_rows(&[
            &[1.0, 0.4, 0.1, 0.7, 0.2],
            &[0.4, 1.0, 0.3, 0.0, 0.0],
            &[0.1, 0.3, 1.0, 0.1, 0.5],
            &[0.7, 0.0, 0.1, 1.0, 0.0],
            &[0.2, 0.0, 0.5, 0.0, 1.0],
        ]);
        let mut earlier = DenseMatrix::from_rows(&[
            &[1.0, 0.5, 0.0, 0.7],
            &[0.5, 1.0, 0.2, 0.0],
            &[0.0, 0.2, 1.0, 0.1],
            &[0.7, 0.0, 0.1, 1.0],
        ]);
        // Forward delta (later − earlier) as the ring stores it …
        let (forward, dropped) = LowRankDelta::between(&earlier, &later, 0.0);
        assert!(dropped < 1e-14);
        // … stacked negated for reconstruction.
        let mut back = LowRankDelta::new(5);
        back.extend_negated(&forward);
        let head: Arc<dyn SnapshotQuery> = Arc::new(ScoreSnapshot::new(Arc::new(later), None));
        let snap = DeltaSnapshot::new(head, back, 4);

        assert_eq!(snap.n(), 4);
        for a in 0..4u32 {
            for b in 0..4u32 {
                let want = earlier.get(a as usize, b as usize);
                assert!((snap.pair(a, b) - want).abs() < 1e-12, "({a},{b})");
            }
            let got = snap.single_source(a);
            let want = single_source(&earlier, a);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.node, w.node);
                assert!((g.score - w.score).abs() < 1e-12);
            }
            let tk = snap.top_k(a, 2);
            let wk = top_k_for_node(&earlier, a, 2);
            assert_eq!(tk.len(), wk.len());
            for (g, w) in tk.iter().zip(&wk) {
                assert_eq!(g.node, w.node);
            }
        }
        assert!(snap.heap_bytes() > 0);
        // Mutating the "earlier" source cannot move the handle.
        earlier.set(0, 1, 9.0);
        assert!((snap.pair(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_snapshot_rejects_nodes_born_after_the_epoch() {
        let later = DenseMatrix::identity(3);
        let head: Arc<dyn SnapshotQuery> = Arc::new(ScoreSnapshot::new(Arc::new(later), None));
        let snap = DeltaSnapshot::new(head, LowRankDelta::new(3), 2);
        let _ = snap.pair(0, 2);
    }

    #[test]
    fn empty_delta_is_normalised_away() {
        let s = sample();
        let delta = LowRankDelta::new(4);
        let view = ScoreView::new(&s, Some(&delta));
        assert!(!view.is_deferred());
        assert!(view.delta().is_none());
    }

    #[test]
    fn threshold_filter() {
        let s = sample();
        let hits = similar_above(&s, 0, 0.5);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|r| r.node == 1));
        assert!(hits.iter().any(|r| r.node == 3));
    }
}
