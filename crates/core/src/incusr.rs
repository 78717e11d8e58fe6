//! **Inc-uSR** (Algorithm 1): exact incremental SimRank without pruning.
//!
//! For every unit update the SimRank change is `ΔS = M + Mᵀ` with
//! `M = Σ_{k=0}^{K} C^{k+1}·Q̃ᵏ·e_j·γᵀ·(Q̃ᵀ)ᵏ` (Theorem 3, Eq. 26). The
//! engine iterates two auxiliary vectors
//!
//! ```text
//! ξ₀ = C·e_j            ξ_{k+1} = C·(Q·ξ_k + u·(vᵀ·ξ_k))   // = C·Q̃·ξ_k
//! η₀ = γ                η_{k+1} = Q·η_k + u·(vᵀ·η_k)        // = Q̃·η_k
//! M₀ = C·e_j·γᵀ         M_{k+1} = ξ_{k+1}·η_{k+1}ᵀ + M_k
//! ```
//!
//! so one update costs `K` sparse matvecs plus `K` rank-one accumulations —
//! `O(K·n²)` total, never a matrix–matrix product, and `Q̃` is never
//! materialised (`Q̃·x` is evaluated as `Q·x + u·(vᵀ·x)`, the trick noted
//! after Theorem 3).

use crate::grouped::GroupedStats;
use crate::maintainer::{
    validate_update, ApplyMode, DeferredApply, GraphSink, MatrixAccess, SimRankMaintainer,
    UpdateError, UpdateStats,
};
use crate::rankone::{gamma_vector_from_cols, rank_one_decomposition, RankOneUpdate, UpdateKind};
use crate::SimRankConfig;
use incsim_graph::transition::backward_transition;
use incsim_graph::{DiGraph, UpdateOp};
use incsim_linalg::{CsrMatrix, DenseMatrix, LowRankDelta};
use std::sync::Arc;

/// The Algorithm 1 engine. See the [module docs](self).
///
/// ```
/// use incsim_core::{GraphSink, IncUSr, SimRankConfig};
/// use incsim_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(2, 0), (2, 1), (0, 3)]);
/// let mut engine = IncUSr::from_graph(g, SimRankConfig::paper_default());
/// engine.insert_edge(1, 3).unwrap();
/// engine.remove_edge(1, 3).unwrap(); // exact round-trip
/// assert_eq!(engine.graph().edge_count(), 3);
/// ```
pub struct IncUSr {
    graph: DiGraph,
    q: CsrMatrix,
    // Shared with every snapshot taken since the last write (see
    // `MatrixAccess`); writes go through `Arc::make_mut`.
    scores: Arc<DenseMatrix>,
    cfg: SimRankConfig,
    // Apply mode + pending ΔS factors (empty while eager).
    deferred: DeferredApply,
    // Reused workspace (amortises allocations across updates).
    xi: Vec<f64>,
    eta: Vec<f64>,
    scratch: Vec<f64>,
    // Effective-column scratch: S[:,i] / S[:,j] plus any pending Δ.
    col_i: Vec<f64>,
    col_j: Vec<f64>,
}

impl IncUSr {
    /// Creates an engine from a graph and its (pre-computed) score matrix,
    /// owned or shared (a shared matrix is copied on the first write).
    ///
    /// `scores` is typically [`crate::batch_simrank`] output on `graph`; the
    /// paper's workflow is "precompute SimRank on the old entire graph once
    /// via a batch algorithm first, then incrementally find ΔS".
    ///
    /// # Panics
    /// Panics if `scores` is not `n × n` for the graph's `n`.
    pub fn new(graph: DiGraph, scores: impl Into<Arc<DenseMatrix>>, cfg: SimRankConfig) -> Self {
        let scores = scores.into();
        let n = graph.node_count();
        assert_eq!(scores.rows(), n, "scores must be n x n");
        assert_eq!(scores.cols(), n, "scores must be n x n");
        let q = backward_transition(&graph);
        IncUSr {
            graph,
            q,
            scores,
            cfg,
            deferred: DeferredApply::new(n),
            xi: vec![0.0; n],
            eta: vec![0.0; n],
            scratch: vec![0.0; n],
            col_i: vec![0.0; n],
            col_j: vec![0.0; n],
        }
    }

    /// Convenience constructor that batch-computes the initial scores.
    pub fn from_graph(graph: DiGraph, cfg: SimRankConfig) -> Self {
        let scores = crate::batch::batch_simrank(&graph, &cfg);
        IncUSr::new(graph, scores, cfg)
    }

    /// Consumes the engine, returning `(graph, scores)` with any pending
    /// ΔS materialised.
    pub fn into_parts(mut self) -> (DiGraph, DenseMatrix) {
        self.flush();
        (self.graph, Arc::unwrap_or_clone(self.scores))
    }

    /// Folds the current `ξ·ηᵀ + η·ξᵀ` term into the scores (eager) or the
    /// factor buffer (fused/lazy). Per-row accumulation order is identical
    /// either way, so the regimes agree bit-for-bit.
    fn emit_term(&mut self) {
        match self.deferred.mode {
            ApplyMode::Eager => {
                Arc::make_mut(&mut self.scores).add_sym_outer(1.0, &self.xi, &self.eta);
            }
            ApplyMode::Fused | ApplyMode::Lazy => self
                .deferred
                .delta
                .push_dense(self.xi.clone(), self.eta.clone()),
        }
    }

    /// Copies the effective column `S[:,v]` (base matrix plus pending Δ)
    /// into `out`.
    fn effective_col(scores: &DenseMatrix, delta: &LowRankDelta, v: usize, out: &mut [f64]) {
        scores.col_into(v, out);
        if !delta.is_empty() {
            delta.add_row_delta(v, out); // Δ is symmetric: row v == column v
        }
    }

    /// Runs lines 13–18 of Algorithm 1 for a rank-one update
    /// `ΔQ = u_coeff·e_j·vᵀ`, folding every term of `ΔS = M_K + M_Kᵀ`
    /// into the score matrix (eager) or the pending factor buffer
    /// (fused/lazy). Expects γ in `self.eta`.
    fn run_sylvester_iteration(&mut self, j: usize, u_coeff: f64, v: &[(u32, f64)]) {
        let c = self.cfg.c;
        let v_dot = |x: &[f64]| -> f64 { v.iter().map(|&(idx, val)| val * x[idx as usize]).sum() };
        incsim_linalg::vecops::zero(&mut self.xi);
        self.xi[j] = c;
        self.emit_term();

        for _ in 0..self.cfg.iterations {
            // ξ ← C·(Q·ξ + u·(vᵀξ))
            let theta_xi = v_dot(&self.xi);
            self.q.matvec(&self.xi, &mut self.scratch);
            self.scratch[j] += u_coeff * theta_xi;
            incsim_linalg::vecops::scale(c, &mut self.scratch);
            std::mem::swap(&mut self.xi, &mut self.scratch);

            // η ← Q·η + u·(vᵀη)
            let theta_eta = v_dot(&self.eta);
            self.q.matvec(&self.eta, &mut self.scratch);
            self.scratch[j] += u_coeff * theta_eta;
            std::mem::swap(&mut self.eta, &mut self.scratch);

            // S ← S + ξ·ηᵀ + η·ξᵀ   (line 18, applied term by term)
            self.emit_term();
        }
    }

    /// Applies a batch update with **row grouping** (see
    /// [`crate::grouped`]): all edge changes sharing a destination are
    /// folded into one rank-one Sylvester update, so a batch of `b` edges
    /// over `r` distinct destinations costs `r` iterations instead of `b`.
    ///
    /// Exactness is unchanged — Theorem 2 holds for any rank-one `ΔQ`.
    pub fn apply_grouped(&mut self, ops: &[UpdateOp]) -> Result<GroupedStats, UpdateError> {
        let rows = crate::grouped::group_by_row(&self.graph, ops)?;
        for change in &rows {
            // The grouped γ (Theorem 2 route) reads arbitrary rows of S,
            // so any pending ΔS must be materialised first.
            self.flush();
            let rro = crate::grouped::row_rank_one(&self.graph, &self.scores, change, |x, y| {
                self.q.matvec(x, y);
            })?;
            self.eta.copy_from_slice(&rro.gamma);
            self.run_sylvester_iteration(change.j as usize, 1.0, &rro.v);
            for op in &change.ops {
                op.apply(&mut self.graph)?;
            }
            self.q = backward_transition(&self.graph);
        }
        if self.deferred.mode == ApplyMode::Fused {
            self.flush();
        }
        Ok(GroupedStats {
            unit_ops: ops.len(),
            row_updates: rows.len(),
        })
    }

    fn apply_update(
        &mut self,
        i: u32,
        j: u32,
        kind: UpdateKind,
    ) -> Result<UpdateStats, UpdateError> {
        validate_update(&self.graph, i, j, kind)?;
        let n = self.graph.node_count();
        let c = self.cfg.c;
        let k_iters = self.cfg.iterations;

        // Lines 1–12: rank-one decomposition and the γ vector, computed
        // from the *effective* columns S[:,i], S[:,j] (base + pending Δ)
        // so deferred updates chain without materialising in between.
        let upd: RankOneUpdate = rank_one_decomposition(&self.graph, i, j, kind);
        Self::effective_col(
            &self.scores,
            &self.deferred.delta,
            i as usize,
            &mut self.col_i,
        );
        Self::effective_col(
            &self.scores,
            &self.deferred.delta,
            j as usize,
            &mut self.col_j,
        );
        let gv = gamma_vector_from_cols(&self.q, &self.col_i, &self.col_j, &upd, c);
        let gamma_nnz = gv
            .gamma
            .iter()
            .filter(|v| v.abs() > self.cfg.zero_tol)
            .count();

        // Line 13: ξ₀ = C·e_j, η₀ = γ. The term M₀ = C·e_j·γᵀ of
        // ΔS = M_K + M_Kᵀ is folded into S immediately — `M` itself is
        // never materialised, so the intermediate state stays O(n) vectors
        // (this is what keeps Inc-uSR's memory far below Inc-SVD's in the
        // paper's Fig. 3).
        self.eta.copy_from_slice(&gv.gamma);
        self.run_sylvester_iteration(j as usize, upd.u_coeff, &upd.v);

        // Commit the link update and refresh Q (row j is the only change,
        // but a CSR rebuild is O(n+m), dominated by the O(K·n²) iteration).
        match kind {
            UpdateKind::Insert => self.graph.insert_edge(i, j)?,
            UpdateKind::Delete => self.graph.remove_edge(i, j)?,
        }
        self.q = backward_transition(&self.graph);

        // Intermediate state: w, γ, ξ, η, scratch — five n-vectors — plus
        // the pending factor buffer (≈ 2·(K+1)·n floats per deferred
        // update) in the fused/lazy modes.
        let peak = (self.xi.capacity() + self.eta.capacity() + self.scratch.capacity() + 2 * n)
            * std::mem::size_of::<f64>()
            + self.deferred.delta.heap_bytes();
        Ok(UpdateStats {
            kind,
            edge: (i, j),
            iterations: k_iters,
            affected_pairs: n * n,
            aff_avg: (n * n) as f64,
            pruned_fraction: 0.0,
            peak_intermediate_bytes: peak,
            gamma_density: gamma_nnz as f64 / n.max(1) as f64,
            applied_mode: self.deferred.mode,
            pending_rank: self.deferred.delta.pending_pairs(),
        })
    }
}

impl MatrixAccess for IncUSr {
    fn base_scores(&self) -> &Arc<DenseMatrix> {
        &self.scores
    }

    fn pending_delta(&self) -> Option<&LowRankDelta> {
        Some(&self.deferred.delta)
    }

    fn mode(&self) -> ApplyMode {
        self.deferred.mode
    }

    fn set_mode(&mut self, mode: ApplyMode) {
        self.deferred.set_mode(mode, &mut self.scores);
    }

    /// One fused parallel sweep over the whole matrix.
    fn flush(&mut self) -> usize {
        self.deferred.flush_into(&mut self.scores)
    }

    fn compress_pending(&mut self, tol: f64) -> usize {
        self.deferred.compress(tol);
        self.deferred.delta.pending_pairs()
    }
}

impl SimRankMaintainer for IncUSr {
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        Some(self)
    }

    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        Some(self)
    }
}

impl GraphSink for IncUSr {
    fn name(&self) -> &'static str {
        "Inc-uSR"
    }

    fn graph(&self) -> &DiGraph {
        &self.graph
    }

    fn config(&self) -> &SimRankConfig {
        &self.cfg
    }

    fn insert_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        let mut stats = self.apply_update(i, j, UpdateKind::Insert)?;
        if self.deferred.mode == ApplyMode::Fused {
            self.flush();
        }
        stats.pending_rank = self.deferred.delta.pending_pairs();
        Ok(stats)
    }

    fn remove_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        let mut stats = self.apply_update(i, j, UpdateKind::Delete)?;
        if self.deferred.mode == ApplyMode::Fused {
            self.flush();
        }
        stats.pending_rank = self.deferred.delta.pending_pairs();
        Ok(stats)
    }

    /// In [`ApplyMode::Fused`] the whole batch shares **one** fused apply:
    /// the `b` updates chain through effective columns and the buffered
    /// `b·(K+1)` terms are folded in with a single sweep at the end,
    /// instead of `b` sweeps (or `b·(K+1)` eager ones).
    fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, UpdateError> {
        crate::maintainer::drive_batch(
            self,
            ops,
            self.deferred.mode == ApplyMode::Fused,
            Self::apply_update,
            |e| {
                e.flush();
            },
        )
    }

    fn add_node(&mut self) -> u32 {
        let v = self.graph.add_node();
        let n = self.graph.node_count();
        // Flush any pending Δ (still at the old dimension) into the old
        // matrix and re-dimension the buffer before the re-shape.
        self.deferred.resize(n, &mut self.scores);
        let mut grown = DenseMatrix::zeros(n, n);
        for a in 0..n - 1 {
            let src = self.scores.row(a);
            grown.row_mut(a)[..n - 1].copy_from_slice(src);
        }
        grown.set(n - 1, n - 1, 1.0 - self.cfg.c);
        self.scores = Arc::new(grown);
        self.q = backward_transition(&self.graph);
        self.xi = vec![0.0; n];
        self.eta = vec![0.0; n];
        self.scratch = vec![0.0; n];
        self.col_i = vec![0.0; n];
        self.col_j = vec![0.0; n];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_simrank;

    /// High-K config so truncation error is negligible in exactness checks.
    fn tight_cfg() -> SimRankConfig {
        SimRankConfig::new(0.6, 90).unwrap()
    }

    fn fixture() -> DiGraph {
        DiGraph::from_edges(
            7,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 2),
                (1, 4),
                (6, 3),
            ],
        )
    }

    /// Incremental result must match a from-scratch batch on the new graph.
    fn assert_incremental_matches_batch(g: &DiGraph, i: u32, j: u32, kind: UpdateKind) {
        let cfg = tight_cfg();
        let s_old = batch_simrank(g, &cfg);
        let mut engine = IncUSr::new(g.clone(), s_old, cfg);
        match kind {
            UpdateKind::Insert => engine.insert_edge(i, j).unwrap(),
            UpdateKind::Delete => engine.remove_edge(i, j).unwrap(),
        };
        let s_batch = batch_simrank(engine.graph(), &cfg);
        let diff = engine.scores().max_abs_diff(&s_batch);
        assert!(
            diff < 1e-9,
            "Inc-uSR diverged from batch for ({i},{j}) {kind:?}: diff={diff}"
        );
    }

    #[test]
    fn insert_matches_batch_dj_zero() {
        assert_incremental_matches_batch(&fixture(), 3, 0, UpdateKind::Insert);
    }

    #[test]
    fn insert_matches_batch_dj_positive() {
        assert_incremental_matches_batch(&fixture(), 4, 2, UpdateKind::Insert);
    }

    #[test]
    fn delete_matches_batch_dj_one() {
        assert_incremental_matches_batch(&fixture(), 6, 3, UpdateKind::Delete);
    }

    #[test]
    fn delete_matches_batch_dj_many() {
        assert_incremental_matches_batch(&fixture(), 1, 2, UpdateKind::Delete);
    }

    #[test]
    fn sequence_of_updates_stays_exact() {
        let g = fixture();
        let cfg = tight_cfg();
        let mut engine = IncUSr::from_graph(g, cfg);
        engine.insert_edge(0, 5).unwrap();
        engine.insert_edge(6, 2).unwrap();
        engine.remove_edge(2, 3).unwrap();
        engine.insert_edge(3, 6).unwrap();
        let s_batch = batch_simrank(engine.graph(), &cfg);
        assert!(engine.scores().max_abs_diff(&s_batch) < 1e-8);
    }

    #[test]
    fn insert_then_delete_roundtrips() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncUSr::new(g, s0.clone(), cfg);
        engine.insert_edge(0, 6).unwrap();
        engine.remove_edge(0, 6).unwrap();
        assert!(engine.scores().max_abs_diff(&s0) < 1e-9);
    }

    #[test]
    fn invalid_updates_leave_state_untouched() {
        let g = fixture();
        let cfg = SimRankConfig::paper_default();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncUSr::new(g.clone(), s0.clone(), cfg);
        assert!(engine.insert_edge(0, 2).is_err()); // exists
        assert!(engine.remove_edge(0, 3).is_err()); // missing
        assert!(engine.insert_edge(0, 99).is_err()); // out of range
        assert_eq!(engine.graph(), &g);
        assert!(engine.scores().max_abs_diff(&s0) == 0.0);
    }

    #[test]
    fn truncation_error_respects_bound() {
        // With small K the deviation from a converged batch must stay within
        // ~2·C^{K+1}/(1−C) (M and Mᵀ each truncated by C^{K+1} per entry).
        let g = fixture();
        let k = 6;
        let cfg = SimRankConfig::new(0.6, k).unwrap();
        let tight = tight_cfg();
        let s_old = batch_simrank(&g, &tight); // converged old scores
        let mut engine = IncUSr::new(g.clone(), s_old, cfg);
        engine.insert_edge(4, 2).unwrap();
        let s_new = batch_simrank(engine.graph(), &tight);
        let diff = engine.scores().max_abs_diff(&s_new);
        let bound = 2.0 * cfg.truncation_bound() / (1.0 - cfg.c);
        assert!(diff <= bound, "diff={diff} bound={bound}");
    }

    #[test]
    fn stats_report_full_affected_area() {
        let g = fixture();
        let cfg = SimRankConfig::paper_default();
        let mut engine = IncUSr::from_graph(g, cfg);
        let stats = engine.insert_edge(0, 4).unwrap();
        assert_eq!(stats.affected_pairs, 49);
        assert_eq!(stats.pruned_fraction, 0.0);
        assert_eq!(stats.iterations, cfg.iterations);
        // O(n) vectors only — M is never materialised.
        assert!(stats.peak_intermediate_bytes >= 5 * 7 * 8);
        assert!(stats.peak_intermediate_bytes < 49 * 8 * 4);
    }

    #[test]
    fn add_node_extension_grows_scores() {
        let g = fixture();
        let cfg = tight_cfg();
        let mut engine = IncUSr::from_graph(g, cfg);
        let v = engine.add_node();
        assert_eq!(v, 7);
        assert_eq!(engine.scores().rows(), 8);
        assert!((engine.scores().get(7, 7) - 0.4).abs() < 1e-12);
        // Now connect the new node and stay exact.
        engine.insert_edge(7, 2).unwrap();
        let s_batch = batch_simrank(engine.graph(), &cfg);
        assert!(engine.scores().max_abs_diff(&s_batch) < 1e-9);
    }

    #[test]
    fn self_loop_updates_are_exact() {
        assert_incremental_matches_batch(&fixture(), 2, 2, UpdateKind::Insert);
    }

    fn mixed_ops() -> Vec<incsim_graph::UpdateOp> {
        use incsim_graph::UpdateOp::*;
        vec![
            Insert(0, 5),
            Insert(6, 2),
            Delete(2, 3),
            Insert(3, 6),
            Delete(6, 2),
        ]
    }

    #[test]
    fn fused_mode_matches_eager_bit_for_bit() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut eager = IncUSr::new(g.clone(), s0.clone(), cfg);
        let mut fused = IncUSr::new(g, s0, cfg).with_mode(ApplyMode::Fused);
        for op in mixed_ops() {
            eager.apply(op).unwrap();
            fused.apply(op).unwrap();
        }
        assert_eq!(fused.pending_rank(), 0, "fused flushes per call");
        assert_eq!(
            eager.scores().max_abs_diff(fused.scores()),
            0.0,
            "per-row accumulation order is identical in both regimes"
        );
    }

    #[test]
    fn fused_batch_defers_across_updates_and_stays_exact() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut fused = IncUSr::new(g, s0, cfg).with_mode(ApplyMode::Fused);
        // One apply_batch call: the b updates chain through effective
        // columns and share a single fused sweep at the end.
        fused.apply_batch(&mixed_ops()).unwrap();
        assert_eq!(fused.pending_rank(), 0);
        let s_batch = batch_simrank(fused.graph(), &tight_cfg());
        assert!(fused.scores().max_abs_diff(&s_batch) < 1e-8);
    }

    #[test]
    fn lazy_mode_answers_queries_without_any_apply() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut eager = IncUSr::new(g.clone(), s0.clone(), cfg);
        let mut lazy = IncUSr::new(g, s0.clone(), cfg).with_mode(ApplyMode::Lazy);
        for op in mixed_ops() {
            eager.apply(op).unwrap();
            lazy.apply(op).unwrap();
        }
        // Nothing was materialised: the base matrix is byte-identical…
        assert_eq!(lazy.base_scores().max_abs_diff(&s0), 0.0);
        assert!(lazy.pending_rank() > 0);
        // …yet view reads see the fully-updated scores.
        let n = lazy.graph().node_count() as u32;
        let eager_final = eager.scores().clone();
        for a in 0..n {
            for b in 0..n {
                let got = lazy.view().pair(a, b);
                let want = eager_final.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() < 1e-12,
                    "pair ({a},{b}): {got} vs {want}"
                );
            }
        }
        // Flushing materialises the same state.
        lazy.flush();
        assert!(lazy.scores().max_abs_diff(&eager_final) < 1e-12);
    }

    #[test]
    fn trait_scores_materialises_mid_lazy_window() {
        // Regression (PR 3): `SimRankMaintainer::scores()` used to return
        // the stale base matrix mid-lazy-window; it must now materialise
        // pending ΔS so trait readers can never observe stale entries.
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut lazy = IncUSr::new(g, s0.clone(), cfg).with_mode(ApplyMode::Lazy);
        for op in mixed_ops() {
            lazy.apply(op).unwrap();
        }
        assert!(lazy.pending_rank() > 0, "window is open");
        let engine: &mut dyn SimRankMaintainer = &mut lazy;
        let truth = batch_simrank(engine.graph(), &tight_cfg());
        let matrix = engine.matrix_mut().expect("IncUSr is matrix-backed");
        let via_trait = matrix.scores().clone();
        assert!(
            via_trait.max_abs_diff(&truth) < 1e-8,
            "trait scores() returned stale entries: {}",
            via_trait.max_abs_diff(&truth)
        );
        assert_eq!(matrix.pending_rank(), 0, "scores() drained the window");

        // …and `into_parts` gives the same materialised matrix.
        let mut again = IncUSr::new(fixture(), s0, cfg).with_mode(ApplyMode::Lazy);
        for op in mixed_ops() {
            again.apply(op).unwrap();
        }
        let (_, scores) = again.into_parts();
        assert!(scores.max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn mode_switch_and_grouped_flush_pending() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncUSr::new(g, s0, cfg).with_mode(ApplyMode::Lazy);
        engine.insert_edge(0, 5).unwrap();
        assert!(engine.pending_rank() > 0);
        // Grouped updates materialise before reading arbitrary S rows.
        engine
            .apply_grouped(&[incsim_graph::UpdateOp::Insert(6, 2)])
            .unwrap();
        engine.set_mode(ApplyMode::Eager);
        assert_eq!(engine.pending_rank(), 0);
        assert_eq!(engine.mode(), ApplyMode::Eager);
        let s_batch = batch_simrank(engine.graph(), &tight_cfg());
        assert!(engine.scores().max_abs_diff(&s_batch) < 1e-8);
    }
}
