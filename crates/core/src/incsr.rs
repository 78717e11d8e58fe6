//! **Inc-SR** (Algorithm 2): incremental SimRank with lossless pruning.
//!
//! Inc-SR runs the same rank-one Sylvester iteration as
//! [Inc-uSR](crate::IncUSr) but confines every step to the *affected area*
//! of the update matrix `M` (Theorem 4):
//!
//! * the initial support `B₀ = F₁ ∪ F₂ ∪ {j}` where
//!   `F₁ = ⋃ { O(y) : [S]_{i,y} ≠ 0 }` captures the reachable ends of the
//!   new symmetric in-link paths through `(i, j)` (Eq. 38) and
//!   `F₂ = { y : [S]_{j,y} ≠ 0 }` (Eq. 39);
//! * at iteration `k`, `A_k`/`B_k` are out-neighbourhoods of the previous
//!   supports (Eq. 40). This engine tracks supports *exactly* through
//!   sparse accumulators — a subset of the paper's `A_k × B_k`
//!   over-approximation, hence also lossless.
//!
//! Entries outside `∪_k (A_k × B_k) ∪ (A₀ × B₀)` are identically zero in
//! `M` (Theorem 4), so skipping them loses nothing: *pruning is exact*.
//! Cost: `O(K·(n·d + |AFF|))` with `|AFF| = avg_k |A_k|·|B_k|`.

use crate::grouped::GroupedStats;
use crate::maintainer::{
    validate_update, ApplyMode, DeferredApply, GraphSink, MatrixAccess, SimRankMaintainer,
    UpdateError, UpdateStats,
};
use crate::rankone::{rank_one_decomposition, RankOneUpdate, UpdateKind};
use crate::SimRankConfig;
use incsim_graph::{DiGraph, UpdateOp};
use incsim_linalg::{DenseMatrix, LowRankDelta, SparseAccumulator};
use std::sync::Arc;

/// The Algorithm 2 engine. See the [module docs](self).
///
/// ```
/// use incsim_core::{GraphSink, IncSr, MatrixAccess, SimRankConfig};
/// use incsim_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(2, 0), (2, 1), (0, 3)]);
/// let mut engine = IncSr::from_graph(g, SimRankConfig::paper_default());
/// let stats = engine.insert_edge(1, 3).unwrap();
/// // Node 3 now has in-neighbours {0, 1}, which share referrer 2.
/// assert!(engine.scores().get(0, 1) > 0.0);
/// assert!(stats.pruned_fraction > 0.0);
/// ```
pub struct IncSr {
    graph: DiGraph,
    // Shared with every snapshot taken since the last write (see
    // `MatrixAccess`); writes go through `Arc::make_mut`.
    scores: Arc<DenseMatrix>,
    cfg: SimRankConfig,
    // Apply mode + pending ΔS as *sparse* factor columns (fused/lazy).
    deferred: DeferredApply,
    // Reused sparse workspaces (cleared in O(|support|) after each update).
    xi: SparseAccumulator,
    eta: SparseAccumulator,
    xi_next: SparseAccumulator,
    eta_next: SparseAccumulator,
    wacc: SparseAccumulator,
    // Union of ξ/η supports across iterations (A_∪, B_∪): the affected-area
    // accounting of Fig. 2d/2e.
    a_union: SparseAccumulator,
    b_union: SparseAccumulator,
    // Effective rows S[i,:] / S[j,:] (base + pending Δ), staged per update.
    eff_row_i: Vec<f64>,
    eff_row_j: Vec<f64>,
}

impl IncSr {
    /// Creates an engine from a graph and its (pre-computed) score matrix,
    /// owned or shared (a shared matrix is copied on the first write).
    ///
    /// # Panics
    /// Panics if `scores` is not `n × n` for the graph's `n`.
    pub fn new(graph: DiGraph, scores: impl Into<Arc<DenseMatrix>>, cfg: SimRankConfig) -> Self {
        let scores = scores.into();
        let n = graph.node_count();
        assert_eq!(scores.rows(), n, "scores must be n x n");
        assert_eq!(scores.cols(), n, "scores must be n x n");
        IncSr {
            graph,
            scores,
            cfg,
            deferred: DeferredApply::new(n),
            xi: SparseAccumulator::new(n),
            eta: SparseAccumulator::new(n),
            xi_next: SparseAccumulator::new(n),
            eta_next: SparseAccumulator::new(n),
            wacc: SparseAccumulator::new(n),
            a_union: SparseAccumulator::new(n),
            b_union: SparseAccumulator::new(n),
            eff_row_i: vec![0.0; n],
            eff_row_j: vec![0.0; n],
        }
    }

    /// Convenience constructor that batch-computes the initial scores.
    pub fn from_graph(graph: DiGraph, cfg: SimRankConfig) -> Self {
        let scores = crate::batch::batch_simrank(&graph, &cfg);
        IncSr::new(graph, scores, cfg)
    }

    /// Consumes the engine, returning `(graph, scores)` with any pending
    /// ΔS materialised.
    pub fn into_parts(mut self) -> (DiGraph, DenseMatrix) {
        self.flush();
        (self.graph, Arc::unwrap_or_clone(self.scores))
    }

    /// Stages the effective rows `S[i,:]` and `S[j,:]` (base + pending Δ)
    /// into the scratch fields; everything γ needs from `S` lives in these
    /// two rows (S is symmetric), which is what lets deferred updates
    /// chain without materialising the buffer.
    fn stage_effective_rows(&mut self, i: usize, j: usize) {
        self.eff_row_i.copy_from_slice(self.scores.row(i));
        self.eff_row_j.copy_from_slice(self.scores.row(j));
        if !self.deferred.delta.is_empty() {
            self.deferred.delta.add_row_delta(i, &mut self.eff_row_i);
            self.deferred.delta.add_row_delta(j, &mut self.eff_row_j);
        }
    }

    /// The affected-area row/column supports (`A_∪`, `B_∪`) of the **last**
    /// update: the nodes whose score rows/columns were touched. The paper's
    /// Fig. 2d/2e report the union of these areas over a whole `ΔE` stream;
    /// accumulate across calls to reproduce that metric.
    pub fn last_affected(&self) -> (&[u32], &[u32]) {
        (self.a_union.support(), self.b_union.support())
    }

    /// Algorithm 2 line 3: assemble `B₀ = F₁ ∪ F₂ ∪ {j}` and memoise
    /// `[w]_b = [Q]_{b,:}·[S]_{:,i}` for `b ∈ B₀` into `self.wacc`.
    /// Reads `S` through the staged effective rows only.
    fn build_b0_and_w(&mut self, upd: &RankOneUpdate) {
        let tol = self.cfg.zero_tol;
        let j = upd.j;
        let n = self.graph.node_count();
        self.wacc.clear();

        // F₁ = out-neighbours of T = supp([S]_{i,:}); w is supported on F₁.
        // (S is symmetric, so row i doubles as column i — contiguous reads.)
        let s_row_i = &self.eff_row_i;
        for (y, &sval) in s_row_i.iter().enumerate().take(n) {
            if sval.abs() <= tol {
                continue;
            }
            for &b in self.graph.out_neighbors(y as u32) {
                // Mark b ∈ F₁; the w value is filled below.
                self.wacc.add(b as usize, 0.0);
            }
        }
        // Needed by λ even when j ∉ F₁.
        self.wacc.add(j as usize, 0.0);
        // F₂ = supp([S]_{j,:}) for the d_j > 0 / d_j > 1 branches.
        let needs_f2 = matches!(
            (upd.kind, upd.dj_old),
            (UpdateKind::Insert, d) if d > 0
        ) || matches!((upd.kind, upd.dj_old), (UpdateKind::Delete, d) if d > 1);
        if needs_f2 {
            let s_row_j = &self.eff_row_j;
            for (y, &sval) in s_row_j.iter().enumerate().take(n) {
                if sval.abs() > tol {
                    self.wacc.add(y, 0.0);
                }
            }
        }

        // Memoise w over B₀: [w]_b = (1/d_b)·Σ_{y ∈ I(b)} S[y,i].
        for idx in 0..self.wacc.support_len() {
            let b = self.wacc.support()[idx] as usize;
            let innb = self.graph.in_neighbors(b as u32);
            if innb.is_empty() {
                continue;
            }
            let mut acc = 0.0;
            for &y in innb {
                acc += self.eff_row_i[y as usize];
            }
            self.wacc.set(b, acc / innb.len() as f64);
        }
    }

    /// Algorithm 2 lines 4–13: γ into `self.eta` (sparse), returns λ.
    /// Reads `S` through the staged effective rows only.
    fn build_gamma(&mut self, upd: &RankOneUpdate) -> f64 {
        let c = self.cfg.c;
        let i = upd.i as usize;
        let j = upd.j as usize;
        let s_ii = self.eff_row_i[i];
        let s_jj = self.eff_row_j[j];
        let w_j = self.wacc.get(j);
        let lambda = s_ii + s_jj / c - 2.0 * w_j - 1.0 / c + 1.0;

        self.eta.clear();
        match (upd.kind, upd.dj_old) {
            (UpdateKind::Insert, 0) => {
                for idx in 0..self.wacc.support_len() {
                    let b = self.wacc.support()[idx] as usize;
                    self.eta.add(b, self.wacc.get(b));
                }
                self.eta.add(j, 0.5 * s_ii);
            }
            (UpdateKind::Insert, dj) => {
                let djf = dj as f64;
                let scale = 1.0 / (djf + 1.0);
                let coeff = lambda / (2.0 * (djf + 1.0)) + 1.0 / c - 1.0;
                for idx in 0..self.wacc.support_len() {
                    let b = self.wacc.support()[idx] as usize;
                    let sbj = self.eff_row_j[b]; // S[b,j] by symmetry
                    self.eta.add(b, scale * (self.wacc.get(b) - sbj / c));
                }
                self.eta.add(j, scale * coeff);
            }
            (UpdateKind::Delete, 1) => {
                for idx in 0..self.wacc.support_len() {
                    let b = self.wacc.support()[idx] as usize;
                    self.eta.add(b, -self.wacc.get(b));
                }
                self.eta.add(j, 0.5 * s_ii);
            }
            (UpdateKind::Delete, dj) => {
                debug_assert!(dj > 1);
                let djf = dj as f64;
                let scale = 1.0 / (djf - 1.0);
                let coeff = lambda / (2.0 * (djf - 1.0)) - 1.0 / c + 1.0;
                for idx in 0..self.wacc.support_len() {
                    let b = self.wacc.support()[idx] as usize;
                    let sbj = self.eff_row_j[b];
                    self.eta.add(b, scale * (sbj / c - self.wacc.get(b)));
                }
                self.eta.add(j, scale * coeff);
            }
        }
        lambda
    }

    /// Folds the current term `ξ·ηᵀ + η·ξᵀ` of ΔS into the score matrix
    /// (eager) or the sparse factor buffer (fused/lazy), touching only
    /// `supp(ξ) × supp(η)` (plus its transpose) either way. Eager writes
    /// are row-contiguous: row `a ∈ supp(ξ)` gains `ξ_a·η`, row
    /// `b ∈ supp(η)` gains `η_b·ξ`. Also records the supports in the
    /// `A_∪`/`B_∪` affected-area unions (identically in every mode).
    fn add_affected_term(&mut self) {
        // Address-ordered supports keep the row writes prefetch-friendly.
        self.xi.sort_support();
        self.eta.sort_support();
        for (a, xa) in self.xi.iter() {
            if xa != 0.0 {
                self.a_union.set(a as usize, 1.0);
            }
        }
        for (b, yb) in self.eta.iter() {
            if yb != 0.0 {
                self.b_union.set(b as usize, 1.0);
            }
        }
        if self.deferred.mode != ApplyMode::Eager {
            self.deferred
                .delta
                .push_sparse(self.xi.to_pairs(0.0), self.eta.to_pairs(0.0));
            return;
        }
        let scores = Arc::make_mut(&mut self.scores);
        for (a, xa) in self.xi.iter() {
            if xa == 0.0 {
                continue;
            }
            let row = scores.row_mut(a as usize);
            for (b, yb) in self.eta.iter() {
                row[b as usize] += xa * yb;
            }
        }
        for (b, yb) in self.eta.iter() {
            if yb == 0.0 {
                continue;
            }
            let row = scores.row_mut(b as usize);
            for (a, xa) in self.xi.iter() {
                row[a as usize] += xa * yb;
            }
        }
    }

    /// Runs lines 13–19 of Algorithm 2 for a rank-one update
    /// `ΔQ = u_coeff·e_j·vᵀ`: the sparse ξ/η iteration over the affected
    /// area, folding every `ξηᵀ + ηξᵀ` term into the score matrix
    /// (line 20's `ΔS = M + Mᵀ`, applied term by term). Expects γ in
    /// `self.eta`; returns `Σ_k |A_k|·|B_k|` for the AFF statistics.
    fn run_sylvester_iteration(&mut self, j: usize, u_coeff: f64, v: &[(u32, f64)]) -> f64 {
        let c = self.cfg.c;
        // Line 13: ξ₀ = C·e_j, η₀ = γ; M₀ = C·e_j·γᵀ folded immediately.
        self.xi.clear();
        self.xi.set(j, c);
        self.a_union.clear();
        self.b_union.clear();
        self.add_affected_term();
        let mut aff_sum = self.xi.support_len() as f64 * self.eta.support_len() as f64;

        // Lines 14–19: sparse ξ/η iteration over the affected area only.
        for _ in 0..self.cfg.iterations {
            let theta_xi: f64 = v
                .iter()
                .map(|&(t, val)| val * self.xi.get(t as usize))
                .sum();
            let theta_eta: f64 = v
                .iter()
                .map(|&(t, val)| val * self.eta.get(t as usize))
                .sum();

            // [ξ_k]_a = C·[Q]_{a,:}·ξ_{k−1} + C·θ_ξ·[u]_a, scattered over
            // out-neighbourhoods (A_k of Eq. 40, but exact).
            self.xi_next.clear();
            for (t, xt) in self.xi.iter() {
                if xt == 0.0 {
                    continue;
                }
                for &a in self.graph.out_neighbors(t) {
                    let da = self.graph.in_degree(a) as f64;
                    self.xi_next.add(a as usize, c * xt / da);
                }
            }
            if theta_xi != 0.0 {
                self.xi_next.add(j, c * theta_xi * u_coeff);
            }

            self.eta_next.clear();
            for (t, yt) in self.eta.iter() {
                if yt == 0.0 {
                    continue;
                }
                for &b in self.graph.out_neighbors(t) {
                    let db = self.graph.in_degree(b) as f64;
                    self.eta_next.add(b as usize, yt / db);
                }
            }
            if theta_eta != 0.0 {
                self.eta_next.add(j, theta_eta * u_coeff);
            }

            std::mem::swap(&mut self.xi, &mut self.xi_next);
            std::mem::swap(&mut self.eta, &mut self.eta_next);

            // S ← S + ξ_k·η_kᵀ + η_k·ξ_kᵀ over A_k × B_k (and transpose).
            aff_sum += self.xi.support_len() as f64 * self.eta.support_len() as f64;
            self.add_affected_term();
        }
        aff_sum
    }

    /// Applies a batch update with **row grouping** (see
    /// [`crate::grouped`]): all edge changes sharing a destination are
    /// folded into one rank-one Sylvester update — a batch of `b` edges
    /// over `r` distinct destinations costs `r` pruned iterations instead
    /// of `b`. Exactness is unchanged (Theorem 2 holds for any rank-one
    /// `ΔQ`).
    pub fn apply_grouped(&mut self, ops: &[UpdateOp]) -> Result<GroupedStats, UpdateError> {
        let rows = crate::grouped::group_by_row(&self.graph, ops)?;
        let tol = self.cfg.zero_tol;
        for change in &rows {
            // The grouped γ (Theorem 2 route) reads arbitrary rows of S,
            // so any pending ΔS must be materialised first.
            self.flush();
            let rro = crate::grouped::row_rank_one(&self.graph, &self.scores, change, |x, y| {
                crate::grouped::graph_q_matvec(&self.graph, x, y);
            })?;
            self.eta.clear();
            for (b, &g) in rro.gamma.iter().enumerate() {
                if g.abs() > tol {
                    self.eta.add(b, g);
                }
            }
            self.run_sylvester_iteration(change.j as usize, 1.0, &rro.v);
            for op in &change.ops {
                op.apply(&mut self.graph)?;
            }
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
        let k_iters = self.cfg.iterations;

        let upd = rank_one_decomposition(&self.graph, i, j, kind);
        self.stage_effective_rows(i as usize, j as usize);
        self.build_b0_and_w(&upd);
        let _lambda = self.build_gamma(&upd);
        let gamma_nnz = self
            .eta
            .iter()
            .filter(|&(_, v)| v.abs() > self.cfg.zero_tol)
            .count();
        let aff_sum = self.run_sylvester_iteration(j as usize, upd.u_coeff, &upd.v);

        // Commit the link update (Inc-SR reads Q straight from the graph,
        // so there is no CSR to rebuild).
        match kind {
            UpdateKind::Insert => self.graph.insert_edge(i, j)?,
            UpdateKind::Delete => self.graph.remove_edge(i, j)?,
        }

        // Affected pairs: the paper's product-form accounting
        // |A_∪ × B_∪| with A_∪ = ∪_k A_k, B_∪ = ∪_k B_k (Theorem 4 bounds
        // supp(ΔS) by unions of such products).
        let affected = self.a_union.support_len() * self.b_union.support_len();
        let total_pairs = (n * n).max(1);
        // Intermediate memory = the state Algorithm 2 memoises: the sparse
        // vectors (w over B₀, ξ, η, the union trackers — index + value +
        // flag ≈ 13 B per support index). The dense O(n) scratch inside
        // `SparseAccumulator` is a constant-factor speed optimisation shared
        // across updates, not per-update state, and is excluded — matching
        // the paper's accounting, where Inc-SR memoises only *parts* of the
        // auxiliary vectors.
        let idx_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<f64>() + 1;
        let support_indices = self.wacc.support_len()
            + self.xi.support_len()
            + self.eta.support_len()
            + self.a_union.support_len()
            + self.b_union.support_len();
        // Deferred modes also hold the sparse factor buffer.
        let delta_bytes = self.deferred.delta.heap_bytes();
        Ok(UpdateStats {
            kind,
            edge: (i, j),
            iterations: k_iters,
            affected_pairs: affected.min(total_pairs),
            aff_avg: aff_sum / (k_iters + 1) as f64,
            pruned_fraction: 1.0 - affected.min(total_pairs) as f64 / total_pairs as f64,
            peak_intermediate_bytes: support_indices * idx_bytes + delta_bytes,
            gamma_density: gamma_nnz as f64 / n.max(1) as f64,
            applied_mode: self.deferred.mode,
            pending_rank: self.deferred.delta.pending_pairs(),
        })
    }
}

impl MatrixAccess for IncSr {
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

    /// One fused sweep over the touched rows only (the factors are sparse).
    fn flush(&mut self) -> usize {
        self.deferred.flush_into(&mut self.scores)
    }

    fn compress_pending(&mut self, tol: f64) -> usize {
        self.deferred.compress(tol);
        self.deferred.delta.pending_pairs()
    }
}

impl SimRankMaintainer for IncSr {
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        Some(self)
    }

    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        Some(self)
    }
}

impl GraphSink for IncSr {
    fn name(&self) -> &'static str {
        "Inc-SR"
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

    /// In [`ApplyMode::Fused`] the whole batch shares **one** fused apply
    /// over the union of the touched rows (the updates chain through
    /// effective rows), instead of one pass per update.
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
        self.xi = SparseAccumulator::new(n);
        self.eta = SparseAccumulator::new(n);
        self.xi_next = SparseAccumulator::new(n);
        self.eta_next = SparseAccumulator::new(n);
        self.wacc = SparseAccumulator::new(n);
        self.a_union = SparseAccumulator::new(n);
        self.b_union = SparseAccumulator::new(n);
        self.eff_row_i = vec![0.0; n];
        self.eff_row_j = vec![0.0; n];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_simrank;
    use crate::incusr::IncUSr;

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

    fn assert_matches_batch(g: &DiGraph, i: u32, j: u32, kind: UpdateKind) {
        let cfg = tight_cfg();
        let s_old = batch_simrank(g, &cfg);
        let mut engine = IncSr::new(g.clone(), s_old, cfg);
        match kind {
            UpdateKind::Insert => engine.insert_edge(i, j).unwrap(),
            UpdateKind::Delete => engine.remove_edge(i, j).unwrap(),
        };
        let s_batch = batch_simrank(engine.graph(), &cfg);
        let diff = engine.scores().max_abs_diff(&s_batch);
        assert!(
            diff < 1e-9,
            "Inc-SR diverged from batch for ({i},{j}) {kind:?}: diff={diff}"
        );
    }

    #[test]
    fn insert_matches_batch_all_cases() {
        assert_matches_batch(&fixture(), 3, 0, UpdateKind::Insert); // d_j = 0
        assert_matches_batch(&fixture(), 4, 2, UpdateKind::Insert); // d_j > 0
    }

    #[test]
    fn delete_matches_batch_all_cases() {
        assert_matches_batch(&fixture(), 6, 3, UpdateKind::Delete); // d_j = 1
        assert_matches_batch(&fixture(), 1, 2, UpdateKind::Delete); // d_j > 1
    }

    #[test]
    fn pruning_is_lossless_vs_incusr() {
        // Theorem 4's claim: Inc-SR ≡ Inc-uSR, entry for entry.
        let g = fixture();
        let cfg = SimRankConfig::paper_default();
        let s0 = batch_simrank(&g, &cfg);
        let mut pruned = IncSr::new(g.clone(), s0.clone(), cfg);
        let mut unpruned = IncUSr::new(g, s0, cfg);
        for (i, j, kind) in [
            (0u32, 4u32, UpdateKind::Insert),
            (6, 2, UpdateKind::Insert),
            (2, 3, UpdateKind::Delete),
            (0, 2, UpdateKind::Delete),
        ] {
            match kind {
                UpdateKind::Insert => {
                    pruned.insert_edge(i, j).unwrap();
                    unpruned.insert_edge(i, j).unwrap();
                }
                UpdateKind::Delete => {
                    pruned.remove_edge(i, j).unwrap();
                    unpruned.remove_edge(i, j).unwrap();
                }
            }
            let diff = pruned.scores().max_abs_diff(unpruned.scores());
            assert!(diff < 1e-12, "pruning lost exactness: diff={diff}");
        }
    }

    #[test]
    fn affected_area_is_sparse_on_chain_graph() {
        // A long path: an update at the tail should touch few pairs.
        let n = 60;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let g = DiGraph::from_edges(n, &edges);
        let cfg = SimRankConfig::new(0.6, 10).unwrap();
        let mut engine = IncSr::from_graph(g, cfg);
        let stats = engine.insert_edge(0, (n - 1) as u32).unwrap();
        assert!(
            stats.pruned_fraction > 0.5,
            "expected most pairs pruned, got {}",
            stats.pruned_fraction
        );
        assert!(stats.affected_pairs < n * n);
        assert!(stats.aff_avg < (n * n) as f64);
    }

    #[test]
    fn sequence_of_updates_stays_exact() {
        let g = fixture();
        let cfg = tight_cfg();
        let mut engine = IncSr::from_graph(g, cfg);
        engine.insert_edge(0, 5).unwrap();
        engine.insert_edge(6, 2).unwrap();
        engine.remove_edge(2, 3).unwrap();
        engine.insert_edge(3, 6).unwrap();
        engine.remove_edge(6, 2).unwrap();
        let s_batch = batch_simrank(engine.graph(), &cfg);
        assert!(engine.scores().max_abs_diff(&s_batch) < 1e-8);
    }

    #[test]
    fn isolated_component_is_untouched() {
        // Two disconnected components; updating one must not change scores
        // within the other (they are structurally unreachable).
        let g = DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]);
        let cfg = SimRankConfig::paper_default();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncSr::new(g, s0.clone(), cfg);
        engine.insert_edge(2, 3).unwrap();
        for a in 4..8 {
            for b in 4..8 {
                assert_eq!(
                    engine.scores().get(a, b),
                    s0.get(a, b),
                    "pair ({a},{b}) in the untouched component changed"
                );
            }
        }
    }

    #[test]
    fn invalid_updates_leave_state_untouched() {
        let g = fixture();
        let cfg = SimRankConfig::paper_default();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncSr::new(g.clone(), s0.clone(), cfg);
        assert!(engine.insert_edge(0, 2).is_err());
        assert!(engine.remove_edge(0, 3).is_err());
        assert_eq!(engine.graph(), &g);
        assert!(engine.scores().max_abs_diff(&s0) == 0.0);
    }

    #[test]
    fn stats_expose_affected_area_metrics() {
        let g = fixture();
        let cfg = SimRankConfig::paper_default();
        let mut engine = IncSr::from_graph(g, cfg);
        let stats = engine.insert_edge(0, 4).unwrap();
        assert!(stats.affected_pairs > 0);
        assert!(stats.aff_avg > 0.0);
        assert!((0.0..=1.0).contains(&stats.pruned_fraction));
        assert!(stats.peak_intermediate_bytes > 0);
    }

    #[test]
    fn add_node_extension_grows_scores() {
        let g = fixture();
        let cfg = tight_cfg();
        let mut engine = IncSr::from_graph(g, cfg);
        let v = engine.add_node();
        assert_eq!(v, 7);
        assert!((engine.scores().get(7, 7) - 0.4).abs() < 1e-12);
        engine.insert_edge(7, 2).unwrap();
        engine.insert_edge(3, 7).unwrap();
        let s_batch = batch_simrank(engine.graph(), &cfg);
        assert!(engine.scores().max_abs_diff(&s_batch) < 1e-9);
    }

    #[test]
    fn self_loop_updates_are_exact() {
        assert_matches_batch(&fixture(), 2, 2, UpdateKind::Insert);
    }

    fn mixed_ops() -> Vec<UpdateOp> {
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
        let mut eager = IncSr::new(g.clone(), s0.clone(), cfg);
        let mut fused = IncSr::new(g, s0, cfg).with_mode(ApplyMode::Fused);
        for op in mixed_ops() {
            eager.apply(op).unwrap();
            fused.apply(op).unwrap();
        }
        assert_eq!(fused.pending_rank(), 0);
        assert_eq!(
            eager.scores().max_abs_diff(fused.scores()),
            0.0,
            "sparse fused apply replays the affected-area writes in order"
        );
    }

    #[test]
    fn fused_batch_defers_across_updates_and_stays_exact() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut fused = IncSr::new(g, s0, cfg).with_mode(ApplyMode::Fused);
        fused.apply_batch(&mixed_ops()).unwrap();
        assert_eq!(fused.pending_rank(), 0);
        let s_batch = batch_simrank(fused.graph(), &tight_cfg());
        assert!(fused.scores().max_abs_diff(&s_batch) < 1e-8);
    }

    #[test]
    fn lazy_mode_stays_exact_after_flush() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut lazy = IncSr::new(g, s0.clone(), cfg).with_mode(ApplyMode::Lazy);
        for op in mixed_ops() {
            lazy.apply(op).unwrap();
        }
        // Updates chained through effective rows; base never touched.
        assert_eq!(lazy.base_scores().max_abs_diff(&s0), 0.0);
        assert!(lazy.pending_rank() > 0);
        // View reads match the true updated scores.
        let s_batch = batch_simrank(lazy.graph(), &tight_cfg());
        let n = lazy.graph().node_count() as u32;
        for a in 0..n {
            for b in 0..n {
                let got = lazy.view().pair(a, b);
                let want = s_batch.get(a as usize, b as usize);
                assert!((got - want).abs() < 1e-8, "pair ({a},{b}): {got} vs {want}");
            }
        }
        lazy.flush();
        assert!(lazy.scores().max_abs_diff(&s_batch) < 1e-8);
    }

    #[test]
    fn lazy_window_skips_died_out_terms() {
        // On a path graph the pruned supports of an update die out once
        // they pass the tail (no out-neighbours left to scatter to). The
        // empty tail terms are no-op pairs: they must not be buffered, so
        // the pending rank reflects only the terms that carry mass —
        // otherwise `ApplyPolicy::Auto` counts them against its rank cap
        // and fires spurious `rank_cap_flushes`.
        let n = 30;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let cfg = SimRankConfig::new(0.6, 20).unwrap();
        let mut engine =
            IncSr::from_graph(DiGraph::from_edges(n, &edges), cfg).with_mode(ApplyMode::Lazy);
        let stats = engine.insert_edge(0, (n - 1) as u32).unwrap();
        assert!(
            stats.pending_rank < cfg.iterations + 1,
            "died-out terms inflated the pending rank to {} (K+1 = {})",
            stats.pending_rank,
            cfg.iterations + 1
        );
        // The skipped terms were genuinely zero: the window is still exact.
        engine.flush();
        let truth = batch_simrank(engine.graph(), &cfg);
        assert!(engine.scores().max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn compress_pending_keeps_lazy_reads_exact() {
        let g = fixture();
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut lazy = IncSr::new(g, s0, cfg).with_mode(ApplyMode::Lazy);
        for op in mixed_ops() {
            lazy.apply(op).unwrap();
        }
        let before = lazy.pending_rank();
        let after = lazy.compress_pending(1e-13);
        assert_eq!(after, lazy.pending_rank());
        // 5 updates × (K+1) terms on a 7-node support: the numerical rank
        // is bounded by the support size, far below the raw pair count.
        assert!(
            after <= 7 && after < before,
            "compression did not shrink the window: {before} -> {after}"
        );
        assert_eq!(lazy.mode(), ApplyMode::Lazy, "the window stays open");
        let truth = batch_simrank(lazy.graph(), &tight_cfg());
        let n = lazy.graph().node_count() as u32;
        for a in 0..n {
            for b in 0..n {
                let got = lazy.view().pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!((got - want).abs() < 1e-8, "pair ({a},{b}): {got} vs {want}");
            }
        }
        lazy.flush();
        assert!(lazy.scores().max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn delete_to_empty_in_neighbourhood() {
        // Deleting the last in-edge of a node (d_j = 1 branch) and then
        // reinserting must round-trip.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cfg = tight_cfg();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncSr::new(g, s0.clone(), cfg);
        engine.remove_edge(1, 2).unwrap();
        engine.insert_edge(1, 2).unwrap();
        assert!(engine.scores().max_abs_diff(&s0) < 1e-9);
    }
}
