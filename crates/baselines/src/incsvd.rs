//! **Inc-SVD**: the SVD-based incremental SimRank of Li et al. (EDBT 2010),
//! the prior method the paper compares against — reproduced faithfully,
//! *including the flaw* analysed in §IV of the paper.
//!
//! ## Batch: SimRank from a rank-`r` SVD
//!
//! With `Q = U·Σ·Vᵀ`, the series `S = (1−C)·Σ_k Cᵏ·Qᵏ(Qᵀ)ᵏ` has the
//! Woodbury closed form
//!
//! ```text
//! S = (1−C)·( Iₙ + C·U·(Σ·Y·Σ)·Uᵀ ),
//! vec(Y) solves (I_{r²} − C·(H ⊗ H))·vec(Y) = vec(I_r),   H = (Vᵀ·U)·Σ
//! ```
//!
//! The `r² × r²` system is materialised explicitly and LU-solved, matching
//! the tensor-product formulation whose `r⁴` memory and `r`-quartic cost the
//! paper measures in Fig. 3 (Inc-SVD "crashes" past small ranks — here that
//! becomes a clean [`UpdateError::ResourceExhausted`] via a memory budget).
//!
//! ## Incremental: factor update per link change (Eq. 4–5)
//!
//! `C̃ = Σ + Uᵀ·ΔQ·V` (an `r × r` matrix, rank-one-updated diagonal), then
//! `C̃ = U_C·Σ_C·V_Cᵀ` and `Ũ = U·U_C`, `Σ̃ = Σ_C`, `Ṽ = V·V_C`.
//!
//! §IV of the paper proves this rests on `U·Uᵀ = V·Vᵀ = Iₙ`, which fails
//! whenever `rank(Q) < n` — the update then *loses eigen-information* and
//! the maintained factorisation drifts from `Q̃` (Examples 2–3, unit-tested
//! below with the paper's exact matrices).

use incsim_core::rankone::{rank_one_decomposition, UpdateKind};
use incsim_core::{
    validate_update, GraphSink, MatrixAccess, SimRankConfig, SimRankMaintainer, UpdateError,
    UpdateStats,
};
use incsim_graph::transition::backward_transition;
use incsim_graph::DiGraph;
use incsim_linalg::lu::LuFactors;
use incsim_linalg::svd::{jacobi_svd, truncated_svd};
use incsim_linalg::{DenseMatrix, LinalgError, Svd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Errors specific to the Inc-SVD pipeline.
#[derive(Debug)]
pub enum IncSvdError {
    /// The `r²×r²` system would exceed the configured memory budget.
    MemoryBudget {
        /// Bytes needed for the explicit Kronecker system (two copies: the
        /// system matrix and its LU factors).
        needed: usize,
        /// Configured budget.
        budget: usize,
    },
    /// A linear-algebra routine failed.
    Linalg(LinalgError),
}

impl std::fmt::Display for IncSvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncSvdError::MemoryBudget { needed, budget } => {
                write!(f, "Inc-SVD needs {needed} bytes (> budget {budget})")
            }
            IncSvdError::Linalg(e) => write!(f, "Inc-SVD linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for IncSvdError {}

impl From<LinalgError> for IncSvdError {
    fn from(e: LinalgError) -> Self {
        IncSvdError::Linalg(e)
    }
}

impl From<IncSvdError> for UpdateError {
    fn from(e: IncSvdError) -> Self {
        match e {
            IncSvdError::MemoryBudget { needed, budget } => UpdateError::ResourceExhausted {
                needed_bytes: needed,
                budget_bytes: budget,
            },
            IncSvdError::Linalg(_) => UpdateError::Numerical("Inc-SVD linear algebra failure"),
        }
    }
}

/// Options for the Inc-SVD engine.
#[derive(Debug, Clone, Copy)]
pub struct IncSvdOptions {
    /// Target rank `r` of the truncated SVD. The paper notes `r = 5` gives
    /// Inc-SVD its best speed and tunes `r` upward for accuracy.
    pub rank: usize,
    /// Use the randomized range finder for the initial SVD (recommended for
    /// `n ≳ 300`); otherwise a full Jacobi SVD is truncated.
    pub randomized: bool,
    /// Oversampling columns for the randomized SVD.
    pub oversample: usize,
    /// Power iterations for the randomized SVD.
    pub power_iters: usize,
    /// RNG seed for the randomized SVD (determinism in experiments).
    pub seed: u64,
    /// Memory budget in bytes for the explicit `r²×r²` system
    /// (`0` = unlimited). Mirrors the paper's observed memory crashes.
    pub memory_budget_bytes: usize,
}

impl Default for IncSvdOptions {
    fn default() -> Self {
        IncSvdOptions {
            rank: 5,
            randomized: true,
            oversample: 8,
            power_iters: 2,
            seed: 0x1ce_2014,
            memory_budget_bytes: 0,
        }
    }
}

/// Bytes the explicit Kronecker system needs (system matrix + LU copy).
fn kron_system_bytes(r: usize) -> usize {
    2 * r * r * r * r * std::mem::size_of::<f64>()
}

/// Computes SimRank from SVD factors of `Q` via the Woodbury closed form
/// (Li et al.'s batch algorithm).
///
/// Exact when the factorisation is lossless (`U·Σ·Vᵀ = Q`); a rank-`r`
/// approximation otherwise.
pub fn svd_simrank(
    svd: &Svd,
    c: f64,
    memory_budget_bytes: usize,
) -> Result<DenseMatrix, IncSvdError> {
    let n = svd.u.rows();
    let r = svd.k();
    if r == 0 {
        // Q ≈ 0: S = (1−C)·I.
        let mut s = DenseMatrix::identity(n);
        s.scale(1.0 - c);
        return Ok(s);
    }
    let needed = kron_system_bytes(r);
    if memory_budget_bytes > 0 && needed > memory_budget_bytes {
        return Err(IncSvdError::MemoryBudget {
            needed,
            budget: memory_budget_bytes,
        });
    }

    // H = (Vᵀ·U)·Σ  (r × r).
    let g = svd.v.matmul_tn(&svd.u);
    let mut h = g;
    for row in 0..r {
        for col in 0..r {
            let val = h.get(row, col) * svd.s[col];
            h.set(row, col, val);
        }
    }

    // A_sys = I_{r²} − C·(H ⊗ H); rhs = vec(I_r) (column stacking).
    let r2 = r * r;
    let mut a_sys = DenseMatrix::identity(r2);
    for p in 0..r {
        for q in 0..r {
            let hpq = h.get(p, q);
            if hpq == 0.0 {
                continue;
            }
            for a in 0..r {
                for b in 0..r {
                    // (H⊗H)[p·r+a, q·r+b] = H[p,q]·H[a,b]
                    let val = c * hpq * h.get(a, b);
                    if val != 0.0 {
                        a_sys.add_to(p * r + a, q * r + b, -val);
                    }
                }
            }
        }
    }
    let mut rhs = vec![0.0; r2];
    for i in 0..r {
        rhs[i * r + i] = 1.0;
    }
    let y_vec = LuFactors::new(&a_sys)?.solve(&rhs)?;

    // Y from vec (column-major), then P = Σ·Y·Σ.
    let mut p_mat = DenseMatrix::zeros(r, r);
    for col in 0..r {
        for row in 0..r {
            p_mat.set(row, col, svd.s[row] * y_vec[col * r + row] * svd.s[col]);
        }
    }

    // S = (1−C)·(Iₙ + C·U·P·Uᵀ).
    let up = svd.u.matmul(&p_mat); // n×r
    let mut s = up.matmul_nt(&svd.u); // n×n
    s.scale((1.0 - c) * c);
    for i in 0..n {
        s.add_to(i, i, 1.0 - c);
    }
    Ok(s)
}

/// The Inc-SVD engine of Li et al., behind the common
/// [`SimRankMaintainer`] interface.
pub struct IncSvd {
    graph: DiGraph,
    cfg: SimRankConfig,
    opts: IncSvdOptions,
    u: DenseMatrix,
    sigma: Vec<f64>,
    v: DenseMatrix,
    // Every score rebuild replaces the buffer outright, so snapshots
    // sharing the old one never force a copy.
    scores: Arc<DenseMatrix>,
    rng: StdRng,
}

impl IncSvd {
    /// Builds the engine: rank-`r` SVD of `Q` plus the initial batch scores.
    pub fn new(
        graph: DiGraph,
        cfg: SimRankConfig,
        opts: IncSvdOptions,
    ) -> Result<Self, IncSvdError> {
        let q = backward_transition(&graph);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let svd = if opts.randomized {
            truncated_svd(&q, opts.rank, opts.oversample, opts.power_iters, &mut rng)
        } else {
            jacobi_svd(&q.to_dense()).truncate(opts.rank)
        };
        let scores = svd_simrank(&svd, cfg.c, opts.memory_budget_bytes)?;
        Ok(IncSvd {
            graph,
            cfg,
            opts,
            u: svd.u,
            sigma: svd.s,
            v: svd.v,
            scores: Arc::new(scores),
            rng,
        })
    }

    /// The current factorisation as an [`Svd`] (diagnostics; e.g. measuring
    /// `‖Q̃ − Ũ·Σ̃·Ṽᵀ‖₂` as in Example 3 of the paper).
    pub fn factors(&self) -> Svd {
        Svd {
            u: self.u.clone(),
            s: self.sigma.clone(),
            v: self.v.clone(),
        }
    }

    /// Re-runs the initial SVD from the current graph (used by experiments
    /// to reset drift; not part of Li et al.'s incremental loop).
    pub fn refactorize(&mut self) -> Result<(), IncSvdError> {
        let q = backward_transition(&self.graph);
        let svd = if self.opts.randomized {
            truncated_svd(
                &q,
                self.opts.rank,
                self.opts.oversample,
                self.opts.power_iters,
                &mut self.rng,
            )
        } else {
            jacobi_svd(&q.to_dense()).truncate(self.opts.rank)
        };
        self.u = svd.u;
        self.sigma = svd.s;
        self.v = svd.v;
        self.scores = Arc::new(svd_simrank(
            &self.factors(),
            self.cfg.c,
            self.opts.memory_budget_bytes,
        )?);
        Ok(())
    }

    fn apply_update(
        &mut self,
        i: u32,
        j: u32,
        kind: UpdateKind,
    ) -> Result<UpdateStats, UpdateError> {
        validate_update(&self.graph, i, j, kind)?;
        let n = self.graph.node_count();
        let r = self.sigma.len();

        // ΔQ = u·vᵀ (Theorem 1 of the paper; Li et al. use the same shape).
        let upd = rank_one_decomposition(&self.graph, i, j, kind);

        // C̃ = Σ + (Uᵀ·u)·(Vᵀ·v)ᵀ — two thin projections, then r×r SVD.
        let mut a_vec = vec![0.0; r];
        for (t, av) in a_vec.iter_mut().enumerate() {
            *av = upd.u_coeff * self.u.get(j as usize, t);
        }
        let mut b_vec = vec![0.0; r];
        for &(idx, val) in &upd.v {
            for (t, bv) in b_vec.iter_mut().enumerate() {
                *bv += val * self.v.get(idx as usize, t);
            }
        }
        let mut c_aux = DenseMatrix::from_diag(&self.sigma);
        c_aux.rank_one_update(1.0, &a_vec, &b_vec);
        let small = jacobi_svd(&c_aux);

        // Ũ = U·U_C, Σ̃ = Σ_C, Ṽ = V·V_C  (Eq. 4) — the step that silently
        // assumes U·Uᵀ = I and loses eigen-information when rank(Q) < n.
        self.u = self.u.matmul(&small.u);
        self.v = self.v.matmul(&small.v);
        self.sigma = small.s;

        // Recompute all scores from the updated factors (the expensive
        // tensor-product step the paper's Exp-1 measures).
        self.scores = Arc::new(
            svd_simrank(&self.factors(), self.cfg.c, self.opts.memory_budget_bytes)
                .map_err(UpdateError::from)?,
        );

        match kind {
            UpdateKind::Insert => self.graph.insert_edge(i, j)?,
            UpdateKind::Delete => self.graph.remove_edge(i, j)?,
        }

        let factor_bytes = self.u.heap_bytes()
            + self.v.heap_bytes()
            + self.sigma.capacity() * std::mem::size_of::<f64>();
        // The tensor-product working set of the closed form: the n×r
        // projection U·P and the n×n product it expands into before the
        // diagonal correction turns it into the output ("the last step of
        // writing n² similarity outputs" is excluded, per the paper's
        // intermediate-space definition — the product itself is not).
        let work_bytes = (n * r + n * n) * std::mem::size_of::<f64>();
        Ok(UpdateStats {
            kind,
            edge: (i, j),
            iterations: 0,
            affected_pairs: n * n,
            aff_avg: (n * n) as f64,
            pruned_fraction: 0.0,
            peak_intermediate_bytes: factor_bytes + kron_system_bytes(r) + work_bytes,
            // No γ vector: the closed form rebuilds all n² scores.
            gamma_density: 1.0,
            applied_mode: incsim_core::ApplyMode::Eager,
            pending_rank: 0,
        })
    }
}

impl MatrixAccess for IncSvd {
    fn base_scores(&self) -> &Arc<DenseMatrix> {
        &self.scores
    }
}

impl SimRankMaintainer for IncSvd {
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        Some(self)
    }

    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        Some(self)
    }
}

impl GraphSink for IncSvd {
    fn name(&self) -> &'static str {
        "Inc-SVD"
    }

    fn graph(&self) -> &DiGraph {
        &self.graph
    }

    fn config(&self) -> &SimRankConfig {
        &self.cfg
    }

    fn insert_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.apply_update(i, j, UpdateKind::Insert)
    }

    fn remove_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.apply_update(i, j, UpdateKind::Delete)
    }

    fn add_node(&mut self) -> u32 {
        // Grow the node universe; the factor matrices gain a zero row each
        // (the new node is isolated, contributing nothing to Q).
        let vnew = self.graph.add_node();
        let n = self.graph.node_count();
        let r = self.sigma.len();
        let grow = |m: &DenseMatrix| {
            let mut g = DenseMatrix::zeros(n, r);
            for a in 0..n - 1 {
                g.row_mut(a).copy_from_slice(m.row(a));
            }
            g
        };
        self.u = grow(&self.u);
        self.v = grow(&self.v);
        let mut scores = DenseMatrix::zeros(n, n);
        for a in 0..n - 1 {
            scores.row_mut(a)[..n - 1].copy_from_slice(self.scores.row(a));
        }
        scores.set(n - 1, n - 1, 1.0 - self.cfg.c);
        self.scores = Arc::new(scores);
        vnew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incsim_core::batch_simrank;
    use incsim_linalg::norms::spectral_norm_est;

    /// §IV Example 2: Q = [0 1; 0 0]; the lossless SVD has rank 1 and
    /// U·Uᵀ ≠ I₂ while Uᵀ·U = I₁.
    #[test]
    fn example_2_uut_is_not_identity() {
        let q = DenseMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let svd = jacobi_svd(&q).truncate(1);
        let uut = svd.u.matmul_nt(&svd.u);
        // U·Uᵀ = diag(1, 0) ≠ I.
        assert!((uut.get(0, 0) - 1.0).abs() < 1e-12);
        assert!(uut.get(1, 1).abs() < 1e-12);
        // Uᵀ·U = I₁.
        let utu = svd.u.matmul_tn(&svd.u);
        assert!((utu.get(0, 0) - 1.0).abs() < 1e-12);
    }

    /// §IV Example 3, end to end: insert the edge that makes Q̃ = [0 1; 1 0];
    /// Li et al.'s factor update misses the new eigenvector and
    /// ‖Q̃ − Ũ·Σ̃·Ṽᵀ‖₂ = 1.
    #[test]
    fn example_3_factor_update_misses_eigenvector() {
        // Graph with Q = [0 1; 0 0]: node 0 has in-neighbor 1 ⇒ edge 1→0.
        let g = DiGraph::from_edges(2, &[(1, 0)]);
        let cfg = SimRankConfig::new(0.8, 10).unwrap();
        let opts = IncSvdOptions {
            rank: 2, // lossless target rank (rank(Q)=1 ≤ 2)
            randomized: false,
            ..Default::default()
        };
        let mut engine = IncSvd::new(g, cfg, opts).unwrap();
        // Insert edge 0→1: ΔQ = [0 0; 1 0] (node 1 gains in-neighbor 0).
        engine.insert_edge(0, 1).unwrap();
        let f = engine.factors();
        let recon = f.reconstruct();
        let qt_true = backward_transition(engine.graph()).to_dense();
        let mut resid = qt_true.clone();
        resid.add_scaled(-1.0, &recon);
        let err = spectral_norm_est(&resid, 60);
        assert!(
            (err - 1.0).abs() < 1e-6,
            "paper predicts ‖Q̃ − ŨΣ̃Ṽᵀ‖₂ = 1, got {err}"
        );
    }

    /// On a full-rank Q with lossless SVD, Li et al.'s method IS exact
    /// (the paper: "Only in this case ... produces exact SimRank").
    #[test]
    fn lossless_full_rank_update_is_exact() {
        // A directed cycle: Q is a permutation matrix (full rank).
        let n = 6;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let g = DiGraph::from_edges(n, &edges);
        let cfg = SimRankConfig::new(0.6, 200).unwrap();
        let opts = IncSvdOptions {
            rank: n,
            randomized: false,
            ..Default::default()
        };
        let mut engine = IncSvd::new(g, cfg, opts).unwrap();

        // Initial scores match converged batch.
        let batch0 = batch_simrank(engine.graph(), &cfg);
        assert!(
            engine.scores().max_abs_diff(&batch0) < 1e-9,
            "initial svd_simrank diverges: {}",
            engine.scores().max_abs_diff(&batch0)
        );

        // After an update, factors still reconstruct Q̃ exactly...
        engine.insert_edge(0, 3).unwrap();
        let recon = engine.factors().reconstruct();
        let q_new = backward_transition(engine.graph()).to_dense();
        assert!(recon.max_abs_diff(&q_new) < 1e-10);

        // ...and scores match converged batch on the new graph.
        let batch1 = batch_simrank(engine.graph(), &cfg);
        assert!(
            engine.scores().max_abs_diff(&batch1) < 1e-8,
            "post-update svd_simrank diverges: {}",
            engine.scores().max_abs_diff(&batch1)
        );
    }

    /// On rank-deficient graphs the incremental factors drift — the
    /// approximation the paper's Fig. 1 and Fig. 4 measure.
    #[test]
    fn rank_deficient_update_is_approximate() {
        // Star-ish DAG: rank(Q) < n.
        let g = DiGraph::from_edges(6, &[(0, 3), (1, 3), (2, 3), (3, 4), (3, 5)]);
        let cfg = SimRankConfig::new(0.6, 150).unwrap();
        let opts = IncSvdOptions {
            rank: 6,
            randomized: false,
            ..Default::default()
        };
        let mut engine = IncSvd::new(g, cfg, opts).unwrap();
        engine.insert_edge(4, 2).unwrap();
        let q_new = backward_transition(engine.graph()).to_dense();
        let recon = engine.factors().reconstruct();
        assert!(
            recon.max_abs_diff(&q_new) > 1e-3,
            "expected eigen-information loss on rank-deficient Q"
        );
        let batch = batch_simrank(engine.graph(), &cfg);
        assert!(
            engine.scores().max_abs_diff(&batch) > 1e-4,
            "expected approximate scores, got near-exact"
        );
    }

    #[test]
    fn truncated_rank_degrades_gracefully() {
        let g = DiGraph::from_edges(
            8,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (1, 5),
            ],
        );
        let cfg = SimRankConfig::new(0.6, 150).unwrap();
        let truth = batch_simrank(&g, &cfg);
        let mut errs = Vec::new();
        for rank in [2, 5, 8] {
            let opts = IncSvdOptions {
                rank,
                randomized: false,
                ..Default::default()
            };
            let mut engine = IncSvd::new(g.clone(), cfg, opts).unwrap();
            errs.push(engine.scores().max_abs_diff(&truth));
        }
        // Error decreases (weakly) as rank grows.
        assert!(errs[0] >= errs[2] - 1e-12, "errors: {errs:?}");
        assert!(
            errs[2] < 1e-6,
            "lossless rank should be near-exact: {errs:?}"
        );
    }

    #[test]
    fn memory_budget_is_enforced() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cfg = SimRankConfig::paper_default();
        let opts = IncSvdOptions {
            rank: 4,
            randomized: false,
            memory_budget_bytes: 64, // absurdly small
            ..Default::default()
        };
        match IncSvd::new(g, cfg, opts) {
            Err(IncSvdError::MemoryBudget { needed, budget }) => {
                assert!(needed > budget);
            }
            other => panic!("expected MemoryBudget error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn svd_simrank_zero_rank_is_scaled_identity() {
        let svd = Svd {
            u: DenseMatrix::zeros(3, 0),
            s: vec![],
            v: DenseMatrix::zeros(3, 0),
        };
        let s = svd_simrank(&svd, 0.6, 0).unwrap();
        let mut expect = DenseMatrix::identity(3);
        expect.scale(0.4);
        assert!(s.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn engine_add_node_grows_consistently() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cfg = SimRankConfig::paper_default();
        let opts = IncSvdOptions {
            rank: 3,
            randomized: false,
            ..Default::default()
        };
        let mut engine = IncSvd::new(g, cfg, opts).unwrap();
        let v = engine.add_node();
        assert_eq!(v, 4);
        assert_eq!(engine.scores().rows(), 5);
        assert!((engine.scores().get(4, 4) - 0.4).abs() < 1e-12);
        // Engine still functional after growth.
        engine.insert_edge(4, 1).unwrap();
        assert_eq!(engine.graph().edge_count(), 4);
    }

    #[test]
    fn invalid_updates_rejected_before_state_change() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let cfg = SimRankConfig::paper_default();
        let opts = IncSvdOptions {
            rank: 2,
            randomized: false,
            ..Default::default()
        };
        let mut engine = IncSvd::new(g.clone(), cfg, opts).unwrap();
        let s0 = engine.scores().clone();
        assert!(engine.insert_edge(0, 1).is_err());
        assert!(engine.remove_edge(1, 0).is_err());
        assert_eq!(engine.graph(), &g);
        assert!(engine.scores().max_abs_diff(&s0) == 0.0);
    }
}
