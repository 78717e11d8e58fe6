//! # incsim-core
//!
//! The primary contribution of *"Fast Incremental SimRank on Link-Evolving
//! Graphs"* (Yu, Lin & Zhang, ICDE 2014), implemented from scratch:
//!
//! * [`batch_simrank`] — matrix-form batch SimRank
//!   `S = C·Q·S·Qᵀ + (1−C)·Iₙ` (Eq. 2) with sparse kernels and partial-sum
//!   row sharing, the `O(K·d·n²)`-class batch computation the paper uses
//!   both as the precomputation step and as the `Batch` comparator.
//! * [`rankone`] — Theorem 1: the rank-one decomposition `ΔQ = u·vᵀ` of
//!   every unit link update, plus the Theorem 2/3 construction of the
//!   auxiliary vector γ and scalar λ.
//! * [`IncUSr`] — Algorithm 1 (*Inc-uSR*): exact incremental all-pairs
//!   update in `O(K·n²)` time per link update via the rank-one Sylvester
//!   characterisation of ΔS (Eq. 13), using only matrix–vector and
//!   vector–vector operations.
//! * [`IncSr`] — Algorithm 2 (*Inc-SR*): Inc-uSR plus the lossless pruning
//!   of Theorem 4, confining work to the affected area of ΔS —
//!   `O(K(n·d + |AFF|))` time.
//! * [`SimRankMaintainer`] — the engine *composition*: a supertrait bundle
//!   of the capability traits [`GraphSink`] (mutate the graph),
//!   [`PairQuery`] / [`SingleSourceQuery`] / [`TopKQuery`] (answer
//!   queries), plus optional dense-state access via
//!   [`SimRankMaintainer::matrix`] → [`MatrixAccess`]. Matrix engines get
//!   the query capabilities for free from blanket impls over their
//!   [`MatrixAccess::view`]; matrix-free engines implement them directly.
//! * [`ProbeSim`] — the matrix-free engine: it keeps the graph alone
//!   (`O(n + m)` state, zero `n²` allocations). Single-source, top-k and
//!   threshold reads compute their column of the K-truncated series
//!   exactly, in `O(K·(n + m))`; pair reads sample coupled reverse walks
//!   within a documented `(1 ± ε)` of the batch scores.
//! * [`ApplyMode`] — how the per-update `ξηᵀ + ηξᵀ` terms reach the score
//!   matrix: `Eager` (the paper's K+1 sweeps), `Fused` (one buffered,
//!   cache-blocked, parallel sweep per mutation call), or `Lazy` (no sweep
//!   at all). Reads are mode-agnostic: [`query::ScoreView`] (obtained via
//!   [`MatrixAccess::view`]) composes `S_base + Δ` over the pending
//!   [`incsim_linalg::LowRankDelta`], and [`MatrixAccess::scores`]
//!   materialises pending ΔS before returning — stale reads are
//!   impossible through the trait.
//!
//! ## Semantics
//!
//! Scores follow the paper's **matrix form** of SimRank. Its diagonal is
//! *not* pinned to 1: a node `j` with in-degree 0 has `S[j,j] = 1−C`. The
//! incremental theorems (Eq. 29/31/32) are identities of this form. The
//! classic Jeh–Widom iterative form (diagonal forced to 1) is provided by
//! `incsim-baselines` for comparison.
//!
//! ## Example
//!
//! ```
//! use incsim_graph::DiGraph;
//! use incsim_core::{batch_simrank, GraphSink, IncSr, SimRankConfig};
//!
//! let g = DiGraph::from_edges(5, &[(0, 2), (1, 2), (2, 3), (3, 4)]);
//! let cfg = SimRankConfig::new(0.6, 12).unwrap();
//! let s = batch_simrank(&g, &cfg);
//! let mut engine = IncSr::new(g, s, cfg);
//! let stats = engine.insert_edge(0, 3).unwrap();
//! assert!(stats.affected_pairs > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops mirror the paper's per-node formulas; keep them literal.
#![allow(clippy::needless_range_loop)]

pub mod batch;
mod fxhash;
pub mod grouped;
pub mod incsr;
pub mod incusr;
pub mod maintainer;
pub mod probe;
pub mod query;
pub mod rankone;
pub mod snapshot;

pub use batch::{batch_simrank, batch_simrank_detailed, BatchOptions, BatchResult};
pub use grouped::{group_by_row, GroupedStats, RowChange};
pub use incsr::IncSr;
pub use incusr::IncUSr;
pub use maintainer::{
    validate_update, ApplyMode, CapabilityError, GraphSink, MatrixAccess, PairQuery,
    SimRankMaintainer, SingleSourceQuery, TopKQuery, UpdateError, UpdateStats, WalkStats,
};
pub use probe::{ProbeOptions, ProbeSim, ProbeSnapshot};
pub use query::{DeltaSnapshot, RankedNode, ScoreSnapshot, ScoreView, SnapshotQuery};
pub use rankone::{
    gamma_vector, gamma_vector_from_cols, rank_one_decomposition, RankOneUpdate, UpdateKind,
};

/// Configuration shared by every SimRank algorithm in the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRankConfig {
    /// Damping factor `C ∈ (0, 1)`; the paper uses 0.6 (experiments) and
    /// 0.8 (running example), following Jeh & Widom's 0.6–0.8 guidance.
    pub c: f64,
    /// Number of iterations `K`; residual decays as `C^{K+1}` (the paper
    /// uses K=15 for `C^K ≤ 0.0005`, and K=5 on the largest dataset).
    pub iterations: usize,
    /// Entries with `|x| <= zero_tol` are treated as zero when detecting
    /// supports/affected areas. `0.0` reproduces the paper's exact-zero
    /// pruning semantics.
    pub zero_tol: f64,
}

impl SimRankConfig {
    /// Creates a configuration, validating `0 < c < 1` and `iterations ≥ 1`.
    pub fn new(c: f64, iterations: usize) -> Result<Self, ConfigError> {
        if !(c > 0.0 && c < 1.0) {
            return Err(ConfigError::DampingOutOfRange { c });
        }
        if iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        Ok(SimRankConfig {
            c,
            iterations,
            zero_tol: 0.0,
        })
    }

    /// Sets the support-detection tolerance (see [`SimRankConfig::zero_tol`]).
    pub fn with_zero_tol(mut self, tol: f64) -> Self {
        self.zero_tol = tol;
        self
    }

    /// The paper's default experimental setting: `C = 0.6`, `K = 15`.
    pub fn paper_default() -> Self {
        SimRankConfig {
            c: 0.6,
            iterations: 15,
            zero_tol: 0.0,
        }
    }

    /// A-priori truncation bound `‖M − M_K‖_max ≤ C^{K+1}` (footnote 18).
    pub fn truncation_bound(&self) -> f64 {
        self.c.powi(self.iterations as i32 + 1)
    }
}

/// Configuration validation errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The damping factor must lie strictly between 0 and 1.
    DampingOutOfRange {
        /// The rejected value.
        c: f64,
    },
    /// At least one iteration is required.
    ZeroIterations,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DampingOutOfRange { c } => {
                write!(f, "damping factor must be in (0,1), got {c}")
            }
            ConfigError::ZeroIterations => write!(f, "iteration count must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(SimRankConfig::new(0.6, 15).is_ok());
        assert!(matches!(
            SimRankConfig::new(0.0, 15),
            Err(ConfigError::DampingOutOfRange { .. })
        ));
        assert!(matches!(
            SimRankConfig::new(1.0, 15),
            Err(ConfigError::DampingOutOfRange { .. })
        ));
        assert!(matches!(
            SimRankConfig::new(-0.3, 15),
            Err(ConfigError::DampingOutOfRange { .. })
        ));
        assert!(matches!(
            SimRankConfig::new(0.5, 0),
            Err(ConfigError::ZeroIterations)
        ));
    }

    #[test]
    fn paper_default_matches_experiments_section() {
        let cfg = SimRankConfig::paper_default();
        assert_eq!(cfg.c, 0.6);
        assert_eq!(cfg.iterations, 15);
    }

    #[test]
    fn truncation_bound_decays() {
        let cfg = SimRankConfig::new(0.6, 15).unwrap();
        // C^16 ≈ 2.8e-4 — the "high accuracy C^K ≤ 0.0005" the paper cites.
        assert!(cfg.truncation_bound() < 5e-4);
        let few = SimRankConfig::new(0.6, 2).unwrap();
        assert!(few.truncation_bound() > cfg.truncation_bound());
    }
}
