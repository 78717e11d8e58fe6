//! **Batch recompute**: the paper's "Batch" comparator as a maintainer.
//!
//! The naive way to keep SimRank fresh on an evolving graph is to rerun
//! the batch algorithm after every link update — exactly what the paper's
//! experiments charge the `Batch` column for. This engine packages that
//! strategy behind the common [`SimRankMaintainer`] interface so the
//! service layer (`incsim::api`, where it is `EngineKind::Naive` — this
//! crate sits below `incsim` and cannot link upward) and the
//! conformance suite can drive it interchangeably with the incremental
//! engines: it is exact by construction (its scores *are* the batch
//! scores of the current graph), which makes it the ground-truth anchor
//! every other engine is measured against.
//!
//! Cost: `O(K·d·n²)` per update — the quantity the paper's Inc-uSR/Inc-SR
//! speedups are relative to.

use incsim_core::rankone::UpdateKind;
use incsim_core::{
    batch_simrank, validate_update, GraphSink, MatrixAccess, SimRankConfig, SimRankMaintainer,
    UpdateError, UpdateStats,
};
use incsim_graph::DiGraph;
use incsim_linalg::DenseMatrix;
use std::sync::Arc;

/// The recompute-from-scratch engine. See the [module docs](self).
///
/// ```
/// use incsim_baselines::BatchRecompute;
/// use incsim_core::{GraphSink, MatrixAccess, SimRankConfig};
/// use incsim_graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(2, 0), (2, 1), (0, 3)]);
/// let mut engine = BatchRecompute::from_graph(g, SimRankConfig::paper_default());
/// engine.insert_edge(1, 3).unwrap();
/// assert!(engine.scores().get(0, 1) > 0.0);
/// ```
pub struct BatchRecompute {
    graph: DiGraph,
    // Every recompute replaces the buffer outright, so snapshots sharing
    // the old one never force a copy.
    scores: Arc<DenseMatrix>,
    cfg: SimRankConfig,
}

impl BatchRecompute {
    /// Creates the engine from a graph and its (pre-computed) score matrix,
    /// owned or shared.
    ///
    /// # Panics
    /// Panics if `scores` is not `n × n` for the graph's `n`.
    pub fn new(graph: DiGraph, scores: impl Into<Arc<DenseMatrix>>, cfg: SimRankConfig) -> Self {
        let scores = scores.into();
        let n = graph.node_count();
        assert_eq!(scores.rows(), n, "scores must be n x n");
        assert_eq!(scores.cols(), n, "scores must be n x n");
        BatchRecompute { graph, scores, cfg }
    }

    /// Convenience constructor that batch-computes the initial scores.
    pub fn from_graph(graph: DiGraph, cfg: SimRankConfig) -> Self {
        let scores = batch_simrank(&graph, &cfg);
        BatchRecompute::new(graph, scores, cfg)
    }

    /// Consumes the engine, returning `(graph, scores)`.
    pub fn into_parts(self) -> (DiGraph, DenseMatrix) {
        (self.graph, Arc::unwrap_or_clone(self.scores))
    }

    fn apply_update(
        &mut self,
        i: u32,
        j: u32,
        kind: UpdateKind,
    ) -> Result<UpdateStats, UpdateError> {
        validate_update(&self.graph, i, j, kind)?;
        match kind {
            UpdateKind::Insert => self.graph.insert_edge(i, j)?,
            UpdateKind::Delete => self.graph.remove_edge(i, j)?,
        }
        self.scores = Arc::new(batch_simrank(&self.graph, &self.cfg));
        let n = self.graph.node_count();
        Ok(UpdateStats {
            kind,
            edge: (i, j),
            iterations: self.cfg.iterations,
            affected_pairs: n * n,
            aff_avg: (n * n) as f64,
            pruned_fraction: 0.0,
            // batch_simrank's fused sweep swaps two n² buffers: the output
            // and one scratch matrix holding the previous iterate.
            peak_intermediate_bytes: n * n * std::mem::size_of::<f64>(),
            gamma_density: 1.0,
            applied_mode: incsim_core::ApplyMode::Eager,
            pending_rank: 0,
        })
    }
}

impl MatrixAccess for BatchRecompute {
    fn base_scores(&self) -> &Arc<DenseMatrix> {
        &self.scores
    }
}

impl SimRankMaintainer for BatchRecompute {
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        Some(self)
    }

    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        Some(self)
    }
}

impl GraphSink for BatchRecompute {
    fn name(&self) -> &'static str {
        "Batch"
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
        let v = self.graph.add_node();
        self.scores = Arc::new(batch_simrank(&self.graph, &self.cfg));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> DiGraph {
        DiGraph::from_edges(6, &[(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)])
    }

    #[test]
    fn scores_always_equal_batch_truth() {
        let cfg = SimRankConfig::new(0.6, 20).unwrap();
        let mut engine = BatchRecompute::from_graph(fixture(), cfg);
        engine.insert_edge(0, 4).unwrap();
        engine.remove_edge(2, 3).unwrap();
        let truth = batch_simrank(engine.graph(), &cfg);
        assert_eq!(engine.scores().max_abs_diff(&truth), 0.0);
    }

    #[test]
    fn invalid_updates_leave_state_untouched() {
        let cfg = SimRankConfig::paper_default();
        let mut engine = BatchRecompute::from_graph(fixture(), cfg);
        let before = engine.scores().clone();
        assert!(engine.insert_edge(0, 2).is_err());
        assert!(engine.remove_edge(0, 3).is_err());
        assert_eq!(engine.scores().max_abs_diff(&before), 0.0);
    }

    #[test]
    fn view_is_never_deferred() {
        let cfg = SimRankConfig::paper_default();
        let mut engine = BatchRecompute::from_graph(fixture(), cfg);
        engine.insert_edge(0, 4).unwrap();
        assert!(!engine.view().is_deferred());
        assert_eq!(engine.pending_rank(), 0);
        let via_view = engine.view().pair(0, 1);
        assert_eq!(via_view, engine.scores().get(0, 1));
    }

    #[test]
    fn add_node_recomputes() {
        let cfg = SimRankConfig::paper_default();
        let mut engine = BatchRecompute::from_graph(fixture(), cfg);
        let v = engine.add_node();
        assert_eq!(v, 6);
        assert_eq!(engine.scores().rows(), 7);
        assert!((engine.scores().get(6, 6) - 0.4).abs() < 1e-12);
    }
}
