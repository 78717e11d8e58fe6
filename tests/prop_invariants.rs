//! Property-based tests (proptest) of the paper's key invariants on
//! arbitrary graphs and updates.

use incsim::core::rankone::{rank_one_decomposition, UpdateKind};
use incsim::core::{batch_simrank, GraphSink, IncSr, IncUSr, MatrixAccess, SimRankConfig};
use incsim::graph::transition::backward_transition;
use incsim::graph::DiGraph;
use proptest::prelude::*;

/// Strategy: a digraph over `n ∈ [3, 14]` nodes with random edges.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (3usize..=14).prop_flat_map(|n| {
        let max_edges = n * (n - 1);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(40)).prop_map(
            move |pairs| {
                let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                DiGraph::from_edges(n, &edges)
            },
        )
    })
}

/// Strategy: a graph plus a valid unit update on it.
fn arb_graph_and_update() -> impl Strategy<Value = (DiGraph, u32, u32, UpdateKind)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.node_count() as u32;
        ((0..n), (0..n)).prop_map(move |(i, j)| {
            let kind = if g.has_edge(i, j) {
                UpdateKind::Delete
            } else {
                UpdateKind::Insert
            };
            (g.clone(), i, j, kind)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: ΔQ = u·vᵀ exactly, for every graph and every update.
    #[test]
    fn rank_one_decomposition_is_exact((g, i, j, kind) in arb_graph_and_update()) {
        let n = g.node_count();
        let q_old = backward_transition(&g).to_dense();
        let upd = rank_one_decomposition(&g, i, j, kind);
        let mut g_new = g.clone();
        match kind {
            UpdateKind::Insert => g_new.insert_edge(i, j).unwrap(),
            UpdateKind::Delete => g_new.remove_edge(i, j).unwrap(),
        }
        let q_new = backward_transition(&g_new).to_dense();
        let mut delta = q_new;
        delta.add_scaled(-1.0, &q_old);
        let uv = upd.to_dense_delta(n);
        prop_assert!(delta.max_abs_diff(&uv) < 1e-12);
    }

    /// Batch SimRank invariants: symmetric, entries in [0, 1] with no
    /// `-0.0`, diagonal at least 1−C, and rows of in-degree-0 nodes equal
    /// (1−C)·e_v.
    #[test]
    fn batch_scores_invariants(g in arb_graph()) {
        let cfg = SimRankConfig::new(0.6, 20).unwrap();
        let s = batch_simrank(&g, &cfg);
        prop_assert!(s.is_symmetric(0.0));
        for a in 0..g.node_count() {
            prop_assert!(s.get(a, a) >= 0.4 - 1e-12);
            for b in 0..g.node_count() {
                let v = s.get(a, b);
                prop_assert!((-1e-12..=1.0 + 1e-9).contains(&v), "s({},{}) = {}", a, b, v);
                prop_assert!(!v.is_sign_negative(), "s({},{}) = {:e}", a, b, v);
            }
        }
        for v in 0..g.node_count() as u32 {
            if g.in_degree(v) == 0 {
                prop_assert!((s.get(v as usize, v as usize) - 0.4).abs() < 1e-12);
            }
        }
    }

    /// The exactness theorem: one incremental update equals batch on the
    /// new graph (high-K so truncation noise is ~1e-20).
    #[test]
    fn single_update_matches_batch((g, i, j, kind) in arb_graph_and_update()) {
        let cfg = SimRankConfig::new(0.6, 80).unwrap();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncSr::new(g, s0, cfg);
        match kind {
            UpdateKind::Insert => { engine.insert_edge(i, j).unwrap(); }
            UpdateKind::Delete => { engine.remove_edge(i, j).unwrap(); }
        }
        let truth = batch_simrank(engine.graph(), &cfg);
        prop_assert!(engine.scores().max_abs_diff(&truth) < 1e-8);
    }

    /// Theorem 4 (pruning losslessness): Inc-SR ≡ Inc-uSR entrywise.
    #[test]
    fn pruned_equals_unpruned((g, i, j, kind) in arb_graph_and_update()) {
        let cfg = SimRankConfig::new(0.8, 12).unwrap(); // paper's example C
        let s0 = batch_simrank(&g, &cfg);
        let mut pruned = IncSr::new(g.clone(), s0.clone(), cfg);
        let mut unpruned = IncUSr::new(g, s0, cfg);
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
        prop_assert!(pruned.scores().max_abs_diff(unpruned.scores()) < 1e-10);
    }

    /// Insert followed by delete of the same edge restores the scores.
    #[test]
    fn insert_delete_roundtrip((g, i, j, kind) in arb_graph_and_update()) {
        prop_assume!(kind == UpdateKind::Insert);
        let cfg = SimRankConfig::new(0.6, 80).unwrap();
        let s0 = batch_simrank(&g, &cfg);
        let mut engine = IncSr::new(g, s0.clone(), cfg);
        engine.insert_edge(i, j).unwrap();
        engine.remove_edge(i, j).unwrap();
        prop_assert!(engine.scores().max_abs_diff(&s0) < 1e-9);
    }

    /// Graph mutations keep the adjacency structure internally consistent.
    #[test]
    fn graph_validation_after_updates((g, i, j, kind) in arb_graph_and_update()) {
        let mut g = g;
        match kind {
            UpdateKind::Insert => g.insert_edge(i, j).unwrap(),
            UpdateKind::Delete => g.remove_edge(i, j).unwrap(),
        }
        prop_assert!(g.validate().is_ok());
    }
}
