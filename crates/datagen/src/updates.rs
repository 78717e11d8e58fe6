//! Random link-update streams `ΔG`.
//!
//! The paper's synthetic experiments (Fig. 2c) sweep edge insertions and
//! deletions of controlled size `|ΔG|`; these generators produce such
//! streams, guaranteed valid when applied in order to the given base graph.

use incsim_graph::{DiGraph, UpdateOp};
use rand::Rng;

/// Samples `count` edge insertions valid against `g` (applied in order).
///
/// Endpoints are chosen uniformly; existing and duplicate edges are
/// rejected. Self-loops are excluded (real evolving graphs rarely add
/// them, and the paper's updates are plain links).
pub fn random_insertions<R: Rng>(g: &DiGraph, count: usize, rng: &mut R) -> Vec<UpdateOp> {
    let n = g.node_count() as u32;
    assert!(n >= 2, "need at least two nodes to insert edges");
    let mut shadow = g.clone();
    let mut ops = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = count.saturating_mul(100).max(1000);
    while ops.len() < count && attempts < budget {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if shadow.insert_edge(u, v).is_ok() {
            ops.push(UpdateOp::Insert(u, v));
        }
    }
    assert_eq!(
        ops.len(),
        count,
        "could not find {count} free edge slots (graph too dense?)"
    );
    ops
}

/// Samples `count` valid edge **toggles** against an evolving shadow
/// graph, restricted to node ids in `nodes` (pass `0..n` for the whole
/// graph): each op flips the presence of a random non-loop pair and is
/// recorded in `shadow`, so the stream applies cleanly in order — and so
/// repeated calls with the same shadow keep extending one valid stream
/// (the serving benchmarks generate load this way). The insert/delete
/// mix follows the current edge density, the steady-state churn of a
/// link-evolving graph.
///
/// # Panics
/// Panics if `nodes` spans fewer than two ids or exceeds the graph.
pub fn random_toggles_in<R: Rng>(
    shadow: &mut DiGraph,
    nodes: std::ops::Range<u32>,
    count: usize,
    rng: &mut R,
) -> Vec<UpdateOp> {
    assert!(
        nodes.end - nodes.start >= 2,
        "need at least two nodes to toggle edges"
    );
    assert!(
        nodes.end as usize <= shadow.node_count(),
        "toggle block {nodes:?} exceeds the graph"
    );
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let u = rng.gen_range(nodes.clone());
        let v = rng.gen_range(nodes.clone());
        if u == v {
            continue;
        }
        if shadow.has_edge(u, v) {
            shadow.remove_edge(u, v).expect("tracked as present");
            ops.push(UpdateOp::Delete(u, v));
        } else {
            shadow.insert_edge(u, v).expect("tracked as absent");
            ops.push(UpdateOp::Insert(u, v));
        }
    }
    ops
}

/// [`random_toggles_in`] spread **round-robin** across several blocks:
/// op `i` toggles inside `blocks[i % blocks.len()]`, so every block
/// receives the same op count (±1): a balanced ingest stream over the
/// communities of an [`erdos_renyi_blocks`](crate::er::erdos_renyi_blocks)
/// graph, as the `concurrent_throughput` bench case drives it.
///
/// # Panics
/// Panics if `blocks` is empty or any block is invalid for
/// [`random_toggles_in`].
pub fn random_toggles_blocks<R: Rng>(
    shadow: &mut DiGraph,
    blocks: &[std::ops::Range<u32>],
    count: usize,
    rng: &mut R,
) -> Vec<UpdateOp> {
    assert!(!blocks.is_empty(), "need at least one toggle block");
    let mut ops = Vec::with_capacity(count);
    for i in 0..count {
        ops.extend(random_toggles_in(
            shadow,
            blocks[i % blocks.len()].clone(),
            1,
            rng,
        ));
    }
    ops
}

/// Samples `count` deletions of distinct existing edges of `g`.
///
/// # Panics
/// Panics if `g` has fewer than `count` edges.
pub fn random_deletions<R: Rng>(g: &DiGraph, count: usize, rng: &mut R) -> Vec<UpdateOp> {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    assert!(
        edges.len() >= count,
        "cannot delete {count} of {} edges",
        edges.len()
    );
    // Partial Fisher–Yates.
    for k in 0..count {
        let pick = rng.gen_range(k..edges.len());
        edges.swap(k, pick);
    }
    edges[..count]
        .iter()
        .map(|&(u, v)| UpdateOp::Delete(u, v))
        .collect()
}

/// Samples a mixed stream: each op is an insertion with probability
/// `p_insert`, else a deletion — always valid against the evolving state.
pub fn random_mixed<R: Rng>(
    g: &DiGraph,
    count: usize,
    p_insert: f64,
    rng: &mut R,
) -> Vec<UpdateOp> {
    let n = g.node_count() as u32;
    let mut shadow = g.clone();
    let mut ops = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = count.saturating_mul(200).max(1000);
    while ops.len() < count && attempts < budget {
        attempts += 1;
        if rng.gen_bool(p_insert.clamp(0.0, 1.0)) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && shadow.insert_edge(u, v).is_ok() {
                ops.push(UpdateOp::Insert(u, v));
            }
        } else if shadow.edge_count() > 0 {
            // Pick a random existing edge via a random start node scan.
            let edges: Vec<(u32, u32)> = shadow.edges().collect();
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            shadow.remove_edge(u, v).expect("edge listed as existing");
            ops.push(UpdateOp::Delete(u, v));
        }
    }
    assert_eq!(ops.len(), count, "mixed stream generation starved");
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> DiGraph {
        DiGraph::from_edges(20, &(0..19u32).map(|v| (v, v + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn insertions_apply_cleanly() {
        let g = base();
        let mut rng = StdRng::seed_from_u64(5);
        let ops = random_insertions(&g, 30, &mut rng);
        assert_eq!(ops.len(), 30);
        let mut h = g.clone();
        for op in &ops {
            op.apply(&mut h).unwrap();
        }
        assert_eq!(h.edge_count(), g.edge_count() + 30);
    }

    #[test]
    fn deletions_apply_cleanly_and_are_distinct() {
        let g = base();
        let mut rng = StdRng::seed_from_u64(6);
        let ops = random_deletions(&g, 10, &mut rng);
        let mut h = g.clone();
        for op in &ops {
            op.apply(&mut h).unwrap();
        }
        assert_eq!(h.edge_count(), g.edge_count() - 10);
    }

    #[test]
    fn mixed_stream_is_valid_in_order() {
        let g = base();
        let mut rng = StdRng::seed_from_u64(7);
        let ops = random_mixed(&g, 40, 0.6, &mut rng);
        let mut h = g.clone();
        for op in &ops {
            op.apply(&mut h).unwrap();
        }
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Insert(_, _)))
            .count();
        assert!(inserts > 10 && inserts < 40, "inserts={inserts}");
    }

    #[test]
    #[should_panic(expected = "cannot delete")]
    fn deleting_more_than_edges_panics() {
        let g = base();
        let mut rng = StdRng::seed_from_u64(8);
        let _ = random_deletions(&g, 1000, &mut rng);
    }

    #[test]
    fn toggles_track_the_shadow_and_respect_blocks() {
        let g = base();
        let mut shadow = g.clone();
        let mut rng = StdRng::seed_from_u64(10);
        // Two successive calls extend one valid stream.
        let mut ops = random_toggles_in(&mut shadow, 0..10, 15, &mut rng);
        ops.extend(random_toggles_in(&mut shadow, 2..9, 10, &mut rng));
        let mut h = g.clone();
        for op in &ops {
            op.apply(&mut h).unwrap();
        }
        assert_eq!(&h, &shadow, "shadow tracks exactly the applied stream");
        for op in &ops[15..] {
            let (u, v) = op.endpoints();
            assert!(
                (2..9).contains(&u) && (2..9).contains(&v),
                "block respected"
            );
        }
        assert!(ops.iter().any(|o| matches!(o, UpdateOp::Delete(..))));
        assert!(ops.iter().any(|o| matches!(o, UpdateOp::Insert(..))));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn toggles_reject_degenerate_blocks() {
        let mut shadow = base();
        let mut rng = StdRng::seed_from_u64(11);
        let _ = random_toggles_in(&mut shadow, 3..4, 1, &mut rng);
    }

    #[test]
    fn no_self_loops_in_insertions() {
        let g = base();
        let mut rng = StdRng::seed_from_u64(9);
        for op in random_insertions(&g, 50, &mut rng) {
            let (u, v) = op.endpoints();
            assert_ne!(u, v);
        }
    }
}
