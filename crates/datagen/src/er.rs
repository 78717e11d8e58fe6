//! Directed Erdős–Rényi graphs `G(n, m)`.

use incsim_graph::DiGraph;
use rand::Rng;

/// Samples a graph of `blocks` **disjoint** ER components, component `b`
/// on the contiguous id block `[b·per, (b+1)·per)` with `edges_per_block`
/// edges: a graph of several disconnected communities, the workload of
/// the `concurrent_throughput` bench case and the two-region serving
/// example.
pub fn erdos_renyi_blocks<R: Rng>(
    blocks: usize,
    per: usize,
    edges_per_block: usize,
    rng: &mut R,
) -> DiGraph {
    let mut g = DiGraph::new(blocks * per);
    for b in 0..blocks {
        let base = (b * per) as u32;
        for (u, v) in erdos_renyi(per, edges_per_block, rng).edges() {
            g.insert_edge(base + u, base + v)
                .expect("component edges land in distinct blocks");
        }
    }
    g
}

/// Samples a directed graph with exactly `m` distinct edges chosen
/// uniformly among all `n·(n−1)` non-loop ordered pairs.
///
/// # Panics
/// Panics if `m > n·(n−1)`.
pub fn erdos_renyi<R: Rng>(n: usize, m: usize, rng: &mut R) -> DiGraph {
    let max_edges = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= max_edges,
        "erdos_renyi: m={m} exceeds the {max_edges} possible edges"
    );
    let mut g = DiGraph::new(n);
    // Rejection sampling is fine while m ≪ n²; fall back to dense
    // enumeration when the request is a large fraction of all pairs.
    if m * 3 < max_edges {
        while g.edge_count() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = g.insert_edge(u, v);
            }
        }
    } else {
        let mut pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (0..n as u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        // Partial Fisher–Yates for the first m pairs.
        for k in 0..m {
            let pick = rng.gen_range(k..pairs.len());
            pairs.swap(k, pick);
            let (u, v) = pairs[k];
            g.insert_edge(u, v).expect("pairs are distinct");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(50, 200, &mut rng);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 200);
        g.validate().unwrap();
    }

    #[test]
    fn dense_request_uses_enumeration_path() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi(10, 80, &mut rng); // 80 of 90 possible
        assert_eq!(g.edge_count(), 80);
        g.validate().unwrap();
    }

    #[test]
    fn no_self_loops() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi(20, 100, &mut rng);
        for v in 0..20 {
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g1 = erdos_renyi(30, 90, &mut StdRng::seed_from_u64(7));
        let g2 = erdos_renyi(30, 90, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn block_graph_components_stay_disjoint() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_blocks(3, 8, 16, &mut rng);
        assert_eq!(g.node_count(), 24);
        assert_eq!(g.edge_count(), 48);
        for (u, v) in g.edges() {
            assert_eq!(u / 8, v / 8, "edge ({u},{v}) crosses blocks");
        }
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_impossible_edge_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = erdos_renyi(3, 7, &mut rng);
    }
}
