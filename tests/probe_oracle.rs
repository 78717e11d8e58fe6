//! Exact oracle for the matrix-free engine's ranked reads.
//!
//! `ProbeSim` answers single-source, top-k and threshold reads from
//! column `a` of the K-truncated series `(1−C)·Σ_{t≤K} C^t·Q^t·(Qᵀ)^t`,
//! keeping only every `⌈√(K+1)⌉`-th reverse-walk vector and recomputing
//! the rest. No dense `batch_simrank` fits at n = 50,000, so there the
//! reads must equal, bit for bit, a textbook series that stores all
//! `K+1` vectors: live, and through epochs published before and after a
//! toggle batch. At small n the reads must also equal `batch_simrank`
//! within 1e-12, at K = 1 and K = 15, including a node without in-links.

use incsim::api::{EngineKind, SimRankBuilder};
use incsim::core::{batch_simrank, RankedNode, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_toggles_in;
use incsim::graph::DiGraph;
use incsim::serve::{Epoch, ShardedSimRank};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOP: usize = 10;

/// Column `a` of the series by the book: all `K+1` vectors
/// `u_t = (Qᵀ)^t·e_a` stored, then one Horner pass `x ← u_t + C·Q·x`
/// from `x = u_K`, scaled by `1−C`.
fn textbook_column(g: &DiGraph, a: u32, cfg: &SimRankConfig) -> Vec<f64> {
    let (c, n) = (cfg.c, g.node_count());
    let mut us = vec![vec![0.0; n]];
    us[0][a as usize] = 1.0;
    for t in 0..cfg.iterations {
        let mut next = vec![0.0; n];
        for (i, &ui) in us[t].iter().enumerate() {
            if ui != 0.0 {
                let ins = g.in_neighbors(i as u32);
                let w = ui / ins.len() as f64;
                for &v in ins {
                    next[v as usize] += w;
                }
            }
        }
        us.push(next);
    }
    let mut x = us.pop().expect("K + 1 vectors");
    while let Some(mut u) = us.pop() {
        for (i, ui) in u.iter_mut().enumerate() {
            let ins = g.in_neighbors(i as u32);
            if !ins.is_empty() {
                let s: f64 = ins.iter().map(|&v| x[v as usize]).sum();
                *ui += c * s / ins.len() as f64;
            }
        }
        x = u;
    }
    x.iter_mut().for_each(|v| *v *= 1.0 - c);
    x
}

/// The three ranked reads of a column: its nonzero entries other than
/// `a` in id order, the best `TOP` of them (score descending, ties by
/// id), and those at least `threshold`.
fn ranked_reads(col: &[f64], a: u32, threshold: f64) -> [Vec<RankedNode>; 3] {
    let all: Vec<RankedNode> = col
        .iter()
        .zip(0u32..)
        .filter(|&(&score, node)| node != a && score != 0.0)
        .map(|(&score, node)| RankedNode { node, score })
        .collect();
    let mut top = all.clone();
    top.sort_by(|x, y| y.score.total_cmp(&x.score).then(x.node.cmp(&y.node)));
    top.truncate(TOP);
    let above = all
        .iter()
        .filter(|r| r.score >= threshold)
        .copied()
        .collect();
    [all, top, above]
}

/// Same nodes, same order, same `f64` bits.
fn assert_bits_eq(got: &[RankedNode], want: &[RankedNode], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.node, w.node, "{what}: node order");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{what}: node {} scores {} vs {}",
            g.node,
            g.score,
            w.score
        );
    }
}

fn live_reads(h: &ShardedSimRank, a: u32, threshold: f64) -> [Vec<RankedNode>; 3] {
    [
        h.single_source(a),
        h.top_k(a, TOP),
        h.similar_above(a, threshold),
    ]
}

fn epoch_reads(e: &Epoch, a: u32, threshold: f64) -> [Vec<RankedNode>; 3] {
    [
        e.single_source(a),
        e.top_k(a, TOP),
        e.similar_above(a, threshold),
    ]
}

fn assert_reads(got: &[Vec<RankedNode>; 3], want: &[Vec<RankedNode>; 3], what: &str) {
    for (kind, (g, w)) in ["single_source", "top_k", "similar_above"]
        .iter()
        .zip(got.iter().zip(want))
    {
        assert_bits_eq(g, w, &format!("{what} {kind}"));
    }
}

/// `probe-scale`'s graph shape: ER with n = 50,000 and m = 6n at the
/// serving K = 15.
#[test]
fn ranked_reads_match_the_textbook_series_at_large_n() {
    let n = 50_000;
    let cfg = SimRankConfig::new(0.6, 15).expect("valid config");
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let g = erdos_renyi(n, 6 * n, &mut rng);
    let mut srv = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .config(cfg)
        .concurrent(g.clone())
        .expect("probe builds from the graph alone");
    let reader = srv.reader();
    let a = 4_321;
    // A threshold that cuts the column: the mean score is about 1/n.
    let threshold = 1e-4;

    let want = ranked_reads(&textbook_column(&g, a, &cfg), a, threshold);
    assert!(!want[1].is_empty() && want[2].len() < want[0].len());
    assert_reads(&live_reads(srv.sharded(), a, threshold), &want, "live");
    let before = reader.epoch();

    let mut shadow = g;
    let ops = random_toggles_in(&mut shadow, 0..n as u32, 64, &mut rng);
    srv.update_batch(&ops)
        .expect("toggles valid by construction");
    srv.publish();
    let want_after = ranked_reads(&textbook_column(&shadow, a, &cfg), a, threshold);
    assert_reads(
        &epoch_reads(&reader.epoch(), a, threshold),
        &want_after,
        "epoch after toggles",
    );
    // The epoch pinned before the batch still answers the old graph.
    assert_reads(
        &epoch_reads(&before, a, threshold),
        &want,
        "epoch before toggles",
    );
}

#[test]
fn ranked_reads_equal_batch_at_small_n() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut g = erdos_renyi(40, 160, &mut rng);
    // Node 40 points into the graph but has no in-links.
    let source = g.add_node();
    for b in [0, 7, 19] {
        g.insert_edge(source, b).expect("fresh edge");
    }
    let n = g.node_count() as u32;
    let threshold = 0.01;
    for k in [1, 15] {
        let cfg = SimRankConfig::new(0.6, k).expect("valid config");
        let truth = batch_simrank(&g, &cfg);
        let srv = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(cfg)
            .concurrent(g.clone())
            .expect("probe builds from the graph alone");
        let epoch = srv.reader().epoch();
        for a in 0..n {
            let want = ranked_reads(&textbook_column(&g, a, &cfg), a, threshold);
            let live = live_reads(srv.sharded(), a, threshold);
            assert_reads(&live, &want, &format!("K = {k}, node {a}, live"));
            assert_reads(
                &epoch_reads(&epoch, a, threshold),
                &want,
                &format!("K = {k}, node {a}, epoch"),
            );
            for r in live.iter().flatten() {
                let b = truth.get(a as usize, r.node as usize);
                assert!(
                    (r.score - b).abs() <= 1e-12,
                    "K = {k}, node {a} target {}: {} vs batch {b}",
                    r.node,
                    r.score
                );
            }
            // Every node batch scores above zero is listed.
            let nonzero = (0..n)
                .filter(|&b| b != a && truth.get(a as usize, b as usize) > 0.0)
                .count();
            assert_eq!(live[0].len(), nonzero, "K = {k}, node {a}");
        }
        assert!(
            live_reads(srv.sharded(), source, 0.0)
                .iter()
                .all(Vec::is_empty),
            "K = {k}: a node without in-links is similar to nothing"
        );
    }
}
