//! Run-to-run determinism regression suite.
//!
//! The repo's invariant (enforced statically by `incsim-lint`'s
//! `nondeterministic-iteration` rule, and dynamically here): two runs
//! with identical seeds and identical op/query sequences must agree
//! **bit for bit** — every probe score down to the last mantissa bit,
//! and every byte of the write-ahead log. Hash-map iteration order is
//! the classic way this breaks silently: float accumulation does not
//! commute in the last bits, so an unsorted drain turns an arbitrary
//! (but per-run-stable) bucket order into cross-run drift. These tests
//! are the tripwire that fails if someone reintroduces a raw drain.

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::{
    GraphSink, PairQuery, ProbeOptions, ProbeSim, RankedNode, SimRankConfig, SimRankMaintainer,
    SingleSourceQuery, TopKQuery,
};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_mixed;
use incsim::graph::DiGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "incsim_determinism_{}_{name}.wal",
        std::process::id()
    ));
    p
}

fn fixture_graph() -> DiGraph {
    let mut rng = StdRng::seed_from_u64(0x00D3_7E12);
    erdos_renyi(48, 200, &mut rng)
}

fn probe_engine() -> ProbeSim {
    ProbeSim::with_options(
        fixture_graph(),
        SimRankConfig::new(0.6, 8).unwrap(),
        ProbeOptions {
            seed: 41,
            ..ProbeOptions::default()
        },
    )
}

/// Exact (bitwise) comparison of two ranked lists: same nodes, same
/// order, same `f64` bits.
fn assert_bits_eq(a: &[RankedNode], b: &[RankedNode], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.node, y.node, "{what}: node order differs");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score bits differ at node {} ({} vs {})",
            x.node,
            x.score,
            y.score
        );
    }
}

/// One run of the full query script against a fresh identically-seeded
/// engine: mutations, live queries, then frozen-snapshot queries.
#[allow(clippy::type_complexity)]
fn probe_run() -> (Vec<RankedNode>, Vec<RankedNode>, Vec<u64>, Vec<RankedNode>) {
    let mut engine = probe_engine();
    // Mutate through a fresh node: edges to/from it cannot pre-exist in
    // the random fixture, so the script is valid for any seed.
    let fresh = engine.add_node();
    engine.insert_edge(0, fresh).unwrap();
    engine.insert_edge(fresh, 11).unwrap();
    engine.remove_edge_if_present(1, 2);
    let live_ss = engine.single_source(5);
    let live_topk = engine.top_k(9, 10);
    let pairs: Vec<u64> = (0..8).map(|b| engine.pair_score(17, b).to_bits()).collect();
    let snap = engine.snapshot_query();
    let snap_ss = snap.single_source(5);
    (live_ss, live_topk, pairs, snap_ss)
}

trait RemoveIfPresent {
    fn remove_edge_if_present(&mut self, i: u32, j: u32);
}

impl RemoveIfPresent for ProbeSim {
    fn remove_edge_if_present(&mut self, i: u32, j: u32) {
        let _ = self.remove_edge(i, j);
    }
}

#[test]
fn probe_answers_are_bit_identical_across_runs() {
    let (ss1, topk1, pairs1, snap1) = probe_run();
    let (ss2, topk2, pairs2, snap2) = probe_run();
    assert!(!ss1.is_empty(), "fixture produced an empty answer");
    assert_bits_eq(&ss1, &ss2, "live single_source");
    assert_bits_eq(&topk1, &topk2, "live top_k");
    assert_eq!(pairs1, pairs2, "pair_score bits differ between runs");
    assert_bits_eq(&snap1, &snap2, "frozen ProbeSnapshot single_source");
}

#[test]
fn probe_snapshot_agrees_with_itself_under_concurrent_reads() {
    // The snapshot is Send + Sync; hammering it from several threads
    // must not perturb its answers.
    let engine = probe_engine();
    let snap = engine.snapshot_query();
    let baseline = snap.single_source(5);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..5 {
                    assert_bits_eq(
                        &baseline,
                        &snap.single_source(5),
                        "concurrent snapshot read",
                    );
                }
            });
        }
    });
}

/// One durable run over a fixed op stream; returns the final WAL image.
fn wal_run(tag: &str) -> Vec<u8> {
    let graph = fixture_graph();
    let mut rng = StdRng::seed_from_u64(0x00D3_7E34);
    let ops = random_mixed(&graph, 24, 0.7, &mut rng);
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    {
        let mut router = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Eager)
            .config(SimRankConfig::new(0.6, 8).unwrap())
            .wal(&path)
            .checkpoint_every(7)
            .build_sharded(graph)
            .unwrap();
        for &op in &ops {
            router.update(op).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn wal_bytes_are_identical_across_runs() {
    let a = wal_run("run_a");
    let b = wal_run("run_b");
    assert!(!a.is_empty(), "fixture produced an empty WAL");
    assert_eq!(
        a, b,
        "two identically-seeded durable runs wrote different WAL bytes"
    );
}
