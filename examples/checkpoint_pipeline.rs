//! A production-shaped pipeline: maintain SimRank over a timestamped edge
//! timeline, rank the most similar pairs at the end of each day, and
//! checkpoint the service state across a simulated restart.
//!
//! ```bash
//! cargo run --release --example checkpoint_pipeline
//! ```

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::linkage::{linkage_model, LinkageParams};
use incsim::metrics::timing::{fmt_bytes, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // An evolving graph: 360 nodes arriving over "time".
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let params = LinkageParams {
        nodes: 360,
        edges_per_node: 5.0,
        pref_mix: 0.7,
        ..Default::default()
    };
    let mut timeline = linkage_model(&params, &mut rng);

    // Day 0: batch-compute on the first 300 arrivals.
    let base = timeline.snapshot_at(300);
    let cfg = SimRankConfig::new(0.6, 15).expect("valid parameters");
    // Lazy policy: updates buffer their ΔS factors; the daily ranking
    // below reads them through the view and never flushes the buffer.
    let mut sim = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Lazy)
        .config(cfg)
        .from_graph(base)
        .expect("engine constructs");
    // The top pairs of the current scores: a full scan of the view, which
    // composes S_base + Δ, so a rank-cap flush never changes what it reads.
    let top_pairs = |sim: &incsim::api::SimRank| {
        incsim::metrics::top_k_pairs(&sim.view().expect("dense engine").materialise(), 8)
    };
    let mut topk = top_pairs(&sim);
    println!(
        "day 0: {} edges, top pair = ({}, {}) @ {:.4}",
        sim.graph().edge_count(),
        topk[0].a,
        topk[0].b,
        topk[0].score
    );

    // Days 1..5: replay arrivals incrementally, ranking at each day's end.
    let sw = Stopwatch::start();
    for day in 1..=5u64 {
        let (t0, t1) = (290 + day * 10, 300 + day * 10);
        let ops = timeline.updates_between(t0, t1);
        for op in &ops {
            sim.update(*op).expect("timeline stream is valid");
        }
        topk = top_pairs(&sim);
        let best = topk[0];
        println!(
            "day {day}: +{} links, top pair = ({}, {}) @ {:.4}",
            ops.len(),
            best.a,
            best.b,
            best.score
        );
    }
    println!("5 days of maintenance: {:.2}s", sw.secs());
    let c = sim.counters();
    println!(
        "policy routing: {} eager / {} fused / {} lazy updates, {} rank-cap flushes, {} queries",
        c.eager_updates, c.fused_updates, c.lazy_updates, c.rank_cap_flushes, c.queries
    );
    // The incrementally-maintained ranking matches a from-scratch batch
    // recomputation on the same graph.
    let full = incsim::metrics::top_k_pairs(&batch_simrank(sim.graph(), &cfg), 8);
    assert_eq!(
        (topk[0].a, topk[0].b),
        (full[0].a, full[0].b),
        "maintained ranking diverged from batch recomputation"
    );
    assert!((topk[0].score - full[0].score).abs() < 1e-9);

    // Nightly checkpoint …
    let mut checkpoint = Vec::new();
    sim.snapshot(&mut checkpoint).expect("in-memory checkpoint");
    println!("checkpoint size: {}", fmt_bytes(checkpoint.len()));

    // … and a restart: restore, verify, continue.
    let mut restored = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Lazy)
        .from_snapshot(checkpoint.as_slice())
        .expect("restore");
    assert_eq!(restored.graph(), sim.graph());
    assert!(
        restored
            .scores()
            .expect("dense engine")
            .max_abs_diff(sim.scores().expect("dense engine"))
            == 0.0
    );
    let more = timeline.updates_between(350, 360);
    restored.update_batch(&more).expect("stream valid");
    println!(
        "restored service applied {} more links; final |E| = {}",
        more.len(),
        restored.graph().edge_count()
    );

    // The maintained ranking still matches a from-scratch scan.
    let fresh = incsim::metrics::top_k_pairs(restored.scores().expect("dense engine"), 8);
    println!(
        "post-restart top pair = ({}, {}) @ {:.4} (full-scan verified)",
        fresh[0].a, fresh[0].b, fresh[0].score
    );
}
