//! Conformance suite for the `incsim::serve` layer: the write path and
//! the concurrent epoch wrapper must preserve the service API's answers
//! under every [`ApplyPolicy`], across thread counts (`INCSIM_THREADS` —
//! CI runs this suite at 1 and 4), and concurrent publish/read
//! interleavings.
//!
//! Exactness (≤ 1e-12 of batch recomputation) is asserted on general
//! ER graphs; structural properties (pair symmetry, epoch coherence) are
//! asserted alongside.

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_toggles_in;
use incsim::graph::{DiGraph, UpdateOp};
use incsim::serve::{serve_threads, ConcurrentSimRank};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [ApplyPolicy; 4] = [
    ApplyPolicy::Eager,
    ApplyPolicy::Fused,
    ApplyPolicy::Lazy,
    ApplyPolicy::Auto,
];

/// K = 60: truncation ~0.6^61 ≈ 4e-14, far below the 1e-12 bar.
fn tight() -> SimRankConfig {
    SimRankConfig::new(0.6, 60).expect("valid config")
}

/// A general ER graph on `n` nodes with `2n` edges.
fn er_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    erdos_renyi(n, n * 2, &mut rng)
}

/// A valid stream of `len` edge toggles anywhere in `g`.
fn toggle_stream(g: &DiGraph, len: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_toggles_in(&mut g.clone(), 0..g.node_count() as u32, len, &mut rng)
}

/// Alternate unit updates and batches, as the api conformance suite does.
fn schedule(len: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut idx = 0usize;
    while idx < len {
        let take = if idx % 3 == 2 { 3.min(len - idx) } else { 1 };
        out.push(idx..idx + take);
        idx += take;
    }
    out
}

#[test]
fn serving_handle_is_exact_on_general_graphs() {
    let g = er_graph(18, 0xA11);
    let cfg = tight();
    let ops = toggle_stream(&g, 9, 0xB22);
    let n = g.node_count() as u32;

    // Per-service-call ground truth from scratch.
    let mut shadow = g.clone();
    let mut refs = Vec::new();
    for range in schedule(ops.len()) {
        for op in &ops[range] {
            op.apply(&mut shadow).expect("stream valid");
        }
        refs.push(batch_simrank(&shadow, &cfg));
    }

    for policy in POLICIES {
        let mut handle = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(policy)
            .config(cfg)
            .build_sharded(g.clone())
            .expect("handle builds");
        for (step, range) in schedule(ops.len()).into_iter().enumerate() {
            let chunk = &ops[range];
            if chunk.len() == 1 {
                handle.update(chunk[0]).expect("stream valid");
            } else {
                handle.update_batch(chunk).expect("stream valid");
            }
            let expect = &refs[step];
            for a in 0..n {
                for b in 0..n {
                    let got = handle.pair(a, b);
                    let want = expect.get(a as usize, b as usize);
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{policy:?}: step {step} pair ({a},{b}): {got} vs {want} \
                         (diff {:.2e})",
                        (got - want).abs()
                    );
                }
            }
        }
        assert_eq!(handle.graph(), &shadow, "{policy:?}: graph drift");
    }
}

#[test]
fn concurrent_epochs_are_exact_through_publish() {
    let g = er_graph(12, 0xC33);
    let cfg = tight();
    let ops = toggle_stream(&g, 6, 0xD44);
    let n = g.node_count() as u32;

    let mut serving = SimRankBuilder::new()
        .mode(ApplyPolicy::Lazy) // epochs must compose pending Δ too
        .config(cfg)
        .concurrent(g.clone())
        .expect("serving handle builds");
    let reader = serving.reader();
    let mut shadow = g;
    for &op in &ops {
        op.apply(&mut shadow).expect("stream valid");
        serving.update(op).expect("stream valid");
        serving.publish();
        let truth = batch_simrank(&shadow, &cfg);
        let epoch = reader.epoch();
        for a in 0..n {
            for b in 0..n {
                let got = epoch.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() <= 1e-12,
                    "epoch {} pair ({a},{b}): {got} vs {want}",
                    epoch.seq()
                );
            }
        }
    }
}

/// An epoch published mid-window from a **recompressed** lazy buffer:
/// the compressed factors travel into the snapshot as ordinary pairs and
/// every reader answer must stay at the exactness bar — no materialise,
/// no flush, through several update→compress→publish rounds.
#[test]
fn epoch_from_compressed_window_matches_truth() {
    let g = er_graph(12, 0xC99);
    let cfg = tight();
    let ops = toggle_stream(&g, 8, 0xDAA);
    let n = g.node_count() as u32;

    let mut serving = SimRankBuilder::new()
        .mode(ApplyPolicy::Lazy)
        // A threshold below one update's K+1 terms: later updates
        // recompress the window before applying.
        .compress_at_rank(8)
        .config(cfg)
        .concurrent(g.clone())
        .expect("serving handle builds");
    let reader = serving.reader();
    let mut shadow = g;
    for &op in &ops {
        op.apply(&mut shadow).expect("stream valid");
        serving.update(op).expect("stream valid");
        serving.publish();
        let truth = batch_simrank(&shadow, &cfg);
        let epoch = reader.epoch();
        for a in 0..n {
            for b in 0..n {
                let got = epoch.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() <= 1e-12,
                    "compressed epoch {} pair ({a},{b}): {got} vs {want} (diff {:.2e})",
                    epoch.seq(),
                    (got - want).abs()
                );
            }
        }
    }
    let total = serving.sharded().counters();
    assert!(
        total.recompressions >= 2,
        "the stream must actually recompress (got {})",
        total.recompressions
    );
    assert_eq!(total.rank_cap_flushes, 0, "no window was materialised");
    assert!(
        serving.sharded().pending_rank() > 0,
        "the lazy window is still open after the last publish"
    );
    assert!(serving.sharded().pending_heap_bytes() > 0);
}

#[test]
fn cross_shard_pair_queries_are_symmetric_on_general_graphs() {
    // One well-connected ER graph under a toggle batch: symmetry must
    // hold bit-for-bit because both argument orders read the same
    // canonical `(min, max)` entry, live and through an epoch.
    let mut rng = StdRng::seed_from_u64(0xE55);
    let g = erdos_renyi(20, 60, &mut rng);
    let mut serving = SimRankBuilder::new()
        .config(SimRankConfig::new(0.6, 20).expect("valid"))
        .concurrent(g)
        .expect("handle builds");
    let ops = random_toggles_in(&mut serving.sharded().graph().clone(), 0..20, 8, &mut rng);
    serving.update_batch(&ops).expect("stream valid");
    serving.publish();
    let epoch = serving.reader().epoch();
    for a in 0..20u32 {
        for b in 0..20u32 {
            let ab = serving.sharded().pair(a, b);
            let ba = serving.sharded().pair(b, a);
            assert!(
                ab == ba,
                "pair symmetry broke: s({a},{b})={ab} vs s({b},{a})={ba}"
            );
            assert!(epoch.pair(a, b) == ab, "epoch read of ({a},{b}) drifted");
            assert!(epoch.pair(b, a) == ab, "epoch read of ({b},{a}) drifted");
        }
    }
}

/// The torn-view test: a writer races through update+publish cycles while
/// reader threads continuously pin epochs and probe several pairs. Every
/// probed value must match the *recorded trajectory* for that epoch's
/// sequence number — a reader observing a mix of two epochs would miss.
#[test]
fn readers_never_observe_a_torn_epoch() {
    const STEPS: usize = 12;
    let g = er_graph(10, 0xF66);
    let cfg = SimRankConfig::new(0.6, 20).expect("valid");
    let ops = toggle_stream(&g, STEPS, 0xA77);
    let n = g.node_count() as u32;
    let probes: Vec<(u32, u32)> = (0..n).flat_map(|a| [(a, (a + 1) % n), (a, 0)]).collect();

    let build = || {
        SimRankBuilder::new()
            .mode(ApplyPolicy::Fused)
            .config(cfg)
            .concurrent(g.clone())
            .expect("serving handle builds")
    };

    // Record the deterministic trajectory: probe values after each
    // publish of an identical replay (engines are bitwise deterministic).
    let mut replay = build();
    let mut trajectory: Vec<Vec<f64>> = Vec::with_capacity(STEPS + 1);
    let record = |serving: &ConcurrentSimRank| -> Vec<f64> {
        let e = serving.reader().epoch();
        probes.iter().map(|&(a, b)| e.pair(a, b)).collect()
    };
    trajectory.push(record(&replay));
    for &op in &ops {
        replay.update(op).expect("stream valid");
        replay.publish();
        trajectory.push(record(&replay));
    }

    // Now race readers against a live writer doing the same sequence.
    let mut serving = build();
    let readers = serve_threads().clamp(2, 8);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Raised on every exit, panic unwind included, so the readers
        // always terminate and assertion failures propagate instead of
        // livelocking the scope join.
        let _stop_on_exit = incsim::serve::RaiseOnDrop(&stop);
        let stop = &stop;
        let trajectory = &trajectory;
        let probes = &probes;
        let mut handles = Vec::new();
        for _ in 0..readers {
            let reader = serving.reader();
            handles.push(scope.spawn(move || {
                let mut checked = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let epoch = reader.epoch();
                    let want = &trajectory[epoch.seq() as usize];
                    for (i, &(a, b)) in probes.iter().enumerate() {
                        let got = epoch.pair(a, b);
                        assert!(
                            got == want[i],
                            "torn epoch {}: probe ({a},{b}) read {got}, \
                             trajectory says {}",
                            epoch.seq(),
                            want[i]
                        );
                    }
                    checked += 1;
                }
                checked
            }));
        }
        for &op in &ops {
            serving.update(op).expect("stream valid");
            serving.publish();
            // A breath per publish so readers interleave with several
            // distinct epochs rather than only the last one.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(_stop_on_exit);
        let total: usize = handles
            .into_iter()
            .map(|h| h.join().expect("reader ok"))
            .sum();
        assert!(total > 0, "readers never ran");
    });
    assert_eq!(serving.epoch_seq(), STEPS as u64);
}

#[test]
fn counters_aggregate_through_the_serving_stack() {
    let g = er_graph(10, 0xB88);
    let mut serving = SimRankBuilder::new()
        .mode(ApplyPolicy::Fused)
        .config(SimRankConfig::new(0.6, 10).expect("valid"))
        .concurrent(g.clone())
        .expect("serving handle builds");
    for op in toggle_stream(&g, 2, 0xB89) {
        serving.update(op).expect("valid");
    }
    serving.sharded().pair(0, 1);
    serving.sharded().pair(6, 7);
    let engine = serving.sharded().engine().counters();
    let total = serving.counters();
    assert_eq!(total.fused_updates, engine.fused_updates);
    assert_eq!(total.fused_updates, 2, "one fused apply per update");
    assert_eq!(total.queries, 2);
    assert_eq!(total.epochs_retained, 0, "retention is off by default");
}
