//! Concurrent serving: one writer maintains an exact SimRank index while
//! reader threads answer queries from immutable epoch snapshots — no
//! reader ever blocks on an update, and no reader ever sees a torn
//! state.
//!
//! The scenario: a social graph of two regions. A background ingest
//! applies follow/unfollow events — within a region or across the two —
//! and publishes a fresh epoch after each batch; serving threads
//! continuously answer "who is most similar to X?" against whatever
//! epoch they hold.
//!
//! ```bash
//! cargo run --release --example concurrent_serving
//! ```

use incsim::api::{ApplyPolicy, SimRankBuilder};
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::er::erdos_renyi_blocks;
use incsim::datagen::updates::random_toggles_in;
use incsim::serve::serve_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const REGIONS: usize = 2;
const PER_REGION: usize = 48;

fn main() {
    let n = REGIONS * PER_REGION;
    let mut rng = StdRng::seed_from_u64(7);

    // Two regional graphs on contiguous id blocks, not yet linked.
    let g = erdos_renyi_blocks(REGIONS, PER_REGION, PER_REGION * 4, &mut rng);

    let cfg = SimRankConfig::new(0.6, 40).expect("valid config");
    let mut serving = SimRankBuilder::new()
        .mode(ApplyPolicy::Auto)
        .config(cfg)
        .concurrent(g.clone())
        .expect("serving handle builds");
    println!(
        "serving {n} users in {REGIONS} regions ({} worker threads available)",
        serve_threads()
    );

    // A stream of follow/unfollow events anywhere in the graph: about
    // half of them cross the regions.
    let mut shadow = g;
    let events = random_toggles_in(&mut shadow, 0..n as u32, 60, &mut rng);

    // Serve and ingest concurrently.
    let readers = serve_threads().clamp(2, 4);
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let min_epoch_seen = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        // Raised on every exit, panic unwind included, so the readers
        // always terminate and the scope join cannot livelock.
        let _stop_on_exit = incsim::serve::RaiseOnDrop(&stop);
        for t in 0..readers {
            let reader = serving.reader();
            let (stop, queries, min_epoch_seen) = (&stop, &queries, &min_epoch_seen);
            scope.spawn(move || {
                let mut local = 0u64;
                let mut probe = t as u32;
                while !stop.load(Ordering::Relaxed) {
                    // Pin one coherent epoch per request batch.
                    let epoch = reader.epoch();
                    min_epoch_seen.fetch_min(epoch.seq(), Ordering::Relaxed);
                    for _ in 0..16 {
                        probe = (probe * 31 + 17) % (PER_REGION * REGIONS) as u32;
                        let top = epoch.top_k(probe, 3);
                        assert!(top.len() <= 3);
                        // Within one epoch, answers are self-consistent
                        // (pair reads are canonicalised to the upper
                        // triangle, rankings read rows — the engine
                        // matrix is symmetric to rounding, so the two
                        // agree to the last few ulps).
                        if let Some(best) = top.first() {
                            let p = epoch.pair(probe, best.node);
                            assert!((p - best.score).abs() < 1e-12);
                        }
                        local += 4; // 1 top-k + 3 pair checks
                    }
                }
                queries.fetch_add(local, Ordering::Relaxed);
            });
        }

        // The writer: ingest in small batches, publish after each.
        for batch in events.chunks(6) {
            serving.update_batch(batch).expect("stream valid");
            serving.publish();
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
    });

    let total_queries = queries.load(Ordering::Relaxed);
    println!(
        "ingested {} events in {} epochs; {readers} readers answered {total_queries} queries \
         (first epoch seen: {})",
        events.len(),
        serving.epoch_seq(),
        min_epoch_seen.load(Ordering::Relaxed),
    );
    assert!(total_queries > 0, "readers made progress");
    assert_eq!(serving.epoch_seq(), 10, "one epoch per ingest batch");

    // Final self-check: the published state is exact — every pair agrees
    // with a from-scratch batch recomputation of the final graph.
    serving.flush();
    let reader = serving.reader();
    let epoch = reader.epoch();
    let truth = batch_simrank(&shadow, &cfg);
    let mut max_diff = 0.0f64;
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            max_diff = max_diff.max((epoch.pair(a, b) - truth.get(a as usize, b as usize)).abs());
        }
    }
    println!("exactness through the serving path: max |Δ| = {max_diff:.2e} vs batch recompute");
    assert!(
        max_diff < 1e-8,
        "serving drifted from batch truth: {max_diff:.2e}"
    );
    println!("[ok] concurrent serving exact and coherent");
}
