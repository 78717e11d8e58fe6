//! Engine showdown: exactness and cost of every incremental SimRank engine
//! on the same update stream — a miniature of the paper's whole evaluation.
//!
//! Runs Inc-SR (pruned, exact) and the matrix-free Probe sampler through
//! the `SimRank` service handle, and the paper's comparison points —
//! Inc-uSR (unpruned, exact), Inc-SVD (Li et al., approximate) and the
//! Batch recompute comparator — as bare engines, all against
//! from-scratch batch truth, printing per-engine error, NDCG₁₀, time, and
//! intermediate memory. (Probe holds no score matrix, so its row reports
//! sampled spot-check deviation instead of a full-matrix error.)
//!
//! ```bash
//! cargo run --release --example engine_showdown
//! ```

use incsim::api::{EngineKind, SimRankBuilder};
use incsim::baselines::{IncSvd, IncSvdOptions};
use incsim::core::{
    batch_simrank, ApplyMode, GraphSink, IncUSr, MatrixAccess, SimRankConfig, UpdateStats,
};
use incsim::datagen::presets::mini;
use incsim::datagen::updates::random_insertions;
use incsim::linalg::DenseMatrix;
use incsim::metrics::timing::{fmt_bytes, fmt_duration, Stopwatch};
use incsim::metrics::{max_error, ndcg_at_k};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Largest per-update intermediate footprint of a run.
fn peak(stats: &[UpdateStats]) -> usize {
    stats
        .iter()
        .map(|s| s.peak_intermediate_bytes)
        .max()
        .unwrap_or(0)
}

/// One row of the dense comparison.
fn report(label: &str, elapsed: Duration, scores: &DenseMatrix, truth: &DenseMatrix, peak: usize) {
    println!(
        "{label:<12}  time {:>8}  max-err {:.2e}  NDCG10 {:.3}  intermediate {:>8}",
        fmt_duration(elapsed),
        max_error(scores, truth),
        ndcg_at_k(truth, scores, 10),
        fmt_bytes(peak),
    );
}

/// Drives a bare dense engine through the stream and reports its row.
fn run_engine<E: GraphSink + MatrixAccess>(
    label: &str,
    mut engine: E,
    stream: &[incsim::graph::UpdateOp],
    truth: &DenseMatrix,
) -> DenseMatrix {
    let sw = Stopwatch::start();
    let stats = engine.apply_batch(stream).expect("valid stream");
    let elapsed = sw.elapsed();
    let scores = engine.scores().clone();
    report(label, elapsed, &scores, truth, peak(&stats));
    scores
}

fn main() {
    let mut dataset = mini("showdown", 300, 0x540);
    let base = dataset.base_graph();
    let cfg = SimRankConfig::new(0.6, 15).expect("valid parameters");
    println!(
        "graph: n = {}, |E| = {}; stream: 40 random insertions; C = 0.6, K = 15\n",
        base.node_count(),
        base.edge_count()
    );

    let mut rng = StdRng::seed_from_u64(1);
    let stream = random_insertions(&base, 40, &mut rng);

    // Ground truth after the stream.
    let mut g_new = base.clone();
    for op in &stream {
        op.apply(&mut g_new).expect("valid stream");
    }
    let truth = batch_simrank(&g_new, &SimRankConfig::new(0.6, 35).expect("valid"));

    // One batch precompute, shared by every dense engine below.
    let s_base = batch_simrank(&base, &cfg);

    // Inc-SR, the served engine, through the service handle.
    let mut sim = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .config(cfg)
        .with_scores(base.clone(), s_base.clone())
        .expect("engine constructs");
    let sw = Stopwatch::start();
    let stats = sim.update_batch(&stream).expect("valid stream");
    let elapsed = sw.elapsed();
    let incsr = sim.scores().expect("dense engine").clone();
    report(sim.engine_name(), elapsed, &incsr, &truth, peak(&stats));

    // The paper's comparison points, built directly. Inc-uSR folds the
    // batch in one fused sweep, as the handle's default policy does for
    // Inc-SR above.
    let incusr = run_engine(
        "Inc-uSR",
        IncUSr::new(base.clone(), s_base.clone(), cfg).with_mode(ApplyMode::Fused),
        &stream,
        &truth,
    );
    for rank in [5usize, 15] {
        let opts = IncSvdOptions {
            rank,
            ..Default::default()
        };
        match IncSvd::new(base.clone(), cfg, opts) {
            Ok(engine) => {
                run_engine(&format!("Inc-SVD r={rank}"), engine, &stream, &truth);
            }
            Err(e) => println!("Inc-SVD r={rank} unavailable: {e}"),
        }
    }
    // Batch: recompute from scratch after every update. Its fused kernel
    // swaps two n² buffers, the output and the previous iterate.
    let n = base.node_count();
    let mut g = base.clone();
    let mut scores = s_base;
    let sw = Stopwatch::start();
    for op in &stream {
        op.apply(&mut g).expect("valid stream");
        scores = batch_simrank(&g, &cfg);
    }
    let elapsed = sw.elapsed();
    report("Batch", elapsed, &scores, &truth, n * n * 8);

    // Probe, the matrix-free served engine: no matrix to diff, so
    // spot-check sampled pairs against truth.
    let mut probe = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .config(cfg)
        .from_graph(base.clone())
        .expect("engine constructs");
    let sw = Stopwatch::start();
    probe.update_batch(&stream).expect("valid stream");
    let elapsed = sw.elapsed();
    let n = n as u32;
    let mut spot_dev = 0.0f64;
    for t in 0..8u32 {
        let (a, b) = ((t * 37) % n, (t * 59 + 11) % n);
        spot_dev = spot_dev.max((probe.pair(a, b) - truth.get(a as usize, b as usize)).abs());
    }
    println!(
        "{:<12}  time {:>8}  spot-dev {:.2e} (8 sampled pairs)  walks {}  heap {:>8}",
        probe.engine_name(),
        fmt_duration(elapsed),
        spot_dev,
        probe.counters().walks_sampled,
        fmt_bytes(probe.graph().heap_bytes()),
    );

    // Lossless pruning: the Inc-SR and Inc-uSR runs above agree to
    // machine precision.
    let diff = incsr.max_abs_diff(&incusr);
    println!("\nInc-SR and Inc-uSR agree to machine precision (lossless pruning): {diff:.2e}");
    assert!(diff < 1e-10, "pruning changed the scores by {diff:.2e}");
}
