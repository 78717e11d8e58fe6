//! Machine-readable perf snapshots (the `bench-snapshot` binary).
//!
//! Each PR records its hot-path numbers in a `BENCH_PR<N>.json` at the
//! repo root so the perf trajectory is diffable across PRs and checkable
//! by CI. The snapshot covers the fig2a-style per-update workload under
//! every [`ApplyMode`] plus the micro-kernels behind it; the JSON is
//! written by hand (the workspace is offline — no serde).

use crate::harness::{bench_scale, measure_per_update};
use incsim::api::{ApplyPolicy, EngineKind, SimRank, SimRankBuilder};
use incsim::serve::{drive_load, ConcurrentSimRank, HistoryStatus, LoadOptions, ShardedSimRank};
use incsim::wal::{frame_kinds, FrameKind, FRAME_HEADER};
use incsim_core::{
    batch_simrank, ApplyMode, GraphSink, IncSr, IncUSr, MatrixAccess, SimRankConfig,
};
use incsim_datagen::er::{erdos_renyi, erdos_renyi_blocks};
use incsim_datagen::updates::{random_insertions, random_toggles_blocks};
use incsim_graph::{DiGraph, UpdateOp};
use incsim_linalg::{DenseMatrix, LowRankDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Per-update timings of the three apply regimes on one unit-update
/// stream (fig2a-style: a fixed random graph, edges inserted one at a
/// time — see [`snapshot_graph`]).
#[derive(Debug, Clone)]
pub struct ApplyModeSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Iterations `K`.
    pub k_iters: usize,
    /// Unit updates measured per regime.
    pub measured_updates: usize,
    /// Mean seconds per update, eager (K+1 dense sweeps each).
    pub eager_per_update_secs: f64,
    /// Mean seconds per update, fused (one sweep per `insert_edge` call).
    pub fused_per_update_secs: f64,
    /// Mean seconds per update when the whole stream is one `apply_batch`
    /// call (one fused sweep for the entire batch).
    pub fused_batch_per_update_secs: f64,
    /// Mean seconds per update, lazy (no sweep at all).
    pub lazy_per_update_secs: f64,
    /// Mean seconds per lazy single-pair query against the pending buffer.
    pub lazy_query_secs: f64,
    /// Factor pairs pending after the lazy stream (proof no apply ran).
    pub lazy_pending_pairs: usize,
    /// `eager_per_update_secs / fused_per_update_secs`.
    pub fused_speedup: f64,
    /// Peak intermediate bytes reported by the eager engine.
    pub eager_peak_bytes: usize,
    /// Peak intermediate bytes reported by the fused engine (includes the
    /// factor buffer).
    pub fused_peak_bytes: usize,
    /// Max |fused − eager| over the final score matrices (exactness).
    pub max_abs_diff_fused_vs_eager: f64,
    /// Max |flushed lazy − eager| over the final score matrices.
    pub max_abs_diff_lazy_vs_eager: f64,
}

/// The fig2a-style workload graph.
///
/// ER rather than the DAG-shaped linkage model: cycles make the score
/// matrix dense (as on the paper's real web/social datasets), so the
/// `K+1` eager sweeps are real full-matrix passes — the regime the fused
/// apply exists for. On DAG-sparse scores the eager path already skips
/// most rows and the regimes tie.
pub fn snapshot_graph(n: usize) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(1234);
    erdos_renyi(n, 6 * n, &mut rng)
}

/// Measures eager vs fused vs lazy on a fresh `n`-node workload.
///
/// `cap` is the (already scaled) number of unit updates per regime; each
/// regime replays the *same* insertion stream from the same precomputed
/// scores, so the comparison is apples-to-apples and the exactness
/// cross-checks at the end are meaningful.
pub fn measure_apply_modes(n: usize, k_iters: usize, cap: usize) -> ApplyModeSnapshot {
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let mut rng = StdRng::seed_from_u64(77);
    let stream = random_insertions(&g, cap, &mut rng);

    let mut eager = IncUSr::new(g.clone(), s0.clone(), cfg);
    let m_eager = measure_per_update(&mut eager, &stream, cap);

    let mut fused = IncUSr::new(g.clone(), s0.clone(), cfg).with_mode(ApplyMode::Fused);
    let m_fused = measure_per_update(&mut fused, &stream, cap);

    let mut fused_batch = IncUSr::new(g.clone(), s0.clone(), cfg).with_mode(ApplyMode::Fused);
    let start = Instant::now();
    fused_batch
        .apply_batch(&stream)
        .expect("stream valid by construction");
    let fused_batch_per_update = start.elapsed().as_secs_f64() / stream.len() as f64;

    let mut lazy = IncUSr::new(g, s0, cfg).with_mode(ApplyMode::Lazy);
    let m_lazy = measure_per_update(&mut lazy, &stream, cap);
    let lazy_pending_pairs = lazy.pending_rank();
    // Lazy single-pair queries against the pending buffer (no n² apply).
    let queries = 2000usize;
    let start = Instant::now();
    let mut acc = 0.0;
    for t in 0..queries {
        let a = ((t * 131) % n) as u32;
        let b = ((t * 197 + 13) % n) as u32;
        acc += lazy.view().pair(a, b);
    }
    let lazy_query_secs = start.elapsed().as_secs_f64() / queries as f64;
    std::hint::black_box(acc);

    lazy.flush();
    ApplyModeSnapshot {
        n,
        k_iters,
        measured_updates: m_eager.measured,
        eager_per_update_secs: m_eager.per_update_secs,
        fused_per_update_secs: m_fused.per_update_secs,
        fused_batch_per_update_secs: fused_batch_per_update,
        lazy_per_update_secs: m_lazy.per_update_secs,
        lazy_query_secs,
        lazy_pending_pairs,
        fused_speedup: m_eager.per_update_secs / m_fused.per_update_secs.max(1e-12),
        eager_peak_bytes: m_eager.peak_bytes,
        fused_peak_bytes: m_fused.peak_bytes,
        max_abs_diff_fused_vs_eager: eager.scores().max_abs_diff(fused.scores()),
        max_abs_diff_lazy_vs_eager: eager.scores().max_abs_diff(lazy.scores()),
    }
}

/// Cost of the `incsim::api` service layer vs direct engine calls on the
/// same serving workload (updates interleaved with pair queries).
#[derive(Debug, Clone)]
pub struct ServiceOverheadSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Unit updates in the measured workload.
    pub updates: usize,
    /// Pair queries issued after each update.
    pub queries_per_update: usize,
    /// Total workload seconds, direct engine + `ScoreView` calls.
    pub direct_secs: f64,
    /// Total workload seconds through the `SimRank` service handle
    /// (dyn dispatch + routing + counters).
    pub service_secs: f64,
    /// The **attributable** service-layer overhead of one workload step
    /// (one update + `queries_per_update` queries), in percent of the
    /// direct step cost:
    /// `(update_envelope + queries·query_envelope) / direct_step`.
    /// Computed from the two stable per-call calibrations below rather
    /// than from `service_secs − direct_secs` — on a shared host the
    /// wall-clock difference of ~10ms steps has a ±10% noise band, while
    /// the per-call envelopes are measured with thousands of paired reps
    /// at microsecond scale and carry over (they do not grow with `n`).
    /// The service contract is < 2% on the full-scale run.
    pub overhead_pct: f64,
    /// Median per-update cost the service layer adds around an engine
    /// call (dyn dispatch + routing + counters), from the tiny-engine
    /// calibration. Clamped at 0 (the envelope cannot be negative; a
    /// negative median is measurement noise).
    pub update_envelope_secs: f64,
    /// Mean seconds per query-only direct view read (isolated hot path).
    pub direct_query_secs: f64,
    /// Mean seconds per query-only service read.
    pub service_query_secs: f64,
}

/// Calibrates the per-update service envelope: the same insert/delete
/// toggle is replayed on a tiny (`n` = 64) engine directly and through
/// the service handle, alternating order, and the median of the paired
/// per-step differences is the envelope. At this scale one step is tens
/// of microseconds, so thousands of pairs fit in milliseconds and the
/// median resolves sub-microsecond costs a realistic-`n` A/B cannot.
fn calibrate_update_envelope(cfg: SimRankConfig) -> f64 {
    let n = 64usize;
    let mut rng = StdRng::seed_from_u64(4242);
    let g = erdos_renyi(n, 6 * n, &mut rng);
    let (i, j) = g.edges().next().expect("graph has edges");
    let s0 = batch_simrank(&g, &cfg);
    let mut direct = IncSr::new(g.clone(), s0.clone(), cfg).with_mode(ApplyMode::Fused);
    let mut service = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Fused)
        .config(cfg)
        .with_scores(g, s0)
        .expect("engine constructs");
    let ops = [UpdateOp::Delete(i, j), UpdateOp::Insert(i, j)];
    // Warm both sides through one full toggle.
    for &op in &ops {
        direct.apply(op).expect("valid toggle");
        service.update(op).expect("valid toggle");
    }
    let reps = 1200usize;
    let mut diffs: Vec<f64> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let op = ops[rep % 2];
        let (d, sv) = if rep % 4 < 2 {
            let t = Instant::now();
            direct.apply(op).expect("valid toggle");
            let d = t.elapsed().as_secs_f64();
            let t = Instant::now();
            service.update(op).expect("valid toggle");
            (d, t.elapsed().as_secs_f64())
        } else {
            let t = Instant::now();
            service.update(op).expect("valid toggle");
            let sv = t.elapsed().as_secs_f64();
            let t = Instant::now();
            direct.apply(op).expect("valid toggle");
            (t.elapsed().as_secs_f64(), sv)
        };
        diffs.push(sv - d);
    }
    diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    diffs[diffs.len() / 2].max(0.0)
}

/// Measures the end-to-end serving workload — `cap` unit insertions, each
/// followed by `queries_per_update` pair queries — against a concrete
/// [`IncSr`] in fused mode and through the [`SimRankBuilder`] service
/// handle configured identically. Both engines replay the *same* stream
/// from the same precomputed scores, and the two timers are interleaved
/// per update (direct step, then service step) so clock drift, frequency
/// scaling, and memory-residency effects on a shared host cancel instead
/// of biasing one side.
pub fn measure_service_overhead(n: usize, k_iters: usize, cap: usize) -> ServiceOverheadSnapshot {
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let mut rng = StdRng::seed_from_u64(77);
    // One extra op: the first update on each side is an unmeasured
    // warm-up (first-touch page faults, factor-buffer growth).
    let stream = random_insertions(&g, cap + 1, &mut rng);
    let queries_per_update = 200usize;
    let probe = |t: usize| -> (u32, u32) { (((t * 131) % n) as u32, ((t * 197 + 13) % n) as u32) };

    let mut service = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Fused)
        .config(cfg)
        .with_scores(g.clone(), s0.clone())
        .expect("engine constructs");
    let mut direct = IncSr::new(g, s0, cfg).with_mode(ApplyMode::Fused);

    let (&warmup, measured) = stream.split_first().expect("cap >= 1");
    direct.apply(warmup).expect("stream valid");
    service.update(warmup).expect("stream valid");

    let mut direct_secs = 0.0f64;
    let mut service_secs = 0.0f64;
    let mut step_times: Vec<f64> = Vec::with_capacity(measured.len());
    let mut acc = 0.0f64;
    fn direct_step(
        direct: &mut IncSr,
        op: incsim_graph::UpdateOp,
        queries: usize,
        probe: impl Fn(usize) -> (u32, u32),
        acc: &mut f64,
    ) -> f64 {
        let start = Instant::now();
        direct.apply(op).expect("stream valid");
        let view = direct.view();
        for t in 0..queries {
            let (a, b) = probe(t);
            *acc += view.pair(a, b);
        }
        start.elapsed().as_secs_f64()
    }
    fn service_step(
        service: &mut incsim::api::SimRank,
        op: incsim_graph::UpdateOp,
        queries: usize,
        probe: impl Fn(usize) -> (u32, u32),
        acc: &mut f64,
    ) -> f64 {
        let start = Instant::now();
        service.update(op).expect("stream valid");
        for t in 0..queries {
            let (a, b) = probe(t);
            *acc += service.pair(a, b);
        }
        start.elapsed().as_secs_f64()
    }
    for (step, &op) in measured.iter().enumerate() {
        // Alternate which side goes first so within-step ordering effects
        // (cache residency handed from one side to the other) cancel too.
        let (d, sv) = if step % 2 == 0 {
            let d = direct_step(&mut direct, op, queries_per_update, probe, &mut acc);
            let sv = service_step(&mut service, op, queries_per_update, probe, &mut acc);
            (d, sv)
        } else {
            let sv = service_step(&mut service, op, queries_per_update, probe, &mut acc);
            let d = direct_step(&mut direct, op, queries_per_update, probe, &mut acc);
            (d, sv)
        };
        direct_secs += d;
        service_secs += sv;
        step_times.push(d);
    }
    step_times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let direct_step_median = step_times
        .get(step_times.len() / 2)
        .copied()
        .unwrap_or(1e-12);

    // Isolated query hot path (per-call; informational, not part of the
    // <2% workload gate).
    let q_reps = 200_000usize;
    let start = Instant::now();
    {
        let view = direct.view();
        for t in 0..q_reps {
            let (a, b) = probe(t);
            acc += view.pair(a, b);
        }
    }
    let direct_query_secs = start.elapsed().as_secs_f64() / q_reps as f64;
    let start = Instant::now();
    for t in 0..q_reps {
        let (a, b) = probe(t);
        acc += service.pair(a, b);
    }
    let service_query_secs = start.elapsed().as_secs_f64() / q_reps as f64;
    std::hint::black_box(acc);

    let update_envelope_secs = calibrate_update_envelope(cfg);
    let query_envelope = (service_query_secs - direct_query_secs).max(0.0);
    let attributable = update_envelope_secs + queries_per_update as f64 * query_envelope;
    ServiceOverheadSnapshot {
        n,
        updates: measured.len(),
        queries_per_update,
        direct_secs,
        service_secs,
        overhead_pct: 100.0 * attributable / direct_step_median.max(1e-12),
        update_envelope_secs,
        direct_query_secs,
        service_query_secs,
    }
}

/// Wall-clock of the isolated hot kernels (mean seconds per call).
#[derive(Debug, Clone)]
pub struct MicroKernelSnapshot {
    /// Matrix dimension the kernels ran at.
    pub n: usize,
    /// Buffered rank-two terms per fused apply (`K+1`).
    pub pairs: usize,
    /// One eager pass: `pairs` × `add_sym_outer` full sweeps.
    pub eager_sweeps_secs: f64,
    /// One fused `LowRankDelta::apply_to_with_threads(_, 1)` sweep.
    pub fused_apply_secs: f64,
    /// Fused apply with all available threads.
    pub fused_apply_parallel_secs: f64,
}

/// Times `pairs` rank-two terms applied eagerly vs fused at dimension `n`.
pub fn measure_micro_kernels(n: usize, pairs: usize, reps: usize) -> MicroKernelSnapshot {
    let mk = |seed: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + seed * 17 + 1) as f64 * 0.37).sin())
            .collect()
    };
    let factors: Vec<(Vec<f64>, Vec<f64>)> = (0..pairs).map(|t| (mk(t), mk(t + pairs))).collect();
    let mut s = DenseMatrix::zeros(n, n);
    let reps = reps.max(1);

    let start = Instant::now();
    for _ in 0..reps {
        for (xi, eta) in &factors {
            s.add_sym_outer(1.0, xi, eta);
        }
    }
    let eager_sweeps_secs = start.elapsed().as_secs_f64() / reps as f64;

    let fill = |delta: &mut LowRankDelta| {
        for (xi, eta) in &factors {
            delta.push_dense(xi.clone(), eta.clone());
        }
    };
    let mut delta = LowRankDelta::new(n);
    let start = Instant::now();
    for _ in 0..reps {
        fill(&mut delta);
        delta.apply_to_with_threads(&mut s, 1);
    }
    let fused_apply_secs = start.elapsed().as_secs_f64() / reps as f64;

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let start = Instant::now();
    for _ in 0..reps {
        fill(&mut delta);
        delta.apply_to_with_threads(&mut s, threads);
    }
    let fused_apply_parallel_secs = start.elapsed().as_secs_f64() / reps as f64;
    std::hint::black_box(s.get(0, 0));

    MicroKernelSnapshot {
        n,
        pairs,
        eager_sweeps_secs,
        fused_apply_secs,
        fused_apply_parallel_secs,
    }
}

/// Throughput and exactness of the `incsim::serve` concurrent layer:
/// aggregate epoch-reader queries/sec at 1, 2 and 4 reader threads with
/// a saturated background writer, plus the deferred-apply exactness of
/// the fused and lazy policies *through the serving path* (vs the eager
/// trajectory — an identity, so noise-free).
#[derive(Debug, Clone)]
pub struct ConcurrentThroughputSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Iterations `K`.
    pub k_iters: usize,
    /// Seconds measured per reader-thread point.
    pub duration_secs: f64,
    /// Aggregate pair queries/sec with 1 reader thread.
    pub qps_1t: f64,
    /// Aggregate pair queries/sec with 2 reader threads.
    pub qps_2t: f64,
    /// Aggregate pair queries/sec with 4 reader threads.
    pub qps_4t: f64,
    /// `qps_4t / qps_1t` — the serving-scalability headline.
    pub speedup_4_vs_1: f64,
    /// Updates/sec the background writer sustained at the 4-reader point
    /// (batches of 16, publish every 4 batches).
    pub writer_updates_per_sec: f64,
    /// Epochs published at the 4-reader point.
    pub epochs_published: u64,
    /// Max |fused − eager| over all pairs, read through epochs (JSON key
    /// `max_abs_diff_sharded_fused_vs_eager`, kept so snapshots stay
    /// comparable).
    pub max_abs_diff_fused_vs_eager: f64,
    /// Max |lazy − eager| over all pairs, same read path — the lazy
    /// handle's epoch composes its *pending* Δ (nothing flushed), so this
    /// also certifies Δ-composition through snapshots (JSON key
    /// `max_abs_diff_sharded_lazy_vs_eager`).
    pub max_abs_diff_lazy_vs_eager: f64,
}

/// The next `len` valid intra-component toggles, round-robin across the
/// component blocks.
fn intra_block_toggles(
    shadow: &mut DiGraph,
    components: usize,
    per: usize,
    len: usize,
    rng: &mut StdRng,
) -> Vec<UpdateOp> {
    let blocks: Vec<std::ops::Range<u32>> = (0..components)
        .map(|s| (s * per) as u32..((s + 1) * per) as u32)
        .collect();
    random_toggles_blocks(shadow, &blocks, len, rng)
}

/// Measures the concurrent serving layer at dimension `n` (rounded down
/// to a multiple of `components`, the number of disjoint ER components
/// in the workload graph): reader-thread sweep for throughput, then a
/// policy sweep for exactness through epochs. `duration_secs` is the
/// measurement window per reader point (scaled by the caller).
pub fn measure_concurrent_throughput(
    n: usize,
    k_iters: usize,
    components: usize,
    duration_secs: f64,
) -> ConcurrentThroughputSnapshot {
    let per = (n / components).max(2);
    let n = per * components;
    let mut graph_rng = StdRng::seed_from_u64(99);
    let g = erdos_renyi_blocks(components, per, per * 6, &mut graph_rng);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let builder = |policy: ApplyPolicy| {
        SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(policy)
            .config(cfg)
    };

    // ---- exactness through the serving path ---------------------------
    // Same stream through eager / fused / lazy handles; answers are read
    // through a frozen epoch (base + pending Δ for lazy), so the
    // comparison crosses the batch path, snapshotting and Δ-composition
    // at once.
    let mut stream_shadow = g.clone();
    let mut stream_rng = StdRng::seed_from_u64(4321);
    let exact_ops = intra_block_toggles(&mut stream_shadow, components, per, 12, &mut stream_rng);
    let drive = |policy: ApplyPolicy| -> ShardedSimRank {
        let mut handle = ShardedSimRank::with_scores(builder(policy), g.clone(), s0.clone())
            .expect("handle builds");
        for chunk in exact_ops.chunks(3) {
            handle.update_batch(chunk).expect("stream valid");
        }
        handle
    };
    let eager = drive(ApplyPolicy::Eager).snapshot_epoch(0, None);
    let fused = drive(ApplyPolicy::Fused).snapshot_epoch(0, None);
    let lazy = drive(ApplyPolicy::Lazy).snapshot_epoch(0, None);
    let mut diff_fused = 0.0f64;
    let mut diff_lazy = 0.0f64;
    for a in 0..n as u32 {
        for b in a..n as u32 {
            let e = eager.pair(a, b);
            diff_fused = diff_fused.max((fused.pair(a, b) - e).abs());
            diff_lazy = diff_lazy.max((lazy.pair(a, b) - e).abs());
        }
    }

    // ---- reader-thread throughput sweep -------------------------------
    // The writer side is deliberately saturated (continuous 16-op
    // batches, publish every 4 batches): the number under load is the one
    // that matters, and on any core count it exposes how much reader
    // capacity the epoch design preserves. `incsim::serve::drive_load` is
    // the shared harness (also behind `incsim-cli serve`).
    let mut qps = [0.0f64; 3];
    let mut writer_updates_per_sec = 0.0;
    let mut epochs_published = 0u64;
    for (point, readers) in [1usize, 2, 4].into_iter().enumerate() {
        let handle =
            ShardedSimRank::with_scores(builder(ApplyPolicy::Fused), g.clone(), s0.clone())
                .expect("handle builds");
        let mut serving = ConcurrentSimRank::new(handle);
        let report = drive_load(
            &mut serving,
            &LoadOptions {
                readers,
                duration: std::time::Duration::from_secs_f64(duration_secs),
                write_batch: 16,
                publish_every: 4,
                seed: 777,
            },
        )
        .expect("toggle stream valid");
        qps[point] = report.queries_per_sec();
        if readers == 4 {
            writer_updates_per_sec = report.updates_per_sec();
            epochs_published = report.epochs_published;
        }
    }

    ConcurrentThroughputSnapshot {
        n,
        k_iters,
        duration_secs,
        qps_1t: qps[0],
        qps_2t: qps[1],
        qps_4t: qps[2],
        speedup_4_vs_1: qps[2] / qps[0].max(1e-9),
        writer_updates_per_sec,
        epochs_published,
        max_abs_diff_fused_vs_eager: diff_fused,
        max_abs_diff_lazy_vs_eager: diff_lazy,
    }
}

/// A long lazy serving window with periodic ΔS recompression vs the same
/// window uncompressed: pair-query latency at window end, buffer memory
/// trajectory, and exactness of the compressed trajectory.
#[derive(Debug, Clone)]
pub struct LongLazyWindowSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Iterations `K`.
    pub k_iters: usize,
    /// Unit updates deferred into the lazy window.
    pub window: usize,
    /// Pending rank at which the compressed run recompresses.
    pub compress_rank: usize,
    /// Factor pairs pending at window end, uncompressed (`window·(K+1)`
    /// minus dropped no-op terms — grows linearly in the window).
    pub uncompressed_pairs: usize,
    /// Factor pairs pending at window end with recompression (≈ the
    /// numerical rank of ΔS — plateaus).
    pub compressed_pairs: usize,
    /// Recompression passes the window triggered.
    pub recompressions: usize,
    /// Mean seconds per lazy pair query at window end, uncompressed.
    pub uncompressed_query_secs: f64,
    /// Mean seconds per lazy pair query at window end, compressed.
    pub compressed_query_secs: f64,
    /// `uncompressed_query_secs / compressed_query_secs` — the headline:
    /// recompression holds lazy query cost at O(numerical rank).
    pub long_lazy_query_speedup: f64,
    /// Buffer heap bytes at window end, uncompressed (grows linearly).
    pub uncompressed_heap_bytes: usize,
    /// Peak buffer heap bytes over the whole compressed window (the
    /// plateau — bounded by the threshold, not the window length).
    pub compressed_heap_peak_bytes: usize,
    /// Buffer heap bytes at window end, compressed.
    pub compressed_heap_end_bytes: usize,
    /// Max |compressed − uncompressed| over the full final matrix (the
    /// uncompressed lazy trajectory equals eager — gated by the
    /// apply-modes case — so this is the compressed-vs-eager drift).
    pub max_abs_diff_compressed_vs_uncompressed: f64,
}

/// Drives a `window`-update lazy window twice through the service handle
/// (`ApplyPolicy::Lazy`) — once with `.compress_at_rank(compress_rank)`
/// armed at the default tolerance, once without — and measures pair-query
/// latency, buffer memory, and drift at window end. The insertion stream,
/// initial scores, and probe set are shared, so the comparison is
/// apples-to-apples.
pub fn measure_long_lazy_window(n: usize, k_iters: usize, window: usize) -> LongLazyWindowSnapshot {
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let mut rng = StdRng::seed_from_u64(77);
    let stream = random_insertions(&g, window, &mut rng);
    let compress_rank = 4 * (k_iters + 1);

    let build = |compress: bool| -> SimRank {
        let b = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Lazy)
            .config(cfg)
            // Never materialise inside the window: the point is the
            // lazy steady state, bounded by compression alone.
            .flush_at_rank(usize::MAX);
        let b = if compress {
            b.compress_at_rank(compress_rank)
        } else {
            b
        };
        b.with_scores(g.clone(), s0.clone())
            .expect("engine constructs")
    };
    let heap_of = |sim: &SimRank| -> usize { sim.pending_heap_bytes() };
    let query_probe = |sim: &SimRank| -> f64 {
        let queries = 2000usize;
        let start = Instant::now();
        let mut acc = 0.0;
        for t in 0..queries {
            let a = ((t * 131) % n) as u32;
            let b = ((t * 197 + 13) % n) as u32;
            acc += sim.pair(a, b);
        }
        let per = start.elapsed().as_secs_f64() / queries as f64;
        std::hint::black_box(acc);
        per
    };

    let mut plain = build(false);
    for &op in &stream {
        plain.update(op).expect("stream valid by construction");
    }
    let uncompressed_pairs = plain.pending_rank();
    let uncompressed_heap = heap_of(&plain);
    let uncompressed_query_secs = query_probe(&plain);

    let mut compressed = build(true);
    let mut peak_heap = 0usize;
    for &op in &stream {
        compressed.update(op).expect("stream valid by construction");
        peak_heap = peak_heap.max(heap_of(&compressed));
    }
    let compressed_pairs = compressed.pending_rank();
    let compressed_heap_end = heap_of(&compressed);
    let compressed_query_secs = query_probe(&compressed);
    let recompressions = compressed.counters().recompressions;

    // Drift: materialise both windows (the only n² work in this case,
    // off the measured paths) and compare the full matrices.
    let diff = {
        let a = plain.scores().expect("Inc-SR is matrix-backed").clone();
        compressed
            .scores()
            .expect("Inc-SR is matrix-backed")
            .max_abs_diff(&a)
    };

    LongLazyWindowSnapshot {
        n,
        k_iters,
        window: stream.len(),
        compress_rank,
        uncompressed_pairs,
        compressed_pairs,
        recompressions,
        uncompressed_query_secs,
        compressed_query_secs,
        long_lazy_query_speedup: uncompressed_query_secs / compressed_query_secs.max(1e-12),
        uncompressed_heap_bytes: uncompressed_heap,
        compressed_heap_peak_bytes: peak_heap,
        compressed_heap_end_bytes: compressed_heap_end,
        max_abs_diff_compressed_vs_uncompressed: diff,
    }
}

/// Matrix-free serving headline: single-source query latency and peak
/// heap of the [`EngineKind::Probe`] engine at two graph sizes.
///
/// The point of this case is the *memory scaling law*: every dense
/// engine carries an `n × n` score matrix, so its footprint is Θ(n²) by
/// construction; the probe engine holds only the graph, so its peak heap
/// must grow **sub-quadratically** in `n`. The measurement runs the same
/// query workload at `n_small` and `n_large = 4·n_small` and records the
/// heap growth ratio — linear scaling lands near 4, quadratic at 16; the
/// gate (asserted here and in the `bench-snapshot` binary) is
/// `heap_growth < 8`. A second gate holds one exact single-source query
/// at `n_large` under [`PROBE_QUERY_CEILING_SECS`].
#[derive(Debug, Clone)]
pub struct ProbeSingleSourceSnapshot {
    /// Smaller graph size.
    pub n_small: usize,
    /// Larger graph size (4× the smaller one).
    pub n_large: usize,
    /// Iterations `K` (series truncation).
    pub k_iters: usize,
    /// Mean seconds per single-source query at `n_small`.
    pub query_secs_small: f64,
    /// Mean seconds per single-source query at `n_large`.
    pub query_secs_large: f64,
    /// Engine heap (the graph) after the workload, small.
    pub heap_peak_bytes_small: usize,
    /// Engine heap (the graph) after the workload, large.
    pub heap_peak_bytes_large: usize,
    /// `heap_peak_bytes_large / heap_peak_bytes_small` — the scaling
    /// headline (≈4 linear, 16 quadratic; must stay < 8).
    pub heap_growth: f64,
    /// What a dense engine's score matrix alone would cost at `n_large`
    /// (`8·n_large²` bytes), for context in the JSON.
    pub dense_bytes_large: usize,
}

/// Ceiling on one exact probe single-source query at `n_large`, in
/// seconds. The full-scale case (`n_large` = 50,000, `K` = 15) takes tens
/// of milliseconds; a ranked read that went back to sampling took ≈10 s.
pub const PROBE_QUERY_CEILING_SECS: f64 = 0.5;

/// Measures the probe engine's single-source serving path at `n_small`
/// and `4·n_small` nodes (fig2a-style ER graphs, same family as every
/// other case) and asserts the sub-quadratic heap gate and the query
/// ceiling. A handful of update ops are applied first so the measured
/// engine is the post-ingest steady state, not a freshly built one.
pub fn measure_probe_single_source(n_small: usize, k_iters: usize) -> ProbeSingleSourceSnapshot {
    let n_large = 4 * n_small;
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");

    let point = |n: usize| -> (f64, usize) {
        let g = snapshot_graph(n);
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(cfg)
            .from_graph(g.clone())
            .expect("probe builds from the graph alone");
        let mut rng = StdRng::seed_from_u64(77);
        for op in random_insertions(&g, 8, &mut rng) {
            sim.update(op).expect("stream valid by construction");
        }
        let queries = 12usize;
        let mut acc = 0.0f64;
        // Warm-up query, then measure.
        acc += sim.single_source(0).len() as f64;
        let start = Instant::now();
        for t in 0..queries {
            let a = ((t * 131 + 7) % n) as u32;
            acc += sim.single_source(a).iter().map(|r| r.score).sum::<f64>();
        }
        let per_query = start.elapsed().as_secs_f64() / queries as f64;
        std::hint::black_box(acc);
        (per_query, sim.snapshot_query().heap_bytes())
    };

    let (query_secs_small, heap_small) = point(n_small);
    let (query_secs_large, heap_large) = point(n_large);
    let heap_growth = heap_large as f64 / heap_small.max(1) as f64;
    assert!(
        heap_growth < 8.0,
        "probe peak heap must grow sub-quadratically: {heap_small} B at n={n_small} -> \
         {heap_large} B at n={n_large} (x{heap_growth:.1}; quadratic would be x16)"
    );
    assert!(
        query_secs_large < PROBE_QUERY_CEILING_SECS,
        "probe single-source took {query_secs_large:.3} s at n={n_large}, over the \
         {PROBE_QUERY_CEILING_SECS} s ceiling"
    );
    ProbeSingleSourceSnapshot {
        n_small,
        n_large,
        k_iters,
        query_secs_small,
        query_secs_large,
        heap_peak_bytes_small: heap_small,
        heap_peak_bytes_large: heap_large,
        heap_growth,
        dense_bytes_large: 8 * n_large * n_large,
    }
}

/// Cost of write-ahead durability on the serving write path: the same
/// unit-update stream through two serving handles, one logging every
/// op (`SimRankBuilder::wal`), one not.
#[derive(Debug, Clone)]
pub struct WalOverheadSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Measured unit updates (one warm-up excluded).
    pub updates: usize,
    /// Median per-update seconds without a log.
    pub plain_per_update_secs: f64,
    /// Median per-update seconds with every op appended to the log.
    pub durable_per_update_secs: f64,
    /// Median of the paired per-update differences, clamped at 0 — the
    /// append cost itself (serialise + checksum + buffered write).
    pub wal_append_envelope_secs: f64,
    /// `100 · envelope / plain median`: the durability tax in percent of
    /// the per-update cost. The acceptance bar is < 5% at full scale —
    /// one O(26-byte) append against an O(K·n·d) maintenance step.
    pub wal_overhead_pct: f64,
    /// Log bytes appended per op (frame header + op payload).
    pub wal_bytes_per_op: f64,
}

/// Measures the WAL append tax with the same paired, order-alternating
/// protocol as [`measure_service_overhead`]: per step the op is applied
/// on both routers back to back (order swapping every step), and the
/// median paired difference isolates the append from shared noise. The
/// checkpoint cadence is pushed out of the window so the envelope prices
/// the steady-state append alone (checkpoints amortise separately).
pub fn measure_wal_overhead(n: usize, k_iters: usize, cap: usize) -> WalOverheadSnapshot {
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let mut rng = StdRng::seed_from_u64(0x0A17);
    let stream = random_insertions(&g, cap + 1, &mut rng);

    let path = std::env::temp_dir().join(format!("incsim_bench_wal_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let base = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Fused)
        .config(cfg);
    let mut plain =
        ShardedSimRank::with_scores(base.clone(), g.clone(), s0.clone()).expect("router builds");
    let mut durable =
        ShardedSimRank::with_scores(base.wal(&path).checkpoint_every(u64::MAX), g, s0)
            .expect("durable router builds");

    let (&warmup, measured) = stream.split_first().expect("cap >= 1");
    plain.update(warmup).expect("stream valid");
    durable.update(warmup).expect("stream valid");
    let log_bytes_start = std::fs::metadata(&path).map_or(0, |m| m.len());

    let mut plain_times: Vec<f64> = Vec::with_capacity(measured.len());
    let mut durable_times: Vec<f64> = Vec::with_capacity(measured.len());
    let mut diffs: Vec<f64> = Vec::with_capacity(measured.len());
    for (step, &op) in measured.iter().enumerate() {
        let (p, d) = if step % 2 == 0 {
            let t = Instant::now();
            plain.update(op).expect("stream valid");
            let p = t.elapsed().as_secs_f64();
            let t = Instant::now();
            durable.update(op).expect("stream valid");
            (p, t.elapsed().as_secs_f64())
        } else {
            let t = Instant::now();
            durable.update(op).expect("stream valid");
            let d = t.elapsed().as_secs_f64();
            let t = Instant::now();
            plain.update(op).expect("stream valid");
            (t.elapsed().as_secs_f64(), d)
        };
        plain_times.push(p);
        durable_times.push(d);
        diffs.push(d - p);
    }
    let log_bytes_end = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);

    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v.get(v.len() / 2).copied().unwrap_or(1e-12)
    };
    let plain_median = median(&mut plain_times);
    let durable_median = median(&mut durable_times);
    let envelope = median(&mut diffs).max(0.0);
    WalOverheadSnapshot {
        n,
        updates: measured.len(),
        plain_per_update_secs: plain_median,
        durable_per_update_secs: durable_median,
        wal_append_envelope_secs: envelope,
        wal_overhead_pct: 100.0 * envelope / plain_median.max(1e-12),
        wal_bytes_per_op: (log_bytes_end.saturating_sub(log_bytes_start)) as f64
            / measured.len().max(1) as f64,
    }
}

/// Cost and compression of the temporal epoch ring: the last `retain`
/// published epochs kept addressable behind [`ConcurrentSimRank`], each
/// non-head epoch stored as a factor-compressed delta against its
/// successor rather than a dense `n × n` copy.
#[derive(Debug, Clone)]
pub struct EpochRingSnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Iterations `K`.
    pub k_iters: usize,
    /// Ring capacity (`SimRankBuilder::retain_epochs`).
    pub retain: usize,
    /// Epochs published over the run (> `retain`, so eviction is hit).
    pub publishes: usize,
    /// Unit updates applied between consecutive publishes.
    pub ops_per_epoch: usize,
    /// Mean seconds per `publish` (includes the delta compression of the
    /// epoch being pushed into the ring).
    pub publish_secs: f64,
    /// Mean seconds per `pair_at` on the *oldest* retained epoch — the
    /// worst case: the whole delta chain is stacked per call.
    pub reconstruct_pair_secs: f64,
    /// Mean seconds per head-epoch pair read (the baseline the
    /// reconstruction cost is paid on top of).
    pub head_pair_secs: f64,
    /// Bytes held by the ring beyond the head epoch (factor deltas plus
    /// any replay tails).
    pub retained_heap_bytes: usize,
    /// What the same non-head epochs would cost as dense matrices:
    /// `(epochs − 1) · n² · 8`.
    pub dense_equivalent_bytes: usize,
    /// `dense_equivalent_bytes / retained_heap_bytes` — the compression
    /// factor. Per-epoch factor rank is set by the ops between publishes,
    /// not by `n`, so this ratio *grows* with `n` (sub-quadratic law).
    pub retained_ratio: f64,
    /// Max |`pair_at` − value recorded live at publish time| over the
    /// sampled pairs of the oldest retained epoch. Exactness: must be
    /// ≤ 1e-12 at any scale (asserted inside the measurement).
    pub oldest_epoch_drift: f64,
}

/// Drives `cap` unit updates through a retain-`retain` ring in
/// `retain + 2` publish chunks (so the ring fills *and* evicts), records
/// the live head answers of sampled pairs at every publish, then replays
/// the oldest still-retained epoch through `pair_at` and checks it
/// against the recording.
///
/// Two gates are asserted inside the measurement itself (like the probe
/// case's heap gate): the reconstructed trajectory must match the
/// recording to 1e-12 at any scale, and the retained ring must beat the
/// dense-copy cost — by 8× once `n ≥ 1024`, where the O(n·r)-vs-O(n²)
/// separation is unambiguous (at toy sizes the factor overhead of a
/// QR-compressed delta eats most of the margin).
pub fn measure_epoch_ring(
    n: usize,
    k_iters: usize,
    retain: usize,
    cap: usize,
) -> EpochRingSnapshot {
    assert!(retain >= 2, "a ring of one epoch retains no history");
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let publishes = retain + 2;
    let ops_per_epoch = cap.div_ceil(publishes).max(1);
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let stream = random_insertions(&g, publishes * ops_per_epoch, &mut rng);

    let builder = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Fused)
        .config(cfg)
        .retain_epochs(retain);
    let sharded = ShardedSimRank::with_scores(builder, g, s0).expect("router builds");
    let mut srv = ConcurrentSimRank::new(sharded);

    let samples = 64usize;
    let pairs: Vec<(u32, u32)> = (0..samples)
        .map(|t| (((t * 131) % n) as u32, ((t * 197 + 13) % n) as u32))
        .collect();

    let mut recorded: Vec<(u64, Vec<f64>)> = Vec::with_capacity(publishes);
    let mut publish_total = 0.0f64;
    for chunk in stream.chunks(ops_per_epoch) {
        srv.update_batch(chunk).expect("stream valid");
        let t = Instant::now();
        let seq = srv.publish();
        publish_total += t.elapsed().as_secs_f64();
        let reader = srv.reader();
        let live: Vec<f64> = pairs.iter().map(|&(a, b)| reader.pair(a, b)).collect();
        recorded.push((seq, live));
    }

    let infos = srv.epochs();
    assert_eq!(
        infos.len(),
        retain,
        "ring must be full after {publishes} publishes"
    );
    let oldest_seq = infos.first().expect("ring non-empty").seq;
    let (_, live) = recorded
        .iter()
        .find(|(seq, _)| *seq == oldest_seq)
        .expect("oldest retained epoch was recorded at publish time");

    // Worst-case temporal read: every pair_at on the oldest epoch stacks
    // the full delta chain back from the head.
    let t = Instant::now();
    let mut drift = 0.0f64;
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let then = srv.pair_at(a, b, oldest_seq).expect("epoch retained");
        drift = drift.max((then - live[i]).abs());
    }
    let reconstruct_pair_secs = t.elapsed().as_secs_f64() / samples as f64;
    assert!(
        drift <= 1e-12,
        "oldest retained epoch drifted {drift:.2e} from the live recording (tolerance 1e-12)"
    );

    let reader = srv.reader();
    let t = Instant::now();
    let mut acc = 0.0;
    for &(a, b) in &pairs {
        acc += reader.pair(a, b);
    }
    let head_pair_secs = t.elapsed().as_secs_f64() / samples as f64;
    std::hint::black_box(acc);

    let retained_heap_bytes = srv.retained_heap_bytes();
    let dense_equivalent_bytes = (infos.len() - 1) * n * n * 8;
    assert!(
        retained_heap_bytes < dense_equivalent_bytes,
        "retained ring ({retained_heap_bytes} B) must undercut dense copies \
         ({dense_equivalent_bytes} B)"
    );
    if n >= 1024 {
        assert!(
            retained_heap_bytes * 8 < dense_equivalent_bytes,
            "retained-epoch heap is not sub-quadratic: {retained_heap_bytes} B vs \
             {dense_equivalent_bytes} B dense for n = {n}"
        );
    }

    EpochRingSnapshot {
        n,
        k_iters,
        retain,
        publishes,
        ops_per_epoch,
        publish_secs: publish_total / publishes as f64,
        reconstruct_pair_secs,
        head_pair_secs,
        retained_heap_bytes,
        dense_equivalent_bytes,
        retained_ratio: dense_equivalent_bytes as f64 / retained_heap_bytes.max(1) as f64,
        oldest_epoch_drift: drift,
    }
}

/// Durability cost of the *persistent* epoch ring: what the v2
/// checkpoint round (head image + epoch-ring frames on the same log)
/// costs on disk, and what rehydrating the ring adds to crash recovery.
#[derive(Debug, Clone)]
pub struct EpochRecoverySnapshot {
    /// Node count of the workload graph.
    pub n: usize,
    /// Iterations `K`.
    pub k_iters: usize,
    /// Ring capacity (`SimRankBuilder::retain_epochs`).
    pub retain: usize,
    /// Epochs published over the run.
    pub publishes: usize,
    /// Unit updates applied between consecutive publishes.
    pub ops_per_epoch: usize,
    /// Pre-crash epochs addressable again after the reopen
    /// ([`HistoryStatus::Recovered`]'s count: ring entries plus the
    /// persisted head).
    pub restored_epochs: usize,
    /// Bytes of the checkpoint frames in the final round — the head-only
    /// image a v1 log would have written.
    pub head_image_bytes: usize,
    /// Bytes of the epoch-delta + meta frames riding that round — the
    /// price of making history durable.
    pub ring_round_bytes: usize,
    /// `head_image_bytes + ring_round_bytes`: the full v2 round.
    pub checkpoint_bytes: usize,
    /// `checkpoint_bytes / head_image_bytes`. The head image is a dense
    /// `n²` snapshot while the ring holds factor deltas, so the contract
    /// is < 2× at full scale (asserted at `n ≥ 1024` inside the
    /// measurement).
    pub checkpoint_growth: f64,
    /// Seconds for a head-only reopen of the same log
    /// (`retain_epochs(1)`) — the recovery baseline.
    pub head_recover_secs: f64,
    /// Seconds for the retained reopen (`retain_epochs(retain)`), ring
    /// rehydration included.
    pub ring_recover_secs: f64,
    /// `ring_recover_secs − head_recover_secs`, clamped at 0: the ring's
    /// attributable share of recovery (scan + anchor decode + splice).
    pub ring_rehydrate_secs: f64,
    /// Max |`pair_at` on a restored epoch − value recorded live at
    /// publish time| across all restored epochs. Exactness: must be
    /// ≤ 1e-12 at any scale (asserted inside the measurement).
    pub recovered_drift: f64,
}

/// Drives a durable retain-`retain` run whose checkpoint cadence fires
/// once, late in the stream (so exactly one full v2 round — head image
/// plus a *full* ring — lands at the log tail), then accounts the round
/// byte-by-byte from the frame classes and times a paired reopen:
/// head-only (`retain_epochs(1)`) vs retained, the difference being the
/// ring-rehydrate cost. Every restored epoch is replayed through
/// `pair_at` and checked against the trajectory recorded at publish
/// time; drift beyond 1e-12 fails the measurement at any scale, and the
/// < 2× growth contract over the head-only image is asserted once
/// `n ≥ 1024` (at toy sizes the dense head image is small enough that
/// the ring's fixed framing overhead distorts the ratio).
pub fn measure_epoch_recovery(
    n: usize,
    k_iters: usize,
    retain: usize,
    cap: usize,
) -> EpochRecoverySnapshot {
    assert!(retain >= 2, "a ring of one epoch persists no history");
    let g = snapshot_graph(n);
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let s0 = batch_simrank(&g, &cfg);
    let publishes = retain + 2;
    let ops_per_epoch = cap.div_ceil(publishes).max(1);
    let total = publishes * ops_per_epoch;
    let mut rng = StdRng::seed_from_u64(0xD05E);
    let stream = random_insertions(&g, total, &mut rng);

    let path = std::env::temp_dir().join(format!("incsim_bench_ring_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // One cadence checkpoint, after the ring has filled: `total - 1` ops
    // in means the v2 round at the tail carries `retain - 1` deltas, not
    // an early part-full ring.
    let durable = |retain_epochs: usize| {
        SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Fused)
            .config(cfg)
            .retain_epochs(retain_epochs)
            .checkpoint_every((total as u64).saturating_sub(1).max(1))
            .wal(&path)
    };

    let sharded = ShardedSimRank::with_scores(durable(retain), g.clone(), s0.clone())
        .expect("durable router builds");
    let mut srv = ConcurrentSimRank::new(sharded);

    let samples = 64usize;
    let pairs: Vec<(u32, u32)> = (0..samples)
        .map(|t| (((t * 131) % n) as u32, ((t * 197 + 13) % n) as u32))
        .collect();
    let mut recorded: Vec<(u64, Vec<f64>)> = Vec::with_capacity(publishes);
    for chunk in stream.chunks(ops_per_epoch) {
        srv.update_batch(chunk).expect("stream valid");
        let seq = srv.publish();
        let reader = srv.reader();
        let live: Vec<f64> = pairs.iter().map(|&(a, b)| reader.pair(a, b)).collect();
        recorded.push((seq, live));
    }
    drop(srv);

    // Byte accounting of the final v2 round, walked backwards from the
    // newest meta trailer: [checkpoint…][epoch-delta…][epoch-meta] are
    // appended contiguously by the cadence write.
    let bytes = std::fs::read(&path).expect("log readable after the run");
    let kinds = frame_kinds(&bytes);
    let frame_len = |off: usize| {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("frame header"));
        FRAME_HEADER + len as usize
    };
    let last_meta = kinds
        .iter()
        .rposition(|&(_, k)| k == FrameKind::EpochMeta)
        .expect("a durable retained run persists an epoch-ring round");
    let mut ring_round_bytes = frame_len(kinds[last_meta].0);
    let mut i = last_meta;
    while i > 0 && kinds[i - 1].1 == FrameKind::EpochDelta {
        i -= 1;
        ring_round_bytes += frame_len(kinds[i].0);
    }
    let mut head_image_bytes = 0usize;
    while i > 0 && kinds[i - 1].1 == FrameKind::Checkpoint {
        i -= 1;
        head_image_bytes += frame_len(kinds[i].0);
    }
    assert!(
        head_image_bytes > 0,
        "the epoch-ring round must ride a checkpoint round"
    );
    let checkpoint_bytes = head_image_bytes + ring_round_bytes;
    let checkpoint_growth = checkpoint_bytes as f64 / head_image_bytes as f64;
    if n >= 1024 {
        assert!(
            checkpoint_growth < 2.0,
            "v2 checkpoint round ({checkpoint_bytes} B) must stay under 2x the head-only \
             image ({head_image_bytes} B) at n = {n}"
        );
    }

    // Paired reopen: same log, same recovery replay — the only delta is
    // the ring scan + anchor decode + splice the retained side performs.
    // The first reopen after a run pays one-time costs (allocator growth
    // for the n² images, cold code paths) that can exceed the ring work
    // itself, so warm up with an untimed reopen before the timed pair.
    drop(ConcurrentSimRank::new(
        ShardedSimRank::with_scores(durable(1), g.clone(), s0.clone())
            .expect("warm-up recovery succeeds"),
    ));
    let t = Instant::now();
    let head_only = ConcurrentSimRank::new(
        ShardedSimRank::with_scores(durable(1), g.clone(), s0.clone())
            .expect("head-only recovery succeeds"),
    );
    let head_recover_secs = t.elapsed().as_secs_f64();
    drop(head_only);
    let t = Instant::now();
    let revived = ConcurrentSimRank::new(
        ShardedSimRank::with_scores(durable(retain), g, s0).expect("ring recovery succeeds"),
    );
    let ring_recover_secs = t.elapsed().as_secs_f64();
    let restored_epochs = match revived.history_status() {
        HistoryStatus::Recovered { epochs } => epochs,
        other => panic!("durable retained log must rehydrate its ring, got {other:?}"),
    };

    // Every restored epoch must answer exactly as it did live. The new
    // incarnation's head is numbered past the ring and holds the full
    // durable op prefix — not any pre-crash publish — so it is excluded.
    let head_seq = revived.epoch_seq();
    let mut drift = 0.0f64;
    let mut checked = 0usize;
    for info in revived.epochs() {
        if info.seq == head_seq {
            continue;
        }
        let (_, live) = recorded
            .iter()
            .find(|(seq, _)| *seq == info.seq)
            .expect("every restored epoch was recorded at publish time");
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            let then = revived.pair_at(a, b, info.seq).expect("epoch restored");
            drift = drift.max((then - live[idx]).abs());
        }
        checked += 1;
    }
    // The rehydrated entries sit behind the *new* head, so the ring's
    // `retain - 1` capacity can evict the oldest restored epoch on the
    // spot — everything else must be addressable.
    assert_eq!(
        checked,
        restored_epochs.min(retain - 1),
        "rehydrated ring entries inside capacity must be addressable"
    );
    assert!(
        drift <= 1e-12,
        "restored epochs drifted {drift:.2e} from the pre-crash trajectory (tolerance 1e-12)"
    );
    let _ = std::fs::remove_file(&path);

    EpochRecoverySnapshot {
        n,
        k_iters,
        retain,
        publishes,
        ops_per_epoch,
        restored_epochs,
        head_image_bytes,
        ring_round_bytes,
        checkpoint_bytes,
        checkpoint_growth,
        head_recover_secs,
        ring_recover_secs,
        ring_rehydrate_secs: (ring_recover_secs - head_recover_secs).max(0.0),
        recovered_drift: drift,
    }
}

/// One measurement of every case, borrowed together for [`snapshot_json`].
pub struct SnapshotCases<'a> {
    /// The `apply_modes` case.
    pub modes: &'a ApplyModeSnapshot,
    /// The `micro_kernels` case.
    pub micro: &'a MicroKernelSnapshot,
    /// The `service_overhead` case.
    pub service: &'a ServiceOverheadSnapshot,
    /// The `concurrent_throughput` case.
    pub concurrent: &'a ConcurrentThroughputSnapshot,
    /// The `long_lazy_window` case.
    pub long_lazy: &'a LongLazyWindowSnapshot,
    /// The `probe_single_source` case.
    pub probe: &'a ProbeSingleSourceSnapshot,
    /// The `wal_overhead` case.
    pub wal: &'a WalOverheadSnapshot,
    /// The `epoch_ring` case.
    pub epoch: &'a EpochRingSnapshot,
    /// The `epoch_recovery` case.
    pub recovery: &'a EpochRecoverySnapshot,
}

/// Renders the full snapshot as pretty-printed JSON.
pub fn snapshot_json(cases: &SnapshotCases<'_>) -> String {
    let &SnapshotCases {
        modes,
        micro,
        service,
        concurrent,
        long_lazy,
        probe,
        wal,
        epoch,
        recovery,
    } = cases;
    format!(
        r#"{{
  "schema": "incsim-bench-snapshot-v8",
  "bench_scale": {scale},
  "apply_modes": {{
    "n": {n},
    "k_iters": {k},
    "measured_updates": {upd},
    "eager_per_update_secs": {eager:.6e},
    "fused_per_update_secs": {fused:.6e},
    "fused_batch_per_update_secs": {fb:.6e},
    "lazy_per_update_secs": {lz:.6e},
    "lazy_query_secs": {lq:.6e},
    "lazy_pending_pairs": {lp},
    "fused_speedup": {sp:.3},
    "eager_peak_bytes": {epb},
    "fused_peak_bytes": {fpb},
    "max_abs_diff_fused_vs_eager": {dfe:.3e},
    "max_abs_diff_lazy_vs_eager": {dle:.3e}
  }},
  "micro_kernels": {{
    "n": {mn},
    "pairs": {mp},
    "eager_sweeps_secs": {mes:.6e},
    "fused_apply_secs": {mfs:.6e},
    "fused_apply_parallel_secs": {mps:.6e}
  }},
  "service_overhead": {{
    "n": {sn},
    "updates": {su},
    "queries_per_update": {sq},
    "direct_secs": {sds:.6e},
    "service_secs": {sss:.6e},
    "overhead_pct": {sop:.4},
    "update_envelope_secs": {sue:.6e},
    "direct_query_secs": {sdq:.6e},
    "service_query_secs": {ssq:.6e}
  }},
  "concurrent_throughput": {{
    "n": {cn},
    "k_iters": {ck},
    "duration_secs": {cd:.3},
    "qps_1t": {cq1:.6e},
    "qps_2t": {cq2:.6e},
    "qps_4t": {cq4:.6e},
    "speedup_4_vs_1": {csp:.3},
    "writer_updates_per_sec": {cwu:.3},
    "epochs_published": {cep},
    "max_abs_diff_sharded_fused_vs_eager": {cdf:.3e},
    "max_abs_diff_sharded_lazy_vs_eager": {cdl:.3e}
  }},
  "long_lazy_window": {{
    "n": {ln},
    "k_iters": {lk},
    "window": {lw},
    "compress_rank": {lcr},
    "uncompressed_pairs": {lup},
    "compressed_pairs": {lcp},
    "recompressions": {lrc},
    "uncompressed_query_secs": {luq:.6e},
    "compressed_query_secs": {lcq:.6e},
    "long_lazy_query_speedup": {lsp:.3},
    "uncompressed_heap_bytes": {luh},
    "compressed_heap_peak_bytes": {lph},
    "compressed_heap_end_bytes": {leh},
    "max_abs_diff_compressed_vs_uncompressed": {ldf:.3e}
  }},
  "probe_single_source": {{
    "n_small": {pns},
    "n_large": {pnl},
    "k_iters": {pk},
    "query_secs_small": {pqs:.6e},
    "query_secs_large": {pql:.6e},
    "heap_peak_bytes_small": {phs},
    "heap_peak_bytes_large": {phl},
    "probe_heap_growth": {phg:.3},
    "dense_bytes_large": {pdb}
  }},
  "wal_overhead": {{
    "n": {wn},
    "updates": {wu},
    "plain_per_update_secs": {wps:.6e},
    "durable_per_update_secs": {wds:.6e},
    "wal_append_envelope_secs": {wae:.6e},
    "wal_overhead_pct": {wop:.4},
    "wal_bytes_per_op": {wbo:.1}
  }},
  "epoch_ring": {{
    "n": {en},
    "k_iters": {ek},
    "retain": {er},
    "publishes": {ep},
    "ops_per_epoch": {eo},
    "publish_secs": {eps:.6e},
    "reconstruct_pair_secs": {ers:.6e},
    "head_pair_secs": {ehs:.6e},
    "retained_heap_bytes": {ehb},
    "dense_equivalent_bytes": {edb},
    "retained_ratio": {ert:.3},
    "oldest_epoch_drift": {eod:.3e}
  }},
  "epoch_recovery": {{
    "n": {vn},
    "k_iters": {vk},
    "retain": {vr},
    "publishes": {vp},
    "ops_per_epoch": {vo},
    "restored_epochs": {vre},
    "head_image_bytes": {vhb},
    "ring_round_bytes": {vrb},
    "checkpoint_bytes": {vcb},
    "checkpoint_growth": {vcg:.4},
    "head_recover_secs": {vhs:.6e},
    "ring_recover_secs": {vrs:.6e},
    "ring_rehydrate_secs": {vrh:.6e},
    "recovered_drift": {vrd:.3e}
  }}
}}
"#,
        scale = bench_scale(),
        n = modes.n,
        k = modes.k_iters,
        upd = modes.measured_updates,
        eager = modes.eager_per_update_secs,
        fused = modes.fused_per_update_secs,
        fb = modes.fused_batch_per_update_secs,
        lz = modes.lazy_per_update_secs,
        lq = modes.lazy_query_secs,
        lp = modes.lazy_pending_pairs,
        sp = modes.fused_speedup,
        epb = modes.eager_peak_bytes,
        fpb = modes.fused_peak_bytes,
        dfe = modes.max_abs_diff_fused_vs_eager,
        dle = modes.max_abs_diff_lazy_vs_eager,
        mn = micro.n,
        mp = micro.pairs,
        mes = micro.eager_sweeps_secs,
        mfs = micro.fused_apply_secs,
        mps = micro.fused_apply_parallel_secs,
        sn = service.n,
        su = service.updates,
        sq = service.queries_per_update,
        sds = service.direct_secs,
        sss = service.service_secs,
        sop = service.overhead_pct,
        sue = service.update_envelope_secs,
        sdq = service.direct_query_secs,
        ssq = service.service_query_secs,
        cn = concurrent.n,
        ck = concurrent.k_iters,
        cd = concurrent.duration_secs,
        cq1 = concurrent.qps_1t,
        cq2 = concurrent.qps_2t,
        cq4 = concurrent.qps_4t,
        csp = concurrent.speedup_4_vs_1,
        cwu = concurrent.writer_updates_per_sec,
        cep = concurrent.epochs_published,
        cdf = concurrent.max_abs_diff_fused_vs_eager,
        cdl = concurrent.max_abs_diff_lazy_vs_eager,
        ln = long_lazy.n,
        lk = long_lazy.k_iters,
        lw = long_lazy.window,
        lcr = long_lazy.compress_rank,
        lup = long_lazy.uncompressed_pairs,
        lcp = long_lazy.compressed_pairs,
        lrc = long_lazy.recompressions,
        luq = long_lazy.uncompressed_query_secs,
        lcq = long_lazy.compressed_query_secs,
        lsp = long_lazy.long_lazy_query_speedup,
        luh = long_lazy.uncompressed_heap_bytes,
        lph = long_lazy.compressed_heap_peak_bytes,
        leh = long_lazy.compressed_heap_end_bytes,
        ldf = long_lazy.max_abs_diff_compressed_vs_uncompressed,
        pns = probe.n_small,
        pnl = probe.n_large,
        pk = probe.k_iters,
        pqs = probe.query_secs_small,
        pql = probe.query_secs_large,
        phs = probe.heap_peak_bytes_small,
        phl = probe.heap_peak_bytes_large,
        phg = probe.heap_growth,
        pdb = probe.dense_bytes_large,
        wn = wal.n,
        wu = wal.updates,
        wps = wal.plain_per_update_secs,
        wds = wal.durable_per_update_secs,
        wae = wal.wal_append_envelope_secs,
        wop = wal.wal_overhead_pct,
        wbo = wal.wal_bytes_per_op,
        en = epoch.n,
        ek = epoch.k_iters,
        er = epoch.retain,
        ep = epoch.publishes,
        eo = epoch.ops_per_epoch,
        eps = epoch.publish_secs,
        ers = epoch.reconstruct_pair_secs,
        ehs = epoch.head_pair_secs,
        ehb = epoch.retained_heap_bytes,
        edb = epoch.dense_equivalent_bytes,
        ert = epoch.retained_ratio,
        eod = epoch.oldest_epoch_drift,
        vn = recovery.n,
        vk = recovery.k_iters,
        vr = recovery.retain,
        vp = recovery.publishes,
        vo = recovery.ops_per_epoch,
        vre = recovery.restored_epochs,
        vhb = recovery.head_image_bytes,
        vrb = recovery.ring_round_bytes,
        vcb = recovery.checkpoint_bytes,
        vcg = recovery.checkpoint_growth,
        vhs = recovery.head_recover_secs,
        vrs = recovery.ring_recover_secs,
        vrh = recovery.ring_rehydrate_secs,
        vrd = recovery.recovered_drift,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_runs_and_serialises_on_a_tiny_workload() {
        let modes = measure_apply_modes(60, 4, 3);
        assert_eq!(modes.measured_updates, 3);
        assert!(modes.max_abs_diff_fused_vs_eager < 1e-12);
        assert!(modes.max_abs_diff_lazy_vs_eager < 1e-12);
        assert!(modes.lazy_pending_pairs > 0);
        let micro = measure_micro_kernels(64, 5, 2);
        let service = measure_service_overhead(60, 4, 2);
        assert_eq!(service.updates, 2);
        assert!(service.overhead_pct.is_finite());
        assert!(service.direct_secs > 0.0 && service.service_secs > 0.0);
        let concurrent = measure_concurrent_throughput(48, 4, 2, 0.02);
        assert!(concurrent.qps_1t > 0.0 && concurrent.qps_4t > 0.0);
        assert!(concurrent.epochs_published > 0);
        assert!(
            concurrent.max_abs_diff_fused_vs_eager < 1e-12,
            "serving fused drift {:.2e}",
            concurrent.max_abs_diff_fused_vs_eager
        );
        assert!(
            concurrent.max_abs_diff_lazy_vs_eager < 1e-12,
            "serving lazy drift {:.2e}",
            concurrent.max_abs_diff_lazy_vs_eager
        );
        let long_lazy = measure_long_lazy_window(56, 4, 12);
        assert_eq!(long_lazy.window, 12);
        assert!(long_lazy.recompressions >= 1, "window must recompress");
        assert!(
            long_lazy.compressed_pairs < long_lazy.uncompressed_pairs,
            "compression must shrink the buffered rank ({} vs {})",
            long_lazy.compressed_pairs,
            long_lazy.uncompressed_pairs
        );
        assert!(
            long_lazy.compressed_heap_peak_bytes < long_lazy.uncompressed_heap_bytes,
            "compressed window must stay under the uncompressed end size"
        );
        assert!(
            long_lazy.max_abs_diff_compressed_vs_uncompressed < 1e-12,
            "compressed window drifted {:.2e}",
            long_lazy.max_abs_diff_compressed_vs_uncompressed
        );
        // The probe case's sub-quadratic heap gate is asserted inside the
        // measurement itself; 4x the node count with a Theta(n^2) matrix
        // would blow straight past the x8 bar.
        let probe = measure_probe_single_source(64, 4);
        assert_eq!(probe.n_large, 256);
        assert!(probe.query_secs_small > 0.0 && probe.query_secs_large > 0.0);
        assert!(probe.heap_peak_bytes_large > probe.heap_peak_bytes_small);
        let wal = measure_wal_overhead(60, 4, 3);
        assert_eq!(wal.updates, 3);
        assert!(wal.wal_overhead_pct.is_finite() && wal.wal_overhead_pct >= 0.0);
        assert!(
            wal.wal_bytes_per_op > 0.0,
            "durable router stopped appending ops"
        );
        // The trajectory-exactness gate is asserted inside the measure at
        // any scale; the 8x sub-quadratic heap gate arms at n >= 1024 (at
        // toy sizes the QR factor overhead eats the margin), so here we
        // only require the ring to undercut dense copies at all.
        let epoch = measure_epoch_ring(128, 4, 4, 8);
        assert_eq!(epoch.retain, 4);
        assert_eq!(epoch.publishes, 6);
        assert!(epoch.oldest_epoch_drift <= 1e-12);
        assert!(
            epoch.retained_ratio > 1.0,
            "ring ({} B) must beat dense ({} B)",
            epoch.retained_heap_bytes,
            epoch.dense_equivalent_bytes
        );
        assert!(epoch.publish_secs > 0.0 && epoch.reconstruct_pair_secs > 0.0);
        // The trajectory gate (restored epochs match their publish-time
        // recordings to 1e-12) is asserted inside the measure; the < 2x
        // growth gate arms at n >= 1024. Here: the reopen must actually
        // rehydrate history, and the round must carry real ring bytes.
        let recovery = measure_epoch_recovery(96, 4, 4, 8);
        assert_eq!(recovery.retain, 4);
        assert!(
            recovery.restored_epochs >= 2,
            "retained reopen restored only {} epoch(s)",
            recovery.restored_epochs
        );
        assert!(recovery.head_image_bytes > 0 && recovery.ring_round_bytes > 0);
        assert_eq!(
            recovery.checkpoint_bytes,
            recovery.head_image_bytes + recovery.ring_round_bytes
        );
        assert!(recovery.checkpoint_growth >= 1.0);
        assert!(recovery.recovered_drift <= 1e-12);
        assert!(recovery.ring_rehydrate_secs >= 0.0);
        let json = snapshot_json(&SnapshotCases {
            modes: &modes,
            micro: &micro,
            service: &service,
            concurrent: &concurrent,
            long_lazy: &long_lazy,
            probe: &probe,
            wal: &wal,
            epoch: &epoch,
            recovery: &recovery,
        });
        assert!(json.contains("\"schema\": \"incsim-bench-snapshot-v8\""));
        assert!(json.contains("fused_speedup"));
        assert!(json.contains("service_overhead"));
        assert!(json.contains("concurrent_throughput"));
        assert!(json.contains("speedup_4_vs_1"));
        assert!(json.contains("long_lazy_window"));
        assert!(json.contains("long_lazy_query_speedup"));
        assert!(json.contains("probe_single_source"));
        assert!(json.contains("probe_heap_growth"));
        assert!(json.contains("wal_overhead"));
        assert!(json.contains("wal_overhead_pct"));
        assert!(json.contains("epoch_ring"));
        assert!(json.contains("retained_ratio"));
        assert!(json.contains("epoch_recovery"));
        assert!(json.contains("checkpoint_growth"));
        assert!(json.contains("ring_rehydrate_secs"));
        // Balanced braces — cheap structural sanity for the hand-rolled JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }
}
