//! `bench-snapshot` — records the PR's hot-path perf numbers as JSON.
//!
//! ```text
//! bench-snapshot [--out BENCH_PR10.json] [--n 2048] [--k 15] [--cap 20]
//!                [--window 256] [--probe-n 12500] [--retain 8]
//!                [--compare BENCH_PR10.json --tolerance 200]
//! ```
//!
//! Runs the fig2a-style unit-update workload under the eager / fused /
//! lazy apply modes, the isolated micro-kernels, the `service_overhead`
//! case (the `incsim::api` dyn handle vs direct engine calls on an
//! update+query serving workload), the `concurrent_throughput` case
//! (epoch-reader queries/sec at 1/2/4 threads against the
//! `incsim::serve` layer under a saturated background writer), and the
//! `probe_single_source` case (matrix-free single-source latency and
//! peak heap at `--probe-n` and `4 × --probe-n` nodes — sizes no dense
//! engine could touch), the `epoch_ring` case (time-travel reads against
//! the last `--retain` published epochs, checked against the trajectory
//! recorded live at publish time), the `epoch_recovery` case (the v2
//! checkpoint round's on-disk growth over a head-only image and the
//! epoch ring's attributable share of a crash recovery, with every
//! restored epoch checked against its publish-time recording), and
//! writes a machine-readable snapshot (see `incsim_bench::snapshot`).
//!
//! `--compare FILE` additionally gates the run against a committed
//! snapshot: the scale-robust kernel metrics (`fused_speedup`,
//! `lazy_query_secs`, `overhead_pct`, `long_lazy_query_speedup`,
//! `compressed_query_secs`, `query_secs_large`, `probe_heap_growth`,
//! `wal_overhead_pct`, `epoch_retained_ratio`, `epoch_reconstruct_secs`,
//! `checkpoint_growth`, `ring_rehydrate_secs`) must not regress beyond
//! `--tolerance` percent (default 200, i.e. 3×) past their noise floors —
//! see `incsim_bench::compare`. Exactness gates fail hard at any scale,
//! as do the probe engine's sub-quadratic heap-growth gate and the epoch
//! ring's trajectory + retained-heap gates (asserted inside the
//! measurements).
//!
//! Measurement caps honour `INCSIM_BENCH_SCALE`; unlike the full
//! experiment suite the snapshot defaults to a quick `0.2` pass when the
//! variable is unset.

use incsim_bench::compare::{compare, parse_metrics, SnapshotMetrics};
use incsim_bench::snapshot::{
    measure_apply_modes, measure_concurrent_throughput, measure_epoch_recovery, measure_epoch_ring,
    measure_long_lazy_window, measure_micro_kernels, measure_probe_single_source,
    measure_service_overhead, measure_wal_overhead, snapshot_json, SnapshotCases,
};
use incsim_bench::{bench_scale, scaled_cap};
use incsim_metrics::timing::fmt_duration;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    if std::env::var("INCSIM_BENCH_SCALE").is_err() {
        std::env::set_var("INCSIM_BENCH_SCALE", "0.2");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench-snapshot [--out FILE] [--n N] [--k K] [--cap UPDATES] \
                 [--window W] [--probe-n N] [--retain E] [--min-speedup X] \
                 [--max-overhead PCT] [--compare FILE] [--tolerance PCT]"
            );
            ExitCode::FAILURE
        }
    }
}

const FLAGS: &[&str] = &[
    "--out",
    "--n",
    "--k",
    "--cap",
    "--window",
    "--probe-n",
    "--retain",
    "--min-speedup",
    "--max-overhead",
    "--compare",
    "--tolerance",
];

/// Rejects anything that is not a known `--flag value` pair, so a typo'd
/// or `--flag=value`-style argument fails loudly instead of silently
/// running (and gating) the default workload.
fn validate_args(args: &[String]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        if !FLAGS.contains(&args[i].as_str()) {
            return Err(format!("unknown argument {}", args[i]));
        }
        if i + 1 >= args.len() {
            return Err(format!("flag {} expects a value", args[i]));
        }
        i += 2;
    }
    Ok(())
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(pos) => args
            .get(pos + 1)
            .ok_or_else(|| format!("flag {name} expects a value"))?
            .parse()
            .map_err(|_| format!("flag {name} has an invalid value")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    validate_args(args)?;
    let out: String = flag(args, "--out", "BENCH_PR10.json".to_string())?;
    let n: usize = flag(args, "--n", 2048usize)?;
    let k: usize = flag(args, "--k", 15usize)?;
    let base_cap: usize = flag(args, "--cap", 20usize)?;
    let base_window: usize = flag(args, "--window", 256usize)?;
    // The probe case holds no n x n matrix, so its default size is an
    // order of magnitude past the dense cases: 12_500 -> 50_000 nodes at
    // full scale (scaled like every other cap on smoke runs).
    let base_probe_n: usize = flag(args, "--probe-n", 12_500usize)?;
    // Ring capacity for the temporal epoch-store case; never scaled
    // (the ring must fill and evict for the gates to mean anything).
    let retain: usize = flag(args, "--retain", 8usize)?;
    // Timing gates for the full-size run; 0.0 (the defaults) only warn —
    // small smoke runs are too noisy to fail on wall-clock.
    let min_speedup: f64 = flag(args, "--min-speedup", 0.0f64)?;
    let max_overhead: f64 = flag(args, "--max-overhead", 0.0f64)?;
    let compare_path: String = flag(args, "--compare", String::new())?;
    let tolerance_pct: f64 = flag(args, "--tolerance", 200.0f64)?;
    let cap = scaled_cap(base_cap);

    println!(
        "== bench-snapshot: n = {n}, K = {k}, {cap} unit updates per mode (scale {}) ==",
        bench_scale()
    );
    let modes = measure_apply_modes(n, k, cap);
    let per = |secs: f64| fmt_duration(Duration::from_secs_f64(secs));
    println!(
        "   eager       : {}/update",
        per(modes.eager_per_update_secs)
    );
    println!(
        "   fused       : {}/update  ({:.1}x vs eager)",
        per(modes.fused_per_update_secs),
        modes.fused_speedup
    );
    println!(
        "   fused batch : {}/update",
        per(modes.fused_batch_per_update_secs)
    );
    println!(
        "   lazy        : {}/update, {}/pair-query, {} pairs pending",
        per(modes.lazy_per_update_secs),
        per(modes.lazy_query_secs),
        modes.lazy_pending_pairs
    );
    println!(
        "   exactness   : fused {:.2e}, lazy {:.2e} (max |Δ| vs eager)",
        modes.max_abs_diff_fused_vs_eager, modes.max_abs_diff_lazy_vs_eager
    );

    let micro = measure_micro_kernels(600, k + 1, 3.max(cap / 4));
    println!(
        "   micro (n=600, {} pairs): eager sweeps {}, fused {} (serial), {} (parallel)",
        micro.pairs,
        per(micro.eager_sweeps_secs),
        per(micro.fused_apply_secs),
        per(micro.fused_apply_parallel_secs)
    );

    let service = measure_service_overhead(n, k, cap);
    println!(
        "   service     : attributable overhead {:.3}% per step ({} updates x {} queries; \
         envelope {}/update, query {} direct vs {} via api; wall-clock A/B {} vs {})",
        service.overhead_pct,
        service.updates,
        service.queries_per_update,
        per(service.update_envelope_secs),
        per(service.direct_query_secs),
        per(service.service_query_secs),
        per(service.direct_secs),
        per(service.service_secs),
    );

    // Concurrent serving: qps at 1/2/4 reader threads with a saturated
    // writer, plus serving-path exactness on a graph of 4 disjoint
    // components. Dimension n/2 keeps the extra batch precompute a
    // fraction of the apply-modes one.
    let duration = (2.0 * bench_scale()).max(0.04);
    let concurrent = measure_concurrent_throughput(n / 2, k, 4, duration);
    println!(
        "   concurrent  : {:.2e} q/s @1t, {:.2e} @2t, {:.2e} @4t ({:.2}x 4t vs 1t; \
         writer {:.0} upd/s, {} epochs)",
        concurrent.qps_1t,
        concurrent.qps_2t,
        concurrent.qps_4t,
        concurrent.speedup_4_vs_1,
        concurrent.writer_updates_per_sec,
        concurrent.epochs_published,
    );
    println!(
        "   epochs      : fused {:.2e}, lazy {:.2e} (max |Δ| vs eager through epochs)",
        concurrent.max_abs_diff_fused_vs_eager, concurrent.max_abs_diff_lazy_vs_eager
    );

    // Long lazy window: recompression holds query cost at O(numerical
    // rank) and the buffer memory at a plateau. Dimension n/8 keeps the
    // case's batch precompute and its recompression passes (which hit
    // the rank ≤ n cap on a long window) marginal next to the
    // apply-modes workload; the window length rides the measurement
    // scale like every other cap.
    let window = scaled_cap(base_window);
    let long_lazy = measure_long_lazy_window(n / 8, k, window);
    println!(
        "   long lazy   : {} updates -> {} pairs raw vs {} compressed ({} recompressions); \
         query {} vs {} ({:.1}x)",
        long_lazy.window,
        long_lazy.uncompressed_pairs,
        long_lazy.compressed_pairs,
        long_lazy.recompressions,
        per(long_lazy.uncompressed_query_secs),
        per(long_lazy.compressed_query_secs),
        long_lazy.long_lazy_query_speedup,
    );
    println!(
        "   lazy memory : raw {} at window end vs compressed peak {} / end {}; \
         drift {:.2e}",
        incsim_metrics::timing::fmt_bytes(long_lazy.uncompressed_heap_bytes),
        incsim_metrics::timing::fmt_bytes(long_lazy.compressed_heap_peak_bytes),
        incsim_metrics::timing::fmt_bytes(long_lazy.compressed_heap_end_bytes),
        long_lazy.max_abs_diff_compressed_vs_uncompressed,
    );

    // Matrix-free probe serving at sizes no dense engine could touch.
    // The sub-quadratic heap gate is asserted inside the measurement.
    let probe_n = scaled_cap(base_probe_n).max(64);
    let probe = measure_probe_single_source(probe_n, k);
    println!(
        "   probe       : single-source {} @ n={} vs {} @ n={} ({} walks); \
         peak heap {} -> {} (x{:.1} for 4x nodes; dense matrix would need {})",
        per(probe.query_secs_small),
        probe.n_small,
        per(probe.query_secs_large),
        probe.n_large,
        probe.walks,
        incsim_metrics::timing::fmt_bytes(probe.heap_peak_bytes_small),
        incsim_metrics::timing::fmt_bytes(probe.heap_peak_bytes_large),
        probe.heap_growth,
        incsim_metrics::timing::fmt_bytes(probe.dense_bytes_large),
    );

    // Durability tax: the WAL append cost on the serving write path,
    // paired against an identical log-free router. Contract: < 5% of the
    // per-update cost at full scale.
    let wal = measure_wal_overhead(n, k, cap);
    println!(
        "   wal         : {} plain vs {} durable per update; append envelope {} \
         ({:.3}% tax, {:.0} log bytes/op)",
        per(wal.plain_per_update_secs),
        per(wal.durable_per_update_secs),
        per(wal.wal_append_envelope_secs),
        wal.wal_overhead_pct,
        wal.wal_bytes_per_op,
    );

    // Temporal epoch ring: time-travel reads against the last `retain`
    // published epochs. The exactness gate (oldest-epoch trajectory to
    // 1e-12) and the sub-quadratic retained-heap gate (8x under dense at
    // n >= 1024) are asserted inside the measurement.
    let epoch = measure_epoch_ring(n, k, retain.max(2), cap.max(retain));
    println!(
        "   epoch ring  : {} epochs x {} ops, publish {} each; oldest pair_at {} \
         (head read {}); retained {} vs dense {} ({:.0}x compressed, drift {:.1e})",
        epoch.publishes,
        epoch.ops_per_epoch,
        per(epoch.publish_secs),
        per(epoch.reconstruct_pair_secs),
        per(epoch.head_pair_secs),
        incsim_metrics::timing::fmt_bytes(epoch.retained_heap_bytes),
        incsim_metrics::timing::fmt_bytes(epoch.dense_equivalent_bytes),
        epoch.retained_ratio,
        epoch.oldest_epoch_drift,
    );

    // Persistent epoch ring: the v2 checkpoint round's on-disk growth
    // over a head-only image and the ring's share of a crash recovery.
    // The < 2x growth contract (n >= 1024) and the restored-trajectory
    // exactness gate are asserted inside the measurement.
    let recovery = measure_epoch_recovery(n, k, retain.max(2), cap.max(retain));
    println!(
        "   epoch recov : v2 round {} = head {} + ring {} ({:.2}x growth); \
         reopen {} head-only vs {} retained (+{} rehydrate, {} epochs restored, \
         drift {:.1e})",
        incsim_metrics::timing::fmt_bytes(recovery.checkpoint_bytes),
        incsim_metrics::timing::fmt_bytes(recovery.head_image_bytes),
        incsim_metrics::timing::fmt_bytes(recovery.ring_round_bytes),
        recovery.checkpoint_growth,
        per(recovery.head_recover_secs),
        per(recovery.ring_recover_secs),
        per(recovery.ring_rehydrate_secs),
        recovery.restored_epochs,
        recovery.recovered_drift,
    );

    std::fs::write(
        &out,
        snapshot_json(&SnapshotCases {
            modes: &modes,
            micro: &micro,
            service: &service,
            concurrent: &concurrent,
            long_lazy: &long_lazy,
            probe: &probe,
            wal: &wal,
            epoch: &epoch,
            recovery: &recovery,
        }),
    )
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("[ok] snapshot written to {out}");

    // Exactness is noise-free at any scale: a nonzero drift means the
    // deferred apply path is wrong, so the gate fails hard — including
    // through the serving path.
    let drift = modes
        .max_abs_diff_fused_vs_eager
        .max(modes.max_abs_diff_lazy_vs_eager);
    if drift > 1e-9 {
        return Err(format!(
            "deferred apply modes drifted {drift:.2e} from eager (tolerance 1e-9)"
        ));
    }
    let serving_drift = concurrent
        .max_abs_diff_fused_vs_eager
        .max(concurrent.max_abs_diff_lazy_vs_eager);
    if serving_drift > 1e-12 {
        return Err(format!(
            "serving path drifted {serving_drift:.2e} from eager (tolerance 1e-12)"
        ));
    }
    // The compressed window answers from the same factor representation
    // as the uncompressed one; drift beyond the default tolerance means
    // the recompression maths is wrong, so this gate fails hard at any
    // scale (like the other exactness gates).
    if long_lazy.max_abs_diff_compressed_vs_uncompressed > 1e-12 {
        return Err(format!(
            "recompressed lazy window drifted {:.2e} from the uncompressed one (tolerance 1e-12)",
            long_lazy.max_abs_diff_compressed_vs_uncompressed
        ));
    }
    // The plateau gate is only meaningful when the window was long
    // enough for at least one recompression; a tiny scaled window runs
    // both sides identically (peak == uncompressed) and must not fail.
    if long_lazy.recompressions == 0 {
        println!(
            "[warn] long-lazy window of {} updates never reached the compress threshold {}; \
             plateau gate skipped",
            long_lazy.window, long_lazy.compress_rank
        );
    } else if long_lazy.compressed_heap_peak_bytes >= long_lazy.uncompressed_heap_bytes {
        return Err(format!(
            "recompression failed to bound the buffer: peak {} vs uncompressed {}",
            long_lazy.compressed_heap_peak_bytes, long_lazy.uncompressed_heap_bytes
        ));
    }
    if bench_scale() >= 1.0 && long_lazy.long_lazy_query_speedup < 2.0 {
        println!(
            "[warn] long-lazy-window query speedup {:.2}x is below the 2x budget",
            long_lazy.long_lazy_query_speedup
        );
    }
    if bench_scale() >= 1.0 && concurrent.speedup_4_vs_1 < 2.0 {
        println!(
            "[warn] concurrent 4-thread speedup {:.2}x is below the 2x serving budget",
            concurrent.speedup_4_vs_1
        );
    }
    if modes.fused_speedup < min_speedup {
        return Err(format!(
            "fused speedup {:.2}x is below the required {min_speedup:.2}x",
            modes.fused_speedup
        ));
    }
    if min_speedup == 0.0 && modes.fused_speedup < 2.0 {
        println!(
            "[warn] fused speedup {:.2}x is below the 2x budget for this workload",
            modes.fused_speedup
        );
    }
    if max_overhead > 0.0 && service.overhead_pct > max_overhead {
        return Err(format!(
            "service-layer overhead {:.2}% exceeds the required < {max_overhead:.2}%",
            service.overhead_pct
        ));
    }
    if max_overhead == 0.0 && service.overhead_pct > 2.0 {
        println!(
            "[warn] service-layer overhead {:.2}% is above the 2% budget for this workload",
            service.overhead_pct
        );
    }
    if bench_scale() >= 1.0 && wal.wal_overhead_pct > 5.0 {
        return Err(format!(
            "write-ahead log overhead {:.2}% exceeds the < 5% durability budget",
            wal.wal_overhead_pct
        ));
    }
    if wal.wal_overhead_pct > 5.0 {
        println!(
            "[warn] write-ahead log overhead {:.2}% is above the 5% budget (smoke scale)",
            wal.wal_overhead_pct
        );
    }

    // Cross-PR regression gate against a committed snapshot.
    if !compare_path.is_empty() {
        let committed_json = std::fs::read_to_string(&compare_path)
            .map_err(|e| format!("cannot read committed snapshot {compare_path}: {e}"))?;
        let committed = parse_metrics(&committed_json);
        // The current side never needs parsing — read the structs.
        let current = SnapshotMetrics {
            fused_speedup: Some(modes.fused_speedup),
            lazy_query_secs: Some(modes.lazy_query_secs),
            overhead_pct: Some(service.overhead_pct),
            long_lazy_query_speedup: Some(long_lazy.long_lazy_query_speedup),
            compressed_query_secs: Some(long_lazy.compressed_query_secs),
            probe_query_secs: Some(probe.query_secs_large),
            probe_heap_growth: Some(probe.heap_growth),
            wal_overhead_pct: Some(wal.wal_overhead_pct),
            epoch_retained_ratio: Some(epoch.retained_ratio),
            epoch_reconstruct_secs: Some(epoch.reconstruct_pair_secs),
            checkpoint_growth: Some(recovery.checkpoint_growth),
            ring_rehydrate_secs: Some(recovery.ring_rehydrate_secs),
        };
        let regressions = compare(&current, &committed, tolerance_pct);
        if regressions.is_empty() {
            println!(
                "[ok] no kernel-timing regression vs {compare_path} \
                 (tolerance {tolerance_pct:.0}%)"
            );
        } else {
            for r in &regressions {
                eprintln!("[regression] {r}");
            }
            return Err(format!(
                "{} kernel metric(s) regressed beyond {tolerance_pct:.0}% vs {compare_path}",
                regressions.len()
            ));
        }
    }
    Ok(())
}
