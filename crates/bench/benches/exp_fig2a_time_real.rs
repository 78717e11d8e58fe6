//! **Fig. 2a** — time efficiency of incremental SimRank on (scaled stand-ins
//! of) the real datasets, edges inserted snapshot by snapshot.
//!
//! For each dataset the old graph `G` is the base snapshot; each x-axis
//! point `|E| + |ΔE|` is a later snapshot, and every engine processes the
//! update stream from `G` to that snapshot:
//!
//! * `Inc-SR` / `Inc-uSR` / `Inc-SVD`: mean per-update time is measured on
//!   a stream prefix (caps scale with `INCSIM_BENCH_SCALE`) and
//!   extrapolated to the stream length — the honest way to keep the suite
//!   in minutes; shapes are unaffected (per-update cost is stationary).
//! * `Batch`: one from-scratch recomputation per snapshot.
//!
//! Paper shapes to verify: Inc-SR fastest throughout; Inc-SVD worst of the
//! incremental engines; Batch flat; Inc-SVD absent on YOUTU (memory crash
//! at the paper's full scale — marked `—` here). In the paper Batch
//! overtakes the incremental engines only once `|ΔE|` grows large; on these
//! stand-ins one recomputation already costs less than Inc-SR's
//! extrapolated stream at every snapshot, and by a wider margin on the DAG
//! stand-ins (DBLP, CitH), where the batch sweep skips the entries that no
//! longer change (see `incsim_core::batch`).

use incsim_baselines::{IncSvd, IncSvdOptions};
use incsim_bench::{measure_per_update, scaled_cap, Table};
use incsim_core::{batch_simrank_detailed, BatchOptions, IncSr, IncUSr, SimRankConfig};
use incsim_datagen::{cith_like, dblp_like, youtu_like, Dataset};
use incsim_metrics::timing::{fmt_duration, Stopwatch};
use std::time::Duration;

fn main() {
    println!("== Fig. 2a: time efficiency of incremental SimRank on real-data stand-ins ==\n");
    for (mut ds, k_iters, svd_ok) in [
        (dblp_like(), 15usize, true),
        (cith_like(), 15, true),
        (youtu_like(), 5, false), // paper: K=5 on YOUTU; Inc-SVD memory-crashes
    ] {
        run_dataset(&mut ds, k_iters, svd_ok);
    }
    println!("[ok] Fig. 2a series regenerated.");
}

fn run_dataset(ds: &mut Dataset, k_iters: usize, svd_ok: bool) {
    let cfg = SimRankConfig::new(0.6, k_iters).expect("valid config");
    let name = ds.name;
    let base = ds.base_graph();
    let n = base.node_count();
    let base_edges = base.edge_count();
    println!("-- {name}: n = {n}, base |E| = {base_edges}, K = {k_iters}, C = 0.6 --");

    // Precompute old scores once (the paper's workflow).
    let sw = Stopwatch::start();
    let s_base = batch_simrank_detailed(&base, &cfg, &BatchOptions::default()).scores;
    println!(
        "   batch precompute of S on G: {}",
        fmt_duration(sw.elapsed())
    );

    // Per-update costs measured once from the base state.
    let full_stream = ds.updates_to_increment(ds.increment_times.len() - 1);
    let mut incsr = IncSr::new(base.clone(), s_base.clone(), cfg);
    let m_incsr = measure_per_update(&mut incsr, &full_stream, scaled_cap(40));
    let mut incusr = IncUSr::new(base.clone(), s_base.clone(), cfg);
    let cap_usr = if n > 3000 {
        scaled_cap(6)
    } else {
        scaled_cap(12)
    };
    let m_incusr = measure_per_update(&mut incusr, &full_stream, cap_usr);
    let m_incsvd = if svd_ok {
        let mut engine = IncSvd::new(
            base.clone(),
            cfg,
            IncSvdOptions {
                rank: 5, // the paper's speed-favouring setting
                ..Default::default()
            },
        )
        .expect("Inc-SVD construction");
        Some(measure_per_update(&mut engine, &full_stream, scaled_cap(8)))
    } else {
        None
    };

    let mut table = Table::new(&["|E|+|ΔE|", "Inc-SR", "Inc-uSR", "Inc-SVD", "Batch"]);
    let mut last_ratio_svd = 0.0f64;
    let mut last_ratio_batch = 0.0f64;
    for idx in 0..ds.increment_times.len() {
        let stream = ds.updates_to_increment(idx);
        let target = ds.timeline.snapshot_at(ds.increment_times[idx]);
        let sw = Stopwatch::start();
        let _ = batch_simrank_detailed(&target, &cfg, &BatchOptions::default());
        let batch_secs = sw.secs();

        let t_incsr = m_incsr.extrapolate_secs(stream.len());
        let t_incusr = m_incusr.extrapolate_secs(stream.len());
        let t_incsvd = m_incsvd.as_ref().map(|m| m.extrapolate_secs(stream.len()));
        table.row(vec![
            format!("{}", target.edge_count()),
            fmt_duration(Duration::from_secs_f64(t_incsr)),
            fmt_duration(Duration::from_secs_f64(t_incusr)),
            t_incsvd.map_or_else(
                || "— (mem)".into(),
                |t| fmt_duration(Duration::from_secs_f64(t)),
            ),
            fmt_duration(Duration::from_secs_f64(batch_secs)),
        ]);
        if let Some(t) = t_incsvd {
            last_ratio_svd = t / t_incsr;
        }
        last_ratio_batch = batch_secs / t_incsr;
    }
    table.print();
    print!(
        "   Inc-SR vs Inc-uSR: {:.1}x faster;",
        m_incusr.per_update_secs / m_incsr.per_update_secs
    );
    if svd_ok {
        print!(" vs Inc-SVD: {last_ratio_svd:.1}x;");
    }
    println!(
        " vs Batch at the largest |ΔE|: {:.1}x {}",
        last_ratio_batch.max(1.0 / last_ratio_batch),
        if last_ratio_batch >= 1.0 {
            "faster"
        } else {
            "slower"
        }
    );
    println!();
}
