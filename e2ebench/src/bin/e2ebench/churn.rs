//! `churn-durable`: the default handle on a cyclic graph with durable,
//! retained serving (`.wal(..)`, `.checkpoint_every(16)`,
//! `.retain_epochs(8)`). Each iteration applies an `update_batch` of 4
//! edge toggles, publishes, reads the head (a pair block and a top-10
//! block) and then reads 2 pairs on the oldest retained epoch. The run
//! ends half a checkpoint cadence after a checkpoint round by dropping the
//! handle, which simulates a crash, and reopens the log through the same
//! builder's `.concurrent()`.
//!
//! Flush policy: the system's own. Op frames are written and flushed to
//! the OS at every update; `fsync` happens only at checkpoint and
//! epoch-ring rounds. The log lives in the run's scratch directory inside
//! the checkout, on the checkout's filesystem.

use crate::checks::{self, Tally};
use crate::record::{self, HotReads, HotSet, Ingest, Phase, Recorder};
use crate::{Outcome, Scale};
use incsim::api::SimRankBuilder;
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_toggles_in;
use incsim::graph::{DiGraph, UpdateOp};
use incsim::serve::{ConcurrentSimRank, HistoryStatus};
use incsim::wal::{self, FrameKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Reference-check sites: time-travel reads against their live
/// recordings, the final head against batch recomputation, the recovered
/// head against the pre-crash head, and every restored epoch against its
/// recording.
pub const CHECK_SITES: u64 = 4;

const BATCH_OPS: usize = 4;
const RETAIN: usize = 8;
const CHECKPOINT_EVERY: usize = 16;
const PAIR_AT_READS: usize = 2;

pub struct Size {
    nodes: usize,
    setups: usize,
    reopens: usize,
    reads: HotReads,
    /// The loop runs this many batches, then on to the crash point. Work
    /// is fixed on every workload, and most needed here: the log, and
    /// with it recovery time and peak memory, grows with every op, so a
    /// time-bounded loop would make them depend on the build's speed.
    batches: usize,
    check_rows: usize,
}

impl Size {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                // n = 256: a publish's whole working set (two frozen
                // epochs, their difference and the QR workspace) fits one
                // core's 2 MiB L2. At n = 512 it spills to the L3 that
                // other tenants share, and ingest and freshness moved
                // 35–43 % between runs.
                nodes: 256,
                setups: 9,
                reopens: 3,
                // A top-10 read scans a 256-entry row: 32 passes over the
                // 64 popular nodes take 10–25 ms.
                reads: HotReads::full(32),
                batches: 100,
                check_rows: 16,
            },
            Scale::Toy => Size {
                nodes: 48,
                setups: 2,
                reopens: 2,
                reads: HotReads::TOY,
                batches: 26,
                check_rows: 3,
            },
        }
    }
}

struct Inputs {
    n: usize,
    edges: Vec<(u32, u32)>,
    stream: Vec<UpdateOp>,
    hot: HotSet,
    /// The time-travel targets read at epoch `seq`, indexed by `seq`.
    at_targets: Vec<[(u32, u32); PAIR_AT_READS]>,
    rows: Vec<u32>,
}

/// Everything the run reads, generated from the seed before any timer.
fn inputs(size: &Size, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = size.nodes;
    let base = erdos_renyi(n, 6 * n, &mut rng);
    let mut shadow = base.clone();
    // Room for the batches past `size.batches` that reach the crash point.
    let batches = size.batches + CHECKPOINT_EVERY / BATCH_OPS;
    let stream = random_toggles_in(&mut shadow, 0..n as u32, batches * BATCH_OPS, &mut rng);
    let nn = n as u32;
    let hot = size.reads.targets(nn, &mut rng);
    let mut pair = || (rng.gen_range(0..nn), rng.gen_range(0..nn));
    let at_targets = (0..=batches).map(|_| [pair(), pair()]).collect();
    Inputs {
        n,
        edges: base.edges().collect(),
        stream,
        hot,
        at_targets,
        rows: record::nodes(nn, size.check_rows, &mut rng),
    }
}

fn builder(path: &Path) -> SimRankBuilder {
    SimRankBuilder::new()
        .wal(path)
        .checkpoint_every(CHECKPOINT_EVERY as u64)
        .retain_epochs(RETAIN)
}

/// Bytes of the log by frame class: (ops, checkpoints, epoch ring).
fn frame_bytes(path: &Path) -> Result<(usize, usize, usize), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let kinds = wal::frame_kinds(&bytes);
    let mut sums = (0, 0, 0);
    for (i, &(at, kind)) in kinds.iter().enumerate() {
        let end = kinds.get(i + 1).map_or(bytes.len(), |k| k.0);
        let len = end - at;
        match kind {
            FrameKind::Op | FrameKind::AddNode => sums.0 += len,
            FrameKind::Checkpoint => sums.1 += len,
            FrameKind::EpochMeta | FrameKind::EpochDelta => sums.2 += len,
            FrameKind::Unknown => {}
        }
    }
    Ok(sums)
}

pub fn run(
    size: &Size,
    seed: u64,
    perturb: bool,
    rec: &mut Recorder,
    work: &Path,
) -> Result<Outcome, String> {
    let inp = inputs(size, seed);
    let cfg = SimRankConfig::paper_default();
    let mut o = Outcome::default();
    let mut tally = Tally::default();
    let bump = |i: usize, v: f64| {
        if perturb && i == 0 {
            v + checks::PERTURBATION
        } else {
            v
        }
    };

    // Setup, repeated, each on a fresh log: edge list → first published
    // epoch, base checkpoint and ring round fsynced. The last serves.
    rec.begin_phase(Phase::Setup);
    let mut setup_s = Vec::new();
    let mut kept: Option<(ConcurrentSimRank, std::path::PathBuf)> = None;
    for k in 0..size.setups {
        rec.set_batch(k as u64);
        if let Some((old, old_path)) = kept.take() {
            drop(old);
            let _ = std::fs::remove_file(old_path);
        }
        let path = work.join(format!("setup-{k}.wal"));
        let b = builder(&path);
        let (g, edges) = rec.call("from_edges", || DiGraph::from_edges(inp.n, &inp.edges));
        let (built, terminal) = rec.call("concurrent", || b.concurrent(g));
        tally.result(&built);
        setup_s.push((terminal.end - edges.start).as_secs_f64());
        kept = Some((built.map_err(|e| format!("setup: {e}"))?, path));
    }
    rec.end_phase();
    let (mut srv, path) = kept.ok_or("no setup ran")?;
    let reader = srv.reader();

    // Live values of each epoch's time-travel targets, recorded as it is
    // published (bookkeeping between timed calls).
    let mut recorded: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut record_epoch = |seq: u64, epoch: &incsim::serve::Epoch| {
        let vals = inp.at_targets[seq as usize]
            .iter()
            .map(|&(a, b)| epoch.pair(a, b))
            .collect();
        recorded.insert(seq, vals);
    };
    record_epoch(srv.epoch_seq(), &reader.epoch());

    // The closed loop.
    let before = srv.counters();
    rec.begin_phase(Phase::Ingest);
    let mut ing = Ingest::default();
    let mut checkpoint_update_ms = Vec::new();
    let mut pair_at_ms = Vec::new();
    let mut pair_at_answers: Vec<(u64, usize, Result<f64, incsim::serve::ServeError>)> = Vec::new();
    let mut since_checkpoint = 0usize;
    let mut batch = 0usize;
    loop {
        rec.set_batch(batch as u64);
        let ops = &inp.stream[batch * BATCH_OPS..(batch + 1) * BATCH_OPS];
        let rounds = srv.counters().checkpoints;
        let (r, call) = rec.call("update_batch", || srv.update_batch(ops));
        tally.result(&r);
        ing.updated(call, ops.len(), r.as_deref().unwrap_or_default());
        if srv.counters().checkpoints > rounds {
            checkpoint_update_ms.push(call.secs() * 1e3);
            since_checkpoint = 0;
        } else {
            since_checkpoint += ops.len();
        }
        let (seq, call) = rec.call("publish", || srv.publish());
        tally.reads(1);
        ing.published(call);
        let epoch = reader.epoch();
        record_epoch(seq, &epoch);
        size.reads.read(&inp.hot, &epoch, rec, &mut ing, &mut tally);
        let oldest = seq.saturating_sub(RETAIN as u64 - 1);
        let targets = inp.at_targets[oldest as usize];
        let (answers, call) = rec.call("pair_at_block", || {
            targets
                .iter()
                .map(|&(a, b)| srv.pair_at(a, b, oldest))
                .collect::<Vec<_>>()
        });
        pair_at_ms.push(call.secs() * 1e3 / targets.len() as f64);
        pair_at_answers.extend(answers.into_iter().enumerate().map(|(k, r)| (oldest, k, r)));
        batch += 1;

        let at_crash_point = since_checkpoint == CHECKPOINT_EVERY / 2;
        let out_of_stream = (batch + 1) * BATCH_OPS > inp.stream.len();
        if (at_crash_point && batch >= size.batches) || out_of_stream {
            break;
        }
    }
    rec.end_phase();
    let after = srv.counters();
    ing.fill(&mut o, &before, &after);
    o.set("setup_s", record::median(&setup_s));
    o.set("pair_at_p50_ms", record::median(&pair_at_ms));
    o.set("pair_at_p90_ms", record::p90(&pair_at_ms));
    o.set("serve.pair_at_ms.p50", record::median(&pair_at_ms));
    o.set("count.pair_at_reads", pair_at_answers.len() as f64);
    o.set(
        "wal.checkpoint_update_ms",
        record::median(&checkpoint_update_ms),
    );
    o.set(
        "serve.epoch_reconstructions",
        after
            .epoch_reconstructions
            .saturating_sub(before.epoch_reconstructions) as f64,
    );
    o.set(
        "serve.epoch_evictions",
        after.epoch_evictions.saturating_sub(before.epoch_evictions) as f64,
    );
    o.set("serve.ring_bytes", srv.retained_heap_bytes() as f64);
    o.set("wal.appends", after.wal_appends as f64);
    o.set("wal.checkpoints", after.checkpoints as f64);

    // Checks on the live run: every time-travel read against the value
    // recorded when its epoch was published, and the final head against
    // batch recomputation on the benchmark's shadow graph.
    for (i, (seq, k, r)) in pair_at_answers.iter().enumerate() {
        let want = recorded.get(seq).and_then(|v| v.get(*k)).copied();
        let err = match (r, want) {
            (Ok(got), Some(want)) => (bump(i, *got) - want).abs(),
            _ => f64::INFINITY,
        };
        o.margins
            .judge(&mut tally, "pair_at_vs_recorded", err, checks::EXACT_TOL);
    }
    let mut shadow = DiGraph::from_edges(inp.n, &inp.edges);
    for op in &inp.stream[..ing.ops()] {
        op.apply(&mut shadow)
            .map_err(|e| format!("shadow graph: {e:?}"))?;
    }
    let truth = batch_simrank(&shadow, &cfg);
    let head = reader.epoch();
    let pre_crash: Vec<Vec<f64>> = inp
        .rows
        .iter()
        .map(|&a| checks::epoch_row(&head, a))
        .collect();
    for (i, (&a, row)) in inp.rows.iter().zip(&pre_crash).enumerate() {
        let mut got = row.clone();
        got[0] = bump(i, got[0]);
        o.margins.judge(
            &mut tally,
            "head_vs_batch",
            checks::row_error(&got, &checks::matrix_row(&truth, a)),
            checks::CYCLIC_HEAD_TOL,
        );
    }

    // The log's size at the crash point, then the crash.
    let disk = std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    o.set("disk_mb", disk.len() as f64 / (1024.0 * 1024.0));
    drop(head);
    drop(reader);
    drop(srv);

    // Restart, repeated: edge list → a serving handle with its history
    // restored from the log. The last one is checked.
    rec.begin_phase(Phase::Recover);
    let b = builder(&path);
    let mut reopen_s = Vec::new();
    let mut recovered = None;
    for k in 0..size.reopens {
        rec.set_batch(k as u64);
        drop(recovered.take());
        let (g, edges) = rec.call("from_edges", || DiGraph::from_edges(inp.n, &inp.edges));
        let (r, call) = rec.call("concurrent", || b.clone().concurrent(g));
        tally.result(&r);
        reopen_s.push((call.end - edges.start).as_secs_f64());
        recovered = r.ok();
    }
    rec.end_phase();
    o.set("peak_rss_mb", record::peak_rss_mb());
    let recover_s = record::median(&reopen_s);
    o.set("recover_s", recover_s);

    // Checks on the recovered handle: its head against the pre-crash head,
    // and every restored epoch against the values recorded live.
    match &recovered {
        Some(srv) => {
            let head = srv.reader().epoch();
            for (i, (&a, want)) in inp.rows.iter().zip(&pre_crash).enumerate() {
                let mut got = checks::epoch_row(&head, a);
                got[0] = bump(i, got[0]);
                o.margins.judge(
                    &mut tally,
                    "recovered_head",
                    checks::row_error(&got, want),
                    checks::EXACT_TOL,
                );
            }
            tally.check(matches!(
                srv.history_status(),
                HistoryStatus::Recovered { .. }
            ));
            let restored: Vec<u64> = srv
                .epochs()
                .iter()
                .map(|e| e.seq)
                .filter(|&s| s != head.seq())
                .collect();
            tally.check(!restored.is_empty());
            let mut i = 0;
            for seq in restored {
                let Some(want) = recorded.get(&seq) else {
                    tally.check(false);
                    continue;
                };
                for (&(a, b), &w) in inp.at_targets[seq as usize].iter().zip(want) {
                    let err = srv
                        .pair_at(a, b, seq)
                        .map_or(f64::INFINITY, |v| (bump(i, v) - w).abs());
                    o.margins
                        .judge(&mut tally, "restored_epochs", err, checks::EXACT_TOL);
                    i += 1;
                }
            }
        }
        // Nothing to check: each check site counts as failed.
        None => (0..CHECK_SITES - 2).for_each(|_| tally.check(false)),
    }
    drop(recovered);

    // Split calls, traced run only, after the timed phases and the peak
    // memory reading: the terminal's two halves (on a fresh log), the log
    // decode and engine rebuild the reopen runs, each timed on its own,
    // and the crashed log's bytes by frame class.
    if rec.traced() {
        let (op_bytes, checkpoint_bytes, epoch_bytes) = frame_bytes(&path)?;
        o.set("wal.op_bytes", op_bytes as f64);
        o.set("wal.checkpoint_bytes", checkpoint_bytes as f64);
        o.set("wal.epoch_bytes", epoch_bytes as f64);
        let base = DiGraph::from_edges(inp.n, &inp.edges);
        let fresh = builder(&work.join("split.wal"));
        let (batch_s, build_s) = record::split_terminal(fresh, base, &cfg, &mut tally)?;
        let t = Instant::now();
        let log = wal::read_log(&path);
        let read_log_s = t.elapsed().as_secs_f64();
        tally.result(&log);
        let log = log.map_err(|e| format!("read_log: {e}"))?;
        let t = Instant::now();
        let rebuilt = wal::rebuild_engine(&b, &log, Some(0));
        let rebuild_s = t.elapsed().as_secs_f64();
        tally.result(&rebuilt);
        let rebuilt = rebuilt.map_err(|e| format!("rebuild_engine: {e}"))?;
        o.set("core.batch_s", batch_s);
        o.set("serve.build_s", build_s);
        o.set("wal.read_log_s", read_log_s);
        o.set("wal.rebuild_s", rebuild_s);
        o.set("wal.replayed_ops", rebuilt.replayed_ops as f64);
        o.set(
            "serve.rehydrate_s",
            recover_s - batch_s - read_log_s - rebuild_s,
        );
    }
    o.tally = tally;
    Ok(o)
}
