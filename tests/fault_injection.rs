//! Fault-injection suite for the durability layer (`incsim::wal`) and the
//! serving layer's crash containment (`incsim::serve`).
//!
//! The central property is **crash-point recovery**: a durable handle can
//! be killed at *any* byte of its write-ahead log — every frame boundary
//! and arbitrary intra-frame offsets — and `recover + resubmit the lost
//! suffix` lands within 1e-12 of the uncrashed trajectory for every exact
//! engine × apply policy, and bit-identically for the matrix-free probe
//! engine under pinned seeds. Random byte-level faults (bit flips,
//! checksum corruption, short reads) must degrade to the same shape:
//! recovery yields a valid durable *prefix* or a typed error — never a
//! panic, never silent corruption.

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::{batch_simrank, ProbeOptions, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::rmat::{rmat, RmatParams};
use incsim::datagen::updates::random_mixed;
use incsim::graph::{DiGraph, UpdateOp};
use incsim::serve::{Health, ReadStatus, ServeError, ShardedSimRank};
use incsim::wal::faults::{apply_fault, ApplyFaults, Fault, FaultPlan};
use incsim::wal::{self, WalError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("incsim_faultinj_{}_{name}.wal", std::process::id()));
    p
}

fn cfg() -> SimRankConfig {
    SimRankConfig::new(0.6, 40).unwrap()
}

/// A durable run over `ops`, plus everything a crash sweep
/// needs to judge a recovery: the final WAL image and the uncrashed
/// trajectory's full pair matrix.
struct SweepFixture {
    ops: Vec<UpdateOp>,
    bytes: Vec<u8>,
    truth: Vec<f64>,
    n: usize,
}

fn build_fixture(
    kind: EngineKind,
    policy: ApplyPolicy,
    graph: DiGraph,
    ops: Vec<UpdateOp>,
    tag: &str,
) -> SweepFixture {
    let scores = batch_simrank(&graph, &cfg());
    let base = SimRankBuilder::new()
        .algorithm(kind)
        .mode(policy)
        .config(cfg());

    // Uncrashed trajectory.
    let mut truth = base
        .clone()
        .with_scores(graph.clone(), scores.clone())
        .unwrap();
    for &op in &ops {
        truth.update(op).unwrap();
    }
    let n = graph.node_count();
    let mut flat = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            flat[a * n + b] = truth.pair(a as u32, b as u32);
        }
    }

    // The same stream through a durable router with a short checkpoint
    // cadence, so mid-log checkpoints participate in the sweep.
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    {
        let mut durable = ShardedSimRank::with_scores(
            base.clone().wal(&path).checkpoint_every(5),
            graph.clone(),
            scores,
        )
        .unwrap();
        for &op in &ops {
            durable.update(op).unwrap();
        }
        let counters = durable.counters();
        assert_eq!(counters.wal_appends, ops.len() as u64);
        // One base checkpoint plus a cadence checkpoint per 5 ops.
        assert!(
            counters.checkpoints > ops.len() as u64 / 5,
            "cadence checkpoints missing: {counters:?}"
        );
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    SweepFixture {
        ops,
        bytes,
        truth: flat,
        n,
    }
}

fn er_stream(n: usize, edges: usize, count: usize, seed: u64) -> (DiGraph, Vec<UpdateOp>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(n, edges, &mut rng);
    let ops = random_mixed(&graph, count, 0.7, &mut rng);
    (graph, ops)
}

/// Damages the fixture's log with `fault`, recovers, resubmits whatever
/// suffix of the stream did not survive, and checks the result against
/// the uncrashed trajectory. Returns the damaged image's durable op count
/// for callers that want to assert sweep coverage.
fn check_recovery(fx: &SweepFixture, builder: &SimRankBuilder, fault: Fault, tol: f64) -> u64 {
    let damaged = apply_fault(&fx.bytes, fault);
    let log = match wal::read_records(&damaged) {
        Ok(log) => log,
        Err(WalError::BadMagic) => {
            // Only a fault inside the 8-byte magic can produce this.
            return 0;
        }
        Err(e) => panic!("recovery must fail typed, got unexpected {e} for {fault:?}"),
    };
    let rebuilt = match wal::rebuild_engine(builder, &log, None) {
        Ok(r) => r,
        Err(WalError::NoCheckpoint) => {
            // Legal only when the fault destroyed every checkpoint frame.
            assert!(
                log.newest_checkpoint().is_none(),
                "NoCheckpoint despite a usable checkpoint, fault {fault:?}"
            );
            return 0;
        }
        Err(e) => panic!("recovery must not fail on a valid prefix: {e} for {fault:?}"),
    };
    let k = log.last_seq() as usize;
    assert!(k <= fx.ops.len(), "log claims more ops than were written");
    assert_eq!(rebuilt.last_seq, k as u64);

    // The client resubmits the ops the crash swallowed.
    let mut sim = rebuilt.sim;
    assert_eq!(sim.counters().replayed_ops, rebuilt.replayed_ops);
    for &op in &fx.ops[k..] {
        sim.update(op).unwrap();
    }
    for a in 0..fx.n {
        for b in 0..fx.n {
            let got = sim.pair(a as u32, b as u32);
            let want = fx.truth[a * fx.n + b];
            assert!(
                (got - want).abs() <= tol,
                "s({a},{b}) diverged after {fault:?}: {got} vs {want} \
                 (durable prefix {k} of {} ops)",
                fx.ops.len()
            );
        }
    }
    k as u64
}

/// Cuts the log at every frame boundary (the canonical crash points: a
/// crash between two atomic appends) and at a probe of intra-frame
/// offsets, checking recovery at each.
fn crash_sweep(kind: EngineKind, policy: ApplyPolicy, tag: &str) {
    let (graph, ops) = er_stream(12, 30, 18, 0xD0C5);
    let fx = build_fixture(kind, policy, graph, ops, tag);
    let builder = SimRankBuilder::new()
        .algorithm(kind)
        .mode(policy)
        .config(cfg());

    let offsets = wal::frame_offsets(&fx.bytes);
    // Base checkpoint + one frame per op + cadence checkpoints + sentinel.
    assert!(offsets.len() > fx.ops.len() + 1, "sweep lost crash points");
    let mut prefixes = Vec::new();
    for &cut in &offsets {
        prefixes.push(check_recovery(
            &fx,
            &builder,
            Fault::TornWrite { cut },
            1e-12,
        ));
    }
    // The sweep visited every durable prefix length, not just a few.
    for k in 0..=fx.ops.len() as u64 {
        assert!(prefixes.contains(&k), "no crash point exposed prefix {k}");
    }
    // A handful of mid-frame cuts: same property, the torn frame is lost.
    for &boundary in offsets.iter().take(6) {
        check_recovery(&fx, &builder, Fault::TornWrite { cut: boundary + 3 }, 1e-12);
    }
}

#[test]
fn crash_points_recover_incsr_eager() {
    crash_sweep(EngineKind::IncSr, ApplyPolicy::Eager, "incsr_eager");
}

#[test]
fn crash_points_recover_incsr_lazy() {
    crash_sweep(EngineKind::IncSr, ApplyPolicy::Lazy, "incsr_lazy");
}

#[test]
fn crash_points_recover_incsr_fused() {
    crash_sweep(EngineKind::IncSr, ApplyPolicy::Fused, "incsr_fused");
}

#[test]
fn crash_points_recover_incsr_auto() {
    crash_sweep(EngineKind::IncSr, ApplyPolicy::Auto, "incsr_auto");
}

/// The same sweep on an R-MAT stream — skewed degrees, so checkpoints and
/// replays cross hub nodes rather than the ER near-uniform case.
#[test]
fn crash_points_recover_on_rmat() {
    let mut rng = StdRng::seed_from_u64(0x12A7);
    let graph = rmat(4, 40, &RmatParams::default(), &mut rng);
    let ops = random_mixed(&graph, 14, 0.6, &mut rng);
    let fx = build_fixture(EngineKind::IncSr, ApplyPolicy::Auto, graph, ops, "rmat");
    let builder = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Auto)
        .config(cfg());
    for &cut in &wal::frame_offsets(&fx.bytes) {
        check_recovery(&fx, &builder, Fault::TornWrite { cut }, 1e-12);
    }
}

/// The probe engine keeps no matrix: its durable state *is* the graph,
/// and checkpoints fall back to graph-only images. Recovery + resubmit
/// must reproduce the uncrashed graph exactly, and with the seed pinned a
/// fixed query sequence answers bit-identically.
#[test]
fn probe_recovery_is_seed_identical() {
    let mut rng = StdRng::seed_from_u64(0x9B0B);
    let graph = erdos_renyi(16, 48, &mut rng);
    let ops = random_mixed(&graph, 12, 0.7, &mut rng);
    let c = SimRankConfig::new(0.6, 10).unwrap();
    let opts = ProbeOptions {
        seed: 0xFEED_5EED,
        ..Default::default()
    };
    let base = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .probe_options(opts)
        .config(c);

    let path = tmp("probe");
    let _ = std::fs::remove_file(&path);
    {
        let mut durable = ShardedSimRank::with_scores(
            base.clone().wal(&path).checkpoint_every(4),
            graph.clone(),
            batch_simrank(&graph, &c),
        )
        .unwrap();
        for &op in &ops {
            durable.update(op).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The uncrashed endpoint: the full stream applied to the start graph.
    let mut final_graph = graph.clone();
    for &op in &ops {
        op.apply(&mut final_graph).unwrap();
    }
    let offsets = wal::frame_offsets(&bytes);
    for &cut in [
        offsets[1],
        offsets[offsets.len() / 2],
        *offsets.last().unwrap(),
    ]
    .iter()
    {
        // Fresh per cut: probe answers are a function of (graph, seed,
        // query-call index), so both sides must start the same sequence.
        let reference = base.clone().from_graph(final_graph.clone()).unwrap();
        let log = wal::read_records(&apply_fault(&bytes, Fault::TornWrite { cut })).unwrap();
        let rebuilt = wal::rebuild_engine(&base, &log, None).unwrap();
        let k = log.last_seq() as usize;
        let mut sim = rebuilt.sim;
        for &op in &ops[k..] {
            sim.update(op).unwrap();
        }
        assert_eq!(sim.graph().edge_count(), final_graph.edge_count());
        for v in 0..final_graph.node_count() as u32 {
            assert_eq!(sim.graph().in_degree(v), final_graph.in_degree(v));
        }
        // Identical query sequence, pinned seed: bit-identical answers.
        for (a, b) in [(0u32, 1u32), (3, 7), (7, 3), (12, 5)] {
            assert_eq!(
                sim.pair(a, b).to_bits(),
                reference.pair(a, b).to_bits(),
                "probe answer for ({a},{b}) drifted at cut {cut}"
            );
        }
    }
}

// ---- v2 epoch-ring crash sweep ------------------------------------------

/// Everything the ring sweep needs to judge a recovered incarnation: the
/// pre-crash log image, the probe values of every epoch recorded *at
/// publish time* (an epoch's scores are fixed once published, so these
/// stay ground truth for any durable prefix), and the top-movers between
/// consecutive publishes.
struct RingFixture {
    graph: DiGraph,
    bytes: Vec<u8>,
    probes: std::collections::BTreeMap<u64, Vec<f64>>,
    movers: Vec<(u64, u64, Vec<incsim::serve::Mover>)>,
}

const RING_PROBES: [(u32, u32); 4] = [(0, 1), (4, 5), (1, 3), (2, 6)];

fn build_ring_fixture(builder: &SimRankBuilder, tag: &str) -> RingFixture {
    let (graph, ops) = er_stream(12, 30, 18, 0x21C5);
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    let mut live = builder
        .clone()
        .wal(&path)
        .concurrent(graph.clone())
        .unwrap();

    let probe = |srv: &incsim::serve::ConcurrentSimRank, e: u64| -> Vec<f64> {
        RING_PROBES
            .iter()
            .map(|&(a, b)| srv.pair_at(a, b, e).unwrap())
            .collect()
    };
    let mut probes = std::collections::BTreeMap::new();
    let mut movers = Vec::new();
    probes.insert(0, probe(&live, 0));
    let mut prev = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        live.update(op).unwrap();
        if i % 3 == 2 {
            let e = live.publish();
            probes.insert(e, probe(&live, e));
            // Matrix-free engines type-reject mover scans; pair probes
            // are the trajectory there.
            if let Ok(m) = live.top_movers(prev, e, 5) {
                movers.push((prev, e, m));
            }
            prev = e;
        }
    }
    drop(live);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    RingFixture {
        graph,
        bytes,
        probes,
        movers,
    }
}

/// Recovers `image` into a fresh serving layer and checks every restored
/// pre-crash epoch (the renumbered head aside — its content is the
/// durable op prefix, not any published epoch) against the publish-time
/// trajectory. `tol == 0.0` demands bit-identical answers.
fn check_ring_recovery(
    fx: &RingFixture,
    builder: &SimRankBuilder,
    image: &[u8],
    tag: &str,
    tol: f64,
) {
    use incsim::serve::HistoryStatus;
    let path = tmp(tag);
    std::fs::write(&path, image).unwrap();
    let recovered = builder
        .clone()
        .wal(&path)
        .concurrent(fx.graph.clone())
        .unwrap();
    match recovered.history_status() {
        HistoryStatus::Live
        | HistoryStatus::Recovered { .. }
        | HistoryStatus::Unavailable { .. } => {}
    }
    let head = recovered.epoch_seq();
    // The head always answers, whatever happened to history.
    for &(a, b) in &RING_PROBES {
        recovered.pair_at(a, b, head).unwrap();
    }
    let restored: Vec<u64> = recovered
        .epochs()
        .iter()
        .map(|e| e.seq)
        .filter(|&s| s != head)
        .collect();
    for &seq in &restored {
        let Some(want) = fx.probes.get(&seq) else {
            // Seq 0 of the attach round is the initial state; every other
            // restored seq must have been published pre-crash.
            panic!("restored epoch {seq} was never published pre-crash");
        };
        for (&(a, b), &w) in RING_PROBES.iter().zip(want) {
            let got = recovered.pair_at(a, b, seq).unwrap();
            if tol == 0.0 {
                assert_eq!(
                    got.to_bits(),
                    w.to_bits(),
                    "epoch {seq} pair ({a},{b}) not bit-identical after recovery"
                );
            } else {
                assert!(
                    (got - w).abs() <= tol,
                    "epoch {seq} pair ({a},{b}) drifted after recovery: {got} vs {w}"
                );
            }
        }
    }
    for (lo, hi, want) in &fx.movers {
        if !(restored.contains(lo) && restored.contains(hi)) {
            continue;
        }
        let got = recovered.top_movers(*lo, *hi, 5).unwrap();
        assert_eq!(want.len(), got.len(), "mover count drifted for {lo}->{hi}");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!((w.a, w.b), (g.a, g.b), "mover pair drifted for {lo}->{hi}");
            assert!(
                (w.delta - g.delta).abs() <= tol.max(1e-12),
                "mover delta drifted for {lo}->{hi}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Kill a retained durable server at every frame boundary of its v2 log:
/// the recovered ring's `pair_at` and `top_movers` reproduce the
/// pre-crash trajectory within 1e-12 on every epoch that survives.
#[test]
fn ring_crash_points_recover_matrix_engines() {
    let builder = SimRankBuilder::new()
        .config(cfg())
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Eager)
        .retain_epochs(4)
        .checkpoint_every(5);
    let fx = build_ring_fixture(&builder, "ring_incsr");
    let offsets = wal::frame_offsets(&fx.bytes);
    assert!(offsets.len() > 20, "ring sweep lost crash points");
    for &cut in &offsets {
        let damaged = apply_fault(&fx.bytes, Fault::TornWrite { cut });
        check_ring_recovery(&fx, &builder, &damaged, "ring_incsr_cut", 1e-12);
    }
}

/// The same sweep for the matrix-free probe engine, whose ring entries
/// replay recorded op slices under the pinned seed: recovered epochs
/// answer bit-identically, at every crash point.
#[test]
fn ring_crash_points_recover_probe_seed_identical() {
    let builder = SimRankBuilder::new()
        .config(SimRankConfig::new(0.6, 10).unwrap())
        .algorithm(EngineKind::Probe)
        .probe_options(ProbeOptions {
            seed: 0xFEED_5EED,
            ..Default::default()
        })
        .retain_epochs(4)
        .checkpoint_every(5);
    let fx = build_ring_fixture(&builder, "ring_probe");
    for &cut in &wal::frame_offsets(&fx.bytes) {
        let damaged = apply_fault(&fx.bytes, Fault::TornWrite { cut });
        check_ring_recovery(&fx, &builder, &damaged, "ring_probe_cut", 0.0);
    }
}

/// Corrupt epoch frames — version bytes damaged in place with the CRC
/// re-stamped, so the frame checksums but does not decode — cost the
/// ring, never the op stream: recovery still serves the full durable
/// head, reports a typed history status, and answers queries on lost
/// epochs with typed errors rather than panicking.
#[test]
fn corrupt_epoch_frames_degrade_to_head_only() {
    use incsim::codec::crc32;
    use incsim::serve::HistoryStatus;
    use incsim::wal::faults::{nth_frame_of_kind, FaultTarget};
    use incsim::wal::FRAME_HEADER;

    let builder = SimRankBuilder::new()
        .config(cfg())
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Eager)
        .retain_epochs(4)
        .checkpoint_every(5);
    let fx = build_ring_fixture(&builder, "ring_corrupt");

    // Damage every epoch frame's record-version byte and re-stamp its
    // checksum: the lenient decode path must keep the op stream intact.
    let mut damaged = fx.bytes.clone();
    for target in [FaultTarget::EpochDelta, FaultTarget::EpochMeta] {
        let mut i = 0;
        while let Some((_, off)) = nth_frame_of_kind(&fx.bytes, target, i) {
            let len = u32::from_le_bytes(damaged[off..off + 4].try_into().unwrap()) as usize;
            damaged[off + FRAME_HEADER + 1] = 99;
            let crc = crc32(&damaged[off + FRAME_HEADER..off + FRAME_HEADER + len]);
            damaged[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());
            i += 1;
        }
        assert!(i > 0, "fixture must hold {target:?} frames");
    }

    let log = wal::read_records(&damaged).unwrap();
    assert!(!log.torn, "version damage must not tear the op stream");
    assert_eq!(log.last_seq(), 18, "every op must survive");
    assert!(log.newest_epoch_ring().is_none());
    assert!(log.has_epoch_frames());

    let path = tmp("ring_corrupt_img");
    std::fs::write(&path, &damaged).unwrap();
    let recovered = builder
        .clone()
        .wal(&path)
        .concurrent(fx.graph.clone())
        .unwrap();
    let HistoryStatus::Unavailable { .. } = recovered.history_status() else {
        panic!(
            "corrupt ring must recover head-only, got {:?}",
            recovered.history_status()
        );
    };
    let head = recovered.epoch_seq();
    for &(a, b) in &RING_PROBES {
        recovered.pair_at(a, b, head).unwrap();
    }
    // Pre-crash epochs are gone; asking for them is a typed miss, and
    // seqs below the (unreadable) floor report the history loss.
    assert!(matches!(
        recovered.pair_at(0, 1, 0),
        Err(ServeError::HistoryUnavailable { .. })
    ));
    assert!(recovered.pair_at(0, 1, head + 40).is_err());
    std::fs::remove_file(&path).ok();
}

/// Mid-apply panic in a live durable handle: the op stays durable,
/// writes are refused, checked reads degrade with a typed status, and a
/// WAL rebuild restores exactness.
#[test]
fn quarantine_rebuild_matches_uncrashed_router() {
    let n = 8usize;
    let graph = DiGraph::from_edges(n, &[(0, 2), (1, 2), (2, 3), (4, 6), (5, 6), (6, 7)]);
    let c = SimRankConfig::new(0.6, 60).unwrap();
    let scores = batch_simrank(&graph, &c);
    let path = tmp("quarantine");
    let _ = std::fs::remove_file(&path);

    let faults = ApplyFaults::panic_on_edge(4, 5);
    let mut handle = ShardedSimRank::with_scores(
        SimRankBuilder::new()
            .mode(ApplyPolicy::Eager)
            .config(c)
            .wal(&path)
            .fault_injection(faults.clone()),
        graph.clone(),
        scores.clone(),
    )
    .unwrap();

    handle.insert(0, 1).unwrap();
    let err = handle.insert(4, 5).unwrap_err();
    assert!(matches!(err, ServeError::Panicked { since_seq: 2 }));
    assert!(faults.exhausted());
    assert_eq!(handle.health(), Health::Quarantined { since_seq: 2 });

    // Writes reject with a retryable error that applies nothing, and
    // checked reads degrade.
    assert!(matches!(
        handle.insert(1, 3),
        Err(ServeError::Quarantined { since_seq: 2, .. })
    ));
    assert!(matches!(
        handle.checked_pair(0, 1),
        Err(ServeError::Degraded { since_seq: 2 })
    ));
    assert_eq!(handle.last_seq(), 2, "the refused write was not logged");

    // Rebuild from checkpoint + replay, then compare the whole handle
    // against an uncrashed twin that saw the same committed stream.
    handle.rebuild().unwrap();
    assert_eq!(handle.health(), Health::Healthy);
    assert_eq!(handle.counters().quarantines, 1);
    assert!(handle.counters().replayed_ops >= 1);
    handle.insert(1, 3).unwrap();

    let mut twin = ShardedSimRank::with_scores(
        SimRankBuilder::new().mode(ApplyPolicy::Eager).config(c),
        graph,
        scores,
    )
    .unwrap();
    twin.insert(0, 1).unwrap();
    twin.insert(4, 5).unwrap();
    twin.insert(1, 3).unwrap();
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            assert!(
                (handle.pair(a, b) - twin.pair(a, b)).abs() < 1e-12,
                "rebuilt handle diverges at ({a},{b})"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Epoch readers hold typed degraded status — never a panic — while the
/// handle is quarantined, including for ids born after the frozen epoch.
#[test]
fn degraded_epoch_reads_are_typed_and_total() {
    let graph = DiGraph::from_edges(8, &[(0, 2), (1, 2), (2, 3), (4, 6), (5, 6), (6, 7)]);
    let c = SimRankConfig::new(0.6, 20).unwrap();
    let scores = batch_simrank(&graph, &c);
    let faults = ApplyFaults::panic_on_edge(4, 5);
    let mut serving = incsim::serve::ConcurrentSimRank::new(
        ShardedSimRank::with_scores(
            SimRankBuilder::new()
                .mode(ApplyPolicy::Eager)
                .config(c)
                .fault_injection(faults),
            graph,
            scores,
        )
        .unwrap(),
    );
    let before = serving.reader().pair(4, 6);
    serving.insert(4, 5).unwrap_err();
    serving.publish();
    let reader = serving.reader();
    let epoch = reader.epoch();
    assert_eq!(epoch.degraded().map(|d| d.since_seq), Some(1));
    let (v, status) = epoch.pair_with_status(4, 6);
    assert!(matches!(status, ReadStatus::Degraded { since_seq: 1 }));
    assert_eq!(v, before, "the degraded read is the last published one");
    // Ids past the frozen range read 0.0 instead of panicking.
    let (v, status) = epoch.pair_with_status(0, 99);
    assert!(matches!(status, ReadStatus::Degraded { .. }));
    assert_eq!(v, 0.0);
    // Ranked reads on the degraded view stay total.
    let (ranked, _) = epoch.top_k_with_status(5, 3);
    assert!(ranked.len() <= 3);
    let (ranked, _) = epoch.top_k_with_status(99, 3);
    assert!(ranked.is_empty());
}

static PROP_FIXTURE: OnceLock<SweepFixture> = OnceLock::new();

fn prop_fixture() -> &'static SweepFixture {
    PROP_FIXTURE.get_or_init(|| {
        let (graph, ops) = er_stream(12, 30, 18, 0xFA57);
        build_fixture(EngineKind::IncSr, ApplyPolicy::Eager, graph, ops, "prop")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash at an arbitrary byte offset — frame boundaries, mid-frame,
    /// inside the magic, past the end: recovery plus resubmission always
    /// reaches the uncrashed trajectory (or fails typed when the base
    /// checkpoint itself is gone).
    #[test]
    fn any_cut_offset_recovers(cut in 0usize..40_000) {
        let fx = prop_fixture();
        let builder = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Eager)
            .config(cfg());
        check_recovery(fx, &builder, Fault::TornWrite { cut }, 1e-12);
    }

    /// Seeded byte-level faults of every kind (torn writes, bit flips,
    /// checksum corruption, short reads): recovery never panics and never
    /// serves silent corruption — it lands on a valid durable prefix or a
    /// typed error.
    #[test]
    fn random_faults_never_panic_or_corrupt(seed in 0u64..1_000_000) {
        let fx = prop_fixture();
        let builder = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Eager)
            .config(cfg());
        let fault = FaultPlan::seeded(seed).draw(&fx.bytes);
        check_recovery(fx, &builder, fault, 1e-12);
    }
}
