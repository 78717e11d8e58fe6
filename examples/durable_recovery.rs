//! The failure story end to end: a durable serving handle survives a
//! mid-apply engine crash (quarantine + degraded reads, no panic
//! escapes), rebuilds its engine from the write-ahead log, then survives
//! a full process "crash" — torn log tail included — by recovering from
//! checkpoint + replay and resubmitting the lost suffix.
//!
//! ```bash
//! cargo run --release --example durable_recovery
//! ```

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_mixed;
use incsim::serve::{ConcurrentSimRank, Health, ServeError, ShardedSimRank};
use incsim::wal::faults::{apply_fault, ApplyFaults, Fault};
use incsim::wal::{self};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let wal_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "incsim_durable_recovery_{}.wal",
            std::process::id()
        ));
        p
    };
    let _ = std::fs::remove_file(&wal_path);

    // A 64-node service over a graph of two 32-node ER components.
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let mut edges: Vec<(u32, u32)> = erdos_renyi(32, 120, &mut rng).edges().collect();
    edges.extend(
        erdos_renyi(32, 120, &mut rng)
            .edges()
            .map(|(u, v)| (u + 32, v + 32)),
    );
    let graph = incsim::graph::DiGraph::from_edges(64, &edges);
    let n = graph.node_count();
    let cfg = SimRankConfig::new(0.6, 40).expect("valid parameters");
    let scores = batch_simrank(&graph, &cfg);

    // Arm a one-shot mid-apply panic on one edge: the kind of bug (or
    // hardware fault) crash containment exists for.
    let faults = ApplyFaults::panic_on_edge(40, 41);
    let builder = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Eager)
        .config(cfg)
        .wal(&wal_path)
        .checkpoint_every(16)
        .fault_injection(faults.clone());
    let handle = ShardedSimRank::with_scores(builder, graph.clone(), scores.clone())
        .expect("durable handle builds");
    let mut serving = ConcurrentSimRank::new(handle);
    println!("serving n = {n}, write-ahead log at {}", wal_path.display());

    // Normal traffic, then the poisoned update.
    let warm = random_mixed(&graph, 24, 0.7, &mut rng);
    for &op in &warm {
        serving.update(op).expect("healthy writes apply");
    }
    serving.publish();
    let reader = serving.reader();
    let before = reader.pair(40, 44);

    // Silence the injected panic's backtrace — it is caught and contained.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = serving.insert(40, 41).expect_err("armed panic fires");
    std::panic::set_hook(default_hook);
    assert!(matches!(err, ServeError::Panicked { .. }));
    assert!(faults.exhausted(), "the injected panic fired exactly once");
    println!("engine panicked mid-apply -> {err}");

    // Readers stay up: they are served the last published epoch with a
    // typed degraded status, while writes are refused.
    serving.publish();
    let epoch = reader.epoch();
    assert!(epoch.degraded().is_some());
    let (stale, status) = epoch.pair_with_status(40, 44);
    assert_eq!(stale.to_bits(), before.to_bits(), "stale epoch is frozen");
    println!("degraded read s(40,44) = {stale:.4} ({status:?})");
    let retry = serving
        .insert(50, 51)
        .expect_err("quarantine rejects writes");
    assert!(matches!(retry, ServeError::Quarantined { .. }));

    // Rebuild the quarantined engine from checkpoint + replay.
    serving.rebuild().expect("rebuild from the log");
    assert_eq!(serving.sharded().health(), Health::Healthy);
    assert!(
        reader.epoch().degraded().is_none(),
        "the rebuild republished"
    );
    serving.insert(50, 51).expect("writable again");
    // The panicking op was durable before the panic, so it is part of the
    // rebuilt state.
    assert!(serving.sharded().graph().has_edge(40, 41));
    let c = serving.sharded().counters();
    println!(
        "rebuilt engine: {} wal appends, {} checkpoints, {} replayed ops, \
         {} quarantine(s), {} degraded read(s)",
        c.wal_appends, c.checkpoints, c.replayed_ops, c.quarantines, c.degraded_reads
    );

    // Now the whole process "dies" — and the on-disk log even loses its
    // tail (a torn final write). Recovery truncates the torn frame and
    // replays the durable prefix; the client resubmits what it lost.
    let final_graph = serving.sharded().graph().clone();
    let last_seq = serving.sharded().last_seq();
    drop(serving);
    let image = std::fs::read(&wal_path).expect("log readable");
    let torn = apply_fault(
        &image,
        Fault::TornWrite {
            cut: image.len() - 9,
        },
    );
    let log = wal::read_records(&torn).expect("valid magic");
    assert!(log.torn, "the cut landed mid-frame");
    println!(
        "crash: log torn at byte {} of {}; durable prefix holds seq {} of {last_seq}",
        torn.len(),
        image.len(),
        log.last_seq()
    );

    let recovery = SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Eager)
        .config(cfg);
    // Recovery starts from the newest checkpoint — here the one the
    // quarantine rebuild wrote — and replays the durable ops after it.
    let rebuilt = wal::rebuild_engine(&recovery, &log, None).expect("checkpoint + replay");
    println!(
        "recovered from checkpoint at seq {} + {} replayed op(s)",
        rebuilt.checkpoint_seq, rebuilt.replayed_ops
    );
    // The torn tail swallowed exactly the last acked op — the classic
    // acked-but-unsynced window. Resubmitting the suffix past
    // `rebuilt.last_seq` reproduces the pre-crash state.
    assert_eq!(rebuilt.last_seq, last_seq - 1);
    let mut sim = rebuilt.sim;
    sim.update(incsim::graph::UpdateOp::Insert(50, 51))
        .expect("resubmitted suffix applies");
    assert_eq!(sim.graph().edge_count(), final_graph.edge_count());
    let truth = batch_simrank(sim.graph(), &cfg);
    let mut worst = 0.0f64;
    for a in 0..n {
        for b in 0..n {
            worst = worst.max((sim.pair(a as u32, b as u32) - truth.get(a, b)).abs());
        }
    }
    assert!(worst < 1e-8, "recovered state diverged: {worst:e}");
    println!("recovered state matches batch truth to {worst:.2e} over all {n}x{n} pairs");

    let _ = std::fs::remove_file(&wal_path);
    println!("durable recovery pipeline: OK");
}
