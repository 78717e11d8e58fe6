//! `incsim-cli` — command-line front end for the incsim library.
//!
//! ```text
//! incsim-cli generate --model linkage --nodes 1000 --edges-per-node 5 -o graph.txt
//! incsim-cli compute  --input graph.txt --c 0.6 --iters 15 -o state.incsim
//! incsim-cli update   --state state.incsim --ops ops.txt -o state2.incsim
//! incsim-cli topk     --state state.incsim -k 10
//! incsim-cli query    --state state.incsim --node 42 -k 5
//! incsim-cli query    --state state.incsim -a 3 -b 7
//! incsim-cli serve    --state state.incsim --readers 4 --duration-ms 1000
//! incsim-cli serve    --state state.incsim --wal updates.wal --checkpoint-every 512
//! incsim-cli recover  --wal updates.wal -o recovered.incsim
//! incsim-cli wal-fault --wal updates.wal -o damaged.wal --fault torn --at 4096
//! incsim-cli info     --state state.incsim
//! ```
//!
//! Update files (`--ops`) hold one op per line: `+ u v` inserts, `- u v`
//! deletes; `#` comments and blank lines are skipped.

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::snapshot::{load, save, Snapshot};
use incsim::core::{batch_simrank, IncSr, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::linkage::{linkage_model, LinkageParams};
use incsim::datagen::rmat::{rmat, RmatParams};
use incsim::graph::io::{parse_edge_list, write_edge_list};
use incsim::graph::{DiGraph, UpdateOp};
use incsim::metrics::top_k_pairs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: incsim-cli <command> [options]

commands:
  generate   synthesize a graph           --model er|linkage|rmat --nodes N
             [--edges M] [--edges-per-node F] [--seed S] -o FILE
  compute    batch SimRank from an edge list
             --input FILE [--c 0.6] [--iters 15] -o STATE
  update     apply link updates to a maintained state
             --state STATE --ops FILE -o STATE_OUT
             [--algorithm incsr] [--mode auto|eager|fused|lazy]
             [--compress-at-rank R] [--compress-tol T] [--grouped true]
             (probe is matrix-free and cannot write state files; use it in serve)
  topk       print the top-k most similar pairs
             --state STATE [-k 10]
  query      pair score or per-node ranking
             --state STATE (-a A -b B | --node V [-k 5])
  serve      multi-threaded query benchmark over the concurrent serving layer
             --state STATE [--readers R] [--duration-ms D]
             [--batch B] [--publish-every P] [--retain-epochs E]
             [--wal FILE] [--checkpoint-every N]
             [--algorithm incsr|probe] [--mode auto|eager|fused|lazy]
             [--compress-at-rank R] [--compress-tol T]
             (--wal with --retain-epochs > 1 restores the epoch ring on restart)
  epochs     list the retained epoch ring (driven or recovered)
             (--state STATE --ops FILE | --wal FILE) [--retain-epochs E]
             [--publish-every P]
             [--algorithm incsr|probe]
             [--mode auto|eager|fused|lazy]
  diff       top score movers between two retained epochs (time-travel diff)
             (--state STATE --ops FILE | --wal FILE) [--e1 SEQ] [--e2 SEQ]
             [-k 10] [--retain-epochs E] [--publish-every P]
             [--algorithm incsr] [--mode auto|eager|fused|lazy]
  recover    rebuild a state file from a write-ahead log (checkpoint + replay)
             --wal FILE -o STATE [--retain-epochs E]
             [--algorithm incsr] [--mode auto|eager|fused|lazy]
             (--retain-epochs > 1 additionally reports the persisted epoch ring)
  wal-fault  damage a copy of a write-ahead log (fault-injection harness)
             --wal FILE -o FILE --fault torn|flip|crc|short|random
             [--kind op|checkpoint|epoch|epoch-delta|epoch-meta [--index N]]
             [--at BYTE] [--bit B] [--frame N] [--len N] [--seed S]
             (--kind aims the fault at the Nth frame of that record class)
  info       describe a state file
             --state STATE";

/// Minimal flag parser: `--name value`, `-o value`, bare `-k value`.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            if !tok.starts_with('-') {
                return Err(format!("unexpected positional argument {tok:?}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {tok} expects a value"))?;
            pairs.push((tok.as_str(), value.as_str()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, names: &[&str]) -> Option<&'a str> {
        self.pairs
            .iter()
            .find(|(k, _)| names.contains(k))
            .map(|&(_, v)| v)
    }

    fn req(&self, names: &[&str]) -> Result<&'a str, String> {
        self.get(names)
            .ok_or_else(|| format!("missing required flag {}", names[0]))
    }

    fn num<T: std::str::FromStr>(&self, names: &[&str], default: T) -> Result<T, String> {
        match self.get(names) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag {} has invalid value {raw:?}", names[0])),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h")
        || rest.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "compute" => cmd_compute(&flags),
        "update" => cmd_update(&flags),
        "topk" => cmd_topk(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "epochs" => cmd_epochs(&flags),
        "diff" => cmd_diff(&flags),
        "recover" => cmd_recover(&flags),
        "wal-fault" => cmd_wal_fault(&flags),
        "info" => cmd_info(&flags),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn open_state(flags: &Flags) -> Result<Snapshot, String> {
    let path = flags.req(&["--state"])?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    load(BufReader::new(file)).map_err(|e| format!("cannot read state {path}: {e}"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let model = flags.get(&["--model"]).unwrap_or("linkage");
    let nodes: usize = flags.num(&["--nodes", "-n"], 1000usize)?;
    let seed: u64 = flags.num(&["--seed", "-s"], 42u64)?;
    let out = flags.req(&["-o", "--output"])?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match model {
        "er" => {
            let edges: usize = flags.num(&["--edges", "-m"], nodes * 5)?;
            erdos_renyi(nodes, edges, &mut rng)
        }
        "linkage" => {
            let epn: f64 = flags.num(&["--edges-per-node"], 5.0f64)?;
            let params = LinkageParams {
                nodes,
                edges_per_node: epn,
                ..Default::default()
            };
            linkage_model(&params, &mut rng).snapshot_at(u64::MAX)
        }
        "rmat" => {
            let scale = (nodes.max(2) as f64).log2().ceil() as u32;
            let edges: usize = flags.num(&["--edges", "-m"], nodes * 5)?;
            rmat(scale, edges, &RmatParams::default(), &mut rng)
        }
        other => return Err(format!("unknown model {other:?} (er|linkage|rmat)")),
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_edge_list(&graph, BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} nodes / {} edges ({model}) to {out}",
        graph.node_count(),
        graph.edge_count()
    );
    Ok(())
}

fn cmd_compute(flags: &Flags) -> Result<(), String> {
    let input = flags.req(&["--input", "-i"])?;
    let out = flags.req(&["-o", "--output"])?;
    let c: f64 = flags.num(&["--c"], 0.6f64)?;
    let iters: usize = flags.num(&["--iters", "-k"], 15usize)?;
    let cfg = SimRankConfig::new(c, iters).map_err(|e| e.to_string())?;

    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let parsed = parse_edge_list(BufReader::new(file)).map_err(|e| e.to_string())?;
    let graph = parsed.graph;
    eprintln!(
        "computing SimRank on n = {}, |E| = {} (C = {c}, K = {iters})…",
        graph.node_count(),
        graph.edge_count()
    );
    let scores = batch_simrank(&graph, &cfg);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    save(&graph, &scores, &cfg, BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!("state written to {out}");
    Ok(())
}

fn parse_ops(text: &str) -> Result<Vec<UpdateOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (Some(sign), Some(u), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("ops line {}: expected '+|- u v'", lineno + 1));
        };
        let u: u32 = u
            .parse()
            .map_err(|_| format!("ops line {}: bad node id {u:?}", lineno + 1))?;
        let v: u32 = v
            .parse()
            .map_err(|_| format!("ops line {}: bad node id {v:?}", lineno + 1))?;
        match sign {
            "+" => ops.push(UpdateOp::Insert(u, v)),
            "-" => ops.push(UpdateOp::Delete(u, v)),
            other => return Err(format!("ops line {}: bad op {other:?}", lineno + 1)),
        }
    }
    Ok(ops)
}

fn parse_algorithm(raw: Option<&str>) -> Result<EngineKind, String> {
    match raw.unwrap_or("incsr") {
        "incsr" => Ok(EngineKind::IncSr),
        "probe" => Ok(EngineKind::Probe),
        other => Err(format!("unknown algorithm {other:?} (incsr|probe)")),
    }
}

fn parse_mode(raw: Option<&str>) -> Result<ApplyPolicy, String> {
    match raw.unwrap_or("auto") {
        "auto" => Ok(ApplyPolicy::Auto),
        "eager" => Ok(ApplyPolicy::Eager),
        "fused" => Ok(ApplyPolicy::Fused),
        "lazy" => Ok(ApplyPolicy::Lazy),
        other => Err(format!("unknown mode {other:?} (auto|eager|fused|lazy)")),
    }
}

/// Applies the ΔS-recompression knobs (`--compress-at-rank`,
/// `--compress-tol`) to a service builder. Both only affect the `lazy`
/// and `auto` policies — see `incsim::api`'s module docs.
fn apply_compress_flags(
    mut builder: SimRankBuilder,
    flags: &Flags,
) -> Result<SimRankBuilder, String> {
    if let Some(raw) = flags.get(&["--compress-at-rank"]) {
        let rank: usize =
            raw.parse().ok().filter(|&r| r > 0).ok_or_else(|| {
                format!("--compress-at-rank needs a positive integer, got {raw:?}")
            })?;
        builder = builder.compress_at_rank(rank);
    }
    if let Some(raw) = flags.get(&["--compress-tol"]) {
        let tol: f64 = raw
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--compress-tol needs a non-negative number, got {raw:?}"))?;
        builder = builder.compress_tol(tol);
    }
    Ok(builder)
}

fn cmd_update(flags: &Flags) -> Result<(), String> {
    let snap = open_state(flags)?;
    let ops_path = flags.req(&["--ops"])?;
    let out = flags.req(&["-o", "--output"])?;
    let grouped = flags.get(&["--grouped"]).is_some_and(|v| v == "true");
    let algorithm = parse_algorithm(flags.get(&["--algorithm"]))?;
    let policy = parse_mode(flags.get(&["--mode"]))?;
    if algorithm.is_matrix_free() {
        return Err(
            "probe is matrix-free: there is no score matrix to maintain or checkpoint, so \
             `update` does not apply — serve it directly (incsim-cli serve --algorithm probe) \
             or use the library API"
                .into(),
        );
    }

    let mut text = String::new();
    File::open(ops_path)
        .map_err(|e| format!("cannot open {ops_path}: {e}"))?
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let ops = parse_ops(&text)?;

    let started = std::time::Instant::now();
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    if grouped {
        // Row-grouped folding is an Inc-SR-specific extension; it bypasses
        // the engine-agnostic service handle by design — reject flags it
        // would silently ignore.
        if flags.get(&["--mode"]).is_some() {
            return Err("--grouped applies its own flush schedule; drop --mode".into());
        }
        if flags.get(&["--compress-at-rank"]).is_some() || flags.get(&["--compress-tol"]).is_some()
        {
            return Err(
                "--grouped materialises per row update; drop the --compress-* flags".into(),
            );
        }
        let mut engine = IncSr::new(snap.graph, snap.scores, snap.config);
        let stats = engine.apply_grouped(&ops).map_err(|e| e.to_string())?;
        println!(
            "applied {} ops as {} row-grouped updates in {:.3}s",
            stats.unit_ops,
            stats.row_updates,
            started.elapsed().as_secs_f64()
        );
        engine
            .save_snapshot(BufWriter::new(file))
            .map_err(|e| e.to_string())?;
    } else {
        let builder = apply_compress_flags(
            SimRankBuilder::new()
                .algorithm(algorithm)
                .mode(policy)
                .config(snap.config),
            flags,
        )?;
        let mut sim = builder
            .with_scores(snap.graph, snap.scores)
            .map_err(|e| e.to_string())?;
        let stats = sim.update_batch(&ops).map_err(|e| e.to_string())?;
        let touched: usize = stats.iter().map(|s| s.affected_pairs).sum();
        println!(
            "applied {} unit updates via {} in {:.3}s (avg affected pairs: {})",
            stats.len(),
            sim.engine_name(),
            started.elapsed().as_secs_f64(),
            touched / stats.len().max(1)
        );
        let counters = sim.counters();
        if counters.recompressions > 0 {
            println!(
                "recompressed the pending ΔS {} time(s); {} factor pair(s) left lazy",
                counters.recompressions,
                sim.pending_rank()
            );
        }
        sim.snapshot(BufWriter::new(file))
            .map_err(|e| e.to_string())?;
    }
    println!("state written to {out}");
    Ok(())
}

fn cmd_topk(flags: &Flags) -> Result<(), String> {
    let snap = open_state(flags)?;
    let k: usize = flags.num(&["-k", "--k"], 10usize)?;
    for p in top_k_pairs(&snap.scores, k) {
        println!("{}\t{}\t{:.6}", p.a, p.b, p.score);
    }
    Ok(())
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    let snap = open_state(flags)?;
    let n = snap.graph.node_count() as u32;
    let check = |v: u32| -> Result<(), String> {
        if v < n {
            Ok(())
        } else {
            Err(format!("node {v} out of range (graph has {n} nodes)"))
        }
    };
    let sim = SimRankBuilder::new()
        .config(snap.config)
        .with_scores(snap.graph, snap.scores)
        .map_err(|e| e.to_string())?;
    match (
        flags.get(&["-a"]),
        flags.get(&["-b"]),
        flags.get(&["--node"]),
    ) {
        (Some(a), Some(b), None) => {
            let a: u32 = a.parse().map_err(|_| "bad -a".to_string())?;
            let b: u32 = b.parse().map_err(|_| "bad -b".to_string())?;
            check(a)?;
            check(b)?;
            println!("{:.6}", sim.pair(a, b));
            Ok(())
        }
        (None, None, Some(v)) => {
            let v: u32 = v.parse().map_err(|_| "bad --node".to_string())?;
            check(v)?;
            let k: usize = flags.num(&["-k", "--k"], 5usize)?;
            for r in sim.top_k(v, k) {
                println!("{}\t{:.6}", r.node, r.score);
            }
            Ok(())
        }
        _ => Err("query needs either (-a A -b B) or (--node V [-k K])".into()),
    }
}

/// `serve` — load a state, stand up the concurrent serving layer,
/// and hammer it with [`incsim::serve::drive_load`] (the same harness
/// behind the `concurrent_throughput` bench case): `--readers` threads
/// answer batched **pair** queries from epoch snapshots while a
/// background writer toggles edges in batches of `--batch` and publishes
/// every `--publish-every` batches. Prints aggregate queries/sec — the
/// single-node pair-serving throughput of this state file on this
/// machine (ranked queries cost `O(n log k)` each; budget accordingly).
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let snap = open_state(flags)?;
    let readers: usize = flags.num(&["--readers"], incsim::serve::serve_threads())?;
    let duration_ms: u64 = flags.num(&["--duration-ms"], 1000u64)?;
    let batch: usize = flags.num(&["--batch"], 8usize)?;
    let publish_every: usize = flags.num(&["--publish-every"], 1usize)?;
    let algorithm = parse_algorithm(flags.get(&["--algorithm"]))?;
    let policy = parse_mode(flags.get(&["--mode"]))?;
    if readers == 0 || batch == 0 || publish_every == 0 {
        return Err("--readers, --batch and --publish-every must be positive".into());
    }
    let n = snap.graph.node_count();
    if n < 2 {
        return Err("state has fewer than 2 nodes; nothing to serve".into());
    }

    let retain: usize = flags.num(&["--retain-epochs"], 1usize)?;
    let mut builder = apply_compress_flags(
        SimRankBuilder::new()
            .algorithm(algorithm)
            .mode(policy)
            .retain_epochs(retain.max(1))
            .config(snap.config),
        flags,
    )?;
    let wal_path = flags.get(&["--wal"]);
    if let Some(path) = wal_path {
        builder = builder.wal(path);
    }
    let checkpoint_every: u64 = flags.num(&["--checkpoint-every"], 0u64)?;
    if checkpoint_every > 0 {
        if wal_path.is_none() {
            return Err("--checkpoint-every needs --wal".into());
        }
        builder = builder.checkpoint_every(checkpoint_every);
    }
    let handle = incsim::serve::ShardedSimRank::with_scores(builder, snap.graph, snap.scores)
        .map_err(|e| e.to_string())?;
    if let Some(path) = wal_path {
        // A non-empty log overrides the supplied state: the durable
        // trajectory is authoritative over whatever file the caller passed.
        println!(
            "durable: write-ahead log at {path}, recovered to seq {}",
            handle.last_seq()
        );
    }
    let mut serving = incsim::serve::ConcurrentSimRank::new(handle);
    if wal_path.is_some() && retain > 1 {
        println!("epoch history: {}", history_line(serving.history_status()));
    }
    println!(
        "serving n = {n} via {}; {readers} reader thread(s), \
         writer batches of {batch}, publish every {publish_every} batch(es)",
        serving.sharded().engine().engine_name(),
    );

    let report = incsim::serve::drive_load(
        &mut serving,
        &incsim::serve::LoadOptions {
            readers,
            duration: std::time::Duration::from_millis(duration_ms),
            write_batch: batch,
            publish_every,
            seed: 0xC0FFEE,
        },
    )
    .map_err(|e| format!("writer failed: {e}"))?;

    println!(
        "served {} queries in {:.2}s  ->  {:.0} queries/sec aggregate ({:.0}/sec/reader)",
        report.queries,
        report.elapsed_secs,
        report.queries_per_sec(),
        report.queries_per_sec() / readers as f64
    );
    println!(
        "writer applied {} updates ({:.0}/sec) and published {} epoch(s)",
        report.updates,
        report.updates_per_sec(),
        report.epochs_published
    );
    if retain > 1 {
        let listed = serving.epochs();
        println!(
            "epoch ring: {} of {} epoch(s) addressable, {} B retained beyond the head",
            listed.len(),
            retain,
            serving.retained_heap_bytes()
        );
    }
    Ok(())
}

/// One human-readable line for a recovered handle's history status.
fn history_line(status: incsim::serve::HistoryStatus) -> String {
    use incsim::serve::HistoryStatus;
    match status {
        HistoryStatus::Live => "live (no prior incarnation)".into(),
        HistoryStatus::Recovered { epochs } => {
            format!("restored {epochs} pre-crash epoch(s) from the log")
        }
        HistoryStatus::Unavailable { reason } => format!("head-only ({reason})"),
    }
}

/// Shared driver for the temporal commands. With `--wal` the ring comes
/// out of the log: the handle recovers the durable trajectory *and* its
/// persisted epoch ring, no state or ops file needed. Otherwise loads a
/// state and applies the ops file in `--publish-every` sized published
/// chunks against a retention-enabled serving handle.
fn drive_ring(flags: &Flags) -> Result<incsim::serve::ConcurrentSimRank, String> {
    if let Some(wal_path) = flags.get(&["--wal"]) {
        let retain: usize = flags.num(&["--retain-epochs"], 4usize)?.max(2);
        // Validate before attaching: attaching truncates torn tails, so
        // refuse outright rather than initialise an empty or missing log.
        let log = incsim::wal::read_log(std::path::Path::new(wal_path))
            .map_err(|e| format!("cannot read log {wal_path}: {e}"))?;
        if log.records.is_empty() {
            return Err(format!("{wal_path} holds no records; nothing to recover"));
        }
        let algorithm = parse_algorithm(flags.get(&["--algorithm"]))?;
        let policy = parse_mode(flags.get(&["--mode"]))?;
        let builder = apply_compress_flags(
            SimRankBuilder::new()
                .algorithm(algorithm)
                .mode(policy)
                .retain_epochs(retain)
                .wal(wal_path),
            flags,
        )?;
        // The log overrides the placeholder graph: config and scores both
        // come from the recovered trajectory.
        let serving = builder
            .concurrent(DiGraph::new(0))
            .map_err(|e| format!("cannot recover {wal_path}: {e}"))?;
        println!(
            "recovered {wal_path} to seq {}; history: {}",
            serving.sharded().last_seq(),
            history_line(serving.history_status())
        );
        return Ok(serving);
    }
    let snap = open_state(flags)?;
    let ops_path = flags.req(&["--ops"])?;
    let mut text = String::new();
    File::open(ops_path)
        .map_err(|e| format!("cannot open {ops_path}: {e}"))?
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let ops = parse_ops(&text)?;
    if ops.is_empty() {
        return Err(format!("{ops_path} holds no ops; nothing to retain"));
    }

    let retain: usize = flags.num(&["--retain-epochs"], 4usize)?.max(2);
    // Default chunking spreads the stream across the whole ring.
    let publish_every: usize = flags
        .num(&["--publish-every"], ops.len().div_ceil(retain).max(1))?
        .max(1);
    let algorithm = parse_algorithm(flags.get(&["--algorithm"]))?;
    let policy = parse_mode(flags.get(&["--mode"]))?;

    let builder = apply_compress_flags(
        SimRankBuilder::new()
            .algorithm(algorithm)
            .mode(policy)
            .retain_epochs(retain)
            .config(snap.config),
        flags,
    )?;
    let handle = incsim::serve::ShardedSimRank::with_scores(builder, snap.graph, snap.scores)
        .map_err(|e| e.to_string())?;
    let mut serving = incsim::serve::ConcurrentSimRank::new(handle);
    serving.publish();
    for chunk in ops.chunks(publish_every) {
        serving
            .update_batch(chunk)
            .map_err(|e| format!("update stream failed: {e}"))?;
        serving.publish();
    }
    Ok(serving)
}

/// `epochs` — list the retained epoch ring after driving an update
/// stream: each row is one addressable past (or head) epoch with its
/// publish stamp, op watermark, frozen node count, and retained heap.
fn cmd_epochs(flags: &Flags) -> Result<(), String> {
    let serving = drive_ring(flags)?;
    let listed = serving.epochs();
    println!("epoch  at-op  nodes  retained");
    for info in &listed {
        let place = if info.seq == listed.last().map_or(0, |h| h.seq) {
            "  (head)"
        } else {
            ""
        };
        println!(
            "{:>5}  {:>5}  {:>5}  {:>7} B{place}",
            info.seq, info.at_op, info.n, info.retained_bytes
        );
    }
    println!(
        "{} epoch(s) addressable; {} B retained beyond the head",
        listed.len(),
        serving.retained_heap_bytes()
    );
    Ok(())
}

/// `diff` — cross-epoch movement query: the top-k node pairs whose
/// similarity moved the most between two retained epochs (defaults:
/// oldest retained → head).
fn cmd_diff(flags: &Flags) -> Result<(), String> {
    let serving = drive_ring(flags)?;
    let listed = serving.epochs();
    let oldest = listed.first().map_or(0, |e| e.seq);
    let head = listed.last().map_or(0, |e| e.seq);
    let e1: u64 = flags.num(&["--e1"], oldest)?;
    let e2: u64 = flags.num(&["--e2"], head)?;
    let k: usize = flags.num(&["-k", "--top"], 10usize)?;

    let movers = serving
        .top_movers(e1, e2, k)
        .map_err(|e| format!("diff failed: {e}"))?;
    if movers.is_empty() {
        println!("no pair moved between epoch {e1} and epoch {e2}");
        return Ok(());
    }
    println!("top {} mover(s), epoch {e1} -> {e2}:", movers.len());
    for m in &movers {
        let was = serving
            .pair_at(m.a, m.b, e1)
            .map_err(|e| format!("reading epoch {e1}: {e}"))?;
        println!(
            "  ({:>4}, {:>4})  {:+.6e}   {:.6} -> {:.6}",
            m.a,
            m.b,
            m.delta,
            was,
            was + m.delta
        );
    }
    Ok(())
}

/// `recover` — rebuild a state file from a durable write-ahead log. The
/// reader stops at any torn tail, starts from the newest checkpoint and
/// replays the op suffix on top; the result is written as an ordinary
/// state file any other command can open.
fn cmd_recover(flags: &Flags) -> Result<(), String> {
    let wal_path = flags.req(&["--wal"])?;
    let out = flags.req(&["-o", "--output"])?;
    let algorithm = parse_algorithm(flags.get(&["--algorithm"]))?;
    let policy = parse_mode(flags.get(&["--mode"]))?;
    if algorithm.is_matrix_free() {
        return Err(
            "probe is matrix-free and cannot write state files; recover with an exact \
             engine, or attach the log to `serve --algorithm probe` directly"
                .into(),
        );
    }

    let log = incsim::wal::read_log(std::path::Path::new(wal_path))
        .map_err(|e| format!("cannot read log {wal_path}: {e}"))?;
    if log.torn {
        eprintln!(
            "note: {wal_path} ends in a torn/corrupt frame; recovering from the \
             {}-byte valid prefix",
            log.valid_bytes
        );
    }
    let builder = apply_compress_flags(
        SimRankBuilder::new().algorithm(algorithm).mode(policy),
        flags,
    )?;
    // `--retain-epochs` reports what a retention-enabled restart would
    // restore, straight off the read-only parse (this command never
    // attaches to the log, so the report mutates nothing).
    let retain: usize = flags.num(&["--retain-epochs"], 1usize)?;
    if retain > 1 {
        match log.newest_epoch_ring() {
            Some((meta, deltas)) => {
                let oldest = deltas.first().map_or(meta.head_seq, |d| d.seq);
                println!(
                    "epoch ring: {} retained epoch(s) (seq {oldest}..={}) persisted at \
                     op {}; a `serve --wal --retain-epochs` restart restores them",
                    deltas.len() + 1,
                    meta.head_seq,
                    meta.cp_seq
                );
            }
            None if log.has_epoch_frames() => println!(
                "epoch ring: the persisted round is torn or corrupt; history recovers head-only"
            ),
            None => println!(
                "epoch ring: the log predates epoch-ring checkpoints; history recovers head-only"
            ),
        }
    }
    let rebuilt = incsim::wal::rebuild_engine(&builder, &log, None).map_err(|e| e.to_string())?;
    println!(
        "recovered to seq {} via {}: checkpoint at seq {}, {} op(s) replayed",
        rebuilt.last_seq,
        rebuilt.sim.engine_name(),
        rebuilt.checkpoint_seq,
        rebuilt.replayed_ops,
    );
    let mut sim = rebuilt.sim;
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    sim.snapshot(BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!("state written to {out}");
    Ok(())
}

/// `wal-fault` — write a damaged copy of a write-ahead log. This is the
/// CLI face of [`incsim::wal::faults`]: pick an explicit fault
/// (`torn`/`flip`/`crc`/`short` with its offset flags) or let a seeded
/// plan draw one (`random --seed S`), then point `recover` at the output
/// to watch the torn-tail truncation and checkpoint replay do their job.
fn cmd_wal_fault(flags: &Flags) -> Result<(), String> {
    use incsim::wal::faults::{apply_fault, nth_frame_of_kind, Fault, FaultPlan, FaultTarget};
    use incsim::wal::FRAME_HEADER;

    let wal_path = flags.req(&["--wal"])?;
    let out = flags.req(&["-o", "--output"])?;
    let bytes = std::fs::read(wal_path).map_err(|e| format!("cannot read {wal_path}: {e}"))?;
    // `--kind` retargets the fault at the Nth frame of a record class:
    // explicit `--at`/`--frame`/`--len` still win, but the defaults move
    // from "middle of the image" to "that frame".
    let target = match flags.get(&["--kind"]) {
        None => None,
        Some(spec) => {
            let kind = FaultTarget::parse(spec).ok_or_else(|| {
                format!("unknown kind {spec:?} (op|checkpoint|epoch|epoch-delta|epoch-meta)")
            })?;
            let index: usize = flags.num(&["--index"], 0usize)?;
            Some(
                nth_frame_of_kind(&bytes, kind, index)
                    .ok_or_else(|| format!("{wal_path} holds no {spec} frame at index {index}"))?,
            )
        }
    };
    let fault = match flags.req(&["--fault"])? {
        "torn" => Fault::TornWrite {
            cut: flags.num(&["--at"], target.map_or(bytes.len() / 2, |(_, off)| off))?,
        },
        "flip" => Fault::BitFlip {
            // Default to the first payload byte of the targeted frame
            // (the record tag), which breaks its checksum in place.
            offset: flags.num(
                &["--at"],
                target.map_or(bytes.len() / 2, |(_, off)| off + FRAME_HEADER),
            )?,
            bit: flags.num(&["--bit"], 0u8)?,
        },
        "crc" => Fault::CorruptChecksum {
            frame: flags.num(&["--frame"], target.map_or(0, |(frame, _)| frame))?,
        },
        "short" => Fault::ShortRead {
            len: flags.num(&["--len"], target.map_or(bytes.len() / 2, |(_, off)| off))?,
        },
        "random" => {
            let seed: u64 = flags.num(&["--seed", "-s"], 42u64)?;
            FaultPlan::seeded(seed).draw(&bytes)
        }
        other => {
            return Err(format!(
                "unknown fault {other:?} (torn|flip|crc|short|random)"
            ))
        }
    };
    let damaged = apply_fault(&bytes, fault);
    std::fs::write(out, &damaged).map_err(|e| format!("cannot write {out}: {e}"))?;
    match target {
        Some((frame, offset)) => println!(
            "applied {fault:?} (targeting frame {frame} at byte {offset}): {} -> {} bytes, written to {out}",
            bytes.len(),
            damaged.len()
        ),
        None => println!(
            "applied {fault:?}: {} -> {} bytes, written to {out}",
            bytes.len(),
            damaged.len()
        ),
    }
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let snap = open_state(flags)?;
    println!("nodes:       {}", snap.graph.node_count());
    println!("edges:       {}", snap.graph.edge_count());
    println!("avg in-deg:  {:.2}", snap.graph.avg_in_degree());
    println!("max in-deg:  {}", snap.graph.max_in_degree());
    println!("damping C:   {}", snap.config.c);
    println!("iterations:  {}", snap.config.iterations);
    println!(
        "score bytes: {}",
        incsim::metrics::timing::fmt_bytes(snap.scores.heap_bytes())
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_handles_pairs() {
        let args: Vec<String> = ["--model", "er", "-o", "out.txt"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get(&["--model"]), Some("er"));
        assert_eq!(f.req(&["-o", "--output"]).unwrap(), "out.txt");
        assert!(f.req(&["--missing"]).is_err());
        assert_eq!(f.num(&["--seed"], 7u64).unwrap(), 7);
    }

    #[test]
    fn flag_parser_rejects_malformed() {
        let args: Vec<String> = ["positional"].iter().map(ToString::to_string).collect();
        assert!(Flags::parse(&args).is_err());
        let args: Vec<String> = ["--dangling"].iter().map(ToString::to_string).collect();
        assert!(Flags::parse(&args).is_err());
    }

    #[test]
    fn ops_parser_roundtrip() {
        let ops = parse_ops("# header\n+ 1 2\n- 3 4\n\n+ 5 6\n").unwrap();
        assert_eq!(
            ops,
            vec![
                UpdateOp::Insert(1, 2),
                UpdateOp::Delete(3, 4),
                UpdateOp::Insert(5, 6)
            ]
        );
        assert!(parse_ops("* 1 2").is_err());
        assert!(parse_ops("+ x 2").is_err());
        assert!(parse_ops("+ 1").is_err());
    }

    #[test]
    fn algorithm_and_mode_flags_parse() {
        assert!(matches!(parse_algorithm(None), Ok(EngineKind::IncSr)));
        assert!(matches!(
            parse_algorithm(Some("incsr")),
            Ok(EngineKind::IncSr)
        ));
        assert!(matches!(
            parse_algorithm(Some("probe")),
            Ok(EngineKind::Probe)
        ));
        // Failure must enumerate every valid engine so users can self-correct;
        // the paper's baselines are not served, so their names fail too.
        for bad in ["bogus", "incusr", "incsvd", "naive", "batch"] {
            let err = parse_algorithm(Some(bad)).unwrap_err();
            assert!(err.contains("(incsr|probe)"), "algorithm error {err:?}");
        }
        assert!(matches!(parse_mode(None), Ok(ApplyPolicy::Auto)));
        assert!(matches!(parse_mode(Some("lazy")), Ok(ApplyPolicy::Lazy)));
        let err = parse_mode(Some("bogus")).unwrap_err();
        for mode in ["auto", "eager", "fused", "lazy"] {
            assert!(err.contains(mode), "mode error {err:?} omits {mode}");
        }
    }

    #[test]
    fn compress_flags_parse_and_reject_garbage() {
        let ok = |args: &[&str]| {
            let args = to_args(args);
            let flags = Flags::parse(&args).unwrap();
            apply_compress_flags(SimRankBuilder::new(), &flags)
        };
        assert!(ok(&["--compress-at-rank", "32"]).is_ok());
        assert!(ok(&["--compress-tol", "1e-12"]).is_ok());
        assert!(ok(&["--compress-at-rank", "32", "--compress-tol", "0"]).is_ok());
        assert!(ok(&[]).is_ok(), "both flags are optional");
        assert!(ok(&["--compress-at-rank", "0"]).is_err());
        assert!(ok(&["--compress-at-rank", "many"]).is_err());
        assert!(ok(&["--compress-tol", "-1"]).is_err());
        assert!(ok(&["--compress-tol", "NaN"]).is_err());
    }

    #[test]
    fn update_with_compression_roundtrips() {
        let dir = std::env::temp_dir().join(format!("incsim-cli-compress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let state_path = dir.join("s.bin");
        let out_path = dir.join("out.bin");
        let ops_path = dir.join("ops.txt");
        run(&to_args(&[
            "generate",
            "--model",
            "er",
            "--nodes",
            "24",
            "--edges",
            "72",
            "-o",
            graph_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "compute",
            "--input",
            graph_path.to_str().unwrap(),
            "--iters",
            "8",
            "-o",
            state_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Three valid toggles read off the state file.
        let snap = load(BufReader::new(File::open(&state_path).unwrap())).unwrap();
        let mut lines = String::new();
        let mut found = 0;
        'outer: for u in 0..24u32 {
            for v in 0..24u32 {
                if u != v && !snap.graph.has_edge(u, v) {
                    lines.push_str(&format!("+ {u} {v}\n"));
                    found += 1;
                    if found == 3 {
                        break 'outer;
                    }
                }
            }
        }
        std::fs::write(&ops_path, lines).unwrap();
        run(&to_args(&[
            "update",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--mode",
            "lazy",
            "--compress-at-rank",
            "4",
            "--compress-tol",
            "1e-13",
            "-o",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        // The written state is fully materialised and queryable.
        run(&to_args(&[
            "query",
            "--state",
            out_path.to_str().unwrap(),
            "-a",
            "0",
            "-b",
            "1",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grouped_rejects_conflicting_flags() {
        let dir = std::env::temp_dir().join(format!("incsim-cli-grouped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let state_path = dir.join("s.bin");
        let ops_path = dir.join("ops.txt");
        run(&to_args(&[
            "generate",
            "--model",
            "er",
            "--nodes",
            "10",
            "--edges",
            "20",
            "-o",
            graph_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "compute",
            "--input",
            graph_path.to_str().unwrap(),
            "--iters",
            "5",
            "-o",
            state_path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&ops_path, "+ 0 9\n").unwrap();
        let out_path = dir.join("out.bin");
        let base = [
            "update",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--grouped",
            "true",
            "-o",
            out_path.to_str().unwrap(),
        ];
        let mut with_algo = base.to_vec();
        with_algo.extend(["--algorithm", "probe"]);
        assert!(run(&to_args(&with_algo)).is_err());
        let mut with_mode = base.to_vec();
        with_mode.extend(["--mode", "lazy"]);
        assert!(run(&to_args(&with_mode)).is_err());
        let mut with_compress = base.to_vec();
        with_compress.extend(["--compress-at-rank", "8"]);
        assert!(run(&to_args(&with_compress)).is_err());
        // incsr + grouped is the supported combination.
        let mut ok = base.to_vec();
        ok.extend(["--algorithm", "incsr"]);
        assert!(run(&to_args(&ok)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_benchmark_runs_briefly() {
        let dir = std::env::temp_dir().join(format!("incsim-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let state_path = dir.join("s.bin");
        run(&to_args(&[
            "generate",
            "--model",
            "er",
            "--nodes",
            "40",
            "--edges",
            "120",
            "-o",
            graph_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "compute",
            "--input",
            graph_path.to_str().unwrap(),
            "--iters",
            "8",
            "-o",
            state_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "serve",
            "--state",
            state_path.to_str().unwrap(),
            "--readers",
            "2",
            "--duration-ms",
            "50",
            "--batch",
            "4",
        ]))
        .unwrap();
        // The matrix-free probe engine serves from the same checkpoint (the
        // stored scores are ignored; the engine samples from the graph).
        run(&to_args(&[
            "serve",
            "--state",
            state_path.to_str().unwrap(),
            "--algorithm",
            "probe",
            "--readers",
            "2",
            "--duration-ms",
            "50",
            "--batch",
            "4",
        ]))
        .unwrap();
        // ...but it cannot write a state file, so `update` rejects it up front.
        let ops_path = dir.join("ops.txt");
        std::fs::write(&ops_path, "+ 0 1\n").unwrap();
        let err = run(&to_args(&[
            "update",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "-o",
            dir.join("s2.bin").to_str().unwrap(),
            "--algorithm",
            "probe",
        ]))
        .unwrap_err();
        assert!(err.contains("matrix-free"), "unexpected error: {err}");
        // Bad knobs fail loudly.
        assert!(run(&to_args(&[
            "serve",
            "--state",
            state_path.to_str().unwrap(),
            "--readers",
            "0",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporal_commands_list_and_diff_epochs() {
        let dir = std::env::temp_dir().join(format!("incsim-cli-epochs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let state_path = dir.join("s.bin");
        let ops_path = dir.join("ops.txt");
        // A chain graph keeps the op stream trivially valid: every
        // inserted edge below is absent from it.
        std::fs::write(&graph_path, "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n").unwrap();
        run(&to_args(&[
            "compute",
            "--input",
            graph_path.to_str().unwrap(),
            "--iters",
            "8",
            "-o",
            state_path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&ops_path, "+ 0 2\n+ 1 3\n+ 2 4\n+ 0 5\n+ 3 6\n+ 4 7\n").unwrap();

        // `epochs` lists the ring after driving the stream.
        run(&to_args(&[
            "epochs",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--retain-epochs",
            "4",
            "--publish-every",
            "2",
        ]))
        .unwrap();

        // `diff` defaults to oldest retained -> head.
        run(&to_args(&[
            "diff",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--retain-epochs",
            "4",
            "--publish-every",
            "2",
            "-k",
            "5",
        ]))
        .unwrap();

        // An evicted epoch is a loud, typed failure.
        let err = run(&to_args(&[
            "diff",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--retain-epochs",
            "2",
            "--publish-every",
            "1",
            "--e1",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("not retained"), "unexpected error: {err}");

        // The serve benchmark reports its ring when retention is on.
        run(&to_args(&[
            "serve",
            "--state",
            state_path.to_str().unwrap(),
            "--readers",
            "2",
            "--duration-ms",
            "50",
            "--batch",
            "4",
            "--retain-epochs",
            "4",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_errors() {
        let args: Vec<String> = ["frobnicate"].iter().map(ToString::to_string).collect();
        assert!(run(&args).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_compute_update_query() {
        let dir = std::env::temp_dir().join(format!("incsim-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let state_path = dir.join("s.bin");
        let state2_path = dir.join("s2.bin");
        let ops_path = dir.join("ops.txt");

        // generate
        run(&to_args(&[
            "generate",
            "--model",
            "er",
            "--nodes",
            "30",
            "--edges",
            "90",
            "-o",
            graph_path.to_str().unwrap(),
        ]))
        .unwrap();
        // compute
        run(&to_args(&[
            "compute",
            "--input",
            graph_path.to_str().unwrap(),
            "--iters",
            "10",
            "-o",
            state_path.to_str().unwrap(),
        ]))
        .unwrap();
        // update (find a free edge deterministically: state file knows)
        let snap = load(BufReader::new(File::open(&state_path).unwrap())).unwrap();
        let mut free = None;
        'outer: for u in 0..30u32 {
            for v in 0..30u32 {
                if u != v && !snap.graph.has_edge(u, v) {
                    free = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = free.unwrap();
        std::fs::write(&ops_path, format!("+ {u} {v}\n")).unwrap();
        run(&to_args(&[
            "update",
            "--state",
            state_path.to_str().unwrap(),
            "--ops",
            ops_path.to_str().unwrap(),
            "--algorithm",
            "incsr",
            "--mode",
            "fused",
            "-o",
            state2_path.to_str().unwrap(),
        ]))
        .unwrap();
        // info / topk / query all read the produced state.
        run(&to_args(&[
            "info",
            "--state",
            state2_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "topk",
            "--state",
            state2_path.to_str().unwrap(),
            "-k",
            "3",
        ]))
        .unwrap();
        run(&to_args(&[
            "query",
            "--state",
            state2_path.to_str().unwrap(),
            "-a",
            "0",
            "-b",
            "1",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn to_args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }
}
