//! `citation-growth`: the paper's own setting (Fig. 2a, CitH). A CitH-like
//! citation DAG grows by its timestamp-ordered insertion stream through
//! the default handle (Inc-SR, `ApplyPolicy::Auto`, 1 shard, no WAL,
//! retain 1): unit `update` calls, so Auto routes every op, a `publish`
//! every 16 ops for a fixed number of publishes, and after each publish
//! one block of head pair reads and one block of top-10 reads.

use crate::checks::{self, Tally};
use crate::record::{self, HotReads, HotSet, Ingest, Phase, Recorder};
use crate::{Outcome, Scale};
use incsim::api::SimRankBuilder;
use incsim::core::{batch_simrank, SimRankConfig};
use incsim::datagen::linkage::{linkage_model, LinkageParams};
use incsim::graph::{DiGraph, UpdateOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reference-check sites: the final head against batch recomputation.
#[cfg(test)]
pub const CHECK_SITES: u64 = 1;

pub struct Size {
    nodes: usize,
    setups: usize,
    publish_every: usize,
    /// The loop applies this many publishes' worth of ops: at full size
    /// the first 1,600 of a stream of 1,805–1,833 ops (over 500 seeds).
    publishes: usize,
    reads: HotReads,
    check_rows: usize,
}

impl Size {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                nodes: 2_500,
                setups: 3,
                publish_every: 16,
                publishes: 100,
                // A top-10 read scans a 2,500-entry row: 4 passes over
                // the 64 popular nodes take about 20 ms.
                reads: HotReads::full(4),
                check_rows: 8,
            },
            Scale::Toy => Size {
                nodes: 320,
                setups: 2,
                publish_every: 16,
                publishes: 8,
                reads: HotReads::TOY,
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
    rows: Vec<u32>,
}

/// Everything the run reads, generated from the seed before any timer.
fn inputs(size: &Size, seed: u64) -> Result<Inputs, String> {
    // `presets::cith_like`'s growth parameters, grown from this seed.
    let params = LinkageParams {
        nodes: size.nodes,
        edges_per_node: 12.2,
        pref_mix: 0.75,
        reciprocity: 0.0,
        cite_past_only: true,
        communities: 0,
        community_bias: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut timeline = linkage_model(&params, &mut rng);
    // `cith_like`'s base snapshot holds the first 94% of arrivals; the
    // rest arrive as the growth stream.
    let base_time = (size.nodes as f64 * 0.94) as u64;
    let base = timeline.snapshot_at(base_time);
    let mut stream = timeline.updates_between(base_time, u64::MAX);
    let ops = size.publishes * size.publish_every;
    if stream.len() < ops {
        return Err(format!(
            "growth stream has {} ops, fewer than {ops}",
            stream.len()
        ));
    }
    stream.truncate(ops);
    let n = base.node_count() as u32;
    Ok(Inputs {
        n: base.node_count(),
        edges: base.edges().collect(),
        stream,
        hot: size.reads.targets(n, &mut rng),
        rows: record::nodes(n, size.check_rows, &mut rng),
    })
}

pub fn run(size: &Size, seed: u64, perturb: bool, rec: &mut Recorder) -> Result<Outcome, String> {
    let inp = inputs(size, seed)?;
    let cfg = SimRankConfig::paper_default();
    let mut o = Outcome::default();
    let mut tally = Tally::default();

    // Setup, repeated: edge list → first published epoch. The last
    // handle serves the loop.
    rec.begin_phase(Phase::Setup);
    let mut setup_s = Vec::new();
    let mut srv = None;
    for k in 0..size.setups {
        rec.set_batch(k as u64);
        drop(srv.take());
        let (g, edges) = rec.call("from_edges", || DiGraph::from_edges(inp.n, &inp.edges));
        let (built, terminal) = rec.call("concurrent", || SimRankBuilder::new().concurrent(g));
        tally.result(&built);
        setup_s.push((terminal.end - edges.start).as_secs_f64());
        srv = Some(built.map_err(|e| format!("setup: {e}"))?);
    }
    rec.end_phase();
    let mut srv = srv.ok_or("no setup ran")?;
    let reader = srv.reader();

    // The closed loop: the whole (truncated) stream, with a publish and
    // the head reads after every `publish_every` ops.
    let before = srv.counters();
    rec.begin_phase(Phase::Ingest);
    let mut ing = Ingest::default();
    for op in &inp.stream {
        rec.set_batch(ing.publishes() as u64);
        let (r, call) = rec.call("update", || srv.update(*op));
        tally.result(&r);
        ing.updated(call, 1, r.as_deref().unwrap_or_default());
        if ing.ops() % size.publish_every == 0 {
            let (_, call) = rec.call("publish", || srv.publish());
            tally.reads(1);
            ing.published(call);
            size.reads
                .read(&inp.hot, &reader.epoch(), rec, &mut ing, &mut tally);
        }
    }
    rec.end_phase();
    o.set("peak_rss_mb", record::peak_rss_mb());
    ing.fill(&mut o, &before, &srv.counters());
    o.set("setup_s", record::median(&setup_s));

    // Reference check: the final head against batch recomputation on the
    // benchmark's shadow graph, on sampled rows.
    let mut shadow = DiGraph::from_edges(inp.n, &inp.edges);
    for op in &inp.stream {
        op.apply(&mut shadow)
            .map_err(|e| format!("shadow graph: {e:?}"))?;
    }
    let truth = batch_simrank(&shadow, &cfg);
    let head = reader.epoch();
    for (i, &a) in inp.rows.iter().enumerate() {
        let mut got = checks::epoch_row(&head, a);
        if perturb && i == 0 {
            got[0] += checks::PERTURBATION;
        }
        o.margins.judge(
            &mut tally,
            "head_vs_batch",
            checks::row_error(&got, &checks::matrix_row(&truth, a)),
            checks::DAG_HEAD_TOL,
        );
    }

    // Split calls, traced run only: the terminal's two halves, each timed
    // on its own.
    if rec.traced() {
        let base = DiGraph::from_edges(inp.n, &inp.edges);
        let (batch_s, build_s) =
            record::split_terminal(SimRankBuilder::new(), base, &cfg, &mut tally)?;
        o.set("core.batch_s", batch_s);
        o.set("serve.build_s", build_s);
    }
    o.tally = tally;
    Ok(o)
}
