//! `probe-scale`: the matrix-free engine (`EngineKind::Probe`, default
//! `ProbeOptions`, whose seed is fixed) at a size no dense engine fits —
//! the score matrix alone would need 20 GB. Each of a fixed number of
//! iterations applies an `update_batch` of 64 edge toggles, publishes,
//! and reads a block of 16 head pairs; one top-10 read on the head opens
//! every 40th iteration.

use crate::checks::{self, Tally};
use crate::record::{self, Ingest, Phase, Recorder};
use crate::{Outcome, Scale};
use incsim::api::{EngineKind, SimRankBuilder};
use incsim::core::{ProbeOptions, RankedNode, SimRankConfig};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::updates::random_toggles_in;
use incsim::graph::{DiGraph, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Reference-check sites: top-k answers and pair blocks, each against
/// the exact truncated-series column.
#[cfg(test)]
pub const CHECK_SITES: u64 = 2;

/// Pairs read per source node: its strongest partners.
const PARTNERS: usize = 8;

pub struct Size {
    nodes: usize,
    setups: usize,
    batch_ops: usize,
    batches: usize,
    topk_every: usize,
    /// Source nodes whose strongest partners make up the pair-read set;
    /// each block of `2 · PARTNERS` pairs reads two of them.
    pair_sources: usize,
    /// Every this many pair blocks one is checked, and the last one.
    check_every: usize,
}

impl Size {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                nodes: 50_000,
                // Allocation-bound and ~30 ms: the most repetitions.
                setups: 41,
                batch_ops: 64,
                batches: 120,
                topk_every: 40,
                pair_sources: 32,
                check_every: 8,
            },
            Scale::Toy => Size {
                nodes: 400,
                setups: 2,
                batch_ops: 16,
                batches: 8,
                topk_every: 4,
                pair_sources: 4,
                check_every: 4,
            },
        }
    }
}

struct Inputs {
    n: usize,
    edges: Vec<(u32, u32)>,
    stream: Vec<UpdateOp>,
    /// Each source's strongest partners on the base graph, in blocks of
    /// `2 · PARTNERS` pairs.
    pairs: Vec<(u32, u32)>,
    topk: Vec<u32>,
}

/// Everything the run reads, generated from the seed before any timer.
///
/// Pair targets are drawn from the top of exact columns, not uniformly:
/// a uniform pair of a 50k-node sparse graph scores about 1e-5, and a
/// check against such scores would pass an engine that answers 0.
fn inputs(size: &Size, seed: u64, cfg: &SimRankConfig) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = size.nodes;
    let base = erdos_renyi(n, 6 * n, &mut rng);
    let nn = n as u32;
    let mut pairs = Vec::with_capacity(size.pair_sources * PARTNERS);
    while pairs.len() < size.pair_sources * PARTNERS {
        let a = rng.gen_range(0..nn);
        let column = checks::series_column(&base, a, cfg.c, cfg.iterations);
        let top = checks::exact_top(&column, a, PARTNERS);
        if top.len() == PARTNERS {
            pairs.extend(top.into_iter().map(|b| (a, b)));
        }
    }
    let topk = (0..size.batches.div_ceil(size.topk_every))
        .map(|_| rng.gen_range(0..nn))
        .collect();
    let mut shadow = base.clone();
    let stream = random_toggles_in(&mut shadow, 0..nn, size.batches * size.batch_ops, &mut rng);
    Inputs {
        n,
        edges: base.edges().collect(),
        stream,
        pairs,
        topk,
    }
}

/// An answer kept for the reference check, with the number of batches
/// applied to the graph that answered it.
enum Answer {
    TopK {
        batches: usize,
        node: u32,
        got: Vec<RankedNode>,
    },
    Pairs {
        batches: usize,
        pairs: Vec<(u32, u32)>,
        got: Vec<f64>,
    },
}

impl Answer {
    fn batches(&self) -> usize {
        match self {
            Answer::TopK { batches, .. } | Answer::Pairs { batches, .. } => *batches,
        }
    }
}

pub fn run(size: &Size, seed: u64, perturb: bool, rec: &mut Recorder) -> Result<Outcome, String> {
    let cfg = SimRankConfig::paper_default();
    let inp = inputs(size, seed, &cfg);
    let builder = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .probe_options(ProbeOptions::default());
    let mut o = Outcome::default();
    let mut tally = Tally::default();

    // Setup, repeated (it is short): edge list → first published epoch.
    rec.begin_phase(Phase::Setup);
    let mut setup_s = Vec::new();
    let mut terminal_s = Vec::new();
    let mut srv = None;
    for k in 0..size.setups {
        rec.set_batch(k as u64);
        drop(srv.take());
        let (g, edges) = rec.call("from_edges", || DiGraph::from_edges(inp.n, &inp.edges));
        let (built, terminal) = rec.call("concurrent", || builder.clone().concurrent(g));
        tally.result(&built);
        setup_s.push((terminal.end - edges.start).as_secs_f64());
        terminal_s.push(terminal.secs());
        srv = Some(built.map_err(|e| format!("setup: {e}"))?);
    }
    rec.end_phase();
    let mut srv = srv.ok_or("no setup ran")?;
    let reader = srv.reader();

    // The closed loop: a fixed number of batches.
    let before = srv.counters();
    rec.begin_phase(Phase::Ingest);
    let mut ing = Ingest::default();
    let mut answers: Vec<Answer> = Vec::new();
    let block_len = 2 * PARTNERS;
    for batch in 0..size.batches {
        rec.set_batch(batch as u64);
        if batch % size.topk_every == 0 {
            let epoch = reader.epoch();
            let node = inp.topk[batch / size.topk_every];
            let (got, call) = rec.call("top_k", || epoch.top_k(node, 10));
            ing.topk_block(call, 1);
            tally.reads(1);
            answers.push(Answer::TopK {
                batches: batch,
                node,
                got,
            });
        }
        let ops = &inp.stream[batch * size.batch_ops..(batch + 1) * size.batch_ops];
        let (r, call) = rec.call("update_batch", || srv.update_batch(ops));
        tally.result(&r);
        ing.updated(call, ops.len(), r.as_deref().unwrap_or_default());
        let (_, call) = rec.call("publish", || srv.publish());
        tally.reads(1);
        ing.published(call);
        let epoch = reader.epoch();
        let at = batch * block_len % inp.pairs.len();
        let pairs = &inp.pairs[at..at + block_len];
        let (got, call) = rec.call("pair_block", || {
            pairs
                .iter()
                .map(|&(a, b)| epoch.pair(a, b))
                .collect::<Vec<f64>>()
        });
        ing.pair_block(call, pairs.len());
        tally.reads(pairs.len());
        if batch % size.check_every == 0 || batch + 1 == size.batches {
            answers.push(Answer::Pairs {
                batches: batch + 1,
                pairs: pairs.to_vec(),
                got,
            });
        }
    }
    rec.end_phase();
    o.set("peak_rss_mb", record::peak_rss_mb());
    ing.fill(&mut o, &before, &srv.counters());
    o.set("setup_s", record::median(&setup_s));
    o.set("serve.build_s", record::median(&terminal_s));

    // Reference checks: replay the stream on the base graph and judge each
    // kept answer against the exact columns of the graph that answered it.
    answers.sort_by_key(Answer::batches);
    let mut g = DiGraph::from_edges(inp.n, &inp.edges);
    let mut applied = 0usize;
    // The self-test perturbs the first answer of each kind.
    let (mut perturb_topk, mut perturb_pairs) = (perturb, perturb);
    for answer in &answers {
        while applied < answer.batches() {
            for op in &inp.stream[applied * size.batch_ops..(applied + 1) * size.batch_ops] {
                op.apply(&mut g).map_err(|e| format!("replay: {e:?}"))?;
            }
            applied += 1;
        }
        let column = |a: u32| checks::series_column(&g, a, cfg.c, cfg.iterations);
        match answer {
            Answer::TopK { node, got, .. } => {
                let got: &[RankedNode] = if std::mem::take(&mut perturb_topk) {
                    &[]
                } else {
                    got
                };
                o.margins.judge(
                    &mut tally,
                    "probe_topk",
                    checks::probe_topk_error(got, &column(*node), *node, 10),
                    checks::PROBE_TOPK_EPS,
                );
            }
            Answer::Pairs { pairs, got, .. } => {
                let mut columns: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
                let want: Vec<f64> = pairs
                    .iter()
                    .map(|&(a, b)| columns.entry(a).or_insert_with(|| column(a))[b as usize])
                    .collect();
                let zeros = vec![0.0; got.len()];
                let got = if std::mem::take(&mut perturb_pairs) {
                    &zeros
                } else {
                    got
                };
                o.margins.judge(
                    &mut tally,
                    "probe_pairs",
                    checks::probe_pairs_error(got, &want),
                    checks::PROBE_PAIR_EPS,
                );
            }
        }
    }

    // Split call, traced run only: the walk work of one top-k, read from
    // the live handle's counters (frozen epochs do not expose theirs).
    if rec.traced() {
        let shard = srv.sharded().shard(0);
        let c0 = shard.counters();
        std::hint::black_box(shard.top_k(inp.topk[0], 10));
        let c1 = shard.counters();
        o.set(
            "core.walks_sampled",
            c1.walks_sampled.saturating_sub(c0.walks_sampled) as f64,
        );
        o.set(
            "core.probe_expansions",
            c1.probe_expansions.saturating_sub(c0.probe_expansions) as f64,
        );
    }
    o.tally = tally;
    Ok(o)
}
