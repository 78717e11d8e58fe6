//! Timing, spans and summary statistics.
//!
//! Every call the benchmark makes into the library goes through
//! [`Recorder::call`], which reads the clock on both sides. The untraced
//! run keeps only the two instants; the traced run also keeps one
//! [`Span`] per call in memory and writes them all out when the run ends.
//! Both runs therefore execute the same clock reads, and the only extra
//! work tracing adds is one `Vec::push` per call.

use crate::checks::Tally;
use crate::Outcome;
use incsim::api::{ModeCounters, SimRankBuilder};
use incsim::core::{batch_simrank, SimRankConfig, UpdateStats};
use incsim::graph::DiGraph;
use incsim::serve::{ConcurrentSimRank, Epoch, ShardedSimRank};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From the edge list to the first published epoch.
    Setup,
    /// The timed closed loop of updates, publishes and reads.
    Ingest,
    /// Reopening a crashed log (churn-durable only).
    Recover,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Ingest => "ingest",
            Phase::Recover => "recover",
        }
    }
}

/// One timed call into the library.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    /// Shared by a batch's update, publish and reads.
    pub batch: u64,
    pub start: Duration,
    pub end: Duration,
}

/// The two clock reads around one call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
}

impl Call {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Times calls and, when tracing, keeps their spans.
pub struct Recorder {
    origin: Instant,
    traced: bool,
    phase: Phase,
    batch: u64,
    spans: Vec<Span>,
    /// `(phase, start, end)` of every closed phase, in order.
    phases: Vec<(Phase, Duration, Duration)>,
    phase_start: Option<Instant>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            traced,
            phase: Phase::Setup,
            batch: 0,
            spans: Vec::new(),
            phases: Vec::new(),
            phase_start: None,
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Opens `phase`; spans recorded until [`Self::end_phase`] carry it.
    pub fn begin_phase(&mut self, phase: Phase) -> Instant {
        self.phase = phase;
        self.batch = 0;
        let now = Instant::now();
        self.phase_start = Some(now);
        now
    }

    /// Closes the open phase and returns its wall time in seconds.
    pub fn end_phase(&mut self) -> f64 {
        let end = Instant::now();
        let start = self.phase_start.take().unwrap_or(end);
        self.phases
            .push((self.phase, start - self.origin, end - self.origin));
        (end - start).as_secs_f64()
    }

    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Runs `f` as one timed call named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Call) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.traced {
            self.spans.push(Span {
                name,
                phase: self.phase,
                batch: self.batch,
                start: start - self.origin,
                end: end - self.origin,
            });
        }
        (out, Call { start, end })
    }

    /// Wall time of the (last) closed `phase`, in seconds.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.phases
            .iter()
            .rev()
            .find(|p| p.0 == phase)
            .map_or(0.0, |&(_, s, e)| (e - s).as_secs_f64())
    }

    /// Summed span time per call name inside `phase`, in seconds. Every
    /// call span is a leaf, so its self time is its duration; the phase's
    /// own self time is whatever its calls leave uncovered.
    pub fn self_secs(&self, phase: Phase, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && names.contains(&s.name))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Share of `phase`'s wall time covered by call spans.
    pub fn coverage(&self, phase: Phase) -> f64 {
        let wall = self.phase_secs(phase);
        if wall <= 0.0 {
            return 0.0;
        }
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        covered / wall
    }

    /// The spans and phases as one JSON document (times in microseconds
    /// since the recorder was created).
    pub fn spans_json(&self, workload: &str, seed: u64) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"phases\": ["
        );
        for (i, (p, s, e)) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                p.name(),
                us(*s),
                us(*e)
            );
        }
        out.push_str("\n], \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{}\", \"phase\": \"{}\", \"batch\": {}, \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.phase.name(),
                s.batch,
                us(s.start),
                us(s.end)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What the ingest loop of any workload measures: per-call latencies,
/// per-op freshness, block-timed reads and the engine's per-op stats.
#[derive(Debug, Default)]
pub struct Ingest {
    update_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    pair_us: Vec<f64>,
    topk_ms: Vec<f64>,
    /// Time spent inside update and publish calls.
    busy_s: f64,
    ops: usize,
    pair_reads: usize,
    topk_reads: usize,
    /// Update calls not yet made visible by a publish, with their op count.
    pending: Vec<(Call, usize)>,
    affected_pairs: f64,
    pruned_fraction: f64,
    gamma_density: f64,
    stats: usize,
}

impl Ingest {
    /// One update call that applied `ops` ops (`stats` empty on error).
    pub fn updated(&mut self, call: Call, ops: usize, stats: &[UpdateStats]) {
        self.update_ms.push(call.secs() * 1e3);
        self.busy_s += call.secs();
        self.ops += ops;
        self.pending.push((call, ops));
        for s in stats {
            self.affected_pairs += s.affected_pairs as f64;
            self.pruned_fraction += s.pruned_fraction;
            self.gamma_density += s.gamma_density;
            self.stats += 1;
        }
    }

    /// One publish: every pending op becomes visible at its return.
    pub fn published(&mut self, call: Call) {
        self.publish_ms.push(call.secs() * 1e3);
        self.busy_s += call.secs();
        for (u, ops) in self.pending.drain(..) {
            let fresh = (call.end - u.start).as_secs_f64() * 1e3;
            let wait = (call.start - u.end).as_secs_f64() * 1e3;
            for _ in 0..ops {
                self.fresh_ms.push(fresh);
                self.wait_ms.push(wait);
            }
        }
    }

    pub fn publishes(&self) -> usize {
        self.publish_ms.len()
    }

    pub fn ops(&self) -> usize {
        self.ops
    }

    /// A block of `reads` pair reads on one pinned epoch.
    pub fn pair_block(&mut self, call: Call, reads: usize) {
        self.pair_us.push(call.secs() * 1e6 / reads.max(1) as f64);
        self.pair_reads += reads;
    }

    /// A block of `reads` top-k reads on one pinned epoch.
    pub fn topk_block(&mut self, call: Call, reads: usize) {
        self.topk_ms.push(call.secs() * 1e3 / reads.max(1) as f64);
        self.topk_reads += reads;
    }

    /// The metrics every workload's ingest loop yields; `before`/`after`
    /// are the handle's counters around the loop.
    pub fn fill(&self, o: &mut Outcome, before: &ModeCounters, after: &ModeCounters) {
        let per_stat = |sum: f64| {
            if self.stats == 0 {
                0.0
            } else {
                sum / self.stats as f64
            }
        };
        let delta = |a: usize, b: usize| b.saturating_sub(a) as f64;
        o.set(
            "ingest_ops_per_s",
            if self.busy_s > 0.0 {
                self.ops as f64 / self.busy_s
            } else {
                0.0
            },
        );
        o.set("fresh_p50_ms", median(&self.fresh_ms));
        o.set("fresh_p90_ms", p90(&self.fresh_ms));
        o.set("pair_p50_us", median(&self.pair_us));
        o.set("topk_p50_ms", median(&self.topk_ms));
        o.set("topk_p90_ms", p90(&self.topk_ms));
        o.set("core.affected_pairs", per_stat(self.affected_pairs));
        o.set("core.pruned_fraction", per_stat(self.pruned_fraction));
        o.set("core.gamma_density", per_stat(self.gamma_density));
        o.set(
            "api.eager_updates",
            delta(before.eager_updates, after.eager_updates),
        );
        o.set(
            "api.fused_updates",
            delta(before.fused_updates, after.fused_updates),
        );
        o.set(
            "api.lazy_updates",
            delta(before.lazy_updates, after.lazy_updates),
        );
        o.set(
            "api.recompressions",
            delta(before.recompressions, after.recompressions),
        );
        o.set(
            "api.rank_cap_flushes",
            delta(before.rank_cap_flushes, after.rank_cap_flushes),
        );
        o.set("serve.update_ms.p50", median(&self.update_ms));
        o.set("serve.update_ms.p90", p90(&self.update_ms));
        o.set("serve.publish_ms.p50", median(&self.publish_ms));
        o.set("serve.publish_ms.p90", p90(&self.publish_ms));
        o.set("serve.publish_wait_ms", median(&self.wait_ms));
        o.set("serve.pair_us", median(&self.pair_us));
        o.set("serve.topk_ms.p50", median(&self.topk_ms));
        o.set("count.ops", self.ops as f64);
        o.set("count.update_calls", self.update_ms.len() as f64);
        o.set("count.publishes", self.publish_ms.len() as f64);
        o.set("count.pair_reads", self.pair_reads as f64);
        o.set("count.topk_reads", self.topk_reads as f64);
    }
}

/// Popular nodes per run. Their rows span a few hundred pages, which the
/// TLB holds; uniform targets over `citation-growth`'s 50 MB matrix
/// touch thousands, and each read waited on a page walk.
const POPULAR: usize = 64;

/// The head reads a dense workload makes after each publish, on one
/// pinned epoch: a block of pair reads, then a block of top-10 reads.
///
/// Each block cycles over a small hot set of targets among 64 popular
/// nodes, as skewed read traffic does. So a block lasts 10–25 ms, and
/// after its first pass it reads from cache and the TLB: it times the
/// read path's own code rather than the host's memory latency.
#[derive(Debug, Clone, Copy)]
pub struct HotReads {
    /// Pairs in the run's hot pair set, both ends drawn from the popular
    /// nodes.
    pairs: usize,
    /// Passes over the hot pair set per block.
    pair_passes: usize,
    /// Passes over the hot top-k nodes per block.
    topk_passes: usize,
}

impl HotReads {
    /// Full-size blocks: 384 passes over 4,096 pairs (about 10 ms), and
    /// `topk_passes` over the popular nodes.
    pub const fn full(topk_passes: usize) -> HotReads {
        HotReads {
            pairs: 4096,
            pair_passes: 384,
            topk_passes,
        }
    }

    pub const TOY: HotReads = HotReads {
        pairs: 64,
        pair_passes: 2,
        topk_passes: 1,
    };

    /// The run's read targets, from its seed.
    pub fn targets(&self, n: u32, rng: &mut StdRng) -> HotSet {
        let popular = nodes(n, POPULAR, rng);
        let mut pick = || popular[rng.gen_range(0..POPULAR)];
        let pairs = (0..self.pairs).map(|_| (pick(), pick())).collect();
        HotSet {
            pairs,
            topk: popular,
        }
    }

    /// The reads after a publish, each block timed as one call; every
    /// read counts as one attempted operation.
    pub fn read(
        &self,
        hot: &HotSet,
        epoch: &Epoch,
        rec: &mut Recorder,
        ing: &mut Ingest,
        tally: &mut Tally,
    ) {
        let (sum, call) = rec.call("pair_block", || {
            let mut sum = 0.0;
            for _ in 0..self.pair_passes {
                for &(a, b) in &hot.pairs {
                    sum += epoch.pair(a, b);
                }
            }
            sum
        });
        std::hint::black_box(sum);
        let pair_reads = self.pair_passes * hot.pairs.len();
        ing.pair_block(call, pair_reads);
        let ((), call) = rec.call("top_k_block", || {
            for _ in 0..self.topk_passes {
                for &a in &hot.topk {
                    std::hint::black_box(epoch.top_k(a, 10));
                }
            }
        });
        let topk_reads = self.topk_passes * hot.topk.len();
        ing.topk_block(call, topk_reads);
        tally.reads(pair_reads + topk_reads);
    }
}

/// A run's head-read targets: the hot pair set and the popular nodes,
/// whose top-k is read.
#[derive(Debug)]
pub struct HotSet {
    pairs: Vec<(u32, u32)>,
    topk: Vec<u32>,
}

/// `count` nodes drawn uniformly from `0..n`.
pub fn nodes(n: u32, count: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

/// Times the two halves of a dense builder terminal on their own: the
/// batch precompute (`core.batch_s`), then the router, first epoch and,
/// when durable, base checkpoint built from its scores (`serve.build_s`).
/// Returns `(batch_s, build_s)`.
pub fn split_terminal(
    builder: SimRankBuilder,
    graph: DiGraph,
    cfg: &SimRankConfig,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let scores = batch_simrank(&graph, cfg);
    let batch_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let built = ShardedSimRank::with_scores(builder, graph, scores).map(ConcurrentSimRank::new);
    let build_s = t.elapsed().as_secs_f64();
    tally.result(&built);
    built.map_err(|e| format!("split build: {e}"))?;
    Ok((batch_s, build_s))
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 90th percentile, or 0 when fewer than ten samples lie beyond it
/// (a tail is reported only where it rests on at least ten samples).
pub fn p90(values: &[f64]) -> f64 {
    if values.len() < 100 {
        return 0.0;
    }
    quantile(values, 0.9)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), 0.0);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(p90(&enough) > 88.0);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans_but_times_calls() {
        let mut rec = Recorder::new(false);
        rec.begin_phase(Phase::Ingest);
        let (v, call) = rec.call("x", || 7);
        rec.end_phase();
        assert_eq!(v, 7);
        assert!(call.secs() >= 0.0);
        assert_eq!(rec.coverage(Phase::Ingest), 0.0);
        assert!(rec.spans_json("w", 1).contains("\"spans\": [\n]"));
    }

    #[test]
    fn traced_recorder_covers_its_phase() {
        let mut rec = Recorder::new(true);
        rec.begin_phase(Phase::Ingest);
        rec.call("sleep", || std::thread::sleep(Duration::from_millis(20)));
        rec.end_phase();
        assert!(rec.coverage(Phase::Ingest) > 0.9);
        assert!(rec.self_secs(Phase::Ingest, &["sleep"]) >= 0.02);
        assert!(rec.spans_json("w", 1).contains("\"name\": \"sleep\""));
    }
}
