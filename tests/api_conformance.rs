//! Dyn-object conformance suite for the `incsim::api` service layer. The
//! served dense engine, Inc-SR, is driven through one random ER and one
//! random R-MAT update stream behind `Box<dyn SimRankMaintainer>` (inside
//! a [`SimRank`] handle), under **every** [`ApplyPolicy`], and checked
//! against a from-scratch batch recomputation after *every* update: pair
//! queries, top-k, and the final materialised matrix all within 1e-12.
//! The matrix-free Probe engine is held to batch truth within its
//! sampling tolerance.
//!
//! A snapshot shares its engine's base matrix until the engine's next
//! write (copy-on-write). The tests at the end pin that contract for
//! Inc-SR under every policy: a snapshot never moves when the engine
//! mutates, it keeps sharing through every call with nothing to write,
//! and the first write ends the sharing. Inc-uSR and Inc-SVD are not
//! served, but they share their buffer the same way, so their snapshot
//! isolation is checked on the bare engines.

use incsim::api::{ApplyPolicy, EngineKind, SimRank, SimRankBuilder};
use incsim::baselines::{IncSvd, IncSvdOptions};
use incsim::core::{
    batch_simrank, ApplyMode, GraphSink, IncSr, IncUSr, MatrixAccess, ProbeOptions, ScoreSnapshot,
    SimRankConfig,
};
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::rmat::{rmat, RmatParams};
use incsim::graph::{DiGraph, UpdateOp};
use incsim::linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [ApplyPolicy; 4] = [
    ApplyPolicy::Eager,
    ApplyPolicy::Fused,
    ApplyPolicy::Lazy,
    ApplyPolicy::Auto,
];

/// High-K config: truncation ~0.6^61 ≈ 4e-14 per entry, far below the
/// 1e-12 agreement bar, so any excess disagreement is a logic bug.
fn tight() -> SimRankConfig {
    SimRankConfig::new(0.6, 60).expect("valid config")
}

/// A valid update stream built by walking a shadow graph: flip the edge
/// state of random non-loop pairs, so every op applies cleanly in order.
fn stream_on(g: &DiGraph, len: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow = g.clone();
    let n = g.node_count() as u32;
    let mut ops = Vec::new();
    while ops.len() < len {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if shadow.has_edge(u, v) {
            shadow.remove_edge(u, v).expect("edge tracked as present");
            ops.push(UpdateOp::Delete(u, v));
        } else {
            shadow.insert_edge(u, v).expect("edge tracked as absent");
            ops.push(UpdateOp::Insert(u, v));
        }
    }
    ops
}

fn build(policy: ApplyPolicy, g: &DiGraph, s0: &DenseMatrix) -> SimRank {
    SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(policy)
        .config(tight())
        .with_scores(g.clone(), s0.clone())
        .expect("engine constructs")
}

/// The service-call schedule shared by every run: alternate unit updates
/// with small batches so both paths are exercised. Returns the op ranges.
fn schedule(len: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut idx = 0usize;
    while idx < len {
        let take = if idx % 3 == 2 { 3.min(len - idx) } else { 1 };
        out.push(idx..idx + take);
        idx += take;
    }
    out
}

/// Drives one handle through `ops`, cross-checking every step against the
/// precomputed per-step reference matrices. Interleaves queries so `Auto`
/// visits its lazy route. Returns the final materialised matrix.
fn drive(
    sim: &mut SimRank,
    ops: &[UpdateOp],
    refs: &[DenseMatrix],
    tol: f64,
    ctx: &str,
) -> DenseMatrix {
    let mut shadow = sim.graph().clone();
    let n = shadow.node_count() as u32;
    for (step, range) in schedule(ops.len()).into_iter().enumerate() {
        let chunk = &ops[range];
        for op in chunk {
            op.apply(&mut shadow).expect("stream valid");
        }
        if chunk.len() == 1 {
            sim.update(chunk[0]).expect("stream valid");
        } else {
            sim.update_batch(chunk).expect("stream valid");
        }
        let idx = step + 1;

        let expect = &refs[step];
        // Pair queries across the whole matrix — identical in every mode.
        for a in 0..n {
            for b in 0..n {
                let got = sim.pair(a, b);
                let want = expect.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() <= tol,
                    "{ctx}: step {idx} pair ({a},{b}): {got} vs {want} \
                     (diff {:.2e})",
                    (got - want).abs()
                );
            }
        }
        // Ranked queries agree on scores (rank ties may reorder freely).
        let probe = (idx as u32 * 7) % n;
        let got_top = sim.top_k(probe, 5);
        let want_top = incsim::core::query::top_k_for_node(expect, probe, 5);
        for (g_, w) in got_top.iter().zip(&want_top) {
            assert!(
                (g_.score - w.score).abs() <= tol,
                "{ctx}: step {idx} top-k score drift"
            );
        }
    }
    assert_eq!(sim.graph(), &shadow, "{ctx}: graph drift");
    sim.scores().expect("Inc-SR is matrix-backed").clone()
}

fn conformance_on(g: DiGraph, stream_seed: u64, ctx: &str) {
    let cfg = tight();
    let s0 = batch_simrank(&g, &cfg);
    let ops = stream_on(&g, 10, stream_seed);

    // Per-step ground truth, computed once: from-scratch batch SimRank on
    // the shadow graph after every service call of the shared schedule.
    let mut shadow = g.clone();
    let mut refs: Vec<DenseMatrix> = Vec::new();
    for range in schedule(ops.len()) {
        for op in &ops[range] {
            op.apply(&mut shadow).expect("stream valid");
        }
        refs.push(batch_simrank(&shadow, &cfg));
    }

    // Ground truth is the batch recomputation, under every policy.
    for policy in POLICIES {
        let mut sim = build(policy, &g, &s0);
        let ctx = format!("{ctx}/IncSr/{policy:?}");
        let final_scores = drive(&mut sim, &ops, &refs, 1e-12, &ctx);
        let diff = final_scores.max_abs_diff(refs.last().expect("nonempty"));
        assert!(diff <= 1e-12, "{ctx}: final matrix drift {diff:.2e}");
    }
}

#[test]
fn incsr_all_policies_match_batch_on_er_stream() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    let g = erdos_renyi(18, 40, &mut rng);
    conformance_on(g, 11, "ER");
}

#[test]
fn incsr_all_policies_match_batch_on_rmat_stream() {
    let mut rng = StdRng::seed_from_u64(0x77A7);
    let g = rmat(4, 36, &RmatParams::default(), &mut rng);
    conformance_on(g, 23, "R-MAT");
}

/// Probe-engine conformance: the matrix-free engine is *unbiased for the
/// K-truncated batch scores* (the truncation `batch_simrank` computes), so its
/// contract is `(1 ± ε)` agreement where ε is pure sampling noise,
/// `O(1/√R)`. With the sample counts below the documented tolerance is
/// **ε = 0.05 absolute** on scores in `[0, 1]` — orders of magnitude
/// above the observed noise floor, so a failure means a logic bug, not
/// an unlucky seed (the seed is fixed anyway).
fn probe_conformance_on(g: DiGraph, stream_seed: u64, ctx: &str) {
    const EPS: f64 = 0.05;
    // K = 8 (not the exact engines' K = 60): walk length is O(K) per
    // sample, and 0.6^9 ≈ 0.01 already sits below ε.
    let cfg = SimRankConfig::new(0.6, 8).expect("valid config");
    let opts = ProbeOptions {
        walks: 3000,
        pair_walks: 20_000,
        prune: 0.0,
        seed: 0xC0FFEE,
    };
    let mut sim = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .config(cfg)
        .probe_options(opts)
        .from_graph(g.clone())
        .expect("engine constructs");
    assert!(sim.is_matrix_free());

    let ops = stream_on(&g, 10, stream_seed);
    let mut shadow = g.clone();
    let n = shadow.node_count() as u32;
    for (step, range) in schedule(ops.len()).into_iter().enumerate() {
        let chunk = &ops[range];
        for op in chunk {
            op.apply(&mut shadow).expect("stream valid");
        }
        if chunk.len() == 1 {
            sim.update(chunk[0]).expect("stream valid");
        } else {
            sim.update_batch(chunk).expect("stream valid");
        }
        let truth = batch_simrank(&shadow, &cfg);

        // Spot pair queries (two-sided sampled estimate).
        for t in 0..4usize {
            let a = ((step * 5 + t * 7) as u32) % n;
            let b = ((step * 3 + t * 11 + 1) as u32) % n;
            let got = sim.pair(a, b);
            let want = truth.get(a as usize, b as usize);
            assert!(
                (got - want).abs() <= EPS,
                "{ctx}: step {step} pair ({a},{b}): {got} vs {want}"
            );
        }

        // One full row via single-source (walk-and-probe; absent ⇒ 0).
        let src = (step as u32 * 7) % n;
        let row = sim.single_source(src);
        let by_node: std::collections::HashMap<u32, f64> =
            row.iter().map(|r| (r.node, r.score)).collect();
        for b in 0..n {
            if b == src {
                continue;
            }
            let est = by_node.get(&b).copied().unwrap_or(0.0);
            let want = truth.get(src as usize, b as usize);
            assert!(
                (est - want).abs() <= EPS,
                "{ctx}: step {step} source {src} target {b}: {est} vs {want}"
            );
        }

        // Ranked queries: estimated top-k scores track the true ones.
        let got_top = sim.top_k(src, 3);
        let want_top = incsim::core::query::top_k_for_node(&truth, src, 3);
        for (g_, w) in got_top.iter().zip(&want_top) {
            assert!(
                (g_.score - w.score).abs() <= EPS,
                "{ctx}: step {step} top-k score {} vs {}",
                g_.score,
                w.score
            );
        }
    }
    assert_eq!(sim.graph(), &shadow, "{ctx}: graph drift");
}

#[test]
fn probe_tracks_batch_truth_on_er_stream() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    let g = erdos_renyi(18, 40, &mut rng);
    probe_conformance_on(g, 11, "ER/Probe");
}

#[test]
fn probe_tracks_batch_truth_on_rmat_stream() {
    let mut rng = StdRng::seed_from_u64(0x77A7);
    let g = rmat(4, 36, &RmatParams::default(), &mut rng);
    probe_conformance_on(g, 23, "R-MAT/Probe");
}

/// Capability absence is an *answer*, not a crash: every dense-matrix
/// extra on the service surface degrades to a documented `Result`/
/// `Option`/error value when the engine holds no matrix.
#[test]
fn probe_matrix_capabilities_absent_without_panic() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    let g = erdos_renyi(18, 40, &mut rng);
    let mut sim = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .config(SimRankConfig::new(0.6, 8).expect("valid config"))
        .from_graph(g)
        .expect("engine constructs");

    let err = sim.scores().expect_err("no matrix behind Probe");
    let msg = err.to_string();
    assert!(
        msg.contains("Probe") && msg.contains("MatrixAccess"),
        "unhelpful capability error: {msg}"
    );
    assert!(sim.view().is_none());
    assert!(sim.snapshot_view().is_none());
    assert_eq!(sim.flush(), 0);
    assert_eq!(sim.compress(), 0);
    assert_eq!(sim.pending_rank(), 0);
    assert_eq!(sim.pending_heap_bytes(), 0);
    let mut buf = Vec::new();
    sim.snapshot(&mut buf)
        .expect_err("INCSIM01 checkpoints need a matrix");
    assert!(buf.is_empty());
    // The engine-agnostic snapshot path still works.
    let snap = sim.snapshot_query();
    assert_eq!(snap.n(), 18);
    assert!(snap.score_snapshot().is_none());
}

/// Address of the engine's base buffer, through the public view.
fn base_ptr(sim: &SimRank) -> *const f64 {
    sim.view().expect("dense engine").base().as_slice().as_ptr()
}

fn snap_ptr(snap: &ScoreSnapshot) -> *const f64 {
    snap.view().base().as_slice().as_ptr()
}

/// A non-loop pair that is (`present`) or is not an edge of `g`.
fn pick_pair(g: &DiGraph, present: bool, rng: &mut StdRng) -> (u32, u32) {
    let n = g.node_count() as u32;
    loop {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && g.has_edge(u, v) == present {
            return (u, v);
        }
    }
}

fn insert_some(sim: &mut SimRank, rng: &mut StdRng) {
    let (u, v) = pick_pair(sim.graph(), false, rng);
    sim.insert(u, v).expect("absent edge inserts");
}

/// A snapshot together with deep copies of its base and of its composed
/// `S_base + Δ`, taken at the same moment.
struct Frozen {
    snap: ScoreSnapshot,
    base: DenseMatrix,
    effective: DenseMatrix,
}

impl Frozen {
    fn take(snap: ScoreSnapshot) -> Self {
        let base = snap.view().base().clone();
        let effective = snap.view().materialise();
        Frozen {
            snap,
            base,
            effective,
        }
    }

    /// The snapshot is still bit-identical to its deep copies.
    fn assert_unmoved(&self, ctx: &str) {
        assert!(self.snap.view().base() == &self.base, "{ctx}: base moved");
        assert!(
            self.snap.view().materialise() == self.effective,
            "{ctx}: S_base + Δ moved"
        );
    }
}

fn conformance_graph() -> (DiGraph, DenseMatrix) {
    let mut rng = StdRng::seed_from_u64(0x5A4E);
    let g = erdos_renyi(20, 60, &mut rng);
    let s0 = batch_simrank(&g, &tight());
    (g, s0)
}

/// One named mutation of a handle (or, for `E`, of a bare engine).
type Step<E = SimRank> = (&'static str, fn(&mut E, &mut StdRng));

/// Every mutating entry point of the service handle.
const MUTATIONS: [Step; 6] = [
    ("insert", insert_some),
    ("remove", |sim, rng| {
        let (u, v) = pick_pair(sim.graph(), true, rng);
        sim.remove(u, v).expect("present edge removes");
    }),
    ("update_batch", |sim, rng| {
        let (a, b) = pick_pair(sim.graph(), false, rng);
        let (c, d) = pick_pair(sim.graph(), true, rng);
        sim.update_batch(&[UpdateOp::Insert(a, b), UpdateOp::Delete(c, d)])
            .expect("valid batch");
    }),
    ("flush", |sim, _| {
        sim.flush();
    }),
    ("mode change", |sim, _| {
        let m = sim.engine_mut().matrix_mut().expect("dense engine");
        let next = if m.mode() == ApplyMode::Lazy {
            ApplyMode::Eager
        } else {
            ApplyMode::Lazy
        };
        m.set_mode(next);
    }),
    ("add_node", |sim, _| {
        sim.add_node();
    }),
];

/// Every mutating entry point of a bare dense engine: the engine-level
/// twin of [`MUTATIONS`], for the engines the service layer does not
/// serve.
fn engine_mutations<E: MatrixAccess + GraphSink>() -> [Step<E>; 6] {
    [
        ("insert_edge", |e, rng| {
            let (u, v) = pick_pair(e.graph(), false, rng);
            e.insert_edge(u, v).expect("absent edge inserts");
        }),
        ("remove_edge", |e, rng| {
            let (u, v) = pick_pair(e.graph(), true, rng);
            e.remove_edge(u, v).expect("present edge removes");
        }),
        ("apply_batch", |e, rng| {
            let (a, b) = pick_pair(e.graph(), false, rng);
            let (c, d) = pick_pair(e.graph(), true, rng);
            e.apply_batch(&[UpdateOp::Insert(a, b), UpdateOp::Delete(c, d)])
                .expect("valid batch");
        }),
        ("flush", |e, _| {
            e.flush();
        }),
        ("mode change", |e, _| {
            let next = if e.mode() == ApplyMode::Lazy {
                ApplyMode::Eager
            } else {
                ApplyMode::Lazy
            };
            e.set_mode(next);
        }),
        ("add_node", |e, _| {
            e.add_node();
        }),
    ]
}

/// Takes a snapshot before each of [`engine_mutations`] and checks the
/// mutation leaves it unmoved.
fn engine_snapshots_stay_frozen<E: MatrixAccess + GraphSink>(
    mut engine: E,
    rng: &mut StdRng,
    ctx: &str,
) {
    for (name, mutate) in engine_mutations::<E>() {
        let (u, v) = pick_pair(engine.graph(), false, rng);
        engine.insert_edge(u, v).expect("absent edge inserts");
        let frozen = Frozen::take(engine.snapshot_view());
        mutate(&mut engine, rng);
        frozen.assert_unmoved(&format!("{ctx}/{name}"));
    }
}

#[test]
fn snapshots_stay_frozen_through_every_mutation() {
    let (g, s0) = conformance_graph();
    let mut rng = StdRng::seed_from_u64(7);
    for policy in POLICIES {
        let mut sim = build(policy, &g, &s0);
        for (name, mutate) in MUTATIONS {
            let ctx = format!("IncSr/{policy:?}/{name}");
            // Leave an update pending where the policy defers, so a
            // flush or a mode change has something to fold.
            insert_some(&mut sim, &mut rng);
            let frozen = Frozen::take(sim.snapshot_view().expect("dense engine"));
            mutate(&mut sim, &mut rng);
            frozen.assert_unmoved(&ctx);
        }
    }

    // The unserved dense engines, built directly: Inc-uSR in every apply
    // mode, and Inc-SVD at lossless rank.
    for mode in [ApplyMode::Eager, ApplyMode::Fused, ApplyMode::Lazy] {
        let engine = IncUSr::new(g.clone(), s0.clone(), tight()).with_mode(mode);
        engine_snapshots_stay_frozen(engine, &mut rng, &format!("Inc-uSR/{mode:?}"));
    }
    let svd = IncSvd::new(
        g.clone(),
        tight(),
        IncSvdOptions {
            rank: g.node_count(),
            randomized: false,
            ..Default::default()
        },
    )
    .expect("lossless-rank Inc-SVD constructs");
    engine_snapshots_stay_frozen(svd, &mut rng, "Inc-SVD");

    // Row-grouped batches exist on the two deferring engines only, as
    // inherent methods: drive them in every apply mode.
    fn grouped<E: MatrixAccess + GraphSink>(
        mut engine: E,
        apply_grouped: fn(&mut E, &[UpdateOp]),
        rng: &mut StdRng,
        ctx: &str,
    ) {
        let (u, v) = pick_pair(engine.graph(), false, rng);
        engine.insert_edge(u, v).expect("absent edge inserts");
        let frozen = Frozen::take(engine.snapshot_view());
        let (a, b) = pick_pair(engine.graph(), false, rng);
        let (c, d) = pick_pair(engine.graph(), true, rng);
        apply_grouped(
            &mut engine,
            &[UpdateOp::Insert(a, b), UpdateOp::Delete(c, d)],
        );
        frozen.assert_unmoved(ctx);
    }
    for mode in [ApplyMode::Eager, ApplyMode::Fused, ApplyMode::Lazy] {
        let engine = IncSr::new(g.clone(), s0.clone(), tight()).with_mode(mode);
        grouped(
            engine,
            |e, ops| {
                e.apply_grouped(ops).expect("valid batch");
            },
            &mut rng,
            &format!("Inc-SR/{mode:?}/apply_grouped"),
        );
        let engine = IncUSr::new(g.clone(), s0.clone(), tight()).with_mode(mode);
        grouped(
            engine,
            |e, ops| {
                e.apply_grouped(ops).expect("valid batch");
            },
            &mut rng,
            &format!("Inc-uSR/{mode:?}/apply_grouped"),
        );
    }
}

#[test]
fn snapshots_share_the_engine_buffer_until_it_writes() {
    let (g, s0) = conformance_graph();
    let mut rng = StdRng::seed_from_u64(11);
    for policy in POLICIES {
        let ctx = format!("IncSr/{policy:?}");
        let mut sim = build(policy, &g, &s0);
        insert_some(&mut sim, &mut rng);

        // Shared right after it is taken, pending updates or not.
        let frozen = Frozen::take(sim.snapshot_view().expect("dense engine"));
        let shared = |sim: &SimRank| base_ptr(sim) == snap_ptr(&frozen.snap);
        assert!(shared(&sim), "{ctx}: snapshot copied the matrix");

        // Reads never copy.
        let _ = sim.pair(0, 1);
        let _ = sim.single_source(2);
        let _ = sim.top_k(3, 4);
        let _ = sim.similar_above(4, 0.01);
        let _ = sim.snapshot_query();
        let _ = sim.snapshot_view();
        let _ = (sim.pending_rank(), sim.pending_heap_bytes());
        assert!(shared(&sim), "{ctx}: a read copied the matrix");

        // Re-asserting the current mode (what `Auto` does on every
        // update) and recompressing pending factors never copy.
        let m = sim.engine_mut().matrix_mut().expect("dense engine");
        let mode = m.mode();
        m.set_mode(mode);
        assert!(shared(&sim), "{ctx}: set_mode(current) copied");
        sim.compress();
        assert!(shared(&sim), "{ctx}: compress copied");

        // With nothing pending, flush, scores(), compress_pending and
        // the checkpoint image have nothing to write either.
        sim.flush();
        let idle = Frozen::take(sim.snapshot_view().expect("dense engine"));
        let idle_shared = |sim: &SimRank| base_ptr(sim) == snap_ptr(&idle.snap);
        assert_eq!(sim.flush(), 0);
        sim.scores().expect("dense engine");
        sim.engine_mut()
            .matrix_mut()
            .expect("dense engine")
            .compress_pending(1e-13);
        let mut image = Vec::new();
        sim.snapshot(&mut image).expect("dense checkpoint");
        assert!(!image.is_empty());
        assert!(idle_shared(&sim), "{ctx}: an idle call copied");

        // The first write ends the sharing; under Lazy that write is
        // the flush that folds the pending update in.
        insert_some(&mut sim, &mut rng);
        if sim.pending_rank() == 0 {
            assert!(!idle_shared(&sim), "{ctx}: write did not copy");
        }
        sim.flush();
        assert!(!idle_shared(&sim), "{ctx}: flush did not copy");
        frozen.assert_unmoved(&ctx);
        idle.assert_unmoved(&ctx);
    }
}

#[test]
fn lazy_snapshots_share_one_buffer_across_unflushed_updates() {
    let (g, s0) = conformance_graph();
    let mut rng = StdRng::seed_from_u64(13);
    let ctx = "IncSr/Lazy";
    let mut sim = build(ApplyPolicy::Lazy, &g, &s0);
    let first = Frozen::take(sim.snapshot_view().expect("dense engine"));
    insert_some(&mut sim, &mut rng);
    insert_some(&mut sim, &mut rng);
    assert!(sim.pending_rank() > 0, "{ctx}: updates were not deferred");
    let second = Frozen::take(sim.snapshot_view().expect("dense engine"));
    assert_eq!(snap_ptr(&first.snap), snap_ptr(&second.snap), "{ctx}");
    assert_eq!(base_ptr(&sim), snap_ptr(&second.snap), "{ctx}");
    // One buffer, two moments: each answers for its own.
    assert!(first.effective != second.effective, "{ctx}: no change seen");
    sim.flush();
    assert_ne!(base_ptr(&sim), snap_ptr(&second.snap), "{ctx}");
    first.assert_unmoved(ctx);
    second.assert_unmoved(ctx);
}
