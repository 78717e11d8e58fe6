//! Conformance suite for the temporal epoch ring
//! ([`SimRankBuilder::retain_epochs`] + the `*_at` reads on
//! [`ConcurrentSimRank`]): eviction at the retention boundary, bitwise
//! head identity, reconstructed past epochs tracking the recorded live
//! trajectory on ER and R-MAT update streams, seed-identical matrix-free
//! (probe) reconstruction, and `top_movers` against a brute-force
//! two-snapshot scan.

use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
use incsim::core::SimRankConfig;
use incsim::datagen::er::erdos_renyi;
use incsim::datagen::rmat::{rmat, RmatParams};
use incsim::datagen::updates::random_toggles_in;
use incsim::graph::{DiGraph, UpdateOp};
use incsim::serve::{ConcurrentSimRank, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg() -> SimRankConfig {
    SimRankConfig::new(0.6, 12).expect("valid config")
}

fn builder(retain: usize) -> SimRankBuilder {
    SimRankBuilder::new()
        .algorithm(EngineKind::IncSr)
        .mode(ApplyPolicy::Auto)
        .config(cfg())
        .retain_epochs(retain)
}

/// A valid toggle stream over the whole graph.
fn stream(g: &DiGraph, len: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow = g.clone();
    random_toggles_in(&mut shadow, 0..g.node_count() as u32, len, &mut rng)
}

/// The full upper triangle (including the diagonal) of the currently
/// published epoch, read through a pinned reader epoch.
fn record_head(srv: &ConcurrentSimRank) -> Vec<f64> {
    let epoch = srv.reader().epoch();
    let n = epoch.n() as u32;
    let mut out = Vec::with_capacity((n as usize * (n as usize + 1)) / 2);
    for a in 0..n {
        for b in a..n {
            out.push(epoch.pair(a, b));
        }
    }
    out
}

fn tri_index(n: usize, a: usize, b: usize) -> usize {
    // Row-major upper triangle with diagonal: row a starts after
    // a*n − a(a−1)/2 entries (saturating keeps row 0 out of debug-mode
    // underflow; the product is 0 either way).
    a * n - a * a.saturating_sub(1) / 2 + (b - a)
}

/// Drives `ops` through the serving handle, publishing every `every`
/// ops (alternating unit and batch application), and records the head's
/// upper triangle at each publish. Returns `(seq, n, triangle)` rows.
fn drive_and_record(
    srv: &mut ConcurrentSimRank,
    ops: &[UpdateOp],
    every: usize,
) -> Vec<(u64, usize, Vec<f64>)> {
    let mut recorded = Vec::new();
    for (i, chunk) in ops.chunks(every).enumerate() {
        if i % 2 == 0 {
            for &op in chunk {
                srv.update(op).expect("stream valid");
            }
        } else {
            srv.update_batch(chunk).expect("stream valid");
        }
        let seq = srv.publish();
        recorded.push((seq, srv.sharded().graph().node_count(), record_head(srv)));
    }
    recorded
}

/// Every retained epoch must answer within `tol` of what it answered
/// live (the recorded trajectory).
fn assert_trajectory(srv: &ConcurrentSimRank, recorded: &[(u64, usize, Vec<f64>)], tol: f64) {
    let listed = srv.epochs();
    assert!(!listed.is_empty(), "retention on ⇒ head always listed");
    let mut checked = 0usize;
    for info in &listed {
        let Some((_, n, tri)) = recorded.iter().find(|(seq, ..)| *seq == info.seq) else {
            continue; // epoch 0 predates the first record
        };
        assert_eq!(info.n, *n, "epoch {} froze a different n", info.seq);
        let epoch = srv.epoch_at(info.seq).expect("listed epoch answers");
        for a in 0..*n as u32 {
            for b in a..*n as u32 {
                let got = epoch.pair(a, b);
                let want = tri[tri_index(*n, a as usize, b as usize)];
                assert!(
                    (got - want).abs() <= tol,
                    "epoch {} pair ({a},{b}): reconstructed {got} vs recorded {want} \
                     (diff {:.2e})",
                    info.seq,
                    (got - want).abs()
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 2, "trajectory check needs ≥ 2 retained epochs");
}

#[test]
fn ring_evicts_at_the_retention_boundary() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let g = erdos_renyi(10, 20, &mut rng);
    let ops = stream(&g, 6, 0xE2);
    let mut srv = builder(3).concurrent(g).expect("builds");

    for &op in &ops {
        srv.update(op).expect("stream valid");
        srv.publish();
    }

    // retain_epochs(3) ⇒ head + 2 ring entries stay addressable.
    let listed = srv.epochs();
    assert_eq!(listed.len(), 3);
    let seqs: Vec<u64> = listed.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![4, 5, 6]);
    assert_eq!(listed.last().expect("head listed").retained_bytes, 0);
    assert!(listed[0].retained_bytes > 0, "ring entries cost heap");

    for dead in [0, 1, 2, 3] {
        assert!(
            matches!(
                srv.pair_at(0, 1, dead),
                Err(ServeError::NoSuchEpoch { seq }) if seq == dead
            ),
            "epoch {dead} must be evicted"
        );
    }
    for live in seqs {
        srv.pair_at(0, 1, live).expect("retained epoch answers");
    }

    let c = srv.counters();
    assert_eq!(c.epochs_retained, 6, "every publish displaced a head");
    assert_eq!(c.epoch_evictions, 4, "6 retained − 2 ring slots");
    assert!(c.epoch_reconstructions >= 2, "ring reads reconstruct");
}

#[test]
fn head_epoch_reads_are_bitwise_identical_to_live() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    let g = erdos_renyi(12, 28, &mut rng);
    let n = g.node_count() as u32;
    let ops = stream(&g, 5, 0xB2);
    let mut srv = builder(4).concurrent(g).expect("builds");
    for &op in &ops {
        srv.update(op).expect("stream valid");
    }
    let head = srv.publish();

    let reader = srv.reader();
    for a in 0..n {
        for b in 0..n {
            let live = reader.pair(a, b);
            let at = srv.pair_at(a, b, head).expect("head is addressable");
            assert_eq!(
                live.to_bits(),
                at.to_bits(),
                "head read diverged at ({a},{b})"
            );
        }
    }
}

#[test]
fn reconstructed_epochs_track_the_recorded_trajectory_on_er() {
    let mut rng = StdRng::seed_from_u64(0x51);
    let g = erdos_renyi(14, 34, &mut rng);
    let ops = stream(&g, 18, 0x52);
    let mut srv = builder(5).concurrent(g).expect("builds");
    let recorded = drive_and_record(&mut srv, &ops, 3);
    assert_trajectory(&srv, &recorded, 1e-12);
}

#[test]
fn reconstructed_epochs_track_the_recorded_trajectory_on_rmat() {
    let mut rng = StdRng::seed_from_u64(0x61);
    let g = rmat(4, 40, &RmatParams::default(), &mut rng);
    let ops = stream(&g, 18, 0x62);
    let mut srv = builder(5).concurrent(g).expect("builds");
    let recorded = drive_and_record(&mut srv, &ops, 3);
    assert_trajectory(&srv, &recorded, 1e-12);
}

#[test]
fn probe_reconstruction_is_seed_identical_to_the_live_answer() {
    let mut rng = StdRng::seed_from_u64(0x91);
    let g = erdos_renyi(12, 30, &mut rng);
    let n = g.node_count() as u32;
    let ops = stream(&g, 8, 0x92);
    let mut srv = SimRankBuilder::new()
        .algorithm(EngineKind::Probe)
        .config(cfg())
        .retain_epochs(4)
        .concurrent(g)
        .expect("builds");

    // Record live probe answers at each publish.
    let mut recorded: Vec<(u64, Vec<f64>)> = Vec::new();
    for chunk in ops.chunks(2) {
        srv.update_batch(chunk).expect("stream valid");
        let seq = srv.publish();
        let epoch = srv.reader().epoch();
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in a..n {
                pairs.push(epoch.pair(a, b));
            }
        }
        recorded.push((seq, pairs));
    }

    let mut checked = 0usize;
    for info in srv.epochs() {
        let Some((_, pairs)) = recorded.iter().find(|(seq, _)| *seq == info.seq) else {
            continue;
        };
        let epoch = srv.epoch_at(info.seq).expect("retained epoch answers");
        let mut idx = 0usize;
        for a in 0..n {
            for b in a..n {
                let got = epoch.pair(a, b);
                assert_eq!(
                    got.to_bits(),
                    pairs[idx].to_bits(),
                    "probe epoch {} pair ({a},{b}) not seed-identical",
                    info.seq
                );
                idx += 1;
            }
        }
        checked += 1;
    }
    assert!(checked >= 2, "probe check needs ≥ 2 retained epochs");
}

#[test]
fn top_movers_matches_the_brute_force_two_snapshot_scan() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    let g = erdos_renyi(13, 30, &mut rng);
    let ops = stream(&g, 12, 0xA2);
    let mut srv = builder(6).concurrent(g).expect("builds");
    let recorded = drive_and_record(&mut srv, &ops, 3);

    let (e1, n1, tri1) = &recorded[0];
    let (e2, n2, tri2) = recorded.last().expect("recorded");
    assert!(n1 <= n2);

    // Brute force: every off-diagonal pair over the earlier node range,
    // ranked by |Δ| descending, ties by (a, b) ascending.
    let mut brute: Vec<(u32, u32, f64)> = Vec::new();
    for a in 0..*n1 {
        for b in (a + 1)..*n1 {
            let d = tri2[tri_index(*n2, a, b)] - tri1[tri_index(*n1, a, b)];
            if d != 0.0 {
                brute.push((a as u32, b as u32, d));
            }
        }
    }
    brute.sort_by(|x, y| {
        y.2.abs()
            .total_cmp(&x.2.abs())
            .then_with(|| x.0.cmp(&y.0))
            .then_with(|| x.1.cmp(&y.1))
    });

    let k = 7.min(brute.len());
    let movers = srv.top_movers(*e1, *e2, k).expect("dense chain diffs");
    assert_eq!(movers.len(), k);
    for (m, (a, b, d)) in movers.iter().zip(&brute) {
        assert_eq!((m.a, m.b), (*a, *b), "rank order diverged");
        assert!(
            (m.delta - d).abs() <= 1e-12,
            "delta ({},{}) {} vs brute {d}",
            m.a,
            m.b,
            m.delta
        );
    }

    // Swapping the arguments negates every delta, same ranking.
    let swapped = srv.top_movers(*e2, *e1, k).expect("order-agnostic");
    for (m, s) in movers.iter().zip(&swapped) {
        assert_eq!((m.a, m.b), (s.a, s.b));
        assert!((m.delta + s.delta).abs() <= 1e-15);
    }

    // Same epoch twice ⇒ nothing moved.
    assert!(srv
        .top_movers(*e2, *e2, 5)
        .expect("valid epochs")
        .is_empty());
}

#[test]
fn nodes_born_later_are_out_of_range_in_the_past() {
    let g = DiGraph::from_edges(8, &[(0, 2), (1, 2), (2, 3), (4, 5), (6, 7)]);
    let mut srv = builder(4).concurrent(g).expect("builds");
    srv.insert(0, 3).expect("valid");
    let past = srv.publish();

    let newborn = srv.add_node().expect("appends");
    srv.insert(newborn, 0).expect("valid");
    let now = srv.publish();

    let then = srv.epoch_at(past).expect("retained");
    assert_eq!(then.n(), 8, "past epoch keeps its node count");
    assert!(then.try_pair(newborn, 0).is_none(), "future node absent");
    assert!(
        srv.pair_at(newborn, 0, now)
            .expect("head answers")
            .is_finite(),
        "newborn queryable at the head"
    );

    let listed = srv.epochs();
    assert_eq!(listed[listed.len() - 2].n, 8);
    assert_eq!(listed[listed.len() - 1].n, 9);
}

#[test]
fn retained_heap_is_factor_compressed_not_dense() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    let n = 128usize;
    let g = erdos_renyi(n, 320, &mut rng);
    let ops = stream(&g, 14, 0xD2);
    let mut srv = builder(8).concurrent(g).expect("builds");
    for chunk in ops.chunks(2) {
        srv.update_batch(chunk).expect("stream valid");
        srv.publish();
    }
    let retained = srv.epochs().len() - 1;
    assert!(retained >= 6, "ring should be deep by now");
    let dense_cost = retained * n * n * std::mem::size_of::<f64>();
    let actual = srv.retained_heap_bytes();
    // Per-epoch factor rank is set by the ops between epochs, not by n,
    // so the ratio over dense keeps widening with n (the n=2048 bench
    // hard-gates sub-quadratic growth; here we pin a 2× floor).
    assert!(
        actual * 2 < dense_cost,
        "ring holds {actual} B; {retained} dense epochs would be {dense_cost} B — \
         retention must be factor-compressed"
    );
}
