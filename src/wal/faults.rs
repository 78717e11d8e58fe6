//! Deterministic fault injection for the durability subsystem.
//!
//! Two families of faults, both replayable from a seed:
//!
//! * **Log faults** ([`Fault`] / [`apply_fault`] / [`FaultPlan`]) damage a
//!   WAL byte image the way real crashes and bad media do — torn final
//!   writes, flipped bits, corrupted checksums, short reads. They drive
//!   the crash-point sweep in `tests/fault_injection.rs` and the CLI
//!   `wal-fault` subcommand.
//! * **Apply faults** ([`ApplyFaults`] / [`FaultEngine`]) panic *inside*
//!   an engine's update path at a scheduled point — the Nth op, or a
//!   specific edge — so the serving layer's panic containment
//!   (quarantine, degraded reads, rebuild) can be exercised on demand.
//!   Wire them through [`SimRankBuilder::fault_injection`].
//!
//! [`SimRankBuilder::fault_injection`]: crate::api::SimRankBuilder::fault_injection

use crate::core::query::RankedNode;
use crate::core::{
    GraphSink, MatrixAccess, PairQuery, SimRankConfig, SimRankMaintainer, SingleSourceQuery,
    SnapshotQuery, TopKQuery, UpdateError, UpdateStats, WalkStats,
};
use crate::graph::DiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// One byte-level fault against a WAL image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The write tore: everything from byte `cut` on is gone.
    TornWrite {
        /// First byte that did not make it to the device.
        cut: usize,
    },
    /// A single bit flipped in place (bad media, bad RAM).
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Bit index within the byte, `0..8`.
        bit: u8,
    },
    /// Frame `frame`'s stored checksum is overwritten with garbage — the
    /// payload is intact but unprovably so, and recovery must stop there.
    CorruptChecksum {
        /// Zero-based frame index.
        frame: usize,
    },
    /// The read side only got `len` bytes (NFS, truncated copy).
    ShortRead {
        /// Bytes visible to the reader.
        len: usize,
    },
}

/// Applies `fault` to a copy of `bytes` and returns the damaged image.
/// Out-of-range offsets saturate to the image's bounds, so every fault a
/// seeded plan draws is applicable to every image.
pub fn apply_fault(bytes: &[u8], fault: Fault) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match fault {
        Fault::TornWrite { cut } => out.truncate(cut.min(out.len())),
        Fault::ShortRead { len } => out.truncate(len.min(out.len())),
        Fault::BitFlip { offset, bit } => {
            if !out.is_empty() {
                let o = offset.min(out.len() - 1);
                out[o] ^= 1 << (bit & 7);
            }
        }
        Fault::CorruptChecksum { frame } => {
            let offs = super::frame_offsets(bytes);
            // The last entry is the end-of-log sentinel, not a frame.
            let frames = offs.len().saturating_sub(1);
            if frames > 0 {
                let f = frame.min(frames - 1);
                let crc_at = offs[f] + 4;
                for b in &mut out[crc_at..crc_at + 4] {
                    *b ^= 0xA5;
                }
            }
        }
    }
    out
}

/// The frame classes `wal-fault --kind` can aim at — a coarser
/// vocabulary than [`FrameKind`](super::FrameKind), because a harness
/// cares about *what breaks* (the op stream, the head image, the epoch
/// ring), not which tag byte a frame happens to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Op-stream frames: edge ops and node appends.
    Op,
    /// Checkpoint image frames, v1 or v2.
    Checkpoint,
    /// Any epoch-ring frame: retained-epoch deltas or the meta trailer.
    Epoch,
    /// Retained-epoch delta frames only.
    EpochDelta,
    /// Epoch-ring meta trailers only.
    EpochMeta,
}

impl FaultTarget {
    /// Parses the CLI spelling (`op`, `checkpoint`, `epoch`,
    /// `epoch-delta`, `epoch-meta`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "op" => Some(FaultTarget::Op),
            "checkpoint" => Some(FaultTarget::Checkpoint),
            "epoch" => Some(FaultTarget::Epoch),
            "epoch-delta" => Some(FaultTarget::EpochDelta),
            "epoch-meta" => Some(FaultTarget::EpochMeta),
            _ => None,
        }
    }

    fn matches(self, kind: super::FrameKind) -> bool {
        use super::FrameKind as K;
        match self {
            FaultTarget::Op => matches!(kind, K::Op | K::AddNode),
            FaultTarget::Checkpoint => matches!(kind, K::Checkpoint),
            FaultTarget::Epoch => matches!(kind, K::EpochDelta | K::EpochMeta),
            FaultTarget::EpochDelta => matches!(kind, K::EpochDelta),
            FaultTarget::EpochMeta => matches!(kind, K::EpochMeta),
        }
    }
}

/// `(frame_index, byte_offset)` of the `index`-th frame (0-based) of the
/// targeted class, or `None` when the image holds fewer such frames.
/// The frame index is in the whole-log numbering that
/// [`Fault::CorruptChecksum`] uses; the byte offset is where
/// [`Fault::TornWrite`] cuts to drop the frame and its suffix.
pub fn nth_frame_of_kind(
    bytes: &[u8],
    target: FaultTarget,
    index: usize,
) -> Option<(usize, usize)> {
    super::frame_kinds(bytes)
        .iter()
        .enumerate()
        .filter(|&(_, &(_, kind))| target.matches(kind))
        .map(|(frame, &(offset, _))| (frame, offset))
        .nth(index)
}

/// A seeded generator of [`Fault`]s — the same seed draws the same fault
/// sequence against the same image, so any failing case replays exactly.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
}

impl FaultPlan {
    /// A plan whose entire draw sequence is a function of `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next fault, sized to `image`. Cuts land anywhere in the
    /// image (including mid-frame), flips land on any byte, checksum
    /// corruption on any frame.
    pub fn draw(&mut self, image: &[u8]) -> Fault {
        let len = image.len().max(1);
        match self.rng.gen_range(0..4u32) {
            0 => Fault::TornWrite {
                cut: self.rng.gen_range(0..len),
            },
            1 => Fault::BitFlip {
                offset: self.rng.gen_range(0..len),
                bit: self.rng.gen_range(0..8u32) as u8,
            },
            2 => {
                let frames = super::frame_offsets(image).len().saturating_sub(1);
                Fault::CorruptChecksum {
                    frame: self.rng.gen_range(0..frames.max(1)),
                }
            }
            _ => Fault::ShortRead {
                len: self.rng.gen_range(0..len),
            },
        }
    }
}

/// A schedule of mid-apply panics, shared with every engine the builder
/// wraps (builder clones share the one `Arc<ApplyFaults>`, so the
/// countdown spans the serving engine and any engine rebuilt after a
/// quarantine — "panic at the Nth op" counts every op applied).
#[derive(Debug)]
pub struct ApplyFaults {
    /// Ops until the panic fires; `<= 0` means disarmed (a fired fault
    /// does not re-fire — recovery replays must get through).
    countdown: AtomicI64,
    /// When set, the panic fires on this exact edge instead of a count.
    edge: Option<(u32, u32)>,
}

impl ApplyFaults {
    /// Panics on the `n`th edge apply (1-based) counted across every
    /// wrapped engine.
    pub fn panic_at_op(n: u64) -> Arc<Self> {
        Arc::new(ApplyFaults {
            countdown: AtomicI64::new(n.max(1) as i64),
            edge: None,
        })
    }

    /// Panics the first time edge `(u, v)` is applied (either direction
    /// of op).
    pub fn panic_on_edge(u: u32, v: u32) -> Arc<Self> {
        Arc::new(ApplyFaults {
            countdown: AtomicI64::new(i64::MAX),
            edge: Some((u, v)),
        })
    }

    /// `true` once the scheduled panic has fired (or was never armed).
    pub fn exhausted(&self) -> bool {
        self.countdown.load(Ordering::SeqCst) <= 0
    }

    fn tick(&self, u: u32, v: u32) {
        if let Some((fu, fv)) = self.edge {
            if (u, v) == (fu, fv) && self.countdown.swap(0, Ordering::SeqCst) > 0 {
                // lint:allow(panic-in-serving-path): this panic IS the injected fault — the harness exists to prove the serving layer quarantines it
                panic!("injected fault: apply of edge ({u}, {v})");
            }
            return;
        }
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            // lint:allow(panic-in-serving-path): this panic IS the injected fault — the harness exists to prove the serving layer quarantines it
            panic!("injected fault: scheduled op reached");
        }
    }
}

/// A delegating engine wrapper that consults an [`ApplyFaults`] schedule
/// before every edge apply. Transparent otherwise: queries, matrix
/// access, snapshots, and walk stats all pass straight through, so a
/// wrapped engine is indistinguishable from the bare one until the
/// scheduled fault fires.
pub struct FaultEngine {
    inner: Box<dyn SimRankMaintainer + Send>,
    faults: Arc<ApplyFaults>,
}

impl FaultEngine {
    /// Wraps `inner` under `faults`.
    pub fn new(inner: Box<dyn SimRankMaintainer + Send>, faults: Arc<ApplyFaults>) -> Self {
        FaultEngine { inner, faults }
    }
}

impl GraphSink for FaultEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph(&self) -> &DiGraph {
        self.inner.graph()
    }

    fn config(&self) -> &SimRankConfig {
        self.inner.config()
    }

    fn insert_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.faults.tick(i, j);
        self.inner.insert_edge(i, j)
    }

    fn remove_edge(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.faults.tick(i, j);
        self.inner.remove_edge(i, j)
    }

    fn add_node(&mut self) -> u32 {
        self.inner.add_node()
    }
}

impl PairQuery for FaultEngine {
    fn pair_score(&self, a: u32, b: u32) -> f64 {
        self.inner.pair_score(a, b)
    }
}

impl SingleSourceQuery for FaultEngine {
    fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.inner.single_source(a)
    }

    fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.inner.similar_above(a, threshold)
    }
}

impl TopKQuery for FaultEngine {
    fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.inner.top_k(a, k)
    }
}

impl SimRankMaintainer for FaultEngine {
    fn matrix(&self) -> Option<&dyn MatrixAccess> {
        self.inner.matrix()
    }

    fn matrix_mut(&mut self) -> Option<&mut dyn MatrixAccess> {
        self.inner.matrix_mut()
    }

    fn snapshot_query(&self) -> Arc<dyn SnapshotQuery> {
        self.inner.snapshot_query()
    }

    fn walk_stats(&self) -> Option<WalkStats> {
        self.inner.walk_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimRankBuilder;
    use crate::graph::UpdateOp;
    use crate::wal::{read_records, Wal};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn image() -> Vec<u8> {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("incsim_faults_test_{}", std::process::id()));
            p
        };
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(1, 2),
            UpdateOp::Insert(2, 3),
        ])
        .unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    #[test]
    fn every_fault_kind_degrades_to_a_clean_prefix() {
        let bytes = image();
        for fault in [
            Fault::TornWrite {
                cut: bytes.len() - 3,
            },
            Fault::BitFlip {
                offset: bytes.len() - 1,
                bit: 3,
            },
            Fault::CorruptChecksum { frame: 2 },
            Fault::ShortRead {
                len: bytes.len() - 10,
            },
        ] {
            let damaged = apply_fault(&bytes, fault);
            let log = read_records(&damaged).unwrap();
            assert!(log.torn, "{fault:?} must tear the tail");
            assert!(
                log.records.len() < 3,
                "{fault:?} must cost at least the damaged frame"
            );
        }
    }

    #[test]
    fn kind_targeting_resolves_frames_in_class_order() {
        use crate::wal::{
            CheckpointImage, CheckpointRecord, DeltaImage, EpochDeltaRecord, EpochMetaRecord,
        };
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("incsim_faults_kinds_{}", std::process::id()));
            p
        };
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[UpdateOp::Insert(0, 1), UpdateOp::Insert(1, 2)])
            .unwrap();
        wal.append_checkpoint(&CheckpointRecord::new(
            2,
            CheckpointImage::GraphOnly {
                config: SimRankConfig::new(0.6, 10).unwrap(),
                graph: DiGraph::new(3),
            },
        ))
        .unwrap();
        wal.append_epoch_ring(
            &[EpochDeltaRecord {
                cp_seq: 2,
                seq: 0,
                stamp: 0,
                at_op: 0,
                n: 3,
                delta: DeltaImage::Replay,
                ops: Vec::new(),
            }],
            &EpochMetaRecord {
                cp_seq: 2,
                head_seq: 1,
                head_stamp: 2,
                head_at_op: 2,
                head_n: 3,
                retain: 2,
                entries: 1,
                anchor: DeltaImage::Replay,
                pending: Vec::new(),
                tail: None,
            },
        )
        .unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        // Frame layout: op, op, checkpoint, epoch-delta, epoch-meta.
        let frame_of = |t, i| nth_frame_of_kind(&bytes, t, i).map(|(frame, _)| frame);
        assert_eq!(frame_of(FaultTarget::Op, 1), Some(1));
        assert_eq!(frame_of(FaultTarget::Checkpoint, 0), Some(2));
        assert_eq!(frame_of(FaultTarget::EpochDelta, 0), Some(3));
        assert_eq!(frame_of(FaultTarget::EpochMeta, 0), Some(4));
        assert_eq!(frame_of(FaultTarget::Epoch, 1), Some(4));
        assert_eq!(frame_of(FaultTarget::Checkpoint, 1), None);
        assert!(FaultTarget::parse("nonsense").is_none());
        assert_eq!(
            FaultTarget::parse("epoch-delta"),
            Some(FaultTarget::EpochDelta)
        );

        // Corrupting the first epoch frame costs the ring but not the op
        // stream that precedes it.
        let (frame, _) = nth_frame_of_kind(&bytes, FaultTarget::EpochDelta, 0).unwrap();
        let damaged = apply_fault(&bytes, Fault::CorruptChecksum { frame });
        let log = read_records(&damaged).unwrap();
        assert!(log.torn);
        assert_eq!(log.records.len(), 3, "ops and checkpoint must survive");
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let bytes = image();
        let draw = |seed| {
            let mut plan = FaultPlan::seeded(seed);
            (0..16).map(|_| plan.draw(&bytes)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds, different plans");
        // Every drawn fault applies without panicking.
        for f in draw(7) {
            let _ = apply_fault(&bytes, f);
        }
    }

    #[test]
    fn apply_faults_panic_on_schedule_then_disarm() {
        let faults = ApplyFaults::panic_at_op(2);
        let mut sim = SimRankBuilder::new()
            .fault_injection(faults.clone())
            .from_graph(DiGraph::from_edges(4, &[(0, 1)]))
            .unwrap();
        sim.insert(1, 2).unwrap();
        assert!(!faults.exhausted());
        let unwound = catch_unwind(AssertUnwindSafe(|| sim.insert(2, 3))).is_err();
        assert!(unwound, "second op must hit the scheduled panic");
        assert!(faults.exhausted());
        // Disarmed: the engine (state aside) no longer panics.
        let _ = catch_unwind(AssertUnwindSafe(|| sim.insert(0, 3)));
    }

    #[test]
    fn edge_faults_target_one_edge_only() {
        let faults = ApplyFaults::panic_on_edge(2, 3);
        let mut sim = SimRankBuilder::new()
            .fault_injection(faults.clone())
            .from_graph(DiGraph::from_edges(4, &[(0, 1)]))
            .unwrap();
        sim.insert(1, 2).unwrap();
        sim.insert(0, 2).unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| sim.insert(2, 3))).is_err();
        assert!(unwound);
        assert!(faults.exhausted());
    }
}
