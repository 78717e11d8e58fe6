//! Durable **write-ahead log** for the serving layer: crash recovery by
//! checkpoint + replay, with a deterministic fault-injection harness.
//!
//! The paper's workload is a long-lived edge stream maintained
//! incrementally — exactly the shape where durability matters: losing the
//! process must not lose the stream. This module makes the `UpdateOp`
//! stream itself the recoverable source of truth.
//!
//! ## Log format
//!
//! A log file is the 8-byte magic `INCSWAL1` followed by a sequence of
//! *frames*:
//!
//! ```text
//! ┌──────────────┬──────────────┬─────────────────────┐
//! │ len: u32 LE  │ crc32: u32 LE│ payload (len bytes) │
//! └──────────────┴──────────────┴─────────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC of the payload alone. The payload's first byte
//! is a record tag:
//!
//! | tag | record | layout after the tag |
//! |-----|--------|----------------------|
//! | 1 | edge op | `kind u8` (0 insert, 1 delete), `u u32`, `v u32`, `seq u64` |
//! | 2 | add node | `seq u64` |
//! | 3 | checkpoint (v1) | `shard u32`, `shard_count u32`, `block u64`, `seq u64`, `image_kind u8`, `image_len u64`, image bytes |
//! | 4 | checkpoint (v2) | `version u8` (= 1), then the v1 layout |
//! | 5 | epoch-ring meta | `version u8` (= 1), `cp_seq u64`, head descriptor, `retain`/`entries` varints, anchor count varint (= 1) + anchor image, pending ops, tail count varint (= 1) + tail graph |
//! | 6 | epoch delta | `version u8` (= 1), `cp_seq u64`, `seq u64`, `stamp u64`, `at_op u64`, `n` varint, image count varint (= 1) + delta image (`0` + factors, `1` replay, `2` broken), op slice (count varint + per op `0`/`1` + `u`/`v` varints for insert/delete, `2` for add node) |
//!
//! All integers are little-endian; variable-length fields use the shared
//! [`incsim_codec`] varint. Every checkpoint belongs to the serving
//! handle's one engine: the writer stores `u32::MAX` in `shard`, 1 in
//! `shard_count` and 0 in `block`. Those fields are reserved — they date
//! from a multi-engine router, and recovery refuses a checkpoint whose
//! `shard_count` exceeds 1 with [`WalError::ShardedLog`]. The image
//! counts in the epoch frames are likewise always 1; an epoch frame with
//! any other count decodes as [`WalRecord::EpochUnusable`]. Checkpoint
//! images come in two kinds: `0` =
//! *graph-only* (config + edge list — enough for engines whose whole
//! state is the graph, e.g. the matrix-free probe engine, or for
//! rebuild-by-recompute), `1` = a full `INCSIM01` dense snapshot as
//! written by [`crate::core::snapshot::save_engine`].
//!
//! Tags 4–6 form a **v2 checkpoint round**: the head image followed by
//! one epoch-delta frame per retained epoch and a meta trailer, appended
//! contiguously by [`Wal::append_epoch_ring`] and `fsync`ed as one round.
//! A round is usable only when the trailer's `entries` count matches the
//! delta frames that precede it ([`RecoveredLog::newest_epoch_ring`]) —
//! a crash mid-round leaves the *previous* round authoritative. Epoch
//! frames whose CRC holds but whose record version is unknown decode to
//! [`WalRecord::EpochUnusable`]: the op stream survives and recovery
//! degrades to head-only instead of tearing the log. Delta images are
//! [`LowRankDelta`] factor pairs for matrix engines and recorded op
//! slices (`Replay`) for matrix-free engines, which replay seed-identical.
//!
//! Sequence numbers are assigned by the writer, strictly monotonic across
//! op and add-node records; a checkpoint's `seq` names the last op it
//! covers, so replay resumes at `seq + 1`. Epoch sequence numbers live in
//! a separate space: a recovered incarnation republishes its head *past*
//! the newest meta trailer's `head_seq`, so restored history never
//! collides with new epochs.
//!
//! ## Durability contract
//!
//! Appends are *write-ahead*: the serving layer appends (and flushes) a
//! batch's frames before applying any of its ops. The file is `fsync`ed
//! at every checkpoint, not at every batch — so a power loss can lose at
//! most the ops since the newest checkpoint that the OS had not yet made
//! durable, and can *tear* the final frames. Torn tails are expected,
//! not errors: [`read_records`] stops at the first frame whose length or
//! checksum does not hold, reports the prefix, and [`Wal::open_or_create`]
//! physically truncates the tail so the log is clean again. A file that
//! holds only a prefix of the magic (a crash between create and the
//! magic write) opens as a fresh log. A failed append truncates the file
//! back to its pre-append length, so a log never holds a half-written
//! batch from a *live* process either.
//!
//! The log itself is never compacted: every checkpoint round appends a
//! full head image and ring round, so the file grows with uptime.
//! Recovery memory does not. The reader streams the file one frame at a
//! time, bounds each frame's length by the bytes left before allocating
//! for it, and keeps only what a newer frame does not supersede (see
//! [`RecoveredLog::records`]): the op stream plus one round's images and
//! ring. Log length still costs recovery *time*, since every frame is
//! CRC-checked and decoded.
//!
//! ## Recovery
//!
//! [`read_log`] streams the file into a [`RecoveredLog`] holding the op
//! stream, the newest checkpoint, the newest epoch-ring round with the
//! checkpoint it anchors to, and nothing older. [`rebuild_engine`] takes
//! the newest checkpoint (the base image written when the log was
//! attached, until a cadence checkpoint supersedes it), reconstructs the
//! engine from its image, and replays the op suffix. The serving
//! handle's graph is the rebuilt engine's. For the exact engines the
//! result is bit-identical to the
//! pre-crash engine's materialised scores under the fixed apply policies
//! (and within the recompression bar under `Auto`, whose per-op routing
//! depends on query traffic that is not logged); for the probe engine the
//! rebuilt state is seed-identical — the same builder seed replays to the
//! same sampler.
//!
//! A quarantined handle rebuilds the same way — see
//! [`crate::serve::ShardedSimRank::rebuild`].
//!
//! A log carrying a usable v2 round additionally rehydrates the epoch
//! ring: `ConcurrentSimRank::new` splices the persisted retained epochs
//! back in, so `pair_at`/`single_source_at`/`top_k_at`/`top_movers`
//! answer across the restart (see
//! [`crate::serve::ConcurrentSimRank::history_status`]). A v1 log — or a
//! v2 log whose newest round is torn or corrupt — recovers head-only
//! with a typed `HistoryUnavailable` on temporal reads, never a panic.
//!
//! ## Fault injection
//!
//! The [`faults`] submodule is the deterministic harness: byte-level log
//! faults (torn write, bit flip, checksum corruption, short read) and
//! scheduled mid-apply panics ([`faults::ApplyFaults`]) that the builder
//! wires into any engine — all seedable, so every failure replays
//! exactly. `tests/fault_injection.rs` and the CLI `wal-fault` /
//! `recover` subcommands drive it.

use crate::api::{BuildError, SimRank, SimRankBuilder};
use crate::core::snapshot::SnapshotError;
use crate::core::SimRankConfig;
use crate::graph::{DiGraph, UpdateOp};
use incsim_codec::{self as codec, put_u32, put_u64, put_u8, put_uvarint};
use incsim_linalg::LowRankDelta;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub mod faults;

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"INCSWAL1";

/// Frame header size: `len: u32` + `crc: u32`.
pub const FRAME_HEADER: usize = codec::FRAME_HEADER;

const TAG_OP: u8 = 1;
const TAG_ADD_NODE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_CHECKPOINT2: u8 = 4;
const TAG_EPOCH_META: u8 = 5;
const TAG_EPOCH_DELTA: u8 = 6;

/// Envelope version this build writes (and the newest it decodes) for
/// the versioned v2 records: checkpoint v2, epoch meta, epoch delta.
const RECORD_VERSION: u8 = 1;

const IMAGE_GRAPH_ONLY: u8 = 0;
const IMAGE_DENSE: u8 = 1;

/// The value the writer stores in a checkpoint's reserved `shard` field
/// (it tagged the base image of a multi-engine router's log).
const SHARD_GLOBAL: u32 = u32::MAX;

/// IEEE CRC-32 of `bytes` (the `cksum`/zlib polynomial, reflected) —
/// re-exported from the shared codec, which owns the implementation.
pub use incsim_codec::crc32;

// ---- errors -------------------------------------------------------------

/// Errors from the WAL subsystem.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure (not a torn tail — those are truncated, not
    /// errored).
    Io(io::Error),
    /// The file does not start with the `INCSWAL1` magic.
    BadMagic,
    /// The log is structurally broken *before* its torn tail — e.g. a
    /// CRC-valid frame whose payload does not decode.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong there.
        detail: &'static str,
    },
    /// The log holds no usable checkpoint, so there is no state to
    /// replay onto.
    NoCheckpoint,
    /// The newest checkpoint was written by a router over several engine
    /// shards; this build serves one engine per handle and cannot recover
    /// such a log. Recovery leaves the file untouched.
    ShardedLog {
        /// The shard count the checkpoint records.
        shard_count: u32,
    },
    /// A checkpoint image failed to decode.
    Snapshot(SnapshotError),
    /// The engine could not be reconstructed from a checkpoint image.
    Build(BuildError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::BadMagic => write!(f, "not an incsim WAL (bad magic)"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt wal frame at byte {offset}: {detail}")
            }
            WalError::NoCheckpoint => write!(f, "wal holds no usable checkpoint"),
            WalError::ShardedLog { shard_count } => write!(
                f,
                "wal was written by a {shard_count}-shard router; \
                 this build recovers single-engine logs only"
            ),
            WalError::Snapshot(e) => write!(f, "wal checkpoint image rejected: {e}"),
            WalError::Build(e) => write!(f, "engine rebuild from wal failed: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Snapshot(e)
    }
}

impl From<BuildError> for WalError {
    fn from(e: BuildError) -> Self {
        WalError::Build(e)
    }
}

// ---- records ------------------------------------------------------------

/// A checkpoint's engine image.
#[derive(Debug, Clone)]
pub enum CheckpointImage {
    /// Config + graph only — for engines whose state *is* the graph
    /// (probe), or rebuild-by-recompute.
    GraphOnly {
        /// The engine configuration at checkpoint time.
        config: SimRankConfig,
        /// The graph at checkpoint time.
        graph: DiGraph,
    },
    /// A full `INCSIM01` dense snapshot (graph + scores + config), as
    /// written by [`crate::core::snapshot::save_engine`].
    Dense(Vec<u8>),
}

/// A decoded checkpoint record: the serving handle's engine image.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// The shard count stored with the image: 1 from this build (see
    /// [`CheckpointRecord::new`]). A larger count marks a log written by
    /// a multi-engine router, which recovery refuses with
    /// [`WalError::ShardedLog`].
    pub shard_count: u32,
    /// The last op sequence number this image covers; replay resumes at
    /// `seq + 1`.
    pub seq: u64,
    /// The engine image.
    pub image: CheckpointImage,
}

impl CheckpointRecord {
    /// The handle's checkpoint covering the ops up to `seq`.
    pub fn new(seq: u64, image: CheckpointImage) -> Self {
        CheckpointRecord {
            shard_count: 1,
            seq,
            image,
        }
    }
}

/// One replayable entry yielded by [`RecoveredLog::ops_after`]. The type
/// carries no checkpoint variant at all, so replay loops cannot grow an
/// "impossible" checkpoint arm — the shape the `panic-in-serving-path`
/// lint exists to keep out of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEntry {
    /// The record's sequence number.
    pub seq: u64,
    /// What to replay.
    pub op: ReplayOp,
}

/// The replayable operation kinds (checkpoints are state, not ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// An edge update.
    Edge(UpdateOp),
    /// A node append.
    AddNode,
}

/// How a retained-epoch delta is persisted inside an epoch frame. The
/// WAL stays independent of the serving layer's in-memory types: this is
/// the wire-level vocabulary both sides translate to.
#[derive(Debug, Clone)]
pub enum DeltaImage {
    /// Low-rank ΔS factors for a matrix engine (`S_next − S_this`).
    Dense(LowRankDelta),
    /// Matrix-free engine: reconstruct by replaying the recorded op
    /// slices from the tail graph (seed-identical by construction).
    Replay,
    /// The delta could not be persisted (the engine was quarantined or
    /// the epoch view was pinned). Reconstruction *through* this entry
    /// reports a broken chain; entries on the head side of it still work.
    Broken,
}

/// One retained epoch, persisted alongside a v2 checkpoint.
#[derive(Debug, Clone)]
pub struct EpochDeltaRecord {
    /// Sequence number of the checkpoint round this frame belongs to.
    pub cp_seq: u64,
    /// The epoch's publish sequence number (what `pair_at` addresses).
    pub seq: u64,
    /// The epoch's stamp (op sequence at publish time).
    pub stamp: u64,
    /// Committed op count when the epoch was published.
    pub at_op: u64,
    /// Node universe size at this epoch.
    pub n: usize,
    /// The delta to the *next* epoch.
    pub delta: DeltaImage,
    /// The ops applied between this epoch and the next (the replay
    /// slice a matrix-free engine rolls forward through).
    pub ops: Vec<ReplayOp>,
}

/// The epoch-ring trailer of a v2 checkpoint round: head metadata plus
/// everything recovery needs to splice the pre-crash head into the ring.
#[derive(Debug, Clone)]
pub struct EpochMetaRecord {
    /// Sequence number of the checkpoint round this trailer belongs to.
    pub cp_seq: u64,
    /// Publish sequence of the head epoch at persist time.
    pub head_seq: u64,
    /// Stamp of the head epoch.
    pub head_stamp: u64,
    /// Committed op count at head publish.
    pub head_at_op: u64,
    /// Node universe size at the head epoch.
    pub head_n: usize,
    /// The retention window (`retained_epochs`) the ring was built with.
    pub retain: usize,
    /// Number of [`EpochDeltaRecord`] frames written for this round;
    /// recovery refuses a ring whose frame count disagrees.
    pub entries: usize,
    /// The delta from the head epoch's scores to the live scores at
    /// `cp_seq` (the checkpoint image). Recovery composes this with the
    /// post-checkpoint replay suffix to turn the old head into a ring
    /// entry.
    pub anchor: DeltaImage,
    /// Ops committed after the head epoch was published, up to `cp_seq`.
    pub pending: Vec<ReplayOp>,
    /// The tail graph (the graph at the *oldest* retained epoch) of a
    /// matrix-free engine; `None` for a matrix engine.
    pub tail: Option<DiGraph>,
}

/// One decoded WAL record.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// An edge update.
    Op {
        /// Its sequence number.
        seq: u64,
        /// The update.
        op: UpdateOp,
    },
    /// A node append (grows the node universe).
    AddNode {
        /// Its sequence number.
        seq: u64,
    },
    /// A checkpoint.
    Checkpoint(CheckpointRecord),
    /// A retained epoch persisted with a v2 checkpoint round.
    EpochDelta(EpochDeltaRecord),
    /// The epoch-ring trailer of a v2 checkpoint round.
    EpochMeta(EpochMetaRecord),
    /// A CRC-intact epoch frame whose payload this build cannot decode
    /// (a future envelope version, or damage the checksum happens to
    /// miss). History degrades to head-only; the op stream after the
    /// frame still replays — epoch frames are auxiliary, never
    /// load-bearing for the head image.
    EpochUnusable,
}

// ---- encode -------------------------------------------------------------
//
// Each encoder appends one record payload to the buffer it is handed; the
// writer runs them inside `codec::put_frame_with`, so a payload is written
// once, straight into the frame buffer that goes to disk.

fn encode_op_into(p: &mut Vec<u8>, seq: u64, op: UpdateOp) {
    p.push(TAG_OP);
    p.push(match op {
        UpdateOp::Insert(..) => 0,
        UpdateOp::Delete(..) => 1,
    });
    let (u, v) = op.endpoints();
    put_u32(p, u);
    put_u32(p, v);
    put_u64(p, seq);
}

fn encode_add_node_into(p: &mut Vec<u8>, seq: u64) {
    p.push(TAG_ADD_NODE);
    put_u64(p, seq);
}

/// Bytes of a v2 checkpoint payload ahead of its image: tag, version,
/// shard, shard count, block, seq, image kind and image length.
const CHECKPOINT_HEAD: usize = 35;

fn encode_checkpoint_into(p: &mut Vec<u8>, cp: &CheckpointRecord) {
    let (image_kind, image_len) = match &cp.image {
        // Config (c, iterations, zero_tol), n and m, then one packed
        // `u64` per edge.
        CheckpointImage::GraphOnly { graph, .. } => (IMAGE_GRAPH_ONLY, 40 + 8 * graph.edge_count()),
        CheckpointImage::Dense(bytes) => (IMAGE_DENSE, bytes.len()),
    };
    p.reserve(CHECKPOINT_HEAD + image_len);
    // Always written as v2: the tag is followed by a record-envelope
    // version byte, then the same body v1 carried. v1 frames (tag 3, no
    // version byte) stay decodable forever.
    p.push(TAG_CHECKPOINT2);
    p.push(RECORD_VERSION);
    put_u32(p, SHARD_GLOBAL);
    put_u32(p, cp.shard_count);
    put_u64(p, 0);
    put_u64(p, cp.seq);
    p.push(image_kind);
    put_u64(p, image_len as u64);
    match &cp.image {
        CheckpointImage::GraphOnly { config, graph } => {
            p.extend_from_slice(&config.c.to_le_bytes());
            put_u64(p, config.iterations as u64);
            p.extend_from_slice(&config.zero_tol.to_le_bytes());
            put_u64(p, graph.node_count() as u64);
            put_u64(p, graph.edge_count() as u64);
            for (u, v) in graph.edges() {
                put_u64(p, ((u as u64) << 32) | v as u64);
            }
        }
        CheckpointImage::Dense(bytes) => p.extend_from_slice(bytes),
    }
}

fn encode_replay_ops(p: &mut Vec<u8>, ops: &[ReplayOp]) {
    put_uvarint(p, ops.len() as u64);
    for op in ops {
        match op {
            ReplayOp::Edge(UpdateOp::Insert(u, v)) => {
                put_u8(p, 0);
                put_uvarint(p, u64::from(*u));
                put_uvarint(p, u64::from(*v));
            }
            ReplayOp::Edge(UpdateOp::Delete(u, v)) => {
                put_u8(p, 1);
                put_uvarint(p, u64::from(*u));
                put_uvarint(p, u64::from(*v));
            }
            ReplayOp::AddNode => put_u8(p, 2),
        }
    }
}

/// Writes one delta image behind its image count (always 1).
fn encode_delta(p: &mut Vec<u8>, img: &DeltaImage) {
    put_uvarint(p, 1);
    match img {
        DeltaImage::Dense(delta) => {
            put_u8(p, 0);
            delta.encode_into(p);
        }
        DeltaImage::Replay => put_u8(p, 1),
        DeltaImage::Broken => put_u8(p, 2),
    }
}

fn encode_graph(p: &mut Vec<u8>, graph: &DiGraph) {
    put_uvarint(p, graph.node_count() as u64);
    put_uvarint(p, graph.edge_count() as u64);
    for (u, v) in graph.edges() {
        put_uvarint(p, u64::from(u));
        put_uvarint(p, u64::from(v));
    }
}

fn encode_epoch_delta_into(p: &mut Vec<u8>, rec: &EpochDeltaRecord) {
    p.push(TAG_EPOCH_DELTA);
    p.push(RECORD_VERSION);
    put_u64(p, rec.cp_seq);
    put_u64(p, rec.seq);
    put_u64(p, rec.stamp);
    put_u64(p, rec.at_op);
    put_uvarint(p, rec.n as u64);
    encode_delta(p, &rec.delta);
    encode_replay_ops(p, &rec.ops);
}

fn encode_epoch_meta_into(p: &mut Vec<u8>, rec: &EpochMetaRecord) {
    p.push(TAG_EPOCH_META);
    p.push(RECORD_VERSION);
    put_u64(p, rec.cp_seq);
    put_u64(p, rec.head_seq);
    put_u64(p, rec.head_stamp);
    put_u64(p, rec.head_at_op);
    put_uvarint(p, rec.head_n as u64);
    put_uvarint(p, rec.retain as u64);
    put_uvarint(p, rec.entries as u64);
    encode_delta(p, &rec.anchor);
    encode_replay_ops(p, &rec.pending);
    put_uvarint(p, 1);
    match &rec.tail {
        Some(g) => {
            put_u8(p, 1);
            encode_graph(p, g);
        }
        None => put_u8(p, 0),
    }
}

// ---- decode -------------------------------------------------------------

use codec::Cursor;

/// Decodes the checkpoint body shared by the v1 (tag 3) and v2 (tag 4)
/// frames — everything after the tag (and, for v2, the version byte).
fn decode_checkpoint_body(c: &mut Cursor<'_>) -> Option<CheckpointRecord> {
    // The reserved `shard` and `block` fields. `shard_count` is kept: a
    // multi-engine log must fail recovery, not decoding — a frame that
    // fails to decode reads as a torn tail and gets truncated.
    let _shard = c.u32()?;
    let shard_count = c.u32()?;
    let _block = c.u64()?;
    let seq = c.u64()?;
    let image_kind = c.u8()?;
    let image_len = usize::try_from(c.u64()?).ok()?;
    let image_bytes = c.take(image_len)?;
    let image = match image_kind {
        IMAGE_GRAPH_ONLY => {
            let mut ic = Cursor::new(image_bytes);
            let cc = ic.f64()?;
            let iterations = usize::try_from(ic.u64()?).ok()?;
            let zero_tol = ic.f64()?;
            let config = SimRankConfig::new(cc, iterations)
                .ok()?
                .with_zero_tol(zero_tol);
            let n = usize::try_from(ic.u64()?).ok()?;
            let m = usize::try_from(ic.u64()?).ok()?;
            if n > u32::MAX as usize || m > n.checked_mul(n)? {
                return None;
            }
            let mut graph = DiGraph::new(n);
            for _ in 0..m {
                let packed = ic.u64()?;
                let (u, v) = ((packed >> 32) as u32, (packed & 0xFFFF_FFFF) as u32);
                graph.insert_edge(u, v).ok()?;
            }
            CheckpointImage::GraphOnly { config, graph }
        }
        IMAGE_DENSE => CheckpointImage::Dense(image_bytes.to_vec()),
        _ => return None,
    };
    Some(CheckpointRecord {
        shard_count,
        seq,
        image,
    })
}

fn decode_replay_ops(c: &mut Cursor<'_>) -> Option<Vec<ReplayOp>> {
    let count = usize::try_from(c.uvarint()?).ok()?;
    // Each op costs at least one kind byte.
    if count > c.remaining() {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let op = match c.u8()? {
            0 => {
                let u = u32::try_from(c.uvarint()?).ok()?;
                let v = u32::try_from(c.uvarint()?).ok()?;
                ReplayOp::Edge(UpdateOp::Insert(u, v))
            }
            1 => {
                let u = u32::try_from(c.uvarint()?).ok()?;
                let v = u32::try_from(c.uvarint()?).ok()?;
                ReplayOp::Edge(UpdateOp::Delete(u, v))
            }
            2 => ReplayOp::AddNode,
            _ => return None,
        };
        ops.push(op);
    }
    Some(ops)
}

/// Reads one delta image behind its image count; any count but 1 (a
/// frame from a multi-engine router) is undecodable.
fn decode_delta(c: &mut Cursor<'_>) -> Option<DeltaImage> {
    if c.uvarint()? != 1 {
        return None;
    }
    match c.u8()? {
        0 => Some(DeltaImage::Dense(LowRankDelta::decode_from(c)?)),
        1 => Some(DeltaImage::Replay),
        2 => Some(DeltaImage::Broken),
        _ => None,
    }
}

fn decode_graph(c: &mut Cursor<'_>) -> Option<DiGraph> {
    let n = usize::try_from(c.uvarint()?).ok()?;
    let m = usize::try_from(c.uvarint()?).ok()?;
    if n > u32::MAX as usize || m > n.checked_mul(n)? || m > c.remaining() / 2 {
        return None;
    }
    let mut graph = DiGraph::new(n);
    for _ in 0..m {
        let u = u32::try_from(c.uvarint()?).ok()?;
        let v = u32::try_from(c.uvarint()?).ok()?;
        graph.insert_edge(u, v).ok()?;
    }
    Some(graph)
}

fn decode_epoch_delta_body(c: &mut Cursor<'_>) -> Option<EpochDeltaRecord> {
    let cp_seq = c.u64()?;
    let seq = c.u64()?;
    let stamp = c.u64()?;
    let at_op = c.u64()?;
    let n = usize::try_from(c.uvarint()?).ok()?;
    let delta = decode_delta(c)?;
    let ops = decode_replay_ops(c)?;
    Some(EpochDeltaRecord {
        cp_seq,
        seq,
        stamp,
        at_op,
        n,
        delta,
        ops,
    })
}

fn decode_epoch_meta_body(c: &mut Cursor<'_>) -> Option<EpochMetaRecord> {
    let cp_seq = c.u64()?;
    let head_seq = c.u64()?;
    let head_stamp = c.u64()?;
    let head_at_op = c.u64()?;
    let head_n = usize::try_from(c.uvarint()?).ok()?;
    let retain = usize::try_from(c.uvarint()?).ok()?;
    let entries = usize::try_from(c.uvarint()?).ok()?;
    let anchor = decode_delta(c)?;
    let pending = decode_replay_ops(c)?;
    if c.uvarint()? != 1 {
        return None;
    }
    let tail = match c.u8()? {
        0 => None,
        1 => Some(decode_graph(c)?),
        _ => return None,
    };
    Some(EpochMetaRecord {
        cp_seq,
        head_seq,
        head_stamp,
        head_at_op,
        head_n,
        retain,
        entries,
        anchor,
        pending,
        tail,
    })
}

/// Decodes an epoch frame leniently: any defect — an envelope version
/// from the future, a malformed body, trailing bytes — yields
/// [`WalRecord::EpochUnusable`] instead of `None`, so one bad *history*
/// frame never truncates the op stream behind it the way a bad core
/// frame does.
fn decode_epoch_payload(tag: u8, c: &mut Cursor<'_>) -> WalRecord {
    let usable = c
        .u8()
        .filter(|&v| v == RECORD_VERSION)
        .and_then(|_| match tag {
            TAG_EPOCH_DELTA => decode_epoch_delta_body(c).map(WalRecord::EpochDelta),
            _ => decode_epoch_meta_body(c).map(WalRecord::EpochMeta),
        })
        .filter(|_| c.at_end());
    usable.unwrap_or(WalRecord::EpochUnusable)
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        TAG_OP => {
            let kind = c.u8()?;
            let (u, v) = (c.u32()?, c.u32()?);
            let seq = c.u64()?;
            let op = match kind {
                0 => UpdateOp::Insert(u, v),
                1 => UpdateOp::Delete(u, v),
                _ => return None,
            };
            WalRecord::Op { seq, op }
        }
        TAG_ADD_NODE => WalRecord::AddNode { seq: c.u64()? },
        TAG_CHECKPOINT => WalRecord::Checkpoint(decode_checkpoint_body(&mut c)?),
        TAG_CHECKPOINT2 => {
            if c.u8()? != RECORD_VERSION {
                return None;
            }
            WalRecord::Checkpoint(decode_checkpoint_body(&mut c)?)
        }
        tag @ (TAG_EPOCH_META | TAG_EPOCH_DELTA) => {
            return Some(decode_epoch_payload(tag, &mut c));
        }
        _ => return None,
    };
    // Trailing bytes after a well-formed record mean the writer and
    // reader disagree on the format — refuse rather than guess.
    if c.at_end() {
        Some(rec)
    } else {
        None
    }
}

/// The parse of a (possibly torn) log.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The records recovery reads, in append order. Every frame of the
    /// valid prefix is checksummed and decoded, but only what no newer
    /// frame supersedes is kept: every op and add-node record; the
    /// newest checkpoint and the newest one at the newest epoch-ring
    /// meta's `cp_seq`; that meta; the epoch-delta frames whose `cp_seq` is at
    /// least its own; and at most one [`WalRecord::EpochUnusable`]
    /// marker. So recovery holds one round's images and ring plus the op
    /// stream however many rounds the log has accumulated, and every
    /// method below answers as it would over the full frame list, given
    /// the writer's invariant that sequence numbers never decrease along
    /// the log.
    pub records: Vec<WalRecord>,
    /// `true` when the log ended in a torn/corrupt frame that was cut off
    /// (the expected shape after a crash mid-append).
    pub torn: bool,
    /// Length in bytes of the valid prefix (magic included); a recovering
    /// writer truncates the file to this.
    pub valid_bytes: u64,
}

impl RecoveredLog {
    /// The highest sequence number in the log (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                WalRecord::Op { seq, .. } | WalRecord::AddNode { seq } => *seq,
                WalRecord::Checkpoint(cp) => cp.seq,
                WalRecord::EpochDelta(d) => d.cp_seq,
                WalRecord::EpochMeta(m) => m.cp_seq,
                WalRecord::EpochUnusable => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of op/add-node records (the replayable stream).
    pub fn op_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, WalRecord::Op { .. } | WalRecord::AddNode { .. }))
            .count()
    }

    /// The checkpoints, newest first.
    fn checkpoints(&self) -> impl Iterator<Item = &CheckpointRecord> {
        self.records.iter().rev().filter_map(|r| match r {
            WalRecord::Checkpoint(cp) => Some(cp),
            _ => None,
        })
    }

    /// The newest checkpoint: the one recovery starts from.
    pub fn newest_checkpoint(&self) -> Option<&CheckpointRecord> {
        self.checkpoints().next()
    }

    /// The newest checkpoint that covers exactly the ops up to `seq`:
    /// the image a ring round at `cp_seq = seq` anchors to.
    pub(crate) fn checkpoint_at(&self, seq: u64) -> Option<&CheckpointRecord> {
        self.checkpoints().find(|cp| cp.seq == seq)
    }

    /// Op and add-node records with sequence numbers after `seq`, as
    /// typed [`ReplayEntry`]s (checkpoints are filtered *and* absent from
    /// the item type).
    pub fn ops_after(&self, seq: u64) -> impl Iterator<Item = ReplayEntry> + '_ {
        self.records.iter().filter_map(move |r| match r {
            WalRecord::Op { seq: s, op } if *s > seq => Some(ReplayEntry {
                seq: *s,
                op: ReplayOp::Edge(*op),
            }),
            WalRecord::AddNode { seq: s } if *s > seq => Some(ReplayEntry {
                seq: *s,
                op: ReplayOp::AddNode,
            }),
            _ => None,
        })
    }

    /// The newest complete epoch ring in the log: the last
    /// [`EpochMetaRecord`] together with its [`EpochDeltaRecord`]s
    /// (matched by `cp_seq`, oldest first). `None` when the log holds no
    /// meta frame (a v1 log, or history was never retained) **or** when
    /// the round is incomplete — a delta frame torn away, replaced by
    /// [`WalRecord::EpochUnusable`], or miscounted — in which case the
    /// caller degrades to head-only recovery.
    pub fn newest_epoch_ring(&self) -> Option<(&EpochMetaRecord, Vec<&EpochDeltaRecord>)> {
        let meta = self.records.iter().rev().find_map(|r| match r {
            WalRecord::EpochMeta(m) => Some(m),
            _ => None,
        })?;
        let deltas: Vec<&EpochDeltaRecord> = self
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::EpochDelta(d) if d.cp_seq == meta.cp_seq => Some(d),
                _ => None,
            })
            .collect();
        if deltas.len() != meta.entries {
            return None;
        }
        if deltas.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return None;
        }
        Some((meta, deltas))
    }

    /// Moves the round [`Self::newest_epoch_ring`] selects out of the log,
    /// so recovery adopts its factors without copying them. Every
    /// epoch-meta record leaves with it; checkpoints and ops stay for the
    /// rest of recovery.
    pub(crate) fn take_epoch_ring(&mut self) -> Option<(EpochMetaRecord, Vec<EpochDeltaRecord>)> {
        let cp_seq = self.newest_epoch_ring()?.0.cp_seq;
        let mut meta = None;
        let mut deltas = Vec::new();
        for rec in std::mem::take(&mut self.records) {
            match rec {
                WalRecord::EpochMeta(m) => meta = Some(m),
                WalRecord::EpochDelta(d) if d.cp_seq == cp_seq => deltas.push(d),
                other => self.records.push(other),
            }
        }
        Some((meta?, deltas))
    }

    /// The newest epoch-ring meta's `head_seq` (0 without one), whether or
    /// not its round is usable: a recovered incarnation numbers its
    /// epochs past it.
    pub(crate) fn history_floor(&self) -> u64 {
        self.records
            .iter()
            .rev()
            .find_map(|r| match r {
                WalRecord::EpochMeta(m) => Some(m.head_seq),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// `true` when the log holds at least one epoch frame (usable or
    /// not) — i.e. it was written by a ring-persisting build.
    pub fn has_epoch_frames(&self) -> bool {
        self.records.iter().any(|r| {
            matches!(
                r,
                WalRecord::EpochMeta(_) | WalRecord::EpochDelta(_) | WalRecord::EpochUnusable
            )
        })
    }
}

/// The records a streaming parse keeps, in log order: the retention rule
/// of [`RecoveredLog::records`], applied as each frame is decoded so a
/// superseded image or ring round is freed before the next one is read.
///
/// A record is dropped only once a later frame makes it unreachable for
/// every [`RecoveredLog`] query. That holds because sequence numbers never
/// decrease along a log: a checkpoint's `seq` and a round's `cp_seq` are
/// the writer's last op sequence at the time, so no later meta can name
/// a `cp_seq` below one already seen.
#[derive(Default)]
struct Retained {
    /// Every decoded record, `None` once superseded.
    slots: Vec<Option<WalRecord>>,
    /// Slots of the live checkpoint and epoch records, the only ones a
    /// later frame can supersede.
    aux: Vec<usize>,
}

impl Retained {
    fn push(&mut self, rec: WalRecord) {
        let replayable = matches!(rec, WalRecord::Op { .. } | WalRecord::AddNode { .. });
        if !replayable {
            self.aux.push(self.slots.len());
        }
        self.slots.push(Some(rec));
        if !replayable {
            self.prune();
        }
    }

    /// Walks the live checkpoint and epoch records newest first and drops
    /// each one a newer record supersedes.
    fn prune(&mut self) {
        let ring_seq = self.aux.iter().rev().find_map(|&i| match &self.slots[i] {
            Some(WalRecord::EpochMeta(m)) => Some(m.cp_seq),
            _ => None,
        });
        let (mut newest, mut at_ring, mut meta, mut unusable) = (false, false, false, false);
        for &i in self.aux.iter().rev() {
            let keep = match &self.slots[i] {
                Some(WalRecord::Checkpoint(cp)) => {
                    let is_newest = !std::mem::replace(&mut newest, true);
                    let is_at_ring =
                        ring_seq == Some(cp.seq) && !std::mem::replace(&mut at_ring, true);
                    is_newest || is_at_ring
                }
                Some(WalRecord::EpochMeta(_)) => !std::mem::replace(&mut meta, true),
                Some(WalRecord::EpochDelta(d)) => ring_seq.is_none_or(|c| d.cp_seq >= c),
                Some(WalRecord::EpochUnusable) => !std::mem::replace(&mut unusable, true),
                // Ops never enter `aux`: the whole stream is replayable.
                _ => true,
            };
            if !keep {
                self.slots[i] = None;
            }
        }
        self.aux.retain(|&i| self.slots[i].is_some());
    }

    fn into_records(self) -> Vec<WalRecord> {
        self.slots.into_iter().flatten().collect()
    }
}

/// Byte offsets (from the start of the buffer) of every well-formed frame
/// — the crash points the fault sweep cuts at. Offset 8 is the first
/// frame; the final entry is the end of the valid log.
pub fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Vec::new();
    }
    codec::frame_offsets(bytes, MAGIC.len())
}

/// What kind of record a frame carries — the targeting vocabulary of
/// `wal-fault --kind`, so a sweep can corrupt history frames without
/// touching the head image (or vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An edge-op frame (tag 1).
    Op,
    /// A node-append frame (tag 2).
    AddNode,
    /// A checkpoint frame, v1 or v2 (tags 3 and 4).
    Checkpoint,
    /// An epoch-ring trailer frame (tag 5).
    EpochMeta,
    /// A retained-epoch delta frame (tag 6).
    EpochDelta,
    /// An unrecognised tag (a frame from the future, or garbage that
    /// happens to checksum).
    Unknown,
}

/// `(offset, kind)` for every well-formed frame, classified by payload
/// tag. Unlike [`frame_offsets`] there is no end sentinel: every entry
/// is a real frame.
pub fn frame_kinds(bytes: &[u8]) -> Vec<(usize, FrameKind)> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Vec::new();
    }
    let mut kinds = Vec::new();
    let mut pos = MAGIC.len();
    while let Some((payload, next)) = codec::frame_at(bytes, pos) {
        let kind = match payload.first() {
            Some(&TAG_OP) => FrameKind::Op,
            Some(&TAG_ADD_NODE) => FrameKind::AddNode,
            Some(&(TAG_CHECKPOINT | TAG_CHECKPOINT2)) => FrameKind::Checkpoint,
            Some(&TAG_EPOCH_META) => FrameKind::EpochMeta,
            Some(&TAG_EPOCH_DELTA) => FrameKind::EpochDelta,
            _ => FrameKind::Unknown,
        };
        kinds.push((pos, kind));
        pos = next;
    }
    kinds
}

/// Parses a log image. Stops cleanly — `torn`, not an error — at the
/// first frame whose length does not fit, whose checksum does not hold,
/// or whose payload does not decode: after a crash that is precisely the
/// torn tail, and everything before it is intact by construction. Only
/// the records [`RecoveredLog::records`] describes are kept.
///
/// # Errors
/// [`WalError::BadMagic`] when the buffer does not start with `INCSWAL1`.
pub fn read_records(bytes: &[u8]) -> Result<RecoveredLog, WalError> {
    read_frames(bytes, bytes.len() as u64)
}

/// Reads and parses a log file, streaming it frame by frame — see
/// [`read_records`]. Memory stays at the retained records plus one
/// payload, not the file's size.
///
/// # Errors
/// [`WalError::BadMagic`] when the file does not start with `INCSWAL1`;
/// [`WalError::Io`] when it cannot be read.
pub fn read_log(path: &Path) -> Result<RecoveredLog, WalError> {
    let file = File::open(path)?;
    let total = file.metadata()?.len();
    read_frames(BufReader::new(file), total)
}

/// The one log parser: reads the `total` bytes of a log from `r`, one
/// frame at a time, into a single reused payload buffer.
fn read_frames(mut r: impl Read, total: u64) -> Result<RecoveredLog, WalError> {
    if total < MAGIC.len() as u64 {
        return Err(WalError::BadMagic);
    }
    let mut magic = [0u8; MAGIC.len()];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut kept = Retained::default();
    let mut payload = Vec::new();
    let mut pos = MAGIC.len() as u64;
    let mut torn = false;
    while pos < total {
        let Some(rec) = next_record(&mut r, total - pos, &mut payload)? else {
            torn = true;
            break;
        };
        kept.push(rec);
        pos += (FRAME_HEADER + payload.len()) as u64;
    }
    Ok(RecoveredLog {
        records: kept.into_records(),
        torn,
        valid_bytes: pos,
    })
}

/// Reads the next frame into `payload` and decodes it. `None` when the
/// frame does not fit in the `remaining` bytes, its checksum does not
/// hold, or its payload does not decode: the torn tail.
fn next_record(
    r: &mut impl Read,
    remaining: u64,
    payload: &mut Vec<u8>,
) -> io::Result<Option<WalRecord>> {
    if remaining < FRAME_HEADER as u64 {
        return Ok(None);
    }
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    // The length is bounded by the bytes actually left before anything is
    // allocated for it: a damaged header cannot claim 4 GiB.
    if u64::from(len) > remaining - FRAME_HEADER as u64 {
        return Ok(None);
    }
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Ok(None);
    }
    Ok(decode_payload(payload))
}

// ---- the writer ---------------------------------------------------------

/// An open, append-only log. Created or recovered with
/// [`Wal::open_or_create`]; the serving layer holds one per handle.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes known good (everything before is flushed, framed, valid).
    len: u64,
    next_seq: u64,
    appends: u64,
    checkpoints: u64,
}

impl Wal {
    /// Opens `path`, recovering (and physically truncating) a torn tail,
    /// or creates a fresh log when the file is missing, empty, or holds
    /// only a prefix of the magic (a crash between create and the magic
    /// write). Returns the parsed prefix when an existing log was
    /// recovered; the file is streamed, never read whole.
    ///
    /// # Errors
    /// [`WalError::BadMagic`] when the file holds anything else that is
    /// not an `INCSWAL1` log; [`WalError::Io`] on I/O failure.
    pub fn open_or_create(path: &Path) -> Result<(Wal, Option<RecoveredLog>), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let total = file.metadata()?.len();
        let recovered = if total < MAGIC.len() as u64 {
            let mut head = [0u8; MAGIC.len()];
            let head = &mut head[..total as usize];
            file.read_exact(head)?;
            if head != &MAGIC[..head.len()] {
                return Err(WalError::BadMagic);
            }
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.flush()?;
            None
        } else {
            let log = read_frames(BufReader::new(&file), total)?;
            if log.valid_bytes < total {
                file.set_len(log.valid_bytes)?;
            }
            file.seek(SeekFrom::Start(log.valid_bytes))?;
            Some(log)
        };
        let (len, next_seq) = recovered.as_ref().map_or((MAGIC.len() as u64, 1), |log| {
            (log.valid_bytes, log.last_seq() + 1)
        });
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len,
                next_seq,
                appends: 0,
                checkpoints: 0,
            },
            recovered,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next appended op will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Ops appended through this handle (not counting recovered history).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Checkpoints written through this handle.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Writes pre-encoded frames atomically-with-respect-to-this-log: on
    /// any write error the file is truncated back to its previous length,
    /// so a failed append never leaves a half-written batch behind.
    fn append_frames(&mut self, buf: &[u8]) -> Result<(), WalError> {
        let prev = self.len;
        let res = self.file.write_all(buf).and_then(|()| self.file.flush());
        match res {
            Ok(()) => {
                self.len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(prev);
                let _ = self.file.seek(SeekFrom::Start(prev));
                Err(WalError::Io(e))
            }
        }
    }

    /// Appends a batch of edge ops as one write, assigning them the next
    /// `ops.len()` sequence numbers. Returns the first assigned sequence
    /// number. Write-ahead: call this *before* applying the ops.
    pub fn append_ops(&mut self, ops: &[UpdateOp]) -> Result<u64, WalError> {
        let first = self.next_seq;
        let mut buf = Vec::with_capacity(ops.len() * (FRAME_HEADER + 18));
        for (k, &op) in ops.iter().enumerate() {
            codec::put_frame_with(&mut buf, |p| encode_op_into(p, first + k as u64, op))?;
        }
        self.append_frames(&buf)?;
        self.next_seq += ops.len() as u64;
        self.appends += ops.len() as u64;
        Ok(first)
    }

    /// Appends a node-append record; returns its sequence number.
    pub fn append_add_node(&mut self) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let mut buf = Vec::new();
        codec::put_frame_with(&mut buf, |p| encode_add_node_into(p, seq))?;
        self.append_frames(&buf)?;
        self.next_seq += 1;
        self.appends += 1;
        Ok(seq)
    }

    /// Appends a checkpoint record and `fsync`s the log — the one point
    /// where durability is forced down to the device.
    pub fn append_checkpoint(&mut self, cp: &CheckpointRecord) -> Result<(), WalError> {
        let mut buf = Vec::new();
        codec::put_frame_with(&mut buf, |p| encode_checkpoint_into(p, cp))?;
        self.append_frames(&buf)?;
        self.file.sync_data()?;
        self.checkpoints += 1;
        Ok(())
    }

    /// Appends one epoch-ring round — every retained epoch's delta
    /// frame, then the meta trailer — and `fsync`s. The order is the
    /// integrity contract: a crash mid-round leaves delta frames without
    /// a trailer (or a trailer whose `entries` count disagrees), which
    /// [`RecoveredLog::newest_epoch_ring`] rejects as a unit, so
    /// recovery never sees half a ring.
    pub fn append_epoch_ring(
        &mut self,
        deltas: &[EpochDeltaRecord],
        meta: &EpochMetaRecord,
    ) -> Result<(), WalError> {
        let mut buf = Vec::new();
        for d in deltas {
            codec::put_frame_with(&mut buf, |p| encode_epoch_delta_into(p, d))?;
        }
        codec::put_frame_with(&mut buf, |p| encode_epoch_meta_into(p, meta))?;
        self.append_frames(&buf)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Forces everything appended so far down to the device.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

// ---- rebuild ------------------------------------------------------------

/// The checkpoint image for `sim`: a dense `INCSIM01` snapshot when the
/// engine has the matrix capability, its `(config, graph)` otherwise
/// (matrix-free engines rebuild from the graph under their pinned seed).
pub fn checkpoint_image_for(sim: &mut SimRank) -> CheckpointImage {
    let mut buf = Vec::new();
    match sim.snapshot(&mut buf) {
        Ok(()) => CheckpointImage::Dense(buf),
        Err(_) => CheckpointImage::GraphOnly {
            config: *sim.config(),
            graph: sim.graph().clone(),
        },
    }
}

/// A rebuilt engine plus the replay accounting.
pub struct Rebuilt {
    /// The reconstructed service handle.
    pub sim: SimRank,
    /// Sequence number of the checkpoint it started from.
    pub checkpoint_seq: u64,
    /// Op/add-node records replayed on top of the checkpoint.
    pub replayed_ops: u64,
    /// The log's highest sequence number.
    pub last_seq: u64,
}

/// Reconstructs an engine from a recovered log: the newest checkpoint
/// (see [`RecoveredLog::newest_checkpoint`]), then replay of the op
/// suffix. The third argument is ignored: it once picked one engine of
/// a multi-engine router, and stays so existing callers compile.
///
/// `builder` supplies everything the log does not store: engine kind,
/// apply policy, probe seed. Pass the same builder the crashed system was
/// built with; the checkpoint's config overrides the builder's.
///
/// # Examples
///
/// A durable handle writes a base checkpoint at build time, appends
/// every committed op, and embeds a fresh checkpoint every
/// `checkpoint_every` ops, so after a crash the log alone reproduces it
/// from the newest checkpoint:
///
/// ```
/// use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
/// use incsim::core::{batch_simrank, SimRankConfig};
/// use incsim::graph::{DiGraph, UpdateOp};
/// use incsim::serve::ShardedSimRank;
/// use incsim::wal::{read_log, rebuild_engine};
///
/// let path = std::env::temp_dir()
///     .join(format!("incsim_doc_rebuild_{}.wal", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
/// let g = DiGraph::from_edges(5, &[(0, 2), (1, 2), (2, 3), (3, 4)]);
/// let cfg = SimRankConfig::new(0.6, 8).unwrap();
/// let scores = batch_simrank(&g, &cfg);
/// let builder = SimRankBuilder::new()
///     .algorithm(EngineKind::IncSr)
///     .mode(ApplyPolicy::Fused)
///     .config(cfg);
/// let durable = builder.clone().wal(&path).checkpoint_every(2);
/// let mut srv = ShardedSimRank::with_scores(durable, g, scores).unwrap();
/// srv.update(UpdateOp::Insert(0, 3)).unwrap();
/// srv.update(UpdateOp::Insert(4, 0)).unwrap(); // seq 2: a checkpoint
/// srv.update(UpdateOp::Delete(2, 3)).unwrap();
/// let live = srv.pair(0, 1);
/// drop(srv); // crash: only the log survives
///
/// let rebuilt = rebuild_engine(&builder, &read_log(&path).unwrap(), None).unwrap();
/// assert_eq!(rebuilt.checkpoint_seq, 2);
/// assert_eq!(rebuilt.replayed_ops, 1);
/// let mut sim = rebuilt.sim;
/// assert_eq!(sim.pair(0, 1).to_bits(), live.to_bits());
/// # let _ = std::fs::remove_file(&path);
/// ```
///
/// # Errors
/// [`WalError::NoCheckpoint`] when the log holds no usable checkpoint;
/// [`WalError::ShardedLog`] when the newest checkpoint comes from a
/// multi-engine router; decode/build failures are forwarded.
pub fn rebuild_engine(
    builder: &SimRankBuilder,
    log: &RecoveredLog,
    _shard: Option<u32>,
) -> Result<Rebuilt, WalError> {
    let cp = log.newest_checkpoint().ok_or(WalError::NoCheckpoint)?;
    if cp.shard_count > 1 {
        return Err(WalError::ShardedLog {
            shard_count: cp.shard_count,
        });
    }
    let mut sim = match &cp.image {
        CheckpointImage::Dense(bytes) => builder.clone().from_snapshot(&bytes[..])?,
        CheckpointImage::GraphOnly { config, graph } => {
            builder.clone().config(*config).from_graph(graph.clone())?
        }
    };
    let mut replayed = 0u64;
    for rec in log.ops_after(cp.seq) {
        match rec.op {
            ReplayOp::Edge(op) => {
                sim.update(op).map_err(BuildError::Engine)?;
            }
            ReplayOp::AddNode => {
                sim.add_node();
            }
        }
        replayed += 1;
    }
    sim.counters_mut().replayed_ops += replayed;
    Ok(Rebuilt {
        sim,
        checkpoint_seq: cp.seq,
        replayed_ops: replayed,
        last_seq: log.last_seq(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ApplyPolicy, EngineKind};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("incsim_wal_test_{}_{name}", std::process::id()));
        p
    }

    fn cfg() -> SimRankConfig {
        SimRankConfig::new(0.6, 20).unwrap()
    }

    fn fixture() -> DiGraph {
        DiGraph::from_edges(6, &[(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    /// Appends one hand-crafted frame, its payload written by `write`.
    fn frame(bytes: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        codec::put_frame_with(bytes, write).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn log_roundtrips_ops_and_checkpoints() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, recovered) = Wal::open_or_create(&path).unwrap();
        assert!(recovered.is_none());

        let mut sim = SimRankBuilder::new()
            .config(cfg())
            .from_graph(fixture())
            .unwrap();
        wal.append_checkpoint(&CheckpointRecord::new(0, checkpoint_image_for(&mut sim)))
            .unwrap();
        let first = wal
            .append_ops(&[UpdateOp::Insert(0, 4), UpdateOp::Delete(2, 3)])
            .unwrap();
        assert_eq!(first, 1);
        wal.append_add_node().unwrap();
        assert_eq!(wal.next_seq(), 4);
        assert_eq!(wal.appends(), 3);
        assert_eq!(wal.checkpoints(), 1);
        drop(wal);

        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records.len(), 4);
        assert_eq!(log.last_seq(), 3);
        assert!(log.newest_checkpoint().is_some());
        assert!(matches!(
            log.records[1],
            WalRecord::Op {
                seq: 1,
                op: UpdateOp::Insert(0, 4)
            }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[UpdateOp::Insert(0, 1), UpdateOp::Insert(1, 2)])
            .unwrap();
        drop(wal);

        // Tear the final frame mid-payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.truncate(full - 5);
        std::fs::write(&path, &bytes).unwrap();

        let log = read_log(&path).unwrap();
        assert!(log.torn);
        assert_eq!(log.records.len(), 1, "only the intact frame survives");

        // Re-opening truncates the tail and continues the sequence.
        let (mut wal, recovered) = Wal::open_or_create(&path).unwrap();
        let recovered = recovered.unwrap();
        assert!(recovered.torn);
        assert_eq!(recovered.last_seq(), 1);
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovered.valid_bytes
        );
        wal.append_ops(&[UpdateOp::Insert(1, 2)]).unwrap();
        drop(wal);
        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_corruption_stops_the_parse_cleanly() {
        let path = tmp("crc");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(1, 2),
            UpdateOp::Insert(2, 3),
        ])
        .unwrap();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let offs = frame_offsets(&bytes);
        assert_eq!(offs.len(), 4, "3 frames + end sentinel");
        // Flip a payload bit in the second frame: its CRC no longer holds.
        bytes[offs[1] + FRAME_HEADER + 2] ^= 0x40;
        let log = read_records(&bytes).unwrap();
        assert!(log.torn);
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.valid_bytes as usize, offs[1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebuild_reproduces_the_uncrashed_engine() {
        let path = tmp("rebuild");
        let _ = std::fs::remove_file(&path);
        let builder = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Fused)
            .config(cfg());

        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        let mut live = builder.clone().from_graph(fixture()).unwrap();
        wal.append_checkpoint(&CheckpointRecord::new(0, checkpoint_image_for(&mut live)))
            .unwrap();
        let ops = [
            UpdateOp::Insert(0, 4),
            UpdateOp::Insert(5, 2),
            UpdateOp::Delete(2, 3),
        ];
        for &op in &ops {
            wal.append_ops(&[op]).unwrap();
            live.update(op).unwrap();
        }
        drop(wal);

        let log = read_log(&path).unwrap();
        let rebuilt = rebuild_engine(&builder, &log, None).unwrap();
        assert_eq!(rebuilt.replayed_ops, 3);
        assert_eq!(rebuilt.checkpoint_seq, 0);
        let mut sim = rebuilt.sim;
        assert_eq!(sim.counters().replayed_ops, 3);
        assert_eq!(sim.graph(), live.graph());
        let (a, b) = (sim.scores().unwrap().clone(), live.scores().unwrap());
        assert!(
            a.max_abs_diff(b) == 0.0,
            "fixed-policy replay must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebuild_without_checkpoint_is_a_typed_error() {
        let log = RecoveredLog {
            records: vec![WalRecord::Op {
                seq: 1,
                op: UpdateOp::Insert(0, 1),
            }],
            torn: false,
            valid_bytes: 8,
        };
        assert!(matches!(
            rebuild_engine(&SimRankBuilder::new(), &log, None),
            Err(WalError::NoCheckpoint)
        ));
    }

    fn sample_delta(n: usize) -> LowRankDelta {
        let mut d = LowRankDelta::new(n);
        d.push_sparse(vec![(0, 0.5), (2, -1.25)], vec![(1, 2.0)]);
        d
    }

    fn sample_ring(cp_seq: u64) -> (Vec<EpochDeltaRecord>, EpochMetaRecord) {
        let deltas = vec![
            EpochDeltaRecord {
                cp_seq,
                seq: 0,
                stamp: 0,
                at_op: 0,
                n: 4,
                delta: DeltaImage::Dense(sample_delta(4)),
                ops: vec![ReplayOp::Edge(UpdateOp::Insert(0, 1)), ReplayOp::AddNode],
            },
            EpochDeltaRecord {
                cp_seq,
                seq: 1,
                stamp: 3,
                at_op: 3,
                n: 5,
                delta: DeltaImage::Broken,
                ops: vec![ReplayOp::Edge(UpdateOp::Delete(1, 2))],
            },
        ];
        let meta = EpochMetaRecord {
            cp_seq,
            head_seq: 2,
            head_stamp: 4,
            head_at_op: 4,
            head_n: 5,
            retain: 3,
            entries: deltas.len(),
            anchor: DeltaImage::Dense(sample_delta(5)),
            pending: vec![ReplayOp::Edge(UpdateOp::Insert(3, 4))],
            tail: Some(DiGraph::from_edges(4, &[(0, 1), (2, 3)])),
        };
        (deltas, meta)
    }

    #[test]
    fn epoch_ring_round_trips_through_the_log() {
        let path = tmp("epoch_ring");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[UpdateOp::Insert(0, 1)]).unwrap();
        let (deltas, meta) = sample_ring(1);
        wal.append_epoch_ring(&deltas, &meta).unwrap();
        wal.append_ops(&[UpdateOp::Insert(1, 2)]).unwrap();
        drop(wal);

        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.op_count(), 2);
        assert_eq!(log.last_seq(), 2);
        let (m, ds) = log.newest_epoch_ring().expect("complete ring");
        assert_eq!(m.cp_seq, 1);
        assert_eq!(m.head_seq, 2);
        assert_eq!(m.retain, 3);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].ops.len(), 2);
        assert_eq!(ds[1].n, 5);
        assert!(matches!(ds[1].delta, DeltaImage::Broken));
        assert!(matches!(
            m.pending[..],
            [ReplayOp::Edge(UpdateOp::Insert(3, 4))]
        ));
        assert_eq!(m.tail.as_ref().unwrap().edge_count(), 2);
        match &ds[0].delta {
            DeltaImage::Dense(d) => {
                assert_eq!(d.encode(), sample_delta(4).encode());
            }
            other => panic!("expected dense delta, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_epoch_frame_degrades_without_truncating_ops() {
        let path = tmp("epoch_lenient");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        wal.append_ops(&[UpdateOp::Insert(0, 1)]).unwrap();
        let (deltas, meta) = sample_ring(1);
        wal.append_epoch_ring(&deltas, &meta).unwrap();
        wal.append_ops(&[UpdateOp::Insert(1, 2)]).unwrap();
        drop(wal);

        // Damage the first epoch-delta frame's *body* and re-stamp its
        // CRC: the frame is intact at the framing layer but its payload
        // no longer decodes (version byte from the future).
        let mut bytes = std::fs::read(&path).unwrap();
        let kinds = frame_kinds(&bytes);
        let (off, _) = kinds
            .iter()
            .find(|(_, k)| *k == FrameKind::EpochDelta)
            .copied()
            .unwrap();
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        bytes[off + FRAME_HEADER + 1] = 99; // envelope version byte
        let crc = crc32(&bytes[off + FRAME_HEADER..off + FRAME_HEADER + len]);
        bytes[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());

        let log = read_records(&bytes).unwrap();
        assert!(!log.torn, "epoch damage must not tear the log");
        // The op *after* the damaged frame still replays…
        assert_eq!(log.op_count(), 2);
        assert_eq!(log.last_seq(), 2);
        // …but the ring is rejected as a unit (entry count disagrees).
        assert!(log.newest_epoch_ring().is_none());
        assert!(log.has_epoch_frames());
        assert!(log
            .records
            .iter()
            .any(|r| matches!(r, WalRecord::EpochUnusable)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incomplete_epoch_round_is_rejected_as_a_unit() {
        // Deltas written, meta torn away by the crash: no ring.
        let (deltas, meta) = sample_ring(5);
        let mut bytes = MAGIC.to_vec();
        for d in &deltas {
            frame(&mut bytes, |p| encode_epoch_delta_into(p, d));
        }
        let log = read_records(&bytes).unwrap();
        assert!(log.newest_epoch_ring().is_none());
        assert!(log.has_epoch_frames());

        // Meta present but one delta frame short: rejected too.
        let mut bytes = MAGIC.to_vec();
        frame(&mut bytes, |p| encode_epoch_delta_into(p, &deltas[0]));
        frame(&mut bytes, |p| encode_epoch_meta_into(p, &meta));
        let log = read_records(&bytes).unwrap();
        assert!(log.newest_epoch_ring().is_none());

        // The full round is accepted.
        let mut bytes = MAGIC.to_vec();
        for d in &deltas {
            frame(&mut bytes, |p| encode_epoch_delta_into(p, d));
        }
        frame(&mut bytes, |p| encode_epoch_meta_into(p, &meta));
        let log = read_records(&bytes).unwrap();
        assert!(log.newest_epoch_ring().is_some());
    }

    #[test]
    fn v1_checkpoint_frames_stay_readable() {
        // Re-encode a checkpoint the way the v1 writer did (tag 3, no
        // version byte) and read it back through the current decoder.
        let mut sim = SimRankBuilder::new()
            .config(cfg())
            .from_graph(fixture())
            .unwrap();
        let cp = CheckpointRecord::new(0, checkpoint_image_for(&mut sim));
        let mut v2 = Vec::new();
        encode_checkpoint_into(&mut v2, &cp);
        assert_eq!(v2[0], TAG_CHECKPOINT2);
        assert_eq!(v2[1], RECORD_VERSION);
        // A v1 payload is the v2 payload with tag 3 and no version byte.
        let mut v1 = vec![TAG_CHECKPOINT];
        v1.extend_from_slice(&v2[2..]);

        let mut bytes = MAGIC.to_vec();
        frame(&mut bytes, |p| p.extend_from_slice(&v1));
        let log = read_records(&bytes).unwrap();
        assert!(!log.torn);
        let got = log.newest_checkpoint().expect("v1 checkpoint decodes");
        assert_eq!(got.seq, 0);
        assert_eq!(got.shard_count, 1);
        assert!(matches!(got.image, CheckpointImage::Dense(_)));
        // And a v1 log has no epoch frames: history is simply absent.
        assert!(!log.has_epoch_frames());
        assert!(log.newest_epoch_ring().is_none());
    }
    #[test]
    fn frames_match_the_tag_table() {
        let path = tmp("layout");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        let config = cfg();
        wal.append_checkpoint(&CheckpointRecord::new(
            7,
            CheckpointImage::GraphOnly {
                config,
                graph: DiGraph::from_edges(2, &[(0, 1)]),
            },
        ))
        .unwrap();
        let delta = EpochDeltaRecord {
            cp_seq: 7,
            seq: 2,
            stamp: 5,
            at_op: 6,
            n: 300,
            delta: DeltaImage::Dense(sample_delta(4)),
            ops: vec![
                ReplayOp::Edge(UpdateOp::Insert(1, 200)),
                ReplayOp::Edge(UpdateOp::Delete(0, 1)),
                ReplayOp::AddNode,
            ],
        };
        let (_, mut meta) = sample_ring(7);
        meta.entries = 1;
        wal.append_epoch_ring(std::slice::from_ref(&delta), &meta)
            .unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let framed = |payload: Vec<u8>| {
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend(crc32(&payload).to_le_bytes());
            f.extend(payload);
            f
        };
        // Tag 4: version, shard u32 (reserved: u32::MAX), shard_count u32
        // (1), block u64 (reserved: 0), seq u64, image_kind u8, image_len
        // u64, then a graph-only image: c f64, iterations u64, zero_tol
        // f64, n u64, m u64, one packed u64 edge.
        let mut cp = vec![4, 1];
        cp.extend(u32::MAX.to_le_bytes());
        cp.extend(1u32.to_le_bytes());
        cp.extend(0u64.to_le_bytes());
        cp.extend(7u64.to_le_bytes());
        cp.push(0);
        cp.extend(48u64.to_le_bytes());
        cp.extend(0.6f64.to_le_bytes());
        cp.extend(20u64.to_le_bytes());
        cp.extend(config.zero_tol.to_le_bytes());
        cp.extend(2u64.to_le_bytes());
        cp.extend(1u64.to_le_bytes());
        // Edge 0 → 1, packed as (u << 32) | v.
        cp.extend(1u64.to_le_bytes());
        // Tag 6: version, cp_seq u64, seq u64, stamp u64, at_op u64, then
        // varints: n = 300, 1 image (dense factors), 3 ops (insert 1→200,
        // delete 0→1, add node).
        let mut ep = vec![6, 1];
        for v in [7u64, 2, 5, 6] {
            ep.extend(v.to_le_bytes());
        }
        ep.extend([0xAC, 0x02, 1, 0]);
        ep.extend(sample_delta(4).encode());
        ep.extend([3, 0, 1, 0xC8, 0x01, 1, 0, 1, 2]);

        let want = [MAGIC.to_vec(), framed(cp), framed(ep)].concat();
        assert_eq!(bytes[..want.len()], want[..]);
    }

    #[test]
    fn log_torn_inside_its_magic_reopens_fresh() {
        let path = tmp("torn_magic");
        let builder = SimRankBuilder::new().config(cfg()).wal(&path);
        // A crash between create and the magic write leaves a prefix of it.
        std::fs::write(&path, &MAGIC[..4]).unwrap();
        let mut srv = builder.clone().build_sharded(fixture()).unwrap();
        srv.update(UpdateOp::Insert(0, 4)).unwrap();
        drop(srv);
        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.newest_checkpoint().map(|cp| cp.seq), Some(0));
        assert_eq!(log.op_count(), 1);

        // Any other short or mismatched header is still not a log.
        for header in [&b"INCX"[..], b"WAL", b"INCSWAL2"] {
            std::fs::write(&path, header).unwrap();
            let err = builder.clone().build_sharded(fixture()).err();
            assert!(
                matches!(&err, Some(BuildError::Wal(e)) if matches!(**e, WalError::BadMagic)),
                "{header:?} opened as a log: {err:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_frame_length_reads_as_a_torn_tail() {
        let mut bytes = MAGIC.to_vec();
        frame(&mut bytes, |p| encode_op_into(p, 1, UpdateOp::Insert(0, 1)));
        let at = bytes.len();
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, 0);
        bytes.extend([0; 16]);
        let log = read_records(&bytes).unwrap();
        assert!(log.torn);
        assert_eq!(log.valid_bytes, at as u64);
        assert_eq!(log.op_count(), 1);

        // The writer's reopen cuts the file back to the same offset.
        let path = tmp("oversized");
        std::fs::write(&path, &bytes).unwrap();
        let (wal, recovered) = Wal::open_or_create(&path).unwrap();
        assert_eq!(recovered.map(|l| l.valid_bytes), Some(at as u64));
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), at as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// Non-op records a log of `rounds` checkpoint rounds retains: each
    /// round is an op, a checkpoint and a two-entry ring.
    fn retained_non_ops(rounds: u64) -> usize {
        let path = tmp(&format!("rounds_{rounds}"));
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_or_create(&path).unwrap();
        let checkpoint = |seq| {
            CheckpointRecord::new(
                seq,
                CheckpointImage::GraphOnly {
                    config: cfg(),
                    graph: fixture(),
                },
            )
        };
        wal.append_checkpoint(&checkpoint(0)).unwrap();
        for _ in 0..rounds {
            let seq = wal.append_ops(&[UpdateOp::Insert(0, 1)]).unwrap();
            wal.append_checkpoint(&checkpoint(seq)).unwrap();
            let (deltas, meta) = sample_ring(seq);
            wal.append_epoch_ring(&deltas, &meta).unwrap();
        }
        drop(wal);
        let log = read_log(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(log.op_count() as u64, rounds);
        assert!(log.newest_epoch_ring().is_some());
        log.records.len() - log.op_count()
    }

    #[test]
    fn retained_records_do_not_grow_with_rounds() {
        assert!(retained_non_ops(40) <= retained_non_ops(3));
    }

    /// Parses `bytes` keeping every decoded record: the reference the
    /// streaming reader's retention must agree with.
    fn read_all(bytes: &[u8]) -> RecoveredLog {
        let mut records = Vec::new();
        let mut pos = MAGIC.len();
        while let Some((payload, next)) = codec::frame_at(bytes, pos) {
            let Some(rec) = decode_payload(payload) else {
                break;
            };
            records.push(rec);
            pos = next;
        }
        RecoveredLog {
            records,
            torn: pos < bytes.len(),
            valid_bytes: pos as u64,
        }
    }

    /// Everything recovery asks of a log, as one comparable value.
    #[derive(Debug, PartialEq)]
    struct Answers {
        torn: bool,
        valid_bytes: u64,
        last_seq: u64,
        op_count: usize,
        has_epoch_frames: bool,
        /// Encoded newest checkpoint.
        newest: Option<Vec<u8>>,
        /// Meta `cp_seq`, `head_seq`, `entries` and the delta seqs.
        ring: Option<(u64, u64, usize, Vec<u64>)>,
        floor: u64,
        /// Encoded checkpoint at the ring's `cp_seq`.
        ring_image: Option<Vec<u8>>,
        ops: Vec<ReplayEntry>,
    }

    fn answers(log: &RecoveredLog) -> Answers {
        let encoded = |cp: Option<&CheckpointRecord>| {
            cp.map(|cp| {
                let mut p = Vec::new();
                encode_checkpoint_into(&mut p, cp);
                p
            })
        };
        let ring = log.newest_epoch_ring();
        Answers {
            torn: log.torn,
            valid_bytes: log.valid_bytes,
            last_seq: log.last_seq(),
            op_count: log.op_count(),
            has_epoch_frames: log.has_epoch_frames(),
            newest: encoded(log.newest_checkpoint()),
            ring: ring.as_ref().map(|(m, ds)| {
                (
                    m.cp_seq,
                    m.head_seq,
                    m.entries,
                    ds.iter().map(|d| d.seq).collect(),
                )
            }),
            floor: log.history_floor(),
            ring_image: ring.and_then(|(m, _)| encoded(log.checkpoint_at(m.cp_seq))),
            ops: log.ops_after(0).collect(),
        }
    }

    /// The builder of [`retained_log`]'s handle, minus the log path.
    fn retained_builder() -> SimRankBuilder {
        SimRankBuilder::new()
            .config(cfg())
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Eager)
            .retain_epochs(3)
            .checkpoint_every(4)
    }

    /// A retained durable log: a ring round every 4 ops, a publish every
    /// 2, and one injected apply panic whose rebuild writes a second
    /// round at the same `cp_seq`, written to a scratch file named by
    /// `tag`. Returns the log's bytes and the handle's head pair reads
    /// when it was dropped.
    fn retained_log(tag: &str) -> (Vec<u8>, Vec<f64>) {
        use crate::datagen::{er::erdos_renyi, updates::random_mixed};
        use crate::serve::ServeError;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED + 1);
        let graph = erdos_renyi(10, 24, &mut rng);
        let ops = random_mixed(&graph, 30, 0.7, &mut rng);
        let path = tmp(tag);
        let _ = std::fs::remove_file(&path);
        let fault = faults::ApplyFaults::panic_at_op(17);
        let mut srv = retained_builder()
            .fault_injection(fault.clone())
            .wal(&path)
            .concurrent(graph)
            .unwrap();
        let mut rebuilds = 0;
        for (i, &op) in ops.iter().enumerate() {
            match srv.update(op) {
                Ok(_) => {}
                Err(ServeError::Panicked { .. }) => {
                    srv.rebuild().unwrap();
                    rebuilds += 1;
                }
                Err(e) => panic!("update {i} failed: {e}"),
            }
            if i % 2 == 1 {
                srv.publish();
            }
        }
        assert!(fault.exhausted() && rebuilds == 1);
        let head = head_reads(srv.sharded());
        drop(srv);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (bytes, head)
    }

    /// Every pair read of a handle's live engine, row by row.
    fn head_reads(h: &crate::serve::ShardedSimRank) -> Vec<f64> {
        let n = h.graph().node_count() as u32;
        (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| h.pair(a, b))
            .collect()
    }

    #[test]
    fn streaming_reader_agrees_with_a_full_decode() {
        let (bytes, _) = retained_log("retained");
        let full = read_all(&bytes);
        assert!(full.newest_epoch_ring().is_some());
        assert!(read_records(&bytes).unwrap().records.len() < full.records.len());

        let check = |image: &[u8], what: &str| {
            let got = answers(&read_records(image).unwrap());
            assert_eq!(got, answers(&read_all(image)), "{what}");
        };
        let offsets = frame_offsets(&bytes);
        for &cut in &offsets {
            check(&bytes[..cut], &format!("cut at frame boundary {cut}"));
        }
        for w in offsets.windows(2) {
            let cut = (w[0] + w[1]) / 2;
            check(&bytes[..cut], &format!("cut mid-frame at {cut}"));
        }
        let mut damaged_frames = 0;
        for (off, kind) in frame_kinds(&bytes) {
            if !matches!(kind, FrameKind::EpochDelta | FrameKind::EpochMeta) {
                continue;
            }
            let mut damaged = bytes.clone();
            let len = u32::from_le_bytes(damaged[off..off + 4].try_into().unwrap()) as usize;
            let payload = off + FRAME_HEADER..off + FRAME_HEADER + len;
            damaged[payload.start + 1] = 99; // envelope version byte
            let crc = crc32(&damaged[payload]);
            damaged[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());
            check(
                &damaged,
                &format!("{kind:?} frame at {off} version-damaged"),
            );
            let cut = off + FRAME_HEADER + len;
            check(
                &damaged[..cut],
                &format!("log cut after damaged frame at {off}"),
            );
            damaged_frames += 1;
        }
        assert!(damaged_frames > 10, "fixture lost its epoch frames");
    }

    #[test]
    fn recovery_starts_from_the_newest_checkpoint() {
        let path = tmp("newest_checkpoint");
        let _ = std::fs::remove_file(&path);
        let builder = SimRankBuilder::new().config(cfg()).checkpoint_every(4);
        let mut srv = builder.clone().wal(&path).build_sharded(fixture()).unwrap();
        for &(u, v) in &[
            (0, 4),
            (5, 2),
            (1, 3),
            (4, 0),
            (3, 5),
            (2, 4),
            (0, 5),
            (1, 4),
            (3, 1),
            (5, 0),
        ] {
            srv.update(UpdateOp::Insert(u, v)).unwrap();
        }
        drop(srv);
        // Checkpoints at seq 0 (the base), 4 and 8; ops run to seq 10.
        let log = read_log(&path).unwrap();
        let rebuilt = rebuild_engine(&builder, &log, None).unwrap();
        assert_eq!(rebuilt.checkpoint_seq, 8);
        assert_eq!(rebuilt.replayed_ops, 2);
        assert_eq!(rebuilt.last_seq, 10);
        let _ = std::fs::remove_file(&path);
    }

    /// Rewrites the reserved fields of every checkpoint frame in `bytes`
    /// — `fields(k)` gives the `k`-th checkpoint's `(shard, shard_count,
    /// block)` — and re-stamps each frame's CRC.
    fn retag_checkpoints(bytes: &mut [u8], fields: impl Fn(usize) -> (u32, u32, u64)) -> usize {
        let at = frame_kinds(bytes);
        let checkpoints = at.iter().filter(|(_, k)| *k == FrameKind::Checkpoint);
        let mut count = 0;
        for (k, &(off, _)) in checkpoints.enumerate() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let body = off + FRAME_HEADER;
            // Tag 4, version byte, then shard u32, shard_count u32, block u64.
            assert_eq!(bytes[body..body + 2], [TAG_CHECKPOINT2, RECORD_VERSION]);
            let (shard, shard_count, block) = fields(k);
            bytes[body + 2..body + 6].copy_from_slice(&shard.to_le_bytes());
            bytes[body + 6..body + 10].copy_from_slice(&shard_count.to_le_bytes());
            bytes[body + 10..body + 18].copy_from_slice(&block.to_le_bytes());
            let crc = crc32(&bytes[body..body + len]);
            bytes[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());
            count += 1;
        }
        count
    }

    #[test]
    fn single_shard_router_logs_reopen_from_their_newest_checkpoint() {
        use crate::serve::HistoryStatus;
        // The shape a one-shard router wrote: its base image tagged global
        // with the partition block, every later image tagged shard 0.
        let (mut bytes, head) = retained_log("router_shape_src");
        let images = retag_checkpoints(&mut bytes, |k| {
            if k == 0 {
                (SHARD_GLOBAL, 1, 10)
            } else {
                (0, 1, 10)
            }
        });
        assert!(images > 2, "fixture lost its cadence checkpoints");
        let log = read_records(&bytes).unwrap();
        let newest = log.newest_checkpoint().unwrap().seq;
        assert!(newest > 0);

        let path = tmp("router_shape");
        std::fs::write(&path, &bytes).unwrap();
        let srv = retained_builder().wal(&path).concurrent(fixture()).unwrap();
        assert!(matches!(
            srv.history_status(),
            HistoryStatus::Recovered { .. }
        ));
        let replayed = log.ops_after(newest).count() as u64;
        assert_eq!(srv.counters().replayed_ops, replayed);
        assert_eq!(srv.sharded().last_seq(), log.last_seq());
        let reopened = head_reads(srv.sharded());
        assert!(reopened
            .iter()
            .zip(&head)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_shard_logs_fail_recovery_untouched() {
        let (mut bytes, _) = retained_log("multi_shard_src");
        retag_checkpoints(&mut bytes, |k| {
            (if k == 0 { SHARD_GLOBAL } else { 1 }, 2, 5)
        });
        let path = tmp("multi_shard");
        std::fs::write(&path, &bytes).unwrap();

        let err = retained_builder()
            .wal(&path)
            .concurrent(fixture())
            .err()
            .unwrap();
        assert!(
            matches!(&err, BuildError::Wal(e) if matches!(**e, WalError::ShardedLog { shard_count: 2 })),
            "{err:?}"
        );
        let log = read_log(&path).unwrap();
        assert!(matches!(
            rebuild_engine(&retained_builder(), &log, Some(0)),
            Err(WalError::ShardedLog { shard_count: 2 })
        ));
        // The reopen decoded the log without calling any frame torn.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_rounds_with_several_images_recover_head_only() {
        use crate::serve::HistoryStatus;
        let path = tmp("two_image_ring");
        let _ = std::fs::remove_file(&path);
        let builder = SimRankBuilder::new().config(cfg()).checkpoint_every(2);
        let mut srv = builder.clone().wal(&path).build_sharded(fixture()).unwrap();
        srv.update(UpdateOp::Insert(0, 4)).unwrap();
        srv.update(UpdateOp::Insert(5, 2)).unwrap();
        let head = head_reads(&srv);
        drop(srv);

        // A round at the cadence checkpoint (seq 2) whose delta frame and
        // meta trailer each carry two `Broken` images instead of one.
        let (mut deltas, mut meta) = sample_ring(2);
        deltas.truncate(1);
        deltas[0].delta = DeltaImage::Broken;
        meta.entries = 1;
        meta.anchor = DeltaImage::Broken;
        let mut bytes = std::fs::read(&path).unwrap();
        frame(&mut bytes, |p| {
            // Tag, version, four u64s and the one-byte `n` varint.
            let at = p.len() + 35;
            encode_epoch_delta_into(p, &deltas[0]);
            assert_eq!(p[at..at + 2], [1, 2]);
            p.splice(at..at + 2, [2, 2, 2]);
        });
        frame(&mut bytes, |p| {
            // Tag, version, four u64s and three one-byte varints.
            let at = p.len() + 37;
            encode_epoch_meta_into(p, &meta);
            assert_eq!(p[at..at + 2], [1, 2]);
            p.splice(at..at + 2, [2, 2, 2]);
        });
        std::fs::write(&path, &bytes).unwrap();
        let log = read_records(&bytes).unwrap();
        assert!(!log.torn && log.newest_epoch_ring().is_none());

        let srv = builder
            .retain_epochs(3)
            .wal(&path)
            .concurrent(fixture())
            .unwrap();
        assert!(matches!(
            srv.history_status(),
            HistoryStatus::Unavailable { .. }
        ));
        assert_eq!(head_reads(srv.sharded()), head);
        let _ = std::fs::remove_file(&path);
    }
}
