//! The `incsim` **serving layer**: one engine behind a durable write
//! path, reads from immutable epoch snapshots.
//!
//! The [`crate::api::SimRank`] handle is the single-node service surface;
//! this module is the serving step on top of it, in two composable
//! pieces:
//!
//! * [`ShardedSimRank`] — the **write path** around one engine (a
//!   [`SimRank`] handle built by the same [`SimRankBuilder`]): every
//!   update is validated against the handle's authoritative graph,
//!   logged ahead when durable, and applied under panic containment.
//!   [`ApplyPolicy`](crate::api::ApplyPolicy) (including `Auto`) works
//!   unchanged. Update-side parallelism lives inside the engine: its
//!   fused sweeps and the batch kernel split rows over `INCSIM_THREADS`
//!   workers. (The type keeps the name it had when it routed across
//!   several engines, so existing callers compile unchanged.)
//! * [`ConcurrentSimRank`] — a **single-writer / many-reader** wrapper:
//!   readers query an immutable epoch snapshot ([`Epoch`], an
//!   `Arc`-parked [`SnapshotQuery`] handle — a frozen score matrix for
//!   dense engines, a frozen graph for the probe engine) through
//!   cloneable [`EpochReader`] handles, while the one writer applies
//!   updates and [publishes](ConcurrentSimRank::publish) new epochs.
//!   Readers never block the writer and never observe a half-applied
//!   update: a reader holds one coherent epoch for as long as it likes.
//!
//! Every answer is the engine's own: the handle adds no approximation,
//! so a dense engine's epoch reads match [`SimRank`] on the same update
//! stream exactly. Pair reads use the canonical `(min, max)` argument
//! order, so `pair(a, b) == pair(b, a)` holds bit-for-bit (the engine
//! matrix itself is only symmetric up to rounding).
//!
//! ## Epoch semantics
//!
//! [`ConcurrentSimRank`] decouples reads from writes with epochs:
//!
//! * the writer mutates the engine freely; **readers are unaffected**
//!   (they hold the previously published epoch);
//! * [`ConcurrentSimRank::publish`] freezes the engine's current
//!   `S_base + Δ` into a new [`Epoch`] and swaps it in atomically
//!   (readers pick it up on their next [`EpochReader::epoch`] call);
//! * a dense engine's epoch **shares** its score matrix rather than
//!   copying it: publishing costs a pointer clone, and the engine copies
//!   the matrix only when it next writes to it (copy-on-write; see
//!   [`MatrixAccess`](crate::core::MatrixAccess)). Steady state is
//!   therefore the engine's head matrix plus the one epoch readers can
//!   see, and each epoch a reader keeps pinned holds one more;
//! * a lazy window travels *into* the epoch: pending ΔS factors are
//!   snapshotted, not materialised, so publishing never forces an `n²`
//!   apply.
//!
//! The swap slot is an `RwLock<Arc<Epoch>>` held only for the pointer
//! clone/replace (an arc-swap without the dependency — `std` only);
//! queries themselves run entirely outside the lock. Readers fetching an
//! epoch per *batch* of queries (see [`EpochReader::epoch`]) pay the
//! synchronisation cost once per batch.
//!
//! ## Durability and crash containment
//!
//! A handle built with [`SimRankBuilder::wal`] is **durable**: every
//! accepted op is appended (write-ahead) to an [`crate::wal`] log before
//! the engine applies it, with periodic full-image checkpoints on the
//! [`SimRankBuilder::checkpoint_every`] cadence
//! ([`DEFAULT_CHECKPOINT_EVERY`]). Re-opening the same log rebuilds the
//! handle exactly where the crashed process stopped — newest checkpoint
//! plus replay, torn tails truncated, see the [`crate::wal`] docs for the
//! recovery contract.
//!
//! Engine failures are **contained**, durable or not: every apply runs
//! under `catch_unwind`, so a panicking engine quarantines the handle
//! ([`Health::Quarantined`]) instead of killing the process. While
//! quarantined:
//!
//! * writes are rejected with the retryable [`ServeError::Quarantined`]
//!   (bounded backoff hint attached);
//! * checked reads return [`ServeError::Degraded`]; epoch readers keep
//!   being served the last **published** epoch, marked
//!   [`ReadStatus::Degraded`] — an engine crash never takes reads down;
//! * [`ShardedSimRank::rebuild`] restores the engine from checkpoint +
//!   replay (or batch recompute without a WAL) and lifts the quarantine.
//!
//! [`SimRankBuilder::wal`]: crate::api::SimRankBuilder::wal
//! [`SimRankBuilder::checkpoint_every`]: crate::api::SimRankBuilder::checkpoint_every
//!
//! ## Example
//!
//! ```
//! use incsim::api::SimRankBuilder;
//! use incsim::core::SimRankConfig;
//! use incsim::graph::DiGraph;
//!
//! let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
//! let mut serving = SimRankBuilder::new()
//!     .config(SimRankConfig::new(0.6, 10).unwrap())
//!     .concurrent(g)
//!     .unwrap();
//!
//! let reader = serving.reader();          // Clone + Send: one per thread
//! let before = reader.epoch();
//! serving.insert(3, 1).unwrap();          // writer side
//! assert_eq!(reader.epoch().seq(), before.seq()); // not yet visible
//! serving.publish();
//! assert!(reader.epoch().seq() > before.seq());   // now it is
//! let _scores = reader.top_k(1, 3);
//! ```

use crate::api::{BuildError, ModeCounters, SimRank, SimRankBuilder};
use crate::core::query::{RankedNode, ScoreSnapshot};
use crate::core::{DeltaSnapshot, SimRankConfig, SnapshotQuery, UpdateError, UpdateStats};
use crate::graph::{DiGraph, UpdateOp};
use crate::linalg::{DenseMatrix, LowRankDelta};
use crate::wal::{self, CheckpointRecord, ReplayOp, Wal, WalError};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// Default checkpoint cadence of a durable handle: a full engine image is
/// embedded in the WAL after every this many logged ops (override with
/// [`SimRankBuilder::checkpoint_every`]).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// The backoff hint attached to writes rejected because the handle is
/// quarantined: callers should wait at least this long before retrying —
/// a [`ShardedSimRank::rebuild`] takes one checkpoint decode plus replay.
pub const QUARANTINE_RETRY_AFTER: Duration = Duration::from_millis(50);

/// Default spectral tolerance for the factor-compressed per-epoch deltas the
/// epoch ring retains: eigendirections of the epoch-to-epoch score difference
/// whose |λ| falls below this fraction of the largest are dropped (override
/// with [`SimRankBuilder::epoch_delta_tol`]). The default keeps retained
/// epochs reconstructible to well within the 1e-12 trajectory gate.
pub const DEFAULT_EPOCH_DELTA_TOL: f64 = 1e-14;

/// Errors from the serving layer's write and checked-read paths.
#[derive(Debug)]
pub enum ServeError {
    /// The op itself is invalid, or the engine failed it (routed through
    /// from the engine / validation).
    Update(UpdateError),
    /// The write-ahead log rejected the append — write-ahead ordering
    /// means nothing was applied.
    Wal(WalError),
    /// The handle is quarantined and the write was applied **nowhere**;
    /// retryable after `retry_after` (rebuild first, or wait for an
    /// operator to).
    Quarantined {
        /// Log sequence number at which the handle was quarantined.
        since_seq: u64,
        /// Bounded backoff hint.
        retry_after: Duration,
    },
    /// The engine panicked mid-apply. The handle is now quarantined; the
    /// op(s) did commit to the log and the authoritative graph, so the
    /// rebuild recovers them.
    Panicked {
        /// Log sequence number at which the handle was quarantined.
        since_seq: u64,
    },
    /// A rebuild failed to reconstruct the engine.
    Build(BuildError),
    /// A checked read on a quarantined handle: the live engine is not
    /// trustworthy, so no fresh answer exists. Epoch readers keep being
    /// served the last published state with a [`ReadStatus::Degraded`]
    /// marker instead.
    Degraded {
        /// Log sequence number at which the handle was quarantined.
        since_seq: u64,
    },
    /// The requested epoch is not the head and not in the retention ring —
    /// either it was never published, or it aged out (the ring keeps the
    /// last [`SimRankBuilder::retain_epochs`] epochs).
    NoSuchEpoch {
        /// The requested epoch sequence number.
        seq: u64,
    },
    /// The query needs dense per-epoch score deltas, but the engine is
    /// matrix-free (retained by graph replay, not factor deltas), so the
    /// cross-epoch scan cannot run.
    MatrixFree {
        /// The query that was refused.
        query: &'static str,
    },
    /// The delta chain from the requested epoch to the head is broken: a
    /// quarantine (or other non-delta retention) interrupted the
    /// factor-compressed chain, so that epoch cannot be reconstructed by
    /// stacking deltas.
    EpochChainBroken {
        /// The requested epoch sequence number.
        seq: u64,
    },
    /// The requested epoch was published before this process incarnation
    /// and the log could not restore it — it predates epoch-ring
    /// checkpoints (a v1 log), or the persisted ring round was torn or
    /// corrupt. The head and every epoch published since recovery still
    /// answer; see [`ConcurrentSimRank::history_status`].
    HistoryUnavailable {
        /// Why the pre-crash history is gone.
        reason: &'static str,
    },
    /// An internal serving invariant failed. This reports a bug, not an
    /// operational state — the handle refuses the broken path with a
    /// typed error instead of panicking mid-serve (every panic in this
    /// module is a quarantine event, never a crash).
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Update(e) => write!(f, "{e}"),
            ServeError::Wal(e) => write!(f, "durable write failed: {e}"),
            ServeError::Quarantined {
                since_seq,
                retry_after,
            } => write!(
                f,
                "the engine is quarantined (since seq {since_seq}); \
                 retry after {retry_after:?} or rebuild()"
            ),
            ServeError::Panicked { since_seq } => write!(
                f,
                "the engine panicked mid-apply and is quarantined (seq {since_seq}); \
                 the op is logged and the rebuild recovers it"
            ),
            ServeError::Build(e) => write!(f, "engine rebuild failed: {e}"),
            ServeError::Degraded { since_seq } => write!(
                f,
                "the engine is quarantined (since seq {since_seq}); \
                 no fresh answer — epoch readers serve the last published state"
            ),
            ServeError::NoSuchEpoch { seq } => write!(
                f,
                "epoch {seq} is not retained (evicted from the ring or never published)"
            ),
            ServeError::MatrixFree { query } => write!(
                f,
                "{query} needs dense per-epoch deltas; the engine is matrix-free"
            ),
            ServeError::EpochChainBroken { seq } => write!(
                f,
                "delta chain to epoch {seq} is broken \
                 (a quarantine interrupted factor-delta retention)"
            ),
            ServeError::HistoryUnavailable { reason } => {
                write!(f, "pre-crash epoch history is unavailable: {reason}")
            }
            ServeError::Internal(detail) => {
                write!(f, "internal serving invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UpdateError> for ServeError {
    fn from(e: UpdateError) -> Self {
        ServeError::Update(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<BuildError> for ServeError {
    fn from(e: BuildError) -> Self {
        ServeError::Build(e)
    }
}

/// Liveness of the serving handle's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// A mid-apply panic (or engine error) left the engine in an
    /// untrusted state: writes are rejected, checked reads report
    /// [`ServeError::Degraded`], epochs freeze the last published view.
    /// [`ShardedSimRank::rebuild`] restores it.
    Quarantined {
        /// Log sequence number at quarantine time.
        since_seq: u64,
    },
}

/// Why an epoch read is stale — attached to an epoch published while the
/// handle was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedInfo {
    /// Log sequence number at which the handle was quarantined.
    pub since_seq: u64,
    /// Node count of the frozen view; ids appended after the quarantine
    /// read as 0.0 (no similarity evidence ever reached the frozen view).
    pub frozen_n: usize,
}

/// Freshness of an epoch read — [`ReadStatus::Degraded`] answers come
/// from the last epoch published before the handle was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// Served from the engine's current published state.
    Fresh,
    /// Served from the stale pre-quarantine view.
    Degraded {
        /// Log sequence number at which the handle was quarantined.
        since_seq: u64,
    },
}

/// The all-zeros fallback view for a handle quarantined before any epoch
/// of it was published (SimRank of an unknown state: no evidence, 0.0).
#[derive(Debug)]
struct ZeroView;

impl SnapshotQuery for ZeroView {
    fn n(&self) -> usize {
        0
    }

    fn pair(&self, _a: u32, _b: u32) -> f64 {
        0.0
    }

    fn single_source(&self, _a: u32) -> Vec<RankedNode> {
        Vec::new()
    }

    fn top_k(&self, _a: u32, _k: usize) -> Vec<RankedNode> {
        Vec::new()
    }

    fn similar_above(&self, _a: u32, _threshold: f64) -> Vec<RankedNode> {
        Vec::new()
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Reader-thread count for the serving harnesses ([`drive_load`]
/// callers, the conformance tests, `incsim-cli serve`):
/// `INCSIM_THREADS` when set, otherwise the host parallelism — the same
/// knob the engine's fused sweeps follow.
pub fn serve_threads() -> usize {
    crate::linalg::lowrank::default_threads()
}

/// Raises a stop flag when dropped — **including on panic unwind**.
///
/// The scope-based reader/writer harnesses around [`ConcurrentSimRank`]
/// ([`drive_load`], the conformance tests, the serving example) spin
/// reader threads on an `AtomicBool`; if the writer side panics before
/// storing the flag, `std::thread::scope` waits on those readers forever
/// and the panic never propagates. Holding a `RaiseOnDrop` over the
/// writer body turns that livelock into a clean join-and-propagate.
pub struct RaiseOnDrop<'a>(pub &'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What recovery learned about the pre-crash temporal epoch ring,
/// stashed on the handle for [`ConcurrentSimRank::new`] to consume (the
/// write path itself has no ring — the concurrent wrapper owns it).
enum PendingHistory {
    /// A complete persisted ring round was recovered: the meta trailer,
    /// its delta records, the dense scores decoded from that round's
    /// checkpoint image (the base the post-checkpoint replay suffix is
    /// diffed against; `None` for a matrix-free engine), and the op
    /// suffix committed after the round's checkpoint.
    Ring {
        meta: Box<wal::EpochMetaRecord>,
        deltas: Vec<wal::EpochDeltaRecord>,
        cp_scores: Option<DenseMatrix>,
        suffix_ops: Vec<ReplayOp>,
    },
    /// No usable ring in the log: recover head-only. `floor` is the
    /// pre-crash head publish sequence when the log still names one (a
    /// readable meta trailer), so the new incarnation numbers past it
    /// and queries at or below it report the loss.
    Unavailable { reason: &'static str, floor: u64 },
}

/// The write path of the serving layer: one engine behind validation,
/// the write-ahead log and panic containment, with the same service
/// surface as [`SimRank`]. Build with
/// [`SimRankBuilder::build_sharded`](crate::api::SimRankBuilder::build_sharded)
/// or [`Self::with_scores`].
///
/// The handle keeps the authoritative graph; updates are validated
/// against it *before* the engine moves, so an invalid op (duplicate
/// insert, missing delete, node out of range) is rejected atomically and
/// a batch is all-or-nothing. See the [module docs](self).
pub struct ShardedSimRank {
    engine: SimRank,
    graph: DiGraph,
    /// The builder the engine was made from — rebuilds reuse it.
    builder: SimRankBuilder,
    health: Health,
    wal: Option<Wal>,
    checkpoint_every: u64,
    /// Highest op sequence number accepted (matches the WAL's when one is
    /// attached; counted locally otherwise).
    last_seq: u64,
    ops_since_checkpoint: u64,
    quarantines_total: u64,
    /// Shared with every published [`Epoch`], which bumps it on each read
    /// served from a stale (degraded) view.
    degraded_reads: Arc<AtomicU64>,
    /// Set by [`Self::recover_internal`] when the builder retains epochs:
    /// the recovered epoch ring (or why there is none), consumed once by
    /// [`ConcurrentSimRank::new`].
    pending_history: Option<PendingHistory>,
}

impl ShardedSimRank {
    /// Builds the handle from a builder, a graph, and pre-computed scores.
    /// The matrix-free [`EngineKind::Probe`] ignores the matrix — prefer
    /// [`SimRankBuilder::build_sharded`](crate::api::SimRankBuilder::build_sharded)
    /// for it, which never allocates one in the first place.
    ///
    /// [`EngineKind::Probe`]: crate::api::EngineKind::Probe
    pub fn with_scores(
        builder: SimRankBuilder,
        graph: DiGraph,
        scores: DenseMatrix,
    ) -> Result<Self, BuildError> {
        Self::build_internal(builder, graph, |_| Some(scores))
    }

    /// Shared construction. `scores` yields the initial matrix, or `None`
    /// to let the engine build on its own (a matrix-free engine never
    /// sees an `n²` buffer). `scores` runs only once the write-ahead log,
    /// if any, is found empty: a non-empty log rebuilds the engine from
    /// its newest checkpoint, so a precompute there would be thrown away.
    pub(crate) fn build_internal(
        builder: SimRankBuilder,
        graph: DiGraph,
        scores: impl FnOnce(&DiGraph) -> Option<DenseMatrix>,
    ) -> Result<Self, BuildError> {
        // Durable handles attach the write-ahead log first: an existing
        // non-empty log is the authoritative history and *overrides* the
        // supplied graph (`serve --wal` reopens exactly where the crashed
        // process stopped); a fresh log records the supplied state as its
        // base checkpoint.
        let mut wal = None;
        if let Some(path) = builder.wal_path() {
            let (w, recovered) = Wal::open_or_create(path)?;
            if let Some(log) = recovered.filter(|l| !l.records.is_empty()) {
                return Self::recover_internal(builder, w, log);
            }
            wal = Some(w);
        }

        let mut engine = match scores(&graph) {
            Some(s) => builder.clone().with_scores(graph.clone(), s)?,
            None => builder.clone().from_graph(graph.clone())?,
        };
        if let Some(w) = wal.as_mut() {
            w.append_checkpoint(&CheckpointRecord::new(
                0,
                wal::checkpoint_image_for(&mut engine),
            ))?;
        }
        Ok(Self::assemble(builder, engine, graph, wal, 0, None))
    }

    /// The handle around a built engine, healthy and with fresh counters.
    fn assemble(
        builder: SimRankBuilder,
        engine: SimRank,
        graph: DiGraph,
        wal: Option<Wal>,
        last_seq: u64,
        pending_history: Option<PendingHistory>,
    ) -> Self {
        ShardedSimRank {
            engine,
            graph,
            checkpoint_every: builder.checkpoint_cadence(),
            builder,
            health: Health::Healthy,
            wal,
            last_seq,
            ops_since_checkpoint: 0,
            quarantines_total: 0,
            degraded_reads: Arc::new(AtomicU64::new(0)),
            pending_history,
        }
    }

    /// Reconstructs the handle from a recovered log: the engine rebuilds
    /// from the newest checkpoint plus the op suffix, and the
    /// authoritative graph is the rebuilt engine's.
    fn recover_internal(
        builder: SimRankBuilder,
        wal: Wal,
        mut log: wal::RecoveredLog,
    ) -> Result<Self, BuildError> {
        let rebuilt = wal::rebuild_engine(&builder, &log, None)?;
        let graph = rebuilt.sim.graph().clone();
        let pending_history =
            (builder.retained_epochs() > 1).then(|| Self::recover_history(&mut log));
        Ok(Self::assemble(
            builder,
            rebuilt.sim,
            graph,
            Some(wal),
            rebuilt.last_seq,
            pending_history,
        ))
    }

    /// Moves the newest persisted epoch ring out of a recovered log for
    /// [`ConcurrentSimRank::new`] to rehydrate, degrading to a typed
    /// head-only outcome — never an error — when the log has no usable
    /// ring (a v1 log, or a torn or corrupt round).
    fn recover_history(log: &mut wal::RecoveredLog) -> PendingHistory {
        // The newest meta trailer's head sequence survives even when the
        // round itself is unusable: the new incarnation numbers past it.
        let floor = log.history_floor();
        let Some((meta, deltas)) = log.take_epoch_ring() else {
            let reason = if log.has_epoch_frames() {
                "the persisted epoch-ring round is torn or corrupt; recovered head-only"
            } else {
                "the log predates epoch-ring checkpoints; recovered head-only"
            };
            return PendingHistory::Unavailable { reason, floor };
        };
        if deltas.iter().any(|d| d.seq >= meta.head_seq) {
            return PendingHistory::Unavailable {
                reason: "the persisted epoch ring is numbered past its own head; \
                         recovered head-only",
                floor,
            };
        }
        // The dense scores at the round's checkpoint: the base the
        // post-checkpoint replay suffix is diffed against to roll the
        // persisted head anchor forward to the recovered state.
        let cp_scores = match (&meta.anchor, log.checkpoint_at(meta.cp_seq)) {
            (wal::DeltaImage::Dense(_), Some(cp)) => match &cp.image {
                wal::CheckpointImage::Dense(bytes) => crate::core::snapshot::load(&mut &bytes[..])
                    .ok()
                    .map(|snap| snap.scores),
                wal::CheckpointImage::GraphOnly { .. } => None,
            },
            _ => None,
        };
        let suffix_ops: Vec<ReplayOp> = log.ops_after(meta.cp_seq).map(|e| e.op).collect();
        PendingHistory::Ring {
            meta: Box::new(meta),
            deltas,
            cp_scores,
            suffix_ops,
        }
    }

    // ---- introspection -------------------------------------------------

    /// Read access to the engine's service handle (diagnostics, tests).
    pub fn engine(&self) -> &SimRank {
        &self.engine
    }

    /// [`Self::engine`] under the name callers written against the
    /// multi-engine router use; every index names the one engine.
    pub fn shard(&self, _index: usize) -> &SimRank {
        self.engine()
    }

    /// The authoritative graph (every committed update applied, even one
    /// whose engine apply panicked).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimRankConfig {
        self.engine.config()
    }

    // ---- updates -------------------------------------------------------

    /// Applies one link update: validated against the authoritative
    /// graph, then applied by the engine. Returns one [`UpdateStats`],
    /// as [`Self::update_batch`] returns one per op.
    ///
    /// Durable handles append the op to the WAL *before* applying it. An
    /// engine that panics (or errors) mid-apply quarantines the handle;
    /// the op still commits to the log and the authoritative graph, and
    /// [`Self::rebuild`] recovers it.
    pub fn update(&mut self, op: UpdateOp) -> Result<Vec<UpdateStats>, ServeError> {
        let (i, j) = op.endpoints();
        let kind = match op {
            UpdateOp::Insert(..) => crate::core::UpdateKind::Insert,
            UpdateOp::Delete(..) => crate::core::UpdateKind::Delete,
        };
        crate::core::validate_update(&self.graph, i, j, kind).map_err(ServeError::Update)?;
        self.check_writable()?;
        if let Some(w) = self.wal.as_mut() {
            w.append_ops(std::slice::from_ref(&op))?;
        }
        self.last_seq += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| self.engine.update(op)));
        // Validated above, so this cannot fail short of a bug — which
        // surfaces as a typed error, never a panic mid-serve.
        op.apply(&mut self.graph)
            .map_err(|e| ServeError::Update(UpdateError::Graph(e)))?;
        self.ops_since_checkpoint += 1;
        let stats = self.settle(outcome)?;
        self.maybe_checkpoint()?;
        Ok(vec![stats])
    }

    /// Inserts edge `(i, j)`.
    pub fn insert(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Insert(i, j))
    }

    /// Deletes edge `(i, j)`.
    pub fn remove(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Delete(i, j))
    }

    /// Applies a batch `ΔG` through the engine's batch path (one fused
    /// sweep under the fused policies). The whole batch is validated
    /// against the authoritative graph first and rejected **atomically**
    /// if any op is invalid — stronger than the single-handle prefix
    /// semantics, because the handle simulates the batch on a shadow
    /// graph before the engine moves. Returns one [`UpdateStats`] per op.
    ///
    /// Panic containment: the engine applies under `catch_unwind`, so a
    /// panic mid-batch **cannot kill the process**. The handle is
    /// quarantined and the call returns [`ServeError::Panicked`]; the
    /// batch still commits to the log and the authoritative graph, and
    /// [`Self::rebuild`] recovers it.
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, ServeError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Atomic pre-validation: replay the batch on a shadow graph.
        let mut shadow = self.graph.clone();
        for &op in ops {
            op.apply(&mut shadow)
                .map_err(|e| ServeError::Update(UpdateError::Graph(e)))?;
        }
        self.check_writable()?;
        // Write-ahead: the whole batch is logged (and flushed) before the
        // engine applies an op — on append failure nothing was applied.
        if let Some(w) = self.wal.as_mut() {
            w.append_ops(ops)?;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.engine.update_batch(ops)));
        // Commit: the batch is durable, so the shadow graph becomes
        // authoritative even when the engine failed — the rebuild
        // recovers the batch from the log.
        self.graph = shadow;
        self.last_seq += ops.len() as u64;
        self.ops_since_checkpoint += ops.len() as u64;
        let stats = self.settle(outcome)?;
        self.maybe_checkpoint()?;
        Ok(stats)
    }

    /// Appends an isolated node. Rejected with [`ServeError::Quarantined`]
    /// while the handle is quarantined (rebuild first).
    pub fn add_node(&mut self) -> Result<u32, ServeError> {
        self.check_writable()?;
        if let Some(w) = self.wal.as_mut() {
            w.append_add_node()?;
        }
        self.last_seq += 1;
        self.ops_since_checkpoint += 1;
        let id = self.graph.add_node();
        let engine_id = self.engine.add_node();
        debug_assert_eq!(engine_id, id, "engine node-id drift");
        self.maybe_checkpoint()?;
        Ok(id)
    }

    /// The caller's result for an engine apply: its value, or — after an
    /// engine error or panic — a quarantine and the typed error.
    fn settle<T>(
        &mut self,
        outcome: std::thread::Result<Result<T, UpdateError>>,
    ) -> Result<T, ServeError> {
        match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(e)) => {
                self.quarantine();
                Err(ServeError::Update(e))
            }
            Err(_) => {
                self.quarantine();
                Err(ServeError::Panicked {
                    since_seq: self.last_seq,
                })
            }
        }
    }

    // ---- health & durability -------------------------------------------

    /// Health of the engine.
    pub fn health(&self) -> Health {
        self.health
    }

    /// The highest op sequence number accepted so far (the WAL's when one
    /// is attached).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Path of the attached write-ahead log, if the handle is durable.
    pub fn wal_path(&self) -> Option<&std::path::Path> {
        self.wal.as_ref().map(Wal::path)
    }

    fn check_writable(&self) -> Result<(), ServeError> {
        match self.health {
            Health::Healthy => Ok(()),
            Health::Quarantined { since_seq } => Err(ServeError::Quarantined {
                since_seq,
                retry_after: QUARANTINE_RETRY_AFTER,
            }),
        }
    }

    fn check_readable(&self) -> Result<(), ServeError> {
        match self.health {
            Health::Healthy => Ok(()),
            Health::Quarantined { since_seq } => Err(ServeError::Degraded { since_seq }),
        }
    }

    fn quarantine(&mut self) {
        if matches!(self.health, Health::Healthy) {
            self.health = Health::Quarantined {
                since_seq: self.last_seq,
            };
            self.quarantines_total += 1;
        }
    }

    /// Writes a checkpoint image when the op cadence is due (durable
    /// handles only).
    fn maybe_checkpoint(&mut self) -> Result<(), ServeError> {
        if self.ops_since_checkpoint < self.checkpoint_every {
            return Ok(());
        }
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let image = wal::checkpoint_image_for(&mut self.engine);
        w.append_checkpoint(&CheckpointRecord::new(self.last_seq, image))?;
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    /// Restores a quarantined engine from the write-ahead log (newest
    /// checkpoint + replay — see [`crate::wal::rebuild_engine`]) and
    /// marks the handle healthy again. Without a WAL the engine is
    /// recomputed from the authoritative graph instead. A fresh
    /// checkpoint is appended after a durable rebuild, so the *next*
    /// recovery replays a short suffix.
    ///
    /// Rebuilding a healthy handle is a no-op returning `Ok(())`.
    pub fn rebuild(&mut self) -> Result<(), ServeError> {
        if matches!(self.health, Health::Healthy) {
            return Ok(());
        }
        self.engine = match self.wal.as_mut() {
            Some(w) => {
                w.sync()?;
                let log = wal::read_log(w.path())?;
                let mut sim = wal::rebuild_engine(&self.builder, &log, None)?.sim;
                debug_assert_eq!(
                    sim.graph().node_count(),
                    self.graph.node_count(),
                    "rebuilt engine node-universe drift"
                );
                // Best-effort hygiene checkpoint: a failure here costs
                // only a longer replay next time (the log truncated back
                // to a consistent state).
                let image = wal::checkpoint_image_for(&mut sim);
                let _ = w.append_checkpoint(&CheckpointRecord::new(self.last_seq, image));
                sim
            }
            // No log: recompute from the authoritative graph, the best
            // reconstruction available without one.
            None => self.builder.clone().from_graph(self.graph.clone())?,
        };
        self.health = Health::Healthy;
        Ok(())
    }

    // ---- queries -------------------------------------------------------

    /// Similarity of one node pair, read in canonical `(min, max)` order
    /// so `pair(a, b) == pair(b, a)` holds bit-for-bit.
    ///
    /// # Panics
    /// Panics if either node is out of range; see [`Self::try_pair`].
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.engine.pair(a.min(b), a.max(b))
    }

    /// [`Self::pair`], returning `None` when either node is out of range
    /// instead of panicking.
    pub fn try_pair(&self, a: u32, b: u32) -> Option<f64> {
        let n = self.graph.node_count() as u32;
        (a < n && b < n).then(|| self.pair(a, b))
    }

    /// All similarities of node `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range; see [`Self::try_single_source`].
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.engine.single_source(a)
    }

    /// [`Self::single_source`], `None` when `a` is out of range.
    pub fn try_single_source(&self, a: u32) -> Option<Vec<RankedNode>> {
        ((a as usize) < self.graph.node_count()).then(|| self.single_source(a))
    }

    /// The `k` most similar nodes to `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range; see [`Self::try_top_k`].
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.engine.top_k(a, k)
    }

    /// [`Self::top_k`], `None` when `a` is out of range.
    pub fn try_top_k(&self, a: u32, k: usize) -> Option<Vec<RankedNode>> {
        ((a as usize) < self.graph.node_count()).then(|| self.top_k(a, k))
    }

    /// Nodes at least `threshold`-similar to `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.engine.similar_above(a, threshold)
    }

    // ---- checked reads --------------------------------------------------
    //
    // The plain query methods read the live engine as-is — on a
    // quarantined handle that state may be torn mid-update. The checked
    // variants refuse instead with a typed `ServeError::Degraded`; epoch
    // readers ([`ConcurrentSimRank`]) get the third option, the last
    // *published* pre-quarantine state.

    /// [`Self::pair`], refusing with [`ServeError::Degraded`] while the
    /// handle is quarantined.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn checked_pair(&self, a: u32, b: u32) -> Result<f64, ServeError> {
        self.check_readable()?;
        Ok(self.pair(a, b))
    }

    /// [`Self::single_source`], refusing with [`ServeError::Degraded`]
    /// while the handle is quarantined.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn checked_single_source(&self, a: u32) -> Result<Vec<RankedNode>, ServeError> {
        self.check_readable()?;
        Ok(self.single_source(a))
    }

    /// [`Self::top_k`], refusing with [`ServeError::Degraded`] while the
    /// handle is quarantined.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn checked_top_k(&self, a: u32, k: usize) -> Result<Vec<RankedNode>, ServeError> {
        self.check_readable()?;
        Ok(self.top_k(a, k))
    }

    // ---- maintenance & introspection -----------------------------------

    /// Materialises pending deferred ΔS; returns the rank-two terms
    /// applied.
    pub fn flush(&mut self) -> usize {
        self.engine.flush()
    }

    /// Recompresses pending deferred ΔS **in place** (see
    /// [`SimRank::compress`]): the serve-side alternative to
    /// [`Self::flush`] that keeps the lazy window open — epoch
    /// publication keeps snapshotting `S_base + Δ` factors, just fewer of
    /// them. Returns the pending rank that remains.
    pub fn compress_pending(&mut self) -> usize {
        self.engine.compress()
    }

    /// Pending deferred-ΔS rank (0 when fully materialised).
    pub fn pending_rank(&self) -> usize {
        self.engine.pending_rank()
    }

    /// Heap bytes of the pending deferred-ΔS buffer — the handle's
    /// memory-pressure signal (see [`SimRank::pending_heap_bytes`]).
    pub fn pending_heap_bytes(&self) -> usize {
        self.engine.pending_heap_bytes()
    }

    /// The engine's routing counters plus the handle's durability
    /// accounting (`wal_appends`, `checkpoints`, `quarantines`,
    /// `degraded_reads`); the engine carries `replayed_ops`.
    pub fn counters(&self) -> ModeCounters {
        let mut total = self.engine.counters();
        if let Some(w) = &self.wal {
            total.wal_appends += w.appends();
            total.checkpoints += w.checkpoints();
        }
        total.quarantines += self.quarantines_total;
        total.degraded_reads += self.degraded_reads.load(Ordering::Relaxed);
        total
    }

    /// Freezes the engine's current state into an [`Epoch`] with the
    /// given sequence number (the [`ConcurrentSimRank`] publish
    /// primitive; also useful stand-alone for consistent bulk exports).
    /// A matrix engine freezes `S_base + Δ` by sharing its base matrix
    /// (a pointer clone; the engine copies it on its next write) plus a
    /// copy of the pending factors; a matrix-free engine freezes its
    /// graph (`O(n + m)`) and answers from it — every engine publishes
    /// through the same engine-agnostic [`SnapshotQuery`] handle.
    ///
    /// A **quarantined** engine is never snapshotted: the view is carried
    /// over from `prev` (the last epoch published before the quarantine —
    /// reads of it come back [`ReadStatus::Degraded`]), or an all-zeros
    /// view when there is no previous epoch to freeze.
    pub fn snapshot_epoch(&self, seq: u64, prev: Option<&Epoch>) -> Epoch {
        let (view, degraded) = match (self.health, prev) {
            (Health::Healthy, _) => (self.engine.snapshot_query(), None),
            // Freeze n where the carried-over view froze it: ids appended
            // later read 0.0, never out-of-range.
            (Health::Quarantined { since_seq }, Some(p)) => (
                Arc::clone(&p.view),
                Some(DegradedInfo {
                    since_seq,
                    frozen_n: p.degraded.map_or(p.n, |d| d.frozen_n),
                }),
            ),
            (Health::Quarantined { since_seq }, None) => (
                Arc::new(ZeroView) as Arc<dyn SnapshotQuery>,
                Some(DegradedInfo {
                    since_seq,
                    frozen_n: 0,
                }),
            ),
        };
        Epoch {
            seq,
            n: self.graph.node_count(),
            view,
            degraded,
            degraded_reads: Arc::clone(&self.degraded_reads),
        }
    }
}

impl std::fmt::Debug for ShardedSimRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimRank")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("engine", &self.engine.engine_name())
            .field("durable", &self.wal.is_some())
            .field("health", &self.health)
            .finish()
    }
}

/// One published, immutable serving epoch: a frozen query handle
/// ([`SnapshotQuery`]: an owned `S_base + Δ` snapshot for matrix engines,
/// a frozen graph for the probe engine). Shared across reader threads
/// behind an `Arc`; every answer drawn from one `Epoch` value is mutually
/// consistent (the writer can never tear it).
#[derive(Clone, Debug)]
pub struct Epoch {
    seq: u64,
    n: usize,
    view: Arc<dyn SnapshotQuery>,
    /// `Some` when the view was carried over because the engine was
    /// quarantined at publish time.
    degraded: Option<DegradedInfo>,
    /// Shared handle counter, bumped per read served from a stale view.
    degraded_reads: Arc<AtomicU64>,
}

impl Epoch {
    /// The publish sequence number (0 = the epoch published at build).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Node count of the frozen state.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `Some` when the view is a stale carry-over from before a
    /// quarantine (reads of it are answered, marked
    /// [`ReadStatus::Degraded`], and counted).
    pub fn degraded(&self) -> Option<DegradedInfo> {
        self.degraded
    }

    /// Routes a read through the degradation state: bumps the shared
    /// counter and clamps ids past the frozen range (the view predates
    /// those nodes — similarity evidence for them never reached it, so
    /// they read as 0).
    fn route(&self, max_id: u32) -> (bool, ReadStatus) {
        match self.degraded {
            None => (true, ReadStatus::Fresh),
            Some(d) => {
                self.degraded_reads.fetch_add(1, Ordering::Relaxed);
                (
                    (max_id as usize) < d.frozen_n,
                    ReadStatus::Degraded {
                        since_seq: d.since_seq,
                    },
                )
            }
        }
    }

    /// Similarity of one node pair, in canonical argument order as in
    /// [`ShardedSimRank::pair`], so both orders read identically. A
    /// degraded epoch answers from its frozen pre-quarantine view — use
    /// [`Self::pair_with_status`] to observe that.
    ///
    /// # Panics
    /// Panics if either node is out of range; see [`Self::try_pair`].
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.pair_with_status(a, b).0
    }

    /// [`Self::pair`] plus the freshness of the answer: **never panics on
    /// a degraded epoch** — ids appended after the quarantine read 0.0
    /// from the frozen view instead of erroring.
    ///
    /// # Panics
    /// Panics if either node is out of range *of a fresh view*.
    pub fn pair_with_status(&self, a: u32, b: u32) -> (f64, ReadStatus) {
        let (in_range, status) = self.route(a.max(b));
        let v = if in_range {
            self.view.pair(a.min(b), a.max(b))
        } else {
            0.0
        };
        (v, status)
    }

    /// [`Self::pair`], `None` when either node is out of range.
    pub fn try_pair(&self, a: u32, b: u32) -> Option<f64> {
        let n = self.n() as u32;
        (a < n && b < n).then(|| self.pair(a, b))
    }

    /// All similarities of node `a` at this epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.single_source_with_status(a).0
    }

    /// [`Self::single_source`] plus freshness; a degraded answer covers
    /// only the frozen node range (empty when `a` itself postdates it).
    pub fn single_source_with_status(&self, a: u32) -> (Vec<RankedNode>, ReadStatus) {
        let (in_range, status) = self.route(a);
        let v = if in_range {
            self.view.single_source(a)
        } else {
            Vec::new()
        };
        (v, status)
    }

    /// The `k` most similar nodes to `a` at this epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range; see [`Self::try_top_k`].
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.top_k_with_status(a, k).0
    }

    /// [`Self::top_k`] plus freshness; a degraded answer covers only the
    /// frozen node range (empty when `a` itself postdates it).
    pub fn top_k_with_status(&self, a: u32, k: usize) -> (Vec<RankedNode>, ReadStatus) {
        let (in_range, status) = self.route(a);
        let v = if in_range {
            self.view.top_k(a, k)
        } else {
            Vec::new()
        };
        (v, status)
    }

    /// [`Self::top_k`], `None` when `a` is out of range.
    pub fn try_top_k(&self, a: u32, k: usize) -> Option<Vec<RankedNode>> {
        ((a as usize) < self.n()).then(|| self.top_k(a, k))
    }

    /// Nodes at least `threshold`-similar to `a` at this epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        if self.route(a).0 {
            self.view.similar_above(a, threshold)
        } else {
            Vec::new()
        }
    }
}

/// One entry of [`ConcurrentSimRank::epochs`]: an addressable epoch the
/// temporal ring can still answer queries at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    /// Publish sequence number — the address for [`ConcurrentSimRank::pair_at`].
    pub seq: u64,
    /// Caller-supplied stamp from [`ConcurrentSimRank::publish_stamped`]
    /// (the op sequence number at publish time for plain `publish`).
    pub stamp: u64,
    /// Op sequence number the epoch was published at.
    pub at_op: u64,
    /// Node count frozen at this epoch.
    pub n: usize,
    /// Heap bytes the ring holds *for* this epoch (factor deltas + replay
    /// ops; 0 for the head, which lives in the swap slot, not the ring).
    pub retained_bytes: usize,
}

/// One node pair's score movement between two epochs, as returned by
/// [`ConcurrentSimRank::top_movers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mover {
    /// Smaller node id of the pair.
    pub a: u32,
    /// Larger node id of the pair.
    pub b: u32,
    /// `S_{e2}[a,b] − S_{e1}[a,b]` in the caller's argument order.
    pub delta: f64,
}

/// Heap key for the bounded top-k scan in [`ConcurrentSimRank::top_movers`]:
/// ordered by |delta| (ties prefer the smaller `(a, b)` pair), with the
/// signed delta carried along outside the comparison.
struct MoverKey {
    mag: f64,
    a: u32,
    b: u32,
    delta: f64,
}

impl PartialEq for MoverKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MoverKey {}

impl Ord for MoverKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mag
            .total_cmp(&other.mag)
            .then_with(|| other.a.cmp(&self.a))
            .then_with(|| other.b.cmp(&self.b))
    }
}

impl PartialOrd for MoverKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How the ring retains one past epoch.
#[derive(Debug)]
enum RingDelta {
    /// Factor pairs of `S_next − S_this` (matrix engines): `O(n·r)` heap,
    /// reconstructed by stacking negated deltas onto the head's view.
    Dense(LowRankDelta),
    /// Matrix-free engine: nothing stored here — the epoch's engine graph
    /// is recovered by replaying the recorded op slices from the ring
    /// tail's graph and rebuilding the (deterministic) engine.
    Replay,
    /// The view was carried over unchanged (quarantine, or an epoch whose
    /// state is byte-identical to its successor): pin the `Arc` itself —
    /// shared, so it costs no extra heap.
    Pinned(Arc<dyn SnapshotQuery>),
    /// Crash-recovery placeholder: the persisted log could not carry this
    /// delta across the restart (the epoch was pinned or quarantined at
    /// persist time, or its recovery anchor could not be composed).
    /// Reconstruction through it reports [`ServeError::EpochChainBroken`];
    /// entries on the head side of it still answer.
    Broken,
}

impl RingDelta {
    /// The in-memory form of a persisted delta image.
    fn from_image(img: wal::DeltaImage) -> Self {
        match img {
            wal::DeltaImage::Dense(d) => RingDelta::Dense(d),
            wal::DeltaImage::Replay => RingDelta::Replay,
            wal::DeltaImage::Broken => RingDelta::Broken,
        }
    }

    /// The persisted form: a pinned `Arc` is this process's alias of
    /// another epoch's view, not serializable as a delta.
    fn to_image(&self) -> wal::DeltaImage {
        match self {
            RingDelta::Dense(d) => wal::DeltaImage::Dense(d.clone()),
            RingDelta::Replay => wal::DeltaImage::Replay,
            RingDelta::Pinned(_) | RingDelta::Broken => wal::DeltaImage::Broken,
        }
    }
}

/// One non-head epoch the ring retains, stored as material to rebuild it
/// from its successor (never as an `n²` copy).
#[derive(Debug)]
struct RetainedEpoch {
    seq: u64,
    stamp: u64,
    at_op: u64,
    n: usize,
    delta: RingDelta,
    degraded: Option<DegradedInfo>,
    /// Ops committed between this epoch and its successor, in commit
    /// order — the replay slice for a matrix-free engine, and the material
    /// [`ConcurrentSimRank`] uses to advance the tail graph on eviction.
    ops_to_next: Vec<ReplayOp>,
}

impl RetainedEpoch {
    fn retained_bytes(&self) -> usize {
        let factors = match &self.delta {
            RingDelta::Dense(d) => d.heap_bytes(),
            // Pinned shares the successor's Arc; Replay is priced by the
            // op slice below; Broken stores nothing.
            RingDelta::Replay | RingDelta::Pinned(_) | RingDelta::Broken => 0,
        };
        factors + self.ops_to_next.capacity() * std::mem::size_of::<ReplayOp>()
    }
}

/// Stamp metadata of the head epoch (the ring keeps it so the head can be
/// listed by [`ConcurrentSimRank::epochs`] and stamped into the ring when
/// the next publish displaces it).
#[derive(Debug, Clone, Copy)]
struct EpochMeta {
    stamp: u64,
    at_op: u64,
}

/// Whether a [`ConcurrentSimRank`]'s temporal ring covers epochs
/// published before this process incarnation (see
/// [`ConcurrentSimRank::history_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryStatus {
    /// Fresh build: every epoch ever published lives in this incarnation.
    Live,
    /// Recovered from a log with a persisted epoch ring: the listed
    /// number of pre-crash epochs (the displaced head included) were
    /// spliced back into the ring and answer time-travel reads again.
    Recovered {
        /// Pre-crash epochs rehydrated into the ring.
        epochs: usize,
    },
    /// Recovered head-only: the live state is intact, but pre-crash
    /// epochs cannot be addressed — queries for them report
    /// [`ServeError::HistoryUnavailable`] with this reason.
    Unavailable {
        /// Why the pre-crash history is gone.
        reason: &'static str,
    },
}

/// The effective dense score matrix behind a frozen matrix snapshot:
/// borrows the base when no ΔS is pending, materialises `S_base + Δ`
/// otherwise (the epoch-to-epoch diff needs true entries, not factors).
fn effective_matrix(ss: &ScoreSnapshot) -> Cow<'_, DenseMatrix> {
    let v = ss.view();
    if v.is_deferred() {
        Cow::Owned(v.materialise())
    } else {
        Cow::Borrowed(v.base())
    }
}

/// Rolls `g` forward through `ops`; `false` when a recorded op does not
/// apply (a bookkeeping bug, e.g. a write through
/// [`ConcurrentSimRank::sharded_mut`] that bypassed the recorder).
fn replay_into(g: &mut DiGraph, ops: &[ReplayOp]) -> bool {
    ops.iter().all(|op| match op {
        ReplayOp::AddNode => {
            g.add_node();
            true
        }
        ReplayOp::Edge(e) => e.apply(g).is_ok(),
    })
}

/// The swap slot shared between the writer and every reader. `RwLock` is
/// held only to clone or replace the `Arc` — queries run outside it.
struct EpochSlot {
    current: RwLock<Arc<Epoch>>,
}

impl EpochSlot {
    fn load(&self) -> Arc<Epoch> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn store(&self, epoch: Arc<Epoch>) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = epoch;
    }
}

/// The single-writer / many-reader serving handle: owns a
/// [`ShardedSimRank`] for the write path and publishes immutable
/// [`Epoch`]s for the read path. Build with
/// [`SimRankBuilder::concurrent`]; hand [`EpochReader`]s (cheap, `Clone +
/// Send + Sync`) to query threads.
///
/// Updates are **not** visible to readers until [`Self::publish`] runs —
/// that is the point: the writer batches freely, readers always see one
/// coherent state. See the [module docs](self) for the epoch semantics.
///
/// ## Temporal epoch ring
///
/// With [`SimRankBuilder::retain_epochs`]`(E)` set above 1, the last `E`
/// published epochs stay addressable: [`Self::pair_at`] /
/// [`Self::single_source_at`] / [`Self::top_k_at`] answer **as of** any
/// retained epoch, [`Self::epochs`] lists them, and [`Self::top_movers`]
/// diffs two of them. Only the head is kept dense; each older epoch is
/// stored as a factor-compressed delta against its successor (`O(n·r)`
/// heap per retained epoch — see [`Self::retained_heap_bytes`]) and
/// reconstructed on demand. A matrix-free engine is retained by **graph
/// replay** instead: the ring records the committed op slice between
/// epochs and rebuilds the (deterministic) engine at the requested epoch.
/// A reconstructed probe answer is then the one the epoch gave live:
/// ranked reads because they are exact functions of the graph, pair
/// reads because their substream is keyed by the pair under the same
/// seed.
pub struct ConcurrentSimRank {
    inner: ShardedSimRank,
    slot: Arc<EpochSlot>,
    seq: u64,
    /// Ring capacity: total addressable epochs, head included (≥ 1).
    retain: usize,
    /// Spectral drop tolerance for the per-epoch factor deltas.
    delta_tol: f64,
    /// Retained non-head epochs, oldest first (≤ `retain − 1` entries).
    ring: VecDeque<RetainedEpoch>,
    /// Stamp metadata of the current head epoch.
    head_meta: EpochMeta,
    /// Ops committed since the head epoch was published — becomes the
    /// displaced head's `ops_to_next` slice at the next publish.
    pending_ops: Vec<ReplayOp>,
    /// A matrix-free engine's graph at the ring's oldest retained epoch
    /// (`None` for a matrix engine, or after a replay failure poisoned
    /// the tail). Advanced forward on eviction.
    tail_graph: Option<DiGraph>,
    epochs_retained: u64,
    epoch_evictions: u64,
    epoch_reconstructions: AtomicU64,
    /// Whether pre-incarnation epochs are addressable (durable handles).
    history: HistoryStatus,
    /// Highest pre-crash epoch sequence the log named without being able
    /// to restore it: misses at or below this report
    /// [`ServeError::HistoryUnavailable`] instead of
    /// [`ServeError::NoSuchEpoch`] when `history` is `Unavailable`.
    history_floor: u64,
}

impl ConcurrentSimRank {
    /// Wraps a write path, publishing epoch 0 from its current state. A
    /// handle recovered from a log with a persisted epoch ring rehydrates
    /// the ring instead: the pre-crash epochs answer time-travel reads
    /// again, and the head is published *past* the pre-crash numbering
    /// (see [`Self::history_status`]).
    pub fn new(mut inner: ShardedSimRank) -> Self {
        let retain = inner.builder.retained_epochs();
        let delta_tol = inner.builder.epoch_delta_tolerance();
        let pending = inner.pending_history.take();
        // This incarnation numbers its epochs past the last sequence the
        // log still names, so recovered history (or its typed absence)
        // stays addressable without collisions.
        let (seq, history, history_floor) = match &pending {
            None => (0, HistoryStatus::Live, 0),
            Some(PendingHistory::Unavailable { reason, floor }) => (
                floor.saturating_add(1),
                HistoryStatus::Unavailable { reason },
                *floor,
            ),
            Some(PendingHistory::Ring { meta, deltas, .. }) => (
                meta.head_seq.saturating_add(1),
                HistoryStatus::Recovered {
                    epochs: deltas.len() + 1,
                },
                0,
            ),
        };
        let head = Arc::new(inner.snapshot_epoch(seq, None));
        let slot = Arc::new(EpochSlot {
            current: RwLock::new(Arc::clone(&head)),
        });
        let tail_graph =
            (retain > 1 && inner.engine.is_matrix_free()).then(|| inner.engine.graph().clone());
        let at_op = inner.last_seq();
        let mut srv = ConcurrentSimRank {
            inner,
            slot,
            seq,
            retain,
            delta_tol,
            ring: VecDeque::new(),
            head_meta: EpochMeta {
                stamp: at_op,
                at_op,
            },
            pending_ops: Vec::new(),
            tail_graph,
            epochs_retained: 0,
            epoch_evictions: 0,
            epoch_reconstructions: AtomicU64::new(0),
            history,
            history_floor,
        };
        if let Some(PendingHistory::Ring {
            meta,
            deltas,
            cp_scores,
            suffix_ops,
        }) = pending
        {
            srv.rehydrate_ring(&head, *meta, deltas, cp_scores.as_ref(), suffix_ops);
        }
        // A fresh durable build just wrote its base checkpoint at seq 0;
        // persist the ring round against it so retained history survives
        // a crash before the first cadence checkpoint.
        if srv.retain > 1 && srv.inner.last_seq == 0 && srv.inner.wal.is_some() {
            srv.persist_ring();
        }
        srv
    }

    /// Whether epochs published before this process incarnation are still
    /// addressable: [`HistoryStatus::Live`] for a fresh build,
    /// [`HistoryStatus::Recovered`] when the log's persisted epoch ring
    /// was rehydrated, [`HistoryStatus::Unavailable`] when recovery was
    /// head-only (a v1 log, or a torn/corrupt ring round).
    pub fn history_status(&self) -> HistoryStatus {
        self.history
    }

    /// Splices a recovered ring round back in: the persisted entries are
    /// adopted verbatim, and the persisted head becomes the newest ring
    /// entry — for a matrix engine its delta to the just-published live
    /// head is `anchor ⊕ suffix`, the anchor persisted with the round
    /// (head→checkpoint) and the suffix diffed here between the decoded
    /// checkpoint scores and the recovered live scores (checkpoint→live).
    fn rehydrate_ring(
        &mut self,
        head: &Epoch,
        meta: wal::EpochMetaRecord,
        deltas: Vec<wal::EpochDeltaRecord>,
        cp_scores: Option<&DenseMatrix>,
        suffix_ops: Vec<ReplayOp>,
    ) {
        let restored = deltas.len() as u64 + 1;
        for d in deltas {
            self.ring.push_back(RetainedEpoch {
                seq: d.seq,
                stamp: d.stamp,
                at_op: d.at_op,
                n: d.n,
                delta: RingDelta::from_image(d.delta),
                degraded: None,
                ops_to_next: d.ops,
            });
        }
        let delta = match meta.anchor {
            wal::DeltaImage::Dense(anchor) => {
                let head_n = head.view.n();
                let composed = cp_scores
                    .zip(head.view.score_snapshot())
                    .filter(|(cp, _)| cp.rows() <= head_n && anchor.dim() <= head_n)
                    .map(|(cp, live)| {
                        let live_eff = effective_matrix(live);
                        let (suffix, _) = LowRankDelta::between(cp, &live_eff, self.delta_tol);
                        let mut d = LowRankDelta::new(head_n);
                        d.extend(&anchor);
                        d.extend(&suffix);
                        d
                    });
                composed.map_or(RingDelta::Broken, RingDelta::Dense)
            }
            other => RingDelta::from_image(other),
        };
        let mut ops_to_next = meta.pending;
        ops_to_next.extend(suffix_ops);
        self.ring.push_back(RetainedEpoch {
            seq: meta.head_seq,
            stamp: meta.head_stamp,
            at_op: meta.head_at_op,
            n: meta.head_n,
            delta,
            degraded: None,
            ops_to_next,
        });
        self.epochs_retained += restored;
        self.tail_graph = meta.tail;
        // The current retention window may be narrower than the persisted
        // one (or the spliced head overflows it): evict from the tail,
        // advancing the matrix-free tail graph exactly as live eviction
        // does.
        self.evict_past_horizon();
    }

    /// A new reader handle. Readers are independent: clone one per
    /// thread, or clone the handle itself — both see every future epoch.
    pub fn reader(&self) -> EpochReader {
        EpochReader {
            slot: Arc::clone(&self.slot),
        }
    }

    /// Freezes the engine's current state into a new epoch and swaps it
    /// in; returns its sequence number. Pending lazy ΔS is snapshotted,
    /// not materialised. A quarantined engine keeps its last published
    /// view (readers keep being answered, marked
    /// [`ReadStatus::Degraded`]) — **an engine crash never takes reads
    /// down**.
    ///
    /// Stamps the epoch with the current op sequence number; use
    /// [`Self::publish_stamped`] to attach an external stamp (e.g. a
    /// wall-clock captured by the caller) instead.
    ///
    /// # Examples
    /// ```
    /// use incsim::api::SimRankBuilder;
    /// use incsim::core::SimRankConfig;
    /// use incsim::graph::DiGraph;
    ///
    /// let g = DiGraph::from_edges(5, &[(0, 2), (1, 2), (2, 3)]);
    /// let mut srv = SimRankBuilder::new()
    ///     .config(SimRankConfig::new(0.6, 8).unwrap())
    ///     .concurrent(g)
    ///     .unwrap();
    /// let reader = srv.reader();
    ///
    /// let before = reader.pair(2, 3);
    /// srv.insert(3, 4).unwrap();
    /// // Readers never see unpublished writes.
    /// assert_eq!(reader.pair(2, 3), before);
    /// let seq = srv.publish();
    /// assert_eq!(seq, 1);
    /// ```
    pub fn publish(&mut self) -> u64 {
        let stamp = self.inner.last_seq();
        self.publish_stamped(stamp)
    }

    /// [`Self::publish`] with a caller-supplied stamp recorded against the
    /// new epoch (surfaced by [`Self::epochs`]): the serving layer never
    /// reads a clock itself, so "when was this epoch published" is
    /// whatever notion of time the caller stamps in — a wall-clock, a
    /// transaction id, an upstream watermark.
    pub fn publish_stamped(&mut self, stamp: u64) -> u64 {
        self.seq += 1;
        // Build the epoch before touching the slot: readers keep serving
        // the old epoch during the freeze (a pointer clone of the
        // engine's matrix plus its pending factors) and only ever wait on
        // the pointer swap itself.
        let prev = self.slot.load();
        let epoch = Arc::new(self.inner.snapshot_epoch(self.seq, Some(&prev)));
        if self.retain > 1 {
            self.retain_previous(&prev, &epoch);
        } else {
            self.pending_ops.clear();
        }
        self.head_meta = EpochMeta {
            stamp,
            at_op: self.inner.last_seq(),
        };
        self.slot.store(epoch);
        self.seq
    }

    /// Compresses the displaced head epoch into the ring and evicts past
    /// the retention horizon.
    fn retain_previous(&mut self, prev: &Epoch, next: &Epoch) {
        // A carried-over (degraded) view, on either side, breaks the
        // "delta against successor" construction — pin the Arc instead
        // (shared with the epoch itself, so ~free).
        let carried = Arc::ptr_eq(&prev.view, &next.view)
            || prev.degraded.is_some()
            || next.degraded.is_some();
        let delta = if carried {
            RingDelta::Pinned(Arc::clone(&prev.view))
        } else if let (Some(ps), Some(ns)) =
            (prev.view.score_snapshot(), next.view.score_snapshot())
        {
            let from = effective_matrix(ps);
            let to = effective_matrix(ns);
            RingDelta::Dense(LowRankDelta::between(&from, &to, self.delta_tol).0)
        } else {
            RingDelta::Replay
        };
        self.ring.push_back(RetainedEpoch {
            seq: prev.seq(),
            stamp: self.head_meta.stamp,
            at_op: self.head_meta.at_op,
            n: prev.n(),
            delta,
            degraded: prev.degraded,
            ops_to_next: std::mem::take(&mut self.pending_ops),
        });
        self.epochs_retained += 1;
        self.evict_past_horizon();
    }

    /// Drops ring entries past the retention horizon, oldest first,
    /// rolling the matrix-free tail graph forward across each evicted
    /// epoch's op slice so it keeps mirroring the oldest *retained* epoch.
    fn evict_past_horizon(&mut self) {
        while self.ring.len() > self.retain.saturating_sub(1) {
            let Some(evicted) = self.ring.pop_front() else {
                break;
            };
            if let Some(g) = self.tail_graph.as_mut() {
                if !replay_into(g, &evicted.ops_to_next) {
                    // Poison the tail so reconstruction reports a typed
                    // Internal error instead of a wrong answer.
                    self.tail_graph = None;
                }
            }
            self.epoch_evictions += 1;
        }
    }

    /// Appends the just-committed edge ops to the pending replay slice
    /// (`committed` many, from `ops`): called by every write wrapper with
    /// the op count `last_seq` actually advanced by, so rejected writes
    /// record nothing.
    fn record_edges(&mut self, before: u64, ops: &[UpdateOp]) {
        if self.retain <= 1 {
            return;
        }
        let committed = (self.inner.last_seq() - before) as usize;
        debug_assert!(committed <= ops.len(), "committed more ops than offered");
        self.pending_ops
            .extend(ops.iter().take(committed).map(|&op| ReplayOp::Edge(op)));
    }

    /// Sequence number of the most recently published epoch.
    pub fn epoch_seq(&self) -> u64 {
        self.seq
    }

    /// The WAL's checkpoint counter before an inner call — the marker
    /// [`Self::persist_ring_if_checkpointed`] compares against.
    fn checkpoint_mark(&self) -> u64 {
        self.inner.wal.as_ref().map_or(0, Wal::checkpoints)
    }

    /// Persists the ring when the inner call just wrote a checkpoint
    /// (the counter moved): the epoch frames ride the same log, anchored
    /// to the image that checkpoint embedded.
    fn persist_ring_if_checkpointed(&mut self, mark: u64) {
        if self.retain > 1 && self.checkpoint_mark() > mark {
            self.persist_ring();
        }
    }

    /// Appends the temporal ring to the WAL alongside the checkpoint the
    /// write path just wrote: one delta frame per retained epoch plus the
    /// meta trailer — head stamps, the anchor from the head epoch's view
    /// to the live (checkpointed) state, the pending op slice, and the
    /// matrix-free tail graph. Best-effort: a failure costs pre-crash
    /// history at the next recovery, never the op stream.
    fn persist_ring(&mut self) {
        if self.retain <= 1 || self.inner.wal.is_none() {
            return;
        }
        let cp_seq = self.inner.last_seq;
        let head = self.slot.load();
        let engine = &self.inner.engine;
        let anchor = if self.inner.health != Health::Healthy || head.degraded.is_some() {
            wal::DeltaImage::Broken
        } else if engine.is_matrix_free() {
            wal::DeltaImage::Replay
        } else {
            // A pointer clone of the live matrix plus a copy of its
            // pending factors, not an n² copy.
            let live = engine.snapshot_query();
            match (head.view.score_snapshot(), live.score_snapshot()) {
                (Some(hs), Some(ls)) => {
                    let from = effective_matrix(hs);
                    let to = effective_matrix(ls);
                    wal::DeltaImage::Dense(LowRankDelta::between(&from, &to, self.delta_tol).0)
                }
                _ => wal::DeltaImage::Broken,
            }
        };
        let deltas: Vec<wal::EpochDeltaRecord> = self
            .ring
            .iter()
            .map(|e| wal::EpochDeltaRecord {
                cp_seq,
                seq: e.seq,
                stamp: e.stamp,
                at_op: e.at_op,
                n: e.n,
                delta: e.delta.to_image(),
                ops: e.ops_to_next.clone(),
            })
            .collect();
        let meta = wal::EpochMetaRecord {
            cp_seq,
            head_seq: head.seq(),
            head_stamp: self.head_meta.stamp,
            head_at_op: self.head_meta.at_op,
            head_n: head.n(),
            retain: self.retain,
            entries: deltas.len(),
            anchor,
            pending: self.pending_ops.clone(),
            tail: self.tail_graph.clone(),
        };
        if let Some(w) = self.inner.wal.as_mut() {
            let _ = w.append_epoch_ring(&deltas, &meta);
        }
    }

    /// Applies one update on the write path (readers unaffected until
    /// [`Self::publish`]).
    pub fn update(&mut self, op: UpdateOp) -> Result<Vec<UpdateStats>, ServeError> {
        let before = self.inner.last_seq();
        let mark = self.checkpoint_mark();
        let r = self.inner.update(op);
        self.record_edges(before, std::slice::from_ref(&op));
        self.persist_ring_if_checkpointed(mark);
        r
    }

    /// Inserts edge `(i, j)` on the write path.
    pub fn insert(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Insert(i, j))
    }

    /// Deletes edge `(i, j)` on the write path.
    pub fn remove(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Delete(i, j))
    }

    /// Appends an isolated node on the write path.
    pub fn add_node(&mut self) -> Result<u32, ServeError> {
        let before = self.inner.last_seq();
        let mark = self.checkpoint_mark();
        let r = self.inner.add_node();
        if self.retain > 1 && self.inner.last_seq() > before {
            self.pending_ops.push(ReplayOp::AddNode);
        }
        self.persist_ring_if_checkpointed(mark);
        r
    }

    /// Applies a batch on the write path (atomic; see
    /// [`ShardedSimRank::update_batch`]).
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, ServeError> {
        let before = self.inner.last_seq();
        let mark = self.checkpoint_mark();
        let r = self.inner.update_batch(ops);
        self.record_edges(before, ops);
        self.persist_ring_if_checkpointed(mark);
        r
    }

    /// [`ShardedSimRank::rebuild`] on the write path, followed by a
    /// publish so readers immediately leave the degraded view.
    pub fn rebuild(&mut self) -> Result<(), ServeError> {
        let mark = self.checkpoint_mark();
        self.inner.rebuild()?;
        self.publish();
        // The rebuild appended a hygiene checkpoint; re-anchor the ring
        // to it after the publish above so the persisted round sees the
        // post-rebuild head.
        self.persist_ring_if_checkpointed(mark);
        Ok(())
    }

    /// Materialises pending deferred ΔS **and publishes** the result as a
    /// new epoch (the one mutation that should always be immediately
    /// visible); returns the rank-two terms applied.
    pub fn flush(&mut self) -> usize {
        let pairs = self.inner.flush();
        self.publish();
        pairs
    }

    /// Recompresses pending deferred ΔS in place (no publish needed:
    /// compression changes no observable score, only the factor count
    /// behind future epochs). Returns the pending rank that remains.
    pub fn compress_pending(&mut self) -> usize {
        self.inner.compress_pending()
    }

    // ---- temporal (epoch-addressed) reads ------------------------------

    /// Every epoch the ring can still answer at, oldest first — the
    /// retained tail plus the head.
    pub fn epochs(&self) -> Vec<EpochInfo> {
        let mut out: Vec<EpochInfo> = self
            .ring
            .iter()
            .map(|e| EpochInfo {
                seq: e.seq,
                stamp: e.stamp,
                at_op: e.at_op,
                n: e.n,
                retained_bytes: e.retained_bytes(),
            })
            .collect();
        let head = self.slot.load();
        out.push(EpochInfo {
            seq: head.seq(),
            stamp: self.head_meta.stamp,
            at_op: self.head_meta.at_op,
            n: head.n(),
            retained_bytes: 0,
        });
        out
    }

    /// Heap bytes the temporal ring holds beyond the head epoch: factor
    /// deltas, replay op slices, and the matrix-free tail graph. This is
    /// the quantity [`SimRankBuilder::retain_epochs`] trades for
    /// time-travel — `O(E·n·r)`, not `O(E·n²)`.
    pub fn retained_heap_bytes(&self) -> usize {
        let ring: usize = self.ring.iter().map(RetainedEpoch::retained_bytes).sum();
        ring + self.tail_graph.as_ref().map_or(0, DiGraph::heap_bytes)
    }

    /// Pins epoch `seq` as a queryable [`Epoch`], reconstructing a
    /// retained one on demand: the head is returned as-is (zero cost), a
    /// ring epoch stacks its negated factor deltas onto the head's view
    /// (or replays its graph slice, for a matrix-free engine). Hold the
    /// result across a batch of queries — reconstruction is per-call, not
    /// cached.
    pub fn epoch_at(&self, seq: u64) -> Result<Arc<Epoch>, ServeError> {
        let head = self.slot.load();
        if seq == head.seq() {
            return Ok(head);
        }
        let Some(idx) = self.ring.iter().position(|e| e.seq == seq) else {
            return Err(self.missing_epoch(seq));
        };
        let entry = &self.ring[idx];
        let view = self.reconstruct(idx, &head)?;
        self.epoch_reconstructions.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Epoch {
            seq,
            n: entry.n,
            view,
            degraded: entry.degraded,
            degraded_reads: Arc::clone(&self.inner.degraded_reads),
        }))
    }

    /// The typed error for an epoch the ring cannot answer: a pre-crash
    /// sequence the log named but could not restore reports
    /// [`ServeError::HistoryUnavailable`]; everything else (never
    /// published, or aged out of the ring) reports
    /// [`ServeError::NoSuchEpoch`].
    fn missing_epoch(&self, seq: u64) -> ServeError {
        if let HistoryStatus::Unavailable { reason } = self.history {
            if seq <= self.history_floor {
                return ServeError::HistoryUnavailable { reason };
            }
        }
        ServeError::NoSuchEpoch { seq }
    }

    /// The view at ring index `idx`, rebuilt from the head.
    fn reconstruct(&self, idx: usize, head: &Epoch) -> Result<Arc<dyn SnapshotQuery>, ServeError> {
        let entry = &self.ring[idx];
        match &entry.delta {
            RingDelta::Pinned(v) => Ok(Arc::clone(v)),
            RingDelta::Broken => Err(ServeError::EpochChainBroken { seq: entry.seq }),
            RingDelta::Dense(_) => {
                // S_epoch = S_head − Σ (per-epoch deltas from here to the
                // head); each ring entry stores S_next − S_this, so the
                // negated stack of entries idx..end rolls the head back.
                let mut stack = LowRankDelta::new(head.view.n());
                for e in self.ring.iter().skip(idx) {
                    match &e.delta {
                        RingDelta::Dense(d) => stack.extend_negated(d),
                        _ => return Err(ServeError::EpochChainBroken { seq: entry.seq }),
                    }
                }
                Ok(Arc::new(DeltaSnapshot::new(
                    Arc::clone(&head.view),
                    stack,
                    entry.n,
                )))
            }
            RingDelta::Replay => {
                let Some(tail) = self.tail_graph.as_ref() else {
                    return Err(ServeError::Internal(
                        "replay tail graph missing or poisoned",
                    ));
                };
                // Roll the tail graph forward to this epoch, then rebuild
                // the engine: matrix-free snapshots are pure functions of
                // (graph, config), so this is seed-identical to the view
                // the epoch published live.
                let mut g = tail.clone();
                for e in self.ring.iter().take(idx) {
                    if !replay_into(&mut g, &e.ops_to_next) {
                        return Err(ServeError::Internal("recorded op failed to replay"));
                    }
                }
                let engine = self.inner.builder.clone().from_graph(g)?;
                Ok(engine.snapshot_query())
            }
        }
    }

    /// Similarity of one node pair **as of** retained epoch `seq` — the
    /// time-travel read. On the head epoch this is byte-identical to
    /// [`EpochReader::pair`].
    ///
    /// # Errors
    /// [`ServeError::NoSuchEpoch`] if `seq` is not retained.
    ///
    /// # Panics
    /// Panics if either node is out of range *at that epoch* (nodes born
    /// later are out of range in the past, exactly as they were live).
    ///
    /// # Examples
    /// ```
    /// use incsim::api::SimRankBuilder;
    /// use incsim::core::SimRankConfig;
    /// use incsim::graph::DiGraph;
    ///
    /// let g = DiGraph::from_edges(4, &[(0, 2), (1, 2)]);
    /// let mut srv = SimRankBuilder::new()
    ///     .config(SimRankConfig::new(0.6, 8).unwrap())
    ///     .retain_epochs(4)
    ///     .concurrent(g)
    ///     .unwrap();
    /// let e0 = srv.publish();
    /// let before = srv.reader().pair(0, 1);
    ///
    /// srv.insert(2, 3).unwrap();
    /// srv.publish();
    ///
    /// // The past stays addressable after the write is published.
    /// assert_eq!(srv.pair_at(0, 1, e0).unwrap(), before);
    /// ```
    pub fn pair_at(&self, a: u32, b: u32, seq: u64) -> Result<f64, ServeError> {
        Ok(self.epoch_at(seq)?.pair(a, b))
    }

    /// All similarities of node `a` as of retained epoch `seq` (see
    /// [`Self::pair_at`] for addressing and panics).
    pub fn single_source_at(&self, a: u32, seq: u64) -> Result<Vec<RankedNode>, ServeError> {
        Ok(self.epoch_at(seq)?.single_source(a))
    }

    /// The `k` most similar nodes to `a` as of retained epoch `seq` (see
    /// [`Self::pair_at`] for addressing and panics).
    pub fn top_k_at(&self, a: u32, k: usize, seq: u64) -> Result<Vec<RankedNode>, ServeError> {
        Ok(self.epoch_at(seq)?.top_k(a, k))
    }

    /// The `k` node pairs whose similarity moved the most between two
    /// retained epochs, by |Δ|, descending (ties prefer smaller ids);
    /// each [`Mover::delta`] is signed `S_{e2} − S_{e1}` in the caller's
    /// argument order. Only off-diagonal pairs over the earlier epoch's
    /// node range are scanned. `O(n²)` time via the stacked factor
    /// deltas, `O(k)` extra space — no past matrix is materialised.
    ///
    /// # Errors
    /// [`ServeError::NoSuchEpoch`] if either epoch is not retained;
    /// [`ServeError::MatrixFree`] if the engine is retained by replay
    /// (probe engines have no dense deltas to scan);
    /// [`ServeError::EpochChainBroken`] if a quarantine interrupted the
    /// delta chain between the two epochs.
    pub fn top_movers(&self, e1: u64, e2: u64, k: usize) -> Result<Vec<Mover>, ServeError> {
        let head = self.slot.load();
        let (lo, hi) = (e1.min(e2), e1.max(e2));
        let resolve = |seq: u64| -> Result<usize, ServeError> {
            if seq == head.seq() {
                return Ok(self.ring.len());
            }
            self.ring
                .iter()
                .position(|e| e.seq == seq)
                .ok_or_else(|| self.missing_epoch(seq))
        };
        let idx_lo = resolve(lo)?;
        let idx_hi = resolve(hi)?;
        if lo == hi || k == 0 {
            return Ok(Vec::new());
        }
        let n_at = |idx: usize| self.ring.get(idx).map_or(head.n(), |e| e.n);
        let (n_lo, n_hi) = (n_at(idx_lo), n_at(idx_hi));

        // Stack the negated deltas spanning [lo, hi): the stack reads as
        // S_lo − S_hi.
        let mut stack = LowRankDelta::new(n_hi);
        for e in self.ring.iter().take(idx_hi).skip(idx_lo) {
            match &e.delta {
                RingDelta::Dense(d) => stack.extend_negated(d),
                RingDelta::Replay => {
                    return Err(ServeError::MatrixFree {
                        query: "top_movers",
                    })
                }
                RingDelta::Pinned(_) | RingDelta::Broken => {
                    return Err(ServeError::EpochChainBroken { seq: lo })
                }
            }
        }

        // Caller-order sign: stack = S_lo − S_hi, the answer wants
        // S_e2 − S_e1.
        let dir = if e2 >= e1 { -1.0 } else { 1.0 };
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<MoverKey>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        let mut row = vec![0.0_f64; n_hi];
        for a in 0..n_lo as u32 {
            row.iter_mut().for_each(|x| *x = 0.0);
            stack.add_row_delta(a as usize, &mut row);
            for b in (a + 1)..n_lo as u32 {
                let delta = dir * row[b as usize];
                if delta == 0.0 {
                    continue;
                }
                let key = MoverKey {
                    mag: delta.abs(),
                    a,
                    b,
                    delta,
                };
                if heap.len() < k {
                    heap.push(std::cmp::Reverse(key));
                } else if let Some(min) = heap.peek() {
                    if key > min.0 {
                        heap.pop();
                        heap.push(std::cmp::Reverse(key));
                    }
                }
            }
        }
        let mut keys: Vec<MoverKey> = heap.into_iter().map(|r| r.0).collect();
        keys.sort_by(|x, y| y.cmp(x));
        Ok(keys
            .into_iter()
            .map(|kk| Mover {
                a: kk.a,
                b: kk.b,
                delta: kk.delta,
            })
            .collect())
    }

    /// Write-path counters plus the temporal ring's own: epochs retained,
    /// evictions past the horizon, and on-demand reconstructions.
    pub fn counters(&self) -> ModeCounters {
        let mut c = self.inner.counters();
        c.epochs_retained = self.epochs_retained;
        c.epoch_evictions = self.epoch_evictions;
        c.epoch_reconstructions = self.epoch_reconstructions.load(Ordering::Relaxed);
        c
    }

    /// The wrapped write path — fresh (unpublished) state, for the
    /// writer's own reads and introspection.
    pub fn sharded(&self) -> &ShardedSimRank {
        &self.inner
    }

    /// Mutable access to the wrapped write path (escape hatch; remember
    /// that readers only see published epochs, and that mutations through
    /// this handle bypass the temporal ring's op recorder — a matrix
    /// engine still diffs correctly at the next publish, but matrix-free
    /// replay reconstruction will no longer match and reports a typed
    /// error).
    pub fn sharded_mut(&mut self) -> &mut ShardedSimRank {
        &mut self.inner
    }
}

impl std::fmt::Debug for ConcurrentSimRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSimRank")
            .field("inner", &self.inner)
            .field("epoch_seq", &self.seq)
            .field("retain", &self.retain)
            .field("ring", &self.ring.len())
            .finish()
    }
}

/// A read handle onto the published epoch stream: `Clone + Send + Sync`,
/// one per reader thread. [`Self::epoch`] pins the current epoch (hold it
/// across a batch of queries — synchronise once, read thousands of
/// times); the convenience query methods re-fetch per call.
#[derive(Clone)]
pub struct EpochReader {
    slot: Arc<EpochSlot>,
}

impl EpochReader {
    /// The most recently published epoch, pinned: the returned `Arc`
    /// keeps answering from that one coherent state no matter how many
    /// epochs the writer publishes after.
    pub fn epoch(&self) -> Arc<Epoch> {
        self.slot.load()
    }

    /// Sequence number of the current epoch.
    pub fn seq(&self) -> u64 {
        self.epoch().seq()
    }

    /// Similarity of one node pair at the current epoch.
    ///
    /// # Panics
    /// Panics if either node is out of range; see [`Epoch::try_pair`].
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.epoch().pair(a, b)
    }

    /// All similarities of node `a` at the current epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.epoch().single_source(a)
    }

    /// The `k` most similar nodes to `a` at the current epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.epoch().top_k(a, k)
    }

    /// Nodes at least `threshold`-similar to `a` at the current epoch.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.epoch().similar_above(a, threshold)
    }
}

impl std::fmt::Debug for EpochReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochReader")
            .field("epoch_seq", &self.epoch().seq())
            .finish()
    }
}

/// Knobs for [`drive_load`].
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Reader threads issuing pair queries against pinned epochs.
    pub readers: usize,
    /// Measurement window.
    pub duration: std::time::Duration,
    /// Edge toggles per writer batch.
    pub write_batch: usize,
    /// Publish a fresh epoch every this many batches (a final epoch is
    /// always published when the window closes).
    pub publish_every: usize,
    /// Seed of the writer's toggle stream.
    pub seed: u64,
}

/// Outcome of one [`drive_load`] window.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Pair queries the readers answered.
    pub queries: u64,
    /// Edge toggles the writer applied.
    pub updates: usize,
    /// Epochs published over the handle's lifetime so far.
    pub epochs_published: u64,
    /// Actual window length (≥ the requested duration: the writer
    /// finishes its in-flight batch).
    pub elapsed_secs: f64,
}

impl LoadReport {
    /// Aggregate reader throughput.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / self.elapsed_secs.max(1e-12)
    }

    /// Writer throughput.
    pub fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / self.elapsed_secs.max(1e-12)
    }
}

/// The serving load driver shared by `bench-snapshot`'s
/// `concurrent_throughput` case and `incsim-cli serve`: `readers` threads
/// issue batches of 256 pair queries against pinned epochs (one
/// [`EpochReader::epoch`] per batch) while the writer applies
/// [`LoadOptions::write_batch`]-sized batches of random edge toggles over
/// the whole node range, publishing on the configured cadence and once
/// more when the window closes. Blocks until every thread has joined,
/// even on writer error.
///
/// # Panics
/// Panics if the graph has fewer than 2 nodes, or `readers`,
/// `write_batch` or `publish_every` is 0.
pub fn drive_load(
    serving: &mut ConcurrentSimRank,
    opts: &LoadOptions,
) -> Result<LoadReport, ServeError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = serving.sharded().graph().node_count();
    assert!(n >= 2, "drive_load: need at least two nodes");
    assert!(
        opts.readers > 0 && opts.write_batch > 0 && opts.publish_every > 0,
        "drive_load: readers, write_batch and publish_every must be positive"
    );

    let mut shadow = serving.sharded().graph().clone();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    // lint:allow(wallclock-in-kernel): drive_load is the load harness — wall time bounds the measurement window and reports qps; it never reaches a score
    let started = std::time::Instant::now();
    let mut updates = 0usize;
    let writer_result = std::thread::scope(|scope| {
        let _stop_on_exit = RaiseOnDrop(&stop);
        for t in 0..opts.readers {
            let reader = serving.reader();
            let (stop, queries) = (&stop, &queries);
            scope.spawn(move || {
                let mut acc = 0.0f64;
                let mut x = 0x2545F4914F6CDD1Du64.wrapping_add(t as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // One coherent epoch per batch of 256 queries.
                    let epoch = reader.epoch();
                    for _ in 0..256 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let a = ((x >> 33) as usize % n) as u32;
                        let b = ((x >> 13) as usize % n) as u32;
                        acc += epoch.pair(a, b);
                    }
                    local += 256;
                }
                queries.fetch_add(local, Ordering::Relaxed);
                std::hint::black_box(acc);
            });
        }

        // The writer. Errors break rather than return, so `stop` is
        // always raised and the readers always join.
        let mut batches = 0usize;
        let mut result = Ok(());
        while started.elapsed() < opts.duration {
            let ops = crate::datagen::updates::random_toggles_in(
                &mut shadow,
                0..n as u32,
                opts.write_batch,
                &mut rng,
            );
            if let Err(e) = serving.update_batch(&ops) {
                result = Err(e);
                break;
            }
            updates += ops.len();
            batches += 1;
            if batches % opts.publish_every == 0 {
                serving.publish();
            }
        }
        // Close the window with a published epoch so readers see the
        // final state even when it was too short for a full cadence.
        // (`_stop_on_exit` raises the stop flag as the closure returns.)
        serving.publish();
        result
    });
    writer_result?;
    Ok(LoadReport {
        queries: queries.load(std::sync::atomic::Ordering::Relaxed),
        updates,
        epochs_published: serving.epoch_seq(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ApplyPolicy, EngineKind};
    use crate::core::batch_simrank;

    fn fixture() -> DiGraph {
        DiGraph::from_edges(
            8,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 6),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        )
    }

    fn cfg() -> SimRankConfig {
        // K = 60: truncation ~0.6^61 ≈ 4e-14, far below the test bars.
        SimRankConfig::new(0.6, 60).unwrap()
    }

    #[test]
    fn handles_are_send_and_readers_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send::<ShardedSimRank>();
        assert_send::<ConcurrentSimRank>();
        assert_send_sync_clone::<EpochReader>();
        assert_send_sync_clone::<Arc<Epoch>>();
    }

    #[test]
    fn component_aligned_sharding_matches_batch_truth() {
        // Two 4-node components; updates stay within them.
        let g = fixture();
        let mut handle = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(cfg())
            .build_sharded(g)
            .unwrap();
        handle.insert(0, 3).unwrap();
        handle.remove(6, 7).unwrap();
        handle
            .update_batch(&[UpdateOp::Insert(4, 7), UpdateOp::Insert(1, 3)])
            .unwrap();
        let truth = batch_simrank(handle.graph(), handle.config());
        for a in 0..8u32 {
            for b in 0..8u32 {
                let got = handle.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() < 1e-10,
                    "pair ({a},{b}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn invalid_batch_is_rejected_atomically() {
        let mut handle = SimRankBuilder::new()
            .config(cfg())
            .build_sharded(fixture())
            .unwrap();
        let before_edges = handle.graph().edge_count();
        let err = handle
            .update_batch(&[
                UpdateOp::Insert(0, 1),
                UpdateOp::Insert(0, 2), // duplicate: already present
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Update(UpdateError::Graph(_))));
        // Nothing applied anywhere — not even the valid prefix.
        assert_eq!(handle.graph().edge_count(), before_edges);
        assert!(!handle.graph().has_edge(0, 1));
        assert!(!handle.engine().graph().has_edge(0, 1));
    }

    #[test]
    fn epoch_isolation_and_publish() {
        let mut serving = SimRankBuilder::new()
            .config(cfg())
            .concurrent(fixture())
            .unwrap();
        let reader = serving.reader();
        let e0 = reader.epoch();
        assert_eq!(e0.seq(), 0);
        let before = e0.pair(0, 1);

        serving.insert(0, 1).unwrap();
        // Unpublished: readers still see epoch 0, pinned or re-fetched.
        assert_eq!(reader.epoch().seq(), 0);
        assert_eq!(reader.pair(0, 1), before);

        let seq = serving.publish();
        assert_eq!(seq, 1);
        assert_eq!(reader.seq(), 1);
        // The pinned epoch still answers from its own frozen state.
        assert_eq!(e0.pair(0, 1), before);
        // The fresh epoch agrees with the writer's handle.
        assert_eq!(reader.pair(0, 1), serving.sharded().pair(0, 1));
    }

    #[test]
    fn flush_publishes_and_lazy_delta_travels_into_epochs() {
        let mut serving = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Lazy)
            .concurrent(fixture())
            .unwrap();
        serving.insert(0, 1).unwrap();
        serving.publish();
        let reader = serving.reader();
        assert!(
            serving.sharded().pending_rank() > 0,
            "lazy window still open"
        );
        // The epoch composes S_base + Δ without materialising.
        let truth = batch_simrank(serving.sharded().graph(), serving.sharded().config());
        assert!((reader.pair(0, 1) - truth.get(0, 1)).abs() < 1e-10);
        let seq_before = reader.seq();
        let pairs = serving.flush();
        assert!(pairs > 0);
        assert_eq!(serving.sharded().pending_rank(), 0);
        assert!(reader.seq() > seq_before, "flush publishes");
        assert!((reader.pair(0, 1) - truth.get(0, 1)).abs() < 1e-10);
    }

    #[test]
    fn absent_node_yields_none_not_panic() {
        let handle = SimRankBuilder::new()
            .config(cfg())
            .build_sharded(fixture())
            .unwrap();
        assert!(handle.try_pair(0, 1).is_some());
        assert!(handle.try_pair(0, 99).is_none());
        assert!(handle.try_pair(99, 0).is_none());
        assert!(handle.try_single_source(99).is_none());
        assert!(handle.try_top_k(99, 3).is_none());
        let serving = ConcurrentSimRank::new(handle);
        let epoch = serving.reader().epoch();
        assert!(epoch.try_pair(99, 0).is_none());
        assert!(epoch.try_top_k(99, 3).is_none());
    }

    #[test]
    fn counters_aggregate_across_shards() {
        // The handle reports the engine's routing counters plus its own
        // durability accounting, here without a log.
        let mut handle = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Fused)
            .build_sharded(fixture())
            .unwrap();
        handle.insert(0, 1).unwrap();
        handle.insert(1, 6).unwrap();
        handle.pair(0, 1);
        handle.pair(5, 6);
        let total = handle.counters();
        assert_eq!(total, handle.engine().counters());
        assert_eq!(total.fused_updates, 2);
        assert_eq!(total.queries, 2);
        assert_eq!(total.wal_appends + total.checkpoints + total.quarantines, 0);
    }

    #[test]
    fn recompressions_aggregate_across_shards_and_epochs_stay_exact() {
        let cfg = cfg();
        let mut serving = SimRankBuilder::new()
            .config(cfg)
            .mode(ApplyPolicy::Lazy)
            .compress_at_rank(cfg.iterations + 1)
            .concurrent(fixture())
            .unwrap();
        // The second update reaches the threshold, and the later ones
        // recompress again.
        for (i, j) in [(0u32, 1u32), (1, 3), (5, 7), (4, 5)] {
            serving.insert(i, j).unwrap();
        }
        let total = serving.sharded().counters();
        assert_eq!(
            total.recompressions,
            serving.sharded().engine().counters().recompressions
        );
        assert!(total.recompressions >= 2, "the window recompressed");
        assert_eq!(total.rank_cap_flushes, 0);
        assert!(serving.sharded().pending_rank() > 0, "window stays open");
        // Epochs publish the compressed factors; answers match truth.
        serving.publish();
        let reader = serving.reader();
        let truth = batch_simrank(serving.sharded().graph(), serving.sharded().config());
        for a in 0..8u32 {
            for b in 0..8u32 {
                let got = reader.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() < 1e-10,
                    "pair ({a},{b}): {got} vs {want}"
                );
            }
        }
        // The explicit serve-side compress keeps working afterwards.
        let rank = serving.compress_pending();
        assert!(rank <= serving.sharded().pending_rank().max(1));
    }

    #[test]
    fn add_node_grows_every_shard() {
        let mut handle = SimRankBuilder::new()
            .config(cfg())
            .build_sharded(fixture())
            .unwrap();
        let id = handle.add_node().unwrap();
        assert_eq!(id, 8);
        assert_eq!(handle.graph().node_count(), 9);
        assert_eq!(handle.engine().graph().node_count(), 9);
        assert!(handle.try_pair(8, 0).is_some());
        handle.insert(8, 2).unwrap();
        assert!(handle.pair(8, 8) > 0.0);
    }

    #[test]
    fn probe_shards_publish_epochs_without_a_matrix() {
        use crate::core::ProbeOptions;
        // Nodes 0 and 1 share in-neighbour 2, so s(0, 1) is the strong
        // pair; removing (2, 1) later knocks it down.
        let g = DiGraph::from_edges(
            7,
            &[
                (2, 0),
                (3, 0),
                (2, 1),
                (4, 1),
                (0, 5),
                (1, 5),
                (5, 6),
                (6, 2),
                (6, 3),
            ],
        );
        // K = 8 keeps pair walks short; R below is large enough that the
        // batch truth sits well inside the 0.05 pair tolerance declared by
        // the engine docs for this sample count. Ranked reads are exact.
        let cfg = SimRankConfig::new(0.6, 8).unwrap();
        let opts = ProbeOptions {
            pair_walks: 20_000,
            seed: 7,
        };
        let handle = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(cfg)
            .probe_options(opts)
            .build_sharded(g)
            .unwrap();
        assert!(handle.engine().is_matrix_free());
        assert_eq!(handle.pending_rank(), 0);

        let mut concurrent = ConcurrentSimRank::new(handle);
        let reader = concurrent.reader();
        let frozen = reader.epoch();
        assert_eq!(frozen.n(), 7);
        let truth = batch_simrank(concurrent.sharded().graph(), &cfg);
        let before = frozen.pair(0, 1);
        assert!(
            (before - truth.get(0, 1)).abs() < 0.05,
            "epoch pair (0,1): {before} vs {}",
            truth.get(0, 1)
        );
        assert_eq!(frozen.pair(0, 1), frozen.pair(1, 0));
        assert!(frozen.try_pair(99, 0).is_none());
        let ranked = frozen.top_k(0, 3);
        assert!(!ranked.is_empty() && ranked[0].node == 1);
        // Ranked reads are row 0 of the batch truth, within rounding.
        let assert_row0 = |rows: [Vec<RankedNode>; 3], truth: &DenseMatrix| {
            for row in rows {
                assert!(!row.is_empty());
                for r in row {
                    let want = truth.get(0, r.node as usize);
                    assert!((r.score - want).abs() < 1e-12, "{r:?} vs {want}");
                }
            }
        };
        assert_row0(
            [
                frozen.single_source(0),
                ranked,
                frozen.similar_above(0, 0.01),
            ],
            &truth,
        );

        // The engine applies each op as a plain graph edit.
        let stats = concurrent.insert(0, 6).unwrap();
        assert_eq!(stats.len(), 1);
        concurrent.remove(2, 1).unwrap();
        let seq = concurrent.publish();
        assert_eq!(seq, 1);

        // The pinned epoch still answers from the old topology…
        assert!((frozen.pair(0, 1) - before).abs() < 1e-12);
        // …while fresh epochs see the removal of 0 and 1's shared
        // in-neighbour evidence.
        let truth_after = batch_simrank(concurrent.sharded().graph(), &cfg);
        let after = reader.pair(0, 1);
        assert!(
            (after - truth_after.get(0, 1)).abs() < 0.05,
            "post-update pair (0,1): {after} vs {}",
            truth_after.get(0, 1)
        );
        assert!(before > after + 0.02);
        let fresh = reader.epoch();
        assert_row0(
            [
                fresh.single_source(0),
                fresh.top_k(0, 3),
                fresh.similar_above(0, 0.01),
            ],
            &truth_after,
        );

        // Counters: walk buckets only, never zero-stuffed apply modes.
        // (Epoch queries sample against their own frozen cores; hit the
        // live read path once so the engine's sampling tally moves.)
        let _ = concurrent.sharded().pair(0, 1);
        let c = concurrent.sharded().counters();
        assert_eq!(c.walk_updates, 2, "one insert, one remove");
        assert_eq!(c.eager_updates + c.fused_updates + c.lazy_updates, 0);
        assert!(c.walks_sampled > 0);
    }

    fn tmp_wal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "incsim_serve_test_{}_{name}.wal",
            std::process::id()
        ));
        p
    }

    #[test]
    fn panicking_shard_is_quarantined_and_batch_commits_elsewhere() {
        use crate::wal::faults::ApplyFaults;
        // The fault detonates inside the engine's apply of edge (4, 5).
        let faults = ApplyFaults::panic_on_edge(4, 5);
        let mut handle = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Eager)
            .fault_injection(Arc::clone(&faults))
            .build_sharded(fixture())
            .unwrap();
        let ops = [UpdateOp::Insert(0, 1), UpdateOp::Insert(4, 5)];
        let err = handle.update_batch(&ops).unwrap_err();
        assert!(matches!(err, ServeError::Panicked { since_seq: 2 }));
        assert!(faults.exhausted(), "the scheduled panic fired");

        // The authoritative graph committed the batch.
        assert!(handle.graph().has_edge(0, 1) && handle.graph().has_edge(4, 5));
        assert_eq!(handle.health(), Health::Quarantined { since_seq: 2 });
        assert_eq!(handle.counters().quarantines, 1);

        // Writes reject with the typed, retryable error, and checked
        // reads degrade instead of serving the torn engine state.
        let err = handle.insert(6, 5).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { since_seq: 2, .. }));
        assert!(matches!(
            handle.checked_pair(4, 5),
            Err(ServeError::Degraded { since_seq: 2 })
        ));
        assert!(matches!(
            handle.add_node(),
            Err(ServeError::Quarantined { .. })
        ));

        // Rebuild (no WAL here: recompute from the authoritative graph)
        // restores the engine and lifts the quarantine.
        handle.rebuild().unwrap();
        assert_eq!(handle.health(), Health::Healthy);
        handle.insert(6, 5).unwrap();
        let truth = batch_simrank(handle.graph(), &cfg());
        let diff = (handle.pair(4, 5) - truth.get(4, 5)).abs();
        assert!(diff < 1e-12, "rebuilt engine diverges: {diff}");
    }

    #[test]
    fn readers_survive_a_shard_crash_on_stale_epochs() {
        use crate::wal::faults::ApplyFaults;
        let faults = ApplyFaults::panic_on_edge(4, 5);
        let handle = SimRankBuilder::new()
            .config(cfg())
            .fault_injection(faults)
            .build_sharded(fixture())
            .unwrap();
        let mut serving = ConcurrentSimRank::new(handle);
        let reader = serving.reader();
        let before = reader.pair(4, 6);

        let err = serving.update_batch(&[UpdateOp::Insert(4, 5)]).unwrap_err();
        assert!(matches!(err, ServeError::Panicked { .. }));

        // Publishing while quarantined carries the last published view
        // over — readers never go down, answers are marked.
        serving.publish();
        let epoch = reader.epoch();
        assert!(epoch.degraded().is_some());
        let (v, status) = epoch.pair_with_status(4, 6);
        assert_eq!(v, before, "stale answer is the pre-crash epoch's");
        assert!(matches!(status, ReadStatus::Degraded { since_seq: 1 }));
        assert!(serving.sharded().counters().degraded_reads >= 1);

        // Rebuild + publish: readers leave the degraded view, and the
        // interrupted batch is there (it committed on the handle).
        serving.rebuild().unwrap();
        let epoch = reader.epoch();
        assert!(epoch.degraded().is_none());
        let (v_new, status) = epoch.pair_with_status(4, 6);
        assert!(matches!(status, ReadStatus::Fresh));
        let truth = batch_simrank(serving.sharded().graph(), &cfg());
        assert!((v_new - truth.get(4, 6)).abs() < 1e-12);
        assert!(serving.sharded().graph().has_edge(4, 5));
    }

    #[test]
    fn durable_router_recovers_from_its_log() {
        let path = tmp_wal("recover");
        let _ = std::fs::remove_file(&path);
        let durable = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Fused)
            .checkpoint_every(4)
            .wal(&path);

        let mut live = durable.clone().build_sharded(fixture()).unwrap();
        live.update_batch(&[UpdateOp::Insert(0, 1), UpdateOp::Insert(4, 5)])
            .unwrap();
        live.insert(1, 3).unwrap();
        live.add_node().unwrap(); // seq 4: cadence fires
        live.insert(8, 6).unwrap();
        let c = live.counters();
        assert_eq!(c.wal_appends, 5);
        assert_eq!(c.checkpoints, 2, "base image + one cadence image");
        assert_eq!(live.last_seq(), 5);
        assert_eq!(live.wal_path(), Some(path.as_path()));
        drop(live);

        // Re-opening the log overrides the supplied graph: the recovered
        // handle resumes exactly where the dropped one stopped.
        let recovered = durable.clone().build_sharded(fixture()).unwrap();
        assert_eq!(recovered.graph().node_count(), 9);
        assert!(recovered.graph().has_edge(8, 6));
        assert_eq!(recovered.last_seq(), 5);
        // Only the suffix after the newest checkpoint replays: seq 5.
        assert_eq!(recovered.counters().replayed_ops, 1);

        // Bit-identical to an uncrashed trajectory under a fixed policy.
        let mut truth = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Fused)
            .build_sharded(fixture())
            .unwrap();
        truth
            .update_batch(&[UpdateOp::Insert(0, 1), UpdateOp::Insert(4, 5)])
            .unwrap();
        truth.insert(1, 3).unwrap();
        truth.add_node().unwrap();
        truth.insert(8, 6).unwrap();
        for a in 0..9u32 {
            for b in a..9u32 {
                assert!(
                    recovered.pair(a, b) == truth.pair(a, b),
                    "recovered pair({a},{b}) drifted"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durable_ring_survives_restart() {
        let path = tmp_wal("ring");
        let _ = std::fs::remove_file(&path);
        let durable = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Eager)
            .retain_epochs(4)
            .checkpoint_every(4)
            .wal(&path);

        let mut live = durable.clone().concurrent(fixture()).unwrap();
        assert_eq!(live.history_status(), HistoryStatus::Live);
        live.insert(0, 1).unwrap();
        let e1 = live.publish();
        live.insert(4, 5).unwrap();
        let e2 = live.publish();
        live.insert(1, 3).unwrap();
        live.insert(5, 7).unwrap(); // op 4: cadence fires, ring persisted
        let pre: Vec<(u64, f64, f64)> = [0, e1, e2]
            .iter()
            .map(|&e| {
                (
                    e,
                    live.pair_at(0, 1, e).unwrap(),
                    live.pair_at(4, 5, e).unwrap(),
                )
            })
            .collect();
        let movers_pre = live.top_movers(0, e2, 3).unwrap();
        drop(live);

        let recovered = durable.clone().concurrent(fixture()).unwrap();
        assert_eq!(
            recovered.history_status(),
            HistoryStatus::Recovered { epochs: 3 },
            "two ring entries plus the displaced head rehydrate"
        );
        // The new head numbers past the pre-crash epochs…
        assert_eq!(recovered.epoch_seq(), e2 + 1);
        let listed: Vec<u64> = recovered.epochs().iter().map(|e| e.seq).collect();
        assert_eq!(listed, vec![0, e1, e2, e2 + 1]);
        // …and every retained epoch answers within the trajectory gate.
        for &(e, p01, p45) in &pre {
            let r01 = recovered.pair_at(0, 1, e).unwrap();
            let r45 = recovered.pair_at(4, 5, e).unwrap();
            assert!(
                (r01 - p01).abs() <= 1e-12 && (r45 - p45).abs() <= 1e-12,
                "epoch {e} drifted across restart: ({r01}, {r45}) vs ({p01}, {p45})"
            );
        }
        let movers_post = recovered.top_movers(0, e2, 3).unwrap();
        assert_eq!(movers_pre.len(), movers_post.len());
        for (a, b) in movers_pre.iter().zip(&movers_post) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert!((a.delta - b.delta).abs() <= 1e-12);
        }
        // The recovered head matches an uncrashed write path exactly.
        let truth = batch_simrank(recovered.sharded().graph(), &cfg());
        let head = recovered.reader().pair(1, 3);
        assert!((head - truth.get(1, 3)).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durable_ring_replays_probe_shards_seed_identical() {
        let path = tmp_wal("ring_probe");
        let _ = std::fs::remove_file(&path);
        let durable = SimRankBuilder::new()
            .config(cfg())
            .algorithm(EngineKind::Probe)
            .retain_epochs(3)
            .checkpoint_every(3)
            .wal(&path);

        let mut live = durable.clone().concurrent(fixture()).unwrap();
        live.insert(0, 1).unwrap();
        let e1 = live.publish();
        live.insert(4, 5).unwrap();
        live.insert(1, 3).unwrap(); // op 3: cadence fires, ring persisted
        let pre_e0 = live.pair_at(0, 1, 0).unwrap();
        let pre_e1 = live.pair_at(4, 6, e1).unwrap();
        drop(live);

        let recovered = durable.clone().concurrent(fixture()).unwrap();
        assert_eq!(
            recovered.history_status(),
            HistoryStatus::Recovered { epochs: 2 }
        );
        // The probe engine rehydrates by graph replay under the pinned
        // seed: recovered answers are bit-identical, not just close.
        assert_eq!(recovered.pair_at(0, 1, 0).unwrap(), pre_e0);
        assert_eq!(recovered.pair_at(4, 6, e1).unwrap(), pre_e1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_a_nonempty_log_skips_the_precompute() {
        let path = tmp_wal("reopen_precompute");
        let _ = std::fs::remove_file(&path);
        let durable = SimRankBuilder::new().config(cfg()).wal(&path);
        let precomputes = std::cell::Cell::new(0);
        let build = || {
            ShardedSimRank::build_internal(durable.clone(), fixture(), |g| {
                precomputes.set(precomputes.get() + 1);
                Some(batch_simrank(g, &cfg()))
            })
        };

        // A fresh log records the precomputed base as its checkpoint.
        let mut live = build().unwrap();
        assert_eq!(precomputes.get(), 1);
        live.insert(0, 1).unwrap();
        live.insert(4, 5).unwrap();
        let before = live.pair(0, 1);
        drop(live);

        // The reopen rebuilds from that checkpoint plus replay, and never
        // runs the precompute it would throw away.
        let reopened = build().unwrap();
        assert_eq!(precomputes.get(), 1, "the reopen ran the precompute");
        assert!(reopened.graph().has_edge(0, 1) && reopened.graph().has_edge(4, 5));
        assert!((reopened.pair(0, 1) - before).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn log_without_epoch_frames_recovers_head_only() {
        let path = tmp_wal("ring_v1");
        let _ = std::fs::remove_file(&path);
        // Written by a retention-off (ring-less) configuration: ops and
        // checkpoints only, exactly the shape of a pre-ring (v1) log.
        let plain = SimRankBuilder::new()
            .config(cfg())
            .checkpoint_every(4)
            .wal(&path);
        let mut live = plain.clone().build_sharded(fixture()).unwrap();
        live.insert(0, 1).unwrap();
        live.insert(4, 5).unwrap();
        drop(live);

        let recovered = plain
            .clone()
            .retain_epochs(3)
            .concurrent(fixture())
            .unwrap();
        let HistoryStatus::Unavailable { reason } = recovered.history_status() else {
            panic!("head-only recovery must be typed as Unavailable");
        };
        // The head answers; the pre-crash epoch space reports the typed
        // loss instead of pretending the epoch never existed.
        let head_seq = recovered.epoch_seq();
        assert_eq!(head_seq, 1, "numbering starts past the unknown history");
        recovered.pair_at(0, 1, head_seq).unwrap();
        match recovered.pair_at(0, 1, 0) {
            Err(ServeError::HistoryUnavailable { reason: r }) => assert_eq!(r, reason),
            other => panic!("expected HistoryUnavailable, got {other:?}"),
        }
        // Sequences never published in any incarnation stay NoSuchEpoch.
        assert!(matches!(
            recovered.pair_at(0, 1, 99),
            Err(ServeError::NoSuchEpoch { seq: 99 })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
