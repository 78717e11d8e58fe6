//! The `incsim` **serving layer**: shard the node set across engines,
//! serve reads from immutable epoch snapshots.
//!
//! The [`crate::api::SimRank`] handle is the single-node service surface;
//! this module is the scaling step on top of it, in two composable
//! pieces:
//!
//! * [`ShardedSimRank`] — a **router** over `N` per-shard engines (each
//!   its own `Box<dyn SimRankMaintainer + Send>` behind a
//!   [`SimRank`] handle, built by the same
//!   [`SimRankBuilder`]). The node set is block-partitioned; updates are
//!   routed to the shard(s) owning their endpoints, queries to the shard
//!   owning the query node. [`ApplyPolicy`](crate::api::ApplyPolicy)
//!   (including `Auto`) keeps working independently per shard, and batch
//!   updates fan out across shards in parallel.
//! * [`ConcurrentSimRank`] — a **single-writer / many-reader** wrapper:
//!   readers query an immutable epoch snapshot ([`Epoch`], an
//!   `Arc`-parked [`SnapshotQuery`] handle per shard — a frozen score
//!   matrix for dense engines, a frozen graph for the probe engine)
//!   through cloneable
//!   [`EpochReader`] handles, while the one writer applies updates and
//!   [publishes](ConcurrentSimRank::publish) new epochs. Readers never
//!   block the writer and never observe a half-applied update: a reader
//!   holds one coherent epoch for as long as it likes.
//!
//! ## Partitioning and the exactness contract
//!
//! Nodes are partitioned into contiguous blocks by id: with `n₀` nodes at
//! build time and `S` shards, shard `s` owns ids
//! `[s·⌈n₀/S⌉, (s+1)·⌈n₀/S⌉)` (the last shard also owns any ids appended
//! later via [`ShardedSimRank::add_node`]). Every shard engine spans the
//! **full** node set — partitioning routes *work*, not matrix indices —
//! and is seeded with the same batch-computed initial scores — one shared
//! buffer that each shard copies on its first write (matrix-free shards
//! skip the batch solve and hold only the graph).
//!
//! Routing rules:
//!
//! * an edge update `(i, j)` is applied to `owner(i)` and `owner(j)`
//!   (once, when they coincide);
//! * a pair query `s(a, b)` is answered by `owner(min(a, b))` — both
//!   orders of the same pair hit the same shard, so
//!   `pair(a, b) == pair(b, a)` holds **exactly**, always;
//! * per-node queries (`single_source`, `top_k`, `similar_above`) are
//!   answered by `owner(a)`.
//!
//! **Contract.** Each shard engine is *exact for the update stream it
//! receives* — the initial graph plus every update touching a node it
//! owns. Its answers therefore equal global SimRank exactly whenever the
//! updates it did **not** see cannot influence the scores it serves; the
//! clean sufficient condition is a **component-aligned partition**: every
//! weakly-connected component of the evolving graph stays within one
//! shard's ownership block (SimRank between nodes of different components
//! is identically 0, and no in-link path crosses components). The
//! conformance suite and the `concurrent_throughput` bench drive exactly
//! such workloads and hold the router to ≤ 1e-12 of batch recomputation.
//! For partitions that split a component, per-shard answers are exact
//! SimRank *of the shard's observed subgraph* — a documented
//! approximation (each missed remote update perturbs scores by at most
//! `C^d` at in-link distance `d`), not silent corruption; align the
//! partition when exactness across the cut matters.
//!
//! ## Epoch semantics
//!
//! [`ConcurrentSimRank`] decouples reads from writes with epochs:
//!
//! * the writer mutates shard engines freely; **readers are unaffected**
//!   (they hold the previously published epoch);
//! * [`ConcurrentSimRank::publish`] freezes every shard's current
//!   `S_base + Δ` into a new [`Epoch`] and swaps it in atomically
//!   (readers pick it up on their next [`EpochReader::epoch`] call);
//! * a dense shard's epoch **shares** the engine's score matrix rather
//!   than copying it: publishing costs a pointer clone, and the engine
//!   copies the matrix only when it next writes to it (copy-on-write; see
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
//! A router built with [`SimRankBuilder::wal`] is **durable**: every
//! accepted op is appended (write-ahead) to an [`crate::wal`] log before
//! any engine applies it, with periodic full-image checkpoints on the
//! [`SimRankBuilder::checkpoint_every`] cadence
//! ([`DEFAULT_CHECKPOINT_EVERY`]). Re-opening the same log rebuilds the
//! router exactly where the crashed process stopped — checkpoint +
//! shard-filtered replay, torn tails truncated, see the [`crate::wal`]
//! docs for the recovery contract.
//!
//! Failures inside one shard are **contained**, durable or not: each
//! shard's apply runs under `catch_unwind`, so a panicking engine
//! quarantines that shard ([`ShardHealth::Quarantined`]) instead of
//! killing the process. While quarantined:
//!
//! * writes routing to the shard are rejected with the retryable
//!   [`ServeError::Quarantined`] (bounded backoff hint attached);
//!   writes on healthy shards keep flowing;
//! * checked reads return [`ServeError::Degraded`]; epoch readers keep
//!   being served the shard's last **published** view, marked
//!   [`ReadStatus::Degraded`] — a shard crash never takes reads down;
//! * [`ShardedSimRank::rebuild_shard`] restores the shard from
//!   checkpoint + replay (or batch recompute without a WAL) and lifts
//!   the quarantine.
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
//!     .shards(2)
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

/// Default checkpoint cadence of a durable router: a full engine image is
/// embedded in the WAL after every this many logged ops (override with
/// [`SimRankBuilder::checkpoint_every`]).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// The backoff hint attached to writes rejected because their shard is
/// quarantined: callers should wait at least this long (rebuilding takes
/// one checkpoint decode + replay) before retrying or give up to a
/// different replica.
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
    /// The op itself is invalid, or an engine failed it (routed through
    /// from the shard engines / validation).
    Update(UpdateError),
    /// The write-ahead log rejected the append — write-ahead ordering
    /// means nothing was applied.
    Wal(WalError),
    /// The write routes to a quarantined shard and was applied **nowhere**;
    /// retryable after `retry_after` (rebuild the shard first, or wait for
    /// an operator to).
    Quarantined {
        /// The quarantined shard.
        shard: usize,
        /// Log sequence number at which it was quarantined.
        since_seq: u64,
        /// Bounded backoff hint.
        retry_after: Duration,
    },
    /// A shard worker panicked mid-apply. The panicking shard is now
    /// quarantined; every *healthy* shard's application and the router
    /// graph **did commit** (the batch is in the log, so the quarantined
    /// shard recovers it on rebuild).
    ShardPanicked {
        /// The shard that panicked.
        shard: usize,
        /// Log sequence number at which it was quarantined.
        since_seq: u64,
    },
    /// A shard rebuild failed to reconstruct its engine.
    Build(BuildError),
    /// A checked read routed to a quarantined shard: the live engine is
    /// not trustworthy, so no fresh answer exists. Epoch readers keep
    /// being served the last published state with a
    /// [`ReadStatus::Degraded`] marker instead.
    Degraded {
        /// The quarantined shard.
        shard: usize,
        /// Log sequence number at which it was quarantined.
        since_seq: u64,
    },
    /// The requested epoch is not the head and not in the retention ring —
    /// either it was never published, or it aged out (the ring keeps the
    /// last [`SimRankBuilder::retain_epochs`] epochs).
    NoSuchEpoch {
        /// The requested epoch sequence number.
        seq: u64,
    },
    /// The query needs dense per-epoch score deltas, but at least one shard
    /// in the requested range is matrix-free (retained by graph replay, not
    /// factor deltas), so the cross-epoch scan cannot run.
    MatrixFree {
        /// The query that was refused.
        query: &'static str,
    },
    /// The delta chain from the requested epoch to the head is broken for
    /// one shard: a quarantine (or other non-delta retention) interrupted
    /// the factor-compressed chain, so that epoch's shard view cannot be
    /// reconstructed by stacking deltas.
    EpochChainBroken {
        /// The requested epoch sequence number.
        seq: u64,
        /// The shard whose chain is interrupted.
        shard: usize,
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
    /// An internal router invariant failed. This reports a bug, not an
    /// operational state — the router refuses the broken path with a
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
                shard,
                since_seq,
                retry_after,
            } => write!(
                f,
                "shard {shard} is quarantined (since seq {since_seq}); \
                 retry after {retry_after:?} or rebuild_shard({shard})"
            ),
            ServeError::ShardPanicked { shard, since_seq } => write!(
                f,
                "shard {shard} panicked mid-apply and is quarantined (seq {since_seq}); \
                 healthy shards committed"
            ),
            ServeError::Build(e) => write!(f, "shard rebuild failed: {e}"),
            ServeError::Degraded { shard, since_seq } => write!(
                f,
                "shard {shard} is quarantined (since seq {since_seq}); \
                 no fresh answer — epoch readers serve the last published state"
            ),
            ServeError::NoSuchEpoch { seq } => write!(
                f,
                "epoch {seq} is not retained (evicted from the ring or never published)"
            ),
            ServeError::MatrixFree { query } => write!(
                f,
                "{query} needs dense per-epoch deltas; a shard in range is matrix-free"
            ),
            ServeError::EpochChainBroken { seq, shard } => write!(
                f,
                "delta chain to epoch {seq} is broken at shard {shard} \
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

/// Liveness of one shard engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// A mid-apply panic (or engine error) left this shard's engine in an
    /// untrusted state: writes to it are rejected, checked reads report
    /// [`ServeError::Degraded`], epochs freeze its last published view.
    /// [`ShardedSimRank::rebuild_shard`] restores it.
    Quarantined {
        /// Log sequence number at quarantine time.
        since_seq: u64,
    },
}

/// Why an epoch read of a quarantined shard is stale — attached to the
/// epoch at publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedInfo {
    /// Log sequence number at which the owning shard was quarantined.
    pub since_seq: u64,
    /// Node count of the frozen view; ids appended after the quarantine
    /// read as 0.0 (no similarity evidence ever reached the frozen view).
    pub frozen_n: usize,
}

/// Freshness of an epoch read — [`ReadStatus::Degraded`] answers come
/// from the last epoch published before the owning shard was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// Served from the shard's current published state.
    Fresh,
    /// Served from the stale pre-quarantine view.
    Degraded {
        /// The quarantined shard.
        shard: usize,
        /// Log sequence number at which it was quarantined.
        since_seq: u64,
    },
}

/// The all-zeros fallback view for a shard quarantined before any epoch
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

/// Worker count for the serving layer's parallel paths (per-shard batch
/// dispatch, reader pools in the harnesses): `INCSIM_THREADS` when set,
/// otherwise the host parallelism — same knob as the fused apply.
pub fn serve_threads() -> usize {
    crate::linalg::lowrank::default_threads()
}

/// A substitute panic payload for every shard of a group whose *worker
/// thread* died outside the per-shard `catch_unwind` (the one payload
/// cannot be cloned per shard). Carries the original message when it was
/// a string, so quarantine diagnostics stay useful.
fn clone_panic(payload: &(dyn std::any::Any + Send)) -> Box<dyn std::any::Any + Send> {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        Box::new(*s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Box::new(s.clone())
    } else {
        Box::new("group worker panicked outside the per-shard catch_unwind")
    }
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

/// The block partition of node ids across shards (see the
/// [module docs](self) for the ownership rules and exactness contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    shards: usize,
    block: usize,
}

impl ShardPartition {
    /// Partitions `n` initial nodes across `shards` contiguous blocks
    /// (`shards` is clamped to ≥ 1; a shard count above `n` leaves the
    /// high shards owning no nodes, which is legal).
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardPartition {
            shards,
            block: n.div_ceil(shards).max(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The block size: `owner(x) = min(x / block, shards - 1)`. Stored in
    /// WAL checkpoint records so shard-filtered replay uses the partition
    /// geometry the ops were routed under.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The shard owning node `v`. Ids past the initial range (appended
    /// nodes) fall to the last shard.
    pub fn owner(&self, v: u32) -> usize {
        (v as usize / self.block).min(self.shards - 1)
    }

    /// The shard answering pair queries on `{a, b}`: the owner of the
    /// smaller id, so both argument orders route identically and pair
    /// symmetry is structural.
    pub fn pair_owner(&self, a: u32, b: u32) -> usize {
        self.owner(a.min(b))
    }

    /// The contiguous id range shard `s` owns in an `n`-node graph
    /// (possibly empty when `s` exceeds the populated blocks; the last
    /// shard also owns every id appended past the initial range).
    pub fn owned_block(&self, s: usize, n: usize) -> std::ops::Range<u32> {
        let start = (s * self.block).min(n) as u32;
        let end = if s + 1 == self.shards {
            n as u32
        } else {
            ((s + 1) * self.block).min(n) as u32
        };
        start..end.max(start)
    }
}

/// What recovery learned about the pre-crash temporal epoch ring,
/// stashed on the router for [`ConcurrentSimRank::new`] to consume (the
/// router itself has no ring — the concurrent wrapper owns it).
enum PendingHistory {
    /// A complete persisted ring round was recovered: the meta trailer,
    /// its delta records, per matrix shard the dense scores decoded from
    /// that round's checkpoint images (the base the post-checkpoint
    /// replay suffix is diffed against), and the unfiltered op suffix
    /// committed after the round's checkpoint.
    Ring {
        meta: wal::EpochMetaRecord,
        deltas: Vec<wal::EpochDeltaRecord>,
        cp_scores: Vec<Option<DenseMatrix>>,
        suffix_ops: Vec<ReplayOp>,
    },
    /// No usable ring in the log: recover head-only. `floor` is the
    /// pre-crash head publish sequence when the log still names one (a
    /// readable meta trailer), so the new incarnation numbers past it
    /// and queries at or below it report the loss.
    Unavailable { reason: &'static str, floor: u64 },
}

/// A router over `N` per-shard engines: same service surface as
/// [`SimRank`], scaled across shards. Build with
/// [`SimRankBuilder::shards`] + [`SimRankBuilder::build_sharded`].
///
/// The router keeps the authoritative global graph; updates are validated
/// against it *before* touching any shard, so an invalid op (duplicate
/// insert, missing delete, node out of range) is rejected atomically and
/// a batch is all-or-nothing. See the [module docs](self) for routing and
/// exactness.
pub struct ShardedSimRank {
    shards: Vec<SimRank>,
    partition: ShardPartition,
    graph: DiGraph,
    /// The builder the shards were made from — rebuilds reuse it.
    builder: SimRankBuilder,
    health: Vec<ShardHealth>,
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
    /// Builds the router from a builder, a graph, and pre-computed scores
    /// (every shard shares the one matrix until its first write;
    /// [`EngineKind::IncSvd`] shards derive their own factorisation as
    /// usual, and matrix-free kinds ignore the matrix — prefer
    /// [`SimRankBuilder::build_sharded`](crate::api::SimRankBuilder::build_sharded)
    /// for those, which never allocates it in the first place).
    ///
    /// [`EngineKind::IncSvd`]: crate::api::EngineKind::IncSvd
    pub fn with_scores(
        builder: SimRankBuilder,
        graph: DiGraph,
        scores: DenseMatrix,
    ) -> Result<Self, BuildError> {
        Self::build_internal(builder, graph, |_| Some(scores))
    }

    /// Shared construction. `scores` yields the initial matrix, or `None`
    /// to let each shard build on its own (matrix-free shards never see an
    /// `n²` buffer). Every matrix shard gets a pointer to the one matrix
    /// and copies it only on its first write. `scores` runs only once the
    /// write-ahead log, if any, is found empty: a non-empty log rebuilds
    /// every shard from its own checkpoints, so a precompute there would
    /// be thrown away.
    pub(crate) fn build_internal(
        builder: SimRankBuilder,
        graph: DiGraph,
        scores: impl FnOnce(&DiGraph) -> Option<DenseMatrix>,
    ) -> Result<Self, BuildError> {
        // Durable routers attach the write-ahead log first: an existing
        // non-empty log is the authoritative history and *overrides* the
        // supplied graph (`serve --wal` reopens exactly where the crashed
        // process stopped); a fresh log records the supplied state as its
        // global base checkpoint.
        let mut wal = None;
        if let Some(path) = builder.wal_path() {
            let (w, recovered) = Wal::open_or_create(path)?;
            if let Some(log) = recovered.filter(|l| !l.records.is_empty()) {
                return Self::recover_internal(builder, w, log);
            }
            wal = Some(w);
        }

        let shard_count = builder.shard_count();
        let partition = ShardPartition::new(graph.node_count(), shard_count);
        let scores = scores(&graph).map(Arc::new);
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let b = builder.clone();
            shards.push(match &scores {
                Some(s) => b.with_shared_scores(graph.clone(), Arc::clone(s))?,
                None => b.from_graph(graph.clone())?,
            });
        }
        let mut router = ShardedSimRank {
            health: vec![ShardHealth::Healthy; shards.len()],
            checkpoint_every: builder.checkpoint_cadence(),
            shards,
            partition,
            graph,
            builder,
            wal,
            last_seq: 0,
            ops_since_checkpoint: 0,
            quarantines_total: 0,
            degraded_reads: Arc::new(AtomicU64::new(0)),
            pending_history: None,
        };
        // Every shard's state coincides at build, so one image serves as
        // the base any shard (or the whole system) can rebuild from.
        if let Some(mut wal) = router.wal.take() {
            wal.append_checkpoint(&CheckpointRecord {
                shard: None,
                shard_count: router.partition.shard_count() as u32,
                block: router.partition.block() as u64,
                seq: 0,
                image: wal::checkpoint_image_for(&mut router.shards[0]),
            })
            .map_err(BuildError::from)?;
            router.wal = Some(wal);
        }
        Ok(router)
    }

    /// Reconstructs a router from a recovered log: every shard rebuilds
    /// from its newest usable checkpoint + shard-filtered replay, and the
    /// authoritative graph replays unfiltered from the global base. The
    /// partition geometry comes from the log, not the builder — the ops
    /// were routed under it.
    fn recover_internal(
        builder: SimRankBuilder,
        wal: Wal,
        mut log: wal::RecoveredLog,
    ) -> Result<Self, BuildError> {
        let cp = log
            .newest_checkpoint(None)
            .ok_or(WalError::NoCheckpoint)
            .map_err(BuildError::from)?;
        let shard_count = (cp.shard_count as usize).max(1);
        let partition = ShardPartition {
            shards: shard_count,
            block: (cp.block as usize).max(1),
        };
        let mut shards = Vec::with_capacity(shard_count);
        let mut replayed = 0u64;
        for s in 0..shard_count {
            let rebuilt =
                wal::rebuild_engine(&builder, &log, Some(s as u32)).map_err(BuildError::from)?;
            replayed += rebuilt.replayed_ops;
            shards.push(rebuilt.sim);
        }
        let graph = Self::replay_authoritative_graph(&log).map_err(BuildError::from)?;
        debug_assert!(shards
            .iter()
            .all(|s| { s.graph().node_count() == graph.node_count() }));
        let last_seq = log.last_seq();
        let _ = replayed; // per-shard counters already carry the replay accounting
        let pending_history =
            (builder.retained_epochs() > 1).then(|| Self::recover_history(&mut log, shard_count));
        Ok(ShardedSimRank {
            health: vec![ShardHealth::Healthy; shards.len()],
            checkpoint_every: builder.checkpoint_cadence(),
            shards,
            partition,
            graph,
            builder,
            wal: Some(wal),
            last_seq,
            ops_since_checkpoint: 0,
            quarantines_total: 0,
            degraded_reads: Arc::new(AtomicU64::new(0)),
            pending_history,
        })
    }

    /// Moves the newest persisted epoch ring out of a recovered log for
    /// [`ConcurrentSimRank::new`] to rehydrate, degrading to a typed
    /// head-only outcome — never an error — when the log has no usable
    /// ring (a v1 log, a torn or corrupt round, or a geometry mismatch).
    fn recover_history(log: &mut wal::RecoveredLog, shard_count: usize) -> PendingHistory {
        // The newest meta trailer's head sequence survives even when the
        // round itself is unusable: the new incarnation numbers past it.
        let floor = log.history_floor();
        let Some((meta, deltas)) = log.take_epoch_ring() else {
            return if log.has_epoch_frames() {
                PendingHistory::Unavailable {
                    reason: "the persisted epoch-ring round is torn or corrupt; \
                             recovered head-only",
                    floor,
                }
            } else {
                PendingHistory::Unavailable {
                    reason: "the log predates epoch-ring checkpoints; recovered head-only",
                    floor,
                }
            };
        };
        let geometry_ok = meta.anchors.len() == shard_count
            && meta.tails.len() == shard_count
            && deltas
                .iter()
                .all(|d| d.shards.len() == shard_count && d.seq < meta.head_seq);
        if !geometry_ok {
            return PendingHistory::Unavailable {
                reason: "the persisted epoch ring does not match the recovered \
                         shard geometry; recovered head-only",
                floor,
            };
        }
        // Per matrix shard, the dense scores at the round's checkpoint:
        // the base the post-checkpoint replay suffix is diffed against to
        // roll the persisted head anchor forward to the recovered state.
        let cp_scores: Vec<Option<DenseMatrix>> = (0..shard_count)
            .map(|s| {
                if !matches!(meta.anchors[s], wal::ShardDeltaImage::Dense(_)) {
                    return None;
                }
                match &log.checkpoint_at(Some(s as u32), meta.cp_seq)?.image {
                    wal::CheckpointImage::Dense(bytes) => {
                        crate::core::snapshot::load(&mut &bytes[..])
                            .ok()
                            .map(|snap| snap.scores)
                    }
                    wal::CheckpointImage::GraphOnly { .. } => None,
                }
            })
            .collect();
        let suffix_ops: Vec<ReplayOp> = log.ops_after(meta.cp_seq).map(|e| e.op).collect();
        PendingHistory::Ring {
            meta,
            deltas,
            cp_scores,
            suffix_ops,
        }
    }

    /// The authoritative (unfiltered) graph of a recovered log: the global
    /// base checkpoint's graph plus every op after it, regardless of shard.
    fn replay_authoritative_graph(log: &wal::RecoveredLog) -> Result<DiGraph, WalError> {
        let cp = log.newest_checkpoint(None).ok_or(WalError::NoCheckpoint)?;
        let mut graph = match &cp.image {
            wal::CheckpointImage::GraphOnly { graph, .. } => graph.clone(),
            wal::CheckpointImage::Dense(bytes) => {
                crate::core::snapshot::load(&mut &bytes[..])?.graph
            }
        };
        for rec in log.ops_after(cp.seq) {
            match rec.op {
                wal::ReplayOp::Edge(op) => {
                    op.apply(&mut graph).map_err(|_| WalError::Corrupt {
                        offset: 0,
                        detail: "logged op does not apply to the checkpoint graph",
                    })?;
                }
                wal::ReplayOp::AddNode => {
                    graph.add_node();
                }
            }
        }
        Ok(graph)
    }

    // ---- topology ------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The node partition.
    pub fn partition(&self) -> &ShardPartition {
        &self.partition
    }

    /// Read access to one shard's service handle (diagnostics, tests).
    ///
    /// # Panics
    /// Panics if `s >= shard_count()`.
    pub fn shard(&self, s: usize) -> &SimRank {
        &self.shards[s]
    }

    /// The authoritative global graph (every update applied, regardless
    /// of which shards received it).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The engine configuration (identical across shards).
    pub fn config(&self) -> &SimRankConfig {
        self.shards[0].config()
    }

    // ---- updates -------------------------------------------------------

    /// Applies one link update: validated against the global graph, then
    /// routed to the shard(s) owning its endpoints. Returns the stats of
    /// each shard application (one entry, or two when the endpoints live
    /// on different shards).
    ///
    /// Durable routers append the op to the WAL *before* applying it. A
    /// shard that panics (or errors) mid-apply is quarantined; the op
    /// still commits everywhere else — the quarantined shard recovers it
    /// from the log on [`Self::rebuild_shard`].
    pub fn update(&mut self, op: UpdateOp) -> Result<Vec<UpdateStats>, ServeError> {
        let (i, j) = op.endpoints();
        let kind = match op {
            UpdateOp::Insert(..) => crate::core::UpdateKind::Insert,
            UpdateOp::Delete(..) => crate::core::UpdateKind::Delete,
        };
        crate::core::validate_update(&self.graph, i, j, kind).map_err(ServeError::Update)?;
        let owners: Vec<usize> = self.owners(i, j).collect();
        self.check_writable(owners.iter().copied())?;
        if let Some(w) = self.wal.as_mut() {
            w.append_ops(std::slice::from_ref(&op))?;
        }
        self.last_seq += 1;

        let mut stats = Vec::with_capacity(2);
        let mut first_failure: Option<(usize, Option<UpdateError>)> = None;
        for &s in &owners {
            // Every owner gets the op even after one fails: the op is
            // committed (logged + in the router graph), so a healthy
            // shard skipping it would silently diverge.
            match catch_unwind(AssertUnwindSafe(|| self.shards[s].update(op))) {
                Ok(Ok(st)) => stats.push(st),
                Ok(Err(e)) => {
                    self.quarantine(s);
                    first_failure.get_or_insert((s, Some(e)));
                }
                Err(_) => {
                    self.quarantine(s);
                    first_failure.get_or_insert((s, None));
                }
            }
        }
        // Validated above, so this cannot fail short of a router bug —
        // which surfaces as a typed error, never a panic mid-serve.
        op.apply(&mut self.graph)
            .map_err(|e| ServeError::Update(UpdateError::Graph(e)))?;
        self.ops_since_checkpoint += 1;
        match first_failure {
            None => {
                self.maybe_checkpoint()?;
                Ok(stats)
            }
            Some((_, Some(e))) => Err(ServeError::Update(e)),
            Some((s, None)) => Err(ServeError::ShardPanicked {
                shard: s,
                since_seq: self.last_seq,
            }),
        }
    }

    /// Inserts edge `(i, j)` on the owning shard(s).
    pub fn insert(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Insert(i, j))
    }

    /// Deletes edge `(i, j)` on the owning shard(s).
    pub fn remove(&mut self, i: u32, j: u32) -> Result<Vec<UpdateStats>, ServeError> {
        self.update(UpdateOp::Delete(i, j))
    }

    /// Applies a batch `ΔG`, fanning the per-shard sub-batches out across
    /// up to [`serve_threads`] worker threads (shard engines are
    /// independent, so this is the update-side parallelism sharding buys).
    /// The whole batch is validated against the global graph first and
    /// rejected **atomically** if any op is invalid — stronger than the
    /// single-handle prefix semantics, because the router can afford to
    /// simulate the batch on its shadow graph before any engine moves.
    ///
    /// Returns one [`UpdateStats`] per op (from the op's primary owner,
    /// the shard that also answers pair queries on its endpoints).
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, ServeError> {
        self.update_batch_with_threads(ops, serve_threads())
    }

    /// [`Self::update_batch`] with an explicit worker-thread cap
    /// (1 = fully serial dispatch). Results are identical for every
    /// thread count; only the wall-clock moves.
    ///
    /// Panic containment: each shard's sub-batch runs under
    /// `catch_unwind`, so a shard engine panicking mid-apply **cannot
    /// kill the process or poison the router**. The panicking shard is
    /// quarantined and the call returns [`ServeError::ShardPanicked`];
    /// every healthy shard's application and the router graph still
    /// commit (the batch is already in the WAL, so the quarantined shard
    /// recovers it on [`Self::rebuild_shard`]).
    pub fn update_batch_with_threads(
        &mut self,
        ops: &[UpdateOp],
        threads: usize,
    ) -> Result<Vec<UpdateStats>, ServeError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Atomic pre-validation: replay the batch on a shadow graph.
        let mut shadow = self.graph.clone();
        for &op in ops {
            op.apply(&mut shadow)
                .map_err(|e| ServeError::Update(UpdateError::Graph(e)))?;
        }

        // Route: per-shard sub-batches, preserving global op order, plus
        // the global index each sub-op came from.
        let mut sub_ops: Vec<Vec<UpdateOp>> = vec![Vec::new(); self.shards.len()];
        let mut sub_idx: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (g, &op) in ops.iter().enumerate() {
            let (i, j) = op.endpoints();
            for s in self.owners(i, j) {
                sub_ops[s].push(op);
                sub_idx[s].push(g);
            }
        }

        // Quarantine pre-check: a batch touching a quarantined shard is
        // rejected before the log or any engine moves.
        self.check_writable((0..self.shards.len()).filter(|&s| !sub_ops[s].is_empty()))?;

        // Write-ahead: the whole batch is logged (and flushed) before any
        // shard applies an op — on append failure nothing was applied.
        if let Some(w) = self.wal.as_mut() {
            w.append_ops(ops)?;
        }

        // Dispatch: the busy shards are split into at most `threads`
        // contiguous groups, one scoped worker per group, so the cap is
        // honoured exactly (a group works through its shards serially).
        // Both paths apply under `catch_unwind`, so results are identical
        // for every thread count even when a shard dies.
        type ShardOutcome = std::thread::Result<Result<Vec<UpdateStats>, UpdateError>>;
        let shard_count = self.shards.len();
        let mut busy: Vec<(usize, &mut SimRank, &Vec<UpdateOp>)> = self
            .shards
            .iter_mut()
            .zip(&sub_ops)
            .enumerate()
            .filter(|(_, (_, sub))| !sub.is_empty())
            .map(|(s, (shard, sub))| (s, shard, sub))
            .collect();
        let workers = threads.max(1).min(busy.len().max(1));
        let mut results: Vec<(usize, ShardOutcome)> = Vec::new();
        if workers <= 1 {
            for (s, shard, sub) in busy {
                results.push((
                    s,
                    catch_unwind(AssertUnwindSafe(|| shard.update_batch(sub))),
                ));
            }
        } else {
            let group_len = busy.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for group in busy.chunks_mut(group_len) {
                    let shard_ids: Vec<usize> = group.iter().map(|(s, ..)| *s).collect();
                    let handle = scope.spawn(move || {
                        group
                            .iter_mut()
                            .map(|(s, shard, sub)| {
                                (
                                    *s,
                                    catch_unwind(AssertUnwindSafe(|| shard.update_batch(sub))),
                                )
                            })
                            .collect::<Vec<_>>()
                    });
                    handles.push((shard_ids, handle));
                }
                for (shard_ids, h) in handles {
                    match h.join() {
                        Ok(outcomes) => results.extend(outcomes),
                        // The worker wraps every engine call in
                        // catch_unwind, so a panic *of the worker itself*
                        // (allocation failure, …) left its whole group in
                        // an unknown state: quarantine every shard of the
                        // group rather than crash the router.
                        Err(payload) => results.extend(
                            shard_ids
                                .into_iter()
                                .map(|s| (s, Err(clone_panic(&payload)))),
                        ),
                    }
                }
            });
        }

        // Commit: the batch is durable and every healthy shard applied it
        // (pre-validation guarantees per-shard success), so the shadow
        // graph becomes authoritative even when some shard failed — that
        // shard is quarantined and recovers the suffix from the log.
        self.graph = shadow;
        self.last_seq += ops.len() as u64;
        self.ops_since_checkpoint += ops.len() as u64;
        let mut per_shard: Vec<Option<Vec<UpdateStats>>> = vec![None; shard_count];
        let mut first_failure: Option<(usize, Option<UpdateError>)> = None;
        for (s, outcome) in results {
            match outcome {
                Ok(Ok(stats)) => per_shard[s] = Some(stats),
                Ok(Err(e)) => {
                    self.quarantine(s);
                    first_failure.get_or_insert((s, Some(e)));
                }
                Err(_) => {
                    self.quarantine(s);
                    first_failure.get_or_insert((s, None));
                }
            }
        }
        match first_failure {
            Some((_, Some(e))) => return Err(ServeError::Update(e)),
            Some((s, None)) => {
                return Err(ServeError::ShardPanicked {
                    shard: s,
                    since_seq: self.last_seq,
                })
            }
            None => {}
        }
        self.maybe_checkpoint()?;

        // Collect each op's primary-owner stats.
        let mut out: Vec<Option<UpdateStats>> = vec![None; ops.len()];
        for (s, stats) in per_shard.iter().enumerate() {
            let Some(stats) = stats else { continue };
            for (k, &g) in sub_idx[s].iter().enumerate() {
                let (i, j) = ops[g].endpoints();
                if self.partition.pair_owner(i, j) == s {
                    out[g] = Some(stats[k]);
                }
            }
        }
        let mut flat = Vec::with_capacity(out.len());
        for stats in out {
            match stats {
                Some(st) => flat.push(st),
                // Unreachable short of a routing bug (every op has a
                // primary owner, and no shard failed above) — reported
                // typed rather than panicking in the write path.
                None => {
                    return Err(ServeError::Internal(
                        "update_batch: an op's primary owner returned no stats",
                    ))
                }
            }
        }
        Ok(flat)
    }

    /// Appends an isolated node to **every** shard (all engines span the
    /// full node set); the new id is owned by the last shard. Rejected
    /// with [`ServeError::Quarantined`] while any shard is quarantined
    /// (its engine cannot take the append; rebuild first).
    pub fn add_node(&mut self) -> Result<u32, ServeError> {
        self.check_writable(0..self.shards.len())?;
        if let Some(w) = self.wal.as_mut() {
            w.append_add_node()?;
        }
        self.last_seq += 1;
        self.ops_since_checkpoint += 1;
        let id = self.graph.add_node();
        for shard in &mut self.shards {
            let shard_id = shard.add_node();
            debug_assert_eq!(shard_id, id, "shard node-id drift");
        }
        self.maybe_checkpoint()?;
        Ok(id)
    }

    // ---- health & durability -------------------------------------------

    /// Health of shard `s`.
    ///
    /// # Panics
    /// Panics if `s >= shard_count()`.
    pub fn shard_health(&self, s: usize) -> ShardHealth {
        self.health[s]
    }

    /// Indices of the currently quarantined shards (empty when all serve).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, ShardHealth::Quarantined { .. }))
            .map(|(s, _)| s)
            .collect()
    }

    /// The highest op sequence number accepted so far (the WAL's when one
    /// is attached).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Path of the attached write-ahead log, if the router is durable.
    pub fn wal_path(&self) -> Option<&std::path::Path> {
        self.wal.as_ref().map(Wal::path)
    }

    fn check_writable(&self, owners: impl IntoIterator<Item = usize>) -> Result<(), ServeError> {
        for s in owners {
            if let ShardHealth::Quarantined { since_seq } = self.health[s] {
                return Err(ServeError::Quarantined {
                    shard: s,
                    since_seq,
                    retry_after: QUARANTINE_RETRY_AFTER,
                });
            }
        }
        Ok(())
    }

    fn quarantine(&mut self, s: usize) {
        if matches!(self.health[s], ShardHealth::Healthy) {
            self.health[s] = ShardHealth::Quarantined {
                since_seq: self.last_seq,
            };
            self.quarantines_total += 1;
        }
    }

    /// Writes a per-shard checkpoint image for every healthy shard when
    /// the op cadence is due (durable routers only).
    fn maybe_checkpoint(&mut self) -> Result<(), ServeError> {
        if self.ops_since_checkpoint < self.checkpoint_every {
            return Ok(());
        }
        let Some(mut wal) = self.wal.take() else {
            return Ok(());
        };
        let result = (|| {
            for s in 0..self.shards.len() {
                if !matches!(self.health[s], ShardHealth::Healthy) {
                    continue;
                }
                wal.append_checkpoint(&CheckpointRecord {
                    shard: Some(s as u32),
                    shard_count: self.partition.shard_count() as u32,
                    block: self.partition.block() as u64,
                    seq: self.last_seq,
                    image: wal::checkpoint_image_for(&mut self.shards[s]),
                })?;
            }
            Ok(())
        })();
        self.wal = Some(wal);
        if result.is_ok() {
            self.ops_since_checkpoint = 0;
        }
        result.map_err(ServeError::Wal)
    }

    /// Restores a quarantined shard from the write-ahead log (newest
    /// usable checkpoint + shard-filtered replay — see
    /// [`crate::wal::rebuild_engine`]) and marks it healthy again. Without
    /// a WAL the shard is recomputed from the authoritative router graph
    /// instead. A fresh per-shard checkpoint is appended after a durable
    /// rebuild, so the *next* recovery replays a short suffix.
    ///
    /// Rebuilding a healthy shard is a no-op returning `Ok(())`.
    ///
    /// # Panics
    /// Panics if `s >= shard_count()`.
    pub fn rebuild_shard(&mut self, s: usize) -> Result<(), ServeError> {
        if matches!(self.health[s], ShardHealth::Healthy) {
            return Ok(());
        }
        match self.wal.take() {
            Some(mut wal) => {
                let restore = (|| -> Result<SimRank, WalError> {
                    wal.sync()?;
                    let log = wal::read_log(wal.path())?;
                    Ok(wal::rebuild_engine(&self.builder, &log, Some(s as u32))?.sim)
                })();
                match restore {
                    Ok(mut sim) => {
                        debug_assert_eq!(
                            sim.graph().node_count(),
                            self.graph.node_count(),
                            "rebuilt shard node-universe drift"
                        );
                        // Best-effort hygiene checkpoint: a failure here
                        // costs only a longer replay next time (the log
                        // truncated back to a consistent state).
                        let _ = wal.append_checkpoint(&CheckpointRecord {
                            shard: Some(s as u32),
                            shard_count: self.partition.shard_count() as u32,
                            block: self.partition.block() as u64,
                            seq: self.last_seq,
                            image: wal::checkpoint_image_for(&mut sim),
                        });
                        self.wal = Some(wal);
                        self.shards[s] = sim;
                    }
                    Err(e) => {
                        self.wal = Some(wal);
                        return Err(ServeError::Wal(e));
                    }
                }
            }
            None => {
                // No log: recompute from the authoritative router graph.
                // The crashed shard's op-subset trajectory is not
                // recoverable without a log; batch recompute over the full
                // graph is the best reconstruction available.
                self.shards[s] = self.builder.clone().from_graph(self.graph.clone())?;
            }
        }
        self.health[s] = ShardHealth::Healthy;
        Ok(())
    }

    /// The shard(s) owning the endpoints of an edge, deduplicated.
    fn owners(&self, i: u32, j: u32) -> impl Iterator<Item = usize> {
        let a = self.partition.owner(i);
        let b = self.partition.owner(j);
        std::iter::once(a.min(b)).chain((a != b).then_some(a.max(b)))
    }

    // ---- queries -------------------------------------------------------

    /// Similarity of one node pair, answered by the owner of the smaller
    /// id with the arguments in canonical `(min, max)` order — both
    /// orders are literally the same shard read, so
    /// `pair(a, b) == pair(b, a)` holds bit-for-bit (the engine matrix
    /// itself is only symmetric up to rounding).
    ///
    /// # Panics
    /// Panics if either node is out of range; see [`Self::try_pair`].
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.shards[self.partition.pair_owner(a, b)].pair(a.min(b), a.max(b))
    }

    /// [`Self::pair`], returning `None` when either node is absent from
    /// every shard (id out of range) instead of panicking.
    pub fn try_pair(&self, a: u32, b: u32) -> Option<f64> {
        let n = self.graph.node_count() as u32;
        (a < n && b < n).then(|| self.pair(a, b))
    }

    /// All similarities of node `a`, from its owning shard.
    ///
    /// # Panics
    /// Panics if `a` is out of range; see [`Self::try_single_source`].
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.shards[self.partition.owner(a)].single_source(a)
    }

    /// [`Self::single_source`], `None` when `a` is absent from every shard.
    pub fn try_single_source(&self, a: u32) -> Option<Vec<RankedNode>> {
        ((a as usize) < self.graph.node_count()).then(|| self.single_source(a))
    }

    /// The `k` most similar nodes to `a`, from its owning shard.
    ///
    /// # Panics
    /// Panics if `a` is out of range; see [`Self::try_top_k`].
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.shards[self.partition.owner(a)].top_k(a, k)
    }

    /// [`Self::top_k`], `None` when `a` is absent from every shard.
    pub fn try_top_k(&self, a: u32, k: usize) -> Option<Vec<RankedNode>> {
        ((a as usize) < self.graph.node_count()).then(|| self.top_k(a, k))
    }

    /// Nodes at least `threshold`-similar to `a`, from its owning shard.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.shards[self.partition.owner(a)].similar_above(a, threshold)
    }

    // ---- checked reads --------------------------------------------------
    //
    // The plain query methods read the live shard engine as-is — on a
    // quarantined shard that state may be torn mid-update. The checked
    // variants refuse instead with a typed `ServeError::Degraded`; epoch
    // readers ([`ConcurrentSimRank`]) get the third option, the last
    // *published* pre-quarantine state.

    /// [`Self::pair`], refusing with [`ServeError::Degraded`] when the
    /// owning shard is quarantined.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn checked_pair(&self, a: u32, b: u32) -> Result<f64, ServeError> {
        let s = self.partition.pair_owner(a, b);
        self.check_readable(s)?;
        Ok(self.shards[s].pair(a.min(b), a.max(b)))
    }

    /// [`Self::single_source`], refusing with [`ServeError::Degraded`]
    /// when the owning shard is quarantined.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn checked_single_source(&self, a: u32) -> Result<Vec<RankedNode>, ServeError> {
        let s = self.partition.owner(a);
        self.check_readable(s)?;
        Ok(self.shards[s].single_source(a))
    }

    /// [`Self::top_k`], refusing with [`ServeError::Degraded`] when the
    /// owning shard is quarantined.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn checked_top_k(&self, a: u32, k: usize) -> Result<Vec<RankedNode>, ServeError> {
        let s = self.partition.owner(a);
        self.check_readable(s)?;
        Ok(self.shards[s].top_k(a, k))
    }

    fn check_readable(&self, s: usize) -> Result<(), ServeError> {
        match self.health[s] {
            ShardHealth::Healthy => Ok(()),
            ShardHealth::Quarantined { since_seq } => Err(ServeError::Degraded {
                shard: s,
                since_seq,
            }),
        }
    }

    // ---- maintenance & introspection -----------------------------------

    /// Materialises pending deferred ΔS on every shard; returns the total
    /// rank-two terms applied.
    pub fn flush(&mut self) -> usize {
        self.shards.iter_mut().map(SimRank::flush).sum()
    }

    /// Recompresses pending deferred ΔS on every shard **in place** (see
    /// [`SimRank::compress`]): the serve-side alternative to
    /// [`Self::flush`] that keeps every lazy window open — epoch
    /// publication keeps snapshotting `S_base + Δ` factors, just fewer of
    /// them. Returns the largest pending rank that remains.
    pub fn compress_pending(&mut self) -> usize {
        self.shards
            .iter_mut()
            .map(SimRank::compress)
            .max()
            .unwrap_or(0)
    }

    /// Largest pending deferred-ΔS rank across shards (0 when every shard
    /// is fully materialised).
    pub fn pending_rank(&self) -> usize {
        self.shards
            .iter()
            .map(SimRank::pending_rank)
            .max()
            .unwrap_or(0)
    }

    /// Total heap bytes of the pending deferred-ΔS buffers across shards
    /// — the router-level memory-pressure signal (see
    /// [`SimRank::pending_heap_bytes`]).
    pub fn pending_heap_bytes(&self) -> usize {
        self.shards.iter().map(SimRank::pending_heap_bytes).sum()
    }

    /// Routing counters aggregated across every shard — per-shard
    /// accounting stays meaningful behind the router; see
    /// [`Self::shard_counters`] for the unmerged view. Router-level
    /// durability accounting (`wal_appends`, `checkpoints`,
    /// `quarantines`, `degraded_reads`) is merged in on top of the
    /// engine-level counters (which carry `replayed_ops`).
    pub fn counters(&self) -> ModeCounters {
        let mut total = ModeCounters::default();
        for shard in &self.shards {
            total.merge(&shard.counters());
        }
        if let Some(w) = &self.wal {
            total.wal_appends += w.appends();
            total.checkpoints += w.checkpoints();
        }
        total.quarantines += self.quarantines_total;
        total.degraded_reads += self.degraded_reads.load(Ordering::Relaxed);
        total
    }

    /// Per-shard routing counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<ModeCounters> {
        self.shards.iter().map(SimRank::counters).collect()
    }

    /// Freezes every shard's current state into an [`Epoch`] with the
    /// given sequence number (the [`ConcurrentSimRank`] publish
    /// primitive; also useful stand-alone for consistent bulk exports).
    /// Matrix shards freeze `S_base + Δ` by sharing their base matrix
    /// (a pointer clone; the engine copies it on its next write) plus a
    /// copy of the pending factors; matrix-free shards freeze their graph
    /// (`O(n + m)`) and keep sampling — every engine publishes through
    /// the same engine-agnostic [`SnapshotQuery`] handle.
    ///
    /// A **quarantined** shard's live engine is never snapshotted:
    /// its view is carried over from `prev` (the last epoch published
    /// before the quarantine — reads of it come back
    /// [`ReadStatus::Degraded`]), or an all-zeros view when there is no
    /// previous epoch to freeze.
    pub fn snapshot_epoch(&self, seq: u64, prev: Option<&Epoch>) -> Epoch {
        let mut views: Vec<Arc<dyn SnapshotQuery>> = Vec::with_capacity(self.shards.len());
        let mut degraded: Vec<Option<DegradedInfo>> = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            match self.health[s] {
                ShardHealth::Healthy => {
                    views.push(shard.snapshot_query());
                    degraded.push(None);
                }
                ShardHealth::Quarantined { since_seq } => match prev {
                    Some(p) if s < p.views.len() => {
                        views.push(Arc::clone(&p.views[s]));
                        // Freeze n where the carried-over view froze it:
                        // ids appended later read 0.0, never out-of-range.
                        let frozen_n = p.degraded[s].map_or(p.n, |d| d.frozen_n);
                        degraded.push(Some(DegradedInfo {
                            since_seq,
                            frozen_n,
                        }));
                    }
                    _ => {
                        views.push(Arc::new(ZeroView));
                        degraded.push(Some(DegradedInfo {
                            since_seq,
                            frozen_n: 0,
                        }));
                    }
                },
            }
        }
        Epoch {
            seq,
            partition: self.partition,
            n: self.graph.node_count(),
            views,
            degraded,
            degraded_reads: Arc::clone(&self.degraded_reads),
        }
    }
}

impl std::fmt::Debug for ShardedSimRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimRank")
            .field("shards", &self.shards.len())
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("engine", &self.shards[0].engine_name())
            .field("durable", &self.wal.is_some())
            .field("quarantined", &self.quarantined_shards())
            .finish()
    }
}

/// One published, immutable serving epoch: a frozen query handle per
/// shard ([`SnapshotQuery`]: an owned `S_base + Δ` snapshot for matrix
/// engines, a frozen graph for the probe engine) plus the partition that
/// routes queries into them. Shared across reader threads behind an
/// `Arc`; every answer drawn from one `Epoch` value is mutually
/// consistent (the writer can never tear it).
#[derive(Clone, Debug)]
pub struct Epoch {
    seq: u64,
    partition: ShardPartition,
    n: usize,
    views: Vec<Arc<dyn SnapshotQuery>>,
    /// `Some` for shards whose view was carried over because the live
    /// engine was quarantined at publish time.
    degraded: Vec<Option<DegradedInfo>>,
    /// Shared router counter, bumped per read served from a stale view.
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

    /// `Some` when shard `s`'s view is a stale carry-over from before its
    /// quarantine (reads of it are answered, marked
    /// [`ReadStatus::Degraded`], and counted).
    ///
    /// # Panics
    /// Panics if `s` is not a shard index.
    pub fn degraded(&self, s: usize) -> Option<DegradedInfo> {
        self.degraded[s]
    }

    /// `true` when any shard's view is a stale carry-over.
    pub fn any_degraded(&self) -> bool {
        self.degraded.iter().any(Option::is_some)
    }

    /// Routes a read of shard `s` through its degradation state: bumps
    /// the shared counter and clamps ids past the frozen range (the view
    /// predates those nodes — similarity evidence for them never reached
    /// it, so they read as 0).
    fn route(&self, s: usize, max_id: u32) -> (bool, ReadStatus) {
        match self.degraded[s] {
            None => (true, ReadStatus::Fresh),
            Some(d) => {
                self.degraded_reads.fetch_add(1, Ordering::Relaxed);
                (
                    (max_id as usize) < d.frozen_n,
                    ReadStatus::Degraded {
                        shard: s,
                        since_seq: d.since_seq,
                    },
                )
            }
        }
    }

    /// Similarity of one node pair (routing and canonical argument order
    /// as in [`ShardedSimRank::pair`], so both orders read identically).
    /// Reads of a degraded shard come from its frozen pre-quarantine view
    /// — use [`Self::pair_with_status`] to observe that.
    ///
    /// # Panics
    /// Panics if either node is out of range; see [`Self::try_pair`].
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.pair_with_status(a, b).0
    }

    /// [`Self::pair`] plus the freshness of the answer: **never panics on
    /// a degraded shard** — ids appended after the quarantine read 0.0
    /// from the frozen view instead of erroring.
    ///
    /// # Panics
    /// Panics if either node is out of range *of a fresh shard's view*.
    pub fn pair_with_status(&self, a: u32, b: u32) -> (f64, ReadStatus) {
        let s = self.partition.pair_owner(a, b);
        let (in_range, status) = self.route(s, a.max(b));
        let v = if in_range {
            self.views[s].pair(a.min(b), a.max(b))
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
        let s = self.partition.owner(a);
        let (in_range, status) = self.route(s, a);
        let v = if in_range {
            self.views[s].single_source(a)
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
        let s = self.partition.owner(a);
        let (in_range, status) = self.route(s, a);
        let v = if in_range {
            self.views[s].top_k(a, k)
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
        let s = self.partition.owner(a);
        let (in_range, _) = self.route(s, a);
        if in_range {
            self.views[s].similar_above(a, threshold)
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

/// How the ring retains one shard of one past epoch.
#[derive(Debug)]
enum ShardDelta {
    /// Factor pairs of `S_next − S_this` (matrix shards): `O(n·r)` heap,
    /// reconstructed by stacking negated deltas onto the head's view.
    Dense(LowRankDelta),
    /// Matrix-free shard: nothing stored here — the epoch's engine graph
    /// is recovered by replaying the recorded op slices from the ring
    /// tail's graph and rebuilding the (deterministic) engine.
    Replay,
    /// The view was carried over unchanged (quarantine, or an epoch whose
    /// shard state is byte-identical to its successor): pin the `Arc`
    /// itself — shared, so it costs no extra heap.
    Pinned(Arc<dyn SnapshotQuery>),
    /// Crash-recovery placeholder: the persisted log could not carry this
    /// shard's delta across the restart (it was pinned or quarantined at
    /// persist time, or its recovery anchor could not be composed).
    /// Reconstruction through it reports
    /// [`ServeError::EpochChainBroken`]; entries on the head side of it
    /// still answer.
    Broken,
}

/// One non-head epoch the ring retains, stored as material to rebuild it
/// from its successor (never as an `n²` copy).
#[derive(Debug)]
struct RetainedEpoch {
    seq: u64,
    stamp: u64,
    at_op: u64,
    n: usize,
    shards: Vec<ShardDelta>,
    degraded: Vec<Option<DegradedInfo>>,
    /// Ops committed between this epoch and its successor, in commit
    /// order — the replay slice for matrix-free shards, and the material
    /// [`ConcurrentSimRank`] uses to advance the tail graphs on eviction.
    ops_to_next: Vec<ReplayOp>,
}

impl RetainedEpoch {
    fn retained_bytes(&self) -> usize {
        let factors: usize = self
            .shards
            .iter()
            .map(|s| match s {
                ShardDelta::Dense(d) => d.heap_bytes(),
                // Pinned shares the successor's Arc; Replay is priced by
                // the op slice below; Broken stores nothing.
                ShardDelta::Replay | ShardDelta::Pinned(_) | ShardDelta::Broken => 0,
            })
            .sum();
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
/// reconstructed on demand. Matrix-free shards are retained by **graph
/// replay** instead: the ring records the committed op slice between
/// epochs and rebuilds the (deterministic) engine at the requested epoch,
/// so a reconstructed probe answer is seed-identical to the answer the
/// epoch gave live.
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
    /// Per matrix-free shard: its engine-graph state at the ring's oldest
    /// retained epoch (`None` for matrix shards, or after a replay
    /// failure poisoned the tail). Advanced forward on eviction.
    tail_graphs: Vec<Option<DiGraph>>,
    epochs_retained: u64,
    epoch_evictions: u64,
    epoch_reconstructions: AtomicU64,
    /// Whether pre-incarnation epochs are addressable (durable routers).
    history: HistoryStatus,
    /// Highest pre-crash epoch sequence the log named without being able
    /// to restore it: misses at or below this report
    /// [`ServeError::HistoryUnavailable`] instead of
    /// [`ServeError::NoSuchEpoch`] when `history` is `Unavailable`.
    history_floor: u64,
}

impl ConcurrentSimRank {
    /// Wraps a router, publishing epoch 0 from its current state. A
    /// router recovered from a log with a persisted epoch ring rehydrates
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
        let tail_graphs = if retain > 1 {
            inner
                .shards
                .iter()
                .map(|s| s.is_matrix_free().then(|| s.graph().clone()))
                .collect()
        } else {
            Vec::new()
        };
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
            tail_graphs,
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
            srv.rehydrate_ring(&head, meta, deltas, &cp_scores, suffix_ops);
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
    /// entry — per matrix shard its delta to the just-published live head
    /// is `anchor ⊕ suffix`, the anchor persisted with the round
    /// (head→checkpoint) and the suffix diffed here between the decoded
    /// checkpoint scores and the recovered live scores (checkpoint→live).
    fn rehydrate_ring(
        &mut self,
        head: &Epoch,
        meta: wal::EpochMetaRecord,
        deltas: Vec<wal::EpochDeltaRecord>,
        cp_scores: &[Option<DenseMatrix>],
        suffix_ops: Vec<ReplayOp>,
    ) {
        let shard_count = self.inner.shards.len();
        let restored = deltas.len() as u64 + 1;
        let to_delta = |img: wal::ShardDeltaImage| match img {
            wal::ShardDeltaImage::Dense(d) => ShardDelta::Dense(d),
            wal::ShardDeltaImage::Replay => ShardDelta::Replay,
            wal::ShardDeltaImage::Broken => ShardDelta::Broken,
        };
        for d in deltas {
            self.ring.push_back(RetainedEpoch {
                seq: d.seq,
                stamp: d.stamp,
                at_op: d.at_op,
                n: d.n,
                shards: d.shards.into_iter().map(to_delta).collect(),
                degraded: vec![None; shard_count],
                ops_to_next: d.ops,
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for ((anchor_img, cp), view) in meta.anchors.iter().zip(cp_scores).zip(&head.views) {
            match anchor_img {
                wal::ShardDeltaImage::Replay => shards.push(ShardDelta::Replay),
                wal::ShardDeltaImage::Broken => shards.push(ShardDelta::Broken),
                wal::ShardDeltaImage::Dense(anchor) => {
                    let head_n = view.n();
                    let composed = cp
                        .as_ref()
                        .zip(view.score_snapshot())
                        .filter(|(cp, _)| cp.rows() <= head_n && anchor.dim() <= head_n)
                        .map(|(cp, live)| {
                            let live_eff = effective_matrix(live);
                            let (suffix, _) = LowRankDelta::between(cp, &live_eff, self.delta_tol);
                            let mut d = LowRankDelta::new(head_n);
                            d.extend(anchor);
                            d.extend(&suffix);
                            d
                        });
                    shards.push(composed.map_or(ShardDelta::Broken, ShardDelta::Dense));
                }
            }
        }
        let mut ops_to_next = meta.pending;
        ops_to_next.extend(suffix_ops);
        self.ring.push_back(RetainedEpoch {
            seq: meta.head_seq,
            stamp: meta.head_stamp,
            at_op: meta.head_at_op,
            n: meta.head_n,
            shards,
            degraded: vec![None; shard_count],
            ops_to_next,
        });
        self.epochs_retained += restored;
        self.tail_graphs = meta.tails;
        // The current retention window may be narrower than the persisted
        // one (or the spliced head overflows it): evict from the tail,
        // advancing the matrix-free tail graphs exactly as live eviction
        // does.
        while self.ring.len() > self.retain.saturating_sub(1) {
            let Some(evicted) = self.ring.pop_front() else {
                break;
            };
            self.advance_tail(&evicted);
            self.epoch_evictions += 1;
        }
    }

    /// A new reader handle. Readers are independent: clone one per
    /// thread, or clone the handle itself — both see every future epoch.
    pub fn reader(&self) -> EpochReader {
        EpochReader {
            slot: Arc::clone(&self.slot),
        }
    }

    /// Freezes the current shard states into a new epoch and swaps it in;
    /// returns its sequence number. Pending lazy ΔS is snapshotted, not
    /// materialised. Quarantined shards keep their last published view
    /// (readers keep being answered, marked [`ReadStatus::Degraded`]) —
    /// **a shard crash never takes reads down**.
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
        // the old epoch during the freeze (pointer clones of the shards'
        // matrices plus their pending factors) and only ever wait on the
        // pointer swap itself.
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
        let ops = std::mem::take(&mut self.pending_ops);
        let mut shards = Vec::with_capacity(prev.views.len());
        for s in 0..prev.views.len() {
            let pv = &prev.views[s];
            let nv = &next.views[s];
            // A carried-over (degraded) view, on either side, breaks the
            // "delta against successor" construction — pin the Arc
            // instead (shared with the epoch itself, so ~free).
            let carried =
                Arc::ptr_eq(pv, nv) || prev.degraded[s].is_some() || next.degraded[s].is_some();
            if carried {
                shards.push(ShardDelta::Pinned(Arc::clone(pv)));
            } else if let (Some(ps), Some(ns)) = (pv.score_snapshot(), nv.score_snapshot()) {
                let from = effective_matrix(ps);
                let to = effective_matrix(ns);
                let (delta, _dropped) = LowRankDelta::between(&from, &to, self.delta_tol);
                shards.push(ShardDelta::Dense(delta));
            } else {
                shards.push(ShardDelta::Replay);
            }
        }
        self.ring.push_back(RetainedEpoch {
            seq: prev.seq(),
            stamp: self.head_meta.stamp,
            at_op: self.head_meta.at_op,
            n: prev.n(),
            shards,
            degraded: prev.degraded.clone(),
            ops_to_next: ops,
        });
        self.epochs_retained += 1;
        while self.ring.len() > self.retain - 1 {
            if let Some(evicted) = self.ring.pop_front() {
                self.advance_tail(&evicted);
                self.epoch_evictions += 1;
            }
        }
    }

    /// Rolls every matrix-free tail graph forward across an evicted
    /// epoch's op slice, restoring the invariant that the tail graphs
    /// mirror the oldest *retained* epoch.
    fn advance_tail(&mut self, evicted: &RetainedEpoch) {
        let partition = self.inner.partition;
        for (s, slot) in self.tail_graphs.iter_mut().enumerate() {
            let Some(g) = slot.as_mut() else { continue };
            let mut poisoned = false;
            for op in &evicted.ops_to_next {
                match op {
                    ReplayOp::AddNode => {
                        g.add_node();
                    }
                    ReplayOp::Edge(e) => {
                        let (i, j) = e.endpoints();
                        // Mirror live routing: the shard engine only ever
                        // saw ops it owned an endpoint of.
                        if (partition.owner(i) == s || partition.owner(j) == s)
                            && e.apply(g).is_err()
                        {
                            poisoned = true;
                            break;
                        }
                    }
                }
            }
            if poisoned {
                // A recorded op failing to replay is a bookkeeping bug
                // (e.g. mutations through `sharded_mut` bypassing the
                // recorder); poison the tail so reconstruction reports a
                // typed Internal error instead of a wrong answer.
                *slot = None;
            }
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
    /// round (the counter moved): the epoch frames ride the same log,
    /// anchored to the images that round embedded.
    fn persist_ring_if_checkpointed(&mut self, mark: u64) {
        if self.retain > 1 && self.checkpoint_mark() > mark {
            self.persist_ring();
        }
    }

    /// Appends the temporal ring to the WAL alongside the checkpoint
    /// round the router just wrote: one delta frame per retained epoch
    /// plus the meta trailer — head stamps, the per-shard anchor from the
    /// head epoch's views to the live (checkpointed) state, the pending
    /// op slice, and the matrix-free tail graphs. Best-effort: a failure
    /// costs pre-crash history at the next recovery, never the op stream.
    fn persist_ring(&mut self) {
        if self.retain <= 1 || self.inner.wal.is_none() {
            return;
        }
        let cp_seq = self.inner.last_seq;
        let head = self.slot.load();
        let mut anchors = Vec::with_capacity(self.inner.shards.len());
        for s in 0..self.inner.shards.len() {
            let healthy = matches!(self.inner.health[s], ShardHealth::Healthy);
            if !healthy || head.degraded[s].is_some() {
                anchors.push(wal::ShardDeltaImage::Broken);
            } else if self.inner.shards[s].is_matrix_free() {
                anchors.push(wal::ShardDeltaImage::Replay);
            } else {
                // A pointer clone of the live matrix plus a copy of its
                // pending factors, not an n² copy.
                let live = self.inner.shards[s].snapshot_query();
                match (head.views[s].score_snapshot(), live.score_snapshot()) {
                    (Some(hs), Some(ls)) => {
                        let from = effective_matrix(hs);
                        let to = effective_matrix(ls);
                        let (delta, _dropped) = LowRankDelta::between(&from, &to, self.delta_tol);
                        anchors.push(wal::ShardDeltaImage::Dense(delta));
                    }
                    _ => anchors.push(wal::ShardDeltaImage::Broken),
                }
            }
        }
        let deltas: Vec<wal::EpochDeltaRecord> = self
            .ring
            .iter()
            .map(|e| wal::EpochDeltaRecord {
                cp_seq,
                seq: e.seq,
                stamp: e.stamp,
                at_op: e.at_op,
                n: e.n,
                shards: e
                    .shards
                    .iter()
                    .map(|sd| match sd {
                        ShardDelta::Dense(d) => wal::ShardDeltaImage::Dense(d.clone()),
                        ShardDelta::Replay => wal::ShardDeltaImage::Replay,
                        // A pinned Arc is this process's alias of another
                        // epoch's view — not serializable as a delta.
                        ShardDelta::Pinned(_) | ShardDelta::Broken => wal::ShardDeltaImage::Broken,
                    })
                    .collect(),
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
            anchors,
            pending: self.pending_ops.clone(),
            tails: self.tail_graphs.clone(),
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

    /// Applies a batch on the write path (atomic; parallel across shards).
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, ServeError> {
        self.update_batch_with_threads(ops, serve_threads())
    }

    /// [`ShardedSimRank::update_batch_with_threads`] on the write path.
    pub fn update_batch_with_threads(
        &mut self,
        ops: &[UpdateOp],
        threads: usize,
    ) -> Result<Vec<UpdateStats>, ServeError> {
        let before = self.inner.last_seq();
        let mark = self.checkpoint_mark();
        let r = self.inner.update_batch_with_threads(ops, threads);
        self.record_edges(before, ops);
        self.persist_ring_if_checkpointed(mark);
        r
    }

    /// [`ShardedSimRank::rebuild_shard`] on the write path, followed by a
    /// publish so readers immediately leave the degraded view.
    pub fn rebuild_shard(&mut self, s: usize) -> Result<(), ServeError> {
        let mark = self.checkpoint_mark();
        self.inner.rebuild_shard(s)?;
        self.publish();
        // The rebuild appended a hygiene checkpoint; re-anchor the ring
        // to it after the publish above so the persisted round sees the
        // post-rebuild head.
        self.persist_ring_if_checkpointed(mark);
        Ok(())
    }

    /// Materialises pending deferred ΔS on every shard **and publishes**
    /// the result as a new epoch (the one mutation that should always be
    /// immediately visible); returns the rank-two terms applied.
    pub fn flush(&mut self) -> usize {
        let pairs = self.inner.flush();
        self.publish();
        pairs
    }

    /// Recompresses pending deferred ΔS on every shard in place (no
    /// publish needed: compression changes no observable score, only the
    /// factor count behind future epochs). Returns the largest pending
    /// rank that remains.
    pub fn compress_pending(&mut self) -> usize {
        self.inner.compress_pending()
    }

    // ---- temporal (epoch-addressed) reads ------------------------------

    /// Every epoch the ring can still answer at, oldest first — the
    /// retained tail plus the head. Empty only before the first publish
    /// when retention is off (retention on always lists at least the
    /// head).
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
    /// deltas, replay op slices, and the matrix-free tail graphs. This is
    /// the quantity [`SimRankBuilder::retain_epochs`] trades for
    /// time-travel — `O(E·n·r)`, not `O(E·n²)`.
    pub fn retained_heap_bytes(&self) -> usize {
        let ring: usize = self.ring.iter().map(RetainedEpoch::retained_bytes).sum();
        let tails: usize = self
            .tail_graphs
            .iter()
            .flatten()
            .map(DiGraph::heap_bytes)
            .sum();
        ring + tails
    }

    /// Pins epoch `seq` as a queryable [`Epoch`], reconstructing retained
    /// shards on demand: the head is returned as-is (zero cost), a ring
    /// epoch stacks its negated factor deltas onto the head's views (or
    /// replays its graph slice, for matrix-free shards). Hold the result
    /// across a batch of queries — reconstruction is per-call, not
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
        let mut views: Vec<Arc<dyn SnapshotQuery>> = Vec::with_capacity(entry.shards.len());
        for s in 0..entry.shards.len() {
            views.push(self.reconstruct_shard(s, idx, &head)?);
        }
        self.epoch_reconstructions.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Epoch {
            seq,
            partition: self.inner.partition,
            n: entry.n,
            views,
            degraded: entry.degraded.clone(),
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

    /// One shard's view at ring index `idx`, rebuilt from the head.
    fn reconstruct_shard(
        &self,
        s: usize,
        idx: usize,
        head: &Epoch,
    ) -> Result<Arc<dyn SnapshotQuery>, ServeError> {
        let entry = &self.ring[idx];
        match &entry.shards[s] {
            ShardDelta::Pinned(v) => Ok(Arc::clone(v)),
            ShardDelta::Broken => Err(ServeError::EpochChainBroken {
                seq: entry.seq,
                shard: s,
            }),
            ShardDelta::Dense(_) => {
                // S_epoch = S_head − Σ (per-epoch deltas from here to the
                // head); each ring entry stores S_next − S_this, so the
                // negated stack of entries idx..end rolls the head back.
                let mut stack = LowRankDelta::new(head.views[s].n());
                for e in self.ring.iter().skip(idx) {
                    match &e.shards[s] {
                        ShardDelta::Dense(d) => stack.extend_negated(d),
                        _ => {
                            return Err(ServeError::EpochChainBroken {
                                seq: entry.seq,
                                shard: s,
                            })
                        }
                    }
                }
                Ok(Arc::new(DeltaSnapshot::new(
                    Arc::clone(&head.views[s]),
                    stack,
                    entry.n,
                )))
            }
            ShardDelta::Replay => {
                let Some(tail) = self.tail_graphs.get(s).and_then(Option::as_ref) else {
                    return Err(ServeError::Internal(
                        "replay tail graph missing or poisoned",
                    ));
                };
                // Roll the tail graph forward to this epoch, then rebuild
                // the engine: matrix-free snapshots are pure functions of
                // (graph, config), so this is seed-identical to the view
                // the epoch published live.
                let mut g = tail.clone();
                let partition = self.inner.partition;
                for e in self.ring.iter().take(idx) {
                    for op in &e.ops_to_next {
                        match op {
                            ReplayOp::AddNode => {
                                g.add_node();
                            }
                            ReplayOp::Edge(eop) => {
                                let (i, j) = eop.endpoints();
                                if (partition.owner(i) == s || partition.owner(j) == s)
                                    && eop.apply(&mut g).is_err()
                                {
                                    return Err(ServeError::Internal(
                                        "recorded op failed to replay",
                                    ));
                                }
                            }
                        }
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
    /// [`ServeError::MatrixFree`] if a shard in range is retained by
    /// replay (probe shards have no dense deltas to scan);
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
        let n_lo = if idx_lo == self.ring.len() {
            head.n()
        } else {
            self.ring[idx_lo].n
        };
        let n_hi = if idx_hi == self.ring.len() {
            head.n()
        } else {
            self.ring[idx_hi].n
        };

        // Per shard, stack the negated deltas spanning [lo, hi): the
        // stack reads as S_lo − S_hi.
        let shard_count = self.inner.shards.len();
        let mut stacks: Vec<LowRankDelta> = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let mut stack = LowRankDelta::new(n_hi);
            for e in self.ring.iter().take(idx_hi).skip(idx_lo) {
                match &e.shards[s] {
                    ShardDelta::Dense(d) => stack.extend_negated(d),
                    ShardDelta::Replay => {
                        return Err(ServeError::MatrixFree {
                            query: "top_movers",
                        })
                    }
                    ShardDelta::Pinned(_) | ShardDelta::Broken => {
                        return Err(ServeError::EpochChainBroken { seq: lo, shard: s })
                    }
                }
            }
            stacks.push(stack);
        }

        // Caller-order sign: stack = S_lo − S_hi, the answer wants
        // S_e2 − S_e1.
        let dir = if e2 >= e1 { -1.0 } else { 1.0 };
        let partition = self.inner.partition;
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<MoverKey>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        let mut row = vec![0.0_f64; n_hi];
        for a in 0..n_lo as u32 {
            // Pair (a, b) with a < b routes to a's owner, as live.
            let s = partition.owner(a);
            row.iter_mut().for_each(|x| *x = 0.0);
            stacks[s].add_row_delta(a as usize, &mut row);
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

    /// Router counters plus the temporal ring's own: epochs retained,
    /// evictions past the horizon, and on-demand reconstructions.
    pub fn counters(&self) -> ModeCounters {
        let mut c = self.inner.counters();
        c.epochs_retained = self.epochs_retained;
        c.epoch_evictions = self.epoch_evictions;
        c.epoch_reconstructions = self.epoch_reconstructions.load(Ordering::Relaxed);
        c
    }

    /// The wrapped router — fresh (unpublished) state, for the writer's
    /// own reads and introspection.
    pub fn sharded(&self) -> &ShardedSimRank {
        &self.inner
    }

    /// Mutable access to the wrapped router (escape hatch; remember that
    /// readers only see published epochs, and that mutations through this
    /// handle bypass the temporal ring's op recorder — matrix shards
    /// still diff correctly at the next publish, but matrix-free replay
    /// reconstruction will no longer match and reports a typed error).
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
    /// Worker-thread cap for the per-shard batch fan-out
    /// ([`ShardedSimRank::update_batch_with_threads`]).
    pub writer_threads: usize,
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
/// [`LoadOptions::write_batch`]-sized toggle batches — spread round-robin
/// across the shard blocks so the per-shard fan-out stays balanced —
/// publishing on the configured cadence and once more when the window
/// closes. Blocks until every thread has joined, even on writer error.
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
    // Toggle targets: the shard blocks (round-robin keeps the fan-out
    // balanced); blocks too small to toggle within (
    // < 2 ids, e.g. with more shards than nodes) fall back to the
    // whole id range.
    let partition = *serving.sharded().partition();
    let mut blocks: Vec<std::ops::Range<u32>> = (0..partition.shard_count())
        .map(|s| partition.owned_block(s, n))
        .filter(|r| r.end - r.start >= 2)
        .collect();
    if blocks.is_empty() {
        blocks.push(0..n as u32);
    }

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
            let ops = crate::datagen::updates::random_toggles_blocks(
                &mut shadow,
                &blocks,
                opts.write_batch,
                &mut rng,
            );
            if let Err(e) = serving.update_batch_with_threads(&ops, opts.writer_threads) {
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
    fn partition_blocks_and_clamps() {
        let p = ShardPartition::new(8, 2);
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(3), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.owner(7), 1);
        assert_eq!(p.owner(100), 1, "appended ids fall to the last shard");
        assert_eq!(p.pair_owner(6, 1), p.pair_owner(1, 6));
        // More shards than nodes: high shards own nothing, low ids map 1:1.
        let p = ShardPartition::new(3, 8);
        assert_eq!(p.shard_count(), 8);
        assert_eq!(p.owner(2), 2);
        assert_eq!(p.owner(9), 7);
        // Clamp: zero shards behaves as one.
        assert_eq!(ShardPartition::new(5, 0).shard_count(), 1);
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
        // Two 4-node components, one per shard: the exactness contract's
        // clean case. Updates stay within components.
        let g = fixture();
        let mut sharded = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(cfg())
            .shards(2)
            .build_sharded(g)
            .unwrap();
        sharded.insert(0, 3).unwrap();
        sharded.remove(6, 7).unwrap();
        sharded
            .update_batch(&[UpdateOp::Insert(4, 7), UpdateOp::Insert(1, 3)])
            .unwrap();
        let truth = batch_simrank(sharded.graph(), sharded.config());
        for a in 0..8u32 {
            for b in 0..8u32 {
                let got = sharded.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!(
                    (got - want).abs() < 1e-10,
                    "pair ({a},{b}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn cross_shard_updates_reach_both_owners() {
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .shards(2)
            .build_sharded(fixture())
            .unwrap();
        // Edge (1, 6): endpoints on different shards — two applications.
        let stats = sharded.insert(1, 6).unwrap();
        assert_eq!(stats.len(), 2);
        // Same-shard edge — one application.
        let stats = sharded.insert(0, 1).unwrap();
        assert_eq!(stats.len(), 1);
        assert!(sharded.graph().has_edge(1, 6));
        // Both owning shards saw the cross edge; the router graph is
        // authoritative either way.
        assert!(sharded.shard(0).graph().has_edge(1, 6));
        assert!(sharded.shard(1).graph().has_edge(1, 6));
    }

    #[test]
    fn shards_share_the_precomputed_matrix_until_they_write() {
        // 8 nodes over 4 shards: shard s owns nodes {2s, 2s + 1}.
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Eager)
            .shards(4)
            .build_sharded(fixture())
            .unwrap();
        let base = |r: &ShardedSimRank, s: usize| {
            r.shard(s)
                .view()
                .expect("dense shard")
                .base()
                .as_slice()
                .as_ptr()
        };
        let built = base(&sharded, 0);
        for s in 1..4 {
            assert_eq!(base(&sharded, s), built, "shard {s} copied at build");
        }
        // (0, 3) routes to shards 0 and 1, (6, 7) to shard 3; shard 2
        // sees no write.
        sharded.insert(0, 3).unwrap();
        sharded.remove(6, 7).unwrap();
        let after: Vec<_> = (0..4).map(|s| base(&sharded, s)).collect();
        assert_eq!(after[2], built, "an unwritten shard keeps the buffer");
        for s in [0, 1, 3] {
            assert_ne!(after[s], built, "shard {s} wrote into the shared buffer");
            for t in [0, 1, 3] {
                assert!(s == t || after[s] != after[t], "shards {s}, {t} alias");
            }
        }
    }

    #[test]
    fn invalid_batch_is_rejected_atomically() {
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .shards(2)
            .build_sharded(fixture())
            .unwrap();
        let before_edges = sharded.graph().edge_count();
        let err = sharded
            .update_batch(&[
                UpdateOp::Insert(0, 1),
                UpdateOp::Insert(0, 2), // duplicate: already present
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Update(UpdateError::Graph(_))));
        // Nothing applied anywhere — not even the valid prefix.
        assert_eq!(sharded.graph().edge_count(), before_edges);
        assert!(!sharded.graph().has_edge(0, 1));
        assert!(!sharded.shard(0).graph().has_edge(0, 1));
    }

    #[test]
    fn batch_dispatch_is_thread_count_invariant() {
        let ops = [
            UpdateOp::Insert(0, 1),
            UpdateOp::Insert(5, 7),
            UpdateOp::Delete(2, 3),
            UpdateOp::Insert(2, 6),
        ];
        let build = || {
            SimRankBuilder::new()
                .config(cfg())
                .mode(ApplyPolicy::Fused)
                .shards(3)
                .build_sharded(fixture())
                .unwrap()
        };
        let mut serial = build();
        let mut grouped = build();
        let mut parallel = build();
        let s1 = serial.update_batch_with_threads(&ops, 1).unwrap();
        // A cap below the busy-shard count exercises the grouped
        // dispatch (workers process several shards each, serially).
        let s2 = grouped.update_batch_with_threads(&ops, 2).unwrap();
        let s4 = parallel.update_batch_with_threads(&ops, 4).unwrap();
        assert_eq!(s1.len(), ops.len());
        assert_eq!(s2.len(), ops.len());
        assert_eq!(s4.len(), ops.len());
        for a in 0..8u32 {
            for b in 0..8u32 {
                assert_eq!(serial.pair(a, b), parallel.pair(a, b));
                assert_eq!(serial.pair(a, b), grouped.pair(a, b));
            }
        }
    }

    #[test]
    fn epoch_isolation_and_publish() {
        let mut serving = SimRankBuilder::new()
            .config(cfg())
            .shards(2)
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
        // The fresh epoch agrees with the writer's router.
        assert_eq!(reader.pair(0, 1), serving.sharded().pair(0, 1));
    }

    #[test]
    fn flush_publishes_and_lazy_delta_travels_into_epochs() {
        let mut serving = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Lazy)
            .shards(2)
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
        let sharded = SimRankBuilder::new()
            .config(cfg())
            .shards(3)
            .build_sharded(fixture())
            .unwrap();
        assert!(sharded.try_pair(0, 1).is_some());
        assert!(sharded.try_pair(0, 99).is_none());
        assert!(sharded.try_pair(99, 0).is_none());
        assert!(sharded.try_single_source(99).is_none());
        assert!(sharded.try_top_k(99, 3).is_none());
        let serving = ConcurrentSimRank::new(sharded);
        let epoch = serving.reader().epoch();
        assert!(epoch.try_pair(99, 0).is_none());
        assert!(epoch.try_top_k(99, 3).is_none());
    }

    #[test]
    fn counters_aggregate_across_shards() {
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Fused)
            .shards(2)
            .build_sharded(fixture())
            .unwrap();
        sharded.insert(0, 1).unwrap(); // shard 0 only
        sharded.insert(1, 6).unwrap(); // both shards
        sharded.pair(0, 1); // shard 0
        sharded.pair(5, 6); // shard 1
        let per = sharded.shard_counters();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].fused_updates, 2);
        assert_eq!(per[1].fused_updates, 1);
        let total = sharded.counters();
        assert_eq!(total.fused_updates, 3);
        assert_eq!(total.queries, per[0].queries + per[1].queries);
        assert_eq!(total.queries, 2);
    }

    #[test]
    fn recompressions_aggregate_across_shards_and_epochs_stay_exact() {
        let cfg = cfg();
        let mut serving = SimRankBuilder::new()
            .config(cfg)
            .mode(ApplyPolicy::Lazy)
            .compress_at_rank(cfg.iterations + 1)
            .shards(2)
            .concurrent(fixture())
            .unwrap();
        // Two updates per shard: the second hits each shard's threshold.
        for (i, j) in [(0u32, 1u32), (1, 3), (5, 7), (4, 5)] {
            serving.insert(i, j).unwrap();
        }
        let per = serving.sharded().shard_counters();
        let total = serving.sharded().counters();
        assert_eq!(
            total.recompressions,
            per.iter().map(|c| c.recompressions).sum::<usize>()
        );
        assert!(total.recompressions >= 2, "each shard recompressed once");
        assert_eq!(total.rank_cap_flushes, 0);
        assert!(serving.sharded().pending_rank() > 0, "windows stay open");
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
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .shards(2)
            .build_sharded(fixture())
            .unwrap();
        let id = sharded.add_node().unwrap();
        assert_eq!(id, 8);
        assert_eq!(sharded.graph().node_count(), 9);
        assert!(sharded.try_pair(8, 0).is_some());
        sharded.insert(8, 2).unwrap();
        assert!(sharded.pair(8, 8) > 0.0);
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
        // K = 8 keeps walks short; R below is large enough that the batch
        // truth sits well inside the 0.05 tolerance declared by the engine
        // docs for these sample counts.
        let cfg = SimRankConfig::new(0.6, 8).unwrap();
        let opts = ProbeOptions {
            walks: 3000,
            pair_walks: 20_000,
            prune: 0.0,
            seed: 7,
        };
        let sharded = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(cfg)
            .probe_options(opts)
            .shards(2)
            .build_sharded(g)
            .unwrap();
        for s in 0..sharded.shard_count() {
            assert!(sharded.shard(s).is_matrix_free());
        }
        assert_eq!(sharded.pending_rank(), 0);

        let mut concurrent = ConcurrentSimRank::new(sharded);
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

        // Cross-shard edge (shards own 0..4 and 4..7): both owners apply
        // it as a plain graph edit.
        let stats = concurrent.insert(0, 6).unwrap();
        assert_eq!(stats.len(), 2);
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

        // Counters: walk buckets only, never zero-stuffed apply modes.
        // (Epoch queries sample against their own frozen cores; hit the
        // live read path once so the shard's sampling tally moves.)
        let _ = concurrent.sharded().pair(0, 1);
        let c = concurrent.sharded().counters();
        assert_eq!(c.walk_updates, 3, "insert hit 2 shards, remove hit 1");
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
        // Fixture components are shard-aligned (0-3 / 4-7 over block 4);
        // the fault detonates inside shard 1's apply of edge (4, 5).
        let faults = ApplyFaults::panic_on_edge(4, 5);
        let mut sharded = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Eager)
            .shards(2)
            .fault_injection(Arc::clone(&faults))
            .build_sharded(fixture())
            .unwrap();
        let ops = [UpdateOp::Insert(0, 1), UpdateOp::Insert(4, 5)];
        let err = sharded.update_batch_with_threads(&ops, 2).unwrap_err();
        assert!(matches!(err, ServeError::ShardPanicked { shard: 1, .. }));
        assert!(faults.exhausted(), "the scheduled panic fired");

        // The healthy shard and the router graph committed the batch.
        assert!(sharded.graph().has_edge(0, 1) && sharded.graph().has_edge(4, 5));
        assert!(sharded.shard(0).graph().has_edge(0, 1));
        assert_eq!(sharded.quarantined_shards(), vec![1]);
        assert_eq!(sharded.counters().quarantines, 1);

        // Shard 0 keeps taking writes; shard 1 rejects with the typed,
        // retryable error, and checked reads degrade instead of serving
        // its torn engine state.
        sharded.insert(1, 3).unwrap();
        let err = sharded.insert(6, 5).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { shard: 1, .. }));
        assert!(matches!(
            sharded.checked_pair(4, 5),
            Err(ServeError::Degraded { shard: 1, .. })
        ));
        sharded.checked_pair(0, 1).unwrap();
        assert!(matches!(
            sharded.add_node(),
            Err(ServeError::Quarantined { .. })
        ));

        // Rebuild (no WAL here: recompute from the authoritative graph)
        // restores the shard and lifts the quarantine.
        sharded.rebuild_shard(1).unwrap();
        assert_eq!(sharded.shard_health(1), ShardHealth::Healthy);
        sharded.insert(6, 5).unwrap();
        let truth = batch_simrank(sharded.graph(), &cfg());
        let diff = (sharded.pair(4, 5) - truth.get(4, 5)).abs();
        assert!(diff < 1e-12, "rebuilt shard diverges: {diff}");
    }

    #[test]
    fn readers_survive_a_shard_crash_on_stale_epochs() {
        use crate::wal::faults::ApplyFaults;
        let faults = ApplyFaults::panic_on_edge(4, 5);
        let sharded = SimRankBuilder::new()
            .config(cfg())
            .shards(2)
            .fault_injection(faults)
            .build_sharded(fixture())
            .unwrap();
        let mut serving = ConcurrentSimRank::new(sharded);
        let reader = serving.reader();
        let before = reader.pair(4, 6);

        let err = serving.update_batch(&[UpdateOp::Insert(4, 5)]).unwrap_err();
        assert!(matches!(err, ServeError::ShardPanicked { shard: 1, .. }));

        // Publishing with a quarantined shard carries its last published
        // view over — readers never go down, answers are marked.
        serving.publish();
        let epoch = reader.epoch();
        assert!(epoch.any_degraded());
        assert!(epoch.degraded(1).is_some() && epoch.degraded(0).is_none());
        let (v, status) = epoch.pair_with_status(4, 6);
        assert_eq!(v, before, "stale answer is the pre-crash epoch's");
        assert!(matches!(status, ReadStatus::Degraded { shard: 1, .. }));
        let (_, fresh) = epoch.pair_with_status(0, 1);
        assert!(matches!(fresh, ReadStatus::Fresh));
        assert!(serving.sharded().counters().degraded_reads >= 1);

        // Rebuild + publish: readers leave the degraded view, and the
        // interrupted batch is there (it committed on the router).
        serving.rebuild_shard(1).unwrap();
        let epoch = reader.epoch();
        assert!(!epoch.any_degraded());
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
            .shards(2)
            .checkpoint_every(4)
            .wal(&path);

        let mut live = durable.clone().build_sharded(fixture()).unwrap();
        live.update_batch(&[UpdateOp::Insert(0, 1), UpdateOp::Insert(4, 5)])
            .unwrap();
        live.insert(1, 3).unwrap();
        live.add_node().unwrap(); // seq 4: cadence fires, per-shard images
        live.insert(8, 6).unwrap();
        let c = live.counters();
        assert_eq!(c.wal_appends, 5);
        assert_eq!(c.checkpoints, 3, "global base + one image per shard");
        assert_eq!(live.last_seq(), 5);
        assert_eq!(live.wal_path(), Some(path.as_path()));
        drop(live);

        // Re-opening the log overrides the supplied graph: the recovered
        // router resumes exactly where the dropped one stopped.
        let recovered = durable.clone().build_sharded(fixture()).unwrap();
        assert_eq!(recovered.graph().node_count(), 9);
        assert!(recovered.graph().has_edge(8, 6));
        assert_eq!(recovered.last_seq(), 5);
        // Only the post-checkpoint suffix replays, filtered by shard:
        // seq 5 = insert(8, 6), owned by shard 1 alone.
        assert_eq!(recovered.counters().replayed_ops, 1);

        // Bit-identical to an uncrashed trajectory under a fixed policy.
        let mut truth = SimRankBuilder::new()
            .config(cfg())
            .mode(ApplyPolicy::Fused)
            .shards(2)
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
            .shards(2)
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
            .shards(2)
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
        // Probe shards rehydrate by graph replay under the pinned seed:
        // recovered answers are bit-identical, not just close.
        assert_eq!(recovered.pair_at(0, 1, 0).unwrap(), pre_e0);
        assert_eq!(recovered.pair_at(4, 6, e1).unwrap(), pre_e1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_a_nonempty_log_skips_the_precompute() {
        let path = tmp_wal("reopen_precompute");
        let _ = std::fs::remove_file(&path);
        let durable = SimRankBuilder::new().config(cfg()).shards(2).wal(&path);
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
            .shards(2)
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
