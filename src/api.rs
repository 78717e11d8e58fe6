//! The `incsim` **service API**: one handle for the whole system.
//!
//! Dynamic-SimRank services expose three things — *update*, *query*,
//! *snapshot* — and nothing else. This module is that surface: a
//! [`SimRank`] handle built with [`SimRankBuilder`], dispatching over
//! either served engine ([`EngineKind::IncSr`] or [`EngineKind::Probe`])
//! behind the object-safe [`SimRankMaintainer`] capability bundle.
//! Callers never pick an engine struct, never choose between "plain" and
//! "lazy" query functions, and never have to remember to `flush()`:
//!
//! * **Updates** go through [`SimRank::update`] / [`SimRank::insert`] /
//!   [`SimRank::remove`] / [`SimRank::update_batch`].
//! * **Queries** ([`SimRank::pair`], [`SimRank::single_source`],
//!   [`SimRank::top_k`], [`SimRank::similar_above`]) dispatch through the
//!   engine's query capabilities. Matrix-backed engines answer through a
//!   [`ScoreView`] composing `S_base + pending ΔS`, so the answers are
//!   identical under every [`ApplyPolicy`] — a deferred update can never
//!   be observed as a stale score. The matrix-free
//!   [`EngineKind::Probe`] engine computes single-source, top-k and
//!   threshold answers exactly from the truncated series on demand, and
//!   samples pair answers within a documented `(1 ± ε)`.
//! * **Snapshots** ([`SimRank::snapshot`] / [`SimRankBuilder::from_snapshot`])
//!   materialise pending ΔS and persist `(graph, scores, config)`.
//!
//! Dense-matrix extras — [`SimRank::scores`], [`SimRank::view`],
//! [`SimRank::snapshot_view`], [`SimRank::snapshot`] — require the
//! engine's `MatrixAccess` capability and return
//! `Result`/`Option`/[`SnapshotError::Unsupported`] when it is absent
//! (they never panic); everything else works on every engine.
//!
//! ## Apply policies
//!
//! [`ApplyPolicy`] decides how each update's rank-two ΔS terms reach the
//! score matrix (see [`incsim_linalg::LowRankDelta`] for the mechanism):
//!
//! * [`ApplyPolicy::Eager`] — every term applied immediately (`K+1` full
//!   sweeps per unit update; the paper's algorithms as written). Wins when
//!   the score matrix is DAG-sparse: the sweeps zero-skip most rows.
//! * [`ApplyPolicy::Fused`] — terms buffered and folded in with **one**
//!   cache-blocked parallel sweep per update call (a batch shares a single
//!   sweep). Wins on dense score matrices, where eager sweeps are
//!   memory-bound full passes.
//! * [`ApplyPolicy::Lazy`] — no sweep at all; queries read `S_base + Δ`
//!   in `O(r)` per pair. Wins in query-heavy windows with occasional
//!   updates; the handle flushes automatically when the buffered rank
//!   would make queries dearer than one materialisation.
//! * [`ApplyPolicy::Auto`] (the default) — picks one of the above **per
//!   update** from measured workload signals:
//!   - the previous update's γ-vector density (`UpdateStats::gamma_density`):
//!     below [`SimRank::AUTO_SPARSE_GAMMA`] the scores are DAG-sparse and
//!     **eager** wins;
//!   - queries observed since the last update: at least
//!     [`SimRank::AUTO_QUERY_HEAVY`] of them routes to **lazy** (the
//!     window is query-dominated, so defer the `n²` work);
//!   - everything else routes to **fused**; batches of ≥ 2 ops always
//!     route to **fused** (one shared sweep);
//!   - whenever the pending ΔS rank reaches `auto_flush_rank` (default
//!     `8·(K+1)`), the buffer is bounded: in a query-dominated window it
//!     is **recompressed in place** to its numerical rank (see below),
//!     and materialised only when compression cannot keep it meaningfully
//!     under the cap (it failed to get under it, or — per the doubling
//!     hysteresis — the rank has plateaued against it) — so lazy queries
//!     stay `O(rank)` and memory stops growing without churning the
//!     buffer through a refactorisation per update.
//!
//!   Every decision is recorded: per update in
//!   [`UpdateStats::applied_mode`], cumulatively in
//!   [`SimRank::counters`].
//!
//! ## Rank-truncating recompression
//!
//! A long lazy window buffers `r = b·(K+1)` factor pairs over `b`
//! updates, but the *numerical* rank of ΔS is usually far smaller.
//! [`SimRankBuilder::compress_at_rank`] arms in-place recompression (for
//! the `Lazy` and `Auto` policies): whenever the pending rank reaches the
//! threshold — and, after the first pass, has doubled past the previous
//! compressed rank (hysteresis: amortized `O(1)` work per buffered pair,
//! buffer bounded by twice its numerical rank) — the buffer is rewritten
//! at its numerical rank via thin QR + a symmetric eigensolve, truncated
//! at
//! [`SimRankBuilder::compress_tol`] (relative to the largest `|λ|`;
//! default [`SimRank::DEFAULT_COMPRESS_TOL`]). Compressed buffers remain
//! ordinary factor pairs, so every consumer — fused apply, [`ScoreView`],
//! epoch publication in [`crate::serve`] — works unchanged. `Auto` also
//! recompresses *without* the explicit knob when a query-dominated window
//! hits the flush cap (see above). Every pass is counted in
//! [`ModeCounters::recompressions`].
//!
//! ## Accuracy
//!
//! The policy changes the cost of an update, never its answer: the
//! deferred-apply subsystem is exact, and every policy reads the same
//! scores up to rounding. How close those scores stay to batch
//! recomputation *at the same `K`* is measured, not assumed:
//!
//! * at `K = 60`, within 1e-12 after every step of short ER and R-MAT
//!   streams, under all four policies (`tests/api_conformance.rs`, and
//!   `tests/serve_conformance.rs` through the serving handle);
//! * at `K = 90`, within 1e-8 after streams of 25–30 ops
//!   (`tests/exactness.rs`);
//! * at the serving `K = 15`, on a DAG, to rounding: the `e2ebench`
//!   `citation-growth` check `head_vs_batch` reads at most 1.1e-14;
//! * at `K = 15` on a cyclic graph, each update's ΔS is itself a `K`-term
//!   series, so the head drifts from batch by more than rounding: the
//!   `churn-durable` check `head_vs_batch` reads up to 9e-7 after 408
//!   toggles at n = 256 (its tolerance is 1e-5).
//!
//! ## Example
//!
//! ```
//! use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
//! use incsim::core::SimRankConfig;
//! use incsim::graph::DiGraph;
//!
//! let g = DiGraph::from_edges(5, &[(2, 0), (2, 1), (0, 3), (1, 4)]);
//! let mut sim = SimRankBuilder::new()
//!     .algorithm(EngineKind::IncSr)
//!     .mode(ApplyPolicy::Auto)
//!     .config(SimRankConfig::new(0.6, 15).unwrap())
//!     .from_graph(g)
//!     .unwrap();
//!
//! sim.insert(2, 4).unwrap();              // update
//! let s = sim.pair(0, 4);                 // query — any time, any policy
//! let top = sim.top_k(0, 3);
//! assert!(s > 0.0 && top.len() == 3);
//! ```

use crate::core::query::RankedNode;
use crate::core::snapshot::{load, save_engine, Snapshot, SnapshotError};
use crate::core::{
    batch_simrank, ApplyMode, CapabilityError, IncSr, ProbeOptions, ProbeSim, ScoreSnapshot,
    ScoreView, SimRankConfig, SimRankMaintainer, SnapshotQuery, UpdateError, UpdateStats,
};
use crate::graph::{DiGraph, UpdateOp};
use crate::linalg::DenseMatrix;
use crate::wal::faults::{ApplyFaults, FaultEngine};
use std::cell::Cell;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which maintenance algorithm backs the service handle.
///
/// The paper's ablation (Inc-uSR, [`incsim_core::IncUSr`]) and its
/// competitor (Inc-SVD, [`incsim_baselines::IncSvd`]) are not served:
/// the figure benches and the exactness suites build them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Algorithm 2 (**Inc-SR**): exact ΔS with lossless affected-area
    /// pruning — the paper's headline engine and the default.
    #[default]
    IncSr,
    /// The **Probe** engine: matrix-free, on the graph alone (see
    /// [`incsim_core::probe`]). `O(n + m)` state and `O(deg)` updates.
    /// Single-source, top-k and threshold reads compute their column of
    /// the K-truncated series exactly in `O(K·(n + m))`; pair reads are
    /// sampled within a documented `(1 ± ε)` of the batch scores. The
    /// only engine here that scales past dense-matrix memory. No
    /// [`MatrixAccess`](incsim_core::MatrixAccess): the dense-matrix
    /// extras return their documented absence values.
    Probe,
}

impl EngineKind {
    /// `true` for engines that keep no dense score matrix (no
    /// [`MatrixAccess`](incsim_core::MatrixAccess) capability): no batch
    /// precomputation at build time, sampled `(1 ± ε)` pair answers, and
    /// the dense-matrix extras on [`SimRank`] report absence.
    pub fn is_matrix_free(self) -> bool {
        matches!(self, EngineKind::Probe)
    }
}

/// How deferred ΔS terms are applied — see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApplyPolicy {
    /// Always apply immediately (`K+1` sweeps per unit update).
    Eager,
    /// Always one fused sweep per update call.
    Fused,
    /// Never apply automatically; the handle flushes only when the
    /// buffered rank reaches its cap or a consumer needs the full matrix.
    Lazy,
    /// Pick eager/fused/lazy per update from measured workload signals.
    #[default]
    Auto,
}

/// Errors from [`SimRankBuilder`] construction.
#[derive(Debug)]
pub enum BuildError {
    /// `with_scores` got a matrix that is not `n × n` for the graph.
    ShapeMismatch {
        /// The graph's node count.
        nodes: usize,
        /// The offered matrix's rows.
        rows: usize,
        /// The offered matrix's columns.
        cols: usize,
    },
    /// The engine rejected an op while the handle was being built: an
    /// op replayed from a write-ahead log failed to apply.
    Engine(UpdateError),
    /// A snapshot failed to decode.
    Snapshot(SnapshotError),
    /// A durable build could not attach or recover its write-ahead log
    /// (boxed: `WalError` can itself carry a `BuildError`).
    Wal(Box<crate::wal::WalError>),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ShapeMismatch { nodes, rows, cols } => write!(
                f,
                "score matrix is {rows}x{cols} but the graph has {nodes} nodes"
            ),
            BuildError::Engine(e) => write!(f, "engine construction failed: {e}"),
            BuildError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            BuildError::Wal(e) => write!(f, "write-ahead log rejected: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SnapshotError> for BuildError {
    fn from(e: SnapshotError) -> Self {
        BuildError::Snapshot(e)
    }
}

impl From<crate::wal::WalError> for BuildError {
    fn from(e: crate::wal::WalError) -> Self {
        BuildError::Wal(Box::new(e))
    }
}

/// Builder for a [`SimRank`] service handle.
///
/// Defaults: [`EngineKind::IncSr`], [`ApplyPolicy::Auto`],
/// [`SimRankConfig::paper_default`].
///
/// # Examples
/// ```
/// use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
/// use incsim::core::SimRankConfig;
/// use incsim::graph::DiGraph;
///
/// let g = DiGraph::from_edges(4, &[(0, 1), (2, 1), (1, 3)]);
/// let mut sim = SimRankBuilder::new()
///     .algorithm(EngineKind::IncSr)
///     .mode(ApplyPolicy::Auto)
///     .config(SimRankConfig::new(0.6, 8).unwrap())
///     .from_graph(g)
///     .unwrap();
/// sim.insert(3, 0).unwrap();                 // maintain incrementally …
/// let s = sim.pair(0, 2);                    // … and query any pair
/// assert!(s.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SimRankBuilder {
    kind: EngineKind,
    policy: ApplyPolicy,
    cfg: SimRankConfig,
    probe_opts: ProbeOptions,
    auto_flush_rank: Option<usize>,
    compress_rank: Option<usize>,
    compress_tol: Option<f64>,
    wal_path: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    faults: Option<Arc<ApplyFaults>>,
    retain_epochs: Option<usize>,
    epoch_delta_tol: Option<f64>,
}

impl Default for SimRankBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimRankBuilder {
    /// Starts from the defaults (Inc-SR, `Auto`, paper config).
    pub fn new() -> Self {
        SimRankBuilder {
            kind: EngineKind::default(),
            policy: ApplyPolicy::default(),
            cfg: SimRankConfig::paper_default(),
            probe_opts: ProbeOptions::default(),
            auto_flush_rank: None,
            compress_rank: None,
            compress_tol: None,
            wal_path: None,
            checkpoint_every: None,
            faults: None,
            retain_epochs: None,
            epoch_delta_tol: None,
        }
    }

    /// Selects the maintenance algorithm.
    pub fn algorithm(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the apply policy (default [`ApplyPolicy::Auto`]).
    pub fn mode(mut self, policy: ApplyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the SimRank configuration (damping `C`, iterations `K`).
    pub fn config(mut self, cfg: SimRankConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pair-sampling options for the [`EngineKind::Probe`] engine — walk
    /// pairs per pair read and the RNG seed (ignored otherwise). Its
    /// ranked reads are exact and take no options.
    pub fn probe_options(mut self, opts: ProbeOptions) -> Self {
        self.probe_opts = opts;
        self
    }

    /// The selected engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Pending-ΔS rank at which deferred buffers are force-materialised
    /// (default `8·(K+1)`). Applies to the `Lazy` and `Auto` policies.
    pub fn flush_at_rank(mut self, rank: usize) -> Self {
        self.auto_flush_rank = Some(rank.max(1));
        self
    }

    /// Pending-ΔS rank at which deferred buffers are **recompressed in
    /// place** to their numerical rank instead of growing (see the
    /// [module docs](self)). Applies to the `Lazy` and `Auto` policies;
    /// the [`Self::flush_at_rank`] cap still materialises as the last
    /// resort when the numerical rank itself exceeds it. Pick a threshold
    /// well below `n/2` so compression stays on its cheap thin-QR route.
    ///
    /// Re-compression is hysteretic: after a pass leaves `ρ` pairs
    /// behind, the next one waits until the buffer reaches
    /// `max(rank, 2·ρ)` — each pass therefore processes at least half
    /// fresh material and the cost stays amortized `O(1)` per buffered
    /// pair, while the buffer is bounded by twice its numerical rank.
    pub fn compress_at_rank(mut self, rank: usize) -> Self {
        self.compress_rank = Some(rank.max(1));
        self
    }

    /// Relative spectral tolerance of the recompression: eigendirections
    /// of the pending ΔS with `|λ| ≤ tol · |λ|_max` are discarded
    /// (default [`SimRank::DEFAULT_COMPRESS_TOL`]). The convention
    /// matches `rank_qrcp` / `Svd::rank`, so the tolerance means the same
    /// thing on small-magnitude deltas as on unit-scale ones.
    pub fn compress_tol(mut self, tol: f64) -> Self {
        self.compress_tol = Some(tol.max(0.0));
        self
    }

    /// Runs the serving terminals ([`Self::build_sharded`] /
    /// [`Self::concurrent`]) **durably**: every accepted update is
    /// appended to a write-ahead log at `path` before it is applied, and
    /// engine checkpoints are embedded every [`Self::checkpoint_every`]
    /// ops (see [`crate::wal`] for the format, the durability contract,
    /// and recovery). Opening an existing log recovers it: a torn tail is
    /// truncated and the suffix after the newest checkpoint is replayed.
    /// Ignored by the single-handle terminals.
    pub fn wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal_path = Some(path.into());
        self
    }

    /// Checkpoint cadence of the write-ahead log: a full engine image is
    /// embedded after every `n` logged ops (default
    /// [`crate::serve::DEFAULT_CHECKPOINT_EVERY`]). Smaller `n` bounds
    /// replay time after a crash; larger `n` bounds log growth and
    /// checkpoint I/O. No effect without [`Self::wal`].
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n.max(1));
        self
    }

    /// Wires a scheduled mid-apply panic
    /// ([`crate::wal::faults::ApplyFaults`]) into every engine this
    /// builder constructs — the deterministic crash harness used by the
    /// fault-injection tests. The schedule is shared by every engine
    /// built from this builder (clones included), so an engine rebuilt
    /// after a quarantine continues the same countdown.
    pub fn fault_injection(mut self, faults: Arc<ApplyFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Number of epochs the concurrent serving handle keeps addressable
    /// for time-travel queries: [`ConcurrentSimRank::publish`] retains
    /// the last `e` published epochs in a bounded ring, each non-head
    /// epoch stored as a factor-compressed delta against its successor
    /// (`O(r·n)` instead of an `n²` copy — see
    /// [`crate::serve`](crate::serve#temporal-epoch-ring)). Default 1:
    /// only the live epoch, no retention overhead at all. Only the
    /// [`Self::concurrent`] terminal reads this knob.
    ///
    /// [`ConcurrentSimRank::publish`]: crate::serve::ConcurrentSimRank::publish
    pub fn retain_epochs(mut self, e: usize) -> Self {
        self.retain_epochs = Some(e.max(1));
        self
    }

    /// Relative spectral tolerance of the inter-epoch delta compression
    /// (default [`crate::serve::DEFAULT_EPOCH_DELTA_TOL`]): retained
    /// deltas drop eigendirections with `|λ| ≤ tol·|λ|_max`, the same
    /// convention as [`Self::compress_tol`]. Tighter keeps reconstructed
    /// epochs closer to the recorded trajectory; looser stores less. No
    /// effect without [`Self::retain_epochs`] ≥ 2.
    pub fn epoch_delta_tol(mut self, tol: f64) -> Self {
        self.epoch_delta_tol = Some(tol.max(0.0));
        self
    }

    /// The configured epoch-retention depth (default 1 = head only).
    pub(crate) fn retained_epochs(&self) -> usize {
        self.retain_epochs.unwrap_or(1)
    }

    /// The epoch-delta tolerance (default applied).
    pub(crate) fn epoch_delta_tolerance(&self) -> f64 {
        self.epoch_delta_tol
            .unwrap_or(crate::serve::DEFAULT_EPOCH_DELTA_TOL)
    }

    /// The configured WAL path, if durable serving was requested.
    pub(crate) fn wal_path(&self) -> Option<&Path> {
        self.wal_path.as_deref()
    }

    /// The checkpoint cadence (default applied).
    pub(crate) fn checkpoint_cadence(&self) -> u64 {
        self.checkpoint_every
            .unwrap_or(crate::serve::DEFAULT_CHECKPOINT_EVERY)
    }

    /// Terminal: builds the serving write path
    /// ([`ShardedSimRank`](crate::serve::ShardedSimRank)) around one
    /// engine, batch-computing its initial scores. Matrix-free kinds skip
    /// the precomputation entirely (no `n²` allocation anywhere on the
    /// path), and so does a reopened non-empty [`Self::wal`], which
    /// rebuilds from its own checkpoints.
    pub fn build_sharded(self, graph: DiGraph) -> Result<crate::serve::ShardedSimRank, BuildError> {
        let (cfg, matrix_free) = (self.cfg, self.kind.is_matrix_free());
        crate::serve::ShardedSimRank::build_internal(self, graph, |g| {
            (!matrix_free).then(|| batch_simrank(g, &cfg))
        })
    }

    /// Terminal: builds a
    /// [`ConcurrentSimRank`](crate::serve::ConcurrentSimRank) — the
    /// single-writer/many-reader serving handle — over
    /// [`Self::build_sharded`]'s write path.
    pub fn concurrent(self, graph: DiGraph) -> Result<crate::serve::ConcurrentSimRank, BuildError> {
        Ok(crate::serve::ConcurrentSimRank::new(
            self.build_sharded(graph)?,
        ))
    }

    /// Builds the handle, batch-computing the initial scores from `graph`
    /// (the paper's workflow: precompute once, then maintain forever).
    /// Matrix-free kinds ([`EngineKind::Probe`]) skip the `O(K·d·n²)`
    /// precomputation — and its `n²` allocation — entirely.
    pub fn from_graph(self, graph: DiGraph) -> Result<SimRank, BuildError> {
        if self.kind.is_matrix_free() {
            let engine = self.make_engine(graph, None);
            return Ok(SimRank::from_engine(engine, self));
        }
        let scores = batch_simrank(&graph, &self.cfg);
        self.with_scores(graph, scores)
    }

    /// Builds the handle from a graph and **pre-computed** scores (e.g. a
    /// restored checkpoint), skipping the batch precomputation.
    ///
    /// [`EngineKind::Probe`] keeps no scores at all, so for it the offered
    /// matrix is only shape-checked and then discarded.
    pub fn with_scores(self, graph: DiGraph, scores: DenseMatrix) -> Result<SimRank, BuildError> {
        let n = graph.node_count();
        if scores.rows() != n || scores.cols() != n {
            return Err(BuildError::ShapeMismatch {
                nodes: n,
                rows: scores.rows(),
                cols: scores.cols(),
            });
        }
        let engine = self.make_engine(graph, Some(Arc::new(scores)));
        Ok(SimRank::from_engine(engine, self))
    }

    /// Constructs the bare engine. `scores` of `None` means "compute if
    /// the kind needs them", so a matrix-free engine never sees (or pays
    /// for) an `n²` buffer.
    fn make_engine(
        &self,
        graph: DiGraph,
        scores: Option<Arc<DenseMatrix>>,
    ) -> Box<dyn SimRankMaintainer + Send> {
        let engine: Box<dyn SimRankMaintainer + Send> = match self.kind {
            EngineKind::IncSr => {
                let s = scores.unwrap_or_else(|| Arc::new(batch_simrank(&graph, &self.cfg)));
                Box::new(IncSr::new(graph, s, self.cfg))
            }
            EngineKind::Probe => Box::new(ProbeSim::with_options(graph, self.cfg, self.probe_opts)),
        };
        match &self.faults {
            Some(f) => Box::new(FaultEngine::new(engine, f.clone())),
            None => engine,
        }
    }

    /// Builds the handle from a checkpoint previously written by
    /// [`SimRank::snapshot`].
    pub fn from_snapshot<R: Read>(mut self, r: R) -> Result<SimRank, BuildError> {
        let Snapshot {
            graph,
            scores,
            config,
        } = load(r)?;
        self.cfg = config;
        self.with_scores(graph, scores)
    }
}

/// Cumulative apply-policy accounting — how often each route ran and why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCounters {
    /// Unit updates applied eagerly.
    pub eager_updates: usize,
    /// Unit updates applied through a fused sweep.
    pub fused_updates: usize,
    /// Unit updates deferred into the factor buffer.
    pub lazy_updates: usize,
    /// Forced materialisations because the pending rank hit its cap.
    pub rank_cap_flushes: usize,
    /// In-place rank-truncating recompressions of the pending ΔS buffer
    /// (each one kept a lazy window open that would otherwise have been
    /// materialised or kept growing).
    pub recompressions: usize,
    /// Queries served (all paths: pair, single-source, top-k, view).
    pub queries: usize,
    /// Updates absorbed by engines without an apply pipeline (matrix-free
    /// walk engines): pure graph edits, **not** double-counted in the
    /// eager/fused/lazy buckets — those stay strictly "ΔS apply routes".
    pub walk_updates: u64,
    /// Reverse walks sampled by matrix-free engines while answering pair
    /// queries (both sides of a pair count). Ranked reads sample nothing.
    pub walks_sampled: u64,
    /// In-edges visited by the exact series passes of matrix-free engines
    /// while answering single-source / top-k / threshold queries.
    pub probe_expansions: u64,
    /// Ops appended to the write-ahead log (durable serving only).
    pub wal_appends: u64,
    /// Engine checkpoints embedded in the write-ahead log.
    pub checkpoints: u64,
    /// Ops replayed from the log during recovery or a quarantine rebuild.
    pub replayed_ops: u64,
    /// Quarantines of the serving handle: each one a failed or panicking
    /// engine apply. (A failed log append returns `ServeError::Wal` and
    /// applies nothing, so it never quarantines.)
    pub quarantines: u64,
    /// Reads served from a stale epoch view because the handle was
    /// quarantined (each one carried a typed `Degraded` status).
    pub degraded_reads: u64,
    /// Epochs demoted into the temporal ring at publish (each stored as a
    /// factor-compressed delta against its successor).
    pub epochs_retained: u64,
    /// Retained epochs evicted at the ring boundary.
    pub epoch_evictions: u64,
    /// On-demand reconstructions of a retained epoch into a pinned
    /// queryable handle (`epoch_at` and the `*_at` conveniences).
    pub epoch_reconstructions: u64,
}

impl ModeCounters {
    /// Accumulates `other` into `self`: field-wise sums, so counters from
    /// several handles (or runs) combine into one tally.
    pub fn merge(&mut self, other: &ModeCounters) {
        self.eager_updates += other.eager_updates;
        self.fused_updates += other.fused_updates;
        self.lazy_updates += other.lazy_updates;
        self.rank_cap_flushes += other.rank_cap_flushes;
        self.recompressions += other.recompressions;
        self.queries += other.queries;
        self.walk_updates += other.walk_updates;
        self.walks_sampled += other.walks_sampled;
        self.probe_expansions += other.probe_expansions;
        self.wal_appends += other.wal_appends;
        self.checkpoints += other.checkpoints;
        self.replayed_ops += other.replayed_ops;
        self.quarantines += other.quarantines;
        self.degraded_reads += other.degraded_reads;
        self.epochs_retained += other.epochs_retained;
        self.epoch_evictions += other.epoch_evictions;
        self.epoch_reconstructions += other.epoch_reconstructions;
    }
}

/// The service handle: update / query / snapshot over any engine. Build
/// with [`SimRankBuilder`]; see the [module docs](self) for the policy
/// semantics.
pub struct SimRank {
    engine: Box<dyn SimRankMaintainer + Send>,
    policy: ApplyPolicy,
    counters: ModeCounters,
    // Query traffic since the last update; `Cell` because query methods
    // take `&self` (reads never need exclusive access to the scores).
    queries_since_update: Cell<usize>,
    // γ density of the most recent update (seeded from the base matrix's
    // own density, the best prior before any update has run).
    last_gamma_density: f64,
    flush_rank: usize,
    compress_rank: Option<usize>,
    compress_tol: f64,
    // Rank the last recompression left behind (0 = none since the last
    // flush). The explicit compress_at_rank path re-arms only once the
    // buffer doubles past this floor, so an incompressible window is
    // never refactorised update after update — compression cost stays
    // amortized O(1) per buffered pair.
    compressed_floor: usize,
}

impl SimRank {
    /// Auto routes to **eager** when the previous γ density is below this
    /// (the score matrix is DAG-sparse, so zero-skip sweeps are cheap).
    pub const AUTO_SPARSE_GAMMA: f64 = 0.25;
    /// Auto routes to **lazy** when at least this many queries arrived
    /// since the previous update (query-heavy window).
    pub const AUTO_QUERY_HEAVY: usize = 4;
    /// Default relative spectral tolerance of the ΔS recompression. Tight
    /// enough that a full serving window of recompressions stays well
    /// inside the 1e-12 exactness bar; override with
    /// [`SimRankBuilder::compress_tol`].
    pub const DEFAULT_COMPRESS_TOL: f64 = 1e-13;

    fn from_engine(engine: Box<dyn SimRankMaintainer + Send>, b: SimRankBuilder) -> Self {
        // γ-density prior: the base matrix's own density where there is
        // one. A matrix-free engine has no apply pipeline to route, so
        // the prior is inert — 1.0 keeps the signal well-defined.
        let last_gamma_density = match engine.matrix() {
            Some(m) => {
                let n = m.base_scores().rows();
                let nnz = m.base_scores().count_nonzero(b.cfg.zero_tol);
                nnz as f64 / ((n * n).max(1)) as f64
            }
            None => 1.0,
        };
        let mut svc = SimRank {
            engine,
            policy: b.policy,
            counters: ModeCounters::default(),
            queries_since_update: Cell::new(0),
            last_gamma_density,
            flush_rank: b.auto_flush_rank.unwrap_or(8 * (b.cfg.iterations + 1)),
            compress_rank: b.compress_rank,
            compress_tol: b.compress_tol.unwrap_or(Self::DEFAULT_COMPRESS_TOL),
            compressed_floor: 0,
        };
        // Fixed policies pin the engine mode once, up front (a no-op for
        // engines without deferred-apply state).
        if let Some(m) = svc.engine.matrix_mut() {
            match svc.policy {
                ApplyPolicy::Eager => m.set_mode(ApplyMode::Eager),
                ApplyPolicy::Fused => m.set_mode(ApplyMode::Fused),
                ApplyPolicy::Lazy | ApplyPolicy::Auto => {}
            }
        }
        svc
    }

    /// `true` when the engine keeps no dense score matrix (no
    /// `MatrixAccess` capability): the dense-matrix extras below report
    /// absence, and the apply-policy machinery is inert.
    pub fn is_matrix_free(&self) -> bool {
        self.engine.matrix().is_none()
    }

    fn missing_matrix(&self) -> CapabilityError {
        CapabilityError {
            engine: self.engine.name(),
            capability: "MatrixAccess",
        }
    }

    // ---- updates ------------------------------------------------------

    /// Applies one link update, routing it per the active policy. On a
    /// matrix-free engine the policy is inert: the update is a pure graph
    /// edit regardless.
    pub fn update(&mut self, op: UpdateOp) -> Result<UpdateStats, UpdateError> {
        let mode = self.route_unit();
        if let Some(m) = self.engine.matrix_mut() {
            m.set_mode(mode);
        }
        let stats = self.engine.apply(op)?;
        self.note_update(&stats);
        Ok(stats)
    }

    /// Inserts edge `(i, j)` and updates all scores.
    pub fn insert(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.update(UpdateOp::Insert(i, j))
    }

    /// Deletes edge `(i, j)` and updates all scores.
    pub fn remove(&mut self, i: u32, j: u32) -> Result<UpdateStats, UpdateError> {
        self.update(UpdateOp::Delete(i, j))
    }

    /// Applies a batch `ΔG`. Under `Auto` (and `Fused`) a batch of `b ≥ 2`
    /// ops shares **one** fused sweep; under `Eager` each op follows the
    /// fixed policy; under `Lazy` the ops are routed one at a time so the
    /// pending-rank cap is enforced *inside* the batch (a lazy batch has
    /// no shared-sweep benefit to lose — nothing is swept at all). Stops
    /// at the first invalid op, leaving the engine consistent with the
    /// ops applied so far.
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> Result<Vec<UpdateStats>, UpdateError> {
        let mode = match (self.policy, ops.len()) {
            (_, 0) => return Ok(Vec::new()),
            (ApplyPolicy::Auto, n) if n >= 2 => ApplyMode::Fused,
            _ => self.route_unit(),
        };
        if mode == ApplyMode::Lazy {
            let mut stats = Vec::with_capacity(ops.len());
            for &op in ops {
                stats.push(self.update(op)?);
            }
            return Ok(stats);
        }
        if let Some(m) = self.engine.matrix_mut() {
            m.set_mode(mode);
        }
        let result = self.engine.apply_batch(ops);
        match &result {
            Ok(stats) => {
                for s in stats {
                    self.note_update(s);
                }
            }
            Err(_) => {
                // The prefix before the invalid op *was* applied (and any
                // fused buffer flushed); the engines do not report its
                // per-op stats on the error path, so the per-mode counters
                // cannot itemise it — but the query window did end, so
                // reset it to keep the adaptive routing signal honest.
                self.counters.queries += self.queries_since_update.get();
                self.queries_since_update.set(0);
            }
        }
        result
    }

    /// Appends an isolated node, growing the score matrix.
    pub fn add_node(&mut self) -> u32 {
        self.engine.add_node()
    }

    /// Picks the [`ApplyMode`] for the next unit update.
    fn route_unit(&mut self) -> ApplyMode {
        // Bound the deferred rank first — preferably by recompressing the
        // buffer to its numerical rank (the lazy window stays open, query
        // cost drops to O(rank), memory plateaus), materialising only
        // when compression is not armed or cannot get back under the cap.
        if matches!(self.policy, ApplyPolicy::Lazy | ApplyPolicy::Auto) {
            let policy = self.policy;
            let flush_rank = self.flush_rank;
            let compress_rank = self.compress_rank;
            let compress_tol = self.compress_tol;
            let queries = self.queries_since_update.get();
            // Matrix-free engines have no deferred buffer to bound.
            if let Some(m) = self.engine.matrix_mut() {
                let pending = m.pending_rank();
                // Compression never grows the buffer and pushes only grow
                // it, so pending below the floor proves a flush ran behind
                // our back (an engine-internal one: a mode-change
                // materialisation, `scores()`, `snapshot()`): the
                // hysteresis floor is stale — drop it so the fresh window
                // compresses on schedule.
                if pending < self.compressed_floor {
                    self.compressed_floor = 0;
                }
                // Doubling hysteresis on both trigger paths: once a
                // compression has run, wait until the buffer doubles past
                // its result before paying for another pass — a window
                // whose numerical rank plateaus (whether incompressible or
                // merely barely-compressible) is not refactorised per
                // update.
                let rearmed = pending >= 2 * self.compressed_floor;
                let compress_now = match compress_rank {
                    Some(rank) => pending >= rank && rearmed,
                    // Auto without the explicit knob: at the flush cap of
                    // a query-dominated window, recompression is the
                    // cheaper way to keep serving lazily; when the
                    // hysteresis says a pass would not shrink the buffer
                    // meaningfully, the flush below bounds it instead.
                    None => {
                        policy == ApplyPolicy::Auto
                            && pending >= flush_rank
                            && rearmed
                            && queries >= Self::AUTO_QUERY_HEAVY
                    }
                };
                if compress_now && pending > 0 {
                    self.compressed_floor = m.compress_pending(compress_tol);
                    self.counters.recompressions += 1;
                }
                if m.pending_rank() >= flush_rank {
                    m.flush();
                    self.counters.rank_cap_flushes += 1;
                    self.compressed_floor = 0;
                }
            }
        }
        match self.policy {
            ApplyPolicy::Eager => ApplyMode::Eager,
            ApplyPolicy::Fused => ApplyMode::Fused,
            ApplyPolicy::Lazy => ApplyMode::Lazy,
            ApplyPolicy::Auto => {
                let queries = self.queries_since_update.get();
                if queries >= Self::AUTO_QUERY_HEAVY {
                    // Query-dominated window: defer the n² work entirely.
                    ApplyMode::Lazy
                } else if self.last_gamma_density < Self::AUTO_SPARSE_GAMMA {
                    // DAG-sparse scores: eager zero-skip sweeps are cheap,
                    // and buffering would only add factor traffic.
                    ApplyMode::Eager
                } else {
                    // Dense scores: one fused sweep beats K+1 eager ones.
                    ApplyMode::Fused
                }
            }
        }
    }

    fn note_update(&mut self, stats: &UpdateStats) {
        self.counters.queries += self.queries_since_update.get();
        self.queries_since_update.set(0);
        // Matrix-free updates are pure graph edits: no ΔS was applied in
        // *any* mode, so crediting an eager/fused/lazy bucket would
        // misreport. They are accounted as `walk_updates` instead (read
        // back from the engine's own stats in [`Self::counters`]); the
        // γ-density signal likewise stays untouched.
        if self.engine.matrix().is_none() {
            return;
        }
        self.last_gamma_density = stats.gamma_density;
        match stats.applied_mode {
            ApplyMode::Eager => self.counters.eager_updates += 1,
            ApplyMode::Fused => self.counters.fused_updates += 1,
            ApplyMode::Lazy => self.counters.lazy_updates += 1,
        }
    }

    // ---- queries ------------------------------------------------------

    fn count_query(&self) {
        self.queries_since_update
            .set(self.queries_since_update.get() + 1);
    }

    /// Similarity of one node pair, through the engine's [`PairQuery`]
    /// capability: matrix engines read `S_base + Δ` exactly (`O(1)`
    /// materialised, `O(r)` during a deferred window — never an `n²`
    /// apply); the probe engine samples a `(1 ± ε)` estimate on demand.
    ///
    /// [`PairQuery`]: incsim_core::PairQuery
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn pair(&self, a: u32, b: u32) -> f64 {
        self.count_query();
        self.engine.pair_score(a, b)
    }

    /// All similarities of one node, excluding itself. The matrix-free
    /// engine lists only nodes with a nonzero score (absent ⇒ 0).
    pub fn single_source(&self, a: u32) -> Vec<RankedNode> {
        self.count_query();
        self.engine.single_source(a)
    }

    /// The `k` most similar nodes to `a`, descending (ties by node id).
    pub fn top_k(&self, a: u32, k: usize) -> Vec<RankedNode> {
        self.count_query();
        self.engine.top_k(a, k)
    }

    /// Nodes whose similarity to `a` is at least `threshold`, unordered.
    pub fn similar_above(&self, a: u32, threshold: f64) -> Vec<RankedNode> {
        self.count_query();
        self.engine.similar_above(a, threshold)
    }

    /// A raw [`ScoreView`] over the current state, for bulk readers
    /// (all-pairs ranking scans, exporters). Counted as one query for
    /// routing.
    /// `None` when the engine is matrix-free — use the query methods,
    /// which work on every engine.
    pub fn view(&self) -> Option<ScoreView<'_>> {
        self.count_query();
        self.engine.matrix().map(|m| m.view())
    }

    /// An owned, frozen [`ScoreSnapshot`] of the current state, or `None`
    /// when the engine is matrix-free (use [`Self::snapshot_query`] for
    /// the engine-agnostic frozen handle). It shares the engine's base
    /// matrix until the engine's next write, so taking one copies only
    /// the pending factors. Not counted as a query: epoch publication is
    /// maintenance traffic, not workload signal.
    pub fn snapshot_view(&self) -> Option<ScoreSnapshot> {
        self.engine
            .matrix()
            .map(incsim_core::MatrixAccess::snapshot_view)
    }

    /// An engine-agnostic frozen query handle — the epoch material of the
    /// concurrent serving layer ([`crate::serve`]). Matrix engines freeze
    /// `S_base + Δ` as a [`ScoreSnapshot`]: a pointer to the engine's base
    /// matrix plus a copy of the pending factors. No `n²` bytes are
    /// copied when it is taken; the engine's next write copies the matrix
    /// first, and from then on the snapshot alone keeps the old one alive.
    /// The probe engine freezes its graph (`O(n + m)` bytes) and answers
    /// from it. Works on every engine; not counted as a query.
    pub fn snapshot_query(&self) -> std::sync::Arc<dyn SnapshotQuery> {
        self.engine.snapshot_query()
    }

    /// The materialised score matrix: any pending ΔS is applied first, so
    /// this is never stale — but it also ends a lazy window; prefer the
    /// query methods unless the full matrix is genuinely needed. Errors
    /// (never panics) on matrix-free engines, which have no such matrix.
    pub fn scores(&mut self) -> Result<&DenseMatrix, CapabilityError> {
        let err = self.missing_matrix();
        match self.engine.matrix_mut() {
            Some(m) => Ok(m.scores()),
            None => Err(err),
        }
    }

    // ---- snapshot & introspection -------------------------------------

    /// Checkpoints `(graph, scores, config)` — pending ΔS materialised
    /// first. Restore with [`SimRankBuilder::from_snapshot`]. Returns
    /// [`SnapshotError::Unsupported`] (never panics) on matrix-free
    /// engines: their whole state is the graph, so there is nothing the
    /// dense checkpoint format could store.
    pub fn snapshot<W: Write>(&mut self, w: W) -> Result<(), SnapshotError> {
        save_engine(self.engine.as_mut(), w)
    }

    /// Materialises any pending deferred ΔS now; returns the number of
    /// rank-two terms applied (0 on matrix-free engines — nothing is ever
    /// pending).
    pub fn flush(&mut self) -> usize {
        self.compressed_floor = 0;
        self.engine
            .matrix_mut()
            .map_or(0, incsim_core::MatrixAccess::flush)
    }

    /// Recompresses any pending deferred ΔS **in place** to its numerical
    /// rank at the configured tolerance — unlike [`Self::flush`] the lazy
    /// window stays open and nothing is materialised. Returns the pending
    /// rank after compression (0 when nothing was pending, including on
    /// matrix-free engines).
    pub fn compress(&mut self) -> usize {
        let tol = self.compress_tol;
        let Some(m) = self.engine.matrix_mut() else {
            return 0;
        };
        if m.pending_rank() == 0 {
            return 0;
        }
        self.compressed_floor = m.compress_pending(tol);
        self.counters.recompressions += 1;
        self.compressed_floor
    }

    /// The current graph.
    pub fn graph(&self) -> &DiGraph {
        self.engine.graph()
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimRankConfig {
        self.engine.config()
    }

    /// The backing engine's display name (`"Inc-SR"` or `"Probe"`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The configured apply policy.
    pub fn policy(&self) -> ApplyPolicy {
        self.policy
    }

    /// Rank of the pending deferred-ΔS buffer (0 when materialised, and
    /// always 0 on matrix-free engines).
    pub fn pending_rank(&self) -> usize {
        self.engine
            .matrix()
            .map_or(0, incsim_core::MatrixAccess::pending_rank)
    }

    /// Heap bytes held by the pending deferred-ΔS buffer (0 when
    /// materialised) — the memory-pressure signal serving telemetry
    /// watches; with recompression armed it plateaus at the numerical
    /// rank instead of growing linearly in the window length.
    pub fn pending_heap_bytes(&self) -> usize {
        self.engine
            .matrix()
            .and_then(|m| m.pending_delta())
            .map_or(0, incsim_linalg::LowRankDelta::heap_bytes)
    }

    /// Cumulative routing counters, including the total query count. For
    /// matrix-free engines the eager/fused/lazy buckets stay 0 (no ΔS is
    /// ever applied) and the walk counters carry the real accounting.
    pub fn counters(&self) -> ModeCounters {
        let mut c = self.counters;
        c.queries += self.queries_since_update.get();
        if let Some(ws) = self.engine.walk_stats() {
            c.walk_updates = ws.walk_updates;
            c.walks_sampled = ws.walks_sampled;
            c.probe_expansions = ws.probe_expansions;
        }
        c
    }

    /// Escape hatch: the raw engine, for harnesses that need
    /// engine-specific extensions (e.g. row-grouped batch updates).
    pub fn engine_mut(&mut self) -> &mut dyn SimRankMaintainer {
        self.engine.as_mut()
    }

    /// Direct counter access for the durability layer (replay accounting
    /// on rebuilt handles, router-level WAL/quarantine attribution).
    pub(crate) fn counters_mut(&mut self) -> &mut ModeCounters {
        &mut self.counters
    }
}

impl std::fmt::Debug for SimRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRank")
            .field("engine", &self.engine.name())
            .field("policy", &self.policy)
            .field("nodes", &self.engine.graph().node_count())
            .field("edges", &self.engine.graph().edge_count())
            .field("pending_rank", &self.pending_rank())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> DiGraph {
        DiGraph::from_edges(
            7,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 2),
                (1, 4),
                (6, 3),
            ],
        )
    }

    fn tight() -> SimRankConfig {
        SimRankConfig::new(0.6, 60).unwrap()
    }

    #[test]
    fn builder_constructs_every_engine() {
        for kind in [EngineKind::IncSr, EngineKind::Probe] {
            let sim = SimRankBuilder::new()
                .algorithm(kind)
                .config(SimRankConfig::new(0.6, 10).unwrap())
                .from_graph(fixture())
                .unwrap();
            assert_eq!(sim.graph().node_count(), 7);
            assert!(!sim.engine_name().is_empty());
        }
    }

    #[test]
    fn with_scores_rejects_shape_mismatch() {
        let err = SimRankBuilder::new()
            .with_scores(fixture(), DenseMatrix::zeros(3, 3))
            .unwrap_err();
        assert!(matches!(err, BuildError::ShapeMismatch { nodes: 7, .. }));
        assert!(err.to_string().contains("3x3"));
    }

    #[test]
    fn update_then_query_matches_batch_truth() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(tight())
            .from_graph(fixture())
            .unwrap();
        sim.insert(0, 4).unwrap();
        sim.remove(2, 3).unwrap();
        let truth = batch_simrank(sim.graph(), sim.config());
        for a in 0..7u32 {
            for b in 0..7u32 {
                let got = sim.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!((got - want).abs() < 1e-8, "pair ({a},{b})");
            }
        }
        assert!(sim.scores().unwrap().max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn auto_routes_lazy_in_query_heavy_windows() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Auto)
            .config(tight())
            .from_graph(fixture())
            .unwrap();
        // Make the window query-heavy, then update: must defer.
        for _ in 0..SimRank::AUTO_QUERY_HEAVY {
            sim.pair(0, 1);
        }
        let stats = sim.insert(0, 4).unwrap();
        assert_eq!(stats.applied_mode, ApplyMode::Lazy);
        assert!(stats.pending_rank > 0);
        assert_eq!(sim.counters().lazy_updates, 1);
        // Queries still see the updated state.
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!((sim.pair(0, 1) - truth.get(0, 1)).abs() < 1e-8);
    }

    #[test]
    fn auto_routes_eager_on_sparse_gamma_and_fused_on_dense() {
        // A long path: scores are extremely sparse, γ density ~ 0.
        let n = 40;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let mut sparse = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(SimRankConfig::new(0.6, 10).unwrap())
            .from_graph(DiGraph::from_edges(n, &edges))
            .unwrap();
        sparse.insert(0, (n - 1) as u32).unwrap();
        let stats = sparse.insert(5, 20).unwrap();
        assert_eq!(
            stats.applied_mode,
            ApplyMode::Eager,
            "γ density {} should route eager",
            stats.gamma_density
        );

        // A cyclic, well-connected graph: γ is dense. The first update
        // routes on the base matrix's density (the only prior available);
        // from the second on, the *measured* γ density drives the route.
        let mut dense = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(SimRankConfig::new(0.6, 10).unwrap())
            .from_graph(fixture())
            .unwrap();
        let warmup = dense.insert(0, 4).unwrap();
        assert!(warmup.gamma_density > SimRank::AUTO_SPARSE_GAMMA);
        let stats = dense.insert(6, 5).unwrap();
        assert_eq!(
            stats.applied_mode,
            ApplyMode::Fused,
            "γ density {} should route fused",
            warmup.gamma_density
        );
        assert!(dense.counters().fused_updates >= 1);
    }

    #[test]
    fn auto_flushes_at_rank_cap() {
        let cfg = tight();
        let cap = cfg.iterations + 1; // one update's worth of pairs
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Lazy)
            .config(cfg)
            .flush_at_rank(cap)
            .from_graph(fixture())
            .unwrap();
        let ops = [
            UpdateOp::Insert(0, 5),
            UpdateOp::Insert(6, 2),
            UpdateOp::Delete(2, 3),
            UpdateOp::Insert(3, 6),
        ];
        // Each update buffers up to K+1 pairs (no-op terms are dropped at
        // push time); the cap must force materialisation before every
        // update that finds the buffer at or past it.
        let mut expected_flushes = 0;
        let mut pending = 0usize;
        for op in ops {
            if pending >= cap {
                expected_flushes += 1;
            }
            pending = sim.update(op).unwrap().pending_rank;
        }
        assert!(expected_flushes >= 1, "workload must exercise the cap");
        assert_eq!(sim.counters().rank_cap_flushes, expected_flushes);
        // The cap is enforced before each update: the residue is bounded
        // by one update's worth of terms on top of it.
        assert!(sim.pending_rank() < cap + cfg.iterations + 1);
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!(sim.scores().unwrap().max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn lazy_compress_at_rank_bounds_the_window() {
        let cfg = tight();
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Lazy)
            .config(cfg)
            // Well below one update's K+1 terms: every subsequent update
            // finds the buffer past the threshold.
            .compress_at_rank(8)
            .from_graph(fixture())
            .unwrap();
        let ops = [
            UpdateOp::Insert(0, 5),
            UpdateOp::Insert(6, 2),
            UpdateOp::Delete(2, 3),
            UpdateOp::Insert(3, 6),
        ];
        // An update that finds the buffer at the threshold recompresses it
        // instead of letting it grow or materialise (replay the decision
        // from the observed per-op pending ranks — no-op terms are dropped
        // at push time, so per-update pair counts vary).
        let mut expected = 0;
        let mut pending = 0usize;
        for op in ops {
            if pending >= 8 {
                expected += 1;
            }
            pending = sim.update(op).unwrap().pending_rank;
        }
        let c = sim.counters();
        assert!(expected >= 2, "workload must exercise the threshold");
        assert_eq!(c.recompressions, expected);
        assert_eq!(c.rank_cap_flushes, 0, "compression kept the window open");
        assert_eq!(c.lazy_updates, 4);
        assert!(sim.pending_rank() > 0, "the lazy window is still open");
        // Bounded: the numerical rank (≤ n = 7) plus one update's terms.
        assert!(sim.pending_rank() <= 7 + cfg.iterations + 1);
        let truth = batch_simrank(sim.graph(), sim.config());
        for a in 0..7u32 {
            for b in 0..7u32 {
                let got = sim.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!((got - want).abs() < 1e-8, "pair ({a},{b}): {got} vs {want}");
            }
        }
        // A manual compress is counted too and leaves queries exact.
        let rank = sim.compress();
        assert!(rank <= 7);
        assert_eq!(sim.counters().recompressions, expected + 1);
        assert!((sim.pair(0, 4) - truth.get(0, 4)).abs() < 1e-8);
    }

    #[test]
    fn auto_recompresses_query_heavy_windows_at_the_cap() {
        let cfg = tight();
        let cap = cfg.iterations + 1;
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Auto)
            .config(cfg)
            .flush_at_rank(cap)
            .from_graph(fixture())
            .unwrap();
        // Query-heavy before every update: Auto routes lazy, and at the
        // flush cap it must recompress rather than force-materialise.
        for (i, j) in [(0u32, 4u32), (0, 5), (6, 2)] {
            for _ in 0..SimRank::AUTO_QUERY_HEAVY {
                sim.pair(0, 1);
            }
            sim.insert(i, j).unwrap();
        }
        let c = sim.counters();
        assert_eq!(c.lazy_updates, 3);
        assert!(c.recompressions >= 2, "cap hits must recompress");
        assert_eq!(
            c.rank_cap_flushes, 0,
            "a query-dominated window must not be materialised"
        );
        assert!(sim.pending_rank() > 0 && sim.pending_rank() < cap + cap);
        let truth = batch_simrank(sim.graph(), sim.config());
        for a in 0..7u32 {
            for b in 0..7u32 {
                let got = sim.pair(a, b);
                let want = truth.get(a as usize, b as usize);
                assert!((got - want).abs() < 1e-8, "pair ({a},{b}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn compression_stays_exact_on_the_qr_route() {
        // A graph big enough that 2·r stays under the support size at
        // every recompression, so the thin-QR route (not the direct s×s
        // one) is what runs each time. At n = 64 the second pass buffers
        // 47 pairs on a 64-row support and goes direct. The compressed
        // trajectory is held against an uncompressed lazy run of the
        // same stream at the recompression exactness bar.
        use crate::datagen::er::erdos_renyi;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 128usize;
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi(n, 6 * n, &mut rng);
        let cfg = SimRankConfig::new(0.6, 12).unwrap();
        let ops: Vec<UpdateOp> = {
            let mut shadow = g.clone();
            let mut out = Vec::new();
            'outer: for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && !shadow.has_edge(u, v) {
                        shadow.insert_edge(u, v).unwrap();
                        out.push(UpdateOp::Insert(u, v));
                        if out.len() == 6 {
                            break 'outer;
                        }
                    }
                }
            }
            out
        };
        let build = |compress: bool| {
            let b = SimRankBuilder::new()
                .algorithm(EngineKind::IncSr)
                .mode(ApplyPolicy::Lazy)
                .config(cfg);
            let b = if compress {
                b.compress_at_rank(2 * (cfg.iterations + 1))
            } else {
                b
            };
            b.from_graph(g.clone()).unwrap()
        };
        let mut compressed = build(true);
        let mut plain = build(false);
        let mut qr_passes = 0;
        for &op in &ops {
            // A recompression runs on the buffer it finds before the
            // update, and takes the QR route when 2·pairs fit its support.
            let (pairs, support) = compressed
                .engine_mut()
                .matrix()
                .and_then(|m| m.pending_delta())
                .map_or((0, 0), |d| (d.pending_pairs(), d.support_rows().len()));
            let before = compressed.counters().recompressions;
            compressed.update(op).unwrap();
            if compressed.counters().recompressions > before && 2 * pairs <= support {
                qr_passes += 1;
            }
            plain.update(op).unwrap();
        }
        let recompressions = compressed.counters().recompressions;
        assert!(recompressions >= 2, "recompressions={recompressions}");
        assert_eq!(
            qr_passes, recompressions,
            "a recompression took the direct route"
        );
        assert!(compressed.pending_rank() > 0, "window still open");
        assert!(
            compressed.pending_rank() < plain.pending_rank(),
            "compression must shrink the buffered rank"
        );
        let mut max_diff = 0.0f64;
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                max_diff = max_diff.max((compressed.pair(a, b) - plain.pair(a, b)).abs());
            }
        }
        assert!(
            max_diff < 1e-12,
            "QR-route compression drifted {max_diff:.2e}"
        );
    }

    #[test]
    fn lazy_batch_enforces_rank_cap_inside_the_batch() {
        let cfg = tight();
        let cap = cfg.iterations + 1;
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Lazy)
            .config(cfg)
            .flush_at_rank(cap)
            .from_graph(fixture())
            .unwrap();
        // One batch of 4 ops: the cap must be re-checked per op, not once.
        let stats = sim
            .update_batch(&[
                UpdateOp::Insert(0, 5),
                UpdateOp::Insert(6, 2),
                UpdateOp::Delete(2, 3),
                UpdateOp::Insert(3, 6),
            ])
            .unwrap();
        // Replay the cap decision from the per-op pending ranks: a flush
        // happens exactly before each op that found the buffer at the cap.
        let mut expected_flushes = 0;
        let mut pending = 0usize;
        for s in &stats {
            if pending >= cap {
                expected_flushes += 1;
            }
            pending = s.pending_rank;
        }
        assert!(expected_flushes >= 1, "batch must exercise the cap");
        assert_eq!(sim.counters().rank_cap_flushes, expected_flushes);
        assert!(sim.pending_rank() < cap + cfg.iterations + 1);
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!(sim.scores().unwrap().max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn failed_batch_keeps_routing_signals_sane() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .config(SimRankConfig::new(0.6, 8).unwrap())
            .from_graph(fixture())
            .unwrap();
        for _ in 0..3 {
            sim.pair(0, 1);
        }
        // Second op is invalid (duplicate insert); the first applies.
        let err = sim
            .update_batch(&[UpdateOp::Insert(0, 5), UpdateOp::Insert(0, 5)])
            .unwrap_err();
        assert!(matches!(err, UpdateError::Graph(_)));
        assert!(sim.graph().has_edge(0, 5), "prefix was applied");
        // The query window ended with the (partial) batch: queries moved
        // into the cumulative counter and the window reset.
        assert_eq!(sim.counters().queries, 3);
    }

    #[test]
    fn batch_update_shares_one_fused_sweep_under_auto() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Auto)
            .config(tight())
            .from_graph(fixture())
            .unwrap();
        let stats = sim
            .update_batch(&[UpdateOp::Insert(0, 5), UpdateOp::Insert(6, 2)])
            .unwrap();
        assert!(stats.iter().all(|s| s.applied_mode == ApplyMode::Fused));
        assert_eq!(sim.pending_rank(), 0, "batch flushed at the end");
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!(sim.scores().unwrap().max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn snapshot_roundtrip_mid_lazy_window() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .mode(ApplyPolicy::Lazy)
            .config(tight())
            .from_graph(fixture())
            .unwrap();
        sim.insert(0, 4).unwrap();
        assert!(sim.pending_rank() > 0);
        let mut buf = Vec::new();
        sim.snapshot(&mut buf).unwrap(); // must materialise first
        let mut restored = SimRankBuilder::new()
            .algorithm(EngineKind::IncSr)
            .from_snapshot(buf.as_slice())
            .unwrap();
        assert_eq!(restored.graph(), sim.graph());
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!(restored.scores().unwrap().max_abs_diff(&truth) < 1e-8);
    }

    fn probe_fixture() -> DiGraph {
        // 0 ← {2,3} and 1 ← {2,4} share referrer 2 — nonzero pair scores.
        DiGraph::from_edges(
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
        )
    }

    #[test]
    fn probe_builds_and_serves_without_a_matrix() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(SimRankConfig::new(0.6, 8).unwrap())
            .from_graph(probe_fixture())
            .unwrap();
        assert!(sim.is_matrix_free());
        assert_eq!(sim.engine_name(), "Probe");
        sim.insert(0, 6).unwrap();
        sim.remove(0, 6).unwrap();
        let truth = batch_simrank(sim.graph(), sim.config());
        assert!((sim.pair(0, 1) - truth.get(0, 1)).abs() < 0.05);
        let snap = sim.snapshot_query();
        assert_eq!(snap.n(), 7);
        assert!((snap.pair(0, 1) - truth.get(0, 1)).abs() < 0.05);
        // Ranked reads, live and frozen, are row 0 of the batch truth.
        let nonzero = (1..7).filter(|&b| truth.get(0, b) > 0.0).count();
        assert_eq!(sim.single_source(0).len(), nonzero);
        assert_eq!(snap.single_source(0).len(), nonzero);
        for ranked in [
            sim.single_source(0),
            sim.top_k(0, 3),
            sim.similar_above(0, 0.01),
            snap.single_source(0),
            snap.top_k(0, 3),
            snap.similar_above(0, 0.01),
        ] {
            assert!(!ranked.is_empty());
            for r in ranked {
                assert!((r.score - truth.get(0, r.node as usize)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn probe_matrix_extras_report_absence_not_panic() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .config(SimRankConfig::new(0.6, 8).unwrap())
            .from_graph(probe_fixture())
            .unwrap();
        let err = sim.scores().unwrap_err();
        assert_eq!(err.engine, "Probe");
        assert!(err.to_string().contains("MatrixAccess"));
        assert!(sim.view().is_none());
        assert!(sim.snapshot_view().is_none());
        assert!(matches!(
            sim.snapshot(Vec::new()),
            Err(SnapshotError::Unsupported("Probe"))
        ));
        assert_eq!(sim.flush(), 0);
        assert_eq!(sim.compress(), 0);
        assert_eq!(sim.pending_rank(), 0);
        assert_eq!(sim.pending_heap_bytes(), 0);
    }

    #[test]
    fn probe_counters_use_walk_buckets_not_apply_modes() {
        let mut sim = SimRankBuilder::new()
            .algorithm(EngineKind::Probe)
            .mode(ApplyPolicy::Auto)
            .config(SimRankConfig::new(0.6, 8).unwrap())
            .from_graph(probe_fixture())
            .unwrap();
        sim.insert(0, 6).unwrap();
        sim.update_batch(&[UpdateOp::Delete(0, 6), UpdateOp::Insert(3, 5)])
            .unwrap();
        sim.pair(0, 1);
        sim.single_source(0);
        let c = sim.counters();
        assert_eq!(c.walk_updates, 3, "three graph edits");
        assert_eq!(
            c.eager_updates + c.fused_updates + c.lazy_updates,
            0,
            "no ΔS apply ever ran — the mode buckets must not be stuffed"
        );
        assert!(c.walks_sampled > 0);
        assert!(c.probe_expansions > 0);
        assert_eq!(c.queries, 2);
    }

    #[test]
    fn counters_track_queries() {
        let sim = SimRankBuilder::new()
            .config(SimRankConfig::new(0.6, 5).unwrap())
            .from_graph(fixture())
            .unwrap();
        sim.pair(0, 1);
        sim.top_k(0, 3);
        sim.single_source(2);
        assert_eq!(sim.counters().queries, 3);
    }

    #[test]
    fn durability_counters_merge_as_sums() {
        let mut a = ModeCounters {
            wal_appends: 1,
            checkpoints: 2,
            replayed_ops: 3,
            quarantines: 4,
            degraded_reads: 5,
            ..Default::default()
        };
        let b = ModeCounters {
            wal_appends: 10,
            checkpoints: 20,
            replayed_ops: 30,
            quarantines: 40,
            degraded_reads: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.wal_appends, 11);
        assert_eq!(a.checkpoints, 22);
        assert_eq!(a.replayed_ops, 33);
        assert_eq!(a.quarantines, 44);
        assert_eq!(a.degraded_reads, 55);
    }
}
