//! # incsim — Fast Incremental SimRank on Link-Evolving Graphs
//!
//! Facade crate re-exporting the whole `incsim` workspace, a from-scratch
//! Rust reproduction of *"Fast Incremental SimRank on Link-Evolving
//! Graphs"* (Weiren Yu, Xuemin Lin, Wenjie Zhang — ICDE 2014).
//!
//! ## Quickstart
//!
//! The [`api`] module is the service surface: build a [`api::SimRank`]
//! handle with [`api::SimRankBuilder`], then *update*, *query*, and
//! *snapshot* — the engine choice and the deferred-apply machinery stay
//! internal.
//!
//! ```
//! use incsim::api::{ApplyPolicy, EngineKind, SimRankBuilder};
//! use incsim::core::SimRankConfig;
//! use incsim::graph::DiGraph;
//!
//! // A tiny citation graph: 0→2, 1→2, 2→3.
//! let mut g = DiGraph::new(4);
//! g.insert_edge(0, 2).unwrap();
//! g.insert_edge(1, 2).unwrap();
//! g.insert_edge(2, 3).unwrap();
//!
//! // One handle: algorithm + apply policy + config, scores precomputed.
//! let mut sim = SimRankBuilder::new()
//!     .algorithm(EngineKind::IncSr)      // the paper's pruned engine
//!     .mode(ApplyPolicy::Auto)           // adaptive eager/fused/lazy
//!     .config(SimRankConfig::new(0.6, 10).unwrap())
//!     .from_graph(g)
//!     .unwrap();
//!
//! // Maintain incrementally as the graph evolves…
//! let stats = sim.insert(0, 3).unwrap();
//! println!("affected area: {} node pairs", stats.affected_pairs);
//!
//! // …and query at any time; answers are identical in every policy.
//! let sim_0_1 = sim.pair(0, 1);
//! let related = sim.top_k(0, 2);
//! assert!(sim_0_1 >= 0.0 && related.len() == 2);
//! ```
//!
//! The algorithm layer stays fully accessible for harnesses and
//! extensions: [`core::IncSr`] / [`core::IncUSr`] expose the engines
//! directly behind [`core::SimRankMaintainer`], and
//! [`core::batch_simrank`] is the batch precomputation.
//!
//! ## Workspace layout
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`api`] | `incsim` (this crate) | the service layer: builder, handle over Inc-SR or Probe, apply policies |
//! | [`serve`] | `incsim` (this crate) | the serving layer: one engine behind a durable write path, concurrent epoch reads |
//! | [`wal`] | `incsim` (this crate) | durability: write-ahead log, crash recovery, fault injection |
//! | [`codec`] | `incsim-codec` | shared binary codec: CRC32 framing, LE/varint primitives, record envelopes |
//! | [`linalg`] | `incsim-linalg` | dense/sparse matrices, QR, SVD, LU, Stein solver |
//! | [`graph`] | `incsim-graph` | dynamic digraph, evolving timeline, I/O |
//! | [`core`] | `incsim-core` | matrix-form SimRank, **Inc-uSR**, **Inc-SR**, the matrix-free Probe engine |
//! | [`baselines`] | `incsim-baselines` | naive/partial-sums SimRank, **Inc-SVD** (Li et al.) |
//! | [`datagen`] | `incsim-datagen` | synthetic graphs, dataset presets, update streams |
//! | [`metrics`] | `incsim-metrics` | NDCG@k, error norms, timing/memory accounting |

// Every public item on the service surface must say what it does; CI's
// `-D warnings` clippy gate turns an undocumented export into an error.
#![warn(missing_docs)]

pub mod api;
pub mod serve;
pub mod wal;

pub use incsim_baselines as baselines;
pub use incsim_codec as codec;
pub use incsim_core as core;
pub use incsim_datagen as datagen;
pub use incsim_graph as graph;
pub use incsim_linalg as linalg;
pub use incsim_metrics as metrics;
