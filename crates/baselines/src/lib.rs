//! # incsim-baselines
//!
//! The comparison algorithms of *"Fast Incremental SimRank on Link-Evolving
//! Graphs"* (Yu, Lin & Zhang, ICDE 2014), implemented from scratch:
//!
//! * [`naive`] — Jeh & Widom's original iterative SimRank (`O(K·d²·n²)`)
//!   and Lizorkin et al.'s partial-sums memoisation (`O(K·d·n²)`), in the
//!   classic *iterative form* whose diagonal is pinned to 1.
//! * [`incsvd`] — the **Inc-SVD** method of Li et al. (EDBT 2010), the
//!   prior link-incremental algorithm the paper compares against: batch
//!   SimRank through a rank-`r` SVD of the transition matrix, plus the
//!   incremental factor update `Ũ = U·U_C, Σ̃ = Σ_C, Ṽ = V·V_C` (Eq. 4–5).
//!   §IV of the paper proves this update *inherently approximate* whenever
//!   `rank(Q) < n` (it assumes `U·Uᵀ = I`); this implementation reproduces
//!   the flaw faithfully, and the paper's Examples 2–3 are regression tests.
//!
//! [`IncSvd`] implements the same
//! [`SimRankMaintainer`](incsim_core::SimRankMaintainer) interface as the
//! paper's own algorithms, so the experiment harness drives every engine
//! through one code path. The serving layer (`incsim::api`) serves only
//! Inc-SR and the matrix-free Probe engine; the figure benches and the
//! consistency tests build these baselines directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incsvd;
pub mod naive;

pub use incsvd::{svd_simrank, IncSvd, IncSvdError, IncSvdOptions};
pub use naive::{naive_simrank, partial_sums_simrank};
