//! Batch SimRank in matrix form (the paper's precomputation step and its
//! `Batch` comparator).
//!
//! Iterates `S_{t+1} = C·Q·S_t·Qᵀ + (1−C)·Iₙ` from `S_0 = (1−C)·Iₙ`, which
//! yields the truncated series `S_K = (1−C)·Σ_{k=0}^{K} Cᵏ·Qᵏ·(Qᵀ)ᵏ`
//! (Eq. 34) — the weighted count of symmetric in-link paths.
//!
//! ## The fused sweep
//!
//! One iteration is one pass over the rows of `S_{t+1}`. Row `i` first
//! accumulates `w = (Q·S_t)[i,:] = Σ_{k∈I(i)} q_ik·S_t[k,:]` in its
//! worker's row buffer, then gathers each entry straight from it:
//! `S_{t+1}[i,j] = C·Σ_{l∈I(j)} q_jl·w[l] + (1−C)·δ_ij`. The product
//! `Q·S_t` is never materialised, so no `n²` intermediate is written, read
//! back or transposed.
//!
//! * **Symmetric half-sweep.** Every iterate is symmetric, so row `i`
//!   gathers only the entries `j ≥ i`, and a cache-blocked mirror copies
//!   the upper triangle into the lower one. The scores are therefore
//!   exactly symmetric.
//! * **Two buffers.** `S_t` and `S_{t+1}` are allocated once and swapped
//!   after every iteration. Peak working memory is two `n²` matrices plus
//!   one length-`n` row buffer per worker, none of which an iteration
//!   allocates.
//! * **Shared partial sums.** Nodes with identical in-neighbour sets have
//!   identical rows of `Q`, hence identical rows of `Q·S_t·Qᵀ`. Such a row
//!   is computed once, for the set's first node, and copied for the
//!   others — the essence of Yu et al.'s fine-grained memoisation \[6\]
//!   (papers citing the same references, videos with the same related
//!   list).
//! * **Deterministic parallelism.** Rows are split into contiguous ranges
//!   of about equal cost, one per worker of a `std::thread::scope`; the
//!   cost model weighs the shrinking triangle, so later ranges hold more
//!   rows. Every entry is computed by one worker in a fixed order, so the
//!   scores are bit-identical for any thread count.
//!
//! Complexity per iteration is `O(nnz(Q)·n) = O(d·n²)`: `nnz(Q)·n`
//! multiply-adds for the row buffers and about half that for the gathers,
//! the same class as Lizorkin's partial-sums method and the paper's
//! `Batch` \[6\]. The sweep is bound by the memory traffic of streaming
//! rows of `S_t`, not by arithmetic: it gains by moving fewer bytes, not
//! by adding threads.

use crate::fxhash::FxHashMap;
use crate::SimRankConfig;
use incsim_graph::transition::backward_transition;
use incsim_graph::DiGraph;
use incsim_linalg::{vecops, CsrMatrix, DenseMatrix};

/// Tuning knobs for [`batch_simrank_detailed`].
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads for the fused sweep (`0` = use all cores). The
    /// scores do not depend on it.
    pub threads: usize,
    /// Stop early once `‖S_{t+1} − S_t‖_max <= early_stop_tol` (`0.0`
    /// disables early stopping and always runs `K` iterations, matching the
    /// paper's fixed-`K` methodology).
    pub early_stop_tol: f64,
    /// Deduplicate identical in-neighbour sets and share their partial sums.
    pub share_partial_sums: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            early_stop_tol: 0.0,
            share_partial_sums: true,
        }
    }
}

/// Outcome of a batch computation.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The SimRank score matrix.
    pub scores: DenseMatrix,
    /// Iterations actually performed.
    pub iterations: usize,
    /// `‖S_K − S_{K−1}‖_max` of the final iteration (0 if `K = 0`).
    pub final_delta: f64,
    /// Number of rows whose partial sums were shared with an earlier
    /// identical in-neighbour set (0 when sharing is disabled).
    pub shared_rows: usize,
}

/// Computes matrix-form SimRank with default options.
///
/// ```
/// use incsim_core::{batch_simrank, SimRankConfig};
/// use incsim_graph::DiGraph;
///
/// // Nodes 0 and 1 are both referenced by node 2.
/// let g = DiGraph::from_edges(3, &[(2, 0), (2, 1)]);
/// let s = batch_simrank(&g, &SimRankConfig::new(0.6, 10).unwrap());
/// assert!((s.get(0, 1) - 0.6 * 0.4).abs() < 1e-12); // C·s(2,2) = C·(1−C)
/// ```
pub fn batch_simrank(g: &DiGraph, cfg: &SimRankConfig) -> DenseMatrix {
    batch_simrank_detailed(g, cfg, &BatchOptions::default()).scores
}

/// Computes matrix-form SimRank, exposing iteration diagnostics.
pub fn batch_simrank_detailed(
    g: &DiGraph,
    cfg: &SimRankConfig,
    opts: &BatchOptions,
) -> BatchResult {
    let n = g.node_count();
    let q = backward_transition(g);
    let threads = if opts.threads == 0 {
        incsim_linalg::lowrank::default_threads()
    } else {
        opts.threads
    };

    // Group nodes by identical in-neighbour sets for partial-sum sharing.
    // `row_rep[i]` = the representative row whose Q-row equals row i's.
    let row_rep: Vec<u32> = if opts.share_partial_sums {
        let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut rep = vec![0u32; n];
        for v in 0..n as u32 {
            let innb = g.in_neighbors(v);
            let mut key: u64 = 0xcbf2_9ce4_8422_2325;
            for &u in innb {
                key = (key ^ u as u64).wrapping_mul(0x1000_0000_01b3);
            }
            key ^= innb.len() as u64;
            let bucket = seen.entry(key).or_default();
            let found = bucket.iter().copied().find(|&r| g.in_neighbors(r) == innb);
            match found {
                Some(r) => rep[v as usize] = r,
                None => {
                    bucket.push(v);
                    rep[v as usize] = v;
                }
            }
        }
        rep
    } else {
        (0..n as u32).collect()
    };
    let shared_rows = row_rep
        .iter()
        .enumerate()
        .filter(|&(v, &r)| v as u32 != r)
        .count();

    let one_minus_c = 1.0 - cfg.c;
    let mut s = DenseMatrix::zeros(n, n);
    for i in 0..n {
        s.set(i, i, one_minus_c);
    }
    let mut next = DenseMatrix::zeros(n, n);
    let sweep = Sweep {
        q: &q,
        row_rep: &row_rep,
        c: cfg.c,
        one_minus_c,
    };
    let bounds = sweep.row_bounds(threads);
    let mut row_bufs = vec![vec![0.0; n]; bounds.len() - 1];

    let early_stop = opts.early_stop_tol > 0.0;
    let mut iterations = 0;
    let mut final_delta = 0.0;
    while iterations < cfg.iterations {
        sweep.run(&s, &mut next, &bounds, &mut row_bufs);
        iterations += 1;
        if early_stop || iterations == cfg.iterations {
            final_delta = next.max_abs_diff(&s);
        }
        std::mem::swap(&mut s, &mut next);
        if early_stop && final_delta <= opts.early_stop_tol {
            break;
        }
    }

    BatchResult {
        scores: s,
        iterations,
        final_delta,
        shared_rows,
    }
}

/// Below this many nodes the sweep runs on the calling thread: spawning
/// workers would cost more than the rows they take.
const PARALLEL_MIN_ROWS: usize = 128;

/// Side of the square tiles the mirror copies: a source and a destination
/// tile (2 × 8 KiB) stay in L1 while the tile is transposed.
const MIRROR_TILE: usize = 32;

/// The read-only inputs of one iteration `S_{t+1} = C·Q·S_t·Qᵀ + (1−C)·I`.
struct Sweep<'a> {
    q: &'a CsrMatrix,
    /// `row_rep[i]`: the first node whose in-neighbour set equals node
    /// `i`'s (`i` itself when it is the first), so `row_rep[i] <= i`.
    row_rep: &'a [u32],
    c: f64,
    one_minus_c: f64,
}

impl Sweep<'_> {
    /// Splits the rows into at most `threads` contiguous ranges of about
    /// equal cost, returned as their bounds `0 = b₀ < b₁ < … < n`. Row `i`
    /// costs its row buffer (`|I(i)|·n`), its gathers over the triangle
    /// (`Σ_{j≥i} |I(j)|`) and its `n − i` writes; a shared row costs
    /// nothing here, as it is copied after the sweep.
    fn row_bounds(&self, threads: usize) -> Vec<usize> {
        let n = self.row_rep.len();
        let mut bounds = vec![0];
        if threads > 1 && n >= PARALLEL_MIN_ROWS {
            let mut costs = vec![0u64; n];
            let mut gathers = 0u64;
            for i in (0..n).rev() {
                let nnz = self.q.row_nnz(i);
                gathers += nnz as u64;
                if self.row_rep[i] as usize == i {
                    costs[i] = (nnz * n + (n - i)) as u64 + gathers;
                }
            }
            let total: u64 = costs.iter().sum();
            let mut done = 0u64;
            for (i, cost) in costs.iter().enumerate() {
                done += cost;
                if bounds.len() < threads && done * threads as u64 >= bounds.len() as u64 * total {
                    bounds.push(i + 1);
                }
            }
        }
        if bounds.last() != Some(&n) {
            bounds.push(n);
        }
        bounds
    }

    /// One iteration: `next ← C·Q·s·Qᵀ + (1−C)·I`. Each row range goes to
    /// one worker with its own row buffer, the last to the calling thread;
    /// the shared-row copies and the mirror follow on the calling thread.
    fn run(
        &self,
        s: &DenseMatrix,
        next: &mut DenseMatrix,
        bounds: &[usize],
        row_bufs: &mut [Vec<f64>],
    ) {
        let n = s.rows();
        std::thread::scope(|scope| {
            let mut rest = next.as_mut_slice();
            for (rows, w) in bounds.windows(2).zip(row_bufs.iter_mut()) {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut((rows[1] - rows[0]) * n);
                rest = tail;
                if rest.is_empty() {
                    self.upper_rows(s, rows[0], chunk, w);
                } else {
                    scope.spawn(move || self.upper_rows(s, rows[0], chunk, w));
                }
            }
        });
        self.copy_shared_rows(next);
        mirror_upper(next);
    }

    /// Writes the upper-triangle entries `j ≥ i` of rows `first..` of
    /// `S_{t+1}` into `out` (whole rows, row-major), skipping shared rows.
    fn upper_rows(&self, s: &DenseMatrix, first: usize, out: &mut [f64], w: &mut [f64]) {
        let n = s.cols();
        for (i, row) in (first..).zip(out.chunks_exact_mut(n)) {
            if self.row_rep[i] as usize != i {
                continue;
            }
            let upper = &mut row[i..];
            // w = (Q·S_t)[i,:], the first term assigned so that the
            // buffer needs no clearing.
            let mut terms = self.q.row(i);
            let Some((k, v)) = terms.next() else {
                upper.fill(0.0);
                upper[0] = self.one_minus_c;
                continue;
            };
            for (wl, &x) in w.iter_mut().zip(s.row(k as usize)) {
                *wl = v * x;
            }
            for (k, v) in terms {
                vecops::axpy(v, s.row(k as usize), w);
            }
            for (j, out) in (i..).zip(upper.iter_mut()) {
                *out = self.c * self.q.row_dot(j, w);
            }
            upper[0] += self.one_minus_c;
        }
    }

    /// Fills the upper-triangle segment of every shared row from its
    /// representative's row: `S_{t+1}[i,j] = S_{t+1}[r,j] + (1−C)·δ_ij`
    /// for `j ≥ i > r`, all of which the sweep has computed.
    fn copy_shared_rows(&self, next: &mut DenseMatrix) {
        let n = next.cols();
        let data = next.as_mut_slice();
        for (i, &rep) in self.row_rep.iter().enumerate() {
            let rep = rep as usize;
            if rep == i {
                continue;
            }
            let (head, tail) = data.split_at_mut(i * n);
            tail[i..n].copy_from_slice(&head[rep * n + i..(rep + 1) * n]);
            tail[i] += self.one_minus_c;
        }
    }
}

/// Copies the upper triangle of a square matrix into its lower triangle,
/// one [`MIRROR_TILE`]-square tile at a time, so that the strided reads of
/// a source tile are served from cache.
fn mirror_upper(m: &mut DenseMatrix) {
    let n = m.rows();
    let data = m.as_mut_slice();
    for bi in (0..n).step_by(MIRROR_TILE) {
        for bj in (0..=bi).step_by(MIRROR_TILE) {
            for i in bi..(bi + MIRROR_TILE).min(n) {
                for j in bj..(bj + MIRROR_TILE).min(i) {
                    data[i * n + j] = data[j * n + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incsim_linalg::stein::stein_series;

    fn cfg(k: usize) -> SimRankConfig {
        SimRankConfig::new(0.6, k).unwrap()
    }

    /// Ground truth via the dense Stein series with A = √C·Q.
    fn ground_truth(g: &DiGraph, c: f64, k: usize) -> DenseMatrix {
        let q = backward_transition(g).to_dense();
        let mut a = q.clone();
        a.scale(c.sqrt());
        let mut id = DenseMatrix::identity(g.node_count());
        id.scale(1.0 - c);
        stein_series(&a, &a, &id, k)
    }

    #[test]
    fn matches_dense_series_on_small_graph() {
        let g = DiGraph::from_edges(5, &[(0, 2), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let s = batch_simrank(&g, &cfg(8));
        let truth = ground_truth(&g, 0.6, 8);
        assert!(
            s.max_abs_diff(&truth) < 1e-12,
            "diff={}",
            s.max_abs_diff(&truth)
        );
    }

    #[test]
    fn diagonal_of_indegree_zero_node_is_one_minus_c() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let s = batch_simrank(&g, &cfg(20));
        // Node 0 has no in-neighbors: matrix-form diagonal is 1−C.
        assert!((s.get(0, 0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scores_are_symmetric_and_bounded() {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (1, 4),
                (0, 5),
            ],
        );
        let s = batch_simrank(&g, &cfg(15));
        assert!(s.is_symmetric(0.0));
        for i in 0..6 {
            for j in 0..6 {
                let v = s.get(i, j);
                assert!((0.0..=1.0 + 1e-12).contains(&v), "S[{i},{j}]={v}");
            }
        }
    }

    #[test]
    fn partial_sum_sharing_is_lossless() {
        // Nodes 3 and 4 share the in-neighbour set {0,1,2}.
        let g = DiGraph::from_edges(5, &[(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]);
        let with = batch_simrank_detailed(&g, &cfg(10), &BatchOptions::default());
        let without = batch_simrank_detailed(
            &g,
            &cfg(10),
            &BatchOptions {
                share_partial_sums: false,
                ..Default::default()
            },
        );
        assert!(with.shared_rows >= 1, "expected sharing to trigger");
        assert_eq!(without.shared_rows, 0);
        assert!(with.scores.max_abs_diff(&without.scores) < 1e-14);
        // Nodes with identical in-neighbourhoods coincide up to the
        // diagonal (1−C)·I term of the matrix form:
        // s(3,4) = s(3,3) − (1−C).
        let expect = with.scores.get(3, 3) - (1.0 - 0.6);
        assert!((with.scores.get(3, 4) - expect).abs() < 1e-12);
    }

    /// A small xorshift stream, so the test graphs need no RNG crate.
    fn xorshift(seed: u64) -> impl FnMut(u32) -> u32 {
        let mut x = seed;
        move |bound| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(bound)) as u32
        }
    }

    /// A citation-like DAG: node `v` cites three random pairs
    /// `(5k, 5k + 1)` of older nodes, so the two nodes of a pair share
    /// their in-neighbour set, and the nodes never cited share the empty
    /// set.
    fn citation_dag(n: usize) -> DiGraph {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut edges = Vec::new();
        for v in 8..n as u32 {
            for _ in 0..3 {
                let t = next(v - 2);
                let t = t - t % 5;
                edges.push((v, t));
                edges.push((v, t + 1));
            }
        }
        DiGraph::from_edges(n, &edges)
    }

    /// A cyclic Erdős–Rényi-style graph with about `6·n` edges.
    fn cyclic_er(n: usize) -> DiGraph {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let edges: Vec<(u32, u32)> = (0..6 * n)
            .map(|_| (next(n as u32), next(n as u32)))
            .filter(|(u, v)| u != v)
            .collect();
        DiGraph::from_edges(n, &edges)
    }

    /// The kernel against the dense Stein series at `K = 15`, and exact
    /// symmetry of its output.
    fn assert_matches_dense_series(g: &DiGraph) -> BatchResult {
        let r = batch_simrank_detailed(g, &cfg(15), &BatchOptions::default());
        let diff = r.scores.max_abs_diff(&ground_truth(g, 0.6, 15));
        assert!(diff < 1e-12, "diff={diff}");
        assert!(r.scores.is_symmetric(0.0), "not exactly symmetric");
        r
    }

    #[test]
    fn fused_sweep_matches_dense_series_on_a_dag() {
        let g = citation_dag(300);
        assert!((0..300).filter(|&v| g.in_degree(v) == 0).count() > 1);
        let r = assert_matches_dense_series(&g);
        assert!(r.shared_rows > 1, "shared_rows={}", r.shared_rows);
    }

    #[test]
    fn fused_sweep_matches_dense_series_on_a_cyclic_graph() {
        assert_matches_dense_series(&cyclic_er(296));
    }

    #[test]
    fn single_and_multi_thread_agree() {
        // Above the serial cutoff and not divisible by 3, so every
        // worker count splits the rows unevenly.
        let n = 200;
        assert!(n >= PARALLEL_MIN_ROWS && n % 3 != 0);
        for g in [citation_dag(n), cyclic_er(n)] {
            let run = |threads| {
                let opts = BatchOptions {
                    threads,
                    ..Default::default()
                };
                batch_simrank_detailed(&g, &cfg(5), &opts).scores
            };
            let bits =
                |m: &DenseMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let seq = bits(&run(1));
            for threads in 2..=4 {
                assert!(seq == bits(&run(threads)), "threads={threads} differs");
            }
        }
    }

    #[test]
    fn early_stopping_reports_fewer_iterations() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = batch_simrank_detailed(
            &g,
            &cfg(50),
            &BatchOptions {
                early_stop_tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(r.iterations < 50, "iterations={}", r.iterations);
        assert!(r.final_delta <= 1e-10);
    }

    #[test]
    fn empty_graph_is_scaled_identity() {
        let g = DiGraph::new(3);
        let s = batch_simrank(&g, &cfg(5));
        let mut expect = DenseMatrix::identity(3);
        expect.scale(0.4);
        assert!(s.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn iterates_monotonically_toward_fixed_point() {
        let g = DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]);
        // The series form is a sum of nonnegative terms: S_K grows with K.
        let s5 = batch_simrank(&g, &cfg(5));
        let s10 = batch_simrank(&g, &cfg(10));
        for i in 0..4 {
            for j in 0..4 {
                assert!(s10.get(i, j) + 1e-14 >= s5.get(i, j));
            }
        }
    }
}
