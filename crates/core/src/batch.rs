//! Batch SimRank in matrix form (the paper's precomputation step and its
//! `Batch` comparator).
//!
//! Iterates `S_t = C·Q·S_{t−1}·Qᵀ + (1−C)·Iₙ` from `S_0 = (1−C)·Iₙ`, which
//! yields the truncated series `S_K = (1−C)·Σ_{k=0}^{K} Cᵏ·Qᵏ·(Qᵀ)ᵏ`
//! (Eq. 34) — the weighted count of symmetric in-link paths.
//!
//! ## The fused sweep
//!
//! One iteration is one pass over the rows of `S_t`. Row `i` first
//! accumulates `w = (Q·S_{t−1})[i,:] = Σ_{k∈I(i)} q_ik·S_{t−1}[k,:]` in
//! its worker's row buffer, then gathers each entry straight from it:
//! `S_t[i,j] = C·Σ_{l∈I(j)} q_jl·w[l] + (1−C)·δ_ij`. The product
//! `Q·S_{t−1}` is never materialised, so no `n²` intermediate is written,
//! read back or transposed.
//!
//! * **Symmetric half-sweep.** Every iterate is symmetric, so row `i`
//!   gathers only the entries `j ≥ i`, and a cache-blocked mirror copies
//!   the upper triangle into the lower one. The scores are therefore
//!   exactly symmetric.
//! * **Two buffers.** `S_{t−1}` and `S_t` are allocated once and swapped
//!   after every iteration. Peak working memory is two `n²` matrices plus
//!   one length-`n` row buffer per worker, none of which an iteration
//!   allocates.
//! * **Shared partial sums.** Nodes with identical in-neighbour sets have
//!   identical rows of `Q`, hence identical rows of `Q·S·Qᵀ`. Such a row
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
//! ## The active sets
//!
//! `S_t − S_{t−1} = (1−C)·Cᵗ·Qᵗ·(Qᵀ)ᵗ` is the t-th series term. Row `i`
//! of `Qᵗ` is nonzero only if `i` has an in-link path of length `t`, so
//! the term is zero outside `A_t × A_t`, where `A_0` holds every node and
//! `A_t = {i : I(i) ∩ A_{t−1} ≠ ∅}`. The sets are nested,
//! `A_t ⊆ A_{t−1}`, and each follows from the last in `O(m)`. This is the
//! source paper's affected-area pruning (Theorem 4) applied to the batch
//! series: iteration `t` sweeps only the rows of `A_t` and gathers only
//! the columns of `A_t`; every other entry keeps its value.
//!
//! * **Exact in floating point.** Entry `(i, j)` is computed from the
//!   entries `(k, l) ∈ I(i) × I(j)` of `S_{t−1}`. Outside `A_t × A_t`
//!   those all lie outside `A_{t−1} × A_{t−1}`, so by induction they hold
//!   the bits of `S_{t−2}`, and recomputing the entry would give back the
//!   bits it has. Carrying it over is what the full sweep computes.
//! * **Carry-over.** Both buffers start as `(1−C)·I`, so iteration 1
//!   copies nothing. After that, the buffer being written holds `S_{t−2}`,
//!   which differs from `S_{t−1}` only inside `A_{t−1} × A_{t−1}`. Before
//!   iteration `t` the part of that square outside `A_t × A_t` is copied
//!   over: whole rows for the nodes that left the set, and the columns
//!   that left for the rows that stay. Each worker copies within its own
//!   rows, so the copy adds no thread.
//! * **Block masks.** Every row keeps one bit per 64-column block that
//!   may hold a nonzero (`n·⌈n/4096⌉` words in all), and the row buffer
//!   adds only the set blocks of each in-neighbour's row. The series only
//!   adds nonnegative terms, so a nonzero entry never returns to zero and
//!   a bit never needs clearing; a skipped block would only have added
//!   `+0.0` to a nonnegative sum, which leaves its bits as they are. The
//!   bits come from the entries the sweep and the mirror write anyway,
//!   and a row whose mask is full skips them and takes the contiguous
//!   axpy, so a dense graph pays no extra pass.
//! * **Exact early exit.** Once `A_t` is empty, every later term is zero
//!   and the loop stops: `S_{t−1}` is `S_K`. On a DAG that happens after
//!   the longest in-link path; on a graph with a cycle `A_t` stays
//!   (almost) all nodes and the sweep does the full work, with no second
//!   kernel.
//!
//! Complexity of iteration `t` is the row buffers of the rows in `A_t`,
//! at most `Σ_{i∈A_t} |I(i)|·n` multiply-adds, plus the gathers over
//! `A_t × A_t`, `Σ_{i∈A_t} Σ_{j∈A_t, j≥i} |I(j)|`: `O(d·n²)` when every
//! node stays active, the same class as Lizorkin's partial-sums method and
//! the paper's `Batch` \[6\]. The sweep is bound by the memory traffic of
//! streaming rows of `S_{t−1}`, not by arithmetic: it gains by moving
//! fewer bytes, not by adding threads. On a citation DAG the active rows
//! are the most-cited nodes, so the row buffers keep most of their work
//! while the gathers shrink with `|A_t|²`; the block masks cut the bytes
//! the row buffers stream.

use crate::fxhash::FxHashMap;
use crate::SimRankConfig;
use incsim_graph::transition::backward_transition;
use incsim_graph::DiGraph;
use incsim_linalg::{vecops, CsrMatrix, DenseMatrix};
use std::ops::Range;

/// Tuning knobs for [`batch_simrank_detailed`].
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads for the fused sweep (`0` = use all cores). The
    /// scores do not depend on it.
    pub threads: usize,
    /// Deduplicate identical in-neighbour sets and share their partial sums.
    pub share_partial_sums: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            share_partial_sums: true,
        }
    }
}

/// Outcome of a batch computation.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The SimRank score matrix.
    pub scores: DenseMatrix,
    /// Sweeps actually run: `K`, or fewer when the active set `A_t`
    /// empties first (every later term of the series is zero).
    pub iterations: usize,
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

    // Both buffers start as S_0 = (1−C)·I, so they agree everywhere
    // before iteration 1.
    let one_minus_c = 1.0 - cfg.c;
    let mut s = DenseMatrix::zeros(n, n);
    let mut next = DenseMatrix::zeros(n, n);
    for i in 0..n {
        s.set(i, i, one_minus_c);
        next.set(i, i, one_minus_c);
    }
    let sweep = Sweep {
        q: &q,
        row_rep: &row_rep,
        c: cfg.c,
        one_minus_c,
    };
    let mut masks = BlockMasks::diagonal(n);
    let mut fresh = vec![0u64; n * masks.words];
    let mut row_bufs: Vec<RowBuf> = (0..threads.max(1))
        .map(|_| RowBuf::new(n, masks.words))
        .collect();
    let mut active = ActiveSet::all(n);

    let mut iterations = 0;
    while iterations < cfg.iterations {
        active.advance(&q);
        if active.nodes.is_empty() {
            break;
        }
        let step = Step {
            prev: &s,
            masks: &masks,
            active: &active.nodes,
            // At t = 1 both buffers still hold S_0: nothing to carry.
            left: if iterations == 0 { &[] } else { &active.left },
        };
        let bounds = sweep.row_bounds(step.active, threads);
        sweep.run(&step, &bounds, &mut next, &mut fresh, &mut row_bufs);
        masks.merge(&fresh, &active.nodes, &row_rep);
        sweep.copy_shared_rows(&mut next, &active.nodes);
        mirror_upper(&mut next, &mut masks, &active.nodes);
        masks.mark_full(&active.nodes);
        iterations += 1;
        std::mem::swap(&mut s, &mut next);
    }

    BatchResult {
        scores: s,
        iterations,
        shared_rows,
    }
}

/// Below this many active rows the sweep runs on the calling thread:
/// spawning workers would cost more than the rows they take.
const PARALLEL_MIN_ROWS: usize = 128;

/// Side of the square tiles the mirror copies: a source and a destination
/// tile (2 × 8 KiB) stay in L1 while the tile is transposed.
const MIRROR_TILE: usize = 32;

/// Columns per block of the block masks: 512 bytes of a row.
const BLOCK: usize = 64;

/// The active set `A_t`: the nodes with an in-link path of length `t`.
struct ActiveSet {
    /// The members of `A_t`, in increasing order.
    nodes: Vec<u32>,
    /// `member[v]` is true iff `v ∈ A_t`.
    member: Vec<bool>,
    /// `A_{t−1} \ A_t`, in increasing order: the nodes that left at the
    /// last [`ActiveSet::advance`].
    left: Vec<u32>,
}

impl ActiveSet {
    /// `A_0`: every node.
    fn all(n: usize) -> Self {
        ActiveSet {
            nodes: (0..n as u32).collect(),
            member: vec![true; n],
            left: Vec::new(),
        }
    }

    /// Steps `A_{t−1}` to `A_t = {i : I(i) ∩ A_{t−1} ≠ ∅}` in `O(m)`,
    /// where row `i` of `q` lists `I(i)`. Only members of `A_{t−1}` are
    /// candidates, since the sets are nested.
    fn advance(&mut self, q: &CsrMatrix) {
        let member = &self.member;
        let (stay, left) = self
            .nodes
            .iter()
            .partition(|&&i| q.row(i as usize).any(|(k, _)| member[k as usize]));
        for &v in &left {
            self.member[v as usize] = false;
        }
        self.nodes = stay;
        self.left = left;
    }
}

/// For every row of the score matrix, one bit per [`BLOCK`]-column block,
/// set if the block may hold a nonzero. The series only adds nonnegative
/// terms, so a nonzero entry never returns to zero: the masks only gain
/// bits, and one set of masks covers both buffers.
struct BlockMasks {
    /// `u64`s per row: `⌈n / 4096⌉`, at least one.
    words: usize,
    bits: Vec<u64>,
    /// The mask of a row whose every block is set.
    full: Vec<u64>,
    /// `is_full[i]`: row `i`'s mask was full after the last iteration.
    is_full: Vec<bool>,
}

impl BlockMasks {
    /// The masks of `(1−C)·I`: each row's diagonal block.
    fn diagonal(n: usize) -> Self {
        let blocks = n.div_ceil(BLOCK);
        let words = blocks.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for (i, row) in bits.chunks_exact_mut(words).enumerate() {
            row[i / (BLOCK * 64)] |= 1 << ((i / BLOCK) % 64);
        }
        let mut full = vec![u64::MAX; words];
        if blocks % 64 != 0 {
            full[words - 1] = (1 << (blocks % 64)) - 1;
        }
        BlockMasks {
            words,
            bits,
            full,
            // With one block, the diagonal block is the whole row.
            is_full: vec![blocks == 1; n],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Adds the bits the sweep recorded in `fresh` for the active rows; a
    /// shared row takes its representative's, a superset of its own.
    fn merge(&mut self, fresh: &[u64], active: &[u32], row_rep: &[u32]) {
        let words = self.words;
        for &i in active {
            let (i, rep) = (i as usize, row_rep[i as usize] as usize);
            if self.is_full[i] {
                continue;
            }
            let dst = &mut self.bits[i * words..(i + 1) * words];
            for (d, &f) in dst.iter_mut().zip(&fresh[rep * words..(rep + 1) * words]) {
                *d |= f;
            }
        }
    }

    /// Marks the active rows whose masks have filled up.
    fn mark_full(&mut self, active: &[u32]) {
        for &i in active {
            let i = i as usize;
            self.is_full[i] = self.row(i) == self.full;
        }
    }
}

/// Records in one row's mask the blocks of the nonzeros written to it in
/// increasing column order, gathering a mask word's bits in a register
/// until the columns move on to the next word.
struct RowBits<'a> {
    mask: &'a mut [u64],
    word: usize,
    acc: u64,
}

impl<'a> RowBits<'a> {
    fn new(mask: &'a mut [u64]) -> Self {
        RowBits {
            mask,
            word: 0,
            acc: 0,
        }
    }

    #[inline]
    fn note(&mut self, j: usize, x: f64) {
        if j / (BLOCK * 64) != self.word {
            self.mask[self.word] |= self.acc;
            (self.word, self.acc) = (j / (BLOCK * 64), 0);
        }
        self.acc |= u64::from(x != 0.0) << ((j / BLOCK) % 64);
    }

    fn finish(self) {
        self.mask[self.word] |= self.acc;
    }
}

/// Calls `f` with the column range of every block set in `mask`, in
/// increasing order, the last block cut at column `n`.
#[inline]
fn for_each_block(mask: &[u64], n: usize, mut f: impl FnMut(Range<usize>)) {
    for (wi, &word) in mask.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let b = wi * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            f(b * BLOCK..((b + 1) * BLOCK).min(n));
        }
    }
}

/// One worker's row buffer `w`, and the blocks of it that may hold a
/// nonzero: `w` is zero outside `dirty`.
struct RowBuf {
    w: Vec<f64>,
    dirty: Vec<u64>,
}

impl RowBuf {
    fn new(n: usize, words: usize) -> Self {
        RowBuf {
            w: vec![0.0; n],
            dirty: vec![0; words],
        }
    }
}

/// What the workers of iteration `t` read.
struct Step<'a> {
    /// `S_{t−1}`.
    prev: &'a DenseMatrix,
    /// Masks covering the nonzeros of `S_{t−1}`.
    masks: &'a BlockMasks,
    /// `A_t`, in increasing order.
    active: &'a [u32],
    /// The nodes whose rows and columns are carried over from `S_{t−1}`:
    /// `A_{t−1} \ A_t`, in increasing order (none at `t = 1`).
    left: &'a [u32],
}

/// One worker's share of an iteration's output: whole rows of `S_t` from
/// row `first` on, and the block-mask bits of the rows it sweeps.
struct Out<'a> {
    first: usize,
    scores: &'a mut [f64],
    bits: &'a mut [u64],
}

/// The read-only inputs of every iteration `S_t = C·Q·S_{t−1}·Qᵀ + (1−C)·I`.
struct Sweep<'a> {
    q: &'a CsrMatrix,
    /// `row_rep[i]`: the first node whose in-neighbour set equals node
    /// `i`'s (`i` itself when it is the first), so `row_rep[i] <= i`.
    row_rep: &'a [u32],
    c: f64,
    one_minus_c: f64,
}

impl Sweep<'_> {
    /// Splits the active rows into at most `threads` contiguous runs of
    /// about equal cost, returned as positions `0 = b₀ < b₁ < … < |A_t|`
    /// in `active`. Active row `i` costs its row buffer (`|I(i)|·n`), its
    /// gathers over the active triangle (`Σ_{j∈A_t, j≥i} |I(j)|`) and as
    /// many writes; a shared row costs nothing here, as it is copied after
    /// the sweep. The active rows cluster on the nodes with the longest
    /// in-link paths, so the split is redone every iteration.
    fn row_bounds(&self, active: &[u32], threads: usize) -> Vec<usize> {
        let n = self.row_rep.len();
        let len = active.len();
        let mut bounds = vec![0];
        if threads > 1 && len >= PARALLEL_MIN_ROWS {
            let mut costs = vec![0u64; len];
            let mut gathers = 0u64;
            for (p, &i) in active.iter().enumerate().rev() {
                let i = i as usize;
                let nnz = self.q.row_nnz(i);
                gathers += nnz as u64;
                if self.row_rep[i] as usize == i {
                    costs[p] = (nnz * n + (len - p)) as u64 + gathers;
                }
            }
            let total: u64 = costs.iter().sum();
            let mut done = 0u64;
            for (p, cost) in costs.iter().enumerate() {
                done += cost;
                if bounds.len() < threads && done * threads as u64 >= bounds.len() as u64 * total {
                    bounds.push(p + 1);
                }
            }
        }
        if bounds.last() != Some(&len) {
            bounds.push(len);
        }
        bounds
    }

    /// Runs iteration `t` over the rows of `next` (`S_{t−2}`, or `S_0`):
    /// the carry-over, then the active upper-triangle entries. Each run of
    /// active rows goes to one worker with its own row buffer, together
    /// with every row up to the next run's first; the last run goes to the
    /// calling thread.
    fn run(
        &self,
        step: &Step<'_>,
        bounds: &[usize],
        next: &mut DenseMatrix,
        fresh: &mut [u64],
        row_bufs: &mut [RowBuf],
    ) {
        let n = next.rows();
        let words = step.masks.words;
        std::thread::scope(|scope| {
            let mut rest = next.as_mut_slice();
            let mut rest_bits = fresh;
            let mut first = 0;
            for (run, buf) in bounds.windows(2).zip(row_bufs.iter_mut()) {
                let end = step.active.get(run[1]).map_or(n, |&i| i as usize);
                let (scores, tail) = std::mem::take(&mut rest).split_at_mut((end - first) * n);
                rest = tail;
                let (bits, tail) =
                    std::mem::take(&mut rest_bits).split_at_mut((end - first) * words);
                rest_bits = tail;
                let out = Out {
                    first,
                    scores,
                    bits,
                };
                let rows = run[0]..run[1];
                if rest.is_empty() {
                    self.rows(step, rows, out, buf);
                } else {
                    scope.spawn(move || self.rows(step, rows, out, buf));
                }
                first = end;
            }
        });
    }

    /// One worker's part of iteration `t`. It first carries over the
    /// entries of `A_{t−1} × A_{t−1}` outside `A_t × A_t` from `S_{t−1}`:
    /// whole rows for the nodes that left, and the columns that left for
    /// the active rows. It then writes the active upper-triangle entries
    /// `j ≥ i, j ∈ A_t` of the active rows `active[rows]`, skipping shared
    /// rows, and records their nonzero blocks in `out.bits`.
    fn rows(&self, step: &Step<'_>, rows: Range<usize>, out: Out<'_>, buf: &mut RowBuf) {
        let (prev, masks, active) = (step.prev, step.masks, step.active);
        let n = prev.cols();
        let words = masks.words;
        let end = out.first + out.scores.len() / n;
        let row_of = |i: usize| (i - out.first) * n..(i - out.first + 1) * n;
        let left_here = step.left.partition_point(|&v| (v as usize) < out.first)
            ..step.left.partition_point(|&v| (v as usize) < end);
        for &i in &step.left[left_here] {
            out.scores[row_of(i as usize)].copy_from_slice(prev.row(i as usize));
        }
        let RowBuf { w, dirty } = buf;
        for p in rows {
            let i = active[p] as usize;
            let row = &mut out.scores[row_of(i)];
            let old = prev.row(i);
            for &j in step.left {
                row[j as usize] = old[j as usize];
            }
            if self.row_rep[i] as usize != i {
                continue;
            }
            // w = (Q·S_{t−1})[i,:] over the blocks where an in-neighbour's
            // row may be nonzero; w is zero everywhere else. A first term
            // with a full mask is assigned over the whole row, as it
            // covers every block; otherwise the blocks the previous row
            // left are cleared first. A full mask takes the contiguous
            // axpy.
            let mut terms = self.q.row(i).peekable();
            match terms.peek() {
                Some(&(k, v)) if masks.is_full[k as usize] => {
                    for (wl, &x) in w.iter_mut().zip(prev.row(k as usize)) {
                        *wl = v * x;
                    }
                    dirty.copy_from_slice(&masks.full);
                    terms.next();
                }
                _ => {
                    for_each_block(dirty, n, |cols| w[cols].fill(0.0));
                    dirty.fill(0);
                }
            }
            for (k, v) in terms {
                let (x, mask) = (prev.row(k as usize), masks.row(k as usize));
                if masks.is_full[k as usize] {
                    vecops::axpy(v, x, w);
                } else {
                    for_each_block(mask, n, |cols| {
                        vecops::axpy(v, &x[cols.clone()], &mut w[cols]);
                    });
                }
                for (d, &m) in dirty.iter_mut().zip(mask) {
                    *d |= m;
                }
            }
            let bits = &mut out.bits[(i - out.first) * words..(i - out.first + 1) * words];
            if masks.is_full[i] {
                bits.copy_from_slice(&masks.full);
                for &j in &active[p..] {
                    row[j as usize] = self.c * self.q.row_dot(j as usize, w);
                }
            } else {
                bits.fill(0);
                let mut bits = RowBits::new(bits);
                for &j in &active[p..] {
                    let j = j as usize;
                    row[j] = self.c * self.q.row_dot(j, w);
                    bits.note(j, row[j]);
                }
                bits.finish();
            }
            row[i] += self.one_minus_c;
        }
    }

    /// Fills the active upper-triangle entries of every shared active row
    /// from its representative's row: `S_t[i,j] = S_t[r,j] + (1−C)·δ_ij`
    /// for `j ≥ i > r`, `j ∈ A_t`, all of which the sweep has computed
    /// (`i` and `r` have the same in-neighbours, so both are active).
    fn copy_shared_rows(&self, next: &mut DenseMatrix, active: &[u32]) {
        let n = next.cols();
        let data = next.as_mut_slice();
        for (p, &i) in active.iter().enumerate() {
            let i = i as usize;
            let rep = self.row_rep[i] as usize;
            if rep == i {
                continue;
            }
            let (head, tail) = data.split_at_mut(i * n);
            let (src, dst) = (&head[rep * n..(rep + 1) * n], &mut tail[..n]);
            for &j in &active[p..] {
                dst[j as usize] = src[j as usize];
            }
            dst[i] += self.one_minus_c;
        }
    }
}

/// Copies the upper triangle of the `active × active` entries of a square
/// matrix into their lower triangle, one [`MIRROR_TILE`]-square tile of
/// the active list at a time, so that the strided reads of a source tile
/// are served from cache. A row whose mask is not yet full gains the
/// blocks of the nonzeros it receives.
fn mirror_upper(m: &mut DenseMatrix, masks: &mut BlockMasks, active: &[u32]) {
    let n = m.rows();
    let words = masks.words;
    let data = m.as_mut_slice();
    for (bi, tile_rows) in active.chunks(MIRROR_TILE).enumerate() {
        let done = ((bi + 1) * MIRROR_TILE).min(active.len());
        for tile_cols in active[..done].chunks(MIRROR_TILE) {
            for &i in tile_rows {
                let i = i as usize;
                let bits = &mut masks.bits[i * words..(i + 1) * words];
                let lower = tile_cols.iter().map(|&j| j as usize).take_while(|&j| j < i);
                if masks.is_full[i] {
                    for j in lower {
                        data[i * n + j] = data[j * n + i];
                    }
                } else {
                    let mut bits = RowBits::new(bits);
                    for j in lower {
                        data[i * n + j] = data[j * n + i];
                        bits.note(j, data[i * n + j]);
                    }
                    bits.finish();
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

    /// The textbook sweep: every iteration builds every row buffer from
    /// zero, gathers every upper entry and mirrors, for all `k`
    /// iterations, with no sharing and no active sets.
    fn reference_sweep(g: &DiGraph, c: f64, k: usize) -> DenseMatrix {
        let n = g.node_count();
        let q = backward_transition(g);
        let mut s = DenseMatrix::identity(n);
        s.scale(1.0 - c);
        let mut w = vec![0.0; n];
        for _ in 0..k {
            let mut next = DenseMatrix::zeros(n, n);
            for i in 0..n {
                w.fill(0.0);
                for (l, v) in q.row(i) {
                    vecops::axpy(v, s.row(l as usize), &mut w);
                }
                for j in i..n {
                    next.set(i, j, c * q.row_dot(j, &w));
                }
                next.add_to(i, i, 1.0 - c);
            }
            for i in 0..n {
                for j in 0..i {
                    next.set(i, j, next.get(j, i));
                }
            }
            s = next;
        }
        s
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The kernel against [`reference_sweep`] at `K = 15`, bit for bit at
    /// every thread count from 1 to 4; returns the sweeps it ran.
    fn assert_matches_reference(g: &DiGraph) -> usize {
        let truth = bits(&reference_sweep(g, 0.6, 15));
        let mut iterations = Vec::new();
        for threads in 1..=4 {
            let opts = BatchOptions {
                threads,
                ..Default::default()
            };
            let r = batch_simrank_detailed(g, &cfg(15), &opts);
            assert!(bits(&r.scores) == truth, "threads={threads} differs");
            iterations.push(r.iterations);
        }
        assert!(iterations.iter().all(|&t| t == iterations[0]));
        iterations[0]
    }

    /// `layers` layers of `width` nodes; every node of layer `L + 1` is
    /// cited by three nodes of layer `L`, so the longest in-link path has
    /// length `layers − 1`.
    fn layered_dag(layers: u32, width: u32) -> DiGraph {
        let mut next = xorshift(0x853c_49e6_748f_ea9b);
        let mut edges = Vec::new();
        for layer in 1..layers {
            for v in layer * width..(layer + 1) * width {
                for _ in 0..3 {
                    edges.push(((layer - 1) * width + next(width), v));
                }
            }
        }
        DiGraph::from_edges((layers * width) as usize, &edges)
    }

    #[test]
    fn restricted_sweep_matches_the_reference_on_a_citation_dag() {
        let g = citation_dag(300);
        let sweeps = assert_matches_reference(&g);
        assert!(sweeps <= 15);
    }

    #[test]
    fn restricted_sweep_matches_the_reference_on_a_cyclic_graph() {
        assert_eq!(assert_matches_reference(&cyclic_er(296)), 15);
    }

    #[test]
    fn restricted_sweep_stops_once_no_in_path_is_long_enough() {
        // In-paths of length at most 3: A_4 is empty, so the kernel runs
        // exactly three sweeps, and the first has 180 active rows, enough
        // to split over workers.
        let g = layered_dag(4, 60);
        assert_eq!(assert_matches_reference(&g), 3);
    }

    #[test]
    fn restricted_sweep_runs_every_iteration_on_an_in_chain_longer_than_k() {
        // A chain 0 → 1 → … → 149 with a few forward chords: A_t is
        // {t, …, 149} and never empties before K.
        let mut edges: Vec<(u32, u32)> = (0..149).map(|v| (v, v + 1)).collect();
        edges.extend((0..140).step_by(7).map(|v| (v, v + 5)));
        let g = DiGraph::from_edges(150, &edges);
        assert_eq!(assert_matches_reference(&g), 15);
    }

    #[test]
    fn restricted_sweep_keeps_a_cycles_out_reach_active() {
        // One back edge closes a cycle in the citation DAG: the nodes the
        // cycle reaches have in-paths of every length, the rest do not.
        let mut g = citation_dag(300);
        assert_eq!(g.in_degree(299), 0);
        let cited = g.out_neighbors(299)[0];
        g.insert_edge(cited, 299).unwrap();
        assert_eq!(assert_matches_reference(&g), 15);
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
    fn empty_graph_is_scaled_identity() {
        let g = DiGraph::new(3);
        let r = batch_simrank_detailed(&g, &cfg(5), &BatchOptions::default());
        let mut expect = DenseMatrix::identity(3);
        expect.scale(0.4);
        assert!(r.scores.max_abs_diff(&expect) < 1e-15);
        // No node has an in-link, so A_1 is empty and no sweep runs.
        assert_eq!(r.iterations, 0);
        assert_eq!(batch_simrank(&DiGraph::new(0), &cfg(5)).rows(), 0);
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
