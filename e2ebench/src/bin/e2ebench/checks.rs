//! Reference checks. They run untimed, after the phase whose answers they
//! judge, and every `Err` or out-of-tolerance answer counts as one failed
//! operation.

use incsim::core::RankedNode;
use incsim::graph::DiGraph;
use incsim::linalg::DenseMatrix;
use incsim::serve::Epoch;
use std::collections::BTreeMap;

/// Tolerance for a reconstructed or recovered epoch against its live
/// recording. The repository's own bar is 1e-12; this leaves room for
/// rounding accumulated over a long stream.
pub const EXACT_TOL: f64 = 1e-9;

/// Tolerance for `citation-growth`'s final head against batch
/// recomputation. On a DAG every walk dies within the truncation, so
/// incremental and batch scores agree to rounding (observed: about
/// 1e-15 over the 1,600-op stream).
pub const DAG_HEAD_TOL: f64 = 1e-9;

/// Tolerance for `churn-durable`'s final head against batch
/// recomputation. On a cyclic graph each update's ΔS is itself a
/// `K`-term series, so the head drifts from `batch_simrank` at the same
/// `K` by more than rounding (observed: up to 9e-7 over the 408-op
/// stream at n = 256, 4e-6 at the self-test's n = 48), but far less
/// than an Inc-SR or apply-path error of 1e-4 would move it.
pub const CYCLIC_HEAD_TOL: f64 = 1e-5;

/// Relative tolerance for the sampling `Probe` engine at its default
/// options (512 walks per top-k, 4,096 walk pairs per pair read), judged
/// on aggregates so that one noisy entry cannot fail a correct answer.
/// Its sampling noise is `O(1/√walks)` relative to the score scale: over
/// 120 pair blocks and 9 top-k reads at n = 50k the aggregate relative
/// error stayed below 0.09 (pair blocks) and 0.13 (top-k), while single
/// pair reads reached 0.48.
pub const PROBE_PAIR_EPS: f64 = 0.25;
pub const PROBE_TOPK_EPS: f64 = 0.5;

/// What a perturbed answer is shifted by in the self-test: past every
/// tolerance, so every check site must reject it.
pub const PERTURBATION: f64 = 0.5;

/// Operations attempted and failed, summed over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// One operation whose outcome is `ok`. The first few failures name
    /// their check site on stderr.
    #[track_caller]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("failed operation at {}", std::panic::Location::caller());
            }
        }
    }

    /// `n` operations that cannot fail (plain reads).
    pub fn reads(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// One fallible library call.
    #[track_caller]
    pub fn result<T, E>(&mut self, r: &Result<T, E>) {
        self.check(r.is_ok());
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Largest entrywise difference of two rows (infinite when their lengths
/// differ), so a check can both judge and report it.
pub fn row_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(&g, &w)| (g - w).abs())
        .fold(0.0, f64::max)
}

/// Row `a` of an epoch, read pair by pair.
pub fn epoch_row(epoch: &Epoch, a: u32) -> Vec<f64> {
    (0..epoch.n() as u32).map(|b| epoch.pair(a, b)).collect()
}

/// Row `a` of a dense score matrix.
pub fn matrix_row(m: &DenseMatrix, a: u32) -> Vec<f64> {
    (0..m.cols()).map(|b| m.get(a as usize, b)).collect()
}

/// Column `a` of the `K`-truncated matrix-form SimRank,
/// `S = (1−C)·Σ_{t≤K} C^t·Q^t·(Qᵀ)^t`, computed exactly from the graph:
/// `K` reverse sparse matvecs `u_{t+1} = Qᵀ·u_t` from `u_0 = e_a`, then a
/// Horner pass `x ← u_t + C·Q·x`. `O(K·m)` time, `O(K·n)` memory. This is
/// the benchmark's own reference for the matrix-free engine, independent
/// of the library's query code.
pub fn series_column(g: &DiGraph, a: u32, c: f64, k: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut us: Vec<Vec<f64>> = Vec::with_capacity(k + 1);
    let mut u = vec![0.0; n];
    u[a as usize] = 1.0;
    for _ in 0..k {
        let mut next = vec![0.0; n];
        for (i, &ui) in u.iter().enumerate() {
            if ui == 0.0 {
                continue;
            }
            let ins = g.in_neighbors(i as u32);
            let w = ui / ins.len() as f64;
            for &v in ins {
                next[v as usize] += w;
            }
        }
        us.push(std::mem::replace(&mut u, next));
    }
    us.push(u);
    let mut x = us.pop().unwrap_or_default();
    while let Some(mut y) = us.pop() {
        for (i, yi) in y.iter_mut().enumerate() {
            let ins = g.in_neighbors(i as u32);
            if !ins.is_empty() {
                let s: f64 = ins.iter().map(|&v| x[v as usize]).sum();
                *yi += c * s / ins.len() as f64;
            }
        }
        x = y;
    }
    x.iter_mut().for_each(|v| *v *= 1.0 - c);
    x
}

/// The `k` nodes other than `a` with the highest exact scores, best
/// first, leaving out zeros.
pub fn exact_top(exact: &[f64], a: u32, k: usize) -> Vec<u32> {
    let mut best: Vec<u32> = (0..exact.len() as u32)
        .filter(|&b| b != a && exact[b as usize] > 0.0)
        .collect();
    best.sort_by(|&x, &y| exact[y as usize].total_cmp(&exact[x as usize]));
    best.truncate(k);
    best
}

/// Relative `L1` error of sampled answers against their exact values,
/// `Σ|got − want| / Σ want`: infinite when the exact values are all 0
/// and an answer is not.
fn relative_l1(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (err, sum) = pairs.fold((0.0, 0.0), |(e, s), (g, w)| (e + (g - w).abs(), s + w));
    if err == 0.0 {
        0.0
    } else {
        err / sum
    }
}

/// How far a sampled top-`k` answer for node `a` is from the exact
/// column, as the relative `L1` error of its scores against their nodes'
/// exact scores (so zero or rescaled scores fail). It is infinite unless
/// - the answer holds as many distinct nodes as the column has nonzero
///   scores other than `a`'s own, up to `k` (so an empty answer fails);
/// - every returned node is among the column's strong scores, at least
///   half the exact `k`-th best (so arbitrary nodes fail).
pub fn probe_topk_error(got: &[RankedNode], exact: &[f64], a: u32, k: usize) -> f64 {
    let best = exact_top(exact, a, k);
    let Some(&last) = best.last() else {
        return if got.is_empty() { 0.0 } else { f64::INFINITY };
    };
    let floor = exact[last as usize] / 2.0;
    let mut seen: Vec<u32> = got.iter().map(|r| r.node).collect();
    seen.sort_unstable();
    seen.dedup();
    let shaped = got.len() == best.len()
        && seen.len() == got.len()
        && got
            .iter()
            .all(|r| r.node != a && exact.get(r.node as usize).is_some_and(|&w| w >= floor));
    if !shaped {
        return f64::INFINITY;
    }
    relative_l1(got.iter().map(|r| (r.score, exact[r.node as usize])))
}

/// How far a block of sampled pair answers is from the exact scores of
/// its pairs, as the relative `L1` error over the block (so an all-zero
/// or rescaled block fails); infinite for a block of the wrong length or
/// with a score outside `[0, 1]`.
pub fn probe_pairs_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() || !got.iter().all(|v| (0.0..=1.0).contains(v)) {
        return f64::INFINITY;
    }
    relative_l1(got.iter().copied().zip(want.iter().copied()))
}

/// The worst error seen at each check site, with its tolerance, so a run
/// shows how close its answers came to failing.
#[derive(Debug, Default)]
pub struct Margins(BTreeMap<&'static str, (f64, f64)>);

impl Margins {
    /// Judges one answer whose error is `err` as one operation of
    /// `tally`: it fails above `tol`, or when `err` is NaN.
    #[track_caller]
    pub fn judge(&mut self, tally: &mut Tally, site: &'static str, err: f64, tol: f64) {
        let worst = self.0.entry(site).or_insert((0.0, tol));
        worst.0 = worst.0.max(err);
        tally.check(err <= tol);
    }

    /// One `check <site> worst <error> tol <tolerance>` line per site.
    pub fn print(&self) {
        for (site, (worst, tol)) in &self.0 {
            println!("check {site} worst {worst:.3e} tol {tol:.1e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incsim::core::{batch_simrank, SimRankConfig};
    use incsim::datagen::er::erdos_renyi;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows_match(got: &[f64], want: &[f64], tol: f64) -> bool {
        row_error(got, want) <= tol
    }

    fn toy() -> DiGraph {
        erdos_renyi(60, 240, &mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn series_column_matches_batch_recomputation() {
        let g = toy();
        let cfg = SimRankConfig::paper_default();
        let s = batch_simrank(&g, &cfg);
        for a in [0u32, 17, 59] {
            let col = series_column(&g, a, cfg.c, cfg.iterations);
            assert!(rows_match(&col, &matrix_row(&s, a), 1e-12));
        }
    }

    #[test]
    fn row_check_rejects_a_perturbed_entry() {
        let g = toy();
        let s = batch_simrank(&g, &SimRankConfig::paper_default());
        let want = matrix_row(&s, 5);
        let mut got = want.clone();
        assert!(rows_match(&got, &want, EXACT_TOL));
        got[7] += 1e-4;
        for tol in [EXACT_TOL, DAG_HEAD_TOL, CYCLIC_HEAD_TOL] {
            assert!(!rows_match(&got, &want, tol));
        }
        assert!(!rows_match(&got[1..], &want, EXACT_TOL));
    }

    #[test]
    fn margins_fail_errors_past_the_tolerance_and_keep_the_worst() {
        let mut t = Tally::default();
        let mut m = Margins::default();
        m.judge(&mut t, "site", 1e-12, EXACT_TOL);
        m.judge(&mut t, "site", PERTURBATION, EXACT_TOL);
        m.judge(&mut t, "site", f64::NAN, EXACT_TOL);
        m.judge(&mut t, "site", f64::INFINITY, EXACT_TOL);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(m.0["site"], (f64::INFINITY, EXACT_TOL));
    }

    /// A column whose strong scores sit far below the old absolute 0.05,
    /// as on a sparse graph with 50k nodes.
    fn small_column() -> (Vec<f64>, u32) {
        let g = toy();
        let cfg = SimRankConfig::paper_default();
        let a = 4u32;
        let col = series_column(&g, a, cfg.c, cfg.iterations);
        (col.iter().map(|v| v * 0.01).collect(), a)
    }

    fn exact_answer(col: &[f64], a: u32, k: usize) -> Vec<RankedNode> {
        exact_top(col, a, k)
            .into_iter()
            .map(|node| RankedNode {
                node,
                score: col[node as usize],
            })
            .collect()
    }

    #[test]
    fn probe_topk_check_accepts_sampling_noise() {
        let (col, a) = small_column();
        let exact = exact_answer(&col, a, 5);
        assert!(probe_topk_error(&exact, &col, a, 5) <= PROBE_TOPK_EPS);
        let noisy: Vec<RankedNode> = exact
            .iter()
            .enumerate()
            .map(|(i, r)| RankedNode {
                node: r.node,
                score: r.score * if i % 2 == 0 { 1.2 } else { 0.8 },
            })
            .collect();
        assert!(probe_topk_error(&noisy, &col, a, 5) <= PROBE_TOPK_EPS);
    }

    #[test]
    fn probe_topk_check_rejects_empty_arbitrary_or_rescaled_answers() {
        let (col, a) = small_column();
        let exact = exact_answer(&col, a, 5);
        assert!(probe_topk_error(&[], &col, a, 5) > PROBE_TOPK_EPS);
        assert!(probe_topk_error(&exact[1..], &col, a, 5) > PROBE_TOPK_EPS);
        let zero: Vec<RankedNode> = exact
            .iter()
            .map(|r| RankedNode {
                node: r.node,
                score: 0.0,
            })
            .collect();
        assert!(probe_topk_error(&zero, &col, a, 5) > PROBE_TOPK_EPS);
        let doubled: Vec<RankedNode> = exact
            .iter()
            .map(|r| RankedNode {
                node: r.node,
                score: 2.0 * r.score,
            })
            .collect();
        assert!(probe_topk_error(&doubled, &col, a, 5) > PROBE_TOPK_EPS);
        // The weakest nodes, reported with their own exact scores.
        let mut weakest: Vec<u32> = (0..col.len() as u32).filter(|&b| b != a).collect();
        weakest.sort_by(|&x, &y| col[x as usize].total_cmp(&col[y as usize]));
        let arbitrary: Vec<RankedNode> = weakest[..5]
            .iter()
            .map(|&node| RankedNode {
                node,
                score: col[node as usize],
            })
            .collect();
        assert!(probe_topk_error(&arbitrary, &col, a, 5) > PROBE_TOPK_EPS);
        let mut repeated = exact.clone();
        repeated[1] = repeated[0];
        assert!(probe_topk_error(&repeated, &col, a, 5) > PROBE_TOPK_EPS);
        let mut with_self = exact.clone();
        with_self[0].node = a;
        assert!(probe_topk_error(&with_self, &col, a, 5) > PROBE_TOPK_EPS);
    }

    #[test]
    fn probe_topk_check_wants_nothing_from_an_isolated_node() {
        let col = vec![0.4, 0.0, 0.0];
        assert!(probe_topk_error(&[], &col, 0, 10) <= PROBE_TOPK_EPS);
        let one = [RankedNode {
            node: 1,
            score: 0.01,
        }];
        assert!(probe_topk_error(&one, &col, 0, 10) > PROBE_TOPK_EPS);
    }

    #[test]
    fn probe_pair_check_rejects_zero_or_rescaled_blocks() {
        let (col, a) = small_column();
        let want: Vec<f64> = exact_top(&col, a, 8)
            .iter()
            .map(|&b| col[b as usize])
            .collect();
        assert!(probe_pairs_error(&want, &want) <= PROBE_PAIR_EPS);
        let noisy: Vec<f64> = want
            .iter()
            .enumerate()
            .map(|(i, w)| w * if i % 2 == 0 { 1.1 } else { 0.9 })
            .collect();
        assert!(probe_pairs_error(&noisy, &want) <= PROBE_PAIR_EPS);
        let zero = vec![0.0; want.len()];
        assert!(probe_pairs_error(&zero, &want) > PROBE_PAIR_EPS);
        let scaled: Vec<f64> = want.iter().map(|w| w * 1.5).collect();
        assert!(probe_pairs_error(&scaled, &want) > PROBE_PAIR_EPS);
        assert!(probe_pairs_error(&want[1..], &want) > PROBE_PAIR_EPS);
    }

    #[test]
    fn tally_counts_errors_and_failures() {
        let mut t = Tally::default();
        t.check(true);
        t.check(false);
        t.result::<(), &str>(&Err("boom"));
        t.reads(3);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
    }
}
