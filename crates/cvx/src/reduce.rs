//! Box-grounded reduction of provably redundant linear inequality rows.
//!
//! The Pro-Temp design-point problems carry thousands of structured linear
//! rows — a temperature limit per core per horizon step and a pairwise
//! gradient row per core pair per (strided) step. As the thermal system
//! approaches steady state the late-step rows become near copies of each
//! other, and at low frequency targets the pairwise gradient rows form a
//! near-degenerate active set that stalls Newton centerings for tens of
//! steps per outer iteration. This module removes that redundancy *at the
//! source*, before phase I ever sees the system.
//!
//! # The domination certificate
//!
//! A candidate row `cᵀx ≤ r_c` may be dropped when some retained row
//! `dᵀx ≤ r_d` implies it over the variable box `[lo, hi]` (the bounds
//! harvested from the problem's own single-entry rows):
//!
//! ```text
//! cᵀx = dᵀx + (c − d)ᵀx ≤ r_d + max_{x ∈ box} (c − d)ᵀx = r_d + M
//! ```
//!
//! so `r_d + M ≤ r_c` proves every box point satisfying the dominator also
//! satisfies the candidate — with slack at least as large, which is what
//! preserves phase I's *strict*-feasibility margins. Single-entry rows
//! (the box rows themselves) are never candidates or dominators: they
//! ground the certificate and the Farkas box harvesting, and must survive.
//!
//! Dropping only dominated rows leaves the feasible set **exactly equal**
//! to the full system's, so feasibility verdicts cannot change; the
//! optimum moves only within the solver tolerance (fewer barrier terms
//! shift the central path, not the constraint set). A cushion of
//! [`PRUNE_REL_TOL`] times the accumulated magnitude absorbs the `f64`
//! rounding of the bound itself, so near ties are kept, never dropped.
//!
//! # Cost model: the analysis is box-free, the decision is per-cell
//!
//! Across a Phase-1 sweep every cell shares the row *coefficients*; only
//! the right-hand sides move (offsets with the starting temperature, the
//! workload bound with the target) — and with them the harvested box: at
//! hot starting temperatures the first-step temperature rows (single-entry,
//! rhs `≈ t_max − t_start`) undercut the static power box. An analysis
//! keyed on the box would rebuild at exactly those cells, and its pair
//! ranking is quadratic per support bucket: a box-keyed analysis once made
//! the pruned cold sweep *slower* in wall-clock than the unpruned one
//! despite fewer Newton steps.
//!
//! [`ReduceAnalysis`] is therefore a pure function of the row coefficients.
//! It buckets multi-entry rows by nonzero support and stores each bucket's
//! member coefficients once, member-major over the support. Per candidate
//! it keeps the [`MAX_DOMINATORS`] fellow members with the smallest
//! coefficient difference, ranked by `‖c − d‖₁`, a box-independent proxy
//! for the boxed maximum: the near-duplicate rows this pass targets have
//! tiny differences, hence tiny `M` under *any* box. A pair stores only
//! its two rows and their places in the bucket. The ranking is one
//! column-major pass per bucket: for each candidate, the distance to every
//! member accumulates lane by lane in support order. A bucket of `b`
//! members over `s` columns costs `O(b²·s)` flops and `O(b·s)` scratch,
//! never a `b × b` distance matrix. On Niagara-8 at the default
//! `gradient_stride` of 5 the whole analysis (4 835 rows, buckets of up to
//! 2 744 members over 9 columns) builds in 0.05–0.11 s in a release build
//! on a 2-vCPU virtual machine.
//!
//! A cell's prune decision ([`ReduceAnalysis::select_into`]) is then one
//! fused pass over the candidates. Each bucket gathers the cell's
//! harvested `[lo, hi]` over its support once; each stored pair recomputes
//! its difference `c − d` from the bucket's coefficients and evaluates its
//! boxed maximum `M` against that gather, then compares right-hand sides —
//! `O(pairs · s)` work, no pair cache to probe, nothing to rebuild, ever.
//!
//! A domination guard skips the pairs that cannot fire before any of that
//! work. When a bucket's gathered box holds the origin (`lo ≤ 0 ≤ hi` on
//! every support column), every boxed-maximum term `v·hi` (`v > 0`) or
//! `v·lo` (`v < 0`) is `≥ 0`, or not finite and the pair void, so
//! `M ≥ 0`. Rounding is monotone, so `rhs[dom] + M ≥ rhs[dom]` and
//! `rhs[cand] − τ·mag ≤ rhs[cand]` (`τ·mag ≥ 0`): a pair with
//! `rhs[dom] > rhs[cand]` can never satisfy the firing inequality and is
//! skipped without calling `boxed_max`. The skip is exact, so every
//! selection is the one the unguarded pass makes. The paper model's boxes
//! hold the origin: on the MPC loop of its Niagara-8 platform the guard
//! cut a selection from 0.86–1.09 ms to 0.60–0.78 ms (release build,
//! 2-vCPU virtual machine, four runs each).
//!
//! Soundness never depends on *which* dominators were kept — only the
//! fired inequality, evaluated against the cell's own box, proves a drop —
//! so the box-free ranking cannot make a verdict unsound, only (at worst)
//! miss a prune.
//!
//! Because the analysis depends on the coefficients alone, a
//! [`crate::ProblemFamily`] builds it once, at construction, and every
//! worker thread, cell and probe of the family shares it through an `Arc`:
//! the per-cell work is only the [`ReduceAnalysis::select_into`] pass, and
//! the selection — a pure function of the analysis and the cell's rhs — is
//! the same whichever cell the family was built from.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::certificate::single_entry;
use crate::Problem;

/// Relative cushion on the domination bound: `r_d + M` must clear `r_c` by
/// this fraction of the accumulated term magnitude before a row is
/// dropped, so accumulation rounding can never fabricate a domination.
/// Exact duplicates accumulate zero magnitude and prune at equality.
pub(crate) const PRUNE_REL_TOL: f64 = 1e-9;

/// Dominator candidates remembered per candidate row (smallest `‖c − d‖₁`
/// first). Domination fires when `rhs[dom] + M ≤ rhs[cand]`, and a small
/// coefficient difference bounds `M` under any cell's box, so the nearest
/// rows are the best bets; a handful of near-duplicates covers the
/// structured constraint families this pass targets.
const MAX_DOMINATORS: usize = 16;

/// Buckets larger than this are skipped entirely: the ranking is quadratic
/// in the bucket size. On the default Niagara-8 family the largest bucket,
/// the core-pair gradient rows at `gradient_stride` 5, has 2 744 members.
/// At `gradient_stride` 1 that bucket grows to 13 884 members, exceeds
/// this bound and goes unanalysed: only the temperature rows are pruned
/// there.
const MAX_BUCKET: usize = 4096;

/// One analysed support bucket: the multi-entry rows (at least two, at
/// most [`MAX_BUCKET`]) whose nonzero columns are exactly `support`.
#[derive(Debug, Clone)]
struct Bucket {
    /// The shared nonzero columns, ascending.
    support: Vec<u32>,
    /// The members' coefficients over `support`, member-major: the `i`-th
    /// member in row order is `coef[i·s..(i + 1)·s]` for `s` support
    /// columns.
    coef: Vec<f64>,
    /// The bucket's run of [`ReduceAnalysis::pairs`].
    pairs: Range<usize>,
}

/// One ranked domination pair: dropping row `cand` is sound whenever the
/// boxed maximum `M` of `row_cand − row_dom` satisfies
/// `rhs[dom] + M ≤ rhs[cand] − PRUNE_REL_TOL·mag` under the cell's box and
/// `dom` has not itself been dropped first (drop justifications then
/// chain, by transitivity of the box implication, to a never-dropped row).
#[derive(Debug, Clone, Copy)]
struct DominationPair {
    cand: u32,
    dom: u32,
    /// Member indices of `cand` and `dom` in their bucket.
    cand_at: u32,
    dom_at: u32,
}

/// The box-free pair structure of one problem family's linear rows — a
/// pure function of the row coefficients, shareable across threads via
/// `Arc`.
///
/// Build once per family with [`ReduceAnalysis::build`]; apply per cell
/// with [`ReduceAnalysis::select_into`].
#[derive(Debug, Clone, Default)]
pub struct ReduceAnalysis {
    /// Row count the analysis covers (a cell's rhs length).
    m: usize,
    n: usize,
    /// Single-entry rows `(row, var, coeff)` in row order — the per-cell
    /// box harvest visits exactly these instead of re-scanning every row.
    singles: Vec<(u32, u32, f64)>,
    /// Analysed buckets in support order.
    buckets: Vec<Bucket>,
    /// Bucket by bucket, candidates in row order, each candidate's
    /// dominators nearest first (ties by row index).
    pairs: Vec<DominationPair>,
    /// Wall-clock seconds the one-time build took.
    build_s: f64,
}

impl ReduceAnalysis {
    /// Analyzes `prob`'s linear rows once: buckets multi-entry rows by
    /// nonzero support, stores each bucket's coefficients and keeps the
    /// smallest-difference domination pairs per candidate (a handful each),
    /// so per-cell applications never touch the full rows again. Only the
    /// coefficients are read; `prob`'s right-hand sides play no role. The
    /// coefficients must be finite, as [`Problem::validate`] requires.
    pub fn build(prob: &Problem) -> ReduceAnalysis {
        let t0 = Instant::now();
        let rows = prob.lin_rows();

        let mut singles = Vec::new();
        // BTreeMap for deterministic bucket order: the selection feeds
        // bit-identical sweep replay, so no hash-order nondeterminism may
        // reach the stored pair list.
        let mut by_support: BTreeMap<Vec<u32>, Vec<u32>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            if let Some((j, c)) = single_entry(row) {
                singles.push((i as u32, j as u32, c));
                continue;
            }
            let support: Vec<u32> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(j, _)| j as u32)
                .collect();
            if support.len() >= 2 {
                by_support.entry(support).or_default().push(i as u32);
            }
        }
        let ranked: Vec<(Vec<u32>, Vec<u32>)> = by_support
            .into_iter()
            .filter(|(_, members)| (2..=MAX_BUCKET).contains(&members.len()))
            .collect();

        let mut pairs = Vec::with_capacity(
            ranked
                .iter()
                .map(|(_, members)| members.len() * MAX_DOMINATORS.min(members.len() - 1))
                .sum(),
        );
        let buckets: Vec<Bucket> = ranked
            .into_iter()
            .map(|(support, members)| {
                let coef: Vec<f64> = members
                    .iter()
                    .flat_map(|&r| support.iter().map(move |&j| rows[r as usize][j as usize]))
                    .collect();
                let start = pairs.len();
                rank_bucket(&members, &coef, support.len(), &mut pairs);
                Bucket {
                    support,
                    coef,
                    pairs: start..pairs.len(),
                }
            })
            .collect();

        ReduceAnalysis {
            m: rows.len(),
            n: prob.num_vars(),
            singles,
            buckets,
            pairs,
            build_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Wall-clock seconds the one-time analysis build took.
    pub fn build_seconds(&self) -> f64 {
        self.build_s
    }

    /// `true` when no stored pair can ever fire (nothing multi-entry to
    /// prune) — callers skip the per-cell pass entirely.
    pub fn is_trivial(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Harvests the per-variable box `[lo, hi]` implied by the single-entry
    /// rows under this cell's `rhs`, then runs the fused prune pass: bucket
    /// by bucket, the cell's bounds are gathered over the bucket's support,
    /// and every candidate checks its stored dominators — boxed maximum of
    /// the coefficient difference against that gather, then the rhs
    /// comparison — and is dropped on the first firing pair whose
    /// dominator still stands. Where the gathered box holds the origin, a
    /// pair whose dominator's rhs exceeds the candidate's is skipped
    /// unevaluated: it cannot fire (the guard in the module docs).
    ///
    /// Fills `kept` with the ascending surviving row indices and returns
    /// `true` when anything was pruned; `false` leaves `kept` unspecified
    /// (the caller keeps its unreduced fast path). `dropped`, `lo` and `hi`
    /// are caller-owned scratch (no allocation once grown): `lo` and `hi`
    /// hold the cell's box in their first `n` entries and the current
    /// bucket's gathered bounds after them. Deterministic: the same
    /// analysis and rhs always yield the same selection, which the sweep's
    /// bit-identical replay guarantees depend on.
    pub fn select_into(
        &self,
        rhs: &[f64],
        lo: &mut Vec<f64>,
        hi: &mut Vec<f64>,
        dropped: &mut Vec<bool>,
        kept: &mut Vec<usize>,
    ) -> bool {
        let m = rhs.len();
        debug_assert_eq!(m, self.m, "rhs must cover the analyzed rows");
        if self.pairs.is_empty() || m < 2 {
            return false;
        }
        // A bucket's support spans at most `n` columns.
        lo.clear();
        hi.clear();
        lo.resize(2 * self.n, f64::NEG_INFINITY);
        hi.resize(2 * self.n, f64::INFINITY);
        let (box_lo, gather_lo) = lo.split_at_mut(self.n);
        let (box_hi, gather_hi) = hi.split_at_mut(self.n);
        self.harvest_box(rhs, box_lo, box_hi);
        dropped.clear();
        dropped.resize(m, false);
        let mut any = false;
        for bucket in &self.buckets {
            let s = bucket.support.len();
            for ((&j, l), h) in bucket
                .support
                .iter()
                .zip(&mut *gather_lo)
                .zip(&mut *gather_hi)
            {
                *l = box_lo[j as usize];
                *h = box_hi[j as usize];
            }
            let (blo, bhi) = (&gather_lo[..s], &gather_hi[..s]);
            // Around the origin a pair whose dominator's rhs exceeds the
            // candidate's cannot fire (the guard of the module docs).
            let straddles = straddles_zero(blo, bhi);
            let member = |at: u32| &bucket.coef[at as usize * s..][..s];
            for run in self.pairs[bucket.pairs.clone()].chunk_by(|a, b| a.cand == b.cand) {
                let cand = run[0].cand as usize;
                for p in run {
                    if dropped[p.dom as usize] || (straddles && rhs[p.dom as usize] > rhs[cand]) {
                        continue;
                    }
                    let Some((m_bound, mag)) =
                        boxed_max(member(p.cand_at), member(p.dom_at), blo, bhi)
                    else {
                        continue;
                    };
                    if rhs[p.dom as usize] + m_bound <= rhs[cand] - PRUNE_REL_TOL * mag {
                        dropped[cand] = true;
                        any = true;
                        break;
                    }
                }
            }
        }
        if !any {
            return false;
        }
        kept.clear();
        kept.extend((0..m).filter(|&r| !dropped[r]));
        true
    }

    /// Tightens `[lo, hi]` (one entry per variable, unbounded on entry)
    /// to the box the single-entry rows imply under `rhs`.
    fn harvest_box(&self, rhs: &[f64], lo: &mut [f64], hi: &mut [f64]) {
        for &(i, j, c) in &self.singles {
            let bound = rhs[i as usize] / c;
            if c > 0.0 {
                hi[j as usize] = hi[j as usize].min(bound);
            } else {
                lo[j as usize] = lo[j as usize].max(bound);
            }
        }
    }
}

/// `true` when the box `[lo, hi]` holds the origin on every column
/// (`lo ≤ 0 ≤ hi`), the condition of the domination guard.
fn straddles_zero(lo: &[f64], hi: &[f64]) -> bool {
    lo.iter().zip(hi).all(|(&l, &h)| l <= 0.0 && 0.0 <= h)
}

/// The boxed maximum `M = max (c − d)ᵀx` over the box `[lo, hi]` (all four
/// slices over one bucket's support) and the accumulated term magnitude,
/// or `None` when a term is not finite: a difference component on an
/// unbounded variable voids the pair for this cell. Zero differences are
/// skipped and terms summed in support order.
fn boxed_max(c: &[f64], d: &[f64], lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
    let mut m_bound = 0.0;
    let mut mag = 0.0;
    for (((&ck, &dk), &l), &h) in c.iter().zip(d).zip(lo).zip(hi) {
        let v = ck - dk;
        if v == 0.0 {
            continue;
        }
        let term = if v > 0.0 { v * h } else { v * l };
        if !term.is_finite() {
            return None;
        }
        m_bound += term;
        mag += term.abs();
    }
    Some((m_bound, mag))
}

/// Appends, candidate by candidate in row order, each member's
/// [`MAX_DOMINATORS`] nearest fellow members by `‖c − d‖₁`, nearest first,
/// ties by row index. `coef` is the bucket's member-major coefficients over
/// `s` support columns; the scratch is `O(bucket × support)`.
fn rank_bucket(members: &[u32], coef: &[f64], s: usize, pairs: &mut Vec<DominationPair>) {
    let b = members.len();
    // Column-major copy: column `k` holds every member's `k`-th coefficient.
    let cols: Vec<f64> = (0..s)
        .flat_map(|k| coef.chunks_exact(s).map(move |row| row[k]))
        .collect();
    let mut l1 = vec![0.0; b];
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(MAX_DOMINATORS + 1);
    for (c, row_c) in coef.chunks_exact(s).enumerate() {
        // One lane per member, each summing its terms in support order, so
        // every distance is bit-identical to summing one pair on its own.
        l1.fill(0.0);
        for (&ck, col) in row_c.iter().zip(cols.chunks_exact(b)) {
            for (acc, &dk) in l1.iter_mut().zip(col) {
                *acc += (ck - dk).abs();
            }
        }
        // Members are in row order, so `(l1, member)` ranks exactly as
        // `(l1, row)`. Distances are sums of absolute values of finite
        // differences, never NaN, so the order is total and a key no nearer
        // than the current last can be rejected before any insertion scan.
        best.clear();
        for (d, &dist) in l1.iter().enumerate() {
            let key = (dist, d);
            if d == c || (best.len() == MAX_DOMINATORS && key >= best[MAX_DOMINATORS - 1]) {
                continue;
            }
            let pos = best.iter().position(|&e| key < e).unwrap_or(best.len());
            best.insert(pos, key);
            best.truncate(MAX_DOMINATORS);
        }
        pairs.extend(best.iter().map(|&(_, d)| DominationPair {
            cand: members[c],
            dom: members[d],
            cand_at: c as u32,
            dom_at: d as u32,
        }));
    }
}

/// Per-solver row-reduction state held by a [`crate::FamilySolver`]: its
/// family's shared [`ReduceAnalysis`] (if any) plus the per-cell scratch
/// and cumulative timing.
#[derive(Debug, Clone)]
pub(crate) struct RowReducer {
    analysis: Option<Arc<ReduceAnalysis>>,
    dropped: Vec<bool>,
    kept: Vec<usize>,
    /// The cell's box, then the current bucket's gathered bounds (see
    /// [`ReduceAnalysis::select_into`]).
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Cumulative wall-clock seconds spent inside
    /// [`RowReducer::select_rhs`] (the per-cell pass; the analysis build
    /// is counted separately).
    reduce_s: f64,
}

impl RowReducer {
    /// A reducer applying `analysis` (`None`: never prunes).
    pub(crate) fn new(analysis: Option<Arc<ReduceAnalysis>>) -> Self {
        RowReducer {
            analysis,
            dropped: Vec::new(),
            kept: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            reduce_s: 0.0,
        }
    }

    /// Cumulative seconds spent in per-cell selection passes.
    pub(crate) fn reduce_seconds(&self) -> f64 {
        self.reduce_s
    }

    /// Selects the surviving linear rows for `rhs` (the cell's right-hand
    /// sides over the analyzed coefficient rows). Returns the ascending
    /// kept indices, or `None` when nothing can be pruned (the common
    /// small-problem case — the caller keeps its packed fast path) or
    /// when the reducer has no analysis.
    pub(crate) fn select_rhs(&mut self, rhs: &[f64]) -> Option<&[usize]> {
        let analysis = self.analysis.as_ref()?;
        let t0 = Instant::now();
        let any = analysis.select_into(
            rhs,
            &mut self.lo,
            &mut self.hi,
            &mut self.dropped,
            &mut self.kept,
        );
        self.reduce_s += t0.elapsed().as_secs_f64();
        if any {
            Some(&self.kept)
        } else {
            None
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A boxed 2-variable problem with extra multi-entry rows appended.
    fn boxed_problem(extra: &[(Vec<f64>, f64)]) -> Problem {
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 1.0]);
        p.add_box(0, 0.0, 2.0);
        p.add_box(1, 0.0, 3.0);
        for (row, rhs) in extra {
            p.add_linear_le(row.clone(), *rhs);
        }
        p
    }

    /// A reducer over `p`'s own analysis, as a family built from `p` holds.
    fn reducer_for(p: &Problem) -> RowReducer {
        RowReducer::new(Some(Arc::new(ReduceAnalysis::build(p))))
    }

    fn kept_of(p: &Problem) -> Option<Vec<usize>> {
        reducer_for(p)
            .select_rhs(p.lin_rhs())
            .map(<[usize]>::to_vec)
    }

    #[test]
    fn exact_duplicate_is_pruned_once() {
        // Two identical rows: exactly one survives (the later one, whose
        // earlier twin cites it), and all four box rows survive.
        let p = boxed_problem(&[
            (vec![1.0, 1.0], 4.0), // row 4
            (vec![1.0, 1.0], 4.0), // row 5
        ]);
        let kept = kept_of(&p).expect("duplicate must be pruned");
        assert_eq!(kept, vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn dominated_row_is_pruned() {
        // Row 5 = row 4 shifted by (0.5, 0): M = max 0.5·x₀ over [0,2] = 1,
        // rhs gap 6 − 4 = 2 ≥ 1 → dominated.
        let p = boxed_problem(&[
            (vec![1.0, 1.0], 4.0), // dominator
            (vec![1.5, 1.0], 6.0), // dominated
        ]);
        let kept = kept_of(&p).expect("dominated row must be pruned");
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nearly_dominated_row_is_kept() {
        // Same geometry, rhs gap a hair below M: must NOT be pruned — the
        // candidate cuts off a corner of the box the dominator allows.
        let p = boxed_problem(&[
            (vec![1.0, 1.0], 4.0),
            (vec![1.5, 1.0], 4.999), // needs ≥ 5.0
        ]);
        assert_eq!(kept_of(&p), None);
    }

    #[test]
    fn unbounded_direction_blocks_domination() {
        // x₁ has no upper bound: the difference (0, 0.5) has no boxed
        // maximum, so the stored pair is void for this cell — no pruning.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 1.0]);
        p.add_box(0, 0.0, 2.0);
        p.add_box(1, 0.0, f64::INFINITY);
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        p.add_linear_le(vec![1.0, 1.5], 100.0);
        assert_eq!(kept_of(&p), None);
    }

    #[test]
    fn single_entry_rows_never_pruned() {
        // Duplicate box rows are still single-entry: excluded by design so
        // bound harvesting (here and in the Farkas checks) stays intact.
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_box(0, 0.0, 1.0);
        p.add_box(0, 0.0, 1.0);
        assert_eq!(kept_of(&p), None);
    }

    #[test]
    fn analysis_replays_across_rhs_changes() {
        let p1 = boxed_problem(&[(vec![1.0, 1.0], 4.0), (vec![1.5, 1.0], 6.0)]);
        let mut reducer = reducer_for(&p1);
        assert_eq!(reducer.select_rhs(p1.lin_rhs()).unwrap(), &[0, 1, 2, 3, 4]);
        // Same coefficients, tighter candidate rhs: nothing prunable now —
        // the analysis built from p1 must still answer correctly.
        let p2 = boxed_problem(&[(vec![1.0, 1.0], 4.0), (vec![1.5, 1.0], 4.5)]);
        assert!(reducer.select_rhs(p2.lin_rhs()).is_none());
        // And looser again: prunes again off the same analysis.
        let p3 = boxed_problem(&[(vec![1.0, 1.0], 4.0), (vec![1.5, 1.0], 7.0)]);
        assert_eq!(reducer.select_rhs(p3.lin_rhs()).unwrap(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn box_changes_do_not_rebuild_the_analysis() {
        // The analysis is box-free: tightening a *single-entry* rhs (which
        // moves the harvested box, the exact situation at the sweep's hot
        // rows) must not void the analysis nor its verdict soundness.
        let mut p1 = Problem::new(2);
        p1.set_linear_objective(vec![1.0, 1.0]);
        p1.add_box(0, 0.0, 2.0);
        p1.add_box(1, 0.0, 3.0);
        p1.add_linear_le(vec![1.0, 1.0], 4.0);
        p1.add_linear_le(vec![1.5, 1.0], 6.0);
        let mut reducer = reducer_for(&p1);
        assert_eq!(reducer.select_rhs(p1.lin_rhs()).unwrap(), &[0, 1, 2, 3, 4]);
        // Same coefficients, hi₀ tightened 2.0 → 1.0 via the box row's rhs:
        // M = max 0.5·x₀ shrinks to 0.5, still ≤ gap 2 → same prune off
        // the analysis built from p1.
        let mut p2 = Problem::new(2);
        p2.set_linear_objective(vec![1.0, 1.0]);
        p2.add_box(0, 0.0, 1.0);
        p2.add_box(1, 0.0, 3.0);
        p2.add_linear_le(vec![1.0, 1.0], 4.0);
        p2.add_linear_le(vec![1.5, 1.0], 6.0);
        assert_eq!(reducer.select_rhs(p2.lin_rhs()).unwrap(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn mutual_domination_keeps_one_row() {
        // Rows identical up to rhs: the tighter one dominates the looser;
        // the looser is dropped, the tighter kept.
        let p = boxed_problem(&[
            (vec![1.0, 2.0], 9.0), // looser
            (vec![1.0, 2.0], 5.0), // tighter
        ]);
        let kept = kept_of(&p).expect("looser twin must be pruned");
        assert_eq!(kept, vec![0, 1, 2, 3, 5]);
    }

    /// The stored-difference analysis the compact layout replaced, kept as
    /// the bit-identity reference: each pair carries its own sparse
    /// difference in two arenas, ranked by a per-pair `‖c − d‖₁` and a
    /// sorted insert.
    mod reference {
        use super::super::{single_entry, MAX_BUCKET, MAX_DOMINATORS, PRUNE_REL_TOL};
        use crate::Problem;

        pub(super) struct Reference {
            n: usize,
            singles: Vec<(u32, u32, f64)>,
            /// `(cand, dom, off, len)`, the range into the arenas.
            pub(super) pairs: Vec<(u32, u32, u32, u32)>,
            diff_idx: Vec<u32>,
            diff_val: Vec<f64>,
        }

        pub(super) fn build(prob: &Problem) -> Reference {
            let rows = prob.lin_rows();
            let mut singles = Vec::new();
            let mut buckets: std::collections::BTreeMap<Vec<u32>, Vec<u32>> =
                std::collections::BTreeMap::new();
            for (i, row) in rows.iter().enumerate() {
                if let Some((j, c)) = single_entry(row) {
                    singles.push((i as u32, j as u32, c));
                    continue;
                }
                let support: Vec<u32> = row
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(j, _)| j as u32)
                    .collect();
                if support.len() >= 2 {
                    buckets.entry(support).or_default().push(i as u32);
                }
            }
            let mut pairs = Vec::new();
            let mut diff_idx: Vec<u32> = Vec::new();
            let mut diff_val = Vec::new();
            let mut best: Vec<(f64, u32)> = Vec::new();
            for (support, members) in &buckets {
                if members.len() < 2 || members.len() > MAX_BUCKET {
                    continue;
                }
                for &cand in members {
                    best.clear();
                    for &dom in members {
                        if dom == cand {
                            continue;
                        }
                        let mut l1 = 0.0;
                        for &j in support {
                            l1 += (rows[cand as usize][j as usize]
                                - rows[dom as usize][j as usize])
                                .abs();
                        }
                        let pos = best
                            .iter()
                            .position(|&(bl1, bdom)| (l1, dom) < (bl1, bdom))
                            .unwrap_or(best.len());
                        if pos < MAX_DOMINATORS {
                            best.insert(pos, (l1, dom));
                            best.truncate(MAX_DOMINATORS);
                        }
                    }
                    for &(_, dom) in &best {
                        let off = diff_idx.len() as u32;
                        for &j in support {
                            let d =
                                rows[cand as usize][j as usize] - rows[dom as usize][j as usize];
                            if d != 0.0 {
                                diff_idx.push(j);
                                diff_val.push(d);
                            }
                        }
                        pairs.push((cand, dom, off, diff_idx.len() as u32 - off));
                    }
                }
            }
            Reference {
                n: prob.num_vars(),
                singles,
                pairs,
                diff_idx,
                diff_val,
            }
        }

        impl Reference {
            pub(super) fn select_into(&self, rhs: &[f64], kept: &mut Vec<usize>) -> bool {
                let m = rhs.len();
                if self.pairs.is_empty() || m < 2 {
                    return false;
                }
                let mut lo = vec![f64::NEG_INFINITY; self.n];
                let mut hi = vec![f64::INFINITY; self.n];
                for &(i, j, c) in &self.singles {
                    let bound = rhs[i as usize] / c;
                    if c > 0.0 {
                        hi[j as usize] = hi[j as usize].min(bound);
                    } else {
                        lo[j as usize] = lo[j as usize].max(bound);
                    }
                }
                let mut dropped = vec![false; m];
                let mut any = false;
                let mut i = 0;
                while i < self.pairs.len() {
                    let cand = self.pairs[i].0 as usize;
                    let mut j = i;
                    while j < self.pairs.len() && self.pairs[j].0 as usize == cand {
                        let (_, dom, off, len) = self.pairs[j];
                        j += 1;
                        if dropped[dom as usize] {
                            continue;
                        }
                        let mut m_bound = 0.0;
                        let mut mag = 0.0;
                        let mut finite = true;
                        let (off, len) = (off as usize, len as usize);
                        for (&jx, &v) in self.diff_idx[off..off + len]
                            .iter()
                            .zip(&self.diff_val[off..off + len])
                        {
                            let term = if v > 0.0 {
                                v * hi[jx as usize]
                            } else {
                                v * lo[jx as usize]
                            };
                            if !term.is_finite() {
                                finite = false;
                                break;
                            }
                            m_bound += term;
                            mag += term.abs();
                        }
                        if finite && rhs[dom as usize] + m_bound <= rhs[cand] - PRUNE_REL_TOL * mag
                        {
                            dropped[cand] = true;
                            any = true;
                            break;
                        }
                    }
                    while i < self.pairs.len() && self.pairs[i].0 as usize == cand {
                        i += 1;
                    }
                }
                if !any {
                    return false;
                }
                kept.clear();
                kept.extend((0..m).filter(|&r| !dropped[r]));
                true
            }
        }
    }

    /// splitmix64: the identity tests' input generator, shared with the
    /// barrier's line-search tests.
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        fn chance(&mut self, p: f64) -> bool {
            self.range(0.0, 1.0) < p
        }

        pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// A nonzero coefficient of either sign.
        fn coeff(&mut self) -> f64 {
            let v = self.range(0.1, 2.0);
            if self.chance(0.5) {
                -v
            } else {
                v
            }
        }
    }

    /// A random family over 3–6 variables and four cells' right-hand sides.
    ///
    /// * Multi-entry rows come in one to three support buckets of 2, 16, 17
    ///   or 40 members (buckets sharing a support merge). A bucket is
    ///   random, or a contracting recurrence whose late rows are near
    ///   duplicates, like the thermal rows. Members may be exact copies of
    ///   earlier ones. Some candidates are symmetric in their first two
    ///   columns while two other members swap those columns, so their
    ///   distances tie exactly when summed in support order. Some buckets
    ///   hold one column constant, a zero difference on every pair.
    /// * Off-support coefficients are `+0.0` or `−0.0`.
    /// * Each variable has both bounds, one or none, through single-entry
    ///   rows with scaled coefficients; a constant column's variable is
    ///   never bounded on both sides. Extra single-entry rows and per-cell
    ///   scaling of every single-entry rhs tighten or loosen the box.
    /// * Row order is shuffled half of the time.
    fn random_family(seed: u64) -> (Problem, Vec<Vec<f64>>) {
        let mut rng = Mix(seed);
        let n = 3 + rng.below(4);
        // (row, base rhs)
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut half_open = vec![false; n];
        for _ in 0..1 + rng.below(3) {
            let mut support: Vec<usize> = (0..n).filter(|_| rng.chance(0.5)).collect();
            while support.len() < 2 {
                let j = rng.below(n);
                if !support.contains(&j) {
                    support.push(j);
                    support.sort_unstable();
                }
            }
            let s = support.len();
            let b = [2, 16, 17, 40][rng.below(4)];
            let mut coef: Vec<Vec<f64>> = Vec::with_capacity(b);
            let mut rhs: Vec<f64> = Vec::with_capacity(b);
            if rng.chance(0.5) {
                let rho = rng.range(0.3, 0.95);
                let mut row: Vec<f64> = (0..s).map(|_| rng.coeff()).collect();
                let fixed: Vec<f64> = row
                    .iter()
                    .map(|&v| v.signum() * rng.range(0.1, 2.0))
                    .collect();
                let (mut r, r_inf) = (rng.range(0.0, 4.0), rng.range(0.0, 4.0));
                for _ in 0..b {
                    coef.push(row.clone());
                    rhs.push(r);
                    for (v, &f) in row.iter_mut().zip(&fixed) {
                        *v = f + (*v - f) * rho;
                    }
                    r = r_inf + (r - r_inf) * rho;
                }
            } else {
                for _ in 0..b {
                    coef.push((0..s).map(|_| rng.coeff()).collect());
                    rhs.push(rng.range(-1.0, 4.0));
                }
            }
            for i in 1..b {
                if rng.chance(0.15) {
                    coef[i] = coef[rng.below(i)].clone();
                }
            }
            if b >= 3 {
                for _ in 0..1 + b / 8 {
                    let c = rng.below(b);
                    let d1 = rng.below(b);
                    let d2 = rng.below(b);
                    if c == d1 || c == d2 || d1 == d2 {
                        continue;
                    }
                    coef[c][1] = coef[c][0];
                    coef[d2] = coef[d1].clone();
                    coef[d2].swap(0, 1);
                }
            }
            if rng.chance(0.5) {
                let k = rng.below(s);
                let v = rng.coeff();
                for row in &mut coef {
                    row[k] = v;
                }
                half_open[support[k]] = true;
            }
            for (c, r) in coef.into_iter().zip(rhs) {
                let mut row: Vec<f64> = (0..n)
                    .map(|_| if rng.chance(0.5) { -0.0 } else { 0.0 })
                    .collect();
                for (&j, v) in support.iter().zip(c) {
                    row[j] = v;
                }
                rows.push((row, r));
            }
        }
        let single = |j: usize, c: f64, rhs: f64| {
            let mut row = vec![0.0; n];
            row[j] = c;
            (row, rhs)
        };
        for (j, &open) in half_open.iter().enumerate() {
            let (has_lo, has_hi) = match rng.below(4) {
                0 if !open => (true, true),
                0 | 1 => (false, true),
                2 => (true, false),
                _ => (false, false),
            };
            if has_lo {
                let c = rng.range(0.5, 2.0);
                rows.push(single(j, -c, c * rng.range(0.0, 3.0)));
            }
            if has_hi {
                let c = rng.range(0.5, 2.0);
                rows.push(single(j, c, c * rng.range(0.5, 3.0)));
            }
        }
        for _ in 0..rng.below(3) {
            let j = rng.below(n);
            if !half_open[j] {
                let c = rng.coeff();
                rows.push(single(j, c, c.abs() * rng.range(0.2, 3.0)));
            }
        }
        if rng.chance(0.5) {
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.below(i + 1));
            }
        }
        let cells = (0..4)
            .map(|_| {
                let shift = rng.range(-0.5, 0.5);
                rows.iter()
                    .map(|(row, r)| {
                        if single_entry(row).is_some() {
                            r * rng.range(0.3, 1.5)
                        } else {
                            r + shift + rng.range(0.0, 0.05)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut p = Problem::new(n);
        p.set_linear_objective(vec![1.0; n]);
        for (row, r) in rows {
            p.add_linear_le(row, r);
        }
        (p, cells)
    }

    /// `cells` with about two variables in three moved by an offset `δⱼ`
    /// of 5 to 10 (either sign): each row's rhs gains `aᵀδ`, the
    /// substitution `x → x − δ`. The box of a moved bounded variable then
    /// lies strictly on one side of zero, where the domination guard does
    /// not apply, while pairs that fired before mostly still fire.
    fn shifted(p: &Problem, cells: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Mix(seed ^ 0x5eed_0ff5);
        let delta: Vec<f64> = (0..p.num_vars())
            .map(|_| match rng.below(3) {
                0 => 0.0,
                1 => rng.range(5.0, 10.0),
                _ => -rng.range(5.0, 10.0),
            })
            .collect();
        cells
            .iter()
            .map(|rhs| {
                rhs.iter()
                    .zip(p.lin_rows())
                    .map(|(r, row)| r + row.iter().zip(&delta).map(|(a, d)| a * d).sum::<f64>())
                    .collect()
            })
            .collect()
    }

    /// The domination guard's two outcomes over one cell's buckets: pairs
    /// it skips (box around the origin, `rhs[dom] > rhs[cand]`), and pairs
    /// with `rhs[dom] > rhs[cand]` on a box it does not cover whose boxed
    /// maximum still fires, which a guard missing half of its condition
    /// could wrongly skip.
    fn guard_outcomes(a: &ReduceAnalysis, rhs: &[f64]) -> (usize, usize) {
        let (mut lo, mut hi) = (vec![f64::NEG_INFINITY; a.n], vec![f64::INFINITY; a.n]);
        a.harvest_box(rhs, &mut lo, &mut hi);
        let (mut skipped, mut fired_above) = (0, 0);
        for bucket in &a.buckets {
            let s = bucket.support.len();
            let blo: Vec<f64> = bucket.support.iter().map(|&j| lo[j as usize]).collect();
            let bhi: Vec<f64> = bucket.support.iter().map(|&j| hi[j as usize]).collect();
            let straddles = straddles_zero(&blo, &bhi);
            let member = |at: u32| &bucket.coef[at as usize * s..][..s];
            for p in &a.pairs[bucket.pairs.clone()] {
                let (r_dom, r_cand) = (rhs[p.dom as usize], rhs[p.cand as usize]);
                if r_dom <= r_cand {
                    continue;
                }
                if straddles {
                    skipped += 1;
                } else if let Some((m_bound, mag)) =
                    boxed_max(member(p.cand_at), member(p.dom_at), &blo, &bhi)
                {
                    if r_dom + m_bound <= r_cand - PRUNE_REL_TOL * mag {
                        fired_above += 1;
                    }
                }
            }
        }
        (skipped, fired_above)
    }

    /// The compact analysis's `(cand, dom)` sequence.
    fn pair_rows(a: &ReduceAnalysis) -> Vec<(u32, u32)> {
        a.pairs.iter().map(|p| (p.cand, p.dom)).collect()
    }

    /// Asserts that the compact analysis of `p` stores the reference's
    /// `(cand, dom)` sequence and selects exactly its rows for every cell.
    /// Returns how many cells pruned anything.
    fn assert_matches_reference(p: &Problem, cells: &[Vec<f64>]) -> usize {
        let compact = ReduceAnalysis::build(p);
        let reference = reference::build(p);
        let want: Vec<(u32, u32)> = reference.pairs.iter().map(|&(c, d, ..)| (c, d)).collect();
        assert_eq!(pair_rows(&compact), want, "stored pairs");
        let mut reducer = RowReducer::new(Some(Arc::new(compact)));
        let mut want_kept = Vec::new();
        let mut pruning = 0;
        for rhs in cells {
            let want_any = reference.select_into(rhs, &mut want_kept);
            let got = reducer.select_rhs(rhs);
            assert_eq!(got.is_some(), want_any, "pruning verdict");
            if let Some(kept) = got {
                assert_eq!(kept, &want_kept[..], "kept rows");
                pruning += 1;
            }
        }
        pruning
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// The compact analysis stores the reference's pairs and makes its
        /// selections, bit for bit, on random bucketed families: their own
        /// cells, whose boxes hold the origin, and the same cells with
        /// boxes moved off it.
        #[test]
        fn compact_analysis_matches_the_stored_difference_reference(seed in 0u64..u64::MAX) {
            let (p, cells) = random_family(seed);
            assert_matches_reference(&p, &cells);
            assert_matches_reference(&p, &shifted(&p, &cells, seed));
        }
    }

    #[test]
    fn identity_inputs_cover_pruning_and_ties() {
        // The generator must actually prune, keep whole cells, produce
        // exact distance ties between distinct dominators, and take both
        // outcomes of the domination guard.
        let (mut pruning, mut whole, mut ties) = (0, 0, 0);
        let (mut skipped, mut fired_above) = (0, 0);
        for seed in 0..40 {
            let (p, mut cells) = random_family(seed);
            cells.extend(shifted(&p, &cells, seed));
            let fired = assert_matches_reference(&p, &cells);
            pruning += fired;
            whole += cells.len() - fired;
            let a = ReduceAnalysis::build(&p);
            for rhs in &cells {
                let (s, f) = guard_outcomes(&a, rhs);
                skipped += s;
                fired_above += f;
            }
            let rows = p.lin_rows();
            let l1 = |a: u32, b: u32| -> f64 {
                let (a, b) = (&rows[a as usize], &rows[b as usize]);
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
            };
            ties += a
                .pairs
                .windows(2)
                .filter(|w| {
                    w[0].cand == w[1].cand
                        && rows[w[0].dom as usize] != rows[w[1].dom as usize]
                        && l1(w[0].cand, w[0].dom) == l1(w[1].cand, w[1].dom)
                })
                .count();
        }
        assert!(pruning > 0 && whole > 0, "{pruning} pruning, {whole} whole");
        assert!(ties > 0, "no exact ties between distinct dominators");
        assert!(
            skipped > 0 && fired_above > 0,
            "guard: {skipped} pairs skipped, {fired_above} fired above their candidate"
        );
    }

    #[test]
    fn bucket_over_max_bucket_is_not_analysed() {
        // One support bucket of MAX_BUCKET + 1 near-duplicate rows and one of
        // 17 rows: only the small bucket is ranked, identically.
        let mut rng = Mix(7);
        let mut p = Problem::new(3);
        p.set_linear_objective(vec![1.0; 3]);
        p.add_box(0, 0.0, 1.0);
        p.add_box(1, -1.0, 2.0);
        p.add_box(2, 0.0, 1.0);
        let mut rhs = vec![1.0, 0.0, 1.0, 2.0, 0.0, 1.0];
        for k in 0..=MAX_BUCKET {
            let t = 1.0 - 0.5f64.powi((k % 60) as i32);
            p.add_linear_le(vec![1.0 + t, 2.0 - t, 0.0], 3.0);
            rhs.push(3.0 + rng.range(0.0, 1.0));
        }
        let small = p.lin_rows().len();
        for _ in 0..17 {
            p.add_linear_le(vec![rng.coeff(), rng.coeff(), rng.coeff()], 1.0);
            rhs.push(rng.range(0.5, 3.0));
        }
        let a = ReduceAnalysis::build(&p);
        assert_eq!(a.buckets.len(), 1);
        assert_eq!(a.pairs.len(), 17 * MAX_DOMINATORS);
        assert!(pair_rows(&a)
            .iter()
            .all(|&(c, d)| c as usize >= small && d as usize >= small));
        assert_matches_reference(&p, &[rhs, p.lin_rhs().to_vec()]);
    }
}
