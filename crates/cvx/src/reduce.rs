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
//! keyed on the box would therefore rebuild at exactly those cells, and the
//! pair enumeration is quadratic per support bucket (tens of millions of
//! coefficient-difference maximizations) — re-paying it per cell is what
//! made the PR-4 pruned cold sweep *slower* in wall-clock than the
//! unpruned one despite fewer Newton steps.
//!
//! [`ReduceAnalysis`] is therefore a pure function of the row coefficients:
//! it buckets multi-entry rows by nonzero support and keeps, per candidate,
//! the [`MAX_DOMINATORS`] dominator rows with the smallest coefficient
//! difference (ranked by `‖c − d‖₁`, a box-independent proxy for the boxed
//! maximum: the near-duplicate rows this pass targets have tiny
//! differences, hence tiny `M` under *any* box) together with the sparse
//! difference itself. A cell's prune decision
//! ([`ReduceAnalysis::select_into`]) is then one fused pass over the
//! candidates: each stored pair evaluates its boxed maximum `M` against the
//! cell's own harvested `[lo, hi]` in `O(nnz(c − d))` and compares right
//! hand sides — `O(candidate rows)` work, no pair cache to probe, nothing
//! to rebuild, ever. Soundness never depends on *which* dominators were
//! kept — only the fired inequality, evaluated against the cell's own box,
//! proves a drop — so the box-free ranking cannot make a verdict unsound,
//! only (at worst) miss a prune.
//!
//! Because the analysis depends on the coefficients alone, a
//! [`crate::ProblemFamily`] builds it once, at construction, and every
//! worker thread, cell and probe of the family shares it through an `Arc`:
//! the per-cell work is only the [`ReduceAnalysis::select_into`] pass, and
//! the selection — a pure function of the analysis and the cell's rhs — is
//! the same whichever cell the family was built from.

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

/// Buckets larger than this are skipped entirely: the pair analysis is
/// quadratic in the bucket size, and this bound keeps the one-time build
/// comfortably below the cost it amortizes away.
const MAX_BUCKET: usize = 4096;

/// One cached domination pair: dropping row `cand` is sound whenever the
/// boxed maximum `M` of the stored sparse difference `row_cand − row_dom`
/// satisfies `rhs[dom] + M ≤ rhs[cand] − PRUNE_REL_TOL·mag` under the
/// cell's box and `dom` has not itself been dropped first (drop
/// justifications then chain, by transitivity of the box implication, to a
/// never-dropped row).
#[derive(Debug, Clone, Copy)]
struct DominationPair {
    cand: u32,
    dom: u32,
    /// Range into the sparse-difference arenas.
    off: u32,
    len: u32,
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
    /// Sorted by `(cand, ‖diff‖₁, dom)`; grouped runs share a candidate.
    pairs: Vec<DominationPair>,
    /// Sparse-difference arenas (indices/values of `row_cand − row_dom`).
    diff_idx: Vec<u32>,
    diff_val: Vec<f64>,
    /// Wall-clock seconds the one-time build took.
    build_s: f64,
}

impl ReduceAnalysis {
    /// Analyzes `prob`'s linear rows once: buckets multi-entry rows by
    /// nonzero support and keeps the smallest-difference domination pairs
    /// per candidate (a handful each), with the sparse differences
    /// themselves so per-cell applications never touch the full rows
    /// again. Only the coefficients are read; `prob`'s right-hand sides
    /// play no role.
    pub fn build(prob: &Problem) -> ReduceAnalysis {
        let t0 = Instant::now();
        let rows = prob.lin_rows();
        let n = prob.num_vars();

        let mut singles = Vec::new();
        // BTreeMap for deterministic bucket order: the selection feeds
        // bit-identical sweep replay, so no hash-order nondeterminism may
        // reach the stored pair list.
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

        let mut pairs: Vec<DominationPair> = Vec::new();
        let mut diff_idx: Vec<u32> = Vec::new();
        let mut diff_val: Vec<f64> = Vec::new();
        // Per-candidate best list: (l1, dom), smallest l1 first, ties by
        // dominator index (determinism).
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
                        l1 += (rows[cand as usize][j as usize] - rows[dom as usize][j as usize])
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
                        let d = rows[cand as usize][j as usize] - rows[dom as usize][j as usize];
                        if d != 0.0 {
                            diff_idx.push(j);
                            diff_val.push(d);
                        }
                    }
                    pairs.push(DominationPair {
                        cand,
                        dom,
                        off,
                        len: diff_idx.len() as u32 - off,
                    });
                }
            }
        }

        ReduceAnalysis {
            m: rows.len(),
            n,
            singles,
            pairs,
            diff_idx,
            diff_val,
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
    /// rows under this cell's `rhs`, then runs the fused prune pass: every
    /// candidate checks its stored dominators — boxed maximum of the sparse
    /// difference against the cell box, then the rhs comparison — and is
    /// dropped on the first firing pair whose dominator still stands.
    ///
    /// Fills `kept` with the ascending surviving row indices and returns
    /// `true` when anything was pruned; `false` leaves `kept` unspecified
    /// (the caller keeps its unreduced fast path). `dropped`, `lo` and `hi`
    /// are caller-owned scratch (no allocation once grown). Deterministic:
    /// the same analysis and rhs always yield the same selection, which the
    /// sweep's bit-identical replay guarantees depend on.
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
        lo.clear();
        hi.clear();
        lo.resize(self.n, f64::NEG_INFINITY);
        hi.resize(self.n, f64::INFINITY);
        for &(i, j, c) in &self.singles {
            let bound = rhs[i as usize] / c;
            if c > 0.0 {
                hi[j as usize] = hi[j as usize].min(bound);
            } else {
                lo[j as usize] = lo[j as usize].max(bound);
            }
        }
        dropped.clear();
        dropped.resize(m, false);
        let mut any = false;
        let mut i = 0;
        while i < self.pairs.len() {
            let cand = self.pairs[i].cand as usize;
            let mut j = i;
            while j < self.pairs.len() && self.pairs[j].cand as usize == cand {
                let p = self.pairs[j];
                j += 1;
                if dropped[p.dom as usize] {
                    continue;
                }
                // Boxed maximum of the sparse difference under *this
                // cell's* box; a non-finite term (difference component on
                // an unbounded variable) voids the pair for this cell.
                let mut m_bound = 0.0;
                let mut mag = 0.0;
                let mut finite = true;
                let (off, len) = (p.off as usize, p.len as usize);
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
                if finite && rhs[p.dom as usize] + m_bound <= rhs[cand] - PRUNE_REL_TOL * mag {
                    dropped[cand] = true;
                    any = true;
                    break;
                }
            }
            while i < self.pairs.len() && self.pairs[i].cand as usize == cand {
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

/// Per-solver row-reduction state held by a [`crate::FamilySolver`]: its
/// family's shared [`ReduceAnalysis`] (if any) plus the per-cell scratch
/// and cumulative timing.
#[derive(Debug, Clone)]
pub(crate) struct RowReducer {
    analysis: Option<Arc<ReduceAnalysis>>,
    dropped: Vec<bool>,
    kept: Vec<usize>,
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
    /// small-problem case — the caller keeps its packed fast path).
    pub(crate) fn select_rhs(&mut self, rhs: &[f64]) -> Option<&[usize]> {
        let t0 = Instant::now();
        let analysis = self.analysis.as_ref()?;
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
mod tests {
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
}
