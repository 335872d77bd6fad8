use std::time::Instant;

use protemp_cvx::CertScratch;
use serde::{Deserialize, Serialize};

#[cfg(test)]
use crate::ControlConfig;
use crate::{
    AssignmentContext, BuildArtifact, CellRecord, CellStatus, FrequencyAssignment, FrequencyTable,
    PointSolver, Result, StoredCertificate,
};

/// Largest temperature hop (°C) a warm chain crosses in one solve. Beyond
/// this the previous optimum usually violates the hotter problem's
/// temperature rows and the warm start degrades to a phase-I seed; split
/// into continuation sub-steps instead, each of which re-centers in a
/// handful of Newton iterations.
const MAX_WARM_HOP_C: f64 = 5.0;

/// Statistics from a Phase-1 table build (the paper's Section 5.1 reports
/// these: "the solver takes less than 2 minutes" per point and "the total
/// time taken to perform phase 1 of the method is few hours").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Number of grid cells (including cells pruned by the feasibility
    /// frontier without a solve).
    pub points: usize,
    /// Cells that actually ran the solver (feasible cells plus one
    /// infeasibility certificate per column at the frontier).
    pub solved_points: usize,
    /// Number of feasible points.
    pub feasible: usize,
    /// Total wall-clock build time, seconds. Excludes the one-time family
    /// build, which `family_build_s` reports.
    pub total_s: f64,
    /// Mean solve time per point, seconds.
    pub mean_point_s: f64,
    /// Slowest single point, seconds.
    pub max_point_s: f64,
    /// Worker threads the sweep actually used.
    pub threads: usize,
    /// Points solved warm-started from a feasible column neighbour.
    pub warm_started: usize,
    /// Total interior-point Newton steps across the sweep (including
    /// continuation sub-steps) — the deterministic work measure behind the
    /// wall-clock numbers. Cells reused from a prior artifact cost zero.
    pub newton_steps: u64,
    /// Phase-I solve invocations across the sweep — cold starts and
    /// frontier/infeasible cells, *including* continuation-hop sub-solves
    /// that fell through to phase I (so a multi-hop frontier crossing can
    /// contribute more than one). Warm-chained interior solves skip
    /// phase I and don't count.
    pub phase1_solves: u64,
    /// Cells rejected by a pooled infeasibility certificate — one minted
    /// earlier in the sweep by the same worker, or one inherited from a
    /// prior artifact — at the cost of one certificate check instead of a
    /// phase-I run. Together with `phase1_solves` this breaks down where
    /// the sweep's feasibility decisions came from.
    pub certificate_screens: u64,
    /// Cells copied verbatim from a prior build artifact by
    /// [`TableBuilder::build_incremental`] (zero solver work): the grid
    /// prefix where the prior build already performed bit-identical
    /// solves. `0` for cold builds.
    pub seed_reuses: u64,
    /// Certificate screens answered by a certificate *inherited from the
    /// prior artifact* (a subset of `certificate_screens`): frontier
    /// proofs the incremental rebuild did not have to re-pay phase I for.
    /// `0` for cold builds.
    pub incremental_screens: u64,
    /// Linear rows the solver's box-grounded reduction pass pruned, summed
    /// over the sweep's final cell solves (hops excluded). `0` when
    /// `row_reduction` is off in the context's solver options.
    pub rows_pruned: u64,
    /// Infeasible cells whose transferable certificate was minted by the
    /// bounded polish continuation (the duality-gap-bound verdicts that
    /// would previously have left no usable proof behind).
    pub polish_mints: u64,
    /// Warm-chain links whose seed arrived boundary-degenerate (worst
    /// slack under ~1e-12 — a plateau-stalled neighbour) and got the
    /// stall-proof re-entry blend toward the cell's interior heuristic
    /// before the solve, instead of poisoning the chain into a cold climb.
    pub chain_reentries: u64,
    /// Wall-clock seconds spent inside the per-cell row-reduction pass,
    /// summed over workers — the honest cost of pruning, which
    /// `newton_steps` alone cannot show.
    pub reduce_s: f64,
    /// Wall-clock seconds spent screening cells against the certificate
    /// pool (the per-cell certificate checks), summed over workers.
    pub screen_s: f64,
    /// Wall-clock seconds the one-time sweep-shared structure build took
    /// (the [`crate::AssignmentContext::family`] construction, row-pair
    /// analysis included); paid once per context, not per sweep.
    pub family_build_s: f64,
    /// Mean wall-clock seconds per *live* column (columns that ran at
    /// least one screen or solve; replayed and dead columns are free and
    /// excluded): the column's certificate screens and cell solves.
    /// Wall-clock telemetry, excluded from bit-identity comparisons.
    pub amortized_column_s: f64,
    /// Thermal constraint rows each design point carries (temperature +
    /// gradient), before the per-cell row reduction.
    pub rows_full: usize,
}

impl BuildStats {
    /// Solver throughput, solved design points per wall-clock second
    /// (pruned cells are free and excluded, so the number tracks solver
    /// performance rather than grid shape).
    pub fn points_per_s(&self) -> f64 {
        if self.total_s > 0.0 {
            self.solved_points as f64 / self.total_s
        } else {
            0.0
        }
    }
}

/// Phase 1 of Pro-Temp: sweeps the (starting temperature × target
/// frequency) grid and solves the convex model at every point.
///
/// Every cell is screened against the worker's pooled certificates
/// ([`PointSolver::screen_current`]) and the survivors are solved on the
/// context's shared [`crate::AssignmentContext::family`]. The grid columns
/// are partitioned across scoped worker threads. Each worker owns one
/// [`PointSolver`] — so all Newton temporaries live in that worker's
/// solver scratch for the whole sweep — and walks each of its columns from
/// the coolest row to the hottest, warm-starting every point from the
/// previous feasible solution in the same column. Away from the thermal
/// frontier, the optimum for one target frequency barely moves with the
/// starting temperature, so these chains re-enter the central path almost
/// where the neighbour left it (the same mechanism the MPC controllers use
/// window to window). Warm chains never cross column boundaries, which
/// makes the *table* deterministic: it is identical for any thread count,
/// including the serial build. The per-cell records, minted certificates
/// and Newton counters are not: each worker pools its own certificates,
/// so what screens a cell depends on which columns share its worker.
///
/// [`TableBuilder::build_artifact`] additionally returns the per-cell
/// optimizer points, solve statistics and minted infeasibility
/// certificates as a [`BuildArtifact`] that [`crate::TableStore`] can
/// persist; [`TableBuilder::build_incremental`] consumes a persisted prior
/// artifact to rebuild a finer or shifted grid for a fraction of the
/// Newton steps while producing a table *bit-identical* to a cold build.
///
/// # Example
///
/// ```no_run
/// use protemp::prelude::*;
///
/// let platform = Platform::niagara8();
/// let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
/// let builder = TableBuilder::new()
///     .tstarts((30..=100).step_by(10).map(f64::from).collect())
///     .ftargets((1..=10).map(|i| i as f64 * 100.0e6).collect());
/// let (table, stats) = builder.build(&ctx).unwrap();
/// println!("built {} points in {:.1}s", stats.points, stats.total_s);
/// # let _ = table;
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    tstarts_c: Vec<f64>,
    ftargets_hz: Vec<f64>,
    threads: usize,
    warm_start: bool,
    certificate_screening: bool,
}

impl Default for TableBuilder {
    fn default() -> Self {
        TableBuilder {
            // The paper's Figure 4 shows rows at 5 C spacing from 30 C; we
            // default to 5 C steps over the interesting range.
            tstarts_c: (6..=20).map(|i| i as f64 * 5.0).collect(),
            ftargets_hz: (1..=10).map(|i| i as f64 * 100.0e6).collect(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            warm_start: true,
            certificate_screening: true,
        }
    }
}

/// One worker's tallies over its chunk of columns.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkStats {
    warm_used: usize,
    newton: u64,
    solved_cells: usize,
    phase1_solves: u64,
    certificate_screens: u64,
    seed_reuses: u64,
    inherited_screens: u64,
    rows_pruned: u64,
    polish_mints: u64,
    chain_reentries: u64,
    reduce_s: f64,
    screen_s: f64,
    /// Wall-clock seconds inside live column passes (screen + solves).
    column_s: f64,
    /// Columns that entered the live phase with work left to do.
    live_columns: u64,
}

/// One worker's chunk of columns: chunk-local column-major entries and
/// per-cell records, per-point solve seconds, minted certificates, and the
/// tallies.
type ChunkResult = Result<(
    Vec<Option<FrequencyAssignment>>,
    Vec<CellRecord>,
    Vec<f64>,
    Vec<StoredCertificate>,
    ChunkStats,
)>;

/// What an incremental rebuild carries into every worker: the prior
/// artifact (for verbatim cell reuse) and its certificates that survived
/// re-verification against the current context (for screening).
struct PriorReuse<'p> {
    artifact: &'p BuildArtifact,
    verified_certs: Vec<StoredCertificate>,
}

impl TableBuilder {
    /// Creates a builder with the paper's default grids
    /// (30–100 °C × 100–1000 MHz).
    pub fn new() -> Self {
        TableBuilder::default()
    }

    /// Sets the starting-temperature grid (°C, must be ascending).
    pub fn tstarts(mut self, t: Vec<f64>) -> Self {
        self.tstarts_c = t;
        self
    }

    /// Sets the target-frequency grid (Hz, must be ascending).
    pub fn ftargets(mut self, f: Vec<f64>) -> Self {
        self.ftargets_hz = f;
        self
    }

    /// Caps the number of worker threads (default: available parallelism).
    /// `1` gives the serial build, which produces the identical table.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Enables or disables warm-starting points from their cooler
    /// same-column neighbour (default: enabled). Cold builds exist for
    /// benchmarking the warm-start speedup; both produce solutions within
    /// solver tolerance.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Enables or disables certificate screening (default: enabled): cells
    /// are first checked against infeasibility certificates inherited from
    /// already-certified neighbours, skipping the phase-I solve when one
    /// rejects them. Certificates are verified against each cell's own
    /// constraint data, so the produced table is identical with screening
    /// on or off — only the Newton-step count changes (property-tested).
    pub fn certificate_screening(mut self, on: bool) -> Self {
        self.certificate_screening = on;
        self
    }

    /// Runs the sweep, returning the table and build statistics.
    ///
    /// # Errors
    ///
    /// Propagates solver/thermal failures; infeasible points are recorded
    /// as `None` entries, not errors.
    pub fn build(&self, ctx: &AssignmentContext) -> Result<(FrequencyTable, BuildStats)> {
        let (artifact, stats) = self.build_with_prior(ctx, None)?;
        Ok((artifact.table, stats))
    }

    /// As [`TableBuilder::build`], but returns the full [`BuildArtifact`]
    /// — the table plus per-cell optimizer points, per-cell solve records
    /// and the sweep's minted infeasibility certificates — ready for
    /// [`crate::TableStore::save`].
    ///
    /// # Errors
    ///
    /// Propagates solver/thermal failures.
    pub fn build_artifact(&self, ctx: &AssignmentContext) -> Result<(BuildArtifact, BuildStats)> {
        self.build_with_prior(ctx, None)
    }

    /// Rebuilds this builder's grid *incrementally* against a prior
    /// artifact (typically a coarser grid loaded from a
    /// [`crate::TableStore`]): the resulting table is **bit-identical** to
    /// what a cold [`TableBuilder::build`] of the same grid would produce,
    /// but the prior build's work is reused wherever that identity can be
    /// proven:
    ///
    /// * **Verbatim cell reuse** (`seed_reuses`): where this grid's rows
    ///   and a column's target coincide exactly with the prior grid's from
    ///   the coolest row down, the cold build would deterministically
    ///   repeat the prior build's solves bit for bit (solves are pure
    ///   functions of the problem, seed and options — the thread-count
    ///   identity property pins this down), so the prior entries, points
    ///   and chain decisions are replayed without invoking the solver.
    ///   The live chain then continues from the replayed state.
    /// * **Certificate screening** (`incremental_screens`): the prior
    ///   frontier's certificates — re-verified against this context before
    ///   use, so a stale or tampered pool degrades to nothing — reject
    ///   infeasible cells in one matvec each instead of a phase-I run.
    ///   Screening is verdict-preserving by construction (a certificate
    ///   can never reject a feasible cell), so entries are unchanged.
    ///
    /// If the prior artifact's fingerprint does not match `ctx` (different
    /// platform, config or solver options) or its records are inconsistent,
    /// the prior is ignored entirely and this degrades to a cold build —
    /// never a wrong table.
    ///
    /// # Errors
    ///
    /// Propagates solver/thermal failures.
    pub fn build_incremental(
        &self,
        ctx: &AssignmentContext,
        prior: &BuildArtifact,
    ) -> Result<(BuildArtifact, BuildStats)> {
        let consistent =
            prior.fingerprint == ctx.fingerprint() && prior.cells.len() == prior.table.len();
        if !consistent {
            return self.build_with_prior(ctx, None);
        }
        // Re-verify every inherited certificate against this context's own
        // problem data; anything tampered, truncated or stale drops out
        // here (and even a wrongly-admitted certificate could only fail to
        // certify later — `certifies` re-derives its bound per cell).
        let mut ws = CertScratch::new();
        let verified_certs: Vec<StoredCertificate> = prior
            .certificates
            .iter()
            .filter(|sc| sc.verifies(ctx, &mut ws))
            .cloned()
            .collect();
        self.build_with_prior(
            ctx,
            Some(PriorReuse {
                artifact: prior,
                verified_certs,
            }),
        )
    }

    fn build_with_prior(
        &self,
        ctx: &AssignmentContext,
        prior: Option<PriorReuse<'_>>,
    ) -> Result<(BuildArtifact, BuildStats)> {
        // Validate up front: [`FrequencyTable::new`] would catch unsorted
        // grids only after the whole sweep, and the frontier pruning below
        // is only sound when temperatures ascend.
        assert!(
            self.tstarts_c.windows(2).all(|w| w[0] < w[1]),
            "temperature grid must be strictly ascending"
        );
        assert!(
            self.ftargets_hz.windows(2).all(|w| w[0] < w[1]),
            "frequency grid must be strictly ascending"
        );
        // Build the sweep-shared family before the clock starts and the
        // workers spawn, so its one-time cost is reported once, as
        // `family_build_s`, instead of inside `total_s` or one worker's
        // first cell.
        let family_build_s = ctx.family().build_seconds();
        let start = Instant::now();
        let rows = self.tstarts_c.len();
        let cols = self.ftargets_hz.len();
        let workers = self.threads.min(cols.max(1));
        let prior = prior.as_ref();

        // Partition the grid by contiguous column chunks. Workers solve
        // into chunk-local buffers (a column's cells are strided in the
        // row-major table, so they cannot be handed out as one `&mut`
        // window); the merge below is a fixed in-order copy, byte-identical
        // for any thread count because warm chains stay inside a column
        // and never cross a chunk.
        let cols_per_chunk = cols.div_ceil(workers.max(1)).max(1);
        let col_chunks: Vec<&[f64]> = self.ftargets_hz.chunks(cols_per_chunk).collect();
        let chunk_outcomes: Vec<ChunkResult> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(col_chunks.len());
            for chunk in &col_chunks {
                let tstarts = &self.tstarts_c;
                let warm_start = self.warm_start;
                let screening = self.certificate_screening;
                handles.push(scope.spawn(move || {
                    let mut solver = PointSolver::new(ctx);
                    solver.set_screening(screening);
                    // Replay is only sound when the prior chained the same
                    // way this build does (the decisions being replayed
                    // depend on it); screening is sound unconditionally.
                    let replay = prior
                        .filter(|p| p.artifact.warm_start == warm_start)
                        .map(|p| p.artifact);
                    if let Some(p) = prior {
                        solver.preload_certificates(
                            p.verified_certs.iter().map(|sc| sc.certificate.clone()),
                        );
                    }
                    let mut entries = Vec::with_capacity(rows * chunk.len());
                    let mut records = Vec::with_capacity(rows * chunk.len());
                    let mut times = vec![0.0; rows * chunk.len()];
                    let mut minted = Vec::new();
                    let mut stats = ChunkStats::default();
                    // Chunk-local layout is column-major so each column is
                    // one contiguous warm chain.
                    for &ftarget in *chunk {
                        solve_column(
                            &mut solver,
                            tstarts,
                            ftarget,
                            warm_start,
                            replay,
                            &mut entries,
                            &mut records,
                            &mut times,
                            &mut stats,
                            &mut minted,
                        )?;
                    }
                    stats.inherited_screens = solver.inherited_screens();
                    stats.reduce_s = solver.reduce_seconds();
                    stats.screen_s = solver.screen_seconds();
                    Ok((entries, records, times, minted, stats))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("table worker must not panic"))
                .collect()
        });

        // Deterministic merge: chunk-local column-major buffers into the
        // row-major table, in column order.
        let mut results: Vec<Option<FrequencyAssignment>> = vec![None; rows * cols];
        let mut cells: Vec<CellRecord> = Vec::with_capacity(rows * cols);
        cells.resize(
            rows * cols,
            CellRecord {
                status: CellStatus::Pruned,
                newton_steps: 0,
                phase1: false,
                warm: false,
                rows_pruned: 0,
                polish: false,
                x: None,
            },
        );
        let mut certificates: Vec<StoredCertificate> = Vec::new();
        let mut point_times: Vec<f64> = vec![0.0; rows * cols];
        let mut totals = ChunkStats::default();
        let mut col_base = 0usize;
        for (outcome, chunk) in chunk_outcomes.into_iter().zip(&col_chunks) {
            let (entries, records, times, minted, stats) = outcome?;
            totals.warm_used += stats.warm_used;
            totals.newton += stats.newton;
            totals.solved_cells += stats.solved_cells;
            totals.phase1_solves += stats.phase1_solves;
            totals.certificate_screens += stats.certificate_screens;
            totals.seed_reuses += stats.seed_reuses;
            totals.inherited_screens += stats.inherited_screens;
            totals.rows_pruned += stats.rows_pruned;
            totals.polish_mints += stats.polish_mints;
            totals.chain_reentries += stats.chain_reentries;
            totals.reduce_s += stats.reduce_s;
            totals.screen_s += stats.screen_s;
            totals.column_s += stats.column_s;
            totals.live_columns += stats.live_columns;
            certificates.extend(minted);
            let mut it = entries.into_iter().zip(records).zip(times);
            for local_col in 0..chunk.len() {
                for row in 0..rows {
                    let ((entry, record), time) = it.next().expect("chunk sized rows*cols");
                    let idx = row * cols + col_base + local_col;
                    results[idx] = entry;
                    cells[idx] = record;
                    point_times[idx] = time;
                }
            }
            col_base += chunk.len();
        }

        // Carry verified inherited certificates forward (after this
        // build's own mints, deduplicated by mint coordinates): screened
        // cells re-prove nothing, so without this a chain of incremental
        // rebuilds would progressively shed its frontier proofs.
        if let Some(p) = prior {
            let covered: std::collections::HashSet<(u64, u64)> = certificates
                .iter()
                .map(|sc| (sc.tstart_c.to_bits(), sc.ftarget_hz.to_bits()))
                .collect();
            certificates.extend(
                p.verified_certs
                    .iter()
                    .filter(|sc| {
                        !covered.contains(&(sc.tstart_c.to_bits(), sc.ftarget_hz.to_bits()))
                    })
                    .cloned(),
            );
        }

        let worker_count = col_chunks.len().max(1);
        let feasible = results.iter().filter(|e| e.is_some()).count();
        let total_s = start.elapsed().as_secs_f64();
        let solved_total = totals.solved_cells;
        let stats = BuildStats {
            points: rows * cols,
            solved_points: solved_total,
            feasible,
            total_s,
            // Pruned, screened and reused cells never ran the solver
            // (their recorded time is zero); average over the solves that
            // actually happened.
            mean_point_s: if solved_total == 0 {
                0.0
            } else {
                point_times.iter().sum::<f64>() / solved_total as f64
            },
            max_point_s: point_times.iter().cloned().fold(0.0, f64::max),
            threads: worker_count,
            warm_started: totals.warm_used,
            newton_steps: totals.newton,
            phase1_solves: totals.phase1_solves,
            certificate_screens: totals.certificate_screens,
            seed_reuses: totals.seed_reuses,
            incremental_screens: totals.inherited_screens,
            rows_pruned: totals.rows_pruned,
            polish_mints: totals.polish_mints,
            chain_reentries: totals.chain_reentries,
            reduce_s: totals.reduce_s,
            screen_s: totals.screen_s,
            family_build_s,
            amortized_column_s: totals.column_s / totals.live_columns.max(1) as f64,
            rows_full: ctx.thermal_rows_full(),
        };
        let table = FrequencyTable::new(
            self.tstarts_c.clone(),
            self.ftargets_hz.clone(),
            results,
            ctx.config().mode,
        );
        let artifact = BuildArtifact {
            table,
            cells,
            certificates,
            fingerprint: ctx.fingerprint(),
            warm_start: self.warm_start,
        };
        Ok((artifact, stats))
    }
}

/// Chain state threaded through one column of the sweep.
struct ColumnChain {
    /// Previous feasible `(tstart, x)` in this column — the warm seed.
    prev: Option<(f64, Vec<f64>)>,
    /// Newton cost of the column's first feasible (cold) cell; the
    /// chain-health baseline.
    baseline: Option<u64>,
    /// Whether warm links are still considered healthy.
    chain_on: bool,
    /// Set once a cell is certified infeasible: every hotter row is
    /// infeasible by monotonicity and is pruned without a solve.
    dead: bool,
}

/// Solves (or replays) one grid column, appending `tstarts.len()` entries
/// and records.
#[allow(clippy::too_many_arguments)]
fn solve_column(
    solver: &mut PointSolver<'_>,
    tstarts: &[f64],
    ftarget: f64,
    warm_start: bool,
    replay: Option<&BuildArtifact>,
    entries: &mut Vec<Option<FrequencyAssignment>>,
    records: &mut Vec<CellRecord>,
    times: &mut [f64],
    stats: &mut ChunkStats,
    minted: &mut Vec<StoredCertificate>,
) -> Result<()> {
    let mut chain = ColumnChain {
        prev: None,
        baseline: None,
        chain_on: warm_start,
        dead: false,
    };

    // Replay phase: copy the prior build's cells verbatim over the grid
    // prefix where the cold build's solves would be bit-identical
    // repetitions of the prior build's — same column target, same row
    // temperatures from the coolest row down, same chaining mode (checked
    // by the caller), same context (fingerprint-checked by
    // `build_incremental`). The chain bookkeeping below replicates the
    // live loop's decisions from the recorded costs so the live phase
    // resumes exactly where a cold build would be.
    let mut row = 0usize;
    if let Some(p) = replay {
        if let Some(pc) = p.table.ftargets_hz().iter().position(|&f| f == ftarget) {
            let prior_temps = p.table.tstarts_c();
            while row < tstarts.len() && row < prior_temps.len() {
                if tstarts[row] != prior_temps[row] {
                    break;
                }
                let rec = p.cell(row, pc);
                // Once the column is dead, only a Pruned record is
                // consistent with what a cold build would do; anything
                // else means the prior is corrupt — stop trusting it and
                // let the live loop prune the remainder itself.
                if chain.dead && rec.status != CellStatus::Pruned {
                    break;
                }
                match rec.status {
                    CellStatus::Feasible => {
                        let (Some(x), Some(entry)) = (rec.x.as_ref(), p.table.entry(row, pc))
                        else {
                            // Inconsistent record: stop trusting the prior
                            // and let the live loop take over.
                            break;
                        };
                        match chain.baseline {
                            None => chain.baseline = Some(rec.newton_steps.max(1)),
                            Some(base) => {
                                if rec.warm && rec.newton_steps > base / 2 {
                                    chain.chain_on = false;
                                }
                            }
                        }
                        chain.prev = Some((tstarts[row], x.clone()));
                        entries.push(Some(entry.clone()));
                    }
                    CellStatus::Infeasible | CellStatus::Screened => {
                        chain.prev = None;
                        chain.dead = true;
                        entries.push(None);
                    }
                    CellStatus::Pruned => {
                        // The free tail of a dead column (the !dead case
                        // broke out above): copy it so an identical-grid
                        // rebuild replays every cell.
                        entries.push(None);
                    }
                }
                records.push(rec.clone());
                stats.seed_reuses += 1;
                row += 1;
            }
        }
    }

    // Live phase: identical to a cold build from `row` on.
    let live = !chain.dead && row < tstarts.len();
    let col_t0 = Instant::now();
    for &tstart in &tstarts[row..] {
        if chain.dead {
            entries.push(None);
            records.push(CellRecord {
                status: CellStatus::Pruned,
                newton_steps: 0,
                phase1: false,
                warm: false,
                rows_pruned: 0,
                polish: false,
                x: None,
            });
            continue;
        }
        let t0 = Instant::now();
        // Prepare the cell's rhs once; it serves the pre-hop screen and the
        // final solve.
        solver.prepare(tstart, ftarget);
        // Screen the target against the pooled certificates before paying
        // for continuation hops toward it: a certified cell (usually the
        // frontier crossing, already proven in a lower column) dies for
        // the cost of one certificate check.
        let pre_screened = chain.prev.is_some();
        if pre_screened && solver.screen_current() {
            // Screened cells record no time, like pruned cells:
            // `mean_point_s` averages over actual solver runs only.
            stats.certificate_screens += 1;
            chain.prev = None;
            chain.dead = true;
            entries.push(None);
            records.push(CellRecord {
                status: CellStatus::Screened,
                newton_steps: 0,
                phase1: false,
                warm: false,
                rows_pruned: 0,
                polish: false,
                x: None,
            });
            continue;
        }
        let mut cell_cost = 0u64;
        let mut cell_phase1 = false;
        // Continuation: cross large temperature hops in ≤ MAX_WARM_HOP_C
        // sub-steps so every warm solve stays in the few-Newton-step
        // regime.
        let mut carry: Option<Vec<f64>> = None;
        let mut hops_ran = false;
        if chain.chain_on {
            if let Some((prev_t, prev_x)) = &chain.prev {
                let mut x = prev_x.clone();
                let hops = ((tstart - prev_t) / MAX_WARM_HOP_C).ceil().max(1.0);
                let mut feasible = true;
                for k in 1..hops as usize {
                    let tk = prev_t + (tstart - prev_t) * k as f64 / hops;
                    let hop = solver.solve_point(tk, ftarget, Some(&x))?;
                    hops_ran = true;
                    cell_cost += hop.newton_steps as u64;
                    if hop.reentry {
                        stats.chain_reentries += 1;
                    }
                    if hop.phase1_steps > 0 {
                        stats.phase1_solves += 1;
                        cell_phase1 = true;
                    }
                    match hop.solution {
                        Some(p) => x = p.x,
                        None => {
                            if let Some(cert) = solver.take_minted_certificate() {
                                minted.push(StoredCertificate {
                                    tstart_c: tk,
                                    ftarget_hz: ftarget,
                                    certificate: cert,
                                });
                            }
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible {
                    carry = Some(x);
                }
            }
        }
        // Re-screen only when the pool could have changed since the
        // pre-hop screen (a hop may have minted a certificate), or when no
        // pre-screen ran at all (column's first cell). Continuation hops
        // re-prepared the solver for their own sub-cells, so the final
        // solve re-prepares this cell first.
        if hops_ran {
            solver.prepare(tstart, ftarget);
        }
        let rescreen = !pre_screened || hops_ran;
        let solved = solver.solve_current(carry.as_deref(), rescreen)?;
        if solved.screened {
            // Killed by a certificate the pre-hop screen didn't have yet:
            // minted by a continuation hop, or inherited from an earlier
            // column on the column's first row.
            stats.certificate_screens += 1;
            stats.newton += cell_cost;
            chain.prev = None;
            chain.dead = true;
            entries.push(None);
            records.push(CellRecord {
                status: CellStatus::Screened,
                newton_steps: cell_cost,
                phase1: cell_phase1,
                warm: false,
                rows_pruned: 0,
                polish: false,
                x: None,
            });
            continue;
        }
        times[entries.len()] = t0.elapsed().as_secs_f64();
        stats.solved_cells += 1;
        if solved.phase1_steps > 0 {
            stats.phase1_solves += 1;
            cell_phase1 = true;
        }
        if carry.is_some() {
            stats.warm_used += 1;
        }
        if solved.reentry {
            stats.chain_reentries += 1;
        }
        cell_cost += solved.newton_steps as u64;
        stats.newton += cell_cost;
        stats.rows_pruned += solved.rows_pruned as u64;
        if solved.polished {
            stats.polish_mints += 1;
        }
        match solved.solution {
            Some(p) => {
                match chain.baseline {
                    None => chain.baseline = Some(cell_cost.max(1)),
                    Some(base) => {
                        if carry.is_some() && cell_cost > base / 2 {
                            chain.chain_on = false;
                        }
                    }
                }
                records.push(CellRecord {
                    status: CellStatus::Feasible,
                    newton_steps: cell_cost,
                    phase1: cell_phase1,
                    warm: carry.is_some(),
                    rows_pruned: solved.rows_pruned as u64,
                    polish: false,
                    x: Some(p.x.clone()),
                });
                chain.prev = Some((tstart, p.x));
                entries.push(Some(p.assignment));
            }
            None => {
                if let Some(cert) = solver.take_minted_certificate() {
                    minted.push(StoredCertificate {
                        tstart_c: tstart,
                        ftarget_hz: ftarget,
                        certificate: cert,
                    });
                }
                records.push(CellRecord {
                    status: CellStatus::Infeasible,
                    newton_steps: cell_cost,
                    phase1: cell_phase1,
                    warm: carry.is_some(),
                    rows_pruned: solved.rows_pruned as u64,
                    polish: solved.polished,
                    x: None,
                });
                chain.prev = None;
                chain.dead = true;
                entries.push(None);
            }
        }
    }
    if live {
        stats.column_s += col_t0.elapsed().as_secs_f64();
        stats.live_columns += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use protemp_sim::Platform;

    #[test]
    fn small_build_has_sane_structure() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let (table, stats) = TableBuilder::new()
            .tstarts(vec![60.0, 95.0])
            .ftargets(vec![0.3e9, 0.9e9])
            .build(&ctx)
            .unwrap();
        assert_eq!(stats.points, 4);
        assert_eq!(table.len(), 4);
        // Cool row, low target must be feasible; monotonicity: if the hot
        // row supports 900 MHz then the cool row must too.
        assert!(table.entry(0, 0).is_some());
        if table.entry(1, 1).is_some() {
            assert!(table.entry(0, 1).is_some());
        }
        assert!(stats.total_s > 0.0);
        assert!(stats.max_point_s >= stats.mean_point_s);
        assert!(stats.threads >= 1);
        assert!(stats.points_per_s() > 0.0);
        assert_eq!(stats.seed_reuses, 0, "cold build reuses nothing");
        assert_eq!(stats.incremental_screens, 0);
        assert!(
            stats.rows_pruned > 0,
            "the default model's solves must exercise the reduction pass"
        );
    }

    #[test]
    fn parallel_build_identical_to_serial() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let builder = TableBuilder::new()
            .tstarts(vec![55.0, 75.0, 95.0])
            .ftargets(vec![0.2e9, 0.5e9, 0.8e9]);
        let (serial, _) = builder.clone().threads(1).build(&ctx).unwrap();
        let (parallel, stats) = builder.threads(3).build(&ctx).unwrap();
        assert_eq!(stats.threads, 3);
        assert_eq!(serial, parallel, "thread count must not change the table");
    }

    #[test]
    fn warm_chains_record_in_stats() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let builder = TableBuilder::new()
            .tstarts(vec![55.0, 65.0, 75.0])
            .ftargets(vec![0.4e9]);
        let (_, warm_stats) = builder.clone().build(&ctx).unwrap();
        assert_eq!(
            warm_stats.warm_started, 2,
            "rows 2 and 3 warm-start from their cooler column neighbour"
        );
        let (_, cold_stats) = builder.warm_start(false).build(&ctx).unwrap();
        assert_eq!(cold_stats.warm_started, 0);
    }

    #[test]
    fn artifact_records_are_consistent_with_the_table() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let (artifact, stats) = TableBuilder::new()
            .tstarts(vec![60.0, 95.0])
            .ftargets(vec![0.3e9, 0.9e9])
            .build_artifact(&ctx)
            .unwrap();
        assert_eq!(artifact.cells.len(), artifact.table.len());
        assert_eq!(artifact.fingerprint, ctx.fingerprint());
        assert!(artifact.warm_start);
        let cols = artifact.table.ftargets_hz().len();
        let mut recorded_newton = 0u64;
        for r in 0..artifact.table.tstarts_c().len() {
            for c in 0..cols {
                let rec = artifact.cell(r, c);
                assert_eq!(
                    rec.status == CellStatus::Feasible,
                    artifact.table.entry(r, c).is_some(),
                    "record status must match the entry at ({r},{c})"
                );
                assert_eq!(
                    rec.x.is_some(),
                    rec.status == CellStatus::Feasible,
                    "exactly the feasible cells carry optimizer points"
                );
                assert!(
                    !rec.polish || rec.status == CellStatus::Infeasible,
                    "only infeasible cells can carry a polished certificate"
                );
                recorded_newton += rec.newton_steps;
            }
        }
        assert_eq!(
            recorded_newton, stats.newton_steps,
            "per-cell costs must sum to the sweep total"
        );
        // Every minted certificate re-verifies against this context.
        let mut check = artifact.clone();
        assert_eq!(check.verify_certificates(&ctx), 0);
    }

    #[test]
    fn feasibility_is_monotone_in_temperature_and_frequency() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let (table, _) = TableBuilder::new()
            .tstarts(vec![55.0, 80.0, 97.0])
            .ftargets(vec![0.2e9, 0.6e9, 1.0e9])
            .build(&ctx)
            .unwrap();
        // Within a row, feasibility is downward-closed in frequency.
        for r in 0..3 {
            for c in 1..3 {
                if table.entry(r, c).is_some() {
                    assert!(
                        table.entry(r, c - 1).is_some(),
                        "row {r}: col {c} feasible but col {} not",
                        c - 1
                    );
                }
            }
        }
        // Within a column, feasibility is downward-closed in temperature.
        for c in 0..3 {
            for r in 1..3 {
                if table.entry(r, c).is_some() {
                    assert!(
                        table.entry(r - 1, c).is_some(),
                        "col {c}: row {r} feasible but row {} not",
                        r - 1
                    );
                }
            }
        }
    }
}
