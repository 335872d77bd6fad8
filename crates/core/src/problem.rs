//! Construction of the paper's convex model (3)–(5) as a
//! [`protemp_cvx::Problem`].
//!
//! After eliminating the thermal states through the affine reachability
//! operator `T_k = H_k·p + o_k`, the model has `2n + 1` variables —
//! normalized frequencies `φᵢ = fᵢ/f_max ∈ [0, ρᵢ]` (with `ρᵢ` the core's
//! reachable ratio of `f_max`), core powers `pᵢ` and the gradient bound
//! `t_grad` — and:
//!
//! * `m × n_watch` linear temperature constraints `(H_k·p + o_k)ᵢ ≤
//!   limitᵢ − δ`, where the watch list is the cores (limit `t_max`)
//!   followed by any per-node capped blocks (their own caps, e.g. 85 °C
//!   memory dies),
//! * `n` convex quadratic couplings `leakᵢ + p_max,ᵢ·φᵢ² ≤ pᵢ`
//!   (Equation (2) with the scenario's per-core power model, relaxed as in
//!   model (3); tight at any optimum),
//! * the workload constraint `Σφᵢ ≥ n·f_target/f_max`,
//! * optionally the pairwise core gradient constraints (Equation (4)) and
//!   the `+ t_grad` objective term (Equation (5)),
//! * for [`FreqMode::Uniform`]: equalities `φᵢ = φ₁`.

use protemp_cvx::Problem;
use protemp_linalg::Matrix;
use protemp_sim::Platform;
use protemp_thermal::{AffineReach, ModalReach};

use crate::{ControlConfig, FreqMode};

/// Variable layout: frequencies come first.
pub(crate) const fn f_var(i: usize) -> usize {
    i
}

/// Variable layout: powers after the `n` frequencies.
pub(crate) const fn p_var(n: usize, i: usize) -> usize {
    n + i
}

/// Variable layout: the gradient bound is the last variable.
pub(crate) const fn tgrad_var(n: usize) -> usize {
    2 * n
}

/// Builds the convex program for one design point.
///
/// * `reach` — the platform's reachability operator over one DFS window.
/// * `offsets` — `o_k` trajectories for the chosen starting temperature
///   (from [`AffineReach::offsets`]).
/// * `ftarget_hz` — required average core frequency (the paper's
///   `f_target`).
///
/// The returned problem minimizes `Σpᵢ (+ w·t_grad)` and is infeasible
/// exactly when no frequency assignment can hold every core below
/// `t_max − margin` for the whole window while averaging `f_target`.
///
/// Internally this is the family decomposition: the *structure*
/// (`build_point_structure` — coefficients, boxes, quads, equalities,
/// objective) is a pure function of platform/config/reach and is identical
/// for every design point, while `fill_point_rhs` writes the only data
/// that varies with `(tstart, ftarget)` — the workload bound and the
/// thermal offsets — into the rhs vector. The sweep-shared family path
/// calls `fill_point_rhs` alone per cell; routing this function through
/// the same filler keeps the two paths bit-identical by construction.
///
/// # Panics
///
/// Panics if `offsets` does not match the reach horizon (programmer error).
pub fn build_problem(
    platform: &Platform,
    cfg: &ControlConfig,
    reach: &AffineReach,
    offsets: &[Vec<f64>],
    ftarget_hz: f64,
) -> Problem {
    assert_eq!(
        offsets.len(),
        reach.steps(),
        "offsets must cover the whole horizon"
    );
    let mut prob = build_point_structure(platform, cfg, reach);
    fill_point_rhs(platform, cfg, offsets, ftarget_hz, prob.lin_rhs_mut());
    prob
}

/// The design-point structure shared by every cell of one platform/config
/// sweep: every coefficient, box, quadratic coupling, equality and the
/// objective. The per-cell linear rhs entries (workload + thermal rows)
/// are left at a placeholder `0.0` for [`fill_point_rhs`] to overwrite.
pub(crate) fn build_point_structure(
    platform: &Platform,
    cfg: &ControlConfig,
    reach: &AffineReach,
) -> Problem {
    let n = platform.num_cores();
    let use_grad = cfg.tgrad_weight > 0.0;
    let nv = 2 * n + 1;
    let mut prob = Problem::new(nv);

    // Objective: Σ p_i + w · t_grad.
    let mut q0 = vec![0.0; nv];
    for i in 0..n {
        q0[p_var(n, i)] = 1.0;
    }
    if use_grad {
        q0[tgrad_var(n)] = cfg.tgrad_weight;
    }
    prob.set_linear_objective(q0);

    // Boxes: each core's frequency tops out at its own reachable ratio,
    // each power at its peak busy power (leakage + dynamic at the top).
    for i in 0..n {
        let cm = platform.core_model(i);
        prob.add_box(f_var(i), 0.0, cm.max_ratio);
        prob.add_box(p_var(n, i), 0.0, cm.peak_power());
    }
    prob.add_box(tgrad_var(n), 0.0, 4.0 * cfg.tmax_c);

    // Frequency–power coupling with the scenario's per-core model:
    // leak + p_max·φ² ≤ p  ⇔  ½·(2·p_max)·φ² − p ≤ −leak. The zero-leak
    // rhs is written as literal 0.0 (not −0.0) so homogeneous platforms
    // stay bit-identical to the historical encoding.
    for i in 0..n {
        let cm = platform.core_model(i);
        let mut diag = vec![0.0; nv];
        diag[f_var(i)] = 2.0 * cm.pmax_w;
        let mut lin = vec![0.0; nv];
        lin[p_var(n, i)] = -1.0;
        let r = if cm.leakage_w == 0.0 {
            0.0
        } else {
            -cm.leakage_w
        };
        prob.add_quad_le(Matrix::from_diag(&diag), lin, r);
    }

    // Workload row: Σφ ≥ n·f_target/f_max (rhs filled per cell).
    let mut row = vec![0.0; nv];
    for ri in row.iter_mut().take(n) {
        *ri = -1.0;
    }
    prob.add_linear_le(row, 0.0);

    // Temperature limits at every step for every *watched* node — the
    // cores first, then any per-node capped blocks: (H_k p)_i ≤
    // limit_i − δ − o_k[i] (rhs filled per cell).
    for k in 0..reach.steps() {
        let h = &reach.sensitivities()[k];
        for i in 0..h.rows() {
            let mut row = vec![0.0; nv];
            for j in 0..n {
                row[p_var(n, j)] = h[(i, j)];
            }
            prob.add_linear_le(row, 0.0);
        }
    }

    // Pairwise gradient constraints (Equation (4)), subsampled by stride:
    // (H_k p + o_k)_i − (H_k p + o_k)_j ≤ t_grad (rhs filled per cell).
    if use_grad {
        for k in (0..reach.steps()).step_by(cfg.gradient_stride.max(1)) {
            let h = &reach.sensitivities()[k];
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let mut row = vec![0.0; nv];
                    for c in 0..n {
                        row[p_var(n, c)] = h[(i, c)] - h[(j, c)];
                    }
                    row[tgrad_var(n)] = -1.0;
                    prob.add_linear_le(row, 0.0);
                }
            }
        }
    }

    // Uniform mode: all frequencies equal.
    if cfg.mode == FreqMode::Uniform {
        for i in 1..n {
            let mut row = vec![0.0; nv];
            row[f_var(0)] = 1.0;
            row[f_var(i)] = -1.0;
            prob.add_eq(row, 0.0);
        }
    }

    prob
}

/// Writes one design point's cell-varying linear rhs entries — the
/// workload bound (moves with `ftarget`) and the temperature/gradient rows
/// (move with the starting temperature through `offsets`) — into `rhs`,
/// which must already hold the structure's static entries (the box rows).
/// The single source of per-cell values for both the standalone
/// [`build_problem`] and the family rows every solve runs on, so the two
/// cannot drift apart.
///
/// # Panics
///
/// Panics if `rhs` does not match the structure's row count.
pub(crate) fn fill_point_rhs(
    platform: &Platform,
    cfg: &ControlConfig,
    offsets: &[Vec<f64>],
    ftarget_hz: f64,
    rhs: &mut [f64],
) {
    let n = platform.num_cores();
    let use_grad = cfg.tgrad_weight > 0.0;
    // The watch list is the cores followed by the per-node capped blocks,
    // in the caps' configured order — the same convention
    // `AssignmentContext::new` builds the reach with.
    let caps = platform.resolved_node_caps();
    let nw = n + caps.len();
    // Hard layout check up front (not a trailing debug_assert): the static
    // prefix below is derived in parallel with `build_point_structure`'s
    // add_box calls, and writing into a mis-laid-out vector must fail
    // loudly before the first store, in release builds too.
    let m = offsets.len();
    let grad_rows = if use_grad {
        n * (n - 1) * m.div_ceil(cfg.gradient_stride.max(1))
    } else {
        0
    };
    assert_eq!(
        rhs.len(),
        (4 * n + 2) + 1 + m * nw + grad_rows,
        "rhs does not match the design-point row layout"
    );

    // Workload: Σφ ≥ n·f_target/f_max. Relaxed by 0.2% so that the extreme
    // point f_target = f_max keeps a strictly feasible interior (otherwise
    // Σφ ≥ n with φ ≤ 1 pins every frequency to exactly 1 and the
    // interior-point method cannot certify the singleton as feasible).
    let fr = (ftarget_hz / platform.fmax_hz).clamp(0.0, 1.0) * (1.0 - 2e-3);
    // Row layout: 4 box rows per core + 2 t_grad box rows, then the
    // workload row, the temperature rows, the gradient rows.
    let mut idx = 4 * n + 2;
    rhs[idx] = -(n as f64) * fr;
    idx += 1;

    let limit = cfg.tmax_c - cfg.margin_c;
    for off in offsets {
        for oi in off.iter().take(n) {
            rhs[idx] = limit - oi;
            idx += 1;
        }
        // Capped passive nodes follow the cores in the watch order; each
        // row enforces the node's own cap under the same guard margin.
        for (c, &(_, cap)) in caps.iter().enumerate() {
            rhs[idx] = (cap - cfg.margin_c) - off[n + c];
            idx += 1;
        }
    }

    if use_grad {
        for off in offsets.iter().step_by(cfg.gradient_stride.max(1)) {
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    rhs[idx] = off[j] - off[i];
                    idx += 1;
                }
            }
        }
    }
    debug_assert_eq!(idx, rhs.len(), "rhs layout must cover every row");
}

/// Builds the *reduced* convex program for one design point from the
/// banded modal structure: same variables, boxes, quadratic couplings,
/// equalities and objective as [`build_problem`], but one anchored
/// temperature row per [`protemp_thermal::modal::ModalBand`] per core and
/// one anchored gradient row per gradient band per ordered pair, instead
/// of rows at every step. The right-hand sides carry the band cushions
/// (`fill_point_rhs_modal`), so the reduced feasible set is a subset of
/// the full one: any `(φ, p, t_grad)` feasible here satisfies every
/// full-model constraint.
pub fn build_problem_modal(
    platform: &Platform,
    cfg: &ControlConfig,
    mreach: &ModalReach,
    offsets: &[Vec<f64>],
    ftarget_hz: f64,
) -> Problem {
    assert_eq!(
        offsets.len(),
        mreach.steps(),
        "offsets must cover the whole horizon"
    );
    let mut prob = build_point_structure_modal(platform, cfg, mreach);
    fill_point_rhs_modal(
        platform,
        cfg,
        mreach,
        offsets,
        ftarget_hz,
        prob.lin_rhs_mut(),
    );
    prob
}

/// The reduced design-point structure: [`build_point_structure`] with the
/// per-step temperature/gradient rows replaced by the banded anchored rows
/// of a [`ModalReach`]. Row order mirrors the full layout (boxes, workload,
/// temperature bands in order, gradient bands in order) so the rhs filler
/// below is the only other place that needs to know it.
pub(crate) fn build_point_structure_modal(
    platform: &Platform,
    cfg: &ControlConfig,
    mreach: &ModalReach,
) -> Problem {
    let n = platform.num_cores();
    let use_grad = cfg.tgrad_weight > 0.0;
    let nv = 2 * n + 1;
    let mut prob = Problem::new(nv);

    let mut q0 = vec![0.0; nv];
    for i in 0..n {
        q0[p_var(n, i)] = 1.0;
    }
    if use_grad {
        q0[tgrad_var(n)] = cfg.tgrad_weight;
    }
    prob.set_linear_objective(q0);

    for i in 0..n {
        let cm = platform.core_model(i);
        prob.add_box(f_var(i), 0.0, cm.max_ratio);
        prob.add_box(p_var(n, i), 0.0, cm.peak_power());
    }
    prob.add_box(tgrad_var(n), 0.0, 4.0 * cfg.tmax_c);

    for i in 0..n {
        let cm = platform.core_model(i);
        let mut diag = vec![0.0; nv];
        diag[f_var(i)] = 2.0 * cm.pmax_w;
        let mut lin = vec![0.0; nv];
        lin[p_var(n, i)] = -1.0;
        let r = if cm.leakage_w == 0.0 {
            0.0
        } else {
            -cm.leakage_w
        };
        prob.add_quad_le(Matrix::from_diag(&diag), lin, r);
    }

    let mut row = vec![0.0; nv];
    for ri in row.iter_mut().take(n) {
        *ri = -1.0;
    }
    prob.add_linear_le(row, 0.0);

    // One anchored temperature row per band per watched node (cores
    // first, then capped passive blocks):
    // (H̃_anchor p)_i ≤ limit_i − o_anchor[i] − eps − η (rhs filled per
    // cell).
    for b in 0..mreach.temp_bands().len() {
        let h = mreach.temp_h(b);
        for i in 0..h.rows() {
            let mut row = vec![0.0; nv];
            for j in 0..n {
                row[p_var(n, j)] = h[(i, j)];
            }
            prob.add_linear_le(row, 0.0);
        }
    }

    // One anchored gradient row per gradient band per ordered pair.
    if use_grad {
        for b in 0..mreach.grad_bands().len() {
            let h = mreach.grad_h(b);
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let mut row = vec![0.0; nv];
                    for c in 0..n {
                        row[p_var(n, c)] = h[(i, c)] - h[(j, c)];
                    }
                    row[tgrad_var(n)] = -1.0;
                    prob.add_linear_le(row, 0.0);
                }
            }
        }
    }

    if cfg.mode == FreqMode::Uniform {
        for i in 1..n {
            let mut row = vec![0.0; nv];
            row[f_var(0)] = 1.0;
            row[f_var(i)] = -1.0;
            prob.add_eq(row, 0.0);
        }
    }

    prob
}

/// Writes one design point's cell-varying rhs entries for the *reduced*
/// structure. Each banded row's rhs is tightened by two cushions so that
/// reduced-feasibility implies full-model feasibility at every covered
/// step `k` and every `p` in the power box:
///
/// * the static sensitivity cushion `eps` from [`ModalReach`]
///   (`H_k·p ≤ H̃_anchor·p + eps` over the box), and
/// * the per-cell offset cushion `η_i = max_{k∈band} (o_k[i] −
///   o_anchor[i])⁺` (temperature) / `η_g = max_{k∈band} (rhs_anchor −
///   rhs_k)⁺` (gradient), computed here from the cell's *exact* offset
///   trajectory — offsets are cheap per cell, so no modal approximation
///   is needed on this side.
///
/// Chaining the two: `(H_k p)_i ≤ (H̃ p)_i + eps ≤ (limit − o_anchor[i] −
/// η_i) + … ≤ limit − o_k[i]` — every full temperature row holds, and
/// likewise each gradient row holds with the achieved `t_grad`.
///
/// # Panics
///
/// Panics if `rhs` does not match the reduced row layout.
pub(crate) fn fill_point_rhs_modal(
    platform: &Platform,
    cfg: &ControlConfig,
    mreach: &ModalReach,
    offsets: &[Vec<f64>],
    ftarget_hz: f64,
    rhs: &mut [f64],
) {
    let n = platform.num_cores();
    let use_grad = cfg.tgrad_weight > 0.0;
    let caps = platform.resolved_node_caps();
    let nw = mreach.watch().len();
    assert_eq!(nw, n + caps.len(), "watch must be cores then capped nodes");
    let grad_rows = if use_grad {
        mreach.reduced_grad_rows()
    } else {
        0
    };
    assert_eq!(
        rhs.len(),
        (4 * n + 2) + 1 + mreach.reduced_temp_rows() + grad_rows,
        "rhs does not match the reduced design-point row layout"
    );
    assert_eq!(
        offsets.len(),
        mreach.steps(),
        "offsets must cover the whole horizon"
    );

    let fr = (ftarget_hz / platform.fmax_hz).clamp(0.0, 1.0) * (1.0 - 2e-3);
    let mut idx = 4 * n + 2;
    rhs[idx] = -(n as f64) * fr;
    idx += 1;

    let limit = cfg.tmax_c - cfg.margin_c;
    for (b, band) in mreach.temp_bands().iter().enumerate() {
        let anchor = &offsets[band.anchor()];
        for i in 0..nw {
            let limit_i = if i < n {
                limit
            } else {
                caps[i - n].1 - cfg.margin_c
            };
            let eta = (band.start..band.end)
                .map(|k| offsets[k][i] - anchor[i])
                .fold(0.0, f64::max);
            rhs[idx] = limit_i - anchor[i] - mreach.temp_eps(b, i) - eta;
            idx += 1;
        }
    }

    if use_grad {
        let strided = mreach.grad_strided();
        for (b, band) in mreach.grad_bands().iter().enumerate() {
            let anchor = &offsets[strided[band.anchor()]];
            let mut pair = 0;
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let rhs_anchor = anchor[j] - anchor[i];
                    let eta = (band.start..band.end)
                        .map(|pos| {
                            let off = &offsets[strided[pos]];
                            rhs_anchor - (off[j] - off[i])
                        })
                        .fold(0.0, f64::max);
                    rhs[idx] = rhs_anchor - mreach.grad_eps(b, pair) - eta;
                    idx += 1;
                    pair += 1;
                }
            }
        }
    }
    debug_assert_eq!(idx, rhs.len(), "rhs layout must cover every row");
}

#[cfg(test)]
mod tests {
    use super::*;
    use protemp_thermal::{DiscreteModel, IntegrationMethod, RcNetwork};

    fn setup(cfg: &ControlConfig) -> (Platform, AffineReach, Vec<Vec<f64>>) {
        let platform = Platform::niagara8();
        let net = RcNetwork::from_floorplan(&platform.floorplan, &platform.thermal);
        let model = DiscreteModel::new(
            &net,
            cfg.dt_us as f64 / 1e6,
            IntegrationMethod::ForwardEuler,
        )
        .unwrap();
        let steps = cfg.steps_per_window();
        let reach = AffineReach::new(&net, &model, steps).unwrap();
        let offsets = reach.offsets(&net.uniform_state(60.0));
        (platform, reach, offsets)
    }

    #[test]
    fn problem_dimensions() {
        let cfg = ControlConfig::default();
        let (platform, reach, offsets) = setup(&cfg);
        let p = build_problem(&platform, &cfg, &reach, &offsets, 0.5e9);
        let n = 8;
        let m = cfg.steps_per_window();
        assert_eq!(p.num_vars(), 2 * n + 1);
        // boxes (2n·2 + 2 for tgrad) + workload 1 + temps m·n + gradient
        // pairs n(n-1)·(m/stride).
        let grad_rows = n * (n - 1) * m.div_ceil(cfg.gradient_stride);
        let expected = (2 * n * 2 + 2) + 1 + m * n + grad_rows + n; // + n quad couplings
        assert_eq!(p.num_inequalities(), expected);
        assert_eq!(p.num_equalities(), 0);
    }

    #[test]
    fn uniform_mode_adds_equalities() {
        let cfg = ControlConfig {
            mode: FreqMode::Uniform,
            ..ControlConfig::default()
        };
        let (platform, reach, offsets) = setup(&cfg);
        let p = build_problem(&platform, &cfg, &reach, &offsets, 0.5e9);
        assert_eq!(p.num_equalities(), 7);
    }

    #[test]
    fn zero_gradient_weight_drops_gradient_rows() {
        let cfg = ControlConfig {
            tgrad_weight: 0.0,
            ..ControlConfig::default()
        };
        let (platform, reach, offsets) = setup(&cfg);
        let p = build_problem(&platform, &cfg, &reach, &offsets, 0.5e9);
        let n = 8;
        let m = cfg.steps_per_window();
        let expected = (2 * n * 2 + 2) + 1 + m * n + n;
        assert_eq!(p.num_inequalities(), expected);
    }
}
