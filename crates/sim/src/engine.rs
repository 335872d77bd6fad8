use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use protemp_thermal::{DiscreteModel, IntegrationMethod, ThermalSim};
use protemp_workload::{Task, Trace};

use crate::faults::FaultInjector;
use crate::metrics::FreqResidency;
use crate::{
    AssignmentPolicy, BandOccupancy, DfsPolicy, FaultCampaign, Observation, Platform, Result,
    SimError, SimReport, TimePoint, WaitingStats,
};

/// Simulation parameters.
///
/// Defaults follow the paper's experimental setup: 0.4 ms thermal step,
/// 100 ms DFS period, 100 °C maximum temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Thermal/executive time step, µs (paper: 400).
    pub dt_us: u64,
    /// DFS period, µs (paper: 100 ms).
    pub dfs_period_us: u64,
    /// Maximum allowed temperature, °C (paper: 100).
    pub tmax_c: f64,
    /// Initial temperature of every thermal node, °C.
    pub t_init_c: f64,
    /// Standard deviation of sensor noise, °C (0 = ideal sensors).
    pub sensor_noise_sd: f64,
    /// RNG seed (sensor noise and any stochastic tie-breaking).
    pub seed: u64,
    /// Record a decimated temperature/frequency trajectory.
    pub record_trace: bool,
    /// Trajectory sampling period, µs.
    pub trace_sample_us: u64,
    /// Hard wall-clock cap on simulated time, seconds.
    pub max_duration_s: f64,
}

/// Smoothing factor for the arrival-work predictor (0..1].
const EWMA_ALPHA: f64 = 0.5;

/// Floor on the demand ratio whenever work is pending (fraction of
/// `f_max`). The averaged estimator divides backlog across all cores;
/// without a floor the last straggling task makes the requested
/// frequency decay geometrically and never finish.
const MIN_ACTIVE_RATIO: f64 = 0.1;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt_us: 400,
            dfs_period_us: 100_000,
            tmax_c: 100.0,
            t_init_c: 55.0,
            sensor_noise_sd: 0.0,
            seed: 0xC0FFEE,
            record_trace: false,
            trace_sample_us: 10_000,
            max_duration_s: 600.0,
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// Besides consistent periods this rejects every setting that would
    /// complete with a silently wrong report: a non-finite initial
    /// temperature or limit (every `t > tmax` comparison is then false), a
    /// sensor noise that is not a finite non-negative deviation, and, with
    /// `record_trace` on, a sampling period that is not a positive multiple
    /// of `dt_us` (the trajectory would be sampled only at common
    /// multiples). A finite initial state is also what the thermal step's
    /// exactness rests on (see `DiscreteModel::step_into`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] when fields are inconsistent.
    pub fn validate(&self) -> Result<()> {
        if self.dt_us == 0 || self.dfs_period_us == 0 {
            return Err(SimError::BadConfig {
                reason: "dt_us and dfs_period_us must be positive".to_string(),
            });
        }
        if !self.dfs_period_us.is_multiple_of(self.dt_us) {
            return Err(SimError::BadConfig {
                reason: format!(
                    "dfs_period_us ({}) must be a multiple of dt_us ({})",
                    self.dfs_period_us, self.dt_us
                ),
            });
        }
        if !(self.max_duration_s.is_finite() && self.max_duration_s > 0.0) {
            return Err(SimError::BadConfig {
                reason: "max_duration_s must be positive".to_string(),
            });
        }
        if !self.t_init_c.is_finite() {
            return Err(SimError::BadConfig {
                reason: format!("t_init_c must be finite, got {}", self.t_init_c),
            });
        }
        if !self.tmax_c.is_finite() {
            return Err(SimError::BadConfig {
                reason: format!("tmax_c must be finite, got {}", self.tmax_c),
            });
        }
        if !(self.sensor_noise_sd.is_finite() && self.sensor_noise_sd >= 0.0) {
            return Err(SimError::BadConfig {
                reason: format!(
                    "sensor_noise_sd must be finite and non-negative, got {}",
                    self.sensor_noise_sd
                ),
            });
        }
        if self.record_trace
            && (self.trace_sample_us == 0 || !self.trace_sample_us.is_multiple_of(self.dt_us))
        {
            return Err(SimError::BadConfig {
                reason: format!(
                    "trace_sample_us ({}) must be a positive multiple of dt_us ({})",
                    self.trace_sample_us, self.dt_us
                ),
            });
        }
        Ok(())
    }
}

/// Per-core execution state.
#[derive(Debug, Clone)]
struct CoreState {
    /// Frequency for the current window, Hz. 0 means shut down.
    freq_hz: f64,
    /// Running task and its remaining work (µs at f_max).
    running: Option<(Task, f64)>,
    /// Busy time inside the current window, µs.
    busy_us: f64,
}

/// Runs one simulation: a trace through a platform under a DFS policy and
/// an assignment policy.
///
/// The loop follows the paper's simulator: every `dt` the engine admits
/// arrivals, dispatches queued tasks to available cores, advances execution
/// at the current frequencies, injects the corresponding power into the RC
/// thermal model and steps it; every DFS period it builds an
/// [`Observation`] and asks the policy for the next frequency vector.
///
/// The simulation ends when the trace is exhausted, the queue is drained
/// and all cores are idle — or at `max_duration_s`.
///
/// # Errors
///
/// * [`SimError::BadConfig`] for inconsistent configuration.
/// * [`SimError::BadFrequencies`] if the policy returns NaN/negative or a
///   wrong-length vector.
/// * [`SimError::Thermal`] if the thermal substrate fails.
pub fn run_simulation(
    platform: &Platform,
    trace: &Trace,
    policy: &mut dyn DfsPolicy,
    assign: &mut dyn AssignmentPolicy,
    cfg: &SimConfig,
) -> Result<SimReport> {
    run_simulation_with_faults(platform, trace, policy, assign, cfg, None)
}

/// [`run_simulation`] with an optional deterministic fault campaign.
///
/// When `faults` is `None` this is bit-identical to [`run_simulation`] —
/// every injection point is gated on the campaign's presence. When a
/// campaign is supplied, sensor faults corrupt the *sensed* temperatures
/// the policy observes (physics always advances on true temperatures),
/// dropped ticks skip the policy call and hold frequencies, late ticks
/// apply the decision a quarter-window late, and solver-timeout episodes
/// call [`DfsPolicy::inject_solver_timeout`] before the decision.
///
/// Ladder telemetry ([`SimReport::ladder_occupancy`],
/// [`SimReport::fault_recovery_ticks_p99`]) is recorded whenever the
/// policy reports [`DfsPolicy::ladder_level`], faulted or not.
///
/// # Errors
///
/// Same contract as [`run_simulation`].
pub fn run_simulation_with_faults(
    platform: &Platform,
    trace: &Trace,
    policy: &mut dyn DfsPolicy,
    assign: &mut dyn AssignmentPolicy,
    cfg: &SimConfig,
    faults: Option<&FaultCampaign>,
) -> Result<SimReport> {
    cfg.validate()?;
    platform
        .validate()
        .map_err(|reason| SimError::BadConfig { reason })?;

    let net = platform.rc_network();
    let model = DiscreteModel::new(
        &net,
        cfg.dt_us as f64 / 1e6,
        IntegrationMethod::ForwardEuler,
    )?;
    let initial = net.uniform_state(cfg.t_init_c);
    let mut thermal = ThermalSim::from_parts(net, model, initial);

    let n_cores = platform.num_cores();
    let core_block_idx: Vec<usize> = platform.core_block_indices();
    // Per-node caps (memory dies etc.): silicon node index == block index.
    let node_caps = platform.resolved_node_caps();
    let mut cores: Vec<CoreState> = (0..n_cores)
        .map(|_| CoreState {
            freq_hz: 0.0,
            running: None,
            busy_us: 0.0,
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut queue: VecDeque<Task> = VecDeque::new();
    let tasks = trace.tasks();
    let mut next_arrival = 0usize;

    let dt_s = cfg.dt_us as f64 / 1e6;
    let window_us = cfg.dfs_period_us;
    let max_us = (cfg.max_duration_s * 1e6) as u64;

    // Metrics.
    let mut bands_per_core: Vec<BandOccupancy> =
        (0..n_cores).map(|_| BandOccupancy::paper_bands()).collect();
    let mut waiting_samples: Vec<f64> = Vec::new();
    let mut completed = 0usize;
    let mut peak_temp = f64::MIN;
    let mut grad_sum = 0.0;
    let mut grad_max: f64 = 0.0;
    let mut grad_steps = 0u64;
    let mut violation_time = 0.0; // (core × seconds) above tmax
    let mut total_core_time = 0.0;
    let mut cap_violation_time = 0.0; // (capped node × seconds) above its cap
    let mut total_cap_time = 0.0;
    let mut core_energy_j = 0.0;
    let mut work_done_us = 0.0;
    let mut trace_out: Vec<TimePoint> = Vec::new();
    let mut windows = 0u64;
    let mut freq_residency = FreqResidency::new(n_cores);
    let mut freq_ratios = vec![0.0; n_cores];

    // Arrival-work predictor state.
    let mut window_arrived_work_us = 0.0;
    let mut predicted_work_us = 0.0;

    // Fault injection and degradation-ladder telemetry.
    let mut injector: Option<FaultInjector<'_>> = faults.map(FaultInjector::new);
    // Decision waiting to be applied (LateTick): frequencies + apply time.
    let mut pending_freqs: Option<(Vec<f64>, u64)> = None;
    let late_delay_us = ((window_us / 4) / cfg.dt_us).max(1) * cfg.dt_us;
    let mut ladder_counts = [0u64; 5];
    let mut ladder_samples = 0u64;
    let mut degraded_span = 0u64;
    let mut recovery_samples: Vec<u64> = Vec::new();
    let mut clamped_power_samples = 0u64;

    let mut now_us: u64 = 0;
    // Buffers sized once per run, so a thermal step allocates nothing.
    let mut block_powers = vec![0.0; platform.num_blocks()];
    let mut dispatch_temps = vec![0.0; n_cores];
    let mut idle: Vec<usize> = Vec::with_capacity(n_cores);

    loop {
        // --- DFS decision at window boundaries (including t = 0).
        if now_us.is_multiple_of(window_us) {
            let state = thermal.state();
            let mut sensed: Vec<f64> = thermal
                .network()
                .core_nodes()
                .iter()
                .map(|&node| {
                    let t = state[node];
                    if cfg.sensor_noise_sd > 0.0 {
                        t + gaussian(&mut rng) * cfg.sensor_noise_sd
                    } else {
                        t
                    }
                })
                .collect();
            let nan_poisoned = match injector.as_mut() {
                Some(inj) => inj.apply_sensor_faults(windows, &mut sensed),
                None => false,
            };
            // Update the arrival-work predictor from the window just ended.
            if now_us > 0 {
                predicted_work_us =
                    EWMA_ALPHA * window_arrived_work_us + (1.0 - EWMA_ALPHA) * predicted_work_us;
            }
            window_arrived_work_us = 0.0;

            let backlog: f64 = queue.iter().map(|t| t.work_us as f64).sum::<f64>()
                + cores
                    .iter()
                    .filter_map(|c| c.running.as_ref().map(|(_, rem)| *rem))
                    .sum::<f64>();
            let mut demand_ratio =
                (backlog + predicted_work_us) / (n_cores as f64 * window_us as f64);
            if backlog > 0.0 {
                demand_ratio = demand_ratio.max(MIN_ACTIVE_RATIO);
            }
            let required = (platform.fmax_hz * demand_ratio).clamp(0.0, platform.fmax_hz);

            let dropped = injector.as_mut().is_some_and(|inj| inj.drop_tick(windows));
            if dropped {
                // The tick never happens: frequencies hold, the window's
                // utilization accounting restarts.
                for core in cores.iter_mut() {
                    core.busy_us = 0.0;
                }
            } else {
                // A NaN sensor must poison the headline reading explicitly:
                // the `f64::max` fold silently drops NaN.
                let max_temp = if nan_poisoned {
                    f64::NAN
                } else {
                    sensed.iter().cloned().fold(f64::MIN, f64::max)
                };
                let obs = Observation {
                    window_index: windows,
                    core_temps: sensed,
                    max_core_temp: max_temp,
                    required_avg_freq_hz: required,
                    queue_len: queue.len(),
                    backlog_work_us: backlog,
                    utilization: cores.iter().map(|c| c.busy_us / window_us as f64).collect(),
                };
                if injector
                    .as_ref()
                    .is_some_and(|inj| inj.solver_timeout(windows))
                {
                    policy.inject_solver_timeout();
                }
                let freqs = policy.frequencies(&obs, platform);
                if freqs.len() != n_cores {
                    return Err(SimError::BadFrequencies {
                        reason: format!("expected {} entries, got {}", n_cores, freqs.len()),
                    });
                }
                if freqs.iter().any(|f| !f.is_finite() || *f < 0.0) {
                    return Err(SimError::BadFrequencies {
                        reason: "frequencies must be finite and non-negative".to_string(),
                    });
                }
                let late = injector.as_mut().is_some_and(|inj| inj.late_tick(windows));
                if late {
                    pending_freqs = Some((freqs, now_us + late_delay_us));
                    for core in cores.iter_mut() {
                        core.busy_us = 0.0;
                    }
                } else {
                    for (i, (core, f)) in cores.iter_mut().zip(&freqs).enumerate() {
                        core.freq_hz = f.min(platform.core_fmax(i));
                        core.busy_us = 0.0;
                    }
                }
            }
            if let Some(level) = policy.ladder_level() {
                let rung = (level as usize).min(4);
                ladder_counts[rung] += 1;
                ladder_samples += 1;
                if rung > 0 {
                    degraded_span += 1;
                } else if degraded_span > 0 {
                    recovery_samples.push(degraded_span);
                    degraded_span = 0;
                }
            }
            windows += 1;
        }

        // --- Apply a late control decision once its delay elapses.
        if let Some((freqs, at_us)) = pending_freqs.take() {
            if now_us >= at_us {
                for (i, (core, f)) in cores.iter_mut().zip(&freqs).enumerate() {
                    core.freq_hz = f.min(platform.core_fmax(i));
                }
            } else {
                pending_freqs = Some((freqs, at_us));
            }
        }

        // --- Admit arrivals.
        while next_arrival < tasks.len() && tasks[next_arrival].arrival_us <= now_us {
            let t = tasks[next_arrival];
            window_arrived_work_us += t.work_us as f64;
            queue.push_back(t);
            next_arrival += 1;
        }

        // --- Dispatch queued tasks to available cores.
        if !queue.is_empty() {
            let state = thermal.state();
            for (t, &node) in dispatch_temps
                .iter_mut()
                .zip(thermal.network().core_nodes())
            {
                *t = state[node];
            }
            loop {
                if queue.is_empty() {
                    break;
                }
                idle.clear();
                idle.extend(
                    cores
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.running.is_none() && c.freq_hz > 0.0)
                        .map(|(i, _)| i),
                );
                if idle.is_empty() {
                    break;
                }
                let pick = assign.pick(&idle, &dispatch_temps);
                let task = queue.pop_front().expect("queue non-empty");
                waiting_samples.push((now_us.saturating_sub(task.arrival_us)) as f64);
                let work = task.work_us as f64;
                cores[pick].running = Some((task, work));
            }
        }

        // --- Execute one step.
        for core in cores.iter_mut() {
            if core.freq_hz <= 0.0 {
                continue;
            }
            if let Some((_, remaining)) = core.running.as_mut() {
                let progress = cfg.dt_us as f64 * core.freq_hz / platform.fmax_hz;
                let used = progress.min(*remaining);
                *remaining -= used;
                work_done_us += used;
                core.busy_us += cfg.dt_us as f64;
                if *remaining <= 1e-9 {
                    core.running = None;
                    completed += 1;
                }
            }
        }

        // --- Thermal step with the current power map.
        block_powers.copy_from_slice(thermal.network().uncore_power());
        for p in block_powers.iter_mut() {
            if !p.is_finite() || *p < 0.0 {
                *p = 0.0;
                clamped_power_samples += 1;
            }
        }
        for (i, core) in cores.iter().enumerate() {
            let mut p = if core.freq_hz <= 0.0 {
                0.0
            } else if core.running.is_some() {
                platform.core_power_i(i, core.freq_hz)
            } else {
                platform.idle_power_w
            };
            // Guard the thermal model against a poisoned power sample: a
            // non-finite or negative watt reading becomes 0 W and is
            // counted, never integrated.
            if !p.is_finite() || p < 0.0 {
                p = 0.0;
                clamped_power_samples += 1;
            }
            block_powers[core_block_idx[i]] = p;
            core_energy_j += p * dt_s;
        }
        thermal.step(&block_powers)?;

        // --- Metrics.
        let state = thermal.state();
        let core_nodes = thermal.network().core_nodes();
        let mut tmax_now = f64::MIN;
        let mut tmin_now = f64::MAX;
        for (bands, &node) in bands_per_core.iter_mut().zip(core_nodes) {
            let t = state[node];
            bands.record(t, dt_s);
            if t > cfg.tmax_c {
                violation_time += dt_s;
            }
            total_core_time += dt_s;
            tmax_now = tmax_now.max(t);
            tmin_now = tmin_now.min(t);
        }
        for &(node, cap) in &node_caps {
            if state[node] > cap {
                cap_violation_time += dt_s;
            }
            total_cap_time += dt_s;
        }
        peak_temp = peak_temp.max(tmax_now);
        grad_sum += tmax_now - tmin_now;
        grad_max = grad_max.max(tmax_now - tmin_now);
        grad_steps += 1;
        for (r, core) in freq_ratios.iter_mut().zip(&cores) {
            *r = core.freq_hz / platform.fmax_hz;
        }
        freq_residency.record(&freq_ratios, dt_s);

        if cfg.record_trace && now_us.is_multiple_of(cfg.trace_sample_us) {
            trace_out.push(TimePoint {
                time_s: now_us as f64 / 1e6,
                core_temps: core_nodes.iter().map(|&node| state[node]).collect(),
                core_freqs: cores.iter().map(|c| c.freq_hz).collect(),
            });
        }

        now_us += cfg.dt_us;

        // --- Termination.
        let drained = next_arrival >= tasks.len()
            && queue.is_empty()
            && cores.iter().all(|c| c.running.is_none());
        if drained || now_us >= max_us {
            break;
        }
    }

    let unfinished = (tasks.len() - next_arrival)
        + queue.len()
        + cores.iter().filter(|c| c.running.is_some()).count();

    let mut bands_avg = BandOccupancy::paper_bands();
    for b in &bands_per_core {
        bands_avg.merge(b);
    }

    // Close an open degraded span so a run that ends off rung 0 still
    // contributes a recovery sample.
    if degraded_span > 0 {
        recovery_samples.push(degraded_span);
    }
    let ladder_occupancy = if ladder_samples > 0 {
        ladder_counts
            .iter()
            .map(|&c| c as f64 / ladder_samples as f64)
            .collect()
    } else {
        Vec::new()
    };
    let fault_recovery_ticks_p99 = if recovery_samples.is_empty() {
        0.0
    } else {
        recovery_samples.sort_unstable();
        let idx = ((recovery_samples.len() as f64 * 0.99).ceil() as usize)
            .clamp(1, recovery_samples.len())
            - 1;
        recovery_samples[idx] as f64
    };
    let (dropped_ticks, late_ticks) = injector
        .as_ref()
        .map_or((0, 0), |inj| (inj.dropped_ticks, inj.late_ticks));

    Ok(SimReport {
        policy: policy.name().to_string(),
        assignment: assign.name().to_string(),
        duration_s: now_us as f64 / 1e6,
        windows,
        completed,
        unfinished,
        bands_avg,
        bands_per_core,
        waiting: WaitingStats::from_samples(waiting_samples),
        violation_fraction: if total_core_time > 0.0 {
            violation_time / total_core_time
        } else {
            0.0
        },
        cap_violation_fraction: if total_cap_time > 0.0 {
            cap_violation_time / total_cap_time
        } else {
            0.0
        },
        peak_temp_c: peak_temp,
        mean_gradient_c: if grad_steps > 0 {
            grad_sum / grad_steps as f64
        } else {
            0.0
        },
        max_gradient_c: grad_max,
        core_energy_j,
        work_done_s: work_done_us / 1e6,
        freq_residency,
        ladder_occupancy,
        fault_recovery_ticks_p99,
        dropped_ticks,
        late_ticks,
        clamped_power_samples,
        trace: trace_out,
    })
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicDfs, CoolestFirst, FirstIdle, NoTc};
    use protemp_workload::{BenchmarkProfile, TraceGenerator};

    fn quick_trace(seed: u64, secs: f64) -> Trace {
        TraceGenerator::new(seed).generate(&BenchmarkProfile::web_serving(), secs, 8)
    }

    #[test]
    fn completes_all_tasks_under_light_load() {
        let platform = Platform::niagara8();
        let trace = quick_trace(1, 2.0);
        let n = trace.len();
        let mut policy = NoTc;
        let mut assign = FirstIdle;
        let r = run_simulation(
            &platform,
            &trace,
            &mut policy,
            &mut assign,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.completed, n, "all tasks complete under light load");
        assert_eq!(r.unfinished, 0);
        assert!(r.duration_s > 0.0);
        assert!(r.work_done_s > 0.0);
    }

    #[test]
    fn determinism() {
        let platform = Platform::niagara8();
        let trace = quick_trace(2, 1.0);
        let cfg = SimConfig::default();
        let r1 = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        let r2 = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert!((r1.core_energy_j - r2.core_energy_j).abs() < 1e-9);
        assert!((r1.peak_temp_c - r2.peak_temp_c).abs() < 1e-12);
    }

    #[test]
    fn hot_workload_heats_the_chip() {
        let platform = Platform::niagara8();
        let trace = TraceGenerator::new(3).generate(&BenchmarkProfile::compute_intensive(), 5.0, 8);
        let cfg = SimConfig::default();
        let r = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        assert!(
            r.peak_temp_c > 80.0,
            "compute-intensive run must heat the chip, peaked at {:.1}",
            r.peak_temp_c
        );
    }

    #[test]
    fn basic_dfs_cooler_than_no_tc() {
        let platform = Platform::niagara8();
        let trace = TraceGenerator::new(4).generate(&BenchmarkProfile::compute_intensive(), 8.0, 8);
        let cfg = SimConfig::default();
        let no_tc = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        let basic = run_simulation(
            &platform,
            &trace,
            &mut BasicDfs::default(),
            &mut FirstIdle,
            &cfg,
        )
        .unwrap();
        assert!(
            basic.violation_fraction <= no_tc.violation_fraction + 1e-12,
            "reactive control must not violate more than no control: {} vs {}",
            basic.violation_fraction,
            no_tc.violation_fraction
        );
    }

    #[test]
    fn trace_recording_samples() {
        let platform = Platform::niagara8();
        let trace = quick_trace(5, 1.0);
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let r = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        assert!(!r.trace.is_empty());
        // Samples are time-ordered.
        assert!(r.trace.windows(2).all(|w| w[0].time_s < w[1].time_s));
        assert_eq!(r.trace[0].core_temps.len(), 8);
    }

    #[test]
    fn bad_config_rejected() {
        let cfg = SimConfig {
            dt_us: 300, // does not divide 100 000
            ..SimConfig::default()
        };
        let platform = Platform::niagara8();
        let trace = quick_trace(6, 0.5);
        let e = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg);
        assert!(matches!(e, Err(SimError::BadConfig { .. })));
    }

    /// `cfg` must fail validation, and a run with it must fail before
    /// simulating anything.
    fn assert_rejected(cfg: SimConfig) {
        assert!(
            matches!(cfg.validate(), Err(SimError::BadConfig { .. })),
            "{cfg:?} validated"
        );
        let trace = quick_trace(6, 0.5);
        let e = run_simulation(
            &Platform::niagara8(),
            &trace,
            &mut NoTc,
            &mut FirstIdle,
            &cfg,
        );
        assert!(matches!(e, Err(SimError::BadConfig { .. })));
    }

    #[test]
    fn non_finite_initial_temperature_rejected() {
        for t_init_c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_rejected(SimConfig {
                t_init_c,
                ..SimConfig::default()
            });
        }
    }

    #[test]
    fn non_finite_limit_rejected() {
        for tmax_c in [f64::NAN, f64::INFINITY] {
            assert_rejected(SimConfig {
                tmax_c,
                ..SimConfig::default()
            });
        }
    }

    #[test]
    fn nan_or_negative_sensor_noise_rejected() {
        for sensor_noise_sd in [f64::NAN, -0.5, f64::INFINITY] {
            assert_rejected(SimConfig {
                sensor_noise_sd,
                ..SimConfig::default()
            });
        }
    }

    #[test]
    fn zero_trace_sample_period_rejected_when_recording() {
        let cfg = SimConfig {
            record_trace: true,
            trace_sample_us: 0,
            ..SimConfig::default()
        };
        assert_rejected(cfg);
        // The period is unused, and so not checked, when nothing is recorded.
        SimConfig {
            record_trace: false,
            ..cfg
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn trace_sample_period_off_the_step_grid_rejected() {
        // 10,100 µs is not a multiple of the 400 µs step: the run would
        // sample only at their common multiples, every 40.4 ms.
        assert_rejected(SimConfig {
            record_trace: true,
            trace_sample_us: 10_100,
            ..SimConfig::default()
        });
        SimConfig {
            record_trace: true,
            trace_sample_us: 10_000,
            ..SimConfig::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn coolest_first_runs() {
        let platform = Platform::niagara8();
        let trace = quick_trace(7, 1.0);
        let r = run_simulation(
            &platform,
            &trace,
            &mut BasicDfs::default(),
            &mut CoolestFirst,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.assignment, "coolest-first");
        assert!(r.completed > 0);
    }

    #[test]
    fn duration_cap_respected() {
        let platform = Platform::niagara8();
        // Overloaded trace that can never finish in the cap.
        let trace =
            TraceGenerator::new(8).generate(&BenchmarkProfile::compute_intensive(), 10.0, 8);
        let cfg = SimConfig {
            max_duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).unwrap();
        assert!(r.duration_s <= 0.5 + 1e-6);
        assert!(r.unfinished > 0);
    }

    #[test]
    fn sensor_noise_changes_basic_dfs_behaviour_not_physics() {
        let platform = Platform::niagara8();
        let trace = TraceGenerator::new(9).generate(&BenchmarkProfile::compute_intensive(), 3.0, 8);
        let noisy = SimConfig {
            sensor_noise_sd: 2.0,
            ..SimConfig::default()
        };
        let r = run_simulation(
            &platform,
            &trace,
            &mut BasicDfs::default(),
            &mut FirstIdle,
            &noisy,
        )
        .unwrap();
        // Physics stays sane under sensor noise.
        assert!(r.peak_temp_c < 150.0);
        assert!(r.peak_temp_c > 45.0);
    }
}
