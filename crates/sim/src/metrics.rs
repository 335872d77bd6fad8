use serde::{Deserialize, Serialize};

use crate::BandOccupancy;

/// Task waiting-time statistics (time from arrival to start of service —
/// the metric of the paper's Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaitingStats {
    /// Number of tasks that started service.
    pub count: usize,
    /// Mean waiting time, µs.
    pub mean_us: f64,
    /// 95th-percentile waiting time, µs.
    pub p95_us: f64,
    /// Maximum waiting time, µs.
    pub max_us: f64,
}

impl WaitingStats {
    /// Computes statistics from raw waiting times (µs). Returns zeros for
    /// an empty input.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return WaitingStats {
                count: 0,
                mean_us: 0.0,
                p95_us: 0.0,
                max_us: 0.0,
            };
        }
        // `total_cmp` is a total order: NaN samples (a poisoned window's
        // arithmetic, say) sort after +∞ instead of panicking the whole
        // report out of existence — they surface as NaN in the stats.
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let p95_idx = ((count as f64 * 0.95).ceil() as usize).clamp(1, count) - 1;
        WaitingStats {
            count,
            mean_us: mean,
            p95_us: samples[p95_idx],
            max_us: *samples.last().expect("non-empty"),
        }
    }
}

/// Per-core residency over normalized frequency levels.
///
/// Tracks the fraction of wall time each core spent shut down (`f = 0`),
/// in each quarter of the frequency range, and at full speed — the DVFS
/// analogue of the paper's temperature bands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreqResidency {
    /// Time at `f = 0` (shutdown), per core, seconds.
    shutdown: Vec<f64>,
    /// Time in `(0, 0.25], (0.25, 0.5], (0.5, 0.75], (0.75, 1.0)` of
    /// `f_max`, per core, seconds (row-major: core × band).
    bands: Vec<[f64; 4]>,
    /// Time at exactly `f_max`, per core, seconds.
    full: Vec<f64>,
    /// Total recorded time, seconds.
    total: f64,
}

impl FreqResidency {
    /// Creates an accumulator for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        FreqResidency {
            shutdown: vec![0.0; n_cores],
            bands: vec![[0.0; 4]; n_cores],
            full: vec![0.0; n_cores],
            total: 0.0,
        }
    }

    /// Records `dt` seconds at the given normalized frequency ratios
    /// (`f/f_max` per core).
    ///
    /// # Panics
    ///
    /// Panics if `ratios.len()` differs from the accumulator's core count.
    pub fn record(&mut self, ratios: &[f64], dt: f64) {
        assert_eq!(ratios.len(), self.shutdown.len(), "core count");
        for (i, &r) in ratios.iter().enumerate() {
            if r <= 0.0 {
                self.shutdown[i] += dt;
            } else if r >= 1.0 {
                self.full[i] += dt;
            } else {
                let band = ((r * 4.0).ceil() as usize).clamp(1, 4) - 1;
                self.bands[i][band] += dt;
            }
        }
        self.total += dt;
    }

    /// Fraction of time core `i` was shut down.
    pub fn shutdown_fraction(&self, i: usize) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.shutdown[i] / self.total
        }
    }

    /// Fraction of time core `i` ran at exactly `f_max`.
    pub fn full_speed_fraction(&self, i: usize) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.full[i] / self.total
        }
    }

    /// Mean shutdown fraction across cores.
    pub fn mean_shutdown_fraction(&self) -> f64 {
        let n = self.shutdown.len();
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|i| self.shutdown_fraction(i)).sum::<f64>() / n as f64
    }

    /// Per-core fractions `(shutdown, four bands, full)`; each row sums
    /// to 1 when time was recorded.
    pub fn fractions(&self, i: usize) -> (f64, [f64; 4], f64) {
        if self.total == 0.0 {
            return (0.0, [0.0; 4], 0.0);
        }
        let mut b = self.bands[i];
        for v in &mut b {
            *v /= self.total;
        }
        (self.shutdown[i] / self.total, b, self.full[i] / self.total)
    }

    /// Total recorded time, seconds.
    pub fn total_time(&self) -> f64 {
        self.total
    }
}

/// One decimated sample of the temperature trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Core temperatures, °C (core order).
    pub core_temps: Vec<f64>,
    /// Core frequencies, Hz (core order).
    pub core_freqs: Vec<f64>,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the DFS policy that ran.
    pub policy: String,
    /// Name of the assignment policy that ran.
    pub assignment: String,
    /// Wall-clock duration simulated, seconds.
    pub duration_s: f64,
    /// Number of DFS windows executed.
    pub windows: u64,
    /// Tasks completed.
    pub completed: usize,
    /// Tasks left unfinished when the simulation ended.
    pub unfinished: usize,
    /// Temperature-band occupancy averaged over all cores.
    pub bands_avg: BandOccupancy,
    /// Temperature-band occupancy per core.
    pub bands_per_core: Vec<BandOccupancy>,
    /// Waiting-time statistics.
    pub waiting: WaitingStats,
    /// Fraction of (core × time) spent above `t_max`.
    pub violation_fraction: f64,
    /// Fraction of (capped node × time) spent above the node's own cap
    /// (`Platform::node_caps`, e.g. memory dies). Zero when no caps are
    /// configured.
    pub cap_violation_fraction: f64,
    /// Hottest core temperature ever observed, °C.
    pub peak_temp_c: f64,
    /// Time-average of the spatial gradient (max − min core temp), °C.
    pub mean_gradient_c: f64,
    /// Largest spatial gradient observed, °C.
    pub max_gradient_c: f64,
    /// Total energy consumed by cores, J.
    pub core_energy_j: f64,
    /// Work completed, seconds at f_max.
    pub work_done_s: f64,
    /// Per-core frequency-level residency.
    pub freq_residency: FreqResidency,
    /// Fraction of DFS windows spent at each degradation-ladder rung
    /// (index = rung: 0 full MPC … 4 shutdown). Empty when the policy does
    /// not report a ladder level (see `DfsPolicy::ladder_level`).
    pub ladder_occupancy: Vec<f64>,
    /// 99th percentile of degraded-span lengths, in DFS windows: how long
    /// the ladder stayed off rung 0 before recovering to full MPC. Zero
    /// when the run never degraded (or the policy reports no ladder).
    pub fault_recovery_ticks_p99: f64,
    /// Control ticks dropped by fault injection.
    pub dropped_ticks: u64,
    /// Control decisions applied late by fault injection.
    pub late_ticks: u64,
    /// Power samples clamped to 0 W because they were non-finite or
    /// negative (engine guard; always 0 on a healthy run).
    pub clamped_power_samples: u64,
    /// Decimated temperature/frequency trajectory (when recording enabled).
    pub trace: Vec<TimePoint>,
}

impl SimReport {
    /// Throughput in work-seconds per second.
    pub fn throughput(&self) -> f64 {
        if self.duration_s == 0.0 {
            0.0
        } else {
            self.work_done_s / self.duration_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_stats_basic() {
        let w = WaitingStats::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(w.count, 4);
        assert!((w.mean_us - 2.5).abs() < 1e-12);
        assert_eq!(w.max_us, 4.0);
        assert_eq!(w.p95_us, 4.0);
    }

    #[test]
    fn waiting_stats_empty() {
        let w = WaitingStats::from_samples(vec![]);
        assert_eq!(w.count, 0);
        assert_eq!(w.mean_us, 0.0);
    }

    #[test]
    fn nan_samples_do_not_panic() {
        // Regression: `partial_cmp(...).expect("finite")` panicked on the
        // first NaN waiting time. NaNs now sort last (total order) and
        // surface as NaN in the order statistics instead of aborting.
        let w = WaitingStats::from_samples(vec![3.0, f64::NAN, 1.0]);
        assert_eq!(w.count, 3);
        assert!(w.max_us.is_nan(), "NaN sorts after every finite sample");
        assert!(w.mean_us.is_nan());
        // Finite stats stay exact when no NaN is present.
        let w = WaitingStats::from_samples(vec![3.0, 1.0]);
        assert_eq!(w.max_us, 3.0);
    }

    #[test]
    fn p95_of_uniform_sequence() {
        let w = WaitingStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(w.p95_us, 95.0);
    }

    #[test]
    fn freq_residency_buckets() {
        let mut fr = FreqResidency::new(2);
        fr.record(&[0.0, 1.0], 1.0); // shutdown / full
        fr.record(&[0.3, 0.8], 1.0); // band 1 / band 3
        assert_eq!(fr.shutdown_fraction(0), 0.5);
        assert_eq!(fr.full_speed_fraction(1), 0.5);
        let (s0, b0, f0) = fr.fractions(0);
        assert_eq!(s0, 0.5);
        assert_eq!(b0[1], 0.5);
        assert_eq!(f0, 0.0);
        let (_, b1, _) = fr.fractions(1);
        assert_eq!(b1[3], 0.5);
        assert_eq!(fr.total_time(), 2.0);
        assert_eq!(fr.mean_shutdown_fraction(), 0.25);
    }

    #[test]
    fn freq_residency_rows_sum_to_one() {
        let mut fr = FreqResidency::new(1);
        for r in [0.0, 0.1, 0.26, 0.6, 0.76, 1.0] {
            fr.record(&[r], 1.0);
        }
        let (s, b, f) = fr.fractions(0);
        let sum = s + b.iter().sum::<f64>() + f;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freq_residency_empty_is_zero() {
        let fr = FreqResidency::new(3);
        assert_eq!(fr.shutdown_fraction(0), 0.0);
        assert_eq!(fr.mean_shutdown_fraction(), 0.0);
    }
}
