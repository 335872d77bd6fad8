use protemp_sim::{DfsPolicy, Observation, Platform};

use crate::{FrequencyTable, LookupOutcome};

/// Phase 2 of Pro-Temp: the run-time controller (paper Section 3.3).
///
/// Implements the simulator's [`DfsPolicy`]: at every DFS period it reads
/// the maximum core temperature and the required average frequency from the
/// [`Observation`] and picks the pre-computed assignment from the Phase-1
/// [`FrequencyTable`]. When the requested point is infeasible at the
/// current temperature it degrades to the next lower feasible frequency
/// column; when even that fails (or the chip is hotter than the hottest
/// modeled row) it shuts the cores down for one window — which the table
/// guarantees never happens in practice, because the assignments themselves
/// keep the chip below `t_max`.
///
/// # Example
///
/// ```no_run
/// use protemp::prelude::*;
/// use protemp_sim::{run_simulation, FirstIdle, SimConfig};
/// use protemp_workload::{BenchmarkProfile, TraceGenerator};
///
/// let platform = Platform::niagara8();
/// let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
/// let (table, _) = TableBuilder::new().build(&ctx).unwrap();
/// let mut policy = ProTempController::new(table);
/// let trace = TraceGenerator::new(1).generate(&BenchmarkProfile::multimedia(), 10.0, 8);
/// let report = run_simulation(&platform, &trace, &mut policy, &mut FirstIdle,
///                             &SimConfig::default()).unwrap();
/// assert!(report.violation_fraction == 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ProTempController {
    table: FrequencyTable,
    lookups: u64,
    degraded: u64,
    shutdowns: u64,
}

impl ProTempController {
    /// Creates the controller from a Phase-1 table.
    pub fn new(table: FrequencyTable) -> Self {
        ProTempController {
            table,
            lookups: 0,
            degraded: 0,
            shutdowns: 0,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &FrequencyTable {
        &self.table
    }

    /// Lookup counters: `(total, degraded, shutdowns)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.degraded, self.shutdowns)
    }
}

impl DfsPolicy for ProTempController {
    fn name(&self) -> &str {
        "pro-temp"
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        self.lookups += 1;
        match self
            .table
            .lookup(obs.max_core_temp, obs.required_avg_freq_hz)
        {
            LookupOutcome::Run {
                freqs_hz, degraded, ..
            } => {
                if degraded {
                    self.degraded += 1;
                }
                freqs_hz
            }
            LookupOutcome::Shutdown => {
                self.shutdowns += 1;
                vec![0.0; platform.num_cores()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreqMode, FrequencyAssignment};
    use protemp_sim::Platform;

    fn tiny_table() -> FrequencyTable {
        let asg = |mhz: f64| {
            Some(FrequencyAssignment {
                freqs_hz: vec![mhz * 1e6; 8],
                powers_w: vec![1.0; 8],
                tgrad_c: None,
                objective: 8.0,
            })
        };
        FrequencyTable::new(
            vec![70.0, 100.0],
            vec![0.3e9, 0.8e9],
            vec![asg(300.0), asg(800.0), asg(300.0), None],
            FreqMode::Variable,
        )
    }

    fn obs(max_temp: f64, f_req: f64) -> Observation {
        Observation {
            window_index: 0,
            core_temps: vec![max_temp; 8],
            max_core_temp: max_temp,
            required_avg_freq_hz: f_req,
            queue_len: 0,
            backlog_work_us: 0.0,
            utilization: vec![0.5; 8],
        }
    }

    #[test]
    fn controller_uses_table() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(60.0, 0.7e9), &platform);
        assert!((f[0] - 0.8e9).abs() < 1.0);
        let (lookups, degraded, shutdowns) = c.counters();
        assert_eq!((lookups, degraded, shutdowns), (1, 0, 0));
    }

    #[test]
    fn controller_degrades_when_hot() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(95.0, 0.8e9), &platform);
        assert!((f[0] - 0.3e9).abs() < 1.0);
        assert_eq!(c.counters().1, 1);
    }

    #[test]
    fn controller_shuts_down_beyond_grid() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(105.0, 0.3e9), &platform);
        assert!(f.iter().all(|&x| x == 0.0));
        assert_eq!(c.counters().2, 1);
    }
}
