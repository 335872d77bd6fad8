//! The benchmark's metric vocabulary and its JSON output.
//!
//! The lists here are the ones `BENCHMARK.json` declares; a unit test
//! keeps the two in step.

/// Gated end-to-end metrics: every workload reports each of them from
/// its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    // Platform to first sweep cell or first tick (median of the run's
    // set-ups).
    ("setup_s", "s"),
    // Grid cells (design_sweep) or DFS windows (loops) decided per second
    // of the decision phase: `build_artifact` + `save`, or
    // `run_simulation`.
    ("decisions_per_s", "1/s"),
    // VmHWM of the workload's process.
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. Every workload reports each of
/// them; a layer the workload does not exercise reads 0. Times and counts
/// are means per workload iteration, maxima are over the whole traced
/// pass, and ratios are of sums.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("assign.context_s", "s"),
    ("cvx.family_build_s", "s"),
    ("cvx.rows", "count"),
    ("cvx.vars", "count"),
    ("cvx.newton_steps", "count"),
    ("cvx.phase1_solves", "count"),
    ("cvx.s_per_newton", "s"),
    ("cvx.newton_per_cell", "count"),
    ("cvx.screen_ratio", "fraction"),
    ("builder.build_s", "s"),
    ("builder.warm_ratio", "fraction"),
    ("builder.max_cell_s", "s"),
    ("builder.feasible_cells", "count"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("serve.open_s", "s"),
    ("workload.trace_gen_s", "s"),
    ("linalg.syrk_gflops", "GFLOP/s"),
    ("linalg.syrk_flops", "flop"),
    ("linalg.syrk_bytes", "B"),
    ("linalg.matvec_gflops", "GFLOP/s"),
    ("linalg.matvec_flops", "flop"),
    ("linalg.matvec_bytes", "B"),
    ("ladder.tick_total_s", "s"),
    ("ladder.tick_max_us", "us"),
    ("ladder.over_deadline_ticks", "count"),
    ("ladder.infeasible_probes", "count"),
    ("ladder.screened_probes", "count"),
    ("ladder.screen_ratio", "fraction"),
    ("ladder.max_tick_newton", "count"),
    ("ladder.rung_share.0", "fraction"),
    ("ladder.rung_share.1", "fraction"),
    ("ladder.rung_share.2", "fraction"),
    ("ladder.rung_share.3", "fraction"),
    ("ladder.rung_share.4", "fraction"),
    ("ladder.solver_errors", "count"),
    ("ladder.truncated_serves", "count"),
    ("ladder.backoffs", "count"),
    ("controller.tick_total_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.windows", "count"),
    ("sim.tasks_completed", "count"),
    ("sim.shutdown_fraction", "fraction"),
    ("sim.work_throughput", "work-s/s"),
    ("sim.wait_p95_s", "s"),
    ("thermal.step_ns", "ns"),
    ("bench.span_coverage", "fraction"),
    ("bench.trace_overhead", "fraction"),
    ("bench.iterations", "count"),
    ("bench.nproc", "count"),
    ("bench.worker_threads", "count"),
];

/// Values for one of the metric lists above, in list order.
#[derive(Debug, Clone)]
pub struct MetricSet {
    list: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `list`.
    pub fn new(list: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            list,
            values: vec![None; list.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the list does not declare (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values[i] = Some(value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.list.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// Reads every unset metric as 0: the layer did no work.
    pub fn zero_unset(&mut self) {
        for v in &mut self.values {
            v.get_or_insert(0.0);
        }
    }

    /// `(name, value, unit)` in list order.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set (a benchmark bug).
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.list
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), v)| (n, v.unwrap_or_else(|| panic!("metric {n} not measured")), u))
            .collect()
    }
}

/// One line of the human-readable report: a workload-specific metric that is
/// printed by name and unit but is not one of the gated metrics.
#[derive(Debug, Clone)]
pub struct ReportLine {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl ReportLine {
    /// A report line.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        ReportLine {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON number with every digit (`f64`'s shortest round-trip form).
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let body: Vec<String> = metrics
        .entries()
        .into_iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in `BENCHMARK.json`.
    fn declared_names() -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        json.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let start = rest.find('"').expect("name value") + 1;
                let len = rest[start..].find('"').expect("closing quote");
                rest[start..start + len].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let mut code: Vec<String> = crate::WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .chain(PER_LAYER.iter().map(|(n, _)| n.to_string()))
            .collect();
        let mut declared = declared_names();
        code.sort();
        declared.sort();
        assert_eq!(code, declared);
    }

    #[test]
    fn units_in_benchmark_json_match() {
        let json = include_str!("../../BENCHMARK.json");
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let at = json.find(&format!("\"name\": \"{n}\"")).expect("declared");
            let tail = &json[at..];
            let entry = &tail[..tail.find('}').expect("entry end")];
            assert!(
                entry.contains(&format!("\"unit\": \"{u}\"")),
                "{n}: {entry}"
            );
        }
    }

    #[test]
    fn result_json_has_every_metric() {
        let mut m = MetricSet::new(END_TO_END);
        m.set("setup_s", 0.5);
        m.zero_unset();
        let line = result_json(true, 3, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\"")));
        }
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_panics() {
        MetricSet::new(END_TO_END).set("nope", 1.0);
    }
}
