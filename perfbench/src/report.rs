//! Metric names, units and the result line.
//!
//! The names are the benchmark's contract: later changes are judged by
//! them, so they are fixed here and checked against `BENCHMARK.json`.

use std::fmt::Write as _;

/// End-to-end metrics (untraced run), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("interval_mips", "MIPS"),
    ("detailed_mips", "MIPS"),
    ("sampled_mips", "MIPS"),
    ("hybrid_mips", "MIPS"),
    ("interval_cpi_err_pct", "%"),
    ("sampled_cpi_err_pct", "%"),
    ("sweep_s", "s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_rps", "1/s"),
];

/// Per-layer metrics (traced run), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("trace.generate_s", "s"),
    ("trace.generate_insts", "count"),
    ("trace.fastfwd_s", "s"),
    ("trace.fastfwd_batches", "count"),
    ("mem.warm_s", "s"),
    ("mem.warm_accesses", "count"),
    ("branch.update_s", "s"),
    ("branch.updates", "count"),
    ("mem.setup_s", "s"),
    ("core.step_s", "s"),
    ("core.insts", "count"),
    ("detailed.step_s", "s"),
    ("detailed.cycles", "count"),
    ("sim.workload.build_s", "s"),
    ("sim.model.build_s", "s"),
    ("sim.model.restore_s", "s"),
    ("sim.model.restores", "count"),
    ("sim.model.extract_s", "s"),
    ("sim.model.extracts", "count"),
    ("sim.sampling.measure_s", "s"),
    ("sim.sampling.estimate_s", "s"),
    ("sim.sampling.units_measured", "count"),
    ("sim.sampling.units_total", "count"),
    ("sim.sampling.ci95_rel", "ratio"),
    ("sim.hybrid.step_s", "s"),
    ("sim.hybrid.swaps", "count"),
    ("sim.batch.sweep_s", "s"),
    ("sim.batch.busy_s", "s"),
    ("sim.batch.idle_s", "s"),
    ("sim.batch.utilization", "ratio"),
    ("sim.scenario.parse_s", "s"),
    ("sim.scenario.expand_s", "s"),
    ("sim.jsonl.render_s", "s"),
    ("sim.jsonl.parse_s", "s"),
    ("sim.jsonl.bytes", "count"),
    ("sim.store.open_s", "s"),
    ("sim.store.get_s", "s"),
    ("sim.store.gets", "count"),
    ("sim.store.put_s", "s"),
    ("sim.store.puts", "count"),
    ("sim.store.hit_ratio", "ratio"),
    ("sim.store.evictions", "count"),
    ("sim.serve.bind_s", "s"),
    ("sim.serve.simulate_s", "s"),
    ("sim.serve.replay_s", "s"),
    ("sim.serve.connect_s", "s"),
    ("sim.serve.request_s", "s"),
    ("sim.serve.hits", "count"),
    ("sim.serve.misses", "count"),
    ("sim.serve.coalesced", "count"),
    ("sim.serve.worker_utilization", "ratio"),
    ("bench.check_s", "s"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.dram_accesses", "count"),
    ("branch.mispredicts", "count"),
    ("core.intervals", "count"),
    ("core.penalty_imiss_cycles", "count"),
    ("core.penalty_branch_cycles", "count"),
    ("core.penalty_longlat_cycles", "count"),
    ("core.penalty_serial_cycles", "count"),
    ("core.penalty_bandwidth_cycles", "count"),
    ("core.sync_blocked_cycles", "count"),
    ("profile.coverage", "ratio"),
    ("profile.opaque_share", "ratio"),
    ("profile.overhead_pct", "%"),
    ("host.ref_kernel_mops", "MOPS"),
    ("host.kernel_mops", "MOPS"),
];

/// What one run measured and how many of its operations failed a check.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (printed to stderr).
    pub problems: Vec<String>,
    /// Context lines (sample counts, chosen percentiles, tolerances).
    pub notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric; `name` must be one of the declared names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Checks the recorded metrics against `declared`: every declared name
    /// present with a finite value, nothing else.
    pub fn validate(&mut self, declared: &[(&'static str, &'static str)]) {
        for (name, _) in declared {
            match self.metrics.iter().find(|(n, _)| n == name) {
                None => self.fail(format!("metric `{name}` was not measured")),
                Some((_, v)) if !v.is_finite() => {
                    self.fail(format!("metric `{name}` is not finite ({v})"));
                }
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(n, _)| !declared.iter().any(|(d, _)| d == n))
            .map(|(n, _)| *n)
            .collect();
        for name in extra {
            self.fail(format!("metric `{name}` is not declared"));
        }
    }

    /// The result line: one JSON object with the declared metrics in
    /// declaration order.
    pub fn json(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in declared {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable lines, then the result line last on stdout.
    pub fn print(&self, declared: &[(&'static str, &'static str)]) {
        for (name, unit) in declared {
            if let Some((_, v)) = self.metrics.iter().find(|(n, _)| n == name) {
                println!("{name:<32} {v:>16.6} {unit}");
            }
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted.max(1),
            self.failed
        );
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        println!("{}", self.json(declared));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> impl Iterator<Item = &'static str> {
        END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n)
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in all_names() {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "metric name `{name}` must match [A-Za-z0-9_.-]+"
            );
            assert!(seen.insert(name), "metric name `{name}` is used twice");
        }
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        for name in all_names() {
            assert!(
                names.contains(&name),
                "`{name}` is missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        r.validate(&END_TO_END);
        // Eleven metrics were never set.
        assert_eq!(r.failed, 11);
        let line = r.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 11"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"serve_rps\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
    }
}
