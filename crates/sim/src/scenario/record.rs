//! The one row type every experiment produces.
//!
//! A [`Record`] is a [`SimSummary`] plus the
//! scenario coordinates that produced it (sweep, group, variant, config
//! digest). Every figure of the paper — and every new scenario a spec file
//! describes — reports `Vec<Record>`; the derived quantities the figures
//! plot (IPC error, STP/ANTT, normalized time, simulation speedup,
//! confidence intervals) are methods over records and pairs of records,
//! not bespoke row structs.

use serde::{Deserialize, Serialize};

use crate::batch::JobFailure;
use crate::metrics;
use crate::runner::{CoreSummary, SimSummary};
use crate::sampling::SamplingEstimate;

/// One simulation point of a sweep, with everything any figure derives
/// its columns from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Name of the sweep/figure the record belongs to (`fig5`, `hybrid`,
    /// a spec file's `name`, ...).
    pub sweep: String,
    /// Comparison-group key: the swept coordinates *except* the variant
    /// (e.g. `gcc`, `mcf/4c`). Records in one group describe the same
    /// point under different variants.
    pub group: String,
    /// What is being compared within the group: the model name, or the
    /// template's variant label for multi-template sweeps.
    pub variant: String,
    /// The benchmark axis value, when the sweep has one.
    pub benchmark: Option<String>,
    /// FNV-1a digest of the resolved `(config, workload, model, seed)`
    /// point — two records with equal digests simulated the same thing.
    pub digest: String,
    /// Workload label.
    pub workload: String,
    /// Core count of the simulated chip.
    pub cores: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Per-core instruction/cycle summaries.
    pub per_core: Vec<CoreSummary>,
    /// Cycles until the last core finished.
    pub cycles: u64,
    /// Total instructions simulated.
    pub instructions: u64,
    /// Host wall-clock seconds of the run.
    pub host_seconds: f64,
    /// Model swaps (hybrid) or functional-to-timed transitions (sampled).
    pub swaps: u64,
    /// The statistical estimate of a sampled run (`None` otherwise).
    pub sampling: Option<SamplingEstimate>,
    /// The structured failure of a quarantined job (`None` for rows that
    /// simulated successfully). Quarantined rows carry zeroed simulated
    /// quantities and are skipped by the derived-metric views.
    pub failure: Option<JobFailure>,
}

impl Record {
    /// Wraps a run summary with its scenario coordinates.
    #[must_use]
    pub fn from_summary(
        sweep: &str,
        group: &str,
        variant: &str,
        benchmark: Option<&str>,
        digest: String,
        seed: u64,
        summary: SimSummary,
    ) -> Self {
        Record {
            sweep: sweep.to_string(),
            group: group.to_string(),
            variant: variant.to_string(),
            benchmark: benchmark.map(str::to_string),
            digest,
            workload: summary.workload,
            cores: summary.per_core.len(),
            seed,
            per_core: summary.per_core,
            cycles: summary.cycles,
            instructions: summary.total_instructions,
            host_seconds: summary.host_seconds,
            swaps: summary.swaps,
            sampling: summary.sampling,
            failure: None,
        }
    }

    /// A quarantined row: the scenario coordinates of a job that could not
    /// be simulated, with the structured [`JobFailure`] in place of
    /// simulated quantities.
    #[must_use]
    pub fn from_failure(
        sweep: &str,
        group: &str,
        variant: &str,
        benchmark: Option<&str>,
        failure: JobFailure,
    ) -> Self {
        Record {
            sweep: sweep.to_string(),
            group: group.to_string(),
            variant: variant.to_string(),
            benchmark: benchmark.map(str::to_string),
            digest: failure.digest.clone(),
            workload: failure.workload.clone(),
            cores: 0,
            seed: failure.seed,
            per_core: Vec::new(),
            cycles: 0,
            instructions: 0,
            host_seconds: 0.0,
            swaps: 0,
            sampling: None,
            failure: Some(failure),
        }
    }

    /// Whether this row is a quarantined failure rather than a simulated
    /// result.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.failure.is_some()
    }

    /// Whole-chip cycles per instruction. Sampled runs report their
    /// statistical point estimate (the quantity their confidence interval
    /// brackets); every other model reports measured cycles over
    /// instructions.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        match &self.sampling {
            Some(est) => est.cpi,
            None => self.cycles as f64 / self.instructions.max(1) as f64,
        }
    }

    /// Whole-chip instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// IPC of one core.
    ///
    /// # Panics
    ///
    /// Panics when the core index is out of range.
    #[must_use]
    pub fn core_ipc(&self, core: usize) -> f64 {
        self.per_core[core].ipc()
    }

    /// Simulated MIPS (instructions per host microsecond).
    #[must_use]
    pub fn mips(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.host_seconds / 1e6
        }
    }

    /// Half-width of the 95% confidence interval around [`cpi`](Self::cpi),
    /// for sampled runs.
    #[must_use]
    pub fn ci95_half_width(&self) -> Option<f64> {
        self.sampling.as_ref().map(|e| e.ci95_half_width)
    }

    /// The 95% confidence bounds `(low, high)` around the CPI estimate,
    /// for sampled runs.
    #[must_use]
    pub fn ci95_bounds(&self) -> Option<(f64, f64)> {
        self.sampling
            .as_ref()
            .map(|e| (e.cpi - e.ci95_half_width, e.cpi + e.ci95_half_width))
    }

    /// Whether the record's 95% interval brackets `reference_cpi`
    /// (vacuously false for non-sampled records).
    #[must_use]
    pub fn ci_brackets(&self, reference_cpi: f64) -> bool {
        self.ci95_bounds()
            .is_some_and(|(lo, hi)| lo <= reference_cpi && reference_cpi <= hi)
    }

    /// Relative CPI error against a reference record.
    #[must_use]
    pub fn cpi_error_vs(&self, reference: &Record) -> f64 {
        metrics::relative_error(self.cpi(), reference.cpi())
    }

    /// Relative error of this record's core-0 IPC against a reference
    /// record's (the single-threaded accuracy metric of Figures 4 and 5).
    #[must_use]
    pub fn ipc_error_vs(&self, reference: &Record) -> f64 {
        metrics::relative_error(self.core_ipc(0), reference.core_ipc(0))
    }

    /// Host-time speedup of this record over a reference record.
    #[must_use]
    pub fn speedup_vs(&self, reference: &Record) -> f64 {
        metrics::simulation_speedup(reference.host_seconds, self.host_seconds)
    }

    /// Stable text encoding of every *simulated* (deterministic) field —
    /// everything except `host_seconds`. Two runs of the same scenario
    /// must produce byte-identical canonical records at any worker count.
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        #[expect(clippy::expect_used, reason = "String's fmt::Write cannot fail")]
        write!(
            s,
            "sweep={};group={};variant={};digest={};workload={};cores={};seed={};\
             cycles={};instructions={};swaps={}",
            self.sweep,
            self.group,
            self.variant,
            self.digest,
            self.workload,
            self.cores,
            self.seed,
            self.cycles,
            self.instructions,
            self.swaps
        )
        .expect("write to String cannot fail");
        for c in &self.per_core {
            #[expect(clippy::expect_used, reason = "String's fmt::Write cannot fail")]
            write!(s, ";core{}={},{}", c.core, c.instructions, c.cycles)
                .expect("write to String cannot fail");
        }
        if let Some(est) = &self.sampling {
            #[expect(clippy::expect_used, reason = "String's fmt::Write cannot fail")]
            write!(
                s,
                ";sampling=units{}/{},cpi{},ci{}",
                est.units_measured, est.units_total, est.cpi, est.ci95_half_width
            )
            .expect("write to String cannot fail");
        }
        if let Some(failure) = &self.failure {
            // Attempt counts depend on the retry schedule, so they stay out
            // of the canonical encoding: a quarantined row must encode
            // identically whatever failure history produced it.
            let _ = write!(s, ";failure={}:{}", failure.kind.name(), failure.message);
        }
        s
    }
}

/// FNV-1a 64-bit digest of a string, rendered as 16 hex digits. Used for
/// the config digest of a record; deterministic across runs and hosts.
#[must_use]
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CoreModel;

    fn record(variant: &str, cycles: u64, insts: u64, host: f64) -> Record {
        Record {
            sweep: "test".to_string(),
            group: "gcc".to_string(),
            variant: variant.to_string(),
            benchmark: Some("gcc".to_string()),
            digest: fnv1a_hex(variant),
            workload: "gcc".to_string(),
            cores: 1,
            seed: 42,
            per_core: vec![CoreSummary {
                core: 0,
                instructions: insts,
                cycles,
            }],
            cycles,
            instructions: insts,
            host_seconds: host,
            swaps: 0,
            sampling: None,
            failure: None,
        }
    }

    #[test]
    fn derived_metrics_match_their_definitions() {
        let detailed = record("detailed", 2_000, 1_000, 4.0);
        let interval = record("interval", 2_100, 1_000, 1.0);
        assert!((interval.cpi() - 2.1).abs() < 1e-12);
        assert!((interval.cpi_error_vs(&detailed) - 0.05).abs() < 1e-12);
        assert!((interval.speedup_vs(&detailed) - 4.0).abs() < 1e-12);
        assert!((interval.ipc_error_vs(&detailed) - 0.047_619_047_619_047_62).abs() < 1e-12);
        assert!((detailed.mips() - 1_000.0 / 4.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn sampled_records_report_the_estimate_not_the_rounded_cycles() {
        let mut r = record("sampled", 2_000, 1_000, 1.0);
        r.sampling = Some(SamplingEstimate {
            units_total: 10,
            units_measured: 3,
            prefix_instructions: 100,
            measured_instructions: 300,
            cpi: 2.0004,
            steady_cpi: 2.0,
            aux_slope: 0.0,
            cpi_stddev: 0.01,
            ci95_half_width: 0.05,
        });
        assert!((r.cpi() - 2.0004).abs() < 1e-12);
        assert_eq!(r.ci95_half_width(), Some(0.05));
        assert!(r.ci_brackets(2.0));
        assert!(!r.ci_brackets(2.1));
    }

    #[test]
    fn canonical_excludes_host_seconds() {
        let a = record("interval", 2_000, 1_000, 1.0);
        let mut b = a.clone();
        b.host_seconds = 99.0;
        assert_eq!(a.canonical(), b.canonical());
        let mut c = a.clone();
        c.cycles += 1;
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn fnv_digest_is_stable_and_distinguishing() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex("a"), fnv1a_hex("b"));
        assert_eq!(fnv1a_hex("abc"), fnv1a_hex("abc"));
    }

    #[test]
    fn from_summary_carries_the_coordinates() {
        let summary = crate::runner::run(
            CoreModel::Interval,
            &crate::config::SystemConfig::hpca2010_baseline(1),
            &crate::workload::WorkloadSpec::single("gcc", 2_000),
            7,
        );
        let r = Record::from_summary(
            "fig5",
            "gcc",
            "interval",
            Some("gcc"),
            "d".into(),
            7,
            summary,
        );
        assert_eq!(r.sweep, "fig5");
        assert_eq!(r.cores, 1);
        assert_eq!(r.instructions, 2_000);
        assert!(r.cpi() > 0.0);
    }
}
