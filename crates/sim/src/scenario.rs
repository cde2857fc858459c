//! Declarative scenario engine: one experiment spec drives every figure,
//! sweep, and gate.
//!
//! The paper's pitch is raising the level of abstraction so design-space
//! exploration becomes cheap. This module applies the same idea to the
//! evaluation harness itself: instead of one bespoke driver function, row
//! struct and formatter per figure, **every** experiment is a
//! [`ScenarioSpec`] — machine + workload + model + seed — or a
//! [`SweepSpec`] that expands cartesian axes (benchmarks, core counts,
//! seeds, models) and explicit variant templates into a deterministic
//! [`SimJob`] batch. Running a sweep yields unified [`Record`] rows; the
//! derived quantities the figures plot are methods over records, and the
//! generic formatters in [`crate::report`] print them.
//!
//! Scenario files (a strict TOML subset, see [`SweepSpec::from_toml`])
//! describe the same surface, so a new experiment is a data file, not a
//! PR: `iss run examples/scenarios/fig5.toml` reproduces Figure 5, and a
//! heterogeneous multiprogram mix on a quad-core no-L2 machine under the
//! sampled model is just another file.
//!
//! ```
//! use iss_sim::scenario::{parse_model, ScenarioSpec, SweepSpec};
//! use iss_sim::workload::WorkloadSpec;
//!
//! let mut sweep = SweepSpec::new(
//!     "demo",
//!     ScenarioSpec::new(WorkloadSpec::single("gcc", 5_000), 42),
//! );
//! sweep.benchmarks = vec!["gcc".into(), "mcf".into()];
//! sweep.models = vec![parse_model("detailed")?, parse_model("interval")?];
//! let records = sweep.run()?;
//! assert_eq!(records.len(), 4); // 2 benchmarks x 2 models
//! assert!(records[0].cpi() > 0.0);
//! # Ok::<(), String>(())
//! ```

pub mod jsonl;
pub mod machine;
pub mod modelspec;
pub mod record;
pub mod toml;
mod tomldoc;

pub use jsonl::{
    parse_record_line, parse_records_json, parse_records_jsonl, render_record_line,
    render_records_json, render_records_jsonl,
};
pub use machine::{MachineBaseline, MachineOverrides, MachineSpec};
pub use modelspec::{parse_base_model, parse_model};
pub use record::{fnv1a_hex, Record};

use crate::batch::{try_run_batch_with_threads, JobFailure, SimJob};
use crate::config::SystemConfig;
use crate::env::THREADS;
use crate::runner::CoreModel;
use crate::runner::SimSummary;
use crate::workload::WorkloadSpec;

/// One fully specified simulation point: what the machine is, what runs on
/// it, which timing model executes it, and the workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Full point label (`<sweep>/<group>/<variant>` for expanded points).
    pub name: String,
    /// Comparison-group key (see [`Record::group`]).
    pub group: String,
    /// Variant label within the group (see [`Record::variant`]).
    pub variant: String,
    /// The benchmark axis value, when the point came from a benchmark
    /// sweep.
    pub benchmark: Option<String>,
    /// Machine description.
    pub machine: MachineSpec,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Timing model.
    pub model: CoreModel,
    /// Workload generation seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A scenario on the paper's baseline machine under the interval model,
    /// with labels derived from the workload.
    #[must_use]
    pub fn new(workload: WorkloadSpec, seed: u64) -> Self {
        let label = workload.label();
        ScenarioSpec {
            name: label.clone(),
            group: label,
            variant: CoreModel::Interval.name(),
            benchmark: None,
            machine: MachineSpec::hpca2010(),
            workload,
            model: CoreModel::Interval,
            seed,
        }
    }

    /// The core count the machine resolves to for this scenario's workload.
    #[must_use]
    pub fn resolved_cores(&self) -> usize {
        self.machine.resolved_cores(self.workload.num_cores())
    }

    /// Validates the whole scenario at load time: the workload (benchmark
    /// names, non-zero sizes), the machine (including that an explicitly
    /// pinned machine core count matches the workload's — a mismatch fails
    /// *here*, not deep inside the runner), and the resolved configuration.
    ///
    /// # Errors
    ///
    /// Returns the first defect found, prefixed with the scenario name.
    pub fn validate(&self) -> Result<(), String> {
        let fail = |e: String| Err(format!("scenario `{}`: {e}", self.name));
        if let Err(e) = self.workload.validate() {
            return fail(e);
        }
        if let Some(pinned) = self.machine.cores {
            let needed = self.workload.num_cores();
            if pinned != needed {
                return fail(format!(
                    "workload `{}` occupies {needed} core(s) but the machine pins {pinned} — \
                     drop the machine `cores` key to derive it from the workload, or fix the \
                     workload shape",
                    self.workload.label()
                ));
            }
        }
        if let Err(e) = self.machine.resolve(self.resolved_cores()) {
            return fail(e);
        }
        Ok(())
    }

    /// Resolves the machine spec into a concrete configuration.
    ///
    /// # Errors
    ///
    /// Returns the machine resolution error, prefixed with the scenario
    /// name.
    pub fn resolved_config(&self) -> Result<SystemConfig, String> {
        self.machine
            .resolve(self.resolved_cores())
            .map_err(|e| format!("scenario `{}`: {e}", self.name))
    }

    /// FNV-1a digest of the resolved `(config, workload, model, seed)`
    /// point. Two scenarios with equal digests simulate the same thing,
    /// whatever spec text produced them.
    ///
    /// # Errors
    ///
    /// Returns the machine resolution error when the config cannot be
    /// resolved.
    pub fn digest(&self) -> Result<String, String> {
        let config = self.resolved_config()?;
        Ok(SimJob::new(self.model, config, self.workload.clone(), self.seed).digest())
    }

    /// Wraps a run summary of this scenario into a [`Record`] carrying the
    /// scenario's coordinates — the one lowering both the in-process sweep
    /// runner and the sharded child runner go through, so their rows are
    /// identical by construction.
    ///
    /// # Errors
    ///
    /// Returns the machine resolution error when the config digest cannot
    /// be computed.
    pub fn to_record(&self, sweep: &str, summary: SimSummary) -> Result<Record, String> {
        Ok(Record::from_summary(
            sweep,
            &self.group,
            &self.variant,
            self.benchmark.as_deref(),
            self.digest()?,
            self.seed,
            summary,
        ))
    }

    /// Lowers one batch outcome of this scenario into its [`Record`]: the
    /// simulated row on success ([`ScenarioSpec::to_record`]), the
    /// quarantined row on failure ([`Record::from_failure`]). The
    /// in-process sweep runner, the sharded child runner and `iss serve`
    /// all go through it.
    ///
    /// # Errors
    ///
    /// Returns the machine resolution error when the config digest cannot
    /// be computed.
    pub fn outcome_record(
        &self,
        sweep: &str,
        outcome: Result<SimSummary, JobFailure>,
    ) -> Result<Record, String> {
        match outcome {
            Ok(summary) => self.to_record(sweep, summary),
            Err(failure) => Ok(Record::from_failure(
                sweep,
                &self.group,
                &self.variant,
                self.benchmark.as_deref(),
                failure,
            )),
        }
    }

    /// Gives a stored record this scenario's coordinates. The result store
    /// keys records by point digest alone, so a record cached by another
    /// sweep (or another variant label of the same point) answers this one
    /// under this one's names.
    #[must_use]
    pub fn relabel(&self, sweep: &str, mut record: Record) -> Record {
        record.sweep = sweep.to_string();
        record.group.clone_from(&self.group);
        record.variant.clone_from(&self.variant);
        record.benchmark.clone_from(&self.benchmark);
        record
    }

    /// Lowers the scenario into a batch job.
    ///
    /// # Errors
    ///
    /// Returns the first validation error; a job is only produced for a
    /// scenario that passed [`ScenarioSpec::validate`].
    pub fn to_job(&self) -> Result<SimJob, String> {
        self.validate()?;
        Ok(SimJob::new(
            self.model,
            self.resolved_config()?,
            self.workload.clone(),
            self.seed,
        ))
    }
}

/// One variant template of a sweep: a complete scenario point that the
/// sweep's axes re-target per expansion step. Multi-template sweeps express
/// variant lists that are not cartesian (Figure 8's two design points, the
/// ablation's model/machine combinations).
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Explicit variant label; `None` labels the variant with the model
    /// name.
    pub variant: Option<String>,
    /// Machine description.
    pub machine: MachineSpec,
    /// Workload shape (benchmark/cores re-targeted by the axes).
    pub workload: WorkloadSpec,
    /// Timing model (overridden by the `models` axis when non-empty).
    pub model: CoreModel,
    /// Seed (overridden by the `seeds` axis when non-empty).
    pub seed: u64,
}

impl Template {
    /// Template with labels and machine defaults taken from a scenario.
    #[must_use]
    pub fn from_scenario(spec: &ScenarioSpec) -> Self {
        Template {
            variant: None,
            machine: spec.machine,
            workload: spec.workload.clone(),
            model: spec.model,
            seed: spec.seed,
        }
    }
}

/// A declarative sweep: one or more variant [`Template`]s crossed with
/// cartesian axes. Empty axes keep the template's own value; expansion
/// order is benchmark-major, then cores, then seeds, then templates, then
/// models — deterministic, so a sweep is a reproducible batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (becomes [`Record::sweep`]).
    pub name: String,
    /// Variant templates (at least one).
    pub templates: Vec<Template>,
    /// Benchmark axis: re-targets each template's workload benchmark.
    pub benchmarks: Vec<String>,
    /// Core-count axis: re-targets each template's workload width (copies
    /// or threads) and lets the machine core count follow.
    pub cores: Vec<usize>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Model axis: overrides each template's model.
    pub models: Vec<CoreModel>,
}

impl SweepSpec {
    /// A sweep with one template derived from `base` and no axes (expands
    /// to exactly the base point).
    #[must_use]
    pub fn new(name: &str, base: ScenarioSpec) -> Self {
        SweepSpec {
            name: name.to_string(),
            templates: vec![Template::from_scenario(&base)],
            benchmarks: Vec::new(),
            cores: Vec::new(),
            seeds: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Expands the axes and templates into fully specified scenarios, in
    /// deterministic order, validating every point.
    ///
    /// # Errors
    ///
    /// Returns the first structural or validation error (no templates, an
    /// axis that does not apply to a workload shape, an invalid point).
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        if self.name.trim().is_empty() {
            return Err("sweep name must be non-empty".to_string());
        }
        if self.templates.is_empty() {
            return Err(format!("sweep `{}` has no templates", self.name));
        }
        let benchmarks: Vec<Option<&str>> = if self.benchmarks.is_empty() {
            vec![None]
        } else {
            self.benchmarks.iter().map(|b| Some(b.as_str())).collect()
        };
        let cores: Vec<Option<usize>> = if self.cores.is_empty() {
            vec![None]
        } else {
            self.cores.iter().map(|&c| Some(c)).collect()
        };
        let seeds: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().map(|&s| Some(s)).collect()
        };
        let models: Vec<Option<CoreModel>> = if self.models.is_empty() {
            vec![None]
        } else {
            self.models.iter().map(|&m| Some(m)).collect()
        };

        let mut out = Vec::new();
        for &benchmark in &benchmarks {
            for &core_count in &cores {
                for &seed in &seeds {
                    for template in &self.templates {
                        for &model in &models {
                            out.push(self.point(template, benchmark, core_count, seed, model)?);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// One expanded point.
    fn point(
        &self,
        template: &Template,
        benchmark: Option<&str>,
        core_count: Option<usize>,
        seed: Option<u64>,
        model: Option<CoreModel>,
    ) -> Result<ScenarioSpec, String> {
        let mut workload = template.workload.clone();
        if let Some(b) = benchmark {
            workload = retarget_benchmark(&workload, b)
                .map_err(|e| format!("sweep `{}`: {e}", self.name))?;
        }
        let mut machine = template.machine;
        if let Some(n) = core_count {
            workload =
                retarget_cores(&workload, n).map_err(|e| format!("sweep `{}`: {e}", self.name))?;
            // The machine follows the workload width on a cores sweep.
            machine.cores = None;
        }
        let model = model.unwrap_or(template.model);
        let seed = seed.unwrap_or(template.seed);

        let mut group_parts: Vec<String> = Vec::new();
        if let Some(b) = benchmark {
            group_parts.push(b.to_string());
        }
        if let Some(n) = core_count {
            group_parts.push(format!("{n}c"));
        }
        if !self.seeds.is_empty() {
            group_parts.push(format!("s{seed}"));
        }
        let group = if group_parts.is_empty() {
            workload.label()
        } else {
            group_parts.join("/")
        };

        let variant = match (&template.variant, self.models.is_empty()) {
            (Some(v), false) => format!("{v}/{}", model.name()),
            (Some(v), true) => v.clone(),
            (None, _) => model.name(),
        };

        let spec = ScenarioSpec {
            name: format!("{}/{}/{}", self.name, group, variant),
            group,
            variant,
            benchmark: benchmark.map(str::to_string),
            machine,
            workload,
            model,
            seed,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Lowers the expanded sweep into a batch job list.
    ///
    /// # Errors
    ///
    /// Propagates expansion/validation errors.
    pub fn jobs(&self) -> Result<Vec<SimJob>, String> {
        self.expand()?.iter().map(ScenarioSpec::to_job).collect()
    }

    /// Runs the sweep on the configured worker count (`ISS_THREADS`,
    /// default: available parallelism) and returns one [`Record`] per
    /// expanded point, in expansion order.
    ///
    /// # Errors
    ///
    /// Propagates expansion/validation errors and a malformed
    /// `ISS_THREADS` value (see [`THREADS`]); simulation
    /// panics inside a job surface as panics (they indicate bugs, not bad
    /// specs — every spec-level defect is caught by validation first).
    pub fn run(&self) -> Result<Vec<Record>, String> {
        self.run_with_threads(THREADS.try_get()?)
    }

    /// [`SweepSpec::run`] on an explicit worker count. The frontier sweeps
    /// use one worker so their wall-clock speedup columns are not
    /// contaminated by host contention between concurrent jobs.
    ///
    /// A job that panics does **not** abort the sweep: it is reported as a
    /// quarantined row ([`Record::from_failure`]) and every other job still
    /// completes — the figure drivers print the quarantined row instead of
    /// re-raising the first panic.
    ///
    /// # Errors
    ///
    /// Propagates expansion/validation errors.
    pub fn run_with_threads(&self, threads: usize) -> Result<Vec<Record>, String> {
        self.run_points(&self.expand()?, threads)
    }

    /// [`SweepSpec::run_with_threads`] over points the caller has already
    /// expanded with [`SweepSpec::expand`], so a caller that needs the
    /// points for its own views expands the sweep once.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn run_points(
        &self,
        points: &[ScenarioSpec],
        threads: usize,
    ) -> Result<Vec<Record>, String> {
        let jobs = points
            .iter()
            .map(ScenarioSpec::to_job)
            .collect::<Result<Vec<_>, _>>()?;
        let outcomes = try_run_batch_with_threads(&jobs, threads);
        points
            .iter()
            .zip(outcomes)
            .map(|(point, outcome)| point.outcome_record(&self.name, outcome))
            .collect()
    }
}

/// Replaces the benchmark of a workload shape (the benchmark sweep axis).
///
/// # Errors
///
/// Heterogeneous multiprogram workloads carry one benchmark per core, so a
/// single-benchmark axis cannot re-target them.
fn retarget_benchmark(workload: &WorkloadSpec, benchmark: &str) -> Result<WorkloadSpec, String> {
    match workload {
        WorkloadSpec::Single { length, .. } => Ok(WorkloadSpec::single(benchmark, *length)),
        WorkloadSpec::MultiprogramHomogeneous {
            copies,
            length_per_copy,
            ..
        } => Ok(WorkloadSpec::homogeneous(
            benchmark,
            *copies,
            *length_per_copy,
        )),
        WorkloadSpec::Multithreaded {
            threads,
            total_length,
            ..
        } => Ok(WorkloadSpec::multithreaded(
            benchmark,
            *threads,
            *total_length,
        )),
        WorkloadSpec::Multiprogram { .. } => Err(
            "a benchmarks axis cannot re-target a heterogeneous multiprogram workload \
             (it names one benchmark per core); list explicit scenarios instead"
                .to_string(),
        ),
    }
}

/// Replaces the width (copies/threads) of a workload shape (the cores
/// sweep axis).
///
/// # Errors
///
/// Single-threaded and heterogeneous multiprogram workloads have no
/// sweepable width.
fn retarget_cores(workload: &WorkloadSpec, cores: usize) -> Result<WorkloadSpec, String> {
    match workload {
        WorkloadSpec::MultiprogramHomogeneous {
            benchmark,
            length_per_copy,
            ..
        } => Ok(WorkloadSpec::homogeneous(
            benchmark,
            cores,
            *length_per_copy,
        )),
        WorkloadSpec::Multithreaded {
            benchmark,
            total_length,
            ..
        } => Ok(WorkloadSpec::multithreaded(benchmark, cores, *total_length)),
        WorkloadSpec::Single { .. } => Err(
            "a cores axis cannot re-target a single-threaded workload; use a homogeneous \
             or multithreaded shape"
                .to_string(),
        ),
        WorkloadSpec::Multiprogram { .. } => Err(
            "a cores axis cannot re-target a heterogeneous multiprogram workload \
             (its core count is its benchmark list); list explicit scenarios instead"
                .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::BaseModel;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(WorkloadSpec::single("gcc", 3_000), 7)
    }

    #[test]
    fn a_bare_sweep_expands_to_its_base_point() {
        let sweep = SweepSpec::new("one", base());
        let points = sweep.expand().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].name, "one/gcc/interval");
        assert_eq!(points[0].group, "gcc");
        assert_eq!(points[0].variant, "interval");
    }

    #[test]
    fn axes_expand_benchmark_major_with_models_innermost() {
        let mut sweep = SweepSpec::new("acc", base());
        sweep.benchmarks = vec!["gcc".into(), "mcf".into()];
        sweep.models = vec![CoreModel::Detailed, CoreModel::Interval];
        let points = sweep.expand().unwrap();
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "acc/gcc/detailed",
                "acc/gcc/interval",
                "acc/mcf/detailed",
                "acc/mcf/interval"
            ]
        );
    }

    #[test]
    fn cores_axis_re_targets_homogeneous_width_and_machine() {
        let mut sweep = SweepSpec::new(
            "mp",
            ScenarioSpec::new(WorkloadSpec::homogeneous("mcf", 1, 2_000), 7),
        );
        sweep.cores = vec![1, 2];
        let points = sweep.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].group, "1c");
        assert_eq!(points[1].group, "2c");
        assert_eq!(points[1].workload.num_cores(), 2);
        assert_eq!(points[1].resolved_cores(), 2);
    }

    #[test]
    fn cores_axis_on_a_single_threaded_workload_is_an_error() {
        let mut sweep = SweepSpec::new("bad", base());
        sweep.cores = vec![1, 2];
        let e = sweep.expand().unwrap_err();
        assert!(e.contains("cores axis"), "got: {e}");
    }

    #[test]
    fn benchmark_axis_on_heterogeneous_multiprogram_is_an_error() {
        let mut sweep = SweepSpec::new(
            "bad",
            ScenarioSpec::new(
                WorkloadSpec::Multiprogram {
                    benchmarks: vec!["gcc".into(), "mcf".into()],
                    length_per_copy: 1_000,
                },
                7,
            ),
        );
        sweep.benchmarks = vec!["gcc".into()];
        let e = sweep.expand().unwrap_err();
        assert!(e.contains("benchmarks axis"), "got: {e}");
    }

    #[test]
    fn named_templates_label_variants() {
        let mut sweep = SweepSpec::new("fig8ish", base());
        let mut quad = Template::from_scenario(&base());
        quad.variant = Some("quad".into());
        quad.machine = MachineSpec::fig8_quad_core_3d();
        quad.workload = WorkloadSpec::multithreaded("vips", 4, 8_000);
        sweep.templates[0].variant = Some("dual".into());
        sweep.templates[0].machine = MachineSpec::fig8_dual_core_l2();
        sweep.templates[0].workload = WorkloadSpec::multithreaded("vips", 2, 8_000);
        sweep.templates.push(quad);
        sweep.models = vec![CoreModel::Detailed, CoreModel::Interval];
        let points = sweep.expand().unwrap();
        let variants: Vec<&str> = points.iter().map(|p| p.variant.as_str()).collect();
        assert_eq!(
            variants,
            [
                "dual/detailed",
                "dual/interval",
                "quad/detailed",
                "quad/interval"
            ]
        );
        assert_eq!(points[2].resolved_cores(), 4);
    }

    #[test]
    fn core_count_mismatch_fails_at_spec_load_time() {
        let mut spec = base();
        spec.machine = spec.machine.with_cores(4);
        let e = spec.validate().unwrap_err();
        assert!(
            e.contains("occupies 1 core(s) but the machine pins 4"),
            "got: {e}"
        );
        // The same defect through a sweep fails at expansion, i.e. still
        // before any simulation starts.
        let sweep = SweepSpec::new("bad", spec);
        assert!(sweep.expand().is_err());
    }

    #[test]
    fn run_produces_one_record_per_point_with_digests() {
        let mut sweep = SweepSpec::new("small", base());
        sweep.models = vec![CoreModel::Detailed, CoreModel::Interval];
        let records = sweep.run_with_threads(2).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].variant, "detailed");
        assert_eq!(records[1].variant, "interval");
        assert_ne!(records[0].digest, records[1].digest);
        assert!(records.iter().all(|r| r.cpi() > 0.0));
        assert!(records.iter().all(|r| r.sweep == "small"));
    }

    #[test]
    fn seed_axis_appears_in_the_group() {
        let mut sweep = SweepSpec::new("seeds", base());
        sweep.seeds = vec![1, 2];
        let points = sweep.expand().unwrap();
        assert_eq!(points[0].group, "s1");
        assert_eq!(points[1].group, "s2");
        assert_eq!(points[0].seed, 1);
    }

    #[test]
    fn digests_identify_identical_simulations() {
        let a = base();
        let mut b = base();
        b.name = "renamed".into();
        b.variant = "other".into();
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());
        let mut c = base();
        c.seed = 8;
        assert_ne!(a.digest().unwrap(), c.digest().unwrap());
    }

    #[test]
    fn hybrid_and_sampled_models_run_through_the_engine() {
        let mut sweep = SweepSpec::new("models", base());
        sweep.models = vec![
            CoreModel::Detailed,
            CoreModel::Hybrid(crate::hybrid::HybridSpec::always(BaseModel::Interval, 500)),
            CoreModel::Sampled(crate::sampling::SamplingSpec::new(
                BaseModel::Detailed,
                300,
                3,
                50,
                2,
            )),
        ];
        let records = sweep.run_with_threads(1).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[2].sampling.is_some());
        assert!(records[2].ci95_half_width().is_some());
    }
}
