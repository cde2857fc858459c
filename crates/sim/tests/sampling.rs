//! Integration tests of the sampled-simulation subsystem: worker-count
//! bit-identity, confidence-interval calibration across seeds, degeneration
//! to the pure measurement model, and the speed-vs-error-vs-confidence
//! acceptance frontier.

use iss_sim::batch::try_run_batch_with_threads;
use iss_sim::experiments::{builtin, default_sampling_specs, ExperimentScale};
use iss_sim::runner::{run, BaseModel, CoreModel, SimSummary};
use iss_sim::sampling::SamplingSpec;
use iss_sim::{SimJob, SystemConfig, WorkloadSpec};

/// Runs the batch and unwraps every slot.
fn run_all(jobs: &[SimJob], threads: usize) -> Vec<SimSummary> {
    try_run_batch_with_threads(jobs, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

const SPEC_QUICK: [&str; 6] = ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"];

/// Sampled rows are bit-identical whether the batch engine runs them on one
/// worker or four: everything a sampled run decides is driven by simulated
/// state, and the canonical record includes the full statistical estimate.
#[test]
fn sampled_rows_are_bit_identical_across_worker_counts() {
    let config = SystemConfig::hpca2010_baseline(1);
    let scale = ExperimentScale::quick();
    let jobs: Vec<SimJob> = default_sampling_specs(scale)
        .into_iter()
        .flat_map(|spec| {
            ["gcc", "mcf"].into_iter().map(move |b| {
                SimJob::new(
                    CoreModel::Sampled(spec),
                    config,
                    WorkloadSpec::single(b, 30_000),
                    scale.seed,
                )
            })
        })
        .collect();
    let serial = run_all(&jobs, 1);
    let parallel = run_all(&jobs, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.canonical_record(), p.canonical_record());
        assert!(s.sampling.is_some(), "sampled rows carry their estimate");
    }
}

/// The reported 95% interval is calibrated: across ten seeded quick-scale
/// runs it brackets the true full-run CPI (measured by pure detailed
/// simulation of the same workload) at least nine times.
#[test]
fn confidence_interval_brackets_the_true_cpi_on_most_seeds() {
    let config = SystemConfig::hpca2010_baseline(1);
    // Dense-detailed spec: enough steady samples at 20k instructions for a
    // meaningful (finite) interval.
    let spec = SamplingSpec::new(BaseModel::Detailed, 500, 4, 100, 4);
    let mut bracketed = 0;
    for seed in 0..10u64 {
        let workload = WorkloadSpec::single("twolf", 20_000);
        let truth = run(CoreModel::Detailed, &config, &workload, seed);
        let true_cpi = truth.cycles as f64 / truth.total_instructions as f64;
        let sampled = run(CoreModel::Sampled(spec), &config, &workload, seed);
        let est = sampled.sampling.expect("sampled run carries an estimate");
        assert!(
            est.ci95_half_width.is_finite() && est.ci95_half_width > 0.0,
            "seed {seed}: the interval must be finite and non-trivial"
        );
        if est.brackets(true_cpi) {
            bracketed += 1;
        }
    }
    assert!(
        bracketed >= 9,
        "95% interval bracketed the true CPI on only {bracketed}/10 seeds"
    );
}

/// With `sample_every = 1` and no warmup exclusion, every unit is measured
/// on the timing model and the machine never leaves it — the sampled run
/// degenerates to the pure measurement model, cycle for cycle.
#[test]
fn sample_every_one_degenerates_to_the_pure_measurement_model() {
    let config = SystemConfig::hpca2010_baseline(1);
    for measure in [BaseModel::Interval, BaseModel::Detailed] {
        let spec = SamplingSpec::new(measure, 1_000, 1, 0, 2);
        let workload = WorkloadSpec::single("gzip", 12_000);
        let pure = run(measure.into(), &config, &workload, 7);
        let sampled = run(CoreModel::Sampled(spec), &config, &workload, 7);
        assert_eq!(
            sampled.cycles,
            pure.cycles,
            "{}: fully measured run must reproduce the pure model exactly",
            measure.name()
        );
        assert_eq!(sampled.per_core, pure.per_core);
        assert_eq!(sampled.total_instructions, pure.total_instructions);
        assert_eq!(sampled.memory, pure.memory);
        let est = sampled.sampling.expect("estimate present");
        assert_eq!(
            est.units_measured + u64::from(spec.prefix_units),
            est.units_total
        );
    }
}

/// The acceptance frontier at quick scale: the default sweep's sparse
/// detailed-measurement point averages ≤ 5% CPI error over the SPEC quick
/// subset while running several times faster than pure detailed in host
/// wall-clock, every row reports a finite 95% confidence interval, and the
/// interval brackets the pure-detailed CPI on most rows. (The wall-clock
/// threshold asserted here is 2.3×, about 0.8 of the 2.8–3.1× that
/// min-of-3 re-timings measure in a debug build, so a loaded CI host does
/// not flake the build.)
#[test]
fn frontier_has_a_fast_point_within_5_percent_average_error() {
    let scale = ExperimentScale::quick();
    let specs = default_sampling_specs(scale);
    let acceptance = specs[0];
    assert_eq!(acceptance.measure, BaseModel::Detailed);
    let mut sweep = builtin("sampling", scale).unwrap();
    sweep.models.truncate(2); // the detailed and interval references
    sweep.models.push(CoreModel::Sampled(acceptance));
    assert_eq!(sweep.benchmarks, SPEC_QUICK);
    let records = sweep.run_with_threads(1).unwrap();
    // Per benchmark: detailed + interval references and the sampled point.
    assert_eq!(records.len(), SPEC_QUICK.len() * 3);
    let rows: Vec<(&iss_sim::Record, &iss_sim::Record)> = iss_sim::report::groups(&records)
        .into_iter()
        .map(|group| {
            let detailed = group.variant("detailed").expect("reference per group");
            let sampled = *group
                .records
                .iter()
                .find(|r| r.sampling.is_some())
                .expect("sampled point per group");
            (sampled, detailed)
        })
        .collect();
    assert_eq!(rows.len(), SPEC_QUICK.len());
    let n = rows.len() as f64;
    let avg_err = rows.iter().map(|(s, d)| s.cpi_error_vs(d)).sum::<f64>() / n;
    let avg_speedup = rows.iter().map(|(s, d)| s.speedup_vs(d)).sum::<f64>() / n;
    let brackets = rows.iter().filter(|(s, d)| s.ci_brackets(d.cpi())).count();
    for (s, _) in &rows {
        let est = s.sampling.as_ref().expect("sampled row");
        assert!(
            est.ci95_half_width.is_finite() && est.ci95_half_width > 0.0,
            "{}: every row must report a usable 95% interval",
            s.group
        );
        assert!(est.units_measured >= 3, "{}: too few samples", s.group);
    }
    assert!(
        avg_err <= 0.05,
        "average CPI error {:.1}% exceeds 5%",
        avg_err * 100.0
    );
    assert!(
        avg_speedup >= 2.3,
        "average speedup {avg_speedup:.1}x below the 2.3x floor"
    );
    assert!(
        brackets * 10 >= rows.len() * 8,
        "interval bracketed detailed CPI on only {brackets}/{} rows",
        rows.len()
    );
}
