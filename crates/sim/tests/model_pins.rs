//! Record pins for every base model on single-core, multi-threaded and
//! multi-program workloads.
//!
//! The golden accuracy file covers single-core interval and detailed runs
//! only. These digests pin the canonical records of the one-IPC model, of
//! multi-core runs, of every cross-model warm restore, of a mid-run summary
//! and of hybrid and sampled runs, so that a refactoring of the multi-core
//! driver or of the checkpoint path that changes any simulated number fails
//! here.

use iss_sim::model::{AnyMachine, CpuModel};
use iss_sim::runner::{run, BaseModel, CoreModel};
use iss_sim::scenario::fnv1a_hex;
use iss_sim::{run_sampled_with_batch, HybridSpec, SamplingSpec, SystemConfig, WorkloadSpec};

const MODELS: [BaseModel; 3] = [BaseModel::Interval, BaseModel::Detailed, BaseModel::OneIpc];

const SEED: u64 = 17;

fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::single("gcc", 12_000),
        WorkloadSpec::multithreaded("fluidanimate", 4, 24_000),
        WorkloadSpec::Multiprogram {
            benchmarks: ["gcc", "mcf", "gzip", "swim"]
                .iter()
                .map(ToString::to_string)
                .collect(),
            length_per_copy: 5_000,
        },
    ]
}

fn build(kind: BaseModel, spec: &WorkloadSpec) -> (SystemConfig, AnyMachine) {
    let config = SystemConfig::hpca2010_baseline(spec.num_cores());
    let machine = AnyMachine::build(kind, &config, spec.build(SEED).unwrap());
    (config, machine)
}

/// Compares `(name, digest)` rows against the pinned table and reports every
/// row at once, so a deliberate model change can refresh the table in one go.
fn check(actual: &[(String, String)], pinned: &[(&str, &str)]) {
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, digest)| format!("(\"{name}\", \"{digest}\"),"))
        .collect();
    let matches = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((n, d), (pn, pd))| n == pn && d == pd);
    assert!(
        matches,
        "pinned digests differ; actual:\n{}",
        rendered.join("\n")
    );
}

/// Every model runs every workload to completion.
#[test]
fn complete_runs_are_pinned() {
    let mut actual = Vec::new();
    for spec in workloads() {
        for kind in MODELS {
            let (_, mut machine) = build(kind, &spec);
            machine.run_to_completion();
            let record = machine
                .summary(kind.into(), spec.label())
                .canonical_record();
            actual.push((
                format!("{}/{}", kind.name(), spec.label()),
                fnv1a_hex(&record),
            ));
        }
    }
    check(
        &actual,
        &[
            ("interval/gcc", "6222962cb745f393"),
            ("detailed/gcc", "6e21f315b6bdba6b"),
            ("one-ipc/gcc", "28a0629c0fc388cb"),
            ("interval/fluidanimate.4t", "2a497c1eab013fa2"),
            ("detailed/fluidanimate.4t", "becffb7bfa64a849"),
            ("one-ipc/fluidanimate.4t", "7bb347607606a890"),
            ("interval/gcc+mcf+gzip+swim", "5ec2b6e799c25eec"),
            ("detailed/gcc+mcf+gzip+swim", "a71e83b3e816217e"),
            ("one-ipc/gcc+mcf+gzip+swim", "45acc1e2e24e4e25"),
        ],
    );
}

/// Every `(from, to)` pair: step mid-run, extract a lean checkpoint by
/// consuming the machine, restore into `to`, and finish. The resume points
/// each model hands over (machine clock, per-core clocks and counters) are
/// pinned on their own as well.
#[test]
fn warm_restores_are_pinned() {
    let spec = WorkloadSpec::multithreaded("fluidanimate", 4, 24_000);
    let mut actual = Vec::new();
    for from in MODELS {
        for to in MODELS {
            let (config, mut machine) = build(from, &spec);
            machine.step_interval(9_000);
            let ckpt = machine.into_lean_checkpoint();
            if to == from {
                let resume = format!("{};{:?}", ckpt.machine_time, ckpt.per_core);
                actual.push((format!("{}@9000 resume", from.name()), fnv1a_hex(&resume)));
            }
            let mut incoming = AnyMachine::restore(to, &config, ckpt);
            incoming.run_to_completion();
            let record = incoming.summary(to.into(), spec.label()).canonical_record();
            actual.push((
                format!("{}->{}", from.name(), to.name()),
                fnv1a_hex(&record),
            ));
        }
    }
    check(
        &actual,
        &[
            ("interval@9000 resume", "1b110063d8454d1b"),
            ("interval->interval", "7d79bc272bf4d60f"),
            ("interval->detailed", "e51ce3e4c70376c2"),
            ("interval->one-ipc", "820bcc9612095c0b"),
            ("detailed->interval", "fa007c8e77b9524b"),
            ("detailed@9000 resume", "ad765a173b09b7a4"),
            ("detailed->detailed", "5a7fe9f7fc2ac4a2"),
            ("detailed->one-ipc", "f144b9e28098004d"),
            ("one-ipc->interval", "9d23fa686079bbb8"),
            ("one-ipc->detailed", "2022f32e6a421487"),
            ("one-ipc@9000 resume", "9c230ba02b058924"),
            ("one-ipc->one-ipc", "7bb347607606a890"),
        ],
    );
}

/// Summaries taken mid-run, while cores are still unfinished: each model
/// reports an unfinished core's cycles by its own clock.
#[test]
fn mid_run_summaries_are_pinned() {
    let mut actual = Vec::new();
    for spec in workloads() {
        for kind in MODELS {
            let (_, mut machine) = build(kind, &spec);
            machine.step_interval(4_000);
            assert!(!machine.is_done());
            let record = machine
                .summary(kind.into(), spec.label())
                .canonical_record();
            actual.push((
                format!("{}@4000/{}", kind.name(), spec.label()),
                fnv1a_hex(&record),
            ));
        }
    }
    check(
        &actual,
        &[
            ("interval@4000/gcc", "3d0794ddf3c1f71c"),
            ("detailed@4000/gcc", "9685895eed4b5e8b"),
            ("one-ipc@4000/gcc", "1c4ffe97fd836c88"),
            ("interval@4000/fluidanimate.4t", "bd1392864556f598"),
            ("detailed@4000/fluidanimate.4t", "beaf0b0e234d4135"),
            ("one-ipc@4000/fluidanimate.4t", "5e103460a589a7e3"),
            ("interval@4000/gcc+mcf+gzip+swim", "249f9974e9ac05e7"),
            ("detailed@4000/gcc+mcf+gzip+swim", "4889fcef4c68831a"),
            ("one-ipc@4000/gcc+mcf+gzip+swim", "fa676f0fc67e7c1f"),
        ],
    );
}

/// Hybrid runs under the pinned, periodic and phase-driven policies, and
/// sampled runs measured on each base model (one without an exact prefix)
/// at the scalar and the default warming batch, which must agree.
#[test]
fn hybrid_and_sampled_runs_are_pinned() {
    let hybrids = [
        HybridSpec::always(BaseModel::Interval, 2_000),
        HybridSpec::always(BaseModel::Detailed, 2_000),
        HybridSpec::always(BaseModel::OneIpc, 2_000),
        HybridSpec::periodic(4, 2_000),
        HybridSpec::periodic(1, 2_000),
        HybridSpec::phase_cpi(200, 1_500),
    ];
    let sampled = [
        SamplingSpec::new(BaseModel::Detailed, 1_000, 4, 200, 2),
        SamplingSpec::new(BaseModel::Interval, 1_000, 3, 100, 0),
        SamplingSpec::new(BaseModel::OneIpc, 800, 5, 100, 1),
    ];
    let mut actual = Vec::new();
    for spec in workloads() {
        let config = SystemConfig::hpca2010_baseline(spec.num_cores());
        for hybrid in hybrids {
            let record = run(CoreModel::Hybrid(hybrid), &config, &spec, SEED).canonical_record();
            actual.push((
                format!("{}/{}", hybrid.label(), spec.label()),
                fnv1a_hex(&record),
            ));
        }
        for sampling in sampled {
            for batch in [1, 64] {
                let built = spec.build(SEED).unwrap();
                let record = run_sampled_with_batch(sampling, &config, built, spec.label(), batch)
                    .canonical_record();
                actual.push((
                    format!("{}/{}/batch{batch}", sampling.label(), spec.label()),
                    fnv1a_hex(&record),
                ));
            }
        }
    }
    check(
        &actual,
        &[
            ("always-interval@2000/gcc", "ab293efa31ccdeb4"),
            ("always-detailed@2000/gcc", "00569ed501c8d992"),
            ("always-one-ipc@2000/gcc", "0f84aaca34ca221c"),
            ("periodic-4@2000/gcc", "f5ad6c5148d7d996"),
            ("periodic-1@2000/gcc", "d0b04587687038c3"),
            ("phase-cpi-200@1500/gcc", "32df200a31f26e88"),
            (
                "sampled-detailed-1in4@1000w200p2/gcc/batch1",
                "7c4df0c4d170286c",
            ),
            (
                "sampled-detailed-1in4@1000w200p2/gcc/batch64",
                "7c4df0c4d170286c",
            ),
            (
                "sampled-interval-1in3@1000w100p0/gcc/batch1",
                "266b27d2b7f72c0d",
            ),
            (
                "sampled-interval-1in3@1000w100p0/gcc/batch64",
                "266b27d2b7f72c0d",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/gcc/batch1",
                "a184f559c23134dc",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/gcc/batch64",
                "a184f559c23134dc",
            ),
            ("always-interval@2000/fluidanimate.4t", "23f07e7eeae08285"),
            ("always-detailed@2000/fluidanimate.4t", "68a4e3c1eac069c0"),
            ("always-one-ipc@2000/fluidanimate.4t", "7104090709551711"),
            ("periodic-4@2000/fluidanimate.4t", "fa7363b78750470c"),
            ("periodic-1@2000/fluidanimate.4t", "4f902741b97f00e1"),
            ("phase-cpi-200@1500/fluidanimate.4t", "bb42370b76dd06af"),
            (
                "sampled-detailed-1in4@1000w200p2/fluidanimate.4t/batch1",
                "612852dd2df9ad90",
            ),
            (
                "sampled-detailed-1in4@1000w200p2/fluidanimate.4t/batch64",
                "612852dd2df9ad90",
            ),
            (
                "sampled-interval-1in3@1000w100p0/fluidanimate.4t/batch1",
                "8f0946fc3793bdea",
            ),
            (
                "sampled-interval-1in3@1000w100p0/fluidanimate.4t/batch64",
                "8f0946fc3793bdea",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/fluidanimate.4t/batch1",
                "2d24040eb294b587",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/fluidanimate.4t/batch64",
                "2d24040eb294b587",
            ),
            ("always-interval@2000/gcc+mcf+gzip+swim", "6ee071448d09ec37"),
            ("always-detailed@2000/gcc+mcf+gzip+swim", "cc810db19c81faf7"),
            ("always-one-ipc@2000/gcc+mcf+gzip+swim", "d93f125769a57f0e"),
            ("periodic-4@2000/gcc+mcf+gzip+swim", "77ec9e9f32049d89"),
            ("periodic-1@2000/gcc+mcf+gzip+swim", "5a0525e3712dcd86"),
            ("phase-cpi-200@1500/gcc+mcf+gzip+swim", "e52c8974e153f556"),
            (
                "sampled-detailed-1in4@1000w200p2/gcc+mcf+gzip+swim/batch1",
                "16d2b7ad3eeeea2d",
            ),
            (
                "sampled-detailed-1in4@1000w200p2/gcc+mcf+gzip+swim/batch64",
                "16d2b7ad3eeeea2d",
            ),
            (
                "sampled-interval-1in3@1000w100p0/gcc+mcf+gzip+swim/batch1",
                "816996ab65d81475",
            ),
            (
                "sampled-interval-1in3@1000w100p0/gcc+mcf+gzip+swim/batch64",
                "816996ab65d81475",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/gcc+mcf+gzip+swim/batch1",
                "297977a3a15bdecc",
            ),
            (
                "sampled-one-ipc-1in5@800w100p1/gcc+mcf+gzip+swim/batch64",
                "297977a3a15bdecc",
            ),
        ],
    );
}
