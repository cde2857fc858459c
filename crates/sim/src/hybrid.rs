//! Hybrid model-swapping simulation.
//!
//! The interval paper's thesis is that abstraction level trades timing
//! fidelity for simulated MIPS. This module turns that dial *during* a run,
//! in the spirit of online model swapping (Lavin et al.) and phase-aware
//! interval selection (Bueno et al.): a [`SwapController`] watches
//! per-interval CPI and DRAM-traffic phase signals and swaps the active
//! [`CpuModel`] at interval boundaries. The incoming model is warmed from a
//! [`ModelCheckpoint`](crate::model::ModelCheckpoint) — stream position,
//! branch-predictor tables, cache/TLB/DRAM state, synchronization state and
//! per-core clocks all carry over — so accuracy degrades gracefully while
//! the cheap intervals buy wall-clock speed.
//!
//! Everything a swap decision reads is *simulated* state, never host time,
//! so hybrid runs are exactly as deterministic as plain runs: the same
//! `(spec, config, workload, seed)` point produces bit-identical canonical
//! records at any `ISS_THREADS`.

use iss_trace::host_time::HostTimer;

use iss_trace::ThreadedWorkload;

use crate::config::SystemConfig;
use crate::model::{AnyMachine, CpuModel};
use crate::runner::{BaseModel, CoreModel, SimSummary};

/// When the swap controller picks the next interval's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapPolicy {
    /// Pin one base model for the whole run (the trivial policies; pinning
    /// the interval model reproduces a plain interval run bit for bit).
    Always(BaseModel),
    /// Run the detailed model when the phase signals move by more than
    /// `threshold_permille`/1000 relative to the previous interval of the
    /// same model, the interval model otherwise. Phase transitions are
    /// re-calibrated at full fidelity; stable phases run cheap.
    PhaseCpi {
        /// Relative CPI / miss-traffic change (in 1/1000) that counts as a
        /// phase transition.
        threshold_permille: u32,
    },
    /// Sample at full fidelity: every `detailed_every`-th interval (starting
    /// with the first) runs detailed, the rest run interval.
    Periodic {
        /// Period of the detailed sampling intervals.
        detailed_every: u32,
    },
}

impl SwapPolicy {
    /// Stable label used in report rows and golden files.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            SwapPolicy::Always(kind) => format!("always-{}", kind.name()),
            SwapPolicy::PhaseCpi { threshold_permille } => {
                format!("phase-cpi-{threshold_permille}")
            }
            SwapPolicy::Periodic { detailed_every } => format!("periodic-{detailed_every}"),
        }
    }
}

/// Complete description of a hybrid run: the swap policy and the interval
/// quantum (instructions per swap-decision window, chip-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridSpec {
    /// The swap policy.
    pub policy: SwapPolicy,
    /// Instructions per interval between swap decisions.
    pub interval_insts: u64,
}

impl HybridSpec {
    /// Pins `kind` for the whole run.
    #[must_use]
    pub fn always(kind: BaseModel, interval_insts: u64) -> Self {
        HybridSpec {
            policy: SwapPolicy::Always(kind),
            interval_insts,
        }
    }

    /// Detailed sampling every `detailed_every` intervals.
    #[must_use]
    pub fn periodic(detailed_every: u32, interval_insts: u64) -> Self {
        HybridSpec {
            policy: SwapPolicy::Periodic { detailed_every },
            interval_insts,
        }
    }

    /// Phase-transition detection at `threshold_permille`/1000 relative
    /// signal change.
    #[must_use]
    pub fn phase_cpi(threshold_permille: u32, interval_insts: u64) -> Self {
        HybridSpec {
            policy: SwapPolicy::PhaseCpi { threshold_permille },
            interval_insts,
        }
    }

    /// Stable label (`<policy>@<interval>`), used in model names.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}", self.policy.label(), self.interval_insts)
    }

    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the interval quantum or the periodic policy's
    /// period is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval_insts == 0 {
            return Err("hybrid interval quantum must be non-zero".to_string());
        }
        if self.policy == (SwapPolicy::Periodic { detailed_every: 0 }) {
            return Err("periodic period must be at least 1".to_string());
        }
        Ok(())
    }
}

/// The per-interval observables a swap decision reads. Both are ratios of
/// simulated quantities, so they are deterministic and model-comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSignal {
    /// Cycles per instruction over the interval just completed.
    pub cpi: f64,
    /// DRAM transactions per kilo-instruction over the interval.
    pub dram_pki: f64,
}

fn relative_change(now: f64, before: f64) -> f64 {
    if before.abs() < 1e-12 {
        if now.abs() < 1e-12 {
            0.0
        } else {
            1.0
        }
    } else {
        (now - before).abs() / before.abs()
    }
}

/// Decides which base model runs each interval, from the policy and the
/// phase-signal history.
#[derive(Debug, Clone)]
pub struct SwapController {
    spec: HybridSpec,
    /// Completed intervals so far.
    intervals: u64,
    /// Last observed signal per base model (phase comparisons are only
    /// meaningful within one model — CPI measured by different models
    /// differs systematically, and reading that as a phase change would
    /// thrash the swapper).
    last_signal: [Option<PhaseSignal>; 3],
    /// Swaps performed so far.
    swaps: u64,
}

impl SwapController {
    /// Creates a controller for `spec`.
    #[must_use]
    pub fn new(spec: HybridSpec) -> Self {
        SwapController {
            spec,
            intervals: 0,
            last_signal: [None; 3],
            swaps: 0,
        }
    }

    /// The model the run starts under (interval 0's decision).
    #[must_use]
    pub fn initial_model(&self) -> BaseModel {
        match self.spec.policy {
            SwapPolicy::Always(kind) => kind,
            // Periodic sampling fronts a detailed interval so the cheap
            // intervals that follow have a calibrated reference.
            SwapPolicy::Periodic { .. } => BaseModel::Detailed,
            SwapPolicy::PhaseCpi { .. } => BaseModel::Interval,
        }
    }

    /// Number of swaps decided so far.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Records the signal of the interval that just completed under
    /// `current` and returns the model for the next interval.
    pub fn decide(&mut self, current: BaseModel, signal: PhaseSignal) -> BaseModel {
        self.intervals += 1;
        let next = match self.spec.policy {
            SwapPolicy::Always(kind) => kind,
            SwapPolicy::Periodic { detailed_every } => {
                if self
                    .intervals
                    .is_multiple_of(u64::from(detailed_every.max(1)))
                {
                    BaseModel::Detailed
                } else {
                    BaseModel::Interval
                }
            }
            SwapPolicy::PhaseCpi { threshold_permille } => {
                let threshold = f64::from(threshold_permille) / 1000.0;
                let unstable = match self.last_signal[current.index()] {
                    None => false,
                    Some(prev) => {
                        relative_change(signal.cpi, prev.cpi) > threshold
                            || relative_change(signal.dram_pki, prev.dram_pki) > threshold
                    }
                };
                if unstable {
                    BaseModel::Detailed
                } else {
                    BaseModel::Interval
                }
            }
        };
        self.last_signal[current.index()] = Some(signal);
        if next != current {
            self.swaps += 1;
        }
        next
    }
}

/// Runs `workload` under the hybrid spec and returns the model-independent
/// summary (tagged `CoreModel::Hybrid(spec)`, with the swap count recorded).
///
/// # Panics
///
/// Panics when the spec is invalid (see [`HybridSpec::validate`]).
#[must_use]
pub fn run_hybrid(
    spec: HybridSpec,
    config: &SystemConfig,
    workload: ThreadedWorkload,
    label: String,
) -> SimSummary {
    spec.validate()
        .unwrap_or_else(|e| panic!("invalid hybrid spec: {e}"));
    let start = HostTimer::start();
    let mut controller = SwapController::new(spec);
    let mut machine = AnyMachine::build(controller.initial_model(), config, workload);
    while !machine.is_done() {
        let time_before = machine.machine_time();
        let insts_before = machine.retired_instructions();
        let dram_before = machine.memory_stats().dram_transactions;
        machine.step_interval(spec.interval_insts);
        if machine.is_done() {
            break;
        }
        let cycles = (machine.machine_time() - time_before).max(1) as f64;
        let insts = (machine.retired_instructions() - insts_before).max(1) as f64;
        let dram = (machine.memory_stats().dram_transactions - dram_before) as f64;
        let signal = PhaseSignal {
            cpi: cycles / insts,
            dram_pki: dram * 1000.0 / insts,
        };
        let next = controller.decide(machine.kind(), signal);
        if next != machine.kind() {
            // A swap always crosses models, so the lean checkpoint (no exact
            // same-model resume copy) suffices — and the loop owns the
            // machine, so the checkpoint is extracted by consuming it: no
            // hierarchy/stream/branch-table clones at all.
            machine = AnyMachine::restore(next, config, machine.into_lean_checkpoint());
        }
    }
    let mut summary = machine.summary(CoreModel::Hybrid(spec), label);
    summary.swaps = controller.swaps();
    // The machines accumulate their own advancement time, but a hybrid run
    // also pays for checkpoints and warm restores; report the whole run.
    summary.host_seconds = start.elapsed_seconds();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(cpi: f64, dram_pki: f64) -> PhaseSignal {
        PhaseSignal { cpi, dram_pki }
    }

    #[test]
    fn always_policy_never_swaps() {
        let mut c = SwapController::new(HybridSpec::always(BaseModel::Interval, 1_000));
        assert_eq!(c.initial_model(), BaseModel::Interval);
        for i in 0..10 {
            let next = c.decide(BaseModel::Interval, sig(1.0 + i as f64, 5.0));
            assert_eq!(next, BaseModel::Interval);
        }
        assert_eq!(c.swaps(), 0);
    }

    #[test]
    fn periodic_policy_samples_detailed_every_n() {
        let spec = HybridSpec::periodic(4, 1_000);
        let mut c = SwapController::new(spec);
        assert_eq!(c.initial_model(), BaseModel::Detailed);
        let mut schedule = vec![c.initial_model()];
        let mut current = c.initial_model();
        for _ in 0..8 {
            current = c.decide(current, sig(1.0, 5.0));
            schedule.push(current);
        }
        // Interval indices 0, 4, 8 run detailed; the rest run interval.
        let detailed: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, m)| **m == BaseModel::Detailed)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(detailed, vec![0, 4, 8]);
    }

    #[test]
    fn phase_cpi_policy_reacts_to_cpi_jumps_only() {
        let spec = HybridSpec::phase_cpi(200, 1_000);
        let mut c = SwapController::new(spec);
        assert_eq!(c.initial_model(), BaseModel::Interval);
        // Stable phase: stays on the interval model.
        assert_eq!(
            c.decide(BaseModel::Interval, sig(1.0, 5.0)),
            BaseModel::Interval
        );
        assert_eq!(
            c.decide(BaseModel::Interval, sig(1.05, 5.1)),
            BaseModel::Interval
        );
        // 50% CPI jump: phase transition, re-calibrate at full fidelity.
        assert_eq!(
            c.decide(BaseModel::Interval, sig(1.55, 5.1)),
            BaseModel::Detailed
        );
        // First detailed interval has no same-model reference: back to cheap.
        assert_eq!(
            c.decide(BaseModel::Detailed, sig(1.8, 5.0)),
            BaseModel::Interval
        );
        assert_eq!(c.swaps(), 2);
    }

    #[test]
    fn phase_cpi_reacts_to_dram_traffic_shifts() {
        let spec = HybridSpec::phase_cpi(300, 1_000);
        let mut c = SwapController::new(spec);
        assert_eq!(
            c.decide(BaseModel::Interval, sig(1.0, 2.0)),
            BaseModel::Interval
        );
        // CPI flat but miss traffic triples: still a phase transition.
        assert_eq!(
            c.decide(BaseModel::Interval, sig(1.0, 6.5)),
            BaseModel::Detailed
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            HybridSpec::always(BaseModel::Interval, 2_000).label(),
            "always-interval@2000"
        );
        assert_eq!(HybridSpec::periodic(4, 500).label(), "periodic-4@500");
        assert_eq!(
            HybridSpec::phase_cpi(250, 1_000).label(),
            "phase-cpi-250@1000"
        );
    }
}
