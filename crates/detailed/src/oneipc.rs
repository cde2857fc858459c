//! The one-IPC core model.
//!
//! Section 6 of the paper notes that "a common assumption is to assume that
//! all cores execute one instruction per cycle (i.e., a non-memory IPC equal
//! to one)" and positions interval simulation as a more accurate but equally
//! easy-to-use alternative. This model implements that assumption: every
//! instruction takes one cycle, loads additionally pay their full memory
//! latency serially (no memory-level parallelism, no overlap), and branch
//! mispredictions are ignored.

use iss_branch::{BranchPredictorConfig, BranchUnit};
use iss_interval::{CoreWarmParts, SimCore};
use iss_mem::MemoryHierarchy;
use iss_trace::{CoreResume, InstructionStream, SyncController, ThreadId};

use crate::stats::DetailedCoreStats;

/// One core simulated with the one-IPC model.
#[derive(Debug, Clone)]
pub struct OneIpcCore<S> {
    core_id: ThreadId,
    stream: S,
    core_time: u64,
    pending: Option<iss_trace::DynInst>,
    stats: DetailedCoreStats,
    done: bool,
}

impl<S: InstructionStream> SimCore for OneIpcCore<S> {
    type Stream = S;
    type Config = ();
    type Stats = DetailedCoreStats;

    /// Creates a one-IPC core fed by `stream`; the model has no
    /// configuration and predicts no branches.
    fn new(core_id: ThreadId, _config: &(), _branch: &BranchPredictorConfig, stream: S) -> Self {
        OneIpcCore {
            core_id,
            stream,
            core_time: 0,
            pending: None,
            stats: DetailedCoreStats::default(),
            done: false,
        }
    }

    /// Simulates one cycle at global time `now`.
    fn step_cycle(&mut self, now: u64, mem: &mut MemoryHierarchy, sync: &mut SyncController) {
        if self.done || self.core_time > now {
            return;
        }
        self.core_time = now;
        if sync.is_blocked(self.core_id) {
            self.stats.sync_blocked_cycles += 1;
            self.core_time = now + 1;
            return;
        }
        let inst = match self.pending.take().or_else(|| self.stream.next_inst()) {
            Some(i) => i,
            None => {
                self.done = true;
                self.stats.cycles = self.core_time;
                sync.mark_finished(self.core_id);
                return;
            }
        };
        if let Some(op) = inst.sync {
            if !sync.apply(self.core_id, op) {
                self.pending = Some(inst);
                self.core_time = now + 1;
                return;
            }
        }
        let mut latency = 1;
        if let Some(acc) = inst.mem {
            let resp = mem.access_data(self.core_id, acc.vaddr, acc.is_store, now);
            if acc.is_store {
                self.stats.stores += 1;
            } else {
                self.stats.loads += 1;
                latency += resp.latency;
            }
        }
        self.stats.instructions += 1;
        self.core_time = now + latency;
    }

    /// The machine steps a one-IPC core every cycle.
    fn next_event(&self, now: u64) -> u64 {
        now + 1
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn core_id(&self) -> ThreadId {
        self.core_id
    }

    fn stats(&self, _now: u64) -> DetailedCoreStats {
        self.stats
    }

    fn retired(&self) -> u64 {
        self.stats.instructions
    }

    /// An unfinished core reports the machine clock.
    fn cycles(&self, now: u64) -> u64 {
        if self.done {
            self.stats.cycles
        } else {
            now
        }
    }

    /// An unfinished core resumes at its own clock, which runs ahead of the
    /// machine clock while a load's latency is paid. The pending instruction
    /// is a lock acquire or join that could not proceed yet.
    fn into_warm_parts(self, _now: u64) -> CoreWarmParts<S> {
        CoreWarmParts {
            resume: CoreResume {
                time: if self.done {
                    self.stats.cycles
                } else {
                    self.core_time
                },
                instructions: self.stats.instructions,
                done: self.done,
            },
            pending: self.pending.into_iter().collect(),
            stream: self.stream,
            branch: None,
        }
    }

    fn resume_at(&mut self, resume: &CoreResume) {
        self.core_time = resume.time;
        self.stats.instructions = resume.instructions;
        if resume.done {
            self.done = true;
            self.stats.cycles = resume.time;
        }
    }

    fn branch_unit(&self) -> Option<&BranchUnit> {
        None
    }

    /// Warm branch state is dropped here and re-learned if a later swap
    /// leaves this model.
    fn install_branch_unit(&mut self, _unit: BranchUnit) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_mem::MemoryConfig;
    use iss_trace::{catalog, SyntheticStream};

    fn run(name: &str, len: u64, mem_cfg: &MemoryConfig) -> DetailedCoreStats {
        let p = catalog::profile(name).unwrap();
        let stream = SyntheticStream::new(&p, 0, 5, len);
        let mut core = OneIpcCore::new(0, &(), &BranchPredictorConfig::hpca2010_baseline(), stream);
        let mut mem = MemoryHierarchy::new(mem_cfg);
        let mut sync = SyncController::new(1);
        let mut now = 0;
        while !core.is_done() && now < 100_000_000 {
            core.step_cycle(now, &mut mem, &mut sync);
            now += 1;
        }
        core.stats(now)
    }

    #[test]
    fn perfect_memory_gives_exactly_one_ipc() {
        let stats = run(
            "gzip",
            5_000,
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        assert_eq!(stats.instructions, 5_000);
        let ipc = stats.ipc();
        assert!(
            (ipc - 1.0).abs() < 0.01,
            "one-IPC model must give IPC ~ 1, got {ipc}"
        );
    }

    #[test]
    fn memory_misses_push_ipc_below_one() {
        let stats = run("mcf", 5_000, &MemoryConfig::hpca2010_baseline(1));
        assert!(stats.ipc() < 1.0);
        assert!(stats.loads > 0);
    }

    #[test]
    fn never_exceeds_one_ipc() {
        let stats = run("swim", 5_000, &MemoryConfig::hpca2010_baseline(1));
        assert!(stats.ipc() <= 1.0 + 1e-9);
    }
}
