//! Synthetic dynamic-instruction-stream generation.
//!
//! [`SyntheticStream`] plays the role of the functional simulator in the
//! paper's functional-first organization: it produces a dynamic instruction
//! stream (in program order, without wrong-path instructions) which the timing
//! models consume at the window tail. The stream is fully deterministic given
//! `(profile, thread, seed, length)`, which is what allows the interval model
//! and the detailed model to simulate *exactly the same* execution and makes
//! the error figures meaningful.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inst::{BranchClass, BranchInfo, DynInst, MemAccess, OpClass, RegId};
use crate::profile::WorkloadProfile;
use crate::sync::SyncOp;
use crate::{ThreadId, NUM_ARCH_REGS};

/// A source of dynamic instructions in program order.
///
/// Implementations must be deterministic: two streams constructed with the
/// same inputs must yield identical instruction sequences.
pub trait InstructionStream {
    /// Produces the next dynamic instruction, or `None` when the stream ends.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Number of instructions remaining, when known.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

/// Blanket implementation so boxed streams remain usable through the trait.
impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        (**self).next_inst()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

/// Behaviour of one static branch site in the synthetic program.
#[derive(Debug, Clone, Copy)]
enum BranchKind {
    /// Strongly biased conditional branch (taken with probability `bias`).
    Biased { bias: f64 },
    /// Loop back-edge: taken `trip - 1` times, then not taken once.
    Loop { trip: u32 },
    /// Data-dependent conditional branch, taken with probability `p`.
    Random { p: f64 },
    /// Direct call to a function entry block.
    Call,
    /// Return to the call site on top of the call stack.
    Return,
    /// Indirect jump with several possible target blocks.
    Indirect { num_targets: u32 },
}

/// One static branch site.
#[derive(Debug, Clone)]
struct BranchSite {
    kind: BranchKind,
    /// Taken-target block index (for indirect branches, the first of the
    /// candidate targets).
    target_block: usize,
    /// Loop-counter state for `Loop` branches.
    loop_count: u32,
}

/// Static program layout: a ring of basic blocks, each terminated by a branch.
#[derive(Debug, Clone)]
struct ProgramLayout {
    /// Number of non-branch instructions per basic block.
    block_body_len: u32,
    /// Branch site per block.
    branches: Vec<BranchSite>,
    /// Starting PC of each block.
    block_pc: Vec<u64>,
}

const INST_BYTES: u64 = 4;
const CODE_BASE: u64 = 0x0040_0000;
/// Open-interval bounds for the geometric dependence-distance success
/// probability. `geo_p` outside (0, 1) makes `ln(1 - geo_p)` meaningless
/// (±∞/NaN), so profile-derived values are clamped here at stream
/// construction; both bounds are far outside anything a realistic profile
/// produces (catalog means are 3.0–7.0, i.e. `geo_p` ≈ 0.14–0.33).
const GEO_P_MIN: f64 = 1e-6;
const GEO_P_MAX: f64 = 1.0 - 1e-6;
/// Lower clamp applied to the uniform draw before the geometric inverse-CDF
/// (`rng.gen::<f64>().max(GEO_U_MIN)`): keeps `ln(u)` finite. Also the lower
/// end of the domain the threshold table must classify.
pub const GEO_U_MIN: f64 = 1e-12;
/// The dependence pools (`recent_int_dsts` / `recent_fp_dsts`) keep at most
/// this many registers, so sampled distances beyond it all select index 0.
/// Also the length of the [`geo_threshold_table`] classify tables.
pub const DEP_POOL_CAP: usize = 64;

/// Fixed-capacity ring of recently written registers (the dependence pool).
/// Semantically a `VecDeque<RegId>` under a push-back/evict-oldest cap of
/// [`DEP_POOL_CAP`], but 128 bytes inline with no heap traffic: `alloc_dst`
/// runs once per compute/load instruction and the deque's push + overflow-pop
/// pair showed up on the generation hot path.
#[derive(Debug, Clone)]
struct RecentRing {
    buf: [RegId; DEP_POOL_CAP],
    /// Index of the oldest entry.
    head: usize,
    len: usize,
}

impl RecentRing {
    fn new() -> Self {
        RecentRing {
            buf: [0; DEP_POOL_CAP],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `r`, evicting the oldest entry once the pool is full — the
    /// ring equivalent of `push_back` + `pop_front` past the cap.
    fn push_capped(&mut self, r: RegId) {
        if self.len < DEP_POOL_CAP {
            let tail = (self.head + self.len) & (DEP_POOL_CAP - 1);
            self.buf[tail] = r;
            self.len += 1;
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) & (DEP_POOL_CAP - 1);
        }
    }

    /// The entry at logical index `idx` (0 = oldest), if present.
    fn get(&self, idx: usize) -> Option<RegId> {
        (idx < self.len).then(|| self.buf[(self.head + idx) & (DEP_POOL_CAP - 1)])
    }
}

/// Capped geometric distance exactly as `pick_src` historically computed it:
/// `ceil(ln(u) / ln(1 - geo_p))`, at least 1, saturated at [`DEP_POOL_CAP`]
/// (the saturation is invisible to callers because the pool index is
/// `len.saturating_sub(dist.min(len))` with `len <= DEP_POOL_CAP`).
fn geo_dist_oracle(u: f64, geo_ln_denom: f64) -> usize {
    let dist = (u.ln() / geo_ln_denom).ceil().max(1.0) as usize;
    dist.min(DEP_POOL_CAP)
}

/// Finds, for every distance `k` in `1..=DEP_POOL_CAP`, the smallest `u` in
/// `[GEO_U_MIN, 1.0)` with `geo_dist_oracle(u) <= k`, by bisection over f64
/// bit patterns (positive f64s order identically as bits). The oracle is
/// monotone non-increasing in `u`, so each boundary is exact: classifying a
/// draw against the table reproduces the oracle bit-for-bit without the two
/// `ln` calls per generated instruction.
fn geo_dist_thresholds(geo_ln_denom: f64) -> [f64; DEP_POOL_CAP] {
    let mut table = [GEO_U_MIN; DEP_POOL_CAP];
    for (i, slot) in table.iter_mut().enumerate() {
        let k = i + 1;
        if geo_dist_oracle(GEO_U_MIN, geo_ln_denom) <= k {
            continue; // every draw in the domain already lands at <= k
        }
        let mut lo = GEO_U_MIN.to_bits(); // oracle(lo) > k
        let mut hi = 1.0f64.to_bits() - 1; // largest f64 < 1.0; oracle == 1
        debug_assert!(geo_dist_oracle(f64::from_bits(hi), geo_ln_denom) <= k);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if geo_dist_oracle(f64::from_bits(mid), geo_ln_denom) <= k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        *slot = f64::from_bits(hi);
        // A non-monotone libm `ln` could in principle fool the bisection;
        // pin the boundary exactly (one ulp below must classify above `k`).
        debug_assert!(geo_dist_oracle(f64::from_bits(hi), geo_ln_denom) <= k);
        debug_assert!(geo_dist_oracle(f64::from_bits(hi - 1), geo_ln_denom) > k);
    }
    table
}

/// Builds the descending inverse-CDF threshold table for a geometric
/// dependence-distance distribution with the given mean, applying the same
/// `geo_p` clamping as [`SyntheticStream`] construction. Classifying a
/// clamped uniform draw against the table via [`geo_classify`] reproduces
/// `ceil(ln(u) / ln(1 - geo_p))` (capped at [`DEP_POOL_CAP`]) bit-for-bit
/// without the per-draw `ln`.
#[must_use]
pub fn geo_threshold_table(dep_distance_mean: f64) -> [f64; DEP_POOL_CAP] {
    let geo_p = (1.0 / dep_distance_mean.max(1.0)).clamp(GEO_P_MIN, GEO_P_MAX);
    geo_dist_thresholds((1.0 - geo_p).ln())
}

/// Picks the branchless-head length [`geo_classify`] should use for a
/// geometric distribution with the given mean: enough of the descending
/// table to hold most of the probability mass, or zero (pure binary
/// search) when the distribution is too spread out for a head to pay.
///
/// The cutoffs come from measurement on the reference host, best-of-5 over
/// one million draws at each catalog mean: an 8-entry head wins 1.6x at
/// mean 3 but loses 30% at mean 7 (the head misses too often and the
/// mispredicted fallback branch eats the savings); a 16-entry head is the
/// best middle ground near mean 5; above that nothing beats plain
/// `partition_point`. The choice only affects speed, never results.
#[must_use]
pub fn geo_classify_head(dep_distance_mean: f64) -> usize {
    if dep_distance_mean < 4.0 {
        8
    } else if dep_distance_mean < 6.0 {
        16
    } else {
        0
    }
}

/// Classifies a clamped uniform draw `u` (at least [`GEO_U_MIN`], below 1.0)
/// against a descending threshold table: returns the 1-based geometric
/// distance, capped at `thresholds.len()`. This is the single copy of the
/// classify logic shared by the generator hot path, the exhaustive boundary
/// test, and the kernel benchmarks; `head` selects the speed strategy (use
/// [`geo_classify_head`]) and never changes the result.
///
/// The table is descending and the predicate `u < t` is monotone along it,
/// so the number of leading thresholds still above `u` (what
/// `partition_point` finds by binary search) equals the *total* number of
/// thresholds above `u`. A geometric table concentrates its probability
/// mass in the first few entries, so the hot path counts the first `head`
/// thresholds with a branchless counting scan and answers directly when the
/// draw lands inside — the common case — falling back to `partition_point`
/// over the tail otherwise. Measured negative result, recorded so nobody
/// re-learns it: counting the *whole* 64-entry table ("replace the binary
/// search with one branchless scan") is slower than `partition_point`,
/// whose cmov binary search is already branch-free; only the short-head
/// hybrid wins.
#[must_use]
pub fn geo_classify(thresholds: &[f64], head: usize, u: f64) -> usize {
    // Match on the two measured heads so the count has a compile-time length
    // and unrolls completely.
    match head {
        8 if thresholds.len() >= 8 => classify_with_head::<8>(thresholds, u),
        16 if thresholds.len() >= 16 => classify_with_head::<16>(thresholds, u),
        _ => thresholds.partition_point(|&t| u < t) + 1,
    }
}

/// Fixed-head hybrid classify body shared by the [`geo_classify`] arms.
fn classify_with_head<const H: usize>(thresholds: &[f64], u: f64) -> usize {
    let n = thresholds[..H].iter().filter(|&&t| u < t).count();
    if n < H {
        return n + 1;
    }
    // All `H` head thresholds sit above the draw, so the answer lies in
    // the tail; `H +` restores the global index.
    H + thresholds[H..].partition_point(|&t| u < t) + 1
}
/// Per-thread private data regions are spaced far apart so that different
/// threads never alias in the caches (other than through the shared region).
const THREAD_DATA_STRIDE: u64 = 1 << 40;
const HOT_BASE: u64 = 1 << 33;
const WARM_BASE: u64 = 1 << 34;
const COLD_BASE: u64 = 1 << 35;
/// The shared region lives at the same virtual addresses for every thread.
const SHARED_BASE: u64 = 1 << 50;
/// Lock words live in their own shared cache lines.
const LOCK_BASE: u64 = (1 << 50) + (1 << 40);

impl ProgramLayout {
    fn build(profile: &WorkloadProfile, rng: &mut SmallRng) -> Self {
        let b = &profile.branches;
        let mix = &profile.mix;
        // Average basic-block length implied by the branch fraction.
        let branch_frac = mix.branch.max(0.01);
        let block_body_len = ((1.0 / branch_frac) - 1.0).round().max(1.0) as u32;
        let block_bytes = u64::from(block_body_len + 1) * INST_BYTES;
        let blocks_from_footprint = (profile.code_footprint / block_bytes).max(8) as usize;
        let num_blocks = blocks_from_footprint
            .max(b.static_branches as usize / 4)
            .max(8);

        let mut branches = Vec::with_capacity(num_blocks);
        let mut block_pc = Vec::with_capacity(num_blocks);
        for i in 0..num_blocks {
            block_pc.push(CODE_BASE + i as u64 * block_bytes);
        }
        for i in 0..num_blocks {
            let r: f64 = rng.gen();
            let class_roll: f64 = rng.gen();
            let kind = if class_roll < b.call_frac {
                BranchKind::Call
            } else if class_roll < b.call_frac * 2.0 {
                // Pair calls with an equal fraction of returns.
                BranchKind::Return
            } else if class_roll < b.call_frac * 2.0 + b.indirect_frac {
                BranchKind::Indirect {
                    num_targets: b.indirect_targets.max(2),
                }
            } else if r < b.biased_frac {
                BranchKind::Biased { bias: b.bias }
            } else if r < b.biased_frac + b.loop_frac {
                BranchKind::Loop { trip: b.loop_trip }
            } else {
                BranchKind::Random { p: b.random_taken }
            };
            // Real programs spend most of their time in loops and nearby
            // basic blocks; only calls and indirect jumps travel far. This
            // control-flow locality is what gives the instruction cache and
            // the BTB realistic hit rates.
            let target_block = match kind {
                BranchKind::Call | BranchKind::Return | BranchKind::Indirect { .. } => {
                    rng.gen_range(0..num_blocks)
                }
                BranchKind::Loop { .. } => {
                    // Short backward edge forming a loop body of 1-4 blocks.
                    let body: usize = rng.gen_range(1..=4);
                    i.saturating_sub(body.min(i))
                }
                BranchKind::Biased { .. } | BranchKind::Random { .. } => {
                    if rng.gen::<f64>() < 0.9 {
                        // Local forward/backward jump within +-8 blocks.
                        let offset = rng.gen_range(-8i64..=8);
                        (i as i64 + offset).rem_euclid(num_blocks as i64) as usize
                    } else {
                        rng.gen_range(0..num_blocks)
                    }
                }
            };
            branches.push(BranchSite {
                kind,
                target_block,
                loop_count: 0,
            });
        }
        ProgramLayout {
            block_body_len,
            branches,
            block_pc,
        }
    }

    fn num_blocks(&self) -> usize {
        self.branches.len()
    }
}

/// Deterministic synthetic instruction stream for one thread of a workload.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    profile: WorkloadProfile,
    thread: ThreadId,
    rng: SmallRng,
    layout: ProgramLayout,

    /// Remaining instructions to emit.
    remaining: u64,
    /// Total instructions requested.
    total: u64,
    /// Dynamic sequence number of the next instruction.
    seq: u64,

    // --- control-flow state ---
    current_block: usize,
    /// Position inside the current block body (0..block_body_len, then branch).
    block_pos: u32,
    /// Call stack of return-target blocks.
    call_stack: Vec<usize>,

    // --- dependence state ---
    recent_int_dsts: RecentRing,
    recent_fp_dsts: RecentRing,
    /// Destination register of the most recent load (for pointer chasing).
    last_load_dst: Option<RegId>,
    next_int_reg: RegId,
    next_fp_reg: RegId,
    /// `ln(1 - 1/dep_distance_mean)`, the denominator of the inverse-CDF
    /// geometric sampling in `pick_src`. Kept for the slow-path oracle; the
    /// hot path classifies the uniform draw against `geo_thresholds` instead.
    geo_ln_denom: f64,
    /// `geo_thresholds[k-1]` is the smallest draw `u` for which the oracle
    /// `ceil(ln(u)/geo_ln_denom).max(1).min(64)` yields a distance `<= k`.
    /// The oracle is monotone non-increasing in `u` (every step — `ln`,
    /// division by a fixed negative, `ceil`, `max`, the saturating cast — is
    /// monotone as computed), so the exact f64 boundaries exist and are found
    /// once by bisection over bit patterns ([`geo_dist_thresholds`]). Turning
    /// two `ln` calls per instruction into a 6-probe binary search is the
    /// single largest win on the generation hot path, and it is bit-identical
    /// because distances beyond 64 are indistinguishable from 64: the
    /// dependence pools hold at most 64 registers and the index is
    /// `len - dist.min(len)`.
    geo_thresholds: [f64; 64],
    /// Branchless-head length for the classify, frozen per stream from the
    /// profile mean by [`geo_classify_head`]; a speed strategy only.
    geo_head: usize,
    /// Cumulative instruction-mix ladder (load, store, int_mul, int_div, fp,
    /// fp_div, serializing), precomputed with the exact `acc += scale(x)`
    /// sequence `next_inst` used to evaluate inline — the mix is constant per
    /// stream, so the ~7 divisions per body instruction fold into constants.
    mix_thresholds: [f64; 7],

    // --- data-address state ---
    stream_cursor: u64,
    data_base: u64,

    // --- synchronization schedule ---
    barrier_period: u64,
    next_barrier_at: u64,
    next_barrier_id: u64,
    lock_period: u64,
    next_lock_at: u64,
    critical_remaining: u64,
    held_lock: Option<u64>,
}

impl SyntheticStream {
    /// Creates a stream for a single-threaded run (or one thread of a
    /// multi-programmed workload, where each core runs an independent copy).
    ///
    /// `length` is the number of dynamic instructions to produce.
    #[must_use]
    pub fn new(profile: &WorkloadProfile, thread: ThreadId, seed: u64, length: u64) -> Self {
        Self::with_threads(profile, thread, 1, seed, length)
    }

    /// Creates the stream of `thread` out of `num_threads` threads of a
    /// multi-threaded workload. Thread index and count determine the
    /// load-imbalance scaling of the synchronization schedule.
    #[must_use]
    pub fn with_threads(
        profile: &WorkloadProfile,
        thread: ThreadId,
        num_threads: usize,
        seed: u64,
        length: u64,
    ) -> Self {
        assert!(length > 0, "stream length must be non-zero");
        assert!(num_threads > 0, "a workload needs at least one thread");
        assert!(thread < num_threads, "thread index out of range");
        // The program layout must be identical across threads of the same
        // workload (same binary), so it is derived from the seed only.
        let mut layout_rng = SmallRng::seed_from_u64(seed ^ 0x5eed_1a10);
        let layout = ProgramLayout::build(profile, &mut layout_rng);
        let rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ thread as u64);

        // Load imbalance: later threads do more work between barriers, so the
        // earlier threads wait (poor scaling for imbalanced workloads).
        let imbalance_scale = if num_threads > 1 {
            1.0 + profile.sync.imbalance * thread as f64 / (num_threads - 1) as f64
        } else {
            1.0
        };
        let barrier_period = if profile.sync.barrier_period > 0 && num_threads > 1 {
            ((profile.sync.barrier_period as f64) * imbalance_scale) as u64
        } else {
            0
        };
        let lock_period = if num_threads > 1 {
            profile.sync.lock_period
        } else {
            0
        };

        let current_block = 0;
        // The geometric success probability must stay inside the open
        // interval (0, 1): a `dep_distance_mean` of exactly 1.0 (or any
        // degenerate value `max(1.0)` maps there) would make `geo_p` = 1.0
        // and `ln(1 - geo_p)` blow up to `ln(0)` — the old `.max(1e-9)`
        // rescue produced a denominator of ≈ -20.7 that collapsed *every*
        // dependence distance to 1 instead of mostly-1-sometimes-more.
        let geo_p = (1.0 / profile.dep_distance_mean.max(1.0)).clamp(GEO_P_MIN, GEO_P_MAX);
        let geo_ln_denom = (1.0 - geo_p).ln();
        // The cumulative mix ladder, evaluated with the exact expression
        // sequence `next_inst` historically computed inline (same `acc`
        // accumulation order, same clamp), so the thresholds — and therefore
        // every emitted instruction — are bit-identical.
        let mix = &profile.mix;
        let scale = |x: f64| x / (1.0 - mix.branch).max(1e-9);
        let mut mix_thresholds = [0.0f64; 7];
        let mut acc = scale(mix.load);
        mix_thresholds[0] = acc;
        for (slot, class) in mix_thresholds[1..].iter_mut().zip([
            mix.store,
            mix.int_mul,
            mix.int_div,
            mix.fp,
            mix.fp_div,
            mix.serializing,
        ]) {
            acc += scale(class);
            *slot = acc;
        }
        SyntheticStream {
            geo_ln_denom,
            geo_thresholds: geo_dist_thresholds(geo_ln_denom),
            geo_head: geo_classify_head(profile.dep_distance_mean),
            mix_thresholds,
            profile: profile.clone(),
            thread,
            rng,
            layout,
            remaining: length,
            total: length,
            seq: 0,
            current_block,
            block_pos: 0,
            call_stack: Vec::new(),
            recent_int_dsts: RecentRing::new(),
            recent_fp_dsts: RecentRing::new(),
            last_load_dst: None,
            next_int_reg: 1,
            next_fp_reg: 33,
            stream_cursor: 0,
            data_base: THREAD_DATA_STRIDE * thread as u64,
            barrier_period,
            next_barrier_at: if barrier_period > 0 {
                barrier_period
            } else {
                u64::MAX
            },
            next_barrier_id: 1,
            lock_period,
            next_lock_at: if lock_period > 0 {
                lock_period
            } else {
                u64::MAX
            },
            critical_remaining: 0,
            held_lock: None,
        }
    }

    /// Creates one copy of a multi-programmed workload: the *same* execution
    /// as [`SyntheticStream::new`] with thread 0 (identical instruction
    /// sequence, branch outcomes and relative data layout), relocated into
    /// `copy`'s private address space.
    ///
    /// Identical-but-relocated copies are what the paper's Figure 6 runs:
    /// co-scheduling `n` instances of the same program means each instance
    /// executes the same work, and any per-copy slowdown relative to the solo
    /// run is attributable purely to shared-resource contention. (Deriving
    /// per-copy streams from different seeds instead would confound
    /// contention with workload variation and break the STP/ANTT baselines.)
    ///
    /// Independent programs share nothing, so the profile's shared-data
    /// fraction is folded back into the private regions and no
    /// synchronization is scheduled.
    #[must_use]
    pub fn program_copy(profile: &WorkloadProfile, copy: ThreadId, seed: u64, length: u64) -> Self {
        let mut private = profile.clone();
        private.memory.shared_frac = 0.0;
        private.memory.shared_bytes = 0;
        let mut s = Self::with_threads(&private, 0, 1, seed, length);
        s.thread = copy;
        s.data_base = THREAD_DATA_STRIDE * copy as u64;
        // Relocate the code as well: independent processes do not share text
        // pages here, so co-running copies must not warm the shared L2 for
        // each other's instruction fetches (that would let a copy run
        // *faster* than its solo baseline and push STP above the copy
        // count). The stride preserves the low address bits, so cache-set
        // mapping is identical to the solo run.
        for pc in &mut s.layout.block_pc {
            *pc += s.data_base;
        }
        s
    }

    /// The workload profile this stream was built from.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The thread index of this stream.
    #[must_use]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Total number of instructions this stream will produce.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.total
    }

    fn current_pc(&self) -> u64 {
        self.layout.block_pc[self.current_block] + u64::from(self.block_pos) * INST_BYTES
    }

    fn alloc_dst(&mut self, fp: bool) -> RegId {
        if fp {
            let r = self.next_fp_reg;
            self.next_fp_reg += 1;
            if self.next_fp_reg >= NUM_ARCH_REGS {
                self.next_fp_reg = 33;
            }
            self.recent_fp_dsts.push_capped(r);
            r
        } else {
            let r = self.next_int_reg;
            self.next_int_reg += 1;
            if self.next_int_reg >= 32 {
                self.next_int_reg = 1;
            }
            self.recent_int_dsts.push_capped(r);
            r
        }
    }

    /// Picks a source register produced roughly `dep_distance_mean`
    /// instructions ago (geometric distribution), creating realistic
    /// dependence chains.
    fn pick_src(&mut self, fp: bool) -> Option<RegId> {
        let pool = if fp {
            &self.recent_fp_dsts
        } else {
            &self.recent_int_dsts
        };
        if pool.is_empty() {
            return None;
        }
        // Sample a geometric distance (1-based): classify the uniform draw
        // against the precomputed inverse-CDF boundaries instead of paying
        // `ln` per sample. The last table entry is `GEO_U_MIN`, so the count
        // of thresholds above `u` is always `< DEP_POOL_CAP` and
        // `dist == count + 1` matches `geo_dist_oracle(u)` exactly (see
        // [`geo_dist_thresholds`] and [`geo_classify`]).
        let u: f64 = self.rng.gen::<f64>().max(GEO_U_MIN);
        let dist = geo_classify(&self.geo_thresholds, self.geo_head, u);
        debug_assert_eq!(dist, geo_dist_oracle(u, self.geo_ln_denom));
        let idx = pool.len().saturating_sub(dist.min(pool.len()));
        pool.get(idx)
    }

    fn gen_data_address(&mut self, in_critical_section: bool) -> (u64, bool) {
        let mem = &self.profile.memory;
        // Critical sections work mostly on shared data.
        let shared_p = if in_critical_section {
            (mem.shared_frac * 4.0).min(0.9)
        } else {
            mem.shared_frac
        };
        if mem.shared_bytes > 0 && self.rng.gen::<f64>() < shared_p {
            let off = self.rng.gen_range(0..mem.shared_bytes) & !0x7;
            return (SHARED_BASE + off, true);
        }
        let r: f64 = self.rng.gen();
        let addr = if r < mem.p_hot {
            let off = self.rng.gen_range(0..mem.hot_bytes) & !0x7;
            self.data_base + HOT_BASE + off
        } else if r < mem.p_hot + mem.p_warm {
            // Warm (L2-resident) accesses are strongly skewed towards a
            // frequently-reused prefix of the region (temporal locality):
            // most touches reuse a modest fraction of the working set, which
            // is what lets the shared L2 capture it — and what lets
            // co-running copies evict each other (Figure 6).
            let off = if self.rng.gen::<f64>() < 0.9 {
                let reused_span = (mem.warm_bytes / 32)
                    .clamp(32 * 1024, 256 * 1024)
                    .min(mem.warm_bytes);
                self.rng.gen_range(0..reused_span) & !0x7
            } else {
                self.rng.gen_range(0..mem.warm_bytes) & !0x7
            };
            self.data_base + WARM_BASE + off
        } else if self.rng.gen::<f64>() < mem.p_stream {
            // Unit-stride streaming through the cold region: one new cache
            // line per eight 8-byte elements (spatial locality without a
            // prefetcher).
            self.stream_cursor = (self.stream_cursor + 8) % mem.cold_bytes;
            self.data_base + COLD_BASE + self.stream_cursor
        } else {
            let off = self.rng.gen_range(0..mem.cold_bytes) & !0x7;
            self.data_base + COLD_BASE + off
        };
        (addr, false)
    }

    fn emit_memory(&mut self, seq: u64, pc: u64, is_store: bool) -> DynInst {
        let in_cs = self.critical_remaining > 0;
        let (vaddr, shared) = self.gen_data_address(in_cs);
        let mut is_store = is_store;
        if shared && !is_store {
            // Shared data sees a higher write ratio (coherence upgrades).
            if self.rng.gen::<f64>() < self.profile.memory.shared_write_frac {
                is_store = true;
            }
        }
        let op = if is_store {
            OpClass::Store
        } else {
            OpClass::Load
        };
        let mut srcs = [self.pick_src(false), None];
        // Pointer chasing: the address depends on the most recent load.
        if !is_store && self.rng.gen::<f64>() < self.profile.memory.pointer_chase {
            if let Some(prev) = self.last_load_dst {
                srcs[0] = Some(prev);
            }
        }
        if is_store {
            // A store also reads the value it writes.
            srcs[1] = self.pick_src(false);
        }
        let dst = if is_store {
            None
        } else {
            Some(self.alloc_dst(false))
        };
        if !is_store {
            self.last_load_dst = dst;
        }
        DynInst {
            seq,
            pc,
            op,
            srcs,
            dst,
            mem: Some(MemAccess {
                vaddr,
                size: 8,
                is_store,
                shared,
            }),
            branch: None,
            sync: None,
        }
    }

    fn emit_compute(&mut self, seq: u64, pc: u64, op: OpClass) -> DynInst {
        let fp = op.is_float();
        let srcs = [self.pick_src(fp), self.pick_src(fp)];
        let dst = Some(self.alloc_dst(fp));
        DynInst {
            seq,
            pc,
            op,
            srcs,
            dst,
            mem: None,
            branch: None,
            sync: None,
        }
    }

    fn emit_serializing(&mut self, seq: u64, pc: u64, sync: Option<SyncOp>) -> DynInst {
        DynInst {
            seq,
            pc,
            op: OpClass::Serialize,
            srcs: [None, None],
            dst: None,
            mem: None,
            branch: None,
            sync,
        }
    }

    fn emit_lock_access(&mut self, seq: u64, pc: u64, lock_id: u64, acquire: bool) -> DynInst {
        let vaddr = LOCK_BASE + lock_id * 64;
        DynInst {
            seq,
            pc,
            op: if acquire {
                OpClass::Load
            } else {
                OpClass::Store
            },
            srcs: [self.pick_src(false), None],
            dst: if acquire {
                Some(self.alloc_dst(false))
            } else {
                None
            },
            mem: Some(MemAccess {
                vaddr,
                size: 8,
                is_store: !acquire,
                shared: true,
            }),
            branch: None,
            sync: Some(if acquire {
                SyncOp::LockAcquire { id: lock_id }
            } else {
                SyncOp::LockRelease { id: lock_id }
            }),
        }
    }

    /// Emits the branch that terminates the current block and advances the
    /// control flow to the next block.
    fn emit_branch(&mut self, seq: u64, pc: u64) -> DynInst {
        let num_blocks = self.layout.num_blocks();
        let site = &mut self.layout.branches[self.current_block];
        let fallthrough_block = (self.current_block + 1) % num_blocks;
        let fallthrough = pc + INST_BYTES;

        let (class, taken, target_block): (BranchClass, bool, usize) = match site.kind {
            BranchKind::Biased { bias } => {
                let taken = self.rng.gen::<f64>() < bias;
                (BranchClass::Conditional, taken, site.target_block)
            }
            BranchKind::Loop { trip } => {
                site.loop_count += 1;
                if site.loop_count >= trip {
                    site.loop_count = 0;
                    (BranchClass::Conditional, false, site.target_block)
                } else {
                    (BranchClass::Conditional, true, site.target_block)
                }
            }
            BranchKind::Random { p } => {
                let taken = self.rng.gen::<f64>() < p;
                (BranchClass::Conditional, taken, site.target_block)
            }
            BranchKind::Call => {
                let target = site.target_block;
                (BranchClass::Call, true, target)
            }
            BranchKind::Return => {
                let target = self.call_stack.pop().unwrap_or(site.target_block);
                (BranchClass::Return, true, target)
            }
            BranchKind::Indirect { num_targets } => {
                let pick = self.rng.gen_range(0..num_targets) as usize;
                let target = (site.target_block + pick * 7) % num_blocks;
                (BranchClass::Indirect, true, target)
            }
        };

        if class == BranchClass::Call {
            self.call_stack.push(fallthrough_block);
            if self.call_stack.len() > 64 {
                self.call_stack.remove(0);
            }
        }

        let next_block = if taken {
            target_block
        } else {
            fallthrough_block
        };
        let target = self.layout.block_pc[target_block];

        let src = self.pick_src(false);
        let inst = DynInst {
            seq,
            pc,
            op: OpClass::Branch,
            srcs: [src, None],
            dst: None,
            mem: None,
            branch: Some(BranchInfo {
                class,
                taken,
                target,
                fallthrough,
            }),
            sync: None,
        };

        self.current_block = next_block;
        self.block_pos = 0;
        inst
    }
}

impl InstructionStream for SyntheticStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.remaining == 0 {
            return None;
        }
        let seq = self.seq;
        let pc = self.current_pc();

        // --- synchronization schedule takes priority over the regular mix ---
        // Barriers are never emitted while a lock is held (the release always
        // comes first), which keeps the synthetic programs deadlock-free.
        let inst = if seq >= self.next_barrier_at && self.held_lock.is_none() {
            let id = self.next_barrier_id;
            self.next_barrier_id += 1;
            self.next_barrier_at = seq + self.barrier_period.max(1);
            self.emit_serializing(seq, pc, Some(SyncOp::BarrierArrive { id }))
        } else if self.held_lock.is_some() && self.critical_remaining == 0 {
            #[expect(
                clippy::expect_used,
                reason = "held_lock is Some on the release path by the stream's own state machine"
            )]
            let id = self.held_lock.take().expect("held lock present");
            self.next_lock_at = seq + self.lock_period.max(1);
            self.emit_lock_access(seq, pc, id, false)
        } else if self.held_lock.is_none() && seq >= self.next_lock_at {
            let id = u64::from(self.rng.gen_range(0..self.profile.sync.num_locks.max(1)));
            self.held_lock = Some(id);
            self.critical_remaining = self.profile.sync.critical_section_len.max(1);
            self.emit_lock_access(seq, pc, id, true)
        } else {
            if self.critical_remaining > 0 {
                self.critical_remaining -= 1;
            }
            // --- regular instruction mix, structured by basic blocks ---
            if self.block_pos >= self.layout.block_body_len {
                self.emit_branch(seq, pc)
            } else {
                let r: f64 = self.rng.gen();
                // Branches are emitted structurally at block ends (one per
                // block), so the body probability of every other class is
                // inflated by 1/(1 - branch fraction); the remainder after all
                // explicit classes is single-cycle integer ALU filler. The
                // cumulative thresholds are per-stream constants, precomputed
                // at construction with the identical accumulation sequence.
                let t = &self.mix_thresholds;
                if r < t[0] {
                    self.emit_memory(seq, pc, false)
                } else if r < t[1] {
                    self.emit_memory(seq, pc, true)
                } else if r < t[2] {
                    self.emit_compute(seq, pc, OpClass::IntMul)
                } else if r < t[3] {
                    self.emit_compute(seq, pc, OpClass::IntDiv)
                } else if r < t[4] {
                    let op = if self.rng.gen::<bool>() {
                        OpClass::FpAlu
                    } else {
                        OpClass::FpMul
                    };
                    self.emit_compute(seq, pc, op)
                } else if r < t[5] {
                    self.emit_compute(seq, pc, OpClass::FpDiv)
                } else if r < t[6] {
                    self.emit_serializing(seq, pc, None)
                } else {
                    self.emit_compute(seq, pc, OpClass::IntAlu)
                }
            }
        };

        // Advance intra-block position for non-branch instructions (a branch
        // already reset it when switching blocks).
        if inst.op != OpClass::Branch {
            self.block_pos = (self.block_pos + 1).min(self.layout.block_body_len);
        }

        self.seq += 1;
        self.remaining -= 1;
        Some(inst)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn collect(name: &str, thread: ThreadId, threads: usize, seed: u64, n: u64) -> Vec<DynInst> {
        let p = catalog::profile(name).unwrap();
        let mut s = SyntheticStream::with_threads(&p, thread, threads, seed, n);
        let mut v = Vec::new();
        while let Some(i) = s.next_inst() {
            v.push(i);
        }
        v
    }

    #[test]
    fn stream_produces_requested_length() {
        let v = collect("gcc", 0, 1, 1, 5000);
        assert_eq!(v.len(), 5000);
        assert_eq!(v.first().unwrap().seq, 0);
        assert_eq!(v.last().unwrap().seq, 4999);
    }

    #[test]
    fn stream_is_deterministic() {
        let a = collect("mcf", 0, 1, 99, 3000);
        let b = collect("mcf", 0, 1, 99, 3000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect("mcf", 0, 1, 1, 2000);
        let b = collect("mcf", 0, 1, 2, 2000);
        assert_ne!(a, b);
    }

    #[test]
    fn different_threads_use_disjoint_private_data() {
        let a = collect("swim", 0, 2, 7, 2000);
        let b = collect("swim", 1, 2, 7, 2000);
        let private = |v: &[DynInst]| {
            v.iter()
                .filter_map(|i| i.mem)
                .filter(|m| !m.shared)
                .map(|m| m.vaddr)
                .collect::<Vec<_>>()
        };
        let pa = private(&a);
        let pb = private(&b);
        assert!(!pa.is_empty() && !pb.is_empty());
        let max_a = pa.iter().max().unwrap();
        let min_b = pb.iter().min().unwrap();
        assert!(max_a < min_b, "thread-private regions must not overlap");
    }

    #[test]
    fn instruction_mix_is_roughly_respected() {
        let v = collect("gcc", 0, 1, 3, 50_000);
        let n = v.len() as f64;
        let loads = v.iter().filter(|i| i.is_load()).count() as f64 / n;
        let branches = v.iter().filter(|i| i.is_branch()).count() as f64 / n;
        let p = catalog::profile("gcc").unwrap();
        assert!(
            (loads - p.mix.load).abs() < 0.08,
            "load fraction {loads} vs {}",
            p.mix.load
        );
        assert!(
            (branches - p.mix.branch).abs() < 0.08,
            "branch fraction {branches} vs {}",
            p.mix.branch
        );
    }

    #[test]
    fn branch_targets_stay_inside_code_footprint() {
        let v = collect("gcc", 0, 1, 3, 20_000);
        let p = catalog::profile("gcc").unwrap();
        for i in &v {
            if let Some(b) = i.branch {
                assert!(b.target >= CODE_BASE);
                // The layout may round the footprint up to whole blocks; allow 2x.
                assert!(b.target < CODE_BASE + 2 * p.code_footprint + 4096);
            }
        }
    }

    #[test]
    fn loads_and_stores_have_addresses_and_others_do_not() {
        let v = collect("equake", 0, 1, 5, 10_000);
        for i in &v {
            match i.op {
                OpClass::Load | OpClass::Store => assert!(i.mem.is_some()),
                _ => assert!(i.mem.is_none()),
            }
        }
    }

    #[test]
    fn multithreaded_profile_emits_sync_markers() {
        let p = catalog::parsec_profile("fluidanimate").unwrap();
        let mut s = SyntheticStream::with_threads(&p, 0, 4, 11, 60_000);
        let mut barriers = 0;
        let mut acquires = 0;
        let mut releases = 0;
        while let Some(i) = s.next_inst() {
            match i.sync {
                Some(SyncOp::BarrierArrive { .. }) => barriers += 1,
                Some(SyncOp::LockAcquire { .. }) => acquires += 1,
                Some(SyncOp::LockRelease { .. }) => releases += 1,
                _ => {}
            }
        }
        assert!(
            barriers >= 1,
            "expected at least one barrier, got {barriers}"
        );
        assert!(acquires >= 2, "expected lock acquires, got {acquires}");
        assert_eq!(acquires, releases + usize::from(acquires > releases));
    }

    #[test]
    fn single_threaded_run_emits_no_sync() {
        let v = collect("fluidanimate", 0, 1, 11, 30_000);
        assert!(v.iter().all(|i| i.sync.is_none()));
    }

    #[test]
    fn remaining_hint_counts_down() {
        let p = catalog::profile("gzip").unwrap();
        let mut s = SyntheticStream::new(&p, 0, 1, 10);
        assert_eq!(s.remaining_hint(), Some(10));
        s.next_inst();
        assert_eq!(s.remaining_hint(), Some(9));
    }

    #[test]
    #[should_panic(expected = "thread index out of range")]
    fn thread_out_of_range_panics() {
        let p = catalog::profile("gzip").unwrap();
        let _ = SyntheticStream::with_threads(&p, 2, 2, 0, 10);
    }

    /// The geometric threshold table must reproduce the `ln`-based oracle for
    /// *every* representable draw, not just statistically: the table replaces
    /// the oracle on the hot path and a single divergent classification would
    /// change an emitted register and cascade through the golden records.
    /// Exhaustive coverage comes from checking both sides of every bisected
    /// boundary (the only places a divergence could hide, by monotonicity)
    /// plus a dense random sweep as a belt-and-braces cross-check.
    #[test]
    fn geo_threshold_table_matches_ln_oracle() {
        use rand::{Rng, SeedableRng};
        // Catalog-realistic means plus the clamp extremes on both sides.
        let means = [1.0, 1.5, 3.0, 4.0, 5.0, 7.0, 64.0, 1e7];
        for mean in means {
            let geo_p = (1.0 / f64::max(mean, 1.0)).clamp(GEO_P_MIN, GEO_P_MAX);
            let denom = (1.0 - geo_p).ln();
            let table = geo_threshold_table(mean);
            assert_eq!(table, geo_dist_thresholds(denom), "builder mismatch");
            // Every head strategy must classify identically — the chosen
            // head (what the stream uses) plus all the others.
            let classify = |u: f64| {
                let want = geo_classify(&table, geo_classify_head(mean), u);
                for head in [0, 8, 16] {
                    assert_eq!(
                        geo_classify(&table, head, u),
                        want,
                        "mean {mean} head {head} diverges at u {u:e}"
                    );
                }
                want
            };
            for (i, &t) in table.iter().enumerate() {
                let k = i + 1;
                assert!(
                    geo_dist_oracle(t, denom) <= k,
                    "mean {mean}: threshold {k} classifies above itself"
                );
                assert_eq!(
                    classify(t),
                    geo_dist_oracle(t, denom),
                    "mean {mean} at t[{i}]"
                );
                if t > GEO_U_MIN {
                    let below = f64::from_bits(t.to_bits() - 1);
                    assert!(
                        geo_dist_oracle(below, denom) > k,
                        "mean {mean}: threshold {k} is not the least such draw"
                    );
                    assert_eq!(classify(below), geo_dist_oracle(below, denom));
                }
            }
            let mut rng = SmallRng::seed_from_u64(0xd157_u64 ^ mean.to_bits());
            for _ in 0..200_000 {
                let u: f64 = rng.gen::<f64>().max(GEO_U_MIN);
                assert_eq!(
                    classify(u),
                    geo_dist_oracle(u, denom),
                    "mean {mean}, u {u:e}"
                );
            }
        }
    }

    #[test]
    fn lock_accesses_target_lock_lines() {
        let p = catalog::parsec_profile("dedup").unwrap();
        let mut s = SyntheticStream::with_threads(&p, 1, 2, 11, 40_000);
        let mut seen = false;
        while let Some(i) = s.next_inst() {
            if let Some(SyncOp::LockAcquire { id }) = i.sync {
                let m = i.mem.expect("lock acquire carries a memory access");
                assert_eq!(m.vaddr, LOCK_BASE + id * 64);
                assert!(m.shared);
                seen = true;
            }
        }
        assert!(seen);
    }
}
