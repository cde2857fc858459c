//! The ROB-sized look-ahead window of the interval simulator.
//!
//! The functional front-end inserts instructions at the tail; the core model
//! consumes them at the head. The window exists to model *second-order*
//! overlap effects: when a long-latency load blocks the head, the instructions
//! behind it in the window that are independent of the load have their own
//! miss events (I-cache misses, branch mispredictions, further long-latency
//! loads) resolved underneath the blocking load, so they must not be charged
//! again when they reach the head. The `*_overlapped` flags record exactly
//! that.

use iss_trace::{DynInst, LINE_SHIFT};

/// The per-slot overlap flags of one in-flight instruction (see the module
/// documentation). Stored as a column separate from the instruction payloads
/// so the overlap scan — which re-reads and sets flags for up to a full
/// window per long-latency miss — walks 3 bytes per slot, not the ~96-byte
/// instruction stride.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapFlags {
    /// The I-cache/I-TLB access for this instruction already happened under a
    /// long-latency load; do not charge it again at the head.
    pub i_overlapped: bool,
    /// The branch was already predicted under a long-latency load.
    pub br_overlapped: bool,
    /// The data access was already performed under a long-latency load.
    pub d_overlapped: bool,
}

/// Fixed-capacity FIFO of in-flight instructions (the simulated ROB
/// contents), stored structure-of-arrays in a preallocated ring: one column
/// of instruction payloads, one of [`OverlapFlags`]. Push writes one slot,
/// pop is pure index arithmetic (no 90-byte entry moves on the dispatch hot
/// path), and the columns never reallocate after construction.
#[derive(Debug, Clone)]
pub struct Window {
    /// Ring storage, always `capacity` slots; `insts[slot(i)]` is live for
    /// `i < len` and stale otherwise.
    insts: Vec<DynInst>,
    flags: Vec<OverlapFlags>,
    head: usize,
    len: usize,
}

impl Window {
    /// Creates an empty window with room for `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        Window {
            insts: vec![DynInst::nop(0, 0); capacity],
            flags: vec![OverlapFlags::default(); capacity],
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of instructions the window can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.insts.len()
    }

    /// Current number of instructions in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has room for another instruction.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.len < self.insts.len()
    }

    /// Physical slot of logical position `i` (0 = head).
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= self.insts.len() {
            s - self.insts.len()
        } else {
            s
        }
    }

    /// Inserts an instruction at the tail with cleared overlap flags.
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn push_tail(&mut self, inst: DynInst) {
        assert!(self.has_room(), "window overflow");
        let s = self.slot(self.len);
        self.insts[s] = inst;
        self.flags[s] = OverlapFlags::default();
        self.len += 1;
    }

    /// The instruction at the head (the next one the core model considers).
    #[must_use]
    pub fn head_inst(&self) -> Option<&DynInst> {
        (self.len > 0).then(|| &self.insts[self.head])
    }

    /// The head instruction together with its overlap flags — one bounds
    /// check on the dispatch hot path instead of two.
    #[must_use]
    pub fn head_entry(&self) -> Option<(&DynInst, OverlapFlags)> {
        (self.len > 0).then(|| (&self.insts[self.head], self.flags[self.head]))
    }

    /// The overlap flags of the head instruction.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    pub fn head_flags(&self) -> OverlapFlags {
        assert!(self.len > 0, "empty window has no head");
        self.flags[self.head]
    }

    /// Discards the head entry; index arithmetic only. Does nothing on an
    /// empty window.
    pub fn pop_head(&mut self) {
        if self.len > 0 {
            self.head = self.slot(1);
            self.len -= 1;
        }
    }

    /// Structure-of-arrays view for the overlap scan: the physical slots of
    /// the entries *behind* the head (head excluded, oldest first) plus the
    /// full instruction and flag columns. The slot list indexes both columns;
    /// splitting the borrow this way lets the scan read instructions while
    /// setting flags without copying entries out of the ring.
    pub fn behind_head_mut(&mut self) -> (BehindHead<'_>, &mut [OverlapFlags]) {
        (
            BehindHead {
                insts: &self.insts,
                head: self.head,
                next: 1,
                len: self.len,
            },
            &mut self.flags,
        )
    }

    /// Iterates over all in-flight instructions from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &DynInst> {
        (0..self.len).map(|i| &self.insts[self.slot(i)])
    }
}

/// Cursor over the window slots behind the head (see
/// [`Window::behind_head_mut`]): yields `(slot, &inst)` pairs so the caller
/// can address the matching flags column entry.
#[derive(Debug)]
pub struct BehindHead<'a> {
    insts: &'a [DynInst],
    head: usize,
    next: usize,
    len: usize,
}

impl<'a> Iterator for BehindHead<'a> {
    type Item = (usize, &'a DynInst);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.len {
            return None;
        }
        let s = self.head + self.next;
        let s = if s >= self.insts.len() {
            s - self.insts.len()
        } else {
            s
        };
        self.next += 1;
        Some((s, &self.insts[s]))
    }
}

/// Tracks transitive register/memory dependences on a long-latency load
/// during the overlap scan. Instructions that depend (directly or through
/// other instructions) on the blocking load cannot execute underneath it.
///
/// The tracker is designed to be *reused*: the interval core keeps one per
/// core and calls [`DependenceTracker::reset_rooted_at`] at every scan, so
/// the overlap path — entered on every long-latency miss — performs no
/// allocation once the backing buffers have grown to the window size.
#[derive(Debug, Clone, Default)]
pub struct DependenceTracker {
    /// One poison bit per architectural register: all
    /// [`NUM_ARCH_REGS`](iss_trace::NUM_ARCH_REGS) = 64 fit one word, so
    /// every membership test in the scan is a single bit operation (the
    /// scan visits up to a window of instructions per long-latency miss).
    poisoned_regs: u64,
    /// Line addresses written by instructions on the poisoned chain, scanned
    /// once per load visited by the overlap scan.
    poisoned_lines: Vec<u64>,
}

// The poison mask holds one bit per architectural register.
const _: () = assert!(iss_trace::NUM_ARCH_REGS <= u64::BITS as u16);

impl DependenceTracker {
    /// Creates an empty tracker with buffers sized for `capacity` in-flight
    /// instructions (the look-ahead window size), so scans never reallocate.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        DependenceTracker {
            poisoned_regs: 0,
            poisoned_lines: Vec::with_capacity(capacity),
        }
    }

    /// Starts tracking from the blocking long-latency load.
    #[must_use]
    pub fn rooted_at(load: &DynInst) -> Self {
        let mut t = DependenceTracker::default();
        t.reset_rooted_at(load);
        t
    }

    /// Clears the tracker (keeping its buffers) and re-roots it at a new
    /// blocking load.
    pub fn reset_rooted_at(&mut self, load: &DynInst) {
        self.poisoned_regs = 0;
        self.poisoned_lines.clear();
        if let Some(dst) = load.dst {
            self.poisoned_regs = 1 << dst;
        }
    }

    /// Whether `inst` depends (transitively) on the blocking load. When it
    /// does, its own outputs become poisoned too.
    pub fn depends_and_propagate(&mut self, inst: &DynInst) -> bool {
        let mut depends = inst.src_regs().any(|r| self.poisoned_regs & (1 << r) != 0);
        if let Some(mem) = &inst.mem {
            if !mem.is_store && self.poisoned_lines.contains(&(mem.vaddr >> LINE_SHIFT)) {
                depends = true;
            }
        }
        if depends {
            if let Some(dst) = inst.dst {
                self.poisoned_regs |= 1 << dst;
            }
            if let Some(mem) = &inst.mem {
                if mem.is_store {
                    let line = mem.vaddr >> LINE_SHIFT;
                    if !self.poisoned_lines.contains(&line) {
                        self.poisoned_lines.push(line);
                    }
                }
            }
        } else if let Some(dst) = inst.dst {
            // An independent instruction that overwrites a poisoned register
            // breaks the chain for later readers of that register.
            self.poisoned_regs &= !(1 << dst);
        }
        depends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_trace::{MemAccess, OpClass, RegId};

    fn inst(seq: u64, op: OpClass, dst: Option<RegId>, srcs: [Option<RegId>; 2]) -> DynInst {
        DynInst {
            seq,
            pc: seq * 4,
            op,
            srcs,
            dst,
            mem: None,
            branch: None,
            sync: None,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut w = Window::new(2);
        assert!(w.is_empty() && w.has_room());
        w.push_tail(DynInst::nop(0, 0));
        w.push_tail(DynInst::nop(1, 4));
        assert!(!w.has_room());
        assert_eq!(w.len(), 2);
        assert_eq!(w.head_inst().unwrap().seq, 0);
        w.pop_head();
        assert_eq!(w.head_inst().unwrap().seq, 1);
        w.pop_head();
        assert!(w.head_inst().is_none());
        w.pop_head(); // popping an empty window is a no-op
        assert!(w.is_empty());
    }

    #[test]
    fn ring_wraps_and_keeps_order() {
        let mut w = Window::new(3);
        for seq in 0..3 {
            w.push_tail(DynInst::nop(seq, seq * 4));
        }
        // Drain two, refill two: the ring head has wrapped past the end.
        w.pop_head();
        w.pop_head();
        w.push_tail(DynInst::nop(3, 12));
        w.push_tail(DynInst::nop(4, 16));
        let seqs: Vec<u64> = w.iter().map(|i| i.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(w.head_inst().unwrap().seq, 2);
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn overflow_panics() {
        let mut w = Window::new(1);
        w.push_tail(DynInst::nop(0, 0));
        w.push_tail(DynInst::nop(1, 4));
    }

    #[test]
    fn iter_behind_head_skips_the_head() {
        let mut w = Window::new(4);
        for i in 0..3 {
            w.push_tail(DynInst::nop(i, i * 4));
        }
        let (cursor, flags) = w.behind_head_mut();
        let mut seqs = Vec::new();
        for (slot, inst) in cursor {
            seqs.push(inst.seq);
            flags[slot].d_overlapped = true;
        }
        assert_eq!(seqs, vec![1, 2]);
        // The head's flags were not touched by the scan.
        assert!(!w.head_flags().d_overlapped);
    }

    #[test]
    fn new_entries_start_unoverlapped() {
        let mut w = Window::new(4);
        w.push_tail(DynInst::nop(0, 0));
        let f = w.head_flags();
        assert!(!f.i_overlapped && !f.br_overlapped && !f.d_overlapped);
    }

    #[test]
    fn reused_slots_reset_their_flags() {
        let mut w = Window::new(1);
        w.push_tail(DynInst::nop(0, 0));
        let (_, flags) = w.behind_head_mut();
        for f in flags.iter_mut() {
            f.i_overlapped = true;
        }
        w.pop_head();
        w.push_tail(DynInst::nop(1, 4));
        assert!(!w.head_flags().i_overlapped, "push must clear stale flags");
    }

    #[test]
    fn direct_register_dependence_detected() {
        let load = inst(0, OpClass::Load, Some(1), [None, None]);
        let mut t = DependenceTracker::rooted_at(&load);
        let dependent = inst(1, OpClass::IntAlu, Some(2), [Some(1), None]);
        let independent = inst(2, OpClass::IntAlu, Some(3), [Some(9), None]);
        assert!(t.depends_and_propagate(&dependent));
        assert!(!t.depends_and_propagate(&independent));
    }

    #[test]
    fn transitive_dependence_propagates() {
        let load = inst(0, OpClass::Load, Some(1), [None, None]);
        let mut t = DependenceTracker::rooted_at(&load);
        let a = inst(1, OpClass::IntAlu, Some(2), [Some(1), None]); // depends on load
        let b = inst(2, OpClass::IntAlu, Some(3), [Some(2), None]); // depends on a
        assert!(t.depends_and_propagate(&a));
        assert!(t.depends_and_propagate(&b));
    }

    #[test]
    fn overwriting_a_poisoned_register_breaks_the_chain() {
        let load = inst(0, OpClass::Load, Some(1), [None, None]);
        let mut t = DependenceTracker::rooted_at(&load);
        // r1 is overwritten by an independent instruction.
        let redef = inst(1, OpClass::IntAlu, Some(1), [Some(8), None]);
        assert!(!t.depends_and_propagate(&redef));
        let reader = inst(2, OpClass::IntAlu, Some(4), [Some(1), None]);
        assert!(!t.depends_and_propagate(&reader));
    }

    #[test]
    fn memory_dependence_through_store_load() {
        let load = inst(0, OpClass::Load, Some(1), [None, None]);
        let mut t = DependenceTracker::rooted_at(&load);
        let mut store = inst(1, OpClass::Store, None, [Some(1), None]);
        store.mem = Some(MemAccess {
            vaddr: 0x2000,
            size: 8,
            is_store: true,
            shared: false,
        });
        assert!(t.depends_and_propagate(&store));
        let mut later_load = inst(2, OpClass::Load, Some(5), [None, None]);
        later_load.mem = Some(MemAccess {
            vaddr: 0x2008,
            size: 8,
            is_store: false,
            shared: false,
        });
        assert!(
            t.depends_and_propagate(&later_load),
            "a load from the line written by a dependent store is dependent"
        );
        let mut other_load = inst(3, OpClass::Load, Some(6), [None, None]);
        other_load.mem = Some(MemAccess {
            vaddr: 0x9000,
            size: 8,
            is_store: false,
            shared: false,
        });
        assert!(!t.depends_and_propagate(&other_load));
    }
}
