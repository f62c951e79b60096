//! Simulated heap allocator.
//!
//! Nodes are one cache line each (the paper's §IV assumption: one node per
//! line, line-aligned). Freed lines go to per-core LIFO free lists and are
//! reused **immediately** — this is essential for exercising the paper's
//! ABA discussion (§IV-A): a popped-and-freed stack node must be able to
//! come back at the same address right away.
//!
//! The allocator also implements the reproduction's use-after-free
//! *detector*: every data access is validated against the allocation map, so
//! an SMR bug (or a deliberately broken data structure, see
//! `plain_cas_free_in_pop_faults_where_ca_stack_does_not` in
//! `tests/ca_semantics.rs`) is caught at the exact access. This machine-checks
//! the paper's Theorem 6 across the whole test suite.
//!
//! Address-space layout (in 64-byte lines):
//!
//! ```text
//! line 0                  null page (never valid)
//! [1, static_brk)         statics allocated at machine-build time (always valid)
//! [static_brk, heap_base) reserved, unallocated statics (wild)
//! [heap_base, heap_end)   node heap
//! ```
//!
//! One liveness table spans every line: a line is live while it is a
//! handed-out static or an allocated heap node, so a legal access is one
//! lookup; the layout above is consulted only to classify a fault.

#![forbid(unsafe_code)]

use crate::addr::{Addr, CoreId, Line, LINE_BYTES};

/// Validity of a line for data access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LineStatus {
    /// The null page.
    Null,
    /// A static line handed out by `alloc_static`.
    Static,
    /// Reserved static space never handed out.
    WildStatic,
    /// A heap line currently allocated.
    Allocated,
    /// A heap line that has been freed (touching it is a use-after-free).
    Freed,
    /// A heap line never yet allocated.
    WildHeap,
    /// Outside simulated memory.
    OutOfRange,
}

/// What to do when the detector trips.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum UafMode {
    /// Panic at the faulting access (fail-stop; default).
    #[default]
    Panic,
    /// Record the fault and let the access proceed (for demos that want to
    /// show *what would have happened*).
    Record,
}

/// A recorded detector fault.
#[derive(Clone, Debug)]
pub struct Fault {
    /// Core that performed the access.
    pub core: CoreId,
    /// Faulting address.
    pub addr: Addr,
    /// Status that made it a fault.
    pub status: LineStatus,
    /// Kind of access ("read", "write", "cas", "cread", "cwrite").
    pub kind: &'static str,
}

/// The line-granular simulated allocator.
pub struct Allocator {
    static_brk: u64,
    static_limit: u64,
    heap_base: u64,
    heap_end: u64,
    brk: u64,
    free_lists: Vec<Vec<u64>>,
    /// Per line of memory: a handed-out static or an allocated heap line.
    live: Vec<bool>,
    /// Live count: the Y axis of the paper's Figure 3.
    pub allocated_not_freed: u64,
    /// High-water mark of `allocated_not_freed`.
    pub peak: u64,
    /// Lifetime allocation count.
    pub total_allocs: u64,
    /// Lifetime free count.
    pub total_frees: u64,
    /// Detector policy.
    pub uaf_mode: UafMode,
    /// Faults recorded in [`UafMode::Record`] mode.
    pub faults: Vec<Fault>,
}

impl Allocator {
    /// Build an allocator over a memory of `mem_bytes`, reserving
    /// `static_lines` lines (after the null page) for statics.
    pub fn new(cores: usize, mem_bytes: u64, static_lines: u64) -> Self {
        let total_lines = mem_bytes / LINE_BYTES;
        let heap_base = 1 + static_lines;
        assert!(
            heap_base < total_lines,
            "memory of {mem_bytes} bytes too small for {static_lines} static lines"
        );
        Self {
            static_brk: 1,
            static_limit: heap_base,
            heap_base,
            heap_end: total_lines,
            brk: heap_base,
            free_lists: vec![Vec::new(); cores],
            live: vec![false; total_lines as usize],
            allocated_not_freed: 0,
            peak: 0,
            total_allocs: 0,
            total_frees: 0,
            uaf_mode: UafMode::Panic,
            faults: Vec::new(),
        }
    }

    /// Lines of heap capacity.
    pub fn heap_lines(&self) -> u64 {
        self.heap_end - self.heap_base
    }

    /// Allocate `n` consecutive static lines (machine-build time only).
    pub fn alloc_static(&mut self, n: u64) -> Addr {
        assert!(
            self.static_brk + n <= self.static_limit,
            "static region exhausted: need {n} lines, {} left (raise MachineConfig::static_lines)",
            self.static_limit - self.static_brk
        );
        let line = self.static_brk;
        self.static_brk += n;
        self.live[line as usize..self.static_brk as usize].fill(true);
        Line(line).base()
    }

    /// Allocate one heap line for core `c`. Reuses the most recently freed
    /// line of this core first (LIFO), then fresh lines, then steals from
    /// the longest other free list. Panics on exhaustion.
    pub fn alloc(&mut self, c: CoreId) -> Addr {
        let line = if let Some(l) = self.free_lists[c].pop() {
            l
        } else if self.brk < self.heap_end {
            let l = self.brk;
            self.brk += 1;
            l
        } else {
            // Steal from the longest other list.
            let victim = (0..self.free_lists.len())
                .filter(|&o| o != c)
                .max_by_key(|&o| self.free_lists[o].len())
                .filter(|&o| !self.free_lists[o].is_empty())
                .unwrap_or_else(|| {
                    panic!(
                        "simulated heap exhausted: {} lines all live (raise MachineConfig::mem_bytes)",
                        self.heap_lines()
                    )
                });
            self.free_lists[victim].pop().expect("nonempty")
        };
        debug_assert!(
            !self.live[line as usize],
            "free list handed out a live line"
        );
        self.live[line as usize] = true;
        self.total_allocs += 1;
        self.allocated_not_freed += 1;
        self.peak = self.peak.max(self.allocated_not_freed);
        Line(line).base()
    }

    /// Free a heap line. Panics on double free or freeing a non-heap line —
    /// those are reclamation bugs the simulator exists to catch.
    pub fn free(&mut self, c: CoreId, a: Addr) {
        assert!(
            a.is_line_aligned(),
            "free of a non-line-aligned address {a:?}"
        );
        let line = a.line().0;
        assert!(
            (self.heap_base..self.heap_end).contains(&line),
            "free of non-heap address {a:?}"
        );
        assert!(line < self.brk, "free of never-allocated heap line {a:?}");
        assert!(self.live[line as usize], "DOUBLE FREE by core {c}: {a:?}");
        self.live[line as usize] = false;
        self.total_frees += 1;
        self.allocated_not_freed -= 1;
        self.free_lists[c].push(line);
    }

    /// Is `line` legal to access: a handed-out static or an allocated
    /// heap line? One lookup in the liveness table.
    #[inline(always)]
    pub fn is_live(&self, line: Line) -> bool {
        usize::try_from(line.0)
            .ok()
            .and_then(|l| self.live.get(l))
            .is_some_and(|&live| live)
    }

    /// Classify a line for the access detector (the fault path; a legal
    /// access is answered by [`Self::is_live`]).
    pub fn line_status(&self, line: Line) -> LineStatus {
        let l = line.0;
        if l == 0 {
            LineStatus::Null
        } else if l < self.static_brk {
            LineStatus::Static
        } else if l < self.static_limit {
            LineStatus::WildStatic
        } else if l < self.heap_end {
            if l >= self.brk {
                LineStatus::WildHeap
            } else if self.live[l as usize] {
                LineStatus::Allocated
            } else {
                LineStatus::Freed
            }
        } else {
            LineStatus::OutOfRange
        }
    }

    /// Validate a program data access; returns true if it may proceed.
    /// In [`UafMode::Panic`] an invalid access aborts the simulation. Runs
    /// once per memory event: the valid case is one liveness lookup, the
    /// fault is classified out of line.
    #[inline(always)]
    pub fn check_access(&mut self, core: CoreId, addr: Addr, kind: &'static str) -> bool {
        self.is_live(addr.line()) || self.access_violation(core, addr, kind)
    }

    #[cold]
    #[inline(never)]
    fn access_violation(&mut self, core: CoreId, addr: Addr, kind: &'static str) -> bool {
        let f = Fault {
            core,
            addr,
            status: self.line_status(addr.line()),
            kind,
        };
        debug_assert!(
            !matches!(f.status, LineStatus::Static | LineStatus::Allocated),
            "the liveness table and the classification disagree on {addr:?}"
        );
        match self.uaf_mode {
            UafMode::Panic => panic_access(&f),
            UafMode::Record => self.faults.push(f),
        }
        false
    }
}

/// Panic with the canonical detector message.
fn panic_access(f: &Fault) -> ! {
    panic!(
        "MEMORY SAFETY VIOLATION: core {} {} {:?} → {:?} \
         (use-after-free or wild access detected by the simulator)",
        f.core, f.kind, f.addr, f.status
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alc() -> Allocator {
        // 64 KiB memory, 16 static lines → heap base at line 17.
        Allocator::new(2, 64 * 1024, 16)
    }

    #[test]
    fn layout_classification() {
        let mut a = alc();
        let s = a.alloc_static(2);
        assert_eq!(s, Line(1).base());
        assert_eq!(a.line_status(Line(0)), LineStatus::Null);
        assert_eq!(a.line_status(Line(1)), LineStatus::Static);
        assert_eq!(a.line_status(Line(2)), LineStatus::Static);
        assert_eq!(a.line_status(Line(3)), LineStatus::WildStatic);
        assert_eq!(a.line_status(Line(17)), LineStatus::WildHeap);
        assert_eq!(a.line_status(Line(10_000)), LineStatus::OutOfRange);
    }

    /// Every line up to past the end of memory: `check_access` (one
    /// liveness lookup) passes exactly the lines the layout cascade calls
    /// `Static` or `Allocated`, and a recorded fault carries the cascade's
    /// status. Returns the statuses seen.
    fn check_every_line(a: &mut Allocator) -> Vec<LineStatus> {
        a.uaf_mode = UafMode::Record;
        let mut seen = Vec::new();
        for l in 0..a.heap_end + 2 {
            let status = a.line_status(Line(l));
            let legal = matches!(status, LineStatus::Static | LineStatus::Allocated);
            let faults = a.faults.len();
            assert_eq!(
                a.check_access(0, Line(l).base(), "read"),
                legal,
                "line {l}: {status:?}"
            );
            assert_eq!(a.is_live(Line(l)), legal, "line {l}: {status:?}");
            let recorded: Vec<_> = a.faults.drain(faults..).map(|f| f.status).collect();
            assert_eq!(
                recorded,
                if legal { vec![] } else { vec![status] },
                "line {l}"
            );
            if !seen.contains(&status) {
                seen.push(status);
            }
        }
        a.uaf_mode = UafMode::Panic;
        seen
    }

    #[test]
    fn liveness_table_matches_the_classification() {
        let mut a = alc();
        assert!(!check_every_line(&mut a).contains(&LineStatus::Static));
        let s = a.alloc_static(2);
        let x = a.alloc(0);
        let y = a.alloc(1);
        let status = |a: &Allocator, at: Addr| a.line_status(at.line());
        assert_eq!(status(&a, s), LineStatus::Static);
        assert_eq!(status(&a, x), LineStatus::Allocated);
        check_every_line(&mut a);
        a.free(0, x);
        assert_eq!(status(&a, x), LineStatus::Freed);
        check_every_line(&mut a);
        assert_eq!(a.alloc(0), x, "LIFO reuse");
        assert_eq!(status(&a, x), LineStatus::Allocated);
        a.free(0, y);
        let mut seen = check_every_line(&mut a);
        seen.sort_by_key(|s| format!("{s:?}"));
        assert_eq!(
            format!("{seen:?}"),
            "[Allocated, Freed, Null, OutOfRange, Static, WildHeap, WildStatic]",
            "every LineStatus is covered"
        );
    }

    #[test]
    #[should_panic(expected = "DOUBLE FREE")]
    fn double_free_after_reuse_detected() {
        let mut a = alc();
        let x = a.alloc(0);
        a.free(0, x);
        assert_eq!(a.alloc(0), x, "LIFO reuse");
        a.free(0, x);
        a.free(1, x);
    }

    #[test]
    fn alloc_free_reuse_is_lifo() {
        let mut a = alc();
        let x = a.alloc(0);
        let y = a.alloc(0);
        assert_ne!(x, y);
        a.free(0, x);
        let z = a.alloc(0);
        assert_eq!(z, x, "immediate LIFO reuse — required for the ABA test");
        assert_eq!(a.total_allocs, 3);
        assert_eq!(a.total_frees, 1);
        assert_eq!(a.allocated_not_freed, 2);
    }

    #[test]
    fn free_lists_are_per_core() {
        let mut a = alc();
        let x = a.alloc(0);
        a.free(1, x); // core 1 frees core 0's node
        let y = a.alloc(0); // core 0 gets a fresh line
        assert_ne!(x, y);
        let z = a.alloc(1); // core 1 reuses x
        assert_eq!(x, z);
    }

    #[test]
    fn stealing_when_exhausted() {
        // Tiny heap: total 32 lines, 1 static, heap = lines 2..32 (30 lines).
        let mut a = Allocator::new(2, 32 * 64, 1);
        let nodes: Vec<Addr> = (0..30).map(|_| a.alloc(0)).collect();
        a.free(1, nodes[0]); // only core 1's list has a free line
        let again = a.alloc(0); // core 0 must steal it
        assert_eq!(again, nodes[0]);
        a.free(0, nodes[7]);
        assert_eq!(
            a.alloc(0),
            nodes[7],
            "a full heap hands a freed line out again"
        );
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn exhaustion_panics() {
        let mut a = Allocator::new(1, 32 * 64, 1);
        for _ in 0..31 {
            a.alloc(0);
        }
    }

    #[test]
    #[should_panic(expected = "DOUBLE FREE")]
    fn double_free_detected() {
        let mut a = alc();
        let x = a.alloc(0);
        a.free(0, x);
        a.free(0, x);
    }

    #[test]
    #[should_panic(expected = "non-heap")]
    fn freeing_static_detected() {
        let mut a = alc();
        let s = a.alloc_static(1);
        a.free(0, s);
    }

    #[test]
    fn peak_tracking() {
        let mut a = alc();
        let x = a.alloc(0);
        let _y = a.alloc(0);
        a.free(0, x);
        let _z = a.alloc(0);
        assert_eq!(a.peak, 2);
        assert_eq!(a.allocated_not_freed, 2);
    }

    #[test]
    #[should_panic(expected = "MEMORY SAFETY VIOLATION")]
    fn uaf_detected_in_panic_mode() {
        let mut a = alc();
        let x = a.alloc(0);
        a.free(0, x);
        a.check_access(0, x, "read");
    }

    #[test]
    fn uaf_recorded_in_record_mode() {
        let mut a = alc();
        a.uaf_mode = UafMode::Record;
        let x = a.alloc(0);
        a.free(0, x);
        assert!(!a.check_access(1, x, "read"));
        assert_eq!(a.faults.len(), 1);
        assert_eq!(a.faults[0].core, 1);
        assert_eq!(a.faults[0].status, LineStatus::Freed);
    }

    #[test]
    fn valid_accesses_pass() {
        let mut a = alc();
        let s = a.alloc_static(1);
        let x = a.alloc(0);
        assert!(a.check_access(0, s, "read"));
        assert!(a.check_access(0, x.word(3), "write"));
    }

    #[test]
    #[should_panic(expected = "MEMORY SAFETY VIOLATION")]
    fn null_deref_detected() {
        let mut a = alc();
        a.check_access(0, Addr::NULL, "read");
    }
}
