//! Real-hardware execution environment: host threads over one flat array
//! of atomic words.
//!
//! [`NativeMachine`]'s pool is one zeroed `[AtomicU64]` from a 64-byte
//! boundary: line `l` (words `8l..8l + 8`) is one real cache line, so
//! simulated false sharing carries over, and address `a` is word `a / 8`.
//! Pages are committed on first touch, so capacity sized for the leaky
//! worst case costs address space and only touched lines cost memory.
//! [`NativeEnv`] is one host thread's handle and holds the word slice:
//! [`crate::env::Env`] reads/writes/CAS map to real atomic operations
//! (Acquire / Release / AcqRel), `fence` to a real `SeqCst` fence, and
//! `alloc`/`free` to a thread-cached free-list allocator over the pool.
//! Where the kernel supports `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`
//! (Linux x86-64), the asymmetric pair [`Env::protect_fence`] /
//! [`Env::reclaim_fence`] is a compiler fence / that syscall; elsewhere
//! both are `SeqCst` fences.
//! Live and peak lines are exact at any time; lines allocated and freed and
//! ops completed are per-thread tallies each `NativeEnv` adds in when it
//! drops, so they are exact once [`NativeMachine::run_on`] returns.
//!
//! What the native environment does **not** do:
//!
//! * model cost — `tick` is a no-op and `now` returns wall-clock
//!   nanoseconds. Throughput falls out of real elapsed time.
//! * detect use-after-free — a freed line may be recycled while a stale
//!   reader still holds its address. The memory stays valid (the pool never
//!   unmaps), so such a read observes garbage *values*, never invalid
//!   memory; the SMR schemes under test exist to make those reads
//!   impossible, and the native differential test checks they do.
//! * support Conditional Access — CA needs the paper's hardware primitive
//!   (`cread`/`cwrite` with line-tag revocation), which no shipping CPU
//!   has. CA structures stay pinned to the simulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use mcsim::Addr;

use crate::env::{Env, EnvHost, LINE_BYTES, WORDS_PER_LINE};
use crate::recovery::CrashToken;

/// Lines handed from the global free list to a thread cache per refill, and
/// returned per flush. Batching keeps the global mutex off the fast path.
const CACHE_BATCH: usize = 32;

/// Threshold at which a thread cache flushes a batch back to the global
/// free list (so one thread's frees can feed another thread's allocs).
const CACHE_MAX: usize = 2 * CACHE_BATCH;

/// Spin iterations before [`Env::spin_hint`] starts yielding the OS thread
/// instead of spinning the core (the lock holder may be preempted on an
/// oversubscribed host).
const SPIN_YIELD_AFTER: u64 = 64;

/// Words per line, as a slice length.
const WPL: usize = WORDS_PER_LINE as usize;

/// `membarrier(2)` commands, from `linux/membarrier.h`.
const MEMBARRIER_CMD_QUERY: i32 = 0;
const MEMBARRIER_CMD_PRIVATE_EXPEDITED: i32 = 1 << 3;
const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: i32 = 1 << 4;

/// `membarrier(cmd, 0, 0)`: the syscall's return value, or -1 where this
/// build has no binding for it.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn membarrier(cmd: i32) -> i64 {
    use std::ffi::{c_int, c_long, c_uint};
    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }
    const SYS_MEMBARRIER: c_long = 324;
    let (cmd, flags, cpu_id): (c_int, c_uint, c_int) = (cmd, 0, 0);
    // SAFETY: `syscall` is variadic; `membarrier` reads exactly these three
    // arguments at these C types (`int cmd, unsigned int flags, int
    // cpu_id`). It takes no pointer, so it touches no memory of ours, and
    // it reports failure through its return value.
    unsafe { syscall(SYS_MEMBARRIER, cmd, flags, cpu_id) }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
fn membarrier(_cmd: i32) -> i64 {
    -1
}

/// Whether the asymmetric fence pair may be used: the `QUERY` mask lists
/// `PRIVATE_EXPEDITED` and the process registered for it (`register`
/// returned 0). Anything else keeps both halves full fences.
fn asymmetric_fences_ok(query: i64, register: impl FnOnce() -> i64) -> bool {
    query >= 0 && query & MEMBARRIER_CMD_PRIVATE_EXPEDITED as i64 != 0 && register() == 0
}

/// Register the process for expedited private membarriers, once; every
/// later call returns the first call's verdict.
fn asymmetric_fences() -> bool {
    static REGISTERED: OnceLock<bool> = OnceLock::new();
    *REGISTERED.get_or_init(|| {
        asymmetric_fences_ok(membarrier(MEMBARRIER_CMD_QUERY), || {
            membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED)
        })
    })
}

/// The word at address `a` of the pool `words`: word `a / 8`.
#[inline]
fn word_at(words: &[AtomicU64], a: Addr) -> &AtomicU64 {
    debug_assert!(a.0 >= LINE_BYTES, "word access through NULL line: {a:?}");
    &words[(a.0 / 8) as usize]
}

/// Run-wide counters, on a cache line of their own. `live` and `peak` are
/// exact at any time; the rest are flushed by dropped [`NativeEnv`]s.
#[derive(Default)]
#[repr(align(64))]
struct Counts {
    /// Lines live (a counter of its own: a torn `allocated - freed` wraps).
    live: AtomicU64,
    /// High-water mark of `live`.
    peak: AtomicU64,
    /// Lines ever allocated (static + dynamic) and freed; operations done.
    allocated: AtomicU64,
    freed: AtomicU64,
    ops: AtomicU64,
}

/// A pool of real cache lines plus run-wide counters: the native
/// counterpart of `mcsim::Machine`.
pub struct NativeMachine {
    /// The zeroed allocation, and the range of it that is the pool:
    /// `capacity_lines() * 8` words from the first 64-byte boundary.
    alloc: Box<[AtomicU64]>,
    pool: std::ops::Range<usize>,
    /// Bump allocator over never-yet-used lines. Line 0 is reserved so that
    /// `Addr(0)` stays NULL, exactly as in the simulator.
    next: AtomicU64,
    /// Recycled lines, fed by thread-cache flushes.
    free_list: Mutex<Vec<u64>>,
    counts: Counts,
    start: Instant,
    /// [`Env::protect_fence`] / [`Env::reclaim_fence`] are a compiler
    /// fence / a `membarrier` (else both are `SeqCst` fences).
    asymmetric: bool,
}

/// Counters snapshot for a native run (the analog of `MachineStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeStats {
    /// Lines ever allocated.
    pub allocated: u64,
    /// Lines freed.
    pub freed: u64,
    /// Lines currently live (`allocated - freed`).
    pub allocated_not_freed: u64,
    /// High-water mark of live lines.
    pub peak_allocated: u64,
    /// Completed operations ([`Env::op_completed`]).
    pub total_ops: u64,
    /// Wall-clock nanoseconds since the machine was built (or last
    /// [`NativeMachine::reset_timing`]).
    pub wall_ns: u64,
}

impl NativeMachine {
    /// Build a machine whose pool holds `lines` allocation lines (line 0 is
    /// reserved for NULL, so the usable capacity is `lines - 1`).
    #[expect(
        clippy::disallowed_methods,
        reason = "the native backend measures wall clock by design"
    )]
    pub fn new(lines: usize) -> Self {
        assert!(lines >= 2, "pool needs at least one usable line");
        // At 8-byte alignment `alloc_zeroed` is `calloc`, which maps zero
        // pages (at 64 std would `memset` them): align the start by hand.
        let alloc = Box::<[AtomicU64]>::new_zeroed_slice((lines + 1) * WPL - 1);
        // SAFETY: all-zero bytes are a valid `AtomicU64` (the value 0).
        let alloc = unsafe { alloc.assume_init() };
        let base = alloc.as_ptr().addr().wrapping_neg() % LINE_BYTES as usize / 8;
        NativeMachine {
            alloc,
            pool: base..base + lines * WPL,
            next: AtomicU64::new(1),
            free_list: Mutex::new(Vec::new()),
            counts: Counts::default(),
            start: Instant::now(),
            asymmetric: asymmetric_fences(),
        }
    }

    /// Pool capacity in lines (including the reserved NULL line).
    pub fn capacity_lines(&self) -> usize {
        self.pool.len() / WPL
    }

    /// The pool, cut to length: past the last line is a bounds-check panic.
    fn words(&self) -> &[AtomicU64] {
        &self.alloc[self.pool.clone()]
    }

    /// Refill an empty thread cache: a batch of recycled lines, else one
    /// never-used line (a whole batch would strand capacity others need).
    fn take_lines(&self, out: &mut Vec<u64>) {
        let mut fl = self.free_list.lock().expect("free list lock poisoned");
        let keep = fl.len().saturating_sub(CACHE_BATCH);
        out.extend(fl.drain(keep..).rev()); // the order `pop` would give
        drop(fl);
        if out.is_empty() {
            let l = self.next.fetch_add(1, Ordering::Relaxed);
            assert!(
                (l as usize) < self.capacity_lines(),
                "native line pool exhausted ({} lines) — size the pool for \
                 the leaky worst case",
                self.capacity_lines()
            );
            out.push(l);
        }
    }

    /// `lines` more are live; the peak's line is written only on a new high.
    fn count_alloc(&self, lines: u64) {
        let live = self.counts.live.fetch_add(lines, Ordering::Relaxed) + lines;
        if live > self.counts.peak.load(Ordering::Relaxed) {
            self.counts.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// Restart the wall clock and the operation counter (call between the
    /// prefill and the timed section, like `Machine::reset_timing`).
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock restart between prefill and timed phase"
    )]
    pub fn reset_timing(&mut self) {
        self.start = Instant::now();
        self.counts.ops.store(0, Ordering::Relaxed);
    }

    /// Counters snapshot.
    pub fn stats(&self) -> NativeStats {
        let c = &self.counts;
        NativeStats {
            allocated: c.allocated.load(Ordering::Relaxed),
            freed: c.freed.load(Ordering::Relaxed),
            allocated_not_freed: c.live.load(Ordering::Relaxed),
            peak_allocated: c.peak.load(Ordering::Relaxed),
            total_ops: c.ops.load(Ordering::Relaxed),
            wall_ns: self.start.elapsed().as_nanos() as u64,
        }
    }

    /// Run `f` on `n` real host threads, returning the per-thread results
    /// in thread-id order. The native analog of `Machine::run_on`, and like
    /// it, a worker's panic is re-raised here with its own payload.
    pub fn run_on<R: Send>(
        &self,
        n: usize,
        f: impl Fn(usize, &mut NativeEnv<'_>) -> R + Sync,
    ) -> Vec<R> {
        let f = &f;
        std::thread::scope(|s| {
            (0..n)
                .map(|tid| s.spawn(move || f(tid, &mut NativeEnv::new(self, tid, n))))
                .collect::<Vec<_>>() // spawn them all before joining any
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }
}

impl EnvHost for NativeMachine {
    fn alloc_static(&self, lines: u64) -> Addr {
        // Static allocations are contiguous and never freed: straight off
        // the bump pointer (recycled lines are not necessarily contiguous).
        let first = self.next.fetch_add(lines, Ordering::Relaxed);
        assert!(
            (first + lines) as usize <= self.capacity_lines(),
            "native line pool exhausted by static allocation"
        );
        self.counts.allocated.fetch_add(lines, Ordering::Relaxed);
        self.count_alloc(lines);
        Addr(first * LINE_BYTES)
    }

    #[inline]
    fn host_read(&self, a: Addr) -> u64 {
        word_at(self.words(), a).load(Ordering::Acquire)
    }

    #[inline]
    fn host_write(&self, a: Addr, v: u64) {
        word_at(self.words(), a).store(v, Ordering::Release)
    }

    fn run_init<R: Send>(&self, f: impl FnOnce(&mut dyn Env) -> R + Send) -> R {
        f(&mut NativeEnv::new(self, 0, 1))
    }
}

/// One padded heartbeat counter (its own cache line, so one worker's
/// beats never invalidate another's line).
#[repr(align(64))]
struct Beat(AtomicU64);

/// Crash detection for native membership churn: a bounded-deadline
/// liveness lease over per-worker heartbeat counters.
///
/// Each worker bumps its counter ([`HeartbeatBoard::beat`]) as it makes
/// progress; a peer that suspects it dead probes the counter with
/// exponential backoff ([`HeartbeatBoard::detect`]) and, once a full
/// deadline passes with no movement, declares the worker fail-stop and
/// mints the [`CrashToken`] that unlocks forcible adoption
/// ([`crate::api::Smr::adopt`]).
///
/// Unlike the simulator — where a crash is injected, so the declaration is
/// ground truth — native detection is a *membership contract*: the lease
/// deadline IS the fail-stop boundary, exactly as in real cluster
/// membership services. The contract is only sound if workers honor it
/// (a worker that can't beat before the deadline must stop touching
/// shared scheme state), which is why [`HeartbeatBoard::detect`] is
/// `unsafe` and delegates its proof obligation to the caller.
pub struct HeartbeatBoard {
    beats: Box<[Beat]>,
}

impl HeartbeatBoard {
    /// A board for `threads` workers, all counters at zero.
    pub fn new(threads: usize) -> Self {
        HeartbeatBoard {
            beats: (0..threads).map(|_| Beat(AtomicU64::new(0))).collect(),
        }
    }

    /// Record progress for worker `tid`. Release so the beat orders after
    /// the scheme work it certifies.
    #[inline]
    pub fn beat(&self, tid: usize) {
        self.beats[tid].0.fetch_add(1, Ordering::Release);
    }

    /// Current beat count of worker `tid`.
    #[inline]
    pub fn read(&self, tid: usize) -> u64 {
        self.beats[tid].0.load(Ordering::Acquire)
    }

    /// Probe worker `tid` until it either beats (→ `None`, it is alive) or
    /// a full `deadline` passes with no movement (→ a [`CrashToken`]
    /// declaring it fail-stop). Probing backs off exponentially — 1 ms,
    /// 2 ms, 4 ms, … up to 50 ms — so a healthy worker costs a handful of
    /// loads while a dead one costs one wakeup per 50 ms of `deadline`.
    ///
    /// # Safety
    ///
    /// Returning `Some` *declares* the worker fail-stop; the token lets a
    /// survivor retract the worker's SMR publications. The caller must
    /// guarantee the membership contract: a worker that has not beaten for
    /// `deadline` will never again touch shared scheme state (e.g. workers
    /// check in strictly more often than `deadline`, or the supervisor has
    /// already reaped the thread). Declaring a live-but-slow worker
    /// crashed is a use-after-free.
    #[expect(
        clippy::disallowed_methods,
        reason = "liveness detection is wall-clock by design"
    )]
    pub unsafe fn detect(&self, tid: usize, deadline: Duration) -> Option<CrashToken> {
        let snapshot = self.read(tid);
        let start = Instant::now();
        let mut backoff = Duration::from_millis(1);
        loop {
            std::thread::sleep(backoff);
            if self.read(tid) != snapshot {
                return None; // it moved: alive
            }
            if start.elapsed() >= deadline {
                // SAFETY: the lease expired, so the membership contract
                // (this fn's own safety obligation, met by the caller)
                // makes the fail-stop declaration sound.
                return Some(unsafe { CrashToken::assert_fail_stop(tid) });
            }
            backoff = (backoff * 2).min(Duration::from_millis(50));
        }
    }
}

/// One host thread's handle onto a [`NativeMachine`].
pub struct NativeEnv<'p> {
    mach: &'p NativeMachine,
    /// The pool, held here so accesses never load through `mach`.
    words: &'p [AtomicU64],
    tid: usize,
    threads: usize,
    /// The machine's fence-pair verdict, copied off the shared struct.
    asymmetric: bool,
    /// Thread-local cache of free lines.
    cache: Vec<u64>,
    /// Completed operations, allocs and frees counted here, flushed on drop.
    ops: u64,
    allocated: u64,
    freed: u64,
}

impl<'p> NativeEnv<'p> {
    fn new(mach: &'p NativeMachine, tid: usize, threads: usize) -> Self {
        NativeEnv {
            mach,
            words: mach.words(),
            tid,
            threads,
            asymmetric: mach.asymmetric,
            cache: Vec::with_capacity(CACHE_MAX + 1),
            ops: 0,
            allocated: 0,
            freed: 0,
        }
    }
}

impl Drop for NativeEnv<'_> {
    fn drop(&mut self) {
        let c = &self.mach.counts;
        c.ops.fetch_add(self.ops, Ordering::Relaxed);
        c.allocated.fetch_add(self.allocated, Ordering::Relaxed);
        c.freed.fetch_add(self.freed, Ordering::Relaxed);
        self.mach.free_list.lock().unwrap().append(&mut self.cache);
    }
}

impl Env for NativeEnv<'_> {
    #[inline]
    fn tid(&self) -> usize {
        self.tid
    }

    #[inline]
    fn threads(&self) -> usize {
        self.threads
    }

    #[inline]
    fn read(&mut self, a: Addr) -> u64 {
        word_at(self.words, a).load(Ordering::Acquire)
    }

    #[inline]
    fn write(&mut self, a: Addr, v: u64) {
        word_at(self.words, a).store(v, Ordering::Release)
    }

    #[inline]
    fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64> {
        word_at(self.words, a).compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
    }

    #[inline]
    fn fence(&mut self) {
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    #[inline]
    fn tick(&mut self, _n: u64) {
        // Real time; the host CPU already charged us.
    }

    fn alloc(&mut self) -> Addr {
        if self.cache.is_empty() {
            self.mach.take_lines(&mut self.cache);
        }
        let l = self.cache.pop().expect("take_lines fills or panics") as usize;
        // Zero the line. Relaxed suffices: the line is published to other
        // threads only by a later Release store/CAS of its address.
        for w in &self.words[l * WPL..(l + 1) * WPL] {
            w.store(0, Ordering::Relaxed);
        }
        self.allocated += 1;
        self.mach.count_alloc(1);
        Addr(l as u64 * LINE_BYTES)
    }

    /// Panics, with `mcsim::alloc`'s messages, on a misaligned address, the
    /// NULL line, or a line the bump pointer never handed out: recycling
    /// any of them would later make `alloc` return it. A double free, or
    /// the free of a static line, goes undetected: that needs a per-line
    /// bitmap.
    fn free(&mut self, a: Addr) {
        assert!(
            a.0.is_multiple_of(LINE_BYTES),
            "free of a non-line-aligned address {a:?}"
        );
        let line = a.0 / LINE_BYTES;
        assert!(line != 0, "free of non-heap address {a:?}");
        // Relaxed suffices: the bump that handed `line` out happens before
        // the Release store that published its address to this thread.
        assert!(
            line < self.mach.next.load(Ordering::Relaxed),
            "free of never-allocated heap line {a:?}"
        );
        self.cache.push(line);
        self.freed += 1;
        self.mach.counts.live.fetch_sub(1, Ordering::Relaxed);
        if self.cache.len() >= CACHE_MAX {
            let spill = self.cache.len() - CACHE_BATCH;
            let mut fl = self.mach.free_list.lock().unwrap();
            fl.extend(self.cache.drain(spill..));
        }
    }

    #[inline]
    fn op_completed(&mut self) {
        self.ops += 1;
    }

    #[inline]
    fn now(&mut self) -> u64 {
        self.mach.start.elapsed().as_nanos() as u64
    }

    /// Real full fence: the simulator is sequentially consistent and leaves
    /// this a no-op, but on weakly-ordered hosts the SMR reclaim side needs
    /// it (see the trait doc for the litmus).
    #[inline]
    fn smr_fence(&mut self) {
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// A compiler fence when [`Env::reclaim_fence`] is a `membarrier`:
    /// the kernel then runs the hardware fence on this thread at the
    /// moment a reclaimer needs it, and only the compiler must keep the
    /// publish store ahead of the re-read.
    #[inline]
    fn protect_fence(&mut self) {
        if self.asymmetric {
            std::sync::atomic::compiler_fence(Ordering::SeqCst);
        } else {
            std::sync::atomic::fence(Ordering::SeqCst);
        }
    }

    /// `membarrier(PRIVATE_EXPEDITED)`: a full fence on every running
    /// thread of the process, this one included (the kernel fences on
    /// entry and exit), so a protect that issued only a compiler fence is
    /// ordered before the loads that follow.
    #[inline]
    fn reclaim_fence(&mut self) {
        if self.asymmetric {
            let r = membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
            assert_eq!(r, 0, "membarrier failed after registering");
        } else {
            std::sync::atomic::fence(Ordering::SeqCst);
        }
    }

    #[inline]
    fn spin_hint(&mut self, iter: u64) {
        if iter < SPIN_YIELD_AFTER {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_recycles_within_pool() {
        let m = NativeMachine::new(64);
        m.run_on(1, |_, env| {
            // Churn far more allocations than the pool holds: frees must
            // recycle.
            for i in 0..10_000u64 {
                let a = env.alloc();
                env.write(a, i);
                assert_eq!(env.read(a), i);
                env.free(a);
            }
        });
        let st = m.stats();
        assert_eq!(st.allocated, 10_000);
        assert_eq!(st.freed, 10_000);
        assert_eq!(st.allocated_not_freed, 0);
        assert!(st.peak_allocated <= 64);
    }

    #[test]
    fn pool_exhaustion_panics() {
        let m = NativeMachine::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_on(1, |_, env| {
                for _ in 0..10 {
                    let _ = env.alloc(); // never freed
                }
            });
        }));
        assert!(r.is_err(), "exhausting the pool must panic, not wrap");
    }

    #[test]
    fn alloc_returns_zeroed_lines() {
        let m = NativeMachine::new(16);
        m.run_on(1, |_, env| {
            let a = env.alloc();
            for w in 0..WORDS_PER_LINE {
                env.write(a.word(w), u64::MAX);
            }
            env.free(a);
            let b = env.alloc(); // likely recycles `a`
            for w in 0..WORDS_PER_LINE {
                assert_eq!(env.read(b.word(w)), 0, "recycled line must be zeroed");
            }
        });
    }

    #[test]
    fn cross_thread_handoff_is_visible() {
        let m = NativeMachine::new(1024);
        let mailbox = m.alloc_static(1);
        let results = m.run_on(2, |tid, env| {
            if tid == 0 {
                let n = env.alloc();
                env.write(n, 4242);
                env.write(mailbox, n.0);
                0
            } else {
                let mut p = env.read(mailbox);
                while p == 0 {
                    std::hint::spin_loop();
                    p = env.read(mailbox);
                }
                env.read(Addr(p))
            }
        });
        assert_eq!(results[1], 4242, "Release publish / Acquire consume");
    }

    #[test]
    fn static_allocations_are_contiguous_and_distinct() {
        let m = NativeMachine::new(64);
        let a = m.alloc_static(2);
        let b = m.alloc_static(1);
        assert_eq!(b.0 - a.0, 2 * LINE_BYTES);
        m.host_write(a, 1);
        m.host_write(b, 2);
        assert_eq!(m.host_read(a), 1);
        assert_eq!(m.host_read(b), 2);
    }

    #[test]
    fn peak_live_never_wraps_under_concurrent_churn() {
        // Regression: the peak was computed from two separate counters
        // (`allocated.fetch_add` then a stale `freed.load`), so concurrent
        // alloc+free could make `freed` exceed the snapshot and wrap the
        // subtraction to ~u64::MAX, poisoning memory-footprint figures.
        let m = NativeMachine::new(4096);
        m.run_on(4, |_, env| {
            for _ in 0..20_000u64 {
                let a = env.alloc();
                env.free(a);
            }
        });
        let st = m.stats();
        assert_eq!(st.allocated, 80_000);
        assert_eq!(st.freed, 80_000);
        assert_eq!(st.allocated_not_freed, 0);
        assert!(
            (1..=4096).contains(&st.peak_allocated),
            "peak must stay within pool bounds, got {}",
            st.peak_allocated
        );
    }

    #[test]
    fn peak_allocated_is_exact_for_a_scripted_sequence() {
        let m = NativeMachine::new(64);
        m.run_on(1, |_, env| {
            let mut held: Vec<Addr> = (0..5).map(|_| env.alloc()).collect();
            for a in held.drain(..3) {
                env.free(a);
            }
            held.extend((0..2).map(|_| env.alloc()));
            held.extend((0..2).map(|_| env.alloc()));
        });
        let st = m.stats();
        assert_eq!(st.allocated, 9);
        assert_eq!(st.freed, 3);
        assert_eq!(st.allocated_not_freed, 6);
        assert_eq!(st.peak_allocated, 6, "live went 5, 2, 4, 6");
    }

    #[test]
    fn ledger_is_exact_after_multi_thread_churn() {
        for threads in [2u64, 4] {
            let m = NativeMachine::new(16 * 1024);
            m.run_on(threads as usize, |_, env| {
                // Keep every third line, free the rest right away.
                for i in 0..3000u64 {
                    let a = env.alloc();
                    if i % 3 != 0 {
                        env.free(a);
                    }
                }
            });
            let st = m.stats();
            assert_eq!(st.allocated, threads * 3000, "{threads} threads");
            assert_eq!(st.freed, threads * 2000, "{threads} threads");
            assert_eq!(st.allocated_not_freed, threads * 1000, "{threads} threads");
            assert!(st.peak_allocated >= threads * 1000, "{threads} threads");
        }
    }

    #[test]
    fn every_line_sits_on_a_cache_line() {
        let m = NativeMachine::new(300);
        for l in 1..m.capacity_lines() as u64 {
            let base = word_at(m.words(), Addr(l * LINE_BYTES)).as_ptr() as usize;
            assert_eq!(base % 64, 0, "line {l} starts at {base:#x}");
            for w in 1..WORDS_PER_LINE {
                let p = word_at(m.words(), Addr(l * LINE_BYTES + 8 * w)).as_ptr() as usize;
                assert_eq!(p, base + 8 * w as usize, "line {l} word {w}");
            }
        }
    }

    #[test]
    fn access_past_the_last_line_panics() {
        let m = NativeMachine::new(16);
        let end = m.capacity_lines() as u64 * LINE_BYTES;
        for a in [end, end + 8, end + LINE_BYTES - 8] {
            let r = std::panic::catch_unwind(|| m.host_read(Addr(a)));
            assert!(r.is_err(), "a read at {a:#x} must panic");
        }
    }

    #[test]
    #[should_panic(expected = "free of non-heap address")]
    fn freeing_the_null_line_panics() {
        NativeMachine::new(16).run_init(|env| env.free(Addr(0)));
    }

    #[test]
    #[should_panic(expected = "free of never-allocated heap line")]
    fn freeing_a_line_past_the_bump_pointer_panics() {
        NativeMachine::new(16).run_init(|env| {
            let a = env.alloc();
            env.free(Addr(a.0 + LINE_BYTES));
        });
    }

    #[test]
    #[should_panic(expected = "free of a non-line-aligned address")]
    fn freeing_a_misaligned_address_panics() {
        NativeMachine::new(16).run_init(|env| {
            let a = env.alloc();
            env.free(a.word(1));
        });
    }

    #[test]
    fn fence_pair_is_asymmetric_only_after_registering() {
        let bit = MEMBARRIER_CMD_PRIVATE_EXPEDITED as i64;
        let refuse = || -> i64 { panic!("registered without the QUERY bit") };
        assert!(asymmetric_fences_ok(0x3ff, || 0));
        assert!(!asymmetric_fences_ok(0x3ff & !bit, refuse), "no bit");
        assert!(!asymmetric_fences_ok(-38, refuse), "ENOSYS");
        assert!(!asymmetric_fences_ok(bit, || -1), "registration refused");
        let linux_x86_64 = cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));
        assert_eq!(NativeMachine::new(2).asymmetric, linux_x86_64);
    }

    #[test]
    fn never_used_lines_read_zero() {
        let m = NativeMachine::new(256);
        let field = m.alloc_static(2);
        m.host_write(field, u64::MAX);
        m.run_on(1, |_, env| {
            for _ in 0..4 {
                let a = env.alloc();
                env.write(a.word(WORDS_PER_LINE - 1), u64::MAX);
            }
        });
        let first_unused = m.next.load(Ordering::Relaxed);
        assert!(first_unused < m.capacity_lines() as u64);
        for l in first_unused..m.capacity_lines() as u64 {
            for w in 0..WORDS_PER_LINE {
                let v = m.host_read(Addr(l * LINE_BYTES + 8 * w));
                assert_eq!(v, 0, "line {l} word {w}");
            }
        }
    }

    #[test]
    fn ops_and_threads_are_counted() {
        let m = NativeMachine::new(16);
        m.run_on(4, |tid, env| {
            assert_eq!(env.tid(), tid);
            assert_eq!(env.threads(), 4);
            for _ in 0..10 {
                env.op_completed();
            }
        });
        assert_eq!(m.stats().total_ops, 40);
    }

    #[test]
    fn heartbeat_board_sees_a_live_worker() {
        let board = HeartbeatBoard::new(2);
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while stop.load(Ordering::Acquire) == 0 {
                    board.beat(1);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            // SAFETY: worker 1 beats every millisecond, far inside the
            // 500 ms lease; `None` is the only sound outcome.
            let verdict = unsafe { board.detect(1, Duration::from_millis(500)) };
            assert!(
                verdict.is_none(),
                "a beating worker must not be declared dead"
            );
            stop.store(1, Ordering::Release);
        });
    }

    #[test]
    fn heartbeat_board_declares_a_silent_worker_after_a_long_lease() {
        // Regression: the probe interval doubled without bound, and the
        // 74th doubling (~3.5 s of probing) overflowed `Duration`, so any
        // lease longer than that panicked instead of minting the token.
        let board = HeartbeatBoard::new(2);
        // SAFETY: worker 1 never runs, so it can touch no scheme state.
        let verdict = unsafe { board.detect(1, Duration::from_secs(4)) };
        assert!(verdict.is_some(), "a silent worker must be declared");
    }

    /// Native churn, fail-stop leg: a worker goes silent mid-run without
    /// departing; the survivor's detector declares it crashed after the
    /// bounded deadline and adopts its orphaned qsbr state. Without the
    /// adoption the victim's never-again-updated announcement would pin
    /// every retire forever; with it, accounting balances to zero leaked
    /// lines. (This test also runs under ASan in CI.)
    #[test]
    fn crashed_native_worker_is_detected_and_adopted() {
        use crate::api::{Smr, SmrBase, SmrConfig};
        use crate::qsbr::Qsbr;
        use crate::recovery::{Orphan, TlsVault};

        let m = NativeMachine::new(4 * 1024);
        let cfg = SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 2,
        };
        let s = Qsbr::new(&m, 2, cfg);
        let board = HeartbeatBoard::new(2);
        let vault = TlsVault::new(2);
        let crashed = AtomicU64::new(0);

        m.run_on(2, |tid, env| {
            if tid == 1 {
                // The victim: works through its vault slot (state survives
                // abandonment), beats while healthy, then goes silent
                // without departing — the last beat is its final touch of
                // anything shared, honoring the lease contract.
                vault.put(1, s.register(1));
                let mut guard = vault.lock(1);
                let tls = guard.as_mut().unwrap();
                for _ in 0..40 {
                    s.begin_op(env, tls);
                    let n = env.alloc();
                    s.on_alloc(env, tls, n);
                    env.write(n, 1);
                    s.retire(env, tls, n);
                    s.end_op(env, tls);
                    board.beat(1);
                }
                crashed.store(1, Ordering::Release);
                // Fail-stop: return without depart(); the retire-list
                // residue stays parked in the vault.
            } else {
                let mut tls = s.register(0);
                // Churn concurrently with the victim (bounded: until the
                // victim announces, nothing of ours can be freed), then
                // wait out its silence.
                for _ in 0..40 {
                    s.begin_op(env, &mut tls);
                    let n = env.alloc();
                    s.on_alloc(env, &mut tls, n);
                    env.write(n, 1);
                    s.retire(env, &mut tls, n);
                    s.end_op(env, &mut tls);
                    board.beat(0);
                }
                while crashed.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                // SAFETY: the victim's protocol is beat-after-every-op and
                // nothing after the `crashed` flag; once the lease expires
                // it can never touch scheme state again.
                let token = unsafe { board.detect(1, Duration::from_millis(200)) }
                    .expect("a silent worker must be declared crashed");
                let orphan_tls = vault.take(1).expect("victim parked its state");
                s.adopt(env, &mut tls, Orphan::crashed(orphan_tls, token));
                // Drain our own backlog too, then leave gracefully. With
                // the victim's announcement retracted and our own going
                // INACTIVE, the departing scan can free everything.
                let orphan = s.depart(env, tls);
                assert!(!orphan.is_crashed());
                let residue = s.garbage(orphan.tls());
                assert_eq!(residue.live, 0, "last member's depart drains everything");
            }
        });
        let st = m.stats();
        // Adoption retracted the victim's announcement and drained both
        // retire lists: nothing leaks (the announce/era static lines are
        // the only live allocations).
        let static_lines = 3; // era line + 2 announce lines
        assert_eq!(
            st.allocated_not_freed, static_lines,
            "crash + adopt must leave zero leaked heap lines"
        );
    }

    /// Native churn, graceful leg: a worker departs mid-run handing its
    /// orphan to a survivor, and a replacement joins under the same tid.
    #[test]
    fn graceful_native_churn_departs_and_rejoins() {
        use crate::api::{Smr, SmrBase, SmrConfig};
        use crate::qsbr::Qsbr;
        use crate::recovery::TlsVault;

        let m = NativeMachine::new(4 * 1024);
        let cfg = SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 2,
        };
        let s = Qsbr::new(&m, 2, cfg);
        let handoff = TlsVault::new(2);
        let departed = AtomicU64::new(0);

        m.run_on(2, |tid, env| {
            let churn = |env: &mut NativeEnv<'_>, tls: &mut _, rounds: usize| {
                for _ in 0..rounds {
                    s.begin_op(env, tls);
                    let n = env.alloc();
                    s.on_alloc(env, tls, n);
                    env.write(n, 1);
                    s.retire(env, tls, n);
                    s.end_op(env, tls);
                }
            };
            if tid == 1 {
                // First incarnation: work, then leave gracefully.
                let mut tls = s.register(1);
                churn(env, &mut tls, 30);
                let orphan = s.depart(env, tls);
                handoff.put(0, orphan);
                departed.store(1, Ordering::Release);
                // Second incarnation: rejoin under the same tid and keep
                // working — join re-announces before the first op.
                let mut tls = s.join(env, 1);
                churn(env, &mut tls, 30);
                handoff.put(1, s.depart(env, tls));
                departed.store(2, Ordering::Release);
            } else {
                let mut tls = s.register(0);
                // Bounded concurrent churn (until tid 1's first
                // announcement, none of it can be freed), then wait.
                churn(env, &mut tls, 30);
                while departed.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                s.adopt(env, &mut tls, handoff.take(0).expect("first handoff"));
                churn(env, &mut tls, 30);
                // Last member standing: adopt the final orphan, then a
                // departing scan (everyone else INACTIVE) drains it all.
                while departed.load(Ordering::Acquire) != 2 {
                    std::thread::yield_now();
                }
                s.adopt(env, &mut tls, handoff.take(1).expect("final handoff"));
                let last = s.depart(env, tls);
                assert_eq!(
                    s.garbage(last.tls()).live,
                    0,
                    "last member's depart drains everything"
                );
            }
        });
        let st = m.stats();
        let static_lines = 3; // era line + 2 announce lines
        assert_eq!(
            st.allocated_not_freed, static_lines,
            "graceful churn must leave zero leaked heap lines"
        );
    }
}
