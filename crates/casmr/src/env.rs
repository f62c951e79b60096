//! The memory-environment abstraction that lifts the SMR schemes (and the
//! `cads` data structures built on them) off the simulator.
//!
//! [`Env`] is the per-thread execution surface: word-granular shared-memory
//! reads/writes/CAS, line-granular alloc/free, fences, and cost charging.
//! Two families implement it:
//!
//! * [`mcsim::machine::Ctx`] — the deterministic simulator. Every method
//!   delegates to the identically-named inherent method, so code written
//!   against `Env` executes the **exact same simulated operation sequence**
//!   as code written against `Ctx` directly (the byte-identity regression
//!   pin in `tests/env_pin.rs` holds the refactor to this).
//! * [`crate::native::NativeEnv`] — real host threads over a pool of
//!   cache-line-aligned `AtomicU64` words. `tick` is a no-op (real time is
//!   measured, not modeled) and `now` returns wall-clock nanoseconds.
//!
//! [`EnvHost`] is the owner-side counterpart ([`mcsim::Machine`] or
//! [`crate::native::NativeMachine`]): static allocation and quiesced
//! host-side reads/writes used by constructors and checkers, plus
//! [`EnvHost::run_init`] for single-threaded structure initialization.
//!
//! The trait is object-safe on purpose: structure *constructors* only need
//! `alloc`/`write`, so `run_init` can hand them a `&mut dyn Env` and stay
//! free of higher-ranked closure bounds.

use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

/// Bytes per allocation line. Every node in this repository is one line.
///
/// Kept as a crate-local constant so garbage accounting does not depend on
/// the simulator crate's geometry; the const assertion below keeps the two
/// in lockstep.
pub const LINE_BYTES: u64 = 64;

/// Words per line (the allocation granule is 8 × 8-byte words).
pub const WORDS_PER_LINE: u64 = LINE_BYTES / 8;

const _: () = assert!(LINE_BYTES == mcsim::LINE_BYTES);
const _: () = assert!(WORDS_PER_LINE == mcsim::WORDS_PER_LINE);

/// A per-thread execution environment: shared memory, allocation, ordering,
/// and cost accounting.
///
/// # Contract
///
/// * Addresses are [`Addr`] byte addresses; `read`/`write`/`cas` operate on
///   naturally-aligned 8-byte words, `alloc`/`free` on [`LINE_BYTES`]-sized
///   lines (`alloc` returns the line's base address with all words zeroed).
/// * `cas` returns `Ok(expected)` on success and `Err(actual)` on failure,
///   with acquire/release ordering on the simulated or real machine.
/// * `fence` is a full (sequentially-consistent) memory fence.
/// * `tick` charges private work that touches no shared memory. Simulated
///   environments advance the thread's clock; native environments ignore it
///   (the host CPU already paid for the work).
/// * `free` returns a line to the allocator. Environments are not required
///   to detect use-after-free (the simulator does when armed; the native
///   pool recycles lines, so a racing stale read observes garbage *values*
///   but never invalid *memory*) — SMR schemes exist precisely to make such
///   reads impossible.
/// * `tid`/`threads` identify the calling thread within the current run;
///   `op_completed` marks one finished high-level operation for throughput
///   accounting; `now` is the environment's clock (simulated cycles or
///   wall-clock nanoseconds — comparable within one environment only).
pub trait Env {
    /// This thread's id within the run (`0..threads()`).
    fn tid(&self) -> usize;
    /// Number of threads participating in the run.
    fn threads(&self) -> usize;
    /// Word read.
    fn read(&mut self, a: Addr) -> u64;
    /// Word write.
    fn write(&mut self, a: Addr, v: u64);
    /// Word compare-and-swap: `Ok(expected)` on success, `Err(actual)` else.
    fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64>;
    /// Full memory fence.
    fn fence(&mut self);
    /// Charge `n` units of private (non-shared-memory) work.
    fn tick(&mut self, n: u64);
    /// Allocate one zeroed line; panics when memory is exhausted.
    fn alloc(&mut self) -> Addr;
    /// Return a line to the allocator.
    fn free(&mut self, a: Addr);
    /// Count one completed high-level operation.
    fn op_completed(&mut self);
    /// Current time in environment-native units (cycles / nanoseconds).
    fn now(&mut self) -> u64;

    /// Full fence required by the SMR protocols on weakly-ordered hardware
    /// but **uncharged** (a no-op) in the simulator.
    ///
    /// The schemes' reclaim side must order an earlier unlink store before
    /// the loads that stamp the retire era and snapshot peer hazard /
    /// reservation lines (the store-buffer litmus: without it, a scan can
    /// miss a just-published hazard whose owner still observed the node
    /// linked, and an era stamp can be read before the unlink is globally
    /// visible, making a retired node look older — and freeable — while a
    /// reader still holds it). QSBR additionally needs it on the reader
    /// side, between the quiescent-state announcement and the next
    /// operation's reads (liburcu issues the same barrier).
    ///
    /// The asymmetry is deliberate: the simulator is sequentially
    /// consistent, so these fences have no semantic effect there, and the
    /// paper's pinned cost model (the byte-identity golden in
    /// `tests/env_pin.rs`) predates them — `Ctx` keeps an uncosted no-op
    /// (except under `MachineConfig::race_check`, where it issues a
    /// zero-cost trace event so the `mcsim::hb` analyzer sees the edge),
    /// [`crate::native::NativeEnv`] overrides with a real `SeqCst` fence.
    /// Fences the cost model *does* charge go through [`Env::fence`]
    /// (rcu's pin) or [`Env::protect_fence`] (hp's per-protect fence)
    /// instead; hp's scan fence is [`Env::reclaim_fence`].
    #[inline]
    fn smr_fence(&mut self) {}

    /// The light half of an asymmetric fence pair: issued by a reader
    /// between publishing a reservation (a hazard pointer) and re-reading
    /// the field it protects. Defaults to [`Env::fence`], so the simulator
    /// charges and traces exactly the fence it always did.
    ///
    /// An environment may make this cheaper than a full fence (the native
    /// backend makes it a compiler fence) only if every reader of the
    /// published slots issues [`Env::reclaim_fence`] before loading them:
    /// the heavy half must force the full fence onto every publisher.
    #[inline]
    fn protect_fence(&mut self) {
        self.fence()
    }

    /// The heavy half of the pair: issued by a reclaimer before it loads
    /// the reservations that [`Env::protect_fence`] callers published.
    /// Defaults to [`Env::smr_fence`]. The native backend makes it
    /// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`, a full fence on
    /// every running thread of the process, when the kernel supports it.
    #[inline]
    fn reclaim_fence(&mut self) {
        self.smr_fence()
    }

    /// Busy-wait hint for blocking spin loops; `iter` is the caller's
    /// iteration count within the current acquisition attempt.
    ///
    /// A no-op in the simulator (spinning is already costed via
    /// [`Env::tick`], and simulated threads cannot be preempted mid-quantum
    /// by the host scheduler). The native backend spins the core politely
    /// for short waits and yields the OS thread for long ones, so an
    /// oversubscribed host cannot burn a full scheduler quantum against a
    /// preempted lock holder.
    #[inline]
    fn spin_hint(&mut self, _iter: u64) {}
}

/// The simulator is an environment: each method forwards to the inherent
/// `Ctx` method of the same name, preserving the operation sequence (and
/// therefore the simulated schedule) exactly.
impl<'m> Env for Ctx<'m> {
    #[inline]
    fn tid(&self) -> usize {
        Ctx::core(self)
    }
    #[inline]
    fn threads(&self) -> usize {
        Ctx::threads(self)
    }
    #[inline(always)]
    fn read(&mut self, a: Addr) -> u64 {
        Ctx::read(self, a)
    }
    #[inline(always)]
    fn write(&mut self, a: Addr, v: u64) {
        Ctx::write(self, a, v)
    }
    #[inline]
    fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64> {
        Ctx::cas(self, a, expected, new)
    }
    #[inline]
    fn fence(&mut self) {
        Ctx::fence(self)
    }
    #[inline]
    fn tick(&mut self, n: u64) {
        Ctx::tick(self, n)
    }
    #[inline]
    fn alloc(&mut self) -> Addr {
        Ctx::alloc(self)
    }
    #[inline]
    fn free(&mut self, a: Addr) {
        Ctx::free(self, a)
    }
    #[inline]
    fn op_completed(&mut self) {
        Ctx::op_completed(self)
    }
    #[inline]
    fn now(&mut self) -> u64 {
        Ctx::now(self)
    }
    #[inline]
    fn smr_fence(&mut self) {
        Ctx::smr_fence(self)
    }
}

/// The simulator-backed environment (alias kept for symmetry with
/// [`crate::native::NativeEnv`] in bounds like `for<'m> SetDs<SimEnv<'m>>`).
pub type SimEnv<'m> = Ctx<'m>;

/// The owner-side half of an environment: what constructors and host-side
/// checkers need before/after (or between) timed runs.
///
/// `host_read`/`host_write` may only be called while no [`Env`] threads are
/// running (both backends would otherwise race); they bypass cost modeling.
pub trait EnvHost: Sync {
    /// Allocate `lines` contiguous static lines (never freed), zeroed.
    fn alloc_static(&self, lines: u64) -> Addr;
    /// Quiesced host-side word read.
    fn host_read(&self, a: Addr) -> u64;
    /// Quiesced host-side word write.
    fn host_write(&self, a: Addr, v: u64);
    /// Run a single-threaded initialization body in this host's environment
    /// (thread id 0). Structure constructors use this to build their static
    /// skeleton (sentinel nodes etc.) through the same allocator the timed
    /// run will use.
    fn run_init<R: Send>(&self, f: impl FnOnce(&mut dyn Env) -> R + Send) -> R;

    /// Name `lines` static lines starting at `a` for diagnostics — the
    /// simulator's race-analyzer reports ([`mcsim::Machine::label_lines`])
    /// show e.g. `hp.hazards` instead of `static`. Default no-op: the
    /// native backend has no analyzer.
    #[inline]
    fn label_static(&self, a: Addr, lines: u64, name: &'static str) {
        let _ = (a, lines, name);
    }

    /// Register a wedge-watchdog attribution probe over per-thread
    /// reservation lines, so a wedged run's panic can name the oldest
    /// outstanding reservation holder (scheme + thread). Default no-op:
    /// the native backend has no simulated watchdog — its liveness story
    /// is the [`crate::native::HeartbeatBoard`] detector instead.
    #[inline]
    fn register_wedge_probe(&self, probe: mcsim::WedgeProbe) {
        let _ = probe;
    }
}

impl EnvHost for Machine {
    #[inline]
    fn alloc_static(&self, lines: u64) -> Addr {
        Machine::alloc_static(self, lines)
    }
    #[inline]
    fn host_read(&self, a: Addr) -> u64 {
        Machine::host_read(self, a)
    }
    #[inline]
    fn host_write(&self, a: Addr, v: u64) {
        Machine::host_write(self, a, v)
    }
    #[inline]
    fn label_static(&self, a: Addr, lines: u64, name: &'static str) {
        Machine::label_lines(self, a, lines, name)
    }
    #[inline]
    fn register_wedge_probe(&self, probe: mcsim::WedgeProbe) {
        Machine::register_wedge_probe(self, probe)
    }
    fn run_init<R: Send>(&self, f: impl FnOnce(&mut dyn Env) -> R + Send) -> R {
        // `run_on` wants `Fn + Sync`; the one-shot body is threaded through
        // a mutex-held Option. The wrapper itself issues no simulated
        // operations, so init cost is identical to a direct `run_on(1, ..)`.
        let cell = std::sync::Mutex::new(Some(f));
        self.run_on(1, |_, ctx| {
            let f = cell
                .lock()
                .unwrap()
                .take()
                .expect("run_init body invoked twice");
            f(ctx)
        })
        .pop()
        .expect("run_on(1) returns one result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        })
    }

    /// Generic over Env — exercises every method through the trait.
    fn churn<E: Env + ?Sized>(env: &mut E) -> (usize, usize, u64) {
        let a = env.alloc();
        env.write(a, 41);
        assert_eq!(env.read(a), 41);
        assert_eq!(env.cas(a, 41, 42), Ok(41));
        assert_eq!(env.cas(a, 41, 43), Err(42));
        env.fence();
        env.tick(5);
        let b = env.alloc();
        env.free(b);
        env.op_completed();
        let t0 = env.now();
        (env.tid(), env.threads(), t0)
    }

    #[test]
    fn ctx_implements_env() {
        let m = machine();
        let out = m.run_on(2, |_, ctx| churn(ctx));
        assert_eq!(out.len(), 2);
        for (tid, (got_tid, threads, now)) in out.into_iter().enumerate() {
            assert_eq!(got_tid, tid);
            assert_eq!(threads, 2);
            assert!(now > 0, "simulated clock advanced");
        }
        assert_eq!(m.stats().allocated_not_freed, 2, "one live line per thread");
    }

    #[test]
    fn env_is_object_safe() {
        let m = machine();
        m.run_on(1, |_, ctx| {
            let env: &mut dyn Env = ctx;
            let a = env.alloc();
            env.write(a, 9);
            assert_eq!(env.read(a), 9);
            env.free(a);
        });
    }

    #[test]
    fn machine_run_init_runs_on_core_zero() {
        let m = machine();
        let addr = EnvHost::run_init(&m, |env| {
            assert_eq!(env.tid(), 0);
            let a = env.alloc();
            env.write(a, 77);
            a
        });
        assert_eq!(m.host_read(addr), 77);
    }
}
