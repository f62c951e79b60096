//! The simulated machine: configuration, thread execution, and the per-core
//! [`Ctx`] handle through which simulated programs touch memory.
//!
//! A [`Machine`] owns the coherence hub, the allocator and the scheduler.
//! [`Machine::run_on`] runs one closure on each of cores `0..n` — as
//! stackful coroutines on the calling thread where supported, or on one OS
//! thread per core elsewhere (see [`ExecBackend`]); every memory event is
//! serialized and deterministically ordered by the min-clock scheduler
//! (see [`crate::sched`]), identically on either backend.
//! [`Machine::run_recover_on`] is the same run with injected crashes
//! reported (and optionally recovered) as values; both go through one
//! private backend driver.
//!
//! A machine can be run multiple times (e.g. a single-core prefill run
//! followed by [`Machine::reset_timing`] and a measured multi-core run);
//! memory, cache and allocator state persist across runs.
//!
//! ## Event batching (the hot path)
//!
//! Exactly one core owns the scheduler *turn* at a time, and the turn is
//! the only licence to touch [`SimState`]. The owner therefore **keeps the
//! state guard cached in its [`Ctx`] across consecutive events** and only
//! releases it when [`Sched::after_event`] actually moves the turn: within
//! a lookahead quantum the common case costs no lock operation, no syscall
//! and no O(cores) scan. Handoff is a single atomic store of the next
//! owner's id plus a `Thread::unpark`; waiters park on their own thread
//! token, so the state mutex is only ever taken uncontended. None of this
//! changes the simulated schedule — the decision sequence is identical to
//! locking per event, so determinism is preserved bit-for-bit.
//!
//! ## Host-thread safety (Send/Sync audit)
//!
//! Independent machines may run **concurrently on different host threads**
//! — the `caharness` parallel sweep depends on this. The boundaries:
//!
//! * [`Machine`] is `Send + Sync` (asserted at compile time below): all
//!   simulator state lives in `Mutex<SimState>` behind an `Arc`, and
//!   `SimState` owns plain data (caches, memory, allocator, scheduler,
//!   `std::thread::Thread` handles) — no `Rc`, no raw pointers.
//! * There is **no cross-machine shared state**: no globals, no channels —
//!   two machines interact with each other in no way, so N machines on N
//!   host threads are trivially race-free and each run stays a pure
//!   function of (program, config, seeds).
//! * The per-host-thread [`HOLDING_STATE`] marker is keyed by the machine's
//!   `Shared` address, so machine A's run on host thread 1 never trips the
//!   deadlock guard of machine B running on host thread 2 (or a nested
//!   host-side call to B from inside A's closures).
//! * The coop backend's coroutine stacks and context pointers are created,
//!   used and unmapped entirely inside one `run_coop` frame, i.e. on a
//!   single host thread; they are never sent across threads (the raw
//!   pointers inside [`crate::coop`]'s types make them `!Send` by
//!   construction, so the compiler enforces this confinement).
//! * A [`Ctx`] is handed to exactly one workload closure and never aliased;
//!   the closures themselves must be `Send` because the threads backend
//!   runs each on its own OS thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use crate::addr::{Addr, CoreId};
use crate::alloc::{Allocator, Fault, UafMode};
use crate::coherence::{CacheConfig, CoherenceHub};
use crate::event::{
    AllocOp, CasOp, CreadOp, CwriteOp, Event, FenceOp, FreeOp, OpCompletedOp, ReadOp, SmrFenceOp,
    TxAbortOp, TxBeginOp, TxCommitOp, TxReadOp, TxWriteOp, UntagAllOp, UntagOneOp, WriteOp,
};
use crate::fault::{CoreOutcome, CoreRestart, FaultPlan, FaultState, FaultStop, WedgeProbe};
use crate::sched::{Sched, NO_TURN};
use crate::stats::MachineStats;

/// How simulated cores are executed on the host.
///
/// Both backends produce **bit-identical simulated results** — the
/// scheduler's decision sequence does not depend on the backend — so this
/// is purely a host-performance knob.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// Pick the fastest supported backend: [`Self::Coop`] where available
    /// (x86-64 Linux), [`Self::Threads`] otherwise.
    #[default]
    Auto,
    /// One OS thread per simulated core; turn handoffs park/unpark threads.
    /// Works everywhere; each handoff costs a kernel context switch.
    Threads,
    /// All simulated cores on one OS thread as stackful coroutines
    /// (see [`crate::coop`]); turn handoffs are user-space stack switches
    /// (~100× cheaper). Falls back to [`Self::Threads`] on unsupported
    /// targets.
    Coop,
}

/// Is the coroutine backend available on this target?
const COOP_SUPPORTED: bool = cfg!(mcsim_coop);

impl ExecBackend {
    /// Environment override consulted by [`Self::Auto`] only:
    /// `MCSIM_EXEC=threads|coop` pins the backend the whole process-wide
    /// default resolves to (the CI matrix runs the test suite once per
    /// value). Explicit `Threads`/`Coop` configs are never overridden.
    ///
    /// Re-read on every resolution (a cold path: once per run).
    /// An earlier version cached the first read in a `OnceLock`, so a test
    /// or embedder setting the variable after the first machine ran
    /// silently kept the stale backend — the regression test below pins
    /// the re-read behaviour.
    #[expect(
        clippy::disallowed_methods,
        reason = "MCSIM_EXEC is the documented backend override knob"
    )]
    pub(crate) fn env_override() -> Option<ExecBackend> {
        Self::parse_override(std::env::var("MCSIM_EXEC").ok()?.as_str())
    }

    /// The parse half of [`Self::env_override`], split out so the
    /// regression test can cover every value without calling
    /// `std::env::set_var` (mutating the environment while other test
    /// threads read it through libc is a data race).
    pub(crate) fn parse_override(value: &str) -> Option<ExecBackend> {
        match value {
            "threads" => Some(ExecBackend::Threads),
            // The env var exists so CI can *guarantee* which backend a run
            // exercised; a silent fallback would let the coop matrix leg go
            // green without running coop code, so unsupported targets fail
            // loudly here (unlike an explicit ExecBackend::Coop config,
            // which documents its portable fallback).
            "coop" if COOP_SUPPORTED => Some(ExecBackend::Coop),
            "coop" => panic!(
                "MCSIM_EXEC=coop, but the coroutine backend is not supported \
                 on this target (x86-64 Linux only)"
            ),
            "auto" => None,
            other => panic!("MCSIM_EXEC must be threads|coop|auto, got {other:?}"),
        }
    }
}

/// Machine configuration. Cycle costs are not part of it: every machine
/// charges the one fixed table in [`crate::latency`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of simulated hardware threads (one workload thread runs on
    /// each). With `smt == 1` (the default, and the paper's configuration)
    /// this is also the number of physical cores.
    pub cores: usize,
    /// Hardware threads per physical core (1 = no SMT). With `smt == 2`,
    /// threads {0,1} share core 0's L1 (with per-hyperthread tag bits and
    /// ARBs, paper §III), threads {2,3} share core 1's, and so on. `cores`
    /// must be a multiple of `smt`.
    pub smt: usize,
    /// Cache hierarchy geometry.
    pub cache: CacheConfig,
    /// Simulated physical memory size in bytes.
    pub mem_bytes: u64,
    /// Lines reserved for static allocations (list heads, SMR metadata).
    pub static_lines: u64,
    /// Scheduler lookahead quantum in cycles (0 = exact min-clock order).
    pub quantum: u64,
    /// If set, sample `allocated_not_freed` every N completed operations
    /// (the paper's Figure 3 instrumentation).
    pub sample_every: Option<u64>,
    /// Use-after-free detector policy.
    pub uaf_mode: UafMode,
    /// Optional OS-preemption model (paper §III: a context switch sets the
    /// ARB — the kernel cannot track invalidations for switched-out
    /// threads). `Some((interval, cost))` preempts each core every
    /// `interval` cycles of its local clock, charging `cost` cycles.
    pub ctx_switch: Option<(u64, u64)>,
    /// Host execution backend (a host-performance knob; simulated results
    /// are identical across backends).
    pub exec: ExecBackend,
    /// Deterministic fault-injection plan (see [`crate::fault`]): stalls,
    /// burst deschedules and crashes, all triggered by per-core local
    /// clocks so they fire identically on every backend.
    /// Empty by default.
    pub fault_plan: FaultPlan,
    /// Wedge watchdog: panic with a diagnostic if any core's local clock
    /// exceeds this many cycles in one run — so a livelocked or
    /// fault-wedged configuration terminates instead of hanging a sweep
    /// worker forever. `None` (the default) disables the ceiling.
    pub max_cycles: Option<u64>,
    /// Arm the happens-before race analyzer (see [`crate::hb`]): record
    /// every executed memory event and make [`crate::machine::Ctx::smr_fence`]
    /// an observable (zero-cost) event, so [`Machine::race_report`] can
    /// replay the run under a weak memory model and report unsynchronized
    /// conflicting access pairs. Off by default; when off, nothing records
    /// and runs are byte-identical to a build without the analyzer.
    pub race_check: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            cores: 8,
            smt: 1,
            cache: CacheConfig::default(),
            mem_bytes: 64 << 20,
            static_lines: 4096,
            quantum: 64,
            sample_every: None,
            uaf_mode: UafMode::Panic,
            ctx_switch: None,
            exec: ExecBackend::Auto,
            fault_plan: FaultPlan::default(),
            max_cycles: None,
            race_check: false,
        }
    }
}

/// A sample of the allocation footprint: (completed ops, allocated-not-freed).
pub type FootprintSample = (u64, u64);

pub(crate) struct SimState {
    pub hub: CoherenceHub,
    pub alloc: Allocator,
    pub sched: Sched,
    pub global_ops: u64,
    pub sample_every: Option<u64>,
    pub next_sample_at: u64,
    pub samples: Vec<FootprintSample>,
    /// OS-preemption model: (interval, cost) and each core's next deadline.
    pub ctx_switch: Option<(u64, u64)>,
    pub next_preempt: Vec<u64>,
    /// OS thread handle per simulated core, registered at the start of each
    /// run; the turn owner unparks the next owner's handle on handoff.
    pub threads: Vec<Option<Thread>>,
    /// Compiled fault-injection state (see [`crate::fault`]).
    pub fault: FaultState,
    /// Watchdog attribution probes (see [`WedgeProbe`]): read host-side
    /// when the wedge watchdog fires to name the oldest outstanding
    /// reservation holder in the panic.
    pub wedge_probes: Vec<WedgeProbe>,
}

struct Shared {
    state: Mutex<SimState>,
    /// Mirror of `sched.turn`, published on every handoff so waiters can
    /// check for their turn without taking the state mutex. The mutex
    /// remains the authority; this is only a wake-up signal.
    turn_word: AtomicUsize,
}

std::thread_local! {
    /// The `Shared` whose state lock is held by this OS thread — by a
    /// turn-owning `Ctx` batching events (threads backend) or by a whole
    /// coop run. Host-side `Machine` methods called from a workload closure
    /// would relock that mutex on the same thread — a silent permanent
    /// hang; this marker turns it into a loud panic. Calls on a *different*
    /// machine are unaffected (the marker is machine-scoped).
    static HOLDING_STATE: std::cell::Cell<*const ()> =
        const { std::cell::Cell::new(std::ptr::null()) };
}

/// RAII marker for [`HOLDING_STATE`]: panic-safe, restores the previous
/// value so nested runs of different machines on one thread keep their
/// markers intact. (Only the coop backend holds the lock for a whole run;
/// the threads backend sets/clears the cell directly around its cached
/// guard, hence the dead-code allowance on non-coop targets.)
#[cfg_attr(not(mcsim_coop), allow(dead_code))]
struct StateHoldMark {
    prev: *const (),
}

#[cfg_attr(not(mcsim_coop), allow(dead_code))]
impl StateHoldMark {
    fn set(shared: &Shared) -> Self {
        let prev = HOLDING_STATE.replace(shared as *const Shared as *const ());
        StateHoldMark { prev }
    }
}

impl Drop for StateHoldMark {
    fn drop(&mut self) {
        HOLDING_STATE.set(self.prev);
    }
}

impl Shared {
    /// Lock the simulator state. Poisoning is ignored: a simulated thread
    /// panicking (e.g. the use-after-free detector firing) must not wedge
    /// the other simulated threads, which still need the scheduler to retire
    /// them (the seed used parking_lot, which has no poisoning).
    fn lock(&self) -> MutexGuard<'_, SimState> {
        assert!(
            !std::ptr::eq(HOLDING_STATE.get(), self as *const Shared as *const ()),
            "Machine host-side methods (stats, host_read, check_invariants, ...) \
             cannot be called from inside this machine's run closures: the \
             calling core holds the machine's state lock (for the whole run on \
             the coop backend, while it owns the turn on the threads backend). \
             Use the Ctx API, or move the call outside the run."
        );
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The simulated multicore machine.
pub struct Machine {
    shared: Arc<Shared>,
    cfg: MachineConfig,
}

// Compile-time Send/Sync audit (see the module docs): a Machine may be
// built on one host thread and driven from another, and independent
// machines run concurrently on different host threads under the caharness
// parallel sweep. If a future field breaks either bound, this fails to
// compile instead of racing at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
};

impl Machine {
    /// Build a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut hub = CoherenceHub::new(cfg.cores, cfg.smt, &cfg.cache, cfg.mem_bytes);
        hub.trace.enabled = cfg.race_check;
        let mut alloc = Allocator::new(cfg.cores, cfg.mem_bytes, cfg.static_lines);
        alloc.uaf_mode = cfg.uaf_mode;
        let state = SimState {
            hub,
            alloc,
            sched: Sched::new(cfg.cores, cfg.quantum),
            global_ops: 0,
            sample_every: cfg.sample_every,
            next_sample_at: cfg.sample_every.unwrap_or(0),
            samples: Vec::new(),
            ctx_switch: cfg.ctx_switch,
            next_preempt: vec![cfg.ctx_switch.map_or(u64::MAX, |(i, _)| i); cfg.cores],
            threads: vec![None; cfg.cores],
            fault: FaultState::new(&cfg.fault_plan, cfg.cores, cfg.max_cycles),
            wedge_probes: Vec::new(),
        };
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                turn_word: AtomicUsize::new(NO_TURN),
            }),
            cfg,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Allocate `lines` consecutive static cache lines (zero-initialized).
    /// Call between runs, not during one.
    pub fn alloc_static(&self, lines: u64) -> Addr {
        self.shared.lock().alloc.alloc_static(lines)
    }

    /// Run `f` on cores `0..n`; the closure receives the core id. Blocks
    /// until every simulated thread finishes and returns their outputs in
    /// core order.
    ///
    /// If a closure panics (including the use-after-free detector firing),
    /// its core is retired first — so the other simulated threads keep being
    /// scheduled — and the panic then propagates out of `run_on`. This
    /// includes injected [`crate::fault::CrashFault`]s; use
    /// [`Self::run_recover_on`] to observe those as values instead.
    pub fn run_on<R: Send>(&self, n: usize, f: impl Fn(usize, &mut Ctx) -> R + Sync) -> Vec<R> {
        self.run_cores(n, &f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    }

    /// [`Self::run_on`], with injected crashes reported as values: a core
    /// stopped by a [`crate::fault::CrashFault`] yields
    /// [`CoreOutcome::Crashed`], unless a [`crate::fault::RestartFault`]
    /// names it — then it resumes at simulated clock
    /// `max(restart.at, crash clock)` running `recover` instead of staying
    /// retired, and reports [`CoreOutcome::Recovered`].
    ///
    /// Determinism: the crash fires at an event-issue boundary with the
    /// core still owning its scheduling turn on every backend (the
    /// `FaultStop` unwind is caught here, *inside* the workload-closure
    /// boundary the backends wrap), pending ticks already committed to the
    /// core's local clock, and `FaultState::crashed` already set (so the
    /// trigger cannot re-fire during recovery). The gap to the restart
    /// clock is charged as plain local ticks; from there the recovery
    /// closure's events are an ordinary continuation of the core's event
    /// stream — a pure function of its local clock, byte-identical across
    /// backends like every other fault trigger (pinned by
    /// `fault_determinism`).
    ///
    /// Only injected crashes are caught: any other panic (workload bug,
    /// UAF detector, wedge watchdog) still propagates, and so does a panic
    /// out of `recover` itself.
    pub fn run_recover_on<R: Send>(
        &self,
        n: usize,
        f: impl Fn(usize, &mut Ctx) -> R + Sync,
        recover: impl Fn(&CoreRestart, &mut Ctx) -> R + Sync,
    ) -> Vec<CoreOutcome<R>> {
        self.run_on(n, |i, ctx| {
            let payload =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, &mut *ctx))) {
                    Ok(r) => return CoreOutcome::Done(r),
                    Err(e) => e,
                };
            let crash = match payload.downcast::<FaultStop>() {
                Ok(fs) => *fs,
                Err(e) => std::panic::resume_unwind(e),
            };
            let restart_at = ctx.with_state(|st| st.fault.restart_at[i]);
            if restart_at == u64::MAX {
                return CoreOutcome::Crashed {
                    core: crash.core,
                    clock: crash.clock,
                };
            }
            // Idle until the restart trigger (a restart cannot predate its
            // crash), then run the recovery body on the same core and Ctx.
            let target = restart_at.max(crash.clock);
            ctx.tick(target - crash.clock);
            let result = recover(&CoreRestart::new(i, crash.clock, target), ctx);
            CoreOutcome::Recovered {
                core: i,
                crash_clock: crash.clock,
                restart_clock: target,
                result,
            }
        })
    }

    /// The one backend driver: run `body` on cores `0..n` and collect each
    /// core's result *or* caught panic, in core order. Panics that escaped
    /// a body's own frame (backend failures) still propagate.
    fn run_cores<R: Send>(
        &self,
        n: usize,
        body: &(dyn Fn(usize, &mut Ctx) -> R + Sync),
    ) -> Vec<std::thread::Result<R>> {
        assert!(
            n >= 1 && n <= self.cfg.cores,
            "need 1..={} cores, got {n}",
            self.cfg.cores
        );
        let exec = match self.cfg.exec {
            ExecBackend::Auto => ExecBackend::env_override().unwrap_or(ExecBackend::Auto),
            explicit => explicit,
        };
        let results = match exec {
            #[cfg(mcsim_coop)]
            ExecBackend::Auto | ExecBackend::Coop => self.run_coop(n, body),
            _ => self.run_threads(n, body),
        };
        if self.cfg.race_check {
            // Close the trace segment: the host observes every core's
            // result here, so consecutive runs (prefill, measured) are
            // ordered and the analyzer must not pair accesses across the
            // boundary (see `hb::TraceBank::mark_run`).
            self.shared.lock().hub.trace.mark_run();
        }
        results
    }

    /// Coroutine backend: all simulated cores on the calling OS thread,
    /// with the state lock held once for the whole run. Turn handoffs are
    /// user-space stack switches (see [`crate::coop`]).
    #[cfg(mcsim_coop)]
    fn run_coop<R: Send>(
        &self,
        n: usize,
        body: &(dyn Fn(usize, &mut Ctx) -> R + Sync),
    ) -> Vec<std::thread::Result<R>> {
        use crate::coop;
        let mut guard = self.shared.lock();
        // From here until the run ends, any host-side call on this machine
        // from this thread would deadlock on the held lock; make it panic
        // instead.
        let _mark = StateHoldMark::set(&self.shared);
        let state_ptr: *mut SimState = &mut *guard;
        let mut stacks: Vec<coop::Stack> =
            (0..n).map(|_| coop::Stack::new(coop::STACK_SIZE)).collect();
        // Context table: one slot per core plus the main (scheduler) slot.
        let mut ctxs: Vec<*mut u8> = vec![std::ptr::null_mut(); n + 1];
        let ctxs_ptr = ctxs.as_mut_ptr();
        let mut outs: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        let race_check = self.cfg.race_check;
        let mut payloads: Vec<Box<coop::CoroPayload>> = (0..n)
            .map(|core| {
                let out_slot: *mut Option<std::thread::Result<R>> = &mut outs[core];
                let entry: Box<dyn FnOnce() -> usize + '_> = Box::new(move || {
                    let mut ctx = Ctx {
                        core,
                        threads: n,
                        pending_ticks: 0,
                        race_check,
                        backend: CtxBackend::Coop(CoopCtx {
                            state: state_ptr,
                            ctxs: ctxs_ptr,
                            main_slot: n,
                            retire_target: None,
                        }),
                    };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        body(core, &mut ctx)
                    }));
                    // SAFETY: `outs[core]` is written only by core `core`'s
                    // own coroutine; `outs` outlives every coroutine.
                    unsafe { *out_slot = Some(out) };
                    // Retire records where to go; returning lets the entry
                    // shim free this closure *before* the final switch (a
                    // closure that switched away itself would leak its
                    // captures every run).
                    ctx.retire();
                    match &ctx.backend {
                        CtxBackend::Coop(cb) => {
                            cb.retire_target.expect("coop retire records a target")
                        }
                        CtxBackend::Threads(_) => unreachable!("coop body on a threads ctx"),
                    }
                });
                // SAFETY: erase the borrow lifetime — every coroutine is
                // fully consumed before this function returns, so the
                // closure cannot outlive its borrows (only the lifetime is
                // erased).
                let entry: Box<dyn FnOnce() -> usize> = unsafe { std::mem::transmute(entry) };
                Box::new(coop::CoroPayload {
                    f: Some(entry),
                    ctxs: ctxs_ptr,
                    own_slot: core,
                })
            })
            .collect();
        for core in 0..n {
            // SAFETY: payloads are boxed (stable addresses) and, like the
            // stacks, live in this frame past the final switch back.
            ctxs[core] = unsafe { coop::prepare(&mut stacks[core], &mut *payloads[core]) };
        }
        let first = guard.sched.start_run(n);
        // SAFETY: enter the coroutine world — slot `n` is this thread's
        // save slot and `first` was just prepared; control returns here
        // when the last core retires and switches back to the main slot.
        unsafe { coop::switch(ctxs_ptr.add(n), ctxs[first]) };
        debug_assert_eq!(guard.sched.turn, NO_TURN, "run ended with live cores");
        drop(guard);
        outs.into_iter()
            .map(|r| r.expect("coroutine finished without a result"))
            .collect()
    }

    /// OS-thread backend: one thread per simulated core, park/unpark
    /// handoffs. The portable fallback, and the only option when workload
    /// closures are not safe to multiplex on one stack.
    fn run_threads<R: Send>(
        &self,
        n: usize,
        body: &(dyn Fn(usize, &mut Ctx) -> R + Sync),
    ) -> Vec<std::thread::Result<R>> {
        let shared = &self.shared;
        // Every worker registers its OS thread handle (the unpark target)
        // before the run starts; the barrier guarantees registration is
        // complete before the first handoff can happen.
        let barrier = &Barrier::new(n + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|core| {
                    scope.spawn(move || {
                        shared.lock().threads[core] = Some(std::thread::current());
                        barrier.wait();
                        // Snapshot the peer handles (complete after the
                        // barrier) so handoffs unpark without touching
                        // shared state.
                        let peers = shared.lock().threads.clone();
                        let mut ctx = Ctx {
                            core,
                            threads: n,
                            pending_ticks: 0,
                            race_check: self.cfg.race_check,
                            backend: CtxBackend::Threads(ThreadsCtx {
                                shared,
                                turn_guard: None,
                                peers,
                            }),
                        };
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            body(core, &mut ctx)
                        }));
                        // Retire even on panic, so the other simulated
                        // threads are not left waiting for a dead core.
                        ctx.retire();
                        out
                    })
                })
                .collect();
            barrier.wait();
            let first_thread = {
                let mut st = shared.lock();
                let first = st.sched.start_run(n);
                shared.turn_word.store(first, Ordering::Release);
                st.threads[first].clone()
            };
            if let Some(t) = first_thread {
                t.unpark();
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // A panic that escaped the worker's catch_unwind (i.e.
                    // from retire itself) is an infrastructure failure, not
                    // a workload result.
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    }

    /// Zero clocks, statistics, the op counter and footprint samples.
    /// Memory, cache contents and allocator state persist (warm start).
    pub fn reset_timing(&self) {
        let mut st = self.shared.lock();
        st.sched.reset_clocks();
        st.hub.stats.reset();
        st.global_ops = 0;
        st.samples.clear();
        st.next_sample_at = st.sample_every.unwrap_or(0);
        let interval = st.ctx_switch.map_or(u64::MAX, |(i, _)| i);
        st.next_preempt.fill(interval);
        // Clocks restart at zero, so the fault plan's triggers restart too.
        st.fault.reset();
    }

    /// Arm or disarm the fault plan's triggers (stalls, crashes, the wedge
    /// watchdog). Machines are built armed; a harness disarms around its
    /// prefill run so trigger clocks are only consumed — and the watchdog
    /// only enforced — during the measured run.
    pub fn set_faults_armed(&self, armed: bool) {
        self.shared.lock().fault.set_armed(armed);
    }

    /// Snapshot machine statistics.
    pub fn stats(&self) -> MachineStats {
        let st = self.shared.lock();
        let mut cores = st.hub.stats.cores.clone();
        for (c, s) in cores.iter_mut().enumerate() {
            s.cycles = st.sched.clocks[c];
        }
        MachineStats {
            cores,
            allocated_not_freed: st.alloc.allocated_not_freed,
            peak_allocated: st.alloc.peak,
            total_ops: st.global_ops,
            max_cycles: st.sched.max_clock(),
            crashed: st.fault.crashed.clone(),
        }
    }

    /// Footprint samples collected so far (Figure 3 series).
    pub fn footprint_samples(&self) -> Vec<FootprintSample> {
        self.shared.lock().samples.clone()
    }

    /// Faults recorded in [`UafMode::Record`] mode.
    pub fn faults(&self) -> Vec<Fault> {
        self.shared.lock().alloc.faults.clone()
    }

    /// Host-side read of simulated memory (no timing, no coherence). For
    /// checkers walking final data-structure state.
    pub fn host_read(&self, a: Addr) -> u64 {
        self.shared.lock().hub.host_read(a)
    }

    /// Host-side write (test setup only; bypasses coherence).
    pub fn host_write(&self, a: Addr, v: u64) {
        self.shared.lock().hub.host_write(a, v)
    }

    /// Run the coherence invariant checker (panics on violation).
    pub fn check_invariants(&self) {
        self.shared.lock().hub.check_invariants();
    }

    /// Run the happens-before race analyzer over everything traced so far
    /// and return its deterministic report (see [`crate::hb`]). Empty
    /// unless the machine was built with [`MachineConfig::race_check`].
    /// Call between runs, not during one.
    pub fn race_report(&self) -> crate::hb::RaceReport {
        let st = self.shared.lock();
        crate::hb::analyze(&st.hub.trace, self.cfg.static_lines)
    }

    /// Name `lines` lines starting at `a`'s line in race-analyzer reports
    /// (e.g. `hp.hazards`). Cheap and unconditional, so callers need not
    /// gate on [`MachineConfig::race_check`]. Call between runs.
    pub fn label_lines(&self, a: Addr, lines: u64, name: &'static str) {
        self.shared.lock().hub.trace.label(a, lines, name);
    }

    /// Register a watchdog attribution probe (see [`WedgeProbe`]): when
    /// the wedge watchdog fires, the panic names the probe slot holding
    /// the minimum non-sentinel value — the oldest outstanding
    /// reservation/era the run is wedged behind — with the owning core
    /// and whether it crashed. Zero cost until the watchdog actually
    /// trips. Call between runs (SMR scheme constructors do).
    pub fn register_wedge_probe(&self, probe: WedgeProbe) {
        self.shared.lock().wedge_probes.push(probe);
    }

    /// Introspect a core's ARB (tests only; programs must use cread/cwrite
    /// failure results instead).
    pub fn probe_arb(&self, c: CoreId) -> bool {
        self.shared.lock().hub.arb(c)
    }

    /// Lines currently tagged by hardware thread `c` (tests only).
    pub fn probe_tagged_lines(&self, c: CoreId) -> Vec<crate::addr::Line> {
        let st = self.shared.lock();
        let pcore = st.hub.pc(c);
        st.hub.l1s[pcore].tagged_lines(c % self.cfg.smt)
    }
}

/// A conditional access or a hardware transaction failed: the operation
/// must restart. This is the error of [`Ctx::cread`], [`Ctx::cwrite`],
/// [`Ctx::tx_read`], [`Ctx::tx_write`] and [`Ctx::tx_commit`], so an
/// attempt body propagates the paper's `CA_CHECK` with `?` and the `cacore`
/// crate's `attempt_loop` restarts it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Restart;

// The error adds no host cost: the results keep `Option<u64>`'s and
// `bool`'s layout.
const _: () = assert!(
    size_of::<Result<u64, Restart>>() == size_of::<Option<u64>>()
        && size_of::<Result<(), Restart>>() == size_of::<bool>()
);

/// Per-core handle used by simulated programs to touch the machine.
///
/// All methods charge simulated cycles and participate in the deterministic
/// schedule. The `cread`/`cwrite`/`untag*` primitives are re-exported with
/// their paper semantics by the `cacore` crate; prefer that API in
/// data-structure code.
pub struct Ctx<'m> {
    core: CoreId,
    /// Number of simulated cores participating in this `run_on` call.
    threads: usize,
    pending_ticks: u64,
    /// Mirror of [`MachineConfig::race_check`]: gates whether
    /// [`Ctx::smr_fence`] issues its trace-only event.
    race_check: bool,
    backend: CtxBackend<'m>,
}

/// Backend-specific part of a [`Ctx`] (see [`ExecBackend`]).
enum CtxBackend<'m> {
    Threads(ThreadsCtx<'m>),
    #[cfg_attr(not(mcsim_coop), allow(dead_code))]
    Coop(CoopCtx),
}

struct ThreadsCtx<'m> {
    shared: &'m Shared,
    /// The state guard, held across consecutive events while this core
    /// keeps the turn (see the module docs on event batching). `Some` iff
    /// this core currently owns the turn.
    turn_guard: Option<MutexGuard<'m, SimState>>,
    /// Per-run snapshot of every core's OS thread handle (unpark targets),
    /// so handoffs need no access to shared state after the guard drops.
    peers: Vec<Option<Thread>>,
}

impl<'m> ThreadsCtx<'m> {
    /// Ensure core `c` owns the turn and the state guard is cached. The
    /// fast path — the guard is already held from a previous event — is the
    /// only part that inlines into the event pipeline.
    #[inline]
    fn acquire_turn(&mut self, c: CoreId) -> &mut SimState {
        if self.turn_guard.is_none() {
            self.wait_for_turn(c);
        }
        self.turn_guard.as_deref_mut().expect("turn acquired")
    }

    /// Slow path of [`Self::acquire_turn`]: park until the current owner
    /// publishes `c` in `turn_word` and unparks us, then take the
    /// (uncontended) mutex.
    #[cold]
    #[inline(never)]
    fn wait_for_turn(&mut self, c: CoreId) {
        loop {
            if self.shared.turn_word.load(Ordering::Acquire) == c {
                let st = self.shared.lock();
                if st.sched.turn == c {
                    self.turn_guard = Some(st);
                    // While the guard is cached, a host-side call on this
                    // machine from this thread must panic, not
                    // self-deadlock (see `Shared::lock`).
                    HOLDING_STATE.set(self.shared as *const Shared as *const ());
                    return;
                }
                // Stale wake (cannot normally happen — the turn leaves `c`
                // only by `c`'s own action): re-park below.
                drop(st);
            }
            // A leftover unpark token makes this return immediately once;
            // the loop re-checks, so spurious wakes are harmless.
            std::thread::park();
        }
    }

    /// Release the turn to `next`: publish its id, drop the state guard,
    /// and wake its OS thread.
    fn release_turn_to(&mut self, next: CoreId) {
        self.shared.turn_word.store(next, Ordering::Release);
        self.turn_guard = None;
        HOLDING_STATE.set(std::ptr::null());
        if let Some(t) = self.peers.get(next).and_then(Option::as_ref) {
            t.unpark();
        }
    }
}

/// Raw handles for the coroutine backend. All pointers are owned by
/// `run_coop`'s frame and outlive the coroutine; exclusivity of `state`
/// access is guaranteed by the turn (only the owner's coroutine runs).
#[cfg_attr(not(mcsim_coop), allow(dead_code))]
struct CoopCtx {
    state: *mut SimState,
    /// Context-slot table (`cores + 1` entries; the last is the main slot).
    ctxs: *mut *mut u8,
    main_slot: usize,
    /// Set by `retire`: the slot the entry shim must switch to after the
    /// coroutine body returns (next turn owner, or the main slot).
    retire_target: Option<usize>,
}

/// The OS-preemption model's deadline step: when the core's clock reaches
/// its deadline, run `preempt` (which sets the ARB and aborts any
/// transaction), charge the switch cost, and advance the deadline past the
/// new clock. Deadline-driven, hence deterministic.
#[inline]
fn apply_preempt_model(
    clock: &mut u64,
    next_preempt: &mut u64,
    model: Option<(u64, u64)>,
    preempt: impl FnOnce(),
) {
    if let Some((interval, switch_cost)) = model {
        if *clock >= *next_preempt {
            preempt();
            *clock += switch_cost;
            while *next_preempt <= *clock {
                *next_preempt += interval;
            }
        }
    }
}

/// Watchdog attribution (host-side, only on the fatal path): scan the
/// registered [`WedgeProbe`]s for the minimum non-sentinel reservation/era
/// value and name its holder. `None` when no probe holds anything — the
/// wedge is then a plain livelock, not a reservation pin.
fn wedge_attribution(st: &SimState) -> Option<String> {
    let mut oldest: Option<(u64, &'static str, usize, u64)> = None;
    for p in &st.wedge_probes {
        for t in 0..p.threads {
            for s in 0..p.slots {
                let a = Addr(p.base.0 + t as u64 * crate::addr::LINE_BYTES + s * 8);
                let v = st.hub.host_read(a);
                if v != p.sentinel && oldest.is_none_or(|(min, ..)| v < min) {
                    oldest = Some((v, p.name, t, s));
                }
            }
        }
    }
    oldest.map(|(v, name, t, s)| {
        let crashed = if st.fault.crashed.get(t).copied().unwrap_or(false) {
            " [crashed — orphan needs adoption]"
        } else {
            ""
        };
        let slot = if s > 0 {
            format!(" slot {s}")
        } else {
            String::new()
        };
        format!("oldest outstanding reservation: {name} core {t}{slot} (value {v}){crashed}")
    })
}

/// Charge pending ticks, execute `ev`, charge its cost, apply the
/// OS-preemption model, and take the scheduling decision — the
/// backend-independent core of every event. Generic over the typed event
/// so the result returns in registers and the L1-hit path of `ev.exec`
/// inlines straight through; everything an empty `FaultPlan` and a disarmed
/// analyzer never reach is behind an out-of-line cold call.
#[inline]
fn run_event_on<T: Event>(
    st: &mut SimState,
    c: CoreId,
    pending: u64,
    ev: T,
) -> (T::R, Option<CoreId>) {
    st.sched.clocks[c] += pending;
    if st.fault.hot {
        crash_if_due(st, c);
    }
    let issue_clock = st.sched.clocks[c];
    let (out, cost) = ev.exec(st, c);
    if st.hub.trace.enabled {
        if let Some((kind, addr)) = ev.trace(&out) {
            st.hub.trace.record(c, issue_clock, kind, addr);
        }
    }
    st.sched.clocks[c] += cost;
    if st.fault.hot {
        // Injected burst deschedules (and the wedge watchdog) land before
        // the periodic model, at the same point in the event: after the
        // op's cost, before the scheduling decision.
        apply_fault_triggers(st, c);
    }
    let SimState {
        sched,
        next_preempt,
        hub,
        ctx_switch,
        ..
    } = st;
    apply_preempt_model(
        &mut sched.clocks[c],
        &mut next_preempt[c],
        *ctx_switch,
        || hub.preempt(c),
    );
    let next = sched.after_event(c);
    match next {
        Some(_) => hub.stats.core(c).turn_handoffs += 1,
        None => hub.stats.core(c).batched_events += 1,
    }
    (out, next)
}

/// Injected fail-stop check at event issue (armed fault plans only).
#[cold]
#[inline(never)]
fn crash_if_due(st: &mut SimState, c: CoreId) {
    let clock = st.sched.clocks[c];
    if st.fault.crash_due(c, clock) {
        // The op never executes: the core fail-stops here, mid-operation.
        // The unwind is caught at the workload-closure boundary, where the
        // backend retires the core so the survivors keep being scheduled.
        st.fault.crashed[c] = true;
        std::panic::resume_unwind(Box::new(FaultStop { core: c, clock }));
    }
}

/// Fire core `c`'s due stalls and check the wedge watchdog (armed fault
/// plans only). A wedge is fatal: it panics here, before the periodic
/// preemption model would run.
#[cold]
#[inline(never)]
fn apply_fault_triggers(st: &mut SimState, c: CoreId) {
    let SimState {
        sched, hub, fault, ..
    } = st;
    let (fired, wedged) = crate::fault::apply_stalls_and_watchdog(
        &mut sched.clocks[c],
        &fault.stalls[c],
        &mut fault.cursor[c],
        fault.max_cycles,
        || hub.preempt(c),
    );
    hub.stats.core(c).fault_stalls += fired;
    if wedged {
        // Attribute the wedge before panicking (this path owns the full
        // state, so the registered probes are readable host-side).
        let detail = wedge_attribution(st);
        crate::fault::wedge_panic(c, st.sched.clocks[c], st.fault.max_cycles, detail);
    }
}

/// Backend-independent retire bookkeeping; returns the next turn owner.
fn finish_retire(st: &mut SimState, c: CoreId, pending: u64) -> Option<CoreId> {
    st.sched.clocks[c] += pending;
    st.hub.stats.core(c).cycles = st.sched.clocks[c];
    st.sched.retire(c)
}

impl<'m> Ctx<'m> {
    /// This simulated core's id.
    #[inline]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Number of simulated cores participating in the current `run_on`
    /// call (the workload's thread count, not the machine's core count).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Charge `cycles` of local computation (no scheduling point; the cost
    /// is folded into the next memory event).
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        self.pending_ticks += cycles;
    }

    /// Execute one typed event under the turn. Nothing is reified:
    /// `T::exec` runs under the turn and its result returns in registers.
    /// The backend match only selects *where the state lives*; the pipeline
    /// itself is one copy.
    #[inline]
    fn event<T: Event>(&mut self, ev: T) -> T::R {
        let c = self.core;
        let pending = std::mem::take(&mut self.pending_ticks);
        let st = match &mut self.backend {
            CtxBackend::Threads(tb) => tb.acquire_turn(c),
            CtxBackend::Coop(cb) => {
                // SAFETY: a coroutine only runs while it owns the turn, so
                // state access needs no locking at all.
                let st = unsafe { &mut *cb.state };
                debug_assert_eq!(st.sched.turn, c, "coop: non-owner coroutine running");
                st
            }
        };
        let (out, next) = run_event_on(st, c, pending, ev);
        if let Some(next) = next {
            self.hand_off(next);
        }
        // (None: keep the turn — and, on the threads backend, the guard —
        // so the next event skips the lock entirely.)
        out
    }

    /// Move the turn to `next` after an event.
    #[inline(never)]
    fn hand_off(&mut self, next: CoreId) {
        match &mut self.backend {
            CtxBackend::Threads(tb) => tb.release_turn_to(next),
            CtxBackend::Coop(cb) => {
                // A coop Ctx only exists on targets where the module is
                // compiled (run_coop constructs it), so the arm is
                // unreachable elsewhere. SAFETY: `next` came from the
                // scheduler, so its context is live and suspended.
                #[cfg(mcsim_coop)]
                unsafe {
                    crate::coop::switch(cb.ctxs.add(self.core), *cb.ctxs.add(next))
                };
                #[cfg(not(mcsim_coop))]
                {
                    let _ = cb;
                    unreachable!("coop backend unavailable on this target: core {next}");
                }
            }
        }
    }

    fn retire(&mut self) {
        let c = self.core;
        let pending = std::mem::take(&mut self.pending_ticks);
        match &mut self.backend {
            CtxBackend::Threads(tb) => {
                let st = tb.acquire_turn(c);
                let next = finish_retire(st, c, pending);
                tb.release_turn_to(next.unwrap_or(NO_TURN));
            }
            CtxBackend::Coop(cb) => {
                // SAFETY: retiring coroutine still owns the turn.
                let st = unsafe { &mut *cb.state };
                let next = finish_retire(st, c, pending);
                // Record the final switch target (next owner, or the main
                // slot when this was the last active core); the entry shim
                // performs the switch after the body returns, so the body
                // closure's allocation is freed first.
                cb.retire_target = Some(next.unwrap_or(cb.main_slot));
            }
        }
    }

    // --- architectural operations --------------------------------------

    /// Plain 64-bit load.
    pub fn read(&mut self, a: Addr) -> u64 {
        self.event(ReadOp(a))
    }

    /// Plain 64-bit store.
    pub fn write(&mut self, a: Addr, v: u64) {
        self.event(WriteOp(a, v))
    }

    /// Compare-and-swap: `Ok(expected)` on success, `Err(actual)` otherwise.
    pub fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64> {
        self.event(CasOp(a, expected, new))
    }

    /// Memory fence.
    pub fn fence(&mut self) {
        self.event(FenceOp)
    }

    /// The SMR protocols' uncosted ordering fence (`casmr`'s
    /// `Env::smr_fence` forwards here). Semantically a no-op in the
    /// sequentially consistent simulator and absent from the pinned cost
    /// model, so by default it issues nothing at all; with
    /// [`MachineConfig::race_check`] armed it issues a zero-cost
    /// `SmrFenceOp` event so the happens-before analyzer
    /// ([`crate::hb`]) sees the ordering edge the native backend's real
    /// fence provides.
    pub fn smr_fence(&mut self) {
        if self.race_check {
            self.event(SmrFenceOp)
        }
    }

    /// `cread`: conditional load (`Err` = failed, CAFAIL set). See paper
    /// §II-B and the `cacore` crate docs.
    pub fn cread(&mut self, a: Addr) -> Result<u64, Restart> {
        self.event(CreadOp(a))
    }

    /// `cwrite`: conditional store (`Err` = failed, CAFAIL set).
    pub fn cwrite(&mut self, a: Addr, v: u64) -> Result<(), Restart> {
        self.event(CwriteOp(a, v))
    }

    /// `untagOne`.
    pub fn untag_one(&mut self, a: Addr) {
        self.event(UntagOneOp(a))
    }

    /// `untagAll` (clears the tag set and the ARB).
    pub fn untag_all(&mut self) {
        self.event(UntagAllOp)
    }

    /// Allocate one node (a 64-byte line). Charges the malloc latency.
    /// Panics inside the event on heap exhaustion.
    pub fn alloc(&mut self) -> Addr {
        self.event(AllocOp)
    }

    /// Free one node. Charges the free latency. Traps double frees.
    pub fn free(&mut self, a: Addr) {
        self.event(FreeOp(a))
    }

    // --- HTM comparator (paper §VI) -------------------------------------

    /// Begin a hardware transaction. Panics on nesting; plain memory
    /// operations are forbidden until `tx_commit`/`tx_abort`.
    pub fn tx_begin(&mut self) {
        self.event(TxBeginOp)
    }

    /// Speculative load inside a transaction. `Err` means the transaction
    /// detected a conflict and **has aborted**; restart it.
    pub fn tx_read(&mut self, a: Addr) -> Result<u64, Restart> {
        self.event(TxReadOp(a))
    }

    /// Speculative store inside a transaction (buffered until commit).
    /// `Err` means the transaction has aborted.
    pub fn tx_write(&mut self, a: Addr, v: u64) -> Result<(), Restart> {
        self.event(TxWriteOp(a, v))
    }

    /// Attempt to commit. On success all buffered writes become visible
    /// atomically (and the use-after-free detector validates each target);
    /// on conflict the transaction is rolled back and `Err` is returned.
    pub fn tx_commit(&mut self) -> Result<(), Restart> {
        self.event(TxCommitOp)
    }

    /// Explicitly abort the in-flight transaction (e.g. a version validation
    /// inside it failed).
    pub fn tx_abort(&mut self) {
        self.event(TxAbortOp)
    }

    /// Is a transaction in flight on this hardware thread? (Introspection;
    /// no cycles are charged.)
    pub fn tx_active(&mut self) -> bool {
        let c = self.core;
        self.with_state(|st| st.hub.tx_active(c))
    }

    /// Record one completed data-structure operation (throughput numerator,
    /// Figure 3 sampling trigger).
    pub fn op_completed(&mut self) {
        self.event(OpCompletedOp)
    }

    /// This core's current simulated clock (cycles).
    pub fn now(&mut self) -> u64 {
        let c = self.core;
        self.with_state(|st| st.sched.clocks[c]) + self.pending_ticks
    }

    /// Read the machine state without issuing an event (no cycles, no
    /// scheduling point).
    #[inline]
    fn with_state<T>(&self, f: impl FnOnce(&SimState) -> T) -> T {
        match &self.backend {
            CtxBackend::Threads(tb) => match tb.turn_guard.as_deref() {
                Some(st) => f(st),
                None => f(&tb.shared.lock()),
            },
            // SAFETY: a running coroutine owns the turn (state is idle).
            CtxBackend::Coop(cb) => f(unsafe { &*cb.state }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Machine {
        Machine::new(MachineConfig {
            cores: 4,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn single_thread_roundtrip() {
        let m = small();
        let a = m.alloc_static(1);
        let out = m.run_on(1, |_, ctx| {
            ctx.write(a, 123);
            ctx.read(a)
        });
        assert_eq!(out, vec![123]);
        assert!(m.stats().max_cycles > 0);
    }

    #[test]
    fn two_threads_share_memory() {
        let m = small();
        let a = m.alloc_static(1);
        // Both threads CAS-increment the counter 100 times; the total must
        // be exactly 200 regardless of interleaving.
        m.run_on(2, |_, ctx| {
            for _ in 0..100 {
                loop {
                    let cur = ctx.read(a);
                    if ctx.cas(a, cur, cur + 1).is_ok() {
                        break;
                    }
                }
            }
        });
        assert_eq!(m.host_read(a), 200);
        m.check_invariants();
    }

    #[test]
    fn deterministic_interleaving() {
        let run = || {
            let m = small();
            let a = m.alloc_static(1);
            m.run_on(3, |i, ctx| {
                for _ in 0..50 {
                    loop {
                        let cur = ctx.read(a);
                        // Mix in the core id so the final value depends on
                        // the exact interleaving.
                        if ctx.cas(a, cur, cur.wrapping_mul(31) + i as u64 + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
            (m.host_read(a), m.stats().max_cycles)
        };
        let (v1, c1) = run();
        let (v2, c2) = run();
        assert_eq!(v1, v2, "same program must give the same interleaving");
        assert_eq!(c1, c2, "and the same timing");
    }

    #[test]
    fn quantum_changes_interleaving_but_not_safety() {
        let run = |q: u64| {
            let m = Machine::new(MachineConfig {
                cores: 4,
                mem_bytes: 1 << 20,
                static_lines: 64,
                quantum: q,
                ..Default::default()
            });
            let a = m.alloc_static(1);
            m.run_on(4, |_, ctx| {
                for _ in 0..50 {
                    loop {
                        let cur = ctx.read(a);
                        if ctx.cas(a, cur, cur + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
            m.host_read(a)
        };
        for q in [0, 10, 1000] {
            assert_eq!(run(q), 200, "quantum {q}");
        }
    }

    #[test]
    fn ticks_accumulate_into_clock() {
        let m = small();
        let a = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            ctx.tick(1000);
            ctx.read(a);
        });
        assert!(m.stats().max_cycles >= 1000);
    }

    #[test]
    fn reset_timing_preserves_memory() {
        let m = small();
        let a = m.alloc_static(1);
        m.run_on(1, |_, ctx| ctx.write(a, 7));
        m.reset_timing();
        assert_eq!(m.host_read(a), 7);
        assert_eq!(m.stats().max_cycles, 0);
        let v = m.run_on(1, |_, ctx| ctx.read(a));
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn multiple_runs_allowed() {
        let m = small();
        let a = m.alloc_static(1);
        for i in 0..3 {
            m.run_on(2, |_, ctx| {
                let v = ctx.read(a);
                ctx.write(a, v + 1);
            });
            assert!(m.host_read(a) >= i); // at least monotone
        }
    }

    #[test]
    fn alloc_free_through_ctx() {
        let m = small();
        let addrs = m.run_on(2, |_, ctx| {
            let a = ctx.alloc();
            ctx.write(a, 1);
            ctx.free(a);
            let b = ctx.alloc(); // immediate reuse on the same core
            ctx.write(b, 2);
            (a, b)
        });
        for (a, b) in addrs {
            assert_eq!(a, b, "LIFO reuse");
        }
        assert_eq!(m.stats().allocated_not_freed, 2);
    }

    #[test]
    fn op_sampling() {
        let m = Machine::new(MachineConfig {
            cores: 2,
            mem_bytes: 1 << 20,
            static_lines: 64,
            sample_every: Some(10),
            ..Default::default()
        });
        m.run_on(2, |_, ctx| {
            for _ in 0..25 {
                let a = ctx.alloc();
                ctx.write(a, 1);
                ctx.op_completed();
            }
        });
        let samples = m.footprint_samples();
        assert_eq!(samples.len(), 5, "50 ops / sample_every 10");
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
        // Footprint grows: each op leaks one node here.
        assert!(samples.last().unwrap().1 >= samples.first().unwrap().1);
    }

    #[test]
    fn panic_in_one_thread_propagates_and_frees_scheduler() {
        let m = small();
        let a = m.alloc_static(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_on(3, |i, ctx| {
                for _ in 0..10 {
                    ctx.read(a);
                }
                if i == 1 {
                    panic!("deliberate test panic");
                }
                for _ in 0..10 {
                    ctx.read(a);
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate out of run()");
        // The machine is still usable afterwards.
        let v = m.run_on(2, |_, ctx| ctx.read(a));
        assert_eq!(v, vec![0, 0]);
    }

    #[test]
    fn uaf_detector_fires_through_ctx() {
        let m = small();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_on(1, |_, ctx| {
                let a = ctx.alloc();
                ctx.write(a, 1);
                ctx.free(a);
                ctx.read(a); // use-after-free
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn context_switch_sets_arb_deterministically() {
        let mk = || {
            Machine::new(MachineConfig {
                cores: 1,
                mem_bytes: 1 << 20,
                static_lines: 64,
                ctx_switch: Some((500, 100)),
                ..Default::default()
            })
        };
        let m = mk();
        let a = m.alloc_static(1);
        let fails = m.run_on(1, |_, ctx| {
            let mut fails = 0;
            for _ in 0..200 {
                if ctx.cread(a).is_err() {
                    fails += 1;
                    ctx.untag_all();
                }
            }
            fails
        });
        let stats = m.stats();
        assert!(
            stats.cores[0].ctx_switches > 0,
            "preemption must fire on a long run"
        );
        assert_eq!(
            stats.cores[0].revoke_ctx_switch, stats.cores[0].ctx_switches,
            "every switch revokes (the thread always holds a tag here)"
        );
        assert!(fails[0] > 0, "creads after a switch must fail");
        // Deterministic: same config, same counts.
        let m2 = mk();
        let _a2 = m2.alloc_static(1);
        let fails2 = m2.run_on(1, |_, ctx| {
            let mut fails = 0;
            for _ in 0..200 {
                if ctx.cread(Addr(a.0)).is_err() {
                    fails += 1;
                    ctx.untag_all();
                }
            }
            fails
        });
        assert_eq!(fails, fails2);
    }

    #[test]
    fn no_preemption_by_default() {
        let m = small();
        let a = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            for _ in 0..100 {
                let _ = ctx.read(a);
            }
        });
        assert_eq!(m.stats().sum(|c| c.ctx_switches), 0);
    }

    #[test]
    fn host_calls_inside_a_run_panic_instead_of_deadlocking() {
        // On both backends, a host-side Machine call from a run closure
        // whose core holds the state lock must panic loudly rather than
        // relock the mutex on the same thread (a permanent hang).
        for exec in [ExecBackend::Coop, ExecBackend::Threads] {
            let m = Machine::new(MachineConfig {
                cores: 1,
                mem_bytes: 1 << 20,
                static_lines: 64,
                exec,
                ..Default::default()
            });
            let a = m.alloc_static(1);
            let m_ref = &m;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m_ref.run_on(1, |_, ctx| {
                    // First event caches the guard on the threads backend
                    // (a single core always keeps the turn).
                    ctx.read(a);
                    let _ = m_ref.stats(); // would self-deadlock unguarded
                });
            }));
            assert!(
                result.is_err(),
                "{exec:?}: host-side call inside a run must panic loudly"
            );
            // The machine is still usable afterwards.
            assert_eq!(m.stats().total_ops, 0);
        }
    }

    #[test]
    fn concurrent_machines_on_host_threads_stay_deterministic() {
        // The caharness parallel sweep runs one independent machine per
        // host worker. Machines share no state, so N concurrent runs must
        // produce exactly the results of N serial runs — on both backends
        // (coop stacks are confined to their run's host thread).
        let program = |exec: ExecBackend| {
            let m = Machine::new(MachineConfig {
                cores: 3,
                mem_bytes: 1 << 20,
                static_lines: 64,
                exec,
                ..Default::default()
            });
            let a = m.alloc_static(1);
            m.run_on(3, |i, ctx| {
                for _ in 0..100 {
                    loop {
                        let cur = ctx.read(a);
                        if ctx.cas(a, cur, cur.wrapping_mul(31) + i as u64 + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
            (m.host_read(a), m.stats().max_cycles)
        };
        for exec in [ExecBackend::Threads, ExecBackend::Coop] {
            let serial = program(exec);
            let concurrent: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4).map(|_| s.spawn(move || program(exec))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in concurrent {
                assert_eq!(r, serial, "{exec:?}: concurrent run diverged from serial");
            }
        }
    }

    #[test]
    fn host_calls_on_a_different_machine_are_allowed_mid_run() {
        // The hold marker is machine-scoped: using an independent machine
        // as an oracle from inside a run closure is fine.
        let oracle = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        });
        let key = oracle.alloc_static(1);
        oracle.host_write(key, 99);
        let m = small();
        let a = m.alloc_static(1);
        let oracle_ref = &oracle;
        let out = m.run_on(1, |_, ctx| {
            ctx.read(a);
            oracle_ref.host_read(key)
        });
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn env_override_is_reread_after_changes() {
        // Regression: the override used to be cached in a OnceLock, so a
        // test or embedder setting MCSIM_EXEC after the first read silently
        // kept the stale backend. The cache is gone — env_override is now
        // `parse_override(env::var(..))` with no static state, so staleness
        // is structurally impossible; the parse seam is pinned here for
        // every accepted value. (Deliberately NOT exercised via
        // std::env::set_var: mutating the environment while concurrent
        // tests resolve backends through libc getenv is a data race.)
        assert_eq!(
            ExecBackend::parse_override("threads"),
            Some(ExecBackend::Threads)
        );
        assert_eq!(ExecBackend::parse_override("auto"), None);
        if COOP_SUPPORTED {
            assert_eq!(ExecBackend::parse_override("coop"), Some(ExecBackend::Coop));
        }
        // Two consecutive resolutions agree with the live environment (no
        // memoization to go stale between them).
        assert_eq!(ExecBackend::env_override(), ExecBackend::env_override());
    }

    #[test]
    fn cread_cwrite_through_ctx() {
        let m = small();
        let a = m.alloc_static(1);
        let outs = m.run_on(1, |_, ctx| {
            let v = ctx.cread(a);
            let ok = ctx.cwrite(a, 9);
            ctx.untag_all();
            (v, ok, ctx.read(a))
        });
        assert_eq!(outs, vec![(Ok(0), Ok(()), 9)]);
    }

    // --- fault injection (crate::fault) ---------------------------------

    fn fault_machine(plan: FaultPlan) -> Machine {
        Machine::new(MachineConfig {
            cores: 4,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            fault_plan: plan,
            ..Default::default()
        })
    }

    /// A shared-counter workload long enough for mid-run triggers.
    fn cas_work(m: &Machine, n: usize, iters: usize) -> Vec<CoreOutcome<u64>> {
        let a = m.alloc_static(1);
        m.run_recover_on(
            n,
            move |_, ctx| {
                for _ in 0..iters {
                    loop {
                        let cur = ctx.read(a);
                        if ctx.cas(a, cur, cur + 1).is_ok() {
                            break;
                        }
                    }
                }
                ctx.now()
            },
            |_, _| unreachable!("plan has no restarts"),
        )
    }

    #[test]
    fn stall_fault_fires_once_and_charges_cycles() {
        let stalled = {
            let m = fault_machine(FaultPlan::none().stall(1, 100, 50_000));
            cas_work(&m, 2, 50);
            m.stats()
        };
        let clean = {
            let m = fault_machine(FaultPlan::none());
            cas_work(&m, 2, 50);
            m.stats()
        };
        assert_eq!(stalled.cores[1].fault_stalls, 1);
        assert_eq!(stalled.cores[0].fault_stalls, 0);
        // The burst is charged to the stalled core's clock. (No exact
        // clean-run delta: removing core 1 from contention for 50k cycles
        // changes what the rest of its run costs.)
        assert!(stalled.cores[1].cycles >= 50_000);
        assert!(stalled.cores[1].cycles > clean.cores[1].cycles);
        assert!(stalled.crashed.iter().all(|&c| !c));
        // The burst deschedule has context-switch side effects.
        assert!(stalled.cores[1].ctx_switches >= 1);
        assert!(stalled.cores[1].revoke_ctx_switch >= 1);
    }

    #[test]
    fn crash_fault_reported_as_outcome() {
        let m = fault_machine(FaultPlan::none().crash(1, 200));
        let outs = cas_work(&m, 3, 200);
        assert!(outs[1].crashed());
        assert!(!outs[0].crashed() && !outs[2].crashed());
        let stats = m.stats();
        assert_eq!(stats.crashed, vec![false, true, false, false]);
        // The survivors were not wedged by the dead core.
        assert!(stats.cores[0].cycles > stats.cores[1].cycles);
        match outs[1] {
            CoreOutcome::Crashed { core, clock } => {
                assert_eq!(core, 1);
                assert!(clock >= 200, "crash trigger is a clock lower bound");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn crash_fault_panics_through_plain_run() {
        let m = fault_machine(FaultPlan::none().crash(0, 0));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_on(1, |_, ctx| ctx.fence());
        }));
        let payload = caught.expect_err("crash must propagate out of run()");
        assert!(payload.downcast_ref::<FaultStop>().is_some());
    }

    #[test]
    fn faults_disarm_and_reset_with_timing() {
        let m = fault_machine(FaultPlan::none().crash(1, 0));
        m.set_faults_armed(false);
        let outs = cas_work(&m, 2, 20);
        assert!(
            outs.iter().all(|o| !o.crashed()),
            "disarmed plans fire nothing"
        );
        m.set_faults_armed(true);
        let outs = cas_work(&m, 2, 20);
        assert!(outs[1].crashed());
        // reset_timing rewinds the trigger: it fires again next run.
        m.reset_timing();
        assert_eq!(m.stats().crashed, vec![false; 4]);
        let outs = cas_work(&m, 2, 20);
        assert!(outs[1].crashed());
    }

    #[test]
    #[should_panic(expected = "wedge watchdog")]
    fn watchdog_ceiling_trips() {
        let m = Machine::new(MachineConfig {
            cores: 2,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            max_cycles: Some(1_000),
            ..Default::default()
        });
        let a = m.alloc_static(1);
        m.run_on(2, |_, ctx| {
            // A deliberate livelock stand-in: spin well past the ceiling.
            for _ in 0..100_000 {
                ctx.read(a);
            }
        });
    }

    #[test]
    fn fault_runs_are_deterministic_across_backends() {
        if !COOP_SUPPORTED {
            return;
        }
        let run = |exec: ExecBackend| {
            let m = Machine::new(MachineConfig {
                cores: 4,
                mem_bytes: 1 << 20,
                static_lines: 64,
                quantum: 0,
                exec,
                fault_plan: FaultPlan::none().stall(2, 500, 10_000).crash(3, 1_500),
                ..Default::default()
            });
            let outs = cas_work(&m, 4, 100);
            let st = m.stats();
            (
                outs.iter().map(|o| o.crashed()).collect::<Vec<_>>(),
                st.crashed.clone(),
                st.max_cycles,
                st.sum(|c| c.fault_stalls),
                st.cores.iter().map(|c| c.cycles).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(ExecBackend::Threads), run(ExecBackend::Coop));
    }

    // --- the recovery contract's edge cases, on every backend ------------

    fn backends() -> Vec<ExecBackend> {
        let mut v = vec![ExecBackend::Threads];
        if COOP_SUPPORTED {
            v.push(ExecBackend::Coop);
        }
        v
    }

    fn recover_machine(exec: ExecBackend, plan: FaultPlan) -> Machine {
        Machine::new(MachineConfig {
            cores: 4,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            exec,
            fault_plan: plan,
            ..Default::default()
        })
    }

    fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn uaf_panic_in_restart_bearing_run_propagates() {
        for exec in backends() {
            let m = recover_machine(exec, FaultPlan::none().crash(0, 1_000_000).restart(0, 0));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.run_recover_on(
                    2,
                    |i, ctx| {
                        if i == 0 {
                            let a = ctx.alloc();
                            ctx.free(a);
                            ctx.read(a); // use-after-free, not an injected crash
                        }
                        i
                    },
                    |_, _| panic!("{exec:?}: a UAF panic must not be recovered"),
                )
            }));
            let payload = caught.expect_err("UAF panic must propagate");
            assert!(payload.downcast_ref::<FaultStop>().is_none(), "{exec:?}");
            assert!(
                !panic_message(&*payload).contains("must not be recovered"),
                "{exec:?}: recover ran"
            );
            assert_eq!(m.stats().crashed, vec![false; 4], "{exec:?}");
        }
    }

    #[test]
    fn panic_inside_recover_propagates() {
        for exec in backends() {
            let m = recover_machine(exec, FaultPlan::none().crash(1, 100).restart(1, 500));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let a = m.alloc_static(1);
                m.run_recover_on(
                    2,
                    |_, ctx| {
                        for _ in 0..200 {
                            ctx.read(a);
                        }
                    },
                    |_, _| panic!("deliberate recovery panic"),
                )
            }));
            let payload = caught.expect_err("a panic out of recover must propagate");
            assert_eq!(
                panic_message(&*payload),
                "deliberate recovery panic",
                "{exec:?}"
            );
            assert_eq!(
                m.stats().crashed,
                vec![false, true, false, false],
                "{exec:?}"
            );
        }
    }

    #[test]
    fn restart_without_a_crash_yields_done() {
        for exec in backends() {
            let m = recover_machine(exec, FaultPlan::none().restart(1, 50));
            let a = m.alloc_static(1);
            let outs = m.run_recover_on(
                2,
                |i, ctx| {
                    for _ in 0..100 {
                        ctx.read(a);
                    }
                    i
                },
                |_, _| unreachable!("no core crashes"),
            );
            assert_eq!(
                outs,
                vec![CoreOutcome::Done(0), CoreOutcome::Done(1)],
                "{exec:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "FaultPlan restart on core 4 of 4")]
    fn restart_on_a_core_the_machine_lacks_is_rejected_at_build() {
        fault_machine(FaultPlan::none().restart(4, 0));
    }

    #[test]
    fn restart_on_a_core_outside_the_run_is_ignored() {
        for exec in backends() {
            let m = recover_machine(exec, FaultPlan::none().crash(3, 0).restart(3, 10));
            let outs = m.run_recover_on(
                2,
                |i, ctx| {
                    ctx.fence();
                    i
                },
                |_, _| unreachable!("cores 0..2 never crash"),
            );
            assert_eq!(
                outs,
                vec![CoreOutcome::Done(0), CoreOutcome::Done(1)],
                "{exec:?}"
            );
            assert_eq!(m.stats().crashed, vec![false; 4], "{exec:?}");
        }
    }
}
