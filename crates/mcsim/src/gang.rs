//! Intra-machine gang scheduling: one large simulated machine across many
//! host threads, with deterministic epoch barriers.
//!
//! ## Model
//!
//! With `MachineConfig::gangs = G > 1`, a run's cores are partitioned into
//! G contiguous, SMT-aligned blocks ("gangs"). Each gang owns a **scheduler
//! shard** — the same two-min turn structure the single-gang machine uses
//! ([`crate::sched::Sched`]), over the gang's cores only — and executes on
//! its own host thread: a per-gang coroutine arena on the coop backend
//! (stacks stay `!Send`, confined to the gang worker), or per-core OS
//! threads coordinated by a per-gang turn word on the threads backend.
//!
//! Time advances in **epochs**. At each epoch barrier the conductor (the
//! thread that called `Machine::run`) computes a clock ceiling
//! `global_min_clock + gang_window`; inside the epoch a gang may only run
//! cores whose clocks are at or below the ceiling. Within the epoch, a core
//! executes **gang-local events** directly and in parallel with other
//! gangs; any event that touches shared state is **deferred**: queued with
//! its issue key and applied at the barrier in `(clock, core id, seq)`
//! order against the full machine state by `event::exec_op`, which
//! delegates to the same typed event bodies the single-gang pipeline runs.
//!
//! ## The banked multi-writer merge
//!
//! The barrier replay itself need not be serial: the hub's directory is
//! banked ([`crate::coherence::CacheConfig::l2_banks`], selected by the low
//! line bits, exactly set-preserving), and most deferred events are misses
//! whose replay footprint is confined to **one bank plus a known set of
//! physical cores**. The conductor classifies the sorted items
//! ([`ClassifyState::verdict`]):
//!
//! * A blocking `Read`/`Write`/`Cas`/`Cread`/`Cwrite` of line L is
//!   *bank-local*: it touches bank(L)'s directory sets and per-bank LRU
//!   stamp, L's memory word, the issuing physical core's L1/ARB/tx/stats/
//!   clock, and the L1s+stats of cores holding lines of L's L2 set
//!   (invalidation, downgrade, back-invalidation targets). Two structural
//!   facts bound the footprint: an L2 victim is same-set, hence same-bank;
//!   and with `banks ≤ l1_sets` an L1 set is wholly contained in one bank,
//!   so an L1 victim's writeback also stays in bank(L).
//! * Each such event unions `{bank(L)} ∪ {issuing pcore} ∪ {set-holder
//!   pcores}` in a union-find; every component becomes a **merge lane**,
//!   replayed in serial order by one of the (already parked) gang worker
//!   threads. Lanes share no state — cores filled during the phase were
//!   claimed by the event that filled them, and lanes only insert their own
//!   banks' lines — so any lane interleaving equals the serial order
//!   byte-for-byte.
//! * Everything else replays in a **serial epilogue** behind the lanes:
//!   allocator ops, any later event on a line freed this barrier (the UAF
//!   verdict must observe the free), `OpDone` behind an allocator op when
//!   Fig-3 sampling is live, and — cutting the rest of the barrier —
//!   transactional ops. `OpDone` items ahead of any allocator op commute
//!   with every lane and are applied inline by the conductor.
//!
//! The classification is a *proof*, not a schedule: the sequential driver
//! runs a counters-only pass and replays serially (same bytes by
//! construction), while the spawn-coop driver dispatches the lanes to its
//! parked gang workers and the threads mechanism to its dedicated merge
//! workers, both through the gate's merge phase. The
//! `banked_merge_events`/`serial_epilogue_events`/`bank_occupancy` counters
//! are therefore identical across drivers, backends and `--jobs` for a
//! fixed `(program, seeds, quantum, gangs, gang_window, l2_banks)`. On an
//! aborting run (a lane panic, e.g. the UAF detector firing) sibling lanes
//! may already have applied later events; aborting runs make no
//! byte-identity claim.
//!
//! ## What is gang-local (and why it is race-free)
//!
//! The coherence protocol itself partitions the state:
//!
//! * **L1-hit events** touch only the issuing gang's L1s, ARBs, tx state
//!   and stats (all physically sliced per gang) plus the functional memory
//!   word. The word access is race-free *by MSI/MESI*: a store requires an
//!   M (or silently-upgraded E) copy, which excludes every other copy in
//!   the system, so no concurrent reader can exist; a load requires a
//!   resident copy, which excludes any concurrent M writer. Any event that
//!   would need the directory (a miss, an S→M upgrade, an eviction) is
//!   deferred instead.
//! * `untagOne`/`untagAll`/`fence`, failed-fast conditional accesses (ARB
//!   set / untagged target), and the OS-preemption model touch only the
//!   gang partition: always local.
//! * `alloc`, `free` and all HTM operations defer (shared allocator / cold
//!   path; `free` blocks so the UAF oracle stays exact for everything the
//!   freeing core does next — a blocked core's clock freezes, so blocking
//!   costs no simulated time). `op_completed` splits: per-core stats are
//!   charged locally, the global counter + Fig-3 sample is queued
//!   **non-blocking** (nothing the core does next depends on it).
//!
//! ## Determinism contract
//!
//! For a fixed `(program, seeds, quantum, gangs, gang_window)` the results
//! are bit-identical across repeated runs, host scheduling, and both exec
//! backends: every intra-gang decision is a pure function of gang-local
//! state, every cross-gang effect is applied in the sorted deterministic
//! barrier order, and the ceiling is a pure function of the merged clocks.
//! `gangs = 1` never enters this module — `Machine::run` keeps the classic
//! single-turn path, byte-identical to the pre-gang scheduler. Different
//! gang layouts are *different (each deterministic) schedules*: cross-gang
//! coherence (invalidation → ARB revocation) lands at the next barrier, a
//! bounded-skew relaxation equivalent to the paper's lax-synchronized
//! banked Graphite simulation (§V).
//!
//! ## Aliasing discipline (unsafe audit)
//!
//! All raw pointers derive from one `&mut SimState` taken by the conductor
//! for the whole run. Phases strictly alternate: in the *parallel* phase
//! each gang actor touches only its `LaneParts` slices (disjoint per gang)
//! plus protocol-guarded memory words, and the conductor touches nothing;
//! in the *serial* phase (between `Gate::wait_all_arrived` and
//! `Gate::open_epoch`) the conductor has exclusive access to everything.
//! Gang actors re-create their slice references transiently per event and
//! never hold them across a barrier.
//!
//! The banked **merge phase** adds a third mode: the conductor ends its
//! `&mut SimState` borrow before opening the phase, and each merge worker
//! runs its lanes entirely through a [`BankParts`] projection — the
//! per-bank analogue of `LaneParts` — so **no `&mut SimState` is ever
//! materialized concurrently**. `BankParts` (see `coherence.rs`) carries
//! raw bases for the directory banks, per-core L1s/ARBs/tx/stats and the
//! memory words; every access goes through an element-granular accessor,
//! so two workers hold `&mut` only to pairwise disjoint elements (per-bank
//! directory sets, per-core L1s/stats/slots, per-line memory words —
//! disjointness guaranteed by the classifier). The per-core gang
//! bookkeeping goes through stable raw element pointers
//! (`clock_ptrs`/`blocked_ptrs`/`results`/`LaneParts::next_preempt`),
//! never through `&mut GangState`. The op semantics stay single-sourced:
//! the serial replay and the epilogue (`event::exec_op`) and the lanes
//! (`event::exec_bank_op`) are arm-by-arm delegates to one set of typed
//! `BankEvent` bodies over the very same `BankParts` accessors.
//!
//! In debug builds the classifier additionally emits a per-lane
//! [`LaneScope`] (the union-find component's bank/pcore membership) and
//! each worker installs it on its `BankParts` copy: every accessor then
//! *asserts* that the touched bank/pcore lies inside the classified
//! component — a runtime race detector for the classification proof
//! (`coherence.rs` has the self-test that a misclassified event trips it).

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::thread::Thread;

use crate::addr::{Addr, CoreId, Line};
use crate::alloc::{panic_access, Allocator, Fault, UafMode};
use crate::cache::{MsiState, L1};
use crate::coherence::{BankParts, LaneScope, TxState};
use crate::fault::FaultStop;
use crate::latency::LatencyModel;
use crate::event::{exec_bank_op, exec_op, Op, Out};
use crate::machine::{CoreFn, Ctx, CtxBackend, SimState};
use crate::sched::{Sched, NO_TURN};
use crate::stats::{CoreStats, RevokeCause};

const ABORT_MSG: &str =
    "gang run aborted: the epoch-barrier conductor panicked (see its panic)";

/// How a run's cores are partitioned into gangs.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Layout {
    /// Cores participating in this run (`fns.len()`).
    pub n: usize,
    /// Cores per gang (the last gang may be smaller).
    pub block: usize,
    /// Effective gang count.
    pub gangs: usize,
}

impl Layout {
    /// Partition `n` cores into at most `gangs_requested` contiguous blocks,
    /// aligned so sibling hyperthreads never straddle a gang boundary.
    pub fn new(n: usize, gangs_requested: usize, smt: usize) -> Layout {
        let block = n
            .div_ceil(gangs_requested.max(1))
            .next_multiple_of(smt.max(1));
        Layout {
            n,
            block,
            gangs: n.div_ceil(block),
        }
    }

    #[inline]
    pub fn gang_of(&self, c: CoreId) -> usize {
        c / self.block
    }

    #[inline]
    pub fn base(&self, g: usize) -> usize {
        g * self.block
    }

    #[inline]
    pub fn size(&self, g: usize) -> usize {
        (self.n - self.base(g)).min(self.block)
    }
}

/// A queued cross-gang item, applied at the epoch barrier.
enum Deferred {
    /// A full event: executed via `exec_op`, result delivered to the
    /// issuing (blocked) core's slot.
    Blocking(Op),
    /// Global half of `op_completed` (global op counter + Fig-3 sampling).
    OpDone,
    /// A detector fault observed on the parallel fast path (Record mode).
    Fault(Fault),
}

/// Queue entry with its deterministic merge key.
struct Queued {
    clock: u64,
    core: CoreId,
    seq: u64,
    pending: u64,
    item: Deferred,
}

impl Queued {
    /// Target line of a bank-classifiable blocking op (lane events only).
    fn line(&self) -> Line {
        match self.item {
            Deferred::Blocking(
                Op::Read(a) | Op::Write(a, _) | Op::Cas(a, _, _) | Op::Cread(a) | Op::Cwrite(a, _),
            ) => a.line(),
            _ => unreachable!("line() on a non-bank-classifiable item"),
        }
    }
}

/// The classified barrier plan (see [`classify`] and the module docs on the
/// banked merge). Indices point into the sorted item list.
struct MergePlan {
    /// One lane per union-find component over `{banks} ∪ {pcores}`: the
    /// component's bank-local events, in serial `(clock, core, seq)` order.
    lanes: Vec<Vec<usize>>,
    /// `OpDone` items safe to apply before the lanes run (their only shared
    /// effect — the global op counter and, without interleaving allocator
    /// ops, the Fig-3 sample — commutes with every lane event).
    inline_opdone: Vec<usize>,
    /// Items replayed serially after the lanes, in serial order.
    suffix: Vec<usize>,
    /// Total lane events (= `lanes` element count).
    lane_events: usize,
    /// Debug builds only (empty otherwise): each lane's classified
    /// bank/pcore membership, installed on the executing worker's
    /// [`BankParts`] so every accessor asserts the footprint claim.
    scopes: Vec<LaneScope>,
}

/// Shared state of one parallel merge phase: the sorted items, the
/// [`BankParts`] projection template and the per-lane panic slots. Written
/// by the conductor before the merge epoch opens; lanes are executed by
/// the merge workers (worker `w` takes lanes `w, w + G, ...`) through a
/// shared reference — each worker copies `parts` (raw bases + scalars,
/// `Copy`) and installs its lane's scope, and the only in-place mutation,
/// the panic capture, goes through each slot's `UnsafeCell` (disjoint
/// slots per worker); the conductor takes everything back after all
/// arrive.
struct MergeShared {
    items: Vec<Queued>,
    /// Projection of the run's `SimState` (scope unset): the template each
    /// worker copies. Taken by the conductor *after* it ends its own
    /// `&mut SimState` borrow, so the raw bases are unaliased for the
    /// whole phase.
    parts: BankParts,
    /// Per-lane footprint scopes from [`classify`] (debug builds; empty in
    /// release, where the checker compiles out).
    scopes: Vec<LaneScope>,
    lanes: Vec<MergeLaneSlot>,
}

struct MergeLaneSlot {
    events: Vec<usize>,
    /// Panic payload captured by the executing worker, if the lane's replay
    /// panicked (e.g. the UAF detector firing inside a deferred event).
    /// `UnsafeCell` so the worker can write it through the shared
    /// `&MergeShared` (exclusivity per slot: lane `i` belongs to exactly
    /// worker `i % G`).
    panic: UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
}

/// Don't bother waking workers for a merge this small: the condvar round
/// trip costs more than the serial replay.
const MIN_PARALLEL_MERGE_EVENTS: usize = 8;

/// Per-gang run state. Touched by the gang's current actor during the
/// parallel phase (exclusivity via the gang turn) and by the conductor
/// during the serial phase.
pub(crate) struct GangState {
    /// The gang's scheduler shard (local core ids `0..size`).
    sched: Sched,
    retired: Vec<bool>,
    blocked: Vec<bool>,
    queue: Vec<Queued>,
    seq: u64,
}

/// Raw views of one gang's partition of the machine state (plus the
/// protocol-guarded shared memory). `Copy`; real slices are re-created
/// transiently per event by [`Lane::new`].
#[derive(Copy, Clone)]
pub(crate) struct LaneParts {
    l1s: *mut L1,
    n_pcores: usize,
    pcore_base: usize,
    arb: *mut bool,
    tx: *mut TxState,
    stats: *mut CoreStats,
    next_preempt: *mut u64,
    /// Hardware-thread span covered by the slices above (whole physical
    /// cores, so sibling revokes on a ragged last gang stay in bounds).
    n_threads: usize,
    thread_base: usize,
    mem: *mut u64,
    mem_words: usize,
    alloc: *const Allocator,
}

/// Epoch barrier: gangs arrive, the conductor merges and opens the next
/// epoch.
struct Gate {
    st: Mutex<GateSt>,
    workers: Condvar,
    conductor: Condvar,
}

struct GateSt {
    epoch: u64,
    arrived: usize,
    expected: usize,
    done: bool,
    /// This epoch is a *merge* phase: workers execute their assigned merge
    /// lanes instead of opening a scheduling window.
    merging: bool,
}

impl Gate {
    fn new() -> Self {
        Gate {
            st: Mutex::new(GateSt {
                epoch: 0,
                arrived: 0,
                expected: 0,
                done: false,
                merging: false,
            }),
            workers: Condvar::new(),
            conductor: Condvar::new(),
        }
    }

    /// A gang finished its parallel phase.
    fn arrive(&self) {
        let mut s = self.st.lock().unwrap();
        s.arrived += 1;
        if s.arrived >= s.expected {
            self.conductor.notify_one();
        }
    }

    /// Conductor: wait until every expected gang arrived.
    fn wait_all_arrived(&self) {
        let mut s = self.st.lock().unwrap();
        while s.arrived < s.expected {
            s = self.conductor.wait(s).unwrap();
        }
    }

    /// Conductor: start the next epoch (or signal completion).
    fn open_epoch(&self, expected: usize, pre_arrived: usize, done: bool) {
        self.open_phase(expected, pre_arrived, done, false)
    }

    /// Conductor: start a parallel *merge* phase (coop workers drain their
    /// assigned merge lanes instead of opening a window).
    fn open_merge(&self, expected: usize) {
        self.open_phase(expected, 0, false, true)
    }

    fn open_phase(&self, expected: usize, pre_arrived: usize, done: bool, merging: bool) {
        let mut s = self.st.lock().unwrap();
        s.epoch += 1;
        s.arrived = pre_arrived;
        s.expected = expected;
        s.done = done;
        s.merging = merging;
        self.workers.notify_all();
    }

    /// Coop gang worker: wait for the epoch after `last_seen`.
    fn worker_wait(&self, last_seen: u64) -> (u64, bool, bool) {
        let mut s = self.st.lock().unwrap();
        while s.epoch == last_seen {
            s = self.workers.wait(s).unwrap();
        }
        (s.epoch, s.done, s.merging)
    }
}

/// Shared state of one gang run. Lives on the conductor's stack; shared by
/// reference with the gang threads for the duration of `Machine::run`.
pub(crate) struct GangRun {
    pub(crate) layout: Layout,
    window: u64,
    smt: usize,
    lat: LatencyModel,
    uaf: UafMode,
    ctx_switch: Option<(u64, u64)>,
    root: *mut SimState,
    ceiling: AtomicU64,
    aborted: AtomicBool,
    gangs: Vec<UnsafeCell<GangState>>,
    lanes: Vec<LaneParts>,
    /// Stable per-gang pointers to the shards' clock arrays (for the
    /// race-free `Ctx::now` probe).
    clock_ptrs: Vec<*mut u64>,
    /// Stable per-gang pointers to the shards' blocked flags (merge lanes
    /// clear individual cores' flags without forming `&mut GangState`).
    blocked_ptrs: Vec<*mut bool>,
    /// Per-core result slots for blocking deferred events.
    results: Vec<UnsafeCell<Option<Out>>>,
    /// Threads mechanism: per-gang turn word (local core id or NO_TURN).
    turn_words: Vec<AtomicUsize>,
    gate: Gate,
    /// L2/directory bank count (the hub's `BankedL2` owns the selection
    /// rule; the classifier routes through `BankedL2::bank_of`).
    n_banks: usize,
    /// Banked-merge classification enabled: more than one bank, every L1
    /// set contained in one bank (`banks <= l1_sets`, see the module docs),
    /// and the UAF detector in `Panic` mode (Record mode interleaves fault
    /// pushes with deferred events, so the whole merge stays serial).
    classify: bool,
    /// Parallel lane execution available: set by the spawn-coop driver
    /// (its gang workers double as merge workers) and by the threads
    /// mechanism (dedicated merge workers); the sequential driver replays
    /// serially.
    par_merge: AtomicBool,
    /// The in-flight merge phase (conductor writes before `open_merge`,
    /// workers read during it, conductor takes it back after all arrive).
    merge_shared: UnsafeCell<Option<MergeShared>>,
    // --- fault injection (crate::fault) --------------------------------
    // Raw views of the machine's `FaultState`, global-core-indexed. The
    // plan halves (`stalls`/`crash_at`) are read-only for the whole run;
    // the cursor halves (`stall_cursor`/`crashed`) are per-core elements
    // written only by the core's own actor under its gang turn, or by the
    // conductor in the serial phase — the same element-pointer discipline
    // as `clock_ptrs`/`blocked_ptrs`, so no `&mut FaultState` ever aliases
    // across gangs. Triggers are pure functions of per-core local clocks,
    // which is what keeps fault runs byte-identical across drivers.
    /// Snapshot of `FaultState::hot` (armedness cannot change mid-run: the
    /// conductor holds the machine lock).
    fault_hot: bool,
    /// Wedge-watchdog ceiling (`u64::MAX` = none).
    fault_max_cycles: u64,
    /// Base of the per-core sorted stall windows (read-only).
    fault_stalls: *const Vec<(u64, u64)>,
    /// Base of the per-core crash triggers (read-only).
    fault_crash_at: *const u64,
    /// Base of the per-core next-stall cursors.
    fault_cursor: *mut usize,
    /// Base of the per-core crashed flags.
    fault_crashed: *mut bool,
    /// Race-analyzer trace Vecs, global-core-indexed (null when the
    /// analyzer is off). Each core's Vec is appended to only under that
    /// core's gang turn or by the conductor in the serial phase — the same
    /// element discipline as `clock_ptrs`.
    trace: *mut Vec<crate::hb::TraceEv>,
}

// Safety: the raw pointers are only dereferenced under the phase/turn
// protocol documented in the module header.
unsafe impl Send for GangRun {}
unsafe impl Sync for GangRun {}

impl GangRun {
    /// Derive the run structure from the machine state. `root` must stay
    /// exclusively owned by this run (the conductor holds the state lock).
    ///
    /// # Safety
    /// `root` must be valid for the whole run and not aliased outside the
    /// gang protocol.
    pub(crate) unsafe fn new(
        root: *mut SimState,
        layout: Layout,
        quantum: u64,
        window: u64,
    ) -> GangRun {
        let st = &mut *root;
        let smt = st.hub.smt();
        let lat = st.hub.lat.clone();
        let uaf = st.alloc.uaf_mode;
        let ctx_switch = st.ctx_switch;
        let (mem, mem_words) = st.hub.mem.raw_words();
        let alloc_ptr = &st.alloc as *const Allocator;
        let l1s_base = st.hub.l1s.as_mut_ptr();
        let arb_base = st.hub.arb.as_mut_ptr();
        let tx_base = st.hub.tx.as_mut_ptr();
        let stats_base = st.hub.stats.cores.as_mut_ptr();
        let np_base = st.next_preempt.as_mut_ptr();
        let mut gangs = Vec::with_capacity(layout.gangs);
        let mut lanes = Vec::with_capacity(layout.gangs);
        for g in 0..layout.gangs {
            let base = layout.base(g);
            let size = layout.size(g);
            let mut sched = Sched::new(size, quantum);
            for l in 0..size {
                sched.clocks[l] = st.sched.clocks[base + l];
            }
            gangs.push(UnsafeCell::new(GangState {
                sched,
                retired: vec![false; size],
                blocked: vec![false; size],
                queue: Vec::new(),
                seq: 0,
            }));
            // Cover whole physical cores: only the last gang can be ragged,
            // and the machine guarantees cores % smt == 0, so the rounded
            // span stays in bounds.
            let pcore_base = base / smt;
            let pcore_hi = (base + size).div_ceil(smt);
            let span = pcore_hi * smt - base;
            lanes.push(LaneParts {
                l1s: l1s_base.add(pcore_base),
                n_pcores: pcore_hi - pcore_base,
                pcore_base,
                arb: arb_base.add(base),
                tx: tx_base.add(base),
                stats: stats_base.add(base),
                next_preempt: np_base.add(base),
                n_threads: span,
                thread_base: base,
                mem,
                mem_words,
                alloc: alloc_ptr,
            });
        }
        let clock_ptrs = gangs
            .iter()
            .map(|g| (*g.get()).sched.clocks.as_mut_ptr())
            .collect();
        let blocked_ptrs = gangs
            .iter()
            .map(|g| (*g.get()).blocked.as_mut_ptr())
            .collect();
        let n_banks = st.hub.l2_bank_count();
        let l1_sets = st.hub.l1s[0].array.sets();
        // The banked merge relies on every L1 set being wholly contained in
        // one bank (set index = low line bits ⊇ bank bits), so an L1 fill's
        // victim writeback can never cross into another bank's lane.
        let classify = n_banks > 1 && n_banks <= l1_sets && uaf == UafMode::Panic;
        GangRun {
            layout,
            window,
            smt,
            lat,
            uaf,
            ctx_switch,
            root,
            ceiling: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            gangs,
            lanes,
            clock_ptrs,
            blocked_ptrs,
            results: (0..layout.n).map(|_| UnsafeCell::new(None)).collect(),
            turn_words: (0..layout.gangs).map(|_| AtomicUsize::new(NO_TURN)).collect(),
            gate: Gate::new(),
            n_banks,
            classify,
            par_merge: AtomicBool::new(false),
            merge_shared: UnsafeCell::new(None),
            fault_hot: st.fault.hot,
            fault_max_cycles: st.fault.max_cycles,
            fault_stalls: st.fault.stalls.as_ptr(),
            fault_crash_at: st.fault.crash_at.as_ptr(),
            fault_cursor: st.fault.cursor.as_mut_ptr(),
            fault_crashed: st.fault.crashed.as_mut_ptr(),
            trace: if st.hub.trace.enabled {
                st.hub.trace.cores.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        }
    }

    /// Record a race-analyzer trace event for global core `c` (no-op when
    /// the analyzer is off).
    ///
    /// # Safety
    /// The caller must hold `c`'s gang turn, or be the conductor in the
    /// serial phase (the per-core-Vec exclusivity discipline above).
    #[inline]
    unsafe fn record_trace(&self, c: usize, clock: u64, op: Op, out: &Out) {
        if self.trace.is_null() {
            return;
        }
        let v = &mut *self.trace.add(c);
        crate::hb::record_into(v, clock, op, out);
    }

    /// Publish the shards' clocks back into the global scheduler after the
    /// run (stats()/max_clock read them between runs).
    ///
    /// # Safety
    /// Call only after every gang thread has quiesced.
    pub(crate) unsafe fn writeback(&self, st: &mut SimState) {
        for g in 0..self.layout.gangs {
            let gs = &*self.gangs[g].get();
            let base = self.layout.base(g);
            for l in 0..self.layout.size(g) {
                st.sched.clocks[base + l] = gs.sched.clocks[l];
            }
        }
    }
}

/// Race-free clock probe for `Ctx::now` (only a core's own events — or the
/// conductor while the core is blocked — write its clock slot).
///
/// # Safety
/// `run` must point to a live [`GangRun`]; `c` must belong to the run.
pub(crate) unsafe fn probe_clock(run: *const GangRun, c: CoreId) -> u64 {
    let run = &*run;
    let g = run.layout.gang_of(c);
    *run.clock_ptrs[g].add(c - run.layout.base(g))
}

/// Race-free tx-state probe for `Ctx::tx_active` (same ownership argument
/// as [`probe_clock`]).
///
/// # Safety
/// `run` must point to a live [`GangRun`]; `c` must belong to the run.
pub(crate) unsafe fn probe_tx_active(run: *const GangRun, c: CoreId) -> bool {
    let run = &*run;
    let lane = &run.lanes[run.layout.gang_of(c)];
    (*lane.tx.add(c - lane.thread_base)).active
}

// ---------------------------------------------------------------------
// The gang-local fast path ("lane"): L1-hit events executed against the
// gang's partition, mirroring the hub's hit paths counter for counter.
// ---------------------------------------------------------------------


/// Outcome of a local-execution attempt.
enum TryOp {
    /// Executed entirely inside the gang partition: (output, cycle cost).
    Local(Out, u64),
    /// Touches shared state: queue it (blocking) and suspend the core.
    /// Guaranteed to have mutated nothing.
    Defer,
}

/// Lightweight view of one gang's partition: a copy of the raw
/// [`LaneParts`] plus the run scalars. Accessors index through the raw
/// pointers directly (debug-asserted bounds) — this sits on the simulator's
/// hottest path, one lane per event, so no per-event slice construction.
struct Lane<'a> {
    parts: LaneParts,
    smt: usize,
    lat: &'a LatencyModel,
    uaf: UafMode,
}

impl<'a> Lane<'a> {
    /// # Safety
    /// Caller must own the gang turn (or be the conductor in the serial
    /// phase); the parts' pointers must be live.
    unsafe fn new(parts: &LaneParts, run: &'a GangRun) -> Lane<'a> {
        Lane {
            parts: *parts,
            smt: run.smt,
            lat: &run.lat,
            uaf: run.uaf,
        }
    }

    #[inline]
    fn lp(&self, c: CoreId) -> usize {
        c / self.smt - self.parts.pcore_base
    }

    #[inline]
    fn lt(&self, c: CoreId) -> usize {
        c - self.parts.thread_base
    }

    #[inline]
    fn ht(&self, c: CoreId) -> usize {
        c % self.smt
    }

    /// This gang's physical core `lp`'s L1.
    #[inline]
    fn l1(&mut self, lp: usize) -> &mut L1 {
        debug_assert!(lp < self.parts.n_pcores);
        // Safety: in-partition index; exclusivity via the gang turn.
        unsafe { &mut *self.parts.l1s.add(lp) }
    }

    #[inline]
    fn arb(&self, lt: usize) -> bool {
        debug_assert!(lt < self.parts.n_threads);
        // SAFETY: in-partition index; exclusivity via the gang turn.
        unsafe { *self.parts.arb.add(lt) }
    }

    #[inline]
    fn arb_set(&mut self, lt: usize, v: bool) {
        debug_assert!(lt < self.parts.n_threads);
        // SAFETY: in-partition index; exclusivity via the gang turn.
        unsafe { *self.parts.arb.add(lt) = v }
    }

    #[inline]
    fn tx_state(&mut self, lt: usize) -> &mut TxState {
        debug_assert!(lt < self.parts.n_threads);
        // SAFETY: in-partition index; exclusivity via the gang turn.
        unsafe { &mut *self.parts.tx.add(lt) }
    }

    #[inline]
    fn tx_active(&self, lt: usize) -> bool {
        debug_assert!(lt < self.parts.n_threads);
        // SAFETY: in-partition index; exclusivity via the gang turn.
        unsafe { (*self.parts.tx.add(lt)).active }
    }

    #[inline]
    fn stats_at(&mut self, lt: usize) -> &mut CoreStats {
        debug_assert!(lt < self.parts.n_threads);
        // SAFETY: in-partition index; exclusivity via the gang turn.
        unsafe { &mut *self.parts.stats.add(lt) }
    }

    #[inline]
    fn stats_mut(&mut self, c: CoreId) -> &mut CoreStats {
        let lt = self.lt(c);
        self.stats_at(lt)
    }

    #[inline]
    fn allocator(&self) -> &Allocator {
        // SAFETY: the allocator is shared read-only during lane execution
        // (mutations happen only in the serial epilogue).
        unsafe { &*self.parts.alloc }
    }

    #[inline]
    fn mem_read(&self, a: Addr) -> u64 {
        let i = a.word_index();
        assert!(i < self.parts.mem_words, "simulated read out of bounds: {a:?}");
        // Safety: module-header protocol — a resident copy excludes any
        // concurrent M writer.
        unsafe { self.parts.mem.add(i).read() }
    }

    #[inline]
    fn mem_write(&mut self, a: Addr, v: u64) {
        let i = a.word_index();
        assert!(i < self.parts.mem_words, "simulated write out of bounds: {a:?}");
        // Safety: writes only through an M/E copy, which excludes every
        // other copy (hence every concurrent access).
        unsafe { self.parts.mem.add(i).write(v) }
    }

    /// Mirror of the machine's `check_access` for the parallel phase:
    /// classification is read-only (the allocator is frozen between
    /// barriers); Record-mode faults are queued for the deterministic
    /// barrier merge instead of being pushed directly.
    fn check_access(
        &mut self,
        c: CoreId,
        a: Addr,
        kind: &'static str,
        clock: u64,
        queue: &mut Vec<Queued>,
        seq: &mut u64,
    ) {
        if let Some(f) = self.allocator().access_fault(c, a, kind) {
            match self.uaf {
                UafMode::Panic => panic_access(&f),
                UafMode::Record => {
                    *seq += 1;
                    queue.push(Queued {
                        clock,
                        core: c,
                        seq: *seq,
                        pending: 0,
                        item: Deferred::Fault(f),
                    });
                }
            }
        }
    }

    #[inline]
    fn set_arb(&mut self, t: CoreId, cause: RevokeCause) {
        let lt = self.lt(t);
        if !self.arb(lt) {
            self.arb_set(lt, true);
            self.stats_at(lt).record_revoke(cause);
        }
    }

    /// Paper §III SMT rule, inside the gang (siblings share the gang by
    /// construction: gang blocks are SMT-aligned).
    #[inline]
    fn revoke_siblings_on_store(&mut self, t: CoreId, line: Line) {
        if self.smt == 1 {
            return;
        }
        let lp = self.lp(t);
        let mut mask = self.l1(lp).tag_mask(line) & !(1u8 << self.ht(t));
        let pcore = lp + self.parts.pcore_base;
        while mask != 0 {
            let h = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.set_arb(pcore * self.smt + h, RevokeCause::SiblingWrite);
        }
    }

    /// Classify-and-execute the `acquire_shared` hit case in one probe:
    /// `lookup_touch` bumps LRU only on a hit — exactly the touch the hub
    /// performs — and mutates nothing on a miss, so a `false` return is a
    /// safe defer. Returns whether the line was resident.
    fn shared_hit_touch(&mut self, c: CoreId, line: Line) -> bool {
        let lp = self.lp(c);
        if self.l1(lp).array.lookup_touch(line).is_none() {
            return false;
        }
        let cost = self.lat.l1_hit;
        let s = self.stats_mut(c);
        s.l1_hits += 1;
        s.l1_hit_cycles += cost;
        true
    }

    /// Hub `acquire_exclusive` L1-hit arm (M, or MESI E with silent
    /// promotion).
    fn exclusive_hit(&mut self, c: CoreId, line: Line) -> u64 {
        let lp = self.lp(c);
        let e = self.l1(lp).array.lookup_touch(line).expect("classified as hit");
        let was_exclusive = e.payload.state == MsiState::Exclusive;
        debug_assert!(e.payload.state != MsiState::Shared, "S is not a local write hit");
        e.payload.state = MsiState::Modified;
        let cost = self.lat.l1_hit;
        let s = self.stats_mut(c);
        s.l1_hits += 1;
        s.l1_hit_cycles += cost;
        if was_exclusive {
            s.silent_upgrades += 1;
        }
        cost
    }

    /// L1 state of `line` in `c`'s physical core, without touching LRU
    /// (classification must not perturb replacement).
    #[inline]
    fn peek_state(&mut self, c: CoreId, line: Line) -> Option<MsiState> {
        let lp = self.lp(c);
        self.l1(lp).array.lookup(line).map(|e| e.payload.state)
    }

    /// Mirror of `CoherenceHub::preempt` inside the partition.
    fn preempt(&mut self, c: CoreId) {
        self.stats_mut(c).ctx_switches += 1;
        let lt = self.lt(c);
        if self.tx_active(lt) {
            let ht = self.ht(c);
            let lp = self.lp(c);
            self.l1(lp).clear_all_tags(ht);
            self.arb_set(lt, false);
            let tx = self.tx_state(lt);
            tx.writes.clear();
            tx.active = false;
            self.stats_mut(c).tx_aborts += 1;
        }
        self.set_arb(c, RevokeCause::ContextSwitch);
    }

    /// Attempt to execute `op` inside the gang partition. Returns
    /// [`TryOp::Defer`] — having mutated nothing — when the event needs
    /// shared state. Non-blocking split ops (`free`, `op_completed`) charge
    /// their local half here and queue the global half.
    fn try_op(
        &mut self,
        c: CoreId,
        op: Op,
        clock: u64,
        queue: &mut Vec<Queued>,
        seq: &mut u64,
    ) -> TryOp {
        let in_tx = self.tx_active(self.lt(c));
        match op {
            // Plain ops inside a transaction defer so the hub raises its
            // canonical panic at the barrier.
            Op::Read(a) => {
                if in_tx || !self.shared_hit_touch(c, a.line()) {
                    return TryOp::Defer;
                }
                // Counter order differs from the hub (hit stats landed
                // first); the *set* of mutations per event is identical.
                self.check_access(c, a, "read", clock, queue, seq);
                self.stats_mut(c).accesses += 1;
                TryOp::Local(Out::Val(self.mem_read(a)), self.lat.l1_hit)
            }
            Op::Write(a, v) => {
                match self.peek_state(c, a.line()) {
                    Some(MsiState::Modified) | Some(MsiState::Exclusive) if !in_tx => {}
                    _ => return TryOp::Defer,
                }
                self.check_access(c, a, "write", clock, queue, seq);
                self.stats_mut(c).accesses += 1;
                let cost = self.exclusive_hit(c, a.line());
                self.revoke_siblings_on_store(c, a.line());
                self.mem_write(a, v);
                TryOp::Local(Out::Unit, cost)
            }
            Op::Cas(a, expected, new) => {
                match self.peek_state(c, a.line()) {
                    Some(MsiState::Modified) | Some(MsiState::Exclusive) if !in_tx => {}
                    _ => return TryOp::Defer,
                }
                self.check_access(c, a, "cas", clock, queue, seq);
                {
                    let s = self.stats_mut(c);
                    s.accesses += 1;
                    s.cas_ops += 1;
                }
                let cost = self.exclusive_hit(c, a.line()) + self.lat.cas_extra;
                let cur = self.mem_read(a);
                if cur == expected {
                    self.revoke_siblings_on_store(c, a.line());
                    self.mem_write(a, new);
                    TryOp::Local(Out::CasR(Ok(expected)), cost)
                } else {
                    self.stats_mut(c).cas_failures += 1;
                    TryOp::Local(Out::CasR(Err(cur)), cost)
                }
            }
            Op::Fence => {
                if in_tx {
                    return TryOp::Defer;
                }
                self.stats_mut(c).fences += 1;
                TryOp::Local(Out::Unit, self.lat.fence)
            }
            Op::SmrFence => {
                if in_tx {
                    return TryOp::Defer;
                }
                // Trace-only, zero cycles, no stats (see `Op::SmrFence`).
                TryOp::Local(Out::Unit, 0)
            }
            Op::Cread(a) => {
                if in_tx {
                    return TryOp::Defer;
                }
                let lt = self.lt(c);
                if self.arb(lt) {
                    // Fail-fast: purely thread-local, like the hub.
                    let s = self.stats_mut(c);
                    s.accesses += 1;
                    s.cread_fail += 1;
                    return TryOp::Local(Out::Opt(None), self.lat.ca_fail);
                }
                if !self.shared_hit_touch(c, a.line()) {
                    return TryOp::Defer;
                }
                self.stats_mut(c).accesses += 1;
                let cost = self.lat.l1_hit;
                let lp = self.lp(c);
                let ht = self.ht(c);
                let tagged = self.l1(lp).set_tag(a.line(), ht);
                debug_assert!(tagged, "line resident on the hit path");
                // A hit evicts nothing, so the ARB cannot have been set by
                // this access (mirrors the hub's post-fill recheck).
                self.stats_mut(c).cread_ok += 1;
                let v = self.mem_read(a);
                self.check_access(c, a, "cread", clock, queue, seq);
                TryOp::Local(Out::Opt(Some(v)), cost + self.lat.ca_check)
            }
            Op::Cwrite(a, v) => {
                if in_tx {
                    return TryOp::Defer;
                }
                let lt = self.lt(c);
                let lp = self.lp(c);
                let ht = self.ht(c);
                if self.arb(lt) || !self.l1(lp).is_tagged(a.line(), ht) {
                    let s = self.stats_mut(c);
                    s.accesses += 1;
                    s.cwrite_fail += 1;
                    return TryOp::Local(Out::Flag(false), self.lat.ca_fail);
                }
                match self.peek_state(c, a.line()) {
                    Some(MsiState::Modified) | Some(MsiState::Exclusive) => {}
                    _ => return TryOp::Defer, // S upgrade needs the directory
                }
                self.stats_mut(c).accesses += 1;
                let cost = self.exclusive_hit(c, a.line());
                debug_assert!(!self.arb(lt), "a hit cannot revoke the writer's own tags");
                self.revoke_siblings_on_store(c, a.line());
                self.mem_write(a, v);
                self.stats_mut(c).cwrite_ok += 1;
                self.check_access(c, a, "cwrite", clock, queue, seq);
                TryOp::Local(Out::Flag(true), cost + self.lat.ca_check)
            }
            Op::UntagOne(a) => {
                if in_tx {
                    return TryOp::Defer;
                }
                self.stats_mut(c).untag_ones += 1;
                let lp = self.lp(c);
                let ht = self.ht(c);
                self.l1(lp).clear_tag(a.line(), ht);
                TryOp::Local(Out::Unit, 1)
            }
            Op::UntagAll => {
                if in_tx {
                    return TryOp::Defer;
                }
                self.stats_mut(c).untag_alls += 1;
                let lp = self.lp(c);
                let ht = self.ht(c);
                self.l1(lp).clear_all_tags(ht);
                let lt = self.lt(c);
                self.arb_set(lt, false);
                TryOp::Local(Out::Unit, 1)
            }
            // Split op: local cost now, global counter at the barrier.
            Op::OpCompleted => {
                *seq += 1;
                queue.push(Queued {
                    clock,
                    core: c,
                    seq: *seq,
                    pending: 0,
                    item: Deferred::OpDone,
                });
                let s = self.stats_mut(c);
                s.deferred_events += 1;
                s.ops += 1;
                TryOp::Local(Out::Unit, 0)
            }
            // Shared allocator / HTM cold paths: always defer. `free` is
            // deliberately *blocking* even though nothing reads its result:
            // applying it at the barrier before the core resumes keeps the
            // use-after-free oracle exact for everything the freeing core
            // does afterwards (a non-blocking free would let a same-window
            // L1-hit access to the freed line escape the detector), and a
            // blocked core's clock freezes, so blocking costs no simulated
            // time at all — only host-side barrier latency.
            Op::Alloc
            | Op::Free(_)
            | Op::TxBegin
            | Op::TxRead(_)
            | Op::TxWrite(_, _)
            | Op::TxCommit
            | Op::TxAbort => TryOp::Defer,
        }
    }
}

// ---------------------------------------------------------------------
// The shared event engine: one decision path for both mechanisms.
// ---------------------------------------------------------------------

/// What the mechanism driver must do after an event attempt.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Action {
    /// The core keeps the gang turn: continue executing.
    Keep,
    /// Hand the gang turn to this local core.
    Switch(usize),
    /// No runnable core remains in the gang: arrive at the epoch barrier.
    Arrive,
}

/// Execute one event for core `c` under the gang protocol. The caller must
/// own gang `g`'s turn. Returns `(Some(out), action)` for a completed event
/// or `(None, action)` when the event was queued blocking (the core is now
/// deactivated; its result appears in its slot after the barrier merge).
///
/// # Safety
/// Caller owns the gang turn; `run` outlives the call.
unsafe fn gang_event_inner(
    run: &GangRun,
    g: usize,
    l: usize,
    c: CoreId,
    pending: u64,
    op: Op,
) -> (Option<Out>, Action) {
    if run.aborted.load(Ordering::Acquire) {
        panic!("{ABORT_MSG}");
    }
    let gs = &mut *run.gangs[g].get();
    let issue_clock = gs.sched.clocks[l] + pending;
    if run.fault_hot
        && issue_clock >= *run.fault_crash_at.add(c)
        && !*run.fault_crashed.add(c)
    {
        // Injected fail-stop: the op never executes. Commit the pending
        // ticks (the crash clock is the issue clock, as on the single-gang
        // path), flag the core, and unwind; the workload-closure boundary
        // catches this and retires the core, so the gang keeps scheduling.
        gs.sched.clocks[l] = issue_clock;
        *run.fault_crashed.add(c) = true;
        std::panic::resume_unwind(Box::new(FaultStop {
            core: c,
            clock: issue_clock,
        }));
    }
    let mut lane = Lane::new(&run.lanes[g], run);
    match lane.try_op(c, op, issue_clock, &mut gs.queue, &mut gs.seq) {
        TryOp::Local(out, cost) => {
            // Safety: this core holds its gang turn (per-core-Vec record
            // discipline).
            run.record_trace(c, issue_clock, op, &out);
            gs.sched.clocks[l] += pending + cost;
            if run.fault_hot {
                // Injected burst deschedules + wedge watchdog, at the same
                // point in the event as the single-gang pipeline: after the
                // op's cost, before the periodic preemption model.
                let (fired, wedged) = crate::fault::apply_stalls_and_watchdog(
                    &mut gs.sched.clocks[l],
                    &*run.fault_stalls.add(c),
                    &mut *run.fault_cursor.add(c),
                    run.fault_max_cycles,
                    || lane.preempt(c),
                );
                lane.stats_mut(c).fault_stalls += fired;
                if wedged {
                    // The lane path cannot read simulated memory (no
                    // `&mut SimState` here), so the panic carries no
                    // attribution suffix — only the stable prefix.
                    crate::fault::wedge_panic(
                        c,
                        gs.sched.clocks[l],
                        run.fault_max_cycles,
                        None,
                    );
                }
            }
            // OS-preemption model: gang-local (own ARB/tx/stats). The
            // deadline reference comes straight from the raw parts so the
            // closure may borrow `lane`; `Lane::preempt` never touches
            // `next_preempt`, so the two do not alias.
            let np = &mut *run.lanes[g].next_preempt.add(lane.lt(c));
            crate::machine::apply_preempt_model(
                &mut gs.sched.clocks[l],
                np,
                run.ctx_switch,
                || lane.preempt(c),
            );
            let ceiling = run.ceiling.load(Ordering::Relaxed);
            let action = if gs.sched.clocks[l] > ceiling {
                // Pause at the epoch ceiling: leave the active set; the
                // next window re-admits us once the global min catches up.
                match gs.sched.retire(l) {
                    Some(nl) => Action::Switch(nl),
                    None => Action::Arrive,
                }
            } else {
                match gs.sched.after_event(l) {
                    None => Action::Keep,
                    Some(nl) => Action::Switch(nl),
                }
            };
            match action {
                Action::Keep => lane.stats_mut(c).batched_events += 1,
                _ => lane.stats_mut(c).turn_handoffs += 1,
            }
            (Some(out), action)
        }
        TryOp::Defer => {
            gs.seq += 1;
            gs.queue.push(Queued {
                clock: issue_clock,
                core: c,
                seq: gs.seq,
                pending,
                item: Deferred::Blocking(op),
            });
            gs.blocked[l] = true;
            {
                let s = lane.stats_mut(c);
                s.deferred_events += 1;
                s.turn_handoffs += 1;
            }
            let action = match gs.sched.retire(l) {
                Some(nl) => Action::Switch(nl),
                None => Action::Arrive,
            };
            (None, action)
        }
    }
}

/// Epoch-window start for one gang: re-admit every non-retired core whose
/// clock is within the new ceiling, and pick the min-clock turn owner.
/// Called by the gang worker (coop) or the conductor (threads) — both with
/// exclusive access to the gang state.
///
/// # Safety
/// Caller holds gang `g`'s turn (no other reference to its state exists).
unsafe fn begin_window(run: &GangRun, g: usize) -> Option<usize> {
    let gs = &mut *run.gangs[g].get();
    let ceiling = run.ceiling.load(Ordering::Acquire);
    for l in 0..gs.retired.len() {
        debug_assert!(!gs.blocked[l], "blocked cores must be drained by the merge");
        if !gs.retired[l] && gs.sched.clocks[l] <= ceiling {
            // Bulk admission: set the flags directly and let start_window's
            // single rescan rebuild the two-min keys (Sched::activate would
            // rescan per core — O(size²) per window).
            gs.sched.active[l] = true;
        }
    }
    gs.sched.start_window()
}

/// Retirement bookkeeping shared by both mechanisms (caller owns the turn).
///
/// # Safety
/// Caller holds gang `g`'s turn (no other reference to its state exists).
unsafe fn finish_gang_retire(run: &GangRun, g: usize, l: usize, c: CoreId, pending: u64) -> Action {
    let gs = &mut *run.gangs[g].get();
    gs.sched.clocks[l] += pending;
    let mut lane = Lane::new(&run.lanes[g], run);
    lane.stats_mut(c).cycles = gs.sched.clocks[l];
    gs.retired[l] = true;
    match gs.sched.retire(l) {
        Some(nl) => Action::Switch(nl),
        None => Action::Arrive,
    }
}

// ---------------------------------------------------------------------
// The conductor: epoch planning and the deterministic barrier merge.
// ---------------------------------------------------------------------

/// Per-epoch plan: minimum clock over non-retired cores and gang liveness.
///
/// # Safety
/// Conductor only, at the barrier: every gang worker is parked, so the
/// shared-slot reads cannot race a worker's writes.
unsafe fn plan(run: &GangRun) -> (u64, Vec<bool>) {
    let mut min = u64::MAX;
    let mut live = vec![false; run.layout.gangs];
    for (g, slot) in run.gangs.iter().enumerate() {
        let gs = &*slot.get();
        for l in 0..gs.retired.len() {
            if !gs.retired[l] {
                live[g] = true;
                min = min.min(gs.sched.clocks[l]);
            }
        }
    }
    (min, live)
}

/// Minimal union-find (path halving, no ranks: node count is
/// `banks + pcores`, both ≤ a few thousand).
struct Uf {
    p: Vec<u32>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            p: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.p[x] as usize != x {
            let gp = self.p[self.p[x] as usize];
            self.p[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.p[ra] = rb as u32;
    }
}

/// Apply one non-blocking item (conductor only).
///
/// # Safety
/// Conductor only, at the barrier (exclusive access to `SimState`).
unsafe fn apply_light(run: &GangRun, st: &mut SimState, q: &Queued) {
    match &q.item {
        Deferred::OpDone => {
            st.global_ops += 1;
            if let Some(every) = st.sample_every {
                if st.global_ops >= st.next_sample_at {
                    let live = st.alloc.allocated_not_freed;
                    let ops = st.global_ops;
                    st.samples.push((ops, live));
                    st.next_sample_at += every;
                }
            }
        }
        Deferred::Fault(f) => st.alloc.faults.push(f.clone()),
        Deferred::Blocking(op) => apply_blocking(run, st, q, *op),
    }
}

/// Apply one blocking item: replay through `exec_op`, credit the core's
/// clock, run the preemption model, unblock the core and deliver the
/// result. Shared by the serial replay, the epilogue and the merge lanes —
/// one semantic definition of a deferred event's barrier-side half.
///
/// # Safety
/// Caller is the conductor or a merge lane whose lane partition owns
/// `q.core` (the per-core slots below are then exclusively reachable).
unsafe fn apply_blocking(run: &GangRun, st: &mut SimState, q: &Queued, op: Op) {
    let g = run.layout.gang_of(q.core);
    let l = q.core - run.layout.base(g);
    // Per-core slots accessed through the stable raw pointers so merge
    // lanes touching *different* cores of the same gang never materialize
    // aliasing `&mut GangState` (see the aliasing discipline in the module
    // docs). The conductor's serial replay goes through the same accessors.
    let clock = run.clock_ptrs[g].add(l);
    *clock += q.pending;
    let (out, cost) = exec_op(st, q.core, op);
    if st.hub.trace.enabled {
        // `q.clock` is the issue clock: the blocked core could not advance
        // between queueing and this apply (same key the merge sorted by).
        st.hub.trace.record(q.core, q.clock, op, &out);
    }
    *clock += cost;
    if st.fault.hot {
        // Injected burst deschedules + wedge watchdog for blocking events,
        // applied under the machine lock (the conductor or a merge lane owns
        // `st` here), mirroring the Local arm of `gang_event_inner`. Crashes
        // never reach this path: they fire at issue time, before the op is
        // ever queued.
        let wedged = {
            let SimState { fault, hub, .. } = &mut *st;
            let (fired, wedged) = crate::fault::apply_stalls_and_watchdog(
                &mut *clock,
                &fault.stalls[q.core],
                &mut fault.cursor[q.core],
                fault.max_cycles,
                || hub.preempt(q.core),
            );
            hub.stats.core(q.core).fault_stalls += fired;
            wedged
        };
        if wedged {
            // This path owns `st`, so the attribution probes are readable.
            let detail = crate::machine::wedge_attribution(st);
            crate::fault::wedge_panic(q.core, *clock, st.fault.max_cycles, detail);
        }
    }
    let SimState {
        next_preempt,
        hub,
        ctx_switch,
        ..
    } = &mut *st;
    crate::machine::apply_preempt_model(
        &mut *clock,
        &mut next_preempt[q.core],
        *ctx_switch,
        || hub.preempt(q.core),
    );
    *run.blocked_ptrs[g].add(l) = false;
    *run.results[q.core].get() = Some(out);
}

/// Per-item classification verdict (see [`classify`]).
enum Verdict {
    /// `OpDone` safe to apply before the lanes (commutes with them).
    Inline,
    /// Bank-local blocking event: lane of bank `b`.
    Lane(usize),
    /// Replay in the serial epilogue, behind the lanes.
    Suffix,
}

/// Streaming classifier state shared by the counters-only pass and the
/// full plan builder, so the two can never disagree on a verdict.
struct ClassifyState {
    cut: bool,
    alloc_seen: bool,
    /// An `Op::Alloc` occurred earlier this barrier: it may have
    /// re-allocated *any* currently-free line, so later lane candidates
    /// whose line is not live right now must wait for the epilogue (their
    /// serial UAF verdict depends on the alloc having been applied).
    alloc_in_barrier: bool,
    freed: Vec<u64>,
    sampling: bool,
}

impl ClassifyState {
    fn new(sampling: bool) -> Self {
        ClassifyState {
            cut: false,
            alloc_seen: false,
            alloc_in_barrier: false,
            freed: Vec::new(),
            sampling,
        }
    }

    /// Classify one item (in serial order — the state is order-sensitive).
    ///
    /// A blocking `Read`/`Write`/`Cas`/`Cread`/`Cwrite` is **bank-local**:
    /// its entire replay footprint is the issuing physical core's
    /// partition, the directory bank of its line (fills, upgrades, L2
    /// evictions — set-preserving banking keeps every same-set line in one
    /// bank, and `banks ≤ l1_sets` keeps every L1 victim in the filled
    /// line's bank), the line's memory word, and the L1s/stats of the
    /// cores currently holding any line of its L2 set (invalidations,
    /// downgrades, back-invalidations).
    ///
    /// Everything else is serialized: allocator ops (`Alloc`/`Free`) and
    /// any later event on a line freed this barrier (the UAF verdict must
    /// see the free), `OpDone` after an allocator op when Fig-3 sampling
    /// is on (the sample reads the live count), and — cutting the rest of
    /// the barrier entirely — transactional ops and ops issued inside a
    /// transaction (their commit footprint spans arbitrary banks).
    fn verdict(&mut self, st: &SimState, q: &Queued) -> Verdict {
        if self.cut {
            return Verdict::Suffix;
        }
        match &q.item {
            Deferred::OpDone => {
                if self.sampling && self.alloc_seen {
                    Verdict::Suffix
                } else {
                    Verdict::Inline
                }
            }
            // Fault items only exist in Record mode, where classification
            // is disabled; keep the defensive arm serial.
            Deferred::Fault(_) => {
                self.cut = true;
                Verdict::Suffix
            }
            Deferred::Blocking(op) => {
                if st.hub.tx[q.core].active {
                    // Plain ops inside a transaction raise the hub's
                    // canonical panic; tx commit footprints span banks.
                    self.cut = true;
                    return Verdict::Suffix;
                }
                match *op {
                    Op::Read(a) | Op::Write(a, _) | Op::Cas(a, _, _) | Op::Cread(a)
                    | Op::Cwrite(a, _) => {
                        let line = a.line();
                        if self.freed.contains(&line.0) {
                            // A free earlier this barrier changed the
                            // line's liveness; the serial epilogue keeps
                            // the UAF verdict exact.
                            Verdict::Suffix
                        } else if self.alloc_in_barrier
                            && st.alloc.access_fault(q.core, a, "classify").is_some()
                        {
                            // The line is not live *right now*, but an
                            // alloc earlier this barrier may re-allocate
                            // exactly it (LIFO reuse): replaying the
                            // access in a lane — before the suffix alloc —
                            // would raise a spurious UAF fault the serial
                            // order does not. The epilogue replays it
                            // behind the alloc, preserving the exact
                            // serial verdict.
                            Verdict::Suffix
                        } else {
                            // One source of truth for the shard boundary:
                            // the hub's own bank selection.
                            Verdict::Lane(st.hub.l2.bank_of(line))
                        }
                    }
                    Op::Free(a) => {
                        self.alloc_seen = true;
                        self.freed.push(a.line().0);
                        Verdict::Suffix
                    }
                    Op::Alloc => {
                        self.alloc_seen = true;
                        self.alloc_in_barrier = true;
                        Verdict::Suffix
                    }
                    // Fence/UntagOne/UntagAll only defer inside a
                    // transaction (covered above); Tx* always serialize.
                    _ => {
                        self.cut = true;
                        Verdict::Suffix
                    }
                }
            }
        }
    }
}

/// Counters-only classification: one cheap pass updating the barrier-merge
/// counters, with no union-find, no holder scans and no plan allocation.
/// Used whenever the merge will execute serially anyway — the counters
/// stay byte-identical to the full pass (same [`ClassifyState::verdict`]
/// per item) without its cost on 1-CPU hosts.
///
/// # Safety
/// Conductor only, at the barrier (exclusive access to `SimState`).
unsafe fn count_classify(st: &mut SimState, items: &[Queued]) {
    let mut cs = ClassifyState::new(st.sample_every.is_some());
    let mut banked = 0u64;
    let mut suffix = 0u64;
    for q in items {
        match cs.verdict(&*st, q) {
            Verdict::Inline => {}
            Verdict::Lane(b) => {
                st.bank_occupancy[b] += 1;
                banked += 1;
            }
            Verdict::Suffix => suffix += 1,
        }
    }
    st.banked_merge_events += banked;
    st.serial_epilogue_events += suffix;
}

/// Full classification for the parallel banked merge: the per-event
/// verdicts of [`ClassifyState::verdict`], plus the union-find over
/// `{banks} ∪ {pcores}` (each lane-bound event unions its bank with its
/// issuing pcore and the holder pcores of its L2 set) that turns the
/// bank-local events into disjoint merge lanes. Two lanes share no state,
/// so per-lane ordered replay commutes with the full serial order —
/// byte-identical final state by construction.
///
/// # Safety
/// Conductor only, at the barrier (exclusive access to `SimState`).
unsafe fn classify(run: &GangRun, st: &mut SimState, items: &[Queued]) -> MergePlan {
    let nb = run.n_banks;
    let np = st.hub.l1s.len();
    let mut uf = Uf::new(nb + np);
    let mut cand: Vec<(usize, usize)> = Vec::new(); // (bank, item index)
    let mut inline_opdone = Vec::new();
    let mut suffix = Vec::new();
    let mut cs = ClassifyState::new(st.sample_every.is_some());
    for (ix, q) in items.iter().enumerate() {
        match cs.verdict(&*st, q) {
            Verdict::Inline => inline_opdone.push(ix),
            Verdict::Suffix => suffix.push(ix),
            Verdict::Lane(b) => {
                uf.union(b, nb + st.hub.pc(q.core));
                let mut holders = st.hub.l2.set_holders(q.line());
                while holders != 0 {
                    let h = holders.trailing_zeros() as usize;
                    holders &= holders - 1;
                    uf.union(b, nb + h);
                }
                st.bank_occupancy[b] += 1;
                cand.push((b, ix));
            }
        }
    }
    // Group the candidates by component, first-encounter order (the
    // grouping is cosmetic: lanes are disjoint, so any assignment of lanes
    // to workers produces the same bytes).
    let mut root_lane: Vec<Option<usize>> = vec![None; nb + np];
    let mut lanes: Vec<Vec<usize>> = Vec::new();
    for &(b, ix) in &cand {
        let r = uf.find(b);
        let li = match root_lane[r] {
            Some(l) => l,
            None => {
                lanes.push(Vec::new());
                root_lane[r] = Some(lanes.len() - 1);
                lanes.len() - 1
            }
        };
        lanes[li].push(ix);
    }
    st.banked_merge_events += cand.len() as u64;
    st.serial_epilogue_events += suffix.len() as u64;
    // Debug builds: materialize each lane's component membership so the
    // executing worker's `BankParts` can assert the footprint claim at
    // every access (the runtime race detector for this proof).
    let mut scopes: Vec<LaneScope> = Vec::new();
    if cfg!(debug_assertions) && !lanes.is_empty() {
        scopes = (0..lanes.len()).map(|_| LaneScope::new(nb, np)).collect();
        for node in 0..nb + np {
            if let Some(l) = root_lane[uf.find(node)] {
                if node < nb {
                    scopes[l].banks[node] = true;
                } else {
                    scopes[l].pcores[node - nb] = true;
                }
            }
        }
    }
    MergePlan {
        lanes,
        inline_opdone,
        suffix,
        lane_events: cand.len(),
        scopes,
    }
}

/// Lane-side twin of [`apply_blocking`]: the same barrier-side half of a
/// blocking event, executed through a [`BankParts`] projection instead of
/// `&mut SimState`. Step for step it mirrors `apply_blocking` — both reach
/// the op through [`exec_bank_op`], so the semantics stay single-sourced —
/// but every hub access goes through the projection's element-granular
/// accessors (scope-asserted in debug builds) and the gang bookkeeping
/// through the run's stable element pointers.
///
/// # Safety
/// Merge-phase protocol: the conductor's `&mut SimState` borrow has ended,
/// this worker owns the lane, and the lane's classified footprint covers
/// every touched bank/pcore (guaranteed by [`classify`]).
unsafe fn apply_lane_blocking(run: &GangRun, parts: &mut BankParts, q: &Queued, op: Op) {
    let g = run.layout.gang_of(q.core);
    let l = q.core - run.layout.base(g);
    let lane = &run.lanes[g];
    let clock = run.clock_ptrs[g].add(l);
    *clock += q.pending;
    // The classifier only builds lanes under `UafMode::Panic`, so the
    // check reads the frozen allocator (lanes never mutate it — allocator
    // ops are epilogue-only) and panics on a fault, exactly like the
    // serial path's `check_access` would in Panic mode.
    let alloc = lane.alloc;
    let (out, cost) = exec_bank_op(
        parts,
        &mut |c, a, kind| {
            if let Some(f) = (*alloc).access_fault(c, a, kind) {
                panic_access(&f);
            }
        },
        q.core,
        op,
    );
    // `q.clock` is the issue clock (see `apply_blocking`); recording goes
    // through the projection, whose classified footprint covers this core.
    parts.record_trace(q.core, q.clock, op, &out);
    *clock += cost;
    if run.fault_hot {
        // Mirrors `apply_blocking`'s fault block through the run's raw
        // per-core plan/cursor views (read-only plan halves, this core's
        // own cursor element).
        let mut pp = *parts;
        let (fired, wedged) = crate::fault::apply_stalls_and_watchdog(
            &mut *clock,
            &*run.fault_stalls.add(q.core),
            &mut *run.fault_cursor.add(q.core),
            run.fault_max_cycles,
            || pp.preempt(q.core),
        );
        parts.core_stats(q.core).fault_stalls += fired;
        if wedged {
            // Merge lanes run through `BankParts` (no `&mut SimState`), so
            // no attribution suffix — only the stable prefix.
            crate::fault::wedge_panic(q.core, *clock, run.fault_max_cycles, None);
        }
    }
    let mut pp = *parts;
    crate::machine::apply_preempt_model(
        &mut *clock,
        &mut *lane.next_preempt.add(q.core - lane.thread_base),
        run.ctx_switch,
        || pp.preempt(q.core),
    );
    *run.blocked_ptrs[g].add(l) = false;
    *run.results[q.core].get() = Some(out);
}

/// Execute one merge lane's events in order (worker side), entirely
/// through a [`BankParts`] copy — no `&mut SimState` exists on this path.
///
/// # Safety
/// Must only run during a merge phase (between `open_merge` and the
/// worker's `arrive`), on lanes assigned to this worker. Disjointness of
/// concurrent lanes is guaranteed by [`classify`] (and asserted per access
/// in debug builds via the installed scope).
unsafe fn exec_merge_lane(run: &GangRun, sh: &MergeShared, lane_ix: usize) {
    let mut parts = sh.parts;
    if let Some(scope) = sh.scopes.get(lane_ix) {
        parts.set_scope(scope);
    }
    for &ix in &sh.lanes[lane_ix].events {
        let q = &sh.items[ix];
        let Deferred::Blocking(op) = q.item else {
            unreachable!("merge lanes hold blocking events only");
        };
        apply_lane_blocking(run, &mut parts, q, op);
    }
}

/// Apply every queued cross-gang item against the full machine state in
/// `(clock, core, seq)` order — concurrently across L2-bank lanes when the
/// classifier and the driver allow it, serially otherwise — then advance
/// the epoch counter. `parallel` is set when the driver has merge workers:
/// spawn-coop (parked gang workers double as merge workers) and the
/// threads mechanism (dedicated merge workers).
///
/// # Safety
/// Conductor only, at the barrier: all gang workers are parked, so the
/// root state and every gang queue are exclusively reachable.
unsafe fn merge(run: &GangRun, parallel: bool) {
    let st = &mut *run.root;
    let mut items: Vec<Queued> = Vec::new();
    for slot in &run.gangs {
        items.append(&mut (*slot.get()).queue);
    }
    items.sort_by_key(|q| (q.clock, q.core, q.seq));
    if !run.classify {
        // No banked classification for this configuration: pure serial
        // replay (single bank, Record-mode fault ordering, or banks wider
        // than the L1 sets).
        st.serial_epilogue_events += items.len() as u64;
        for q in &items {
            apply_light(run, st, q);
        }
        st.gang_epochs += 1;
        return;
    }
    if !parallel {
        // No merge workers (sequential driver): the replay is serial
        // regardless, so only the cheap counters-only classification runs
        // — byte-identical counters, none of the union-find or holder-scan
        // cost.
        count_classify(st, &items);
        for q in &items {
            apply_light(run, st, q);
        }
        st.gang_epochs += 1;
        return;
    }
    let plan = classify(run, st, &items);
    let worthwhile = plan.lanes.len() >= 2 && plan.lane_events >= MIN_PARALLEL_MERGE_EVENTS;
    if !worthwhile {
        // Same bytes as the banked execution (the classification is a
        // proof, not a schedule): replay everything in serial order.
        for q in &items {
            apply_light(run, st, q);
        }
        st.gang_epochs += 1;
        return;
    }
    // Inline OpDone items commute with every lane event (argued in
    // `classify`); apply them in their serial relative order first.
    for &ix in &plan.inline_opdone {
        apply_light(run, st, &items[ix]);
    }
    // Parallel phase: hand the lanes to the merge workers. The conductor's
    // `&mut SimState` must not be live while the lanes run — each worker
    // copies the `BankParts` template below and holds `&mut` only to
    // elements inside its classified footprint (see the module docs) — so
    // project the state, end the borrow here and re-derive it for the
    // epilogue.
    let parts = st.hub.parts();
    let _ = st;
    *run.merge_shared.get() = Some(MergeShared {
        items,
        parts,
        scopes: plan.scopes,
        lanes: plan
            .lanes
            .into_iter()
            .map(|events| MergeLaneSlot {
                events,
                panic: UnsafeCell::new(None),
            })
            .collect(),
    });
    run.gate.open_merge(run.layout.gangs);
    run.gate.wait_all_arrived();
    let shared = (*run.merge_shared.get())
        .take()
        .expect("merge phase must leave the shared state in place");
    for lane in shared.lanes {
        if let Some(p) = lane.panic.into_inner() {
            // Deterministic-enough abort: the first lane (in lane order)
            // that panicked wins. Sibling lanes may already have applied
            // later events — an aborting run makes no byte-identity claim.
            std::panic::resume_unwind(p);
        }
    }
    // Serial epilogue, in serial order (exclusive access again: every
    // worker has arrived and parked).
    let st = &mut *run.root;
    for &ix in &plan.suffix {
        apply_light(run, st, &shared.items[ix]);
    }
    st.gang_epochs += 1;
}

/// Which in-gang execution mechanism a run uses.
#[derive(Copy, Clone)]
pub(crate) enum Mech {
    Threads,
    #[cfg(mcsim_coop)]
    Coop,
}

/// The conductor loop: plan → open epoch → wait for all gangs → merge.
/// Returns `Err` with the panic payload if a deferred event panicked at a
/// barrier (e.g. the UAF detector firing); the run is aborted and every
/// gang thread is released so it can unwind.
///
/// # Safety
/// One conductor per run, with the `GangRun` and root state outliving it;
/// the gate protocol keeps state access mutually exclusive with workers.
unsafe fn conduct(
    run: &GangRun,
    mech: Mech,
    peers: &[Vec<Option<Thread>>],
) -> std::thread::Result<()> {
    // Parallel banked merges need merge workers: the spawn-coop driver's
    // gang workers stay parked at the gate between epochs and double as
    // merge lanes' executors, and the threads mechanism spawns dedicated
    // merge workers (`run_threads_mech`). Either driver advertises them
    // through `par_merge` before conducting.
    let par = run.par_merge.load(Ordering::Relaxed);
    loop {
        let (min, live) = plan(run);
        let live_count = live.iter().filter(|&&x| x).count();
        if live_count == 0 {
            run.gate.open_epoch(0, 0, true);
            return Ok(());
        }
        run.ceiling.store(min.saturating_add(run.window), Ordering::Release);
        let mut pre_arrived = 0;
        let mut expected = live_count;
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        #[cfg(mcsim_coop)]
        if let Mech::Coop = mech {
            // Every coop gang worker — including those whose gang fully
            // retired — stays parked at the gate until the run ends (they
            // double as merge workers) and arrives once per epoch.
            expected = run.layout.gangs;
        }
        if let Mech::Threads = mech {
            // The threads mechanism has no per-gang worker: the conductor
            // opens each gang's window and wakes its first turn owner.
            // The window bookkeeping happens *before* the epoch opens
            // (still the exclusive serial phase), but the turn words are
            // published only *after* — a core that never parked polls its
            // turn word, and publishing early would let it run its whole
            // phase and arrive at the gate before `open_epoch` resets the
            // arrival counter, losing the arrival and deadlocking the run.
            for (g, &is_live) in live.iter().enumerate() {
                if !is_live {
                    continue;
                }
                match begin_window(run, g) {
                    Some(first) => firsts.push((g, first)),
                    None => {
                        // Every core of the gang is beyond the ceiling:
                        // the gang skips this epoch.
                        pre_arrived += 1;
                    }
                }
            }
        }
        run.gate.open_epoch(expected, pre_arrived, false);
        for (g, first) in firsts {
            run.turn_words[g].store(first, Ordering::Release);
            if let Some(t) = peers[g].get(first).and_then(Option::as_ref) {
                t.unpark();
            }
        }
        run.gate.wait_all_arrived();
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| merge(run, par))) {
            run.aborted.store(true, Ordering::Release);
            // Release everyone so parked cores / waiting workers unwind.
            run.gate.open_epoch(0, 0, true);
            for row in peers {
                for t in row.iter().flatten() {
                    t.unpark();
                }
            }
            return Err(e);
        }
    }
}

// ---------------------------------------------------------------------
// Threads mechanism: one OS thread per core, per-gang turn words.
// ---------------------------------------------------------------------

/// Per-core context for the threads mechanism.
pub(crate) struct GangThreadsCtx {
    run: *const GangRun,
    gang: usize,
    local: usize,
    has_turn: bool,
    /// This gang's core threads (local-indexed unpark targets).
    peers: Vec<Option<Thread>>,
}

impl GangThreadsCtx {
    pub(crate) fn run(&self) -> *const GangRun {
        self.run
    }

    /// Wait (park) until this core owns its gang's turn.
    fn ensure_turn(&mut self, run: &GangRun) {
        if self.has_turn {
            return;
        }
        loop {
            if run.aborted.load(Ordering::Acquire) {
                panic!("{ABORT_MSG}");
            }
            if run.turn_words[self.gang].load(Ordering::Acquire) == self.local {
                self.has_turn = true;
                return;
            }
            // A leftover unpark token makes this return immediately once;
            // the loop re-checks, so spurious wakes are harmless.
            std::thread::park();
        }
    }

    fn release_to(&mut self, run: &GangRun, next_local: usize) {
        self.has_turn = false;
        run.turn_words[self.gang].store(next_local, Ordering::Release);
        if let Some(t) = self.peers.get(next_local).and_then(Option::as_ref) {
            t.unpark();
        }
    }

    fn arrive(&mut self, run: &GangRun) {
        self.has_turn = false;
        run.turn_words[self.gang].store(NO_TURN, Ordering::Release);
        run.gate.arrive();
    }
}

/// One event on the threads mechanism.
///
/// # Safety
/// `gt.run` must outlive the call (guaranteed by `run_threads_mech`).
pub(crate) unsafe fn event_threads(gt: &mut GangThreadsCtx, c: CoreId, pending: u64, op: Op) -> Out {
    let run = &*gt.run;
    gt.ensure_turn(run);
    let (out, action) = gang_event_inner(run, gt.gang, gt.local, c, pending, op);
    match action {
        Action::Keep => {}
        Action::Switch(nl) => gt.release_to(run, nl),
        Action::Arrive => gt.arrive(run),
    }
    match out {
        Some(o) => o,
        None => {
            // Blocked: the conductor executes the queued event at the
            // barrier; we run again once a later window schedules us.
            gt.ensure_turn(run);
            (*run.results[c].get())
                .take()
                .expect("blocked core rescheduled without a result")
        }
    }
}

/// Core retirement on the threads mechanism.
///
/// # Safety
/// Same contract as [`event_threads`].
pub(crate) unsafe fn retire_threads(gt: &mut GangThreadsCtx, c: CoreId, pending: u64) {
    let run = &*gt.run;
    if run.aborted.load(Ordering::Acquire) {
        // Aborted runs skip the bookkeeping: the scheduler shards are dead
        // and other cores unwind concurrently.
        return;
    }
    gt.ensure_turn(run);
    match finish_gang_retire(run, gt.gang, gt.local, c, pending) {
        Action::Keep => unreachable!("retire always leaves the active set"),
        Action::Switch(nl) => gt.release_to(run, nl),
        Action::Arrive => gt.arrive(run),
    }
}

/// Dedicated merge worker for the threads mechanism. Core threads park in
/// `ensure_turn` mid-workload, so — unlike the coop driver's gang workers —
/// they cannot double as merge executors; one worker per gang keeps the
/// round-robin lane split (`lane i → worker i mod G`) identical across
/// drivers. The worker idles at the gate: a normal epoch's `notify_all`
/// wakes it and it goes straight back to waiting *without arriving*
/// (normal epochs count only live gangs' core-thread arrivals), a merge
/// epoch (`expected = G` merge workers) hands it its lane share, and the
/// done epoch — emitted by both normal completion and the abort path —
/// releases it. The conductor blocks in `wait_all_arrived` for all `G`
/// workers before opening the next phase, so no merge phase can be missed
/// or double-served.
fn merge_worker(run: &GangRun, g: usize, marker: usize) {
    let _mark = crate::machine::hold_state_marker(marker);
    let mut seen = 0u64;
    loop {
        let (epoch, done, merging) = run.gate.worker_wait(seen);
        seen = epoch;
        if done {
            return;
        }
        if !merging {
            continue;
        }
        // Safety: merge-phase protocol — the conductor published
        // `merge_shared` (and ended its `&mut SimState` borrow) before
        // `open_merge`; this worker's lanes are disjoint from every
        // sibling's; the panic slot belongs to the executing worker.
        unsafe {
            if let Some(sh) = (*run.merge_shared.get()).as_ref() {
                for i in (g..sh.lanes.len()).step_by(run.layout.gangs) {
                    if let Err(p) =
                        catch_unwind(AssertUnwindSafe(|| exec_merge_lane(run, sh, i)))
                    {
                        *sh.lanes[i].panic.get() = Some(p);
                    }
                }
            }
        }
        run.gate.arrive();
    }
}

/// Run the gang protocol with per-core OS threads. Returns per-core results
/// (global core order) plus the conductor's outcome.
pub(crate) fn run_threads_mech<'env, R: Send + 'env>(
    run: &GangRun,
    fns: Vec<CoreFn<'env, R>>,
    marker: usize,
) -> (Vec<Option<std::thread::Result<R>>>, std::thread::Result<()>) {
    let n = fns.len();
    let layout = run.layout;
    let barrier = Barrier::new(n + 1);
    let registry: Mutex<Vec<Option<Thread>>> = Mutex::new(vec![None; n]);
    let mut outs: Vec<Option<std::thread::Result<R>>> = Vec::new();
    let mut conductor_result: std::thread::Result<()> = Ok(());
    // Merge workers are only reachable when banked classification is on
    // (`merge` never opens a merge phase otherwise); skip the spawns — and
    // the per-epoch spurious wakeups — when it is off.
    let merge_gangs = if run.classify { layout.gangs } else { 0 };
    run.par_merge.store(merge_gangs > 0, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let merge_handles: Vec<_> = (0..merge_gangs)
            .map(|g| scope.spawn(move || merge_worker(run, g, marker)))
            .collect();
        let handles: Vec<_> = fns
            .into_iter()
            .enumerate()
            .map(|(c, f)| {
                let barrier = &barrier;
                let registry = &registry;
                scope.spawn(move || {
                    // The conductor holds the machine lock for the whole
                    // run: host-side Machine calls from this closure must
                    // panic loudly, not deadlock.
                    let _mark = crate::machine::hold_state_marker(marker);
                    registry.lock().unwrap()[c] = Some(std::thread::current());
                    barrier.wait();
                    let g = layout.gang_of(c);
                    let base = layout.base(g);
                    let peers = {
                        let r = registry.lock().unwrap();
                        r[base..base + layout.size(g)].to_vec()
                    };
                    let mut ctx = Ctx::from_parts(
                        c,
                        n,
                        !run.trace.is_null(),
                        CtxBackend::GangThreads(GangThreadsCtx {
                            run: run as *const GangRun,
                            gang: g,
                            local: c - base,
                            has_turn: false,
                            peers,
                        }),
                    );
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    // Retire even on panic, so the gang keeps scheduling.
                    ctx.retire();
                    out
                })
            })
            .collect();
        barrier.wait();
        let peers: Vec<Vec<Option<Thread>>> = {
            let r = registry.lock().unwrap();
            (0..layout.gangs)
                .map(|g| r[layout.base(g)..layout.base(g) + layout.size(g)].to_vec())
                .collect()
        };
        // SAFETY: single conductor; `run` and the root state outlive it.
        conductor_result = unsafe { conduct(run, Mech::Threads, &peers) };
        outs = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => Some(r),
                Err(e) => Some(Err(e)),
            })
            .collect();
        for h in merge_handles {
            h.join().expect("merge worker must not panic (lane panics are captured)");
        }
    });
    (outs, conductor_result)
}

// ---------------------------------------------------------------------
// Coop mechanism: one gang worker thread per gang, cores as coroutines.
// ---------------------------------------------------------------------

/// Per-core context for the coop mechanism (a coroutine in its gang
/// worker's arena). `!Send` by construction — confined to the worker.
#[cfg(mcsim_coop)]
pub(crate) struct GangCoopCtx {
    run: *const GangRun,
    gang: usize,
    local: usize,
    /// This gang's context-slot table (`size + 1` entries; last = worker).
    ctxs: *mut *mut u8,
    main_slot: usize,
    /// Set by retire: the slot the entry shim switches to after the body
    /// returns (mirrors the single-gang coop backend).
    pub(crate) retire_target: Option<usize>,
}

#[cfg(mcsim_coop)]
impl GangCoopCtx {
    pub(crate) fn run(&self) -> *const GangRun {
        self.run
    }
}

/// One event on the coop mechanism.
///
/// # Safety
/// Must run on the gang worker's thread, inside the coroutine owning the
/// gang turn.
#[cfg(mcsim_coop)]
pub(crate) unsafe fn event_coop(gc: &mut GangCoopCtx, c: CoreId, pending: u64, op: Op) -> Out {
    let run = &*gc.run;
    let (out, action) = gang_event_inner(run, gc.gang, gc.local, c, pending, op);
    match action {
        Action::Keep => {}
        Action::Switch(nl) => {
            crate::coop::switch(gc.ctxs.add(gc.local), *gc.ctxs.add(nl));
        }
        Action::Arrive => {
            crate::coop::switch(gc.ctxs.add(gc.local), *gc.ctxs.add(gc.main_slot));
        }
    }
    // Control may return here epochs later (or during an abort unwind).
    if run.aborted.load(Ordering::Acquire) {
        panic!("{ABORT_MSG}");
    }
    match out {
        Some(o) => o,
        None => (*run.results[c].get())
            .take()
            .expect("blocked coroutine resumed without a result"),
    }
}

/// Core retirement on the coop mechanism: record the entry shim's final
/// switch target instead of switching here (the body's closure must be
/// freed first — same discipline as the single-gang coop backend).
///
/// # Safety
/// Same contract as [`event_coop`].
#[cfg(mcsim_coop)]
pub(crate) unsafe fn retire_coop(gc: &mut GangCoopCtx, c: CoreId, pending: u64) {
    let run = &*gc.run;
    if run.aborted.load(Ordering::Acquire) {
        gc.retire_target = Some(gc.main_slot);
        return;
    }
    let target = match finish_gang_retire(run, gc.gang, gc.local, c, pending) {
        Action::Keep => unreachable!("retire always leaves the active set"),
        Action::Switch(nl) => nl,
        Action::Arrive => gc.main_slot,
    };
    gc.retire_target = Some(target);
}

/// One gang's coroutine arena: guard-paged stacks, the context-slot table
/// (`size + 1`; last = the driving thread's slot), type-erased bodies and
/// the per-core output slots. Confined to whichever single thread built it
/// (stacks and contexts are `!Send`); shared by the per-gang-worker and
/// the sequential drivers.
#[cfg(mcsim_coop)]
struct CoopArena<R> {
    /// Kept alive for the mappings; unused directly after `prepare`.
    _stacks: Vec<crate::coop::Stack>,
    ctxs: Vec<*mut u8>,
    /// Kept alive for the coroutine entry shims. Boxed on purpose: each
    /// payload's *address* is baked into its coroutine's trampoline frame
    /// by `coop::prepare`, so every payload must be individually pinned.
    #[allow(clippy::vec_box)]
    _payloads: Vec<Box<crate::coop::CoroPayload>>,
    outs: Vec<Option<std::thread::Result<R>>>,
    size: usize,
}

#[cfg(mcsim_coop)]
impl<R: Send> CoopArena<R> {
    /// Build the arena for gang `g` on the calling thread.
    fn new<'env>(run: &GangRun, g: usize, fns: Vec<CoreFn<'env, R>>) -> CoopArena<R>
    where
        R: 'env,
    {
        use crate::coop;
        let size = fns.len();
        let total = run.layout.n;
        let base = run.layout.base(g);
        let mut stacks: Vec<coop::Stack> =
            (0..size).map(|_| coop::Stack::new(coop::STACK_SIZE)).collect();
        let mut ctxs: Vec<*mut u8> = vec![std::ptr::null_mut(); size + 1];
        let ctxs_ptr = ctxs.as_mut_ptr();
        let mut outs: Vec<Option<std::thread::Result<R>>> = (0..size).map(|_| None).collect();
        let run_ptr = run as *const GangRun;
        let race_check = !run.trace.is_null();
        let mut payloads: Vec<Box<coop::CoroPayload>> = fns
            .into_iter()
            .enumerate()
            .map(|(l, f)| {
                let out_slot: *mut Option<std::thread::Result<R>> = &mut outs[l];
                let body: Box<dyn FnOnce() -> usize + 'env> = Box::new(move || {
                    let mut ctx = Ctx::from_parts(
                        base + l,
                        total,
                        race_check,
                        CtxBackend::GangCoop(GangCoopCtx {
                            run: run_ptr,
                            gang: g,
                            local: l,
                            ctxs: ctxs_ptr,
                            main_slot: size,
                            retire_target: None,
                        }),
                    );
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    // SAFETY: `outs[l]` is written only by core `l`'s own
                    // coroutine, and the arena outlives every coroutine.
                    unsafe { *out_slot = Some(out) };
                    ctx.retire();
                    ctx.gang_coop_retire_target()
                });
                // SAFETY: erase 'env — every coroutine is fully consumed
                // before the arena is dropped, so the closure cannot outlive
                // its borrows (same layout: only the lifetime is erased).
                let body: Box<dyn FnOnce() -> usize> = unsafe { std::mem::transmute(body) };
                Box::new(coop::CoroPayload {
                    f: Some(body),
                    ctxs: ctxs_ptr,
                    own_slot: l,
                })
            })
            .collect();
        for l in 0..size {
            // SAFETY: payloads are boxed (stable addresses) and both they and
            // the stacks live in the arena, outliving every switch.
            ctxs[l] = unsafe { coop::prepare(&mut stacks[l], &mut *payloads[l]) };
        }
        CoopArena {
            _stacks: stacks,
            ctxs,
            _payloads: payloads,
            outs,
            size,
        }
    }

    /// Switch from the driving thread into core `first`; control returns
    /// when the last runnable core pauses/blocks/retires (Action::Arrive).
    ///
    /// # Safety
    /// `first` is a live (not retired) core of this arena, and the caller
    /// is the arena's driving thread (slot `size` is its save slot).
    unsafe fn enter(&mut self, first: usize) {
        let ctxs_ptr = self.ctxs.as_mut_ptr();
        crate::coop::switch(ctxs_ptr.add(self.size), self.ctxs[first]);
    }

    /// Abort path: resume every live coroutine once so it unwinds (its
    /// next event panics on the abort flag) and frees its closure.
    ///
    /// # Safety
    /// As for [`Self::enter`]; the abort flag must already be set so each
    /// resumed coroutine unwinds instead of re-entering the epoch loop.
    unsafe fn unwind_live(&mut self, run: &GangRun, g: usize) {
        let retired: Vec<bool> = (*run.gangs[g].get()).retired.clone();
        for (l, &r) in retired.iter().enumerate() {
            if !r {
                self.enter(l);
            }
        }
    }
}

/// One gang worker: owns its cores' coroutine arena and drives the epoch
/// loop for its gang.
#[cfg(mcsim_coop)]
fn gang_worker<'env, R: Send + 'env>(
    run: &GangRun,
    g: usize,
    fns: Vec<CoreFn<'env, R>>,
    marker: usize,
) -> Vec<Option<std::thread::Result<R>>> {
    let _mark = crate::machine::hold_state_marker(marker);
    let mut arena = CoopArena::new(run, g, fns);
    let mut seen = 0u64;
    loop {
        let (epoch, done, merging) = run.gate.worker_wait(seen);
        seen = epoch;
        if done {
            if run.aborted.load(Ordering::Acquire) {
                // SAFETY: abort flag is set; this worker owns the arena.
                unsafe { arena.unwind_live(run, g) };
            }
            break;
        }
        if merging {
            // Banked merge phase: drain this worker's share of the lanes
            // (lane `i` belongs to worker `i % gangs`; lanes are pairwise
            // disjoint, so the round-robin split is only load balancing).
            // SAFETY: everything is read through the shared reference; the
            // only write — the panic capture — goes through the slot's
            // UnsafeCell, which only this worker touches.
            unsafe {
                if let Some(sh) = (*run.merge_shared.get()).as_ref() {
                    for i in (g..sh.lanes.len()).step_by(run.layout.gangs) {
                        if let Err(p) =
                            catch_unwind(AssertUnwindSafe(|| exec_merge_lane(run, sh, i)))
                        {
                            *sh.lanes[i].panic.get() = Some(p);
                        }
                    }
                }
            }
            run.gate.arrive();
            continue;
        }
        // A fully retired gang contributes no window (begin_window finds no
        // active core) but its worker stays parked here until the run ends:
        // it still serves merge phases.
        // SAFETY: between gate epochs this worker exclusively owns its
        // gang's state and arena; `first` comes from the window scan.
        if let Some(first) = unsafe { begin_window(run, g) } {
            unsafe { arena.enter(first) };
        }
        run.gate.arrive();
    }
    arena.outs
}

/// Run the whole gang protocol on the calling thread: conductor and every
/// gang's coroutine arena interleaved, with **zero synchronization** — no
/// gate, no condvars, no parks. Used when the host has a single CPU, where
/// spawning one worker per gang buys nothing and costs a condvar round
/// trip per epoch (measured ~1.7× end-to-end on a 1-vCPU host). Every
/// scheduling decision goes through the same `gang_event_inner` /
/// `begin_window` / `merge` as the threaded drivers, so results are
/// bit-identical to them by construction.
#[cfg(mcsim_coop)]
pub(crate) fn run_seq_mech<'env, R: Send + 'env>(
    run: &GangRun,
    mut fns: Vec<CoreFn<'env, R>>,
) -> (Vec<Option<std::thread::Result<R>>>, std::thread::Result<()>) {
    let layout = run.layout;
    let mut arenas: Vec<CoopArena<R>> = Vec::with_capacity(layout.gangs);
    for g in 0..layout.gangs {
        let rest = fns.split_off(layout.size(g).min(fns.len()));
        arenas.push(CoopArena::new(run, g, fns));
        fns = rest;
    }
    let mut conductor_result: std::thread::Result<()> = Ok(());
    // SAFETY (whole loop): this sequential driver is the only thread, so
    // it is conductor and every gang's worker at once — plan/window/merge
    // exclusivity holds trivially, and coroutines only run inside enter().
    loop {
        let (min, live) = unsafe { plan(run) };
        if !live.iter().any(|&x| x) {
            break;
        }
        run.ceiling.store(min.saturating_add(run.window), Ordering::Relaxed);
        for (g, &is_live) in live.iter().enumerate() {
            if !is_live {
                continue;
            }
            // SAFETY: only thread (see the loop-head safety note above).
            if let Some(first) = unsafe { begin_window(run, g) } {
                unsafe { arenas[g].enter(first) };
            }
        }
        // SAFETY: still the only thread; on abort the flag is set before
        // any coroutine is resumed to unwind.
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| unsafe { merge(run, false) })) {
            run.aborted.store(true, Ordering::Release);
            for (g, arena) in arenas.iter_mut().enumerate() {
                unsafe { arena.unwind_live(run, g) };
            }
            conductor_result = Err(e);
            break;
        }
    }
    let outs = arenas.into_iter().flat_map(|a| a.outs).collect();
    (outs, conductor_result)
}

/// Run the gang protocol with one worker thread per gang, cores as
/// coroutines inside each worker.
#[cfg(mcsim_coop)]
pub(crate) fn run_coop_mech<'env, R: Send + 'env>(
    run: &GangRun,
    mut fns: Vec<CoreFn<'env, R>>,
    marker: usize,
) -> (Vec<Option<std::thread::Result<R>>>, std::thread::Result<()>) {
    // This driver's gang workers stay parked at the gate between epochs:
    // the conductor may hand them banked merge lanes.
    run.par_merge.store(true, Ordering::Relaxed);
    let layout = run.layout;
    let mut per_gang: Vec<Vec<CoreFn<'env, R>>> = Vec::with_capacity(layout.gangs);
    for g in 0..layout.gangs {
        let rest = fns.split_off(layout.size(g).min(fns.len()));
        per_gang.push(fns);
        fns = rest;
    }
    let mut outs: Vec<Option<std::thread::Result<R>>> = Vec::new();
    let mut conductor_result: std::thread::Result<()> = Ok(());
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_gang
            .into_iter()
            .enumerate()
            .map(|(g, gfns)| scope.spawn(move || gang_worker(run, g, gfns, marker)))
            .collect();
        // SAFETY: single conductor; `run` and the root state outlive it.
        conductor_result = unsafe { conduct(run, Mech::Coop, &[]) };
        outs = handles
            .into_iter()
            .flat_map(|h| h.join().expect("gang worker must not panic outside coroutines"))
            .collect();
    });
    (outs, conductor_result)
}

#[cfg(test)]
mod tests {
    use super::Layout;

    #[test]
    fn layout_partitions_contiguously() {
        let l = Layout::new(8, 2, 1);
        assert_eq!((l.block, l.gangs), (4, 2));
        assert_eq!(l.gang_of(3), 0);
        assert_eq!(l.gang_of(4), 1);
        assert_eq!(l.size(0), 4);
        assert_eq!(l.size(1), 4);
    }

    #[test]
    fn layout_respects_smt_alignment() {
        // 6 threads, 2-way SMT, 4 gangs requested: blocks round up to 2,
        // so siblings never straddle a boundary.
        let l = Layout::new(6, 4, 2);
        assert_eq!(l.block % 2, 0);
        for c in (0..l.n).step_by(2) {
            assert_eq!(l.gang_of(c), l.gang_of(c + 1), "siblings split at {c}");
        }
    }

    #[test]
    fn layout_ragged_last_gang() {
        let l = Layout::new(10, 4, 1);
        assert_eq!(l.block, 3);
        assert_eq!(l.gangs, 4);
        assert_eq!(l.size(3), 1);
        assert_eq!((0..l.gangs).map(|g| l.size(g)).sum::<usize>(), 10);
    }

    #[test]
    fn layout_degenerates_to_one_gang() {
        assert_eq!(Layout::new(1, 4, 1).gangs, 1);
        assert_eq!(Layout::new(3, 1, 1).gangs, 1);
    }
}
