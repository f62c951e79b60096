//! The reclamation-scheme interface shared by every baseline, plus the
//! machinery they have in common: the global era, and the whole retire-list
//! lifecycle — [`RetireBag`] (per-thread list, scan cadence, garbage counts), its
//! sweep, and the provided [`Smr::retire`] / [`Smr::depart`] /
//! [`Smr::adopt`] / [`Smr::join`]. A scheme's own file supplies only what
//! differs; [`Smr`] lists it.
//!
//! Design rule of this crate: **all cross-thread SMR metadata lives in
//! simulated shared memory** — global epoch/era counters, per-thread
//! announcement lines, hazard slots, reservation intervals. Reading another
//! thread's slot is a simulated load with real coherence cost, publishing a
//! hazard pays a simulated fence. This is what makes the paper's comparison
//! meaningful: hp/he/ibr pay per-read costs, rcu/qsbr pay per-op costs, CA
//! and leaky pay none.
//!
//! Per-thread bookkeeping that a real implementation would keep in
//! thread-local *private* memory (the retire list itself, cached era values,
//! counters) is host-side, charged with [`Env::tick`].
//!
//! # The environment abstraction
//!
//! Since PR 8 the schemes are written against [`crate::env::Env`], not the
//! simulator directly: every shared-memory access above goes through an
//! `E: Env` type parameter. Two environments exist:
//!
//! * **Simulated** ([`mcsim::machine::Ctx`]): deterministic, cost-modeled.
//!   `Env` methods forward 1:1 to the inherent `Ctx` methods, so generic
//!   code issues the exact operation sequence the pre-Env code did —
//!   simulated results are byte-identical (pinned by `tests/env_pin.rs`).
//! * **Native** ([`crate::native::NativeEnv`]): real host threads, real
//!   atomics over a line pool. Costs are *measured*, not modeled: `tick`
//!   is a no-op, fences are real `SeqCst` fences, and contention is
//!   whatever the host's coherence protocol delivers.
//!
//! Cost-model caveats when comparing the two: the simulator charges every
//! scheme the paper's §V abstract costs (fence latency, coherence misses,
//! scan ticks) on an idealized machine, while native runs inherit the host's
//! cache hierarchy, store-buffer forwarding, and scheduler noise — so the
//! comparison contract is **scheme orderings and scaling shapes**, never
//! absolute numbers (see the `validate` bin). Conditional Access has no
//! native implementation at all: it requires the paper's proposed hardware
//! primitive (tagged `cread`/`cwrite` with cross-core revocation), which no
//! shipping CPU provides, so CA runs remain simulator-only predictions.
//!
//! The scheme interface splits across two traits: [`SmrBase`] carries the
//! environment-independent surface (per-thread state, names, accounting),
//! [`Smr`]`<E>` the operations that touch shared memory. Schemes implement
//! `Smr<E>` for **every** `E: Env`; harness code picks the environment by
//! instantiation (`for<'m> Smr<SimEnv<'m>>` vs `for<'p> Smr<NativeEnv<'p>>`).

use crate::env::{Env, EnvHost};
use crate::recovery::{CrashToken, Orphan};
use mcsim::Addr;

/// Sentinel published by inactive threads (no reservation/announcement).
pub const INACTIVE: u64 = u64::MAX;

/// Word index inside every node reserved for SMR metadata (birth era for
/// ibr/he). Data structures must not use this word.
pub const NODE_BIRTH_WORD: u64 = 7;

/// Tuning knobs, defaulted to the paper's §V configuration (which follows
/// the IBR benchmark defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct SmrConfig {
    /// Attempt reclamation after this many retires ("reclamation frequency",
    /// paper: 30 successful removes).
    pub reclaim_freq: u64,
    /// Advance the global era/epoch after this many allocations ("epoch
    /// frequency", paper: 150 allocations).
    pub epoch_freq: u64,
}

impl Default for SmrConfig {
    fn default() -> Self {
        Self {
            reclaim_freq: 30,
            epoch_freq: 150,
        }
    }
}

/// Hazard/era slots per thread (hp/he). 4 suffices for every structure in
/// this repository (BST traversal holds grandparent/parent/leaf plus one
/// rotating slot).
pub const SLOTS_PER_THREAD: usize = 4;

// Each thread's slots live in its one metadata line.
const _: () = assert!(SLOTS_PER_THREAD <= crate::env::WORDS_PER_LINE as usize);

/// Retired-but-unfreed ("garbage") accounting for one thread — embedded in
/// its [`RetireBag`] — or, after [`GarbageStats::merge`], for a whole run.
///
/// All counts are in nodes; every node in this repository is one cache
/// line, so bytes are `nodes × LINE_BYTES` ([`GarbageStats::peak_bytes`]).
/// The robustness experiments key off `peak`: a scheme is *bounded* when
/// its peak garbage stays within a constant of `reclaim_freq × threads`
/// even with a stalled/crashed thread, and *unbounded* when the peak
/// tracks the total retire count instead (qsbr/rcu under a silent thread).
///
/// Purely host-side bookkeeping — it issues **no simulated operations**
/// and charges no simulated cycles, so counting cannot perturb the
/// simulated schedule. The time-*series* view of garbage rides on the
/// Figure-3 machinery instead (`MachineConfig::sample_every` +
/// `Machine::footprint_samples`, which sample `allocated_not_freed` in
/// simulated time); these counts add the per-scheme peak/live split that
/// `allocated_not_freed` (live data + garbage) cannot give by itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GarbageStats {
    /// Nodes handed to [`Smr::retire`].
    pub retired: u64,
    /// Nodes actually freed by the scheme's scans.
    pub freed: u64,
    /// Nodes currently retired-but-unfreed.
    pub live: u64,
    /// High-water mark of `live`. After a merge: the *sum* of the threads'
    /// peaks — an upper bound on the true instantaneous peak, and the
    /// bound that matters (per-thread retire lists are what grow).
    pub peak: u64,
}

impl GarbageStats {
    /// Peak garbage in bytes (nodes are one line each).
    pub fn peak_bytes(&self) -> u64 {
        self.peak * crate::env::LINE_BYTES
    }

    /// Live garbage in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live * crate::env::LINE_BYTES
    }

    /// Fold another thread's stats into this one — a whole run's, or an
    /// adopted thread's (see [`Smr::adopt`]): `retired`, `freed` and `live`
    /// add exactly, so flow accounting stays balanced across membership
    /// churn, and the peak becomes the *sum* of the two peaks (the
    /// conservative direction for the robustness bound: a scheme reported
    /// bounded under summed peaks is bounded under the true peak too).
    pub fn merge(&mut self, other: &GarbageStats) {
        self.retired += other.retired;
        self.freed += other.freed;
        self.live += other.live;
        self.peak += other.peak;
    }

    /// Count one node handed to `retire`.
    #[inline]
    fn on_retire(&mut self) {
        self.retired += 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Count one node freed by a scan.
    #[inline]
    fn on_free(&mut self) {
        self.freed += 1;
        self.live -= 1;
    }
}

/// A retired-but-not-yet-freed node, stamped with its lifetime interval.
#[derive(Copy, Clone, Debug)]
pub struct Retired {
    /// Node address.
    pub addr: Addr,
    /// Era current when the node was allocated (ibr/he; 0 elsewhere).
    pub birth: u64,
    /// Era/epoch current when the node was retired.
    pub retire: u64,
}

/// The per-thread half every scheme shares, embedded in its `Tls`: who the
/// thread is, what it has retired and not yet freed, how far it is from its
/// next scan, and its [`GarbageStats`]. Host-side only (a real
/// implementation keeps it in thread-private memory); the one simulated
/// charge is the sweep's [`Env::tick`] per examined entry.
#[derive(Debug)]
pub struct RetireBag {
    pub(crate) tid: usize,
    retired: Vec<Retired>,
    /// Scan once this many retires have accumulated
    /// ([`SmrConfig::reclaim_freq`]).
    scan_every: u64,
    retires_since_scan: u64,
    garbage: GarbageStats,
}

impl RetireBag {
    /// Thread `tid`'s empty bag, scanning every `scan_every` retires.
    pub(crate) fn new(tid: usize, scan_every: u64) -> Self {
        Self {
            tid,
            retired: Vec::new(),
            scan_every,
            retires_since_scan: 0,
            garbage: GarbageStats::default(),
        }
    }

    /// Count a retire that is never listed (leaky: nothing will free it).
    #[inline]
    pub(crate) fn leak(&mut self) {
        self.garbage.on_retire();
    }

    /// List a stamped node; true when the scan cadence is due.
    #[inline]
    fn push(&mut self, r: Retired) -> bool {
        self.retired.push(r);
        self.garbage.on_retire();
        self.retires_since_scan += 1;
        self.retires_since_scan >= self.scan_every
    }

    /// The sweep every [`Smr::scan`] ends in: examine each listed node once
    /// (one tick each), free those `blocked` lets go, restart the cadence.
    /// `swap_remove` moves the last entry into slot `i`, so `i` only
    /// advances past an entry that stays.
    #[inline]
    pub(crate) fn sweep<E: Env + ?Sized>(
        &mut self,
        env: &mut E,
        mut blocked: impl FnMut(&Retired) -> bool,
    ) {
        self.retires_since_scan = 0;
        let mut i = 0;
        while i < self.retired.len() {
            env.tick(1);
            if blocked(&self.retired[i]) {
                i += 1;
            } else {
                let r = self.retired.swap_remove(i);
                env.free(r.addr);
                self.garbage.on_free();
            }
        }
    }

    /// Take over `estate`'s retire list and garbage counts. A `token` marks the
    /// estate as a crash victim's: it must name the estate's thread — the
    /// one place a [`CrashToken`] is checked, before anything is touched —
    /// and that thread is returned for the caller to [`Smr::revoke`].
    fn inherit(&mut self, estate: &mut RetireBag, token: Option<CrashToken>) -> Option<usize> {
        let victim = token.map(|t| {
            assert_eq!(t.tid(), estate.tid, "crash token must name the orphan");
            estate.tid
        });
        self.retired.append(&mut estate.retired);
        self.garbage.merge(&estate.garbage);
        victim
    }
}

/// The environment-independent half of a reclamation scheme: per-thread
/// state management, capability flags, accounting, and naming. See [`Smr`]
/// for the shared-memory operations.
pub trait SmrBase: Sync {
    /// Host-side per-thread state.
    type Tls: Send;

    /// Create thread `tid`'s state (call once per worker thread).
    fn register(&self, tid: usize) -> Self::Tls;

    /// The [`RetireBag`] embedded in that state.
    fn bag(tls: &Self::Tls) -> &RetireBag;

    /// The same bag, to list, sweep and inherit into.
    fn bag_mut(tls: &mut Self::Tls) -> &mut RetireBag;

    /// Whether traversals must re-validate reachability (mark checks +
    /// restart) after protecting a node. True for hazard-based schemes
    /// (hp/he), whose protection does not retroactively cover nodes retired
    /// before the hazard was published; false for interval/epoch schemes.
    fn needs_validation(&self) -> bool {
        false
    }

    /// This thread's retired-but-unfreed accounting (see [`GarbageStats`]),
    /// a copy of its bag's counts. Host-side only.
    fn garbage(&self, tls: &Self::Tls) -> GarbageStats {
        Self::bag(tls).garbage.clone()
    }

    /// Scheme name as used in the paper's figures.
    fn name(&self) -> &'static str;
}

/// A safe-memory-reclamation scheme's shared-memory operations, generic
/// over the execution environment `E` (simulated [`crate::env::SimEnv`] or
/// real-hardware [`crate::native::NativeEnv`]).
///
/// Data structures call [`Smr::read_ptr`] to traverse pointer fields into
/// nodes that may be concurrently retired, bracketed by
/// [`Smr::begin_op`]/[`Smr::end_op`]; unlinked nodes go to [`Smr::retire`]
/// instead of being freed.
///
/// # What a scheme file supplies
///
/// Its shared-metadata layout and constructor, [`SmrBase`], the five
/// protection methods it needs ([`Smr::begin_op`], [`Smr::end_op`],
/// [`Smr::read_ptr`], [`Smr::clear_slot`], [`Smr::on_alloc`] — the defaults
/// are the unprotected `none`), and its free rule as three hooks:
/// [`Smr::stamp`], [`Smr::scan`], [`Smr::revoke`] (plus [`Smr::withdraw`]
/// where a graceful leave can do less). It inherits the retire-list
/// lifecycle — [`Smr::retire`], [`Smr::depart`], [`Smr::adopt`],
/// [`Smr::join`] — written once below in terms of those hooks and the
/// [`RetireBag`], and overrides a lifecycle method only where its
/// obligation really differs (leaky never lists; qsbr joins online).
pub trait Smr<E: Env + ?Sized>: SmrBase {
    /// Operation prologue (rcu: pin; ibr: open reservation; others: no-op).
    #[inline]
    fn begin_op(&self, _env: &mut E, _tls: &mut Self::Tls) {}

    /// Operation epilogue (qsbr: quiescent announcement; rcu: unpin;
    /// ibr: close reservation; hp/he: clear slots).
    #[inline]
    fn end_op(&self, _env: &mut E, _tls: &mut Self::Tls) {}

    /// Protected read of the pointer-sized word at `field`, whose value
    /// names a node. On return the named node is protected (per the
    /// scheme's rules) under `slot` until the slot is reused, cleared, or
    /// the operation ends. Null results need no protection. The default is
    /// the plain load of the schemes that pay per operation, not per read.
    #[inline]
    fn read_ptr(&self, env: &mut E, _tls: &mut Self::Tls, _slot: usize, field: Addr) -> u64 {
        env.read(field)
    }

    /// Release one protection slot early (hp/he; no-op elsewhere).
    #[inline]
    fn clear_slot(&self, _env: &mut E, _tls: &mut Self::Tls, _slot: usize) {}

    /// Hook invoked right after a node is allocated (ibr/he stamp the birth
    /// era into [`NODE_BIRTH_WORD`]; also drives era advancement).
    #[inline]
    fn on_alloc(&self, _env: &mut E, _tls: &mut Self::Tls, _node: Addr) {}

    /// Stamp an unlinked node for the retire list, issuing whatever fence
    /// and birth/era reads the scheme's free rule needs, in its order. The
    /// default is the address alone, for a rule that compares no era (hp).
    #[inline]
    fn stamp(&self, _env: &mut E, node: Addr) -> Retired {
        Retired {
            addr: node,
            birth: 0,
            retire: 0,
        }
    }

    /// Snapshot the shared metadata and [`RetireBag::sweep`] the bag with
    /// the predicate "this snapshot still blocks this node".
    fn scan(&self, env: &mut E, tls: &mut Self::Tls);

    /// Retract thread `tid`'s publications from shared memory without its
    /// `Tls` — the crash leg of [`Smr::adopt`], where whatever a host-side
    /// mirror last recorded cannot be trusted.
    fn revoke(&self, env: &mut E, tid: usize);

    /// Retract this thread's own publications for a graceful leave. The
    /// same stores as [`Smr::revoke`] unless the scheme mirrors what it
    /// published and can skip the slots it never used.
    fn withdraw(&self, env: &mut E, tls: &mut Self::Tls) {
        let tid = Self::bag(tls).tid;
        self.revoke(env, tid);
    }

    /// Hand an unlinked node to the scheme, which frees it once no thread
    /// can hold a protected reference (leaky: never): stamp it, list it,
    /// and scan when [`SmrConfig::reclaim_freq`] retires have accumulated.
    #[inline]
    fn retire(&self, env: &mut E, tls: &mut Self::Tls, node: Addr) {
        let r = self.stamp(env, node);
        if Self::bag_mut(tls).push(r) {
            self.scan(env, tls);
        }
    }

    /// Graceful leave. Must be called between operations (the thread holds
    /// no protected references). The scheme retracts the thread's own
    /// publications (clears hazard/era slots, closes the reservation,
    /// announces terminal quiescence), orders that before the scan's
    /// snapshot, drains whatever the retire list allows, and hands back the
    /// residue as an [`Orphan`] for a successor to [`Smr::adopt`] — so a
    /// departing member never strands garbage and never wedges the
    /// survivors.
    fn depart(&self, env: &mut E, mut tls: Self::Tls) -> Orphan<Self::Tls> {
        self.withdraw(env, &mut tls);
        env.smr_fence();
        self.scan(env, &mut tls);
        Orphan::departed(tls)
    }

    /// Take over an orphan's reclamation obligations.
    ///
    /// For a [`Orphan::departed`] orphan this merges the residual retire
    /// list and its [`GarbageStats`] into `tls` and scans. For a
    /// [`Orphan::crashed`] orphan the scheme additionally **forcibly
    /// retracts** the victim's live publications — clearing its hazard/era
    /// slots, deactivating its reservation, deregistering its
    /// quiescence/pin line. That retraction is sound *only* because the
    /// orphan carries a [`crate::recovery::CrashToken`]: the environment
    /// has declared the thread fail-stop, so no protection it published
    /// can ever be exercised again (see the [`crate::recovery`] module
    /// docs for the full argument). The token must name the orphan's
    /// thread; [`RetireBag`] checks it, here and nowhere else.
    fn adopt(&self, env: &mut E, tls: &mut Self::Tls, orphan: Orphan<Self::Tls>) {
        let (mut estate, token) = orphan.into_parts();
        if let Some(victim) = Self::bag_mut(tls).inherit(Self::bag_mut(&mut estate), token) {
            self.revoke(env, victim);
            env.smr_fence();
        }
        self.scan(env, tls);
    }

    /// (Re)join the run as thread `tid`, coming online in the scheme's
    /// metadata. Equivalent to [`SmrBase::register`] for most schemes
    /// (their metadata activates lazily in `begin_op`/`read_ptr`); qsbr
    /// overrides it to announce the current epoch *before* the first
    /// operation, since a rejoining thread whose line still reads
    /// "departed" would otherwise start traversing while scans ignore it.
    fn join(&self, env: &mut E, tid: usize) -> Self::Tls {
        let _ = env;
        self.register(tid)
    }
}

/// A shared reference to a scheme is a scheme: lets many data-structure
/// instances (e.g. the 128 buckets of the paper's hash table) share one
/// scheme's metadata and per-thread state.
impl<S: SmrBase> SmrBase for &S {
    type Tls = S::Tls;

    fn register(&self, tid: usize) -> Self::Tls {
        (**self).register(tid)
    }
    fn bag(tls: &Self::Tls) -> &RetireBag {
        S::bag(tls)
    }
    fn bag_mut(tls: &mut Self::Tls) -> &mut RetireBag {
        S::bag_mut(tls)
    }
    fn needs_validation(&self) -> bool {
        (**self).needs_validation()
    }
    fn garbage(&self, tls: &Self::Tls) -> GarbageStats {
        (**self).garbage(tls)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<E: Env + ?Sized, S: Smr<E>> Smr<E> for &S {
    fn begin_op(&self, env: &mut E, tls: &mut Self::Tls) {
        (**self).begin_op(env, tls)
    }
    fn end_op(&self, env: &mut E, tls: &mut Self::Tls) {
        (**self).end_op(env, tls)
    }
    fn read_ptr(&self, env: &mut E, tls: &mut Self::Tls, slot: usize, field: Addr) -> u64 {
        (**self).read_ptr(env, tls, slot, field)
    }
    fn clear_slot(&self, env: &mut E, tls: &mut Self::Tls, slot: usize) {
        (**self).clear_slot(env, tls, slot)
    }
    fn on_alloc(&self, env: &mut E, tls: &mut Self::Tls, node: Addr) {
        (**self).on_alloc(env, tls, node)
    }
    fn stamp(&self, env: &mut E, node: Addr) -> Retired {
        (**self).stamp(env, node)
    }
    fn scan(&self, env: &mut E, tls: &mut Self::Tls) {
        (**self).scan(env, tls)
    }
    fn revoke(&self, env: &mut E, tid: usize) {
        (**self).revoke(env, tid)
    }
    fn withdraw(&self, env: &mut E, tls: &mut Self::Tls) {
        (**self).withdraw(env, tls)
    }
    fn retire(&self, env: &mut E, tls: &mut Self::Tls, node: Addr) {
        (**self).retire(env, tls, node)
    }
    fn depart(&self, env: &mut E, tls: Self::Tls) -> Orphan<Self::Tls> {
        (**self).depart(env, tls)
    }
    fn adopt(&self, env: &mut E, tls: &mut Self::Tls, orphan: Orphan<Self::Tls>) {
        (**self).adopt(env, tls, orphan)
    }
    fn join(&self, env: &mut E, tid: usize) -> Self::Tls {
        (**self).join(env, tid)
    }
}

/// Global-era helpers shared by the epoch/era-based schemes.
pub(crate) struct EraClock {
    pub era: Addr,
}

impl EraClock {
    /// Allocate the era line and initialize the clock to 1 (0 is reserved so
    /// that "birth 0" can mean "no birth metadata").
    pub fn new<H: EnvHost + ?Sized>(host: &H) -> Self {
        let era = host.alloc_static(1);
        host.host_write(era, 1);
        host.label_static(era, 1, "era");
        Self { era }
    }

    /// Read the current era (shared load; usually an S-state hit, a miss
    /// right after someone bumps it — that cost is the point).
    #[inline]
    pub fn read<E: Env + ?Sized>(&self, env: &mut E) -> u64 {
        env.read(self.era)
    }

    /// Count an allocation; every `epoch_freq`-th allocation bumps the era.
    /// A lost CAS race means someone else bumped it, which is just as good.
    pub fn on_alloc<E: Env + ?Sized>(&self, env: &mut E, alloc_count: &mut u64, epoch_freq: u64) {
        *alloc_count += 1;
        if (*alloc_count).is_multiple_of(epoch_freq) {
            let e = env.read(self.era);
            let _ = env.cas(self.era, e, e + 1);
        }
    }
}

/// Allocate one static line per thread, every word set to `init`, and
/// return their base addresses. One line each avoids false sharing between
/// threads' metadata — standard practice in real SMR implementations, and
/// necessary here so one thread's publishes don't invalidate another's
/// cached metadata. `name` labels the lines in race-analyzer reports (e.g.
/// `hp.hazards`) and in the wedge watchdog's attribution probe over them
/// (see [`mcsim::WedgeProbe`]): when a run wedges, the watchdog names the
/// thread holding the oldest of the first `probe_slots` words of its line
/// that is not `idle`. No probe on hosts without a watchdog (native).
pub(crate) fn per_thread_lines<H: EnvHost + ?Sized>(
    host: &H,
    threads: usize,
    name: &'static str,
    init: u64,
    probe_slots: u64,
    idle: u64,
) -> Vec<Addr> {
    let lines: Vec<Addr> = (0..threads)
        .map(|_| {
            let a = host.alloc_static(1);
            for w in 0..crate::env::WORDS_PER_LINE {
                host.host_write(a.word(w), init);
            }
            host.label_static(a, 1, name);
            a
        })
        .collect();
    if let Some(&base) = lines.first() {
        // The probe addresses thread t's line as `base + t × LINE_BYTES`;
        // the static bump allocator hands out contiguous lines.
        debug_assert!(
            lines
                .windows(2)
                .all(|w| w[1].0 == w[0].0 + crate::env::LINE_BYTES),
            "wedge probes require contiguous per-thread lines"
        );
        host.register_wedge_probe(mcsim::WedgeProbe {
            name,
            base,
            threads,
            slots: probe_slots,
            sentinel: idle,
        });
    }
    lines
}

/// The lowest word-0 value published on `lines`. [`INACTIVE`] is
/// `u64::MAX`, so departed, unpinned and adopted threads fall out of the
/// minimum — they constrain nothing — and the result is `u64::MAX` when
/// nobody is active. One simulated load per thread: these lines are
/// write-mostly by their owners, so the loads are usually misses — the scan
/// cost the paper charges the epoch schemes with.
pub(crate) fn oldest_active<E: Env + ?Sized>(env: &mut E, lines: &[Addr]) -> u64 {
    lines
        .iter()
        .fold(INACTIVE, |oldest, &line| oldest.min(env.read(line)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::env::SimEnv;
    use mcsim::{Machine, MachineConfig};

    /// PR-4 audit pin for the sweep's `swap_remove` index discipline,
    /// shared by every scheme's `scan_revisits_the_swapped_in_element`:
    /// freeing `retired[i]` swaps the LAST entry into slot `i`, which must
    /// be re-examined before advancing. The classic off-by-one (`i += 1`
    /// after the removal) leaks exactly one freeable node per scan; with
    /// two freeable nodes and exactly one scan, that bug leaves a node
    /// behind. The one scan is the second retire's (cadence 2) — or, with
    /// `scan_at_depart`, the departing one (cadence 3, never due), for a
    /// scheme whose own thread blocks its retires until it leaves (qsbr:
    /// the fresh stamp is never below the thread's own announcement).
    pub(crate) fn one_scan_frees_both_of_two<S>(
        build: impl FnOnce(&Machine, SmrConfig) -> S,
        scan_at_depart: bool,
    ) where
        S: for<'m> Smr<SimEnv<'m>>,
    {
        let m = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 128,
            quantum: 0,
            ..Default::default()
        });
        let s = build(
            &m,
            SmrConfig {
                reclaim_freq: if scan_at_depart { 3 } else { 2 },
                epoch_freq: 1,
            },
        );
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            let a = ctx.alloc();
            s.on_alloc(ctx, &mut tls, a);
            let b = ctx.alloc();
            s.on_alloc(ctx, &mut tls, b);
            // Nothing is protected, pinned or reserved: both are freeable.
            s.retire(ctx, &mut tls, a);
            s.retire(ctx, &mut tls, b);
            if scan_at_depart {
                let _ = s.depart(ctx, tls);
            }
        });
        assert_eq!(
            m.stats().allocated_not_freed,
            0,
            "{}: one scan over [A, B] must free both (swap_remove revisit)",
            s.name()
        );
    }

    #[test]
    fn epoch_scans_revisit_the_swapped_in_element() {
        one_scan_frees_both_of_two(|m, cfg| crate::Rcu::new(m, 1, cfg), false);
        one_scan_frees_both_of_two(|m, cfg| crate::Qsbr::new(m, 1, cfg), true);
    }

    #[test]
    fn defaults_match_paper() {
        let c = SmrConfig::default();
        assert_eq!(c.reclaim_freq, 30);
        assert_eq!(c.epoch_freq, 150);
    }

    #[test]
    fn era_clock_advances_every_epoch_freq_allocs() {
        let m = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        });
        let clock = EraClock::new(&m);
        let eras = m.run_on(1, |_, ctx| {
            let mut count = 0;
            let e0 = clock.read(ctx);
            for _ in 0..150 {
                clock.on_alloc(ctx, &mut count, 150);
            }
            let e1 = clock.read(ctx);
            for _ in 0..149 {
                clock.on_alloc(ctx, &mut count, 150);
            }
            let e_mid = clock.read(ctx);
            clock.on_alloc(ctx, &mut count, 150);
            let e2 = clock.read(ctx);
            (e0, e1, e_mid, e2)
        });
        assert_eq!(eras, vec![(1, 2, 2, 3)]);
    }

    #[test]
    fn per_thread_lines_are_distinct_and_initialized() {
        let m = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        });
        let lines = per_thread_lines(&m, 3, "test.lines", INACTIVE, 1, INACTIVE);
        assert_eq!(lines.len(), 3);
        for (i, a) in lines.iter().enumerate() {
            for (j, b) in lines.iter().enumerate() {
                if i != j {
                    assert_ne!(a.line(), b.line(), "false sharing between threads");
                }
            }
            assert_eq!(m.host_read(*a), INACTIVE);
            assert_eq!(m.host_read(a.word(7)), INACTIVE);
        }
    }
}
