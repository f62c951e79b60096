//! Directory-based coherence engine (MSI or MESI) with the Conditional
//! Access hooks, SMT tag sharing, and a lazy-versioning HTM used by the
//! related-work comparator.
//!
//! One [`CoherenceHub`] owns every physical core's private L1, the shared
//! inclusive L2 (whose per-line payload is the full-map directory entry),
//! the functional memory, and the per-hardware-thread *access-revoked bits*
//! (ARB).
//!
//! Every operation here executes atomically under the machine lock, so a
//! coherence "message exchange" (invalidate + ack) is a single state
//! transition; the cost table ([`crate::latency`]) charges the cycles the
//! round trip would have cost.
//!
//! Conditional Access hooks (paper §III):
//! * a `cread` sets the issuing hardware thread's tag bit of the L1 line it
//!   touches;
//! * invalidating a *tagged* L1 line — by a remote write, a local
//!   associativity eviction, or an inclusive-L2 back-invalidation — sets the
//!   ARB of every hardware thread whose tag bit was set;
//! * on SMT cores, a **sibling hyperthread's store** to a tagged line sets
//!   the tagger's ARB even though no coherence message is exchanged (the
//!   line never leaves the shared L1) — the paper's §III SMT rule;
//! * downgrading M→S (or E→S) does **not** revoke tags (the copy stays
//!   valid);
//! * `untagAll` clears the calling hardware thread's tag bits and its ARB.
//!
//! # One probe per access
//!
//! The caches are [`SetAssoc`]s, whose probe visits every way of a set and
//! answers with a [`Way`] (see the `cache` module docs for the layout and
//! why the probe has no early exit). Each architectural operation probes
//! its L1 **once** and hands the way to everything that follows: `cread`
//! touches LRU and sets the tag bit on the way `acquire_shared` found (or
//! the way the miss path inserted into); `cwrite` reads the tag bit,
//! upgrades and collects the sibling mask on one way; `write`/`cas` reuse
//! `acquire_exclusive`'s way for the sibling mask; `upgrade_shared` writes
//! the new state through the way it was called with. An L1 miss probes the
//! L2 once: `l2_get_or_fill` returns the directory entry's way and the miss
//! paths edit the entry through it (a Modified or Exclusive L1 *victim*
//! costs one more L2 probe, for a different line). A way stays valid until
//! the next insert or remove on the same cache, so a transition may keep
//! one only across edits of *other* caches — the invalidations a store
//! sends go to other cores' L1s, a fill's back-invalidations to L1s only.
//! Unit tests count probes per operation and hold these numbers.
//!
//! Which physical core and hyperthread a hardware thread is comes from a
//! table built by [`CoherenceHub::new`], not from a division per access.

#![forbid(unsafe_code)]

use crate::addr::{Addr, CoreId, Line};
use crate::cache::{DirMeta, L1Meta, MsiState, SetAssoc, Way, L1};
use crate::latency as lat;
use crate::mem::Memory;
use crate::stats::{RevokeCause, StatsBank};

/// Iterate over set bits of a mask as core ids.
/// The panic of [`CoherenceHub::assert_outside_tx`], out of line so the
/// inlined access paths carry only the test.
#[cold]
#[inline(never)]
fn non_tx_op_inside_tx(t: CoreId, what: &str) -> ! {
    panic!(
        "{what} issued inside a hardware transaction on thread {t}: \
         only tx_read/tx_write are transactional"
    )
}

#[inline]
fn bits(mut m: u64) -> impl Iterator<Item = CoreId> {
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(i)
        }
    })
}

/// Which invalidation-based protocol the directory runs.
///
/// The paper's Graphite configuration uses directory MSI; §IV notes that the
/// technique only assumes "MSI, MESI or other such equivalent mechanisms".
/// MESI adds the Exclusive state: a read miss with no other holder is
/// granted E, and a subsequent write promotes E→M silently (no directory
/// round trip). CA semantics are identical under both — tags live on L1
/// lines and revocation is driven by the same invalidation events.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Protocol {
    /// Directory MSI (the paper's configuration).
    #[default]
    Msi,
    /// Directory MESI (Exclusive-state extension).
    Mesi,
}

/// Geometry of the cache hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Private L1 data cache size in bytes (paper: 32 KiB).
    pub l1_bytes: usize,
    /// L1 associativity (ways).
    pub l1_assoc: usize,
    /// Shared inclusive L2 size in bytes (paper: 256 KiB).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Coherence protocol (paper: MSI).
    pub protocol: Protocol,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l2_bytes: 256 * 1024,
            l2_assoc: 8,
            protocol: Protocol::Msi,
        }
    }
}

/// Per-hardware-thread transaction state for the HTM comparator.
#[derive(Debug, Default)]
pub(crate) struct TxState {
    /// A transaction is in flight.
    pub(crate) active: bool,
    /// Buffered (lazy-versioned) speculative stores, in program order.
    pub(crate) writes: Vec<(Addr, u64)>,
}

/// The coherence engine: caches + directory + functional memory + ARBs.
pub struct CoherenceHub {
    /// One private L1 per *physical core* (shared by its hyperthreads).
    pub(crate) l1s: Vec<L1>,
    /// The shared inclusive L2; each line's payload is its directory entry.
    pub(crate) l2: SetAssoc<DirMeta>,
    pub(crate) mem: Memory,
    /// Hardware threads per physical core (1 = no SMT).
    smt: usize,
    /// `(physical core, hyperthread index)` of every hardware thread:
    /// `(t / smt, t % smt)`, divided once here instead of on every access.
    placement: Vec<(u8, u8)>,
    protocol: Protocol,
    /// Per-hardware-thread access-revoked bit.
    pub(crate) arb: Vec<bool>,
    /// Per-hardware-thread HTM state.
    pub(crate) tx: Vec<TxState>,
    pub(crate) stats: StatsBank,
    /// The race analyzer's event trace (`MachineConfig::race_check`); one
    /// `Vec` per hardware thread, disabled (and empty) by default.
    pub(crate) trace: crate::hb::TraceBank,
}

impl CoherenceHub {
    /// Build a hub for `threads` hardware threads packed `smt` per physical
    /// core (at most 64 physical cores: directory bitmaps are u64; at most
    /// 8-way SMT: tag masks are u8).
    pub fn new(threads: usize, smt: usize, cache: &CacheConfig, mem_bytes: u64) -> Self {
        assert!(threads >= 1, "need at least one hardware thread");
        assert!((1..=8).contains(&smt), "1..=8 hyperthreads per core");
        assert!(
            threads.is_multiple_of(smt),
            "threads ({threads}) must be a multiple of smt ({smt})"
        );
        let pcores = threads / smt;
        assert!(pcores <= 64, "1..=64 physical cores supported");
        Self {
            l1s: (0..pcores)
                .map(|_| L1::new(cache.l1_bytes, cache.l1_assoc))
                .collect(),
            l2: SetAssoc::new(cache.l2_bytes, cache.l2_assoc),
            mem: Memory::new(mem_bytes),
            smt,
            placement: (0..threads)
                .map(|t| ((t / smt) as u8, (t % smt) as u8))
                .collect(),
            protocol: cache.protocol,
            arb: vec![false; threads],
            tx: (0..threads).map(|_| TxState::default()).collect(),
            stats: StatsBank::new(threads),
            trace: crate::hb::TraceBank::new(threads),
        }
    }

    /// Number of hardware threads.
    pub fn cores(&self) -> usize {
        self.arb.len()
    }

    /// Hardware threads per physical core.
    pub fn smt(&self) -> usize {
        self.smt
    }

    /// Physical core of hardware thread `t` and its hyperthread index
    /// within that core.
    #[inline]
    fn place(&self, t: CoreId) -> (usize, usize) {
        let (pcore, ht) = self.placement[t];
        (pcore as usize, ht as usize)
    }

    /// Physical core of hardware thread `t`.
    #[inline]
    pub(crate) fn pc(&self, t: CoreId) -> usize {
        self.place(t).0
    }

    #[inline(always)]
    fn assert_outside_tx(&self, t: CoreId, what: &str) {
        if self.tx[t].active {
            non_tx_op_inside_tx(t, what);
        }
    }

    // ------------------------------------------------------------------
    // Coherence transitions shared by the architectural operations.
    // ------------------------------------------------------------------

    #[inline]
    fn set_arb(&mut self, t: CoreId, cause: RevokeCause) {
        if !self.arb[t] {
            self.arb[t] = true;
            self.stats.core(t).record_revoke(cause);
        }
    }

    /// Set the ARB of every hardware thread named in `mask` (tag bits of a
    /// line on physical core `pcore`).
    #[inline]
    fn revoke_mask(&mut self, pcore: usize, mask: u8, cause: RevokeCause) {
        let mut m = mask;
        while m != 0 {
            let h = m.trailing_zeros() as usize;
            m &= m - 1;
            self.set_arb(pcore * self.smt + h, cause);
        }
    }

    /// Kill `holder`'s L1 copy of `line` (directory-initiated). Sets the
    /// ARB of every hyperthread that tagged the copy. Returns the removed
    /// entry's state, if the copy was actually present (stale sharer bits
    /// make no-op invalidations legal).
    fn invalidate_l1_copy(
        &mut self,
        holder: usize,
        line: Line,
        cause: RevokeCause,
    ) -> Option<MsiState> {
        let entry = self.l1s[holder].array.remove(line)?;
        // Structural L1 events are attributed to the core's primary thread.
        self.stats.core(holder * self.smt).invalidations_received += 1;
        self.revoke_mask(holder, entry.payload.tags, cause);
        Some(entry.payload.state)
    }

    /// Insert `line` into physical core `pcore`'s L1 and return its way,
    /// handling the victim: a Modified victim writes back to the L2
    /// (directory drops ownership); an Exclusive victim notifies the
    /// directory (clean drop); a tagged victim sets its taggers' ARBs
    /// (associativity-conflict spurious revoke, paper §III).
    fn l1_insert(&mut self, pcore: usize, line: Line, state: MsiState) -> Way {
        let (way, victim) = self.l1s[pcore].array.insert(line, L1Meta::clean(state));
        if let Some(v) = victim {
            self.revoke_mask(pcore, v.payload.tags, RevokeCause::L1Eviction);
            match v.payload.state {
                MsiState::Modified => {
                    let d = self
                        .l2
                        .lookup_mut(v.line)
                        .expect("inclusion: L1 victim must be resident in L2");
                    debug_assert_eq!(d.owner, Some(pcore), "M victim must be owned");
                    d.owner = None;
                    d.dirty = true;
                }
                MsiState::Exclusive => {
                    // Clean drop, but the directory must forget the owner so
                    // the invariant "owner holds the line" is preserved.
                    let d = self
                        .l2
                        .lookup_mut(v.line)
                        .expect("inclusion: L1 victim must be resident in L2");
                    debug_assert_eq!(d.owner, Some(pcore), "E victim must be owned");
                    d.owner = None;
                }
                MsiState::Shared => {
                    // Silent drop: the directory keeps a (now stale) sharer
                    // bit; later invalidations to it are harmless no-ops.
                }
            }
        }
        way
    }

    /// Ensure `line` is resident in the L2, evicting (and back-invalidating)
    /// an L2 victim if necessary. Returns the cycle cost and the way of the
    /// line's directory entry: the one L2 probe of a miss, which the caller
    /// edits the entry through.
    fn l2_get_or_fill(&mut self, t: CoreId, line: Line) -> (u64, Way) {
        if let Some(way) = self.l2.lookup_touch(line) {
            let c = lat::L2_HIT;
            let s = self.stats.core(t);
            s.l2_hits += 1;
            s.l2_hit_cycles += c;
            return (c, way);
        }
        let fill = lat::L2_HIT + lat::MEM;
        let s = self.stats.core(t);
        s.mem_accesses += 1;
        s.mem_fill_cycles += fill;
        let mut cost = fill;
        // Fill; the inclusive L2 back-invalidates every L1 copy of its victim.
        let (way, victim) = self.l2.insert(line, DirMeta::default());
        if let Some(v) = victim {
            for h in bits(v.payload.holders()) {
                if let Some(state) =
                    self.invalidate_l1_copy(h, v.line, RevokeCause::L2BackInvalidation)
                {
                    if state == MsiState::Modified {
                        // Writeback forwarded to memory along with the victim.
                        cost += lat::DIRTY_SUPPLY;
                    }
                }
            }
        }
        (cost, way)
    }

    /// Account an access served by `t`'s local L1; returns its cost.
    #[inline]
    fn l1_hit(&mut self, t: CoreId) -> u64 {
        let c = lat::L1_HIT;
        let s = self.stats.core(t);
        s.l1_hits += 1;
        s.l1_hit_cycles += c;
        c
    }

    /// Obtain `line` with read permission in the L1 of `t`'s physical core
    /// `pcore` (Shared, or Exclusive when MESI finds no other holder).
    /// Returns the cost and the line's L1 way, found by the access's one L1
    /// probe. The L1-hit check is the only part that inlines into the event
    /// pipeline; everything that involves the directory is
    /// [`Self::acquire_shared_miss`].
    #[inline(always)]
    fn acquire_shared(&mut self, t: CoreId, pcore: usize, line: Line) -> (u64, Way) {
        match self.l1s[pcore].array.lookup_touch(line) {
            Some(way) => (self.l1_hit(t), way),
            None => self.acquire_shared_miss(t, pcore, line),
        }
    }

    /// L1-miss half of [`Self::acquire_shared`]: fill from the L2 (or
    /// memory), downgrade a remote owner, insert into `t`'s L1.
    #[cold]
    #[inline(never)]
    fn acquire_shared_miss(&mut self, t: CoreId, pcore: usize, line: Line) -> (u64, Way) {
        let (mut cost, dir_way) = self.l2_get_or_fill(t, line);
        // The fill's way is the directory entry: it is edited in place while
        // the owner's L1 (a different field) is downgraded, and every
        // directory edit is finished before `l1_insert`, whose victim
        // writeback probes the L2 for another line.
        let d = self.l2.at_mut(dir_way);
        if let Some(o) = d.owner {
            debug_assert_ne!(o, pcore, "owner with an L1 miss is impossible");
            // Downgrade the owner to S: its copy stays valid, tags unaffected.
            let e = self.l1s[o]
                .array
                .lookup_mut(line)
                .expect("directory owner must hold the line");
            let was_modified = e.state == MsiState::Modified;
            debug_assert!(e.state != MsiState::Shared, "owner cannot be S");
            e.state = MsiState::Shared;
            d.owner = None;
            d.add_sharer(o);
            if was_modified {
                // Dirty cache-to-cache supply plus writeback.
                d.dirty = true;
                cost += lat::DIRTY_SUPPLY;
            }
        }
        let way = if self.protocol == Protocol::Mesi && d.holders() == 0 {
            // MESI: sole reader is granted Exclusive.
            d.owner = Some(pcore);
            self.stats.core(t).e_grants += 1;
            self.l1_insert(pcore, line, MsiState::Exclusive)
        } else {
            d.add_sharer(pcore);
            self.l1_insert(pcore, line, MsiState::Shared)
        };
        (cost, way)
    }

    /// Obtain `line` in Modified state in the L1 of `t`'s physical core
    /// `pcore`, invalidating every other copy (setting tagged holders'
    /// ARBs). Returns the cost and the line's L1 way, found by the access's
    /// one L1 probe; a miss goes to [`Self::acquire_exclusive_miss`].
    #[inline(always)]
    fn acquire_exclusive(&mut self, t: CoreId, pcore: usize, line: Line) -> (u64, Way) {
        match self.l1s[pcore].array.lookup_touch(line) {
            Some(way) => (self.make_exclusive(t, pcore, line, way), way),
            None => self.acquire_exclusive_miss(t, pcore, line),
        }
    }

    /// Bring the copy of `line` resident in `way` of `pcore`'s L1 to
    /// Modified. Returns cost. Inline: the states that need no directory
    /// traffic (an M copy, or MESI's silent E→M promotion); a Shared copy
    /// goes to [`Self::upgrade_shared`].
    #[inline(always)]
    fn make_exclusive(&mut self, t: CoreId, pcore: usize, line: Line, way: Way) -> u64 {
        let meta = self.l1s[pcore].array.at_mut(way);
        match meta.state {
            MsiState::Modified => self.l1_hit(t),
            MsiState::Exclusive => {
                // MESI silent promotion: no directory traffic at all.
                meta.state = MsiState::Modified;
                self.stats.core(t).silent_upgrades += 1;
                self.l1_hit(t)
            }
            MsiState::Shared => self.upgrade_shared(t, pcore, line, way),
        }
    }

    /// S→M upgrade of the copy of `line` in `way` of `pcore`'s L1: the
    /// directory invalidates the other sharers.
    #[cold]
    #[inline(never)]
    fn upgrade_shared(&mut self, t: CoreId, pcore: usize, line: Line, way: Way) -> u64 {
        let mut cost = lat::UPGRADE;
        // One directory probe: claim ownership in place, then deliver the
        // invalidations (which only touch the other L1s, ARBs and stats, so
        // `way` still names our copy afterwards).
        let d = self
            .l2
            .lookup_mut(line)
            .expect("inclusion: S line resident in L2");
        debug_assert!(d.owner.is_none(), "S copy cannot coexist with an owner");
        let others = d.sharers & !(1u64 << pcore);
        d.sharers = 0;
        d.owner = Some(pcore);
        if others != 0 {
            let inv = lat::INVALIDATION;
            cost += inv;
            let s = self.stats.core(t);
            s.invalidations_sent += 1;
            s.invalidation_cycles += inv;
            for h in bits(others) {
                self.invalidate_l1_copy(h, line, RevokeCause::RemoteInvalidation);
            }
        }
        debug_assert_eq!(self.l1s[pcore].array.line_at(way), Some(line));
        self.l1s[pcore].array.at_mut(way).state = MsiState::Modified;
        cost
    }

    /// L1-miss half of [`Self::acquire_exclusive`]: fill, claim the line in
    /// the directory, invalidate every previous holder, insert in M.
    #[cold]
    #[inline(never)]
    fn acquire_exclusive_miss(&mut self, t: CoreId, pcore: usize, line: Line) -> (u64, Way) {
        let (mut cost, dir_way) = self.l2_get_or_fill(t, line);
        // Claim the line through the fill's way; the previous holders are
        // snapshot before the edit, and the invalidations below only touch
        // L1s, so a dirty writeback finds the entry in the same way.
        let d = self.l2.at_mut(dir_way);
        let owner = d.owner;
        let others = d.sharers & !(1u64 << pcore);
        d.sharers = 0;
        d.owner = Some(pcore);
        let mut sent = false;
        if let Some(o) = owner {
            debug_assert_ne!(o, pcore);
            let removed = self.invalidate_l1_copy(o, line, RevokeCause::RemoteInvalidation);
            if removed == Some(MsiState::Modified) {
                self.l2.at_mut(dir_way).dirty = true;
                cost += lat::DIRTY_SUPPLY;
            }
            sent = true;
        }
        if others != 0 {
            cost += lat::INVALIDATION;
            self.stats.core(t).invalidation_cycles += lat::INVALIDATION;
            sent = true;
            for h in bits(others) {
                self.invalidate_l1_copy(h, line, RevokeCause::RemoteInvalidation);
            }
        }
        if sent {
            self.stats.core(t).invalidations_sent += 1;
        }
        (cost, self.l1_insert(pcore, line, MsiState::Modified))
    }

    /// Apply the paper's SMT rule (§III): after hyperthread `ht` of `pcore`
    /// stores to the line in `way` of its L1, every *sibling* hyperthread
    /// whose tag bit is set on that line has its ARB set. No coherence
    /// traffic is involved — the modification is visible inside the shared
    /// L1.
    #[inline]
    fn revoke_siblings_on_store(&mut self, pcore: usize, ht: usize, way: Way) {
        if self.smt == 1 {
            return;
        }
        let mask = self.l1s[pcore].array.at(way).tags & !(1u8 << ht);
        self.revoke_mask(pcore, mask, RevokeCause::SiblingWrite);
    }

    // ------------------------------------------------------------------
    // Architectural operations (called via the machine, which performs the
    // allocator validity checks before letting data reach the program).
    // The plain and conditional accesses are `#[inline]` so the event
    // pipeline's L1-hit path stays one straight-line body.
    // ------------------------------------------------------------------

    /// Plain load.
    #[inline(always)]
    pub fn read(&mut self, t: CoreId, a: Addr) -> (u64, u64) {
        self.assert_outside_tx(t, "read");
        self.stats.core(t).accesses += 1;
        let (cost, _) = self.acquire_shared(t, self.pc(t), a.line());
        (self.mem.read(a), cost)
    }

    /// Plain store.
    #[inline(always)]
    pub fn write(&mut self, t: CoreId, a: Addr, v: u64) -> u64 {
        self.assert_outside_tx(t, "write");
        self.stats.core(t).accesses += 1;
        let (pcore, ht) = self.place(t);
        let (cost, way) = self.acquire_exclusive(t, pcore, a.line());
        self.revoke_siblings_on_store(pcore, ht, way);
        self.mem.write(a, v);
        cost
    }

    /// Compare-and-swap. Returns `Ok(expected)` on success or `Err(actual)`
    /// on failure, plus the cost. Acquires exclusive ownership either way
    /// (as real CAS instructions do); sibling tags are only revoked when the
    /// value is actually modified.
    #[inline]
    pub fn cas(&mut self, t: CoreId, a: Addr, expected: u64, new: u64) -> (Result<u64, u64>, u64) {
        self.assert_outside_tx(t, "cas");
        let s = self.stats.core(t);
        s.accesses += 1;
        s.cas_ops += 1;
        let (pcore, ht) = self.place(t);
        let (cost, way) = self.acquire_exclusive(t, pcore, a.line());
        let cost = cost + lat::CAS_EXTRA;
        let cur = self.mem.read(a);
        if cur == expected {
            self.revoke_siblings_on_store(pcore, ht, way);
            self.mem.write(a, new);
            (Ok(expected), cost)
        } else {
            self.stats.core(t).cas_failures += 1;
            (Err(cur), cost)
        }
    }

    /// Memory fence (latency only; the simulator is sequentially consistent).
    #[inline(always)]
    pub fn fence(&mut self, t: CoreId) -> u64 {
        self.assert_outside_tx(t, "fence");
        self.stats.core(t).fences += 1;
        lat::FENCE
    }

    /// `cread` (paper §II-B): fail fast if the ARB is set; otherwise load
    /// with read permission, tag the line, and re-check the ARB — the fill
    /// itself may have evicted a tagged victim, which conservatively fails
    /// this cread too (honours Claim 4: success implies no tagged line was
    /// invalidated since it was tagged).
    #[inline(always)]
    pub fn cread(&mut self, t: CoreId, a: Addr) -> (Option<u64>, u64) {
        self.assert_outside_tx(t, "cread");
        self.stats.core(t).accesses += 1;
        if self.arb[t] {
            self.stats.core(t).cread_fail += 1;
            return (None, lat::CA_FAIL);
        }
        let (pcore, ht) = self.place(t);
        let (cost, way) = self.acquire_shared(t, pcore, a.line());
        self.l1s[pcore].tag_way(way, ht);
        if self.arb[t] {
            self.stats.core(t).cread_fail += 1;
            return (None, cost + lat::CA_FAIL);
        }
        self.stats.core(t).cread_ok += 1;
        (Some(self.mem.read(a)), cost + lat::CA_CHECK)
    }

    /// `cwrite` (paper §II-B): fails if the ARB is set **or the target line
    /// is not tagged by this hardware thread** (the must-cread-first rule
    /// that avoids TOCTOU on a cold store). On success the store goes
    /// through the normal exclusive path, invalidating remote copies (and
    /// revoking their tags) and revoking sibling hyperthreads' tags.
    #[inline]
    pub fn cwrite(&mut self, t: CoreId, a: Addr, v: u64) -> (bool, u64) {
        self.assert_outside_tx(t, "cwrite");
        self.stats.core(t).accesses += 1;
        let (pcore, ht) = self.place(t);
        // One probe answers "tagged by me?" and names the way the store
        // then upgrades: a tagged line is a resident line.
        let l1 = &mut self.l1s[pcore].array;
        let tagged = l1
            .probe(a.line())
            .filter(|&way| l1.at(way).tags & (1u8 << ht) != 0);
        let way = match tagged {
            Some(way) if !self.arb[t] => way,
            _ => {
                self.stats.core(t).cwrite_fail += 1;
                return (false, lat::CA_FAIL);
            }
        };
        l1.touch(way);
        let cost = self.make_exclusive(t, pcore, a.line(), way);
        debug_assert!(
            !self.arb[t],
            "upgrading a resident line cannot revoke the writer's own tags"
        );
        self.revoke_siblings_on_store(pcore, ht, way);
        self.mem.write(a, v);
        self.stats.core(t).cwrite_ok += 1;
        (true, cost + lat::CA_CHECK)
    }

    /// `untagOne`: drop one line from the calling hardware thread's tag set.
    /// No memory access.
    #[inline(always)]
    pub fn untag_one(&mut self, t: CoreId, a: Addr) -> u64 {
        self.assert_outside_tx(t, "untag_one");
        self.stats.core(t).untag_ones += 1;
        let (pcore, ht) = self.place(t);
        self.l1s[pcore].clear_tag(a.line(), ht);
        1
    }

    /// `untagAll`: clear the calling hardware thread's tag set and its ARB.
    pub fn untag_all(&mut self, t: CoreId) -> u64 {
        self.assert_outside_tx(t, "untag_all");
        self.stats.core(t).untag_alls += 1;
        let (pcore, ht) = self.place(t);
        self.l1s[pcore].clear_all_tags(ht);
        self.arb[t] = false;
        1
    }

    /// Is hardware thread `t`'s access-revoked bit set? (Introspection; the
    /// paper's ISA exposes this only through cread/cwrite failure flags.)
    pub fn arb(&self, t: CoreId) -> bool {
        self.arb[t]
    }

    /// Model an OS context switch on hardware thread `t` (paper §III): the
    /// ARB is set unconditionally — the kernel does not track invalidations
    /// for switched-out threads — so the thread's next conditional access
    /// fails and its operation restarts. An in-flight hardware transaction
    /// is aborted, as on every commercial HTM.
    pub fn preempt(&mut self, t: CoreId) {
        self.stats.core(t).ctx_switches += 1;
        if self.tx[t].active {
            self.tx_rollback(t);
        }
        self.set_arb(t, RevokeCause::ContextSwitch);
    }

    // ------------------------------------------------------------------
    // HTM comparator (paper §VI, Zhou et al.): short hardware transactions
    // with a read set tracked by the same per-line tag bits CA uses —
    // demonstrating the paper's claim that CA's hardware is "a strict subset
    // of that needed to implement HTM" — plus a lazy write buffer that CA
    // does not need at all.
    // ------------------------------------------------------------------

    /// Begin a transaction on hardware thread `t`. Panics on nesting.
    pub fn tx_begin(&mut self, t: CoreId) -> u64 {
        assert!(!self.tx[t].active, "nested transactions are not supported");
        debug_assert!(self.tx[t].writes.is_empty());
        self.tx[t].active = true;
        // Start from a clean conflict-tracking state.
        let (pcore, ht) = self.place(t);
        self.l1s[pcore].clear_all_tags(ht);
        self.arb[t] = false;
        self.stats.core(t).tx_begins += 1;
        lat::TX_BEGIN
    }

    /// Is a transaction in flight on `t`?
    pub fn tx_active(&self, t: CoreId) -> bool {
        self.tx[t].active
    }

    /// Discard all speculative state of `t` (abort path).
    fn tx_rollback(&mut self, t: CoreId) {
        let (pcore, ht) = self.place(t);
        self.l1s[pcore].clear_all_tags(ht);
        self.arb[t] = false;
        self.tx[t].writes.clear();
        self.tx[t].active = false;
        self.stats.core(t).tx_aborts += 1;
    }

    /// Speculative load: joins the read set (tags the line). Returns `None`
    /// — and **aborts the transaction** — if a conflict was detected.
    /// Reads-own-writes from the speculative buffer.
    pub fn tx_read(&mut self, t: CoreId, a: Addr) -> (Option<u64>, u64) {
        assert!(self.tx[t].active, "tx_read outside a transaction");
        self.stats.core(t).accesses += 1;
        if self.arb[t] {
            self.tx_rollback(t);
            return (None, lat::TX_ABORT);
        }
        let (pcore, ht) = self.place(t);
        let (cost, way) = self.acquire_shared(t, pcore, a.line());
        self.l1s[pcore].tag_way(way, ht);
        if self.arb[t] {
            // The fill evicted part of our own read set: capacity abort.
            self.tx_rollback(t);
            return (None, cost + lat::TX_ABORT);
        }
        let v = self.tx[t]
            .writes
            .iter()
            .rev()
            .find(|(wa, _)| *wa == a)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| self.mem.read(a));
        (Some(v), cost)
    }

    /// Speculative store: buffered until commit (lazy versioning); the
    /// target line joins the read set for conflict detection. Returns
    /// `false` — and aborts — on conflict.
    pub fn tx_write(&mut self, t: CoreId, a: Addr, v: u64) -> (bool, u64) {
        assert!(self.tx[t].active, "tx_write outside a transaction");
        self.stats.core(t).accesses += 1;
        if self.arb[t] {
            self.tx_rollback(t);
            return (false, lat::TX_ABORT);
        }
        let (pcore, ht) = self.place(t);
        let (cost, way) = self.acquire_shared(t, pcore, a.line());
        self.l1s[pcore].tag_way(way, ht);
        if self.arb[t] {
            self.tx_rollback(t);
            return (false, cost + lat::TX_ABORT);
        }
        self.tx[t].writes.push((a, v));
        (true, cost)
    }

    /// First half of commit: validate the read set. On success, hands the
    /// buffered writes to the caller (the machine layer validates them
    /// against the allocator before [`Self::tx_commit_apply`] makes them
    /// visible). On conflict the transaction is rolled back and `None` is
    /// returned, with the abort cost.
    pub fn tx_commit_begin(&mut self, t: CoreId) -> (Option<Vec<(Addr, u64)>>, u64) {
        assert!(self.tx[t].active, "tx_commit outside a transaction");
        if self.arb[t] {
            self.tx_rollback(t);
            return (None, lat::TX_ABORT);
        }
        (Some(std::mem::take(&mut self.tx[t].writes)), 0)
    }

    /// Second half of commit: atomically publish the buffered writes (the
    /// whole commit is one machine event), invalidating remote copies and
    /// revoking their tags, then dissolve the transaction.
    pub fn tx_commit_apply(&mut self, t: CoreId, writes: &[(Addr, u64)]) -> u64 {
        let mut cost = lat::TX_COMMIT;
        let (pcore, ht) = self.place(t);
        for &(a, v) in writes {
            let (c, way) = self.acquire_exclusive(t, pcore, a.line());
            cost += c;
            self.revoke_siblings_on_store(pcore, ht, way);
            self.mem.write(a, v);
        }
        self.l1s[pcore].clear_all_tags(ht);
        self.arb[t] = false;
        self.tx[t].active = false;
        self.stats.core(t).tx_commits += 1;
        cost
    }

    /// Explicit abort (e.g. a validation inside the transaction failed).
    pub fn tx_abort(&mut self, t: CoreId) -> u64 {
        assert!(self.tx[t].active, "tx_abort outside a transaction");
        self.tx_rollback(t);
        lat::TX_ABORT
    }

    /// Host-side (zero-cost, non-coherent) read for checkers and debuggers.
    pub fn host_read(&self, a: Addr) -> u64 {
        self.mem.read(a)
    }

    /// Host-side write for test setup. Bypasses coherence: only use on
    /// locations no core has cached, or in single-threaded test scaffolding.
    pub fn host_write(&mut self, a: Addr, v: u64) {
        self.mem.write(a, v);
    }

    /// Check the structural invariants of the hierarchy. Panics with a
    /// description on violation. Used by tests and property tests.
    pub fn check_invariants(&self) {
        for (c, l1) in self.l1s.iter().enumerate() {
            for e in l1.array.iter() {
                let d = self
                    .l2
                    .lookup(e.line)
                    .unwrap_or_else(|| {
                        panic!(
                            "inclusion violated: core {c} holds {:?} absent from L2",
                            e.line
                        )
                    })
                    .payload;
                match e.payload.state {
                    MsiState::Modified | MsiState::Exclusive => {
                        assert_eq!(
                            d.owner,
                            Some(c),
                            "core {c} holds {:?} in {:?} but directory owner is {:?}",
                            e.line,
                            e.payload.state,
                            d.owner
                        );
                        assert_eq!(d.sharers, 0, "owned line {:?} has sharer bits", e.line);
                    }
                    MsiState::Shared => {
                        assert!(
                            d.owner.is_none(),
                            "S copy of {:?} coexists with owner",
                            e.line
                        );
                        assert!(
                            d.sharers & (1 << c) != 0,
                            "core {c} holds {:?} in S but is not in the sharer set",
                            e.line
                        );
                    }
                }
                if self.protocol == Protocol::Msi {
                    assert_ne!(
                        e.payload.state,
                        MsiState::Exclusive,
                        "MSI must never enter the Exclusive state"
                    );
                }
            }
        }
        for entry in self.l2.iter() {
            let d = entry.payload;
            if let Some(o) = d.owner {
                assert_eq!(
                    d.sharers, 0,
                    "owner and sharers coexist on {:?}",
                    entry.line
                );
                let e = self.l1s[o].array.lookup(entry.line).unwrap_or_else(|| {
                    panic!("directory owner {o} does not hold {:?}", entry.line)
                });
                assert!(
                    matches!(e.payload.state, MsiState::Modified | MsiState::Exclusive),
                    "owner copy of {:?} is {:?}",
                    entry.line,
                    e.payload.state
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(cores: usize) -> CoherenceHub {
        CoherenceHub::new(cores, 1, &CacheConfig::default(), 1 << 20)
    }

    fn mesi_hub(cores: usize) -> CoherenceHub {
        CoherenceHub::new(
            cores,
            1,
            &CacheConfig {
                protocol: Protocol::Mesi,
                ..CacheConfig::default()
            },
            1 << 20,
        )
    }

    /// `threads` hardware threads packed 2 per physical core.
    fn smt_hub(threads: usize) -> CoherenceHub {
        CoherenceHub::new(threads, 2, &CacheConfig::default(), 1 << 20)
    }

    /// A tiny hierarchy that makes evictions easy to provoke:
    /// direct-mapped 4-line L1s, 8-line L2.
    fn tiny(cores: usize) -> CoherenceHub {
        CoherenceHub::new(
            cores,
            1,
            &CacheConfig {
                l1_bytes: 256,
                l1_assoc: 1,
                l2_bytes: 512,
                l2_assoc: 2,
                protocol: Protocol::Msi,
            },
            1 << 20,
        )
    }

    const A: Addr = Addr(0x1000);
    const B: Addr = Addr(0x2000);

    #[test]
    fn read_miss_then_hit() {
        let mut h = hub(2);
        let (_, cost) = h.read(0, A);
        assert_eq!(cost, lat::L2_HIT + lat::MEM, "cold miss goes to memory");
        let (_, cost) = h.read(0, A);
        assert_eq!(cost, lat::L1_HIT, "second read hits L1");
        h.check_invariants();
    }

    #[test]
    fn write_then_remote_read_downgrades() {
        let mut h = hub(2);
        h.write(0, A, 42);
        let (v, cost) = h.read(1, A);
        assert_eq!(v, 42);
        assert!(cost >= lat::DIRTY_SUPPLY, "dirty supply must be charged");
        // Core 0 downgraded to S, not invalidated.
        assert_eq!(
            h.l1s[0].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Shared
        );
        assert!(!h.arb(0));
        h.check_invariants();
    }

    #[test]
    fn remote_write_invalidates_sharer() {
        let mut h = hub(2);
        h.read(0, A);
        h.read(1, A);
        h.write(1, A, 9);
        assert!(
            h.l1s[0].array.lookup(A.line()).is_none(),
            "core 0 invalidated"
        );
        assert_eq!(h.stats.core(0).invalidations_received, 1);
        assert_eq!(h.stats.core(1).invalidations_sent, 1);
        assert!(!h.arb(0), "untagged line: no revoke");
        h.check_invariants();
    }

    #[test]
    fn remote_write_revokes_tagged_line() {
        let mut h = hub(2);
        let (v, _) = h.cread(0, A);
        assert_eq!(v, Some(0));
        h.write(1, A, 5);
        assert!(h.arb(0), "invalidating a tagged line sets the ARB");
        assert_eq!(h.stats.core(0).revoke_remote, 1);
        // Subsequent cread fails without touching memory.
        let (v, cost) = h.cread(0, A);
        assert_eq!(v, None);
        assert_eq!(cost, lat::CA_FAIL);
        assert_eq!(h.stats.core(0).cread_fail, 1);
        h.check_invariants();
    }

    #[test]
    fn remote_read_does_not_revoke() {
        let mut h = hub(2);
        h.cread(0, A);
        h.read(1, A); // S sharing is fine
        assert!(!h.arb(0));
        let (v, _) = h.cread(0, A);
        assert!(v.is_some(), "reads by others never fail creads");
    }

    #[test]
    fn own_downgrade_does_not_revoke() {
        // Core 0 creads (tags) a line it later holds in M via cwrite;
        // core 1's *read* downgrades it — tag must survive.
        let mut h = hub(2);
        h.cread(0, A);
        assert!(h.cwrite(0, A, 3).0);
        h.read(1, A);
        assert!(!h.arb(0), "M→S downgrade keeps the tag valid");
        assert!(h.l1s[0].is_tagged(A.line(), 0));
        let (v, _) = h.cread(0, A);
        assert_eq!(v, Some(3));
    }

    #[test]
    fn cwrite_requires_prior_tag() {
        let mut h = hub(2);
        h.read(0, A); // plain read does not tag
        let (ok, cost) = h.cwrite(0, A, 1);
        assert!(!ok, "cwrite without cread must fail (TOCTOU rule)");
        assert_eq!(cost, lat::CA_FAIL);
        assert_eq!(h.stats.core(0).cwrite_fail, 1);
        // After a cread it succeeds.
        h.cread(0, A);
        assert!(h.cwrite(0, A, 1).0);
        assert_eq!(h.host_read(A), 1);
    }

    #[test]
    fn cwrite_fails_after_remote_write() {
        let mut h = hub(2);
        h.cread(0, A);
        h.cread(1, A);
        // Core 1 cwrites first; core 0's tag is revoked.
        assert!(h.cwrite(1, A, 7).0);
        assert!(h.arb(0));
        assert!(!h.cwrite(0, A, 8).0, "loser must fail");
        assert_eq!(h.host_read(A), 7);
    }

    #[test]
    fn untag_all_resets() {
        let mut h = hub(2);
        h.cread(0, A);
        h.write(1, A, 1);
        assert!(h.arb(0));
        h.untag_all(0);
        assert!(!h.arb(0));
        let (v, _) = h.cread(0, A);
        assert_eq!(v, Some(1), "after untagAll creads work again");
    }

    #[test]
    fn untag_one_stops_tracking() {
        let mut h = hub(2);
        h.cread(0, A);
        h.cread(0, B);
        h.untag_one(0, A);
        h.write(1, A, 1); // A is no longer tagged at core 0
        assert!(!h.arb(0), "untagged line invalidation must not revoke");
        h.write(1, B, 2); // B is still tagged
        assert!(h.arb(0));
    }

    #[test]
    fn l1_conflict_eviction_sets_own_arb() {
        let mut h = tiny(1);
        // Direct-mapped 4-line L1: lines 0 and 4 conflict.
        let a = Line(0).base();
        let conflicting = Line(4).base();
        h.cread(0, a);
        assert!(h.l1s[0].is_tagged(a.line(), 0));
        let (v, _) = h.cread(0, conflicting);
        // The fill evicted the tagged line → ARB set → this cread fails.
        assert_eq!(v, None, "fill that evicts a tagged line fails the cread");
        assert!(h.arb(0));
        assert_eq!(h.stats.core(0).revoke_l1_evict, 1);
        assert_eq!(h.stats.core(0).spurious_revokes(), 1);
    }

    #[test]
    fn plain_read_conflict_eviction_also_revokes() {
        let mut h = tiny(1);
        let a = Line(0).base();
        let conflicting = Line(4).base();
        h.cread(0, a);
        h.read(0, conflicting); // plain read still evicts the tagged victim
        assert!(h.arb(0));
        let (v, _) = h.cread(0, a);
        assert_eq!(v, None);
    }

    #[test]
    fn l2_back_invalidation_revokes() {
        let mut h = tiny(2);
        // L2: 2-way, 4 sets (8 lines). Lines 0, 4, 8 share L2 set 0.
        let a = Line(0).base();
        h.cread(0, a);
        // Core 1 streams lines that conflict in L2 set 0 until `a` is evicted
        // from the L2, which must back-invalidate core 0's tagged copy.
        h.read(1, Line(4).base());
        h.read(1, Line(8).base());
        assert!(h.arb(0), "inclusive L2 eviction revokes the tag");
        assert_eq!(h.stats.core(0).revoke_l2_evict, 1);
        h.check_invariants();
    }

    #[test]
    fn cas_success_and_failure() {
        let mut h = hub(2);
        h.write(0, A, 10);
        let (r, _) = h.cas(1, A, 10, 20);
        assert_eq!(r, Ok(10));
        assert_eq!(h.host_read(A), 20);
        let (r, _) = h.cas(0, A, 10, 30);
        assert_eq!(r, Err(20));
        assert_eq!(h.host_read(A), 20);
        assert_eq!(h.stats.core(0).cas_failures, 1);
        h.check_invariants();
    }

    #[test]
    fn cas_invalidates_tagged_readers() {
        let mut h = hub(2);
        h.cread(0, A);
        let (r, _) = h.cas(1, A, 0, 1);
        assert!(r.is_ok());
        assert!(h.arb(0), "CAS is a write for coherence purposes");
    }

    #[test]
    fn write_upgrade_cheaper_than_cold_write() {
        let mut h = hub(2);
        h.read(0, A);
        let up = h.write(0, A, 1); // S→M upgrade, no other sharers
        let mut h2 = hub(2);
        let cold = h2.write(0, A, 1); // I→M from memory
        assert!(
            up < cold,
            "upgrade {up} must be cheaper than cold write {cold}"
        );
    }

    #[test]
    fn failed_cread_is_cheap() {
        let mut h = hub(2);
        h.cread(0, A);
        h.write(1, A, 1);
        let (_, fail_cost) = h.cread(0, A);
        let mut h2 = hub(2);
        h2.read(0, A);
        h2.write(1, A, 1);
        let (_, miss_cost) = h2.read(0, A);
        assert!(
            fail_cost < miss_cost,
            "failed cread ({fail_cost}) must be far cheaper than the coherence \
             miss a plain re-read pays ({miss_cost}) — this is CA's §V advantage"
        );
    }

    #[test]
    fn sharer_bits_conservative_after_silent_eviction() {
        let mut h = tiny(2);
        let a = Line(0).base();
        h.read(0, a);
        h.read(1, a);
        // Core 0 silently evicts `a` by conflict.
        h.read(0, Line(4).base());
        assert!(h.l1s[0].array.lookup(a.line()).is_none());
        // Core 1 writes: the stale invalidation to core 0 must be harmless.
        h.write(1, a, 5);
        assert!(!h.arb(0));
        h.check_invariants();
    }

    #[test]
    fn stats_hit_levels() {
        let mut h = hub(1);
        h.read(0, A); // mem
        h.read(0, A); // l1
        h.read(0, Addr(0x1008)); // same line: l1
        let s = &h.stats.cores[0];
        assert_eq!(s.mem_accesses, 1);
        assert_eq!(s.l1_hits, 2);
        assert_eq!(s.accesses, 3);
    }

    #[test]
    fn event_cost_micro_profile_pinned() {
        // A tiny scripted workload whose per-path counts AND cycle
        // attribution are pinned exactly (relative to the cost table, so
        // retuning a constant does not break it). Any change to a coherence
        // hot path's cost accounting fails here, in CI, instead of
        // surfacing as unexplained end-to-end wall-clock or throughput
        // drift.
        let mut h = hub(2);
        h.read(0, A); // core 0: cold fill from memory
        h.read(0, A); // core 0: L1 hit
        h.read(1, A); // core 1: L2 hit, joins sharers
        h.write(1, A, 1); // core 1: S→M upgrade, invalidates core 0
        let (v, _) = h.cread(0, A); // core 0: refill, L2 hit + dirty supply
        assert_eq!(v, Some(1));
        h.untag_all(0);
        h.untag_one(0, A);
        h.write(0, A, 2); // core 0: S→M upgrade, invalidates core 1

        let s0 = &h.stats.cores[0];
        assert_eq!(
            (s0.accesses, s0.l1_hits, s0.l2_hits, s0.mem_accesses),
            (4, 1, 1, 1)
        );
        assert_eq!(s0.l1_hit_cycles, lat::L1_HIT);
        assert_eq!(s0.l2_hit_cycles, lat::L2_HIT);
        assert_eq!(s0.mem_fill_cycles, lat::L2_HIT + lat::MEM);
        assert_eq!(s0.invalidation_cycles, lat::INVALIDATION);
        assert_eq!(s0.invalidations_sent, 1);
        assert_eq!(s0.invalidations_received, 1);
        assert_eq!((s0.untag_alls, s0.untag_ones), (1, 1));

        let s1 = &h.stats.cores[1];
        assert_eq!(
            (s1.accesses, s1.l1_hits, s1.l2_hits, s1.mem_accesses),
            (2, 0, 1, 0)
        );
        assert_eq!(s1.l1_hit_cycles, 0);
        assert_eq!(s1.l2_hit_cycles, lat::L2_HIT);
        assert_eq!(s1.mem_fill_cycles, 0);
        assert_eq!(s1.invalidation_cycles, lat::INVALIDATION);
        assert_eq!(s1.invalidations_sent, 1);
        assert_eq!((s1.untag_alls, s1.untag_ones), (0, 0));
        h.check_invariants();
    }

    #[test]
    fn many_cores_invalidation_fanout() {
        let mut h = hub(8);
        for c in 0..8 {
            h.read(c, A);
        }
        h.write(0, A, 1);
        for c in 1..8 {
            assert!(h.l1s[c].array.lookup(A.line()).is_none(), "core {c}");
            assert_eq!(h.stats.core(c).invalidations_received, 1);
        }
        h.check_invariants();
    }

    #[test]
    fn placement_table_is_div_and_mod_by_smt() {
        for smt in 1..=8 {
            for pcores in [1, 2, 3, 7, 64] {
                let threads = pcores * smt;
                let h = CoherenceHub::new(threads, smt, &CacheConfig::default(), 1 << 12);
                for t in 0..threads {
                    assert_eq!(h.place(t), (t / smt, t % smt), "smt {smt}, thread {t}");
                    assert_eq!(h.pc(t), t / smt);
                }
            }
        }
    }

    /// Probes of `cache` made by `op`.
    fn probes<P, R>(
        h: &mut CoherenceHub,
        cache: fn(&CoherenceHub) -> &SetAssoc<P>,
        op: impl FnOnce(&mut CoherenceHub) -> R,
    ) -> u64 {
        let before = cache(h).probes.get();
        op(h);
        cache(h).probes.get() - before
    }

    #[test]
    fn one_l1_probe_per_access() {
        // Warmed: core 0 holds A in M and tagged, so every access below is
        // an L1 hit. Each must find its way once and carry it through the
        // LRU touch, the tag edit, the state check and the sibling mask.
        let l1: fn(&CoherenceHub) -> &SetAssoc<L1Meta> = |h| &h.l1s[0].array;
        for mut h in [hub(2), mesi_hub(2), smt_hub(4)] {
            h.cread(0, A);
            h.cwrite(0, A, 1);
            assert_eq!(probes(&mut h, l1, |h| h.read(0, A)), 1, "read");
            assert_eq!(probes(&mut h, l1, |h| h.write(0, A, 2)), 1, "write");
            assert_eq!(probes(&mut h, l1, |h| h.cas(0, A, 2, 3)), 1, "cas");
            assert_eq!(probes(&mut h, l1, |h| h.cread(0, A)), 1, "cread");
            assert_eq!(
                probes(&mut h, l1, |h| assert!(h.cwrite(0, A, 4).0)),
                1,
                "cwrite"
            );
            assert_eq!(probes(&mut h, l1, |h| h.untag_one(0, A)), 1, "untag_one");
            assert_eq!(
                probes(&mut h, l1, |h| assert!(!h.cwrite(0, A, 5).0)),
                1,
                "untagged cwrite"
            );
            assert_eq!(probes(&mut h, l1, |h| h.untag_all(0)), 0, "untag_all");
        }
    }

    #[test]
    fn one_probe_per_level_per_miss() {
        let l1: fn(&CoherenceHub) -> &SetAssoc<L1Meta> = |h| &h.l1s[1].array;
        let l2: fn(&CoherenceHub) -> &SetAssoc<DirMeta> = |h| &h.l2;
        for mk in [hub as fn(usize) -> CoherenceHub, mesi_hub] {
            // Read miss served by the L2, the owner downgraded on the way.
            let mut h = mk(2);
            h.write(0, A, 1);
            assert_eq!(probes(&mut h, l2, |h| h.read(1, A)), 1, "read miss, L2");
            // S→M upgrade: the copy's way is carried, the directory found once.
            assert_eq!(probes(&mut h, l1, |h| h.write(1, A, 2)), 1, "upgrade, L1");
            h.read(0, A);
            assert_eq!(probes(&mut h, l2, |h| h.write(1, A, 3)), 1, "upgrade, L2");
            // Write miss that invalidates a Modified owner: its dirty bit
            // lands through the way the fill found.
            assert_eq!(
                probes(&mut h, l2, |h| h.write(0, A, 4)),
                1,
                "write miss, L2"
            );
            // Cold misses (the L2 fills from memory), conditional or not.
            assert_eq!(
                probes(&mut h, l2, |h| h.cread(1, B)),
                1,
                "cread cold miss, L2"
            );
            let mut h = mk(2);
            assert_eq!(
                probes(&mut h, l1, |h| h.cread(1, B)),
                1,
                "cread cold miss, L1"
            );
            assert_eq!(
                probes(&mut h, l1, |h| h.cas(1, A, 0, 1)),
                1,
                "cas cold miss, L1"
            );
        }
    }

    // --- scripted workload pin --------------------------------------------

    type ScriptOutcome = (Vec<crate::stats::CoreStats>, Vec<bool>, Vec<u64>, u64);

    /// What is resident where after a scripted run, in an order that does
    /// not depend on way placement: per L1 the sorted `(line, lru, state,
    /// tags)`, and the L2's sorted `(line, lru, sharers, owner, dirty)`.
    type Residency = (
        Vec<Vec<(u64, u64, MsiState, u8)>>,
        Vec<(u64, u64, u64, Option<CoreId>, bool)>,
    );

    /// 4 hardware threads over 256 B direct-mapped L1s and a 1 KiB 2-way L2
    /// driving 4000 LCG-chosen `read`/`write`/`cread`/`cwrite`/`untag_all`
    /// steps over 64 lines: misses, upgrades, downgrades, L1 evictions and
    /// L2 back-invalidations all occur. Returns per-thread stats, ARBs, the
    /// 64 memory words and the summed cost, plus the final cache contents.
    fn scripted_run(protocol: Protocol, smt: usize) -> (ScriptOutcome, Residency) {
        let mut h = CoherenceHub::new(
            4,
            smt,
            &CacheConfig {
                l1_bytes: 256,
                l1_assoc: 1,
                l2_bytes: 1024,
                l2_assoc: 2,
                protocol,
            },
            1 << 20,
        );
        let mut lcg: u64 = 0xDEADBEEF;
        let mut step = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut costs = 0u64;
        for _ in 0..4000 {
            let c = (step() % 4) as usize;
            let a = Line(step() % 64).base();
            match step() % 5 {
                0 => costs += h.read(c, a).1,
                1 => costs += h.write(c, a, step()),
                2 => costs += h.cread(c, a).1,
                3 => costs += h.cwrite(c, a, step()).1,
                _ => costs += h.untag_all(c),
            }
        }
        h.check_invariants();
        let words: Vec<u64> = (0..64).map(|l| h.host_read(Line(l).base())).collect();
        let mut l1s: Vec<Vec<_>> = h
            .l1s
            .iter()
            .map(|l1| {
                l1.array
                    .iter()
                    .map(|e| (e.line.0, e.lru, e.payload.state, e.payload.tags))
                    .collect()
            })
            .collect();
        l1s.iter_mut()
            .for_each(|l1| l1.sort_unstable_by_key(|e| e.0));
        let mut l2: Vec<_> =
            h.l2.iter()
                .map(|e| {
                    let d = e.payload;
                    (e.line.0, e.lru, d.sharers, d.owner, d.dirty)
                })
                .collect();
        l2.sort_unstable_by_key(|e| e.0);
        (
            (h.stats.cores.clone(), h.arb.clone(), words, costs),
            (l1s, l2),
        )
    }

    /// FNV-1a over a value's `Debug` rendering.
    fn digest(v: &impl std::fmt::Debug) -> u64 {
        format!("{v:?}").bytes().fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn scripted_hub_workload_is_pinned() {
        // Any change to a coherence transition, a latency charge, the LRU
        // order or a revoke rule moves one of these digests; a refactor of
        // the hub must leave every one untouched. The first digest covers
        // what the program and the stats can see; the second the final
        // cache contents (lines, LRU stamps, states, tag masks, directory
        // entries), so a wrong victim cannot hide behind equal stats. The
        // `smt > 1` rows cover the sibling-tag and core-placement paths.
        let mut moved = Vec::new();
        for (protocol, smt, pinned, pinned_residency) in [
            (
                Protocol::Msi,
                1,
                0x5c532ca4c3f3e2b1u64,
                0x65499206603271a3u64,
            ),
            (Protocol::Mesi, 1, 0xdc6d6730e84bd14b, 0x230942eb922bebcd),
            (Protocol::Msi, 2, 0xc5aae966b804557f, 0xbe82f3bd6dfeb212),
            (Protocol::Mesi, 2, 0xc49c163e616f0198, 0x12891d3551e007a7),
            (Protocol::Msi, 4, 0xdd66422049e67638, 0xb91f170f1ecb6010),
        ] {
            let (outcome, residency) = scripted_run(protocol, smt);
            let got = (digest(&outcome), digest(&residency));
            if got != (pinned, pinned_residency) {
                moved.push(format!(
                    "({protocol:?}, {smt}, {:#018x}, {:#018x})",
                    got.0, got.1
                ));
            }
        }
        assert!(
            moved.is_empty(),
            "scripted hub outcome changed; now:\n{}",
            moved.join("\n")
        );
    }

    // --- MESI -----------------------------------------------------------

    #[test]
    fn mesi_sole_reader_gets_exclusive() {
        let mut h = mesi_hub(2);
        h.read(0, A);
        assert_eq!(
            h.l1s[0].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Exclusive
        );
        assert_eq!(h.stats.core(0).e_grants, 1);
        h.check_invariants();
    }

    #[test]
    fn msi_never_grants_exclusive() {
        let mut h = hub(2);
        h.read(0, A);
        assert_eq!(
            h.l1s[0].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Shared
        );
        assert_eq!(h.stats.core(0).e_grants, 0);
    }

    #[test]
    fn mesi_silent_upgrade_is_an_l1_hit() {
        let mut h = mesi_hub(2);
        h.read(0, A); // E
        let cost = h.write(0, A, 1); // silent E→M
        assert_eq!(cost, lat::L1_HIT, "E→M promotion must cost an L1 hit");
        assert_eq!(h.stats.core(0).silent_upgrades, 1);
        assert_eq!(
            h.l1s[0].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Modified
        );
        h.check_invariants();

        // Under MSI the same sequence pays an upgrade round trip.
        let mut h2 = hub(2);
        h2.read(0, A);
        let msi_cost = h2.write(0, A, 1);
        assert!(msi_cost > lat::L1_HIT, "MSI upgrade is not silent");
    }

    #[test]
    fn mesi_second_reader_downgrades_exclusive_cleanly() {
        let mut h = mesi_hub(2);
        h.read(0, A); // E at core 0
        let (v, cost) = h.read(1, A);
        assert_eq!(v, 0);
        assert!(
            cost < lat::L2_HIT + lat::MEM + lat::DIRTY_SUPPLY,
            "clean E downgrade must not charge a dirty supply"
        );
        assert_eq!(
            h.l1s[0].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Shared
        );
        assert_eq!(
            h.l1s[1].array.lookup(A.line()).unwrap().payload.state,
            MsiState::Shared
        );
        h.check_invariants();
    }

    #[test]
    fn mesi_remote_write_invalidates_exclusive_holder() {
        let mut h = mesi_hub(2);
        h.cread(0, A); // E + tagged at core 0
        h.write(1, A, 7);
        assert!(h.arb(0), "invalidating a tagged E line must revoke");
        assert!(h.l1s[0].array.lookup(A.line()).is_none());
        assert_eq!(h.host_read(A), 7);
        h.check_invariants();
    }

    #[test]
    fn mesi_exclusive_eviction_clears_directory_owner() {
        let mut h = CoherenceHub::new(
            1,
            1,
            &CacheConfig {
                l1_bytes: 256,
                l1_assoc: 1,
                l2_bytes: 1024,
                l2_assoc: 4,
                protocol: Protocol::Mesi,
            },
            1 << 20,
        );
        let a = Line(0).base();
        let conflicting = Line(4).base();
        h.read(0, a); // E
        h.read(0, conflicting); // evicts the E line
        assert!(h.l1s[0].array.lookup(a.line()).is_none());
        assert!(
            h.l2.lookup(a.line()).unwrap().payload.owner.is_none(),
            "directory must forget an evicted E owner"
        );
        h.check_invariants();
    }

    #[test]
    fn mesi_ca_semantics_match_msi() {
        // The CA-visible event stream is identical under both protocols.
        for mk in [hub as fn(usize) -> CoherenceHub, mesi_hub] {
            let mut h = mk(2);
            assert_eq!(h.cread(0, A).0, Some(0));
            h.write(1, A, 5);
            assert!(h.arb(0));
            assert_eq!(h.cread(0, A).0, None);
            h.untag_all(0);
            assert_eq!(h.cread(0, A).0, Some(5));
            assert!(h.cwrite(0, A, 6).0);
            assert_eq!(h.host_read(A), 6);
            h.check_invariants();
        }
    }

    // --- SMT --------------------------------------------------------------

    #[test]
    fn smt_threads_share_an_l1() {
        let mut h = smt_hub(2); // 2 threads, 1 physical core
        assert_eq!(h.l1s.len(), 1);
        h.read(0, A); // thread 0 fills
        let (_, cost) = h.read(1, A); // sibling hits the same L1
        assert_eq!(cost, lat::L1_HIT, "siblings share the L1");
    }

    #[test]
    fn smt_sibling_store_revokes_tag() {
        let mut h = smt_hub(2);
        assert_eq!(h.cread(0, A).0, Some(0));
        // Sibling's write: no invalidation message, but the ARB must be set
        // (paper §III SMT rule).
        h.write(1, A, 9);
        assert!(h.arb(0), "sibling store must revoke");
        assert_eq!(h.stats.core(0).revoke_sibling, 1);
        assert_eq!(
            h.stats.core(0).invalidations_received,
            0,
            "no coherence traffic for a sibling conflict"
        );
        assert_eq!(h.cread(0, A).0, None);
        h.untag_all(0);
        assert_eq!(h.cread(0, A).0, Some(9));
    }

    #[test]
    fn smt_sibling_read_does_not_revoke() {
        let mut h = smt_hub(2);
        h.cread(0, A);
        h.read(1, A);
        assert!(!h.arb(0), "sibling loads are harmless");
        h.cread(1, A); // sibling may even tag the same line
        assert!(!h.arb(0) && !h.arb(1));
    }

    #[test]
    fn smt_tags_are_per_hardware_thread() {
        let mut h = smt_hub(2);
        h.cread(0, A);
        h.cread(1, A);
        // Thread 0 untags; thread 1's tag must survive.
        h.untag_all(0);
        assert!(!h.l1s[0].is_tagged(A.line(), 0));
        assert!(h.l1s[0].is_tagged(A.line(), 1));
        // A remote write then revokes only thread 1.
        let mut h2 = smt_hub(4); // threads 0,1 on core 0; 2,3 on core 1
        h2.cread(0, A);
        h2.cread(1, A);
        h2.untag_one(0, A);
        h2.write(2, A, 1);
        assert!(!h2.arb(0), "untagged thread not revoked");
        assert!(h2.arb(1), "tagged sibling revoked by remote write");
    }

    #[test]
    fn smt_cwrite_revokes_sibling_tagger() {
        let mut h = smt_hub(2);
        h.cread(0, A);
        h.cread(1, A);
        assert!(h.cwrite(0, A, 3).0, "first cwrite wins");
        assert!(h.arb(1), "sibling's conditional access must now fail");
        assert!(!h.cwrite(1, A, 4).0);
        assert_eq!(h.host_read(A), 3);
    }

    #[test]
    fn smt_own_store_does_not_self_revoke() {
        let mut h = smt_hub(2);
        h.cread(0, A);
        h.write(0, A, 1); // own plain store to own tagged line
        assert!(!h.arb(0), "a thread's own store must not revoke itself");
        assert!(!h.arb(1));
    }

    #[test]
    fn smt_remote_invalidation_revokes_all_taggers() {
        let mut h = smt_hub(4);
        h.cread(0, A);
        h.cread(1, A);
        h.write(2, A, 1); // remote core invalidates the shared L1 copy
        assert!(h.arb(0) && h.arb(1), "both hyperthreads tagged the line");
        assert_eq!(h.stats.core(0).revoke_remote, 1);
        assert_eq!(h.stats.core(1).revoke_remote, 1);
        h.check_invariants();
    }

    // --- HTM --------------------------------------------------------------

    #[test]
    fn tx_commit_publishes_buffered_writes() {
        let mut h = hub(2);
        h.tx_begin(0);
        assert_eq!(h.tx_read(0, A).0, Some(0));
        assert!(h.tx_write(0, A, 5).0);
        // Speculative: not yet visible.
        assert_eq!(h.host_read(A), 0);
        // Read-own-write.
        assert_eq!(h.tx_read(0, A).0, Some(5));
        let (w, _) = h.tx_commit_begin(0);
        let w = w.expect("no conflict");
        h.tx_commit_apply(0, &w);
        assert_eq!(h.host_read(A), 5);
        assert_eq!(h.stats.core(0).tx_commits, 1);
        assert!(!h.tx_active(0));
        h.check_invariants();
    }

    #[test]
    fn tx_aborts_on_remote_conflict() {
        let mut h = hub(2);
        h.tx_begin(0);
        assert_eq!(h.tx_read(0, A).0, Some(0));
        h.write(1, A, 9); // conflicting remote store
        let (w, _) = h.tx_commit_begin(0);
        assert!(w.is_none(), "conflicted transaction must abort at commit");
        assert_eq!(h.stats.core(0).tx_aborts, 1);
        assert!(!h.tx_active(0));
        assert_eq!(h.host_read(A), 9, "speculative state discarded");
    }

    #[test]
    fn tx_read_fails_fast_after_conflict() {
        let mut h = hub(2);
        h.tx_begin(0);
        h.tx_read(0, A);
        h.write(1, A, 9);
        let (v, _) = h.tx_read(0, B);
        assert_eq!(v, None, "doomed transaction aborts on next access");
        assert!(!h.tx_active(0), "tx_read failure is an abort");
    }

    #[test]
    fn tx_buffered_writes_conflict_with_remote_writer() {
        // Lazy versioning still detects write-write conflicts: the target
        // line is in the read set.
        let mut h = hub(2);
        h.tx_begin(0);
        assert!(h.tx_write(0, A, 1).0);
        h.write(1, A, 2);
        let (w, _) = h.tx_commit_begin(0);
        assert!(w.is_none());
        assert_eq!(h.host_read(A), 2);
    }

    #[test]
    fn tx_explicit_abort_discards_everything() {
        let mut h = hub(1);
        h.tx_begin(0);
        h.tx_write(0, A, 1);
        h.tx_abort(0);
        assert_eq!(h.host_read(A), 0);
        assert!(!h.tx_active(0));
        assert_eq!(h.stats.core(0).tx_aborts, 1);
        // The thread can immediately start a fresh transaction.
        h.tx_begin(0);
        assert_eq!(h.tx_read(0, A).0, Some(0));
        let (w, _) = h.tx_commit_begin(0);
        h.tx_commit_apply(0, &w.unwrap());
    }

    #[test]
    fn tx_commit_invalidates_remote_taggers() {
        // An HTM commit behaves like a store burst: CA readers that tagged
        // the written lines get revoked.
        let mut h = hub(2);
        h.cread(1, A);
        h.tx_begin(0);
        h.tx_read(0, A);
        h.tx_write(0, A, 3);
        let (w, _) = h.tx_commit_begin(0);
        h.tx_commit_apply(0, &w.unwrap());
        assert!(h.arb(1), "commit's store must revoke remote tags");
    }

    #[test]
    #[should_panic(expected = "nested transactions")]
    fn tx_nesting_panics() {
        let mut h = hub(1);
        h.tx_begin(0);
        h.tx_begin(0);
    }

    #[test]
    #[should_panic(expected = "inside a hardware transaction")]
    fn plain_ops_inside_tx_panic() {
        let mut h = hub(1);
        h.tx_begin(0);
        h.read(0, A);
    }

    #[test]
    fn preempt_aborts_transaction() {
        let mut h = hub(1);
        h.tx_begin(0);
        h.tx_write(0, A, 1);
        h.preempt(0);
        assert!(!h.tx_active(0), "context switch aborts the transaction");
        assert_eq!(h.host_read(A), 0);
        assert_eq!(h.stats.core(0).tx_aborts, 1);
    }
}
