//! Hazard eras (`he` — Ramalhete & Correia, SPAA'17).
//!
//! A drop-in replacement for hazard pointers that publishes **eras** instead
//! of addresses: protecting a node publishes the current global era into one
//! of the thread's slots (store + fence when the slot value changes) and
//! re-reads the era to confirm stability. Nodes carry `[birth, retire]` era
//! intervals (like ibr); a retired node is freed only if no published slot
//! era falls inside its interval.
//!
//! The advantage over hp is that consecutive protections in a stable era
//! reuse the published value (no store, no fence); the paper still groups
//! he with the per-read-overhead schemes because under update-heavy
//! workloads the era keeps moving — every bump is a coherence miss on the
//! era line for every reader plus a republish fence.
//!
//! Like hp, hazard-era protection is not retroactive, so traversals must
//! validate reachability after protecting ([`SmrBase::needs_validation`]).

use mcsim::Addr;

use crate::api::{
    per_thread_lines, EraClock, RetireBag, Retired, Smr, SmrBase, SmrConfig, NODE_BIRTH_WORD,
    SLOTS_PER_THREAD,
};
use crate::env::{Env, EnvHost};

/// Hazard-eras scheme state.
pub struct He {
    clock: EraClock,
    /// Per-thread era-slot lines: words `0..K` hold published eras (0 =
    /// empty; real eras start at 1).
    slots: Vec<Addr>,
    cfg: SmrConfig,
}

/// Per-thread hazard-eras state.
pub struct HeTls {
    bag: RetireBag,
    alloc_count: u64,
    /// Host-side mirror of published slot eras.
    published: [u64; SLOTS_PER_THREAD],
}

impl He {
    /// Build the scheme, allocating metadata.
    pub fn new<H: EnvHost + ?Sized>(host: &H, threads: usize, cfg: SmrConfig) -> Self {
        let clock = EraClock::new(host);
        // Wedge attribution: the lowest published era is the oldest hazard
        // era — the thread whose protection pins the most intervals.
        let k = SLOTS_PER_THREAD as u64;
        let slots = per_thread_lines(host, threads, "he.eras", 0, k, 0);
        Self { clock, slots, cfg }
    }

    fn slot_addr(&self, tid: usize, slot: usize) -> Addr {
        debug_assert!(slot < SLOTS_PER_THREAD);
        self.slots[tid].word(slot as u64)
    }
}

impl SmrBase for He {
    type Tls = HeTls;

    fn register(&self, tid: usize) -> HeTls {
        HeTls {
            bag: RetireBag::new(tid, self.cfg.reclaim_freq),
            alloc_count: 0,
            published: [0; SLOTS_PER_THREAD],
        }
    }

    fn needs_validation(&self) -> bool {
        true
    }

    fn bag(tls: &HeTls) -> &RetireBag {
        &tls.bag
    }

    fn bag_mut(tls: &mut HeTls) -> &mut RetireBag {
        &mut tls.bag
    }

    fn name(&self) -> &'static str {
        "he"
    }
}

impl<E: Env + ?Sized> Smr<E> for He {
    fn end_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        for s in 0..SLOTS_PER_THREAD {
            self.clear_slot(ctx, tls, s);
        }
    }

    /// The hazard-era protect loop: publish the era (if the slot doesn't
    /// already hold it), fence, read the pointer, confirm era stability.
    fn read_ptr(&self, ctx: &mut E, tls: &mut Self::Tls, slot: usize, field: Addr) -> u64 {
        let mut e = self.clock.read(ctx);
        loop {
            if tls.published[slot] != e {
                ctx.write(self.slot_addr(tls.bag.tid, slot), e);
                ctx.fence();
                tls.published[slot] = e;
            }
            let v = ctx.read(field);
            let e2 = self.clock.read(ctx);
            if e2 == e {
                return v;
            }
            e = e2;
        }
    }

    fn clear_slot(&self, ctx: &mut E, tls: &mut Self::Tls, slot: usize) {
        if tls.published[slot] != 0 {
            ctx.write(self.slot_addr(tls.bag.tid, slot), 0);
            tls.published[slot] = 0;
        }
    }

    /// Stamp birth era and drive the era clock.
    fn on_alloc(&self, ctx: &mut E, tls: &mut Self::Tls, node: Addr) {
        self.clock
            .on_alloc(ctx, &mut tls.alloc_count, self.cfg.epoch_freq);
        let e = self.clock.read(ctx);
        ctx.write(node.word(NODE_BIRTH_WORD), e);
    }

    fn stamp(&self, ctx: &mut E, node: Addr) -> Retired {
        // The retire era must be read after the caller's unlink store is
        // globally visible; a stamp read while the unlink sits in the store
        // buffer can be too old, making the node look dead across an era a
        // reader protected while it could still reach it. The fence also
        // orders the unlink before the era snapshot in `scan` (po-after
        // this call). No-op in the simulator — see `Env::smr_fence`.
        ctx.smr_fence();
        let birth = ctx.read(node.word(NODE_BIRTH_WORD));
        Retired {
            addr: node,
            birth,
            retire: self.clock.read(ctx),
        }
    }

    /// Snapshot every published era; a node stays while one falls inside
    /// its `[birth, retire]`.
    fn scan(&self, ctx: &mut E, tls: &mut HeTls) {
        let mut eras: Vec<u64> = Vec::with_capacity(self.slots.len() * SLOTS_PER_THREAD);
        for line in &self.slots {
            for s in 0..SLOTS_PER_THREAD {
                let e = ctx.read(line.word(s as u64));
                if e != 0 {
                    eras.push(e);
                }
            }
        }
        tls.bag
            .sweep(ctx, |r| eras.iter().any(|&e| r.birth <= e && e <= r.retire));
    }

    /// Cap the victim's era reservations the way fail-stop allows: full
    /// retraction (all slots zeroed — the mirror in the orphan's host
    /// state is only accurate up to the crash, so every word is cleared
    /// unconditionally). A published era nobody will ever protect-read
    /// under again blocks no interval.
    fn revoke(&self, ctx: &mut E, tid: usize) {
        for s in 0..SLOTS_PER_THREAD {
            ctx.write(self.slot_addr(tid, s), 0);
        }
    }

    /// Clear the eras this thread knows it published.
    fn withdraw(&self, ctx: &mut E, tls: &mut HeTls) {
        self.end_op(ctx, tls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::{Machine, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 1 << 20,
            static_lines: 128,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn era_slot_blocks_interval() {
        let m = machine(2);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1, // every alloc bumps the era
        };
        let s = He::new(&m, 2, cfg);
        let mailbox = m.alloc_static(1);
        let done = m.alloc_static(1);
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 1 {
                let mut p = 0;
                while p == 0 {
                    p = s.read_ptr(ctx, &mut tls, 0, mailbox);
                    ctx.tick(1);
                }
                while ctx.read(done) == 0 {
                    let _ = ctx.read(Addr(p));
                    ctx.tick(10);
                }
                s.end_op(ctx, &mut tls);
                return;
            }
            let first = ctx.alloc();
            s.on_alloc(ctx, &mut tls, first);
            ctx.write(first, 7);
            ctx.write(mailbox, first.0);
            while ctx.read(s.slot_addr(1, 0)) == 0 {
                ctx.tick(1);
            }
            s.retire(ctx, &mut tls, first); // era-protected: must survive
            for _ in 0..30 {
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n);
            }
            ctx.write(done, 1);
        });
        // The protected node's interval contains the reader's published era;
        // later nodes' intervals lie entirely above it and are freed.
        let live = m.stats().allocated_not_freed;
        assert!(
            (1..=3).contains(&live),
            "era-protected node must survive, churn must not: got {live}"
        );
        m.check_invariants();
    }

    #[test]
    fn scan_interval_boundaries_are_inclusive() {
        // PR-4 audit pin: a published era exactly equal to a node's birth
        // or retire era must block the free — `birth <= e && e <= r.retire`
        // with both comparisons inclusive. A node born at era e was alive
        // at e; a node retired at era e may still be held by a thread that
        // protected e.
        let m = machine(1);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1,
        };
        let s = He::new(&m, 2, cfg);
        let mailbox = m.alloc_static(1);
        let live = m.run_on(1, |_, ctx| {
            let mut writer = s.register(0);
            let mut reader = s.register(1);
            let a = ctx.alloc();
            s.on_alloc(ctx, &mut writer, a); // birth = current era
            ctx.write(mailbox, a.0);
            // Reader protects at the CURRENT era: e == birth(A) exactly
            // (no allocation between stamp and publish).
            let _ = s.read_ptr(ctx, &mut reader, 0, mailbox);
            // Retire immediately: retire == published e as well.
            s.retire(ctx, &mut writer, a); // freq 1 → scan now
            ctx.read(a) // must still be valid memory
        });
        assert_eq!(live, vec![0], "A readable (its payload word is 0)");
        assert!(
            m.stats().allocated_not_freed >= 1,
            "published era == birth == retire must block the free"
        );
        m.check_invariants();
    }

    #[test]
    fn scan_revisits_the_swapped_in_element() {
        crate::api::tests::one_scan_frees_both_of_two(|m, cfg| He::new(m, 1, cfg), false);
    }

    #[test]
    fn stable_era_skips_fences() {
        // With a huge epoch_freq the era never moves: after the first
        // publish, further protected reads cost no store and no fence.
        let m = machine(1);
        let s = He::new(
            &m,
            1,
            SmrConfig {
                epoch_freq: 1_000_000,
                ..Default::default()
            },
        );
        let mailbox = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            let n = ctx.alloc();
            s.on_alloc(ctx, &mut tls, n);
            ctx.write(mailbox, n.0);
            for _ in 0..10 {
                let _ = s.read_ptr(ctx, &mut tls, 0, mailbox);
            }
        });
        assert_eq!(
            m.stats().sum(|c| c.fences),
            1,
            "one fence on first publish, zero while the era is stable"
        );
    }

    #[test]
    fn moving_era_republishes() {
        let m = machine(1);
        let s = He::new(
            &m,
            1,
            SmrConfig {
                epoch_freq: 1,
                ..Default::default()
            },
        );
        let mailbox = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            for _ in 0..5 {
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n); // bumps era every time
                let _ = s.read_ptr(ctx, &mut tls, 0, mailbox);
            }
        });
        assert!(
            m.stats().sum(|c| c.fences) >= 5,
            "era movement must force republishes"
        );
    }
}
