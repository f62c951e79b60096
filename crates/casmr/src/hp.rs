//! Hazard pointers (`hp` — Michael, TPDS'04).
//!
//! Each thread owns K hazard slots in simulated shared memory. Protecting a
//! node publishes its address (store) and **fences**, then re-reads the
//! source field to confirm the pointer still leads there; reclamation scans
//! every thread's slots and frees only unprotected retired nodes.
//!
//! The per-read store+fence is the canonical "high per-read overhead" of the
//! paper's §V — hp pays it for *every node visited* during a traversal,
//! which is why it sits at the bottom of every throughput figure.
//!
//! The two fences form an asymmetric pair: the protect fence is
//! [`Env::protect_fence`] and the scan's is [`Env::reclaim_fence`]. The
//! simulator keeps both at their defaults (a charged full fence per
//! protect, an uncharged scan fence), so the paper's cost model is intact.
//! The native backend moves the cost to the reclaimer where the kernel
//! allows it: a compiler fence per protect and one
//! `membarrier(PRIVATE_EXPEDITED)` per scan, i.e. once per
//! `reclaim_freq` retires instead of once per hop (Folly's hazptr does the
//! same).
//!
//! hp (like he) also requires traversals to validate reachability after
//! protecting ([`SmrBase::needs_validation`] = true): a hazard does not
//! protect a node that was already retired before the hazard became visible,
//! so the data structure must confirm the node was still reachable
//! afterwards (in the lazy list: source node unmarked) and restart otherwise.

#[expect(
    clippy::disallowed_types,
    reason = "the scan-time hazard set is membership-only"
)]
use std::collections::HashSet;

use mcsim::Addr;

use crate::api::{per_thread_lines, RetireBag, Smr, SmrBase, SmrConfig, SLOTS_PER_THREAD};
use crate::env::{Env, EnvHost};

/// Hazard-pointer scheme state.
pub struct Hp {
    /// Per-thread hazard lines: words `0..K` hold protected addresses (0 =
    /// empty).
    slots: Vec<Addr>,
    cfg: SmrConfig,
}

/// Per-thread hazard-pointer state.
pub struct HpTls {
    bag: RetireBag,
    /// Host-side mirror of the published slots (skip redundant publishes).
    published: [u64; SLOTS_PER_THREAD],
    /// Workhorse set reused by scans.
    #[expect(clippy::disallowed_types, reason = "membership-only")]
    hazard_set: HashSet<u64>,
}

impl Hp {
    /// Build the scheme, allocating one hazard line per thread.
    pub fn new<H: EnvHost + ?Sized>(host: &H, threads: usize, cfg: SmrConfig) -> Self {
        // Wedge attribution: hazards are addresses, not eras, so "oldest"
        // has no temporal meaning — but any non-zero slot deterministically
        // names a thread still holding protections.
        let k = SLOTS_PER_THREAD as u64;
        let slots = per_thread_lines(host, threads, "hp.hazards", 0, k, 0);
        Self { slots, cfg }
    }

    fn slot_addr(&self, tid: usize, slot: usize) -> Addr {
        debug_assert!(slot < SLOTS_PER_THREAD);
        self.slots[tid].word(slot as u64)
    }
}

impl SmrBase for Hp {
    type Tls = HpTls;

    #[expect(clippy::disallowed_types, reason = "membership-only")]
    fn register(&self, tid: usize) -> HpTls {
        HpTls {
            bag: RetireBag::new(tid, self.cfg.reclaim_freq),
            published: [0; SLOTS_PER_THREAD],
            hazard_set: HashSet::new(),
        }
    }

    fn needs_validation(&self) -> bool {
        true
    }

    fn bag(tls: &HpTls) -> &RetireBag {
        &tls.bag
    }

    fn bag_mut(tls: &mut HpTls) -> &mut RetireBag {
        &mut tls.bag
    }

    fn name(&self) -> &'static str {
        "hp"
    }
}

impl<E: Env + ?Sized> Smr<E> for Hp {
    /// Clear the slots that were used this operation.
    fn end_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        for s in 0..SLOTS_PER_THREAD {
            self.clear_slot(ctx, tls, s);
        }
    }

    /// Michael's protect loop: publish, fence, re-read the source field;
    /// retry until the field still names the protected node.
    fn read_ptr(&self, ctx: &mut E, tls: &mut Self::Tls, slot: usize, field: Addr) -> u64 {
        loop {
            let v = ctx.read(field);
            if v == 0 {
                return 0; // null needs no protection
            }
            if tls.published[slot] != v {
                ctx.write(self.slot_addr(tls.bag.tid, slot), v);
                ctx.protect_fence();
                tls.published[slot] = v;
            }
            let v2 = ctx.read(field);
            if v2 == v {
                return v;
            }
        }
    }

    fn clear_slot(&self, ctx: &mut E, tls: &mut Self::Tls, slot: usize) {
        if tls.published[slot] != 0 {
            ctx.write(self.slot_addr(tls.bag.tid, slot), 0);
            tls.published[slot] = 0;
        }
    }

    fn scan(&self, ctx: &mut E, tls: &mut HpTls) {
        // Order every retired node's unlink store before the hazard loads
        // below: without this a weakly-ordered host can satisfy the loads
        // while the unlink still sits in the store buffer, missing a hazard
        // whose owner still observed the node linked (no-op in the
        // sequentially consistent simulator — see `Env::smr_fence`). It is
        // also the heavy half that makes a light `protect_fence` sound.
        ctx.reclaim_fence();
        // Collect every published hazard (simulated loads of all threads'
        // hazard lines — N*K shared reads, the scan cost the paper charges
        // hp with).
        let HpTls {
            bag, hazard_set, ..
        } = tls;
        hazard_set.clear();
        for line in &self.slots {
            for s in 0..SLOTS_PER_THREAD {
                let h = ctx.read(line.word(s as u64));
                if h != 0 {
                    hazard_set.insert(h);
                }
            }
        }
        bag.sweep(ctx, |r| hazard_set.contains(&r.addr.0));
    }

    /// Clear *every* slot of the victim's hazard line (its host-side
    /// `published` mirror is only accurate up to the crash point, so all
    /// `SLOTS_PER_THREAD` words are zeroed unconditionally). Sound only
    /// under the fail-stop declaration: a hazard nobody will ever
    /// dereference again guards nothing.
    fn revoke(&self, ctx: &mut E, tid: usize) {
        for s in 0..SLOTS_PER_THREAD {
            ctx.write(self.slot_addr(tid, s), 0);
        }
    }

    /// Clear the hazards this thread knows it published.
    fn withdraw(&self, ctx: &mut E, tls: &mut HpTls) {
        self.end_op(ctx, tls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::{Ctx, Machine, MachineConfig};

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
    fn hazard_blocks_free_bounded_backlog() {
        // Thread 1 protects one node forever; thread 0 retires many. Only
        // the protected one may survive thread 0's scans (plus the ones not
        // yet scanned).
        let m = machine(2);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            ..Default::default()
        };
        let s = Hp::new(&m, 2, cfg);
        let mailbox = m.alloc_static(1);
        let done = m.alloc_static(1);
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 1 {
                // Wait for a node to appear, protect it, hold.
                let mut p = 0;
                while p == 0 {
                    p = s.read_ptr(ctx, &mut tls, 0, mailbox);
                    ctx.tick(1);
                }
                while ctx.read(done) == 0 {
                    let _ = ctx.read(Addr(p)); // must stay valid
                    ctx.tick(10);
                }
                s.end_op(ctx, &mut tls);
                return;
            }
            // Publish the first node, then churn and retire others.
            let first = ctx.alloc();
            ctx.write(first, 7);
            ctx.write(mailbox, first.0);
            // Wait until the reader has protected it.
            while ctx.read(s.slot_addr(1, 0)) != first.0 {
                ctx.tick(1);
            }
            s.retire(ctx, &mut tls, first); // protected: must survive
            for _ in 0..30 {
                let n = ctx.alloc();
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n); // unprotected: freed by scans
            }
            ctx.write(done, 1);
        });
        let live = m.stats().allocated_not_freed;
        assert!(
            (1..=3).contains(&live),
            "exactly the hazard-protected node (± scan lag) survives, got {live}"
        );
    }

    #[test]
    fn scan_revisits_the_swapped_in_element() {
        crate::api::tests::one_scan_frees_both_of_two(|m, cfg| Hp::new(m, 1, cfg), false);
    }

    #[test]
    fn hazard_matches_exact_addresses_only() {
        // PR-4 audit pin: hazards are exact 64-bit addresses (the cads
        // structures keep mark bits in a separate word, never in the
        // pointer), so a hazard on node A must not protect its neighbour
        // line, and the protected node itself must survive the scan.
        let m = machine(1);
        let cfg = SmrConfig {
            reclaim_freq: 2,
            ..Default::default()
        };
        let s = Hp::new(&m, 2, cfg);
        let mailbox = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            let mut writer = s.register(0);
            let mut reader = s.register(1);
            let a = ctx.alloc();
            let b = ctx.alloc();
            ctx.write(mailbox, a.0);
            let got = s.read_ptr(ctx, &mut reader, 0, mailbox);
            assert_eq!(got, a.0);
            s.retire(ctx, &mut writer, a);
            s.retire(ctx, &mut writer, b); // scan: A protected, B not
            let v = ctx.read(Addr(got)); // A stays valid under the hazard
            assert_eq!(v, 0);
        });
        assert_eq!(
            m.stats().allocated_not_freed,
            1,
            "exactly the hazard-protected node survives"
        );
    }

    #[test]
    fn protect_republish_loop_validates_source() {
        // If the field changes between publish and re-read, read_ptr must
        // loop and return the *new* value with protection.
        let m = machine(1);
        let s = Hp::new(&m, 1, SmrConfig::default());
        let mailbox = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            let n = ctx.alloc();
            ctx.write(mailbox, n.0);
            let got = s.read_ptr(ctx, &mut tls, 0, mailbox);
            assert_eq!(got, n.0);
            // The hazard is published in simulated memory.
            assert_eq!(ctx.read(s.slot_addr(0, 0)), n.0);
            s.end_op(ctx, &mut tls);
            assert_eq!(ctx.read(s.slot_addr(0, 0)), 0);
        });
    }

    #[test]
    fn fence_per_new_protection() {
        let m = machine(1);
        let s = Hp::new(&m, 1, SmrConfig::default());
        let boxes: Vec<Addr> = (0..4).map(|_| m.alloc_static(1)).collect();
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            for (i, b) in boxes.iter().enumerate() {
                let n = ctx.alloc();
                ctx.write(*b, n.0);
                // Each protection of a *new* value costs one fence.
                let _ = s.read_ptr(ctx, &mut tls, i % 2, *b);
            }
        });
        assert_eq!(
            m.stats().sum(|c| c.fences),
            4,
            "one fence per protected read"
        );
    }

    #[test]
    fn needs_validation_flag() {
        let m = machine(1);
        assert!(Hp::new(&m, 1, SmrConfig::default()).needs_validation());
    }

    /// hp without its scan fence: the simulator's `Ctx` with
    /// [`Env::reclaim_fence`] a no-op; every other method is `Ctx`'s own.
    struct NoScanFence<'a, 'm>(&'a mut Ctx<'m>);

    impl Env for NoScanFence<'_, '_> {
        fn tid(&self) -> usize {
            self.0.core()
        }
        fn threads(&self) -> usize {
            self.0.threads()
        }
        fn read(&mut self, a: Addr) -> u64 {
            self.0.read(a)
        }
        fn write(&mut self, a: Addr, v: u64) {
            self.0.write(a, v)
        }
        fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64> {
            self.0.cas(a, expected, new)
        }
        fn fence(&mut self) {
            self.0.fence()
        }
        fn tick(&mut self, n: u64) {
            self.0.tick(n)
        }
        fn alloc(&mut self) -> Addr {
            self.0.alloc()
        }
        fn free(&mut self, a: Addr) {
            self.0.free(a)
        }
        fn op_completed(&mut self) {
            self.0.op_completed()
        }
        fn now(&mut self) -> u64 {
            self.0.now()
        }
        fn smr_fence(&mut self) {
            self.0.smr_fence()
        }
        fn reclaim_fence(&mut self) {}
    }

    /// The race-analyzer regression pin for the PR-8 fence hole: with the
    /// scan fence in place the hazard publish → scan read pair is ordered
    /// (publisher's protect fence + scanner's smr_fence); strip the scan
    /// fence ([`NoScanFence`]) and the analyzer must report exactly that
    /// pair on the `hp.hazards` region.
    #[test]
    fn race_analyzer_catches_missing_scan_fence() {
        let run = |skip_fence: bool| {
            let m = Machine::new(MachineConfig {
                cores: 2,
                mem_bytes: 1 << 20,
                static_lines: 128,
                quantum: 0,
                race_check: true,
                ..Default::default()
            });
            let s = Hp::new(
                &m,
                2,
                SmrConfig {
                    reclaim_freq: 1,
                    ..Default::default()
                },
            );
            let mailbox = m.alloc_static(1);
            m.run_on(2, |tid, ctx| {
                let mut tls = s.register(tid);
                if tid == 0 {
                    // Publish a hazard: write slot + protect fence.
                    let n = ctx.alloc();
                    ctx.write(mailbox, n.0);
                    let _ = s.read_ptr(ctx, &mut tls, 0, mailbox);
                } else {
                    // Scan well after the publish (quantum 0 linearizes by
                    // local clocks): reads every thread's hazard slots.
                    ctx.tick(10_000);
                    let n = ctx.alloc();
                    // reclaim_freq 1 → scan
                    if skip_fence {
                        s.retire(&mut NoScanFence(ctx), &mut tls, n);
                    } else {
                        s.retire(ctx, &mut tls, n);
                    }
                }
            });
            m.race_report()
        };
        let clean = run(false);
        assert!(
            !clean.findings.iter().any(|f| f.region == "hp.hazards"),
            "fenced scan must be ordered with the publish:\n{}",
            clean.render()
        );
        let broken = run(true);
        let f = broken
            .findings
            .iter()
            .find(|f| f.region == "hp.hazards")
            .unwrap_or_else(|| panic!("missing scan fence must be reported:\n{}", broken.render()));
        assert_eq!((f.prior, f.later), ("write", "read"));
    }
}
