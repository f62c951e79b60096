//! Interval-based reclamation, 2GE variant (`ibr` — Wen et al., PPoPP'18,
//! the `2geibr` configuration the paper benchmarks).
//!
//! Every node carries its **birth era** (stamped at allocation into
//! [`crate::api::NODE_BIRTH_WORD`]); retiring stamps the **retire era**.
//! Every thread publishes a reservation interval `[lo, hi]` in simulated
//! shared memory: `lo` is the era when its operation began, `hi` the latest
//! era it has observed during the operation. A traversal re-reads the global
//! era after each pointer read and, if it moved, extends `hi` (store +
//! fence) and retries the read — so every node the thread can be holding has
//! a lifetime interval overlapping `[lo, hi]`.
//!
//! Free rule: node `(birth, retire)` is freeable iff for every thread the
//! reservation is inactive or `retire < lo` or `birth > hi`.
//!
//! Costs: one extra global-era load per pointer read (usually an S-hit,
//! a miss right after an era bump), a store + fence per era change observed
//! mid-operation, two stores + fence per operation (open/close), and the
//! scan. This is the "per-read overhead" family of the paper's §V.

use mcsim::Addr;

use crate::api::{
    per_thread_lines, EraClock, RetireBag, Retired, Smr, SmrBase, SmrConfig, INACTIVE,
    NODE_BIRTH_WORD,
};
use crate::env::{Env, EnvHost};

/// 2GE-IBR scheme state.
pub struct Ibr {
    clock: EraClock,
    /// Per-thread reservation lines: word 0 = lo, word 1 = hi.
    res: Vec<Addr>,
    cfg: SmrConfig,
}

/// Per-thread IBR state.
pub struct IbrTls {
    bag: RetireBag,
    alloc_count: u64,
    /// Host-side cache of the published `hi` (avoids re-reading own line).
    hi: u64,
}

impl Ibr {
    /// Build the scheme, allocating its shared metadata.
    pub fn new<H: EnvHost + ?Sized>(host: &H, threads: usize, cfg: SmrConfig) -> Self {
        let clock = EraClock::new(host);
        // Wedge attribution: probe word 0 (`lo`) only — the oldest open
        // reservation's lower bound names the thread pinning intervals.
        let res = per_thread_lines(host, threads, "ibr.res", INACTIVE, 1, INACTIVE);
        Self { clock, res, cfg }
    }
}

impl SmrBase for Ibr {
    type Tls = IbrTls;

    fn register(&self, tid: usize) -> IbrTls {
        IbrTls {
            bag: RetireBag::new(tid, self.cfg.reclaim_freq),
            alloc_count: 0,
            hi: 0,
        }
    }

    fn bag(tls: &IbrTls) -> &RetireBag {
        &tls.bag
    }

    fn bag_mut(tls: &mut IbrTls) -> &mut RetireBag {
        &mut tls.bag
    }

    fn name(&self) -> &'static str {
        "ibr"
    }
}

impl<E: Env + ?Sized> Smr<E> for Ibr {
    /// Open the reservation `[e, e]` at the current era.
    fn begin_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        let e = self.clock.read(ctx);
        let line = self.res[tls.bag.tid];
        ctx.write(line, e);
        ctx.write(line.word(1), e);
        ctx.fence();
        tls.hi = e;
    }

    /// Close the reservation.
    fn end_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        ctx.write(self.res[tls.bag.tid], INACTIVE);
    }

    /// The 2GE protected read: read the pointer, confirm the era did not
    /// move past the published `hi`; if it did, extend the reservation and
    /// retry, so the returned node's lifetime overlaps `[lo, hi]`.
    fn read_ptr(&self, ctx: &mut E, tls: &mut Self::Tls, _slot: usize, field: Addr) -> u64 {
        loop {
            let v = ctx.read(field);
            let e = self.clock.read(ctx);
            if e == tls.hi {
                return v;
            }
            ctx.write(self.res[tls.bag.tid].word(1), e);
            ctx.fence();
            tls.hi = e;
        }
    }

    /// Stamp the birth era into the node and drive the era clock.
    fn on_alloc(&self, ctx: &mut E, tls: &mut Self::Tls, node: Addr) {
        self.clock
            .on_alloc(ctx, &mut tls.alloc_count, self.cfg.epoch_freq);
        let e = self.clock.read(ctx);
        ctx.write(node.word(NODE_BIRTH_WORD), e);
    }

    fn stamp(&self, ctx: &mut E, node: Addr) -> Retired {
        // Order the caller's unlink store before the retire-era read and
        // the reservation snapshot in `scan` (po-after this call): a stamp
        // read while the unlink is still store-buffered can be too old,
        // shrinking the node's [birth, retire] interval past a reservation
        // that still reaches it. No-op in the simulator — see
        // `Env::smr_fence`.
        ctx.smr_fence();
        let birth = ctx.read(node.word(NODE_BIRTH_WORD));
        Retired {
            addr: node,
            birth,
            retire: self.clock.read(ctx),
        }
    }

    /// Snapshot all reservations; a node stays while its `[birth, retire]`
    /// overlaps an active `[lo, hi]`.
    fn scan(&self, ctx: &mut E, tls: &mut IbrTls) {
        let reservations: Vec<(u64, u64)> = self
            .res
            .iter()
            .map(|line| (ctx.read(*line), ctx.read(line.word(1))))
            .collect();
        tls.bag.sweep(ctx, |r| {
            reservations
                .iter()
                .any(|&(lo, hi)| lo != INACTIVE && r.retire >= lo && r.birth <= hi)
        });
    }

    /// Deactivate `tid`'s reservation (idempotent between operations). A
    /// thread that crashed mid-operation leaves `[lo, hi]` open forever,
    /// holding every node whose lifetime overlaps it; the crash leg caps
    /// the orphaned reservation in the strongest way the fail-stop
    /// declaration allows: full deactivation (`lo := INACTIVE`) — the dead
    /// thread will never dereference anything inside the interval, so no
    /// cap short of retraction is needed.
    fn revoke(&self, ctx: &mut E, tid: usize) {
        ctx.write(self.res[tid], INACTIVE);
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
    fn reclaims_when_unreserved() {
        let m = machine(1);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 2,
        };
        let s = Ibr::new(&m, 1, cfg);
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            for _ in 0..50 {
                s.begin_op(ctx, &mut tls);
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n);
                s.end_op(ctx, &mut tls);
            }
        });
        // Retiring inside one's own reservation keeps the node one round;
        // subsequent scans (after end_op) free the backlog.
        assert!(
            m.stats().allocated_not_freed <= 5,
            "found {} unreclaimed",
            m.stats().allocated_not_freed
        );
    }

    #[test]
    fn overlapping_reservation_blocks_free_until_closed() {
        // One simulated core acts for two *logical* threads (the scheme's
        // state is per-logical-thread, in simulated memory), giving a fully
        // deterministic interleaving:
        //   1. node A is allocated (birth = e_A);
        //   2. logical thread 1 opens a reservation [e, e] with e ≥ e_A;
        //   3. A is retired — its interval [e_A, retire] overlaps [e, e],
        //      so scans must keep it;
        //   4. fresh nodes churned afterwards are born above `hi` and are
        //      freed immediately;
        //   5. closing the reservation releases A on the next scan.
        let m = machine(1);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1, // era bumps every alloc: intervals are tight
        };
        let s = Ibr::new(&m, 2, cfg);
        let held = m.run_on(1, |_, ctx| {
            let mut writer = s.register(0);
            let mut reader = s.register(1);
            let a = ctx.alloc();
            s.on_alloc(ctx, &mut writer, a);
            ctx.write(a, 7);
            s.begin_op(ctx, &mut reader); // reservation covers A's lifetime
            s.begin_op(ctx, &mut writer);
            s.retire(ctx, &mut writer, a);
            let mut churned = 0;
            for _ in 0..10 {
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut writer, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut writer, n);
                churned += 1;
            }
            s.end_op(ctx, &mut writer);
            let _ = churned;
            let held_mid = ctx.read(a); // A must still be valid memory
            s.end_op(ctx, &mut reader);
            // Trigger one more scan cycle: retire a dummy.
            s.begin_op(ctx, &mut writer);
            let n = ctx.alloc();
            s.on_alloc(ctx, &mut writer, n);
            ctx.write(n, 1);
            s.retire(ctx, &mut writer, n);
            s.end_op(ctx, &mut writer);
            held_mid
        });
        assert_eq!(held, vec![7], "A stayed readable while reserved");
        assert!(
            m.stats().allocated_not_freed <= 2,
            "once the reservation closed, A (and the churn) must be freed; \
             {} still live",
            m.stats().allocated_not_freed
        );
        m.check_invariants();
    }

    #[test]
    fn read_ptr_extends_reservation_on_era_change() {
        let m = machine(1);
        let s = Ibr::new(
            &m,
            1,
            SmrConfig {
                epoch_freq: 1, // every alloc bumps the era
                ..Default::default()
            },
        );
        let mailbox = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            s.begin_op(ctx, &mut tls);
            let lo_hi_before = tls.hi;
            // Bump the era a few times via allocations.
            for _ in 0..3 {
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
            }
            let _ = s.read_ptr(ctx, &mut tls, 0, mailbox);
            assert!(
                tls.hi > lo_hi_before,
                "read after era bumps must extend hi ({} vs {})",
                tls.hi,
                lo_hi_before
            );
            s.end_op(ctx, &mut tls);
        });
        // The published hi in simulated memory matches the cached one.
        assert!(m.host_read(s.res[0].word(1)) >= 2);
    }

    #[test]
    fn scan_boundary_eras_are_inclusive() {
        // PR-4 audit pin: the free rule is "inactive ∨ retire < lo ∨
        // birth > hi" — both comparisons are strict, so a node whose
        // retire era EQUALS the reservation's lo (or whose birth EQUALS
        // hi) must be kept. An off-by-one (`>` for `>=`) here frees a node
        // the reserving thread may be holding.
        let m = machine(1);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1, // every alloc bumps the era: tight intervals
        };
        let s = Ibr::new(&m, 2, cfg);
        let live = m.run_on(1, |_, ctx| {
            let mut writer = s.register(0);
            let mut reader = s.register(1);
            // Node A born now.
            let a = ctx.alloc();
            s.on_alloc(ctx, &mut writer, a);
            // Reader opens [e, e] at the current era.
            s.begin_op(ctx, &mut reader);
            // Retire A immediately: retire == reader's lo exactly (the
            // era has not moved since begin_op).
            s.begin_op(ctx, &mut writer);
            s.retire(ctx, &mut writer, a); // triggers a scan (freq 1)
            s.end_op(ctx, &mut writer);
            ctx.read(a) // A must still be valid memory
        });
        let _ = live;
        assert!(
            m.stats().allocated_not_freed >= 1,
            "node retired at retire == lo must survive the scan"
        );
        m.check_invariants();
    }

    #[test]
    fn scan_revisits_the_swapped_in_element() {
        crate::api::tests::one_scan_frees_both_of_two(|m, cfg| Ibr::new(m, 1, cfg), false);
    }

    #[test]
    fn birth_era_stamped_into_node() {
        let m = machine(1);
        let s = Ibr::new(&m, 1, SmrConfig::default());
        let node = m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            let n = ctx.alloc();
            s.on_alloc(ctx, &mut tls, n);
            n
        })[0];
        assert_eq!(m.host_read(node.word(NODE_BIRTH_WORD)), 1);
    }
}
