//! Quiescent-state-based reclamation (`qsbr`).
//!
//! The cheapest correct baseline in the paper: **zero per-read overhead**.
//! Each thread announces the global epoch it has observed whenever it is
//! quiescent (between operations, holding no references). A node retired
//! while the epoch was `E` may be freed once every thread has announced an
//! epoch `≥ E + 1`: the epoch only advances past `E` after the node was
//! unlinked, so an announcement of `E + 1` proves a quiescent point after
//! the unlink, after which the node is unreachable.
//!
//! Costs: one plain load + one plain store per *operation* (the
//! announcement — no *charged* fence: QSBR's claim to fame; the native
//! backend still issues an uncosted ordering barrier, see
//! [`crate::env::Env::smr_fence`]), plus the periodic scan of all threads'
//! announcements. Weakness (paper §V): one stalled thread
//! stops the epoch ratchet for everyone and the retired backlog grows
//! without bound.

use mcsim::Addr;

use crate::api::{
    oldest_active, per_thread_lines, EraClock, RetireBag, Retired, Smr, SmrBase, SmrConfig,
    INACTIVE,
};
use crate::env::{Env, EnvHost};

/// QSBR scheme state (shared across threads).
pub struct Qsbr {
    clock: EraClock,
    /// Per-thread announcement lines (word 0 = last announced epoch).
    announce: Vec<Addr>,
    cfg: SmrConfig,
}

/// Per-thread QSBR state.
pub struct QsbrTls {
    bag: RetireBag,
    alloc_count: u64,
}

impl Qsbr {
    /// Build the scheme for `threads` threads, allocating its shared
    /// metadata (one epoch line + one announcement line per thread).
    pub fn new<H: EnvHost + ?Sized>(host: &H, threads: usize, cfg: SmrConfig) -> Self {
        let clock = EraClock::new(host);
        // Wedge attribution: a never-announcing thread holds announce = 0,
        // the oldest possible value — exactly the thread pinning everyone.
        // INACTIVE marks departed members, which constrain nothing.
        let announce = per_thread_lines(host, threads, "qsbr.announce", 0, 1, INACTIVE);
        Self {
            clock,
            announce,
            cfg,
        }
    }
}

impl SmrBase for Qsbr {
    type Tls = QsbrTls;

    fn register(&self, tid: usize) -> QsbrTls {
        QsbrTls {
            bag: RetireBag::new(tid, self.cfg.reclaim_freq),
            alloc_count: 0,
        }
    }

    fn bag(tls: &QsbrTls) -> &RetireBag {
        &tls.bag
    }

    fn bag_mut(tls: &mut QsbrTls) -> &mut RetireBag {
        &mut tls.bag
    }

    fn name(&self) -> &'static str {
        "qsbr"
    }
}

impl<E: Env + ?Sized> Smr<E> for Qsbr {
    /// Quiescent-state announcement: observe the epoch, publish it. No
    /// fence is *charged* (QSBR's zero-per-read claim in the figures), but
    /// on real hardware the announcement must be ordered before the next
    /// operation's reads — announcing epoch `e` asserts "I hold nothing
    /// from before `e`", which is false if a later read executes early and
    /// catches a node whose unlink is still store-buffered elsewhere.
    /// liburcu's QSBR issues the same barrier in `rcu_quiescent_state()`;
    /// the simulator leaves it a no-op (see `Env::smr_fence`).
    #[inline]
    fn end_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        let e = self.clock.read(ctx);
        ctx.write(self.announce[tls.bag.tid], e);
        ctx.smr_fence();
    }

    #[inline]
    fn on_alloc(&self, ctx: &mut E, tls: &mut Self::Tls, _node: Addr) {
        self.clock
            .on_alloc(ctx, &mut tls.alloc_count, self.cfg.epoch_freq);
    }

    fn stamp(&self, ctx: &mut E, node: Addr) -> Retired {
        // Order the caller's unlink store before the retire-epoch read and
        // the announcement snapshot in `scan` (po-after this call); a
        // store-buffered unlink would otherwise yield a too-old stamp that
        // the free rule clears while a reader can still reach the node.
        // No-op in the simulator — see `Env::smr_fence`.
        ctx.smr_fence();
        Retired {
            addr: node,
            birth: 0,
            retire: self.clock.read(ctx),
        }
    }

    /// Free what was retired before the oldest announcement.
    fn scan(&self, ctx: &mut E, tls: &mut QsbrTls) {
        let min_announce = oldest_active(ctx, &self.announce);
        tls.bag.sweep(ctx, |r| r.retire >= min_announce);
    }

    /// Deregister `tid`: [`INACTIVE`] is terminal quiescence, which scans
    /// skip — the member no longer gates the epoch ratchet. On the crash
    /// leg this writes over an announcement the thread never made: qsbr's
    /// deepest recovery obligation (a silent member otherwise pins *every*
    /// retire forever), sound only under the fail-stop declaration the
    /// [`crate::recovery::CrashToken`] certifies: the dead thread will
    /// never read again, so the quiescence being asserted on its behalf
    /// is vacuously true.
    fn revoke(&self, ctx: &mut E, tid: usize) {
        ctx.write(self.announce[tid], INACTIVE);
    }

    /// Come online: announce the current epoch *before* the first
    /// operation. The slot may still read [`INACTIVE`] from a previous
    /// member's departure; starting to traverse while scans ignore this
    /// thread would be a use-after-free, so the announcement (with the
    /// reader-side ordering barrier) must precede any protected read —
    /// the same contract as liburcu's `rcu_thread_online()`.
    fn join(&self, ctx: &mut E, tid: usize) -> Self::Tls {
        let tls = self.register(tid);
        let e = self.clock.read(ctx);
        ctx.write(self.announce[tid], e);
        ctx.smr_fence();
        tls
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
    fn frees_after_grace_period() {
        let m = machine(1);
        // Tiny frequencies so the test exercises the full cycle quickly.
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 2,
        };
        let s = Qsbr::new(&m, 1, cfg);
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
        let live = m.stats().allocated_not_freed;
        assert!(
            live < 10,
            "single-threaded qsbr with epoch_freq=2 must reclaim almost \
             everything, found {live} unreclaimed"
        );
    }

    #[test]
    fn stalled_thread_blocks_reclamation() {
        // The §V weakness: thread 1 never announces, so thread 0 can free
        // nothing, no matter how much it retires.
        let m = machine(2);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1,
        };
        let s = Qsbr::new(&m, 2, cfg);
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 1 {
                return; // never announces anything beyond the initial 0
            }
            for _ in 0..40 {
                s.begin_op(ctx, &mut tls);
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n);
                s.end_op(ctx, &mut tls);
            }
        });
        assert_eq!(
            m.stats().allocated_not_freed,
            40,
            "a silent thread must pin every retired node"
        );
    }

    #[test]
    fn no_use_after_free_under_concurrency() {
        // Two threads hand nodes through a shared mailbox; the reader reads
        // the node's payload. The UAF detector (armed by default) fails the
        // test if qsbr ever frees a node the reader can still reach.
        let m = machine(2);
        let mailbox = m.alloc_static(1);
        let s = Qsbr::new(
            &m,
            2,
            SmrConfig {
                reclaim_freq: 4,
                epoch_freq: 3,
            },
        );
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 0 {
                // Writer: publish node, then retire the previous one.
                let mut prev = Addr::NULL;
                for i in 0..100u64 {
                    s.begin_op(ctx, &mut tls);
                    let n = ctx.alloc();
                    s.on_alloc(ctx, &mut tls, n);
                    ctx.write(n, i);
                    ctx.write(mailbox, n.0);
                    if !prev.is_null() {
                        s.retire(ctx, &mut tls, prev);
                    }
                    prev = n;
                    s.end_op(ctx, &mut tls);
                }
            } else {
                // Reader: protected read of the mailbox, then dereference.
                for _ in 0..100 {
                    s.begin_op(ctx, &mut tls);
                    let p = s.read_ptr(ctx, &mut tls, 0, mailbox);
                    if p != 0 {
                        let _ = ctx.read(Addr(p)); // must never be freed memory
                    }
                    s.end_op(ctx, &mut tls);
                }
            }
        });
        m.check_invariants();
    }
}
