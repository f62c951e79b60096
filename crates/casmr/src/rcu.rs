//! Epoch-based read-side critical sections (`rcu` in the paper's figures;
//! a user-space RCU, equivalently classic EBR).
//!
//! Unlike [`crate::qsbr::Qsbr`], a thread explicitly *pins* the current
//! epoch when an operation starts (publish + fence) and unpins when it ends.
//! This costs two stores and a fence per operation — still nothing per read,
//! which is why rcu tracks the `none` baseline closely in the paper — but
//! does not require the application to identify quiescent states.
//!
//! Free rule: a node retired at epoch `E` may be freed once every thread is
//! either unpinned or pinned at an epoch `≥ E + 1` (its critical section
//! started after the node was unlinked, so it cannot reach it).

use mcsim::Addr;

use crate::api::{
    oldest_active, per_thread_lines, EraClock, RetireBag, Retired, Smr, SmrBase, SmrConfig,
    INACTIVE,
};
use crate::env::{Env, EnvHost};

/// RCU/EBR scheme state.
pub struct Rcu {
    clock: EraClock,
    /// Per-thread pin lines (word 0 = pinned epoch, or [`INACTIVE`]).
    pins: Vec<Addr>,
    cfg: SmrConfig,
}

/// Per-thread RCU state.
pub struct RcuTls {
    bag: RetireBag,
    alloc_count: u64,
}

impl Rcu {
    /// Build the scheme, allocating its shared metadata.
    pub fn new<H: EnvHost + ?Sized>(host: &H, threads: usize, cfg: SmrConfig) -> Self {
        let clock = EraClock::new(host);
        // Wedge attribution: the oldest (lowest) pinned epoch is the reader
        // blocking reclamation; INACTIVE threads hold nothing.
        let pins = per_thread_lines(host, threads, "rcu.pins", INACTIVE, 1, INACTIVE);
        Self { clock, pins, cfg }
    }
}

impl SmrBase for Rcu {
    type Tls = RcuTls;

    fn register(&self, tid: usize) -> RcuTls {
        RcuTls {
            bag: RetireBag::new(tid, self.cfg.reclaim_freq),
            alloc_count: 0,
        }
    }

    fn bag(tls: &RcuTls) -> &RetireBag {
        &tls.bag
    }

    fn bag_mut(tls: &mut RcuTls) -> &mut RetireBag {
        &mut tls.bag
    }

    fn name(&self) -> &'static str {
        "rcu"
    }
}

impl<E: Env + ?Sized> Smr<E> for Rcu {
    /// Pin: publish the observed epoch, fence so subsequent reads cannot be
    /// reordered before the publication.
    #[inline]
    fn begin_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        let e = self.clock.read(ctx);
        ctx.write(self.pins[tls.bag.tid], e);
        ctx.fence();
    }

    /// Unpin (plain store; release ordering suffices in a real machine).
    #[inline]
    fn end_op(&self, ctx: &mut E, tls: &mut Self::Tls) {
        ctx.write(self.pins[tls.bag.tid], INACTIVE);
    }

    #[inline]
    fn on_alloc(&self, ctx: &mut E, tls: &mut Self::Tls, _node: Addr) {
        self.clock
            .on_alloc(ctx, &mut tls.alloc_count, self.cfg.epoch_freq);
    }

    fn stamp(&self, ctx: &mut E, node: Addr) -> Retired {
        // Order the caller's unlink store before the retire-epoch read and
        // the pin snapshot in `scan` (po-after this call): a stamp read
        // while the unlink is still store-buffered can be too old, letting
        // the free rule clear a node a pinned reader can still reach.
        // No-op in the simulator — see `Env::smr_fence`.
        ctx.smr_fence();
        Retired {
            addr: node,
            birth: 0,
            retire: self.clock.read(ctx),
        }
    }

    /// Freeable iff every pinned thread started at retire+1 or later: the
    /// oldest epoch any thread could be reading in bounds the sweep.
    fn scan(&self, ctx: &mut E, tls: &mut RcuTls) {
        let min_pinned = oldest_active(ctx, &self.pins);
        tls.bag.sweep(ctx, |r| r.retire >= min_pinned);
    }

    /// Unpin `tid`. Idempotent for a graceful leave (depart is called
    /// between operations, where the pin is already [`INACTIVE`]); a
    /// thread that crashed *inside* a critical section leaves its pin
    /// published forever — the epoch-based analogue of qsbr's silent
    /// member — so the crash leg forcibly unpins it. Sound only under the
    /// fail-stop declaration ([`crate::recovery::CrashToken`]): the dead
    /// reader will never dereference anything its pin was guarding.
    fn revoke(&self, ctx: &mut E, tid: usize) {
        ctx.write(self.pins[tid], INACTIVE);
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
    fn inactive_threads_do_not_block_reclamation() {
        // Contrast with qsbr::stalled_thread_blocks_reclamation: an idle
        // rcu thread is unpinned, so the worker can reclaim.
        let m = machine(2);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 2,
        };
        let s = Rcu::new(&m, 2, cfg);
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 1 {
                return; // idle, pin stays INACTIVE
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
        assert!(
            m.stats().allocated_not_freed < 10,
            "idle rcu threads must not pin memory, found {}",
            m.stats().allocated_not_freed
        );
    }

    #[test]
    fn pinned_thread_blocks_reclamation() {
        let m = machine(2);
        let cfg = SmrConfig {
            reclaim_freq: 1,
            epoch_freq: 1,
        };
        let s = Rcu::new(&m, 2, cfg);
        let done = m.alloc_static(1);
        m.run_on(2, |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == 1 {
                // Pin once and hold the critical section open while the
                // worker churns.
                s.begin_op(ctx, &mut tls);
                while ctx.read(done) == 0 {
                    ctx.tick(10);
                }
                s.end_op(ctx, &mut tls);
                return;
            }
            for _ in 0..40 {
                s.begin_op(ctx, &mut tls);
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n);
                s.end_op(ctx, &mut tls);
            }
            ctx.write(done, 1);
        });
        // Thread 1 was pinned at the initial epoch the whole time: nothing
        // retired after its pin may be freed. A handful of nodes retired at
        // epoch values below the pin could go, but with epoch_freq=1 and the
        // pin taken at the start, effectively everything is held.
        assert!(
            m.stats().allocated_not_freed >= 35,
            "a pinned reader must hold retired nodes, found only {}",
            m.stats().allocated_not_freed
        );
    }

    #[test]
    fn fences_are_charged_per_operation() {
        let m = machine(1);
        let s = Rcu::new(&m, 1, SmrConfig::default());
        m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            for _ in 0..10 {
                s.begin_op(ctx, &mut tls);
                s.end_op(ctx, &mut tls);
            }
        });
        assert_eq!(
            m.stats().sum(|c| c.fences),
            10,
            "one fence per op (pin), none per read"
        );
    }
}
