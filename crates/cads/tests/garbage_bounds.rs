//! The paper's §V robustness claim, as a regression test: with one thread
//! crashed **mid-operation** (an injected `FaultPlan::crash`, which
//! survivors cannot distinguish from an indefinite stall), the per-op
//! epoch schemes (qsbr, rcu) accumulate retired-but-unfreed garbage
//! *without bound* — the backlog grows with the survivors' work — while
//! the per-read schemes (hp, he, ibr) and Conditional Access stay
//! *bounded*: their peak garbage is independent of how long the survivors
//! keep running.
//!
//! "Unbounded" vs "bounded" is asserted as growth, not absolute size: each
//! scheme runs the same workload at K and 2K survivor iterations, and the
//! verdict is whether peak garbage tracked the extra work.

use cads::ca::stack::CaStack;
use cads::traits::{DsShared, StackDs};
use casmr::{with_scheme, GarbageStats, SchemeKind, Smr, SmrConfig};
use mcsim::machine::Ctx;
use mcsim::{Addr, FaultPlan, Machine, MachineConfig};

const THREADS: usize = 3;
const VICTIM: usize = 2;
const CRASH_AT: u64 = 20_000;

fn machine() -> Machine {
    Machine::new(MachineConfig {
        cores: THREADS,
        mem_bytes: 1 << 20,
        static_lines: 256,
        quantum: 0,
        fault_plan: FaultPlan::none().crash(VICTIM, CRASH_AT),
        // Backstop: the victim spins mid-operation until its crash fires;
        // if fault injection ever regressed, the watchdog turns the hang
        // into an attributable failure.
        max_cycles: Some(50_000_000),
        ..Default::default()
    })
}

fn cfg() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 8,
    }
}

/// Mailbox churn: threads 0 and 1 each publish a fresh node into their own
/// mailbox and retire the previous one, `iters` times. The victim opens an
/// operation, protects thread 0's mailbox node, and then reads it forever
/// — it is mid-operation when the injected crash fires.
fn run_scheme<S: for<'m> Smr<Ctx<'m>>>(m: &Machine, s: &S, iters: u64) -> GarbageStats {
    let mailboxes = [m.alloc_static(1), m.alloc_static(1)];
    let outs = m.run_recover_on(
        THREADS,
        |tid, ctx| {
            let mut tls = s.register(tid);
            if tid == VICTIM {
                s.begin_op(ctx, &mut tls);
                loop {
                    let _ = s.read_ptr(ctx, &mut tls, 0, mailboxes[0]);
                }
            }
            let mailbox = mailboxes[tid];
            let mut prev = Addr::NULL;
            for i in 0..iters {
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
                ctx.op_completed();
            }
            s.garbage(&tls)
        },
        |_, _| unreachable!("plan has no restarts"),
    );
    assert!(outs[VICTIM].crashed(), "{}: victim must crash", s.name());
    let mut total = GarbageStats::default();
    for o in outs {
        if let mcsim::CoreOutcome::Done(g) = o {
            total.merge(&g);
        }
    }
    total
}

#[test]
fn crashed_thread_pins_epoch_schemes_but_not_hazard_schemes() {
    const K: u64 = 300;

    // Peak garbage after K and after 2K survivor iterations per thread.
    let probe = |kind: SchemeKind| {
        let at = |iters: u64| {
            let m = machine();
            with_scheme!(kind, &m, THREADS, cfg(), |s| run_scheme(&m, &s, iters))
        };
        (at(K), at(2 * K))
    };

    // qsbr / rcu / none: the crashed thread pins everything retired after
    // it went silent, so peak garbage grows with the survivors' work.
    for name in [SchemeKind::Qsbr, SchemeKind::Rcu, SchemeKind::None] {
        let (k, k2) = probe(name);
        assert!(
            k2.peak >= k.peak + K / 2,
            "{name}: expected unbounded growth, peak {} -> {} over {K} extra iters/thread",
            k.peak,
            k2.peak
        );
        assert!(
            k2.freed <= k2.retired / 4,
            "{name}: a crashed thread should pin most of the backlog \
             (freed {} of {})",
            k2.freed,
            k2.retired
        );
    }

    // hp / he / ibr: protection is per-read, so the crashed thread pins
    // only what it could actually have been reading — peak garbage is
    // (near-)independent of how long the survivors run.
    for name in [SchemeKind::Hp, SchemeKind::He, SchemeKind::Ibr] {
        let (k, k2) = probe(name);
        let slack = 32; // scan cadence (reclaim_freq per thread) + pinned window
        assert!(
            k2.peak <= k.peak + slack,
            "{name}: expected bounded garbage, peak {} -> {} over {K} extra iters/thread",
            k.peak,
            k2.peak
        );
        assert!(
            k2.freed >= k2.retired / 2,
            "{name}: survivors must keep reclaiming ({} of {} freed)",
            k2.freed,
            k2.retired
        );
    }
}

#[test]
fn crashed_thread_leaves_ca_footprint_bounded() {
    // Conditional Access frees inside the operation, so a crashed thread
    // costs at most the O(1) nodes it had in flight: the total footprint
    // after heavy churn is the live stack plus a constant, independent of
    // the iteration count.
    let footprint = |iters: u64| {
        let m = machine();
        let stack = CaStack::new(&m);
        let outs = m.run_recover_on(
            THREADS,
            |tid, ctx| {
                stack.register(tid);
                if tid == VICTIM {
                    loop {
                        stack.push(ctx, &mut (), 7);
                        let _ = stack.pop(ctx, &mut ());
                    }
                }
                for i in 0..iters {
                    stack.push(ctx, &mut (), i);
                    let _ = stack.pop(ctx, &mut ());
                    ctx.op_completed();
                }
            },
            |_, _| unreachable!("plan has no restarts"),
        );
        assert!(outs[VICTIM].crashed(), "ca: victim must crash");
        m.stats().allocated_not_freed
    };
    let small = footprint(300);
    let large = footprint(600);
    assert!(
        small <= 4 && large <= 4,
        "ca: immediate reclamation must keep the footprint O(1) even with \
         a crashed thread (got {small} then {large})"
    );
}
