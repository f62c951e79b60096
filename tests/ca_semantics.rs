//! End-to-end checks of the paper's central claims, run against the full
//! stack (ISA semantics + coherence + data structures).

mod common;

use common::machine;
use conditional_access::ca::attempt_loop;
use conditional_access::ds::ca::{CaLazyList, CaStack};
use conditional_access::ds::layout::{W_KEY, W_NEXT};
use conditional_access::ds::{SetDs, StackDs};
use conditional_access::sim::machine::Ctx;
use conditional_access::sim::{Addr, Machine, MachineConfig, Rng, UafMode};

/// Theorem 6 (safety): no CA structure ever touches reclaimed memory.
/// The detector is armed in Panic mode; heavy churn with immediate reuse
/// (per-core LIFO free lists guarantee address recycling) must complete.
#[test]
fn theorem6_no_use_after_free_under_heavy_reuse() {
    let m = machine(4, 0);
    let list = CaLazyList::new(&m);
    m.run_on(4, |tid, ctx| {
        let mut tls = ();
        let mut rng = Rng::new(tid as u64);
        // Tiny key range: constant delete/insert of the same keys, so the
        // allocator recycles lines as fast as they are freed.
        for _ in 0..400 {
            let k = 1 + rng.below(8);
            if rng.below(2) == 0 {
                list.insert(ctx, &mut tls, k);
            } else {
                list.delete(ctx, &mut tls, k);
            }
        }
    });
    m.check_invariants();
}

/// Theorem 7 (ABA freedom): a value-equal but recycled node must never make
/// a cwrite succeed. The stack test recycles addresses aggressively; exact
/// value conservation proves no ABA corruption occurred.
#[test]
fn theorem7_aba_freedom_exact_counts() {
    let m = machine(4, 0);
    let st = CaStack::new(&m);
    let pushed_minus_popped: i64 = m
        .run_on(4, |tid, ctx| {
            let mut tls = ();
            let mut rng = Rng::new(99 + tid as u64);
            let mut net = 0i64;
            for i in 0..500u64 {
                if rng.below(2) == 0 {
                    st.push(ctx, &mut tls, i);
                    net += 1;
                } else if st.pop(ctx, &mut tls).is_some() {
                    net -= 1;
                }
            }
            net
        })
        .iter()
        .sum();
    let drained = m.run_on(1, |_, ctx| {
        let mut tls = ();
        let mut n = 0i64;
        while st.pop(ctx, &mut tls).is_some() {
            n += 1;
        }
        n
    });
    assert_eq!(drained[0], pushed_minus_popped);
    assert_eq!(m.stats().allocated_not_freed, 0);
}

/// A Treiber stack that frees in `pop` with nothing but plain CAS: what
/// "just free it" looks like without Conditional Access (§IV-A).
struct BrokenStack {
    top: Addr,
}

impl BrokenStack {
    fn push(&self, ctx: &mut Ctx, value: u64) {
        let n = ctx.alloc();
        ctx.write(n.word(W_KEY), value);
        loop {
            let t = ctx.read(self.top);
            ctx.write(n.word(W_NEXT), t);
            if ctx.cas(self.top, t, n.0).is_ok() {
                return;
            }
        }
    }

    fn pop(&self, ctx: &mut Ctx) -> Option<u64> {
        loop {
            let t = ctx.read(self.top);
            if t == 0 {
                return None;
            }
            // `t` may already be freed: this read is the use-after-free the
            // detector records. Were it to survive, the CAS below compares
            // only the address, so a recycled node slips through (ABA).
            let next = ctx.read(Addr(t).word(W_NEXT));
            if ctx.cas(self.top, t, next).is_ok() {
                let v = ctx.read(Addr(t).word(W_KEY));
                ctx.free(Addr(t));
                return Some(v);
            }
        }
    }
}

/// §IV-A's ABA scenario, both ways, under the same 4-thread push/pop churn
/// with immediate reuse: the plain-CAS stack reads freed memory, while
/// Algorithm 1's `cwrite` fails on the invalidated line instead of comparing
/// values, so the CA stack never does and ends with nothing allocated.
#[test]
fn plain_cas_free_in_pop_faults_where_ca_stack_does_not() {
    let recording = || {
        Machine::new(MachineConfig {
            cores: 4,
            uaf_mode: UafMode::Record,
            ..Default::default()
        })
    };
    let m = recording();
    let broken = BrokenStack {
        top: m.alloc_static(1),
    };
    m.run_on(4, |tid, ctx| {
        for i in 0..2000u64 {
            broken.push(ctx, (tid as u64) << 32 | i);
            broken.pop(ctx);
        }
    });
    assert!(
        !m.faults().is_empty(),
        "the plain-CAS stack must read freed memory"
    );

    let m = recording();
    let st = CaStack::new(&m);
    m.run_on(4, |tid, ctx| {
        let mut tls = ();
        for i in 0..2000u64 {
            st.push(ctx, &mut tls, (tid as u64) << 32 | i);
            st.pop(ctx, &mut tls);
        }
    });
    let faults = m.faults();
    assert!(
        faults.is_empty(),
        "CA stack faulted {} times, first {:?}",
        faults.len(),
        faults[0]
    );
    assert_eq!(m.stats().allocated_not_freed, 0);
}

/// §V (memory): the CA lazy list's footprint equals its live set at every
/// sample point, not just at the end.
#[test]
fn footprint_tracks_live_set_throughout() {
    let m = Machine::new(MachineConfig {
        cores: 4,
        sample_every: Some(200),
        ..Default::default()
    });
    let list = CaLazyList::new(&m);
    m.run_on(4, |tid, ctx| {
        let mut tls = ();
        let mut rng = Rng::new(7 + tid as u64);
        for _ in 0..500 {
            let k = 1 + rng.below(64);
            if rng.below(2) == 0 {
                list.insert(ctx, &mut tls, k);
            } else {
                list.delete(ctx, &mut tls, k);
            }
            ctx.op_completed();
        }
    });
    for (ops, live) in m.footprint_samples() {
        assert!(
            live <= 64 + 4,
            "at {ops} ops: {live} nodes allocated, but the live set is ≤ 64 \
             (+1 in-flight node per thread)"
        );
    }
}

/// §II-B: a failed conditional access touches no memory — demonstrated by
/// the detector staying silent while a thread retries against a location
/// that is repeatedly freed (Record mode, manual orchestration).
#[test]
fn failed_creads_do_not_touch_freed_memory() {
    let m = Machine::new(MachineConfig {
        cores: 2,
        uaf_mode: UafMode::Record,
        ..Default::default()
    });
    let mailbox = m.alloc_static(1);
    let rounds = 50u64;
    m.run_on(2, |tid, ctx| {
        if tid == 0 {
            // Publisher: allocate, publish, withdraw (write), free.
            for i in 0..rounds {
                let n = ctx.alloc();
                ctx.write(n, i);
                ctx.write(mailbox, n.0);
                ctx.write(mailbox, 0); // write-before-free on the tagged cell
                ctx.write(n, 0); // write-before-free on the node itself
                ctx.free(n);
            }
        } else {
            // Reader: cread mailbox, then conditionally cread the node.
            for _ in 0..rounds {
                attempt_loop(ctx, Ctx::untag_all, |ctx| {
                    let p = ctx.cread(mailbox)?;
                    if p == 0 {
                        return Ok(());
                    }
                    // The node can be freed at any time; if this succeeds
                    // the memory must still be live (detector checks).
                    ctx.cread(Addr(p))?;
                    Ok(())
                });
            }
        }
    });
    assert!(
        m.faults().is_empty(),
        "a successful cread read freed memory: {:?}",
        m.faults()
    );
}

/// The generalized LL/SC view (§I): one cwrite conditioned on three loads.
#[test]
fn multiword_atomic_snapshot_update() {
    let m = machine(3, 0);
    let a = m.alloc_static(1);
    let b = m.alloc_static(1);
    let sum = m.alloc_static(1);
    // Two incrementers race on a and b; one aggregator maintains
    // sum := a + b atomically w.r.t. both inputs.
    m.run_on(3, |tid, ctx| {
        if tid < 2 {
            let target = if tid == 0 { a } else { b };
            for _ in 0..50 {
                attempt_loop(ctx, Ctx::untag_all, |ctx| {
                    let v = ctx.cread(target)?;
                    ctx.cwrite(target, v + 1)
                });
            }
        } else {
            for _ in 0..100 {
                attempt_loop(ctx, Ctx::untag_all, |ctx| {
                    let va = ctx.cread(a)?;
                    let vb = ctx.cread(b)?;
                    ctx.cread(sum)?;
                    ctx.cwrite(sum, va + vb)
                });
            }
        }
    });
    // The final aggregation may predate the last increments, but a, b only
    // grow; run one more aggregation to quiesce.
    m.run_on(1, |_, ctx| {
        attempt_loop(ctx, Ctx::untag_all, |ctx| {
            let va = ctx.cread(a)?;
            let vb = ctx.cread(b)?;
            ctx.cread(sum)?;
            ctx.cwrite(sum, va + vb)
        });
    });
    assert_eq!(m.host_read(a), 50);
    assert_eq!(m.host_read(b), 50);
    assert_eq!(m.host_read(sum), 100);
}

/// Spurious failures must degrade, never corrupt (the paper's §III
/// discussion). A deliberately tiny *shared L2* lets a streaming neighbour
/// core back-invalidate the CA thread's tagged lines, forcing spurious
/// revokes; the CA thread keeps retrying and must finish with exact
/// semantics.
///
/// (Note: an L1 whose associativity is smaller than the tag window — e.g.
/// direct-mapped with the 3-line traversal window — livelocks
/// deterministically, which is precisely why §III prescribes a fallback for
/// such hardware. The `attempt_loop` retry ceiling converts that livelock
/// into a loud panic; here we stay in the regime where progress is
/// guaranteed.)
#[test]
fn tiny_l2_spurious_failures_are_safe() {
    let m = Machine::new(MachineConfig {
        cores: 2,
        cache: conditional_access::sim::CacheConfig {
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l2_bytes: 2048, // 32 lines shared: constant back-invalidations
            l2_assoc: 4,
            ..Default::default()
        },
        mem_bytes: 16 << 20,
        ..Default::default()
    });
    let list = CaLazyList::new(&m);
    let scratch = m.alloc_static(64); // the neighbour's streaming buffer
    m.run_on(2, |tid, ctx| {
        let mut tls = ();
        if tid == 1 {
            // Stream over 64 lines, thrashing the shared L2.
            for round in 0..60u64 {
                for i in 0..64u64 {
                    let _ = ctx.read(scratch.word(i * 8 + round % 8));
                }
            }
            return;
        }
        for i in 0..60u64 {
            let k = 1 + i % 12;
            assert!(list.insert(ctx, &mut tls, k) || list.delete(ctx, &mut tls, k));
        }
    });
    let stats = m.stats();
    assert!(
        stats.cores[0].revoke_l2_evict > 0,
        "the streaming neighbour must back-invalidate tagged lines"
    );
    m.check_invariants();
}
