//! Michael–Scott queue over a pluggable SMR scheme (Michael & Scott,
//! PODC'96, with Michael's hazard-pointer protocol from the HP paper).
//!
//! Protection discipline in `dequeue` (the delicate part):
//! 1. protect `head`'s target (slot 0);
//! 2. protect `head→next`'s target (slot 1) — the read_ptr revalidation
//!    pins `h.next == next` after the hazard is visible;
//! 3. for hazard-based schemes, re-check `head == h`: if `h` is still the
//!    head it was not retired when the hazards were published, and the
//!    successor of a linked dummy is linked too. Epoch/interval schemes
//!    skip this (retroactive protection).
//!
//! `tail` never overtakes pending nodes and dequeuers help lagging tails,
//! so the node `tail` names is never retired — the enqueue-side CAS on
//! `tail` is ABA-safe once its target is protected.

use casmr::{Env, EnvHost, Smr, SmrBase};
use mcsim::Addr;

use crate::layout::{TICK_PER_OP, W_KEY, W_NEXT};
use crate::traits::{DsShared, QueueDs};

/// The SMR-parameterized MS queue.
pub struct SmrQueue<S> {
    head: Addr,
    tail: Addr,
    smr: S,
}

impl<S> SmrQueue<S> {
    /// Build an empty queue (heap-allocated initial dummy).
    pub fn new<H: EnvHost + ?Sized>(host: &H, smr: S) -> Self {
        let head = host.alloc_static(1);
        let tail = host.alloc_static(1);
        let q = Self { head, tail, smr };
        host.run_init(|env| {
            let dummy = env.alloc();
            env.write(dummy.word(W_NEXT), 0);
            env.write(head, dummy.0);
            env.write(tail, dummy.0);
        });
        q
    }

    /// The underlying scheme.
    pub fn smr(&self) -> &S {
        &self.smr
    }
}

impl<S: SmrBase> DsShared for SmrQueue<S> {
    type Tls = S::Tls;

    fn register(&self, tid: usize) -> Self::Tls {
        self.smr.register(tid)
    }
}

impl<E: Env + ?Sized, S: Smr<E>> QueueDs<E> for SmrQueue<S> {
    fn enqueue(&self, ctx: &mut E, tls: &mut Self::Tls, value: u64) {
        let n = ctx.alloc();
        self.smr.on_alloc(ctx, tls, n);
        ctx.write(n.word(W_KEY), value);
        ctx.write(n.word(W_NEXT), 0);
        self.smr.begin_op(ctx, tls);
        loop {
            ctx.tick(TICK_PER_OP);
            let t = self.smr.read_ptr(ctx, tls, 0, self.tail);
            let t = Addr(t);
            let next = ctx.read(t.word(W_NEXT)); // t protected
            if next != 0 {
                // Help the lagging tail. `next` is ahead of `tail`, so its
                // node is not retired (head never passes tail).
                let _ = ctx.cas(self.tail, t.0, next);
                continue;
            }
            if ctx.cas(t.word(W_NEXT), 0, n.0).is_ok() {
                let _ = ctx.cas(self.tail, t.0, n.0);
                break;
            }
        }
        self.smr.end_op(ctx, tls);
    }

    fn dequeue(&self, ctx: &mut E, tls: &mut Self::Tls) -> Option<u64> {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            ctx.tick(TICK_PER_OP);
            let h = Addr(self.smr.read_ptr(ctx, tls, 0, self.head));
            let next = self.smr.read_ptr(ctx, tls, 1, h.word(W_NEXT));
            if self.smr.needs_validation() && ctx.read(self.head) != h.0 {
                // h was dequeued before `next`'s hazard landed; its frozen
                // next pointer may name a retired node. Retry.
                continue;
            }
            let t = ctx.read(self.tail);
            if h.0 == t {
                if next == 0 {
                    break None; // empty
                }
                let _ = ctx.cas(self.tail, t, next); // help
                continue;
            }
            if next == 0 {
                // Inconsistent snapshot, NOT an empty queue: `h.next` was
                // read while the queue was empty, and other threads then
                // enqueued (moving `tail` past `h`) before our `tail` read.
                // Classic Michael–Scott re-validates `head == h` here for
                // every scheme; this code only does that re-read for
                // hazard-based schemes (`needs_validation`), so without
                // this retry the epoch/leaky schemes fell through and
                // dereferenced `Addr(0)` — a null read that, in
                // `UafMode::Record`, went on to CAS `head` to 0 and wedge
                // the queue permanently.
                continue;
            }
            let next = Addr(next);
            let v = ctx.read(next.word(W_KEY)); // next protected
            if ctx.cas(self.head, h.0, next.0).is_ok() {
                self.smr.retire(ctx, tls, h);
                break Some(v);
            }
        };
        self.smr.end_op(ctx, tls);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casmr::{with_scheme, Hp, Leaky, Qsbr, SchemeKind, SmrConfig};
    use mcsim::{Machine, MachineConfig, Rng};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 8 << 20,
            static_lines: 256,
            quantum: 0,
            ..Default::default()
        })
    }

    fn fifo_smoke<S: for<'m> Smr<mcsim::machine::Ctx<'m>>>(m: &Machine, q: &SmrQueue<S>) {
        m.run_on(1, |_, ctx| {
            let mut t = q.register(0);
            assert_eq!(q.dequeue(ctx, &mut t), None);
            for v in 1..=10 {
                q.enqueue(ctx, &mut t, v);
            }
            for v in 1..=10 {
                assert_eq!(q.dequeue(ctx, &mut t), Some(v));
            }
            assert_eq!(q.dequeue(ctx, &mut t), None);
        });
    }

    #[test]
    fn fifo_all_schemes() {
        for kind in SchemeKind::objects() {
            let m = machine(1);
            with_scheme!(kind, &m, 1, SmrConfig::default(), |s| {
                fifo_smoke(&m, &SmrQueue::new(&m, s))
            });
        }
    }

    #[test]
    fn hp_producer_consumer_stress() {
        let m = machine(4);
        let s = Hp::new(
            &m,
            4,
            SmrConfig {
                reclaim_freq: 4,
                ..Default::default()
            },
        );
        let q = SmrQueue::new(&m, s);
        let done = m.alloc_static(1);
        let results = m.run_on(4, |tid, ctx| {
            let mut t = q.register(tid);
            if tid < 2 {
                for i in 0..80u64 {
                    q.enqueue(ctx, &mut t, (tid as u64) << 32 | i);
                }
                loop {
                    let d = ctx.read(done);
                    if ctx.cas(done, d, d + 1).is_ok() {
                        break;
                    }
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                loop {
                    match q.dequeue(ctx, &mut t) {
                        Some(v) => got.push(v),
                        None => {
                            if ctx.read(done) == 2 && q.dequeue(ctx, &mut t).is_none() {
                                break;
                            }
                            ctx.tick(20);
                        }
                    }
                }
                got
            }
        });
        let consumed: Vec<u64> = results.into_iter().flatten().collect();
        assert_eq!(consumed.len(), 160);
        m.check_invariants();
    }

    #[test]
    fn footprint_bounded_with_reclaiming_scheme() {
        let m = machine(1);
        let s = Qsbr::new(
            &m,
            1,
            SmrConfig {
                reclaim_freq: 5,
                epoch_freq: 5,
            },
        );
        let q = SmrQueue::new(&m, s);
        m.run_on(1, |_, ctx| {
            let mut t = q.register(0);
            for v in 0..200 {
                q.enqueue(ctx, &mut t, v);
                q.dequeue(ctx, &mut t);
            }
        });
        assert!(
            m.stats().allocated_not_freed < 50,
            "qsbr must bound the dummy churn, got {}",
            m.stats().allocated_not_freed
        );
    }

    #[test]
    #[allow(clippy::let_unit_value)] // Leaky's Tls is (), bound for symmetry
    fn dequeue_retries_on_stale_null_next_snapshot() {
        // Regression: `dequeue` reads `h.next` *before* `tail` and only
        // re-validated `head` for hazard-based schemes. Under epoch/leaky
        // schemes this deterministic interleaving (4 threads, quantum 64)
        // produced `next == 0` with `h != t` — an empty-queue snapshot
        // gone stale — and dereferenced `Addr(0)`: a null read that the
        // UAF detector flagged (and that, in Record mode, CASed `head` to
        // 0 and wedged the queue forever). The fix retries the
        // inconsistent snapshot; this exact workload must now conserve
        // values with the detector armed.
        let m = Machine::new(MachineConfig {
            cores: 4,
            mem_bytes: 32 << 20,
            static_lines: 2048,
            quantum: 64,
            ..Default::default()
        });
        let q = SmrQueue::new(&m, Leaky::new());
        let outs = m.run_on(4, |tid, ctx| {
            let mut tls = q.register(tid);
            let mut rng = Rng::new(0xD1FF ^ ((tid as u64) << 32));
            let (mut enq, mut deq) = (0i64, 0i64);
            for _ in 0..250 {
                if rng.below(2) == 0 {
                    q.enqueue(ctx, &mut tls, 1 + rng.below(48));
                    enq += 1;
                } else if q.dequeue(ctx, &mut tls).is_some() {
                    deq += 1;
                }
            }
            (enq, deq)
        });
        let (enq, deq): (i64, i64) = outs.iter().fold((0, 0), |(a, b), &(e, d)| (a + e, b + d));
        let drained = m.run_on(1, |_, ctx| {
            let mut tls = q.register(0);
            let mut n = 0i64;
            while q.dequeue(ctx, &mut tls).is_some() {
                n += 1;
            }
            n
        })[0];
        assert_eq!(enq, deq + drained, "values lost or duplicated");
        m.check_invariants();
    }

    #[test]
    fn native_queue_fifo_and_handoff() {
        // Two real host threads: producer enqueues 1..=50, consumer drains
        // until it has seen all 50. FIFO per producer is preserved.
        let m = casmr::NativeMachine::new(1 << 14);
        let s = Qsbr::new(&m, 2, SmrConfig::default());
        let q = SmrQueue::new(&m, s);
        let outs = m.run_on(2, |tid, env| {
            let mut t = q.register(tid);
            if tid == 0 {
                for v in 1..=50u64 {
                    q.enqueue(env, &mut t, v);
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                while got.len() < 50 {
                    if let Some(v) = q.dequeue(env, &mut t) {
                        got.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            }
        });
        assert_eq!(outs[1], (1..=50).collect::<Vec<u64>>());
    }
}
