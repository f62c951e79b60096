//! Conditional-Access Treiber stack — the paper's **Algorithm 1**.
//!
//! `push` and `pop` replace every read with `cread` and the CAS with
//! `cwrite`; `pop` frees the unlinked node **immediately** (line 18 of the
//! algorithm). Safety does not need the popped node's own tag: every
//! operation tags `top` first, and a reclaimer's successful `cwrite` to
//! `top` (which precedes its `free`) invalidates that tag, so a doomed
//! thread's next conditional access fails before it can touch freed memory.
//!
//! The structure is ABA-free with immediate address reuse (Theorem 7):
//! `cwrite` does not compare values, it detects the intervening invalidation
//! of `top`'s line — unlike the CAS in a plain Treiber stack, which the
//! `aba_demo` example shows corrupting itself under the same schedule.

use cacore::{ca_check, ca_loop, ca_try, CaStep};
use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

use crate::layout::{TICK_PER_OP, W_KEY, W_NEXT};
use crate::traits::{DsShared, StackDs};

/// The Conditional-Access stack.
pub struct CaStack {
    /// Static cell holding the top-of-stack node address (0 = empty).
    top: Addr,
}

impl CaStack {
    /// Build an empty stack (allocates one static line for `top`).
    pub fn new(machine: &Machine) -> Self {
        Self {
            top: machine.alloc_static(1),
        }
    }
}

impl DsShared for CaStack {
    type Tls = ();

    fn register(&self, _tid: usize) -> Self::Tls {}
}

/// Sim-only: the CA primitive exists only in the simulator.
impl<'m> StackDs<Ctx<'m>> for CaStack {
    /// Algorithm 1, `push`.
    fn push(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, value: u64) {
        let n = ctx.alloc();
        ctx.write(n.word(W_KEY), value);
        ca_loop(ctx, |ctx| {
            ctx.tick(TICK_PER_OP);
            let t = ca_try!(ctx.cread(self.top));
            // The new node is private until published: plain write.
            ctx.write(n.word(W_NEXT), t);
            ca_check!(ctx.cwrite(self.top, n.0)); // LP
            CaStep::Done(())
        })
    }

    /// Algorithm 1, `pop` — frees the node before returning.
    fn pop(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls) -> Option<u64> {
        let popped = ca_loop(ctx, |ctx| {
            ctx.tick(TICK_PER_OP);
            let t = ca_try!(ctx.cread(self.top));
            if t == 0 {
                return CaStep::Done(None);
            }
            // `t` may be freed by a racing pop at any moment; its fields
            // must be cread (directive DI). A failure here is the ARB
            // telling us `top` changed.
            let next = ca_try!(ctx.cread(Addr(t).word(W_NEXT)));
            ca_check!(ctx.cwrite(self.top, next)); // LP
            CaStep::Done(Some(Addr(t)))
        })?;
        // The node is now exclusively ours (unlinked); plain read is safe.
        let value = ctx.read(popped.word(W_KEY));
        ctx.free(popped); // immediate reclamation
        Some(value)
    }

    /// Read the top value (tags top + node; any concurrent pop fails us).
    fn peek(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls) -> Option<u64> {
        ca_loop(ctx, |ctx| {
            ctx.tick(TICK_PER_OP);
            let t = ca_try!(ctx.cread(self.top));
            if t == 0 {
                return CaStep::Done(None);
            }
            let v = ca_try!(ctx.cread(Addr(t).word(W_KEY)));
            CaStep::Done(Some(v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::MachineConfig;

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 4 << 20,
            static_lines: 64,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn lifo_order_single_thread() {
        let m = machine(1);
        let s = CaStack::new(&m);
        let out = m.run_on(1, |_, ctx| {
            let mut t = ();
            for v in 1..=5 {
                s.push(ctx, &mut t, v);
            }
            let peeked = s.peek(ctx, &mut t);
            let mut popped = Vec::new();
            while let Some(v) = s.pop(ctx, &mut t) {
                popped.push(v);
            }
            (peeked, popped, s.pop(ctx, &mut t))
        });
        let (peeked, popped, empty) = out.into_iter().next().unwrap();
        assert_eq!(peeked, Some(5));
        assert_eq!(popped, vec![5, 4, 3, 2, 1]);
        assert_eq!(empty, None);
    }

    #[test]
    fn immediate_reclamation_keeps_footprint_flat() {
        let m = machine(1);
        let s = CaStack::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for v in 0..100 {
                s.push(ctx, &mut t, v);
                assert!(s.pop(ctx, &mut t).is_some());
            }
        });
        assert_eq!(
            m.stats().allocated_not_freed,
            0,
            "every pop frees immediately"
        );
        assert_eq!(m.stats().peak_allocated, 1, "at most one node ever live");
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        // Each thread pushes its own tagged values and pops arbitrary ones;
        // the multiset of all pops + leftovers must equal all pushes.
        let m = machine(4);
        let s = CaStack::new(&m);
        let results = m.run_on(4, |tid, ctx| {
            let mut t = ();
            let mut popped = Vec::new();
            for i in 0..50u64 {
                s.push(ctx, &mut t, (tid as u64) << 32 | i);
                if i % 2 == 1 {
                    if let Some(v) = s.pop(ctx, &mut t) {
                        popped.push(v);
                    }
                }
            }
            popped
        });
        let mut seen: Vec<u64> = results.into_iter().flatten().collect();
        // Drain the leftovers.
        let rest = m.run_on(1, |_, ctx| {
            let mut t = ();
            let mut rest = Vec::new();
            while let Some(v) = s.pop(ctx, &mut t) {
                rest.push(v);
            }
            rest
        });
        seen.extend(rest.into_iter().flatten());
        seen.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|tid| (0..50u64).map(move |i| tid << 32 | i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "no value lost or duplicated (ABA-free)");
        assert_eq!(m.stats().allocated_not_freed, 0);
        m.check_invariants();
    }

    #[test]
    fn contended_pops_never_double_pop() {
        // Push N distinct values, then let 4 threads pop concurrently:
        // every value must be popped exactly once.
        let m = machine(4);
        let s = CaStack::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for v in 0..200 {
                s.push(ctx, &mut t, v);
            }
        });
        let popped = m.run_on(4, |_, ctx| {
            let mut t = ();
            let mut got = Vec::new();
            while let Some(v) = s.pop(ctx, &mut t) {
                got.push(v);
            }
            got
        });
        let mut all: Vec<u64> = popped.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
