//! Treiber stack over a pluggable SMR scheme.
//!
//! `pop` CASes `top` forward and retires the old node. Protection of `top`'s
//! target through [`Smr::read_ptr`] also rules out the ABA problem: a node
//! cannot be freed (hence not reused) while any thread protects it, and the
//! epoch/interval schemes cover the whole operation. The `none` baseline is
//! ABA-safe too, trivially — addresses are never reused because nothing is
//! ever freed. Only *unsafe manual* immediate freeing breaks the CAS (see
//! `plain_cas_free_in_pop_faults_where_ca_stack_does_not` in
//! `tests/ca_semantics.rs`); Conditional Access is how the paper makes
//! immediate freeing safe.

use casmr::{Env, EnvHost, Smr, SmrBase};
use mcsim::Addr;

use crate::layout::{TICK_PER_OP, W_KEY, W_NEXT};
use crate::traits::{DsShared, StackDs};

/// The SMR-parameterized Treiber stack.
pub struct SmrStack<S> {
    top: Addr,
    smr: S,
}

impl<S> SmrStack<S> {
    /// Build an empty stack over scheme `smr`.
    pub fn new<H: EnvHost + ?Sized>(host: &H, smr: S) -> Self {
        Self {
            top: host.alloc_static(1),
            smr,
        }
    }

    /// The underlying scheme.
    pub fn smr(&self) -> &S {
        &self.smr
    }
}

impl<S: SmrBase> DsShared for SmrStack<S> {
    type Tls = S::Tls;

    fn register(&self, tid: usize) -> Self::Tls {
        self.smr.register(tid)
    }
}

impl<E: Env + ?Sized, S: Smr<E>> StackDs<E> for SmrStack<S> {
    fn push(&self, ctx: &mut E, tls: &mut Self::Tls, value: u64) {
        let n = ctx.alloc();
        self.smr.on_alloc(ctx, tls, n);
        ctx.write(n.word(W_KEY), value);
        self.smr.begin_op(ctx, tls);
        loop {
            ctx.tick(TICK_PER_OP);
            let t = ctx.read(self.top);
            ctx.write(n.word(W_NEXT), t);
            if ctx.cas(self.top, t, n.0).is_ok() {
                break;
            }
        }
        self.smr.end_op(ctx, tls);
    }

    fn pop(&self, ctx: &mut E, tls: &mut Self::Tls) -> Option<u64> {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            ctx.tick(TICK_PER_OP);
            // Protect the node named by `top` before touching it.
            let t = self.smr.read_ptr(ctx, tls, 0, self.top);
            if t == 0 {
                break None;
            }
            let t = Addr(t);
            let next = ctx.read(t.word(W_NEXT)); // t protected
            if ctx.cas(self.top, t.0, next).is_ok() {
                let v = ctx.read(t.word(W_KEY));
                self.smr.retire(ctx, tls, t);
                break Some(v);
            }
        };
        self.smr.end_op(ctx, tls);
        result
    }

    fn peek(&self, ctx: &mut E, tls: &mut Self::Tls) -> Option<u64> {
        self.smr.begin_op(ctx, tls);
        ctx.tick(TICK_PER_OP);
        let t = self.smr.read_ptr(ctx, tls, 0, self.top);
        let result = if t == 0 {
            None
        } else {
            Some(ctx.read(Addr(t).word(W_KEY)))
        };
        self.smr.end_op(ctx, tls);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casmr::{Hp, Leaky, Qsbr, SmrConfig};
    use mcsim::{Machine, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 8 << 20,
            static_lines: 256,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn lifo_semantics_per_scheme() {
        let m = machine(1);
        let s = Hp::new(&m, 1, SmrConfig::default());
        let st = SmrStack::new(&m, s);
        m.run_on(1, |_, ctx| {
            let mut t = st.register(0);
            assert_eq!(st.pop(ctx, &mut t), None);
            st.push(ctx, &mut t, 1);
            st.push(ctx, &mut t, 2);
            assert_eq!(st.peek(ctx, &mut t), Some(2));
            assert_eq!(st.pop(ctx, &mut t), Some(2));
            assert_eq!(st.pop(ctx, &mut t), Some(1));
            assert_eq!(st.pop(ctx, &mut t), None);
        });
    }

    #[test]
    fn hp_pop_under_contention_no_value_lost() {
        let m = machine(4);
        let s = Hp::new(&m, 4, SmrConfig {
            reclaim_freq: 4,
            ..Default::default()
        });
        let st = SmrStack::new(&m, s);
        m.run_on(1, |_, ctx| {
            let mut t = st.register(0);
            for v in 0..200 {
                st.push(ctx, &mut t, v);
            }
        });
        m.reset_timing();
        let popped = m.run_on(4, |tid, ctx| {
            let mut t = st.register(tid);
            let mut got = Vec::new();
            while let Some(v) = st.pop(ctx, &mut t) {
                got.push(v);
            }
            got
        });
        let mut all: Vec<u64> = popped.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        m.check_invariants();
    }

    #[test]
    fn qsbr_stack_mixed_workload() {
        let m = machine(4);
        let s = Qsbr::new(&m, 4, SmrConfig::default());
        let st = SmrStack::new(&m, s);
        let counts = m.run_on(4, |tid, ctx| {
            let mut t = st.register(tid);
            let (mut pushes, mut pops) = (0u64, 0u64);
            for i in 0..100u64 {
                if !(i + tid as u64).is_multiple_of(3) {
                    st.push(ctx, &mut t, i);
                    pushes += 1;
                } else if st.pop(ctx, &mut t).is_some() {
                    pops += 1;
                }
            }
            (pushes, pops)
        });
        let net: i64 = counts.iter().map(|(pu, po)| *pu as i64 - *po as i64).sum();
        // Drain and count.
        let drained = m.run_on(1, |_, ctx| {
            let mut t = st.register(0);
            let mut n = 0i64;
            while st.pop(ctx, &mut t).is_some() {
                n += 1;
            }
            n
        });
        assert_eq!(drained, vec![net]);
    }

    #[test]
    fn leaky_stack_footprint_grows() {
        let m = machine(1);
        let st = SmrStack::new(&m, Leaky::new());
        m.run_on(1, |_, ctx| {
            let mut t = st.register(0);
            for v in 0..50 {
                st.push(ctx, &mut t, v);
                st.pop(ctx, &mut t);
            }
        });
        assert_eq!(m.stats().allocated_not_freed, 50);
    }

    #[test]
    fn native_stack_lifo_semantics() {
        // Same structure, real host threads: the whole point of the Env
        // split. Single-threaded here; the cross-scheme native battery
        // lives in the workspace-level native differential test.
        let m = casmr::NativeMachine::new(4096);
        let s = Hp::new(&m, 1, SmrConfig::default());
        let st = SmrStack::new(&m, s);
        m.run_on(1, |_, env| {
            let mut t = st.register(0);
            assert_eq!(st.pop(env, &mut t), None);
            st.push(env, &mut t, 7);
            st.push(env, &mut t, 9);
            assert_eq!(st.peek(env, &mut t), Some(9));
            assert_eq!(st.pop(env, &mut t), Some(9));
            assert_eq!(st.pop(env, &mut t), Some(7));
            assert_eq!(st.pop(env, &mut t), None);
        });
    }
}
