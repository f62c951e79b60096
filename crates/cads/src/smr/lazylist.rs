//! Lazy linked list (Heller et al.) over a pluggable SMR scheme — the
//! baseline the paper benchmarks every reclamation algorithm with.
//!
//! * Traversal protects nodes through [`Smr::read_ptr`]; for hazard-based
//!   schemes (`needs_validation`), each advance re-checks that the *source*
//!   node is unmarked after protecting its successor — an unmarked source is
//!   still reachable, so the successor was reachable (hence unretired) when
//!   the hazard was published. On failure the traversal restarts from the
//!   head. Interval/epoch schemes skip these checks (their protection is
//!   retroactive over the whole operation), traversing marked nodes freely
//!   like the original algorithm.
//! * Updates take per-node TTAS spin locks (blocking — safe here because a
//!   protected node cannot be freed, and lock holders always make progress),
//!   then perform the canonical lazy-list validation
//!   `!pred.marked ∧ !curr.marked ∧ pred.next == curr`.
//! * `delete` marks, unlinks, unlocks and **retires** (never frees) the
//!   victim.

use casmr::{Env, EnvHost, Smr, SmrBase};
use mcsim::Addr;

use crate::layout::{KEY_TAIL, TICK_PER_HOP, TICK_PER_OP, W_KEY, W_LOCK, W_MARK, W_NEXT};
use crate::traits::{DsShared, SetDs};

/// Rotating protection slots used by the traversal (pred, curr, incoming).
const SLOTS: usize = 3;

/// The SMR-parameterized lazy list.
pub struct SmrLazyList<S> {
    head: Addr,
    smr: S,
}

struct Located {
    pred: Addr,
    curr: Addr,
    currkey: u64,
}

impl<S> SmrLazyList<S> {
    /// Build an empty list with static sentinels over scheme `smr`.
    pub fn new<H: EnvHost + ?Sized>(host: &H, smr: S) -> Self {
        let head = host.alloc_static(1);
        let tail = host.alloc_static(1);
        host.host_write(tail.word(W_KEY), KEY_TAIL);
        host.host_write(head.word(W_NEXT), tail.0);
        Self { head, smr }
    }

    /// The underlying scheme.
    pub fn smr(&self) -> &S {
        &self.smr
    }

    /// Head sentinel (for checkers).
    pub fn head_node(&self) -> Addr {
        self.head
    }
}

impl<S: SmrBase> SmrLazyList<S> {
    /// Protected search: returns `pred.key < key ≤ curr.key` with both nodes
    /// protected. Restarts from the head when hazard validation fails.
    fn search<E>(&self, ctx: &mut E, tls: &mut S::Tls, key: u64) -> Located
    where
        E: Env + ?Sized,
        S: Smr<E>,
    {
        debug_assert!(key > 0 && key < KEY_TAIL);
        let validate = self.smr.needs_validation();
        'restart: loop {
            ctx.tick(TICK_PER_OP);
            let mut pred = self.head;
            // Protect curr through head.next; the head sentinel is static
            // and never marked, so the source-reachability premise holds.
            let mut slot = 0usize;
            let mut curr = Addr(self.smr.read_ptr(ctx, tls, slot, self.head.word(W_NEXT)));
            loop {
                debug_assert!(!curr.is_null(), "tail sentinel terminates every chain");
                let currkey = ctx.read(curr.word(W_KEY));
                if currkey >= key {
                    return Located {
                        pred,
                        curr,
                        currkey,
                    };
                }
                ctx.tick(TICK_PER_HOP);
                let next_slot = (slot + 1) % SLOTS;
                let next = Addr(self.smr.read_ptr(ctx, tls, next_slot, curr.word(W_NEXT)));
                if validate && ctx.read(curr.word(W_MARK)) != 0 {
                    // `curr` is no longer reachable: the hazard published
                    // for `next` may be too late. Start over.
                    continue 'restart;
                }
                pred = curr;
                curr = next;
                slot = next_slot;
            }
        }
    }

    /// Blocking TTAS acquire of a node lock. The node must be protected (or
    /// static): it cannot be freed under us, and the holder always makes
    /// progress, so the spin terminates.
    fn lock_node<E: Env + ?Sized>(&self, ctx: &mut E, node: Addr) {
        let lock = node.word(W_LOCK);
        let mut iter = 0u64;
        loop {
            if ctx.read(lock) == 0 && ctx.cas(lock, 0, 1).is_ok() {
                return;
            }
            ctx.tick(1);
            // On an oversubscribed host the holder may be preempted; back
            // off to the OS scheduler rather than spinning a full quantum
            // (no-op in the simulator).
            ctx.spin_hint(iter);
            iter += 1;
        }
    }

    fn unlock_node<E: Env + ?Sized>(&self, ctx: &mut E, node: Addr) {
        ctx.write(node.word(W_LOCK), 0);
    }

    /// The canonical lazy-list validation, under both locks.
    fn validate<E: Env + ?Sized>(&self, ctx: &mut E, pred: Addr, curr: Addr) -> bool {
        ctx.read(pred.word(W_MARK)) == 0
            && ctx.read(curr.word(W_MARK)) == 0
            && ctx.read(pred.word(W_NEXT)) == curr.0
    }
}

impl<S: SmrBase> DsShared for SmrLazyList<S> {
    type Tls = S::Tls;

    fn register(&self, tid: usize) -> Self::Tls {
        self.smr.register(tid)
    }
}

impl<E: Env + ?Sized, S: Smr<E>> SetDs<E> for SmrLazyList<S> {
    fn contains(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let loc = self.search(ctx, tls, key);
        let found = loc.currkey == key && ctx.read(loc.curr.word(W_MARK)) == 0;
        self.smr.end_op(ctx, tls);
        found
    }

    fn insert(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            let loc = self.search(ctx, tls, key);
            self.lock_node(ctx, loc.pred);
            self.lock_node(ctx, loc.curr);
            if !self.validate(ctx, loc.pred, loc.curr) {
                self.unlock_node(ctx, loc.curr);
                self.unlock_node(ctx, loc.pred);
                continue;
            }
            if loc.currkey == key {
                self.unlock_node(ctx, loc.curr);
                self.unlock_node(ctx, loc.pred);
                break false;
            }
            let n = ctx.alloc();
            self.smr.on_alloc(ctx, tls, n);
            ctx.write(n.word(W_KEY), key);
            ctx.write(n.word(W_NEXT), loc.curr.0);
            ctx.write(n.word(W_MARK), 0);
            ctx.write(n.word(W_LOCK), 0);
            ctx.write(loc.pred.word(W_NEXT), n.0); // LP
            self.unlock_node(ctx, loc.curr);
            self.unlock_node(ctx, loc.pred);
            break true;
        };
        self.smr.end_op(ctx, tls);
        result
    }

    fn delete(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            let loc = self.search(ctx, tls, key);
            if loc.currkey != key {
                break false; // LP: absent at search time
            }
            self.lock_node(ctx, loc.pred);
            self.lock_node(ctx, loc.curr);
            if !self.validate(ctx, loc.pred, loc.curr) {
                self.unlock_node(ctx, loc.curr);
                self.unlock_node(ctx, loc.pred);
                continue;
            }
            ctx.write(loc.curr.word(W_MARK), 1); // LP (logical delete)
            let next = ctx.read(loc.curr.word(W_NEXT));
            ctx.write(loc.pred.word(W_NEXT), next);
            self.unlock_node(ctx, loc.curr);
            self.unlock_node(ctx, loc.pred);
            self.smr.retire(ctx, tls, loc.curr);
            break true;
        };
        self.smr.end_op(ctx, tls);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqcheck::walk_list;
    use casmr::{with_scheme, Hp, Ibr, Leaky, Qsbr, SchemeKind, SmrConfig};
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

    fn exercise_basic<S: for<'m> Smr<mcsim::machine::Ctx<'m>>>(m: &Machine, l: &SmrLazyList<S>) {
        m.run_on(1, |_, ctx| {
            let mut t = l.register(0);
            assert!(!l.contains(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 5));
            assert!(!l.insert(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 3));
            assert!(l.insert(ctx, &mut t, 8));
            assert!(l.contains(ctx, &mut t, 5));
            assert!(l.delete(ctx, &mut t, 5));
            assert!(!l.delete(ctx, &mut t, 5));
            assert!(!l.contains(ctx, &mut t, 5));
        });
        assert_eq!(walk_list(m, l.head_node()), vec![3, 8]);
    }

    #[test]
    fn basic_semantics_all_schemes() {
        for kind in SchemeKind::objects() {
            let m = machine(1);
            with_scheme!(kind, &m, 1, SmrConfig::default(), |s| {
                exercise_basic(&m, &SmrLazyList::new(&m, s))
            });
        }
    }

    #[test]
    fn leaky_never_frees_qsbr_eventually_does() {
        fn churn<S: for<'m> Smr<mcsim::machine::Ctx<'m>>>(m: &Machine, l: &SmrLazyList<S>) {
            m.run_on(1, |_, ctx| {
                let mut t = l.register(0);
                for round in 0..40u64 {
                    let k = 1 + round % 5;
                    l.insert(ctx, &mut t, k);
                    l.delete(ctx, &mut t, k);
                }
            });
        }
        let m1 = machine(1);
        let l1 = SmrLazyList::new(&m1, Leaky::new());
        churn(&m1, &l1);
        assert_eq!(m1.stats().allocated_not_freed, 40, "leaky leaks all");

        let m2 = machine(1);
        let s = Qsbr::new(&m2, 1, SmrConfig {
            reclaim_freq: 5,
            epoch_freq: 5,
            ..Default::default()
        });
        let l2 = SmrLazyList::new(&m2, s);
        churn(&m2, &l2);
        assert!(
            m2.stats().allocated_not_freed < 40,
            "qsbr must reclaim some of the churn, got {}",
            m2.stats().allocated_not_freed
        );
    }

    #[test]
    fn concurrent_stress_hp_with_uaf_detector() {
        // The most delicate combination: hazard pointers + concurrent
        // deletes + the armed UAF detector. Any protection hole panics.
        let m = machine(4);
        let s = Hp::new(&m, 4, SmrConfig {
            reclaim_freq: 4,
            ..Default::default()
        });
        let l = SmrLazyList::new(&m, s);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = l.register(tid);
            let mut net = 0i64;
            for round in 0..80u64 {
                let k = 1 + (round * 11 + tid as u64 * 3) % 16;
                match round % 3 {
                    0 => {
                        if l.insert(ctx, &mut t, k) {
                            net += 1;
                        }
                    }
                    1 => {
                        if l.delete(ctx, &mut t, k) {
                            net -= 1;
                        }
                    }
                    _ => {
                        l.contains(ctx, &mut t, k);
                    }
                }
            }
            net
        });
        let size = walk_list(&m, l.head_node()).len() as i64;
        assert_eq!(size, nets.iter().sum::<i64>());
        m.check_invariants();
    }

    #[test]
    fn concurrent_stress_ibr() {
        let m = machine(4);
        let s = Ibr::new(&m, 4, SmrConfig {
            reclaim_freq: 8,
            epoch_freq: 10,
            ..Default::default()
        });
        let l = SmrLazyList::new(&m, s);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = l.register(tid);
            let mut net = 0i64;
            for round in 0..80u64 {
                let k = 1 + (round * 7 + tid as u64) % 12;
                if (round + tid as u64).is_multiple_of(2) {
                    if l.insert(ctx, &mut t, k) {
                        net += 1;
                    }
                } else if l.delete(ctx, &mut t, k) {
                    net -= 1;
                }
            }
            net
        });
        let size = walk_list(&m, l.head_node()).len() as i64;
        assert_eq!(size, nets.iter().sum::<i64>());
        m.check_invariants();
    }

    #[test]
    fn shared_scheme_via_reference() {
        // The &S blanket impl: two lists sharing one qsbr instance.
        let m = machine(1);
        let s = Qsbr::new(&m, 1, SmrConfig::default());
        let l1 = SmrLazyList::new(&m, &s);
        let l2 = SmrLazyList::new(&m, &s);
        m.run_on(1, |_, ctx| {
            let mut t = l1.register(0);
            assert!(l1.insert(ctx, &mut t, 1));
            assert!(l2.insert(ctx, &mut t, 1));
            assert!(l1.delete(ctx, &mut t, 1));
            assert!(l2.contains(ctx, &mut t, 1));
        });
    }

    #[test]
    fn native_list_all_schemes_single_thread() {
        // The identical structure code on real host atomics: every
        // reclaiming scheme keeps the same set semantics.
        fn exercise<S: for<'p> Smr<casmr::NativeEnv<'p>>>(
            m: &casmr::NativeMachine,
            l: &SmrLazyList<S>,
        ) {
            m.run_on(1, |_, env| {
                let mut t = l.register(0);
                assert!(l.insert(env, &mut t, 5));
                assert!(l.insert(env, &mut t, 3));
                assert!(!l.insert(env, &mut t, 5));
                assert!(l.contains(env, &mut t, 3));
                assert!(l.delete(env, &mut t, 5));
                assert!(!l.contains(env, &mut t, 5));
            });
        }
        let m = casmr::NativeMachine::new(1 << 14);
        let s = Hp::new(&m, 1, SmrConfig::default());
        let l = SmrLazyList::new(&m, s);
        exercise(&m, &l);
        let s = Ibr::new(&m, 1, SmrConfig::default());
        let l = SmrLazyList::new(&m, s);
        exercise(&m, &l);
    }
}
