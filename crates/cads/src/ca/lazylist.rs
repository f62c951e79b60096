//! Conditional-Access lazy linked list — the paper's **Algorithm 3**.
//!
//! The Heller et al. lazy list upgraded per §IV-B:
//!
//! * searches replace every read with `cread` (directive DI) and keep a
//!   hand-over-hand window of two tagged nodes, `untagOne`-ing nodes as the
//!   traversal moves past them (the §IV-B remedy against serializing every
//!   update in the search path);
//! * a node's mark is validated by `cread` immediately after the node is
//!   first tagged (directive DII: only reachable, unmarked nodes are
//!   trusted);
//! * updates acquire the Conditional-Access try-locks of Algorithm 2 on
//!   `pred` and `curr`; lock acquisition doubles as validation — if either
//!   node was marked, unlinked or freed since it was tagged, the lock's
//!   `cread`/`cwrite` fails and the operation restarts (no explicit
//!   re-validation needed, §IV-B);
//! * inside the critical section plain reads/writes are safe (locked nodes
//!   cannot be mutated or reclaimed by others);
//! * `delete` marks (the write-before-free rule), unlinks, unlocks, and
//!   frees the node **immediately**.

use cacore::{ca_check, ca_loop, ca_try, lock, CaStep};
use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

use crate::layout::{KEY_TAIL, TICK_PER_HOP, TICK_PER_OP, W_KEY, W_LOCK, W_MARK, W_NEXT};
use crate::traits::{DsShared, SetDs};

/// The Conditional-Access lazy list.
pub struct CaLazyList {
    /// Head sentinel node (static, key −∞, never marked or freed).
    head: Addr,
}

/// Result of a successful `locate`.
struct Located {
    pred: Addr,
    curr: Addr,
    currkey: u64,
}

impl CaLazyList {
    /// Build an empty list with static head/tail sentinels.
    pub fn new(machine: &Machine) -> Self {
        let head = machine.alloc_static(1);
        let tail = machine.alloc_static(1);
        machine.host_write(tail.word(W_KEY), KEY_TAIL);
        machine.host_write(head.word(W_NEXT), tail.0);
        Self { head }
    }

    /// Head sentinel address (for checkers walking the final state).
    pub fn head_node(&self) -> Addr {
        self.head
    }

    /// Algorithm 3 `locate`: returns tagged `pred`/`curr` with
    /// `pred.key < key ≤ curr.key`, both validated unmarked at tag time.
    ///
    /// The head sentinel can never be marked or freed, so the paper's
    /// VALIDATE on it (line 11) is vacuous and skipped; its `next` field is
    /// still cread so the head line is tagged and monitored.
    fn locate(&self, ctx: &mut Ctx, key: u64) -> CaStep<Located> {
        debug_assert!(key > 0 && key < KEY_TAIL);
        ctx.tick(TICK_PER_OP);
        let mut pred = self.head;
        // Tags the head line.
        let mut curr = Addr(ca_try!(ctx.cread(self.head.word(W_NEXT))));
        // VALIDATE(curr) — the cread both tags curr and loads its mark (DII).
        let mark = ca_try!(ctx.cread(curr.word(W_MARK)));
        if mark != 0 {
            return CaStep::Retry;
        }
        let mut currkey = ca_try!(ctx.cread(curr.word(W_KEY)));
        while currkey < key {
            ctx.tick(TICK_PER_HOP);
            let next = Addr(ca_try!(ctx.cread(curr.word(W_NEXT))));
            // Hand-over-hand: only pred and curr need to stay tagged.
            ctx.untag_one(pred);
            pred = curr;
            curr = next;
            let mark = ca_try!(ctx.cread(curr.word(W_MARK)));
            if mark != 0 {
                return CaStep::Retry;
            }
            currkey = ca_try!(ctx.cread(curr.word(W_KEY)));
        }
        CaStep::Done(Located {
            pred,
            curr,
            currkey,
        })
    }

    /// Lock `pred` then `curr` with the Algorithm 2 try-locks; on any
    /// failure release what was taken and signal a retry.
    fn lock_pair(&self, ctx: &mut Ctx, pred: Addr, curr: Addr) -> bool {
        if !lock::try_lock(ctx, pred.word(W_LOCK)) {
            return false;
        }
        if !lock::try_lock(ctx, curr.word(W_LOCK)) {
            lock::unlock(ctx, pred.word(W_LOCK));
            return false;
        }
        true
    }

    /// One optimistic attempt of `contains` (the body `ca_loop` retries).
    /// Exposed at crate level so the fallback wrapper can drive attempts
    /// under its own retry policy.
    pub(crate) fn contains_attempt(&self, ctx: &mut Ctx, key: u64) -> CaStep<bool> {
        let loc = match self.locate(ctx, key) {
            CaStep::Done(l) => l,
            CaStep::Retry => return CaStep::Retry,
        };
        CaStep::Done(loc.currkey == key)
    }

    /// One optimistic attempt of `insert`.
    pub(crate) fn insert_attempt(&self, ctx: &mut Ctx, key: u64) -> CaStep<bool> {
        let loc = match self.locate(ctx, key) {
            CaStep::Done(l) => l,
            CaStep::Retry => return CaStep::Retry,
        };
        if loc.currkey == key {
            return CaStep::Done(false); // LP: key already present
        }
        // Lock acquisition *is* the validation: a failure means pred or
        // curr was modified (possibly deleted/freed) since tagging.
        ca_check!(self.lock_pair(ctx, loc.pred, loc.curr));
        // Critical section: plain accesses are safe on locked nodes.
        let n = ctx.alloc();
        ctx.write(n.word(W_KEY), key);
        ctx.write(n.word(W_NEXT), loc.curr.0);
        ctx.write(n.word(W_MARK), 0);
        ctx.write(n.word(W_LOCK), 0);
        ctx.write(loc.pred.word(W_NEXT), n.0); // LP
        lock::unlock(ctx, loc.curr.word(W_LOCK));
        lock::unlock(ctx, loc.pred.word(W_LOCK));
        CaStep::Done(true)
    }

    /// One optimistic attempt of `delete`; on success returns the unlinked
    /// victim, which the caller frees after its `untagAll`.
    pub(crate) fn delete_attempt(&self, ctx: &mut Ctx, key: u64) -> CaStep<Option<Addr>> {
        let loc = match self.locate(ctx, key) {
            CaStep::Done(l) => l,
            CaStep::Retry => return CaStep::Retry,
        };
        if loc.currkey != key {
            return CaStep::Done(None); // LP: key absent
        }
        ca_check!(self.lock_pair(ctx, loc.pred, loc.curr));
        // Mark before unlink: the write-before-free rule. Any thread
        // with curr tagged is revoked by this store.
        ctx.write(loc.curr.word(W_MARK), 1); // LP
        let next = ctx.read(loc.curr.word(W_NEXT));
        ctx.write(loc.pred.word(W_NEXT), next);
        lock::unlock(ctx, loc.curr.word(W_LOCK));
        lock::unlock(ctx, loc.pred.word(W_LOCK));
        CaStep::Done(Some(loc.curr))
    }
}

impl DsShared for CaLazyList {
    type Tls = ();

    fn register(&self, _tid: usize) -> Self::Tls {}
}

/// Sim-only: Conditional Access needs the simulator's hardware primitive
/// (`cread`/`cwrite`/tag monitoring), so CA structures implement the set
/// trait for `Ctx` alone, never for the native environment.
impl<'m> SetDs<Ctx<'m>> for CaLazyList {
    /// Algorithm 3 `contain`: linearizes at the cread of `curr.key`.
    fn contains(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        ca_loop(ctx, |ctx| self.contains_attempt(ctx, key))
    }

    /// Algorithm 3 `insert`.
    fn insert(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        ca_loop(ctx, |ctx| self.insert_attempt(ctx, key))
    }

    /// Algorithm 3 `delete` — frees the victim immediately after untagAll.
    fn delete(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        let victim = ca_loop(ctx, |ctx| self.delete_attempt(ctx, key));
        match victim {
            Some(node) => {
                ctx.free(node); // immediate reclamation (Algorithm 3 line 59)
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqcheck::walk_list;
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
    fn basic_set_semantics() {
        let m = machine(1);
        let l = CaLazyList::new(&m);
        let out = m.run_on(1, |_, ctx| {
            let mut t = ();
            assert!(!l.contains(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 5));
            assert!(!l.insert(ctx, &mut t, 5), "duplicate insert");
            assert!(l.insert(ctx, &mut t, 3));
            assert!(l.insert(ctx, &mut t, 8));
            assert!(l.contains(ctx, &mut t, 3));
            assert!(l.contains(ctx, &mut t, 5));
            assert!(l.contains(ctx, &mut t, 8));
            assert!(!l.contains(ctx, &mut t, 4));
            assert!(l.delete(ctx, &mut t, 5));
            assert!(!l.delete(ctx, &mut t, 5), "double delete");
            assert!(!l.contains(ctx, &mut t, 5));
            true
        });
        assert_eq!(out, vec![true]);
        assert_eq!(walk_list(&m, l.head_node()), vec![3, 8]);
    }

    #[test]
    fn delete_frees_immediately() {
        let m = machine(1);
        let l = CaLazyList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for k in 1..=20 {
                l.insert(ctx, &mut t, k);
            }
            for k in 1..=20 {
                assert!(l.delete(ctx, &mut t, k));
            }
        });
        assert_eq!(m.stats().allocated_not_freed, 0, "immediate reclamation");
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let m = machine(4);
        let l = CaLazyList::new(&m);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            for i in 0..50u64 {
                assert!(l.insert(ctx, &mut t, 1 + (tid as u64) + 4 * i));
            }
        });
        let keys = walk_list(&m, l.head_node());
        assert_eq!(keys.len(), 200);
        assert_eq!(keys, (1..=200).collect::<Vec<_>>());
        m.check_invariants();
    }

    #[test]
    fn concurrent_mixed_ops_accounting() {
        // Disjoint key blocks per thread: each thread's net effect on its
        // own block is deterministic, so the final list is exactly checkable.
        let m = machine(4);
        let l = CaLazyList::new(&m);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            let base = 1 + 100 * tid as u64;
            for k in base..base + 50 {
                assert!(l.insert(ctx, &mut t, k));
            }
            for k in (base..base + 50).step_by(2) {
                assert!(l.delete(ctx, &mut t, k));
            }
            for k in base..base + 50 {
                assert_eq!(l.contains(ctx, &mut t, k), (k - base) % 2 == 1);
            }
        });
        let keys = walk_list(&m, l.head_node());
        let expect: Vec<u64> = (0..4u64)
            .flat_map(|tid| {
                let base = 1 + 100 * tid;
                (base..base + 50).filter(move |k| (k - base) % 2 == 1)
            })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(keys, expect);
        assert_eq!(
            m.stats().allocated_not_freed as usize,
            expect.len(),
            "only live nodes remain allocated"
        );
    }

    #[test]
    fn contended_same_key_exactness() {
        // All threads fight over the same small key space; inserts and
        // deletes must stay exact (no phantom keys, no lost nodes).
        let m = machine(4);
        let l = CaLazyList::new(&m);
        let counts = m.run_on(4, |tid, ctx| {
            let mut t = ();
            let mut net = 0i64;
            for round in 0..60u64 {
                let k = 1 + (round * 7 + tid as u64) % 10;
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
        let final_size = walk_list(&m, l.head_node()).len() as i64;
        let net_total: i64 = counts.iter().sum();
        assert_eq!(final_size, net_total, "successful ops must balance");
        assert_eq!(m.stats().allocated_not_freed as i64, final_size);
        m.check_invariants();
    }
}
