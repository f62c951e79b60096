//! **Extension beyond the paper**: a Harris-style *lock-free* sorted linked
//! list on Conditional Access, with immediate reclamation and helping.
//!
//! The paper's conclusion asks "whether Conditional Access can also be used
//! for more complex lock-free data structures". This module answers
//! constructively for the Harris list (Harris, DISC'01): all four update
//! steps — mark, unlink, help-unlink, insert splice — become `cwrite`s, no
//! locks anywhere, and the unlinking thread frees the node *immediately*.
//!
//! Why this is safe where a CAS-based Harris list needs deferred
//! reclamation: the access-revoked bit conditions a `cwrite` on the entire
//! tag window, not just the written line. The classic resurrection hazard —
//! linking `pred → next` while `next` is concurrently unlinked and freed —
//! cannot happen, because unlinking `next` writes `curr.next` (a word of
//! the tagged `curr` line), which sets our ARB and fails our `cwrite` to
//! `pred`. Every stale splice is vetoed by the coherence protocol itself.
//!
//! Protocol summary (per traversal hop, directives DI/DII as in §IV):
//!
//! * `cread(curr.mark)` tags + validates; a marked node triggers
//!   **helping**: `cwrite(pred.next, curr.next)`, and the helper whose
//!   cwrite succeeds is the *unique* unlinker (pred.next can only change
//!   once away from curr) — it unTags and frees the node on the spot;
//! * logical deletion is `cwrite(curr.mark, 1)` — the linearization point;
//!   only one marker can succeed, because a competitor's mark write
//!   revokes ours first (no read-modify-write needed);
//! * the physical unlink after a successful mark is best-effort: if it
//!   fails, a later traversal's helping completes it.

use cacore::{ca_check, ca_loop, ca_try, CaStep};
use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

use crate::layout::{KEY_TAIL, TICK_PER_HOP, TICK_PER_OP, W_KEY, W_MARK, W_NEXT};
use crate::traits::{DsShared, SetDs};

/// The lock-free Conditional-Access sorted list.
pub struct CaHarrisList {
    head: Addr,
}

struct Located {
    pred: Addr,
    curr: Addr,
    currkey: u64,
}

impl CaHarrisList {
    /// Build an empty list with static sentinels.
    pub fn new(machine: &Machine) -> Self {
        let head = machine.alloc_static(1);
        let tail = machine.alloc_static(1);
        machine.host_write(tail.word(W_KEY), KEY_TAIL);
        machine.host_write(head.word(W_NEXT), tail.0);
        Self { head }
    }

    /// Head sentinel (for checkers).
    pub fn head_node(&self) -> Addr {
        self.head
    }

    /// Traversal with helping. Returns tagged `pred`/`curr` with
    /// `pred.key < key ≤ curr.key`, `curr` unmarked at tag time.
    fn locate(&self, ctx: &mut Ctx, key: u64) -> CaStep<Located> {
        debug_assert!(key > 0 && key < KEY_TAIL);
        ctx.tick(TICK_PER_OP);
        let mut pred = self.head;
        let mut curr = Addr(ca_try!(ctx.cread(self.head.word(W_NEXT))));
        loop {
            ctx.tick(TICK_PER_HOP);
            // DII: tag curr through its mark word and validate.
            let mark = ca_try!(ctx.cread(curr.word(W_MARK)));
            if mark != 0 {
                // Help unlink the marked node. Reading curr.next is safe:
                // curr cannot have been freed, or this cread would have
                // failed (the freer unlinked it by writing pred.next, which
                // we have tagged).
                let next = Addr(ca_try!(ctx.cread(curr.word(W_NEXT))));
                ca_check!(ctx.cwrite(pred.word(W_NEXT), next.0));
                // Sole unlinker: reclaim immediately. Drop our own tag
                // first so the line's reuse does not revoke us spuriously.
                ctx.untag_one(curr);
                ctx.free(curr);
                curr = next;
                continue; // pred unchanged; validate the new curr
            }
            let currkey = ca_try!(ctx.cread(curr.word(W_KEY)));
            if currkey >= key {
                return CaStep::Done(Located {
                    pred,
                    curr,
                    currkey,
                });
            }
            let next = Addr(ca_try!(ctx.cread(curr.word(W_NEXT))));
            ctx.untag_one(pred);
            pred = curr;
            curr = next;
        }
    }
}

impl DsShared for CaHarrisList {
    type Tls = ();

    fn register(&self, _tid: usize) -> Self::Tls {}
}

/// Sim-only: the CA primitive exists only in the simulator.
impl<'m> SetDs<Ctx<'m>> for CaHarrisList {
    fn contains(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        ca_loop(ctx, |ctx| match self.locate(ctx, key) {
            CaStep::Done(loc) => CaStep::Done(loc.currkey == key),
            CaStep::Retry => CaStep::Retry,
        })
    }

    fn insert(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        ca_loop(ctx, |ctx| {
            let loc = match self.locate(ctx, key) {
                CaStep::Done(l) => l,
                CaStep::Retry => return CaStep::Retry,
            };
            if loc.currkey == key {
                return CaStep::Done(false);
            }
            let n = ctx.alloc();
            ctx.write(n.word(W_KEY), key);
            ctx.write(n.word(W_NEXT), loc.curr.0);
            ctx.write(n.word(W_MARK), 0);
            // Splice. Success proves pred was untouched since tagging —
            // in particular pred.next still equals curr and pred is
            // unmarked. A failure leaks nothing: n is still private.
            if !ctx.cwrite(loc.pred.word(W_NEXT), n.0) {
                ctx.free(n); // reclaim the private node before retrying
                return CaStep::Retry;
            }
            CaStep::Done(true) // LP: the successful splice
        })
    }

    fn delete(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        ca_loop(ctx, |ctx| {
            let loc = match self.locate(ctx, key) {
                CaStep::Done(l) => l,
                CaStep::Retry => return CaStep::Retry,
            };
            if loc.currkey != key {
                return CaStep::Done(false);
            }
            // Logical delete; only one marker can win (a competitor's mark
            // revokes our tag first).
            ca_check!(ctx.cwrite(loc.curr.word(W_MARK), 1)); // LP
            // Best-effort physical unlink; helping finishes it otherwise.
            if let Some(next) = ctx.cread(loc.curr.word(W_NEXT)) {
                if ctx.cwrite(loc.pred.word(W_NEXT), next) {
                    ctx.untag_one(loc.curr);
                    ctx.free(loc.curr);
                }
            }
            CaStep::Done(true)
        })
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
            mem_bytes: 8 << 20,
            static_lines: 64,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn basic_set_semantics() {
        let m = machine(1);
        let l = CaHarrisList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            assert!(!l.contains(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 5));
            assert!(!l.insert(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 2));
            assert!(l.insert(ctx, &mut t, 9));
            assert!(l.contains(ctx, &mut t, 5));
            assert!(l.delete(ctx, &mut t, 5));
            assert!(!l.delete(ctx, &mut t, 5));
            assert!(!l.contains(ctx, &mut t, 5));
        });
        assert_eq!(walk_list(&m, l.head_node()), vec![2, 9]);
        assert_eq!(m.stats().allocated_not_freed, 2);
    }

    #[test]
    fn churn_reclaims_immediately() {
        let m = machine(1);
        let l = CaHarrisList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for round in 0..50u64 {
                let k = 1 + round % 7;
                l.insert(ctx, &mut t, k);
                l.delete(ctx, &mut t, k);
            }
        });
        assert_eq!(
            m.stats().allocated_not_freed,
            0,
            "single-threaded: every delete unlinks and frees inline"
        );
    }

    #[test]
    fn concurrent_accounting_exact() {
        let m = machine(4);
        let l = CaHarrisList::new(&m);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = ();
            let mut rng = mcsim::Rng::new(42 + tid as u64);
            let mut net = 0i64;
            for _ in 0..250 {
                let k = 1 + rng.below(16);
                if rng.below(2) == 0 {
                    if l.insert(ctx, &mut t, k) {
                        net += 1;
                    }
                } else if l.delete(ctx, &mut t, k) {
                    net -= 1;
                }
            }
            net
        });
        // Quiesce: one full traversal helps away any marked-but-linked
        // backlog left by failed best-effort unlinks.
        m.run_on(1, |_, ctx| {
            let mut t = ();
            l.contains(ctx, &mut t, 1000);
        });
        let keys = walk_list(&m, l.head_node());
        assert_eq!(keys.len() as i64, nets.iter().sum::<i64>());
        m.check_invariants();
        // No locks anywhere, immediate reclamation: footprint == live set.
        assert_eq!(m.stats().allocated_not_freed as usize, keys.len());
    }

    #[test]
    fn helping_unlinks_marked_backlog() {
        // Force a marked-but-linked node by deleting under contention, then
        // verify a traversal reclaims it.
        let m = machine(2);
        let l = CaHarrisList::new(&m);
        m.run_on(2, |tid, ctx| {
            let mut t = ();
            if tid == 0 {
                for k in 1..=10 {
                    l.insert(ctx, &mut t, k);
                }
                for k in 1..=10 {
                    l.delete(ctx, &mut t, k);
                }
            } else {
                for _ in 0..30 {
                    l.contains(ctx, &mut t, 5); // concurrent helpers
                }
            }
        });
        // Quiesce: one full traversal reclaims any remaining marked nodes.
        m.run_on(1, |_, ctx| {
            let mut t = ();
            l.contains(ctx, &mut t, 1000);
        });
        assert!(walk_list(&m, l.head_node()).is_empty());
        assert_eq!(
            m.stats().allocated_not_freed,
            0,
            "helping must have reclaimed every unlinked node"
        );
    }

    #[test]
    fn walk_sees_no_marked_nodes_after_quiesce_traversal() {
        let m = machine(4);
        let l = CaHarrisList::new(&m);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            for i in 0..60u64 {
                let k = 1 + (i * 5 + tid as u64) % 20;
                if i % 2 == 0 {
                    l.insert(ctx, &mut t, k);
                } else {
                    l.delete(ctx, &mut t, k);
                }
            }
        });
        // A post-run traversal helps away the marked backlog...
        m.run_on(1, |_, ctx| {
            let mut t = ();
            l.contains(ctx, &mut t, 1000);
        });
        // ...after which walk_list's no-marked-node invariant must hold and
        // the footprint must equal the live set exactly.
        let keys = walk_list(&m, l.head_node());
        assert_eq!(m.stats().allocated_not_freed as usize, keys.len());
    }
}
