//! Hand-over-hand **transactional** lazy list with precise reclamation —
//! the Zhou/Luchangco/Spear design (paper §VI related work), reproduced as
//! the baseline Conditional Access is compared against.
//!
//! ## Protocol
//!
//! The list augments every node with an entry in a shared **metadata table**
//! of version counters, indexed by a hash of the node's address. A deleter
//! bumps the victim's version *inside* the transaction that marks and
//! unlinks it, then frees the node immediately after commit. A reader that
//! obtained a node pointer in transaction *i* may only dereference it in
//! transaction *i+1* after re-reading the version and checking it is
//! unchanged:
//!
//! * if the node was freed **before** *i+1* began, the version comparison
//!   fails and the operation restarts (the address may even have been
//!   recycled — the version still differs);
//! * if the node is freed **while** *i+1* runs, the deleter's version bump
//!   conflicts with *i+1*'s read set and aborts it before the commit.
//!
//! Either way no transaction ever dereferences a freed node, which the
//! simulator's use-after-free detector verifies on every access.
//!
//! ## What the paper says this costs
//!
//! Two structural overheads, both measurable here (see `htm_bench`):
//!
//! * **per-hop transaction overhead** — every traversal hop pays
//!   `tx_begin` + `tx_commit`, even in read-only operations ("the frequent
//!   starting and committing of transactions for read-only operations
//!   introduced significant latency");
//! * **false conflicts** — unrelated nodes hashing to the same metadata
//!   slot abort readers that never touched the deleted node.

use cacore::htm::TxStep;
use cacore::{tx_check, tx_loop, tx_try, tx_validate};
use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

use crate::layout::{KEY_TAIL, TICK_PER_HOP, TICK_PER_OP, W_KEY, W_MARK, W_NEXT};
use crate::traits::{DsShared, SetDs};

/// Default number of metadata slots (one version counter per slot, each on
/// its own cache line). Zhou et al. size this as a table; smaller tables
/// increase false-conflict pressure — `htm_bench` sweeps it.
pub const DEFAULT_META_SLOTS: usize = 256;

/// The hand-over-hand transactional lazy list.
pub struct HtmLazyList {
    /// Head sentinel (static, key −∞, never marked or freed).
    head: Addr,
    /// Base of the version table: `slots` consecutive static lines.
    meta: Addr,
    slots: u64,
}

/// A node pointer captured in a previous transaction, paired with the
/// version that validated it there.
#[derive(Copy, Clone, Debug)]
struct Versioned {
    node: Addr,
    version: u64,
}

/// Result of a successful hand-over-hand search.
struct Located {
    pred: Versioned,
    curr: Versioned,
    currkey: u64,
}

impl HtmLazyList {
    /// Build an empty list with the default metadata-table size.
    pub fn new(machine: &Machine) -> Self {
        Self::with_slots(machine, DEFAULT_META_SLOTS)
    }

    /// Build an empty list with a `slots`-entry version table.
    pub fn with_slots(machine: &Machine, slots: usize) -> Self {
        assert!(slots >= 1, "need at least one metadata slot");
        let head = machine.alloc_static(1);
        let tail = machine.alloc_static(1);
        let meta = machine.alloc_static(slots as u64);
        machine.host_write(tail.word(W_KEY), KEY_TAIL);
        machine.host_write(head.word(W_NEXT), tail.0);
        Self {
            head,
            meta,
            slots: slots as u64,
        }
    }

    /// Head sentinel address (for checkers walking the final state).
    pub fn head_node(&self) -> Addr {
        self.head
    }

    /// The version slot guarding `node`: a Fibonacci hash of its line
    /// number. Collisions between unrelated nodes are the *false conflicts*
    /// the paper attributes to this design.
    fn slot(&self, node: Addr) -> Addr {
        let h = (node.0 >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        Addr(self.meta.0 + (h % self.slots) * 64)
    }

    /// Hand-over-hand search: one transaction per hop. Returns versioned
    /// `pred`/`curr` with `pred.key < key ≤ curr.key`; the final hop's
    /// committed transaction proved both unmarked/reachable at its commit
    /// point.
    fn search(&self, ctx: &mut Ctx, key: u64) -> TxStep<Located> {
        debug_assert!(key > 0 && key < KEY_TAIL);
        ctx.tick(TICK_PER_OP);
        // Transaction 0: snapshot (head.next, its version, head's version).
        ctx.tx_begin();
        let v_head = tx_try!(ctx.tx_read(self.slot(self.head)));
        let first = Addr(tx_try!(ctx.tx_read(self.head.word(W_NEXT))));
        let v_first = tx_try!(ctx.tx_read(self.slot(first)));
        tx_check!(ctx.tx_commit());
        let mut pred = Versioned {
            node: self.head,
            version: v_head,
        };
        let mut curr = Versioned {
            node: first,
            version: v_first,
        };
        loop {
            ctx.tick(TICK_PER_HOP);
            // One transaction per hop: revalidate the carried-over window,
            // then read curr's fields and capture the next window.
            ctx.tx_begin();
            // pred not freed since it was last validated (version check must
            // precede any dereference of pred)...
            tx_validate!(ctx, tx_try!(ctx.tx_read(self.slot(pred.node))) == pred.version);
            // ...and still unmarked, and still pointing at curr (so curr is
            // reachable if it passes its own version check).
            tx_validate!(ctx, tx_try!(ctx.tx_read(pred.node.word(W_MARK))) == 0);
            tx_validate!(
                ctx,
                tx_try!(ctx.tx_read(pred.node.word(W_NEXT))) == curr.node.0
            );
            // curr not freed since its pointer was captured.
            tx_validate!(ctx, tx_try!(ctx.tx_read(self.slot(curr.node))) == curr.version);
            let currkey = tx_try!(ctx.tx_read(curr.node.word(W_KEY)));
            if currkey >= key {
                tx_check!(ctx.tx_commit());
                return TxStep::Done(Located {
                    pred,
                    curr,
                    currkey,
                });
            }
            tx_validate!(ctx, tx_try!(ctx.tx_read(curr.node.word(W_MARK))) == 0);
            let next = Addr(tx_try!(ctx.tx_read(curr.node.word(W_NEXT))));
            let v_next = tx_try!(ctx.tx_read(self.slot(next)));
            tx_check!(ctx.tx_commit());
            pred = curr;
            curr = Versioned {
                node: next,
                version: v_next,
            };
        }
    }

    /// Revalidate the search window inside the update transaction: pred
    /// live, unmarked, still pointing at curr; curr live.
    fn validate_window(&self, ctx: &mut Ctx, loc: &Located) -> TxStep<()> {
        tx_validate!(
            ctx,
            tx_try!(ctx.tx_read(self.slot(loc.pred.node))) == loc.pred.version
        );
        tx_validate!(ctx, tx_try!(ctx.tx_read(loc.pred.node.word(W_MARK))) == 0);
        tx_validate!(
            ctx,
            tx_try!(ctx.tx_read(loc.pred.node.word(W_NEXT))) == loc.curr.node.0
        );
        tx_validate!(
            ctx,
            tx_try!(ctx.tx_read(self.slot(loc.curr.node))) == loc.curr.version
        );
        TxStep::Done(())
    }
}

impl DsShared for HtmLazyList {
    type Tls = ();

    fn register(&self, _tid: usize) -> Self::Tls {}
}

/// Sim-only: hardware transactions exist only in the simulator.
impl<'m> SetDs<Ctx<'m>> for HtmLazyList {
    /// Membership test: linearizes at the final hop transaction's commit.
    fn contains(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        tx_loop(ctx, |ctx| {
            let loc = match self.search(ctx, key) {
                TxStep::Done(l) => l,
                TxStep::Restart => return TxStep::Restart,
            };
            TxStep::Done(loc.currkey == key)
        })
    }

    fn insert(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        // The new node is private until the linking transaction commits, so
        // plain writes initialize it. Allocated once per *operation*, not
        // per attempt, and released on the not-inserted path.
        let mut node: Option<Addr> = None;
        let inserted = tx_loop(ctx, |ctx| {
            let loc = match self.search(ctx, key) {
                TxStep::Done(l) => l,
                TxStep::Restart => return TxStep::Restart,
            };
            if loc.currkey == key {
                return TxStep::Done(false); // LP: the search's last commit
            }
            let n = *node.get_or_insert_with(|| ctx.alloc());
            ctx.write(n.word(W_KEY), key);
            ctx.write(n.word(W_MARK), 0);
            ctx.write(n.word(W_NEXT), loc.curr.node.0);
            ctx.tx_begin();
            match self.validate_window(ctx, &loc) {
                TxStep::Done(()) => {}
                TxStep::Restart => return TxStep::Restart,
            }
            tx_check!(ctx.tx_write(loc.pred.node.word(W_NEXT), n.0));
            tx_check!(ctx.tx_commit()); // LP: link becomes visible
            TxStep::Done(true)
        });
        if !inserted {
            if let Some(n) = node {
                ctx.free(n); // never published
            }
        }
        inserted
    }

    /// Delete: marks, unlinks and version-bumps in one transaction, then
    /// frees **immediately** — the "precise memory reclamation" half of the
    /// design.
    fn delete(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        let victim = tx_loop(ctx, |ctx| {
            let loc = match self.search(ctx, key) {
                TxStep::Done(l) => l,
                TxStep::Restart => return TxStep::Restart,
            };
            if loc.currkey != key {
                return TxStep::Done(None); // LP: the search's last commit
            }
            ctx.tx_begin();
            match self.validate_window(ctx, &loc) {
                TxStep::Done(()) => {}
                TxStep::Restart => return TxStep::Restart,
            }
            // curr could have been marked by a concurrent deleter whose
            // unlink has not yet retargeted pred.next — never free twice.
            tx_validate!(ctx, tx_try!(ctx.tx_read(loc.curr.node.word(W_MARK))) == 0);
            let next = tx_try!(ctx.tx_read(loc.curr.node.word(W_NEXT)));
            tx_check!(ctx.tx_write(loc.curr.node.word(W_MARK), 1)); // LP
            tx_check!(ctx.tx_write(loc.pred.node.word(W_NEXT), next));
            // The version bump that makes reclamation precise: every reader
            // still carrying (curr, old version) will fail its next check.
            tx_check!(ctx.tx_write(self.slot(loc.curr.node), loc.curr.version + 1));
            tx_check!(ctx.tx_commit());
            TxStep::Done(Some(loc.curr.node))
        });
        match victim {
            Some(node) => {
                ctx.free(node); // immediate reclamation
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
            static_lines: 512,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn basic_set_semantics() {
        let m = machine(1);
        let l = HtmLazyList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            assert!(!l.contains(ctx, &mut t, 5));
            assert!(l.insert(ctx, &mut t, 5));
            assert!(!l.insert(ctx, &mut t, 5), "duplicate insert");
            assert!(l.insert(ctx, &mut t, 3));
            assert!(l.insert(ctx, &mut t, 8));
            assert!(l.contains(ctx, &mut t, 3));
            assert!(l.contains(ctx, &mut t, 5));
            assert!(!l.contains(ctx, &mut t, 4));
            assert!(l.delete(ctx, &mut t, 5));
            assert!(!l.delete(ctx, &mut t, 5), "double delete");
            assert!(!l.contains(ctx, &mut t, 5));
        });
        assert_eq!(walk_list(&m, l.head_node()), vec![3, 8]);
    }

    #[test]
    fn delete_frees_immediately() {
        let m = machine(1);
        let l = HtmLazyList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for k in 1..=20 {
                l.insert(ctx, &mut t, k);
            }
            for k in 1..=20 {
                assert!(l.delete(ctx, &mut t, k));
            }
        });
        assert_eq!(m.stats().allocated_not_freed, 0, "precise reclamation");
    }

    #[test]
    fn failed_insert_does_not_leak() {
        let m = machine(1);
        let l = HtmLazyList::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            assert!(l.insert(ctx, &mut t, 7));
            for _ in 0..5 {
                assert!(!l.insert(ctx, &mut t, 7));
            }
        });
        assert_eq!(m.stats().allocated_not_freed, 1, "only the live node");
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let m = machine(4);
        let l = HtmLazyList::new(&m);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            for i in 0..40u64 {
                assert!(l.insert(ctx, &mut t, 1 + (tid as u64) + 4 * i));
            }
        });
        let keys = walk_list(&m, l.head_node());
        assert_eq!(keys, (1..=160).collect::<Vec<_>>());
        m.check_invariants();
    }

    #[test]
    fn contended_same_key_exactness() {
        // All threads fight over a 10-key space through recycled addresses;
        // the version protocol must keep the list exact and UAF-free (the
        // detector is armed).
        let m = machine(4);
        let l = HtmLazyList::new(&m);
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
        assert_eq!(final_size, counts.iter().sum::<i64>());
        assert_eq!(m.stats().allocated_not_freed as i64, final_size);
        m.check_invariants();
    }

    #[test]
    fn tiny_meta_table_still_correct() {
        // One slot: every node shares a version counter — false conflicts
        // everywhere, but never incorrectness.
        let m = machine(4);
        let l = HtmLazyList::with_slots(&m, 1);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            let base = 1 + 50 * tid as u64;
            for k in base..base + 25 {
                assert!(l.insert(ctx, &mut t, k));
            }
            for k in (base..base + 25).step_by(2) {
                assert!(l.delete(ctx, &mut t, k));
            }
        });
        let keys = walk_list(&m, l.head_node());
        assert_eq!(keys.len(), 4 * 12);
        m.check_invariants();
    }

    #[test]
    fn transactions_are_counted() {
        let m = machine(2);
        let l = HtmLazyList::new(&m);
        m.run_on(2, |tid, ctx| {
            let mut t = ();
            for i in 0..30u64 {
                l.insert(ctx, &mut t, 1 + tid as u64 + 2 * i);
                l.contains(ctx, &mut t, 1 + i);
            }
        });
        let s = m.stats();
        let begun = s.sum(|c| c.tx_begins);
        let done = s.sum(|c| c.tx_commits) + s.sum(|c| c.tx_aborts);
        assert!(begun > 0);
        assert_eq!(begun, done, "every transaction commits or aborts");
    }
}
