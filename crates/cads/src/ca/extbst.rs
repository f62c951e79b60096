//! Conditional-Access external (leaf-oriented) binary search tree.
//!
//! The paper's `extbst` benchmark (§V) with the §IV-B optimistic
//! two-phase-locking recipe applied:
//!
//! * leaves hold the set's keys; internal nodes route (`key < node.key` →
//!   left, else right);
//! * searches are `cread`-only with a hand-over-hand tag window of
//!   {grandparent, parent, leaf}; each node's mark is validated right after
//!   it is first tagged (DII);
//! * `insert` locks the parent (Algorithm 2 try-lock), whose tag doubles as
//!   validation, and splices `internal(new-leaf, old-leaf)` in place of the
//!   old leaf;
//! * `delete` locks grandparent and parent, marks the parent and the leaf
//!   (write-before-free), swings the grandparent to the sibling, and frees
//!   **both** removed nodes immediately.
//!
//! Sentinel shape (Ellen et al.): a static root `internal(∞₂)` with leaves
//! `∞₁`/`∞₂`. Real keys are `< ∞₁`, so every real leaf has an internal
//! parent *and* grandparent, and the sentinels are never deletable.

use cacore::{attempt_loop, lock, Restart};
use mcsim::machine::Ctx;
use mcsim::{Addr, Machine};

use crate::layout::{
    KEY_INF1, KEY_INF2, MAX_REAL_KEY, TICK_PER_HOP, TICK_PER_OP, W_BST_LOCK, W_BST_MARK, W_KEY,
    W_LEFT, W_RIGHT,
};
use crate::traits::{DsShared, SetDs};

/// The Conditional-Access external BST.
pub struct CaExtBst {
    /// Static root: internal node with key ∞₂, never unlinked.
    root: Addr,
}

/// A successful search: the leaf and its two nearest internal ancestors,
/// all tagged, with the keys needed to recompute child directions.
struct Found {
    /// Grandparent of the leaf (may be the root).
    gp: Addr,
    gp_key: u64,
    /// Parent of the leaf (may be the root when the tree is tiny).
    p: Addr,
    p_key: u64,
    /// The reached leaf.
    leaf: Addr,
    leaf_key: u64,
}

/// Which child field of `parent` holds keys like `key`.
#[inline]
fn child_word(parent_key: u64, key: u64) -> u64 {
    if key < parent_key {
        W_LEFT
    } else {
        W_RIGHT
    }
}

impl CaExtBst {
    /// Build an empty tree: static `root(∞₂)` with static leaves ∞₁ and ∞₂.
    pub fn new(machine: &Machine) -> Self {
        let root = machine.alloc_static(1);
        let leaf1 = machine.alloc_static(1);
        let leaf2 = machine.alloc_static(1);
        machine.host_write(root.word(W_KEY), KEY_INF2);
        machine.host_write(leaf1.word(W_KEY), KEY_INF1);
        machine.host_write(leaf2.word(W_KEY), KEY_INF2);
        machine.host_write(root.word(W_LEFT), leaf1.0);
        machine.host_write(root.word(W_RIGHT), leaf2.0);
        Self { root }
    }

    /// Root address (for final-state checkers).
    pub fn root_node(&self) -> Addr {
        self.root
    }

    /// `cread`-only search for `key`. Maintains the tag window
    /// {gp, p, leaf}; earlier path nodes are untagged hand-over-hand.
    fn search(&self, ctx: &mut Ctx, key: u64) -> Result<Found, Restart> {
        debug_assert!((1..=MAX_REAL_KEY).contains(&key));
        ctx.tick(TICK_PER_OP);
        // The root is static and never marked: no validation needed, but its
        // child pointers must be cread (they change) — this tags the root.
        let mut gp = self.root;
        let mut gp_key = KEY_INF2;
        let mut p = self.root;
        let mut p_key = KEY_INF2;
        let mut node = Addr(ctx.cread(self.root.word(child_word(KEY_INF2, key)))?);
        loop {
            ctx.tick(TICK_PER_HOP);
            // First touch of `node`: the cread tags it; validate its mark
            // immediately (DII).
            let mark = ctx.cread(node.word(W_BST_MARK))?;
            if mark != 0 {
                return Err(Restart);
            }
            let node_key = ctx.cread(node.word(W_KEY))?;
            let left = ctx.cread(node.word(W_LEFT))?;
            if left == 0 {
                // Leaf reached.
                return Ok(Found {
                    gp,
                    gp_key,
                    p,
                    p_key,
                    leaf: node,
                    leaf_key: node_key,
                });
            }
            let next = if key < node_key {
                left
            } else {
                ctx.cread(node.word(W_RIGHT))?
            };
            // Slide the window: gp leaves it.
            if gp != p {
                ctx.untag_one(gp);
            }
            gp = p;
            gp_key = p_key;
            p = node;
            p_key = node_key;
            node = Addr(next);
        }
    }
}

impl CaExtBst {
    /// One optimistic attempt of `contains`.
    fn contains_attempt(&self, ctx: &mut Ctx, key: u64) -> Result<bool, Restart> {
        Ok(self.search(ctx, key)?.leaf_key == key)
    }

    /// One optimistic attempt of `insert`.
    fn insert_attempt(&self, ctx: &mut Ctx, key: u64) -> Result<bool, Restart> {
        let f = self.search(ctx, key)?;
        if f.leaf_key == key {
            return Ok(false); // LP: already present
        }
        // Locking p validates it: if p was marked, unlinked, or its
        // child pointer changed since tagging, the try-lock fails.
        lock::try_lock(ctx, f.p.word(W_BST_LOCK))?;
        // Critical section (p locked): plain writes.
        let new_leaf = ctx.alloc();
        ctx.write(new_leaf.word(W_KEY), key);
        ctx.write(new_leaf.word(W_LEFT), 0);
        ctx.write(new_leaf.word(W_RIGHT), 0);
        ctx.write(new_leaf.word(W_BST_LOCK), 0);
        ctx.write(new_leaf.word(W_BST_MARK), 0);
        let internal = ctx.alloc();
        let (ikey, ileft, iright) = if key < f.leaf_key {
            (f.leaf_key, new_leaf.0, f.leaf.0)
        } else {
            (key, f.leaf.0, new_leaf.0)
        };
        ctx.write(internal.word(W_KEY), ikey);
        ctx.write(internal.word(W_LEFT), ileft);
        ctx.write(internal.word(W_RIGHT), iright);
        ctx.write(internal.word(W_BST_LOCK), 0);
        ctx.write(internal.word(W_BST_MARK), 0);
        ctx.write(f.p.word(child_word(f.p_key, key)), internal.0); // LP
        lock::unlock(ctx, f.p.word(W_BST_LOCK));
        Ok(true)
    }

    /// One optimistic attempt of `delete`; on success returns the unlinked
    /// (parent, leaf) pair, which the caller frees after its `untagAll`.
    fn delete_attempt(&self, ctx: &mut Ctx, key: u64) -> Result<Option<(Addr, Addr)>, Restart> {
        let f = self.search(ctx, key)?;
        if f.leaf_key != key {
            return Ok(None); // LP: absent
        }
        // Lock ancestor-first (gp, then p); try-locks double as
        // validation of both nodes.
        lock::try_lock(ctx, f.gp.word(W_BST_LOCK))?;
        if let Err(restart) = lock::try_lock(ctx, f.p.word(W_BST_LOCK)) {
            lock::unlock(ctx, f.gp.word(W_BST_LOCK));
            return Err(restart);
        }
        // Critical section. Mark both removed nodes first — the
        // write-before-free rule revokes every tag on them.
        ctx.write(f.p.word(W_BST_MARK), 1); // LP
        ctx.write(f.leaf.word(W_BST_MARK), 1);
        let leaf_side = child_word(f.p_key, key);
        let sibling_side = if leaf_side == W_LEFT { W_RIGHT } else { W_LEFT };
        let sibling = ctx.read(f.p.word(sibling_side));
        ctx.write(f.gp.word(child_word(f.gp_key, key)), sibling);
        lock::unlock(ctx, f.p.word(W_BST_LOCK));
        lock::unlock(ctx, f.gp.word(W_BST_LOCK));
        Ok(Some((f.p, f.leaf)))
    }
}

impl DsShared for CaExtBst {
    type Tls = ();

    fn register(&self, _tid: usize) -> Self::Tls {}
}

/// Sim-only: the CA primitive exists only in the simulator.
impl<'m> SetDs<Ctx<'m>> for CaExtBst {
    fn contains(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        attempt_loop(ctx, Ctx::untag_all, |ctx| self.contains_attempt(ctx, key))
    }

    fn insert(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        attempt_loop(ctx, Ctx::untag_all, |ctx| self.insert_attempt(ctx, key))
    }

    fn delete(&self, ctx: &mut Ctx<'m>, _tls: &mut Self::Tls, key: u64) -> bool {
        let victims = attempt_loop(ctx, Ctx::untag_all, |ctx| self.delete_attempt(ctx, key));
        match victims {
            Some((p, leaf)) => {
                // Immediate reclamation of both unlinked nodes.
                ctx.free(p);
                ctx.free(leaf);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqcheck::walk_bst;
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
        let b = CaExtBst::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            assert!(!b.contains(ctx, &mut t, 50));
            assert!(b.insert(ctx, &mut t, 50));
            assert!(!b.insert(ctx, &mut t, 50));
            assert!(b.insert(ctx, &mut t, 25));
            assert!(b.insert(ctx, &mut t, 75));
            assert!(b.insert(ctx, &mut t, 60));
            assert!(b.contains(ctx, &mut t, 60));
            assert!(!b.contains(ctx, &mut t, 61));
            assert!(b.delete(ctx, &mut t, 50));
            assert!(!b.delete(ctx, &mut t, 50));
            assert!(!b.contains(ctx, &mut t, 50));
            assert!(b.contains(ctx, &mut t, 25));
            assert!(b.contains(ctx, &mut t, 75));
        });
        assert_eq!(walk_bst(&m, b.root_node()), vec![25, 60, 75]);
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let m = machine(1);
        let b = CaExtBst::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for round in 0..3 {
                for k in 1..=10 {
                    assert!(b.insert(ctx, &mut t, k), "round {round} insert {k}");
                }
                for k in 1..=10 {
                    assert!(b.delete(ctx, &mut t, k), "round {round} delete {k}");
                }
            }
        });
        assert!(walk_bst(&m, b.root_node()).is_empty());
        assert_eq!(
            m.stats().allocated_not_freed,
            0,
            "deletes free internal+leaf immediately"
        );
    }

    #[test]
    fn footprint_equals_live_set() {
        // An external BST with n keys has n leaves + (n-1)+1 internals
        // (counting the chain above the sentinel leaf): exactly 2n heap
        // nodes for n keys, since sentinels are static.
        let m = machine(1);
        let b = CaExtBst::new(&m);
        m.run_on(1, |_, ctx| {
            let mut t = ();
            for k in 1..=32 {
                b.insert(ctx, &mut t, k);
            }
        });
        assert_eq!(m.stats().allocated_not_freed, 64, "2 nodes per key");
    }

    #[test]
    fn concurrent_disjoint_inserts_and_deletes() {
        let m = machine(4);
        let b = CaExtBst::new(&m);
        m.run_on(4, |tid, ctx| {
            let mut t = ();
            let base = 1 + 1000 * tid as u64;
            for i in 0..60 {
                assert!(b.insert(ctx, &mut t, base + i));
            }
            for i in (0..60).step_by(3) {
                assert!(b.delete(ctx, &mut t, base + i));
            }
        });
        let keys = walk_bst(&m, b.root_node());
        let expect: Vec<u64> = (0..4u64)
            .flat_map(|tid| {
                let base = 1 + 1000 * tid;
                (0..60).filter(|i| i % 3 != 0).map(move |i| base + i)
            })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(keys, expect);
        m.check_invariants();
    }

    #[test]
    fn contended_same_keys_stay_consistent() {
        let m = machine(4);
        let b = CaExtBst::new(&m);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = ();
            let mut net = 0i64;
            for round in 0..60u64 {
                let k = 1 + (round * 13 + tid as u64 * 5) % 12;
                if (round ^ tid as u64) & 1 == 0 {
                    if b.insert(ctx, &mut t, k) {
                        net += 1;
                    }
                } else if b.delete(ctx, &mut t, k) {
                    net -= 1;
                }
            }
            net
        });
        let size = walk_bst(&m, b.root_node()).len() as i64;
        assert_eq!(size, nets.iter().sum::<i64>());
        assert_eq!(
            m.stats().allocated_not_freed as i64,
            2 * size,
            "2 heap nodes per live key, everything else freed"
        );
    }
}
