//! External (leaf-oriented) BST over a pluggable SMR scheme — the paper's
//! `extbst` benchmark for the non-CA reclamation algorithms.
//!
//! Same shape and locking protocol as [`crate::ca::extbst::CaExtBst`], but:
//! traversals protect {grandparent, parent, node} through
//! [`Smr::read_ptr`] with four rotating slots; hazard-based schemes
//! re-validate the *source* node's mark after each protection and restart
//! from the root on failure; updates use blocking TTAS node locks plus the
//! canonical post-lock validation; removed nodes are retired, not freed.

use casmr::{Env, EnvHost, Smr, SmrBase};
use mcsim::Addr;

use crate::layout::{
    KEY_INF1, KEY_INF2, MAX_REAL_KEY, TICK_PER_HOP, TICK_PER_OP, W_BST_LOCK, W_BST_MARK, W_KEY,
    W_LEFT, W_RIGHT,
};
use crate::traits::{DsShared, SetDs};

/// Rotating protection slots (gp, p, node, incoming).
const SLOTS: usize = 4;

/// The SMR-parameterized external BST.
pub struct SmrExtBst<S> {
    root: Addr,
    smr: S,
}

struct Found {
    gp: Addr,
    gp_key: u64,
    p: Addr,
    p_key: u64,
    leaf: Addr,
    leaf_key: u64,
}

#[inline]
fn child_word(parent_key: u64, key: u64) -> u64 {
    if key < parent_key {
        W_LEFT
    } else {
        W_RIGHT
    }
}

impl<S> SmrExtBst<S> {
    /// Build an empty tree (static root and sentinel leaves).
    pub fn new<H: EnvHost + ?Sized>(host: &H, smr: S) -> Self {
        let root = host.alloc_static(1);
        let leaf1 = host.alloc_static(1);
        let leaf2 = host.alloc_static(1);
        host.host_write(root.word(W_KEY), KEY_INF2);
        host.host_write(leaf1.word(W_KEY), KEY_INF1);
        host.host_write(leaf2.word(W_KEY), KEY_INF2);
        host.host_write(root.word(W_LEFT), leaf1.0);
        host.host_write(root.word(W_RIGHT), leaf2.0);
        Self { root, smr }
    }

    /// The underlying scheme.
    pub fn smr(&self) -> &S {
        &self.smr
    }

    /// Root address (for checkers).
    pub fn root_node(&self) -> Addr {
        self.root
    }
}

impl<S: SmrBase> SmrExtBst<S> {
    /// Protected search. Restarts from the root when hazard validation
    /// fails (a source node was marked after its child was protected).
    fn search<E>(&self, ctx: &mut E, tls: &mut S::Tls, key: u64) -> Found
    where
        E: Env + ?Sized,
        S: Smr<E>,
    {
        debug_assert!((1..=MAX_REAL_KEY).contains(&key));
        let validate = self.smr.needs_validation();
        'restart: loop {
            ctx.tick(TICK_PER_OP);
            let mut gp = self.root;
            let mut gp_key = KEY_INF2;
            let mut p = self.root;
            let mut p_key = KEY_INF2;
            let mut slot = 0usize;
            let mut node =
                Addr(
                    self.smr
                        .read_ptr(ctx, tls, slot, self.root.word(child_word(KEY_INF2, key))),
                );
            // Root is static and never marked: initial protection is sound.
            loop {
                debug_assert!(!node.is_null());
                let node_key = ctx.read(node.word(W_KEY));
                let left = ctx.read(node.word(W_LEFT));
                if left == 0 {
                    return Found {
                        gp,
                        gp_key,
                        p,
                        p_key,
                        leaf: node,
                        leaf_key: node_key,
                    };
                }
                ctx.tick(TICK_PER_HOP);
                let next_slot = (slot + 1) % SLOTS;
                let field = if key < node_key {
                    node.word(W_LEFT)
                } else {
                    node.word(W_RIGHT)
                };
                let next = Addr(self.smr.read_ptr(ctx, tls, next_slot, field));
                if validate && ctx.read(node.word(W_BST_MARK)) != 0 {
                    continue 'restart;
                }
                gp = p;
                gp_key = p_key;
                p = node;
                p_key = node_key;
                node = next;
                slot = next_slot;
            }
        }
    }

    fn lock_node<E: Env + ?Sized>(&self, ctx: &mut E, node: Addr) {
        let lock = node.word(W_BST_LOCK);
        let mut iter = 0u64;
        loop {
            if ctx.read(lock) == 0 && ctx.cas(lock, 0, 1).is_ok() {
                return;
            }
            ctx.tick(1);
            // See SmrLazyList::lock_node: yield to the OS scheduler on an
            // oversubscribed host instead of spinning against a preempted
            // holder (no-op in the simulator).
            ctx.spin_hint(iter);
            iter += 1;
        }
    }

    fn unlock_node<E: Env + ?Sized>(&self, ctx: &mut E, node: Addr) {
        ctx.write(node.word(W_BST_LOCK), 0);
    }
}

impl<S: SmrBase> DsShared for SmrExtBst<S> {
    type Tls = S::Tls;

    fn register(&self, tid: usize) -> Self::Tls {
        self.smr.register(tid)
    }
}

impl<E: Env + ?Sized, S: Smr<E>> SetDs<E> for SmrExtBst<S> {
    fn contains(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let f = self.search(ctx, tls, key);
        let found = f.leaf_key == key && ctx.read(f.leaf.word(W_BST_MARK)) == 0;
        self.smr.end_op(ctx, tls);
        found
    }

    fn insert(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            let f = self.search(ctx, tls, key);
            self.lock_node(ctx, f.p);
            let dir = child_word(f.p_key, key);
            let valid = ctx.read(f.p.word(W_BST_MARK)) == 0 && ctx.read(f.p.word(dir)) == f.leaf.0;
            if !valid {
                self.unlock_node(ctx, f.p);
                continue;
            }
            if f.leaf_key == key {
                self.unlock_node(ctx, f.p);
                break false;
            }
            let new_leaf = ctx.alloc();
            self.smr.on_alloc(ctx, tls, new_leaf);
            ctx.write(new_leaf.word(W_KEY), key);
            ctx.write(new_leaf.word(W_LEFT), 0);
            ctx.write(new_leaf.word(W_RIGHT), 0);
            ctx.write(new_leaf.word(W_BST_LOCK), 0);
            ctx.write(new_leaf.word(W_BST_MARK), 0);
            let internal = ctx.alloc();
            self.smr.on_alloc(ctx, tls, internal);
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
            ctx.write(f.p.word(dir), internal.0); // LP
            self.unlock_node(ctx, f.p);
            break true;
        };
        self.smr.end_op(ctx, tls);
        result
    }

    fn delete(&self, ctx: &mut E, tls: &mut Self::Tls, key: u64) -> bool {
        self.smr.begin_op(ctx, tls);
        let result = loop {
            let f = self.search(ctx, tls, key);
            if f.leaf_key != key {
                break false; // LP: absent
            }
            self.lock_node(ctx, f.gp);
            self.lock_node(ctx, f.p);
            let dir_p = child_word(f.gp_key, key);
            let dir_l = child_word(f.p_key, key);
            let valid = ctx.read(f.gp.word(W_BST_MARK)) == 0
                && ctx.read(f.gp.word(dir_p)) == f.p.0
                && ctx.read(f.p.word(W_BST_MARK)) == 0
                && ctx.read(f.p.word(dir_l)) == f.leaf.0;
            if !valid {
                self.unlock_node(ctx, f.p);
                self.unlock_node(ctx, f.gp);
                continue;
            }
            ctx.write(f.p.word(W_BST_MARK), 1); // LP
            ctx.write(f.leaf.word(W_BST_MARK), 1);
            let sibling_side = if dir_l == W_LEFT { W_RIGHT } else { W_LEFT };
            let sibling = ctx.read(f.p.word(sibling_side));
            ctx.write(f.gp.word(dir_p), sibling);
            self.unlock_node(ctx, f.p);
            self.unlock_node(ctx, f.gp);
            self.smr.retire(ctx, tls, f.p);
            self.smr.retire(ctx, tls, f.leaf);
            break true;
        };
        self.smr.end_op(ctx, tls);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqcheck::walk_bst;
    use casmr::{with_scheme, He, Hp, Rcu, SchemeKind, SmrConfig};
    use mcsim::{Machine, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 16 << 20,
            static_lines: 256,
            quantum: 0,
            ..Default::default()
        })
    }

    fn smoke<S: for<'m> Smr<mcsim::machine::Ctx<'m>>>(m: &Machine, b: &SmrExtBst<S>) {
        m.run_on(1, |_, ctx| {
            let mut t = b.register(0);
            assert!(b.insert(ctx, &mut t, 50));
            assert!(b.insert(ctx, &mut t, 25));
            assert!(b.insert(ctx, &mut t, 75));
            assert!(!b.insert(ctx, &mut t, 25));
            assert!(b.contains(ctx, &mut t, 25));
            assert!(!b.contains(ctx, &mut t, 26));
            assert!(b.delete(ctx, &mut t, 25));
            assert!(!b.delete(ctx, &mut t, 25));
            assert!(!b.contains(ctx, &mut t, 25));
        });
        assert_eq!(walk_bst(m, b.root_node()), vec![50, 75]);
    }

    #[test]
    fn smoke_all_schemes() {
        for kind in SchemeKind::objects() {
            let m = machine(1);
            with_scheme!(kind, &m, 1, SmrConfig::default(), |s| {
                smoke(&m, &SmrExtBst::new(&m, s))
            });
        }
    }

    #[test]
    fn concurrent_stress_hp_bst() {
        let m = machine(4);
        let s = Hp::new(
            &m,
            4,
            SmrConfig {
                reclaim_freq: 4,
                ..Default::default()
            },
        );
        let b = SmrExtBst::new(&m, s);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = b.register(tid);
            let mut net = 0i64;
            for round in 0..60u64 {
                let k = 1 + (round * 17 + tid as u64 * 7) % 24;
                if (round + tid as u64).is_multiple_of(2) {
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
        m.check_invariants();
    }

    #[test]
    fn concurrent_stress_rcu_bst() {
        let m = machine(4);
        let s = Rcu::new(
            &m,
            4,
            SmrConfig {
                reclaim_freq: 8,
                epoch_freq: 10,
            },
        );
        let b = SmrExtBst::new(&m, s);
        let nets = m.run_on(4, |tid, ctx| {
            let mut t = b.register(tid);
            let mut net = 0i64;
            for round in 0..60u64 {
                let k = 1 + (round * 13 + tid as u64 * 3) % 20;
                match round % 3 {
                    0 => {
                        if b.insert(ctx, &mut t, k) {
                            net += 1;
                        }
                    }
                    1 => {
                        if b.delete(ctx, &mut t, k) {
                            net -= 1;
                        }
                    }
                    _ => {
                        b.contains(ctx, &mut t, k);
                    }
                }
            }
            net
        });
        let size = walk_bst(&m, b.root_node()).len() as i64;
        assert_eq!(size, nets.iter().sum::<i64>());
    }

    #[test]
    fn native_bst_smoke() {
        let m = casmr::NativeMachine::new(1 << 14);
        let s = He::new(&m, 1, SmrConfig::default());
        let b = SmrExtBst::new(&m, s);
        m.run_on(1, |_, env| {
            let mut t = b.register(0);
            assert!(b.insert(env, &mut t, 50));
            assert!(b.insert(env, &mut t, 25));
            assert!(!b.insert(env, &mut t, 50));
            assert!(b.contains(env, &mut t, 25));
            assert!(b.delete(env, &mut t, 25));
            assert!(!b.contains(env, &mut t, 25));
        });
        assert_eq!(walk_bst(&m, b.root_node()), vec![50]);
    }
}
