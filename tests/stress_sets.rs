//! Cross-crate stress tests: every set structure × every reclamation
//! configuration, under concurrent mixed workloads, with the simulator's
//! use-after-free detector armed throughout.
//!
//! Each test checks *exact accounting*: the multiset of successful inserts
//! minus successful deletes per key must equal the final contents. Any lost
//! update, phantom key, double-free or use-after-free fails the run.

mod common;

use common::{check_set_accounting, machine, run_mixed_set};
use conditional_access::ds::ca::{CaExtBst, CaLazyList};
use conditional_access::ds::seqcheck::{walk_bst, walk_list};
use conditional_access::ds::smr::{SmrExtBst, SmrLazyList};
use conditional_access::ds::HashTable;
use conditional_access::smr::{with_scheme, Hp, SchemeKind, SmrConfig};

const THREADS: usize = 4;
const OPS: u64 = 250;
const RANGE: u64 = 48;

fn tight_smr() -> SmrConfig {
    // Aggressive frequencies: more reclamation events = more chances to
    // catch a protection hole.
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 6,
        ..Default::default()
    }
}

#[test]
fn ca_lazylist_stress() {
    let m = machine(THREADS, 0);
    let ds = CaLazyList::new(&m);
    let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, 0xA11CE);
    check_set_accounting(&acct, &walk_list(&m, ds.head_node()));
    m.check_invariants();
    // Immediate reclamation: allocated == live.
    assert_eq!(
        m.stats().allocated_not_freed as usize,
        walk_list(&m, ds.head_node()).len()
    );
}

#[test]
fn ca_extbst_stress() {
    let m = machine(THREADS, 0);
    let ds = CaExtBst::new(&m);
    let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, 0xBEE);
    let keys = walk_bst(&m, ds.root_node());
    check_set_accounting(&acct, &keys);
    m.check_invariants();
    assert_eq!(m.stats().allocated_not_freed as usize, 2 * keys.len());
}

#[test]
fn ca_hashtable_stress() {
    let m = machine(THREADS, 0);
    let ds = HashTable::new(&m, 8, CaLazyList::new);
    let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, 0xCAFE);
    let mut keys: Vec<u64> = ds
        .buckets()
        .iter()
        .flat_map(|b| walk_list(&m, b.head_node()))
        .collect();
    keys.sort_unstable();
    check_set_accounting(&acct, &keys);
}

fn lazylist_with(kind: SchemeKind, seed: u64) {
    let m = machine(THREADS, 0);
    with_scheme!(kind, &m, THREADS, tight_smr(), |s| {
        let ds = SmrLazyList::new(&m, s);
        let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, seed);
        check_set_accounting(&acct, &walk_list(&m, ds.head_node()));
    });
    m.check_invariants();
}

#[test]
fn smr_lazylist_stress_leaky() {
    lazylist_with(SchemeKind::None, 1);
}

#[test]
fn smr_lazylist_stress_qsbr() {
    lazylist_with(SchemeKind::Qsbr, 2);
}

#[test]
fn smr_lazylist_stress_rcu() {
    lazylist_with(SchemeKind::Rcu, 3);
}

#[test]
fn smr_lazylist_stress_ibr() {
    lazylist_with(SchemeKind::Ibr, 4);
}

#[test]
fn smr_lazylist_stress_hp() {
    lazylist_with(SchemeKind::Hp, 5);
}

#[test]
fn smr_lazylist_stress_he() {
    lazylist_with(SchemeKind::He, 6);
}

fn extbst_with(kind: SchemeKind, seed: u64) {
    let m = machine(THREADS, 0);
    with_scheme!(kind, &m, THREADS, tight_smr(), |s| {
        let ds = SmrExtBst::new(&m, s);
        let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, seed);
        check_set_accounting(&acct, &walk_bst(&m, ds.root_node()));
    });
    m.check_invariants();
}

#[test]
fn smr_extbst_stress_qsbr() {
    extbst_with(SchemeKind::Qsbr, 7);
}

#[test]
fn smr_extbst_stress_rcu() {
    extbst_with(SchemeKind::Rcu, 8);
}

#[test]
fn smr_extbst_stress_ibr() {
    extbst_with(SchemeKind::Ibr, 9);
}

#[test]
fn smr_extbst_stress_hp() {
    extbst_with(SchemeKind::Hp, 10);
}

#[test]
fn smr_extbst_stress_he() {
    extbst_with(SchemeKind::He, 11);
}

#[test]
fn smr_hashtable_stress_shared_scheme() {
    // 8 buckets sharing one hp instance through the &S blanket impl.
    let m = machine(THREADS, 0);
    let s = Hp::new(&m, THREADS, tight_smr());
    let ds = HashTable::new(&m, 8, |mm| SmrLazyList::new(mm, &s));
    let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, 0xD00D);
    let mut keys: Vec<u64> = ds
        .buckets()
        .iter()
        .flat_map(|b| walk_list(&m, b.head_node()))
        .collect();
    keys.sort_unstable();
    check_set_accounting(&acct, &keys);
}

#[test]
fn quantum_does_not_change_correctness() {
    // Different lookahead quanta yield different interleavings; every one
    // of them must still satisfy exact accounting.
    for quantum in [0, 32, 512] {
        let m = machine(THREADS, quantum);
        let ds = CaLazyList::new(&m);
        let acct = run_mixed_set(&m, &ds, THREADS, OPS, RANGE, 0x5EED ^ quantum);
        check_set_accounting(&acct, &walk_list(&m, ds.head_node()));
    }
}
