//! Cross-crate stress tests: every set structure × every reclamation
//! configuration through the shared differential battery
//! (`common::battery`), under concurrent mixed workloads, with the
//! simulator's use-after-free detector armed throughout.
//!
//! Each test checks *exact accounting*: the multiset of successful inserts
//! minus successful deletes per key must equal the final contents. Any lost
//! update, phantom key, double-free or use-after-free fails the run.

mod common;

use common::{battery, machine, Cell};
use conditional_access::smr::SchemeKind;

const THREADS: usize = 4;
const OPS: u64 = 250;
const RANGE: u64 = 48;

/// One battery cell at lookahead `quantum`, conservation and invariants
/// checked.
fn stress(structure: &str, scheme: SchemeKind, quantum: u64, seed: u64) -> Cell {
    let m = machine(THREADS, quantum);
    let cell = battery(&m, structure, scheme, THREADS, OPS, RANGE, seed);
    cell.check_conservation();
    m.check_invariants();
    cell
}

#[test]
fn ca_lazylist_stress() {
    let cell = stress("lazylist", SchemeKind::Ca, 0, 0xA11CE);
    // Immediate reclamation: allocated == live.
    assert_eq!(cell.stats.allocated_not_freed as usize, cell.contents.len());
}

#[test]
fn ca_extbst_stress() {
    let cell = stress("extbst", SchemeKind::Ca, 0, 0xBEE);
    assert_eq!(
        cell.stats.allocated_not_freed as usize,
        2 * cell.contents.len()
    );
}

#[test]
fn ca_hashtable_stress() {
    stress("hashtable", SchemeKind::Ca, 0, 0xCAFE);
}

#[test]
fn smr_lazylist_stress_leaky() {
    stress("lazylist", SchemeKind::None, 0, 1);
}

#[test]
fn smr_lazylist_stress_qsbr() {
    stress("lazylist", SchemeKind::Qsbr, 0, 2);
}

#[test]
fn smr_lazylist_stress_rcu() {
    stress("lazylist", SchemeKind::Rcu, 0, 3);
}

#[test]
fn smr_lazylist_stress_ibr() {
    stress("lazylist", SchemeKind::Ibr, 0, 4);
}

#[test]
fn smr_lazylist_stress_hp() {
    stress("lazylist", SchemeKind::Hp, 0, 5);
}

#[test]
fn smr_lazylist_stress_he() {
    stress("lazylist", SchemeKind::He, 0, 6);
}

#[test]
fn smr_extbst_stress_qsbr() {
    stress("extbst", SchemeKind::Qsbr, 0, 7);
}

#[test]
fn smr_extbst_stress_rcu() {
    stress("extbst", SchemeKind::Rcu, 0, 8);
}

#[test]
fn smr_extbst_stress_ibr() {
    stress("extbst", SchemeKind::Ibr, 0, 9);
}

#[test]
fn smr_extbst_stress_hp() {
    stress("extbst", SchemeKind::Hp, 0, 10);
}

#[test]
fn smr_extbst_stress_he() {
    stress("extbst", SchemeKind::He, 0, 11);
}

#[test]
fn smr_hashtable_stress_shared_scheme() {
    // The table's buckets share one hp instance through the &S blanket impl.
    stress("hashtable", SchemeKind::Hp, 0, 0xD00D);
}

#[test]
fn quantum_does_not_change_correctness() {
    // Different lookahead quanta yield different interleavings; every one
    // of them must still satisfy exact accounting.
    for quantum in [0, 32, 512] {
        stress("lazylist", SchemeKind::Ca, quantum, 0x5EED ^ quantum);
    }
}
