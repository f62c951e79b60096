//! Integration stress tests for the reproduction's extension axes: the
//! MESI protocol option, SMT tag sharing (paper §III), the hand-over-hand
//! HTM comparator (paper §VI), and the §IV fallback path — all with the
//! use-after-free detector armed, all driven by the shared differential
//! battery (`tests/common`).

mod common;

use common::{
    battery, check_distinct_adds, check_set_accounting, config, histories, machine, tight_smr, Sets,
};
use conditional_access::ds::ca::{CaLazyList, FbCaLazyList};
use conditional_access::ds::htm::HtmLazyList;
use conditional_access::ds::seqcheck::walk_list;
use conditional_access::ds::smr::SmrLazyList;
use conditional_access::sim::coherence::{CacheConfig, Protocol};
use conditional_access::sim::{Machine, MachineConfig};
use conditional_access::smr::{Qsbr, SchemeKind};

const THREADS: usize = 4;
const OPS: u64 = 250;
const RANGE: u64 = 48;

/// A machine with explicit SMT packing and protocol.
fn machine_with(threads: usize, smt: usize, protocol: Protocol) -> Machine {
    Machine::new(MachineConfig {
        smt,
        cache: CacheConfig {
            protocol,
            ..CacheConfig::default()
        },
        quantum: 0,
        ..config(threads)
    })
}

// --- HTM comparator ----------------------------------------------------

#[test]
fn htm_lazylist_stress() {
    let m = machine(THREADS, 0);
    let ds = HtmLazyList::new(&m);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0x7A0);
    check_set_accounting("htm", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
    assert_eq!(
        m.stats().allocated_not_freed as usize,
        walk_list(&m, ds.head_node()).len(),
        "precise reclamation: allocated == live"
    );
    assert!(m.stats().sum(|c| c.tx_begins) > 0);
}

#[test]
fn htm_lazylist_stress_single_meta_slot() {
    // One version slot shared by every node: maximal false conflicts, which
    // must cost retries, never correctness.
    let m = machine(THREADS, 0);
    let ds = HtmLazyList::with_slots(&m, 1);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0x7A1);
    check_set_accounting("htm 1 slot", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
}

#[test]
fn htm_lazylist_on_mesi_and_smt() {
    let m = machine_with(4, 2, Protocol::Mesi);
    let ds = HtmLazyList::new(&m);
    let h = histories(&m, &Sets(&ds), 4, OPS, RANGE, 0x7A2);
    check_set_accounting("htm mesi smt2", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
}

#[test]
fn htm_aborts_appear_under_contention() {
    // A 4-key range forces continuous conflicts on the version table and
    // node lines; some transactions must abort, and every begun transaction
    // must be accounted for.
    let m = machine(THREADS, 0);
    let ds = HtmLazyList::with_slots(&m, 2);
    histories(&m, &Sets(&ds), THREADS, OPS, 4, 0x7A3);
    let s = m.stats();
    assert!(
        s.sum(|c| c.tx_aborts) > 0,
        "contention must abort something"
    );
    assert_eq!(
        s.sum(|c| c.tx_begins),
        s.sum(|c| c.tx_commits) + s.sum(|c| c.tx_aborts),
        "transactions must balance"
    );
}

// --- Fallback path ------------------------------------------------------

#[test]
fn fb_lazylist_stress_roomy_geometry() {
    let m = machine(THREADS, 0);
    let ds = FbCaLazyList::new(&m, THREADS);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0xFB0);
    check_set_accounting("fallback list", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
    assert_eq!(
        ds.fallbacks_taken(),
        0,
        "the paper geometry must never need the fallback"
    );
}

#[test]
fn fb_lazylist_stress_hostile_geometry() {
    // 16-line direct-mapped L1: the bare CA list livelocks here; the
    // fallback list must complete with exact accounting.
    let m = Machine::new(MachineConfig {
        cache: CacheConfig {
            l1_bytes: 1024,
            l1_assoc: 1,
            l2_bytes: 64 * 1024,
            l2_assoc: 8,
            ..CacheConfig::default()
        },
        quantum: 0,
        ..config(THREADS)
    });
    let ds = FbCaLazyList::with_max_attempts(&m, THREADS, 8);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0xFB1);
    check_set_accounting(
        "fallback list, hostile L1",
        &h,
        &walk_list(&m, ds.head_node()),
    );
    m.check_invariants();
    assert!(
        ds.fallbacks_taken() > 0,
        "tag-window self-eviction must exercise the sequential path"
    );
}

// --- MESI ---------------------------------------------------------------

#[test]
fn ca_lazylist_stress_on_mesi() {
    let m = machine_with(THREADS, 1, Protocol::Mesi);
    let ds = CaLazyList::new(&m);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0x3E51);
    check_set_accounting("ca mesi", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
    assert!(
        m.stats().sum(|c| c.e_grants) > 0,
        "a MESI run must actually grant Exclusive lines"
    );
    assert_eq!(
        m.stats().allocated_not_freed as usize,
        walk_list(&m, ds.head_node()).len()
    );
}

#[test]
fn smr_lazylist_stress_on_mesi() {
    let m = machine_with(THREADS, 1, Protocol::Mesi);
    let scheme = Qsbr::new(&m, THREADS, tight_smr());
    let ds = SmrLazyList::new(&m, &scheme);
    let h = histories(&m, &Sets(&ds), THREADS, OPS, RANGE, 0x3E52);
    check_set_accounting("qsbr mesi", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
}

#[test]
fn mesi_and_msi_agree_on_results() {
    // Timing differs (E-grants, silent upgrades), so per-op outcomes may
    // differ; the *invariants* of a deterministic workload must hold under
    // both protocols.
    for protocol in [Protocol::Msi, Protocol::Mesi] {
        let m = machine_with(2, 1, protocol);
        let ds = CaLazyList::new(&m);
        let h = histories(&m, &Sets(&ds), 2, 150, 32, 0x3E53);
        check_set_accounting(&format!("{protocol:?}"), &h, &walk_list(&m, ds.head_node()));
    }
}

// --- SMT ----------------------------------------------------------------

#[test]
fn ca_lazylist_stress_on_smt2() {
    // 8 hardware threads on 4 physical cores: sibling-store revocation and
    // shared-L1 capacity pressure, full accounting.
    let m = machine_with(8, 2, Protocol::Msi);
    let ds = CaLazyList::new(&m);
    let h = histories(&m, &Sets(&ds), 8, OPS, RANGE, 0x5A72);
    check_set_accounting("ca smt2", &h, &walk_list(&m, ds.head_node()));
    m.check_invariants();
    assert!(
        m.stats().sum(|c| c.revoke_sibling) > 0,
        "hyperthread siblings must conflict somewhere in 2000 ops"
    );
}

#[test]
fn ca_stack_exact_on_smt4() {
    // 8 hardware threads on 2 physical cores; Algorithm 1 must stay exact
    // (every pushed value popped exactly once, distinct values so each node
    // is tracked alone) — ABA safety through sibling revocation instead of
    // coherence traffic.
    let m = machine_with(8, 4, Protocol::Msi);
    let cell = battery(&m, "stack", SchemeKind::Ca, 8, 200, 1 << 40, 0x5A74);
    check_distinct_adds(&cell.label, &cell.history);
    cell.check_conservation();
    m.check_invariants();
    assert_eq!(cell.stats.allocated_not_freed, 0, "every node freed");
}

#[test]
fn smt_packing_is_deterministic() {
    let run = || {
        let m = machine_with(4, 2, Protocol::Msi);
        let ds = CaLazyList::new(&m);
        histories(&m, &Sets(&ds), 4, 100, 24, 0x5A73);
        (m.stats().max_cycles, m.stats().sum(|c| c.revoke_sibling))
    };
    assert_eq!(run(), run());
}
