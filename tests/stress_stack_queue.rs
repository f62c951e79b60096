//! Stack and queue stress through the shared differential battery
//! (`common::battery`): value conservation across every reclamation
//! configuration (UAF detector armed).
//!
//! Every cell draws its values from `1..=2^40`, and asserts that no value
//! was pushed or enqueued twice, so each node is tracked alone; at the end,
//! {values removed} ∪ {values drained} must equal exactly the multiset of
//! values added — any ABA corruption, lost node, or double pop breaks the
//! equality.

mod common;

use common::{battery, check_distinct_adds, machine, Cell};
use conditional_access::smr::SchemeKind;

const THREADS: usize = 4;
const OPS: u64 = 300;

/// One battery cell on `THREADS` threads at lookahead `quantum`, with
/// distinct values, exact flow and the machine's invariants checked.
fn conserve(structure: &str, scheme: SchemeKind, quantum: u64, seed: u64) -> Cell {
    let m = machine(THREADS, quantum);
    let cell = battery(&m, structure, scheme, THREADS, OPS, 1 << 40, seed);
    check_distinct_adds(&cell.label, &cell.history);
    cell.check_conservation();
    m.check_invariants();
    cell
}

#[test]
fn ca_stack_conserves() {
    let cell = conserve("stack", SchemeKind::Ca, 0, 100);
    assert_eq!(cell.stats.allocated_not_freed, 0, "all nodes freed");
}

#[test]
fn ca_queue_conserves() {
    let cell = conserve("queue", SchemeKind::Ca, 0, 200);
    assert_eq!(cell.stats.allocated_not_freed, 1, "only the dummy remains");
}

#[test]
fn smr_stack_conserves_all_schemes() {
    for (kind, seed) in SchemeKind::objects().zip(1..) {
        conserve("stack", kind, 0, seed);
    }
}

#[test]
fn smr_queue_conserves_all_schemes() {
    for (kind, seed) in SchemeKind::objects().zip(11..) {
        conserve("queue", kind, 0, seed);
    }
}

#[test]
fn ca_stack_heavy_contention_quanta() {
    // All threads hammer the same top cell under three different
    // interleaving granularities.
    for quantum in [0, 64, 1024] {
        conserve("stack", SchemeKind::Ca, quantum, 7000 + quantum);
    }
}
