//! Property tests of whole data structures against a sequential model.
//!
//! Strategy: random operation scripts are executed (a) on the simulated
//! concurrent structure with threads interleaved by the deterministic
//! scheduler, and (b) per-key accounting is validated against the final
//! structure contents. Single-threaded scripts are additionally checked
//! *operation by operation* against `BTreeSet` — results must match
//! exactly, since a lone thread is trivially linearizable.

mod common;

use std::collections::BTreeSet;

use common::{check_set_accounting, histories, machine, Sets};
use conditional_access::ds::ca::{CaExtBst, CaHarrisList, CaLazyList, FbCaLazyList};
use conditional_access::ds::htm::HtmLazyList;
use conditional_access::ds::seqcheck::{walk_bst, walk_list};
use conditional_access::ds::smr::SmrLazyList;
use conditional_access::ds::{Op, SetDs};
use conditional_access::sim::machine::Ctx;
use conditional_access::smr::{Hp, SmrConfig};
use proptest::prelude::*;

/// A script of set ops; a script op's result field is unused.
fn op_strategy(range: u64) -> impl Strategy<Value = Op> {
    let key = 1..=range;
    prop_oneof![
        key.clone().prop_map(|k| Op::Insert(k, false)),
        key.clone().prop_map(|k| Op::Delete(k, false)),
        key.prop_map(|k| Op::Contains(k, false)),
    ]
}

/// Single-threaded script, checked op-by-op against BTreeSet.
fn check_sequential<D: for<'m> SetDs<Ctx<'m>>>(
    mk: impl FnOnce(&conditional_access::sim::Machine) -> D,
    ops: &[Op],
) {
    let m = machine(1, 0);
    let ds = mk(&m);
    let ops_vec = ops.to_vec();
    let mismatches = m.run_on(1, move |_, ctx| {
        let mut tls = ds.register(0);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut bad = Vec::new();
        for (i, op) in ops_vec.iter().enumerate() {
            let (got, want) = match *op {
                Op::Insert(k, _) => (ds.insert(ctx, &mut tls, k), model.insert(k)),
                Op::Delete(k, _) => (ds.delete(ctx, &mut tls, k), model.remove(&k)),
                Op::Contains(k, _) => (ds.contains(ctx, &mut tls, k), model.contains(&k)),
                _ => unreachable!("set scripts hold set ops"),
            };
            if got != want {
                bad.push((i, *op, got, want));
            }
        }
        bad
    });
    assert!(
        mismatches[0].is_empty(),
        "sequential divergence from BTreeSet: {:?}",
        mismatches[0]
    );
}

/// Three threads of 120 mixed ops on the CA lazy list at `quantum`; the
/// per-key accounting must match the final list.
fn ca_list_accounting(seed: u64, quantum: u64) {
    let m = machine(3, quantum);
    let ds = CaLazyList::new(&m);
    let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
    check_set_accounting("concurrent", &h, &walk_list(&m, ds.head_node()));
}

/// [`ca_list_accounting`] on the CA Harris list.
fn harris_accounting(seed: u64, quantum: u64) {
    let m = machine(3, quantum);
    let ds = CaHarrisList::new(&m);
    let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
    // Quiesce (helping unlinks the marked backlog) before walking.
    m.run_on(1, |_, ctx| {
        let mut t = ();
        ds.contains(ctx, &mut t, 1000);
    });
    check_set_accounting("concurrent", &h, &walk_list(&m, ds.head_node()));
}

/// The proptest shim seeds from the test name, so the two properties
/// below see the same 48 quanta on every run. This sweeps all of `0..256`
/// once, one fixed seed per quantum.
#[test]
fn every_quantum_keeps_list_accounting() {
    for quantum in 0..256u64 {
        let seed = 0x9e37_79b9 ^ quantum;
        ca_list_accounting(seed, quantum);
        harris_accounting(seed, quantum);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ca_lazylist_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(CaLazyList::new, &ops);
    }

    #[test]
    fn ca_extbst_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(CaExtBst::new, &ops);
    }

    #[test]
    fn ca_harrislist_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(CaHarrisList::new, &ops);
    }

    #[test]
    fn hp_lazylist_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(
            |m| {
                let s = Hp::new(m, 1, SmrConfig { reclaim_freq: 2, ..Default::default() });
                SmrLazyList::new(m, s)
            },
            &ops,
        );
    }

    #[test]
    fn concurrent_ca_list_accounting(seed in 0u64..1_000_000, quantum in 0u64..256) {
        ca_list_accounting(seed, quantum);
    }

    #[test]
    fn concurrent_harris_accounting(seed in 0u64..1_000_000, quantum in 0u64..256) {
        harris_accounting(seed, quantum);
    }

    #[test]
    fn concurrent_ca_bst_accounting(seed in 0u64..1_000_000) {
        let m = machine(3, 0);
        let ds = CaExtBst::new(&m);
        let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
        check_set_accounting("concurrent", &h, &walk_bst(&m, ds.root_node()));
    }

    #[test]
    fn concurrent_hp_list_accounting(seed in 0u64..1_000_000) {
        let m = machine(3, 0);
        let s = Hp::new(&m, 3, SmrConfig { reclaim_freq: 3, ..Default::default() });
        let ds = SmrLazyList::new(&m, s);
        let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
        check_set_accounting("concurrent", &h, &walk_list(&m, ds.head_node()));
    }

    #[test]
    fn htm_lazylist_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(HtmLazyList::new, &ops);
    }

    #[test]
    fn fb_lazylist_matches_btreeset(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        check_sequential(|m| FbCaLazyList::new(m, 1), &ops);
    }

    #[test]
    fn concurrent_htm_list_accounting(seed in 0u64..1_000_000, slots in 1usize..64) {
        let m = machine(3, 0);
        let ds = HtmLazyList::with_slots(&m, slots);
        let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
        check_set_accounting("concurrent", &h, &walk_list(&m, ds.head_node()));
    }

    #[test]
    fn concurrent_fb_list_accounting(seed in 0u64..1_000_000, max_attempts in 1u64..16) {
        // Low attempt ceilings force frequent fallbacks even on the roomy
        // geometry; accounting must hold across the path mix.
        let m = machine(3, 0);
        let ds = FbCaLazyList::with_max_attempts(&m, 3, max_attempts);
        let h = histories(&m, &Sets(&ds), 3, 120, 16, seed);
        check_set_accounting("concurrent", &h, &walk_list(&m, ds.head_node()));
    }
}
