//! Soundness of the hardware Conditional Access implementation against the
//! abstract §II semantics (the [`cacore::TagOracle`]).
//!
//! Random interleaved instruction streams are executed simultaneously on
//!
//! * the **implementation**: `mcsim`'s coherence hub with a deliberately tiny
//!   L1/L2 (so capacity evictions and back-invalidations occur constantly),
//!   and
//! * the **oracle**: unbounded per-core tag sets over addresses.
//!
//! Checked after every instruction:
//!
//! 1. *No false negatives on cread*: if the oracle fails a `cread`, the
//!    implementation fails it. (The implementation may fail more — spurious
//!    failures from evictions are the safe direction, paper §III.)
//! 2. *Claim 4 for cwrite*: a `cwrite` that succeeds in the implementation
//!    implies the oracle considers the core unrevoked (no missed
//!    invalidation of any tagged location).
//! 3. *Revocation invariant*: `oracle.arb(c) ⇒ impl.arb(c)` for every core.
//!
//! Store effects are synchronized to what the implementation actually
//! executed, so the two models never diverge on which writes happened.

// The `!(impl_ok && !oracle_ok)` shapes below are deliberate: they read as
// the logical implication "impl success ⇒ oracle success".
#![allow(clippy::nonminimal_bool)]

use cacore::TagOracle;
use mcsim::coherence::{CacheConfig, CoherenceHub, Protocol};
use mcsim::Addr;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    Cas(u8),
    Cread(u8),
    Cwrite(u8),
    UntagOne(u8),
    UntagAll,
}

/// Address pool: 12 lines × 2 word offsets. Small enough to collide in the
/// tiny caches, large enough to exercise distinct sets.
fn addr(idx: u8) -> Addr {
    let line = 1 + (idx as u64) % 12;
    let word = if idx >= 12 { 3 } else { 0 };
    Addr(line * 64 + word * 8)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let a = 0u8..24;
    prop_oneof![
        a.clone().prop_map(Op::Read),
        a.clone().prop_map(Op::Write),
        a.clone().prop_map(Op::Cas),
        a.clone().prop_map(Op::Cread),
        a.clone().prop_map(Op::Cwrite),
        a.prop_map(Op::UntagOne),
        Just(Op::UntagAll),
    ]
}

const CORES: usize = 3;

fn tiny_hub() -> CoherenceHub {
    hub_with(1, Protocol::Msi, CORES)
}

/// A deliberately hostile hub: tiny direct-mapped L1, tiny L2.
fn hub_with(smt: usize, protocol: Protocol, threads: usize) -> CoherenceHub {
    CoherenceHub::new(
        threads,
        smt,
        &CacheConfig {
            l1_bytes: 256, // 4 lines, direct-mapped: constant conflicts
            l1_assoc: 1,
            l2_bytes: 512, // 8 lines: constant back-invalidations
            l2_assoc: 2,
            protocol,
        },
        1 << 16,
    )
}

fn check_stream(prog: &[(usize, Op)]) {
    check_stream_on(tiny_hub(), prog)
}

fn check_stream_on(mut hub: CoherenceHub, prog: &[(usize, Op)]) {
    let threads = hub.cores();
    let mut oracle = TagOracle::new(threads);
    for (step, &(c, op)) in prog.iter().enumerate() {
        match op {
            Op::Read(i) => {
                hub.read(c, addr(i));
            }
            Op::Write(i) => {
                hub.write(c, addr(i), step as u64);
                oracle.on_store(c, addr(i));
            }
            Op::Cas(i) => {
                let cur = hub.host_read(addr(i));
                let (_, _) = hub.cas(c, addr(i), cur, step as u64);
                // CAS acquires exclusive ownership and (here) always stores.
                oracle.on_store(c, addr(i));
            }
            Op::Cread(i) => {
                let oracle_ok = !oracle.arb(c);
                let (impl_v, _) = hub.cread(c, addr(i));
                let impl_ok = impl_v.is_some();
                assert!(
                    !(impl_ok && !oracle_ok),
                    "step {step}: impl cread succeeded where the abstract \
                     machine (ARB set) would fail — false negative!"
                );
                // Mirror the tag into the oracle only when both executed it.
                if impl_ok {
                    let tagged = oracle.cread(c, addr(i));
                    assert!(tagged);
                }
            }
            Op::Cwrite(i) => {
                let oracle_unrevoked = !oracle.arb(c);
                let (impl_ok, _) = hub.cwrite(c, addr(i), step as u64);
                if impl_ok {
                    assert!(
                        oracle_unrevoked,
                        "step {step}: impl cwrite succeeded although the \
                         abstract machine had revoked core {c} — Claim 4 violated!"
                    );
                    oracle.on_store(c, addr(i));
                }
            }
            Op::UntagOne(i) => {
                hub.untag_one(c, addr(i));
                oracle.untag_one(c, addr(i));
            }
            Op::UntagAll => {
                hub.untag_all(c);
                oracle.untag_all(c);
            }
        }
        for core in 0..threads {
            assert!(
                !oracle.arb(core) || hub.arb(core),
                "step {step}: oracle revoked core {core} but impl did not \
                 ({op:?} by core {c})"
            );
        }
        hub.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn impl_is_sound_wrt_oracle(
        prog in proptest::collection::vec((0..CORES, op_strategy()), 1..300)
    ) {
        check_stream(&prog);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The same soundness property on a 2-way SMT hub (threads 0,1 share an
    /// L1; sibling stores revoke without coherence traffic — paper §III) and
    /// under MESI. The oracle is per-hardware-thread and protocol-agnostic,
    /// so the exact same checks apply.
    #[test]
    fn impl_is_sound_wrt_oracle_smt_and_mesi(
        smt_idx in 0usize..2,
        protocol_idx in 0usize..2,
        prog in proptest::collection::vec((0..4usize, op_strategy()), 1..300)
    ) {
        let smt = [1, 2][smt_idx];
        let protocol = [Protocol::Msi, Protocol::Mesi][protocol_idx];
        check_stream_on(hub_with(smt, protocol, 4), &prog);
    }
}

/// Deterministic regression cases for scenarios the paper discusses.
#[test]
fn paper_scenarios() {
    // §IV-A ABA scenario skeleton: T0 creads top, T1 cwrites top, then T0's
    // cwrite must fail in both models.
    let mut hub = tiny_hub();
    let mut o = TagOracle::new(CORES);
    let top = Addr(64);
    assert!(hub.cread(0, top).0.is_some() && o.cread(0, top));
    assert!(hub.cread(1, top).0.is_some() && o.cread(1, top));
    assert!(hub.cwrite(1, top, 1).0 && o.cwrite(1, top));
    assert!(o.arb(0) && hub.arb(0));
    assert!(!hub.cwrite(0, top, 2).0 && !o.cwrite(0, top));
}

#[test]
fn spurious_failures_exist_but_are_one_sided() {
    // Walk enough distinct lines through a direct-mapped 4-line L1 that a
    // tagged line must be evicted: the implementation fails creads the
    // oracle would allow — and never the reverse.
    let mut hub = tiny_hub();
    let mut o = TagOracle::new(CORES);
    let mut impl_only_failures = 0;
    for i in 0..12u64 {
        let a = Addr((1 + i) * 64);
        let oracle_ok = !o.arb(0);
        let impl_ok = hub.cread(0, a).0.is_some();
        assert!(!(impl_ok && !oracle_ok));
        if impl_ok {
            o.cread(0, a);
        }
        if oracle_ok && !impl_ok {
            impl_only_failures += 1;
        }
    }
    assert!(
        impl_only_failures > 0,
        "walking 12 conflicting lines through a 4-line L1 must evict a \
         tagged line and cause at least one spurious failure"
    );
}
