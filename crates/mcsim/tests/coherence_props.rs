//! Property tests of the coherence engine: random multi-core access streams
//! against tiny cache geometries, validating after every event that
//!
//! 1. the structural invariants hold (inclusion, single-owner, sharer
//!    consistency — `check_invariants`);
//! 2. data is sequentially consistent: every read/CAS observes exactly the
//!    value of the last write in the serialized event order (tracked by a
//!    shadow map);
//! 3. costs are sane: every event charges at least the L1 hit latency and
//!    at most one full miss chain;
//! 4. the ARB is *monotonic between untagAlls*: once revoked, a core stays
//!    revoked until it explicitly untags.

use std::collections::BTreeMap;

use mcsim::coherence::{CacheConfig, CoherenceHub, Protocol};
use mcsim::latency as lat;
use mcsim::Addr;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8, u8),
    Cas(u8, u8),
    Cread(u8),
    Cwrite(u8, u8),
    UntagAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let a = 0u8..32;
    prop_oneof![
        a.clone().prop_map(Op::Read),
        (a.clone(), any::<u8>()).prop_map(|(a, v)| Op::Write(a, v)),
        (a.clone(), any::<u8>()).prop_map(|(a, v)| Op::Cas(a, v)),
        a.clone().prop_map(Op::Cread),
        (a, any::<u8>()).prop_map(|(a, v)| Op::Cwrite(a, v)),
        Just(Op::UntagAll),
    ]
}

/// 32 addresses over 16 lines × 2 word offsets.
fn addr(idx: u8) -> Addr {
    let line = 1 + (idx as u64) % 16;
    let word = if idx >= 16 { 5 } else { 0 };
    Addr(line * 64 + word * 8)
}

const CORES: usize = 4;

fn geometries() -> Vec<CacheConfig> {
    let mut geoms = Vec::new();
    for protocol in [Protocol::Msi, Protocol::Mesi] {
        // Tiny direct-mapped: maximal conflict pressure.
        geoms.push(CacheConfig {
            l1_bytes: 256,
            l1_assoc: 1,
            l2_bytes: 512,
            l2_assoc: 2,
            protocol,
        });
        // Small set-associative.
        geoms.push(CacheConfig {
            l1_bytes: 512,
            l1_assoc: 2,
            l2_bytes: 2048,
            l2_assoc: 4,
            protocol,
        });
        // Roomy: everything fits.
        geoms.push(CacheConfig {
            l1_bytes: 4096,
            l1_assoc: 4,
            l2_bytes: 16384,
            l2_assoc: 8,
            protocol,
        });
    }
    geoms
}

fn run_stream(cache: &CacheConfig, smt: usize, prog: &[(usize, Op)]) {
    let mut hub = CoherenceHub::new(CORES, smt, cache, 1 << 16);
    let max_cost =
        lat::L2_HIT + lat::MEM + 2 * lat::DIRTY_SUPPLY + lat::INVALIDATION + lat::CAS_EXTRA;
    let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
    let mut arb_before = [false; CORES];
    for (step, &(c, op)) in prog.iter().enumerate() {
        match op {
            Op::Read(i) => {
                let (v, cost) = hub.read(c, addr(i));
                assert_eq!(
                    v,
                    shadow.get(&addr(i).0).copied().unwrap_or(0),
                    "step {step}: read saw a value that was never the latest write"
                );
                assert!(cost >= lat::L1_HIT && cost <= max_cost, "read cost {cost}");
            }
            Op::Write(i, v) => {
                let cost = hub.write(c, addr(i), v as u64);
                shadow.insert(addr(i).0, v as u64);
                assert!(cost >= lat::L1_HIT && cost <= max_cost, "write cost {cost}");
            }
            Op::Cas(i, v) => {
                let expected = shadow.get(&addr(i).0).copied().unwrap_or(0);
                let (r, cost) = hub.cas(c, addr(i), expected, v as u64);
                assert_eq!(
                    r,
                    Ok(expected),
                    "step {step}: CAS with true expected must win"
                );
                shadow.insert(addr(i).0, v as u64);
                assert!(cost <= max_cost);
            }
            Op::Cread(i) => {
                let (v, _) = hub.cread(c, addr(i));
                if let Some(v) = v {
                    assert_eq!(v, shadow.get(&addr(i).0).copied().unwrap_or(0));
                } else {
                    assert!(
                        arb_before[c] || hub.arb(c),
                        "step {step}: cread failed without a revocation"
                    );
                }
            }
            Op::Cwrite(i, v) => {
                let (ok, _) = hub.cwrite(c, addr(i), v as u64);
                if ok {
                    shadow.insert(addr(i).0, v as u64);
                }
            }
            Op::UntagAll => {
                hub.untag_all(c);
            }
        }
        // ARB monotonicity: can only rise, except at untagAll.
        #[allow(clippy::needless_range_loop)] // `core` is a core id, not just an index
        for core in 0..CORES {
            if arb_before[core] && !matches!(op, Op::UntagAll) && core == c {
                // c's own non-untag ops never clear its ARB
                assert!(hub.arb(core), "step {step}: ARB dropped without untagAll");
            }
            arb_before[core] = hub.arb(core);
        }
        hub.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn coherence_holds_under_random_streams(
        geom_idx in 0usize..6,
        smt in prop_oneof![Just(1usize), Just(2), Just(4)],
        prog in proptest::collection::vec((0..CORES, op_strategy()), 1..250)
    ) {
        run_stream(&geometries()[geom_idx], smt, &prog);
    }
}

/// The documented determinism of the hub: same stream, same aggregate cost.
#[test]
fn hub_event_costs_are_deterministic() {
    let prog: Vec<(usize, Op)> = (0..200)
        .map(|i| {
            let c = (i * 7) % CORES;
            let op = match i % 5 {
                0 => Op::Read((i % 32) as u8),
                1 => Op::Write((i % 32) as u8, i as u8),
                2 => Op::Cread(((i * 3) % 32) as u8),
                3 => Op::Cwrite(((i * 3) % 32) as u8, i as u8),
                _ => Op::UntagAll,
            };
            (c, op)
        })
        .collect();
    let total = |geom: &CacheConfig| -> u64 {
        let mut hub = CoherenceHub::new(CORES, 1, geom, 1 << 16);
        let mut sum = 0;
        for &(c, op) in &prog {
            sum += match op {
                Op::Read(i) => hub.read(c, addr(i)).1,
                Op::Write(i, v) => hub.write(c, addr(i), v as u64),
                Op::Cread(i) => hub.cread(c, addr(i)).1,
                Op::Cwrite(i, v) => hub.cwrite(c, addr(i), v as u64).1,
                Op::Cas(i, v) => hub.cas(c, addr(i), 0, v as u64).1,
                Op::UntagAll => hub.untag_all(c),
            };
        }
        sum
    };
    let g = &geometries()[1];
    assert_eq!(total(g), total(g));
}
