//! Differential battery for the **native** execution environment: the
//! same obligations `smr_differential` discharges on the simulator, on
//! real host threads (`casmr::NativeMachine`). CI-sized — a few hundred
//! ops per scheme — because unlike the simulator the native environment
//! has no UAF oracle; what it *can* check is:
//!
//! * **Identical logical histories** (single-threaded): with one thread
//!   the op sequence is a pure function of the seed on any backend, so
//!   every software scheme must produce the same `(op, key, result)` log
//!   and final contents as the leaky oracle.
//! * **Accounting balance** (2 and 4 real threads): multi-threaded native
//!   histories are genuinely nondeterministic, but the set is
//!   linearizable, so net successful inserts − deletes per key must equal
//!   the final contents walked through the shared-memory environment.
//! * **Allocator balance**: the pool's `allocated = freed +
//!   allocated_not_freed` identity holds, the leaky oracle frees nothing,
//!   and every reclaiming scheme actually freed something under the
//!   aggressive test cadence — on real threads, not simulated ones.
//!
//! Conditional Access is absent by design: it needs the simulated cache
//! hardware (see `casmr`'s env docs for why there is no native CA).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use conditional_access::ds::seqcheck::walk_list;
use conditional_access::ds::smr::SmrLazyList;
use conditional_access::ds::{DsShared, SetDs};
use conditional_access::sim::Rng;
use conditional_access::smr::{
    with_scheme, HeartbeatBoard, NativeEnv, NativeMachine, Orphan, Qsbr, SchemeKind, Smr, SmrBase,
    SmrConfig, TlsVault,
};

/// `(op kind, key, result)`: 0 = insert, 1 = delete, 2 = contains.
type Op = (u8, u64, bool);

const RANGE: u64 = 48;
const OPS: u64 = 150;

/// Aggressive frequencies so reclamation actually happens inside a
/// CI-sized run (same rationale as `smr_differential::tight_smr`).
fn tight_smr() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 6,
        ..Default::default()
    }
}

/// Pool sized for the worst case of this battery: every op allocates.
fn pool() -> NativeMachine {
    NativeMachine::new(64 * 1024)
}

/// The shared randomized workload on `threads` real host threads. The op
/// *stream* is a pure function of (seed, tid); with more than one thread
/// the *results* depend on real interleaving.
fn drive<D>(m: &NativeMachine, ds: &D, threads: usize, seed: u64) -> Vec<Vec<Op>>
where
    D: for<'p> SetDs<NativeEnv<'p>>,
{
    m.run_on(threads, |tid, env| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(OPS as usize);
        for _ in 0..OPS {
            let key = 1 + rng.below(RANGE);
            let entry = match rng.below(3) {
                0 => (0, key, ds.insert(env, &mut tls, key)),
                1 => (1, key, ds.delete(env, &mut tls, key)),
                _ => (2, key, ds.contains(env, &mut tls, key)),
            };
            log.push(entry);
        }
        log
    })
}

/// One native lazy-list run under scheme `kind`, sized to the run's thread
/// count: qsbr/rcu epochs only advance once every *registered* thread
/// quiesces, so spare slots would (correctly) pin reclamation forever.
/// Returns (per-thread histories, final sorted contents, pool stats).
fn run_with(
    kind: SchemeKind,
    threads: usize,
    seed: u64,
) -> (Vec<Vec<Op>>, Vec<u64>, casmr::NativeStats) {
    let m = pool();
    with_scheme!(kind, &m, threads, tight_smr(), |s| {
        let ds = SmrLazyList::new(&m, s);
        let h = drive(&m, &ds, threads, seed);
        let keys = walk_list(&m, ds.head_node());
        (h, keys, m.stats())
    })
}

/// Net successful inserts − deletes per key over the whole history.
fn net_counts(history: &[Vec<Op>]) -> BTreeMap<u64, i64> {
    let mut net: BTreeMap<u64, i64> = BTreeMap::new();
    for log in history {
        for &(kind, key, ok) in log {
            match (kind, ok) {
                (0, true) => *net.entry(key).or_default() += 1,
                (1, true) => *net.entry(key).or_default() -= 1,
                _ => {}
            }
        }
    }
    net
}

/// Accounting: the final contents must be exactly the keys with net +1
/// (a linearizable set never has net outside {0, 1}).
fn check_accounting(name: &str, history: &[Vec<Op>], keys: &[u64]) {
    let net = net_counts(history);
    let expect: Vec<u64> = net
        .iter()
        .filter_map(|(&k, &n)| {
            assert!((0..=1).contains(&n), "{name}: key {k} net count {n}");
            (n == 1).then_some(k)
        })
        .collect();
    assert_eq!(keys, &expect[..], "{name}: final contents don't balance");
}

const SEEDS: [u64; 2] = [0xBEE5, 0xCAB1E];

#[test]
fn single_threaded_native_histories_match_the_leaky_oracle() {
    for seed in SEEDS {
        let (oracle_h, oracle_keys, oracle_stats) = run_with(SchemeKind::None, 1, seed);
        assert_eq!(oracle_stats.freed, 0, "the leaky oracle must never free");
        for name in SchemeKind::objects() {
            let (h, keys, _) = run_with(name, 1, seed);
            assert_eq!(
                h, oracle_h,
                "{name}: native single-threaded history diverged (seed {seed:#x})"
            );
            assert_eq!(
                keys, oracle_keys,
                "{name}: native final contents diverged (seed {seed:#x})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Membership churn legs (PR 10): the native battery's obligations must
// survive workers leaving mid-run — gracefully (depart + hand-off) and by
// fail-stop crash (heartbeat detection + `CrashToken` adoption). In both
// cases every value must still balance against the final contents, the
// pool ledger must hold, and after the survivors depart the only lines
// left allocated are the nodes still linked in the list.
// ---------------------------------------------------------------------

type QsbrTls = <Qsbr as casmr::SmrBase>::Tls;

/// Run one randomized lazy-list op, appending to the log.
fn one_op(
    ds: &SmrLazyList<Qsbr>,
    env: &mut NativeEnv<'_>,
    tls: &mut QsbrTls,
    rng: &mut Rng,
    log: &mut Vec<Op>,
) {
    let key = 1 + rng.below(RANGE);
    let entry = match rng.below(3) {
        0 => (0, key, ds.insert(env, tls, key)),
        1 => (1, key, ds.delete(env, tls, key)),
        _ => (2, key, ds.contains(env, tls, key)),
    };
    log.push(entry);
}

/// Post-churn drain: every surviving member departs and the last one
/// adopts all the graceful orphans, so nothing stays pinned; then the
/// heap must hold exactly the list's linked nodes.
fn drain_and_check(name: &str, m: &NativeMachine, ds: &SmrLazyList<Qsbr>, logs: &[Vec<Op>]) {
    let keys = walk_list(m, ds.head_node());
    check_accounting(name, logs, &keys);
    let stats = m.stats();
    assert_eq!(
        stats.allocated_not_freed,
        stats.allocated - stats.freed,
        "{name}: pool ledger out of balance after churn"
    );
    // Static overhead in the native pool: the list's two sentinels plus
    // the scheme's era clock and three announcement lines; everything
    // else must be a linked node.
    let static_lines = 2 + 1 + 3;
    assert_eq!(
        stats.allocated_not_freed,
        keys.len() as u64 + static_lines,
        "{name}: reclaimable lines leaked across churn"
    );
}

#[test]
fn native_graceful_churn_balances_accounting() {
    for seed in SEEDS {
        let m = pool();
        let ds = SmrLazyList::new(&m, Qsbr::new(&m, 3, tight_smr()));
        let handoff: TlsVault<Orphan<QsbrTls>> = TlsVault::new(1);
        let final_vault: TlsVault<QsbrTls> = TlsVault::new(2);
        let departed = AtomicU64::new(0);
        let logs: Vec<Vec<Op>> = m.run_on(3, |tid, env| {
            let mut tls = ds.register(tid);
            let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
            let mut log = Vec::new();
            let quota = if tid == 2 { OPS / 2 } else { OPS };
            for _ in 0..quota {
                one_op(&ds, env, &mut tls, &mut rng, &mut log);
            }
            if tid == 2 {
                // Graceful leave mid-run: retract publications, drain what
                // the retire list allows, hand the rest to a survivor.
                let o = ds.smr().depart(env, tls);
                assert!(!o.is_crashed());
                handoff.put(0, o);
                departed.store(1, Ordering::Release);
                return log;
            }
            if tid == 0 {
                while departed.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let o = handoff.take(0).expect("departing worker handed off");
                ds.smr().adopt(env, &mut tls, o);
                // Keep operating after the adoption: the membership change
                // must be invisible to the structure's semantics.
                for _ in 0..20 {
                    one_op(&ds, env, &mut tls, &mut rng, &mut log);
                }
            }
            final_vault.put(tid, tls);
            log
        });
        m.run_on(1, |_, env| {
            let mut last = final_vault.take(0).expect("survivor 0 parked");
            let o = ds.smr().depart(env, final_vault.take(1).expect("survivor 1 parked"));
            ds.smr().adopt(env, &mut last, o);
            let end = ds.smr().depart(env, last);
            assert_eq!(ds.smr().garbage(end.tls()).live, 0);
        });
        drain_and_check("qsbr graceful churn", &m, &ds, &logs);
    }
}

#[test]
fn native_crashed_worker_is_detected_and_adopted_with_the_structure() {
    for seed in SEEDS {
        let m = pool();
        let ds = SmrLazyList::new(&m, Qsbr::new(&m, 3, tight_smr()));
        let board = HeartbeatBoard::new(3);
        let vault: TlsVault<(QsbrTls, Vec<Op>)> = TlsVault::new(3);
        for t in 0..3 {
            vault.put(t, (ds.register(t), Vec::new()));
        }
        let crashed = AtomicU64::new(0);
        let logs: Vec<Vec<Vec<Op>>> = m.run_on(3, |tid, env| {
            let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
            if tid == 2 {
                // Victim: operates through the vault guard, beating per
                // op, then fail-stops at a quiescent point — no depart, no
                // further beats. Its state stays parked in the vault.
                let mut guard = vault.lock(2);
                let (tls, log) = guard.as_mut().expect("victim state parked");
                for _ in 0..OPS / 2 {
                    board.beat(2);
                    one_op(&ds, env, tls, &mut rng, log);
                }
                crashed.store(1, Ordering::Release);
                return Vec::new();
            }
            let mut guard = vault.lock(tid);
            let (tls, log) = guard.as_mut().expect("worker state parked");
            for _ in 0..OPS {
                board.beat(tid);
                one_op(&ds, env, tls, &mut rng, log);
            }
            if tid == 0 {
                while crashed.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                // Membership contract: a member whose heartbeat stays
                // frozen past the lease deadline is declared fail-stop.
                // SAFETY: the victim stopped beating because it returned;
                // it will never touch the structure again.
                let token = unsafe {
                    board.detect(2, std::time::Duration::from_millis(200))
                }
                .expect("a silent worker past its lease must be declared crashed");
                drop(guard);
                let (orphan_tls, victim_log) =
                    vault.take(2).expect("victim state parked for adoption");
                let mut guard = vault.lock(0);
                let (tls, log) = guard.as_mut().expect("adopter state parked");
                ds.smr().adopt(env, tls, Orphan::crashed(orphan_tls, token));
                for _ in 0..20 {
                    one_op(&ds, env, tls, &mut rng, log);
                }
                return vec![victim_log];
            }
            Vec::new()
        });
        let mut all_logs: Vec<Vec<Op>> = logs.into_iter().flatten().collect();
        for t in 0..2 {
            let (tls, log) = vault.take(t).expect("worker parked after run");
            all_logs.push(log);
            vault.put(t, (tls, Vec::new()));
        }
        m.run_on(1, |_, env| {
            let (mut last, _) = vault.take(0).expect("adopter parked");
            let (tls1, _) = vault.take(1).expect("survivor parked");
            let o = ds.smr().depart(env, tls1);
            ds.smr().adopt(env, &mut last, o);
            let end = ds.smr().depart(env, last);
            assert_eq!(ds.smr().garbage(end.tls()).live, 0);
        });
        drain_and_check("qsbr crash adoption", &m, &ds, &all_logs);
    }
}

#[test]
fn concurrent_native_runs_balance_accounting_and_allocator() {
    for threads in [2usize, 4] {
        for seed in SEEDS {
            for kind in SchemeKind::objects() {
                let name = kind.name();
                let (h, keys, stats) = run_with(kind, threads, seed);
                check_accounting(name, &h, &keys);
                assert_eq!(
                    stats.allocated_not_freed,
                    stats.allocated - stats.freed,
                    "{name}: pool ledger out of balance at {threads} threads"
                );
                assert!(
                    stats.peak_allocated >= stats.allocated_not_freed,
                    "{name}: peak below final at {threads} threads"
                );
                match kind {
                    SchemeKind::None => assert_eq!(stats.freed, 0, "leaky oracle freed memory"),
                    // qsbr/rcu may legitimately free nothing here: on a
                    // small host the threads can run near-sequentially,
                    // and a peer's stale final announcement pins every
                    // later retire — the paper's §V epoch weakness,
                    // observed on real threads. Only the ledger is
                    // checked for them.
                    SchemeKind::Qsbr | SchemeKind::Rcu => {}
                    // Per-read protection frees regardless of host
                    // scheduling: a finished peer's slots are cleared, so
                    // the later thread's scans must reclaim.
                    _ => assert!(
                        stats.freed > 0,
                        "{name}: no node was ever reclaimed on real threads \
                         ({} allocated) — scheme inert in the native environment?",
                        stats.allocated
                    ),
                }
            }
        }
    }
}
