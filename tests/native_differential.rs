//! The shared differential battery (`tests/common`: the same set op body,
//! per-thread log loop and accounting check `smr_differential` runs on the
//! simulator) on the **native** execution environment — real host threads
//! (`casmr::NativeMachine`). CI-sized — a few hundred ops per scheme —
//! because unlike the simulator the native environment has no UAF oracle;
//! what it *can* check is:
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
//! * **hp under its asymmetric fence pair**: one longer two-thread run
//!   (20 000 ops each on 16 keys), since hp's protect fence is only a
//!   compiler fence wherever its scan issues a `membarrier`.
//!
//! Conditional Access is absent by design: it needs the simulated cache
//! hardware (see `casmr`'s env docs for why there is no native CA).

mod common;

use std::sync::atomic::{AtomicU64, Ordering};

use common::{check_set_accounting, histories, thread_rng, tight_smr, Family, Sets};
use conditional_access::ds::seqcheck::walk_list;
use conditional_access::ds::smr::SmrLazyList;
use conditional_access::ds::{DsShared, Op};
use conditional_access::smr::{
    with_scheme, HeartbeatBoard, Hp, NativeMachine, Orphan, Qsbr, SchemeKind, Smr, SmrBase,
    TlsVault,
};

const RANGE: u64 = 48;
const OPS: u64 = 150;

/// Pool sized for the worst case of this battery: every op allocates.
fn pool() -> NativeMachine {
    NativeMachine::new(64 * 1024)
}

/// One native lazy-list run of the shared battery under scheme `kind`,
/// sized to the run's thread count: qsbr/rcu epochs only advance once every
/// *registered* thread quiesces, so spare slots would (correctly) pin
/// reclamation forever. The op *stream* is a pure function of (seed, tid);
/// with more than one thread the *results* depend on real interleaving.
/// Returns (per-thread histories, final sorted contents, pool stats).
fn run_with(
    kind: SchemeKind,
    threads: usize,
    seed: u64,
) -> (Vec<Vec<Op>>, Vec<u64>, casmr::NativeStats) {
    let m = pool();
    with_scheme!(kind, &m, threads, tight_smr(), |s| {
        let ds = SmrLazyList::new(&m, s);
        let h = histories(&m, &Sets(&ds), threads, OPS, RANGE, seed);
        let keys = walk_list(&m, ds.head_node());
        (h, keys, m.stats())
    })
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

/// Post-churn drain: every surviving member departs and the last one
/// adopts all the graceful orphans, so nothing stays pinned; then the
/// heap must hold exactly the list's linked nodes.
fn drain_and_check(name: &str, m: &NativeMachine, ds: &SmrLazyList<Qsbr>, logs: &[Vec<Op>]) {
    let keys = walk_list(m, ds.head_node());
    check_set_accounting(name, logs, &keys);
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
            let mut rng = thread_rng(seed, tid);
            let mut log = Vec::new();
            let quota = if tid == 2 { OPS / 2 } else { OPS };
            for _ in 0..quota {
                log.push(Sets(&ds).op(env, &mut tls, &mut rng, RANGE));
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
                    log.push(Sets(&ds).op(env, &mut tls, &mut rng, RANGE));
                }
            }
            final_vault.put(tid, tls);
            log
        });
        m.run_on(1, |_, env| {
            let mut last = final_vault.take(0).expect("survivor 0 parked");
            let o = ds
                .smr()
                .depart(env, final_vault.take(1).expect("survivor 1 parked"));
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
            let mut rng = thread_rng(seed, tid);
            if tid == 2 {
                // Victim: operates through the vault guard, beating per
                // op, then fail-stops at a quiescent point — no depart, no
                // further beats. Its state stays parked in the vault.
                let mut guard = vault.lock(2);
                let (tls, log) = guard.as_mut().expect("victim state parked");
                for _ in 0..OPS / 2 {
                    board.beat(2);
                    log.push(Sets(&ds).op(env, tls, &mut rng, RANGE));
                }
                crashed.store(1, Ordering::Release);
                return Vec::new();
            }
            let mut guard = vault.lock(tid);
            let (tls, log) = guard.as_mut().expect("worker state parked");
            for _ in 0..OPS {
                board.beat(tid);
                log.push(Sets(&ds).op(env, tls, &mut rng, RANGE));
            }
            if tid == 0 {
                while crashed.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                // Membership contract: a member whose heartbeat stays
                // frozen past the lease deadline is declared fail-stop.
                // SAFETY: the victim stopped beating because it returned;
                // it will never touch the structure again.
                let token = unsafe { board.detect(2, std::time::Duration::from_millis(200)) }
                    .expect("a silent worker past its lease must be declared crashed");
                drop(guard);
                let (orphan_tls, victim_log) =
                    vault.take(2).expect("victim state parked for adoption");
                let mut guard = vault.lock(0);
                let (tls, log) = guard.as_mut().expect("adopter state parked");
                ds.smr().adopt(env, tls, Orphan::crashed(orphan_tls, token));
                for _ in 0..20 {
                    log.push(Sets(&ds).op(env, tls, &mut rng, RANGE));
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

/// hp's protect fence is only a compiler fence wherever the scan's fence is
/// a `membarrier`, so its safety rests on that pair: two threads on 16 keys,
/// scanning every 4 retires, for 20 000 ops each.
#[test]
fn native_hp_stress_reclaims_under_the_fence_pair() {
    let m = pool();
    let ds = SmrLazyList::new(&m, Hp::new(&m, 2, tight_smr()));
    let h = histories(&m, &Sets(&ds), 2, 20_000, 16, 0x4A2D);
    let keys = walk_list(&m, ds.head_node()); // sorted and unmarked, or panics
    check_set_accounting("hp stress", &h, &keys);
    let stats = m.stats();
    assert_eq!(
        stats.allocated_not_freed,
        stats.allocated - stats.freed,
        "hp stress: pool ledger out of balance"
    );
    assert!(stats.freed > 0, "hp stress: no node was ever reclaimed");
}

#[test]
fn concurrent_native_runs_balance_accounting_and_allocator() {
    for threads in [2usize, 4] {
        for seed in SEEDS {
            for kind in SchemeKind::objects() {
                let name = kind.name();
                let (h, keys, stats) = run_with(kind, threads, seed);
                check_set_accounting(name, &h, &keys);
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
