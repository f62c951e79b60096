//! Crash recovery across the SMR schemes, on the simulator.
//!
//! Three layers of coverage:
//!
//! * every scheme's `depart`/`adopt`/`join` drain to zero garbage once the
//!   last member leaves (deterministic single-core, two logical threads);
//! * the wedge watchdog names the scheme + core of the oldest outstanding
//!   reservation when a crashed member pins reclamation (the qsbr wedge);
//! * `Machine::run_recover_on` adopt-then-continue: a crashed core
//!   restarts, mints a `CrashToken` from the simulator's `CoreRestart`
//!   notice, adopts its own orphaned state and brings garbage back down —
//!   with the UAF detector armed throughout. Without the restart the same
//!   workload strands the backlog, pinning the contrast the robustness
//!   figures report.

use casmr::api::{Smr, SmrBase, SmrConfig};
use casmr::qsbr::QsbrTls;
use casmr::recovery::{CrashToken, Orphan, TlsVault};
use casmr::{with_scheme, Leaky, Qsbr, SchemeKind, SimEnv};
use mcsim::{Addr, CoreOutcome, FaultPlan, Machine, MachineConfig};

/// Crash-survivable per-thread worker state, parked in a [`TlsVault`].
///
/// `inflight` closes the one hole adoption alone cannot see: a crash
/// between `ctx.alloc()` returning and the retire landing in the tls
/// list would strand the fresh line with no record anywhere. The worker
/// records the address *and* a snapshot of its retired counter before
/// calling `retire`; the adopter compares the orphan's final counter to
/// decide whether the retire landed (skip) or was cut short (finish it).
struct Worker {
    tls: QsbrTls,
    done: u64,
    inflight: Option<(Addr, u64)>,
}

/// One qsbr alloc→publish→retire operation, crash-accountable: every
/// simulated event between the allocation and the retire is covered by
/// the `inflight` record.
fn qsbr_churn(s: &Qsbr, ctx: &mut SimEnv<'_>, w: &mut Worker) {
    s.begin_op(ctx, &mut w.tls);
    let n = ctx.alloc();
    w.inflight = Some((n, s.garbage(&w.tls).retired));
    ctx.write(n, w.done + 1);
    s.retire(ctx, &mut w.tls, n);
    w.inflight = None;
    s.end_op(ctx, &mut w.tls);
    w.done += 1;
}

/// The adopter's half of the in-flight protocol: retire the orphan's
/// in-flight line unless the orphan's retired counter shows the retire
/// already landed before the crash.
fn finish_inflight(
    s: &Qsbr,
    ctx: &mut SimEnv<'_>,
    adopter: &mut QsbrTls,
    orphan_retired: u64,
    inflight: Option<(Addr, u64)>,
) {
    if let Some((n, before)) = inflight {
        if orphan_retired == before {
            s.retire(ctx, adopter, n);
        }
    }
}

fn machine(cores: usize) -> Machine {
    Machine::new(MachineConfig {
        cores,
        mem_bytes: 1 << 20,
        static_lines: 128,
        quantum: 0,
        ..Default::default()
    })
}

fn tight() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 2,
    }
}

/// The uniform recovery property, per scheme: a victim publishes a live
/// protection and "crashes" (is never driven again); churn retired behind
/// that protection is pinned until a survivor adopts with a fail-stop
/// token; after adoption plus a departing drain, *everything* is freed and
/// the merged meter balances to zero live garbage.
fn crash_adopt_drains(kind: SchemeKind) {
    let m = machine(1);
    with_scheme!(kind, &m, 2, tight(), |s| crash_adopt_drains_on(&m, &s));
}

fn crash_adopt_drains_on<S>(m: &Machine, s: &S)
where
    S: for<'m> Smr<SimEnv<'m>> + Sync,
{
    let mailbox = m.alloc_static(1);
    let final_stats = m.run_on(1, |_, ctx| {
        let mut writer = s.register(0);
        let mut victim = s.register(1);

        // The victim protects node A mid-operation and then fail-stops:
        // its publication (hazard / era / reservation / pin — or, for
        // qsbr, its never-advancing announcement) outlives it.
        let a = ctx.alloc();
        s.on_alloc(ctx, &mut writer, a);
        ctx.write(a, 7);
        ctx.write(mailbox, a.0);
        s.begin_op(ctx, &mut victim);
        let got = s.read_ptr(ctx, &mut victim, 0, mailbox);
        assert_eq!(got, a.0);

        // Survivor churn: some of it lands behind the victim's protection.
        for _ in 0..20 {
            s.begin_op(ctx, &mut writer);
            let n = ctx.alloc();
            s.on_alloc(ctx, &mut writer, n);
            ctx.write(n, 1);
            s.retire(ctx, &mut writer, n);
            s.end_op(ctx, &mut writer);
        }

        // Fail-stop declaration + adoption. SAFETY: `victim` is a logical
        // thread driven only by this closure, and it is never driven
        // again — the literal fail-stop fact.
        let token = unsafe { CrashToken::assert_fail_stop(1) };
        s.adopt(ctx, &mut writer, Orphan::crashed(victim, token));

        // Unlink + retire A itself, then leave: the departing scan runs
        // with every publication retracted, so nothing can stay pinned.
        ctx.write(mailbox, 0);
        s.begin_op(ctx, &mut writer);
        s.retire(ctx, &mut writer, a);
        s.end_op(ctx, &mut writer);
        let orphan = s.depart(ctx, writer);
        s.garbage(orphan.tls())
    });
    let g = &final_stats[0];
    assert_eq!(g.retired, 21, "{}: all churn + A accounted", s.name());
    assert_eq!(g.live, 0, "{}: departing drain frees everything", s.name());
    assert_eq!(g.freed, g.retired, "{}: meter flow balances", s.name());
    assert_eq!(
        m.stats().allocated_not_freed,
        0,
        "{}: crash + adopt + depart leaks no lines",
        s.name()
    );
    m.check_invariants();
}

#[test]
fn crash_adopt_drains_qsbr() {
    crash_adopt_drains(SchemeKind::Qsbr);
}

#[test]
fn crash_adopt_drains_rcu() {
    crash_adopt_drains(SchemeKind::Rcu);
}

#[test]
fn crash_adopt_drains_ibr() {
    crash_adopt_drains(SchemeKind::Ibr);
}

#[test]
fn crash_adopt_drains_hp() {
    crash_adopt_drains(SchemeKind::Hp);
}

#[test]
fn crash_adopt_drains_he() {
    crash_adopt_drains(SchemeKind::He);
}

/// `none` adopts accounting only: the leak changes owners, not size.
#[test]
fn leaky_adoption_merges_the_meter() {
    let m = machine(1);
    let s = Leaky::new();
    let merged = m.run_on(1, |_, ctx| {
        let mut a = s.register(0);
        let mut b = s.register(1);
        for _ in 0..5 {
            let n = ctx.alloc();
            s.retire(ctx, &mut a, n);
        }
        for _ in 0..3 {
            let n = ctx.alloc();
            s.retire(ctx, &mut b, n);
        }
        // SAFETY: logical thread 1 is driven only here and never again.
        let token = unsafe { CrashToken::assert_fail_stop(1) };
        s.adopt(ctx, &mut a, Orphan::crashed(b, token));
        s.garbage(&a)
    });
    assert_eq!(merged[0].retired, 8);
    assert_eq!(merged[0].freed, 0);
    assert_eq!(merged[0].live, 8);
    assert_eq!(merged[0].peak, 8, "summed peaks bound the true peak");
}

/// Satellite: the wedge watchdog names the oldest outstanding reservation
/// holder. A reader core crashes before ever announcing quiescence; the
/// survivor churns qsbr retires that can never be freed and eventually
/// trips the watchdog — whose panic must attribute the wedge to the
/// crashed core's `qsbr.announce` line and flag it as needing adoption.
#[test]
fn wedge_watchdog_names_the_crashed_qsbr_reader() {
    let m = Machine::new(MachineConfig {
        cores: 2,
        mem_bytes: 1 << 20,
        static_lines: 128,
        quantum: 0,
        fault_plan: FaultPlan::none().crash(1, 2_000),
        max_cycles: Some(300_000),
        ..Default::default()
    });
    let s = Qsbr::new(
        &m,
        2,
        SmrConfig {
            reclaim_freq: 2,
            epoch_freq: 2,
        },
    );
    let mailbox = m.alloc_static(1);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = m.run_recover_on(
            2,
            |tid, ctx| {
                let mut tls = s.register(tid);
                if tid == 1 {
                    // Reader: never announces; crashes at clock ~2000. The
                    // bound is never reached — the crash cuts the loop short.
                    for _ in 0..u64::MAX {
                        let _ = s.read_ptr(ctx, &mut tls, 0, mailbox);
                        ctx.tick(20);
                    }
                    return;
                }
                // Survivor: churns until the watchdog trips — every retire
                // is pinned by the dead reader's announce = 0, so the run
                // wedges.
                for _ in 0..u64::MAX {
                    s.begin_op(ctx, &mut tls);
                    let n = ctx.alloc();
                    s.on_alloc(ctx, &mut tls, n);
                    ctx.write(n, 1);
                    s.retire(ctx, &mut tls, n);
                    s.end_op(ctx, &mut tls);
                }
            },
            |_, _| unreachable!("plan has no restarts"),
        );
    }))
    .expect_err("the survivor must wedge");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("wedge watchdog: core 0"),
        "survivor core trips the watchdog: {msg}"
    );
    assert!(
        msg.contains("oldest outstanding reservation: qsbr.announce core 1"),
        "attribution must name the scheme and the holder: {msg}"
    );
    assert!(
        msg.contains("[crashed — orphan needs adoption]"),
        "attribution must flag the crashed holder: {msg}"
    );
}

/// Tentpole glue: crash → restart → adopt-then-continue on the simulator.
///
/// Core 1 crashes mid-churn; its qsbr state survives in the vault. At the
/// restart trigger the core resumes, mints a `CrashToken` from the
/// simulator's `CoreRestart` notice (the only safe mint), rejoins, adopts its
/// own orphan and finishes the remaining operations; the final drain then
/// frees everything. Without the restart, the same workload strands the
/// dead member's protection and the survivor's backlog stays pinned.
#[test]
fn sim_restart_adopts_and_rebounds() {
    let run = |recover: bool| -> (bool, u64) {
        let m = Machine::new(MachineConfig {
            cores: 2,
            mem_bytes: 1 << 20,
            static_lines: 128,
            quantum: 0,
            fault_plan: if recover {
                FaultPlan::none().crash(1, 2_000).restart(1, 5_000)
            } else {
                FaultPlan::none().crash(1, 2_000)
            },
            ..Default::default()
        });
        let s = Qsbr::new(&m, 2, tight());
        let vault: TlsVault<Worker> = TlsVault::new(2);
        for t in 0..2 {
            vault.put(
                t,
                Worker {
                    tls: s.register(t),
                    done: 0,
                    inflight: None,
                },
            );
        }
        const OPS: u64 = 400;
        let outs = m.run_recover_on(
            2,
            |tid, ctx| {
                // Work through the vault guard so a crash parks the state
                // in place (poisoning the slot, not dropping it).
                let mut guard = vault.lock(tid);
                let w = guard.as_mut().expect("state parked before run");
                while w.done < OPS {
                    qsbr_churn(&s, ctx, w);
                }
            },
            |restart, ctx| {
                // Adopt-then-continue: the restarted core inherits its own
                // pre-crash state and finishes the remaining operations.
                let token = CrashToken::from_restart(restart);
                let mut o = vault.take(restart.core).expect("crash parked the state");
                let inflight = o.inflight.take();
                let orphan_retired = s.garbage(&o.tls).retired;
                let mut tls = s.join(ctx, restart.core);
                s.adopt(ctx, &mut tls, Orphan::crashed(o.tls, token));
                finish_inflight(&s, ctx, &mut tls, orphan_retired, inflight);
                let mut w = Worker {
                    tls,
                    done: o.done,
                    inflight: None,
                };
                while w.done < OPS {
                    qsbr_churn(&s, ctx, &mut w);
                }
                vault.put(restart.core, w);
            },
        );
        assert!(matches!(outs[0], CoreOutcome::Done(())));
        let recovered = outs[1].recovered().is_some();
        // Final drain. With recovery, core 1's slot holds a live member's
        // state: it departs gracefully and the survivor adopts whatever
        // its departing scan could not yet free, so the last depart drains
        // everything. Without recovery, only the survivor departs:
        // gracefully draining the *crashed* member would forge the very
        // quiescence adoption exists to certify, so its stranded state
        // stays in the vault.
        m.run_on(1, |_, ctx| {
            let mut survivor = vault.take(0).expect("survivor state parked");
            if recovered {
                let w = vault.take(1).expect("recovered state parked");
                assert_eq!(w.done, OPS, "recovery finished the victim's quota");
                let o = s.depart(ctx, w.tls);
                assert!(!o.is_crashed());
                s.adopt(ctx, &mut survivor.tls, o);
            }
            let _ = s.depart(ctx, survivor.tls);
        });
        m.check_invariants();
        (recovered, m.stats().allocated_not_freed)
    };

    let (recovered, leaked) = run(true);
    assert!(recovered, "core 1 must report Recovered");
    assert_eq!(
        leaked, 0,
        "with adoption, the post-recovery drain frees everything"
    );

    let (recovered, leaked) = run(false);
    assert!(!recovered, "no restart trigger: core 1 stays crashed");
    assert!(
        leaked > 50,
        "without adoption the dead member pins the backlog (got {leaked})"
    );
}

/// A token only certifies the thread it names: every scheme's `adopt`
/// rejects a token for the wrong thread before touching any scheme state.
#[test]
fn adopt_rejects_a_mismatched_token() {
    for kind in SchemeKind::objects() {
        let m = machine(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scheme!(kind, &m, 2, SmrConfig::default(), |s| {
                m.run_on(1, |_, ctx| {
                    let mut writer = s.register(0);
                    let victim = s.register(1);
                    // SAFETY: thread 9 does not exist; the adopt below
                    // must reject the mismatch before acting on it.
                    let token = unsafe { CrashToken::assert_fail_stop(9) };
                    s.adopt(ctx, &mut writer, Orphan::crashed(victim, token));
                });
            })
        }))
        .expect_err(&format!("{kind}: token/orphan tid mismatch must panic"));
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            msg.contains("crash token must name the orphan"),
            "{kind}: unexpected panic: {msg}"
        );
    }
}

/// A crash without a restart stays `Crashed`, the orphan's stranded
/// backlog is observable as leaked lines, and post-run adoption by the
/// survivor reclaims all of it — the host-side detector/adopter flow.
#[test]
fn orphaned_retires_stay_valid_until_adopted() {
    let m = Machine::new(MachineConfig {
        cores: 2,
        mem_bytes: 1 << 20,
        static_lines: 128,
        quantum: 0,
        fault_plan: FaultPlan::none().crash(1, 10_000),
        ..Default::default()
    });
    let s = Qsbr::new(&m, 2, tight());
    let vault: TlsVault<Worker> = TlsVault::new(2);
    for t in 0..2 {
        vault.put(
            t,
            Worker {
                tls: s.register(t),
                done: 0,
                inflight: None,
            },
        );
    }
    let outs = m.run_recover_on(
        2,
        |tid, ctx| {
            let mut guard = vault.lock(tid);
            let w = guard.as_mut().expect("state parked before run");
            let rounds = if tid == 1 { 2_000 } else { 50 };
            while w.done < rounds {
                qsbr_churn(&s, ctx, w);
            }
        },
        |_, _| unreachable!("plan has no restarts"),
    );
    assert!(matches!(outs[0], CoreOutcome::Done(())));
    assert!(outs[1].crashed() && outs[1].recovered().is_none());
    let leaked_before = m.stats().allocated_not_freed;
    assert!(leaked_before > 0, "the crash strands retired nodes");
    // Host-side adoption after the run: the survivor inherits the orphan.
    m.run_on(1, |_, ctx| {
        let mut survivor = vault.take(0).expect("survivor state parked");
        let mut victim = vault.take(1).expect("crash parked the victim state");
        let inflight = victim.inflight.take();
        let orphan_retired = s.garbage(&victim.tls).retired;
        // SAFETY: the run is over; the victim thread no longer exists.
        let token = unsafe { CrashToken::assert_fail_stop(1) };
        s.adopt(ctx, &mut survivor.tls, Orphan::crashed(victim.tls, token));
        finish_inflight(&s, ctx, &mut survivor.tls, orphan_retired, inflight);
        let last = s.depart(ctx, survivor.tls);
        assert_eq!(s.garbage(last.tls()).live, 0);
    });
    assert_eq!(
        m.stats().allocated_not_freed,
        0,
        "post-run adoption reclaims the stranded backlog"
    );
    m.check_invariants();
}
