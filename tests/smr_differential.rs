//! Differential SMR test battery.
//!
//! The strongest correctness signal available for the reclamation layer is
//! differential: every scheme in `casmr` (and CA itself) must be
//! *behaviourally invisible* — the same randomized workload must produce
//! operation histories indistinguishable from the leaky oracle, which
//! never frees anything and therefore cannot have a reclamation bug. This
//! is the same obligation VBR (Sheffi et al.) and Brown's "there has to be
//! a better way" discharge by comparison against unreclaimed baselines.
//!
//! Two instruments over the shared battery (`common::battery`, whose
//! digests `env_pin` pins), on the lazy list, external BST, hash table,
//! Treiber stack and Michael–Scott queue:
//!
//! * **Identical logical histories** (single-threaded): with one thread
//!   the operation sequence is a pure function of the seed, so every
//!   scheme must return bit-identical op logs and final contents. Any
//!   scheme whose protection machinery perturbs a logical outcome (skipped
//!   node, resurrected key, phantom delete) diverges.
//! * **Zero use-after-reclaim oracle violations** (multi-threaded): the
//!   simulator's allocator knows the exact lifetime of every node; in
//!   [`UafMode::Record`] every access to freed or recycled memory is
//!   recorded. Concurrent runs under aggressive reclamation frequencies
//!   must record none, and the results must still conserve exactly.

mod common;

use common::{
    battery, battery_machine, check_flow, config, thread_rng, tight_smr, Cell, Drain, Family,
    Queues,
};
use conditional_access::ds::smr::SmrQueue;
use conditional_access::ds::{DsShared, Op};
use conditional_access::sim::machine::Ctx;
use conditional_access::sim::{CoreOutcome, FaultPlan, Machine, MachineConfig, Rng, UafMode};
use conditional_access::smr::{
    with_scheme, CrashToken, Orphan, SchemeKind, Smr, SmrBase, TlsVault,
};

const SEEDS: [u64; 3] = [0xD1FF, 0x5EED5, 0xFACADE];

/// Single-threaded: with one thread the op sequence is a pure function of
/// the seed, so every scheme must return the leaky oracle's op log AND its
/// final contents (a set's keys, a stack's or queue's drain order), on
/// every seed, with no UAF fault.
fn histories_match_the_leaky_oracle(structure: &str, range: u64) {
    let run = |scheme, seed| {
        battery(
            &battery_machine(1, UafMode::Panic),
            structure,
            scheme,
            1,
            400,
            range,
            seed,
        )
    };
    for seed in SEEDS {
        let oracle = run(SchemeKind::None, seed);
        assert_eq!(oracle.faults, 0);
        for scheme in SchemeKind::ALL
            .into_iter()
            .filter(|&s| s != SchemeKind::None)
        {
            let Cell {
                label,
                history,
                contents,
                faults,
                ..
            } = run(scheme, seed);
            assert_eq!(
                history, oracle.history,
                "{label}: history diverged from the leaky oracle"
            );
            assert_eq!(
                contents, oracle.contents,
                "{label}: final contents diverged"
            );
            assert_eq!(faults, 0, "{label}: UAF oracle violation");
        }
    }
}

/// Multi-threaded: histories legitimately differ across schemes (timing
/// differs, so interleavings differ); what must NOT differ is safety. The
/// allocator oracle records every access to freed or recycled memory, and
/// the results must conserve exactly against the final contents.
fn concurrent_runs_have_zero_uaf_violations(structure: &str, range: u64) {
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let m = battery_machine(4, UafMode::Record);
            let cell = battery(&m, structure, scheme, 4, 250, range, seed);
            assert_eq!(
                cell.faults, 0,
                "{}: use-after-reclaim oracle violation(s)",
                cell.label
            );
            cell.check_conservation();
        }
    }
}

#[test]
fn lazylist_histories_match_the_leaky_oracle() {
    histories_match_the_leaky_oracle("lazylist", 48);
}

#[test]
fn extbst_histories_match_the_leaky_oracle() {
    histories_match_the_leaky_oracle("extbst", 64);
}

#[test]
fn hashtable_histories_match_the_leaky_oracle() {
    histories_match_the_leaky_oracle("hashtable", 48);
}

#[test]
fn stack_histories_match_the_leaky_oracle() {
    histories_match_the_leaky_oracle("stack", 48);
}

#[test]
fn queue_histories_match_the_leaky_oracle() {
    histories_match_the_leaky_oracle("queue", 48);
}

#[test]
fn concurrent_stack_runs_have_zero_uaf_violations() {
    // The structure the paper's §IV-A ABA discussion centres on: the
    // popped-and-freed node that reappears at the same address.
    concurrent_runs_have_zero_uaf_violations("stack", 48);
}

#[test]
fn concurrent_queue_runs_have_zero_uaf_violations() {
    concurrent_runs_have_zero_uaf_violations("queue", 48);
}

#[test]
fn concurrent_lazylist_runs_have_zero_uaf_violations() {
    concurrent_runs_have_zero_uaf_violations("lazylist", 48);
}

#[test]
fn concurrent_extbst_runs_have_zero_uaf_violations() {
    concurrent_runs_have_zero_uaf_violations("extbst", 64);
}

#[test]
fn concurrent_hashtable_runs_have_zero_uaf_violations() {
    concurrent_runs_have_zero_uaf_violations("hashtable", 48);
}

// ---------------------------------------------------------------------
// Crash + adoption leg (PR 10): the differential obligations must survive
// membership churn. One core crashes mid-run (fail-stop, injected by the
// fault plan), restarts at a later clock, adopts its own orphaned SMR
// state through a `CrashToken`, and finishes its quota — with the UAF
// oracle recording throughout. Afterwards the histories must still
// conserve every value, the oracle must have recorded nothing, and a full
// departing drain must free every line except the queue's current dummy.
// ---------------------------------------------------------------------

/// Crash-survivable per-worker state, parked in a [`TlsVault`] so the
/// injected crash poisons the slot without dropping the SMR state.
struct RecWorker<T> {
    tls: T,
    rng: Rng,
    log: Vec<Op>,
    done: u64,
    /// Set when the victim reaches its hang window. The injected crash is
    /// clock-triggered; asserting this flag in the recovery closure proves
    /// the crash landed at a quiescent point (between operations), so no
    /// operation was torn and the accounting below may demand exactness.
    hanging: bool,
}

const CRASH_THREADS: usize = 4;
const CRASH_VICTIM: usize = 3;

/// The crash + adoption leg under scheme `kind`, on every seed.
fn queue_crash_adoption_is_leak_free(kind: SchemeKind) {
    for seed in SEEDS {
        let m = Machine::new(MachineConfig {
            uaf_mode: UafMode::Record,
            // The crash clock is far past the whole workload: the victim is
            // guaranteed to be in its hang loop (a non-responsive member, the
            // shape the native detector declares crashed), never mid-op.
            fault_plan: FaultPlan::none()
                .crash(CRASH_VICTIM, 500_000)
                .restart(CRASH_VICTIM, 520_000),
            ..config(CRASH_THREADS)
        });
        with_scheme!(kind, &m, CRASH_THREADS, tight_smr(), |s| {
            queue_crash_recovery_leg(&m, s, kind.name(), seed)
        });
    }
}

fn queue_crash_recovery_leg<S>(m: &Machine, s: S, name: &str, seed: u64)
where
    S: for<'m> Smr<Ctx<'m>> + Sync,
    <S as SmrBase>::Tls: Send,
{
    const OPS: u64 = 200;
    const HALF: u64 = 100;
    let q = SmrQueue::new(m, s);
    let scratch = m.alloc_static(1);
    let vault: TlsVault<RecWorker<S::Tls>> = TlsVault::new(CRASH_THREADS);
    for t in 0..CRASH_THREADS {
        vault.put(
            t,
            RecWorker {
                tls: q.register(t),
                rng: thread_rng(seed, t),
                log: Vec::new(),
                done: 0,
                hanging: false,
            },
        );
    }
    let step = |ctx: &mut Ctx<'_>, w: &mut RecWorker<S::Tls>| {
        w.log.push(Queues(&q).op(ctx, &mut w.tls, &mut w.rng, 48));
        w.done += 1;
    };
    let outs = m.run_recover_on(
        CRASH_THREADS,
        |tid, ctx| {
            let mut guard = vault.lock(tid);
            let w = guard.as_mut().expect("worker parked before run");
            let quota = if tid == CRASH_VICTIM { HALF } else { OPS };
            while w.done < quota {
                step(ctx, w);
            }
            if tid == CRASH_VICTIM {
                w.hanging = true;
                // Hang at a quiescent point. Reads are events, so the
                // injected crash fires here; the loop bound is never hit.
                for _ in 0..u64::MAX {
                    let _ = ctx.read(scratch);
                    ctx.tick(50);
                }
            }
        },
        |restart, ctx| {
            let token = CrashToken::from_restart(restart);
            let o = vault.take(restart.core).expect("crash parked the state");
            assert!(o.hanging, "crash must land in the victim's hang window");
            let RecWorker {
                tls: orphan_tls,
                rng,
                log,
                done,
                ..
            } = o;
            let mut tls = q.smr().join(ctx, restart.core);
            q.smr()
                .adopt(ctx, &mut tls, Orphan::crashed(orphan_tls, token));
            let mut w = RecWorker {
                tls,
                rng,
                log,
                done,
                hanging: false,
            };
            while w.done < OPS {
                step(ctx, &mut w);
            }
            vault.put(restart.core, w);
        },
    );
    for (t, o) in outs.iter().enumerate() {
        if t == CRASH_VICTIM {
            assert!(o.recovered().is_some(), "{name}: victim must recover");
        } else {
            assert!(matches!(o, CoreOutcome::Done(())), "{name}: survivor {t}");
        }
    }
    // Histories out (tls stays parked for the drain + departs below).
    let mut logs = Vec::new();
    for t in 0..CRASH_THREADS {
        let mut w = vault.take(t).expect("worker parked after run");
        assert_eq!(w.done, OPS, "{name}: worker {t} finished its quota");
        logs.push(std::mem::take(&mut w.log));
        vault.put(t, w);
    }
    // Drain the queue, then depart every member; each departing orphan is
    // folded into worker 0 so nothing is stranded, and the last depart
    // runs with every publication retracted.
    let drained = m
        .run_on(1, |_, ctx| {
            let mut w0 = vault.take(0).expect("worker 0 parked");
            let out = Queues(&q).drain(ctx, &mut w0.tls);
            for t in 1..CRASH_THREADS {
                let w = vault.take(t).expect("worker parked");
                let o = q.smr().depart(ctx, w.tls);
                q.smr().adopt(ctx, &mut w0.tls, o);
            }
            let last = q.smr().depart(ctx, w0.tls);
            assert_eq!(
                q.smr().garbage(last.tls()).live,
                0,
                "{name}: final depart must drain every retire"
            );
            out
        })
        .pop()
        .unwrap();
    check_flow(name, &logs, &drained);
    assert_eq!(
        m.faults().len(),
        0,
        "{name}: UAF oracle violation(s) across crash + adoption (seed {seed:#x})"
    );
    assert_eq!(
        m.stats().allocated_not_freed,
        1,
        "{name}: only the queue's current dummy may outlive the drain"
    );
}

#[test]
fn queue_crash_adoption_is_leak_free_qsbr() {
    queue_crash_adoption_is_leak_free(SchemeKind::Qsbr);
}

#[test]
fn queue_crash_adoption_is_leak_free_rcu() {
    queue_crash_adoption_is_leak_free(SchemeKind::Rcu);
}

#[test]
fn queue_crash_adoption_is_leak_free_ibr() {
    queue_crash_adoption_is_leak_free(SchemeKind::Ibr);
}

#[test]
fn queue_crash_adoption_is_leak_free_hp() {
    queue_crash_adoption_is_leak_free(SchemeKind::Hp);
}

#[test]
fn queue_crash_adoption_is_leak_free_he() {
    queue_crash_adoption_is_leak_free(SchemeKind::He);
}
