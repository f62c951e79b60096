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
//! Two instruments, one shared harness:
//!
//! * **Identical logical histories** (single-threaded): with one thread
//!   the operation sequence is a pure function of the seed, so every
//!   scheme must return bit-identical `(op, key, result)` logs and final
//!   contents. Any scheme whose protection machinery perturbs a logical
//!   outcome (skipped node, resurrected key, phantom delete) diverges.
//! * **Zero use-after-reclaim oracle violations** (multi-threaded): the
//!   simulator's allocator knows the exact lifetime of every node; in
//!   [`UafMode::Record`] every access to freed or recycled memory is
//!   recorded. Concurrent runs under aggressive reclamation frequencies
//!   must record none, and the per-key accounting must still balance.

mod common;

use std::collections::BTreeMap;

use common::{check_set_accounting, SetAccounting};
use conditional_access::sim::machine::Ctx;
use conditional_access::ds::ca::{CaExtBst, CaLazyList, CaQueue, CaStack};
use conditional_access::ds::seqcheck::{walk_bst, walk_list};
use conditional_access::ds::smr::{SmrExtBst, SmrLazyList, SmrQueue, SmrStack};
use conditional_access::ds::{DsShared, QueueDs, SetDs, StackDs};
use conditional_access::sim::{CoreOutcome, FaultPlan, Machine, MachineConfig, Rng, UafMode};
use conditional_access::smr::{
    with_scheme, CrashToken, Orphan, SchemeKind, Smr, SmrBase, SmrConfig, TlsVault,
};

/// `(op kind, key, result)`: 0 = insert, 1 = delete, 2 = contains.
type Op = (u8, u64, bool);

/// Build the battery's machine.
fn machine(cores: usize, uaf: UafMode) -> Machine {
    Machine::new(MachineConfig {
        cores,
        mem_bytes: 32 << 20,
        static_lines: 2048,
        uaf_mode: uaf,
        ..Default::default()
    })
}

/// Aggressive frequencies: more reclamation events = more chances for a
/// protection hole to surface as a UAF fault or a history divergence.
fn tight_smr() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 6,
        ..Default::default()
    }
}

/// Run the shared randomized workload and return one op log per thread.
/// The op stream is a pure function of (seed, tid), never of the scheme.
fn drive<D: for<'m> SetDs<Ctx<'m>>>(m: &Machine, ds: &D, threads: usize, ops: u64, range: u64, seed: u64) -> Vec<Vec<Op>> {
    m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let key = 1 + rng.below(range);
            let entry = match rng.below(3) {
                0 => (0, key, ds.insert(ctx, &mut tls, key)),
                1 => (1, key, ds.delete(ctx, &mut tls, key)),
                _ => (2, key, ds.contains(ctx, &mut tls, key)),
            };
            log.push(entry);
        }
        log
    })
}

/// Per-key net successful inserts − deletes, summed over the whole history.
fn accounting(history: &[Vec<Op>]) -> SetAccounting {
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
    SetAccounting { net }
}

/// One lazy-list run of the shared workload under `scheme`. Returns the
/// history, the final (sorted) contents, and any recorded UAF faults.
fn lazylist_run(
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> (Vec<Vec<Op>>, Vec<u64>, usize) {
    let m = machine(threads, uaf);
    let (history, keys) = match scheme {
        SchemeKind::Ca => {
            let ds = CaLazyList::new(&m);
            let h = drive(&m, &ds, threads, ops, range, seed);
            let keys = walk_list(&m, ds.head_node());
            (h, keys)
        }
        kind => with_scheme!(kind, &m, threads, tight_smr(), |s| {
            let ds = SmrLazyList::new(&m, s);
            let h = drive(&m, &ds, threads, ops, range, seed);
            let keys = walk_list(&m, ds.head_node());
            (h, keys)
        }),
    };
    let faults = m.faults().len();
    (history, keys, faults)
}

/// Same shape for the external BST.
fn extbst_run(
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> (Vec<Vec<Op>>, Vec<u64>, usize) {
    let m = machine(threads, uaf);
    let (history, keys) = match scheme {
        SchemeKind::Ca => {
            let ds = CaExtBst::new(&m);
            let h = drive(&m, &ds, threads, ops, range, seed);
            let keys = walk_bst(&m, ds.root_node());
            (h, keys)
        }
        kind => with_scheme!(kind, &m, threads, tight_smr(), |s| {
            let ds = SmrExtBst::new(&m, s);
            let h = drive(&m, &ds, threads, ops, range, seed);
            let keys = walk_bst(&m, ds.root_node());
            (h, keys)
        }),
    };
    let faults = m.faults().len();
    (history, keys, faults)
}

// ---------------------------------------------------------------------
// Treiber stack & Michael–Scott queue (ROADMAP open item): same battery.
// Stacks/queues have no final-contents walker, so the quiesced structure
// is drained through the structure's own ops at the end of the run; the
// drained sequence is part of the compared history.
// ---------------------------------------------------------------------

/// Stack op log entry: (op kind, value) — 0 = push(v), 1 = pop → v+1
/// (0 = empty), 2 = peek → v+1 (0 = empty).
type StackOp = (u8, u64);

/// One stack run: randomized push/pop/peek per thread, then a
/// single-threaded drain. Returns per-thread logs, the drain order, and
/// recorded faults.
fn stack_run(
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> (Vec<Vec<StackOp>>, Vec<u64>, usize) {
    let m = machine(threads, uaf);
    let (history, drained) = match scheme {
        SchemeKind::Ca => {
            let ds = CaStack::new(&m);
            (drive_stack(&m, &ds, threads, ops, range, seed), drain_stack(&m, &ds))
        }
        kind => with_scheme!(kind, &m, threads, tight_smr(), |s| {
            let ds = SmrStack::new(&m, s);
            (drive_stack(&m, &ds, threads, ops, range, seed), drain_stack(&m, &ds))
        }),
    };
    let faults = m.faults().len();
    (history, drained, faults)
}

fn drive_stack<D: for<'m> StackDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
) -> Vec<Vec<StackOp>> {
    m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let entry = match rng.below(3) {
                0 => {
                    let v = 1 + rng.below(range);
                    ds.push(ctx, &mut tls, v);
                    (0, v)
                }
                1 => (1, ds.pop(ctx, &mut tls).map_or(0, |v| v + 1)),
                _ => (2, ds.peek(ctx, &mut tls).map_or(0, |v| v + 1)),
            };
            log.push(entry);
        }
        log
    })
}

fn drain_stack<D: for<'m> StackDs<Ctx<'m>>>(m: &Machine, ds: &D) -> Vec<u64> {
    m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut out = Vec::new();
        while let Some(v) = ds.pop(ctx, &mut tls) {
            out.push(v);
        }
        out
    })
    .pop()
    .unwrap()
}

/// Queue op log entry: (op kind, value) — 0 = enqueue(v), 1 = dequeue →
/// v+1 (0 = empty).
type QueueOp = (u8, u64);

fn queue_run(
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> (Vec<Vec<QueueOp>>, Vec<u64>, usize) {
    let m = machine(threads, uaf);
    let (history, drained) = match scheme {
        SchemeKind::Ca => {
            let ds = CaQueue::new(&m);
            (drive_queue(&m, &ds, threads, ops, range, seed), drain_queue(&m, &ds))
        }
        kind => with_scheme!(kind, &m, threads, tight_smr(), |s| {
            let ds = SmrQueue::new(&m, s);
            (drive_queue(&m, &ds, threads, ops, range, seed), drain_queue(&m, &ds))
        }),
    };
    let faults = m.faults().len();
    (history, drained, faults)
}

fn drive_queue<D: for<'m> QueueDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
) -> Vec<Vec<QueueOp>> {
    m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let entry = if rng.below(2) == 0 {
                let v = 1 + rng.below(range);
                ds.enqueue(ctx, &mut tls, v);
                (0, v)
            } else {
                (1, ds.dequeue(ctx, &mut tls).map_or(0, |v| v + 1))
            };
            log.push(entry);
        }
        log
    })
}

fn drain_queue<D: for<'m> QueueDs<Ctx<'m>>>(m: &Machine, ds: &D) -> Vec<u64> {
    m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut out = Vec::new();
        while let Some(v) = ds.dequeue(ctx, &mut tls) {
            out.push(v);
        }
        out
    })
    .pop()
    .unwrap()
}

/// Flow conservation for stacks/queues: every successfully inserted value
/// is either removed during the run or comes out in the drain — as
/// multisets (values repeat).
fn check_flow_accounting(history: &[Vec<(u8, u64)>], drained: &[u64]) {
    let mut net: BTreeMap<u64, i64> = BTreeMap::new();
    for log in history {
        for &(kind, v) in log {
            match kind {
                0 => *net.entry(v).or_default() += 1,
                // Successful pop/dequeue (kind 1, v = value + 1); peeks
                // (kind 2) and empty results (v == 0) don't move values.
                1 if v != 0 => *net.entry(v - 1).or_default() -= 1,
                _ => {}
            }
        }
    }
    for &v in drained {
        *net.entry(v).or_default() -= 1;
    }
    for (v, n) in net {
        assert_eq!(n, 0, "value {v}: {n} copies lost or duplicated");
    }
}

const SEEDS: [u64; 3] = [0xD1FF, 0x5EED5, 0xFACADE];

#[test]
fn lazylist_histories_match_the_leaky_oracle() {
    // Single-threaded: identical op logs AND identical final contents, for
    // every scheme, on every seed. The leaky baseline is the oracle.
    for seed in SEEDS {
        let (oracle_h, oracle_keys, f) =
            lazylist_run(SchemeKind::None, 1, 400, 48, seed, UafMode::Panic);
        assert_eq!(f, 0);
        for scheme in SchemeKind::ALL.into_iter().filter(|&s| s != SchemeKind::None) {
            let (h, keys, faults) = lazylist_run(scheme, 1, 400, 48, seed, UafMode::Panic);
            assert_eq!(
                h, oracle_h,
                "{scheme} lazy-list history diverged from leaky oracle (seed {seed:#x})"
            );
            assert_eq!(
                keys, oracle_keys,
                "{scheme} lazy-list final contents diverged (seed {seed:#x})"
            );
            assert_eq!(faults, 0, "{scheme}: UAF oracle violation");
        }
    }
}

#[test]
fn extbst_histories_match_the_leaky_oracle() {
    for seed in SEEDS {
        let (oracle_h, oracle_keys, f) =
            extbst_run(SchemeKind::None, 1, 400, 64, seed, UafMode::Panic);
        assert_eq!(f, 0);
        for scheme in SchemeKind::ALL.into_iter().filter(|&s| s != SchemeKind::None) {
            let (h, keys, faults) = extbst_run(scheme, 1, 400, 64, seed, UafMode::Panic);
            assert_eq!(
                h, oracle_h,
                "{scheme} BST history diverged from leaky oracle (seed {seed:#x})"
            );
            assert_eq!(
                keys, oracle_keys,
                "{scheme} BST final contents diverged (seed {seed:#x})"
            );
            assert_eq!(faults, 0, "{scheme}: UAF oracle violation");
        }
    }
}

#[test]
fn stack_histories_match_the_leaky_oracle() {
    // Single-threaded: bit-identical push/pop/peek logs AND an identical
    // drain order for every scheme, on every seed.
    for seed in SEEDS {
        let (oracle_h, oracle_drain, f) =
            stack_run(SchemeKind::None, 1, 400, 48, seed, UafMode::Panic);
        assert_eq!(f, 0);
        for scheme in SchemeKind::ALL.into_iter().filter(|&s| s != SchemeKind::None) {
            let (h, drain, faults) = stack_run(scheme, 1, 400, 48, seed, UafMode::Panic);
            assert_eq!(
                h, oracle_h,
                "{scheme} stack history diverged from leaky oracle (seed {seed:#x})"
            );
            assert_eq!(
                drain, oracle_drain,
                "{scheme} stack final contents diverged (seed {seed:#x})"
            );
            assert_eq!(faults, 0, "{scheme}: UAF oracle violation");
        }
    }
}

#[test]
fn queue_histories_match_the_leaky_oracle() {
    for seed in SEEDS {
        let (oracle_h, oracle_drain, f) =
            queue_run(SchemeKind::None, 1, 400, 48, seed, UafMode::Panic);
        assert_eq!(f, 0);
        for scheme in SchemeKind::ALL.into_iter().filter(|&s| s != SchemeKind::None) {
            let (h, drain, faults) = queue_run(scheme, 1, 400, 48, seed, UafMode::Panic);
            assert_eq!(
                h, oracle_h,
                "{scheme} queue history diverged from leaky oracle (seed {seed:#x})"
            );
            assert_eq!(
                drain, oracle_drain,
                "{scheme} queue final contents diverged (seed {seed:#x})"
            );
            assert_eq!(faults, 0, "{scheme}: UAF oracle violation");
        }
    }
}

#[test]
fn concurrent_stack_runs_have_zero_uaf_violations() {
    // Multi-threaded histories legitimately differ across schemes; safety
    // must not: zero oracle violations and exact flow conservation (this
    // is the structure the paper's §IV-A ABA discussion centres on — the
    // popped-and-freed node that reappears at the same address).
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let (h, drained, faults) = stack_run(scheme, 4, 250, 48, seed, UafMode::Record);
            assert_eq!(
                faults, 0,
                "{scheme}: stack use-after-reclaim violation(s) on seed {seed:#x}"
            );
            check_flow_accounting(&h, &drained);
        }
    }
}

#[test]
fn concurrent_queue_runs_have_zero_uaf_violations() {
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let (h, drained, faults) = queue_run(scheme, 4, 250, 48, seed, UafMode::Record);
            assert_eq!(
                faults, 0,
                "{scheme}: queue use-after-reclaim violation(s) on seed {seed:#x}"
            );
            check_flow_accounting(&h, &drained);
        }
    }
}

#[test]
fn concurrent_lazylist_runs_have_zero_uaf_violations() {
    // Multi-threaded histories legitimately differ across schemes (timing
    // differs, so interleavings differ); what must NOT differ is safety:
    // the allocator oracle records every access to freed/recycled memory,
    // and the per-key accounting must balance against the final contents.
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let (h, keys, faults) = lazylist_run(scheme, 4, 250, 48, seed, UafMode::Record);
            assert_eq!(
                faults, 0,
                "{scheme}: use-after-reclaim oracle violation(s) on seed {seed:#x}"
            );
            check_set_accounting(&accounting(&h), &keys);
        }
    }
}

#[test]
fn concurrent_extbst_runs_have_zero_uaf_violations() {
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let (h, keys, faults) = extbst_run(scheme, 4, 250, 64, seed, UafMode::Record);
            assert_eq!(
                faults, 0,
                "{scheme}: use-after-reclaim oracle violation(s) on seed {seed:#x}"
            );
            check_set_accounting(&accounting(&h), &keys);
        }
    }
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
    log: Vec<QueueOp>,
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
            cores: CRASH_THREADS,
            mem_bytes: 32 << 20,
            static_lines: 2048,
            uaf_mode: UafMode::Record,
            // The crash clock is far past the whole workload: the victim is
            // guaranteed to be in its hang loop (a non-responsive member, the
            // shape the native detector declares crashed), never mid-op.
            fault_plan: FaultPlan::none()
                .crash(CRASH_VICTIM, 500_000)
                .restart(CRASH_VICTIM, 520_000),
            ..Default::default()
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
                rng: Rng::new(seed ^ ((t as u64) << 32)),
                log: Vec::new(),
                done: 0,
                hanging: false,
            },
        );
    }
    let step = |ctx: &mut Ctx<'_>, w: &mut RecWorker<S::Tls>| {
        let entry = if w.rng.below(2) == 0 {
            let v = 1 + w.rng.below(48);
            q.enqueue(ctx, &mut w.tls, v);
            (0, v)
        } else {
            (1, q.dequeue(ctx, &mut w.tls).map_or(0, |v| v + 1))
        };
        w.log.push(entry);
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
            let RecWorker { tls: orphan_tls, rng, log, done, .. } = o;
            let mut tls = q.smr().join(ctx, restart.core);
            q.smr().adopt(ctx, &mut tls, Orphan::crashed(orphan_tls, token));
            let mut w = RecWorker { tls, rng, log, done, hanging: false };
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
            let mut out = Vec::new();
            while let Some(v) = q.dequeue(ctx, &mut w0.tls) {
                out.push(v);
            }
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
    check_flow_accounting(&logs, &drained);
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
