//! The fault-injection determinism contract (PR 6 tentpole), end to end:
//! a `FaultPlan` — stalls, a crash, plus the wedge watchdog ceiling — must
//! fire at *identical simulated clocks* on both host execution backends
//! (threads, coop) and on every rerun.
//!
//! The signature compared is deliberately fat — per-core clocks, stall
//! counters, crash verdicts, final shared state — so a trigger drifting by
//! one event anywhere in the grid fails loudly.

use mcsim::{Addr, CoreOutcome, ExecBackend, FaultPlan, Machine, MachineConfig};

const CORES: usize = 8;

/// Everything observable about one grid cell. `PartialEq + Debug` so a
/// mismatch prints the whole signature diff.
#[derive(Debug, PartialEq)]
struct Signature {
    crashed_outcomes: Vec<bool>,
    crashed_stats: Vec<bool>,
    returns: Vec<Option<u64>>,
    per_core: Vec<(u64, u64)>, // (cycles, fault_stalls)
    max_cycles: u64,
    final_counter: u64,
}

/// A workload that exercises every fault kind mid-operation: shared-counter
/// CAS contention (so stalls and the crash land inside read/CAS retry
/// loops) plus alloc/free churn (so they also land between an allocation
/// and its free).
fn run_cell(exec: ExecBackend) -> Signature {
    let m = Machine::new(MachineConfig {
        cores: CORES,
        mem_bytes: 1 << 20,
        static_lines: 64,
        quantum: 0,
        exec,
        fault_plan: FaultPlan::none()
            .stall(1, 800, 25_000)
            .stall(5, 2_000, 10_000)
            .crash(6, 3_000),
        max_cycles: Some(5_000_000),
        ..Default::default()
    });
    let counter = m.alloc_static(1);
    let outs = m.run_recover_on(
        CORES,
        move |i, ctx| {
            let mut held: Vec<Addr> = Vec::new();
            let mut got = 0u64;
            for _round in 0..60u64 {
                loop {
                    let cur = ctx.read(counter);
                    if ctx
                        .cas(counter, cur, cur.wrapping_mul(31) + i as u64 + 1)
                        .is_ok()
                    {
                        break;
                    }
                }
                // Churn the heap: each core keeps up to 3 lines live.
                if held.len() == 3 {
                    ctx.free(held.remove(0));
                }
                let a = ctx.alloc();
                ctx.write(a, i as u64);
                held.push(a);
                got += 1;
                ctx.op_completed();
            }
            for a in held {
                ctx.free(a);
            }
            got
        },
        |_, _| unreachable!("plan has no restarts"),
    );
    let st = m.stats();
    m.check_invariants();
    Signature {
        crashed_outcomes: outs.iter().map(|o| o.crashed()).collect(),
        crashed_stats: st.crashed.clone(),
        returns: outs.into_iter().map(CoreOutcome::done).collect(),
        per_core: st
            .cores
            .iter()
            .map(|c| (c.cycles, c.fault_stalls))
            .collect(),
        max_cycles: st.max_cycles,
        final_counter: m.host_read(counter),
    }
}

/// The two host backends of the grid. (On targets without the coroutine
/// backend, an explicit `Coop` config documents its portable fallback to
/// threads — the comparison is then trivially green there and meaningful
/// on x86-64 Linux.)
const BACKENDS: [ExecBackend; 2] = [ExecBackend::Threads, ExecBackend::Coop];

#[test]
fn fault_plan_fires_identically_across_backends_and_layouts() {
    let reference = run_cell(ExecBackend::Threads);

    // The plan actually bit: the crash landed and both stalls fired.
    assert_eq!(
        reference.crashed_stats,
        {
            let mut v = vec![false; CORES];
            v[6] = true;
            v
        },
        "core 6 must crash (and only core 6)"
    );
    assert_eq!(reference.crashed_outcomes, reference.crashed_stats);
    assert!(reference.returns[6].is_none(), "crashed core has no return");
    assert_eq!(reference.per_core[1].1, 1, "core 1 stall");
    assert_eq!(reference.per_core[5].1, 1, "core 5 stall");

    // Byte-identity across both backends, and across repeats.
    for exec in BACKENDS {
        assert_eq!(
            run_cell(exec),
            reference,
            "fault schedule diverged: {exec:?}"
        );
    }
}

/// Everything observable about one restart-bearing grid cell: the PR-6
/// signature plus the recovery clocks and the recovery closure's returns.
#[derive(Debug, PartialEq)]
struct RestartSignature {
    recovery_clocks: Vec<Option<(u64, u64)>>, // (crash_clock, restart_clock)
    returns: Vec<Option<u64>>,
    per_core: Vec<(u64, u64)>,
    crashed_stats: Vec<bool>,
    final_counter: u64,
}

/// A restart-bearing plan through `Machine::run_recover_on`: core 6
/// crashes mid-CAS-retry-loop, idles to its restart trigger, then runs a
/// recovery closure that rejoins the shared-counter contention. Both the
/// crash clock and the restart clock are part of the compared signature,
/// so a recovery resuming one event early or late anywhere in the
/// backend grid fails loudly.
fn run_restart_cell(exec: ExecBackend) -> RestartSignature {
    let m = Machine::new(MachineConfig {
        cores: CORES,
        mem_bytes: 1 << 20,
        static_lines: 64,
        quantum: 0,
        exec,
        fault_plan: FaultPlan::none()
            .stall(1, 800, 25_000)
            .crash(6, 3_000)
            .restart(6, 40_000)
            .crash(3, 9_000), // no restart: stays Crashed next to a Recovered peer
        max_cycles: Some(5_000_000),
        ..Default::default()
    });
    let counter = m.alloc_static(1);
    let outs = m.run_recover_on(
        CORES,
        |i, ctx| {
            let mut got = 0u64;
            for _ in 0..60u64 {
                loop {
                    let cur = ctx.read(counter);
                    if ctx
                        .cas(counter, cur, cur.wrapping_mul(31) + i as u64 + 1)
                        .is_ok()
                    {
                        break;
                    }
                }
                ctx.op_completed();
                got += 1;
            }
            got
        },
        |info, ctx| {
            // Adopt-then-continue shape: verify the restart clock is the
            // clock the first recovery event issues at, then finish a
            // shorter run of the same work.
            assert!(info.restart_clock >= info.crash_clock);
            let mut got = 1_000; // distinguish recovery returns
            for _ in 0..20u64 {
                loop {
                    let cur = ctx.read(counter);
                    if ctx.cas(counter, cur, cur.wrapping_mul(31) + 7).is_ok() {
                        break;
                    }
                }
                ctx.op_completed();
                got += 1;
            }
            got
        },
    );
    let st = m.stats();
    m.check_invariants();
    RestartSignature {
        recovery_clocks: outs.iter().map(|o| o.recovered()).collect(),
        returns: outs.into_iter().map(|o| o.done()).collect(),
        per_core: st
            .cores
            .iter()
            .map(|c| (c.cycles, c.fault_stalls))
            .collect(),
        crashed_stats: st.crashed.clone(),
        final_counter: m.host_read(counter),
    }
}

#[test]
fn restart_faults_fire_identically_across_backends_and_layouts() {
    let reference = run_restart_cell(ExecBackend::Threads);

    // The plan bit as designed: core 6 crashed AND recovered (its
    // recovery closure returned), core 3 crashed for good, everyone
    // else ran to completion.
    let (crash_clock, restart_clock) = reference.recovery_clocks[6].expect("core 6 must recover");
    assert!(crash_clock >= 3_000, "crash at its trigger");
    assert_eq!(
        restart_clock,
        crash_clock.max(40_000),
        "restart at max(trigger, crash clock)"
    );
    assert!(
        reference.returns[6].is_some_and(|r| r > 1_000),
        "core 6 returns the recovery closure's result"
    );
    assert!(reference.returns[3].is_none(), "core 3 stays crashed");
    assert_eq!(
        reference.crashed_stats,
        {
            let mut v = vec![false; CORES];
            v[3] = true;
            v[6] = true;
            v
        },
        "both crash triggers consumed"
    );
    for c in [0usize, 1, 2, 4, 5, 7] {
        assert_eq!(reference.recovery_clocks[c], None);
        assert!(reference.returns[c].is_some());
    }

    // Byte-identity across backends — recovery clocks included.
    for exec in BACKENDS {
        assert_eq!(
            run_restart_cell(exec),
            reference,
            "restart schedule diverged: {exec:?}"
        );
    }
}

#[test]
fn watchdog_verdict_is_layout_invariant() {
    // A plan that wedges core 2 far past the ceiling must trip the wedge
    // watchdog — with the same diagnostic — on every backend,
    // rather than hanging the run.
    for exec in BACKENDS {
        let res = std::panic::catch_unwind(|| {
            let m = Machine::new(MachineConfig {
                cores: 4,
                mem_bytes: 1 << 20,
                static_lines: 64,
                quantum: 0,
                exec,
                fault_plan: FaultPlan::none().stall(2, 1_000, 10_000_000),
                max_cycles: Some(100_000),
                ..Default::default()
            });
            let a = m.alloc_static(1);
            m.run_on(4, |_, ctx| {
                for _ in 0..50 {
                    loop {
                        let cur = ctx.read(a);
                        if ctx.cas(a, cur, cur + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
        });
        let err = res.expect_err("wedged run must trip the watchdog");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("wedge watchdog: core 2"),
            "exec={exec:?}: unexpected panic payload {msg:?}"
        );
    }
}
