//! Determinism grid for intra-machine gang scheduling.
//!
//! The contract (see `mcsim`'s gang module): simulated results are a pure
//! function of `(program, seeds, quantum, gangs, gang_window)`.
//! Specifically:
//!
//! * `gangs = 1` routes through the classic single-turn scheduler and is
//!   **byte-identical** to a config that never mentions gangs at all (the
//!   pre-gang behaviour), across the whole quantum grid;
//! * for any fixed `gangs = N`, results are bit-identical across repeated
//!   runs, across both host execution backends (threads / coop), and
//!   across sweep worker counts (`--jobs`), which only change *host*
//!   scheduling;
//! * gang runs preserve program correctness: exact op counts, exact final
//!   contents accounting, zero UAF-oracle violations (the detector stays
//!   armed in `Panic` mode through `run_set`).

use caharness::{run, Instrument, Metrics, Mix, RunConfig, SetKind, Structure};
use casmr::SchemeKind;
use mcsim::{ExecBackend, MachineStats};

fn set_run_with_stats(kind: SetKind, scheme: SchemeKind, cfg: &RunConfig) -> (Metrics, MachineStats) {
    let out = run(Structure::Set(kind), scheme, cfg, Instrument::None);
    (out.metrics, out.stats)
}

fn cfg(quantum: u64, gangs: usize, seed: u64, exec: ExecBackend) -> RunConfig {
    RunConfig {
        threads: 8,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 150,
        mix: Mix {
            insert_pct: 30,
            delete_pct: 30,
        },
        quantum,
        seed,
        exec,
        gangs,
        ..Default::default()
    }
}

const QUANTA: [u64; 3] = [0, 64, 1024];

#[test]
fn gangs_one_is_byte_identical_to_the_pre_gang_scheduler() {
    // A gangs=1 config must be indistinguishable from a config that leaves
    // the field at its default, cell for cell, on the quantum grid — the
    // gang machinery must be entirely absent from the classic path.
    for kind in [SetKind::LazyList, SetKind::ExtBst] {
        for quantum in QUANTA {
            let baseline = RunConfig {
                quantum,
                ..cfg(quantum, 1, 7, ExecBackend::Auto)
            };
            let (mb, sb) = set_run_with_stats(kind, SchemeKind::Ca, &baseline);
            let (mg, sg) = set_run_with_stats(kind, SchemeKind::Ca, &cfg(quantum, 1, 7, ExecBackend::Auto));
            assert_eq!(sb.cores, sg.cores, "{kind:?} q={quantum}: per-core stats");
            assert_eq!(sb.max_cycles, sg.max_cycles);
            assert_eq!(sb.epoch_barriers, 0, "gangs=1 must never cross a barrier");
            assert_eq!(sg.epoch_barriers, 0);
            assert_eq!(mb.cycles, mg.cycles);
            assert_eq!(mb.total_ops, mg.total_ops);
        }
    }
}

#[test]
fn fixed_gang_layouts_are_deterministic_across_runs_and_backends() {
    // For each (quantum, gangs) cell: two repeated runs and both exec
    // backends must agree on every per-core counter.
    for gangs in [2usize, 4] {
        for quantum in QUANTA {
            let (_, threads1) = set_run_with_stats(
                SetKind::LazyList,
                SchemeKind::Ca,
                &cfg(quantum, gangs, 11, ExecBackend::Threads),
            );
            let (_, threads2) = set_run_with_stats(
                SetKind::LazyList,
                SchemeKind::Ca,
                &cfg(quantum, gangs, 11, ExecBackend::Threads),
            );
            assert_eq!(
                threads1.cores, threads2.cores,
                "gangs={gangs} q={quantum}: repeated runs diverged"
            );
            let (_, coop) = set_run_with_stats(
                SetKind::LazyList,
                SchemeKind::Ca,
                &cfg(quantum, gangs, 11, ExecBackend::Coop),
            );
            assert_eq!(
                threads1.cores, coop.cores,
                "gangs={gangs} q={quantum}: backends disagree"
            );
            assert_eq!(threads1.max_cycles, coop.max_cycles);
            assert_eq!(threads1.epoch_barriers, coop.epoch_barriers);
            assert!(
                threads1.epoch_barriers > 0,
                "gangs={gangs} q={quantum}: gang runs must cross barriers"
            );
        }
    }
}

#[test]
fn gang_runs_preserve_program_correctness() {
    // The op count is workload-driven (exact), and the run completes with
    // the UAF detector armed: a reclamation hole or a protocol bug in the
    // gang runtime would panic or skew the count.
    for gangs in [2usize, 4] {
        for scheme in [SchemeKind::Ca, SchemeKind::None, SchemeKind::Hp] {
            let (m, s) = set_run_with_stats(
                SetKind::LazyList,
                scheme,
                &cfg(64, gangs, 3, ExecBackend::Auto),
            );
            assert_eq!(m.total_ops, 8 * 150, "gangs={gangs} {scheme}");
            assert!(m.throughput > 0.0);
            assert!(s.sum(|c| c.deferred_events) > 0, "gangs={gangs} {scheme}");
        }
    }
}

#[test]
fn gang_tables_are_byte_identical_across_host_worker_counts() {
    // `--jobs` (host sweep parallelism) composes with gang scheduling:
    // the rendered table of a gangs=2 grid must not depend on the worker
    // count — gang determinism is per-machine, worker count is per-sweep.
    use caharness::experiments::{throughput_panel, Scale};
    use caharness::{config, sweep};
    let render = |jobs: usize| {
        sweep::set_jobs(jobs);
        config::set_default_gangs(2);
        let t = throughput_panel(
            Structure::Set(SetKind::LazyList),
            Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            Scale::Quick,
            64,
            "gang jobs determinism",
        );
        config::set_default_gangs(1);
        sweep::set_jobs(0);
        format!("{}\n{}", t.render(), t.to_csv())
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "gangs=2 tables diverged between --jobs 1 and 4");
}

#[test]
fn banked_merge_grid_is_byte_identical_across_banks_and_backends() {
    // The PR-4 contract: for every fixed gang layout, results are
    // bit-identical across `l2_banks` {1, 4, 8} (banking is exactly
    // set-preserving, and the banked multi-writer merge is a
    // proof-carrying reordering of the serial barrier replay) and across
    // both exec backends (only the threads backend replays serially; the
    // classification is a pure function of the deterministic event
    // stream). Merge counters are config metadata — deterministic per
    // (banks, gangs) but naturally different across bank counts — so the
    // grid compares them only across backends.
    let cell = |gangs: usize, l2_banks: usize, exec: ExecBackend| {
        let mut c = cfg(64, gangs, 13, exec);
        c.cache.l2_banks = l2_banks;
        set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &c)
    };
    for gangs in [1usize, 2, 4] {
        let (m_ref, s_ref) = cell(gangs, 8, ExecBackend::Coop);
        for l2_banks in [1usize, 4, 8] {
            let (m_coop, s_coop) = cell(gangs, l2_banks, ExecBackend::Coop);
            let (m_thr, s_thr) = cell(gangs, l2_banks, ExecBackend::Threads);
            for (exec, m, s) in [("Coop", &m_coop, &s_coop), ("Threads", &m_thr, &s_thr)] {
                assert_eq!(
                    s_ref.cores, s.cores,
                    "gangs={gangs} banks={l2_banks} {exec}: per-core stats diverged"
                );
                assert_eq!(s_ref.max_cycles, s.max_cycles, "gangs={gangs} banks={l2_banks}");
                assert_eq!(m_ref.cycles, m.cycles);
                assert_eq!(m_ref.total_ops, m.total_ops);
                assert_eq!(
                    s_ref.epoch_barriers, s.epoch_barriers,
                    "gangs={gangs} banks={l2_banks} {exec}"
                );
            }
            // Merge counters: identical across backends at fixed banks.
            assert_eq!(
                s_coop.banked_merge_events, s_thr.banked_merge_events,
                "gangs={gangs} banks={l2_banks}: banked counter backend-dependent"
            );
            assert_eq!(
                s_coop.serial_epilogue_events, s_thr.serial_epilogue_events,
                "gangs={gangs} banks={l2_banks}: epilogue counter backend-dependent"
            );
            assert_eq!(s_coop.bank_occupancy, s_thr.bank_occupancy);
            if gangs > 1 && l2_banks == 8 {
                assert!(
                    s_coop.banked_merge_events + s_coop.serial_epilogue_events > 0,
                    "gangs={gangs}: barriers must carry events"
                );
                assert_eq!(
                    s_coop.bank_occupancy.iter().sum::<u64>(),
                    s_coop.banked_merge_events,
                    "gangs={gangs}: occupancy must partition the banked events"
                );
            }
        }
    }
}

#[test]
fn banked_merge_grid_is_byte_identical_across_gang_drivers() {
    // The PR-7 contract: all three gang drivers — sequential (counters-only
    // classification, serial replay), spawn-coop (parked gang workers
    // double as merge-lane executors) and the threads mechanism (dedicated
    // merge workers) — produce byte-identical per-core stats and identical
    // merge counters on the full banks × gangs grid. In debug builds the
    // footprint checker additionally asserts every lane access against the
    // classifier's verdict throughout this grid. (Toggling the driver is
    // benign under test parallelism: drivers never change simulated
    // results, only host scheduling.)
    use mcsim::{set_gang_driver, GangDriver};
    let cell = |gangs: usize, l2_banks: usize, exec: ExecBackend, driver: Option<GangDriver>| {
        if let Some(d) = driver {
            set_gang_driver(d);
        }
        let mut c = cfg(64, gangs, 17, exec);
        c.cache.l2_banks = l2_banks;
        let r = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &c);
        set_gang_driver(GangDriver::Auto);
        r
    };
    for gangs in [1usize, 2, 4] {
        for l2_banks in [1usize, 4, 8] {
            let (m_ref, s_ref) = cell(gangs, l2_banks, ExecBackend::Threads, None);
            for (label, exec, driver) in [
                ("coop/seq", ExecBackend::Coop, Some(GangDriver::Seq)),
                ("coop/spawn", ExecBackend::Coop, Some(GangDriver::Spawn)),
            ] {
                let (m, s) = cell(gangs, l2_banks, exec, driver);
                assert_eq!(
                    s_ref.cores, s.cores,
                    "gangs={gangs} banks={l2_banks} {label}: per-core stats diverged"
                );
                assert_eq!(s_ref.max_cycles, s.max_cycles, "gangs={gangs} banks={l2_banks} {label}");
                assert_eq!(m_ref.cycles, m.cycles, "gangs={gangs} banks={l2_banks} {label}");
                assert_eq!(m_ref.total_ops, m.total_ops, "gangs={gangs} banks={l2_banks} {label}");
                assert_eq!(
                    s_ref.banked_merge_events, s.banked_merge_events,
                    "gangs={gangs} banks={l2_banks} {label}: banked counter driver-dependent"
                );
                assert_eq!(
                    s_ref.serial_epilogue_events, s.serial_epilogue_events,
                    "gangs={gangs} banks={l2_banks} {label}: epilogue counter driver-dependent"
                );
                assert_eq!(
                    s_ref.bank_occupancy, s.bank_occupancy,
                    "gangs={gangs} banks={l2_banks} {label}"
                );
            }
        }
    }
}

#[test]
fn restart_bearing_plans_are_deterministic_across_gang_drivers() {
    // The PR-10 contract: a fault plan with a *restart* leg — crash at a
    // fixed clock, come back later, mint a `CrashToken`, adopt the orphan
    // and finish the quota — is part of the simulated program, so its
    // results obey the same determinism grid as everything else: for every
    // gang layout, per-core stats AND the (crash_clock, restart_clock)
    // pair reported for the victim are byte-identical across the threads
    // backend and both coop gang drivers.
    use mcsim::{set_gang_driver, FaultPlan, GangDriver};
    let cell = |gangs: usize, exec: ExecBackend, driver: Option<GangDriver>| {
        if let Some(d) = driver {
            set_gang_driver(d);
        }
        let c = RunConfig {
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            threads: 4,
            ops_per_thread: 120,
            fault_plan: FaultPlan::none().crash(3, 5_000).restart(3, 40_000),
            max_cycles: Some(2_000_000_000),
            ..cfg(64, gangs, 19, exec)
        };
        let out = run(Structure::Queue, SchemeKind::Qsbr, &c, Instrument::None);
        set_gang_driver(GangDriver::Auto);
        (out.metrics, out.stats, out.recovery)
    };
    for gangs in [1usize, 2, 4] {
        let (m_ref, s_ref, clocks_ref) = cell(gangs, ExecBackend::Threads, None);
        assert_eq!(m_ref.total_ops, 4 * 120, "gangs={gangs}: full quota despite the crash");
        let (crash, restart) = clocks_ref[3].expect("victim must report recovery clocks");
        assert!(crash >= 5_000 && restart >= 40_000, "gangs={gangs}: clocks honor the plan");
        assert!(clocks_ref[0].is_none() && s_ref.crashed[3], "gangs={gangs}");
        for (label, exec, driver) in [
            ("coop/seq", ExecBackend::Coop, Some(GangDriver::Seq)),
            ("coop/spawn", ExecBackend::Coop, Some(GangDriver::Spawn)),
        ] {
            let (m, s, clocks) = cell(gangs, exec, driver);
            assert_eq!(
                s_ref.cores, s.cores,
                "gangs={gangs} {label}: per-core stats diverged under restart"
            );
            assert_eq!(clocks_ref, clocks, "gangs={gangs} {label}: recovery clocks diverged");
            assert_eq!(m_ref.cycles, m.cycles, "gangs={gangs} {label}");
            assert_eq!(m_ref.total_ops, m.total_ops, "gangs={gangs} {label}");
            assert_eq!(s_ref.crashed, s.crashed, "gangs={gangs} {label}");
        }
    }
}

#[test]
fn different_gang_layouts_are_different_but_valid_schedules() {
    // Sanity: gangs=2 is not required (or expected) to reproduce gangs=1
    // timing — it is a bounded-skew relaxation — but both must agree on
    // the workload-driven facts.
    let (m1, _) = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &cfg(64, 1, 9, ExecBackend::Auto));
    let (m2, _) = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &cfg(64, 2, 9, ExecBackend::Auto));
    assert_eq!(m1.total_ops, m2.total_ops);
    assert!(m1.cycles > 0 && m2.cycles > 0);
}
