//! Host wall-clock instrument for the parallel sweep engine
//! (`BENCH_pr2.json`), intra-machine gang scheduling (`BENCH_pr3.json`),
//! the banked multi-writer barrier merge (`BENCH_pr4.json`), the
//! fault-injection subsystem (`BENCH_pr6.json`), the threads mechanism's
//! lane-parallel merge (`BENCH_pr7.json`) and the native host-thread
//! backend (`BENCH_pr8.json`).
//!
//! Seven instruments, one JSON array on stdout:
//!
//! 1. **Sweep** (PR 2): one figure-style grid — 7 schemes × 4 thread
//!    counts = 28 configurations of the Figure-1 lazy list — once with
//!    `--jobs 1` and once with `--jobs N`, asserting byte-identical tables
//!    (the sweep determinism contract).
//! 2. **Gang** (PR 3): one *single* 16-simulated-core machine (the
//!    workload one `--jobs` worker cannot split) at `gangs` 1, 2 and 4,
//!    asserting bit-identical repeated runs per gang count. On a 1-vCPU
//!    host this records the protocol's overhead bound; on multi-core hosts
//!    (CI) it records the intra-machine speedup.
//! 3. **Banked merge** (PR 4): the same 16-core machine at `gangs` {1, 2,
//!    4} × `l2_banks` {1, 8}, asserting per-core results bit-identical
//!    across bank counts for every fixed gang layout (the banked merge is
//!    a proof-carrying reordering of the serial barrier replay), and
//!    recording the barrier-merge counters (`banked_merge_events`,
//!    `serial_epilogue_events`) plus the gN/g1 wall-clock ratio — the
//!    classification-overhead bound on a 1-vCPU host, the merge speedup on
//!    multi-core CI.
//! 4. **Robust** (PR 6): a fault-injected 16-core MS-queue run (two cores
//!    fail-stop mid-operation at fixed simulated clocks) per scheme,
//!    repeated with bit-identical results asserted per layout and across
//!    L2-bank counts, recording the survivors' wall clock and the
//!    per-scheme pinned-garbage peak — the qsbr-vs-hp gap is the
//!    bounded-garbage separation `fig_robustness` plots.
//! 5. **Threads merge** (PR 7): the 16-core machine pinned to the
//!    *threads* execution backend at `gangs` {2, 4}. At 1 bank every
//!    deferred event replays in the serial epilogue; at 8 banks the
//!    classifier's lanes run on the mechanism's dedicated merge workers
//!    through `BankParts` projections. Per-core results are bit-identical
//!    across the two (asserted), so the wall ratio is pure host merge
//!    scheduling — the lane-dispatch overhead bound on a 1-vCPU host, the
//!    lane-parallel speedup on multi-core CI.
//! 6. **Native vs sim** (PR 8): the Figure-1 lazy list per software scheme
//!    on both backends — the cycle-level simulator and real host threads
//!    (`casmr::NativeMachine`) — recording wall clock and throughput for
//!    each leg. The ratio is the simulation tax: how much host time the
//!    cycle model costs per completed data-structure operation relative to
//!    running the same structure natively. `total_ops` is asserted
//!    identical across reps on both legs (the workload is a fixed op
//!    count), but native wall clock is real concurrency — only the sim leg
//!    is bit-deterministic.
//! 7. **Recovery** (PR 10, `BENCH_pr10.json`): the fault-injected 16-core
//!    MS-queue run again, but with a *restart* leg on the victim — crash
//!    at a fixed clock, come back 50k cycles later, certify the fail-stop
//!    (`casmr::CrashToken`), adopt the orphaned per-thread state and
//!    finish the quota. Per scheme: bit-identical repeated runs asserted
//!    (recovery is part of the simulated program), wall clock, and the
//!    recovery counters — orphans detected, adoptions, adopted backlog
//!    bytes, crash→adoption-complete latency in simulated cycles.
//!
//! Simulated results are deterministic, so every wall-clock ratio is pure
//! host-scheduling performance.
//!
//! Usage: `cargo run --release -p caharness --bin sweep_bench [reps] [--jobs N]`
//! (default reps 3; default jobs = one worker per host CPU)

use std::time::Instant;

use caharness::config::jobs_from_args;
use caharness::{
    run, run_queue, sweep, Instrument, Mix, Outcome, RunConfig, SeriesTable, SetKind, Structure,
};
use casmr::{SchemeKind, SmrConfig};
use mcsim::FaultPlan;

/// The CA lazy list every gang / merge instrument times.
fn ca_lazylist(cfg: &RunConfig) -> Outcome {
    run(Structure::Set(SetKind::LazyList), SchemeKind::Ca, cfg, Instrument::None)
}

fn grid() -> SeriesTable {
    let threads = [1usize, 2, 4, 8];
    let mut table = SeriesTable::new(
        "sweep_bench — lazy list 50i-50d, 7 schemes × 4 thread counts",
        "scheme\\threads",
        threads.iter().map(|t| t.to_string()).collect(),
    );
    let rows = sweep::grid("sweep_bench", &SchemeKind::ALL, &threads, |&scheme, &t| {
        let cfg = RunConfig {
            threads: t,
            key_range: 1000,
            prefill: 500,
            ops_per_thread: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ..Default::default()
        };
        caharness::run_set(SetKind::LazyList, scheme, &cfg).throughput
    });
    for (scheme, row) in SchemeKind::ALL.iter().zip(rows) {
        table.push_series(scheme.name(), row);
    }
    table
}

/// Best-of-`reps` wall clock for the grid at the given worker count, plus
/// the rendered table (identical across reps by determinism).
fn time_grid(jobs: usize, reps: usize) -> (f64, String) {
    sweep::set_jobs(jobs);
    let warm = grid().to_csv();
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let csv = grid().to_csv();
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(csv, warm, "deterministic sweep diverged between reps");
    }
    sweep::set_jobs(0);
    (best_ms, warm)
}

/// One deterministic 16-simulated-core machine at the given gang count and
/// mix. Returns (best wall ms over `reps`, simulated cycles, total
/// deferred events, epoch barriers) — repeated runs asserted bit-identical.
fn time_gangs(gangs: usize, mix: Mix, reps: usize) -> (f64, u64, u64, u64) {
    let cfg = RunConfig {
        threads: 16,
        key_range: 1000,
        prefill: 500,
        ops_per_thread: 500,
        mix,
        gangs,
        ..Default::default()
    };
    let Outcome { metrics: warm, stats: warm_stats, .. } = ca_lazylist(&cfg);
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let Outcome { metrics: m, stats: s, .. } = ca_lazylist(&cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(m.cycles, warm.cycles, "gangs={gangs}: repeated runs diverged");
        assert_eq!(
            s.cores, warm_stats.cores,
            "gangs={gangs}: per-core stats diverged between reps"
        );
    }
    (best_ms, warm.cycles, warm.deferred_events, warm.epoch_barriers)
}

/// One deterministic 16-core machine at `(gangs, l2_banks)` on the given
/// execution backend, update-heavy mix. Returns (best wall ms, per-core
/// stats, machine stats) — repeated runs asserted bit-identical.
fn time_banked(
    gangs: usize,
    l2_banks: usize,
    exec: mcsim::ExecBackend,
    reps: usize,
) -> (f64, caharness::Metrics, mcsim::MachineStats) {
    let cfg = RunConfig {
        threads: 16,
        key_range: 1000,
        prefill: 500,
        ops_per_thread: 500,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        gangs,
        exec,
        cache: mcsim::CacheConfig {
            l2_banks,
            ..Default::default()
        },
        ..Default::default()
    };
    let Outcome { metrics: warm, stats: warm_stats, .. } = ca_lazylist(&cfg);
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let Outcome { metrics: m, stats: s, .. } = ca_lazylist(&cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            m.cycles, warm.cycles,
            "gangs={gangs} banks={l2_banks}: repeated runs diverged"
        );
        assert_eq!(
            s.cores, warm_stats.cores,
            "gangs={gangs} banks={l2_banks}: per-core stats diverged between reps"
        );
    }
    (best_ms, warm, warm_stats)
}

/// One fault-injected 16-core MS-queue run at `(gangs, l2_banks)`: cores
/// 15 and 14 fail-stop mid-operation at fixed simulated clocks. Returns
/// (best wall ms over `reps`, metrics) — repeated runs asserted
/// bit-identical in every simulated result (cycles, ops, crashed cores,
/// garbage bytes), so the fault machinery itself is covered by the same
/// determinism contract as the fault-free instruments.
fn time_robust(
    scheme: SchemeKind,
    gangs: usize,
    l2_banks: usize,
    reps: usize,
) -> (f64, caharness::Metrics) {
    let cfg = RunConfig {
        threads: 16,
        key_range: 1000,
        prefill: 64,
        ops_per_thread: 500,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        gangs,
        cache: mcsim::CacheConfig {
            l2_banks,
            ..Default::default()
        },
        // Aggressive reclamation cadence so the surviving threads actually
        // try to free — making the pinned backlog attributable to the
        // crash, not to lazy batching.
        smr: SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
            ..Default::default()
        },
        fault_plan: FaultPlan::none().crash(15, 4_000).crash(14, 7_000),
        max_cycles: Some(2_000_000_000),
        ..Default::default()
    };
    let warm = run_queue(scheme, &cfg);
    assert_eq!(warm.crashed_cores, 2, "{}: both crashes must land", scheme.name());
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = run_queue(scheme, &cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            (m.cycles, m.total_ops, m.crashed_cores, m.peak_garbage_bytes, m.final_garbage_bytes),
            (
                warm.cycles,
                warm.total_ops,
                warm.crashed_cores,
                warm.peak_garbage_bytes,
                warm.final_garbage_bytes
            ),
            "{}: gangs={gangs} banks={l2_banks}: fault run diverged between reps",
            scheme.name()
        );
    }
    (best_ms, warm)
}

/// One restart-bearing recovery run: same 16-core MS-queue workload as
/// `time_robust`, but the core-15 victim comes back 50k cycles after its
/// crash, adopts its orphan and finishes the quota. Returns (best wall ms
/// over `reps`, metrics of the warmup run); the recovery counters and
/// clocks are asserted bit-identical across reps.
fn time_recover(scheme: SchemeKind, reps: usize) -> (f64, caharness::Metrics) {
    let cfg = RunConfig {
        threads: 16,
        key_range: 1000,
        prefill: 64,
        ops_per_thread: 500,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        smr: SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
            ..Default::default()
        },
        fault_plan: FaultPlan::none().crash(15, 4_000).restart(15, 54_000),
        max_cycles: Some(2_000_000_000),
        ..Default::default()
    };
    let warm = run_queue(scheme, &cfg);
    assert_eq!(warm.total_ops, 16 * 500, "{}: restart must finish the quota", scheme.name());
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = run_queue(scheme, &cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            (m.cycles, m.total_ops, m.adoptions, m.adopted_bytes, m.recovery_cycles),
            (warm.cycles, warm.total_ops, warm.adoptions, warm.adopted_bytes, warm.recovery_cycles),
            "{}: recovery run diverged between reps",
            scheme.name()
        );
    }
    (best_ms, warm)
}

/// One lazy-list 50i-50d run on one backend. Returns (best wall ms over
/// `reps`, metrics of the warmup run). `total_ops` is asserted stable
/// across reps on both backends; simulated cycles only on the sim leg
/// (native wall clock is real concurrency, not a simulated result).
fn time_backend(scheme: SchemeKind, threads: usize, native: bool, reps: usize) -> (f64, caharness::Metrics) {
    let cfg = RunConfig {
        threads,
        key_range: 1000,
        prefill: 500,
        ops_per_thread: 500,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        native,
        ..Default::default()
    };
    let warm = caharness::run_set(SetKind::LazyList, scheme, &cfg);
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = caharness::run_set(SetKind::LazyList, scheme, &cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            m.total_ops,
            warm.total_ops,
            "{} native={native}: op count diverged between reps",
            scheme.name()
        );
        if !native {
            assert_eq!(m.cycles, warm.cycles, "{}: sim run diverged", scheme.name());
        }
    }
    (best_ms, warm)
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = match jobs_from_args() {
        0 => host,
        n => n,
    };
    eprintln!("[sweep_bench: 28 configs, best of {reps}, jobs 1 vs {jobs}, host CPUs {host}]");
    let (serial_ms, serial_csv) = time_grid(1, reps);
    let (par_ms, par_csv) = time_grid(jobs, reps);
    let identical = serial_csv == par_csv;
    assert!(identical, "--jobs {jobs} table differs from --jobs 1");
    println!("[");
    println!(
        "  {{\"bench\": \"sweep_bench\", \"configs\": 28, \"host_cpus\": {host}, \
         \"reps\": {reps}, \"jobs\": {jobs}, \"wall_ms_jobs1\": {serial_ms:.1}, \
         \"wall_ms_jobsN\": {par_ms:.1}, \"speedup\": {:.2}, \
         \"byte_identical\": {identical}}},",
        serial_ms / par_ms
    );
    // PR 3: intra-machine gang speedup on ONE 16-core machine, at the
    // paper's read-only (0i-0d) and update-heavy (50i-50d) mixes. Gang
    // counts are different (each deterministic) schedules, so wall clocks
    // are compared per gang count against its own repeats; the g1-vs-gN
    // ratio is the host-parallelism payoff (or, on 1 vCPU, the overhead
    // bound — reads resolve on the gang-local lane, so the read-mostly
    // panel bounds the protocol's intrinsic cost, while the update panel
    // stresses the barrier merge with misses, invalidations and frees).
    for (label, mix) in [
        ("gang_bench", Mix { insert_pct: 0, delete_pct: 0 }),
        ("gang_bench_update", Mix { insert_pct: 50, delete_pct: 50 }),
    ] {
        eprintln!("[sweep_bench: {label}, 16 simulated cores, gangs 1/2/4]");
        let (g1_ms, g1_cycles, _, _) = time_gangs(1, mix, reps);
        let (g2_ms, g2_cycles, g2_defer, g2_epochs) = time_gangs(2, mix, reps);
        let (g4_ms, g4_cycles, g4_defer, g4_epochs) = time_gangs(4, mix, reps);
        println!(
            "  {{\"bench\": \"{label}\", \"threads\": 16, \"mix\": \"{}\", \
             \"host_cpus\": {host}, \
             \"reps\": {reps}, \"wall_ms_g1\": {g1_ms:.1}, \"wall_ms_g2\": {g2_ms:.1}, \
             \"wall_ms_g4\": {g4_ms:.1}, \"speedup_g2\": {:.2}, \"speedup_g4\": {:.2}, \
             \"sim_cycles_g1\": {g1_cycles}, \"sim_cycles_g2\": {g2_cycles}, \
             \"sim_cycles_g4\": {g4_cycles}, \"deferred_g2\": {g2_defer}, \
             \"deferred_g4\": {g4_defer}, \"epochs_g2\": {g2_epochs}, \
             \"epochs_g4\": {g4_epochs}, \"deterministic\": true}},",
            mix.label(),
            g1_ms / g2_ms,
            g1_ms / g4_ms,
        );
    }
    // PR 4: the banked multi-writer barrier merge. For each gang layout,
    // per-core results must be bit-identical across bank counts (banking
    // is exactly set-preserving AND the banked merge is a proof-carrying
    // reordering of the serial replay); the counters record how much of
    // each barrier the classifier parallelized. The g1-relative wall ratio
    // bounds the classification overhead on a 1-vCPU host and records the
    // merge speedup on multi-core CI.
    eprintln!("[sweep_bench: banked_merge, 16 simulated cores, gangs {{1,2,4}} × banks {{1,8}}]");
    let mut rows = Vec::new();
    let mut g1_banked_ms = f64::NAN;
    for gangs in [1usize, 2, 4] {
        let (flat_ms, flat_m, flat_s) = time_banked(gangs, 1, mcsim::ExecBackend::Auto, reps);
        let (banked_ms, banked_m, banked_s) = time_banked(gangs, 8, mcsim::ExecBackend::Auto, reps);
        assert_eq!(
            flat_s.cores, banked_s.cores,
            "gangs={gangs}: per-core stats differ between 1 and 8 banks"
        );
        assert_eq!(flat_m.cycles, banked_m.cycles, "gangs={gangs}");
        if gangs == 1 {
            g1_banked_ms = banked_ms;
        }
        rows.push(format!(
            "  {{\"bench\": \"banked_merge\", \"threads\": 16, \"gangs\": {gangs}, \
             \"mix\": \"50i-50d\", \"reps\": {reps}, \
             \"wall_ms_banks1\": {flat_ms:.1}, \"wall_ms_banks8\": {banked_ms:.1}, \
             \"overhead_vs_banks1\": {:.3}, \"wall_vs_g1\": {:.3}, \"sim_cycles\": {}, \
             \"deferred_events\": {}, \"banked_merge_events\": {}, \
             \"serial_epilogue_events\": {}, \"epoch_barriers\": {}, \
             \"identical_across_banks\": true}}",
            banked_ms / flat_ms,
            banked_ms / g1_banked_ms,
            banked_m.cycles,
            banked_m.deferred_events,
            banked_m.banked_merge_events,
            banked_m.serial_epilogue_events,
            banked_m.epoch_barriers,
        ));
    }
    // PR 7: lane-parallel merge on the *threads* mechanism. At 1 bank the
    // classifier never runs and every deferred event replays in the serial
    // epilogue; at 8 banks the mechanism's dedicated merge workers execute
    // the classified lanes concurrently through `BankParts` projections.
    // Per-core results must be bit-identical across the two (the banked
    // merge is a proof-carrying reordering), so the wall ratio is pure host
    // merge scheduling: a lane-dispatch overhead bound on a 1-vCPU host,
    // the lane-parallel merge speedup on multi-core CI.
    eprintln!(
        "[sweep_bench: threads_merge, 16 simulated cores, exec=threads, gangs {{2,4}} × banks {{1,8}}]"
    );
    for gangs in [2usize, 4] {
        let exec = mcsim::ExecBackend::Threads;
        let (serial_ms, serial_m, serial_s) = time_banked(gangs, 1, exec, reps);
        let (lanes_ms, lanes_m, lanes_s) = time_banked(gangs, 8, exec, reps);
        assert_eq!(
            serial_s.cores, lanes_s.cores,
            "threads_merge gangs={gangs}: per-core stats differ between serial \
             epilogue and lane-parallel merge"
        );
        assert_eq!(serial_m.cycles, lanes_m.cycles, "threads_merge gangs={gangs}");
        rows.push(format!(
            "  {{\"bench\": \"threads_merge\", \"threads\": 16, \"gangs\": {gangs}, \
             \"exec\": \"threads\", \"mix\": \"50i-50d\", \"reps\": {reps}, \
             \"wall_ms_serial\": {serial_ms:.1}, \"wall_ms_lanes\": {lanes_ms:.1}, \
             \"lanes_vs_serial\": {:.3}, \"sim_cycles\": {}, \
             \"banked_merge_events\": {}, \"serial_epilogue_events\": {}, \
             \"epoch_barriers\": {}, \"identical_across_banks\": true}}",
            lanes_ms / serial_ms,
            lanes_m.cycles,
            lanes_m.banked_merge_events,
            lanes_m.serial_epilogue_events,
            lanes_m.epoch_barriers,
        ));
    }
    // PR 6: the fault-injection subsystem. Per scheme, one 16-core MS-queue
    // run with two cores fail-stopped mid-operation, at gangs {1, 2} and —
    // for the gang layout — L2 banks {1, 8}, asserted bit-identical across
    // bank counts (faults must not perturb the banked-merge proof). The
    // recorded garbage peaks are the figure's headline: qsbr's dead-reader
    // backlog vs hp's O(1) bound vs CA's zero-by-construction.
    eprintln!("[sweep_bench: robust_bench, 16 simulated cores, 2 fail-stopped, gangs {{1,2}} × banks {{1,8}}]");
    let mut qsbr_peak = 0u64;
    let mut hp_peak = u64::MAX;
    for scheme in [SchemeKind::Qsbr, SchemeKind::Hp, SchemeKind::Ca] {
        let (g1_ms, g1) = time_robust(scheme, 1, 1, reps);
        let (g2_ms, g2) = time_robust(scheme, 2, 1, reps);
        let (g2b_ms, g2b) = time_robust(scheme, 2, 8, reps);
        assert_eq!(
            (g2.cycles, g2.total_ops, g2.peak_garbage_bytes, g2.final_garbage_bytes),
            (g2b.cycles, g2b.total_ops, g2b.peak_garbage_bytes, g2b.final_garbage_bytes),
            "{}: fault run differs between 1 and 8 L2 banks at gangs=2",
            scheme.name()
        );
        match scheme {
            SchemeKind::Qsbr => qsbr_peak = g1.peak_garbage_bytes,
            SchemeKind::Hp => hp_peak = g1.peak_garbage_bytes,
            _ => {}
        }
        rows.push(format!(
            "  {{\"bench\": \"robust_bench\", \"threads\": 16, \"scheme\": \"{}\", \
             \"crashes\": 2, \"reps\": {reps}, \"wall_ms_g1\": {g1_ms:.1}, \
             \"wall_ms_g2\": {g2_ms:.1}, \"wall_ms_g2_banks8\": {g2b_ms:.1}, \
             \"sim_cycles_g1\": {}, \"sim_cycles_g2\": {}, \"total_ops_g1\": {}, \
             \"crashed_cores\": {}, \"peak_garbage_bytes_g1\": {}, \
             \"final_garbage_bytes_g1\": {}, \"identical_across_banks\": true, \
             \"deterministic\": true}}",
            scheme.name(),
            g1.cycles,
            g2.cycles,
            g1.total_ops,
            g1.crashed_cores,
            g1.peak_garbage_bytes,
            g1.final_garbage_bytes,
        ));
    }
    assert!(
        qsbr_peak > hp_peak,
        "bounded-garbage separation lost: qsbr peak {qsbr_peak} <= hp peak {hp_peak}"
    );
    // PR 10: crash recovery. The robust_bench workload with a restart leg:
    // the victim certifies its own fail-stop, adopts the orphaned TLS (and
    // its pinned backlog) and finishes the quota. The headline next to
    // robust_bench's peaks: final garbage back at the tail bound for every
    // scheme, with the adoption latency on the simulated clock.
    eprintln!("[sweep_bench: recovery_bench, 16 simulated cores, crash at 4k + restart at 54k]");
    for scheme in [SchemeKind::Qsbr, SchemeKind::Hp, SchemeKind::Ca] {
        let (ms, m) = time_recover(scheme, reps);
        rows.push(format!(
            "  {{\"bench\": \"recovery_bench\", \"threads\": 16, \"scheme\": \"{}\", \
             \"crashes\": 1, \"restarts\": 1, \"reps\": {reps}, \"wall_ms\": {ms:.1}, \
             \"sim_cycles\": {}, \"total_ops\": {}, \"orphans_detected\": {}, \
             \"adoptions\": {}, \"adopted_bytes\": {}, \"recovery_cycles\": {}, \
             \"final_garbage_bytes\": {}, \"deterministic\": true}}",
            scheme.name(),
            m.cycles,
            m.total_ops,
            m.orphans_detected,
            m.adoptions,
            m.adopted_bytes,
            m.recovery_cycles,
            m.final_garbage_bytes,
        ));
    }
    // PR 8: the simulation tax. Same structure, same scheme, same workload
    // generator on the cycle-level simulator vs real host threads; the wall
    // ratio per completed op is what one pays for cycle-accurate metrics.
    eprintln!("[sweep_bench: native_vs_sim, lazy list 50i-50d, 4 threads, sim vs host threads]");
    for scheme in [SchemeKind::Qsbr, SchemeKind::Hp, SchemeKind::None] {
        let threads = 4;
        let (sim_ms, sim) = time_backend(scheme, threads, false, reps);
        let (nat_ms, nat) = time_backend(scheme, threads, true, reps);
        assert_eq!(
            sim.total_ops,
            nat.total_ops,
            "{}: sim and native legs must complete the same op count",
            scheme.name()
        );
        rows.push(format!(
            "  {{\"bench\": \"native_vs_sim\", \"threads\": {threads}, \"scheme\": \"{}\", \
             \"mix\": \"50i-50d\", \"reps\": {reps}, \"total_ops\": {}, \
             \"wall_ms_sim\": {sim_ms:.1}, \"wall_ms_native\": {nat_ms:.1}, \
             \"sim_tax\": {:.1}, \"sim_ops_per_mcycle\": {:.1}, \
             \"native_ops_per_us\": {:.2}, \"sim_cycles\": {}, \"native_wall_ns\": {}}}",
            scheme.name(),
            sim.total_ops,
            sim_ms / nat_ms.max(1e-9),
            sim.throughput,
            nat.throughput,
            sim.cycles,
            nat.cycles,
        ));
    }
    println!("{}", rows.join(",\n"));
    println!("]");
}
