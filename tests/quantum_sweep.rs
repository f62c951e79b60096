//! Determinism of the batched event pipeline across the quantum sweep and
//! across host execution backends.
//!
//! The simulator hot path batches events under a turn-held lock (threads
//! backend) or multiplexes simulated cores as coroutines on one OS thread
//! (coop backend). Neither may change the simulated schedule: identical
//! (program, seed, quantum) must give identical **per-core** statistics —
//! not just identical aggregates — for every quantum, on every backend.

mod common;

use caharness::{run, Metrics, Mix, RunConfig, SetKind, Structure};
use casmr::SchemeKind;
use mcsim::{ExecBackend, Machine, MachineConfig, MachineStats};

fn set_run_with_stats(
    kind: SetKind,
    scheme: SchemeKind,
    cfg: &RunConfig,
) -> (Metrics, MachineStats) {
    let out = run(Structure::Set(kind), scheme, cfg);
    (out.metrics, out.stats)
}

fn cfg(quantum: u64, seed: u64) -> RunConfig {
    RunConfig {
        threads: 4,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 200,
        mix: Mix {
            insert_pct: 30,
            delete_pct: 30,
        },
        quantum,
        seed,
        ..Default::default()
    }
}

const KINDS: [SetKind; 2] = [SetKind::LazyList, SetKind::ExtBst];
const QUANTA: [u64; 3] = [0, 64, 1024];

#[test]
fn identical_runs_identical_per_core_stats() {
    for kind in KINDS {
        for quantum in QUANTA {
            let (m1, s1) = set_run_with_stats(kind, SchemeKind::Ca, &cfg(quantum, 7));
            let (m2, s2) = set_run_with_stats(kind, SchemeKind::Ca, &cfg(quantum, 7));
            assert_eq!(
                s1.max_cycles, s2.max_cycles,
                "{kind:?} q={quantum}: max_clock diverged"
            );
            assert_eq!(
                s1.cores, s2.cores,
                "{kind:?} q={quantum}: per-core stats diverged"
            );
            assert_eq!(m1.cycles, m2.cycles);
            assert_eq!(m1.total_ops, m2.total_ops);
        }
    }
}

#[test]
fn backends_produce_bit_identical_schedules() {
    // The coop and threads backends must take exactly the same scheduling
    // decisions: every per-core counter (including the handoff/batching
    // counters themselves) must match. Each side names its backend in its
    // own `MachineConfig`, so `MCSIM_EXEC` cannot collapse the pair. On
    // targets without coop support both sides run the threads backend and
    // the test trivially holds.
    for structure in ["lazylist", "extbst"] {
        for quantum in QUANTA {
            let stats = |exec| {
                let m = Machine::new(MachineConfig {
                    quantum,
                    exec,
                    ..common::config(4)
                });
                common::battery(&m, structure, SchemeKind::Ca, 4, 200, 64, 11).stats
            };
            let (threads, coop) = (stats(ExecBackend::Threads), stats(ExecBackend::Coop));
            assert_eq!(
                threads.max_cycles, coop.max_cycles,
                "{structure} q={quantum}: backends disagree on finish time"
            );
            assert_eq!(
                threads.cores, coop.cores,
                "{structure} q={quantum}: backends disagree on per-core stats"
            );
        }
    }
}

#[test]
fn larger_quanta_batch_more_events() {
    // The whole point of the lookahead quantum: the share of events that
    // keep the turn (batched under the held lock) must grow with it.
    let ratio = |quantum| {
        let (m, _) = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &cfg(quantum, 3));
        m.batched_events as f64 / (m.batched_events + m.turn_handoffs).max(1) as f64
    };
    let (r0, r64, r1024) = (ratio(0), ratio(64), ratio(1024));
    assert!(
        r0 < r64 && r64 < r1024,
        "batching ratios not monotone: {r0:.3} {r64:.3} {r1024:.3}"
    );
    assert!(
        r1024 > 0.9,
        "quantum 1024 should batch >90% of events, got {r1024:.3}"
    );
}

#[test]
fn parallel_sweep_is_byte_identical_across_jobs() {
    // The caharness sweep engine runs experiment configurations on a
    // pool of host threads sharing one task queue. Host parallelism must be
    // invisible in the output: a 21-configuration plan (the queue figure:
    // 7 schemes × 3 thread counts) rendered with --jobs 1, 4 and 8 must
    // produce byte-identical metrics tables — same cells, same order, same
    // formatting — regardless of completion order.
    use caharness::experiments::{self, Scale};
    use caharness::sweep;
    let plan = experiments::select(&["queue_bench".to_string()], Scale::Quick).unwrap();
    let render = |jobs: usize| {
        sweep::set_jobs(jobs);
        let (tables, _) = experiments::render("jobs determinism", &plan);
        sweep::set_jobs(0);
        let (_, t) = &tables[0];
        format!("{}\n{}", t.render(), t.to_csv())
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "--jobs 4 diverged from --jobs 1");
    assert_eq!(serial, render(8), "--jobs 8 diverged from --jobs 1");
}

#[test]
fn seeds_still_perturb_the_schedule() {
    // Sanity check that the determinism above is not a constant function.
    let (a, _) = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &cfg(64, 1));
    let (b, _) = set_run_with_stats(SetKind::LazyList, SchemeKind::Ca, &cfg(64, 2));
    assert_ne!(a.cycles, b.cycles);
}
