//! Determinism of the simulator: identical (program, seed, quantum) must
//! give bit-identical statistics — the property EXPERIMENTS.md relies on
//! when recording single-run numbers.

mod common;

use caharness::{run, run_set, run_stack, Mix, RunConfig, SetKind, Structure};
use casmr::SchemeKind;

fn cfg(threads: usize, quantum: u64, seed: u64) -> RunConfig {
    RunConfig {
        threads,
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

#[test]
fn identical_runs_identical_stats() {
    for scheme in [SchemeKind::Ca, SchemeKind::Hp, SchemeKind::Qsbr] {
        let lazy = Structure::Set(SetKind::LazyList);
        let a = run(lazy, scheme, &cfg(3, 64, 42));
        let b = run(lazy, scheme, &cfg(3, 64, 42));
        let (am, bm) = (&a.metrics, &b.metrics);
        assert_eq!(am.cycles, bm.cycles, "{scheme}: cycles diverged");
        assert_eq!(am.total_ops, bm.total_ops);
        assert_eq!(am.final_allocated, bm.final_allocated, "{scheme}");
        let (a, b) = (&a.stats, &b.stats);
        assert_eq!(a.sum(|c| c.cread_fail), b.sum(|c| c.cread_fail), "{scheme}");
        assert_eq!(a.sum(|c| c.fences), b.sum(|c| c.fences), "{scheme}");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_set(SetKind::LazyList, SchemeKind::Ca, &cfg(3, 64, 1));
    let b = run_set(SetKind::LazyList, SchemeKind::Ca, &cfg(3, 64, 2));
    // Different key streams must lead to different timing (overwhelmingly).
    assert_ne!(a.cycles, b.cycles);
}

#[test]
fn quantum_perturbs_timing_but_determinism_holds_per_quantum() {
    let q0a = run_stack(SchemeKind::Ca, &cfg(4, 0, 9));
    let q0b = run_stack(SchemeKind::Ca, &cfg(4, 0, 9));
    assert_eq!(q0a.cycles, q0b.cycles);
    let q256a = run_stack(SchemeKind::Ca, &cfg(4, 256, 9));
    let q256b = run_stack(SchemeKind::Ca, &cfg(4, 256, 9));
    assert_eq!(q256a.cycles, q256b.cycles);
}

#[test]
fn single_thread_is_schedule_independent() {
    // With one core the quantum is irrelevant: timings must match exactly.
    let a = run_set(SetKind::ExtBst, SchemeKind::Ibr, &cfg(1, 0, 5));
    let b = run_set(SetKind::ExtBst, SchemeKind::Ibr, &cfg(1, 1024, 5));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.final_allocated, b.final_allocated);
}
