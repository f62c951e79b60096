//! Byte-identity pin for the one-runner refactor (PR 13).
//!
//! `tests/goldens/runner_pin.txt` was captured at the parent commit, from
//! the per-instrument entry points that `caharness::run` replaced: stack,
//! queue, the CA-only structures, latency capture (metrics and
//! histogram buckets), the robust set runner under a finite stall, the
//! robust queue runner under two crashes, and the recovery runner (metrics,
//! machine stats, recovery clocks) — every scheme. Labels, configurations
//! and digests below are that generator's (the `g1` label prefix dates from
//! when the grid had a second, since-retired axis); only the call producing
//! each cell changed, and the rows of deleted structures went with them.
//!
//! Simulated results are bit-identical across host execution backends, so
//! one golden file serves both `MCSIM_EXEC` legs.
//!
//! The digests hash `Debug` text, so they also move when `Metrics` or
//! `CoreStats` loses a field while nothing simulated changes. Such a move
//! is re-derived, not regenerated blind: render the cells at the parent,
//! cut each deleted `, name: value` pair from the text, rehash, and compare
//! with the regenerated file. The headline columns must not move.
//!
//! Regenerate (only when an *intentional* simulated-behaviour change lands):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test runner_pin`

mod common;

use common::{check_golden, golden, Digest};
use conditional_access::harness::{run, run_set, Metrics, Mix, RunConfig, SetKind, Structure};
use conditional_access::sim::FaultPlan;
use conditional_access::smr::{SchemeKind, SmrConfig};

const UPDATES: Mix = Mix {
    insert_pct: 50,
    delete_pct: 50,
};
const MIXED: Mix = Mix {
    insert_pct: 30,
    delete_pct: 30,
};

fn tiny(threads: usize, mix: Mix) -> RunConfig {
    RunConfig {
        threads,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 150,
        mix,
        buckets: 8,
        ..Default::default()
    }
}

/// The plan of the runner unit test `set_run_rides_out_a_finite_stall`.
fn stall_cfg() -> RunConfig {
    RunConfig {
        fault_plan: FaultPlan::none().stall(1, 2_000, 50_000),
        max_cycles: Some(100_000_000),
        ..tiny(2, UPDATES)
    }
}

/// A four-thread queue cell under `plan`, reclaiming often enough for 150
/// operations per thread to show a pinned backlog.
fn crash_cfg(plan: FaultPlan) -> RunConfig {
    RunConfig {
        fault_plan: plan,
        max_cycles: Some(2_000_000_000),
        smr: SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
        },
        ..tiny(4, UPDATES)
    }
}

/// The parent's plain and latency drive loops had no garbage probe and
/// reported 0 where `run` always probes; their cells pin everything else.
fn probeless(m: &Metrics) -> Metrics {
    Metrics {
        peak_garbage_bytes: 0,
        final_garbage_bytes: 0,
        ..m.clone()
    }
}

/// One golden line: the headline numbers for triage, then the digest of
/// everything `all` prints (`f64` Debug output round-trips, so it is
/// bit-exact).
fn line(label: String, m: &Metrics, all: &dyn std::fmt::Debug) -> String {
    format!(
        "{label} = ops={} cycles={} peak_garbage={} final_garbage={} digest={:#018x}\n",
        m.total_ops,
        m.cycles,
        m.peak_garbage_bytes,
        m.final_garbage_bytes,
        Digest::of(&format!("{all:?}"))
    )
}

fn all_lines() -> String {
    let mut out = String::new();
    for scheme in SchemeKind::ALL {
        for (structure, mix) in [(Structure::Stack, MIXED), (Structure::Queue, UPDATES)] {
            let o = run(structure, scheme, &tiny(4, mix));
            let m = probeless(&o.metrics);
            out += &line(format!("g1 plain {} {scheme}", structure.name()), &m, &m);
        }
    }
    for structure in [
        Structure::Harris,
        Structure::HtmList { slots: 64 },
        Structure::FallbackList { max_attempts: 2 },
    ] {
        let o = run(structure, SchemeKind::Ca, &tiny(4, MIXED));
        let m = probeless(&o.metrics);
        out += &line(
            format!("g1 plain {} ca", structure.name()),
            &m,
            &(&m, o.fallbacks),
        );
    }
    for kind in [SetKind::LazyList, SetKind::ExtBst, SetKind::HashTable] {
        for scheme in SchemeKind::ALL {
            let cfg = RunConfig {
                history: true,
                ..tiny(4, MIXED)
            };
            let o = run(Structure::Set(kind), scheme, &cfg);
            let m = probeless(&o.metrics);
            // `Some`: the golden hashed the histogram as an optional field.
            let all = (&m, Some(o.latency()));
            out += &line(format!("g1 latency {} {scheme}", kind.name()), &m, &all);
        }
    }
    for scheme in SchemeKind::ALL {
        let two_crashes = FaultPlan::none().crash(3, 4_000).crash(2, 7_000);
        for (label, structure, cfg) in [
            ("stall", Structure::Set(SetKind::LazyList), stall_cfg()),
            ("two_crash", Structure::Queue, crash_cfg(two_crashes)),
        ] {
            let m = run(structure, scheme, &cfg).metrics;
            out += &line(format!("g1 {label} {} {scheme}", structure.name()), &m, &m);
        }
        let restart = FaultPlan::none().crash(3, 5_000).restart(3, 40_000);
        let o = run(Structure::Queue, scheme, &crash_cfg(restart));
        let all = (&o.metrics, &o.stats, &o.recovery);
        out += &line(format!("g1 recover queue {scheme}"), &o.metrics, &all);
    }
    out
}

#[test]
fn runner_results_match_pre_refactor_goldens() {
    check_golden(
        "runner_pin.txt",
        &all_lines(),
        "the runner diverged from the pre-refactor goldens (instruments and \
         fault handling must be invisible to the simulated run)",
    );
}

#[test]
fn run_set_under_a_stall_plan_returns_what_the_robust_runner_returned() {
    // At the parent, a fault plan handed to plain `run_set` fired inside
    // the prefill (and an injected crash escaped as a panic); only
    // `run_set_robust` disarmed it. The discipline now follows from the
    // plan, so `run_set` must reproduce the robust runner's pinned line.
    let m = run_set(SetKind::LazyList, SchemeKind::Qsbr, &stall_cfg());
    let pinned = line("g1 stall lazylist qsbr".to_string(), &m, &m);
    assert!(golden("runner_pin.txt").contains(&pinned), "{pinned}");
    assert!(
        pinned.contains(" = ops=300 cycles=90520 peak_garbage=4928 "),
        "{pinned}"
    );
}
