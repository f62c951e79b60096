//! Determinism pins for the happens-before race analyzer.
//!
//! The analyzer's report is part of the simulated result surface, so it
//! inherits the machine's determinism contract: simulated results are a
//! pure function of `(program, seeds, quantum)`, and everything about the
//! host must be invisible — the rendered report is **byte-identical**
//! across repeated runs and host execution backends. And the analyzer
//! must be free when disabled (the `race_check = false` identity is pinned
//! by `tests/env_pin.rs`, whose goldens predate the analyzer and still pass
//! unmodified).
//!
//! Cross-backend identity is pinned by the golden digest file
//! (`tests/goldens/race_report.txt`): CI runs this test on both
//! `MCSIM_EXEC` legs against the same goldens. Regenerate (only when the
//! analyzer's edges or report format intentionally change):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test race_check`

mod common;

use common::{check_golden, Digest};
use conditional_access::harness::{run, run_set, Metrics, Mix, RunConfig, SetKind, Structure};
use conditional_access::sim::RaceReport;
use conditional_access::smr::SchemeKind;

/// Run with the analyzer armed, whatever `cfg.race_check` says.
fn race_report(structure: Structure, scheme: SchemeKind, cfg: &RunConfig) -> (Metrics, RaceReport) {
    let armed = RunConfig {
        race_check: true,
        ..cfg.clone()
    };
    let out = run(structure, scheme, &armed);
    (out.metrics, out.race.expect("race_check was armed"))
}

fn cfg() -> RunConfig {
    RunConfig {
        threads: 4,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 200,
        mix: Mix {
            insert_pct: 30,
            delete_pct: 30,
        },
        quantum: 0,
        ..Default::default()
    }
}

#[test]
fn report_is_byte_identical_across_reruns() {
    // The trace is recorded per core and linearized by issue clock, so
    // run-to-run host scheduling must be invisible: a rerun renders the
    // same bytes.
    for (kind, scheme) in [
        (SetKind::LazyList, SchemeKind::Hp),
        (SetKind::LazyList, SchemeKind::Ca),
    ] {
        let reference = race_report(Structure::Set(kind), scheme, &cfg()).1.render();
        let rerun = race_report(Structure::Set(kind), scheme, &cfg()).1.render();
        assert_eq!(reference, rerun, "{kind:?}/{scheme:?}: report diverged");
    }
}

#[test]
fn race_check_does_not_perturb_simulated_time() {
    // SmrFence events cost zero cycles and the trace is recorded off the
    // critical path, so arming the analyzer may not move a single clock.
    for scheme in [SchemeKind::Hp, SchemeKind::Qsbr, SchemeKind::Ca] {
        let c = cfg();
        let plain = run_set(SetKind::LazyList, scheme, &c);
        let (armed, _) = race_report(Structure::Set(SetKind::LazyList), scheme, &c);
        assert_eq!(
            plain.cycles, armed.cycles,
            "{scheme:?}: race_check changed simulated cycles"
        );
        assert_eq!(plain.total_ops, armed.total_ops);
    }
}

#[test]
fn reports_match_goldens_across_backends() {
    // One golden file for both MCSIM_EXEC legs: the report is simulated
    // output, so the host backend may not leak into it.
    let mut lines = String::new();
    for (label, report) in [
        (
            "lazylist/hp",
            race_report(Structure::Set(SetKind::LazyList), SchemeKind::Hp, &cfg()).1,
        ),
        (
            "lazylist/ca",
            race_report(Structure::Set(SetKind::LazyList), SchemeKind::Ca, &cfg()).1,
        ),
        ("queue/qsbr", {
            let mut c = cfg();
            c.mix = Mix {
                insert_pct: 50,
                delete_pct: 50,
            };
            race_report(Structure::Queue, SchemeKind::Qsbr, &c).1
        }),
    ] {
        lines.push_str(&format!(
            "{label} = {:#018x}\n",
            Digest::of(&report.render())
        ));
    }
    check_golden(
        "race_report.txt",
        &lines,
        "race reports diverged from goldens (analyzer edges or report \
         format changed; regenerate only if intentional)",
    );
}
