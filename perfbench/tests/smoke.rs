//! Runs the real binary at smoke scale — all five workloads, untraced and
//! traced — so the benchmark cannot rot unnoticed.

use std::path::PathBuf;
use std::process::Command;

use perfbench::json::Json;
use perfbench::report::missing_metrics;
use perfbench::workloads::WORKLOADS;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn smoke_run_reports_every_metric_and_passes_every_check() {
    if perfbench::run::host_cpus() < 2 {
        eprintln!("skipped: two workloads need two host CPUs and refuse to run on fewer");
        return;
    }
    let dir = scratch("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--smoke", "--json"])
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let record = Json::parse(stdout.lines().next().expect("a record line")).expect("record parses");
    let header = record.get("header").expect("header");
    for key in [
        "schema",
        "git_commit",
        "rustc",
        "host_cpus",
        "exec_backend",
        "scale",
        "seconds",
    ] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }
    let entries = record
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(entries.len(), 2 * WORKLOADS.len());
    for (i, entry) in entries.iter().enumerate() {
        let w = &WORKLOADS[i % WORKLOADS.len()];
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(
            entry.get("traced").and_then(Json::as_bool),
            Some(i >= WORKLOADS.len())
        );
        assert_eq!(
            entry.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}: {entry}",
            w.name
        );
        assert!(entry.get("attempted").and_then(Json::as_f64) >= Some(10.0));
        assert_eq!(missing_metrics(entry), Vec::<String>::new(), "{}", w.name);
    }
    // Nothing is simulated inside native_update's timed passes.
    let native = &entries[WORKLOADS.len() + 3];
    let events = native
        .get("per_layer")
        .and_then(|l| l.get("mcsim.events"))
        .and_then(|m| m.get("value"));
    assert_eq!(events.and_then(Json::as_f64), Some(0.0));

    for w in &WORKLOADS {
        let path = dir.join(format!("results/trace_{}.json", w.name));
        let trace = Json::parse(&std::fs::read_to_string(&path).expect("trace file"))
            .expect("trace parses");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.len() > 50, "{}: {} spans", w.name, spans.len());
        for s in spans {
            let (start, end) = (
                s.get("start_ns").and_then(Json::as_f64),
                s.get("end_ns").and_then(Json::as_f64),
            );
            assert!(
                start <= end
                    && s.get("self_ns").and_then(Json::as_f64)
                        <= Some(end.unwrap() - start.unwrap())
            );
            assert_eq!(s.get("workload").and_then(Json::as_str), Some(w.name));
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &[],
        &["--all", "--smoke"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
