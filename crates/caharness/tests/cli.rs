//! Command-line contract of the harness binaries: an argument a bin cannot
//! honour exits 2 with a one-line error before any cell runs, a failed
//! cell exits 1 with the list of failed tasks, and a table that cannot be
//! written to `results/` fails the run, naming the path.

use std::path::Path;
use std::process::Command;

/// Run `bin` with `args` in a scratch directory (a bin that gets as far as
/// a table writes `results/` there); return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    run_in(Path::new(env!("CARGO_TARGET_TMPDIR")), bin, args)
}

/// [`run`] in `dir`.
fn run_in(dir: &Path, bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn the harness binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `bin args` exits 2 with exactly one stderr line, an `error:` containing
/// `needle`.
fn rejects(bin: &str, args: &[&str], needle: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

const FIG: &str = env!("CARGO_BIN_EXE_fig");
const VALIDATE: &str = env!("CARGO_BIN_EXE_validate");
const RACE_AUDIT: &str = env!("CARGO_BIN_EXE_race_audit");

#[test]
fn race_audit_rejects_native() {
    rejects(
        RACE_AUDIT,
        &["--quick", "--native"],
        "unrecognized argument `--native`",
    );
}

#[test]
fn fail_fast_is_an_unknown_flag() {
    rejects(
        FIG,
        &["all", "--quick", "--fail-fast"],
        "unrecognized argument `--fail-fast`",
    );
}

#[test]
fn fig_jobs_without_a_value_is_an_error() {
    rejects(
        FIG,
        &["fig1_lazylist", "--quick", "--jobs"],
        "`--jobs` requires a value",
    );
}

#[test]
fn fig_non_numeric_jobs_is_an_error() {
    rejects(
        FIG,
        &["fig1_lazylist", "--quick", "--jobs", "abc"],
        "`--jobs` takes a non-negative integer",
    );
}

#[test]
fn fig_negative_max_cycles_is_an_error() {
    rejects(
        FIG,
        &["fig1_lazylist", "--quick", "--max_cycles", "-5"],
        "`--max_cycles` takes a non-negative integer",
    );
}

#[test]
fn race_audit_takes_no_jobs() {
    rejects(
        RACE_AUDIT,
        &["--quick", "--jobs", "x"],
        "unrecognized argument `--jobs`",
    );
    rejects(
        RACE_AUDIT,
        &["--quick", "--jobs", "4"],
        "unrecognized argument `--jobs`",
    );
}

#[test]
fn race_audit_takes_no_paper() {
    rejects(
        RACE_AUDIT,
        &["--quick", "--paper"],
        "unrecognized argument `--paper`",
    );
}

#[test]
fn quick_and_paper_together_is_an_error() {
    rejects(
        FIG,
        &["fig1_lazylist", "--quick", "--paper"],
        "`--quick` and `--paper` exclude each other",
    );
    rejects(
        VALIDATE,
        &["--paper", "--quick"],
        "`--quick` and `--paper` exclude each other",
    );
}

#[test]
fn validate_takes_no_native() {
    rejects(
        VALIDATE,
        &["--quick", "--native"],
        "unrecognized argument `--native`",
    );
}

#[test]
fn race_check_is_not_a_flag() {
    rejects(
        FIG,
        &["fig1_lazylist", "--quick", "--race_check"],
        "unrecognized argument `--race_check`",
    );
    rejects(
        VALIDATE,
        &["--quick", "--race_check"],
        "unrecognized argument `--race_check`",
    );
}

#[test]
fn validate_reports_failed_cells_before_scoring() {
    let (code, stderr) = run(VALIDATE, &["--quick", "--max_cycles", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("task(s) FAILED:"), "{stderr}");
    assert!(!stderr.contains("no scoreable"), "{stderr}");
}

#[test]
fn fig_fails_loudly_when_results_cannot_be_written() {
    // Its own directory: the other cases share one, and write `results/`.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_is_a_file");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    std::fs::write(dir.join("results"), "not a directory").expect("scratch file");
    let (code, stderr) = run_in(&dir, FIG, &["queue_bench", "--quick"]);
    assert!(matches!(code, Some(c) if c != 0), "{code:?}: {stderr}");
    assert!(stderr.contains("cannot create results"), "{stderr}");
}
