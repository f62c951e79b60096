//! Command-line contract of the harness binaries: an argument a bin cannot
//! honour exits 2 with a one-line error before any cell runs.

use std::process::Command;

/// Run `bin` with `args`; return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the harness binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn race_audit_rejects_native() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_race_audit"), &["--quick", "--native"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("only on the simulator"), "{stderr}");
}

#[test]
fn fail_fast_is_an_unknown_flag() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fig"),
        &["all", "--quick", "--fail-fast"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("unrecognized argument `--fail-fast`"),
        "{stderr}"
    );
}
