//! Emits the `mcsim_coop` cfg when the coroutine execution backend is
//! available (x86-64 Linux, not under Miri), so the availability predicate
//! lives in exactly one place. A future aarch64 port only edits this file.
//!
//! `MCSIM_NO_COOP=1` force-disables the backend even where it is available:
//! the ASan CI job sets it because the coop backend's hand-rolled
//! context-switch assembly has no TSan/ASan instrumentation (the sanitizers
//! cannot track a user-space stack switch), so that job must build
//! without it — the `MCSIM_EXEC=threads` env override alone would still
//! *compile* the asm.

#[expect(
    clippy::disallowed_methods,
    reason = "a build script's inputs are environment variables; cargo tracks them"
)]
fn main() {
    println!("cargo:rustc-check-cfg=cfg(mcsim_coop)");
    println!("cargo:rerun-if-env-changed=MCSIM_NO_COOP");
    let arch = std::env::var("CARGO_CFG_TARGET_ARCH").unwrap_or_default();
    let os = std::env::var("CARGO_CFG_TARGET_OS").unwrap_or_default();
    let miri = std::env::var("CARGO_CFG_MIRI").is_ok();
    let disabled = std::env::var("MCSIM_NO_COOP").is_ok_and(|v| v == "1");
    if arch == "x86_64" && os == "linux" && !miri && !disabled {
        println!("cargo:rustc-cfg=mcsim_coop");
    }
}
