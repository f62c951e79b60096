//! The native pool commits memory on first touch, not at construction.
//!
//! A `NativeMachine` is sized for the leaky worst case, which is far more
//! than any run touches. Its pool is one zeroed allocation that the kernel
//! backs page by page as lines are first written, so building a large pool
//! costs address space, not resident memory. A pool that zero-fills itself
//! (or whose over-aligned zeroed allocation falls back to `memset`) makes
//! every page resident at once and fails here.
//!
//! Its own test binary so no other test's allocations share the process
//! and move `VmRSS` under it.
#![cfg(target_os = "linux")]

use casmr::{Env, NativeMachine};

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn pool_memory_is_committed_on_touch() {
    const LINES: usize = 1 << 22; // 256 MiB of address space
    const MIB: u64 = 1024;

    let before = vm_rss_kib();
    let m = NativeMachine::new(LINES);
    let built = vm_rss_kib();
    assert_eq!(m.capacity_lines(), LINES);
    assert!(
        built.saturating_sub(before) < 16 * MIB,
        "building a 256 MiB pool raised VmRSS by {} KiB: it must not commit the pool",
        built - before
    );

    m.run_on(1, |_, env| {
        for i in 0..1000 {
            let a = env.alloc();
            env.write(a, i);
        }
    });
    let touched = vm_rss_kib();
    assert_eq!(m.stats().allocated_not_freed, 1000);
    assert!(
        touched.saturating_sub(built) < 2 * MIB,
        "touching 1000 lines raised VmRSS by {} KiB",
        touched - built
    );
}
