//! Crash-recovery extension (not in the paper): every scheme plus CA on
//! the lock-free MS queue with one core fail-stopped early in the measured
//! phase. Two tables: allocated-not-freed lines over time (the trace
//! through crash → detection → adoption → reclaim) and a per-scheme
//! recovery summary (orphans detected, adoptions, adopted backlog bytes,
//! crash→adoption-complete latency in simulated cycles).
//!
//! With `--recover` the victim restarts: its recovery closure mints a
//! `casmr::CrashToken` from the simulator's restart notice, adopts its own
//! orphan (forcibly retracting the stale publications) and finishes its
//! quota — so the qsbr/rcu garbage trace returns under the pre-crash
//! bound. Without the flag the victim stays dead and the same trace grows
//! with the survivors' work, unbounded: run both to see the contrast.
//!
//! Usage: `cargo run -p caharness --release --bin fig_recovery \
//!     [--quick|--paper] [--recover] [--jobs N] [--max_cycles N] [--fail-fast]`

use caharness::experiments::{fig_recovery, Scale};

fn main() {
    let scale = Scale::from_args();
    let recover = std::env::args().any(|a| a == "--recover");
    caharness::init_from_args(&["--recover"]);
    eprintln!("[fig_recovery at {scale:?} scale, recover={recover}]");
    let (trace, summary) = fig_recovery(scale, recover);
    let suffix = if recover { "_adopt" } else { "" };
    trace.emit(&format!("recovery_trace{suffix}.csv"));
    summary.emit(&format!("recovery_summary{suffix}.csv"));
    caharness::finish();
}
