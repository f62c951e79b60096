//! Robustness extension (not in the paper): every scheme plus CA on the
//! lock-free MS queue while 0, 1, or 2 of the simulated cores fail-stop
//! mid-operation at fixed clocks. Three tables: throughput, peak
//! allocated-not-freed footprint, and peak retired-but-unfreed bytes held
//! by the reclamation scheme. The third shows the separation the fault
//! model exists to measure: qsbr/rcu garbage grows without bound behind a
//! dead reader while hp/he/ibr stay bounded and CA holds none at all.
//!
//! With `--recover` (PR 10), each crashed column is re-run under a
//! restart-bearing plan as a `N+adopt` column: the victims come back,
//! certify their own fail-stop (`casmr::CrashToken`), adopt their orphans
//! and finish their quota — the garbage table then shows the pinned
//! backlog *and* its repair side by side.
//!
//! Usage: `cargo run -p caharness --release --bin fig_robustness \
//!     [--quick|--paper] [--recover] [--jobs N] [--max_cycles N] [--fail-fast]`

use caharness::experiments::{fig_robustness_with, Scale};

fn main() {
    let scale = Scale::from_args();
    let recover = std::env::args().any(|a| a == "--recover");
    caharness::init_from_args(&["--recover"]);
    eprintln!("[fig_robustness at {scale:?} scale, recover={recover}]");
    let names = ["robustness_tput.csv", "robustness_footprint.csv", "robustness_garbage.csv"];
    for (table, name) in fig_robustness_with(scale, recover).into_iter().zip(names) {
        table.emit(name);
    }
    caharness::finish();
}
