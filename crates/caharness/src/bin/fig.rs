//! Renders figures from the registry (`caharness::experiments::FIGURES`):
//! every cell of every requested figure runs in one flat sweep, tables go
//! to stdout and CSVs under `results/`. `all` is every figure; no name (or
//! an unknown one) lists the registry and exits 2.
//!
//! `--recover` is for the two fault figures. `fig_robustness --recover`
//! re-runs each crashed column under a restart-bearing plan as an `N+adopt`
//! column: the victims come back, certify their own fail-stop
//! (`casmr::CrashToken`), adopt their orphans and finish their quota, so
//! the garbage table shows the pinned backlog *and* its repair side by
//! side. `fig_recovery --recover` restarts its victim, and the qsbr/rcu
//! garbage trace returns under the pre-crash bound; without the flag the
//! victim stays dead and the same trace grows with the survivors' work,
//! unbounded: run both to see the contrast.
//!
//! Usage: `cargo run -p caharness --release --bin fig -- <figure>... | all \
//!     [--quick|--paper] [--recover] [--jobs N] [--max_cycles N]`

use caharness::experiments::{render, select, Scale, FIGURES};

fn main() {
    let scale = Scale::from_args();
    let names = caharness::init_from_args(&["--recover", "FIGURE...|all"]);
    let recover = std::env::args().any(|a| a == "--recover");
    let plans = select(&names, scale, recover).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\nfigures:");
        for fig in &FIGURES {
            eprintln!("  {:<20}{}", fig.name, fig.about);
        }
        std::process::exit(2);
    });
    eprintln!("[fig {} at {scale:?} scale, recover={recover}]", names.join(" "));
    for (csv, table) in render(&names.join("+"), &plans) {
        table.emit(&csv);
    }
    caharness::finish();
}
