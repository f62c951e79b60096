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
//! `--native` runs every cell on host threads; `--max_cycles N` (N > 0)
//! bounds every simulated cell, replacing the fault figures' own backstop.
//!
//! Usage: `cargo run -p caharness --release --bin fig -- <figure>... | all \
//!     [--quick|--paper] [--recover] [--jobs N] [--max_cycles N] [--native]`

use caharness::config::{Cli, Flag};
use caharness::experiments::{render, select, FIGURES};

fn main() {
    let cli = Cli::from_env(&[
        Flag::Figures,
        Flag::Quick,
        Flag::Paper,
        Flag::Recover,
        Flag::Jobs,
        Flag::MaxCycles,
        Flag::Native,
    ]);
    let (names, scale, recover) = (&cli.positionals, cli.scale, cli.recover);
    let mut plans = select(names, scale, recover).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\nfigures:");
        for fig in FIGURES {
            eprintln!("  {:<20}{}", fig.name, fig.about);
        }
        std::process::exit(2);
    });
    for cell in plans.iter_mut().flat_map(|plan| &mut plan.cells) {
        cell.cfg.native = cli.native;
        cell.cfg.max_cycles = cli.max_cycles.or(cell.cfg.max_cycles);
    }
    caharness::sweep::set_jobs(cli.jobs);
    eprintln!(
        "[fig {} at {scale:?} scale, recover={recover}]",
        names.join(" ")
    );
    let (tables, failures) = render(&names.join("+"), &plans);
    for (csv, table) in tables {
        table.emit(&csv);
    }
    caharness::finish(&failures);
}
