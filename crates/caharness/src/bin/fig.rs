//! Renders figures from the registry (`caharness::experiments::FIGURES`):
//! the requested figures add their cells to one plan, which runs as one
//! flat sweep; tables go to stdout and CSVs under `results/`. A cell that
//! several figures read runs once (under `--native` it is measured once, so
//! those tables show the same value). `all` is every figure; a figure
//! named twice (or named next to `all`) runs once, where it is first asked
//! for. No name (or an unknown one) lists the registry and exits 2.
//!
//! Each fault figure has a restart-and-adopt twin, its own registry entry
//! with `_adopt` CSVs. `fig_robustness_adopt` adds each crashed column
//! again under a restart-bearing plan as an `N+adopt` column: the victims
//! come back, certify their own fail-stop (`casmr::CrashToken`), adopt
//! their orphans and finish their quota, so the garbage table shows the
//! pinned backlog *and* its repair side by side. `fig_recovery_adopt`
//! restarts its victim, and the qsbr/rcu garbage trace returns under the
//! pre-crash bound; in `fig_recovery` the victim stays dead and the same
//! trace grows with the survivors' work, unbounded: run both to see the
//! contrast.
//!
//! `--native` runs every cell on host threads; `--max_cycles N` (N > 0)
//! bounds every simulated cell, replacing the fault figures' own backstop.
//!
//! Usage: `cargo run -p caharness --release --bin fig -- <figure>... | all \
//!     [--quick|--paper] [--jobs N] [--max_cycles N] [--native]`

use caharness::config::{Cli, FIG_FLAGS};
use caharness::experiments::{render, select, FIGURES};

fn main() {
    let cli = Cli::from_env(FIG_FLAGS);
    let (names, scale) = (&cli.positionals, cli.scale);
    let mut plan = select(names, scale).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\nfigures:");
        for fig in FIGURES {
            eprintln!("  {:<22}{}", fig.name, fig.about);
        }
        std::process::exit(2);
    });
    for cell in &mut plan.cells {
        cell.cfg.native = cli.native;
        cell.cfg.max_cycles = cli.max_cycles.or(cell.cfg.max_cycles);
    }
    caharness::sweep::set_jobs(cli.jobs);
    eprintln!("[fig {} at {scale:?} scale]", names.join(" "));
    let (tables, failures) = render(&names.join("+"), &plan);
    for (csv, table) in tables {
        table.emit(&csv);
    }
    caharness::finish(&failures);
}
