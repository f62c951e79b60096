//! # caharness — workload generation and the paper's experiments
//!
//! Reproduces every figure of the paper's §V evaluation plus the prose
//! claims, at three scales (`--quick`, default, `--paper`). The figures are
//! data — the registry [`experiments::FIGURES`], one entry per figure: what
//! cells to run and how their outcomes fill its tables — and one binary
//! renders any of them
//! (`cargo run -p caharness --release --bin fig -- fig1_lazylist`),
//! printing the series as text tables and writing CSVs under `results/`.
//! The figures of one run add to one [`experiments::Plan`], where a cell
//! that several figures read runs once (under `--native`, it is measured
//! once and every table that reads it shows that value).
//!
//! | binary | does | accepts |
//! |---|---|---|
//! | `fig <figure>... \| all` | renders the named figures (every registry entry for `all`), each once, as one flat sweep over one plan in which equal cells run once; with no name it lists the registry, one line per figure | `--quick`\|`--paper`, `--jobs N`, `--max_cycles N`, `--native` |
//! | `validate` | runs one panel on the simulator and on real host threads and scores the agreement of their scheme orderings against a fixed floor | `--quick`\|`--paper`, `--jobs N`, `--max_cycles N` |
//! | `race_audit` | happens-before race audit over the scheme × structure grid (simulator only), diffed against a whitelist | `--quick`, `--max_cycles N` |
//!
//! Each binary parses its command line once, into a [`config::Cli`] value,
//! and applies it to the configurations it builds; [`RunConfig::default`]
//! reads nothing from the process. Any argument a binary does not honour —
//! a typo, a retired flag, a malformed value, `--quick` with `--paper` —
//! exits 2 with one `error:` line before any cell runs.
//!
//! `--jobs N` (also `-jN`): experiment configurations are independent (one
//! simulated machine each, per-config seeds), so the [`sweep`] engine runs
//! them concurrently on `N` host threads with bit-identical results for
//! every `N` (0/default = one per host CPU).
//!
//! Robustness: `--max_cycles N` arms the per-core wedge watchdog (a
//! run that passes `N` simulated cycles panics instead of spinning forever
//! — turns a CI hang into a red test). Failed tasks render as `ERR` cells
//! and the binary exits nonzero after completing everything else.
//!
//! Crash recovery (PR 10): `fig fig_recovery_adopt` (and
//! `fig fig_robustness_adopt`, the restart-and-adopt twins of the two
//! fault figures) put restart-bearing fault plans in
//! [`RunConfig::fault_plan`] — a crashed core's state is parked in a
//! [`casmr::TlsVault`], its fail-stop certified by a
//! [`casmr::CrashToken`], its orphan adopted on restart (forcible
//! retraction, merge, scan) — and report the adopted backlog and the
//! crash→adoption-complete latency in the [`Metrics`] recovery counters.
//!
//! Native mode (PR 8): `fig --native` reruns the throughput figures on **real
//! host threads** (`casmr::NativeMachine`) instead of the simulator —
//! same structures, same schemes, same workload generator, wall-clock
//! metrics. Conditional Access needs the simulated hardware and renders
//! as `ERR` cells there. The `validate` binary runs both backends and
//! scores how well the simulator's scheme ordering matches the host's.
//!
//! ## The runner
//!
//! Every figure cell ([`experiments::Cell`]) is one call of
//! [`run`]`(structure, scheme, &cfg) -> `[`Outcome`], made by the
//! one executor [`experiments::render`]: one prefill and one operation loop per
//! structure family, shared by Conditional Access and every SMR baseline, on
//! both hosts. [`Structure`] names what is driven ([`Structure::ALL`] ×
//! `SchemeKind::ALL`, filtered by [`Structure::supports`], is the whole
//! grid); [`RunConfig`] says everything else — `native` picks the host, a
//! non-empty `fault_plan` is disarmed for the prefill and survived in the
//! measured phase (restarts bring the victim back to adopt its orphan),
//! `race_check` fills [`Outcome::race`], `history` fills
//! [`Outcome::history`] (one [`Timed`] `cads::Op` per measured operation,
//! from which [`Outcome::latency`] is derived). `run_set` / `run_stack` /
//! `run_queue` / `run_set_native` / `run_set_latency` are one-line
//! delegations kept for the frozen `perfbench/` workspace.
//!
//! A new **figure** is one entry of [`experiments::FIGURES`] (a builder of
//! cells and table layouts; nothing else names it). A new **scheme** needs
//! no edit in this crate: [`run`] builds the scheme object through
//! [`casmr::with_scheme!`], so a scheme is its file in `casmr`, a
//! `SchemeKind` variant and one arm of that macro (see [`casmr::api::Smr`]
//! for what the file supplies and what it inherits). To extend the runner,
//! touch exactly these places in [`runner`]:
//!
//! * **a structure** — a [`Structure`] variant with its `ALL` / `name` /
//!   `supports` entries, and one arm of `with_smr_structure!` and/or of the
//!   CA `match` at the end of [`run`], wrapped in the family newtype
//!   (`SetOps`, `StackOps`, `QueueOps`) whose prefill and step it shares;
//! * **a structure family** — one more `family!` newtype with its
//!   `Workload` impl (the only place a prefill loop or a mix roll lives);
//! * **a per-op measurement** — derive it from [`Outcome::history`], as
//!   [`Outcome::latency`] does; neither `Worker::drive` nor a host shell
//!   (`run_sim`, `run_native`) changes.

pub mod config;
pub mod experiments;
pub mod hist;
pub mod metrics;
pub mod runner;
pub mod sweep;
pub mod table;

pub use config::{Mix, RunConfig};
pub use experiments::Scale;
pub use hist::Histogram;
pub use metrics::Metrics;
pub use runner::{
    run, run_queue, run_set, run_set_latency, run_set_native, run_stack, Outcome, RecoveryClocks,
    SetKind, Structure, Timed,
};
pub use table::SeriesTable;

/// Print the sweep tasks that failed (what [`experiments::render`] returns
/// next to its tables) and exit 1 if there were any, so a sweep that
/// degraded to `ERR` cells still fails CI. `fig` and `validate` call this
/// last.
pub fn finish(failures: &[sweep::TaskFailure]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("[sweep] {} task(s) FAILED:", failures.len());
    for f in failures {
        eprintln!("  [{} #{}] {}", f.label, f.index, f.message);
    }
    std::process::exit(1);
}
