//! # caharness — workload generation and the paper's experiments
//!
//! Reproduces every figure of the paper's §V evaluation plus the prose
//! claims, at three scales (`--quick`, default, `--paper`). Each figure has
//! a binary (`cargo run -p caharness --release --bin fig1_lazylist`) that
//! prints the series as text tables and writes CSVs under `results/`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_lazylist` | Fig. 1 top (lazy list, 3 workload panels) |
//! | `fig1_extbst` | Fig. 1 bottom (external BST) |
//! | `fig2_hashtable` | Fig. 2 top (128-bucket hash table) |
//! | `fig2_stack` | Fig. 2 bottom (Treiber stack) |
//! | `fig3_memory` | Fig. 3 (unreclaimed nodes over time) |
//! | `ablation_assoc` | §III associativity-insensitivity claim |
//! | `ablation_freq` | §I batch-size/epoch-frequency tradeoff |
//! | `ablation_quantum` | simulator lax-sync fidelity check |
//! | `ablation_ctxswitch` | §III multiuser claim: preemption sets the ARB |
//! | `ablation_latency` | §I claim: batch reclamation inflates tail latency |
//! | `ablation_smt` | §III SMT rules: 2-way hyperthreading vs dedicated cores |
//! | `ablation_protocol` | §IV claim: CA works identically on MSI and MESI |
//! | `ablation_fallback` | §IV fallback path: progress on hostile geometries |
//! | `queue_bench` | §IV-A MS queue (implemented, not plotted, in paper) |
//! | `harris_bench` | extension: lock-free CA Harris list (paper future work) |
//! | `lfbst_bench` | extension: lock-free CA external BST (paper future work) |
//! | `htm_bench` | §VI comparator: hand-over-hand transactions (Zhou et al.) |
//! | `fig_robustness` | extension: throughput + garbage bounds under fail-stopped cores |
//! | `fig_recovery` | extension: garbage over time through crash → adoption → reclaim, plus recovery latency |
//! | `all_figures` | everything above, sequentially |
//!
//! Every binary accepts `--jobs N`: experiment configurations are
//! independent (one simulated machine each, per-config seeds), so the
//! [`sweep`] engine runs them concurrently on `N` host threads with
//! bit-identical results for every `N` (0/default = one per host CPU).
//!
//! Robustness flags (PR 6): `--max_cycles N` arms the per-core wedge
//! watchdog (a run that passes `N` simulated cycles panics instead of
//! spinning forever — turns a CI hang into a red test), and `--fail-fast`
//! restores the old sweep behavior of aborting the whole binary on the
//! first failed task. Without it, failed tasks render as `ERR` cells and
//! the binary exits nonzero after completing everything else.
//!
//! Crash recovery (PR 10): `fig_recovery` (and the `--recover` flag of
//! `fig_robustness`) put restart-bearing fault plans in
//! [`RunConfig::fault_plan`] — a crashed core's state is parked in a
//! [`casmr::TlsVault`], its fail-stop certified by a
//! [`casmr::CrashToken`], its orphan adopted on restart (forcible
//! retraction, merge, scan) — and report the adopted backlog and the
//! crash→adoption-complete latency in the [`Metrics`] recovery counters.
//!
//! Native mode (PR 8): `--native` reruns the throughput figures on **real
//! host threads** (`casmr::NativeMachine`) instead of the simulator —
//! same structures, same schemes, same workload generator, wall-clock
//! metrics. Conditional Access needs the simulated hardware and renders
//! as `ERR` cells there. The `validate` binary runs both backends and
//! scores how well the simulator's scheme ordering matches the host's.
//!
//! ## The runner
//!
//! Every figure cell is one call of [`run`]`(structure, scheme, &cfg,
//! instrument) -> `[`Outcome`]: one prefill and one operation loop per
//! structure family, shared by Conditional Access and every SMR baseline, on
//! both hosts. [`Structure`] names what is driven ([`Structure::ALL`] ×
//! `SchemeKind::ALL`, filtered by [`Structure::supports`], is the whole
//! grid); [`RunConfig`] says everything else — `native` picks the host, a
//! non-empty `fault_plan` is disarmed for the prefill and survived in the
//! measured phase (restarts bring the victim back to adopt its orphan),
//! `race_check` fills [`Outcome::race`]; [`Instrument::Latency`] fills
//! [`Outcome::latency`]. `run_set` / `run_stack` / `run_queue` /
//! `run_set_native` / `run_set_latency` are one-line delegations kept for the
//! frozen `perfbench/` workspace.
//!
//! To extend it, touch exactly these places in [`runner`]:
//!
//! * **a scheme** — one arm of `with_scheme!` (plus the `SchemeKind` variant
//!   in `casmr`);
//! * **a structure** — a [`Structure`] variant with its `ALL` / `name` /
//!   `supports` entries, and one arm of `with_smr_structure!` and/or of the
//!   CA `match` at the end of [`run`], wrapped in the family newtype
//!   (`SetOps`, `StackOps`, `QueueOps`) whose prefill and step it shares;
//! * **a structure family** — one more `family!` newtype with its
//!   `Workload` impl (the only place a prefill loop or a mix roll lives);
//! * **an instrument** — an [`Instrument`] variant, its probe in
//!   `Worker::drive`, its field in [`Outcome`] merged in `Outcome::fold`.
//!   Neither host shell (`run_sim`, `run_native`) changes.

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
    run, run_queue, run_set, run_set_latency, run_set_native, run_stack, Instrument, Outcome,
    RecoveryClocks, SetKind, Structure,
};
pub use table::SeriesTable;

/// Parse the shared harness CLI flags ([`config::SHARED_FLAGS`]) and
/// install them as process defaults. Every figure binary calls this first,
/// passing the flags only it takes (spelled like `SHARED_FLAGS`). Anything
/// else on the command line exits 2: a typo or a retired flag must not
/// quietly produce a different table.
pub fn init_from_args(extra: &[&str]) {
    if let Err(msg) = config::reject_unknown_flags(std::env::args(), extra) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    sweep::set_jobs_from_args();
    sweep::set_fail_fast_from_args();
    config::set_max_cycles_from_args();
    config::set_native_from_args();
    config::set_race_check_from_args();
}

/// Report sweep tasks that failed (collecting mode) and exit nonzero if
/// there were any. Every figure binary calls this last; with `--fail-fast`
/// the process never gets here on failure (the panic aborts it instead).
pub fn finish() {
    if sweep::report_failures() != 0 {
        std::process::exit(1);
    }
}
