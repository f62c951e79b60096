//! # perfbench — the repository's benchmark
//!
//! One binary (`bench`) that measures the Conditional Access reproduction
//! end to end and layer by layer, **from outside**: it only times calls
//! into the public functions of `mcsim`, `casmr` and `caharness` (which
//! drive `cads` and `cacore`). See `README.md` in this directory for the
//! workloads, the metrics and the layer → end-to-end prediction table, and
//! `BENCHMARK.json` at the repository root for the contract.

pub mod compare;
pub mod json;
pub mod micro;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Correctness checks made during a run: how many, and which failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}
