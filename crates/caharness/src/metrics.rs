//! Per-run measurement record.
//!
//! One home per counter. A simulator counter lives in `mcsim::CoreStats`;
//! a reader sums it from [`crate::Outcome::stats`] (`MachineStats::sum`,
//! `CoreStats::spurious_revokes`, `MachineStats::crashed`). [`Metrics`]
//! holds what `MachineStats` cannot say — the scheme, throughput, the
//! footprint, the scheme-level garbage meter and the recovery counters —
//! plus twelve copies of `MachineStats` sums (`cread_fail` through
//! `untag_alls`) that only the frozen `perfbench/` reads. Those copies go
//! when perfbench moves onto `Outcome` (ROADMAP item 8(c)).

use mcsim::{FootprintSample, MachineStats};

/// Everything measured in one experiment run. A counter a run has no
/// source for stays at its `Default` zero.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Scheme legend name (`none`, `ca`, `ibr`, ...).
    pub scheme: &'static str,
    /// Threads in the measured phase.
    pub threads: usize,
    /// Completed operations.
    pub total_ops: u64,
    /// Simulated finish time (max core clock, cycles).
    pub cycles: u64,
    /// Throughput in operations per million cycles (≙ Mops/s at 1 GHz).
    pub throughput: f64,
    /// Nodes allocated but not freed at the end (live + retired backlog).
    pub final_allocated: u64,
    /// High-water mark of allocated-not-freed.
    pub peak_allocated: u64,
    /// Footprint samples over time (Figure 3 series).
    pub footprint: Vec<FootprintSample>,
    // --- copies of `MachineStats` sums, read only by `perfbench/` -------
    /// Failed creads (conflict + spurious).
    pub cread_fail: u64,
    /// Failed cwrites.
    pub cwrite_fail: u64,
    /// ARB sets from evictions (spurious-failure sources, §III).
    pub spurious_revokes: u64,
    /// Fences executed (the hp/he/ibr per-read cost).
    pub fences: u64,
    /// L1 miss ratio over all accesses (0 when there were none).
    pub l1_miss_ratio: f64,
    /// Simulator host-path: events that kept the turn (executed under the
    /// batched, lock-free-for-the-owner fast path).
    pub batched_events: u64,
    /// Simulator host-path: scheduler turn handoffs (lock release + thread
    /// wake). `batched / (batched + handoffs)` is the batching hit rate.
    pub turn_handoffs: u64,
    /// Cycles charged on L1-hit fast paths.
    pub l1_hit_cycles: u64,
    /// Cycles charged on fills served by the shared L2.
    pub l2_hit_cycles: u64,
    /// Cycles charged on fills that went to memory.
    pub mem_fill_cycles: u64,
    /// Cycles charged for directory invalidation round trips.
    pub invalidation_cycles: u64,
    /// `untagAll` instructions executed.
    pub untag_alls: u64,
    // --- garbage (scheme-level meter; zeros where there is none) --------
    /// Scheme-level peak of retired-but-unfreed bytes (sum of per-thread
    /// peaks — an upper bound; see `casmr::GarbageStats::merge`). 0 when
    /// the runner has no scheme-level meter (e.g. `ca`, which never holds
    /// garbage).
    pub peak_garbage_bytes: u64,
    /// Retired-but-unfreed bytes still held at the end of the run.
    pub final_garbage_bytes: u64,
    // --- crash recovery (restart-bearing runs; zeros elsewhere) ---------
    /// Crashed members whose fail-stop was certified (a restart notice in
    /// the simulator, a heartbeat deadline natively) during the run.
    pub orphans_detected: u64,
    /// Orphaned thread-local SMR states adopted by a survivor or a
    /// restarted core (`casmr::Smr::adopt`).
    pub adoptions: u64,
    /// Retired-but-unfreed bytes the orphans held at adoption time — the
    /// backlog the adopters inherited (and, for the bounded schemes,
    /// immediately scanned).
    pub adopted_bytes: u64,
    /// Worst per-victim recovery latency in simulated cycles: from the
    /// crash clock to the moment its adoption (forcible retraction + merge
    /// + scan) completed. 0 when nothing crashed or nothing recovered.
    pub recovery_cycles: u64,
}

impl Metrics {
    /// Extract metrics from a machine snapshot.
    pub fn from_stats(
        scheme: &'static str,
        threads: usize,
        stats: &MachineStats,
        footprint: Vec<FootprintSample>,
    ) -> Self {
        let accesses = stats.sum(|c| c.accesses);
        let hits = stats.sum(|c| c.l1_hits);
        Self {
            scheme,
            threads,
            total_ops: stats.total_ops,
            cycles: stats.max_cycles,
            throughput: stats.ops_per_mcycle(),
            final_allocated: stats.allocated_not_freed,
            peak_allocated: stats.peak_allocated,
            footprint,
            cread_fail: stats.sum(|c| c.cread_fail),
            cwrite_fail: stats.sum(|c| c.cwrite_fail),
            spurious_revokes: stats.sum(|c| c.spurious_revokes()),
            fences: stats.sum(|c| c.fences),
            l1_miss_ratio: if accesses == 0 {
                0.0
            } else {
                1.0 - hits as f64 / accesses as f64
            },
            batched_events: stats.sum(|c| c.batched_events),
            turn_handoffs: stats.sum(|c| c.turn_handoffs),
            l1_hit_cycles: stats.sum(|c| c.l1_hit_cycles),
            l2_hit_cycles: stats.sum(|c| c.l2_hit_cycles),
            mem_fill_cycles: stats.sum(|c| c.mem_fill_cycles),
            invalidation_cycles: stats.sum(|c| c.invalidation_cycles),
            untag_alls: stats.sum(|c| c.untag_alls),
            ..Default::default()
        }
    }

    /// Extract metrics from a **native** run's counters. The simulated
    /// fields change meaning where the native environment has no
    /// equivalent: `cycles` holds wall-clock **nanoseconds** and
    /// `throughput` ops/µs — dimensionally the same Mops/s the simulated
    /// ops/Mcycle figure means at a 1 GHz clock, so sim and native columns
    /// share axes. The copied `MachineStats` sums are zero, as is every
    /// sum over the native `Outcome::stats`, which has no cores.
    pub fn from_native(scheme: &'static str, threads: usize, stats: &casmr::NativeStats) -> Self {
        Self {
            scheme,
            threads,
            total_ops: stats.total_ops,
            cycles: stats.wall_ns,
            throughput: stats.total_ops as f64 / (stats.wall_ns.max(1) as f64 / 1000.0),
            final_allocated: stats.allocated_not_freed,
            peak_allocated: stats.peak_allocated,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::CoreStats;

    #[test]
    fn from_stats_computes_ratios() {
        let stats = MachineStats {
            cores: vec![CoreStats {
                accesses: 100,
                l1_hits: 90,
                cread_fail: 3,
                fences: 7,
                ..Default::default()
            }],
            allocated_not_freed: 5,
            peak_allocated: 9,
            total_ops: 50,
            max_cycles: 1_000_000,
            ..Default::default()
        };
        let m = Metrics::from_stats("ca", 1, &stats, vec![]);
        assert!((m.throughput - 50.0).abs() < 1e-9);
        assert!((m.l1_miss_ratio - 0.1).abs() < 1e-9);
        assert_eq!(m.cread_fail, 3);
        assert_eq!(m.final_allocated, 5);
        assert_eq!(m.peak_allocated, 9);

        // A run with no memory accesses misses nothing, as `from_native`.
        let idle = Metrics::from_stats("ca", 1, &MachineStats::default(), vec![]);
        assert_eq!(idle.l1_miss_ratio, 0.0);
    }
}
