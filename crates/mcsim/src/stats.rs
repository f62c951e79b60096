//! Per-core and machine-wide statistics counters.
//!
//! Counters are updated under the machine lock (every simulated memory event
//! is serialized), so plain integers suffice — no atomics needed.

#![forbid(unsafe_code)]

use crate::addr::CoreId;

/// Why a core's access-revoked bit (ARB) was set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RevokeCause {
    /// A remote core wrote (invalidated) a line this core had tagged.
    RemoteInvalidation,
    /// A tagged line was evicted from this core's L1 by an associativity
    /// conflict (paper §III: spurious failure source).
    L1Eviction,
    /// The shared inclusive L2 evicted a line, back-invalidating a tagged L1
    /// copy (also a spurious failure source).
    L2BackInvalidation,
    /// The OS preempted the hardware thread; the kernel cannot track
    /// invalidations on behalf of a switched-out thread, so the ARB is set
    /// on every context switch (paper §III multiuser discussion).
    ContextSwitch,
    /// A sibling hyperthread on the same physical core stored to a line this
    /// hardware thread had tagged. No coherence message is involved — the
    /// line never leaves the shared L1 — but the paper's SMT rule (§III)
    /// requires the ARB to be set, since the tagged value changed.
    SiblingWrite,
}

/// Counters kept for each simulated core.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Loads + stores + CAS + conditional accesses issued.
    pub accesses: u64,
    /// Accesses served by the local L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 and hit L2.
    pub l2_hits: u64,
    /// Accesses that went to memory.
    pub mem_accesses: u64,
    /// Invalidation messages this core received (its L1 copy was killed).
    pub invalidations_received: u64,
    /// Writes by this core that triggered invalidation of at least one sharer.
    pub invalidations_sent: u64,
    /// Fences executed.
    pub fences: u64,
    /// CAS instructions executed (success or failure).
    pub cas_ops: u64,
    /// CAS instructions that failed the value comparison.
    pub cas_failures: u64,
    /// Successful `cread`s.
    pub cread_ok: u64,
    /// Failed `cread`s (ARB was set, or set by the fill itself).
    pub cread_fail: u64,
    /// Successful `cwrite`s.
    pub cwrite_ok: u64,
    /// Failed `cwrite`s (ARB set or target line untagged).
    pub cwrite_fail: u64,
    /// ARB sets due to remote invalidations of tagged lines.
    pub revoke_remote: u64,
    /// ARB sets due to local L1 evictions of tagged lines (spurious).
    pub revoke_l1_evict: u64,
    /// ARB sets due to L2 back-invalidation of tagged lines (spurious).
    pub revoke_l2_evict: u64,
    /// ARB sets due to context switches (spurious; paper §III).
    pub revoke_ctx_switch: u64,
    /// ARB sets due to a sibling hyperthread's store to a tagged line (a
    /// *real* conflict under the paper's SMT rule, delivered without any
    /// coherence traffic).
    pub revoke_sibling: u64,
    /// Context switches taken by this core.
    pub ctx_switches: u64,
    /// MESI only: read misses granted Exclusive (no other holder existed).
    pub e_grants: u64,
    /// MESI only: silent E→M promotions (writes that skipped the directory).
    pub silent_upgrades: u64,
    /// Hardware transactions begun (HTM comparator).
    pub tx_begins: u64,
    /// Hardware transactions committed.
    pub tx_commits: u64,
    /// Hardware transactions aborted (conflict, eviction, or explicit).
    pub tx_aborts: u64,
    /// Nodes allocated by this core.
    pub allocs: u64,
    /// Nodes freed by this core.
    pub frees: u64,
    /// Data-structure operations completed (reported by the workload).
    pub ops: u64,
    /// Cycles spent by this core (mirror of its local clock at snapshot time).
    pub cycles: u64,
    /// Events after which this core kept the turn (executed under the
    /// still-held machine lock — the batched fast path).
    pub batched_events: u64,
    /// Events after which the turn moved to another core (lock release +
    /// wake-up — the expensive path the quantum amortizes).
    pub turn_handoffs: u64,
    // --- Event-cost micro-profile --------------------------------------
    // Cycle attribution per coherence hot path, alongside the event counts
    // above. A scripted-workload test pins these exactly (see
    // `coherence::tests::event_cost_micro_profile_pinned`), so a
    // regression in a hot path's cost model fails CI rather than showing
    // up as end-to-end wall-clock drift.
    /// Cycles charged on L1-hit fast paths (including MESI silent E→M).
    pub l1_hit_cycles: u64,
    /// Cycles charged on fills served by the shared L2.
    pub l2_hit_cycles: u64,
    /// Cycles charged on fills that went to memory (includes the L2 probe
    /// on the way; excludes separately-attributed invalidation and
    /// dirty-supply extras).
    pub mem_fill_cycles: u64,
    /// Cycles charged for directory invalidation round trips initiated by
    /// this core's writes.
    pub invalidation_cycles: u64,
    /// `untagAll` instructions executed (each costs 1 cycle).
    pub untag_alls: u64,
    /// `untagOne` instructions executed (each costs 1 cycle).
    pub untag_ones: u64,
    /// Injected stall faults fired on this core (`mcsim::fault`). Each is
    /// a burst deschedule with the usual context-switch side effects; the
    /// burst is *additionally* counted in `ctx_switches`.
    pub fault_stalls: u64,
}

impl CoreStats {
    pub(crate) fn record_revoke(&mut self, cause: RevokeCause) {
        match cause {
            RevokeCause::RemoteInvalidation => self.revoke_remote += 1,
            RevokeCause::L1Eviction => self.revoke_l1_evict += 1,
            RevokeCause::L2BackInvalidation => self.revoke_l2_evict += 1,
            RevokeCause::ContextSwitch => self.revoke_ctx_switch += 1,
            RevokeCause::SiblingWrite => self.revoke_sibling += 1,
        }
    }

    /// ARB sets that were *not* caused by a real conflict (paper §III calls
    /// the resulting failures "spurious").
    pub fn spurious_revokes(&self) -> u64 {
        self.revoke_l1_evict + self.revoke_l2_evict + self.revoke_ctx_switch
    }
}

/// A machine-wide snapshot: one entry per core plus aggregates.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Nodes currently allocated and not yet freed (live + retired backlog).
    /// This is the Y axis of the paper's Figure 3.
    pub allocated_not_freed: u64,
    /// High-water mark of `allocated_not_freed`.
    pub peak_allocated: u64,
    /// Total data-structure operations completed.
    pub total_ops: u64,
    /// Max per-core cycle count (the machine's finish time).
    pub max_cycles: u64,
    /// Per-core crash flags (`mcsim::fault`): true where an injected
    /// `CrashFault` fired during the run. Empty-plan runs are all-false.
    pub crashed: Vec<bool>,
}

impl MachineStats {
    /// Sum a per-core counter across cores.
    pub fn sum(&self, f: impl Fn(&CoreStats) -> u64) -> u64 {
        self.cores.iter().map(f).sum()
    }

    /// Throughput in operations per million cycles (≙ Mops/s at 1 GHz).
    pub fn ops_per_mcycle(&self) -> f64 {
        if self.max_cycles == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e6 / self.max_cycles as f64
    }
}

/// Accumulates per-core stats inside the machine.
#[derive(Debug)]
pub(crate) struct StatsBank {
    pub cores: Vec<CoreStats>,
}

impl StatsBank {
    pub fn new(n: usize) -> Self {
        Self {
            cores: vec![CoreStats::default(); n],
        }
    }

    #[inline]
    pub fn core(&mut self, id: CoreId) -> &mut CoreStats {
        &mut self.cores[id]
    }

    pub fn reset(&mut self) {
        for c in &mut self.cores {
            *c = CoreStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revoke_causes_bucketed() {
        let mut s = CoreStats::default();
        s.record_revoke(RevokeCause::RemoteInvalidation);
        s.record_revoke(RevokeCause::L1Eviction);
        s.record_revoke(RevokeCause::L2BackInvalidation);
        s.record_revoke(RevokeCause::L1Eviction);
        assert_eq!(s.revoke_remote, 1);
        assert_eq!(s.revoke_l1_evict, 2);
        assert_eq!(s.revoke_l2_evict, 1);
        assert_eq!(s.spurious_revokes(), 3);
    }

    #[test]
    fn machine_stats_aggregation() {
        let m = MachineStats {
            cores: vec![
                CoreStats {
                    l1_hits: 10,
                    ..Default::default()
                },
                CoreStats {
                    l1_hits: 5,
                    ..Default::default()
                },
            ],
            total_ops: 30,
            max_cycles: 1_000_000,
            ..Default::default()
        };
        assert_eq!(m.sum(|c| c.l1_hits), 15);
        assert!((m.ops_per_mcycle() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_throughput_is_zero() {
        let m = MachineStats::default();
        assert_eq!(m.ops_per_mcycle(), 0.0);
    }
}
