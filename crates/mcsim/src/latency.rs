//! Cycle-cost model for the simulated memory hierarchy.
//!
//! The paper evaluates Conditional Access on Graphite with a private 32K L1,
//! a shared inclusive 256K L2 and a directory MSI protocol. We reproduce the
//! *relative* cost structure of that setup: L1 hit ≪ L2 hit ≪ memory;
//! cache-to-cache dirty supply and invalidation round trips cost tens of
//! cycles; fences drain the (implicit) store buffer. Absolute values differ
//! from the authors' testbed, which is acceptable for a shape-level
//! reproduction (see EXPERIMENTS.md).
//!
//! All costs are in core clock cycles. Reported throughput is
//! operations per million cycles, i.e. Mops/s at a nominal 1 GHz.

#![forbid(unsafe_code)]

/// Latency (in cycles) of every event class the simulator charges for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Load or store that hits the local L1 in a sufficient state.
    pub l1_hit: u64,
    /// L1 miss that hits the shared L2 (directory lookup included).
    pub l2_hit: u64,
    /// L2 miss serviced from memory.
    pub mem: u64,
    /// Extra cost when a remote core must supply/downgrade a Modified line
    /// (cache-to-cache transfer plus writeback).
    pub dirty_supply: u64,
    /// S→M upgrade at the directory when no other core holds the line.
    pub upgrade: u64,
    /// Invalidation round trip: a writer waits for acknowledgements from the
    /// sharers named by the directory (charged once per write that needs it;
    /// the directory multicasts, so fan-out is not multiplied).
    pub invalidation: u64,
    /// Memory fence (store-buffer drain). Hazard-based SMR pays this per
    /// protected read; epoch schemes only at operation boundaries.
    pub fence: u64,
    /// Extra cycles of a compare-and-swap over a plain store.
    pub cas_extra: u64,
    /// Flag-register check performed by every `cread`/`cwrite` over the
    /// equivalent plain access (the paper's "increased instruction count").
    pub ca_check: u64,
    /// Cost of a *failed* conditional access: the access is skipped entirely,
    /// so only the flag branch is paid. This locality of failure is the source
    /// of CA's advantage under contention (paper §V).
    pub ca_fail: u64,
    /// Simulated `malloc` of one node (allocator bookkeeping, thread-local).
    pub malloc: u64,
    /// Simulated `free` of one node.
    pub free: u64,
    /// Hardware-transaction begin (register checkpoint; comparable to a
    /// fence-and-checkpoint on commercial HTMs). Used by the Zhou-et-al.
    /// hand-over-hand-transactions comparator (paper §VI), not by CA.
    pub tx_begin: u64,
    /// Hardware-transaction commit (read-set validation + write drain).
    pub tx_commit: u64,
    /// A transaction abort (state discard + flag branch).
    pub tx_abort: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            l1_hit: 2,
            l2_hit: 18,
            mem: 120,
            dirty_supply: 50,
            upgrade: 8,
            invalidation: 40,
            fence: 16,
            cas_extra: 20,
            ca_check: 0,
            ca_fail: 1,
            malloc: 40,
            free: 25,
            tx_begin: 30,
            tx_commit: 30,
            tx_abort: 5,
        }
    }
}

impl LatencyModel {
    /// A uniform-cost model (everything costs 1 cycle). Useful in unit tests
    /// where only event *ordering*, not timing, matters.
    pub fn uniform() -> Self {
        Self {
            l1_hit: 1,
            l2_hit: 1,
            mem: 1,
            dirty_supply: 1,
            upgrade: 1,
            invalidation: 1,
            fence: 1,
            cas_extra: 1,
            ca_check: 1,
            ca_fail: 1,
            malloc: 1,
            free: 1,
            tx_begin: 1,
            tx_commit: 1,
            tx_abort: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ordering_is_sane() {
        let m = LatencyModel::default();
        assert!(m.l1_hit < m.l2_hit);
        assert!(m.l2_hit < m.mem);
        assert!(m.ca_fail <= m.l1_hit, "failed creads must be cheap");
        assert!(m.fence > m.l1_hit, "fences must dominate L1 hits");
    }

    #[test]
    fn uniform_is_all_ones() {
        let m = LatencyModel::uniform();
        assert_eq!(m.l1_hit, 1);
        assert_eq!(m.mem, 1);
        assert_eq!(m.fence, 1);
    }
}
