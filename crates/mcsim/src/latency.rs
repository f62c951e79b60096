//! Cycle-cost table for the simulated memory hierarchy.
//!
//! The paper evaluates Conditional Access on Graphite with a private 32K L1,
//! a shared inclusive 256K L2 and a directory MSI protocol. We reproduce the
//! *relative* cost structure of that setup: L1 hit ≪ L2 hit ≪ memory;
//! cache-to-cache dirty supply and invalidation round trips cost tens of
//! cycles; fences drain the (implicit) store buffer. Absolute values differ
//! from the authors' testbed, which is acceptable for a shape-level
//! reproduction (see EXPERIMENTS.md).
//!
//! The table is fixed, not a setting: the paper reports one machine with one
//! cost model (§V), so every figure here runs with it. A sensitivity study
//! over these costs would be a figure of its own, not a knob on every run.
//!
//! All costs are in core clock cycles. Reported throughput is
//! operations per million cycles, i.e. Mops/s at a nominal 1 GHz.

#![forbid(unsafe_code)]

/// Load or store that hits the local L1 in a sufficient state.
pub const L1_HIT: u64 = 2;
/// L1 miss that hits the shared L2 (directory lookup included).
pub const L2_HIT: u64 = 18;
/// L2 miss serviced from memory.
pub const MEM: u64 = 120;
/// Extra cost when a remote core must supply/downgrade a Modified line
/// (cache-to-cache transfer plus writeback).
pub const DIRTY_SUPPLY: u64 = 50;
/// S→M upgrade at the directory when no other core holds the line.
pub const UPGRADE: u64 = 8;
/// Invalidation round trip: a writer waits for acknowledgements from the
/// sharers named by the directory (charged once per write that needs it;
/// the directory multicasts, so fan-out is not multiplied).
pub const INVALIDATION: u64 = 40;
/// Memory fence (store-buffer drain). Hazard-based SMR pays this per
/// protected read; epoch schemes only at operation boundaries.
pub const FENCE: u64 = 16;
/// Extra cycles of a compare-and-swap over a plain store.
pub const CAS_EXTRA: u64 = 20;
/// Flag-register check performed by every `cread`/`cwrite` over the
/// equivalent plain access (the paper's "increased instruction count").
pub const CA_CHECK: u64 = 0;
/// Cost of a *failed* conditional access: the access is skipped entirely,
/// so only the flag branch is paid. This locality of failure is the source
/// of CA's advantage under contention (paper §V).
pub const CA_FAIL: u64 = 1;
/// Simulated `malloc` of one node (allocator bookkeeping, thread-local).
pub const MALLOC: u64 = 40;
/// Simulated `free` of one node.
pub const FREE: u64 = 25;
/// Hardware-transaction begin (register checkpoint; comparable to a
/// fence-and-checkpoint on commercial HTMs). Used by the Zhou-et-al.
/// hand-over-hand-transactions comparator (paper §VI), not by CA.
pub const TX_BEGIN: u64 = 30;
/// Hardware-transaction commit (read-set validation + write drain).
pub const TX_COMMIT: u64 = 30;
/// A transaction abort (state discard + flag branch).
pub const TX_ABORT: u64 = 5;

const _: () = {
    assert!(L1_HIT < L2_HIT);
    assert!(L2_HIT < MEM);
    assert!(CA_FAIL <= L1_HIT, "failed creads must be cheap");
    assert!(FENCE > L1_HIT, "fences must dominate L1 hits");
};
