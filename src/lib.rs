//! # conditional-access — facade crate
//!
//! Reproduction of *"Efficient Hardware Primitives for Immediate Memory
//! Reclamation in Optimistic Data Structures"* (Singh, Brown, Spear —
//! IPDPS 2023, arXiv:2302.12958).
//!
//! This crate re-exports the whole workspace under one roof; see the README
//! for the architecture tour and the quick start below for a runnable entry
//! point.
//!
//! * [`sim`] — the multicore simulator substrate (stands in for Graphite):
//!   MSI/MESI directory coherence, optional SMT packing with
//!   per-hyperthread tag bits, a lazy-versioning HTM engine, and the
//!   use-after-free detector.
//! * [`ca`] — the Conditional Access primitives, the abstract tag-set
//!   oracle, the Algorithm-2 try-lock, the §IV fallback lock, and the
//!   transactional retry scaffolding for the §VI comparator.
//! * [`smr`] — the six baseline reclamation schemes.
//! * [`ds`] — the benchmarked data structures (CA + SMR variants, the
//!   lock-free CA Harris list, the fallback-wrapped list, and the
//!   hand-over-hand transactional list).
//! * [`harness`] — workload generation, the paper's experiments, and the
//!   tail-latency histogram.
//!
//! ## Quick start
//!
//! A Conditional-Access stack (the paper's Algorithm 1) on a 4-core
//! simulated machine. Every pop frees its node before returning, so the
//! footprint never exceeds one node per thread and nothing is left
//! allocated at the end, with no reclamation bookkeeping at all.
//!
//! ```
//! use conditional_access::ds::ca::CaStack;
//! use conditional_access::ds::StackDs;
//! use conditional_access::sim::{Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig { cores: 4, ..Default::default() });
//! let stack = CaStack::new(&machine);
//! let popped = machine.run_on(4, |tid, ctx| {
//!     let mut tls = ();
//!     let mut popped = 0;
//!     for i in 0..1000u64 {
//!         stack.push(ctx, &mut tls, (tid as u64) << 32 | i);
//!         popped += stack.pop(ctx, &mut tls).is_some() as u64;
//!     }
//!     popped
//! });
//! // Each thread pops after its own push, so no pop finds the stack empty.
//! assert_eq!(popped.iter().sum::<u64>(), 4000);
//! let stats = machine.stats();
//! assert!(stats.peak_allocated <= 4);
//! assert_eq!(stats.allocated_not_freed, 0);
//! ```

pub use cacore as ca;
pub use cads as ds;
pub use caharness as harness;
pub use casmr as smr;
pub use mcsim as sim;
