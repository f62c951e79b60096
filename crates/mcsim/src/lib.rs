//! # mcsim — a deterministic multicore simulator
//!
//! This crate is the *substrate* of the Conditional Access reproduction: it
//! stands in for the Graphite simulator the paper prototypes on (§V). It
//! models:
//!
//! * **Functional memory** ([`mem`]): a flat word store that is always the
//!   authoritative data; caches are timing/state models.
//! * **A cache hierarchy** ([`cache`], [`coherence`]): private set-associative
//!   L1s and a shared inclusive L2 whose per-line payload is a full-map
//!   directory entry, running an MSI protocol. The paper's configuration —
//!   32 KiB 8-way L1s, 256 KiB shared L2, 64-byte lines — is the default.
//! * **The Conditional Access hardware hooks** (paper §III): one tag bit per
//!   L1 line and one access-revoked bit (ARB) per core. Remote invalidations,
//!   L1 conflict evictions and inclusive-L2 back-invalidations of tagged
//!   lines set the ARB. The ISA-level semantics (`cread`, `cwrite`,
//!   `untagOne`, `untagAll`) are exposed on [`machine::Ctx`] and re-exported
//!   with documentation and a verification oracle by the `cacore` crate.
//! * **A deterministic scheduler** ([`sched`]): all memory events are
//!   serialized in min-clock order with a configurable lookahead quantum,
//!   making every run a pure function of (program, seeds, quantum). The
//!   keep-turn decision is one comparison and a turn move O(log cores) (a
//!   winner tree over packed `(clock, core)` keys), and the turn owner
//!   executes runs of events without touching a lock ([`machine`] batching).
//! * **Two host execution backends** ([`machine::ExecBackend`]): stackful
//!   coroutines on one OS thread ([`coop`], x86-64 Linux; turn handoffs are
//!   ~10 ns user-space stack switches) or one OS thread per simulated core
//!   (portable fallback). Simulated results are bit-identical across
//!   backends.
//! * **A simulated allocator** ([`alloc`]): line-granular nodes with
//!   immediate LIFO address reuse (needed for the paper's ABA discussion)
//!   and a use-after-free detector that machine-checks the paper's safety
//!   theorems across the test suite.
//! * **Deterministic fault injection** ([`fault`]): seeded plans that
//!   stall, burst-deschedule or crash chosen cores mid-operation, firing
//!   at identical simulated clocks on every backend — the substrate of the robustness experiments (one
//!   stalled thread pins epoch-based reclamation; CA stays bounded).
//!
//! ## Quick start
//!
//! ```
//! use mcsim::{Machine, MachineConfig};
//!
//! let m = Machine::new(MachineConfig { cores: 2, ..Default::default() });
//! let counter = m.alloc_static(1);
//! m.run_on(2, |_, ctx| {
//!     for _ in 0..10 {
//!         loop {
//!             let v = ctx.read(counter);
//!             if ctx.cas(counter, v, v + 1).is_ok() { break; }
//!         }
//!     }
//! });
//! assert_eq!(m.host_read(counter), 20);
//! ```

pub mod addr;
pub mod alloc;
pub mod cache;
pub mod coherence;
#[cfg(mcsim_coop)]
pub mod coop;
pub(crate) mod event;
pub mod fault;
pub mod hb;
pub mod latency;
pub mod machine;
pub mod mem;
pub mod rng;
pub mod sched;
pub mod stats;

pub use addr::{Addr, CoreId, Line, LINE_BYTES, WORDS_PER_LINE};
pub use alloc::{Fault, LineStatus, UafMode};
pub use cache::MsiState;
pub use coherence::CacheConfig;
pub use fault::{
    CoreOutcome, CoreRestart, CrashFault, FaultPlan, RestartFault, StallFault, WedgeProbe,
};
pub use hb::{Finding, RaceReport};
pub use machine::{Ctx, ExecBackend, FootprintSample, Machine, MachineConfig, Restart};
pub use rng::{Rng, SplitMix64};
pub use stats::{CoreStats, MachineStats, RevokeCause};
