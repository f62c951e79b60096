//! Architectural operations as statically typed events.
//!
//! Every operation a simulated core can issue is a small `Copy` struct
//! implementing [`Event`]; its `exec` body is the **single semantic
//! definition** of that operation. [`crate::machine::Ctx`] runs typed events
//! directly, so a result travels back in registers and the whole hit path
//! inlines into the caller. Nothing queues, replays or reifies an operation;
//! an event that the race analyzer models says so itself ([`Event::trace`]).
//!
//! Where an operation validates its target against the allocator is part of
//! its semantics: plain accesses validate *before* touching the hub;
//! conditional accesses validate only *after* the hardware reports success
//! (a failed cread/cwrite touches no memory).

#![forbid(unsafe_code)]

use crate::addr::{Addr, CoreId};
use crate::hb::Kind;
use crate::latency as lat;
use crate::machine::{Restart, SimState};

/// One statically typed architectural operation.
pub(crate) trait Event: Copy {
    /// What the operation hands back to the program.
    type R: Copy;

    /// What the `hb` trace records for this event once it executed with
    /// result `out` (asked only while the analyzer is armed). Failed
    /// conditional accesses touch no memory and allocation failures return
    /// no line, so they record nothing; tag maintenance, tx ops and
    /// `op_completed` are outside the analyzed model (the CA structures'
    /// `cread`/`cwrite` carry the sync semantics) and keep this default.
    #[inline]
    fn trace(self, _out: &Self::R) -> Option<(Kind, Addr)> {
        None
    }

    /// Execute against the simulator state under the turn; returns the
    /// result and the cycle cost. This body is the operation's one
    /// semantic definition.
    fn exec(self, st: &mut SimState, c: CoreId) -> (Self::R, u64);
}

/// Plain 64-bit load.
#[derive(Copy, Clone)]
pub(crate) struct ReadOp(pub Addr);

impl Event for ReadOp {
    type R = u64;
    #[inline]
    fn trace(self, _out: &u64) -> Option<(Kind, Addr)> {
        Some((Kind::Read, self.0))
    }
    #[inline(always)]
    fn exec(self, st: &mut SimState, c: CoreId) -> (u64, u64) {
        st.alloc.check_access(c, self.0, "read");
        st.hub.read(c, self.0)
    }
}

/// Plain 64-bit store.
#[derive(Copy, Clone)]
pub(crate) struct WriteOp(pub Addr, pub u64);

impl Event for WriteOp {
    type R = ();
    #[inline]
    fn trace(self, _out: &()) -> Option<(Kind, Addr)> {
        Some((Kind::Write, self.0))
    }
    #[inline(always)]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        st.alloc.check_access(c, self.0, "write");
        ((), st.hub.write(c, self.0, self.1))
    }
}

/// Compare-and-swap `(address, expected, new)`.
#[derive(Copy, Clone)]
pub(crate) struct CasOp(pub Addr, pub u64, pub u64);

impl Event for CasOp {
    type R = Result<u64, u64>;
    #[inline]
    fn trace(self, out: &Result<u64, u64>) -> Option<(Kind, Addr)> {
        Some((
            if out.is_ok() {
                Kind::CasOk
            } else {
                Kind::CasFail
            },
            self.0,
        ))
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<u64, u64>, u64) {
        st.alloc.check_access(c, self.0, "cas");
        st.hub.cas(c, self.0, self.1, self.2)
    }
}

/// `cread`: conditional load.
#[derive(Copy, Clone)]
pub(crate) struct CreadOp(pub Addr);

impl Event for CreadOp {
    type R = Result<u64, Restart>;
    #[inline]
    fn trace(self, out: &Result<u64, Restart>) -> Option<(Kind, Addr)> {
        out.is_ok().then_some((Kind::CreadOk, self.0))
    }
    #[inline(always)]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<u64, Restart>, u64) {
        let (v, cost) = st.hub.cread(c, self.0);
        if v.is_some() {
            // The load architecturally happened: validate it.
            st.alloc.check_access(c, self.0, "cread");
        }
        (v.ok_or(Restart), cost)
    }
}

/// `cwrite`: conditional store.
#[derive(Copy, Clone)]
pub(crate) struct CwriteOp(pub Addr, pub u64);

impl Event for CwriteOp {
    type R = Result<(), Restart>;
    #[inline]
    fn trace(self, out: &Result<(), Restart>) -> Option<(Kind, Addr)> {
        out.is_ok().then_some((Kind::CwriteOk, self.0))
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<(), Restart>, u64) {
        // Check whether the store would actually execute before validating
        // the target (a failed cwrite touches no memory).
        let (ok, cost) = st.hub.cwrite(c, self.0, self.1);
        if ok {
            st.alloc.check_access(c, self.0, "cwrite");
        }
        (ok.then_some(()).ok_or(Restart), cost)
    }
}

/// Memory fence.
#[derive(Copy, Clone)]
pub(crate) struct FenceOp;

impl Event for FenceOp {
    type R = ();
    #[inline]
    fn trace(self, _out: &()) -> Option<(Kind, Addr)> {
        Some((Kind::Fence, Addr::NULL))
    }
    #[inline(always)]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.fence(c))
    }
}

/// The SMR protocols' uncosted ordering fence, issued **only** when
/// `MachineConfig::race_check` is armed: it exists purely so the analyzer
/// sees the edge (zero cycles, no stats), and a run with the analyzer off
/// never creates one, keeping schedule and stats byte-identical to
/// pre-analyzer goldens.
#[derive(Copy, Clone)]
pub(crate) struct SmrFenceOp;

impl Event for SmrFenceOp {
    type R = ();
    #[inline]
    fn trace(self, _out: &()) -> Option<(Kind, Addr)> {
        Some((Kind::SmrFence, Addr::NULL))
    }
    #[inline]
    fn exec(self, _st: &mut SimState, _c: CoreId) -> ((), u64) {
        ((), 0)
    }
}

/// `untagOne`.
#[derive(Copy, Clone)]
pub(crate) struct UntagOneOp(pub Addr);

impl Event for UntagOneOp {
    type R = ();
    #[inline(always)]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.untag_one(c, self.0))
    }
}

/// `untagAll`.
#[derive(Copy, Clone)]
pub(crate) struct UntagAllOp;

impl Event for UntagAllOp {
    type R = ();
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.untag_all(c))
    }
}

/// Allocate one node.
#[derive(Copy, Clone)]
pub(crate) struct AllocOp;

impl Event for AllocOp {
    type R = Addr;
    #[inline]
    fn trace(self, out: &Addr) -> Option<(Kind, Addr)> {
        Some((Kind::Alloc, *out))
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Addr, u64) {
        (st.alloc.alloc(c), lat::MALLOC)
    }
}

/// Free one node.
#[derive(Copy, Clone)]
pub(crate) struct FreeOp(pub Addr);

impl Event for FreeOp {
    type R = ();
    #[inline]
    fn trace(self, _out: &()) -> Option<(Kind, Addr)> {
        Some((Kind::Free, self.0))
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        st.alloc.free(c, self.0);
        ((), lat::FREE)
    }
}

/// Begin a hardware transaction.
#[derive(Copy, Clone)]
pub(crate) struct TxBeginOp;

impl Event for TxBeginOp {
    type R = ();
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.tx_begin(c))
    }
}

/// Speculative load (`Err` = the transaction aborted).
#[derive(Copy, Clone)]
pub(crate) struct TxReadOp(pub Addr);

impl Event for TxReadOp {
    type R = Result<u64, Restart>;
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<u64, Restart>, u64) {
        let (v, cost) = st.hub.tx_read(c, self.0);
        if v.is_some() {
            st.alloc.check_access(c, self.0, "tx_read");
        }
        (v.ok_or(Restart), cost)
    }
}

/// Speculative store (`Err` = the transaction aborted).
#[derive(Copy, Clone)]
pub(crate) struct TxWriteOp(pub Addr, pub u64);

impl Event for TxWriteOp {
    type R = Result<(), Restart>;
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<(), Restart>, u64) {
        let (ok, cost) = st.hub.tx_write(c, self.0, self.1);
        (ok.then_some(()).ok_or(Restart), cost)
    }
}

/// Attempt to commit (`Err` = conflict, rolled back).
#[derive(Copy, Clone)]
pub(crate) struct TxCommitOp;

impl Event for TxCommitOp {
    type R = Result<(), Restart>;
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<(), Restart>, u64) {
        let (writes, abort_cost) = st.hub.tx_commit_begin(c);
        match writes {
            None => (Err(Restart), abort_cost),
            Some(w) => {
                for &(a, _) in &w {
                    st.alloc.check_access(c, a, "tx_commit");
                }
                (Ok(()), st.hub.tx_commit_apply(c, &w))
            }
        }
    }
}

/// Explicitly abort the in-flight transaction.
#[derive(Copy, Clone)]
pub(crate) struct TxAbortOp;

impl Event for TxAbortOp {
    type R = ();
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.tx_abort(c))
    }
}

/// Record one completed data-structure operation.
#[derive(Copy, Clone)]
pub(crate) struct OpCompletedOp;

impl Event for OpCompletedOp {
    type R = ();
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        st.hub.stats.core(c).ops += 1;
        st.global_ops += 1;
        if let Some(every) = st.sample_every {
            if st.global_ops >= st.next_sample_at {
                let live = st.alloc.allocated_not_freed;
                let ops = st.global_ops;
                st.samples.push((ops, live));
                st.next_sample_at += every;
            }
        }
        ((), 0)
    }
}
