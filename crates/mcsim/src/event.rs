//! Architectural operations as events: the statically typed form the
//! single-gang pipeline executes, and the reified [`Op`]/[`Out`] form the
//! gang runtime queues and the race analyzer records.
//!
//! Every operation a simulated core can issue is a small `Copy` struct
//! implementing [`Event`]; its `exec` body is the **single semantic
//! definition** of that operation. [`crate::machine::Ctx`] runs typed events
//! directly, so a result travels back in registers and the whole hit path
//! inlines into the caller. The reified form exists for the paths that must
//! *store* an operation — the gang conductor's deferred-event queue, the
//! merge lanes and the `hb` trace — and [`exec_op`]/[`exec_bank_op`] replay
//! it by delegating, arm by arm, to the same typed bodies.

use crate::addr::{Addr, CoreId};
use crate::coherence::BankParts;
use crate::machine::SimState;

/// One architectural operation in reified form: what the gang runtime ships
/// to its epoch-barrier conductor and what the race analyzer records.
/// `#[doc(hidden)] pub` (with [`Out`]) only so the differential battery in
/// `tests/typed_vs_reified.rs` can drive [`exec_op`] through
/// `Ctx::issue_reified`; not simulator API.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // OpCompleted mirrors Ctx::op_completed
pub enum Op {
    Read(Addr),
    Write(Addr, u64),
    Cas(Addr, u64, u64),
    Fence,
    /// The SMR protocols' uncosted ordering fence, issued **only** when
    /// `MachineConfig::race_check` is armed (it exists purely so the
    /// analyzer sees the edge; zero cycles, no stats — a run with the
    /// analyzer off never creates one, keeping the schedule and the stats
    /// byte-identical to pre-analyzer goldens).
    SmrFence,
    Cread(Addr),
    Cwrite(Addr, u64),
    UntagOne(Addr),
    UntagAll,
    Alloc,
    Free(Addr),
    TxBegin,
    TxRead(Addr),
    TxWrite(Addr, u64),
    TxCommit,
    TxAbort,
    OpCompleted,
}

/// Result of an [`Op`].
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Out {
    Unit,
    Val(u64),
    A(Addr),
    Opt(Option<u64>),
    CasR(Result<u64, u64>),
    Flag(bool),
}

/// A typed event result and its reified [`Out`] form. `from_out` panics
/// only on a simulator bug (an op returning the wrong variant).
pub(crate) trait OutVal: Copy {
    fn to_out(self) -> Out;
    fn from_out(out: Out) -> Self;
}

impl OutVal for () {
    #[inline]
    fn to_out(self) -> Out {
        Out::Unit
    }
    #[inline]
    fn from_out(out: Out) {
        match out {
            Out::Unit => (),
            other => unreachable!("expected Unit, got {other:?}"),
        }
    }
}

macro_rules! out_val {
    ($($t:ty => $variant:ident),* $(,)?) => {$(
        impl OutVal for $t {
            #[inline]
            fn to_out(self) -> Out {
                Out::$variant(self)
            }
            #[inline]
            fn from_out(out: Out) -> Self {
                match out {
                    Out::$variant(v) => v,
                    other => unreachable!(
                        concat!("expected ", stringify!($variant), ", got {:?}"),
                        other
                    ),
                }
            }
        }
    )*};
}

out_val! {
    u64 => Val,
    Addr => A,
    Option<u64> => Opt,
    Result<u64, u64> => CasR,
    bool => Flag,
}

/// An [`Out`] is its own reified form, so a whole [`Op`] can run through the
/// typed pipeline (see the `Event` impl for `Op` below).
impl OutVal for Out {
    #[inline]
    fn to_out(self) -> Out {
        self
    }
    #[inline]
    fn from_out(out: Out) -> Out {
        out
    }
}

/// One statically typed architectural operation.
pub(crate) trait Event: Copy {
    /// What the operation hands back to the program.
    type R: OutVal;

    /// The reified form (built only where an operation must be stored: the
    /// gang backends' queues and the `hb` trace).
    fn op(self) -> Op;

    /// Execute against the simulator state under the turn; returns the
    /// result and the cycle cost. This body is the operation's one
    /// semantic definition.
    fn exec(self, st: &mut SimState, c: CoreId) -> (Self::R, u64);
}

/// The *bank-classifiable* events (`Read`/`Write`/`Cas`/`Cread`/`Cwrite` —
/// exactly the set the gang classifier may route to a merge lane): their
/// body runs through a [`BankParts`] projection, and [`Event::exec`] is that
/// body over a transient whole-hub projection.
pub(crate) trait BankEvent: Event {
    /// `check` is the allocator validity check, abstracted because the
    /// serial path mutates the allocator (Record mode pushes faults) while
    /// a merge lane reads a frozen allocator and panics on a fault (the
    /// classifier only builds lanes under `UafMode::Panic`). The check
    /// interleaving is part of the semantics: plain accesses validate
    /// *before* touching the hub; conditional accesses validate only
    /// *after* the hardware reports success (a failed cread/cwrite touches
    /// no memory).
    ///
    /// # Safety
    /// `parts` must satisfy the [`BankParts`] footprint-exclusivity
    /// contract for the op's line and its set-holder pcores.
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (Self::R, u64);
}

/// [`Event::exec`] of every [`BankEvent`]: the `BankParts` body over a
/// transient projection of the whole hub, validated against the live
/// allocator.
#[inline]
fn exec_on_hub<T: BankEvent>(ev: T, st: &mut SimState, c: CoreId) -> (T::R, u64) {
    let SimState { hub, alloc, .. } = st;
    let mut parts = hub.parts();
    // SAFETY: `st` is exclusively borrowed, so the transient projection
    // owns every part for the duration of the call.
    unsafe {
        ev.exec_bank(
            &mut parts,
            &mut |c, a, kind| {
                alloc.check_access(c, a, kind);
            },
            c,
        )
    }
}

/// Plain 64-bit load.
#[derive(Copy, Clone)]
pub(crate) struct ReadOp(pub Addr);

impl Event for ReadOp {
    type R = u64;
    #[inline]
    fn op(self) -> Op {
        Op::Read(self.0)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (u64, u64) {
        exec_on_hub(self, st, c)
    }
}

impl BankEvent for ReadOp {
    // SAFETY contract: the trait's (see `BankEvent::exec_bank`).
    #[inline]
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (u64, u64) {
        check(c, self.0, "read");
        // SAFETY: forwards this fn's footprint contract on `parts`.
        unsafe { parts.read(c, self.0) }
    }
}

/// Plain 64-bit store.
#[derive(Copy, Clone)]
pub(crate) struct WriteOp(pub Addr, pub u64);

impl Event for WriteOp {
    type R = ();
    #[inline]
    fn op(self) -> Op {
        Op::Write(self.0, self.1)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        exec_on_hub(self, st, c)
    }
}

impl BankEvent for WriteOp {
    // SAFETY contract: the trait's (see `BankEvent::exec_bank`).
    #[inline]
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> ((), u64) {
        check(c, self.0, "write");
        // SAFETY: forwards this fn's footprint contract on `parts`.
        ((), unsafe { parts.write(c, self.0, self.1) })
    }
}

/// Compare-and-swap `(address, expected, new)`.
#[derive(Copy, Clone)]
pub(crate) struct CasOp(pub Addr, pub u64, pub u64);

impl Event for CasOp {
    type R = Result<u64, u64>;
    #[inline]
    fn op(self) -> Op {
        Op::Cas(self.0, self.1, self.2)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Result<u64, u64>, u64) {
        exec_on_hub(self, st, c)
    }
}

impl BankEvent for CasOp {
    // SAFETY contract: the trait's (see `BankEvent::exec_bank`).
    #[inline]
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (Result<u64, u64>, u64) {
        check(c, self.0, "cas");
        // SAFETY: forwards this fn's footprint contract on `parts`.
        unsafe { parts.cas(c, self.0, self.1, self.2) }
    }
}

/// `cread`: conditional load.
#[derive(Copy, Clone)]
pub(crate) struct CreadOp(pub Addr);

impl Event for CreadOp {
    type R = Option<u64>;
    #[inline]
    fn op(self) -> Op {
        Op::Cread(self.0)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Option<u64>, u64) {
        exec_on_hub(self, st, c)
    }
}

impl BankEvent for CreadOp {
    // SAFETY contract: the trait's (see `BankEvent::exec_bank`).
    #[inline]
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (Option<u64>, u64) {
        // SAFETY: forwards this fn's footprint contract on `parts`.
        let (v, cost) = unsafe { parts.cread(c, self.0) };
        if v.is_some() {
            // The load architecturally happened: validate it.
            check(c, self.0, "cread");
        }
        (v, cost)
    }
}

/// `cwrite`: conditional store.
#[derive(Copy, Clone)]
pub(crate) struct CwriteOp(pub Addr, pub u64);

impl Event for CwriteOp {
    type R = bool;
    #[inline]
    fn op(self) -> Op {
        Op::Cwrite(self.0, self.1)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (bool, u64) {
        exec_on_hub(self, st, c)
    }
}

impl BankEvent for CwriteOp {
    // SAFETY contract: the trait's (see `BankEvent::exec_bank`).
    #[inline]
    unsafe fn exec_bank(
        self,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (bool, u64) {
        // Check whether the store would actually execute before validating
        // the target (a failed cwrite touches no memory).
        // SAFETY: forwards this fn's footprint contract on `parts`.
        let (ok, cost) = unsafe { parts.cwrite(c, self.0, self.1) };
        if ok {
            check(c, self.0, "cwrite");
        }
        (ok, cost)
    }
}

/// Memory fence.
#[derive(Copy, Clone)]
pub(crate) struct FenceOp;

impl Event for FenceOp {
    type R = ();
    #[inline]
    fn op(self) -> Op {
        Op::Fence
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.fence(c))
    }
}

/// The trace-only SMR ordering fence (see [`Op::SmrFence`]).
#[derive(Copy, Clone)]
pub(crate) struct SmrFenceOp;

impl Event for SmrFenceOp {
    type R = ();
    #[inline]
    fn op(self) -> Op {
        Op::SmrFence
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
    #[inline]
    fn op(self) -> Op {
        Op::UntagOne(self.0)
    }
    #[inline]
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
    fn op(self) -> Op {
        Op::UntagAll
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.untag_all(c))
    }
}

/// Allocate one node; `Addr::NULL` is the recoverable-exhaustion verdict.
#[derive(Copy, Clone)]
pub(crate) struct AllocOp;

impl Event for AllocOp {
    type R = Addr;
    #[inline]
    fn op(self) -> Op {
        Op::Alloc
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Addr, u64) {
        // Under oom_recoverable, exhaustion is a verdict: the malloc
        // latency is still charged (the simulated allocator did the work of
        // discovering there was nothing to hand out) and the null address
        // flows back to `Ctx::try_alloc` as `None`.
        let a = if st.fault.oom_recoverable {
            st.alloc.try_alloc(c).unwrap_or_else(|| {
                st.hub.stats.core(c).alloc_failures += 1;
                Addr::NULL
            })
        } else {
            st.alloc.alloc(c)
        };
        (a, st.hub.lat.malloc)
    }
}

/// Free one node.
#[derive(Copy, Clone)]
pub(crate) struct FreeOp(pub Addr);

impl Event for FreeOp {
    type R = ();
    #[inline]
    fn op(self) -> Op {
        Op::Free(self.0)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        st.alloc.free(c, self.0);
        ((), st.hub.lat.free)
    }
}

/// Begin a hardware transaction.
#[derive(Copy, Clone)]
pub(crate) struct TxBeginOp;

impl Event for TxBeginOp {
    type R = ();
    #[inline]
    fn op(self) -> Op {
        Op::TxBegin
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> ((), u64) {
        ((), st.hub.tx_begin(c))
    }
}

/// Speculative load (`None` = the transaction aborted).
#[derive(Copy, Clone)]
pub(crate) struct TxReadOp(pub Addr);

impl Event for TxReadOp {
    type R = Option<u64>;
    #[inline]
    fn op(self) -> Op {
        Op::TxRead(self.0)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Option<u64>, u64) {
        let (v, cost) = st.hub.tx_read(c, self.0);
        if v.is_some() {
            st.alloc.check_access(c, self.0, "tx_read");
        }
        (v, cost)
    }
}

/// Speculative store (`false` = the transaction aborted).
#[derive(Copy, Clone)]
pub(crate) struct TxWriteOp(pub Addr, pub u64);

impl Event for TxWriteOp {
    type R = bool;
    #[inline]
    fn op(self) -> Op {
        Op::TxWrite(self.0, self.1)
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (bool, u64) {
        st.hub.tx_write(c, self.0, self.1)
    }
}

/// Attempt to commit (`false` = conflict, rolled back).
#[derive(Copy, Clone)]
pub(crate) struct TxCommitOp;

impl Event for TxCommitOp {
    type R = bool;
    #[inline]
    fn op(self) -> Op {
        Op::TxCommit
    }
    fn exec(self, st: &mut SimState, c: CoreId) -> (bool, u64) {
        let (writes, abort_cost) = st.hub.tx_commit_begin(c);
        match writes {
            None => (false, abort_cost),
            Some(w) => {
                for &(a, _) in &w {
                    st.alloc.check_access(c, a, "tx_commit");
                }
                (true, st.hub.tx_commit_apply(c, &w))
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
    fn op(self) -> Op {
        Op::TxAbort
    }
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
    fn op(self) -> Op {
        Op::OpCompleted
    }
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

/// A reified operation is itself an event — its body is the [`exec_op`]
/// delegate — so `Ctx::issue_reified` replays it through the very pipeline
/// the typed events use (the differential battery's second twin).
impl Event for Op {
    type R = Out;
    #[inline]
    fn op(self) -> Op {
        self
    }
    #[inline]
    fn exec(self, st: &mut SimState, c: CoreId) -> (Out, u64) {
        exec_op(st, c, self)
    }
}

/// Execute one reified operation against the simulator state, returning its
/// output and cycle cost: each arm rebuilds the typed event and delegates to
/// its body. The gang runtime's conductor calls this at epoch barriers for
/// deferred events.
pub(crate) fn exec_op(st: &mut SimState, c: CoreId, op: Op) -> (Out, u64) {
    #[inline]
    fn run<T: Event>(ev: T, st: &mut SimState, c: CoreId) -> (Out, u64) {
        let (r, cost) = ev.exec(st, c);
        (r.to_out(), cost)
    }
    match op {
        Op::Read(a) => run(ReadOp(a), st, c),
        Op::Write(a, v) => run(WriteOp(a, v), st, c),
        Op::Cas(a, expected, new) => run(CasOp(a, expected, new), st, c),
        Op::Fence => run(FenceOp, st, c),
        Op::SmrFence => run(SmrFenceOp, st, c),
        Op::Cread(a) => run(CreadOp(a), st, c),
        Op::Cwrite(a, v) => run(CwriteOp(a, v), st, c),
        Op::UntagOne(a) => run(UntagOneOp(a), st, c),
        Op::UntagAll => run(UntagAllOp, st, c),
        Op::Alloc => run(AllocOp, st, c),
        Op::Free(a) => run(FreeOp(a), st, c),
        Op::TxBegin => run(TxBeginOp, st, c),
        Op::TxRead(a) => run(TxReadOp(a), st, c),
        Op::TxWrite(a, v) => run(TxWriteOp(a, v), st, c),
        Op::TxCommit => run(TxCommitOp, st, c),
        Op::TxAbort => run(TxAbortOp, st, c),
        Op::OpCompleted => run(OpCompletedOp, st, c),
    }
}

/// Execute one reified *bank-classifiable* operation through a
/// [`BankParts`] projection (the gang merge lanes' entry point): the same
/// arm-by-arm delegation as [`exec_op`], to [`BankEvent::exec_bank`].
///
/// # Safety
/// As for [`BankEvent::exec_bank`].
pub(crate) unsafe fn exec_bank_op(
    parts: &mut BankParts,
    check: &mut impl FnMut(CoreId, Addr, &'static str),
    c: CoreId,
    op: Op,
) -> (Out, u64) {
    /// # Safety
    /// As for [`BankEvent::exec_bank`].
    #[inline]
    unsafe fn run<T: BankEvent>(
        ev: T,
        parts: &mut BankParts,
        check: &mut impl FnMut(CoreId, Addr, &'static str),
        c: CoreId,
    ) -> (Out, u64) {
        // SAFETY: forwards the caller's footprint contract on `parts`.
        let (r, cost) = unsafe { ev.exec_bank(parts, check, c) };
        (r.to_out(), cost)
    }
    // SAFETY (each arm): forwards this fn's own footprint-exclusivity
    // contract on `parts` to the typed body.
    unsafe {
        match op {
            Op::Read(a) => run(ReadOp(a), parts, check, c),
            Op::Write(a, v) => run(WriteOp(a, v), parts, check, c),
            Op::Cas(a, expected, new) => run(CasOp(a, expected, new), parts, check, c),
            Op::Cread(a) => run(CreadOp(a), parts, check, c),
            Op::Cwrite(a, v) => run(CwriteOp(a, v), parts, check, c),
            _ => unreachable!("exec_bank_op called with a non-bank-classifiable op"),
        }
    }
}
