//! Structure-kind traits the experiment harness drives.
//!
//! Every benchmarked structure — Conditional Access or SMR-based — exposes
//! one of these interfaces. `Tls` carries the per-thread reclamation state
//! (retire lists, hazard mirrors); CA structures have none (`Tls = ()`),
//! which is itself one of the paper's points: CA needs no per-thread
//! bookkeeping at all.
//!
//! Since PR 8 the operation traits are generic over the execution
//! environment `E: `[`Env`]: SMR structures implement them for *every*
//! environment (simulated and native host threads), while CA structures
//! implement them only for `mcsim::machine::Ctx` — Conditional Access needs
//! the paper's hardware primitive, which only the simulator provides.
//! [`DsShared`] carries the environment-independent surface (per-thread
//! state) so `Tls` stays nameable without picking an environment.

use casmr::Env;

/// Environment-independent surface of a benchmarked structure.
pub trait DsShared: Sync {
    /// Per-thread state.
    type Tls: Send;

    /// Create thread `tid`'s state. Call once per worker thread.
    fn register(&self, tid: usize) -> Self::Tls;
}

/// A set of `u64` keys (lazy list, external BST, hash table).
pub trait SetDs<E: Env + ?Sized>: DsShared {
    /// Insert `key`; false if already present.
    fn insert(&self, env: &mut E, tls: &mut Self::Tls, key: u64) -> bool;

    /// Delete `key`; false if absent.
    fn delete(&self, env: &mut E, tls: &mut Self::Tls, key: u64) -> bool;

    /// Membership test.
    fn contains(&self, env: &mut E, tls: &mut Self::Tls, key: u64) -> bool;
}

/// A LIFO stack of `u64` values (Treiber).
pub trait StackDs<E: Env + ?Sized>: DsShared {
    /// Push a value.
    fn push(&self, env: &mut E, tls: &mut Self::Tls, value: u64);

    /// Pop the top value, if any.
    fn pop(&self, env: &mut E, tls: &mut Self::Tls) -> Option<u64>;

    /// Read the top value without removing it (the figures' "read" op).
    fn peek(&self, env: &mut E, tls: &mut Self::Tls) -> Option<u64>;
}

/// A FIFO queue of `u64` values (Michael–Scott).
pub trait QueueDs<E: Env + ?Sized>: DsShared {
    /// Enqueue a value at the tail.
    fn enqueue(&self, env: &mut E, tls: &mut Self::Tls, value: u64);

    /// Dequeue the head value, if any.
    fn dequeue(&self, env: &mut E, tls: &mut Self::Tls) -> Option<u64>;
}

/// One applied call of the traits above with its result, so a history can
/// be held to a sequential model or to value conservation: a set op's key
/// and returned `bool`, a push's or enqueue's value, a removal's or peek's
/// returned `Option`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert(u64, bool),
    Delete(u64, bool),
    Contains(u64, bool),
    Push(u64),
    Pop(Option<u64>),
    Peek(Option<u64>),
    Enqueue(u64),
    Dequeue(Option<u64>),
}

impl Op {
    /// The value this op put into the structure, if it put one.
    pub fn added(self) -> Option<u64> {
        match self {
            Op::Insert(k, true) => Some(k),
            Op::Push(v) | Op::Enqueue(v) => Some(v),
            _ => None,
        }
    }

    /// The value this op took out of the structure, if it took one.
    pub fn removed(self) -> Option<u64> {
        match self {
            Op::Delete(k, true) => Some(k),
            Op::Pop(v) | Op::Dequeue(v) => v,
            _ => None,
        }
    }

    /// Whether this is a set operation (a history holds one family's ops).
    pub fn on_a_set(self) -> bool {
        matches!(self, Op::Insert(..) | Op::Delete(..) | Op::Contains(..))
    }
}
