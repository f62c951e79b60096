//! Retry scaffolding for the **HTM comparator** (paper §VI).
//!
//! The paper's closest immediate-reclamation competitor is Zhou, Luchangco
//! and Spear's *hand-over-hand transactions with precise memory reclamation*:
//! data-structure operations are decomposed into short hardware transactions
//! chained hand-over-hand, with a per-node metadata (version) table that
//! readers validate inside each transaction before dereferencing a node
//! carried over from the previous one. The paper reports two drawbacks that
//! this reproduction makes measurable:
//!
//! * the metadata table causes **false conflicts** (hash collisions between
//!   unrelated nodes abort readers), and
//! * "the frequent starting and committing of transactions for read-only
//!   operations introduced significant latency" — every traversal hop pays
//!   `tx_begin + tx_commit`, where Conditional Access pays nothing.
//!
//! This module provides the retry loop and check macros for writing such
//! operations against the simulator's `tx_*` primitives (`mcsim::machine::
//! Ctx::{tx_begin, tx_read, tx_write, tx_commit, tx_abort}`); the actual
//! hand-over-hand list lives in `cads::htm`.

use mcsim::machine::Ctx;

/// One attempt of a transactional operation body: either it finished with a
/// value, or some transaction in it aborted and the operation must restart.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxStep<T> {
    /// The operation completed (its final transaction committed).
    Done(T),
    /// A transaction aborted (conflict, capacity, or failed validation);
    /// restart the operation from scratch.
    Restart,
}

/// Run a transactional operation body until it completes.
///
/// The body must leave no transaction in flight on either exit path: a
/// failed `tx_read`/`tx_write`/`tx_commit` has already aborted, and a failed
/// in-transaction validation must call `tx_abort` before returning
/// [`TxStep::Restart`] (the [`tx_validate!`](crate::tx_validate) macro does
/// this). The retry ceiling converts a livelocked operation into a loud
/// failure, exactly like [`ca_loop`](crate::ca_loop).
pub fn tx_loop<T>(ctx: &mut Ctx, mut body: impl FnMut(&mut Ctx) -> TxStep<T>) -> T {
    let mut retries: u64 = 0;
    loop {
        let step = body(ctx);
        debug_assert!(
            !ctx.tx_active(),
            "transactional operation body left a transaction in flight on \
             thread {}",
            ctx.core()
        );
        match step {
            TxStep::Done(v) => return v,
            TxStep::Restart => {
                retries += 1;
                assert!(
                    retries < 10_000_000,
                    "transactional operation retried 10M times on thread {}: \
                     livelock",
                    ctx.core()
                );
            }
        }
    }
}

/// `tx_read`/`tx_begin` result check: evaluates to the loaded value, or
/// returns [`TxStep::Restart`] from the enclosing function on abort (the
/// transaction has already been rolled back by the hardware).
///
/// A counter that two threads increment, one transaction per increment:
///
/// ```
/// use cacore::{tx_check, tx_loop, tx_try, TxStep};
/// use mcsim::{Machine, MachineConfig};
///
/// let m = Machine::new(MachineConfig { cores: 2, ..Default::default() });
/// let counter = m.alloc_static(1);
/// m.run_on(2, |_, ctx| {
///     for _ in 0..100 {
///         tx_loop(ctx, |ctx| {
///             ctx.tx_begin();
///             let v = tx_try!(ctx.tx_read(counter));
///             tx_check!(ctx.tx_write(counter, v + 1));
///             tx_check!(ctx.tx_commit());
///             TxStep::Done(())
///         });
///     }
/// });
/// assert_eq!(m.host_read(counter), 200);
/// ```
#[macro_export]
macro_rules! tx_try {
    ($e:expr) => {
        match $e {
            Some(v) => v,
            None => return $crate::htm::TxStep::Restart,
        }
    };
}

/// Boolean transactional check (`tx_write`, `tx_commit`): returns
/// [`TxStep::Restart`] from the enclosing function when false.
#[macro_export]
macro_rules! tx_check {
    ($e:expr) => {
        if !$e {
            return $crate::htm::TxStep::Restart;
        }
    };
}

/// In-transaction validation: when `cond` is false, explicitly abort the
/// in-flight transaction and restart the operation. This is the
/// hand-over-hand version check ("has this node been freed since the
/// previous transaction observed it?").
#[macro_export]
macro_rules! tx_validate {
    ($ctx:expr, $cond:expr) => {
        if !$cond {
            $ctx.tx_abort();
            return $crate::htm::TxStep::Restart;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::{Machine, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            ..Default::default()
        })
    }

    #[test]
    fn tx_loop_commits_and_returns() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let v = m.run_on(1, |_, ctx| {
            tx_loop(ctx, |ctx| {
                ctx.tx_begin();
                let v = tx_try!(ctx.tx_read(a));
                tx_check!(ctx.tx_write(a, v + 1));
                tx_check!(ctx.tx_commit());
                TxStep::Done(v + 1)
            })
        });
        assert_eq!(v, vec![1]);
        assert_eq!(m.host_read(a), 1);
    }

    #[test]
    fn tx_validate_aborts_and_retries() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let attempts = m.run_on(1, |_, ctx| {
            let mut n = 0;
            tx_loop(ctx, |ctx| {
                n += 1;
                ctx.tx_begin();
                let _ = tx_try!(ctx.tx_read(a));
                tx_validate!(ctx, n >= 3); // fail the first two attempts
                tx_check!(ctx.tx_commit());
                TxStep::Done(())
            });
            n
        });
        assert_eq!(attempts, vec![3]);
    }

    #[test]
    fn contended_transactional_increment_is_exact() {
        let m = machine(4);
        let a = m.alloc_static(1);
        m.run_on(4, |_, ctx| {
            for _ in 0..100 {
                tx_loop(ctx, |ctx| {
                    ctx.tx_begin();
                    let v = tx_try!(ctx.tx_read(a));
                    tx_check!(ctx.tx_write(a, v + 1));
                    tx_check!(ctx.tx_commit());
                    TxStep::Done(())
                });
            }
        });
        assert_eq!(m.host_read(a), 400);
        m.check_invariants();
    }
}
