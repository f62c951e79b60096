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
//! Such operations run in the one attempt loop, [`crate::attempt_loop`],
//! with [`abort_open_tx`] as the after-attempt hook. An attempt body
//! propagates a failed `tx_read`/`tx_write`/`tx_commit` (already rolled back
//! by the hardware) with `?`, and a failed in-transaction validation by
//! returning `Err(Restart)` with the transaction still open: the hook
//! aborts it. The simulator's `tx_*` primitives are `mcsim::machine::
//! Ctx::{tx_begin, tx_read, tx_write, tx_commit, tx_abort}`; the actual
//! hand-over-hand list lives in `cads::htm`.

use mcsim::machine::Ctx;

/// The after-attempt hook of a transactional operation: abort the
/// transaction an attempt left in flight (a failed validation returns
/// `Err(Restart)` mid-transaction). A failed `tx_read`/`tx_write`/
/// `tx_commit` has already rolled back, and [`Ctx::tx_active`] charges no
/// cycles, so such an attempt is not aborted twice.
///
/// A counter that two threads increment, one transaction per increment:
///
/// ```
/// use cacore::attempt_loop;
/// use cacore::htm::abort_open_tx;
/// use mcsim::{Machine, MachineConfig};
///
/// let m = Machine::new(MachineConfig { cores: 2, ..Default::default() });
/// let counter = m.alloc_static(1);
/// m.run_on(2, |_, ctx| {
///     for _ in 0..100 {
///         attempt_loop(ctx, abort_open_tx, |ctx| {
///             ctx.tx_begin();
///             let v = ctx.tx_read(counter)?;
///             ctx.tx_write(counter, v + 1)?;
///             ctx.tx_commit()
///         });
///     }
/// });
/// assert_eq!(m.host_read(counter), 200);
/// ```
pub fn abort_open_tx(ctx: &mut Ctx) {
    if ctx.tx_active() {
        ctx.tx_abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attempt_loop, Restart};
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
            attempt_loop(ctx, abort_open_tx, |ctx| {
                ctx.tx_begin();
                let v = ctx.tx_read(a)?;
                ctx.tx_write(a, v + 1)?;
                ctx.tx_commit()?;
                Ok(v + 1)
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
            attempt_loop(ctx, abort_open_tx, |ctx| {
                n += 1;
                ctx.tx_begin();
                ctx.tx_read(a)?;
                if n < 3 {
                    return Err(Restart); // fail the first two validations
                }
                ctx.tx_commit()
            });
            n
        });
        assert_eq!(attempts, vec![3]);
        // Each failed validation is aborted exactly once, by the hook.
        let core = &m.stats().cores[0];
        assert_eq!(core.tx_begins, 3);
        assert_eq!(core.tx_aborts, 2);
        assert_eq!(core.tx_commits, 1);
    }

    #[test]
    fn contended_transactional_increment_is_exact() {
        let m = machine(4);
        let a = m.alloc_static(1);
        m.run_on(4, |_, ctx| {
            for _ in 0..100 {
                attempt_loop(ctx, abort_open_tx, |ctx| {
                    ctx.tx_begin();
                    let v = ctx.tx_read(a)?;
                    ctx.tx_write(a, v + 1)?;
                    ctx.tx_commit()
                });
            }
        });
        assert_eq!(m.host_read(a), 400);
        // A restart after a failed tx_read (already rolled back) is not
        // aborted a second time: every begin ends once.
        let stats = m.stats();
        for c in &stats.cores {
            assert_eq!(c.tx_begins, c.tx_commits + c.tx_aborts, "{c:?}");
        }
        m.check_invariants();
    }
}
