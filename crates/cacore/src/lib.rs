//! # cacore — Conditional Access primitives
//!
//! This crate is the paper's primary contribution: the **Conditional Access**
//! instruction set (paper §II) as a programming model over the simulated
//! machine, together with
//!
//! * the attempt loop CA and HTM operations run in, [`attempt_loop`]
//!   ([`fallback`] drives its own attempts): an attempt body returns
//!   `Result<T, Restart>` and propagates a failed `cread`/`cwrite` with
//!   `?` — the paper's `CA_CHECK` macro (on failure, `untagAll` and
//!   restart the operation);
//! * the Conditional-Access try-lock of **Algorithm 2** ([`lock`]);
//! * an executable **reference oracle** of the §II abstract semantics with an
//!   unbounded tag set ([`oracle`]), used by property tests to prove the
//!   bounded L1 implementation in `mcsim` is a sound approximation: whenever
//!   the abstract machine fails a conditional access, the hardware
//!   implementation fails it too (it may additionally fail spuriously on
//!   associativity evictions, which is the safe direction — paper §III).
//!
//! ## The instructions
//!
//! | instruction | semantics (paper §II-B) |
//! |---|---|
//! | `cread a`  | fail if ARB set; else load `*a`, tag `a`'s line |
//! | `cwrite a, v` | fail if ARB set **or `a` untagged**; else store |
//! | `untagOne a` | drop `a` from the tag set |
//! | `untagAll` | clear the tag set and the ARB |
//!
//! A failed access touches no memory and costs ~1 cycle; this *locality of
//! failure* — the failing core learns of the conflict from its own L1 state,
//! without fetching the line — is what lets CA beat fence-based SMR under
//! contention (paper §V).

pub mod fallback;
pub mod htm;
pub mod lock;
pub mod oracle;

pub use fallback::FallbackLock;
pub use lock::{try_lock, unlock};
pub use mcsim::Restart;
pub use oracle::TagOracle;

use mcsim::machine::Ctx;

/// Run one operation until an attempt completes, calling `after_attempt`
/// after **every** attempt, successful or not:
///
/// * a CA operation passes [`Ctx::untag_all`] — Algorithms 1 and 3 end
///   every attempt, retry and success alike, with `untagAll`;
/// * an HTM operation passes [`htm::abort_open_tx`], which aborts the
///   transaction a failed validation left in flight.
///
/// An attempt restarts the operation from scratch by returning
/// `Err(`[`Restart`]`)`, usually through `?` on a failed `cread`, `cwrite`
/// or `tx_*`.
///
/// The retry counter guards against livelock bugs: a correct CA data
/// structure on this simulator can only fail because of a real conflict or a
/// capacity eviction, both of which are transient. Hitting the ceiling means
/// the data structure is broken (e.g. it forgot to untag on some path), so
/// we fail loudly rather than hang the test suite.
///
/// # Example: a structure of your own
///
/// A bag of values whose `take_any` unlinks the first node and frees it at
/// once, following the paper's §IV directives:
///
/// 1. **DI**: every access to a node that can be freed is a `cread` or a
///    `cwrite` inside `attempt_loop`; a failure (`?`) untags everything and
///    retries the operation from scratch.
/// 2. **DII**: right after a node is first tagged, validate that it was
///    reachable (here: its `seq` stamp is even, so it was not retired).
/// 3. **Write before free**: bump the node's `seq` before freeing it, which
///    revokes every tag on it.
///
/// ```
/// use cacore::{attempt_loop, Restart};
/// use mcsim::machine::Ctx;
/// use mcsim::{Addr, Machine, MachineConfig};
///
/// // Node words: value, next, seq (odd = retired). One node per line.
/// const W_VAL: u64 = 0;
/// const W_NEXT: u64 = 1;
/// const W_SEQ: u64 = 2;
///
/// struct CaBag {
///     head: Addr, // static cell: the first node, 0 = empty
/// }
///
/// impl CaBag {
///     fn add(&self, ctx: &mut Ctx, value: u64) {
///         let n = ctx.alloc();
///         ctx.write(n.word(W_VAL), value);
///         ctx.write(n.word(W_SEQ), 0);
///         attempt_loop(ctx, Ctx::untag_all, |ctx| {
///             let first = ctx.cread(self.head)?;
///             ctx.write(n.word(W_NEXT), first); // private until published
///             ctx.cwrite(self.head, n.0)
///         })
///     }
///
///     fn take_any(&self, ctx: &mut Ctx) -> Option<u64> {
///         let (node, val) = attempt_loop(ctx, Ctx::untag_all, |ctx| {
///             let first = ctx.cread(self.head)?;
///             if first == 0 {
///                 return Ok(None);
///             }
///             let node = Addr(first);
///             // DII: a node retired before we tagged it is not trusted.
///             let seq = ctx.cread(node.word(W_SEQ))?;
///             if seq % 2 == 1 {
///                 return Err(Restart);
///             }
///             let next = ctx.cread(node.word(W_NEXT))?;
///             let val = ctx.cread(node.word(W_VAL))?;
///             ctx.cwrite(self.head, next)?;
///             // Write before free: the cwrite revoked head's taggers; this
///             // revokes anyone who tagged only the node.
///             ctx.write(node.word(W_SEQ), seq + 1);
///             Ok(Some((node, val)))
///         })?;
///         ctx.free(node);
///         Some(val)
///     }
/// }
///
/// // The use-after-free detector is armed: any read of freed memory panics.
/// let machine = Machine::new(MachineConfig { cores: 4, ..Default::default() });
/// let bag = CaBag { head: machine.alloc_static(1) };
/// let sums = machine.run_on(4, |tid, ctx| {
///     let (mut added, mut taken) = (0, 0);
///     for i in 1..=1000u64 {
///         let v = tid as u64 * 10_000 + i;
///         bag.add(ctx, v);
///         added += v;
///         if i % 2 == 0 {
///             taken += bag.take_any(ctx).unwrap_or(0);
///         }
///     }
///     (added, taken)
/// });
/// let leftover = machine.run_on(1, |_, ctx| {
///     std::iter::from_fn(|| bag.take_any(ctx)).sum::<u64>()
/// });
/// let added: u64 = sums.iter().map(|s| s.0).sum();
/// let taken: u64 = sums.iter().map(|s| s.1).sum::<u64>() + leftover[0];
/// assert_eq!(added, taken, "no value lost or duplicated");
/// assert_eq!(machine.stats().allocated_not_freed, 0);
/// ```
pub fn attempt_loop<'m, T>(
    ctx: &mut Ctx<'m>,
    after_attempt: impl Fn(&mut Ctx<'m>),
    mut attempt: impl FnMut(&mut Ctx<'m>) -> Result<T, Restart>,
) -> T {
    let mut retries: u64 = 0;
    loop {
        let outcome = attempt(ctx);
        after_attempt(ctx);
        match outcome {
            Ok(v) => return v,
            Err(Restart) => {
                retries += 1;
                assert!(
                    retries < 10_000_000,
                    "operation retried 10M times on core {}: livelock — \
                     the attempt body violates the CA usage directives",
                    ctx.core()
                );
            }
        }
    }
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
    fn ca_loop_returns_value_and_untags() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let v = m.run_on(1, |_, ctx| {
            attempt_loop(ctx, Ctx::untag_all, |ctx| {
                let v = ctx.cread(a)?;
                ctx.cwrite(a, v + 1)?;
                Ok(v + 1)
            })
        });
        assert_eq!(v, vec![1]);
        assert!(
            m.probe_tagged_lines(0).is_empty(),
            "the CA hook must untagAll"
        );
        assert!(!m.probe_arb(0));
    }

    #[test]
    fn ca_loop_retries_until_success() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let tries = m.run_on(1, |_, ctx| {
            let mut attempts = 0;
            attempt_loop(ctx, Ctx::untag_all, |ctx| {
                attempts += 1;
                let v = ctx.cread(a)?;
                if attempts < 3 {
                    return Err(Restart); // simulate validation failure
                }
                Ok(v)
            });
            attempts
        });
        assert_eq!(tries, vec![3]);
    }

    #[test]
    fn contended_increment_is_exact() {
        // The Algorithm-1 pattern: cread + cwrite as an atomic increment.
        // Under contention the losers' cwrites must fail, so the total is
        // exact — this is the ABA-free claim (Theorem 7) in miniature.
        let m = machine(4);
        let a = m.alloc_static(1);
        m.run_on(4, |_, ctx| {
            for _ in 0..200 {
                attempt_loop(ctx, Ctx::untag_all, |ctx| {
                    let v = ctx.cread(a)?;
                    ctx.cwrite(a, v + 1)
                });
            }
        });
        assert_eq!(m.host_read(a), 800);
        m.check_invariants();
    }

    #[test]
    fn cwrite_depends_on_many_loads() {
        // §I: "the store can depend on many loads" — generalized LL/SC.
        // A cwrite to `sum` must fail if *either* input was modified.
        let m = machine(2);
        let x = m.alloc_static(1);
        let y = m.alloc_static(1);
        let sum = m.alloc_static(1);
        m.host_write(x, 3);
        m.host_write(y, 4);
        let ok = m.run_on(1, |_, ctx| {
            attempt_loop(ctx, Ctx::untag_all, |ctx| {
                let vx = ctx.cread(x)?;
                let vy = ctx.cread(y)?;
                ctx.cread(sum)?;
                ctx.cwrite(sum, vx + vy)?;
                Ok(true)
            })
        });
        assert_eq!(ok, vec![true]);
        assert_eq!(m.host_read(sum), 7);
    }
}
