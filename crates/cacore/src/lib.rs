//! # cacore — Conditional Access primitives
//!
//! This crate is the paper's primary contribution: the **Conditional Access**
//! instruction set (paper §II) as a programming model over the simulated
//! machine, together with
//!
//! * the retry scaffolding every CA data structure uses (the paper's
//!   `CA_CHECK` macro: on failure, `untagAll` and restart the operation) —
//!   see [`ca_loop`], [`ca_try!`](crate::ca_try) and
//!   [`ca_check!`](crate::ca_check);
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
pub use htm::{tx_loop, TxStep};
pub use lock::{try_lock, try_lock_detailed, unlock, TryLockOutcome};
pub use oracle::TagOracle;

use mcsim::machine::Ctx;

/// One attempt of a CA operation body: either it finished with a value, or a
/// conditional access failed and the operation must be retried from scratch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CaStep<T> {
    /// The operation completed.
    Done(T),
    /// A `cread`/`cwrite` failed (or validation failed); `untagAll` and
    /// retry — the paper's `CA_CHECK ... goto retry` path.
    Retry,
}

/// Run a CA operation body until it completes, performing the paper's
/// mandatory `untagAll` on every exit path (both retry and success —
/// Algorithm 1 and Algorithm 3 end every operation with `untagAll`).
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
///    `cwrite` inside `ca_loop`; a failure ([`ca_try!`](crate::ca_try),
///    [`ca_check!`](crate::ca_check)) untags everything and retries the
///    operation from scratch.
/// 2. **DII**: right after a node is first tagged, validate that it was
///    reachable (here: its `seq` stamp is even, so it was not retired).
/// 3. **Write before free**: bump the node's `seq` before freeing it, which
///    revokes every tag on it.
///
/// ```
/// use cacore::{ca_check, ca_loop, ca_try, CaStep};
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
///         ca_loop(ctx, |ctx| {
///             let first = ca_try!(ctx.cread(self.head));
///             ctx.write(n.word(W_NEXT), first); // private until published
///             ca_check!(ctx.cwrite(self.head, n.0));
///             CaStep::Done(())
///         })
///     }
///
///     fn take_any(&self, ctx: &mut Ctx) -> Option<u64> {
///         let (node, val) = ca_loop(ctx, |ctx| {
///             let first = ca_try!(ctx.cread(self.head));
///             if first == 0 {
///                 return CaStep::Done(None);
///             }
///             let node = Addr(first);
///             // DII: a node retired before we tagged it is not trusted.
///             let seq = ca_try!(ctx.cread(node.word(W_SEQ)));
///             if seq % 2 == 1 {
///                 return CaStep::Retry;
///             }
///             let next = ca_try!(ctx.cread(node.word(W_NEXT)));
///             let val = ca_try!(ctx.cread(node.word(W_VAL)));
///             ca_check!(ctx.cwrite(self.head, next));
///             // Write before free: the cwrite revoked head's taggers; this
///             // revokes anyone who tagged only the node.
///             ctx.write(node.word(W_SEQ), seq + 1);
///             CaStep::Done(Some((node, val)))
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
pub fn ca_loop<T>(ctx: &mut Ctx, mut body: impl FnMut(&mut Ctx) -> CaStep<T>) -> T {
    let mut retries: u64 = 0;
    loop {
        match body(ctx) {
            CaStep::Done(v) => {
                ctx.untag_all();
                return v;
            }
            CaStep::Retry => {
                ctx.untag_all();
                retries += 1;
                assert!(
                    retries < 10_000_000,
                    "CA operation retried 10M times on core {}: livelock — \
                     the data structure is violating the CA usage directives",
                    ctx.core()
                );
            }
        }
    }
}

/// `cread` with the paper's `CA_CHECK`: evaluates to the loaded value, or
/// returns [`CaStep::Retry`] from the enclosing function on failure.
/// [`ca_loop`] shows it in a whole structure.
#[macro_export]
macro_rules! ca_try {
    ($e:expr) => {
        match $e {
            Some(v) => v,
            None => return $crate::CaStep::Retry,
        }
    };
}

/// `cwrite` (or any boolean CA condition) with the paper's `CA_CHECK`:
/// returns [`CaStep::Retry`] from the enclosing function when false.
/// [`ca_loop`] shows it in a whole structure.
#[macro_export]
macro_rules! ca_check {
    ($e:expr) => {
        if !$e {
            return $crate::CaStep::Retry;
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
    fn ca_loop_returns_value_and_untags() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let v = m.run_on(1, |_, ctx| {
            ca_loop(ctx, |ctx| {
                let v = ca_try!(ctx.cread(a));
                ca_check!(ctx.cwrite(a, v + 1));
                CaStep::Done(v + 1)
            })
        });
        assert_eq!(v, vec![1]);
        assert!(m.probe_tagged_lines(0).is_empty(), "ca_loop must untagAll");
        assert!(!m.probe_arb(0));
    }

    #[test]
    fn ca_loop_retries_until_success() {
        let m = machine(1);
        let a = m.alloc_static(1);
        let tries = m.run_on(1, |_, ctx| {
            let mut attempts = 0;
            ca_loop(ctx, |ctx| {
                attempts += 1;
                let v = ca_try!(ctx.cread(a));
                if attempts < 3 {
                    return CaStep::Retry; // simulate validation failure
                }
                CaStep::Done(v)
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
                ca_loop(ctx, |ctx| {
                    let v = ca_try!(ctx.cread(a));
                    ca_check!(ctx.cwrite(a, v + 1));
                    CaStep::Done(())
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
            ca_loop(ctx, |ctx| {
                let vx = ca_try!(ctx.cread(x));
                let vy = ca_try!(ctx.cread(y));
                let _ = ca_try!(ctx.cread(sum));
                ca_check!(ctx.cwrite(sum, vx + vy));
                CaStep::Done(true)
            })
        });
        assert_eq!(ok, vec![true]);
        assert_eq!(m.host_read(sum), 7);
    }
}
