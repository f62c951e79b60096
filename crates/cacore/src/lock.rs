//! The Conditional-Access try-lock (paper **Algorithm 2**).
//!
//! A lock word lives inside the node it protects (one word of the node's
//! cache line). The try-lock has a *precondition*: the node must already
//! have been `cread` (tagged) by the caller, so the `cread`/`cwrite` pair
//! here can detect concurrent deletion of the node through the ARB. This is
//! what makes it safe to attempt locking a node that may be freed at any
//! moment — a plain CAS lock would be a use-after-free.
//!
//! `unlock` uses a plain store: a locked node can only be mutated by its
//! owner, so it cannot be concurrently freed (paper §IV-B step 5).

use mcsim::machine::Ctx;
use mcsim::{Addr, Restart};

/// Lock word values.
const UNLOCKED: u64 = 0;
const LOCKED: u64 = 1;

/// Algorithm 2: `Ok` iff the lock was acquired. A lock held by another
/// thread and a failed conditional access (the node may have been
/// deleted or freed) both return `Err`; callers `untagAll` and retry.
///
/// Precondition: the line containing `lock` was `cread` by this thread (the
/// node is tagged). The initial `cread` here re-tags it harmlessly.
pub fn try_lock(ctx: &mut Ctx, lock: Addr) -> Result<(), Restart> {
    if ctx.cread(lock)? == LOCKED {
        return Err(Restart);
    }
    ctx.cwrite(lock, LOCKED)
}

/// Release a lock acquired by [`try_lock`]. Plain store — safe because only
/// the lock owner may mutate (or free) a locked node.
pub fn unlock(ctx: &mut Ctx, lock: Addr) {
    ctx.write(lock, UNLOCKED);
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
    fn acquire_and_release() {
        let m = machine(1);
        let node = m.alloc_static(1);
        let lock = node.word(1);
        let out = m.run_on(1, |_, ctx| {
            let _ = ctx.cread(node); // precondition: tag the node
            let got = try_lock(ctx, lock);
            let relock_while_held = try_lock(ctx, lock);
            unlock(ctx, lock);
            ctx.untag_all();
            let _ = ctx.cread(node);
            let regot = try_lock(ctx, lock);
            unlock(ctx, lock);
            ctx.untag_all();
            (got, relock_while_held, regot)
        });
        assert_eq!(out, vec![(Ok(()), Err(Restart), Ok(()))]);
        assert_eq!(m.host_read(lock), 0);
    }

    #[test]
    fn lock_fails_after_remote_modification() {
        // Thread 0 tags the node; thread 1 then writes it (as a deleter
        // would). Thread 0's try_lock must fail on its conditional access,
        // not on a held lock — it must not write to a node that may have
        // been freed.
        let m = machine(2);
        let node = m.alloc_static(1);
        let lock = node.word(1);
        let mark = node.word(2);

        let outs = m.run_on(2, |tid, ctx| match tid {
            0 => {
                let _ = ctx.cread(node); // tag

                // Spin until the other thread has marked the node.
                while ctx.read(mark) == 0 {
                    ctx.tick(1);
                }
                let out = try_lock(ctx, lock);
                ctx.untag_all();
                Some(out)
            }
            _ => {
                ctx.write(mark, 1); // "delete" the node
                None
            }
        });
        assert_eq!(outs[0], Some(Err(Restart)));
        assert_eq!(m.host_read(lock), 0, "the lock was never taken");
        let c0 = &m.stats().cores[0];
        assert_eq!(c0.cread_fail + c0.cwrite_fail, 1, "{c0:?}");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // N threads increment a counter protected by the CA lock. The node
        // is never freed here, so a held lock and a revoked tag both
        // simply retry.
        let m = machine(4);
        let node = m.alloc_static(1);
        let lock = node.word(0);
        let counter = node.word(1);
        m.run_on(4, |_, ctx| {
            for _ in 0..100 {
                loop {
                    let _ = ctx.cread(node);
                    if try_lock(ctx, lock).is_ok() {
                        break;
                    }
                    ctx.untag_all();
                }
                // Critical section: plain reads/writes are safe.
                let v = ctx.read(counter);
                ctx.write(counter, v + 1);
                unlock(ctx, lock);
                ctx.untag_all();
            }
        });
        assert_eq!(m.host_read(counter), 400);
        m.check_invariants();
    }
}
