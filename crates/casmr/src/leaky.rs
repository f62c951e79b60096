//! The `none` baseline: no reclamation at all.
//!
//! Retired nodes are simply leaked. This is the performance ceiling used
//! throughout the paper's figures (no per-read cost, no per-op cost, no
//! reclamation work) — and the memory-footprint *floor* of usefulness: in
//! Figure 3 its allocated-not-freed count grows without bound.

use mcsim::Addr;

use crate::api::{RetireBag, Smr, SmrBase};
use crate::env::Env;

/// The leaking non-scheme.
pub struct Leaky;

impl Leaky {
    /// Build (nothing to allocate).
    pub fn new() -> Self {
        Leaky
    }
}

impl Default for Leaky {
    fn default() -> Self {
        Self::new()
    }
}

impl SmrBase for Leaky {
    /// A bag whose retire list stays empty: `none` has no real per-thread
    /// state, but it is the canonical *unbounded* scheme, so its leak must
    /// be measurable on the same axis as everyone else's backlog — and its
    /// orphans must name their thread like everyone else's.
    type Tls = RetireBag;

    fn register(&self, tid: usize) -> Self::Tls {
        // Nothing is ever listed, so the scan cadence never comes due.
        RetireBag::new(tid, u64::MAX)
    }

    fn bag(tls: &RetireBag) -> &RetireBag {
        tls
    }

    fn bag_mut(tls: &mut RetireBag) -> &mut RetireBag {
        tls
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// No per-read cost, no per-op cost (the protection defaults), and a
/// lifecycle that is pure accounting: with nothing published and nothing
/// listed, `depart` hands over the counts and `adopt` merges them — the leak
/// changes owners, not size — after the same token check as everyone's.
impl<E: Env + ?Sized> Smr<E> for Leaky {
    #[inline]
    fn retire(&self, _ctx: &mut E, tls: &mut Self::Tls, _node: Addr) {
        // Leak: never freed. The footprint counter keeps growing, which is
        // exactly what Figure 3 shows for `none`.
        tls.leak();
    }

    fn scan(&self, _ctx: &mut E, _tls: &mut Self::Tls) {}

    fn revoke(&self, _ctx: &mut E, _tid: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::{Machine, MachineConfig};

    #[test]
    fn leaks_forever() {
        let m = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        });
        let s = Leaky::new();
        let garbage = m.run_on(1, |_, ctx| {
            let mut tls = s.register(0);
            for _ in 0..10 {
                s.begin_op(ctx, &mut tls);
                let n = ctx.alloc();
                s.on_alloc(ctx, &mut tls, n);
                ctx.write(n, 1);
                s.retire(ctx, &mut tls, n);
                s.end_op(ctx, &mut tls);
            }
            s.garbage(&tls)
        });
        assert_eq!(m.stats().allocated_not_freed, 10, "nothing is ever freed");
        assert_eq!(garbage[0].retired, 10);
        assert_eq!(garbage[0].freed, 0);
        assert_eq!(garbage[0].peak, 10, "every retire is garbage forever");
    }
}
