//! Stack and queue stress: value conservation across every reclamation
//! configuration (UAF detector armed).
//!
//! Every pushed/enqueued value carries a unique (thread, sequence) stamp;
//! at the end, {values removed} ∪ {values drained} must equal exactly the
//! multiset of values added — any ABA corruption, lost node, or double pop
//! breaks the equality.

mod common;

use common::machine;
use conditional_access::sim::machine::Ctx;
use conditional_access::ds::ca::{CaQueue, CaStack};
use conditional_access::ds::smr::{SmrQueue, SmrStack};
use conditional_access::ds::{QueueDs, StackDs};
use conditional_access::sim::{Machine, Rng};
use conditional_access::smr::{with_scheme, SchemeKind, SmrConfig};

const THREADS: usize = 4;
const OPS: u64 = 300;

fn tight_smr() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 3,
        epoch_freq: 5,
        ..Default::default()
    }
}

fn conserve_stack<D: for<'m> StackDs<Ctx<'m>>>(m: &Machine, ds: &D, seed: u64) {
    let outs = m.run_on(THREADS, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed + tid as u64);
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for i in 0..OPS {
            match rng.below(3) {
                0 | 1 => {
                    let v = (tid as u64) << 32 | i;
                    ds.push(ctx, &mut tls, v);
                    pushed.push(v);
                }
                _ => {
                    if let Some(v) = ds.pop(ctx, &mut tls) {
                        popped.push(v);
                    }
                }
            }
        }
        (pushed, popped)
    });
    let mut pushed: Vec<u64> = Vec::new();
    let mut removed: Vec<u64> = Vec::new();
    for (pu, po) in outs {
        pushed.extend(pu);
        removed.extend(po);
    }
    let drained = m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut got = Vec::new();
        while let Some(v) = ds.pop(ctx, &mut tls) {
            got.push(v);
        }
        got
    });
    removed.extend(drained.into_iter().flatten());
    pushed.sort_unstable();
    removed.sort_unstable();
    assert_eq!(pushed, removed, "value conservation violated");
    m.check_invariants();
}

fn conserve_queue<D: for<'m> QueueDs<Ctx<'m>>>(m: &Machine, ds: &D, seed: u64) {
    let outs = m.run_on(THREADS, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed + tid as u64);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for i in 0..OPS {
            if rng.below(2) == 0 {
                let v = (tid as u64) << 32 | i;
                ds.enqueue(ctx, &mut tls, v);
                added.push(v);
            } else if let Some(v) = ds.dequeue(ctx, &mut tls) {
                removed.push(v);
            }
        }
        (added, removed)
    });
    let mut added: Vec<u64> = Vec::new();
    let mut removed: Vec<u64> = Vec::new();
    for (a, r) in outs {
        added.extend(a);
        removed.extend(r);
    }
    let drained = m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut got = Vec::new();
        while let Some(v) = ds.dequeue(ctx, &mut tls) {
            got.push(v);
        }
        got
    });
    removed.extend(drained.into_iter().flatten());
    added.sort_unstable();
    removed.sort_unstable();
    assert_eq!(added, removed, "value conservation violated");
    m.check_invariants();
}

#[test]
fn ca_stack_conserves() {
    let m = machine(THREADS, 0);
    let ds = CaStack::new(&m);
    conserve_stack(&m, &ds, 100);
    assert_eq!(m.stats().allocated_not_freed, 0, "all nodes freed");
}

#[test]
fn ca_queue_conserves() {
    let m = machine(THREADS, 0);
    let ds = CaQueue::new(&m);
    conserve_queue(&m, &ds, 200);
    assert_eq!(m.stats().allocated_not_freed, 1, "only the dummy remains");
}

#[test]
fn smr_stack_conserves_all_schemes() {
    for (kind, seed) in SchemeKind::objects().zip(1..) {
        let m = machine(THREADS, 0);
        with_scheme!(kind, &m, THREADS, tight_smr(), |s| {
            conserve_stack(&m, &SmrStack::new(&m, s), seed)
        });
    }
}

#[test]
fn smr_queue_conserves_all_schemes() {
    for (kind, seed) in SchemeKind::objects().zip(11..) {
        let m = machine(THREADS, 0);
        with_scheme!(kind, &m, THREADS, tight_smr(), |s| {
            conserve_queue(&m, &SmrQueue::new(&m, s), seed)
        });
    }
}

#[test]
fn ca_stack_heavy_contention_quanta() {
    // All threads hammer the same top cell under three different
    // interleaving granularities.
    for quantum in [0, 64, 1024] {
        let m = machine(THREADS, quantum);
        let ds = CaStack::new(&m);
        conserve_stack(&m, &ds, 7000 + quantum);
    }
}
