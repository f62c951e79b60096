//! Byte-identity regression pin for the Env refactor.
//!
//! The memory-environment abstraction (`casmr::env::Env`) must be
//! *invisible* to the simulator path: routing every shared-memory access of
//! the SMR schemes and structures through the trait may not change a single
//! simulated event. This test pins that contract against goldens captured
//! **before** the refactor: it runs the differential SMR battery shapes
//! (single-threaded histories, concurrent UAF-recorded runs) and a
//! figure-style throughput panel, hashes every simulated result (op logs,
//! final contents, fault counts, `f64` throughput bit patterns, cycle
//! counts), and compares the digests against `tests/goldens/env_pin.txt`.
//! The `width` rows pin the scheduler at thread counts nothing else runs
//! (non-powers of two, 16 and 32) before its rewrite as a winner tree.
//!
//! Simulated results are bit-identical across host execution backends
//! (`tests/quantum_sweep.rs` asserts it), so one golden file serves both
//! `MCSIM_EXEC` legs.
//!
//! Regenerate (only when an *intentional* simulated-behaviour change lands):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test env_pin`

mod common;

use common::{check_golden, Digest};
use conditional_access::sim::machine::Ctx;
use conditional_access::ds::ca::{CaExtBst, CaLazyList, CaQueue, CaStack};
use conditional_access::ds::seqcheck::{walk_bst, walk_list};
use conditional_access::ds::smr::{SmrExtBst, SmrLazyList, SmrQueue, SmrStack};
use conditional_access::ds::{QueueDs, SetDs, StackDs};
use conditional_access::harness::{run, Instrument, Mix, RunConfig, SetKind, Structure};
use conditional_access::sim::{Machine, MachineConfig, Rng, UafMode};
use conditional_access::smr::{
    with_scheme, CrashToken, Orphan, SchemeKind, Smr, SmrBase, SmrConfig,
};

fn machine(cores: usize, uaf: UafMode) -> Machine {
    Machine::new(MachineConfig {
        cores,
        mem_bytes: 32 << 20,
        static_lines: 2048,
        uaf_mode: uaf,
        ..Default::default()
    })
}

fn tight_smr() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 6,
        ..Default::default()
    }
}

// --- battery drivers (same workload shapes as tests/smr_differential.rs) --

fn drive_set_ops<D: for<'m> SetDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    d: &mut Digest,
) {
    let logs = m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let key = 1 + rng.below(range);
            let entry = match rng.below(3) {
                0 => (0u64, key, ds.insert(ctx, &mut tls, key)),
                1 => (1, key, ds.delete(ctx, &mut tls, key)),
                _ => (2, key, ds.contains(ctx, &mut tls, key)),
            };
            log.push(entry);
        }
        log
    });
    for log in logs {
        for (kind, key, ok) in log {
            d.u64(kind);
            d.u64(key);
            d.u64(ok as u64);
        }
    }
}

fn drive_stack_ops<D: for<'m> StackDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    d: &mut Digest,
) {
    let logs = m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let entry = match rng.below(3) {
                0 => {
                    let v = 1 + rng.below(range);
                    ds.push(ctx, &mut tls, v);
                    (0u64, v)
                }
                1 => (1, ds.pop(ctx, &mut tls).map_or(0, |v| v + 1)),
                _ => (2, ds.peek(ctx, &mut tls).map_or(0, |v| v + 1)),
            };
            log.push(entry);
        }
        log
    });
    for log in logs {
        for (kind, v) in log {
            d.u64(kind);
            d.u64(v);
        }
    }
    let drained = m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut out = Vec::new();
        while let Some(v) = ds.pop(ctx, &mut tls) {
            out.push(v);
        }
        out
    });
    d.slice(&drained[0]);
}

fn drive_queue_ops<D: for<'m> QueueDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    d: &mut Digest,
) {
    let logs = m.run_on(threads, |tid, ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ ((tid as u64) << 32));
        let mut log = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let entry = if rng.below(2) == 0 {
                let v = 1 + rng.below(range);
                ds.enqueue(ctx, &mut tls, v);
                (0u64, v)
            } else {
                (1, ds.dequeue(ctx, &mut tls).map_or(0, |v| v + 1))
            };
            log.push(entry);
        }
        log
    });
    for log in logs {
        for (kind, v) in log {
            d.u64(kind);
            d.u64(v);
        }
    }
    let drained = m.run_on(1, |_, ctx| {
        let mut tls = ds.register(0);
        let mut out = Vec::new();
        while let Some(v) = ds.dequeue(ctx, &mut tls) {
            out.push(v);
        }
        out
    });
    d.slice(&drained[0]);
}

/// One battery cell: `(structure, scheme, threads, seed, uaf)` → digest of
/// every simulated result the differential battery would compare.
fn battery_digest(
    structure: &str,
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> u64 {
    let m = machine(threads, uaf);
    let mut d = Digest::new();
    match (structure, scheme) {
        ("lazylist", SchemeKind::Ca) => {
            let ds = CaLazyList::new(&m);
            drive_set_ops(&m, &ds, threads, ops, range, seed, &mut d);
            d.slice(&walk_list(&m, ds.head_node()));
        }
        ("lazylist", _) => with_scheme!(scheme, &m, threads, tight_smr(), |s| {
            let ds = SmrLazyList::new(&m, s);
            drive_set_ops(&m, &ds, threads, ops, range, seed, &mut d);
            d.slice(&walk_list(&m, ds.head_node()));
        }),
        ("extbst", SchemeKind::Ca) => {
            let ds = CaExtBst::new(&m);
            drive_set_ops(&m, &ds, threads, ops, range, seed, &mut d);
            d.slice(&walk_bst(&m, ds.root_node()));
        }
        ("extbst", _) => with_scheme!(scheme, &m, threads, tight_smr(), |s| {
            let ds = SmrExtBst::new(&m, s);
            drive_set_ops(&m, &ds, threads, ops, range, seed, &mut d);
            d.slice(&walk_bst(&m, ds.root_node()));
        }),
        ("stack", SchemeKind::Ca) => {
            let ds = CaStack::new(&m);
            drive_stack_ops(&m, &ds, threads, ops, range, seed, &mut d);
        }
        ("stack", _) => with_scheme!(scheme, &m, threads, tight_smr(), |s| {
            let ds = SmrStack::new(&m, s);
            drive_stack_ops(&m, &ds, threads, ops, range, seed, &mut d);
        }),
        ("queue", SchemeKind::Ca) => {
            let ds = CaQueue::new(&m);
            drive_queue_ops(&m, &ds, threads, ops, range, seed, &mut d);
        }
        ("queue", _) => with_scheme!(scheme, &m, threads, tight_smr(), |s| {
            let ds = SmrQueue::new(&m, s);
            drive_queue_ops(&m, &ds, threads, ops, range, seed, &mut d);
        }),
        _ => unreachable!("unknown structure {structure}"),
    }
    d.u64(m.faults().len() as u64);
    let stats = m.stats();
    d.u64(stats.allocated_not_freed);
    d.u64(stats.peak_allocated);
    d.u64(stats.max_cycles);
    d.0
}

/// The figure-panel cell shape: 50i-50d over 128 keys, 300 ops/thread.
fn panel_cfg(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        key_range: 128,
        prefill: 64,
        ops_per_thread: 300,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        ..Default::default()
    }
}

/// One figure-panel cell through the public harness runner: every simulated
/// metric that feeds the figures, bit-exact (`f64::to_bits`).
fn panel_digest(structure: Structure, scheme: SchemeKind, cfg: &RunConfig) -> u64 {
    let m = run(structure, scheme, cfg, Instrument::None).metrics;
    let mut d = Digest::new();
    d.u64(m.total_ops);
    d.u64(m.cycles);
    d.u64(m.throughput.to_bits());
    d.u64(m.final_allocated);
    d.u64(m.peak_allocated);
    d.u64(m.cread_fail);
    d.u64(m.fences);
    d.0
}

/// One retire/scan alloc→retire operation by logical thread `tls`, `n` times.
fn churn<S: for<'m> Smr<Ctx<'m>>>(s: &S, ctx: &mut Ctx<'_>, tls: &mut S::Tls, n: u64) {
    for _ in 0..n {
        s.begin_op(ctx, tls);
        let node = ctx.alloc();
        s.on_alloc(ctx, tls, node);
        ctx.write(node, 1);
        s.retire(ctx, tls, node);
        s.end_op(ctx, tls);
    }
}

/// One scheme's whole membership lifecycle, as a fixed script on one core
/// acting for three logical threads (the shape of `casmr`'s
/// `crash_adopt_drains`): a victim protects a node mid-operation and
/// fail-stops with a non-empty retire list, a writer churns past
/// `reclaim_freq` behind that protection and crash-adopts the victim with a
/// token, a third thread `join`s, the writer `depart`s gracefully and the
/// third adopts it, slot 0 is re-`join`ed, departs again, and the last
/// member's depart drains. The battery and panel rows above reach
/// `begin_op`/`read_ptr`/`retire`/scan only; this is the one cycle-level
/// pin of `depart`, both `adopt` legs and `join`.
fn lifecycle_digest(scheme: SchemeKind) -> u64 {
    let m = machine(1, UafMode::Panic);
    let mailbox = m.alloc_static(1);
    let garbage = with_scheme!(scheme, &m, 3, tight_smr(), |s| {
        m.run_on(1, |_, ctx| {
            let mut writer = s.register(0);
            let mut victim = s.register(1);
            // Below reclaim_freq: the victim dies holding three retires.
            churn(&s, ctx, &mut victim, 3);
            let a = ctx.alloc();
            s.on_alloc(ctx, &mut writer, a);
            ctx.write(a, 7);
            ctx.write(mailbox, a.0);
            s.begin_op(ctx, &mut victim);
            assert_eq!(s.read_ptr(ctx, &mut victim, 0, mailbox), a.0);
            churn(&s, ctx, &mut writer, 20);
            // SAFETY: `victim` is a logical thread driven only by this
            // closure and never driven again — the fail-stop fact itself.
            let token = unsafe { CrashToken::assert_fail_stop(1) };
            s.adopt(ctx, &mut writer, Orphan::crashed(victim, token));
            ctx.write(mailbox, 0);
            s.begin_op(ctx, &mut writer);
            s.retire(ctx, &mut writer, a);
            s.end_op(ctx, &mut writer);
            let mut third = s.join(ctx, 2);
            churn(&s, ctx, &mut third, 6);
            let departed = s.depart(ctx, writer);
            s.adopt(ctx, &mut third, departed);
            let mut back = s.join(ctx, 0);
            churn(&s, ctx, &mut back, 5);
            churn(&s, ctx, &mut third, 3);
            let departed = s.depart(ctx, back);
            s.adopt(ctx, &mut third, departed);
            let last = s.depart(ctx, third);
            s.garbage(last.tls())
        })
    });
    let stats = m.stats();
    let mut d = Digest::new();
    d.u64(stats.max_cycles);
    for core in &stats.cores {
        d.u64(core.fences);
    }
    d.u64(stats.allocated_not_freed);
    d.u64(stats.peak_allocated);
    let g = &garbage[0];
    for v in [g.retired, g.freed, g.live, g.peak] {
        d.u64(v);
    }
    d.0
}

const SEEDS: [u64; 3] = [0xD1FF, 0x5EED5, 0xFACADE];
const STRUCTURES: [&str; 4] = ["lazylist", "extbst", "stack", "queue"];

/// Compute every pinned digest, as `(label, hash)` lines.
fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    // Single-threaded history legs (the battery's oracle-equality shape).
    for structure in STRUCTURES {
        for scheme in SchemeKind::ALL {
            for seed in SEEDS {
                let h = battery_digest(structure, scheme, 1, 400, 48, seed, UafMode::Panic);
                out.push((format!("battery1 {structure} {scheme} {seed:#x}"), h));
            }
        }
    }
    // Concurrent UAF-recorded legs (one seed per cell: runtime-bounded).
    for structure in STRUCTURES {
        for scheme in SchemeKind::ALL {
            let h = battery_digest(structure, scheme, 4, 250, 48, SEEDS[0], UafMode::Record);
            out.push((format!("battery4 {structure} {scheme} {:#x}", SEEDS[0]), h));
        }
    }
    // Figure panel: lazy list 50i-50d, all schemes × {1, 2, 4} threads.
    for scheme in SchemeKind::ALL {
        for threads in [1usize, 2, 4] {
            let h = panel_digest(Structure::Set(SetKind::LazyList), scheme, &panel_cfg(threads));
            out.push((format!("panel lazylist {scheme} t{threads}"), h));
        }
    }
    // Membership lifecycle, one row per scheme object (CA has none).
    for scheme in SchemeKind::objects() {
        out.push((format!("lifecycle {scheme}"), lifecycle_digest(scheme)));
    }
    // Scheduler widths the rows above and the benchmark (8 cores) never
    // reach: non-powers of two and more than 8 cores, at quantum 0 (a turn
    // move per event) and 64, on the panel shape and a Treiber stack.
    for threads in [3usize, 5, 16, 32] {
        let ops_per_thread = if threads > 8 { 100 } else { 300 };
        for quantum in [0u64, 64] {
            for scheme in [SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::Hp] {
                for structure in [Structure::Set(SetKind::LazyList), Structure::Stack] {
                    let cfg = RunConfig {
                        quantum,
                        ops_per_thread,
                        ..panel_cfg(threads)
                    };
                    let h = panel_digest(structure, scheme, &cfg);
                    let name = structure.name();
                    out.push((format!("width {name} {scheme} t{threads} q{quantum}"), h));
                }
            }
        }
    }
    out
}

fn render(digests: &[(String, u64)]) -> String {
    let mut s = String::new();
    for (label, h) in digests {
        s.push_str(&format!("{label} = {h:#018x}\n"));
    }
    s
}

#[test]
fn simulated_results_match_pre_refactor_goldens() {
    check_golden(
        "env_pin.txt",
        &render(&all_digests()),
        "simulated results diverged from the pre-refactor goldens (the Env \
         layer must be invisible to the simulator path)",
    );
}
