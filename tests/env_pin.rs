//! Byte-identity regression pin for the Env refactor.
//!
//! The memory-environment abstraction (`casmr::env::Env`) must be
//! *invisible* to the simulator path: routing every shared-memory access of
//! the SMR schemes and structures through the trait may not change a single
//! simulated event. This test pins that contract against goldens captured
//! **before** the refactor: it runs the shared differential battery
//! (`common::battery`, the cells `smr_differential` asserts on:
//! single-threaded histories, concurrent UAF-recorded runs) and a
//! figure-style throughput panel, hashes every simulated result (op logs,
//! final contents, fault counts, `f64` throughput bit patterns, cycle
//! counts), and compares the digests against `tests/goldens/env_pin.txt`.
//! The `battery1`/`battery4` rows were recorded from hand-written op loops
//! that the shared battery replaced, so they also prove it replays the
//! same op streams.
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

use common::{battery, battery_machine, check_golden, digest_op, tight_smr, Digest};
use conditional_access::harness::{run, Mix, RunConfig, SetKind, Structure};
use conditional_access::sim::machine::Ctx;
use conditional_access::sim::UafMode;
use conditional_access::smr::{with_scheme, CrashToken, Orphan, SchemeKind, Smr, SmrBase};

/// One battery cell → digest of everything it returns: every op with its
/// result, the final contents, the fault count and the machine's
/// allocation and cycle totals.
fn battery_digest(
    structure: &str,
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
    uaf: UafMode,
) -> u64 {
    let cell = battery(
        &battery_machine(threads, uaf),
        structure,
        scheme,
        threads,
        ops,
        range,
        seed,
    );
    let mut d = Digest::new();
    for &op in cell.history.iter().flatten() {
        digest_op(op, &mut d);
    }
    d.slice(&cell.contents);
    d.u64(cell.faults as u64);
    d.u64(cell.stats.allocated_not_freed);
    d.u64(cell.stats.peak_allocated);
    d.u64(cell.stats.max_cycles);
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
    let o = run(structure, scheme, cfg);
    let m = &o.metrics;
    let mut d = Digest::new();
    d.u64(m.total_ops);
    d.u64(m.cycles);
    d.u64(m.throughput.to_bits());
    d.u64(m.final_allocated);
    d.u64(m.peak_allocated);
    d.u64(o.stats.sum(|c| c.cread_fail));
    d.u64(o.stats.sum(|c| c.fences));
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
    let m = battery_machine(1, UafMode::Panic);
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
            let h = panel_digest(
                Structure::Set(SetKind::LazyList),
                scheme,
                &panel_cfg(threads),
            );
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
