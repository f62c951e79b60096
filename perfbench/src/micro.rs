//! Per-layer micro measurements, taken from outside each layer by timing
//! calls into its public functions.
//!
//! The eight `mcsim` bodies follow `crates/cabench/benches/micro_sim.rs`
//! (the seed of this ledger), with batches of ≥10 000 events so one span
//! covers one batch. `.host_ns` / `.native_ns` / `.host_us` rows are wall
//! medians over the batches; `.sim_cycles` rows are simulated cycles and
//! repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use caharness::{sweep, Histogram, Metrics, Mix, RunConfig, SetKind};
use casmr::{
    Env, EnvHost, He, Hp, Ibr, Leaky, NativeMachine, Qsbr, Rcu, SchemeKind, Smr, SmrConfig,
};
use mcsim::machine::Ctx;
use mcsim::{Addr, CacheConfig, ExecBackend, Machine, MachineConfig, LINE_BYTES};

use crate::spec::{CADS_SCHEMES, CADS_STRUCTS, P99_SCHEMES, SOFT_SCHEMES};
use crate::stats::{highest_percentile, median};
use crate::trace::Tracer;
use crate::workloads::{Scale, GRID_THREADS};
use crate::Checks;

/// Per-layer metric values by name.
pub type Ledger = BTreeMap<String, f64>;

/// Everything a micro needs: where to record spans, values and checks.
pub struct Bench<'a> {
    /// Span recorder.
    pub tracer: &'a mut Tracer,
    /// Metric values.
    pub ledger: &'a mut Ledger,
    /// Correctness checks.
    pub checks: &'a mut Checks,
    /// Batch sizes and repetition counts.
    pub scale: Scale,
}

impl Bench<'_> {
    /// Median wall nanoseconds of `batch` over the scale's repetitions (one
    /// span each, after one untimed warm-up), plus the last batch's result.
    /// `prepare` runs before every batch, outside the timed interval.
    fn timed<R>(
        &mut self,
        span: &str,
        prepare: impl FnMut(),
        batch: impl FnMut() -> R,
    ) -> (f64, R) {
        self.timed_n(span, self.scale.micro_reps, prepare, batch)
    }

    /// [`Self::timed`] with at most `reps` repetitions, for batches that
    /// take tens of milliseconds or more.
    fn timed_n<R>(
        &mut self,
        span: &str,
        reps: usize,
        mut prepare: impl FnMut(),
        mut batch: impl FnMut() -> R,
    ) -> (f64, R) {
        let reps = reps.min(self.scale.micro_reps);
        prepare();
        let mut last = black_box(batch());
        let mut walls = Vec::with_capacity(reps);
        for _ in 0..reps {
            prepare();
            let id = self.tracer.begin(span);
            let t0 = Instant::now();
            last = black_box(batch());
            walls.push(t0.elapsed().as_nanos() as f64);
            self.tracer.end(id);
        }
        (median(&walls), last)
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.ledger.insert(name.into(), value);
    }
}

fn machine(cores: usize, static_lines: u64, quantum: u64, exec: ExecBackend) -> Machine {
    Machine::new(MachineConfig {
        cores,
        mem_bytes: 32 << 20,
        static_lines,
        quantum,
        exec,
        ..Default::default()
    })
}

/// Every micro, in layer order.
pub fn run_all(b: &mut Bench) {
    mcsim_events(b);
    mcsim_scheduler(b);
    mcsim_host_calls(b);
    casmr_primitives(b);
    casmr_native_machine(b);
    cads_structure_ops(b);
    cads_tail_latency(b);
    caharness_overheads(b);
}

/// One event class on one simulated core: host nanoseconds and simulated
/// cycles per event. `body` issues `n` events and returns the cycles they
/// took.
fn one_core_event(
    b: &mut Bench,
    name: &str,
    m: &Machine,
    body: impl Fn(&mut Ctx, u64) -> u64 + Sync,
) {
    let n = b.scale.micro_batch;
    let (wall, cycles) = b.timed(
        &format!("mcsim.{name}"),
        || m.reset_timing(),
        || m.run_on(1, |_, ctx| body(ctx, n))[0],
    );
    b.set(format!("mcsim.{name}.host_ns"), wall / n as f64);
    b.set(format!("mcsim.{name}.sim_cycles"), cycles as f64 / n as f64);
}

/// Read `n` lines of a `lines`-line working set round-robin, returning the
/// cycles taken. A cyclic sweep larger than an LRU cache misses it on every
/// access; `cursor` carries the position from batch to batch so the cycle
/// never restarts on recently used lines.
fn sweep_lines(ctx: &mut Ctx, base: Addr, lines: u64, cursor: &AtomicU64, n: u64) -> u64 {
    let start = cursor.fetch_add(n, Ordering::Relaxed);
    let t0 = ctx.now();
    for i in start..start + n {
        black_box(ctx.read(base.word((i % lines) * (LINE_BYTES / 8))));
    }
    ctx.now() - t0
}

fn mcsim_events(b: &mut Bench) {
    let n = b.scale.micro_batch;
    let cache = CacheConfig::default();
    let l1_lines = (cache.l1_bytes as u64) / LINE_BYTES;
    let l2_lines = (cache.l2_bytes as u64) / LINE_BYTES;

    let m = machine(1, 4 * l2_lines, 64, ExecBackend::Auto);
    let a = m.alloc_static(1);
    one_core_event(b, "l1_hit", &m, |ctx, n| {
        let t0 = ctx.now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(ctx.read(a));
        }
        black_box(acc);
        ctx.now() - t0
    });
    let hits = m.stats().sum(|c| c.l1_hits);
    b.checks.check(hits >= n - 1, || {
        format!("l1_hit micro: {hits} L1 hits of {n} reads")
    });

    one_core_event(b, "cread_hit", &m, |ctx, n| {
        let t0 = ctx.now();
        for _ in 0..n {
            black_box(ctx.cread(a));
        }
        let dt = ctx.now() - t0;
        ctx.untag_all();
        dt
    });
    let s = m.stats();
    b.checks.check(s.sum(|c| c.cread_fail) == 0, || {
        "cread_hit micro: a cread failed".into()
    });

    // Twice the L1, half the L2: every access misses L1 and hits L2.
    let l2_set = m.alloc_static(2 * l1_lines);
    let cursor = AtomicU64::new(0);
    m.run_on(1, |_, ctx| {
        sweep_lines(ctx, l2_set, 2 * l1_lines, &cursor, 2 * l1_lines)
    });
    one_core_event(b, "l2_fill", &m, |ctx, n| {
        sweep_lines(ctx, l2_set, 2 * l1_lines, &cursor, n)
    });
    let l2_hits = m.stats().sum(|c| c.l2_hits);
    b.checks.check(l2_hits == n, || {
        format!("l2_fill micro: {l2_hits} L2 hits of {n} reads")
    });

    // Twice the L2: every access goes to memory.
    let mem_set = m.alloc_static(2 * l2_lines);
    let cursor = AtomicU64::new(0);
    one_core_event(b, "mem_fill", &m, |ctx, n| {
        sweep_lines(ctx, mem_set, 2 * l2_lines, &cursor, n)
    });
    let fills = m.stats().sum(|c| c.mem_accesses);
    b.checks.check(fills == n, || {
        format!("mem_fill micro: {fills} memory fills of {n} reads")
    });

    one_core_event(b, "alloc_free", &m, |ctx, n| {
        let t0 = ctx.now();
        for _ in 0..n {
            let node = ctx.alloc();
            ctx.free(node);
        }
        ctx.now() - t0
    });
    let live = m.stats().allocated_not_freed;
    b.checks.check(live == 0, || {
        format!("alloc_free micro leaked {live} nodes")
    });

    let (wall, ()) = b.timed(
        "mcsim.untag_all",
        || (),
        || {
            m.run_on(1, |_, ctx| {
                for _ in 0..n {
                    ctx.untag_all();
                }
            });
        },
    );
    b.set("mcsim.untag_all.host_ns", wall / n as f64);

    // Two cores incrementing one word by CAS: every success invalidates the
    // other core's copy.
    let m2 = machine(2, 64, 64, ExecBackend::Auto);
    let word = m2.alloc_static(1);
    let per_core = n / 2;
    let (wall, cycles) = b.timed(
        "mcsim.invalidation",
        || m2.reset_timing(),
        || {
            m2.run_on(2, |_, ctx| {
                let t0 = ctx.now();
                for _ in 0..per_core {
                    loop {
                        let v = ctx.read(word);
                        if ctx.cas(word, v, v + 1).is_ok() {
                            break;
                        }
                    }
                }
                ctx.now() - t0
            })
        },
    );
    b.set("mcsim.invalidation.host_ns", wall / (2 * per_core) as f64);
    b.set(
        "mcsim.invalidation.sim_cycles",
        cycles.iter().sum::<u64>() as f64 / (2 * per_core) as f64,
    );
    let sent = m2.stats().sum(|c| c.invalidations_sent);
    b.checks.check(sent > 0, || {
        "invalidation micro sent no invalidations".into()
    });
}

/// Four cores reading one shared line: the scheduler's cost per event when
/// (quantum 0) nearly every event hands the turn over, on both execution
/// backends, and when (quantum 1024) nearly every event keeps it.
fn mcsim_scheduler(b: &mut Bench) {
    let per_core = b.scale.micro_batch / 4;
    for (name, quantum, exec) in [
        ("handoff_q0", 0, ExecBackend::Auto),
        ("handoff_q0_threads", 0, ExecBackend::Threads),
        ("batched_q1024", 1024, ExecBackend::Auto),
    ] {
        let m = machine(4, 64, quantum, exec);
        let a = m.alloc_static(1);
        let (wall, ()) = b.timed_n(
            &format!("mcsim.{name}"),
            5,
            || m.reset_timing(),
            || {
                m.run_on(4, |_, ctx| {
                    for _ in 0..per_core {
                        black_box(ctx.read(a));
                    }
                });
            },
        );
        b.set(
            format!("mcsim.{name}.host_ns"),
            wall / (4 * per_core) as f64,
        );
        let s = m.stats();
        let (batched, handoffs) = (s.sum(|c| c.batched_events), s.sum(|c| c.turn_handoffs));
        b.checks.check((quantum == 0) == (handoffs > batched), || {
            format!("{name} micro: {batched} batched events vs {handoffs} handoffs")
        });
    }
}

fn mcsim_host_calls(b: &mut Bench) {
    let cfg = RunConfig {
        threads: 8,
        ..Default::default()
    }
    .machine_config();
    let calls = (b.scale.micro_batch / 500).max(2);
    let (wall, ()) = b.timed(
        "mcsim.machine_new",
        || (),
        || {
            for _ in 0..calls {
                black_box(Machine::new(cfg.clone()));
            }
        },
    );
    b.set("mcsim.machine_new.host_us", wall / calls as f64 / 1e3);

    let m = Machine::new(cfg);
    let calls = (b.scale.micro_batch / 50).max(2);
    let (wall, ()) = b.timed(
        "mcsim.run_on_empty",
        || (),
        || {
            for _ in 0..calls {
                m.run_on(8, |_, _| ());
            }
        },
    );
    b.set("mcsim.run_on_empty.host_us", wall / calls as f64 / 1e3);

    let (wall, ()) = b.timed(
        "mcsim.stats_snapshot",
        || (),
        || {
            for _ in 0..calls {
                black_box(m.stats());
            }
        },
    );
    b.set("mcsim.stats_snapshot.host_us", wall / calls as f64 / 1e3);

    let stats = m.stats();
    let calls = b.scale.micro_batch;
    let (wall, ()) = b.timed(
        "caharness.metrics_from_stats",
        || (),
        || {
            for _ in 0..calls {
                black_box(Metrics::from_stats("x", 8, black_box(&stats), Vec::new()));
            }
        },
    );
    b.set(
        "caharness.metrics_from_stats.host_us",
        wall / calls as f64 / 1e3,
    );
}

/// The scheme primitives a micro times.
#[derive(Clone, Copy)]
enum Prim {
    /// One protected pointer read (`read_ptr`).
    Protect,
    /// `begin_op` + `end_op`.
    OpBracket,
    /// `alloc` + `on_alloc` + `retire` inside an op bracket: every
    /// `reclaim_freq`-th one scans and frees, so the per-call figure is the
    /// amortised retire cost (allocator calls and bracket included).
    RetireLoop,
}

/// `n` back-to-back calls of one primitive on thread 0; returns the time
/// they took on the environment's own clock — simulated cycles on the
/// simulator, wall nanoseconds natively — so one body serves both columns.
fn prim_batch<E: Env + ?Sized, S: Smr<E>>(
    env: &mut E,
    s: &S,
    prim: Prim,
    field: Addr,
    n: u64,
) -> u64 {
    let mut tls = s.register(0);
    let target = env.alloc();
    s.on_alloc(env, &mut tls, target);
    env.write(field, target.0);
    let t0 = env.now();
    match prim {
        Prim::Protect => {
            s.begin_op(env, &mut tls);
            for _ in 0..n {
                black_box(s.read_ptr(env, &mut tls, 0, field));
            }
            s.end_op(env, &mut tls);
        }
        Prim::OpBracket => {
            for _ in 0..n {
                s.begin_op(env, &mut tls);
                s.end_op(env, &mut tls);
            }
        }
        Prim::RetireLoop => {
            for _ in 0..n {
                s.begin_op(env, &mut tls);
                let node = env.alloc();
                s.on_alloc(env, &mut tls, node);
                s.retire(env, &mut tls, node);
                s.end_op(env, &mut tls);
            }
        }
    }
    env.now() - t0
}

/// Build software scheme `$kind` on `$host` for `$threads` threads and run
/// `$body` with it (the harness's own dispatch macro is private).
macro_rules! with_soft_scheme {
    ($host:expr, $threads:expr, $kind:expr, |$s:ident| $body:expr) => {
        match $kind {
            SchemeKind::None => {
                let $s = Leaky::new();
                $body
            }
            SchemeKind::Qsbr => {
                let $s = Qsbr::new($host, $threads, SmrConfig::default());
                $body
            }
            SchemeKind::Rcu => {
                let $s = Rcu::new($host, $threads, SmrConfig::default());
                $body
            }
            SchemeKind::Ibr => {
                let $s = Ibr::new($host, $threads, SmrConfig::default());
                $body
            }
            SchemeKind::Hp => {
                let $s = Hp::new($host, $threads, SmrConfig::default());
                $body
            }
            SchemeKind::He => {
                let $s = He::new($host, $threads, SmrConfig::default());
                $body
            }
            SchemeKind::Ca => unreachable!("CA has no scheme object"),
        }
    };
}

/// `protect`, `op_bracket` and `retire_scan` per software scheme: simulated
/// cycles on an 8-thread scheme instance (scans cover 8 threads' slots, as
/// in the simulated workloads) and wall nanoseconds on a 2-thread native
/// one (as in `native_update`). `retire_scan` is the retire loop minus the
/// op bracket it runs in.
fn casmr_primitives(b: &mut Bench) {
    let n = b.scale.micro_batch;
    // Room for the leaky scheme's never-freed nodes over every batch.
    let leak_lines = n * (b.scale.micro_reps as u64 + 2) * 2 + 8192;
    for name in SOFT_SCHEMES {
        let kind = SchemeKind::parse(name).expect("SOFT_SCHEMES holds legend names");
        let mut sim = [0.0; 3];
        let mut native = [0.0; 3];
        for (i, prim) in [Prim::Protect, Prim::OpBracket, Prim::RetireLoop]
            .into_iter()
            .enumerate()
        {
            let m = machine(8, 4096, 64, ExecBackend::Auto);
            let field = m.alloc_static(1);
            sim[i] = with_soft_scheme!(&m, 8, kind, |s| {
                let span = b.tracer.begin(&format!("casmr.sim[{name}]"));
                let cycles = m.run_on(1, |_, ctx| prim_batch(ctx, &s, prim, field, n))[0];
                b.tracer.end(span);
                cycles as f64 / n as f64
            });

            let nm = NativeMachine::new(leak_lines as usize);
            let field = nm.alloc_static(1);
            native[i] = with_soft_scheme!(&nm, 2, kind, |s| {
                let span = format!("casmr.native[{name}]");
                let (_, ns) = b.timed(
                    &span,
                    || (),
                    || nm.run_on(1, |_, env| prim_batch(env, &s, prim, field, n))[0],
                );
                ns as f64 / n as f64
            });
        }
        for (i, prim) in ["protect", "op_bracket"].into_iter().enumerate() {
            b.set(format!("casmr.{name}.{prim}.sim_cycles"), sim[i]);
            b.set(format!("casmr.{name}.{prim}.native_ns"), native[i]);
        }
        b.set(
            format!("casmr.{name}.retire_scan.sim_cycles"),
            (sim[2] - sim[1]).max(0.0),
        );
        b.set(
            format!("casmr.{name}.retire_scan.native_ns"),
            (native[2] - native[1]).max(0.0),
        );
    }
}

/// The native environment itself: its allocator, the cost of spawning a
/// run's host threads, and one short two-thread list run per scheme.
fn casmr_native_machine(b: &mut Bench) {
    let n = b.scale.micro_batch;
    let nm = NativeMachine::new(8192);
    let (_, ns) = b.timed(
        "casmr.native.alloc_free",
        || (),
        || {
            nm.run_on(1, |_, env| {
                let t0 = env.now();
                for _ in 0..n {
                    let node = env.alloc();
                    env.free(node);
                }
                env.now() - t0
            })[0]
        },
    );
    b.set("casmr.native.alloc_free.native_ns", ns as f64 / n as f64);
    let s = nm.stats();
    b.checks.check(
        s.allocated - s.freed == s.allocated_not_freed && s.allocated_not_freed == 0,
        || {
            format!(
                "native pool ledger: {} allocated - {} freed != {} live",
                s.allocated, s.freed, s.allocated_not_freed
            )
        },
    );

    let calls = (n / 500).max(2);
    let (wall, ()) = b.timed(
        "casmr.native.run_on_spawn",
        || (),
        || {
            for _ in 0..calls {
                nm.run_on(2, |_, _| ());
            }
        },
    );
    b.set(
        "casmr.native.run_on_spawn.host_us",
        wall / calls as f64 / 1e3,
    );

    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 3 * n,
        seed: 0xC0FFEE,
        gangs: 1,
        ..Default::default()
    };
    for name in SOFT_SCHEMES {
        let kind = SchemeKind::parse(name).expect("SOFT_SCHEMES holds legend names");
        let span = format!("caharness.run_set_native[{name}]");
        let (_, m) = b.timed_n(
            &span,
            3,
            || (),
            || caharness::run_set_native(SetKind::LazyList, kind, &cfg),
        );
        b.set(
            format!("casmr.{name}.native_ns_per_op"),
            native_ns_per_op(&m),
        );
    }
}

/// Wall nanoseconds one host thread spends per operation in a native run
/// (`Metrics::cycles` holds wall nanoseconds there).
pub fn native_ns_per_op(m: &Metrics) -> f64 {
    m.cycles as f64 * m.threads as f64 / m.total_ops.max(1) as f64
}

fn run_structure(st: &str, scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
    match st {
        "lazylist" => caharness::run_set(SetKind::LazyList, scheme, cfg),
        "extbst" => caharness::run_set(SetKind::ExtBst, scheme, cfg),
        "hashtable" => caharness::run_set(SetKind::HashTable, scheme, cfg),
        "stack" => caharness::run_stack(scheme, cfg),
        "queue" => caharness::run_queue(scheme, cfg),
        other => unreachable!("unknown structure {other}"),
    }
}

/// One structure operation at **one simulated thread**, so no other core's
/// work is interleaved: (`run_*` at N ops − `run_*` at 0 ops) ÷ N.
fn cads_structure_ops(b: &mut Bench) {
    let n = b.scale.reference_ops;
    let base = RunConfig {
        threads: 1,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        seed: 0xC0FFEE,
        gangs: 1,
        ..Default::default()
    };
    for st in CADS_STRUCTS {
        for name in CADS_SCHEMES {
            let scheme = SchemeKind::parse(name).expect("CADS_SCHEMES holds legend names");
            let span = format!("caharness.run_{st}[{name}]");
            let cfg_n = RunConfig {
                ops_per_thread: n,
                ..base.clone()
            };
            let cfg_0 = RunConfig {
                ops_per_thread: 0,
                ..base.clone()
            };
            let (wall_n, m_n) = b.timed_n(&span, 5, || (), || run_structure(st, scheme, &cfg_n));
            let (wall_0, m_0) = b.timed_n(&span, 5, || (), || run_structure(st, scheme, &cfg_0));
            b.checks
                .check(m_n.total_ops == n && m_0.total_ops == 0, || {
                    format!("cads.{st}.{name}: {} ops completed of {n}", m_n.total_ops)
                });
            b.set(
                format!("cads.{st}.{name}.sim_cycles_per_op"),
                (m_n.cycles - m_0.cycles) as f64 / n as f64,
            );
            b.set(
                format!("cads.{st}.{name}.host_ns_per_op"),
                ((wall_n - wall_0) / n as f64).max(0.0),
            );
        }
    }
}

/// The abstract's "long program interruptions": p99 of one hash-table
/// operation in simulated cycles, 8 threads, all updates. At least 1000
/// operations are sampled, so at least ten lie beyond the percentile.
fn cads_tail_latency(b: &mut Bench) {
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: (b.scale.micro_batch / 5).max(125),
        seed: 0xC0FFEE,
        gangs: 1,
        ..Default::default()
    };
    for name in P99_SCHEMES {
        let scheme = SchemeKind::parse(name).expect("P99_SCHEMES holds legend names");
        let span = b
            .tracer
            .begin(&format!("caharness.run_set_latency[{name}]"));
        let (_, hist) = caharness::run_set_latency(SetKind::HashTable, scheme, &cfg);
        b.tracer.end(span);
        b.checks
            .check(highest_percentile(hist.count()) >= Some(99.0), || {
                format!(
                    "p99 of {} samples has fewer than ten beyond it",
                    hist.count()
                )
            });
        b.set(
            format!("cads.hashtable.{name}.sim_p99_op_cycles"),
            hist.quantile(0.99) as f64,
        );
    }
}

fn caharness_overheads(b: &mut Bench) {
    let prefill = RunConfig {
        threads: 8,
        ops_per_thread: 0,
        seed: 0xC0FFEE,
        gangs: 1,
        ..Default::default()
    };
    let (wall, _) = b.timed_n(
        "caharness.run_set[prefill_only]",
        5,
        || (),
        || caharness::run_set(SetKind::LazyList, SchemeKind::Ca, &prefill),
    );
    b.set("caharness.prefill_only.host_ms", wall / 1e6);

    // Per-task dispatch cost on the serial path (boxed call, unwind guard,
    // progress bump). Trivial tasks on two workers are not timed: both
    // workers drain at the same instant, which is exactly the window in
    // which `sweep`'s steal loop (own deque locked while locking the
    // victim's) can deadlock.
    let tasks = (b.scale.micro_batch / 10).max(10) as usize;
    sweep::set_jobs(1);
    let (wall, sum) = b.timed(
        "caharness.sweep.run[trivial]",
        || (),
        || {
            let list: Vec<sweep::Task<usize>> = (0..tasks)
                .map(|i| Box::new(move || i) as sweep::Task<usize>)
                .collect();
            sweep::run("trivial", list).into_iter().sum::<usize>()
        },
    );
    b.checks.check(sum == tasks * (tasks - 1) / 2, || {
        "sweep lost or reordered a trivial task".into()
    });
    b.set(
        "caharness.sweep.task_overhead_us",
        wall / tasks as f64 / 1e3,
    );

    // Half the historical grid's columns at a fifth of its length, one
    // worker against two.
    let grid_ops = (b.scale.micro_batch / 100).max(4);
    let grid = |jobs: usize| {
        sweep::set_jobs(jobs);
        sweep::grid(
            "speedup",
            &SchemeKind::ALL,
            &GRID_THREADS[2..],
            |&scheme, &threads| {
                let cfg = RunConfig {
                    threads,
                    ops_per_thread: grid_ops,
                    seed: 0xC0FFEE,
                    gangs: 1,
                    ..Default::default()
                };
                caharness::run_set(SetKind::LazyList, scheme, &cfg).cycles
            },
        )
    };
    let (wall_1, cycles_1) = b.timed_n("caharness.sweep.grid[jobs1]", 3, || (), || grid(1));
    let (wall_2, cycles_2) = b.timed_n("caharness.sweep.grid[jobs2]", 3, || (), || grid(2));
    sweep::set_jobs(0);
    b.checks.check(cycles_1 == cycles_2, || {
        "sweep results differ between jobs 1 and jobs 2".into()
    });
    b.set("caharness.sweep.speedup_jobs2", wall_1 / wall_2);

    let n = b.scale.micro_batch;
    let (wall, count) = b.timed(
        "caharness.hist.record",
        || (),
        || {
            let mut h = Histogram::new();
            for i in 0..n {
                h.record(black_box(i.wrapping_mul(0x9E37_79B9) & 0xF_FFFF));
            }
            h.count()
        },
    );
    b.checks.check(count == n, || {
        format!("histogram recorded {count} of {n} values")
    });
    b.set("caharness.hist.record_ns", wall / n as f64);
}
