//! One benchmark run of one workload: set-up, timed passes, correctness
//! checks, and the metrics derived from them.

use std::collections::BTreeSet;
use std::time::Instant;

use caharness::{Metrics, RunConfig, SetKind};
use casmr::SchemeKind;
use mcsim::Rng;

use crate::json::Json;
use crate::micro::{self, Bench, Ledger};
use crate::spec::SOFT_SCHEMES;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, run_pass, Cell, Pass, Scale, Shape, Workload};
use crate::Checks;

/// The seed a run uses when none is given (`RunConfig`'s own default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Keep making timed passes for this long.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work per pass and repetition counts.
    pub scale: Scale,
}

/// What a run produced.
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// How it was run.
    pub options: Options,
    /// Timed passes made.
    pub passes: usize,
    /// Data-structure operations per pass.
    pub ops_per_pass: u64,
    /// End-to-end metrics (untraced runs only).
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Ledger,
    /// Correctness checks.
    pub checks: Checks,
    /// The span document (traced runs only).
    pub trace: Option<Json>,
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `w` once. `process_start` is when the process began, so the first
/// set-up repetition includes everything before it.
pub fn run_workload(
    w: &'static Workload,
    options: Options,
    process_start: Instant,
) -> Result<Outcome, String> {
    workloads::admit(w, host_cpus())?;
    let scale = options.scale;
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(w.name, false);
    let ops = w.pass_ops(scale);
    let cells = w.cells(options.seed, ops);

    // Set-up, several times over; `setup_s` is the repetitions' lower
    // decile, like every host time (`pass_wall`). Half of them run before
    // the timed passes and half after, so that one burst of interference
    // cannot cover them all. A traced run does not report it and sets up
    // once.
    let setup_reps = if options.trace { 1 } else { scale.setup_reps };
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut prefilled = Vec::new();
    for rep in 0..setup_reps.div_ceil(2) {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        prefilled = set_up(w, options.seed, ops, &mut tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    for m in &prefilled {
        checks.check(m.total_ops == 0, || {
            format!("{}: a prefill-only run completed operations", m.scheme)
        });
    }

    // Timed passes. A traced run alternates traced and untraced passes and
    // reports the ratio of their medians as its own overhead.
    let min_passes = if options.trace {
        2 * scale.min_passes.div_ceil(2)
    } else {
        scale.min_passes
    };
    // Stop when the next pass would end after `--seconds`, so a run keeps
    // to its time.
    let mut passes: Vec<Pass> = Vec::new();
    let timing = Instant::now();
    let mut longest_pass = 0.0f64;
    while passes.len() < min_passes
        || timing.elapsed().as_secs_f64() + longest_pass < options.seconds
    {
        tracer.set_enabled(options.trace && passes.len().is_multiple_of(2));
        let t0 = Instant::now();
        let pass = tracer.span("pass", |t| run_pass(w, &cells, t));
        check_pass(w, &cells, &pass, passes.first(), &prefilled, &mut checks);
        passes.push(pass);
        longest_pass = longest_pass.max(t0.elapsed().as_secs_f64());
    }
    tracer.set_enabled(options.trace);
    while setup_s.len() < setup_reps {
        let t0 = Instant::now();
        set_up(w, options.seed, ops, &mut tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Simulated reference cells, one per scheme: the workload's own cells,
    // the 8-thread column of the grid, or — natively, where nothing is
    // simulated — a two-thread simulated twin of the same workload.
    let sim_cells: Vec<Metrics> = match w.shape {
        Shape::SimSet(_) | Shape::SimStack => passes[0].cells.clone(),
        Shape::SweepGrid => cells
            .iter()
            .zip(&passes[0].cells)
            .filter(|(c, _)| c.cfg.threads == w.threads)
            .map(|(_, m)| m.clone())
            .collect(),
        Shape::NativeSet => {
            tracer.span("verify.sim_twin", |_| simulated_twin(w, options.seed, ops))
        }
    };
    let all_sim: &[Metrics] = if w.shape == Shape::NativeSet {
        &sim_cells
    } else {
        &passes[0].cells
    };
    tracer.span("verify.reference_model", |_| {
        check_reference_model(w, options.seed, scale, &mut checks)
    });

    let mut outcome = Outcome {
        workload: w,
        options,
        passes: passes.len(),
        ops_per_pass: passes[0].cells.iter().map(|m| m.total_ops).sum(),
        end_to_end: Vec::new(),
        layers: Ledger::new(),
        checks,
        trace: None,
    };
    if options.trace {
        outcome.layers = workload_layers(w, &passes, &sim_cells);
        micro::run_all(&mut Bench {
            tracer: &mut tracer,
            ledger: &mut outcome.layers,
            checks: &mut outcome.checks,
            scale,
        });
        if w.shape == Shape::NativeSet {
            // The workload's own passes are the better sample of these.
            for (i, scheme) in w.schemes().iter().enumerate() {
                let ns: Vec<f64> = passes
                    .iter()
                    .map(|p| micro::native_ns_per_op(&p.cells[i]))
                    .collect();
                outcome
                    .layers
                    .insert(format!("casmr.{scheme}.native_ns_per_op"), median(&ns));
            }
        }
        outcome.trace = Some(tracer.to_json());
    } else {
        outcome.end_to_end = end_to_end(w, &passes, &sim_cells, all_sim, &setup_s);
    }
    Ok(outcome)
}

/// One set-up repetition: configuration generation, one prefill-only
/// (0-operation) call per configuration, and one untimed warm-up pass at a
/// quarter of the operations (the allocator, the coroutine stacks and the
/// caches are warm after that; a full-size one would spend a quarter of the
/// run's time budget on set-up). Returns the prefill-only results.
fn set_up(w: &Workload, seed: u64, pass_ops: u64, tracer: &mut Tracer) -> Vec<Metrics> {
    let warm_up = w.cells(seed, (pass_ops / 4).max(1));
    let prefilled = warm_up
        .iter()
        .map(|c| {
            let mut empty = c.clone();
            empty.cfg.ops_per_thread = 0;
            w.run_cell(&empty)
        })
        .collect();
    std::hint::black_box(run_pass(w, &warm_up, tracer));
    prefilled
}

/// The checks every pass must satisfy.
fn check_pass(
    w: &Workload,
    cells: &[Cell],
    pass: &Pass,
    first: Option<&Pass>,
    prefilled: &[Metrics],
    checks: &mut Checks,
) {
    for (i, (cell, m)) in cells.iter().zip(&pass.cells).enumerate() {
        let want = cell.cfg.threads as u64 * cell.cfg.ops_per_thread;
        let label = || format!("{} {}x{}", w.name, m.scheme, cell.cfg.threads);
        checks.check(m.total_ops == want, || {
            format!(
                "{}: {} operations completed of {want}",
                label(),
                m.total_ops
            )
        });
        checks.check(m.final_allocated <= m.peak_allocated, || {
            format!(
                "{}: final footprint {} above its peak {}",
                label(),
                m.final_allocated,
                m.peak_allocated
            )
        });
        if w.shape == Shape::NativeSet {
            continue;
        }
        // The simulator is deterministic: every pass repeats the first.
        if let Some(first) = first {
            let f = &first.cells[i];
            checks.check(
                (m.cycles, m.peak_allocated, m.batched_events)
                    == (f.cycles, f.peak_allocated, f.batched_events),
                || {
                    format!(
                        "{}: simulated results changed between passes ({} vs {} cycles)",
                        label(),
                        m.cycles,
                        f.cycles
                    )
                },
            );
        }
        // The paper's footprint claim on sets: CA never holds more than the
        // live set (bounded by the key range), the structure's sentinels,
        // and one node in flight per thread.
        if cell.scheme == SchemeKind::Ca && w.shape != Shape::SimStack {
            let sentinels = prefilled[i].final_allocated - cell.cfg.prefill;
            let bound = cell.cfg.key_range + sentinels + cell.cfg.threads as u64;
            checks.check(m.peak_allocated <= bound, || {
                format!(
                    "{}: CA peak footprint {} above the live-set bound {bound}",
                    label(),
                    m.peak_allocated
                )
            });
        }
    }
    if let Some(first) = first {
        checks.check(pass.csv == first.csv, || {
            format!("{}: sweep CSV changed between passes", w.name)
        });
    }
}

/// `native_update`'s simulated twin: the same structure, mix and seed on two
/// simulated threads, all seven schemes, a sixteenth of the operations.
fn simulated_twin(w: &Workload, seed: u64, pass_ops: u64) -> Vec<Metrics> {
    let cfg = w.config(seed, w.threads, (pass_ops / 16).max(4));
    SchemeKind::ALL
        .into_iter()
        .map(|scheme| caharness::run_set(SetKind::LazyList, scheme, &cfg))
        .collect()
}

/// What a sequential replay of thread 0's history says a one-thread run
/// must leave behind, relative to the prefilled structure.
struct Reference {
    /// Change in the number of live elements.
    live_delta: i64,
    /// Successful inserts (pushes): what a leaking scheme allocates.
    inserted: i64,
}

/// Replay the harness's one-thread workload on a host-side model. The key
/// and roll streams are the runner's (`RunConfig::thread_seed`).
fn reference(w: &Workload, cfg: &RunConfig) -> Reference {
    let mut prefill_rng = Rng::new(cfg.thread_seed(usize::MAX));
    let mut rng = Rng::new(cfg.thread_seed(0));
    let (ins, upd) = (cfg.mix.insert_pct, cfg.mix.updates());
    let mut inserted = 0;
    if w.set_kind().is_none() {
        let mut size = cfg.prefill as i64;
        for _ in 0..cfg.ops_per_thread {
            let roll = rng.below(100);
            if roll < ins {
                rng.below(cfg.key_range);
                size += 1;
                inserted += 1;
            } else if roll < upd && size > 0 {
                size -= 1;
            }
        }
        return Reference {
            live_delta: size - cfg.prefill as i64,
            inserted,
        };
    }
    let mut set = BTreeSet::new();
    while (set.len() as u64) < cfg.prefill {
        set.insert(1 + prefill_rng.below(cfg.key_range));
    }
    for _ in 0..cfg.ops_per_thread {
        let key = 1 + rng.below(cfg.key_range);
        let roll = rng.below(100);
        if roll < ins {
            inserted += set.insert(key) as i64;
        } else if roll < upd {
            set.remove(&key);
        }
    }
    Reference {
        live_delta: set.len() as i64 - cfg.prefill as i64,
        inserted,
    }
}

/// Output check against a reference model: at one thread the history is
/// sequential, so the allocator's final count is known exactly for CA
/// (frees immediately: live set only) and for the leaking scheme (never
/// frees: every insert), and bracketed by those two for the rest.
fn check_reference_model(w: &Workload, seed: u64, scale: Scale, checks: &mut Checks) {
    let cfg = w.config(seed, 1, scale.reference_ops);
    let want = reference(w, &cfg);
    for scheme in w.schemes() {
        let run = |ops_per_thread| {
            let cell = Cell {
                scheme,
                cfg: RunConfig {
                    ops_per_thread,
                    ..cfg.clone()
                },
            };
            w.run_cell(&cell).final_allocated as i64
        };
        let grown = run(cfg.ops_per_thread) - run(0);
        let ok = match scheme {
            SchemeKind::Ca => grown == want.live_delta,
            SchemeKind::None => grown == want.inserted,
            _ => (want.live_delta..=want.inserted).contains(&grown),
        };
        checks.check(ok, || {
            format!(
                "{} {scheme} at one thread: footprint grew by {grown}, reference model says live {} / inserted {}",
                w.name, want.live_delta, want.inserted
            )
        });
    }
}

fn scheme<'a>(cells: &'a [Metrics], name: &str) -> &'a Metrics {
    cells
        .iter()
        .find(|m| m.scheme == name)
        .unwrap_or_else(|| panic!("no simulated cell for scheme {name}"))
}

/// The five schemes that reclaim (everything but `none` and `ca`).
fn reclaiming(cells: &[Metrics]) -> impl Iterator<Item = &Metrics> {
    cells
        .iter()
        .filter(|m| m.scheme != "none" && m.scheme != "ca")
}

fn events(cells: &[Metrics]) -> u64 {
    cells
        .iter()
        .map(|m| m.batched_events + m.turn_handoffs)
        .sum()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Wall nanoseconds of one pass, summarised **cell by cell**: each cell's
/// lower decile (the reported value), median, quartiles and range across
/// the passes, summed over the cells. Every pass does the same work, and on
/// a shared host interference adds time in bursts of seconds that spoil a
/// few cells of most passes: over 100 s of `list_read` passes, 20-pass
/// windows disagreed by 8 % (quartile spread) on the per-cell median and by
/// 3 % on the per-cell lower decile ([`Summary::host_time`]).
fn pass_wall(passes: &[Pass]) -> Summary {
    (0..passes[0].cell_ns.len())
        .map(|c| {
            Summary::host_time(
                &passes
                    .iter()
                    .map(|p| p.cell_ns[c] as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .reduce(|a, b| Summary {
            n: a.n,
            value: a.value + b.value,
            q1: a.q1 + b.q1,
            median: a.median + b.median,
            q3: a.q3 + b.q3,
            min: a.min + b.min,
            max: a.max + b.max,
        })
        .expect("a pass has cells")
}

fn end_to_end(
    w: &Workload,
    passes: &[Pass],
    sim_cells: &[Metrics],
    all_sim: &[Metrics],
    setup_s: &[f64],
) -> Vec<(&'static str, Summary)> {
    let n = passes.len();
    let ops: u64 = passes[0].cells.iter().map(|m| m.total_ops).sum();
    // Natively nothing is simulated: the unit of work is the operation.
    let per_pass_events = match w.shape {
        Shape::NativeSet => ops,
        _ => events(&passes[0].cells),
    };
    let wall = pass_wall(passes);
    let ops_per_s = wall.map(|ns| ops as f64 * 1e9 / ns);
    let ns_per_event = wall.map(|ns| ns / per_pass_events as f64);

    let ca = scheme(sim_cells, "ca");
    let best_smr = reclaiming(sim_cells)
        .map(|m| m.throughput)
        .fold(0.0, f64::max);
    let geomean = (reclaiming(sim_cells)
        .map(|m| m.throughput.ln())
        .sum::<f64>()
        / 5.0)
        .exp();
    let peak_smr = reclaiming(sim_cells)
        .map(|m| m.peak_allocated)
        .max()
        .unwrap_or(0);
    let cycles: u64 = all_sim.iter().map(|m| m.cycles).sum();

    vec![
        ("setup_s", Summary::host_time(setup_s)),
        ("host_ops_per_s", ops_per_s),
        ("host_ns_per_event", ns_per_event),
        ("host_peak_rss_mb", Summary::exact(peak_rss_mib(), 1)),
        ("sim_ops_per_mcycle_ca", Summary::exact(ca.throughput, n)),
        (
            "sim_ca_vs_best_smr",
            Summary::exact(ca.throughput / best_smr, n),
        ),
        ("sim_ops_per_mcycle_smr_geomean", Summary::exact(geomean, n)),
        (
            "sim_peak_nodes_ca",
            Summary::exact(ca.peak_allocated as f64, n),
        ),
        ("sim_peak_nodes_smr_max", Summary::exact(peak_smr as f64, n)),
        ("sim_cycles_total", Summary::exact(cycles as f64, n)),
    ]
}

/// The per-layer rows that come from the workload's own runs: exact event
/// and cycle counts from `Metrics`, per-scheme simulated results, the CA
/// leg's wasted conditional accesses, and the tracing overhead.
fn workload_layers(w: &Workload, passes: &[Pass], sim_cells: &[Metrics]) -> Ledger {
    let mut out = Ledger::new();
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .enumerate()
            .filter(|(i, _)| i.is_multiple_of(2) == traced)
            .map(|(_, p)| p.wall_ns as f64)
            .collect()
    };
    out.insert(
        "trace_overhead_ratio".into(),
        median(&walls(true)) / median(&walls(false)),
    );

    // Natively no simulator event happens inside the timed passes.
    let timed: &[Metrics] = if w.shape == Shape::NativeSet {
        &[]
    } else {
        &passes[0].cells
    };
    let sum = |f: fn(&Metrics) -> u64| timed.iter().map(f).sum::<u64>() as f64;
    let total = events(timed) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    out.insert("mcsim.events".into(), total);
    out.insert("mcsim.turn_handoffs".into(), sum(|m| m.turn_handoffs));
    out.insert(
        "mcsim.batch_hit_ratio".into(),
        ratio(sum(|m| m.batched_events), total),
    );
    out.insert(
        "mcsim.l1_miss_ratio".into(),
        ratio(
            timed.iter().map(|m| m.l1_miss_ratio).sum(),
            timed.len() as f64,
        ),
    );
    out.insert("mcsim.l1_hit_cycles".into(), sum(|m| m.l1_hit_cycles));
    out.insert("mcsim.l2_hit_cycles".into(), sum(|m| m.l2_hit_cycles));
    out.insert("mcsim.mem_fill_cycles".into(), sum(|m| m.mem_fill_cycles));
    out.insert(
        "mcsim.invalidation_cycles".into(),
        sum(|m| m.invalidation_cycles),
    );

    for name in SOFT_SCHEMES {
        let m = scheme(sim_cells, name);
        out.insert(format!("casmr.{name}.sim_ops_per_mcycle"), m.throughput);
        out.insert(
            format!("casmr.{name}.sim_peak_nodes"),
            m.peak_allocated as f64,
        );
        out.insert(
            format!("casmr.{name}.fences_per_op"),
            ratio(m.fences as f64, m.total_ops as f64),
        );
    }
    let ca = scheme(sim_cells, "ca");
    let per_op = |count: u64| ratio(count as f64, ca.total_ops as f64);
    out.insert("cacore.cread_fail_per_op".into(), per_op(ca.cread_fail));
    out.insert("cacore.cwrite_fail_per_op".into(), per_op(ca.cwrite_fail));
    out.insert("cacore.untag_all_per_op".into(), per_op(ca.untag_alls));
    out.insert("cacore.spurious_revokes".into(), ca.spurious_revokes as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_model_replays_the_runner_streams() {
        let w = workloads::find("hash_update").unwrap();
        let cfg = w.config(42, 1, 300);
        let r = reference(w, &cfg);
        assert!(r.inserted > 0 && r.live_delta.abs() <= r.inserted);
        // Read-only: nothing changes.
        let list = workloads::find("list_read").unwrap();
        let r = reference(list, &list.config(42, 1, 300));
        assert_eq!((r.live_delta, r.inserted), (0, 0));
        // The stack pushes about half the time and never runs dry from 500.
        let stack = workloads::find("stack_handoff").unwrap();
        let r = reference(stack, &stack.config(42, 1, 300));
        assert!(
            (100..200).contains(&r.inserted),
            "{} pushes of 300 ops",
            r.inserted
        );
        assert_eq!(r.live_delta, r.inserted - (300 - r.inserted));
    }
}
