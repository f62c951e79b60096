//! The five workloads: what each runs, why it exists, and how one timed
//! pass over it is executed.
//!
//! Every workload is a **closed loop with fixed operation counts**: each
//! simulated (or host) thread issues its next operation when the previous
//! one completes, so a pass does the same work on every commit and only its
//! wall time moves. All run `gangs = 1` (the `gangs > 1` path is up for
//! deletion under ROADMAP item 2 and cannot be a baseline). Only
//! `native_update` keeps two host threads busy; everything else keeps one:
//! on a shared two-CPU host, two busy threads measure the neighbours.

use std::sync::Mutex;
use std::time::Instant;

use caharness::{sweep, Metrics, Mix, RunConfig, SeriesTable, SetKind};
use casmr::SchemeKind;

use crate::trace::Tracer;

/// How much work a run does. `FULL` is what the numbers in `BENCHMARK.json`
/// are taken at; `SMOKE` shrinks every count so `cargo test` can run the
/// whole benchmark in a debug build.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divide every workload's operations per thread by this.
    pub ops_div: u64,
    /// Timed passes at least this many, however short `--seconds` is.
    pub min_passes: usize,
    /// Set-up is repeated this many times, half before the timed passes
    /// and half after.
    pub setup_reps: usize,
    /// Calls per micro batch (one span per batch).
    pub micro_batch: u64,
    /// Batches per micro.
    pub micro_reps: usize,
    /// Operations of the one-thread runs: the reference-model check and
    /// the structure-operation micro.
    pub reference_ops: u64,
}

impl Scale {
    /// The recorded scale.
    pub const FULL: Scale = Scale {
        ops_div: 1,
        min_passes: 5,
        setup_reps: 4,
        micro_batch: 10_000,
        micro_reps: 9,
        reference_ops: 2000,
    };
    /// Tiny counts, one repetition of everything.
    pub const SMOKE: Scale = Scale {
        ops_div: 250,
        min_passes: 1,
        setup_reps: 1,
        micro_batch: 200,
        micro_reps: 1,
        reference_ops: 60,
    };
}

/// What a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A set structure on the simulator, one `run_set` per scheme.
    SimSet(SetKind),
    /// The Treiber stack on the simulator, one `run_stack` per scheme.
    SimStack,
    /// The lazy list on real host threads, one `run_set_native` per
    /// software scheme.
    NativeSet,
    /// `sweep::grid` over schemes × simulated thread counts, `jobs = 1`.
    SweepGrid,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name (`--workload`).
    pub name: &'static str,
    /// Why it exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// What it drives.
    pub shape: Shape,
    /// Simulated cores (host threads for [`Shape::NativeSet`]).
    pub threads: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Scheduler lookahead quantum.
    pub quantum: u64,
    /// Elements the structure is prefilled to.
    pub prefill: u64,
    /// Operations per thread in one pass, at [`Scale::FULL`].
    pub ops_per_thread: u64,
    /// Host threads the workload keeps busy.
    pub host_threads: usize,
}

const READ_ONLY: Mix = Mix {
    insert_pct: 0,
    delete_pct: 0,
};
const UPDATES: Mix = Mix {
    insert_pct: 50,
    delete_pct: 50,
};

/// Simulated thread counts of the `sweep_grid` columns (the historical
/// `sweep_bench` grid).
pub const GRID_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "list_read",
        why: "read-only 250-node traversals: ~95% of events are L1 hits that keep the turn, so host time is mcsim's batched fast path and simulated time is each scheme's per-read protect cost",
        shape: Shape::SimSet(SetKind::LazyList),
        threads: 8,
        mix: READ_ONLY,
        quantum: 64,
        prefill: 500,
        ops_per_thread: 500,
        host_threads: 1,
    },
    Workload {
        name: "hash_update",
        why: "all-update 4-node hash chains: alloc/free, retire+scan, invalidations and the per-op bracket dominate and traversal does little; the paper's footprint claim lives here",
        shape: Shape::SimSet(SetKind::HashTable),
        threads: 8,
        mix: UPDATES,
        quantum: 64,
        prefill: 500,
        ops_per_thread: 10_000,
        host_threads: 1,
    },
    Workload {
        name: "stack_handoff",
        why: "one hot line at quantum 0: handoffs outnumber batched events and every op is an invalidation round trip; loads sched/coop switching, the directory and CA retries while the L1-hit path idles",
        shape: Shape::SimStack,
        threads: 8,
        mix: UPDATES,
        quantum: 0,
        // The stack's size is a random walk (std ≈ 250 nodes over a pass);
        // a deep stack keeps that a small share of the footprint metrics
        // without changing what the top of the stack does.
        prefill: 10_000,
        ops_per_thread: 7500,
        host_threads: 1,
    },
    Workload {
        name: "native_update",
        why: "the lazy list on two real host threads: bypasses mcsim entirely, so a simulator optimisation predicts no change here while real fences and scans do the work",
        shape: Shape::NativeSet,
        threads: 2,
        mix: UPDATES,
        quantum: 64,
        prefill: 500,
        // A cell is 130–210 ms: thread start-up is under a thousandth of
        // it, and a 20-second run still repeats each cell some twenty times.
        ops_per_thread: 60_000,
        host_threads: 2,
    },
    Workload {
        name: "sweep_grid",
        why: "28 short-lived machines through sweep::grid at jobs 1: Machine::new, prefill, coroutine spawn/teardown and sweep dispatch are a large share; continuity with the historical sweep_bench jobs=1 row",
        shape: Shape::SweepGrid,
        threads: 8,
        mix: UPDATES,
        quantum: 64,
        prefill: 500,
        ops_per_thread: 500,
        host_threads: 1,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Refuse to measure when a workload needs more busy host threads than the
/// host has CPUs: the result would be time-slicing noise, not the workload.
pub fn admit(w: &Workload, host_cpus: usize) -> Result<(), String> {
    if w.host_threads > host_cpus {
        return Err(format!(
            "workload {} keeps {} host threads busy but this host has {host_cpus} CPU(s); \
             refusing to report time-sliced numbers",
            w.name, w.host_threads
        ));
    }
    Ok(())
}

/// One (scheme, configuration) cell of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Reclamation scheme.
    pub scheme: SchemeKind,
    /// Run configuration (`seed` is the workload seed).
    pub cfg: RunConfig,
}

impl Workload {
    /// Operations per thread of one pass at `scale`.
    pub fn pass_ops(&self, scale: Scale) -> u64 {
        (self.ops_per_thread / scale.ops_div).max(4)
    }

    /// The configuration every cell of this workload shares, at `threads`.
    pub fn config(&self, seed: u64, threads: usize, ops_per_thread: u64) -> RunConfig {
        RunConfig {
            threads,
            key_range: 1000,
            prefill: self.prefill,
            ops_per_thread,
            mix: self.mix,
            seed,
            quantum: self.quantum,
            gangs: 1,
            native: false,
            ..Default::default()
        }
    }

    /// The schemes this workload runs (CA has no native implementation).
    pub fn schemes(&self) -> Vec<SchemeKind> {
        SchemeKind::ALL
            .into_iter()
            .filter(|&s| self.shape != Shape::NativeSet || s != SchemeKind::Ca)
            .collect()
    }

    /// The cells of one pass, in execution order.
    pub fn cells(&self, seed: u64, ops_per_thread: u64) -> Vec<Cell> {
        let columns: &[usize] = match self.shape {
            Shape::SweepGrid => &GRID_THREADS,
            _ => std::slice::from_ref(&self.threads),
        };
        self.schemes()
            .into_iter()
            .flat_map(|scheme| {
                columns.iter().map(move |&threads| Cell {
                    scheme,
                    cfg: self.config(seed, threads, ops_per_thread),
                })
            })
            .collect()
    }

    /// Run one cell through the harness's public runner.
    pub fn run_cell(&self, cell: &Cell) -> Metrics {
        match self.shape {
            Shape::SimSet(kind) => caharness::run_set(kind, cell.scheme, &cell.cfg),
            Shape::SimStack => caharness::run_stack(cell.scheme, &cell.cfg),
            Shape::NativeSet => {
                caharness::run_set_native(SetKind::LazyList, cell.scheme, &cell.cfg)
            }
            Shape::SweepGrid => caharness::run_set(SetKind::LazyList, cell.scheme, &cell.cfg),
        }
    }

    /// The set structure whose one-thread history the reference model
    /// replays (`None`: the stack).
    pub fn set_kind(&self) -> Option<SetKind> {
        match self.shape {
            Shape::SimSet(kind) => Some(kind),
            Shape::SimStack => None,
            Shape::NativeSet | Shape::SweepGrid => Some(SetKind::LazyList),
        }
    }
}

/// What one pass over a workload produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host nanoseconds spent inside the harness calls of the pass.
    pub wall_ns: u64,
    /// Per-cell metrics, in [`Workload::cells`] order.
    pub cells: Vec<Metrics>,
    /// Host nanoseconds per cell; they sum to `wall_ns`.
    pub cell_ns: Vec<u64>,
    /// The sweep's rendered CSV (empty elsewhere): byte-identical across
    /// passes by the sweep's determinism contract.
    pub csv: String,
}

/// Execute one pass: every cell once, each harness call inside a span.
pub fn run_pass(w: &Workload, cells: &[Cell], tracer: &mut Tracer) -> Pass {
    if w.shape == Shape::SweepGrid {
        return run_grid_pass(w, cells, tracer);
    }
    let call = match w.shape {
        Shape::SimSet(_) => "caharness.run_set",
        Shape::SimStack => "caharness.run_stack",
        Shape::NativeSet => "caharness.run_set_native",
        Shape::SweepGrid => unreachable!("handled above"),
    };
    let mut pass = Pass {
        wall_ns: 0,
        cells: Vec::with_capacity(cells.len()),
        cell_ns: Vec::with_capacity(cells.len()),
        csv: String::new(),
    };
    for cell in cells {
        let span = tracer.begin(&format!("{call}[{}]", cell.scheme.name()));
        let t0 = Instant::now();
        let m = std::hint::black_box(w.run_cell(cell));
        let ns = t0.elapsed().as_nanos() as u64;
        tracer.end(span);
        pass.wall_ns += ns;
        pass.cell_ns.push(ns);
        pass.cells.push(m);
    }
    pass
}

/// The `sweep_grid` pass: the whole schemes × threads grid as one
/// `sweep::grid` call at `jobs = 1`, which runs the cells in order on the
/// calling thread. A cell's time runs from the previous cell's completion
/// (the call's start, for the first) to its own, and the last one's to the
/// call's return: the sweep's dispatch is inside, and the cells sum to the
/// call's wall time.
fn run_grid_pass(w: &Workload, cells: &[Cell], tracer: &mut Tracer) -> Pass {
    let schemes = w.schemes();
    let template = &cells[0].cfg;
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    sweep::set_jobs(w.host_threads);
    let span = tracer.begin("caharness.sweep.grid");
    let t0 = Instant::now();
    let rows = sweep::grid("perfbench", &schemes, &GRID_THREADS, |&scheme, &threads| {
        let cfg = RunConfig {
            threads,
            ..template.clone()
        };
        let m = caharness::run_set(SetKind::LazyList, scheme, &cfg);
        done.lock()
            .expect("nothing panics holding the stamps")
            .push(Instant::now());
        m
    });
    let end = Instant::now();
    tracer.end(span);
    sweep::set_jobs(0);
    let mut done = done
        .into_inner()
        .expect("nothing panics holding the stamps");
    *done.last_mut().expect("the grid has cells") = end;
    let mut from = t0;
    let cell_ns = done
        .into_iter()
        .map(|at| (at - std::mem::replace(&mut from, at)).as_nanos() as u64)
        .collect();
    Pass {
        wall_ns: (end - t0).as_nanos() as u64,
        csv: grid_csv(&schemes, &rows),
        cells: rows.into_iter().flatten().collect(),
        cell_ns,
    }
}

/// The grid's throughput table as CSV, through the harness's own renderer.
fn grid_csv(schemes: &[SchemeKind], rows: &[Vec<Metrics>]) -> String {
    let mut table = SeriesTable::new(
        "perfbench sweep_grid — lazy list 50i-50d",
        "scheme\\threads",
        GRID_THREADS.iter().map(|t| t.to_string()).collect(),
    );
    for (scheme, row) in schemes.iter().zip(rows) {
        table.push_series(scheme.name(), row.iter().map(|m| m.throughput).collect());
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_workloads_wider_than_the_host() {
        let native = find("native_update").unwrap();
        let err = admit(native, 1).unwrap_err();
        assert!(
            err.contains("native_update") && err.contains("1 CPU"),
            "{err}"
        );
        assert!(admit(native, 2).is_ok());
        assert!(admit(find("sweep_grid").unwrap(), 1).is_ok());
        for w in &WORKLOADS {
            assert!(admit(w, 2).is_ok(), "{} must fit a 2-CPU host", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(admit(find("list_read").unwrap(), 1).is_ok());
    }

    #[test]
    fn cells_follow_the_workload_definition() {
        let w = find("native_update").unwrap();
        let cells = w.cells(7, 100);
        assert_eq!(cells.len(), 6, "CA cannot run natively");
        assert!(cells
            .iter()
            .all(|c| c.scheme != SchemeKind::Ca && c.cfg.threads == 2));
        let grid = find("sweep_grid").unwrap().cells(7, 100);
        assert_eq!(grid.len(), 28);
        assert_eq!(
            grid[5].cfg.threads, 2,
            "row-major: scheme, then thread count"
        );
        let c = &find("stack_handoff").unwrap().cells(7, 100)[0].cfg;
        assert_eq!(
            (c.quantum, c.gangs, c.seed, c.key_range, c.prefill),
            (0, 1, 7, 1000, 10_000)
        );
        assert!(find("nope").is_none());
    }
}
