//! The paper's experiments, as data.
//!
//! Every figure is an entry of [`FIGURES`]: a name, a one-line description
//! and a pure builder from a [`Scale`] to a [`Plan`] — a flat list of
//! [`Cell`]s (exactly [`run`]'s arguments) plus the [`Layout`] of each
//! table the figure writes, whose rows say which cell feeds which entry
//! through which extractor. The `fig*` entries reproduce the figures of the
//! paper's §V; the `ablation_*` entries cover claims the paper makes in
//! prose (§I batch tradeoffs, §III associativity insensitivity) plus one
//! simulator-fidelity check. See EXPERIMENTS.md for the experiment index and
//! the recorded paper-vs-measured results.
//!
//! One executor, [`render`], runs the cells of any number of plans as a
//! single flat task list on the [`crate::sweep`] work-stealing pool
//! (`--jobs N`), so the pool stays saturated across table and figure
//! boundaries instead of draining to a straggler at each. Cells are
//! independent (one `Machine` each, per-config seeds), so the tables are
//! byte-identical for every worker count and for every grouping of figures
//! into sweeps. A cell that panics costs its own entries, rendered `ERR`,
//! and nothing else.

use casmr::{SchemeKind, SmrConfig};
use mcsim::coherence::Protocol;
use mcsim::{CacheConfig, FaultPlan};

use crate::config::{Mix, RunConfig};
use crate::hist::Histogram;
use crate::runner::{run, Instrument, Outcome, SetKind, Structure};
use crate::sweep;
use crate::table::SeriesTable;

/// Experiment scale: trades fidelity to the paper's exact parameters
/// against wall-clock time on the host.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Smoke scale for CI: 4 threads max, 300 ops/thread.
    Quick,
    /// Default: full thread sweep, 1000 ops/thread.
    #[default]
    Standard,
    /// The paper's §V parameters: 3000 ops/thread, threads 1..32.
    Paper,
}

impl Scale {
    /// Thread sweep for throughput figures.
    pub fn threads(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4],
            Scale::Standard => vec![1, 2, 4, 8, 16, 24, 32],
            Scale::Paper => vec![1, 2, 4, 8, 16, 24, 32],
        }
    }

    /// Measured operations per thread.
    pub fn ops(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Standard => 1000,
            Scale::Paper => 3000,
        }
    }

    /// Thread count of the figures that hold it fixed.
    fn fixed_threads(self) -> usize {
        match self {
            Scale::Quick => 4,
            _ => 16,
        }
    }
}

/// One experiment: exactly [`run`]'s arguments.
pub struct Cell {
    /// Structure under test.
    pub structure: Structure,
    /// Reclamation scheme.
    pub scheme: SchemeKind,
    /// Everything else about the run.
    pub cfg: RunConfig,
    /// Per-operation instrument.
    pub instrument: Instrument,
}

/// Reads one table entry out of a finished cell.
pub type Extract = fn(&Outcome) -> f64;

/// How one table row is filled from the plan's cells (by index).
pub enum Row {
    /// One entry per x label: `Some((i, f))` is cell `i` through `f`;
    /// `None` is a combination that does not exist (plain `NaN`, not `ERR`).
    Each(Vec<Option<(usize, Extract)>>),
    /// Cell `i`'s allocated-not-freed samples, one per x label. A run that
    /// completes fewer operations (a victim crashed for good) legitimately
    /// ends early and is padded with plain `NaN`.
    Trace(usize),
}

/// One table a figure writes.
pub struct Layout {
    /// File name under `results/`.
    pub csv: String,
    /// Caption.
    pub title: String,
    /// Corner label (`rows\columns`).
    pub corner: &'static str,
    /// Column labels.
    pub x_labels: Vec<String>,
    /// Named rows, top to bottom.
    pub rows: Vec<(String, Row)>,
}

impl Layout {
    /// Append a row reading every cell of `cells` through `f`.
    pub fn row(&mut self, name: impl Into<String>, cells: &[usize], f: Extract) -> &mut Self {
        let entries = cells.iter().map(|&i| Some((i, f))).collect();
        self.rows.push((name.into(), Row::Each(entries)));
        self
    }

    /// [`Self::row`] for each `(name, cells)` of `rows`.
    pub fn rows(&mut self, rows: &[(String, Vec<usize>)], f: Extract) -> &mut Self {
        for (name, cells) in rows {
            self.row(name.as_str(), cells, f);
        }
        self
    }

    /// Append a row reading the one cell `cell` through each of `fs`.
    pub fn across(&mut self, name: impl Into<String>, cell: usize, fs: &[Extract]) -> &mut Self {
        let entries = fs.iter().map(|&f| Some((cell, f))).collect();
        self.rows.push((name.into(), Row::Each(entries)));
        self
    }

    /// Append a [`Row::Trace`] for the first cell of each of `rows`.
    fn traces(&mut self, rows: &[(String, Vec<usize>)]) -> &mut Self {
        for (name, cells) in rows {
            self.rows.push((name.clone(), Row::Trace(cells[0])));
        }
        self
    }
}

/// What one figure runs and writes.
#[derive(Default)]
pub struct Plan {
    /// The experiments, in no significant order.
    pub cells: Vec<Cell>,
    /// The tables, in emission order.
    pub tables: Vec<Layout>,
}

impl Plan {
    /// Add a cell; returns its index.
    pub fn push(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Add one uninstrumented cell per configuration (usually one per x
    /// label); returns their indices.
    pub fn cells(&mut self, structure: Structure, scheme: SchemeKind, cfgs: &[RunConfig]) -> Vec<usize> {
        let cell = |cfg: &RunConfig| Cell {
            structure,
            scheme,
            cfg: cfg.clone(),
            instrument: Instrument::None,
        };
        cfgs.iter().map(|cfg| self.push(cell(cfg))).collect()
    }

    /// [`Self::cells`] once per scheme; returns `(scheme name, indices)` rows.
    pub fn by_scheme(
        &mut self,
        structure: Structure,
        schemes: &[SchemeKind],
        cfgs: &[RunConfig],
    ) -> Vec<(String, Vec<usize>)> {
        schemes
            .iter()
            .map(|&s| (s.name().to_string(), self.cells(structure, s, cfgs)))
            .collect()
    }

    /// Start a table; fill it through the returned layout.
    pub fn table(
        &mut self,
        csv: impl Into<String>,
        title: impl Into<String>,
        corner: &'static str,
        x_labels: Vec<String>,
    ) -> &mut Layout {
        self.tables.push(Layout {
            csv: csv.into(),
            title: title.into(),
            corner,
            x_labels,
            rows: Vec::new(),
        });
        self.tables.last_mut().expect("just pushed")
    }
}

/// Run every cell of `plans` as **one** flat sweep and assemble their
/// tables, returned as `(csv name, table)` in plan order then table order,
/// next to the failed cells in submission order.
///
/// A cell occupies the host threads it runs on — its workload threads when
/// native, one when simulated — so `--jobs N` bounds host threads whatever
/// the mix. A cell that panics (a livelock ceiling, the wedge watchdog)
/// yields [`sweep::ERR_CELL`] in every entry that reads it and one
/// [`sweep::TaskFailure`]; all other entries keep their values.
pub fn render(label: &str, plans: &[Plan]) -> (Vec<(String, SeriesTable)>, Vec<sweep::TaskFailure>) {
    let tasks = plans
        .iter()
        .flat_map(|plan| &plan.cells)
        .map(|c| {
            let weight = if c.cfg.native { c.cfg.threads } else { 1 };
            let task = move || run(c.structure, c.scheme, &c.cfg, c.instrument);
            (weight, Box::new(task) as sweep::Task<Outcome>)
        })
        .collect();
    let outcomes = sweep::run_results_weighted(label, tasks);
    // One flat index space over many figures: say which cell a failure was.
    let mut failures = Vec::new();
    for (cell, outcome) in plans.iter().flat_map(|plan| &plan.cells).zip(&outcomes) {
        if let Err(f) = outcome {
            let (structure, threads) = (cell.structure.name(), cell.cfg.threads);
            eprintln!("[sweep {} #{}] is {structure} under {}, {threads} threads", f.label, f.index, cell.scheme);
            failures.push(f.clone());
        }
    }
    let mut outcomes = outcomes.into_iter();
    let mut out = Vec::new();
    for plan in plans {
        let cells: Vec<_> = outcomes.by_ref().take(plan.cells.len()).collect();
        for layout in &plan.tables {
            let width = layout.x_labels.len();
            let mut table = SeriesTable::new(&*layout.title, layout.corner, layout.x_labels.clone());
            for (name, row) in &layout.rows {
                let values = match row {
                    Row::Each(entries) => entries
                        .iter()
                        .map(|entry| match entry {
                            Some((i, f)) => cells[*i].as_ref().map_or(sweep::ERR_CELL, f),
                            None => f64::NAN,
                        })
                        .collect(),
                    Row::Trace(i) => match &cells[*i] {
                        Ok(o) => {
                            let samples = o.metrics.footprint.iter().map(|&(_, live)| live as f64);
                            let mut values: Vec<f64> = samples.collect();
                            values.resize(width, f64::NAN);
                            values
                        }
                        Err(_) => vec![sweep::ERR_CELL; width],
                    },
                };
                table.push_series(name.as_str(), values);
            }
            out.push((layout.csv.clone(), table));
        }
    }
    (out, failures)
}

/// One registry entry.
pub struct Figure {
    /// What `fig <name>` selects.
    pub name: &'static str,
    /// What it reproduces, in one line.
    pub about: &'static str,
    /// `None`: the figure has no `--recover` variant. `Some(d)`: it has,
    /// and `fig all` renders it with `recover = d` when the flag is absent
    /// (naming the figure renders the plain variant).
    pub recover: Option<bool>,
    /// The builder: `(scale, recover)` to the figure's cells and tables.
    pub plan: fn(Scale, bool) -> Plan,
}

/// Resolve `fig`'s positional arguments (`all`, or figure names) to plans.
/// `--recover` is an error unless a requested figure takes it.
pub fn select(names: &[String], scale: Scale, recover: bool) -> Result<Vec<Plan>, String> {
    let mut picked: Vec<(&Figure, bool)> = Vec::new();
    for name in names {
        if name == "all" {
            picked.extend(FIGURES.iter().map(|f| (f, recover || f.recover == Some(true))));
        } else {
            let fig = FIGURES
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown figure `{name}`"))?;
            picked.push((fig, recover));
        }
    }
    if picked.is_empty() {
        return Err("name at least one figure, or `all`".into());
    }
    if recover && picked.iter().all(|(f, _)| f.recover.is_none()) {
        return Err("unrecognized argument `--recover`: no requested figure takes it".into());
    }
    Ok(picked.iter().map(|(f, r)| (f.plan)(scale, *r)).collect())
}

/// Every figure, in the order `fig all` emits them.
pub static FIGURES: [Figure; 19] = [
    Figure {
        name: "fig1_lazylist",
        about: "Fig. 1 top: lazy list, keys 0..1K, three workload panels",
        recover: None,
        plan: |s, _| throughput("fig1_lazylist", LAZY_LIST, 1000, "Fig 1 (top) lazy list, size ~500", s),
    },
    Figure {
        name: "fig1_extbst",
        about: "Fig. 1 bottom: external BST, keys 0..10K",
        recover: None,
        plan: |s, _| throughput("fig1_extbst", EXT_BST, 10_000, "Fig 1 (bottom) external BST, size ~5K", s),
    },
    Figure {
        name: "fig2_hashtable",
        about: "Fig. 2 top: 128-bucket chaining hash table, keys 0..1K",
        recover: None,
        plan: |s, _| {
            let table = Structure::Set(SetKind::HashTable);
            throughput("fig2_hashtable", table, 1000, "Fig 2 (top) hash table, 128 buckets", s)
        },
    },
    Figure {
        name: "fig2_stack",
        about: "Fig. 2 bottom: Treiber stack (reads are peeks)",
        recover: None,
        plan: |s, _| throughput("fig2_stack", Structure::Stack, 1000, "Fig 2 (bottom) stack", s),
    },
    Figure {
        name: "fig3_memory",
        about: "Fig. 3: unreclaimed nodes over time, 100% updates",
        recover: None,
        plan: fig3_memory,
    },
    Figure {
        name: "ablation_assoc",
        about: "§III claim: L1 associativity does not hurt CA progress",
        recover: None,
        plan: ablation_assoc,
    },
    Figure {
        name: "ablation_freq",
        about: "§I batch-size/epoch-frequency tradeoff (CA has no such knob)",
        recover: None,
        plan: ablation_freq,
    },
    Figure {
        name: "ablation_quantum",
        about: "simulator fidelity: throughput vs scheduler lookahead quantum",
        recover: None,
        plan: ablation_quantum,
    },
    Figure {
        name: "ablation_ctxswitch",
        about: "§III multiuser claim: OS preemption sets the ARB",
        recover: None,
        plan: ablation_ctxswitch,
    },
    Figure {
        name: "ablation_latency",
        about: "§I claim: batch reclamation inflates tail latency",
        recover: None,
        plan: ablation_latency,
    },
    Figure {
        name: "ablation_smt",
        about: "§III SMT rules: 1, 2 and 4 hyperthreads per physical core",
        recover: None,
        plan: ablation_smt,
    },
    Figure {
        name: "ablation_protocol",
        about: "§IV claim: CA's standing is the same on MSI and MESI",
        recover: None,
        plan: ablation_protocol,
    },
    Figure {
        name: "ablation_fallback",
        about: "§IV fallback path: fast-path overhead, progress on a hostile L1",
        recover: None,
        plan: ablation_fallback,
    },
    Figure {
        name: "queue_bench",
        about: "§IV-A MS queue, 50% enqueue / 50% dequeue (implemented, not plotted, in the paper)",
        recover: None,
        plan: queue_bench,
    },
    Figure {
        name: "harris_bench",
        about: "extension: lock-free CA Harris list vs the lock-based lists",
        recover: None,
        plan: |s, _| {
            lockfree_bench(
                "harris_bench.csv",
                "Lock-free CA Harris list vs lock-based lists — 50i-50d",
                ("ca-harris (lock-free)", Structure::Harris),
                ("lazy", LAZY_LIST),
                1000,
                s,
            )
        },
    },
    Figure {
        name: "lfbst_bench",
        about: "extension: lock-free CA external BST vs the lock-based BSTs",
        recover: None,
        plan: |s, _| {
            lockfree_bench(
                "lfbst_bench.csv",
                "Lock-free CA external BST vs lock-based BSTs — 50i-50d, keys 0..10K",
                ("ca-lf-bst (lock-free)", Structure::LfBst),
                ("bst", EXT_BST),
                10_000,
                s,
            )
        },
    },
    Figure {
        name: "htm_bench",
        about: "§VI comparator: hand-over-hand transactions (Zhou et al.) vs CA",
        recover: None,
        plan: htm_bench,
    },
    Figure {
        name: "fig_robustness",
        about: "extension: throughput and garbage bounds with 0/1/2 cores fail-stopped; \
                --recover adds the restart+adopt columns",
        recover: Some(false),
        plan: fig_robustness,
    },
    Figure {
        name: "fig_recovery",
        about: "extension: garbage over time through crash, detection and (--recover) adoption",
        recover: Some(true),
        plan: fig_recovery,
    },
];

const LAZY_LIST: Structure = Structure::Set(SetKind::LazyList);
const EXT_BST: Structure = Structure::Set(SetKind::ExtBst);

/// [`RunConfig::default`] (keys 0..1K half full, 50i-50d) at `scale`'s
/// operation count.
fn base(scale: Scale) -> RunConfig {
    RunConfig {
        ops_per_thread: scale.ops(),
        ..Default::default()
    }
}

/// `cfg` at each thread count of `threads`.
fn at_threads(threads: &[usize], cfg: RunConfig) -> Vec<RunConfig> {
    let at = |&t: &usize| RunConfig {
        threads: t,
        ..cfg.clone()
    };
    threads.iter().map(at).collect()
}

fn labels<T: ToString>(xs: &[T]) -> Vec<String> {
    xs.iter().map(T::to_string).collect()
}

/// Column labels of a [`Row::Trace`] table: the global operation count at
/// each of the `total_ops / every` samples.
fn sample_labels(total_ops: u64, every: u64) -> Vec<String> {
    (1..=total_ops / every).map(|i| (i * every).to_string()).collect()
}

fn throughput_of(o: &Outcome) -> f64 {
    o.metrics.throughput
}

/// A throughput figure row: one panel per workload of [`Mix::PAPER`],
/// threads on the x axis, one series per scheme, cells in ops/Mcycle
/// (prefill is half the key range).
fn throughput(name: &str, structure: Structure, key_range: u64, title: &str, scale: Scale) -> Plan {
    let threads = scale.threads();
    let mut plan = Plan::default();
    for (i, mix) in Mix::PAPER.into_iter().enumerate() {
        let panel = RunConfig {
            key_range,
            prefill: key_range / 2,
            mix,
            ..base(scale)
        };
        let rows = plan.by_scheme(structure, &SchemeKind::ALL, &at_threads(&threads, panel));
        plan.table(
            format!("{name}_panel{i}.csv"),
            format!("{title} — workload {}", mix.label()),
            "scheme\\threads",
            labels(&threads),
        )
        .rows(&rows, throughput_of);
    }
    plan
}

/// Figure 3: nodes allocated-but-not-freed over time. Lazy list of ~500
/// nodes, 16 threads, 100% updates, 5000 ops/thread, sampled every 1000
/// global operations (all parameters straight from the paper).
fn fig3_memory(scale: Scale, _: bool) -> Plan {
    let (threads, ops) = match scale {
        Scale::Quick => (4, 1500),
        _ => (16, 5000),
    };
    let sample_every = 1000;
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        sample_every: Some(sample_every),
        ..Default::default()
    };
    let mut plan = Plan::default();
    let rows = plan.by_scheme(LAZY_LIST, &SchemeKind::ALL, &[cfg]);
    plan.table(
        "fig3_memory.csv",
        format!("Fig 3 — unreclaimed nodes over time (lazy list ~500, {threads} threads, 50i-50d)"),
        "scheme\\ops",
        sample_labels(threads as u64 * ops, sample_every),
    )
    .traces(&rows);
    plan
}

/// §III ablation: L1 associativity must not meaningfully hurt CA progress.
/// Reports CA throughput and the spurious-failure counts per associativity.
///
/// The sweep starts at 2-way: a direct-mapped L1 cannot hold the CA lazy
/// list's three-line tag window when two window lines map to the same set,
/// which livelocks an operation *deterministically* — the situation for
/// which the paper's §IV "facilitating progress" discussion prescribes a
/// fallback. Our reproduction surfaces that boundary faithfully (the
/// `ca_loop` retry ceiling turns it into a loud failure); see
/// EXPERIMENTS.md.
fn ablation_assoc(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    let assocs = [2usize, 4, 8, 16];
    let cfgs = assocs.map(|l1_assoc| RunConfig {
        threads,
        cache: CacheConfig {
            l1_assoc,
            ..CacheConfig::default()
        },
        ..base(scale)
    });
    let mut plan = Plan::default();
    let cells = plan.cells(LAZY_LIST, SchemeKind::Ca, &cfgs);
    plan.table(
        "ablation_assoc_throughput.csv",
        format!("Associativity ablation — CA lazy list, {threads} threads, 50i-50d"),
        "metric\\assoc",
        labels(&assocs),
    )
    .row("ca ops/Mcycle", &cells, throughput_of);
    plan.table(
        "ablation_assoc_spurious.csv",
        "Associativity ablation — ARB sets from evictions (spurious sources)",
        "metric\\assoc",
        labels(&assocs),
    )
    .row("cread failures", &cells, |o| o.metrics.cread_fail as f64)
    .row("eviction revokes", &cells, |o| o.metrics.spurious_revokes as f64);
    plan
}

/// §I ablation: the batch-size/epoch-frequency tradeoff that motivates the
/// paper. Sweeps the reclamation frequency for qsbr and ibr; CA needs no
/// such parameter (its row is flat by construction).
fn ablation_freq(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    let freqs = [1u64, 10, 30, 100, 1000];
    let cfgs = freqs.map(|f| RunConfig {
        threads,
        smr: SmrConfig {
            reclaim_freq: f,
            epoch_freq: 5 * f,
            ..Default::default()
        },
        ..base(scale)
    });
    let mut plan = Plan::default();
    let rows = plan.by_scheme(LAZY_LIST, &[SchemeKind::Qsbr, SchemeKind::Ibr, SchemeKind::Ca], &cfgs);
    plan.table(
        "ablation_freq_throughput.csv",
        format!("Reclamation-frequency ablation — lazy list, {threads} threads, 50i-50d"),
        "scheme\\freq",
        labels(&freqs),
    )
    .rows(&rows, throughput_of);
    plan.table(
        "ablation_freq_peak.csv",
        "Reclamation-frequency ablation — peak unreclaimed nodes",
        "scheme\\freq",
        labels(&freqs),
    )
    .rows(&rows, |o| o.metrics.peak_allocated as f64);
    plan
}

/// Simulator-fidelity ablation: scheduler lookahead quantum. Throughput
/// estimates should drift only mildly with the quantum; this bounds the
/// modeling error introduced by lax synchronization.
fn ablation_quantum(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    let quanta = [0u64, 16, 64, 256, 1024];
    let cfgs = quanta.map(|quantum| RunConfig {
        threads,
        quantum,
        ..base(scale)
    });
    let mut plan = Plan::default();
    let rows = plan.by_scheme(LAZY_LIST, &[SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::Hp], &cfgs);
    plan.table(
        "ablation_quantum.csv",
        format!("Scheduler-quantum ablation — lazy list, {threads} threads, 50i-50d"),
        "scheme\\quantum",
        labels(&quanta),
    )
    .rows(&rows, throughput_of);
    plan
}

/// §III multiuser extension: OS preemption sets the ARB of switched-out
/// threads. Sweeps the context-switch interval and reports CA throughput,
/// switch-induced revokes, and a qsbr baseline (which only pays the switch
/// cost itself). Demonstrates CA degrades gracefully in multiuser systems.
fn ablation_ctxswitch(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    // Interval in cycles; a 1 GHz core with HZ=1000 switches every ~1M
    // cycles, so even the harshest point here (20k) is pessimistic.
    let intervals = [None, Some(500_000), Some(100_000), Some(20_000)];
    let cfgs = intervals.map(|interval| RunConfig {
        threads,
        ctx_switch: interval.map(|i| (i, 2000)),
        ..base(scale)
    });
    let mut plan = Plan::default();
    let ca = plan.cells(LAZY_LIST, SchemeKind::Ca, &cfgs);
    let qsbr = plan.cells(LAZY_LIST, SchemeKind::Qsbr, &cfgs);
    plan.table(
        "ablation_ctxswitch.csv",
        format!("Context-switch ablation — lazy list, {threads} threads, 50i-50d"),
        "metric\\interval",
        labels(&["never", "500k", "100k", "20k"]),
    )
    .row("ca ops/Mcycle", &ca, throughput_of)
    .row("qsbr ops/Mcycle", &qsbr, throughput_of)
    .row("ca spurious revokes", &ca, |o| o.metrics.spurious_revokes as f64);
    plan
}

fn latency_of(o: &Outcome) -> &Histogram {
    o.latency.as_ref().expect("the cell ran with Instrument::Latency")
}

/// §I claim: batch reclamation causes "long program interruptions and
/// dramatically increases tail latency". Records per-operation latency
/// (simulated cycles) and reports the distribution per scheme; the second
/// group re-runs the epoch schemes with a 10× larger batch to show the tail
/// scaling with the tuning knob while CA has no knob and no tail.
fn ablation_latency(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    let columns: [(&str, Extract); 5] = [
        ("p50", |o| latency_of(o).quantile(0.50) as f64),
        ("p90", |o| latency_of(o).quantile(0.90) as f64),
        ("p99", |o| latency_of(o).quantile(0.99) as f64),
        ("p99.9", |o| latency_of(o).quantile(0.999) as f64),
        ("max", |o| latency_of(o).max() as f64),
    ];
    let paper_batch = RunConfig {
        threads,
        // Enough deletes per thread that even the 300-deep batches of the
        // second group actually fill and flush (a thread retires roughly
        // ops/4 nodes in this mix).
        ops_per_thread: match scale {
            Scale::Quick => scale.ops(),
            _ => scale.ops().max(2500),
        },
        ..base(scale)
    };
    // The knob turned up: reclaim batches of 300 (epoch bump every 1500).
    let big_batch = RunConfig {
        smr: SmrConfig {
            reclaim_freq: 300,
            epoch_freq: 1500,
            ..Default::default()
        },
        ..paper_batch.clone()
    };
    let mut plan = Plan::default();
    let mut rows = Vec::new();
    for (cfg, schemes, suffix) in [
        (&paper_batch, &SchemeKind::ALL[..], ""),
        (&big_batch, &[SchemeKind::Qsbr, SchemeKind::Ibr, SchemeKind::He], "@300"),
    ] {
        for &scheme in schemes {
            let cell = plan.push(Cell {
                structure: LAZY_LIST,
                scheme,
                cfg: cfg.clone(),
                instrument: Instrument::Latency,
            });
            rows.push((format!("{}{suffix}", scheme.name()), cell));
        }
    }
    let table = plan.table(
        "ablation_latency.csv",
        format!("Tail-latency ablation — lazy list, {threads} threads, 50i-50d (cycles)"),
        "scheme\\quantile",
        labels(&columns.map(|(name, _)| name)),
    );
    for (name, cell) in rows {
        table.across(name, cell, &columns.map(|(_, f)| f));
    }
    plan
}

/// §III SMT rules: the same workload threads packed 2 (and 4) hyperthreads
/// per physical core. Sibling stores revoke tags without coherence traffic;
/// shared L1 capacity halves. Reports CA and qsbr throughput per packing,
/// plus CA's sibling-revoke counts. A thread count that is not a multiple
/// of the packing has no cell.
fn ablation_smt(scale: Scale, _: bool) -> Plan {
    let threads: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4],
        _ => vec![4, 8, 16, 32],
    };
    let each = |cells: &[Option<usize>], f: Extract| {
        Row::Each(cells.iter().map(|c| c.map(|i| (i, f))).collect())
    };
    let mut plan = Plan::default();
    let mut packings = Vec::new();
    // The (2, ca) row also feeds the revocation table.
    let mut ca2 = Vec::new();
    for smt in [1usize, 2, 4] {
        for scheme in [SchemeKind::Ca, SchemeKind::Qsbr] {
            let cells: Vec<Option<usize>> = threads
                .iter()
                .map(|&t| {
                    let cfg = RunConfig {
                        threads: t,
                        smt,
                        ..base(scale)
                    };
                    (t % smt == 0).then(|| plan.cells(LAZY_LIST, scheme, &[cfg])[0])
                })
                .collect();
            packings.push((format!("{} smt={smt}", scheme.name()), each(&cells, throughput_of)));
            if (smt, scheme) == (2, SchemeKind::Ca) {
                ca2 = cells;
            }
        }
    }
    let throughput = plan.table(
        "ablation_smt_throughput.csv",
        "SMT ablation — lazy list, 50i-50d, threads packed k per core",
        "variant\\threads",
        labels(&threads),
    );
    throughput.rows = packings;
    let revokes = plan.table(
        "ablation_smt_revokes.csv",
        "SMT ablation — CA revocation sources (k=2 packing)",
        "metric\\threads",
        labels(&threads),
    );
    revokes.rows = vec![
        (
            "sibling-store revokes".into(),
            each(&ca2, |o| o.metrics.sibling_revokes as f64),
        ),
        (
            "conditional-access failures".into(),
            each(&ca2, |o| (o.metrics.cread_fail + o.metrics.cwrite_fail) as f64),
        ),
    ];
    plan
}

/// §IV claim: CA only assumes "MSI, MESI or other such equivalent
/// mechanisms". Runs the lazy list and stack under both protocols; CA's
/// relative standing must be protocol-independent (the MESI columns get
/// faster in absolute terms from E-grants and silent upgrades, for every
/// scheme alike).
fn ablation_protocol(scale: Scale, _: bool) -> Plan {
    let threads = scale.fixed_threads();
    let mut plan = Plan::default();
    let mut rows = Vec::new();
    for scheme in [SchemeKind::Ca, SchemeKind::None, SchemeKind::Qsbr] {
        for (prefix, structure) in [("list", LAZY_LIST), ("stack", Structure::Stack)] {
            let cfgs = [Protocol::Msi, Protocol::Mesi].map(|protocol| RunConfig {
                threads,
                cache: CacheConfig {
                    protocol,
                    ..CacheConfig::default()
                },
                ..base(scale)
            });
            rows.push((format!("{prefix}/{}", scheme.name()), plan.cells(structure, scheme, &cfgs)));
        }
    }
    plan.table(
        "ablation_protocol_throughput.csv",
        format!("Protocol ablation — {threads} threads, 50i-50d"),
        "structure/scheme\\protocol",
        labels(&["msi", "mesi"]),
    )
    .rows(&rows, throughput_of);
    let mesi_events = plan.table(
        "ablation_protocol_mesi_events.csv",
        "Protocol ablation — MESI-only event counts",
        "structure/scheme\\counter",
        labels(&["e_grants", "silent_upgrades"]),
    );
    for (name, cells) in rows {
        mesi_events.across(
            name,
            cells[1],
            &[|o| o.metrics.e_grants as f64, |o| o.metrics.silent_upgrades as f64],
        );
    }
    plan
}

/// §IV "facilitating progress": the elision-style fallback path. Table 1
/// measures its fast-path overhead (two stores + one fence per op) on the
/// paper's geometry, where the fallback never triggers. Table 2 runs a
/// hostile geometry — a 16-line direct-mapped L1, where bare CA livelocks
/// deterministically — and shows operations completing via the sequential
/// path instead.
fn ablation_fallback(scale: Scale, _: bool) -> Plan {
    let fallbacks: Extract = |o| o.fallbacks as f64;
    let mut plan = Plan::default();

    let threads: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 4],
        _ => vec![1, 4, 16, 32],
    };
    let cfgs = at_threads(&threads, base(scale));
    let bare = plan.cells(LAZY_LIST, SchemeKind::Ca, &cfgs);
    let guarded = plan.cells(Structure::FallbackList { max_attempts: 32 }, SchemeKind::Ca, &cfgs);
    plan.table(
        "ablation_fallback_overhead.csv",
        "Fallback ablation — fast-path overhead on the paper geometry (lazy list, 50i-50d)",
        "variant\\threads",
        labels(&threads),
    )
    .row("ca (bare)", &bare, throughput_of)
    .row("ca+fallback", &guarded, throughput_of)
    .row("fallbacks taken", &guarded, fallbacks);

    // Hostile geometry: a 16-line direct-mapped L1. Bare CA livelocks here
    // (the ca_loop ceiling turns that into a panic), so only the fallback
    // variant is run.
    let threads: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2],
        _ => vec![1, 2, 4],
    };
    let geometry = RunConfig {
        key_range: 64,
        prefill: 32,
        ops_per_thread: scale.ops().min(300),
        cache: CacheConfig {
            l1_bytes: 1024,
            l1_assoc: 1,
            l2_bytes: 64 * 1024,
            l2_assoc: 8,
            ..CacheConfig::default()
        },
        ..base(scale)
    };
    let cfgs = at_threads(&threads, geometry);
    let hostile = plan.cells(Structure::FallbackList { max_attempts: 8 }, SchemeKind::Ca, &cfgs);
    plan.table(
        "ablation_fallback_hostile.csv",
        "Fallback ablation — hostile geometry (1 KiB direct-mapped L1); bare CA livelocks",
        "metric\\threads",
        labels(&threads),
    )
    .row("ca+fallback ops/Mcycle", &hostile, throughput_of)
    .row("fallbacks taken", &hostile, fallbacks)
    .row("fallback share of ops", &hostile, |o| {
        o.fallbacks as f64 / o.metrics.total_ops as f64
    });
    plan
}

/// §IV-A extra: MS queue, 50% enqueue / 50% dequeue.
fn queue_bench(scale: Scale, _: bool) -> Plan {
    let threads = scale.threads();
    let queue = RunConfig {
        prefill: 256,
        ..base(scale)
    };
    let cfgs = at_threads(&threads, queue);
    let mut plan = Plan::default();
    let rows = plan.by_scheme(Structure::Queue, &SchemeKind::ALL, &cfgs);
    plan.table("queue_bench.csv", "MS queue — 50enq-50deq", "scheme\\threads", labels(&threads))
        .rows(&rows, throughput_of);
    plan
}

/// The lock-free extensions (paper future work), 100% updates: one
/// lock-free CA `variant` row, then the lock-based structure of the same
/// shape under CA and the fastest baselines, as `{scheme}-{suffix}` rows.
fn lockfree_bench(
    csv: &str,
    title: &str,
    (variant_row, variant): (&str, Structure),
    (suffix, lock_based): (&str, Structure),
    key_range: u64,
    scale: Scale,
) -> Plan {
    let threads = scale.threads();
    let keys = RunConfig {
        key_range,
        prefill: key_range / 2,
        ..base(scale)
    };
    let cfgs = at_threads(&threads, keys);
    let mut plan = Plan::default();
    let lock_free = plan.cells(variant, SchemeKind::Ca, &cfgs);
    let baselines =
        plan.by_scheme(lock_based, &[SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::None], &cfgs);
    let table = plan.table(csv, title, "variant\\threads", labels(&threads));
    table.row(variant_row, &lock_free, throughput_of);
    for (scheme, cells) in &baselines {
        table.row(format!("{scheme}-{suffix}"), cells, throughput_of);
    }
    plan
}

/// §VI comparator: the hand-over-hand transactional list (Zhou et al.) vs
/// CA and the fastest epoch baseline, on the read-only and 100%-update
/// workloads, then the HTM abort rates of the update workload's cells.
fn htm_bench(scale: Scale, _: bool) -> Plan {
    let threads = scale.threads();
    let mut plan = Plan::default();
    let mut htm = Vec::new();
    for (csv, mix) in [
        ("htm_bench_readonly.csv", Mix::PAPER[0]),
        ("htm_bench_updates.csv", Mix::PAPER[2]),
    ] {
        let cfgs = at_threads(&threads, RunConfig { mix, ..base(scale) });
        let baselines =
            plan.by_scheme(LAZY_LIST, &[SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::None], &cfgs);
        htm = [256usize, 16]
            .map(|slots| {
                let cells = plan.cells(Structure::HtmList { slots }, SchemeKind::Ca, &cfgs);
                (format!("htm-hoh/{slots}"), cells)
            })
            .into();
        plan.table(
            csv,
            format!("HTM comparator — lazy list, {}", mix.label()),
            "variant\\threads",
            labels(&threads),
        )
        .rows(&baselines, throughput_of)
        .rows(&htm, throughput_of);
    }
    let aborts = plan.table(
        "htm_bench_aborts.csv",
        "HTM comparator — aborts per operation and transactions per operation, 50i-50d",
        "metric\\threads",
        labels(&threads),
    );
    for (name, cells) in &htm {
        aborts.row(format!("{name} aborts/op"), cells, |o| {
            o.metrics.tx_aborts as f64 / o.metrics.total_ops.max(1) as f64
        });
        aborts.row(format!("{name} tx/op"), cells, |o| {
            o.metrics.tx_begins as f64 / o.metrics.total_ops.max(1) as f64
        });
    }
    plan
}

/// What the two fault figures share: the lock-free MS queue, and a cadence
/// that makes a fault-pinned backlog visible.
///
/// The queue (not the lazy list) because crash-robustness is only a
/// meaningful measurement for nonblocking structures: a lock holder that
/// fail-stops wedges lock-based survivors — which the `max_cycles`
/// watchdog would report as an `ERR` cell, not a data point.
fn faulted_queue(scale: Scale, threads: usize, fault_plan: FaultPlan) -> RunConfig {
    RunConfig {
        threads,
        // Small prefill and early crashes: a frozen he/ibr reservation
        // pins every node born before the fail-stop (for a FIFO queue
        // that includes the whole prefill as it drains), so the
        // pre-crash population IS those schemes' garbage bound — keep
        // it small relative to the survivors' post-crash work, which is
        // what the unbounded schemes' backlog grows with.
        prefill: 64,
        fault_plan,
        // Aggressive reclamation cadence: with the lazy paper defaults
        // a short healthy run barely reclaims at all, which would mask
        // the fault-pinned backlog these figures exist to show. Scanning
        // every 4 retires makes the no-fault garbage small, so any growth
        // under fail-stopped cores is attributable to the fault, not the
        // batch size.
        smr: SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
            ..Default::default()
        },
        // Backstop: if fault handling ever wedged a run, the watchdog
        // turns it into an attributable ERR cell instead of a hang. A
        // nonzero `fig --max_cycles` replaces it.
        max_cycles: Some(2_000_000_000),
        ..base(scale)
    }
}

/// The robustness figure (PR 6): every scheme on the **lock-free** MS
/// queue with 0, 1 or 2 cores fail-stopped early in the measured phase (a
/// fail-stopped core is indistinguishable from one stalled forever — see
/// `mcsim::fault`). Three tables:
///
/// 1. throughput (ops/Mcycle) — survivors of the per-op epoch schemes keep
///    *running* at full speed even though they can no longer reclaim;
/// 2. peak allocated-not-freed nodes — where that unreclaimed backlog
///    shows: qsbr/rcu/none grow with the survivors' work, hp/he/ibr stay
///    near their no-fault footprint, and CA stays at the live set;
/// 3. peak retired-but-unfreed bytes held *inside* each scheme
///    ([`casmr::GarbageStats`]; CA has no such backlog by construction and
///    is omitted).
///
/// With `recover`, each crashed column is re-run as an `N+adopt` column
/// under a **restart-bearing** plan — the victims come back, certify their
/// own fail-stop, adopt their orphans (forcible retraction + merge + scan)
/// and finish their quota — so the three tables show the pinned-backlog
/// blowup and its repair side by side.
fn fig_robustness(scale: Scale, recover: bool) -> Plan {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    // Columns: (label, crashed cores, restart-bearing?).
    let mut cols: Vec<(String, usize, bool)> = vec![
        ("0".into(), 0, false),
        ("1".into(), 1, false),
        ("2".into(), 2, false),
    ];
    if recover {
        cols.extend([1, 2].map(|s| (format!("{s}+adopt"), s, true)));
    }
    let cfgs: Vec<RunConfig> = cols
        .iter()
        .map(|&(_, crashed, restart)| {
            let mut faults = FaultPlan::none();
            for i in 0..crashed {
                // Victims are the highest-numbered cores, staggered so the
                // two-victim column exercises two distinct trigger clocks.
                let (core, at) = (threads - 1 - i, 4_000 + 3_000 * i as u64);
                faults = faults.crash(core, at);
                if restart {
                    // Long enough past the crash that the survivors pile up a
                    // visible pinned backlog before the adoption repairs it.
                    faults = faults.restart(core, at + 30_000);
                }
            }
            faulted_queue(scale, threads, faults)
        })
        .collect();
    let x_labels: Vec<String> = cols.iter().map(|(label, _, _)| label.clone()).collect();
    let mut plan = Plan::default();
    let rows = plan.by_scheme(Structure::Queue, &SchemeKind::ALL, &cfgs);
    plan.table(
        "robustness_tput.csv",
        format!(
            "Robustness — MS queue 50enq-50deq, {threads} threads, N cores \
             fail-stopped (ops/Mcycle)"
        ),
        "scheme\\stalled",
        x_labels.clone(),
    )
    .rows(&rows, throughput_of);
    plan.table(
        "robustness_footprint.csv",
        "Robustness — peak allocated-not-freed nodes under fail-stopped cores",
        "scheme\\stalled",
        x_labels.clone(),
    )
    .rows(&rows, |o| o.metrics.peak_allocated as f64);
    let garbage = plan.table(
        "robustness_garbage.csv",
        "Robustness — peak retired-but-unfreed bytes held by the scheme \
         (CA holds none by construction)",
        "scheme\\stalled",
        x_labels,
    );
    for (name, cells) in rows.iter().filter(|(name, _)| name != SchemeKind::Ca.name()) {
        // The `+adopt` columns report the *final* backlog: the peak still
        // shows the pre-adoption pileup, the final shows the repair (near
        // zero for every scheme once the orphan's publications are
        // retracted).
        let entries = cells.iter().zip(&cols).map(|(&cell, &(_, _, restart))| {
            let f: Extract = if restart {
                |o| o.metrics.final_garbage_bytes as f64
            } else {
                |o| o.metrics.peak_garbage_bytes as f64
            };
            Some((cell, f))
        });
        garbage.rows.push((name.clone(), Row::Each(entries.collect())));
    }
    plan
}

/// The crash-recovery figure (PR 10, extension): every scheme on the MS
/// queue with one core fail-stopped early in the measured phase. Two
/// tables:
///
/// 1. **garbage over time** — allocated-but-unfreed lines sampled every N
///    global ops, tracing crash → detection → adoption → reclaim. With
///    `recover` the victim restarts, certifies its own fail-stop
///    ([`casmr::CrashToken::from_restart`]), adopts its orphan and the
///    trace returns under the pre-crash bound; without it the qsbr/rcu
///    backlog grows with the survivors' work, unbounded.
/// 2. **recovery summary** — per scheme: orphans detected, adoptions,
///    adopted backlog bytes, and the crash→adoption-complete latency in
///    simulated cycles.
fn fig_recovery(scale: Scale, recover: bool) -> Plan {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    let ops = match scale {
        Scale::Quick => 800,
        Scale::Standard => 2000,
        Scale::Paper => 5000,
    };
    let total_ops = threads as u64 * ops;
    let sample_every = (total_ops / 24).max(1);
    let victim = threads - 1;
    let mut faults = FaultPlan::none().crash(victim, 6_000);
    if recover {
        faults = faults.restart(victim, 60_000);
    }
    let cfg = RunConfig {
        ops_per_thread: ops,
        sample_every: Some(sample_every),
        ..faulted_queue(scale, threads, faults)
    };
    let (mode, suffix) = if recover {
        ("crash at 6k cycles, restart+adopt at 60k", "_adopt")
    } else {
        ("crash at 6k cycles, no recovery", "")
    };
    let mut plan = Plan::default();
    let rows = plan.by_scheme(Structure::Queue, &SchemeKind::ALL, &[cfg]);
    plan.table(
        format!("recovery_trace{suffix}.csv"),
        format!(
            "Recovery — allocated-not-freed lines over time (MS queue \
             50enq-50deq, {threads} threads, {mode})"
        ),
        "scheme\\ops",
        sample_labels(total_ops, sample_every),
    )
    .traces(&rows);
    let counters: [(&str, Extract); 5] = [
        ("orphans", |o| o.metrics.orphans_detected as f64),
        ("adoptions", |o| o.metrics.adoptions as f64),
        ("adopted_bytes", |o| o.metrics.adopted_bytes as f64),
        ("latency_cycles", |o| o.metrics.recovery_cycles as f64),
        ("final_garbage_bytes", |o| o.metrics.final_garbage_bytes as f64),
    ];
    let summary = plan.table(
        format!("recovery_summary{suffix}.csv"),
        format!("Recovery — detection/adoption summary (MS queue, {threads} threads, {mode})"),
        "scheme\\counter",
        labels(&counters.map(|(name, _)| name)),
    );
    for (name, cells) in rows {
        summary.across(name, cells[0], &counters.map(|(_, f)| f));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Render the named figures at `--quick` as one sweep; the tables come
    /// back in emission order.
    fn quick(names: &[&str], recover: bool) -> Vec<SeriesTable> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let plans = select(&names, Scale::Quick, recover).expect("registry names");
        render("test", &plans).0.into_iter().map(|(_, table)| table).collect()
    }

    fn row(t: &SeriesTable, name: &str) -> Vec<f64> {
        t.series.iter().find(|(n, _)| n == name).unwrap().1.clone()
    }

    #[test]
    fn registry_plans_are_well_formed() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "figure names are unique");
        for scale in [Scale::Quick, Scale::Standard, Scale::Paper] {
            for recover in [false, true] {
                let mut csvs = BTreeSet::new();
                for fig in &FIGURES {
                    let plan = (fig.plan)(scale, recover);
                    for c in &plan.cells {
                        assert!(
                            c.structure.supports(c.scheme),
                            "{}: {} under {}",
                            fig.name,
                            c.structure.name(),
                            c.scheme
                        );
                        if c.structure == Structure::Queue {
                            assert_eq!(c.cfg.mix.updates(), 100, "{}: queues have no reads", fig.name);
                        }
                    }
                    assert!(!plan.tables.is_empty(), "{} writes nothing", fig.name);
                    for t in &plan.tables {
                        assert!(csvs.insert(t.csv.clone()), "{} is written twice", t.csv);
                        assert!(!t.rows.is_empty(), "{} has no rows", t.csv);
                        for (name, row) in &t.rows {
                            match row {
                                Row::Each(entries) => {
                                    assert_eq!(entries.len(), t.x_labels.len(), "{} row {name}", t.csv);
                                    for (i, _) in entries.iter().flatten() {
                                        assert!(*i < plan.cells.len(), "{} row {name}", t.csv);
                                    }
                                }
                                Row::Trace(i) => assert!(*i < plan.cells.len(), "{} row {name}", t.csv),
                            }
                        }
                    }
                }
                assert_eq!(csvs.len(), 37, "tables per full run ({scale:?}, recover={recover})");
            }
        }
    }

    #[test]
    fn select_resolves_names_and_the_recover_flag() {
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let csvs = |ns: &[&str], recover: bool| -> Vec<String> {
            select(&names(ns), Scale::Quick, recover)
                .expect("valid selection")
                .iter()
                .flat_map(|p| p.tables.iter().map(|t| t.csv.clone()))
                .collect()
        };
        // `all`: robustness plain, recovery with adoption — the registry's
        // `recover` column, not a special case in the bin.
        let all = csvs(&["all"], false);
        assert_eq!(all.len(), 37);
        assert_eq!(all.iter().filter(|csv| csv.ends_with("_adopt.csv")).count(), 2);
        let plans = select(&names(&["all"]), Scale::Quick, false).unwrap();
        let robustness = &plans[FIGURES.iter().position(|f| f.name == "fig_robustness").unwrap()];
        assert_eq!(robustness.tables[0].x_labels, ["0", "1", "2"]);
        // A named figure takes the flag as given.
        assert!(csvs(&["fig_recovery"], false).iter().all(|csv| !csv.ends_with("_adopt.csv")));
        assert!(csvs(&["fig_recovery", "queue_bench"], true)[..2].iter().all(|csv| csv.ends_with("_adopt.csv")));

        let err = |ns: &[&str], recover: bool| {
            select(&names(ns), Scale::Quick, recover).err().expect("rejected")
        };
        assert!(err(&[], false).contains("at least one figure"));
        assert!(err(&["fig9"], false).contains("unknown figure `fig9`"));
        assert!(err(&["fig3_memory"], true).contains("`--recover`"));
    }

    #[test]
    fn cross_panel_flattening_is_a_pure_reordering() {
        // Rendering figures {A, B} in one sweep must produce tables
        // byte-identical to rendering A and B alone: flattening only
        // changes host scheduling (task-list shape), never cell values or
        // table assembly order.
        let together = quick(&["ablation_assoc", "queue_bench"], false);
        let mut alone = quick(&["ablation_assoc"], false);
        alone.extend(quick(&["queue_bench"], false));
        assert_eq!(together.len(), 3);
        for (t, a) in together.iter().zip(&alone) {
            assert_eq!(t.render(), a.render());
            assert_eq!(t.to_csv(), a.to_csv());
        }
    }

    #[test]
    fn a_failed_cell_is_err_and_every_other_cell_completes() {
        let names = ["ablation_assoc".to_string(), "queue_bench".to_string()];
        let mut plans = select(&names, Scale::Quick, false).unwrap();
        // The 4-way cell of the associativity sweep trips the watchdog.
        plans[0].cells[1].cfg.max_cycles = Some(1);
        let (tables, failures) = render("test-failed-cell", &plans);
        let [assoc_tput, assoc_spurious, queue] = &tables[..] else {
            panic!("two associativity tables and the queue's");
        };

        let [failure] = &failures[..] else {
            panic!("exactly the one failed cell: {failures:?}");
        };
        assert_eq!((failure.label.as_str(), failure.index), ("test-failed-cell", 1));
        assert!(failure.message.contains("wedge watchdog"), "{}", failure.message);

        for (csv, t) in [assoc_tput, assoc_spurious] {
            for (name, values) in &t.series {
                assert!(sweep::is_err_cell(values[1]), "{csv} {name}: {values:?}");
                for v in [values[0], values[2], values[3]] {
                    assert!(v.is_finite(), "{csv} {name}: {values:?}");
                }
            }
            assert!(t.render().contains("ERR"));
            assert!(t.to_csv().lines().skip(1).all(|l| l.split(',').nth(2) == Some("ERR")));
        }
        // ERR is one specific NaN; a not-applicable cell's plain NaN is not.
        assert!(!sweep::is_err_cell(f64::NAN));
        assert_eq!(queue.1.to_csv(), quick(&["queue_bench"], false)[0].to_csv());
    }

    #[test]
    fn quick_scale_shapes() {
        assert_eq!(Scale::Quick.threads(), vec![1, 2, 4]);
        assert_eq!(Scale::Paper.ops(), 3000);
    }

    #[test]
    fn fig_robustness_quick_separates_schemes() {
        // The PR-6 acceptance claim: with one fail-stopped thread, the
        // per-op epoch schemes' retired-but-unfreed backlog grows with the
        // survivors' work, while the per-read schemes stay near their
        // no-fault footprint and CA stays at the live set.
        let tables = quick(&["fig_robustness"], false);
        let [tput, footprint, garbage] = &tables[..] else {
            panic!("three robustness tables");
        };
        for (name, vals) in &tput.series {
            assert!(
                vals.iter().all(|&v| v > 0.0 && !v.is_nan()),
                "{name}: survivors must keep completing ops: {vals:?}"
            );
        }
        let qsbr = row(garbage, "qsbr");
        let rcu = row(garbage, "rcu");
        for (name, g) in [("qsbr", &qsbr), ("rcu", &rcu)] {
            assert!(
                g[1] > 3.0 * g[0].max(64.0),
                "{name}: one fail-stopped thread must blow up the pinned \
                 backlog ({} -> {})",
                g[0],
                g[1]
            );
        }
        for name in ["hp", "he", "ibr"] {
            let g = row(garbage, name);
            assert!(
                g[1] <= 2.0 * g[0] + 64.0 * 64.0,
                "{name}: per-read protection must keep garbage bounded \
                 ({} -> {})",
                g[0],
                g[1]
            );
        }
        let ca = row(footprint, "ca");
        assert!(
            ca.iter().all(|&v| v < 400.0),
            "ca: immediate reclamation keeps the footprint at the live set \
             even with fail-stopped threads: {ca:?}"
        );
    }

    #[test]
    fn fig_recovery_quick_returns_garbage_under_the_precrash_bound() {
        // The PR-10 acceptance claim: with restart+adoption, qsbr/rcu
        // post-crash garbage returns under the pre-crash bound; without
        // it, the backlog only grows with the survivors' work.
        let recovered = quick(&["fig_recovery"], true);
        let (trace_rec, summary) = (&recovered[0], &recovered[1]);
        let trace_no = &quick(&["fig_recovery"], false)[0];
        let last_finite = |r: &[f64]| -> f64 {
            *r.iter().rev().find(|v| v.is_finite()).expect("a finite sample")
        };
        // The trace is allocated-not-freed, i.e. live queue set plus
        // garbage, and the live set random-walks upward under the 50/50
        // mix — so the baseline for "no pinned backlog" is CA's final
        // sample (immediate reclamation: live set plus nothing), not the
        // first sample of the scheme's own trace. A recovered scheme may
        // end above it only by its bounded tail of not-yet-scanned
        // retires.
        let ca_final = last_finite(&row(trace_rec, "ca"));
        for name in ["qsbr", "rcu"] {
            let rec = row(trace_rec, name);
            let no = row(trace_no, name);
            assert!(
                last_finite(&rec) <= ca_final + 128.0,
                "{name}: adoption must return the trace to the live-set \
                 baseline plus a bounded tail ({} vs ca's {})",
                last_finite(&rec),
                ca_final
            );
            assert!(
                last_finite(&no) > 2.0 * last_finite(&rec),
                "{name}: without recovery the backlog must keep growing \
                 ({} vs {})",
                last_finite(&no),
                last_finite(&rec)
            );
            let s = row(summary, name);
            assert_eq!(s[0], 1.0, "{name}: one orphan detected");
            assert_eq!(s[1], 1.0, "{name}: one adoption");
            assert!(s[3] > 0.0, "{name}: recovery latency on the clock");
        }
        // CA needs no adoption and stays near the live set either way.
        let ca = row(trace_rec, "ca");
        assert!(last_finite(&ca) < 400.0, "ca stays at the live set: {ca:?}");
        assert_eq!(row(summary, "ca")[1], 0.0, "ca adopts nothing");
    }

    #[test]
    fn fig_robustness_recover_columns_repair_the_backlog() {
        let tables = quick(&["fig_robustness"], true);
        let garbage = &tables[2];
        assert_eq!(garbage.x_labels, ["0", "1", "2", "1+adopt", "2+adopt"]);
        for (name, g) in &garbage.series {
            // Leaky never frees: the restarted victim finishing its quota
            // can only ADD to the permanent backlog, so the repair claim
            // does not apply to it.
            if name == "none" {
                assert!(
                    g[3] >= g[1],
                    "none: restart finishes the quota, growing the \
                     permanent backlog ({} vs {})",
                    g[3],
                    g[1]
                );
                continue;
            }
            // Columns 3/4 are the final backlog after adoption: bounded
            // for every reclaiming scheme, including qsbr/rcu whose
            // column 1/2 peaks blow up.
            assert!(
                g[3] <= g[1].max(64.0 * 64.0),
                "{name}: adoption must not leave more garbage than the \
                 unrepaired peak ({} vs {})",
                g[3],
                g[1]
            );
        }
        let qsbr = row(garbage, "qsbr");
        assert!(
            qsbr[3] < qsbr[1] / 2.0,
            "qsbr: the adopted column must repair most of the pinned \
             backlog ({} vs {})",
            qsbr[3],
            qsbr[1]
        );
    }

    #[test]
    fn fig3_quick_has_all_schemes() {
        let t = &quick(&["fig3_memory"], false)[0];
        assert_eq!(t.series.len(), 7);
        // CA stays near the live-set size throughout; none only grows.
        let ca = row(t, "ca");
        let none = row(t, "none");
        assert!(ca.iter().all(|&v| v.is_nan() || v < 700.0), "ca flat: {ca:?}");
        assert!(
            none.last().unwrap() > ca.last().unwrap(),
            "leaky footprint must exceed CA"
        );
        // Immediate reclamation vs batching: CA's peak is below rcu's
        // (`f64::max` skips NaN cells).
        let peak = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let rcu = row(t, "rcu");
        assert!(peak(&ca) < peak(&rcu), "CA peak below rcu's: {ca:?} vs {rcu:?}");
    }
}
