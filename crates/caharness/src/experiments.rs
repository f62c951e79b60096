//! The paper's experiments, parameterized by scale.
//!
//! Each `fig*` function reproduces one figure of the paper's §V; the
//! `ablation_*` functions cover claims the paper makes in prose (§I batch
//! tradeoffs, §III associativity insensitivity) plus one simulator-fidelity
//! check. See EXPERIMENTS.md for the experiment index and the recorded
//! paper-vs-measured results.
//!
//! Every function builds its cell cross-product as a task list and executes
//! it on the [`crate::sweep`] work-stealing pool (`--jobs N` in the bins).
//! Cells are independent (one `Machine` each, per-config seeds), so the
//! tables are byte-identical for every worker count.

use casmr::{SchemeKind, SmrConfig};
use mcsim::coherence::Protocol;
use mcsim::{CacheConfig, FaultPlan};

use crate::config::{Mix, RunConfig};
use crate::metrics::Metrics;
use crate::runner::{
    run, run_queue, run_set, run_set_latency, run_stack, Instrument, SetKind, Structure,
};
use crate::sweep;
use crate::table::SeriesTable;

/// Experiment scale: trades fidelity to the paper's exact parameters
/// against wall-clock time on the host.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke scale for CI: 4 threads max, 300 ops/thread.
    Quick,
    /// Default: full thread sweep, 1000 ops/thread.
    Standard,
    /// The paper's §V parameters: 3000 ops/thread, threads 1..32.
    Paper,
}

impl Scale {
    /// Parse from a CLI argument.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Standard
        }
    }

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
}

fn base_config(scale: Scale) -> RunConfig {
    RunConfig {
        ops_per_thread: scale.ops(),
        ..Default::default()
    }
}

/// One throughput panel of a multi-panel figure: the structure, workload
/// mix, key range and caption. Panels are just data so any number of them
/// can be flattened into a single sweep (see [`throughput_panels`]).
#[derive(Copy, Clone)]
pub struct PanelSpec<'a> {
    /// Structure under test.
    pub structure: Structure,
    /// Workload mix.
    pub mix: Mix,
    /// Key range (prefill is half of it).
    pub key_range: u64,
    /// Figure caption prefix (the workload label is appended).
    pub title: &'a str,
}

/// Throughput sweep over any number of figure panels: threads on the x
/// axis, one series per scheme, cells in ops/Mcycle. Every
/// `panel × scheme × threads` cell goes into **one** flat task list, so the
/// `--jobs` pool stays saturated across panel boundaries — the tail of one
/// panel overlaps the head of the next instead of draining to a straggler
/// per panel. A panicked cell degrades to an `ERR` cell (the failure still
/// lands in the sweep registry), matching [`sweep::grid_cells`].
pub fn throughput_panels(sweep_label: &str, specs: &[PanelSpec], scale: Scale) -> Vec<SeriesTable> {
    let threads = scale.threads();
    let mut tasks: Vec<sweep::Task<f64>> = Vec::new();
    for spec in specs {
        let structure = spec.structure;
        for &scheme in SchemeKind::ALL.iter() {
            for &t in &threads {
                let cfg = RunConfig {
                    threads: t,
                    key_range: spec.key_range,
                    prefill: spec.key_range / 2,
                    mix: spec.mix,
                    ..base_config(scale)
                };
                tasks.push(Box::new(move || {
                    run(structure, scheme, &cfg, Instrument::None).metrics.throughput
                }));
            }
        }
    }
    let mut flat = sweep::run_results(sweep_label, tasks)
        .into_iter()
        .map(|r| r.unwrap_or(sweep::ERR_CELL));
    specs
        .iter()
        .map(|spec| {
            let mut table = SeriesTable::new(
                format!("{} — workload {}", spec.title, spec.mix.label()),
                "scheme\\threads",
                threads.iter().map(|t| t.to_string()).collect(),
            );
            for scheme in SchemeKind::ALL {
                let row: Vec<f64> = threads.iter().map(|_| flat.next().expect("cell")).collect();
                table.push_series(scheme.name(), row);
            }
            table
        })
        .collect()
}

/// Single-panel convenience form of [`throughput_panels`].
pub fn throughput_panel(
    structure: Structure,
    mix: Mix,
    scale: Scale,
    key_range: u64,
    title: &str,
) -> SeriesTable {
    let label = format!("{} {}", structure.name(), mix.label());
    let spec = PanelSpec {
        structure,
        mix,
        key_range,
        title,
    };
    throughput_panels(&label, &[spec], scale)
        .pop()
        .expect("one panel in, one table out")
}

/// One throughput figure row: its CSV/bin name plus the panel parameters
/// shared by its three workload panels ([`Mix::PAPER`]).
struct FigSpec {
    name: &'static str,
    structure: Structure,
    key_range: u64,
    title: &'static str,
}

/// The four throughput figure rows, in emission order.
const THROUGHPUT_FIGS: [FigSpec; 4] = [
    FigSpec {
        name: "fig1_lazylist",
        structure: Structure::Set(SetKind::LazyList),
        key_range: 1000,
        title: "Fig 1 (top) lazy list, size ~500",
    },
    FigSpec {
        name: "fig1_extbst",
        structure: Structure::Set(SetKind::ExtBst),
        key_range: 10_000,
        title: "Fig 1 (bottom) external BST, size ~5K",
    },
    FigSpec {
        name: "fig2_hashtable",
        structure: Structure::Set(SetKind::HashTable),
        key_range: 1000,
        title: "Fig 2 (top) hash table, 128 buckets",
    },
    FigSpec {
        name: "fig2_stack",
        structure: Structure::Stack,
        key_range: 1000,
        title: "Fig 2 (bottom) stack",
    },
];

/// The three workload panels of one figure row.
fn fig_panels(fig: &FigSpec) -> Vec<PanelSpec<'static>> {
    Mix::PAPER
        .iter()
        .map(|&mix| PanelSpec {
            structure: fig.structure,
            mix,
            key_range: fig.key_range,
            title: fig.title,
        })
        .collect()
}

fn one_fig(fig: &FigSpec, scale: Scale) -> Vec<SeriesTable> {
    throughput_panels(fig.name, &fig_panels(fig), scale)
}

/// Figure 1 (top row): lazy list, keys 0..1K, three workload panels.
pub fn fig1_lazylist(scale: Scale) -> Vec<SeriesTable> {
    one_fig(&THROUGHPUT_FIGS[0], scale)
}

/// Figure 1 (bottom row): external BST, keys 0..10K.
pub fn fig1_extbst(scale: Scale) -> Vec<SeriesTable> {
    one_fig(&THROUGHPUT_FIGS[1], scale)
}

/// Figure 2 (top row): 128-bucket chaining hash table, keys 0..1K.
pub fn fig2_hashtable(scale: Scale) -> Vec<SeriesTable> {
    one_fig(&THROUGHPUT_FIGS[2], scale)
}

/// Figure 2 (bottom row): Treiber stack (reads are peeks).
pub fn fig2_stack(scale: Scale) -> Vec<SeriesTable> {
    one_fig(&THROUGHPUT_FIGS[3], scale)
}

/// All four throughput figures (Fig 1 top/bottom, Fig 2 top/bottom) as one
/// flat cross-panel sweep — 12 panels, `4 × 3 × schemes × threads` cells in
/// a single task list. `all_figures` uses this instead of running the
/// figure functions back to back, which would drain the `--jobs` pool to a
/// straggler at each of the 12 panel boundaries. Returns `(csv name,
/// table)` pairs in the order the per-figure bins emit them.
pub fn throughput_figures(scale: Scale) -> Vec<(String, SeriesTable)> {
    let specs: Vec<PanelSpec> = THROUGHPUT_FIGS.iter().flat_map(fig_panels).collect();
    let names = THROUGHPUT_FIGS.iter().flat_map(|fig| {
        (0..Mix::PAPER.len()).map(|i| format!("{}_panel{i}.csv", fig.name))
    });
    names
        .zip(throughput_panels("throughput_figures", &specs, scale))
        .collect()
}

/// Figure 3: nodes allocated-but-not-freed over time. Lazy list of ~500
/// nodes, 16 threads, 100% updates, 5000 ops/thread, sampled every 1000
/// global operations (all parameters straight from the paper).
pub fn fig3_memory(scale: Scale) -> SeriesTable {
    let (threads, ops) = match scale {
        Scale::Quick => (4, 1500),
        _ => (16, 5000),
    };
    let sample_every = 1000;
    let total_ops = threads as u64 * ops;
    let n_samples = (total_ops / sample_every) as usize;
    let mut table = SeriesTable::new(
        format!(
            "Fig 3 — unreclaimed nodes over time (lazy list ~500, {threads} threads, 50i-50d)"
        ),
        "scheme\\ops",
        (1..=n_samples)
            .map(|i| (i as u64 * sample_every).to_string())
            .collect(),
    );
    let tasks: Vec<sweep::Task<Metrics>> = SchemeKind::ALL
        .iter()
        .map(|&scheme| {
            let cfg = RunConfig {
                threads,
                key_range: 1000,
                prefill: 500,
                ops_per_thread: ops,
                mix: Mix {
                    insert_pct: 50,
                    delete_pct: 50,
                },
                sample_every: Some(sample_every),
                ..Default::default()
            };
            Box::new(move || run_set(SetKind::LazyList, scheme, &cfg)) as sweep::Task<Metrics>
        })
        .collect();
    for (scheme, m) in SchemeKind::ALL.iter().zip(sweep::run("fig3", tasks)) {
        let mut row: Vec<f64> = m.footprint.iter().map(|(_, live)| *live as f64).collect();
        row.resize(n_samples, f64::NAN);
        table.push_series(scheme.name(), row);
    }
    table
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
pub fn ablation_associativity(scale: Scale) -> (SeriesTable, SeriesTable) {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    let assocs = [2usize, 4, 8, 16];
    let mut tput = SeriesTable::new(
        format!("Associativity ablation — CA lazy list, {threads} threads, 50i-50d"),
        "metric\\assoc",
        assocs.iter().map(|a| a.to_string()).collect(),
    );
    let mut spurious = SeriesTable::new(
        "Associativity ablation — ARB sets from evictions (spurious sources)",
        "metric\\assoc",
        assocs.iter().map(|a| a.to_string()).collect(),
    );
    let tasks: Vec<sweep::Task<Metrics>> = assocs
        .iter()
        .map(|&assoc| {
            let cfg = RunConfig {
                threads,
                key_range: 1000,
                prefill: 500,
                mix: Mix {
                    insert_pct: 50,
                    delete_pct: 50,
                },
                cache: CacheConfig {
                    l1_assoc: assoc,
                    ..CacheConfig::default()
                },
                ..base_config(scale)
            };
            Box::new(move || run_set(SetKind::LazyList, SchemeKind::Ca, &cfg))
                as sweep::Task<Metrics>
        })
        .collect();
    let ms = sweep::run("ablation_assoc", tasks);
    tput.push_series("ca ops/Mcycle", ms.iter().map(|m| m.throughput).collect());
    spurious.push_series("cread failures", ms.iter().map(|m| m.cread_fail as f64).collect());
    spurious.push_series(
        "eviction revokes",
        ms.iter().map(|m| m.spurious_revokes as f64).collect(),
    );
    (tput, spurious)
}

/// §I ablation: the batch-size/epoch-frequency tradeoff that motivates the
/// paper. Sweeps the reclamation frequency for qsbr and ibr; CA needs no
/// such parameter (its row is flat by construction).
pub fn ablation_reclaim_freq(scale: Scale) -> (SeriesTable, SeriesTable) {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    let schemes = [SchemeKind::Qsbr, SchemeKind::Ibr, SchemeKind::Ca];
    let freqs = [1u64, 10, 30, 100, 1000];
    let labels: Vec<String> = freqs.iter().map(|f| f.to_string()).collect();
    let mut tput = SeriesTable::new(
        format!("Reclamation-frequency ablation — lazy list, {threads} threads, 50i-50d"),
        "scheme\\freq",
        labels.clone(),
    );
    let mut peak = SeriesTable::new(
        "Reclamation-frequency ablation — peak unreclaimed nodes",
        "scheme\\freq",
        labels,
    );
    let cells = sweep::grid("ablation_freq", &schemes, &freqs, |&scheme, &f| {
        let cfg = RunConfig {
            threads,
            key_range: 1000,
            prefill: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            smr: SmrConfig {
                reclaim_freq: f,
                epoch_freq: 5 * f,
                ..Default::default()
            },
            ..base_config(scale)
        };
        run_set(SetKind::LazyList, scheme, &cfg)
    });
    for (scheme, row) in schemes.iter().zip(cells) {
        tput.push_series(scheme.name(), row.iter().map(|m| m.throughput).collect());
        peak.push_series(
            scheme.name(),
            row.iter().map(|m| m.peak_allocated as f64).collect(),
        );
    }
    (tput, peak)
}

/// Simulator-fidelity ablation: scheduler lookahead quantum. Throughput
/// estimates should drift only mildly with the quantum; this bounds the
/// modeling error introduced by lax synchronization.
pub fn ablation_quantum(scale: Scale) -> SeriesTable {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    let schemes = [SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::Hp];
    let quanta = [0u64, 16, 64, 256, 1024];
    let mut table = SeriesTable::new(
        format!("Scheduler-quantum ablation — lazy list, {threads} threads, 50i-50d"),
        "scheme\\quantum",
        quanta.iter().map(|q| q.to_string()).collect(),
    );
    let cells = sweep::grid_cells("ablation_quantum", &schemes, &quanta, |&scheme, &q| {
        let cfg = RunConfig {
            threads,
            key_range: 1000,
            prefill: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            quantum: q,
            ..base_config(scale)
        };
        run_set(SetKind::LazyList, scheme, &cfg).throughput
    });
    for (scheme, row) in schemes.iter().zip(cells) {
        table.push_series(scheme.name(), row);
    }
    table
}

/// §III multiuser extension: OS preemption sets the ARB of switched-out
/// threads. Sweeps the context-switch interval and reports CA throughput,
/// switch-induced revokes, and a qsbr baseline (which only pays the switch
/// cost itself). Demonstrates CA degrades gracefully in multiuser systems.
pub fn ablation_ctx_switch(scale: Scale) -> SeriesTable {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    // Interval in cycles; a 1 GHz core with HZ=1000 switches every ~1M
    // cycles, so even the harshest point here (20k) is pessimistic.
    let intervals: [Option<u64>; 4] = [None, Some(500_000), Some(100_000), Some(20_000)];
    let labels = ["never", "500k", "100k", "20k"];
    let schemes = [SchemeKind::Ca, SchemeKind::Qsbr];
    let mut table = SeriesTable::new(
        format!("Context-switch ablation — lazy list, {threads} threads, 50i-50d"),
        "metric\\interval",
        labels.iter().map(|l| l.to_string()).collect(),
    );
    // Rows are intervals so each (interval, scheme) cell is one task.
    let cells = sweep::grid("ablation_ctxswitch", &intervals, &schemes, |&iv, &scheme| {
        let cfg = RunConfig {
            threads,
            key_range: 1000,
            prefill: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ctx_switch: iv.map(|i| (i, 2000)),
            ..base_config(scale)
        };
        run_set(SetKind::LazyList, scheme, &cfg)
    });
    table.push_series(
        "ca ops/Mcycle",
        cells.iter().map(|row| row[0].throughput).collect(),
    );
    table.push_series(
        "qsbr ops/Mcycle",
        cells.iter().map(|row| row[1].throughput).collect(),
    );
    table.push_series(
        "ca spurious revokes",
        cells.iter().map(|row| row[0].spurious_revokes as f64).collect(),
    );
    table
}

/// Labels of a [`lockfree_vs_baselines`] panel.
struct LfLabels {
    /// Table caption.
    title: &'static str,
    /// Sweep progress label.
    sweep: &'static str,
    /// Series name of the lock-free variant row.
    variant: &'static str,
    /// Suffix of the baseline series names (`{scheme}-{suffix}`).
    suffix: &'static str,
}

/// Shared scaffold of the lock-free-extension benches ([`harris_bench`],
/// [`lfbst_bench`]): one lock-free variant row, then the lock-based
/// baselines for `kind`, all cells in one flat sweep (variant row first,
/// then one row per scheme, reassembled by `chunks(threads.len())`).
fn lockfree_vs_baselines(
    labels: LfLabels,
    scale: Scale,
    kind: SetKind,
    variant: Structure,
    cfg_for: impl Fn(usize) -> RunConfig + Sync,
) -> SeriesTable {
    let threads = scale.threads();
    let mut table = SeriesTable::new(
        labels.title,
        "variant\\threads",
        threads.iter().map(|t| t.to_string()).collect(),
    );
    let schemes = [SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::None];
    let cfg_for = &cfg_for;
    let mut tasks: Vec<sweep::Task<f64>> = Vec::new();
    for &t in &threads {
        tasks.push(Box::new(move || {
            run(variant, SchemeKind::Ca, &cfg_for(t), Instrument::None).metrics.throughput
        }));
    }
    for &scheme in &schemes {
        for &t in &threads {
            tasks.push(Box::new(move || run_set(kind, scheme, &cfg_for(t)).throughput));
        }
    }
    let flat = sweep::run(labels.sweep, tasks);
    let mut rows = flat.chunks(threads.len());
    table.push_series(labels.variant, rows.next().expect("variant row").to_vec());
    for scheme in schemes {
        table.push_series(
            format!("{}-{}", scheme.name(), labels.suffix),
            rows.next().expect("baseline row").to_vec(),
        );
    }
    table
}

/// Extension: the lock-free CA Harris list (paper future work) vs. the
/// lock-based CA lazy list and the fastest baselines, 100% updates.
pub fn harris_bench(scale: Scale) -> SeriesTable {
    lockfree_vs_baselines(
        LfLabels {
            title: "Lock-free CA Harris list vs lock-based lists — 50i-50d",
            sweep: "harris_bench",
            variant: "ca-harris (lock-free)",
            suffix: "lazy",
        },
        scale,
        SetKind::LazyList,
        Structure::Harris,
        move |t| RunConfig {
            threads: t,
            key_range: 1000,
            prefill: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ..base_config(scale)
        },
    )
}

/// Extension: the lock-free CA external BST (future work, tree half) vs
/// the paper's lock-based CA BST and the fastest baselines, 100% updates.
pub fn lfbst_bench(scale: Scale) -> SeriesTable {
    lockfree_vs_baselines(
        LfLabels {
            title: "Lock-free CA external BST vs lock-based BSTs — 50i-50d, keys 0..10K",
            sweep: "lfbst_bench",
            variant: "ca-lf-bst (lock-free)",
            suffix: "bst",
        },
        scale,
        SetKind::ExtBst,
        Structure::LfBst,
        move |t| RunConfig {
            threads: t,
            key_range: 10_000,
            prefill: 5_000,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ..base_config(scale)
        },
    )
}

/// §IV-A extra: MS queue, 50% enqueue / 50% dequeue.
pub fn queue_bench(scale: Scale) -> SeriesTable {
    let threads = scale.threads();
    let mut table = SeriesTable::new(
        "MS queue — 50enq-50deq",
        "scheme\\threads",
        threads.iter().map(|t| t.to_string()).collect(),
    );
    let rows = sweep::grid_cells("queue_bench", &SchemeKind::ALL, &threads, |&scheme, &t| {
        let cfg = RunConfig {
            threads: t,
            key_range: 1000,
            prefill: 256,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ..base_config(scale)
        };
        run_queue(scheme, &cfg).throughput
    });
    for (scheme, row) in SchemeKind::ALL.iter().zip(rows) {
        table.push_series(scheme.name(), row);
    }
    table
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
/// The queue (not the lazy list) because crash-robustness is only a
/// meaningful measurement for nonblocking structures: a lock holder that
/// fail-stops wedges lock-based survivors — which the `max_cycles`
/// watchdog would report as an `ERR` cell, not a data point.
pub fn fig_robustness(scale: Scale) -> Vec<SeriesTable> {
    fig_robustness_with(scale, false)
}

/// [`fig_robustness`] with optional `+adopt` columns (the bin's
/// `--recover` flag): each crashed column re-runs under a
/// **restart-bearing** plan — the victims
/// come back, certify their own fail-stop, adopt their orphans (forcible
/// retraction + merge + scan) and finish their quota — so the three tables
/// show the pinned-backlog blowup and its repair side by side.
pub fn fig_robustness_with(scale: Scale, recover: bool) -> Vec<SeriesTable> {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    // Columns: (label, crashed cores, restart-bearing?).
    let mut cols: Vec<(String, usize, bool)> = [0usize, 1, 2]
        .iter()
        .map(|&s| (s.to_string(), s, false))
        .collect();
    if recover {
        for s in [1usize, 2] {
            cols.push((format!("{s}+adopt"), s, true));
        }
    }
    let labels: Vec<String> = cols.iter().map(|(l, _, _)| l.clone()).collect();
    let cfg_for = |s: usize, restart: bool| {
        let mut plan = FaultPlan::none();
        for i in 0..s {
            // Victims are the highest-numbered cores, staggered so the
            // two-victim column exercises two distinct trigger clocks.
            let (core, at) = (threads - 1 - i, 4_000 + 3_000 * i as u64);
            plan = plan.crash(core, at);
            if restart {
                // Long enough past the crash that the survivors pile up a
                // visible pinned backlog before the adoption repairs it.
                plan = plan.restart(core, at + 30_000);
            }
        }
        RunConfig {
            threads,
            key_range: 1000,
            // Small prefill and early crashes: a frozen he/ibr reservation
            // pins every node born before the fail-stop (for a FIFO queue
            // that includes the whole prefill as it drains), so the
            // pre-crash population IS those schemes' garbage bound — keep
            // it small relative to the survivors' post-crash work, which is
            // what the unbounded schemes' backlog grows with.
            prefill: 64,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            fault_plan: plan,
            // Aggressive reclamation cadence: with the lazy paper defaults
            // a short healthy run barely reclaims at all, which would mask
            // the fault-pinned backlog this figure exists to show. Scanning
            // every 4 retires makes the no-fault column's garbage small, so
            // any growth under fail-stopped cores is attributable to the
            // fault, not the batch size.
            smr: SmrConfig {
                reclaim_freq: 4,
                epoch_freq: 8,
                ..Default::default()
            },
            // Backstop: if fault handling ever wedged a run, the watchdog
            // turns it into an attributable ERR cell instead of a hang.
            max_cycles: crate::config::default_max_cycles().or(Some(2_000_000_000)),
            ..base_config(scale)
        }
    };
    let cfg_for = &cfg_for;
    let cols = &cols;
    let tasks: Vec<sweep::Task<Metrics>> = SchemeKind::ALL
        .iter()
        .flat_map(|&scheme| {
            cols.iter().map(move |&(_, s, restart)| {
                Box::new(move || run_queue(scheme, &cfg_for(s, restart))) as sweep::Task<Metrics>
            })
        })
        .collect();
    let flat = sweep::run_results("fig_robustness", tasks);

    let mut tput = SeriesTable::new(
        format!(
            "Robustness — MS queue 50enq-50deq, {threads} threads, N cores \
             fail-stopped (ops/Mcycle)"
        ),
        "scheme\\stalled",
        labels.clone(),
    );
    let mut footprint = SeriesTable::new(
        "Robustness — peak allocated-not-freed nodes under fail-stopped cores",
        "scheme\\stalled",
        labels.clone(),
    );
    let mut garbage = SeriesTable::new(
        "Robustness — peak retired-but-unfreed bytes held by the scheme \
         (CA holds none by construction)",
        "scheme\\stalled",
        labels,
    );
    for (scheme, row) in SchemeKind::ALL.iter().zip(flat.chunks(cols.len())) {
        let pick = |f: &dyn Fn(&Metrics) -> f64| -> Vec<f64> {
            row.iter()
                .map(|r| r.as_ref().map_or(sweep::ERR_CELL, f))
                .collect()
        };
        tput.push_series(scheme.name(), pick(&|m| m.throughput));
        footprint.push_series(scheme.name(), pick(&|m| m.peak_allocated as f64));
        if *scheme != SchemeKind::Ca {
            // The `+adopt` columns report the *final* backlog: the peak
            // still shows the pre-adoption pileup, the final shows the
            // repair (near zero for every scheme once the orphan's
            // publications are retracted).
            garbage.push_series(
                scheme.name(),
                row.iter()
                    .zip(cols)
                    .map(|(r, &(_, _, restart))| {
                        r.as_ref().map_or(sweep::ERR_CELL, |m| {
                            if restart {
                                m.final_garbage_bytes as f64
                            } else {
                                m.peak_garbage_bytes as f64
                            }
                        })
                    })
                    .collect(),
            );
        }
    }
    vec![tput, footprint, garbage]
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
pub fn fig_recovery(scale: Scale, recover: bool) -> (SeriesTable, SeriesTable) {
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
    let n_samples = (total_ops / sample_every) as usize;
    let victim = threads - 1;
    let mut plan = FaultPlan::none().crash(victim, 6_000);
    if recover {
        plan = plan.restart(victim, 60_000);
    }
    let cfg = RunConfig {
        threads,
        key_range: 1000,
        // Small prefill + early crash, as in fig_robustness: the bounded
        // schemes' pinned set is the pre-crash population, so keep it
        // small relative to the survivors' post-crash churn.
        prefill: 64,
        ops_per_thread: ops,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        fault_plan: plan,
        smr: SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
            ..Default::default()
        },
        sample_every: Some(sample_every),
        max_cycles: crate::config::default_max_cycles().or(Some(2_000_000_000)),
        ..base_config(scale)
    };
    let cfg = &cfg;
    let tasks: Vec<sweep::Task<Metrics>> = SchemeKind::ALL
        .iter()
        .map(|&scheme| Box::new(move || run_queue(scheme, cfg)) as sweep::Task<Metrics>)
        .collect();
    let results = sweep::run_results("fig_recovery", tasks);

    let mode = if recover {
        "crash at 6k cycles, restart+adopt at 60k"
    } else {
        "crash at 6k cycles, no recovery"
    };
    let mut trace = SeriesTable::new(
        format!(
            "Recovery — allocated-not-freed lines over time (MS queue \
             50enq-50deq, {threads} threads, {mode})"
        ),
        "scheme\\ops",
        (1..=n_samples)
            .map(|i| (i as u64 * sample_every).to_string())
            .collect(),
    );
    let mut summary = SeriesTable::new(
        format!(
            "Recovery — detection/adoption summary (MS queue, {threads} \
             threads, {mode})"
        ),
        "scheme\\counter",
        ["orphans", "adoptions", "adopted_bytes", "latency_cycles", "final_garbage_bytes"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for (scheme, r) in SchemeKind::ALL.iter().zip(results) {
        match r {
            Ok(m) => {
                let mut row: Vec<f64> =
                    m.footprint.iter().map(|&(_, live)| live as f64).collect();
                // A crashed-for-good victim completes fewer ops, so its
                // trace legitimately ends early: pad with plain NaN (not
                // ERR) like fig3 does.
                row.truncate(n_samples);
                row.resize(n_samples, f64::NAN);
                trace.push_series(scheme.name(), row);
                summary.push_series(
                    scheme.name(),
                    vec![
                        m.orphans_detected as f64,
                        m.adoptions as f64,
                        m.adopted_bytes as f64,
                        m.recovery_cycles as f64,
                        m.final_garbage_bytes as f64,
                    ],
                );
            }
            Err(_) => {
                trace.push_series(scheme.name(), vec![sweep::ERR_CELL; n_samples]);
                summary.push_series(scheme.name(), vec![sweep::ERR_CELL; 5]);
            }
        }
    }
    (trace, summary)
}

/// §I claim: batch reclamation causes "long program interruptions and
/// dramatically increases tail latency". Records per-operation latency
/// (simulated cycles) and reports the distribution per scheme; the second
/// group re-runs the epoch schemes with a 10× larger batch to show the tail
/// scaling with the tuning knob while CA has no knob and no tail.
pub fn ablation_latency(scale: Scale) -> SeriesTable {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    let quantiles: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)];
    let mut cols: Vec<String> = quantiles.iter().map(|(n, _)| n.to_string()).collect();
    cols.push("max".into());
    let mut table = SeriesTable::new(
        format!("Tail-latency ablation — lazy list, {threads} threads, 50i-50d (cycles)"),
        "scheme\\quantile",
        cols,
    );
    let base = RunConfig {
        threads,
        key_range: 1000,
        prefill: 500,
        mix: Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
        // Enough deletes per thread that even the 300-deep batches of the
        // second group actually fill and flush (a thread retires roughly
        // ops/4 nodes in this mix).
        ops_per_thread: match scale {
            Scale::Quick => scale.ops(),
            _ => scale.ops().max(2500),
        },
        ..base_config(scale)
    };
    let big_batch = [SchemeKind::Qsbr, SchemeKind::Ibr, SchemeKind::He];
    let mut tasks: Vec<sweep::Task<Vec<f64>>> = Vec::new();
    let quantile_row = move |h: &crate::hist::Histogram| -> Vec<f64> {
        let mut row: Vec<f64> = quantiles.iter().map(|&(_, q)| h.quantile(q) as f64).collect();
        row.push(h.max() as f64);
        row
    };
    for scheme in SchemeKind::ALL {
        let cfg = base.clone();
        tasks.push(Box::new(move || {
            let (_, h) = run_set_latency(SetKind::LazyList, scheme, &cfg);
            quantile_row(&h)
        }));
    }
    // The knob turned up: reclaim batches of 300 (epoch bump every 1500).
    for &scheme in &big_batch {
        let cfg = RunConfig {
            smr: SmrConfig {
                reclaim_freq: 300,
                epoch_freq: 1500,
                ..Default::default()
            },
            ..base.clone()
        };
        tasks.push(Box::new(move || {
            let (_, h) = run_set_latency(SetKind::LazyList, scheme, &cfg);
            quantile_row(&h)
        }));
    }
    let rows = sweep::run("ablation_latency", tasks);
    let mut rows = rows.into_iter();
    for scheme in SchemeKind::ALL {
        table.push_series(scheme.name(), rows.next().expect("base row"));
    }
    for scheme in big_batch {
        table.push_series(format!("{}@300", scheme.name()), rows.next().expect("batch row"));
    }
    table
}

/// §III SMT rules: the same workload threads packed 2 (and 4) hyperthreads
/// per physical core. Sibling stores revoke tags without coherence traffic;
/// shared L1 capacity halves. Reports CA and qsbr throughput per packing,
/// plus CA's sibling-revoke counts.
pub fn ablation_smt(scale: Scale) -> (SeriesTable, SeriesTable) {
    let threads: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4],
        _ => vec![4, 8, 16, 32],
    };
    let labels: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let mut tput = SeriesTable::new(
        "SMT ablation — lazy list, 50i-50d, threads packed k per core",
        "variant\\threads",
        labels.clone(),
    );
    let mut revokes = SeriesTable::new(
        "SMT ablation — CA revocation sources (k=2 packing)",
        "metric\\threads",
        labels,
    );
    // One task per (packing, scheme, threads) cell; the (2, ca) row is
    // reused for the revocation table instead of re-running it.
    let combos: Vec<(usize, SchemeKind)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&smt| {
            [SchemeKind::Ca, SchemeKind::Qsbr]
                .iter()
                .map(move |&s| (smt, s))
                .collect::<Vec<_>>()
        })
        .collect();
    let cells = sweep::grid("ablation_smt", &combos, &threads, |&(smt, scheme), &t| {
        if t % smt != 0 {
            return None;
        }
        let cfg = RunConfig {
            threads: t,
            smt,
            key_range: 1000,
            prefill: 500,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            ..base_config(scale)
        };
        Some(run_set(SetKind::LazyList, scheme, &cfg))
    });
    for (&(smt, scheme), row) in combos.iter().zip(&cells) {
        tput.push_series(
            format!("{} smt={smt}", scheme.name()),
            row.iter()
                .map(|m| m.as_ref().map_or(f64::NAN, |m| m.throughput))
                .collect(),
        );
    }
    let ca2 = combos
        .iter()
        .position(|&(smt, s)| smt == 2 && s == SchemeKind::Ca)
        .expect("(2, ca) combo exists");
    revokes.push_series(
        "sibling-store revokes",
        cells[ca2]
            .iter()
            .map(|m| m.as_ref().map_or(f64::NAN, |m| m.sibling_revokes as f64))
            .collect(),
    );
    revokes.push_series(
        "conditional-access failures",
        cells[ca2]
            .iter()
            .map(|m| {
                m.as_ref()
                    .map_or(f64::NAN, |m| (m.cread_fail + m.cwrite_fail) as f64)
            })
            .collect(),
    );
    (tput, revokes)
}

/// §IV claim: CA only assumes "MSI, MESI or other such equivalent
/// mechanisms". Runs the lazy list and stack under both protocols; CA's
/// relative standing must be protocol-independent (the MESI columns get
/// faster in absolute terms from E-grants and silent upgrades, for every
/// scheme alike).
pub fn ablation_protocol(scale: Scale) -> (SeriesTable, SeriesTable) {
    let threads = match scale {
        Scale::Quick => 4,
        _ => 16,
    };
    let mut tput = SeriesTable::new(
        format!("Protocol ablation — {threads} threads, 50i-50d"),
        "structure/scheme\\protocol",
        vec!["msi".into(), "mesi".into()],
    );
    let mut mesi_stats = SeriesTable::new(
        "Protocol ablation — MESI-only event counts",
        "structure/scheme\\counter",
        vec!["e_grants".into(), "silent_upgrades".into()],
    );
    let schemes = [SchemeKind::Ca, SchemeKind::None, SchemeKind::Qsbr];
    // Columns: (protocol, is_stack) — four cells per scheme.
    let variants: [(Protocol, bool); 4] = [
        (Protocol::Msi, false),
        (Protocol::Mesi, false),
        (Protocol::Msi, true),
        (Protocol::Mesi, true),
    ];
    let cells = sweep::grid(
        "ablation_protocol",
        &schemes,
        &variants,
        |&scheme, &(protocol, is_stack)| {
            let cfg = RunConfig {
                threads,
                key_range: 1000,
                prefill: 500,
                mix: Mix {
                    insert_pct: 50,
                    delete_pct: 50,
                },
                cache: CacheConfig {
                    protocol,
                    ..CacheConfig::default()
                },
                ..base_config(scale)
            };
            if is_stack {
                run_stack(scheme, &cfg)
            } else {
                run_set(SetKind::LazyList, scheme, &cfg)
            }
        },
    );
    for (scheme, row) in schemes.iter().zip(&cells) {
        let [list_msi, list_mesi, stack_msi, stack_mesi] = &row[..] else {
            unreachable!("four variants per scheme");
        };
        tput.push_series(
            format!("list/{}", scheme.name()),
            vec![list_msi.throughput, list_mesi.throughput],
        );
        mesi_stats.push_series(
            format!("list/{}", scheme.name()),
            vec![list_mesi.e_grants as f64, list_mesi.silent_upgrades as f64],
        );
        tput.push_series(
            format!("stack/{}", scheme.name()),
            vec![stack_msi.throughput, stack_mesi.throughput],
        );
        mesi_stats.push_series(
            format!("stack/{}", scheme.name()),
            vec![stack_mesi.e_grants as f64, stack_mesi.silent_upgrades as f64],
        );
    }
    (tput, mesi_stats)
}

/// §IV "facilitating progress": the elision-style fallback path. Table 1
/// measures its fast-path overhead (two stores + one fence per op) on the
/// paper's geometry, where the fallback never triggers. Table 2 runs a
/// hostile geometry — a 16-line direct-mapped L1, where bare CA livelocks
/// deterministically — and shows operations completing via the sequential
/// path instead.
pub fn ablation_fallback(scale: Scale) -> (SeriesTable, SeriesTable) {
    let threads: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 4],
        _ => vec![1, 4, 16, 32],
    };
    let labels: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let mut overhead = SeriesTable::new(
        "Fallback ablation — fast-path overhead on the paper geometry (lazy list, 50i-50d)",
        "variant\\threads",
        labels,
    );
    let mix = Mix {
        insert_pct: 50,
        delete_pct: 50,
    };
    // Two tasks per thread count (bare CA; CA+fallback), flattened so the
    // heavyweight 32-thread cells run concurrently with everything else.
    let mut tasks: Vec<sweep::Task<(f64, f64)>> = Vec::new();
    for &t in &threads {
        let cfg = RunConfig {
            threads: t,
            key_range: 1000,
            prefill: 500,
            mix,
            ..base_config(scale)
        };
        let cfg2 = cfg.clone();
        tasks.push(Box::new(move || {
            (run_set(SetKind::LazyList, SchemeKind::Ca, &cfg).throughput, f64::NAN)
        }));
        tasks.push(Box::new(move || {
            let fb = Structure::FallbackList { max_attempts: 32 };
            let out = run(fb, SchemeKind::Ca, &cfg2, Instrument::None);
            (out.metrics.throughput, out.fallbacks as f64)
        }));
    }
    let flat = sweep::run("ablation_fallback", tasks);
    overhead.push_series("ca (bare)", flat.iter().step_by(2).map(|c| c.0).collect());
    overhead.push_series(
        "ca+fallback",
        flat.iter().skip(1).step_by(2).map(|c| c.0).collect(),
    );
    overhead.push_series(
        "fallbacks taken",
        flat.iter().skip(1).step_by(2).map(|c| c.1).collect(),
    );

    // Hostile geometry: a 16-line direct-mapped L1. Bare CA livelocks here
    // (the ca_loop ceiling turns that into a panic), so only the fallback
    // variant is run.
    let hostile_threads: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2],
        _ => vec![1, 2, 4],
    };
    let mut hostile = SeriesTable::new(
        "Fallback ablation — hostile geometry (1 KiB direct-mapped L1); bare CA livelocks",
        "metric\\threads",
        hostile_threads.iter().map(|t| t.to_string()).collect(),
    );
    let tasks: Vec<sweep::Task<(f64, f64, f64)>> = hostile_threads
        .iter()
        .map(|&t| {
            let cfg = RunConfig {
                threads: t,
                key_range: 64,
                prefill: 32,
                ops_per_thread: scale.ops().min(300),
                mix,
                cache: CacheConfig {
                    l1_bytes: 1024,
                    l1_assoc: 1,
                    l2_bytes: 64 * 1024,
                    l2_assoc: 8,
                    ..CacheConfig::default()
                },
                ..base_config(scale)
            };
            Box::new(move || {
                let fb = Structure::FallbackList { max_attempts: 8 };
                let out = run(fb, SchemeKind::Ca, &cfg, Instrument::None);
                let (m, k) = (out.metrics, out.fallbacks as f64);
                (m.throughput, k, k / m.total_ops as f64)
            }) as sweep::Task<(f64, f64, f64)>
        })
        .collect();
    let cells = sweep::run("ablation_fallback_hostile", tasks);
    hostile.push_series("ca+fallback ops/Mcycle", cells.iter().map(|c| c.0).collect());
    hostile.push_series("fallbacks taken", cells.iter().map(|c| c.1).collect());
    hostile.push_series("fallback share of ops", cells.iter().map(|c| c.2).collect());
    (overhead, hostile)
}

/// §VI comparator: the hand-over-hand transactional list (Zhou et al.) vs
/// CA and the fastest epoch baseline, on the read-only and 100%-update
/// workloads. Returns (read-only panel, update panel, HTM abort-rate table).
pub fn htm_bench(scale: Scale) -> (SeriesTable, SeriesTable, SeriesTable) {
    let threads = scale.threads();
    let labels: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let cfg_for = |t: usize, mix: Mix| RunConfig {
        threads: t,
        key_range: 1000,
        prefill: 500,
        mix,
        ..base_config(scale)
    };
    let read_only = Mix {
        insert_pct: 0,
        delete_pct: 0,
    };
    let updates = Mix {
        insert_pct: 50,
        delete_pct: 50,
    };
    let schemes = [SchemeKind::Ca, SchemeKind::Qsbr, SchemeKind::None];
    let slot_sizes = [256usize, 16];
    let mut panels = Vec::new();
    let mut update_htm: Vec<Vec<Metrics>> = Vec::new();
    for (mix, title) in [
        (read_only, "HTM comparator — lazy list, 0i-0d"),
        (updates, "HTM comparator — lazy list, 50i-50d"),
    ] {
        let mut table = SeriesTable::new(title, "variant\\threads", labels.clone());
        let srows = sweep::grid_cells("htm_baselines", &schemes, &threads, |&scheme, &t| {
            run_set(SetKind::LazyList, scheme, &cfg_for(t, mix)).throughput
        });
        for (scheme, row) in schemes.iter().zip(srows) {
            table.push_series(scheme.name(), row);
        }
        let hrows = sweep::grid("htm_hoh", &slot_sizes, &threads, |&slots, &t| {
            let htm = Structure::HtmList { slots };
            run(htm, SchemeKind::Ca, &cfg_for(t, mix), Instrument::None).metrics
        });
        for (&slots, row) in slot_sizes.iter().zip(&hrows) {
            table.push_series(
                format!("htm-hoh/{slots}"),
                row.iter().map(|m| m.throughput).collect(),
            );
        }
        if mix == updates {
            // Reused below for the abort-rate table (no re-run).
            update_htm = hrows;
        }
        panels.push(table);
    }
    let mut aborts = SeriesTable::new(
        "HTM comparator — aborts per operation and transactions per operation, 50i-50d",
        "metric\\threads",
        labels,
    );
    for (&slots, row) in slot_sizes.iter().zip(&update_htm) {
        aborts.push_series(
            format!("htm-hoh/{slots} aborts/op"),
            row.iter()
                .map(|m| m.tx_aborts as f64 / m.total_ops.max(1) as f64)
                .collect(),
        );
        aborts.push_series(
            format!("htm-hoh/{slots} tx/op"),
            row.iter()
                .map(|m| m.tx_begins as f64 / m.total_ops.max(1) as f64)
                .collect(),
        );
    }
    let updates_panel = panels.pop().expect("two panels built");
    let read_panel = panels.pop().expect("two panels built");
    (read_panel, updates_panel, aborts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_panel_flattening_is_a_pure_reordering() {
        // The flattened multi-panel sweep must produce tables byte-identical
        // to running each panel as its own sweep: flattening only changes
        // host scheduling (task-list shape), never cell values or table
        // assembly order.
        let a = PanelSpec {
            structure: Structure::Set(SetKind::LazyList),
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            key_range: 64,
            title: "flatten A",
        };
        let b = PanelSpec {
            structure: Structure::Stack,
            mix: Mix {
                insert_pct: 30,
                delete_pct: 30,
            },
            key_range: 64,
            title: "flatten B",
        };
        let flat = throughput_panels("flatten", &[a, b], Scale::Quick);
        assert_eq!(flat.len(), 2);
        let solo = [
            throughput_panel(a.structure, a.mix, Scale::Quick, a.key_range, a.title),
            throughput_panel(b.structure, b.mix, Scale::Quick, b.key_range, b.title),
        ];
        for (f, s) in flat.iter().zip(&solo) {
            assert_eq!(f.render(), s.render());
            assert_eq!(f.to_csv(), s.to_csv());
        }
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
        let tables = fig_robustness(Scale::Quick);
        let [tput, footprint, garbage] = &tables[..] else {
            panic!("three robustness tables");
        };
        let row = |t: &SeriesTable, name: &str| -> Vec<f64> {
            t.series.iter().find(|(n, _)| n == name).unwrap().1.clone()
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
        let (trace_rec, summary) = fig_recovery(Scale::Quick, true);
        let (trace_no, _) = fig_recovery(Scale::Quick, false);
        let row = |t: &SeriesTable, name: &str| -> Vec<f64> {
            t.series.iter().find(|(n, _)| n == name).unwrap().1.clone()
        };
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
        let ca_final = last_finite(&row(&trace_rec, "ca"));
        for name in ["qsbr", "rcu"] {
            let rec = row(&trace_rec, name);
            let no = row(&trace_no, name);
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
            let s = row(&summary, name);
            assert_eq!(s[0], 1.0, "{name}: one orphan detected");
            assert_eq!(s[1], 1.0, "{name}: one adoption");
            assert!(s[3] > 0.0, "{name}: recovery latency on the clock");
        }
        // CA needs no adoption and stays near the live set either way.
        let ca = row(&trace_rec, "ca");
        assert!(last_finite(&ca) < 400.0, "ca stays at the live set: {ca:?}");
        assert_eq!(row(&summary, "ca")[1], 0.0, "ca adopts nothing");
    }

    #[test]
    fn fig_robustness_recover_columns_repair_the_backlog() {
        let tables = fig_robustness_with(Scale::Quick, true);
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
        let qsbr = garbage.series.iter().find(|(n, _)| n == "qsbr").unwrap().1.clone();
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
        let t = fig3_memory(Scale::Quick);
        assert_eq!(t.series.len(), 7);
        // CA stays near the live-set size throughout; none only grows.
        let ca = &t.series.iter().find(|(n, _)| n == "ca").unwrap().1;
        let none = &t.series.iter().find(|(n, _)| n == "none").unwrap().1;
        assert!(ca.iter().all(|&v| v.is_nan() || v < 700.0), "ca flat: {ca:?}");
        assert!(
            none.last().unwrap() > ca.last().unwrap(),
            "leaky footprint must exceed CA"
        );
    }
}
