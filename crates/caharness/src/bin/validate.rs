//! Sim↔native cross-validation: runs the lazy-list 50i-50d throughput
//! panel on **both** backends — the cycle-level simulator and real host
//! threads (`casmr::NativeMachine`) — with identical structures, schemes,
//! seeds and workload generation, then scores how well the simulator's
//! *scheme ordering* matches the host's.
//!
//! The score is pairwise rank agreement per thread count: for every scheme
//! pair, the legs agree if they order the pair the same way, or if either
//! leg calls it a tie (within 15% relative). Absolute numbers are not
//! compared — the simulator charges cycles, the host measures wall-clock
//! on whatever CPU it got — only the ordering the paper's figures are
//! about. Conditional Access is excluded: it needs the simulated cache
//! hardware and has no native leg to compare against.
//!
//! Exits 2 if overall agreement falls below [`MIN_AGREEMENT`], and 1,
//! listing the failed cells, before any scoring if a cell failed.
//!
//! Each leg sets `native` itself, so there is no `--native` flag.
//!
//! Usage: `cargo run -p caharness --release --bin validate
//!         [--quick|--paper] [--jobs N] [--max_cycles N]`

use caharness::config::{Cli, Flag};
use caharness::experiments::{render, Plan};
use caharness::{RunConfig, SeriesTable, SetKind, Structure};
use casmr::SchemeKind;

/// Relative gap below which two throughputs count as a tie.
const TIE_TOLERANCE: f64 = 0.15;

/// The overall rank-agreement floor. Deliberately lax: CI hosts are often
/// 1-vCPU machines where every native thread count time-slices one core,
/// which flattens real contention effects into noise. On a many-core host,
/// expect far higher agreement.
const MIN_AGREEMENT: f64 = 0.2;

fn tie(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIE_TOLERANCE * a.max(b)
}

fn main() {
    let cli = Cli::from_env(&[Flag::Quick, Flag::Paper, Flag::Jobs, Flag::MaxCycles]);
    let scale = cli.scale;
    caharness::sweep::set_jobs(cli.jobs);
    eprintln!("[validate at {scale:?} scale, agreement floor {MIN_AGREEMENT}]");

    let threads = scale.threads();
    let schemes: Vec<SchemeKind> = SchemeKind::objects().collect();
    let cols: Vec<String> = threads.iter().map(|t| t.to_string()).collect();

    // Both legs are one plan, so they run as one sweep; the executor gives
    // a native cell the occupancy of the `t` real threads it spawns, so
    // the pool never oversubscribes the host.
    let mut plan = Plan::default();
    for (native, csv, title) in [
        (
            false,
            "validate_sim.csv",
            "Validation — simulated lazy list 50i-50d (ops/Mcycle)",
        ),
        (
            true,
            "validate_native.csv",
            "Validation — native lazy list 50i-50d (ops/µs wall-clock)",
        ),
    ] {
        let cfgs: Vec<RunConfig> = threads
            .iter()
            .map(|&t| RunConfig {
                threads: t,
                ops_per_thread: scale.ops(),
                native,
                max_cycles: cli.max_cycles,
                ..Default::default()
            })
            .collect();
        let rows = plan.by_scheme(Structure::Set(SetKind::LazyList), &schemes, &cfgs);
        plan.table(csv, title, "scheme\\threads", cols.clone())
            .rows(&rows, |o| o.metrics.throughput);
    }
    let (tables, failures) = render("validate", &plan);
    for (csv, table) in &tables {
        table.emit(csv);
    }
    caharness::finish(&failures);
    // leg[scheme].1[thread-idx]
    let (sim, native) = (&tables[0].1.series, &tables[1].1.series);

    // Pairwise rank agreement per thread count.
    let mut agreement_row: Vec<f64> = Vec::new();
    for (k, _) in threads.iter().enumerate() {
        let mut pairs = 0u32;
        let mut agreements = 0u32;
        for i in 0..schemes.len() {
            for j in (i + 1)..schemes.len() {
                let (a, b) = (sim[i].1[k], sim[j].1[k]);
                let (c, d) = (native[i].1[k], native[j].1[k]);
                if a.is_nan() || b.is_nan() || c.is_nan() || d.is_nan() {
                    continue; // ERR cell: not scoreable
                }
                pairs += 1;
                if tie(a, b) || tie(c, d) || ((a > b) == (c > d)) {
                    agreements += 1;
                }
            }
        }
        agreement_row.push(if pairs == 0 {
            f64::NAN
        } else {
            agreements as f64 / pairs as f64
        });
    }
    let mut agreement_table = SeriesTable::new(
        format!(
            "Validation — sim↔native pairwise rank agreement \
             (ties within {}% count as agreement)",
            (TIE_TOLERANCE * 100.0) as u32
        ),
        "metric\\threads",
        cols,
    );
    agreement_table.push_series("rank agreement", agreement_row.clone());
    agreement_table.emit("validate_agreement.csv");

    let scored: Vec<f64> = agreement_row.into_iter().filter(|v| !v.is_nan()).collect();
    assert!(!scored.is_empty(), "no scoreable thread counts");
    let overall = scored.iter().sum::<f64>() / scored.len() as f64;
    println!("overall rank agreement: {overall:.3} (floor {MIN_AGREEMENT})");
    if overall < MIN_AGREEMENT {
        eprintln!("FAIL: sim↔native rank agreement {overall:.3} below floor {MIN_AGREEMENT}");
        std::process::exit(2);
    }
}
