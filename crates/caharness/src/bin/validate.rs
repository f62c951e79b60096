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
//! Exits nonzero if overall agreement falls below `--min_agreement`
//! (default 0.2 — deliberately lax: CI hosts are often 1-vCPU machines
//! where every native thread count time-slices one core, which flattens
//! real contention effects into noise. On a many-core host, expect far
//! higher agreement and raise the floor accordingly.)
//!
//! Usage: `cargo run -p caharness --release --bin validate
//!         [--quick|--paper] [--jobs N] [--min_agreement X]`

use caharness::experiments::Scale;
use caharness::{sweep, Mix, RunConfig, SeriesTable, SetKind};
use casmr::SchemeKind;

/// Relative gap below which two throughputs count as a tie.
const TIE_TOLERANCE: f64 = 0.15;

fn arg_value(flag: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it.next().unwrap_or_else(|| panic!("{flag} requires a value"));
            return Some(v.parse().unwrap_or_else(|_| panic!("{flag}: bad value {v}")));
        } else if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.parse().unwrap_or_else(|_| panic!("{flag}: bad value {v}")));
        }
    }
    None
}

fn tie(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIE_TOLERANCE * a.max(b)
}

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&["--min_agreement X"]);
    let min_agreement = arg_value("--min_agreement").unwrap_or(0.2);
    eprintln!("[validate at {scale:?} scale, agreement floor {min_agreement}]");

    let threads = scale.threads();
    let schemes: Vec<SchemeKind> = SchemeKind::ALL
        .iter()
        .copied()
        .filter(|&s| s != SchemeKind::Ca)
        .collect();

    // One flat task list: the sim leg first, then the native leg. A
    // simulated cell occupies one host thread (weight 1); a native cell
    // spawns `t` real threads (weight t), so the weighted pool never
    // oversubscribes the host.
    let mut tasks: Vec<(usize, sweep::Task<f64>)> = Vec::new();
    for native in [false, true] {
        for &scheme in &schemes {
            for &t in &threads {
                let cfg = RunConfig {
                    threads: t,
                    key_range: 1000,
                    prefill: 500,
                    ops_per_thread: scale.ops(),
                    mix: Mix {
                        insert_pct: 50,
                        delete_pct: 50,
                    },
                    native,
                    ..Default::default()
                };
                let weight = if native { t } else { 1 };
                tasks.push((
                    weight,
                    Box::new(move || {
                        caharness::run_set(SetKind::LazyList, scheme, &cfg).throughput
                    }),
                ));
            }
        }
    }
    let mut flat = sweep::run_results_weighted("validate", tasks)
        .into_iter()
        .map(|r| r.unwrap_or(sweep::ERR_CELL));

    // Reassemble: rows[leg][scheme][thread-idx].
    let mut legs: Vec<Vec<Vec<f64>>> = Vec::new();
    for _ in 0..2 {
        legs.push(
            schemes
                .iter()
                .map(|_| threads.iter().map(|_| flat.next().expect("cell")).collect())
                .collect(),
        );
    }
    let (sim, native) = (&legs[0], &legs[1]);

    let cols: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let mut sim_table = SeriesTable::new(
        "Validation — simulated lazy list 50i-50d (ops/Mcycle)",
        "scheme\\threads",
        cols.clone(),
    );
    let mut native_table = SeriesTable::new(
        "Validation — native lazy list 50i-50d (ops/µs wall-clock)",
        "scheme\\threads",
        cols.clone(),
    );
    for (i, scheme) in schemes.iter().enumerate() {
        sim_table.push_series(scheme.name(), sim[i].clone());
        native_table.push_series(scheme.name(), native[i].clone());
    }
    sim_table.emit("validate_sim.csv");
    native_table.emit("validate_native.csv");

    // Pairwise rank agreement per thread count.
    let mut agreement_row: Vec<f64> = Vec::new();
    for (k, _) in threads.iter().enumerate() {
        let mut pairs = 0u32;
        let mut agreements = 0u32;
        for i in 0..schemes.len() {
            for j in (i + 1)..schemes.len() {
                let (a, b) = (sim[i][k], sim[j][k]);
                let (c, d) = (native[i][k], native[j][k]);
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
    println!("overall rank agreement: {overall:.3} (floor {min_agreement})");

    caharness::finish();
    if overall < min_agreement {
        eprintln!("FAIL: sim↔native rank agreement {overall:.3} below floor {min_agreement}");
        std::process::exit(2);
    }
}
