//! Happens-before race audit over the full scheme × structure grid.
//!
//! Runs every SMR scheme against every benchmark structure with the
//! deterministic race analyzer armed (`MachineConfig::race_check`) and
//! diffs each cell's finding signatures against the checked-in whitelist
//! (`crates/caharness/src/race_whitelist.txt`). A signature is
//! `(region, prior-kind, later-kind)`; whitelisted signatures are benign
//! by construction (each line in the whitelist carries a one-line
//! justification). Any signature *not* in the whitelist is printed as
//! `UNEXPLAINED` and the process exits nonzero — the CI gate for newly
//! introduced ordering holes.
//!
//! The workload is deliberately small (the analyzer is O(events) per run
//! and the grid is every `Structure::ALL` × `SchemeKind::ALL` pair that
//! `Structure::supports`: the paper's five structures under every scheme,
//! the CA-only extensions as `ca`; the closing line counts the cells) and
//! pinned to quantum 0, where the analyzer's linearization `(clock, core,
//! seq)` is exact, so the report is byte-identical across backends.
//!
//! Usage: `cargo run --release -p caharness --bin race_audit [--quick]
//! [--max_cycles N]` (the analyzer watches simulated memory events, so
//! there is no `--native`; the cells run one after another, so there is no
//! `--jobs`).
//!
//! `--quick` runs a 6-cell subset as a CI smoke (one list, one tree, the
//! stack and the queue, covering the CAS-heavy and fence-heavy schemes).

use caharness::config::{Cli, Flag};
use caharness::{run, Mix, RunConfig, Scale, SetKind, Structure};
use casmr::SchemeKind;

/// Whitelisted benign signatures, one `region prior later # why` per line.
const WHITELIST: &str = include_str!("../race_whitelist.txt");

fn whitelist() -> Vec<(String, String, String)> {
    WHITELIST
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let (Some(region), Some(prior), Some(later)) = (it.next(), it.next(), it.next()) else {
                panic!("malformed whitelist line: {l:?} (want `region prior later # why`)");
            };
            (region.to_string(), prior.to_string(), later.to_string())
        })
        .collect()
}

fn audit_cfg(updates_only: bool, max_cycles: Option<u64>) -> RunConfig {
    RunConfig {
        threads: 4,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 400,
        mix: if updates_only {
            Mix {
                insert_pct: 50,
                delete_pct: 50,
            }
        } else {
            Mix {
                insert_pct: 25,
                delete_pct: 25,
            }
        },
        // Quantum 0 keeps the analyzer's linearization exact, which makes
        // the report byte-identical across backends.
        quantum: 0,
        race_check: true,
        max_cycles,
        ..Default::default()
    }
}

fn main() {
    let cli = Cli::from_env(&[Flag::Quick, Flag::MaxCycles]);
    let quick = cli.scale == Scale::Quick;
    let allow = whitelist();

    let mut unexplained = 0u64;
    let mut cells = 0u64;
    println!("race_audit quantum=0 threads=4 quick={quick}");
    for structure in Structure::ALL {
        for scheme in SchemeKind::ALL {
            if !structure.supports(scheme) {
                continue;
            }
            if quick {
                // Smoke subset: every structure shape once, on the two
                // extreme schemes (fence-heavy Hp, primitive-level Ca),
                // plus the queue's qsbr cell for an epoch scheme.
                let keep = matches!(
                    (structure, scheme),
                    (
                        Structure::Set(SetKind::LazyList),
                        SchemeKind::Hp | SchemeKind::Ca
                    ) | (Structure::Set(SetKind::ExtBst), SchemeKind::Hp)
                        | (Structure::Set(SetKind::HashTable), SchemeKind::Ca)
                        | (Structure::Stack, SchemeKind::Hp)
                        | (Structure::Queue, SchemeKind::Qsbr)
                );
                if !keep {
                    continue;
                }
            }
            let cfg = audit_cfg(structure == Structure::Queue, cli.max_cycles);
            let report = run(structure, scheme, &cfg)
                .race
                .expect("audit_cfg arms race_check");
            cells += 1;
            println!(
                "cell structure={} scheme={} events={} findings={}",
                structure.name(),
                scheme.name(),
                report.events,
                report.findings.len()
            );
            for f in &report.findings {
                let sig = (f.region.clone(), f.prior.to_string(), f.later.to_string());
                let verdict = if allow.contains(&sig) {
                    "whitelisted"
                } else {
                    unexplained += 1;
                    "UNEXPLAINED"
                };
                println!(
                    "  {verdict} region={} pair={}->{} count={} first_word={:#x} \
                     first={}@{}->{}@{}",
                    f.region,
                    f.prior,
                    f.later,
                    f.count,
                    f.word,
                    f.prior_core,
                    f.prior_clock,
                    f.later_core,
                    f.later_clock
                );
            }
        }
    }
    println!("race_audit cells={cells} unexplained={unexplained}");
    if unexplained > 0 {
        eprintln!(
            "race_audit: {unexplained} unexplained signature(s); fix the ordering hole or \
             whitelist it with a justification in crates/caharness/src/race_whitelist.txt"
        );
        std::process::exit(1);
    }
}
