//! Workspace lint driver. Run from anywhere in the repo:
//!
//! ```text
//! cargo run -p castatic                 # lint; nonzero exit on findings
//! cargo run -p castatic -- --write-ledger   # regenerate ORDERINGS.md
//! ```
//!
//! Rule scoping (see lib.rs for the rules themselves):
//! - `unsafe-comment` runs on every workspace source file.
//! - `nondet` runs on the sim-deterministic crates (mcsim, cacore, casmr,
//!   cads, caharness), excluding `bin/` (the figure binaries are host-side
//!   reporting tools and measure wall clock on purpose) and exempting
//!   `config.rs` from the env/argv-read sub-rule (the sanctioned funnel).
//! - `atomic-ledger` runs on `crates/casmr/src` and diffs against
//!   `ORDERINGS.md` at the repo root.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use castatic::{atomic_uses, lint_file, Finding, Rules};

/// Crates where nondeterminism is a correctness bug (their outputs are
/// golden-file pinned).
const NONDET_CRATES: &[&str] = &["mcsim", "cacore", "casmr", "cads", "caharness"];

/// Crates linted at all (skips `shims/`, which is vendored-shim code).
const LINT_CRATES: &[&str] = &["mcsim", "cacore", "casmr", "cads", "caharness", "castatic"];

fn repo_root() -> PathBuf {
    // Baked at compile time: crates/castatic -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("castatic lives two levels below the repo root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, sorted for a deterministic
/// report.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            out.extend(rust_files(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out
}

/// The aggregated ledger: `(file, fn, op, ordering) -> count`.
type Ledger = BTreeMap<(String, String, String, String), u64>;

fn ledger_from_sources(root: &Path) -> Ledger {
    let mut ledger = Ledger::new();
    for path in rust_files(&root.join("crates/casmr/src")) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path).expect("source file vanished mid-lint");
        for u in atomic_uses(&src) {
            *ledger.entry((rel.clone(), u.func, u.op, u.ordering)).or_insert(0) += 1;
        }
    }
    ledger
}

fn render_ledger(ledger: &Ledger) -> String {
    let mut s = String::from(
        "# Atomic-ordering ledger\n\
         \n\
         Every `Ordering::*` use in `crates/casmr/src`, keyed by file, enclosing\n\
         function, atomic operation, and ordering. Regenerate with\n\
         `cargo run -p castatic -- --write-ledger`; `cargo run -p castatic`\n\
         fails if this file and the sources disagree, so any ordering change\n\
         (a relaxation, a new atomic, a deleted one) must be committed here —\n\
         and therefore reviewed. The memory-model arguments behind these\n\
         choices live in `crates/casmr/src/native.rs` SAFETY comments and in\n\
         ANALYSIS.md.\n\
         \n\
         | file | fn | op | ordering | count |\n\
         |------|----|----|----------|-------|\n",
    );
    for ((file, func, op, ord), count) in ledger {
        s.push_str(&format!("| {file} | {func} | {op} | {ord} | {count} |\n"));
    }
    s
}

fn parse_ledger(text: &str) -> Ledger {
    let mut ledger = Ledger::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(|c| c.trim()).collect();
        if cells.len() != 5 || cells[0] == "file" || cells[0].starts_with('-') {
            continue;
        }
        let Ok(count) = cells[4].parse::<u64>() else {
            continue;
        };
        ledger.insert(
            (
                cells[0].to_string(),
                cells[1].to_string(),
                cells[2].to_string(),
                cells[3].to_string(),
            ),
            count,
        );
    }
    ledger
}

/// Diff source-derived vs checked-in ledgers into findings.
fn ledger_findings(root: &Path) -> Vec<Finding> {
    let actual = ledger_from_sources(root);
    let ledger_path = root.join("ORDERINGS.md");
    let committed = match std::fs::read_to_string(&ledger_path) {
        Ok(text) => parse_ledger(&text),
        Err(_) => {
            return vec![Finding {
                file: "ORDERINGS.md".to_string(),
                line: 1,
                col: 1,
                rule: "atomic-ledger",
                msg: "ledger missing; run `cargo run -p castatic -- --write-ledger`".to_string(),
            }]
        }
    };
    let mut out = Vec::new();
    for (key, count) in &actual {
        let (file, func, op, ord) = key;
        match committed.get(key) {
            Some(c) if c == count => {}
            Some(c) => out.push(Finding {
                file: file.clone(),
                line: 1,
                col: 1,
                rule: "atomic-ledger",
                msg: format!(
                    "{func}/{op}/{ord}: {count} use(s) in source, ledger says {c}; \
                     review the change and regenerate ORDERINGS.md"
                ),
            }),
            None => out.push(Finding {
                file: file.clone(),
                line: 1,
                col: 1,
                rule: "atomic-ledger",
                msg: format!(
                    "{func}/{op}/{ord}: new atomic use not in ORDERINGS.md; \
                     review the ordering and regenerate the ledger"
                ),
            }),
        }
    }
    for (key, count) in &committed {
        if !actual.contains_key(key) {
            let (file, func, op, ord) = key;
            out.push(Finding {
                file: "ORDERINGS.md".to_string(),
                line: 1,
                col: 1,
                rule: "atomic-ledger",
                msg: format!(
                    "stale row {file}/{func}/{op}/{ord} (count {count}): no longer in \
                     source; regenerate the ledger"
                ),
            });
        }
    }
    out
}

fn main() {
    let root = repo_root();
    if std::env::args().any(|a| a == "--write-ledger") {
        let ledger = ledger_from_sources(&root);
        let rendered = render_ledger(&ledger);
        std::fs::write(root.join("ORDERINGS.md"), rendered).expect("write ORDERINGS.md");
        println!("castatic: wrote ORDERINGS.md ({} rows)", ledger.len());
        return;
    }

    let mut findings = Vec::new();
    let mut files = 0usize;
    let mut dirs: Vec<(PathBuf, &str)> = LINT_CRATES
        .iter()
        .map(|c| (root.join("crates").join(c).join("src"), *c))
        .collect();
    dirs.push((root.join("src"), "conditional-access"));
    for (dir, krate) in dirs {
        for path in rust_files(&dir) {
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let in_bin = rel.contains("/bin/");
            let rules = Rules {
                unsafe_comment: true,
                nondet: NONDET_CRATES.contains(&krate) && !in_bin,
                env_exempt: path.file_name().is_some_and(|f| f == "config.rs"),
            };
            let src = std::fs::read_to_string(&path).expect("source file vanished mid-lint");
            findings.extend(lint_file(&rel, &src, rules));
            files += 1;
        }
    }
    findings.extend(ledger_findings(&root));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    for f in &findings {
        println!("{}", f.render());
    }
    println!(
        "castatic: {} file(s), {} finding(s)",
        files,
        findings.len()
    );
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
