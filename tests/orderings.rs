//! The atomic-ordering ledger: every `Ordering::*` use in
//! `crates/casmr/src` (the native backend's atomics and fences) is counted
//! per (file, fn, op, ordering) and held to `ORDERINGS.md` at the repo root.
//! A relaxed ordering, a new atomic or a deleted one fails here until the
//! ledger is regenerated, so the change shows up in review as a row diff.
//!
//! The scan is by line, not by syntax tree: `fn` is the nearest preceding
//! `fn` name, `op` is the last `name(` before the ordering on its line (`?`
//! when the call opens on an earlier line), and `//` comments are skipped.
//!
//! Regenerate (only when an ordering change is intended and reviewed):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test orderings`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `| file | fn | op | ordering |` row head -> count. The heads sort as
/// their (file, fn, op, ordering) tuples would: a space sorts before every
/// identifier character.
type Ledger = BTreeMap<String, u64>;

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const HEADER: &str = "\
# Atomic-ordering ledger

Every `Ordering::*` use in `crates/casmr/src`, keyed by file, enclosing
function, atomic operation and ordering. `tests/orderings.rs` line-scans
the sources and fails if this file and the sources disagree, so any
ordering change (a relaxation, a new atomic, a deleted one) must be
committed here, and therefore reviewed. Regenerate with
`MCSIM_WRITE_GOLDENS=1 cargo test --test orderings`. `op` is the last
call opened before the ordering on its line (`?` when the call opens on an
earlier line). The memory-model arguments behind these choices live in
`crates/casmr/src/native.rs` SAFETY comments and in ANALYSIS.md.

| file | fn | op | ordering | count |
|------|----|----|----------|-------|
";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Count the `Ordering::*` uses of one source file into `ledger`.
fn scan(file: &str, src: &str, ledger: &mut Ledger) {
    let mut func = "?";
    for line in src.lines() {
        let code = line.split("//").next().unwrap_or_default();
        if let Some(name) = code.split_whitespace().skip_while(|w| *w != "fn").nth(1) {
            func = name.split(|c| !is_ident(c)).next().unwrap_or_default();
        }
        for (at, _) in code.match_indices("Ordering::") {
            let rest = &code[at + "Ordering::".len()..];
            let ord = rest.split(|c| !is_ident(c)).next().unwrap_or_default();
            if !ORDERINGS.contains(&ord) {
                continue;
            }
            // The last `name(` before the ordering.
            let op = code[..at]
                .match_indices('(')
                .rev()
                .map(|(p, _)| &code[code[..p].trim_end_matches(is_ident).len()..p])
                .find(|name| !name.is_empty())
                .unwrap_or("?");
            *ledger
                .entry(format!("| {file} | {func} | {op} | {ord} |"))
                .or_default() += 1;
        }
    }
}

fn render(ledger: &Ledger) -> String {
    let mut s = HEADER.to_string();
    for (head, count) in ledger {
        s.push_str(&format!("{head} {count} |\n"));
    }
    s
}

#[test]
fn orderings_ledger_matches_casmr_sources() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/casmr/src"), &mut files);
    files.sort();
    let mut ledger = Ledger::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the repo root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        scan(
            &rel,
            &std::fs::read_to_string(path).expect("read a source file"),
            &mut ledger,
        );
    }
    let rendered = render(&ledger);

    let path = root.join("ORDERINGS.md");
    #[expect(
        clippy::disallowed_methods,
        reason = "MCSIM_WRITE_GOLDENS is the documented regenerate switch of every golden"
    )]
    let write = std::env::var_os("MCSIM_WRITE_GOLDENS").is_some();
    if write {
        std::fs::write(&path, &rendered).expect("write ORDERINGS.md");
        eprintln!("wrote {} ({} rows)", path.display(), ledger.len());
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read ORDERINGS.md");
    if committed != rendered {
        let rows = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with("| crates/"))
                .map(String::from)
                .collect()
        };
        let (now, then) = (rows(&rendered), rows(&committed));
        let added: Vec<_> = now.iter().filter(|r| !then.contains(r)).collect();
        let gone: Vec<_> = then.iter().filter(|r| !now.contains(r)).collect();
        panic!(
            "ORDERINGS.md disagrees with crates/casmr/src.\n\
             in the sources, not in the ledger: {added:#?}\n\
             in the ledger, not in the sources: {gone:#?}\n\
             Review the ordering change, then regenerate with \
             MCSIM_WRITE_GOLDENS=1 cargo test --test orderings"
        );
    }
}
