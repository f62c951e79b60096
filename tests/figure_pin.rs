//! Byte-identity pin for the figure tables.
//!
//! `tests/goldens/figure_pin.txt` holds one digest per table the `fig`
//! binary writes at `--quick`: the 41 CSVs of `fig all`. The file was
//! generated from the per-figure functions the registry replaced (PR 20);
//! since then rows have left it with deleted figures, and the three
//! `robustness_*.csv --recover` rows were renamed `robustness_*_adopt.csv`
//! when the fault figures' variants became registry entries. Each
//! digest covers the rendered text table (title, corner label, alignment)
//! and the CSV bytes, so a refactor of the experiments layer that moves a
//! title, reorders a series or changes one cell's configuration shows up as
//! a named line.
//!
//! Simulated results are bit-identical across host execution backends and
//! `--jobs` values, so one golden file serves every leg.
//!
//! Regenerate (only when an *intentional* change to a figure lands):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test figure_pin`

mod common;

use common::{check_golden, Digest};
use conditional_access::harness::experiments::{render, select, Scale, FIGURES};

#[test]
fn quick_figures_match_the_goldens() {
    let plan = select(&["all".to_string()], Scale::Quick).expect("the registry");
    let (tables, _) = render("figure_pin", &plan);
    assert_eq!(tables.len(), 41, "a full run writes 41 tables");
    let rendered: String = tables
        .iter()
        .map(|(csv, t)| {
            let digest = Digest::of(&format!("{}\n{}", t.render(), t.to_csv()));
            format!("{csv} = {digest:#018x}\n")
        })
        .collect();
    check_golden(
        "figure_pin.txt",
        &rendered,
        "a figure table diverged from the pinned bytes",
    );
}

/// The figures EXPERIMENTS.md gives a verdict section: a heading that names
/// the figure in backticks, followed by prose (the paper section or
/// extension question, the cells it reads and the verdict of a run). Lines
/// inside code fences are table or command text, never headings.
fn verdict_sections(doc: &str) -> Vec<String> {
    let mut covered = Vec::new();
    let mut heading: Option<&str> = None;
    let mut has_prose = false;
    let mut fenced = false;
    for line in doc.lines().chain(["# end"]) {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            if let (Some(h), true) = (heading, has_prose) {
                covered.extend(h.split('`').skip(1).step_by(2).map(str::to_string));
            }
            (heading, has_prose) = (Some(line), false);
        } else if !fenced && !line.trim().is_empty() {
            has_prose = true;
        }
    }
    covered
}

#[test]
fn every_figure_has_a_verdict_section() {
    let covered = verdict_sections(include_str!("../EXPERIMENTS.md"));
    let missing: Vec<&str> = FIGURES
        .iter()
        .map(|f| f.name)
        .filter(|name| !covered.iter().any(|c| c == name))
        .collect();
    assert!(
        missing.is_empty(),
        "figures without a verdict section in EXPERIMENTS.md (a heading naming \
         the figure in backticks, then prose): {missing:?}"
    );
}
