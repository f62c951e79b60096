//! Byte-identity pin for the figure tables.
//!
//! `tests/goldens/figure_pin.txt` holds one digest per table the figure
//! binaries write at `--quick`: the 37 CSVs of a full run, plus the two flag
//! variants a full run never takes (`fig_robustness --recover`, three
//! tables with the `1+adopt`/`2+adopt` columns; `fig_recovery` without
//! `--recover`, two tables). Each digest covers the rendered text table
//! (title, corner label, alignment) and the CSV bytes, so a refactor of the
//! experiments layer that moves a title, reorders a series or changes one
//! cell's configuration shows up as a named line.
//!
//! Simulated results are bit-identical across host execution backends and
//! `--jobs` values, so one golden file serves every leg.
//!
//! Regenerate (only when an *intentional* change to a figure lands):
//! `MCSIM_WRITE_GOLDENS=1 cargo test --test figure_pin`

mod common;

use common::{check_golden, Digest};
use conditional_access::harness::experiments::*;
use conditional_access::harness::SeriesTable;

#[test]
fn quick_figures_match_the_goldens() {
    let scale = Scale::Quick;
    let mut tables: Vec<(String, SeriesTable)> = throughput_figures(scale);
    let mut push = |name: &str, t: SeriesTable| tables.push((name.to_string(), t));
    push("fig3_memory.csv", fig3_memory(scale));
    let (t1, t2) = ablation_associativity(scale);
    push("ablation_assoc_throughput.csv", t1);
    push("ablation_assoc_spurious.csv", t2);
    let (t1, t2) = ablation_reclaim_freq(scale);
    push("ablation_freq_throughput.csv", t1);
    push("ablation_freq_peak.csv", t2);
    push("ablation_quantum.csv", ablation_quantum(scale));
    push("ablation_ctxswitch.csv", ablation_ctx_switch(scale));
    push("ablation_latency.csv", ablation_latency(scale));
    let (t1, t2) = ablation_smt(scale);
    push("ablation_smt_throughput.csv", t1);
    push("ablation_smt_revokes.csv", t2);
    let (t1, t2) = ablation_protocol(scale);
    push("ablation_protocol_throughput.csv", t1);
    push("ablation_protocol_mesi_events.csv", t2);
    let (t1, t2) = ablation_fallback(scale);
    push("ablation_fallback_overhead.csv", t1);
    push("ablation_fallback_hostile.csv", t2);
    push("queue_bench.csv", queue_bench(scale));
    push("harris_bench.csv", harris_bench(scale));
    push("lfbst_bench.csv", lfbst_bench(scale));
    let (t1, t2, t3) = htm_bench(scale);
    push("htm_bench_readonly.csv", t1);
    push("htm_bench_updates.csv", t2);
    push("htm_bench_aborts.csv", t3);
    let names = ["robustness_tput.csv", "robustness_footprint.csv", "robustness_garbage.csv"];
    for (t, name) in fig_robustness(scale).into_iter().zip(names) {
        push(name, t);
    }
    let (trace, summary) = fig_recovery(scale, true);
    push("recovery_trace_adopt.csv", trace);
    push("recovery_summary_adopt.csv", summary);
    assert_eq!(tables.len(), 37, "a full run writes 37 tables");

    // The flag variants a full run does not take.
    let mut push = |name: &str, t: SeriesTable| tables.push((name.to_string(), t));
    for (t, name) in fig_robustness_with(scale, true).into_iter().zip(names) {
        push(&format!("{name} --recover"), t);
    }
    let (trace, summary) = fig_recovery(scale, false);
    push("recovery_trace.csv", trace);
    push("recovery_summary.csv", summary);

    let rendered: String = tables
        .iter()
        .map(|(name, t)| {
            let digest = Digest::of(&format!("{}\n{}", t.render(), t.to_csv()));
            format!("{name} = {digest:#018x}\n")
        })
        .collect();
    check_golden(
        "figure_pin.txt",
        &rendered,
        "a figure table diverged from the pinned bytes",
    );
}
