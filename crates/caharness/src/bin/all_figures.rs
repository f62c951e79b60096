//! Runs the complete evaluation: every figure and ablation. The four
//! throughput figures (12 panels) run as one flattened cross-panel sweep;
//! each remaining figure is already a single flat sweep internally.
//! Tables go to stdout, CSVs under `results/`.
//!
//! Usage: `cargo run -p caharness --release --bin all_figures [--quick|--paper] [--jobs N]`

use caharness::experiments::*;

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[all_figures at {scale:?} scale]");
    // All 12 throughput panels (Fig 1 top/bottom, Fig 2 top/bottom) run as
    // ONE flat sweep so the --jobs pool stays saturated across panel
    // boundaries instead of draining to a straggler 12 times.
    for (name, t) in throughput_figures(scale) {
        t.emit(&name);
    }
    fig3_memory(scale).emit("fig3_memory.csv");
    let (t1, t2) = ablation_associativity(scale);
    t1.emit("ablation_assoc_throughput.csv");
    t2.emit("ablation_assoc_spurious.csv");
    let (t1, t2) = ablation_reclaim_freq(scale);
    t1.emit("ablation_freq_throughput.csv");
    t2.emit("ablation_freq_peak.csv");
    ablation_quantum(scale).emit("ablation_quantum.csv");
    ablation_ctx_switch(scale).emit("ablation_ctxswitch.csv");
    ablation_latency(scale).emit("ablation_latency.csv");
    let (t1, t2) = ablation_smt(scale);
    t1.emit("ablation_smt_throughput.csv");
    t2.emit("ablation_smt_revokes.csv");
    let (t1, t2) = ablation_protocol(scale);
    t1.emit("ablation_protocol_throughput.csv");
    t2.emit("ablation_protocol_mesi_events.csv");
    let (t1, t2) = ablation_fallback(scale);
    t1.emit("ablation_fallback_overhead.csv");
    t2.emit("ablation_fallback_hostile.csv");
    queue_bench(scale).emit("queue_bench.csv");
    harris_bench(scale).emit("harris_bench.csv");
    lfbst_bench(scale).emit("lfbst_bench.csv");
    let (t1, t2, t3) = htm_bench(scale);
    t1.emit("htm_bench_readonly.csv");
    t2.emit("htm_bench_updates.csv");
    t3.emit("htm_bench_aborts.csv");
    let names = ["robustness_tput.csv", "robustness_footprint.csv", "robustness_garbage.csv"];
    for (t, name) in fig_robustness(scale).into_iter().zip(names) {
        t.emit(name);
    }
    let (trace, summary) = fig_recovery(scale, true);
    trace.emit("recovery_trace_adopt.csv");
    summary.emit("recovery_summary_adopt.csv");
    caharness::finish();
}
