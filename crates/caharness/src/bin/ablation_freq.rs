//! §I claim check: the batch-size / epoch-frequency tradeoff that motivates
//! immediate reclamation. Sweeps the reclamation frequency for qsbr/ibr
//! (CA has no such knob) and reports throughput and peak unreclaimed nodes.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_freq [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_reclaim_freq, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_freq at {scale:?} scale]");
    let (tput, peak) = ablation_reclaim_freq(scale);
    tput.emit("ablation_freq_throughput.csv");
    peak.emit("ablation_freq_peak.csv");
    caharness::finish();
}
