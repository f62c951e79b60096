//! §I claim check: batch reclamation causes "long program interruptions and
//! dramatically increases tail latency", while CA reclaims one node at a
//! time. Reports per-operation latency quantiles per scheme, including the
//! epoch schemes re-tuned to 10× larger batches.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_latency [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_latency, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_latency at {scale:?} scale]");
    ablation_latency(scale).emit("ablation_latency.csv");
    caharness::finish();
}
