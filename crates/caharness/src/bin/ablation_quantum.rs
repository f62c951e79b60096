//! Simulator-fidelity check: how much does the scheduler's lax-sync
//! lookahead quantum perturb measured throughput?
//!
//! Usage: `cargo run -p caharness --release --bin ablation_quantum [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_quantum, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_quantum at {scale:?} scale]");
    ablation_quantum(scale).emit("ablation_quantum.csv");
    caharness::finish();
}
