//! §III claim check: "associativity does not have any significant impact on
//! progress". Sweeps L1 associativity for the CA lazy list and reports
//! throughput plus spurious-failure counters.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_assoc [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_associativity, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_assoc at {scale:?} scale]");
    let (tput, spurious) = ablation_associativity(scale);
    tput.emit("ablation_assoc_throughput.csv");
    spurious.emit("ablation_assoc_spurious.csv");
    caharness::finish();
}
