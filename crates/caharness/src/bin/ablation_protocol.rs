//! §IV protocol-independence claim: CA assumes only "MSI, MESI or other
//! such equivalent mechanisms". Runs the figures' structures under both
//! directory protocols.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_protocol [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_protocol, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_protocol at {scale:?} scale]");
    let (tput, mesi) = ablation_protocol(scale);
    tput.emit("ablation_protocol_throughput.csv");
    mesi.emit("ablation_protocol_mesi_events.csv");
    caharness::finish();
}
