//! §III SMT rules: per-hyperthread tag bits and ARBs, sibling-store
//! revocation without coherence traffic. Compares the same workload packed
//! 1, 2 and 4 hardware threads per physical core.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_smt [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_smt, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_smt at {scale:?} scale]");
    let (tput, revokes) = ablation_smt(scale);
    tput.emit("ablation_smt_throughput.csv");
    revokes.emit("ablation_smt_revokes.csv");
    caharness::finish();
}
