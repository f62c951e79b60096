//! Regenerates Figure 3: nodes allocated-but-not-freed over time for a lazy
//! list of ~500 nodes under a 100%-update workload with 16 threads,
//! sampled every 1000 operations.
//!
//! Usage: `cargo run -p caharness --release --bin fig3_memory [--quick|--paper] [--jobs N]`

use caharness::experiments::{fig3_memory, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[fig3_memory at {scale:?} scale]");
    fig3_memory(scale).emit("fig3_memory.csv");
    caharness::finish();
}
