//! Extension: the lock-free Conditional-Access external BST (the tree half
//! of the paper's future-work question) vs the paper's lock-based CA BST
//! and the fastest baselines.
//!
//! Usage: `cargo run -p caharness --release --bin lfbst_bench [--quick|--paper] [--jobs N]`

use caharness::experiments::{lfbst_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[lfbst_bench at {scale:?} scale]");
    lfbst_bench(scale).emit("lfbst_bench.csv");
    caharness::finish();
}
