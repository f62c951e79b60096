//! Extension beyond the paper: the lock-free Conditional-Access Harris list
//! (the paper's future-work question) vs. the lock-based CA lazy list and
//! the fastest baselines.
//!
//! Usage: `cargo run -p caharness --release --bin harris_bench [--quick|--paper] [--jobs N]`

use caharness::experiments::{harris_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[harris_bench at {scale:?} scale]");
    harris_bench(scale).emit("harris_bench.csv");
    caharness::finish();
}
