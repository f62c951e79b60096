//! §IV "facilitating progress": the elision-style fallback path — fast-path
//! overhead on the paper geometry, and completion (instead of livelock) on
//! a direct-mapped L1 smaller than the algorithm's tag window.
//!
//! Usage: `cargo run -p caharness --release --bin ablation_fallback [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_fallback, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_fallback at {scale:?} scale]");
    let (overhead, hostile) = ablation_fallback(scale);
    overhead.emit("ablation_fallback_overhead.csv");
    hostile.emit("ablation_fallback_hostile.csv");
    caharness::finish();
}
