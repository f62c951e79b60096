//! §VI comparator: hand-over-hand transactions with precise reclamation
//! (Zhou et al.) vs Conditional Access on the lazy list. Demonstrates the
//! paper's two criticisms: per-hop transaction latency on read-only
//! workloads and metadata-table false conflicts.
//!
//! Usage: `cargo run -p caharness --release --bin htm_bench [--quick|--paper] [--jobs N]`

use caharness::experiments::{htm_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[htm_bench at {scale:?} scale]");
    let (read_only, updates, aborts) = htm_bench(scale);
    read_only.emit("htm_bench_readonly.csv");
    updates.emit("htm_bench_updates.csv");
    aborts.emit("htm_bench_aborts.csv");
    caharness::finish();
}
