//! §IV-A extra: MS-queue throughput (the paper implements CA queues but
//! does not plot them; this bin fills that gap).
//!
//! Usage: `cargo run -p caharness --release --bin queue_bench [--quick|--paper] [--jobs N]`

use caharness::experiments::{queue_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[queue_bench at {scale:?} scale]");
    queue_bench(scale).emit("queue_bench.csv");
    caharness::finish();
}
