//! Regenerates Figure 1 (top row): lazy-list throughput vs. thread count,
//! three workload panels (0i-0d, 5i-5d, 50i-50d), all seven schemes.
//!
//! Usage: `cargo run -p caharness --release --bin fig1_lazylist [--quick|--paper] [--jobs N]`

use caharness::experiments::{fig1_lazylist, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[fig1_lazylist at {scale:?} scale]");
    for (i, table) in fig1_lazylist(scale).into_iter().enumerate() {
        table.emit(&format!("fig1_lazylist_panel{i}.csv"));
    }
    caharness::finish();
}
