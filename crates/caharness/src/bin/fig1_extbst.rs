//! Regenerates Figure 1 (bottom row): external-BST throughput vs. threads.
//!
//! Usage: `cargo run -p caharness --release --bin fig1_extbst [--quick|--paper] [--jobs N]`

use caharness::experiments::{fig1_extbst, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[fig1_extbst at {scale:?} scale]");
    for (i, table) in fig1_extbst(scale).into_iter().enumerate() {
        table.emit(&format!("fig1_extbst_panel{i}.csv"));
    }
    caharness::finish();
}
