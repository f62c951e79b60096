//! Regenerates Figure 2 (bottom row): Treiber-stack throughput (reads are
//! peeks; updates are push/pop).
//!
//! Usage: `cargo run -p caharness --release --bin fig2_stack [--quick|--paper] [--jobs N]`

use caharness::experiments::{fig2_stack, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[fig2_stack at {scale:?} scale]");
    for (i, table) in fig2_stack(scale).into_iter().enumerate() {
        table.emit(&format!("fig2_stack_panel{i}.csv"));
    }
    caharness::finish();
}
