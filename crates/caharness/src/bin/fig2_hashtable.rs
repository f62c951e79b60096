//! Regenerates Figure 2 (top row): 128-bucket hash-table throughput.
//!
//! Usage: `cargo run -p caharness --release --bin fig2_hashtable [--quick|--paper] [--jobs N]`

use caharness::experiments::{fig2_hashtable, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[fig2_hashtable at {scale:?} scale]");
    for (i, table) in fig2_hashtable(scale).into_iter().enumerate() {
        table.emit(&format!("fig2_hashtable_panel{i}.csv"));
    }
    caharness::finish();
}
