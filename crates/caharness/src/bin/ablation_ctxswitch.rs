//! §III multiuser extension: sweep the OS context-switch interval and show
//! CA degrading gracefully (every switch revokes the running thread's tags).
//!
//! Usage: `cargo run -p caharness --release --bin ablation_ctxswitch [--quick|--paper] [--jobs N]`

use caharness::experiments::{ablation_ctx_switch, Scale};

fn main() {
    let scale = Scale::from_args();
    caharness::init_from_args(&[]);
    eprintln!("[ablation_ctxswitch at {scale:?} scale]");
    ablation_ctx_switch(scale).emit("ablation_ctxswitch.csv");
    caharness::finish();
}
