//! Regenerates Figure 12 (per-iteration data swaps) and the §VIII-C1
//! bytes-per-iteration worked example.
//!
//! Usage: `cargo run -p tpcp-bench --release --bin fig12 [--iters N] [--bytes-example]`

use tpcp_bench::{args, fig12};
use twopcp::EnvOverrides;

fn main() {
    // The swap simulation takes no `TPCP_*` knob, but a malformed value
    // still fails here as it does in every other binary.
    EnvOverrides::from_env().unwrap_or_else(|e| args::exit_usage(e));
    let iters = args::value_or("iters", 300usize);
    let cells = fig12::run(iters);
    println!("{}", fig12::render(&cells));
    if args::flag("bytes-example") {
        println!("{}", fig12::render_bytes_example(&cells));
    }
}
