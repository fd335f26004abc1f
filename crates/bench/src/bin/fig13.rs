//! Regenerates Figure 13 (relative accuracy of block-centric schedules).
//!
//! Usage: `cargo run -p tpcp-bench --release --bin fig13 [--full] [--rank N]`

use tpcp_bench::{args, fig13};
use twopcp::EnvOverrides;

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| args::exit_usage(e));
    let mut cfg = if args::flag("full") {
        fig13::Fig13Config::full()
    } else {
        fig13::Fig13Config::scaled()
    };
    cfg.rank = args::value_or("rank", cfg.rank);
    eprintln!(
        "running Figure 13: 4 datasets x grids {:?} x budgets {:?} x 4 schedules (rank {})…",
        cfg.grids, cfg.budgets, cfg.rank
    );
    let cells = fig13::run(&cfg, &env);
    println!("{}", fig13::render(&cfg, &cells));
}
