//! Regenerates Table II (Naive CP vs 2PCP with LRU/FOR replacement).
//!
//! Usage: `cargo run -p tpcp-bench --release --bin table2 [--full]`

use tpcp_bench::{args, table2};
use twopcp::EnvOverrides;

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| args::exit_usage(e));
    let dir = args::scratch_dir("table2");
    let cfg = if args::flag("full") {
        table2::Table2Config::full(dir.clone())
    } else {
        table2::Table2Config::scaled(dir.clone())
    };
    eprintln!(
        "running Table II: {0}^3 density {1} rank {2} (naive CP + {3} partitionings x 2 policies)…",
        cfg.side,
        cfg.density,
        cfg.rank,
        cfg.parts.len()
    );
    let result = table2::run(&cfg, &env);
    println!("{}", table2::render(&cfg, &result));
    let _ = std::fs::remove_dir_all(&dir);
}
