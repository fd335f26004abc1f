//! Regenerates Figure 11 (2PCP execution time vs non-zero count).
//!
//! Usage: `cargo run -p tpcp-bench --release --bin fig11 [--full]`

use tpcp_bench::{args, table1};
use twopcp::EnvOverrides;

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| args::exit_usage(e));
    let dir = args::scratch_dir("fig11");
    let cfg = if args::flag("full") {
        table1::Table1Config::full(dir.clone())
    } else {
        table1::Table1Config::scaled(dir.clone())
    };
    eprintln!(
        "running Figure 11 sweep (Table I data): sides {:?}…",
        cfg.sides
    );
    let rows = table1::run(&cfg, &env);
    println!("{}", table1::render_fig11(&rows));
    let _ = std::fs::remove_dir_all(&dir);
}
