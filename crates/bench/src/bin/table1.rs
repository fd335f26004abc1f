//! Regenerates Table I (2PCP vs HaTen2 execution times on dense tensors).
//!
//! Usage: `cargo run -p tpcp-bench --release --bin table1 [--full]`

use tpcp_bench::{args, table1};
use twopcp::EnvOverrides;

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| args::exit_usage(e));
    let dir = args::scratch_dir("table1");
    let cfg = if args::flag("full") {
        table1::Table1Config::full(dir.clone())
    } else {
        table1::Table1Config::scaled(dir.clone())
    };
    eprintln!(
        "running Table I sweep: sides {:?} (this runs both systems per size)…",
        cfg.sides
    );
    let rows = table1::run(&cfg, &env);
    println!("{}", table1::render(&cfg, &rows));
    let _ = std::fs::remove_dir_all(&dir);
}
