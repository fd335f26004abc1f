//! `tpcp-serve` — serve a directory of saved 2PCP models over TCP.
//!
//! ```text
//! tpcp-serve --models DIR [--addr HOST:PORT] [--max-sessions N] [--cache N]
//! ```
//!
//! The address defaults to `TPCP_SERVE_ADDR`, then `127.0.0.1:7171`;
//! `TPCP_MMAP=1` serves the models from shared memory maps. A malformed
//! `TPCP_*` value or flag value exits with status 2 before binding.
//! SIGHUP (or the RELOAD opcode) rescans the model directory; the
//! SHUTDOWN opcode stops the daemon cleanly.

use std::str::FromStr;
use std::sync::Arc;
use tpcp_serve::{ModelRegistry, ServeOptions, Server};
use twopcp::EnvOverrides;

fn usage() -> ! {
    eprintln!("usage: tpcp-serve --models DIR [--addr HOST:PORT] [--max-sessions N] [--cache N]");
    std::process::exit(2);
}

/// Parses `flag`'s `value`, or explains why it does not parse.
fn parse_flag<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("tpcp-serve: {e}");
        std::process::exit(2);
    });
    let mut args = std::env::args().skip(1);
    let mut models: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut max_sessions: Option<usize> = None;
    let mut cache: Option<usize> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tpcp-serve: {name} needs a value");
                usage()
            })
        };
        let mut number = |name: &str| {
            parse_flag(name, &value(name)).unwrap_or_else(|e| {
                eprintln!("tpcp-serve: {e}");
                usage()
            })
        };
        match arg.as_str() {
            "--models" => models = Some(value("--models")),
            "--addr" => addr = Some(value("--addr")),
            "--max-sessions" => max_sessions = Some(number("--max-sessions")),
            "--cache" => cache = Some(number("--cache")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tpcp-serve: unknown flag {other:?}");
                usage();
            }
        }
    }
    let Some(models) = models else {
        eprintln!("tpcp-serve: --models is required");
        usage();
    };

    let mut opts = ServeOptions::new(&models);
    if let Some(a) = addr.or(env.serve_addr) {
        opts.addr = a;
    }
    if let Some(n) = max_sessions {
        opts.max_sessions = n;
    }
    if let Some(n) = cache {
        opts.cache_capacity = n;
    }

    let registry = match ModelRegistry::open_with(&models, env.mmap.unwrap_or(false)) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("tpcp-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let server = match Server::start_with_registry(opts, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tpcp-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let snap = server.registry().snapshot();
    let mut names: Vec<&String> = snap.keys().collect();
    names.sort();
    println!(
        "tpcp-serve: listening on {} — {} model(s): {}",
        server.local_addr(),
        names.len(),
        names
            .iter()
            .map(|n| format!("{} ({})", n, snap[*n].model.residency().label()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = server.serve_forever() {
        eprintln!("tpcp-serve: accept loop failed: {e}");
        std::process::exit(1);
    }
    println!("tpcp-serve: shut down cleanly");
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    #[test]
    fn flag_values_parse_strictly() {
        assert_eq!(parse_flag::<usize>("--cache", "16"), Ok(16));
        let err = parse_flag::<usize>("--max-sessions", "many").unwrap_err();
        assert!(
            err.contains("--max-sessions") && err.contains("\"many\""),
            "{err}"
        );
        assert!(parse_flag::<usize>("--cache", "-1").is_err());
        assert!(parse_flag::<usize>("--cache", "").is_err());
    }
}
