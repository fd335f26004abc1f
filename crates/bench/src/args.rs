//! Minimal command-line flag handling shared by the experiment binaries.

use std::str::FromStr;

/// `true` when `--name` is present in the process arguments.
pub fn flag(name: &str) -> bool {
    let needle = format!("--{name}");
    std::env::args().any(|a| a == needle)
}

/// Parsed value of `--name` (`--name value`), or `default` when the flag
/// is absent. A missing or malformed value exits with status 2 and a
/// message naming the flag ([`parse_value`]).
pub fn value_or<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_value(&args, name, default).unwrap_or_else(|e| exit_usage(e))
}

/// The value following `--name` in `args` parsed as `T`, or `default`
/// when `--name` is absent.
///
/// # Errors
/// A message naming the flag when its value is missing or does not parse.
pub fn parse_value<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let needle = format!("--{name}");
    let Some(at) = args.iter().position(|a| *a == needle) else {
        return Ok(default);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{needle} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {needle}"))
}

/// Reports a usage error (a malformed flag or `TPCP_*` value) and exits
/// with status 2.
pub fn exit_usage(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// A fresh scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tpcp_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::parse_value;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn values_parse_strictly() {
        let a = args(&["fig12", "--iters", "40", "--rank", "x4"]);
        assert_eq!(parse_value(&a, "iters", 300usize), Ok(40));
        assert_eq!(parse_value(&a, "parts", 2usize), Ok(2), "absent flag");
        let err = parse_value(&a, "rank", 8usize).unwrap_err();
        assert!(err.contains("--rank") && err.contains("\"x4\""), "{err}");
        let err = parse_value(&args(&["fig13", "--rank"]), "rank", 8usize).unwrap_err();
        assert!(
            err.contains("--rank") && err.contains("needs a value"),
            "{err}"
        );
    }
}
