//! Result assembly: metrics, the final JSON line, order statistics and
//! the process's peak resident set.

use std::fmt::Write as _;

/// Named metrics in insertion order, plus the reasons for any metric
/// that could not be measured.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    missing: Vec<(String, String)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.values.push((name.to_string(), value, unit));
        } else {
            self.missing(name, format!("not finite ({value})"));
        }
    }

    pub fn missing(&mut self, name: &str, reason: impl Into<String>) {
        self.missing.push((name.to_string(), reason.into()));
    }

    pub fn missing_reasons(&self) -> &[(String, String)] {
        &self.missing
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Operations attempted and failed over a run, with the first few
/// failure messages for the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The last line of standard output.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Starts a fresh peak-RSS window. The allocator first hands its free
/// pages back to the kernel, so memory an earlier stage freed does not
/// count towards the next stage's peak; then writing `5` to
/// `/proc/self/clear_refs` resets the kernel's `VmHWM` to the current
/// resident set. Returns why the reset is unavailable, if it is.
pub fn reset_peak_rss() -> Option<String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // memory the allocator itself manages; any `pad` value is valid.
    unsafe {
        malloc_trim(0);
    }
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => None,
        Err(e) => Some(format!(
            "peak not reset after set-up (/proc/self/clear_refs: {e})"
        )),
    }
}

/// Peak resident set since the last reset, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU time the hypervisor has taken from this machine's CPUs since boot
/// (the `steal` column of `/proc/stat`, assuming 100 ticks a second).
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal / 100.0)
}
