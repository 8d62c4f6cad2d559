//! Host fingerprint and process memory readings.
//!
//! Results are comparable only between runs on the same host, so every
//! result carries the CPU model, core count, compiler, source revision and
//! kernel it was measured with.

use std::fs;

/// `key: value` lines of a `/proc` file, value of the first matching key.
fn proc_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path).ok()?.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// One line naming the host and build the numbers were measured on.
pub fn fingerprint() -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\" rev={} kernel={kernel}",
        env!("SIMBENCH_RUSTC"),
        env!("SIMBENCH_GIT_REV"),
    )
}

/// A `VmXXX:   1234 kB` reading from `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    proc_field("/proc/self/status", key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set of this process (VmRSS), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}
