//! Process counters read from `/proc/self`: peak resident memory and bytes
//! written.

use std::fs;

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_bytes`] covers only what runs in between. Returns
/// whether the reset took effect; without it the peak covers the whole
/// process so far.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in bytes since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|k| k * 1024)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Bytes this process has passed to `write`-family system calls (`wchar`):
/// every journal and spill write, whether or not the page cache has
/// flushed it yet.
pub fn written_bytes() -> Option<u64> {
    let io = fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line["wchar:".len()..].trim().parse().ok()
}

/// Mebibytes in `bytes`.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
