//! Process-level probes (resident memory, CPU time) read from `/proc`, and
//! the order statistics every metric is built from.

use std::time::Duration;

/// Resident set size and its high-water mark, in MiB.
pub struct Rss {
    pub now_mb: f64,
    pub peak_mb: f64,
}

/// Reads `VmRSS` and `VmHWM` from `/proc/self/status`.
pub fn rss() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    Rss {
        now_mb: field("VmRSS:"),
        peak_mb: field("VmHWM:"),
    }
}

/// User + system CPU time of the whole process (every thread), from
/// `/proc/self/stat`. Linux reports it in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second.
pub fn cpu_time() -> Duration {
    const USER_HZ: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|t| t.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Nearest-rank percentile of `values` (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The `q`-percentile of each of up to `max_windows` consecutive, equal
/// windows of `values` (each at least `min_len` long), and the median over
/// windows: a stall confined to one window cannot move it.
pub fn windowed(values: &[f64], q: f64, min_len: usize, max_windows: usize) -> f64 {
    let windows = (values.len() / min_len).clamp(1, max_windows);
    let len = values.len().div_ceil(windows).max(1);
    let per_window: Vec<f64> = values.chunks(len).map(|w| percentile(w, q)).collect();
    median(&per_window)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
