//! The `host` block: which machine a run measured.
//!
//! Absolute rates do not carry across hosts, so every report names its
//! host: the usable core count, the CPU model, each cache level the
//! kernel reports under sysfs, a measured streamed-copy bandwidth and
//! the compiler that built the benchmark.

use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

/// One cache level as sysfs reports it for CPU 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cache {
    /// 1, 2, 3, ...
    pub level: u32,
    /// `Data`, `Instruction` or `Unified`.
    pub kind: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// Usable hardware threads.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parses a sysfs cache size such as `48K`, `2048K` or `300M`.
#[must_use]
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// CPU 0's caches from sysfs, ascending by level; empty when sysfs
/// has no cache information.
#[must_use]
pub fn caches() -> Vec<Cache> {
    let mut out = Vec::new();
    for idx in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(&size)) {
            out.push(Cache {
                level,
                kind: kind.trim().to_string(),
                bytes,
            });
        }
    }
    out
}

/// Size of the last-level cache the host reports, in bytes (0 when
/// unknown).
#[must_use]
pub fn llc_bytes() -> u64 {
    caches()
        .iter()
        .max_by_key(|c| c.level)
        .map_or(0, |c| c.bytes)
}

/// `rustc --version`, or `"unknown"` when rustc cannot be run.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Bytes a streamed copy moves per copied byte: read the source,
/// write-allocate the destination line, write it back — the same
/// accounting as the sweep's computed bytes per update.
pub const COPY_TRAFFIC_FACTOR: f64 = 3.0;

/// Streamed-copy bandwidth in GB/s: the median of `reps` timed copies
/// of `src` into `dst` (both already touched).
#[must_use]
pub fn copy_gbs(src: &[f32], dst: &mut [f32], reps: usize) -> f64 {
    let n = src.len().min(dst.len());
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        dst[..n].copy_from_slice(std::hint::black_box(&src[..n]));
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&mut *dst);
        rates.push(COPY_TRAFFIC_FACTOR * (n * 4) as f64 / secs.max(1e-12) / 1e9);
    }
    median(&rates)
}

/// [`copy_gbs`] over two fresh `f32` arrays of `bytes` each, after one
/// untimed copy that touches every page.
#[must_use]
pub fn stream_copy_gbs(bytes: usize, reps: usize) -> f64 {
    let src = vec![0.5f32; (bytes / 4).max(1)];
    let mut dst = src.clone();
    copy_gbs(&src, &mut dst, reps)
}

/// The `host` block, with a bandwidth probe over two arrays of
/// `stream_bytes` each.
#[must_use]
pub fn host_block(stream_bytes: usize) -> Json {
    let caches = caches()
        .into_iter()
        .map(|c| {
            Json::obj()
                .with("level", u64::from(c.level))
                .with("type", c.kind)
                .with("bytes", c.bytes)
        })
        .collect::<Vec<_>>();
    let llc = llc_bytes();
    Json::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with("caches", caches)
        .with(
            "stream",
            Json::obj()
                .with("gbs", stream_copy_gbs(stream_bytes, 5))
                .with("array_bytes", stream_bytes)
                .with(
                    "array_over_llc",
                    if llc > 0 {
                        stream_bytes as f64 / llc as f64
                    } else {
                        0.0
                    },
                )
                .with("traffic_factor", COPY_TRAFFIC_FACTOR),
        )
        .with("rustc", rustc_version())
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
