//! Host fingerprint, peak memory, and the stream-bandwidth probe.

use serde::Value;
use std::time::{Duration, Instant};

/// Threads the benchmark may use: never more than the host has.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How long [`wake_cores`] spins.
pub const WAKE: Duration = Duration::from_millis(1500);

/// Spins every core for [`WAKE`], untimed, before a timed set-up. On this
/// kind of host a core that has idled for a few seconds runs at half speed
/// for the first 1.1–1.4 s of work (measured: fixed two-thread work took
/// 560, 554, 281, 232, 241 ms per chunk after 5 s of sleep and a steady
/// 280 ms after a busy period). A set-up that starts after process start,
/// or after an open-loop phase that leaves the cores mostly idle, would be
/// timed on that ramp, which belongs to the host and not to the program.
pub fn wake_cores() {
    let until = Instant::now() + WAKE;
    std::thread::scope(|scope| {
        for k in 0..nproc() as u64 {
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ k;
                while Instant::now() < until {
                    for _ in 0..100_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Data/unified cache sizes of cpu0 in bytes, by level (index 0 unused).
pub fn cache_bytes() -> [usize; 4] {
    let mut out = [0usize; 4];
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let kind = read(&format!("{dir}/type"));
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: usize = read(&format!("{dir}/level")).trim().parse().unwrap_or(0);
        let size = read(&format!("{dir}/size"));
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(kib) => kib.parse::<usize>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(mib) => mib.parse::<usize>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if (1..4).contains(&level) {
            out[level] = bytes;
        }
    }
    out
}

/// SIMD levels relevant to the sweep kernels that this CPU has.
pub fn simd_levels() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sse4.1") {
            out.push("sse4.1");
        }
        if is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    out
}

/// What a result must share with another before the two are compared.
pub fn fingerprint() -> Value {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let ram_kb: i64 = read("/proc/meminfo")
        .lines()
        .find(|l| l.starts_with("MemTotal"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let caches = cache_bytes();
    Value::Object(vec![
        ("cpu_model".into(), Value::String(model)),
        ("nproc".into(), Value::Int(nproc() as i64)),
        ("l1d_bytes".into(), Value::Int(caches[1] as i64)),
        ("l2_bytes".into(), Value::Int(caches[2] as i64)),
        ("l3_bytes".into(), Value::Int(caches[3] as i64)),
        ("ram_mb".into(), Value::Int(ram_kb / 1024)),
        (
            "simd".into(),
            Value::Array(
                simd_levels()
                    .into_iter()
                    .map(|s| Value::String(s.into()))
                    .collect(),
            ),
        ),
    ])
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` where the checkout is not a repository (the driver's is not).
pub fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).trim().to_string(),
        None => head.to_string(),
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash
    }
}

fn status_kb(field: &str) -> f64 {
    read("/proc/self/status")
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set right now, MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Resets the kernel's peak-RSS watermark of this process so that the
/// next [`peak_rss_mb`] reports the peak of what follows. Returns whether
/// the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Result of the stream probe.
pub struct Stream {
    /// Measured copy bandwidth, GB/s, one thread (bytes read + written).
    pub gbps: f64,
    /// Bytes of each of the two arrays.
    pub array_bytes: usize,
    /// The cache the arrays are sized to leave.
    pub cache_bytes: usize,
}

/// Single-thread copy-and-add over two `u32` arrays, each four times the
/// L2 — the cache the k = 16 sweep's working set leaves on this class of
/// host while staying inside the (much larger, shared) L3 — capped at
/// 1 GiB. Best of `passes`.
pub fn stream_probe(passes: usize) -> Stream {
    let l2 = cache_bytes()[2].max(1 << 20);
    let array_bytes = (4 * l2).min(1 << 30);
    let len = array_bytes / 4;
    let src: Vec<u32> = (0..len as u32).collect();
    let mut dst = vec![0u32; len];
    let mut best = f64::INFINITY;
    for pass in 0..passes.max(1) {
        let add = pass as u32 + 1;
        let start = Instant::now();
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = s.wrapping_add(add);
        }
        std::hint::black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Stream {
        gbps: (2 * array_bytes) as f64 / best / 1e9,
        array_bytes,
        cache_bytes: l2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_what_compare_refuses_on() {
        let f = fingerprint();
        assert!(f.get("nproc").and_then(Value::as_i64).unwrap() >= 1);
        assert!(f.get("cpu_model").and_then(Value::as_str).is_some());
        assert!(f.get("simd").and_then(Value::as_array).is_some());
    }

    #[test]
    fn peak_rss_is_at_least_current_rss() {
        assert!(peak_rss_mb() > 0.0);
        assert!(peak_rss_mb() + 1.0 >= rss_mb());
    }
}
