//! Small helpers shared by every workload: the seeded input stream, order
//! statistics, process memory and machine facts for the run record.

use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so job lists depend only
/// on `--seed` and never on the program under test.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The higher of p99/p90 that has at least ten samples beyond it, as
/// `(label, value)`; `None` below a hundred samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|(_, q)| (values.len() as f64) * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, quantile(values, q)))
}

/// A field of `/proc/<pid>/status` in KiB (e.g. `VmHWM`, the peak resident set).
pub fn proc_status_kib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident memory of this process, MiB.
pub fn self_peak_rss_mb() -> f64 {
    proc_status_kib("self", "VmHWM").unwrap_or(0.0) / 1024.0
}

/// `(level, size in bytes)` of every data/unified cache of CPU 0.
pub fn cache_sizes() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v << 20)
        } else {
            size.parse().ok()
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), bytes) {
            out.push((level, bytes));
        }
    }
    out
}

/// The last-level cache size in bytes (largest level reported), if known.
pub fn llc_bytes() -> Option<u64> {
    cache_sizes().into_iter().max().map(|(_, b)| b)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` when the working directory is a
/// git checkout; `"unknown"` otherwise (benchmark checkouts are plain trees).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over a byte stream: the results digest of a run.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
