//! Host context recorded with every run: cores, CPU model, caches, load,
//! SIMD dispatch, source revision and peak memory.

use std::fs;
use std::path::Path;

/// `(key, value)` lines describing the host and the run.
pub fn context(workload: &str, seed: u64, array_bytes: u64) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| out.push((k.to_string(), v));
    put("workload", workload.to_string());
    put("seed", seed.to_string());
    put("nproc", tlmm_core::pool::host_threads().to_string());
    put("cpu_model", cpu_model().unwrap_or_else(|| "unknown".into()));
    let caches = caches();
    let l3 = caches.iter().find(|c| c.0 == "L3").map(|c| c.1);
    put(
        "caches",
        caches
            .iter()
            .map(|(name, bytes)| format!("{name}={}KiB", bytes >> 10))
            .collect::<Vec<_>>()
            .join(" "),
    );
    // A working array smaller than the last-level cache means the copy
    // GB/s figures measure cache, not DRAM, bandwidth.
    put(
        "largest_array_vs_l3",
        match l3 {
            Some(l3) => format!(
                "{:.2} MiB array {} the {} MiB L3",
                array_bytes as f64 / (1 << 20) as f64,
                if array_bytes < l3 {
                    "fits in"
                } else {
                    "exceeds"
                },
                l3 >> 20
            ),
            None => "L3 size unknown".into(),
        },
    );
    put("loadavg_before", loadavg());
    put(
        "simd",
        if tlmm_core::kernels::simd::enabled() {
            "avx2".into()
        } else {
            "scalar".into()
        },
    );
    put("git_sha", git_sha().unwrap_or_else(|| "unknown".into()));
    out
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Data and unified caches of CPU 0 as `(name, bytes)`.
fn caches() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok().map(|m| m << 20)),
        };
        if let Some(bytes) = bytes {
            out.push((format!("L{}", level.trim()), bytes));
        }
    }
    out
}

pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, when the tree is a git checkout.
fn git_sha() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
