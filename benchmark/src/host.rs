//! What this box can do, measured in the same run as the workloads,
//! and the process's own memory high-water mark.

use std::path::Path;
use std::time::Instant;

pub const MIB: f64 = (1u64 << 20) as f64;

/// Best of three 256 MiB `copy_from_slice` passes, GiB/s of bytes
/// copied (each byte is read once and written once).
pub fn memcpy_gib_s() -> f64 {
    let len = 256usize << 20;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    len as f64 / (1u64 << 30) as f64 / best
}

/// Plain `std::fs::read` of `path`, MiB/s (page cache warm: the file
/// was just written).
pub fn seqread_mib_s(path: &Path) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let bytes = std::fs::read(path)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(std::hint::black_box(&bytes).len() as f64 / MIB / secs)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache as `/sys` reports it for cpu0, MiB; 0
/// when `/sys` does not say. On a VM this is the host's shared cache,
/// not a share this guest owns.
pub fn llc_mib() -> f64 {
    let mut best = 0.0f64;
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
            break;
        };
        let size = size.trim();
        let kib = size
            .strip_suffix('K')
            .and_then(|n| n.parse::<f64>().ok())
            .or_else(|| {
                size.strip_suffix('M')
                    .and_then(|n| n.parse::<f64>().ok())
                    .map(|m| m * 1024.0)
            });
        if let Some(kib) = kib {
            best = best.max(kib / 1024.0);
        }
    }
    best
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Reset `VmHWM` to the current resident size, so the next reading is
/// the peak of what runs from here on (set-up buffers already freed do
/// not count). Where the kernel refuses, the reading keeps the set-up
/// peak; it is then still the same quantity on every commit measured
/// on that box.
pub fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("note: cannot reset VmHWM; peak_rss_mib includes set-up");
    }
}
