//! Host record: memory readings, a STREAM-style triad bandwidth probe,
//! and the build/host facts every run prints next to its numbers.

use crate::out::Obj;
use std::process::Command;
use std::time::Instant;

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`), or 0 where
/// the field is unavailable (non-Linux hosts).
pub fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of the largest cache the kernel reports for cpu0 —
/// the last-level cache the triad arrays must exceed.
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1024),
            Some('M') => (&s[..s.len() - 1], 1024 * 1024),
            _ => (s, 1),
        };
        if let Ok(n) = num.parse::<usize>() {
            best = best.max(n * mult);
        }
    }
    best
}

/// Result of the triad probe.
pub struct Triad {
    /// Best observed bandwidth, GB/s (10^9 bytes), counting 3 streams.
    pub gbps: f64,
    /// Bytes per array.
    pub array_bytes: usize,
    /// Last-level cache size the arrays were sized against.
    pub llc_bytes: usize,
}

/// STREAM triad `a[i] = b[i] + s*c[i]` over three f64 arrays whose
/// combined size is at least 4× the last-level cache (at least 32 MiB
/// each), best of `passes`. Two threads split the index range, matching
/// the cores the workloads use.
pub fn triad(passes: usize) -> Triad {
    let llc = llc_bytes();
    let array_bytes = (llc * 4 / 3).max(32 << 20);
    let n = array_bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2);
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let s = 3.0 + pass as f64;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + s * z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // Keep the stores observable so the loop is not optimised away.
    assert!(a[n / 2] > 0.0, "triad stores");
    Triad {
        gbps: (3 * n * 8) as f64 / best / 1e9,
        array_bytes: n * 8,
        llc_bytes: llc,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build facts of one run, plus the triad result.
pub fn record(triad: &Triad) -> Obj {
    let mut o = Obj::new();
    o.num("triad_gbps", triad.gbps);
    o.num(
        "triad_array_mb",
        triad.array_bytes as f64 / (1 << 20) as f64,
    );
    o.num("llc_mb", triad.llc_bytes as f64 / (1 << 20) as f64);
    o.num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as f64,
    );
    o.str("rustc", &command_line("rustc", &["--version"]));
    // Only a checkout with its own `.git` names a commit; an exported
    // tree must not pick up the commit of a repository around it.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "none (not a git checkout)".to_string()
    };
    o.str("commit", &commit);
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CAP_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    o.str("cap_env", &knobs.join(" "));
    o
}
