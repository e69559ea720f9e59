//! The host record printed with every result: a number means little
//! without the machine, commit and filesystem it was taken on.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The process's peak resident set so far, in kB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The checked-out commit, read from `.git` without spawning `git`;
/// `unknown` in an exported tree.
fn commit() -> String {
    // The package sits one level below the repository root.
    const GIT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| {
        let text = std::fs::read_to_string(format!("{GIT}/{p}")).ok()?;
        Some(text.trim().to_string())
    };
    let resolved = read("HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(r),
        None => Some(head),
    });
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil, no calendar crate).
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), ty))
        })
        .max_by_key(|m| m.0)
        .map_or_else(|| "unknown".to_string(), |m| m.1.to_string())
}

/// One line describing where this run happened.
pub fn record(scratch: &Path) -> String {
    format!(
        "host: commit={} date={} nproc={} cpu=\"{}\" scratch={} scratch_fs={}",
        commit(),
        utc_date(),
        nproc(),
        proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        scratch.display(),
        fs_type(scratch),
    )
}
