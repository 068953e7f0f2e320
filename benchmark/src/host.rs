//! What the benchmark reads from the operating system: the process's CPU
//! time and peak memory, and the fingerprint of the host it ran on.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture it supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, or "unknown" outside a git repository.
pub fn git_commit() -> String {
    let output = Command::new("git").args(["rev-parse", "HEAD"]).output();
    match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        let burn = (0..5_000_000u64).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        std::hint::black_box(burn);
        assert!(process_cpu_seconds().expect("procfs") >= 0.0);
        assert!(peak_rss_mb().expect("procfs") > 0.0);
    }
}
