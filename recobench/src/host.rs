//! Host fingerprint and process resource readings (Linux `/proc`).

use std::hint::black_box;
use std::time::Instant;

/// Hardware threads visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall time of a fixed single-threaded integer loop, best of three, in
/// milliseconds. Results measured on hosts whose figures differ are not
/// comparable.
pub fn calibration_ms() -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..black_box(20_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process (all threads, exited ones
/// included) in seconds. `/proc` reports it in clock ticks of 1/100 s, the
/// `USER_HZ` of every mainstream Linux configuration.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15 of the full line, that is
    // 11 and 12 after the state field that starts `rest`.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_positive() {
        assert!(nproc() >= 1);
        assert!(calibration_ms() > 0.0);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("stat") >= 0.0);
    }
}
