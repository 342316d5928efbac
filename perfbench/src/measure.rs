//! Host-side measurements: process CPU time, peak resident memory, load
//! average, and the order statistics every metric is reported with.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, across every thread it
/// ever ran — including pool threads that have already exited — at
/// nanosecond resolution.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux only does for an
/// invalid clock id.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this builds for), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second");
    Duration::new(secs, nanos)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. Each
/// repetition runs in a fresh process, so this is that repetition's peak.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The 1-minute load average, or -1 where the kernel does not expose it.
#[must_use]
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// Host parallelism: the runner's default job count.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for an
/// empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Stable 64-bit digest (FNV-1a, the repository's `StableHasher`) of
/// `text`, as 16 hex digits.
#[must_use]
pub fn digest(text: &str) -> String {
    let mut h = smtx_util::StableHasher::new();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
