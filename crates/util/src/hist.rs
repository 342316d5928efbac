//! The millisecond latency histogram every layer reports: the runner's
//! per-stage wall times and cache-lock waits, the job service's queue and
//! execution latencies, and the load generator's client-observed latency.
//!
//! One schema: seven bucket upper bounds in [`HIST_BOUNDS_MS`] plus an
//! unbounded eighth bucket, a conservative bucket-bound quantile, and one
//! text form — cumulative `<prefix>_le_<bound> <count>` lines ending with
//! `_le_inf` — that `/metrics` renders and the load generator parses back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds) of the first seven buckets; the eighth
/// bucket is unbounded.
pub const HIST_BOUNDS_MS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// A histogram updated concurrently. All relaxed: observability counters,
/// not synchronization.
#[derive(Debug, Default)]
pub struct AtomicHist([AtomicU64; 8]);

impl AtomicHist {
    /// Counts one observation of `elapsed` in the first bucket whose bound
    /// (whole milliseconds) is at least it.
    pub fn record(&self, elapsed: Duration) {
        let ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        let idx = HIST_BOUNDS_MS.iter().position(|&b| ms <= b).unwrap_or(HIST_BOUNDS_MS.len());
        self.0[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// Bucket-bound quantile: the upper bound (ms) of the first bucket at
/// which the cumulative count reaches `pct` percent of the total, i.e. a
/// conservative "p50"/"p99" that never under-reports. Pure integer
/// arithmetic — bucketed quantiles are noise-resistant, which is what lets
/// CI gate on them. Returns `None` for an empty histogram; a quantile
/// landing in the unbounded eighth bucket reports `u64::MAX`.
#[must_use]
pub fn quantile_ms(buckets: &[u64; 8], pct: u64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    // Smallest rank whose cumulative share is >= pct/100, without floats.
    let target = (total * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return Some(HIST_BOUNDS_MS.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
}

/// The histogram as a JSON array of per-bucket counts.
#[must_use]
pub fn json(buckets: &[u64; 8]) -> String {
    let cells = buckets.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ");
    format!("[{cells}]")
}

/// Appends the histogram as cumulative `<prefix>_le_<bound> <count>` lines
/// (the format scrapers expect), ending with the unbounded `_le_inf` total.
pub fn render(out: &mut String, prefix: &str, buckets: &[u64; 8]) {
    let mut total = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        total += count;
        match HIST_BOUNDS_MS.get(i) {
            Some(bound) => out.push_str(&format!("{prefix}_le_{bound} {total}\n")),
            None => out.push_str(&format!("{prefix}_le_inf {total}\n")),
        }
    }
}

/// Reconstructs the per-bucket counts from [`render`]'s lines for `prefix`
/// in `text` (other lines are skipped). `None` when a bucket line is
/// missing or malformed.
#[must_use]
pub fn parse(text: &str, prefix: &str) -> Option<[u64; 8]> {
    let mut cumulative = [None::<u64>; 8];
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(prefix) else { continue };
        let (suffix, value) = rest.split_once(' ')?;
        let value: u64 = value.trim().parse().ok()?;
        let ix = match suffix.strip_prefix("_le_") {
            Some("inf") => HIST_BOUNDS_MS.len(),
            Some(bound) => {
                let b: u64 = bound.parse().ok()?;
                HIST_BOUNDS_MS.iter().position(|&x| x == b)?
            }
            None => continue,
        };
        cumulative[ix] = Some(value);
    }
    let mut out = [0u64; 8];
    let mut prev = 0u64;
    for (slot, c) in out.iter_mut().zip(cumulative.iter()) {
        let c = (*c)?;
        *slot = c.saturating_sub(prev);
        prev = c;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_whole_milliseconds() {
        let h = AtomicHist::default();
        for ms in [0, 1, 2, 4096, 4097] {
            h.record(Duration::from_millis(ms));
        }
        h.record(Duration::from_secs(3600));
        assert_eq!(h.snapshot(), [2, 1, 0, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn quantile_is_a_conservative_bucket_bound() {
        assert_eq!(quantile_ms(&[0; 8], 50), None);
        // 10 observations, all in the ≤4 ms bucket.
        let h = [0, 10, 0, 0, 0, 0, 0, 0];
        assert_eq!(quantile_ms(&h, 50), Some(4));
        assert_eq!(quantile_ms(&h, 99), Some(4));
        // 98 fast + 2 slow (nearest-rank): p50 stays fast, p99's rank-99
        // observation lands in the slow bucket.
        let mut h = [98, 0, 0, 0, 0, 0, 0, 0];
        h[5] = 2;
        assert_eq!(quantile_ms(&h, 50), Some(1));
        assert_eq!(quantile_ms(&h, 98), Some(1));
        assert_eq!(quantile_ms(&h, 99), Some(1024));
        // The unbounded tail reports u64::MAX rather than pretending.
        let h = [0, 0, 0, 0, 0, 0, 0, 3];
        assert_eq!(quantile_ms(&h, 50), Some(u64::MAX));
    }

    #[test]
    fn render_then_parse_round_trips_every_bucket() {
        let buckets = [2, 0, 3, 0, 0, 1, 0, 7];
        let mut text = String::from("smtxd_exec_ms_total 1\nother 9\n");
        render(&mut text, "smtxd_exec_ms", &buckets);
        render(&mut text, "smtxd_queue_wait_ms", &[1; 8]);
        assert!(text.contains("smtxd_exec_ms_le_1 2\nsmtxd_exec_ms_le_4 2\n"));
        assert!(text.contains("smtxd_exec_ms_le_4096 6\nsmtxd_exec_ms_le_inf 13\n"));
        assert_eq!(parse(&text, "smtxd_exec_ms"), Some(buckets));
        assert_eq!(parse(&text, "smtxd_queue_wait_ms"), Some([1; 8]));
        assert_eq!(parse(&text, "smtx_coord_exec_ms"), None, "absent prefix");
        let truncated = text.replace("smtxd_exec_ms_le_inf 13\n", "");
        assert_eq!(parse(&truncated, "smtxd_exec_ms"), None, "missing unbounded bucket");
    }

    #[test]
    fn json_lists_the_bucket_counts() {
        assert_eq!(json(&[1, 2, 3, 4, 5, 6, 7, 8]), "[1, 2, 3, 4, 5, 6, 7, 8]");
    }
}
