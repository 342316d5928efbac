//! Service counters behind `GET /metrics`.
//!
//! Rendered in the plaintext `name value` format scrapers expect, under
//! `smtxd_*` on a node and `smtx_coord_*` on a coordinator — one schema,
//! so the load generator's quantile math reads either surface. A node's
//! runner cache counters are appended through
//! [`smtx_bench::report::runner_stats_fields`], so `/metrics` exposes
//! exactly the fields `Report::to_json` writes.

use std::sync::atomic::{AtomicU64, Ordering};

use smtx_bench::report::{runner_hist_fields, runner_stats_fields};
use smtx_bench::runner::RunnerStats;
use smtx_util::hist::{self, AtomicHist};

/// Monotonic service counters. All relaxed: these are observability
/// counters, not synchronization.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests that parsed as HTTP at all.
    pub http_requests: AtomicU64,
    /// Requests rejected as malformed (400).
    pub bad_requests: AtomicU64,
    /// Job submissions accepted into the queue (202).
    pub jobs_accepted: AtomicU64,
    /// Submissions answered from the job table without queueing (200).
    pub jobs_deduped: AtomicU64,
    /// Jobs that finished with a result.
    pub jobs_completed: AtomicU64,
    /// Jobs that failed (panic, node rejection, or deadline).
    pub jobs_failed: AtomicU64,
    /// Submissions bounced because the queue was full (429).
    pub jobs_rejected_full: AtomicU64,
    /// Submissions bounced during shutdown (503).
    pub jobs_rejected_shutdown: AtomicU64,
    /// Jobs whose deadline expired before a worker picked them up.
    pub deadline_expired: AtomicU64,
    /// Batch submissions accepted onto the stream (`POST /v1/batch`).
    pub batch_requests: AtomicU64,
    /// Individual job specs carried by batch submissions.
    pub batch_jobs: AtomicU64,
    /// Queue-wait histogram: submission to worker pickup.
    pub queue_wait_ms: AtomicHist,
    /// Execution-latency histogram: worker pickup to terminal state.
    pub exec_ms: AtomicHist,
}

impl Metrics {
    /// Increments one counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the shared exposition under `namespace` (`smtxd` or
    /// `smtx_coord`): counters, then the queue and worker-pool gauges,
    /// then the two latency histograms. The executor appends its own
    /// lines after these.
    #[must_use]
    pub fn render(
        &self,
        (namespace, pool): (&str, &str),
        queue_depth: usize,
        busy: usize,
        total: usize,
    ) -> String {
        let mut out = String::new();
        let counters: [(&str, &AtomicU64); 11] = [
            ("http_requests", &self.http_requests),
            ("bad_requests", &self.bad_requests),
            ("jobs_accepted", &self.jobs_accepted),
            ("jobs_deduped", &self.jobs_deduped),
            ("jobs_completed", &self.jobs_completed),
            ("jobs_failed", &self.jobs_failed),
            ("jobs_rejected_full", &self.jobs_rejected_full),
            ("jobs_rejected_shutdown", &self.jobs_rejected_shutdown),
            ("deadline_expired", &self.deadline_expired),
            ("batch_requests", &self.batch_requests),
            ("batch_jobs", &self.batch_jobs),
        ];
        for (name, c) in counters {
            out.push_str(&format!("{namespace}_{name} {}\n", c.load(Ordering::Relaxed)));
        }
        out.push_str(&format!("{namespace}_queue_depth {queue_depth}\n"));
        out.push_str(&format!("{namespace}_{pool}_busy {busy}\n"));
        out.push_str(&format!("{namespace}_{pool}_total {total}\n"));
        for (name, h) in [("queue_wait_ms", &self.queue_wait_ms), ("exec_ms", &self.exec_ms)] {
            hist::render(&mut out, &format!("{namespace}_{name}"), &h.snapshot());
        }
        out
    }
}

/// Appends the runner's cache counters and histograms under `prefix` —
/// exactly the fields `Report::to_json` writes.
pub(crate) fn render_runner(out: &mut String, prefix: &str, runner: &RunnerStats) {
    for (name, value) in runner_stats_fields(runner) {
        out.push_str(&format!("{prefix}_{name} {value}\n"));
    }
    for (name, buckets) in runner_hist_fields(runner) {
        hist::render(out, &format!("{prefix}_{}", name.trim_end_matches("_hist")), &buckets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_includes_every_counter_and_runner_field() {
        let m = Metrics::default();
        Metrics::inc(&m.jobs_accepted);
        Metrics::inc(&m.jobs_accepted);
        m.queue_wait_ms.record(Duration::from_millis(0));
        m.queue_wait_ms.record(Duration::from_millis(3));
        m.exec_ms.record(Duration::from_secs(3600));
        let stats = RunnerStats {
            unique_runs: 3,
            cache_hits: 5,
            checkpoint_hits: 7,
            sim_cycles: 9,
            sim_ms_hist: [1, 0, 0, 0, 0, 0, 0, 2],
            ..RunnerStats::default()
        };
        let mut text = m.render(("smtxd", "workers"), 1, 2, 4);
        render_runner(&mut text, "smtxd_runner", &stats);
        assert!(text.contains("smtxd_jobs_accepted 2\n"));
        assert!(text.contains("smtxd_queue_depth 1\n"));
        assert!(text.contains("smtxd_workers_busy 2\n"));
        assert!(text.contains("smtxd_workers_total 4\n"));
        for (name, value) in runner_stats_fields(&stats) {
            assert!(text.contains(&format!("smtxd_runner_{name} {value}\n")), "missing {name}");
        }
        // Histograms render cumulatively: both waits are ≤ 4 ms, the hour
        // of execution only lands in the unbounded bucket.
        assert!(text.contains("smtxd_queue_wait_ms_le_1 1\n"));
        assert!(text.contains("smtxd_queue_wait_ms_le_4 2\n"));
        assert!(text.contains("smtxd_queue_wait_ms_le_inf 2\n"));
        assert!(text.contains("smtxd_exec_ms_le_4096 0\n"));
        assert!(text.contains("smtxd_exec_ms_le_inf 1\n"));
        assert!(text.contains("smtxd_runner_sim_ms_le_1 1\n"));
        assert!(text.contains("smtxd_runner_sim_ms_le_inf 3\n"));
        assert!(text.contains("smtxd_runner_checkpoint_ms_le_inf 0\n"));
        assert!(text.contains("smtxd_runner_ref_ms_le_inf 0\n"));
    }
}
