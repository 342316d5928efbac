//! The metric catalogue — every name `BENCHMARK.json` lists, with its
//! unit — and the reduction of repetitions to one value per metric.

use crate::measure::median;
use crate::rep::RepOut;

/// End-to-end metrics, reported with `--trace 0`: medians over the
/// untraced repetitions, and for `setup_s` the median of the set-up-only
/// processes' cold set-ups.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. Layers a workload does
/// not reach report 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("checkpoint.capture_s", "s"),
    ("checkpoint.captures", "count"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("ref.busy_s", "s"),
    ("interp.insts", "count"),
    ("interp.mips", "Minst/s"),
    ("machine.busy_s", "s"),
    ("machine.sims", "count"),
    ("machine.cycles", "count"),
    ("machine.skipped_cycles", "count"),
    ("machine.retired", "count"),
    ("machine.kips", "kinst/s"),
    ("machine.sim_p50_ms", "ms"),
    ("machine.sim_max_ms", "ms"),
    ("model.penalty_cycles", "count"),
    ("model.fills", "count"),
    ("model.squashed_insts", "count"),
    ("model.handler_active_cycles", "count"),
    ("model.reverted_no_thread", "count"),
    ("model.useful_fetch", "ratio"),
    ("model.paper_gap_pct", "%"),
    ("runner.unique_runs", "count"),
    ("runner.cache_hits", "count"),
    ("runner.checkpoint_hits", "count"),
    ("runner.hit_ratio", "ratio"),
    ("runner.lock_wait_slow", "count"),
    ("runner.parallel_eff", "ratio"),
    ("report.serialize_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.rejected", "count"),
    ("fleet.hit_ratio", "ratio"),
    ("fleet.cross_node_hits", "count"),
    ("fleet.steals", "count"),
    ("fleet.redispatches", "count"),
    ("fleet.job_p50_ms", "ms"),
    ("fleet.job_p90_ms", "ms"),
    ("json.parse_ms", "ms"),
    // Operations per untraced wall second. Each workload and seed runs a
    // fixed operation count, so this is a constant over `wall_s`; it is
    // reported here instead of being gated a second time end to end.
    ("jobs_per_s", "1/s"),
    ("error_rate", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

fn median_of(reps: &[RepOut], name: &str) -> Option<f64> {
    let v: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.values.get(name).copied())
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

/// `(name, unit, value)` for every metric of the mode: end-to-end from the
/// untraced repetitions, or per-layer from the traced ones (falling back
/// to the untraced ones for the runner and report layers, which only the
/// figure code path exercises).
#[must_use]
pub fn report(
    trace: bool,
    setups: &[RepOut],
    plain: &[RepOut],
    traced: &[RepOut],
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "setup_s" {
                    median_of(setups, name)
                } else {
                    median_of(plain, name)
                };
                (name, unit, value.unwrap_or(0.0))
            })
            .collect();
    }
    let wall = median_of(plain, "wall_s").unwrap_or(0.0);
    let traced_wall = median_of(traced, "trace.wall_s").unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "error_rate" => failed as f64 / attempted.max(1) as f64,
                "trace.overhead_s" => traced_wall - wall,
                "trace.overhead_pct" => (traced_wall - wall) / wall.max(1e-9) * 100.0,
                _ => median_of(traced, name)
                    .or_else(|| median_of(plain, name))
                    .unwrap_or(0.0),
            };
            (name, unit, value)
        })
        .collect()
}
