//! A minimal wall-clock micro-benchmark harness.
//!
//! `cargo bench` targets in this workspace use `harness = false` and drive
//! this module directly: each benchmark warms up briefly, then runs until a
//! time or iteration floor is met and reports mean/min per-iteration times.
//! The output is one aligned line per benchmark, suitable for eyeballing
//! and for diffing across commits. End-to-end timings of the figures and
//! the fleet come from the benchmark in `perfbench/` instead.

use std::time::{Duration, Instant};

/// Result of one benchmark: iteration count and per-iteration timings.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as printed.
    pub name: String,
    /// Measured iterations (after warm-up).
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest single iteration.
    pub min: Duration,
}

impl BenchResult {
    /// One aligned report line, e.g.
    /// `fig5/traditional                 12.345 ms/iter (min 11.901 ms, 16 iters)`.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "{:<44} {:>10}/iter (min {}, {} iters)",
            self.name,
            fmt_duration(self.mean),
            fmt_duration(self.min),
            self.iters
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.3} us", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// Times `f`, printing one report line. The closure's return value is
/// consumed with [`std::hint::black_box`] so the computation cannot be
/// optimized away.
pub fn bench<R, F: FnMut() -> R>(name: &str, mut f: F) -> BenchResult {
    // Warm-up: at least one iteration, at most ~300 ms.
    let warmup_deadline = Instant::now() + Duration::from_millis(300);
    let mut warmup_iters = 0u32;
    let one = loop {
        let t = Instant::now();
        std::hint::black_box(f());
        let took = t.elapsed();
        warmup_iters += 1;
        if Instant::now() >= warmup_deadline || warmup_iters >= 3 {
            break took.max(Duration::from_nanos(1));
        }
    };

    // Measure: at least 10 iterations or ~1 s of wall clock, whichever is
    // hit first, but never fewer than 3 iterations.
    let target = Duration::from_secs(1);
    let planned = (target.as_nanos() / one.as_nanos()).clamp(3, 10_000) as u32;
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut iters = 0u32;
    while iters < planned && (iters < 3 || total < target) {
        let t = Instant::now();
        std::hint::black_box(f());
        let took = t.elapsed();
        min = min.min(took);
        total += took;
        iters += 1;
    }
    let result = BenchResult {
        name: name.to_string(),
        iters,
        mean: total / iters,
        min,
    };
    println!("{}", result.line());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let r = bench("micro/self_test", || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert!(r.iters >= 3);
        assert!(r.min <= r.mean);
        assert!(r.line().contains("micro/self_test"));
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert!(fmt_duration(Duration::from_nanos(12)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
