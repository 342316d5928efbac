//! In-memory spans for the traced run: one per call into a layer, recorded
//! by the benchmark around the public function it calls, kept in memory
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `layer.call` (e.g. `machine.run`).
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// The job the call belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span recorder. Spans nest through an explicit stack, so a
/// span opened inside another records it as its parent.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// across threads so their spans line up).
    #[must_use]
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists into one trace, re-basing parent
/// indices.
#[must_use]
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in per_thread {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time per span: its duration minus the durations of its direct
/// children (children of one span never overlap — each thread records its
/// own nested calls).
#[must_use]
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per layer, seconds.
#[must_use]
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Durations (ms) of every span called `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Total duration (s) of every span called `name`.
#[must_use]
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().sum::<f64>() / 1e3
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`, `job`.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
            s.name, s.start_ns, s.end_ns, s.job
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_merge_rebases_parents() {
        let mut r = Recorder::new(Instant::now());
        r.span("bench.job", 7, |r| {
            r.span("machine.run", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = merge(vec![vec![], r.into_spans()]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, 7);
        let own = self_ns(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        assert!(layer_self_s(&spans)["machine"] >= 0.002);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
