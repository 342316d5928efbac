//! The command: argument parsing, one process per repetition, output
//! checks, the exact-repeat guard, and the printed report.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use smtx_serve::json::Json;

use crate::measure::{self, digest};
use crate::rep::RepOut;
use crate::span::{self, Span};
use crate::spec::{Size, Spec, Workload};
use crate::{figure, fleet, metrics};

/// Usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: smtx-perfbench --workload fig5-window|fig5-deep-ff|fig7-smt|fleet-closed [--seed N] [--seconds N] [--trace 0|1]";

/// Untraced repetitions a run makes at least, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// Traced/untraced pairs a `--trace 1` run makes at least.
pub const MIN_PAIRS: usize = 2;

/// Set-up-only processes an untraced run starts in one batch, before a
/// repetition; `setup_s` is the median of their cold set-ups. (A
/// repetition's own set-up follows the previous repetition's load, so it
/// is printed but not pooled with these.)
pub const PROBE_BATCH: usize = 4;

/// Least time between two probe batches. The cold set-up time follows the
/// host's state, so the batches are spread over the whole run rather than
/// taken at its start.
pub const PROBE_EVERY: Duration = Duration::from_secs(1);

/// Where run records and span files go.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Per-layer traced mode.
    pub trace: bool,
}

/// Parses the command's flags.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value, or
/// a missing `--workload`.
pub fn parse(argv: impl IntoIterator<Item = String>, spec: &Spec) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Fig5Window,
        seed: spec.default_seed(),
        seconds: 10,
        trace: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => opts.seed = int(&value)?,
            "--seconds" => opts.seconds = int(&value)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// What a repetition's process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only the cold set-up, for a `setup_s` sample.
    Setup,
    /// One untraced repetition.
    Plain,
    /// One traced repetition.
    Traced,
}

impl Mode {
    /// The mode's name on the child's command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Plain => "plain",
            Mode::Traced => "traced",
        }
    }

    fn from_name(name: &str) -> Option<Mode> {
        [Mode::Setup, Mode::Plain, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Runs one repetition in this process. `expected` is the fleet's
/// in-process rows per unique spec (ignored by the figure workloads).
#[must_use]
pub fn run_rep(
    w: Workload,
    seed: u64,
    index: u64,
    mode: Mode,
    size: Size,
    spec: &Spec,
    expected: &[String],
) -> (RepOut, Vec<Span>) {
    let traced = mode == Mode::Traced;
    match (w, mode) {
        (Workload::FleetClosed, Mode::Setup) => (fleet::setup_only(), Vec::new()),
        (Workload::FleetClosed, _) => {
            fleet::rep(seed, index, &spec.fleet(size), spec, expected, traced)
        }
        (_, Mode::Setup) => (
            figure::setup_only(w, seed, spec.figure(w, size)),
            Vec::new(),
        ),
        (_, Mode::Plain) => (
            figure::plain(w, seed, spec.figure(w, size), spec),
            Vec::new(),
        ),
        (_, Mode::Traced) => figure::traced(w, seed, spec.figure(w, size), spec),
    }
}

/// Child side: `--rep WORKLOAD SEED setup|plain|traced INDEX`. Reads the
/// fleet's expected rows (a JSON array) from stdin, runs one repetition,
/// writes its spans, and prints the outcome as one JSON line.
///
/// # Errors
///
/// Returns a message for malformed arguments or stdin.
pub fn child(argv: &[String]) -> Result<(), String> {
    let spec = Spec::load();
    let [w, seed, mode, index] = argv else {
        return Err("--rep WORKLOAD SEED setup|plain|traced INDEX".to_string());
    };
    let w = Workload::from_name(w).ok_or("unknown workload")?;
    let mode = Mode::from_name(mode).ok_or("unknown repetition mode")?;
    let index: u64 = index.parse().map_err(|e| format!("index: {e}"))?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("stdin: {e}"))?;
    let expected: Vec<String> = match Json::parse(&input) {
        Ok(Json::Arr(v)) => v
            .iter()
            .filter_map(|r| r.as_str().map(String::from))
            .collect(),
        _ => Vec::new(),
    };
    let (out, spans) = run_rep(w, seed, index, mode, Size::Full, &spec, &expected);
    if !spans.is_empty() {
        let path = out_dir().join(format!("{}-seed{seed}-rep{index}.spans.jsonl", w.name()));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, span::to_jsonl(&spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", out.to_json());
    Ok(())
}

/// Runs one repetition in a fresh process of this executable and waits
/// for it. A repetition that crashes or prints nothing parseable comes
/// back as a failed one.
fn spawn_rep(w: Workload, seed: u64, mode: Mode, index: usize, expected: &str) -> RepOut {
    let failed = |why: String| RepOut {
        attempted: 1,
        failed: 1,
        errors: vec![why],
        ..RepOut::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let child = Command::new(exe)
        .args([
            "--rep",
            w.name(),
            &seed.to_string(),
            mode.name(),
            &index.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let written = child
        .stdin
        .take()
        .map(|mut s| s.write_all(expected.as_bytes()));
    let mut text = String::new();
    let read = child.stdout.take().map(|mut s| s.read_to_string(&mut text));
    let status = child.wait();
    match (written, read, status) {
        (Some(Ok(())), Some(Ok(_)), Ok(st)) if st.success() => {
            RepOut::from_json(text.lines().last().unwrap_or(""))
                .unwrap_or_else(|e| failed(format!("rep output: {e}")))
        }
        (_, _, st) => failed(format!("{} repetition {index} failed: {st:?}", mode.name())),
    }
}

/// Compares a repetition's rows with the rows they must equal byte for
/// byte; names the first differing line.
///
/// # Errors
///
/// Returns the first differing line pair.
pub fn check_rows(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let diff = expected
        .lines()
        .zip(got.lines())
        .find(|(a, b)| a != b)
        .map_or_else(
            || "row count differs".to_string(),
            |(a, b)| format!("expected `{}`, got `{}`", a.trim(), b.trim()),
        );
    Err(diff)
}

/// The exact-repeat guard over every repetition, untraced and traced:
/// identical rows, and identical values for every deterministic count two
/// repetitions both report. Returns `(failed operations, messages)`.
#[must_use]
pub fn guard(reps: &[RepOut]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    let Some(first) = reps.iter().find(|r| !r.rows.is_empty()) else {
        return (0, errors);
    };
    for (i, r) in reps.iter().enumerate() {
        if r.rows.is_empty() {
            continue;
        }
        if let Err(e) = check_rows(&first.rows, &r.rows) {
            failed += r.attempted;
            errors.push(format!(
                "repetition {i}: rows differ from repetition 0: {e}"
            ));
        }
        for (name, value) in &r.exact {
            if let Some(seen) = reps.iter().find_map(|o| o.exact.get(name)) {
                if seen != value {
                    failed += 1;
                    errors.push(format!(
                        "repetition {i}: {name} = {value}, another repetition has {seen}"
                    ));
                }
            }
        }
    }
    (failed, errors)
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v, format!("{v}"))
    } else {
        Json::Null
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs the benchmark and prints its report; the last line is the JSON
/// result. Returns whether every output checked.
#[must_use]
pub fn run(opts: &Options) -> bool {
    let spec = Spec::load();
    let w = opts.workload;
    let load = measure::loadavg_1m();
    let nproc = measure::nproc();
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("host nproc {nproc} loadavg_1m {load}");

    let expected = if w == Workload::FleetClosed {
        let t = Instant::now();
        let rows = fleet::expected_rows(&spec.fleet(Size::Full));
        println!(
            "fleet: the {} specs the traffic can submit computed in-process in {:.3} s",
            rows.len(),
            t.elapsed().as_secs_f64()
        );
        Json::Arr(rows.into_iter().map(Json::Str).collect()).to_text()
    } else {
        String::new()
    };

    let t0 = Instant::now();
    let mut setups: Vec<RepOut> = Vec::new();
    let mut last_batch: Option<Instant> = None;
    let mut plain: Vec<RepOut> = Vec::new();
    let mut traced: Vec<RepOut> = Vec::new();
    loop {
        let enough = if opts.trace {
            traced.len() >= MIN_PAIRS
        } else {
            plain.len() >= MIN_REPS
        };
        if enough && t0.elapsed().as_secs() >= opts.seconds {
            break;
        }
        if !opts.trace && last_batch.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            last_batch = Some(Instant::now());
            for _ in 0..PROBE_BATCH {
                setups.push(spawn_rep(w, opts.seed, Mode::Setup, setups.len(), ""));
            }
        }
        let index = plain.len() + traced.len();
        let r = spawn_rep(w, opts.seed, Mode::Plain, index, &expected);
        print_rep(index, "plain", &r);
        plain.push(r);
        if opts.trace {
            let r = spawn_rep(w, opts.seed, Mode::Traced, index + 1, &expected);
            print_rep(index + 1, "traced", &r);
            traced.push(r);
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();
    let shares: Vec<f64> = plain
        .iter()
        .filter_map(|r| r.values.get("fleet.repeat_share").copied())
        .collect();
    let repeat_share = (!shares.is_empty()).then(|| measure::median(&shares));
    if let Some(share) = repeat_share {
        println!("fleet repeat share (median over repetitions) {share}");
    }

    let all: Vec<RepOut> = plain.iter().chain(&traced).cloned().collect();
    let (guard_failed, guard_errors) = guard(&all);
    let setup_failed = setups.iter().map(|r| r.failed).sum::<u64>();
    let attempted = all.iter().map(|r| r.attempted).sum::<u64>().max(1);
    let failed = all.iter().map(|r| r.failed).sum::<u64>() + guard_failed + setup_failed;
    let errors: Vec<String> = setups
        .iter()
        .chain(&all)
        .flat_map(|r| r.errors.iter().cloned())
        .chain(guard_errors)
        .collect();
    let correct = failed == 0 && errors.is_empty();

    let digest_text = all.first().map_or_else(String::new, |r| digest(&r.rows));
    println!(
        "rows digest {digest_text} ({} repetitions, {})",
        all.len(),
        if correct {
            "identical"
        } else {
            "NOT identical"
        }
    );
    let mut exact: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &all {
        for (k, v) in &r.exact {
            exact.entry(k).or_insert(*v);
        }
    }
    for (k, v) in &exact {
        println!("exact {k} = {v}");
    }
    for e in &errors {
        println!("error: {e}");
    }
    println!(
        "error_rate {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    if let Some(layers) = layer_summary(&traced) {
        println!("{layers}");
    }
    let report = metrics::report(opts.trace, &setups, &plain, &traced, attempted, failed);
    for (name, unit, value) in &report {
        println!("metric {name} = {value} {unit}");
    }

    let metrics_json = Json::Obj(
        report
            .iter()
            .map(|(n, u, v)| {
                let m = obj(vec![("value", num(*v)), ("unit", Json::Str((*u).into()))]);
                (n.to_string(), m)
            })
            .collect(),
    );
    let record = obj(vec![
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::num_u64(opts.seed)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::num_u64(nproc as u64)),
        ("loadavg_1m", num(load)),
        ("measured_s", num(measured_s)),
        ("repeat_share", repeat_share.map_or(Json::Null, num)),
        ("rows_digest", Json::Str(digest_text)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        (
            "errors",
            Json::Arr(errors.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "reps",
            Json::Arr(
                setups
                    .iter()
                    .map(|r| rep_record("setup", r))
                    .chain(plain.iter().map(|r| rep_record("plain", r)))
                    .chain(traced.iter().map(|r| rep_record("traced", r)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json.clone()),
    ]);
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, record.to_text() + "\n"))
    {
        println!("warning: cannot write {}: {e}", path.display());
    }

    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.to_text());
    correct
}

fn rep_record(mode: &str, r: &RepOut) -> Json {
    obj(vec![
        ("mode", Json::Str(mode.into())),
        (
            "values",
            Json::Obj(r.values.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ),
        (
            "exact",
            Json::Obj(
                r.exact
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num_u64(*v)))
                    .collect(),
            ),
        ),
        ("rows_digest", Json::Str(digest(&r.rows))),
    ])
}

fn print_rep(index: usize, mode: &str, r: &RepOut) {
    let pick = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "trace.wall_s"];
    let shown: Vec<String> = pick
        .iter()
        .filter_map(|k| r.values.get(*k).map(|v| format!("{k}={v:.4}")))
        .collect();
    println!("rep {index} {mode} {} failed={}", shown.join(" "), r.failed);
}

/// Median self time per layer over the traced repetitions, largest first.
fn layer_summary(traced: &[RepOut]) -> Option<String> {
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in traced {
        for (k, v) in &r.values {
            if let Some(layer) = k.strip_prefix("self.").and_then(|k| k.strip_suffix("_s")) {
                layers.entry(layer).or_default().push(*v);
            }
        }
    }
    let mut v: Vec<(&str, f64)> = layers
        .into_iter()
        .map(|(k, s)| (k, measure::median(&s)))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    let (top, _) = v.first()?;
    let parts: Vec<String> = v.iter().map(|(k, s)| format!("{k} {s:.3} s")).collect();
    Some(format!(
        "layer self time (traced, summed over threads): {} ; largest: {top}",
        parts.join(", ")
    ))
}
