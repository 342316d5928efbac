//! The figure workloads, run two ways.
//!
//! * [`plain`] is what a figure user runs: `figures::fig5`/`figures::fig7`
//!   on a quiet [`Experiment`] over a fresh [`Runner`] with the binaries'
//!   defaults (jobs = nproc, checkpoints and idle-skip on, one interval, no
//!   `--check`, no `--trace`). It yields the end-to-end metrics.
//! * [`traced`] drives the same job list through the layers' public
//!   functions itself — capture, reference windows, `Machine::new`,
//!   `restore`, `run` — on the same number of worker threads, with a span
//!   around each call. It yields the per-layer split, and its rows must be
//!   byte-identical to the plain run's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smtx_bench::runner::perfect_of;
use smtx_bench::{
    arch_misses, config_with_idle, cycle_cap, epoch_schedule, figures, make_checkpoint,
    make_mix_checkpoint, probe_insts, scale_budget, Args, Experiment, Report, Runner,
};
use smtx_core::{Checkpoint, ExnMechanism, Machine, MachineConfig, Stats};
use smtx_workloads::{Kernel, MIXES};

use crate::measure::{self, median, process_cpu};
use crate::rep::RepOut;
use crate::span::{self, Recorder, Span};
use crate::spec::{FigureSize, Spec, Workload};

/// The Fig. 5 columns, exactly as `figures::fig5` builds them.
fn fig5_configs() -> [(&'static str, MachineConfig); 4] {
    [
        (
            "traditional",
            config_with_idle(ExnMechanism::Traditional, 1),
        ),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ]
}

/// The Fig. 7 columns, exactly as `figures::fig7` builds them.
const FIG7_MECHS: [(&str, ExnMechanism); 4] = [
    ("traditional", ExnMechanism::Traditional),
    ("multi(1)", ExnMechanism::Multithreaded),
    ("quick(1)", ExnMechanism::QuickStart),
    ("hardware", ExnMechanism::Hardware),
];

fn mix_config(mechanism: ExnMechanism) -> MachineConfig {
    MachineConfig::paper_baseline(mechanism).with_threads(4)
}

/// Fidelity to the paper from a figure's `average` row: for Fig. 5 the
/// mean relative gap of the four column averages, for Fig. 7 the mean
/// absolute gap, in points, of the multithreaded and quick-start
/// reductions against traditional handling.
#[must_use]
pub fn paper_gap_pct(w: Workload, average: &[f64], spec: &Spec) -> f64 {
    match w {
        Workload::Fig7Smt => {
            let (multi, quick) = spec.paper_fig7();
            let reduction = |i: usize| (1.0 - average[i] / average[0]) * 100.0;
            ((reduction(1) - multi).abs() + (reduction(2) - quick).abs()) / 2.0
        }
        _ => {
            let paper = spec.paper_fig5();
            paper
                .iter()
                .zip(average)
                .map(|(p, a)| (a - p).abs() / p)
                .sum::<f64>()
                / 4.0
                * 100.0
        }
    }
}

fn average_row(report: &Report) -> Vec<f64> {
    report
        .rows
        .last()
        .map(|(_, cells)| cells.clone())
        .unwrap_or_default()
}

/// Builds a figure's runner and its quiet experiment frame with the
/// binaries' defaults, as `Experiment::with_args` does for a figure binary.
fn build(w: Workload, seed: u64, size: FigureSize) -> Experiment {
    let args = Args {
        insts: size.insts,
        seed,
        skip: size.skip,
        ..Args::default()
    };
    let name = if w == Workload::Fig7Smt {
        "fig7"
    } else {
        "fig5"
    };
    let runner = Arc::new(
        Runner::new(args.jobs)
            .with_skip(args.skip)
            .with_checkpoint_cache(args.checkpoint)
            .with_idle_skip(args.idle_skip)
            .with_intervals(args.intervals)
            .with_check(args.check),
    );
    Experiment::on_runner(name, args, runner).quiet()
}

/// A fresh process's one cold build of a figure's runner and frame.
#[must_use]
pub fn setup_only(w: Workload, seed: u64, size: FigureSize) -> RepOut {
    let t = Instant::now();
    let exp = std::hint::black_box(build(w, seed, size));
    let mut out = RepOut::default();
    out.set("setup_s", t.elapsed().as_secs_f64());
    drop(exp);
    out
}

/// One untraced repetition of a figure workload.
#[must_use]
pub fn plain(w: Workload, seed: u64, size: FigureSize, spec: &Spec) -> RepOut {
    let t = Instant::now();
    let mut exp = build(w, seed, size);
    let setup = t.elapsed().as_secs_f64();
    let jobs = exp.runner.jobs();

    let cpu0 = process_cpu();
    let t0 = Instant::now();
    if w == Workload::Fig7Smt {
        figures::fig7(&mut exp);
    } else {
        figures::fig5(&mut exp);
    }
    let report = exp.into_report();
    let ts = Instant::now();
    let json = std::hint::black_box(report.to_json());
    let serialize = ts.elapsed();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu0).as_secs_f64();

    let stats = report.runner;
    let mut out = RepOut {
        rows: report.rows_json(),
        attempted: stats.unique_runs,
        ..RepOut::default()
    };
    out.set("setup_s", setup);
    out.set("wall_s", wall);
    out.set("cpu_s", cpu);
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.set("jobs_per_s", stats.unique_runs as f64 / wall);
    out.set(
        "model.paper_gap_pct",
        paper_gap_pct(w, &average_row(&report), spec),
    );
    out.set("report.serialize_ms", serialize.as_secs_f64() * 1e3);
    out.set("report.bytes", json.len() as f64);
    out.set("runner.unique_runs", stats.unique_runs as f64);
    out.set("runner.cache_hits", stats.cache_hits as f64);
    out.set("runner.checkpoint_hits", stats.checkpoint_hits as f64);
    out.set(
        "runner.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.unique_runs).max(1) as f64,
    );
    out.set(
        "runner.lock_wait_slow",
        stats.lock_wait_ms_hist[1..].iter().sum::<u64>() as f64,
    );
    out.set("runner.parallel_eff", cpu / (wall * jobs as f64));
    out.set_exact("runner.unique_runs", stats.unique_runs);
    out.set_exact("runner.cache_hits", stats.cache_hits);
    out.set_exact("machine.cycles", stats.sim_cycles);
    out
}

/// Runs `f(i, recorder)` for `i in 0..n` across `jobs` worker threads
/// pulling from a shared counter (the runner's pool discipline), each with
/// its own span recorder. Returns the results in index order and each
/// worker's spans.
fn parallel<T: Send>(
    jobs: usize,
    n: usize,
    origin: Instant,
    f: impl Fn(usize, &mut Recorder) -> T + Sync,
) -> (Vec<T>, Vec<Vec<Span>>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let per_thread: Vec<Vec<Span>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::new(origin);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let v = f(i, &mut rec);
                        *slots[i].lock().expect("result slot") = Some(v);
                    }
                    rec.into_spans()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("traced worker"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every index ran")
        })
        .collect();
    (results, per_thread)
}

/// One simulated job's outcome.
struct Sim {
    stats: Stats,
    skipped: u64,
}

/// What one task of the traced job list produced.
enum Done {
    Misses(u64),
    Sim(Sim),
}

/// Restores `ck` into a fresh machine under `config`, runs it to the
/// per-thread budgets, and checks every budgeted thread finished — the
/// body of `run_restored` and `Runner::run_mix`, one span per call.
fn simulate(
    rec: &mut Recorder,
    job: u64,
    config: &MachineConfig,
    ck: &Checkpoint,
    budgets: &[(usize, u64)],
    epoch: Option<u64>,
    max_cycles: u64,
) -> Result<Sim, String> {
    rec.span("bench.job", job, |rec| {
        let mut m = rec.span("machine.new", job, |_| Machine::new(config.clone()));
        m.set_idle_skip(true);
        rec.span("checkpoint.restore", job, |_| m.restore(ck));
        m.set_epoch_len(epoch);
        for &(tid, insts) in budgets {
            m.set_budget(tid, insts);
        }
        rec.span("machine.run", job, |_| {
            m.run(max_cycles);
        });
        for &(tid, insts) in budgets {
            let got = m.stats().retired(tid);
            if got != insts {
                return Err(format!("job {job}: thread {tid} retired {got} of {insts}"));
            }
        }
        let sim = Sim {
            stats: m.stats().clone(),
            skipped: m.skipped_cycles(),
        };
        // Teardown is the machine's cost too: a restored machine frees its
        // whole memory image here.
        rec.span("machine.drop", job, |_| drop(m));
        Ok(sim)
    })
}

/// What the traced drive observed, before it becomes metrics.
#[derive(Default)]
struct Drive {
    rows: Report,
    /// Per-thread span lists, merged once at the end.
    spans: Vec<Vec<Span>>,
    sims: Vec<Sim>,
    captures: u64,
    ck_bytes: u64,
    /// Instructions the drive asked the interpreter for: fast-forwards
    /// and reference windows. Derived from the window sizes (capture and
    /// `arch_misses_in_window` assert the interpreter retires exactly
    /// these), so it only scales `interp.mips` and is not guarded.
    interp_insts: u64,
    penalty_cycles: i128,
    failures: Vec<String>,
}

fn drive_fig5(seed: u64, size: FigureSize, jobs: usize, origin: Instant) -> Drive {
    let mut d = Drive::default();
    let configs = fig5_configs();
    let probe = probe_insts(size.insts);
    // Budgets as `Runner::insts_for` computes them when fast-forwarding:
    // the miss density of a probe window behind the checkpoint.
    let (captured, spans) = parallel(jobs, Kernel::ALL.len(), origin, |i, rec| {
        let k = Kernel::ALL[i];
        let job = i as u64;
        let ck = rec.span("checkpoint.capture", job, |_| {
            make_checkpoint(k, seed, size.skip)
        });
        let probe_misses = rec.span("ref.probe", job, |_| {
            ck.arch_misses_in_window(0, probe, epoch_schedule(probe))
        });
        (
            ck,
            probe_misses,
            scale_budget(probe_misses, probe, size.insts),
        )
    });
    d.spans.extend(spans);
    d.captures = captured.len() as u64;
    for (ck, _, budget) in &captured {
        d.ck_bytes += ck.approx_bytes();
        d.interp_insts += size.skip * ck.threads().len() as u64 + probe;
        if *budget != probe {
            d.interp_insts += budget;
        }
    }

    // The job list `penalty_table` prefetches, deduplicated by config
    // digest as the runner's `RunKey` does: a reference window per kernel
    // (shared with the probe when the budget is the probe length), then
    // each column's config and its perfect-TLB baseline.
    enum Task {
        Ref(usize),
        Sim(usize, Box<MachineConfig>),
    }
    let mut tasks = Vec::new();
    for (i, (_, _, budget)) in captured.iter().enumerate() {
        if *budget != probe {
            tasks.push(Task::Ref(i));
        }
        let mut seen = Vec::new();
        for (_, cfg) in &configs {
            for c in [cfg.clone(), perfect_of(cfg)] {
                if !seen.contains(&c.digest()) {
                    seen.push(c.digest());
                    tasks.push(Task::Sim(i, Box::new(c)));
                }
            }
        }
    }
    let (results, spans) = parallel(jobs, tasks.len(), origin, |t, rec| {
        let job = 100 + t as u64;
        match &tasks[t] {
            Task::Ref(i) => {
                let (ck, _, budget) = &captured[*i];
                Ok(Done::Misses(rec.span("ref.window", job, |_| {
                    ck.arch_misses_in_window(0, *budget, epoch_schedule(*budget))
                })))
            }
            Task::Sim(i, cfg) => {
                let (ck, _, budget) = &captured[*i];
                simulate(
                    rec,
                    job,
                    cfg,
                    ck,
                    &[(0, *budget)],
                    epoch_schedule(*budget),
                    cycle_cap(*budget),
                )
                .map(Done::Sim)
            }
        }
    });
    d.spans.extend(spans);

    let mut misses: Vec<u64> = captured
        .iter()
        .map(|(_, probe_misses, _)| *probe_misses)
        .collect();
    let mut cycles = std::collections::BTreeMap::new();
    for (task, result) in tasks.iter().zip(results) {
        match (task, result) {
            (Task::Ref(i), Ok(Done::Misses(m))) => misses[*i] = m,
            (Task::Sim(i, cfg), Ok(Done::Sim(sim))) => {
                cycles.insert((*i, cfg.digest()), sim.stats.cycles);
                d.sims.push(sim);
            }
            (_, Err(e)) => d.failures.push(e),
            _ => unreachable!("each task yields its own kind"),
        }
    }

    d.rows.columns = configs.iter().map(|(n, _)| n.to_string()).collect();
    let mut sums = [0.0; 4];
    for (i, k) in Kernel::ALL.iter().enumerate() {
        let cells: Vec<f64> = configs
            .iter()
            .map(|(_, cfg)| {
                let run = cycles.get(&(i, cfg.digest())).copied().unwrap_or(0);
                let perfect = cycles
                    .get(&(i, perfect_of(cfg).digest()))
                    .copied()
                    .unwrap_or(0);
                d.penalty_cycles += i128::from(run) - i128::from(perfect);
                (run as f64 - perfect as f64) / misses[i].max(1) as f64
            })
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        d.rows.push_row(k.name(), &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / Kernel::ALL.len() as f64).collect();
    d.rows.push_row("average", &avg);
    d
}

fn drive_fig7(seed: u64, size: FigureSize, jobs: usize, origin: Instant) -> Drive {
    let mut d = Drive::default();
    let insts = size.insts;
    let (cks, spans) = parallel(jobs, MIXES.len(), origin, |i, rec| {
        rec.span("checkpoint.capture", i as u64, |_| {
            make_mix_checkpoint(MIXES[i], seed, size.skip)
        })
    });
    d.spans.extend(spans);
    d.captures = cks.len() as u64;
    for ck in &cks {
        d.ck_bytes += ck.approx_bytes();
        d.interp_insts += size.skip * ck.threads().len() as u64;
    }

    // Per mix, as `figures::fig7` prefetches: each thread's reference
    // window (deduplicated across mixes by kernel and seed, as the
    // runner's cache is), the perfect-TLB baseline, then each column.
    enum Task {
        Ref(Kernel, u64),
        Mix(usize, ExnMechanism),
    }
    let mut tasks = Vec::new();
    let mut refs_seen = Vec::new();
    for (i, mix) in MIXES.iter().enumerate() {
        for (tid, &k) in mix.iter().enumerate() {
            let key = (k, seed + tid as u64);
            if !refs_seen.contains(&key) {
                refs_seen.push(key);
                tasks.push(Task::Ref(key.0, key.1));
            }
        }
        tasks.push(Task::Mix(i, ExnMechanism::PerfectTlb));
        for (_, mech) in FIG7_MECHS {
            tasks.push(Task::Mix(i, mech));
        }
    }
    let budgets: Vec<(usize, u64)> = (0..3).map(|tid| (tid, insts)).collect();
    let (results, spans) = parallel(jobs, tasks.len(), origin, |t, rec| {
        let job = 100 + t as u64;
        match &tasks[t] {
            // The runner's reference window: from the kernel's start when
            // not fast-forwarding, else behind the kernel's own checkpoint.
            Task::Ref(k, s) => Ok(Done::Misses(if size.skip == 0 {
                rec.span("ref.window", job, |_| arch_misses(*k, *s, insts))
            } else {
                let ck = rec.span("checkpoint.capture", job, |_| {
                    make_checkpoint(*k, *s, size.skip)
                });
                rec.span("ref.window", job, |_| {
                    ck.arch_misses_in_window(0, insts, epoch_schedule(insts))
                })
            })),
            Task::Mix(i, mech) => simulate(
                rec,
                job,
                &mix_config(*mech),
                &cks[*i],
                &budgets,
                None,
                cycle_cap(insts * 3),
            )
            .map(Done::Sim),
        }
    });
    d.spans.extend(spans);
    d.captures = d
        .spans
        .iter()
        .flatten()
        .filter(|s| s.name == "checkpoint.capture")
        .count() as u64;
    d.interp_insts += refs_seen.len() as u64 * (insts + size.skip);

    let mut misses = std::collections::BTreeMap::new();
    let mut cycles = std::collections::BTreeMap::new();
    for (task, result) in tasks.iter().zip(results) {
        match (task, result) {
            (Task::Ref(k, s), Ok(Done::Misses(m))) => {
                misses.insert((*k, *s), m);
            }
            (Task::Mix(i, mech), Ok(Done::Sim(sim))) => {
                cycles.insert((*i, mech.label()), sim.stats.cycles);
                d.sims.push(sim);
            }
            (_, Err(e)) => d.failures.push(e),
            _ => unreachable!("each task yields its own kind"),
        }
    }

    d.rows.columns = FIG7_MECHS.iter().map(|(n, _)| n.to_string()).collect();
    let mut sums = [0.0; 4];
    for (i, mix) in MIXES.iter().enumerate() {
        let label: String = mix.iter().map(|k| k.tag()).collect::<Vec<_>>().join("-");
        let perfect = cycles
            .get(&(i, ExnMechanism::PerfectTlb.label()))
            .copied()
            .unwrap_or(0);
        let mix_misses: u64 = mix
            .iter()
            .enumerate()
            .map(|(tid, &k)| misses.get(&(k, seed + tid as u64)).copied().unwrap_or(0))
            .sum();
        let cells: Vec<f64> = FIG7_MECHS
            .iter()
            .map(|(_, mech)| {
                let run = cycles.get(&(i, mech.label())).copied().unwrap_or(0);
                d.penalty_cycles += i128::from(run) - i128::from(perfect);
                (run as f64 - perfect as f64) / mix_misses.max(1) as f64
            })
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        d.rows.push_row(&label, &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / MIXES.len() as f64).collect();
    d.rows.push_row("average", &avg);
    d
}

/// One traced repetition of a figure workload. Returns the outcome and
/// the spans, which the caller writes out when the run ends.
#[must_use]
pub fn traced(w: Workload, seed: u64, size: FigureSize, spec: &Spec) -> (RepOut, Vec<Span>) {
    let jobs = measure::nproc();
    let cpu0 = process_cpu();
    let origin = Instant::now();
    let d = if w == Workload::Fig7Smt {
        drive_fig7(seed, size, jobs, origin)
    } else {
        drive_fig5(seed, size, jobs, origin)
    };
    let wall = origin.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu0).as_secs_f64();

    let merged = span::merge(d.spans);
    let spans = &merged;
    let sum = |f: fn(&Stats) -> u64| d.sims.iter().map(|s| f(&s.stats)).sum::<u64>();
    let cycles = sum(|s| s.cycles);
    let retired = sum(Stats::total_retired);
    let fills = sum(|s| s.fills_committed);
    let squashed = sum(|s| s.squashed_insts);
    let handler_active = sum(|s| s.handler_active_cycles);
    let reverted = sum(|s| s.reverted_no_thread);
    let fetched = sum(|s| s.fetched);
    let useful = sum(|s| {
        s.threads
            .iter()
            .map(|t| t.retired_user + t.retired_pal)
            .sum()
    });
    let skipped: u64 = d.sims.iter().map(|s| s.skipped).sum();
    let capture_s = span::total_s(spans, "checkpoint.capture");
    let ref_s = span::total_s(spans, "ref.probe") + span::total_s(spans, "ref.window");
    let machine_s = ["machine.new", "machine.run", "machine.drop"]
        .iter()
        .map(|n| span::total_s(spans, n))
        .sum::<f64>();
    let run_ms = span::durations_ms(spans, "machine.run");

    let mut out = RepOut {
        rows: d.rows.rows_json(),
        attempted: d.sims.len() as u64 + d.failures.len() as u64,
        ..RepOut::default()
    };
    for e in d.failures {
        out.fail(e);
    }
    out.set("trace.wall_s", wall);
    out.set("trace.cpu_s", cpu);
    out.set("checkpoint.capture_s", capture_s);
    out.set("checkpoint.captures", d.captures as f64);
    out.set(
        "checkpoint.restore_s",
        span::total_s(spans, "checkpoint.restore"),
    );
    out.set("checkpoint.bytes", d.ck_bytes as f64);
    out.set("ref.busy_s", ref_s);
    out.set("interp.insts", d.interp_insts as f64);
    out.set(
        "interp.mips",
        d.interp_insts as f64 / (capture_s + ref_s).max(1e-9) / 1e6,
    );
    out.set("machine.busy_s", machine_s);
    out.set("machine.sims", d.sims.len() as f64);
    out.set("machine.cycles", cycles as f64);
    out.set("machine.skipped_cycles", skipped as f64);
    out.set("machine.retired", retired as f64);
    out.set("machine.kips", retired as f64 / machine_s.max(1e-9) / 1e3);
    out.set("machine.sim_p50_ms", median(&run_ms));
    out.set(
        "machine.sim_max_ms",
        run_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("model.penalty_cycles", d.penalty_cycles as f64);
    out.set("model.fills", fills as f64);
    out.set("model.squashed_insts", squashed as f64);
    out.set("model.handler_active_cycles", handler_active as f64);
    out.set("model.reverted_no_thread", reverted as f64);
    out.set("model.useful_fetch", useful as f64 / fetched.max(1) as f64);
    out.set(
        "model.paper_gap_pct",
        paper_gap_pct(w, &average_row(&d.rows), spec),
    );
    for (layer, s) in span::layer_self_s(spans) {
        out.set(&format!("self.{layer}_s"), s);
    }
    out.set_exact("machine.cycles", cycles);
    out.set_exact("machine.retired", retired);
    out.set_exact("checkpoint.captures", d.captures);
    // Two's-complement keeps a (never observed) negative sum comparable.
    out.set_exact("model.penalty_cycles", d.penalty_cycles as u64);
    out.set_exact("model.fills", fills);
    out.set_exact("model.squashed_insts", squashed);
    out.set_exact("model.handler_active_cycles", handler_active);
    out.set_exact("model.reverted_no_thread", reverted);
    out.set_exact("model.fetched", fetched);
    (out, merged)
}
