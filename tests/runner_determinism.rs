//! The runner's contract: a `RunKey` names a bit-exact simulation result.
//!
//! The same experiment point must yield identical `Stats` whether it is
//! computed serially, on a multi-worker pool, or served from the memoizing
//! cache — otherwise parallel experiment binaries could print different
//! rows than the seed's serial loops. The figure rows themselves must equal
//! the serial, uncached per-cell computation of the crate's free functions,
//! and the work a figure does (unique runs, cache and checkpoint hits,
//! simulated cycles, checkpoint bytes) is an exact count, so any change to
//! it is an algorithmic change.

use smtx_bench::{
    config_with_idle, epoch_schedule, figures, insts_for, make_checkpoint, penalty_per_miss,
    penalty_table_for, probe_insts, run_restored, runner::perfect_of, scale_budget, Args,
    Experiment, Job, Runner, EPOCH_MIN_WINDOW,
};
use std::sync::Arc;

use smtx_core::{ExnMechanism, MachineConfig};
use smtx_workloads::Kernel;

const SEED: u64 = 42;
const INSTS: u64 = 8_000;

fn jobs_for(kernels: &[Kernel]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &kernel in kernels {
        jobs.push(Job::Ref { kernel, seed: SEED, insts: INSTS });
        for mech in [ExnMechanism::Traditional, ExnMechanism::Multithreaded] {
            let config = config_with_idle(mech, 1);
            jobs.push(Job::Sim { kernel, seed: SEED, insts: INSTS, config: config.clone() });
            jobs.push(Job::Sim { kernel, seed: SEED, insts: INSTS, config: perfect_of(&config) });
        }
    }
    jobs
}

#[test]
fn serial_and_parallel_runs_produce_identical_stats() {
    let kernels = [Kernel::Compress, Kernel::Gcc, Kernel::Murphi];
    let serial = Runner::new(1);
    let parallel = Runner::new(4);
    serial.prefetch(jobs_for(&kernels));
    parallel.prefetch(jobs_for(&kernels));

    for &kernel in &kernels {
        for mech in [ExnMechanism::Traditional, ExnMechanism::Multithreaded] {
            for config in [config_with_idle(mech, 1), perfect_of(&config_with_idle(mech, 1))] {
                let a = serial.run(kernel, SEED, INSTS, &config);
                let b = parallel.run(kernel, SEED, INSTS, &config);
                assert_eq!(
                    a.stats, b.stats,
                    "{} under {mech:?} differs between jobs=1 and jobs=4",
                    kernel.name()
                );
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.arch_misses, b.arch_misses);
            }
        }
    }
    // Everything above must have been served from the prefetched cache.
    assert_eq!(serial.stats().unique_runs, parallel.stats().unique_runs);
}

#[test]
fn cached_results_match_fresh_computation() {
    let config = config_with_idle(ExnMechanism::Multithreaded, 1);
    let warm = Runner::new(2);
    warm.prefetch(vec![Job::Sim {
        kernel: Kernel::Vortex,
        seed: SEED,
        insts: INSTS,
        config: config.clone(),
    }]);
    let cached = warm.run(Kernel::Vortex, SEED, INSTS, &config);
    let hits = warm.stats().cache_hits;
    assert!(hits >= 1, "second query must be a cache hit");

    let cold = Runner::new(1).run(Kernel::Vortex, SEED, INSTS, &config);
    assert_eq!(cached.stats, cold.stats, "cache must be bit-exact");
}

/// Fig. 5's mechanism columns.
fn fig5_configs() -> [(&'static str, MachineConfig); 4] {
    [
        ("traditional", config_with_idle(ExnMechanism::Traditional, 1)),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ]
}

/// One Fig. 5 cell computed the serial, uncached way: the kernel's budget,
/// the mechanism run and its perfect-TLB baseline all recomputed from the
/// free functions, with no runner in between.
fn oracle_row(kernel: Kernel, insts: u64, skip: u64) -> Vec<f64> {
    if skip == 0 {
        let budget = insts_for(kernel, SEED, insts);
        return fig5_configs()
            .iter()
            .map(|(_, cfg)| penalty_per_miss(kernel, SEED, budget, cfg))
            .collect();
    }
    let ck = make_checkpoint(kernel, SEED, skip);
    let probe = probe_insts(insts);
    let budget =
        scale_budget(ck.arch_misses_in_window(0, probe, epoch_schedule(probe)), probe, insts);
    fig5_configs()
        .iter()
        .map(|(_, cfg)| {
            let run = run_restored(&ck, budget, cfg.clone(), true);
            let perfect = run_restored(&ck, budget, perfect_of(cfg), true);
            (run.cycles as f64 - perfect.cycles as f64) / run.arch_misses.max(1) as f64
        })
        .collect()
}

/// Asserts the runner's Fig. 5 rows over `kernels` (plus the average row)
/// equal the oracle's bit for bit.
fn assert_rows_match_oracle(kernels: &[Kernel], insts: u64, skip: u64) {
    let args = Args { insts, seed: SEED, jobs: 2, skip, ..Args::default() };
    let mut exp = Experiment::with_args("fig5", args).quiet();
    penalty_table_for(&mut exp, kernels, &fig5_configs());
    let mut want: Vec<(String, Vec<f64>)> =
        kernels.iter().map(|&k| (k.name().to_string(), oracle_row(k, insts, skip))).collect();
    let mut sums = vec![0.0; fig5_configs().len()];
    for (_, cells) in &want {
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
    }
    want.push(("average".to_string(), sums.iter().map(|s| s / kernels.len() as f64).collect()));

    let bits = |rows: &[(String, Vec<f64>)]| -> Vec<(String, Vec<u64>)> {
        rows.iter()
            .map(|(label, cells)| (label.clone(), cells.iter().map(|c| c.to_bits()).collect()))
            .collect()
    };
    assert_eq!(
        bits(&exp.report.rows),
        bits(&want),
        "runner rows at skip {skip} differ from the serial oracle\nrunner: {:?}\noracle: {want:?}",
        exp.report.rows
    );
}

// The two skips split the eight kernels between them.
#[test]
fn fig5_rows_match_the_serial_oracle_at_skip_0() {
    let kernels = [Kernel::Compress, Kernel::Deltablue, Kernel::Gcc, Kernel::Vortex];
    assert_rows_match_oracle(&kernels, 500, 0);
}

#[test]
fn fig5_rows_match_the_serial_oracle_under_fast_forward() {
    let kernels = [Kernel::Alphadoom, Kernel::Applu, Kernel::Hydro2d, Kernel::Murphi];
    assert_rows_match_oracle(&kernels, 500, 20_000);
}

/// The exact work-count gate: Fig. 5 over one small fast-forward window
/// does the same work at every `--jobs`, and that work is pinned. A change
/// to any count is a real change to what the runner computes or caches and
/// must be re-blessed here on purpose.
#[test]
fn fig5_work_counts_are_exact_and_job_count_independent() {
    for jobs in [1, 2] {
        let args = Args { insts: 500, seed: SEED, jobs, skip: 20_000, ..Args::default() };
        let mut exp = Experiment::with_args("fig5", args).quiet();
        figures::fig5(&mut exp);
        let s = exp.runner.stats();
        assert_eq!(
            (s.unique_runs, s.cache_hits, s.checkpoint_hits, s.sim_cycles, s.checkpoint_bytes),
            (56, 112, 56, 1_704_878, 16_183_488),
            "fig5 --insts 500 --skip 20000 work counts at --jobs {jobs} \
             (unique_runs, cache_hits, checkpoint_hits, sim_cycles, checkpoint_bytes)"
        );
    }
}

/// Fig. 3's cache counters are exact too: its batch carries each kernel's
/// reference window, which the runner computes before the sims that read
/// it, so no two workers race to miss the same reference-cache entry. The
/// pin also catches a batch without those windows: each kernel's first
/// sim would compute its window, one cache hit fewer per kernel.
#[test]
fn fig3_work_counts_are_exact_and_job_count_independent() {
    let counts = |jobs: usize| {
        let args = Args { insts: 500, seed: SEED, jobs, skip: 2_000, ..Args::default() };
        let mut exp = Experiment::with_args("fig3", args).quiet();
        figures::fig3(&mut exp);
        let s = exp.runner.stats();
        (s.unique_runs, s.cache_hits, s.checkpoint_hits, s.sim_cycles, s.checkpoint_bytes)
    };
    for rep in 0..5 {
        for jobs in [1, 2] {
            assert_eq!(
                counts(jobs),
                (64, 104, 64, 2_151_058, 16_183_488),
                "fig3 --insts 500 --skip 2000 at --jobs {jobs}, repetition {rep} \
                 (unique_runs, cache_hits, checkpoint_hits, sim_cycles, checkpoint_bytes)"
            );
        }
    }
}

/// Fig. 7's mix path has exact work counts too: its batch carries every
/// thread's reference window and all five configurations of each mix, so
/// the counters do not depend on the worker count or on repetition.
#[test]
fn fig7_work_counts_are_exact_and_job_count_independent() {
    let counts = |jobs: usize| {
        let args = Args { insts: 500, seed: SEED, jobs, skip: 2_000, ..Args::default() };
        let mut exp = Experiment::with_args("fig7", args).quiet();
        figures::fig7(&mut exp);
        let s = exp.runner.stats();
        (s.unique_runs, s.cache_hits, s.checkpoint_hits, s.sim_cycles, s.checkpoint_bytes)
    };
    for rep in 0..3 {
        for jobs in [1, 2] {
            assert_eq!(
                counts(jobs),
                (51, 64, 51, 100_997, 72_685_896),
                "fig7 --insts 500 --skip 2000 at --jobs {jobs}, repetition {rep} \
                 (unique_runs, cache_hits, checkpoint_hits, sim_cycles, checkpoint_bytes)"
            );
        }
    }
}

/// Table 4's "Perfect" column is the canonical perfect-TLB baseline that
/// Fig. 5 already ran: after Fig. 5 on one runner, Table 4 adds only its
/// two quick-start columns (16 runs over eight kernels), not a second
/// perfect run per kernel (24).
#[test]
fn table4_reuses_fig5s_perfect_baseline() {
    let args = Args { insts: 2_000, seed: SEED, jobs: 2, skip: 2_000, ..Args::default() };
    let mut exp = Experiment::with_args("fig5", args).quiet();
    figures::fig5(&mut exp);
    let after_fig5 = exp.runner.stats().unique_runs;
    figures::table4(&mut exp);
    assert_eq!(
        exp.runner.stats().unique_runs - after_fig5,
        16,
        "unique runs table4 adds after fig5 at --insts 2000 --skip 2000"
    );
}

/// No scheduling knob changes a row, at a window where epoch resets fire:
/// `EPOCH_MIN_WINDOW` instructions behind a fast-forward, so one reset
/// lands mid-window. `--jobs`, `--check`, `--trace` and the two
/// library-only oracles (a fresh checkpoint per run, no idle-cycle skip)
/// must each reproduce the default runner's stats and
/// architectural miss counts, and `run_traced`'s trace must decode into one
/// segment that accounts for the same cycles, fetches and handler time.
#[test]
fn scheduling_knobs_never_change_a_reset_active_row() {
    const SKIP: u64 = 20_000;
    let insts = EPOCH_MIN_WINDOW;
    assert!(epoch_schedule(insts).is_some_and(|e| e < insts), "a reset fires in the window");
    let points: Vec<(Kernel, MachineConfig)> = [Kernel::Compress, Kernel::Murphi]
        .into_iter()
        .flat_map(|k| {
            [ExnMechanism::Traditional, ExnMechanism::Multithreaded]
                .map(|mech| (k, config_with_idle(mech, 1)))
        })
        .collect();
    let jobs = || -> Vec<Job> {
        points
            .iter()
            .map(|(kernel, config)| Job::Sim {
                kernel: *kernel,
                seed: SEED,
                insts,
                config: config.clone(),
            })
            .collect()
    };
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("knobs.trace");
    let base = Runner::new(1).with_skip(SKIP);
    base.prefetch(jobs());
    let variants = [
        ("--jobs 2", Runner::new(2).with_skip(SKIP)),
        ("no checkpoint cache", Runner::new(1).with_skip(SKIP).with_checkpoint_cache(false)),
        ("no idle-skip", Runner::new(1).with_skip(SKIP).with_idle_skip(false)),
        ("--check on", Runner::new(1).with_skip(SKIP).with_check(true)),
        ("--trace", Runner::new(1).with_skip(SKIP).with_trace(Some(trace.clone()))),
    ];
    for (knob, runner) in &variants {
        runner.prefetch(jobs());
        for (kernel, config) in &points {
            let a = base.run(*kernel, SEED, insts, config);
            let b = runner.run(*kernel, SEED, insts, config);
            assert_eq!(a.stats, b.stats, "{} under {knob}", kernel.name());
            assert_eq!(a.arch_misses, b.arch_misses, "{} arch misses under {knob}", kernel.name());
        }
    }
    let written = std::fs::read(&trace).expect("--trace wrote a file");
    let _ = std::fs::remove_file(&trace);
    let segments = smtx_trace::analyze(&smtx_trace::codec::decode(&written).expect("decodes"));
    assert_eq!(segments.len(), points.len(), "one segment per unique run");

    for (kernel, config) in &points {
        let a = base.run(*kernel, SEED, insts, config);
        let bytes = base.run_traced(*kernel, SEED, insts, config);
        let events = smtx_trace::codec::decode(&bytes).expect("run_traced decodes");
        let [seg] = smtx_trace::analyze(&events)[..] else {
            panic!("{}: run_traced must hold exactly one segment", kernel.name());
        };
        assert_eq!(seg.run.map(|r| r.insts), Some(insts));
        assert_eq!(seg.end_cycle, a.stats.cycles, "{} traced cycles", kernel.name());
        assert_eq!(seg.counts.fetch, a.stats.fetched, "{} traced fetches", kernel.name());
        assert_eq!(seg.spliced_occupancy, a.stats.handler_active_cycles, "{}", kernel.name());
    }
}

/// Checkpoint reuse and idle-cycle skipping are optimizations, not
/// approximations, and no binary can turn them off. So the rows of `figure`
/// at `--insts insts --skip skip` from a default runner must equal, byte
/// for byte in `--json` form, those of runners with a fresh checkpoint per
/// run, with no idle-cycle skip, and with neither.
fn assert_scheduling_oracles_keep_rows(figure: &str, insts: u64, skip: u64) {
    let rows = |runner: Runner| -> String {
        let args = Args { insts, seed: SEED, ..Args::default() };
        let mut exp = Experiment::on_runner(figure, args, Arc::new(runner.with_skip(skip))).quiet();
        assert!(figures::run_named(figure, &mut exp), "{figure} is a figure");
        assert!(!exp.report.rows.is_empty(), "{figure} printed rows");
        exp.report.rows_json()
    };
    let want = rows(Runner::new(2));
    for (oracle, runner) in [
        ("a fresh checkpoint per run", Runner::new(2).with_checkpoint_cache(false)),
        ("no idle-cycle skip", Runner::new(2).with_idle_skip(false)),
        ("both", Runner::new(2).with_checkpoint_cache(false).with_idle_skip(false)),
    ] {
        assert_eq!(rows(runner), want, "{figure} --insts {insts} --skip {skip} under {oracle}");
    }
}

/// The CI `cycle-exactness` cases, as `(figure, insts, skip)`: fig5 from
/// instruction zero, where the one start path restores a zero-length
/// checkpoint, and behind a fast-forward; Fig. 7's 4-context mixes.
const CYCLE_EXACTNESS: [(&str, u64, u64); 3] =
    [("fig5", 8_000, 0), ("fig5", 8_000, 20_000), ("fig7", 4_000, 0)];

/// The CI `scheduling-knobs` cases: fig2, fig5 and fig7 at a window where
/// epoch resets fire, and fig5 at the benchmark's `fig5-window` shape,
/// where loads parked behind unresolved stores change how far idle-skip
/// jumps.
const SCHEDULING_KNOBS: [(&str, u64, u64); 4] = [
    ("fig2", 96_000, 20_000),
    ("fig5", 96_000, 20_000),
    ("fig7", 96_000, 20_000),
    ("fig5", 10_000, 2_000),
];

/// Every case at a 500-instruction window with its own skip (budgets
/// still grow to reach `MIN_MISSES`); the full windows run in CI, in
/// release, through `--ignored`. At this size the resets do not fire;
/// `scheduling_knobs_never_change_a_reset_active_row` covers them.
fn at_small_window(cases: &[(&'static str, u64, u64)]) {
    for &(figure, _, skip) in cases {
        assert_scheduling_oracles_keep_rows(figure, 500, skip);
    }
}

#[test]
fn cycle_exactness_at_small_windows() {
    at_small_window(&CYCLE_EXACTNESS);
}

#[test]
#[ignore = "CI window; run in release with --ignored"]
fn cycle_exactness_at_ci_windows() {
    for (figure, insts, skip) in CYCLE_EXACTNESS {
        assert_scheduling_oracles_keep_rows(figure, insts, skip);
    }
}

#[test]
fn scheduling_knobs_at_small_windows() {
    // fig5 behind the 20000 fast-forward is cycle-exactness's second case.
    at_small_window(&[SCHEDULING_KNOBS[0], SCHEDULING_KNOBS[2], SCHEDULING_KNOBS[3]]);
}

#[test]
#[ignore = "CI window; run in release with --ignored"]
fn scheduling_knobs_at_ci_windows() {
    for (figure, insts, skip) in SCHEDULING_KNOBS {
        assert_scheduling_oracles_keep_rows(figure, insts, skip);
    }
}
