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

/// No scheduling knob changes a row, at a window where epoch resets fire:
/// `EPOCH_MIN_WINDOW` instructions behind a fast-forward, so one reset
/// lands mid-window. `--jobs`, `--checkpoint`, `--idle-skip`, `--check` and
/// `--trace` must each reproduce the default runner's stats and
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
        ("--checkpoint off", Runner::new(1).with_skip(SKIP).with_checkpoint_cache(false)),
        ("--idle-skip off", Runner::new(1).with_skip(SKIP).with_idle_skip(false)),
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
