//! # smtx-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §4 for the index). The heart of the crate is
//! [`penalty_per_miss`]: run a workload under a mechanism and under a
//! perfect TLB with the same instruction budget, divide the cycle
//! difference by the workload's architectural miss count — exactly the
//! paper's §3 metric ("penalty cycles per TLB miss").
//!
//! One binary per experiment:
//!
//! | binary   | regenerates |
//! |----------|-------------|
//! | `fig2`   | penalty vs. pipeline depth (3/7/11) |
//! | `fig3`   | relative TLB time vs. width (2/32, 4/64, 8/128) |
//! | `fig5`   | traditional / multithreaded(1) / multithreaded(3) / hardware |
//! | `table3` | limit studies |
//! | `fig6`   | quick-start |
//! | `table4` | speedups, miss rates, base IPC |
//! | `fig7`   | 3 application threads + 1 idle |
//! | `table2` | kernel miss densities vs. the paper's |
//!
//! Every binary accepts `--insts N` (per-thread instruction budget, default
//! 300k), `--seed N`, `--jobs N` (worker-pool size, default: all cores),
//! `--json PATH` (machine-readable report) and `--trace PATH` (cycle-level
//! binary event trace, see `smtx-trace`), and prints paper-style rows.
//!
//! Execution goes through the [`runner`] module: an experiment expands into
//! a flat list of independent simulation jobs, deduplicated by
//! `RunKey {kernel, seed, insts, config-digest}` and executed once each
//! across a scoped-thread pool; repeated requests (the shared perfect-TLB
//! baseline, reference-interpreter miss counts, budget probes) are cache
//! hits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod micro;
pub mod report;
pub mod runner;

use smtx_core::{Checkpoint, ExnMechanism, LimitKnobs, Machine, MachineConfig};
use smtx_workloads::{kernel_reference, load_kernel, Kernel};

pub use experiment::{penalty_table, penalty_table_for, Experiment};
pub use report::Report;
pub use runner::{Job, MixKey, RunKey, Runner};

/// Default per-thread instruction budget for experiment binaries.
pub const DEFAULT_INSTS: u64 = 300_000;

/// Safety cap on simulated cycles per run (generous — worst realistic IPC
/// in the suite is ~0.05 under a deep traditional-trap configuration; a
/// run that exceeds this is wedged, and the caller's assert reports it).
pub const MAX_CYCLES: u64 = 1 << 31;

/// A budget-proportional cycle cap: 500 cycles per instruction, at least
/// 10M. Lets a wedged simulation fail fast instead of spinning to
/// [`MAX_CYCLES`].
#[must_use]
pub fn cycle_cap(insts: u64) -> u64 {
    insts.saturating_mul(500).max(10_000_000)
}

/// Deterministic epoch length for a measured window of `insts`
/// instructions: the window splits into at most 16 epochs, but never
/// shorter than 5000 instructions (below that the per-epoch cold restart
/// would dominate what the window measures). Detailed measurements
/// install this schedule via [`epoch_schedule`] through
/// `Machine::set_epoch_len`: every epoch boundary flushes the machine to
/// the state a fresh restore from a functional checkpoint there would
/// have. The resets are part of today's model and change rows, so they
/// stay until a reset-free model replaces them.
#[must_use]
pub fn epoch_len(insts: u64) -> u64 {
    insts.div_ceil(16).max(5_000)
}

/// Smallest measured window that installs the epoch-reset schedule: two
/// whole epochs at the 5000-instruction floor. A shorter window would
/// reset at most once, paying a cold restart (drained pipeline, cold
/// caches, cold predictors) for nothing, so it runs reset-free.
pub const EPOCH_MIN_WINDOW: u64 = 2 * 5_000;

/// The epoch schedule a measured window of `insts` instructions actually
/// installs: [`epoch_len`]`(insts)` when the window spans at least
/// [`EPOCH_MIN_WINDOW`] instructions, `None` (no resets) below that. Every
/// production path — `run_kernel`, the memoized runner, the reference-miss
/// denominator — derives its schedule from this one function of `insts`,
/// which keeps the detailed machine and the arch-miss reference in
/// lockstep and keeps `RunKey` (which does not encode the schedule) a
/// complete cache key.
#[must_use]
pub fn epoch_schedule(insts: u64) -> Option<u64> {
    (insts >= EPOCH_MIN_WINDOW).then(|| epoch_len(insts))
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cycles to retire the budget.
    pub cycles: u64,
    /// User instructions retired (sum over app threads).
    pub retired: u64,
    /// Workload-intrinsic (architectural) TLB misses over the same
    /// instruction window.
    pub arch_misses: u64,
    /// Machine statistics snapshot.
    pub stats: smtx_core::Stats,
}

impl RunResult {
    /// User IPC of the run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles as f64
    }
}

/// Runs `kernel` for `insts` user instructions under `config`.
///
/// # Panics
///
/// Panics if the machine fails to retire the budget within [`MAX_CYCLES`].
#[must_use]
pub fn run_kernel(kernel: Kernel, seed: u64, insts: u64, config: MachineConfig) -> RunResult {
    let mut m = Machine::new(config);
    load_kernel(&mut m, 0, kernel, seed);
    m.set_epoch_len(epoch_schedule(insts));
    m.set_budget(0, insts);
    m.run(cycle_cap(insts));
    let stats = m.stats().clone();
    assert_eq!(stats.retired(0), insts, "{} did not finish", kernel.name());
    let arch_misses = arch_misses(kernel, seed, insts);
    RunResult { cycles: stats.cycles, retired: insts, arch_misses, stats }
}

/// Architectural miss count for `kernel` over `insts` instructions
/// (reference-interpreter DTLB, mechanism-independent denominator), under
/// the same [`epoch_schedule`] renewal schedule the detailed machine uses.
/// A kernel that halts inside the window counts the misses up to its halt.
///
/// # Panics
///
/// Panics if the kernel faults.
#[must_use]
pub fn arch_misses(kernel: Kernel, seed: u64, insts: u64) -> u64 {
    let mut world = kernel_reference(kernel, seed);
    world
        .interp
        .run_window(&mut world.pm, &mut world.space, insts, epoch_schedule(insts))
        .expect("reference program runs clean");
    world.interp.dtlb_misses()
}

/// The canonical capture machine: loading a kernel is config-independent,
/// so checkpoints are always captured on the paper baseline and restored
/// into whatever configuration a sweep asks for.
fn capture_machine(threads: usize) -> Machine {
    Machine::new(MachineConfig::paper_baseline(ExnMechanism::PerfectTlb).with_threads(threads))
}

/// Builds the tier-1 fast-forward checkpoint for one kernel: load it
/// exactly as a measured run would, then run the functional interpreter for
/// `skip` instructions.
///
/// # Panics
///
/// Panics if the kernel faults or halts inside the fast-forward.
#[must_use]
pub fn make_checkpoint(kernel: Kernel, seed: u64, skip: u64) -> Checkpoint {
    let mut m = capture_machine(2);
    load_kernel(&mut m, 0, kernel, seed);
    Checkpoint::capture(&m, skip)
        .unwrap_or_else(|e| panic!("{} fast-forward failed: {e}", kernel.name()))
}

/// Builds the fast-forward checkpoint for a Fig. 7 mix (three kernels on
/// threads 0–2, thread `tid` seeded with `seed + tid`).
///
/// # Panics
///
/// Panics if any kernel faults or halts inside the fast-forward.
#[must_use]
pub fn make_mix_checkpoint(mix: [Kernel; 3], seed: u64, skip: u64) -> Checkpoint {
    let mut m = capture_machine(4);
    for (tid, &k) in mix.iter().enumerate() {
        load_kernel(&mut m, tid, k, seed + tid as u64);
    }
    Checkpoint::capture(&m, skip)
        .unwrap_or_else(|e| panic!("{mix:?} fast-forward failed: {e}"))
}

/// Restores `ck` into a fresh machine under `config` and measures `insts`
/// user instructions on thread 0 (the uncached single-kernel path, the
/// reference the runner's rows are tested against; [`Runner`] has a
/// memoized equivalent).
///
/// # Panics
///
/// Panics if the machine fails to retire the budget within the cycle cap.
#[must_use]
pub fn run_restored(
    ck: &Checkpoint,
    insts: u64,
    config: MachineConfig,
    idle_skip: bool,
) -> RunResult {
    let mut m = Machine::new(config);
    m.set_idle_skip(idle_skip);
    m.restore(ck);
    m.set_epoch_len(epoch_schedule(insts));
    m.set_budget(0, insts);
    m.run(cycle_cap(insts));
    let stats = m.stats().clone();
    assert_eq!(stats.retired(0), insts, "restored run did not finish");
    let arch_misses = ck.arch_misses_in_window(0, insts, epoch_schedule(insts));
    RunResult { cycles: stats.cycles, retired: insts, arch_misses, stats }
}

/// Minimum misses a penalty-per-miss measurement should average over; with
/// fewer, cold-start effects (first touches, cold caches, cold PTEs)
/// dominate the per-miss numbers.
pub const MIN_MISSES: u64 = 60;

/// The budget-probe length miss density is sampled over.
#[must_use]
pub fn probe_insts(base_insts: u64) -> u64 {
    50_000.min(base_insts.max(1))
}

/// Scales `base_insts` so a measurement averages over at least
/// [`MIN_MISSES`] misses, given `misses` observed over `probe`
/// instructions. Shared by every budget path — the memoized runner, the
/// free [`insts_for`], and the uncached fast-forward reference — so
/// they always agree on the per-kernel budget.
#[must_use]
pub fn scale_budget(misses: u64, probe: u64, base_insts: u64) -> u64 {
    let density = misses.max(1) as f64 / probe as f64;
    let needed = (MIN_MISSES as f64 / density).ceil() as u64;
    base_insts.max(needed)
}

/// Scales the requested budget up for low-miss-density kernels so every
/// measurement averages over at least [`MIN_MISSES`] misses (the paper's
/// 100M-instruction runs did this implicitly). Assembled programs ignore
/// `base_insts`: their budget is their exact retired count to `HALT`,
/// so the detailed machine finishes the window precisely at the halt.
#[must_use]
pub fn insts_for(kernel: Kernel, seed: u64, base_insts: u64) -> u64 {
    if let Some(halt) = kernel.halting_insts() {
        return halt;
    }
    let probe = probe_insts(base_insts);
    scale_budget(arch_misses(kernel, seed, probe), probe, base_insts)
}

/// Assembles and registers each `--program` file as an `asm:<stem>`
/// kernel, returning the handles in argv order (see
/// [`smtx_workloads::register_asm`]). Experiments call this before
/// touching their kernel lists so `asm:` names resolve.
///
/// # Errors
///
/// Returns the first assembly or registration diagnostic, prefixed with
/// the offending path.
pub fn load_programs(args: &Args) -> Result<Vec<Kernel>, String> {
    args.programs
        .iter()
        .map(|p| smtx_workloads::register_asm(smtx_asm::assemble_file(p)?))
        .collect()
}

/// The paper's §3 metric: `(cycles(mechanism) − cycles(perfect)) / misses`,
/// with the baseline built by [`runner::perfect_of`].
#[must_use]
pub fn penalty_per_miss(
    kernel: Kernel,
    seed: u64,
    insts: u64,
    config: &MachineConfig,
) -> f64 {
    let run = run_kernel(kernel, seed, insts, config.clone());
    let perfect = run_kernel(kernel, seed, insts, runner::perfect_of(config));
    (run.cycles as f64 - perfect.cycles as f64) / run.arch_misses.max(1) as f64
}

/// Builds the paper-baseline config for a mechanism with `idle` spare
/// contexts (the paper's multithreaded(1) = 2 contexts, multithreaded(3) =
/// 4 contexts).
#[must_use]
pub fn config_with_idle(mechanism: ExnMechanism, idle: usize) -> MachineConfig {
    MachineConfig::paper_baseline(mechanism).with_threads(1 + idle)
}

/// Applies one named limit-study knob set (paper Table 3 rows).
#[must_use]
pub fn limit_config(knobs: LimitKnobs) -> MachineConfig {
    config_with_idle(ExnMechanism::Multithreaded, 3).with_limits(knobs)
}

/// Parsed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Per-thread instruction budget (`--insts`, default 300k).
    pub insts: u64,
    /// Workload seed (`--seed`, default 42).
    pub seed: u64,
    /// Worker-pool size (`--jobs`, default 0 = all available cores).
    pub jobs: usize,
    /// Tier-1 functional fast-forward length in instructions per thread
    /// (`--skip`, default 0 = measure from instruction zero).
    pub skip: u64,
    /// Always `true`; no flag sets it. Kept only because the `perfbench`
    /// harness still passes it to `Runner::with_checkpoint_cache`.
    #[doc(hidden)]
    pub checkpoint: bool,
    /// Always `true`; no flag sets it. Kept only because the `perfbench`
    /// harness still passes it to `Runner::with_idle_skip`.
    #[doc(hidden)]
    pub idle_skip: bool,
    /// Always 1; no flag sets it. Kept only because the `perfbench`
    /// harness still passes it to `Runner::with_intervals`.
    #[doc(hidden)]
    pub intervals: u64,
    /// The `--check on|off` pipeline sanitizer (default off): every
    /// simulated machine runs the lockstep architectural oracle and the
    /// per-cycle structural invariants. Observation-only — rows stay
    /// bit-identical — but any violation aborts the experiment.
    pub check: bool,
    /// Machine-readable report destination (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
    /// Binary trace capture destination (`--trace PATH`): every uniquely
    /// computed simulation appends its cycle-level event segment (see
    /// `smtx-trace`). Observation-only — rows stay bit-identical.
    pub trace: Option<std::path::PathBuf>,
    /// Assembled programs to load as workloads (`--program FILE.s`,
    /// repeatable): each file is assembled with `smtx-asm` and registered
    /// as an `asm:<stem>` kernel before the experiment runs (see
    /// [`load_programs`]).
    pub programs: Vec<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            insts: DEFAULT_INSTS,
            seed: 42,
            jobs: 0,
            skip: 0,
            checkpoint: true,
            idle_skip: true,
            intervals: 1,
            check: false,
            json: None,
            trace: None,
            programs: Vec::new(),
        }
    }
}

/// Parses the experiment flags from argv: `--insts N`, `--seed N`,
/// `--jobs N`, `--skip N`, `--check on|off`, `--json PATH`, `--trace PATH`
/// and `--program FILE.s` (repeatable).
/// Unknown or malformed arguments abort with a usage
/// message — a silently ignored typo (`--inst 500000`) would otherwise run
/// the full default-budget experiment and report it as the requested one.
#[must_use]
pub fn parse_args() -> Args {
    match parse_arg_list(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: <experiment> [--insts N] [--seed N] [--jobs N] [--skip N] \
                 [--check on|off] [--json PATH] [--trace PATH] [--program FILE.s]..."
            );
            std::process::exit(2);
        }
    }
}

/// Testable core of [`parse_args`].
pub fn parse_arg_list<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--insts" => {
                args.insts = value_for("--insts")?
                    .parse()
                    .map_err(|e| format!("--insts: {e}"))?;
            }
            "--seed" => {
                args.seed = value_for("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                args.jobs = value_for("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--skip" => {
                args.skip = value_for("--skip")?
                    .parse()
                    .map_err(|e| format!("--skip: {e}"))?;
            }
            "--check" => {
                args.check = parse_on_off("--check", &value_for("--check")?)?;
            }
            "--json" => {
                args.json = Some(value_for("--json")?.into());
            }
            "--trace" => {
                args.trace = Some(value_for("--trace")?.into());
            }
            "--program" => {
                args.programs.push(value_for("--program")?.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn parse_on_off(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{flag}: expected `on` or `off`, got `{other}`")),
    }
}

/// Formats a row of `f64` cells after a left-justified label.
#[must_use]
pub fn row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<12}");
    for c in cells {
        s.push_str(&format!(" {c:>10.2}"));
    }
    s
}

/// Formats the header matching [`row`].
#[must_use]
pub fn header(label: &str, cols: &[&str]) -> String {
    let mut s = format!("{label:<12}");
    for c in cols {
        s.push_str(&format!(" {c:>10}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_metric_is_positive_for_traditional_compress() {
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let p = penalty_per_miss(Kernel::Compress, 42, 20_000, &cfg);
        assert!(p > 0.0, "traditional handling must cost cycles (got {p})");
    }

    #[test]
    fn arg_row_formatting() {
        let h = header("bench", &["a", "b"]);
        let r = row("cmp", &[1.5, 2.25]);
        assert!(h.starts_with("bench"));
        assert!(r.contains("1.50") && r.contains("2.25"));
    }

    #[test]
    fn parse_arg_list_accepts_all_flags() {
        let argv = [
            "--insts", "5000", "--seed", "7", "--jobs", "3", "--skip", "20000",
            "--check", "on", "--json", "out.json", "--trace", "out.bin",
            "--program", "a.s", "--program", "b.s",
        ]
        .iter()
        .map(|s| s.to_string());
        let args = parse_arg_list(argv).unwrap();
        assert_eq!(args.insts, 5_000);
        assert_eq!(args.seed, 7);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.skip, 20_000);
        assert!(args.check);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(args.trace.as_deref(), Some(std::path::Path::new("out.bin")));
        assert_eq!(args.programs, [std::path::PathBuf::from("a.s"), "b.s".into()]);
        assert_eq!(
            (args.checkpoint, args.idle_skip, args.intervals),
            (true, true, 1),
            "the hidden stubs keep their fixed values"
        );
    }

    #[test]
    fn defaults_measure_from_instruction_zero_unchecked() {
        let args = parse_arg_list(std::iter::empty::<String>()).unwrap();
        assert_eq!(args.skip, 0);
        assert!(!args.check, "the sanitizer is opt-in");
    }

    #[test]
    fn parse_arg_list_rejects_unknown_and_malformed_flags() {
        assert!(parse_arg_list(["--inst".to_string(), "5".to_string()])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_arg_list(["--insts".to_string()])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_arg_list(["--jobs".to_string(), "x".to_string()])
            .unwrap_err()
            .contains("--jobs"));
        assert!(parse_arg_list(["--check".to_string(), "maybe".to_string()])
            .unwrap_err()
            .contains("expected `on` or `off`"));
    }

    #[test]
    fn removed_scheduling_flags_are_unknown_arguments() {
        for flag in ["--checkpoint", "--idle-skip"] {
            for value in ["on", "off"] {
                assert_eq!(
                    parse_arg_list([flag.to_string(), value.to_string()]).unwrap_err(),
                    format!("unknown argument `{flag}`")
                );
            }
        }
    }

    #[test]
    fn short_windows_get_no_epoch_schedule() {
        assert_eq!(epoch_schedule(EPOCH_MIN_WINDOW - 1), None);
        assert_eq!(epoch_schedule(EPOCH_MIN_WINDOW), Some(5_000));
        assert_eq!(epoch_schedule(96_000), Some(6_000), "at most 16 epochs per window");
        assert_eq!(epoch_schedule(20_000), Some(5_000), "never shorter than 5000");
    }
}
