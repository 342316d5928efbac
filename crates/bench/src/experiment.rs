//! The shared experiment scaffold.
//!
//! Every experiment binary used to open with the same ten lines — parse
//! args, build a runner, start the wall clock, print the banner — and close
//! with the same five. [`Experiment`] owns that frame, and
//! [`penalty_table`] owns the whole body of the three penalty-per-miss
//! figures (2, 5, 6), which differ only in their configuration columns and
//! footers.

use std::sync::Arc;
use std::time::Instant;

use smtx_core::MachineConfig;
use smtx_workloads::Kernel;

use crate::runner::perfect_of;
use crate::{header, parse_args, row, Args, Job, Report, Runner};

/// One experiment's shared state: parsed arguments, the memoizing runner
/// (configured from the engine flags), the machine-readable report, and
/// the wall clock.
///
/// The runner is held through an [`Arc`] so a long-lived service (`smtxd`)
/// can run many experiments against *one* shared runner — every request
/// then hits the same result, reference and checkpoint caches. Binaries
/// simply own a fresh runner per process.
pub struct Experiment {
    /// Parsed command line.
    pub args: Args,
    /// The parallel memoizing executor (possibly shared across experiments).
    pub runner: Arc<Runner>,
    /// The `--json` report being accumulated.
    pub report: Report,
    quiet: bool,
    t0: Instant,
}

impl Experiment {
    /// Parses the process command line and builds the experiment frame.
    #[must_use]
    pub fn new(name: &str) -> Experiment {
        Experiment::with_args(name, parse_args())
    }

    /// Builds the frame from explicit arguments (tests drive this).
    #[must_use]
    pub fn with_args(name: &str, args: Args) -> Experiment {
        let runner = Arc::new(
            Runner::new(args.jobs)
                .with_skip(args.skip)
                .with_check(args.check)
                .with_trace(args.trace.clone()),
        );
        Experiment::on_runner(name, args, runner)
    }

    /// Builds the frame on an existing (shared) runner. The engine fields
    /// of the report are taken from the runner itself — the caller's `args`
    /// only supply the budget, seed and output destination — so a served
    /// report always describes the engine that actually produced it.
    #[must_use]
    pub fn on_runner(name: &str, mut args: Args, runner: Arc<Runner>) -> Experiment {
        args.jobs = runner.jobs();
        args.skip = runner.skip();
        args.check = runner.check();
        args.trace = runner.trace_path().map(std::path::Path::to_path_buf);
        let mut report = Report::new(name, args.insts, args.seed, runner.jobs());
        report.skip = args.skip;
        report.check = args.check;
        Experiment { args, runner, report, quiet: false, t0: Instant::now() }
    }

    /// Silences stdout: rows and banners are still recorded in the report,
    /// nothing is printed. The service frame runs every experiment quiet.
    #[must_use]
    pub fn quiet(mut self) -> Experiment {
        self.quiet = true;
        self
    }

    /// Prints `line` unless the experiment is quiet. All experiment output
    /// funnels through here so the served (quiet) path exercises exactly
    /// the code the binaries do, minus the terminal.
    pub fn println(&self, line: &str) {
        if !self.quiet {
            println!("{line}");
        }
    }

    /// Prints the experiment banner: the headline `lines`, the budget line,
    /// and — only when fast-forwarding — the skip line. The banner depends
    /// on nothing but `--insts` and `--skip`, so two runs differing only in
    /// `--jobs`, `--check` or `--trace` print byte-identical stdout.
    pub fn banner(&self, lines: &[&str]) {
        for line in lines {
            self.println(line);
        }
        self.println(&format!("per-thread instruction budget: {}", self.args.insts));
        if self.args.skip > 0 {
            self.println(&format!("functional fast-forward: {} instructions", self.args.skip));
        }
        self.println("");
    }

    /// Prints one table row and records it in the report.
    pub fn emit_row(&mut self, label: &str, cells: &[f64]) {
        self.println(&row(label, cells));
        self.report.push_row(label, cells);
    }

    /// Stops the wall clock, folds in the runner counters, and returns the
    /// finished report (the service frame serializes it as the job result).
    #[must_use]
    pub fn into_report(mut self) -> Report {
        self.report.wall = self.t0.elapsed();
        self.report.runner = self.runner.stats();
        self.report
    }

    /// Stops the wall clock, folds in the runner counters, and writes the
    /// `--json` report if one was requested.
    pub fn finish(self) {
        let json = self.args.json.clone();
        let report = self.into_report();
        if let Some(path) = &json {
            report.write(path);
        }
    }
}

/// The common body of the penalty-per-miss figures: print the header,
/// expand every `(kernel, column)` cell plus the shared perfect baselines
/// and reference runs into one prefetch batch, then print a
/// penalty-per-miss row per kernel and the per-column average. Returns the
/// averages for figure-specific footers.
pub fn penalty_table(exp: &mut Experiment, configs: &[(&str, MachineConfig)]) -> Vec<f64> {
    penalty_table_for(exp, &Kernel::ALL, configs)
}

/// [`penalty_table`] over an explicit kernel set — the assembled-program
/// figure reuses the exact Fig. 5 body over `asm:*` kernels instead of the
/// eight synthetic ones.
pub fn penalty_table_for(
    exp: &mut Experiment,
    kernels: &[Kernel],
    configs: &[(&str, MachineConfig)],
) -> Vec<f64> {
    exp.println(&header("bench", &configs.iter().map(|(n, _)| *n).collect::<Vec<_>>()));
    exp.report.columns = configs.iter().map(|(n, _)| n.to_string()).collect();
    let seed = exp.args.seed;
    let budgets = exp.runner.insts_map(kernels, seed, exp.args.insts);
    let mut jobs = Vec::new();
    for (&k, &insts) in kernels.iter().zip(&budgets) {
        jobs.push(Job::Ref { kernel: k, seed, insts });
        for (_, cfg) in configs {
            jobs.push(Job::Sim { kernel: k, seed, insts, config: cfg.clone() });
            jobs.push(Job::Sim { kernel: k, seed, insts, config: perfect_of(cfg) });
        }
    }
    exp.runner.prefetch(jobs);

    let mut sums = vec![0.0; configs.len()];
    for (&k, &insts) in kernels.iter().zip(&budgets) {
        let cells: Vec<f64> = configs
            .iter()
            .map(|(_, cfg)| exp.runner.penalty_per_miss(k, seed, insts, cfg))
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        exp.emit_row(k.name(), &cells);
    }
    let avg: Vec<f64> =
        sums.iter().map(|s| s / (kernels.len().max(1)) as f64).collect();
    exp.emit_row("average", &avg);
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_args_threads_engine_flags_through() {
        let args = Args {
            jobs: 3,
            skip: 1_000,
            check: true,
            trace: Some("probe.trace".into()),
            ..Args::default()
        };
        let exp = Experiment::with_args("probe", args);
        assert_eq!(exp.runner.jobs(), 3);
        assert_eq!(exp.report.jobs, 3);
        assert_eq!(exp.runner.skip(), 1_000);
        assert_eq!(exp.report.skip, 1_000);
        assert!(exp.report.check);
        assert!(exp.runner.check());
        assert_eq!(
            exp.runner.trace_path(),
            Some(std::path::Path::new("probe.trace")),
            "--trace threads through to the runner"
        );
        assert_eq!(exp.args.trace.as_deref(), Some(std::path::Path::new("probe.trace")));
    }
}
