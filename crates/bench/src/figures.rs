//! Every experiment of the paper's evaluation as a library function.
//!
//! Each `fig*`/`table*` binary used to own its experiment body; `smtxd`
//! (the simulation service) needs to run the same experiments against a
//! shared [`crate::Runner`], so the bodies live here and both callers go
//! through one code path. A binary runs `figures::fig5(&mut exp)` on a
//! fresh [`Experiment`]; the daemon runs the same function on a quiet
//! [`Experiment`] built over its long-lived runner — which is why a served
//! row is byte-identical to the row the binary prints: it *is* the same
//! computation, formatted by the same serializer.

use smtx_core::{ExnMechanism, LimitKnobs, MachineConfig};
use smtx_workloads::{Kernel, MIXES};

use crate::runner::perfect_of;
use crate::{config_with_idle, header, limit_config, penalty_table, Args, Experiment, Job, Runner};

/// Names of every experiment runnable by name, in the paper's order.
/// `fig5_asm` is ours: the Fig. 5 mechanism comparison over real programs
/// assembled from `asm/*.s` instead of the synthetic kernels.
pub const ALL: [&str; 9] =
    ["fig2", "fig3", "fig5", "fig5_asm", "fig6", "fig7", "table2", "table3", "table4"];

/// Runs the experiment called `name` on `exp`. Returns `false` for an
/// unknown name (the service turns that into a 400; binaries never hit it).
pub fn run_named(name: &str, exp: &mut Experiment) -> bool {
    match name {
        "fig2" => fig2(exp),
        "fig3" => fig3(exp),
        "fig5" => fig5(exp),
        // A served job with no resolvable corpus reports an empty table.
        "fig5_asm" => {
            let _ = fig5_asm(exp);
        }
        "fig6" => fig6(exp),
        "fig7" => fig7(exp),
        "table2" => table2(exp),
        "table3" => table3(exp),
        "table4" => table4(exp),
        _ => return false,
    }
    true
}

/// Figure 2: overhead of traditional software TLB-miss handling as a
/// function of pipeline length (3, 7, 11 stages between fetch and
/// execute), 8-wide machine.
pub fn fig2(exp: &mut Experiment) {
    exp.banner(&[
        "Figure 2 — traditional-handler penalty cycles per miss vs. pipeline depth",
        "paper: slope ~2 penalty cycles per pipe stage (two refills per trap)",
    ]);
    let configs = [
        (
            "3 stages",
            config_with_idle(ExnMechanism::Traditional, 1).with_pipe_depth(3),
        ),
        (
            "7 stages",
            config_with_idle(ExnMechanism::Traditional, 1).with_pipe_depth(7),
        ),
        (
            "11 stages",
            config_with_idle(ExnMechanism::Traditional, 1).with_pipe_depth(11),
        ),
    ];
    let avg = penalty_table(exp, &configs);
    let slope = (avg[2] - avg[0]) / 8.0;
    exp.println(&format!(
        "\nmeasured average slope: {slope:.2} penalty cycles per pipe stage"
    ));
}

fn width_config(width: usize, window: usize) -> MachineConfig {
    config_with_idle(ExnMechanism::Traditional, 1).with_width_window(width, window)
}

fn tlb_fraction(runner: &Runner, k: Kernel, seed: u64, insts: u64, w: usize, win: usize) -> f64 {
    let cfg = width_config(w, win);
    let run = runner.run(k, seed, insts, &cfg);
    let base = runner.run(k, seed, insts, &perfect_of(&cfg));
    (run.cycles as f64 - base.cycles as f64) / run.cycles as f64
}

/// Figure 3: relative share of execution time spent on traditional
/// TLB-miss handling as a function of superscalar width (2-wide/32,
/// 4-wide/64, 8-wide/128), normalized to the 2-wide machine.
pub fn fig3(exp: &mut Experiment) {
    exp.banner(&[
        "Figure 3 — relative TLB execution percentage vs. superscalar width",
        "paper: wider machines spend a larger share of time on TLB handling",
        "values are normalized to the 2-wide machine (2-wide = 1.0)",
    ]);
    let sweep = [(2usize, 32usize), (4, 64), (8, 128)];
    exp.println(&header("bench", &["2w/32", "4w/64", "8w/128"]));

    let (seed, insts) = (exp.args.seed, exp.args.insts);
    let budgets = exp.runner.insts_map(&Kernel::ALL, seed, insts);
    let mut jobs = Vec::new();
    for (&k, &insts) in Kernel::ALL.iter().zip(&budgets) {
        jobs.push(Job::Ref { kernel: k, seed, insts });
        for &(w, win) in &sweep {
            let cfg = width_config(w, win);
            jobs.push(Job::Sim { kernel: k, seed, insts, config: perfect_of(&cfg) });
            jobs.push(Job::Sim { kernel: k, seed, insts, config: cfg });
        }
    }
    exp.runner.prefetch(jobs);

    exp.report.columns = vec!["2w/32".into(), "4w/64".into(), "8w/128".into()];
    let mut sums = vec![0.0; sweep.len()];
    for (&k, &insts) in Kernel::ALL.iter().zip(&budgets) {
        let fracs: Vec<f64> = sweep
            .iter()
            .map(|&(w, win)| tlb_fraction(&exp.runner, k, seed, insts, w, win))
            .collect();
        let base = fracs[0].max(1e-9);
        let cells: Vec<f64> = fracs.iter().map(|f| f / base).collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        exp.emit_row(k.name(), &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / Kernel::ALL.len() as f64).collect();
    exp.emit_row("average", &avg);
}

/// Figure 5: penalty cycles per TLB miss for the traditional software
/// handler, multithreaded(1), multithreaded(3) and the hardware walker.
pub fn fig5(exp: &mut Experiment) {
    exp.banner(&[
        "Figure 5 — relative TLB miss performance (penalty cycles per miss)",
        "paper averages: traditional 22.7, multi(1) 11.7, multi(3) 11.0, hardware 7.3",
    ]);
    let configs = [
        ("traditional", config_with_idle(ExnMechanism::Traditional, 1)),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ];
    penalty_table(exp, &configs);
}

/// Resolves the assembled-program corpus for [`fig5_asm`]: `--program`
/// files first, then whatever `asm:*` kernels are already registered (the
/// service loads them at startup via `--asm DIR`), then the repo-root
/// `asm/` directory as the binary-from-checkout default.
fn asm_corpus(args: &Args) -> Result<Vec<Kernel>, String> {
    if !crate::load_programs(args)?.is_empty() {
        return Ok(smtx_workloads::asm_kernels());
    }
    let registered = smtx_workloads::asm_kernels();
    if !registered.is_empty() {
        return Ok(registered);
    }
    smtx_workloads::load_asm_dir(std::path::Path::new("asm"))
        .map_err(|e| format!("{e} (pass --program FILE.s or run from the repo root)"))
}

/// Figure 5 over assembled programs: the same mechanism comparison as
/// [`fig5`], but each row is a real program from `asm/*.s` run to `HALT`
/// under its exact halting budget (the `--insts` budget is ignored).
///
/// # Errors
///
/// Returns the first assembly diagnostic (`path:line:col: msg`), or the
/// reason no corpus was found, before printing or recording anything.
pub fn fig5_asm(exp: &mut Experiment) -> Result<(), String> {
    let kernels = asm_corpus(&exp.args)?;
    exp.banner(&[
        "Figure 5 (asm) — penalty cycles per miss, assembled real programs",
        "rows are asm/*.s programs run to HALT under exact halting budgets",
    ]);
    let configs = [
        ("traditional", config_with_idle(ExnMechanism::Traditional, 1)),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ];
    crate::penalty_table_for(exp, &kernels, &configs);
    Ok(())
}

/// Figure 6: performance of the quick-starting multithreaded handler.
pub fn fig6(exp: &mut Experiment) {
    exp.banner(&[
        "Figure 6 — quick-starting multithreaded handler (penalty cycles per miss)",
        "paper: quick-start improves on multithreaded by ~1.7 cycles/miss on average",
    ]);
    let configs = [
        ("traditional", config_with_idle(ExnMechanism::Traditional, 1)),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("quick(1)", config_with_idle(ExnMechanism::QuickStart, 1)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ];
    let avg = penalty_table(exp, &configs);
    exp.println(&format!(
        "\nquick-start improvement over multithreaded: {:.2} cycles/miss",
        avg[1] - avg[2]
    ));
}

fn mix_config(mechanism: ExnMechanism) -> MachineConfig {
    MachineConfig::paper_baseline(mechanism).with_threads(4)
}

/// Figure 7: average TLB-miss penalties with three application threads
/// plus one idle context, across the paper's eight benchmark mixes.
pub fn fig7(exp: &mut Experiment) {
    exp.banner(&[
        "Figure 7 — TLB miss penalties with 3 applications on the SMT (+1 idle)",
        "paper: multithreaded reduces the average penalty ~25%, quick-start ~30%",
    ]);
    let mechs = [
        ("traditional", ExnMechanism::Traditional),
        ("multi(1)", ExnMechanism::Multithreaded),
        ("quick(1)", ExnMechanism::QuickStart),
        ("hardware", ExnMechanism::Hardware),
    ];
    exp.println(&header("mix", &mechs.iter().map(|(n, _)| *n).collect::<Vec<_>>()));

    let (seed, insts) = (exp.args.seed, exp.args.insts);
    let mut jobs = Vec::new();
    for mix in MIXES {
        for (tid, &k) in mix.iter().enumerate() {
            jobs.push(Job::Ref { kernel: k, seed: seed + tid as u64, insts });
        }
        jobs.push(Job::Mix { mix, seed, insts, config: mix_config(ExnMechanism::PerfectTlb) });
        for &(_, mech) in &mechs {
            jobs.push(Job::Mix { mix, seed, insts, config: mix_config(mech) });
        }
    }
    exp.runner.prefetch(jobs);

    exp.report.columns = mechs.iter().map(|(n, _)| n.to_string()).collect();
    let mut sums = vec![0.0; mechs.len()];
    for mix in MIXES {
        let label: String = mix.iter().map(|k| k.tag()).collect::<Vec<_>>().join("-");
        let perfect = exp.runner.run_mix(mix, seed, insts, &mix_config(ExnMechanism::PerfectTlb));
        let misses = exp.runner.mix_arch_misses(mix, seed, insts).max(1);
        let cells: Vec<f64> = mechs
            .iter()
            .map(|&(_, mech)| {
                let cycles = exp.runner.run_mix(mix, seed, insts, &mix_config(mech));
                (cycles as f64 - perfect as f64) / misses as f64
            })
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        exp.emit_row(&label, &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / MIXES.len() as f64).collect();
    exp.emit_row("average", &avg);
    exp.println(&format!(
        "\nreduction vs traditional: multi {:.0}%, quick-start {:.0}%",
        (1.0 - avg[1] / avg[0]) * 100.0,
        (1.0 - avg[2] / avg[0]) * 100.0
    ));
}

/// Table 2: the benchmark inventory — our kernels' realized TLB-miss
/// densities next to the paper's published counts.
pub fn table2(exp: &mut Experiment) {
    exp.banner(&[
        "Table 2 — benchmark suite: realized vs. paper TLB-miss density",
        "(misses per 100M instructions; reference-interpreter DTLB, 64 entries)",
    ]);
    exp.println(&format!(
        "{:<12} {:>16} {:>16} {:>8}",
        "bench", "paper/100M", "ours/100M", "ratio"
    ));

    let (seed, insts) = (exp.args.seed, exp.args.insts);
    exp.runner.prefetch(
        Kernel::ALL
            .iter()
            .map(|&k| Job::Ref { kernel: k, seed, insts })
            .collect(),
    );

    exp.report.columns = vec!["paper/100M".into(), "ours/100M".into(), "ratio".into()];
    for k in Kernel::ALL {
        // Kernels always run to their full budget, so the realized density
        // is the window's misses per retired instruction, scaled to a
        // 100M-instruction window.
        let misses = exp.runner.arch_misses(k, seed, insts);
        let ours = misses as f64 * 1000.0 / insts as f64 * 100_000.0;
        let paper = k.paper_misses_per_100m() as f64;
        exp.println(&format!(
            "{:<12} {:>16.0} {:>16.0} {:>8.2}",
            k.name(),
            paper,
            ours,
            ours / paper
        ));
        exp.report.push_row(k.name(), &[paper, ours, ours / paper]);
    }
}

/// Table 3: limit studies — average penalty cycles per miss with each
/// overhead of the multithreaded mechanism removed in turn.
pub fn table3(exp: &mut Experiment) {
    exp.banner(&[
        "Table 3 — limit studies (average penalty cycles per miss)",
        "paper: traditional 22.4, multi 11.0, -exec-bw 10.7, -window 10.5,",
        "       -fetch/decode-bw 10.2, instant-fetch 8.5, hardware 7.1",
    ]);

    let rows: Vec<(&str, MachineConfig)> = vec![
        ("Traditional Software", config_with_idle(ExnMechanism::Traditional, 3)),
        ("Multithreaded", config_with_idle(ExnMechanism::Multithreaded, 3)),
        (
            "Multi w/o execute bandwidth overhead",
            limit_config(LimitKnobs { free_execute_bandwidth: true, ..Default::default() }),
        ),
        (
            "Multi w/o window overhead",
            limit_config(LimitKnobs { free_window: true, ..Default::default() }),
        ),
        (
            "Multi w/o fetch/decode bandwidth overhead",
            limit_config(LimitKnobs { free_fetch_bandwidth: true, ..Default::default() }),
        ),
        (
            "Multi w/ instant handler fetch/decode",
            limit_config(LimitKnobs { instant_handler_fetch: true, ..Default::default() }),
        ),
        ("Hardware TLB miss handler", config_with_idle(ExnMechanism::Hardware, 3)),
    ];

    let seed = exp.args.seed;
    let budgets = exp.runner.insts_map(&Kernel::ALL, seed, exp.args.insts);
    let mut jobs = Vec::new();
    for (&k, &insts) in Kernel::ALL.iter().zip(&budgets) {
        jobs.push(Job::Ref { kernel: k, seed, insts });
        for (_, cfg) in &rows {
            jobs.push(Job::Sim { kernel: k, seed, insts, config: cfg.clone() });
            jobs.push(Job::Sim { kernel: k, seed, insts, config: perfect_of(cfg) });
        }
    }
    exp.runner.prefetch(jobs);

    exp.report.columns = vec!["penalty/miss".into()];
    exp.println(&format!("{:<44} {:>12}", "Configuration", "Penalty/Miss"));
    for (name, cfg) in rows {
        let avg: f64 = Kernel::ALL
            .iter()
            .zip(&budgets)
            .map(|(&k, &insts)| exp.runner.penalty_per_miss(k, seed, insts, &cfg))
            .sum::<f64>()
            / Kernel::ALL.len() as f64;
        exp.println(&format!("{name:<44} {avg:>12.2}"));
        exp.report.push_row(name, &[avg]);
    }
}

/// Table 4: speedups over the traditional software handler for
/// Perfect / Hardware / Multi(1) / Multi(3) / Quick(1) / Quick(3), plus
/// each benchmark's TLB-miss density and base IPC.
pub fn table4(exp: &mut Experiment) {
    exp.banner(&["Table 4 — speedups over traditional software handling"]);
    exp.println(&format!(
        "{:<10} {:>8} {:>12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "bench", "baseIPC", "misses/100M", "Perfect", "H/W", "Multi(1)", "Multi(3)", "Quick(1)", "Quick(3)"
    ));
    // The "Perfect" column is the canonical perfect-TLB baseline, the same
    // run every other figure's perfect cell uses.
    let base_cfg = config_with_idle(ExnMechanism::Traditional, 1);
    let perfect_cfg = perfect_of(&base_cfg);
    let columns = [
        perfect_cfg.clone(),
        config_with_idle(ExnMechanism::Hardware, 1),
        config_with_idle(ExnMechanism::Multithreaded, 1),
        config_with_idle(ExnMechanism::Multithreaded, 3),
        config_with_idle(ExnMechanism::QuickStart, 1),
        config_with_idle(ExnMechanism::QuickStart, 3),
    ];

    let seed = exp.args.seed;
    let budgets = exp.runner.insts_map(&Kernel::ALL, seed, exp.args.insts);
    let mut jobs = Vec::new();
    for (&k, &insts) in Kernel::ALL.iter().zip(&budgets) {
        jobs.push(Job::Ref { kernel: k, seed, insts });
        jobs.push(Job::Sim { kernel: k, seed, insts, config: base_cfg.clone() });
        for cfg in &columns {
            jobs.push(Job::Sim { kernel: k, seed, insts, config: cfg.clone() });
        }
    }
    exp.runner.prefetch(jobs);

    exp.report.columns = vec![
        "baseIPC".into(),
        "misses/100M".into(),
        "Perfect".into(),
        "H/W".into(),
        "Multi(1)".into(),
        "Multi(3)".into(),
        "Quick(1)".into(),
        "Quick(3)".into(),
    ];
    for (&k, &insts) in Kernel::ALL.iter().zip(&budgets) {
        let base = exp.runner.run(k, seed, insts, &base_cfg);
        let misses_per_100m = base.arch_misses as f64 * 100.0e6 / insts as f64;
        let mut cells = Vec::new();
        for cfg in &columns {
            let run = exp.runner.run(k, seed, insts, cfg);
            let speedup = (base.cycles as f64 / run.cycles as f64 - 1.0) * 100.0;
            cells.push(speedup);
        }
        let perfect = exp.runner.run(k, seed, insts, &perfect_cfg);
        exp.println(&format!(
            "{:<10} {:>8.1} {:>12.0} {:>8.1}% {:>7.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            k.name(),
            perfect.ipc(),
            misses_per_100m,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
        ));
        let mut row_cells = vec![perfect.ipc(), misses_per_100m];
        row_cells.extend_from_slice(&cells);
        exp.report.push_row(k.name(), &row_cells);
    }
    exp.println("\npaper (for scale): compress 12.9/9.0/6.8/7.3/7.8/8.4%, vortex 9.6/7.1/4.8/5.3/5.7/6.3%");
    exp.println("paper base IPC: adm 4.3, apl 2.6, cmp 2.6, dbl 2.2, gcc 2.8, h2d 1.3, mph 3.9, vor 4.9");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;

    #[test]
    fn run_named_rejects_unknown_and_covers_all() {
        let args = Args { insts: 10, ..Args::default() };
        let mut exp = Experiment::with_args("nope", args).quiet();
        assert!(!run_named("nope", &mut exp), "unknown experiment rejected");
        assert!(ALL.contains(&"fig5") && ALL.contains(&"fig5_asm") && ALL.len() == 9);
    }

    #[test]
    fn quiet_run_matches_verbose_report_rows() {
        let args = Args { insts: 3_000, ..Args::default() };
        let mut a = Experiment::with_args("table2", args.clone()).quiet();
        table2(&mut a);
        let mut b = Experiment::with_args("table2", args).quiet();
        assert!(run_named("table2", &mut b));
        let (ra, rb) = (a.into_report(), b.into_report());
        assert_eq!(ra.rows_json(), rb.rows_json(), "same body, same rows");
        assert!(!ra.rows.is_empty());
    }
}
