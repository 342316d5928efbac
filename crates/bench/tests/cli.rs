//! Every experiment binary must reject unknown flags loudly — exit code 2
//! plus a usage string — never silently ignore them. A silently ignored
//! typo (`--inst 500000`) would run the full default-budget experiment and
//! report it as the requested one. The same goes for `fig5_asm`'s
//! programs: one that does not assemble must not yield an empty table.

use std::process::Command;

/// The nine experiment binaries (all share `smtx_bench::parse_args`).
const EXPERIMENT_BINS: [&str; 9] = [
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig5_asm"),
    env!("CARGO_BIN_EXE_fig6"),
    env!("CARGO_BIN_EXE_fig7"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| {
        panic!("cannot run {bin}: {e}");
    });
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn experiment_bins_reject_unknown_flags_with_exit_2_and_usage() {
    for bin in EXPERIMENT_BINS {
        for args in [&["--inst", "5000"][..], &["--bogus"][..], &["extra"][..]] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?} must exit 2, stderr: {stderr}");
            assert!(
                stderr.contains("usage:"),
                "{bin} {args:?} must print usage, got: {stderr}"
            );
            assert!(
                stderr.contains("error:"),
                "{bin} {args:?} must name the error, got: {stderr}"
            );
        }
    }
}

/// Checkpoint reuse and idle-cycle skipping are always on: only library
/// tests turn them off, so `--checkpoint` and `--idle-skip` are unknown
/// arguments and the usage line does not offer them.
#[test]
fn experiment_bins_reject_the_removed_scheduling_flags() {
    for bin in EXPERIMENT_BINS {
        for args in [["--checkpoint", "off"], ["--idle-skip", "off"]] {
            let (code, stderr) = run(bin, &args);
            assert_eq!(code, Some(2), "{bin} {args:?} must exit 2, stderr: {stderr}");
            assert!(
                stderr.contains(&format!("error: unknown argument `{}`", args[0])),
                "{bin} {args:?} must be named as unknown, got: {stderr}"
            );
            let usage = stderr.lines().find(|l| l.starts_with("usage:"));
            let usage = usage.unwrap_or_else(|| panic!("{bin} {args:?}: no usage in {stderr}"));
            assert!(
                !usage.contains("--checkpoint") && !usage.contains("--idle-skip"),
                "{bin}: usage still offers a removed flag: {usage}"
            );
        }
    }
}

#[test]
fn experiment_bins_reject_malformed_values_with_exit_2() {
    for bin in EXPERIMENT_BINS {
        let (code, stderr) = run(bin, &["--insts", "many"]);
        assert_eq!(code, Some(2), "{bin} --insts many must exit 2, stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        let (code, stderr) = run(bin, &["--seed"]);
        assert_eq!(code, Some(2), "{bin} dangling --seed must exit 2, stderr: {stderr}");
    }
}

#[test]
fn fig5_asm_rejects_bad_programs_with_exit_2_and_no_report() {
    let dir = std::env::temp_dir().join(format!("smtx-cli-fig5-asm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bogus = dir.join("bogus.s");
    std::fs::write(&bogus, "bogus r1\n").unwrap();
    let json = dir.join("report.json");
    let bin = env!("CARGO_BIN_EXE_fig5_asm");
    let json_args = ["--json", json.to_str().unwrap()];
    let cases: [(&[&str], String); 3] = [
        (&["--program", "/nonexistent.s"], "/nonexistent.s: ".to_string()),
        (&["--program", bogus.to_str().unwrap()], format!("{}:1:", bogus.display())),
        // No `--program` and no `asm/` beside the working directory.
        (&[], "asm: ".to_string()),
    ];
    for (args, diagnostic) in cases {
        let out = Command::new(bin)
            .args(args)
            .args(json_args)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {diagnostic}")),
            "{args:?} must name the diagnostic on stderr, got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout: {:?}", out.stdout);
        assert!(!json.exists(), "{args:?} must not write a --json report");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
