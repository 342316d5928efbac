//! The `smtx-check` CLI: `cargo run -p smtx-check -- lint [--root PATH] [--json]`.
//!
//! Runs all nine rules over every `.rs` file under `<root>/crates/*/src`
//! and exits nonzero if any unsuppressed finding fires, printing one
//! `path:line: [rule] message` per finding (or a JSON array with
//! `--json`, which also includes `lint:allow`-suppressed findings with
//! their escape status).

use std::process::ExitCode;

const USAGE: &str = "usage: smtx-check lint [--root PATH] [--json]

Runs smtx-lint over every .rs file under <root>/crates/*/src (root
defaults to the current directory). Exits 1 if any rule fires.

token rules:
  no-unordered-iteration   no HashMap/HashSet in result-affecting paths
  no-wallclock-in-core     no Instant/SystemTime in simulated-time crates
  no-float-in-model        no f32/f64 in cycle-model state or stats
  no-silent-narrowing      no truncating `as` casts on counters
  no-unwrap-in-serve       no panics in the HTTP request-parsing path

interprocedural rules (crates/{core,bench,serve,fleet,util,asm}):
  lock-order               no cycles in the acquired-while-held graph
  no-lock-across-io        no lock class held across I/O, transitively
  no-blocking-in-reactor   event-loop callbacks must not block
  digest-taint             stepping-read config fields must be digested;
                           scheduling-only knobs must not be

Options:
  --json        machine-readable findings, including allowed ones

Escape hatch: `// lint:allow(rule-name): justification` on the offending
line, or on its own line immediately above (covers a following block).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = std::path::PathBuf::from(".");
    let mut json = false;
    let mut lint = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" => lint = true,
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = std::path::PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !lint {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let analysis = match smtx_check::lint_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smtx-check: {e}");
            return ExitCode::from(2);
        }
    };
    let errors = analysis.errors();
    if json {
        print!("{}", smtx_check::findings_to_json(&analysis.findings));
    } else {
        for v in &errors {
            println!("{v}");
        }
        if errors.is_empty() {
            println!("smtx-lint: {} files clean", analysis.files);
        } else {
            println!("smtx-lint: {} violation(s) in {} files", errors.len(), analysis.files);
        }
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
