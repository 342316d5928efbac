//! Differential lockdown for the assembled-program corpus (`asm/*.s`).
//!
//! Two layers, per the assembler issue:
//!
//! 1. **Machine vs. reference to completion** — every shipped program runs
//!    on the detailed cycle machine to its `HALT` under the main exception
//!    mechanisms, and the committed state (integer registers, FP registers,
//!    the full memory image) must equal the reference interpreter's.
//! 2. **Mode matrix** — a program's stats row must be *byte-identical*
//!    whether or not the runner checks against the reference (`--check`)
//!    or records a trace; and a fast-forwarded window (`--skip`) must land
//!    exactly on `HALT` with the same invariance under `--check`.

use std::path::Path;

use smtx::core::{ExnMechanism, Machine, MachineConfig};
use smtx::workloads::{kernel_reference, load_kernel, Kernel};
use smtx_bench::{config_with_idle, RunResult, Runner};

const SEED: u64 = 0; // assembled programs ignore the seed; fixed for cache keys

fn asm(name: &str) -> Kernel {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("asm");
    smtx::workloads::load_asm_dir(&dir).expect("corpus assembles and registers");
    Kernel::from_name(name).expect("registered")
}

fn halt_of(kernel: Kernel) -> u64 {
    kernel.halting_insts().expect("asm kernels halt")
}

/// Layer 1: run `kernel` on the detailed machine to its halting budget and
/// require bit-equal committed state against the reference interpreter.
fn check_at_halt(kernel: Kernel, mechanism: ExnMechanism, threads: usize) {
    let insts = halt_of(kernel);
    let config = MachineConfig::paper_baseline(mechanism).with_threads(threads);
    let mut m = Machine::new(config);
    let space = load_kernel(&mut m, 0, kernel, SEED);
    m.set_budget(0, insts);
    m.run(50_000_000);
    assert_eq!(
        m.stats().retired(0),
        insts,
        "{} under {mechanism:?} did not reach HALT",
        kernel.name()
    );

    let mut world = kernel_reference(kernel, SEED);
    let summary = world.run(insts);
    assert!(summary.halted, "{} reference must halt at the budget", kernel.name());
    assert_eq!(
        m.int_regs(0),
        world.interp.int_regs(),
        "{} under {mechanism:?}: integer registers diverged",
        kernel.name()
    );
    assert_eq!(
        m.fp_regs(0),
        world.interp.fp_regs(),
        "{} under {mechanism:?}: FP registers diverged",
        kernel.name()
    );
    assert_eq!(
        m.space(space).content_hash(m.phys()),
        world.space.content_hash(&world.pm),
        "{} under {mechanism:?}: memory image diverged",
        kernel.name()
    );
}

fn assert_same_row(a: &RunResult, b: &RunResult, name: &str, mode: &str) {
    assert_eq!(a.cycles, b.cycles, "{name}: cycles differ under {mode}");
    assert_eq!(a.retired, b.retired, "{name}: retired differ under {mode}");
    assert_eq!(a.arch_misses, b.arch_misses, "{name}: arch misses differ under {mode}");
    assert_eq!(a.stats, b.stats, "{name}: stats row differs under {mode}");
}

/// Layer 2: the full-window stats row is invariant across the runner's
/// two-tier mode matrix. `deep` additionally covers the traced run and the
/// fast-forwarded (`--skip`) window on the cheapest programs.
fn mode_matrix(kernel: Kernel, deep: bool) {
    let name = kernel.name();
    let insts = halt_of(kernel);
    let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);

    let base = Runner::new(1).run(kernel, SEED, insts, &cfg);
    let checked = Runner::new(1).with_check(true).run(kernel, SEED, insts, &cfg);
    assert_same_row(&base, &checked, name, "--check");

    if deep {
        let trace = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}.trace", name.replace(':', "_")));
        let traced =
            Runner::new(1).with_trace(Some(trace.clone())).run(kernel, SEED, insts, &cfg);
        assert_same_row(&base, &traced, name, "--trace");
        assert!(
            std::fs::metadata(&trace).map(|m| m.len() > 0).unwrap_or(false),
            "{name}: traced run must leave a non-empty trace file"
        );
        let _ = std::fs::remove_file(&trace);

        // A skipped window is a *different* (shorter) window, so it gets its
        // own baseline; the invariance under checking must hold there too,
        // and the budget must land exactly on HALT.
        let skip = insts / 3;
        let window = insts - skip;
        let s1 = Runner::new(1).with_skip(skip).run(kernel, SEED, window, &cfg);
        let s2 = Runner::new(1).with_skip(skip).with_check(true).run(kernel, SEED, window, &cfg);
        assert_same_row(&s1, &s2, name, "--skip + --check");
        assert_eq!(s1.retired, window, "{name}: skipped window must end at HALT");
    }
}

macro_rules! asm_differential {
    ($($fn_name:ident: $name:literal, deep: $deep:literal;)*) => {
        $(
            mod $fn_name {
                use super::*;

                #[test]
                fn traditional_matches_reference_at_halt() {
                    check_at_halt(asm($name), ExnMechanism::Traditional, 2);
                }
                #[test]
                fn multithreaded_matches_reference_at_halt() {
                    check_at_halt(asm($name), ExnMechanism::Multithreaded, 2);
                }
                #[test]
                fn hardware_matches_reference_at_halt() {
                    check_at_halt(asm($name), ExnMechanism::Hardware, 2);
                }
                #[test]
                fn mode_matrix_rows_are_identical() {
                    mode_matrix(asm($name), $deep);
                }
            }
        )*
    };
}

asm_differential! {
    box_blur: "asm:box_blur", deep: false;
    crc32: "asm:crc32", deep: false;
    gups: "asm:gups", deep: false;
    matmul: "asm:matmul", deep: true;
    quicksort: "asm:quicksort", deep: false;
    strsearch: "asm:strsearch", deep: false;
    vecnorm: "asm:vecnorm", deep: true;
}

/// The cheapest program also runs the remaining mechanisms, so the whole
/// mechanism axis is exercised somewhere in the suite.
mod vecnorm_full_mechanism_axis {
    use super::*;

    #[test]
    fn perfect_matches_reference_at_halt() {
        check_at_halt(asm("asm:vecnorm"), ExnMechanism::PerfectTlb, 2);
    }
    #[test]
    fn quickstart_matches_reference_at_halt() {
        check_at_halt(asm("asm:vecnorm"), ExnMechanism::QuickStart, 2);
    }
    #[test]
    fn multithreaded_with_idle_contexts_matches_reference_at_halt() {
        check_at_halt(asm("asm:vecnorm"), ExnMechanism::Multithreaded, 4);
    }
}
