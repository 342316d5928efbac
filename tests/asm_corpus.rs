//! Corpus-level checks for the shipped `asm/*.s` programs: every program
//! assembles, registers, halts on the reference interpreter inside its
//! measured budget, and computes the answer its source comments promise.

use std::path::Path;

use smtx_workloads::{kernel_reference, load_asm_dir, Kernel};

fn corpus() -> Vec<Kernel> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("asm");
    load_asm_dir(&dir).expect("corpus assembles and registers")
}

/// Runs a corpus program to its halting budget and returns the reference
/// world (registers and memory at `HALT`).
fn run_to_halt(kernel: Kernel) -> smtx_workloads::ReferenceWorld {
    let insts = kernel.halting_insts().expect("asm kernels halt");
    let mut world = kernel_reference(kernel, 0);
    let summary = world.run(insts);
    assert!(summary.halted, "{} must halt at its measured budget", kernel.name());
    assert_eq!(summary.retired, insts, "{} budget must be exact", kernel.name());
    world
}

#[test]
fn corpus_loads_and_is_deterministically_ordered() {
    let kernels = corpus();
    assert!(kernels.len() >= 4, "ISSUE floor: at least 4 real programs");
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "load_asm_dir must register in sorted order");
    // Loading again is idempotent (same ids, same order).
    assert_eq!(corpus(), kernels);
}

#[test]
fn every_program_halts_in_a_real_window() {
    for k in corpus() {
        let insts = k.halting_insts().expect("asm kernels halt");
        assert!(
            insts >= 80_000,
            "{}: {insts} retired — too short for the skip matrix",
            k.name()
        );
        assert!(insts <= 5_000_000, "{}: {insts} retired — too slow for CI", k.name());
        println!("{:>14}: {insts} insts", k.name());
    }
}

#[test]
fn quicksort_sorts() {
    corpus();
    let k = Kernel::from_name("asm:quicksort").expect("registered");
    let world = run_to_halt(k);
    let regs = world.interp.int_regs();
    assert_eq!(regs[1], 0, "adjacent inversions after sort");
    assert_ne!(regs[2], 0, "xor checksum of the sorted array");
}

#[test]
fn strsearch_finds_exactly_the_planted_needles() {
    corpus();
    let k = Kernel::from_name("asm:strsearch").expect("registered");
    let world = run_to_halt(k);
    let regs = world.interp.int_regs();
    assert_eq!(regs[1], 2, "match count");
    assert_eq!(regs[2], 5000 + 12000, "sum of planted offsets");
}

#[test]
fn vecnorm_normalizes_to_unit_length() {
    corpus();
    let k = Kernel::from_name("asm:vecnorm").expect("registered");
    let world = run_to_halt(k);
    let regs = world.interp.int_regs();
    // r2 = floor(norm_after * 2^20); a unit vector gives 2^20 +/- 1 ulp noise.
    assert!(
        regs[2] >= (1 << 20) - 2 && regs[2] <= 1 << 20,
        "normalized norm scaled by 2^20 was {}",
        regs[2]
    );
    // The first norm of 4096 values in [0,1) lies well inside (1, 64).
    assert!(regs[1] > 1 << 20 && regs[1] < 64 << 20, "first norm scaled was {}", regs[1]);
}

#[test]
fn crc32_matches_a_host_reference() {
    corpus();
    let k = Kernel::from_name("asm:crc32").expect("registered");
    let world = run_to_halt(k);
    // Recompute on the host: same LCG fill, same byte order, IEEE poly.
    let mut state: u64 = 0x13198a2e03707344;
    let mut crc: u32 = 0xffff_ffff;
    for _ in 0..2048 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        for byte in state.to_le_bytes() {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            }
        }
    }
    assert_eq!(world.interp.int_regs()[1], u64::from(!crc));
}

#[test]
fn gups_is_the_tlb_stress_row() {
    corpus();
    let k = Kernel::from_name("asm:gups").expect("registered");
    let world = run_to_halt(k);
    // 20k scattered updates over 1024 pages against a 64-entry TLB: the
    // reference interpreter must observe a miss-dominated access pattern.
    assert!(
        world.interp.dtlb_misses() > 10_000,
        "gups took only {} DTLB misses",
        world.interp.dtlb_misses()
    );
}

#[test]
fn matmul_and_box_blur_are_deterministic() {
    corpus();
    for name in ["asm:matmul", "asm:box_blur"] {
        let k = Kernel::from_name(name).expect("registered");
        let a = run_to_halt(k);
        let b = run_to_halt(k);
        assert_eq!(a.interp.int_regs(), b.interp.int_regs(), "{name}");
        assert_eq!(
            a.space.content_hash(&a.pm),
            b.space.content_hash(&b.pm),
            "{name}"
        );
        assert_ne!(a.interp.int_regs()[1], 0, "{name} checksum");
    }
}
