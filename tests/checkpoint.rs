//! Tier-1 soundness: functional fast-forward + restore is architecturally
//! exact, and a `skip == 0` checkpoint restore is bit-identical to loading
//! the kernel directly.
//!
//! The contract under test: for any kernel and any configuration, running
//! the detailed machine from scratch for `skip + insts` instructions and
//! running it for `insts` instructions from a `skip`-instruction functional
//! checkpoint must retire into the *same architectural state* — registers
//! and the memory image.

use smtx::core::{Checkpoint, ExnMechanism, Machine, MachineConfig};
use smtx::workloads::{load_kernel, Kernel, MIXES};
use smtx_bench::{config_with_idle, make_checkpoint, make_mix_checkpoint, run_restored};

const SEED: u64 = 42;
const SKIP: u64 = 6_000;
const INSTS: u64 = 4_000;
const CAP: u64 = 50_000_000;

/// Architectural fingerprint of thread `tid`: committed registers plus the
/// content hash of its address space.
fn arch_state(m: &Machine, tid: usize, space: usize) -> ([u64; 32], [u64; 32], u64) {
    (
        *m.int_regs(tid),
        *m.fp_regs(tid),
        m.space(space).content_hash(m.phys()),
    )
}

fn from_scratch(kernel: Kernel, config: MachineConfig, insts: u64) -> Machine {
    let mut m = Machine::new(config);
    load_kernel(&mut m, 0, kernel, SEED);
    m.set_budget(0, insts);
    m.run(CAP);
    assert_eq!(m.stats().retired(0), insts, "{} from scratch", kernel.name());
    m
}

/// Fast-forwarding through the interpreter and finishing on the detailed
/// machine retires the same architectural state as the detailed machine
/// running the whole distance — per mechanism.
#[test]
fn restored_run_matches_detailed_machine_from_scratch() {
    for kernel in [Kernel::Compress, Kernel::Gcc, Kernel::Hydro2d] {
        let ck = make_checkpoint(kernel, SEED, SKIP);
        for mech in [
            ExnMechanism::PerfectTlb,
            ExnMechanism::Traditional,
            ExnMechanism::Multithreaded,
        ] {
            let config = config_with_idle(mech, 1);
            let scratch = from_scratch(kernel, config.clone(), SKIP + INSTS);
            let mut restored = Machine::new(config);
            restored.restore(&ck);
            restored.set_budget(0, INSTS);
            restored.run(CAP);
            assert_eq!(restored.stats().retired(0), INSTS);
            let space = ck.threads()[0].space;
            assert_eq!(
                arch_state(&scratch, 0, space),
                arch_state(&restored, 0, space),
                "{} under {mech:?}: fast-forwarded state must match from-scratch",
                kernel.name()
            );
        }
    }
}

/// A `skip == 0` restore is not merely architecturally equal to the direct
/// load path — the *entire run* (every statistic) is bit-identical, because
/// restore rebuilds exactly the state `load_kernel` creates. The runner
/// starts every run from a checkpoint, so this is what makes its `--skip 0`
/// rows the load path's rows, for single kernels and for a Fig. 7 mix.
#[test]
fn zero_skip_restore_is_bit_identical_to_direct_load() {
    let mix = MIXES[0];
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(4);
    let run_mix = |m: &mut Machine| {
        for tid in 0..3 {
            m.set_budget(tid, INSTS);
        }
        m.run(CAP);
        for tid in 0..3 {
            assert_eq!(m.stats().retired(tid), INSTS, "{mix:?} thread {tid} unfinished");
        }
    };
    let mut direct = Machine::new(config.clone());
    for (tid, &k) in mix.iter().enumerate() {
        load_kernel(&mut direct, tid, k, SEED + tid as u64);
    }
    run_mix(&mut direct);
    let mut restored = Machine::new(config);
    restored.restore(&make_mix_checkpoint(mix, SEED, 0));
    run_mix(&mut restored);
    assert_eq!(
        direct.stats(),
        restored.stats(),
        "{mix:?}: skip-0 mix restore must be the load path, bit for bit"
    );

    for kernel in [Kernel::Compress, Kernel::Vortex] {
        let ck = make_checkpoint(kernel, SEED, 0);
        let config = config_with_idle(ExnMechanism::Multithreaded, 1);
        let direct = from_scratch(kernel, config.clone(), INSTS);
        let mut restored = Machine::new(config);
        restored.restore(&ck);
        restored.set_budget(0, INSTS);
        restored.run(CAP);
        assert_eq!(
            direct.stats(),
            restored.stats(),
            "{}: skip-0 restore must be the load path, bit for bit",
            kernel.name()
        );
    }
}

/// One checkpoint serves every configuration of a sweep: restoring the same
/// checkpoint under different mechanisms yields the same architectural
/// state (the mechanisms differ only in time).
#[test]
fn one_checkpoint_serves_every_configuration() {
    let ck = make_checkpoint(Kernel::Murphi, SEED, SKIP);
    let baseline = run_restored(&ck, INSTS, config_with_idle(ExnMechanism::PerfectTlb, 1), true);
    for mech in [ExnMechanism::Traditional, ExnMechanism::Hardware, ExnMechanism::QuickStart] {
        let r = run_restored(&ck, INSTS, config_with_idle(mech, 1), true);
        assert_eq!(r.retired, baseline.retired);
        assert_eq!(
            r.arch_misses, baseline.arch_misses,
            "window miss count is config-independent"
        );
        assert!(
            r.cycles >= baseline.cycles,
            "{mech:?} cannot beat the perfect TLB"
        );
    }
}

/// Multiprogrammed mixes fast-forward exactly too: address spaces own
/// disjoint physical frames, so the sequential per-thread interpreter pass
/// matches each thread of the detailed SMT machine run from scratch.
#[test]
fn mix_checkpoint_matches_from_scratch_smt_run() {
    let mix = [Kernel::Compress, Kernel::Gcc, Kernel::Murphi];
    let skip = 2_000;
    let insts = 1_500;
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(4);

    let mut scratch = Machine::new(config.clone());
    for (tid, &k) in mix.iter().enumerate() {
        load_kernel(&mut scratch, tid, k, SEED + tid as u64);
    }
    for tid in 0..3 {
        scratch.set_budget(tid, skip + insts);
    }
    scratch.run(CAP);

    let ck = make_mix_checkpoint(mix, SEED, skip);
    let mut restored = Machine::new(config);
    restored.restore(&ck);
    for tid in 0..3 {
        restored.set_budget(tid, insts);
    }
    restored.run(CAP);

    for (tid, tc) in ck.threads().iter().enumerate() {
        assert_eq!(scratch.stats().retired(tid), skip + insts);
        assert_eq!(restored.stats().retired(tid), insts);
        assert_eq!(
            arch_state(&scratch, tid, tc.space),
            arch_state(&restored, tid, tc.space),
            "mix thread {tid}: fast-forwarded state must match from-scratch"
        );
    }
}

/// Fast-forward distance of the pinned capture gate: deep enough to cross
/// many code and data pages, cheap enough for a debug build.
const PINNED_SKIP: u64 = 150_000;

/// Folds everything a restored capture determines into one number: the
/// physical memory image, then per checkpointed thread its PC, its
/// address space's virtual image, both register files and the
/// architectural DTLB misses of the window that follows the capture.
fn restored_digest(ck: &Checkpoint) -> u64 {
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(4);
    let mut m = Machine::new(config);
    m.restore(ck);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(m.phys().content_hash());
    for tc in ck.threads() {
        let (int, fp, space_hash) = arch_state(&m, tc.tid, tc.space);
        mix(tc.pc);
        mix(space_hash);
        int.iter().chain(fp.iter()).for_each(|&r| mix(r));
        mix(ck.arch_misses_in_window(tc.tid, PINNED_SKIP / 3, None));
    }
    hash
}

/// The interpreter sweep behind every checkpoint is pinned: each kernel's
/// capture, and one Fig. 7 mix's, restores to exactly this state. Any change
/// to the interpreter that moves one of these digests changed what it
/// computes, not just how fast.
#[test]
fn pinned_capture_digests() {
    const PINNED: [(Kernel, u64); 8] = [
        (Kernel::Alphadoom, 0xfc7f_ec2f_4b8a_04af),
        (Kernel::Applu, 0x646a_f16b_dd3b_ecd0),
        (Kernel::Compress, 0xfd1b_55a1_0e1a_ce25),
        (Kernel::Deltablue, 0x13a5_51b1_2b82_52b6),
        (Kernel::Gcc, 0x9147_5a65_d1f9_0d0a),
        (Kernel::Hydro2d, 0x3cc0_b5a9_c6ac_18b0),
        (Kernel::Murphi, 0x8eae_96f1_4a08_292a),
        (Kernel::Vortex, 0xf186_2347_b604_7421),
    ];
    const PINNED_MIX: u64 = 0xf216_ed59_2a77_1f7c;
    let got: Vec<(Kernel, u64)> = PINNED
        .iter()
        .map(|&(k, _)| (k, restored_digest(&make_checkpoint(k, SEED, PINNED_SKIP))))
        .collect();
    let mix = restored_digest(&make_mix_checkpoint(MIXES[0], SEED, PINNED_SKIP));
    assert_eq!(got, PINNED, "per-kernel capture digests");
    assert_eq!(mix, PINNED_MIX, "Fig. 7 mix {:?} capture digest", MIXES[0]);
}

/// Fast-forward distance of the `fig5-deep-ff` benchmark workload.
const DEEP_SKIP: u64 = 24_000_000;

/// The same gate at the benchmark's depth, where each capture sweeps 24M
/// instructions through many more code and data pages than the 150k gate.
/// Slow in a debug build, so it is ignored there and run optimized in CI.
#[test]
#[ignore = "deep sweep; run with --release -- --include-ignored"]
fn pinned_deep_capture_digests() {
    const PINNED: [(Kernel, u64); 8] = [
        (Kernel::Alphadoom, 0xa584_8a79_7e74_8203),
        (Kernel::Applu, 0xcd41_c393_504b_d4ce),
        (Kernel::Compress, 0xfed3_745c_4df1_eaf3),
        (Kernel::Deltablue, 0x8b6c_1355_14be_d537),
        (Kernel::Gcc, 0xc3e2_bf3e_1645_e81b),
        (Kernel::Hydro2d, 0xd5d7_5a46_879c_d615),
        (Kernel::Murphi, 0xc0a1_53aa_96c2_dbd5),
        (Kernel::Vortex, 0x72e3_9902_7f66_66fb),
    ];
    let got: Vec<(Kernel, u64)> = PINNED
        .iter()
        .map(|&(k, _)| (k, restored_digest(&make_checkpoint(k, SEED, DEEP_SKIP))))
        .collect();
    assert_eq!(got, PINNED, "per-kernel capture digests at depth {DEEP_SKIP}");
}
