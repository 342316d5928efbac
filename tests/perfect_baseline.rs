//! The canonical perfect-TLB baseline is exact.
//!
//! `perfect_of` gives every config's penalty baseline one hardware context
//! and default limit knobs, so Fig. 5's and Table 3's columns share one
//! baseline simulation per kernel window. That is only sound if a
//! perfect-TLB machine's idle contexts and limit knobs never change a
//! cycle of thread 0's run. This suite checks it against the plain form
//! (the config with only its mechanism swapped) on every kernel, at skip 0
//! and behind a fast-forward, and on random programs run to their halt:
//! the `Stats` must be equal once the plain form's extra contexts are
//! dropped, and those contexts must have done nothing at all.

use smtx_bench::{config_with_idle, limit_config, runner::perfect_of, Runner};
use smtx_core::{
    ExnMechanism, LimitKnobs, Machine, MachineConfig, Stats, ThreadState, ThreadStats,
};
use smtx_workloads::{pal_handler, randprog, Kernel};

const SEED: u64 = 42;
const INSTS: u64 = 500;
const SKIP: u64 = 20_000;

/// Fig. 5's four columns.
fn fig5_configs() -> [MachineConfig; 4] {
    [
        config_with_idle(ExnMechanism::Traditional, 1),
        config_with_idle(ExnMechanism::Multithreaded, 1),
        config_with_idle(ExnMechanism::Multithreaded, 3),
        config_with_idle(ExnMechanism::Hardware, 1),
    ]
}

/// Fig. 5's columns plus one limit-study config per single `LimitKnobs`
/// field.
fn configs() -> Vec<MachineConfig> {
    let knobs = [
        LimitKnobs { free_execute_bandwidth: true, ..Default::default() },
        LimitKnobs { free_window: true, ..Default::default() },
        LimitKnobs { free_fetch_bandwidth: true, ..Default::default() },
        LimitKnobs { instant_handler_fetch: true, ..Default::default() },
    ];
    fig5_configs().into_iter().chain(knobs.map(limit_config)).collect()
}

/// `cfg` with only its mechanism swapped for the perfect TLB.
fn plain_perfect(cfg: &MachineConfig) -> MachineConfig {
    let mut perfect = cfg.clone();
    perfect.mechanism = ExnMechanism::PerfectTlb;
    perfect
}

/// Asserts the plain baseline's `Stats` equal the canonical one's once the
/// extra contexts are dropped, and that those contexts stayed untouched.
fn assert_same_run(plain: &Stats, canonical: &Stats, what: &str) {
    assert_eq!(canonical.threads.len(), 1, "{what}: canonical baseline has one context");
    let mut plain = plain.clone();
    let extra = plain.threads.split_off(1);
    assert!(
        extra.iter().all(|t| *t == ThreadStats::default()),
        "{what}: an idle context of the perfect-TLB machine did work: {extra:?}"
    );
    assert_eq!(&plain, canonical, "{what}: canonical baseline differs from the plain one");
}

/// Every kernel's Fig. 5 window (`--insts 500` scaled to the kernel's miss
/// density) under every config, on a runner fast-forwarding `skip`.
fn check_kernel_windows(skip: u64) {
    let runner = Runner::new(1).with_skip(skip);
    for kernel in Kernel::ALL {
        let insts = runner.insts_for(kernel, SEED, INSTS);
        for cfg in configs() {
            let canonical = perfect_of(&cfg);
            assert_eq!(canonical.mechanism, ExnMechanism::PerfectTlb);
            let plain = plain_perfect(&cfg);
            let what = format!(
                "{} skip {skip} insts {insts}, {:?} with {} contexts, {:?}",
                kernel.name(),
                cfg.mechanism,
                cfg.threads,
                cfg.limits
            );
            let a = runner.run(kernel, SEED, insts, &plain);
            let b = runner.run(kernel, SEED, insts, &canonical);
            assert_same_run(&a.stats, &b.stats, &what);
        }
    }
}

#[test]
fn canonical_baseline_is_exact_on_every_kernel_at_skip_0() {
    check_kernel_windows(0);
}

#[test]
fn canonical_baseline_is_exact_on_every_kernel_behind_a_fast_forward() {
    check_kernel_windows(SKIP);
}

/// Runs random program `seed` to its halt under `config`.
fn run_randprog(seed: u64, config: MachineConfig) -> Stats {
    let rp = randprog::generate(seed);
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, &rp.program);
    {
        let (sp, pm, alloc) = m.vm_parts(space);
        rp.setup(sp, pm, alloc);
    }
    m.run(80_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted, "random program {seed} did not halt");
    m.stats().clone()
}

#[test]
fn canonical_baseline_is_exact_on_random_programs() {
    let baseline = perfect_of(&configs()[0]);
    for seed in 0..16 {
        let canonical = run_randprog(seed, baseline.clone());
        for cfg in configs() {
            let what =
                format!("random program {seed}, {:?} with {} contexts", cfg.mechanism, cfg.threads);
            assert_eq!(perfect_of(&cfg).digest(), baseline.digest(), "{what}: one canonical form");
            assert_same_run(&run_randprog(seed, plain_perfect(&cfg)), &canonical, &what);
        }
    }
}

#[test]
fn fig5_columns_share_one_baseline_digest() {
    let digests: Vec<u64> = fig5_configs().iter().map(|c| perfect_of(c).digest()).collect();
    assert!(digests.iter().all(|&d| d == digests[0]), "{digests:?}");
    let table3: Vec<u64> = configs().iter().map(|c| perfect_of(c).digest()).collect();
    assert!(table3.iter().all(|&d| d == digests[0]), "{table3:?}");
}

#[test]
fn emulated_divu_keeps_contexts_and_knobs() {
    // Emulated DIVU starts handler threads even under a perfect TLB, so its
    // idle contexts and knobs can change the baseline's run.
    let knobs = LimitKnobs { free_window: true, ..Default::default() };
    let cfg = limit_config(knobs).with_emulated_divu();
    let perfect = perfect_of(&cfg);
    assert_eq!(perfect.mechanism, ExnMechanism::PerfectTlb);
    assert_eq!(perfect.threads, cfg.threads);
    assert_eq!(perfect.limits, cfg.limits);
    assert!(perfect.emulate_divu);
}
