//! Tier-2 soundness property: idle-cycle skipping is an accounting
//! optimization, never a model change. For any program, any mechanism and
//! any configuration, the machine with skipping enabled must produce the
//! *bit-identical* `Stats` of the naive cycle-by-cycle loop — including the
//! final cycle count — while actually stepping fewer cycles.

use smtx_core::{ExnMechanism, Machine, MachineConfig, Stats, ThreadState, ThreadStats};
use smtx_isa::{PrivReg, Program, ProgramBuilder, Reg};
use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};
use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};

/// The canonical software TLB-miss handler (same routine as
/// `tests/machine.rs`).
fn pal_handler() -> Program {
    let mut b = ProgramBuilder::with_base(0);
    b.mfpr(Reg(1), PrivReg::FaultVa);
    b.mfpr(Reg(2), PrivReg::PtBase);
    b.srli(Reg(3), Reg(1), 13);
    b.slli(Reg(3), Reg(3), 3);
    b.add(Reg(3), Reg(3), Reg(2));
    b.ldq(Reg(4), Reg(3), 0);
    b.andi(Reg(5), Reg(4), 1);
    b.beq(Reg(5), "fault");
    b.tlbwr(Reg(1), Reg(4));
    b.rfe();
    b.label("fault");
    b.hardexc();
    b.rfe();
    b.build().expect("handler assembles")
}

const DATA_BASE: u64 = 0x2000_0000;

/// A random but guaranteed-halting workload: a counted outer loop striding
/// over `pages` pages with a random step, an inner body mixing long-latency
/// arithmetic (MUL/DIVU chains, FP), loads, stores, and data-dependent
/// branches. Long-latency chains and TLB misses are what create the idle
/// stretches tier-2 skips over; the branches make sure squashes and
/// wrong-path pollution are in the mix too.
fn random_program(rng: &mut StdRng, pages: u64) -> Program {
    let reps = rng.random_range(1..3u64);
    let stride = 512 * rng.random_range(1..5u64); // 512..2048, page-crossing
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), DATA_BASE);
    b.li(Reg(11), pages * PAGE_SIZE);
    b.li(Reg(14), reps);
    b.li(Reg(20), rng.random_range(3..997u64)); // prng state
    b.label("rep");
    b.li(Reg(12), 0);
    b.li(Reg(13), 0);
    b.label("loop");
    b.add(Reg(1), Reg(10), Reg(12));
    b.ldq(Reg(2), Reg(1), 0);
    b.add(Reg(13), Reg(13), Reg(2));
    for op in 0..rng.random_range(1..5u32) {
        match rng.random_range(0..4u32) {
            0 => {
                // Serial multiply chain: a long-latency dependence.
                b.mul(Reg(13), Reg(13), Reg(20));
                b.ori(Reg(13), Reg(13), 1);
            }
            1 => {
                // DIVU with a nonzero divisor (the longest unit).
                b.ori(Reg(6), Reg(2), 1);
                b.divu(Reg(7), Reg(13), Reg(6));
                b.add(Reg(13), Reg(13), Reg(7));
            }
            2 => {
                // FP round trip through the float pipes.
                b.itof(smtx_isa::FReg(1), Reg(13));
                b.fmul(smtx_isa::FReg(2), smtx_isa::FReg(1), smtx_isa::FReg(1));
                b.ftoi(Reg(7), smtx_isa::FReg(2));
                b.add(Reg(13), Reg(13), Reg(7));
            }
            _ => {
                // Data-dependent branch off the loaded value.
                let skip = format!("skip{op}");
                let join = format!("join{op}");
                b.andi(Reg(7), Reg(2), 2);
                b.beq(Reg(7), skip.clone());
                b.addi(Reg(13), Reg(13), 3);
                b.br(join.clone());
                b.label(skip);
                b.addi(Reg(13), Reg(13), 1);
                b.label(join);
            }
        }
        // Mix the prng so branch outcomes vary between iterations.
        b.li(Reg(21), 6_364_136_223_846_793_005);
        b.mul(Reg(20), Reg(20), Reg(21));
        b.addi(Reg(20), Reg(20), 1_447);
    }
    b.stq(Reg(13), Reg(1), 8);
    b.addi(Reg(12), Reg(12), stride as i32);
    b.sub(Reg(3), Reg(12), Reg(11));
    b.blt(Reg(3), "loop");
    b.addi(Reg(14), Reg(14), -1);
    b.bne(Reg(14), "rep");
    b.halt();
    b.build().expect("assembles")
}

fn setup_data(space: &mut AddressSpace, pm: &mut PhysMem, alloc: &mut PhysAlloc, pages: u64) {
    space.map_region(pm, alloc, DATA_BASE, pages);
    for i in 0..pages {
        for off in (0..PAGE_SIZE).step_by(512) {
            space
                .write_u64(pm, DATA_BASE + i * PAGE_SIZE + off, i * 31 + off)
                .expect("mapped");
        }
    }
}

fn machine_with(program: &Program, config: MachineConfig, pages: u64, idle_skip: bool) -> Machine {
    let mut m = Machine::new(config);
    m.set_idle_skip(idle_skip);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, program);
    let (sp, pm, alloc) = m.vm_parts(space);
    setup_data(sp, pm, alloc, pages);
    m
}

/// Runs one program under one configuration with idle skipping on and off
/// and demands bit-identical statistics. Returns the cycles the skipping
/// machine jumped over.
fn check_identical(program: &Program, config: MachineConfig, pages: u64, what: &str) -> u64 {
    let mut fast = machine_with(program, config.clone(), pages, true);
    let mut naive = machine_with(program, config, pages, false);
    fast.run(20_000_000);
    naive.run(20_000_000);
    assert_eq!(fast.thread_state(0), ThreadState::Halted, "{what}: fast run halts");
    assert_eq!(naive.thread_state(0), ThreadState::Halted, "{what}: naive run halts");
    assert_eq!(naive.skipped_cycles(), 0, "{what}: naive loop must not skip");
    assert_eq!(
        fast.stats(),
        naive.stats(),
        "{what}: idle skipping must not change any statistic"
    );
    assert_eq!(fast.int_regs(0), naive.int_regs(0), "{what}: architectural state");
    fast.skipped_cycles()
}

/// The property, across random programs, every mechanism, and both deep and
/// baseline pipelines.
#[test]
fn idle_skip_stats_are_bit_identical_across_random_programs() {
    let mut total_skipped = 0;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pages = rng.random_range(4..80u64);
        let program = random_program(&mut rng, pages);
        for mech in ExnMechanism::ALL {
            let config = MachineConfig::paper_baseline(mech).with_threads(2);
            total_skipped +=
                check_identical(&program, config, pages, &format!("seed {seed} {mech:?}"));
        }
    }
    assert!(
        total_skipped > 0,
        "the suite must contain idle cycles for tier-2 to skip"
    );
}

/// Deep pipelines and narrow machines change where the idle stretches are;
/// the property must hold there too.
#[test]
fn idle_skip_is_identical_on_deep_and_narrow_configs() {
    let mut rng = StdRng::seed_from_u64(99);
    let pages = 24;
    let program = random_program(&mut rng, pages);
    for mech in [ExnMechanism::Traditional, ExnMechanism::Multithreaded] {
        let deep = MachineConfig::paper_baseline(mech).with_threads(2).with_pipe_depth(11);
        check_identical(&program, deep, pages, &format!("deep {mech:?}"));
        let narrow = MachineConfig::paper_baseline(mech)
            .with_threads(2)
            .with_width_window(2, 32);
        check_identical(&program, narrow, pages, &format!("narrow {mech:?}"));
    }
}

/// Two application threads (plus a spare context) exercise the ICOUNT
/// chooser, cross-thread splicing and per-thread budget freezing under
/// skipping.
#[test]
fn idle_skip_is_identical_with_two_threads_and_budgets() {
    let mut rng = StdRng::seed_from_u64(7);
    let pages = 16;
    let pa = random_program(&mut rng, pages);
    let pb = random_program(&mut rng, pages);
    let build = |idle_skip: bool| {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(3);
        let mut m = Machine::new(config);
        m.set_idle_skip(idle_skip);
        m.install_pal_handler(&pal_handler());
        let sa = m.attach_program(0, &pa);
        {
            let (sp, pm, alloc) = m.vm_parts(sa);
            setup_data(sp, pm, alloc, pages);
        }
        let sb = m.attach_program(1, &pb);
        {
            let (sp, pm, alloc) = m.vm_parts(sb);
            setup_data(sp, pm, alloc, pages);
        }
        m.set_budget(0, 4_000);
        m.set_budget(1, 3_000);
        m.run(20_000_000);
        m
    };
    let fast = build(true);
    let naive = build(false);
    assert_eq!(fast.stats().retired(0), 4_000);
    assert_eq!(fast.stats().retired(1), 3_000);
    assert_eq!(fast.stats(), naive.stats(), "two-thread stats identical");
    assert_eq!(fast.int_regs(0), naive.int_regs(0));
    assert_eq!(fast.int_regs(1), naive.int_regs(1));
}

/// A store whose address hangs on a cache-missing load and a MUL/DIVU
/// chain, followed by a run of independent loads (one of them reading the
/// store's own address). Every such load waits for the store's address
/// (conservative disambiguation), so each iteration is a stall whose only
/// pending work is loads behind one unresolved store.
fn store_shadow_program(iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), DATA_BASE);
    b.li(Reg(11), 0);
    b.li(Reg(14), iters);
    b.li(Reg(15), PAGE_SIZE);
    b.li(Reg(20), 7);
    b.label("loop");
    b.add(Reg(1), Reg(10), Reg(11));
    b.ldq(Reg(2), Reg(1), 0); // a new page each iteration: cache miss
    b.mul(Reg(3), Reg(2), Reg(20));
    b.ori(Reg(6), Reg(3), 1);
    b.divu(Reg(3), Reg(3), Reg(6));
    b.andi(Reg(3), Reg(3), 0);
    b.add(Reg(4), Reg(10), Reg(3));
    b.stq(Reg(2), Reg(4), 8);
    for k in 0..8u8 {
        b.ldq(Reg(21 + k), Reg(10), 8 + 64 * i32::from(k));
        b.add(Reg(13), Reg(13), Reg(21 + k));
    }
    b.add(Reg(11), Reg(11), Reg(15));
    b.addi(Reg(14), Reg(14), -1);
    b.bne(Reg(14), "loop");
    b.halt();
    b.build().expect("assembles")
}

/// Loads parked behind an unresolved store leave the issue scan and stop
/// blocking idle-skip; they must unpark in exactly the cycle, and in the
/// order, the per-cycle polling scan issued them. The pinned `Stats` lock
/// that order; the skip floor shows the stalls are now jumped.
#[test]
fn loads_behind_an_unresolved_store_skip_exactly() {
    let pages = 48;
    let program = store_shadow_program(pages);
    for mech in ExnMechanism::ALL {
        let config = MachineConfig::paper_baseline(mech).with_threads(2);
        check_identical(&program, config, pages, &format!("store shadow {mech:?}"));
    }
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
    let mut m = machine_with(&program, config, pages, true);
    m.run(20_000_000);
    let expected = Stats {
        cycles: 7721,
        threads: vec![
            ThreadStats {
                retired_user: 1305,
                retired_pal: 0,
                finished_at: Some(7720),
                tlb_miss_insts_retired: 48,
                mispredicts: 8,
            },
            ThreadStats {
                retired_user: 0,
                retired_pal: 480,
                finished_at: None,
                tlb_miss_insts_retired: 0,
                mispredicts: 0,
            },
        ],
        fills_committed: 48,
        handlers_spawned: 48,
        deadlock_squashes: 7,
        squashed_insts: 61,
        handler_active_cycles: 1781,
        fetched: 1846,
        issued: 1840,
        ..Stats::default()
    };
    assert_eq!(m.stats(), &expected);
    // Parked loads do not hold off idle-skip, so most of each stall behind
    // the store is jumped rather than stepped.
    assert!(m.skipped_cycles() > 2_000, "skipped only {} cycles", m.skipped_cycles());
}
