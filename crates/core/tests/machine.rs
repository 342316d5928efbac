//! Behavioural tests of the cycle-level machine: every exception
//! architecture runs the same page-touching workloads and must produce the
//! interpreter's architectural results, with the paper's qualitative
//! performance ordering.

use smtx_core::{
    ExnMechanism, Interpreter, LimitKnobs, Machine, MachineConfig, RefError, RunSummary,
    ThreadState,
};
use smtx_isa::{PrivReg, Program, ProgramBuilder, Reg};
use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};

/// The canonical software TLB-miss handler (same dataflow as the 21164 PAL
/// routine: read the faulting VA, index the linear page table, load the
/// PTE, validity check, TLB write, return).
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

/// A program that strides over `pages` pages (one 8-byte load per 1 KB),
/// sums what it reads, stores the running sum back, and repeats `reps`
/// times. Every page it touches is a DTLB miss the first time around.
fn touch_pages(pages: u64, reps: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), DATA_BASE);
    b.li(Reg(11), pages * PAGE_SIZE); // region size
    b.li(Reg(14), reps);
    b.label("rep");
    b.li(Reg(12), 0); // offset
    b.li(Reg(13), 0); // sum
    b.label("loop");
    b.add(Reg(1), Reg(10), Reg(12));
    b.ldq(Reg(2), Reg(1), 0);
    b.add(Reg(13), Reg(13), Reg(2));
    b.stq(Reg(13), Reg(1), 8);
    b.addi(Reg(12), Reg(12), 1024);
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
        for off in (0..PAGE_SIZE).step_by(1024) {
            space
                .write_u64(pm, DATA_BASE + i * PAGE_SIZE + off, i * 31 + off)
                .expect("mapped");
        }
    }
}

/// Builds a machine running `program` under `mechanism`, with data pages
/// initialized.
fn machine_with(program: &Program, mechanism: ExnMechanism, pages: u64) -> Machine {
    let mut config = MachineConfig::paper_baseline(mechanism);
    config.threads = 2;
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, program);
    let (sp, pm, alloc) = m.vm_parts(space);
    setup_data(sp, pm, alloc, pages);
    m
}

/// Runs the same program + data on the reference interpreter.
fn reference(program: &Program, pages: u64, max: u64) -> Interpreter {
    let (interp, ended) = reference_ending(program, pages, max);
    ended.expect("reference runs clean");
    interp
}

/// [`reference`], also returning how the run ended.
fn reference_ending(
    program: &Program,
    pages: u64,
    max: u64,
) -> (Interpreter, Result<RunSummary, RefError>) {
    let mut pm = PhysMem::new();
    let mut alloc = PhysAlloc::new();
    let mut space = AddressSpace::new(1, &mut pm, &mut alloc);
    let code_pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1) + 1;
    space.map_region(&mut pm, &mut alloc, program.base() & !(PAGE_SIZE - 1), code_pages);
    for (i, &w) in program.words().iter().enumerate() {
        space.write_u32(&mut pm, program.base() + i as u64 * 4, w).unwrap();
    }
    setup_data(&mut space, &mut pm, &mut alloc, pages);
    let mut interp = Interpreter::new(program.base());
    let ended = interp.run(&mut pm, &mut space, max);
    (interp, ended)
}

fn run_and_check(mechanism: ExnMechanism, pages: u64, reps: u64) -> smtx_core::Stats {
    let program = touch_pages(pages, reps);
    let mut m = machine_with(&program, mechanism, pages);
    m.run(2_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted, "{mechanism:?} must finish");
    let r = reference(&program, pages, u64::MAX);
    assert_eq!(
        m.int_regs(0),
        r.int_regs(),
        "{mechanism:?}: committed registers must match the reference"
    );
    assert_eq!(m.stats().retired(0), r.retired(), "{mechanism:?}: retired count");
    m.stats().clone()
}

#[test]
fn perfect_tlb_matches_reference() {
    let s = run_and_check(ExnMechanism::PerfectTlb, 8, 2);
    assert_eq!(s.traps, 0);
    assert_eq!(s.handlers_spawned, 0);
}

#[test]
fn traditional_traps_and_matches_reference() {
    let s = run_and_check(ExnMechanism::Traditional, 8, 2);
    assert!(s.traps >= 8, "one trap per cold page at least (got {})", s.traps);
    assert!(s.fills_committed >= 8);
    assert_eq!(s.handlers_spawned, 0);
}

#[test]
fn multithreaded_spawns_and_matches_reference() {
    let s = run_and_check(ExnMechanism::Multithreaded, 8, 2);
    assert!(s.handlers_spawned >= 8, "handlers spawned: {}", s.handlers_spawned);
    assert!(s.fills_committed >= 8);
    assert_eq!(s.traps, 0, "an idle context always existed");
}

#[test]
fn quickstart_matches_reference() {
    let s = run_and_check(ExnMechanism::QuickStart, 8, 2);
    assert!(s.handlers_spawned >= 8);
}

#[test]
fn hardware_walks_and_matches_reference() {
    let s = run_and_check(ExnMechanism::Hardware, 8, 2);
    assert!(s.walks_started >= 8, "walks: {}", s.walks_started);
    assert!(s.fills_committed >= 8);
    assert_eq!(s.traps, 0);
    assert_eq!(s.handlers_spawned, 0);
}

/// The paper's headline ordering on a miss-heavy workload: traditional is
/// slowest; multithreading recovers much of the loss; quick-start and the
/// hardware walker recover more; the perfect TLB bounds everything.
#[test]
fn mechanism_ordering_matches_the_paper() {
    let pages = 72; // more pages than TLB entries: misses keep coming
    let program = touch_pages(pages, 3);
    let mut cycles = std::collections::HashMap::new();
    for mech in ExnMechanism::ALL {
        let mut m = machine_with(&program, mech, pages);
        m.run(8_000_000);
        assert_eq!(m.thread_state(0), ThreadState::Halted, "{mech:?} finished");
        cycles.insert(mech.label(), m.stats().cycles);
    }
    let perfect = cycles["perfect"];
    let traditional = cycles["traditional"];
    let multi = cycles["multithreaded"];
    let quick = cycles["quickstart"];
    let hardware = cycles["hardware"];
    assert!(perfect < multi, "perfect {perfect} must beat multithreaded {multi}");
    assert!(multi < traditional, "multithreaded {multi} must beat traditional {traditional}");
    assert!(quick <= multi, "quick-start {quick} must not lose to multithreaded {multi}");
    assert!(hardware < traditional, "hardware {hardware} must beat traditional {traditional}");
}

/// With a single context there is never an idle thread: the multithreaded
/// mechanism must revert to trapping, and still be correct.
#[test]
fn multithreaded_reverts_without_idle_context() {
    let program = touch_pages(8, 2);
    let mut config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded);
    config.threads = 1;
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, &program);
    let (sp, pm, alloc) = m.vm_parts(space);
    setup_data(sp, pm, alloc, 8);
    m.run(2_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    assert!(m.stats().reverted_no_thread >= 8);
    assert!(m.stats().traps >= 8);
    let r = reference(&program, 8, u64::MAX);
    assert_eq!(m.int_regs(0), r.int_regs());
}

/// Limit-study knobs (paper Table 3) must not change architectural results
/// and must not be slower than the realistic multithreaded machine.
#[test]
fn limit_knobs_are_sound_and_monotonic() {
    let pages = 72;
    let program = touch_pages(pages, 2);
    let baseline = {
        let mut m = machine_with(&program, ExnMechanism::Multithreaded, pages);
        m.run(8_000_000);
        assert_eq!(m.thread_state(0), ThreadState::Halted);
        m.stats().cycles
    };
    let r = reference(&program, pages, u64::MAX);
    for (name, limits) in [
        ("free_execute", LimitKnobs { free_execute_bandwidth: true, ..Default::default() }),
        ("free_window", LimitKnobs { free_window: true, ..Default::default() }),
        ("free_fetch", LimitKnobs { free_fetch_bandwidth: true, ..Default::default() }),
        ("instant", LimitKnobs { instant_handler_fetch: true, ..Default::default() }),
    ] {
        let mut config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded);
        config.limits = limits;
        let mut m = Machine::new(config);
        m.install_pal_handler(&pal_handler());
        let space = m.attach_program(0, &program);
        let (sp, pm, alloc) = m.vm_parts(space);
        setup_data(sp, pm, alloc, pages);
        m.run(8_000_000);
        assert_eq!(m.thread_state(0), ThreadState::Halted, "{name} finished");
        assert_eq!(m.int_regs(0), r.int_regs(), "{name}: architectural state");
        assert!(
            m.stats().cycles <= baseline + baseline / 20,
            "{name}: removing an overhead must not slow the machine down \
             ({} vs baseline {baseline})",
            m.stats().cycles
        );
    }
}

/// A page fault (invalid PTE) under the multithreaded mechanism escalates
/// via HARDEXC to the traditional mechanism (paper §4.3); once "the OS"
/// maps the page, execution proceeds and stays architecturally correct.
#[test]
fn hard_exception_escalates_and_recovers() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), DATA_BASE);
    b.ldq(Reg(1), Reg(10), 0);
    b.addi(Reg(2), Reg(1), 5);
    b.halt();
    let program = b.build().unwrap();

    let mut m = machine_with(&program, ExnMechanism::Multithreaded, 0);
    // DATA_BASE is intentionally unmapped: the handler finds an invalid PTE.
    let mut mapped = false;
    for _ in 0..200_000 {
        m.step_cycle();
        if !mapped && m.stats().hard_exceptions >= 1 {
            // "The OS" services the page fault.
            let space = 0;
            let (sp, pm, alloc) = m.vm_parts(space);
            let frame = alloc.alloc_page();
            sp.map(pm, DATA_BASE, frame);
            sp.write_u64(pm, DATA_BASE, 37).unwrap();
            mapped = true;
        }
        if m.thread_state(0) == ThreadState::Halted {
            break;
        }
    }
    assert!(mapped, "hard exception must have been raised");
    assert_eq!(m.thread_state(0), ThreadState::Halted, "program recovers after mapping");
    assert_eq!(m.int_regs(0)[1], 37);
    assert_eq!(m.int_regs(0)[2], 42);
    assert!(m.stats().hard_exceptions >= 1);
    assert!(m.stats().handlers_squashed >= 1, "escalation reclaims the handler thread");
}

/// Data-dependent branches exercise mispredict recovery; results must stay
/// architecturally exact.
#[test]
fn mispredict_recovery_is_architecturally_clean() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 0); // i
    b.li(Reg(2), 0); // acc
    b.li(Reg(3), 997); // prng state
    b.li(Reg(6), 200); // iterations
    b.label("loop");
    // state = state * 6364136223846793005 + 1442695040888963407 (mod 2^64)
    b.li(Reg(4), 6_364_136_223_846_793_005);
    b.mul(Reg(3), Reg(3), Reg(4));
    b.li(Reg(4), 1_442_695_040_888_963_407);
    b.add(Reg(3), Reg(3), Reg(4));
    b.srli(Reg(5), Reg(3), 62);
    b.beq(Reg(5), "skip");
    b.addi(Reg(2), Reg(2), 3);
    b.br("join");
    b.label("skip");
    b.addi(Reg(2), Reg(2), 1);
    b.label("join");
    b.addi(Reg(1), Reg(1), 1);
    b.sub(Reg(7), Reg(1), Reg(6));
    b.blt(Reg(7), "loop");
    b.halt();
    let program = b.build().unwrap();

    let mut m = machine_with(&program, ExnMechanism::PerfectTlb, 0);
    m.run(1_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    let r = reference(&program, 0, u64::MAX);
    assert_eq!(m.int_regs(0), r.int_regs());
    assert!(m.stats().threads[0].mispredicts > 0, "pattern must mispredict sometimes");
}

/// Budget freezing stops the machine at an exact architectural boundary.
#[test]
fn budget_freeze_is_exact() {
    let program = touch_pages(4, 1000);
    let mut m = machine_with(&program, ExnMechanism::Multithreaded, 4);
    m.set_budget(0, 5_000);
    m.run(2_000_000);
    assert_eq!(m.stats().retired(0), 5_000);
    let r = reference(&program, 4, 5_000);
    assert_eq!(m.int_regs(0), r.int_regs());
}

/// Two application threads with independent address spaces share the
/// machine; both must be architecturally exact (SMT correctness).
#[test]
fn two_application_threads_are_isolated() {
    let pa = touch_pages(6, 3);
    let pb = {
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 1);
        b.li(Reg(2), 0);
        b.li(Reg(3), 30);
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.addi(Reg(1), Reg(1), 2);
        b.addi(Reg(3), Reg(3), -1);
        b.bne(Reg(3), "loop");
        b.halt();
        b.build().unwrap()
    };
    let mut config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded);
    config.threads = 3; // 2 apps + 1 idle
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let sa = m.attach_program(0, &pa);
    {
        let (sp, pm, alloc) = m.vm_parts(sa);
        setup_data(sp, pm, alloc, 6);
    }
    m.attach_program(1, &pb);
    m.run(4_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    assert_eq!(m.thread_state(1), ThreadState::Halted);
    let ra = reference(&pa, 6, u64::MAX);
    assert_eq!(m.int_regs(0), ra.int_regs(), "thread 0 state");
    let rb = reference(&pb, 0, u64::MAX);
    assert_eq!(m.int_regs(1), rb.int_regs(), "thread 1 state");
}

/// Calls and returns drive the RAS through the whole pipeline.
#[test]
fn calls_and_returns_through_the_pipeline() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 0);
    b.li(Reg(2), 10);
    b.label("loop");
    b.call("bump");
    b.addi(Reg(2), Reg(2), -1);
    b.bne(Reg(2), "loop");
    b.halt();
    b.label("bump");
    b.addi(Reg(1), Reg(1), 7);
    b.ret_();
    let program = b.build().unwrap();
    let mut m = machine_with(&program, ExnMechanism::PerfectTlb, 0);
    m.run(100_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    assert_eq!(m.int_regs(0)[1], 70);
}

/// A register jump to a misaligned target stops that thread's fetch rather
/// than panicking the fetch unit: the machine retires exactly what the
/// reference interpreter retires before its `MisalignedFetch`, and the
/// committed jump target is the reference's faulting PC.
#[test]
fn misaligned_jump_target_stops_fetch() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), smtx_isa::DEFAULT_CODE_BASE + 6);
    b.jr(Reg(1));
    b.halt();
    let program = b.build().unwrap();
    let (r, ended) = reference_ending(&program, 0, u64::MAX);
    let Err(RefError::MisalignedFetch { pc }) = ended else {
        panic!("the reference must stop on the misaligned fetch, got {ended:?}");
    };
    assert_eq!(r.pc(), pc);

    let mut m = machine_with(&program, ExnMechanism::Multithreaded, 0);
    m.enable_retire_log();
    m.run(100_000);
    assert_eq!(m.stats().retired(0), r.retired(), "retired up to the bad fetch");
    assert_eq!(m.int_regs(0)[1], pc, "committed jump target is the faulting pc");
    let last = m.retire_log().unwrap().iter().rfind(|e| e.tid == 0 && !e.pal).unwrap();
    assert_eq!(last.pc, program.base() + 4 * (r.retired() - 1), "the jump retired last");
    assert_eq!(m.thread_state(0), ThreadState::Run, "stalled, not halted");
}
