//! The reference interpreter's sweep cache is invisible: `run(n)`, `n`
//! single `step`s, and `run(a)` followed by `run(n - a)` end in the same
//! state — registers, PC, retirement and DTLB-miss counts, and the memory
//! image — for random programs, every kernel, and the cases the cache has
//! to invalidate for: self-modifying code, page-table stores that remap a
//! data page or the running code page, and fetch across a code-page
//! boundary. `run` executes predecoded straight-line blocks, so each way a
//! block ends early or is entered mid-way is a case too. A misaligned jump
//! target is an error, not a panic.

use smtx::core::{Interpreter, RefError, RunSummary};
use smtx::isa::{ProgramBuilder, Reg};
use smtx::mem::{AddressSpace, PhysAlloc, PhysMem, Pte, PAGE_MASK, PAGE_SIZE};
use smtx::workloads::{kernel_reference, randprog, reference_world, Kernel, ReferenceWorld};
use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};

/// Everything a sweep leaves behind, plus how its last call ended.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    int: [u64; 32],
    fp: [u64; 32],
    pc: u64,
    retired: u64,
    halted: bool,
    dtlb_misses: u64,
    phys_hash: u64,
    space_hash: u64,
    error: Option<RefError>,
}

fn outcome(w: &ReferenceWorld, error: Option<RefError>) -> Outcome {
    Outcome {
        int: *w.interp.int_regs(),
        fp: *w.interp.fp_regs(),
        pc: w.interp.pc(),
        retired: w.interp.retired(),
        halted: w.interp.halted(),
        dtlb_misses: w.interp.dtlb_misses(),
        phys_hash: w.pm.content_hash(),
        space_hash: w.space.content_hash(&w.pm),
        error,
    }
}

fn run(w: &mut ReferenceWorld, n: u64) -> Result<RunSummary, RefError> {
    w.interp.run(&mut w.pm, &mut w.space, n)
}

/// Sweeps `n` instructions three ways on fresh worlds from `make`, asserts
/// all three agree, and returns the common outcome.
fn sweep_three_ways(what: &str, make: impl Fn() -> ReferenceWorld, n: u64, a: u64) -> Outcome {
    let mut whole = make();
    let error = run(&mut whole, n).err();
    let whole = outcome(&whole, error);

    let mut stepped = make();
    let mut error = None;
    for _ in 0..n {
        if let Err(e) = stepped.interp.step(&mut stepped.pm, &mut stepped.space) {
            error = Some(e);
            break;
        }
    }
    let stepped = outcome(&stepped, error);

    let mut split = make();
    let error = run(&mut split, a).and_then(|_| run(&mut split, n - a)).err();
    let split = outcome(&split, error);

    assert_eq!(whole, stepped, "{what}: run({n}) vs {n} steps");
    assert_eq!(whole, split, "{what}: run({n}) vs run({a}) + run({})", n - a);
    whole
}

#[test]
fn random_programs_sweep_identically() {
    let mut rng = StdRng::seed_from_u64(17);
    for seed in 0..12 {
        let rp = randprog::generate(seed);
        let make = || reference_world(&rp.program, |space, pm, alloc| rp.setup(space, pm, alloc));
        let mut probe = make();
        let total = run(&mut probe, 2_000_000).expect("random programs run clean").retired;
        // Past the halt too, so a halted interpreter's calls are covered.
        let n = total + 5;
        let a = rng.random_range(1..n);
        let out = sweep_three_ways(&format!("randprog seed {seed}"), make, n, a);
        assert!(out.halted && out.error.is_none(), "seed {seed}");
    }
}

#[test]
fn kernels_sweep_identically() {
    let mut rng = StdRng::seed_from_u64(301);
    for kernel in Kernel::ALL {
        let n = 40_000;
        let a = rng.random_range(1..n);
        let out = sweep_three_ways(kernel.name(), || kernel_reference(kernel, 301), n, a);
        assert_eq!(out.retired, n, "{}", kernel.name());
        assert!(out.dtlb_misses > 0, "{} touches data", kernel.name());
    }
}

/// Every split point of a short program, so a cache boundary falls on each
/// instruction once.
fn sweep_every_split(what: &str, make: impl Fn() -> ReferenceWorld, n: u64) -> Outcome {
    let first = sweep_three_ways(what, &make, n, 1);
    for a in 2..n {
        assert_eq!(sweep_three_ways(what, &make, n, a), first, "{what}: split at {a}");
    }
    first
}

/// Words of a code fragment, for planting over existing code.
fn words(emit: impl FnOnce(&mut ProgramBuilder)) -> Vec<u32> {
    let mut b = ProgramBuilder::new();
    emit(&mut b);
    b.build().expect("fragment builds").words().to_vec()
}

#[test]
fn store_over_a_later_instruction_executes_the_new_one() {
    // `patch` runs once as written, is overwritten by a store, and runs
    // again: the second call must execute the stored words.
    let new = words(|b| {
        b.addi(Reg(5), Reg(5), 100);
        b.ret_();
    });
    let mut b = ProgramBuilder::new();
    b.br("main");
    b.nop();
    let patch = b.here();
    assert_eq!(patch % 8, 0, "the patched pair is one aligned quadword");
    b.label("patch");
    b.addi(Reg(5), Reg(5), 1);
    b.ret_();
    b.label("main");
    b.li(Reg(3), patch);
    b.li(Reg(2), u64::from(new[0]) | u64::from(new[1]) << 32);
    b.call("patch");
    b.stq(Reg(2), Reg(3), 0);
    b.call("patch");
    b.halt();
    let p = b.build().unwrap();
    let make = || reference_world(&p, |_, _, _| {});
    let out = sweep_every_split("self-modifying code", make, p.len() as u64 + 8);
    assert!(out.halted);
    assert_eq!(out.int[5], 101, "first call adds 1, the patched call adds 100");
}

/// A data page whose PTE shares a page-table frame with the code's.
const DATA: u64 = smtx::isa::DEFAULT_CODE_BASE + 0x10_0000;
/// Where the program maps that page-table frame.
const ALIAS: u64 = 0x3000_0000;

#[test]
fn page_table_store_remaps_a_data_page_and_the_code_page() {
    // The program maps a VA onto its own page table and, through it,
    // points its data page at a second frame and its code page at a copy
    // of the code with one instruction changed.
    let mut alloc = PhysAlloc::new();
    let mut pm = PhysMem::new();
    let space = AddressSpace::new(1, &mut pm, &mut alloc);
    let pte = |va: u64| space.pte_addr(va).unwrap();
    // Frames the world below allocates: the code page and its spare, then
    // the data page, its replacement and the code page's copy.
    let data_pte = pte(DATA);
    let code_pte = pte(smtx::isa::DEFAULT_CODE_BASE);
    assert_eq!(data_pte & !PAGE_MASK, code_pte & !PAGE_MASK, "one PT frame holds both PTEs");
    let first_free = alloc.alloc_page();
    let (data_a, data_b, code_copy) =
        (first_free + 2 * PAGE_SIZE, first_free + 3 * PAGE_SIZE, first_free + 4 * PAGE_SIZE);

    let mut b = ProgramBuilder::new();
    b.li(Reg(1), DATA);
    b.li(Reg(4), ALIAS + (data_pte & PAGE_MASK));
    b.li(Reg(6), Pte::valid(data_b).0);
    b.li(Reg(8), ALIAS + (code_pte & PAGE_MASK));
    b.li(Reg(9), Pte::valid(code_copy).0);
    b.ldq(Reg(2), Reg(1), 0); // fills the DTLB with data_a
    b.stq(Reg(6), Reg(4), 0); // DATA -> data_b
    b.ldq(Reg(3), Reg(1), 0); // DTLB hit: still data_a
    b.stq(Reg(9), Reg(8), 0); // code page -> code_copy
    let changed = b.here();
    b.addi(Reg(7), Reg(31), 1); // reads `addi r7, r31, 2` from the copy
    b.halt();
    let p = b.build().unwrap();
    let replacement = words(|b| {
        b.addi(Reg(7), Reg(31), 2);
    })[0];

    let make = || {
        reference_world(&p, |space, pm, alloc| {
            assert_eq!(space.translate(pm, p.base()).unwrap(), first_free);
            space.map(pm, ALIAS, data_pte & !PAGE_MASK);
            let frame = alloc.alloc_page();
            assert_eq!(frame, data_a);
            space.map(pm, DATA, frame);
            pm.write_u64(data_a, 111);
            assert_eq!(alloc.alloc_page(), data_b);
            pm.write_u64(data_b, 222);
            assert_eq!(alloc.alloc_page(), code_copy);
            for (i, &w) in p.words().iter().enumerate() {
                let va = p.base() + i as u64 * 4;
                let w = if va == changed { replacement } else { w };
                pm.write_u32(code_copy + (va & PAGE_MASK), w);
            }
        })
    };
    let out = sweep_every_split("page-table remap", make, p.len() as u64 + 4);
    assert!(out.halted);
    assert_eq!((out.int[2], out.int[3]), (111, 111), "a DTLB hit uses its entry's frame");
    assert_eq!(out.int[7], 2, "fetch follows the remapped code page at once");

    // Once the stale entry leaves the DTLB, the data remap shows.
    let mut w = make();
    let up_to_reload = p.len() as u64 - 4;
    run(&mut w, up_to_reload).unwrap();
    w.interp.flush_dtlb();
    run(&mut w, 100).unwrap();
    assert_eq!(w.interp.int_regs()[3], 222);
}

#[test]
fn fetch_crosses_code_page_boundaries() {
    // A loop whose body straddles the boundary between two code pages.
    let per_page = PAGE_SIZE / 4;
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 50);
    while b.here() < smtx::isa::DEFAULT_CODE_BASE + (per_page - 3) * 4 {
        b.nop();
    }
    b.label("loop");
    for _ in 0..6 {
        b.addi(Reg(2), Reg(2), 1);
    }
    b.addi(Reg(1), Reg(1), -1);
    b.bne(Reg(1), "loop");
    b.halt();
    let p = b.build().unwrap();
    assert!(p.len() as u64 > per_page, "the program spans two pages");
    let make = || reference_world(&p, |_, _, _| {});
    let mut probe = make();
    let n = run(&mut probe, 100_000).unwrap().retired;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..8 {
        let out = sweep_three_ways("page crossing", make, n, rng.random_range(1..n));
        assert!(out.halted);
        assert_eq!(out.int[2], 300);
    }
}

#[test]
fn misaligned_jump_target_is_an_error() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), smtx::isa::DEFAULT_CODE_BASE + 6);
    b.jr(Reg(1));
    b.halt();
    let p = b.build().unwrap();
    let jumped = p.len() as u64 - 1;
    let make = || reference_world(&p, |_, _, _| {});
    let out = sweep_every_split("misaligned jump", make, p.len() as u64 + 3);
    assert_eq!(out.error, Some(RefError::MisalignedFetch { pc: p.base() + 6 }));
    assert_eq!((out.pc, out.retired), (p.base() + 6, jumped), "stopped at the bad target");

    // A fresh interpreter started on the misaligned PC fails on its first
    // step, too.
    let mut w = make();
    w.interp = Interpreter::new(p.base() + 2);
    let err = w.interp.step(&mut w.pm, &mut w.space).unwrap_err();
    assert_eq!(err, RefError::MisalignedFetch { pc: p.base() + 2 });
    assert!(err.to_string().contains("misaligned"));
}


#[test]
fn store_over_a_later_slot_of_the_running_block() {
    // The loop's block stores over two of its own later instructions: the
    // first pass stores `+100` words, later passes `+10` words, and each
    // pass must run what it has just stored.
    let hundred = words(|b| {
        b.addi(Reg(5), Reg(5), 100);
        b.addi(Reg(5), Reg(5), 100);
    });
    let ten = words(|b| {
        b.addi(Reg(5), Reg(5), 10);
        b.addi(Reg(5), Reg(5), 10);
    });
    let quad = |w: &[u32]| u64::from(w[0]) | u64::from(w[1]) << 32;
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 3);
    b.li(Reg(2), quad(&hundred));
    b.li(Reg(4), quad(&ten));
    let loop_at = smtx::isa::DEFAULT_CODE_BASE + 0x104;
    let patch_at = loop_at + 4;
    assert_eq!(patch_at % 8, 0, "the patched pair is one aligned quadword");
    b.li(Reg(3), patch_at);
    while b.here() < loop_at {
        b.nop();
    }
    b.label("loop");
    b.stq(Reg(2), Reg(3), 0);
    assert_eq!(b.here(), patch_at, "the patched pair follows the store");
    b.addi(Reg(5), Reg(5), 1);
    b.addi(Reg(5), Reg(5), 1);
    b.add(Reg(2), Reg(4), Reg(31));
    b.addi(Reg(1), Reg(1), -1);
    b.bne(Reg(1), "loop");
    b.halt();
    let p = b.build().unwrap();
    let make = || reference_world(&p, |_, _, _| {});
    let mut probe = make();
    let n = run(&mut probe, 1_000).unwrap().retired + 2;
    let out = sweep_every_split("store into the running block", make, n);
    assert!(out.halted);
    assert_eq!(out.int[5], 200 + 20 + 20, "each pass runs the words it stored");
}

#[test]
fn page_table_store_in_the_middle_of_a_block() {
    // Each pass of the loop remaps its own code page from inside a block,
    // alternately onto a copy whose next instruction adds 10 and back onto
    // the original, which adds 1.
    let mut alloc = PhysAlloc::new();
    let mut pm = PhysMem::new();
    let space = AddressSpace::new(1, &mut pm, &mut alloc);
    let code_pte = space.pte_addr(smtx::isa::DEFAULT_CODE_BASE).unwrap();
    // The world below maps the code page and a spare, then allocates the copy.
    let code = alloc.alloc_page();
    let copy = code + 2 * PAGE_SIZE;
    let (original, copied) = (Pte::valid(code).0, Pte::valid(copy).0);

    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 4);
    b.li(Reg(8), ALIAS + (code_pte & PAGE_MASK));
    b.li(Reg(9), copied);
    b.li(Reg(10), original ^ copied);
    b.label("loop");
    b.stq(Reg(9), Reg(8), 0);
    let changed = b.here();
    b.addi(Reg(7), Reg(7), 1);
    b.xor(Reg(9), Reg(9), Reg(10));
    b.addi(Reg(1), Reg(1), -1);
    b.bne(Reg(1), "loop");
    b.halt();
    let p = b.build().unwrap();
    let replacement = words(|b| {
        b.addi(Reg(7), Reg(7), 10);
    })[0];
    let make = || {
        reference_world(&p, |space, pm, alloc| {
            assert_eq!(space.translate(pm, p.base()).unwrap(), code);
            space.map(pm, ALIAS, code_pte & !PAGE_MASK);
            assert_eq!(alloc.alloc_page(), copy);
            for (i, &w) in p.words().iter().enumerate() {
                let va = p.base() + i as u64 * 4;
                let w = if va == changed { replacement } else { w };
                pm.write_u32(copy + (va & PAGE_MASK), w);
            }
        })
    };
    let mut probe = make();
    let n = run(&mut probe, 1_000).unwrap().retired + 2;
    let out = sweep_every_split("page-table store mid-block", make, n);
    assert!(out.halted);
    assert_eq!(out.int[7], 10 + 1 + 10 + 1, "fetch follows each remap at once");
}

#[test]
fn data_fault_in_the_middle_of_a_block() {
    // A loop walks a one-page array in half-page steps; its third load
    // leaves the page from the middle of an already-built block.
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), DATA);
    let loop_at = b.here();
    b.label("loop");
    b.addi(Reg(2), Reg(2), 1);
    let load_at = b.here();
    b.ldq(Reg(3), Reg(1), 0);
    b.addi(Reg(4), Reg(4), 1);
    b.addi(Reg(1), Reg(1), (PAGE_SIZE / 2) as i32);
    b.br("loop");
    let p = b.build().unwrap();
    let make = || reference_world(&p, |space, pm, alloc| {
        space.map_region(pm, alloc, DATA, 1);
    });
    let out = sweep_every_split("data fault mid-block", make, 20);
    assert!(
        matches!(out.error, Some(RefError::Vm { pc, .. }) if pc == load_at),
        "{:?}",
        out.error
    );
    let before = (loop_at - p.base()) / 4;
    assert_eq!((out.pc, out.retired), (load_at, before + 2 * 5 + 1), "stopped at the load");
    assert_eq!((out.int[2], out.int[4]), (3, 2), "nothing after the load retired");
}

#[test]
fn jump_into_the_middle_of_a_built_block() {
    // The loop's block from `top` runs three times before a branch enters
    // it at `mid`, skipping its first instruction.
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 3);
    b.li(Reg(6), 2);
    b.label("top");
    b.addi(Reg(2), Reg(2), 1);
    b.label("mid");
    b.addi(Reg(3), Reg(3), 1);
    b.addi(Reg(4), Reg(4), 1);
    b.addi(Reg(1), Reg(1), -1);
    b.bne(Reg(1), "top");
    b.addi(Reg(6), Reg(6), -1);
    b.li(Reg(1), 2);
    b.bne(Reg(6), "mid");
    b.halt();
    let p = b.build().unwrap();
    let make = || reference_world(&p, |_, _, _| {});
    let mut probe = make();
    let n = run(&mut probe, 1_000).unwrap().retired + 2;
    let out = sweep_every_split("jump into a block", make, n);
    assert!(out.halted);
    assert_eq!((out.int[2], out.int[3], out.int[4]), (4, 5, 5));
}

#[test]
fn block_ends_at_a_frame_boundary_without_a_branch() {
    // The loop's first three instructions are the last words of the first
    // code frame, so its block ends at the frame's end and the loop goes on
    // in the next frame.
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 4);
    b.br("loop");
    while b.here() < smtx::isa::DEFAULT_CODE_BASE + PAGE_SIZE - 12 {
        b.nop();
    }
    b.label("loop");
    for _ in 0..3 {
        b.addi(Reg(2), Reg(2), 1);
    }
    assert_eq!(b.here() & PAGE_MASK, 0, "the frame ends here, mid-loop");
    b.addi(Reg(1), Reg(1), -1);
    b.bne(Reg(1), "loop");
    b.halt();
    let p = b.build().unwrap();
    let make = || reference_world(&p, |_, _, _| {});
    let mut probe = make();
    let n = run(&mut probe, 1_000).unwrap().retired + 2;
    let out = sweep_every_split("frame-end block", make, n);
    assert!(out.halted);
    assert_eq!(out.int[2], 12);
}
