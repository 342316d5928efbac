//! The functional reference interpreter.
//!
//! Executes user-mode programs in architectural order with no timing. It is
//! the correctness oracle for the pipeline: a TLB-miss handler only reads
//! the page table and writes the (architecturally invisible) TLB, so the
//! committed state of any pipeline run — under *any* exception mechanism —
//! must equal the interpreter's final state.
//!
//! The interpreter still models a 64-entry architectural DTLB purely to
//! *count* misses: that count is the workload-intrinsic "TLB misses" column
//! of paper Table 2 and the denominator of every penalty-per-miss metric.
//! As in the detailed machine, a load or store that hits the DTLB uses the
//! frame the entry holds; only a miss walks the page table.
//!
//! # The sweep cache
//!
//! It is also the functional fast-forward behind every checkpoint, so
//! [`Interpreter::run`] keeps a cache that lives for exactly one call:
//!
//! * instruction slots predecoded lazily per physical code frame, reached
//!   through a one-entry memo of the current fetch page's frame;
//! * a one-entry memo of the most recently used DTLB entry, checked before
//!   the DTLB. A repeat hit on the most recently used entry cannot change
//!   the DTLB's LRU order, so skipping the lookup leaves every later
//!   eviction, and so every miss count, unchanged.
//!
//! Within a call the cache follows four rules:
//!
//! 1. a store into a predecoded frame drops the slots it overwrote, so
//!    self-modifying code executes what memory holds;
//! 2. a store into the space's page-table range drops both frame memos
//!    (the fetch memo holds a page-table walk; the data memo only mirrors
//!    a DTLB entry, so dropping it is merely conservative);
//! 3. a DTLB lookup that bypasses the data memo resets it to the entry
//!    just looked up or filled;
//! 4. a misaligned PC is an error before it can index a slot.
//!
//! Nothing outlives the call because other code writes the same memory
//! between calls: the `--check` lockstep oracle steps over the live
//! machine's memory, and a capture runs several threads' interpreters, one
//! after another, over one [`PhysMem`]. [`Interpreter::step`] is a
//! one-instruction `run`, so both go through one execute body.

use std::fmt;
use std::ops::Range;

use smtx_isa::{Inst, Op};
use smtx_mem::{AddressSpace, PhysMem, Tlb, VmError, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};

use crate::exec;

/// Why the interpreter stopped or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// An instruction fetch or data access touched an unmapped address.
    Vm {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// The underlying translation failure.
        source: VmError,
    },
    /// The PC pointed at a word that does not decode.
    BadInstruction {
        /// Program counter of the malformed word.
        pc: u64,
    },
    /// The PC is not a multiple of the 4-byte instruction size (a jump
    /// through a register to a misaligned target).
    MisalignedFetch {
        /// The misaligned program counter.
        pc: u64,
    },
    /// A user-mode program used a privileged operation.
    PrivilegeViolation {
        /// Program counter of the privileged instruction.
        pc: u64,
        /// The offending operation.
        op: Op,
    },
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::Vm { pc, source } => write!(f, "memory fault at pc {pc:#x}: {source}"),
            RefError::BadInstruction { pc } => write!(f, "undecodable instruction at pc {pc:#x}"),
            RefError::MisalignedFetch { pc } => {
                write!(f, "misaligned instruction fetch at pc {pc:#x}")
            }
            RefError::PrivilegeViolation { pc, op } => {
                write!(f, "privileged op `{op}` in user mode at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for RefError {}

/// Result of a [`Interpreter::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions retired during this call.
    pub retired: u64,
    /// Whether the program executed `HALT`.
    pub halted: bool,
}

/// Instruction slots per code frame, one per 4-byte word.
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// One physical code frame's predecoded instructions.
struct CodeFrame {
    /// The frame's base physical address.
    base: u64,
    /// `slots[i]` is the decoded word at `base + 4 * i`, or `None` until it
    /// is next fetched. Empty until a second instruction is fetched from the
    /// frame in one call, so a one-instruction `step` never allocates it.
    slots: Vec<Option<Inst>>,
}

/// The cache of one [`Interpreter::run`] call (see the module docs).
struct Sweep {
    /// Physical range of the running space's page table.
    pt: Range<u64>,
    /// Every code frame fetched from in this call.
    code: Vec<CodeFrame>,
    /// VPN of the current fetch page and the index of its frame in `code`.
    fetch: Option<(u64, usize)>,
    /// VPN and frame of the DTLB's most recently used entry.
    data: Option<(u64, u64)>,
}

impl Sweep {
    fn new(space: &AddressSpace) -> Sweep {
        Sweep { pt: space.pt_range(), code: Vec::new(), fetch: None, data: None }
    }

    /// Fetches and decodes the user-mode instruction at `pc`.
    fn fetch(&mut self, pm: &PhysMem, space: &AddressSpace, pc: u64) -> Result<Inst, RefError> {
        let vpn = pc >> PAGE_SHIFT;
        let (idx, repeat) = match self.fetch {
            Some((v, idx)) if v == vpn => (idx, true),
            _ => {
                let pa = space.translate(pm, pc).map_err(|source| RefError::Vm { pc, source })?;
                let base = pa & !PAGE_MASK;
                let idx = self.code.iter().position(|c| c.base == base).unwrap_or_else(|| {
                    self.code.push(CodeFrame { base, slots: Vec::new() });
                    self.code.len() - 1
                });
                self.fetch = Some((vpn, idx));
                (idx, false)
            }
        };
        if !pc.is_multiple_of(4) {
            return Err(RefError::MisalignedFetch { pc });
        }
        let frame = &mut self.code[idx];
        let off = pc & PAGE_MASK;
        let slot = (off / 4) as usize;
        if let Some(&Some(inst)) = frame.slots.get(slot) {
            return Ok(inst);
        }
        let inst = Inst::decode(pm.read_u32(frame.base | off))
            .map_err(|_| RefError::BadInstruction { pc })?;
        if inst.op.is_privileged() {
            return Err(RefError::PrivilegeViolation { pc, op: inst.op });
        }
        if repeat {
            if frame.slots.is_empty() {
                frame.slots = vec![None; SLOTS];
            }
            frame.slots[slot] = Some(inst);
        }
        Ok(inst)
    }

    /// Applies invalidation rules 1 and 2 to an 8-byte store at `pa`.
    fn stored(&mut self, pa: u64) {
        if self.pt.contains(&pa) {
            self.fetch = None;
            self.data = None;
        }
        let base = pa & !PAGE_MASK;
        if let Some(frame) = self.code.iter_mut().find(|c| c.base == base) {
            if !frame.slots.is_empty() {
                let slot = ((pa & PAGE_MASK) / 4) as usize;
                frame.slots[slot..slot + 2].fill(None);
            }
        }
    }
}

/// The architectural interpreter for one thread.
///
/// ```
/// use smtx_core::Interpreter;
/// use smtx_isa::{ProgramBuilder, Reg};
/// use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};
///
/// let mut pm = PhysMem::new();
/// let mut alloc = PhysAlloc::new();
/// let mut space = AddressSpace::new(1, &mut pm, &mut alloc);
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg(1), 6);
/// b.li(Reg(2), 7);
/// b.mul(Reg(3), Reg(1), Reg(2));
/// b.halt();
/// let program = b.build()?;
///
/// // Map and load the code.
/// space.map_region(&mut pm, &mut alloc, program.base(), 1);
/// for (va, _) in program.iter() {
///     let idx = ((va - program.base()) / 4) as usize;
///     space.write_u32(&mut pm, va, program.words()[idx])?;
/// }
///
/// let mut interp = Interpreter::new(program.base());
/// let summary = interp.run(&mut pm, &mut space, 100)?;
/// assert!(summary.halted);
/// assert_eq!(interp.int_regs()[3], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    int: [u64; 32],
    fp: [u64; 32],
    pc: u64,
    halted: bool,
    retired: u64,
    dtlb: Tlb,
    dtlb_misses: u64,
}

impl Interpreter {
    /// Creates an interpreter starting at `entry` with zeroed registers and
    /// a 64-entry architectural DTLB (for miss counting only).
    #[must_use]
    pub fn new(entry: u64) -> Interpreter {
        Interpreter::from_state(entry, [0; 32], [0; 32])
    }

    /// Creates an interpreter resuming from a captured architectural state:
    /// `pc` plus committed integer and floating-point register files. The
    /// DTLB starts cold and `retired` starts at zero, so miss and retirement
    /// counts cover only the resumed region — exactly what the two-tier
    /// engine needs to count misses inside a post-fast-forward measurement
    /// window.
    #[must_use]
    pub fn from_state(pc: u64, int: [u64; 32], fp: [u64; 32]) -> Interpreter {
        Interpreter {
            int,
            fp,
            pc,
            halted: false,
            retired: 0,
            dtlb: Tlb::new(64),
            dtlb_misses: 0,
        }
    }

    /// The committed integer register file (`r31` always reads 0).
    #[must_use]
    pub fn int_regs(&self) -> &[u64; 32] {
        &self.int
    }

    /// The committed floating-point register file.
    #[must_use]
    pub fn fp_regs(&self) -> &[u64; 32] {
        &self.fp
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions retired.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Architectural DTLB misses observed so far (the workload's intrinsic
    /// miss count — paper Table 2).
    #[must_use]
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb_misses
    }

    /// Flushes the architectural miss-counting DTLB (entries only; the
    /// accumulated miss count is preserved). [`Interpreter::run_window`]
    /// applies this on the machine's epoch-reset schedule.
    pub fn flush_dtlb(&mut self) {
        self.dtlb.flush();
    }

    fn read_int(&self, r: u8) -> u64 {
        if r == 31 {
            0
        } else {
            self.int[r as usize]
        }
    }

    fn write_int(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.int[r as usize] = v;
        }
    }

    fn read_fp(&self, r: u8) -> u64 {
        if r == 31 {
            0.0f64.to_bits()
        } else {
            self.fp[r as usize]
        }
    }

    fn write_fp(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.fp[r as usize] = v;
        }
    }

    /// The physical address of data at `va`: the data memo, else the DTLB,
    /// else one page-table walk that fills the DTLB.
    fn translate_data(
        &mut self,
        sweep: &mut Sweep,
        pm: &PhysMem,
        space: &AddressSpace,
        pc: u64,
        va: u64,
    ) -> Result<u64, RefError> {
        let vpn = va >> PAGE_SHIFT;
        let frame = match sweep.data {
            Some((v, frame)) if v == vpn => frame,
            _ => {
                let frame = match self.dtlb.lookup(space.asid(), vpn) {
                    Some(frame) => frame,
                    None => {
                        self.dtlb_misses += 1;
                        let frame = space
                            .translate(pm, va & !PAGE_MASK)
                            .map_err(|source| RefError::Vm { pc, source })?;
                        self.dtlb.insert(space.asid(), vpn, frame, None);
                        frame
                    }
                };
                sweep.data = Some((vpn, frame));
                frame
            }
        };
        Ok(frame | (va & PAGE_MASK))
    }

    /// Executes one instruction: a one-instruction [`Interpreter::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`RefError`] on memory faults, misaligned fetches,
    /// undecodable words, or privileged operations; the interpreter state is
    /// left at the faulting instruction.
    pub fn step(&mut self, pm: &mut PhysMem, space: &mut AddressSpace) -> Result<(), RefError> {
        self.run(pm, space, 1).map(|_| ())
    }

    /// Runs up to `max_insts` instructions or until `HALT`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RefError`] encountered (see
    /// [`Interpreter::step`]).
    pub fn run(
        &mut self,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        max_insts: u64,
    ) -> Result<RunSummary, RefError> {
        let mut sweep = Sweep::new(space);
        let start = self.retired;
        while !self.halted && self.retired - start < max_insts {
            let pc = self.pc;
            let inst = sweep.fetch(pm, space, pc)?;
            self.execute(&mut sweep, pm, space, pc, inst)?;
        }
        Ok(RunSummary { retired: self.retired - start, halted: self.halted })
    }

    /// Runs a measurement window of up to `insts` instructions or until
    /// `HALT`, flushing the miss-counting DTLB after every `epoch`
    /// instructions of the window (`None`: one DTLB for the whole window).
    /// This mirrors the detailed machine's epoch resets
    /// (`Machine::set_epoch_len`), so the miss denominator of a penalty
    /// metric shares its TLB renewal. The machine's budget freeze wins over
    /// the reset on the final retirement, so no flush fires at the window's
    /// end. This is the one reference loop behind every architectural miss
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RefError`] encountered (see
    /// [`Interpreter::step`]).
    pub fn run_window(
        &mut self,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        insts: u64,
        epoch: Option<u64>,
    ) -> Result<RunSummary, RefError> {
        let start = self.retired;
        let mut pos = 0u64;
        while pos < insts && !self.halted {
            let step = epoch.map_or(insts - pos, |e| (insts - pos).min(e - pos % e));
            pos += self.run(pm, space, step)?.retired;
            if epoch.is_some_and(|e| pos.is_multiple_of(e)) && pos < insts {
                self.flush_dtlb();
            }
        }
        Ok(RunSummary { retired: self.retired - start, halted: self.halted })
    }

    /// The one execute body: retires `inst`, fetched from `pc`.
    fn execute(
        &mut self,
        sweep: &mut Sweep,
        pm: &mut PhysMem,
        space: &AddressSpace,
        pc: u64,
        inst: Inst,
    ) -> Result<(), RefError> {
        let mut next_pc = pc.wrapping_add(4);
        use Op::*;
        match inst.op {
            Add | Sub | Mul | Divu | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
            | Cmpult => {
                let v = exec::int_rr(inst.op, self.read_int(inst.ra), self.read_int(inst.rb));
                self.write_int(inst.rc, v);
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Cmpeqi | Cmplti | Ldi | Shlori => {
                let v = exec::int_ri(inst.op, self.read_int(inst.ra), inst.imm);
                self.write_int(inst.rb, v);
            }
            Fadd | Fsub | Fmul | Fdiv => {
                let v = exec::fp_rr(inst.op, self.read_fp(inst.ra), self.read_fp(inst.rb));
                self.write_fp(inst.rc, v);
            }
            Fsqrt => {
                let v = exec::fp_rr(inst.op, self.read_fp(inst.ra), 0);
                self.write_fp(inst.rc, v);
            }
            Fcmpeq | Fcmplt => {
                let v = exec::fp_rr(inst.op, self.read_fp(inst.ra), self.read_fp(inst.rb));
                self.write_int(inst.rc, v);
            }
            Itof => {
                let v = exec::fp_rr(inst.op, self.read_int(inst.ra), 0);
                self.write_fp(inst.rc, v);
            }
            Ftoi => {
                let v = exec::fp_rr(inst.op, self.read_fp(inst.ra), 0);
                self.write_int(inst.rc, v);
            }
            Ldq | Fldq => {
                let va = exec::align8(exec::effective_addr(self.read_int(inst.ra), inst.imm));
                let pa = self.translate_data(sweep, pm, space, pc, va)?;
                let v = pm.read_u64(pa);
                if inst.op == Ldq {
                    self.write_int(inst.rb, v);
                } else {
                    self.write_fp(inst.rb, v);
                }
            }
            Stq | Fstq => {
                let va = exec::align8(exec::effective_addr(self.read_int(inst.ra), inst.imm));
                let pa = self.translate_data(sweep, pm, space, pc, va)?;
                let v = if inst.op == Stq {
                    self.read_int(inst.rb)
                } else {
                    self.read_fp(inst.rb)
                };
                pm.write_u64(pa, v);
                sweep.stored(pa);
            }
            Beq | Bne | Blt | Bge | Bgt | Ble => {
                if exec::branch_taken(inst.op, self.read_int(inst.ra)) {
                    next_pc = exec::direct_target(pc, inst.imm);
                }
            }
            Br => next_pc = exec::direct_target(pc, inst.imm),
            Jal => {
                self.write_int(inst.ra, pc.wrapping_add(4));
                next_pc = exec::direct_target(pc, inst.imm);
            }
            Jr => next_pc = self.read_int(inst.rb),
            Jalr => {
                let target = self.read_int(inst.rb);
                self.write_int(inst.ra, pc.wrapping_add(4));
                next_pc = target;
            }
            Ret => next_pc = self.read_int(inst.ra),
            Nop => {}
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Mfpr | Mtpr | Tlbwr | Rfe | Hardexc | Mtdst => {
                unreachable!("privileged ops are rejected at fetch")
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtx_isa::{ProgramBuilder, Reg};
    use smtx_mem::{PhysAlloc, PAGE_SIZE};

    fn load(
        program: &smtx_isa::Program,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        alloc: &mut PhysAlloc,
    ) {
        let pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1);
        space.map_region(pm, alloc, program.base(), pages);
        for (i, &word) in program.words().iter().enumerate() {
            space
                .write_u32(pm, program.base() + i as u64 * 4, word)
                .expect("code page mapped");
        }
    }

    fn fresh() -> (PhysMem, PhysAlloc, AddressSpace) {
        let mut pm = PhysMem::new();
        let mut alloc = PhysAlloc::new();
        let space = AddressSpace::new(3, &mut pm, &mut alloc);
        (pm, alloc, space)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 10); // counter
        b.li(Reg(2), 0); // acc
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.addi(Reg(1), Reg(1), -1);
        b.bne(Reg(1), "loop");
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 1000).unwrap();
        assert!(s.halted);
        assert_eq!(interp.int_regs()[2], 55);
    }

    #[test]
    fn loads_and_stores_round_trip_and_count_tlb_misses() {
        let (mut pm, mut alloc, mut space) = fresh();
        let data = 0x2000_0000u64;
        space.map_region(&mut pm, &mut alloc, data, 2);
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), data);
        b.li(Reg(2), 0x1234);
        b.stq(Reg(2), Reg(1), 0); // page 0: miss 1
        b.ldq(Reg(3), Reg(1), 0);
        b.li(Reg(4), data + PAGE_SIZE);
        b.stq(Reg(3), Reg(4), 8); // page 1: miss 2
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 1000).unwrap();
        assert_eq!(interp.int_regs()[3], 0x1234);
        assert_eq!(space.read_u64(&pm, data + PAGE_SIZE + 8).unwrap(), 0x1234);
        assert_eq!(interp.dtlb_misses(), 2, "one miss per distinct page");
    }

    #[test]
    fn calls_and_returns() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.call("double"); // r26 = link
        b.halt();
        b.label("double");
        b.li(Reg(1), 21);
        b.add(Reg(1), Reg(1), Reg(1));
        b.ret_();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 100).unwrap();
        assert!(s.halted);
        assert_eq!(interp.int_regs()[1], 42);
    }

    #[test]
    fn unmapped_access_is_an_error() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 0x7fff_0000);
        b.ldq(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let err = interp.run(&mut pm, &mut space, 100).unwrap_err();
        assert!(matches!(err, RefError::Vm { .. }));
    }

    #[test]
    fn privileged_op_in_user_mode_is_an_error() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.rfe();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let err = interp.step(&mut pm, &mut space).unwrap_err();
        assert!(matches!(err, RefError::PrivilegeViolation { op: Op::Rfe, .. }));
    }

    #[test]
    fn zero_register_is_immutable() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.addi(Reg(31), Reg(31), 5);
        b.add(Reg(1), Reg(31), Reg(31));
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 10).unwrap();
        assert_eq!(interp.int_regs()[1], 0);
    }

    #[test]
    fn fp_pipeline_computes() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 16);
        b.itof(smtx_isa::FReg(1), Reg(1));
        b.fsqrt(smtx_isa::FReg(2), smtx_isa::FReg(1));
        b.ftoi(Reg(2), smtx_isa::FReg(2));
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 100).unwrap();
        assert_eq!(interp.int_regs()[2], 4);
    }

    #[test]
    fn budget_stops_mid_program() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.addi(Reg(1), Reg(1), 1);
        b.br("spin");
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 10).unwrap();
        assert!(!s.halted);
        assert_eq!(s.retired, 10);
        assert_eq!(interp.int_regs()[1], 5);
    }
}
