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
//! * predecoded straight-line **blocks** per physical code frame, reached
//!   through a one-entry memo of the current fetch page's frame. A block
//!   may start at any word of the frame and runs to its first control
//!   transfer or `HALT` (included), or to the frame's end; a word that
//!   does not decode, or is privileged, ends the block before it and
//!   fails when fetched on its own. A frame gets a block table when a
//!   fetch repeats the memoized page; until then a fetch decodes one
//!   instruction uncached, so a one-instruction `step` never allocates.
//!   A block is built when its first word is fetched and shared as an
//!   `Rc<[Inst]>`, so the execute loop walks a local slice;
//! * a one-entry memo of the most recently used DTLB entry, checked before
//!   the DTLB. A repeat hit on the most recently used entry cannot change
//!   the DTLB's LRU order, so skipping the lookup leaves every later
//!   eviction, and so every miss count, unchanged.
//!
//! Within a call the cache follows four rules:
//!
//! 1. a store into a frame with a block table drops all of that frame's
//!    blocks, so self-modifying code executes what memory holds;
//! 2. a store into the space's page-table range drops both frame memos
//!    (the fetch memo holds a page-table walk; the data memo only mirrors
//!    a DTLB entry, so dropping it is merely conservative);
//! 3. a DTLB lookup that bypasses the data memo resets it to the entry
//!    just looked up or filled;
//! 4. a misaligned PC is an error before it can index a block.
//!
//! A store under rule 1 or 2 also ends the running block after the store,
//! so the next fetch sees the new code or mapping. The loop writes `pc`
//! and `retired` once per block; an error leaves both at the faulting
//! instruction, with every instruction before it retired, exactly as
//! single steps would.
//!
//! Nothing outlives the call because other code writes the same memory
//! between calls: the `--check` lockstep oracle steps over the live
//! machine's memory, and a capture runs several threads' interpreters, one
//! after another, over one [`PhysMem`]. [`Interpreter::step`] is a
//! one-instruction `run`, so both go through one execute body.

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

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

/// One physical code frame's predecoded blocks.
struct CodeFrame {
    /// The frame's base physical address.
    base: u64,
    /// `blocks[i]` is the block that starts at the word `base + 4 * i`, or
    /// `None` until that word is next fetched.
    blocks: Vec<Option<Rc<[Inst]>>>,
}

/// What one fetch hands the execute loop.
enum Fetched {
    /// A lone instruction, decoded without caching: the frame has no block
    /// table yet.
    One(Inst),
    /// The predecoded straight-line block starting at the fetched PC.
    Block(Rc<[Inst]>),
}

/// The cache of one [`Interpreter::run`] call (see the module docs).
struct Sweep {
    /// Physical range of the running space's page table.
    pt: Range<u64>,
    /// Every code frame that has a block table.
    code: Vec<CodeFrame>,
    /// VPN of the current fetch page, its frame's base, and the frame's
    /// index in `code` once it has one.
    fetch: Option<(u64, u64, Option<usize>)>,
    /// VPN and frame of the DTLB's most recently used entry.
    data: Option<(u64, u64)>,
}

impl Sweep {
    fn new(space: &AddressSpace) -> Sweep {
        Sweep { pt: space.pt_range(), code: Vec::new(), fetch: None, data: None }
    }

    /// Fetches the user-mode code at `pc`: its block once the frame has a
    /// block table, else the lone decoded instruction.
    fn fetch(&mut self, pm: &PhysMem, space: &AddressSpace, pc: u64) -> Result<Fetched, RefError> {
        let vpn = pc >> PAGE_SHIFT;
        let (base, idx) = match self.fetch {
            Some((v, base, idx)) if v == vpn => {
                (base, Some(idx.unwrap_or_else(|| self.frame(base))))
            }
            _ => {
                let pa = space.translate(pm, pc).map_err(|source| RefError::Vm { pc, source })?;
                let base = pa & !PAGE_MASK;
                (base, self.code.iter().position(|c| c.base == base))
            }
        };
        self.fetch = Some((vpn, base, idx));
        if !pc.is_multiple_of(4) {
            return Err(RefError::MisalignedFetch { pc });
        }
        let slot = ((pc & PAGE_MASK) / 4) as usize;
        let Some(idx) = idx else {
            return decode(pm, base, slot, pc).map(Fetched::One);
        };
        let frame = &mut self.code[idx];
        if let Some(block) = &frame.blocks[slot] {
            return Ok(Fetched::Block(Rc::clone(block)));
        }
        let mut block = vec![decode(pm, base, slot, pc)?];
        while !ends_block(block[block.len() - 1].op) && slot + block.len() < SLOTS {
            let at = slot + block.len();
            match decode(pm, base, at, pc + 4 * (at - slot) as u64) {
                Ok(inst) => block.push(inst),
                // The faulting word starts a block of its own and fails there.
                Err(_) => break,
            }
        }
        let block: Rc<[Inst]> = block.into();
        frame.blocks[slot] = Some(Rc::clone(&block));
        Ok(Fetched::Block(block))
    }

    /// Adds the frame at `base` to `code` with an empty block table and
    /// returns its index.
    fn frame(&mut self, base: u64) -> usize {
        self.code.push(CodeFrame { base, blocks: vec![None; SLOTS] });
        self.code.len() - 1
    }

    /// Applies invalidation rules 1 and 2 to an 8-byte store at `pa`;
    /// `true` if the running block must end after the store.
    fn stored(&mut self, pa: u64) -> bool {
        let in_pt = self.pt.contains(&pa);
        if in_pt {
            self.fetch = None;
            self.data = None;
        }
        let base = pa & !PAGE_MASK;
        let in_code = match self.code.iter_mut().find(|c| c.base == base) {
            Some(frame) => {
                frame.blocks.fill(None);
                true
            }
            None => false,
        };
        in_pt || in_code
    }
}

/// Decodes the user-mode word in `slot` of the code frame at `base`,
/// fetched from `pc`.
fn decode(pm: &PhysMem, base: u64, slot: usize, pc: u64) -> Result<Inst, RefError> {
    let inst = Inst::decode(pm.read_u32(base | (slot as u64 * 4)))
        .map_err(|_| RefError::BadInstruction { pc })?;
    if inst.op.is_privileged() {
        return Err(RefError::PrivilegeViolation { pc, op: inst.op });
    }
    Ok(inst)
}

/// Whether `op` is the last instruction of a block: a control transfer or
/// `HALT`.
fn ends_block(op: Op) -> bool {
    op.branch_kind().is_some() || op == Op::Halt
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
    /// window. `r31` reads 0 whatever `int[31]` holds.
    #[must_use]
    pub fn from_state(pc: u64, mut int: [u64; 32], fp: [u64; 32]) -> Interpreter {
        int[31] = 0;
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

    /// Reads `r` without a branch: `int[31]` is held at 0.
    fn read_int(&self, r: u8) -> u64 {
        self.int[usize::from(r & 31)]
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
        va: u64,
    ) -> Result<u64, VmError> {
        let vpn = va >> PAGE_SHIFT;
        let frame = match sweep.data {
            Some((v, frame)) if v == vpn => frame,
            _ => {
                let frame = match self.dtlb.lookup(space.asid(), vpn) {
                    Some(frame) => frame,
                    None => {
                        self.dtlb_misses += 1;
                        let frame = space.translate(pm, va & !PAGE_MASK)?;
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

    /// Executes one instruction: a one-instruction [`Interpreter::run`],
    /// which decodes without caching and allocates nothing.
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
        loop {
            let left = max_insts - (self.retired - start);
            if self.halted || left == 0 {
                return Ok(RunSummary { retired: self.retired - start, halted: self.halted });
            }
            let pc = self.pc;
            let one;
            let held;
            let insts: &[Inst] = match sweep.fetch(pm, space, pc)? {
                Fetched::One(inst) => {
                    one = [inst];
                    &one
                }
                Fetched::Block(block) => {
                    held = block;
                    &held[..held.len().min(usize::try_from(left).unwrap_or(usize::MAX))]
                }
            };
            self.run_block(&mut sweep, pm, space, pc, insts)?;
        }
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

    /// The one execute body: retires the straight-line `insts` fetched
    /// from `pc` onwards, then settles `pc` and `retired` once. It stops
    /// early after a store that ends the block (see [`Sweep::stored`]) and,
    /// on an error, leaves both at the faulting instruction.
    fn run_block(
        &mut self,
        sweep: &mut Sweep,
        pm: &mut PhysMem,
        space: &AddressSpace,
        pc: u64,
        insts: &[Inst],
    ) -> Result<(), RefError> {
        // Each integer op has its own arm, so the constant `op` folds the
        // shared `exec` helper's own dispatch away.
        macro_rules! rr {
            ($op:ident, $inst:expr) => {{
                let v = exec::int_rr($op, self.read_int($inst.ra), self.read_int($inst.rb));
                self.write_int($inst.rc, v);
            }};
        }
        macro_rules! ri {
            ($op:ident, $inst:expr) => {{
                let v = exec::int_ri($op, self.read_int($inst.ra), $inst.imm);
                self.write_int($inst.rb, v);
            }};
        }
        macro_rules! branch {
            ($op:ident, $inst:expr, $here:expr) => {{
                let next = if exec::branch_taken($op, self.read_int($inst.ra)) {
                    exec::direct_target($here, $inst.imm)
                } else {
                    $here.wrapping_add(4)
                };
                return self.settle(pc, $here, next);
            }};
        }
        use Op::*;
        let mut here = pc;
        for &inst in insts {
            match inst.op {
                Add => rr!(Add, inst),
                Sub => rr!(Sub, inst),
                Mul => rr!(Mul, inst),
                Divu => rr!(Divu, inst),
                And => rr!(And, inst),
                Or => rr!(Or, inst),
                Xor => rr!(Xor, inst),
                Sll => rr!(Sll, inst),
                Srl => rr!(Srl, inst),
                Sra => rr!(Sra, inst),
                Cmpeq => rr!(Cmpeq, inst),
                Cmplt => rr!(Cmplt, inst),
                Cmple => rr!(Cmple, inst),
                Cmpult => rr!(Cmpult, inst),
                Addi => ri!(Addi, inst),
                Andi => ri!(Andi, inst),
                Ori => ri!(Ori, inst),
                Xori => ri!(Xori, inst),
                Slli => ri!(Slli, inst),
                Srli => ri!(Srli, inst),
                Srai => ri!(Srai, inst),
                Cmpeqi => ri!(Cmpeqi, inst),
                Cmplti => ri!(Cmplti, inst),
                Ldi => ri!(Ldi, inst),
                Shlori => ri!(Shlori, inst),
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
                    let pa = match self.translate_data(sweep, pm, space, va) {
                        Ok(pa) => pa,
                        Err(source) => return self.fault(pc, here, source),
                    };
                    let v = pm.read_u64(pa);
                    if inst.op == Ldq {
                        self.write_int(inst.rb, v);
                    } else {
                        self.write_fp(inst.rb, v);
                    }
                }
                Stq | Fstq => {
                    let va = exec::align8(exec::effective_addr(self.read_int(inst.ra), inst.imm));
                    let pa = match self.translate_data(sweep, pm, space, va) {
                        Ok(pa) => pa,
                        Err(source) => return self.fault(pc, here, source),
                    };
                    let v = if inst.op == Stq {
                        self.read_int(inst.rb)
                    } else {
                        self.read_fp(inst.rb)
                    };
                    pm.write_u64(pa, v);
                    if sweep.stored(pa) {
                        return self.settle(pc, here, here.wrapping_add(4));
                    }
                }
                Beq => branch!(Beq, inst, here),
                Bne => branch!(Bne, inst, here),
                Blt => branch!(Blt, inst, here),
                Bge => branch!(Bge, inst, here),
                Bgt => branch!(Bgt, inst, here),
                Ble => branch!(Ble, inst, here),
                Br => return self.settle(pc, here, exec::direct_target(here, inst.imm)),
                Jal => {
                    self.write_int(inst.ra, here.wrapping_add(4));
                    return self.settle(pc, here, exec::direct_target(here, inst.imm));
                }
                Jr => return self.settle(pc, here, self.read_int(inst.rb)),
                Jalr => {
                    let target = self.read_int(inst.rb);
                    self.write_int(inst.ra, here.wrapping_add(4));
                    return self.settle(pc, here, target);
                }
                Ret => return self.settle(pc, here, self.read_int(inst.ra)),
                Nop => {}
                Halt => {
                    self.halted = true;
                    return self.settle(pc, here, here);
                }
                Mfpr | Mtpr | Tlbwr | Rfe | Hardexc | Mtdst => {
                    unreachable!("privileged ops are rejected at fetch")
                }
            }
            here = here.wrapping_add(4);
        }
        self.pc = here;
        self.retired += insts.len() as u64;
        Ok(())
    }

    /// Retires the block that started at `pc` through the instruction at
    /// `last` and continues at `next`.
    fn settle(&mut self, pc: u64, last: u64, next: u64) -> Result<(), RefError> {
        self.retired += last.wrapping_sub(pc) / 4 + 1;
        self.pc = next;
        Ok(())
    }

    /// Retires the block that started at `pc` up to, not including, the
    /// instruction at `here`, which failed to translate a data address.
    fn fault(&mut self, pc: u64, here: u64, source: VmError) -> Result<(), RefError> {
        self.retired += here.wrapping_sub(pc) / 4;
        self.pc = here;
        Err(RefError::Vm { pc: here, source })
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
