//! Dynamic (in-flight) instruction state.

use smtx_branch::BranchCheckpoint;
use smtx_isa::{BranchKind, Inst, Op, PrivReg};
use smtx_mem::Asid;

/// Which register file a renamed operand lives in.
///
/// `Shadow` is the PAL-mode view of the integer registers: exception
/// handlers get an independent set of temporaries, so no register values
/// ever cross between an application and its handler (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// User-mode integer registers.
    Int,
    /// Floating-point registers.
    Fp,
    /// PAL-mode shadow integer registers.
    Shadow,
    /// Privileged registers (`pr_fault_va` etc.), renamed like any other
    /// class so multiple exceptions can be in flight (paper Table 1: "TLB
    /// miss registers are renamed").
    Priv,
}

/// A source operand: either already resolved to a value or waiting on an
/// in-flight producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcState {
    /// The operand value is known.
    Value(u64),
    /// Waiting for the instruction with this sequence number to complete.
    Waiting {
        /// Producer sequence number.
        producer: u64,
    },
}

/// Branch-prediction state captured at fetch, needed at resolution.
#[derive(Debug, Clone, Copy)]
pub struct PredInfo {
    /// Classification of the control transfer.
    pub kind: BranchKind,
    /// Predictor checkpoint taken *before* this branch's prediction. Its
    /// global and path histories are the ones the prediction read, so
    /// retirement trains the predictors with them.
    pub checkpoint: BranchCheckpoint,
    /// The PC fetch continued at after this branch.
    pub predicted_next: u64,
}

/// An instruction in a context's front-end queue (fetched, not yet
/// renamed into the window).
#[derive(Debug, Clone)]
pub struct FrontEndInst {
    /// Global fetch-order sequence number.
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// The decoded instruction word.
    pub inst: Inst,
    /// Fetched in PAL (privileged) mode.
    pub pal: bool,
    /// Branch-prediction state, if this is a control transfer.
    pub pred: Option<PredInfo>,
    /// First cycle at which decode may take the instruction (the end of
    /// the fetch pipe).
    pub ready_at: u64,
}

/// An instruction in the instruction window.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Global fetch-order sequence number (the scheduler issues oldest
    /// fetched first across all threads, paper Table 1).
    pub seq: u64,
    /// Hardware context that fetched the instruction.
    pub tid: usize,
    /// Fetch PC.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Executing in PAL (privileged) mode.
    pub pal: bool,
    /// Source operands (unused slots hold `Value(0)`).
    pub srcs: [SrcState; 2],
    /// Destination register, if any.
    pub dest: Option<(RegClass, u8)>,
    /// The previous in-flight writer of `dest` at rename time (squash
    /// recovery restores the rename map to this).
    pub prev_writer: Option<u64>,
    /// The computed result (dest value; stores: the store data; branches:
    /// the link value if any).
    pub result: u64,
    /// Branch-prediction state, if this is a control transfer.
    pub pred: Option<PredInfo>,
    /// Resolved direction (branches).
    pub taken: bool,
    /// Resolved next PC (branches).
    pub actual_next: u64,
    /// Effective virtual address (memory operations, once executed).
    pub mem_vaddr: Option<u64>,
    /// Translated physical address (memory operations, once translated).
    pub mem_paddr: Option<u64>,
    /// Set while the instruction waits for a TLB fill for this
    /// `(asid, vpn)`.
    pub waiting_tlb: Option<(Asid, u64)>,
    /// This instruction took a data-TLB miss at least once.
    pub caused_tlb_miss: bool,
    /// The exception-handler thread linked to this (excepting) instruction.
    pub handler_tid: Option<usize>,
}

impl DynInst {
    /// Builds the window entry for a front-end instruction, with operands
    /// still unrenamed (the machine fills `srcs`/`prev_writer` during
    /// rename). Scheduler state (`earliest_issue` and the issued / done
    /// bits) lives in the window arena's SoA arrays, not here — see
    /// [`crate::window::Window`].
    #[must_use]
    pub fn from_frontend(fe: &FrontEndInst, tid: usize) -> DynInst {
        DynInst {
            seq: fe.seq,
            tid,
            pc: fe.pc,
            inst: fe.inst,
            pal: fe.pal,
            srcs: [SrcState::Value(0), SrcState::Value(0)],
            dest: None,
            prev_writer: None,
            result: 0,
            pred: fe.pred,
            taken: false,
            actual_next: 0,
            mem_vaddr: None,
            mem_paddr: None,
            waiting_tlb: None,
            caused_tlb_miss: false,
            handler_tid: None,
        }
    }

    /// Returns `true` once every source operand is resolved.
    #[must_use]
    pub fn srcs_ready(&self) -> bool {
        self.srcs.iter().all(|s| matches!(s, SrcState::Value(_)))
    }

    /// The resolved value of source slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if the operand is still waiting.
    #[must_use]
    pub fn src_value(&self, i: usize) -> u64 {
        match self.srcs[i] {
            SrcState::Value(v) => v,
            SrcState::Waiting { producer } => {
                panic!("operand {i} of seq {} still waiting on {producer}", self.seq)
            }
        }
    }
}

/// The source-operand slots of an instruction: at most two positional
/// `(class, index)` pairs, with unused slots `None`. A fixed array rather
/// than a `Vec` — rename runs once per decoded instruction, and this keeps
/// it allocation-free.
pub type SrcOperands = [Option<(RegClass, u8)>; 2];

/// The register operands an instruction reads and writes, as
/// `(class, index)` pairs. PAL-mode instructions see the shadow integer
/// file.
///
/// Source operands are *positional*: execution reads slot 0/1 by the op's
/// convention, so hardwired-zero sources are kept in place (rename resolves
/// them to the constant 0). Writes to zero registers are dropped (`dest`
/// becomes `None`).
#[must_use]
pub fn operands(inst: &Inst, pal: bool) -> (SrcOperands, Option<(RegClass, u8)>) {
    use Op::*;
    let int = if pal { RegClass::Shadow } else { RegClass::Int };
    let (srcs, dest): (SrcOperands, Option<(RegClass, u8)>) = match inst.op {
        Add | Sub | Mul | Divu | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
        | Cmpult => {
            ([Some((int, inst.ra)), Some((int, inst.rb))], Some((int, inst.rc)))
        }
        Addi | Andi | Ori | Xori | Slli | Srli | Srai | Cmpeqi | Cmplti | Shlori => {
            ([Some((int, inst.ra)), None], Some((int, inst.rb)))
        }
        Ldi => ([None, None], Some((int, inst.rb))),
        Fadd | Fsub | Fmul | Fdiv => (
            [Some((RegClass::Fp, inst.ra)), Some((RegClass::Fp, inst.rb))],
            Some((RegClass::Fp, inst.rc)),
        ),
        Fsqrt => ([Some((RegClass::Fp, inst.ra)), None], Some((RegClass::Fp, inst.rc))),
        Fcmpeq | Fcmplt => (
            [Some((RegClass::Fp, inst.ra)), Some((RegClass::Fp, inst.rb))],
            Some((int, inst.rc)),
        ),
        Itof => ([Some((int, inst.ra)), None], Some((RegClass::Fp, inst.rc))),
        Ftoi => ([Some((RegClass::Fp, inst.ra)), None], Some((int, inst.rc))),
        Ldq => ([Some((int, inst.ra)), None], Some((int, inst.rb))),
        Fldq => ([Some((int, inst.ra)), None], Some((RegClass::Fp, inst.rb))),
        Stq => ([Some((int, inst.ra)), Some((int, inst.rb))], None),
        Fstq => ([Some((int, inst.ra)), Some((RegClass::Fp, inst.rb))], None),
        Beq | Bne | Blt | Bge | Bgt | Ble => ([Some((int, inst.ra)), None], None),
        Br => ([None, None], None),
        Jal => ([None, None], Some((int, inst.ra))),
        Jr => ([Some((int, inst.rb)), None], None),
        Jalr => ([Some((int, inst.rb)), None], Some((int, inst.ra))),
        Ret => ([Some((int, inst.ra)), None], None),
        Mfpr => ([Some((RegClass::Priv, inst.imm as u8)), None], Some((int, inst.rb))),
        Mtpr => ([Some((int, inst.rb)), None], Some((RegClass::Priv, inst.imm as u8))),
        Mtdst => ([Some((int, inst.rb)), None], None),
        Tlbwr => ([Some((int, inst.ra)), Some((int, inst.rb))], None),
        Rfe => ([Some((RegClass::Priv, PrivReg::ExcPc.index() as u8)), None], None),
        Hardexc | Nop | Halt => ([None, None], None),
    };
    // Writes to the hardwired zero registers are discarded.
    let dest = dest.filter(
        |&(class, idx)| !matches!(class, RegClass::Int | RegClass::Shadow | RegClass::Fp if idx == 31),
    );
    (srcs, dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pal_mode_uses_shadow_registers() {
        let inst = Inst::r(Op::Add, 1, 2, 3);
        let (srcs, dest) = operands(&inst, true);
        assert_eq!(srcs, [Some((RegClass::Shadow, 1)), Some((RegClass::Shadow, 2))]);
        assert_eq!(dest, Some((RegClass::Shadow, 3)));
        let (srcs_u, dest_u) = operands(&inst, false);
        assert_eq!(srcs_u, [Some((RegClass::Int, 1)), Some((RegClass::Int, 2))]);
        assert_eq!(dest_u, Some((RegClass::Int, 3)));
    }

    #[test]
    fn zero_register_destinations_are_dropped_but_sources_stay_positional() {
        let inst = Inst::r(Op::Add, 31, 2, 31);
        let (srcs, dest) = operands(&inst, false);
        assert_eq!(srcs, [Some((RegClass::Int, 31)), Some((RegClass::Int, 2))]);
        assert_eq!(dest, None);
    }

    #[test]
    fn stores_read_base_and_data() {
        let (srcs, dest) = operands(&Inst::i(Op::Stq, 4, 5, 8), false);
        assert_eq!(srcs, [Some((RegClass::Int, 4)), Some((RegClass::Int, 5))]);
        assert_eq!(dest, None);
        let (fsrcs, _) = operands(&Inst::i(Op::Fstq, 4, 5, 8), false);
        assert_eq!(fsrcs, [Some((RegClass::Int, 4)), Some((RegClass::Fp, 5))]);
    }

    #[test]
    fn privileged_operands() {
        let (srcs, dest) = operands(&Inst::i(Op::Mfpr, 0, 3, 0), true);
        assert_eq!(srcs, [Some((RegClass::Priv, 0)), None]);
        assert_eq!(dest, Some((RegClass::Shadow, 3)));
        let (srcs, dest) = operands(&Inst::i(Op::Mtpr, 0, 3, 4), true);
        assert_eq!(srcs, [Some((RegClass::Shadow, 3)), None]);
        assert_eq!(dest, Some((RegClass::Priv, 4)));
        let (srcs, dest) = operands(&Inst::n(Op::Rfe), true);
        assert_eq!(srcs, [Some((RegClass::Priv, PrivReg::ExcPc.index() as u8)), None]);
        assert_eq!(dest, None);
    }

    #[test]
    fn srcs_ready_tracks_operand_state() {
        let fe = FrontEndInst {
            seq: 1,
            pc: 0,
            inst: Inst::r(Op::Add, 1, 2, 3),
            pal: false,
            pred: None,
            ready_at: 0,
        };
        let mut di = DynInst::from_frontend(&fe, 0);
        assert!(di.srcs_ready());
        di.srcs[0] = SrcState::Waiting { producer: 7 };
        assert!(!di.srcs_ready());
        di.srcs[0] = SrcState::Value(9);
        assert!(di.srcs_ready());
        assert_eq!(di.src_value(0), 9);
    }
}
