//! Tier-1 of the two-tier engine: functional fast-forward checkpoints.
//!
//! A [`Checkpoint`] captures the architectural state of a freshly loaded
//! [`Machine`] — physical memory, frame allocator, address spaces, PAL
//! regions, and each running thread's PC and register files — and then
//! fast-forwards every running thread by `skip` instructions using the
//! [`Interpreter`]. The result can be restored into any number of fresh
//! machines, of *any* configuration, so a config sweep pays the functional
//! fast-forward once and replays it per configuration.
//!
//! Correctness leans on two properties of the model:
//!
//! * the interpreter is the architectural oracle: committed state after N
//!   instructions is identical between the detailed pipeline and the
//!   interpreter, under every exception mechanism;
//! * address spaces own disjoint physical frames, so fast-forwarding the
//!   threads one after the other over the shared physical memory is exact
//!   even for multiprogrammed mixes.
//!
//! Restoring starts the detailed core *cold* (empty caches, TLB, and
//! predictors), exactly as if the machine had been loaded at the
//! checkpointed state; a restore with `skip == 0` is bit-identical to the
//! normal load path.

use smtx_mem::{AddressSpace, PhysAlloc, PhysMem};

use crate::machine::Machine;
use crate::refmodel::{Interpreter, RefError};
use crate::thread::ThreadState;

/// Architectural state of one running thread at the checkpoint.
#[derive(Debug, Clone)]
pub struct ThreadCheckpoint {
    /// Hardware context index.
    pub tid: usize,
    /// Index of the thread's address space.
    pub space: usize,
    /// PC after the fast-forward.
    pub pc: u64,
    /// Committed integer registers.
    pub int_regs: [u64; 32],
    /// Committed floating-point registers.
    pub fp_regs: [u64; 32],
}

/// A reusable architectural checkpoint: the complete machine-independent
/// state needed to start detailed simulation `skip` instructions into each
/// thread's execution.
///
/// Cloning the contained [`PhysMem`] is copy-on-write, so restoring into
/// many machines shares the memory image instead of duplicating it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    skip: u64,
    pm: PhysMem,
    alloc: PhysAlloc,
    spaces: Vec<AddressSpace>,
    pal_base: u64,
    pal_len: usize,
    emul_base: u64,
    emul_len: usize,
    threads: Vec<ThreadCheckpoint>,
}

impl Checkpoint {
    /// Captures the architectural state of a freshly loaded `machine` and
    /// fast-forwards every running thread by `skip` instructions with the
    /// functional interpreter.
    ///
    /// # Errors
    ///
    /// Returns the interpreter's [`RefError`] if a thread faults during the
    /// fast-forward (unmapped access, undecodable word, privileged op).
    ///
    /// # Panics
    ///
    /// Panics if the machine has already run (checkpoints must capture
    /// load-time state) or if a thread halts before `skip` instructions.
    pub fn capture(machine: &Machine, skip: u64) -> Result<Checkpoint, RefError> {
        assert_eq!(
            machine.cycle, 0,
            "capture requires a freshly loaded machine (cycle 0)"
        );
        assert!(
            machine.window.is_empty() && machine.next_seq == 0,
            "capture requires a machine with no in-flight instructions"
        );
        let mut ck = Checkpoint {
            skip,
            pm: machine.pm.clone(),
            alloc: machine.alloc.clone(),
            spaces: machine.spaces.clone(),
            pal_base: machine.pal_base,
            pal_len: machine.pal_len,
            emul_base: machine.emul_base,
            emul_len: machine.emul_len,
            threads: Vec::new(),
        };
        for (tid, t) in machine.threads.iter().enumerate() {
            if t.state != ThreadState::Run {
                continue;
            }
            let space = t.space.expect("running thread has a space");
            let mut interp = Interpreter::from_state(t.fetch_pc, t.int_regs, t.fp_regs);
            if skip > 0 {
                let summary = interp
                    .run(&mut ck.pm, &mut ck.spaces[space], skip)
                    .map_err(|e| {
                        // Give the thread id some visibility before bubbling
                        // the architectural error up.
                        eprintln!("checkpoint fast-forward failed on thread {tid}: {e}");
                        e
                    })?;
                assert_eq!(
                    summary.retired, skip,
                    "thread {tid} halted after {} instructions; cannot fast-forward {skip}",
                    summary.retired
                );
            }
            ck.threads.push(ThreadCheckpoint {
                tid,
                space,
                pc: interp.pc(),
                int_regs: *interp.int_regs(),
                fp_regs: *interp.fp_regs(),
            });
        }
        Ok(ck)
    }

    /// Instructions each thread was fast-forwarded by.
    #[must_use]
    pub fn skip(&self) -> u64 {
        self.skip
    }

    /// Approximate resident size of this checkpoint in bytes: pages of the
    /// memory image not shared (copy-on-write) with another live image,
    /// plus per-thread state and a fixed structural overhead. Used by the
    /// runner's checkpoint-cache size accounting; the estimate is frozen at
    /// insertion, so eviction bookkeeping stays exact even as sharing
    /// changes afterwards.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let owned = self.pm.resident_pages().saturating_sub(self.pm.shared_pages());
        owned as u64 * smtx_mem::PAGE_SIZE
            + self.threads.len() as u64 * std::mem::size_of::<ThreadCheckpoint>() as u64
            + 4096
    }

    /// Per-thread architectural state at the checkpoint.
    #[must_use]
    pub fn threads(&self) -> &[ThreadCheckpoint] {
        &self.threads
    }

    /// Counts the architectural (workload-intrinsic) DTLB misses thread
    /// `tid` incurs in the `insts` instructions following the checkpoint,
    /// with a cold 64-entry DTLB — the denominator of every penalty-per-miss
    /// metric measured from this checkpoint. Runs on a copy-on-write clone
    /// of the checkpoint's memory, leaving the checkpoint reusable.
    ///
    /// `epoch` is the window's epoch-reset schedule, applied as in
    /// [`Interpreter::run_window`].
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not a checkpointed thread, if the continuation
    /// faults, or if the thread halts early.
    #[must_use]
    pub fn arch_misses_in_window(&self, tid: usize, insts: u64, epoch: Option<u64>) -> u64 {
        let tc = self
            .threads
            .iter()
            .find(|t| t.tid == tid)
            .expect("tid is a checkpointed thread");
        let mut pm = self.pm.clone();
        let mut space = self.spaces[tc.space].clone();
        let mut interp = Interpreter::from_state(tc.pc, tc.int_regs, tc.fp_regs);
        let summary = interp
            .run_window(&mut pm, &mut space, insts, epoch)
            .expect("window continuation executes cleanly");
        assert_eq!(summary.retired, insts, "thread {tid} halted inside the measurement window");
        interp.dtlb_misses()
    }
}

impl Machine {
    /// Restores a checkpoint into this freshly created machine: installs
    /// the memory image, allocator, address spaces and PAL regions, and
    /// starts every checkpointed thread at its fast-forwarded PC with its
    /// register files. Microarchitectural state (caches, TLB, predictors)
    /// starts cold, exactly as after the normal load path — a `skip == 0`
    /// checkpoint restore is bit-identical to loading directly.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not fresh (already has spaces, PAL code or
    /// has run) or has fewer contexts than the checkpoint needs.
    pub fn restore(&mut self, ck: &Checkpoint) {
        assert_eq!(self.cycle, 0, "restore requires a fresh machine");
        assert!(
            self.spaces.is_empty() && self.pal_len == 0 && self.next_seq == 0,
            "restore requires a machine with nothing loaded"
        );
        self.pm = ck.pm.clone();
        self.alloc = ck.alloc.clone();
        self.spaces = ck.spaces.clone();
        self.pal_base = ck.pal_base;
        self.pal_len = ck.pal_len;
        self.emul_base = ck.emul_base;
        self.emul_len = ck.emul_len;
        for tc in &ck.threads {
            assert!(
                tc.tid < self.threads.len(),
                "config has {} contexts but the checkpoint needs thread {}",
                self.threads.len(),
                tc.tid
            );
            self.start_thread(tc.tid, tc.space, tc.pc);
            let t = &mut self.threads[tc.tid];
            t.int_regs = tc.int_regs;
            t.fp_regs = tc.fp_regs;
        }
    }
}
