//! # smtx-workloads — benchmarks, PAL code and program generation
//!
//! The workload side of the reproduction of *"The Use of Multithreading for
//! Exception Handling"* (MICRO-32, 1999):
//!
//! * [`pal_handler`] — the software TLB-miss handler (PAL code),
//! * [`Kernel`] — eight synthetic kernels standing in for the paper's
//!   Alpha benchmarks (Table 2), shaped to their published TLB-miss
//!   densities and ILP character,
//! * [`randprog`] — a random-program generator for differential testing,
//! * [`MIXES`] — the eight three-benchmark combinations of Fig. 7,
//! * loader helpers that wire a kernel into a [`Machine`] or build the
//!   matching reference world for an [`Interpreter`].
//!
//! # Example
//!
//! ```
//! use smtx_core::{ExnMechanism, Machine, MachineConfig};
//! use smtx_workloads::{load_kernel, Kernel};
//!
//! let mut m = Machine::new(MachineConfig::paper_baseline(ExnMechanism::Multithreaded));
//! load_kernel(&mut m, 0, Kernel::Compress, 42);
//! m.set_budget(0, 20_000);
//! let stats = m.run(1_000_000);
//! assert_eq!(stats.retired(0), 20_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod kernels;
mod pal;
pub mod randprog;

pub use asm::{asm_kernels, load_asm_dir, register_asm, AsmId};
pub use kernels::Kernel;
pub use pal::{emul_divu_handler, pal_handler};

use smtx_core::{Interpreter, Machine};
use smtx_isa::Program;
use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};

/// The eight three-application combinations of paper Fig. 7.
pub const MIXES: [[Kernel; 3]; 8] = [
    [Kernel::Alphadoom, Kernel::Gcc, Kernel::Vortex],
    [Kernel::Applu, Kernel::Compress, Kernel::Hydro2d],
    [Kernel::Applu, Kernel::Deltablue, Kernel::Vortex],
    [Kernel::Deltablue, Kernel::Gcc, Kernel::Hydro2d],
    [Kernel::Alphadoom, Kernel::Compress, Kernel::Vortex],
    [Kernel::Alphadoom, Kernel::Hydro2d, Kernel::Murphi],
    [Kernel::Applu, Kernel::Deltablue, Kernel::Murphi],
    [Kernel::Compress, Kernel::Gcc, Kernel::Murphi],
];

/// Loads `kernel` into `machine` at context `tid` (installs the PAL
/// handler if not yet installed, creates the address space, maps code and
/// data) and returns the address-space index.
pub fn load_kernel(machine: &mut Machine, tid: usize, kernel: Kernel, seed: u64) -> usize {
    if machine.pal_handler_len() == 0 {
        machine.install_pal_handler(&pal_handler());
    }
    let program = kernel.program(seed);
    let space = machine.attach_program(tid, &program);
    let (sp, pm, alloc) = machine.vm_parts(space);
    kernel.setup(seed, sp, pm, alloc);
    space
}

/// A self-contained reference world: interpreter + its memory image.
#[derive(Debug)]
pub struct ReferenceWorld {
    /// Physical memory of the reference world.
    pub pm: PhysMem,
    /// The (only) address space.
    pub space: AddressSpace,
    /// The interpreter, positioned at the program entry.
    pub interp: Interpreter,
}

impl ReferenceWorld {
    /// Runs the interpreter for up to `max_insts` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the program faults (reference programs must be clean).
    pub fn run(&mut self, max_insts: u64) -> smtx_core::RunSummary {
        self.interp
            .run(&mut self.pm, &mut self.space, max_insts)
            .expect("reference program runs clean")
    }
}

/// Builds the reference world for an arbitrary program plus a data-setup
/// callback.
pub fn reference_world(
    program: &Program,
    setup: impl FnOnce(&mut AddressSpace, &mut PhysMem, &mut PhysAlloc),
) -> ReferenceWorld {
    let mut pm = PhysMem::new();
    let mut alloc = PhysAlloc::new();
    let mut space = AddressSpace::new(1, &mut pm, &mut alloc);
    let pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1) + 1;
    space.map_region(&mut pm, &mut alloc, program.base() & !(PAGE_SIZE - 1), pages);
    for (i, &w) in program.words().iter().enumerate() {
        space
            .write_u32(&mut pm, program.base() + i as u64 * 4, w)
            .expect("code mapped");
    }
    setup(&mut space, &mut pm, &mut alloc);
    let interp = Interpreter::new(program.base());
    ReferenceWorld { pm, space, interp }
}

/// Builds the reference world for a kernel.
#[must_use]
pub fn kernel_reference(kernel: Kernel, seed: u64) -> ReferenceWorld {
    let program = kernel.program(seed);
    reference_world(&program, |space, pm, alloc| kernel.setup(seed, space, pm, alloc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_match_the_paper_figure_7_labels() {
        // Fig. 7 x-axis: adm-gcc-vor, apl-cmp-h2d, apl-dbl-vor, dbl-gcc-h2d,
        // adm-cmp-vor, adm-h2d-mph, apl-dbl-mph, cmp-gcc-mph.
        let labels: Vec<String> = MIXES
            .iter()
            .map(|m| m.iter().map(|k| k.tag()).collect::<Vec<_>>().join("-"))
            .collect();
        assert_eq!(
            labels,
            [
                "adm-gcc-vor",
                "apl-cmp-h2d",
                "apl-dbl-vor",
                "dbl-gcc-h2d",
                "adm-cmp-vor",
                "adm-h2d-mph",
                "apl-dbl-mph",
                "cmp-gcc-mph"
            ]
        );
    }

    #[test]
    fn every_kernel_runs_on_the_interpreter() {
        for k in Kernel::ALL {
            let mut world = kernel_reference(k, 7);
            let s = world.run(30_000);
            assert_eq!(s.retired, 30_000, "{} must not halt early", k.name());
            assert!(
                world.interp.dtlb_misses() > 0,
                "{} must take TLB misses",
                k.name()
            );
        }
    }
}
