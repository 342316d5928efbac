//! Linear page tables and per-thread address spaces.

use std::collections::BTreeSet;
use std::fmt;

use crate::phys::{PhysAlloc, PhysMem};
use crate::{Asid, Paddr, Vaddr};

/// log2 of the page size — 8 KB pages, as on the Alpha 21164.
pub const PAGE_SHIFT: u32 = 13;
/// The page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Mask of the page-offset bits.
pub const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Virtual addresses are limited to this many bits so a *linear* page table
/// stays small (the format the paper's PALcode handler walks).
pub const VA_BITS: u32 = 32;
/// One past the largest legal virtual address.
pub const VA_LIMIT: u64 = 1 << VA_BITS;
/// Number of PTEs in a linear page table.
pub const PT_ENTRIES: u64 = VA_LIMIT >> PAGE_SHIFT;

/// A page-table entry: frame base address in the high bits, valid bit in
/// bit 0.
///
/// ```
/// use smtx_mem::Pte;
/// let pte = Pte::valid(0x4000);
/// assert!(pte.is_valid());
/// assert_eq!(pte.frame(), 0x4000);
/// assert!(!Pte::INVALID.is_valid());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pte(pub u64);

impl Pte {
    /// The all-zero, invalid PTE.
    pub const INVALID: Pte = Pte(0);

    /// Builds a valid PTE mapping to the frame at `frame_base`.
    ///
    /// # Panics
    ///
    /// Panics if `frame_base` is not page aligned.
    #[must_use]
    pub fn valid(frame_base: Paddr) -> Pte {
        assert_eq!(frame_base & PAGE_MASK, 0, "frame base must be page aligned");
        Pte(frame_base | 1)
    }

    /// Whether the valid bit is set.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0 & 1 != 0
    }

    /// The frame base address this PTE maps to.
    #[must_use]
    pub fn frame(self) -> Paddr {
        self.0 & !PAGE_MASK
    }
}

/// Error type for virtual-memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The virtual address has no valid translation.
    Unmapped {
        /// The offending virtual address.
        va: Vaddr,
    },
    /// The virtual address is outside the architected [`VA_LIMIT`].
    OutOfRange {
        /// The offending virtual address.
        va: Vaddr,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Unmapped { va } => write!(f, "virtual address {va:#x} is not mapped"),
            VmError::OutOfRange { va } => write!(f, "virtual address {va:#x} exceeds VA space"),
        }
    }
}

impl std::error::Error for VmError {}

/// A per-thread virtual address space backed by a linear page table held in
/// simulated physical memory — the structure the software TLB-miss handler
/// walks with an ordinary cacheable load (paper §4.2).
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: Asid,
    pt_base: Paddr,
    mapped: BTreeSet<u64>,
}

impl AddressSpace {
    /// Creates an address space, allocating its page table physically.
    pub fn new(asid: Asid, pm: &mut PhysMem, alloc: &mut PhysAlloc) -> AddressSpace {
        let pt_pages = (PT_ENTRIES * 8).div_ceil(PAGE_SIZE);
        let pt_base = alloc.alloc_pages(pt_pages);
        // Touch the first PTE so the table's first frame exists.
        pm.write_u64(pt_base, Pte::INVALID.0);
        AddressSpace { asid, pt_base, mapped: BTreeSet::new() }
    }

    /// This space's address-space identifier (tags TLB entries).
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Physical base address of the linear page table (what `pr_pt_base`
    /// holds while a handler for this space runs).
    #[must_use]
    pub fn pt_base(&self) -> Paddr {
        self.pt_base
    }

    /// The physical byte range the linear page table occupies: a store
    /// into it may change a translation of this space.
    #[must_use]
    pub fn pt_range(&self) -> std::ops::Range<Paddr> {
        self.pt_base..self.pt_base + PT_ENTRIES * 8
    }

    /// The physical address of the PTE covering `va` — the address the
    /// TLB-miss handler computes and loads from.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfRange`] if `va` exceeds the VA space.
    pub fn pte_addr(&self, va: Vaddr) -> Result<Paddr, VmError> {
        if va >= VA_LIMIT {
            return Err(VmError::OutOfRange { va });
        }
        Ok(self.pt_base + (va >> PAGE_SHIFT) * 8)
    }

    /// Maps the page containing `va` to the frame at `frame_base`.
    ///
    /// # Panics
    ///
    /// Panics if `frame_base` is not page aligned or `va` is out of range.
    pub fn map(&mut self, pm: &mut PhysMem, va: Vaddr, frame_base: Paddr) {
        let pte_addr = self.pte_addr(va).expect("va in range");
        pm.write_u64(pte_addr, Pte::valid(frame_base).0);
        self.mapped.insert(va >> PAGE_SHIFT);
    }

    /// Unmaps the page containing `va` (writes an invalid PTE).
    ///
    /// # Panics
    ///
    /// Panics if `va` is out of range.
    pub fn unmap(&mut self, pm: &mut PhysMem, va: Vaddr) {
        let pte_addr = self.pte_addr(va).expect("va in range");
        pm.write_u64(pte_addr, Pte::INVALID.0);
        self.mapped.remove(&(va >> PAGE_SHIFT));
    }

    /// Walks the page table for `va`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if `va` is out of range or unmapped.
    pub fn translate(&self, pm: &PhysMem, va: Vaddr) -> Result<Paddr, VmError> {
        let pte = Pte(pm.read_u64(self.pte_addr(va)?));
        if !pte.is_valid() {
            return Err(VmError::Unmapped { va });
        }
        Ok(pte.frame() | (va & PAGE_MASK))
    }

    /// Reads a virtual 64-bit word (host-side convenience for workload setup
    /// and result checking).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the address does not translate.
    pub fn read_u64(&self, pm: &PhysMem, va: Vaddr) -> Result<u64, VmError> {
        Ok(pm.read_u64(self.translate(pm, va)?))
    }

    /// Writes a virtual 64-bit word (host-side convenience).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the address does not translate.
    pub fn write_u64(&mut self, pm: &mut PhysMem, va: Vaddr, value: u64) -> Result<(), VmError> {
        let pa = self.translate(pm, va)?;
        pm.write_u64(pa, value);
        Ok(())
    }

    /// Reads a virtual 32-bit word (instruction fetch).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the address does not translate.
    pub fn read_u32(&self, pm: &PhysMem, va: Vaddr) -> Result<u32, VmError> {
        Ok(pm.read_u32(self.translate(pm, va)?))
    }

    /// Writes a virtual 32-bit word (program loading).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the address does not translate.
    pub fn write_u32(&mut self, pm: &mut PhysMem, va: Vaddr, value: u32) -> Result<(), VmError> {
        let pa = self.translate(pm, va)?;
        pm.write_u32(pa, value);
        Ok(())
    }

    /// Iterates the virtual page numbers currently mapped, in order.
    pub fn mapped_vpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.mapped.iter().copied()
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_page_count(&self) -> usize {
        self.mapped.len()
    }

    /// A deterministic FNV-1a hash of the *virtual* memory image: every
    /// mapped page's VPN and contents, in VPN order. Two address spaces with
    /// the same virtual layout and data hash equal even if their physical
    /// frame assignments differ — exactly what differential tests between
    /// two independently-allocated machines need.
    #[must_use]
    pub fn content_hash(&self, pm: &PhysMem) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for vpn in self.mapped.iter().copied() {
            for byte in vpn.to_le_bytes() {
                mix(byte);
            }
            let va = vpn << PAGE_SHIFT;
            for off in (0..PAGE_SIZE).step_by(8) {
                let word = pm.read_u64(
                    self.translate(pm, va + off).expect("mapped page translates"),
                );
                for byte in word.to_le_bytes() {
                    mix(byte);
                }
            }
        }
        hash
    }

    /// Maps `n` fresh frames starting at virtual address `va` and returns
    /// `va` (convenience used by every workload).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not page aligned.
    pub fn map_region(
        &mut self,
        pm: &mut PhysMem,
        alloc: &mut PhysAlloc,
        va: Vaddr,
        n_pages: u64,
    ) -> Vaddr {
        assert_eq!(va & PAGE_MASK, 0, "region base must be page aligned");
        for i in 0..n_pages {
            let frame = alloc.alloc_page();
            self.map(pm, va + i * PAGE_SIZE, frame);
        }
        va
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, PhysAlloc, AddressSpace) {
        let mut pm = PhysMem::new();
        let mut alloc = PhysAlloc::new();
        let space = AddressSpace::new(7, &mut pm, &mut alloc);
        (pm, alloc, space)
    }

    #[test]
    fn map_then_translate() {
        let (mut pm, mut alloc, mut space) = setup();
        let frame = alloc.alloc_page();
        space.map(&mut pm, 0x1000_0000, frame);
        assert_eq!(space.translate(&pm, 0x1000_0000).unwrap(), frame);
        assert_eq!(space.translate(&pm, 0x1000_0008).unwrap(), frame + 8);
        assert_eq!(
            space.translate(&pm, 0x1000_0000 + PAGE_SIZE),
            Err(VmError::Unmapped { va: 0x1000_0000 + PAGE_SIZE })
        );
    }

    #[test]
    fn unmap_invalidates() {
        let (mut pm, mut alloc, mut space) = setup();
        let frame = alloc.alloc_page();
        space.map(&mut pm, 0x2000, frame);
        assert!(space.translate(&pm, 0x2000).is_ok());
        space.unmap(&mut pm, 0x2000);
        assert_eq!(space.translate(&pm, 0x2000), Err(VmError::Unmapped { va: 0x2000 }));
        assert_eq!(space.mapped_page_count(), 0);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let (pm, _alloc, space) = setup();
        assert_eq!(
            space.translate(&pm, VA_LIMIT),
            Err(VmError::OutOfRange { va: VA_LIMIT })
        );
    }

    #[test]
    fn virtual_read_write_round_trip() {
        let (mut pm, mut alloc, mut space) = setup();
        space.map_region(&mut pm, &mut alloc, 0x4000_0000 & !PAGE_MASK, 2);
        space.write_u64(&mut pm, 0x4000_0010, 0xabcd).unwrap();
        assert_eq!(space.read_u64(&pm, 0x4000_0010).unwrap(), 0xabcd);
        space.write_u32(&mut pm, 0x4000_2004, 0x1234_5678).unwrap();
        assert_eq!(space.read_u32(&pm, 0x4000_2004).unwrap(), 0x1234_5678);
    }

    #[test]
    fn pte_addr_matches_handler_computation() {
        let (mut pm, mut alloc, mut space) = setup();
        let frame = alloc.alloc_page();
        let va = 0x0123_4000 & !PAGE_MASK;
        space.map(&mut pm, va, frame);
        // The handler computes pt_base + (va >> 13) * 8.
        let expected = space.pt_base() + (va >> PAGE_SHIFT) * 8;
        assert_eq!(space.pte_addr(va).unwrap(), expected);
        let pte = Pte(pm.read_u64(expected));
        assert!(pte.is_valid());
        assert_eq!(pte.frame(), frame);
    }

    #[test]
    fn distinct_spaces_have_distinct_tables() {
        let mut pm = PhysMem::new();
        let mut alloc = PhysAlloc::new();
        let a = AddressSpace::new(1, &mut pm, &mut alloc);
        let b = AddressSpace::new(2, &mut pm, &mut alloc);
        assert_ne!(a.pt_base(), b.pt_base());
        assert_ne!(a.asid(), b.asid());
    }
}
