//! The data TLB: fully associative, LRU, with speculative-fill tracking.

use crate::{Asid, Paddr};

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address-space identifier of the owning thread.
    pub asid: Asid,
    /// Virtual page number.
    pub vpn: u64,
    /// Frame base address the page maps to.
    pub frame: Paddr,
    /// LRU timestamp (monotonic lookup counter).
    last_use: u64,
    /// For fills performed by an in-flight (still speculative) handler or
    /// hardware walk: an identifier that lets the fill be withdrawn if its
    /// exception turns out to be on a mis-speculated path.
    speculative_tag: Option<u64>,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
}

/// A fully associative, LRU-replaced translation lookaside buffer shared by
/// all SMT contexts (entries are ASID-tagged), sized per paper Table 1
/// (64 entries for the DTLB).
///
/// Fills can be *speculative*: the multithreaded handler writes the TLB when
/// its `TLBWR` executes and the hardware walker fills as soon as the walk
/// completes, both of which may be on a wrong path. Such fills carry a tag
/// and can later be committed ([`Tlb::commit`]) or withdrawn
/// ([`Tlb::squash`]).
///
/// ```
/// use smtx_mem::Tlb;
/// let mut tlb = Tlb::new(2);
/// tlb.insert(1, 0x10, 0x8000, None);
/// assert_eq!(tlb.lookup(1, 0x10), Some(0x8000));
/// assert_eq!(tlb.lookup(2, 0x10), None); // ASID mismatch
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    capacity: usize,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb { entries: Vec::with_capacity(capacity), capacity, clock: 0, stats: TlbStats::default() }
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up a translation, counting the access and updating LRU state.
    ///
    /// A hit also moves its entry to the front, so hot entries are found
    /// after a short scan. Replacement goes by `last_use` alone and no two
    /// entries share a key, so entry order never changes a result.
    #[must_use]
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<Paddr> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter().position(|e| e.asid == asid && e.vpn == vpn) {
            Some(i) => {
                self.entries[..=i].rotate_right(1);
                let e = &mut self.entries[0];
                e.last_use = clock;
                self.stats.hits += 1;
                Some(e.frame)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for a translation without counting the access or touching LRU
    /// state (used for duplicate-miss detection).
    #[must_use]
    pub fn probe(&self, asid: Asid, vpn: u64) -> Option<Paddr> {
        self.entries
            .iter()
            .find(|e| e.asid == asid && e.vpn == vpn)
            .map(|e| e.frame)
    }

    /// Inserts (or refreshes) a translation, evicting the LRU entry if the
    /// TLB is full. A `speculative_tag` marks the fill withdrawable.
    pub fn insert(&mut self, asid: Asid, vpn: u64, frame: Paddr, speculative_tag: Option<u64>) {
        self.clock += 1;
        let entry = TlbEntry { asid, vpn, frame, last_use: self.clock, speculative_tag };
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)
        {
            *existing = entry;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_use)
            .map(|(i, _)| i)
            .expect("capacity > 0");
        self.entries[victim] = entry;
    }

    /// Makes all fills carrying `tag` permanent (called when the filling
    /// handler retires or the faulting instruction of a hardware walk
    /// retires).
    pub fn commit(&mut self, tag: u64) {
        for e in &mut self.entries {
            if e.speculative_tag == Some(tag) {
                e.speculative_tag = None;
            }
        }
    }

    /// Withdraws all still-speculative fills carrying `tag` (called when the
    /// filling handler is squashed).
    pub fn squash(&mut self, tag: u64) {
        self.entries.retain(|e| e.speculative_tag != Some(tag));
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Invalidates the translation for one page, if present.
    pub fn invalidate(&mut self, asid: Asid, vpn: u64) {
        self.entries.retain(|e| !(e.asid == asid && e.vpn == vpn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(1, 5), None);
        tlb.insert(1, 5, 0x4000, None);
        assert_eq!(tlb.lookup(1, 5), Some(0x4000));
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn asid_isolates_threads() {
        let mut tlb = Tlb::new(4);
        tlb.insert(1, 9, 0x2000, None);
        tlb.insert(2, 9, 0x6000, None);
        assert_eq!(tlb.lookup(1, 9), Some(0x2000));
        assert_eq!(tlb.lookup(2, 9), Some(0x6000));
    }

    #[test]
    fn lru_replacement_evicts_coldest() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1, 1, 0x2000, None);
        tlb.insert(1, 2, 0x4000, None);
        let _ = tlb.lookup(1, 1); // touch vpn 1 so vpn 2 is LRU
        tlb.insert(1, 3, 0x6000, None);
        assert_eq!(tlb.probe(1, 1), Some(0x2000));
        assert_eq!(tlb.probe(1, 2), None, "vpn 2 was LRU and must be evicted");
        assert_eq!(tlb.probe(1, 3), Some(0x6000));
    }

    #[test]
    fn eviction_follows_last_use_not_entry_position() {
        let mut tlb = Tlb::new(3);
        for vpn in 1..=3 {
            tlb.insert(1, vpn, vpn << 13, None);
        }
        for vpn in [3, 1, 2] {
            assert_eq!(tlb.lookup(1, vpn), Some(vpn << 13));
        }
        tlb.insert(1, 4, 4 << 13, None); // evicts vpn 3, the coldest
        tlb.insert(1, 5, 5 << 13, None); // evicts vpn 1, not the newer vpn 4
        assert_eq!(tlb.probe(1, 3), None);
        assert_eq!(tlb.probe(1, 1), None);
        for vpn in [2, 4, 5] {
            assert_eq!(tlb.probe(1, vpn), Some(vpn << 13));
        }
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1, 1, 0x2000, None);
        tlb.insert(1, 2, 0x4000, None);
        let _ = tlb.probe(1, 1);
        let before = tlb.stats();
        tlb.insert(1, 3, 0x6000, None); // evicts vpn 1 (probe didn't refresh it)
        assert_eq!(tlb.probe(1, 1), None);
        assert_eq!(tlb.stats(), before);
    }

    #[test]
    fn speculative_fills_can_be_squashed_or_committed() {
        let mut tlb = Tlb::new(4);
        tlb.insert(1, 1, 0x2000, Some(42));
        tlb.insert(1, 2, 0x4000, Some(43));
        tlb.commit(43);
        tlb.squash(42);
        tlb.squash(43); // committed fill survives a later squash of its tag
        assert_eq!(tlb.probe(1, 1), None);
        assert_eq!(tlb.probe(1, 2), Some(0x4000));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1, 1, 0x2000, None);
        tlb.insert(1, 1, 0x8000, None);
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.probe(1, 1), Some(0x8000));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(1, 1, 0x2000, None);
        tlb.insert(1, 2, 0x4000, None);
        tlb.invalidate(1, 1);
        assert_eq!(tlb.probe(1, 1), None);
        assert_eq!(tlb.len(), 1);
        tlb.flush();
        assert!(tlb.is_empty());
    }
}
