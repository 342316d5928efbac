//! A set-associative tag array with LRU replacement (timing-only cache).

use crate::Paddr;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero fields, non-power-of-two
    /// line size, or size not divisible by `assoc * line`).
    #[must_use]
    pub fn sets(&self) -> u64 {
        assert!(self.size > 0 && self.assoc > 0 && self.line > 0, "zero geometry field");
        assert!(self.line.is_power_of_two(), "line size must be a power of two");
        let sets = self.size / (self.assoc as u64 * self.line);
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// A timing-only set-associative cache: it tracks which lines are resident
/// and answers hit/miss; data always comes from [`crate::PhysMem`].
///
/// Misses allocate immediately (the hierarchy layer accounts for when the
/// data actually arrives). Speculative (wrong-path) accesses go through the
/// same path — this is what produces the cache-pollution effect the paper
/// observes on `gcc` (§5.3).
///
/// ```
/// use smtx_mem::{Cache, CacheGeometry};
/// let mut c = Cache::new(CacheGeometry { size: 1024, assoc: 2, line: 32 });
/// assert!(!c.access(0x40));  // cold miss (allocates)
/// assert!(c.access(0x40));   // now hits
/// assert!(c.access(0x44));   // same line
/// ```
///
/// The tag array is one flat allocation, way `w` of set `s` at index
/// `s * assoc + w`, so building a hierarchy costs one allocation per level
/// rather than one per set.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets * assoc` lines, set-major.
    lines: Vec<Line>,
    sets: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Cache {
        let sets = geometry.sets();
        Cache {
            geometry,
            lines: vec![Line { tag: 0, valid: false, last_use: 0 }; sets as usize * geometry.assoc],
            sets,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: Paddr) -> Paddr {
        addr & !(self.geometry.line - 1)
    }

    /// The ways of `addr`'s set (a slice of the flat tag array) and the
    /// line's tag.
    fn set_and_tag(&self, addr: Paddr) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.geometry.line;
        let start = (line % self.sets) as usize * self.geometry.assoc;
        (start..start + self.geometry.assoc, line / self.sets)
    }

    /// Accesses `addr`: returns `true` on a hit. A miss allocates the line
    /// (evicting the set's LRU way).
    pub fn access(&mut self, addr: Paddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let (ways, tag) = self.set_and_tag(addr);
        let set = &mut self.lines[ways];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("assoc > 0");
        *victim = Line { tag, valid: true, last_use: clock };
        false
    }

    /// Checks residency without updating LRU state or counters.
    #[must_use]
    pub fn probe(&self, addr: Paddr) -> bool {
        let (ways, tag) = self.set_and_tag(addr);
        self.lines[ways].iter().any(|w| w.valid && w.tag == tag)
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        for way in &mut self.lines {
            way.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32 B lines = 256 B.
        Cache::new(CacheGeometry { size: 256, assoc: 2, line: 32 })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry { size: 65536, assoc: 2, line: 32 }.sets(), 1024);
        assert_eq!(CacheGeometry { size: 1 << 20, assoc: 4, line: 64 }.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry { size: 300, assoc: 2, line: 30 }.sets();
    }

    #[test]
    fn same_line_hits_after_allocate() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x11f)); // last byte of the same 32 B line
        assert!(!c.access(0x120)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = small();
        // Set index = (addr/32) % 4. Addresses 0x000, 0x080, 0x100 all map
        // to set 0 with different tags.
        assert!(!c.access(0x000));
        assert!(!c.access(0x080));
        assert!(c.access(0x000)); // touch first so 0x080 becomes LRU
        assert!(!c.access(0x100)); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = small();
        let _ = c.access(0x40);
        let (h, m) = c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0x60000));
        assert_eq!(c.stats(), (h, m));
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = small();
        let _ = c.access(0x40);
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(!c.access(i * 32));
        }
        for i in 0..4u64 {
            assert!(c.access(i * 32), "set {i} should still hold its line");
        }
    }

    /// The nested-`Vec` LRU model the flat tag array replaced: one `Vec`
    /// of ways per set, first match on lookup, first invalid or else
    /// least-recently-used way as the victim.
    struct NestedLru {
        sets: Vec<Vec<Line>>,
        line: u64,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl NestedLru {
        fn new(g: CacheGeometry) -> NestedLru {
            let way = Line { tag: 0, valid: false, last_use: 0 };
            NestedLru {
                sets: vec![vec![way; g.assoc]; g.sets() as usize],
                line: g.line,
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_and_tag(&self, addr: Paddr) -> (usize, u64) {
            let line = addr / self.line;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn access(&mut self, addr: Paddr) -> bool {
            self.clock += 1;
            let (set_idx, tag) = self.set_and_tag(addr);
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.last_use = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use } else { 0 })
                .expect("assoc > 0");
            *victim = Line { tag, valid: true, last_use: self.clock };
            false
        }

        fn probe(&self, addr: Paddr) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
        }

        fn flush(&mut self) {
            for way in self.sets.iter_mut().flatten() {
                way.valid = false;
            }
        }
    }

    #[test]
    fn flat_tag_array_matches_the_nested_lru_model() {
        use smtx_rng::rngs::StdRng;
        use smtx_rng::{RngExt, SeedableRng};

        for assoc in [1usize, 2, 4, 8] {
            for (size, line) in [(1024u64, 32u64), (8192, 64)] {
                let g = CacheGeometry { size, assoc, line };
                let mut flat = Cache::new(g);
                let mut model = NestedLru::new(g);
                let mut rng = StdRng::seed_from_u64(assoc as u64 * 131 + size);
                // A footprint of ~4x the capacity keeps every set cycling
                // through hits, cold misses and evictions.
                let span = size * 4;
                for step in 0..20_000u32 {
                    let addr = rng.random_range(0..span);
                    match rng.random_range(0..100u32) {
                        0 => {
                            flat.flush();
                            model.flush();
                        }
                        1..=20 => assert_eq!(
                            flat.probe(addr),
                            model.probe(addr),
                            "probe {addr:#x} at step {step}, {g:?}"
                        ),
                        _ => assert_eq!(
                            flat.access(addr),
                            model.access(addr),
                            "access {addr:#x} at step {step}, {g:?}"
                        ),
                    }
                    assert_eq!(flat.stats(), (model.hits, model.misses), "{g:?}");
                }
                let (hits, misses) = flat.stats();
                assert!(hits > 0 && misses > 0, "{g:?}: the stream exercises both outcomes");
                for addr in (0..span).step_by(line as usize) {
                    assert_eq!(flat.probe(addr), model.probe(addr), "final {addr:#x}, {g:?}");
                }
            }
        }
    }
}
