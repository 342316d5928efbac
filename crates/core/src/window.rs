//! The slot-arena instruction window.
//!
//! The centralized window of paper Table 1, stored data-oriented instead of
//! as a hash map: a direct-mapped ring indexed by `seq & mask` (the fetch
//! sequence is monotone, so consecutive instructions land in consecutive
//! slots), with every slot carrying its full 64-bit sequence number so each
//! probe validates in O(1) with no hashing and no bucket chase. The
//! scheduler-scanned state (`earliest_issue` plus the issued / done /
//! srcs-ready / TLB-wait / store-order bits) is split into dense SoA
//! arrays so issue validation and wake propagation touch one cache line
//! per candidate instead of a ~150-byte `DynInst`.
//!
//! Live sequence numbers are *not* bounded to a window-sized range of the
//! ring: one thread can stall at an old ROB head while another burns
//! thousands of sequence numbers through squash-and-refetch. Two live
//! sequences that collide modulo the capacity therefore double the ring
//! (re-placing the few live entries) and retry — correctness never depends
//! on the sequence spread, only steady-state speed does, and with the ring
//! starting several times larger than the architectural window, growth is
//! a cold rarity.
//!
//! Per-slot consumer lists (`producer seq → (consumer seq, operand slot)`)
//! live in the producer's slot as an [`InlineVec`] whose spill capacity
//! survives slot recycling, which removes the last per-instruction heap
//! allocation from the fetch→retire path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use smtx_mem::Asid;
use smtx_util::InlineVec;

use crate::dyninst::{DynInst, SrcState};

/// Flag bit: picked by the scheduler (execution started).
pub const F_ISSUED: u8 = 1;
/// Flag bit: execution finished; the instruction's `result` is valid.
pub const F_DONE: u8 = 2;
/// Flag bit: every source operand is resolved.
pub const F_READY: u8 = 4;
/// Flag bit: parked waiting on a TLB fill.
pub const F_WAITING: u8 = 8;
/// Flag bit: a load parked until an older same-thread store resolves its
/// address (memory disambiguation).
pub const F_ORDER: u8 = 16;

/// The exact flag state of an instruction the scheduler may pick: all
/// sources ready, not yet issued, not done, not parked.
pub const F_ISSUABLE: u8 = F_READY;

/// Slot sentinel for "vacant" (a real sequence never reaches `u64::MAX`).
const EMPTY: u64 = u64::MAX;

/// The slot-arena window. Probes are keyed by sequence number, exactly
/// like the hash map it replaces; iteration is slot-ordered and the one
/// order-sensitive consumer (the `--check` issuable scan) sorts what it
/// collects, so arena layout never reaches simulated behavior.
#[derive(Debug)]
pub struct Window {
    mask: u64,
    len: usize,
    /// Full sequence number per slot (`EMPTY` when vacant); validates
    /// every probe against stale seqs and ring collisions.
    seqs: Vec<u64>,
    /// SoA: earliest cycle the scheduler may pick the slot's instruction.
    earliest: Vec<u64>,
    /// SoA: `F_*` bits per slot.
    flags: Vec<u8>,
    /// The full per-instruction record (non-scheduler fields). Only
    /// slots `seqs` marks live are meaningful: [`Window::release`] leaves
    /// the dead record in place.
    insts: Vec<Option<DynInst>>,
    /// Consumers of the slot's instruction as a producer:
    /// `(consumer seq, operand slot)` in rename order.
    consumers: Vec<InlineVec<(u64, u32), 4>>,
}

impl Window {
    /// Creates an empty window. `capacity` is rounded up to a power of
    /// two; it only sets the initial ring size (the ring grows on live
    /// collision), so any value is correct.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Window {
        let cap = capacity.next_power_of_two().max(8);
        Window {
            mask: cap as u64 - 1,
            len: 0,
            seqs: vec![EMPTY; cap],
            earliest: vec![0; cap],
            flags: vec![0; cap],
            insts: (0..cap).map(|_| None).collect(),
            consumers: (0..cap).map(|_| InlineVec::new()).collect(),
        }
    }

    /// Current ring capacity (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.seqs.len()
    }

    /// Live instructions in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> Option<usize> {
        let i = (seq & self.mask) as usize;
        (self.seqs[i] == seq).then_some(i)
    }

    /// Whether `seq` is live in the window.
    #[inline]
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        self.slot_of(seq).is_some()
    }

    /// The instruction record for `seq`, if live.
    #[inline]
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&DynInst> {
        self.slot_of(seq).map(|i| self.insts[i].as_ref().expect("live slot holds inst"))
    }

    /// Mutable access to the instruction record for `seq`. Scheduler state
    /// (issued/done/ready/waiting/order bits, `earliest_issue`) lives in the SoA
    /// arrays and is mutated only through the dedicated methods below;
    /// `srcs` and `waiting_tlb` changes must go through
    /// [`Window::resolve_src`] / [`Window::set_waiting`] /
    /// [`Window::clear_waiting`] so the flag mirror stays in sync.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        self.slot_of(seq).map(|i| self.insts[i].as_mut().expect("live slot holds inst"))
    }

    /// Inserts `di` (sequence numbers are unique; inserting a live seq is
    /// a logic error). Grows the ring on a live collision.
    pub fn insert(&mut self, di: DynInst, earliest_issue: u64) {
        let seq = di.seq;
        debug_assert_ne!(seq, EMPTY, "sequence number overflow");
        loop {
            let i = (seq & self.mask) as usize;
            if self.seqs[i] == EMPTY {
                let ready = di.srcs_ready();
                self.seqs[i] = seq;
                self.earliest[i] = earliest_issue;
                self.flags[i] = if ready { F_READY } else { 0 };
                debug_assert!(self.consumers[i].is_empty(), "recycled slot not cleared");
                self.insts[i] = Some(di);
                self.len += 1;
                return;
            }
            debug_assert_ne!(self.seqs[i], seq, "duplicate insert of seq {seq}");
            self.grow();
        }
    }

    /// Vacates `seq`'s slot in place, returning whether it was live.
    /// Nothing is moved out: callers read what they need through
    /// [`Window::get`] first, and the dead record stays in the slot until
    /// the next insert overwrites it. The slot's consumer list is cleared
    /// (spill capacity retained for the next occupant).
    pub fn release(&mut self, seq: u64) -> bool {
        let Some(i) = self.slot_of(seq) else { return false };
        self.seqs[i] = EMPTY;
        self.flags[i] = 0;
        self.consumers[i].clear();
        self.len -= 1;
        true
    }

    /// Doubles the ring, re-placing every live entry by the new mask.
    fn grow(&mut self) {
        let new_cap = self.seqs.len() * 2;
        let new_mask = new_cap as u64 - 1;
        let mut seqs = vec![EMPTY; new_cap];
        let mut earliest = vec![0; new_cap];
        let mut flags = vec![0u8; new_cap];
        let mut insts: Vec<Option<DynInst>> = (0..new_cap).map(|_| None).collect();
        let mut consumers: Vec<InlineVec<(u64, u32), 4>> =
            (0..new_cap).map(|_| InlineVec::new()).collect();
        for old in 0..self.seqs.len() {
            let seq = self.seqs[old];
            if seq == EMPTY {
                continue;
            }
            let i = (seq & new_mask) as usize;
            debug_assert_eq!(seqs[i], EMPTY, "doubling separates distinct seqs mod old cap");
            seqs[i] = seq;
            earliest[i] = self.earliest[old];
            flags[i] = self.flags[old];
            insts[i] = self.insts[old].take();
            consumers[i] = std::mem::take(&mut self.consumers[old]);
        }
        self.mask = new_mask;
        self.seqs = seqs;
        self.earliest = earliest;
        self.flags = flags;
        self.insts = insts;
        self.consumers = consumers;
    }

    // ---- scheduler state (SoA) ----

    /// The scheduler view of `seq`: `(flags, earliest_issue)`.
    #[inline]
    #[must_use]
    pub fn issue_state(&self, seq: u64) -> Option<(u8, u64)> {
        self.slot_of(seq).map(|i| (self.flags[i], self.earliest[i]))
    }

    /// Whether `seq` is live and has finished executing.
    #[inline]
    #[must_use]
    pub fn is_done(&self, seq: u64) -> bool {
        self.slot_of(seq).is_some_and(|i| self.flags[i] & F_DONE != 0)
    }

    /// Marks `seq` as picked by the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    pub fn set_issued(&mut self, seq: u64) {
        let i = self.slot_of(seq).expect("issuing a live instruction");
        self.flags[i] |= F_ISSUED;
    }

    /// Returns `seq` to the not-issued state (a faulting memory operation
    /// or emulated instruction re-enters the window not-ready).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    pub fn clear_issued(&mut self, seq: u64) {
        let i = self.slot_of(seq).expect("un-issuing a live instruction");
        self.flags[i] &= !F_ISSUED;
    }

    /// Marks `seq` as completed (`result` valid).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    pub fn mark_done(&mut self, seq: u64) {
        let i = self.slot_of(seq).expect("completing a live instruction");
        self.flags[i] |= F_DONE;
    }

    /// Parks `seq` on a TLB fill for `key`. Returns `false` (and does
    /// nothing) if `seq` is no longer live.
    pub fn set_waiting(&mut self, seq: u64, key: (Asid, u64)) -> bool {
        let Some(i) = self.slot_of(seq) else { return false };
        self.flags[i] |= F_WAITING;
        self.insts[i].as_mut().expect("live slot holds inst").waiting_tlb = Some(key);
        true
    }

    /// Clears `seq`'s TLB-fill wait. Returns `false` if `seq` is no longer
    /// live.
    pub fn clear_waiting(&mut self, seq: u64) -> bool {
        let Some(i) = self.slot_of(seq) else { return false };
        self.flags[i] &= !F_WAITING;
        self.insts[i].as_mut().expect("live slot holds inst").waiting_tlb = None;
        true
    }

    /// Parks load `seq` behind an older store whose address is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    pub fn set_order(&mut self, seq: u64) {
        let i = self.slot_of(seq).expect("parking a live load");
        self.flags[i] |= F_ORDER;
    }

    /// Unparks load `seq` once the store it waited on has its address.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    pub fn clear_order(&mut self, seq: u64) {
        let i = self.slot_of(seq).expect("unparking a live load");
        self.flags[i] &= !F_ORDER;
    }

    /// Delivers `value` to operand `slot` of consumer `seq`. Returns
    /// `Some(all_ready)` if the consumer is live, `None` if it was
    /// squashed (stale wake entries are skipped on sight, exactly like the
    /// hash-map probe this replaces).
    pub fn resolve_src(&mut self, seq: u64, slot: usize, value: u64) -> Option<bool> {
        let i = self.slot_of(seq)?;
        let di = self.insts[i].as_mut().expect("live slot holds inst");
        di.srcs[slot] = SrcState::Value(value);
        let ready = di.srcs_ready();
        if ready {
            self.flags[i] |= F_READY;
        }
        Some(ready)
    }

    /// The producer view for rename: `(done, result)` for `seq`, if live.
    #[inline]
    #[must_use]
    pub fn producer_state(&self, seq: u64) -> Option<(bool, u64)> {
        self.slot_of(seq)
            .map(|i| (self.flags[i] & F_DONE != 0, self.insts[i].as_ref().expect("live").result))
    }

    // ---- consumer lists ----

    /// Registers `(consumer, slot)` on producer `seq`'s wake list.
    ///
    /// # Panics
    ///
    /// Panics if the producer is not live (rename only consults live
    /// producers).
    pub fn add_consumer(&mut self, producer: u64, consumer: u64, slot: usize) {
        let i = self.slot_of(producer).expect("renaming against a live producer");
        self.consumers[i].push((consumer, slot as u32));
    }

    /// Drains producer `seq`'s wake list into `out` (appending, in rename
    /// order) and clears it. No-op if `seq` is not live.
    pub fn take_consumers_into(&mut self, seq: u64, out: &mut Vec<(u64, u32)>) {
        let Some(i) = self.slot_of(seq) else { return };
        out.extend(self.consumers[i].iter().copied());
        self.consumers[i].clear();
    }

    // ---- iteration ----

    /// Iterates live instruction records in slot order. Callers that need
    /// a deterministic order sort what they collect (the arena's slot
    /// order depends on ring capacity, which growth makes history-dependent).
    pub fn iter(&self) -> impl Iterator<Item = &DynInst> + '_ {
        self.seqs
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != EMPTY)
            .map(|(i, _)| self.insts[i].as_ref().expect("live slot holds inst"))
    }

    /// Iterates `(seq, flags)` of live slots in slot order (the `--check`
    /// issuable scan; it sorts its result).
    pub fn iter_flags(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.seqs
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != EMPTY)
            .map(|(i, &s)| (s, self.flags[i]))
    }
}

/// Cycles the completion calendar covers with buckets; later events wait
/// in a heap.
const HORIZON: u64 = 64;

/// Completion events `(cycle, seq)`, drained in exactly `(cycle, seq)`
/// order like the binary heap it replaces, but on a calendar: one bucket
/// per `cycle % 64` for the 64 cycles from `base`, an occupancy mask that
/// finds the earliest event in one instruction, and a heap only for events
/// 64 or more cycles out (memory misses). Pushes must not lie before the
/// last drained cycle, which holds because every latency is at least one.
#[derive(Debug)]
pub(crate) struct EventCalendar {
    /// `near[c % 64]` holds the seqs completing at cycle `c`, for `c` in
    /// `[base, base + 64)`, unsorted.
    near: [Vec<u64>; HORIZON as usize],
    /// Bit `b` set iff `near[b]` is non-empty.
    occupied: u64,
    /// Events at `base + 64` or later.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every event before this cycle has been drained.
    base: u64,
}

impl EventCalendar {
    /// Creates an empty calendar starting at cycle 0.
    #[must_use]
    pub(crate) fn new() -> EventCalendar {
        EventCalendar {
            near: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            far: BinaryHeap::new(),
            base: 0,
        }
    }

    /// Schedules `seq` to complete at `cycle`.
    pub(crate) fn push(&mut self, cycle: u64, seq: u64) {
        debug_assert!(cycle >= self.base, "event at {cycle} before drained cycle {}", self.base);
        if cycle < self.base + HORIZON {
            let b = (cycle % HORIZON) as usize;
            self.near[b].push(seq);
            self.occupied |= 1 << b;
        } else {
            self.far.push(Reverse((cycle, seq)));
        }
    }

    /// The cycle of the earliest pending event.
    #[must_use]
    pub(crate) fn earliest(&self) -> Option<u64> {
        if self.occupied != 0 {
            // Rotate so bit 0 is `base`'s bucket: the lowest set bit is then
            // the earliest near cycle, and every far event is later.
            let rel = self.occupied.rotate_right((self.base % HORIZON) as u32);
            return Some(self.base + u64::from(rel.trailing_zeros()));
        }
        self.far.peek().map(|&Reverse((cycle, _))| cycle)
    }

    /// Appends the seqs of every event at or before `now` to `out`, in
    /// `(cycle, seq)` order, and removes them.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<u64>) {
        if now < self.base {
            return;
        }
        let span = (now - self.base).min(HORIZON - 1) + 1;
        let window = if span == HORIZON { u64::MAX } else { (1 << span) - 1 };
        let mut due = self.occupied.rotate_right((self.base % HORIZON) as u32) & window;
        while due != 0 {
            let b = ((self.base + u64::from(due.trailing_zeros())) % HORIZON) as usize;
            let bucket = &mut self.near[b];
            bucket.sort_unstable();
            out.append(bucket);
            self.occupied &= !(1 << b);
            due &= due - 1;
        }
        while let Some(&Reverse((cycle, seq))) = self.far.peek() {
            if cycle > now {
                break;
            }
            self.far.pop();
            out.push(seq);
        }
        self.base = now + 1;
        // Far events now inside the horizon move to their buckets.
        while let Some(&Reverse((cycle, seq))) = self.far.peek() {
            if cycle >= self.base + HORIZON {
                break;
            }
            self.far.pop();
            self.push(cycle, seq);
        }
    }

    /// Drops every pending event (epoch reset).
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.near {
            bucket.clear();
        }
        self.occupied = 0;
        self.far.clear();
    }
}

/// Loads/stores parked on an in-flight TLB fill, keyed by `(asid, vpn)` —
/// a short linear map (a handful of fills are ever outstanding) with
/// pooled [`InlineVec`] waiter lists, so park/wake churn recycles
/// allocations instead of hitting the heap per miss.
#[derive(Debug, Default)]
pub struct WaiterMap {
    entries: Vec<((Asid, u64), InlineVec<u64, 4>)>,
    pool: Vec<InlineVec<u64, 4>>,
}

impl WaiterMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> WaiterMap {
        WaiterMap::default()
    }

    /// Appends `seq` to the waiter list for `key` (creating it if absent).
    pub fn push(&mut self, key: (Asid, u64), seq: u64) {
        if let Some((_, list)) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            list.push(seq);
            return;
        }
        let mut list = self.pool.pop().unwrap_or_default();
        list.push(seq);
        self.entries.push((key, list));
    }

    /// Removes the entry for `key`, appending its waiters to `out` in park
    /// order. Returns `true` if an entry existed.
    pub fn take_into(&mut self, key: (Asid, u64), out: &mut Vec<u64>) -> bool {
        let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) else {
            return false;
        };
        let (_, mut list) = self.entries.swap_remove(pos);
        out.extend(list.iter().copied());
        list.clear();
        self.pool.push(list);
        true
    }

    /// Drops the entry for `key` without waking anyone.
    pub fn remove(&mut self, key: (Asid, u64)) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let (_, mut list) = self.entries.swap_remove(pos);
            list.clear();
            self.pool.push(list);
        }
    }

    /// Iterates the waiters parked on `key` (empty if no entry).
    pub fn iter_key(&self, key: (Asid, u64)) -> impl Iterator<Item = u64> + '_ {
        self.entries
            .iter()
            .filter(move |(k, _)| *k == key)
            .flat_map(|(_, list)| list.iter().copied())
    }

    /// The parked keys, in insertion order (debug dumps only).
    pub fn keys(&self) -> impl Iterator<Item = (Asid, u64)> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Drops every entry without waking anyone (epoch reset: the parked
    /// instructions are being squashed wholesale). Waiter lists return to
    /// the pool so post-reset churn stays allocation-free.
    pub fn clear(&mut self) {
        for (_, mut list) in self.entries.drain(..) {
            list.clear();
            self.pool.push(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyninst::FrontEndInst;
    use smtx_isa::{Inst, Op};

    fn di(seq: u64) -> DynInst {
        let fe = FrontEndInst {
            seq,
            pc: 0x1000 + seq * 4,
            inst: Inst::n(Op::Nop),
            pal: false,
            pred: None,
            ready_at: 0,
        };
        DynInst::from_frontend(&fe, 0)
    }

    #[test]
    fn probe_validates_full_seq_across_wraparound() {
        let mut w = Window::with_capacity(8);
        w.insert(di(3), 1);
        assert!(w.contains(3));
        // 3 + 8 maps to the same slot but is a different instruction.
        assert!(!w.contains(11));
        assert!(w.get(11).is_none());
        assert!(!w.release(11));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn live_collision_grows_and_keeps_both() {
        let mut w = Window::with_capacity(8);
        w.insert(di(3), 1);
        w.insert(di(11), 2); // collides with 3 mod 8 → grow to 16
        assert!(w.capacity() >= 16);
        assert!(w.contains(3));
        assert!(w.contains(11));
        assert_eq!(w.issue_state(3), Some((F_READY, 1)));
        assert_eq!(w.issue_state(11), Some((F_READY, 2)));
    }

    #[test]
    fn flags_track_scheduler_lifecycle() {
        let mut w = Window::with_capacity(8);
        w.insert(di(5), 7);
        assert_eq!(w.issue_state(5), Some((F_ISSUABLE, 7)));
        w.set_issued(5);
        assert_eq!(w.issue_state(5).unwrap().0, F_READY | F_ISSUED);
        w.mark_done(5);
        assert!(w.is_done(5));
        w.clear_issued(5);
        assert_eq!(w.issue_state(5).unwrap().0, F_READY | F_DONE);
        w.insert(di(6), 0);
        w.set_order(6);
        assert_eq!(w.issue_state(6).unwrap().0, F_READY | F_ORDER);
        w.clear_order(6);
        assert_eq!(w.issue_state(6), Some((F_ISSUABLE, 0)));
    }

    #[test]
    fn consumer_lists_recycle_with_the_slot() {
        let mut w = Window::with_capacity(8);
        w.insert(di(1), 0);
        for c in 2..12 {
            w.add_consumer(1, c, 0);
        }
        let mut out = Vec::new();
        w.take_consumers_into(1, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0], (2, 0));
        assert!(w.release(1));
        // Same slot, next lap of the ring.
        w.insert(di(9), 0);
        out.clear();
        w.take_consumers_into(9, &mut out);
        assert!(out.is_empty());
    }

    /// Drives an [`EventCalendar`] and a `BinaryHeap` reference with one
    /// seeded stream: pushes 1..=300 cycles out, duplicate seqs, and drains
    /// every cycle (even seeds) or after jumps to the earliest event, now
    /// and then past it (odd seeds). Every drain and every `earliest` must
    /// agree. Seeds 0..8 encode the cycle in the seq, so equal seq lists
    /// mean equal `(cycle, seq)` lists; seeds 8.. draw seqs from a small
    /// pool, so duplicates abound.
    #[test]
    fn event_calendar_drains_exactly_like_a_binary_heap() {
        use smtx_rng::rngs::StdRng;
        use smtx_rng::{RngExt, SeedableRng};
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cal = EventCalendar::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = 0u64;
            let mut drained = 0;
            for _ in 0..3_000 {
                got.clear();
                want.clear();
                cal.drain_due(now, &mut got);
                while let Some(&Reverse((cycle, seq))) = heap.peek() {
                    if cycle > now {
                        break;
                    }
                    heap.pop();
                    want.push(seq);
                }
                assert_eq!(got, want, "seed {seed}: drain at cycle {now}");
                drained += got.len();
                let earliest =
                    |h: &BinaryHeap<Reverse<(u64, u64)>>| h.peek().map(|&Reverse((c, _))| c);
                assert_eq!(cal.earliest(), earliest(&heap), "seed {seed}: after drain at {now}");
                for _ in 0..rng.random_range(0..5u32) {
                    let cycle = now + rng.random_range(1..301u64);
                    let seq = if seed < 8 {
                        cycle << 8 | rng.random_range(0..4u64)
                    } else {
                        rng.random_range(0..16u64)
                    };
                    cal.push(cycle, seq);
                    heap.push(Reverse((cycle, seq)));
                }
                assert_eq!(cal.earliest(), earliest(&heap), "seed {seed}: after pushes at {now}");
                now = match (seed % 2, earliest(&heap)) {
                    (0, _) | (_, None) => now + 1,
                    (_, Some(at)) if rng.random_range(0..4u32) == 0 => {
                        at + rng.random_range(0..150u64)
                    }
                    (_, Some(at)) => at,
                };
            }
            got.clear();
            cal.drain_due(now + 400, &mut got);
            assert_eq!(got.len(), heap.len(), "seed {seed}: final drain");
            assert!(drained > 1_000, "seed {seed}: only {drained} events drained");
            cal.clear();
            assert_eq!(cal.earliest(), None);
        }
    }

    #[test]
    fn waiter_map_pools_its_lists() {
        let mut m = WaiterMap::new();
        m.push((1, 10), 100);
        m.push((1, 10), 101);
        m.push((2, 20), 200);
        assert_eq!(m.iter_key((1, 10)).collect::<Vec<_>>(), vec![100, 101]);
        let mut out = Vec::new();
        assert!(m.take_into((1, 10), &mut out));
        assert_eq!(out, vec![100, 101]);
        assert!(!m.take_into((1, 10), &mut out));
        m.remove((2, 20));
        assert_eq!(m.keys().count(), 0);
    }
}
