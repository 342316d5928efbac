//! Simulation statistics.

/// Per-context counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// User-mode instructions retired.
    pub retired_user: u64,
    /// PAL-mode (handler) instructions retired.
    pub retired_pal: u64,
    /// Cycle at which the thread halted or hit its budget.
    pub finished_at: Option<u64>,
    /// Retired instructions that took at least one data-TLB miss.
    pub tlb_miss_insts_retired: u64,
    /// Conditional/indirect/return mispredicts recovered.
    pub mispredicts: u64,
}

/// Whole-machine counters for one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-context counters.
    pub threads: Vec<ThreadStats>,
    /// Committed TLB fills (handler retirements / walks whose faulting
    /// instruction retired).
    pub fills_committed: u64,
    /// Traditional trap dispatches (including multithreaded fallbacks).
    pub traps: u64,
    /// Exception-handler threads spawned.
    pub handlers_spawned: u64,
    /// Exceptions that found no idle context and reverted to trapping.
    pub reverted_no_thread: u64,
    /// Handler threads reclaimed because their excepting instruction was
    /// squashed.
    pub handlers_squashed: u64,
    /// Duplicate out-of-order misses re-linked to an older instruction
    /// (paper §4.5).
    pub relinks: u64,
    /// Secondary misses buffered behind an in-flight fill.
    pub secondary_misses: u64,
    /// `HARDEXC` escalations to the traditional mechanism (paper §4.3).
    pub hard_exceptions: u64,
    /// Tail squashes performed to avoid window deadlock (paper §4.4).
    pub deadlock_squashes: u64,
    /// Hardware page walks started.
    pub walks_started: u64,
    /// Emulated-instruction handlers spawned (paper §6).
    pub emulations_spawned: u64,
    /// Emulated-instruction handlers retired.
    pub emulations_committed: u64,
    /// Instructions squashed (all causes).
    pub squashed_insts: u64,
    /// Cycles during which at least one handler context was active
    /// (paper §5.5 reports handler-thread activity).
    pub handler_active_cycles: u64,
    /// Total instructions fetched (front-end bandwidth consumed).
    pub fetched: u64,
    /// Total instructions issued to execution.
    pub issued: u64,
}

impl Stats {
    /// Creates zeroed statistics for `threads` contexts.
    #[must_use]
    pub fn new(threads: usize) -> Stats {
        Stats { threads: vec![ThreadStats::default(); threads], ..Stats::default() }
    }

    /// User-mode instructions retired by context `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn retired(&self, tid: usize) -> u64 {
        self.threads[tid].retired_user
    }

    /// Total user-mode instructions retired across all contexts.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired_user).sum()
    }

    /// User-mode IPC across all contexts.
    #[must_use]
    // lint:allow(no-float-in-model): derived display-only metric computed
    // from integer counters at the edge; no float feeds back into state.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_total_over_cycles() {
        let mut s = Stats::new(2);
        s.cycles = 100;
        s.threads[0].retired_user = 150;
        s.threads[1].retired_user = 50;
        assert_eq!(s.total_retired(), 200);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(s.retired(1), 50);
    }

    #[test]
    fn zero_cycles_ipc_is_zero() {
        assert_eq!(Stats::new(1).ipc(), 0.0);
    }
}
