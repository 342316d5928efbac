//! The parallel, memoizing experiment runner.
//!
//! Every experiment binary expands its figure or table into a flat list of
//! independent simulation jobs, hands them to a [`Runner`], and then prints
//! its rows by querying the runner — each unique simulation point runs
//! exactly once, across a pool of scoped worker threads, and every repeated
//! request (the perfect-TLB baseline shared by all mechanism columns, the
//! reference-interpreter miss counts, the `insts_for` budget probes) is
//! served from a shared in-process cache.
//!
//! Jobs are deduplicated by [`RunKey`]: kernel, seed, instruction budget
//! and the [`MachineConfig::digest`] of the configuration. [`perfect_of`]
//! canonicalizes the baseline before it is keyed: a perfect TLB starts no
//! handler thread, so idle contexts and limit knobs cannot change its run,
//! and it drops them (one context, default knobs; `emulate_divu` configs,
//! whose `DIVU` handlers run even under a perfect TLB, keep both). Every
//! column of Fig. 5 or Table 3 therefore shares one baseline per kernel
//! window. The simulator is
//! fully deterministic, so the same `RunKey` always yields bit-identical
//! [`Stats`] whether it is computed serially, in parallel, or served from
//! the cache — `tests/runner_determinism.rs` holds that gate.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smtx_core::{
    CheckConfig, Checkpoint, ExnMechanism, LimitKnobs, Machine, MachineConfig, Stats, TraceEvent,
    VecSink,
};
use smtx_trace::codec;
use smtx_util::hist::AtomicHist;
pub use smtx_util::hist::{quantile_ms as hist_quantile_ms, HIST_BOUNDS_MS};
use smtx_util::ShardMap;
use smtx_workloads::Kernel;

use crate::{
    cycle_cap, epoch_schedule, make_checkpoint, make_mix_checkpoint, probe_insts, scale_budget,
    RunResult,
};

/// Identity of one unique simulation: everything that influences the
/// resulting [`smtx_core::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunKey {
    /// Workload kernel.
    pub kernel: Kernel,
    /// Workload seed.
    pub seed: u64,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// [`MachineConfig::digest`] of the configuration.
    pub config_digest: u64,
}

/// Identity of one multi-application (Fig. 7) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixKey {
    /// The three application kernels, in thread order.
    pub mix: [Kernel; 3],
    /// Base seed (thread `tid` runs with `seed + tid`).
    pub seed: u64,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// [`MachineConfig::digest`] of the configuration.
    pub config_digest: u64,
}

/// One independent unit of work for [`Runner::prefetch`].
#[derive(Debug, Clone)]
pub enum Job {
    /// A single-kernel machine simulation.
    Sim {
        /// Workload kernel.
        kernel: Kernel,
        /// Workload seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// Machine configuration.
        config: MachineConfig,
    },
    /// A reference-interpreter run counting architectural TLB misses.
    Ref {
        /// Workload kernel.
        kernel: Kernel,
        /// Workload seed.
        seed: u64,
        /// Instruction budget.
        insts: u64,
    },
    /// A three-application SMT simulation (Fig. 7).
    Mix {
        /// The three application kernels.
        mix: [Kernel; 3],
        /// Base seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// Machine configuration.
        config: MachineConfig,
    },
}

impl Job {
    fn key(&self) -> JobKey {
        match self {
            Job::Sim { kernel, seed, insts, config } => JobKey::Sim(RunKey {
                kernel: *kernel,
                seed: *seed,
                insts: *insts,
                config_digest: config.digest(),
            }),
            Job::Ref { kernel, seed, insts } => JobKey::Ref(*kernel, *seed, *insts),
            Job::Mix { mix, seed, insts, config } => JobKey::Mix(MixKey {
                mix: *mix,
                seed: *seed,
                insts: *insts,
                config_digest: config.digest(),
            }),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum JobKey {
    Sim(RunKey),
    Ref(Kernel, u64, u64),
    Mix(MixKey),
}

/// Identity of one reusable fast-forward checkpoint: `(workload, seed,
/// skip)`. Config-independent by construction — the functional interpreter
/// knows nothing about the machine configuration — which is exactly why one
/// checkpoint serves every configuration of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CkKey {
    /// One kernel on thread 0.
    Single(Kernel, u64, u64),
    /// A Fig. 7 mix on threads 0–2 (thread `tid` seeded `seed + tid`).
    Mix([Kernel; 3], u64, u64),
}

impl CkKey {
    /// The `RunStart` marker's workload code: the kernel's index in
    /// [`Kernel::ALL`], `1000 + AsmId` for an assembled program, and
    /// `u64::MAX` for a mix, which carries no single kernel.
    fn trace_code(self) -> u64 {
        match self {
            CkKey::Single(Kernel::Asm(id), ..) => 1000 + u64::from(id.0),
            CkKey::Single(kernel, ..) => {
                Kernel::ALL.iter().position(|&k| k == kernel).map_or(u64::MAX, |i| i as u64)
            }
            CkKey::Mix(..) => u64::MAX,
        }
    }
}

/// Default cap on the approximate resident bytes of cached fast-forward
/// checkpoints (1 GiB). A long-running service (`smtxd`) caches one
/// checkpoint per `(workload, seed, skip)` it has ever served, so the cache
/// is LRU-bounded by size instead of growing with every request.
pub const DEFAULT_CHECKPOINT_CAP_BYTES: u64 = 1 << 30;

/// Cache-effectiveness counters (all monotonic).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerStats {
    /// Unique simulation/reference points computed and cached (a point two
    /// workers race to compute counts once — the first writer's).
    pub unique_runs: u64,
    /// Requests served from the cache.
    pub cache_hits: u64,
    /// Fast-forward checkpoints served from the checkpoint cache.
    pub checkpoint_hits: u64,
    /// Machine cycles simulated across all unique runs.
    pub sim_cycles: u64,
    /// Approximate resident bytes of the checkpoints currently cached
    /// (sum of per-entry estimates frozen at insertion; LRU-evicted past
    /// the configured cap). Not monotonic, unlike the counters above.
    pub checkpoint_bytes: u64,
    /// Wall-time histogram of checkpoint builds (bucket upper bounds in
    /// [`HIST_BOUNDS_MS`], last bucket unbounded).
    pub checkpoint_ms_hist: [u64; 8],
    /// Wall-time histogram of detailed-machine simulations.
    pub sim_ms_hist: [u64; 8],
    /// Wall-time histogram of reference-interpreter runs.
    pub ref_ms_hist: [u64; 8],
    /// Lock-wait histogram summed over every cache-shard acquisition
    /// (same bucket bounds): sustained counts past the first bucket mean
    /// workers are contending on the memoization caches.
    pub lock_wait_ms_hist: [u64; 8],
}

/// The shared executor: a job cache plus a scoped-thread worker pool.
///
/// All query methods (`run`, `arch_misses`, `penalty_per_miss`, …) are
/// compute-on-miss, so experiment code never has to care whether a point
/// was prefetched; [`Runner::prefetch`] exists purely to expose the
/// parallelism.
pub struct Runner {
    jobs: usize,
    /// Tier-1 fast-forward length (instructions skipped functionally before
    /// the measurement window). 0 disables fast-forwarding.
    skip: u64,
    /// Reuse one cached checkpoint per `(workload, seed, skip)` across all
    /// configurations. Off only in test oracles: every run then restores a
    /// checkpoint built for it alone, and the rows must come out identical.
    use_checkpoints: bool,
    /// Tier-2 idle-cycle skipping in the detailed machine. Off only in test
    /// oracles, with identical rows.
    idle_skip: bool,
    /// Run every simulated machine under the `--check` pipeline sanitizer.
    /// Observation-only (rows stay bit-identical) but any violation panics
    /// the run — a checked experiment must be clean or die loudly.
    check: bool,
    // Lock-sharded hash maps: workers hash-select one of 16 shard locks,
    // so concurrent lookups rarely collide, and lookups clone the value
    // out so no lock is held across caller work. `no-unordered-iteration`
    // stays satisfied by construction — `ShardMap` has no multi-entry view.
    sims: ShardMap<RunKey, Arc<RunResult>>,
    refs: ShardMap<(Kernel, u64, u64), u64>,
    mixes: ShardMap<MixKey, u64>,
    checkpoints: ShardMap<CkKey, Arc<Checkpoint>>,
    /// Insertion/touch order and frozen size estimate of every cached
    /// checkpoint; the front is evicted while `ck_bytes` exceeds the cap.
    ck_lru: Mutex<VecDeque<(CkKey, u64)>>,
    ck_bytes: AtomicU64,
    ck_cap_bytes: u64,
    unique_runs: AtomicU64,
    cache_hits: AtomicU64,
    ck_hits: AtomicU64,
    sim_cycles: AtomicU64,
    /// Binary trace capture (`--trace PATH`): every uniquely computed run
    /// appends one `RunStart`-prefixed event segment. Observation-only —
    /// the tracer is not part of [`MachineConfig::digest`] and the rows
    /// stay bit-identical (CI diffs them).
    trace_path: Option<PathBuf>,
    /// The trace file, opened lazily (magic written once) on the first
    /// segment; one segment is appended per completed run, atomically
    /// under this lock, so parallel workers interleave whole segments.
    trace_file: Mutex<Option<BufWriter<File>>>,
    ck_ms: AtomicHist,
    sim_ms: AtomicHist,
    ref_ms: AtomicHist,
}

impl Runner {
    /// Creates a runner executing up to `jobs` simulations concurrently;
    /// `0` selects the host's available parallelism. Fast-forward defaults
    /// to 0 instructions; checkpoint reuse and idle-cycle skipping are on.
    #[must_use]
    pub fn new(jobs: usize) -> Runner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        Runner {
            jobs,
            skip: 0,
            use_checkpoints: true,
            idle_skip: true,
            check: false,
            sims: ShardMap::new(),
            refs: ShardMap::new(),
            mixes: ShardMap::new(),
            checkpoints: ShardMap::new(),
            ck_lru: Mutex::new(VecDeque::new()),
            ck_bytes: AtomicU64::new(0),
            ck_cap_bytes: DEFAULT_CHECKPOINT_CAP_BYTES,
            unique_runs: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            ck_hits: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            trace_path: None,
            trace_file: Mutex::new(None),
            ck_ms: AtomicHist::default(),
            sim_ms: AtomicHist::default(),
            ref_ms: AtomicHist::default(),
        }
    }

    /// Sets the tier-1 functional fast-forward length (instructions per
    /// thread skipped before the measurement window).
    #[must_use]
    pub fn with_skip(mut self, skip: u64) -> Runner {
        self.skip = skip;
        self
    }

    /// Enables or disables checkpoint reuse. Off, every run restores a
    /// fresh checkpoint of its own: a test oracle for the cache, which no
    /// binary can turn off.
    #[must_use]
    pub fn with_checkpoint_cache(mut self, on: bool) -> Runner {
        self.use_checkpoints = on;
        self
    }

    /// Enables or disables tier-2 idle-cycle skipping in every simulated
    /// machine: a test oracle for the skip, which no binary can turn off.
    #[must_use]
    pub fn with_idle_skip(mut self, on: bool) -> Runner {
        self.idle_skip = on;
        self
    }

    /// Accepts only 1 and changes nothing: every run is one monolithic
    /// simulation. Kept only because the `perfbench` harness still calls it.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is not 1.
    #[doc(hidden)]
    #[must_use]
    pub fn with_intervals(self, intervals: u64) -> Runner {
        assert_eq!(intervals, 1, "interval-parallel simulation was removed");
        self
    }

    /// The configured parallelism degree.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured fast-forward length.
    #[must_use]
    pub fn skip(&self) -> u64 {
        self.skip
    }

    /// Sets (or clears) the binary trace capture destination (`--trace
    /// PATH`). Every uniquely computed simulation appends one
    /// `RunStart`-prefixed event segment; cache hits are not re-traced, and
    /// worker scheduling makes the cross-segment order nondeterministic —
    /// the `smtx-trace` analyzer is per-segment, so that never matters.
    #[must_use]
    pub fn with_trace(mut self, path: Option<PathBuf>) -> Runner {
        self.trace_path = path;
        self
    }

    /// The configured trace capture destination, if any.
    #[must_use]
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }

    /// Enables or disables the pipeline sanitizer (`--check on|off`).
    #[must_use]
    pub fn with_check(mut self, on: bool) -> Runner {
        self.check = on;
        self
    }

    /// Whether the pipeline sanitizer is enabled.
    #[must_use]
    pub fn check(&self) -> bool {
        self.check
    }

    /// Cache-effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            unique_runs: self.unique_runs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            checkpoint_hits: self.ck_hits.load(Ordering::Relaxed),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            checkpoint_bytes: self.ck_bytes.load(Ordering::Relaxed),
            checkpoint_ms_hist: self.ck_ms.snapshot(),
            sim_ms_hist: self.sim_ms.snapshot(),
            ref_ms_hist: self.ref_ms.snapshot(),
            lock_wait_ms_hist: {
                let hists = [
                    self.sims.wait_hist(),
                    self.refs.wait_hist(),
                    self.mixes.wait_hist(),
                    self.checkpoints.wait_hist(),
                ];
                std::array::from_fn(|i| hists.iter().map(|h| h[i]).sum())
            },
        }
    }

    /// Appends one completed run's `RunStart`-prefixed event segment to
    /// the trace file (created lazily, magic first, on the first segment).
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be written — a requested trace that
    /// silently vanishes would be worse than a dead experiment.
    // lint:allow(no-lock-across-io): the trace-file lock exists precisely to
    // serialize whole-segment appends — each segment's bytes must land
    // contiguously, so the write happens under it.
    fn append_segment(&self, events: &[TraceEvent]) {
        let Some(path) = &self.trace_path else { return };
        let body = codec::encode_body(events);
        let mut guard = self.trace_file.lock().expect("trace file");
        let writer = match guard.as_mut() {
            Some(w) => w,
            None => {
                let file = File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace {}: {e}", path.display()));
                let mut w = BufWriter::new(file);
                w.write_all(&codec::MAGIC)
                    .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
                guard.insert(w)
            }
        };
        writer
            .write_all(&body)
            .and_then(|()| writer.flush())
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    }

    /// Executes `jobs` across the worker pool, deduplicating within the
    /// batch and against already-cached results. Afterwards every query for
    /// one of these points is a cache hit.
    ///
    /// When checkpoint reuse is on, the distinct checkpoints the batch needs
    /// are built first (in parallel), so concurrent sims of the same
    /// workload share one fast-forward instead of racing to duplicate it.
    /// Likewise the batch's reference windows run in their own pass before
    /// its sims, which read them: no two workers compute the same one, so
    /// the cache counters are exact at any worker count.
    pub fn prefetch(&self, jobs: Vec<Job>) {
        let mut pending = Vec::with_capacity(jobs.len());
        let mut seen = std::collections::BTreeSet::new();
        for job in jobs {
            let key = job.key();
            if !seen.insert(key) || self.is_cached(&key) {
                continue;
            }
            pending.push(job);
        }
        if pending.is_empty() {
            return;
        }
        if self.use_checkpoints {
            let mut ck_keys = Vec::new();
            let mut ck_seen = std::collections::BTreeSet::new();
            for job in &pending {
                let key = match job {
                    Job::Sim { kernel, seed, .. } => CkKey::Single(*kernel, *seed, self.skip),
                    Job::Ref { kernel, seed, .. } if self.skip > 0 => {
                        CkKey::Single(*kernel, *seed, self.skip)
                    }
                    Job::Mix { mix, seed, .. } => CkKey::Mix(*mix, *seed, self.skip),
                    Job::Ref { .. } => continue,
                };
                if ck_seen.insert(key) && !self.checkpoints.contains(&key) {
                    ck_keys.push(key);
                }
            }
            self.for_each_parallel(ck_keys.len(), |i| {
                let _ = self.checkpoint(ck_keys[i]);
            });
        }
        let (refs, sims): (Vec<Job>, Vec<Job>) =
            pending.into_iter().partition(|job| matches!(job, Job::Ref { .. }));
        self.for_each_parallel(refs.len(), |i| self.execute(&refs[i]));
        self.for_each_parallel(sims.len(), |i| self.execute(&sims[i]));
    }

    /// Runs `f(0..n)` across the worker pool (serially when `n` or the pool
    /// is small).
    fn for_each_parallel(&self, n: usize, f: impl Fn(usize) + Sync) {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                });
            }
        });
    }

    /// The (possibly cached) fast-forward checkpoint `key` names.
    fn checkpoint(&self, key: CkKey) -> Arc<Checkpoint> {
        if self.use_checkpoints {
            if let Some(hit) = self.checkpoints.get(&key) {
                self.ck_hits.fetch_add(1, Ordering::Relaxed);
                self.touch_checkpoint(&key);
                return hit;
            }
        }
        // Built outside any lock; concurrent duplicates (callers racing
        // past prefetch) waste work but cache a deterministic value.
        let t0 = Instant::now();
        let ck = Arc::new(match key {
            CkKey::Single(kernel, seed, skip) => make_checkpoint(kernel, seed, skip),
            CkKey::Mix(mix, seed, skip) => make_mix_checkpoint(mix, seed, skip),
        });
        self.ck_ms.record(t0.elapsed());
        if !self.use_checkpoints {
            return ck;
        }
        self.cache_checkpoint(key, ck)
    }

    /// Inserts `ck` under `key` (first writer wins), charging its frozen
    /// size estimate to the cache and evicting least-recently-used entries
    /// while the cap is exceeded. Returns the cached value.
    fn cache_checkpoint(&self, key: CkKey, ck: Arc<Checkpoint>) -> Arc<Checkpoint> {
        let mut inserted = false;
        let out = self.checkpoints.get_or_insert_with(key, || {
            inserted = true;
            Arc::clone(&ck)
        });
        if !inserted {
            return out;
        }
        let bytes = out.approx_bytes();
        self.ck_bytes.fetch_add(bytes, Ordering::Relaxed);
        let mut lru = self.ck_lru.lock().expect("checkpoint lru");
        lru.push_back((key, bytes));
        while self.ck_bytes.load(Ordering::Relaxed) > self.ck_cap_bytes && lru.len() > 1 {
            let (old, old_bytes) = lru.pop_front().expect("lru is non-empty");
            if old == key {
                // Never evict the entry just inserted — its caller is
                // about to use it; put it back and stop.
                lru.push_back((old, old_bytes));
                break;
            }
            if self.checkpoints.remove(&old).is_some() {
                self.ck_bytes.fetch_sub(old_bytes, Ordering::Relaxed);
            }
        }
        out
    }

    /// Moves `key` to the back of the LRU order on a cache hit.
    fn touch_checkpoint(&self, key: &CkKey) {
        let mut lru = self.ck_lru.lock().expect("checkpoint lru");
        if let Some(pos) = lru.iter().position(|(k, _)| k == key) {
            let entry = lru.remove(pos).expect("position is in range");
            lru.push_back(entry);
        }
    }

    /// Panics with the collected violation reports if a checked machine
    /// detected any divergence (no-op when `--check` is off).
    fn assert_check_clean(&self, m: &Machine, key: CkKey) {
        let total = m.check_violation_count();
        assert!(
            total == 0,
            "--check found {total} violation(s) running {key:?}:\n{}",
            m.check_violations()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    fn is_cached(&self, key: &JobKey) -> bool {
        match key {
            JobKey::Sim(k) => self.sims.contains(k),
            JobKey::Ref(kernel, seed, insts) => self.refs.contains(&(*kernel, *seed, *insts)),
            JobKey::Mix(k) => self.mixes.contains(k),
        }
    }

    fn execute(&self, job: &Job) {
        match job {
            Job::Sim { kernel, seed, insts, config } => {
                let _ = self.run(*kernel, *seed, *insts, config);
            }
            Job::Ref { kernel, seed, insts } => {
                let _ = self.arch_misses(*kernel, *seed, *insts);
            }
            Job::Mix { mix, seed, insts, config } => {
                let _ = self.run_mix(*mix, *seed, *insts, config);
            }
        }
    }

    /// Memoized [`crate::run_kernel`]: runs `kernel` under `config`,
    /// serving repeats of the same [`RunKey`] from the cache.
    pub fn run(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> Arc<RunResult> {
        let key = RunKey { kernel, seed, insts, config_digest: config.digest() };
        // The probe clones the Arc out and drops its shard lock before
        // returning, so nothing below (simulation, hashing, serialization)
        // ever runs under a cache lock.
        if let Some(hit) = self.sims.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Compute outside the lock; a concurrent duplicate (only possible
        // when callers race past prefetch) wastes work but, the simulator
        // being deterministic, never changes the cached value.
        let stats = self.simulate_and_trace(CkKey::Single(kernel, seed, self.skip), insts, config);
        let arch_misses = self.arch_misses(kernel, seed, insts);
        let result = Arc::new(RunResult {
            cycles: stats.cycles,
            retired: insts,
            arch_misses,
            stats,
        });
        // Counters bump inside the insert closure so a lost first-writer
        // race (two workers computing the same point) counts once — serial
        // and parallel runners must report identical unique_runs.
        self.sims.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            self.sim_cycles.fetch_add(result.cycles, Ordering::Relaxed);
            Arc::clone(&result)
        })
    }

    /// The one detailed simulation behind [`Runner::run`],
    /// [`Runner::run_traced`] and [`Runner::run_mix`]: restore the
    /// workload's fast-forward checkpoint (the loaded workload at
    /// `skip == 0`) under the runner's idle-skip, `--check` and tracing
    /// settings, give each application thread (one for a kernel, three for
    /// a mix) an `insts` budget, and run every budget to its freeze. A
    /// kernel window installs its [`epoch_schedule`]; a mix runs reset-free.
    /// Returns the stats and, when `trace`, the `RunStart`-prefixed event
    /// segment. The machine is dropped here, before the caller's reference
    /// run or trace encoding, so neither adds to its peak memory.
    fn simulate(
        &self,
        key: CkKey,
        insts: u64,
        config: &MachineConfig,
        trace: bool,
    ) -> (Stats, Option<Vec<TraceEvent>>) {
        let (apps, epoch, seed) = match key {
            CkKey::Single(_, seed, _) => (1, epoch_schedule(insts), seed),
            CkKey::Mix(_, seed, _) => (3, None, seed),
        };
        let t0 = Instant::now();
        let mut m = Machine::new(config.clone());
        m.set_idle_skip(self.idle_skip);
        if self.check {
            m.set_check(Some(CheckConfig::default()));
        }
        if trace {
            m.set_tracer(Some(Box::new(VecSink::default())));
        }
        m.restore(&self.checkpoint(key));
        m.set_epoch_len(epoch);
        for tid in 0..apps {
            m.set_budget(tid, insts);
        }
        m.run(cycle_cap(insts * apps as u64));
        self.sim_ms.record(t0.elapsed());
        self.assert_check_clean(&m, key);
        for tid in 0..apps {
            assert_eq!(m.stats().retired(tid), insts, "{key:?}: thread {tid} did not finish");
        }
        let events = trace.then(|| {
            let (kernel, digest) = (key.trace_code(), config.digest());
            let mut events = m.take_tracer().expect("tracer attached above").take_events();
            events.insert(0, TraceEvent::RunStart { kernel, seed, insts, digest });
            events
        });
        (m.stats().clone(), events)
    }

    /// [`Runner::simulate`], appending the segment to the trace file when
    /// tracing is on (`--trace PATH`).
    fn simulate_and_trace(&self, key: CkKey, insts: u64, config: &MachineConfig) -> Stats {
        let (stats, events) = self.simulate(key, insts, config, self.trace_path.is_some());
        if let Some(events) = events {
            self.append_segment(&events);
        }
        stats
    }

    /// Runs one kernel point with an in-memory tracer attached and returns
    /// the encoded bytes of a complete single-segment trace file (magic,
    /// then a `RunStart`-prefixed event stream). Bypasses the result cache
    /// on purpose — a memoized run has no events left to give — but shares
    /// the checkpoint cache, and the simulator is deterministic, so the
    /// stats such a run produces are identical to the cached ones. This is
    /// what serves `smtxd`'s per-job `"trace": true` capture.
    ///
    /// # Panics
    ///
    /// Panics if the machine fails to retire `insts` within the cycle cap.
    #[must_use]
    pub fn run_traced(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> Vec<u8> {
        let key = CkKey::Single(kernel, seed, self.skip);
        let (_, events) = self.simulate(key, insts, config, true);
        let events = events.expect("the run was traced");
        let mut out = codec::MAGIC.to_vec();
        out.extend_from_slice(&codec::encode_body(&events));
        out
    }

    /// Memoized [`crate::arch_misses`] (reference-interpreter DTLB misses,
    /// counted under the [`epoch_schedule`] renewal schedule of an
    /// `insts`-length window). Mix denominators share these entries: the
    /// schedule only normalizes the per-miss metric, and the same
    /// denominator serves every mechanism column, so rankings are
    /// unaffected.
    pub fn arch_misses(&self, kernel: Kernel, seed: u64, insts: u64) -> u64 {
        let key = (kernel, seed, insts);
        if let Some(hit) = self.refs.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let misses = if self.skip == 0 {
            let t0 = Instant::now();
            let misses = crate::arch_misses(kernel, seed, insts);
            self.ref_ms.record(t0.elapsed());
            misses
        } else {
            // Misses inside the measurement window: continue the functional
            // model from the checkpoint with a cold DTLB — matching the
            // restored machine's cold microarchitectural TLB — flushed on
            // the window's epoch schedule like the detailed machine's.
            let ck = self.checkpoint(CkKey::Single(kernel, seed, self.skip));
            let t0 = Instant::now();
            let misses = ck.arch_misses_in_window(0, insts, epoch_schedule(insts));
            self.ref_ms.record(t0.elapsed());
            misses
        };
        self.refs.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            misses
        })
    }

    /// Memoized [`crate::insts_for`]: scales `base_insts` so the kernel
    /// averages at least [`crate::MIN_MISSES`] architectural misses (density
    /// sampled inside the measurement window when fast-forwarding).
    ///
    /// Assembled programs ignore `base_insts`: their window is their exact
    /// retired count to `HALT`, minus whatever this runner fast-forwards,
    /// so the detailed machine finishes the window precisely at the halt.
    ///
    /// # Panics
    ///
    /// Panics if the runner's fast-forward would skip an assembled program
    /// past its own `HALT`.
    pub fn insts_for(&self, kernel: Kernel, seed: u64, base_insts: u64) -> u64 {
        if let Some(halt) = kernel.halting_insts() {
            assert!(
                self.skip < halt,
                "{}: --skip {} reaches past the program's halt at {halt}",
                kernel.name(),
                self.skip
            );
            return halt - self.skip;
        }
        let probe = probe_insts(base_insts);
        scale_budget(self.arch_misses(kernel, seed, probe), probe, base_insts)
    }

    /// The paper's §3 metric, with both the mechanism run and the shared
    /// perfect-TLB baseline memoized.
    pub fn penalty_per_miss(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> f64 {
        let run = self.run(kernel, seed, insts, config);
        let perfect = self.run(kernel, seed, insts, &perfect_of(config));
        (run.cycles as f64 - perfect.cycles as f64) / run.arch_misses.max(1) as f64
    }

    /// Memoized Fig. 7 mix run: three kernels plus one idle context,
    /// returning total machine cycles to retire every thread's budget.
    pub fn run_mix(&self, mix: [Kernel; 3], seed: u64, insts: u64, config: &MachineConfig) -> u64 {
        let key = MixKey { mix, seed, insts, config_digest: config.digest() };
        if let Some(hit) = self.mixes.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let stats = self.simulate_and_trace(CkKey::Mix(mix, seed, self.skip), insts, config);
        let cycles = stats.cycles;
        self.mixes.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
            cycles
        })
    }

    /// Architectural misses summed over a mix's three threads (each
    /// per-thread count individually memoized).
    pub fn mix_arch_misses(&self, mix: [Kernel; 3], seed: u64, insts: u64) -> u64 {
        mix.iter()
            .enumerate()
            .map(|(tid, &k)| self.arch_misses(k, seed + tid as u64, insts))
            .sum()
    }

    /// Resolves per-kernel budgets for a whole experiment at once: the
    /// budget probes run in parallel, then each kernel's scaled budget is
    /// read from the cache.
    pub fn insts_map(&self, kernels: &[Kernel], seed: u64, base_insts: u64) -> Vec<u64> {
        let probe = probe_insts(base_insts);
        self.prefetch(
            kernels
                .iter()
                .map(|&k| Job::Ref { kernel: k, seed, insts: probe })
                .collect(),
        );
        kernels
            .iter()
            .map(|&k| self.insts_for(k, seed, base_insts))
            .collect()
    }
}

/// The penalty metric's perfect-TLB baseline for `config`, in canonical
/// form: the mechanism swapped for the perfect TLB, one hardware context
/// and default [`LimitKnobs`].
///
/// A perfect-TLB machine never takes a TLB exception, so it never starts a
/// handler thread: its idle contexts stay idle and the limit knobs, which
/// only change how handler instructions are charged, have nothing to act
/// on. Dropping them changes no cycle of thread 0's run
/// (`tests/perfect_baseline.rs` holds that gate) and lets every column of a
/// figure that differs only in those fields share one baseline simulation.
/// A config with `emulate_divu` keeps its contexts and knobs: emulated
/// `DIVU` starts handler threads even under a perfect TLB.
///
/// The baseline serves single-application runs, i.e. thread 0 only. A
/// multi-application checkpoint restored into it trips
/// `Machine::restore`'s context-count assert.
#[must_use]
pub fn perfect_of(config: &MachineConfig) -> MachineConfig {
    let mut perfect = config.clone();
    perfect.mechanism = ExnMechanism::PerfectTlb;
    if !perfect.emulate_divu {
        perfect.threads = 1;
        perfect.limits = LimitKnobs::default();
    }
    perfect
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_with_idle;

    #[test]
    fn repeated_queries_hit_the_cache() {
        let runner = Runner::new(1);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let a = runner.run(Kernel::Compress, 42, 5_000, &cfg);
        let before = runner.stats();
        let b = runner.run(Kernel::Compress, 42, 5_000, &cfg);
        let after = runner.stats();
        assert_eq!(a.stats, b.stats, "cached result identical");
        assert_eq!(after.unique_runs, before.unique_runs, "no recompute");
        assert_eq!(after.cache_hits, before.cache_hits + 1);
    }

    #[test]
    fn penalty_shares_the_perfect_baseline() {
        let runner = Runner::new(1);
        // Fig. 5's columns: they differ in mechanism and idle contexts.
        let columns = [
            config_with_idle(ExnMechanism::Traditional, 1),
            config_with_idle(ExnMechanism::Multithreaded, 1),
            config_with_idle(ExnMechanism::Multithreaded, 3),
            config_with_idle(ExnMechanism::Hardware, 1),
        ];
        let _ = runner.penalty_per_miss(Kernel::Compress, 42, 5_000, &columns[0]);
        for cfg in &columns[1..] {
            let before = runner.stats().unique_runs;
            let _ = runner.penalty_per_miss(Kernel::Compress, 42, 5_000, cfg);
            // Each later column adds exactly its own simulation — the
            // perfect baseline and the reference run are shared, whatever
            // the column's context count.
            assert_eq!(
                runner.stats().unique_runs,
                before + 1,
                "{:?} with {} contexts",
                cfg.mechanism,
                cfg.threads
            );
        }
    }

    #[test]
    fn cached_and_fresh_checkpoints_yield_identical_runs() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let cached = Runner::new(1).with_skip(2_000);
        let uncached = Runner::new(1).with_skip(2_000).with_checkpoint_cache(false);
        let a = cached.run(Kernel::Compress, 42, 3_000, &cfg);
        let b = uncached.run(Kernel::Compress, 42, 3_000, &cfg);
        assert_eq!(a.stats, b.stats, "checkpoint reuse must not change results");
        // A second config against the cached runner reuses the checkpoint.
        let hw = config_with_idle(ExnMechanism::Hardware, 1);
        let _ = cached.run(Kernel::Compress, 42, 3_000, &hw);
    }

    /// The checkpoint cache's LRU byte cap, exercised with a cap below
    /// three checkpoints (and then below one): the least-recently-used
    /// entry goes first, the entry just inserted never goes,
    /// `checkpoint_bytes` follows every eviction, and a run that rebuilds
    /// an evicted checkpoint equals the cached run.
    #[test]
    fn checkpoint_cache_evicts_least_recently_used_past_the_cap() {
        const SKIP: u64 = 2_000;
        const INSTS: u64 = 1_000;
        let (a, b, c) = (Kernel::Compress, Kernel::Gcc, Kernel::Murphi);
        let size = |k| make_checkpoint(k, 42, SKIP).approx_bytes();
        let (sa, sb, sc) = (size(a), size(b), size(c));
        let trad = config_with_idle(ExnMechanism::Traditional, 1);
        let hw = config_with_idle(ExnMechanism::Hardware, 1);
        let cached = |r: &Runner, k| r.checkpoints.contains(&CkKey::Single(k, 42, SKIP));
        let builds = |r: &Runner| r.stats().checkpoint_ms_hist.iter().sum::<u64>();

        // Any two fit, three do not.
        let mut runner = Runner::new(1).with_skip(SKIP);
        runner.ck_cap_bytes = sa + sb + sc - 1;
        let _ = runner.run(a, 42, INSTS, &trad);
        let _ = runner.run(b, 42, INSTS, &trad);
        assert_eq!(runner.stats().checkpoint_bytes, sa + sb);
        let _ = runner.run(a, 42, INSTS, &hw); // a hit makes `a` most recent
        let _ = runner.run(c, 42, INSTS, &trad);
        assert!(!cached(&runner, b), "the least recently used checkpoint is evicted");
        assert!(cached(&runner, a) && cached(&runner, c));
        assert_eq!(runner.stats().checkpoint_bytes, sa + sc);
        assert_eq!(builds(&runner), 3);

        let rebuilt = runner.run(b, 42, INSTS, &hw);
        assert_eq!(builds(&runner), 4, "the evicted checkpoint is rebuilt");
        assert!(!cached(&runner, a), "`a` is now the least recently used");
        assert!(cached(&runner, b) && cached(&runner, c));
        assert_eq!(runner.stats().checkpoint_bytes, sb + sc);
        let reference = Runner::new(1).with_skip(SKIP).run(b, 42, INSTS, &hw);
        assert_eq!(rebuilt.stats, reference.stats, "a rebuilt checkpoint runs the same");
        assert_eq!(rebuilt.arch_misses, reference.arch_misses);

        // Below one checkpoint: the entry just inserted still stays.
        let mut runner = Runner::new(1).with_skip(SKIP);
        runner.ck_cap_bytes = 1;
        let _ = runner.run(a, 42, INSTS, &trad);
        assert!(cached(&runner, a), "the only entry is never evicted");
        assert_eq!(runner.stats().checkpoint_bytes, sa);
        let _ = runner.run(b, 42, INSTS, &trad);
        assert!(!cached(&runner, a) && cached(&runner, b));
        assert_eq!(runner.stats().checkpoint_bytes, sb);
    }

    #[test]
    fn checked_runner_matches_unchecked_bit_for_bit() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let plain = Runner::new(1).run(Kernel::Compress, 42, 5_000, &cfg);
        let checked = Runner::new(1).with_check(true).run(Kernel::Compress, 42, 5_000, &cfg);
        assert_eq!(plain.stats, checked.stats, "--check must be observation-only");
        assert_eq!(plain.cycles, checked.cycles);
    }

    #[test]
    fn traced_runs_are_observation_only_and_decodable() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let path = std::env::temp_dir()
            .join(format!("smtx-runner-trace-{}.bin", std::process::id()));
        let traced = Runner::new(1).with_trace(Some(path.clone()));
        let a = traced.run(Kernel::Compress, 42, 3_000, &cfg);
        let b = Runner::new(1).run(Kernel::Compress, 42, 3_000, &cfg);
        assert_eq!(a.stats, b.stats, "tracing must not change results");
        let first = std::fs::read(&path).expect("trace written");
        let events = codec::decode(&first).expect("trace decodes");
        assert!(
            matches!(events.first(), Some(TraceEvent::RunStart { kernel, .. }) if *kernel != u64::MAX),
            "segment opens with a kernel RunStart marker"
        );
        assert!(matches!(events.last(), Some(TraceEvent::End { .. })));
        // A cache hit is not re-traced.
        let _ = traced.run(Kernel::Compress, 42, 3_000, &cfg);
        let second = std::fs::read(&path).expect("trace still there");
        let _ = std::fs::remove_file(&path);
        assert_eq!(first.len(), second.len(), "cache hits append nothing");
    }

    #[test]
    fn a_traced_mix_writes_one_tagged_segment_ending_at_its_cycles() {
        let mix = [Kernel::Compress, Kernel::Gcc, Kernel::Murphi];
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 3);
        let path = std::env::temp_dir()
            .join(format!("smtx-runner-mix-trace-{}.bin", std::process::id()));
        let traced = Runner::new(1).with_trace(Some(path.clone()));
        let cycles = traced.run_mix(mix, 42, 1_000, &cfg);
        assert_eq!(cycles, Runner::new(1).run_mix(mix, 42, 1_000, &cfg), "tracing is observation-only");
        let bytes = std::fs::read(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let events = codec::decode(&bytes).expect("trace decodes");
        assert!(
            matches!(events.first(), Some(TraceEvent::RunStart { kernel: u64::MAX, insts: 1_000, .. })),
            "a mix segment opens with the u64::MAX RunStart marker"
        );
        let starts = events.iter().filter(|e| matches!(e, TraceEvent::RunStart { .. })).count();
        assert_eq!(starts, 1, "one segment");
        assert_eq!(events.last(), Some(&TraceEvent::End { cycle: cycles }));
    }

    #[test]
    fn stage_histograms_count_unique_work() {
        let runner = Runner::new(1).with_skip(2_000);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let _ = runner.run(Kernel::Compress, 42, 3_000, &cfg);
        let s = runner.stats();
        assert_eq!(s.sim_ms_hist.iter().sum::<u64>(), 1, "one detailed simulation");
        assert_eq!(s.checkpoint_ms_hist.iter().sum::<u64>(), 1, "one checkpoint build");
        assert_eq!(s.ref_ms_hist.iter().sum::<u64>(), 1, "one reference window");
    }

    #[test]
    fn prefetch_dedups_within_batch() {
        let runner = Runner::new(2);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let job = || Job::Sim { kernel: Kernel::Compress, seed: 42, insts: 3_000, config: cfg.clone() };
        runner.prefetch(vec![job(), job(), job()]);
        assert_eq!(runner.stats().unique_runs, 2, "one sim + its reference run");
    }
}
