//! The `--check` pipeline sanitizer.
//!
//! An opt-in correctness layer that validates a running [`Machine`] against
//! the paper's microarchitectural contracts while it simulates:
//!
//! * **Lockstep retirement** — every retiring user-mode instruction is also
//!   executed by the architectural [`Interpreter`] oracle, and the committed
//!   register state must agree *per retirement*, not just at the end of the
//!   run (the discipline Prophet-style speculative-threading simulators use
//!   to validate thread commits against a sequential oracle).
//! * **Retirement splicing** (paper §4.1, Fig. 1c) — a handler thread may
//!   retire only while its master is parked at the excepting instruction,
//!   and a master may never retire past the excepting instruction of one of
//!   its own active handlers.
//! * **Window accounting** (paper §4.4) — occupancy respects the physical
//!   capacity and the handler reservation rule at every insertion.
//! * **Structural conservation** — rob/window agreement, rename-map
//!   entries pointing at live same-thread producers, handler bookkeeping,
//!   the wake-list (`ready_seqs`/`pending_issue`) superset invariant,
//!   promoted from a `debug_assert!` to structured reports, and the
//!   parked-load invariant that every load parked behind a store will wake.
//!
//! The checker is strictly observation-only: it never mutates simulated
//! state (its oracle writes memory values the machine's own retirement
//! commits identically), so enabling it cannot change a single reported
//! row. Violations are collected as structured [`CheckViolation`] records
//! rather than panics, so a divergence can be reported with full cycle,
//! thread, and sequence-number context.
//!
//! Like `--idle-skip`, the check mode is deliberately *not* part of
//! [`crate::MachineConfig`] — it never changes simulated behavior, so it
//! must not perturb config digests or memoized run keys.

use std::fmt;

use crate::dyninst::{DynInst, RegClass};
use crate::machine::Machine;
use crate::refmodel::Interpreter;
use crate::thread::ThreadState;
use crate::window::F_ORDER;

/// Configuration of the pipeline sanitizer (see [`Machine::set_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Run the architectural oracle in lockstep with user retirement.
    pub lockstep: bool,
    /// Check the structural invariants at every cycle boundary.
    pub invariants: bool,
    /// Stop recording after this many violations (the count keeps rising;
    /// only the stored details are capped).
    pub max_violations: usize,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig { lockstep: true, invariants: true, max_violations: 64 }
    }
}

/// One detected violation of a checked invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckViolation {
    /// Which invariant was violated (a stable kebab-case rule name).
    pub rule: &'static str,
    /// Cycle at which the violation was detected.
    pub cycle: u64,
    /// Hardware context involved, if attributable.
    pub tid: Option<usize>,
    /// Sequence number involved, if attributable.
    pub seq: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.rule, self.cycle)?;
        if let Some(tid) = self.tid {
            write!(f, " tid {tid}")?;
        }
        if let Some(seq) = self.seq {
            write!(f, " seq {seq}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The sanitizer state attached to a [`Machine`] by [`Machine::set_check`].
#[derive(Debug)]
pub(crate) struct Checker {
    config: CheckConfig,
    /// Per-context architectural oracles, initialized lazily at each
    /// thread's first user-mode retirement (which also makes the checker
    /// compatible with checkpoint restore: the oracle picks up from the
    /// thread's committed state at that point).
    oracles: Vec<Option<Interpreter>>,
    violations: Vec<CheckViolation>,
    /// Total violations seen (including those past `max_violations`).
    total: u64,
}

impl Checker {
    fn new(config: CheckConfig, threads: usize) -> Checker {
        Checker { config, oracles: vec![None; threads], violations: Vec::new(), total: 0 }
    }

    fn record(&mut self, v: CheckViolation) {
        self.total += 1;
        if self.violations.len() < self.config.max_violations {
            self.violations.push(v);
        }
    }
}

impl Machine {
    /// Enables (`Some`) or disables (`None`) the pipeline sanitizer. Off by
    /// default. Checking is observation-only: stats and reported rows are
    /// bit-identical with it on or off; divergences surface through
    /// [`Machine::check_violations`], never through simulated behavior.
    pub fn set_check(&mut self, config: Option<CheckConfig>) {
        self.checker = config.map(|c| Checker::new(c, self.threads.len()));
    }

    /// Whether the pipeline sanitizer is enabled.
    #[must_use]
    pub fn check_enabled(&self) -> bool {
        self.checker.is_some()
    }

    /// Violations detected so far (empty when checking is off or clean).
    #[must_use]
    pub fn check_violations(&self) -> &[CheckViolation] {
        self.checker.as_ref().map_or(&[], |c| c.violations.as_slice())
    }

    /// Total violations detected, including any past the recording cap.
    #[must_use]
    pub fn check_violation_count(&self) -> u64 {
        self.checker.as_ref().map_or(0, |c| c.total)
    }

    /// Retirement-time checks: splice ordering (paper §4.1/Fig. 1c) and the
    /// lockstep architectural oracle. Called from `retire_one` *before* the
    /// destination commit, so a lazily created oracle sees the pre-commit
    /// register files.
    pub(crate) fn check_retire(&mut self, tid: usize, inst: &DynInst, now: u64) {
        let Some(mut ck) = self.checker.take() else { return };

        // A master must never retire at or past the excepting instruction
        // of one of its own active handlers: those retire first (Fig. 1c).
        for h in &self.handlers {
            if h.master == tid && inst.seq >= h.exc_seq {
                ck.record(CheckViolation {
                    rule: "splice-ordering",
                    cycle: now,
                    tid: Some(tid),
                    seq: Some(inst.seq),
                    detail: format!(
                        "master retired seq {} at or past excepting seq {} of active handler tid {}",
                        inst.seq, h.exc_seq, h.handler_tid
                    ),
                });
            }
        }

        if self.threads[tid].is_handler() {
            // A handler instruction retires only while the master is parked
            // with the excepting instruction at its rob head.
            match self.handler_record(tid) {
                None => ck.record(CheckViolation {
                    rule: "splice-ordering",
                    cycle: now,
                    tid: Some(tid),
                    seq: Some(inst.seq),
                    detail: "handler thread retiring without an ActiveHandler record".to_string(),
                }),
                Some(rec) => {
                    let head = self.threads[rec.master].rob.front().copied();
                    if head != Some(rec.exc_seq) {
                        ck.record(CheckViolation {
                            rule: "splice-ordering",
                            cycle: now,
                            tid: Some(tid),
                            seq: Some(inst.seq),
                            detail: format!(
                                "handler retired while master tid {} head is {:?}, not excepting seq {}",
                                rec.master, head, rec.exc_seq
                            ),
                        });
                    }
                }
            }
        } else if ck.config.lockstep
            && !inst.pal
            && self.threads[tid].state == ThreadState::Run
        {
            self.check_lockstep(&mut ck, tid, inst, now);
        }

        self.checker = Some(ck);
    }

    /// Steps the per-thread architectural oracle over one retiring
    /// user-mode instruction and compares committed state.
    fn check_lockstep(&mut self, ck: &mut Checker, tid: usize, inst: &DynInst, now: u64) {
        let Some(space_idx) = self.threads[tid].space else { return };
        if ck.oracles[tid].is_none() {
            // First user retirement for this context: fork the oracle off
            // the machine's committed (pre-commit-of-`inst`) state.
            let t = &self.threads[tid];
            ck.oracles[tid] = Some(Interpreter::from_state(inst.pc, t.int_regs, t.fp_regs));
        }
        let oracle = ck.oracles[tid].as_mut().expect("just initialized");
        if oracle.halted() {
            let detail = format!("retired pc {:#x} after the oracle halted", inst.pc);
            ck.record(CheckViolation {
                rule: "lockstep-oracle",
                cycle: now,
                tid: Some(tid),
                seq: Some(inst.seq),
                detail,
            });
            return;
        }
        if oracle.pc() != inst.pc {
            let detail = format!(
                "retirement stream diverged: retiring pc {:#x}, oracle at pc {:#x}",
                inst.pc,
                oracle.pc()
            );
            ck.record(CheckViolation {
                rule: "lockstep-oracle",
                cycle: now,
                tid: Some(tid),
                seq: Some(inst.seq),
                detail,
            });
            return;
        }
        // The oracle's stores write the same bytes the machine's own
        // retirement commits, so stepping it here is observation-only.
        if let Err(e) = oracle.step(&mut self.pm, &mut self.spaces[space_idx]) {
            let detail = format!("oracle fault at pc {:#x}: {e}", inst.pc);
            ck.record(CheckViolation {
                rule: "lockstep-oracle",
                cycle: now,
                tid: Some(tid),
                seq: Some(inst.seq),
                detail,
            });
            return;
        }
        // Expected post-commit register files: the pre-commit files plus
        // this instruction's destination write (mirroring `set_committed`,
        // including the discarded zero-register write).
        let t = &self.threads[tid];
        let mut exp_int = t.int_regs;
        let mut exp_fp = t.fp_regs;
        match inst.dest {
            Some((RegClass::Int, idx)) if idx != 31 => exp_int[idx as usize] = inst.result,
            Some((RegClass::Fp, idx)) if idx != 31 => exp_fp[idx as usize] = inst.result,
            _ => {}
        }
        let oracle = ck.oracles[tid].as_ref().expect("present");
        if oracle.int_regs() != &exp_int || oracle.fp_regs() != &exp_fp {
            let diff = (0..32)
                .find(|&i| oracle.int_regs()[i] != exp_int[i])
                .map(|i| format!("r{i}: machine {:#x}, oracle {:#x}", exp_int[i], oracle.int_regs()[i]))
                .or_else(|| {
                    (0..32).find(|&i| oracle.fp_regs()[i] != exp_fp[i]).map(|i| {
                        format!("f{i}: machine {:#x}, oracle {:#x}", exp_fp[i], oracle.fp_regs()[i])
                    })
                })
                .unwrap_or_default();
            ck.record(CheckViolation {
                rule: "lockstep-oracle",
                cycle: now,
                tid: Some(tid),
                seq: Some(inst.seq),
                detail: format!("register divergence at pc {:#x} ({diff})", inst.pc),
            });
        }
    }

    /// Post-insertion window-admission check (paper §4.4): insertion
    /// control must leave occupancy within physical capacity and must not
    /// let an application thread eat into its handlers' reservations.
    pub(crate) fn check_admission(&mut self, tid: usize, seq: u64, now: u64) {
        let Some(mut ck) = self.checker.take() else { return };
        let cap = self.config.window;
        if self.occupancy() > cap {
            ck.record(CheckViolation {
                rule: "window-occupancy",
                cycle: now,
                tid: Some(tid),
                seq: Some(seq),
                detail: format!("insertion left occupancy {} over capacity {cap}", self.occupancy()),
            });
        } else if !self.threads[tid].is_handler()
            && self.occupancy() + self.reserved_for_master(tid) > cap
        {
            ck.record(CheckViolation {
                rule: "window-occupancy",
                cycle: now,
                tid: Some(tid),
                seq: Some(seq),
                detail: format!(
                    "insertion violated the §4.4 reservation: occupancy {} + reserved {} > {cap}",
                    self.occupancy(),
                    self.reserved_for_master(tid)
                ),
            });
        }
        self.checker = Some(ck);
    }

    /// Consistency of a freshly spawned handler record: the excepting
    /// instruction must be linked to the handler context, and the context
    /// must be in the Exception state serving the right master.
    pub(crate) fn check_handler_spawn(&mut self, handler_tid: usize, now: u64) {
        let Some(mut ck) = self.checker.take() else { return };
        match self.handler_record(handler_tid) {
            None => ck.record(CheckViolation {
                rule: "handler-linkage",
                cycle: now,
                tid: Some(handler_tid),
                seq: None,
                detail: "spawned handler has no ActiveHandler record".to_string(),
            }),
            Some(rec) => {
                let linked = self
                    .window
                    .get(rec.exc_seq)
                    .is_some_and(|i| i.tid == rec.master && i.handler_tid == Some(handler_tid));
                if !linked {
                    ck.record(CheckViolation {
                        rule: "handler-linkage",
                        cycle: now,
                        tid: Some(handler_tid),
                        seq: Some(rec.exc_seq),
                        detail: format!(
                            "excepting seq {} is not linked to handler tid {handler_tid} of master {}",
                            rec.exc_seq, rec.master
                        ),
                    });
                }
                if self.threads[handler_tid].state
                    != (ThreadState::Exception { master: rec.master })
                {
                    ck.record(CheckViolation {
                        rule: "handler-linkage",
                        cycle: now,
                        tid: Some(handler_tid),
                        seq: Some(rec.exc_seq),
                        detail: format!(
                            "handler context state is {:?}, expected Exception for master {}",
                            self.threads[handler_tid].state, rec.master
                        ),
                    });
                }
            }
        }
        self.checker = Some(ck);
    }

    /// Cycle-boundary structural invariants. Called from `step_cycle` when
    /// checking is on.
    pub(crate) fn check_cycle_end(&mut self) {
        let Some(mut ck) = self.checker.take() else { return };
        if ck.config.invariants {
            let mut found = Vec::new();
            self.collect_structural_violations(true, &mut found);
            for v in found {
                ck.record(v);
            }
        }
        self.checker = Some(ck);
    }

    /// Collects structural-invariant violations into `out`. The cheap tier
    /// (`deep == false`) is what debug builds assert every cycle; `deep`
    /// adds the rename-map conservation and occupancy scans that only the
    /// `--check` sanitizer pays for.
    pub(crate) fn collect_structural_violations(&self, deep: bool, out: &mut Vec<CheckViolation>) {
        let now = self.cycle;
        if self.window.len() > self.config.window + self.handler_insts_in_window {
            out.push(CheckViolation {
                rule: "window-occupancy",
                cycle: now,
                tid: None,
                seq: None,
                detail: format!(
                    "window overflow: {} > {} (+{} handler)",
                    self.window.len(),
                    self.config.window,
                    self.handler_insts_in_window
                ),
            });
        }
        let rob_total: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        if rob_total != self.window.len() {
            out.push(CheckViolation {
                rule: "rob-window-conservation",
                cycle: now,
                tid: None,
                seq: None,
                detail: format!("rob entries {} != window entries {}", rob_total, self.window.len()),
            });
        }
        for (tid, t) in self.threads.iter().enumerate() {
            let mut prev = None;
            for &s in &t.rob {
                if Some(s) <= prev {
                    out.push(CheckViolation {
                        rule: "rob-window-conservation",
                        cycle: now,
                        tid: Some(tid),
                        seq: Some(s),
                        detail: format!("rob out of fetch order (seq {s} after {prev:?})"),
                    });
                }
                match self.window.get(s) {
                    None => out.push(CheckViolation {
                        rule: "rob-window-conservation",
                        cycle: now,
                        tid: Some(tid),
                        seq: Some(s),
                        detail: "rob entry missing from the window".to_string(),
                    }),
                    Some(i) if i.tid != tid => out.push(CheckViolation {
                        rule: "rob-window-conservation",
                        cycle: now,
                        tid: Some(tid),
                        seq: Some(s),
                        detail: format!("window entry belongs to tid {}", i.tid),
                    }),
                    Some(_) => {}
                }
                prev = Some(s);
            }
        }
        // The wake-up list must stay a *superset* of the issuable set: an
        // issuable instruction absent from it would silently never issue.
        // (Promoted from the old bare `debug_assert!`.) The arena is
        // scanned in slot order — heap-free on the clean path, which the
        // per-cycle debug hook and the steady-state allocation test rely
        // on — and any violations are sorted afterwards so the report
        // order stays deterministic despite the layout-dependent scan.
        let start = out.len();
        for (s, flags) in self.window.iter_flags() {
            if flags != crate::window::F_ISSUABLE {
                continue;
            }
            let staged =
                self.ready_seqs.contains(&s) || self.pending_issue.iter().any(|&(_, q)| q == s);
            if !staged {
                out.push(CheckViolation {
                    rule: "wake-list-superset",
                    cycle: now,
                    tid: Some(self.window.get(s).expect("issuable entry is live").tid),
                    seq: Some(s),
                    detail: "issuable instruction missing from ready_seqs/pending_issue"
                        .to_string(),
                });
            }
        }
        out[start..].sort_unstable_by_key(|v| v.seq);
        // Parked loads are outside that superset, so each needs its own
        // wake-up: an `F_ORDER` load must sit on its thread's parked list
        // exactly once, behind a live, older store of that thread whose
        // address is still unknown (the store's execution unparks it), and
        // every parked-list entry must name a live `F_ORDER` load.
        let start = out.len();
        for (s, flags) in self.window.iter_flags() {
            if flags & F_ORDER == 0 {
                continue;
            }
            let inst = self.window.get(s).expect("flagged entry is live");
            let t = &self.threads[inst.tid];
            let mut entries = t.parked_loads.iter().filter(|&&(_, load)| load == s);
            let detail = match (entries.next(), entries.next()) {
                (None, _) => {
                    Some("F_ORDER load missing from its thread's parked list".to_string())
                }
                (Some(_), Some(_)) => Some("load parked more than once".to_string()),
                (Some(&(store, _)), None) => {
                    let blocking = inst.inst.op.is_load()
                        && store < s
                        && t.store_queue.contains(&store)
                        && self
                            .window
                            .get(store)
                            .is_some_and(|st| st.tid == inst.tid && st.mem_vaddr.is_none());
                    (!blocking).then(|| {
                        format!("parked behind {store}, not an older unresolved store")
                    })
                }
            };
            if let Some(detail) = detail {
                out.push(CheckViolation {
                    rule: "parked-load",
                    cycle: now,
                    tid: Some(inst.tid),
                    seq: Some(s),
                    detail,
                });
            }
        }
        for (tid, t) in self.threads.iter().enumerate() {
            for &(store, load) in &t.parked_loads {
                let flagged = self.window.get(load).is_some_and(|i| i.tid == tid)
                    && self.window.issue_state(load).is_some_and(|(f, _)| f & F_ORDER != 0);
                if !flagged {
                    out.push(CheckViolation {
                        rule: "parked-load",
                        cycle: now,
                        tid: Some(tid),
                        seq: Some(load),
                        detail: format!(
                            "parked-list entry ({store}, {load}) names a dead or unparked load"
                        ),
                    });
                }
            }
        }
        out[start..].sort_unstable_by_key(|v| v.seq);
        if !deep {
            return;
        }
        if self.occupancy() > self.config.window {
            out.push(CheckViolation {
                rule: "window-occupancy",
                cycle: now,
                tid: None,
                seq: None,
                detail: format!(
                    "occupancy {} exceeds capacity {}",
                    self.occupancy(),
                    self.config.window
                ),
            });
        }
        let handler_insts: usize = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_handler())
            .map(|(_, t)| t.rob.len())
            .sum();
        if handler_insts != self.handler_insts_in_window {
            out.push(CheckViolation {
                rule: "window-occupancy",
                cycle: now,
                tid: None,
                seq: None,
                detail: format!(
                    "handler_insts_in_window {} but handler robs hold {handler_insts}",
                    self.handler_insts_in_window
                ),
            });
        }
        // Rename-map conservation: every live map entry must point at a
        // live window entry of the same thread that writes that register.
        for (tid, t) in self.threads.iter().enumerate() {
            let classes: [(RegClass, &[Option<u64>]); 4] = [
                (RegClass::Int, &t.rmap_int),
                (RegClass::Fp, &t.rmap_fp),
                (RegClass::Shadow, &t.rmap_shadow),
                (RegClass::Priv, &t.rmap_priv),
            ];
            for (class, map) in classes {
                for (idx, entry) in map.iter().enumerate() {
                    let Some(seq) = *entry else { continue };
                    let ok = self.window.get(seq).is_some_and(|i| {
                        i.tid == tid && i.dest == Some((class, idx as u8))
                    });
                    if !ok {
                        out.push(CheckViolation {
                            rule: "rename-conservation",
                            cycle: now,
                            tid: Some(tid),
                            seq: Some(seq),
                            detail: format!(
                                "rmap {class:?}[{idx}] points at a dead or mismatched producer"
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use smtx_isa::{ProgramBuilder, Reg};

    use crate::{ExnMechanism, Machine, MachineConfig};

    const DATA: u64 = 0x2000_0000;

    fn parked_load_violations(m: &Machine) -> Vec<(Option<u64>, String)> {
        let mut found = Vec::new();
        m.collect_structural_violations(false, &mut found);
        found.into_iter().filter(|v| v.rule == "parked-load").map(|v| (v.seq, v.detail)).collect()
    }

    /// A store whose address hangs on a multiply chain parks the
    /// independent load behind it; breaking either half of the park
    /// bookkeeping must fire the rule.
    #[test]
    fn parked_load_rule_fires_on_a_lost_wake_up() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(10), DATA);
        b.li(Reg(1), 3);
        for _ in 0..4 {
            b.mul(Reg(1), Reg(1), Reg(1));
        }
        b.andi(Reg(1), Reg(1), 0);
        b.add(Reg(2), Reg(10), Reg(1));
        b.stq(Reg(1), Reg(2), 0);
        b.ldq(Reg(4), Reg(10), 64);
        b.halt();
        let program = b.build().expect("assembles");
        let mut m = Machine::new(MachineConfig::paper_baseline(ExnMechanism::PerfectTlb));
        let space = m.attach_program(0, &program);
        let (sp, pm, alloc) = m.vm_parts(space);
        sp.map_region(pm, alloc, DATA, 1);
        let mut parked = None;
        for _ in 0..200 {
            m.step_cycle();
            parked = m.threads[0].parked_loads.first().copied();
            if parked.is_some() {
                break;
            }
        }
        let (store, load) = parked.expect("the load parks behind the store");
        assert!(store < load);
        assert!(parked_load_violations(&m).is_empty());

        // Flagged `F_ORDER` but on no parked list: nothing would unpark it.
        m.threads[0].parked_loads.clear();
        let found = parked_load_violations(&m);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, Some(load));
        assert!(found[0].1.contains("missing"), "{found:?}");

        // Listed but no longer flagged.
        m.threads[0].parked_loads.push((store, load));
        m.window.clear_order(load);
        let found = parked_load_violations(&m);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, Some(load));
        assert!(found[0].1.contains("dead or unparked"), "{found:?}");
    }
}
