//! The exception architectures (the paper's contribution).
//!
//! Dispatch on a data-TLB miss, the traditional trap, handler-thread
//! spawning (with quick-start and the instant-fetch limit study), hardware
//! page walks, duplicate-miss re-linking, reversion when no context is
//! idle, and `HARDEXC` escalation.

use smtx_isa::PrivReg;
use smtx_mem::{Pte, PAGE_SHIFT};

use crate::config::ExnMechanism;
use crate::dyninst::FrontEndInst;
use crate::machine::{ActiveHandler, HandlerKind, Machine, Walk};
use crate::thread::ThreadState;
use crate::trace::{RaiseKind, RevertWhy, SquashCause, TraceEvent};

impl Machine {
    /// Handles a data-TLB miss detected at execute time (possibly on a
    /// mis-speculated path — dispatch is speculative, exactly like the rest
    /// of execution).
    pub(crate) fn dispatch_tlb_miss(&mut self, seq: u64, tid: usize, va: u64, now: u64) {
        let asid = self.threads[tid].asid;
        let vpn = va >> PAGE_SHIFT;
        let key = (asid, vpn);
        {
            let i = self.window.get_mut(seq).expect("faulting instruction present");
            i.caused_tlb_miss = true;
        }

        // A fill for this page is already in flight?
        if let Some(idx) = self.handlers.iter().position(|h| h.key == key) {
            if seq < self.handlers[idx].exc_seq {
                // Out-of-order duplicate miss: re-link the handler to the
                // older instruction so retirement order stays correct
                // (paper §4.5).
                let old_seq = self.handlers[idx].exc_seq;
                let handler_tid = self.handlers[idx].handler_tid;
                if let Some(old) = self.window.get_mut(old_seq) {
                    old.handler_tid = None;
                }
                self.waiters.push(key, old_seq);
                self.window.set_waiting(old_seq, key);
                self.handlers[idx].exc_seq = seq;
                self.window.get_mut(seq).expect("present").handler_tid = Some(handler_tid);
                self.stats.relinks += 1;
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Raise {
                        cycle: now,
                        tid: tid as u64,
                        seq,
                        kind: RaiseKind::Relink,
                        aux: handler_tid as u64,
                    });
                }
            } else {
                self.stats.secondary_misses += 1;
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Raise {
                        cycle: now,
                        tid: tid as u64,
                        seq,
                        kind: RaiseKind::Secondary,
                        aux: vpn,
                    });
                }
            }
            self.park_on_fill(seq, key);
            return;
        }
        if self.walks.iter().any(|w| w.key == key) {
            self.stats.secondary_misses += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Raise {
                    cycle: now,
                    tid: tid as u64,
                    seq,
                    kind: RaiseKind::Secondary,
                    aux: vpn,
                });
            }
            self.park_on_fill(seq, key);
            return;
        }

        let pc = self.window.get(seq).expect("faulting instruction present").pc;
        if self.tracer.is_some() {
            self.emit(TraceEvent::Raise {
                cycle: now,
                tid: tid as u64,
                seq,
                kind: RaiseKind::Primary,
                aux: vpn,
            });
        }
        match self.config.mechanism {
            ExnMechanism::PerfectTlb => unreachable!("perfect TLB cannot miss"),
            ExnMechanism::Traditional => {
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Revert {
                        cycle: now,
                        tid: tid as u64,
                        seq,
                        pc,
                        why: RevertWhy::Traditional,
                    });
                }
                self.trap(tid, seq, va, pc, now);
            }
            ExnMechanism::Multithreaded | ExnMechanism::QuickStart => {
                self.spawn_handler(tid, seq, key, va, pc, now);
            }
            ExnMechanism::Hardware => self.start_walk(tid, seq, key, va, now),
        }
    }

    fn park_on_fill(&mut self, seq: u64, key: (smtx_mem::Asid, u64)) {
        self.waiters.push(key, seq);
        let live = self.window.set_waiting(seq, key);
        debug_assert!(live, "parking a live instruction");
    }

    /// The traditional mechanism (paper Fig. 1a): squash from the excepting
    /// instruction onward and fetch the handler into the same thread.
    pub(crate) fn trap(&mut self, tid: usize, seq: u64, va: u64, pc: u64, now: u64) {
        if !matches!(self.threads[tid].state, ThreadState::Run) {
            return;
        }
        if self.tracer.is_some() {
            self.emit(TraceEvent::Squash {
                cycle: now,
                tid: tid as u64,
                from_seq: seq,
                cause: SquashCause::Trap,
                resume_pc: self.pal_base,
            });
        }
        let cp = self.squash_thread_from(tid, seq);
        if let Some(pi) = cp {
            self.threads[tid].bu.restore(pi.checkpoint);
        }
        let space = self.threads[tid].space.expect("running thread has a space");
        let pt_base = self.spaces[space].pt_base();
        let asid = self.threads[tid].asid;
        let pal_base = self.pal_base;
        let t = &mut self.threads[tid];
        t.priv_regs[PrivReg::FaultVa.index()] = va;
        t.priv_regs[PrivReg::PtBase.index()] = pt_base;
        t.priv_regs[PrivReg::ExcPc.index()] = pc;
        t.priv_regs[PrivReg::Asid.index()] = u64::from(asid);
        t.fetch_pc = pal_base;
        t.fetch_pal = true;
        t.fetch_stopped = false;
        t.fetch_stalled_until = now + 1;
        t.redirect_wait = None;
        t.last_ifetch_line = None;
        self.stats.traps += 1;
    }

    /// The multithreaded mechanism (paper §4): allocate an idle context to
    /// run the handler; the faulting instruction stays in the window.
    fn spawn_handler(
        &mut self,
        master: usize,
        seq: u64,
        key: (smtx_mem::Asid, u64),
        va: u64,
        pc: u64,
        now: u64,
    ) {
        let Some(handler_tid) = (0..self.threads.len())
            .find(|&i| self.threads[i].state == ThreadState::Idle)
        else {
            // No idle context: revert to the traditional mechanism
            // (paper §4.5 advocates exactly this over stalling).
            self.stats.reverted_no_thread += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Revert {
                    cycle: now,
                    tid: master as u64,
                    seq,
                    pc,
                    why: RevertWhy::NoIdleContext,
                });
            }
            self.trap(master, seq, va, pc, now);
            return;
        };
        self.stats.handlers_spawned += 1;
        let space = self.threads[master].space.expect("running thread has a space");
        let pt_base = self.spaces[space].pt_base();
        let pal_base = self.pal_base;
        {
            let t = &mut self.threads[handler_tid];
            t.state = ThreadState::Exception { master };
            t.space = None;
            t.asid = key.0;
            t.priv_regs = [0; 8];
            t.priv_regs[PrivReg::FaultVa.index()] = va;
            t.priv_regs[PrivReg::PtBase.index()] = pt_base;
            t.priv_regs[PrivReg::ExcPc.index()] = pc;
            t.priv_regs[PrivReg::Asid.index()] = u64::from(key.0);
            t.fetch_pc = pal_base;
            t.fetch_pal = true;
            t.fetch_stopped = false;
            t.fetch_stalled_until = now + 1;
            t.redirect_wait = None;
            t.last_ifetch_line = None;
        }
        self.handlers.push(ActiveHandler {
            handler_tid,
            master,
            exc_seq: seq,
            key,
            tag: seq,
            predicted_len: self.pal_len,
            inserted: 0,
            kind: HandlerKind::TlbFill,
        });
        if self.tracer.is_some() {
            self.emit(TraceEvent::SpliceStart {
                cycle: now,
                handler_tid: handler_tid as u64,
                master: master as u64,
                exc_seq: seq,
            });
        }
        self.window.get_mut(seq).expect("present").handler_tid = Some(handler_tid);
        self.park_on_fill(seq, key);
        if self.checker.is_some() {
            self.check_handler_spawn(handler_tid, now);
        }

        if self.config.limits.instant_handler_fetch {
            self.inject_handler_instantly(handler_tid, now, self.pal_base, self.pal_len);
        } else if self.config.mechanism == ExnMechanism::QuickStart {
            self.stage_handler(handler_tid, now, self.pal_base, self.pal_len);
        }
    }

    /// Paper §6: dispatch an emulated-instruction exception for the `DIVU`
    /// at `seq`. The handler thread receives the excepting instruction's
    /// source values in privileged scratch registers and writes the result
    /// back with `MTDST`. With no idle context the instruction simply
    /// retries next cycle (emulation requires a spare context; see
    /// `MachineConfig::emulate_divu`).
    pub(crate) fn dispatch_emulation(
        &mut self,
        seq: u64,
        master: usize,
        v0: u64,
        v1: u64,
        now: u64,
    ) {
        assert!(self.emul_len > 0, "no emulation handler installed");
        let Some(handler_tid) = (0..self.threads.len())
            .find(|&i| self.threads[i].state == ThreadState::Idle)
        else {
            return; // retry next cycle
        };
        self.stats.emulations_spawned += 1;
        let pc = self.window.get(seq).expect("emulated instruction present").pc;
        let key = (smtx_mem::Asid::MAX, seq); // unique, never a real (asid, vpn)
        let emul_base = self.emul_base;
        let master_asid = self.threads[master].asid;
        {
            let t = &mut self.threads[handler_tid];
            t.state = ThreadState::Exception { master };
            t.space = None;
            t.asid = master_asid;
            t.priv_regs = [0; 8];
            t.priv_regs[PrivReg::ExcPc.index()] = pc;
            t.priv_regs[PrivReg::Scratch0.index()] = v0;
            t.priv_regs[PrivReg::Scratch1.index()] = v1;
            t.fetch_pc = emul_base;
            t.fetch_pal = true;
            t.fetch_stopped = false;
            t.fetch_stalled_until = now + 1;
            t.redirect_wait = None;
            t.last_ifetch_line = None;
        }
        let emul_len = self.emul_len;
        self.handlers.push(ActiveHandler {
            handler_tid,
            master,
            exc_seq: seq,
            key,
            tag: seq,
            predicted_len: emul_len,
            inserted: 0,
            kind: HandlerKind::Emulate,
        });
        if self.tracer.is_some() {
            self.emit(TraceEvent::SpliceStart {
                cycle: now,
                handler_tid: handler_tid as u64,
                master: master as u64,
                exc_seq: seq,
            });
        }
        self.window.get_mut(seq).expect("present").handler_tid = Some(handler_tid);
        self.park_on_fill(seq, key);
        if self.checker.is_some() {
            self.check_handler_spawn(handler_tid, now);
        }
        if self.config.limits.instant_handler_fetch {
            self.inject_handler_instantly(handler_tid, now, emul_base, emul_len);
        } else if self.config.mechanism == ExnMechanism::QuickStart {
            self.stage_handler(handler_tid, now, emul_base, emul_len);
        }
    }

    /// `MTDST` executed in a handler thread: deliver `value` as the
    /// excepting instruction's result and make it (and its consumers)
    /// ready (paper §6: "the excepting instruction is converted to a nop
    /// ... and any consumers ... are marked ready").
    pub(crate) fn write_excepting_dest(&mut self, handler_tid: usize, value: u64, now: u64) {
        let Some(rec) = self.handler_record(handler_tid) else { return };
        let (exc_seq, key) = (rec.exc_seq, rec.key);
        if self.window.contains(exc_seq) {
            self.window.get_mut(exc_seq).expect("just probed").result = value;
            self.window.set_issued(exc_seq);
            self.window.clear_waiting(exc_seq);
            self.events.push(now + 1, exc_seq);
        }
        // Drop the park entry so nothing re-wakes it spuriously.
        self.waiters.remove(key);
    }

    /// Quick-start (paper §5.4): the handler was prefetched into the idle
    /// context's fetch buffer, so it skips the fetch pipe (and fetch
    /// bandwidth) but still pays decode and scheduling latency: staged
    /// entries are decodable at once (`ready_at = now`).
    fn stage_handler(&mut self, handler_tid: usize, now: u64, base: u64, len: usize) {
        let staged = self.predecode_handler(handler_tid, base, len);
        let t = &mut self.threads[handler_tid];
        for mut fe in staged {
            fe.ready_at = now;
            t.frontend.push_back(fe);
        }
        t.fetch_stopped = true; // nothing left to fetch
    }

    /// Instant-fetch limit study (paper Table 3): handler instructions
    /// appear in the window the cycle the exception is detected.
    fn inject_handler_instantly(&mut self, handler_tid: usize, now: u64, base: u64, len: usize) {
        let staged = self.predecode_handler(handler_tid, base, len);
        for fe in staged {
            if self.occupancy() >= self.config.window {
                // Degrade gracefully: stage the rest in the front end.
                let t = &mut self.threads[handler_tid];
                let mut fe = fe;
                fe.ready_at = now;
                t.frontend.push_back(fe);
                continue;
            }
            self.insert_window_at(handler_tid, &fe, now + 1);
        }
        self.threads[handler_tid].fetch_stopped = true;
    }

    /// Pre-decodes the PAL handler for `handler_tid`, running its branch
    /// predictors exactly as a real fetch would (the staged path must not
    /// be more accurate than hardware).
    fn predecode_handler(&mut self, handler_tid: usize, base: u64, len: usize) -> Vec<FrontEndInst> {
        let mut out = Vec::with_capacity(len);
        let mut guard = 4 * len; // staging follows predictions; bound it
        loop {
            if guard == 0 {
                break;
            }
            guard -= 1;
            let pc = self.threads[handler_tid].fetch_pc;
            let off = pc.wrapping_sub(base);
            if off >= len as u64 * 4 {
                break;
            }
            let word = self.pm.read_u32(pc);
            let Some(inst) = self.decoded.decode(pc, word) else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            // Prediction runs exactly as in a real fetch, so quick-start
            // cannot be more accurate than hardware.
            let (pred, next_pc, stop) = self.predict_next(handler_tid, pc, &inst, seq);
            out.push(FrontEndInst { seq, pc, inst, pal: true, pred, ready_at: 0 });
            self.stats.fetched += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Fetch {
                    cycle: self.cycle,
                    tid: handler_tid as u64,
                    seq,
                    pc,
                    pal: true,
                });
            }
            self.threads[handler_tid].fetch_pc = next_pc;
            if stop {
                break;
            }
        }
        out
    }

    /// Hardware walker (paper §5.1): a finite state machine issues the PTE
    /// load through the shared cache ports; multiple walks proceed in
    /// parallel; the TLB is filled speculatively if the faulting
    /// instruction is still alive when the walk completes.
    fn start_walk(&mut self, tid: usize, seq: u64, key: (smtx_mem::Asid, u64), va: u64, _now: u64) {
        let space = self.threads[tid].space.expect("running thread has a space");
        let pt_base = self.spaces[space].pt_base();
        // Same arithmetic the PAL handler performs, wrapping on garbage
        // (wrong-path) addresses.
        let pte_paddr = pt_base.wrapping_add((va >> PAGE_SHIFT).wrapping_mul(8)) & !7;
        self.walks.push(Walk { key, fault_tid: tid, fault_seq: seq, pte_paddr, done_at: None });
        self.stats.walks_started += 1;
        self.park_on_fill(seq, key);
    }

    /// Completes finished hardware walks.
    pub(crate) fn process_walks(&mut self, now: u64) {
        let mut finished = Vec::new();
        self.walks.retain(|w| {
            if w.done_at.is_some_and(|d| d <= now) {
                finished.push(w.clone());
                false
            } else {
                true
            }
        });
        for w in finished {
            let pte = Pte(self.pm.read_u64(w.pte_paddr));
            let fault_alive = self.window.contains(w.fault_seq);
            let any_alive = fault_alive
                || self.waiters.iter_key(w.key).any(|s| self.window.contains(s));
            if pte.is_valid() && any_alive {
                self.dtlb.insert(w.key.0, w.key.1, pte.frame(), None);
                self.stats.fills_committed += 1;
                self.wake_waiters(w.key);
            } else if !pte.is_valid() {
                // Page fault: the hardware walker machine reverts to the
                // OS's (traditional) handler.
                if fault_alive {
                    let (va, pc) = {
                        let i = self.window.get(w.fault_seq).expect("fault checked alive");
                        (i.mem_vaddr.unwrap_or(w.key.1 << PAGE_SHIFT), i.pc)
                    };
                    if self.tracer.is_some() {
                        self.emit(TraceEvent::Revert {
                            cycle: now,
                            tid: w.fault_tid as u64,
                            seq: w.fault_seq,
                            pc,
                            why: RevertWhy::PageFaultWalk,
                        });
                    }
                    self.trap(w.fault_tid, w.fault_seq, va, pc, now);
                }
                self.wake_waiters(w.key); // survivors re-raise their miss
            }
            // Valid PTE but nobody alive: drop the fill (paper: fill only
            // if the faulting instruction hasn't been squashed).
        }
    }

    /// `HARDEXC` executed in a handler thread: throw the in-progress
    /// handler away and re-raise the exception through the traditional
    /// mechanism (paper §4.3 argues re-execution over state merging).
    pub(crate) fn escalate_hard_exception(&mut self, handler_tid: usize, now: u64) {
        let Some(rec) = self.handler_record(handler_tid).cloned() else { return };
        self.stats.hard_exceptions += 1;
        self.release_handler(handler_tid, false);
        if self.window.contains(rec.exc_seq) {
            let (va, pc) = {
                let i = self.window.get(rec.exc_seq).expect("just probed");
                (i.mem_vaddr.unwrap_or(rec.key.1 << PAGE_SHIFT), i.pc)
            };
            if self.tracer.is_some() {
                self.emit(TraceEvent::Revert {
                    cycle: now,
                    tid: rec.master as u64,
                    seq: rec.exc_seq,
                    pc,
                    why: RevertWhy::HardException,
                });
            }
            self.trap(rec.master, rec.exc_seq, va, pc, now);
        }
    }

    /// Detects stores that modify a page-table entry an in-flight fill
    /// depends on (paper §4.2: PTE writes have special semantics; the
    /// handler's page-table load must order correctly against them). The
    /// conservative response is to throw the affected fill away and let the
    /// miss re-raise.
    pub(crate) fn check_page_table_write(&mut self, pa: u64, now: u64) {
        let stale: Vec<usize> = self
            .handlers
            .iter()
            .enumerate()
            .filter_map(|(i, h)| {
                let space = self.threads[h.master].space?;
                let pte = self.spaces[space].pt_base() + h.key.1 * 8;
                (pte == pa).then_some(i)
            })
            .map(|i| self.handlers[i].handler_tid)
            .collect();
        for handler_tid in stale {
            self.release_handler(handler_tid, false);
        }
        let _ = now;
        // Walks read the PTE at completion time, so a store committed
        // before the walk finishes is naturally ordered; nothing to do.
    }

}
