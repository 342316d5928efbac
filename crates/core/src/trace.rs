//! The cycle-stamped machine event stream behind `smtx-trace`.
//!
//! Every pipeline stage and every exception-episode transition of
//! [`crate::Machine`] can emit a [`TraceEvent`] into an attached
//! [`TraceSink`]. Tracing is strictly *observation-only*: the sink hangs
//! off the machine like the `--check` sanitizer does — not part of
//! [`crate::MachineConfig`], not part of the config digest, and every
//! emission site is a no-op branch when no sink is attached — so traced
//! and untraced runs produce bit-identical [`crate::Stats`].
//!
//! The event vocabulary is deliberately integer-exact (`u64` fields,
//! booleans included): the on-disk codec in the `smtx-trace` crate
//! round-trips every field without loss, and the offline analyzer's
//! penalty attribution is integer arithmetic over these stamps.
//!
//! Three exact identities tie a trace to the run's [`crate::Stats`] (the
//! differential suite in `crates/trace` holds them):
//!
//! 1. the final `End` event's cycle equals `stats.cycles`;
//! 2. the union of `[SpliceStart, SpliceEnd)` cycle intervals equals
//!    `stats.handler_active_cycles`;
//! 3. at a quiescent end of run, `#Fetch − #Retire` events equals
//!    `stats.squashed_insts` (every fetched instruction either retires or
//!    is squashed).

/// Why a thread's in-flight instructions were squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// Branch misprediction recovery (resume at the actual target).
    Mispredict,
    /// A traditional-mechanism trap (resume at the PAL handler base).
    Trap,
    /// The §4.4 deadlock-avoidance tail squash (resume at the victim).
    Deadlock,
    /// The thread halted (budget reached or `HALT` retired); nothing is
    /// refetched.
    Freeze,
    /// A deterministic epoch reset: every in-flight instruction on every
    /// context is squashed and all microarchitectural state is flushed.
    /// Fetch resumes at the committed architectural PC.
    Epoch,
}

impl SquashCause {
    /// Stable wire code for the on-disk codec.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            SquashCause::Mispredict => 0,
            SquashCause::Trap => 1,
            SquashCause::Deadlock => 2,
            SquashCause::Freeze => 3,
            SquashCause::Epoch => 4,
        }
    }

    /// Inverse of [`SquashCause::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<SquashCause> {
        match code {
            0 => Some(SquashCause::Mispredict),
            1 => Some(SquashCause::Trap),
            2 => Some(SquashCause::Deadlock),
            3 => Some(SquashCause::Freeze),
            4 => Some(SquashCause::Epoch),
            _ => None,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::Mispredict => "mispredict",
            SquashCause::Trap => "trap",
            SquashCause::Deadlock => "deadlock",
            SquashCause::Freeze => "freeze",
            SquashCause::Epoch => "epoch",
        }
    }
}

/// How a TLB-miss raise relates to the fills already in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaiseKind {
    /// First miss on this page: opens a new exception episode.
    Primary,
    /// Duplicate miss parked on an in-flight fill (no new episode).
    Secondary,
    /// Out-of-order duplicate that re-linked the handler to an older
    /// excepting instruction (paper §4.5); `aux` is the handler context.
    Relink,
}

impl RaiseKind {
    /// Stable wire code for the on-disk codec.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            RaiseKind::Primary => 0,
            RaiseKind::Secondary => 1,
            RaiseKind::Relink => 2,
        }
    }

    /// Inverse of [`RaiseKind::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<RaiseKind> {
        match code {
            0 => Some(RaiseKind::Primary),
            1 => Some(RaiseKind::Secondary),
            2 => Some(RaiseKind::Relink),
            _ => None,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RaiseKind::Primary => "primary",
            RaiseKind::Secondary => "secondary",
            RaiseKind::Relink => "relink",
        }
    }
}

/// Why execution fell back to the traditional trap path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevertWhy {
    /// The machine *is* the traditional mechanism; not a fallback, but the
    /// dispatch is recorded with the same marker so the analyzer sees one
    /// event family for "this miss is now being serviced by a trap".
    Traditional,
    /// No idle context was available for a handler thread (paper §4.5).
    NoIdleContext,
    /// A hardware walk found an invalid PTE (page fault → OS handler).
    PageFaultWalk,
    /// A handler executed `HARDEXC` and escalated (paper §4.3).
    HardException,
}

impl RevertWhy {
    /// Stable wire code for the on-disk codec.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            RevertWhy::Traditional => 0,
            RevertWhy::NoIdleContext => 1,
            RevertWhy::PageFaultWalk => 2,
            RevertWhy::HardException => 3,
        }
    }

    /// Inverse of [`RevertWhy::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<RevertWhy> {
        match code {
            0 => Some(RevertWhy::Traditional),
            1 => Some(RevertWhy::NoIdleContext),
            2 => Some(RevertWhy::PageFaultWalk),
            3 => Some(RevertWhy::HardException),
            _ => None,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RevertWhy::Traditional => "traditional-dispatch",
            RevertWhy::NoIdleContext => "no-idle-context",
            RevertWhy::PageFaultWalk => "page-fault-walk",
            RevertWhy::HardException => "hard-exception",
        }
    }
}

/// One cycle-stamped machine event.
///
/// `tid`/`seq`/`pc` are the same identifiers the machine uses internally;
/// sequence numbers are global fetch-order and never reused, so `seq`
/// alone identifies a dynamic instruction across the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction entered the fetch pipe (quick-start staging included).
    Fetch {
        /// Cycle of the fetch.
        cycle: u64,
        /// Fetching context.
        tid: u64,
        /// Global fetch-order sequence number.
        seq: u64,
        /// Fetch PC.
        pc: u64,
        /// Whether this is PAL (handler) code.
        pal: bool,
    },
    /// An instruction was renamed and inserted into the window (the model
    /// collapses decode and rename into window insertion).
    Rename {
        /// Cycle of the insertion.
        cycle: u64,
        /// Owning context.
        tid: u64,
        /// Sequence number.
        seq: u64,
    },
    /// An instruction was issued to a functional unit.
    Issue {
        /// Cycle of the issue.
        cycle: u64,
        /// Owning context.
        tid: u64,
        /// Sequence number.
        seq: u64,
    },
    /// An instruction's result became available (completion).
    Writeback {
        /// Cycle of the completion.
        cycle: u64,
        /// Owning context.
        tid: u64,
        /// Sequence number.
        seq: u64,
    },
    /// An instruction retired.
    Retire {
        /// Cycle of the retirement.
        cycle: u64,
        /// Retiring context.
        tid: u64,
        /// Sequence number.
        seq: u64,
        /// PC of the instruction.
        pc: u64,
        /// Whether it was PAL (handler) code.
        pal: bool,
    },
    /// In-flight instructions of `tid` with `seq >= from_seq` were
    /// squashed.
    Squash {
        /// Cycle of the squash.
        cycle: u64,
        /// Squashed context.
        tid: u64,
        /// Oldest squashed sequence number.
        from_seq: u64,
        /// Why the squash happened.
        cause: SquashCause,
        /// PC fetch resumes at (0 for [`SquashCause::Freeze`]).
        resume_pc: u64,
    },
    /// A data-TLB miss was raised at execute time.
    Raise {
        /// Cycle of the miss.
        cycle: u64,
        /// Faulting context.
        tid: u64,
        /// Sequence number of the faulting instruction.
        seq: u64,
        /// Primary / secondary / re-link classification.
        kind: RaiseKind,
        /// [`RaiseKind::Relink`]: the handler context re-linked; otherwise
        /// the faulting virtual page number.
        aux: u64,
    },
    /// A handler thread was spawned; its episode splices into retirement.
    SpliceStart {
        /// Cycle the handler context was allocated.
        cycle: u64,
        /// Context running the handler.
        handler_tid: u64,
        /// The application context it serves.
        master: u64,
        /// Sequence number of the excepting instruction at spawn time
        /// (re-links update it; see [`TraceEvent::Raise`]).
        exc_seq: u64,
    },
    /// A handler episode ended and its context was freed.
    SpliceEnd {
        /// Cycle the handler context was released.
        cycle: u64,
        /// Context that ran the handler.
        handler_tid: u64,
        /// The application context it served.
        master: u64,
        /// Final sequence number of the excepting instruction.
        exc_seq: u64,
        /// `true` if the handler retired in full (its fills committed);
        /// `false` if it was squashed or escalated.
        committed: bool,
    },
    /// Servicing fell back to the traditional trap path.
    Revert {
        /// Cycle of the reversion.
        cycle: u64,
        /// Faulting context.
        tid: u64,
        /// Sequence number of the excepting instruction.
        seq: u64,
        /// PC of the excepting instruction.
        pc: u64,
        /// Why the reversion happened.
        why: RevertWhy,
    },
    /// A traditional handler's `RFE` completed: fetch was redirected back
    /// to the excepting instruction (the second pipe refill of paper §3).
    HandlerReturn {
        /// Cycle of the redirect.
        cycle: u64,
        /// Redirected context.
        tid: u64,
        /// PC fetch resumes at.
        pc: u64,
    },
    /// Run boundary marker written by trace *writers* (not the machine):
    /// identifies which simulation the following events belong to.
    RunStart {
        /// Workload kernel index (`u64::MAX` for multi-kernel mixes).
        kernel: u64,
        /// Workload seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// [`crate::MachineConfig::digest`] of the configuration.
        digest: u64,
    },
    /// End of one [`crate::Machine::run`] call; `cycle` equals the run's
    /// final `stats.cycles`.
    End {
        /// Final cycle count.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The event's cycle stamp (the run identity fields of `RunStart` have
    /// no cycle; it reports 0).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Rename { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::Retire { cycle, .. }
            | TraceEvent::Squash { cycle, .. }
            | TraceEvent::Raise { cycle, .. }
            | TraceEvent::SpliceStart { cycle, .. }
            | TraceEvent::SpliceEnd { cycle, .. }
            | TraceEvent::Revert { cycle, .. }
            | TraceEvent::HandlerReturn { cycle, .. }
            | TraceEvent::End { cycle } => cycle,
            TraceEvent::RunStart { .. } => 0,
        }
    }
}

/// Where the machine delivers its events.
///
/// Implementations must be cheap: sinks run inside the cycle loop. The
/// trait is object-safe — the machine owns a `Box<dyn TraceSink>` — and
/// `Send` so traced machines can run on worker threads.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Delivers one event.
    fn event(&mut self, ev: &TraceEvent);

    /// Drains the sink's buffered events, if it buffers any (the default
    /// returns nothing — streaming sinks have nothing to drain).
    fn take_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The simplest sink: append every event to a `Vec`. This is the capture
/// buffer the experiment runner and the golden-trace fixtures use.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Every event delivered so far, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }

    fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_round_trip() {
        for c in [
            SquashCause::Mispredict,
            SquashCause::Trap,
            SquashCause::Deadlock,
            SquashCause::Freeze,
            SquashCause::Epoch,
        ] {
            assert_eq!(SquashCause::from_code(c.code()), Some(c));
        }
        for k in [RaiseKind::Primary, RaiseKind::Secondary, RaiseKind::Relink] {
            assert_eq!(RaiseKind::from_code(k.code()), Some(k));
        }
        for w in [
            RevertWhy::Traditional,
            RevertWhy::NoIdleContext,
            RevertWhy::PageFaultWalk,
            RevertWhy::HardException,
        ] {
            assert_eq!(RevertWhy::from_code(w.code()), Some(w));
        }
        assert_eq!(SquashCause::from_code(99), None);
        assert_eq!(RaiseKind::from_code(99), None);
        assert_eq!(RevertWhy::from_code(99), None);
    }

    #[test]
    fn vec_sink_captures_in_order() {
        let mut sink = VecSink::default();
        sink.event(&TraceEvent::End { cycle: 1 });
        sink.event(&TraceEvent::End { cycle: 2 });
        let evs = sink.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].cycle(), 2);
        assert!(sink.take_events().is_empty(), "drained");
    }
}
