//! The combined branch unit the pipeline front end uses.

use crate::indirect::CascadedIndirect;
use crate::ras::{Ras, RasCheckpoint};
use crate::yags::Yags;

/// Number of global-history bits kept.
const GHR_BITS: u32 = 16;

/// Recovery token covering every piece of speculative predictor state:
/// global history, indirect path history, and the RAS. Captured *before*
/// each prediction so a squash can rewind to the pre-branch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchCheckpoint {
    ghr: u64,
    path: u64,
    ras: RasCheckpoint,
}

impl BranchCheckpoint {
    /// The global history captured: the history a conditional prediction
    /// made right after this checkpoint read, and so the one to train with.
    #[must_use]
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// The indirect path history captured: the path an indirect prediction
    /// made right after this checkpoint read.
    #[must_use]
    pub fn path(&self) -> u64 {
        self.path
    }
}

/// The front end's one-stop prediction interface: YAGS directions, cascaded
/// indirect targets, RAS returns, with checkpoint/restore of all speculative
/// history.
///
/// Protocol per fetched branch:
///
/// 1. [`BranchUnit::checkpoint`] (stored with the in-flight branch),
/// 2. `predict_*` (speculatively updates history),
/// 3. at resolution: `update_*` with the history value returned by the
///    prediction; on a mispredict additionally [`BranchUnit::restore`] and
///    [`BranchUnit::note_cond_outcome`] / the re-prediction path.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    yags: Yags,
    indirect: CascadedIndirect,
    ras: Ras,
    ghr: u64,
    path: u64,
    cond_predictions: u64,
    cond_mispredicts: u64,
}

impl BranchUnit {
    /// Creates a branch unit from its components.
    #[must_use]
    pub fn new(yags: Yags, indirect: CascadedIndirect, ras: Ras) -> BranchUnit {
        BranchUnit {
            yags,
            indirect,
            ras,
            ghr: 0,
            path: 0,
            cond_predictions: 0,
            cond_mispredicts: 0,
        }
    }

    /// The full paper Table 1 configuration.
    #[must_use]
    pub fn paper_baseline() -> BranchUnit {
        BranchUnit::new(
            Yags::paper_baseline(),
            CascadedIndirect::paper_baseline(),
            Ras::paper_baseline(),
        )
    }

    /// Captures all speculative predictor state.
    #[must_use]
    pub fn checkpoint(&self) -> BranchCheckpoint {
        BranchCheckpoint { ghr: self.ghr, path: self.path, ras: self.ras.checkpoint() }
    }

    /// Restores a checkpoint (squash recovery).
    pub fn restore(&mut self, cp: BranchCheckpoint) {
        self.ghr = cp.ghr;
        self.path = cp.path;
        self.ras.restore(cp.ras);
    }

    /// Predicts a conditional branch at `pc`. Returns the predicted
    /// direction and the history value used (needed for the later update),
    /// and speculatively shifts the prediction into the history.
    pub fn predict_cond(&mut self, pc: u64) -> (bool, u64) {
        let history = self.ghr;
        let taken = self.yags.predict(pc, history);
        self.shift_history(taken);
        self.cond_predictions += 1;
        (taken, history)
    }

    /// Trains the direction predictor with a resolved outcome.
    pub fn update_cond(&mut self, pc: u64, history_at_pred: u64, taken: bool) {
        self.yags.update(pc, history_at_pred, taken);
    }

    /// Re-seeds the speculative history with a *correct* outcome after a
    /// mispredict has been squashed and the checkpoint restored.
    pub fn note_cond_outcome(&mut self, taken: bool) {
        self.shift_history(taken);
        self.cond_mispredicts += 1;
    }

    /// Predicts an indirect branch's target; returns the target (or `None`
    /// when cold) and the path history used. Speculatively folds the
    /// predicted target into the path history.
    pub fn predict_indirect(&mut self, pc: u64) -> (Option<u64>, u64) {
        let path = self.path;
        let target = self.indirect.predict(pc, path);
        if let Some(t) = target {
            self.shift_path(t);
        }
        (target, path)
    }

    /// Trains the indirect predictor with a resolved target.
    pub fn update_indirect(&mut self, pc: u64, path_at_pred: u64, target: u64) {
        self.indirect.update(pc, path_at_pred, target);
    }

    /// Re-seeds the path history with the correct target after an indirect
    /// mispredict recovery.
    pub fn note_indirect_outcome(&mut self, target: u64) {
        self.shift_path(target);
    }

    /// Pushes a return address on fetching a call.
    pub fn push_return(&mut self, ret_addr: u64) {
        self.ras.push(ret_addr);
    }

    /// Pops the predicted target on fetching a return.
    pub fn predict_return(&mut self) -> u64 {
        self.ras.pop()
    }

    /// `(predictions, mispredicts)` for conditional branches (mispredicts
    /// are counted by [`BranchUnit::note_cond_outcome`]).
    #[must_use]
    pub fn cond_stats(&self) -> (u64, u64) {
        (self.cond_predictions, self.cond_mispredicts)
    }

    fn shift_history(&mut self, taken: bool) {
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & ((1 << GHR_BITS) - 1);
    }

    fn shift_path(&mut self, target: u64) {
        self.path = ((self.path << 4) ^ ((target >> 2) & 0xf)) & ((1 << GHR_BITS) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_restores_all_history() {
        let mut bu = BranchUnit::paper_baseline();
        bu.push_return(0x500);
        let (_, _) = bu.predict_cond(0x10);
        let cp = bu.checkpoint();
        // Wrong path activity of every kind.
        let _ = bu.predict_cond(0x20);
        let _ = bu.predict_indirect(0x30);
        bu.push_return(0xbad);
        bu.restore(cp);
        assert_eq!(bu.checkpoint(), cp);
        assert_eq!(bu.predict_return(), 0x500);
    }

    #[test]
    fn checkpoint_holds_the_history_the_next_prediction_reads() {
        let mut bu = BranchUnit::paper_baseline();
        for i in 0..40u64 {
            let cp = bu.checkpoint();
            let (_, ghr) = bu.predict_cond(0x100 + 8 * i);
            assert_eq!(cp.ghr(), ghr);
            bu.update_indirect(0x300, bu.checkpoint().path(), 0x4000 + 64 * i);
            let cp = bu.checkpoint();
            let (_, path) = bu.predict_indirect(0x300);
            assert_eq!(cp.path(), path);
        }
    }

    #[test]
    fn history_makes_predictions_context_sensitive() {
        let mut bu = BranchUnit::paper_baseline();
        // Branch taken exactly when the previous branch was taken; the
        // harness repairs speculative history after a mispredict exactly as
        // the pipeline does (restore checkpoint + note actual outcome).
        let predict_resolve = |bu: &mut BranchUnit, pc: u64, outcome: bool| -> bool {
            let cp = bu.checkpoint();
            let (pred, h) = bu.predict_cond(pc);
            bu.update_cond(pc, h, outcome);
            if pred != outcome {
                bu.restore(cp);
                bu.note_cond_outcome(outcome);
            }
            pred == outcome
        };
        let mut correct = 0;
        let rounds = 400;
        for i in 0..rounds {
            let lead = i % 3 == 0;
            let _ = predict_resolve(&mut bu, 0x100, lead);
            let follow = lead;
            if predict_resolve(&mut bu, 0x200, follow) {
                correct += 1;
            }
        }
        assert!(
            correct > rounds * 7 / 10,
            "correlated branch should be mostly predicted ({correct}/{rounds})"
        );
    }

    #[test]
    fn return_prediction_follows_call_nesting() {
        let mut bu = BranchUnit::paper_baseline();
        bu.push_return(0x100);
        bu.push_return(0x200);
        assert_eq!(bu.predict_return(), 0x200);
        assert_eq!(bu.predict_return(), 0x100);
    }

    #[test]
    fn stats_count_predictions_and_recoveries() {
        let mut bu = BranchUnit::paper_baseline();
        let (_, h) = bu.predict_cond(0x44);
        bu.update_cond(0x44, h, true);
        bu.note_cond_outcome(true);
        assert_eq!(bu.cond_stats(), (1, 1));
    }
}
