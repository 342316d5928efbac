//! Model-based property test for the slot-arena [`Window`].
//!
//! A `BTreeMap<u64, DynInst>` (plus per-seq scheduler state and consumer
//! lists) is the obviously-correct reference model — exactly the
//! representation the arena replaced. Random episodes of
//! fetch/rename/issue/writeback/park/squash/retire are applied to both and
//! every observable of the arena is compared against the model after each
//! step, with the ring starting at its minimum capacity so sequences wrap
//! it many times over and live collisions force growth mid-episode.

use std::collections::BTreeMap;

use smtx_core::dyninst::{DynInst, FrontEndInst, SrcState};
use smtx_core::window::{Window, F_DONE, F_ISSUABLE, F_ISSUED, F_READY, F_WAITING};
use smtx_isa::{Inst, Op};
use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};

/// Per-instruction reference state mirroring everything the arena tracks.
struct ModelEntry {
    di: DynInst,
    flags: u8,
    earliest: u64,
    consumers: Vec<(u64, u32)>,
}

fn model_flags(di: &DynInst, issued: bool, done: bool) -> u8 {
    let mut f = 0;
    if di.srcs_ready() {
        f |= F_READY;
    }
    if issued {
        f |= F_ISSUED;
    }
    if done {
        f |= F_DONE;
    }
    if di.waiting_tlb.is_some() {
        f |= F_WAITING;
    }
    f
}

fn fresh_inst(seq: u64, tid: usize) -> DynInst {
    let fe = FrontEndInst {
        seq,
        pc: 0x4000 + seq * 4,
        inst: Inst::n(Op::Nop),
        pal: false,
        pred: None,
        ready_at: 0,
    };
    DynInst::from_frontend(&fe, tid)
}

/// Compares every arena observable against the model.
fn check_agreement(w: &Window, model: &BTreeMap<u64, ModelEntry>, next_seq: u64) {
    assert_eq!(w.len(), model.len(), "live count");
    assert_eq!(w.is_empty(), model.is_empty());
    for (&seq, m) in model {
        assert!(w.contains(seq), "model seq {seq} missing from arena");
        assert_eq!(
            w.issue_state(seq),
            Some((m.flags, m.earliest)),
            "issue_state({seq})"
        );
        assert_eq!(w.is_done(seq), m.flags & F_DONE != 0, "is_done({seq})");
        assert_eq!(
            w.producer_state(seq),
            Some((m.flags & F_DONE != 0, m.di.result)),
            "producer_state({seq})"
        );
        let di = w.get(seq).expect("live in model");
        assert_eq!(di.seq, seq);
        assert_eq!(di.srcs, m.di.srcs, "srcs of {seq}");
        assert_eq!(di.waiting_tlb, m.di.waiting_tlb, "waiting_tlb of {seq}");
        assert_eq!(di.result, m.di.result, "result of {seq}");
    }
    // Stale probes: dead seqs (including aliases of live slots one ring lap
    // away) must answer None everywhere.
    for probe in [next_seq, next_seq + 1] {
        let alias = probe + w.capacity() as u64;
        for s in [probe, alias] {
            if !model.contains_key(&s) {
                assert!(!w.contains(s));
                assert!(w.get(s).is_none());
                assert!(w.issue_state(s).is_none());
                assert!(!w.is_done(s));
                assert!(w.producer_state(s).is_none());
            }
        }
    }
    // Slot-order iteration covers exactly the live set.
    let mut seen: Vec<u64> = w.iter_flags().map(|(s, _)| s).collect();
    seen.sort_unstable();
    let keys: Vec<u64> = model.keys().copied().collect();
    assert_eq!(seen, keys, "iter_flags live set");
    for (seq, flags) in w.iter_flags() {
        assert_eq!(flags, model[&seq].flags, "iter_flags flags of {seq}");
    }
    let mut iter_seqs: Vec<u64> = w.iter().map(|di| di.seq).collect();
    iter_seqs.sort_unstable();
    assert_eq!(iter_seqs, keys, "iter live set");
}

fn run_episode(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Minimum ring so sequences wrap every 8 fetches and stalled entries
    // force live collisions (→ growth) constantly.
    let mut w = Window::with_capacity(1);
    let mut model: BTreeMap<u64, ModelEntry> = BTreeMap::new();
    let mut next_seq: u64 = rng.random_range(0..64);

    for step in 0..steps {
        match rng.random_range(0..100u32) {
            // Fetch + rename: insert the next sequence, sometimes waiting
            // on a random live not-done producer (registering a wake).
            0..=39 => {
                let seq = next_seq;
                // Occasionally burn sequence numbers (squash-and-refetch
                // does this in the real machine) so slot reuse skips laps.
                next_seq += 1 + u64::from(rng.random_range(0..8u32) == 0) * rng.random_range(1..40);
                let mut di = fresh_inst(seq, (seq % 4) as usize);
                let producers: Vec<u64> = model
                    .iter()
                    .filter(|(_, m)| m.flags & F_DONE == 0)
                    .map(|(&s, _)| s)
                    .collect();
                for slot in 0..2usize {
                    if !producers.is_empty() && rng.random_range(0..3u32) == 0 {
                        let p = producers[rng.random_range(0..producers.len() as u32) as usize];
                        di.srcs[slot] = SrcState::Waiting { producer: p };
                        w.add_consumer(p, seq, slot);
                        model.get_mut(&p).unwrap().consumers.push((seq, slot as u32));
                    }
                }
                let earliest = rng.random_range(0..1000);
                w.insert(di.clone(), earliest);
                let flags = model_flags(&di, false, false);
                model.insert(seq, ModelEntry { di, flags, earliest, consumers: Vec::new() });
            }
            // Issue: pick a random issuable instruction.
            40..=54 => {
                let issuable: Vec<u64> = model
                    .iter()
                    .filter(|(_, m)| m.flags == F_ISSUABLE)
                    .map(|(&s, _)| s)
                    .collect();
                if let Some(&seq) =
                    issuable.get(rng.random_range(0..issuable.len().max(1) as u32) as usize)
                {
                    w.set_issued(seq);
                    model.get_mut(&seq).unwrap().flags |= F_ISSUED;
                    // Sometimes the issue bounces (fault replay path).
                    if rng.random_range(0..4u32) == 0 {
                        w.clear_issued(seq);
                        model.get_mut(&seq).unwrap().flags &= !F_ISSUED;
                    }
                }
            }
            // Writeback: complete a random issued-not-done instruction and
            // propagate its result to every surviving consumer.
            55..=74 => {
                let inflight: Vec<u64> = model
                    .iter()
                    .filter(|(_, m)| m.flags & F_ISSUED != 0 && m.flags & F_DONE == 0)
                    .map(|(&s, _)| s)
                    .collect();
                if let Some(&seq) =
                    inflight.get(rng.random_range(0..inflight.len().max(1) as u32) as usize)
                {
                    let value = rng.random_range(0..u64::MAX);
                    w.mark_done(seq);
                    w.get_mut(seq).expect("live").result = value;
                    {
                        let m = model.get_mut(&seq).unwrap();
                        m.flags |= F_DONE;
                        m.di.result = value;
                    }
                    let mut wakes = Vec::new();
                    w.take_consumers_into(seq, &mut wakes);
                    let expected = std::mem::take(&mut model.get_mut(&seq).unwrap().consumers);
                    assert_eq!(wakes, expected, "wake list of {seq} (rename order)");
                    for (c, slot) in wakes {
                        let got = w.resolve_src(c, slot as usize, value);
                        match model.get_mut(&c) {
                            Some(m) => {
                                m.di.srcs[slot as usize] = SrcState::Value(value);
                                if m.di.srcs_ready() {
                                    m.flags |= F_READY;
                                }
                                assert_eq!(got, Some(m.di.srcs_ready()), "wake of {c}");
                            }
                            None => assert_eq!(got, None, "stale wake of {c}"),
                        }
                    }
                }
            }
            // Park / unpark on a TLB fill.
            75..=84 => {
                let live: Vec<u64> = model.keys().copied().collect();
                if let Some(&seq) =
                    live.get(rng.random_range(0..live.len().max(1) as u32) as usize)
                {
                    let key = (rng.random_range(0..4u32) as u16, rng.random_range(0..32));
                    if model[&seq].flags & F_WAITING == 0 {
                        assert!(w.set_waiting(seq, key));
                        let m = model.get_mut(&seq).unwrap();
                        m.flags |= F_WAITING;
                        m.di.waiting_tlb = Some(key);
                    } else {
                        assert!(w.clear_waiting(seq));
                        let m = model.get_mut(&seq).unwrap();
                        m.flags &= !F_WAITING;
                        m.di.waiting_tlb = None;
                    }
                }
                // Parking a dead seq is a no-op on both sides.
                assert!(!w.set_waiting(next_seq + 7, (0, 0)));
                assert!(!w.clear_waiting(next_seq + 7));
            }
            // Squash: bulk-remove everything at or above a random live
            // pivot, youngest first (the machine's squash_thread_from).
            85..=89 => {
                let live: Vec<u64> = model.keys().copied().collect();
                if let Some(&pivot) =
                    live.get(rng.random_range(0..live.len().max(1) as u32) as usize)
                {
                    let doomed: Vec<u64> = model.range(pivot..).map(|(&s, _)| s).collect();
                    for &s in doomed.iter().rev() {
                        assert_eq!(w.get(s).map(|d| d.seq), Some(s), "squash target is live");
                        assert!(w.release(s));
                        model.remove(&s);
                    }
                }
            }
            // Retire: remove the oldest instruction if it is done.
            _ => {
                if let Some((&head, m)) = model.iter().next() {
                    if m.flags & F_DONE != 0 {
                        let got = w.get(head).expect("head is live");
                        assert_eq!(got.seq, head);
                        assert_eq!(got.result, m.di.result);
                        assert!(w.release(head));
                        model.remove(&head);
                    }
                }
                // Releasing a dead seq answers false.
                assert!(!w.release(next_seq + 3));
            }
        }
        if step % 7 == 0 {
            check_agreement(&w, &model, next_seq);
        }
    }
    check_agreement(&w, &model, next_seq);
}

#[test]
fn arena_matches_btreemap_model_across_random_episodes() {
    for seed in 0..24 {
        run_episode(0xC0FFEE ^ seed, 600);
    }
}

#[test]
fn arena_matches_model_under_heavy_wraparound() {
    // Long episodes with a tiny initial ring: thousands of fetches wrap
    // the 8-slot ring hundreds of times and force repeated growth.
    for seed in [1u64, 42, 1999] {
        run_episode(seed, 4000);
    }
}
