//! Bounded candidate tracking for point-query sketches.
//!
//! Countsketch-style structures answer point queries but cannot *enumerate*
//! heavy items. The standard fix (used since \[14\]) is to maintain, online, a
//! small set of the items whose current estimates are largest: every update
//! re-estimates the touched item and the set evicts its weakest member when
//! over capacity. The set's size is charged to the reported space.

use bd_stream::{SketchState, StateError, StateReader, StateWriter};
use std::cmp::Ordering;

/// The prune order: `|score|` descending, then item ascending. Total on
/// non-NaN scores, so which items a prune keeps, which item [`argmax`]
/// returns and how [`top_k`] ranks never depend on storage or offer order.
///
/// [`argmax`]: CandidateSet::argmax
/// [`top_k`]: CandidateSet::top_k
fn rank(a: &(u64, f64), b: &(u64, f64)) -> Ordering {
    b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0))
}

/// A capped set of candidate items, evicted by a caller-supplied score.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    cap: usize,
    /// The members, each with its score under the offer in progress (NaN
    /// until that offer scores it; meaningless between offers).
    members: Vec<(u64, f64)>,
    /// Open-addressing index over `members` with linear probing: `0` marks
    /// a free slot, anything else is a position in `members` plus one. Kept
    /// at most half full. The set never holds more than `2·cap + 1` items,
    /// so even keys that all collide cost at most one scan of it.
    slots: Vec<u32>,
    /// Reusable buffers for members a prune pass must score (no state).
    rest: Vec<u64>,
    rest_scores: Vec<f64>,
}

impl CandidateSet {
    /// Create with capacity `cap ≥ 1`.
    pub fn new(cap: usize) -> Self {
        CandidateSet {
            cap: cap.max(1),
            members: Vec::new(),
            slots: vec![0; 16],
            rest: Vec::new(),
            rest_scores: Vec::new(),
        }
    }

    /// `Ok(position in members)` if `item` is a member, else `Err(slot)`,
    /// the free slot where it would go.
    #[inline]
    fn probe(&self, item: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        // Fibonacci multiply-shift over the slot-count mask.
        let mut s = (item.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match self.slots[s] {
                0 => return Err(s),
                p if self.members[p as usize - 1].0 == item => return Ok(p as usize - 1),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Rebuild the index from `members` (after a prune or a load).
    fn reindex(&mut self) {
        self.slots.fill(0);
        for p in 0..self.members.len() {
            let Err(s) = self.probe(self.members[p].0) else {
                unreachable!("members are distinct")
            };
            self.slots[s] = p as u32 + 1;
        }
    }

    /// Add `item` with `score` unless it is already a member; returns
    /// whether it was added.
    fn insert(&mut self, item: u64, score: f64) -> bool {
        let mut slot = match self.probe(item) {
            Ok(_) => return false,
            Err(s) => s,
        };
        if 2 * (self.members.len() + 1) > self.slots.len() {
            self.slots.resize(2 * self.slots.len(), 0);
            self.reindex();
            slot = self.probe(item).expect_err("item is not a member");
        }
        self.slots[slot] = self.members.len() as u32 + 1;
        self.members.push((item, score));
        true
    }

    /// Offer an item. The set is allowed to grow to `2·cap` before a prune
    /// pass re-scores everything and keeps the top `cap` by `|score|` —
    /// amortizing eviction to O(1) score evaluations per offer while never
    /// dropping an item that was in the true top `cap` at prune time.
    pub fn offer<F: Fn(u64) -> f64>(&mut self, item: u64, score: F) {
        if self.insert(item, f64::NAN) && self.members.len() > 2 * self.cap {
            for m in &mut self.members {
                m.1 = score(m.0);
            }
            self.prune();
        }
    }

    /// Offer `items` in order, `scores[j]` being `items[j]`'s score. Leaves
    /// the same set as calling [`CandidateSet::offer`] on each item in turn
    /// with one fixed scorer, but scores every item at most once: offered
    /// items bring their scores, and the members not among `items` are
    /// scored through one `score_rest(members, out)` call (`out` cleared
    /// and filled positionally), made only if a prune pass needs them.
    ///
    /// The scores must stay fixed for the whole offer (no sketch update in
    /// between) and must not be NaN. Duplicate items are allowed.
    pub fn offer_scored<F>(&mut self, items: &[u64], scores: &[f64], score_rest: F)
    where
        F: FnOnce(&[u64], &mut Vec<f64>),
    {
        assert_eq!(items.len(), scores.len(), "one score per offered item");
        for m in &mut self.members {
            m.1 = f64::NAN;
        }
        for (&item, &score) in items.iter().zip(scores) {
            if let Ok(p) = self.probe(item) {
                self.members[p].1 = score;
            }
        }
        let mut score_rest = Some(score_rest);
        for (&item, &score) in items.iter().zip(scores) {
            if self.insert(item, score) && self.members.len() > 2 * self.cap {
                // Only the first pass can meet members scored neither by
                // `scores` nor by an earlier pass.
                if let Some(f) = score_rest.take() {
                    self.score_unscored(f);
                }
                self.prune();
            }
        }
    }

    /// Score the members still marked NaN through one `score_many` call.
    fn score_unscored<F: FnOnce(&[u64], &mut Vec<f64>)>(&mut self, score_many: F) {
        self.rest.clear();
        self.rest
            .extend(self.members.iter().filter(|m| m.1.is_nan()).map(|m| m.0));
        if self.rest.is_empty() {
            return;
        }
        score_many(&self.rest, &mut self.rest_scores);
        assert_eq!(
            self.rest.len(),
            self.rest_scores.len(),
            "one score per member"
        );
        let mut scores = self.rest_scores.iter();
        for m in self.members.iter_mut().filter(|m| m.1.is_nan()) {
            m.1 = *scores.next().expect("lengths checked above");
        }
    }

    /// Fold a shard's candidate set in, after the caller's sketch merged:
    /// `other`'s candidates are offered in ascending item order, so the
    /// result depends on the two sets alone and never on storage order.
    /// The union of both sets is scored through one `score_many(union, out)`
    /// call (`out` cleared and filled positionally).
    pub fn merge_scored<F: FnOnce(&[u64], &mut Vec<f64>)>(
        &mut self,
        other: &CandidateSet,
        score_many: F,
    ) {
        let mut union: Vec<u64> = self.iter().chain(other.iter()).collect();
        union.sort_unstable();
        union.dedup();
        let mut scores = Vec::with_capacity(union.len());
        score_many(&union, &mut scores);
        assert_eq!(union.len(), scores.len(), "one score per candidate");
        let (theirs, their_scores): (Vec<u64>, Vec<f64>) = union
            .iter()
            .zip(&scores)
            .filter(|(i, _)| other.probe(**i).is_ok())
            .unzip();
        self.offer_scored(&theirs, &their_scores, |rest, out| {
            out.clear();
            out.extend(rest.iter().map(|i| {
                scores[union
                    .binary_search(i)
                    .expect("every member is in the union")]
            }));
        });
    }

    /// One prune pass over scored members: keep the top `cap` in [`rank`]
    /// order. All buffers are reused — zero steady-state allocations.
    fn prune(&mut self) {
        self.members.select_nth_unstable_by(self.cap, rank);
        self.members.truncate(self.cap);
        self.reindex();
    }

    /// The current candidates (unordered).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.iter().map(|m| m.0)
    }

    /// The candidate maximizing `|score|`, ties to the smallest item (the
    /// prune order); each candidate is scored once.
    pub fn argmax<F: Fn(u64) -> f64>(&self, score: F) -> Option<u64> {
        self.iter()
            .map(|i| (i, score(i)))
            .min_by(rank)
            .map(|(i, _)| i)
    }

    /// The top `k` candidates by `|score|`, descending, ties to the
    /// smallest item.
    pub fn top_k<F: Fn(u64) -> f64>(&self, k: usize, score: F) -> Vec<(u64, f64)> {
        let mut scored: Vec<(u64, f64)> = self.iter().map(|i| (i, score(i))).collect();
        scored.sort_by(rank);
        scored.truncate(k);
        scored
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Bits to store the set: one identifier per slot (the set holds up to
    /// `2·cap` items between prune passes).
    pub fn space_bits(&self, universe: u64) -> u64 {
        2 * self.cap as u64 * bd_hash::width_unsigned(universe.max(2) - 1) as u64
    }
}

impl SketchState for CandidateSet {
    /// Mutable state: the candidate items, encoded sorted (scores, index
    /// and prune buffers are scratch). Restoring inserts without a prune
    /// pass, so the set is reinstated exactly as saved — including
    /// mid-growth sizes above `cap`.
    fn save_state(&self, w: &mut StateWriter) {
        let mut items: Vec<u64> = self.iter().collect();
        items.sort_unstable();
        w.u64_seq(items.iter().copied());
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let items = r.u64_seq()?;
        if items.len() > 2 * self.cap {
            return Err(StateError::Corrupt("candidate set above 2·cap"));
        }
        self.members.clear();
        self.reindex();
        for item in items {
            self.insert(item, f64::NAN);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(c: &CandidateSet) -> Vec<u64> {
        let mut v: Vec<u64> = c.iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn keeps_strongest_items() {
        let mut c = CandidateSet::new(3);
        let score = |i: u64| i as f64; // bigger id = stronger
        for i in 1..=20u64 {
            c.offer(i, score);
        }
        assert!(c.len() <= 6, "bounded by 2·cap");
        assert_eq!(c.argmax(score), Some(20));
        let top: Vec<u64> = c.top_k(3, score).into_iter().map(|(i, _)| i).collect();
        assert_eq!(top, vec![20, 19, 18]);
    }

    #[test]
    fn top_k_ordering() {
        let mut c = CandidateSet::new(8);
        let score = |i: u64| -((i % 5) as f64); // |score| = i mod 5
        for i in 0..8u64 {
            c.offer(i, score);
        }
        let top = c.top_k(2, score);
        assert_eq!(top.len(), 2);
        assert!(top[0].1.abs() >= top[1].1.abs());
    }

    #[test]
    fn duplicate_offers_are_idempotent() {
        let mut c = CandidateSet::new(2);
        for _ in 0..5 {
            c.offer(7, |_| 1.0);
        }
        assert_eq!(c.len(), 1);
    }

    /// A scorer with many `|score|` ties and both signs, different in every
    /// chunk (as a sketch's estimates are after each chunk's updates).
    fn chunk_score(chunk: u64) -> impl Fn(u64) -> f64 {
        move |i| ((i.wrapping_mul(2_654_435_761) ^ chunk) % 13) as f64 - 6.0
    }

    #[test]
    fn scored_offer_equals_per_item_offers() {
        let mut lcg = 17u64;
        for cap in [1usize, 2, 3, 5, 8, 40] {
            let mut per_item = CandidateSet::new(cap);
            let mut scored = CandidateSet::new(cap);
            for chunk in 0..30u64 {
                let score = chunk_score(chunk);
                // Duplicates within a chunk, and carry-over across chunks:
                // items come from a universe small enough to repeat.
                let len = [0usize, 1, 7, 60, 200][chunk as usize % 5];
                let items: Vec<u64> = (0..len)
                    .map(|_| {
                        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (lcg >> 33) % 300
                    })
                    .collect();
                let scores: Vec<f64> = items.iter().map(|&i| score(i)).collect();
                for &i in &items {
                    per_item.offer(i, &score);
                }
                let mut rest_calls = 0;
                scored.offer_scored(&items, &scores, |rest, out| {
                    rest_calls += 1;
                    assert!(
                        rest.iter().all(|i| !items.contains(i)),
                        "an offered item was scored twice"
                    );
                    out.clear();
                    out.extend(rest.iter().map(|&i| score(i)));
                });
                assert!(rest_calls <= 1);
                assert_eq!(
                    sorted(&per_item),
                    sorted(&scored),
                    "cap {cap} chunk {chunk}"
                );
                assert!(scored.len() <= 2 * cap);
            }
        }
    }

    #[test]
    fn one_chunk_can_span_several_prune_passes() {
        let mut per_item = CandidateSet::new(1);
        let mut scored = CandidateSet::new(1);
        let score = |i: u64| (i % 4) as f64;
        let items: Vec<u64> = (0..50).collect();
        let scores: Vec<f64> = items.iter().map(|&i| score(i)).collect();
        for &i in &items {
            per_item.offer(i, score);
        }
        scored.offer_scored(&items, &scores, |_, _| {
            panic!("no member predates the chunk")
        });
        assert_eq!(sorted(&per_item), sorted(&scored));
        // 24 passes, each keeping 3: the smallest item of the top score.
        // Item 49 arrives after the last pass.
        assert_eq!(sorted(&scored), vec![3, 49]);
    }

    #[test]
    fn argmax_breaks_ties_by_smallest_item() {
        let score = |i: u64| if i & 1 == 0 { 5.0 } else { -5.0 };
        for round in 0..20u64 {
            let mut c = CandidateSet::new(64);
            // Same tied set, a different insertion order each round.
            for j in 0..40u64 {
                c.offer(100 + (j * 7 + round * 11) % 40, score);
            }
            assert_eq!(c.argmax(score), Some(100));
            let top: Vec<u64> = c.top_k(3, score).into_iter().map(|(i, _)| i).collect();
            assert_eq!(top, vec![100, 101, 102]);
        }
        assert_eq!(CandidateSet::new(4).argmax(score), None);
    }

    #[test]
    fn merge_offers_in_item_order_regardless_of_storage_order() {
        let score = chunk_score(3);
        let build = |items: &[u64]| {
            let mut c = CandidateSet::new(4);
            for &i in items {
                c.offer(i, &score);
            }
            c
        };
        let mut reference = build(&[1, 2, 3, 4, 5]);
        let theirs: Vec<u64> = (20..28).collect();
        for &i in &theirs {
            reference.offer(i, &score);
        }
        let mut reversed = theirs.clone();
        reversed.reverse();
        for other in [build(&theirs), build(&reversed)] {
            let mut mine = build(&[5, 4, 3, 2, 1]);
            mine.merge_scored(&other, |items, out| {
                out.clear();
                out.extend(items.iter().map(|&i| score(i)));
            });
            assert_eq!(sorted(&mine), sorted(&reference));
        }
    }

    #[test]
    fn state_round_trip_keeps_members() {
        let mut c = CandidateSet::new(3);
        for i in 0..5u64 {
            c.offer(i, |i| i as f64);
        }
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut d = CandidateSet::new(3);
        d.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(sorted(&c), sorted(&d));
        d.offer(9, |i| i as f64);
        c.offer(9, |i| i as f64);
        assert_eq!(sorted(&c), sorted(&d));
    }
}
