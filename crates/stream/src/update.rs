//! The stream model: items, updates, and batches.
//!
//! A data stream (paper §1) is a sequence of updates `(i_t, Δ_t)` applied to
//! an implicit frequency vector `f ∈ Z^n`. Items are `u64` indices into
//! `[0, n)`; deltas are signed 64-bit integers.

/// An item identifier in the universe `[0, n)`.
pub type Item = u64;

/// A single stream update `(i, Δ)`: `f_i ← f_i + Δ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Update {
    /// The item being updated.
    pub item: Item,
    /// The signed change to the item's frequency.
    pub delta: i64,
}

impl Update {
    /// Construct an update.
    #[inline]
    pub fn new(item: Item, delta: i64) -> Self {
        Update { item, delta }
    }

    /// An insertion of weight `w > 0`.
    #[inline]
    pub fn insert(item: Item, w: u64) -> Self {
        Update {
            item,
            delta: w as i64,
        }
    }

    /// A deletion of weight `w > 0`.
    #[inline]
    pub fn delete(item: Item, w: u64) -> Self {
        Update {
            item,
            delta: -(w as i64),
        }
    }

    /// `|Δ|` as unsigned.
    #[inline]
    pub fn magnitude(&self) -> u64 {
        self.delta.unsigned_abs()
    }

    /// Whether this is an insertion (`Δ > 0`). Zero-deltas count as neither.
    #[inline]
    pub fn is_insertion(&self) -> bool {
        self.delta > 0
    }
}

/// A finite stream over a declared universe size, the unit the generators
/// produce and the test/bench harnesses consume.
#[derive(Clone, Debug)]
pub struct StreamBatch {
    /// Universe size `n`; every update has `item < n`.
    pub n: u64,
    /// The updates, in arrival order.
    pub updates: Vec<Update>,
}

impl StreamBatch {
    /// An empty stream over universe `[0, n)`.
    pub fn empty(n: u64) -> Self {
        StreamBatch {
            n,
            updates: Vec::new(),
        }
    }

    /// Build from parts, validating that all items are inside the universe.
    pub fn new(n: u64, updates: Vec<Update>) -> Self {
        debug_assert!(updates.iter().all(|u| u.item < n), "item out of universe");
        StreamBatch { n, updates }
    }

    /// Number of updates `m`.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the stream has no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Total update mass `Σ_t |Δ_t|` (the `m·M` of the paper in unit terms).
    pub fn total_mass(&self) -> u64 {
        self.updates.iter().map(|u| u.magnitude()).sum()
    }

    /// Iterate over updates.
    pub fn iter(&self) -> std::slice::Iter<'_, Update> {
        self.updates.iter()
    }

    /// Expand every update into unit updates `Δ ∈ {-1, +1}` (paper §1.3's
    /// implicit expansion). Intended for tests; real algorithms consume
    /// weighted updates directly via binomial thinning.
    pub fn expand_units(&self) -> StreamBatch {
        let mut out = Vec::with_capacity(self.total_mass() as usize);
        for u in &self.updates {
            let unit = if u.delta >= 0 { 1 } else { -1 };
            for _ in 0..u.magnitude() {
                out.push(Update::new(u.item, unit));
            }
        }
        StreamBatch {
            n: self.n,
            updates: out,
        }
    }

    /// Concatenate another stream over the same universe after this one.
    pub fn chain(mut self, other: StreamBatch) -> StreamBatch {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.updates.extend(other.updates);
        self
    }
}

impl<'a> IntoIterator for &'a StreamBatch {
    type Item = &'a Update;
    type IntoIter = std::slice::Iter<'a, Update>;
    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_helpers() {
        assert_eq!(Update::insert(3, 5), Update::new(3, 5));
        assert_eq!(Update::delete(3, 5), Update::new(3, -5));
        assert_eq!(Update::delete(3, 5).magnitude(), 5);
        assert!(Update::insert(0, 1).is_insertion());
        assert!(!Update::delete(0, 1).is_insertion());
        assert!(!Update::new(0, 0).is_insertion());
    }

    #[test]
    fn batch_mass_and_expansion() {
        let b = StreamBatch::new(10, vec![Update::insert(1, 3), Update::delete(2, 2)]);
        assert_eq!(b.total_mass(), 5);
        let e = b.expand_units();
        assert_eq!(e.len(), 5);
        assert_eq!(e.total_mass(), 5);
        assert!(e.updates.iter().all(|u| u.magnitude() == 1));
    }

    #[test]
    fn chain_preserves_order() {
        let a = StreamBatch::new(4, vec![Update::insert(0, 1)]);
        let b = StreamBatch::new(4, vec![Update::delete(1, 1)]);
        let c = a.chain(b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.updates[0].item, 0);
        assert_eq!(c.updates[1].item, 1);
    }
}
