//! CSSS — the Countsketch Sampling Simulator (paper Figure 2, Theorem 1).
//!
//! CSSS simulates running each row of a Countsketch on an independent
//! uniform sample of `poly(α·log(n)/ε)` stream updates. Counters hold
//! *sampled unit counts* split into insertion/deletion halves (`a⁺`, `a⁻`),
//! so their magnitudes are bounded by the sample budget — `O(log(α log n/ε))`
//! bits each — instead of by the stream length. That counter-width saving is
//! exactly where the `log n → log α` improvement of Theorems 3–5 comes from.
//!
//! Guarantee (Theorem 1): with `6k` columns and `O(log n)` rows on an
//! α-property stream, every point estimate satisfies
//! `|y*_i − f_i| ≤ 2(k^{-1/2}·Err₂ᵏ(f) + ε‖f‖₁)` w.h.p.
//!
//! Two fidelity notes (DESIGN.md §6): rows sample *independently* (the
//! text's analysis; Figure 2's pseudocode shares one coin), and the halving
//! thresholds are `t = S·2^r` (the invariant `2^{-p} ≥ S/(2m)` every proof
//! uses; the figure's `t = 2^r log S + 1` appears to be a typo).

use crate::binomial::{bin_half, bin_pow2};
use bd_hash::RowHashes;
use bd_stream::{
    BatchScratch, Mergeable, PointQuery, PointQueryBatch, Sketch, SketchState, SpaceReport,
    SpaceUsage, StateError, StateReader, StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reusable batched-ingest scratch: hash plan plus flat row-major bucket /
/// sign buffers (no sketch state).
#[derive(Clone, Debug, Default)]
struct IngestScratch {
    agg: BatchScratch,
    plan: RowHashes,
    buckets: Vec<u64>,
    signs: Vec<bool>,
    /// Item-major signed raw row counts for the median readouts.
    raw: Vec<i64>,
}

/// One row: an independent Countsketch row over an independent sample.
#[derive(Clone, Debug)]
struct CsssRow {
    h: bd_hash::KWiseHash,
    g: bd_hash::SignHash,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl CsssRow {
    fn thin<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for c in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            if *c > 0 {
                *c = bin_half(rng, *c);
            }
        }
    }
}

/// Evaluate every row's bucket and sign hashes over the loaded chunk into
/// row-major `buckets` / `signs` (both cleared first).
fn hash_rows(rows: &[CsssRow], plan: &RowHashes, buckets: &mut Vec<u64>, signs: &mut Vec<bool>) {
    buckets.clear();
    signs.clear();
    for row in rows {
        plan.append_buckets(&row.h, buckets);
        plan.append_signs(&row.g, signs);
    }
}

/// One item's signed raw count `g·(a⁺ − a⁻)` in bucket `b`.
#[inline]
fn signed_raw(row: &CsssRow, b: usize, plus: bool) -> i64 {
    let raw = row.pos[b] as i64 - row.neg[b] as i64;
    if plus {
        raw
    } else {
        -raw
    }
}

/// The point estimate from one item's signed raw row counts: the lower
/// median (reorders `raw`), scaled by `2^p`. Scaling by a positive power of
/// two is monotone, so this is the median of the scaled row estimates; a
/// zero median reads `+0.0`.
#[inline]
fn median_scaled(raw: &mut [i64], scale: f64) -> f64 {
    let mid = (raw.len() - 1) / 2;
    *raw.select_nth_unstable(mid).1 as f64 * scale
}

/// The median-of-rows readout for `m` items whose hashes [`hash_rows`] laid
/// out row-major: each row writes its signed raw counts for the whole chunk
/// into the reused item-major `raw` buffer, then each item's
/// [`median_scaled`] is appended to `out`. [`Csss::estimate`] reads through
/// the same `median_scaled`, so every point path agrees bit for bit.
fn median_readout(
    rows: &[CsssRow],
    scale: f64,
    m: usize,
    buckets: &[u64],
    signs: &[bool],
    raw: &mut Vec<i64>,
    out: &mut Vec<f64>,
) {
    let depth = rows.len();
    raw.clear();
    raw.resize(m * depth, 0);
    for (r, row) in rows.iter().enumerate() {
        let row_buckets = &buckets[r * m..(r + 1) * m];
        let row_signs = &signs[r * m..(r + 1) * m];
        for (idx, (&b, &plus)) in row_buckets.iter().zip(row_signs).enumerate() {
            raw[idx * depth + r] = signed_raw(row, b as usize, plus);
        }
    }
    out.extend(
        raw.chunks_exact_mut(depth)
            .map(|item| median_scaled(item, scale)),
    );
}

/// The CSSS sketch. Owns its sampling RNG: two sketches built from the same
/// seed share hash functions (the [`Mergeable`] contract) and replay
/// identically on identical streams.
#[derive(Clone, Debug)]
pub struct Csss {
    seed: u64,
    k: usize,
    columns: usize,
    budget: u64,
    level: u32,
    position: u64,
    rows: Vec<CsssRow>,
    max_counter: u64,
    rng: SmallRng,
    scratch: IngestScratch,
}

impl Csss {
    /// Create with sensitivity parameter `k` (→ `6k` columns), `depth` rows,
    /// and sample budget `S` (`Params::csss_sample_budget`), seeded by
    /// `seed`.
    pub fn new(seed: u64, k: usize, depth: usize, budget: u64) -> Self {
        assert!(k >= 1 && depth >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let columns = 6 * k;
        Csss {
            seed,
            k,
            columns,
            budget: budget.max(16),
            level: 0,
            position: 0,
            rows: (0..depth)
                .map(|_| CsssRow {
                    h: bd_hash::KWiseHash::fourwise(&mut rng, columns as u64),
                    g: bd_hash::SignHash::new(&mut rng),
                    pos: vec![0; columns],
                    neg: vec![0; columns],
                })
                .collect(),
            max_counter: 0,
            rng,
            scratch: IngestScratch::default(),
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sensitivity parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// The current sampling level `p` (rate `2^{-p}`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Stream mass processed so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The scale factor `2^p` applied to raw counters.
    pub fn scale(&self) -> f64 {
        (self.level as f64).exp2()
    }

    /// Apply a signed integer update `(item, delta)`.
    pub fn update(&mut self, item: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        self.update_weighted(item, delta.unsigned_abs(), delta > 0);
    }

    /// Apply an update of magnitude `weight` with an explicit sign (the L1
    /// sampler feeds pre-scaled magnitudes through this entry point).
    pub fn update_weighted(&mut self, item: u64, weight: u64, positive: bool) {
        if weight == 0 {
            return;
        }
        self.position += weight;
        while self.position > self.budget << self.level {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
        let level = self.level;
        let rng = &mut self.rng;
        for row in &mut self.rows {
            // Per-row independent sample of Bin(weight, 2^-p) units.
            let kept = bin_pow2(rng, weight, level);
            if kept == 0 {
                continue;
            }
            let b = row.h.hash(item) as usize;
            // The sampled units contribute g(i)·sign(Δ) each.
            let plus = (row.g.sign(item) >= 0) == positive;
            let cell = if plus {
                &mut row.pos[b]
            } else {
                &mut row.neg[b]
            };
            *cell += kept;
            self.max_counter = self.max_counter.max(*cell);
        }
    }

    /// Ingest a pre-aggregated chunk of per-item `(item, inserted mass,
    /// deleted mass)` rows (the `aggregate_signed_mass` shape, first-touch
    /// ordered) through the batched hash engine: the chunk's items are
    /// canonicalized once, every row's bucket and sign polynomials are
    /// evaluated over the whole chunk in an interleaved-Horner pass into
    /// reusable row-major buffers, and then each item's weighted updates
    /// replay in chunk order with the usual thinning schedule. Identical
    /// output distribution to per-item [`Csss::update_weighted`] calls (the
    /// RNG draw order per counter is unchanged); shared with the compounds
    /// that aggregate once and feed several structures.
    pub fn update_aggregated(&mut self, agg: &[(u64, u64, u64)]) {
        if agg.is_empty() {
            return;
        }
        let Self {
            budget,
            level,
            position,
            rows,
            max_counter,
            rng,
            scratch,
            ..
        } = self;
        let IngestScratch {
            plan,
            buckets,
            signs,
            ..
        } = scratch;
        plan.load(agg.iter().map(|&(item, _, _)| item));
        hash_rows(rows, plan, buckets, signs);
        let m = plan.len();
        for (idx, &(_, pos, neg)) in agg.iter().enumerate() {
            for (weight, positive) in [(pos, true), (neg, false)] {
                if weight == 0 {
                    continue;
                }
                *position += weight;
                while *position > *budget << *level {
                    *level += 1;
                    for row in rows.iter_mut() {
                        row.thin(rng);
                    }
                }
                for (r, row) in rows.iter_mut().enumerate() {
                    // Per-row independent sample of Bin(weight, 2^-p) units.
                    let kept = bin_pow2(rng, weight, *level);
                    if kept == 0 {
                        continue;
                    }
                    let b = buckets[r * m + idx] as usize;
                    let cell = if signs[r * m + idx] == positive {
                        &mut row.pos[b]
                    } else {
                        &mut row.neg[b]
                    };
                    *cell += kept;
                    *max_counter = (*max_counter).max(*cell);
                }
            }
        }
    }

    /// One row's scaled estimate `2^p·g_i(j)·(a⁺ − a⁻)` (a zero count under
    /// a negative sign reads `−0.0`; [`Csss::estimate`] reads `+0.0`).
    #[inline]
    pub fn row_estimate(&self, row: usize, item: u64) -> f64 {
        let r = &self.rows[row];
        let b = r.h.hash(item) as usize;
        let raw = r.pos[b] as f64 - r.neg[b] as f64;
        let signed = if r.g.sign(item) >= 0 { raw } else { -raw };
        signed * self.scale()
    }

    /// The point estimate `y*_j`: the lower median over rows of the scaled
    /// row estimates.
    pub fn estimate(&self, item: u64) -> f64 {
        let mut raw: Vec<i64> = self
            .rows
            .iter()
            .map(|row| signed_raw(row, row.h.hash(item) as usize, row.g.sign(item) >= 0))
            .collect();
        median_scaled(&mut raw, self.scale())
    }

    /// [`Csss::update_aggregated`], then each chunk item's post-update
    /// point estimate into `out` (cleared, positional with `agg`), read
    /// from the bucket and sign rows the update already hashed: the chunk's
    /// items are hashed once for both. Bit-identical per item to
    /// [`Csss::estimate`] after the update.
    pub fn update_aggregated_estimates(&mut self, agg: &[(u64, u64, u64)], out: &mut Vec<f64>) {
        out.clear();
        if agg.is_empty() {
            return;
        }
        self.update_aggregated(agg);
        let scale = self.scale();
        let IngestScratch {
            buckets,
            signs,
            raw,
            ..
        } = &mut self.scratch;
        median_readout(&self.rows, scale, agg.len(), buckets, signs, raw, out);
    }

    /// Point estimates for a whole set of items in one batched hash pass:
    /// every row's bucket and sign polynomials are evaluated over all of
    /// `items` through the chunk engine, then each item's median-of-rows is
    /// taken from a reused buffer. `out` is cleared and filled positionally.
    /// Bit-identical per item to [`Csss::estimate`] (same integer median and
    /// scaling); `&mut self` only for the reusable scratch.
    pub fn estimate_many(&mut self, items: &[u64], out: &mut Vec<f64>) {
        let scale = self.scale();
        let IngestScratch {
            plan,
            buckets,
            signs,
            raw,
            ..
        } = &mut self.scratch;
        plan.load(items.iter().copied());
        hash_rows(&self.rows, plan, buckets, signs);
        out.clear();
        median_readout(&self.rows, scale, items.len(), buckets, signs, raw, out);
    }

    /// [`Csss::estimate_many`] without the sketch-resident scratch: the hash
    /// plan and row buffers are call-local, so the receiver is shared
    /// (`&self`) and any number of reader threads can batch-query one
    /// snapshot concurrently. Appends to `out` (does not clear it); each
    /// appended value is bit-identical to the corresponding
    /// [`Csss::estimate`] call.
    pub fn estimate_many_shared(&self, items: &[u64], out: &mut Vec<f64>) {
        let mut plan = RowHashes::default();
        plan.load(items.iter().copied());
        let (mut buckets, mut signs) = (Vec::new(), Vec::new());
        hash_rows(&self.rows, &plan, &mut buckets, &mut signs);
        median_readout(
            &self.rows,
            self.scale(),
            items.len(),
            &buckets,
            &signs,
            &mut Vec::new(),
            out,
        );
    }

    /// `‖row residual‖₂` after subtracting a sparse vector `yhat` from the
    /// row's scaled sketch — the "feed `−ŷ` into CSSS₂" step of Lemma 5,
    /// computed without mutating the structure.
    pub fn row_residual_l2(&self, row: usize, yhat: &[(u64, f64)]) -> f64 {
        let r = &self.rows[row];
        let scale = self.scale();
        let mut buckets: Vec<f64> = (0..self.columns)
            .map(|b| (r.pos[b] as f64 - r.neg[b] as f64) * scale)
            .collect();
        for &(item, value) in yhat {
            let b = r.h.hash(item) as usize;
            buckets[b] -= r.g.sign(item) as f64 * value;
        }
        buckets.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Median over rows of `‖row residual‖₂` (Lemma 4's norm estimate of
    /// the scaled sample minus `yhat`).
    pub fn residual_l2(&self, yhat: &[(u64, f64)]) -> f64 {
        let mut ests: Vec<f64> = (0..self.rows.len())
            .map(|r| self.row_residual_l2(r, yhat))
            .collect();
        bd_sketch::median_f64(&mut ests)
    }

    /// Largest raw counter value seen (drives the reported counter width).
    pub fn max_counter(&self) -> u64 {
        self.max_counter
    }

    /// Thin every row until the sketch's sampling level reaches `target`.
    fn thin_to_level(&mut self, target: u32) {
        while self.level < target {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
    }
}

impl Sketch for Csss {
    fn update(&mut self, item: u64, delta: i64) {
        Csss::update(self, item, delta);
    }

    /// Batched ingestion: aggregate the chunk into per-item
    /// `(inserted, deleted)` mass first (reusable table, zero steady-state
    /// allocations), then run the chunk through
    /// [`Csss::update_aggregated`]'s batched hash pass. Duplicate items pay
    /// the per-row hash and sign evaluations once, and each `Bin(w, 2^-p)`
    /// draw covers a whole item's chunk mass instead of one update. Total
    /// update mass (and therefore the sampling-rate schedule) is preserved,
    /// so the output distribution is the one the §1.3 weighted-update
    /// semantics already define.
    fn update_batch(&mut self, batch: &[Update]) {
        let mut agg = std::mem::take(&mut self.scratch.agg);
        self.update_aggregated(agg.aggregate_signed_mass(batch));
        self.scratch.agg = agg;
    }
}

impl PointQuery for Csss {
    fn point(&self, item: u64) -> f64 {
        self.estimate(item)
    }
}

impl PointQueryBatch for Csss {
    fn point_many(&self, items: &[u64], out: &mut Vec<f64>) {
        self.estimate_many_shared(items, out);
    }
}

impl Mergeable for Csss {
    /// Merge by aligning both sketches to the deeper sampling level (thinning
    /// the shallower one down) and adding counters; positions add, and the
    /// rate invariant `position ≤ budget·2^level` is restored by further
    /// halving if needed. Each retained unit keeps its `Bin(·, 2^-level)`
    /// marginal, so the merged sketch is distributed as a single-pass sketch
    /// of the concatenated streams.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.seed == other.seed
                && self.k == other.k
                && self.budget == other.budget
                && self.rows.len() == other.rows.len(),
            "Csss merge requires identically seeded sketches"
        );
        // Align levels: thin self up, and thin a copy of other's counters up.
        let target = self.level.max(other.level);
        self.thin_to_level(target);
        let mut theirs: Vec<(Vec<u64>, Vec<u64>)> = other
            .rows
            .iter()
            .map(|r| (r.pos.clone(), r.neg.clone()))
            .collect();
        for lvl in other.level..target {
            let _ = lvl;
            for (pos, neg) in &mut theirs {
                for c in pos.iter_mut().chain(neg.iter_mut()) {
                    if *c > 0 {
                        *c = bin_half(&mut self.rng, *c);
                    }
                }
            }
        }
        for (row, (pos, neg)) in self.rows.iter_mut().zip(&theirs) {
            for (a, b) in row.pos.iter_mut().zip(pos) {
                *a += b;
                self.max_counter = self.max_counter.max(*a);
            }
            for (a, b) in row.neg.iter_mut().zip(neg) {
                *a += b;
                self.max_counter = self.max_counter.max(*a);
            }
        }
        self.position += other.position;
        // Restore the rate invariant for the combined position.
        while self.position > self.budget << self.level {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
    }
}

impl SketchState for Csss {
    /// Mutable state: sampling level, position cursor, counter-width
    /// watermark, the sampling RNG (so replay after restore continues the
    /// exact thinning sequence), and every row's pos/neg counter tables.
    /// Hashes and sizing rebuild from the spec seed.
    fn save_state(&self, w: &mut StateWriter) {
        w.u32(self.level);
        w.u64(self.position);
        w.u64(self.max_counter);
        for s in self.rng.state() {
            w.u64(s);
        }
        w.seq(self.rows.len());
        for row in &self.rows {
            w.u64_seq(row.pos.iter().copied());
            w.u64_seq(row.neg.iter().copied());
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.level = r.u32()?;
        self.position = r.u64()?;
        self.max_counter = r.u64()?;
        let mut state = [0u64; 4];
        for s in state.iter_mut() {
            *s = r.u64()?;
        }
        self.rng = SmallRng::from_state(state);
        if r.seq(16)? != self.rows.len() {
            return Err(StateError::Corrupt("csss row count"));
        }
        for row in self.rows.iter_mut() {
            for cells in [&mut row.pos, &mut row.neg] {
                if r.seq(8)? != cells.len() {
                    return Err(StateError::Corrupt("csss table length"));
                }
                for c in cells.iter_mut() {
                    *c = r.u64()?;
                }
            }
        }
        Ok(())
    }
}

impl SpaceUsage for Csss {
    fn space(&self) -> SpaceReport {
        let cells = (2 * self.rows.len() * self.columns) as u64;
        let width = bd_hash::width_unsigned(self.max_counter.max(1)) as u64;
        let seeds: u64 = self
            .rows
            .iter()
            .map(|r| (r.h.seed_bits() + r.g.seed_bits()) as u64)
            .sum();
        SpaceReport {
            counters: cells,
            counter_bits: cells * width,
            // position cursor (log m) + level (log log m)
            seed_bits: seeds,
            overhead_bits: bd_hash::width_unsigned(self.position.max(1)) as u64 + 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::BoundedDeletionGen;
    use bd_stream::{BatchScratch, FrequencyVector, StreamRunner};

    #[test]
    fn exact_below_budget_on_sparse_input() {
        let mut c = Csss::new(1, 16, 9, 1 << 16);
        c.update(3, 40);
        c.update(900, -17);
        assert_eq!(c.level(), 0);
        assert_eq!(c.estimate(3), 40.0);
        assert_eq!(c.estimate(900), -17.0);
        assert_eq!(c.estimate(555), 0.0);
    }

    #[test]
    fn theorem_one_error_bound() {
        let alpha = 4.0f64;
        let eps = 0.1f64;
        let k = 16usize;
        let stream = BoundedDeletionGen::new(1 << 12, 120_000, alpha).generate_seeded(2);
        let truth = FrequencyVector::from_stream(&stream);
        let budget = (24.0 * alpha * alpha / eps.powi(3)) as u64;

        let mut c = Csss::new(3, k, 9, budget);
        for u in &stream {
            c.update(u.item, u.delta);
        }
        let bound = 2.0 * (truth.err_k(k, 2) / (k as f64).sqrt() + eps * truth.l1() as f64);
        let mut violations = 0usize;
        let support = truth.support();
        for &i in &support {
            if (c.estimate(i) - truth.get(i) as f64).abs() > bound {
                violations += 1;
            }
        }
        assert!(
            violations <= support.len() / 50,
            "{violations}/{} Theorem-1 violations (bound {bound})",
            support.len()
        );
    }

    #[test]
    fn counters_stay_sample_bounded() {
        // The whole point: counter magnitude tracks S, not stream length.
        let budget = 1 << 10;
        let mut c = Csss::new(4, 4, 5, budget);
        for i in 0..2_000_000u64 {
            c.update(i % 256, 1);
        }
        assert!(
            c.max_counter() <= 8 * budget,
            "counter {} outgrew the sample budget",
            c.max_counter()
        );
        assert!(c.position() == 2_000_000);
    }

    #[test]
    fn estimates_unbiased_under_thinning() {
        let trials = 1500;
        let mut acc = 0.0;
        for seed in 0..trials {
            let mut c = Csss::new(seed, 8, 1, 64);
            for _ in 0..50 {
                c.update(9, 4); // f_9 = 200 >> budget
            }
            acc += c.row_estimate(0, 9);
        }
        let mean = acc / trials as f64;
        assert!((mean - 200.0).abs() < 12.0, "mean {mean}");
    }

    #[test]
    fn residual_subtracts_sparse_vector() {
        let mut c = Csss::new(6, 8, 7, 1 << 20);
        c.update(1, 100);
        c.update(2, 50);
        // Subtracting the exact content leaves ~nothing.
        let resid = c.residual_l2(&[(1, 100.0), (2, 50.0)]);
        assert!(resid < 1e-9, "residual {resid}");
        // Subtracting nothing leaves the full norm.
        let full = c.residual_l2(&[]);
        let expect = (100.0f64.powi(2) + 50.0f64.powi(2)).sqrt();
        assert!((full - expect).abs() < 1e-6);
    }

    #[test]
    fn weighted_entry_point_matches_signed() {
        let mut a = Csss::new(7, 4, 3, 1 << 20);
        let mut b = a.clone();
        a.update(5, -31);
        b.update_weighted(5, 31, false);
        assert_eq!(a.estimate(5), b.estimate(5));
    }

    #[test]
    fn seeded_replay_is_identical() {
        let stream = BoundedDeletionGen::new(1 << 10, 50_000, 4.0).generate_seeded(11);
        let run = || {
            let mut c = Csss::new(42, 8, 5, 1 << 10);
            for u in &stream {
                c.update(u.item, u.delta);
            }
            (0..64u64)
                .map(|i| c.estimate(i).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn space_width_is_logarithmic_in_budget() {
        let mut c = Csss::new(9, 4, 3, 1 << 8);
        for i in 0..500_000u64 {
            c.update(i % 128, 1);
        }
        let rep = c.space();
        let per_counter = rep.counter_bits / rep.counters;
        assert!(
            per_counter <= 12,
            "counter width {per_counter} bits should be ~log2(S)"
        );
    }

    #[test]
    fn batched_ingestion_matches_per_update_statistically() {
        // Batched CSSS is a different (equally valid) sampling realization;
        // on a budget large enough to avoid thinning it is exactly equal,
        // and on thinned runs the estimates must agree within Theorem-1 noise.
        let stream = BoundedDeletionGen::new(1 << 10, 30_000, 3.0).generate_seeded(13);
        let truth = FrequencyVector::from_stream(&stream);

        // No-thinning regime: bit-identical results.
        let mut exact_a = Csss::new(5, 8, 5, 1 << 20);
        let mut exact_b = exact_a.clone();
        StreamRunner::unbatched().run(&mut exact_a, &stream);
        StreamRunner::new().run(&mut exact_b, &stream);
        assert_eq!(exact_a.level(), 0);
        for i in truth.support() {
            assert_eq!(exact_a.estimate(i).to_bits(), exact_b.estimate(i).to_bits());
        }

        // Thinning regime: same error envelope.
        let budget = 1 << 12;
        let mut thin_a = Csss::new(6, 16, 9, budget);
        let mut thin_b = thin_a.clone();
        StreamRunner::unbatched().run(&mut thin_a, &stream);
        StreamRunner::new().run(&mut thin_b, &stream);
        let bound = 2.0 * (truth.err_k(16, 2) / 4.0 + 0.1 * truth.l1() as f64);
        let mut bad = 0usize;
        for i in truth.support() {
            if (thin_b.estimate(i) - truth.get(i) as f64).abs() > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.l0() as usize / 25, "{bad} batched violations");
    }

    #[test]
    fn merge_matches_single_pass_statistically() {
        let stream = BoundedDeletionGen::new(1 << 10, 40_000, 3.0).generate_seeded(17);
        let truth = FrequencyVector::from_stream(&stream);
        let mid = stream.len() / 2;
        let budget = 1 << 12;
        let mut left = Csss::new(21, 16, 9, budget);
        let mut right = left.clone();
        for u in &stream.updates[..mid] {
            left.update(u.item, u.delta);
        }
        for u in &stream.updates[mid..] {
            right.update(u.item, u.delta);
        }
        left.merge_from(&right);
        assert_eq!(left.position(), stream.total_mass());
        // Rate invariant holds after the merge.
        assert!(left.position() <= budget << left.level());
        let bound = 2.0 * (truth.err_k(16, 2) / 4.0 + 0.1 * truth.l1() as f64);
        let mut bad = 0usize;
        for i in truth.support() {
            if (left.estimate(i) - truth.get(i) as f64).abs() > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.l0() as usize / 25, "{bad} merged violations");
    }

    #[test]
    fn every_point_path_agrees_bit_for_bit_after_every_chunk() {
        // A prefix that inserts and deletes each item equally leaves every
        // touched counter at a⁺ = a⁻, so its items read a zero median count
        // under both signs; the Zipf tail then thins the sketch.
        let mut updates: Vec<Update> = (0..2_000u64)
            .flat_map(|i| [Update::new(i, 5), Update::new(i, -5)])
            .collect();
        updates.extend(
            BoundedDeletionGen::new(1 << 12, 100_000, 1.5)
                .generate_seeded(31)
                .updates,
        );
        for depth in [9, 8] {
            let mut c = Csss::new(32, 16, depth, 1 << 15);
            let mut scratch = BatchScratch::default();
            let (mut fused, mut many, mut shared) = (Vec::new(), Vec::new(), Vec::new());
            let mut negative_zeros = 0usize;
            for chunk in updates.chunks(StreamRunner::DEFAULT_CHUNK) {
                let agg = scratch.aggregate_signed_mass(chunk);
                c.update_aggregated_estimates(agg, &mut fused);
                let items: Vec<u64> = agg.iter().map(|&(item, _, _)| item).collect();
                c.estimate_many(&items, &mut many);
                shared.clear();
                c.estimate_many_shared(&items, &mut shared);
                for (idx, &item) in items.iter().enumerate() {
                    let scalar = c.estimate(item);
                    for (path, value) in [
                        ("fused", fused[idx]),
                        ("many", many[idx]),
                        ("shared", shared[idx]),
                    ] {
                        assert_eq!(value.to_bits(), scalar.to_bits(), "{path} item {item}");
                    }
                    // The lower median of the scaled row estimates, with
                    // zero read as +0.0.
                    let mut rows: Vec<f64> = (0..depth).map(|r| c.row_estimate(r, item)).collect();
                    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let median = rows[(depth - 1) / 2];
                    assert_eq!(scalar, median, "item {item}");
                    if median == 0.0 {
                        assert_eq!(scalar.to_bits(), 0.0f64.to_bits(), "item {item}");
                        if rows.iter().any(|r| r.to_bits() == (-0.0f64).to_bits()) {
                            negative_zeros += 1;
                        }
                    }
                }
            }
            assert!(c.level() > 0, "the stream must reach thinning");
            assert!(negative_zeros > 1_000, "{negative_zeros} −0.0 row reads");
        }
    }

    #[test]
    #[should_panic(expected = "identically seeded")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = Csss::new(1, 4, 3, 64);
        let b = Csss::new(2, 4, 3, 64);
        a.merge_from(&b);
    }
}
