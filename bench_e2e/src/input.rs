//! The workload input: a seeded bounded-deletion stream replayed in a
//! cycle, the query batches readers send, the exact frequencies every
//! served answer is checked against, and the properties each run records.
//!
//! Replaying a strict-turnstile cycle keeps every prefix strict: after `q`
//! whole cycles and `r` more updates the frequency vector is
//! `q·f_cycle + f_r`, both terms non-negative, so `‖f‖₁` is their sum and
//! the exact answer at any stamp needs one cycle's worth of state.

use bd_stream::gen::BoundedDeletionGen;
use bd_stream::{FrequencyVector, Item, Update};

/// Updates per `ingest` call (and per dispatch cell).
pub const CALL: usize = 4096;
/// Items per point-query batch.
pub const BATCH: usize = 16;
/// Unit insertions in one cycle; with α = 2 a cycle is ~4/3 this long.
const INSERT_MASS: u64 = 1_600_000;
/// Realized α of one cycle. A prefix of `q ≥ 1` whole cycles plus `r`
/// updates then has α ≤ 2 + 2/q ≤ 4, honouring the sketches' `alpha=4`
/// promise; only the first cycle's prefixes (deletion-heavy, α up to
/// ~10³) break it.
const CYCLE_ALPHA: f64 = 2.0;
/// Distinct items receiving mass.
const DISTINCT: usize = 16_384;
/// Query batches drawn per run (requests cycle through them).
const BATCHES: usize = 1024;

pub struct Input {
    pub n: u64,
    /// One cycle, truncated to whole calls.
    pub base: Vec<Update>,
    /// `f` after one whole cycle, dense over the universe.
    full: Vec<i64>,
    /// The items the cycle touches (every other frequency stays 0).
    pub ids: Vec<Item>,
    full_l1: i64,
    /// Point-query batches, items drawn by stream position (so by
    /// popularity).
    pub batches: Vec<Vec<Item>>,
    pub props: Props,
}

/// Measured properties of the generated cycle.
pub struct Props {
    pub cycle: usize,
    pub distinct: u64,
    pub alpha: f64,
    pub distinct_per_cell: f64,
}

/// Served point answers: one `(stamp, batch)` per answer, `BATCH`
/// estimates each in `est`.
#[derive(Default)]
pub struct Served {
    pub stamps: Vec<(u64, u32)>,
    pub est: Vec<f64>,
}

impl Served {
    pub fn push(&mut self, stamp: u64, batch: u32, est: &[f64]) {
        self.stamps.push((stamp, batch));
        self.est.extend_from_slice(est);
    }
}

/// Outcome of checking served answers against the exact frequencies.
#[derive(Default)]
pub struct PointCheck {
    /// Answers (batches) whose stamp's prefix honours the α promise, so
    /// the guarantee applies to them.
    pub checked: u64,
    /// Answers at stamps whose prefix breaks the α promise (the stream's
    /// first cycle): reported, not held to the guarantee.
    pub outside_promise: u64,
    /// Checked answers with at least one estimate outside `ε‖f‖₁`.
    pub bad: u64,
    /// Largest `|error| / (ε‖f‖₁)` over checked answers.
    pub worst: f64,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Input {
    pub fn generate(n: u64, seed: u64) -> Input {
        let gen = BoundedDeletionGen {
            n,
            insert_mass: INSERT_MASS,
            alpha: CYCLE_ALPHA,
            zipf_s: 1.05,
            distinct: DISTINCT,
        };
        let mut base = gen.generate_seeded(seed).updates;
        base.truncate(base.len() / CALL * CALL);
        let mut full = vec![0i64; n as usize];
        for u in &base {
            full[u.item as usize] += u.delta;
        }
        let full_l1 = full.iter().sum();

        let mut fv = FrequencyVector::new(n);
        let mut mark = vec![u32::MAX; n as usize];
        let mut per_cell = 0u64;
        for (c, cell) in base.chunks(CALL).enumerate() {
            for u in cell {
                fv.update(*u);
                if mark[u.item as usize] != c as u32 {
                    mark[u.item as usize] = c as u32;
                    per_cell += 1;
                }
            }
        }
        let cells = (base.len() / CALL) as f64;
        let ids: Vec<Item> = (0..n).filter(|&i| mark[i as usize] != u32::MAX).collect();

        let mut rng = seed ^ 0x0E2E_5EED;
        let batches = (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| base[(splitmix(&mut rng) % base.len() as u64) as usize].item)
                    .collect()
            })
            .collect();
        Input {
            n,
            props: Props {
                cycle: base.len(),
                distinct: ids.len() as u64,
                alpha: fv.alpha_l1(),
                distinct_per_cell: per_cell as f64 / cells,
            },
            base,
            full,
            ids,
            full_l1,
            batches,
        }
    }

    /// The next call's updates from offered position `pos`: at most `len`,
    /// never crossing the end of the cycle.
    pub fn cell(&self, pos: u64, len: usize) -> &[Update] {
        let r = (pos % self.base.len() as u64) as usize;
        &self.base[r..(r + len).min(self.base.len())]
    }

    /// Every update of the prefix `[0, upto)`, as cycle slices in order.
    pub fn prefix(&self, upto: u64) -> impl Iterator<Item = &[Update]> {
        let l = self.base.len() as u64;
        (0..upto.div_ceil(l)).map(move |c| {
            let end = (upto - c * l).min(l) as usize;
            &self.base[..end]
        })
    }

    /// Check every served answer against the exact frequency at its stamp:
    /// within `ε‖f‖₁` wherever the prefix's realized α (`stamp / ‖f‖₁`,
    /// every update having unit mass) honours the configured `alpha`.
    pub fn check_points(&self, eps: f64, alpha: f64, served: &Served) -> PointCheck {
        let l = self.base.len() as u64;
        let mut order: Vec<usize> = (0..served.stamps.len()).collect();
        order.sort_by_key(|&i| served.stamps[i].0 % l);
        let mut pre = vec![0i64; self.n as usize];
        let (mut pre_l1, mut cursor) = (0i64, 0usize);
        let mut out = PointCheck::default();
        for i in order {
            let (stamp, b) = served.stamps[i];
            let (q, r) = ((stamp / l) as i64, (stamp % l) as usize);
            while cursor < r {
                let u = self.base[cursor];
                pre[u.item as usize] += u.delta;
                pre_l1 += u.delta;
                cursor += 1;
            }
            let l1 = (q * self.full_l1 + pre_l1) as f64;
            if stamp as f64 > alpha * l1 {
                out.outside_promise += 1;
                continue;
            }
            let bound = eps * l1;
            let est = &served.est[i * BATCH..(i + 1) * BATCH];
            let mut ok = true;
            for (&item, &e) in self.batches[b as usize].iter().zip(est) {
                let exact = q * self.full[item as usize] + pre[item as usize];
                let err = (e - exact as f64).abs();
                ok &= err <= bound;
                out.worst = out.worst.max(err / bound);
            }
            out.checked += 1;
            out.bad += u64::from(!ok);
        }
        out
    }

    /// The exact frequency vector and `‖f‖₁` of the prefix `[0, upto)`.
    pub fn exact_at(&self, upto: u64) -> (Vec<i64>, i64) {
        let l = self.base.len() as u64;
        let q = (upto / l) as i64;
        let mut f: Vec<i64> = self.full.iter().map(|&x| q * x).collect();
        for u in &self.base[..(upto % l) as usize] {
            f[u.item as usize] += u.delta;
        }
        let l1 = f.iter().sum();
        (f, l1)
    }
}
