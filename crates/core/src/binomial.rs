//! Exact binomial thinning — the sampling primitive behind CSSS and the
//! interval samplers.
//!
//! The paper's algorithms sample stream updates with dyadic probabilities
//! `2^{-q}` and periodically *downsample existing counters*: Figure 2 step
//! 5(a) replaces every counter `a` by `Bin(a, 1/2)`, and §1.3 expands a
//! weighted update `|Δ| > 1` into `sign(Δ)·Bin(|Δ|, p)` sampled units.
//!
//! `Bin(c, 1/2)` is the popcount of `c` fair bits — computed exactly from
//! random 64-bit words. `Bin(c, 2^{-q})` with `c·q ≤ 64` is one word cut
//! into `c` groups of `q` bits, counting the all-zero groups; larger `c·q`
//! takes `q` iterated halvings (the count shrinks geometrically, so expected
//! work is `O(c/64 + q)`). Above [`EXACT_LIMIT`] trials a halving switches to
//! the normal approximation, whose total-variation error at that size is far
//! below every failure probability in the paper (documented substitution,
//! DESIGN.md §3).

use rand::Rng;

/// Threshold above which `Bin(n, 1/2)` uses the normal approximation.
pub const EXACT_LIMIT: u64 = 1 << 16;

/// Sample `Bin(n, 1/2)` exactly for `n ≤ EXACT_LIMIT` (popcount of `n`
/// random bits), with a continuity-corrected normal approximation above.
pub fn bin_half<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    if n > EXACT_LIMIT {
        // N(n/2, n/4) with continuity correction, clamped to [0, n].
        let mean = n as f64 / 2.0;
        let sd = (n as f64 / 4.0).sqrt();
        let z = gaussian(rng);
        return (mean + sd * z).round().clamp(0.0, n as f64) as u64;
    }
    let mut remaining = n;
    let mut ones = 0u64;
    while remaining >= 64 {
        ones += rng.gen::<u64>().count_ones() as u64;
        remaining -= 64;
    }
    if remaining > 0 {
        let mask = (1u64 << remaining) - 1;
        ones += (rng.gen::<u64>() & mask).count_ones() as u64;
    }
    ones
}

/// `GROUP_LOW[q]`: bit `q·i` set for every group `i` of a 64-bit word cut
/// into `q`-bit groups (entry 0 unused).
const GROUP_LOW: [u64; 65] = {
    let mut table = [0u64; 65];
    let mut q = 1;
    while q <= 64 {
        let mut bit = 0;
        while bit < 64 {
            table[q] |= 1 << bit;
            bit += q;
        }
        q += 1;
    }
    table
};

/// Sample `Bin(n, 2^{-q})` exactly (up to [`bin_half`]'s normal
/// approximation above [`EXACT_LIMIT`]). When `n·q ≤ 64` one random word
/// is cut into `n` groups of `q` uniform bits and a unit is kept iff its
/// group is all zero; otherwise `q` iterated halvings.
pub fn bin_pow2<R: Rng + ?Sized>(rng: &mut R, n: u64, q: u32) -> u64 {
    if n == 0 || q == 0 {
        return n;
    }
    if n <= 64 && n * q as u64 <= 64 {
        // Branch-free SWAR count of the zero groups: adding a group's
        // low-bit mask carries into its top bit iff a low bit is set (and
        // never out of the group), so a group is zero iff its top bit is
        // clear in both that sum and the word.
        let lo = GROUP_LOW[q as usize] & (u64::MAX >> (64 - n * q as u64));
        let hi = lo << (q - 1);
        let low_bits = hi - lo;
        let x = rng.gen::<u64>();
        return (!(((x & low_bits) + low_bits) | x) & hi).count_ones() as u64;
    }
    let mut c = n;
    for _ in 0..q {
        if c == 0 {
            return 0;
        }
        c = bin_half(rng, c);
    }
    c
}

/// Standard normal via Box–Muller (only used above `EXACT_LIMIT`).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bin_half_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1000u64;
        let trials = 20_000;
        let samples: Vec<u64> = (0..trials).map(|_| bin_half(&mut rng, n)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
        assert!((var - 250.0).abs() < 25.0, "variance {var}");
    }

    #[test]
    fn bin_half_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [0u64, 1, 63, 64, 65, 1000, EXACT_LIMIT + 5] {
            for _ in 0..100 {
                assert!(bin_half(&mut rng, n) <= n);
            }
        }
        assert_eq!(bin_half(&mut rng, 0), 0);
    }

    #[test]
    fn bin_pow2_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, q) = (1 << 14, 4u32); // expect n/16 = 1024
        let trials = 5_000;
        let mean =
            (0..trials).map(|_| bin_pow2(&mut rng, n, q)).sum::<u64>() as f64 / trials as f64;
        assert!((mean - 1024.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn single_unit_rates() {
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 200_000;
        for q in [0u32, 1, 3, 6] {
            let hits = (0..trials)
                .filter(|_| bin_pow2(&mut rng, 1, q) == 1)
                .count();
            let p = hits as f64 / trials as f64;
            let expect = 0.5f64.powi(q as i32);
            assert!(
                (p - expect).abs() < 6.0 * (expect / trials as f64).sqrt() + 1e-4,
                "q={q}: rate {p} vs {expect}"
            );
        }
        // q = 0 must always sample.
        assert_eq!(bin_pow2(&mut rng, 1, 0), 1);
    }

    #[test]
    fn large_q_never_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(bin_pow2(&mut rng, 1, 130) <= 1);
            assert_eq!(bin_pow2(&mut rng, 10, 200), 0); // overwhelming odds
            assert_eq!(bin_pow2(&mut rng, 64, u32::MAX), 0);
        }
    }

    /// A generator that always returns the same word, to drive the one-word
    /// path with chosen bits.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The all-zero `q`-bit groups among the low `n` groups of `x`, one
    /// group at a time.
    fn naive_zero_groups(x: u64, n: u64, q: u32) -> u64 {
        let group = if q == 64 { u64::MAX } else { (1u64 << q) - 1 };
        (0..n)
            .filter(|&i| (x >> (i * q as u64)) & group == 0)
            .count() as u64
    }

    /// Every `(q, n)` with `1 ≤ n·q ≤ limit` that takes the one-word path.
    fn one_word_shapes(limit: u64) -> impl Iterator<Item = (u32, u64)> {
        (1..=64u32).flat_map(move |q| (1..=limit / q as u64).map(move |n| (q, n)))
    }

    #[test]
    fn one_word_draw_is_exact_for_every_small_word() {
        // Every low `n·q ≤ 16` bit pattern, under random high bits that
        // must not matter.
        let mut rng = StdRng::seed_from_u64(7);
        let mut cases = 0u64;
        for (q, n) in one_word_shapes(16) {
            let width = n * q as u64;
            for low in 0..1u64 << width {
                let x = low | rng.gen::<u64>() << width;
                assert_eq!(
                    bin_pow2(&mut Fixed(x), n, q),
                    naive_zero_groups(x, n, q),
                    "q={q} n={n} x={x:#x}"
                );
                cases += 1;
            }
        }
        assert!(cases > 300_000, "{cases} cases");
    }

    #[test]
    fn one_word_draw_is_exact_on_seeded_sweeps() {
        // Up to n·q = 64; AND-ing k random words makes zero groups common
        // even for wide groups.
        let mut rng = StdRng::seed_from_u64(8);
        for (q, n) in one_word_shapes(64) {
            for k in 1..=6 {
                for _ in 0..400 {
                    let x = (0..k).fold(u64::MAX, |x, _| x & rng.gen::<u64>());
                    assert_eq!(
                        bin_pow2(&mut Fixed(x), n, q),
                        naive_zero_groups(x, n, q),
                        "q={q} n={n} x={x:#x}"
                    );
                }
            }
            // One set bit per group: every group nonzero, and a single
            // group cleared, at each position and bit offset.
            for bit in 0..q as u64 {
                let all = (0..n).fold(0u64, |x, i| x | 1 << (i * q as u64 + bit));
                assert_eq!(bin_pow2(&mut Fixed(all), n, q), 0);
                for i in 0..n {
                    let x = all & !(1 << (i * q as u64 + bit));
                    assert_eq!(bin_pow2(&mut Fixed(x), n, q), 1, "q={q} n={n} i={i}");
                }
            }
        }
    }

    /// `P[Bin(n, 2^{-q}) = k]` for every `k ≤ n`.
    fn binomial_pmf(n: u64, q: u32) -> Vec<f64> {
        let p = 0.5f64.powi(q as i32);
        let mut pmf = vec![(1.0 - p).powi(n as i32)];
        for k in 1..=n {
            let prev = pmf[k as usize - 1];
            pmf.push(prev * (n - k + 1) as f64 / k as f64 * p / (1.0 - p));
        }
        pmf
    }

    #[test]
    fn pmf_matches_exact_binomial_across_the_one_word_boundary() {
        // n·q ∈ {q, 63, 64, 65}: one unit, the one-word path at and below
        // a full word, and the first halving shape above it.
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 100_000u64;
        for (n, q) in [
            (1, 1),
            (1, 7),
            (63, 1),
            (9, 7),
            (21, 3),
            (64, 1),
            (16, 4),
            (8, 8),
            (65, 1),
            (13, 5),
        ] {
            let pmf = binomial_pmf(n, q);
            let mut seen = vec![0u64; n as usize + 1];
            for _ in 0..trials {
                seen[bin_pow2(&mut rng, n, q) as usize] += 1;
            }
            for (k, (&got, &p)) in seen.iter().zip(&pmf).enumerate() {
                let expect = trials as f64 * p;
                let sigma = (expect * (1.0 - p)).sqrt();
                assert!(
                    (got as f64 - expect).abs() <= 5.0 * sigma + 2.0,
                    "n={n} q={q} k={k}: {got} draws vs {expect:.1} expected"
                );
            }
        }
    }

    #[test]
    fn bin_pow2_edges() {
        let mut rng = StdRng::seed_from_u64(10);
        for q in [0u32, 1, 7, 63, 64, 65, 200] {
            assert_eq!(bin_pow2(&mut rng, 0, q), 0, "n=0 q={q}");
        }
        for n in [1u64, 9, 64, 65, EXACT_LIMIT + 1, u64::MAX] {
            assert_eq!(bin_pow2(&mut rng, n, 0), n, "q=0 n={n}");
        }
        // q = 64: one unit is one whole word, kept iff the word is zero.
        assert_eq!(bin_pow2(&mut Fixed(0), 1, 64), 1);
        assert_eq!(bin_pow2(&mut Fixed(1 << 63), 1, 64), 0);
        assert_eq!(bin_pow2(&mut Fixed(1), 1, 64), 0);
        assert_eq!(bin_pow2(&mut Fixed(u64::MAX), 1, 64), 0);
        assert_eq!(bin_pow2(&mut rng, 1, 64), 0); // overwhelming odds
        assert_eq!(bin_pow2(&mut rng, 2, 64), 0); // halving path
    }

    #[test]
    fn thinning_composes() {
        // Bin(Bin(n,1/2),1/2) ~ Bin(n,1/4): compare means.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 4096u64;
        let trials = 10_000;
        let mean = (0..trials)
            .map(|_| {
                let h = bin_half(&mut rng, n);
                bin_half(&mut rng, h)
            })
            .sum::<u64>() as f64
            / trials as f64;
        assert!((mean - 1024.0).abs() < 10.0, "mean {mean}");
    }
}
