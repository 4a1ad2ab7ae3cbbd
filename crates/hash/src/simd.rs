//! Vectorized `F_{2^61-1}` kernels — the SIMD half of the batched hash
//! engine.
//!
//! `poly_eval4` gets its instruction-level parallelism from four
//! *interleaved scalar* Horner chains; this module moves the same chains
//! onto true vector lanes. The portable core is [`M61x4`], a 4-lane
//! `[u64; 4]` field element written so the element-wise loops autovectorize
//! (every lane op is shifts/masks/adds plus 32×32→64 multiplies — no `u128`,
//! no branches). On `x86_64` with AVX2 the same algebra runs as hand-written
//! intrinsics (`vpmuludq` schoolbook multiply, Mersenne folding in-register),
//! selected at runtime via `is_x86_feature_detected!`. The scalar fallback is
//! the pre-existing interleaved-Horner kernel
//! ([`poly_eval4`]) — always available, always the
//! reference.
//!
//! **Lane layout.** The batch kernels evaluate **8 points per call**
//! ([`KERNEL_WIDTH`]): two 4-lane groups (`x[0..4]`, `x[4..8]`) with
//! independent accumulators, so the `mul → add` latency of one vector chain
//! overlaps the other — the same trick the scalar kernel plays across four
//! chains, lifted one level up. Items map to lanes positionally; the caller
//! handles the `len % 8` scalar tail.
//!
//! **Bit-equivalence contract.** Every kernel keeps all intermediate values
//! in canonical form `[0, 2^61-1)` after each field op, exactly like
//! [`M61Elem`]. Canonical representatives are unique,
//! so *all* kernels — scalar, portable, AVX2 — are bit-identical on every
//! input; `crates/hash/tests/batch_equiv.rs` pins SIMD ≡ scalar ≡ definition.
//!
//! **Dispatch.** [`active_kernel`] resolves once per process: AVX2 when the
//! CPU has it, the scalar reference otherwise (the portable lane path is
//! opt-in — whether autovectorization beats the scalar 4-chain kernel is
//! machine-dependent, so it is benched per machine rather than presumed).
//! The `BD_SIMD` environment variable overrides the choice (`scalar`,
//! `portable`, `avx2`, `auto`); CI runs the hash/sharded/service suites
//! under `BD_SIMD=scalar` so the fallback stays tested on every push.
//! Requesting `avx2` where the CPU lacks it falls back to `portable`.

use crate::field::{poly_eval4, M61Elem, M61};
use std::sync::OnceLock;

/// Lane width of the portable vector field type [`M61x4`].
pub const LANES: usize = 4;

/// Points evaluated per batch-kernel call: two [`LANES`]-wide groups with
/// independent accumulators.
pub const KERNEL_WIDTH: usize = 8;

/// Low 29 bits — the split point of the `2^32`-limb Mersenne fold
/// (`2^29 · 2^32 = 2^61 ≡ 1`).
const MASK29: u64 = (1u64 << 29) - 1;

/// One lane's field multiply, branch-free and `u128`-free: 32-bit schoolbook
/// partial products folded with `2^61 ≡ 1`. Inputs must be canonical
/// (`< 2^61`); the output is canonical. Bit-identical to
/// [`M61Elem::mul`](crate::field::M61Elem::mul) (canonical representatives
/// are unique).
///
/// Derivation, with `a = a_hi·2^32 + a_lo` (so `a_hi < 2^29`):
/// `a·b = hh·2^64 + (lh + hl)·2^32 + ll`, and modulo `2^61 − 1`:
/// `hh·2^64 ≡ hh·2^3`, `mid·2^32 ≡ (mid mod 2^29)·2^32 + ⌊mid/2^29⌋`,
/// `ll ≡ (ll mod 2^61) + ⌊ll/2^61⌋`. The five folded terms sum below
/// `2^63`, so one more `2^61`-fold plus one conditional subtract
/// canonicalizes.
#[inline(always)]
fn mul_lane(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    let (a_lo, a_hi) = (a & 0xFFFF_FFFF, a >> 32);
    let (b_lo, b_hi) = (b & 0xFFFF_FFFF, b >> 32);
    let ll = a_lo * b_lo;
    let mid = a_lo * b_hi + a_hi * b_lo; // < 2^62, no overflow
    let hh = a_hi * b_hi; // < 2^58
    let s = (ll & M61) + (ll >> 61) + ((mid & MASK29) << 32) + (mid >> 29) + (hh << 3); // < 2^63
    let r = (s & M61) + (s >> 61); // < 2^61 + 3
    r - (M61 & ((r >= M61) as u64).wrapping_neg())
}

/// One lane's field add (canonical in, canonical out, branch-free).
#[inline(always)]
fn add_lane(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    let s = a + b; // < 2^62
    s - (M61 & ((s >= M61) as u64).wrapping_neg())
}

/// A 4-lane element of `F_{2^61-1}`: `[u64; 4]` with every lane canonical.
///
/// The lane ops are plain element-wise loops over shift/mask/add and
/// 32×32→64 multiplies, the shape LLVM's autovectorizer maps onto
/// `pmuludq`-class instructions where they exist; on any target they are
/// correct scalar code. All ops preserve canonicity, so lane values always
/// agree bit-for-bit with the equivalent [`M61Elem`] arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct M61x4(pub [u64; 4]);

#[allow(clippy::should_implement_trait)] // field ops named per the math, not std::ops
impl M61x4 {
    /// All lanes zero.
    pub const ZERO: M61x4 = M61x4([0; 4]);

    /// Broadcast one field element across the lanes.
    #[inline]
    pub fn splat(e: M61Elem) -> Self {
        M61x4([e.value(); 4])
    }

    /// Pack four field elements, one per lane.
    #[inline]
    pub fn from_elems(es: [M61Elem; 4]) -> Self {
        M61x4([es[0].value(), es[1].value(), es[2].value(), es[3].value()])
    }

    /// Unpack the lanes back into field elements.
    #[inline]
    pub fn to_elems(self) -> [M61Elem; 4] {
        self.0.map(M61Elem::from_canonical)
    }

    /// Lane-wise field addition.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        M61x4(std::array::from_fn(|i| add_lane(self.0[i], rhs.0[i])))
    }

    /// Lane-wise field multiplication (the Mersenne-folded schoolbook of
    /// `mul_lane`).
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        M61x4(std::array::from_fn(|i| mul_lane(self.0[i], rhs.0[i])))
    }

    /// Lane-wise Lemire multiply-shift range reduction,
    /// `⌊lane·range/2^61⌋` — bit-identical to
    /// [`reduce_range`](crate::kwise::reduce_range) per lane.
    #[inline]
    pub fn reduce_range(self, range: u64) -> [u64; 4] {
        std::array::from_fn(|i| ((self.0[i] as u128 * range as u128) >> 61) as u64)
    }
}

/// The batch-kernel shape: evaluate one coefficient vector at
/// [`KERNEL_WIDTH`] points. All kernels are bit-identical; they differ only
/// in how the lanes are scheduled.
pub type Kernel8 = fn(&[M61Elem], &[M61Elem; KERNEL_WIDTH]) -> [M61Elem; KERNEL_WIDTH];

/// The scalar reference kernel: two passes of the interleaved 4-chain
/// Horner ([`poly_eval4`]). This is the guaranteed fallback on every
/// target, and what `BD_SIMD=scalar` forces end to end.
pub fn poly_eval8_scalar(
    coeffs: &[M61Elem],
    x: &[M61Elem; KERNEL_WIDTH],
) -> [M61Elem; KERNEL_WIDTH] {
    let a = poly_eval4(coeffs, [x[0], x[1], x[2], x[3]]);
    let b = poly_eval4(coeffs, [x[4], x[5], x[6], x[7]]);
    [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]
}

/// The portable lane kernel: two [`M61x4`] Horner chains with independent
/// accumulators, written to autovectorize.
pub fn poly_eval8_portable(
    coeffs: &[M61Elem],
    x: &[M61Elem; KERNEL_WIDTH],
) -> [M61Elem; KERNEL_WIDTH] {
    let x0 = M61x4::from_elems([x[0], x[1], x[2], x[3]]);
    let x1 = M61x4::from_elems([x[4], x[5], x[6], x[7]]);
    let mut a0 = M61x4::ZERO;
    let mut a1 = M61x4::ZERO;
    for &c in coeffs.iter().rev() {
        let cv = M61x4::splat(c);
        a0 = a0.mul(x0).add(cv);
        a1 = a1.mul(x1).add(cv);
    }
    let (e0, e1) = (a0.to_elems(), a1.to_elems());
    [e0[0], e0[1], e0[2], e0[3], e1[0], e1[1], e1[2], e1[3]]
}

/// Whether the running CPU has the AVX2 fast path.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX2 kernel: the same two-chain Horner as the portable path, as
/// hand-written 256-bit intrinsics (4 field lanes per register,
/// `vpmuludq` schoolbook multiply, Mersenne folds in-register).
///
/// # Panics
/// Panics if the CPU lacks AVX2 — guard with [`avx2_available`] (the
/// dispatcher does; this symbol exists so tests and benches can pin the
/// kernel directly).
#[cfg(target_arch = "x86_64")]
pub fn poly_eval8_avx2(coeffs: &[M61Elem], x: &[M61Elem; KERNEL_WIDTH]) -> [M61Elem; KERNEL_WIDTH] {
    assert!(avx2_available(), "poly_eval8_avx2 requires AVX2");
    // Safety: feature presence checked above; the intrinsics have no other
    // requirements (unaligned loads/stores are used throughout).
    unsafe { avx2::poly_eval8(coeffs, x) }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{M61Elem, KERNEL_WIDTH, M61, MASK29};
    use std::arch::x86_64::*;

    /// Canonicalize `r < 2^62` by one conditional subtract of `M61`.
    /// Values stay below `2^63`, so the signed 64-bit compare is exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn canon(r: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        let ge = _mm256_cmpgt_epi64(r, m61m1); // r > M61-1  ⇔  r ≥ M61
        _mm256_sub_epi64(r, _mm256_and_si256(ge, m61))
    }

    /// Lane-wise canonical field multiply — the [`super::mul_lane`]
    /// schoolbook, four lanes per register.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul4(a: __m256i, b: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        let mask29 = _mm256_set1_epi64x(MASK29 as i64);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b); // a_lo · b_lo
        let lh = _mm256_mul_epu32(a, b_hi); // a_lo · b_hi
        let hl = _mm256_mul_epu32(a_hi, b); // a_hi · b_lo
        let hh = _mm256_mul_epu32(a_hi, b_hi); // a_hi · b_hi
        let mid = _mm256_add_epi64(lh, hl); // < 2^62
        let s = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_and_si256(ll, m61), _mm256_srli_epi64(ll, 61)),
            _mm256_add_epi64(
                _mm256_add_epi64(
                    _mm256_slli_epi64(_mm256_and_si256(mid, mask29), 32),
                    _mm256_srli_epi64(mid, 29),
                ),
                _mm256_slli_epi64(hh, 3),
            ),
        ); // < 2^63
        let r = _mm256_add_epi64(_mm256_and_si256(s, m61), _mm256_srli_epi64(s, 61));
        canon(r, m61, m61m1)
    }

    /// Lane-wise canonical field add.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add4(a: __m256i, b: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        canon(_mm256_add_epi64(a, b), m61, m61m1)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn poly_eval8(
        coeffs: &[M61Elem],
        x: &[M61Elem; KERNEL_WIDTH],
    ) -> [M61Elem; KERNEL_WIDTH] {
        let m61 = _mm256_set1_epi64x(M61 as i64);
        let m61m1 = _mm256_set1_epi64x((M61 - 1) as i64);
        let xs: [u64; KERNEL_WIDTH] = std::array::from_fn(|i| x[i].value());
        let x0 = _mm256_loadu_si256(xs.as_ptr().cast());
        let x1 = _mm256_loadu_si256(xs.as_ptr().add(4).cast());
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        for &c in coeffs.iter().rev() {
            let cv = _mm256_set1_epi64x(c.value() as i64);
            a0 = add4(mul4(a0, x0, m61, m61m1), cv, m61, m61m1);
            a1 = add4(mul4(a1, x1, m61, m61m1), cv, m61, m61m1);
        }
        let mut out = [0u64; KERNEL_WIDTH];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), a0);
        _mm256_storeu_si256(out.as_mut_ptr().add(4).cast(), a1);
        out.map(M61Elem::from_canonical)
    }
}

/// The dispatch tiers, in the order [`active_level`] resolves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The interleaved-scalar reference kernel (`poly_eval4` twice).
    Scalar,
    /// The [`M61x4`] lane kernel (autovectorized where the target allows).
    Portable,
    /// The hand-written AVX2 intrinsics kernel (`x86_64` only).
    Avx2,
}

impl SimdLevel {
    /// The level's name — the `BD_SIMD` value that forces it.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// The kernel this level runs.
    pub fn kernel(self) -> Kernel8 {
        match self {
            SimdLevel::Scalar => poly_eval8_scalar,
            SimdLevel::Portable => poly_eval8_portable,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => poly_eval8_avx2,
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => poly_eval8_portable,
        }
    }
}

/// Resolve a `BD_SIMD` request string against what the CPU offers.
/// Unknown values and `auto` pick the default: AVX2 when detected, the
/// scalar reference otherwise. `avx2` without the CPU feature degrades to
/// `portable` (never silently to an unrequested intrinsics path).
fn resolve_level(request: Option<&str>, avx2: bool) -> SimdLevel {
    match request.map(str::trim) {
        Some("scalar") | Some("off") | Some("0") => SimdLevel::Scalar,
        Some("portable") => SimdLevel::Portable,
        Some("avx2") => {
            if avx2 {
                SimdLevel::Avx2
            } else {
                SimdLevel::Portable
            }
        }
        _ => {
            if avx2 {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
    }
}

static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();

/// The dispatch level every batched hash path in the process uses, resolved
/// once from the `BD_SIMD` environment variable and runtime CPU detection.
pub fn active_level() -> SimdLevel {
    *ACTIVE
        .get_or_init(|| resolve_level(std::env::var("BD_SIMD").ok().as_deref(), avx2_available()))
}

/// The active batch kernel ([`active_level`]'s). Callers hoist this fn
/// pointer out of their chunk loops; one indirect call covers
/// [`KERNEL_WIDTH`] evaluations.
#[inline]
pub fn active_kernel() -> Kernel8 {
    active_level().kernel()
}

/// Every kernel available on this machine, named — the sweep surface for
/// the equivalence tests and the per-level bench rows.
pub fn kernels() -> Vec<(&'static str, Kernel8)> {
    #[allow(unused_mut)]
    let mut v: Vec<(&'static str, Kernel8)> = vec![
        ("scalar", poly_eval8_scalar),
        ("portable", poly_eval8_portable),
    ];
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        v.push(("avx2", poly_eval8_avx2));
    }
    v
}

/// A short human-readable summary of the vector capabilities the dispatcher
/// saw (recorded in bench context lines so cross-machine comparisons of
/// SIMD rows are interpretable).
pub fn detected_features() -> String {
    format!(
        "{}:avx2={}",
        std::env::consts::ARCH,
        if avx2_available() { "yes" } else { "no" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::poly_eval;

    /// Adversarial lane values: canonical extremes and structured bits.
    fn lane_sweep() -> Vec<u64> {
        let mut v: Vec<u64> = vec![0, 1, 2, 3, M61 - 1, M61 - 2, M61 / 2, MASK29, MASK29 + 1];
        v.extend((0..61).map(|b| (1u64 << b) % M61));
        v.extend((0..32u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % M61));
        v
    }

    #[test]
    fn lane_mul_matches_field_mul() {
        for &a in &lane_sweep() {
            for &b in &lane_sweep() {
                let want = M61Elem::from_canonical(a)
                    .mul(M61Elem::from_canonical(b))
                    .value();
                assert_eq!(mul_lane(a, b), want, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn lane_add_matches_field_add() {
        for &a in &lane_sweep() {
            for &b in &lane_sweep() {
                let want = M61Elem::from_canonical(a)
                    .add(M61Elem::from_canonical(b))
                    .value();
                assert_eq!(add_lane(a, b), want, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn m61x4_ops_match_scalar_lanes() {
        let s = lane_sweep();
        for w in s.windows(8).step_by(3) {
            let a = M61x4([w[0], w[1], w[2], w[3]]);
            let b = M61x4([w[4], w[5], w[6], w[7]]);
            let sum = a.add(b);
            let prod = a.mul(b);
            for i in 0..4 {
                assert_eq!(sum.0[i], add_lane(w[i], w[4 + i]));
                assert_eq!(prod.0[i], mul_lane(w[i], w[4 + i]));
            }
            let red = a.reduce_range(480);
            for i in 0..4 {
                assert_eq!(red[i], crate::kwise::reduce_range(w[i], 480));
                assert!(red[i] < 480);
            }
        }
    }

    #[test]
    fn every_kernel_matches_scalar_horner() {
        let coeffs: Vec<M61Elem> = (1..=8u64).map(|c| M61Elem::new(c * 104_729)).collect();
        let s = lane_sweep();
        for (name, kernel) in kernels() {
            for w in s.windows(8) {
                let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::from_canonical(w[i]));
                let got = kernel(&coeffs, &x);
                for (i, &xi) in x.iter().enumerate() {
                    assert_eq!(got[i], poly_eval(&coeffs, xi), "kernel={name} lane={i}");
                }
            }
        }
    }

    #[test]
    fn degenerate_polynomials() {
        // k = 1 (constant) and empty coefficient vectors through every kernel.
        let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::new(i as u64 * 3 + 1));
        for (name, kernel) in kernels() {
            let c = M61Elem::new(42);
            for out in kernel(&[c], &x) {
                assert_eq!(out, c, "kernel={name}");
            }
            for out in kernel(&[], &x) {
                assert_eq!(out, M61Elem::ZERO, "kernel={name}");
            }
        }
    }

    #[test]
    fn level_resolution_honors_env_and_cpu() {
        use SimdLevel::*;
        assert_eq!(resolve_level(None, true), Avx2);
        assert_eq!(resolve_level(None, false), Scalar);
        assert_eq!(resolve_level(Some("auto"), true), Avx2);
        assert_eq!(resolve_level(Some("scalar"), true), Scalar);
        assert_eq!(resolve_level(Some("off"), true), Scalar);
        assert_eq!(resolve_level(Some("portable"), true), Portable);
        assert_eq!(resolve_level(Some("avx2"), true), Avx2);
        // avx2 requested but absent: portable, never a missing intrinsic.
        assert_eq!(resolve_level(Some("avx2"), false), Portable);
        assert_eq!(resolve_level(Some("nonsense"), false), Scalar);
    }

    #[test]
    fn active_kernel_is_consistent_with_level() {
        // Whatever the process-level dispatch picked, the kernel it hands
        // out is the level's own and is bit-identical to the reference.
        let level = active_level();
        let kernel = active_kernel();
        let coeffs: Vec<M61Elem> = (1..=4u64).map(|c| M61Elem::new(c * 7919)).collect();
        let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::new(i as u64 * 999_983));
        assert_eq!(kernel(&coeffs, &x), poly_eval8_scalar(&coeffs, &x));
        assert!(!level.name().is_empty());
        assert!(detected_features().contains("avx2="));
    }
}
