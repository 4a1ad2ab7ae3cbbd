//! Order statistics over measured samples.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `v`, sorting it in place.
/// An empty sample has no percentile: `NaN`, which the report rejects.
pub fn pct(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest rank) of `v`.
pub fn median(v: &mut [f64]) -> f64 {
    pct(v, 0.5)
}

/// The arithmetic mean of `v` (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nanoseconds of `d` as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Time `reps` calls of `f` and return the median of each call's duration.
pub fn median_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            ns(t.elapsed())
        })
        .collect();
    Duration::from_nanos(median(&mut times) as u64)
}
