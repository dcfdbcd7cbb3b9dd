//! Welford's online algorithm for running mean and variance.
//!
//! The paper's exec-time cache ("Optimization 2", §4.2) replaces the full
//! history of observed exec-times with a running mean/variance plus the most
//! recent observation, shrinking each hash-table entry to four values. This
//! module provides that running statistic.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance accumulator.
///
/// Tracks `count`, `mean`, and the sum of squared deviations `m2`
/// ([Welford 1962]). Population and sample variance are both exposed; the
/// cache uses the population variance since it describes exactly the
/// observations it has seen.
///
/// Its serde image is part of the exec-time cache's, which a checkpoint
/// test in the facade crate round-trips through JSON.
///
/// ```
/// use stage_metrics::Welford;
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 4);
/// assert!((w.mean() - 2.5).abs() < 1e-12);
/// assert!((w.variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an accumulator seeded with a single observation.
    pub fn with_first(x: f64) -> Self {
        let mut w = Self::new();
        w.push(x);
        w
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Reconstructs an accumulator from its raw state `(count, mean, m2)` —
    /// the artefact-store decode path. The fields are restored bit-for-bit;
    /// no re-derivation happens, so a round trip through
    /// [`Welford::m2`]/[`Welford::from_parts`] is exact.
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        Self { count, mean, m2 }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw sum of squared deviations (the `m2` state), for exact
    /// serialization alongside [`Welford::count`] and [`Welford::mean`].
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`m2 / n`); `0.0` when fewer than one observation.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford / Chan).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let w = Welford::with_first(7.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 7.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn matches_naive_formulas() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        xs.iter().for_each(|&x| w.push(x));
        let (mean, var) = naive_mean_var(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_two_halves_equals_whole() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 50.0).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = Welford::new();
        let mut right = Welford::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::with_first(2.0);
        w.push(4.0);
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn stable_under_large_offsets() {
        // Classic catastrophic-cancellation scenario for the naive sum of
        // squares formula; Welford must keep the small variance exact-ish.
        let offset = 1e9;
        let mut w = Welford::new();
        for x in [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            w.push(x);
        }
        assert!((w.mean() - (offset + 10.0)).abs() < 1e-3);
        assert!((w.variance() - 22.5).abs() < 1e-3, "var={}", w.variance());
    }

    proptest! {
        #[test]
        fn prop_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut w = Welford::new();
            xs.iter().for_each(|&x| w.push(x));
            let (mean, var) = naive_mean_var(&xs);
            prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
            prop_assert!(w.variance() >= -1e-9);
        }

        #[test]
        fn prop_merge_associative_with_split(
            xs in proptest::collection::vec(-1e4f64..1e4, 2..100),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
            let mut whole = Welford::new();
            xs.iter().for_each(|&x| whole.push(x));
            let mut a = Welford::new();
            let mut b = Welford::new();
            xs[..split].iter().for_each(|&x| a.push(x));
            xs[split..].iter().for_each(|&x| b.push(x));
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
            prop_assert!((a.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance().abs()));
        }
    }
}
