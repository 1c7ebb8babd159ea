//! Small, self-contained distribution samplers.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so the
//! handful of distributions the workspace needs (normal, lognormal, Poisson,
//! exponential, weighted discrete choice) are implemented here. All are
//! textbook algorithms chosen for correctness and determinism, not peak
//! throughput — sampling is a negligible fraction of simulation time.

use rand::Rng;

/// Standard normal draw via Box–Muller (basic form; one sample per call,
/// deterministic RNG consumption of exactly two uniforms).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal draw with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "std_dev must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Lognormal draw parameterised by *median* and shape `sigma`
/// (`ln X ~ N(ln median, sigma²)`). Medians are how workload papers quote
/// runtime distributions, so this avoids mu/median conversion mistakes.
pub fn lognormal_median<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "median must be positive");
    assert!(sigma >= 0.0, "sigma must be non-negative");
    (median.ln() + sigma * standard_normal(rng)).exp()
}

/// Exponential draw with the given rate (mean 1/rate).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Poisson draw (Knuth's product method). Suitable for the λ ≲ 500 regime
/// this workspace uses (hourly arrival intensities); switches to a
/// normal approximation above that to avoid O(λ) time and underflow.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be finite and >= 0"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 500.0 {
        // Normal approximation with continuity correction; error is far
        // below sampling noise at this size.
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Weighted discrete sampler over a fixed set of items.
///
/// Weights need not be normalised. Construction is O(n); sampling is
/// O(log n) by binary search over the cumulative weights.
#[derive(Debug, Clone)]
pub struct WeightedChoice<T: Clone> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> WeightedChoice<T> {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if `entries` is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(entries: &[(T, f64)]) -> Self {
        assert!(
            !entries.is_empty(),
            "WeightedChoice needs at least one entry"
        );
        let mut items = Vec::with_capacity(entries.len());
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for (item, w) in entries {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weights must be finite and >= 0"
            );
            acc += w;
            items.push(item.clone());
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        WeightedChoice { items, cumulative }
    }

    /// Draws one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        &self.items[idx.min(self.items.len() - 1)]
    }

    /// The items, in insertion order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, Stream};

    fn rng() -> rand::rngs::StdRng {
        stream_rng(123, Stream::Custom(99))
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn lognormal_median_is_median() {
        let mut r = rng();
        let n = 20_000;
        let below = (0..n)
            .filter(|_| lognormal_median(&mut r, 7_200.0, 1.3) < 7_200.0)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "median fraction {frac}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut r = rng();
        for _ in 0..10 {
            assert!((lognormal_median(&mut r, 100.0, 0.0) - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut r, 0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<u64> = (0..n).map(|_| poisson(&mut r, 3.5)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert!((var - 3.5).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let mut r = rng();
        let n = 5_000;
        let mean = (0..n)
            .map(|_| poisson(&mut r, 10_000.0) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10_000.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn weighted_choice_frequencies() {
        let mut r = rng();
        let wc = WeightedChoice::new(&[("a", 1.0), ("b", 3.0), ("c", 0.0)]);
        let n = 20_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(*wc.sample(&mut r)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.get("c"), None, "zero-weight item never drawn");
        let fa = counts[&"a"] as f64 / n as f64;
        assert!((fa - 0.25).abs() < 0.02, "P(a) {fa}");
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn weighted_choice_rejects_all_zero() {
        WeightedChoice::new(&[("a", 0.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn weighted_choice_rejects_empty() {
        WeightedChoice::<u8>::new(&[]);
    }
}
