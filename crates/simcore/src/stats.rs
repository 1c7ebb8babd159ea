//! Online statistics: Welford mean/variance, fixed-edge histograms, and the
//! P² streaming quantile estimator.
//!
//! These back the workload characterisation (Fig. 2) and the report tables;
//! none of them allocates per sample.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean / variance / min / max (Welford).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Histogram over caller-supplied bin edges.
///
/// For edges `[e0, e1, ..., ek]` there are `k + 2` bins: an underflow bin
/// `(-inf, e0)`, the half-open bins `[e_i, e_{i+1})`, and an overflow bin
/// `[ek, +inf)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing edges.
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let bins = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Evenly spaced edges over `[lo, hi]` with `n` interior bins.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && hi > lo);
        let step = (hi - lo) / n as f64;
        Histogram::new((0..=n).map(|i| lo + step * i as f64).collect())
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let idx = self.edges.partition_point(|&e| e <= x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Count in the underflow bin `(-inf, edges[0])`.
    pub fn underflow(&self) -> u64 {
        self.counts[0]
    }

    /// Count in the overflow bin `[edges[last], +inf)`.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("histogram has bins")
    }

    /// Number of interior bins.
    pub fn bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// Bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations strictly below `x` among *bin boundaries*:
    /// the sum of all bins entirely below `x` (x must be an edge for an
    /// exact answer).
    pub fn count_below(&self, x: f64) -> u64 {
        let idx = self.edges.partition_point(|&e| e <= x);
        self.counts[..idx].iter().sum()
    }

    /// Iterates `(lo, hi, count)` over interior bins.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.edges
            .windows(2)
            .zip(&self.counts[1..self.counts.len() - 1])
            .map(|(w, &c)| (w[0], w[1], c))
    }
}

/// P² single-quantile streaming estimator (Jain & Chlamtac, 1985).
///
/// Tracks one quantile `q` in O(1) space with five markers. Used for
/// report-grade percentiles (e.g. p95 queue wait) where exactness is not
/// required.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based as in the paper).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments.
    inc: [f64; 5],
    n: u64,
}

impl P2Quantile {
    /// Estimator for quantile `q` (0 < q < 1).
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            inc: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            n: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if self.n < 5 {
            self.heights[self.n as usize] = x;
            self.n += 1;
            if self.n == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.n += 1;

        // Find cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.heights[k + 1] {
                k += 1;
            }
            k
        };

        for p in &mut self.pos[k + 1..] {
            *p += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.inc[i];
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, d);
                }
                self.pos[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.pos;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i] + d * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate (exact for n ≤ 5; `None` when empty).
    pub fn estimate(&self) -> Option<f64> {
        match self.n {
            0 => None,
            n if n < 5 => {
                let mut v: Vec<f64> = self.heights[..n as usize].to_vec();
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let rank = (self.q * (n as f64 - 1.0)).round() as usize;
                Some(v[rank])
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive unbiased variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(vec![0.0, 1.0, 2.0]);
        for x in [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 99.0] {
            h.push(x);
        }
        assert_eq!(h.underflow(), 1); // -0.5
        assert_eq!(h.overflow(), 2); // 2.0, 99.0
        assert_eq!(h.total(), 7);
        assert_eq!(h.count_below(1.0), 3);
        assert_eq!(h.count_below(2.0), 5);
    }

    #[test]
    fn histogram_linear_edges() {
        let h = Histogram::linear(0.0, 10.0, 5);
        assert_eq!(h.bins(), 5);
        assert_eq!(h.edges().len(), 6);
        assert!((h.edges()[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_edges() {
        Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn histogram_iter_bins() {
        let mut h = Histogram::new(vec![0.0, 1.0, 2.0]);
        h.push(0.5);
        h.push(1.5);
        h.push(1.7);
        let v: Vec<(f64, f64, u64)> = h.iter_bins().collect();
        assert_eq!(v, vec![(0.0, 1.0, 1), (1.0, 2.0, 2)]);
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        // Deterministic shuffled-ish sequence 0..1000.
        let mut xs: Vec<f64> = (0..1000).map(|i| ((i * 607) % 1000) as f64).collect();
        for &x in &xs {
            q.push(x);
        }
        let est = q.estimate().unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = xs[500];
        assert!(
            (est - exact).abs() < 25.0,
            "P² median {est} too far from exact {exact}"
        );
    }

    #[test]
    fn p2_small_n_is_exact() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        q.push(10.0);
        assert_eq!(q.estimate(), Some(10.0));
        q.push(20.0);
        q.push(0.0);
        // n=3 sorted [0,10,20], median = 10
        assert_eq!(q.estimate(), Some(10.0));
    }

    #[test]
    fn p2_p95_of_uniform_stream() {
        let mut q = P2Quantile::new(0.95);
        for i in 0..10_000 {
            q.push(((i * 7919) % 10_000) as f64);
        }
        let est = q.estimate().unwrap();
        assert!(
            (est - 9_500.0).abs() < 300.0,
            "P² p95 {est} too far from 9500"
        );
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn p2_rejects_invalid_quantile() {
        P2Quantile::new(1.0);
    }
}
