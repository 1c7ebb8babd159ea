//! Exact Poisson tail computations.
//!
//! The spare-server rule needs the smallest `n` with
//! `P(Poisson(λ) > n) ≤ ε` (Section IV sets ε = 0.05). Probabilities are
//! accumulated with a numerically careful recurrence (terms never over- or
//! under-flow for the λ ≲ 10⁴ regime the controller operates in).

/// `P(Poisson(lambda) ≤ n)` for `n = 0, 1, 2, …`: the running sum of the
/// pmf terms, clamped to 1. Terms follow the recurrence
/// `p_{k+1} = p_k · λ/(k+1)` from `p_0 = e^{-λ}`. For large λ, `e^{-λ}`
/// underflows, so the terms are carried in log space until they become
/// representable. The sums are monotone in `n`.
fn prefix_cdfs(lambda: f64) -> impl Iterator<Item = f64> {
    let log_lambda = lambda.ln();
    let mut log_p = -lambda; // ln p_0
    let mut acc = 0.0f64;
    (0u64..).map(move |k| {
        if k > 0 {
            log_p += log_lambda - (k as f64).ln();
        }
        acc += log_p.exp();
        acc.min(1.0)
    })
}

/// `P(Poisson(lambda) ≤ n)`.
pub fn cdf(lambda: f64, n: u64) -> f64 {
    assert!(lambda >= 0.0 && lambda.is_finite());
    if lambda == 0.0 {
        return 1.0;
    }
    let mut last = 0.0;
    for (_, c) in (0..=n).zip(prefix_cdfs(lambda)) {
        if c >= 1.0 {
            return 1.0;
        }
        last = c;
    }
    last
}

/// `P(Poisson(lambda) > n)`.
pub fn sf(lambda: f64, n: u64) -> f64 {
    (1.0 - cdf(lambda, n)).max(0.0)
}

/// The smallest `n` with `P(Poisson(lambda) > n) ≤ epsilon` — the paper's
/// `n_arrival` (Section IV with ε = 0.05).
///
/// ```
/// use dvmp_forecast::poisson::{sf, upper_quantile};
///
/// // Expecting 41 arrivals this hour, provision so overflow risk ≤ 5 %:
/// let n = upper_quantile(41.0, 0.05);
/// assert!(sf(41.0, n) <= 0.05);
/// assert!(n > 41, "headroom above the mean");
/// ```
pub fn upper_quantile(lambda: f64, epsilon: f64) -> u64 {
    assert!(
        (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
        "epsilon must be in (0,1)"
    );
    assert!(lambda >= 0.0 && lambda.is_finite());
    if lambda == 0.0 {
        return 0;
    }
    // One pass over the prefix sums `cdf` accumulates: they are monotone,
    // so the first `n` whose tail is within ε is the smallest.
    (0u64..)
        .zip(prefix_cdfs(lambda))
        .find(|&(_, c)| (1.0 - c).max(0.0) <= epsilon)
        .map(|(n, _)| n)
        .expect("the prefix sums reach 1 - ε")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        // Poisson(1): P(X<=0)=e^-1≈0.3679, P(X<=1)=2e^-1≈0.7358,
        // P(X<=2)=2.5e^-1≈0.9197.
        assert!((cdf(1.0, 0) - 0.367_879_441).abs() < 1e-9);
        assert!((cdf(1.0, 1) - 0.735_758_882).abs() < 1e-9);
        assert!((cdf(1.0, 2) - 0.919_698_603).abs() < 1e-9);
    }

    #[test]
    fn cdf_zero_lambda() {
        assert_eq!(cdf(0.0, 0), 1.0);
        assert_eq!(sf(0.0, 0), 0.0);
    }

    #[test]
    fn cdf_is_monotone_in_n() {
        let mut last = 0.0;
        for n in 0..40 {
            let c = cdf(12.5, n);
            assert!(c >= last);
            last = c;
        }
        assert!(last > 0.999999);
    }

    #[test]
    fn cdf_handles_large_lambda_without_underflow() {
        // e^-900 underflows f64; the log-space recurrence must survive.
        let c = cdf(900.0, 900);
        assert!((0.4..0.6).contains(&c), "median of Poisson(900): {c}");
        assert!(cdf(900.0, 1_100) > 0.999999);
        assert!(cdf(900.0, 700) < 1e-6);
    }

    #[test]
    fn quantile_bounds_the_tail() {
        for &lambda in &[0.3, 1.0, 5.0, 41.0, 300.0] {
            let n = upper_quantile(lambda, 0.05);
            assert!(sf(lambda, n) <= 0.05, "λ={lambda}");
            if n > 0 {
                assert!(sf(lambda, n - 1) > 0.05, "λ={lambda}: n={n} not minimal");
            }
        }
    }

    #[test]
    fn quantile_grows_with_lambda() {
        let q5 = upper_quantile(5.0, 0.05);
        let q50 = upper_quantile(50.0, 0.05);
        assert!(q50 > q5);
        // ~ λ + 1.645 √λ for large λ.
        let approx = 50.0 + 1.645 * 50.0_f64.sqrt();
        assert!(
            (q50 as f64 - approx).abs() < 4.0,
            "q50={q50}, approx={approx}"
        );
    }

    #[test]
    fn quantile_of_zero_lambda_is_zero() {
        assert_eq!(upper_quantile(0.0, 0.05), 0);
    }

    #[test]
    fn tighter_epsilon_needs_more_headroom() {
        assert!(upper_quantile(40.0, 0.01) > upper_quantile(40.0, 0.20));
    }

    /// The smallest `n` with `sf ≤ ε`, found by calling `sf` at every
    /// `n` from 0 — the definition `upper_quantile` must reproduce.
    fn brute_quantile(lambda: f64, epsilon: f64) -> u64 {
        (0u64..).find(|&n| sf(lambda, n) <= epsilon).unwrap()
    }

    proptest::proptest! {
        // The scan is quadratic in λ: a few dozen cases keep it quick.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn quantile_matches_a_brute_force_scan(
            lambda in 0.0f64..5_000.0,
            eps_idx in 0usize..5,
        ) {
            let epsilon = [0.001, 0.01, 0.05, 0.2, 0.5][eps_idx];
            proptest::prop_assert_eq!(
                upper_quantile(lambda, epsilon),
                brute_quantile(lambda, epsilon),
                "λ={} ε={}", lambda, epsilon
            );
        }
    }

    #[test]
    fn quantile_matches_brute_force_at_the_edges() {
        for &lambda in &[1e-9, 0.05, 0.3, 1.0, 41.0, 900.0, 4_999.5] {
            for &epsilon in &[1e-6, 0.05, 0.999] {
                assert_eq!(
                    upper_quantile(lambda, epsilon),
                    brute_quantile(lambda, epsilon),
                    "λ={lambda} ε={epsilon}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_invalid_epsilon() {
        upper_quantile(1.0, 0.0);
    }
}
