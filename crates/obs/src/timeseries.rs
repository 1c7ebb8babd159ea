//! Bounded-memory time-series telemetry (DESIGN.md §13).
//!
//! An RRD-style multi-resolution store: every [`TimeSeriesStore::sample`]
//! call appends one point per channel to a fixed-capacity raw ring, and
//! deterministic consolidation folds every [`CONSOLIDATION`] raw samples
//! into a 10× tier and every `CONSOLIDATION²` into a 100× tier (mean and
//! max per fold, accumulated straight from the raw values so the
//! consolidated mean of `n` samples is exactly their sequential-sum mean).
//! All three tiers are rings of the same capacity, so memory is bounded by
//! construction — a 100k-PM week samples hourly into the same few hundred
//! kilobytes as a toy run — and old raw detail degrades into coarse history
//! instead of disappearing.
//!
//! The store is plain data fed by its owner (the simulation recorder): it
//! never reads clocks, globals or fleet state itself, so sampling order is
//! deterministic and the store can never perturb a simulation result.
//!
//! The module also carries the two export surfaces the store feeds:
//! quantile extraction from the profiler's log2-ns histograms
//! ([`log2_bucket_quantile`]) and the OpenMetrics text encoder
//! ([`OpenMetricsEncoder`], [`scrape_global`]) behind the
//! `dvmp-cli --metrics-out` snapshot.

#[cfg(test)]
use crate::profile::PROFILE_BUCKETS;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;

thread_local! {
    /// Wall nanoseconds the calling thread spent inside the recorder's
    /// telemetry-sampling hooks. Self-metered by the sampler and read
    /// only by the overhead bench, which models the sampling cost from it
    /// the way the disabled-site gate models the tracing-off cost
    /// (sub-percent effects sit below the wall-clock noise floor of
    /// shared CI hosts). Never serialized anywhere, so same-seed reports
    /// stay bit-identical.
    static SAMPLING_NS: Cell<u64> = const { Cell::new(0) };
}

/// Credits `ns` of wall time to the telemetry sampling self-meter.
pub fn add_sampling_ns(ns: u64) {
    SAMPLING_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Cumulative wall nanoseconds the calling thread spent in telemetry
/// sampling hooks.
pub fn sampling_ns() -> u64 {
    SAMPLING_NS.with(Cell::get)
}

/// Raw samples folded into one point of the next-coarser tier.
pub const CONSOLIDATION: usize = 10;

/// Default ring capacity of each tier, in points. 360 raw points cover
/// 15 days of hourly control intervals before the first eviction; the
/// 10× tier then holds 150 days and the 100× tier ~4 years.
pub const DEFAULT_TIER_CAPACITY: usize = 360;

/// One resolution ring: a shared time column plus per-channel mean/max
/// columns, evicting oldest-first at `cap` points.
#[derive(Debug, Clone)]
struct Tier {
    cap: usize,
    /// Raw samples per point (1, 10 or 100).
    scale: u64,
    /// Sample time of each point (fold end time), whole seconds.
    times: VecDeque<u64>,
    /// `mean[channel][point]`; for the raw tier the sample value itself.
    mean: Vec<VecDeque<f64>>,
    /// `max[channel][point]`; empty for the raw tier (mean == max).
    max: Vec<VecDeque<f64>>,
}

impl Tier {
    fn new(channels: usize, cap: usize, scale: u64, keep_max: bool) -> Tier {
        Tier {
            cap,
            scale,
            times: VecDeque::new(),
            mean: (0..channels).map(|_| VecDeque::new()).collect(),
            max: if keep_max {
                (0..channels).map(|_| VecDeque::new()).collect()
            } else {
                Vec::new()
            },
        }
    }

    fn push(&mut self, t_s: u64, means: impl Iterator<Item = f64>, maxes: &[f64]) {
        if self.times.len() == self.cap {
            self.times.pop_front();
            for col in self.mean.iter_mut().chain(self.max.iter_mut()) {
                col.pop_front();
            }
        }
        self.times.push_back(t_s);
        for (col, v) in self.mean.iter_mut().zip(means) {
            col.push_back(v);
        }
        for (col, &v) in self.max.iter_mut().zip(maxes) {
            col.push_back(v);
        }
    }

    fn freeze(&self) -> TierSeries {
        let col =
            |cols: &[VecDeque<f64>]| cols.iter().map(|c| c.iter().copied().collect()).collect();
        TierSeries {
            scale: self.scale,
            t_s: self.times.iter().copied().collect(),
            mean: col(&self.mean),
            max: col(&self.max),
        }
    }
}

/// Per-fold accumulator: running sum and max of the raw values since the
/// last consolidation boundary.
#[derive(Debug, Clone)]
struct Fold {
    count: usize,
    sum: Vec<f64>,
    max: Vec<f64>,
}

impl Fold {
    fn new(channels: usize) -> Fold {
        Fold {
            count: 0,
            sum: vec![0.0; channels],
            max: vec![f64::NEG_INFINITY; channels],
        }
    }

    fn accumulate(&mut self, values: &[f64]) {
        self.count += 1;
        for (i, &v) in values.iter().enumerate() {
            self.sum[i] += v;
            self.max[i] = self.max[i].max(v);
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.sum.iter_mut().for_each(|s| *s = 0.0);
        self.max.iter_mut().for_each(|m| *m = f64::NEG_INFINITY);
    }
}

/// The columnar multi-resolution store (see module docs).
#[derive(Debug, Clone)]
pub struct TimeSeriesStore {
    names: Vec<String>,
    raw: Tier,
    mid: Tier,
    coarse: Tier,
    fold10: Fold,
    fold100: Fold,
    samples: u64,
}

impl TimeSeriesStore {
    /// A store over the given channels with the default tier capacity.
    pub fn new(names: Vec<String>) -> TimeSeriesStore {
        TimeSeriesStore::with_capacity(names, DEFAULT_TIER_CAPACITY)
    }

    /// A store whose three tiers each hold at most `cap` points.
    pub fn with_capacity(names: Vec<String>, cap: usize) -> TimeSeriesStore {
        assert!(cap > 0, "tier capacity must be positive");
        let n = names.len();
        TimeSeriesStore {
            names,
            raw: Tier::new(n, cap, 1, false),
            mid: Tier::new(n, cap, CONSOLIDATION as u64, true),
            coarse: Tier::new(n, cap, (CONSOLIDATION * CONSOLIDATION) as u64, true),
            fold10: Fold::new(n),
            fold100: Fold::new(n),
            samples: 0,
        }
    }

    /// Channel names, in column order.
    pub fn channels(&self) -> &[String] {
        &self.names
    }

    /// Total samples ever pushed (monotone; unaffected by ring eviction).
    pub fn samples_seen(&self) -> u64 {
        self.samples
    }

    /// Appends one sample: `values[i]` is channel `i` at time `t_s`.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the channel count.
    pub fn sample(&mut self, t_s: u64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "sample width must match the channel count"
        );
        self.samples += 1;
        self.raw.push(t_s, values.iter().copied(), &[]);
        self.fold10.accumulate(values);
        self.fold100.accumulate(values);
        // Each fold flushes straight from its accumulators: no per-sample
        // buffers once the rings are full.
        for (fold, tier) in [
            (&mut self.fold10, &mut self.mid),
            (&mut self.fold100, &mut self.coarse),
        ] {
            if fold.count as u64 == tier.scale {
                let n = fold.count as f64;
                tier.push(t_s, fold.sum.iter().map(|s| s / n), &fold.max);
                fold.reset();
            }
        }
    }

    /// Upper bound on the store's heap footprint, in bytes. Constant once
    /// every tier ring has filled — the bounded-memory invariant.
    pub fn approx_bytes(&self) -> usize {
        let point = std::mem::size_of::<f64>();
        let tier_bytes = |t: &Tier| {
            t.times.capacity() * std::mem::size_of::<u64>()
                + t.mean
                    .iter()
                    .chain(t.max.iter())
                    .map(|c| c.capacity() * point)
                    .sum::<usize>()
        };
        tier_bytes(&self.raw) + tier_bytes(&self.mid) + tier_bytes(&self.coarse)
    }

    /// Freezes the store into its serializable report form.
    pub fn report(&self) -> TimeSeriesReport {
        TimeSeriesReport {
            channels: self.names.clone(),
            samples_seen: self.samples,
            tier_capacity: self.raw.cap as u64,
            tiers: vec![self.raw.freeze(), self.mid.freeze(), self.coarse.freeze()],
        }
    }
}

/// Serialized form of one resolution tier: `mean[channel][point]` aligned
/// with `t_s`. The raw tier (`scale == 1`) leaves `max` empty — a raw
/// point's max is its value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TierSeries {
    /// Raw samples consolidated into each point (1, 10 or 100).
    pub scale: u64,
    /// Sample/fold-end times, whole seconds, oldest first.
    pub t_s: Vec<u64>,
    /// Per-channel means (the values themselves at `scale == 1`).
    pub mean: Vec<Vec<f64>>,
    /// Per-channel fold maxima; empty at `scale == 1`.
    pub max: Vec<Vec<f64>>,
}

/// The `timeseries` section of a `RunReport` (schema v7).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesReport {
    /// Channel names, in column order.
    pub channels: Vec<String>,
    /// Samples pushed over the run (may exceed retained raw points).
    pub samples_seen: u64,
    /// Ring capacity of each tier, in points.
    pub tier_capacity: u64,
    /// Raw, 10× and 100× tiers, in that order.
    pub tiers: Vec<TierSeries>,
}

impl TimeSeriesReport {
    /// Final raw value of channel `name`, if sampled.
    pub fn last_value(&self, name: &str) -> Option<f64> {
        let idx = self.channels.iter().position(|c| c == name)?;
        self.tiers
            .first()
            .and_then(|raw| raw.mean.get(idx))
            .and_then(|col| col.last().copied())
    }

    /// Retained points summed over every tier and channel.
    pub fn point_count(&self) -> usize {
        self.tiers
            .iter()
            .map(|t| t.t_s.len() * self.channels.len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Quantile extraction from log2-ns histograms.
// ---------------------------------------------------------------------------

/// Quantile estimate from a log2 histogram (`buckets[i]` counts samples in
/// `[2^i, 2^{i+1})`, as produced by the phase profiler). Returns the
/// geometric midpoint `1.5 · 2^i` of the bucket holding the `q`-quantile
/// rank, so the estimate is within a factor of 2 of the true sample
/// quantile (the property test in this module pins that bound). `None`
/// when the histogram is empty or `q` is outside `(0, 1]`.
pub fn log2_bucket_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(if i == 0 {
                1.0
            } else {
                1.5 * (1u64 << i) as f64
            });
        }
    }
    unreachable!("cumulative count reaches total")
}

/// The four latency quantiles the telemetry channels track.
pub const LATENCY_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

// ---------------------------------------------------------------------------
// OpenMetrics text encoder.
// ---------------------------------------------------------------------------

/// Builder for the OpenMetrics text exposition format (the Prometheus
/// scrape format): one `# TYPE`/`# HELP` header per family, one sample
/// line per value, `# EOF` terminator from [`OpenMetricsEncoder::finish`].
#[derive(Debug, Default)]
pub struct OpenMetricsEncoder {
    out: String,
}

impl OpenMetricsEncoder {
    /// An empty exposition.
    pub fn new() -> OpenMetricsEncoder {
        OpenMetricsEncoder::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == ':'),
            "metric name {name:?} must be lower_snake_case"
        );
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        if !help.is_empty() {
            let _ = writeln!(self.out, "# HELP {name} {}", help.replace('\n', " "));
        }
    }

    /// A monotone counter family with one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        let _ = writeln!(self.out, "{name}_total {value}");
    }

    /// A gauge family with one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        let _ = writeln!(self.out, "{name} {}", fmt_f64(value));
    }

    /// A histogram family from a log2-ns bucket array: cumulative
    /// `_bucket{le="..."}` lines (upper bounds in seconds), `_count` and
    /// `_sum` from the given totals.
    pub fn histogram_log2_ns(&mut self, name: &str, help: &str, buckets: &[u64], total_ns: u64) {
        self.header(name, "histogram", help);
        let mut cumulative = 0u64;
        for (i, &count) in buckets.iter().enumerate() {
            cumulative += count;
            if count == 0 && i + 1 != buckets.len() {
                continue; // keep the exposition compact; cumulative stays exact
            }
            let le = (1u64 << (i + 1).min(63)) as f64 * 1e-9;
            let _ = writeln!(
                self.out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_f64(le)
            );
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(self.out, "{name}_count {cumulative}");
        let _ = writeln!(self.out, "{name}_sum {}", fmt_f64(total_ns as f64 * 1e-9));
    }

    /// Terminates the exposition with `# EOF` and returns the text.
    pub fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

/// OpenMetrics floats: plain decimal, no exponent for common magnitudes,
/// and never `NaN`-by-accident formatting surprises.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // 3 -> "3.0": unambiguous float sample
    } else {
        format!("{v}")
    }
}

/// Structural lint for an OpenMetrics exposition: every line is a valid
/// comment or sample, `# TYPE` precedes its family's samples, histogram
/// buckets are cumulative, and the text ends with exactly one `# EOF`.
/// Used by the format test and CI's snapshot lint.
pub fn lint_openmetrics(text: &str) -> Result<(), String> {
    if !text.ends_with("# EOF\n") {
        return Err("exposition must end with '# EOF\\n'".into());
    }
    let mut typed: Vec<String> = Vec::new();
    let mut last_bucket: Option<(String, u64)> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            return Err(format!("line {ln}: empty line in exposition"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                continue;
            }
            let mut words = rest.splitn(3, ' ');
            let keyword = words.next().unwrap_or("");
            let name = words.next().unwrap_or("");
            if !matches!(keyword, "TYPE" | "HELP" | "UNIT") {
                return Err(format!("line {ln}: unknown comment keyword {keyword:?}"));
            }
            if name.is_empty() {
                return Err(format!("line {ln}: {keyword} without a metric name"));
            }
            if keyword == "TYPE" {
                typed.push(name.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: sample without a value"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: unparseable sample value {value:?}"));
        }
        let name = series.split(['{', ' ']).next().unwrap_or("");
        let family = name
            .strip_suffix("_total")
            .or_else(|| name.strip_suffix("_bucket"))
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_sum"))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == family) {
            return Err(format!("line {ln}: sample {name:?} precedes its # TYPE"));
        }
        if name.ends_with("_bucket") {
            let cum = value
                .parse::<f64>()
                .map_err(|_| format!("line {ln}: bad bucket count"))? as u64;
            if let Some((fam, prev)) = &last_bucket {
                if fam == family && cum < *prev {
                    return Err(format!("line {ln}: histogram buckets not cumulative"));
                }
            }
            last_bucket = Some((family.to_string(), cum));
        } else {
            last_bucket = None;
        }
    }
    Ok(())
}

/// One OpenMetrics scrape of the calling thread's obs state: gauges,
/// counter bank and phase histograms (what `--metrics-out` writes).
pub fn scrape_global() -> String {
    let mut enc = OpenMetricsEncoder::new();
    enc.gauge(
        "dvmp_sim_time_seconds",
        "Simulation-time gauge at the last event dispatch",
        crate::sim_time_s() as f64,
    );
    enc.gauge(
        "dvmp_event_ordinal",
        "Engine event ordinal at the last dispatch",
        crate::event_ordinal() as f64,
    );
    for (name, value) in crate::counters_snapshot().entries() {
        enc.counter(
            &format!("dvmp_{name}"),
            "Cumulative thread-lifetime count (see dvmp-obs counters)",
            value,
        );
    }
    for hist in crate::phase_histograms() {
        if hist.count == 0 {
            continue;
        }
        enc.histogram_log2_ns(
            &format!("dvmp_phase_{}_seconds", hist.phase.replace('-', "_")),
            "Span latency of this profiler phase",
            &hist.buckets,
            hist.total_ns,
        );
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store2(cap: usize) -> TimeSeriesStore {
        TimeSeriesStore::with_capacity(vec!["a".into(), "b".into()], cap)
    }

    #[test]
    fn raw_ring_evicts_oldest_first() {
        let mut s = store2(4);
        for t in 0..10u64 {
            s.sample(t, &[t as f64, -(t as f64)]);
        }
        let r = s.report();
        assert_eq!(s.samples_seen(), 10);
        assert_eq!(r.tiers[0].t_s, vec![6, 7, 8, 9]);
        assert_eq!(r.tiers[0].mean[0], vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(r.tiers[0].mean[1], vec![-6.0, -7.0, -8.0, -9.0]);
        assert!(r.tiers[0].max.is_empty(), "raw tier stores values only");
        assert_eq!(r.last_value("a"), Some(9.0));
        assert_eq!(r.last_value("nope"), None);
    }

    #[test]
    fn consolidation_matches_reference_fold() {
        // Pseudo-random-ish deterministic values; consolidated means and
        // maxes must match a plain fold over the raw sequence.
        let mut s = store2(1_000);
        let vals: Vec<f64> = (0..230).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        for (t, &v) in vals.iter().enumerate() {
            s.sample(t as u64, &[v, 2.0 * v]);
        }
        let r = s.report();
        let mid = &r.tiers[1];
        assert_eq!(mid.scale, 10);
        assert_eq!(mid.t_s.len(), 23);
        for (p, chunk) in vals.chunks(10).take(23).enumerate() {
            let mean: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
            let max = chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(mid.mean[0][p], mean, "mid mean point {p}");
            assert_eq!(mid.max[0][p], max, "mid max point {p}");
            assert_eq!(mid.mean[1][p], 2.0 * mean, "channel scaling point {p}");
        }
        let coarse = &r.tiers[2];
        assert_eq!(coarse.scale, 100);
        assert_eq!(coarse.t_s, vec![99, 199]);
        for (p, chunk) in vals.chunks(100).take(2).enumerate() {
            let mean: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
            let max = chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(coarse.mean[0][p], mean, "coarse mean point {p}");
            assert_eq!(coarse.max[0][p], max, "coarse max point {p}");
        }
    }

    #[test]
    fn memory_stays_flat_after_rings_fill() {
        let mut s = store2(64);
        for t in 0..(64 * 100) as u64 {
            s.sample(t, &[t as f64, 0.5]);
        }
        let filled = s.approx_bytes();
        for t in 0..100_000u64 {
            s.sample(t, &[1.0, 2.0]);
        }
        assert_eq!(
            s.approx_bytes(),
            filled,
            "a filled store must not grow, ever"
        );
        let r = s.report();
        for tier in &r.tiers {
            assert!(
                tier.t_s.len() <= 64,
                "tier over capacity: {}",
                tier.t_s.len()
            );
        }
        assert!(r.point_count() <= 3 * 64 * 2);
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn sample_width_is_checked() {
        store2(8).sample(0, &[1.0]);
    }

    #[test]
    fn quantile_walks_the_histogram() {
        let mut buckets = [0u64; PROFILE_BUCKETS];
        buckets[3] = 50; // [8, 16)
        buckets[10] = 49; // [1024, 2048)
        buckets[20] = 1;
        assert_eq!(log2_bucket_quantile(&buckets, 0.5), Some(1.5 * 8.0));
        assert_eq!(log2_bucket_quantile(&buckets, 0.95), Some(1.5 * 1024.0));
        assert_eq!(
            log2_bucket_quantile(&buckets, 1.0),
            Some(1.5 * (1u64 << 20) as f64)
        );
        assert_eq!(log2_bucket_quantile(&[0; 4], 0.5), None);
        assert_eq!(log2_bucket_quantile(&buckets, 0.0), None);
        assert_eq!(log2_bucket_quantile(&buckets, 1.5), None);
    }

    #[test]
    fn encoder_produces_lintable_text() {
        let mut enc = OpenMetricsEncoder::new();
        enc.counter("dvmp_events", "events", 12);
        enc.gauge("dvmp_queue_depth", "queued VMs", 3.0);
        let mut buckets = [0u64; 8];
        buckets[2] = 5;
        buckets[4] = 2;
        enc.histogram_log2_ns("dvmp_phase_test_seconds", "test phase", &buckets, 900);
        let text = enc.finish();
        assert!(text.contains("# TYPE dvmp_events counter"), "{text}");
        assert!(text.contains("dvmp_events_total 12"), "{text}");
        assert!(text.contains("dvmp_queue_depth 3.0"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 7"), "{text}");
        assert!(text.contains("dvmp_phase_test_seconds_count 7"), "{text}");
        lint_openmetrics(&text).expect("encoder output passes the lint");
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        assert!(lint_openmetrics("dvmp_x 1\n").is_err(), "missing EOF");
        assert!(
            lint_openmetrics("dvmp_x 1\n# EOF\n").is_err(),
            "sample before TYPE"
        );
        assert!(
            lint_openmetrics("# TYPE dvmp_x gauge\ndvmp_x notanumber\n# EOF\n").is_err(),
            "bad value"
        );
        assert!(
            lint_openmetrics(
                "# TYPE dvmp_x histogram\ndvmp_x_bucket{le=\"1.0\"} 5\n\
                 dvmp_x_bucket{le=\"2.0\"} 3\n# EOF\n"
            )
            .is_err(),
            "non-cumulative buckets"
        );
        lint_openmetrics("# TYPE dvmp_x gauge\ndvmp_x 1.0\n# EOF\n").expect("minimal valid");
    }

    mod quantile_bounds {
        use super::super::*;
        use proptest::prelude::*;

        /// The bucket a duration lands in (mirrors the profiler's
        /// `bucket_of`): log2 for positive ns, bucket 31 saturating.
        fn bucket_of(ns: u64) -> usize {
            if ns == 0 {
                0
            } else {
                (63 - ns.leading_zeros() as usize).min(PROFILE_BUCKETS - 1)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// A log2-bucket quantile estimate and the true sample
            /// quantile sit in the same bucket, so they are within a
            /// factor of 2 of each other for every positive sample set
            /// and every tracked quantile.
            #[test]
            fn estimate_within_factor_two_of_true_quantile(
                samples in prop::collection::vec(1u64..1_000_000_000, 1..200),
            ) {
                let mut buckets = [0u64; PROFILE_BUCKETS];
                for &ns in &samples {
                    buckets[bucket_of(ns)] += 1;
                }
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                for &(_, q) in &LATENCY_QUANTILES {
                    let est = log2_bucket_quantile(&buckets, q)
                        .expect("non-empty histogram yields a quantile");
                    let rank = ((q * sorted.len() as f64).ceil() as usize)
                        .clamp(1, sorted.len());
                    let truth = sorted[rank - 1] as f64;
                    prop_assert!(
                        est <= 2.0 * truth && truth <= 2.0 * est,
                        "q={q}: estimate {est} vs true {truth} off by >2x"
                    );
                }
            }
        }
    }

    #[test]
    fn global_scrape_is_lintable() {
        crate::set_enabled(true);
        crate::note_fleet(crate::RecordKind::VmPlaced, 1, 2);
        crate::set_enabled(false);
        let text = scrape_global();
        lint_openmetrics(&text).expect("global scrape passes the lint");
        assert!(text.contains("dvmp_vms_placed_total"), "{text}");
    }
}
