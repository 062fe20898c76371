//! Accuracy evaluation (Figs. 13–17).
//!
//! The paper reports: a histogram of estimation errors (Fig. 13), mean
//! error vs. the minimum number of communicable APs (Fig. 14), the size
//! of the intersected area vs. that minimum (Fig. 15), and the
//! probability that the intersected area covers the true location
//! (Fig. 16). This module computes all of them from per-fix records.

use crate::pipeline::FixProvenance;
use std::collections::BTreeMap;
use std::fmt;

/// One localization attempt scored against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixRecord {
    /// Number of communicable APs used for the fix.
    pub k: usize,
    /// Estimation error, meters.
    pub error_m: f64,
    /// Size of the intersected area, m² (`NaN` for estimators without a
    /// region, e.g. Centroid).
    pub area_m2: f64,
    /// Whether the intersected area covered the true location (`false`
    /// for estimators without a region).
    pub covered: bool,
    /// Which rung of the degradation ladder produced the fix (plain
    /// [`FixProvenance::MLoc`] on clean captures; baseline evaluators
    /// tag their own rung).
    pub provenance: FixProvenance,
}

/// A collection of scored fixes for one algorithm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalOutcome {
    /// The per-fix records.
    pub records: Vec<FixRecord>,
}

/// Summary statistics over a set of errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, meters.
    pub mean: f64,
    /// Median, meters.
    pub median: f64,
    /// Maximum, meters.
    pub max: f64,
}

impl ErrorStats {
    /// Computes statistics, or `None` for an empty slice.
    ///
    /// Non-finite inputs (NaN, ±∞) are filtered out before any
    /// aggregation: a single poisoned fix must not corrupt a whole
    /// campaign's mean/median/max. `None` when nothing finite remains.
    pub fn from_errors(errors: &[f64]) -> Option<ErrorStats> {
        let mut sorted: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        let count = sorted.len();
        let mean = neumaier_sum(&sorted) / count as f64;
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Some(ErrorStats {
            count,
            mean,
            median,
            max: *sorted.last()?,
        })
    }
}

/// Neumaier-compensated summation: tracks the low-order bits that
/// naive `iter().sum()` discards, so the mean over large campaigns
/// (10⁵+ fixes) doesn't drift with accumulation order or magnitude
/// spread. Unlike plain Kahan, the compensation also survives the
/// case where the next term is larger than the running sum.
fn neumaier_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut comp = 0.0;
    for &x in values {
        let t = sum + x;
        if sum.abs() >= x.abs() {
            comp += (sum - t) + x;
        } else {
            comp += (x - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

impl fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} m median={:.2} m max={:.2} m",
            self.count, self.mean, self.median, self.max
        )
    }
}

impl EvalOutcome {
    /// Creates an outcome from records.
    pub fn new(records: Vec<FixRecord>) -> Self {
        EvalOutcome { records }
    }

    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no fixes were scored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Error statistics over all fixes.
    pub fn error_stats(&self) -> Option<ErrorStats> {
        let errors: Vec<f64> = self.records.iter().map(|r| r.error_m).collect();
        ErrorStats::from_errors(&errors)
    }

    /// How many fixes each rung of the degradation ladder produced.
    /// Every rung appears in the map, zero-count rungs included, so
    /// reports account for the full ladder.
    pub fn provenance_histogram(&self) -> BTreeMap<FixProvenance, usize> {
        let mut hist: BTreeMap<FixProvenance, usize> =
            FixProvenance::ALL.iter().map(|&p| (p, 0)).collect();
        for r in &self.records {
            *hist.entry(r.provenance).or_insert(0) += 1;
        }
        hist
    }

    /// Fig. 13: histogram of errors with the given bucket width; returns
    /// `(bucket_start_m, count)` pairs covering `[0, max_error]`.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive bucket width.
    pub fn error_histogram(&self, bucket_m: f64) -> Vec<(f64, usize)> {
        assert!(bucket_m > 0.0, "bucket width must be positive");
        let max = self
            .records
            .iter()
            .map(|r| r.error_m)
            .fold(0.0f64, f64::max);
        let n_buckets = (max / bucket_m).floor() as usize + 1;
        let mut hist = vec![0usize; n_buckets.max(1)];
        for r in &self.records {
            let b = ((r.error_m / bucket_m).floor() as usize).min(hist.len() - 1);
            hist[b] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(i, c)| (i as f64 * bucket_m, c))
            .collect()
    }

    /// The `p`-th percentile of the errors (0–100, nearest-rank), or
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics for `p` outside `[0, 100]`.
    pub fn error_percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.records.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.records.iter().map(|r| r.error_m).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// The empirical CDF evaluated at the given error values:
    /// `(threshold_m, fraction of fixes with error ≤ threshold)`.
    pub fn error_cdf(&self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        let n = self.records.len();
        thresholds
            .iter()
            .map(|&t| {
                let c = self.records.iter().filter(|r| r.error_m <= t).count();
                (t, if n == 0 { 0.0 } else { c as f64 / n as f64 })
            })
            .collect()
    }

    /// Fig. 14: mean error over fixes with `k ≥ k_min`, for each
    /// `k_min` in `1..=max_k`.
    pub fn mean_error_vs_min_k(&self) -> Vec<(usize, f64)> {
        bucket_by_min_aps(&self.records, |r| Some(r.error_m))
    }

    /// Fig. 15: mean intersected area over fixes with `k ≥ k_min`
    /// (records without an area are skipped).
    pub fn mean_area_vs_min_k(&self) -> Vec<(usize, f64)> {
        bucket_by_min_aps(&self.records, |r| {
            if r.area_m2.is_finite() {
                Some(r.area_m2)
            } else {
                None
            }
        })
    }

    /// Fig. 16: fraction of fixes with `k ≥ k_min` whose region covered
    /// the true location.
    pub fn coverage_vs_min_k(&self) -> Vec<(usize, f64)> {
        bucket_by_min_aps(&self.records, |r| Some(if r.covered { 1.0 } else { 0.0 }))
    }
}

impl FromIterator<FixRecord> for EvalOutcome {
    fn from_iter<T: IntoIterator<Item = FixRecord>>(iter: T) -> Self {
        EvalOutcome::new(iter.into_iter().collect())
    }
}

/// Buckets records by the *minimum* number of communicable APs: for each
/// `k_min` from 1 to the maximum observed `k`, averages `metric` over
/// all records with `k ≥ k_min`. Records for which `metric` returns
/// `None` are skipped; empty buckets are omitted.
pub fn bucket_by_min_aps<F>(records: &[FixRecord], metric: F) -> Vec<(usize, f64)>
where
    F: Fn(&FixRecord) -> Option<f64>,
{
    let max_k = records.iter().map(|r| r.k).max().unwrap_or(0);
    (1..=max_k)
        .filter_map(|k_min| {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| r.k >= k_min)
                .filter_map(&metric)
                .collect();
            if vals.is_empty() {
                None
            } else {
                Some((k_min, vals.iter().sum::<f64>() / vals.len() as f64))
            }
        })
        .collect()
}

/// The row nearest in time to `t`, by `|time_s(row) - t|` under
/// [`f64::total_cmp`] (so a NaN time sorts last instead of panicking),
/// taking the first row on a tie; `None` when there are no rows. Every
/// scorer matches a fix to its ground truth through it.
pub fn nearest_in_time<T>(
    rows: impl IntoIterator<Item = T>,
    t: f64,
    time_s: impl Fn(&T) -> f64,
) -> Option<T> {
    rows.into_iter()
        .min_by(|a, b| (time_s(a) - t).abs().total_cmp(&(time_s(b) - t).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: usize, error: f64, area: f64, covered: bool) -> FixRecord {
        FixRecord {
            k,
            error_m: error,
            area_m2: area,
            covered,
            provenance: FixProvenance::MLoc,
        }
    }

    #[test]
    fn stats_basics() {
        let s = ErrorStats::from_errors(&[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 3.0);
        assert!(ErrorStats::from_errors(&[]).is_none());
        // Even count: median is the midpoint.
        let s = ErrorStats::from_errors(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert!(s.to_string().contains("mean=4.00"));
    }

    #[test]
    fn stats_filter_non_finite_errors() {
        // Regression: a single NaN/∞ fix used to poison the campaign
        // mean (NaN) and max (∞). Non-finite inputs are dropped.
        let s = ErrorStats::from_errors(&[1.0, f64::NAN, 3.0, f64::INFINITY, 2.0]).unwrap();
        assert_eq!(s.count, 3, "only the finite errors are counted");
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 3.0);
        assert!(s.mean.is_finite() && s.max.is_finite());
        // All-poisoned input yields no statistics rather than garbage.
        assert!(ErrorStats::from_errors(&[f64::NAN, f64::NEG_INFINITY]).is_none());
    }

    #[test]
    fn mean_uses_compensated_summation() {
        // Adversarial magnitude spread: naive left-to-right summation
        // of the sorted sequence [-1e16, 1.0, 1e16] loses the 1.0
        // entirely (-1e16 + 1.0 == -1e16 in f64) and reports mean 0.
        // Neumaier compensation carries the lost low-order bits, so
        // the mean is exactly 1/3.
        let s = ErrorStats::from_errors(&[1e16, 1.0, -1e16]).unwrap();
        assert_eq!(s.mean, 1.0 / 3.0);

        // Drift check at campaign scale: 10⁵ copies of 0.1 (not
        // representable in binary) plus one huge cancelling pair.
        let mut errors = vec![0.1f64; 100_000];
        errors.push(1e18);
        errors.push(-1e18);
        let s = ErrorStats::from_errors(&errors).unwrap();
        let expected = 0.1 * 100_000.0 / 100_002.0;
        assert!(
            (s.mean - expected).abs() < 1e-9,
            "compensated mean drifted: {} vs {expected}",
            s.mean
        );
    }

    #[test]
    fn provenance_histogram_accounts_for_every_rung() {
        let mut records = vec![rec(3, 1.0, 1.0, true), rec(2, 2.0, 1.0, true)];
        records.push(FixRecord {
            provenance: FixProvenance::Centroid,
            ..rec(2, 9.0, f64::NAN, false)
        });
        let outcome = EvalOutcome::new(records);
        let hist = outcome.provenance_histogram();
        assert_eq!(hist[&FixProvenance::MLoc], 2);
        assert_eq!(hist[&FixProvenance::Centroid], 1);
        // Zero-count rungs are present, so reports sum to len().
        assert_eq!(hist.len(), FixProvenance::ALL.len());
        assert_eq!(hist.values().sum::<usize>(), outcome.len());
    }

    #[test]
    fn histogram_buckets() {
        let outcome: EvalOutcome = vec![
            rec(3, 2.0, 10.0, true),
            rec(3, 7.0, 10.0, true),
            rec(3, 8.0, 10.0, true),
            rec(3, 14.9, 10.0, true),
        ]
        .into_iter()
        .collect();
        let hist = outcome.error_histogram(5.0);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0], (0.0, 1));
        assert_eq!(hist[1], (5.0, 2));
        assert_eq!(hist[2], (10.0, 1));
        // Total preserved.
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_panics() {
        let _ = EvalOutcome::default().error_histogram(0.0);
    }

    #[test]
    fn min_k_bucketing() {
        let outcome: EvalOutcome = vec![
            rec(1, 30.0, 100.0, true),
            rec(2, 20.0, 50.0, true),
            rec(4, 10.0, 25.0, false),
        ]
        .into_iter()
        .collect();
        let errs = outcome.mean_error_vs_min_k();
        assert_eq!(errs[0], (1, 20.0)); // all three
        assert_eq!(errs[1], (2, 15.0)); // k >= 2
        assert_eq!(errs[2], (3, 10.0)); // k >= 3 -> only the k=4 fix
        assert_eq!(errs[3], (4, 10.0));
        let cov = outcome.coverage_vs_min_k();
        assert_eq!(cov[0], (1, 2.0 / 3.0));
        assert_eq!(cov[3], (4, 0.0));
    }

    #[test]
    fn area_bucketing_skips_nan() {
        let outcome: EvalOutcome = vec![
            rec(2, 5.0, f64::NAN, false), // centroid-style record
            rec(2, 5.0, 40.0, true),
        ]
        .into_iter()
        .collect();
        let areas = outcome.mean_area_vs_min_k();
        assert_eq!(areas, vec![(1, 40.0), (2, 40.0)]);
    }

    #[test]
    fn percentiles() {
        let outcome: EvalOutcome = (1..=100).map(|i| rec(2, i as f64, 1.0, true)).collect();
        assert_eq!(outcome.error_percentile(50.0), Some(50.0));
        assert_eq!(outcome.error_percentile(90.0), Some(90.0));
        assert_eq!(outcome.error_percentile(100.0), Some(100.0));
        assert_eq!(outcome.error_percentile(0.0), Some(1.0));
        assert!(EvalOutcome::default().error_percentile(50.0).is_none());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        let _ = EvalOutcome::default().error_percentile(101.0);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let outcome: EvalOutcome = vec![
            rec(1, 5.0, 1.0, true),
            rec(1, 15.0, 1.0, true),
            rec(1, 25.0, 1.0, true),
            rec(1, 35.0, 1.0, true),
        ]
        .into_iter()
        .collect();
        let cdf = outcome.error_cdf(&[0.0, 10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf[0].1, 0.0);
        assert_eq!(cdf[1].1, 0.25);
        assert_eq!(cdf[2].1, 0.5);
        assert_eq!(cdf[4].1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // Empty outcome: all zeros.
        assert_eq!(EvalOutcome::default().error_cdf(&[10.0])[0].1, 0.0);
    }

    #[test]
    fn empty_outcome() {
        let outcome = EvalOutcome::default();
        assert!(outcome.is_empty());
        assert_eq!(outcome.len(), 0);
        assert!(outcome.error_stats().is_none());
        assert!(outcome.mean_error_vs_min_k().is_empty());
    }
}
