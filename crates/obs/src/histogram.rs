//! Fixed-bucket histograms of host-time durations: the profiler's span
//! durations and the sweep runner's per-item wall times.

/// A fixed-bucket histogram with running sum / min / max.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (+∞ implied).
    pub fn with_bounds(bounds: &'static [f64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite values are rejected (counted
    /// nowhere) so NaNs cannot poison the summary statistics.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Owned summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            buckets: self
                .bounds
                .iter()
                .copied()
                .chain(std::iter::once(f64::INFINITY))
                .zip(self.counts.iter().copied())
                .collect(),
        }
    }
}

/// Owned summary of a [`Histogram`]. The `Default` value is an empty
/// snapshot with no buckets — a merge identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of (finite) observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// `(upper_bound, count)` pairs; the last bound is +∞.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds `other` into `self`: counts, sums and per-bucket tallies add;
    /// min/max widen. Buckets are aligned by upper bound, so histograms
    /// recorded with different bound sets merge into the union of their
    /// buckets. An empty side contributes nothing (its 0/0 min/max
    /// sentinels are not real observations).
    ///
    /// Merging is commutative and associative over observation multisets,
    /// which is what lets the parallel sweep runner combine per-item
    /// histograms in **spec order** and get the same snapshot any worker
    /// count produces.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(bound, n) in &other.buckets {
            match self
                .buckets
                .iter_mut()
                .find(|(b, _)| b.total_cmp(&bound).is_eq())
            {
                Some((_, count)) => *count += n,
                None => {
                    self.buckets.push((bound, n));
                    self.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
            }
        }
    }

    /// Interpolated quantile `q` (clamped to [0, 1]); `None` when empty.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// target rank, then interpolates linearly inside it, assuming
    /// observations spread uniformly across the bucket. Bucket edges are
    /// tightened with the recorded `min`/`max` (the lowest occupied
    /// bucket cannot start below `min`; the +∞ overflow bucket ends at
    /// `max`), so single-bucket histograms degrade gracefully to the
    /// `min..max` span instead of the raw bound. Results are clamped to
    /// `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut acc = 0u64;
        let mut prev_bound = f64::NEG_INFINITY;
        for &(bound, n) in &self.buckets {
            let next = acc + n;
            if n > 0 && next as f64 >= target {
                let lo = prev_bound.max(self.min);
                let hi = if bound.is_finite() { bound } else { self.max }.min(self.max);
                let frac = ((target - acc as f64) / n as f64).clamp(0.0, 1.0);
                let v = if hi > lo { lo + frac * (hi - lo) } else { hi };
                return Some(v.clamp(self.min, self.max));
            }
            acc = next;
            prev_bound = bound;
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SPAN_BOUNDS_NS;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(&[10.0, 100.0]);
        for v in [1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 500.0);
        assert_eq!(s.buckets, vec![(10.0, 2), (100.0, 1), (f64::INFINITY, 1)]);
        assert_eq!(s.mean(), 139.0);
    }

    #[test]
    fn histogram_rejects_non_finite() {
        let mut h = Histogram::with_bounds(SPAN_BOUNDS_NS);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.snapshot().count, 0);
        h.observe(3.0);
        assert_eq!(h.snapshot().count, 1);
        assert!(h.snapshot().sum.is_finite());
    }

    #[test]
    fn quantile_empty_is_none() {
        let s = Histogram::with_bounds(SPAN_BOUNDS_NS).snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.0), None);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // 100 observations uniform-ish over (10, 100]: quantiles should
        // land inside the bucket, not snap to its upper bound.
        let mut h = Histogram::with_bounds(&[10.0, 100.0, 1000.0]);
        for i in 0..100 {
            h.observe(11.0 + (i as f64) * 0.88);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap();
        assert!((11.0..100.0).contains(&p50), "p50 = {p50}");
        assert!(p50 < s.quantile(0.9).unwrap());
        // q clamps.
        assert_eq!(s.quantile(-1.0).unwrap(), s.min);
        assert_eq!(s.quantile(2.0).unwrap(), s.max);
    }

    #[test]
    fn quantile_single_bucket_uses_min_max_span() {
        let mut h = Histogram::with_bounds(&[1000.0]);
        h.observe(40.0);
        h.observe(60.0);
        let s = h.snapshot();
        // Both observations share one bucket; interpolation is bounded by
        // the recorded extrema, not the 1000.0 bound.
        let p50 = s.quantile(0.5).unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 = {p50}");
        assert_eq!(s.quantile(1.0), Some(60.0));
        assert_eq!(s.quantile(0.0), Some(40.0));
    }

    #[test]
    fn quantile_overflow_bucket_falls_back_to_max() {
        let mut h = Histogram::with_bounds(&[10.0]);
        h.observe(5.0);
        h.observe(700.0);
        h.observe(900.0);
        let s = h.snapshot();
        // p99 lands in the +∞ bucket: interpolate toward max, never ∞.
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99.is_finite());
        assert!((10.0..=900.0).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), Some(900.0));
        // All-overflow histogram still interpolates on [min, max].
        let mut o = Histogram::with_bounds(&[10.0]);
        o.observe(100.0);
        o.observe(300.0);
        let os = o.snapshot();
        let p50 = os.quantile(0.5).unwrap();
        assert!((100.0..=300.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn histogram_merge_adds_and_widens() {
        let mut a = Histogram::with_bounds(&[10.0, 100.0]);
        a.observe(5.0);
        a.observe(50.0);
        let mut b = Histogram::with_bounds(&[10.0, 100.0]);
        b.observe(1.0);
        b.observe(500.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.min, 1.0);
        assert_eq!(merged.max, 500.0);
        assert_eq!(merged.sum, 556.0);
        assert_eq!(
            merged.buckets,
            vec![(10.0, 2), (100.0, 1), (f64::INFINITY, 1)]
        );
        // Empty sides are identities on both ends.
        let empty = Histogram::with_bounds(&[10.0]).snapshot();
        let mut lhs = empty.clone();
        lhs.merge(&merged);
        assert_eq!(lhs, merged);
        let mut rhs = merged.clone();
        rhs.merge(&empty);
        assert_eq!(rhs, merged);
    }

    #[test]
    fn histogram_merge_unions_disjoint_bounds() {
        let mut a = Histogram::with_bounds(&[10.0]);
        a.observe(5.0);
        let mut b = Histogram::with_bounds(&[20.0]);
        b.observe(15.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(
            merged.buckets,
            vec![(10.0, 1), (20.0, 1), (f64::INFINITY, 0)]
        );
    }
}
