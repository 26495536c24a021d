//! Lightweight metrics: counters, gauges and fixed-bucket histograms.
//!
//! The registry is interior-mutable (the simulator is single-threaded) and
//! keyed by `&'static str` so the hot path never allocates. Reading happens
//! through an owned [`MetricsSnapshot`].

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: whole decades from 10 to 1e9,
/// wide enough for per-flow byte counts. A final +∞ bucket is implicit.
pub const DEFAULT_BOUNDS: &[f64] = &[1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

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
    /// which is what lets the parallel sweep runner combine per-session
    /// registries in **spec order** and get the same snapshot any worker
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

    /// Upper bound of the bucket containing quantile `q` (clamped to
    /// [0, 1]); `None` when empty. Coarse by construction — bucket
    /// resolution, not exact order statistics.
    pub fn quantile_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for &(bound, n) in &self.buckets {
            acc += n;
            if acc >= target {
                return Some(bound);
            }
        }
        self.buckets.last().map(|&(b, _)| b)
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

/// Interior-mutable registry of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RefCell<BTreeMap<&'static str, u64>>,
    gauges: RefCell<BTreeMap<&'static str, f64>>,
    histograms: RefCell<BTreeMap<&'static str, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name` (created at 0 on first use).
    pub fn count(&self, name: &'static str, delta: u64) {
        *self.counters.borrow_mut().entry(name).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.gauges.borrow_mut().insert(name, value);
    }

    /// Records one observation into histogram `name` (created with
    /// [`DEFAULT_BOUNDS`] on first use).
    pub fn observe(&self, name: &'static str, value: f64) {
        self.histograms
            .borrow_mut()
            .entry(name)
            .or_insert_with(|| Histogram::with_bounds(DEFAULT_BOUNDS))
            .observe(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (`None` when never set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.borrow().get(name).copied()
    }

    /// Owned snapshot of everything in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .borrow()
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .borrow()
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .borrow()
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Owned point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value (last-write-wins, matching [`MetricsRegistry::gauge`]), and
    /// histograms merge bucket-wise via [`HistogramSnapshot::merge`].
    ///
    /// Because gauges are order-sensitive, a *deterministic* combined view
    /// of many per-session snapshots must fold them in a stable order —
    /// use [`MetricsSnapshot::merge_ordered`], which the parallel sweep
    /// runner feeds in session-spec order regardless of which worker
    /// finished first.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0.0,
                    min: 0.0,
                    max: 0.0,
                    buckets: Vec::new(),
                })
                .merge(h);
        }
    }

    /// Merges a sequence of snapshots left to right into one combined
    /// snapshot. The iteration order is the determinism contract: callers
    /// pass parts in a stable order (the sweep runner uses session-spec
    /// order), so the result is independent of completion order.
    pub fn merge_ordered<'a, I: IntoIterator<Item = &'a MetricsSnapshot>>(
        parts: I,
    ) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for part in parts {
            out.merge_from(part);
        }
        out
    }

    /// Flattens the snapshot into sorted `(metric, value)` display rows —
    /// counters verbatim, gauges with 3 decimals, histograms as
    /// `count/mean/p50/p90/p99/max` sub-rows (quantiles interpolated via
    /// [`HistogramSnapshot::quantile`]). Feed these to a table renderer.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (name, v) in &self.counters {
            rows.push((name.clone(), v.to_string()));
        }
        for (name, v) in &self.gauges {
            rows.push((name.clone(), format!("{v:.3}")));
        }
        for (name, h) in &self.histograms {
            rows.push((format!("{name}.count"), h.count.to_string()));
            rows.push((format!("{name}.mean"), format!("{:.1}", h.mean())));
            for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                let v = h.quantile(q).unwrap_or(0.0);
                rows.push((format!("{name}.{label}"), format!("{v:.1}")));
            }
            rows.push((format!("{name}.max"), format!("{:.1}", h.max)));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let m = MetricsRegistry::new();
        m.count("cache.hits", 2);
        m.count("cache.hits", 3);
        assert_eq!(m.counter_value("cache.hits"), 5);
        assert_eq!(m.counter_value("absent"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge_value("depth"), None);
        m.gauge("depth", 4.0);
        m.gauge("depth", 2.0);
        assert_eq!(m.gauge_value("depth"), Some(2.0));
    }

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
        let mut h = Histogram::with_bounds(DEFAULT_BOUNDS);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.snapshot().count, 0);
        h.observe(3.0);
        assert_eq!(h.snapshot().count, 1);
        assert!(h.snapshot().sum.is_finite());
    }

    #[test]
    fn quantile_bound_is_bucket_resolution() {
        let mut h = Histogram::with_bounds(&[10.0, 100.0, 1000.0]);
        for _ in 0..90 {
            h.observe(5.0);
        }
        for _ in 0..10 {
            h.observe(500.0);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(0.5), Some(10.0));
        assert_eq!(s.quantile_bound(0.99), Some(1000.0));
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                buckets: vec![]
            }
            .quantile_bound(0.5),
            None
        );
    }

    #[test]
    fn quantile_empty_is_none() {
        let s = Histogram::with_bounds(DEFAULT_BOUNDS).snapshot();
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

    #[test]
    fn snapshot_merge_ordered_is_order_stable() {
        let mk = |hits: u64, depth: f64| {
            let m = MetricsRegistry::new();
            m.count("cache.hits", hits);
            m.gauge("queue.depth", depth);
            m.observe("bytes", hits as f64);
            m.snapshot()
        };
        let parts = [mk(1, 1.0), mk(2, 2.0), mk(3, 3.0)];
        let merged = MetricsSnapshot::merge_ordered(&parts);
        assert_eq!(merged.counters["cache.hits"], 6);
        // Gauges: last in spec order wins, whatever order parts finished.
        assert_eq!(merged.gauges["queue.depth"], 3.0);
        assert_eq!(merged.histograms["bytes"].count, 3);
        assert_eq!(merged.histograms["bytes"].sum, 6.0);
        // Same parts, same order → identical result (pure function).
        assert_eq!(merged.rows(), MetricsSnapshot::merge_ordered(&parts).rows());
    }

    #[test]
    fn snapshot_rows_are_renderable() {
        let m = MetricsRegistry::new();
        m.count("a.count", 1);
        m.gauge("b.gauge", 1.5);
        m.observe("c.hist", 10.0);
        let rows = m.snapshot().rows();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"a.count"));
        assert!(names.contains(&"b.gauge"));
        assert!(names.contains(&"c.hist.mean"));
    }
}
