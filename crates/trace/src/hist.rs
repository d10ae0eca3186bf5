//! Aggregate metrics that complement the event stream: log2-bucketed
//! latency histograms and sampled gauges. Both are tiny fixed-size value
//! types so they can live inside `RunStats`/`MemStats` and keep those
//! structs `Default + PartialEq + Eq` (the determinism tests compare whole
//! stats structs for equality). Both round-trip through `vt_json` for the
//! checkpoint/resume layer.

use vt_json::{impl_json, Count};

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds values `v` with `floor(log2(v)) == i - 1`, i.e.
/// bucket 0 is exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, bucket 3
/// is `4..=7`, … and the last bucket absorbs everything from `2^30` up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; Histogram::BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Number of buckets: zero, then one per power of two up to `2^30+`.
    pub const BUCKETS: usize = 32;

    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(Histogram::BUCKETS - 1)
        }
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile `p` in `[0, 100]`: the lower bound of the
    /// bucket containing the `p`-th sample. Exact for the distributional
    /// questions the histogram is for ("is p99 in the thousands?"), within
    /// a factor of two otherwise.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_lo(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// Counters are bounded; `min` is `u64::MAX` while empty, so it keeps the
// full range.
impl_json!(Histogram {
    buckets: Count,
    count: Count,
    sum: Count,
    min,
    max
});

/// A sampled gauge: tracks the mean and peak of a level that is polled
/// periodically (queue depth, MSHR occupancy) rather than event-driven.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Number of samples taken.
    pub samples: u64,
    /// Sum of sampled values.
    pub sum: u64,
    /// Largest sampled value.
    pub max: u64,
}

impl Gauge {
    /// Records one sample of the current level.
    pub fn sample(&mut self, v: u64) {
        self.samples += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean sampled level (0 when never sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Folds another gauge into this one.
    pub fn merge(&mut self, other: &Gauge) {
        self.samples += other.samples;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl_json!(Gauge {
    samples: Count,
    sum: Count,
    max
});

#[cfg(test)]
mod tests {
    use super::*;
    use vt_json::{FromJson, Json, ToJson};

    #[test]
    fn buckets_follow_log2_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), Histogram::BUCKETS - 1);
        for i in 1..Histogram::BUCKETS - 1 {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_lo(i)), i);
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        assert!(h.is_empty());
        for v in [3, 0, 100, 7] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 27.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_bucket_accurate() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        // p50 must land in 10's bucket [8, 16); p100 lands in the max's
        // bucket (within a factor of two of the true value).
        let p50 = h.percentile(50.0);
        assert!((8..16).contains(&p50), "p50 = {p50}");
        let p100 = h.percentile(100.0);
        assert!((65_536..=100_000).contains(&p100), "p100 = {p100}");
        assert_eq!(Histogram::default().percentile(99.0), 0);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1, 2, 3, 1000] {
            a.record(v);
            all.record(v);
        }
        for v in [0, 7, 500_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut h = Histogram::default();
        for v in [0, 3, 9_000_000_000] {
            h.record(v);
        }
        let text = h.to_json().compact();
        let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        // Empty histogram keeps its u64::MAX min through the text form.
        let empty =
            Histogram::from_json(&Json::parse(&Histogram::default().to_json().compact()).unwrap())
                .unwrap();
        assert_eq!(empty, Histogram::default());

        let mut g = Gauge::default();
        g.sample(7);
        let back = Gauge::from_json(&Json::parse(&g.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn gauge_tracks_mean_and_peak() {
        let mut g = Gauge::default();
        assert_eq!(g.mean(), 0.0);
        g.sample(4);
        g.sample(0);
        g.sample(8);
        assert_eq!(g.samples, 3);
        assert_eq!(g.max, 8);
        assert!((g.mean() - 4.0).abs() < 1e-9);
        let mut h = Gauge::default();
        h.sample(100);
        g.merge(&h);
        assert_eq!(g.samples, 4);
        assert_eq!(g.max, 100);
    }
}
