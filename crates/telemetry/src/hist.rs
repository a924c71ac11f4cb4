//! Lock-free fixed-bucket log2 latency histograms.
//!
//! Bucket `i` covers `[2^i, 2^(i+1))`, bucket 0 additionally holds zero,
//! and every slot is a relaxed [`AtomicU64`], so the hot path records
//! without taking a lock: a shared histogram with read-modify-writes, a
//! packet lane's own with plain loads and stores. Snapshots are plain-old-data and merge
//! associatively, which is what lets per-shard histograms be combined
//! across threads.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets — enough for the full `u64` range.
pub const BUCKETS: usize = 64;

/// Bucket index for a value: floor(log2(value)), with 0 mapping to bucket 0.
#[must_use]
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).saturating_sub(1)
}

/// Adds `n` to a cell only the calling thread writes: a relaxed load and
/// store, where a shared cell needs a locked `fetch_add`. Concurrent
/// readers see the old or the new value, never a torn one.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Inclusive upper bound of bucket `i` (used for quantile estimates and
/// the Prometheus `le` label).
#[must_use]
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// A lock-free log2 histogram. All updates use relaxed atomics: the
/// counters are monotone and independently meaningful, so no ordering
/// between them is required — a snapshot taken while writers are active
/// is a consistent *lower bound*, and exact once writers quiesce. The
/// observation count is the buckets' sum, taken at snapshot time.
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("AtomicHistogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish_non_exhaustive()
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; relaxed ordering only.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// [`AtomicHistogram::record`] for a histogram only one thread
    /// writes: plain loads and stores, no read-modify-write. Min and max
    /// compare before they store.
    #[inline]
    pub(crate) fn record_owned(&self, value: u64) {
        bump(&self.buckets[bucket_of(value)], 1);
        bump(&self.sum, value);
        if value < self.min.load(Relaxed) {
            self.min.store(value, Relaxed);
        }
        if value > self.max.load(Relaxed) {
            self.max.store(value, Relaxed);
        }
    }

    /// Copies the current state into a plain-old-data snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// Plain-old-data copy of an [`AtomicHistogram`]. Mergeable: `merge` is
/// associative and commutative (bucket-wise `+`, `min`, `max`), so any
/// tree of per-shard / per-thread merges yields the same totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` covers `[2^i, 2^(i+1))`).
    pub buckets: [u64; BUCKETS],
    /// Total observations: the buckets' sum.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket holding the
    /// q-th observation, clamped to the observed max.
    #[must_use]
    // `q` is clamped to [0, 1], so the product is in [0, count] and the
    // cast back to u64 cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Observed min, or 0 when empty (for display).
    #[must_use]
    pub fn display_min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn record_and_snapshot() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 2, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1103);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 1); // 2
        assert_eq!(s.buckets[6], 1); // 100
        assert_eq!(s.buckets[9], 1); // 1000
    }

    #[test]
    fn merge_totals() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(5);
        a.record(7);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1_000_012);
        assert_eq!(m.min, 5);
        assert_eq!(m.max, 1_000_000);
    }

    #[test]
    fn quantile_matches_stats_estimator() {
        let h = AtomicHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p100 is exactly the max; lower quantiles are bucket upper bounds.
        assert_eq!(s.quantile(1.0), 100);
        assert!(s.quantile(0.5) >= 50);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn empty_snapshot_display() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.display_min(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
