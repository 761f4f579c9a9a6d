//! Log₂-bucket histograms.
//!
//! Bucket `i` holds observations `v` with `floor(log2(v)) + 1 == i`, i.e.
//! bucket 0 holds only `v == 0`, bucket 1 holds `v == 1`, bucket 2 holds
//! `2..=3`, bucket 3 holds `4..=7`, … — 65 buckets cover the whole `u64`
//! domain. Cheap enough for per-operation latency recording on the data
//! plane, and deterministic (no sampling).
//!
//! A [`Histogram`] is the domain-wide total, kept under the registry lock;
//! `HistCells` is its twin in one thread's metric shard, written without
//! a lock by that thread alone and folded into the total when summed.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One log₂ histogram: counts per bucket plus running aggregates.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Which bucket a value lands in.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`None` for the last, unbounded-ish
/// bucket whose bound is `u64::MAX`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Add a shard's observations to this total.
    pub(crate) fn absorb(&mut self, cells: &HistCells) {
        let count = cells.count.load(Relaxed);
        if count == 0 {
            return;
        }
        for (total, cell) in self.buckets.iter_mut().zip(&cells.buckets) {
            *total += cell.load(Relaxed);
        }
        self.count += count;
        self.sum = self.sum.saturating_add(cells.sum.load(Relaxed));
        self.min = self.min.min(cells.min.load(Relaxed));
        self.max = self.max.max(cells.max.load(Relaxed));
    }

    /// Point-in-time copy with only the populated buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (bucket_upper_bound(i), *c))
                .collect(),
        }
    }
}

/// One histogram in a thread's metric shard: the buckets and aggregates of
/// a [`Histogram`] as atomics. Only the owning thread writes them, each
/// with a relaxed load and store (no lock-prefixed read-modify-write); any
/// thread may read them.
///
/// The aggregates come first (`repr(C)` keeps them there) so that they
/// share a cache line with the lowest buckets, where a wait that never
/// blocked lands.
#[repr(C)]
pub(crate) struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 65],
}

/// Add `by` to a cell only its owner writes.
pub(crate) fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(by), Relaxed);
}

impl HistCells {
    pub(crate) fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation. Owner thread only.
    pub(crate) fn record(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.count, 1);
        self.sum.store(self.sum.load(Relaxed).saturating_add(v), Relaxed);
        if v < self.min.load(Relaxed) {
            self.min.store(v, Relaxed);
        }
        if v > self.max.load(Relaxed) {
            self.max.store(v, Relaxed);
        }
    }

    /// Become a copy of `other`. Only while neither owner records.
    pub(crate) fn copy_from(&self, other: &HistCells) {
        let cells = self.buckets.iter().chain([&self.count, &self.sum, &self.min, &self.max]);
        let from = other.buckets.iter().chain([&other.count, &other.sum, &other.min, &other.max]);
        for (to, from) in cells.zip(from) {
            to.store(from.load(Relaxed), Relaxed);
        }
    }

    /// Back to empty. Owner thread only.
    pub(crate) fn clear(&self) {
        self.copy_from(&HistCells::new());
    }
}

/// Immutable view of a [`Histogram`]: `(inclusive upper bound, count)` per
/// populated bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `(inclusive upper bound, count)` for each populated bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // v == 0 is its own bucket.
        assert_eq!(bucket_index(0), 0);
        // Exact powers of two open a new bucket; one less closes the prior.
        for shift in 0..63u32 {
            let p = 1u64 << shift;
            assert_eq!(bucket_index(p), shift as usize + 1, "2^{shift}");
            if p > 1 {
                assert_eq!(bucket_index(p - 1), shift as usize, "2^{shift}-1");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        // Upper bounds match the index function.
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_and_snapshot() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> b0; 1 -> b1; 2,3 -> b2; 4 -> b3; 1000 -> b10 (513..=1023).
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn absorbed_cells_equal_recording_into_the_total() {
        let values = [0, 1, 2, 3, 4, 1000, 77];
        let mut direct = Histogram::default();
        let cells = HistCells::new();
        let mut total = Histogram::default();
        for v in values {
            direct.record(v);
            cells.record(v);
        }
        total.absorb(&cells);
        assert_eq!(total.snapshot(), direct.snapshot());
        cells.clear();
        total.absorb(&cells);
        assert_eq!(total.snapshot(), direct.snapshot(), "cleared cells add nothing");
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }
}
