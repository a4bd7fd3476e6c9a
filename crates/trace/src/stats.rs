//! Locality statistics: LRU stack distances and spatial/temporal locality
//! summaries.
//!
//! These metrics quantify the properties the DATE 2003 1B optimizations
//! exploit: partitioning exploits *spatial* locality of the address profile,
//! clustering *creates* it, and caches/compression depend on *temporal*
//! reuse.
//!
//! Both entry points here are thin wrappers over the streaming forms in
//! [`crate::stream`] — one shared implementation, so the materialized and
//! online paths cannot drift apart.

use crate::stream::{StreamingLocality, StreamingStackDistance};
use crate::{Trace, TraceError};

/// Histogram of LRU stack distances at block granularity.
///
/// Entry `hist[d]` counts accesses whose reuse distance (number of *distinct*
/// blocks touched since the previous access to the same block) is `d`,
/// clamped at [`StackDistanceHistogram::MAX_TRACKED`]. Cold (first-touch)
/// accesses are counted separately.
///
/// The cumulative histogram is exactly the miss-ratio curve of a
/// fully-associative LRU cache, so this single structure predicts hit rates
/// for every capacity at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDistanceHistogram {
    hist: Vec<u64>,
    cold: u64,
    total: u64,
}

impl StackDistanceHistogram {
    /// Distances at or above this value are clamped into the final bucket.
    pub const MAX_TRACKED: usize = 1 << 16;

    /// Computes the histogram for `trace` at the given block size by
    /// streaming the events through [`StreamingStackDistance`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size.
    pub fn from_trace(trace: &Trace, block_size: u64) -> Result<Self, TraceError> {
        let mut stream = StreamingStackDistance::new(block_size)?;
        for &ev in trace.events() {
            stream.push(ev);
        }
        Ok(stream.finish())
    }

    /// Assembles a histogram from streaming-accumulated parts.
    pub(crate) fn from_parts(hist: Vec<u64>, cold: u64, total: u64) -> Self {
        StackDistanceHistogram { hist, cold, total }
    }

    /// Number of first-touch (cold) accesses.
    pub fn cold_accesses(&self) -> u64 {
        self.cold
    }

    /// Total accesses the histogram covers.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Raw histogram; index is the stack distance in blocks.
    pub fn buckets(&self) -> &[u64] {
        &self.hist
    }

    /// Predicted hit ratio of a fully-associative LRU cache holding
    /// `capacity_blocks` blocks.
    pub fn lru_hit_ratio(&self, capacity_blocks: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.hist.iter().take(capacity_blocks).sum();
        hits as f64 / self.total as f64
    }

    /// Mean stack distance over reuse (non-cold) accesses, or `None` when
    /// every access is cold.
    pub fn mean_distance(&self) -> Option<f64> {
        let reuses: u64 = self.hist.iter().sum();
        if reuses == 0 {
            return None;
        }
        let weighted: u64 = self
            .hist
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / reuses as f64)
    }
}

/// Summary locality metrics for a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityReport {
    /// Fraction of consecutive accesses within `spatial_window` bytes of each
    /// other.
    pub spatial_locality: f64,
    /// Window used for `spatial_locality` (bytes).
    pub spatial_window: u64,
    /// Mean LRU stack distance at 64-byte blocks (None when no reuse).
    pub mean_stack_distance: Option<f64>,
    /// Number of distinct 64-byte blocks touched.
    pub footprint_blocks: usize,
    /// Total events.
    pub events: usize,
}

impl LocalityReport {
    /// Computes the report by streaming the events through
    /// [`StreamingLocality`]. `spatial_window` is the distance (bytes) under
    /// which two consecutive accesses count as spatially local.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for an empty trace and
    /// [`TraceError::InvalidParameter`] when `spatial_window` is zero.
    pub fn from_trace(trace: &Trace, spatial_window: u64) -> Result<Self, TraceError> {
        if trace.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        let mut stream = StreamingLocality::new(spatial_window)?;
        for &ev in trace.events() {
            stream.push(ev);
        }
        stream.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemEvent;

    fn trace_of(addrs: &[u64]) -> Trace {
        addrs.iter().map(|&a| MemEvent::read(a)).collect()
    }

    #[test]
    fn all_cold_when_no_reuse() {
        let sdh = StackDistanceHistogram::from_trace(&trace_of(&[0, 64, 128, 192]), 64).unwrap();
        assert_eq!(sdh.cold_accesses(), 4);
        assert_eq!(sdh.mean_distance(), None);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let sdh = StackDistanceHistogram::from_trace(&trace_of(&[0, 0, 0]), 64).unwrap();
        assert_eq!(sdh.cold_accesses(), 1);
        assert_eq!(sdh.buckets(), &[2]);
    }

    #[test]
    fn classic_stack_distance_example() {
        // Blocks: a b c b a  -> b reuse distance 1 (c), a reuse distance 2 (b, c).
        let sdh = StackDistanceHistogram::from_trace(&trace_of(&[0, 64, 128, 64, 0]), 64).unwrap();
        assert_eq!(sdh.cold_accesses(), 3);
        assert_eq!(sdh.buckets(), &[0, 1, 1]);
    }

    #[test]
    fn lru_hit_ratio_matches_histogram() {
        let sdh = StackDistanceHistogram::from_trace(&trace_of(&[0, 64, 128, 64, 0]), 64).unwrap();
        // Capacity 2 blocks: hits are the accesses with distance < 2 -> 1 of 5.
        assert!((sdh.lru_hit_ratio(2) - 0.2).abs() < 1e-12);
        // Capacity 3: both reuses hit -> 2 of 5.
        assert!((sdh.lru_hit_ratio(3) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_is_monotone_in_capacity() {
        let t = trace_of(&[0, 64, 128, 192, 0, 64, 128, 192, 0]);
        let sdh = StackDistanceHistogram::from_trace(&t, 64).unwrap();
        let mut prev = 0.0;
        for cap in 0..8 {
            let h = sdh.lru_hit_ratio(cap);
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn locality_report_sequential_is_spatially_local() {
        let t = trace_of(&[0, 4, 8, 12, 16]);
        let r = LocalityReport::from_trace(&t, 64).unwrap();
        assert_eq!(r.spatial_locality, 1.0);
        assert_eq!(r.footprint_blocks, 1);
    }

    #[test]
    fn locality_report_random_is_not_spatially_local() {
        let t = trace_of(&[0, 100_000, 5, 200_000, 10]);
        let r = LocalityReport::from_trace(&t, 64).unwrap();
        assert!(r.spatial_locality < 0.5);
    }

    #[test]
    fn locality_report_rejects_bad_input() {
        assert!(LocalityReport::from_trace(&Trace::new(), 64).is_err());
        assert!(LocalityReport::from_trace(&trace_of(&[0]), 0).is_err());
    }
}
