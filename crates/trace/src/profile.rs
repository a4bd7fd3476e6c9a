//! Per-block access profiles derived from traces.
//!
//! A [`BlockProfile`] is the central data structure of the partitioning and
//! clustering flows: it folds a trace into an access-count vector over
//! fixed-size address blocks, the exact input the DATE 2003 1B.1 flow feeds
//! to its memory-partitioning engine.

use crate::{checked_log2, Trace, TraceError};

/// Access counts over fixed-size, contiguous address blocks.
///
/// Block `i` covers byte addresses `[base + i*block_size, base +
/// (i+1)*block_size)`. The profile always covers the full span of the trace
/// it was built from, so `counts` may contain zero entries for untouched
/// blocks — those matter for partitioning, because a contiguous bank must
/// still hold cold blocks that sit between hot ones (the inefficiency that
/// address clustering removes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    base: u64,
    block_size: u64,
    counts: Vec<u64>,
    writes: Vec<u64>,
}

impl BlockProfile {
    /// The most blocks a profile built from a trace may cover. In-tree
    /// workloads span a few hundred blocks; the bound sits far above that
    /// and keeps a sparse or corrupt trace file from asking for gigabytes
    /// of counters (two `u64` per block, untouched ones included).
    pub const MAX_BLOCKS: u64 = 1 << 22;

    /// Builds a profile from a trace with the given power-of-two block size.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size,
    /// [`TraceError::EmptyTrace`] for an empty trace, and
    /// [`TraceError::InvalidParameter`] when the trace spans more than
    /// [`MAX_BLOCKS`](Self::MAX_BLOCKS) blocks.
    ///
    /// # Examples
    ///
    /// ```
    /// use lpmem_trace::{BlockProfile, MemEvent, Trace};
    ///
    /// let trace: Trace = vec![MemEvent::read(0x0), MemEvent::write(0x1000)].into();
    /// let p = BlockProfile::from_trace(&trace, 0x1000)?;
    /// assert_eq!(p.num_blocks(), 2);
    /// assert_eq!(p.counts(), &[1, 1]);
    /// # Ok::<(), lpmem_trace::TraceError>(())
    /// ```
    pub fn from_trace(trace: &Trace, block_size: u64) -> Result<Self, TraceError> {
        let shift = checked_log2(block_size)?;
        let (lo, hi) = trace.span().ok_or(TraceError::EmptyTrace)?;
        let first = lo >> shift;
        let last = hi >> shift;
        if last - first >= Self::MAX_BLOCKS {
            return Err(TraceError::InvalidParameter(
                "trace spans too many blocks for a profile",
            ));
        }
        let n = (last - first) as usize + 1;
        let mut counts = vec![0u64; n];
        let mut writes = vec![0u64; n];
        for ev in trace {
            let idx = ((ev.addr >> shift) - first) as usize;
            counts[idx] += 1;
            if ev.kind == crate::AccessKind::Write {
                writes[idx] += 1;
            }
        }
        Ok(BlockProfile {
            base: first << shift,
            block_size,
            counts,
            writes,
        })
    }

    /// Builds a profile directly from per-block counts (used by generators
    /// and tests). Write counts are taken to be zero.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size and
    /// [`TraceError::EmptyTrace`] when `counts` is empty.
    pub fn from_counts(base: u64, block_size: u64, counts: Vec<u64>) -> Result<Self, TraceError> {
        checked_log2(block_size)?;
        if counts.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        let writes = vec![0; counts.len()];
        Ok(BlockProfile {
            base,
            block_size,
            counts,
            writes,
        })
    }

    /// First byte address covered by the profile.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Block size in bytes (a power of two).
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of blocks covered (including untouched blocks).
    pub fn num_blocks(&self) -> usize {
        self.counts.len()
    }

    /// Per-block total access counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-block write counts (a subset of [`counts`](Self::counts)).
    pub fn write_counts(&self) -> &[u64] {
        &self.writes
    }

    /// Total number of accesses in the profile.
    pub fn total_accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of blocks needed to cover `coverage` (in `0.0..=1.0`) of all
    /// accesses, taking blocks from hottest to coldest.
    ///
    /// Low values indicate a concentrated (peaky) profile; values near the
    /// coverage itself indicate uniform traffic.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not within `0.0..=1.0`.
    pub fn hot_fraction(&self, coverage: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0, 1]"
        );
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let target = (coverage * total as f64).ceil() as u64;
        let mut acc = 0u64;
        let mut used = 0usize;
        for c in sorted {
            if acc >= target {
                break;
            }
            acc += c;
            used += 1;
        }
        used as f64 / self.num_blocks() as f64
    }

    /// Shannon entropy (bits) of the per-block access distribution.
    ///
    /// `0.0` means all traffic hits one block; `log2(num_blocks)` means
    /// perfectly uniform traffic.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        -self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// A *spatial scatter* score in `0.0..=1.0`: the mean normalized index
    /// distance between consecutive hot blocks (blocks above mean heat).
    ///
    /// Profiles whose hot blocks are adjacent score near `0`; hot blocks
    /// strewn across the address map score near `1`. This is the property
    /// address clustering improves before partitioning.
    pub fn scatter(&self) -> f64 {
        let n = self.num_blocks();
        if n < 2 {
            return 0.0;
        }
        let mean = self.total_accesses() as f64 / n as f64;
        let hot: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c as f64 > mean)
            .map(|(i, _)| i)
            .collect();
        if hot.len() < 2 {
            return 0.0;
        }
        let gaps: f64 = hot.windows(2).map(|w| (w[1] - w[0]) as f64 - 1.0).sum();
        let max_gaps = (n - hot.len()) as f64;
        if max_gaps == 0.0 {
            0.0
        } else {
            gaps / max_gaps
        }
    }

    /// Returns a new profile with blocks reordered by the permutation `perm`,
    /// where `perm[new_index] = old_index`.
    ///
    /// This is how an address-clustering remap is applied before
    /// partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when `perm` is not a
    /// permutation of `0..num_blocks()`.
    pub fn permuted(&self, perm: &[usize]) -> Result<BlockProfile, TraceError> {
        let n = self.num_blocks();
        if perm.len() != n {
            return Err(TraceError::InvalidParameter("permutation length mismatch"));
        }
        let mut seen = vec![false; n];
        for &p in perm {
            if p >= n || seen[p] {
                return Err(TraceError::InvalidParameter("not a permutation"));
            }
            seen[p] = true;
        }
        Ok(BlockProfile {
            base: self.base,
            block_size: self.block_size,
            counts: perm.iter().map(|&p| self.counts[p]).collect(),
            writes: perm.iter().map(|&p| self.writes[p]).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemEvent;

    fn profile(counts: Vec<u64>) -> BlockProfile {
        BlockProfile::from_counts(0, 4096, counts).unwrap()
    }

    #[test]
    fn from_trace_counts_reads_and_writes() {
        let trace: Trace = vec![
            MemEvent::read(0x0000),
            MemEvent::write(0x0004),
            MemEvent::read(0x2000),
            MemEvent::write(0x2004),
            MemEvent::write(0x2008),
        ]
        .into();
        let p = BlockProfile::from_trace(&trace, 0x1000).unwrap();
        assert_eq!(p.counts(), &[2, 0, 3]);
        assert_eq!(p.write_counts(), &[1, 0, 2]);
        assert_eq!(p.total_accesses(), 5);
    }

    #[test]
    fn from_trace_base_is_block_aligned() {
        let trace: Trace = vec![MemEvent::read(0x1234)].into();
        let p = BlockProfile::from_trace(&trace, 0x1000).unwrap();
        assert_eq!(p.base(), 0x1000);
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert_eq!(
            BlockProfile::from_trace(&Trace::new(), 4096).unwrap_err(),
            TraceError::EmptyTrace
        );
    }

    #[test]
    fn spans_past_the_block_bound_are_errors_not_allocations() {
        let span = |hi: u64| -> Trace { vec![MemEvent::read(0), MemEvent::read(hi)].into() };
        let last = (BlockProfile::MAX_BLOCKS - 1) * 64;
        let p = BlockProfile::from_trace(&span(last), 64).unwrap();
        assert_eq!(p.num_blocks() as u64, BlockProfile::MAX_BLOCKS);
        for hi in [last + 64, 0x1000_0000_0000, u64::MAX] {
            assert!(matches!(
                BlockProfile::from_trace(&span(hi), 64),
                Err(TraceError::InvalidParameter(_))
            ));
        }
        assert!(BlockProfile::from_trace(&span(u64::MAX), 1).is_err());
    }

    #[test]
    fn entropy_of_single_hot_block_is_zero() {
        assert_eq!(profile(vec![100, 0, 0, 0]).entropy_bits(), 0.0);
    }

    #[test]
    fn entropy_of_uniform_profile_is_log2_n() {
        let e = profile(vec![10, 10, 10, 10]).entropy_bits();
        assert!((e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hot_fraction_concentrated_vs_uniform() {
        let peaky = profile(vec![97, 1, 1, 1]);
        let flat = profile(vec![25, 25, 25, 25]);
        assert!(peaky.hot_fraction(0.9) < flat.hot_fraction(0.9));
    }

    #[test]
    fn scatter_is_zero_for_adjacent_hot_blocks() {
        let p = profile(vec![90, 90, 1, 1, 1, 1]);
        assert_eq!(p.scatter(), 0.0);
    }

    #[test]
    fn scatter_is_high_for_spread_hot_blocks() {
        let p = profile(vec![90, 1, 1, 1, 1, 90]);
        assert!(p.scatter() > 0.9);
    }

    #[test]
    fn permuted_applies_permutation() {
        let p = profile(vec![1, 2, 3]);
        let q = p.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(q.counts(), &[3, 1, 2]);
    }

    #[test]
    fn permuted_rejects_non_permutations() {
        let p = profile(vec![1, 2, 3]);
        assert!(p.permuted(&[0, 0, 1]).is_err());
        assert!(p.permuted(&[0, 1]).is_err());
        assert!(p.permuted(&[0, 1, 3]).is_err());
    }

    #[test]
    fn permutation_preserves_total() {
        let p = profile(vec![5, 7, 11, 13]);
        let q = p.permuted(&[3, 1, 0, 2]).unwrap();
        assert_eq!(p.total_accesses(), q.total_accesses());
    }
}
