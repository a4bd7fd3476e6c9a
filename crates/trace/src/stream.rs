//! Streaming (online) trace statistics with bounded state.
//!
//! Every analysis in this module consumes events one at a time from any
//! `Iterator<Item = MemEvent>` and never materializes the trace, so a
//! simulation can process arbitrarily long event streams — or millions of
//! per-device streams in a fleet sweep — in memory bounded by the
//! workload's *footprint* (distinct blocks touched) and the analysis
//! window, never by the event count.
//!
//! The materialized entry points ([`StackDistanceHistogram::from_trace`],
//! [`LocalityReport::from_trace`], [`WorkingSetReport::from_trace`]) are
//! thin wrappers over these streaming forms (or independent twins kept
//! equal by differential property tests), so both paths always agree —
//! exactly, not approximately.
//!
//! * [`StreamingStackDistance`] — online LRU stack distances, exactly
//!   equal to the offline Fenwick algorithm, in `O(footprint + window)`
//!   state (markers deeper than the clamp depth are evicted — their
//!   distances are clamped identically either way).
//! * [`StreamingLocality`] — online [`LocalityReport`].
//! * [`StreamingWorkingSet`] — distinct blocks per fixed event window.
//! * [`Reservoir`] — seeded uniform reservoir sampling of a stream.

use std::collections::{HashMap, HashSet};

use lpmem_util::Rng;

use crate::stats::{LocalityReport, StackDistanceHistogram};
use crate::{checked_log2, MemEvent, Trace, TraceError};

/// A Fenwick (binary-indexed) tree over `n` slots used to count live
/// timestamps for the O(log n) stack-distance update.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    pub(crate) fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at index `i` (0-based).
    pub(crate) fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of values in `0..=i` (0-based inclusive prefix sum).
    pub(crate) fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Index of the first slot with a non-zero count (the oldest live
    /// timestamp), or `None` when the tree is empty.
    fn first_live(&self) -> Option<usize> {
        let total = self.prefix_sum(self.tree.len() - 2);
        if total == 0 {
            return None;
        }
        // Binary-lift descent: find the smallest index whose prefix sum
        // reaches 1.
        let mut pos = 0usize; // 1-based cursor into the tree
        let mut remaining = 1u64;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        Some(pos) // `pos` is 0-based again after the descent overshoot
    }
}

/// Marker value in the block map for a block whose timestamp was evicted
/// from the precise window: any reuse of it is at least
/// [`StackDistanceHistogram::MAX_TRACKED`] deep, which the histogram
/// clamps anyway.
const DEEP: u64 = u64::MAX;

/// Initial timestamp capacity; grows on demand (amortized O(1) per event).
const INITIAL_CAPACITY: usize = 512;

/// Online LRU stack-distance computation, exactly equal to
/// [`StackDistanceHistogram::from_trace`] on the same event stream.
///
/// State is `O(footprint + window)`: one map entry per distinct block ever
/// touched (the footprint — the offline algorithm needs the same map) plus
/// a Fenwick tree over at most [`StackDistanceHistogram::MAX_TRACKED`]
/// *live* timestamps. Timestamps are renumbered in place when the clock
/// reaches the tree capacity, and markers deeper than the clamp depth are
/// evicted eagerly: once a block has `MAX_TRACKED` more-recent distinct
/// blocks above it, its eventual reuse distance is clamped no matter what,
/// so precise tracking stops paying.
///
/// ```
/// use lpmem_trace::{MemEvent, StackDistanceHistogram, StreamingStackDistance, Trace};
///
/// let events = [0u64, 64, 128, 64, 0].map(MemEvent::read);
/// let mut stream = StreamingStackDistance::new(64)?;
/// for ev in events {
///     stream.push(ev);
/// }
/// let materialized =
///     StackDistanceHistogram::from_trace(&events.into_iter().collect::<Trace>(), 64)?;
/// assert_eq!(stream.finish(), materialized);
/// # Ok::<(), lpmem_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingStackDistance {
    shift: u32,
    fen: Fenwick,
    /// `slot_block[t]` is the block whose marker was placed at timestamp
    /// `t`; stale once the block moves (checked against `last_pos`).
    slot_block: Vec<u64>,
    /// Block -> current timestamp slot, or [`DEEP`].
    last_pos: HashMap<u64, u64>,
    /// Number of live (precise) markers.
    live: usize,
    /// Next timestamp slot.
    clock: usize,
    capacity: usize,
    hist: Vec<u64>,
    cold: u64,
    total: u64,
}

impl StreamingStackDistance {
    /// Creates a streaming computation at the given block size.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size.
    pub fn new(block_size: u64) -> Result<Self, TraceError> {
        let shift = checked_log2(block_size)?;
        Ok(StreamingStackDistance {
            shift,
            fen: Fenwick::new(INITIAL_CAPACITY),
            slot_block: vec![0; INITIAL_CAPACITY],
            last_pos: HashMap::new(),
            live: 0,
            clock: 0,
            capacity: INITIAL_CAPACITY,
            hist: Vec::new(),
            cold: 0,
            total: 0,
        })
    }

    /// Feeds one event.
    pub fn push(&mut self, ev: MemEvent) {
        let b = ev.block(self.shift);
        self.total += 1;
        match self.last_pos.get(&b).copied() {
            None => self.cold += 1,
            Some(DEEP) => {
                // Evicted marker: the reuse distance is provably at least
                // MAX_TRACKED, the exact clamp the offline form applies.
                self.record(StackDistanceHistogram::MAX_TRACKED);
            }
            Some(p) => {
                // Distinct blocks touched strictly since p: live markers
                // above p. `live` counts all live markers (every one is at
                // a timestamp <= clock-1), prefix_sum(p) those at <= p.
                let d = (self.live as u64 - self.fen.prefix_sum(p as usize)) as usize;
                self.record(d.min(StackDistanceHistogram::MAX_TRACKED));
                self.fen.add(p as usize, -1);
                self.live -= 1;
            }
        }
        if self.clock == self.capacity {
            self.compact();
        }
        let t = self.clock;
        self.fen.add(t, 1);
        self.slot_block[t] = b;
        self.last_pos.insert(b, t as u64);
        self.live += 1;
        self.clock += 1;
        if self.live > StackDistanceHistogram::MAX_TRACKED {
            self.evict_oldest();
        }
    }

    fn record(&mut self, d: usize) {
        if self.hist.len() <= d {
            self.hist.resize(d + 1, 0);
        }
        self.hist[d] += 1;
    }

    /// Renumbers live timestamps to `0..live`, growing the tree when it is
    /// more than half full. Liveness of a slot is decided by a Fenwick
    /// point query (the marker count at that slot), so no hash-order
    /// iteration is involved — slots are walked in ascending timestamp
    /// order.
    fn compact(&mut self) {
        if self.live * 2 > self.capacity {
            self.capacity *= 2;
        }
        let mut live_blocks: Vec<u64> = Vec::with_capacity(self.live);
        let mut below = 0;
        for t in 0..self.clock {
            let upto = self.fen.prefix_sum(t);
            if upto > below {
                live_blocks.push(self.slot_block[t]);
            }
            below = upto;
        }
        debug_assert_eq!(live_blocks.len(), self.live);
        self.fen = Fenwick::new(self.capacity);
        self.slot_block = vec![0; self.capacity];
        for (new_t, &b) in live_blocks.iter().enumerate() {
            self.fen.add(new_t, 1);
            self.slot_block[new_t] = b;
            self.last_pos.insert(b, new_t as u64);
        }
        self.clock = self.live;
    }

    /// Drops the oldest live marker: its block has `MAX_TRACKED` distinct
    /// blocks above it, and that count never shrinks before its next
    /// access, so the eventual distance is clamped either way.
    fn evict_oldest(&mut self) {
        let pos = self.fen.first_live().expect("live markers exist");
        self.fen.add(pos, -1);
        self.live -= 1;
        let b = self.slot_block[pos];
        self.last_pos.insert(b, DEEP);
    }

    /// Events processed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// First-touch accesses so far (the block footprint).
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Finishes the stream and returns the histogram — exactly the value
    /// [`StackDistanceHistogram::from_trace`] computes for the same
    /// events.
    pub fn finish(self) -> StackDistanceHistogram {
        StackDistanceHistogram::from_parts(self.hist, self.cold, self.total)
    }
}

/// Online form of [`LocalityReport`]: spatial locality, footprint, and
/// mean stack distance computed incrementally.
#[derive(Debug, Clone)]
pub struct StreamingLocality {
    spatial_window: u64,
    prev_addr: Option<u64>,
    near: usize,
    events: usize,
    sdh: StreamingStackDistance,
}

impl StreamingLocality {
    /// Creates a streaming locality analysis; `spatial_window` is the
    /// distance (bytes) under which two consecutive accesses count as
    /// spatially local.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when `spatial_window` is
    /// zero.
    pub fn new(spatial_window: u64) -> Result<Self, TraceError> {
        if spatial_window == 0 {
            return Err(TraceError::InvalidParameter("spatial_window must be > 0"));
        }
        Ok(StreamingLocality {
            spatial_window,
            prev_addr: None,
            near: 0,
            events: 0,
            sdh: StreamingStackDistance::new(64)?,
        })
    }

    /// Feeds one event.
    pub fn push(&mut self, ev: MemEvent) {
        if let Some(prev) = self.prev_addr {
            if prev.abs_diff(ev.addr) <= self.spatial_window {
                self.near += 1;
            }
        }
        self.prev_addr = Some(ev.addr);
        self.events += 1;
        self.sdh.push(ev);
    }

    /// Events processed so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Finishes the stream — exactly the value
    /// [`LocalityReport::from_trace`] computes for the same events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] when no events were pushed.
    pub fn finish(self) -> Result<LocalityReport, TraceError> {
        if self.events == 0 {
            return Err(TraceError::EmptyTrace);
        }
        let spatial_locality = if self.events > 1 {
            self.near as f64 / (self.events - 1) as f64
        } else {
            1.0
        };
        let footprint_blocks = self.sdh.cold() as usize;
        let sdh = self.sdh.finish();
        Ok(LocalityReport {
            spatial_locality,
            spatial_window: self.spatial_window,
            mean_stack_distance: sdh.mean_distance(),
            footprint_blocks,
            events: self.events,
        })
    }
}

/// Working-set summary: distinct blocks touched per fixed-size,
/// non-overlapping event window.
///
/// All counters are integers, so reports fold and merge exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingSetReport {
    /// Block granularity in bytes.
    pub block_size: u64,
    /// Events per window.
    pub window: usize,
    /// Complete windows observed.
    pub windows: u64,
    /// Summed distinct-block counts over complete windows.
    pub distinct_sum: u64,
    /// Largest distinct-block count of any complete window.
    pub max_distinct: u64,
    /// Events in the trailing partial window.
    pub tail_events: usize,
    /// Distinct blocks in the trailing partial window.
    pub tail_distinct: u64,
}

impl WorkingSetReport {
    /// Computes the report from a materialized trace — an independent
    /// (chunk-based) implementation kept exactly equal to the streaming
    /// form by differential property tests.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size and
    /// [`TraceError::InvalidParameter`] when `window` is zero.
    pub fn from_trace(trace: &Trace, block_size: u64, window: usize) -> Result<Self, TraceError> {
        let shift = checked_log2(block_size)?;
        if window == 0 {
            return Err(TraceError::InvalidParameter("window must be > 0"));
        }
        let mut report = WorkingSetReport {
            block_size,
            window,
            windows: 0,
            distinct_sum: 0,
            max_distinct: 0,
            tail_events: 0,
            tail_distinct: 0,
        };
        for chunk in trace.events().chunks(window) {
            let distinct = chunk
                .iter()
                .map(|e| e.block(shift))
                .collect::<std::collections::BTreeSet<u64>>()
                .len() as u64;
            if chunk.len() == window {
                report.windows += 1;
                report.distinct_sum += distinct;
                report.max_distinct = report.max_distinct.max(distinct);
            } else {
                report.tail_events = chunk.len();
                report.tail_distinct = distinct;
            }
        }
        Ok(report)
    }
}

/// Online working-set tracking in `O(window)` state: one hash set of the
/// current window's blocks, cleared at each window boundary.
#[derive(Debug, Clone)]
pub struct StreamingWorkingSet {
    shift: u32,
    block_size: u64,
    window: usize,
    current: HashSet<u64>,
    filled: usize,
    windows: u64,
    distinct_sum: u64,
    max_distinct: u64,
}

impl StreamingWorkingSet {
    /// Creates a tracker counting distinct `block_size`-byte blocks per
    /// `window` events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size and
    /// [`TraceError::InvalidParameter`] when `window` is zero.
    pub fn new(block_size: u64, window: usize) -> Result<Self, TraceError> {
        let shift = checked_log2(block_size)?;
        if window == 0 {
            return Err(TraceError::InvalidParameter("window must be > 0"));
        }
        Ok(StreamingWorkingSet {
            shift,
            block_size,
            window,
            current: HashSet::new(),
            filled: 0,
            windows: 0,
            distinct_sum: 0,
            max_distinct: 0,
        })
    }

    /// Feeds one event.
    pub fn push(&mut self, ev: MemEvent) {
        self.current.insert(ev.block(self.shift));
        self.filled += 1;
        if self.filled == self.window {
            let distinct = self.current.len() as u64;
            self.windows += 1;
            self.distinct_sum += distinct;
            self.max_distinct = self.max_distinct.max(distinct);
            self.current.clear();
            self.filled = 0;
        }
    }

    /// Finishes the stream — exactly the value
    /// [`WorkingSetReport::from_trace`] computes for the same events.
    pub fn finish(self) -> WorkingSetReport {
        WorkingSetReport {
            block_size: self.block_size,
            window: self.window,
            windows: self.windows,
            distinct_sum: self.distinct_sum,
            max_distinct: self.max_distinct,
            tail_events: self.filled,
            tail_distinct: self.current.len() as u64,
        }
    }
}

/// Seeded uniform reservoir sampling (Algorithm R): after `n` pushes the
/// reservoir holds `min(n, capacity)` items, each of the `n` with
/// probability `capacity / n`, deterministically per seed.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    rng: Rng,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir holding up to `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir needs a positive capacity");
        Reservoir {
            capacity,
            seen: 0,
            rng: Rng::seed_from_u64(seed),
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers one item to the reservoir.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = self.rng.bounded_u64(self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Maximum number of items held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current sample (in reservoir slot order, not stream order).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(addrs: &[u64]) -> Trace {
        addrs.iter().map(|&a| MemEvent::read(a)).collect()
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 5);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(2), 1);
        assert_eq!(f.prefix_sum(3), 3);
        assert_eq!(f.prefix_sum(7), 8);
        f.add(3, -2);
        assert_eq!(f.prefix_sum(7), 6);
    }

    #[test]
    fn fenwick_first_live_finds_oldest() {
        let mut f = Fenwick::new(16);
        assert_eq!(f.first_live(), None);
        f.add(5, 1);
        f.add(11, 1);
        assert_eq!(f.first_live(), Some(5));
        f.add(5, -1);
        assert_eq!(f.first_live(), Some(11));
        f.add(0, 1);
        assert_eq!(f.first_live(), Some(0));
    }

    #[test]
    fn streaming_matches_classic_example() {
        // Blocks a b c b a -> b distance 1, a distance 2.
        let t = trace_of(&[0, 64, 128, 64, 0]);
        let mut s = StreamingStackDistance::new(64).unwrap();
        for &ev in t.events() {
            s.push(ev);
        }
        let h = s.finish();
        assert_eq!(h.cold_accesses(), 3);
        assert_eq!(h.buckets(), &[0, 1, 1]);
        assert_eq!(h, StackDistanceHistogram::from_trace(&t, 64).unwrap());
    }

    #[test]
    fn streaming_survives_compaction() {
        // Revisit a small working set across many more events than the
        // initial timestamp capacity, forcing several compactions.
        let addrs: Vec<u64> = (0..10 * INITIAL_CAPACITY as u64)
            .map(|i| (i % 7) * 64)
            .collect();
        let t = trace_of(&addrs);
        let mut s = StreamingStackDistance::new(64).unwrap();
        for &ev in t.events() {
            s.push(ev);
        }
        assert_eq!(
            s.clone().finish(),
            StackDistanceHistogram::from_trace(&t, 64).unwrap()
        );
        // State stayed bounded by the footprint, not the event count.
        assert!(s.capacity <= 4 * INITIAL_CAPACITY);
    }

    #[test]
    fn streaming_clamps_beyond_max_tracked_exactly() {
        // Two passes over more distinct blocks than MAX_TRACKED: second-pass
        // distances all clamp, exercising the eviction path. The offline
        // algorithm must agree bucket for bucket.
        let n = StackDistanceHistogram::MAX_TRACKED as u64 + 1000;
        let addrs: Vec<u64> = (0..2 * n).map(|i| (i % n) * 64).collect();
        let t = trace_of(&addrs);
        let mut s = StreamingStackDistance::new(64).unwrap();
        for &ev in t.events() {
            s.push(ev);
        }
        let streamed = s.finish();
        assert_eq!(
            streamed,
            StackDistanceHistogram::from_trace(&t, 64).unwrap()
        );
        // Every reuse is at the clamp depth.
        assert_eq!(streamed.buckets()[StackDistanceHistogram::MAX_TRACKED], n);
    }

    #[test]
    fn streaming_locality_matches_from_trace() {
        let t = trace_of(&[0, 4, 8, 100_000, 12, 8]);
        let mut s = StreamingLocality::new(64).unwrap();
        for &ev in t.events() {
            s.push(ev);
        }
        assert_eq!(
            s.finish().unwrap(),
            LocalityReport::from_trace(&t, 64).unwrap()
        );
    }

    #[test]
    fn streaming_locality_rejects_bad_input() {
        assert!(StreamingLocality::new(0).is_err());
        assert_eq!(
            StreamingLocality::new(64).unwrap().finish().unwrap_err(),
            TraceError::EmptyTrace
        );
    }

    #[test]
    fn working_set_counts_windows() {
        let t = trace_of(&[0, 64, 0, 128, 192, 256, 0]);
        let mut s = StreamingWorkingSet::new(64, 3).unwrap();
        for &ev in t.events() {
            s.push(ev);
        }
        let r = s.finish();
        // Windows: {0,64,0}=2 distinct, {128,192,256}=3; tail {0}=1.
        assert_eq!(r.windows, 2);
        assert_eq!(r.distinct_sum, 5);
        assert_eq!(r.max_distinct, 3);
        assert_eq!((r.tail_events, r.tail_distinct), (1, 1));
        assert_eq!(r, WorkingSetReport::from_trace(&t, 64, 3).unwrap());
    }

    #[test]
    fn working_set_rejects_bad_input() {
        assert!(StreamingWorkingSet::new(48, 4).is_err());
        assert!(StreamingWorkingSet::new(64, 0).is_err());
        assert!(WorkingSetReport::from_trace(&Trace::new(), 64, 0).is_err());
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let mut a = Reservoir::new(8, 7);
        let mut b = Reservoir::new(8, 7);
        for i in 0..100u32 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a.items().len(), 8);
        assert_eq!(a.seen(), 100);
        assert_eq!(a.items(), b.items());
        let mut c = Reservoir::new(8, 8);
        for i in 0..100u32 {
            c.push(i);
        }
        assert_ne!(a.items(), c.items());
    }

    #[test]
    fn reservoir_holds_everything_below_capacity() {
        let mut r = Reservoir::new(16, 3);
        for i in 0..5u32 {
            r.push(i);
        }
        assert_eq!(r.into_items(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn reservoir_rejects_zero_capacity() {
        let _ = Reservoir::<u32>::new(0, 1);
    }
}
