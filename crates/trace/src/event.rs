//! Trace events and the [`Trace`] container.

/// The kind of memory access an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// Instruction fetch (I-side).
    InstrFetch,
    /// Data load (D-side).
    Read,
    /// Data store (D-side).
    Write,
}

impl AccessKind {
    /// Returns `true` for data-side accesses ([`Read`](Self::Read) and
    /// [`Write`](Self::Write)).
    #[inline]
    pub fn is_data(self) -> bool {
        !matches!(self, AccessKind::InstrFetch)
    }
}

/// One memory access: an address, the access kind, and the access width in
/// bytes.
///
/// Events are ordered by their position in the [`Trace`]; there is no
/// explicit timestamp because every consumer in this workspace treats the
/// trace index as logical time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemEvent {
    /// Byte address of the access.
    pub addr: u64,
    /// Fetch, read, or write.
    pub kind: AccessKind,
    /// Access width in bytes (1, 2, or 4 for TinyRISC; wider for DMA-style
    /// generators).
    pub size: u8,
    /// The data moved: the loaded/stored value for data accesses, the
    /// instruction word for fetches. Trace-only generators synthesize an
    /// address-correlated value so downstream compression studies see
    /// realistic (non-zero) payloads.
    pub value: u32,
}

impl MemEvent {
    /// Creates a data-read event of word (4-byte) width and zero value.
    #[inline]
    pub fn read(addr: u64) -> Self {
        MemEvent {
            addr,
            kind: AccessKind::Read,
            size: 4,
            value: 0,
        }
    }

    /// Creates a data-write event of word (4-byte) width and zero value.
    #[inline]
    pub fn write(addr: u64) -> Self {
        MemEvent {
            addr,
            kind: AccessKind::Write,
            size: 4,
            value: 0,
        }
    }

    /// Creates an instruction-fetch event of word (4-byte) width and zero
    /// value.
    #[inline]
    pub fn fetch(addr: u64) -> Self {
        MemEvent {
            addr,
            kind: AccessKind::InstrFetch,
            size: 4,
            value: 0,
        }
    }

    /// Returns this event carrying `value` as its data payload.
    #[inline]
    pub fn with_value(mut self, value: u32) -> Self {
        self.value = value;
        self
    }

    /// Index of the block containing this event for the given power-of-two
    /// block size expressed as `log2(block_size)`.
    pub fn block(self, block_shift: u32) -> u64 {
        self.addr >> block_shift
    }
}

/// An ordered sequence of memory accesses.
///
/// `Trace` is a thin, append-only wrapper around `Vec<MemEvent>` that adds
/// the analyses the rest of the workspace needs. It implements
/// [`FromIterator`] and [`Extend`] so generator pipelines compose with
/// iterator adapters:
///
/// ```
/// use lpmem_trace::{MemEvent, Trace};
///
/// let trace: Trace = (0..16u64).map(|i| MemEvent::read(i * 4)).collect();
/// assert_eq!(trace.len(), 16);
/// assert_eq!(trace.span(), Some((0, 60)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<MemEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            events: Vec::with_capacity(n),
        }
    }

    /// Appends an event.
    #[inline]
    pub fn push(&mut self, ev: MemEvent) {
        self.events.push(ev);
    }

    /// Appends a pre-built run of events in one bulk copy.
    #[inline]
    pub fn extend_from_slice(&mut self, evs: &[MemEvent]) {
        self.events.extend_from_slice(evs);
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops spare capacity, so a trace kept for long holds only its
    /// events.
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// Immutable view of the underlying events.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, MemEvent> {
        self.events.iter()
    }

    /// Consumes the trace, returning the underlying event vector.
    pub fn into_inner(self) -> Vec<MemEvent> {
        self.events
    }

    /// The lowest and highest addresses touched, or `None` for an empty
    /// trace.
    pub fn span(&self) -> Option<(u64, u64)> {
        let min = self.events.iter().map(|e| e.addr).min()?;
        let max = self.events.iter().map(|e| e.addr).max()?;
        Some((min, max))
    }

    /// A sub-trace containing only the events whose kind satisfies `keep`.
    pub fn filtered(&self, keep: impl Fn(AccessKind) -> bool) -> Trace {
        self.events
            .iter()
            .copied()
            .filter(|e| keep(e.kind))
            .collect()
    }

    /// A sub-trace of data-side accesses (reads and writes).
    pub fn data_only(&self) -> Trace {
        self.filtered(AccessKind::is_data)
    }

    /// A sub-trace of instruction fetches.
    pub fn fetches_only(&self) -> Trace {
        self.filtered(|k| k == AccessKind::InstrFetch)
    }

    /// Number of events of each kind: `(fetches, reads, writes)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for ev in &self.events {
            match ev.kind {
                AccessKind::InstrFetch => counts.0 += 1,
                AccessKind::Read => counts.1 += 1,
                AccessKind::Write => counts.2 += 1,
            }
        }
        counts
    }
}

impl FromIterator<MemEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = MemEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemEvent> for Trace {
    fn extend<I: IntoIterator<Item = MemEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemEvent;
    type IntoIter = std::slice::Iter<'a, MemEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemEvent;
    type IntoIter = std::vec::IntoIter<MemEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl From<Vec<MemEvent>> for Trace {
    fn from(events: Vec<MemEvent>) -> Self {
        Trace { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            MemEvent::fetch(0x100),
            MemEvent::read(0x2000),
            MemEvent::write(0x2004),
            MemEvent::fetch(0x104),
            MemEvent::read(0x2008),
        ]
        .into()
    }

    #[test]
    fn kind_counts_split_correctly() {
        assert_eq!(sample().kind_counts(), (2, 2, 1));
    }

    #[test]
    fn span_covers_min_and_max() {
        assert_eq!(sample().span(), Some((0x100, 0x2008)));
        assert_eq!(Trace::new().span(), None);
    }

    #[test]
    fn shrink_to_fit_keeps_the_events() {
        let mut t = Trace::with_capacity(1 << 10);
        t.extend_from_slice(sample().events());
        t.shrink_to_fit();
        assert_eq!(t, sample());
    }

    #[test]
    fn data_only_drops_fetches() {
        let d = sample().data_only();
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|e| e.kind.is_data()));
    }

    #[test]
    fn fetches_only_keeps_fetches() {
        let f = sample().fetches_only();
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|e| e.kind == AccessKind::InstrFetch));
    }

    #[test]
    fn trace_roundtrips_through_iterators() {
        let t = sample();
        let back: Trace = t.clone().into_iter().collect();
        assert_eq!(t, back);
    }

    #[test]
    fn extend_appends() {
        let mut t = sample();
        t.extend([MemEvent::read(0x3000)]);
        assert_eq!(t.len(), 6);
    }
}
