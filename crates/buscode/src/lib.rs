//! Application-specific instruction-memory bus encoding: the core idea of
//! DATE 2003 1B.3 (*"Power Efficiency through Application-Specific
//! Instruction Memory Transformations"*, P. Petrov, A. Orailoglu).
//!
//! The instruction-fetch bus toggles on every cycle and is one of the widest
//! high-activity nets in an embedded SoC. Dictionary-based encodings save
//! transitions but add a lookup to the fetch path. 1B.3 instead restricts
//! itself to **functional transformations implementable with a single gate
//! per bit line** — each encoded bit is the original bit, optionally XOR-ed
//! with one lower-numbered bit line ([`XorTransform`]) — and makes the
//! transform **reprogrammable per code region** so it can track each
//! region's instruction statistics.
//!
//! Because the transform is linear over GF(2) and unit-lower-triangular, it
//! is always invertible, and the transition count of an encoded stream
//! depends only on the XOR-differences of consecutive words. That makes the
//! per-region optimization *exact within the family*: each output bit can be
//! chosen independently ([`XorTransform::train`]).
//!
//! Training needs only pair statistics of those differences. On one bit,
//! `a ⊕ b = a + b − 2ab`, so line `i` paired with line `j` toggles
//! `ones[i] + ones[j] − 2·both[i][j]` times, where `ones[i]` counts the
//! differences with bit `i` set and `both[i][j]` those with both bits set.
//! These are integers, not estimates: one pass that counts them (64
//! differences at a time, one popcount per line and per line pair) gives
//! every candidate's exact cost, and the trainer picks the same transform
//! as trying each candidate on the whole stream would.
//!
//! Linearity also makes encoding cheap: a transform's image of a word is
//! the XOR of its bytes' images, so [`RegionEncoder::evaluate`] and
//! [`RegionEncoder::encode_stream`] encode each word with four lookups in
//! byte tables built once per call. [`XorTransform::encode`] and
//! [`XorTransform::decode`] keep the per-bit loops as the reference.
//!
//! # Example
//!
//! ```
//! use lpmem_buscode::{BusInvert, RegionEncoder};
//!
//! // A fetch stream whose bits 0 and 1 always toggle together.
//! let stream: Vec<(u64, u32)> =
//!     (0..100u32).map(|i| (4 * i as u64, if i % 2 == 0 { 0b00 } else { 0b11 })).collect();
//! let enc = RegionEncoder::train(&stream, 1);
//! let report = enc.evaluate(&stream);
//! // XOR-ing bit 1 with bit 0 makes line 1 constant: half the transitions.
//! assert_eq!(report.encoded_transitions, report.raw_transitions / 2);
//! // Bus-invert cannot exploit correlation, only magnitude.
//! assert!(report.encoded_transitions < BusInvert::transitions(&stream));
//! ```

#![warn(missing_docs)]

pub mod addrbus;

/// A unit-lower-triangular XOR network over 32 bus lines.
///
/// Encoded bit `i` is `in_i ^ in_{pair[i]}` when `pair[i]` is set (and
/// `pair[i] < i`), else `in_i`. A per-line inversion mask is supported for
/// completeness; it cancels out of transition counts but documents the full
/// hardware family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorTransform {
    pair: [Option<u8>; 32],
    invert: u32,
}

impl Default for XorTransform {
    fn default() -> Self {
        XorTransform::identity()
    }
}

impl XorTransform {
    /// The identity transform.
    pub fn identity() -> Self {
        XorTransform {
            pair: [None; 32],
            invert: 0,
        }
    }

    /// Builds a transform from explicit pairings.
    ///
    /// # Panics
    ///
    /// Panics if any `pair[i]` is not strictly less than `i` (the
    /// lower-triangular property that guarantees invertibility).
    pub fn new(pair: [Option<u8>; 32], invert: u32) -> Self {
        for (i, p) in pair.iter().enumerate() {
            if let Some(j) = *p {
                assert!(
                    (j as usize) < i,
                    "pair[{i}] = {j} violates lower-triangularity"
                );
            }
        }
        XorTransform { pair, invert }
    }

    /// Encodes one word.
    pub fn encode(&self, word: u32) -> u32 {
        let mut out = 0u32;
        for i in 0..32 {
            let mut bit = (word >> i) & 1;
            if let Some(j) = self.pair[i] {
                bit ^= (word >> j) & 1;
            }
            out |= bit << i;
        }
        out ^ self.invert
    }

    /// Decodes one word (exact inverse of [`encode`](Self::encode)).
    pub fn decode(&self, word: u32) -> u32 {
        let w = word ^ self.invert;
        let mut out = 0u32;
        // Lower-triangular: decode bits in ascending order.
        for i in 0..32 {
            let mut bit = (w >> i) & 1;
            if let Some(j) = self.pair[i] {
                bit ^= (out >> j) & 1; // already-decoded original bit
            }
            out |= bit << i;
        }
        out
    }

    /// `true` when the transform is the identity.
    pub fn is_identity(&self) -> bool {
        self.invert == 0 && self.pair.iter().all(Option::is_none)
    }

    /// Number of XOR gates the transform costs in hardware.
    pub fn gate_count(&self) -> usize {
        self.pair.iter().filter(|p| p.is_some()).count() + self.invert.count_ones() as usize
    }

    /// Trains the transition-optimal transform (within the family) for a
    /// word stream: [`train_on_deltas`](Self::train_on_deltas) over the
    /// XOR-differences of consecutive words, exact because each line's cost
    /// under every pairing follows from the pair counts of those
    /// differences.
    pub fn train(words: &[u32]) -> Self {
        let deltas: Vec<u32> = words.windows(2).map(|w| w[0] ^ w[1]).collect();
        Self::train_on_deltas(&deltas)
    }

    /// Trains from precomputed consecutive-word XOR differences.
    ///
    /// The encoded stream toggles line `i` at step `t` exactly when
    /// `d_t,i ⊕ d_t,pair[i]` is set, so each line's pairing is chosen
    /// independently and the result is exact, not heuristic. Over the
    /// whole stream, a line paired with `j` toggles
    /// `ones[i] + ones[j] − 2·both[i][j]` times, where `ones[i]` counts the
    /// deltas with bit `i` set and `both[i][j]` those with bits `i` and `j`
    /// both set (`a ⊕ b = a + b − 2ab` on bits, summed over the stream).
    /// One pass that accumulates these integers therefore gives every
    /// candidate's exact cost. Each line keeps the first partner, in
    /// ascending `j`, that toggles strictly less than the line alone.
    pub fn train_on_deltas(deltas: &[u32]) -> Self {
        PairCounts::of(deltas).best_transform()
    }
}

/// Toggle statistics of a delta stream: how often each bit line toggles,
/// and how often each pair of lines toggles in the same step.
struct PairCounts {
    /// `ones[i]`: deltas with bit `i` set.
    ones: [u64; 32],
    /// `both[i][j]` for `j < i`: deltas with bits `i` and `j` both set.
    both: [[u64; 32]; 32],
}

impl PairCounts {
    /// Counts a delta stream 64 deltas at a time: each chunk becomes 32
    /// bit columns (bit `k` of column `i` is bit `i` of delta `k`), so one
    /// popcount counts a line, or a pair of lines, over 64 steps.
    fn of(deltas: &[u32]) -> Self {
        let mut counts = PairCounts {
            ones: [0; 32],
            both: [[0; 32]; 32],
        };
        for chunk in deltas.chunks(64) {
            let mut lo = [0u32; 32];
            let mut hi = [0u32; 32];
            let (first, second) = chunk.split_at(chunk.len().min(32));
            lo[..first.len()].copy_from_slice(first);
            hi[..second.len()].copy_from_slice(second);
            transpose32(&mut lo);
            transpose32(&mut hi);
            let cols: [u64; 32] =
                std::array::from_fn(|i| u64::from(lo[i]) | u64::from(hi[i]) << 32);
            for (i, &col) in cols.iter().enumerate() {
                counts.ones[i] += u64::from(col.count_ones());
                for (both, &other) in counts.both[i].iter_mut().zip(&cols[..i]) {
                    *both += u64::from((col & other).count_ones());
                }
            }
        }
        counts
    }

    /// The transform whose lines each take the cheapest partner: for every
    /// line, the first `j` in ascending order whose pairing costs strictly
    /// less than leaving the line alone and than every earlier partner.
    fn best_transform(&self) -> XorTransform {
        let mut pair = [None; 32];
        for (i, slot) in pair.iter_mut().enumerate().skip(1) {
            let mut best = self.ones[i];
            for j in 0..i {
                let cost = self.ones[i] + self.ones[j] - 2 * self.both[i][j];
                if cost < best {
                    best = cost;
                    *slot = Some(j as u8);
                }
            }
        }
        XorTransform { pair, invert: 0 }
    }
}

/// Transposes a 32×32 bit matrix in place: afterwards bit `k` of `m[i]` is
/// what bit `i` of `m[k]` was. Five rounds, each swapping the off-diagonal
/// blocks of half the previous size.
fn transpose32(m: &mut [u32; 32]) {
    let mut width = 16;
    let mut mask = 0x0000_FFFFu32;
    while width != 0 {
        for k in (0..32).filter(|k| k & width == 0) {
            let t = ((m[k] >> width) ^ m[k + width]) & mask;
            m[k + width] ^= t;
            m[k] ^= t << width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// The encoding of one [`XorTransform`] as four 256-entry byte tables.
///
/// The transform is linear over GF(2) up to its inversion mask, so the
/// encoding of a word is the XOR of the images of its bytes: table `k`
/// holds the image of every value of byte `k`. Each entry costs one XOR,
/// the entry without its lowest bit plus that bit's basis image.
struct ByteTables {
    tables: [[u32; 256]; 4],
    invert: u32,
}

impl ByteTables {
    fn new(t: &XorTransform) -> Self {
        // Input bit b drives line b and every line paired with it.
        let mut basis: [u32; 32] = std::array::from_fn(|b| 1 << b);
        for (i, p) in t.pair.iter().enumerate() {
            if let Some(j) = *p {
                basis[j as usize] |= 1 << i;
            }
        }
        let mut tables = [[0u32; 256]; 4];
        for (k, table) in tables.iter_mut().enumerate() {
            for x in 1..256 {
                table[x] = table[x & (x - 1)] ^ basis[8 * k + x.trailing_zeros() as usize];
            }
        }
        ByteTables {
            tables,
            invert: t.invert,
        }
    }

    /// Same word as [`XorTransform::encode`].
    fn encode(&self, word: u32) -> u32 {
        let [b0, b1, b2, b3] = word.to_le_bytes();
        self.tables[0][b0 as usize]
            ^ self.tables[1][b1 as usize]
            ^ self.tables[2][b2 as usize]
            ^ self.tables[3][b3 as usize]
            ^ self.invert
    }
}

/// Counts bit transitions between consecutive words.
pub fn transitions(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut it = words.into_iter();
    let Some(mut prev) = it.next() else { return 0 };
    let mut total = 0u64;
    for w in it {
        total += (prev ^ w).count_ones() as u64;
        prev = w;
    }
    total
}

/// The classic bus-invert baseline: one extra line signals whole-word
/// inversion whenever more than half the lines would toggle.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusInvert;

impl BusInvert {
    /// Transitions of a fetch stream under 32-bit bus-invert, counting the
    /// invert line itself.
    pub fn transitions(stream: &[(u64, u32)]) -> u64 {
        Self::word_transitions(stream.iter().map(|&(_, w)| w))
    }

    /// [`BusInvert::transitions`] over the instruction words alone.
    fn word_transitions(words: impl IntoIterator<Item = u32>) -> u64 {
        let mut total = 0u64;
        let mut prev_word = 0u32;
        let mut prev_inv = 0u32;
        let mut first = true;
        for w in words {
            if first {
                prev_word = w;
                first = false;
                continue;
            }
            let flips = (prev_word ^ w).count_ones();
            let (sent, inv) = if flips > 16 { (!w, 1) } else { (w, 0) };
            total += (prev_word ^ sent).count_ones() as u64 + (prev_inv ^ inv) as u64;
            prev_word = sent;
            prev_inv = inv;
        }
        total
    }
}

/// An instruction-bus encoding choice, from the unencoded bus to the
/// trained per-region XOR encoding of 1B.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusChoice {
    /// Unencoded bus (no encoder energy or area).
    Raw,
    /// Gray-coded words.
    Gray,
    /// Bus-invert coding (one extra invert line).
    BusInvert,
    /// Trained per-region XOR encoding with this many regions.
    Xor(usize),
}

impl BusChoice {
    /// Short key used in point keys and reports.
    pub fn name(self) -> String {
        match self {
            BusChoice::Raw => "raw".to_owned(),
            BusChoice::Gray => "gray".to_owned(),
            BusChoice::BusInvert => "businv".to_owned(),
            BusChoice::Xor(r) => format!("xor{r}"),
        }
    }

    /// Raw and encoded transitions, `(raw, encoded)`, of a fetch stream of
    /// `(address, instruction word)` pairs on the bus this choice drives;
    /// an XOR bus is first trained on the same stream. The stream is
    /// re-iterated, never collected.
    ///
    /// # Panics
    ///
    /// Panics when [`RegionEncoder::train`] does: an XOR region count
    /// outside `1..=`[`RegionEncoder::MAX_REGIONS`] or an empty stream.
    pub fn transitions<I>(self, stream: I) -> (u64, u64)
    where
        I: Iterator<Item = (u64, u32)> + Clone,
    {
        let words = stream.clone().map(|(_, w)| w);
        let raw = || transitions(words.clone());
        match self {
            BusChoice::Raw => {
                let raw = raw();
                (raw, raw)
            }
            BusChoice::Gray => (raw(), transitions(words.map(addrbus::gray_encode))),
            BusChoice::BusInvert => (raw(), BusInvert::word_transitions(words)),
            BusChoice::Xor(regions) => {
                let report = RegionEncoder::train_on(stream.clone(), regions).evaluate_on(stream);
                (report.raw_transitions, report.encoded_transitions)
            }
        }
    }

    /// First-order gate count of the encoder + decoder pair (zero for the
    /// raw bus).
    pub fn gates(self) -> u64 {
        match self {
            BusChoice::Raw => 0,
            BusChoice::Gray => 64,
            BusChoice::BusInvert => 96,
            BusChoice::Xor(regions) => 96 * regions as u64,
        }
    }
}

/// Per-region reprogrammable encoder: the address range of the fetch stream
/// is split into equal regions, each with its own trained [`XorTransform`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEncoder {
    base: u64,
    region_bytes: u64,
    transforms: Vec<XorTransform>,
}

/// Result of evaluating a [`RegionEncoder`] on a fetch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingReport {
    /// Transitions of the unencoded stream.
    pub raw_transitions: u64,
    /// Transitions of the encoded stream.
    pub encoded_transitions: u64,
    /// Number of regions (trained transforms).
    pub regions: usize,
    /// Total XOR gates across all regional transforms.
    pub gates: usize,
}

impl EncodingReport {
    /// Fractional reduction in transitions, `0.0..=1.0` (negative if the
    /// encoding hurt).
    pub fn reduction(&self) -> f64 {
        if self.raw_transitions == 0 {
            0.0
        } else {
            1.0 - self.encoded_transitions as f64 / self.raw_transitions as f64
        }
    }
}

impl RegionEncoder {
    /// The most regions an encoder may have. Each region is one
    /// reprogrammable transform, trained on its own delta slice and
    /// encoded through its own 4 KiB of byte tables; the largest in-tree
    /// use is 16 (F3a).
    pub const MAX_REGIONS: usize = 256;

    /// Trains one transform per region on a fetch stream of
    /// `(address, instruction word)` pairs.
    ///
    /// Each region trains with [`XorTransform::train_on_deltas`] on the
    /// deltas of consecutive fetches that stay inside it: one pass over
    /// its slice of a single delta buffer, with the pair counts on the
    /// stack, so the only per-region memory is its transform.
    ///
    /// # Panics
    ///
    /// Panics if `num_regions` is zero or above [`Self::MAX_REGIONS`], or
    /// the stream is empty.
    pub fn train(stream: &[(u64, u32)], num_regions: usize) -> Self {
        Self::train_on(stream.iter().copied(), num_regions)
    }

    /// [`RegionEncoder::train`] over any re-iterable fetch stream, such
    /// as a trace's fetches filtered on the fly: the stream is walked a
    /// few times but never collected.
    ///
    /// # Panics
    ///
    /// As [`RegionEncoder::train`].
    pub fn train_on<I>(stream: I, num_regions: usize) -> Self
    where
        I: Iterator<Item = (u64, u32)> + Clone,
    {
        assert!(
            (1..=Self::MAX_REGIONS).contains(&num_regions),
            "need 1 to {} regions, got {num_regions}",
            Self::MAX_REGIONS
        );
        let (lo, hi) = stream
            .clone()
            .map(|(a, _)| (a, a))
            .reduce(|(lo, hi), (a, _)| (lo.min(a), hi.max(a)))
            .expect("cannot train on an empty stream");
        let span = (hi - lo + 4).max(4);
        let region_bytes = span.div_ceil(num_regions as u64).max(4);
        // The deltas of consecutive fetches that stay in one region, with
        // that region.
        let same_region = || {
            let region = |a: u64| ((a - lo) / region_bytes) as usize;
            let mut fetches = stream.clone();
            let mut prev = fetches.next().map(|(a, w)| (region(a), w));
            fetches.filter_map(move |(a, w)| {
                let here = region(a);
                let (r, last) = prev.replace((here, w))?;
                (r == here).then_some((r.min(num_regions - 1), last ^ w))
            })
        };
        // A counting sort fills one exact-size delta buffer, region by
        // region: sized once, it leaves no trail of outgrown lists for the
        // allocator to fragment on.
        let mut next = vec![0usize; num_regions];
        for (r, _) in same_region() {
            next[r] += 1;
        }
        let mut total = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let starts = next.clone();
        let mut deltas = vec![0u32; total];
        for (r, d) in same_region() {
            deltas[next[r]] = d;
            next[r] += 1;
        }
        // Each `next[r]` now ends region r's slice.
        let transforms = starts
            .iter()
            .zip(&next)
            .map(|(&start, &end)| XorTransform::train_on_deltas(&deltas[start..end]))
            .collect();
        RegionEncoder {
            base: lo,
            region_bytes,
            transforms,
        }
    }

    /// The trained transform for an address.
    pub fn transform_for(&self, addr: u64) -> &XorTransform {
        &self.transforms[self.region_index(addr)]
    }

    /// The region an address falls in: addresses below the trained range
    /// belong to the first region, those above it to the last.
    fn region_index(&self, addr: u64) -> usize {
        match addr.checked_sub(self.base) {
            Some(offset) => ((offset / self.region_bytes) as usize).min(self.transforms.len() - 1),
            None => 0,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.transforms.len()
    }

    /// Encodes a fetch stream word-by-word (region chosen by address).
    pub fn encode_stream(&self, stream: &[(u64, u32)]) -> Vec<u32> {
        let tables = self.byte_tables();
        stream
            .iter()
            .map(|&(a, w)| tables[self.region_index(a)].encode(w))
            .collect()
    }

    /// Evaluates raw vs. encoded transitions on a stream, in one pass that
    /// encodes each word through its region's byte tables.
    pub fn evaluate(&self, stream: &[(u64, u32)]) -> EncodingReport {
        self.evaluate_on(stream.iter().copied())
    }

    /// [`RegionEncoder::evaluate`] over any fetch stream, in one pass.
    pub fn evaluate_on(&self, stream: impl Iterator<Item = (u64, u32)>) -> EncodingReport {
        let tables = self.byte_tables();
        let mut regions = RegionCursor::new(self);
        let mut words = stream.map(|(a, w)| (w, tables[regions.index(a)].encode(w)));
        let mut raw = 0u64;
        let mut encoded = 0u64;
        if let Some(mut prev) = words.next() {
            for (w, enc) in words {
                raw += u64::from((prev.0 ^ w).count_ones());
                encoded += u64::from((prev.1 ^ enc).count_ones());
                prev = (w, enc);
            }
        }
        EncodingReport {
            raw_transitions: raw,
            encoded_transitions: encoded,
            regions: self.num_regions(),
            gates: self.transforms.iter().map(XorTransform::gate_count).sum(),
        }
    }

    /// One set of byte tables per region, in region order.
    fn byte_tables(&self) -> Vec<ByteTables> {
        self.transforms.iter().map(ByteTables::new).collect()
    }

    /// Decodes an encoded stream given the fetch addresses (used by tests
    /// to prove the fetch path is lossless).
    pub fn decode_stream(&self, addrs: &[u64], encoded: &[u32]) -> Vec<u32> {
        addrs
            .iter()
            .zip(encoded)
            .map(|(&a, &w)| self.transform_for(a).decode(w))
            .collect()
    }
}

/// [`RegionEncoder::region_index`] for a stream whose consecutive
/// addresses often stay in one region: it keeps the last region's address
/// bounds and divides only when an address leaves them.
struct RegionCursor<'a> {
    encoder: &'a RegionEncoder,
    /// Inclusive address bounds of region `index` (empty before the first
    /// lookup).
    lo: u64,
    hi: u64,
    index: usize,
}

impl<'a> RegionCursor<'a> {
    fn new(encoder: &'a RegionEncoder) -> Self {
        RegionCursor {
            encoder,
            lo: 1,
            hi: 0,
            index: 0,
        }
    }

    fn index(&mut self, addr: u64) -> usize {
        if addr < self.lo || addr > self.hi {
            let e = self.encoder;
            let index = e.region_index(addr);
            // A region past the first starts at or below `addr`, so its
            // start does not overflow. The first region also holds every
            // address below `base`, the last every address above its start.
            let start = e.base + index as u64 * e.region_bytes;
            self.lo = if index == 0 { 0 } else { start };
            self.hi = if index + 1 == e.num_regions() {
                u64::MAX
            } else {
                start.saturating_add(e.region_bytes - 1)
            };
            self.index = index;
        }
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_util::Props;

    #[test]
    fn identity_is_identity() {
        let t = XorTransform::identity();
        assert!(t.is_identity());
        assert_eq!(t.encode(0xDEAD_BEEF), 0xDEAD_BEEF);
        assert_eq!(t.gate_count(), 0);
    }

    #[test]
    fn encode_decode_roundtrip_manual_transform() {
        let mut pair = [None; 32];
        pair[1] = Some(0);
        pair[5] = Some(3);
        pair[31] = Some(30);
        let t = XorTransform::new(pair, 0xF0F0_F0F0);
        for w in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            assert_eq!(t.decode(t.encode(w)), w);
        }
    }

    #[test]
    #[should_panic(expected = "lower-triangularity")]
    fn upper_triangular_pair_panics() {
        let mut pair = [None; 32];
        pair[3] = Some(7);
        XorTransform::new(pair, 0);
    }

    #[test]
    fn bus_choices_count_their_own_encodings() {
        // Bits 0 and 1 toggle together, as in the crate example.
        let stream: Vec<(u64, u32)> = (0..100u32)
            .map(|i| (4 * u64::from(i), if i % 2 == 0 { 0b00 } else { 0b11 }))
            .collect();
        let count = |bus: BusChoice| bus.transitions(stream.iter().copied());
        let raw = transitions(stream.iter().map(|&(_, w)| w));
        assert_eq!(count(BusChoice::Raw), (raw, raw));
        // Gray code of 0b11 is 0b10: one line toggles instead of two.
        assert_eq!(count(BusChoice::Gray), (raw, raw / 2));
        assert_eq!(
            count(BusChoice::BusInvert),
            (raw, BusInvert::transitions(&stream))
        );
        let xor = RegionEncoder::train(&stream, 1).evaluate(&stream);
        assert_eq!(
            count(BusChoice::Xor(1)),
            (xor.raw_transitions, xor.encoded_transitions)
        );
        assert_eq!(xor.encoded_transitions, raw / 2);
        assert_eq!(BusChoice::Raw.gates(), 0);
        assert_eq!(BusChoice::Xor(4).gates(), 4 * BusChoice::Xor(1).gates());
        assert_eq!(BusChoice::Xor(4).name(), "xor4");
    }

    #[test]
    fn train_finds_correlated_bits() {
        // Bits 4 and 7 always toggle together.
        let words: Vec<u32> = (0..200)
            .map(|i| if i % 2 == 0 { 0 } else { (1 << 4) | (1 << 7) })
            .collect();
        let t = XorTransform::train(&words);
        let raw = transitions(words.iter().copied());
        let enc = transitions(words.iter().map(|&w| t.encode(w)));
        assert_eq!(raw, 199 * 2);
        assert_eq!(enc, 199); // bit 7 folded onto bit 4
    }

    #[test]
    fn train_never_hurts() {
        // Any stream: trained transform's transitions <= raw (identity is in
        // the family).
        let streams: Vec<Vec<u32>> = vec![
            (0..64).map(|i| i * 0x0101).collect(),
            (0..64)
                .map(|i| (i as u32).wrapping_mul(0x9E37_79B9))
                .collect(),
            vec![7; 32],
        ];
        for words in streams {
            let t = XorTransform::train(&words);
            let raw = transitions(words.iter().copied());
            let enc = transitions(words.iter().map(|&w| t.encode(w)));
            assert!(enc <= raw, "enc {enc} > raw {raw}");
        }
    }

    #[test]
    fn train_on_empty_is_identity() {
        assert!(XorTransform::train(&[]).is_identity());
        assert!(XorTransform::train(&[42]).is_identity());
    }

    #[test]
    fn transitions_counts_hamming() {
        assert_eq!(transitions([]), 0);
        assert_eq!(transitions([5]), 0);
        assert_eq!(transitions([0, 0xF, 0xF0]), 4 + 8);
    }

    #[test]
    fn bus_invert_caps_worst_case() {
        // Alternating all-zeros / all-ones: raw 32 transitions per step;
        // bus-invert sends the complement, paying only the invert line.
        let stream: Vec<(u64, u32)> = (0..10)
            .map(|i| (4 * i, if i % 2 == 0 { 0 } else { u32::MAX }))
            .collect();
        let raw = transitions(stream.iter().map(|&(_, w)| w));
        let bi = BusInvert::transitions(&stream);
        assert_eq!(raw, 9 * 32);
        assert!(bi <= 9 * 17, "bus-invert should cap at ~half: {bi}");
    }

    #[test]
    fn multi_region_adapts_to_phases() {
        // Two code regions with different bit correlations.
        let mut stream = Vec::new();
        for i in 0..300u32 {
            // Region A at 0x0000: bits 0,1 correlate.
            stream.push((4 * i as u64, if i % 2 == 0 { 0b11 } else { 0 }));
        }
        for i in 0..300u32 {
            // Region B at 0x8000: bits 8,9 correlate.
            stream.push((
                0x8000 + 4 * i as u64,
                if i % 2 == 0 { 0b11 << 8 } else { 0 },
            ));
        }
        let one = RegionEncoder::train(&stream, 1).evaluate(&stream);
        let two = RegionEncoder::train(&stream, 2).evaluate(&stream);
        // Both halve the transitions here (a single transform can fold both
        // correlated pairs), but two regions must never be worse.
        assert!(two.encoded_transitions <= one.encoded_transitions);
        assert!(two.reduction() >= 0.45, "reduction = {}", two.reduction());
    }

    #[test]
    fn decode_stream_recovers_instructions() {
        let stream: Vec<(u64, u32)> = (0..100u32)
            .map(|i| (4 * i as u64, i.wrapping_mul(0x0101_0101) ^ 0xA5))
            .collect();
        let enc = RegionEncoder::train(&stream, 4);
        let encoded = enc.encode_stream(&stream);
        let addrs: Vec<u64> = stream.iter().map(|&(a, _)| a).collect();
        let decoded = enc.decode_stream(&addrs, &encoded);
        let original: Vec<u32> = stream.iter().map(|&(_, w)| w).collect();
        assert_eq!(decoded, original);
    }

    #[test]
    fn report_reduction_math() {
        let r = EncodingReport {
            raw_transitions: 100,
            encoded_transitions: 60,
            regions: 1,
            gates: 3,
        };
        assert!((r.reduction() - 0.4).abs() < 1e-12);
        let idle = EncodingReport {
            raw_transitions: 0,
            encoded_transitions: 0,
            regions: 1,
            gates: 0,
        };
        assert_eq!(idle.reduction(), 0.0);
    }

    /// The brute-force trainer, kept as the oracle for
    /// [`XorTransform::train_on_deltas`]: one pass over the deltas per bit
    /// for the cost of leaving it alone, and one per (bit, partner)
    /// candidate.
    fn brute_force_train(deltas: &[u32]) -> XorTransform {
        let mut pair = [None; 32];
        if deltas.is_empty() {
            return XorTransform { pair, invert: 0 };
        }
        for (i, slot) in pair.iter_mut().enumerate().skip(1) {
            let base: u64 = deltas.iter().map(|d| ((d >> i) & 1) as u64).sum();
            let mut best = base;
            let mut best_j = None;
            for j in 0..i {
                let cost: u64 = deltas
                    .iter()
                    .map(|d| (((d >> i) ^ (d >> j)) & 1) as u64)
                    .sum();
                if cost < best {
                    best = cost;
                    best_j = Some(j as u8);
                }
            }
            *slot = best_j;
        }
        XorTransform { pair, invert: 0 }
    }

    /// A word stream of a random length (empty, one word, around one or
    /// a few 64-delta chunks) whose words differ only under a sparse,
    /// dense or empty mask, with some bit lines copying others so that
    /// pairings win.
    fn arb_stream(rng: &mut lpmem_util::Rng) -> Vec<u32> {
        let len = match rng.gen_range(0..6u32) {
            0 => rng.gen_range(0..2usize),
            1 => 64 * rng.gen_range(1..4usize) + 1,
            _ => rng.gen_range(2..300usize),
        };
        let mask = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => (0..rng.gen_range(1..4u32)).fold(0, |m, _| m | 1u32 << rng.gen_range(0..32u32)),
            2 => rng.next_u32(),
            _ => u32::MAX,
        };
        let copies: Vec<(u32, u32)> = (0..rng.gen_range(0..6u32))
            .map(|_| (rng.gen_range(0..32u32), rng.gen_range(0..32u32)))
            .collect();
        let base = rng.next_u32();
        (0..len)
            .map(|_| {
                let mut w = rng.next_u32() & mask;
                for &(from, to) in &copies {
                    if rng.gen_range(0..8u32) != 0 {
                        w = (w & !(1 << to)) | ((w >> from) & 1) << to;
                    }
                }
                base ^ (w & mask)
            })
            .collect()
    }

    #[test]
    fn training_equals_the_brute_force_oracle() {
        Props::new("training equals the brute-force oracle")
            .cases(256)
            .run(|rng| {
                let words = arb_stream(rng);
                let deltas: Vec<u32> = words.windows(2).map(|w| w[0] ^ w[1]).collect();
                let oracle = brute_force_train(&deltas);
                assert_eq!(XorTransform::train_on_deltas(&deltas), oracle);
                assert_eq!(XorTransform::train(&words), oracle);
            });
    }

    #[test]
    fn region_training_equals_the_per_region_oracle() {
        Props::new("region training equals the per-region oracle").run(|rng| {
            let words = arb_stream(rng);
            let mut addr = rng.gen_range(0..1u64 << 20);
            let stream: Vec<(u64, u32)> = words
                .iter()
                .map(|&w| {
                    addr = if rng.gen_bool(0.1) {
                        rng.gen_range(0..1u64 << 20)
                    } else {
                        addr + 4
                    };
                    (addr, w)
                })
                .collect();
            if stream.is_empty() {
                return;
            }
            let num_regions = rng.gen_range(1..20usize);
            let encoder = RegionEncoder::train(&stream, num_regions);
            // Group the deltas region by region, one list each, and train
            // every list with the brute-force oracle.
            let mut deltas = vec![Vec::new(); num_regions];
            for pair in stream.windows(2) {
                let (r0, r1) = (
                    encoder.region_index(pair[0].0),
                    encoder.region_index(pair[1].0),
                );
                if r0 == r1 {
                    deltas[r0].push(pair[0].1 ^ pair[1].1);
                }
            }
            let oracle: Vec<XorTransform> = deltas.iter().map(|d| brute_force_train(d)).collect();
            assert_eq!(encoder.transforms, oracle);
        });
    }

    #[test]
    fn region_cursor_agrees_with_region_index() {
        Props::new("region cursor agrees with region_index").run(|rng| {
            let regions = rng.gen_range(1..=RegionEncoder::MAX_REGIONS);
            let region_bytes = 4 * rng.gen_range(1..1u64 << 12);
            let base = if rng.gen_bool(0.1) {
                u64::MAX - rng.gen_range(0..1u64 << 20)
            } else {
                rng.gen_range(0..1u64 << 24)
            };
            let encoder = RegionEncoder {
                base,
                region_bytes,
                transforms: vec![XorTransform::identity(); regions],
            };
            let start = |r: u64| base.saturating_add(r.saturating_mul(region_bytes));
            let mut cursor = RegionCursor::new(&encoder);
            let mut addr = base;
            for _ in 0..256 {
                addr = match rng.gen_range(0..8u32) {
                    // Below the first region.
                    0 => rng.gen_range(0..=base),
                    // Past the last region, up to the top of the space.
                    1 => start(regions as u64).saturating_add(rng.gen_range(0..1u64 << 16)),
                    2 => u64::MAX - rng.gen_range(0..8u64),
                    // On either side of a region edge.
                    3 => {
                        start(rng.gen_range(0..=regions as u64)).saturating_sub(rng.gen_range(0..2))
                    }
                    4 => rng.next_u64(),
                    // A fetch step, which may cross an edge.
                    _ => addr.wrapping_add(4),
                };
                assert_eq!(
                    cursor.index(addr),
                    encoder.region_index(addr),
                    "{addr:#x} in {regions} regions of {region_bytes:#x} from {base:#x}"
                );
            }
        });
    }

    #[test]
    fn tied_partners_pick_the_lowest_line() {
        // Bit 2 costs 1 paired with bit 0 or with bit 1, against 2 alone:
        // the lower partner wins. Bit 1 paired with bit 0 costs 2, no
        // better than its own 1, so it stays unpaired.
        let mut pair = [None; 32];
        pair[2] = Some(0);
        let expected = XorTransform::new(pair, 0);
        let deltas = [0b101, 0b110];
        assert_eq!(brute_force_train(&deltas), expected);
        assert_eq!(XorTransform::train_on_deltas(&deltas), expected);
        // A partner that only ties the unpaired cost is not taken.
        assert!(XorTransform::train_on_deltas(&[0b11, 0b10, 0b01]).is_identity());
    }

    fn arb_transform(rng: &mut lpmem_util::Rng) -> XorTransform {
        let mut pair = [None; 32];
        for (i, p) in pair.iter_mut().enumerate().skip(1) {
            if rng.gen_bool(0.5) {
                *p = Some(rng.gen_range(0..i as u8));
            }
        }
        let invert = if rng.gen_bool(0.5) { rng.next_u32() } else { 0 };
        XorTransform::new(pair, invert)
    }

    #[test]
    fn byte_tables_encode_like_the_bit_loop() {
        Props::new("byte tables encode like the bit loop").run(|rng| {
            let encoder = RegionEncoder {
                base: 0x1000,
                region_bytes: 4 * rng.gen_range(1..64u64),
                transforms: (0..rng.gen_range(1..6))
                    .map(|_| arb_transform(rng))
                    .collect(),
            };
            for t in &encoder.transforms {
                let tables = ByteTables::new(t);
                for w in (0..64).map(|_| rng.next_u32()).chain([0, u32::MAX]) {
                    assert_eq!(tables.encode(w), t.encode(w));
                }
            }
            // Addresses from below `base` to past the last region.
            let end = encoder.base + encoder.region_bytes * encoder.num_regions() as u64;
            let stream: Vec<(u64, u32)> = (0..rng.gen_range(0..300))
                .map(|_| (rng.gen_range(0..end + 0x100), rng.next_u32()))
                .collect();
            let encoded = encoder.encode_stream(&stream);
            for (&(a, w), &e) in stream.iter().zip(&encoded) {
                assert_eq!(e, encoder.transform_for(a).encode(w));
            }
            let report = encoder.evaluate(&stream);
            assert_eq!(report.encoded_transitions, transitions(encoded));
            assert_eq!(
                report.raw_transitions,
                transitions(stream.iter().map(|&(_, w)| w))
            );
        });
    }

    #[test]
    fn transpose32_swaps_rows_and_columns() {
        let mut rng = lpmem_util::Rng::seed_from_u64(1);
        let rows: [u32; 32] = std::array::from_fn(|_| rng.next_u32());
        let mut cols = rows;
        transpose32(&mut cols);
        for (i, &col) in cols.iter().enumerate() {
            for (k, &row) in rows.iter().enumerate() {
                assert_eq!((col >> k) & 1, (row >> i) & 1, "bit {k} of column {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need 1 to 256 regions")]
    fn too_many_regions_panics() {
        RegionEncoder::train(&[(0, 1), (4, 2)], RegionEncoder::MAX_REGIONS + 1);
    }

    fn arb_words(rng: &mut lpmem_util::Rng) -> Vec<u32> {
        let len = rng.gen_range(2..128usize);
        (0..len).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn trained_transform_roundtrips() {
        Props::new("trained transform roundtrips its training stream").run(|rng| {
            let words = arb_words(rng);
            let t = XorTransform::train(&words);
            for &w in &words {
                assert_eq!(t.decode(t.encode(w)), w);
            }
        });
    }

    #[test]
    fn trained_transform_never_increases_transitions() {
        Props::new("trained transform never increases transitions").run(|rng| {
            let words = arb_words(rng);
            let t = XorTransform::train(&words);
            let raw = transitions(words.iter().copied());
            let enc = transitions(words.iter().map(|&w| t.encode(w)));
            assert!(enc <= raw, "enc {enc} > raw {raw}");
        });
    }
}
