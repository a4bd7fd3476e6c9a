//! Traffic model: how compression changes the beats moved off-chip.

use std::collections::HashMap;

use crate::codec::LineCodec;

/// Bytes per off-chip bus beat.
pub const BEAT_BYTES: usize = 4;

/// Aggregate result of compressing a write-back stream with one codec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WritebackAnalysis {
    /// Lines examined.
    pub lines: u64,
    /// Lines whose encoding cleared the threshold (stored compressed).
    pub compressed_lines: u64,
    /// Beats an uncompressed system would move.
    pub raw_beats: u64,
    /// Beats actually moved under compression.
    pub actual_beats: u64,
    /// Words pushed through the codec datapath (charged codec energy; the
    /// unit examines every dirty line, compressible or not).
    pub codec_words: u64,
    /// Histogram of encoded sizes in beats (index = beats).
    pub size_histogram: Vec<u64>,
}

impl WritebackAnalysis {
    /// Mean compression ratio `raw / actual` (1.0 when idle).
    pub fn ratio(&self) -> f64 {
        if self.actual_beats == 0 {
            1.0
        } else {
            self.raw_beats as f64 / self.actual_beats as f64
        }
    }

    /// Fraction of beats eliminated, in `0.0..=1.0`.
    pub fn beats_saved_frac(&self) -> f64 {
        if self.raw_beats == 0 {
            0.0
        } else {
            1.0 - self.actual_beats as f64 / self.raw_beats as f64
        }
    }
}

/// Analyzes a write-back stream `(address, line_data)` under `codec`.
///
/// A line is stored compressed when its encoded size is at most
/// `threshold_frac` of the raw line (the hardware threshold of the 1B.2
/// scheme; `0.5` in the paper so that a compressed line occupies exactly
/// half a line slot). Encodings above the threshold ship raw, but still pay
/// codec energy for the attempt.
///
/// # Panics
///
/// Panics if `threshold_frac` is not within `(0.0, 1.0]` or a line is not a
/// non-empty multiple of four bytes.
pub fn analyze_writebacks<C: LineCodec + ?Sized>(
    codec: &C,
    write_backs: &[(u64, Vec<u8>)],
    threshold_frac: f64,
) -> WritebackAnalysis {
    assert!(
        threshold_frac > 0.0 && threshold_frac <= 1.0,
        "threshold must be in (0, 1], got {threshold_frac}"
    );
    let mut out = WritebackAnalysis::default();
    for (_, line) in write_backs {
        let raw_beats = line.len() / BEAT_BYTES;
        let bits = codec.compressed_bits(line);
        let threshold_bits = (line.len() * 8) as f64 * threshold_frac;
        let stored_beats = if (bits as f64) <= threshold_bits {
            out.compressed_lines += 1;
            bits.div_ceil(BEAT_BYTES * 8).max(1)
        } else {
            raw_beats
        };
        out.lines += 1;
        out.raw_beats += raw_beats as u64;
        out.actual_beats += stored_beats as u64;
        out.codec_words += (line.len() / 4) as u64;
        if out.size_histogram.len() <= stored_beats {
            out.size_histogram.resize(stored_beats + 1, 0);
        }
        out.size_histogram[stored_beats] += 1;
        #[cfg(debug_assertions)]
        {
            // The codec must be lossless for every shipped line.
            let encoded = codec.compress(line);
            debug_assert_eq!(&codec.decompress(&encoded, line.len()), line);
        }
    }
    out
}

/// Tracks which lines currently live compressed in main memory, so that
/// later **refills** of those lines are credited with the reduced beat
/// count too (the decompressor sits on the refill path).
#[derive(Debug, Clone, Default)]
pub struct CompressedMemoryModel {
    stored: HashMap<u64, usize>,
}

impl CompressedMemoryModel {
    /// Creates an empty model (everything stored raw).
    pub fn new() -> Self {
        CompressedMemoryModel::default()
    }

    /// Records a write-back of `line` at `addr` and returns the beats the
    /// write moved.
    pub fn write_back<C: LineCodec + ?Sized>(
        &mut self,
        codec: &C,
        addr: u64,
        line: &[u8],
        threshold_frac: f64,
    ) -> usize {
        let raw_beats = line.len() / BEAT_BYTES;
        let bits = codec.compressed_bits(line);
        let threshold_bits = (line.len() * 8) as f64 * threshold_frac;
        if (bits as f64) <= threshold_bits {
            let beats = bits.div_ceil(BEAT_BYTES * 8).max(1);
            self.stored.insert(addr, beats);
            beats
        } else {
            self.stored.remove(&addr);
            raw_beats
        }
    }

    /// Returns the beats a refill of `line_bytes` at `addr` moves (reduced
    /// when the line is stored compressed).
    pub fn fill_beats(&self, addr: u64, line_bytes: usize) -> usize {
        self.stored
            .get(&addr)
            .copied()
            .unwrap_or(line_bytes / BEAT_BYTES)
    }

    /// Number of lines currently stored compressed.
    pub fn compressed_lines(&self) -> usize {
        self.stored.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{DiffCodec, RawCodec};

    fn smooth_line(n: usize) -> Vec<u8> {
        (0..n as u32)
            .flat_map(|i| (1000 + 2 * i).to_le_bytes())
            .collect()
    }

    fn random_line(n: usize) -> Vec<u8> {
        (0..n as u32)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes())
            .collect()
    }

    #[test]
    fn smooth_lines_compress_random_do_not() {
        let wbs = vec![(0u64, smooth_line(8)), (32, random_line(8))];
        let a = analyze_writebacks(&DiffCodec::new(), &wbs, 0.5);
        assert_eq!(a.lines, 2);
        assert_eq!(a.compressed_lines, 1);
        assert_eq!(a.raw_beats, 16);
        assert!(a.actual_beats < 16);
        assert!(a.ratio() > 1.0);
    }

    #[test]
    fn raw_codec_never_compresses() {
        let wbs = vec![(0u64, smooth_line(8)); 4];
        let a = analyze_writebacks(&RawCodec::new(), &wbs, 0.5);
        assert_eq!(a.compressed_lines, 0);
        assert_eq!(a.actual_beats, a.raw_beats);
        assert_eq!(a.beats_saved_frac(), 0.0);
    }

    #[test]
    fn histogram_buckets_by_beats() {
        let wbs = vec![(0u64, smooth_line(8))];
        let a = analyze_writebacks(&DiffCodec::new(), &wbs, 0.5);
        let total: u64 = a.size_histogram.iter().sum();
        assert_eq!(total, 1);
        // The single smooth line stores in <= 4 beats (half of 8).
        let bucket = a.size_histogram.iter().position(|&c| c == 1).unwrap();
        assert!(bucket <= 4);
    }

    #[test]
    fn codec_energy_charged_even_when_incompressible() {
        let wbs = vec![(0u64, random_line(8))];
        let a = analyze_writebacks(&DiffCodec::new(), &wbs, 0.5);
        assert_eq!(a.compressed_lines, 0);
        assert_eq!(a.codec_words, 8);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        analyze_writebacks(&DiffCodec::new(), &[], 0.0);
    }

    #[test]
    fn memory_model_credits_refills() {
        let codec = DiffCodec::new();
        let mut m = CompressedMemoryModel::new();
        let line = smooth_line(8);
        let wb_beats = m.write_back(&codec, 0x100, &line, 0.5);
        assert!(wb_beats < 8);
        assert_eq!(m.fill_beats(0x100, 32), wb_beats);
        assert_eq!(m.fill_beats(0x200, 32), 8); // unknown line: raw
        assert_eq!(m.compressed_lines(), 1);
    }

    #[test]
    fn memory_model_overwrite_with_incompressible_reverts() {
        let codec = DiffCodec::new();
        let mut m = CompressedMemoryModel::new();
        m.write_back(&codec, 0x100, &smooth_line(8), 0.5);
        assert_eq!(m.compressed_lines(), 1);
        let beats = m.write_back(&codec, 0x100, &random_line(8), 0.5);
        assert_eq!(beats, 8);
        assert_eq!(m.fill_beats(0x100, 32), 8);
        assert_eq!(m.compressed_lines(), 0);
    }

    #[test]
    fn threshold_one_accepts_any_shrinkage() {
        let wbs = vec![(0u64, smooth_line(8))];
        let strict = analyze_writebacks(&DiffCodec::new(), &wbs, 0.25);
        let lax = analyze_writebacks(&DiffCodec::new(), &wbs, 1.0);
        assert!(lax.compressed_lines >= strict.compressed_lines);
    }
}
