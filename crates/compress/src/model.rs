//! Traffic model: how compression changes the beats moved off-chip.

use std::collections::HashMap;

use crate::codec::LineCodec;

/// Bytes per off-chip bus beat.
pub const BEAT_BYTES: usize = 4;

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
    ///
    /// This is the per-line storage decision of the 1B.2 scheme: the line
    /// is stored compressed when its encoded size is at most
    /// `threshold_frac` of the raw line (`0.5` in the paper, so that a
    /// compressed line occupies exactly half a line slot) and saves at
    /// least one beat. Other lines ship raw. Callers keep `threshold_frac`
    /// within `(0.0, 1.0]` and `line` a non-empty multiple of four bytes.
    pub fn write_back<C: LineCodec + ?Sized>(
        &mut self,
        codec: &C,
        addr: u64,
        line: &[u8],
        threshold_frac: f64,
    ) -> usize {
        #[cfg(debug_assertions)]
        {
            // The codec must be lossless for every shipped line.
            let encoded = codec.compress(line);
            debug_assert_eq!(codec.decompress(&encoded, line.len()), line);
        }
        let raw_beats = line.len() / BEAT_BYTES;
        let bits = codec.compressed_bits(line);
        let threshold_bits = (line.len() * 8) as f64 * threshold_frac;
        let beats = bits.div_ceil(BEAT_BYTES * 8).max(1);
        if (bits as f64) <= threshold_bits && beats < raw_beats {
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
        let codec = DiffCodec::new();
        let mut m = CompressedMemoryModel::new();
        assert!(m.write_back(&codec, 0, &smooth_line(8), 0.5) < 8);
        assert_eq!(m.write_back(&codec, 32, &random_line(8), 0.5), 8);
        assert_eq!(m.compressed_lines(), 1);
    }

    #[test]
    fn raw_codec_never_compresses() {
        let codec = RawCodec::new();
        let mut m = CompressedMemoryModel::new();
        for addr in [0u64, 32, 64, 96] {
            assert_eq!(m.write_back(&codec, addr, &smooth_line(8), 0.75), 8);
        }
        assert_eq!(m.compressed_lines(), 0);
    }

    #[test]
    fn a_line_that_saves_no_beat_is_stored_raw() {
        // At threshold 1.0 a raw encoding passes the size test; it must
        // still not count as a compressed line.
        let codec = RawCodec::new();
        let mut m = CompressedMemoryModel::new();
        for addr in [0u64, 32, 64, 96] {
            assert_eq!(m.write_back(&codec, addr, &smooth_line(8), 1.0), 8);
        }
        assert_eq!(m.compressed_lines(), 0);
        assert_eq!(m.fill_beats(0, 32), 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "left == right")]
    fn a_lossy_codec_fails_the_shipped_line_check() {
        /// Claims a one-bit encoding and decodes every line to zeros.
        struct Lossy;
        impl LineCodec for Lossy {
            fn name(&self) -> &'static str {
                "lossy"
            }
            fn compress(&self, _line: &[u8]) -> Vec<u8> {
                vec![0]
            }
            fn decompress(&self, _data: &[u8], line_len: usize) -> Vec<u8> {
                vec![0; line_len]
            }
        }
        CompressedMemoryModel::new().write_back(&Lossy, 0, &smooth_line(8), 0.5);
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
    fn a_stricter_threshold_compresses_no_more_lines() {
        let codec = DiffCodec::new();
        let lines = [
            smooth_line(8),
            random_line(8),
            smooth_line(16),
            (0..32u8).collect(),
        ];
        let (mut strict, mut lax) = (CompressedMemoryModel::new(), CompressedMemoryModel::new());
        for (addr, line) in (0u64..).step_by(64).zip(&lines) {
            let strict_beats = strict.write_back(&codec, addr, line, 0.25);
            let lax_beats = lax.write_back(&codec, addr, line, 1.0);
            assert!(lax_beats <= strict_beats, "line at {addr:#x}");
        }
        assert!(lax.compressed_lines() >= strict.compressed_lines());
        assert!(lax.compressed_lines() > 0);
    }
}
