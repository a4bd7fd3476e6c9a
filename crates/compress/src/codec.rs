//! Line codecs: the differential scheme of 1B.2 plus baselines.

use crate::bits::{BitReader, BitWriter};

/// A lossless codec over cache-line payloads.
///
/// Lines are treated as sequences of little-endian 32-bit words; every
/// implementation must satisfy
/// `decompress(&compress(line), line.len()) == line` for any line whose
/// length is a non-zero multiple of four (enforced by the property tests in this
/// module and exercised end-to-end by the compression flow).
pub trait LineCodec {
    /// A short lowercase name for reports (e.g. `"diff"`).
    fn name(&self) -> &'static str;

    /// Encodes a line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is empty or its length is not a multiple of four.
    fn compress(&self, line: &[u8]) -> Vec<u8>;

    /// Decodes `line_len` bytes from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a valid encoding of a `line_len`-byte line.
    fn decompress(&self, data: &[u8], line_len: usize) -> Vec<u8>;

    /// Exact encoded size in bits (the hardware truncates to this, while
    /// [`compress`](Self::compress) pads to whole bytes).
    fn compressed_bits(&self, line: &[u8]) -> usize {
        self.compress(line).len() * 8
    }
}

fn line_words(line: &[u8]) -> Vec<u32> {
    assert!(
        !line.is_empty() && line.len().is_multiple_of(4),
        "line must be a multiple of 4 bytes"
    );
    line.chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// The 1B.2 differential codec.
///
/// Word 0 is stored verbatim; each subsequent word is encoded as the
/// zigzagged wrapping difference from its predecessor, packed with a 2-bit
/// width tag: `00`→4 bits, `01`→8, `10`→16, `11`→32. Signal buffers,
/// counters, pointers, and pixel rows — the dominant dirty data of media
/// kernels — have small word-to-word deltas and compress far below half a
/// line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffCodec;

impl DiffCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        DiffCodec
    }

    fn delta_width(delta_zz: u32) -> (u32, u32) {
        // (tag, payload width)
        if delta_zz < 1 << 4 {
            (0b00, 4)
        } else if delta_zz < 1 << 8 {
            (0b01, 8)
        } else if delta_zz < 1 << 16 {
            (0b10, 16)
        } else {
            (0b11, 32)
        }
    }
}

impl LineCodec for DiffCodec {
    fn name(&self) -> &'static str {
        "diff"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        let words = line_words(line);
        let mut w = BitWriter::new();
        w.write(words[0], 32);
        let mut prev = words[0];
        for &word in &words[1..] {
            let delta = zigzag(word.wrapping_sub(prev) as i32);
            let (tag, width) = Self::delta_width(delta);
            w.write(tag, 2);
            w.write(delta, width);
            prev = word;
        }
        w.into_bytes()
    }

    fn decompress(&self, data: &[u8], line_len: usize) -> Vec<u8> {
        assert!(
            line_len >= 4 && line_len.is_multiple_of(4),
            "line must be a multiple of 4 bytes"
        );
        let n = line_len / 4;
        let mut r = BitReader::new(data);
        let first = r.read(32).expect("truncated diff stream");
        let mut words = Vec::with_capacity(n);
        words.push(first);
        let mut prev = first;
        for _ in 1..n {
            let tag = r.read(2).expect("truncated diff stream");
            let width = match tag {
                0b00 => 4,
                0b01 => 8,
                0b10 => 16,
                _ => 32,
            };
            let delta = r.read(width).expect("truncated diff stream");
            let word = prev.wrapping_add(unzigzag(delta) as u32);
            words.push(word);
            prev = word;
        }
        words_to_bytes(&words)
    }

    fn compressed_bits(&self, line: &[u8]) -> usize {
        let words = line_words(line);
        let mut bits = 32usize;
        let mut prev = words[0];
        for &word in &words[1..] {
            let delta = zigzag(word.wrapping_sub(prev) as i32);
            let (_, width) = Self::delta_width(delta);
            bits += 2 + width as usize;
            prev = word;
        }
        bits
    }
}

/// Baseline: zero elimination. A 1-bit-per-word presence mask followed by
/// the non-zero words verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroRunCodec;

impl ZeroRunCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        ZeroRunCodec
    }
}

impl LineCodec for ZeroRunCodec {
    fn name(&self) -> &'static str {
        "zrun"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        let words = line_words(line);
        let mut w = BitWriter::new();
        for &word in &words {
            w.write((word != 0) as u32, 1);
        }
        for &word in &words {
            if word != 0 {
                w.write(word, 32);
            }
        }
        w.into_bytes()
    }

    fn decompress(&self, data: &[u8], line_len: usize) -> Vec<u8> {
        let n = line_len / 4;
        let mut r = BitReader::new(data);
        let mask: Vec<bool> = (0..n)
            .map(|_| r.read(1).expect("truncated zero stream") == 1)
            .collect();
        let words: Vec<u32> = mask
            .iter()
            .map(|&present| {
                if present {
                    r.read(32).expect("truncated zero stream")
                } else {
                    0
                }
            })
            .collect();
        words_to_bytes(&words)
    }

    fn compressed_bits(&self, line: &[u8]) -> usize {
        let words = line_words(line);
        words.len() + 32 * words.iter().filter(|&&w| w != 0).count()
    }
}

/// Baseline: an FPC-style per-word pattern codec. Each word carries a 3-bit
/// tag selecting one of: zero, 4-bit sign-extended, 8-bit sign-extended,
/// 16-bit sign-extended, 16-bit zero-extended (halfword), or verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpcCodec;

impl FpcCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        FpcCodec
    }

    fn classify(word: u32) -> (u32, u32) {
        let s = word as i32;
        if word == 0 {
            (0, 0)
        } else if (-8..8).contains(&s) {
            (1, 4)
        } else if (-128..128).contains(&s) {
            (2, 8)
        } else if (-32768..32768).contains(&s) {
            (3, 16)
        } else if word <= 0xFFFF {
            (4, 16)
        } else {
            (5, 32)
        }
    }
}

impl LineCodec for FpcCodec {
    fn name(&self) -> &'static str {
        "fpc"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        let words = line_words(line);
        let mut w = BitWriter::new();
        for &word in &words {
            let (tag, width) = Self::classify(word);
            w.write(tag, 3);
            if width > 0 {
                w.write(
                    word & (if width == 32 {
                        u32::MAX
                    } else {
                        (1 << width) - 1
                    }),
                    width,
                );
            }
        }
        w.into_bytes()
    }

    fn decompress(&self, data: &[u8], line_len: usize) -> Vec<u8> {
        let n = line_len / 4;
        let mut r = BitReader::new(data);
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.read(3).expect("truncated fpc stream");
            let word = match tag {
                0 => 0,
                1 => ((r.read(4).expect("truncated") as i32) << 28 >> 28) as u32,
                2 => ((r.read(8).expect("truncated") as i32) << 24 >> 24) as u32,
                3 => ((r.read(16).expect("truncated") as i32) << 16 >> 16) as u32,
                4 => r.read(16).expect("truncated"),
                _ => r.read(32).expect("truncated"),
            };
            words.push(word);
        }
        words_to_bytes(&words)
    }

    fn compressed_bits(&self, line: &[u8]) -> usize {
        line_words(line)
            .iter()
            .map(|&w| 3 + Self::classify(w).1 as usize)
            .sum()
    }
}

/// The no-compression reference codec (identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawCodec;

impl RawCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        RawCodec
    }
}

impl LineCodec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        let _ = line_words(line); // validate
        line.to_vec()
    }

    fn decompress(&self, data: &[u8], line_len: usize) -> Vec<u8> {
        data[..line_len].to_vec()
    }

    fn compressed_bits(&self, line: &[u8]) -> usize {
        line.len() * 8
    }
}

/// A line-compression hardware choice: the write-back codec of the
/// single-core platform and the per-bank codec of a shared LLC are the
/// same datapaths, chosen and priced through this one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// No compression hardware (no codec energy or area).
    Off,
    /// The 1B.2 differential codec ([`DiffCodec`]).
    Diff,
    /// Zero-run elimination ([`ZeroRunCodec`]).
    Zrun,
    /// Frequent-pattern compression ([`FpcCodec`]).
    Fpc,
}

impl CodecKind {
    /// Every choice, in axis order.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Off,
        CodecKind::Diff,
        CodecKind::Zrun,
        CodecKind::Fpc,
    ];

    /// Report/CLI key.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Off => "off",
            CodecKind::Diff => "diff",
            CodecKind::Zrun => "zrun",
            CodecKind::Fpc => "fpc",
        }
    }

    /// Parses a report/CLI key (case-insensitive).
    pub fn parse(s: &str) -> Option<CodecKind> {
        CodecKind::ALL
            .into_iter()
            .find(|c| c.name() == s.trim().to_ascii_lowercase())
    }

    /// The codec implementation, or `None` when compression is off.
    pub fn codec(self) -> Option<Box<dyn LineCodec>> {
        match self {
            CodecKind::Off => None,
            CodecKind::Diff => Some(Box::new(DiffCodec::new())),
            CodecKind::Zrun => Some(Box::new(ZeroRunCodec::new())),
            CodecKind::Fpc => Some(Box::new(FpcCodec::new())),
        }
    }

    /// First-order gate count of one instance of the codec datapath
    /// (zero when off).
    pub fn gates(self) -> u64 {
        match self {
            CodecKind::Off => 0,
            CodecKind::Zrun => 900,
            CodecKind::Diff => 1200,
            CodecKind::Fpc => 2000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_util::{Props, Rng};

    fn line_of(words: &[u32]) -> Vec<u8> {
        words_to_bytes(words)
    }

    #[test]
    fn codec_kinds_roundtrip_and_only_off_has_no_hardware() {
        for kind in CodecKind::ALL {
            assert_eq!(CodecKind::parse(kind.name()), Some(kind));
            assert_eq!(
                CodecKind::parse(&format!(" {} ", kind.name().to_ascii_uppercase())),
                Some(kind)
            );
            // Off is the one choice without hardware: no codec, no gates.
            let off = kind == CodecKind::Off;
            assert_eq!(kind.codec().is_none(), off, "{kind:?}");
            assert_eq!(kind.gates() == 0, off, "{kind:?}");
        }
        assert_eq!(CodecKind::parse("raw"), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i32, 1, -1, 2, -2, i32::MAX, i32::MIN, 1000, -1000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn diff_compresses_linear_ramp_hard() {
        let words: Vec<u32> = (0..16).map(|i| 0x1000 + i * 4).collect();
        let line = line_of(&words);
        let codec = DiffCodec::new();
        // 32 + 15 × (2 + 4) = 122 bits vs 512 raw.
        assert_eq!(codec.compressed_bits(&line), 122);
        assert_eq!(codec.decompress(&codec.compress(&line), line.len()), line);
    }

    #[test]
    fn diff_handles_random_data_without_blowup_beyond_tags() {
        let words: Vec<u32> = (0..8)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9))
            .collect();
        let line = line_of(&words);
        let codec = DiffCodec::new();
        // Worst case: 32 + 7 × 34 = 270 bits for a 256-bit line.
        assert!(codec.compressed_bits(&line) <= 270);
        assert_eq!(codec.decompress(&codec.compress(&line), line.len()), line);
    }

    #[test]
    fn zero_codec_kills_zero_lines() {
        let line = line_of(&[0; 8]);
        let codec = ZeroRunCodec::new();
        assert_eq!(codec.compressed_bits(&line), 8); // just the mask
        assert_eq!(codec.decompress(&codec.compress(&line), line.len()), line);
    }

    #[test]
    fn fpc_tags_cover_patterns() {
        assert_eq!(FpcCodec::classify(0), (0, 0));
        assert_eq!(FpcCodec::classify(7), (1, 4));
        assert_eq!(FpcCodec::classify(0xFFFF_FFFF), (1, 4)); // -1
        assert_eq!(FpcCodec::classify(100), (2, 8));
        assert_eq!(FpcCodec::classify(30_000), (3, 16));
        assert_eq!(FpcCodec::classify(0xABCD), (4, 16));
        assert_eq!(FpcCodec::classify(0xDEAD_BEEF), (5, 32));
    }

    #[test]
    fn raw_codec_is_identity() {
        let line = line_of(&[1, 2, 3, 4]);
        let codec = RawCodec::new();
        assert_eq!(codec.compress(&line), line);
        assert_eq!(codec.compressed_bits(&line), line.len() * 8);
    }

    #[test]
    fn codec_names_are_distinct() {
        let names = [
            DiffCodec::new().name(),
            ZeroRunCodec::new().name(),
            FpcCodec::new().name(),
            RawCodec::new().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn odd_line_length_panics() {
        DiffCodec::new().compress(&[1, 2, 3]);
    }

    fn arb_line(rng: &mut Rng) -> Vec<u8> {
        let len = rng.gen_range(1..=32usize);
        let words: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        words_to_bytes(&words)
    }

    /// Lines with realistic structure: smooth deltas, repeated values, zeros.
    fn structured_line(rng: &mut Rng) -> Vec<u8> {
        let mut words = vec![rng.next_u32()];
        for _ in 0..rng.gen_range(1..=31usize) {
            let prev = *words.last().expect("non-empty");
            let delta = rng.gen_range(-512i32..512);
            words.push(prev.wrapping_add(delta as u32));
        }
        words_to_bytes(&words)
    }

    #[test]
    fn diff_roundtrips() {
        Props::new("diff codec roundtrips arbitrary lines").run(|rng| {
            let line = arb_line(rng);
            let c = DiffCodec::new();
            assert_eq!(c.decompress(&c.compress(&line), line.len()), line);
        });
    }

    #[test]
    fn zero_roundtrips() {
        Props::new("zero-run codec roundtrips arbitrary lines").run(|rng| {
            let line = arb_line(rng);
            let c = ZeroRunCodec::new();
            assert_eq!(c.decompress(&c.compress(&line), line.len()), line);
        });
    }

    #[test]
    fn fpc_roundtrips() {
        Props::new("fpc codec roundtrips arbitrary lines").run(|rng| {
            let line = arb_line(rng);
            let c = FpcCodec::new();
            assert_eq!(c.decompress(&c.compress(&line), line.len()), line);
        });
    }

    #[test]
    fn compressed_bits_matches_compress_len() {
        Props::new("compressed_bits agrees with compress()").run(|rng| {
            let line = arb_line(rng);
            for c in [
                &DiffCodec::new() as &dyn LineCodec,
                &ZeroRunCodec::new(),
                &FpcCodec::new(),
            ] {
                let bits = c.compressed_bits(&line);
                let bytes = c.compress(&line).len();
                // compress() pads to whole bytes.
                assert_eq!(bytes, bits.div_ceil(8), "codec {}", c.name());
            }
        });
    }

    #[test]
    fn diff_beats_raw_on_structured_data() {
        Props::new("diff codec never expands structured lines").run(|rng| {
            let line = structured_line(rng);
            let c = DiffCodec::new();
            assert!(c.compressed_bits(&line) <= line.len() * 8);
        });
    }
}
