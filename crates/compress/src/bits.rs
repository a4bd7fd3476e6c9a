//! MSB-first bit-level writer and reader used by the line codecs.

/// Writes bit fields MSB-first into a growing byte buffer.
///
/// ```
/// use lpmem_compress::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write(0b101, 3);
/// w.write(0xFF, 8);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read(3), Some(0b101));
/// assert_eq!(r.read(8), Some(0xFF));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the trailing byte (0..8).
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 32.
    pub fn write(&mut self, value: u32, width: u32) {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (bit as u8) << (7 - self.used);
            self.used = (self.used + 1) % 8;
        }
    }

    /// Finishes, returning the zero-padded byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bit fields MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `width` bits; returns `None` when the buffer is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 32.
    pub fn read(&mut self, width: u32) -> Option<u32> {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut out = 0u32;
        for _ in 0..width {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | bit as u32;
            self.pos += 1;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_util::Props;

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        w.write(1, 1);
        w.write(0, 1);
        w.write(1, 1);
        assert_eq!(w.into_bytes(), vec![0b1010_0000]);
    }

    #[test]
    fn cross_byte_fields() {
        let mut w = BitWriter::new();
        w.write(0x3FF, 10); // ten ones
        w.write(0, 2);
        w.write(0xF, 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(10), Some(0x3FF));
        assert_eq!(r.read(2), Some(0));
        assert_eq!(r.read(4), Some(0xF));
    }

    #[test]
    fn full_width_words() {
        let mut w = BitWriter::new();
        w.write(0xDEAD_BEEF, 32);
        let bytes = w.into_bytes();
        assert_eq!(BitReader::new(&bytes).read(32), Some(0xDEAD_BEEF));
    }

    #[test]
    fn reader_returns_none_at_end() {
        let mut w = BitWriter::new();
        w.write(5, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(5));
        // The byte is padded to 8 bits, so 5 more bits exist but not 9.
        assert!(r.read(9).is_none());
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=32")]
    fn zero_width_write_panics() {
        BitWriter::new().write(0, 0);
    }

    #[test]
    fn roundtrip_arbitrary_fields() {
        Props::new("bit fields roundtrip through writer and reader").run(|rng| {
            let len = rng.gen_range(0..64usize);
            let fields: Vec<(u32, u32)> = (0..len)
                .map(|_| (rng.next_u32(), rng.gen_range(1..=32u32)))
                .collect();
            let mut w = BitWriter::new();
            for &(v, width) in &fields {
                w.write(v, width);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &(v, width) in &fields {
                let mask = if width == 32 {
                    u32::MAX
                } else {
                    (1 << width) - 1
                };
                assert_eq!(r.read(width), Some(v & mask));
            }
        });
    }
}
