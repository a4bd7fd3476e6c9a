//! Energy-driven data compression for cache write-backs: the core
//! contribution of DATE 2003 1B.2 (*"A New Algorithm for Energy-Driven Data
//! Compression in VLIW Embedded Processors"*, Macii, Macii, Crudo, Zafalon).
//!
//! The scheme: when the D-cache evicts a dirty line, the line is compressed
//! by a small hardware unit **before** the off-chip write; if the encoded
//! size clears a threshold, the memory write moves fewer bus beats (and the
//! later refill reads fewer beats back). Off-chip beats cost three orders of
//! magnitude more than the codec's switching energy, so even modest
//! compression ratios save total system energy.
//!
//! The crate provides:
//!
//! * [`DiffCodec`] — the paper's differential scheme (word deltas, zigzag,
//!   variable-width packing), bit-exact with a decoder;
//! * [`ZeroRunCodec`], [`FpcCodec`] — baseline codecs for ablation **A2**;
//! * [`CompressedMemoryModel`] — the per-line storage decision: its
//!   `write_back` stores an evicted line compressed or raw and returns the
//!   beats moved, and it remembers which lines live compressed so refills
//!   are credited too.
//!
//! # Example
//!
//! ```
//! use lpmem_compress::{DiffCodec, LineCodec};
//!
//! // A smooth signal buffer: near-constant deltas compress well.
//! let words: Vec<u32> = (0..8).map(|i| 1000 + 3 * i).collect();
//! let line: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
//! let codec = DiffCodec::new();
//! let encoded = codec.compress(&line);
//! assert!(encoded.len() < line.len() / 2);
//! assert_eq!(codec.decompress(&encoded, line.len()), line);
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod codec;
pub mod model;

pub use bits::{BitReader, BitWriter};
pub use codec::{CodecKind, DiffCodec, FpcCodec, LineCodec, RawCodec, ZeroRunCodec};
pub use model::CompressedMemoryModel;
