//! Memory-hierarchy simulation: caches and backing memory.
//!
//! This crate rebuilds the simulator substrate the DATE 2003 1B.2 evaluation
//! ran on (Lx-ST200 D-cache RTL / SimpleScalar): a configurable,
//! **data-carrying** set-associative cache in front of a sparse
//! [`FlatMemory`]. Carrying real line data matters because the write-back
//! compression flow compresses the *contents* of evicted dirty lines, not
//! just their addresses.
//!
//! A [`Backing`] is whatever lies behind a cache: it supplies each line
//! the cache fills and takes each dirty line the cache writes back, at
//! the moment of the miss or eviction. [`FlatMemory`] is the plain next
//! level; the compression flow's backing prices each line through its
//! codec, and each CMP core's L1 hands its lines to the shared LLC the
//! same way. The cache's own [`CacheStats`] count the fills and
//! write-backs.
//!
//! # Example
//!
//! ```
//! use lpmem_mem::{Cache, CacheConfig, FlatMemory};
//!
//! # fn main() -> Result<(), lpmem_mem::MemError> {
//! let cfg = CacheConfig::new(1 << 12, 32, 2)?; // 4 KiB, 32 B lines, 2-way
//! let mut cache = Cache::new(cfg);
//! let mut mem = FlatMemory::new();
//!
//! cache.write_word(0x1000, 0xdead_beef, &mut mem);
//! assert_eq!(mem.read_u32(0x1000), 0); // the store sits in the cache
//! cache.flush(&mut mem); // forces the dirty line out
//! assert_eq!(mem.read_u32(0x1000), 0xdead_beef);
//! assert_eq!(cache.stats().writebacks, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backing;
pub mod cache;

pub use backing::{Backing, FlatMemory, PAGE_SIZE};
pub use cache::{Cache, CacheConfig, CacheStats};

/// Errors produced when configuring the memory hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A size or line parameter is zero, not a power of two, or inconsistent
    /// (e.g. line larger than the cache).
    InvalidGeometry(&'static str),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::InvalidGeometry(what) => write!(f, "invalid cache geometry: {what}"),
        }
    }
}

impl std::error::Error for MemError {}
