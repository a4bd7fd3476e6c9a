//! Backing (memory-side) storage behind the cache.

use std::collections::HashMap;

/// The memory-side interface a cache talks to: line fills and line
/// write-backs.
///
/// A mutable reference to a `Backing` also implements `Backing`, so callers
/// can pass `&mut mem` ([C-RW-VALUE]-style flexibility).
///
/// [C-RW-VALUE]: https://rust-lang.github.io/api-guidelines/interoperability.html
pub trait Backing {
    /// Reads `buf.len()` bytes starting at `addr` (a full line on fills).
    fn read_block(&mut self, addr: u64, buf: &mut [u8]);

    /// Writes `data` starting at `addr` (a full dirty line on
    /// write-backs).
    fn write_block(&mut self, addr: u64, data: &[u8]);
}

impl<B: Backing + ?Sized> Backing for &mut B {
    fn read_block(&mut self, addr: u64, buf: &mut [u8]) {
        (**self).read_block(addr, buf)
    }
    fn write_block(&mut self, addr: u64, data: &[u8]) {
        (**self).write_block(addr, data)
    }
}

const PAGE_SHIFT: u32 = 12;

/// Size in bytes of a [`FlatMemory`] page (4 KiB). Public so callers that
/// mirror memory into denser structures (e.g. the TinyRISC compiled
/// backend's data arena) can match the materialization granularity
/// exactly — `resident_pages` stays comparable across such mirrors.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable memory backed by 4 KiB pages.
///
/// Unwritten bytes read as zero, so a fresh `FlatMemory` is a valid image
/// for any address. `FlatMemory` doubles as the functional data memory of
/// the TinyRISC simulator.
///
/// ```
/// use lpmem_mem::FlatMemory;
///
/// let mut m = FlatMemory::new();
/// m.write_u32(0x8000, 0x0102_0304);
/// assert_eq!(m.read_u32(0x8000), 0x0102_0304);
/// assert_eq!(m.read_u8(0x8000), 0x04); // little-endian
/// assert_eq!(m.read_u32(0xdead_0000), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlatMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl FlatMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        FlatMemory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = value;
    }

    /// Reads a little-endian 32-bit word (no alignment requirement).
    ///
    /// Accesses that stay within one page — the overwhelmingly common
    /// case — cost a single page lookup; only page-straddling reads fall
    /// back to the byte path. This is the hot edge of the TinyRISC
    /// simulator (every load, and every instruction fetch on the
    /// interpreter backend).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 4 {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr + 1),
                self.read_u8(addr + 2),
                self.read_u8(addr + 3),
            ])
        }
    }

    /// Writes a little-endian 32-bit word (no alignment requirement).
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 4 {
            let page = self.page_mut(addr);
            page[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Reads a little-endian 16-bit halfword.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 2 {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u16::from_le_bytes([p[off], p[off + 1]]),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)])
        }
    }

    /// Writes a little-endian 16-bit halfword.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 2 {
            let page = self.page_mut(addr);
            page[off..off + 2].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// Runs page by page (one lookup per touched page, not per byte) so
    /// bulk loads — program segments, dirty-page write-back — stay cheap.
    pub fn load(&mut self, addr: u64, data: &[u8]) {
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(data.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&data[..n]);
            // Wrapping: the bump after the final chunk may pass the top of
            // the address space; it is never dereferenced.
            addr = addr.wrapping_add(n as u64);
            data = &data[n..];
        }
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Snapshot of every materialized page as `(base address, bytes)`,
    /// sorted by base address (deterministic despite the hash-map store).
    pub fn pages_sorted(&self) -> Vec<(u64, &[u8; PAGE_SIZE])> {
        let mut pages: Vec<(u64, &[u8; PAGE_SIZE])> = self
            .pages
            .iter()
            .map(|(idx, page)| (idx << PAGE_SHIFT, &**page))
            .collect();
        pages.sort_unstable_by_key(|&(base, _)| base);
        pages
    }
}

impl Backing for FlatMemory {
    /// Copies page by page, like [`FlatMemory::load`]: one lookup per
    /// touched page, zeros for pages never written.
    fn read_block(&mut self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let at = addr.wrapping_add(done as u64);
            let off = (at as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let chunk = &mut buf[done..done + n];
            match self.pages.get(&(at >> PAGE_SHIFT)) {
                Some(page) => chunk.copy_from_slice(&page[off..off + n]),
                None => chunk.fill(0),
            }
            done += n;
        }
    }

    fn write_block(&mut self, addr: u64, data: &[u8]) {
        self.load(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let m = FlatMemory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 4), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn word_roundtrip_is_little_endian() {
        let mut m = FlatMemory::new();
        m.write_u32(100, 0xA1B2_C3D4);
        assert_eq!(m.read_u8(100), 0xD4);
        assert_eq!(m.read_u8(103), 0xA1);
        assert_eq!(m.read_u32(100), 0xA1B2_C3D4);
        assert_eq!(m.read_u16(100), 0xC3D4);
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = FlatMemory::new();
        let addr = PAGE_SIZE as u64 - 2; // straddles pages 0 and 1
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn pages_sorted_is_ordered_and_complete() {
        let mut m = FlatMemory::new();
        // Touch pages out of address order.
        m.write_u8(5 * PAGE_SIZE as u64, 3);
        m.write_u8(0, 1);
        m.write_u8(2 * PAGE_SIZE as u64 + 7, 2);
        let sorted = m.pages_sorted();
        let bases: Vec<u64> = sorted.iter().map(|&(b, _)| b).collect();
        assert_eq!(bases, vec![0, 2 * PAGE_SIZE as u64, 5 * PAGE_SIZE as u64]);
        assert_eq!(sorted[0].1[0], 1);
        assert_eq!(sorted[1].1[7], 2);
        assert_eq!(sorted[2].1[0], 3);
    }

    #[test]
    fn bulk_load_spans_pages() {
        let mut m = FlatMemory::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * PAGE_SIZE).collect();
        let base = PAGE_SIZE as u64 - 100; // misaligned, spans 4 pages
        m.load(base, &data);
        assert_eq!(m.resident_pages(), 4);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), *b, "byte {i}");
        }
    }

    #[test]
    fn block_io_roundtrips() {
        let mut m = FlatMemory::new();
        let data: Vec<u8> = (0u8..32).collect();
        m.write_block(0x2000, &data);
        let mut buf = [0u8; 32];
        m.read_block(0x2000, &mut buf);
        assert_eq!(&buf[..], &data[..]);

        // A block over a page boundary, and one running on into a page
        // never written, read back exactly as `read_u8` sees them.
        let page = PAGE_SIZE as u64;
        m.write_block(3 * page - 8, &data[..16]);
        m.write_block(4 * page - 20, &data[16..]);
        for base in [3 * page - 12, 4 * page - 16] {
            let mut buf = [0xAAu8; 32];
            m.read_block(base, &mut buf);
            for (i, b) in buf.iter().enumerate() {
                assert_eq!(*b, m.read_u8(base + i as u64), "byte {i} of {base:#x}");
            }
        }
        assert_eq!(m.resident_pages(), 2, "reads materialize no page");
    }

    #[test]
    fn mut_ref_is_a_backing() {
        fn takes_backing(b: impl Backing) {
            let _ = b;
        }
        let mut m = FlatMemory::new();
        takes_backing(&mut m);
        m.write_u8(0, 7); // still usable afterwards
        assert_eq!(m.read_u8(0), 7);
    }
}
