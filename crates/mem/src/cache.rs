//! A data-carrying set-associative cache simulator.

use crate::{Backing, MemError};

/// Geometry of a [`Cache`]. Every cache is write-back with
/// write-allocate (stores dirty the line; dirty lines reach the backing on
/// eviction or [`Cache::flush`], the policy the 1B.2 compression scheme
/// targets) and replaces the least-recently used way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    line_bytes: u32,
    assoc: u32,
}

impl CacheConfig {
    /// Creates a configuration: `size_bytes` capacity, `line_bytes` lines,
    /// `assoc`-way associativity.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidGeometry`] unless all of the following
    /// hold: sizes are powers of two, `line_bytes ≥ 4`,
    /// `assoc ≥ 1`, and `size_bytes` is divisible by `line_bytes × assoc`.
    pub fn new(size_bytes: u64, line_bytes: u32, assoc: u32) -> Result<Self, MemError> {
        if size_bytes == 0 || !size_bytes.is_power_of_two() {
            return Err(MemError::InvalidGeometry(
                "size must be a non-zero power of two",
            ));
        }
        if line_bytes < 4 || !line_bytes.is_power_of_two() {
            return Err(MemError::InvalidGeometry(
                "line must be a power of two of at least 4",
            ));
        }
        if assoc == 0 {
            return Err(MemError::InvalidGeometry(
                "associativity must be at least 1",
            ));
        }
        let way_bytes = line_bytes as u64 * assoc as u64;
        if size_bytes < way_bytes || !size_bytes.is_multiple_of(way_bytes) {
            return Err(MemError::InvalidGeometry(
                "size must be a multiple of line × assoc",
            ));
        }
        let sets = size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(MemError::InvalidGeometry(
                "number of sets must be a power of two",
            ));
        }
        Ok(CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
        })
    }

    /// Cache capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes as u64 * self.assoc as u64)
    }
}

/// Hit/miss and memory-side traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses presented to the cache.
    pub reads: u64,
    /// Write accesses presented to the cache.
    pub writes: u64,
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Lines fetched from the backing.
    pub fills: u64,
    /// Dirty lines written to the backing (evictions and flushes).
    pub writebacks: u64,
    /// Clean lines dropped on eviction.
    pub clean_evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit ratio in `0.0..=1.0` (zero for an idle cache).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
    data: Vec<u8>,
}

/// A set-associative, data-carrying cache.
///
/// The cache stores real line contents so evictions hand complete
/// `(address, data)` pairs to the backing — the input of the write-back
/// compression flow. See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with all lines invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        let line = Line {
            tag: 0,
            valid: false,
            dirty: false,
            stamp: 0,
            data: vec![0; cfg.line_bytes as usize],
        };
        let sets = (0..cfg.num_sets())
            .map(|_| vec![line.clone(); cfg.assoc as usize])
            .collect();
        Cache {
            cfg,
            sets,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_shift(&self) -> u32 {
        self.cfg.line_bytes.trailing_zeros()
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift()) & (self.cfg.num_sets() - 1)) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.line_shift() + self.cfg.num_sets().trailing_zeros())
    }

    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// Rebuilds a line's base address from its set index and tag.
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        let sets_bits = self.cfg.num_sets().trailing_zeros();
        ((tag << sets_bits) | set as u64) << self.line_shift()
    }

    /// Reads `buf.len()` bytes starting at `addr`, filling on miss.
    /// Accesses that straddle line boundaries are split per line.
    pub fn read(&mut self, addr: u64, buf: &mut [u8], mut backing: impl Backing) {
        self.stats.reads += 1;
        let mut all_hit = true;
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let base = self.line_base(a);
            let line_off = (a - base) as usize;
            let n = ((self.cfg.line_bytes as usize) - line_off).min(buf.len() - done);
            let (way, hit) = self.lookup_or_fill(a, &mut backing);
            all_hit &= hit;
            let set = self.set_index(a);
            buf[done..done + n].copy_from_slice(&self.sets[set][way].data[line_off..line_off + n]);
            done += n;
        }
        if all_hit {
            self.stats.read_hits += 1;
        }
    }

    /// Writes `data` starting at `addr`, allocating on miss and dirtying
    /// the line.
    pub fn write(&mut self, addr: u64, data: &[u8], mut backing: impl Backing) {
        self.stats.writes += 1;
        let mut all_hit = true;
        let mut done = 0usize;
        while done < data.len() {
            let a = addr + done as u64;
            let base = self.line_base(a);
            let line_off = (a - base) as usize;
            let n = ((self.cfg.line_bytes as usize) - line_off).min(data.len() - done);
            let (way, hit) = self.lookup_or_fill(a, &mut backing);
            all_hit &= hit;
            let set = self.set_index(a);
            let line = &mut self.sets[set][way];
            line.data[line_off..line_off + n].copy_from_slice(&data[done..done + n]);
            line.dirty = true;
            done += n;
        }
        if all_hit {
            self.stats.write_hits += 1;
        }
    }

    /// Reads a little-endian 32-bit word.
    pub fn read_word(&mut self, addr: u64, backing: impl Backing) -> u32 {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf, backing);
        u32::from_le_bytes(buf)
    }

    /// Writes a little-endian 32-bit word.
    pub fn write_word(&mut self, addr: u64, value: u32, backing: impl Backing) {
        self.write(addr, &value.to_le_bytes(), backing);
    }

    /// Writes every dirty line to the backing and marks the cache clean.
    pub fn flush(&mut self, mut backing: impl Backing) {
        for set_idx in 0..self.sets.len() {
            for way in 0..self.sets[set_idx].len() {
                let (valid, dirty, tag) = {
                    let l = &self.sets[set_idx][way];
                    (l.valid, l.dirty, l.tag)
                };
                if valid && dirty {
                    let addr = self.addr_of(set_idx, tag);
                    backing.write_block(addr, &self.sets[set_idx][way].data);
                    self.sets[set_idx][way].dirty = false;
                    self.stats.writebacks += 1;
                }
            }
        }
    }

    fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].iter().position(|l| l.valid && l.tag == tag)
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.sets[set][way].stamp = self.tick;
    }

    /// Returns `(way, was_hit)`, filling the line on a miss.
    fn lookup_or_fill(&mut self, addr: u64, backing: &mut impl Backing) -> (usize, bool) {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        if let Some(way) = self.probe(set, tag) {
            self.touch(set, way);
            return (way, true);
        }
        // Miss: choose a victim (invalid first, then lowest stamp).
        let way = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.stamp))
            .map(|(i, _)| i)
            .expect("associativity is at least 1");
        // Evict.
        let (v_valid, v_dirty, v_tag) = {
            let l = &self.sets[set][way];
            (l.valid, l.dirty, l.tag)
        };
        if v_valid {
            if v_dirty {
                let victim_addr = self.addr_of(set, v_tag);
                backing.write_block(victim_addr, &self.sets[set][way].data);
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
        }
        // Fill.
        let base = self.line_base(addr);
        backing.read_block(base, &mut self.sets[set][way].data);
        self.stats.fills += 1;
        self.tick += 1;
        let line = &mut self.sets[set][way];
        line.tag = tag;
        line.valid = true;
        line.dirty = false;
        line.stamp = self.tick;
        (way, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatMemory;

    fn cache(size: u64, line: u32, assoc: u32) -> Cache {
        Cache::new(CacheConfig::new(size, line, assoc).unwrap())
    }

    /// A memory that logs every line written back to it.
    #[derive(Default)]
    struct WriteBackLog {
        mem: FlatMemory,
        lines: Vec<(u64, Vec<u8>)>,
    }

    impl Backing for WriteBackLog {
        fn read_block(&mut self, addr: u64, buf: &mut [u8]) {
            self.mem.read_block(addr, buf);
        }

        fn write_block(&mut self, addr: u64, data: &[u8]) {
            self.lines.push((addr, data.to_vec()));
            self.mem.write_block(addr, data);
        }
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(1 << 12, 32, 2).is_ok());
        assert!(CacheConfig::new(0, 32, 2).is_err());
        assert!(CacheConfig::new(1 << 12, 3, 2).is_err());
        assert!(CacheConfig::new(1 << 12, 32, 0).is_err());
        assert!(CacheConfig::new(32, 32, 2).is_err()); // smaller than one way
    }

    #[test]
    fn geometry_accessors() {
        let cfg = CacheConfig::new(1 << 12, 32, 2).unwrap();
        assert_eq!(cfg.num_sets(), 64);
        assert_eq!(cfg.size_bytes(), 4096);
        assert_eq!(cfg.line_bytes(), 32);
        assert_eq!(cfg.assoc(), 2);
    }

    #[test]
    fn read_after_write_returns_value() {
        let mut c = cache(1 << 12, 32, 2);
        let mut m = FlatMemory::new();
        c.write_word(0x1234, 0xCAFE_F00D, &mut m);
        assert_eq!(c.read_word(0x1234, &mut m), 0xCAFE_F00D);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = cache(1 << 12, 32, 2);
        let mut m = FlatMemory::new();
        c.read_word(0x100, &mut m);
        c.read_word(0x104, &mut m); // same line
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_line() {
        // Direct-mapped, 2 sets of 16 B lines -> addresses 0 and 32 collide.
        let mut c = cache(32, 16, 1);
        let mut m = WriteBackLog::default();
        c.write_word(0, 0x1111_1111, &mut m);
        c.write_word(32, 0x2222_2222, &mut m); // evicts dirty line 0
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(m.lines.len(), 1);
        let (addr, data) = &m.lines[0];
        assert_eq!(*addr, 0);
        assert_eq!(&data[0..4], &0x1111_1111u32.to_le_bytes());
        // The evicted value is durable in the backing.
        assert_eq!(m.mem.read_u32(0), 0x1111_1111);
    }

    #[test]
    fn clean_eviction_does_not_write_back() {
        let mut c = cache(32, 16, 1);
        let mut m = FlatMemory::new();
        c.read_word(0, &mut m);
        c.read_word(32, &mut m); // evicts clean line
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().clean_evictions, 1);
    }

    #[test]
    fn lru_keeps_recently_used_way() {
        // One set, 2 ways, 16 B lines. Lines A=0, B=64, C=128 all map to set 0.
        let mut c = cache(32, 16, 2);
        let mut m = FlatMemory::new();
        c.read_word(0, &mut m); // A
        c.read_word(64, &mut m); // B
        c.read_word(0, &mut m); // touch A
        c.read_word(128, &mut m); // C evicts B (LRU)
        c.read_word(0, &mut m); // A still resident
        assert_eq!(c.stats().fills, 3);
        assert_eq!(c.stats().read_hits, 2);
    }

    #[test]
    fn flush_writes_all_dirty_lines() {
        let mut c = cache(1 << 10, 16, 2);
        let mut m = WriteBackLog::default();
        c.write_word(0x00, 1, &mut m);
        c.write_word(0x40, 2, &mut m);
        c.write_word(0x80, 3, &mut m);
        c.flush(&mut m);
        assert_eq!(c.stats().writebacks, 3);
        let mut victims: Vec<(u64, u32)> = m
            .lines
            .iter()
            .map(|(addr, data)| (*addr, u32::from_le_bytes(data[..4].try_into().unwrap())))
            .collect();
        victims.sort_unstable();
        assert_eq!(victims, [(0x00, 1), (0x40, 2), (0x80, 3)]);
        // Flushing twice writes nothing new.
        c.flush(&mut m);
        assert_eq!(c.stats().writebacks, 3);
        assert_eq!(m.lines.len(), 3);
        assert_eq!(m.mem.read_u32(0x40), 2);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = cache(1 << 10, 16, 1);
        let mut m = FlatMemory::new();
        c.write(14, &[1, 2, 3, 4], &mut m); // crosses the 16-byte boundary
        assert_eq!(c.stats().fills, 2);
        let mut buf = [0u8; 4];
        c.read(14, &mut buf, &mut m);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn cache_contents_match_memory_model() {
        // Differential test: a cache in front of FlatMemory must behave like
        // FlatMemory alone for any access sequence.
        let mut c = cache(1 << 8, 16, 2); // tiny: lots of evictions
        let mut m = FlatMemory::new();
        let mut reference = FlatMemory::new();
        let addrs = [0u64, 16, 256, 272, 0, 512, 768, 16, 1024, 256];
        for (i, &a) in addrs.iter().enumerate() {
            let v = (i as u32).wrapping_mul(0x9E37_79B9);
            c.write_word(a, v, &mut m);
            reference.write_u32(a, v);
        }
        for &a in &addrs {
            assert_eq!(c.read_word(a, &mut m), reference.read_u32(a), "addr {a:#x}");
        }
        c.flush(&mut m);
        for &a in &addrs {
            assert_eq!(m.read_u32(a), reference.read_u32(a));
        }
    }

    #[test]
    fn stats_helpers() {
        let mut c = cache(1 << 10, 16, 1);
        let mut m = FlatMemory::new();
        c.read_word(0, &mut m);
        c.read_word(0, &mut m);
        let s = *c.stats();
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
