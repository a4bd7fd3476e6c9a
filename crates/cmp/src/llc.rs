//! The shared NUCA last-level cache: tag/segment bookkeeping for
//! compressed lines across distributed banks.
//!
//! The model is tag-only (data lives in the cores' backing images); what
//! it tracks exactly is *placement*: which line sits in which bank, how
//! many quarter-line segments its compressed form occupies, and which
//! dirty lines each insertion evicts. Compression follows the
//! decoupled-variable-segment style of the compressed-LLC literature: a
//! line occupies 1–4 segments of `line_bytes/4`, a compressed bank holds
//! up to `2×ways` tags per set against the same `4×ways`-segment data
//! budget, and replacement is LRU by a global monotonic stamp — the
//! deterministic logical clock of the interleaved simulation.

/// Segments per uncompressed line (quarter-line granularity).
pub const SEGMENTS_PER_LINE: u32 = 4;

/// Geometry of the shared LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Number of NUCA banks.
    pub banks: u32,
    /// Capacity of one bank in bytes.
    pub bank_bytes: u64,
    /// Line size in bytes (inherited from the private L1s).
    pub line_bytes: u32,
    /// Uncompressed ways per set.
    pub ways: u32,
    /// Whether compressed placement is on (doubles the tag slots).
    pub compressed: bool,
}

impl LlcConfig {
    /// Sets per bank at the uncompressed geometry.
    pub fn sets_per_bank(&self) -> u64 {
        self.bank_bytes / (u64::from(self.line_bytes) * u64::from(self.ways))
    }

    /// Bytes per segment (quarter line).
    pub fn seg_bytes(&self) -> u32 {
        (self.line_bytes / SEGMENTS_PER_LINE).max(1)
    }

    /// Off-chip beats (4-byte words) per segment.
    pub fn seg_beats(&self) -> u64 {
        (u64::from(self.line_bytes) / 16).max(1)
    }

    /// Off-chip beats per full line.
    pub fn line_beats(&self) -> u64 {
        u64::from(self.line_bytes).div_ceil(4)
    }

    /// Tag slots per set: compressed banks track twice the tags so short
    /// lines can share a set's segment budget.
    pub fn tag_slots(&self) -> usize {
        self.ways as usize * if self.compressed { 2 } else { 1 }
    }

    /// Data-segment budget per set.
    pub fn seg_budget(&self) -> u64 {
        u64::from(self.ways) * u64::from(SEGMENTS_PER_LINE)
    }

    /// Number of segments a compressed encoding of `encoded_len` bytes
    /// occupies (always the full line when placement is uncompressed).
    pub fn segments_for(&self, encoded_len: usize) -> u32 {
        if !self.compressed {
            return SEGMENTS_PER_LINE;
        }
        let segs = encoded_len.div_ceil(self.seg_bytes() as usize);
        u32::try_from(segs.clamp(1, SEGMENTS_PER_LINE as usize))
            .expect("segment count clamped to 4")
    }
}

/// Per-bank access counters, all integer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcBankStats {
    /// Lookups routed to the bank.
    pub lookups: u64,
    /// Lookups that hit for a read (L1 fill served on-chip).
    pub read_hits: u64,
    /// Lookups that hit for a write (L1 write-back absorbed in place).
    pub write_hits: u64,
    /// Lines inserted on a miss.
    pub inserts: u64,
    /// Lines evicted to make room (clean or dirty).
    pub evictions: u64,
}

/// Outcome of one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Bank the line maps to.
    pub bank: u32,
    /// Whether the tag was present.
    pub hit: bool,
    /// Segments the line occupied before this access on a hit, or the
    /// segments just inserted on a miss.
    pub stored_segs: u32,
    /// Total segments of dirty lines this access evicted.
    pub evicted_dirty_segs: u64,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    segs: u32,
    dirty: bool,
    stamp: u64,
}

/// The shared NUCA LLC simulator.
#[derive(Debug, Clone)]
pub struct NucaLlc {
    cfg: LlcConfig,
    sets: Vec<Vec<Line>>,
    stats: Vec<LlcBankStats>,
    stamp: u64,
}

impl NucaLlc {
    /// Builds an empty LLC.
    ///
    /// # Panics
    ///
    /// Panics when the geometry leaves a bank without a complete set.
    pub fn new(cfg: LlcConfig) -> Self {
        assert!(cfg.banks > 0, "the LLC needs at least one bank");
        assert!(cfg.ways > 0, "LLC banks need at least one way");
        let sets = cfg.sets_per_bank();
        assert!(
            sets > 0,
            "bank of {} B cannot hold one set of {} {}-byte lines",
            cfg.bank_bytes,
            cfg.ways,
            cfg.line_bytes
        );
        let total = usize::try_from(u64::from(cfg.banks) * sets).expect("set count fits in usize");
        NucaLlc {
            cfg,
            sets: vec![Vec::new(); total],
            stats: vec![LlcBankStats::default(); cfg.banks as usize],
            stamp: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Per-bank counters, in bank order.
    pub fn stats(&self) -> &[LlcBankStats] {
        &self.stats
    }

    /// The NUCA home bank of `addr` as seen by `core`: consecutive lines
    /// interleave across banks, offset by the core index so the cores'
    /// private address spaces spread over the whole LLC.
    pub fn bank_of(&self, core: u32, addr: u64) -> u32 {
        let line = addr / u64::from(self.cfg.line_bytes);
        u32::try_from((line + u64::from(core)) % u64::from(self.cfg.banks))
            .expect("bank index below the u32 bank count")
    }

    fn set_index(&self, bank: u32, addr: u64) -> usize {
        let line = addr / u64::from(self.cfg.line_bytes);
        let set = (line / u64::from(self.cfg.banks)) % self.cfg.sets_per_bank();
        usize::try_from(u64::from(bank) * self.cfg.sets_per_bank() + set)
            .expect("set index fits in usize")
    }

    /// One lookup by `core` for the line containing `addr`, which
    /// occupies `segs` segments in its current encoding. A write is an
    /// absorbed L1 write-back (write-allocate, marks dirty, re-sizes the
    /// line); a read is an L1 fill request (inserts clean on a miss).
    pub fn access(&mut self, core: u32, addr: u64, segs: u32, write: bool) -> LlcAccess {
        debug_assert!((1..=SEGMENTS_PER_LINE).contains(&segs));
        let bank = self.bank_of(core, addr);
        let set_idx = self.set_index(bank, addr);
        let tag = (u64::from(core) << 48) | (addr / u64::from(self.cfg.line_bytes));
        self.stamp += 1;
        let stamp = self.stamp;
        self.stats[bank as usize].lookups += 1;

        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let stored = set[pos].segs;
            set[pos].stamp = stamp;
            if write {
                set[pos].dirty = true;
                set[pos].segs = segs;
                self.stats[bank as usize].write_hits += 1;
            } else {
                self.stats[bank as usize].read_hits += 1;
            }
            let evicted = self.shrink_to_budget(set_idx, bank, tag);
            return LlcAccess {
                bank,
                hit: true,
                stored_segs: stored,
                evicted_dirty_segs: evicted,
            };
        }

        set.push(Line {
            tag,
            segs,
            dirty: write,
            stamp,
        });
        self.stats[bank as usize].inserts += 1;
        let evicted = self.shrink_to_budget(set_idx, bank, tag);
        LlcAccess {
            bank,
            hit: false,
            stored_segs: segs,
            evicted_dirty_segs: evicted,
        }
    }

    /// Evicts LRU lines (never `keep`) until the set fits its tag-slot
    /// and segment budgets; returns the dirty segments evicted.
    fn shrink_to_budget(&mut self, set_idx: usize, bank: u32, keep: u64) -> u64 {
        let tag_slots = self.cfg.tag_slots();
        let budget = self.cfg.seg_budget();
        let mut dirty_segs = 0u64;
        loop {
            let set = &mut self.sets[set_idx];
            let used: u64 = set.iter().map(|l| u64::from(l.segs)).sum();
            if set.len() <= tag_slots && used <= budget {
                break;
            }
            let victim = set
                .iter()
                .enumerate()
                .filter(|(_, l)| l.tag != keep)
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            let line = set.remove(i);
            self.stats[bank as usize].evictions += 1;
            if line.dirty {
                dirty_segs += u64::from(line.segs);
            }
        }
        dirty_segs
    }

    /// Drains every dirty line (bank order, set order, residency order)
    /// and returns the total dirty segments written back.
    pub fn flush(&mut self) -> u64 {
        let mut dirty_segs = 0u64;
        for set in &mut self.sets {
            for line in set.drain(..) {
                if line.dirty {
                    dirty_segs += u64::from(line.segs);
                }
            }
        }
        dirty_segs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(compressed: bool) -> LlcConfig {
        LlcConfig {
            banks: 2,
            bank_bytes: 2048,
            line_bytes: 64,
            ways: 2,
            compressed,
        }
    }

    #[test]
    fn geometry_derives_consistently() {
        let cfg = small_cfg(true);
        assert_eq!(cfg.sets_per_bank(), 16);
        assert_eq!(cfg.seg_bytes(), 16);
        assert_eq!(cfg.seg_beats(), 4);
        assert_eq!(cfg.line_beats(), 16);
        assert_eq!(cfg.tag_slots(), 4);
        assert_eq!(cfg.seg_budget(), 8);
        assert_eq!(small_cfg(false).tag_slots(), 2);
    }

    #[test]
    fn segments_for_clamps_and_respects_off() {
        assert_eq!(small_cfg(false).segments_for(1), SEGMENTS_PER_LINE);
        let cfg = small_cfg(true);
        assert_eq!(cfg.segments_for(0), 1);
        assert_eq!(cfg.segments_for(16), 1);
        assert_eq!(cfg.segments_for(17), 2);
        assert_eq!(cfg.segments_for(640), SEGMENTS_PER_LINE);
    }

    #[test]
    fn repeated_access_hits() {
        let mut llc = NucaLlc::new(small_cfg(false));
        let miss = llc.access(0, 0x1000, 4, false);
        assert!(!miss.hit);
        let hit = llc.access(0, 0x1000, 4, false);
        assert!(hit.hit);
        assert_eq!(hit.bank, miss.bank);
        assert_eq!(llc.stats()[miss.bank as usize].read_hits, 1);
        assert_eq!(llc.stats()[miss.bank as usize].inserts, 1);
    }

    #[test]
    fn cores_do_not_alias_each_others_lines() {
        let mut llc = NucaLlc::new(small_cfg(false));
        llc.access(0, 0x1000, 4, true);
        // Same address, different core: a distinct line (private spaces).
        let other = llc.access(1, 0x1000, 4, false);
        assert!(!other.hit);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_segments() {
        let cfg = small_cfg(false); // 2 ways, uncompressed
        let mut llc = NucaLlc::new(cfg);
        // Three lines mapping to the same (bank, set): line index stride is
        // banks * sets_per_bank lines = 2 * 16 * 64 B = 2048 B.
        let stride = 2048u64;
        let a = llc.access(0, 0, 4, true);
        llc.access(0, stride, 4, false);
        let c = llc.access(0, 2 * stride, 4, false);
        assert_eq!(a.bank, c.bank);
        // The dirty LRU line (a) was evicted: 4 dirty segments.
        assert_eq!(c.evicted_dirty_segs, 4);
        assert_eq!(llc.stats()[a.bank as usize].evictions, 1);
        // And re-reading (a) misses now.
        assert!(!llc.access(0, 0, 4, false).hit);
    }

    #[test]
    fn compression_packs_more_lines_per_set() {
        // Compressed: 4 tags vs 8-segment budget. Four 2-segment lines fit.
        let mut llc = NucaLlc::new(small_cfg(true));
        let stride = 2048u64;
        for i in 0..4u64 {
            llc.access(0, i * stride, 2, true);
        }
        let bank = llc.bank_of(0, 0);
        assert_eq!(llc.stats()[bank as usize].evictions, 0);
        for i in 0..4u64 {
            assert!(llc.access(0, i * stride, 2, false).hit, "line {i}");
        }
        // Uncompressed, the same four full lines force two evictions.
        let mut plain = NucaLlc::new(small_cfg(false));
        for i in 0..4u64 {
            plain.access(0, i * stride, 4, true);
        }
        assert_eq!(plain.stats()[bank as usize].evictions, 2);
    }

    #[test]
    fn resizing_a_hit_line_can_evict_neighbours() {
        let mut llc = NucaLlc::new(small_cfg(true));
        let stride = 2048u64;
        // Fill the segment budget: four 2-segment lines (8 segments).
        for i in 0..4u64 {
            llc.access(0, i * stride, 2, true);
        }
        // Rewrite line 3 at full size: budget 8 -> needs 2+2+2+4; the LRU
        // line (0) must go.
        let acc = llc.access(0, 3 * stride, 4, true);
        assert!(acc.hit);
        assert_eq!(acc.evicted_dirty_segs, 2);
        assert!(!llc.access(0, 0, 2, false).hit);
    }

    #[test]
    fn flush_drains_exactly_the_dirty_lines() {
        let mut llc = NucaLlc::new(small_cfg(false));
        llc.access(0, 0, 4, true); // dirty
        llc.access(0, 64, 4, false); // clean
        llc.access(1, 128, 4, true); // dirty
        assert_eq!(llc.flush(), 8);
        assert_eq!(llc.flush(), 0);
    }

    #[test]
    fn bank_mapping_interleaves_lines_and_cores() {
        let llc = NucaLlc::new(small_cfg(false));
        assert_ne!(llc.bank_of(0, 0), llc.bank_of(0, 64));
        assert_ne!(llc.bank_of(0, 0), llc.bank_of(1, 0));
        assert_eq!(llc.bank_of(0, 0), llc.bank_of(0, 128));
    }
}
