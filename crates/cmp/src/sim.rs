//! The interleaved CMP simulation: N cores' data traces replayed
//! round-robin through private L1s into the shared compressed NUCA LLC,
//! with dark-silicon gating, energy/area pricing, and an optional fault
//! campaign over the LLC arrays.
//!
//! Determinism: the round-robin arbiter and the LLC's global LRU stamp
//! are pure functions of the input traces and the spec, so two runs of
//! [`simulate_cmp`] are bit-identical regardless of the worker count of
//! whatever harness calls it. All counters are integer; floats appear
//! only in the energy/area pricing at the end and in the gating
//! threshold comparison (a pure function of the spec).

use std::borrow::Borrow;

use lpmem_compress::{CodecKind, LineCodec};
use lpmem_energy::{AreaReport, Energy, EnergyReport, OffChipModel, SramModel, Technology};
use lpmem_fault::{run_campaign, BankExposure, FaultExposure, FaultSpec, ReliabilityReport};
use lpmem_mem::{Backing, Cache, CacheConfig, FlatMemory};
use lpmem_partition::sleep::SleepPolicy;
use lpmem_trace::{AccessKind, MemEvent, Trace};

use crate::llc::{LlcConfig, NucaLlc, SEGMENTS_PER_LINE};
use crate::spec::{CmpSpec, TAG_CMP};

/// Cycles of a zero-hop LLC hit (tag + segment read at the home bank);
/// each NUCA ring hop adds one cycle.
const LLC_HIT_CYCLES: u64 = 2;

/// Cycles per off-chip 4-byte beat (matches the explorer's latency
/// model).
const OFFCHIP_BEAT_CYCLES: u64 = 10;

/// Bit transitions charged per beat per NUCA ring hop (half of a 32-bit
/// flit toggling).
const HOP_TRANSITIONS_PER_BEAT: u64 = 16;

/// Round-robin interleave quantum: data events one core retires before
/// the arbiter hands the memory system to the next core.
const QUANTUM: usize = 32;

/// Sleep-policy timeout (in ticks) used when pricing dark banks — the
/// same convention the fault-exposure derivation uses for gated banks.
const DARK_SLEEP_TIMEOUT: u64 = 32;

/// One core's workload: its memory-access trace and the data image the
/// trace replays against.
#[derive(Debug, Clone)]
pub struct CoreRun {
    /// The core's full trace (instruction fetches are ignored here; the
    /// data events drive the memory hierarchy).
    pub trace: Trace,
    /// The core's private data image (cores do not share memory).
    pub image: FlatMemory,
}

/// Machine-readable outcome counters of a CMP run, carried on
/// `FlowSummary` and dumped as conditional JSONL fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CmpReport {
    /// The spec label the run was configured with.
    pub spec: String,
    /// Simulated cores.
    pub cores: u32,
    /// LLC banks modeled.
    pub llc_banks: u32,
    /// Banks dark-silicon-gated by the power budget.
    pub dark_banks: u32,
    /// LLC lookups (lit banks only; dark-bank traffic bypasses).
    pub llc_lookups: u64,
    /// LLC hits (read + absorbed write-back).
    pub llc_hits: u64,
    /// Lines inserted into the LLC.
    pub llc_lines: u64,
    /// Inserted/updated lines that compressed below full size.
    pub llc_compressed_lines: u64,
    /// Off-chip 4-byte beats moved (fills + write-backs + dark bypass).
    pub offchip_beats: u64,
    /// Data-side cycle count: events + NUCA hit latency + off-chip
    /// stalls + protection decode latency.
    pub cycles: u64,
}

impl CmpReport {
    /// The nine outcome counters (`cores` … `cmp_cycles`, not the spec
    /// label) as the sweep and explore reports write them: JSON key and
    /// value, in field order. Pairs rather than a `JsonObject` writer
    /// because this crate does not depend on `lpmem-util`.
    pub fn json_fields(&self) -> [(&'static str, u64); 9] {
        [
            ("cores", u64::from(self.cores)),
            ("llc_banks", u64::from(self.llc_banks)),
            ("dark_banks", u64::from(self.dark_banks)),
            ("llc_lookups", self.llc_lookups),
            ("llc_hits", self.llc_hits),
            ("llc_lines", self.llc_lines),
            ("llc_compressed", self.llc_compressed_lines),
            ("offchip_beats", self.offchip_beats),
            ("cmp_cycles", self.cycles),
        ]
    }
}

/// Full outcome of an active CMP simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpOutcome {
    /// Data-side energy with no LLC: private L1s spilling straight
    /// off-chip at raw line size (the reference the saving is against).
    pub baseline: EnergyReport,
    /// Data-side energy with the compressed NUCA LLC in place.
    pub optimized: EnergyReport,
    /// Total data events replayed across all cores.
    pub events: u64,
    /// Outcome counters.
    pub report: CmpReport,
    /// LLC silicon area (bank arrays + protection overhead).
    pub area: AreaReport,
    /// Fault-campaign outcome over the LLC arrays, when enabled.
    pub reliability: Option<ReliabilityReport>,
}

/// Routes L1 miss traffic: lit banks through the LLC, dark banks
/// straight off-chip. Owns every integer counter of the run.
struct TrafficRouter {
    llc: NucaLlc,
    codec: Option<Box<dyn LineCodec>>,
    lit: Vec<bool>,
    cores_banks: u64,
    line_words: u64,
    offchip_fill_beats: u64,
    offchip_wb_beats: u64,
    dark_beats: u64,
    hop_beats: u64,
    llc_cycles: u64,
    codec_words: u64,
    compressed_lines: u64,
}

impl TrafficRouter {
    /// Ring distance from the requesting core's home bank to `bank`.
    fn hops(&self, core: u32, bank: u32) -> u64 {
        let banks = self.cores_banks;
        let home = u64::from(core) % banks;
        let dist = u64::from(bank).abs_diff(home);
        dist.min(banks - dist)
    }

    /// One L1<->next-level line transfer: a write-back (`write`) or a
    /// fill request.
    fn line_traffic(&mut self, core: u32, addr: u64, line: &[u8], write: bool) {
        let cfg = *self.llc.config();
        let bank = self.llc.bank_of(core, addr);
        if !self.lit[bank as usize] {
            // Dark bank: the address range falls through to main memory
            // at raw line size.
            self.dark_beats += cfg.line_beats();
            return;
        }
        let segs = match &self.codec {
            Some(codec) => {
                self.codec_words += self.line_words;
                cfg.segments_for(codec.compressed_bits(line).div_ceil(8))
            }
            None => SEGMENTS_PER_LINE,
        };
        let hops = self.hops(core, bank);
        self.hop_beats += hops
            .checked_mul(cfg.line_beats())
            .expect("mesh hop count times line beats stays far below u64::MAX");
        self.llc_cycles += LLC_HIT_CYCLES + hops;
        let access = self.llc.access(core, addr, segs, write);
        if access.hit {
            if !write && access.stored_segs < SEGMENTS_PER_LINE && self.codec.is_some() {
                // Decompress the stored line on its way back to the L1.
                self.codec_words += self.line_words;
            }
        } else if !write {
            // Read miss: the line comes from main memory uncompressed.
            self.offchip_fill_beats += cfg.line_beats();
        }
        if (write || !access.hit) && segs < SEGMENTS_PER_LINE {
            self.compressed_lines += 1;
        }
        self.offchip_wb_beats += access
            .evicted_dirty_segs
            .checked_mul(cfg.seg_beats())
            .expect("at most four dirty segments per eviction times bounded seg beats");
    }
}

/// Runs the active CMP scenario: interleaved L1 replay, shared LLC,
/// gating, pricing, and the optional LLC fault campaign.
///
/// The runs are borrowed, owned or shared (`&[CoreRun]` or
/// `&[Arc<CoreRun>]`), and left as they are: each trace's data events are
/// read in place, and each core's L1 replays against its own copy of the
/// run's data image.
///
/// Each L1's next level is a [`Backing`] over the LLC router: the router
/// sees every dirty victim and every fill the moment the L1 hands it
/// over, a victim before the fill that displaced it, and the core's image
/// stores the victim and supplies the fill.
///
/// # Panics
///
/// Panics when `spec` is disabled (callers route those through the
/// single-core flow), when the run count does not match
/// `spec.cores`, or when the LLC geometry is invalid for the L1 line
/// size (see [`CmpSpec::validate`]).
pub fn simulate_cmp(
    spec: &CmpSpec,
    l1: CacheConfig,
    base: &Technology,
    runs: &[impl Borrow<CoreRun>],
    fault: &FaultSpec,
    seed: u64,
) -> CmpOutcome {
    assert!(spec.enabled(), "simulate_cmp models active scenarios only");
    if let Err(why) = spec.validate(l1.line_bytes()) {
        panic!("invalid CMP spec {}: {why}", spec.label());
    }
    assert_eq!(runs.len(), spec.cores as usize, "one CoreRun per core");

    let banks = spec.banks as usize;
    let bank_bytes = u64::from(spec.bank_kib) * 1024;
    let line_bytes = l1.line_bytes();
    let cfg = LlcConfig {
        banks: spec.banks,
        bank_bytes,
        line_bytes,
        ways: spec.ways,
        compressed: spec.codec != CodecKind::Off,
    };

    // Per-core data event streams, read in place from the traces; the
    // tick clock is one data event.
    let traces: Vec<&Trace> = runs.iter().map(|r| &r.borrow().trace).collect();

    // Bank-to-technology assignment via the partition machinery.
    let partition = spec.tech_partition();
    let mut bank_tech: Vec<Technology> = Vec::with_capacity(banks);
    for (p, range) in partition.banks().enumerate() {
        let tech = spec.partition_technology(p, base);
        for _ in range {
            bank_tech.push(tech.clone());
        }
    }

    // Heat pass + dark-silicon gating: gate the coldest banks (by heat,
    // then bank index) until the LLC's standby power fits the budget.
    let probe = NucaLlc::new(cfg);
    let mut heat = vec![0u64; banks];
    for (core, trace) in traces.iter().enumerate() {
        let core = u32::try_from(core).expect("core count below u32::MAX");
        for ev in data_events(trace) {
            heat[probe.bank_of(core, ev.addr) as usize] += 1;
        }
    }
    // Every data event heats exactly one bank.
    let total_events: u64 = heat.iter().sum();
    let mut lit = vec![true; banks];
    let mut dark_banks = 0u32;
    if spec.budget_uw > 0 {
        // pJ per tick at 100 MHz is 1e8 pJ/s = 100 µW.
        let power_uw: Vec<f64> = bank_tech
            .iter()
            .map(|t| t.sram_idle_pj_per_kib * f64::from(spec.bank_kib) * 100.0)
            .collect();
        let mut order: Vec<usize> = (0..banks).collect();
        order.sort_by_key(|&b| (heat[b], b));
        let mut standby: f64 = power_uw.iter().sum();
        for &b in &order {
            if standby <= spec.budget_uw as f64 {
                break;
            }
            lit[b] = false;
            dark_banks += 1;
            standby -= power_uw[b] * (1.0 - bank_tech[b].sram_sleep_frac);
        }
    }

    // Interleaved replay.
    let mut router = TrafficRouter {
        llc: probe,
        codec: spec.codec.codec(),
        lit,
        cores_banks: u64::from(spec.banks),
        line_words: u64::from(line_bytes / 4),
        offchip_fill_beats: 0,
        offchip_wb_beats: 0,
        dark_beats: 0,
        hop_beats: 0,
        llc_cycles: 0,
        codec_words: 0,
        compressed_lines: 0,
    };
    let mut caches: Vec<Cache> = (0..runs.len()).map(|_| Cache::new(l1)).collect();
    let mut images: Vec<FlatMemory> = runs.iter().map(|r| r.borrow().image.clone()).collect();
    let mut streams: Vec<_> = traces.iter().map(|t| data_events(t)).collect();
    let mut remaining = total_events;
    while remaining > 0 {
        for (core, stream) in streams.iter_mut().enumerate() {
            for ev in stream.by_ref().take(QUANTUM) {
                let next = L1Next::new(&mut router, core, &mut images[core]);
                let n = (ev.size as usize).min(4);
                match ev.kind {
                    AccessKind::Read => {
                        let mut buf = [0u8; 4];
                        caches[core].read(ev.addr, &mut buf[..n], next);
                    }
                    AccessKind::Write => {
                        let bytes = ev.value.to_le_bytes();
                        caches[core].write(ev.addr, &bytes[..n], next);
                    }
                    AccessKind::InstrFetch => unreachable!("fetches are filtered out"),
                }
                remaining -= 1;
            }
        }
    }
    for (core, (cache, image)) in caches.iter_mut().zip(&mut images).enumerate() {
        cache.flush(L1Next::new(&mut router, core, image));
    }
    router.offchip_wb_beats += router
        .llc
        .flush()
        .checked_mul(router.llc.config().seg_beats())
        .expect("flushed dirty segments bounded by LLC capacity times seg beats");

    price_outcome(
        spec,
        base,
        &bank_tech,
        router,
        &caches,
        l1,
        total_events,
        dark_banks,
        fault,
        seed,
    )
}

/// What lies behind one core's private L1: every fill and dirty victim
/// the L1 hands over goes to the router, and the core's own copy of the
/// data image keeps the bytes.
struct L1Next<'a> {
    router: &'a mut TrafficRouter,
    core: u32,
    image: &'a mut FlatMemory,
}

impl<'a> L1Next<'a> {
    fn new(router: &'a mut TrafficRouter, core: usize, image: &'a mut FlatMemory) -> Self {
        let core = u32::try_from(core).expect("core count below u32::MAX");
        L1Next {
            router,
            core,
            image,
        }
    }
}

impl Backing for L1Next<'_> {
    fn read_block(&mut self, addr: u64, buf: &mut [u8]) {
        self.image.read_block(addr, buf);
        self.router.line_traffic(self.core, addr, buf, false);
    }

    fn write_block(&mut self, addr: u64, data: &[u8]) {
        self.router.line_traffic(self.core, addr, data, true);
        self.image.write_block(addr, data);
    }
}

/// A trace's data events (reads and writes) in trace order, read in place.
fn data_events(trace: &Trace) -> impl Iterator<Item = &MemEvent> {
    trace.iter().filter(|e| e.kind.is_data())
}

/// Converts the run's integer counters into energy/area/reliability.
#[allow(clippy::too_many_arguments)]
fn price_outcome(
    spec: &CmpSpec,
    base: &Technology,
    bank_tech: &[Technology],
    router: TrafficRouter,
    caches: &[Cache],
    l1: CacheConfig,
    total_events: u64,
    dark_banks: u32,
    fault: &FaultSpec,
    seed: u64,
) -> CmpOutcome {
    let bank_bytes = u64::from(spec.bank_kib) * 1024;
    let cfg = *router.llc.config();
    let stats = router.llc.stats();
    let off = OffChipModel::new(base);
    let l1_sram = SramModel::new(base);

    // Shared L1 cost (both sides): reads/writes against the private L1s.
    let mut dcache = Energy::ZERO;
    let mut l1_fills = 0u64;
    let mut l1_wbs = 0u64;
    for cache in caches {
        let s = cache.stats();
        dcache += l1_sram.read_energy(l1.size_bytes()) * s.reads as f64
            + l1_sram.write_energy(l1.size_bytes()) * s.writes as f64;
        l1_fills += s.fills;
        l1_wbs += s.writebacks;
    }

    let mut baseline = EnergyReport::new();
    baseline.add("dcache", dcache);
    baseline.add(
        "offchip.fill",
        off.transfer_energy(l1_fills * cfg.line_beats()),
    );
    baseline.add(
        "offchip.writeback",
        off.transfer_energy(l1_wbs * cfg.line_beats()),
    );

    let mut optimized = EnergyReport::new();
    optimized.add("dcache", dcache);
    let mut lookups = 0u64;
    let mut hits = 0u64;
    let mut inserts = 0u64;
    for (b, stat) in stats.iter().enumerate() {
        let sram = SramModel::new(&bank_tech[b]);
        optimized.add(
            "llc.read",
            sram.read_energy(bank_bytes) * stat.read_hits as f64,
        );
        optimized.add(
            "llc.write",
            sram.write_energy(bank_bytes) * (stat.inserts + stat.write_hits) as f64,
        );
        let leak = sram.idle_energy(bank_bytes, total_events);
        if router.lit[b] {
            optimized.add("llc.leak.lit", leak);
        } else {
            let policy = SleepPolicy::from_tech(&bank_tech[b], DARK_SLEEP_TIMEOUT);
            optimized.add("llc.leak.dark", leak * policy.sleep_frac);
        }
        lookups += stat.lookups;
        hits += stat.read_hits + stat.write_hits;
        inserts += stat.inserts;
    }
    optimized.add(
        "llc.select",
        Energy::from_pj(base.bank_select_pj * u64::from(spec.banks) as f64 * lookups as f64),
    );
    optimized.add(
        "llc.hop",
        Energy::from_pj(
            base.transition_pj(base.onchip_bus_cap_pf)
                * (router.hop_beats * HOP_TRANSITIONS_PER_BEAT) as f64,
        ),
    );
    optimized.add(
        "llc.codec",
        Energy::from_pj(base.codec_word_pj * router.codec_words as f64),
    );
    optimized.add(
        "offchip.fill",
        off.transfer_energy(router.offchip_fill_beats),
    );
    optimized.add(
        "offchip.writeback",
        off.transfer_energy(router.offchip_wb_beats),
    );
    optimized.add("offchip.dark", off.transfer_energy(router.dark_beats));
    if fault.enabled() {
        optimized.add("llc.prot", fault.protection.access_overhead(base, lookups));
    }

    // LLC silicon: bank arrays (per partition technology) + protection.
    let mut area = AreaReport::new();
    for tech in bank_tech {
        let sram = SramModel::new(tech);
        area.add("llc.cells", sram.cell_area_mm2(bank_bytes));
        area.add("llc.periphery", sram.periphery_area_mm2(bank_bytes));
    }
    area.merge(
        &fault
            .protection
            .area_overhead(base, bank_bytes * u64::from(spec.banks)),
    );

    // Fault campaign over the LLC arrays, one exposure per technology
    // partition. Dark banks sit in retention sleep the whole run.
    let reliability = if fault.enabled() {
        let mut report = ReliabilityReport::default();
        for (p, range) in spec.tech_partition().banks().enumerate() {
            let tech = spec.partition_technology(p, base);
            let exposure = FaultExposure {
                domain: TAG_CMP + p as u64,
                banks: range
                    .map(|b| BankExposure {
                        words: bank_bytes / 4,
                        active_ticks: if router.lit[b] { total_events } else { 0 },
                        sleep_ticks: if router.lit[b] { 0 } else { total_events },
                        reads: stats[b].read_hits,
                        writes: stats[b].inserts + stats[b].write_hits,
                    })
                    .collect(),
            };
            report.merge(&run_campaign(fault, &tech, &exposure, seed));
        }
        Some(report)
    } else {
        None
    };

    let offchip_beats = router.offchip_fill_beats + router.offchip_wb_beats + router.dark_beats;
    let read_hits: u64 = stats.iter().map(|s| s.read_hits).sum();
    let cycles = total_events
        + router.llc_cycles
        + OFFCHIP_BEAT_CYCLES * offchip_beats
        + fault.protection.extra_read_cycles() * read_hits;

    CmpOutcome {
        baseline,
        optimized,
        events: total_events,
        report: CmpReport {
            spec: spec.label(),
            cores: spec.cores,
            llc_banks: spec.banks,
            dark_banks,
            llc_lookups: lookups,
            llc_hits: hits,
            llc_lines: inserts,
            llc_compressed_lines: router.compressed_lines,
            offchip_beats,
            cycles,
        },
        area,
        reliability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_energy::TechNode;
    use lpmem_fault::Protection;

    /// A deterministic synthetic core: a hot working set revisited often,
    /// a cold streaming region, and smooth (compressible) store values.
    fn synthetic_run(salt: u64, events: u64) -> CoreRun {
        let mut trace = Trace::new();
        for i in 0..events {
            let addr = if i % 3 == 0 {
                0x1000 + (i % 64) * 4
            } else {
                0x8000 + salt * 4096 + (i * 4) % 16384
            };
            let value = u32::try_from((1000 + 3 * i) & 0xFFFF_FFFF).expect("masked to 32 bits");
            if i % 4 == 0 {
                trace.push(MemEvent::write(addr).with_value(value));
            } else {
                trace.push(MemEvent::read(addr));
            }
        }
        CoreRun {
            trace,
            image: FlatMemory::new(),
        }
    }

    fn l1() -> CacheConfig {
        CacheConfig::new(1 << 10, 64, 2).expect("valid L1 geometry")
    }

    fn runs(spec: &CmpSpec, events: u64) -> Vec<CoreRun> {
        (0..u64::from(spec.cores))
            .map(|c| synthetic_run(c, events))
            .collect()
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = CmpSpec::quad();
        let base = Technology::tech180();
        let fault = FaultSpec::accelerated(Protection::Secded);
        let a = simulate_cmp(&spec, l1(), &base, &runs(&spec, 4000), &fault, 2003);
        let b = simulate_cmp(&spec, l1(), &base, &runs(&spec, 4000), &fault, 2003);
        assert_eq!(a, b);
        assert!(a.events == 16_000);
        assert!(a.report.llc_lookups > 0);
        assert!(a.report.cycles > a.events);
    }

    #[test]
    fn borrowed_runs_replay_identically_and_stay_unchanged() {
        let spec = CmpSpec::quad();
        let base = Technology::tech180();
        let fault = FaultSpec::accelerated(Protection::Secded);
        let mut cores = runs(&spec, 4000);
        for (c, run) in (0u32..).zip(&mut cores) {
            run.image.write_u32(0x1000, 0xC0DE_0000 + c);
            run.image.write_u32(0x8000, c);
        }
        let images = |cores: &[CoreRun]| -> Vec<Vec<(u64, Vec<u8>)>> {
            cores
                .iter()
                .map(|r| {
                    let pages = r.image.pages_sorted().into_iter();
                    pages.map(|(addr, page)| (addr, page.to_vec())).collect()
                })
                .collect()
        };
        let before = images(&cores);
        let a = simulate_cmp(&spec, l1(), &base, &cores, &fault, 2003);
        let b = simulate_cmp(&spec, l1(), &base, &cores, &fault, 2003);
        assert_eq!(a, b);
        // Each replay writes back into its own copies of the images.
        assert_eq!(images(&cores), before);
        // Shared runs replay exactly like owned ones.
        let shared: Vec<std::sync::Arc<CoreRun>> =
            cores.iter().cloned().map(std::sync::Arc::new).collect();
        assert_eq!(simulate_cmp(&spec, l1(), &base, &shared, &fault, 2003), a);
    }

    #[test]
    fn power_budget_gates_the_coldest_banks() {
        let budgeted = CmpSpec::quad();
        let unbudgeted = CmpSpec {
            budget_uw: 0,
            ..budgeted.clone()
        };
        let base = Technology::tech180();
        let off = FaultSpec::off();
        let dark = simulate_cmp(&budgeted, l1(), &base, &runs(&budgeted, 4000), &off, 7);
        let lit = simulate_cmp(&unbudgeted, l1(), &base, &runs(&unbudgeted, 4000), &off, 7);
        // The t90 half leaks 256 µW per 32 KiB bank; a 600 µW budget
        // must gate some of it.
        assert!(dark.report.dark_banks > 0, "{:?}", dark.report);
        assert_eq!(lit.report.dark_banks, 0);
        // Dark banks trade leakage for bypass traffic.
        assert!(dark.optimized.component("llc.leak.lit") < lit.optimized.component("llc.leak.lit"));
        assert!(dark.optimized.component("offchip.dark") > Energy::ZERO);
        assert_eq!(lit.optimized.component("offchip.dark"), Energy::ZERO);
    }

    #[test]
    fn llc_compression_packs_lines_and_cuts_writeback_beats() {
        let compressed = CmpSpec {
            budget_uw: 0,
            techs: Vec::new(),
            ..CmpSpec::quad()
        };
        let plain = CmpSpec {
            codec: CodecKind::Off,
            ..compressed.clone()
        };
        let base = Technology::tech180();
        let off = FaultSpec::off();
        let zrun = simulate_cmp(&compressed, l1(), &base, &runs(&compressed, 4000), &off, 7);
        let raw = simulate_cmp(&plain, l1(), &base, &runs(&plain, 4000), &off, 7);
        assert!(zrun.report.llc_compressed_lines > 0);
        assert_eq!(raw.report.llc_compressed_lines, 0);
        // Compressed placement holds more lines, so fewer beats leave the
        // chip; the codec energy shows up as a named component.
        assert!(zrun.report.offchip_beats < raw.report.offchip_beats);
        assert!(zrun.optimized.component("llc.codec") > Energy::ZERO);
        assert_eq!(raw.optimized.component("llc.codec"), Energy::ZERO);
    }

    #[test]
    fn fault_campaign_covers_partitions_and_prices_protection() {
        // Small hot banks: enough reads per LLC word that accelerated
        // upsets actually get consumed instead of all masking.
        let spec = CmpSpec {
            budget_uw: 0,
            bank_kib: 8,
            ..CmpSpec::quad()
        };
        let base = Technology::tech180();
        let protected = FaultSpec::accelerated(Protection::Secded);
        let bare = FaultSpec::accelerated(Protection::None);
        let sec = simulate_cmp(&spec, l1(), &base, &runs(&spec, 20_000), &protected, 2003);
        let none = simulate_cmp(&spec, l1(), &base, &runs(&spec, 20_000), &bare, 2003);
        let sec_rel = sec.reliability.expect("campaign ran");
        let none_rel = none.reliability.expect("campaign ran");
        assert!(sec_rel.injected > 0);
        assert!(
            sec_rel.silent < none_rel.silent,
            "secded {sec_rel:?} vs none {none_rel:?}"
        );
        assert!(sec.optimized.component("llc.prot") > Energy::ZERO);
        assert!(sec.area.component("prot.checkbits") > 0.0);
        // SECDED decode latency sits on the LLC read path.
        assert!(sec.report.cycles > none.report.cycles);
    }

    #[test]
    fn heterogeneous_partitions_price_their_own_node() {
        let hetero = CmpSpec {
            budget_uw: 0,
            ..CmpSpec::quad() // [t180, t90]
        };
        let homo = CmpSpec {
            techs: vec![TechNode::T180],
            ..hetero.clone()
        };
        let base = Technology::tech180();
        let off = FaultSpec::off();
        let h = simulate_cmp(&hetero, l1(), &base, &runs(&hetero, 4000), &off, 7);
        let t180 = simulate_cmp(&homo, l1(), &base, &runs(&homo, 4000), &off, 7);
        // The t90 half leaks an order of magnitude more.
        assert!(
            h.optimized.component("llc.leak.lit") > 2.0 * t180.optimized.component("llc.leak.lit")
        );
        // But its cells are smaller.
        assert!(h.area.component("llc.cells") < t180.area.component("llc.cells"));
    }
}
