//! The 1B.2 flow: D-cache write-back compression on a simulated platform.

use lpmem_compress::{CompressedMemoryModel, LineCodec};
use lpmem_energy::{Energy, EnergyReport, OffChipModel, SramModel, Technology};
use lpmem_isa::Kernel;
use lpmem_mem::{Backing, Cache, CacheConfig, FlatMemory};
use lpmem_trace::{AccessKind, Trace};

use crate::workloads::kernel_trace_and_image;
use crate::FlowError;

/// Platform presets for the compression study, mirroring the two systems of
/// the 1B.2 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Lx-ST200-class VLIW: wide 64-byte lines, 4 KiB write-back D-cache.
    /// Wide lines mean more beats per write-back — the configuration where
    /// compression pays most (the paper reports 10–22% here).
    VliwLike,
    /// MIPS/SimpleScalar-class RISC: 16-byte lines, 2 KiB write-back
    /// D-cache (the paper reports 11–14% here).
    RiscLike,
}

impl PlatformKind {
    /// The D-cache geometry of this platform.
    pub fn cache_config(self) -> CacheConfig {
        match self {
            PlatformKind::VliwLike => CacheConfig::new(4 << 10, 64, 2),
            PlatformKind::RiscLike => CacheConfig::new(2 << 10, 16, 2),
        }
        .expect("preset geometries are valid")
    }

    /// The technology node of this platform.
    pub fn technology(self) -> Technology {
        match self {
            PlatformKind::VliwLike => Technology::tech130(),
            PlatformKind::RiscLike => Technology::tech180(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::VliwLike => "vliw-lx",
            PlatformKind::RiscLike => "risc-mips",
        }
    }
}

/// Parameters of the compression flow.
#[derive(Debug, Clone)]
pub struct CompressionConfig {
    /// D-cache geometry.
    pub cache: CacheConfig,
    /// Compression threshold as a fraction of the line size (the paper
    /// stores a line compressed only if it fits half a line slot). Must lie
    /// in `(0, 1]`.
    pub threshold: f64,
    /// Flush dirty lines at the end of the run (the application's final
    /// write-back burst).
    pub flush_at_end: bool,
}

impl CompressionConfig {
    /// The configuration of a platform preset.
    ///
    /// The default threshold is 0.75: a line is stored compressed whenever
    /// its encoding saves beats at bus granularity with margin. The paper's
    /// stricter variant — compressed lines must fit half a line slot — is
    /// obtained by setting [`threshold`](Self::threshold) to `0.5` and is
    /// exercised by the threshold-sweep ablation.
    pub fn for_platform(kind: PlatformKind) -> Self {
        CompressionConfig {
            cache: kind.cache_config(),
            threshold: 0.75,
            flush_at_end: true,
        }
    }
}

/// A [`Backing`] that compresses write-backs and credits compressed
/// refills, counting the beats that actually cross the bus and the words
/// the decompressor expands (the cache's own
/// [`CacheStats`](lpmem_mem::CacheStats) count the raw lines). Every
/// stored size comes from the one decision
/// [`CompressedMemoryModel::write_back`] makes per evicted line.
struct CompressingBacking<'c> {
    mem: FlatMemory,
    codec: &'c dyn LineCodec,
    threshold: f64,
    model: CompressedMemoryModel,
    actual_fill_beats: u64,
    actual_wb_beats: u64,
    decompressed_words: u64,
    compressed_lines: u64,
    size_histogram: Vec<u64>,
}

impl<'c> CompressingBacking<'c> {
    fn new(mem: FlatMemory, codec: &'c dyn LineCodec, threshold: f64) -> Self {
        CompressingBacking {
            mem,
            codec,
            threshold,
            model: CompressedMemoryModel::new(),
            actual_fill_beats: 0,
            actual_wb_beats: 0,
            decompressed_words: 0,
            compressed_lines: 0,
            size_histogram: Vec::new(),
        }
    }
}

impl Backing for CompressingBacking<'_> {
    fn read_block(&mut self, addr: u64, buf: &mut [u8]) {
        let raw = (buf.len() / 4) as u64;
        let actual = self.model.fill_beats(addr, buf.len()) as u64;
        self.actual_fill_beats += actual;
        if actual < raw {
            // The refill ran through the decompressor.
            self.decompressed_words += raw;
        }
        self.mem.read_block(addr, buf);
    }

    fn write_block(&mut self, addr: u64, data: &[u8]) {
        let raw = (data.len() / 4) as u64;
        let stored = self
            .model
            .write_back(self.codec, addr, data, self.threshold);
        let actual = stored as u64;
        self.actual_wb_beats += actual;
        if actual < raw {
            self.compressed_lines += 1;
        }
        if self.size_histogram.len() <= stored {
            self.size_histogram.resize(stored + 1, 0);
        }
        self.size_histogram[stored] += 1;
        self.mem.write_block(addr, data);
    }
}

/// Result of the compression study for one workload on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionOutcome {
    /// Workload label.
    pub name: String,
    /// Platform label.
    pub platform: String,
    /// Codec label.
    pub codec: String,
    /// Full-system baseline energy (D-cache + uncompressed off-chip
    /// traffic).
    pub baseline: EnergyReport,
    /// Full-system energy with write-back compression (including codec
    /// energy).
    pub compressed: EnergyReport,
    /// Dirty lines evicted.
    pub lines: u64,
    /// Lines that cleared the compression threshold.
    pub compressed_lines: u64,
    /// Off-chip beats without compression.
    pub raw_beats: u64,
    /// Off-chip beats with compression.
    pub actual_beats: u64,
    /// D-cache statistics of the run.
    pub hit_ratio: f64,
    /// Encoded-size histogram (index = beats per stored write-back line).
    pub size_histogram: Vec<u64>,
}

impl CompressionOutcome {
    /// Fractional total-energy saving (the paper's headline metric).
    pub fn energy_saving(&self) -> f64 {
        self.compressed.total().saving_vs(self.baseline.total())
    }
}

/// Replays the data side of `trace` through a D-cache in front of
/// `initial_mem`, compressing write-backs with `codec`.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSpec`] when `cfg.threshold` is not in
/// `(0, 1]`, and [`FlowError::EmptyInput`] when the trace has no data
/// accesses.
pub fn run_compression_trace(
    name: &str,
    platform: &str,
    trace: &Trace,
    initial_mem: FlatMemory,
    codec: &dyn LineCodec,
    cfg: &CompressionConfig,
    tech: &Technology,
) -> Result<CompressionOutcome, FlowError> {
    if !(cfg.threshold > 0.0 && cfg.threshold <= 1.0) {
        return Err(FlowError::InvalidSpec(format!(
            "compression threshold must be in (0, 1], got {}",
            cfg.threshold
        )));
    }
    if !trace.iter().any(|e| e.kind.is_data()) {
        return Err(FlowError::EmptyInput("trace has no data accesses"));
    }
    let mut cache = Cache::new(cfg.cache);
    let mut backing = CompressingBacking::new(initial_mem, codec, cfg.threshold);
    let mut buf = [0u8; 4];
    for ev in trace {
        match ev.kind {
            AccessKind::InstrFetch => {}
            AccessKind::Read => {
                let n = (ev.size as usize).min(4);
                cache.read(ev.addr, &mut buf[..n], &mut backing);
            }
            AccessKind::Write => {
                let n = (ev.size as usize).min(4);
                let bytes = ev.value.to_le_bytes();
                cache.write(ev.addr, &bytes[..n], &mut backing);
            }
        }
    }
    if cfg.flush_at_end {
        cache.flush(&mut backing);
    }

    let stats = cache.stats();
    let line_beats = u64::from(cfg.cache.line_bytes() / 4);
    let raw_fill_beats = stats.fills * line_beats;
    let raw_wb_beats = stats.writebacks * line_beats;
    let sram = SramModel::new(tech);
    let off = OffChipModel::new(tech);
    let cache_bytes = cfg.cache.size_bytes();
    let dcache_energy = sram.read_energy(cache_bytes) * stats.reads as f64
        + sram.write_energy(cache_bytes) * stats.writes as f64;

    let mut baseline = EnergyReport::new();
    baseline.add("dcache", dcache_energy);
    baseline.add("offchip.fill", off.transfer_energy(raw_fill_beats));
    baseline.add("offchip.writeback", off.transfer_energy(raw_wb_beats));

    let mut compressed = EnergyReport::new();
    compressed.add("dcache", dcache_energy);
    compressed.add(
        "offchip.fill",
        off.transfer_energy(backing.actual_fill_beats),
    );
    compressed.add(
        "offchip.writeback",
        off.transfer_energy(backing.actual_wb_beats),
    );
    // Every dirty line runs through the compressor.
    let codec_words = raw_wb_beats + backing.decompressed_words;
    compressed.add(
        "codec",
        Energy::from_pj(tech.codec_word_pj * codec_words as f64),
    );

    Ok(CompressionOutcome {
        name: name.to_owned(),
        platform: platform.to_owned(),
        codec: codec.name().to_owned(),
        baseline,
        compressed,
        lines: stats.writebacks,
        compressed_lines: backing.compressed_lines,
        raw_beats: raw_fill_beats + raw_wb_beats,
        actual_beats: backing.actual_fill_beats + backing.actual_wb_beats,
        hit_ratio: stats.hit_ratio(),
        size_histogram: backing.size_histogram,
    })
}

/// Runs a kernel and feeds its trace (and initial memory image) through
/// [`run_compression_trace`].
///
/// # Errors
///
/// Propagates kernel execution and flow errors.
pub fn run_compression_kernel(
    kernel: Kernel,
    scale: u32,
    seed: u64,
    platform: PlatformKind,
    codec: &dyn LineCodec,
) -> Result<CompressionOutcome, FlowError> {
    let (trace, image) = kernel_trace_and_image(kernel, scale, seed)?;
    let cfg = CompressionConfig::for_platform(platform);
    let tech = platform.technology();
    run_compression_trace(
        kernel.name(),
        platform.name(),
        &trace,
        image,
        codec,
        &cfg,
        &tech,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_compress::{DiffCodec, RawCodec};

    #[test]
    fn fir_saves_energy_on_both_platforms() {
        let codec = DiffCodec::new();
        for platform in [PlatformKind::VliwLike, PlatformKind::RiscLike] {
            let out = run_compression_kernel(Kernel::Fir, 96, 5, platform, &codec).unwrap();
            assert!(out.lines > 0, "no write-backs on {}", platform.name());
            assert!(out.compressed_lines > 0);
            assert!(
                out.energy_saving() > 0.0,
                "{}: saving {}",
                platform.name(),
                out.energy_saving()
            );
            assert!(out.compressed.total() < out.baseline.total());
        }
    }

    #[test]
    fn raw_codec_saves_nothing_but_costs_codec_energy() {
        let out =
            run_compression_kernel(Kernel::Fir, 48, 5, PlatformKind::RiscLike, &RawCodec::new())
                .unwrap();
        assert_eq!(out.compressed_lines, 0);
        assert_eq!(out.raw_beats, out.actual_beats);
        assert!(out.energy_saving() <= 0.0);
    }

    #[test]
    fn histogram_totals_match_lines() {
        let out = run_compression_kernel(
            Kernel::Dct8,
            16,
            2,
            PlatformKind::VliwLike,
            &DiffCodec::new(),
        )
        .unwrap();
        let total: u64 = out.size_histogram.iter().sum();
        assert_eq!(total, out.lines);
    }

    #[test]
    fn histogram_counts_the_lines_the_flow_charged() {
        // The stored sizes must come from the replay that charges the beats,
        // over the kernel's own memory image: a replay over zeroed memory
        // sees other line contents here and stores 43 beats, not 42.
        let out = run_compression_kernel(
            Kernel::BubbleSort,
            96,
            149,
            PlatformKind::VliwLike,
            &DiffCodec::new(),
        )
        .unwrap();
        assert_eq!(out.size_histogram, [0, 0, 0, 0, 0, 0, 1, 4, 1]);
        let stored: u64 = (0u64..).zip(&out.size_histogram).map(|(i, n)| i * n).sum();
        assert_eq!(stored, 42);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let trace: Trace = vec![lpmem_trace::MemEvent::fetch(0)].into();
        let err = run_compression_trace(
            "x",
            "p",
            &trace,
            FlatMemory::new(),
            &DiffCodec::new(),
            &CompressionConfig::for_platform(PlatformKind::RiscLike),
            &Technology::tech180(),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::EmptyInput(_)));
    }

    #[test]
    fn out_of_range_thresholds_are_rejected() {
        let trace: Trace = vec![lpmem_trace::MemEvent::write(0)].into();
        for threshold in [0.0, 1.5, f64::NAN] {
            let cfg = CompressionConfig {
                threshold,
                ..CompressionConfig::for_platform(PlatformKind::RiscLike)
            };
            let err = run_compression_trace(
                "x",
                "p",
                &trace,
                FlatMemory::new(),
                &DiffCodec::new(),
                &cfg,
                &Technology::tech180(),
            )
            .unwrap_err();
            assert!(
                matches!(&err, FlowError::InvalidSpec(why) if why.contains("threshold")),
                "{threshold}: {err}"
            );
        }
    }
}
