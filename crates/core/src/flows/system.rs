//! The capstone flow: both cache-platform optimizations applied together.
//!
//! The 1B session's techniques attack different components of the same
//! SoC's memory system: instruction-bus encoding (1B.3) cuts the fetch
//! path, write-back compression (1B.2) cuts the off-chip data path. This
//! flow evaluates one kernel on the full platform — instruction bus +
//! D-cache + off-chip memory — with each optimization off and on, and
//! reports the combined saving. It answers the question the session
//! implicitly poses: *how much of an embedded SoC's memory-system energy
//! do these techniques recover together?*

use lpmem_buscode::BusChoice;
use lpmem_compress::LineCodec;
use lpmem_energy::{EnergyReport, Technology};
use lpmem_isa::Kernel;
use lpmem_mem::FlatMemory;
use lpmem_trace::Trace;

use crate::flows::buscoding::price_bus;
use crate::flows::compression::{run_compression_trace, CompressionConfig, PlatformKind};
use crate::workloads::kernel_trace_and_image;
use crate::FlowError;

/// Result of the whole-system study for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOutcome {
    /// Workload label.
    pub name: String,
    /// Platform label.
    pub platform: String,
    /// Baseline breakdown: `ibus`, `dcache`, `offchip.*`.
    pub baseline: EnergyReport,
    /// Optimized breakdown: encoded `ibus`, compressed `offchip.*` plus
    /// `codec`.
    pub optimized: EnergyReport,
    /// Instruction fetches observed.
    pub fetches: u64,
    /// Bus-encoding regions used.
    pub regions: usize,
}

impl SystemOutcome {
    /// Combined fractional energy saving.
    pub fn saving(&self) -> f64 {
        self.optimized.total().saving_vs(self.baseline.total())
    }

    /// Saving on the instruction-bus component alone.
    pub fn ibus_saving(&self) -> f64 {
        self.optimized
            .component("ibus")
            .saving_vs(self.baseline.component("ibus"))
    }
}

/// Runs a kernel and evaluates the platform with bus encoding and
/// write-back compression applied together, at the platform's native
/// technology node.
///
/// # Errors
///
/// Propagates kernel and flow errors.
pub fn run_system(
    kernel: Kernel,
    scale: u32,
    seed: u64,
    platform: PlatformKind,
    codec: &dyn LineCodec,
    regions: usize,
) -> Result<SystemOutcome, FlowError> {
    let (trace, image) = kernel_trace_and_image(kernel, scale, seed)?;
    run_system_trace(
        kernel.name(),
        &trace,
        image,
        platform,
        codec,
        regions,
        &platform.technology(),
    )
}

/// Evaluates the platform on a captured trace (plus the initial memory
/// image it ran against) at an explicit technology node: the trace-level
/// system flow behind [`run_system`] and the scenario entry point.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSpec`] for a region count
/// [`price_bus`] rejects, [`FlowError::EmptyInput`] when the trace has no
/// instruction fetches or no data accesses, and propagates cache errors.
pub fn run_system_trace(
    name: &str,
    trace: &Trace,
    image: FlatMemory,
    platform: PlatformKind,
    codec: &dyn LineCodec,
    regions: usize,
    tech: &Technology,
) -> Result<SystemOutcome, FlowError> {
    // Instruction side: the raw and the XOR-encoded fetch bus.
    let ibus = price_bus([trace], BusChoice::Xor(regions), tech)?;

    // Data side: the compression flow produces both baseline and optimized
    // D-cache + off-chip numbers.
    let cfg = CompressionConfig::for_platform(platform);
    let compression =
        run_compression_trace(name, platform.name(), trace, image, codec, &cfg, tech)?;

    let mut baseline = compression.baseline.clone();
    baseline.add("ibus", ibus.raw);
    let mut optimized = compression.compressed.clone();
    optimized.add("ibus", ibus.encoded);
    optimized.add("ibus.codec", ibus.gates);

    Ok(SystemOutcome {
        name: name.to_owned(),
        platform: platform.name().to_owned(),
        baseline,
        optimized,
        fetches: ibus.fetches,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_buscode::RegionEncoder;
    use lpmem_compress::DiffCodec;
    use lpmem_energy::Energy;

    #[test]
    fn combined_optimizations_beat_baseline() {
        let out = run_system(
            Kernel::Fir,
            256,
            3,
            PlatformKind::VliwLike,
            &DiffCodec::new(),
            4,
        )
        .unwrap();
        assert!(out.saving() > 0.05, "combined saving {}", out.saving());
        assert!(out.ibus_saving() > 0.3, "ibus saving {}", out.ibus_saving());
        // The combined report covers both subsystems.
        assert!(out.baseline.component("ibus") > Energy::ZERO);
        assert!(out.baseline.component("dcache") > Energy::ZERO);
    }

    #[test]
    fn combined_saving_exceeds_each_alone() {
        let out = run_system(
            Kernel::Dct8,
            96,
            1,
            PlatformKind::VliwLike,
            &DiffCodec::new(),
            4,
        )
        .unwrap();
        // Energy saved on the ibus plus energy saved off-chip both show up.
        let ibus_saved = out.baseline.component("ibus") - out.optimized.component("ibus");
        let off_saved = (out.baseline.component("offchip.fill")
            + out.baseline.component("offchip.writeback"))
            - (out.optimized.component("offchip.fill")
                + out.optimized.component("offchip.writeback"));
        assert!(ibus_saved > Energy::ZERO);
        assert!(off_saved > Energy::ZERO);
    }

    #[test]
    fn region_counts_outside_the_encoder_range_are_rejected() {
        for regions in [0, RegionEncoder::MAX_REGIONS + 1] {
            let err = run_system(
                Kernel::Fir,
                8,
                1,
                PlatformKind::VliwLike,
                &DiffCodec::new(),
                regions,
            );
            assert!(matches!(err, Err(FlowError::InvalidSpec(_))), "{regions}");
        }
    }
}
