//! The chip-multiprocessor flow: N cores' kernels interleaved through
//! private L1s into the shared compressed NUCA LLC of `lpmem-cmp`.
//!
//! Each core runs its own kernel (rotating through [`Kernel::ALL`]
//! starting from the grid point's kernel) on its own derived seed, so a
//! 4-core run is a genuinely heterogeneous multi-programmed workload,
//! not four copies of one trace. The instruction side stays per-core —
//! every core has a private instruction bus whose XOR encoder trains on
//! that core's own fetch stream ([`price_bus`]) — while the data side
//! goes through [`simulate_cmp`]'s shared LLC.
//!
//! Degeneracy guarantees (the differential tests pin both):
//!
//! - a *disabled* spec never reaches this module
//!   ([`FlowSpec::run`](crate::flows::FlowSpec::run) runs the
//!   single-core flow), so zero-CMP reports stay byte-identical;
//! - a *passthrough* spec (1 uncompressed bank, no tech axis, no
//!   budget) is priced as the sum of independent single-core system
//!   flows — for 1 core that is *exactly* the existing system flow.

use lpmem_buscode::BusChoice;
use lpmem_cmp::{simulate_cmp, CmpReport, CmpSpec, CoreRun};
use lpmem_compress::DiffCodec;
use lpmem_energy::Energy;
use lpmem_fault::{FaultSpec, ReliabilityReport};
use lpmem_isa::Kernel;
use lpmem_util::SplitMix64;

use crate::flows::buscoding::{check_regions, price_bus};
use crate::flows::spec::{
    data_memory_exposure, fault_campaign, FlowSpec, FlowSummary, TechNode, VariantSpec,
};
use crate::flows::system::run_system_trace;
use crate::FlowError;

/// The kernel core `i` runs: rotate through [`Kernel::ALL`] starting
/// from the grid point's kernel.
fn core_kernel(base: Kernel, core: u32) -> Kernel {
    let base_index = Kernel::ALL
        .iter()
        .position(|k| *k == base)
        .expect("every kernel is in Kernel::ALL");
    Kernel::ALL[(base_index + core as usize) % Kernel::ALL.len()]
}

/// The seed core `i` runs on. Core 0 keeps the task seed unchanged so
/// the 1-core passthrough is bit-identical to the single-core flow;
/// further cores derive from it on the CMP tag.
fn core_seed(seed: u64, core: u32) -> u64 {
    if core == 0 {
        seed
    } else {
        SplitMix64::derive(seed, &[u64::from(core), lpmem_cmp::TAG_CMP])
    }
}

/// Builds core `core`'s workload of a CMP run: it executes
/// `core_kernel(kernel, core)` at the shared scale on
/// `core_seed(seed, core)`, so the run depends on nothing else.
///
/// Public so the design-space explorer can build each core's run once and
/// feed the same multi-programmed workload into [`simulate_cmp`] under its
/// own cache geometry.
///
/// # Errors
///
/// Propagates kernel generation errors.
pub fn cmp_core_run(
    kernel: Kernel,
    scale: u32,
    seed: u64,
    core: u32,
) -> Result<CoreRun, FlowError> {
    let run = core_kernel(kernel, core).run(scale, core_seed(seed, core))?;
    Ok(CoreRun {
        trace: run.trace,
        image: run.image,
    })
}

/// Builds the per-core workloads of a CMP run: [`cmp_core_run`] of each
/// core `0..cores`.
///
/// # Errors
///
/// Propagates kernel generation errors.
pub fn cmp_core_runs(
    kernel: Kernel,
    scale: u32,
    seed: u64,
    cores: u32,
) -> Result<Vec<CoreRun>, FlowError> {
    (0..cores)
        .map(|c| cmp_core_run(kernel, scale, seed, c))
        .collect()
}

/// Runs the CMP scenario on one grid point: the system flow's platform
/// with `cmp.cores` cores sharing the LLC `cmp` describes.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSpec`] when the spec's LLC geometry is
/// invalid for the platform's L1 line size or [`check_regions`] rejects
/// the variant's region count, [`FlowError::EmptyInput`] when a core's
/// trace has no instruction fetches, and propagates kernel errors.
///
/// # Panics
///
/// Panics when `cmp` is disabled ([`FlowSpec::run`] routes those through
/// the single-core flow).
pub fn run_cmp(
    kernel: Kernel,
    scale: u32,
    seed: u64,
    tech: TechNode,
    variant: &VariantSpec,
    fault: &FaultSpec,
    cmp: &CmpSpec,
) -> Result<FlowSummary, FlowError> {
    assert!(cmp.enabled(), "run_cmp needs an enabled CMP spec");
    let l1 = variant.platform.cache_config();
    cmp.validate(l1.line_bytes())
        .map_err(|why| FlowError::InvalidSpec(format!("cmp spec {}: {why}", cmp.label())))?;
    check_regions(variant.regions)?;
    let technology = tech.technology();
    let workload = format!("cmp{}:{}", cmp.cores, kernel.name());

    if cmp.passthrough() {
        // Degenerate LLC: one uncompressed bank, no heterogeneity, no
        // budget — every core's traffic passes straight through, so the
        // chip prices as the sum of independent single-core systems.
        let mut baseline = Energy::ZERO;
        let mut optimized = Energy::ZERO;
        let mut fetches = 0u64;
        let mut reliability: Option<ReliabilityReport> = None;
        for c in 0..cmp.cores {
            let CoreRun { trace, image } = cmp_core_run(kernel, scale, seed, c)?;
            let out = run_system_trace(
                core_kernel(kernel, c).name(),
                &trace,
                image,
                variant.platform,
                &DiffCodec::new(),
                variant.regions,
                &technology,
            )?;
            baseline += out.baseline.total();
            optimized += out.optimized.total();
            fetches += out.fetches;
            if fault.enabled() {
                let mut exposure = data_memory_exposure(&trace, variant, &technology)?;
                exposure.domain = u64::from(c);
                let s = core_seed(seed, c);
                let report = fault_campaign(fault, &technology, &exposure, s, &mut optimized);
                reliability
                    .get_or_insert_with(ReliabilityReport::default)
                    .merge(&report);
            }
        }
        return Ok(FlowSummary {
            flow: FlowSpec::System,
            workload,
            baseline,
            optimized,
            events: fetches,
            reliability,
            cmp: Some(CmpReport {
                spec: cmp.label(),
                cores: cmp.cores,
                ..CmpReport::default()
            }),
        });
    }

    // Active scenario. Instruction side first: each core's private bus
    // encoder trains on its own fetch stream.
    let runs = cmp_core_runs(kernel, scale, seed, cmp.cores)?;
    let ibus = price_bus(
        runs.iter().map(|run| &run.trace),
        BusChoice::Xor(variant.regions),
        &technology,
    )?;

    // Data side: the shared-LLC simulation.
    let sim = simulate_cmp(cmp, l1, &technology, &runs, fault, seed);

    let mut baseline = sim.baseline.total();
    baseline += ibus.raw;
    let mut optimized = sim.optimized.total();
    optimized += ibus.encoded;
    optimized += ibus.gates;

    Ok(FlowSummary {
        flow: FlowSpec::System,
        workload,
        baseline,
        optimized,
        events: ibus.fetches,
        reliability: sim.reliability,
        cmp: Some(sim.report),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::spec::Scenario;
    use lpmem_fault::Protection;

    fn passthrough_1core() -> CmpSpec {
        CmpSpec {
            cores: 1,
            banks: 1,
            bank_kib: 32,
            ways: 4,
            ..CmpSpec::off()
        }
    }

    /// `(flow, events, baseline_pj, optimized_pj, [injected, masked,
    /// detected, corrected, silent])` of `tests/golden.rs` at fir/48,
    /// seed 2003, 90 nm, default variant, accelerated SECDED.
    const SECDED_T90: [(FlowSpec, u64, f64, f64, [u64; 5]); 5] = [
        (
            FlowSpec::Partitioning,
            1584,
            51097.816325209176,
            17760.05034559285,
            [24, 24, 0, 0, 0],
        ),
        (
            FlowSpec::Compression,
            3,
            204914.56,
            185630.31999999998,
            [24, 24, 0, 0, 0],
        ),
        (
            FlowSpec::BusCoding,
            8794,
            21252.25,
            10032.46,
            [24, 24, 0, 0, 0],
        ),
        (FlowSpec::Scheduling, 128, 428502412.8, 333528664.68, [0; 5]),
        (
            FlowSpec::System,
            8794,
            226166.81,
            195286.963,
            [24, 24, 0, 0, 0],
        ),
    ];

    fn fir<'a>(
        tech: TechNode,
        variant: &'a VariantSpec,
        fault: FaultSpec,
        cmp: &'a CmpSpec,
    ) -> Scenario<'a> {
        Scenario {
            fault,
            cmp,
            ..Scenario::new(Kernel::Fir, 48, 2003, tech, variant)
        }
    }

    #[test]
    fn disabled_cmp_reproduces_the_golden_fault_values() {
        let variant = VariantSpec::default();
        let fault = FaultSpec::accelerated(Protection::Secded);
        for (flow, events, baseline_pj, optimized_pj, counts) in SECDED_T90 {
            let out = flow
                .run(&fir(TechNode::T90, &variant, fault, &CmpSpec::off()))
                .unwrap();
            assert!(out.cmp.is_none(), "{flow}");
            assert_eq!(out.events, events, "{flow}");
            assert_eq!(out.baseline.as_pj(), baseline_pj, "{flow}");
            assert_eq!(out.optimized.as_pj(), optimized_pj, "{flow}");
            let r = out.reliability.expect("campaign ran");
            assert_eq!(
                [r.injected, r.masked, r.detected, r.corrected, r.silent],
                counts,
                "{flow}"
            );
        }
    }

    #[test]
    fn one_core_passthrough_degenerates_to_the_system_flow() {
        // A 1-core chip with one plain LLC bank *is* the single-core
        // system: same energies, same event count, exactly.
        let variant = VariantSpec::default();
        let spec = passthrough_1core();
        for fault in [FaultSpec::off(), FaultSpec::accelerated(Protection::Secded)] {
            let solo = FlowSpec::System
                .run(&fir(TechNode::T90, &variant, fault, &CmpSpec::off()))
                .unwrap();
            let cmp = FlowSpec::System
                .run(&fir(TechNode::T90, &variant, fault, &spec))
                .unwrap();
            assert_eq!(solo.baseline, cmp.baseline);
            assert_eq!(solo.optimized, cmp.optimized);
            assert_eq!(solo.events, cmp.events);
            assert_eq!(solo.reliability, cmp.reliability);
            assert_eq!(cmp.workload, "cmp1:fir");
            assert_eq!(cmp.cmp.as_ref().map(|r| r.cores), Some(1));
        }
    }

    #[test]
    fn cmp_applies_only_to_the_system_flow() {
        let variant = VariantSpec::default();
        let quad = CmpSpec::quad();
        for flow in FlowSpec::ALL {
            if flow == FlowSpec::System {
                continue;
            }
            let plain = flow
                .run(&Scenario::new(
                    Kernel::Fir,
                    48,
                    2003,
                    TechNode::T180,
                    &variant,
                ))
                .unwrap();
            let under_cmp = flow
                .run(&fir(TechNode::T180, &variant, FaultSpec::off(), &quad))
                .unwrap();
            assert_eq!(plain, under_cmp, "{flow}");
        }
    }

    #[test]
    fn invalid_specs_are_errors_not_panics() {
        // Parses, but a compressed LLC with zero banks cannot be built.
        let spec = CmpSpec::parse("c4b0x32w4-zrun").expect("parses");
        let variant = VariantSpec::default();
        let err = FlowSpec::System
            .run(&fir(TechNode::T180, &variant, FaultSpec::off(), &spec))
            .unwrap_err();
        assert!(
            matches!(&err, FlowError::InvalidSpec(why) if why.contains("at least one bank")),
            "{err}"
        );
        // A bank smaller than one set of the platform's 64-byte lines.
        let tiny = CmpSpec {
            bank_kib: 0,
            ..CmpSpec::quad()
        };
        let err = run_cmp(
            Kernel::Fir,
            48,
            2003,
            TechNode::T180,
            &variant,
            &FaultSpec::off(),
            &tiny,
        );
        assert!(matches!(err, Err(FlowError::InvalidSpec(_))));
        // A region count the bus encoder rejects, on both CMP paths.
        let no_regions = VariantSpec {
            regions: 0,
            ..VariantSpec::default()
        };
        for spec in [CmpSpec::quad(), passthrough_1core()] {
            let err = run_cmp(
                Kernel::Fir,
                48,
                2003,
                TechNode::T180,
                &no_regions,
                &FaultSpec::off(),
                &spec,
            );
            assert!(
                matches!(&err, Err(FlowError::InvalidSpec(why)) if why.contains("regions")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn active_cmp_reports_the_shared_llc_and_saves_energy() {
        let variant = VariantSpec::default();
        let out = run_cmp(
            Kernel::Fir,
            48,
            2003,
            TechNode::T180,
            &variant,
            &FaultSpec::off(),
            &CmpSpec::quad(),
        )
        .unwrap();
        let report = out.cmp.as_ref().expect("active run carries a report");
        assert_eq!(report.cores, 4);
        assert_eq!(report.llc_banks, 8);
        assert!(report.llc_lookups > 0);
        assert!(report.cycles > 0);
        assert!(out.events > 0);
        assert!(
            out.optimized < out.baseline,
            "shared compressed LLC should save energy: {} vs {}",
            out.optimized,
            out.baseline
        );
        // Heterogeneous multi-programming: the 4 cores run 4 kernels.
        assert_eq!(out.workload, "cmp4:fir");
        let runs = cmp_core_runs(Kernel::Fir, 48, 2003, 4).unwrap();
        assert_eq!(runs.len(), 4);
        assert_ne!(runs[0].trace.len(), runs[1].trace.len());
    }

    #[test]
    fn cmp_runs_are_deterministic() {
        let variant = VariantSpec::tight();
        let fault = FaultSpec::accelerated(Protection::Secded);
        let a = run_cmp(
            Kernel::Dct8,
            24,
            7,
            TechNode::T90,
            &variant,
            &fault,
            &CmpSpec::quad(),
        )
        .unwrap();
        let b = run_cmp(
            Kernel::Dct8,
            24,
            7,
            TechNode::T90,
            &variant,
            &fault,
            &CmpSpec::quad(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert!(a.reliability.is_some());
    }
}
