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
//! Every enabled spec takes that one path, a 1-bank uncompressed LLC
//! included. A *disabled* spec never reaches this module
//! ([`FlowSpec::run`](crate::flows::FlowSpec::run) runs the single-core
//! flow), so zero-CMP reports stay byte-identical.

use lpmem_buscode::BusChoice;
use lpmem_cmp::{simulate_cmp, CmpSpec, CoreRun};
use lpmem_fault::FaultSpec;
use lpmem_isa::Kernel;
use lpmem_util::SplitMix64;

use crate::flows::buscoding::{check_regions, price_bus};
use crate::flows::spec::{FlowSpec, FlowSummary, TechNode, VariantSpec};
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

/// The seed core `i` runs on. Core 0 keeps the task seed unchanged, so
/// it runs the single-core flow's kernel on the same inputs; further
/// cores derive from it on the CMP tag.
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

    // Instruction side first: each core's private bus encoder trains on
    // its own fetch stream.
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
        workload: format!("cmp{}:{}", cmp.cores, kernel.name()),
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
        // Parse, but an LLC with zero banks cannot be built, compressed or
        // not.
        let variant = VariantSpec::default();
        for label in ["c4b0x32w4-zrun", "c4b0x32w4"] {
            let spec = CmpSpec::parse(label).expect("parses");
            let err = FlowSpec::System
                .run(&fir(TechNode::T180, &variant, FaultSpec::off(), &spec))
                .unwrap_err();
            assert!(
                matches!(&err, FlowError::InvalidSpec(why) if why.contains("at least one bank")),
                "{label}: {err}"
            );
        }
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
        // A region count the bus encoder rejects, on a banked chip and on
        // one core over a single plain bank.
        let no_regions = VariantSpec {
            regions: 0,
            ..VariantSpec::default()
        };
        for spec in [
            CmpSpec::quad(),
            CmpSpec::parse("c1b1x32w4").expect("parses"),
        ] {
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
    fn a_budget_that_darkens_no_bank_prices_like_no_budget() {
        let variant = VariantSpec::default();
        let run = |label: &str| {
            let spec = CmpSpec::parse(label).expect("parses");
            run_cmp(
                Kernel::Fir,
                48,
                2003,
                TechNode::T180,
                &variant,
                &FaultSpec::off(),
                &spec,
            )
            .unwrap()
        };
        let free = run("c4b1x32w4");
        let budgeted = run("c4b1x32w4-p100000");
        let (free_report, budgeted_report) = (free.cmp.unwrap(), budgeted.cmp.unwrap());
        assert_eq!(budgeted_report.dark_banks, 0);
        assert_eq!(free_report.llc_banks, 1);
        assert!(free_report.offchip_beats > 0);
        assert_eq!(
            free_report.json_fields(),
            budgeted_report.json_fields(),
            "{budgeted_report:?}"
        );
        assert_eq!(free.baseline, budgeted.baseline);
        assert_eq!(free.optimized, budgeted.optimized);
        assert_eq!(free.events, budgeted.events);
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
