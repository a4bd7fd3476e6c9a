//! Enumerable flow specifications for grid-driven experiment sweeps.
//!
//! The evaluation flows ([`partitioning`](crate::flows::partitioning),
//! [`compression`](crate::flows::compression), …) each have their own
//! argument and outcome types. A sweep engine needs a uniform surface
//! instead: a closed set of [`FlowSpec`] values it can enumerate into a
//! grid, a [`VariantSpec`] bundling every per-flow knob a grid axis may
//! vary, and a flat [`FlowSummary`] every flow can report — the common
//! denominator (baseline vs. optimized energy plus an event count) that a
//! metrics layer or machine-readable report can aggregate without knowing
//! the flow. A [`Scenario`] bundles one grid point of every axis, and
//! [`FlowSpec::run`] is the single entry point that runs it.

use lpmem_cmp::CmpSpec;
use lpmem_compress::DiffCodec;
use lpmem_energy::{Energy, Technology};
use lpmem_fault::{run_campaign, BankExposure, FaultExposure, FaultSpec, ReliabilityReport};
use lpmem_isa::Kernel;
use lpmem_mem::FlatMemory;
use lpmem_partition::sleep::{evaluate_with_sleep, SleepPolicy};
use lpmem_partition::{optimal_partition, PartitionCost};
use lpmem_sched::SchedPlatform;
use lpmem_trace::{BlockProfile, Trace};

use crate::flows::buscoding::run_buscoding;
use crate::flows::cmp::run_cmp;
use crate::flows::compression::{run_compression_trace, CompressionConfig, PlatformKind};
use crate::flows::partitioning::{run_partitioning, PartitioningConfig};
use crate::flows::scheduling::{self, dsp_pipeline_app, run_scheduling};
use crate::flows::system::run_system_trace;
use crate::workloads::kernel_trace_and_image;
use crate::FlowError;

/// Bank power-gating timeout (trace ticks) used when deriving fault
/// exposure — matches the sleep-aware partitioning experiments.
const FAULT_SLEEP_TIMEOUT: u64 = 32;

// The sweep grid's technology axis. Promoted to `lpmem-energy` so crates
// below the flow layer (notably `lpmem-cmp`) can name nodes; re-exported
// here so every existing import path keeps working.
pub use lpmem_energy::TechNode;

/// One evaluation flow, enumerable and dispatchable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowSpec {
    /// 1B.1: memory partitioning ± address clustering.
    Partitioning,
    /// 1B.2: D-cache write-back compression.
    Compression,
    /// 1B.3: instruction-bus functional encoding.
    BusCoding,
    /// 1B.4: two-level data scheduling.
    Scheduling,
    /// Capstone: bus encoding + compression on one platform.
    System,
}

/// One grid point of every axis a flow runs under: the workload
/// (kernel, scale, seed), the technology node, the per-flow knobs, and
/// the fault and CMP axes. [`Scenario::new`] turns both axes off; set
/// them with struct-update syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario<'a> {
    /// Kernel input (a replicate index for the scheduling flow).
    pub kernel: Kernel,
    /// Kernel scale.
    pub scale: u32,
    /// Workload seed.
    pub seed: u64,
    /// Technology node.
    pub tech: TechNode,
    /// Per-flow knobs.
    pub variant: &'a VariantSpec,
    /// Reliability configuration; [`FaultSpec::off`] runs the plain flow.
    pub fault: FaultSpec,
    /// Chip-multiprocessor scenario; [`CmpSpec::off`] runs the
    /// single-core flow.
    pub cmp: &'a CmpSpec,
}

/// The disabled CMP axis [`Scenario::new`] points at.
static CMP_OFF: CmpSpec = CmpSpec::off();

impl<'a> Scenario<'a> {
    /// A scenario with the fault and CMP axes off.
    pub fn new(
        kernel: Kernel,
        scale: u32,
        seed: u64,
        tech: TechNode,
        variant: &'a VariantSpec,
    ) -> Self {
        Scenario {
            kernel,
            scale,
            seed,
            tech,
            variant,
            fault: FaultSpec::off(),
            cmp: &CMP_OFF,
        }
    }
}

impl FlowSpec {
    /// Every flow, in grid order.
    pub const ALL: [FlowSpec; 5] = [
        FlowSpec::Partitioning,
        FlowSpec::Compression,
        FlowSpec::BusCoding,
        FlowSpec::Scheduling,
        FlowSpec::System,
    ];

    /// The flow's key in grid syntax and reports.
    pub fn name(self) -> &'static str {
        match self {
            FlowSpec::Partitioning => "partitioning",
            FlowSpec::Compression => "compression",
            FlowSpec::BusCoding => "buscoding",
            FlowSpec::Scheduling => "scheduling",
            FlowSpec::System => "system",
        }
    }

    /// Parses a flow key (case-insensitive).
    pub fn parse(s: &str) -> Option<FlowSpec> {
        FlowSpec::ALL
            .into_iter()
            .find(|f| f.name() == s.trim().to_ascii_lowercase())
    }

    /// Runs this flow on one scenario and reports the flat summary: the
    /// one flow entry point. The kernel runs once, verified against its
    /// Rust reference, and that one trace feeds both the flow and the
    /// fault campaign.
    ///
    /// A disabled fault or CMP axis leaves the plain summary untouched
    /// (`reliability` and `cmp` stay `None`). An enabled fault spec adds a
    /// campaign over [`data_memory_exposure`] and charges the protection's
    /// energy onto the optimized design only. An enabled CMP spec applies
    /// only to the [`System`](FlowSpec::System) flow, which it runs
    /// through [`run_cmp`]; the other flows ignore it.
    ///
    /// The [`Scheduling`](FlowSpec::Scheduling) flow has no kernel input;
    /// it treats the kernel axis as a replicate index (the seed alone
    /// distinguishes its runs) and exposes its L0 scratchpad to faults.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flow's error, including
    /// [`FlowError::InvalidSpec`] for a CMP spec the platform rejects.
    pub fn run(self, sc: &Scenario) -> Result<FlowSummary, FlowError> {
        if self == FlowSpec::System && sc.cmp.enabled() {
            return run_cmp(
                sc.kernel, sc.scale, sc.seed, sc.tech, sc.variant, &sc.fault, sc.cmp,
            );
        }
        let tech = sc.tech.technology();
        let v = sc.variant;
        let name = sc.kernel.name();
        // The scheduling flow has no kernel input.
        let (trace, image) = match self {
            FlowSpec::Scheduling => (Trace::new(), FlatMemory::new()),
            _ => kernel_trace_and_image(sc.kernel, sc.scale, sc.seed)?,
        };
        let mut summary = match self {
            FlowSpec::Partitioning => {
                let cfg = PartitioningConfig {
                    block_size: v.block_size,
                    max_banks: v.max_banks,
                    ..Default::default()
                };
                let out = run_partitioning(name, &trace, &cfg, &tech)?;
                self.summary(name, out.monolithic, out.clustered, out.accesses)
            }
            FlowSpec::Compression => {
                let cfg = CompressionConfig {
                    cache: v.platform.cache_config(),
                    threshold: v.threshold,
                    flush_at_end: true,
                };
                let out = run_compression_trace(
                    name,
                    v.platform.name(),
                    &trace,
                    image,
                    &DiffCodec::new(),
                    &cfg,
                    &tech,
                )?;
                self.summary(
                    name,
                    out.baseline.total(),
                    out.compressed.total(),
                    out.lines,
                )
            }
            FlowSpec::BusCoding => {
                let out = run_buscoding(name, &trace, v.regions, &tech)?;
                self.summary(name, out.raw_energy, out.encoded_energy, out.fetches)
            }
            FlowSpec::Scheduling => {
                let app = dsp_pipeline_app(v.stages, v.iterations, sc.seed)?;
                let platform = SchedPlatform::new(&tech, v.l0_bytes, scheduling::L1_BYTES);
                let name = format!("dsp-{}x{}", v.stages, v.iterations);
                let out = run_scheduling(&name, &app, &platform)?;
                let events = out.contexts as u64 * out.iterations;
                self.summary(&name, out.naive, out.greedy, events)
            }
            FlowSpec::System => {
                let out = run_system_trace(
                    name,
                    &trace,
                    image,
                    v.platform,
                    &DiffCodec::new(),
                    v.regions,
                    &tech,
                )?;
                let (baseline, optimized) = (out.baseline.total(), out.optimized.total());
                self.summary(name, baseline, optimized, out.fetches)
            }
        };
        if sc.fault.enabled() {
            let exposure = if self == FlowSpec::Scheduling {
                // The L0 scratchpad is the exposed memory, busy for the
                // whole run.
                FaultExposure::single_bank(v.l0_bytes / 4, summary.events, summary.events)
            } else {
                data_memory_exposure(&trace, v, &tech)?
            };
            let report =
                fault_campaign(&sc.fault, &tech, &exposure, sc.seed, &mut summary.optimized);
            summary.reliability = Some(report);
        }
        Ok(summary)
    }

    fn summary(
        self,
        workload: &str,
        baseline: Energy,
        optimized: Energy,
        events: u64,
    ) -> FlowSummary {
        FlowSummary {
            flow: self,
            workload: workload.to_owned(),
            baseline,
            optimized,
            events,
            reliability: None,
            cmp: None,
        }
    }
}

/// The fault-campaign step every flow shares: runs `fault`'s campaign
/// over `exposure` and charges the protection's per-access encode/decode
/// energy onto `optimized`.
pub(crate) fn fault_campaign(
    fault: &FaultSpec,
    tech: &Technology,
    exposure: &FaultExposure,
    seed: u64,
    optimized: &mut Energy,
) -> ReliabilityReport {
    *optimized += fault.protection.access_overhead(tech, exposure.accesses());
    run_campaign(fault, tech, exposure, seed)
}

/// Derives the fault exposure of a trace's data memory: the trace is
/// profiled and partitioned exactly like the partitioning flow (same
/// block size and bank budget), then replayed under the sleep model so
/// each bank's drowsy residency — the retention-failure driver — is an
/// exact integer tick count.
///
/// # Errors
///
/// Returns [`FlowError::EmptyInput`] when the trace has no data accesses
/// and propagates profile-construction errors.
pub fn data_memory_exposure(
    trace: &Trace,
    variant: &VariantSpec,
    tech: &Technology,
) -> Result<FaultExposure, FlowError> {
    let data = trace.data_only();
    if data.is_empty() {
        return Err(FlowError::EmptyInput("trace has no data accesses"));
    }
    let profile = BlockProfile::from_trace(&data, variant.block_size)?;
    let cost = PartitionCost::new(tech);
    let (partition, _) = optimal_partition(&profile, variant.max_banks, &cost);
    let policy = SleepPolicy::from_tech(tech, FAULT_SLEEP_TIMEOUT);
    let sleep = evaluate_with_sleep(&data, &profile, &partition, tech, &policy);
    let block_words = profile.block_size() / 4;
    let counts = profile.counts();
    let write_counts = profile.write_counts();
    let mut banks = Vec::with_capacity(partition.num_banks());
    for (bi, range) in partition.banks().enumerate() {
        let reads: u64 = range.clone().map(|b| counts[b] - write_counts[b]).sum();
        let writes: u64 = range.clone().map(|b| write_counts[b]).sum();
        banks.push(BankExposure {
            words: range.len() as u64 * block_words,
            active_ticks: sleep.total_ticks - sleep.bank_sleep_ticks[bi],
            sleep_ticks: sleep.bank_sleep_ticks[bi],
            reads,
            writes,
        });
    }
    Ok(FaultExposure { domain: 0, banks })
}

impl std::fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every per-flow knob a sweep grid's variant axis may vary, bundled with
/// a display name. Flows read only the fields they understand.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Variant label in grid syntax and reports.
    pub name: String,
    /// Cache platform preset (compression, system).
    pub platform: PlatformKind,
    /// Bank budget (partitioning).
    pub max_banks: usize,
    /// Profile block size in bytes (partitioning).
    pub block_size: u64,
    /// Compression threshold as a line-size fraction (compression).
    pub threshold: f64,
    /// Reprogrammable bus-encoder regions (buscoding, system).
    pub regions: usize,
    /// L0 scratchpad capacity in bytes (scheduling).
    pub l0_bytes: u64,
    /// Pipeline stages of the generated application (scheduling).
    pub stages: usize,
    /// Loop iterations of the generated application (scheduling).
    pub iterations: u64,
}

impl Default for VariantSpec {
    /// The headline configuration of every experiment: 8 banks over 2 KiB
    /// blocks, VLIW cache platform at threshold 0.75, 4 encoder regions,
    /// 1 KiB L0 under a 4-stage 32-frame pipeline.
    fn default() -> Self {
        VariantSpec {
            name: "default".to_owned(),
            platform: PlatformKind::VliwLike,
            max_banks: 8,
            block_size: 2048,
            threshold: 0.75,
            regions: 4,
            l0_bytes: 1 << 10,
            stages: 4,
            iterations: 32,
        }
    }
}

impl VariantSpec {
    /// The resource-constrained counterpoint to
    /// [`default`](VariantSpec::default): half the banks, the paper's
    /// strict half-line compression slots on the RISC platform, more
    /// encoder regions, and a smaller L0 — the corner that stresses every
    /// flow's trade-off logic.
    pub fn tight() -> Self {
        VariantSpec {
            name: "tight".to_owned(),
            platform: PlatformKind::RiscLike,
            max_banks: 4,
            block_size: 1024,
            threshold: 0.5,
            regions: 8,
            l0_bytes: 512,
            stages: 4,
            iterations: 32,
        }
    }

    /// Looks a built-in variant up by name (`"default"` or `"tight"`).
    pub fn parse(s: &str) -> Option<VariantSpec> {
        match s.trim().to_ascii_lowercase().as_str() {
            "default" => Some(VariantSpec::default()),
            "tight" => Some(VariantSpec::tight()),
            _ => None,
        }
    }
}

/// The flat result every flow reports to the sweep engine: the baseline
/// and optimized energies of its headline comparison plus the number of
/// events (accesses, lines, fetches, context activations) it evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// The flow that produced this summary.
    pub flow: FlowSpec,
    /// Workload label (kernel name or generated-app label).
    pub workload: String,
    /// Energy of the unoptimized design.
    pub baseline: Energy,
    /// Energy of the optimized design.
    pub optimized: Energy,
    /// Events evaluated (the flow's natural unit of work).
    pub events: u64,
    /// Fault-campaign outcome when the [`Scenario`] enabled the fault
    /// axis; `None` otherwise, keeping pre-fault reports byte-identical.
    pub reliability: Option<ReliabilityReport>,
    /// CMP outcome counters when the [`Scenario`] enabled the CMP axis
    /// on the system flow; `None` everywhere else, keeping pre-CMP
    /// reports byte-identical.
    pub cmp: Option<lpmem_cmp::CmpReport>,
}

impl FlowSummary {
    /// Fractional energy saving of the optimized design.
    pub fn saving(&self) -> f64 {
        self.optimized.saving_vs(self.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadMix;
    use lpmem_fault::Protection;
    use lpmem_util::{Props, Rng};

    /// `(flow, events, baseline_pj, optimized_pj)` of `tests/golden.rs`
    /// at fir/48, seed 2003, 0.18 µm, default variant, faults off.
    const PLAIN_T180: [(FlowSpec, u64, f64, f64); 5] = [
        (
            FlowSpec::Partitioning,
            1584,
            128236.77697562754,
            26694.919036778538,
        ),
        (FlowSpec::Compression, 3, 473784.32, 428837.12),
        (
            FlowSpec::BusCoding,
            8794,
            110171.66400000002,
            49421.66400000001,
        ),
        (
            FlowSpec::Scheduling,
            128,
            998306091.5199997,
            773675918.0800002,
        ),
        (FlowSpec::System, 8794, 583955.984, 478897.157312),
    ];

    fn fir(tech: TechNode, variant: &VariantSpec) -> Scenario<'_> {
        Scenario::new(Kernel::Fir, 48, 2003, tech, variant)
    }

    /// Randomly re-cases a label and pads it with whitespace: these
    /// `parse`s are case-insensitive and trim.
    fn mangle(label: &str, rng: &mut Rng) -> String {
        let cased: String = label
            .chars()
            .map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        let pad = |rng: &mut Rng| " ".repeat(rng.bounded_u64(3) as usize);
        format!("{}{cased}{}", pad(rng), pad(rng))
    }

    fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
        *rng.choose(items).expect("non-empty choice")
    }

    #[test]
    fn names_roundtrip_through_parse() {
        for flow in FlowSpec::ALL {
            assert_eq!(FlowSpec::parse(flow.name()), Some(flow));
        }
        for tech in TechNode::ALL {
            assert_eq!(TechNode::parse(tech.name()), Some(tech));
        }
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
        }
        assert_eq!(FlowSpec::parse("nonsense"), None);
        assert_eq!(TechNode::parse("t65"), None);
        assert_eq!(Kernel::parse("fft"), None);
        assert_eq!(
            VariantSpec::parse("tight").map(|v| v.name),
            Some("tight".to_owned())
        );
        assert!(VariantSpec::parse("nonsense").is_none());

        Props::new("scenario axes roundtrip through parse").run(|rng| {
            let flow = pick(rng, &FlowSpec::ALL);
            assert_eq!(FlowSpec::parse(&mangle(flow.name(), rng)), Some(flow));
            let tech = pick(rng, &TechNode::ALL);
            assert_eq!(TechNode::parse(&mangle(tech.name(), rng)), Some(tech));
            let kernel = pick(rng, &Kernel::ALL);
            assert_eq!(Kernel::parse(&mangle(kernel.name(), rng)), Some(kernel));
            let variant = if rng.gen_bool(0.5) {
                VariantSpec::default()
            } else {
                VariantSpec::tight()
            };
            assert_eq!(
                VariantSpec::parse(&mangle(&variant.name, rng)),
                Some(variant)
            );
        });
    }

    #[test]
    fn spec_parsers_never_panic_on_arbitrary_strings() {
        const FRAGMENTS: [&str; 32] = [
            "c",
            "b",
            "x",
            "w",
            "q",
            "p",
            "t",
            "-",
            "+",
            ":",
            ",",
            " ",
            "off",
            "none",
            "parity",
            "secded",
            "zrun",
            "fpc",
            "diff",
            "t180",
            "t90",
            "0",
            "7",
            "99999999999",
            "18446744073709551616",
            "1e308",
            "-1",
            "nan",
            "é",
            "日本",
            "\u{0}",
            "default",
        ];
        let parse_all = |s: &str| {
            if let Some(cmp) = CmpSpec::parse(s) {
                assert_eq!(CmpSpec::parse(&cmp.label()), Some(cmp), "{s:?}");
            }
            if let Some(fault) = FaultSpec::parse(s) {
                assert_eq!(FaultSpec::parse(&fault.label()), Some(fault), "{s:?}");
            }
            if let Some(mix) = WorkloadMix::parse(s) {
                assert_eq!(WorkloadMix::parse(mix.name()), Some(mix), "{s:?}");
            }
            let _ = (
                TechNode::parse(s),
                VariantSpec::parse(s),
                FlowSpec::parse(s),
                Kernel::parse(s),
                Protection::parse(s),
                lpmem_compress::CodecKind::parse(s),
            );
        };
        for s in [
            "",
            "c99999999999b1x1w1",
            "c4b8x32w4--t",
            "c4b8x32w4-t",
            "c4b8x32w4-p",
            "c4b8x32w4-q-1",
            "c4b8x32w4-t180+",
            "c１b1x1w1",
            "secded:",
            ":5",
            "secded:99999999999999999999",
            "1,2,3,4",
            "1,2,3,4,5,6",
            "inf,0,0,0,0",
            "1e308,1e308,1e308,1e308,1e308",
            "-1,2,3,4,5",
            "ñ,ß,日,本,語",
        ] {
            parse_all(s);
        }
        Props::new("spec parsers never panic")
            .cases(512)
            .run(|rng| {
                let s: String = (0..rng.bounded_u64(12))
                    .map(|_| pick(rng, &FRAGMENTS))
                    .collect();
                parse_all(&s);
            });
    }

    #[test]
    fn every_flow_runs_and_saves_energy() {
        let variant = VariantSpec::default();
        for flow in FlowSpec::ALL {
            let out = flow
                .run(&fir(TechNode::T180, &variant))
                .unwrap_or_else(|e| panic!("{flow} failed: {e}"));
            assert_eq!(out.flow, flow);
            assert!(out.events > 0, "{flow}: no events");
            assert!(out.baseline > Energy::ZERO, "{flow}: zero baseline");
            assert!(
                out.optimized <= out.baseline,
                "{flow}: optimized {} worse than baseline {}",
                out.optimized,
                out.baseline
            );
        }
    }

    #[test]
    fn flow_runs_are_deterministic_per_seed() {
        let variant = VariantSpec::tight();
        let sc = Scenario::new(Kernel::Dct8, 16, 42, TechNode::T130, &variant);
        let a = FlowSpec::Compression.run(&sc).unwrap();
        let b = FlowSpec::Compression.run(&sc).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_faults_reproduce_the_golden_values() {
        // The differential guarantee: with the fault axis explicitly off,
        // every flow reports exactly the pre-fault golden numbers and no
        // reliability record.
        let variant = VariantSpec::default();
        for (flow, events, baseline_pj, optimized_pj) in PLAIN_T180 {
            let sc = Scenario {
                fault: FaultSpec::off(),
                ..fir(TechNode::T180, &variant)
            };
            let out = flow.run(&sc).unwrap();
            assert_eq!(out.events, events, "{flow}");
            assert_eq!(out.baseline.as_pj(), baseline_pj, "{flow}");
            assert_eq!(out.optimized.as_pj(), optimized_pj, "{flow}");
            assert!(out.reliability.is_none(), "{flow}");
            assert!(out.cmp.is_none(), "{flow}");
        }
    }

    #[test]
    fn faults_move_only_the_optimized_energy_by_the_protection_overhead() {
        let variant = VariantSpec::default();
        let tech = TechNode::T90.technology();
        let trace = Kernel::Fir.run(48, 2003).unwrap().trace;
        let exposure = data_memory_exposure(&trace, &variant, &tech).unwrap();
        for protection in [Protection::Parity, Protection::Secded] {
            let fault = FaultSpec::accelerated(protection);
            for flow in FlowSpec::ALL {
                let plain = flow.run(&fir(TechNode::T90, &variant)).unwrap();
                let on = flow
                    .run(&Scenario {
                        fault,
                        ..fir(TechNode::T90, &variant)
                    })
                    .unwrap();
                let accesses = if flow == FlowSpec::Scheduling {
                    plain.events
                } else {
                    exposure.accesses()
                };
                let mut expected = plain.optimized;
                expected += protection.access_overhead(&tech, accesses);
                assert_eq!(on.events, plain.events, "{flow}");
                assert_eq!(on.baseline, plain.baseline, "{flow}");
                assert_eq!(on.optimized, expected, "{flow}");
                assert!(on.reliability.is_some(), "{flow}");
            }
        }
    }

    #[test]
    fn fault_runs_report_reliability_and_charge_protection() {
        let variant = VariantSpec::default();
        for flow in FlowSpec::ALL {
            let run = |protection| {
                flow.run(&Scenario {
                    fault: FaultSpec::accelerated(protection),
                    ..fir(TechNode::T90, &variant)
                })
                .unwrap()
            };
            let unprotected = run(Protection::None);
            let secded = run(Protection::Secded);
            let ur = unprotected.reliability.expect("campaign ran");
            let sr = secded.reliability.expect("campaign ran");
            // The scheduling flow's L0 scratchpad is tiny and short-lived;
            // its campaign legitimately observes ~0 faults at this rate.
            if flow != FlowSpec::Scheduling {
                assert!(ur.injected > 0, "{flow}: no faults injected");
            }
            assert!(
                sr.silent < ur.silent || ur.silent == 0,
                "{flow}: secded did not reduce silent corruption ({sr:?} vs {ur:?})"
            );
            // ECC costs real energy: the protected run must be pricier.
            assert!(
                secded.optimized > unprotected.optimized,
                "{flow}: secded energy overhead missing"
            );
        }
    }

    #[test]
    fn exposure_reflects_trace_structure() {
        let run = Kernel::Fir.run(48, 2003).unwrap();
        let exposure =
            data_memory_exposure(&run.trace, &VariantSpec::default(), &Technology::tech180())
                .unwrap();
        assert!(!exposure.banks.is_empty());
        let data_events = run.trace.data_only().len() as u64;
        for bank in &exposure.banks {
            assert!(bank.words > 0);
            assert_eq!(bank.active_ticks + bank.sleep_ticks, data_events);
        }
        let accesses: u64 = exposure.accesses();
        assert_eq!(accesses, data_events, "every data event lands in a bank");
    }

    #[test]
    fn technology_axis_reaches_every_flow() {
        // The same task at two nodes must price differently — the grid's
        // technology axis is real for each flow, including the system flow
        // (which historically pinned its platform's own node).
        let variant = VariantSpec::default();
        for flow in FlowSpec::ALL {
            let at = |tech| {
                flow.run(&Scenario::new(Kernel::Histogram, 24, 7, tech, &variant))
                    .unwrap()
            };
            assert_ne!(
                at(TechNode::T180).baseline,
                at(TechNode::T90).baseline,
                "{flow}: tech axis had no effect"
            );
        }
    }
}
