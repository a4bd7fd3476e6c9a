//! Scoring one [`DesignPoint`] as (energy, area, cycles) objectives.
//!
//! The evaluator runs the workload **once** at construction and replays the
//! captured trace, fetch stream, and generated scheduling application
//! against each candidate configuration. Scoring is a pure function of the
//! point, so results are identical at any worker count; per-axis
//! memoization only avoids recomputing a sub-flow two points share — the
//! cached value is the value every thread would have computed.
//!
//! Memoization is one table per sub-flow behind one mutex, shared by
//! every worker. A sub-flow key is looked up under the lock; a missing
//! value is computed with the lock released and inserted afterwards. Two
//! workers may compute the same missing key, but every cached value is a
//! pure function of its key, so either insert stores the same value and
//! results stay byte-identical at any worker count. The lock never spans
//! a sub-flow: a cold CMP evaluation runs for milliseconds and would
//! serialize the workers.
//!
//! The modeled platform is a scratchpad-plus-cached-heap embedded SoC: the
//! partitioned/clustered scratchpad (1B.1) and the compressed write-back
//! D-cache (1B.2) are scored over the same data trace as two design
//! regions whose energies add, the encoded instruction bus (1B.3) over the
//! fetch stream, and the two-level scheduler (1B.4) over a DSP pipeline
//! generated from the same seed. Area is the sum of the banked scratchpad
//! (the promoted A5 accounting, relocation table included), the D-cache
//! macro, codec and encoder gates, and the L0/L1 macros.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

use lpmem_buscode::addrbus::gray_encode;
use lpmem_buscode::{transitions, BusInvert, RegionEncoder};
use lpmem_cmp::{simulate_cmp, CmpReport, CmpSpec, LlcCodec};
use lpmem_compress::{DiffCodec, FpcCodec, LineCodec, RawCodec, ZeroRunCodec};
use lpmem_core::flows::buscoding::{codec_gate_energy, fetch_stream};
use lpmem_core::flows::cmp::cmp_core_runs;
use lpmem_core::flows::compression::{run_compression_trace, CompressionConfig};
use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
use lpmem_core::flows::scheduling::{dsp_pipeline_app, run_scheduling};
use lpmem_core::flows::spec::{data_memory_exposure, TechNode, VariantSpec};
use lpmem_core::flows::{run_campaign, FaultSpec, ReliabilityReport};
use lpmem_core::workloads::kernel_trace_and_image;
use lpmem_core::FlowError;
use lpmem_energy::{AreaReport, BusModel, SramModel, Technology};
use lpmem_isa::Kernel;
use lpmem_mem::FlatMemory;
use lpmem_sched::{AppSpec, SchedPlatform};
use lpmem_trace::Trace;

use crate::point::{BusChoice, CacheGeom, CodecChoice, DesignPoint};

/// Cycles charged per off-chip beat (on-chip accesses cost one cycle).
const OFFCHIP_BEAT_CYCLES: u64 = 10;

/// Gate area as a multiple of the node's SRAM cell area — random logic is
/// larger than a 6T bit cell; 2.5 cells/gate is a standard-cell-order
/// approximation consistent with the workspace's ratio-only area model.
const GATE_CELLS: f64 = 2.5;

/// The workload a search scores every candidate against.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Workload {
    /// Kernel generating the trace and fetch stream.
    pub kernel: Kernel,
    /// Kernel problem scale.
    pub scale: u32,
    /// Seed for the kernel's data and the scheduling application.
    pub seed: u64,
    /// Technology node everything is priced at.
    pub tech: TechNode,
    /// Pipeline stages of the generated scheduling application.
    pub stages: usize,
    /// Loop iterations of the generated scheduling application.
    pub iterations: u64,
}

impl Default for Workload {
    /// The DSE headline workload: FIR at scale 48 on the 0.18 µm node with
    /// a 4-stage, 32-frame pipeline — the same corner the sweep's spec
    /// tests exercise.
    fn default() -> Self {
        Workload {
            kernel: Kernel::Fir,
            scale: 48,
            seed: 2003,
            tech: TechNode::T180,
            stages: 4,
            iterations: 32,
        }
    }
}

/// The minimized objectives of one evaluated point.
///
/// `silent` is the reliability objective: silent data corruptions of the
/// fault campaign, zero whenever the evaluator's fault axis is off — so a
/// fault-free search has exactly the classic three-axis dominance.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Objectives {
    /// Total platform energy in pJ.
    pub energy_pj: f64,
    /// Total silicon area in mm².
    pub area_mm2: f64,
    /// Performance proxy: memory cycles (on-chip accesses plus weighted
    /// off-chip beats).
    pub cycles: u64,
    /// Silent data corruptions of the fault campaign (0 when faults off).
    pub silent: u64,
}

impl Objectives {
    /// Pareto dominance: no objective worse, at least one strictly better.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.energy_pj <= other.energy_pj
            && self.area_mm2 <= other.area_mm2
            && self.cycles <= other.cycles
            && self.silent <= other.silent;
        let better = self.energy_pj < other.energy_pj
            || self.area_mm2 < other.area_mm2
            || self.cycles < other.cycles
            || self.silent < other.silent;
        no_worse && better
    }
}

/// One scored design point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Evaluation {
    /// The configuration that was scored.
    pub point: DesignPoint,
    /// Its objective vector.
    pub objectives: Objectives,
    /// Named area breakdown behind `objectives.area_mm2`.
    pub area: AreaReport,
    /// Full campaign accounting when the evaluator's fault axis is on.
    pub reliability: Option<ReliabilityReport>,
    /// Shared-LLC outcome counters when the point carries a CMP scenario.
    pub cmp: Option<CmpReport>,
}

#[derive(Clone)]
struct PartEval {
    energy_pj: f64,
    area: AreaReport,
}

#[derive(Clone, Copy)]
struct CompEval {
    energy_pj: f64,
    beats: u64,
}

#[derive(Clone, Copy)]
struct FaultEval {
    report: ReliabilityReport,
    accesses: u64,
    reads: u64,
    data_bytes: u64,
}

#[derive(Clone)]
struct CmpEval {
    energy_pj: f64,
    fetches: u64,
    cycles: u64,
    area: AreaReport,
    report: CmpReport,
    reliability: Option<ReliabilityReport>,
}

/// The evaluator's sub-flow results, one table per sub-flow. Every value
/// is a pure function of its key: the workload and fault axis are fixed
/// per evaluator.
#[derive(Default)]
struct Memo {
    part: HashMap<(usize, u64), PartEval>,
    comp: HashMap<(CacheGeom, CodecChoice), CompEval>,
    bus: HashMap<BusChoice, f64>,
    sched: HashMap<u64, f64>,
    fault: HashMap<(usize, u64), FaultEval>,
    cmp: HashMap<(CmpSpec, CacheGeom), CmpEval>,
}

/// Scores design points against one fixed workload.
pub struct Evaluator {
    workload: Workload,
    fault: FaultSpec,
    tech: Technology,
    trace: Trace,
    image: FlatMemory,
    fetch_stream: Vec<(u64, u32)>,
    data_accesses: u64,
    app: AppSpec,
    memo: Mutex<Memo>,
}

impl Evaluator {
    /// Runs the workload once and captures everything scoring needs. The
    /// fault axis is off: `silent` is 0 for every point and scoring is
    /// exactly the classic three-objective evaluation.
    ///
    /// # Errors
    ///
    /// Propagates kernel execution and application-builder errors, and
    /// rejects workloads whose trace lacks fetches or data accesses.
    pub fn new(workload: Workload) -> Result<Evaluator, FlowError> {
        Evaluator::with_faults(workload, FaultSpec::off())
    }

    /// Like [`Evaluator::new`] but scoring every point under a fault
    /// campaign: each candidate's banked data memory is exposed to the
    /// spec's accelerated upset rate, the protection's energy/area/latency
    /// overheads are charged, and the campaign's silent corruptions become
    /// the fourth objective.
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::new`].
    pub fn with_faults(workload: Workload, fault: FaultSpec) -> Result<Evaluator, FlowError> {
        let (trace, image) =
            kernel_trace_and_image(workload.kernel, workload.scale, workload.seed)?;
        let fetch_stream = fetch_stream(&trace)?;
        let data_accesses = trace.iter().filter(|e| e.kind.is_data()).count() as u64;
        if data_accesses == 0 {
            return Err(FlowError::EmptyInput("trace has no data accesses"));
        }
        let app = dsp_pipeline_app(workload.stages, workload.iterations, workload.seed)?;
        let tech = workload.tech.technology();
        Ok(Evaluator {
            workload,
            fault,
            tech,
            trace,
            image,
            fetch_stream,
            data_accesses,
            app,
            memo: Mutex::new(Memo::default()),
        })
    }

    /// The workload this evaluator scores against.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The fault spec every point is scored under ([`FaultSpec::off`]
    /// unless built by [`Evaluator::with_faults`]).
    pub fn fault(&self) -> &FaultSpec {
        &self.fault
    }

    /// Scores one point. Pure in the point: the same point always maps to
    /// the same objectives, whichever thread asks first and whatever the
    /// memo already holds.
    ///
    /// # Errors
    ///
    /// Propagates flow errors (an invalid cache geometry, a scheduler
    /// failure). Points from a validated [`DesignSpace`]
    /// [`crate::point::DesignSpace`] never fail.
    pub fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, FlowError> {
        let part = self.partitioning(point.banks, point.block)?;
        let ibus_pj = self.ibus(point.bus)?;
        let sched_pj = self.scheduling(point.l0)?;

        let sram = SramModel::new(&self.tech);
        let mut energy_pj;
        let mut area = part.area.clone();
        area.add("sched.l0", sram.area_mm2(point.l0));
        area.add("sched.l1", sram.area_mm2(16 << 10));

        let mut cycles;
        let mut reliability = None;
        let mut silent = 0;
        let mut cmp_report = None;
        match &point.cmp {
            None => {
                let comp = self.compression(point.cache, point.codec)?;
                // Summed in the pre-CMP order so zero-CMP points stay
                // byte-identical to the pinned pre-CMP frontiers.
                energy_pj = part.energy_pj + comp.energy_pj + ibus_pj + sched_pj;
                area.add("dcache.macro", sram.area_mm2(point.cache.size));
                area.add("dcache.codec", self.gate_area_mm2(codec_gates(point.codec)));
                area.add("ibus.encoder", self.gate_area_mm2(bus_gates(point.bus)));
                cycles = self.fetch_stream.len() as u64
                    + self.data_accesses
                    + OFFCHIP_BEAT_CYCLES * comp.beats;
            }
            Some(spec) => {
                // The chip goes multi-core: every core gets a private
                // D-cache of the point's geometry and a private encoded
                // instruction bus, and the data side drains through the
                // scenario's shared LLC instead of the single-core
                // write-back path — so the `codec` axis (write-back
                // compression hardware) is idle here and charges nothing;
                // in-LLC compression is the scenario's `codec` knob.
                let cmp = self.cmp(spec, point.cache)?;
                let cores = f64::from(spec.cores);
                energy_pj = part.energy_pj + sched_pj + (ibus_pj * cores + cmp.energy_pj);
                area.add("dcache.macro", sram.area_mm2(point.cache.size) * cores);
                area.add(
                    "ibus.encoder",
                    self.gate_area_mm2(bus_gates(point.bus)) * cores,
                );
                area.add(
                    "llc.codec",
                    self.gate_area_mm2(llc_codec_gates(spec.codec) * u64::from(spec.banks)),
                );
                area.merge(&cmp.area);
                cycles = cmp.fetches + cmp.cycles;
                silent = cmp.reliability.as_ref().map_or(0, |r| r.silent);
                reliability = cmp.reliability;
                cmp_report = Some(cmp.report.clone());
            }
        }

        if self.fault.enabled() {
            let fault = self.faults(point.banks, point.block)?;
            let protection = self.fault.protection;
            energy_pj += protection
                .access_overhead(&self.tech, fault.accesses)
                .as_pj();
            area.merge(&protection.area_overhead(&self.tech, fault.data_bytes));
            cycles += protection.extra_read_cycles() * fault.reads;
            silent += fault.report.silent;
            reliability = Some(match reliability {
                Some(mut acc) => {
                    acc.merge(&fault.report);
                    acc
                }
                None => fault.report,
            });
        }

        Ok(Evaluation {
            point: point.clone(),
            objectives: Objectives {
                energy_pj,
                area_mm2: area.total_mm2(),
                cycles,
                silent,
            },
            area,
            reliability,
            cmp: cmp_report,
        })
    }

    /// The value of `key` in the memo table `table` selects, from
    /// `compute` on a miss. The lock is held for the lookup and the insert
    /// only, never across `compute` (see the module doc).
    fn cached<K: Eq + Hash, V: Clone>(
        &self,
        table: fn(&mut Memo) -> &mut HashMap<K, V>,
        key: K,
        compute: impl FnOnce() -> Result<V, FlowError>,
    ) -> Result<V, FlowError> {
        let hit = table(&mut lock(&self.memo)).get(&key).cloned();
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let value = compute()?;
        table(&mut lock(&self.memo)).insert(key, value.clone());
        Ok(value)
    }

    fn partitioning(&self, banks: usize, block: u64) -> Result<PartEval, FlowError> {
        self.cached(
            |m| &mut m.part,
            (banks, block),
            || {
                let cfg = PartitioningConfig {
                    block_size: block,
                    max_banks: banks,
                    ..Default::default()
                };
                let out = run_partitioning("dse", &self.trace, &cfg, &self.tech)?;
                Ok(PartEval {
                    energy_pj: out.clustered.as_pj(),
                    area: out.area,
                })
            },
        )
    }

    fn compression(&self, cache: CacheGeom, codec: CodecChoice) -> Result<CompEval, FlowError> {
        self.cached(
            |m| &mut m.comp,
            (cache, codec),
            || {
                let cfg = CompressionConfig {
                    cache: cache.config()?,
                    threshold: 0.75,
                    flush_at_end: true,
                };
                let codec_impl: Box<dyn LineCodec> = match codec {
                    CodecChoice::Off => Box::new(RawCodec::new()),
                    CodecChoice::Differential => Box::new(DiffCodec::new()),
                    CodecChoice::ZeroRun => Box::new(ZeroRunCodec::new()),
                    CodecChoice::Fpc => Box::new(FpcCodec::new()),
                };
                let out = run_compression_trace(
                    "dse",
                    "dse",
                    &self.trace,
                    self.image.clone(),
                    codec_impl.as_ref(),
                    &cfg,
                    &self.tech,
                )?;
                // With the codec off there is no compression hardware: the
                // design pays raw traffic and no codec energy (the flow's
                // baseline side).
                Ok(match codec {
                    CodecChoice::Off => CompEval {
                        energy_pj: out.baseline.total().as_pj(),
                        beats: out.raw_beats,
                    },
                    _ => CompEval {
                        energy_pj: out.compressed.total().as_pj(),
                        beats: out.actual_beats,
                    },
                })
            },
        )
    }

    fn ibus(&self, bus: BusChoice) -> Result<f64, FlowError> {
        self.cached(
            |m| &mut m.bus,
            bus,
            || {
                let model = BusModel::onchip(&self.tech, 32);
                let stream = &self.fetch_stream;
                let raw = transitions(stream.iter().map(|&(_, w)| w));
                let encoded = match bus {
                    BusChoice::Raw => raw,
                    BusChoice::Gray => transitions(stream.iter().map(|&(_, w)| gray_encode(w))),
                    BusChoice::BusInvert => BusInvert::transitions(stream),
                    BusChoice::Xor(regions) => {
                        RegionEncoder::train(stream, regions)
                            .evaluate(stream)
                            .encoded_transitions
                    }
                };
                let mut pj = model.energy_of(encoded).as_pj();
                if bus != BusChoice::Raw {
                    // Encoder + decoder gate switching, as priced by the
                    // system flow.
                    pj += codec_gate_energy(&model, raw, encoded).as_pj();
                }
                Ok(pj)
            },
        )
    }

    fn scheduling(&self, l0: u64) -> Result<f64, FlowError> {
        self.cached(
            |m| &mut m.sched,
            l0,
            || {
                let platform = SchedPlatform::new(&self.tech, l0, 16 << 10);
                Ok(run_scheduling("dse", &self.app, &platform)?.greedy.as_pj())
            },
        )
    }

    /// Campaign outcome for one banked-memory shape. The exposure and the
    /// campaign depend only on `(banks, block)` — the protection is fixed
    /// per evaluator — so two points sharing a shape share the draw.
    fn faults(&self, banks: usize, block: u64) -> Result<FaultEval, FlowError> {
        self.cached(
            |m| &mut m.fault,
            (banks, block),
            || {
                let shape = VariantSpec {
                    max_banks: banks,
                    block_size: block,
                    ..VariantSpec::default()
                };
                let exposure = data_memory_exposure(&self.trace, &shape, &self.tech)?;
                let reads: u64 = exposure.banks.iter().map(|b| b.reads).sum();
                let words: u64 = exposure.banks.iter().map(|b| b.words).sum();
                Ok(FaultEval {
                    report: run_campaign(&self.fault, &self.tech, &exposure, self.workload.seed),
                    accesses: exposure.accesses(),
                    reads,
                    data_bytes: words * 4,
                })
            },
        )
    }

    /// Shared-LLC outcome of one CMP scenario over the workload's
    /// multi-programmed core set. Depends only on `(spec, cache)` — the
    /// workload, fault axis, and seed are fixed per evaluator.
    fn cmp(&self, spec: &CmpSpec, cache: CacheGeom) -> Result<CmpEval, FlowError> {
        self.cached(
            |m| &mut m.cmp,
            (spec.clone(), cache),
            || {
                let runs = cmp_core_runs(
                    self.workload.kernel,
                    self.workload.scale,
                    self.workload.seed,
                    spec.cores,
                )?;
                let fetches: u64 = runs.iter().map(|r| r.trace.kind_counts().0 as u64).sum();
                let out = simulate_cmp(
                    spec,
                    cache.config()?,
                    &self.tech,
                    runs,
                    &self.fault,
                    self.workload.seed,
                );
                Ok(CmpEval {
                    energy_pj: out.optimized.total().as_pj(),
                    fetches,
                    cycles: out.report.cycles,
                    area: out.area,
                    report: out.report,
                    reliability: out.reliability,
                })
            },
        )
    }

    fn gate_area_mm2(&self, gates: u64) -> f64 {
        gates as f64 * GATE_CELLS * self.tech.sram_cell_um2 * 1e-6
    }
}

/// First-order gate counts of the codec datapaths (zero when off).
fn codec_gates(codec: CodecChoice) -> u64 {
    match codec {
        CodecChoice::Off => 0,
        CodecChoice::ZeroRun => 900,
        CodecChoice::Differential => 1200,
        CodecChoice::Fpc => 2000,
    }
}

/// First-order gate counts of one LLC bank's line codec (zero when off).
/// Same datapaths as the write-back codecs, instantiated per bank.
fn llc_codec_gates(codec: LlcCodec) -> u64 {
    match codec {
        LlcCodec::Off => 0,
        LlcCodec::Zrun => 900,
        LlcCodec::Diff => 1200,
        LlcCodec::Fpc => 2000,
    }
}

/// First-order gate counts of the bus encoder + decoder pair.
fn bus_gates(bus: BusChoice) -> u64 {
    match bus {
        BusChoice::Raw => 0,
        BusChoice::Gray => 64,
        BusChoice::BusInvert => 96,
        BusChoice::Xor(regions) => 96 * regions as u64,
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DesignSpace;

    fn tiny_workload() -> Workload {
        Workload {
            scale: 16,
            iterations: 8,
            ..Workload::default()
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = Evaluator::new(tiny_workload()).unwrap();
        let p = DesignSpace::small().point_at(5);
        let a = eval.evaluate(&p).unwrap();
        let b = eval.evaluate(&p).unwrap();
        assert_eq!(a, b);
        // A fresh evaluator (cold caches) agrees too.
        let eval2 = Evaluator::new(tiny_workload()).unwrap();
        assert_eq!(eval2.evaluate(&p).unwrap(), a);
    }

    #[test]
    fn objectives_respond_to_the_axes() {
        let eval = Evaluator::new(tiny_workload()).unwrap();
        let base = DesignPoint::from_variant(&lpmem_core::flows::spec::VariantSpec::default());
        let a = eval.evaluate(&base).unwrap();
        // A larger bank *budget* never costs energy (the partitioner
        // optimizes over a superset of designs).
        let narrow = DesignPoint {
            banks: 2,
            ..base.clone()
        };
        let wide = DesignPoint {
            banks: 16,
            ..base.clone()
        };
        let e_narrow = eval.evaluate(&narrow).unwrap();
        let e_wide = eval.evaluate(&wide).unwrap();
        assert!(e_wide.objectives.energy_pj <= e_narrow.objectives.energy_pj);
        // A bigger D-cache macro always costs area.
        let big_cache = DesignPoint {
            cache: CacheGeom {
                size: 8 << 10,
                line: 64,
                ways: 2,
            },
            ..base.clone()
        };
        let b = eval.evaluate(&big_cache).unwrap();
        assert!(b.objectives.area_mm2 > a.objectives.area_mm2);
        // No codec: no codec gates, at least as many off-chip beats.
        let off = DesignPoint {
            codec: CodecChoice::Off,
            ..base.clone()
        };
        let c = eval.evaluate(&off).unwrap();
        assert_eq!(c.area.component("dcache.codec"), 0.0);
        assert!(c.objectives.cycles >= a.objectives.cycles);
        // Raw bus: no encoder area, more bus energy than the trained XOR.
        let raw = DesignPoint {
            bus: BusChoice::Raw,
            ..base.clone()
        };
        let d = eval.evaluate(&raw).unwrap();
        assert_eq!(d.area.component("ibus.encoder"), 0.0);
        assert!(d.objectives.energy_pj > a.objectives.energy_pj);
    }

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        let a = Objectives {
            energy_pj: 1.0,
            area_mm2: 1.0,
            cycles: 10,
            silent: 0,
        };
        let b = Objectives {
            energy_pj: 2.0,
            area_mm2: 1.0,
            cycles: 10,
            silent: 0,
        };
        let c = Objectives {
            energy_pj: 0.5,
            area_mm2: 2.0,
            cycles: 10,
            silent: 0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "equal vectors do not dominate");
        assert!(
            !a.dominates(&c) && !c.dominates(&a),
            "trade-offs are incomparable"
        );
        // The reliability axis participates: fewer silent corruptions at
        // equal cost dominates; a cheaper-but-corrupting point trades off.
        let clean = Objectives { silent: 0, ..a };
        let corrupting = Objectives { silent: 4, ..a };
        assert!(clean.dominates(&corrupting));
        assert!(!corrupting.dominates(&clean));
        let cheap_corrupting = Objectives {
            energy_pj: 0.5,
            silent: 4,
            ..a
        };
        assert!(!clean.dominates(&cheap_corrupting) && !cheap_corrupting.dominates(&clean));
    }

    #[test]
    fn fault_axis_scores_protection_against_silent_corruption() {
        use lpmem_core::flows::Protection;
        let p = DesignSpace::small().point_at(5);
        let plain = Evaluator::new(tiny_workload())
            .unwrap()
            .evaluate(&p)
            .unwrap();
        assert_eq!(plain.objectives.silent, 0);
        assert_eq!(plain.reliability, None);

        // The tiny trace exposes few word-ticks, so push the beam rate
        // well past the campaign default to get a statistically real
        // upset population.
        let spec = |protection| FaultSpec {
            rate_scale: FaultSpec::DEFAULT_ACCEL.saturating_mul(100_000),
            protection,
        };
        let none = Evaluator::with_faults(tiny_workload(), spec(Protection::None))
            .unwrap()
            .evaluate(&p)
            .unwrap();
        let secded = Evaluator::with_faults(tiny_workload(), spec(Protection::Secded))
            .unwrap()
            .evaluate(&p)
            .unwrap();
        // Unprotected: every consumed upset is silent; no overheads.
        let none_rel = none.reliability.expect("campaign ran");
        assert!(none_rel.injected > 0, "accelerated rate must inject");
        assert_eq!(none.objectives.silent, none_rel.silent);
        assert_eq!(none.objectives.energy_pj, plain.objectives.energy_pj);
        assert_eq!(none.objectives.cycles, plain.objectives.cycles);
        // SECDED: strictly fewer silent corruptions, bought with energy,
        // check-bit area, and read latency.
        assert!(secded.objectives.silent < none.objectives.silent);
        assert!(secded.objectives.energy_pj > none.objectives.energy_pj);
        assert!(secded.objectives.area_mm2 > none.objectives.area_mm2);
        assert!(secded.objectives.cycles > none.objectives.cycles);
        assert!(secded.area.component("prot.checkbits") > 0.0);
    }

    #[test]
    fn area_breakdown_totals_the_objective() {
        let eval = Evaluator::new(tiny_workload()).unwrap();
        let p = DesignSpace::small().point_at(17);
        let e = eval.evaluate(&p).unwrap();
        assert!((e.area.total_mm2() - e.objectives.area_mm2).abs() < 1e-12);
        assert!(e.area.component("bank.cells") > 0.0);
        assert!(e.area.component("sched.l1") > 0.0);
    }

    #[test]
    fn cmp_points_price_the_shared_llc() {
        let eval = Evaluator::new(tiny_workload()).unwrap();
        let solo = DesignSpace::small().point_at(5);
        let chip = DesignPoint {
            cmp: Some(CmpSpec::quad()),
            ..solo.clone()
        };
        chip.validate().unwrap();
        let a = eval.evaluate(&solo).unwrap();
        let b = eval.evaluate(&chip).unwrap();
        assert_eq!(a.cmp, None);
        let report = b.cmp.as_ref().expect("CMP points carry a report");
        assert_eq!(report.cores, 4);
        assert!(report.llc_lookups > 0);
        // Four cores' silicon and traffic: strictly more area and cycles
        // than the single-core point, with the LLC arrays itemized.
        assert!(b.objectives.area_mm2 > a.objectives.area_mm2);
        assert!(b.objectives.cycles > a.objectives.cycles);
        assert!(b.area.component("llc.cells") > 0.0);
        assert!(b.area.component("llc.codec") > 0.0);
        // The write-back codec axis is idle behind a shared LLC.
        assert_eq!(b.area.component("dcache.codec"), 0.0);
        assert!((b.area.total_mm2() - b.objectives.area_mm2).abs() < 1e-12);
        // Determinism across fresh evaluators (cold shards).
        let again = Evaluator::new(tiny_workload()).unwrap();
        assert_eq!(again.evaluate(&chip).unwrap(), b);
    }

    #[test]
    fn cmp_points_join_the_fault_campaign() {
        use lpmem_core::flows::Protection;
        let fault = FaultSpec {
            rate_scale: FaultSpec::DEFAULT_ACCEL.saturating_mul(100_000),
            protection: Protection::Secded,
        };
        let eval = Evaluator::with_faults(tiny_workload(), fault).unwrap();
        let solo = DesignSpace::small().point_at(5);
        let chip = DesignPoint {
            cmp: Some(CmpSpec::quad()),
            ..solo
        };
        let e = eval.evaluate(&chip).unwrap();
        // The merged campaign covers both the scratchpad and the LLC
        // arrays: at least as many injections as the scratchpad alone.
        let merged = e.reliability.expect("campaign ran");
        let scratch = eval.evaluate(&DesignSpace::small().point_at(5)).unwrap();
        let scratch_rel = scratch.reliability.expect("campaign ran");
        assert!(merged.injected >= scratch_rel.injected);
        assert!(e.area.component("prot.checkbits") > scratch.area.component("prot.checkbits"));
    }

    #[test]
    fn warm_evaluation_agrees_with_fresh_evaluation() {
        let eval = Evaluator::new(tiny_workload()).unwrap();
        let space = DesignSpace::small();
        let cold: Vec<Evaluation> = (0..8)
            .map(|i| eval.evaluate(&space.point_at(i)).unwrap())
            .collect();
        // A second pass (every sub-flow a memo hit) and a fresh evaluator
        // (everything cold) both reproduce the same evaluations.
        let fresh = Evaluator::new(tiny_workload()).unwrap();
        for (i, expected) in cold.iter().enumerate() {
            let p = space.point_at(i);
            assert_eq!(&eval.evaluate(&p).unwrap(), expected);
            assert_eq!(&fresh.evaluate(&p).unwrap(), expected);
        }
    }

    #[test]
    fn concurrent_cold_evaluation_agrees_with_sequential() {
        let secded = FaultSpec {
            rate_scale: FaultSpec::DEFAULT_ACCEL.saturating_mul(100_000),
            protection: lpmem_core::flows::Protection::Secded,
        };
        let space = DesignSpace::small();
        // The CMP point goes first, so every thread starts on the same
        // cold cmp and fault keys.
        let mut points = vec![DesignPoint {
            cmp: Some(CmpSpec::quad()),
            ..space.point_at(5)
        }];
        points.extend((0..6).map(|i| space.point_at(i * 5)));
        let sequential = Evaluator::with_faults(tiny_workload(), secded).unwrap();
        let expected: Vec<Evaluation> = points
            .iter()
            .map(|p| sequential.evaluate(p).unwrap())
            .collect();
        // Four threads race over the same cold keys, so the fault and cmp
        // tables fill concurrently; whichever insert lands, every thread
        // sees the sequential result.
        let shared = Evaluator::with_faults(tiny_workload(), secded).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (p, want) in points.iter().zip(&expected) {
                        assert_eq!(&shared.evaluate(p).unwrap(), want);
                    }
                });
            }
        });
    }
}
