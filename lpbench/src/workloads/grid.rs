//! `paper_grid`: the default sweep grid the paper's results come from,
//! 5 flows x 9 kernels x 3 technology nodes x 2 variants = 270 tasks per
//! pass, faults and CMP off. CPU-bound in `buscode` and `isa`; bypasses
//! `fault`, `cmp`, `explore` and the fleet streaming path.

use std::time::Instant;

use lpmem_bench::sweep::{run_sweep, SweepGrid, SweepTask, TaskResult};
use lpmem_buscode::{BusInvert, RegionEncoder};
use lpmem_compress::DiffCodec;
use lpmem_core::flows::compression::{run_compression_trace, CompressionConfig};
use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
use lpmem_core::flows::scheduling::{dsp_pipeline_app, run_scheduling};
use lpmem_core::flows::{FlowSpec, FlowSummary};
use lpmem_core::workloads::kernel_trace_and_image;
use lpmem_core::FlowError;
use lpmem_energy::{BusModel, Energy};
use lpmem_isa::Kernel;
use lpmem_sched::SchedPlatform;
use lpmem_trace::{AccessKind, Trace};
use lpmem_util::pool::parallel_map_with;

use crate::spans::Recorder;
use crate::stats::{digest, elapsed_ns};
use crate::{Config, Pass, Traced, Workload};

/// The paper grid at a seed.
pub struct PaperGrid {
    seed: u64,
    workers: usize,
    small: bool,
}

impl PaperGrid {
    /// The workload for `cfg`; `cfg.small` keeps two kernels at quick
    /// scale (60 tasks).
    pub fn new(cfg: &Config) -> Self {
        PaperGrid {
            seed: cfg.seed,
            workers: cfg.workers,
            small: cfg.small,
        }
    }
}

/// The expanded grid.
pub struct Ready {
    grid: SweepGrid,
    tasks: Vec<SweepTask>,
}

impl Workload for PaperGrid {
    type Ready = Ready;

    fn setup(&self) -> Result<Ready, String> {
        let mut grid = SweepGrid::default_grid(self.small);
        if self.small {
            grid.kernels.truncate(2);
        }
        grid.base_seed = self.seed;
        let tasks = grid.tasks();
        if tasks.len() != grid.len() {
            return Err(format!(
                "grid expands to {} tasks, expected {}",
                tasks.len(),
                grid.len()
            ));
        }
        Ok(Ready { grid, tasks })
    }

    fn pass(&self, mut ready: Vec<Ready>) -> Pass {
        let ready = ready.pop().expect("one set-up per pass");
        summarize(&run_sweep(&ready.grid, self.workers).results)
    }

    fn traced_pass(
        &self,
        mut ready: Vec<Ready>,
        main: &mut Recorder,
        _probes: &mut Recorder,
    ) -> Traced {
        let ready = ready.pop().expect("one set-up per pass");
        let t = Instant::now();
        let (results, recorders) =
            parallel_map_with(ready.tasks, self.workers, |rec: &mut Recorder, task| {
                let t = Instant::now();
                let outcome = replay(rec, &task).map_err(|e| e.to_string());
                let wall_ns = elapsed_ns(t);
                TaskResult {
                    task,
                    outcome,
                    wall_ns,
                }
            });
        for r in recorders {
            main.absorb(r);
        }
        let pass = summarize(&results);
        Traced {
            pass,
            main_ns: elapsed_ns(t),
            threads: self.workers,
        }
    }
}

/// Checks and counts a finished sweep. Shared by both modes, so a traced
/// pass must reproduce the untraced report byte for byte.
fn summarize(results: &[TaskResult]) -> Pass {
    let mut pass = Pass {
        items: results.len() as u64,
        ..Pass::default()
    };
    let mut jsonl = String::new();
    let mut per_flow: Vec<(f64, u64)> = vec![(0.0, 0); FlowSpec::ALL.len()];
    for r in results {
        jsonl.push_str(&r.json_line());
        jsonl.push('\n');
        pass.task_ns.push(r.wall_ns);
        let task = r.task.index;
        match &r.outcome {
            Ok(s) => {
                let (b, o) = (s.baseline.as_pj(), s.optimized.as_pj());
                if !(b.is_finite() && o.is_finite() && b > 0.0 && o > 0.0) {
                    pass.fail(format!(
                        "task {task}: energies {b} / {o} pJ are not finite and positive"
                    ));
                }
                pass.sim_events += s.events;
                let slot = FlowSpec::ALL
                    .iter()
                    .position(|&f| f == s.flow)
                    .expect("known flow");
                per_flow[slot].0 += s.saving();
                per_flow[slot].1 += 1;
            }
            Err(e) => pass.fail(format!("task {task}: {e}")),
        }
    }
    for (flow, (sum, n)) in FlowSpec::ALL.iter().zip(per_flow) {
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        pass.counters
            .insert(format!("saving.{}", flow.name()), format!("{mean:?}"));
    }
    pass.counters
        .insert("events".into(), pass.sim_events.to_string());
    pass.digest = Some(digest(jsonl.as_bytes()));
    pass
}

/// Runs one task through the same public calls its flow makes, each call
/// in a span under the flow's `core.<flow>` span.
fn replay(rec: &mut Recorder, t: &SweepTask) -> Result<FlowSummary, FlowError> {
    let item = t.index as u64;
    let tech = t.tech.technology();
    let v = &t.variant;
    let name = t.kernel.name();
    let summary = |baseline: Energy, optimized: Energy, events: u64, workload: &str| FlowSummary {
        flow: t.flow,
        workload: workload.to_owned(),
        baseline,
        optimized,
        events,
        reliability: None,
        cmp: None,
    };
    match t.flow {
        FlowSpec::Partitioning => rec.span("core.partitioning", item, |rec| {
            let trace = kernel_run(rec, item, t.kernel, t.scale, t.seed)?;
            let cfg = PartitioningConfig {
                block_size: v.block_size,
                max_banks: v.max_banks,
                ..Default::default()
            };
            let out = rec.span("partition.run", item, |_| {
                run_partitioning(name, &trace, &cfg, &tech)
            })?;
            Ok(summary(out.monolithic, out.clustered, out.accesses, name))
        }),
        FlowSpec::Compression => rec.span("core.compression", item, |rec| {
            let (trace, image) = kernel_image(rec, item, t.kernel, t.scale, t.seed)?;
            let cfg = CompressionConfig {
                cache: v.platform.cache_config(),
                threshold: v.threshold,
                flush_at_end: true,
            };
            let out = rec.span("compress.run", item, |_| {
                run_compression_trace(
                    name,
                    v.platform.name(),
                    &trace,
                    image,
                    &DiffCodec::new(),
                    &cfg,
                    &tech,
                )
            })?;
            Ok(summary(
                out.baseline.total(),
                out.compressed.total(),
                out.lines,
                name,
            ))
        }),
        FlowSpec::BusCoding => rec.span("core.buscoding", item, |rec| {
            let trace = kernel_run(rec, item, t.kernel, t.scale, t.seed)?;
            let stream = fetch_stream(&trace)?;
            let encoder = rec.span("buscode.train", item, |_| {
                RegionEncoder::train(&stream, v.regions)
            });
            // The flow also scores the bus-invert baseline; it is part of
            // the evaluation cost even though the summary omits it.
            let report = rec.span("buscode.evaluate", item, |_| {
                std::hint::black_box(BusInvert::transitions(&stream));
                encoder.evaluate(&stream)
            });
            let bus = BusModel::onchip(&tech, 32);
            Ok(summary(
                bus.energy_of(report.raw_transitions),
                bus.energy_of(report.encoded_transitions),
                stream.len() as u64,
                name,
            ))
        }),
        FlowSpec::Scheduling => rec.span("core.scheduling", item, |rec| {
            let label = format!("dsp-{}x{}", v.stages, v.iterations);
            let out = rec.span("sched.run", item, |_| {
                let app = dsp_pipeline_app(v.stages, v.iterations, t.seed)?;
                let platform = SchedPlatform::new(&tech, v.l0_bytes, 16 << 10);
                run_scheduling(&label, &app, &platform)
            })?;
            Ok(summary(
                out.naive,
                out.greedy,
                out.contexts as u64 * out.iterations,
                &label,
            ))
        }),
        FlowSpec::System => rec.span("core.system", item, |rec| {
            let (trace, image) = kernel_image(rec, item, t.kernel, t.scale, t.seed)?;
            let cfg = CompressionConfig::for_platform(v.platform);
            let compression = rec.span("compress.run", item, |_| {
                run_compression_trace(
                    name,
                    v.platform.name(),
                    &trace,
                    image,
                    &DiffCodec::new(),
                    &cfg,
                    &tech,
                )
            })?;
            let stream = fetch_stream(&trace)?;
            let encoder = rec.span("buscode.train", item, |_| {
                RegionEncoder::train(&stream, v.regions)
            });
            let enc = rec.span("buscode.evaluate", item, |_| encoder.evaluate(&stream));
            let bus = BusModel::onchip(&tech, 32);
            let mut baseline = compression.baseline.clone();
            baseline.add("ibus", bus.energy_of(enc.raw_transitions));
            let mut optimized = compression.compressed.clone();
            optimized.add("ibus", bus.energy_of(enc.encoded_transitions));
            // The encoder and decoder XOR layers, priced as the system flow
            // prices them.
            let gate_pj = 0.004 * bus.transition_energy().as_pj();
            optimized.add(
                "ibus.codec",
                Energy::from_pj(gate_pj * (enc.raw_transitions + enc.encoded_transitions) as f64),
            );
            Ok(summary(
                baseline.total(),
                optimized.total(),
                stream.len() as u64,
                name,
            ))
        }),
    }
}

fn kernel_run(
    rec: &mut Recorder,
    item: u64,
    kernel: Kernel,
    scale: u32,
    seed: u64,
) -> Result<Trace, FlowError> {
    rec.span("isa.kernel_run", item, |rec| {
        let run = kernel.run(scale, seed)?;
        rec.count("isa.instret", fetches(&run.trace));
        Ok(run.trace)
    })
}

fn kernel_image(
    rec: &mut Recorder,
    item: u64,
    kernel: Kernel,
    scale: u32,
    seed: u64,
) -> Result<(Trace, lpmem_mem::FlatMemory), FlowError> {
    rec.span("isa.kernel_run", item, |rec| {
        let (trace, image) = kernel_trace_and_image(kernel, scale, seed)?;
        rec.count("isa.instret", fetches(&trace));
        Ok((trace, image))
    })
}

fn fetches(trace: &Trace) -> u64 {
    trace
        .iter()
        .filter(|e| e.kind == AccessKind::InstrFetch)
        .count() as u64
}

fn fetch_stream(trace: &Trace) -> Result<Vec<(u64, u32)>, FlowError> {
    let stream: Vec<(u64, u32)> = trace
        .iter()
        .filter(|e| e.kind == AccessKind::InstrFetch)
        .map(|e| (e.addr, e.value))
        .collect();
    if stream.is_empty() {
        return Err(FlowError::EmptyInput("trace has no instruction fetches"));
    }
    Ok(stream)
}
