//! The parallel experiment sweep engine.
//!
//! A [`SweepGrid`] declares the experiment space — flows × kernels ×
//! technology nodes × configuration variants — and [`run_sweep`] fans the
//! expanded task list across the [`lpmem_util::pool`] workers, which
//! claim tasks from one shared cursor. Determinism is the design center:
//! every task's PRNG seed is derived from its *grid coordinates* (via
//! [`SplitMix64::derive`]), never from execution order, so the
//! [JSON-lines report](SweepReport::jsonl) is byte-identical regardless
//! of worker count or interleaving. Timing
//! lives only in the human-facing [`Metrics`] tables, which are allowed
//! to vary run to run.

use std::time::Instant;

use lpmem_core::flows::{
    CmpSpec, FaultSpec, FlowSpec, FlowSummary, Scenario, TechNode, VariantSpec,
};
use lpmem_isa::Kernel;
use lpmem_util::json::JsonObject;
use lpmem_util::pool::try_parallel_map_with;
use lpmem_util::SplitMix64;

use crate::metrics::Metrics;
use crate::table::Table;

/// The declarative sweep space: the cartesian product of four axes plus a
/// base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Flow axis.
    pub flows: Vec<FlowSpec>,
    /// Kernel axis: each kernel with the scale to run it at.
    pub kernels: Vec<(Kernel, u32)>,
    /// Technology axis.
    pub techs: Vec<TechNode>,
    /// Configuration-variant axis.
    pub variants: Vec<VariantSpec>,
    /// Reliability axis: fault/protection configurations each grid point
    /// runs under. The default single `FaultSpec::off()` entry reproduces
    /// the pre-fault grid (and its reports) exactly.
    pub faults: Vec<FaultSpec>,
    /// Chip-multiprocessor axis: CMP scenarios each grid point runs
    /// under. The default single `CmpSpec::off()` entry reproduces the
    /// pre-CMP grid (and its reports) exactly.
    pub cmps: Vec<CmpSpec>,
    /// Base seed every task seed is derived from.
    pub base_seed: u64,
}

impl SweepGrid {
    /// The full default grid: every flow × every kernel (at default or
    /// quick scale) × every technology node × the `default` and `tight`
    /// variants.
    pub fn default_grid(quick: bool) -> SweepGrid {
        let scale = |k: Kernel| {
            if quick {
                (k.default_scale() / 4).max(4)
            } else {
                k.default_scale()
            }
        };
        SweepGrid {
            flows: FlowSpec::ALL.to_vec(),
            kernels: Kernel::ALL.iter().map(|&k| (k, scale(k))).collect(),
            techs: TechNode::ALL.to_vec(),
            variants: vec![VariantSpec::default(), VariantSpec::tight()],
            faults: vec![FaultSpec::off()],
            cmps: vec![CmpSpec::off()],
            base_seed: crate::experiments::SEED,
        }
    }

    /// Expands the grid into its task list, in deterministic grid order
    /// (flow-major, then kernel, technology, variant, fault).
    pub fn tasks(&self) -> Vec<SweepTask> {
        let mut out = Vec::with_capacity(self.len());
        let mut index = 0;
        for (fi, &flow) in self.flows.iter().enumerate() {
            for (ki, &(kernel, scale)) in self.kernels.iter().enumerate() {
                for (ti, &tech) in self.techs.iter().enumerate() {
                    for (vi, variant) in self.variants.iter().enumerate() {
                        // Seeds hang off grid coordinates — not off `index`,
                        // so filtering one axis never reseeds another. The
                        // fault and CMP axes deliberately stay out of the
                        // path: every protection and chip topology is
                        // judged on the *same* workload draw, and their
                        // own draws decorrelate through the TAG_FAULT and
                        // TAG_CMP derivation domains.
                        let seed = SplitMix64::derive(
                            self.base_seed,
                            &[fi as u64, ki as u64, ti as u64, vi as u64],
                        );
                        for &fault in &self.faults {
                            for cmp in &self.cmps {
                                out.push(SweepTask {
                                    index,
                                    flow,
                                    kernel,
                                    scale,
                                    tech,
                                    variant: variant.clone(),
                                    fault,
                                    cmp: cmp.clone(),
                                    seed,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of tasks the grid expands to.
    pub fn len(&self) -> usize {
        self.flows.len()
            * self.kernels.len()
            * self.techs.len()
            * self.variants.len()
            * self.faults.len()
            * self.cmps.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks every CMP spec against the L1 line size of every variant's
    /// platform, so an invalid scenario is rejected before any task runs.
    ///
    /// # Errors
    ///
    /// Describes the first spec that fails [`CmpSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        for cmp in &self.cmps {
            for v in &self.variants {
                cmp.validate(v.platform.cache_config().line_bytes())
                    .map_err(|why| {
                        format!("invalid cmp spec {} ({}): {why}", cmp.label(), v.name)
                    })?;
            }
        }
        Ok(())
    }
}

/// One grid point, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTask {
    /// Position in grid order (stable result index).
    pub index: usize,
    /// Flow to run.
    pub flow: FlowSpec,
    /// Kernel input.
    pub kernel: Kernel,
    /// Kernel scale.
    pub scale: u32,
    /// Technology node.
    pub tech: TechNode,
    /// Configuration variant.
    pub variant: VariantSpec,
    /// Reliability configuration.
    pub fault: FaultSpec,
    /// Chip-multiprocessor scenario.
    pub cmp: CmpSpec,
    /// Derived per-task seed (a pure function of grid coordinates).
    pub seed: u64,
}

impl SweepTask {
    /// Runs the task's flow.
    fn run(&self) -> Result<FlowSummary, String> {
        let scenario = Scenario {
            fault: self.fault,
            cmp: &self.cmp,
            ..Scenario::new(self.kernel, self.scale, self.seed, self.tech, &self.variant)
        };
        self.flow.run(&scenario).map_err(|e| e.to_string())
    }
}

/// The outcome of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// The task that ran.
    pub task: SweepTask,
    /// The flow summary, or the flow error rendered to text.
    pub outcome: Result<FlowSummary, String>,
    /// Wall time of this task on its worker, in nanoseconds.
    pub wall_ns: u64,
}

impl TaskResult {
    /// One JSON-lines record for this result. Contains only fields that
    /// are a pure function of the grid — never timings — so the full
    /// report is byte-identical at any worker count. Reliability fields
    /// appear only on fault-enabled tasks, keeping default-grid reports
    /// byte-identical to the pre-fault schema.
    pub fn json_line(&self) -> String {
        let mut obj = JsonObject::new()
            .u64("task", self.task.index as u64)
            .str("flow", self.task.flow.name())
            .str("kernel", self.task.kernel.name())
            .u64("scale", u64::from(self.task.scale))
            .str("tech", self.task.tech.name())
            .str("variant", &self.task.variant.name)
            .u64("seed", self.task.seed);
        if self.task.fault.enabled() {
            obj = obj.str("fault", &self.task.fault.label());
        }
        if self.task.cmp.enabled() {
            obj = obj.str("cmp", &self.task.cmp.label());
        }
        match &self.outcome {
            Ok(s) => {
                obj = obj
                    .str("workload", &s.workload)
                    .u64("events", s.events)
                    .f64("baseline_pj", s.baseline.as_pj())
                    .f64("optimized_pj", s.optimized.as_pj())
                    .f64("saving", s.saving());
                if let Some(r) = &s.reliability {
                    obj = obj
                        .u64("injected", r.injected)
                        .u64("masked", r.masked)
                        .u64("detected", r.detected)
                        .u64("corrected", r.corrected)
                        .u64("silent", r.silent);
                }
                if let Some(c) = &s.cmp {
                    obj = obj
                        .u64("cores", u64::from(c.cores))
                        .u64("llc_banks", u64::from(c.llc_banks))
                        .u64("dark_banks", u64::from(c.dark_banks))
                        .u64("llc_lookups", c.llc_lookups)
                        .u64("llc_hits", c.llc_hits)
                        .u64("llc_lines", c.llc_lines)
                        .u64("llc_compressed", c.llc_compressed_lines)
                        .u64("offchip_beats", c.offchip_beats)
                        .u64("cmp_cycles", c.cycles);
                }
                obj.finish()
            }
            Err(e) => obj.str("error", e).finish(),
        }
    }
}

/// A finished sweep: per-task results in grid order plus run metrics.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Results, sorted by task index (grid order).
    pub results: Vec<TaskResult>,
    /// Run metrics, folded over the results in grid order.
    pub metrics: Metrics,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the sweep, in nanoseconds.
    pub elapsed_ns: u64,
}

impl SweepReport {
    /// The machine-readable report: one JSON object per task, in grid
    /// order, each line terminated by `\n`. Byte-identical for a given
    /// grid at any worker count.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.json_line());
            out.push('\n');
        }
        out
    }

    /// The human-facing table: per-flow aggregates.
    pub fn table(&self) -> Table {
        self.metrics.flow_table(self.elapsed_ns, self.workers)
    }
}

/// Worker count for a sweep, explore or fleet run without `--threads`:
/// `LPMEM_SWEEP_THREADS` when set (`0` clamps to one worker), otherwise
/// the machine's available parallelism. The only reader of the variable.
///
/// # Errors
///
/// A set value that is not a non-negative integer.
pub fn worker_count() -> Result<usize, String> {
    match std::env::var_os("LPMEM_SWEEP_THREADS") {
        None => Ok(std::thread::available_parallelism().map_or(1, usize::from)),
        Some(v) => v
            .to_str()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .ok_or_else(|| format!("LPMEM_SWEEP_THREADS needs a worker count, got {v:?}")),
    }
}

/// Runs every task of `grid` on `workers` threads and aggregates the
/// report. Results come back in grid order and all result fields except
/// timings are independent of `workers`.
///
/// A task that *panics* (a model bug, not a modeled flow error) does not
/// abort the sweep: the pool isolates it with `catch_unwind` and the
/// report carries a deterministic `panic: …` error record in that task's
/// slot — byte-identical at any worker count, since the record is keyed
/// by the task's grid index, not by which worker hit it.
pub fn run_sweep(grid: &SweepGrid, workers: usize) -> SweepReport {
    run_sweep_with(grid, workers, SweepTask::run)
}

/// [`run_sweep`] with the task runner as a parameter, so tests can inject
/// a failing task.
fn run_sweep_with<F>(grid: &SweepGrid, workers: usize, run: F) -> SweepReport
where
    F: Fn(&SweepTask) -> Result<FlowSummary, String> + Sync,
{
    let started = Instant::now();
    let tasks = grid.tasks();
    let outcomes = try_parallel_map_with(tasks.iter().collect(), workers, |_: &mut (), task| {
        let t0 = Instant::now();
        let outcome = run(task);
        (outcome, t0.elapsed().as_nanos() as u64)
    })
    .0;
    // One fold in grid order: the float energy sums then add up in the
    // same order at any worker count.
    let mut metrics = Metrics::new();
    let results = tasks
        .into_iter()
        .zip(outcomes)
        .map(|(task, outcome)| {
            // A poisoned task gets a deterministic error record in its
            // grid slot. Zero wall time: the measurement died with the
            // task.
            let (outcome, wall_ns) =
                outcome.unwrap_or_else(|p| (Err(format!("panic: {}", p.message)), 0));
            metrics.record(task.flow.name(), wall_ns, outcome.as_ref().ok());
            TaskResult {
                task,
                outcome,
                wall_ns,
            }
        })
        .collect();
    SweepReport {
        results,
        metrics,
        workers: workers.max(1),
        elapsed_ns: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn grid_expansion_covers_the_product_in_order() {
        let grid = SweepGrid::default_grid(true);
        let tasks = grid.tasks();
        assert_eq!(tasks.len(), 5 * 9 * 3 * 2);
        assert_eq!(tasks.len(), grid.len());
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        // Flow-major order: the first kernel×tech×variant block is all
        // partitioning.
        assert!(tasks[..9 * 3 * 2]
            .iter()
            .all(|t| t.flow == FlowSpec::Partitioning));
    }

    #[test]
    fn task_seeds_are_distinct_and_coordinate_stable() {
        let grid = SweepGrid::default_grid(true);
        let tasks = grid.tasks();
        let seeds: BTreeSet<u64> = tasks.iter().map(|t| t.seed).collect();
        assert_eq!(seeds.len(), tasks.len(), "seed collision in grid");

        // Seeds are functions of coordinates, not of the expanded list:
        // dropping an entire axis value leaves other tasks' seeds alone.
        let mut narrowed = grid.clone();
        narrowed.flows = vec![FlowSpec::Compression];
        let narrowed_tasks = narrowed.tasks();
        let full_compression: Vec<u64> = tasks
            .iter()
            .filter(|t| t.flow == FlowSpec::Compression)
            .map(|t| t.seed)
            .collect();
        // Compression is flow index 1 in the full grid but 0 in the
        // narrowed grid, so seeds differ — but within each grid they are
        // stable per coordinate, which re-expansion shows:
        assert_eq!(narrowed.tasks(), narrowed_tasks);
        assert_eq!(full_compression.len(), narrowed_tasks.len());
    }

    #[test]
    fn cmp_axis_expands_innermost_and_keeps_seeds() {
        let mut grid = SweepGrid::default_grid(true);
        grid.flows = vec![FlowSpec::System];
        grid.kernels.truncate(2);
        grid.techs = vec![TechNode::T180];
        grid.variants.truncate(1);
        grid.cmps = vec![CmpSpec::off(), CmpSpec::quad()];
        let tasks = grid.tasks();
        assert_eq!(tasks.len(), grid.len());
        assert_eq!(tasks.len(), 2 * 2);
        // Innermost axis: adjacent tasks differ only in the CMP spec and
        // share the workload seed.
        assert_eq!(tasks[0].seed, tasks[1].seed);
        assert!(!tasks[0].cmp.enabled());
        assert!(tasks[1].cmp.enabled());
        // The JSONL gains the CMP fields only on enabled tasks, and the
        // report bytes are worker-count independent.
        let one = run_sweep(&grid, 1).jsonl();
        let four = run_sweep(&grid, 4).jsonl();
        assert_eq!(one, four);
        let lines: Vec<&str> = one.lines().collect();
        assert!(!lines[0].contains("\"cmp\""));
        assert!(lines[1].contains("\"cmp\":\"c4b8x32w4-zrun-t180+t90-p600\""));
        assert!(lines[1].contains("\"llc_lookups\""));
        assert!(lines[1].contains("\"dark_banks\""));
    }

    #[test]
    fn grids_with_invalid_cmp_specs_are_rejected() {
        let mut grid = SweepGrid::default_grid(true);
        assert_eq!(grid.validate(), Ok(()));
        grid.cmps = vec![CmpSpec::off(), CmpSpec::quad()];
        assert_eq!(grid.validate(), Ok(()));
        grid.cmps
            .push(CmpSpec::parse("c4b0x32w4-zrun").expect("parses"));
        let err = grid.validate().unwrap_err();
        assert!(err.contains("c4b0x32w4-zrun"), "{err}");
        assert!(err.contains("at least one bank"), "{err}");
    }

    #[test]
    fn a_panicking_task_becomes_one_error_row() {
        let mut grid = SweepGrid::default_grid(true);
        grid.kernels.truncate(2);
        grid.techs.truncate(2);
        grid.variants.truncate(1);
        let tasks = grid.tasks();
        let clean = run_sweep(&grid, 1).jsonl();
        let poisoned = TaskResult {
            task: tasks[7].clone(),
            outcome: Err("panic: injected fault in task 7".to_owned()),
            wall_ns: 0,
        }
        .json_line();
        assert!(poisoned.contains(r#""error":"panic: injected fault in task 7""#));
        let mut lines: Vec<&str> = clean.lines().collect();
        lines[7] = &poisoned;
        let expected = lines.join("\n") + "\n";
        for workers in [1, 2, 8] {
            let report = run_sweep_with(&grid, workers, |task| {
                if task.index == 7 {
                    panic!("injected fault in task {}", task.index);
                }
                task.run()
            });
            assert_eq!(report.jsonl(), expected, "workers={workers}");
            assert_eq!(
                report.metrics.tasks,
                tasks.len() as u64,
                "workers={workers}"
            );
            assert_eq!(report.metrics.errors, 1, "workers={workers}");
        }
    }
}
