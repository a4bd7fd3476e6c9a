//! The metric catalog: every metric the benchmark reports, its unit and
//! direction, and, for each per-layer metric, the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit in the result JSON.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What it measures and, for a per-layer metric, the end-to-end metric
    /// and workload it should move (a bracketed workload is one where the
    /// layer does little and the metric should stay put).
    pub about: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, about: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        about,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run (`--trace 0`). Host time, closed batch:
/// each pass starts when the previous one ends.
///
/// Throughput is counted per CPU-second the process used (user and system
/// time of all its threads), not per wall-clock second: on a host shared
/// with other tenants, the time they take from this process's cores moved
/// wall-clock rates by up to 30% between runs, which no bound could
/// absorb. The wall-clock rate and the pool's share of the wall-clock
/// budget are reported beside it (`items_per_s`, `pool.busy_share`), so a
/// change in parallelism still shows.
pub const END_TO_END: &[Metric] = &[
    m("items_per_cpu_s", "items/cpu-s", Higher, "median over passes of work items per CPU-second: sweep tasks, points evaluated, devices, or files"),
    m("setup_s", "s", Lower, "median program set-up before the timed phase: grid expansion, Evaluator::new, FleetSpec::validate, reading the lint sources"),
    m("peak_rss_mib", "MiB", Lower, "peak resident memory of the run (VmHWM)"),
];

/// Metrics of the traced run (`--trace 1`). Times are self times (span
/// minus child spans) per pass unless the name says otherwise; a layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("core.partitioning_ms", "ms", Lower, "flow glue around partitioning tasks; moves items_per_cpu_s on paper_grid"),
    m("core.compression_ms", "ms", Lower, "flow glue around compression tasks; moves items_per_cpu_s on paper_grid"),
    m("core.buscoding_ms", "ms", Lower, "flow glue around bus-coding tasks; moves items_per_cpu_s on paper_grid"),
    m("core.scheduling_ms", "ms", Lower, "flow glue around scheduling tasks; moves items_per_cpu_s on paper_grid"),
    m("core.system_ms", "ms", Lower, "flow glue around system tasks; moves items_per_cpu_s on paper_grid"),
    m("buscode.train_ms", "ms", Lower, "RegionEncoder::train; moves items_per_cpu_s on paper_grid [fleet_*]"),
    m("buscode.evaluate_ms", "ms", Lower, "RegionEncoder::evaluate and the bus-invert baseline; moves items_per_cpu_s on paper_grid [fleet_*]"),
    m("isa.kernel_run_ms", "ms", Lower, "Kernel::run / kernel_trace_and_image; moves items_per_cpu_s on paper_grid"),
    m("isa.kernel_runs", "count", Lower, "kernel executions per pass; moves items_per_cpu_s on paper_grid"),
    m("isa.instret", "count", Lower, "instructions retired per pass (fetch events); moves items_per_cpu_s on paper_grid"),
    m("isa.mips", "MIPS", Higher, "instructions retired per host microsecond of kernel execution; moves items_per_cpu_s on paper_grid"),
    m("partition.run_ms", "ms", Lower, "run_partitioning (partition, cluster, energy); moves items_per_cpu_s on paper_grid"),
    m("compress.run_ms", "ms", Lower, "run_compression_trace (mem, compress); moves items_per_cpu_s on paper_grid"),
    m("sched.run_ms", "ms", Lower, "dsp_pipeline_app and run_scheduling; moves items_per_cpu_s on paper_grid"),
    m("pool.busy_share", "share", Higher, "process CPU time over workers x wall in the untraced passes; moves items_per_cpu_s on paper_grid, dse_cmp"),
    m("pool.idle_ms", "ms", Lower, "workers x wall minus process CPU time, per untraced pass; moves items_per_cpu_s on paper_grid, dse_cmp"),
    m("explore.setup_ms", "ms", Lower, "one Evaluator::new; moves setup_s on dse_*"),
    m("explore.search_ms", "ms", Lower, "one SearchStrategy::search at the workload budget; moves items_per_cpu_s on dse_*"),
    m("explore.exhaustive_ms", "ms", Lower, "Exhaustive::search over as many uniformly sampled points as a search evaluates, fresh evaluator: evaluation without search; moves items_per_cpu_s on dse_cmp"),
    m("explore.search_overhead_ms", "ms", Lower, "search 0 replayed on its warm evaluator, every sub-flow memoized: candidate generation, selection, batching; moves items_per_cpu_s on dse_converge [dse_cmp]"),
    m("explore.eval_cold_us", "us", Lower, "Evaluator::evaluate per sampled point, fresh evaluator; moves items_per_cpu_s on dse_cmp"),
    m("explore.eval_warm_us", "us", Lower, "Evaluator::evaluate per sampled point, memo warm; moves items_per_cpu_s on dse_converge"),
    m("explore.evaluated", "count", Higher, "points evaluated per search (equals the budget)"),
    m("explore.frontier_size", "count", Higher, "frontier members after the first search of a pass"),
    m("cmp.run_cmp_ms", "ms", Lower, "flows::cmp::run_cmp over the sample's CMP scenarios; moves items_per_cpu_s on dse_cmp [dse_converge]"),
    m("cmp.scenarios", "count", Higher, "CMP scenarios in the sample"),
    m("trace.stream_us_per_device", "us/device", Lower, "simulate_device with faults off; moves items_per_cpu_s on fleet_stream"),
    m("fault.campaign_us_per_device", "us/device", Lower, "run_campaign per device; moves items_per_cpu_s on fleet_secded [fleet_stream]"),
    m("fault.bit_trials", "count", Lower, "words x bits exposed per pass (Bernoulli trials drawn); moves items_per_cpu_s on fleet_secded"),
    m("fault.flips_injected", "count", Higher, "flips injected per pass"),
    m("fault.flips_per_trial", "share", Higher, "flips injected over bit trials (useful draws over attempted)"),
    m("lint.read_ms", "ms", Lower, "workspace_files and reading the sources; moves setup_s on lint_pinned"),
    m("lint.lex_ms", "ms", Lower, "lexer::lex over every file; moves items_per_cpu_s on lint_pinned"),
    m("lint.heuristic_ms", "ms", Lower, "token rules (FileContext::new, run_rules); moves items_per_cpu_s on lint_pinned"),
    m("lint.parse_ms", "ms", Lower, "parse::parse_file over every file, alone; moves items_per_cpu_s on lint_pinned"),
    m("lint.resolve_ms", "ms", Lower, "resolve::Workspace::build, which parses every file again; moves items_per_cpu_s on lint_pinned"),
    m("lint.taint_ms", "ms", Lower, "taint::analyze; moves items_per_cpu_s on lint_pinned"),
    m("lint.parse_recoveries", "count", Lower, "parser recoveries over the pinned sources"),
    m("lint.files", "count", Higher, "files linted"),
    m("lint.functions", "count", Higher, "functions in the call graph"),
    m("lint.retractions", "count", Lower, "heuristic findings the semantic analysis retracts"),
    m("items_per_s", "items/s", Higher, "median over untraced passes of work items per wall-clock second"),
    m("sim_events_per_s", "events/s", Higher, "simulated memory events per host second in the untraced passes (paper_grid, fleet_*)"),
    m("task_p50_ms", "ms", Lower, "median sweep-task latency from TaskResult.wall_ns, per untraced pass of 270 tasks (paper_grid)"),
    m("task_p95_ms", "ms", Lower, "95th-percentile sweep-task latency per untraced pass, 13 tasks beyond it (paper_grid)"),
    m("trace_overhead", "share", Lower, "untraced over traced items_per_s, minus one"),
    m("unattributed_share", "share", Lower, "share of the traced passes' thread time outside every layer span"),
];
