//! `lpbench`: the lpmem benchmark.
//!
//! Six seeded workloads drive the in-tree crates through their public
//! functions: the paper's sweep grid, two design-space searches, two fleet
//! campaigns and the workspace linter over pinned sources. The untraced run
//! (`--trace 0`) times closed batches ("passes") of each workload and
//! reports host-time rates. The traced run (`--trace 1`) alternates
//! untraced passes with passes that replay the same work as spans around
//! each layer's public calls, and reports per-layer self times and
//! counters. A traced pass must reproduce the untraced pass's report
//! digest (or, for the linter, its analysis counters), which shows the
//! replay does the same work.
//!
//! Modelled caches start empty in every task, as the flows define them.
//! The model is not validated against hardware, so no error figure is
//! reported.

pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::{Metric, END_TO_END, PER_LAYER};
use spans::Recorder;

/// Every workload, in report order.
pub const WORKLOADS: [&str; 6] = [
    "paper_grid",
    "dse_converge",
    "dse_cmp",
    "fleet_stream",
    "fleet_secded",
    "lint_pinned",
];

/// Worker threads every parallel layer runs on, whatever the host offers,
/// so the workloads are the same work everywhere.
pub const WORKERS: usize = 2;

/// Passes each mode runs at least, so digests are compared across
/// repetitions even in a short run.
const MIN_PASSES: usize = 2;

/// What one pass of a workload produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Work items attempted.
    pub items: u64,
    /// Items that failed: `Err` or panicked tasks, failed searches, and
    /// failed invariants.
    pub failed: u64,
    /// Simulated memory events (0 where the workload simulates none).
    pub sim_events: u64,
    /// Per-task host latencies in nanoseconds (paper_grid only).
    pub task_ns: Vec<u64>,
    /// Digest of the byte-stable report, when the pass renders one.
    pub digest: Option<String>,
    /// Deterministic counters, compared exactly across passes.
    pub counters: BTreeMap<String, String>,
    /// Broken invariants, in words.
    pub problems: Vec<String>,
}

impl Pass {
    /// Records a broken invariant as one failed item.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// A traced pass: the pass, the host time of the work the untraced pass
/// also does, and the threads that ran it.
#[derive(Debug)]
pub struct Traced {
    /// What the replay produced.
    pub pass: Pass,
    /// Wall time of the replayed work, probes excluded.
    pub main_ns: u64,
    /// Threads the replayed work ran its spans on.
    pub threads: usize,
}

/// One benchmark workload.
pub trait Workload {
    /// What one set-up hands to a pass.
    type Ready;

    /// The set-up a user pays before the timed work starts.
    ///
    /// # Errors
    ///
    /// Reports why the input could not be prepared.
    fn setup(&self) -> Result<Self::Ready, String>;

    /// Set-ups one pass consumes.
    fn setups_per_pass(&self) -> usize {
        1
    }

    /// Span name of the set-up in the traced run.
    fn setup_span(&self) -> &'static str {
        "bench.setup"
    }

    /// One timed pass through the public entry points.
    fn pass(&self, ready: Vec<Self::Ready>) -> Pass;

    /// The same work replayed layer by layer into `main`, plus probes that
    /// only the traced run makes, into `probes`.
    fn traced_pass(
        &self,
        ready: Vec<Self::Ready>,
        main: &mut Recorder,
        probes: &mut Recorder,
    ) -> Traced;
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds the timed phase lasts (at least [`MIN_PASSES`]
    /// passes run).
    pub seconds: f64,
    /// Traced run instead of the untraced one.
    pub trace: bool,
    /// Worker threads.
    pub workers: usize,
    /// Reduced input sizes, for tests.
    pub small: bool,
    /// Root of the pinned lint sources.
    pub corpus: PathBuf,
    /// Where the traced run writes the spans of its first traced pass.
    pub trace_out: Option<PathBuf>,
}

/// One metric's samples.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// The catalog entry.
    pub metric: Metric,
    /// Every sample; the reported value is their median.
    pub samples: Vec<f64>,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// No failed item and no broken invariant.
    pub correct: bool,
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items failed over all passes.
    pub failed: u64,
    /// Untraced passes run.
    pub passes: usize,
    /// Traced passes run.
    pub traced_passes: usize,
    /// Metrics of the mode that ran.
    pub metrics: Vec<Sampled>,
    /// Per-layer figures the untraced run also measures (wall-clock rate,
    /// pool load, event rate, task latency), printed in its report but not
    /// in its result.
    pub report_only: Vec<Sampled>,
    /// Deterministic counters (identical in every pass).
    pub counters: BTreeMap<String, String>,
    /// Report digest (identical in every pass).
    pub digest: String,
    /// Broken invariants, deduplicated.
    pub problems: Vec<String>,
}

/// Runs one workload.
///
/// # Errors
///
/// Reports an unknown workload or a set-up that failed.
pub fn run(cfg: &Config) -> Result<Summary, String> {
    use workloads::{dse::Dse, fleet::Fleet, grid::PaperGrid, lint::LintPinned};
    match cfg.workload.as_str() {
        "paper_grid" => drive(&PaperGrid::new(cfg), cfg),
        "dse_converge" => drive(&Dse::converge(cfg), cfg),
        "dse_cmp" => drive(&Dse::cmp(cfg), cfg),
        "fleet_stream" => drive(&Fleet::stream(cfg), cfg),
        "fleet_secded" => drive(&Fleet::secded(cfg), cfg),
        "lint_pinned" => drive(&LintPinned::new(cfg), cfg),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Samples of one untraced pass.
struct Timed {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
}

/// One traced pass with every span it recorded.
struct TracedRun {
    traced: Traced,
    spans: Recorder,
    /// Summed duration of the replayed work's top-level spans.
    root_ns: u64,
}

fn drive<W: Workload>(w: &W, cfg: &Config) -> Result<Summary, String> {
    let setup_s = stats::time_per_call(11, || w.setup())?;
    let fresh = |rec: Option<&mut Recorder>| -> Result<Vec<W::Ready>, String> {
        let n = w.setups_per_pass();
        match rec {
            None => (0..n).map(|_| w.setup()).collect(),
            Some(rec) => (0..n)
                .map(|i| rec.span(w.setup_span(), i as u64, |_| w.setup()))
                .collect(),
        }
    };

    let epoch = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    let mut traced: Vec<TracedRun> = Vec::new();
    loop {
        let ready = fresh(None)?;
        let cpu0 = stats::cpu_seconds();
        let t = Instant::now();
        let pass = w.pass(ready);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = match (cpu0, stats::cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        timed.push(Timed {
            pass,
            wall_s,
            cpu_s,
        });

        if cfg.trace {
            let mut spans = Recorder::default();
            let ready = fresh(Some(&mut spans))?;
            let (mut main, mut probes) = (Recorder::default(), Recorder::default());
            let t = w.traced_pass(ready, &mut main, &mut probes);
            let root_ns = main
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.ns())
                .sum();
            spans.absorb(main);
            spans.absorb(probes);
            traced.push(TracedRun {
                traced: t,
                spans,
                root_ns,
            });
        }
        let runs = timed
            .len()
            .min(if cfg.trace { traced.len() } else { usize::MAX });
        if runs >= MIN_PASSES && epoch.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    if let (Some(path), Some(first)) = (&cfg.trace_out, traced.first()) {
        write_trace(path, epoch, &first.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let passes: Vec<&Pass> = timed
        .iter()
        .map(|t| &t.pass)
        .chain(traced.iter().map(|t| &t.traced.pass))
        .collect();
    let first = &timed[0].pass;
    let digest = first.digest.clone().unwrap_or_default();
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for (i, p) in passes.iter().enumerate() {
        attempted += p.items;
        failed += p.failed;
        problems.extend(p.problems.iter().cloned());
        if p.digest.is_some() && p.digest != first.digest {
            failed += 1;
            problems.push(format!("pass {i}: report digest differs from pass 0"));
        }
        if p.counters != first.counters {
            failed += 1;
            problems.push(format!(
                "pass {i}: deterministic counters differ from pass 0"
            ));
        }
    }
    problems.sort();
    problems.dedup();

    let untraced = untraced_figures(cfg, &timed);
    let (metrics, report_only) = if cfg.trace {
        (layer_metrics(&timed, &traced, &untraced), Vec::new())
    } else {
        let rates: Vec<f64> = timed
            .iter()
            .map(|t| t.pass.items as f64 / t.cpu_s)
            .collect();
        let rss = stats::proc_status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        let end_to_end = END_TO_END
            .iter()
            .map(|&metric| Sampled {
                metric,
                samples: match metric.name {
                    "items_per_cpu_s" => rates.clone(),
                    "setup_s" => setup_s.clone(),
                    "peak_rss_mib" => vec![rss],
                    other => unreachable!("end-to-end metric {other} has no sampler"),
                },
            })
            .collect();
        let applies = |s: &Sampled| s.samples.iter().any(|&x| x != 0.0);
        (end_to_end, untraced.into_iter().filter(applies).collect())
    };

    Ok(Summary {
        workload: cfg.workload.clone(),
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        passes: timed.len(),
        traced_passes: traced.len(),
        metrics,
        report_only,
        counters: first.counters.clone(),
        digest,
        problems,
    })
}

fn write_trace(path: &std::path::Path, epoch: Instant, rec: &Recorder) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(epoch, &mut out)
}

/// Per-layer figures measured on untraced passes: wall-clock rate, pool
/// load, simulated event rate and task latency.
fn untraced_figures(cfg: &Config, timed: &[Timed]) -> Vec<Sampled> {
    let workers = cfg.workers as f64;
    let per_pass = |f: &dyn Fn(&Timed) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    // A pass of paper_grid runs 270 tasks, so its 95th percentile has 13
    // tasks beyond it; the reported value is the median over passes.
    let pct = |t: &Timed, p: f64| {
        if t.pass.task_ns.is_empty() {
            0.0
        } else {
            let ms: Vec<f64> = t.pass.task_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            stats::percentile(&ms, p)
        }
    };
    PER_LAYER
        .iter()
        .filter_map(|&metric| {
            let samples = match metric.name {
                "items_per_s" => per_pass(&|t| t.pass.items as f64 / t.wall_s),
                "pool.busy_share" => per_pass(&|t| t.cpu_s / (workers * t.wall_s)),
                "pool.idle_ms" => per_pass(&|t| (workers * t.wall_s - t.cpu_s) * 1e3),
                "sim_events_per_s" => per_pass(&|t| t.pass.sim_events as f64 / t.wall_s),
                "task_p50_ms" => per_pass(&|t| pct(t, 50.0)),
                "task_p95_ms" => per_pass(&|t| pct(t, 95.0)),
                _ => return None,
            };
            Some(Sampled { metric, samples })
        })
        .collect()
}

/// Per-layer metrics: one sample per traced pass, except the figures of
/// [`untraced_figures`] and the tracing overhead, reported as medians.
fn layer_metrics(timed: &[Timed], traced: &[TracedRun], untraced: &[Sampled]) -> Vec<Sampled> {
    let per_pass: Vec<BTreeMap<&'static str, f64>> = traced.iter().map(layer_values).collect();
    let untraced_rate = stats::median(
        &timed
            .iter()
            .map(|t| t.pass.items as f64 / t.wall_s)
            .collect::<Vec<_>>(),
    );
    let traced_rate = stats::median(
        &traced
            .iter()
            .map(|t| t.traced.pass.items as f64 / (t.traced.main_ns as f64 / 1e9))
            .collect::<Vec<_>>(),
    );
    PER_LAYER
        .iter()
        .map(|&metric| {
            if let Some(s) = untraced.iter().find(|s| s.metric.name == metric.name) {
                return s.clone();
            }
            let samples = match metric.name {
                "trace_overhead" => vec![untraced_rate / traced_rate - 1.0],
                name => per_pass
                    .iter()
                    .map(|v| v.get(name).copied().unwrap_or(0.0))
                    .collect(),
            };
            Sampled { metric, samples }
        })
        .collect()
}

/// The span-derived metrics of one traced pass.
fn layer_values(run: &TracedRun) -> BTreeMap<&'static str, f64> {
    let rec = &run.spans;
    let own = rec.self_ns();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let calls = |name: &str| rec.calls(name) as f64;
    let per_call_ms = |name: &str| match rec.calls(name) {
        0 => 0.0,
        n => rec.total_ns(name) as f64 / 1e6 / n as f64,
    };
    let count = |name: &str| rec.counter(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let devices = count("fleet.devices");

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [
        "core.partitioning",
        "core.compression",
        "core.buscoding",
        "core.scheduling",
        "core.system",
        "buscode.train",
        "buscode.evaluate",
        "isa.kernel_run",
        "partition.run",
        "compress.run",
        "sched.run",
        "cmp.run_cmp",
        "lint.lex",
        "lint.heuristic",
        "lint.parse",
        "lint.resolve",
        "lint.taint",
    ] {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_ms") == Some(name))
            .expect("every timed span has a catalog entry");
        v.insert(metric.name, ms(name));
    }
    v.insert("isa.kernel_runs", calls("isa.kernel_run"));
    v.insert("isa.instret", count("isa.instret"));
    v.insert(
        "isa.mips",
        ratio(count("isa.instret"), ms("isa.kernel_run") * 1e3),
    );
    v.insert("explore.setup_ms", per_call_ms("explore.setup"));
    v.insert("explore.search_ms", per_call_ms("explore.search"));
    v.insert("explore.exhaustive_ms", per_call_ms("explore.exhaustive"));
    v.insert(
        "explore.search_overhead_ms",
        per_call_ms("explore.search_replay"),
    );
    v.insert(
        "explore.eval_cold_us",
        per_call_ms("explore.eval_cold") * 1e3,
    );
    v.insert(
        "explore.eval_warm_us",
        per_call_ms("explore.eval_warm") * 1e3,
    );
    v.insert(
        "explore.evaluated",
        ratio(count("explore.evaluated"), calls("explore.search")),
    );
    v.insert("explore.frontier_size", count("explore.frontier_size"));
    v.insert("cmp.scenarios", calls("cmp.run_cmp"));
    v.insert(
        "trace.stream_us_per_device",
        ratio(rec.total_ns("trace.stream") as f64 / 1e3, devices),
    );
    v.insert(
        "fault.campaign_us_per_device",
        ratio(rec.total_ns("fault.campaign") as f64 / 1e3, devices),
    );
    v.insert("fault.bit_trials", count("fault.bit_trials"));
    v.insert("fault.flips_injected", count("fault.flips_injected"));
    v.insert(
        "fault.flips_per_trial",
        ratio(count("fault.flips_injected"), count("fault.bit_trials")),
    );
    v.insert("lint.read_ms", per_call_ms("lint.read"));
    v.insert("lint.parse_recoveries", count("lint.parse_recoveries"));
    v.insert("lint.files", count("lint.files"));
    v.insert("lint.functions", count("lint.functions"));
    v.insert("lint.retractions", count("lint.retractions"));
    let thread_ns = run.traced.threads as f64 * run.traced.main_ns as f64;
    v.insert(
        "unattributed_share",
        1.0 - ratio(run.root_ns as f64, thread_ns),
    );
    v
}
