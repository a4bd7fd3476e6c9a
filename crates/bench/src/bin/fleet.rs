//! Fleet-scale streaming simulation sweep (DESIGN.md §11).
//!
//! ```text
//! fleet                                   # 1M devices, uniform mix
//! fleet --devices 200000 --threads 4      # smaller fleet, fixed workers
//! fleet --mix media --events 512          # population profile / stream length
//! fleet --faults secded --tech t90        # fault-campaign mode (DESIGN.md §12)
//! fleet --jsonl fleet.jsonl               # write the byte-stable report
//! fleet --bench-json BENCH_fleet.json     # write the throughput report
//! fleet --assert-peak-rss-mb 192          # fail if peak RSS exceeds bound
//! fleet --seed 7 --shard 1024 --samples 8 --ws-window 64    # spec knobs
//! fleet --list                            # list mix presets
//! ```
//!
//! Every device streams its events through the online statistics of
//! `lpmem_trace::stream` — no trace is ever materialized — so memory stays
//! bounded by the per-device footprint regardless of fleet size, which
//! `--assert-peak-rss-mb` turns into a hard gate. The JSONL body is a pure
//! function of the spec: byte-identical at any `--threads` value.
//! Workers: `--threads` (positive), else `LPMEM_SWEEP_THREADS`, else all
//! CPUs. A report path of `-` is stdout. An empty class prints `n/a` where
//! its JSON ratios are `null`. Usage errors and a failed RSS gate exit 2.

use std::process::ExitCode;

use lpmem_bench::cli::{self, Args, BenchRecord};
use lpmem_bench::fleet::{run_fleet, FleetReport, FleetSpec};
use lpmem_bench::sweep::worker_count;
use lpmem_core::flows::{FaultSpec, TechNode};
use lpmem_core::{DeviceArchetype, WorkloadMix};
use lpmem_util::json::JsonObject;

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), when the platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Writes the `--bench-json` throughput report. Its counters (fleet
/// shape, class statistics and, under `--faults`, the campaign's outcome
/// counts) are the same at any worker count; its timings are not.
fn write_bench_json(path: &str, report: &FleetReport) -> Result<(), String> {
    let spec = &report.spec;
    let mut counters = JsonObject::new()
        .u64("devices", spec.devices)
        .u64("events_per_device", spec.events_per_device as u64)
        .u64("events", report.total_events())
        .str("mix", spec.mix.name())
        .u64("seed", spec.base_seed);
    if spec.fault.enabled() {
        let rel = report.total_reliability();
        counters = counters
            .str("faults", &spec.fault.label())
            .str("tech", spec.tech.name())
            .u64("injected", rel.injected)
            .u64("masked", rel.masked)
            .u64("detected", rel.detected)
            .u64("corrected", rel.corrected)
            .u64("silent", rel.silent);
    }
    let top = BenchRecord {
        counters: counters.finish(),
        timings: JsonObject::new()
            .u64("workers", report.workers as u64)
            .f64("elapsed_s", report.elapsed_ns as f64 / 1e9)
            .f64("devices_per_sec", report.devices_per_sec())
            .f64("events_per_sec", report.events_per_sec())
            .finish(),
    };
    let classes: Vec<BenchRecord> = report
        .per_class
        .iter()
        .enumerate()
        .map(|(c, agg)| BenchRecord {
            counters: JsonObject::new()
                .str("class", DeviceArchetype::ALL[c].name())
                .u64("devices", agg.devices)
                .u64("events", agg.events)
                // An empty class has no ratio: JSON `null`.
                .f64(
                    "mean_stack_distance",
                    agg.mean_stack_distance().unwrap_or(f64::NAN),
                )
                .f64(
                    "spatial_locality",
                    agg.spatial_locality().unwrap_or(f64::NAN),
                )
                .finish(),
            timings: JsonObject::new().finish(),
        })
        .collect();
    cli::write_bench(path, "fleet", &top, &classes)
}

fn main() -> ExitCode {
    cli::main("fleet", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let mut spec = FleetSpec::new(WorkloadMix::uniform());
    spec.devices = 1_000_000;
    let mut threads = None;
    let mut jsonl_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut max_rss_mb: Option<u64> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices" => spec.devices = args.num(&arg)?,
            "--events" => spec.events_per_device = args.num(&arg)?,
            "--threads" => threads = Some(args.positive(&arg)?),
            "--mix" => spec.mix = args.parsed(&arg, WorkloadMix::parse)?,
            "--seed" => spec.base_seed = args.num(&arg)?,
            "--shard" => spec.shard_devices = args.num(&arg)?,
            "--samples" => spec.samples = args.num(&arg)?,
            "--ws-window" => spec.ws_window = args.num(&arg)?,
            "--faults" => spec.fault = args.parsed(&arg, FaultSpec::parse)?,
            "--tech" => spec.tech = args.parsed(&arg, TechNode::parse)?,
            "--jsonl" => jsonl_path = Some(args.value(&arg)?),
            "--bench-json" => bench_path = Some(args.value(&arg)?),
            "--assert-peak-rss-mb" => max_rss_mb = Some(args.num(&arg)?),
            "--list" => {
                println!("mix presets: uniform, embedded, media, chase");
                println!("custom mixes: 5 comma-separated weights in archetype order:");
                for a in DeviceArchetype::ALL {
                    println!("  {}", a.name());
                }
                return Ok(());
            }
            _ => return Err(cli::unknown(&arg)),
        }
    }

    let report = run_fleet(&spec, threads.map_or_else(worker_count, Ok)?)?;

    println!(
        "== fleet: {} devices x {} events, mix {}, {} workers ==",
        spec.devices,
        spec.events_per_device,
        spec.mix.name(),
        report.workers
    );
    println!(
        "  {:<14} {:>9} {:>12} {:>10} {:>10} {:>8}",
        "class", "devices", "events", "mean dist", "spatial", "ws max"
    );
    let ratio =
        |r: Option<f64>, digits: usize| r.map_or("n/a".to_owned(), |r| format!("{r:.digits$}"));
    for (c, agg) in report.per_class.iter().enumerate() {
        println!(
            "  {:<14} {:>9} {:>12} {:>10} {:>10} {:>8}",
            DeviceArchetype::ALL[c].name(),
            agg.devices,
            agg.events,
            ratio(agg.mean_stack_distance(), 1),
            ratio(agg.spatial_locality(), 3),
            agg.ws_max
        );
    }
    if spec.fault.enabled() {
        let rel = report.total_reliability();
        println!(
            "  faults {} at {}: {} injected = {} masked + {} detected + {} corrected + {} silent",
            spec.fault.label(),
            spec.tech.name(),
            rel.injected,
            rel.masked,
            rel.detected,
            rel.corrected,
            rel.silent
        );
    }
    let elapsed_s = report.elapsed_ns as f64 / 1e9;
    println!(
        "  {:.2}s wall: {:.0} devices/sec, {:.2e} events/sec",
        elapsed_s,
        report.devices_per_sec(),
        report.events_per_sec()
    );
    if let Some(kb) = peak_rss_kb() {
        println!("  peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }

    if let Some(path) = jsonl_path {
        cli::write_output(&path, &report.jsonl())?;
    }
    if let Some(path) = bench_path {
        write_bench_json(&path, &report)?;
    }
    if let Some(limit_mb) = max_rss_mb {
        match peak_rss_kb() {
            Some(kb) if kb > limit_mb.saturating_mul(1024) => {
                return Err(format!(
                    "peak RSS {:.1} MiB exceeds the {limit_mb} MiB bound",
                    kb as f64 / 1024.0
                ))
            }
            Some(kb) => println!(
                "  peak-RSS gate passed: {:.1} MiB <= {limit_mb} MiB",
                kb as f64 / 1024.0
            ),
            None => println!("  peak-RSS gate skipped (no /proc/self/status)"),
        }
    }
    Ok(())
}
