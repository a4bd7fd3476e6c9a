//! The `lpbench` command: runs one workload (or `all`) and prints the
//! report, ending with one JSON line.
//!
//! ```text
//! lpbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!         [--corpus DIR] [--trace-out FILE]
//! ```
//!
//! `lpbench/run.py` builds this binary, extracts the pinned lint sources
//! (which `lint_pinned` reads from `--corpus`) and passes `--corpus` and
//! `--trace-out`. Every parallel layer runs on [`WORKERS`] threads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use lpbench::metrics::{Metric, PER_LAYER};
use lpbench::stats::{median, quartiles};
use lpbench::{run, Config, Summary, WORKERS, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("lpbench: {msg}");
    eprintln!(
        "usage: lpbench --workload <{}|all> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<bool> = None;
    let mut corpus = PathBuf::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed needs an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace needs 0 or 1"),
            },
            "--corpus" => corpus = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        return usage(&format!("unknown workload {workload:?}"));
    };

    header(seed, trace, seconds);
    let mut summaries = Vec::new();
    for name in &names {
        let cfg = Config {
            workload: (*name).to_owned(),
            seed,
            seconds,
            trace,
            workers: WORKERS,
            small: false,
            corpus: corpus.clone(),
            trace_out: trace_out.as_ref().map(|p| {
                if names.len() == 1 {
                    p.clone()
                } else {
                    p.with_file_name(format!(
                        "{name}-{}",
                        p.file_name()
                            .map_or("trace.jsonl".into(), |f| f.to_string_lossy())
                    ))
                }
            }),
        };
        match run(&cfg) {
            Ok(s) => summaries.push(s),
            Err(e) => {
                eprintln!("lpbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    table(&summaries, trace);
    println!("{}", result_json(&summaries));
    ExitCode::SUCCESS
}

fn header(seed: u64, trace: bool, seconds: f64) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# lpbench ({} run)",
        if trace { "traced" } else { "untraced" }
    );
    println!();
    println!("| CPU | nproc | kernel | rustc | commit | seed | workers | seconds |");
    println!("|---|---|---|---|---|---|---|---|");
    println!(
        "| {} | {nproc} | {} | {} | {} | {seed} | {WORKERS} | {seconds} |",
        lpbench::stats::cpu_model(),
        lpbench::stats::kernel_release(),
        env("LPBENCH_RUSTC"),
        env("LPBENCH_COMMIT"),
    );
    println!();
    println!("Host time, closed batches. Modelled caches start empty in every task, as the flows");
    println!("define them. The model is not validated against hardware: no error figure is given.");
    println!();
}

fn fmt(x: f64) -> String {
    if x == 0.0 || (1e-3..1e7).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.4e}")
    }
}

fn table(summaries: &[Summary], trace: bool) {
    println!(
        "| workload | metric | unit | p25 (n) | median (n) | p75 (n) |{}",
        if trace { " moves |" } else { "" }
    );
    println!(
        "|---|---|---|---|---|---|{}",
        if trace { "---|" } else { "" }
    );
    for s in summaries {
        for m in s.metrics.iter().chain(&s.report_only) {
            let n = m.samples.len();
            let (q1, q3) = quartiles(&m.samples);
            print!(
                "| {} | {} | {} | {} (n={n}) | {} (n={n}) | {} (n={n}) |",
                s.workload,
                m.metric.name,
                m.metric.unit,
                fmt(q1),
                fmt(median(&m.samples)),
                fmt(q3)
            );
            if trace {
                print!(" {} |", m.metric.about);
            }
            println!();
        }
    }
    println!();
    for s in summaries {
        println!(
            "{}: {} untraced + {} traced passes; {} ({} attempted, {} failed, fail_ratio {})",
            s.workload,
            s.passes,
            s.traced_passes,
            if s.correct { "correct" } else { "NOT CORRECT" },
            s.attempted,
            s.failed,
            s.failed as f64 / s.attempted.max(1) as f64
        );
        if !s.report_only.is_empty() {
            println!("  (rows after peak_rss_mib are per-layer figures of the untraced passes, not in the result line)");
        }
        for p in &s.problems {
            println!("  problem: {p}");
        }
        println!(
            "  digest {} (of pass 0; every other pass is checked against it)",
            if s.digest.is_empty() { "-" } else { &s.digest }
        );
        for (k, v) in &s.counters {
            println!("  counter {k} = {v}");
        }
        if trace {
            for line in checks(s) {
                println!("  check: {line}");
            }
        }
    }
    println!();
}

/// The traced run's checks that each workload stresses the layer it was
/// chosen for.
fn checks(s: &Summary) -> Vec<String> {
    let v: BTreeMap<&str, f64> = s
        .metrics
        .iter()
        .map(|m| (m.metric.name, median(&m.samples)))
        .collect();
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    match s.workload.as_str() {
        "paper_grid" => {
            let layers: Vec<(&str, f64)> = PER_LAYER
                .iter()
                .filter(|m| {
                    m.unit == "ms" && !m.name.starts_with("task_") && !m.name.starts_with("pool.")
                })
                .map(|m: &Metric| (m.name, get(m.name)))
                .collect();
            let buscode = get("buscode.train_ms") + get("buscode.evaluate_ms");
            let (top, top_ms) = layers
                .iter()
                .filter(|(n, _)| !n.starts_with("buscode."))
                .fold(("", 0.0), |a, &(n, x)| if x > a.1 { (n, x) } else { a });
            vec![format!(
                "buscode ({buscode:.1} ms) is the largest layer on paper_grid (next: {top} {top_ms:.1} ms): {}",
                verdict(buscode > top_ms)
            )]
        }
        "fleet_secded" => {
            let (f, t) = (
                get("fault.campaign_us_per_device"),
                get("trace.stream_us_per_device"),
            );
            vec![format!(
                "the fault campaign ({f:.2} us/device) is most of the device time ({:.2} us/device): {}",
                f + t,
                verdict(f > t)
            )]
        }
        "fleet_stream" => {
            let f = get("fault.campaign_us_per_device");
            vec![format!(
                "the fault campaign takes no time on fleet_stream ({f} us/device): {}",
                verdict(f == 0.0)
            )]
        }
        "dse_converge" | "dse_cmp" => {
            let (o, all) = (get("explore.search_overhead_ms"), get("explore.search_ms"));
            let share = if all > 0.0 { o / all } else { 0.0 };
            let (want, ok) = if s.workload == "dse_converge" {
                ("most", share > 0.5)
            } else {
                ("a small share", share < 0.25)
            };
            vec![format!(
                "search overhead is {want} of a search: {:.0}% of {all:.1} ms: {}",
                share * 100.0,
                verdict(ok)
            )]
        }
        _ => Vec::new(),
    }
}

/// The last line: correctness, counts and each metric's median. With
/// several workloads, metric names carry the workload as a prefix.
fn result_json(summaries: &[Summary]) -> String {
    let correct = summaries.iter().all(|s| s.correct);
    let attempted: u64 = summaries.iter().map(|s| s.attempted).sum();
    let failed: u64 = summaries.iter().map(|s| s.failed).sum();
    let mut metrics = Vec::new();
    for s in summaries {
        for m in &s.metrics {
            let name = if summaries.len() == 1 {
                m.metric.name.to_owned()
            } else {
                format!("{}.{}", s.workload, m.metric.name)
            };
            let value = median(&m.samples);
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_owned()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.metric.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
