//! Runs a declarative experiment sweep across a worker pool.
//!
//! ```text
//! sweep                                   # full default grid
//! sweep --quick                           # quick scales (CI smoke)
//! sweep --threads 8                       # explicit worker count
//! sweep --flows compression,system        # filter an axis
//! sweep --kernels fir,dct8 --techs t90    # filter more axes
//! sweep --variants tight --seed 7         # variant axis + base seed
//! sweep --faults off,secded,parity        # reliability axis (campaigns)
//! sweep --cmp off,c4b8x32w4-zrun-t180+t90-p600   # CMP scenario axis
//! sweep --jsonl results.jsonl             # machine-readable report
//! sweep --list                            # grid axes and task count
//! ```
//!
//! Worker count comes from `--threads`, else `LPMEM_SWEEP_THREADS`, else
//! the machine's available parallelism. `LPMEM_BENCH_QUICK=1` implies
//! `--quick`. The JSON-lines report is byte-identical for a given grid at
//! any worker count.

use std::io::Write as _;

use lpmem_bench::sweep::{run_sweep, worker_count, SweepGrid};
use lpmem_core::flows::{CmpSpec, FaultSpec, FlowSpec, TechNode, VariantSpec};
use lpmem_isa::Kernel;

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}

/// Splits a comma-separated axis filter and parses every element.
fn parse_list<T>(arg: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    arg.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse(s).unwrap_or_else(|| fail(&format!("unknown {what} {s:?}"))))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick_env = std::env::var_os("LPMEM_BENCH_QUICK").is_some();
    let mut quick = quick_env;
    let mut threads: Option<usize> = None;
    let mut jsonl_path: Option<String> = None;
    let mut list = false;
    let mut grid = SweepGrid::default_grid(quick_env);

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--quick" | "-q" => {
                quick = true;
                grid.kernels = SweepGrid::default_grid(true).kernels;
            }
            "--threads" | "-t" => match value("--threads").parse::<usize>() {
                Ok(n) if n >= 1 => threads = Some(n),
                _ => fail("--threads needs a positive integer"),
            },
            "--jsonl" => jsonl_path = Some(value("--jsonl")),
            "--seed" => match value("--seed").parse::<u64>() {
                Ok(s) => grid.base_seed = s,
                Err(_) => fail("--seed needs an unsigned integer"),
            },
            "--flows" => grid.flows = parse_list(&value("--flows"), "flow", FlowSpec::parse),
            "--kernels" => {
                let kernels = parse_list(&value("--kernels"), "kernel", Kernel::parse);
                let scale = |k: Kernel| {
                    if quick {
                        (k.default_scale() / 4).max(4)
                    } else {
                        k.default_scale()
                    }
                };
                grid.kernels = kernels.into_iter().map(|k| (k, scale(k))).collect();
            }
            "--techs" => grid.techs = parse_list(&value("--techs"), "tech", TechNode::parse),
            "--variants" => {
                grid.variants = parse_list(&value("--variants"), "variant", VariantSpec::parse);
            }
            "--faults" => {
                grid.faults = parse_list(&value("--faults"), "fault spec", FaultSpec::parse);
            }
            "--cmp" => {
                grid.cmps = parse_list(&value("--cmp"), "cmp spec", CmpSpec::parse);
            }
            "--list" | "-l" => list = true,
            other => fail(&format!(
                "unknown argument {other:?} (see src/bin/sweep.rs)"
            )),
        }
    }

    if list {
        println!("flows:    {}", join(grid.flows.iter().map(|f| f.name())));
        println!(
            "kernels:  {}",
            join(
                grid.kernels
                    .iter()
                    .map(|&(k, s)| format!("{}@{s}", k.name()))
            )
        );
        println!("techs:    {}", join(grid.techs.iter().map(|t| t.name())));
        println!(
            "variants: {}",
            join(grid.variants.iter().map(|v| v.name.clone()))
        );
        println!("faults:   {}", join(grid.faults.iter().map(|f| f.label())));
        println!("cmp:      {}", join(grid.cmps.iter().map(|c| c.label())));
        println!("seed:     {}", grid.base_seed);
        println!("tasks:    {}", grid.len());
        return;
    }
    if grid.is_empty() {
        fail("the grid is empty (an axis filter removed every value)");
    }
    if let Err(why) = grid.validate() {
        fail(&why);
    }

    let workers = threads.unwrap_or_else(worker_count);
    println!(
        "sweep: {} tasks ({} flows x {} kernels x {} techs x {} variants x {} faults x {} cmp), {} workers{}",
        grid.len(),
        grid.flows.len(),
        grid.kernels.len(),
        grid.techs.len(),
        grid.variants.len(),
        grid.faults.len(),
        grid.cmps.len(),
        workers,
        if quick { ", quick scales" } else { "" },
    );
    let report = run_sweep(&grid, workers);

    if let Some(path) = jsonl_path {
        let jsonl = report.jsonl();
        if path == "-" {
            print!("{jsonl}");
        } else {
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
            f.write_all(jsonl.as_bytes())
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            println!(
                "sweep: wrote {} JSONL records to {path}",
                report.results.len()
            );
        }
    }
    for table in report.tables() {
        print!("{table}");
    }
    if report.metrics.errors > 0 {
        eprintln!("sweep: {} task(s) failed", report.metrics.errors);
        std::process::exit(1);
    }
}

fn join(items: impl Iterator<Item = impl Into<String>>) -> String {
    items.map(Into::into).collect::<Vec<_>>().join(",")
}
