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
//! sweep --jsonl results.jsonl             # machine-readable report ('-' = stdout)
//! sweep --list                            # grid axes and task count
//! ```
//!
//! `-q`, `-t`, `-l` are short for `--quick`, `--threads`, `--list`. Axis
//! flags take non-empty comma lists, in any order: `--kernels` keeps the
//! default grid's scales with or without `--quick`. Worker count comes from
//! `--threads` (positive), else `LPMEM_SWEEP_THREADS`, else all CPUs.
//! The JSON-lines report is byte-identical for a given grid at any worker
//! count. Usage errors exit 2; failed tasks exit 1.

use std::process::ExitCode;

use lpmem_bench::cli::{self, join, Args};
use lpmem_bench::sweep::{run_sweep, worker_count, SweepGrid};
use lpmem_core::flows::{CmpSpec, FaultSpec, FlowSpec, TechNode, VariantSpec};
use lpmem_isa::Kernel;

fn main() -> ExitCode {
    cli::main("sweep", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut jsonl_path: Option<String> = None;
    let mut list = false;
    let mut kernels: Option<Vec<Kernel>> = None;
    let mut grid = SweepGrid::default_grid(false);

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--threads" | "-t" => threads = Some(args.positive(&arg)?),
            "--jsonl" => jsonl_path = Some(args.value(&arg)?),
            "--seed" => grid.base_seed = args.num(&arg)?,
            "--flows" => grid.flows = args.list(&arg, FlowSpec::parse)?,
            "--kernels" => kernels = Some(args.list(&arg, Kernel::parse)?),
            "--techs" => grid.techs = args.list(&arg, TechNode::parse)?,
            "--variants" => grid.variants = args.list(&arg, VariantSpec::parse)?,
            "--faults" => grid.faults = args.list(&arg, FaultSpec::parse)?,
            "--cmp" => grid.cmps = args.list(&arg, CmpSpec::parse)?,
            "--list" | "-l" => list = true,
            _ => return Err(cli::unknown(&arg)),
        }
    }
    // The default grid owns the kernel scales; a filter keeps its order.
    let scaled = SweepGrid::default_grid(quick).kernels;
    grid.kernels = match kernels {
        None => scaled,
        Some(kernels) => kernels
            .iter()
            .filter_map(|k| scaled.iter().find(|(d, _)| d == k).copied())
            .collect(),
    };

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
        return Ok(());
    }
    grid.validate()?;

    let workers = threads.map_or_else(worker_count, Ok)?;
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
        cli::write_output(&path, &report.jsonl())?;
    }
    print!("{}", report.table());
    if report.metrics.errors > 0 {
        eprintln!("sweep: {} task(s) failed", report.metrics.errors);
        std::process::exit(1);
    }
    Ok(())
}
