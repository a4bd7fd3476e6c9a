//! Multi-objective design-space exploration: emits the Pareto frontier
//! over (energy, area, cycles) for the cross-flow configuration space.
//!
//! ```text
//! explore                                  # full axes, auto strategy
//! explore --axes small                     # the 32-point DSE-2 space
//! explore --axes cmp                       # + the CMP scenario axis (≥10⁷ points)
//! explore --axes banks,codec               # explore two axes, pin the rest
//! explore --strategy exhaustive            # or evolutionary / auto
//! explore --budget 512 --seed 7            # evaluation budget and seed
//! explore --threads 8                      # worker pool size
//! explore --faults secded                  # fault campaign + 4th objective
//! explore --jsonl frontier.jsonl           # frontier dump ('-' = stdout)
//! explore --list                           # axes and space size
//! ```
//!
//! The search is seeded with the sweep grid's variant embeddings, so no
//! frontier point is ever dominated by a configuration the existing
//! experiments run. Frontier dumps are byte-identical for a given
//! `(--axes, --strategy, --budget, --seed)` at any `--threads` count.
//! Short flags: `-a -s -b -t -f -l`. `--budget` and `--threads` are
//! positive; workers default to `LPMEM_SWEEP_THREADS`, else all CPUs.

use std::process::ExitCode;

use lpmem_bench::cli::{self, join, Args};
use lpmem_bench::sweep::worker_count;
use lpmem_core::flows::{FaultSpec, VariantSpec};
use lpmem_explore::{parse_strategy, DesignPoint, DesignSpace, Evaluator, SearchConfig, Workload};

/// Builds the space from an `--axes` value: `full`, `small`, or a comma
/// list of axis names — the listed axes keep their full breadth, the rest
/// collapse to the default sweep variant's embedding.
fn parse_axes(arg: &str) -> Result<DesignSpace, String> {
    match arg.trim().to_ascii_lowercase().as_str() {
        "full" => return Ok(DesignSpace::full()),
        "small" => return Ok(DesignSpace::small()),
        "cmp" => return Ok(DesignSpace::cmp()),
        _ => {}
    }
    let full = DesignSpace::cmp();
    let pin = DesignPoint::from_variant(&VariantSpec::default());
    let mut space = DesignSpace {
        banks: vec![pin.banks],
        blocks: vec![pin.block],
        caches: vec![pin.cache],
        codecs: vec![pin.codec],
        buses: vec![pin.bus],
        l0s: vec![pin.l0],
        cmps: vec![None],
    };
    for name in arg.split(',').filter(|s| !s.trim().is_empty()) {
        match name.trim().to_ascii_lowercase().as_str() {
            "banks" => space.banks = full.banks.clone(),
            "block" | "blocks" => space.blocks = full.blocks.clone(),
            "cache" | "caches" => space.caches = full.caches.clone(),
            "codec" | "codecs" => space.codecs = full.codecs.clone(),
            "bus" | "buses" => space.buses = full.buses.clone(),
            "l0" | "l0s" => space.l0s = full.l0s.clone(),
            "cmp" | "cmps" => space.cmps = full.cmps.clone(),
            other => {
                return Err(format!(
                    "unknown axis {other:?} (banks, block, cache, codec, bus, l0, cmp, full, small)"
                ))
            }
        }
    }
    Ok(space)
}

fn main() -> ExitCode {
    cli::main("explore", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let mut space = DesignSpace::full();
    let mut strategy_name = "auto".to_owned();
    let mut budget = 256usize;
    let mut seed = 2003u64;
    let mut threads: Option<usize> = None;
    let mut jsonl_path: Option<String> = None;
    let mut fault = FaultSpec::off();
    let mut list = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--axes" | "-a" => space = parse_axes(&args.value(&arg)?)?,
            "--strategy" | "-s" => strategy_name = args.value(&arg)?,
            "--budget" | "-b" => budget = args.positive(&arg)?,
            "--seed" => seed = args.num(&arg)?,
            "--threads" | "-t" => threads = Some(args.positive(&arg)?),
            "--jsonl" => jsonl_path = Some(args.value(&arg)?),
            "--faults" | "-f" => fault = args.parsed(&arg, FaultSpec::parse)?,
            "--list" | "-l" => list = true,
            _ => return Err(cli::unknown(&arg)),
        }
    }

    space
        .validate()
        .map_err(|e| format!("invalid design space: {e}"))?;
    if list {
        println!(
            "banks:  {}",
            join(space.banks.iter().map(|b| b.to_string()))
        );
        println!(
            "blocks: {}",
            join(space.blocks.iter().map(|b| b.to_string()))
        );
        println!(
            "caches: {}",
            join(space.caches.iter().map(|c| c.to_string()))
        );
        println!(
            "codecs: {}",
            join(space.codecs.iter().map(|c| c.name().to_owned()))
        );
        println!("buses:  {}", join(space.buses.iter().map(|b| b.name())));
        println!("l0s:    {}", join(space.l0s.iter().map(|b| b.to_string())));
        // The CMP axis can hold over a thousand scenarios: print the
        // count, not the labels.
        let active = space.cmps.iter().filter(|c| c.is_some()).count();
        println!(
            "cmps:   {} scenario(s){}",
            active,
            if space.cmps.contains(&None) {
                " + single-core"
            } else {
                ""
            }
        );
        println!("points: {}", space.len());
        return Ok(());
    }

    let strategy = parse_strategy(&strategy_name, &space, budget)
        .ok_or("--strategy must be exhaustive, evolutionary, or auto")?;
    let workers = threads.map_or_else(worker_count, Ok)?;
    // Seed the search with the sweep grid's embeddings so the frontier
    // provably covers the configurations the experiments already run.
    let seeds: Vec<DesignPoint> = [VariantSpec::default(), VariantSpec::tight()]
        .iter()
        .map(DesignPoint::from_variant)
        .filter(|p| space.contains(p))
        .collect();
    let cfg = SearchConfig {
        budget,
        seed,
        workers,
        seeds,
    };

    println!(
        "explore: {} of {} points, {} search, seed {}, {} workers{}",
        budget.min(space.len()),
        space.len(),
        strategy.name(),
        seed,
        workers,
        if fault.enabled() {
            format!(", faults {}", fault.label())
        } else {
            String::new()
        },
    );
    let workload = Workload::default();
    let evaluator =
        Evaluator::with_faults(workload, fault).map_err(|e| format!("workload: {e}"))?;
    let out = strategy
        .search(&space, &evaluator, &cfg)
        .map_err(|e| format!("search failed: {e}"))?;

    println!(
        "explore: {} evaluated, {} on the frontier",
        out.evaluated,
        out.frontier.len()
    );
    let silent = |s: String| {
        if fault.enabled() {
            format!(" {s:>8}")
        } else {
            String::new()
        }
    };
    println!(
        "{:<42} {:>14} {:>10} {:>10}{}",
        "key",
        "energy_pj",
        "area_mm2",
        "cycles",
        silent("silent".into())
    );
    for p in out.frontier.points() {
        let o = &p.objectives;
        println!(
            "{:<42} {:>14.1} {:>10.4} {:>10}{}",
            p.point.key(),
            o.energy_pj,
            o.area_mm2,
            o.cycles,
            silent(o.silent.to_string())
        );
    }

    if let Some(path) = jsonl_path {
        cli::write_output(&path, &out.frontier.to_jsonl())?;
    }
    Ok(())
}
