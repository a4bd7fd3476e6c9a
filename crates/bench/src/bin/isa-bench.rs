//! Differential smoke test and per-kernel throughput bench for the two
//! TinyRISC execution backends (DESIGN.md §10).
//!
//! ```text
//! isa-bench                               # smoke + bench, prints the table
//! isa-bench --quick                       # quick sampling (CI smoke)
//! isa-bench --json BENCH_isa.json         # also write the report there
//! isa-bench --check-speedup 5             # fail unless geomean speedup >= 5
//! isa-bench --seed 7 --kernels fir,dct8   # input seed / kernel filter
//! ```
//!
//! Every invocation first runs the **differential smoke**: each kernel
//! executes on both backends and the run is rejected unless the traces
//! are byte-identical (and steps/registers agree) — only then is anything
//! timed. The `--check-speedup` gate is skipped on single-CPU machines
//! (or when `LPMEM_SKIP_TIMING_GATE=1`), where wall-clock ratios are
//! unreliable. A geomean that is not finite fails it. A report is written
//! only where `--json` names it (`-` is stdout); its counters (kernel,
//! scale, instret) are the same in a quick and a full run. Usage errors, a
//! diverging backend and a failed gate exit 2.

use std::process::ExitCode;

use lpmem_bench::cli::{self, Args, BenchRecord};
use lpmem_isa::kernels::MAX_STEPS;
use lpmem_isa::{Backend, Kernel, Machine, Program, Reg};
use lpmem_util::bench::{benchmark_paired, format_ns, Measurement, Options, PairedMeasurement};
use lpmem_util::json::JsonObject;

/// One kernel's smoke + timing result.
struct KernelReport {
    kernel: Kernel,
    scale: u32,
    instret: u64,
    interp: Measurement,
    compiled: Measurement,
    /// Median of per-sample interp/compiled time ratios (drift-immune;
    /// see [`PairedMeasurement`]).
    speedup: f64,
}

impl KernelReport {
    fn mips(&self, m: &Measurement) -> f64 {
        self.instret as f64 / m.median_ns * 1e3
    }

    fn record(&self) -> BenchRecord {
        BenchRecord {
            counters: JsonObject::new()
                .str("kernel", self.kernel.name())
                .u64("scale", u64::from(self.scale))
                .u64("instret", self.instret)
                .finish(),
            timings: JsonObject::new()
                .f64("interp_ns", self.interp.median_ns)
                .f64("interp_mips", self.mips(&self.interp))
                .f64("compiled_ns", self.compiled.median_ns)
                .f64("compiled_mips", self.mips(&self.compiled))
                .f64("speedup", self.speedup)
                .finish(),
        }
    }
}

/// Runs the kernel's `program` on both backends, checks byte-identical
/// behaviour, and returns the instruction count.
fn differential_smoke(
    kernel: Kernel,
    program: &Program,
    scale: u32,
    seed: u64,
) -> Result<u64, String> {
    let name = kernel.name();
    let mut interp = Machine::new(program);
    let interp_run = interp
        .run(MAX_STEPS)
        .map_err(|e| format!("{name}: interpreter failed: {e}"))?;
    let mut compiled = Machine::new(program);
    let compiled_run = compiled
        .run_with(Backend::Compiled, MAX_STEPS)
        .map_err(|e| format!("{name}: compiled backend failed: {e}"))?;
    if compiled_run.steps != interp_run.steps {
        return Err(format!(
            "{name}: step divergence: interp {} vs compiled {}",
            interp_run.steps, compiled_run.steps
        ));
    }
    if compiled_run.trace != interp_run.trace {
        return Err(format!(
            "{name}: trace divergence over {} events",
            interp_run.trace.len()
        ));
    }
    for i in 0..16u8 {
        let r = Reg::new(i).ok_or("register index")?;
        if compiled.reg(r) != interp.reg(r) {
            return Err(format!("{name}: register r{i} diverged"));
        }
    }
    // The kernel library's own verification (machine vs Rust reference).
    kernel
        .run_with(Backend::Compiled, scale, seed)
        .map_err(|e| format!("{name}: verified run failed: {e}"))?;
    Ok(interp_run.steps)
}

/// Times both backends on `program` with paired samples so machine-load
/// drift cancels out of the speedup ratio.
fn time_backends(kernel: Kernel, program: &Program, opts: &Options) -> PairedMeasurement {
    let run = |backend: Backend| {
        let program = program.clone();
        move || {
            let mut m = Machine::new(&program);
            m.run_with(backend, MAX_STEPS)
                .expect("the differential smoke ran this program cleanly")
                .steps
        }
    };
    benchmark_paired(
        &format!("{}/{}", kernel.name(), Backend::Interpret.name()),
        &format!("{}/{}", kernel.name(), Backend::Compiled.name()),
        opts,
        run(Backend::Interpret),
        run(Backend::Compiled),
    )
}

fn main() -> ExitCode {
    cli::main("isa-bench", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut seed: u64 = 2003;
    let mut kernels: Vec<Kernel> = Kernel::ALL.to_vec();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--json" => json_path = Some(args.value(&arg)?),
            "--check-speedup" => match args.num::<f64>(&arg)? {
                x if x > 0.0 => min_speedup = Some(x),
                _ => return Err("--check-speedup needs a positive number".to_owned()),
            },
            "--seed" => seed = args.num(&arg)?,
            "--kernels" => kernels = args.list(&arg, Kernel::parse)?,
            _ => return Err(cli::unknown(&arg)),
        }
    }

    let opts = if quick {
        Options::quick()
    } else {
        // Kernel runs are milliseconds each; moderate sampling keeps the
        // full suite under a minute while staying stable.
        Options {
            warmup_ns: 50_000_000,
            samples: 9,
            sample_ns: 25_000_000,
        }
    };

    println!("== differential smoke: compiled vs interpreter ==");
    let mut reports: Vec<KernelReport> = Vec::new();
    for &kernel in &kernels {
        let scale = kernel.default_scale();
        let program = kernel.program(scale, seed).map_err(|e| e.to_string())?;
        let instret = differential_smoke(kernel, &program, scale, seed)?;
        println!(
            "  {:<10} scale {:<4} instret {:>9}  traces byte-identical",
            kernel.name(),
            scale,
            instret
        );
        let paired = time_backends(kernel, &program, &opts);
        reports.push(KernelReport {
            kernel,
            scale,
            instret,
            interp: paired.a,
            compiled: paired.b,
            speedup: paired.ratio,
        });
    }

    println!("\n== throughput (median of {} samples) ==", opts.samples);
    println!(
        "  {:<10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "kernel", "instret", "interp", "interp MIPS", "compiled", "comp MIPS", "speedup"
    );
    for r in &reports {
        println!(
            "  {:<10} {:>10} {:>12} {:>12.1} {:>12} {:>12.1} {:>7.2}x",
            r.kernel.name(),
            r.instret,
            format_ns(r.interp.median_ns),
            r.mips(&r.interp),
            format_ns(r.compiled.median_ns),
            r.mips(&r.compiled),
            r.speedup
        );
    }
    let geomean =
        (reports.iter().map(|r| r.speedup.ln()).sum::<f64>() / reports.len() as f64).exp();
    println!("  geomean speedup: {geomean:.2}x");

    if let Some(path) = json_path {
        let top = BenchRecord {
            counters: JsonObject::new()
                .u64("seed", seed)
                .u64("kernels", reports.len() as u64)
                .finish(),
            timings: JsonObject::new().f64("geomean_speedup", geomean).finish(),
        };
        let rows: Vec<BenchRecord> = reports.iter().map(KernelReport::record).collect();
        cli::write_bench(&path, "isa-bench", &top, &rows)?;
    }

    if let Some(min) = min_speedup {
        let single_cpu = std::thread::available_parallelism()
            .map(|n| n.get() <= 1)
            .unwrap_or(true);
        if single_cpu || std::env::var_os("LPMEM_SKIP_TIMING_GATE").is_some() {
            println!("  timing gate skipped (single CPU or LPMEM_SKIP_TIMING_GATE)");
        } else if !geomean.is_finite() || geomean < min {
            return Err(format!(
                "geomean speedup {geomean:.2}x is below the required {min:.2}x"
            ));
        } else {
            println!("  timing gate passed: {geomean:.2}x >= {min:.2}x");
        }
    }
    Ok(())
}
