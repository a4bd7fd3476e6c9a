//! `lpmem-cli` — command-line front end for the lpmem toolchain.
//!
//! ```text
//! lpmem-cli kernels                          list the benchmark kernels
//! lpmem-cli run <kernel> [opts]              run a kernel, print stats
//!     --scale N --seed S --trace FILE        (dump the trace as text)
//! lpmem-cli disasm <kernel> [--scale N]      disassemble a kernel's text
//! lpmem-cli stats <trace.txt>                locality report for a trace
//! lpmem-cli partition <trace.txt> [opts]     the 1B.1 flow on a trace file
//!     --banks K --block BYTES
//! lpmem-cli compress <kernel> [opts]         the 1B.2 flow on a kernel
//!     --scale N --platform vliw|risc --codec diff|zero|fpc
//! lpmem-cli buscode <kernel> [--regions R]   the 1B.3 flow on a kernel
//! ```

use std::process::ExitCode;

use lpmem_compress::{DiffCodec, FpcCodec, LineCodec, ZeroRunCodec};
use lpmem_core::flows::buscoding::run_buscoding;
use lpmem_core::flows::compression::{run_compression_kernel, PlatformKind};
use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
use lpmem_energy::Technology;
use lpmem_isa::{disassemble, Kernel};
use lpmem_trace::{LocalityReport, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "kernels" => cmd_kernels(),
        "run" => cmd_run(rest),
        "disasm" => cmd_disasm(rest),
        "stats" => cmd_stats(rest),
        "partition" => cmd_partition(rest),
        "compress" => cmd_compress(rest),
        "buscode" => cmd_buscode(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try --help)")),
    }
}

fn print_usage() {
    println!(
        "lpmem-cli — energy-efficient memory-system toolchain\n\n\
         commands:\n  \
         kernels                         list benchmark kernels\n  \
         run <kernel> [--scale N] [--seed S] [--trace FILE]\n  \
         disasm <kernel> [--scale N]\n  \
         stats <trace.txt>\n  \
         partition <trace.txt> [--banks K] [--block BYTES]\n  \
         compress <kernel> [--scale N] [--platform vliw|risc] [--codec diff|zero|fpc]\n  \
         buscode <kernel> [--regions R]"
    );
}

/// Pulls `--name value` out of an argument list.
fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn opt_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{v}`")),
    }
}

/// The positional kernel-name argument, parsed.
fn kernel_arg(args: &[String]) -> Result<Kernel, String> {
    let name = positional(args, "kernel name")?;
    Kernel::parse(&name).ok_or_else(|| format!("unknown kernel `{name}` (see `lpmem-cli kernels`)"))
}

fn positional(args: &[String], what: &str) -> Result<String, String> {
    args.iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("missing {what}"))
}

fn cmd_kernels() -> Result<(), String> {
    println!("{:<12} {:>6}  description", "name", "scale");
    for k in Kernel::ALL {
        let desc = match k {
            Kernel::MatMul => "dense integer matrix multiply",
            Kernel::Fir => "FIR filter over a waveform",
            Kernel::Dct8 => "8-point integer DCT over pixel blocks",
            Kernel::Histogram => "256-bin byte histogram",
            Kernel::Crc32 => "table-driven CRC-32",
            Kernel::BubbleSort => "bubble sort of unsigned words",
            Kernel::StrSearch => "naive substring search",
            Kernel::RleEncode => "run-length encoder",
            Kernel::Conv2d => "3x3 integer image convolution",
        };
        println!("{:<12} {:>6}  {desc}", k.name(), k.default_scale());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let kernel = kernel_arg(args)?;
    let scale = opt_num(args, "--scale", kernel.default_scale())?;
    let seed = opt_num(args, "--seed", 1u64)?;
    let run = kernel.run(scale, seed).map_err(|e| e.to_string())?;
    let (f, r, w) = run.trace.kind_counts();
    println!(
        "kernel     : {} (scale {scale}, seed {seed})",
        kernel.name()
    );
    println!("instructions: {}", run.steps);
    println!(
        "trace      : {} events ({f} fetches, {r} reads, {w} writes)",
        run.trace.len()
    );
    println!("verified   : yes (output matches the Rust reference)");
    if let Some(path) = opt(args, "--trace") {
        std::fs::write(&path, lpmem_trace::io::to_text(&run.trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let kernel = kernel_arg(args)?;
    let scale = opt_num(args, "--scale", kernel.default_scale())?;
    let program = kernel.program(scale, 1);
    for (i, line) in disassemble(program.entry(), &program.text_words())
        .iter()
        .enumerate()
    {
        println!("{:#07x}  {line}", program.entry() as usize + 4 * i);
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = positional(args, "trace file")?;
    let trace = load_trace(&path)?;
    let report = LocalityReport::from_trace(&trace, 64).map_err(|e| e.to_string())?;
    println!("events             : {}", report.events);
    println!(
        "spatial locality   : {:.1}% (within 64 B)",
        100.0 * report.spatial_locality
    );
    println!(
        "footprint          : {} x 64 B blocks",
        report.footprint_blocks
    );
    match report.mean_stack_distance {
        Some(d) => println!("mean stack distance: {d:.1} blocks"),
        None => println!("mean stack distance: n/a (no reuse)"),
    }
    Ok(())
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let path = positional(args, "trace file")?;
    let trace = load_trace(&path)?;
    let cfg = PartitioningConfig {
        max_banks: opt_num(args, "--banks", 8usize)?,
        block_size: opt_num(args, "--block", 2048u64)?,
        ..Default::default()
    };
    let out =
        run_partitioning(&path, &trace, &cfg, &Technology::tech180()).map_err(|e| e.to_string())?;
    println!("blocks     : {} x {} B", out.blocks, cfg.block_size);
    println!("monolithic : {}", out.monolithic);
    println!(
        "partitioned: {} ({} banks, {:.1}% saved)",
        out.partitioned,
        out.partitioned_banks,
        100.0 * out.partitioning_gain()
    );
    println!(
        "clustered  : {} ({} banks, {:.1}% vs partitioned, {})",
        out.clustered,
        out.clustered_banks,
        100.0 * out.reduction_vs_partitioned(),
        if out.clustering_adopted {
            "adopted"
        } else {
            "not adopted"
        }
    );
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let kernel = kernel_arg(args)?;
    let scale = opt_num(args, "--scale", kernel.default_scale() * 4)?;
    let platform = match opt(args, "--platform").as_deref() {
        None | Some("vliw") => PlatformKind::VliwLike,
        Some("risc") => PlatformKind::RiscLike,
        Some(other) => return Err(format!("unknown platform `{other}`")),
    };
    let codec: Box<dyn LineCodec> = match opt(args, "--codec").as_deref() {
        None | Some("diff") => Box::new(DiffCodec::new()),
        Some("zero") => Box::new(ZeroRunCodec::new()),
        Some("fpc") => Box::new(FpcCodec::new()),
        Some(other) => return Err(format!("unknown codec `{other}`")),
    };
    let out = run_compression_kernel(kernel, scale, 1, platform, codec.as_ref())
        .map_err(|e| e.to_string())?;
    println!(
        "kernel    : {} (scale {scale}) on {}",
        kernel.name(),
        platform.name()
    );
    println!("codec     : {}", out.codec);
    println!(
        "wb lines  : {} ({} compressed)",
        out.lines, out.compressed_lines
    );
    println!("beats     : {} -> {}", out.raw_beats, out.actual_beats);
    println!("hit ratio : {:.1}%", 100.0 * out.hit_ratio);
    println!("baseline  :\n{}", out.baseline);
    println!("compressed:\n{}", out.compressed);
    println!("saving    : {:.1}%", 100.0 * out.energy_saving());
    Ok(())
}

fn cmd_buscode(args: &[String]) -> Result<(), String> {
    let kernel = kernel_arg(args)?;
    let regions = opt_num(args, "--regions", 4usize)?;
    let run = kernel
        .run(kernel.default_scale(), 1)
        .map_err(|e| e.to_string())?;
    let out = run_buscoding(kernel.name(), &run.trace, regions, &Technology::tech180())
        .map_err(|e| e.to_string())?;
    println!("kernel     : {} ({} fetches)", kernel.name(), out.fetches);
    println!(
        "raw        : {} transitions ({})",
        out.raw_transitions, out.raw_energy
    );
    println!(
        "encoded    : {} transitions ({}) with {} regions, {} gates",
        out.encoded_transitions, out.encoded_energy, out.regions, out.gates
    );
    println!("bus-invert : {} transitions", out.businvert_transitions);
    println!(
        "reduction  : {:.1}% (bus-invert {:.1}%)",
        100.0 * out.reduction(),
        100.0 * out.businvert_reduction()
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    lpmem_trace::io::from_text(&text).map_err(|e| e.to_string())
}
