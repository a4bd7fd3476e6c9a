//! `lpmem-cli` — command-line front end for the lpmem toolchain.
//!
//! ```text
//! lpmem-cli kernels                          list the benchmark kernels
//! lpmem-cli run <kernel> [opts]              run a kernel, print stats
//!     --scale N --seed S --trace FILE        (dump the trace; - = stdout)
//! lpmem-cli disasm <kernel> [--scale N]      disassemble a kernel's text
//! lpmem-cli stats <trace.txt>                locality report for a trace
//! lpmem-cli partition <trace.txt> [opts]     the 1B.1 flow on a trace file
//!     --banks K --block BYTES
//! lpmem-cli compress <kernel> [opts]         the 1B.2 flow on a kernel
//!     --scale N --platform vliw|risc --codec diff|zrun|fpc
//! lpmem-cli buscode <kernel> [--regions R]   the 1B.3 flow on a kernel
//! ```
//!
//! Options and the positional argument come in any order. Anything else,
//! or a bad value, is a usage error (exit 2).

use std::process::ExitCode;

use lpmem_bench::cli::{self, Args};
use lpmem_compress::CodecKind;
use lpmem_core::flows::buscoding::run_buscoding;
use lpmem_core::flows::compression::{run_compression_kernel, PlatformKind};
use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
use lpmem_energy::Technology;
use lpmem_isa::{disassemble, Kernel};
use lpmem_trace::{LocalityReport, Trace};

fn main() -> ExitCode {
    cli::main("lpmem-cli", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let Some(cmd) = args.next() else {
        print_usage();
        return Ok(());
    };
    match cmd.as_str() {
        "kernels" => match args.next() {
            None => cmd_kernels(),
            Some(extra) => Err(cli::unknown(&extra)),
        },
        "run" => cmd_run(Opts::parse(args, &["--scale", "--seed", "--trace"])?),
        "disasm" => cmd_disasm(Opts::parse(args, &["--scale"])?),
        "stats" => cmd_stats(Opts::parse(args, &[])?),
        "partition" => cmd_partition(Opts::parse(args, &["--banks", "--block"])?),
        "compress" => cmd_compress(Opts::parse(args, &["--scale", "--platform", "--codec"])?),
        "buscode" => cmd_buscode(Opts::parse(args, &["--regions"])?),
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
         compress <kernel> [--scale N] [--platform vliw|risc] [--codec diff|zrun|fpc]\n  \
         buscode <kernel> [--regions R]"
    );
}

/// A command's positional target (kernel or trace file) and options.
#[derive(Default)]
struct Opts {
    target: Option<String>,
    scale: Option<u32>,
    seed: Option<u64>,
    trace: Option<String>,
    banks: Option<usize>,
    block: Option<u64>,
    platform: Option<String>,
    codec: Option<String>,
    regions: Option<usize>,
}

impl Opts {
    /// Reads one target and the listed `flags`; anything else is an error.
    fn parse(mut args: Args, flags: &[&str]) -> Result<Opts, String> {
        let mut o = Opts::default();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            match flag {
                _ if !flags.contains(&flag) => {
                    if cli::is_flag(flag) || o.target.is_some() {
                        return Err(cli::unknown(flag));
                    }
                    o.target = Some(arg);
                }
                "--scale" => o.scale = Some(args.num(flag)?),
                "--seed" => o.seed = Some(args.num(flag)?),
                "--trace" => o.trace = Some(args.value(flag)?),
                "--banks" => o.banks = Some(args.num(flag)?),
                "--block" => o.block = Some(args.num(flag)?),
                "--platform" => o.platform = Some(args.value(flag)?),
                "--codec" => o.codec = Some(args.value(flag)?),
                "--regions" => o.regions = Some(args.num(flag)?),
                _ => return Err(cli::unknown(flag)),
            }
        }
        Ok(o)
    }

    fn target(&self, what: &str) -> Result<&str, String> {
        self.target
            .as_deref()
            .ok_or_else(|| format!("missing {what}"))
    }

    /// The target, parsed as a kernel name.
    fn kernel(&self) -> Result<Kernel, String> {
        let name = self.target("kernel name")?;
        Kernel::parse(name)
            .ok_or_else(|| format!("unknown kernel `{name}` (see `lpmem-cli kernels`)"))
    }
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

fn cmd_run(opts: Opts) -> Result<(), String> {
    let kernel = opts.kernel()?;
    let scale = opts.scale.unwrap_or(kernel.default_scale());
    let seed = opts.seed.unwrap_or(1);
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
    if let Some(path) = opts.trace {
        cli::write_output(&path, &lpmem_trace::io::to_text(&run.trace))?;
    }
    Ok(())
}

fn cmd_disasm(opts: Opts) -> Result<(), String> {
    let kernel = opts.kernel()?;
    let scale = opts.scale.unwrap_or(kernel.default_scale());
    let program = kernel.program(scale, 1).map_err(|e| e.to_string())?;
    for (i, line) in disassemble(program.entry(), &program.text_words())
        .iter()
        .enumerate()
    {
        println!("{:#07x}  {line}", program.entry() as usize + 4 * i);
    }
    Ok(())
}

fn cmd_stats(opts: Opts) -> Result<(), String> {
    let trace = load_trace(opts.target("trace file")?)?;
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

fn cmd_partition(opts: Opts) -> Result<(), String> {
    let path = opts.target("trace file")?;
    let trace = load_trace(path)?;
    let cfg = PartitioningConfig {
        max_banks: opts.banks.unwrap_or(8),
        block_size: opts.block.unwrap_or(2048),
        ..Default::default()
    };
    let out =
        run_partitioning(path, &trace, &cfg, &Technology::tech180()).map_err(|e| e.to_string())?;
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

fn cmd_compress(opts: Opts) -> Result<(), String> {
    let kernel = opts.kernel()?;
    let scale = opts.scale.unwrap_or(kernel.default_scale() * 4);
    let platform = match opts.platform.as_deref() {
        None | Some("vliw") => PlatformKind::VliwLike,
        Some("risc") => PlatformKind::RiscLike,
        Some(other) => return Err(format!("unknown platform `{other}`")),
    };
    let name = opts.codec.as_deref().unwrap_or("diff");
    let codec = CodecKind::parse(name)
        .and_then(CodecKind::codec)
        .ok_or_else(|| format!("unknown codec `{name}` (diff, zrun or fpc)"))?;
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

fn cmd_buscode(opts: Opts) -> Result<(), String> {
    let kernel = opts.kernel()?;
    let regions = opts.regions.unwrap_or(4);
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
