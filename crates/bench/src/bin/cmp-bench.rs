//! Cores × banks scaling bench for the chip-multiprocessor flow
//! (DESIGN.md §13).
//!
//! ```text
//! cmp-bench                               # full sampling, prints the table
//! cmp-bench --quick                       # quick sampling (CI smoke)
//! cmp-bench --json BENCH_cmp.json         # also write the report there
//! cmp-bench --seed 7                      # workload seed
//! ```
//!
//! Every cell runs [`run_cmp`] on the Fir-rooted multi-programmed
//! workload with the headline LLC recipe (32 KiB × 4-way banks, zrun
//! compression, a t180+t90 technology split under a 600 µW budget) at a
//! given core and bank count, reports the scenario's deterministic
//! outcome counters, and times the full flow. The counters are a pure
//! function of the spec — only the timings vary run to run, and a quick
//! run reports the same counters as a full one. A report is written only
//! where `--json` names it (`-` is stdout); usage errors and a failing
//! cell exit 2.

use std::process::ExitCode;

use lpmem_bench::cli::{self, Args, BenchRecord};
use lpmem_core::flows::cmp::run_cmp;
use lpmem_core::flows::{CmpSpec, CodecKind, FaultSpec, FlowSummary, TechNode, VariantSpec};
use lpmem_isa::Kernel;
use lpmem_util::bench::{benchmark, format_ns, Measurement, Options};
use lpmem_util::json::JsonObject;

/// Core counts on the scaling axis.
const CORES: [u32; 4] = [1, 2, 4, 8];
/// Bank counts on the scaling axis.
const BANKS: [u32; 3] = [2, 4, 8];
/// Workload scale every cell runs at (the harness default for Fir).
const SCALE: u32 = 48;

/// The headline LLC recipe at a given chip geometry.
fn spec_at(cores: u32, banks: u32) -> CmpSpec {
    CmpSpec {
        cores,
        banks,
        bank_kib: 32,
        ways: 4,
        codec: CodecKind::Zrun,
        techs: vec![TechNode::T180, TechNode::T90],
        budget_uw: 600,
    }
}

/// One cell's deterministic outcome plus its timing.
struct Cell {
    spec: CmpSpec,
    summary: FlowSummary,
    timing: Measurement,
}

impl Cell {
    fn record(&self) -> BenchRecord {
        let report = self.summary.cmp.as_ref().expect("CMP runs carry a report");
        BenchRecord {
            counters: JsonObject::new()
                .u64("cores", u64::from(self.spec.cores))
                .u64("banks", u64::from(self.spec.banks))
                .str("spec", &self.spec.label())
                .u64("events", self.summary.events)
                .f64("baseline_pj", self.summary.baseline.as_pj())
                .f64("optimized_pj", self.summary.optimized.as_pj())
                .u64("llc_lookups", report.llc_lookups)
                .u64("llc_hits", report.llc_hits)
                .u64("llc_compressed", report.llc_compressed_lines)
                .u64("offchip_beats", report.offchip_beats)
                .u64("dark_banks", u64::from(report.dark_banks))
                .u64("cmp_cycles", report.cycles)
                .finish(),
            timings: JsonObject::new()
                .f64("median_ns", self.timing.median_ns)
                .f64(
                    "events_per_sec",
                    self.timing.elems_per_sec(self.summary.events),
                )
                .finish(),
        }
    }
}

fn main() -> ExitCode {
    cli::main("cmp-bench", run)
}

fn run(mut args: Args) -> Result<(), String> {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut seed = 2003u64;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--json" => json_path = Some(args.value(&arg)?),
            "--seed" => seed = args.num(&arg)?,
            _ => return Err(cli::unknown(&arg)),
        }
    }

    let opts = if quick {
        Options::quick()
    } else {
        Options::default()
    };
    let variant = VariantSpec::default();
    let fault = FaultSpec::off();

    println!(
        "== cmp-bench: {} x {} chips, fir workload at scale {}, seed {} ==",
        CORES.len(),
        BANKS.len(),
        SCALE,
        seed
    );
    println!(
        "  {:<8} {:>6} {:>9} {:>8} {:>9} {:>6} {:>12} {:>11}",
        "chip", "events", "lookups", "beats", "dark", "save%", "median", "events/s"
    );
    let mut cells = Vec::new();
    for cores in CORES {
        for banks in BANKS {
            let spec = spec_at(cores, banks);
            let run = || {
                run_cmp(
                    Kernel::Fir,
                    SCALE,
                    seed,
                    TechNode::T180,
                    &variant,
                    &fault,
                    &spec,
                )
            };
            let summary = run().map_err(|e| format!("{}: {e}", spec.label()))?;
            let timing = benchmark(&spec.label(), &opts, run);
            let report = summary.cmp.as_ref().expect("CMP runs carry a report");
            let save = 100.0 * (1.0 - summary.optimized.as_pj() / summary.baseline.as_pj());
            println!(
                "  c{:<7} {:>6} {:>9} {:>8} {:>9} {:>5.1} {:>12} {:>11.2e}",
                format!("{cores}b{banks}"),
                summary.events,
                report.llc_lookups,
                report.offchip_beats,
                report.dark_banks,
                save,
                format_ns(timing.median_ns),
                timing.elems_per_sec(summary.events),
            );
            cells.push(Cell {
                spec,
                summary,
                timing,
            });
        }
    }

    let Some(path) = json_path else {
        return Ok(());
    };
    let top = BenchRecord {
        counters: JsonObject::new()
            .u64("seed", seed)
            .str("kernel", Kernel::Fir.name())
            .u64("scale", u64::from(SCALE))
            .u64("cells", cells.len() as u64)
            .finish(),
        timings: JsonObject::new().finish(),
    };
    let rows: Vec<BenchRecord> = cells.iter().map(Cell::record).collect();
    cli::write_bench(&path, "cmp-bench", &top, &rows)
}
