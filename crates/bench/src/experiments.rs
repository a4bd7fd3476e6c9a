//! One function per reproduced table/figure (ids match `DESIGN.md` §2).
//!
//! Each also records its table's named shape claims (`EXPERIMENTS.md`'s
//! Shape) from the flow values, never from cells; `repro` checks them.

use lpmem_cluster::{cluster_blocks, ClusterConfig, Objective};
use lpmem_compress::{DiffCodec, FpcCodec, LineCodec, ZeroRunCodec};
use lpmem_core::flows::buscoding::run_buscoding;
use lpmem_core::flows::compression::{
    run_compression_kernel, run_compression_trace, CompressionConfig, CompressionOutcome,
    PlatformKind,
};
use lpmem_core::flows::partitioning::{
    run_partitioning, run_partitioning_sleep, PartitioningConfig,
};
use lpmem_core::flows::scheduling::{self, default_platform, dsp_pipeline_app, run_scheduling};
use lpmem_core::flows::system::run_system;
use lpmem_core::workloads::{composite_suite, kernel_trace_and_image, scattered_suite};
use lpmem_energy::Technology;
use lpmem_isa::Kernel;
use lpmem_mem::FlatMemory;
use lpmem_partition::{greedy_partition, optimal_partition, Partition, PartitionCost};
use lpmem_sched::SchedPlatform;
use lpmem_trace::{BlockProfile, Trace};

use crate::Table;

/// Seed shared by all experiments (results are fully deterministic).
pub const SEED: u64 = 2003;

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The largest of `xs`, or 0 when every value is negative.
fn peak(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0, f64::max)
}

/// Whether some point of a sweep is strictly `better` than both of its
/// end points, i.e. the sweep's optimum lies strictly inside it.
fn interior_optimum<T: Copy>(xs: &[T], better: impl Fn(T, T) -> bool) -> bool {
    let (first, last) = (xs[0], xs[xs.len() - 1]);
    xs.iter().any(|&x| better(x, first) && better(x, last))
}

/// T1 workload suites: composite embedded applications (kernel phases
/// with a linker-interleaved object layout) and the scattered synthetic
/// profiles — the workload class of the 1B.1 evaluation.
fn t1_suites() -> [(&'static str, Vec<(String, Trace)>); 2] {
    let composite = composite_suite(SEED).expect("kernels are self-verifying");
    let scattered = scattered_suite(SEED);
    [("composite", composite), ("scattered", scattered)]
}

/// The workloads of both T1 suites, in table order.
fn t1_workloads() -> Vec<(String, Trace)> {
    t1_suites().into_iter().flat_map(|(_, s)| s).collect()
}

/// Kernel scales used by the compression experiments: large enough that
/// the working set exceeds the 4 KiB D-cache and produces capacity
/// write-back traffic (the regime the 1B.2 paper evaluates).
fn t2_kernels() -> Vec<(Kernel, u32)> {
    vec![
        (Kernel::MatMul, 24),
        (Kernel::Fir, 640),
        (Kernel::Dct8, 160),
        (Kernel::Histogram, 320),
        (Kernel::BubbleSort, 512),
        (Kernel::RleEncode, 320),
        (Kernel::Conv2d, 48),
    ]
}

/// The compression flow on the VLIW platform over a kernel's captured
/// trace and the memory image it ran against.
fn vliw_compression(
    kernel: Kernel,
    (trace, image): &(Trace, FlatMemory),
    codec: &dyn LineCodec,
    cfg: &CompressionConfig,
) -> CompressionOutcome {
    let (name, tech) = (kernel.name(), PlatformKind::VliwLike.technology());
    run_compression_trace(name, "vliw-lx", trace, image.clone(), codec, cfg, &tech).expect("flow")
}

/// **T1** — 1B.1 headline: energy of monolithic vs. partitioned vs.
/// partitioned-with-clustering data memory.
pub fn t1() -> Table {
    let tech = Technology::tech180();
    let cfg = PartitioningConfig::default();
    let mut table = Table::new(
        "T1",
        "memory partitioning with address clustering (0.18um, <=8 banks, 2 KiB blocks)",
        "avg 25% (max 57%) energy reduction vs partitioning without clustering",
        vec![
            "workload",
            "monolithic",
            "partitioned",
            "clustered",
            "banks",
            "reduction",
        ],
    );
    let mut reductions = Vec::new();
    for (suite, workloads) in t1_suites() {
        let mut ordered = true;
        let mut ours = Vec::new();
        for (name, trace) in workloads {
            let out = run_partitioning(&name, &trace, &cfg, &tech).expect("flow");
            ordered &= out.clustered <= out.partitioned && out.partitioned <= out.monolithic;
            ours.push(out.reduction_vs_partitioned());
            table.push_row(vec![
                name,
                out.monolithic.to_string(),
                out.partitioned.to_string(),
                out.clustered.to_string(),
                format!("{}", out.clustered_banks),
                pct(out.reduction_vs_partitioned()),
            ]);
        }
        let (avg, max) = (mean(&ours), peak(&ours));
        let ordering = format!("{suite}: clustered <= partitioned <= monolithic everywhere");
        table.claim(ordering, ordered);
        table.claim(format!("{suite}: average reduction > 10%"), avg > 0.10);
        table.claim(format!("{suite}: maximum reduction > 35%"), max > 0.35);
        reductions.extend(ours);
    }
    table.note(format!(
        "average reduction {} | maximum {}",
        pct(mean(&reductions)),
        pct(peak(&reductions))
    ));
    table
}

/// **F1a** — energy vs. maximum bank count, with and without clustering.
pub fn f1a() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "F1a",
        "energy vs max bank count (scatter-medium workload)",
        "partitioning saturates with bank count; clustering shifts the whole curve down",
        vec!["max_banks", "partitioned", "clustered", "reduction"],
    );
    let (_, trace) = scattered_suite(SEED).remove(1);
    let mut below = true;
    let mut partitioned = Vec::new();
    for max_banks in [1usize, 2, 4, 6, 8, 12, 16] {
        let cfg = PartitioningConfig {
            max_banks,
            ..Default::default()
        };
        let out = run_partitioning("scatter-medium", &trace, &cfg, &tech).expect("flow");
        below &= out.clustered <= out.partitioned;
        partitioned.push(out.partitioned);
        table.push_row(vec![
            max_banks.to_string(),
            out.partitioned.to_string(),
            out.clustered.to_string(),
            pct(out.reduction_vs_partitioned()),
        ]);
    }
    let falls = partitioned.windows(2).all(|w| w[1] <= w[0]);
    table.claim("clustered <= partitioned at every bank count", below);
    table.claim("partitioned is non-increasing in bank count", falls);
    table
}

/// **F1b** — clustering gain vs. profile block granularity.
pub fn f1b() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "F1b",
        "clustering gain vs block granularity (scatter-medium workload)",
        "finer blocks expose more scatter for clustering, until table overhead bites",
        vec![
            "block_bytes",
            "blocks",
            "partitioned",
            "clustered",
            "reduction",
        ],
    );
    let (_, trace) = scattered_suite(SEED).remove(1);
    let mut gain = f64::NAN;
    for block_size in [256u64, 512, 1024, 2048, 4096, 8192, 16384] {
        let cfg = PartitioningConfig {
            block_size,
            ..Default::default()
        };
        let out = run_partitioning("scatter-medium", &trace, &cfg, &tech).expect("flow");
        gain = out.reduction_vs_partitioned();
        table.push_row(vec![
            block_size.to_string(),
            out.blocks.to_string(),
            out.partitioned.to_string(),
            out.clustered.to_string(),
            pct(out.reduction_vs_partitioned()),
        ]);
    }
    table.claim("the gain is 0 at the coarsest blocks", gain == 0.0);
    table
}

/// **T2** — 1B.2 headline: total memory-system energy saving from
/// write-back compression on the two platform presets.
pub fn t2() -> Table {
    let mut table = Table::new(
        "T2",
        "write-back data compression (diff codec, 4 KiB write-back D-cache)",
        "energy savings 10-22% on the VLIW (Lx) platform, 11-14% on the RISC (MIPS) platform",
        vec![
            "workload",
            "platform",
            "wb lines",
            "compressed",
            "beats raw",
            "beats",
            "saving",
        ],
    );
    // Per platform: name, the floor every saving must clear, savings.
    let mut per_platform = [("vliw-lx", 0.05, vec![]), ("risc-mips", 0.02, vec![])];
    let codec = DiffCodec::new();
    for (kernel, scale) in t2_kernels() {
        for (pi, platform) in [PlatformKind::VliwLike, PlatformKind::RiscLike]
            .into_iter()
            .enumerate()
        {
            let out = run_compression_kernel(kernel, scale, SEED, platform, &codec).expect("flow");
            per_platform[pi].2.push(out.energy_saving());
            table.push_row(vec![
                kernel.name().to_owned(),
                platform.name().to_owned(),
                out.lines.to_string(),
                out.compressed_lines.to_string(),
                out.raw_beats.to_string(),
                out.actual_beats.to_string(),
                pct(out.energy_saving()),
            ]);
        }
    }
    let mut averages = Vec::new();
    for (name, floor, savings) in per_platform {
        let avg = mean(&savings);
        let lo = savings.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = savings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        table.note(format!(
            "{name}: savings {}..{} (avg {})",
            pct(lo),
            pct(hi),
            pct(avg)
        ));
        table.claim(format!("every {name} saving > {}", pct(floor)), lo > floor);
        averages.push(avg);
    }
    let vliw_leads = averages[0] > averages[1];
    table.claim("vliw-lx average saving > risc-mips average", vliw_leads);
    table
}

/// **F2a** — compression saving vs. D-cache capacity (VLIW platform).
pub fn f2a() -> Table {
    let mut table = Table::new(
        "F2a",
        "compression saving vs D-cache capacity (fir, dct8; vliw platform)",
        "smaller caches -> more write-back traffic -> larger savings",
        vec!["cache KiB", "fir saving", "dct8 saving"],
    );
    let codec = DiffCodec::new();
    let runs = [(Kernel::Fir, 640u32), (Kernel::Dct8, 160)]
        .map(|(k, scale)| (k, kernel_trace_and_image(k, scale, SEED).expect("kernel")));
    let mut savings = [Vec::new(), Vec::new()];
    for kib in [1u64, 2, 4, 8, 16, 32] {
        let mut cfg = CompressionConfig::for_platform(PlatformKind::VliwLike);
        cfg.cache = lpmem_mem::CacheConfig::new(kib << 10, 64, 2).expect("geometry");
        let mut row = vec![kib.to_string()];
        for ((kernel, run), series) in runs.iter().zip(&mut savings) {
            let out = vliw_compression(*kernel, run, &codec, &cfg);
            series.push(out.energy_saving());
            row.push(pct(out.energy_saving()));
        }
        table.push_row(row);
    }
    let falls = savings.iter().all(|s| s.windows(2).all(|w| w[1] <= w[0]));
    table.claim("both savings are non-increasing in cache size", falls);
    table
}

/// **F2b** — distribution of stored write-back sizes (beats) per kernel.
pub fn f2b() -> Table {
    let mut table = Table::new(
        "F2b",
        "stored write-back size distribution (vliw platform, 16-beat lines)",
        "compressible kernels concentrate well below the 16-beat raw line size",
        vec!["workload", "<=4", "5-8", "9-12", "13-15", "16 (raw)"],
    );
    let codec = DiffCodec::new();
    let mut most_below = true;
    for (kernel, scale) in t2_kernels() {
        let out = run_compression_kernel(kernel, scale, SEED, PlatformKind::VliwLike, &codec)
            .expect("flow");
        let h = &out.size_histogram;
        let bucket = |lo: usize, hi: usize| -> u64 {
            (lo..=hi).map(|b| h.get(b).copied().unwrap_or(0)).sum()
        };
        let raw = bucket(16, h.len().saturating_sub(1).max(16));
        most_below &= 2 * raw < h.iter().sum::<u64>();
        table.push_row(vec![
            kernel.name().to_owned(),
            bucket(0, 4).to_string(),
            bucket(5, 8).to_string(),
            bucket(9, 12).to_string(),
            bucket(13, 15).to_string(),
            raw.to_string(),
        ]);
    }
    table.claim("every kernel stores most lines below 16 beats", most_below);
    table
}

/// **T3** — 1B.3 headline: instruction-bus transition reduction.
pub fn t3() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "T3",
        "instruction-bus functional encoding (4 reprogrammable regions)",
        "transition reductions up to ~50% (\"up to half of the original transitions\")",
        vec![
            "workload",
            "fetches",
            "raw",
            "encoded",
            "businvert",
            "xor red.",
            "bi red.",
        ],
    );
    let mut reductions = Vec::new();
    let mut beats_bi = true;
    for &kernel in &Kernel::ALL {
        let run = kernel.run(kernel.default_scale(), SEED).expect("kernel");
        let out = run_buscoding(kernel.name(), &run.trace, 4, &tech).expect("flow");
        reductions.push(out.reduction());
        beats_bi &= out.encoded_transitions < out.businvert_transitions;
        table.push_row(vec![
            kernel.name().to_owned(),
            out.fetches.to_string(),
            out.raw_transitions.to_string(),
            out.encoded_transitions.to_string(),
            out.businvert_transitions.to_string(),
            pct(out.reduction()),
            pct(out.businvert_reduction()),
        ]);
    }
    table.note(format!(
        "average reduction {} | maximum {}",
        pct(mean(&reductions)),
        pct(peak(&reductions))
    ));
    let all_cut = reductions.iter().all(|&r| r > 0.40);
    table.claim("every kernel reduces transitions by > 40%", all_cut);
    table.claim("encoded < bus-invert on every kernel", beats_bi);
    table
}

/// **F3a** — transition reduction vs. number of reprogrammable regions.
pub fn f3a() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "F3a",
        "transition reduction vs number of regions (matmul, crc32)",
        "more regions track code phases better, with diminishing returns",
        vec!["regions", "matmul red.", "crc32 red."],
    );
    let runs: Vec<_> = [Kernel::MatMul, Kernel::Crc32]
        .iter()
        .map(|&k| k.run(k.default_scale(), SEED).expect("kernel"))
        .collect();
    let mut reductions = vec![Vec::new(); runs.len()];
    for regions in [1usize, 2, 4, 8, 16] {
        let mut row = vec![regions.to_string()];
        for (run, series) in runs.iter().zip(&mut reductions) {
            let out = run_buscoding(run.kernel.name(), &run.trace, regions, &tech).expect("flow");
            series.push(out.reduction());
            row.push(pct(out.reduction()));
        }
        table.push_row(row);
    }
    let interior = reductions.iter().all(|s| interior_optimum(s, |a, b| a > b));
    table.claim("each kernel's best region count is interior", interior);
    table
}

/// **F3b** — address-bus encodings on the instruction fetch address
/// stream: binary vs Gray vs T0 (the classic low-power address codes, as
/// baselines for the data-bus study).
pub fn f3b() -> Table {
    let mut table = Table::new(
        "F3b",
        "instruction ADDRESS bus (word addresses): binary vs gray vs T0",
        "gray cuts sequential-run transitions; T0 nearly eliminates them",
        vec!["workload", "binary", "gray", "t0", "gray red.", "t0 red."],
    );
    let (mut gray_wins, mut t0_wins) = (true, true);
    for &kernel in &Kernel::ALL {
        let run = kernel.run(kernel.default_scale(), SEED).expect("kernel");
        // The fetch bus drives word addresses (instructions are aligned).
        let addrs: Vec<u32> = run
            .trace
            .fetches_only()
            .iter()
            .map(|e| (e.addr >> 2) as u32)
            .collect();
        let bin = lpmem_buscode::addrbus::binary_transitions(&addrs);
        let gray = lpmem_buscode::addrbus::gray_transitions(&addrs);
        let t0 = lpmem_buscode::addrbus::T0Encoder::transitions(1, &addrs);
        gray_wins &= gray < bin;
        t0_wins &= t0 < gray;
        let red = |x: u64| {
            if bin == 0 {
                0.0
            } else {
                1.0 - x as f64 / bin as f64
            }
        };
        table.push_row(vec![
            kernel.name().to_owned(),
            bin.to_string(),
            gray.to_string(),
            t0.to_string(),
            pct(red(gray)),
            pct(red(t0)),
        ]);
    }
    table.claim("gray < binary on every kernel", gray_wins);
    table.claim("T0 < gray on every kernel", t0_wins);
    table
}

/// **T4** — 1B.4 headline: two-level data scheduling energy.
pub fn t4() -> Table {
    let tech = Technology::tech180();
    let platform = default_platform(&tech);
    let mut table = Table::new(
        "T4",
        "two-level data scheduling (1 KiB L0 + 16 KiB L1, 32-frame loop)",
        "scheduler cuts application energy incl. reconfiguration energy vs naive placement",
        vec![
            "app",
            "external",
            "naive",
            "greedy",
            "saving",
            "reconfig saving",
        ],
    );
    let mut savings = Vec::new();
    let (mut ordered, mut paid) = (true, false);
    for seed in 0..6u64 {
        let app = dsp_pipeline_app(4, 32, seed).expect("builder");
        let out = run_scheduling(&format!("dsp-{seed}"), &app, &platform).expect("flow");
        ordered &= out.greedy <= out.naive && out.greedy < out.external_only;
        savings.push(out.saving_vs_naive());
        paid |= out.reconfig_saving() > 0.30;
        table.push_row(vec![
            out.name.clone(),
            out.external_only.to_string(),
            out.naive.to_string(),
            out.greedy.to_string(),
            pct(out.saving_vs_naive()),
            pct(out.reconfig_saving()),
        ]);
    }
    let avg = mean(&savings);
    table.note(format!("average saving vs naive {}", pct(avg)));
    table.claim("greedy <= naive, greedy < external on every app", ordered);
    table.claim("average saving > 5%", avg > 0.05);
    table.claim("some reconfiguration saving > 30%", paid);
    table
}

/// **F4a** — scheduling energy vs. L0 capacity.
pub fn f4a() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "F4a",
        "greedy scheduling energy vs L0 capacity (dsp-1 app)",
        "larger L0 captures more hot arrays until the working set is covered",
        vec!["L0 bytes", "greedy", "saving vs naive"],
    );
    let app = dsp_pipeline_app(4, 32, 1).expect("builder");
    let mut greedy = Vec::new();
    for l0 in [256u64, 512, 1024, 2048, 4096] {
        let platform = SchedPlatform::new(&tech, l0, scheduling::L1_BYTES);
        let out = run_scheduling("dsp-1", &app, &platform).expect("flow");
        greedy.push(out.greedy);
        table.push_row(vec![
            l0.to_string(),
            out.greedy.to_string(),
            pct(out.saving_vs_naive()),
        ]);
    }
    let interior = interior_optimum(&greedy, |a, b| a < b);
    table.claim("the greedy optimum is at an interior L0 size", interior);
    table
}

/// **A1** — ablation: clustering objective (frequency-only vs.
/// frequency+affinity).
pub fn a1() -> Table {
    let tech = Technology::tech180();
    let mut table = Table::new(
        "A1",
        "clustering objective ablation (reduction vs plain partitioning, raw objectives)",
        "under the profile-only model the affinity chain can cost a little dynamic \
energy (it buys sleep instead, see A4); the T1 flow keeps the cheaper of the two",
        vec!["workload", "freq-only", "freq+affinity"],
    );
    for (name, trace) in t1_workloads() {
        let mut row = vec![name.clone()];
        for objective in [Objective::FrequencyOnly, Objective::FrequencyAffinity] {
            let cfg = PartitioningConfig {
                cluster: ClusterConfig {
                    objective,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = run_partitioning(&name, &trace, &cfg, &tech).expect("flow");
            row.push(pct(out.reduction_vs_partitioned()));
        }
        table.push_row(row);
    }
    table
}

/// **A2** — ablation: codec comparison on write-back streams.
///
/// The saving is `1 − Σ i·h[i] / (lines × line beats)` over each codec's
/// stored-size histogram `h`: write-back beats only, without the refill
/// credit T2 also counts.
pub fn a2() -> Table {
    let codecs: [&dyn LineCodec; 3] = [&DiffCodec::new(), &ZeroRunCodec::new(), &FpcCodec::new()];
    let mut header = vec!["workload"];
    header.extend(codecs.map(|c| c.name()));
    let mut table = Table::new(
        "A2",
        "codec ablation: fraction of write-back beats eliminated (vliw platform)",
        "the differential codec should dominate zero-elimination and FPC on signal data",
        header,
    );
    let cfg = CompressionConfig::for_platform(PlatformKind::VliwLike);
    let line_beats = cfg.cache.line_bytes() as u64 / 4;
    let mut zero_trails = true;
    for (kernel, scale) in t2_kernels() {
        let run = kernel_trace_and_image(kernel, scale, SEED).expect("kernel");
        let [diff, zero, fpc] = codecs.map(|codec| {
            let out = vliw_compression(kernel, &run, codec, &cfg);
            let stored: u64 = (0u64..).zip(&out.size_histogram).map(|(i, n)| i * n).sum();
            1.0 - stored as f64 / (out.lines * line_beats) as f64
        });
        zero_trails &= zero < diff.max(fpc);
        table.push_row(vec![
            kernel.name().to_owned(),
            pct(diff),
            pct(zero),
            pct(fpc),
        ]);
    }
    table.claim("zero-elimination never leads", zero_trails);
    table
}

/// **A3** — ablation: DP-optimal vs. greedy partitioning quality.
pub fn a3() -> Table {
    let tech = Technology::tech180();
    let cost = PartitionCost::new(&tech);
    let mut table = Table::new(
        "A3",
        "partitioning algorithm ablation (energy)",
        "DP is exact; greedy should be close but never better",
        vec!["workload", "monolithic", "greedy", "optimal"],
    );
    let mut dp_wins = true;
    for (name, trace) in t1_workloads() {
        let data = trace.data_only();
        let profile = BlockProfile::from_trace(&data, 2048).expect("profile");
        let mono = cost.evaluate(&profile, &Partition::monolithic(profile.num_blocks()));
        let (_, greedy) = greedy_partition(&profile, 8, &cost);
        let (_, optimal) = optimal_partition(&profile, 8, &cost);
        dp_wins &= optimal.total().as_pj() <= greedy.total().as_pj() + 1e-6;
        table.push_row(vec![
            name,
            mono.total().to_string(),
            greedy.total().to_string(),
            optimal.total().to_string(),
        ]);
    }
    table.claim("DP never loses to greedy", dp_wins);
    table
}

/// **F2c** — compression saving vs. hardware threshold (fraction of a line
/// an encoding must fit in to be stored compressed).
pub fn f2c() -> Table {
    let mut table = Table::new(
        "F2c",
        "compression saving vs threshold (dct8, vliw platform)",
        "strict half-line slots (0.5, the paper's layout) trade saving for simplicity",
        vec!["threshold", "compressed lines", "beats", "saving"],
    );
    let codec = DiffCodec::new();
    let run = kernel_trace_and_image(Kernel::Dct8, 160, SEED).expect("kernel");
    let mut savings = Vec::new();
    for threshold in [0.25f64, 0.5, 0.625, 0.75, 0.875, 1.0] {
        let mut cfg = CompressionConfig::for_platform(PlatformKind::VliwLike);
        cfg.threshold = threshold;
        let out = vliw_compression(Kernel::Dct8, &run, &codec, &cfg);
        savings.push(out.energy_saving());
        table.push_row(vec![
            format!("{threshold:.3}"),
            out.compressed_lines.to_string(),
            out.actual_beats.to_string(),
            pct(out.energy_saving()),
        ]);
    }
    let rises = savings.windows(2).all(|w| w[0] <= w[1]);
    let half_is_max = savings[1] >= peak(&savings); // savings[1]: threshold 0.5
    table.claim("saving is non-decreasing in threshold", rises);
    table.claim("threshold 0.5 already reaches the maximum", half_is_max);
    table
}

/// **A4** — sleep-aware clustering comparison at the leakage-dominated
/// 90 nm node: with bank power gating, the *temporal* affinity objective
/// matters (it is invisible to the profile-only model of T1/A1).
pub fn a4() -> Table {
    let tech = Technology::tech90();
    let cfg = PartitioningConfig::default();
    let mut table = Table::new(
        "A4",
        "sleep-aware evaluation at 90nm: plain vs freq-only vs affinity clustering (timeout 64)",
        "with power gating, grouping co-accessed blocks lets other banks sleep; \
affinity must beat frequency-only on phase-scattered, heat-uniform workloads",
        vec![
            "workload",
            "partitioned",
            "freq-only",
            "affinity",
            "freq red.",
            "affinity red.",
            "sleep frac",
        ],
    );
    // Phase-scattered workloads: uniform heat, phase-local working sets.
    let mut workloads: Vec<(String, Trace)> = [(4usize, 4usize), (6, 3), (3, 6)]
        .iter()
        .map(|&(phases, bpp)| {
            let t: Trace = lpmem_trace::gen::PhaseScatterGen::new(phases, bpp, 2_000)
                .seed(SEED)
                .events(80_000)
                .collect();
            (format!("phase-scatter-{phases}x{bpp}"), t)
        })
        .collect();
    workloads.extend(t1_workloads().into_iter().take(4)); // composite apps
    let mut wins = true;
    for (name, trace) in workloads {
        let out = run_partitioning_sleep(&name, &trace, &cfg, &tech, 64).expect("flow");
        wins &= !name.starts_with("phase-scatter") || out.affinity < out.freq_only;
        table.push_row(vec![
            name,
            out.partitioned.to_string(),
            out.freq_only.to_string(),
            out.affinity.to_string(),
            pct(out.freq_only_reduction()),
            pct(out.affinity_reduction()),
            format!("{:.2}", out.sleep_fractions[2]),
        ]);
    }
    table.claim("affinity beats freq-only on every phase-scatter", wins);
    table
}

/// **A5** — the silicon cost of the energy savings: area of the monolith
/// vs. the partitioned design vs. the clustered design (banks + relocation
/// table).
pub fn a5() -> Table {
    let tech = Technology::tech180();
    let cfg = PartitioningConfig::default();
    let cost = PartitionCost::new(&tech);
    let mut table = Table::new(
        "A5",
        "area cost of partitioning + clustering (mm², 0.18um)",
        "banking multiplies periphery; the relocation table is negligible next to the banks",
        vec![
            "workload",
            "mono mm2",
            "banked mm2",
            "+table mm2",
            "area ovhd",
            "energy red.",
        ],
    );
    let mut negligible = true;
    for (name, trace) in t1_workloads() {
        let data = trace.data_only();
        let profile = BlockProfile::from_trace(&data, cfg.block_size).expect("profile");
        let mono = cost
            .area_report(&profile, &Partition::monolithic(profile.num_blocks()))
            .total_mm2();
        let map = cluster_blocks(&profile, Some(&data), &cfg.cluster);
        let remapped = map.apply(&profile).expect("bijection");
        let (part, _) = optimal_partition(&remapped, cfg.max_banks, &cost);
        let mut clustered_area = cost.area_report(&remapped, &part);
        let banked = clustered_area.total_mm2();
        clustered_area.add("relocation.table", map.table_area_mm2(&tech));
        let with_table = clustered_area.total_mm2();
        negligible &= with_table - banked < 0.01 * banked;
        let out = run_partitioning(&name, &trace, &cfg, &tech).expect("flow");
        table.push_row(vec![
            name,
            format!("{mono:.3}"),
            format!("{banked:.3}"),
            format!("{with_table:.4}"),
            pct(with_table / mono - 1.0),
            pct(out.reduction_vs_monolithic()),
        ]);
    }
    table.claim("the relocation table is < 1% of banked area", negligible);
    table
}

/// **SYS** — capstone: instruction-bus encoding and write-back
/// compression applied to the same platform, per kernel.
pub fn sys() -> Table {
    let mut table = Table::new(
        "SYS",
        "whole-system capstone: bus encoding + write-back compression together (vliw)",
        "the session's techniques compose: combined saving exceeds either alone",
        vec![
            "workload",
            "baseline",
            "optimized",
            "ibus red.",
            "combined saving",
        ],
    );
    let codec = DiffCodec::new();
    let mut savings = Vec::new();
    let mut pays = true;
    for (kernel, scale) in t2_kernels() {
        let out = run_system(kernel, scale, SEED, PlatformKind::VliwLike, &codec, 4).expect("flow");
        savings.push(out.saving());
        // The optimized report is compression's plus the encoded bus and its
        // gates, so a net ibus saving means combined beats compression alone.
        pays &= out.baseline.component("ibus")
            > out.optimized.component("ibus") + out.optimized.component("ibus.codec");
        table.push_row(vec![
            kernel.name().to_owned(),
            out.baseline.total().to_string(),
            out.optimized.total().to_string(),
            pct(out.ibus_saving()),
            pct(out.saving()),
        ]);
    }
    table.note(format!(
        "average combined memory-system saving {}",
        pct(mean(&savings))
    ));
    table.claim("ibus saving net of ibus.codec > 0 on every kernel", pays);
    let all_save = savings.iter().all(|&s| s > 0.0);
    table.claim("combined saving > 0 on every kernel", all_save);
    table
}

/// Builds one experiment's table, with its claims.
pub type Experiment = fn() -> Table;

/// Every experiment as `(id, function)`, in `repro` order.
pub const EXPERIMENTS: [(&str, Experiment); 18] = [
    ("t1", t1),
    ("f1a", f1a),
    ("f1b", f1b),
    ("t2", t2),
    ("f2a", f2a),
    ("f2b", f2b),
    ("f2c", f2c),
    ("t3", t3),
    ("f3a", f3a),
    ("f3b", f3b),
    ("t4", t4),
    ("f4a", f4a),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
    ("a4", a4),
    ("a5", a5),
    ("sys", sys),
];

/// Runs one experiment by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Table> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(id))?;
    Some(run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_are_unique_and_known() {
        let set: std::collections::HashSet<_> = EXPERIMENTS.iter().map(|(id, _)| id).collect();
        assert_eq!(set.len(), EXPERIMENTS.len());
        assert!(by_id("nonsense").is_none());
        assert!(by_id("T4").is_some(), "lookup is case-insensitive");
    }
}
