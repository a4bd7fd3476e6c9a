//! Golden CMP regression suite: chip-multiprocessor scenarios on fixed
//! seeds must reproduce the exact numbers stored in-tree.
//!
//! The crate-level tests in `lpmem-cmp` and `lpmem-core` check *shapes*
//! (compression helps, dark banks appear under tight budgets, a budget
//! that darkens no bank changes nothing); this suite pins *values*
//! across the public harness — `FlowSpec::run` on a CMP `Scenario` and
//! the `--cmp` sweep axis — so any drift in the interleaver, the NUCA
//! mapping, the LLC codecs, or the dark-silicon gating is a conscious,
//! recorded decision. Every enabled spec, a 1-bank LLC included, runs the
//! shared-LLC simulation; only a disabled spec prices like the
//! single-core flow.
//!
//! To regenerate after an intentional change, run with
//! `LPMEM_GOLDEN_PRINT=1` (e.g. `LPMEM_GOLDEN_PRINT=1 cargo test --test
//! cmp_golden -- --nocapture`) and paste the printed rows over `GOLDEN`.

use lpmem::prelude::*;
use lpmem_bench::experiments::SEED;
use lpmem_bench::sweep::{run_sweep, SweepGrid};

/// One pinned CMP grid point: inputs plus the exact expected outputs.
struct Golden {
    kernel: Kernel,
    scale: u32,
    seed: u64,
    tech: TechNode,
    variant: &'static str,
    fault: &'static str,
    cmp: &'static str,
    events: u64,
    baseline_pj: f64,
    optimized_pj: f64,
    llc_lookups: u64,
    llc_hits: u64,
    llc_compressed: u64,
    offchip_beats: u64,
    dark_banks: u32,
    cmp_cycles: u64,
    /// `[injected, masked, detected, corrected, silent]` of the LLC
    /// campaign; `None` exactly when `fault` is `"off"`.
    reliability: Option<[u64; 5]>,
}

/// The headline quad scenario plus corners covering every LLC codec, a
/// fault campaign, a single-tech partition, and an 8-core chip.
const GOLDEN: &[Golden] = &[
    Golden {
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        cmp: "c4b8x32w4-zrun-t180+t90-p600",
        events: 71559,
        baseline_pj: 10084866.656,
        optimized_pj: 7414218.780592745,
        llc_lookups: 189,
        llc_hits: 80,
        llc_compressed: 57,
        offchip_beats: 2628,
        dark_banks: 2,
        cmp_cycles: 38909,
        reliability: None,
    },
    Golden {
        kernel: Kernel::Dct8,
        scale: 16,
        seed: 42,
        tech: TechNode::T90,
        variant: "tight",
        fault: "secded",
        cmp: "c4b8x32w4-zrun-t180+t90-p600",
        events: 21972,
        baseline_pj: 1580902.4500377006,
        optimized_pj: 1511854.9353459226,
        llc_lookups: 129,
        llc_hits: 35,
        llc_compressed: 41,
        offchip_beats: 1307,
        dark_banks: 5,
        cmp_cycles: 17494,
        reliability: Some([86, 86, 0, 0, 0]),
    },
    Golden {
        kernel: Kernel::Crc32,
        scale: 32,
        seed: SEED,
        tech: TechNode::T130,
        variant: "default",
        fault: "off",
        cmp: "c2b4x16w2-fpc-t130-p300",
        events: 9835,
        baseline_pj: 842868.8400000001,
        optimized_pj: 789180.9745279999,
        llc_lookups: 30,
        llc_hits: 2,
        llc_compressed: 6,
        offchip_beats: 460,
        dark_banks: 0,
        cmp_cycles: 7231,
        reliability: None,
    },
    Golden {
        kernel: Kernel::Histogram,
        scale: 24,
        seed: 7,
        tech: TechNode::T180,
        variant: "default",
        fault: "parity",
        cmp: "c8b8x64w4-diff-t180+t130+t90-p900",
        events: 320383,
        baseline_pj: 69385097.264,
        optimized_pj: 39693401.351296,
        llc_lookups: 864,
        llc_hits: 739,
        llc_compressed: 319,
        offchip_beats: 14448,
        dark_banks: 4,
        cmp_cycles: 190321,
        reliability: Some([1268, 1266, 2, 0, 0]),
    },
];

fn counts(r: &ReliabilityReport) -> [u64; 5] {
    [r.injected, r.masked, r.detected, r.corrected, r.silent]
}

fn run_point(g: &Golden) -> FlowSummary {
    let variant = VariantSpec::parse(g.variant).expect("known variant");
    let fault = FaultSpec::parse(g.fault).expect("known fault spec");
    let cmp = CmpSpec::parse(g.cmp).expect("known cmp spec");
    let scenario = Scenario {
        fault,
        cmp: &cmp,
        ..Scenario::new(g.kernel, g.scale, g.seed, g.tech, &variant)
    };
    FlowSpec::System
        .run(&scenario)
        .unwrap_or_else(|e| panic!("{} failed: {e}", g.cmp))
}

#[test]
fn golden_cmp_values_are_reproduced_exactly() {
    if std::env::var_os("LPMEM_GOLDEN_PRINT").is_some() {
        for g in GOLDEN {
            let s = run_point(g);
            let r = s.cmp.as_ref().expect("CMP run carries a report");
            println!(
                "    Golden {{ kernel: Kernel::{:?}, scale: {}, seed: {}, \
                 tech: TechNode::{:?}, variant: {:?}, fault: {:?}, cmp: {:?}, \
                 events: {}, baseline_pj: {:?}, optimized_pj: {:?}, \
                 llc_lookups: {}, llc_hits: {}, llc_compressed: {}, \
                 offchip_beats: {}, dark_banks: {}, cmp_cycles: {}, \
                 reliability: {:?} }},",
                g.kernel,
                g.scale,
                g.seed,
                g.tech,
                g.variant,
                g.fault,
                g.cmp,
                s.events,
                s.baseline.as_pj(),
                s.optimized.as_pj(),
                r.llc_lookups,
                r.llc_hits,
                r.llc_compressed_lines,
                r.offchip_beats,
                r.dark_banks,
                r.cycles,
                s.reliability.as_ref().map(counts),
            );
        }
        return;
    }
    for g in GOLDEN {
        let s = run_point(g);
        let r = s.cmp.as_ref().expect("CMP run carries a report");
        let label = format!("{}/{}/{}", g.cmp, g.kernel.name(), g.tech.name());
        assert_eq!(s.events, g.events, "{label}: events drifted");
        assert_eq!(
            s.baseline.as_pj(),
            g.baseline_pj,
            "{label}: baseline energy drifted"
        );
        assert_eq!(
            s.optimized.as_pj(),
            g.optimized_pj,
            "{label}: optimized energy drifted"
        );
        assert_eq!(r.llc_lookups, g.llc_lookups, "{label}: LLC lookups drifted");
        assert_eq!(r.llc_hits, g.llc_hits, "{label}: LLC hits drifted");
        assert_eq!(
            r.llc_compressed_lines, g.llc_compressed,
            "{label}: compressed-line count drifted"
        );
        assert_eq!(
            r.offchip_beats, g.offchip_beats,
            "{label}: off-chip beats drifted"
        );
        assert_eq!(r.dark_banks, g.dark_banks, "{label}: dark banks drifted");
        assert_eq!(r.cycles, g.cmp_cycles, "{label}: LLC cycles drifted");
        assert_eq!(
            s.reliability.as_ref().map(counts),
            g.reliability,
            "{label}: reliability counts drifted"
        );
    }
}

/// A small grid mixing disabled, headline, and custom CMP scenarios with
/// a fault axis: the sweep's JSONL report must be byte-identical at 1, 2,
/// and 8 workers.
fn cmp_grid() -> SweepGrid {
    let mut grid = SweepGrid::default_grid(true);
    grid.flows = vec![FlowSpec::System];
    grid.kernels = vec![(Kernel::Fir, 12)];
    grid.techs = vec![TechNode::T180, TechNode::T90];
    grid.variants = vec![VariantSpec::default()];
    grid.faults = vec![
        FaultSpec::off(),
        FaultSpec::parse("secded").expect("known fault spec"),
    ];
    grid.cmps = vec![
        CmpSpec::off(),
        CmpSpec::quad(),
        CmpSpec::parse("c2b4x16w2-fpc-t130-p300").expect("known cmp spec"),
    ];
    grid
}

#[test]
fn cmp_sweep_jsonl_is_byte_identical_at_any_worker_count() {
    let grid = cmp_grid();
    let one = run_sweep(&grid, 1).jsonl();
    let two = run_sweep(&grid, 2).jsonl();
    let eight = run_sweep(&grid, 8).jsonl();
    assert_eq!(one, two, "1 vs 2 workers drifted");
    assert_eq!(one, eight, "1 vs 8 workers drifted");
}

/// CMP counters appear in the JSONL only on scenario rows; disabled rows
/// keep the exact pre-CMP shape.
#[test]
fn cmp_fields_are_conditional_in_the_sweep_report() {
    let jsonl = run_sweep(&cmp_grid(), 2).jsonl();
    let (mut with, mut without) = (0, 0);
    for line in jsonl.lines() {
        if line.contains("\"cmp\":") {
            with += 1;
            assert!(line.contains("\"llc_lookups\":"), "scenario row: {line}");
            assert!(line.contains("\"cmp_cycles\":"), "scenario row: {line}");
        } else {
            without += 1;
            assert!(!line.contains("llc_"), "disabled row: {line}");
        }
    }
    // 2 techs × 2 faults × (2 scenarios + 1 disabled).
    assert_eq!(with, 8);
    assert_eq!(without, 4);
}
