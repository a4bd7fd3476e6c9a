//! Golden-value regression suite: every flow run on fixed seeds must
//! reproduce the exact numbers stored in-tree.
//!
//! The end-to-end suite checks *shapes* (savings exist, orderings hold);
//! this suite pins *values*. All flows are pure integer/f64 arithmetic on
//! seeded PRNG streams, and IEEE 754 arithmetic is deterministic, so any
//! drift here means an algorithm changed — which must be a conscious
//! decision, recorded by updating the constants below.
//!
//! To regenerate after an intentional change, run with
//! `LPMEM_GOLDEN_PRINT=1` (e.g. `LPMEM_GOLDEN_PRINT=1 cargo test --test
//! golden -- --nocapture`) and paste the printed rows over `GOLDEN`.

use lpmem::prelude::*;
use lpmem_bench::experiments::SEED;

/// One pinned grid point: inputs plus the exact expected outputs.
struct Golden {
    flow: FlowSpec,
    kernel: Kernel,
    scale: u32,
    seed: u64,
    tech: TechNode,
    variant: &'static str,
    /// Fault-spec label (`FaultSpec::parse` syntax); `"off"` for the
    /// plain path.
    fault: &'static str,
    events: u64,
    baseline_pj: f64,
    optimized_pj: f64,
    /// `[injected, masked, detected, corrected, silent]` of the
    /// campaign; `None` exactly when `fault` is `"off"`.
    reliability: Option<[u64; 5]>,
}

/// Every flow at the harness seed on the default variant, plus a second
/// technology/variant corner for the two cache-platform flows, then every
/// flow again under an accelerated SECDED campaign at 90 nm and one
/// parity corner.
const GOLDEN: &[Golden] = &[
    Golden {
        flow: FlowSpec::Partitioning,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        events: 1584,
        baseline_pj: 128236.77697562754,
        optimized_pj: 26694.919036778538,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Compression,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        events: 3,
        baseline_pj: 473784.32,
        optimized_pj: 428837.12,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::BusCoding,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        events: 8794,
        baseline_pj: 110171.66400000002,
        optimized_pj: 49421.66400000001,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Scheduling,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        events: 128,
        baseline_pj: 998306091.5199997,
        optimized_pj: 773675918.0800002,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::System,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T180,
        variant: "default",
        fault: "off",
        events: 8794,
        baseline_pj: 583955.984,
        optimized_pj: 478897.157312,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Partitioning,
        kernel: Kernel::MatMul,
        scale: 12,
        seed: SEED,
        tech: TechNode::T130,
        variant: "tight",
        fault: "off",
        events: 3600,
        baseline_pj: 155440.043095172,
        optimized_pj: 26387.136000000002,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Compression,
        kernel: Kernel::Dct8,
        scale: 16,
        seed: 42,
        tech: TechNode::T130,
        variant: "tight",
        fault: "off",
        events: 38,
        baseline_pj: 991163.0468040735,
        optimized_pj: 885666.2468040735,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::BusCoding,
        kernel: Kernel::Crc32,
        scale: 32,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "off",
        events: 5644,
        baseline_pj: 15385.75,
        optimized_pj: 6408.5,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Scheduling,
        kernel: Kernel::Fir,
        scale: 48,
        seed: 7,
        tech: TechNode::T90,
        variant: "tight",
        fault: "off",
        events: 128,
        baseline_pj: 560781900.8,
        optimized_pj: 455388505.8746985,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::System,
        kernel: Kernel::Histogram,
        scale: 24,
        seed: 7,
        tech: TechNode::T90,
        variant: "tight",
        fault: "off",
        events: 3463,
        baseline_pj: 613470.324001421,
        optimized_pj: 485399.926001421,
        reliability: None,
    },
    Golden {
        flow: FlowSpec::Partitioning,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "secded",
        events: 1584,
        baseline_pj: 51097.816325209176,
        optimized_pj: 17760.05034559285,
        reliability: Some([24, 24, 0, 0, 0]),
    },
    Golden {
        flow: FlowSpec::Compression,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "secded",
        events: 3,
        baseline_pj: 204914.56,
        optimized_pj: 185630.31999999998,
        reliability: Some([24, 24, 0, 0, 0]),
    },
    Golden {
        flow: FlowSpec::BusCoding,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "secded",
        events: 8794,
        baseline_pj: 21252.25,
        optimized_pj: 10032.46,
        reliability: Some([24, 24, 0, 0, 0]),
    },
    Golden {
        flow: FlowSpec::Scheduling,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "secded",
        events: 128,
        baseline_pj: 428502412.8,
        optimized_pj: 333528664.68,
        reliability: Some([0, 0, 0, 0, 0]),
    },
    Golden {
        flow: FlowSpec::System,
        kernel: Kernel::Fir,
        scale: 48,
        seed: SEED,
        tech: TechNode::T90,
        variant: "default",
        fault: "secded",
        events: 8794,
        baseline_pj: 226166.81,
        optimized_pj: 195286.963,
        reliability: Some([24, 24, 0, 0, 0]),
    },
    Golden {
        flow: FlowSpec::System,
        kernel: Kernel::Histogram,
        scale: 24,
        seed: 7,
        tech: TechNode::T90,
        variant: "tight",
        fault: "parity",
        events: 3463,
        baseline_pj: 613470.324001421,
        optimized_pj: 485480.566001421,
        reliability: Some([20, 20, 0, 0, 0]),
    },
];

fn run_point(g: &Golden) -> FlowSummary {
    let variant = VariantSpec::parse(g.variant).expect("known variant");
    let fault = FaultSpec::parse(g.fault).expect("known fault spec");
    let scenario = Scenario {
        fault,
        ..Scenario::new(g.kernel, g.scale, g.seed, g.tech, &variant)
    };
    g.flow
        .run(&scenario)
        .unwrap_or_else(|e| panic!("{} failed: {e}", g.flow))
}

fn counts(r: &ReliabilityReport) -> [u64; 5] {
    [r.injected, r.masked, r.detected, r.corrected, r.silent]
}

#[test]
fn golden_values_are_reproduced_exactly() {
    if std::env::var_os("LPMEM_GOLDEN_PRINT").is_some() {
        for g in GOLDEN {
            let s = run_point(g);
            println!(
                "    Golden {{ flow: FlowSpec::{:?}, kernel: Kernel::{:?}, scale: {}, \
                 seed: {}, tech: TechNode::{:?}, variant: {:?}, fault: {:?}, events: {}, \
                 baseline_pj: {:?}, optimized_pj: {:?}, reliability: {:?} }},",
                g.flow,
                g.kernel,
                g.scale,
                g.seed,
                g.tech,
                g.variant,
                g.fault,
                s.events,
                s.baseline.as_pj(),
                s.optimized.as_pj(),
                s.reliability.as_ref().map(counts),
            );
        }
        return;
    }
    for g in GOLDEN {
        let s = run_point(g);
        let label = format!(
            "{}/{}/{}/{}/{}",
            g.flow,
            g.kernel.name(),
            g.tech.name(),
            g.variant,
            g.fault
        );
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
        assert_eq!(
            s.reliability.as_ref().map(counts),
            g.reliability,
            "{label}: reliability counts drifted"
        );
    }
}
