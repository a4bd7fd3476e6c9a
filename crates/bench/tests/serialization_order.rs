//! Insertion-order byte-identity: the serialized artifacts the engines
//! promise to be deterministic must not depend on the order their inputs
//! arrive in. This is the regression net behind lint rule D01 — any path
//! that iterated an unordered map into a report would fail here before it
//! could ship a byte-drifting JSONL.

use lpmem_bench::sweep::{run_sweep, SweepGrid};
use lpmem_energy::AreaReport;
use lpmem_explore::{DesignSpace, Evaluation, Frontier, Objectives};
use lpmem_util::Rng;

/// The explore archive's JSONL dump is byte-identical under any insertion
/// order of the same evaluation set. Objective values are *copied* into
/// the archive (never folded), so this holds exactly, not to rounding.
#[test]
fn frontier_jsonl_is_insertion_order_invariant() {
    let space = DesignSpace::full();
    // A spread of distinct points with coarse objective grids so the set
    // contains dominated, duplicate-objective, and trade-off members.
    let mut evals: Vec<Evaluation> = (0..48)
        .map(|i| Evaluation {
            point: space.point_at((i * 97) % space.len()),
            objectives: Objectives {
                energy_pj: ((i * 7) % 13) as f64,
                area_mm2: ((i * 5) % 11) as f64,
                cycles: ((i * 3) % 17) as u64,
                silent: 0,
            },
            area: AreaReport::new(),
            reliability: None,
            cmp: None,
        })
        .collect();

    let mut reference = Frontier::new();
    for e in &evals {
        reference.insert(e.clone());
    }
    let golden = reference.to_jsonl();
    assert!(!golden.is_empty());

    let mut rng = Rng::seed_from_u64(0x1b_2003);
    for round in 0..16 {
        rng.shuffle(&mut evals);
        let mut frontier = Frontier::new();
        for e in &evals {
            frontier.insert(e.clone());
        }
        assert_eq!(
            frontier.to_jsonl(),
            golden,
            "frontier JSONL diverged on permutation {round}"
        );
    }
}

/// The sweep's per-flow metrics are bit-identical at any worker count.
/// The engine folds them over the results in grid order, so the float
/// energy sums add up in one order; summing per worker and merging would
/// make the low bits depend on which worker claimed which task.
#[test]
fn sweep_metrics_are_bit_identical_at_any_worker_count() {
    let grid = SweepGrid::default_grid(true);
    let reference = run_sweep(&grid, 1).metrics;
    assert_eq!(reference.tasks, grid.len() as u64);
    for workers in [2, 8] {
        let metrics = run_sweep(&grid, workers).metrics;
        assert_eq!(
            metrics.per_flow.keys().collect::<Vec<_>>(),
            reference.per_flow.keys().collect::<Vec<_>>()
        );
        for (flow, fm) in &metrics.per_flow {
            let want = &reference.per_flow[flow];
            assert_eq!(
                (fm.tasks, fm.errors),
                (want.tasks, want.errors),
                "{flow} at {workers} workers"
            );
            assert_eq!(
                fm.baseline_pj.to_bits(),
                want.baseline_pj.to_bits(),
                "{flow} baseline at {workers} workers"
            );
            assert_eq!(
                fm.optimized_pj.to_bits(),
                want.optimized_pj.to_bits(),
                "{flow} optimized at {workers} workers"
            );
        }
    }
}
