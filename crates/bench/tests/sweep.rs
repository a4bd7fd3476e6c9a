//! Integration tests for the sweep engine: the JSON-lines report must be
//! byte-identical at any worker count, and the report must stay in grid
//! order with metrics that account for every task.

use lpmem_bench::sweep::{run_sweep, SweepGrid};
use lpmem_core::flows::{CmpSpec, FaultSpec, FlowSpec, Protection, TechNode, VariantSpec};
use lpmem_isa::Kernel;

/// A grid small enough for test time but covering every flow and both
/// variants, so worker interleaving has real work to scramble.
fn small_grid() -> SweepGrid {
    SweepGrid {
        flows: FlowSpec::ALL.to_vec(),
        kernels: vec![(Kernel::Fir, 24), (Kernel::Dct8, 8)],
        techs: vec![TechNode::T180, TechNode::T90],
        variants: vec![VariantSpec::default(), VariantSpec::tight()],
        faults: vec![FaultSpec::off()],
        cmps: vec![CmpSpec::off()],
        base_seed: 2003,
    }
}

#[test]
fn jsonl_is_byte_identical_at_any_worker_count() {
    let grid = small_grid();
    let single = run_sweep(&grid, 1).jsonl();
    for workers in [2, 8] {
        let parallel = run_sweep(&grid, workers).jsonl();
        assert_eq!(single, parallel, "JSONL diverged at {workers} workers");
    }
    assert_eq!(single.lines().count(), grid.len());
    // Every line is a self-contained JSON object.
    for line in single.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
}

#[test]
fn report_is_in_grid_order_with_complete_metrics() {
    let grid = small_grid();
    let report = run_sweep(&grid, 4);
    assert_eq!(report.results.len(), grid.len());
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.task.index, i, "results not in grid order");
    }
    // No flow in this grid fails, and the metrics account for every task.
    assert_eq!(report.metrics.errors, 0);
    assert_eq!(report.metrics.tasks as usize, grid.len());
    let per_flow_tasks: u64 = report.metrics.per_flow.values().map(|f| f.tasks).sum();
    assert_eq!(per_flow_tasks as usize, grid.len());
    // The rendered table carries every flow of the run.
    assert_eq!(report.table().rows.len(), report.metrics.per_flow.len());
}

#[test]
fn base_seed_threads_through_to_every_task() {
    // A different base seed rederives every task seed, so the JSONL
    // changes — while each run stays internally deterministic.
    let grid = small_grid();
    let reseeded = SweepGrid {
        base_seed: 7,
        ..small_grid()
    };
    let a = run_sweep(&grid, 2).jsonl();
    let b = run_sweep(&reseeded, 2).jsonl();
    assert_ne!(a, b, "base_seed did not reach the task seeds");
    assert_eq!(a, run_sweep(&grid, 1).jsonl());
    assert_eq!(b, run_sweep(&reseeded, 1).jsonl());
}

/// The small grid expanded along the reliability axis: every protection
/// under an accelerated fault rate, plus the disabled baseline.
fn fault_grid() -> SweepGrid {
    SweepGrid {
        faults: vec![
            FaultSpec::off(),
            FaultSpec::accelerated(Protection::None),
            FaultSpec::accelerated(Protection::Parity),
            FaultSpec::accelerated(Protection::Secded),
        ],
        ..small_grid()
    }
}

#[test]
fn fault_campaign_jsonl_is_byte_identical_at_any_worker_count() {
    let grid = fault_grid();
    let single = run_sweep(&grid, 1).jsonl();
    for workers in [2, 8] {
        let parallel = run_sweep(&grid, workers).jsonl();
        assert_eq!(
            single, parallel,
            "fault JSONL diverged at {workers} workers"
        );
    }
    assert_eq!(single.lines().count(), grid.len());
    // Fault-enabled rows carry the reliability fields; the off rows don't.
    assert!(single.lines().any(|l| l.contains("\"fault\":\"secded:")));
    assert!(single
        .lines()
        .filter(|l| !l.contains("\"fault\""))
        .all(|l| !l.contains("\"injected\"")));
}

#[test]
fn disabled_fault_axis_reproduces_the_plain_grid_bytes() {
    // Rows of the expanded grid with the `off` spec must equal the plain
    // grid's rows, modulo the task index renumbering the wider axis
    // causes — so compare with indexes stripped.
    let plain = run_sweep(&small_grid(), 2);
    let expanded = run_sweep(&fault_grid(), 2);
    let strip = |line: &str| -> String {
        let rest = line.split_once(",\"flow\"").expect("task field first").1;
        format!("{{\"flow\"{rest}")
    };
    let plain_rows: Vec<String> = plain.jsonl().lines().map(strip).collect();
    let off_rows: Vec<String> = expanded
        .results
        .iter()
        .filter(|r| !r.task.fault.enabled())
        .map(|r| strip(&r.json_line()))
        .collect();
    assert_eq!(plain_rows, off_rows);
}

#[test]
fn protections_share_the_workload_seed() {
    // The fault axis must not reseed the workload: all four fault specs
    // of a grid point see the same task seed and the same events.
    let report = run_sweep(&fault_grid(), 4);
    for chunk in report.results.chunks(4) {
        let seeds: Vec<u64> = chunk.iter().map(|r| r.task.seed).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]), "{seeds:?}");
        let events: Vec<u64> = chunk
            .iter()
            .map(|r| r.outcome.as_ref().expect("flow ran").events)
            .collect();
        assert!(events.windows(2).all(|w| w[0] == w[1]), "{events:?}");
    }
}

#[test]
fn worker_count_never_changes_results_only_timings() {
    let grid = small_grid();
    let a = run_sweep(&grid, 1);
    let b = run_sweep(&grid, 8);
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.task, rb.task);
        assert_eq!(ra.outcome, rb.outcome);
        // wall_ns may differ — that is the point of keeping timings out
        // of the JSONL schema.
    }
    assert_eq!(a.metrics.tasks, b.metrics.tasks);
    assert_eq!(a.metrics.errors, b.metrics.errors);
}
