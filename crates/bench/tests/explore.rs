//! Integration tests for the design-space explorer: frontier JSONL must
//! be byte-identical at any worker count, the evolutionary search must
//! agree with exhaustive enumeration on spaces it can exhaust (DSE-2),
//! and no frontier point may be dominated by any configuration the sweep
//! grid already runs (DSE-1).

use lpmem_bench::sweep::SweepGrid;
use lpmem_core::flows::FaultSpec;
use lpmem_explore::{
    DesignPoint, DesignSpace, Evaluator, Evolutionary, Exhaustive, SearchConfig, SearchStrategy,
    Workload,
};

/// A workload small enough for test time; identical across every test so
/// the evaluator's memoized sub-flows behave exactly as in one process.
fn tiny_workload() -> Workload {
    Workload {
        scale: 16,
        iterations: 8,
        ..Workload::default()
    }
}

/// The sweep grid's variant axis, embedded as design points — the
/// configurations every existing experiment runs.
fn grid_embeddings() -> Vec<DesignPoint> {
    let grid = SweepGrid::default_grid(true);
    let mut points: Vec<DesignPoint> = grid
        .variants
        .iter()
        .map(DesignPoint::from_variant)
        .collect();
    points.dedup_by_key(|p| p.key());
    points
}

#[test]
fn frontier_jsonl_is_byte_identical_at_any_worker_count() {
    let space = DesignSpace::small();
    let evaluator = Evaluator::new(tiny_workload()).expect("workload runs");
    let single = {
        let cfg = SearchConfig {
            budget: space.len(),
            workers: 1,
            ..Default::default()
        };
        Exhaustive
            .search(&space, &evaluator, &cfg)
            .expect("search runs")
    };
    for workers in [2, 8] {
        let cfg = SearchConfig {
            budget: space.len(),
            workers,
            ..Default::default()
        };
        let out = Exhaustive
            .search(&space, &evaluator, &cfg)
            .expect("search runs");
        assert_eq!(
            single.frontier.to_jsonl(),
            out.frontier.to_jsonl(),
            "frontier JSONL diverged at {workers} workers"
        );
        assert_eq!(single.evaluated, out.evaluated);
    }
    // The evolutionary path schedules offspring batches across the pool
    // too; its frontier must be just as worker-independent.
    let evo = Evolutionary::default();
    let single = {
        let cfg = SearchConfig {
            budget: 24,
            workers: 1,
            ..Default::default()
        };
        evo.search(&space, &evaluator, &cfg).expect("search runs")
    };
    for workers in [2, 8] {
        let cfg = SearchConfig {
            budget: 24,
            workers,
            ..Default::default()
        };
        let out = evo.search(&space, &evaluator, &cfg).expect("search runs");
        assert_eq!(
            single.frontier.to_jsonl(),
            out.frontier.to_jsonl(),
            "evolutionary frontier diverged at {workers} workers"
        );
    }
}

#[test]
fn dse2_evolutionary_recovers_the_exhaustive_frontier() {
    let space = DesignSpace::small();
    let evaluator = Evaluator::new(tiny_workload()).expect("workload runs");
    let cfg = SearchConfig {
        budget: space.len(),
        workers: 2,
        ..Default::default()
    };
    let exhaustive = Exhaustive
        .search(&space, &evaluator, &cfg)
        .expect("search runs");
    let evolved = Evolutionary::default()
        .search(&space, &evaluator, &cfg)
        .expect("search runs");
    assert_eq!(exhaustive.evaluated, space.len());
    assert_eq!(
        evolved.evaluated,
        space.len(),
        "budget >= |space| must exhaust it"
    );
    assert_eq!(
        exhaustive.frontier.to_jsonl(),
        evolved.frontier.to_jsonl(),
        "DSE-2: evolutionary disagrees with exhaustive on an exhaustible space"
    );
}

#[test]
fn dse1_no_frontier_point_is_dominated_by_the_sweep_grid() {
    let space = DesignSpace::full();
    let evaluator = Evaluator::new(tiny_workload()).expect("workload runs");
    let seeds: Vec<DesignPoint> = grid_embeddings()
        .into_iter()
        .filter(|p| space.contains(p))
        .collect();
    assert!(
        !seeds.is_empty(),
        "the full space embeds the sweep variants"
    );
    let cfg = SearchConfig {
        budget: 96,
        workers: 2,
        seeds: seeds.clone(),
        ..Default::default()
    };
    let out = Evolutionary::default()
        .search(&space, &evaluator, &cfg)
        .expect("search runs");
    assert!(!out.frontier.is_empty());
    // Every sweep-grid configuration is evaluated up front; the archive
    // can therefore never retain a point one of them dominates.
    for seed in &seeds {
        let eval = evaluator.evaluate(seed).expect("seed evaluates");
        for p in out.frontier.points() {
            assert!(
                !eval.objectives.dominates(&p.objectives),
                "DSE-1: sweep configuration {} dominates frontier point {}",
                seed.key(),
                p.point.key()
            );
        }
    }
    // And the frontier itself is mutually non-dominated.
    for a in out.frontier.points() {
        for b in out.frontier.points() {
            assert!(!a.objectives.dominates(&b.objectives));
        }
    }
}

/// The evolutionary frontier on the full space at the harness seed, at a
/// budget where proposals keep colliding with points already seen, so
/// the search leans on its enumeration-order fallback: this search took
/// the fallback 1,084 times when the frontier was pinned. Any change to
/// the set of points the search evaluates shows up here.
///
/// Regenerate after an intentional change with `LPMEM_GOLDEN_PRINT=1
/// cargo test -p lpmem-bench --test explore -- --nocapture`.
const FULL_FRONTIER: &[&str] = &[
    "{\"key\":\"b16-k1024-c2048x32x2-diff-xor8-l0512\",\"banks\":16,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":195680190.6636811,\"area_mm2\":3.2013531245242377,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-xor8-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":195681296.1036811,\"area_mm2\":3.1876565136778887,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-xor1-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor1\",\"l0\":512,\"energy_pj\":195684308.3446411,\"area_mm2\":3.1800965136778885,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-xor8-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":195696278.5036811,\"area_mm2\":3.1741565136778886,\"cycles\":4266}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-xor1-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"xor1\",\"l0\":512,\"energy_pj\":195699290.7446411,\"area_mm2\":3.1665965136778884,\"cycles\":4266}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-raw-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"raw\",\"l0\":512,\"energy_pj\":195705274.2809611,\"area_mm2\":3.1790165136778885,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-raw-l0512\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"raw\",\"l0\":512,\"energy_pj\":195720256.6809611,\"area_mm2\":3.1655165136778884,\"cycles\":4266}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-xor8-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":256,\"energy_pj\":207024087.98506558,\"area_mm2\":3.178065610357807,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-xor1-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor1\",\"l0\":256,\"energy_pj\":207027100.22602558,\"area_mm2\":3.170505610357807,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-xor8-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"xor8\",\"l0\":256,\"energy_pj\":207039070.3850656,\"area_mm2\":3.164565610357807,\"cycles\":4266}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-xor1-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"xor1\",\"l0\":256,\"energy_pj\":207042082.6260256,\"area_mm2\":3.157005610357807,\"cycles\":4266}",
    "{\"key\":\"b2-k1024-c2048x32x2-diff-raw-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"raw\",\"l0\":256,\"energy_pj\":207048066.1623456,\"area_mm2\":3.169425610357807,\"cycles\":4206}",
    "{\"key\":\"b2-k1024-c2048x16x2-off-raw-l0256\",\"banks\":2,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"off\",\"bus\":\"raw\",\"l0\":256,\"energy_pj\":207063048.5623456,\"area_mm2\":3.155925610357807,\"cycles\":4266}",
];

/// The evolutionary frontier on the CMP space at the harness seed and a
/// small budget. Its trajectory runs through CMP points, so a change to
/// how any of them is priced (the per-core instruction buses, the shared
/// LLC) shows up here. Regenerate as [`FULL_FRONTIER`].
const CMP_FRONTIER: &[&str] = &[
    "{\"key\":\"b4-k1024-c2048x16x2-diff-xor8-l0512\",\"banks\":4,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":195685190.6636811,\"area_mm2\":3.2013531245242377,\"cycles\":4226}",
    "{\"key\":\"b8-k1024-c4096x64x2-diff-businv-l0512\",\"banks\":8,\"block\":1024,\"cache_bytes\":4096,\"cache_line\":64,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"businv\",\"l0\":512,\"energy_pj\":195700246.8250475,\"area_mm2\":3.2685815112439127,\"cycles\":4206}",
    "{\"key\":\"b8-k2048-c2048x32x2-diff-gray-l01024\",\"banks\":8,\"block\":2048,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"gray\",\"l0\":1024,\"energy_pj\":196491183.06830722,\"area_mm2\":3.2506444435680324,\"cycles\":4206}",
];

/// Runs the harness-seeded evolutionary search on `space` and checks its
/// frontier JSONL against `golden`, or prints it under
/// `LPMEM_GOLDEN_PRINT`.
fn check_pinned_frontier(space: &DesignSpace, budget: usize, golden: &[&str], name: &str) {
    let evaluator = Evaluator::new(tiny_workload()).expect("workload runs");
    let cfg = SearchConfig {
        budget,
        workers: 2,
        seeds: grid_embeddings(),
        ..Default::default()
    };
    let out = Evolutionary::default()
        .search(space, &evaluator, &cfg)
        .expect("search runs");
    assert_eq!(out.evaluated, budget);
    let jsonl = out.frontier.to_jsonl();
    if std::env::var_os("LPMEM_GOLDEN_PRINT").is_some() {
        let lines: Vec<String> = jsonl.lines().map(|l| format!("    {l:?},")).collect();
        println!("{name}:\n{}", lines.join("\n"));
        return;
    }
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines, golden, "{name} drifted");
}

#[test]
fn evolutionary_frontier_is_pinned_where_the_fallback_fires() {
    check_pinned_frontier(&DesignSpace::full(), 2048, FULL_FRONTIER, "FULL_FRONTIER");
}

#[test]
fn evolutionary_cmp_frontier_is_pinned() {
    check_pinned_frontier(&DesignSpace::cmp(), 64, CMP_FRONTIER, "CMP_FRONTIER");
}

#[test]
fn evolutionary_frontier_is_worker_independent_on_the_full_and_cmp_spaces() {
    let secded = FaultSpec::parse("secded").expect("secded parses");
    for (space, budget, fault) in [
        (DesignSpace::full(), 512, FaultSpec::off()),
        (DesignSpace::cmp(), 64, FaultSpec::off()),
        (DesignSpace::full(), 512, secded),
    ] {
        // A fresh evaluator per worker count, so every run evaluates cold
        // and at 2 workers the memo tables (the fault table too, under
        // secded) fill from both workers at once.
        let search_at = |workers: usize| {
            let evaluator = Evaluator::with_faults(tiny_workload(), fault).expect("workload runs");
            let cfg = SearchConfig {
                budget,
                seed: 7,
                workers,
                seeds: grid_embeddings(),
            };
            Evolutionary::default()
                .search(&space, &evaluator, &cfg)
                .expect("search runs")
        };
        let single = search_at(1);
        let double = search_at(2);
        assert_eq!(single.evaluated, budget);
        assert_eq!(single.evaluated, double.evaluated);
        let jsonl = single.frontier.to_jsonl();
        assert_eq!(jsonl.contains("\"silent\":"), fault.enabled());
        assert_eq!(
            jsonl,
            double.frontier.to_jsonl(),
            "evolutionary frontier diverged at 2 workers on a {}-point space, faults {}",
            space.len(),
            fault.label()
        );
    }
}
