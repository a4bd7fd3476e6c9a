//! Integration tests for the design-space explorer: frontier JSONL must
//! be byte-identical at any worker count, the evolutionary search must
//! agree with exhaustive enumeration on spaces it can exhaust (DSE-2),
//! and no frontier point may be dominated by any configuration the sweep
//! grid already runs (DSE-1).

use lpmem_bench::sweep::SweepGrid;
use lpmem_buscode::BusChoice;
use lpmem_core::flows::{CmpSpec, CodecKind, FaultSpec};
use lpmem_explore::{
    CacheGeom, DesignPoint, DesignSpace, Evaluator, Evolutionary, Exhaustive, Frontier,
    SearchConfig, SearchStrategy, Workload,
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

/// Single CMP evaluations, one JSONL row each (the `to_jsonl` of a
/// one-member frontier). The searches above may keep no CMP point on
/// their frontiers, so these rows pin the shared-LLC replay directly:
/// every L1 line size (16, 32 and 64 B), a 1-way L1, each LLC codec,
/// 2, 4 and 8 cores, a power budget that darkens banks, and two points
/// scored under a SECDED fault campaign. Regenerate as
/// [`FULL_FRONTIER`].
const CMP_EVALUATIONS: &[&str] = &[
    "{\"key\":\"b4-k1024-c2048x16x2-diff-xor8-l0512-c2b4x16w2\",\"banks\":4,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":197231961.52581474,\"area_mm2\":5.721040218281638,\"cycles\":28363,\"cmp\":\"c2b4x16w2\",\"cores\":2,\"llc_banks\":4,\"dark_banks\":0,\"llc_lookups\":172,\"llc_hits\":44,\"llc_lines\":128,\"llc_compressed\":0,\"offchip_beats\":640,\"cmp_cycles\":9623}",
    "{\"key\":\"b4-k1024-c2048x32x1-diff-xor8-l0512-c2b2x32w4-diff\",\"banks\":4,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":32,\"cache_ways\":1,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":196849448.0288193,\"area_mm2\":5.715557124524237,\"cycles\":27472,\"cmp\":\"c2b2x32w4-diff\",\"cores\":2,\"llc_banks\":2,\"dark_banks\":0,\"llc_lookups\":571,\"llc_hits\":523,\"llc_lines\":48,\"llc_compressed\":192,\"offchip_beats\":460,\"cmp_cycles\":8732}",
    "{\"key\":\"b4-k1024-c4096x64x2-diff-xor8-l0512-c8b8x64w4-zrun-t180+t90-p600\",\"banks\":4,\"block\":1024,\"cache_bytes\":4096,\"cache_line\":64,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":204794050.83928752,\"area_mm2\":16.864027099553844,\"cycles\":114430,\"cmp\":\"c8b8x64w4-zrun-t180+t90-p600\",\"cores\":8,\"llc_banks\":8,\"dark_banks\":7,\"llc_lookups\":72,\"llc_hits\":58,\"llc_lines\":14,\"llc_compressed\":20,\"offchip_beats\":3464,\"cmp_cycles\":43883}",
    "{\"key\":\"b4-k1024-c4096x32x2-diff-xor8-l0512-c4b4x32w2-fpc-t130\",\"banks\":4,\"block\":1024,\"cache_bytes\":4096,\"cache_line\":32,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":198777197.38989806,\"area_mm2\":6.445045071402937,\"cycles\":40681,\"cmp\":\"c4b4x32w2-fpc-t130\",\"cores\":4,\"llc_banks\":4,\"dark_banks\":0,\"llc_lookups\":207,\"llc_hits\":56,\"llc_lines\":151,\"llc_compressed\":141,\"offchip_beats\":1220,\"cmp_cycles\":16802}",
    "{\"key\":\"b4-k1024-c2048x16x1-diff-xor8-l0512-c8b2x16w2-fpc\",\"banks\":4,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":1,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":201680406.7293689,\"area_mm2\":5.1294786714029375,\"cycles\":104643,\"cmp\":\"c8b2x16w2-fpc\",\"cores\":8,\"llc_banks\":2,\"dark_banks\":0,\"llc_lookups\":1121,\"llc_hits\":589,\"llc_lines\":532,\"llc_compressed\":623,\"offchip_beats\":2225,\"cmp_cycles\":34096}",
    "{\"key\":\"b4-k1024-c4096x64x2-diff-xor8-l0512-c4b8x32w4-zrun-t180+t90-p600\",\"banks\":4,\"block\":1024,\"cache_bytes\":4096,\"cache_line\":64,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":199341615.89399955,\"area_mm2\":12.663765471402941,\"cycles\":43131,\"injected\":70,\"masked\":70,\"detected\":0,\"corrected\":0,\"silent\":0,\"cmp\":\"c4b8x32w4-zrun-t180+t90-p600\",\"cores\":4,\"llc_banks\":8,\"dark_banks\":2,\"llc_lookups\":135,\"llc_hits\":74,\"llc_lines\":61,\"llc_compressed\":44,\"offchip_beats\":1424,\"cmp_cycles\":18740}",
    "{\"key\":\"b4-k1024-c2048x16x2-diff-xor8-l0512-c2b4x16w4-diff\",\"banks\":4,\"block\":1024,\"cache_bytes\":2048,\"cache_line\":16,\"cache_ways\":2,\"codec\":\"diff\",\"bus\":\"xor8\",\"l0\":512,\"energy_pj\":196800850.84581473,\"area_mm2\":6.820546218281637,\"cycles\":27179,\"injected\":3,\"masked\":3,\"detected\":0,\"corrected\":0,\"silent\":0,\"cmp\":\"c2b4x16w4-diff\",\"cores\":2,\"llc_banks\":4,\"dark_banks\":0,\"llc_lookups\":172,\"llc_hits\":76,\"llc_lines\":96,\"llc_compressed\":138,\"offchip_beats\":467,\"cmp_cycles\":7927}",
];

#[test]
fn cmp_evaluations_are_pinned() {
    let plain = Evaluator::new(tiny_workload()).expect("workload runs");
    let secded = FaultSpec::parse("secded").expect("secded parses");
    let faulty = Evaluator::with_faults(tiny_workload(), secded).expect("workload runs");
    let cases = [
        (&plain, (2048, 16, 2), "c2b4x16w2"),
        (&plain, (2048, 32, 1), "c2b2x32w4-diff"),
        (&plain, (4096, 64, 2), "c8b8x64w4-zrun-t180+t90-p600"),
        (&plain, (4096, 32, 2), "c4b4x32w2-fpc-t130"),
        (&plain, (2048, 16, 1), "c8b2x16w2-fpc"),
        (&faulty, (4096, 64, 2), "c4b8x32w4-zrun-t180+t90-p600"),
        (&faulty, (2048, 16, 2), "c2b4x16w4-diff"),
    ];
    let mut rows = Vec::new();
    for (evaluator, (size, line, ways), label) in cases {
        let point = DesignPoint {
            banks: 4,
            block: 1024,
            cache: CacheGeom { size, line, ways },
            codec: CodecKind::Diff,
            bus: BusChoice::Xor(8),
            l0: 512,
            cmp: Some(CmpSpec::parse(label).expect("label parses")),
        };
        let mut frontier = Frontier::new();
        frontier.insert(evaluator.evaluate(&point).expect("point evaluates"));
        rows.push(frontier.to_jsonl().trim_end().to_owned());
    }
    if std::env::var_os("LPMEM_GOLDEN_PRINT").is_some() {
        let lines: Vec<String> = rows.iter().map(|l| format!("    {l:?},")).collect();
        println!("CMP_EVALUATIONS:\n{}", lines.join("\n"));
        return;
    }
    assert_eq!(rows, CMP_EVALUATIONS, "CMP_EVALUATIONS drifted");
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
