//! The benchmark's own tests: its metric catalog, the metrics every
//! workload emits, and the determinism of its counters and digests.

use std::path::PathBuf;
use std::sync::OnceLock;

use lpbench::metrics::{Metric, END_TO_END, PER_LAYER};
use lpbench::{run, Config, Summary, WORKLOADS};

/// The pinned lint sources, extracted once per test binary.
fn corpus() -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lpbench-lint-corpus");
        if !dir.join("crates").is_dir() {
            std::fs::create_dir_all(&dir).expect("create corpus dir");
            let archive = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/lint-b900095.tar.gz");
            let status = std::process::Command::new("tar")
                .args(["-xzf", archive, "-C"])
                .arg(&dir)
                .status()
                .expect("run tar");
            assert!(status.success(), "extracting {archive} failed");
        }
        dir
    })
    .clone()
}

fn small(workload: &str, seed: u64, workers: usize, trace: bool) -> Summary {
    let cfg = Config {
        workload: workload.to_owned(),
        seed,
        seconds: 1e-3,
        trace,
        workers,
        small: true,
        corpus: corpus(),
        trace_out: None,
    };
    let s = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(s.correct, "{workload} seed {seed}: {:?}", s.problems);
    assert!(s.attempted > 0 && s.failed == 0, "{workload}");
    s
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
    assert!(all.len() <= 128 + 16);
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    for m in &all {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
    }
    names.extend(WORKLOADS);
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "metric and workload names must be unique");
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.word()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "extra entries in BENCHMARK.json"
    );
}

#[test]
fn every_workload_emits_its_declared_metrics() {
    for w in WORKLOADS {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let s = small(w, 1, 2, trace);
            let got: Vec<&str> = s.metrics.iter().map(|m| m.metric.name).collect();
            let want: Vec<&str> = catalog.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{w} trace={trace}");
            for m in &s.metrics {
                assert!(
                    !m.samples.is_empty(),
                    "{w}: {} has no sample",
                    m.metric.name
                );
                assert!(
                    m.samples.iter().all(|x| x.is_finite()),
                    "{w}: {} = {:?}",
                    m.metric.name,
                    m.samples
                );
            }
            if !trace {
                for m in &s.metrics {
                    assert!(
                        m.samples.iter().all(|&x| x > 0.0),
                        "{w}: {} must never be 0",
                        m.metric.name
                    );
                }
            }
        }
    }
}

#[test]
fn the_same_seed_repeats_counters_and_digests() {
    for w in WORKLOADS {
        let (a, b) = (small(w, 7, 2, false), small(w, 7, 2, false));
        assert_eq!(a.counters, b.counters, "{w}");
        assert_eq!(a.digest, b.digest, "{w}");
        assert!(!a.digest.is_empty(), "{w} renders no report");
    }
}

#[test]
fn another_seed_changes_every_digest_but_the_pinned_linter() {
    for w in WORKLOADS {
        let (a, b) = (small(w, 7, 2, false), small(w, 8, 2, false));
        if w == "lint_pinned" {
            assert_eq!(a.digest, b.digest, "{w} must ignore the seed");
        } else {
            assert_ne!(a.digest, b.digest, "{w} must depend on the seed");
        }
    }
}

#[test]
fn counters_are_identical_at_one_and_two_workers() {
    for w in WORKLOADS {
        let (one, two) = (small(w, 3, 1, false), small(w, 3, 2, false));
        assert_eq!(one.counters, two.counters, "{w}");
        assert_eq!(one.digest, two.digest, "{w}");
    }
}

#[test]
fn traced_replays_reproduce_the_untraced_reports() {
    // `run` fails a pass whose digest or counters differ from the first
    // untraced pass, so a correct traced run is a faithful replay.
    for w in WORKLOADS {
        let s = small(w, 5, 2, true);
        assert!(s.traced_passes >= 2, "{w}");
    }
}
