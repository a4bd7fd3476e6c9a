//! Fixture-corpus golden test: linting the deliberately-bad snippets under
//! `tests/fixtures/` must reproduce the byte-exact diagnostics stored in
//! `tests/fixtures_golden.txt`.
//!
//! To regenerate after an intentional rule change, run with
//! `LPMEM_GOLDEN_PRINT=1` (e.g. `LPMEM_GOLDEN_PRINT=1 cargo test -p
//! lpmem-lint --test fixtures -- --nocapture`) and paste the printed
//! diagnostics over `fixtures_golden.txt`.

use std::path::Path;

use lpmem_lint::rules::is_source_rule;
use lpmem_lint::{lint_root, render_json, render_text, Diag, Options};

const GOLDEN: &str = include_str!("fixtures_golden.txt");

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_diagnostics_match_the_golden_file() {
    let report = lint_root(&fixtures_dir(), &Options::default()).expect("fixtures lint");
    let text = render_text(&report.diags);
    if std::env::var("LPMEM_GOLDEN_PRINT").is_ok() {
        println!("--- fixtures_golden.txt ---");
        print!("{text}");
        println!("---------------------------");
    }
    assert_eq!(
        text, GOLDEN,
        "fixture diagnostics drifted from the golden file; if the rule \
         change is intentional, regenerate with LPMEM_GOLDEN_PRINT=1"
    );
    // The corpus carries exactly one well-formed, matching suppression
    // (suppressed_ok.rs), proving suppressions actually suppress.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "D03");
    assert_eq!(report.suppressed[0].path, "suppressed_ok.rs");
}

#[test]
fn every_rule_fires_at_least_once_on_the_corpus() {
    let report = lint_root(&fixtures_dir(), &Options::default()).expect("fixtures lint");
    for rule in lpmem_lint::CATALOG {
        assert!(
            report.diags.iter().any(|d| d.rule == rule.id)
                || report.suppressed.iter().any(|d| d.rule == rule.id),
            "rule {} never fired on the fixture corpus",
            rule.id
        );
    }
}

#[test]
fn fixture_output_is_byte_stable_across_runs() {
    let a = lint_root(&fixtures_dir(), &Options::default()).expect("first run");
    let b = lint_root(&fixtures_dir(), &Options::default()).expect("second run");
    assert_eq!(render_text(&a.diags), render_text(&b.diags));
    assert_eq!(render_json(&a.diags), render_json(&b.diags));
    assert_eq!(a.suppressed, b.suppressed);
    assert_eq!(a.files, b.files);
}

#[test]
fn a_rule_filter_reports_exactly_the_full_run_findings_of_its_rules() {
    let full = lint_root(&fixtures_dir(), &Options::default()).expect("full run");
    for rule in lpmem_lint::CATALOG.iter().filter(|r| is_source_rule(r.id)) {
        let opts = Options {
            rules: Some([rule.id.to_string()].into_iter().collect()),
            paths: Vec::new(),
        };
        let filtered = lint_root(&fixtures_dir(), &opts).expect("filtered run");
        let of_rule = |diags: &[Diag]| -> Vec<Diag> {
            diags
                .iter()
                .filter(|d| d.rule == rule.id)
                .cloned()
                .collect()
        };
        assert_eq!(filtered.diags, of_rule(&full.diags), "{}", rule.id);
        assert_eq!(
            filtered.suppressed,
            of_rule(&full.suppressed),
            "{}",
            rule.id
        );
    }
}

#[test]
fn an_empty_rule_list_is_a_usage_error() {
    // The L-series meta-rules report only in a full run, so a filter on
    // one of them could never report anything.
    for rules in [",", "L00", "L01", "L02", "D01,L00"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(["--rules", rules, "--deny", "--root"])
            .arg(fixtures_dir())
            .output()
            .expect("run lint");
        assert_eq!(out.status.code(), Some(2), "--rules {rules}");
        assert!(out.stdout.is_empty(), "--rules {rules}");
    }
}

#[test]
fn the_bench_record_keeps_counters_apart_from_timings() {
    // The shared bench envelope (`lpmem_bench::cli::write_bench`), written
    // by hand here: the counters are a pure function of the tree, the
    // timings come from the clock, and there are no rows.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_lint.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--root")
        .arg(fixtures_dir())
        .arg("--bench-json")
        .arg(&path)
        .output()
        .expect("run lint");
    assert_eq!(out.status.code(), Some(0));
    let record = std::fs::read_to_string(&path).expect("lint wrote its record");
    let timings = record
        .strip_prefix(concat!(
            r#"{"schema":"lpmem-bench-v2","bench":"lint","counters":{"files":18,"lines":244,"#,
            r#""functions":34,"resolved_calls":5,"unresolved_calls":48,"taint_sites":11,"#,
            r#""retractions":3,"diags":21,"suppressed":1,"summaries":33,"expander_scans":66},"#,
            r#""timings":{"elapsed_ns":"#
        ))
        .unwrap_or_else(|| panic!("{record}"));
    let (elapsed_ns, files_per_sec) = timings
        .strip_suffix("},\"rows\":[]}\n")
        .and_then(|t| t.split_once(",\"files_per_sec\":"))
        .unwrap_or_else(|| panic!("{record}"));
    assert!(elapsed_ns.parse::<u128>().is_ok(), "{record}");
    assert!(files_per_sec.parse::<f64>().is_ok(), "{record}");
}
