//! Command-line regression tests: the built binaries reject bad input
//! with a usage error (exit 2, no panic), accept flags in any order, and
//! keep the fixes their shared argument layer brought.

use std::ffi::OsString;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const CLI: &str = env!("CARGO_BIN_EXE_lpmem-cli");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const EXPLORE: &str = env!("CARGO_BIN_EXE_explore");
const FLEET: &str = env!("CARGO_BIN_EXE_fleet");
const ISA: &str = env!("CARGO_BIN_EXE_isa-bench");
const CMP: &str = env!("CARGO_BIN_EXE_cmp-bench");

/// Every binary, with the arguments that must precede a flag.
const BINS: [(&str, &[&str]); 7] = [
    (REPRO, &[]),
    (CLI, &["run", "fir"]),
    (SWEEP, &[]),
    (EXPLORE, &[]),
    (FLEET, &[]),
    (ISA, &[]),
    (CMP, &[]),
];

fn run<S: Into<OsString> + Clone>(bin: &str, args: &[S]) -> Output {
    Command::new(bin)
        .args(args.iter().cloned().map(Into::into))
        .output()
        .expect("the binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_usage_error<S: Into<OsString> + Clone + std::fmt::Debug>(bin: &str, args: &[S]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

fn with_prefix(prefix: &[&str], rest: &[&str]) -> Vec<String> {
    prefix.iter().chain(rest).map(|s| s.to_string()).collect()
}

#[test]
fn unknown_flags_are_usage_errors() {
    for (bin, prefix) in BINS {
        assert_usage_error(bin, &with_prefix(prefix, &["--bogus"]));
    }
    assert_usage_error(CLI, &["run", "fir", "--scael", "4"]);
    assert_usage_error(CLI, &["stats", "a.trace", "--banks", "4"]);
}

#[test]
fn flags_missing_their_value_are_usage_errors() {
    for (bin, args) in [
        (CLI, &["run", "fir", "--scale"][..]),
        (SWEEP, &["--jsonl"]),
        (EXPLORE, &["--seed"]),
        (FLEET, &["--devices"]),
        (ISA, &["--json"]),
        (CMP, &["--seed"]),
    ] {
        assert_usage_error(bin, args);
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_are_usage_errors() {
    use std::os::unix::ffi::OsStringExt;
    let bad = OsString::from_vec(vec![0xff]);
    for (bin, prefix) in BINS {
        let mut args: Vec<OsString> = prefix.iter().map(OsString::from).collect();
        args.push(bad.clone());
        assert_usage_error(bin, &args);
    }
    assert_usage_error(SWEEP, &[OsString::from("--flows"), bad.clone()]);
    assert_usage_error(CLI, &[bad]);
}

#[test]
fn threads_must_be_a_positive_integer_everywhere() {
    for bin in [SWEEP, EXPLORE, FLEET] {
        assert_usage_error(bin, &["--threads", "0"]);
        assert_usage_error(bin, &["--threads", "-1"]);
    }
}

#[test]
fn the_threads_variable_must_be_a_worker_count() {
    let runs = [
        (
            SWEEP,
            "--quick --flows system --kernels fir --techs t180 --variants default",
        ),
        (EXPLORE, "--axes small --strategy exhaustive --budget 2"),
        (FLEET, "--devices 16 --events 64"),
    ];
    for (bin, args) in runs {
        let with_env = |value: &str, extra: &[&str]| {
            Command::new(bin)
                .args(args.split(' ').chain(extra.iter().copied()))
                .env("LPMEM_SWEEP_THREADS", value)
                .output()
                .expect("the binary runs")
        };
        for bad in ["abc", "-1", "2x"] {
            let out = with_env(bad, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {bad}: {stderr}");
            assert!(stderr.contains("LPMEM_SWEEP_THREADS"), "{bin}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
        }
        // `0` clamps to one worker; `--threads` wins without reading it.
        let out = with_env("0", &[]);
        assert!(stdout(&out).contains(" 1 workers"), "{bin}: {out:?}");
        assert!(with_env("abc", &["--threads", "1"]).status.success());
    }
}

#[test]
fn empty_and_unknown_list_elements_are_usage_errors() {
    assert_usage_error(ISA, &["--quick", "--kernels", ",", "--check-speedup", "5"]);
    assert_usage_error(SWEEP, &["--kernels", "fir,nope", "--list"]);
    assert_usage_error(SWEEP, &["--flows", " , ", "--list"]);
}

#[test]
fn sweep_flags_apply_in_any_order() {
    let a = run(SWEEP, &["--kernels", "fir", "--quick", "--list"]);
    let b = run(SWEEP, &["--quick", "--kernels", "fir", "--list"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(stdout(&a), stdout(&b));
    assert!(stdout(&a).contains("kernels:  fir@24\n"), "{}", stdout(&a));
    assert!(stdout(&a).contains("tasks:    30\n"), "{}", stdout(&a));
    // Without --quick a filter keeps the full-grid scales, in its order.
    let full = stdout(&run(SWEEP, &["--kernels", "dct8,fir", "--list"]));
    assert!(full.contains("kernels:  dct8@24,fir@96\n"), "{full}");
}

#[test]
fn repro_prints_any_subset_as_in_the_golden_and_exits_quietly() {
    let want: String = include_str!("golden/repro.txt")
        .split_inclusive("\n\n")
        .filter(|t| !t.starts_with("== ") || t.starts_with("== T4 ") || t.starts_with("== F4a "))
        .collect();
    let out = run(REPRO, &["t4", "f4a"]);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "", "no claim fails");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), want);
}

#[test]
fn positional_arguments_may_follow_options() {
    let out = run(CLI, &["run", "--scale", "4", "fir"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("kernel     : fir (scale 4, seed 1)"));
}

#[test]
fn bus_encoder_region_counts_are_checked() {
    // Rejected before training: each region holds a delta list and a
    // transform, so an unchecked count sizes an allocation.
    assert_usage_error(CLI, &["buscode", "fir", "--regions", "0"]);
    assert_usage_error(CLI, &["buscode", "fir", "--regions", "100000000"]);
    let out = run(CLI, &["buscode", "fir", "--regions", "16"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("with 16 regions"));
}

#[test]
fn a_sparse_trace_file_is_an_error_not_an_abort() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sparse.trace");
    std::fs::write(&path, "R 0 4 0\nR 100000000000 4 0\n").expect("write the trace");
    let path = path.to_str().expect("UTF-8 temp path");
    assert_usage_error(CLI, &["partition", path]);
    assert!(run(CLI, &["stats", path]).status.success());
}

#[test]
fn empty_fleet_classes_show_na_where_the_json_has_null() {
    let out = run(
        FLEET,
        &[
            "--devices",
            "16",
            "--events",
            "64",
            "--mix",
            "1,0,0,0,0",
            "--threads",
            "1",
            "--bench-json",
            "-",
        ],
    );
    assert!(out.status.success());
    let text = stdout(&out);
    let strided = text
        .lines()
        .find(|l| l.trim_start().starts_with("strided"))
        .expect("a strided row");
    assert_eq!(strided.matches("n/a").count(), 2, "{strided}");
    assert!(text.contains(
        r#"{"class":"strided","devices":0,"events":0,"mean_stack_distance":null,"spatial_locality":null}"#
    ));
}

#[test]
fn isa_bench_writes_a_report_only_where_json_names_it() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("isa-bench-cwd");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(ISA)
        .args(["--quick", "--kernels", "fir"])
        .current_dir(&dir)
        .output()
        .expect("the binary runs");
    assert!(out.status.success(), "{out:?}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("list the working directory")
        .collect();
    assert!(written.is_empty(), "{written:?}");
}

/// Splits a flat JSON object off the front of `s`: its `(key, value)`
/// pairs, value text as written, and the rest of `s`. Panics if the
/// object nests another object or an array.
fn flat_object(s: &str) -> (Vec<(&str, &str)>, &str) {
    assert!(s.starts_with('{'), "not an object: {s}");
    let body_end = s.find('}').expect("an object ends");
    let (body, rest) = (&s[1..body_end], &s[body_end + 1..]);
    assert!(!body.contains(['{', '[']), "not flat: {s}");
    let mut pairs = Vec::new();
    let mut left = body;
    while !left.is_empty() {
        let key_end = left[1..].find('"').expect("a key ends") + 1;
        let key = &left[1..key_end];
        let value = &left[key_end + 2..];
        let value_end = if let Some(string) = value.strip_prefix('"') {
            string.find('"').expect("a string ends") + 2
        } else {
            value.find(',').unwrap_or(value.len())
        };
        pairs.push((key, &value[..value_end]));
        left = value[value_end..].strip_prefix(',').unwrap_or("");
    }
    (pairs, rest)
}

/// Splits one `"counters":{…},"timings":{…}` record off the front of
/// `s`: its counters and the rest of `s`. Panics if a timing sits among
/// the counters.
fn record<'a>(bench: &str, s: &'a str) -> (Vec<(&'a str, &'a str)>, &'a str) {
    let s = s.strip_prefix("\"counters\":").expect("counters first");
    let (counters, s) = flat_object(s);
    for (key, _) in &counters {
        assert!(
            !(key.ends_with("_ns")
                || key.ends_with("_s")
                || key.ends_with("_per_sec")
                || key.ends_with("_mips")
                || key.contains("speedup")
                || *key == "workers"),
            "{bench}: timing {key:?} among the counters"
        );
    }
    let s = s.strip_prefix(",\"timings\":").expect("timings second");
    (counters, flat_object(s).1)
}

/// Checks one bench report against the shared envelope, key by key in
/// order, and returns every counters object in it, top level first.
fn bench_counters<'a>(bench: &str, report: &'a str) -> Vec<Vec<(&'a str, &'a str)>> {
    let head = format!("{{\"schema\":\"lpmem-bench-v2\",\"bench\":\"{bench}\",");
    let rest = report
        .strip_prefix(head.as_str())
        .unwrap_or_else(|| panic!("{bench}: bad head: {report}"));
    let (top, rest) = record(bench, rest);
    let mut all = vec![top];
    let mut rest = rest.strip_prefix(",\"rows\":[").expect("rows last");
    while let Some(row) = rest.strip_prefix('{') {
        let (counters, after) = record(bench, row);
        all.push(counters);
        let after = after.strip_prefix('}').expect("a row ends");
        rest = after.strip_prefix(',').unwrap_or(after);
    }
    assert_eq!(rest, "]}\n", "{bench}: nothing follows the rows");
    all
}

/// The report a bench binary wrote to stdout, after its table.
fn last_line(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    let text = stdout(out);
    let start = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
    text[start..].to_owned()
}

#[test]
fn bench_reports_share_one_envelope_with_counters_apart() {
    let isa = last_line(&run(ISA, &["--quick", "--kernels", "fir", "--json", "-"]));
    let counters = bench_counters("isa-bench", &isa);
    assert_eq!(counters.len(), 2);
    assert_eq!(
        counters[1],
        [("kernel", "\"fir\""), ("scale", "96"), ("instret", "17578")]
    );

    for faults in [&[][..], &["--faults", "secded", "--tech", "t90"]] {
        let fleet = |threads: &str| {
            let mut args = vec![
                "--devices",
                "2000",
                "--bench-json",
                "-",
                "--threads",
                threads,
            ];
            args.extend(faults);
            last_line(&run(FLEET, &args))
        };
        let (one, two) = (fleet("1"), fleet("2"));
        let counters = bench_counters("fleet", &one);
        assert_eq!(counters.len(), 6, "the top level and five classes");
        assert_eq!(counters, bench_counters("fleet", &two), "{faults:?}");
        let has_silent = counters[0].iter().any(|(k, _)| *k == "silent");
        assert_eq!(has_silent, !faults.is_empty(), "{one}");
    }
}
