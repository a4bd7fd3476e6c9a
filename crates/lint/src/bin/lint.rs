//! The `lint` binary: the workspace linter's command-line front end.
//!
//! ```text
//! lint [--root DIR] [--paths P1,P2] [--rules R1,R2] [--json] [--deny]
//!      [--bench-json PATH] [--list]
//! ```
//!
//! * `--root DIR`   workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`).
//! * `--paths a,b`  restrict to files whose relative path starts with one
//!   of the given prefixes.
//! * `--rules a,b`  report only the listed source rules, each with exactly
//!   its full-run findings. The L-series meta-rules report only in a full
//!   run, so naming one here is a usage error.
//! * `--json`       emit the stable-sorted JSON array instead of text.
//! * `--deny`       exit non-zero when any diagnostic survives — the CI
//!   gate mode used by `scripts/verify.sh`.
//! * `--bench-json PATH`  write a one-line JSON benchmark record (file,
//!   line, function, call-graph, and taint counters apart from the wall
//!   time) to PATH after the run; see `BENCH_lint.json` at the repo root.
//! * `--list`       print the rule catalog and exit.
//!
//! Output is byte-stable for a given tree: files are walked in sorted
//! order and diagnostics sort by (path, line, rule).
//!
//! An unknown flag, a flag missing its value, an empty `--rules` list, a
//! `--rules` id that is not a source rule and an argument that is not
//! valid UTF-8 print the usage line and exit 2.
//! The linter keeps its own argument loop: its crate depends on nothing,
//! in-tree crates included.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use lpmem_lint::rules::is_source_rule;
use lpmem_lint::{lint_root, render_json, render_text, Options, Report, CATALOG};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut opts = Options::default();
    let mut json = false;
    let mut deny = false;
    let mut bench_json: Option<PathBuf> = None;

    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect();
    let Ok(args) = args else {
        return usage("arguments must be valid UTF-8");
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--paths" => match args.next() {
                Some(v) => opts.paths.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                ),
                None => return usage("--paths needs a comma-separated list"),
            },
            "--rules" => match args.next() {
                Some(v) => {
                    let set: BTreeSet<String> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    if set.is_empty() {
                        return usage("--rules needs at least one rule");
                    }
                    if let Some(r) = set.iter().find(|r| !is_source_rule(r)) {
                        return usage(&format!(
                            "`{r}` is not a source rule (see --list; L-series \
                             meta-rules report only without --rules)"
                        ));
                    }
                    opts.rules = Some(set);
                }
                None => return usage("--rules needs a comma-separated list"),
            },
            "--json" => json = true,
            "--deny" => deny = true,
            "--bench-json" => match args.next() {
                Some(v) => bench_json = Some(PathBuf::from(v)),
                None => return usage("--bench-json needs a file path"),
            },
            "--list" => {
                for r in CATALOG {
                    println!("{}  {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("lint: no workspace root found; pass --root");
                return ExitCode::from(2);
            }
        },
    };

    let started = std::time::Instant::now();
    let report = match lint_root(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ns = started.elapsed().as_nanos();

    if let Some(path) = &bench_json {
        if let Err(e) = std::fs::write(path, bench_report_body(&report, elapsed_ns)) {
            eprintln!("lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // Diagnostics go to stdout (byte-stable, diff-able in CI); the summary
    // goes to stderr in both modes so redirected output stays pure.
    if json {
        print!("{}", render_json(&report.diags));
    } else {
        print!("{}", render_text(&report.diags));
    }
    eprintln!(
        "lint: {} diagnostics ({} suppressed) in {} files",
        report.diags.len(),
        report.suppressed.len(),
        report.files
    );

    if deny && !report.diags.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders the `--bench-json` record by hand in the shared bench envelope
/// (`lpmem_bench::cli::write_bench`, a crate this one does not depend on):
/// the analysis counters, then the wall time of the whole run, no rows.
fn bench_report_body(report: &Report, elapsed_ns: u128) -> String {
    let s = &report.stats;
    let secs = elapsed_ns as f64 / 1e9;
    let files_per_sec = if secs > 0.0 {
        s.files as f64 / secs
    } else {
        0.0
    };
    format!(
        concat!(
            "{{\"schema\":\"lpmem-bench-v2\",\"bench\":\"lint\",",
            "\"counters\":{{\"files\":{},\"lines\":{},\"functions\":{},",
            "\"resolved_calls\":{},\"unresolved_calls\":{},",
            "\"taint_sites\":{},\"retractions\":{},",
            "\"diags\":{},\"suppressed\":{}}},",
            "\"timings\":{{\"elapsed_ns\":{},\"files_per_sec\":{:.1}}},",
            "\"rows\":[]}}\n"
        ),
        s.files,
        s.lines,
        s.functions,
        s.resolved_calls,
        s.unresolved_calls,
        s.taint_sites,
        s.retracted,
        report.diags.len(),
        report.suppressed.len(),
        elapsed_ns,
        files_per_sec
    )
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("lint: {err}");
    }
    eprintln!(
        "usage: lint [--root DIR] [--paths P1,P2] [--rules R1,R2] [--json] [--deny] \
         [--bench-json PATH] [--list]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
