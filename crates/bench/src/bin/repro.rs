//! Regenerates every table and figure of the reproduced evaluations.
//!
//! ```text
//! repro             # everything
//! repro all         # everything
//! repro t1 t3       # selected experiments
//! repro --list      # available ids (-l)
//! ```
//!
//! Each table carries the named shape claims of EXPERIMENTS.md. After the
//! tables print, every claim that does not hold is named on stderr as
//! `repro: claim failed: <id>: <claim>` and repro exits 1. Unknown ids
//! (after the known tables print) and flags exit 2.

use std::process::ExitCode;

use lpmem_bench::cli::{self, Args};
use lpmem_bench::experiments;

fn main() -> ExitCode {
    cli::main("repro", run)
}

fn run(args: Args) -> Result<(), String> {
    let mut ids = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--list" | "-l" => {
                let known = experiments::EXPERIMENTS.map(|(id, _)| id);
                println!("available experiments: {}", known.join(" "));
                return Ok(());
            }
            _ if cli::is_flag(&arg) => return Err(cli::unknown(&arg)),
            _ => ids.push(arg),
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = experiments::EXPERIMENTS.map(|(id, _)| id.to_owned()).into();
    }
    println!("lpmem reproduction harness (seed {})", experiments::SEED);
    println!("targets are the DATE 2003 Session 1B headline claims; see EXPERIMENTS.md\n");
    let mut unknown = Vec::new();
    let mut failed = Vec::new();
    for id in &ids {
        match experiments::by_id(id) {
            Some(table) => {
                println!("{table}");
                failed.extend(table.failed_claims());
            }
            None => unknown.push(id.as_str()),
        }
    }
    for claim in &failed {
        eprintln!("repro: claim failed: {claim}");
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment id(s): {} (try --list)",
            unknown.join(", ")
        ));
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
