//! Regenerates every table and figure of the reproduced evaluations.
//!
//! ```text
//! repro             # everything
//! repro all         # everything
//! repro t1 t3       # selected experiments
//! repro --list      # available ids (-l)
//! ```
//!
//! Unknown ids (after the known tables print) and flags exit 2.

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
                println!("available experiments: {}", experiments::ALL_IDS.join(" "));
                return Ok(());
            }
            _ if cli::is_flag(&arg) => return Err(cli::unknown(&arg)),
            _ => ids.push(arg),
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    println!("lpmem reproduction harness (seed {})", experiments::SEED);
    println!("targets are the DATE 2003 Session 1B headline claims; see EXPERIMENTS.md\n");
    let mut unknown = Vec::new();
    for id in &ids {
        match experiments::by_id(id) {
            Some(table) => println!("{table}"),
            None => unknown.push(id.as_str()),
        }
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment id(s): {} (try --list)",
            unknown.join(", ")
        ));
    }
    Ok(())
}
