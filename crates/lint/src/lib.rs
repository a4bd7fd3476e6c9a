//! `lpmem-lint`: the workspace's hermetic determinism-and-accounting
//! linter.
//!
//! The sweep and explore engines promise byte-identical JSONL at any
//! worker count, and the energy flows make exact-pJ claims — invariants
//! the golden suites only catch *after* they break. This crate enforces
//! them statically, in two phases. A hand-rolled lexer ([`lexer`]) feeds
//! the heuristic rule engine ([`rules`], [`engine`]), which walks every
//! workspace source file and emits deterministic diagnostics ([`diag`]).
//! A semantic phase then parses each file into an AST ([`parse`],
//! [`ast`]), resolves the workspace symbol table and call graph
//! ([`resolve`]), and runs an inter-procedural determinism taint
//! analysis ([`taint`]) that adds the T-series and A02 findings,
//! retracts heuristic findings it proves safe, and flags the
//! suppressions those retractions make obsolete (L02). Both phases run
//! on every run; a rule filter only narrows the report. Because the
//! build is hermetic (DESIGN.md §5) there is no `syn`, no
//! `clippy-utils`, and no registry: the linter is built in-tree, from
//! nothing but `std`, and is itself subject to every rule it enforces.
//!
//! See `docs/lint-rules.md` for the rule catalog and DESIGN.md §9/§14
//! for the architecture. The `lint` binary (`cargo run -p lpmem-lint
//! --bin lint -- --deny`) is the fourth tier-1 gate in
//! `scripts/verify.sh`.
//!
//! ```
//! use lpmem_lint::{lint_source, Options};
//!
//! let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
//! let (diags, _suppressed) = lint_source("crates/x/src/lib.rs", src, &Options::default());
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "D04");
//! ```

pub mod ast;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod resolve;
pub mod rules;
pub mod taint;

pub use diag::{render_json, render_text, Diag};
pub use engine::{lint_files, lint_root, lint_source, workspace_files, Options, Report, Stats};
pub use rules::{FileContext, RuleInfo, CATALOG};
