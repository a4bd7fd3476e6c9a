//! `lint_pinned`: the workspace linter over the workspace sources pinned
//! at commit b900095 (119 files, 38,692 lines), so code that later changes
//! add does not change the input. The only workload for `lint`. It
//! ignores the seed.

use std::path::PathBuf;
use std::time::Instant;

use lpmem_lint::lexer::lex;
use lpmem_lint::resolve::Workspace;
use lpmem_lint::rules::run_rules;
use lpmem_lint::{lint_files, render_text, taint, workspace_files, FileContext, Options};

use crate::spans::Recorder;
use crate::stats::{digest, elapsed_ns};
use crate::{Config, Pass, Traced, Workload};

/// Files the pinned sources hold.
pub const PINNED_FILES: u64 = 119;

/// The linter over the pinned sources.
pub struct LintPinned {
    root: PathBuf,
}

impl LintPinned {
    /// The workload over the sources extracted at `cfg.corpus`.
    pub fn new(cfg: &Config) -> Self {
        LintPinned {
            root: cfg.corpus.clone(),
        }
    }
}

/// The analysis counters both modes report; a traced pass must reproduce
/// them exactly.
fn counters(pass: &mut Pass, s: &lpmem_lint::Stats) {
    for (k, v) in [
        ("files", s.files),
        ("lines", s.lines),
        ("functions", s.functions),
        ("taint_sites", s.taint_sites),
        ("resolved_calls", s.resolved_calls),
        ("unresolved_calls", s.unresolved_calls),
        ("retracted", s.retracted),
    ] {
        pass.counters.insert(k.into(), v.to_string());
    }
}

fn pass_for(inputs: &[(String, String)]) -> Pass {
    let mut pass = Pass {
        items: inputs.len() as u64,
        ..Pass::default()
    };
    if inputs.len() as u64 != PINNED_FILES {
        pass.fail(format!(
            "read {} files, the pinned sources hold {PINNED_FILES}",
            inputs.len()
        ));
    }
    pass
}

impl Workload for LintPinned {
    type Ready = Vec<(String, String)>;

    fn setup(&self) -> Result<Self::Ready, String> {
        let files =
            workspace_files(&self.root).map_err(|e| format!("{}: {e}", self.root.display()))?;
        let mut inputs = Vec::with_capacity(files.len());
        for rel in files {
            let src =
                std::fs::read_to_string(self.root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
            inputs.push((rel, src));
        }
        if inputs.is_empty() {
            return Err(format!("no sources under {}", self.root.display()));
        }
        Ok(inputs)
    }

    fn setup_span(&self) -> &'static str {
        "lint.read"
    }

    fn pass(&self, mut ready: Vec<Self::Ready>) -> Pass {
        let inputs = ready.pop().expect("one set-up per pass");
        let report = lint_files(&inputs, &Options::default());
        let mut pass = pass_for(&inputs);
        if report.files != inputs.len() {
            pass.fail(format!(
                "report covers {} of {} files",
                report.files,
                inputs.len()
            ));
        }
        counters(&mut pass, &report.stats);
        let mut text = render_text(&report.diags);
        text.push_str(&render_text(&report.suppressed));
        pass.digest = Some(digest(text.as_bytes()));
        pass
    }

    /// The analysis phases `lint_files` runs, one span each: lexing and
    /// the token rules per file, then workspace resolution and the taint
    /// analysis. Suppression handling is not replayed, so the pass is
    /// checked by its analysis counters instead of the report digest.
    fn traced_pass(
        &self,
        mut ready: Vec<Self::Ready>,
        main: &mut Recorder,
        probes: &mut Recorder,
    ) -> Traced {
        let inputs = ready.pop().expect("one set-up per pass");
        let mut pass = pass_for(&inputs);
        let t = Instant::now();
        let mut heuristics = Vec::new();
        let mut lines = 0;
        for (i, (rel, src)) in inputs.iter().enumerate() {
            lines += src.lines().count();
            let lexed = main.span("lint.lex", i as u64, |_| lex(src));
            heuristics.extend(main.span("lint.heuristic", i as u64, |_| {
                run_rules(&FileContext::new(rel, &lexed.tokens), None)
            }));
        }
        let ws = main.span("lint.resolve", 0, |_| Workspace::build(&inputs));
        let out = main.span("lint.taint", 0, |_| taint::analyze(&ws, &heuristics));
        let main_ns = elapsed_ns(t);

        let stats = lpmem_lint::Stats {
            files: inputs.len(),
            lines,
            functions: out.stats.functions,
            taint_sites: out.stats.taint_sites,
            resolved_calls: out.stats.resolved_calls,
            unresolved_calls: out.stats.unresolved_calls,
            retracted: out.retract.len(),
        };
        counters(&mut pass, &stats);
        let recoveries: u64 = ws.files.iter().map(|f| u64::from(f.ast.recovered)).sum();
        main.count("lint.parse_recoveries", recoveries);
        main.count("lint.files", inputs.len() as u64);
        main.count("lint.functions", out.stats.functions as u64);
        main.count("lint.retractions", out.retract.len() as u64);

        // Probe: the parser alone, which `Workspace::build` also runs.
        for (i, (_, src)) in inputs.iter().enumerate() {
            std::hint::black_box(probes.span("lint.parse", i as u64, |_| {
                lpmem_lint::parse::parse_file(src)
            }));
        }
        Traced {
            pass,
            main_ns,
            threads: 1,
        }
    }
}
