//! The lint engine: walks the workspace, runs the rules, applies
//! suppressions, and reports.
//!
//! # Suppression grammar
//!
//! ```text
//! // lpmem-lint: allow(D01, reason = "merge is commutative")
//! // lpmem-lint: allow(D02, D03, reason = "run instrumentation only")
//! ```
//!
//! The reason is mandatory and must be non-empty: a suppression is a
//! reviewed claim that a flagged site is sound, and the claim is the
//! reason. A suppression comment covers the line it sits on; a comment on
//! a line of its own covers the next line that has code. Malformed
//! suppressions are themselves diagnostics (**L00**), and suppressions
//! that suppress nothing are too (**L01**) — dead allowances rot into
//! false documentation.
//!
//! # Determinism
//!
//! The walk collects files first and sorts them by relative path, rules
//! emit in token order, and diagnostics sort by (path, line, rule), so two
//! runs over the same tree produce identical bytes — the property the
//! golden fixture suite pins.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::Diag;
use crate::lexer::{lex, Comment, LexOutput};
use crate::resolve::Workspace;
use crate::rules::{is_source_rule, run_rules, FileContext};
use crate::taint;

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Restrict the report to these rule ids (`None` = all rules plus the
    /// L-series meta-rules). A filter only narrows the report: the
    /// semantic phase and its retractions run as on a full run, so each
    /// listed rule reports exactly its full-run findings. The meta-rules
    /// L00/L01/L02 run only without a filter.
    pub rules: Option<BTreeSet<String>>,
    /// Restrict the walk to relative paths with one of these prefixes.
    pub paths: Vec<String>,
}

/// Analysis counters (surfaced by `lint --bench-json`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Files scanned.
    pub files: usize,
    /// Source lines scanned.
    pub lines: usize,
    /// Functions summarized by the semantic phase.
    pub functions: usize,
    /// Taint sites discovered.
    pub taint_sites: usize,
    /// Call edges resolved (workspace, trait, modeled std/constructor).
    pub resolved_calls: usize,
    /// Call edges left unresolved.
    pub unresolved_calls: usize,
    /// Heuristic diagnostics retracted by the semantic phase.
    pub retracted: usize,
}

/// One run's outcome.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed diagnostics, sorted and deduplicated.
    pub diags: Vec<Diag>,
    /// Diagnostics silenced by a reasoned suppression, sorted.
    pub suppressed: Vec<Diag>,
    /// Number of files scanned.
    pub files: usize,
    /// Analysis counters.
    pub stats: Stats,
}

/// One parsed suppression comment.
#[derive(Debug)]
struct Suppression {
    /// Line of the comment itself (L-series diagnostics anchor here).
    comment_line: u32,
    /// Line the suppression covers.
    target_line: u32,
    /// Rules it allows.
    rules: Vec<String>,
    /// Which of `rules` actually suppressed something.
    used: Vec<bool>,
}

/// Lints one file's source text. The engine and the fixture tests share
/// this entry point; `rel_path` drives rule applicability. The file forms
/// a one-file workspace for the semantic phase.
pub fn lint_source(rel_path: &str, src: &str, opts: &Options) -> (Vec<Diag>, Vec<Diag>) {
    let report = lint_files(&[(rel_path.to_string(), src.to_string())], opts);
    (report.diags, report.suppressed)
}

/// Lints a set of files as ONE workspace: phase A runs the per-file
/// heuristic rules, phase B builds the resolved workspace and runs the
/// inter-procedural taint analysis (T01/T02/A02), retracts heuristic
/// diagnostics the flow analysis proves safe or subsumes, then applies
/// suppressions per file (L00 malformed, L01 unused, L02 obsolete).
pub fn lint_files(inputs: &[(String, String)], opts: &Options) -> Report {
    struct FileWork {
        rel: String,
        heur: Vec<Diag>,
        meta: Vec<Diag>,
        supps: Vec<Suppression>,
    }
    let mut works = Vec::with_capacity(inputs.len());
    let mut all_heur = Vec::new();
    let mut lines = 0usize;
    for (rel, src) in inputs {
        lines += src.lines().count();
        let LexOutput { tokens, comments } = lex(src);
        let ctx = FileContext::new(rel, &tokens);
        let heur = run_rules(&ctx, opts.rules.as_ref());
        let mut meta = Vec::new();
        let supps = parse_suppressions(rel, &comments, &tokens, &mut meta);
        all_heur.extend(heur.iter().cloned());
        works.push(FileWork {
            rel: rel.clone(),
            heur,
            meta,
            supps,
        });
    }

    // Phase B: semantic analysis over the resolved workspace. It runs
    // under a `--rules` filter too, so a filter only narrows the report.
    let ws = Workspace::build(inputs);
    let out = taint::analyze(&ws, &all_heur);
    let stats = Stats {
        files: inputs.len(),
        lines,
        functions: out.stats.functions,
        taint_sites: out.stats.taint_sites,
        resolved_calls: out.stats.resolved_calls,
        unresolved_calls: out.stats.unresolved_calls,
        retracted: out.retract.len(),
    };
    let retract = out.retract;
    let sem_diags: Vec<Diag> = out
        .diags
        .into_iter()
        .filter(|d| opts.rules.as_ref().is_none_or(|f| f.contains(d.rule)))
        .collect();

    let mut report = Report::default();
    for mut w in works {
        let mut diags: Vec<Diag> = w
            .heur
            .into_iter()
            .filter(|d| !retract.contains(&(d.path.clone(), d.line, d.rule.to_string())))
            .collect();
        diags.extend(sem_diags.iter().filter(|d| d.path == w.rel).cloned());
        diags.sort();
        diags.dedup();

        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        'diag: for d in diags {
            for s in w.supps.iter_mut() {
                if s.target_line == d.line {
                    if let Some(r) = s.rules.iter().position(|r| r == d.rule) {
                        s.used[r] = true;
                        suppressed.push(d);
                        continue 'diag;
                    }
                }
            }
            kept.push(d);
        }

        // Meta-rules run only on full-catalog scans: under a `--rules`
        // filter most suppressions are trivially "unused" and L00 noise
        // would follow.
        if opts.rules.is_none() {
            kept.append(&mut w.meta);
            for s in &w.supps {
                for (rule, used) in s.rules.iter().zip(&s.used) {
                    if *used {
                        continue;
                    }
                    let obsolete = retract.contains(&(w.rel.clone(), s.target_line, rule.clone()));
                    kept.push(if obsolete {
                        Diag {
                            path: w.rel.clone(),
                            line: s.comment_line,
                            rule: "L02",
                            message: format!(
                                "suppression for {rule} is obsolete: semantic analysis \
                                 proves the line {} site safe",
                                s.target_line
                            ),
                        }
                    } else {
                        Diag {
                            path: w.rel.clone(),
                            line: s.comment_line,
                            rule: "L01",
                            message: format!(
                                "suppression for {rule} does not match any diagnostic \
                                 on line {}",
                                s.target_line
                            ),
                        }
                    });
                }
            }
        }

        kept.sort();
        kept.dedup();
        suppressed.sort();
        report.diags.extend(kept);
        report.suppressed.extend(suppressed);
    }
    report.files = inputs.len();
    report.stats = stats;
    report.diags.sort();
    report.suppressed.sort();
    report
}

/// Parses every `lpmem-lint` comment; malformed ones become L00 diags.
fn parse_suppressions(
    rel_path: &str,
    comments: &[Comment],
    tokens: &[crate::lexer::Token],
    meta: &mut Vec<Diag>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`) never carry suppressions —
        // they routinely *mention* the grammar (this module included).
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(at) = c.text.find("lpmem-lint") else {
            continue;
        };
        let bad = |why: String| Diag {
            path: rel_path.to_string(),
            line: c.line,
            rule: "L00",
            message: why,
        };
        let rest = c.text[at + "lpmem-lint".len()..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            meta.push(bad(
                "malformed suppression: expected `lpmem-lint: allow(RULE…, \
                 reason = \"…\")`"
                    .to_string(),
            ));
            continue;
        };
        let rest = rest.trim();
        // `allow(…)` with nothing but whitespace after the final paren.
        let body = match rest.strip_prefix("allow(") {
            Some(r) => match r.rfind(')') {
                Some(p) if r[p + 1..].trim().is_empty() => Some(r[..p].trim()),
                _ => None,
            },
            None => None,
        };
        let Some(body) = body else {
            meta.push(bad(
                "malformed suppression: expected `allow(RULE…, reason = \"…\")` \
                 after `lpmem-lint:`"
                    .to_string(),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut reason: Option<String> = None;
        let mut ok = true;
        for item in split_args(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(r) = item.strip_prefix("reason") {
                let r = r.trim_start();
                match r.strip_prefix('=').map(str::trim) {
                    Some(q) if q.len() >= 2 && q.starts_with('"') && q.ends_with('"') => {
                        reason = Some(q[1..q.len() - 1].to_string());
                    }
                    _ => {
                        meta.push(bad(
                            "malformed suppression: reason must be `reason = \"…\"`".to_string(),
                        ));
                        ok = false;
                        break;
                    }
                }
            } else if is_source_rule(item) {
                rules.push(item.to_string());
            } else {
                meta.push(bad(format!("malformed suppression: unknown rule `{item}`")));
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        match &reason {
            None => {
                meta.push(bad("suppression missing its mandatory reason".to_string()));
                continue;
            }
            Some(r) if r.trim().is_empty() => {
                meta.push(bad("suppression reason is empty".to_string()));
                continue;
            }
            Some(_) => {}
        }
        if rules.is_empty() {
            meta.push(bad("suppression allows no rules".to_string()));
            continue;
        }
        let target_line = target_line_for(c.line, tokens);
        let used = vec![false; rules.len()];
        out.push(Suppression {
            comment_line: c.line,
            target_line,
            rules,
            used,
        });
    }
    out
}

/// Splits a suppression body on top-level commas (commas inside the quoted
/// reason do not split).
fn split_args(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in body.char_indices() {
        match ch {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    parts.push(&body[start..]);
    parts
}

/// The line a suppression comment covers: its own line when code shares
/// it, otherwise the next line carrying code.
fn target_line_for(comment_line: u32, tokens: &[crate::lexer::Token]) -> u32 {
    if tokens.iter().any(|t| t.line == comment_line) {
        return comment_line;
    }
    tokens
        .iter()
        .map(|t| t.line)
        .filter(|&l| l > comment_line)
        .min()
        .unwrap_or(comment_line)
}

/// Collects the workspace's lintable files: `crates/`, `src/`, `tests/`,
/// and `examples/` under `root`, skipping `target` and any `fixtures`
/// corpus directories. Returned paths are root-relative, forward-slashed,
/// and sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    // A bare directory of snippets (the fixture corpus itself) lints too.
    if files.is_empty() {
        walk(root, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "target" | "fixtures") || name.starts_with('.') {
                continue;
            }
            walk(&path, root, files)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                files.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

/// Lints everything under `root` per `opts`. All selected files form one
/// workspace, so the semantic phase sees cross-file and cross-crate
/// flows.
pub fn lint_root(root: &Path, opts: &Options) -> io::Result<Report> {
    let mut inputs = Vec::new();
    for rel in workspace_files(root)? {
        if !opts.paths.is_empty() && !opts.paths.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        let src = fs::read_to_string(root.join(&rel))?;
        inputs.push((rel, src));
    }
    Ok(lint_files(&inputs, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> (Vec<Diag>, Vec<Diag>) {
        lint_source(rel, src, &Options::default())
    }

    // A clock read escaping through an uncalled pub fn's return value:
    // the semantic phase cannot prove it safe, so D02 stays live for the
    // suppression to match.
    const ESCAPING_CLOCK: &str =
        "pub fn wall() -> u128 { std::time::Instant::now().elapsed().as_nanos() }";

    #[test]
    fn same_line_suppression_silences_the_diagnostic() {
        let src = format!("{ESCAPING_CLOCK} // lpmem-lint: allow(D02, reason = \"doc example\")\n");
        let (diags, suppressed) = run("crates/x/src/lib.rs", &src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].rule, "D02");
    }

    #[test]
    fn own_line_suppression_covers_the_next_code_line() {
        let src = format!(
            "\n// lpmem-lint: allow(D02, reason = \"startup banner only\")\n{ESCAPING_CLOCK}\n"
        );
        let (diags, suppressed) = run("crates/x/src/lib.rs", &src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(suppressed[0].line, 3);
    }

    #[test]
    fn retracted_diagnostic_turns_its_suppression_into_l02() {
        // The clock value dies locally: the heuristic D02 is retracted,
        // so the suppression covering it is obsolete (L02, anchored at
        // the comment), not merely unused (L01).
        let src = "fn t() -> u64 {\n\
                   // lpmem-lint: allow(D02, reason = \"now stale\")\n\
                   let t0 = std::time::Instant::now();\n\
                   let _ = t0.elapsed();\n\
                   7\n\
                   }\n";
        let (diags, suppressed) = run("crates/x/src/lib.rs", src);
        assert!(suppressed.is_empty(), "unexpected: {suppressed:?}");
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L02");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("obsolete"));
    }

    #[test]
    fn one_comment_can_allow_multiple_rules() {
        let src = "// lpmem-lint: allow(D02, D03, reason = \"timing the seed mixer demo\")\nlet t = (Instant::now(), my_seed ^ 3);\n";
        let (diags, suppressed) = run("crates/x/src/lib.rs", src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn missing_reason_is_l00() {
        let src = format!("// lpmem-lint: allow(D02)\n{ESCAPING_CLOCK}\n");
        let (diags, _) = run("crates/x/src/lib.rs", &src);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        // The suppression is void, so the D02 survives alongside the L00.
        assert_eq!(rules, vec!["L00", "D02"]);
    }

    #[test]
    fn empty_reason_unknown_rule_and_typos_are_l00() {
        for src in [
            "// lpmem-lint: allow(D02, reason = \"\")\n",
            "// lpmem-lint: allow(D99, reason = \"x\")\n",
            "// lpmem-lint: allow(L01, reason = \"meta-rules are unsuppressible\")\n",
            "// lpmem-lint allow(D02, reason = \"missing colon\")\n",
            "// lpmem-lint: allow(reason = \"no rules\")\n",
        ] {
            let (diags, _) = run("crates/x/src/lib.rs", src);
            assert_eq!(diags.len(), 1, "for {src:?}: {diags:?}");
            assert_eq!(diags[0].rule, "L00", "for {src:?}");
        }
    }

    #[test]
    fn unused_suppressions_are_l01() {
        let src = "// lpmem-lint: allow(D04, reason = \"stale claim\")\nlet x = 1;\n";
        let (diags, _) = run("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L01");
        assert!(diags[0].message.contains("D04"));
    }

    #[test]
    fn reasons_may_contain_commas_and_parens() {
        let src = format!("{ESCAPING_CLOCK} // lpmem-lint: allow(D02, reason = \"a, b (c), d\")\n");
        let (diags, suppressed) = run("crates/x/src/lib.rs", &src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn rule_filter_disables_meta_rules() {
        let opts = Options {
            rules: Some(["D02".to_string()].into_iter().collect()),
            paths: Vec::new(),
        };
        let src = format!(
            "// lpmem-lint: allow(D04, reason = \"would be L01 unfiltered\")\n{ESCAPING_CLOCK}\n"
        );
        let (diags, _) = lint_source("crates/x/src/lib.rs", &src, &opts);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["D02"]);
    }

    #[test]
    fn walk_is_sorted_and_skips_fixtures() {
        let tmp = std::env::temp_dir().join(format!("lpmem_lint_walk_{}", std::process::id()));
        let mk = |p: &str| {
            let full = tmp.join(p);
            fs::create_dir_all(full.parent().expect("joined path has a parent"))
                .expect("create test tree");
            fs::write(full, "fn x() {}\n").expect("write test file");
        };
        mk("crates/b/src/lib.rs");
        mk("crates/a/src/lib.rs");
        mk("crates/a/tests/fixtures/bad.rs");
        mk("src/lib.rs");
        mk("tests/t.rs");
        let files = workspace_files(&tmp).expect("walk succeeds");
        fs::remove_dir_all(&tmp).ok();
        assert_eq!(
            files,
            vec![
                "crates/a/src/lib.rs",
                "crates/b/src/lib.rs",
                "src/lib.rs",
                "tests/t.rs"
            ]
        );
    }
}
