//! Parser coverage gates (DESIGN.md §14).
//!
//! Three properties, in escalating order of hostility:
//!
//! 1. **Total workspace coverage.** The parser consumes every `.rs` file
//!    in the live workspace with *zero* recovery — the grammar models the
//!    whole Rust subset this repo writes. A new language construct that
//!    the parser can't model fails here first, loudly, instead of silently
//!    degrading the taint analysis that sits on top of the AST.
//! 2. **Span round-trip.** Every AST span is a valid, char-boundary byte
//!    range of the original source, items and statements nest, and
//!    leaf-token spans reproduce their exact source text.
//! 3. **Seeded truncation fuzz.** Random byte-prefixes of real workspace
//!    files (the nastiest malformed input: always almost-valid) must parse
//!    without panicking. Counterexamples get pinned as regression
//!    fixtures in `tests/fixtures/parser_crash_*.rs`.

use std::fs;
use std::path::Path;

use lpmem_lint::ast::{
    walk_block, walk_item_exprs, Expr, ExprKind, Item, ItemKind, SourceFile, Span,
};
use lpmem_lint::engine::workspace_files;
use lpmem_lint::parse::parse_file;
use lpmem_util::Props;

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One file under check: its text and the byte offset of every line
/// start, so a span's line is a binary search instead of a newline count
/// from the start of the file.
struct Source<'a> {
    rel: &'a str,
    text: &'a str,
    line_starts: Vec<usize>,
}

impl<'a> Source<'a> {
    fn new(rel: &'a str, text: &'a str) -> Self {
        let line_starts = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        Source {
            rel,
            text,
            line_starts,
        }
    }

    /// The 1-based line of byte offset `at`: one plus the newlines before it.
    fn line_of(&self, at: usize) -> u32 {
        self.line_starts.partition_point(|&start| start <= at) as u32
    }
}

fn check_span(span: Span, file: &Source, what: &str) {
    let (rel, src) = (file.rel, file.text);
    let (lo, hi) = (span.lo as usize, span.hi as usize);
    assert!(
        lo <= hi && hi <= src.len(),
        "{rel}: {what} span {lo}..{hi} out of bounds (len {})",
        src.len()
    );
    assert!(
        src.is_char_boundary(lo) && src.is_char_boundary(hi),
        "{rel}: {what} span {lo}..{hi} splits a char"
    );
    if lo < hi {
        let line = file.line_of(lo);
        assert_eq!(
            span.line, line,
            "{rel}: {what} span {lo}..{hi} claims line {} but starts on line {line}",
            span.line
        );
    }
}

fn check_item_spans(item: &Item, file: &Source) {
    let (rel, src) = (file.rel, file.text);
    check_span(item.span, file, "item");
    match &item.kind {
        ItemKind::Impl(imp) => {
            for it in &imp.items {
                check_item_spans(it, file);
            }
        }
        ItemKind::Trait(tr) => {
            for it in &tr.items {
                check_item_spans(it, file);
            }
        }
        ItemKind::Mod(m) => {
            if let Some(items) = &m.items {
                for it in items {
                    check_item_spans(it, file);
                }
            }
        }
        ItemKind::Fn(func) => {
            check_span(func.name_span, file, "fn name");
            if !func.name.is_empty() {
                let (lo, hi) = (func.name_span.lo as usize, func.name_span.hi as usize);
                assert_eq!(
                    &src[lo..hi],
                    func.name,
                    "{rel}: fn name span does not round-trip"
                );
            }
        }
        _ => {}
    }
    walk_item_exprs(item, &mut |e: &Expr| {
        check_span(e.span, file, "expr");
        // Leaf spans reproduce their exact source text.
        match &e.kind {
            ExprKind::Lit(text) => {
                let (lo, hi) = (e.span.lo as usize, e.span.hi as usize);
                assert_eq!(
                    &src[lo..hi],
                    text,
                    "{rel}: literal span does not round-trip"
                );
            }
            ExprKind::Path(segs) if segs.len() == 1 && !segs[0].is_empty() => {
                let (lo, hi) = (e.span.lo as usize, e.span.hi as usize);
                // Synthesized format-capture paths point at the whole
                // string literal; a turbofish (`f::<T>`) is stripped from
                // the segments but kept in the span; plain paths
                // reproduce the identifier exactly.
                let text = &src[lo..hi];
                assert!(
                    text == segs[0]
                        || text.starts_with(&format!("{}::", segs[0]))
                        || text.starts_with('"')
                        || text.starts_with('r'),
                    "{rel}: path span `{text}` != segment `{}`",
                    segs[0]
                );
            }
            _ => {}
        }
    });
}

fn parse_and_check(rel: &str, src: &str) -> SourceFile {
    let file = parse_file(src);
    let source = Source::new(rel, src);
    for item in &file.items {
        check_item_spans(item, &source);
    }
    file
}

#[test]
fn parser_consumes_every_workspace_file_without_recovery() {
    let root = repo_root();
    let files = workspace_files(&root).expect("workspace walk");
    assert!(files.len() > 50, "walk looks wrong: {} files", files.len());
    let mut failures = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).expect("read source");
        let file = parse_and_check(rel, &src);
        if file.recovered > 0 {
            failures.push(format!(
                "{rel}: {} recoveries at lines {:?}",
                file.recovered, file.recovered_lines
            ));
        }
        assert!(
            !file.items.is_empty() || src.trim().is_empty(),
            "{rel}: parsed to zero items"
        );
    }
    assert!(
        failures.is_empty(),
        "the parser must model the whole workspace; files needing recovery:\n{}",
        failures.join("\n")
    );
}

#[test]
fn parser_survives_seeded_truncations_of_real_files() {
    let root = repo_root();
    let files = workspace_files(&root).expect("workspace walk");
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|rel| {
            let src = fs::read_to_string(root.join(rel)).expect("read source");
            (rel.clone(), src)
        })
        .collect();
    Props::new("parser survives truncated workspace files")
        .cases(256)
        .run(|rng| {
            let (rel, src) = &sources[(rng.next_u64() % sources.len() as u64) as usize];
            if src.is_empty() {
                return;
            }
            let mut cut = (rng.next_u64() % src.len() as u64) as usize;
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            let truncated = &src[..cut];
            // Must not panic; spans must stay inside the truncated text.
            parse_and_check(&format!("{rel}[..{cut}]"), truncated);
        });
}

#[test]
fn parser_crash_regressions_stay_fixed() {
    // Counterexamples found while developing the parser, pinned forever.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut found = 0;
    for entry in fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.starts_with("parser_crash_") {
            continue;
        }
        found += 1;
        let src = fs::read_to_string(&path).expect("read crash fixture");
        parse_and_check(name, &src);
    }
    assert!(found > 0, "expected at least one parser_crash_* fixture");
}

#[test]
fn block_statements_nest_within_their_function() {
    // Structural sanity on one hand-written file: statement expressions
    // sit inside their enclosing block's span.
    let src = r#"
pub fn outer(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(i);
    }
    acc
}
"#;
    let file = parse_and_check("inline.rs", src);
    assert_eq!(file.recovered, 0);
    for item in &file.items {
        if let ItemKind::Fn(func) = &item.kind {
            let body = func.body.as_ref().expect("body");
            walk_block(body, &mut |e| {
                assert!(
                    e.span.lo >= body.span.lo && e.span.hi <= body.span.hi,
                    "expr span escapes its block"
                );
            });
        }
    }
}
