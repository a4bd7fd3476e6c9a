//! The D-series/A-series rule catalog and its token-level implementations.
//!
//! Every rule targets a hazard this workspace has actually shipped code
//! against (see `docs/lint-rules.md` for the catalog with trigger
//! examples):
//!
//! * **D01** — unsorted iteration over a `HashMap`/`HashSet` feeding
//!   serialization or accumulation: the byte-identity killer for the sweep
//!   and explore JSONL reports.
//! * **D02** — `std::time::Instant`/`SystemTime` outside
//!   `lpmem-util::bench`: wall-clock time must never reach a scored path.
//! * **D03** — seed construction by raw arithmetic instead of
//!   `SplitMix64::derive`: ad-hoc `seed ^ c` schemes decorrelate poorly
//!   and cannot express coordinate paths.
//! * **D04** — `unwrap()` / `expect("")` in library (non-test, non-bin)
//!   code: invariants must be named or typed.
//! * **D05** — float accumulation (`sum::<f64>()`) over an unordered hash
//!   iteration: float addition does not commute bit-for-bit.
//! * **A01** — raw narrowing `as` casts inside the accounting crates
//!   (`lpmem-energy`, `lpmem-fault`, `lpmem-cmp`): silent truncation
//!   corrupts exact-energy claims, fault-campaign counters, and shared-LLC
//!   outcome counters alike.
//!
//! The implementations are deliberately heuristic: token patterns plus
//! file-local binding tracking, no type inference. False positives are the
//! design — the reasoned suppression (`// lpmem-lint: allow(D01, reason =
//! "…")`) is how a human records *why* a flagged site is sound, which is
//! the auditability the DATE 2003 reproductions need.

use std::collections::BTreeSet;

use crate::diag::Diag;
use crate::lexer::{Token, TokenKind};

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier (`D01`).
    pub id: &'static str,
    /// One-line summary shown by `lint --list`.
    pub summary: &'static str,
}

/// The full rule catalog, in identifier order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "D01",
        summary: "unsorted HashMap/HashSet iteration feeding emission or accumulation",
    },
    RuleInfo {
        id: "D02",
        summary: "Instant/SystemTime outside lpmem-util::bench",
    },
    RuleInfo {
        id: "D03",
        summary: "seed construction by raw arithmetic instead of SplitMix64::derive",
    },
    RuleInfo {
        id: "D04",
        summary: "unwrap()/expect(\"\") in library (non-test, non-bin) code",
    },
    RuleInfo {
        id: "D05",
        summary: "float accumulation over unordered hash iteration",
    },
    RuleInfo {
        id: "A01",
        summary: "narrowing `as` cast inside accounting code (energy, fault, cmp)",
    },
    RuleInfo {
        id: "A02",
        summary: "unchecked integer product absorbed by an accounting accumulator",
    },
    RuleInfo {
        id: "T01",
        summary: "nondeterministic value flows into an emission path (taint analysis)",
    },
    RuleInfo {
        id: "T02",
        summary: "hash-order/worker taint returned across a crate API boundary",
    },
    RuleInfo {
        id: "L00",
        summary: "malformed lpmem-lint suppression comment",
    },
    RuleInfo {
        id: "L01",
        summary: "suppression that suppresses nothing",
    },
    RuleInfo {
        id: "L02",
        summary: "obsolete suppression: semantic analysis proves the site safe",
    },
];

/// `true` when `id` names a suppressible source rule (not a meta-rule).
pub fn is_source_rule(id: &str) -> bool {
    CATALOG.iter().any(|r| r.id == id && !r.id.starts_with('L'))
}

/// Hash-container iteration methods whose order is arbitrary. The
/// semantic phase classifies its hash-iteration sources by the same list.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens that make an iteration statement order-insensitive: an explicit
/// sort, a collect into an ordered container, or a terminal fold whose
/// result cannot depend on visit order.
const ORDER_SAFE: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "any",
    "all",
    "contains",
    "contains_key",
    "is_empty",
    "min",
    "max",
];

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel_path: &'a str,
    /// Code tokens of the file.
    pub tokens: &'a [Token],
    /// Library code: D04 applies. False for tests/benches/examples/bins.
    pub is_library: bool,
    /// Inside an accounting crate (energy, fault, cmp): A01 applies.
    pub is_accounting: bool,
    /// The sanctioned wall-clock module (`util/src/bench.rs`): D02 exempt.
    pub exempt_time: bool,
    /// The PRNG implementation itself (`util/src/rng.rs`): D03 exempt.
    pub exempt_seed: bool,
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
    /// File-local identifiers bound to a `HashMap`/`HashSet`.
    hash_vars: BTreeSet<String>,
}

impl<'a> FileContext<'a> {
    /// Classifies `rel_path` and precomputes test regions and hash
    /// bindings from the token stream.
    pub fn new(rel_path: &'a str, tokens: &'a [Token]) -> Self {
        let segments: Vec<&str> = rel_path.split('/').collect();
        let file = segments.last().copied().unwrap_or("");
        let non_library = segments
            .iter()
            .any(|s| matches!(*s, "tests" | "benches" | "examples" | "bin"))
            || matches!(file, "main.rs" | "build.rs");
        FileContext {
            rel_path,
            tokens,
            is_library: !non_library,
            is_accounting: segments
                .iter()
                .any(|s| s.contains("energy") || s.contains("fault") || s.contains("cmp")),
            exempt_time: rel_path.ends_with("util/src/bench.rs"),
            exempt_seed: rel_path.ends_with("util/src/rng.rs"),
            test_regions: test_regions(tokens),
            hash_vars: collect_hash_vars(tokens),
        }
    }

    /// `true` when `line` is inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The hash-container bindings found in this file (for tests).
    pub fn hash_vars(&self) -> &BTreeSet<String> {
        &self.hash_vars
    }

    fn diag(&self, line: u32, rule: &'static str, message: String) -> Diag {
        Diag {
            path: self.rel_path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Runs every source rule (optionally restricted to `filter`) over a file.
pub fn run_rules(ctx: &FileContext<'_>, filter: Option<&BTreeSet<String>>) -> Vec<Diag> {
    let on = |id: &str| filter.is_none_or(|f| f.contains(id));
    let mut diags = Vec::new();
    if on("D01") || on("D05") {
        diags.extend(d01_d05(ctx, on("D01"), on("D05")));
    }
    if on("D02") {
        diags.extend(d02(ctx));
    }
    if on("D03") {
        diags.extend(d03(ctx));
    }
    if on("D04") {
        diags.extend(d04(ctx));
    }
    if on("A01") {
        diags.extend(a01(ctx));
    }
    diags.sort();
    diags.dedup();
    diags
}

/// Finds `#[cfg(test)]` / `#[test]` item regions as line ranges.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Attr || !attr_mentions_test(&t.text) {
            continue;
        }
        // First `{` after the attribute opens the item; match it.
        let Some(open) = tokens[i..].iter().position(|t| t.is_punct('{')) else {
            continue;
        };
        let open = i + open;
        let mut depth = 0i64;
        let mut close_line = tokens[tokens.len() - 1].line;
        for t in &tokens[open..] {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    close_line = t.line;
                    break;
                }
            }
        }
        regions.push((t.line, close_line));
    }
    regions
}

/// `true` when an attribute's text contains `test` as a whole word
/// (`#[cfg(test)]`, `#[test]` — but not `#[cfg(feature = "latest")]`).
fn attr_mentions_test(attr: &str) -> bool {
    let bytes = attr.as_bytes();
    let is_word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    attr.match_indices("test").any(|(at, _)| {
        let before_ok = at == 0 || !is_word(bytes[at - 1]);
        let after = at + "test".len();
        let after_ok = after >= bytes.len() || !is_word(bytes[after]);
        before_ok && after_ok
    })
}

/// Collects identifiers bound to `HashMap`/`HashSet`: `let` bindings with
/// constructor right-hand sides, and `name: …HashMap<…>` annotations
/// (fields, parameters, annotated lets).
fn collect_hash_vars(tokens: &[Token]) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if let Some(name) = binding_name_before(tokens, i) {
            vars.insert(name);
        }
    }
    vars
}

/// Walks backwards from a `HashMap`/`HashSet` token to the identifier it
/// is bound to, if the surrounding tokens look like a binding.
fn binding_name_before(tokens: &[Token], at: usize) -> Option<String> {
    let mut j = at;
    let mut steps = 0;
    while j > 0 && steps < 16 {
        j -= 1;
        steps += 1;
        let t = &tokens[j];
        match t.kind {
            // Type-path elements: keep walking.
            TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number => continue,
            TokenKind::Punct => {
                let c = t.text.chars().next()?;
                match c {
                    '<' | '>' | '&' | '(' | ')' | ',' => continue,
                    ':' => {
                        // `::` is a path separator; skip the pair.
                        if j > 0 && tokens[j - 1].is_punct(':') {
                            j -= 1;
                            continue;
                        }
                        // Annotation: the name sits just before the colon.
                        let name = &tokens[j.checked_sub(1)?];
                        if name.kind == TokenKind::Ident && !is_keyword(&name.text) {
                            return Some(name.text.clone());
                        }
                        return None;
                    }
                    '=' => {
                        // `let [mut] name = HashMap::new()` or a plain
                        // statement-initial `name = HashMap::new()`.
                        let name = &tokens[j.checked_sub(1)?];
                        if name.kind != TokenKind::Ident || is_keyword(&name.text) {
                            return None;
                        }
                        let before = j.checked_sub(2).map(|k| &tokens[k]);
                        let anchored = match before {
                            None => true,
                            Some(b) => {
                                b.is_ident("let")
                                    || b.is_ident("mut")
                                    || b.is_punct(';')
                                    || b.is_punct('{')
                                    || b.is_punct('}')
                            }
                        };
                        return anchored.then(|| name.text.clone());
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    None
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "mut"
            | "pub"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "match"
            | "if"
            | "else"
            | "for"
            | "in"
            | "while"
            | "return"
            | "use"
            | "mod"
            | "where"
            | "as"
            | "ref"
    )
}

/// D01 + D05: iteration over a file-local hash container that neither
/// sorts nor ends in an order-insensitive fold.
fn d01_d05(ctx: &FileContext<'_>, emit_d01: bool, emit_d05: bool) -> Vec<Diag> {
    let tokens = ctx.tokens;
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // Pattern a: `name.iter()` / `name.values()` / … on a hash binding.
        let method_site = t.kind == TokenKind::Ident
            && ctx.hash_vars.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.iter().any(|im| m.is_ident(im)))
            && tokens.get(i + 3).is_some_and(|p| p.is_punct('('));
        if method_site {
            let stmt = statement_span(tokens, i);
            match classify_statement(tokens, stmt) {
                StatementOrder::Safe => {}
                StatementOrder::FloatSum if emit_d05 => diags.push(ctx.diag(
                    t.line,
                    "D05",
                    format!(
                        "float accumulation over unordered iteration of `{}`; \
                         sort the keys before summing",
                        t.text
                    ),
                )),
                StatementOrder::FloatSum => {}
                StatementOrder::Unordered if emit_d01 => diags.push(ctx.diag(
                    t.line,
                    "D01",
                    format!(
                        "unsorted iteration over hash container `{}`; sort before \
                         emitting or folding (or use a BTreeMap/BTreeSet)",
                        t.text
                    ),
                )),
                StatementOrder::Unordered => {}
            }
            continue;
        }
        // Pattern b: `for pat in [&][mut] name {` over a hash binding.
        if t.is_ident("for") && emit_d01 {
            if let Some(name) = for_loop_over_hash(ctx, tokens, i) {
                diags.push(ctx.diag(
                    t.line,
                    "D01",
                    format!(
                        "for-loop over hash container `{name}` visits entries in \
                         arbitrary order; iterate sorted keys instead"
                    ),
                ));
            }
        }
    }
    diags
}

/// How a hash-iteration statement treats visit order.
enum StatementOrder {
    /// Sorted, collected into an ordered container, or order-free fold.
    Safe,
    /// Ends in a float sum: order reaches the bits of the result.
    FloatSum,
    /// Order leaks and nothing re-establishes it.
    Unordered,
}

/// The token range of the statement containing index `at`, plus a small
/// look-ahead window after it (for the `let v = …collect(); v.sort();`
/// idiom).
fn statement_span(tokens: &[Token], at: usize) -> (usize, usize) {
    // Backwards to the previous `;`, `{`, or `}` at relative depth zero.
    let mut start = at;
    let mut depth = 0i64;
    while start > 0 {
        let t = &tokens[start - 1];
        let c = t.text.chars().next();
        match (t.kind, c) {
            (TokenKind::Punct, Some(')' | ']' | '}')) => depth += 1,
            (TokenKind::Punct, Some('(' | '[' | '{')) => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            (TokenKind::Punct, Some(';')) if depth == 0 => break,
            _ => {}
        }
        start -= 1;
    }
    // Forwards to the closing `;` (or the end of the enclosing block).
    let mut end = at;
    let mut depth = 0i64;
    while end < tokens.len() {
        let t = &tokens[end];
        let c = t.text.chars().next();
        match (t.kind, c) {
            (TokenKind::Punct, Some('(' | '[' | '{')) => depth += 1,
            (TokenKind::Punct, Some(')' | ']' | '}')) => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            (TokenKind::Punct, Some(';')) if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    (start, end)
}

/// Classifies one iteration statement, looking ahead for the
/// collect-then-sort idiom.
fn classify_statement(tokens: &[Token], (start, end): (usize, usize)) -> StatementOrder {
    let stmt = &tokens[start..end.min(tokens.len())];
    let has = |name: &str| stmt.iter().any(|t| t.is_ident(name));
    let float_sum = (has("sum") || has("product")) && (has("f64") || has("f32"));
    if float_sum {
        return StatementOrder::FloatSum;
    }
    if ORDER_SAFE.iter().any(|s| has(s)) {
        return StatementOrder::Safe;
    }
    // Integer folds are order-free; `sum` with no float type in sight is
    // accepted (float sums are written with an explicit `::<f64>` turbofish
    // or annotation everywhere in this workspace).
    if has("sum") || has("product") {
        return StatementOrder::Safe;
    }
    // Look-ahead: `let [mut] v = …collect…;` followed shortly by `v.sort…`.
    if has("collect") && stmt.first().is_some_and(|t| t.is_ident("let")) {
        let mut name_at = 1;
        if stmt.get(name_at).is_some_and(|t| t.is_ident("mut")) {
            name_at += 1;
        }
        if let Some(name) = stmt.get(name_at).filter(|t| t.kind == TokenKind::Ident) {
            let look = &tokens[end..tokens.len().min(end + 48)];
            for (k, t) in look.iter().enumerate() {
                if t.is_ident(&name.text)
                    && look.get(k + 1).is_some_and(|n| n.is_punct('.'))
                    && look
                        .get(k + 2)
                        .is_some_and(|m| m.kind == TokenKind::Ident && m.text.starts_with("sort"))
                {
                    return StatementOrder::Safe;
                }
            }
        }
    }
    StatementOrder::Unordered
}

/// Detects `for pat in [&][mut] name {` over a hash binding; returns the
/// binding name.
fn for_loop_over_hash(ctx: &FileContext<'_>, tokens: &[Token], at: usize) -> Option<String> {
    // Find `in` at depth zero before the loop body opens.
    let mut depth = 0i64;
    let mut j = at + 1;
    let in_at = loop {
        let t = tokens.get(j)?;
        let c = t.text.chars().next();
        match (t.kind, c) {
            (TokenKind::Punct, Some('(' | '[')) => depth += 1,
            (TokenKind::Punct, Some(')' | ']')) => depth -= 1,
            (TokenKind::Punct, Some('{')) if depth == 0 => return None,
            (TokenKind::Ident, _) if depth == 0 && t.text == "in" => break j,
            _ => {}
        }
        j += 1;
    };
    // Between `in` and `{`: only `&`/`mut` plus exactly one identifier,
    // which must be a hash binding (method iterations are pattern a).
    let mut name: Option<&str> = None;
    let mut k = in_at + 1;
    loop {
        let t = tokens.get(k)?;
        if t.is_punct('{') {
            break;
        }
        match t.kind {
            TokenKind::Punct if t.is_punct('&') => {}
            TokenKind::Ident if t.text == "mut" => {}
            TokenKind::Ident if name.is_none() => name = Some(&t.text),
            _ => return None,
        }
        k += 1;
    }
    let name = name?;
    ctx.hash_vars.contains(name).then(|| name.to_string())
}

/// D02: wall-clock time sources outside the sanctioned bench timer.
fn d02(ctx: &FileContext<'_>) -> Vec<Diag> {
    if ctx.exempt_time || ctx.rel_path.split('/').any(|s| s == "benches") {
        return Vec::new();
    }
    ctx.tokens
        .iter()
        .filter(|t| t.is_ident("Instant") || t.is_ident("SystemTime"))
        .map(|t| {
            ctx.diag(
                t.line,
                "D02",
                format!(
                    "`{}` outside lpmem-util::bench: wall-clock time must stay \
                     off scored paths",
                    t.text
                ),
            )
        })
        .collect()
}

/// D03: arithmetic on raw seed values.
fn d03(ctx: &FileContext<'_>) -> Vec<Diag> {
    if ctx.exempt_seed {
        return Vec::new();
    }
    let tokens = ctx.tokens;
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !t.text.to_ascii_lowercase().contains("seed")
            || !t.text.starts_with(|c: char| c.is_lowercase() || c == '_')
        {
            continue;
        }
        let next = tokens.get(i + 1);
        let after = tokens.get(i + 2);
        let arith_next = match next {
            Some(n) if n.kind == TokenKind::Punct => match n.text.chars().next() {
                Some('+' | '^' | '*' | '%') => true,
                Some('-') => !after.is_some_and(|a| a.is_punct('>')),
                Some('<') => after.is_some_and(|a| a.is_punct('<')),
                Some('>') => after.is_some_and(|a| a.is_punct('>')),
                _ => false,
            },
            _ => false,
        };
        let wrapping_next = next.is_some_and(|n| n.is_punct('.'))
            && after.is_some_and(|a| {
                a.kind == TokenKind::Ident
                    && (a.text.starts_with("wrapping_")
                        || a.text.starts_with("rotate_")
                        || a.text.starts_with("overflowing_"))
            });
        let prev = i.checked_sub(1).map(|k| &tokens[k]);
        let arith_prev = prev.is_some_and(|p| {
            p.kind == TokenKind::Punct
                && matches!(p.text.chars().next(), Some('+' | '^' | '*' | '%'))
        });
        if arith_next || wrapping_next || arith_prev {
            diags.push(ctx.diag(
                t.line,
                "D03",
                format!(
                    "arithmetic on raw seed `{}`; derive child seeds with \
                     SplitMix64::derive(base, path)",
                    t.text
                ),
            ));
        }
    }
    diags
}

/// D04: `unwrap()` and `expect("")` in library code outside test regions.
fn d04(ctx: &FileContext<'_>) -> Vec<Diag> {
    if !ctx.is_library {
        return Vec::new();
    }
    let tokens = ctx.tokens;
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test_code(t.line) {
            continue;
        }
        let preceded_by_dot = i > 0 && tokens[i - 1].is_punct('.');
        if !preceded_by_dot {
            continue;
        }
        if t.is_ident("unwrap")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            diags.push(
                ctx.diag(
                    t.line,
                    "D04",
                    "`unwrap()` in library code; return a typed error or use \
                 expect(\"<invariant>\")"
                        .to_string(),
                ),
            );
        } else if t.is_ident("expect")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind == TokenKind::Str && matches!(n.text.as_str(), "\"\"" | "r\"\"")
            })
            && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            diags.push(
                ctx.diag(
                    t.line,
                    "D04",
                    "`expect(\"\")` carries no invariant; state why the value must \
                 exist"
                        .to_string(),
                ),
            );
        }
    }
    diags
}

/// A01: narrowing `as` casts in accounting code (energy totals, fault
/// counters).
fn a01(ctx: &FileContext<'_>) -> Vec<Diag> {
    if !ctx.is_accounting || !ctx.is_library {
        return Vec::new();
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
    let tokens = ctx.tokens;
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") || ctx.in_test_code(t.line) {
            continue;
        }
        if let Some(ty) = tokens.get(i + 1) {
            if ty.kind == TokenKind::Ident && NARROW.contains(&ty.text.as_str()) {
                diags.push(ctx.diag(
                    t.line,
                    "A01",
                    format!(
                        "narrowing `as {}` cast in accounting code; use a \
                         checked conversion or widen the accumulator",
                        ty.text
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diags_for(path: &str, src: &str) -> Vec<Diag> {
        let out = lex(src);
        let ctx = FileContext::new(path, &out.tokens);
        run_rules(&ctx, None)
    }

    fn rules_of(diags: &[Diag]) -> Vec<&str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d01_flags_unsorted_iteration_and_for_loops() {
        let src = r#"
            use std::collections::HashMap;
            fn emit(m: &HashMap<String, u64>) -> String {
                let mut out = String::new();
                for (k, v) in m {
                    out.push_str(&format!("{k}={v}"));
                }
                let pairs: Vec<_> = m.iter().collect();
                out.push_str(&format!("{}", pairs.len()));
                out
            }
        "#;
        let d = diags_for("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&d), vec!["D01", "D01"]);
    }

    #[test]
    fn d01_accepts_sorted_and_order_free_uses() {
        let src = r#"
            use std::collections::HashMap;
            fn ok(m: &HashMap<u64, u64>) -> (usize, u64, Vec<u64>) {
                let n = m.keys().count();
                let total: u64 = m.values().sum();
                let mut ks: Vec<u64> = m.keys().copied().collect();
                ks.sort_unstable();
                (n, total, ks)
            }
        "#;
        assert!(diags_for("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d05_flags_float_sums_over_hash_iteration() {
        let src = r#"
            use std::collections::HashMap;
            fn bad(m: &HashMap<u64, f64>) -> f64 {
                m.values().sum::<f64>()
            }
        "#;
        let d = diags_for("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&d), vec!["D05"]);
    }

    #[test]
    fn d02_fires_everywhere_but_the_bench_timer() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of(&diags_for("crates/x/src/lib.rs", src)),
            vec!["D02", "D02"]
        );
        assert!(diags_for("crates/util/src/bench.rs", src).is_empty());
        assert!(diags_for("crates/x/benches/b.rs", src).is_empty());
    }

    #[test]
    fn d03_flags_seed_arithmetic_but_not_derive() {
        let bad = "fn f(seed: u64) -> u64 { seed ^ 0x9e37 }";
        assert_eq!(
            rules_of(&diags_for("crates/x/src/lib.rs", bad)),
            vec!["D03"]
        );
        let shifted = "fn f(seed: u64) -> u64 { seed << 2 }";
        assert_eq!(
            rules_of(&diags_for("crates/x/src/lib.rs", shifted)),
            vec!["D03"]
        );
        let good = "fn f(seed: u64) -> u64 { SplitMix64::derive(seed, &[1]) }";
        assert!(diags_for("crates/x/src/lib.rs", good).is_empty());
        // Type-position idents (`Seed`) and `->` arrows never trigger.
        let typey = "fn f<S: Seed + Clone>(s: S) -> u64 { 0 }";
        assert!(diags_for("crates/x/src/lib.rs", typey).is_empty());
        // The PRNG implementation itself is exempt.
        assert!(diags_for("crates/util/src/rng.rs", bad).is_empty());
    }

    #[test]
    fn d04_distinguishes_library_test_and_bin_code() {
        let src = r#"
            fn lib_code(v: Option<u32>) -> u32 { v.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        let d = diags_for("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&d), vec!["D04"]);
        assert_eq!(d[0].line, 2);
        assert!(diags_for("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(diags_for("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn d04_flags_empty_expect_only() {
        let empty = r#"fn f(v: Option<u32>) -> u32 { v.expect("") }"#;
        assert_eq!(
            rules_of(&diags_for("crates/x/src/lib.rs", empty)),
            vec!["D04"]
        );
        let named = r#"fn f(v: Option<u32>) -> u32 { v.expect("v is validated above") }"#;
        assert!(diags_for("crates/x/src/lib.rs", named).is_empty());
        // `unwrap_or` family is not `unwrap`.
        let or = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) }";
        assert!(diags_for("crates/x/src/lib.rs", or).is_empty());
    }

    #[test]
    fn a01_fires_only_in_accounting_library_code() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(
            rules_of(&diags_for("crates/energy/src/sram.rs", src)),
            vec!["A01"]
        );
        // The fault crate's campaign counters are accounting too.
        assert_eq!(
            rules_of(&diags_for("crates/fault/src/campaign.rs", src)),
            vec!["A01"]
        );
        // As are the CMP crate's LLC counters and the CMP flow wiring.
        assert_eq!(
            rules_of(&diags_for("crates/cmp/src/sim.rs", src)),
            vec!["A01"]
        );
        assert_eq!(
            rules_of(&diags_for("crates/core/src/flows/cmp.rs", src)),
            vec!["A01"]
        );
        assert!(diags_for("crates/mem/src/cache.rs", src).is_empty());
        // "cmp" matches the path segment, not "compress".
        assert!(diags_for("crates/compress/src/diff.rs", src).is_empty());
        let widen = "fn f(x: u32) -> u64 { x as u64 }";
        assert!(diags_for("crates/energy/src/sram.rs", widen).is_empty());
        assert!(diags_for("crates/fault/src/codec.rs", widen).is_empty());
    }

    #[test]
    fn comments_strings_and_attrs_never_trigger() {
        let src = r#"
            // seed ^ 1, Instant::now(), map.unwrap()
            /* let x = HashMap::new(); x.iter() */
            #[doc = "Instant seed ^ 2 unwrap()"]
            fn quiet() -> &'static str { "Instant seed ^ 3 .unwrap()" }
        "#;
        assert!(diags_for("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hash_binding_detection_covers_the_workspace_idioms() {
        let src = r#"
            use std::collections::{HashMap, HashSet};
            struct S { part_cache: Mutex<HashMap<u64, f64>> }
            fn f(weights: &HashMap<(usize, usize), u64>) {
                let mut seen: HashSet<String> = HashSet::new();
                let mut fresh = HashMap::new();
                let collected: Vec<(u64, u64)> = pairs.iter().copied().collect::<HashMap<_, _>>().into_iter().collect();
            }
        "#;
        let out = lex(src);
        let ctx = FileContext::new("crates/x/src/lib.rs", &out.tokens);
        let vars: Vec<&str> = ctx.hash_vars().iter().map(|s| s.as_str()).collect();
        assert_eq!(vars, vec!["fresh", "part_cache", "seen", "weights"]);
    }
}
