//! Inter-procedural determinism taint analysis.
//!
//! The heuristic rules (D01–D03) flag *patterns*: any hash iteration, any
//! clock read, any seed arithmetic. This module flags *flows*: a
//! nondeterministic value (hash-iteration order, wall-clock time, worker
//! parallelism) that actually reaches an emission path — a JSONL renderer
//! or a [`Trace`] — where byte-stability is the contract. Working over the
//! resolved workspace ([`crate::resolve`]) it computes a per-function
//! summary (which parameters flow to the return value, which flow into a
//! sink, which escape) and iterates to a fixpoint over the call graph.
//!
//! Three rule families come out of it:
//!
//! * **T01** — a taint source reaches an emission path. The finding is
//!   anchored at the sink, names the source, and *subsumes* the heuristic
//!   diagnostic at the source line.
//! * **T02** — a `pub fn` returns a hash-order- or worker-tainted value
//!   that a *different* crate consumes. Clock taint is exempt: wall-clock
//!   instrumentation legitimately crosses APIs into human-readable tables.
//! * **A02** — an integer accumulator in accounting code (`energy`,
//!   `fault`, `cmp` paths) absorbs an unchecked product.
//!
//! Where the flow analysis *proves* a heuristic site safe — the taint dies
//! before any sink and never escapes — the heuristic diagnostic is
//! retracted, and a suppression that only covered a retracted diagnostic
//! becomes **L02** ("obsolete suppression") instead of L01.
//!
//! The analysis is deliberately asymmetric: console output (`println!`,
//! tables) is *not* a sink — the determinism contract covers JSONL and
//! trace artifacts, not human-readable instrumentation — but a tainted
//! value passed to an *unresolvable* free function is treated as escaped,
//! which keeps the heuristic diagnostic alive rather than wrongly
//! retracting it.
//!
//! D03 gets a dedicated treatment: instead of value flow, a greatest-
//! fixpoint *expander* analysis decides whether every seed-arithmetic
//! expression on a line is consumed by a sanctioned stream expander
//! (`seed_from_u64`, `SplitMix64::derive`/`new`, or a workspace function
//! whose parameter provably flows only into such expanders). Raw
//! arithmetic that *becomes RNG state directly* (an inline LCG) is kept.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Block, Expr, ExprKind, Pat, Stmt};
use crate::diag::Diag;
use crate::resolve::{CallTarget, FnId, UnresolvedKind, Workspace};
use crate::rules::ITER_METHODS;

/// Parameter tokens live above this bit; everything below is a site id.
const PARAM_BASE: u32 = 0x8000_0000;
/// The whole-`self` taint token.
const SELF_TOK: u32 = u32::MAX;

/// Function names that ARE emission paths: taint reaching their return
/// value (or their parameters) is a T01 finding.
const SINK_NAMES: &[&str] = &[
    "json_line",
    "jsonl",
    "jsonl_body",
    "to_jsonl",
    "write_jsonl",
];

/// `Trace` methods that emit: tainted arguments are findings.
const TRACE_SINK_METHODS: &[&str] = &["push", "extend", "extend_from_slice"];

/// Integer type heads for the A02 operand check.
const INT_HEADS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "#int",
];

/// What kind of nondeterminism a taint site introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// `HashMap`/`HashSet` iteration order.
    HashIter,
    /// `Instant::now()` / `SystemTime::now()`.
    Clock,
    /// `available_parallelism()` / `thread::current()`.
    WorkerIdx,
}

impl SourceKind {
    fn describe(self) -> &'static str {
        match self {
            SourceKind::HashIter => "hash-iteration order",
            SourceKind::Clock => "wall-clock time",
            SourceKind::WorkerIdx => "worker parallelism",
        }
    }
}

/// One taint source occurrence.
#[derive(Debug, Clone)]
pub struct Site {
    /// What the site introduces.
    pub kind: SourceKind,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line (matches the heuristic diagnostic's line).
    pub line: u32,
}

/// Analysis counters for the bench report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Functions summarized.
    pub functions: usize,
    /// Taint sites discovered.
    pub taint_sites: usize,
    /// Call edges resolved to workspace functions (or modeled std/ctor).
    pub resolved_calls: usize,
    /// Call edges that stayed unresolved.
    pub unresolved_calls: usize,
    /// Function bodies the value-flow fixpoint interpreted.
    pub summaries: usize,
    /// Function bodies the expander fixpoint scanned, recording pass
    /// included.
    pub expander_scans: usize,
}

/// Everything the engine needs from one semantic pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// T01/T02/A02 diagnostics (unsorted; the engine merges and sorts).
    pub diags: Vec<Diag>,
    /// Heuristic diagnostics proven safe or subsumed: `(path, line, rule)`.
    pub retract: BTreeSet<(String, u32, String)>,
    /// Counters.
    pub stats: Stats,
}

/// A taint token set: site ids, parameter tokens, and `SELF_TOK`.
type Set = BTreeSet<u32>;
/// Where a sink fired: `(file index, line, sink name)`.
type SinkLoc = (usize, u32, String);

/// Per-function dataflow summary. `ret` maps every token reaching the
/// return value to the first line that contributed it.
#[derive(Debug, Clone, Default, PartialEq)]
struct Summary {
    ret: BTreeMap<u32, u32>,
    param_sink: BTreeMap<usize, BTreeSet<SinkLoc>>,
    param_escape: BTreeSet<usize>,
}

/// A call site's resolution as the pre-pass found it, in eight bytes,
/// since every resolved call in every analyzed body keeps one.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// One workspace function.
    Fn(u32),
    /// Trait-object dispatch: an index into [`Analyzer::dispatch`].
    Trait(u32),
    /// `std` or a constructor, modeled by name.
    Modeled,
    /// Nothing matched; the pre-pass keeps no entry for these.
    Unresolved,
}

/// The functions that read one summary, field or set of expander flags,
/// sorted.
type Readers = Vec<u32>;

/// Function-local interpreter state.
struct Local {
    f: FnId,
    file: usize,
    vars: BTreeMap<String, Set>,
    ret: BTreeMap<u32, u32>,
    param_sink: BTreeMap<usize, BTreeSet<SinkLoc>>,
    param_escape: BTreeSet<usize>,
    /// Branch nesting depth: assignments inside branches union instead of
    /// replacing, so either arm's taint survives the join.
    depth: u32,
}

struct Analyzer<'a> {
    ws: &'a Workspace,
    /// Files that parsed with zero recoveries; only these may retract.
    clean: Vec<bool>,
    sites: Vec<Site>,
    site_at: BTreeMap<(usize, u32), u32>,
    /// Every resolved call site's target, found once by the pre-pass and
    /// sorted by `(file, span lo, span hi)` (a chained call shares its
    /// receiver's `lo`, never its `hi`). A call without an entry is
    /// unresolved.
    calls: Vec<((u32, u32, u32), Callee)>,
    /// The candidates of each trait-object call.
    dispatch: Vec<Vec<FnId>>,
    sums: Vec<Summary>,
    /// Functions that read each summary, through `apply_call`.
    sum_readers: Vec<Readers>,
    /// Struct-field taint, closed-world: `(type head, field)` → sites.
    fields: BTreeMap<(&'a str, &'a str), Set>,
    /// Functions that read each struct field.
    field_readers: BTreeMap<(&'a str, &'a str), Readers>,
    /// Functions that read something that changed since their last
    /// visit; a fixpoint round visits only these.
    dirty: Vec<bool>,
    escaped: Set,
    /// Sites named by a T01/T02 diagnostic (subsumed, so retractable).
    reported: Set,
    findings: BTreeSet<(u32, SinkLoc)>,
    /// Functions some workspace call resolves to.
    called: Vec<bool>,
    /// Cross-unit resolved edges: `(callee, caller unit)`.
    cross: BTreeSet<(FnId, String)>,
    /// Greatest-fixpoint "parameter flows only into stream expanders".
    expander: Vec<Vec<bool>>,
    /// Functions that read each function's expander flags.
    exp_readers: Vec<Readers>,
    exp_recording: bool,
    /// Lines whose seed arithmetic is expander-consumed / raw.
    exp_lines: BTreeSet<(usize, u32)>,
    bare_lines: BTreeSet<(usize, u32)>,
    stats: Stats,
}

/// Runs the full semantic pass over a resolved workspace. `heuristics`
/// are the *pre-suppression* heuristic diagnostics; the retract set is
/// phrased against them.
pub fn analyze(ws: &Workspace, heuristics: &[Diag]) -> Outcome {
    let mut an = Analyzer {
        ws,
        clean: ws.files.iter().map(|f| f.ast.recovered == 0).collect(),
        sites: Vec::new(),
        site_at: BTreeMap::new(),
        calls: Vec::new(),
        dispatch: Vec::new(),
        sums: vec![Summary::default(); ws.fns.len()],
        sum_readers: vec![Readers::new(); ws.fns.len()],
        fields: BTreeMap::new(),
        field_readers: BTreeMap::new(),
        dirty: Vec::new(),
        escaped: Set::new(),
        reported: Set::new(),
        findings: BTreeSet::new(),
        called: vec![false; ws.fns.len()],
        cross: BTreeSet::new(),
        expander: ws.fns.iter().map(|r| vec![true; r.params.len()]).collect(),
        exp_readers: vec![Readers::new(); ws.fns.len()],
        exp_recording: false,
        exp_lines: BTreeSet::new(),
        bare_lines: BTreeSet::new(),
        stats: Stats::default(),
    };
    an.collect_sites_and_edges();
    an.rounds(Analyzer::analyze_fn);
    an.api_escape();
    an.expander_fixpoint();
    let mut diags = an.t_diags();
    diags.extend(an.a02());
    let retract = an.retractions(heuristics);
    an.stats.functions = ws.fns.len();
    an.stats.taint_sites = an.sites.len();
    Outcome {
        diags,
        retract,
        stats: an.stats,
    }
}

impl<'a> Analyzer<'a> {
    // ----- pre-pass: sites and call-graph edges -------------------------

    fn collect_sites_and_edges(&mut self) {
        for f in 0..self.ws.fns.len() {
            let rec = &self.ws.fns[f];
            if !self.clean[rec.file] {
                continue;
            }
            let file = rec.file;
            let Some(body) = self.ws.fn_body(f) else {
                continue;
            };
            let mut exprs: Vec<&Expr> = Vec::new();
            crate::ast::walk_block(body, &mut |e| exprs.push(e));
            for e in exprs {
                if let Some((kind, line)) = self.source_of(f, e) {
                    let id = self.sites.len() as u32;
                    if self.site_at.insert((file, e.span.lo), id).is_none() {
                        self.sites.push(Site { kind, file, line });
                    }
                }
                let callee = match self.call_target(f, e) {
                    None => continue,
                    Some(CallTarget::Resolved(id)) => {
                        self.edge(f, &[id]);
                        Callee::Fn(id as u32)
                    }
                    Some(CallTarget::Trait(ids)) => {
                        self.edge(f, &ids);
                        self.dispatch.push(ids);
                        Callee::Trait(self.dispatch.len() as u32 - 1)
                    }
                    Some(CallTarget::Std) | Some(CallTarget::Constructor) => {
                        self.stats.resolved_calls += 1;
                        Callee::Modeled
                    }
                    Some(CallTarget::Unresolved(_)) => {
                        self.stats.unresolved_calls += 1;
                        continue;
                    }
                };
                let key = (file as u32, e.span.lo, e.span.hi);
                self.calls.push((key, callee));
            }
        }
        self.calls.sort_unstable_by_key(|&(key, _)| key);
        self.calls.shrink_to_fit();
    }

    /// The pre-pass resolution of the call expression `e` in `file`.
    fn call_at(&self, file: usize, e: &Expr) -> Callee {
        let key = (file as u32, e.span.lo, e.span.hi);
        match self.calls.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.calls[i].1,
            Err(_) => Callee::Unresolved,
        }
    }

    fn edge(&mut self, caller: FnId, callees: &[FnId]) {
        self.stats.resolved_calls += 1;
        let unit = self.ws.fns[caller].unit.clone();
        for &id in callees {
            self.called[id] = true;
            if self.ws.fns[id].unit != unit {
                self.cross.insert((id, unit.clone()));
            }
        }
    }

    /// The resolution target of a call expression, or `None` for
    /// non-calls.
    fn call_target(&self, f: FnId, e: &Expr) -> Option<CallTarget> {
        let rec = &self.ws.fns[f];
        match &e.kind {
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Path(segs) => Some(self.ws.resolve_path_call(rec.file, segs)),
                _ => Some(CallTarget::Unresolved(UnresolvedKind::Local)),
            },
            ExprKind::MethodCall { recv, method, .. } => {
                let rty = self.ws.infer(&self.ws.envs[f], rec, recv);
                Some(self.ws.resolve_method(&rec.unit, rty.as_ref(), method))
            }
            _ => None,
        }
    }

    /// Classifies `e` as a taint source.
    fn source_of(&self, f: FnId, e: &Expr) -> Option<(SourceKind, u32)> {
        let rec = &self.ws.fns[f];
        let rel = &self.ws.files[rec.file].rel;
        match &e.kind {
            ExprKind::Call { callee, .. } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let last = segs.last().map(String::as_str).unwrap_or("");
                let prev = segs
                    .len()
                    .checked_sub(2)
                    .map(|i| segs[i].as_str())
                    .unwrap_or("");
                if last == "now" && matches!(prev, "Instant" | "SystemTime") {
                    if clock_exempt(rel) {
                        return None;
                    }
                    return Some((SourceKind::Clock, e.span.line));
                }
                if last == "available_parallelism" || (last == "current" && prev == "thread") {
                    return Some((SourceKind::WorkerIdx, e.span.line));
                }
                None
            }
            ExprKind::MethodCall { recv, method, .. } => {
                if !ITER_METHODS.contains(&method.as_str()) {
                    return None;
                }
                let rty = self.ws.infer(&self.ws.envs[f], rec, recv)?;
                if matches!(rty.unwrapped_head(), "HashMap" | "HashSet") {
                    Some((SourceKind::HashIter, recv.span.line))
                } else {
                    None
                }
            }
            ExprKind::ForLoop { iter, .. } => {
                let rty = self.ws.infer(&self.ws.envs[f], rec, iter)?;
                if matches!(rty.unwrapped_head(), "HashMap" | "HashSet") {
                    Some((SourceKind::HashIter, e.span.line))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    // ----- value-flow fixpoint ------------------------------------------

    /// Visits every function once, then, round after round in ascending
    /// `FnId` order, every function that read a summary, field or flag
    /// that changed since its last visit, until none did. A skipped
    /// visit would have changed nothing, so the result is that of
    /// re-visiting every function each round. Summaries and fields only
    /// grow and expander flags only fall, so the rounds end.
    fn rounds(&mut self, visit: fn(&mut Self, FnId)) {
        self.dirty = vec![true; self.ws.fns.len()];
        while self.dirty.contains(&true) {
            for f in 0..self.dirty.len() {
                if std::mem::take(&mut self.dirty[f]) {
                    visit(self, f);
                }
            }
        }
    }

    fn analyze_fn(&mut self, f: FnId) {
        let rec = &self.ws.fns[f];
        if !self.clean[rec.file] {
            return;
        }
        let Some(body) = self.ws.fn_body(f) else {
            return;
        };
        self.stats.summaries += 1;
        let mut l = Local {
            f,
            file: rec.file,
            vars: BTreeMap::new(),
            ret: BTreeMap::new(),
            param_sink: BTreeMap::new(),
            param_escape: BTreeSet::new(),
            depth: 0,
        };
        for (i, (names, _)) in rec.params.iter().enumerate() {
            for n in names {
                l.vars
                    .insert(n.clone(), [PARAM_BASE + i as u32].into_iter().collect());
            }
        }
        if rec.has_self {
            l.vars
                .insert("self".to_string(), [SELF_TOK].into_iter().collect());
        }
        // Two passes so loop-carried taint (`a = b; b = tainted;` inside a
        // loop body) stabilizes within one summary computation.
        let tail_line = match body.stmts.last() {
            Some(Stmt::Expr(e, false)) => e.span.line,
            _ => rec.line,
        };
        for _ in 0..2 {
            let v = self.eval_block(&mut l, body);
            join_ret(&mut l.ret, &v, tail_line);
        }
        let mut sum = Summary {
            ret: l.ret,
            param_sink: l.param_sink,
            param_escape: l.param_escape,
        };
        if SINK_NAMES.contains(&self.ws.fns[f].name.as_str()) {
            // The function *is* an emission path: anything in its return
            // value has been emitted.
            let rec = &self.ws.fns[f];
            let (file, qual) = (rec.file, rec.qual.clone());
            for (&tok, &line) in sum.ret.clone().iter() {
                if tok < PARAM_BASE {
                    self.findings.insert((tok, (file, line, qual.clone())));
                } else if tok != SELF_TOK {
                    sum.param_sink
                        .entry((tok - PARAM_BASE) as usize)
                        .or_default()
                        .insert((file, line, qual.clone()));
                }
            }
        }
        self.merge_summary(f, sum);
    }

    fn merge_summary(&mut self, f: FnId, new: Summary) {
        let old = &mut self.sums[f];
        let mut changed = false;
        for (tok, line) in new.ret {
            if let std::collections::btree_map::Entry::Vacant(v) = old.ret.entry(tok) {
                v.insert(line);
                changed = true;
            }
        }
        for (i, locs) in new.param_sink {
            let e = old.param_sink.entry(i).or_default();
            for loc in locs {
                changed |= e.insert(loc);
            }
        }
        for i in new.param_escape {
            changed |= old.param_escape.insert(i);
        }
        if changed {
            mark(&mut self.dirty, &self.sum_readers[f]);
        }
    }

    fn eval_block(&mut self, l: &mut Local, b: &'a Block) -> Set {
        let mut val = Set::new();
        let n = b.stmts.len();
        for (i, st) in b.stmts.iter().enumerate() {
            match st {
                Stmt::Let(ls) => {
                    let s = ls
                        .init
                        .as_ref()
                        .map(|e| self.eval(l, e))
                        .unwrap_or_default();
                    bind_pat(l, &ls.pat, &s);
                    if let Some(els) = &ls.els {
                        l.depth += 1;
                        self.eval_block(l, els);
                        l.depth -= 1;
                    }
                }
                Stmt::Expr(e, semi) => {
                    let s = self.eval(l, e);
                    if i + 1 == n && !semi {
                        val = s;
                    }
                }
                Stmt::Item(_) => {}
            }
        }
        val
    }

    fn eval(&mut self, l: &mut Local, e: &'a Expr) -> Set {
        match &e.kind {
            ExprKind::Lit(_) | ExprKind::Continue | ExprKind::Unknown => Set::new(),
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    l.vars.get(&segs[0]).cloned().unwrap_or_default()
                } else {
                    Set::new()
                }
            }
            ExprKind::Unary(_, i) | ExprKind::Cast(i, _) | ExprKind::Try(i) => self.eval(l, i),
            ExprKind::Ref { inner, .. } => self.eval(l, inner),
            ExprKind::Binary(_, a, b) => {
                let mut s = self.eval(l, a);
                s.extend(self.eval(l, b));
                s
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let r = self.eval(l, rhs);
                self.assign(l, lhs, &r, op.is_some());
                Set::new()
            }
            ExprKind::Call { callee, args } => self.eval_call(l, e, callee, args),
            ExprKind::MethodCall {
                recv,
                method,
                turbofish,
                args,
                ..
            } => self.eval_method(l, e, recv, method, turbofish.as_deref(), args),
            ExprKind::Field(base, name) => {
                let bs = self.eval(l, base);
                if let Some(head) = self.struct_head(l.f, base) {
                    // Field-precise: every construction and write site
                    // feeds the global field map, so a known struct's
                    // field read takes exactly that — the base value's
                    // own taint (the *other* fields) does not leak in.
                    let key = (head, name.as_str());
                    add_reader(self.field_readers.entry(key).or_default(), l.f);
                    return self.fields.get(&key).cloned().unwrap_or_default();
                }
                bs
            }
            ExprKind::Index(a, b) => {
                let mut s = self.eval(l, a);
                s.extend(self.eval(l, b));
                s
            }
            ExprKind::Tuple(v) | ExprKind::Array(v) => {
                let mut s = Set::new();
                for x in v {
                    s.extend(self.eval(l, x));
                }
                s
            }
            ExprKind::StructLit { path, fields, rest } => {
                let head = path.last().map_or("", String::as_str);
                let mut val = Set::new();
                for (fname, fe) in fields {
                    let s = self.eval(l, fe);
                    self.taint_field(head, fname, &s);
                    val.extend(s);
                }
                if let Some(r) = rest {
                    val.extend(self.eval(l, r));
                }
                val
            }
            ExprKind::MacroCall { path, args } => self.eval_macro(l, path, args),
            ExprKind::If { cond, then, els } => {
                self.eval_cond(l, cond);
                l.depth += 1;
                let mut s = self.eval_block(l, then);
                if let Some(e) = els {
                    s.extend(self.eval(l, e));
                }
                l.depth -= 1;
                s
            }
            ExprKind::LetCond { pat, scrut } => {
                let s = self.eval(l, scrut);
                bind_pat(l, pat, &s);
                Set::new()
            }
            ExprKind::Match { scrut, arms } => {
                let s = self.eval(l, scrut);
                l.depth += 1;
                let mut val = Set::new();
                for arm in arms {
                    bind_pat(l, &arm.pat, &s);
                    if let Some(g) = &arm.guard {
                        self.eval(l, g);
                    }
                    val.extend(self.eval(l, &arm.body));
                }
                l.depth -= 1;
                val
            }
            ExprKind::While { cond, body } => {
                self.eval_cond(l, cond);
                l.depth += 1;
                self.eval_block(l, body);
                l.depth -= 1;
                Set::new()
            }
            ExprKind::ForLoop { pat, iter, body } => {
                let mut it = self.eval(l, iter);
                if let Some(&tok) = self.site_at.get(&(l.file, e.span.lo)) {
                    it.insert(tok);
                }
                bind_pat(l, pat, &it);
                l.depth += 1;
                self.eval_block(l, body);
                l.depth -= 1;
                Set::new()
            }
            ExprKind::Loop(b) => {
                l.depth += 1;
                self.eval_block(l, b);
                l.depth -= 1;
                Set::new()
            }
            ExprKind::Block(b) => self.eval_block(l, b),
            ExprKind::Closure { .. } => self.eval_closure(l, e, &Set::new()),
            ExprKind::Return(inner) => {
                if let Some(i) = inner {
                    let s = self.eval(l, i);
                    join_ret(&mut l.ret, &s, i.span.line);
                }
                Set::new()
            }
            ExprKind::Break(inner) => {
                if let Some(i) = inner {
                    self.eval(l, i);
                }
                Set::new()
            }
            ExprKind::Range(a, b) => {
                let mut s = Set::new();
                if let Some(a) = a {
                    s.extend(self.eval(l, a));
                }
                if let Some(b) = b {
                    s.extend(self.eval(l, b));
                }
                s
            }
        }
    }

    fn eval_cond(&mut self, l: &mut Local, cond: &'a Expr) {
        self.eval(l, cond);
    }

    /// A closure in argument position: its parameters inherit the seed
    /// taint (the receiver/sibling arguments), its body value is the
    /// result. A standalone closure's body value approximates its
    /// captures.
    fn eval_closure(&mut self, l: &mut Local, e: &'a Expr, seed: &Set) -> Set {
        let ExprKind::Closure { params, body } = &e.kind else {
            return self.eval(l, e);
        };
        for p in params {
            bind_pat(l, p, seed);
        }
        self.eval(l, body)
    }

    /// Evaluates argument lists with closure seeding: plain arguments
    /// first, then closures with the union of receiver + plain arguments.
    fn eval_args(&mut self, l: &mut Local, args: &'a [Expr], recv: &Set) -> (Vec<Set>, Set) {
        let mut sets: Vec<Option<Set>> = Vec::with_capacity(args.len());
        let mut plain = recv.clone();
        for a in args {
            if matches!(a.kind, ExprKind::Closure { .. }) {
                sets.push(None);
            } else {
                let s = self.eval(l, a);
                plain.extend(s.iter().copied());
                sets.push(Some(s));
            }
        }
        let mut union = plain.clone();
        let out = args
            .iter()
            .zip(sets)
            .map(|(a, s)| match s {
                Some(s) => s,
                None => {
                    let s = self.eval_closure(l, a, &plain);
                    union.extend(s.iter().copied());
                    s
                }
            })
            .collect();
        (out, union)
    }

    fn eval_call(&mut self, l: &mut Local, e: &'a Expr, callee: &'a Expr, args: &'a [Expr]) -> Set {
        let site = self.site_at.get(&(l.file, e.span.lo)).copied();
        let (argsets, union) = self.eval_args(l, args, &Set::new());
        let mut out = match &callee.kind {
            ExprKind::Path(segs) => {
                match self.call_at(l.file, e) {
                    Callee::Fn(id) => self.apply_call(l, id as FnId, None, &argsets),
                    Callee::Trait(t) => {
                        let mut s = Set::new();
                        for id in self.dispatch[t as usize].clone() {
                            s.extend(self.apply_call(l, id, None, &argsets));
                        }
                        s
                    }
                    Callee::Modeled => union,
                    Callee::Unresolved => {
                        let name = segs.last().map(String::as_str).unwrap_or("");
                        if SINK_NAMES.contains(&name) {
                            let loc = (l.file, e.span.line, name.to_string());
                            self.record_sink(l, &union, &loc);
                        } else {
                            // An unresolvable free call may do anything
                            // with its arguments: the taint escapes.
                            self.record_escape(l, &union);
                        }
                        union
                    }
                }
            }
            // A call through a local (closure value, fn value): the value
            // of the callee plus the arguments, no escape.
            _ => {
                let mut s = self.eval(l, callee);
                s.extend(union);
                s
            }
        };
        if let Some(tok) = site {
            out.insert(tok);
        }
        out
    }

    fn eval_method(
        &mut self,
        l: &mut Local,
        e: &'a Expr,
        recv: &'a Expr,
        method: &str,
        turbofish: Option<&str>,
        args: &'a [Expr],
    ) -> Set {
        let site = self.site_at.get(&(l.file, e.span.lo)).copied();
        let r = self.eval(l, recv);
        let (argsets, mut union) = self.eval_args(l, args, &r);
        let finish = |mut s: Set| {
            if let Some(tok) = site {
                s.insert(tok);
            }
            s
        };

        // Order-restoring / order-insensitive terminals sanitize the
        // hash-iteration component of the taint.
        if method.starts_with("sort") || method.starts_with("dedup") {
            if let Some(v) = root_var(recv) {
                if let Some(s) = l.vars.get_mut(&v) {
                    strip_hash(&self.sites, s);
                }
            }
            return finish(Set::new());
        }
        match method {
            "collect" => {
                if turbofish.is_some_and(|t| t.starts_with("BTree")) {
                    strip_hash(&self.sites, &mut union);
                }
                return finish(union);
            }
            "sum" | "product" => {
                let float = turbofish.is_some_and(|t| t.starts_with('f'));
                if !float {
                    strip_hash(&self.sites, &mut union);
                }
                return finish(union);
            }
            "count" | "len" | "min" | "max" => {
                let mut s = r;
                strip_hash(&self.sites, &mut s);
                return finish(s);
            }
            _ => {}
        }

        let target = self.call_at(l.file, e);
        let trace_recv = || {
            matches!(target, Callee::Fn(id)
                if self.ws.fns[id as FnId].impl_ty.as_deref() == Some("Trace"))
                || self
                    .ws
                    .infer(&self.ws.envs[l.f], &self.ws.fns[l.f], recv)
                    .is_some_and(|t| t.unwrapped_head() == "Trace")
        };
        if TRACE_SINK_METHODS.contains(&method) && trace_recv() {
            let mut emitted = Set::new();
            for s in &argsets {
                emitted.extend(s.iter().copied());
            }
            let loc = (l.file, e.span.line, format!("Trace::{method}"));
            self.record_sink(l, &emitted, &loc);
            return finish(Set::new());
        }

        match target {
            Callee::Fn(id) => finish(self.apply_call(l, id as FnId, Some(&r), &argsets)),
            Callee::Trait(t) => {
                let mut s = Set::new();
                for id in self.dispatch[t as usize].clone() {
                    s.extend(self.apply_call(l, id, Some(&r), &argsets));
                }
                finish(s)
            }
            Callee::Modeled => finish(union),
            Callee::Unresolved => {
                if SINK_NAMES.contains(&method) {
                    let loc = (l.file, e.span.line, method.to_string());
                    self.record_sink(l, &union, &loc);
                    return finish(Set::new());
                }
                // Unknown method on a local: model it as a mutation
                // (`push` semantics) plus value propagation.
                if let Some(v) = root_var(recv) {
                    let mut arg_union = Set::new();
                    for s in &argsets {
                        arg_union.extend(s.iter().copied());
                    }
                    l.vars.entry(v).or_default().extend(arg_union);
                }
                finish(union)
            }
        }
    }

    fn eval_macro(&mut self, l: &mut Local, path: &[String], args: &'a [Expr]) -> Set {
        let name = path.last().map(String::as_str).unwrap_or("");
        if name.starts_with("assert")
            || name.starts_with("debug_assert")
            || matches!(name, "panic" | "unreachable" | "todo" | "matches")
        {
            for a in args {
                self.eval(l, a);
            }
            return Set::new();
        }
        if matches!(name, "write" | "writeln") {
            let mut s = Set::new();
            for a in args.iter().skip(1) {
                s.extend(self.eval(l, a));
            }
            if let Some(buf) = args.first() {
                self.eval(l, buf);
                if let Some(v) = root_var(buf) {
                    l.vars.entry(v).or_default().extend(s);
                }
            }
            return Set::new();
        }
        // Console output is not an emission path (the determinism
        // contract covers JSONL and trace artifacts): evaluate for side
        // effects, consume the taint.
        if matches!(name, "println" | "print" | "eprintln" | "eprint") {
            for a in args {
                self.eval(l, a);
            }
            return Set::new();
        }
        let mut s = Set::new();
        for a in args {
            s.extend(self.eval(l, a));
        }
        s
    }

    /// Applies a callee summary at a call site.
    fn apply_call(&mut self, l: &mut Local, id: FnId, recv: Option<&Set>, argsets: &[Set]) -> Set {
        add_reader(&mut self.sum_readers[id], l.f);
        let sum = self.sums[id].clone();
        let mut out = Set::new();
        for &tok in sum.ret.keys() {
            if tok == SELF_TOK {
                if let Some(r) = recv {
                    out.extend(r.iter().copied());
                }
            } else if tok >= PARAM_BASE {
                if let Some(s) = argsets.get((tok - PARAM_BASE) as usize) {
                    out.extend(s.iter().copied());
                }
            } else {
                out.insert(tok);
            }
        }
        for (&i, locs) in &sum.param_sink {
            if let Some(s) = argsets.get(i) {
                for loc in locs {
                    self.record_sink(l, s, loc);
                }
            }
        }
        for &i in &sum.param_escape {
            if let Some(s) = argsets.get(i) {
                self.record_escape(l, s);
            }
        }
        out
    }

    fn record_sink(&mut self, l: &mut Local, set: &Set, loc: &SinkLoc) {
        for &tok in set {
            if tok < PARAM_BASE {
                self.findings.insert((tok, loc.clone()));
            } else if tok != SELF_TOK {
                l.param_sink
                    .entry((tok - PARAM_BASE) as usize)
                    .or_default()
                    .insert(loc.clone());
            }
        }
    }

    fn record_escape(&mut self, l: &mut Local, set: &Set) {
        for &tok in set {
            if tok < PARAM_BASE {
                self.escaped.insert(tok);
            } else if tok != SELF_TOK {
                l.param_escape.insert((tok - PARAM_BASE) as usize);
            }
        }
    }

    /// The workspace struct that `base`'s inferred type names, if any.
    fn struct_head(&self, f: FnId, base: &Expr) -> Option<&'a str> {
        let ws = self.ws;
        let t = ws.infer(&ws.envs[f], &ws.fns[f], base)?;
        let (head, _) = ws.structs.get_key_value(t.unwrapped_head())?;
        Some(head)
    }

    fn taint_field(&mut self, head: &'a str, field: &'a str, set: &Set) {
        // The field map is global, so only site tokens (which mean the
        // same thing everywhere) may enter it.
        let sites: Vec<u32> = set.iter().copied().filter(|&t| t < PARAM_BASE).collect();
        if sites.is_empty() {
            return;
        }
        let key = (head, field);
        let e = self.fields.entry(key).or_default();
        let mut changed = false;
        for t in sites {
            changed |= e.insert(t);
        }
        if changed {
            if let Some(readers) = self.field_readers.get(&key) {
                mark(&mut self.dirty, readers);
            }
        }
    }

    fn assign(&mut self, l: &mut Local, lhs: &'a Expr, rhs: &Set, compound: bool) {
        if let ExprKind::Field(base, name) = &lhs.kind {
            if let Some(head) = self.struct_head(l.f, base) {
                self.taint_field(head, name, rhs);
            }
        }
        match (&lhs.kind, root_var(lhs)) {
            (ExprKind::Path(segs), _) if segs.len() == 1 => {
                if !compound && l.depth == 0 {
                    l.vars.insert(segs[0].clone(), rhs.clone());
                } else {
                    l.vars
                        .entry(segs[0].clone())
                        .or_default()
                        .extend(rhs.iter().copied());
                }
            }
            (_, Some(v)) => {
                l.vars.entry(v).or_default().extend(rhs.iter().copied());
            }
            _ => {}
        }
    }

    // ----- post-fixpoint classification ---------------------------------

    /// A `pub` function no workspace code calls is API surface: its
    /// return-value taint escapes the analysis horizon.
    fn api_escape(&mut self) {
        for f in 0..self.ws.fns.len() {
            let rec = &self.ws.fns[f];
            if !rec.vis_pub || self.called[f] || !self.clean[rec.file] {
                continue;
            }
            for &tok in self.sums[f].ret.keys() {
                if tok < PARAM_BASE {
                    self.escaped.insert(tok);
                }
            }
        }
    }

    fn t_diags(&mut self) -> Vec<Diag> {
        let mut out = Vec::new();
        for (tok, (file, line, qual)) in self.findings.clone() {
            let site = &self.sites[tok as usize];
            self.reported.insert(tok);
            out.push(Diag {
                path: self.ws.files[file].rel.clone(),
                line,
                rule: "T01",
                message: format!(
                    "value tainted by {} ({}:{}) reaches emission path `{qual}`",
                    site.kind.describe(),
                    self.ws.files[site.file].rel,
                    site.line
                ),
            });
        }
        let mut seen: BTreeSet<(FnId, u32)> = BTreeSet::new();
        for (callee, unit) in self.cross.clone() {
            let rec = &self.ws.fns[callee];
            if !rec.vis_pub {
                continue;
            }
            for &tok in self.sums[callee].ret.keys() {
                if tok >= PARAM_BASE {
                    continue;
                }
                let site = &self.sites[tok as usize];
                // Clock taint is allowed across APIs: wall-clock
                // instrumentation is sanctioned, only order/parallelism
                // taint breaks cross-crate determinism contracts.
                if !matches!(site.kind, SourceKind::HashIter | SourceKind::WorkerIdx) {
                    continue;
                }
                if !seen.insert((callee, tok)) {
                    continue;
                }
                self.reported.insert(tok);
                out.push(Diag {
                    path: self.ws.files[rec.file].rel.clone(),
                    line: rec.line,
                    rule: "T02",
                    message: format!(
                        "pub fn `{}` returns a value tainted by {} ({}:{}); the taint \
                         crosses the crate API into `{unit}`",
                        rec.qual,
                        site.kind.describe(),
                        self.ws.files[site.file].rel,
                        site.line
                    ),
                });
            }
        }
        out
    }

    // ----- A02: unchecked products into accounting accumulators ---------

    fn a02(&mut self) -> Vec<Diag> {
        let mut found: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        for f in 0..self.ws.fns.len() {
            let rec = &self.ws.fns[f];
            let rel = &self.ws.files[rec.file].rel;
            if rec.cfg_test || !self.clean[rec.file] || !is_accounting(rel) || !is_library(rel) {
                continue;
            }
            let Some(body) = self.ws.fn_body(f) else {
                continue;
            };
            let mut exprs: Vec<&Expr> = Vec::new();
            crate::ast::walk_block(body, &mut |e| exprs.push(e));
            for e in exprs {
                let ExprKind::Assign {
                    op: Some(BinOp::Add | BinOp::Mul),
                    lhs,
                    rhs,
                } = &e.kind
                else {
                    continue;
                };
                let name = match &lhs.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => segs[0].clone(),
                    ExprKind::Field(_, n) => n.clone(),
                    _ => continue,
                };
                let mut hit = false;
                crate::ast::walk_expr(rhs, &mut |sub| {
                    if hit {
                        return;
                    }
                    if let ExprKind::Binary(BinOp::Mul, a, b) = &sub.kind {
                        let both_lit = matches!(a.kind, ExprKind::Lit(_))
                            && matches!(b.kind, ExprKind::Lit(_));
                        if !both_lit && self.is_int(f, a) && self.is_int(f, b) {
                            hit = true;
                        }
                    }
                });
                if hit {
                    found.insert((rec.file, e.span.line, name));
                }
            }
        }
        found
            .into_iter()
            .map(|(file, line, name)| Diag {
                path: self.ws.files[file].rel.clone(),
                line,
                rule: "A02",
                message: format!(
                    "accumulator `{name}` absorbs an unchecked integer product; \
                     compute it with checked_mul(…).expect(\"named bound\") or a \
                     saturating form"
                ),
            })
            .collect()
    }

    fn is_int(&self, f: FnId, e: &Expr) -> bool {
        self.ws
            .infer(&self.ws.envs[f], &self.ws.fns[f], e)
            .is_some_and(|t| INT_HEADS.contains(&t.unwrapped_head()))
    }

    // ----- D03 expander analysis ----------------------------------------

    fn expander_fixpoint(&mut self) {
        self.rounds(Self::scan_exp_fn);
        self.exp_recording = true;
        for f in 0..self.ws.fns.len() {
            self.scan_exp_fn(f);
        }
        self.exp_recording = false;
    }

    fn scan_exp_fn(&mut self, f: FnId) {
        if !self.clean[self.ws.fns[f].file] {
            return;
        }
        let Some(body) = self.ws.fn_body(f) else {
            return;
        };
        self.stats.expander_scans += 1;
        self.scan_exp_block(f, body);
    }

    fn scan_exp_block(&mut self, f: FnId, b: &Block) {
        for st in &b.stmts {
            match st {
                Stmt::Let(ls) => {
                    if let Some(init) = &ls.init {
                        self.scan_exp(f, init, false, false);
                    }
                    if let Some(els) = &ls.els {
                        self.scan_exp_block(f, els);
                    }
                }
                Stmt::Expr(e, _) => self.scan_exp(f, e, false, false),
                Stmt::Item(_) => {}
            }
        }
    }

    fn scan_exp(&mut self, f: FnId, e: &Expr, in_exp: bool, in_arith: bool) {
        match &e.kind {
            ExprKind::Lit(_) | ExprKind::Continue | ExprKind::Unknown => {}
            ExprKind::Path(segs) => {
                let leaf = segs.last().map(String::as_str).unwrap_or("");
                if segs.len() == 1 && !in_exp {
                    self.clear_expander_param(f, leaf);
                }
                if in_arith && seedish(leaf) {
                    self.record_seed_line(f, e.span.line, in_exp);
                }
            }
            ExprKind::Field(base, name) => {
                if in_arith && seedish(name) {
                    self.record_seed_line(f, e.span.line, in_exp);
                }
                self.scan_exp(f, base, in_exp, in_arith);
            }
            ExprKind::Unary(_, i) | ExprKind::Cast(i, _) | ExprKind::Try(i) => {
                self.scan_exp(f, i, in_exp, in_arith)
            }
            ExprKind::Ref { inner, .. } => self.scan_exp(f, inner, in_exp, in_arith),
            ExprKind::Tuple(v) if v.len() == 1 => self.scan_exp(f, &v[0], in_exp, in_arith),
            ExprKind::Binary(op, a, b) => {
                let ar = matches!(
                    op,
                    BinOp::Add
                        | BinOp::Sub
                        | BinOp::Mul
                        | BinOp::Rem
                        | BinOp::BitXor
                        | BinOp::Shl
                        | BinOp::Shr
                );
                let e2 = if ar { in_exp } else { false };
                self.scan_exp(f, a, e2, ar);
                self.scan_exp(f, b, e2, ar);
            }
            ExprKind::MethodCall {
                recv, method, args, ..
            } => {
                if method.starts_with("wrapping_")
                    || method.starts_with("rotate_")
                    || method.starts_with("overflowing_")
                    || method.starts_with("checked_")
                    || method.starts_with("saturating_")
                {
                    self.scan_exp(f, recv, in_exp, true);
                    for a in args {
                        self.scan_exp(f, a, in_exp, true);
                    }
                } else if matches!(method.as_str(), "seed_from_u64" | "derive") {
                    self.scan_exp(f, recv, false, false);
                    for a in args {
                        self.scan_exp(f, a, true, false);
                    }
                } else {
                    self.scan_exp(f, recv, false, false);
                    let flags = self.method_arg_expander_flags(f, e, method, args.len());
                    for (i, a) in args.iter().enumerate() {
                        let exp = flags.get(i).copied().unwrap_or(false);
                        self.scan_exp(f, a, exp, false);
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                self.scan_exp(f, callee, false, false);
                if expander_path(callee) {
                    for a in args {
                        self.scan_exp(f, a, true, false);
                    }
                } else {
                    let flags = self.call_arg_expander_flags(f, e, args.len());
                    for (i, a) in args.iter().enumerate() {
                        let exp = flags.get(i).copied().unwrap_or(false);
                        self.scan_exp(f, a, exp, false);
                    }
                }
            }
            ExprKind::MacroCall { args, .. } => {
                for a in args {
                    self.scan_exp(f, a, false, false);
                }
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                self.scan_exp(f, lhs, false, false);
                self.scan_exp(f, rhs, false, false);
            }
            ExprKind::If { cond, then, els } => {
                self.scan_exp(f, cond, false, false);
                self.scan_exp_block(f, then);
                if let Some(e) = els {
                    self.scan_exp(f, e, false, false);
                }
            }
            ExprKind::LetCond { scrut, .. } => self.scan_exp(f, scrut, false, false),
            ExprKind::Match { scrut, arms } => {
                self.scan_exp(f, scrut, false, false);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.scan_exp(f, g, false, false);
                    }
                    self.scan_exp(f, &arm.body, false, false);
                }
            }
            ExprKind::While { cond, body } => {
                self.scan_exp(f, cond, false, false);
                self.scan_exp_block(f, body);
            }
            ExprKind::ForLoop { iter, body, .. } => {
                self.scan_exp(f, iter, false, false);
                self.scan_exp_block(f, body);
            }
            ExprKind::Loop(b) | ExprKind::Block(b) => self.scan_exp_block(f, b),
            ExprKind::Closure { body, .. } => self.scan_exp(f, body, false, false),
            ExprKind::Return(i) | ExprKind::Break(i) => {
                if let Some(i) = i {
                    self.scan_exp(f, i, false, false);
                }
            }
            ExprKind::Range(a, b) => {
                if let Some(a) = a {
                    self.scan_exp(f, a, false, false);
                }
                if let Some(b) = b {
                    self.scan_exp(f, b, false, false);
                }
            }
            ExprKind::StructLit { fields, rest, .. } => {
                for (_, fe) in fields {
                    self.scan_exp(f, fe, false, false);
                }
                if let Some(r) = rest {
                    self.scan_exp(f, r, false, false);
                }
            }
            ExprKind::Index(a, b) => {
                self.scan_exp(f, a, false, false);
                self.scan_exp(f, b, false, false);
            }
            ExprKind::Tuple(v) | ExprKind::Array(v) => {
                for x in v {
                    self.scan_exp(f, x, false, false);
                }
            }
        }
    }

    fn clear_expander_param(&mut self, f: FnId, name: &str) {
        let rec = &self.ws.fns[f];
        for (i, (names, _)) in rec.params.iter().enumerate() {
            if names.iter().any(|n| n == name) && self.expander[f][i] {
                self.expander[f][i] = false;
                mark(&mut self.dirty, &self.exp_readers[f]);
            }
        }
    }

    fn record_seed_line(&mut self, f: FnId, line: u32, in_exp: bool) {
        if !self.exp_recording {
            return;
        }
        let file = self.ws.fns[f].file;
        if in_exp {
            self.exp_lines.insert((file, line));
        } else {
            self.bare_lines.insert((file, line));
        }
    }

    /// Per-argument expander flags for the resolved (or name-unanimous)
    /// method call `e`.
    fn method_arg_expander_flags(
        &mut self,
        f: FnId,
        e: &Expr,
        method: &str,
        arity: usize,
    ) -> Vec<bool> {
        match self.call_at(self.ws.fns[f].file, e) {
            Callee::Fn(id) => self.unanimous(f, &[id as FnId], arity),
            Callee::Trait(t) => self.unanimous(f, &self.dispatch[t as usize].clone(), arity),
            Callee::Modeled | Callee::Unresolved => {
                // Receiver type unknown: fall back to name unanimity
                // across every workspace method of that name with the
                // call's exact arity (Rust arity is fixed, so other
                // signatures cannot be the callee).
                let cands: Vec<FnId> = self
                    .ws
                    .methods_named(method)
                    .iter()
                    .copied()
                    .filter(|&id| self.ws.fns[id].params.len() == arity)
                    .collect();
                self.unanimous(f, &cands, arity)
            }
        }
    }

    /// Per-argument expander flags for the free or associated call `e`.
    fn call_arg_expander_flags(&mut self, f: FnId, e: &Expr, arity: usize) -> Vec<bool> {
        match self.call_at(self.ws.fns[f].file, e) {
            Callee::Fn(id) => self.unanimous(f, &[id as FnId], arity),
            Callee::Trait(t) => self.unanimous(f, &self.dispatch[t as usize].clone(), arity),
            Callee::Modeled | Callee::Unresolved => vec![false; arity],
        }
    }

    /// The flags every one of `ids` agrees on, read on behalf of `f`.
    fn unanimous(&mut self, f: FnId, ids: &[FnId], arity: usize) -> Vec<bool> {
        if ids.is_empty() {
            return vec![false; arity];
        }
        for &id in ids {
            add_reader(&mut self.exp_readers[id], f);
        }
        (0..arity)
            .map(|i| {
                ids.iter()
                    .all(|&id| self.expander[id].get(i).copied().unwrap_or(false))
            })
            .collect()
    }

    // ----- retraction ---------------------------------------------------

    fn retractions(&self, heuristics: &[Diag]) -> BTreeSet<(String, u32, String)> {
        let path_idx: BTreeMap<&str, usize> = self
            .ws
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.as_str(), i))
            .collect();
        let mut by_line: BTreeMap<(usize, u32, SourceKind), Vec<u32>> = BTreeMap::new();
        let mut by_file: BTreeMap<(usize, SourceKind), Vec<u32>> = BTreeMap::new();
        for (i, s) in self.sites.iter().enumerate() {
            by_line
                .entry((s.file, s.line, s.kind))
                .or_default()
                .push(i as u32);
            by_file.entry((s.file, s.kind)).or_default().push(i as u32);
        }
        // A heuristic diagnostic is retractable when every site behind it
        // is either proven safe (the taint dies) or subsumed by a T-series
        // finding; an escaped, unreported site keeps it.
        let ok = |tok: u32| !self.escaped.contains(&tok) || self.reported.contains(&tok);
        let mut out = BTreeSet::new();
        for d in heuristics {
            let Some(&fi) = path_idx.get(d.path.as_str()) else {
                continue;
            };
            if !self.clean[fi] {
                continue;
            }
            let retract = match d.rule {
                "D01" => by_line
                    .get(&(fi, d.line, SourceKind::HashIter))
                    .is_some_and(|sites| sites.iter().all(|&t| ok(t))),
                "D02" => match by_line.get(&(fi, d.line, SourceKind::Clock)) {
                    Some(sites) => sites.iter().all(|&t| ok(t)),
                    // A type- or use-position mention: harmless when every
                    // actual clock read in the file is safe.
                    None => by_file
                        .get(&(fi, SourceKind::Clock))
                        .map(|sites| sites.iter().all(|&t| ok(t)))
                        .unwrap_or(true),
                },
                "D03" => {
                    self.exp_lines.contains(&(fi, d.line))
                        && !self.bare_lines.contains(&(fi, d.line))
                }
                _ => false,
            };
            if retract {
                out.insert((d.path.clone(), d.line, d.rule.to_string()));
            }
        }
        out
    }
}

// ----- free helpers -----------------------------------------------------

fn add_reader(readers: &mut Readers, f: FnId) {
    let f = f as u32;
    if let Err(i) = readers.binary_search(&f) {
        readers.insert(i, f);
    }
}

fn mark(dirty: &mut [bool], readers: &Readers) {
    for &r in readers {
        dirty[r as usize] = true;
    }
}

fn join_ret(ret: &mut BTreeMap<u32, u32>, set: &Set, line: u32) {
    for &tok in set {
        ret.entry(tok).or_insert(line);
    }
}

fn bind_pat(l: &mut Local, pat: &Pat, set: &Set) {
    for name in &pat.bindings {
        l.vars.insert(name.clone(), set.clone());
    }
}

/// The single variable a place expression roots in, if any.
fn root_var(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field(b, _) | ExprKind::Index(b, _) => root_var(b),
        ExprKind::Unary(_, i) | ExprKind::Try(i) | ExprKind::Cast(i, _) => root_var(i),
        ExprKind::Ref { inner, .. } => root_var(inner),
        ExprKind::Tuple(v) if v.len() == 1 => root_var(&v[0]),
        _ => None,
    }
}

fn strip_hash(sites: &[Site], s: &mut Set) {
    s.retain(|&tok| tok >= PARAM_BASE || sites[tok as usize].kind != SourceKind::HashIter);
}

fn clock_exempt(rel: &str) -> bool {
    rel.ends_with("util/src/bench.rs") || rel.contains("/benches/") || rel.starts_with("benches/")
}

fn seedish(name: &str) -> bool {
    name.starts_with(|c: char| c.is_lowercase() || c == '_')
        && name.to_ascii_lowercase().contains("seed")
}

/// Is `callee` a sanctioned stream-expander path (`Rng::seed_from_u64`,
/// `SplitMix64::new`, `SplitMix64::derive`)?
fn expander_path(callee: &Expr) -> bool {
    let ExprKind::Path(segs) = &callee.kind else {
        return false;
    };
    let last = segs.last().map(String::as_str).unwrap_or("");
    let prev = segs
        .len()
        .checked_sub(2)
        .map(|i| segs[i].as_str())
        .unwrap_or("");
    matches!(last, "seed_from_u64" | "derive") || (last == "new" && prev == "SplitMix64")
}

fn is_accounting(rel: &str) -> bool {
    rel.split('/')
        .any(|s| s.contains("energy") || s.contains("fault") || s.contains("cmp"))
}

fn is_library(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    let file = segs.last().copied().unwrap_or("");
    !(segs
        .iter()
        .any(|s| matches!(*s, "tests" | "benches" | "examples" | "bin"))
        || matches!(file, "main.rs" | "build.rs"))
}

/// Whether a type is a hash container for site classification (used by
/// the unit tests).
#[cfg(test)]
fn is_hash_ty(t: &crate::ast::Ty) -> bool {
    matches!(t.unwrapped_head(), "HashMap" | "HashSet")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ty;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        Workspace::build(&owned)
    }

    fn run(files: &[(&str, &str)]) -> Outcome {
        let ws = ws_of(files);
        analyze(&ws, &[])
    }

    #[test]
    fn hash_taint_reaching_a_jsonl_sink_is_t01() {
        let src = "use std::collections::HashMap;\n\
                   pub struct R { pub m: HashMap<u64, u64> }\n\
                   impl R {\n\
                   pub fn jsonl(&self) -> String {\n\
                   let mut out = String::new();\n\
                   for (k, v) in self.m.iter() {\n\
                   out.push_str(&format!(\"{k}:{v}\\n\"));\n\
                   }\n\
                   out\n\
                   }\n\
                   }\n";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        let t01: Vec<&Diag> = out.diags.iter().filter(|d| d.rule == "T01").collect();
        assert_eq!(t01.len(), 1, "diags: {:?}", out.diags);
        assert!(t01[0].message.contains("hash-iteration order"));
        assert!(t01[0].message.contains("R::jsonl"));
    }

    #[test]
    fn dead_clock_taint_retracts_the_heuristic() {
        let src = "use std::time::Instant;\n\
                   fn work() -> u64 {\n\
                   let t0 = Instant::now();\n\
                   let n = t0.elapsed().as_nanos() as u64;\n\
                   let _ = n;\n\
                   7\n\
                   }\n";
        let ws = ws_of(&[("crates/x/src/lib.rs", src)]);
        let heur = vec![
            Diag {
                path: "crates/x/src/lib.rs".to_string(),
                line: 1,
                rule: "D02",
                message: String::new(),
            },
            Diag {
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "D02",
                message: String::new(),
            },
        ];
        let out = analyze(&ws, &heur);
        assert!(out
            .retract
            .contains(&("crates/x/src/lib.rs".to_string(), 3, "D02".to_string())));
        assert!(out
            .retract
            .contains(&("crates/x/src/lib.rs".to_string(), 1, "D02".to_string())));
    }

    #[test]
    fn escaped_clock_taint_keeps_the_heuristic() {
        // `wall` reaches the return value of an uncalled pub fn: the
        // taint escapes the analysis horizon, so D02 stays.
        let src = "use std::time::Instant;\n\
                   pub fn wall() -> u128 {\n\
                   Instant::now().elapsed().as_nanos()\n\
                   }\n";
        let ws = ws_of(&[("crates/x/src/lib.rs", src)]);
        let heur = vec![Diag {
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            rule: "D02",
            message: String::new(),
        }];
        let out = analyze(&ws, &heur);
        assert!(out.retract.is_empty(), "retract: {:?}", out.retract);
    }

    #[test]
    fn hash_ret_crossing_units_is_t02() {
        let api = "use std::collections::HashMap;\n\
                   pub fn order_hint(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
                   let mut out = Vec::new();\n\
                   for k in m.keys() {\n\
                   out.push(*k);\n\
                   }\n\
                   out\n\
                   }\n";
        let caller = "use t02_api::order_hint;\n\
                      use std::collections::HashMap;\n\
                      pub fn consume() -> usize {\n\
                      let m: HashMap<u64, u64> = HashMap::new();\n\
                      order_hint(&m).len()\n\
                      }\n";
        let out = run(&[("t02_api.rs", api), ("t02_caller.rs", caller)]);
        let t02: Vec<&Diag> = out.diags.iter().filter(|d| d.rule == "T02").collect();
        assert_eq!(t02.len(), 1, "diags: {:?}", out.diags);
        assert!(t02[0].message.contains("order_hint"));
        assert!(t02[0].message.contains("t02_caller"));
    }

    #[test]
    fn sorted_collection_sanitizes_hash_order() {
        let src = "use std::collections::HashMap;\n\
                   pub struct R { pub m: HashMap<u64, u64> }\n\
                   impl R {\n\
                   pub fn jsonl(&self) -> String {\n\
                   let mut ks: Vec<u64> = Vec::new();\n\
                   for k in self.m.keys() {\n\
                   ks.push(*k);\n\
                   }\n\
                   ks.sort();\n\
                   format!(\"{:?}\", ks)\n\
                   }\n\
                   }\n";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert!(
            out.diags.iter().all(|d| d.rule != "T01"),
            "diags: {:?}",
            out.diags
        );
        // The same body without the sort reports: `ks` reaches the sink,
        // so the clean run above is the sort's doing.
        let out = run(&[("crates/x/src/lib.rs", &src.replace("ks.sort();", ""))]);
        assert!(
            out.diags.iter().any(|d| d.rule == "T01"),
            "diags: {:?}",
            out.diags
        );
    }

    fn t01_count(out: &Outcome) -> usize {
        out.diags.iter().filter(|d| d.rule == "T01").count()
    }

    fn d03(line: u32) -> Diag {
        Diag {
            path: "crates/x/src/lib.rs".to_string(),
            line,
            rule: "D03",
            message: String::new(),
        }
    }

    fn retracts_d03(src: &str, line: u32) -> bool {
        let ws = ws_of(&[("crates/x/src/lib.rs", src)]);
        let out = analyze(&ws, &[d03(line)]);
        out.retract
            .contains(&("crates/x/src/lib.rs".to_string(), line, "D03".to_string()))
    }

    #[test]
    fn field_written_after_its_reader_reaches_the_sink() {
        // `R::jsonl` reads `R::ks` before `fill`, later in function
        // order, taints it: the reader must be summarized again.
        let src = "use std::collections::HashMap;\n\
                   pub struct R { pub ks: Vec<u64> }\n\
                   impl R {\n\
                   pub fn jsonl(&self) -> String {\n\
                   format!(\"{:?}\", self.ks)\n\
                   }\n\
                   }\n\
                   pub fn fill(m: &HashMap<u64, u64>) -> R {\n\
                   let mut ks = Vec::new();\n\
                   for k in m.keys() {\n\
                   ks.push(*k);\n\
                   }\n\
                   R { ks }\n\
                   }\n";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(t01_count(&out), 1, "diags: {:?}", out.diags);
    }

    #[test]
    fn trait_object_callee_summarized_after_its_caller_reaches_the_sink() {
        // `run` dispatches through `dyn Emit` before `J::emit`, later in
        // function order, learns that its argument reaches a sink.
        let src = "use std::collections::HashMap;\n\
                   pub trait Emit { fn emit(&self, ks: Vec<u64>); }\n\
                   pub fn run(e: &dyn Emit, m: &HashMap<u64, u64>) {\n\
                   let ks: Vec<u64> = m.keys().copied().collect();\n\
                   e.emit(ks);\n\
                   }\n\
                   pub struct J;\n\
                   impl Emit for J {\n\
                   fn emit(&self, ks: Vec<u64>) {\n\
                   write_jsonl(ks);\n\
                   }\n\
                   }\n";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(t01_count(&out), 1, "diags: {:?}", out.diags);
    }

    #[test]
    fn self_recursion_feeds_its_own_summary() {
        // Only the second summary of `swap` sees that its recursive call
        // returns `b`: the recursion itself must be a dependency.
        let src = "use std::collections::HashMap;\n\
                   pub fn jsonl(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
                   let ks: Vec<u64> = m.keys().copied().collect();\n\
                   swap(Vec::new(), ks, 3)\n\
                   }\n\
                   pub fn swap(a: Vec<u64>, b: Vec<u64>, n: u32) -> Vec<u64> {\n\
                   if n == 0 {\n\
                   return a;\n\
                   }\n\
                   swap(b, a, n - 1)\n\
                   }\n";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(t01_count(&out), 1, "diags: {:?}", out.diags);
    }

    #[test]
    fn name_unanimous_callee_scanned_after_its_caller_keeps_d03() {
        // `relay` cannot type `w`, so `w.mix(s)` takes `mix`'s flag by
        // name; `mix`, later in function order, then uses its parameter
        // raw. `relay` must be scanned again, or `consume`'s seed
        // arithmetic passes as expander-bound.
        let src = "pub fn consume(seed: u64) -> u64 {\n\
                   relay(seed ^ 7)\n\
                   }\n\
                   pub fn relay(s: u64) -> u64 {\n\
                   let w = make_w();\n\
                   w.mix(s)\n\
                   }\n\
                   pub struct W;\n\
                   impl W {\n\
                   pub fn mix(&self, s: u64) -> u64 {\n\
                   s\n\
                   }\n\
                   }\n";
        assert!(!retracts_d03(src, 2));
        // Control: when `mix` feeds a stream expander the line retracts.
        let expanding = src.replace("{\ns\n}", "{\nRng::seed_from_u64(s)\n}");
        assert_ne!(expanding, src);
        assert!(retracts_d03(&expanding, 2));
    }

    /// `head` on line 1, then `depth` one-parameter helpers `h0`..,
    /// each declared before its callee; the last one runs `tail`.
    fn chain(head: &str, depth: usize, tail: &str) -> String {
        let mut src = format!("{head}\n");
        for i in 0..depth {
            let body = if i + 1 == depth {
                tail.to_string()
            } else {
                format!("h{}(v)", i + 1)
            };
            src.push_str(&format!("pub fn h{i}(v: u64) -> u64 {{ {body} }}\n"));
        }
        src
    }

    #[test]
    fn sink_thirty_helpers_deep_is_reached() {
        // Each round moves the sink one helper up the chain, so a round
        // cap below the depth would drop the finding.
        let head = "pub fn top(m: &std::collections::HashMap<u64, u64>) -> u64 { \
                    h0(m.keys().copied().sum::<f64>() as u64) }";
        let out = run(&[("crates/x/src/lib.rs", &chain(head, 30, "write_jsonl(v)"))]);
        assert_eq!(t01_count(&out), 1, "diags: {:?}", out.diags);
    }

    #[test]
    fn raw_seed_use_sixteen_helpers_deep_keeps_d03() {
        // Each round clears one helper's expander flag, from the raw use
        // at the bottom up to `h0`; a round cap below the depth would
        // leave `h0` looking like an expander and retract the D03.
        let head = "pub fn consume(seed: u64) -> u64 { h0(seed ^ 7) }";
        assert!(!retracts_d03(&chain(head, 16, "v"), 1));
        assert!(retracts_d03(&chain(head, 16, "Rng::seed_from_u64(v)"), 1));
    }

    #[test]
    fn expander_bound_seed_arith_retracts_d03() {
        let src = "pub struct Rng { s: u64 }\n\
                   impl Rng {\n\
                   pub fn seed_from_u64(s: u64) -> Rng { Rng { s } }\n\
                   }\n\
                   pub struct G { seed: u64 }\n\
                   impl G {\n\
                   pub fn stream(&self) -> Rng {\n\
                   Rng::seed_from_u64(self.seed ^ 0x9e37)\n\
                   }\n\
                   pub fn raw(&self) -> u64 {\n\
                   self.seed.wrapping_mul(6364136223846793005)\n\
                   }\n\
                   }\n";
        let ws = ws_of(&[("crates/x/src/lib.rs", src)]);
        let heur = vec![
            Diag {
                path: "crates/x/src/lib.rs".to_string(),
                line: 8,
                rule: "D03",
                message: String::new(),
            },
            Diag {
                path: "crates/x/src/lib.rs".to_string(),
                line: 12,
                rule: "D03",
                message: String::new(),
            },
        ];
        let out = analyze(&ws, &heur);
        assert!(out
            .retract
            .contains(&("crates/x/src/lib.rs".to_string(), 8, "D03".to_string())));
        assert!(!out
            .retract
            .contains(&("crates/x/src/lib.rs".to_string(), 12, "D03".to_string())));
    }

    #[test]
    fn a02_flags_unchecked_products_in_accounting_code() {
        let src = "pub struct E { total: u64 }\n\
                   impl E {\n\
                   pub fn add(&mut self, events: u64, pj: u64) {\n\
                   self.total += events * pj;\n\
                   }\n\
                   }\n";
        let out = run(&[("crates/energy/src/lib.rs", src)]);
        let a02: Vec<&Diag> = out.diags.iter().filter(|d| d.rule == "A02").collect();
        assert_eq!(a02.len(), 1, "diags: {:?}", out.diags);
        assert_eq!(a02[0].line, 4);
        // The same code outside an accounting path is not flagged.
        let out = run(&[("crates/trace/src/lib.rs", src)]);
        assert!(out.diags.iter().all(|d| d.rule != "A02"));
    }

    #[test]
    fn hash_ty_helper_sees_through_wrappers() {
        let t = Ty {
            text: "&HashMap<u64, u64>".to_string(),
            head: "HashMap".to_string(),
            args: vec!["u64".to_string(), "u64".to_string()],
        };
        assert!(is_hash_ty(&t));
    }
}
