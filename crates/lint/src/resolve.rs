//! Workspace-wide symbol table, per-function type environments, and call
//! resolution (DESIGN.md §14).
//!
//! The resolver turns the per-file ASTs of [`crate::parse`] into the three
//! tables the taint analysis consumes:
//!
//! * **functions** — every `fn` in the workspace, with its analysis unit
//!   (the crate it lives in), enclosing `impl` type, signature, and an
//!   item-index path back into the owning AST so bodies can be re-walked;
//! * **structs** — named fields with shallow types, so `self.map` can be
//!   typed without local evidence;
//! * **call resolution** — free calls by `(unit, name)` with use-import
//!   and `lpmem_*` cross-crate mapping, method/associated calls by
//!   `(receiver type head, name)`, and trait-object dispatch joined over
//!   every `impl Trait for T`. Anything outside those heuristics is an
//!   explicit [`CallTarget::Unresolved`] edge — the analysis on top must
//!   treat those conservatively rather than silently dropping them.
//!
//! Typing is deliberately shallow and deterministic: a variable maps to a
//! type *head* (plus top-level argument heads), inferred from parameter
//! annotations, `let` annotations, constructor calls (`HashMap::new()`),
//! struct literals, field declarations, resolved return types, and a
//! small table of `std` method shapes. Two passes over each body settle
//! forward references; everything unknown stays unknown (never guessed).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;
use crate::parse::parse_file;

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// One analyzed source file.
pub struct FileInfo {
    /// Workspace-relative path.
    pub rel: String,
    /// Analysis unit (crate) this file belongs to.
    pub unit: String,
    /// Parsed AST.
    pub ast: SourceFile,
    /// Use-imports visible in this file: name in scope → full path.
    pub imports: BTreeMap<String, Vec<String>>,
}

/// One function (free, associated, or trait-provided).
pub struct FnRecord {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Analysis unit (copied from the file).
    pub unit: String,
    /// Bare name.
    pub name: String,
    /// Display name (`Type::name` for associated fns).
    pub qual: String,
    /// Enclosing `impl`/`trait` type head.
    pub impl_ty: Option<String>,
    /// Trait being implemented, for `impl Trait for Ty` methods.
    pub trait_name: Option<String>,
    /// `pub` visibility (item-level; enclosing module visibility is not
    /// modeled).
    pub vis_pub: bool,
    /// Inside `#[cfg(test)]` / `#[test]`.
    pub cfg_test: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Parameter binding names and declared types (receiver excluded).
    pub params: Vec<(Vec<String>, Ty)>,
    /// Declared return type.
    pub ret: Option<Ty>,
    /// Item-index path to the `fn` item inside the file's AST.
    pub item_path: Vec<usize>,
}

/// Where a call goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// A single workspace function.
    Resolved(FnId),
    /// Trait-object dispatch: every `impl Trait for …` candidate.
    Trait(Vec<FnId>),
    /// `std`/`core`/`alloc` — known-external, behavior modeled by name.
    Std,
    /// An enum variant / tuple-struct constructor, not a function call.
    Constructor,
    /// Nothing matched; `kind` says what class of edge was dropped.
    Unresolved(UnresolvedKind),
}

/// Classes of unresolved call edges (kept explicit so the bench report
/// and the taint analysis can account for them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnresolvedKind {
    /// Free-function path that matched no workspace fn.
    Free,
    /// Method whose receiver type is unknown or has no such method.
    Method,
    /// Call through a local variable (closure parameters, fn values).
    Local,
}

/// Per-function local type environment: binding name → shallow type.
pub type Env = BTreeMap<String, Ty>;

/// The resolved workspace.
pub struct Workspace {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<FileInfo>,
    /// Every function, in file order then item order.
    pub fns: Vec<FnRecord>,
    /// Struct fields: type head → field name → declared type.
    pub structs: BTreeMap<String, BTreeMap<String, Ty>>,
    /// Precomputed local type environment per function.
    pub envs: Vec<Env>,
    free_by_unit: BTreeMap<(String, String), Vec<FnId>>,
    free_by_name: BTreeMap<String, Vec<FnId>>,
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// `methods` by name alone, across receiver types.
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    trait_impls: BTreeMap<(String, String), Vec<FnId>>,
    traits: BTreeSet<String>,
}

/// The analysis unit (crate) a workspace-relative path belongs to.
/// Bare files (the fixture corpus) each form their own unit, which lets
/// cross-unit fixtures exist without a crate layout.
pub fn unit_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some("src") | Some("tests") | Some("examples") => "lpmem".to_string(),
        Some(one) if !rel.contains('/') => one.trim_end_matches(".rs").to_string(),
        Some(other) => other.to_string(),
        None => "?".to_string(),
    }
}

/// Maps a path's first segment to a target unit, if it names a crate.
fn crate_of_seg(seg: &str, current: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(current.to_string()),
        "std" | "core" | "alloc" => None,
        "lpmem" => Some("lpmem".to_string()),
        s => s.strip_prefix("lpmem_").map(|rest| rest.to_string()),
    }
}

fn is_upper(s: &str) -> bool {
    s.chars().next().map(char::is_uppercase).unwrap_or(false)
}

impl Workspace {
    /// Parses and resolves a whole workspace from `(rel_path, source)`
    /// pairs. Infallible; files that parse badly just contribute fewer
    /// symbols.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        for (rel, src) in sources {
            let ast = parse_file(src);
            let mut imports = BTreeMap::new();
            collect_imports(&ast.items, &mut imports);
            files.push(FileInfo {
                rel: rel.clone(),
                unit: unit_of(rel),
                ast,
                imports,
            });
        }
        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            structs: BTreeMap::new(),
            envs: Vec::new(),
            free_by_unit: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
            traits: BTreeSet::new(),
        };
        for fi in 0..ws.files.len() {
            let mut recs = Vec::new();
            collect_fns(
                &ws.files[fi].ast.items,
                fi,
                &ws.files[fi].unit,
                &mut Vec::new(),
                None,
                None,
                false,
                &mut recs,
                &mut ws.structs,
                &mut ws.traits,
            );
            for rec in recs {
                let id = ws.fns.len();
                if let Some(ty) = &rec.impl_ty {
                    ws.methods
                        .entry((ty.clone(), rec.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &rec.trait_name {
                        ws.trait_impls
                            .entry((tr.clone(), rec.name.clone()))
                            .or_default()
                            .push(id);
                    }
                } else {
                    ws.free_by_unit
                        .entry((rec.unit.clone(), rec.name.clone()))
                        .or_default()
                        .push(id);
                    ws.free_by_name
                        .entry(rec.name.clone())
                        .or_default()
                        .push(id);
                }
                ws.fns.push(rec);
            }
        }
        for ((_, name), ids) in &ws.methods {
            ws.methods_by_name
                .entry(name.clone())
                .or_default()
                .extend(ids);
        }
        // Environments need the symbol tables, so they come last; two
        // passes let `let` chains settle forward references.
        for id in 0..ws.fns.len() {
            ws.envs.push(ws.build_env(id));
        }
        ws
    }

    /// The body block of a function, navigated via its item path.
    pub fn fn_body(&self, id: FnId) -> Option<&Block> {
        let rec = self.fns.get(id)?;
        let file = self.files.get(rec.file)?;
        let mut items = &file.ast.items;
        for (hop, idx) in rec.item_path.iter().enumerate() {
            let item = items.get(*idx)?;
            if hop + 1 == rec.item_path.len() {
                if let ItemKind::Fn(func) = &item.kind {
                    return func.body.as_ref();
                }
                return None;
            }
            items = match &item.kind {
                ItemKind::Impl(imp) => &imp.items,
                ItemKind::Trait(tr) => &tr.items,
                ItemKind::Mod(m) => m.items.as_ref()?,
                _ => return None,
            };
        }
        None
    }

    /// Resolves a free/associated call by path from `file`.
    pub fn resolve_path_call(&self, file: usize, segs: &[String]) -> CallTarget {
        let unit = &self.files[file].unit;
        match segs {
            [] => CallTarget::Unresolved(UnresolvedKind::Free),
            [name] => self.resolve_free(file, unit, name),
            _ => {
                let first = segs[0].as_str();
                let last = segs[segs.len() - 1].as_str();
                if first == "std" || first == "core" || first == "alloc" {
                    return CallTarget::Std;
                }
                if is_upper(last) {
                    // `Outcome::Ok`, `Some`-like payload constructors.
                    return CallTarget::Constructor;
                }
                if is_upper(first) || (segs.len() >= 2 && is_upper(&segs[segs.len() - 2])) {
                    // `Type::assoc` (possibly module-qualified).
                    let ty = if is_upper(first) {
                        first
                    } else {
                        segs[segs.len() - 2].as_str()
                    };
                    // Imports may alias the type name; the head is the
                    // same either way.
                    return self.resolve_method_on(unit, ty, last);
                }
                // Module path: map the first segment to a unit.
                let target_unit = crate_of_seg(first, unit)
                    .or_else(|| {
                        self.files[file]
                            .imports
                            .get(first)
                            .and_then(|path| path.first())
                            .and_then(|seg0| crate_of_seg(seg0, unit))
                    })
                    .unwrap_or_else(|| unit.clone());
                self.resolve_free_in(file, &target_unit, last)
                    .or_else(|| self.unique_by_name(last))
                    .unwrap_or(CallTarget::Unresolved(UnresolvedKind::Free))
            }
        }
    }

    fn resolve_free(&self, file: usize, unit: &str, name: &str) -> CallTarget {
        if let Some(t) = self.resolve_free_in(file, unit, name) {
            return t;
        }
        // Imported name: `use lpmem_trace::gen::synthesize;` then
        // `synthesize(…)`.
        if let Some(path) = self.files[file].imports.get(name) {
            if path.len() > 1 {
                let first = path.first().map(String::as_str).unwrap_or("");
                let leaf = path.last().map(String::as_str).unwrap_or(name);
                // Bare-file units (the fixture corpus) import each other by
                // file stem, so an unrecognized first segment is itself a
                // candidate unit, not `std`.
                let target = crate_of_seg(first, unit).unwrap_or_else(|| first.to_string());
                if matches!(first, "std" | "core" | "alloc") {
                    return CallTarget::Std;
                }
                if is_upper(leaf) {
                    return CallTarget::Constructor;
                }
                if let Some(t) = self.resolve_free_in(file, &target, leaf) {
                    return t;
                }
            }
        }
        if is_upper(name) {
            // `Some(x)`, `Ok(x)`, tuple-struct constructors.
            return CallTarget::Constructor;
        }
        self.unique_by_name(name)
            .unwrap_or(CallTarget::Unresolved(UnresolvedKind::Free))
    }

    fn resolve_free_in(&self, file: usize, unit: &str, name: &str) -> Option<CallTarget> {
        let ids = self
            .free_by_unit
            .get(&(unit.to_string(), name.to_string()))?;
        // Same file wins (module-proximity heuristic); otherwise the
        // first in deterministic order.
        let best = ids
            .iter()
            .find(|id| self.fns[**id].file == file)
            .or_else(|| ids.first())?;
        Some(CallTarget::Resolved(*best))
    }

    /// Every workspace method with this name, across all receiver types.
    /// The taint layer's unanimity fallback uses this when a receiver's
    /// type cannot be inferred.
    pub fn methods_named(&self, name: &str) -> &[FnId] {
        self.methods_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    fn unique_by_name(&self, name: &str) -> Option<CallTarget> {
        let ids = self.free_by_name.get(name)?;
        if ids.len() == 1 {
            Some(CallTarget::Resolved(ids[0]))
        } else {
            None
        }
    }

    /// Resolves `recv.method(…)` given the receiver's inferred type.
    pub fn resolve_method(&self, unit: &str, recv_ty: Option<&Ty>, method: &str) -> CallTarget {
        match recv_ty {
            Some(ty) => {
                let head = ty.unwrapped_head().to_string();
                self.resolve_method_on(unit, &head, method)
            }
            None => CallTarget::Unresolved(UnresolvedKind::Method),
        }
    }

    fn resolve_method_on(&self, unit: &str, head: &str, method: &str) -> CallTarget {
        // A trait-typed receiver dispatches to every implementation, not
        // to the trait's own declaration/default body.
        if self.traits.contains(head) {
            if let Some(ids) = self
                .trait_impls
                .get(&(head.to_string(), method.to_string()))
            {
                return CallTarget::Trait(ids.clone());
            }
        }
        if let Some(ids) = self.methods.get(&(head.to_string(), method.to_string())) {
            // Prefer a same-unit impl; a unique candidate stands alone;
            // ambiguity (same type name in two crates) stays unresolved.
            if let Some(id) = ids.iter().find(|id| self.fns[**id].unit == unit) {
                return CallTarget::Resolved(*id);
            }
            if ids.len() == 1 {
                return CallTarget::Resolved(ids[0]);
            }
            return CallTarget::Unresolved(UnresolvedKind::Method);
        }
        // Trait-object receiver: join every implementation.
        if let Some(ids) = self
            .trait_impls
            .get(&(head.to_string(), method.to_string()))
        {
            return CallTarget::Trait(ids.clone());
        }
        CallTarget::Unresolved(UnresolvedKind::Method)
    }

    /// Builds the local type environment for `id` (two fixstep passes).
    fn build_env(&self, id: FnId) -> Env {
        let rec = &self.fns[id];
        let mut env = Env::new();
        if rec.has_self {
            if let Some(ty) = &rec.impl_ty {
                env.insert(
                    "self".to_string(),
                    Ty {
                        text: ty.clone(),
                        head: ty.clone(),
                        args: Vec::new(),
                    },
                );
            }
        }
        for (bindings, ty) in &rec.params {
            if bindings.len() == 1 && !ty.head.is_empty() {
                env.insert(bindings[0].clone(), ty.clone());
            }
        }
        if let Some(body) = self.fn_body(id) {
            for _ in 0..2 {
                let mut pass = env.clone();
                self.env_pass(body, rec, &mut pass);
                if pass == env {
                    break;
                }
                env = pass;
            }
        }
        env
    }

    fn env_pass(&self, block: &Block, rec: &FnRecord, env: &mut Env) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        self.env_pass_expr(init, rec, env);
                    }
                    if let Some(els) = &l.els {
                        self.env_pass(els, rec, env);
                    }
                    if l.pat.bindings.len() == 1 {
                        let name = &l.pat.bindings[0];
                        let ty = match &l.ty {
                            Some(t) if !t.head.is_empty() => Some(t.clone()),
                            _ => l.init.as_ref().and_then(|e| self.infer(env, rec, e)),
                        };
                        if let Some(t) = ty {
                            env.insert(name.clone(), t);
                        }
                    }
                }
                Stmt::Expr(e, _) => self.env_pass_expr(e, rec, env),
                Stmt::Item(_) => {}
            }
        }
    }

    fn env_pass_expr(&self, expr: &Expr, rec: &FnRecord, env: &mut Env) {
        // Walk nested blocks so `let`s inside loops/branches/closures
        // land in the (flat, shadowing-approximate) environment.
        let mut lets = Vec::new();
        collect_inner_lets(expr, &mut |l| lets.push(l));
        for l in lets {
            if l.pat.bindings.len() == 1 {
                let name = &l.pat.bindings[0];
                let ty = match &l.ty {
                    Some(t) if !t.head.is_empty() => Some(t.clone()),
                    _ => l.init.as_ref().and_then(|e| self.infer(env, rec, e)),
                };
                if let Some(t) = ty {
                    env.insert(name.clone(), t);
                }
            }
        }
    }

    /// Infers the shallow type of an expression under `env`.
    pub fn infer(&self, env: &Env, rec: &FnRecord, expr: &Expr) -> Option<Ty> {
        match &expr.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] => env.get(one).cloned(),
                many => {
                    let first = &many[0];
                    if is_upper(first) {
                        Some(simple_ty(first))
                    } else {
                        None
                    }
                }
            },
            ExprKind::Lit(text) => Some(lit_ty(text)),
            ExprKind::Field(base, name) => {
                let base_ty = self.infer(env, rec, base)?;
                let head = base_ty.unwrapped_head();
                self.structs.get(head)?.get(name).cloned()
            }
            ExprKind::MethodCall {
                recv,
                method,
                turbofish,
                ..
            } => self.infer_method(env, rec, recv, method, turbofish.as_deref()),
            ExprKind::Call { callee, args } => {
                let segs = callee.as_path()?;
                match self.resolve_path_call(rec.file, segs) {
                    CallTarget::Resolved(id) => self.fns[id].ret.clone(),
                    CallTarget::Constructor => {
                        let last = segs.last()?;
                        match last.as_str() {
                            "Some" | "Ok" => {
                                let inner = args
                                    .first()
                                    .and_then(|a| self.infer(env, rec, a))
                                    .map(|t| t.head)
                                    .unwrap_or_default();
                                Some(Ty {
                                    text: String::new(),
                                    head: if last == "Some" { "Option" } else { "Result" }
                                        .to_string(),
                                    args: vec![inner],
                                })
                            }
                            _ => {
                                // `Outcome::Ok(x)` → Outcome; `Foo(x)` → Foo.
                                let head = if segs.len() >= 2 && is_upper(&segs[segs.len() - 2]) {
                                    segs[segs.len() - 2].clone()
                                } else {
                                    (*last).clone()
                                };
                                Some(simple_ty(&head))
                            }
                        }
                    }
                    CallTarget::Std => {
                        // `HashMap::new()`-style constructors resolve by
                        // their type segment below.
                        let ty_seg = segs.iter().rev().find(|s| is_upper(s))?;
                        Some(simple_ty(ty_seg))
                    }
                    _ => {
                        let ty_seg = segs.iter().rev().find(|s| is_upper(s))?;
                        Some(simple_ty(ty_seg))
                    }
                }
            }
            ExprKind::Cast(_, ty) => Some(ty.clone()),
            ExprKind::StructLit { path, .. } => path.last().map(|p| simple_ty(p)),
            ExprKind::Binary(op, a, b) => match op {
                BinOp::Cmp | BinOp::Logic => Some(simple_ty("#bool")),
                _ => self.infer(env, rec, a).or_else(|| self.infer(env, rec, b)),
            },
            ExprKind::Unary(_, a) | ExprKind::Ref { inner: a, .. } => self.infer(env, rec, a),
            ExprKind::Try(a) => {
                let t = self.infer(env, rec, a)?;
                first_arg_ty(&t)
            }
            ExprKind::Index(base, _) => {
                let t = self.infer(env, rec, base)?;
                first_arg_ty(&t)
            }
            ExprKind::Tuple(_) => Some(simple_ty("()")),
            ExprKind::Array(_) => Some(simple_ty("[]")),
            ExprKind::Range(..) => Some(simple_ty("#range")),
            ExprKind::MacroCall { path, .. } => match path.last().map(String::as_str) {
                Some("vec") => Some(simple_ty("Vec")),
                Some("format") => Some(simple_ty("String")),
                _ => None,
            },
            ExprKind::Assign { .. } => Some(simple_ty("()")),
            _ => None,
        }
    }

    fn infer_method(
        &self,
        env: &Env,
        rec: &FnRecord,
        recv: &Expr,
        method: &str,
        turbofish: Option<&str>,
    ) -> Option<Ty> {
        // Std-shaped methods first: these fire regardless of whether the
        // receiver is a workspace type.
        match method {
            "clone" | "to_owned" | "to_vec" => return self.infer(env, rec, recv),
            "collect" => {
                return turbofish.map(simple_ty);
            }
            "unwrap" | "expect" | "unwrap_or_default" => {
                let t = self.infer(env, rec, recv)?;
                if matches!(t.head.as_str(), "Option" | "Result") {
                    return first_arg_ty(&t);
                }
                return Some(t);
            }
            "unwrap_or" | "unwrap_or_else" => {
                let t = self.infer(env, rec, recv)?;
                if matches!(t.head.as_str(), "Option" | "Result") {
                    return first_arg_ty(&t);
                }
                return Some(t);
            }
            "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain"
            | "chars" | "bytes" | "lines" | "split" | "split_whitespace" | "windows" | "chunks" => {
                let t = self.infer(env, rec, recv)?;
                return Some(Ty {
                    text: String::new(),
                    head: "#iter".to_string(),
                    args: vec![t.unwrapped_head().to_string()],
                });
            }
            "enumerate" | "map" | "filter" | "filter_map" | "flat_map" | "flatten" | "zip"
            | "rev" | "take" | "skip" | "chain" | "copied" | "cloned" | "by_ref" | "peekable"
            | "step_by" | "inspect" => {
                // Adapters preserve the iteration's provenance.
                return self.infer(env, rec, recv);
            }
            "len" | "count" | "capacity" => return Some(simple_ty("usize")),
            "sum" | "product" => {
                return Some(match turbofish {
                    Some(t) => simple_ty(t),
                    None => simple_ty("#int"),
                });
            }
            "is_empty" | "contains" | "contains_key" | "any" | "all" | "is_some" | "is_none"
            | "is_ok" | "is_err" | "starts_with" | "ends_with" => {
                return Some(simple_ty("#bool"));
            }
            "to_string" => return Some(simple_ty("String")),
            "as_str" => return Some(simple_ty("str")),
            "abs" | "min" | "max" | "pow" | "wrapping_add" | "wrapping_sub" | "wrapping_mul"
            | "saturating_add" | "saturating_sub" | "saturating_mul" | "rotate_left"
            | "rotate_right" => {
                return self.infer(env, rec, recv);
            }
            "checked_add" | "checked_sub" | "checked_mul" | "checked_div" => {
                let t = self.infer(env, rec, recv)?;
                return Some(Ty {
                    text: String::new(),
                    head: "Option".to_string(),
                    args: vec![t.head],
                });
            }
            _ => {}
        }
        let recv_ty = self.infer(env, rec, recv);
        match self.resolve_method(&rec.unit, recv_ty.as_ref(), method) {
            CallTarget::Resolved(id) => self.fns[id].ret.clone(),
            CallTarget::Trait(ids) => ids.first().and_then(|id| self.fns[*id].ret.clone()),
            _ => None,
        }
    }
}

fn first_arg_ty(t: &Ty) -> Option<Ty> {
    t.args.first().map(|h| simple_ty(h))
}

fn simple_ty(head: &str) -> Ty {
    Ty {
        text: head.to_string(),
        head: head.to_string(),
        args: Vec::new(),
    }
}

fn lit_ty(text: &str) -> Ty {
    if text.starts_with('"') || text.starts_with("r\"") || text.starts_with("r#") {
        return simple_ty("str");
    }
    if text.starts_with('\'') || text.starts_with("b'") {
        return simple_ty("char");
    }
    if text == "true" || text == "false" {
        return simple_ty("#bool");
    }
    // Number: explicit suffix wins, then a decimal point / exponent.
    for suffix in [
        "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
        "i128", "isize",
    ] {
        if text.ends_with(suffix) {
            return simple_ty(if suffix.starts_with('f') {
                "#float"
            } else {
                suffix
            });
        }
    }
    let no_hex = !text.starts_with("0x") && !text.starts_with("0X");
    if no_hex && (text.contains('.') || text.contains('e') || text.contains('E')) {
        simple_ty("#float")
    } else {
        simple_ty("#int")
    }
}

fn collect_imports(items: &[Item], out: &mut BTreeMap<String, Vec<String>>) {
    for item in items {
        match &item.kind {
            ItemKind::Use(u) => {
                for (name, path) in &u.leaves {
                    if name != "*" && !name.is_empty() {
                        out.insert(name.clone(), path.clone());
                    }
                }
            }
            ItemKind::Mod(m) => {
                if let Some(inner) = &m.items {
                    collect_imports(inner, out);
                }
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_fns(
    items: &[Item],
    file: usize,
    unit: &str,
    path: &mut Vec<usize>,
    impl_ty: Option<&str>,
    trait_name: Option<&str>,
    parent_test: bool,
    out: &mut Vec<FnRecord>,
    structs: &mut BTreeMap<String, BTreeMap<String, Ty>>,
    traits: &mut BTreeSet<String>,
) {
    for (i, item) in items.iter().enumerate() {
        path.push(i);
        let cfg_test = parent_test || item.cfg_test;
        match &item.kind {
            ItemKind::Fn(func) => {
                let qual = match impl_ty {
                    Some(t) => format!("{t}::{}", func.name),
                    None => func.name.clone(),
                };
                out.push(FnRecord {
                    file,
                    unit: unit.to_string(),
                    name: func.name.clone(),
                    qual,
                    impl_ty: impl_ty.map(str::to_string),
                    trait_name: trait_name.map(str::to_string),
                    vis_pub: item.vis_pub,
                    cfg_test,
                    has_self: func.has_self,
                    line: func.name_span.line,
                    params: func
                        .params
                        .iter()
                        .map(|p| (p.bindings.clone(), p.ty.clone()))
                        .collect(),
                    ret: func.ret.clone(),
                    item_path: path.clone(),
                });
            }
            ItemKind::Impl(imp) => {
                collect_fns(
                    &imp.items,
                    file,
                    unit,
                    path,
                    Some(&imp.ty_head),
                    imp.trait_name.as_deref(),
                    cfg_test,
                    out,
                    structs,
                    traits,
                );
            }
            ItemKind::Trait(tr) => {
                traits.insert(tr.name.clone());
                collect_fns(
                    &tr.items,
                    file,
                    unit,
                    path,
                    Some(&tr.name),
                    None,
                    cfg_test,
                    out,
                    structs,
                    traits,
                );
            }
            ItemKind::Mod(m) => {
                if let Some(inner) = &m.items {
                    collect_fns(
                        inner, file, unit, path, impl_ty, trait_name, cfg_test, out, structs,
                        traits,
                    );
                }
            }
            ItemKind::Struct(s) => {
                let entry = structs.entry(s.name.clone()).or_default();
                for (fname, fty) in &s.fields {
                    entry.entry(fname.clone()).or_insert_with(|| fty.clone());
                }
            }
            _ => {}
        }
        path.pop();
    }
}

/// Visits every `let` statement nested anywhere under `expr` (blocks of
/// `if`/`match`/loops/closures included).
fn collect_inner_lets<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a LetStmt)) {
    walk_expr(expr, &mut |e| {
        let blocks: Vec<&Block> = match &e.kind {
            ExprKind::If { then, .. } => vec![then],
            ExprKind::While { body, .. } | ExprKind::ForLoop { body, .. } => vec![body],
            ExprKind::Loop(b) | ExprKind::Block(b) => vec![b],
            _ => vec![],
        };
        for b in blocks {
            for stmt in &b.stmts {
                if let Stmt::Let(l) = stmt {
                    f(l);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        Workspace::build(&sources)
    }

    #[test]
    fn units_follow_the_workspace_layout() {
        assert_eq!(unit_of("crates/bench/src/sweep.rs"), "bench");
        assert_eq!(unit_of("crates/util/tests/props.rs"), "util");
        assert_eq!(unit_of("src/lib.rs"), "lpmem");
        assert_eq!(unit_of("tests/golden.rs"), "lpmem");
        assert_eq!(unit_of("t02_fixture.rs"), "t02_fixture");
    }

    #[test]
    fn free_and_method_calls_resolve() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Engine { pub map: std::collections::HashMap<u64, f64> }\n\
                 impl Engine {\n    pub fn tick(&self) -> u64 { helper() }\n}\n\
                 pub fn helper() -> u64 { 7 }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "use lpmem_a::helper;\n\
                 pub fn caller() -> u64 { helper() }\n",
            ),
        ]);
        assert_eq!(w.fns.len(), 3);
        let helper_id = w
            .fns
            .iter()
            .position(|f| f.name == "helper")
            .expect("helper");
        // Same-crate single-segment call.
        let tick = w.fns.iter().position(|f| f.name == "tick").expect("tick");
        let t = w.resolve_path_call(w.fns[tick].file, &["helper".to_string()]);
        assert_eq!(t, CallTarget::Resolved(helper_id));
        // Cross-crate via use-import.
        let caller = w
            .fns
            .iter()
            .position(|f| f.name == "caller")
            .expect("caller");
        let t = w.resolve_path_call(w.fns[caller].file, &["helper".to_string()]);
        assert_eq!(t, CallTarget::Resolved(helper_id));
        // Method by receiver type head.
        let t = w.resolve_method("a", Some(&simple_ty("Engine")), "tick");
        assert_eq!(t, CallTarget::Resolved(tick));
        // Struct field types are recorded.
        assert_eq!(
            w.structs["Engine"]["map"].head, "HashMap",
            "field type head"
        );
    }

    #[test]
    fn env_types_constructors_and_annotations() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn f() -> u64 {\n\
             let mut m = std::collections::HashMap::new();\n\
             let v: Vec<u64> = Vec::new();\n\
             m.insert(1u64, 2u64);\n\
             (m.len() + v.len()) as u64\n}\n",
        )]);
        let f = w.fns.iter().position(|f| f.name == "f").expect("f");
        let env = &w.envs[f];
        assert_eq!(env.get("m").map(|t| t.head.as_str()), Some("HashMap"));
        assert_eq!(env.get("v").map(|t| t.head.as_str()), Some("Vec"));
    }

    #[test]
    fn trait_object_calls_join_every_impl() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub trait Codec { fn encode(&self) -> u64; }\n\
             pub struct A; impl Codec for A { fn encode(&self) -> u64 { 1 } }\n\
             pub struct B; impl Codec for B { fn encode(&self) -> u64 { 2 } }\n\
             pub fn run(c: Box<dyn Codec>) -> u64 { c.encode() }\n",
        )]);
        let run = w.fns.iter().position(|f| f.name == "run").expect("run");
        let env = &w.envs[run];
        let recv = env.get("c").cloned().expect("c typed");
        assert_eq!(recv.unwrapped_head(), "Codec");
        match w.resolve_method("a", Some(&recv), "encode") {
            CallTarget::Trait(ids) => assert_eq!(ids.len(), 2),
            other => panic!("expected trait dispatch, got {other:?}"),
        }
    }
}
