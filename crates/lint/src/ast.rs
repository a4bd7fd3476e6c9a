//! The spanned AST produced by [`crate::parse`].
//!
//! This is a *linter's* AST, not a compiler's: it covers the Rust subset
//! the workspace actually writes (items, impls, fn bodies, expressions,
//! match, closures) with enough fidelity for call-graph construction and
//! taint propagation, and degrades gracefully everywhere else. Regions the
//! parser cannot understand become [`ExprKind::Unknown`] /
//! [`ItemKind::Verbatim`] nodes that still carry exact byte spans, so the
//! span round-trip property (`tests/parser.rs`) holds even on inputs the
//! grammar does not model.
//!
//! Types and patterns are deliberately shallow: a [`Ty`] keeps its source
//! text plus the outermost nominal *head* (`&mut HashMap<K, V>` →
//! `HashMap`) and the heads of its top-level generic arguments, which is
//! exactly what the receiver-type heuristics in [`crate::resolve`] and the
//! hash-container typing in [`crate::taint`] consume. A [`Pat`] keeps its
//! bound identifiers. Nothing here allocates beyond the strings it shows.

/// A byte range into the lexed source plus the 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte.
    pub lo: u32,
    /// Byte offset one past the last byte.
    pub hi: u32,
    /// 1-based line of the first byte.
    pub line: u32,
}

impl Span {
    /// The empty span at offset zero (used by synthesized nodes).
    pub const NULL: Span = Span {
        lo: 0,
        hi: 0,
        line: 0,
    };

    /// A span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            line: if self.line == 0 || (other.line != 0 && other.line < self.line) {
                other.line
            } else {
                self.line
            },
        }
    }
}

/// One parsed source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Number of regions the parser had to skip (error recovery). Zero on
    /// every file the grammar fully models; the parser property test pins
    /// this at zero for the live workspace.
    pub recovered: u32,
    /// 1-based lines of the first 64 recoveries (diagnostic aid).
    pub recovered_lines: Vec<u32>,
}

/// One item (top-level or nested in a block/impl/mod).
#[derive(Debug)]
pub struct Item {
    /// Bytes of the whole item, attributes excluded.
    pub span: Span,
    /// Carries any `pub` visibility.
    pub vis_pub: bool,
    /// Carries `#[cfg(test)]` / `#[test]` (directly; nesting is resolved
    /// by the consumer walking enclosing items).
    pub cfg_test: bool,
    /// What the item is.
    pub kind: ItemKind,
}

/// Item payloads.
#[derive(Debug)]
pub enum ItemKind {
    /// `fn` (free, associated, or trait-provided).
    Fn(Box<FnItem>),
    /// `impl Ty { … }` / `impl Trait for Ty { … }`.
    Impl(ImplItem),
    /// `mod name;` or `mod name { … }`.
    Mod(ModItem),
    /// `use …;`, expanded to leaf bindings.
    Use(UseItem),
    /// `struct` with named fields (tuple/unit structs keep empty fields).
    Struct(StructItem),
    /// `enum` with variant names.
    Enum(EnumItem),
    /// `trait Name { … }`.
    Trait(TraitItem),
    /// `const NAME: Ty = …;` or `static NAME: Ty = …;`.
    Const(ConstItem),
    /// `type Alias = …;`.
    TypeAlias(String),
    /// `macro_rules! name { … }` (body skipped).
    MacroDef(String),
    /// Anything the grammar does not model (`extern` blocks, parse
    /// recoveries). The span still covers the skipped bytes.
    Verbatim,
}

/// One function.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Span of the name identifier (diagnostics anchor here).
    pub name_span: Span,
    /// `true` when the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Named parameters (receiver excluded).
    pub params: Vec<Param>,
    /// Return type, if written.
    pub ret: Option<Ty>,
    /// Body; `None` for trait-required fns and foreign fns.
    pub body: Option<Block>,
}

/// One named function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding names introduced by the parameter pattern.
    pub bindings: Vec<String>,
    /// Declared type.
    pub ty: Ty,
}

/// A shallow type: source text plus nominal head and top-level argument
/// heads (`Mutex<HashMap<u64, f64>>` → head `Mutex`, args `[HashMap]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ty {
    /// Exact source text, whitespace-normalized to single spaces.
    pub text: String,
    /// Outermost nominal head: refs, `mut`, parens, `impl`/`dyn` stripped;
    /// slices are `[]`, tuples `()`, fn-pointers/bounds `fn`.
    pub head: String,
    /// Heads of the top-level generic arguments, in order.
    pub args: Vec<String>,
}

impl Ty {
    /// The head after seeing through the workspace's standard wrappers
    /// (`&`, `Option`, `Mutex`, `Arc`, `Rc`, `Box`, `Vec` keep the rule
    /// useful for `Mutex<HashMap<…>>` fields).
    pub fn unwrapped_head(&self) -> &str {
        let mut head = self.head.as_str();
        let mut args = &self.args;
        let mut hops = 0;
        while matches!(
            head,
            "Option" | "Mutex" | "RwLock" | "Arc" | "Rc" | "Box" | "RefCell"
        ) && hops < 4
        {
            match args.first() {
                Some(first) => {
                    head = first;
                    // Only one level of argument heads is recorded, so
                    // deeper nests stop here (conservatively).
                    args = &EMPTY_ARGS;
                }
                None => break,
            }
            hops += 1;
        }
        head
    }
}

static EMPTY_ARGS: Vec<String> = Vec::new();

/// One `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// Head of the implemented type (`Frontier`, `SweepReport`).
    pub ty_head: String,
    /// Trait name for `impl Trait for Ty`.
    pub trait_name: Option<String>,
    /// Associated items.
    pub items: Vec<Item>,
}

/// One `mod` item.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// Inline body; `None` for `mod name;` (resolved by file layout).
    pub items: Option<Vec<Item>>,
}

/// One `use` item, flattened: each leaf becomes `(visible_name, path)`.
#[derive(Debug)]
pub struct UseItem {
    /// `(name in scope, full path segments)` pairs; globs record the
    /// prefix with a trailing `*` name.
    pub leaves: Vec<(String, Vec<String>)>,
}

/// One `struct` item with its named fields.
#[derive(Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Named fields with shallow types (empty for tuple/unit structs).
    pub fields: Vec<(String, Ty)>,
}

/// One `enum` item.
#[derive(Debug)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Variant names.
    pub variants: Vec<String>,
}

/// One `trait` item.
#[derive(Debug)]
pub struct TraitItem {
    /// Trait name.
    pub name: String,
    /// Associated items (provided methods carry bodies).
    pub items: Vec<Item>,
}

/// One `const`/`static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// Declared type, when parsed.
    pub ty: Option<Ty>,
    /// Initializer expression.
    pub init: Option<Expr>,
}

/// A `{ … }` block.
#[derive(Debug)]
pub struct Block {
    /// Bytes from `{` through `}`.
    pub span: Span,
    /// Statements in order; a trailing expression is a
    /// [`Stmt::Expr`] with `semi == false`.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat[: ty] [= init] [else { … }];`
    Let(LetStmt),
    /// Expression statement; `semi` records the trailing `;`.
    Expr(Expr, bool),
    /// A nested item.
    Item(Item),
}

/// One `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Bytes of the whole statement.
    pub span: Span,
    /// Binding pattern.
    pub pat: Pat,
    /// Declared type, when annotated.
    pub ty: Option<Ty>,
    /// Initializer.
    pub init: Option<Expr>,
    /// Diverging `else` block of `let … else`.
    pub els: Option<Block>,
}

/// A shallow pattern: bound names plus the covered bytes.
#[derive(Debug, Clone)]
pub struct Pat {
    /// Bytes of the pattern.
    pub span: Span,
    /// Identifiers the pattern binds (heuristic; struct-pattern field
    /// names and enum paths excluded).
    pub bindings: Vec<String>,
}

/// One expression.
#[derive(Debug)]
pub struct Expr {
    /// Bytes of the expression.
    pub span: Span,
    /// Payload.
    pub kind: ExprKind,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Arm pattern.
    pub pat: Pat,
    /// `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Binary operators the analysis distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `^`
    BitXor,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`, `!=`, `<`, `<=`, `>`, `>=`
    Cmp,
    /// `&&`, `||`
    Logic,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `*`
    Deref,
}

/// Expression payloads.
#[derive(Debug)]
pub enum ExprKind {
    /// Literal (number, string, char, `true`/`false`); the token text.
    Lit(String),
    /// Path: `x`, `a::b::C` (turbofish arguments stripped).
    Path(Vec<String>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// `&expr` / `&mut expr`.
    Ref {
        /// `&mut`.
        mutable: bool,
        /// Referenced expression.
        inner: Box<Expr>,
    },
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `lhs = rhs` (`op` `None`) or `lhs op= rhs`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `expr as Ty`.
    Cast(Box<Expr>, Ty),
    /// `callee(args…)`.
    Call {
        /// Called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.method::<T>(args…)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Span of the method identifier.
        method_span: Span,
        /// Turbofish type argument head, when written
        /// (`collect::<Vec<_>>` → `Vec`).
        turbofish: Option<String>,
        /// Arguments (receiver excluded).
        args: Vec<Expr>,
    },
    /// `base.field` (also tuple indices: `pair.0`).
    Field(Box<Expr>, String),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `(a, b, …)`; one-element groups are transparent parens.
    Tuple(Vec<Expr>),
    /// `[a, b, …]` and `[x; n]`.
    Array(Vec<Expr>),
    /// `Path { field: expr, …, ..rest }`.
    StructLit {
        /// Struct path.
        path: Vec<String>,
        /// Field initializers (shorthand `x` becomes `(x, Path(x))`).
        fields: Vec<(String, Expr)>,
        /// `..rest` base.
        rest: Option<Box<Expr>>,
    },
    /// `path!(args…)`; string-literal arguments containing inline format
    /// captures (`"{name}"`) contribute synthesized `Path` arguments.
    MacroCall {
        /// Macro path (without `!`).
        path: Vec<String>,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
    },
    /// `if cond { … } [else …]`; `cond` is an [`ExprKind::LetCond`] for
    /// `if let`.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else expression (a block or another `if`).
        els: Option<Box<Expr>>,
    },
    /// `let pat = scrut` appearing as a condition.
    LetCond {
        /// Pattern.
        pat: Pat,
        /// Scrutinee.
        scrut: Box<Expr>,
    },
    /// `match scrut { arms… }`.
    Match {
        /// Scrutinee.
        scrut: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// `while cond { … }` (cond may be a `LetCond`).
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    ForLoop {
        /// Loop pattern.
        pat: Pat,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `loop { … }`.
    Loop(Block),
    /// A block expression.
    Block(Block),
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter patterns.
        params: Vec<Pat>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr>>),
    /// `break ['label] [expr]`.
    Break(Option<Box<Expr>>),
    /// `continue ['label]`.
    Continue,
    /// `expr?`.
    Try(Box<Expr>),
    /// `lo..hi` / `lo..=hi` with optional ends.
    Range(Option<Box<Expr>>, Option<Box<Expr>>),
    /// A region the parser skipped; the span covers the bytes.
    Unknown,
}

impl Expr {
    /// Convenience constructor.
    pub fn new(span: Span, kind: ExprKind) -> Expr {
        Expr { span, kind }
    }

    /// The path segments when this is a plain path expression.
    pub fn as_path(&self) -> Option<&[String]> {
        match &self.kind {
            ExprKind::Path(segs) => Some(segs),
            _ => None,
        }
    }
}

/// Walks `expr` and every sub-expression (blocks included), calling `f` on
/// each node in pre-order. Closure bodies are walked too — the analyses
/// treat them as inline code of the enclosing function.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Lit(_) | ExprKind::Path(_) | ExprKind::Continue | ExprKind::Unknown => {}
        ExprKind::Unary(_, e)
        | ExprKind::Ref { inner: e, .. }
        | ExprKind::Cast(e, _)
        | ExprKind::Field(e, _)
        | ExprKind::Try(e) => walk_expr(e, f),
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Tuple(xs) | ExprKind::Array(xs) => {
            for x in xs {
                walk_expr(x, f);
            }
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, e) in fields {
                walk_expr(e, f);
            }
            if let Some(r) = rest {
                walk_expr(r, f);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::LetCond { scrut, .. } => walk_expr(scrut, f),
        ExprKind::Match { scrut, arms } => {
            walk_expr(scrut, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::ForLoop { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::Loop(b) | ExprKind::Block(b) => walk_block(b, f),
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::Return(e) | ExprKind::Break(e) => {
            if let Some(e) = e {
                walk_expr(e, f);
            }
        }
        ExprKind::Range(lo, hi) => {
            if let Some(lo) = lo {
                walk_expr(lo, f);
            }
            if let Some(hi) = hi {
                walk_expr(hi, f);
            }
        }
    }
}

/// Walks every expression in a block (see [`walk_expr`]).
pub fn walk_block<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, f);
                }
                if let Some(els) = &l.els {
                    walk_block(els, f);
                }
            }
            Stmt::Expr(e, _) => walk_expr(e, f),
            Stmt::Item(item) => walk_item_exprs(item, f),
        }
    }
}

/// Walks every expression under an item (nested fns, consts, impls).
pub fn walk_item_exprs<'a>(item: &'a Item, f: &mut dyn FnMut(&'a Expr)) {
    match &item.kind {
        ItemKind::Fn(func) => {
            if let Some(body) = &func.body {
                walk_block(body, f);
            }
        }
        ItemKind::Impl(imp) => {
            for it in &imp.items {
                walk_item_exprs(it, f);
            }
        }
        ItemKind::Trait(tr) => {
            for it in &tr.items {
                walk_item_exprs(it, f);
            }
        }
        ItemKind::Mod(m) => {
            if let Some(items) = &m.items {
                for it in items {
                    walk_item_exprs(it, f);
                }
            }
        }
        ItemKind::Const(c) => {
            if let Some(init) = &c.init {
                walk_expr(init, f);
            }
        }
        ItemKind::Use(_)
        | ItemKind::Struct(_)
        | ItemKind::Enum(_)
        | ItemKind::TypeAlias(_)
        | ItemKind::MacroDef(_)
        | ItemKind::Verbatim => {}
    }
}
