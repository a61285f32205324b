//! Abstract syntax tree for `minic`.
//!
//! The tree lives in flat arenas owned by the [`Program`]: nodes refer to
//! each other by index, and every list (a block's statements, a call's
//! arguments, an operator chain's links, a function's parameters) is a
//! contiguous [`Span`] of its arena. Names borrow from the source text. So
//! a parse grows a few vectors instead of allocating a box per node, and
//! nothing that walks or drops the tree recurses per operator.

/// A source type annotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TypeAnn {
    /// `int` — 64-bit signed integer.
    Int,
    /// `float` — 64-bit float.
    Float,
}

/// Binary operators at the AST level (including short-circuit forms, which
/// lowering expands into control flow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AstBinOp {
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
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

/// Unary operators at the AST level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AstUnOp {
    /// `-`
    Neg,
    /// `~`
    Not,
    /// `!`
    LogNot,
}

/// Index of an expression in [`Program::exprs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExprId(pub usize);

/// Index of a statement in [`Program::stmts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StmtId(pub usize);

/// The run `start..end` of one of the [`Program`]'s arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Span {
    /// First index.
    pub start: usize,
    /// One past the last index.
    pub end: usize,
}

/// An expression with source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Expr<'a> {
    /// The node.
    pub kind: ExprKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Expression payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ExprKind<'a> {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable or global scalar reference.
    Name(&'a str),
    /// Global array element read: `name[index]`.
    Index(&'a str, ExprId),
    /// A left-associative operator chain `first op₁ e₁ op₂ e₂ …`, which
    /// means `((first op₁ e₁) op₂ e₂) …`; the links are in
    /// [`Program::links`]. It stays flat, however long.
    Binary(ExprId, Span),
    /// Unary operation.
    Unary(AstUnOp, ExprId),
    /// Function or intrinsic call; the arguments are in [`Program::args`].
    Call(&'a str, Span),
}

/// One `op operand` step of an operator chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BinLink {
    /// The operator.
    pub op: AstBinOp,
    /// 1-based line of the operator.
    pub line: usize,
    /// 1-based column of the operator.
    pub col: usize,
    /// The right operand.
    pub rhs: ExprId,
}

/// A statement with source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Stmt<'a> {
    /// The node.
    pub kind: StmtKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Statement payload. Bodies are runs of [`Program::stmts`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum StmtKind<'a> {
    /// `let name (: ty)? = expr;`
    Let(&'a str, Option<TypeAnn>, ExprId),
    /// `name = expr;` (local or global scalar)
    Assign(&'a str, ExprId),
    /// `name[index] = expr;`
    StoreIndex(&'a str, ExprId, ExprId),
    /// `if (cond) { .. } else { .. }`
    If(ExprId, Span, Span),
    /// `while (cond) { .. }`
    While(ExprId, Span),
    /// `for (init; cond; step) { .. }` — the countable "DO loop" form.
    For(StmtId, ExprId, StmtId, Span),
    /// `return expr?;`
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Expression statement (typically a call).
    ExprStmt(ExprId),
}

/// A function definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FuncDef<'a> {
    /// Function name.
    pub name: &'a str,
    /// The `(name, type)` parameters, in [`Program::params`].
    pub params: Span,
    /// Return type, if any.
    pub ret: Option<TypeAnn>,
    /// Body statements.
    pub body: Span,
    /// 1-based line of the definition.
    pub line: usize,
}

/// A global declaration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct GlobalDef<'a> {
    /// Global name.
    pub name: &'a str,
    /// Number of cells (1 for scalars).
    pub size: usize,
    /// Element type.
    pub ty: TypeAnn,
    /// Scalar initializer, if present.
    pub init: Option<f64>,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// A parsed program and the arenas its nodes live in.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Program<'a> {
    /// Global declarations in source order.
    pub globals: Vec<GlobalDef<'a>>,
    /// Function definitions in source order.
    pub funcs: Vec<FuncDef<'a>>,
    /// Every expression.
    pub exprs: Vec<Expr<'a>>,
    /// Every statement; each body is a run.
    pub stmts: Vec<Stmt<'a>>,
    /// Every operator-chain link; each chain's are a run.
    pub links: Vec<BinLink>,
    /// Every call argument; each call's are a run.
    pub args: Vec<ExprId>,
    /// Every function parameter; each function's are a run.
    pub params: Vec<(&'a str, TypeAnn)>,
}

impl<'a> Program<'a> {
    /// Expression `id`.
    pub fn expr(&self, id: ExprId) -> &Expr<'a> {
        &self.exprs[id.0]
    }

    /// Statement `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt<'a> {
        &self.stmts[id.0]
    }

    /// The statements of a body.
    pub fn body(&self, span: Span) -> &[Stmt<'a>] {
        &self.stmts[span.start..span.end]
    }

    /// The links of an operator chain.
    pub fn links(&self, span: Span) -> &[BinLink] {
        &self.links[span.start..span.end]
    }

    /// The arguments of a call.
    pub fn args(&self, span: Span) -> &[ExprId] {
        &self.args[span.start..span.end]
    }

    /// The parameters of a function.
    pub fn params(&self, span: Span) -> &[(&'a str, TypeAnn)] {
        &self.params[span.start..span.end]
    }
}
