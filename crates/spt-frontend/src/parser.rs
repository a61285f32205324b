//! Recursive-descent parser for `minic`.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::CompileError;

/// Maximum statement/expression nesting the parser accepts. Recursive
/// descent consumes native stack per nesting level, so pathological inputs
/// (`((((…))))`, thousand-deep `if` pyramids) must be rejected with a clean
/// [`CompileError`] well before the stack would overflow — an overflow
/// aborts the process and cannot be caught by the pipeline's fault
/// isolation. 64 comfortably covers real programs while staying far from
/// the ~2 MiB test-thread stack even in unoptimised builds (where one
/// statement level costs several stack frames). It bounds the recursion of
/// every downstream AST consumer (lowering, `Drop`) only because operator
/// chains, which nest no deeper however long they are, stay flat in the
/// AST ([`ExprKind::Binary`]): the depth counts parentheses, unary
/// operators, calls, indexing and statements, never chain length.
const MAX_NESTING: usize = 64;

/// Largest global array a program may declare, in elements. Lowering
/// eagerly materialises the data image, so an unchecked `global a[...]`
/// literal would turn one malformed token into a multi-gigabyte
/// allocation.
const MAX_ARRAY_ELEMS: u64 = 1 << 22;

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    depth: usize,
    program: Program<'a>,
    /// The finished statements, links and arguments of the bodies, chains
    /// and calls still being parsed, innermost last: each moves to its
    /// arena as one run when it closes.
    open_stmts: Vec<Stmt<'a>>,
    open_links: Vec<BinLink>,
    open_args: Vec<ExprId>,
}

/// Parses a token stream into a [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] at the first syntax error.
pub(crate) fn parse<'a>(tokens: &[Token<'a>]) -> Result<Program<'a>, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        program: Program::default(),
        open_stmts: Vec::new(),
        open_links: Vec::new(),
        open_args: Vec::new(),
    };
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Global => {
                let g = p.global()?;
                p.program.globals.push(g);
            }
            Tok::Fn => {
                let f = p.func()?;
                p.program.funcs.push(f);
            }
            other => {
                return Err(p.error(format!("expected `global` or `fn`, found `{other}`")));
            }
        }
    }
    Ok(p.program)
}

/// Moves `open[mark..]` to the end of `arena`, returning the run.
fn close<T>(open: &mut Vec<T>, mark: usize, arena: &mut Vec<T>) -> Span {
    let start = arena.len();
    arena.extend(open.drain(mark..));
    Span {
        start,
        end: arena.len(),
    }
}

impl<'a> Parser<'_, 'a> {
    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].tok
    }

    fn peek2(&self) -> Tok<'a> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn error(&self, message: impl Into<String>) -> CompileError {
        let (line, col) = self.here();
        CompileError::new(message, line, col)
    }

    /// Bumps the nesting depth, erroring out before recursion could
    /// exhaust the native stack.
    fn descend(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!(
                "program nesting exceeds the maximum depth of {MAX_NESTING}"
            )));
        }
        Ok(())
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.tokens[self.pos].tok;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok<'a>) -> Result<(), CompileError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected `{want}`, found `{}`", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<&'a str, CompileError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn type_ann(&mut self) -> Result<TypeAnn, CompileError> {
        match self.bump() {
            Tok::KwInt => Ok(TypeAnn::Int),
            Tok::KwFloat => Ok(TypeAnn::Float),
            other => Err(self.error(format!("expected type, found `{other}`"))),
        }
    }

    fn push_expr(&mut self, kind: ExprKind<'a>, line: usize, col: usize) -> ExprId {
        self.program.exprs.push(Expr { kind, line, col });
        ExprId(self.program.exprs.len() - 1)
    }

    fn push_stmt(&mut self, stmt: Stmt<'a>) -> StmtId {
        self.program.stmts.push(stmt);
        StmtId(self.program.stmts.len() - 1)
    }

    fn global(&mut self) -> Result<GlobalDef<'a>, CompileError> {
        let (line, _) = self.here();
        self.expect(Tok::Global)?;
        let name = self.ident()?;
        let size = if self.peek() == Tok::LBracket {
            self.bump();
            let n = match self.bump() {
                Tok::Int(v) if v > 0 && (v as u64) <= MAX_ARRAY_ELEMS => v as usize,
                Tok::Int(v) if v > 0 => {
                    return Err(self.error(format!(
                        "array size {v} exceeds the maximum of {MAX_ARRAY_ELEMS} elements"
                    )))
                }
                _ => return Err(self.error("array size must be a positive integer literal")),
            };
            self.expect(Tok::RBracket)?;
            n
        } else {
            1
        };
        self.expect(Tok::Colon)?;
        let ty = self.type_ann()?;
        let init = if self.peek() == Tok::Assign {
            self.bump();
            let neg = if self.peek() == Tok::Minus {
                self.bump();
                true
            } else {
                false
            };
            let raw = match self.bump() {
                Tok::Int(v) => v as f64,
                Tok::Float(v) => v,
                _ => return Err(self.error("global initializer must be a literal")),
            };
            Some(if neg { -raw } else { raw })
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(GlobalDef {
            name,
            size,
            ty,
            init,
            line,
        })
    }

    fn func(&mut self) -> Result<FuncDef<'a>, CompileError> {
        let (line, _) = self.here();
        self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let start = self.program.params.len();
        if self.peek() != Tok::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let pty = self.type_ann()?;
                self.program.params.push((pname, pty));
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let params = Span {
            start,
            end: self.program.params.len(),
        };
        self.expect(Tok::RParen)?;
        let ret = if self.peek() == Tok::Arrow {
            self.bump();
            Some(self.type_ann()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDef {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Span, CompileError> {
        self.expect(Tok::LBrace)?;
        let mark = self.open_stmts.len();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return Err(self.error("unexpected end of input in block"));
            }
            let s = self.stmt()?;
            self.open_stmts.push(s);
        }
        self.bump(); // }
        Ok(close(&mut self.open_stmts, mark, &mut self.program.stmts))
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        // Statements recurse through blocks (`if`/`while`/`for` bodies) and
        // else-if chains; bound the depth here so every cycle is covered.
        self.descend()?;
        let r = self.stmt_inner();
        self.depth -= 1;
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt<'a>, CompileError> {
        let (line, col) = self.here();
        let kind = match self.peek() {
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                let ann = if self.peek() == Tok::Colon {
                    self.bump();
                    Some(self.type_ann()?)
                } else {
                    None
                };
                self.expect(Tok::Assign)?;
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                StmtKind::Let(name, ann, e)
            }
            Tok::If => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then = self.block()?;
                let els = if self.peek() == Tok::Else {
                    self.bump();
                    if self.peek() == Tok::If {
                        // else-if chain: a body of one `if`
                        let s = self.stmt()?;
                        let StmtId(at) = self.push_stmt(s);
                        Span {
                            start: at,
                            end: at + 1,
                        }
                    } else {
                        self.block()?
                    }
                } else {
                    Span::default()
                };
                StmtKind::If(cond, then, els)
            }
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                StmtKind::While(cond, body)
            }
            Tok::For => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = self.simple_stmt()?;
                let init = self.push_stmt(init);
                self.expect(Tok::Semi)?;
                let cond = self.expr()?;
                self.expect(Tok::Semi)?;
                let step = self.simple_stmt()?;
                let step = self.push_stmt(step);
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                StmtKind::For(init, cond, step, body)
            }
            Tok::Return => {
                self.bump();
                let e = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                StmtKind::Return(e)
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Semi)?;
                StmtKind::Break
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Semi)?;
                StmtKind::Continue
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                return Ok(s);
            }
        };
        Ok(Stmt { kind, line, col })
    }

    /// Assignment / store / expression statement without trailing `;`
    /// (shared by `for` headers and plain statements).
    fn simple_stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        let (line, col) = self.here();
        // `let` is allowed in for-init position.
        if self.peek() == Tok::Let {
            self.bump();
            let name = self.ident()?;
            let ann = if self.peek() == Tok::Colon {
                self.bump();
                Some(self.type_ann()?)
            } else {
                None
            };
            self.expect(Tok::Assign)?;
            let e = self.expr()?;
            return Ok(Stmt {
                kind: StmtKind::Let(name, ann, e),
                line,
                col,
            });
        }
        // Lookahead to distinguish `x = e`, `a[i] = e`, from expressions.
        if let Tok::Ident(name) = self.peek() {
            match self.peek2() {
                Tok::Assign => {
                    self.bump();
                    self.bump();
                    let e = self.expr()?;
                    return Ok(Stmt {
                        kind: StmtKind::Assign(name, e),
                        line,
                        col,
                    });
                }
                Tok::LBracket => {
                    // Could be a store or an index expression; parse the
                    // index and check for `=`.
                    let save = self.pos;
                    let arenas = (
                        self.program.exprs.len(),
                        self.program.links.len(),
                        self.program.args.len(),
                    );
                    self.bump(); // ident
                    self.bump(); // [
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    if self.peek() == Tok::Assign {
                        self.bump();
                        let e = self.expr()?;
                        return Ok(Stmt {
                            kind: StmtKind::StoreIndex(name, idx, e),
                            line,
                            col,
                        });
                    }
                    // An expression after all: parse it again from the name.
                    self.pos = save;
                    self.program.exprs.truncate(arenas.0);
                    self.program.links.truncate(arenas.1);
                    self.program.args.truncate(arenas.2);
                }
                _ => {}
            }
        }
        let e = self.expr()?;
        Ok(Stmt {
            kind: StmtKind::ExprStmt(e),
            line,
            col,
        })
    }

    fn expr(&mut self) -> Result<ExprId, CompileError> {
        self.binary_expr(0)
    }

    /// An operator chain whose operators bind at least as tightly as
    /// `min_prec`, kept flat: each operand binds tighter than the operator
    /// before it, so it is parsed one precedence level up.
    fn binary_expr(&mut self, min_prec: u8) -> Result<ExprId, CompileError> {
        let first = self.unary_expr()?;
        let mark = self.open_links.len();
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (AstBinOp::LogOr, 1),
                Tok::AndAnd => (AstBinOp::LogAnd, 2),
                Tok::Pipe => (AstBinOp::Or, 3),
                Tok::Caret => (AstBinOp::Xor, 4),
                Tok::Amp => (AstBinOp::And, 5),
                Tok::EqEq => (AstBinOp::Eq, 6),
                Tok::NotEq => (AstBinOp::Ne, 6),
                Tok::Lt => (AstBinOp::Lt, 7),
                Tok::Le => (AstBinOp::Le, 7),
                Tok::Gt => (AstBinOp::Gt, 7),
                Tok::Ge => (AstBinOp::Ge, 7),
                Tok::Shl => (AstBinOp::Shl, 8),
                Tok::Shr => (AstBinOp::Shr, 8),
                Tok::Plus => (AstBinOp::Add, 9),
                Tok::Minus => (AstBinOp::Sub, 9),
                Tok::Star => (AstBinOp::Mul, 10),
                Tok::Slash => (AstBinOp::Div, 10),
                Tok::Percent => (AstBinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let (line, col) = self.here();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            self.open_links.push(BinLink { op, line, col, rhs });
        }
        if self.open_links.len() == mark {
            return Ok(first);
        }
        // The chain sits at its last operator, as the outermost node of
        // the equivalent left-leaning tree would.
        let last = self.open_links[self.open_links.len() - 1];
        let (line, col) = (last.line, last.col);
        let links = close(&mut self.open_links, mark, &mut self.program.links);
        Ok(self.push_expr(ExprKind::Binary(first, links), line, col))
    }

    fn unary_expr(&mut self) -> Result<ExprId, CompileError> {
        // Every expression path funnels through here (parenthesised and
        // unary recursion both re-enter via `expr`), so this single guard
        // bounds all expression nesting.
        self.descend()?;
        let r = self.unary_expr_inner();
        self.depth -= 1;
        r
    }

    fn unary_expr_inner(&mut self) -> Result<ExprId, CompileError> {
        let (line, col) = self.here();
        let op = match self.peek() {
            Tok::Minus => Some(AstUnOp::Neg),
            Tok::Tilde => Some(AstUnOp::Not),
            Tok::Bang => Some(AstUnOp::LogNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.unary_expr()?;
            return Ok(self.push_expr(ExprKind::Unary(op, inner), line, col));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<ExprId, CompileError> {
        let (line, col) = self.here();
        let kind = match self.bump() {
            Tok::Int(v) => ExprKind::IntLit(v),
            Tok::Float(v) => ExprKind::FloatLit(v),
            // `int(expr)` / `float(expr)` conversion intrinsics reuse the
            // type keywords.
            t @ (Tok::KwInt | Tok::KwFloat) => {
                self.expect(Tok::LParen)?;
                let arg = self.expr()?;
                self.expect(Tok::RParen)?;
                let name = if t == Tok::KwInt { "int" } else { "float" };
                let mark = self.open_args.len();
                self.open_args.push(arg);
                ExprKind::Call(
                    name,
                    close(&mut self.open_args, mark, &mut self.program.args),
                )
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(name) => match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mark = self.open_args.len();
                    if self.peek() != Tok::RParen {
                        loop {
                            let arg = self.expr()?;
                            self.open_args.push(arg);
                            if self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    ExprKind::Call(
                        name,
                        close(&mut self.open_args, mark, &mut self.program.args),
                    )
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    ExprKind::Index(name, idx)
                }
                _ => ExprKind::Name(name),
            },
            other => {
                return Err(CompileError::new(
                    format!("expected expression, found `{other}`"),
                    line,
                    col,
                ))
            }
        };
        Ok(self.push_expr(kind, line, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program<'_> {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_globals() {
        let p = parse_src("global a[10]: int; global b: float = 1.5; global c: int = -2;");
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[0].size, 10);
        assert_eq!(p.globals[1].init, Some(1.5));
        assert_eq!(p.globals[2].init, Some(-2.0));
    }

    #[test]
    fn parses_function_and_loop() {
        let p = parse_src(
            "fn sum(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        );
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(p.params(f.params), [("n", TypeAnn::Int)]);
        assert_eq!(f.ret, Some(TypeAnn::Int));
        assert!(matches!(p.body(f.body)[1].kind, StmtKind::For(..)));
    }

    /// The first statement of function `f`'s body.
    fn first_stmt<'p, 'a>(p: &'p Program<'a>, f: usize) -> &'p Stmt<'a> {
        &p.body(p.funcs[f].body)[0]
    }

    /// The operators of a chain, in order.
    fn chain_ops(p: &Program<'_>, e: ExprId) -> Vec<AstBinOp> {
        match p.expr(e).kind {
            ExprKind::Binary(_, links) => p.links(links).iter().map(|l| l.op).collect(),
            other => panic!("not a chain: {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse_src("fn f() -> int { return 1 + 2 * 3; }");
        let StmtKind::Return(Some(e)) = first_stmt(&p, 0).kind else {
            panic!("expected return")
        };
        assert_eq!(chain_ops(&p, e), [AstBinOp::Add]);
        let ExprKind::Binary(_, links) = p.expr(e).kind else {
            unreachable!()
        };
        assert_eq!(chain_ops(&p, p.links(links)[0].rhs), [AstBinOp::Mul]);
    }

    /// A left-associative chain stays flat, its operators in source order
    /// and each at its own position; tighter operators nest as operands.
    #[test]
    fn chains_stay_flat() {
        let p = parse_src("fn f(a: int) -> int { return a * 2 - a + 3 * a * a - 1; }");
        let StmtKind::Return(Some(e)) = first_stmt(&p, 0).kind else {
            panic!("expected return")
        };
        assert_eq!(
            chain_ops(&p, e),
            [AstBinOp::Mul, AstBinOp::Sub, AstBinOp::Add, AstBinOp::Sub]
        );
        let chain = p.expr(e);
        let ExprKind::Binary(first, links) = chain.kind else {
            unreachable!()
        };
        assert!(matches!(p.expr(first).kind, ExprKind::Name("a")));
        let links = p.links(links);
        let cols: Vec<usize> = links.iter().map(|l| l.col).collect();
        assert_eq!(cols, [32, 36, 40, 52]);
        assert_eq!(
            (chain.line, chain.col),
            (1, 52),
            "a chain sits at its last operator"
        );
        assert_eq!(chain_ops(&p, links[2].rhs), [AstBinOp::Mul, AstBinOp::Mul]);
    }

    #[test]
    fn array_store_vs_index_expr() {
        let p = parse_src("global a[4]: int; fn f() { a[0] = a[1] + 1; }");
        match first_stmt(&p, 0).kind {
            StmtKind::StoreIndex(name, _, val) => {
                assert_eq!(name, "a");
                assert!(matches!(p.expr(val).kind, ExprKind::Binary(..)));
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    /// An index expression parsed as a store's target first, then again
    /// as an expression, leaves nothing behind in the arenas.
    #[test]
    fn index_expression_statement_backtracks_cleanly() {
        let p = parse_src("global a[4]: int; fn f() { a[g(1 + 2)] + 1; }");
        let StmtKind::ExprStmt(e) = first_stmt(&p, 0).kind else {
            panic!("expected an expression statement")
        };
        assert_eq!(chain_ops(&p, e), [AstBinOp::Add]);
        // 1, 2 and their chain, g(..), a[..], 1 and the outer chain.
        assert_eq!(p.exprs.len(), 7);
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.args.len(), 1);
    }

    #[test]
    fn else_if_chain() {
        let p = parse_src("fn f(x: int) -> int { if (x > 1) { return 1; } else if (x > 0) { return 2; } else { return 3; } }");
        match first_stmt(&p, 0).kind {
            StmtKind::If(_, _, els) => {
                let els = p.body(els);
                assert_eq!(els.len(), 1);
                assert!(matches!(els[0].kind, StmtKind::If(..)));
            }
            _ => panic!("expected if"),
        }
    }

    #[test]
    fn while_with_logical_ops() {
        let p = parse_src("fn f(x: int) { while (x > 0 && x < 10 || x == 42) { x = x - 1; } }");
        match first_stmt(&p, 0).kind {
            StmtKind::While(cond, _) => {
                assert_eq!(
                    chain_ops(&p, cond),
                    [AstBinOp::Gt, AstBinOp::LogAnd, AstBinOp::LogOr]
                );
            }
            _ => panic!("expected while"),
        }
    }

    #[test]
    fn reports_syntax_error_position() {
        let e = parse(&lex("fn f( {").unwrap()).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn unary_chains() {
        let p = parse_src("fn f(x: int) -> int { return - - x + !x; }");
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn call_statement() {
        let p = parse_src("fn g() {} fn f() { g(); }");
        assert!(matches!(first_stmt(&p, 1).kind, StmtKind::ExprStmt(_)));
    }

    #[test]
    fn deep_paren_nesting_is_a_clean_error() {
        let src = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(5000),
            ")".repeat(5000)
        );
        let e = parse(&lex(&src).unwrap()).unwrap_err();
        assert!(e.message.contains("nesting"), "got: {}", e.message);
    }

    #[test]
    fn deep_statement_nesting_is_a_clean_error() {
        let src = format!(
            "fn f() {{ {} {} }}",
            "if (1) {".repeat(5000),
            "}".repeat(5000)
        );
        let e = parse(&lex(&src).unwrap()).unwrap_err();
        assert!(e.message.contains("nesting"), "got: {}", e.message);
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let src = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(40),
            ")".repeat(40)
        );
        parse(&lex(&src).unwrap()).unwrap();
    }

    #[test]
    fn oversized_global_array_is_a_clean_error() {
        let e = parse(&lex("global a[99999999999]: int;").unwrap()).unwrap_err();
        assert!(e.message.contains("exceeds"), "got: {}", e.message);
    }
}
