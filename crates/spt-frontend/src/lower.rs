//! Lowering from the `minic` AST to the SPT IR.
//!
//! Locals become frontend variable slots (`VarLoad`/`VarStore`), later
//! promoted to SSA by [`spt_ir::ssa::mem2reg`]. Globals become memory
//! regions; scalar globals are size-1 regions. Short-circuit `&&`/`||`
//! expand into control flow through a temporary slot.

use crate::ast::*;
use crate::CompileError;
use spt_ir::{
    BinOp, BlockId, CmpOp, FuncBuilder, FuncId, Module, Operand, RegionId, Ty, UnOp, VarId,
};
use std::collections::HashMap;

/// Lowers a parsed [`Program`] into an IR [`Module`] (pre-SSA).
///
/// # Errors
///
/// Returns a [`CompileError`] on type errors, unknown names, duplicate
/// definitions or call-arity mismatches.
pub(crate) fn lower(program: &Program<'_>) -> Result<Module, CompileError> {
    let mut module = Module::new();

    // Globals.
    let mut globals: HashMap<&str, (RegionId, Ty)> = HashMap::with_capacity(program.globals.len());
    for g in &program.globals {
        if globals.contains_key(g.name) {
            return Err(CompileError::new(
                format!("duplicate global `{}`", g.name),
                g.line,
                1,
            ));
        }
        let ty = conv_ty(g.ty);
        let region = module.add_global(g.name, g.size, ty);
        if let Some(v) = g.init {
            let bits = match ty {
                Ty::I64 => (v as i64) as u64,
                Ty::F64 => v.to_bits(),
            };
            module.globals[region.index()].init = Some(vec![bits]);
        }
        globals.insert(g.name, (region, ty));
    }

    // Signatures (two-pass for forward references): a function's id is its
    // index in `program.funcs`.
    let mut sigs: HashMap<&str, FuncId> = HashMap::with_capacity(program.funcs.len());
    for (i, f) in program.funcs.iter().enumerate() {
        if sigs.contains_key(f.name) || INTRINSICS.contains(&f.name) {
            return Err(CompileError::new(
                format!("duplicate or reserved function name `{}`", f.name),
                f.line,
                1,
            ));
        }
        sigs.insert(f.name, FuncId::new(i));
    }

    // Bodies.
    for f in &program.funcs {
        let func = lower_func(f, program, &globals, &sigs)?;
        module.add_func(func);
    }
    Ok(module)
}

const INTRINSICS: [&str; 7] = ["abs", "fabs", "sqrt", "min", "max", "int", "float"];

fn conv_ty(t: TypeAnn) -> Ty {
    match t {
        TypeAnn::Int => Ty::I64,
        TypeAnn::Float => Ty::F64,
    }
}

struct LoopCtx {
    continue_target: BlockId,
    break_target: BlockId,
}

struct Lowerer<'p, 'a> {
    b: FuncBuilder,
    /// Each local name's innermost binding in scope.
    locals: HashMap<&'a str, (VarId, Ty)>,
    /// Every binding made in an open scope, with the one it hid: closing a
    /// scope undoes its suffix, last first.
    bound: Vec<(&'a str, Option<(VarId, Ty)>)>,
    program: &'p Program<'a>,
    globals: &'p HashMap<&'a str, (RegionId, Ty)>,
    sigs: &'p HashMap<&'a str, FuncId>,
    loop_stack: Vec<LoopCtx>,
    ret_ty: Option<Ty>,
    terminated: bool,
}

fn lower_func<'a>(
    f: &FuncDef<'a>,
    program: &Program<'a>,
    globals: &HashMap<&'a str, (RegionId, Ty)>,
    sigs: &HashMap<&'a str, FuncId>,
) -> Result<spt_ir::Function, CompileError> {
    let params: Vec<(String, Ty)> = program
        .params(f.params)
        .iter()
        .map(|&(n, t)| (n.to_string(), conv_ty(t)))
        .collect();
    let ret_ty = f.ret.map(conv_ty);
    let mut lw = Lowerer {
        b: FuncBuilder::new(f.name, params, ret_ty),
        locals: HashMap::new(),
        bound: Vec::new(),
        program,
        globals,
        sigs,
        loop_stack: Vec::new(),
        ret_ty,
        terminated: false,
    };

    // Copy parameters into mutable slots so they can be reassigned.
    for (i, &(name, ty)) in program.params(f.params).iter().enumerate() {
        let ty = conv_ty(ty);
        let slot = lw.b.declare_var(ty);
        let val = lw.b.param(i);
        lw.b.var_store(slot, val);
        lw.bind(name, slot, ty);
    }

    lw.stmts(f.body)?;
    if !lw.terminated {
        match ret_ty {
            None => {
                lw.b.ret(None);
            }
            Some(Ty::I64) => {
                lw.b.ret(Some(Operand::const_i64(0)));
            }
            Some(Ty::F64) => {
                lw.b.ret(Some(Operand::const_f64(0.0)));
            }
        }
    }
    Ok(lw.b.finish())
}

impl<'a> Lowerer<'_, 'a> {
    fn err(&self, msg: impl Into<String>, line: usize, col: usize) -> CompileError {
        CompileError::new(msg, line, col)
    }

    fn lookup_var(&self, name: &str) -> Option<(VarId, Ty)> {
        self.locals.get(name).copied()
    }

    fn bind(&mut self, name: &'a str, slot: VarId, ty: Ty) {
        let hidden = self.locals.insert(name, (slot, ty));
        self.bound.push((name, hidden));
    }

    /// Closes the scopes opened since `bound` was `scope` long.
    fn close_scope(&mut self, scope: usize) {
        for (name, hidden) in self.bound.drain(scope..).rev() {
            match hidden {
                Some(binding) => self.locals.insert(name, binding),
                None => self.locals.remove(name),
            };
        }
    }

    /// Starts a fresh block after a terminator so that subsequent (dead)
    /// statements have somewhere to go.
    fn after_terminator(&mut self) {
        let dead = self.b.add_block();
        self.b.switch_to(dead);
        self.terminated = true;
    }

    fn stmts(&mut self, body: Span) -> Result<(), CompileError> {
        let scope = self.bound.len();
        for s in self.program.body(body) {
            self.stmt(s)?;
        }
        self.close_scope(scope);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt<'a>) -> Result<(), CompileError> {
        match s.kind {
            StmtKind::Let(name, ann, e) => {
                let (val, ty) = self.expr(e)?;
                let want = ann.map(conv_ty).unwrap_or(ty);
                let val = self.coerce(val, ty, want, s.line, s.col)?;
                let slot = self.b.declare_var(want);
                self.b.var_store(slot, val);
                self.bind(name, slot, want);
                self.terminated = false;
            }
            StmtKind::Assign(name, e) => {
                let (val, ty) = self.expr(e)?;
                if let Some((slot, want)) = self.lookup_var(name) {
                    let val = self.coerce(val, ty, want, s.line, s.col)?;
                    self.b.var_store(slot, val);
                } else if let Some(&(region, want)) = self.globals.get(name) {
                    let val = self.coerce(val, ty, want, s.line, s.col)?;
                    let base = self.b.region_base(region);
                    self.b.store(base, val, region);
                } else {
                    return Err(self.err(format!("unknown variable `{name}`"), s.line, s.col));
                }
                self.terminated = false;
            }
            StmtKind::StoreIndex(name, idx, e) => {
                let Some(&(region, want)) = self.globals.get(name) else {
                    return Err(self.err(format!("unknown array `{name}`"), s.line, s.col));
                };
                let (iv, ity) = self.expr(idx)?;
                if ity != Ty::I64 {
                    return Err(self.err("array index must be int", s.line, s.col));
                }
                let (val, ty) = self.expr(e)?;
                let val = self.coerce(val, ty, want, s.line, s.col)?;
                let base = self.b.region_base(region);
                let addr = self.b.binary(BinOp::Add, base, iv);
                self.b.store(addr, val, region);
                self.terminated = false;
            }
            StmtKind::If(cond, then, els) => {
                let c = self.cond_value(cond)?;
                let then_bb = self.b.add_block();
                let else_bb = self.b.add_block();
                let join = self.b.add_block();
                self.b.branch(c, then_bb, else_bb);

                self.b.switch_to(then_bb);
                self.terminated = false;
                self.stmts(then)?;
                if !self.terminated {
                    self.b.jump(join);
                }

                self.b.switch_to(else_bb);
                self.terminated = false;
                self.stmts(els)?;
                if !self.terminated {
                    self.b.jump(join);
                }

                self.b.switch_to(join);
                self.terminated = false;
            }
            StmtKind::While(cond, body) => {
                let header = self.b.add_block();
                let body_bb = self.b.add_block();
                let exit = self.b.add_block();
                self.b.jump(header);

                self.b.switch_to(header);
                self.terminated = false;
                let c = self.cond_value(cond)?;
                self.b.branch(c, body_bb, exit);

                self.b.switch_to(body_bb);
                self.loop_stack.push(LoopCtx {
                    continue_target: header,
                    break_target: exit,
                });
                self.terminated = false;
                self.stmts(body)?;
                self.loop_stack.pop();
                if !self.terminated {
                    self.b.jump(header);
                }

                self.b.switch_to(exit);
                self.terminated = false;
            }
            StmtKind::For(init, cond, step, body) => {
                // Scope for the induction variable.
                let scope = self.bound.len();
                self.stmt(self.program.stmt(init))?;
                let header = self.b.add_block();
                let body_bb = self.b.add_block();
                let step_bb = self.b.add_block();
                let exit = self.b.add_block();
                self.b.jump(header);

                self.b.switch_to(header);
                self.terminated = false;
                let c = self.cond_value(cond)?;
                self.b.branch(c, body_bb, exit);

                self.b.switch_to(body_bb);
                self.loop_stack.push(LoopCtx {
                    continue_target: step_bb,
                    break_target: exit,
                });
                self.terminated = false;
                self.stmts(body)?;
                self.loop_stack.pop();
                if !self.terminated {
                    self.b.jump(step_bb);
                }

                self.b.switch_to(step_bb);
                self.terminated = false;
                self.stmt(self.program.stmt(step))?;
                if !self.terminated {
                    self.b.jump(header);
                }

                self.b.switch_to(exit);
                self.terminated = false;
                self.close_scope(scope);
            }
            StmtKind::Return(e) => {
                match (e, self.ret_ty) {
                    (Some(e), Some(want)) => {
                        let (val, ty) = self.expr(e)?;
                        let val = self.coerce(val, ty, want, s.line, s.col)?;
                        self.b.ret(Some(val));
                    }
                    (None, None) => {
                        self.b.ret(None);
                    }
                    (Some(_), None) => {
                        return Err(self.err(
                            "returning a value from a void function",
                            s.line,
                            s.col,
                        ))
                    }
                    (None, Some(_)) => return Err(self.err("missing return value", s.line, s.col)),
                }
                self.after_terminator();
            }
            StmtKind::Break => {
                let Some(ctx) = self.loop_stack.last() else {
                    return Err(self.err("`break` outside loop", s.line, s.col));
                };
                let target = ctx.break_target;
                self.b.jump(target);
                self.after_terminator();
            }
            StmtKind::Continue => {
                let Some(ctx) = self.loop_stack.last() else {
                    return Err(self.err("`continue` outside loop", s.line, s.col));
                };
                let target = ctx.continue_target;
                self.b.jump(target);
                self.after_terminator();
            }
            StmtKind::ExprStmt(e) => {
                // Void calls are only legal as statements.
                let call = self.program.expr(e);
                if let ExprKind::Call(name, args) = call.kind {
                    if !INTRINSICS.contains(&name) {
                        self.user_call(name, self.program.args(args), call.line, call.col)?;
                        self.terminated = false;
                        return Ok(());
                    }
                }
                let _ = self.expr(e)?;
                self.terminated = false;
            }
        }
        Ok(())
    }

    /// Lowers an expression used as a branch condition into an `i64` value.
    fn cond_value(&mut self, e: ExprId) -> Result<Operand, CompileError> {
        let (v, ty) = self.expr(e)?;
        Ok(self.truth(v, ty))
    }

    /// A value as a boolean `i64` (non-zero = true).
    fn truth(&mut self, v: Operand, ty: Ty) -> Operand {
        match ty {
            Ty::I64 => v,
            Ty::F64 => self.b.cmp(CmpOp::Ne, Ty::F64, v, Operand::const_f64(0.0)),
        }
    }

    fn coerce(
        &mut self,
        val: Operand,
        from: Ty,
        to: Ty,
        line: usize,
        col: usize,
    ) -> Result<Operand, CompileError> {
        match (from, to) {
            (a, b) if a == b => Ok(val),
            (Ty::I64, Ty::F64) => Ok(self.b.unary(UnOp::IntToFloat, val)),
            (Ty::F64, Ty::I64) => {
                Err(self.err("implicit float->int conversion; use `int(..)`", line, col))
            }
            _ => unreachable!(),
        }
    }

    fn expr(&mut self, id: ExprId) -> Result<(Operand, Ty), CompileError> {
        let e = self.program.expr(id);
        match e.kind {
            ExprKind::IntLit(v) => Ok((Operand::const_i64(v), Ty::I64)),
            ExprKind::FloatLit(v) => Ok((Operand::const_f64(v), Ty::F64)),
            ExprKind::Name(name) => {
                if let Some((slot, ty)) = self.lookup_var(name) {
                    Ok((self.b.var_load(slot, ty), ty))
                } else if let Some(&(region, ty)) = self.globals.get(name) {
                    let base = self.b.region_base(region);
                    Ok((self.b.load_ty(base, region, ty), ty))
                } else {
                    Err(self.err(format!("unknown name `{name}`"), e.line, e.col))
                }
            }
            ExprKind::Index(name, idx) => {
                let Some(&(region, ty)) = self.globals.get(name) else {
                    return Err(self.err(format!("unknown array `{name}`"), e.line, e.col));
                };
                let (iv, ity) = self.expr(idx)?;
                if ity != Ty::I64 {
                    return Err(self.err("array index must be int", e.line, e.col));
                }
                let base = self.b.region_base(region);
                let addr = self.b.binary(BinOp::Add, base, iv);
                Ok((self.b.load_ty(addr, region, ty), ty))
            }
            ExprKind::Unary(op, inner) => {
                let (v, ty) = self.expr(inner)?;
                match op {
                    AstUnOp::Neg => Ok((self.b.unary(UnOp::Neg, v), ty)),
                    AstUnOp::Not => {
                        if ty != Ty::I64 {
                            return Err(self.err("`~` requires int", e.line, e.col));
                        }
                        Ok((self.b.unary(UnOp::Not, v), Ty::I64))
                    }
                    AstUnOp::LogNot => {
                        let c = match ty {
                            Ty::I64 => self.b.cmp(CmpOp::Eq, Ty::I64, v, Operand::const_i64(0)),
                            Ty::F64 => self.b.cmp(CmpOp::Eq, Ty::F64, v, Operand::const_f64(0.0)),
                        };
                        Ok((c, Ty::I64))
                    }
                }
            }
            ExprKind::Binary(first, links) => self.chain(first, self.program.links(links)),
            ExprKind::Call(name, args) => self.call(name, self.program.args(args), e.line, e.col),
        }
    }

    /// Lowers an operator chain left to right, exactly as the recursion
    /// over the equivalent left-leaning tree would: that recursion declares
    /// a short-circuit operator's slot before it lowers the operator's left
    /// operand, so all of a chain's `&&`/`||` slots come first, the last
    /// operator's first.
    fn chain(&mut self, first: ExprId, links: &[BinLink]) -> Result<(Operand, Ty), CompileError> {
        let is_short = |op| matches!(op, AstBinOp::LogAnd | AstBinOp::LogOr);
        // Slot ids are consecutive, so the leftmost operator's slot is the
        // last one declared, and each next one is one lower.
        let mut slot = VarId::new(0);
        for _ in links.iter().filter(|l| is_short(l.op)) {
            slot = self.b.declare_var(Ty::I64);
        }
        let (mut acc, mut acc_ty) = self.expr(first)?;
        let mut shorts_done = 0;
        for link in links {
            (acc, acc_ty) = if is_short(link.op) {
                let slot = VarId::new(slot.index() - shorts_done);
                shorts_done += 1;
                self.short_circuit(link, slot, acc, acc_ty)?
            } else {
                self.binary(link, acc, acc_ty)?
            };
        }
        Ok((acc, acc_ty))
    }

    /// `lhs && rhs` / `lhs || rhs` as control flow through `slot`.
    fn short_circuit(
        &mut self,
        link: &BinLink,
        slot: VarId,
        lhs: Operand,
        lty: Ty,
    ) -> Result<(Operand, Ty), CompileError> {
        let lv = self.truth(lhs, lty);
        self.b.var_store(slot, lv);
        let rhs_bb = self.b.add_block();
        let join = self.b.add_block();
        if link.op == AstBinOp::LogAnd {
            self.b.branch(lv, rhs_bb, join);
        } else {
            self.b.branch(lv, join, rhs_bb);
        }
        self.b.switch_to(rhs_bb);
        let rv = self.cond_value(link.rhs)?;
        self.b.var_store(slot, rv);
        self.b.jump(join);
        self.b.switch_to(join);
        Ok((self.b.var_load(slot, Ty::I64), Ty::I64))
    }

    /// `lhs op rhs` for an arithmetic, bitwise or comparison operator.
    fn binary(
        &mut self,
        link: &BinLink,
        mut lv: Operand,
        lty: Ty,
    ) -> Result<(Operand, Ty), CompileError> {
        let (mut rv, rty) = self.expr(link.rhs)?;
        // Promote int to float when mixing.
        let ty = if lty == rty {
            lty
        } else {
            if lty == Ty::I64 {
                lv = self.b.unary(UnOp::IntToFloat, lv);
            } else {
                rv = self.b.unary(UnOp::IntToFloat, rv);
            }
            Ty::F64
        };

        let cmp = match link.op {
            AstBinOp::Eq => Some(CmpOp::Eq),
            AstBinOp::Ne => Some(CmpOp::Ne),
            AstBinOp::Lt => Some(CmpOp::Lt),
            AstBinOp::Le => Some(CmpOp::Le),
            AstBinOp::Gt => Some(CmpOp::Gt),
            AstBinOp::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(c) = cmp {
            return Ok((self.b.cmp(c, ty, lv, rv), Ty::I64));
        }

        let bop = match link.op {
            AstBinOp::Add => BinOp::Add,
            AstBinOp::Sub => BinOp::Sub,
            AstBinOp::Mul => BinOp::Mul,
            AstBinOp::Div => BinOp::Div,
            AstBinOp::Rem => BinOp::Rem,
            AstBinOp::And => BinOp::And,
            AstBinOp::Or => BinOp::Or,
            AstBinOp::Xor => BinOp::Xor,
            AstBinOp::Shl => BinOp::Shl,
            AstBinOp::Shr => BinOp::Shr,
            _ => unreachable!("comparisons and short-circuit forms are handled above"),
        };
        if !bop.supports(ty) {
            return Err(self.err(
                format!("operator `{bop}` requires int operands"),
                link.line,
                link.col,
            ));
        }
        Ok((self.b.binary_ty(bop, ty, lv, rv), ty))
    }

    fn call(
        &mut self,
        name: &str,
        args: &[ExprId],
        line: usize,
        col: usize,
    ) -> Result<(Operand, Ty), CompileError> {
        match name {
            "abs" => {
                let (v, ty) = self.unary_arg(args, "abs", line, col)?;
                Ok((self.b.unary(UnOp::Abs, v), ty))
            }
            "fabs" => {
                let (v, ty) = self.unary_arg(args, "fabs", line, col)?;
                let v = self.coerce(v, ty, Ty::F64, line, col)?;
                Ok((self.b.unary(UnOp::Abs, v), Ty::F64))
            }
            "sqrt" => {
                let (v, ty) = self.unary_arg(args, "sqrt", line, col)?;
                let v = self.coerce(v, ty, Ty::F64, line, col)?;
                Ok((self.b.unary(UnOp::Sqrt, v), Ty::F64))
            }
            "int" => {
                let (v, ty) = self.unary_arg(args, "int", line, col)?;
                match ty {
                    Ty::I64 => Ok((v, Ty::I64)),
                    Ty::F64 => Ok((self.b.unary(UnOp::FloatToInt, v), Ty::I64)),
                }
            }
            "float" => {
                let (v, ty) = self.unary_arg(args, "float", line, col)?;
                match ty {
                    Ty::F64 => Ok((v, Ty::F64)),
                    Ty::I64 => Ok((self.b.unary(UnOp::IntToFloat, v), Ty::F64)),
                }
            }
            "min" | "max" => {
                if args.len() != 2 {
                    return Err(self.err(format!("`{name}` takes 2 arguments"), line, col));
                }
                let (mut a, aty) = self.expr(args[0])?;
                let (mut b, bty) = self.expr(args[1])?;
                let ty = if aty == bty {
                    aty
                } else {
                    if aty == Ty::I64 {
                        a = self.b.unary(UnOp::IntToFloat, a);
                    } else {
                        b = self.b.unary(UnOp::IntToFloat, b);
                    }
                    Ty::F64
                };
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                Ok((self.b.binary_ty(op, ty, a, b), ty))
            }
            _ => {
                let (val, ty) = self.user_call(name, args, line, col)?;
                match (val, ty) {
                    (Some(v), Some(t)) => Ok((v, t)),
                    _ => Err(self.err(
                        format!("void function `{name}` used in expression"),
                        line,
                        col,
                    )),
                }
            }
        }
    }

    fn unary_arg(
        &mut self,
        args: &[ExprId],
        name: &str,
        line: usize,
        col: usize,
    ) -> Result<(Operand, Ty), CompileError> {
        if args.len() != 1 {
            return Err(self.err(format!("`{name}` takes 1 argument"), line, col));
        }
        self.expr(args[0])
    }

    fn user_call(
        &mut self,
        name: &str,
        args: &[ExprId],
        line: usize,
        col: usize,
    ) -> Result<(Option<Operand>, Option<Ty>), CompileError> {
        let Some(&id) = self.sigs.get(name) else {
            return Err(self.err(format!("unknown function `{name}`"), line, col));
        };
        let callee = &self.program.funcs[id.index()];
        let params = self.program.params(callee.params);
        let ret_ty = callee.ret.map(conv_ty);
        if args.len() != params.len() {
            return Err(self.err(
                format!(
                    "`{name}` takes {} arguments, {} given",
                    params.len(),
                    args.len()
                ),
                line,
                col,
            ));
        }
        let mut lowered = Vec::with_capacity(args.len());
        for (&arg, &(_, want)) in args.iter().zip(params) {
            let (v, ty) = self.expr(arg)?;
            lowered.push(self.coerce(v, ty, conv_ty(want), line, col)?);
        }
        let val = self.b.call(id, lowered, ret_ty);
        Ok((val, ret_ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_raw};

    #[test]
    fn lowers_minimal_function() {
        let m = compile_raw("fn f() -> int { return 1; }").unwrap();
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].ret_ty, Some(Ty::I64));
    }

    #[test]
    fn full_pipeline_verifies() {
        let src = "
            global acc: float;
            global data[64]: float;
            fn kernel(n: int) -> float {
                let i = 0;
                let s = 0.0;
                while (i < n) {
                    s = s + fabs(data[i]);
                    i = i + 1;
                }
                acc = s;
                return s;
            }
        ";
        let m = compile(src).unwrap();
        let f = &m.funcs[0];
        assert!(spt_ir::ssa::is_ssa(f));
        assert!(m.global_by_name("acc").is_some());
    }

    #[test]
    fn global_scalar_init() {
        let m = compile_raw("global x: int = 5; global y: float = 2.5;").unwrap();
        assert_eq!(m.globals[0].init, Some(vec![5u64]));
        assert_eq!(m.globals[1].init, Some(vec![2.5f64.to_bits()]));
    }

    #[test]
    fn forward_references_allowed() {
        let src = "fn a() -> int { return b(); } fn b() -> int { return 7; }";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn rejects_unknown_name() {
        let e = compile("fn f() -> int { return nope; }").unwrap_err();
        assert!(e.message.contains("unknown name"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let e = compile("fn g(x: int) {} fn f() { g(); }").unwrap_err();
        assert!(e.message.contains("arguments"));
    }

    #[test]
    fn rejects_implicit_narrowing() {
        let e = compile("fn f() -> int { let x = 1.5; return x; }").unwrap_err();
        assert!(e.message.contains("float->int"));
    }

    #[test]
    fn promotes_int_to_float() {
        let m = compile("fn f() -> float { return 1 + 2.5; }").unwrap();
        assert_eq!(m.funcs[0].ret_ty, Some(Ty::F64));
    }

    #[test]
    fn rejects_bitwise_on_float() {
        let e = compile("fn f() -> float { return 1.0 & 2.0; }").unwrap_err();
        assert!(e.message.contains("requires int"));
    }

    #[test]
    fn break_continue_in_loops() {
        let src = "
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    s = s + i;
                }
                return s;
            }
        ";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = compile("fn f() { break; }").unwrap_err();
        assert!(e.message.contains("outside loop"));
    }

    #[test]
    fn short_circuit_produces_control_flow() {
        let m =
            compile("fn f(a: int, b: int) -> int { if (a > 0 && b > 0) { return 1; } return 0; }")
                .unwrap();
        // More than the 4 blocks a plain if would create.
        let reachable_blocks = {
            let cfg = spt_ir::Cfg::compute(&m.funcs[0]);
            cfg.rpo.len()
        };
        assert!(reachable_blocks >= 4);
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        let src = "fn f() -> int { return 1; return 2; }";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn void_call_as_statement_only() {
        let e = compile("fn g() {} fn f() -> int { return g(); }").unwrap_err();
        assert!(e.message.contains("void"));
    }

    #[test]
    fn intrinsics_typecheck() {
        let m = compile(
            "fn f(x: float, y: int) -> float { return sqrt(fabs(x)) + float(abs(y)) + min(x, 1.0) + float(max(y, 2)); }",
        )
        .unwrap();
        assert_eq!(m.funcs.len(), 1);
    }

    #[test]
    fn global_array_round_trip_shape() {
        let src = "
            global a[8]: int;
            fn f() {
                a[0] = 1;
                a[1] = a[0] + 1;
            }
        ";
        let m = compile(src).unwrap();
        // One region, loads/stores attributed to it.
        assert_eq!(m.globals.len(), 1);
        let f = &m.funcs[0];
        let mut stores = 0;
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                if let spt_ir::InstKind::Store { region, .. } = f.inst(i).kind {
                    assert_eq!(region, RegionId::new(0));
                    stores += 1;
                }
            }
        }
        assert_eq!(stores, 2);
    }
}
