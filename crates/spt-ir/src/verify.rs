//! IR verifier: structural and SSA well-formedness checks.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::BlockId;
use crate::inst::{InstKind, Operand};
use crate::module::{Function, Module};
use crate::types::Ty;
use std::fmt;

/// A verifier diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// The function in which the problem was found.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in `{}`: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of a module.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for func in &module.funcs {
        verify_func_in(func, Some(module))?;
    }
    Ok(())
}

/// Verifies a single function (without cross-function checks).
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_func(func: &Function) -> Result<(), VerifyError> {
    verify_func_in(func, None)
}

fn err(func: &Function, message: impl Into<String>) -> VerifyError {
    VerifyError {
        func: func.name.clone(),
        message: message.into(),
    }
}

fn verify_func_in(func: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    let cfg = Cfg::compute(func);
    let n = func.blocks.len();

    // Each placed instruction appears exactly once; ids are in range.
    // `placed[i]` is the block and position of instruction `i`.
    const UNPLACED: (u32, u32) = (u32::MAX, 0);
    let mut placed = vec![UNPLACED; func.insts.len()];
    for bb in func.block_ids() {
        for (pos, &i) in func.block(bb).insts.iter().enumerate() {
            let Some(slot) = placed.get_mut(i.index()) else {
                return Err(err(func, format!("{i} out of range in {bb}")));
            };
            if *slot != UNPLACED {
                let prev = BlockId(slot.0);
                return Err(err(func, format!("{i} placed in both {prev} and {bb}")));
            }
            *slot = (bb.0, pos as u32);
        }
    }

    // Blocks: reachable blocks end in exactly one terminator, terminators
    // only at the end; phis only at block start.
    for bb in func.block_ids() {
        let insts = &func.block(bb).insts;
        let Some(&last) = insts.last() else {
            if cfg.is_reachable(bb) {
                return Err(err(func, format!("reachable {bb} is empty")));
            }
            continue;
        };
        if !func.inst(last).kind.is_terminator() {
            return Err(err(func, format!("{bb} does not end in a terminator")));
        }
        let mut seen_nonphi = false;
        for (pos, &i) in insts.iter().enumerate() {
            let kind = &func.inst(i).kind;
            if kind.is_terminator() && pos + 1 != insts.len() {
                return Err(err(func, format!("terminator {i} not at end of {bb}")));
            }
            match kind {
                InstKind::Phi { .. } => {
                    if seen_nonphi {
                        return Err(err(func, format!("phi {i} not at start of {bb}")));
                    }
                }
                InstKind::Param { .. } => {
                    if bb != func.entry {
                        return Err(err(func, format!("param {i} outside entry block")));
                    }
                }
                _ => seen_nonphi = true,
            }
        }
    }

    // Branch/jump targets in range.
    for bb in func.block_ids() {
        if let Some(term) = func.terminator(bb) {
            let mut bad = None;
            func.inst(term).kind.for_each_target(|t| {
                if t.index() >= n {
                    bad = Some(t);
                }
            });
            if let Some(t) = bad {
                return Err(err(func, format!("{bb} targets out-of-range block {t}")));
            }
        }
    }

    // Phi args match predecessors: `pred_of[p] == bb` marks `p` as a
    // predecessor of `bb`, and `arg_of[p] == phi` as one of `phi`'s args.
    let mut pred_of = vec![u32::MAX; n];
    let mut arg_of = vec![u32::MAX; n];
    for bb in func.block_ids() {
        if !cfg.is_reachable(bb) {
            continue;
        }
        for &p in cfg.preds(bb) {
            pred_of[p.index()] = bb.0;
        }
        for &i in &func.block(bb).insts {
            if let InstKind::Phi { args } = &func.inst(i).kind {
                for &(p, _) in args {
                    if pred_of.get(p.index()) != Some(&bb.0) {
                        return Err(err(
                            func,
                            format!("phi {i} in {bb} has arg from non-pred {p}"),
                        ));
                    }
                    if arg_of[p.index()] == i.0 {
                        return Err(err(
                            func,
                            format!("phi {i} in {bb} has duplicate arg for {p}"),
                        ));
                    }
                    arg_of[p.index()] = i.0;
                }
                if let Some(p) = cfg.preds(bb).iter().find(|p| arg_of[p.index()] != i.0) {
                    return Err(err(
                        func,
                        format!("phi {i} in {bb} missing arg for pred {p}"),
                    ));
                }
            }
        }
    }

    // SSA dominance: every operand's definition dominates the use (with the
    // usual phi-edge relaxation), and referenced values are placed and
    // value-producing.
    let dom = DomTree::compute(&cfg);
    for bb in func.block_ids() {
        if !cfg.is_reachable(bb) {
            // No dominance to check, but the type checks below look up
            // every operand, reachable or not.
            for &i in &func.block(bb).insts {
                let mut bad = None;
                func.inst(i).kind.for_each_operand(|o| match o {
                    Operand::Inst(d) if d.index() >= func.insts.len() => {
                        bad.get_or_insert(d);
                    }
                    _ => {}
                });
                if let Some(d) = bad {
                    return Err(err(func, format!("{i} uses out-of-range value {d}")));
                }
            }
            continue;
        }
        for &i in &func.block(bb).insts {
            let check = |via_edge: Option<BlockId>, op: Operand| -> Result<(), VerifyError> {
                let Operand::Inst(def) = op else {
                    return Ok(());
                };
                if def.index() >= func.insts.len() {
                    return Err(err(func, format!("{i} uses out-of-range value {def}")));
                }
                if !func.inst(def).produces_value() {
                    return Err(err(func, format!("{i} uses non-value {def}")));
                }
                let (def_bb, def_pos) = placed[def.index()];
                if def_bb == u32::MAX {
                    return Err(err(func, format!("{i} uses unplaced value {def}")));
                }
                let def_bb = BlockId(def_bb);
                match via_edge {
                    // Phi operand must dominate the incoming edge's source.
                    Some(pred) => {
                        if !dom.dominates(def_bb, pred) {
                            return Err(err(
                                func,
                                format!("phi {i}: def {def} in {def_bb} does not dominate edge from {pred}"),
                            ));
                        }
                    }
                    None => {
                        if def_bb == bb {
                            if def_pos >= placed[i.index()].1 {
                                return Err(err(
                                    func,
                                    format!("{i} uses {def} before its definition in {bb}"),
                                ));
                            }
                        } else if !dom.dominates(def_bb, bb) {
                            return Err(err(
                                func,
                                format!("{i}: def {def} in {def_bb} does not dominate use in {bb}"),
                            ));
                        }
                    }
                }
                Ok(())
            };
            let kind = &func.inst(i).kind;
            if let InstKind::Phi { args } = kind {
                for &(p, v) in args {
                    check(Some(p), v)?;
                }
            } else {
                let mut first = Ok(());
                kind.for_each_operand(|o| {
                    if first.is_ok() {
                        first = check(None, o);
                    }
                });
                first?;
            }
        }
    }

    // Type checks.
    for bb in func.block_ids() {
        for &i in &func.block(bb).insts {
            let inst = func.inst(i);
            let op_ty = |o: Operand| -> Option<Ty> {
                match o {
                    Operand::Inst(d) => func.inst(d).ty,
                    Operand::ConstI64(_) => Some(Ty::I64),
                    Operand::ConstF64Bits(_) => Some(Ty::F64),
                }
            };
            match &inst.kind {
                InstKind::Binary { op, lhs, rhs } => {
                    let ty = inst.ty.ok_or_else(|| err(func, format!("{i} untyped")))?;
                    if !op.supports(ty) {
                        return Err(err(func, format!("{i}: {op} unsupported on {ty}")));
                    }
                    for o in [lhs, rhs] {
                        if let Some(t) = op_ty(*o) {
                            if t != ty {
                                return Err(err(
                                    func,
                                    format!("{i}: operand type {t} != result type {ty}"),
                                ));
                            }
                        }
                    }
                }
                InstKind::Unary { op, val } => {
                    let in_ty = op_ty(*val).unwrap_or(Ty::I64);
                    if !op.supports(in_ty) {
                        return Err(err(func, format!("{i}: {op} unsupported on {in_ty}")));
                    }
                    if inst.ty != Some(op.result_ty(in_ty)) {
                        return Err(err(func, format!("{i}: wrong unary result type")));
                    }
                }
                InstKind::Cmp {
                    operand_ty,
                    lhs,
                    rhs,
                    ..
                } => {
                    if inst.ty != Some(Ty::I64) {
                        return Err(err(func, format!("{i}: cmp must produce i64")));
                    }
                    for o in [lhs, rhs] {
                        if let Some(t) = op_ty(*o) {
                            if t != *operand_ty {
                                return Err(err(func, format!("{i}: cmp operand type mismatch")));
                            }
                        }
                    }
                }
                InstKind::Load { addr, .. } => {
                    if op_ty(*addr) != Some(Ty::I64) {
                        return Err(err(func, format!("{i}: load address must be i64")));
                    }
                    if inst.ty.is_none() {
                        return Err(err(func, format!("{i}: load must produce a value")));
                    }
                }
                InstKind::Store { addr, .. } if op_ty(*addr) != Some(Ty::I64) => {
                    return Err(err(func, format!("{i}: store address must be i64")));
                }
                InstKind::Call { callee, args } => {
                    if let Some(m) = module {
                        if callee.index() >= m.funcs.len() {
                            return Err(err(func, format!("{i}: call to unknown {callee}")));
                        }
                        let target = m.func(*callee);
                        if target.params.len() != args.len() {
                            return Err(err(
                                func,
                                format!(
                                    "{i}: call to `{}` with {} args, expected {}",
                                    target.name,
                                    args.len(),
                                    target.params.len()
                                ),
                            ));
                        }
                        if inst.ty != target.ret_ty {
                            return Err(err(func, format!("{i}: call result type mismatch")));
                        }
                    }
                }
                InstKind::Branch { cond, .. } if op_ty(*cond) != Some(Ty::I64) => {
                    return Err(err(func, format!("{i}: branch condition must be i64")));
                }
                InstKind::Ret { val } => match (val, func.ret_ty) {
                    (Some(v), Some(rt)) => {
                        if let Some(t) = op_ty(*v) {
                            if t != rt {
                                return Err(err(func, format!("{i}: return type mismatch")));
                            }
                        }
                    }
                    (None, None) => {}
                    (Some(_), None) => {
                        return Err(err(func, format!("{i}: value returned from void fn")))
                    }
                    (None, Some(_)) => return Err(err(func, format!("{i}: missing return value"))),
                },
                InstKind::RegionBase { region } => {
                    if let Some(m) = module {
                        if !region.is_unknown() && region.index() >= m.globals.len() {
                            return Err(err(func, format!("{i}: unknown region {region}")));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Inst;
    use crate::ops::BinOp;

    #[test]
    fn accepts_valid_function() {
        let mut b = FuncBuilder::new("ok", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = b.param(0);
        let y = b.binary(BinOp::Add, x, Operand::const_i64(1));
        b.ret(Some(y));
        assert!(verify_func(&b.finish()).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut f = Function::new("bad", vec![], None);
        f.append_inst(
            f.entry,
            Inst::new(
                InstKind::Copy {
                    val: Operand::const_i64(0),
                },
                Some(Ty::I64),
            ),
        );
        let e = verify_func(&f).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Function::new("ubd", vec![], Some(Ty::I64));
        // v0 = add v1, 1 ; v1 = copy 0 ; ret v0  -- v0 uses v1 before def
        let v0 = f.add_inst(Inst::new(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: Operand::Inst(InstId::new(1)),
                rhs: Operand::const_i64(1),
            },
            Some(Ty::I64),
        ));
        let v1 = f.add_inst(Inst::new(
            InstKind::Copy {
                val: Operand::const_i64(0),
            },
            Some(Ty::I64),
        ));
        let r = f.add_inst(Inst::new(
            InstKind::Ret {
                val: Some(Operand::Inst(v0)),
            },
            None,
        ));
        let entry = f.entry;
        f.block_mut(entry).insts = vec![v0, v1, r];
        let e = verify_func(&f).unwrap_err();
        assert!(e.message.contains("before its definition"), "{e}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut b = FuncBuilder::new("ty", vec![("x".into(), Ty::F64)], Some(Ty::F64));
        let x = b.param(0);
        // i64-typed add over an f64 operand
        let y = b.binary_ty(BinOp::Add, Ty::I64, x, Operand::const_i64(1));
        let z = b.unary(crate::ops::UnOp::IntToFloat, y);
        b.ret(Some(z));
        let e = verify_func(&b.finish()).unwrap_err();
        assert!(e.message.contains("operand type"), "{e}");
    }

    #[test]
    fn rejects_bad_phi() {
        let mut b = FuncBuilder::new("phi", vec![("c".into(), Ty::I64)], Some(Ty::I64));
        let c = b.param(0);
        let t = b.add_block();
        let j = b.add_block();
        b.branch(c, t, j);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(j);
        // Phi missing the edge from entry.
        let p = b.phi(Ty::I64, vec![(t, Operand::const_i64(1))]);
        b.ret(Some(p));
        let e = verify_func(&b.finish()).unwrap_err();
        assert!(e.message.contains("missing arg"), "{e}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new();
        let mut callee = FuncBuilder::new("callee", vec![("a".into(), Ty::I64)], None);
        callee.ret(None);
        let callee_id = m.add_func(callee.finish());
        let mut caller = FuncBuilder::new("caller", vec![], None);
        caller.call(callee_id, vec![], None);
        caller.ret(None);
        m.add_func(caller.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("args"), "{e}");
    }

    #[test]
    fn rejects_return_mismatch() {
        let mut b = FuncBuilder::new("r", vec![], None);
        b.ret(Some(Operand::const_i64(1)));
        let e = verify_func(&b.finish()).unwrap_err();
        assert!(e.message.contains("void"), "{e}");
    }

    use crate::ids::{FuncId, InstId, RegionId};
    use crate::ops::{CmpOp, UnOp};

    fn inst(kind: InstKind, ty: Option<Ty>) -> Inst {
        Inst::new(kind, ty)
    }

    fn ret(val: Option<Operand>) -> Inst {
        inst(InstKind::Ret { val }, None)
    }

    fn jump(target: usize) -> Inst {
        inst(
            InstKind::Jump {
                target: BlockId::new(target),
            },
            None,
        )
    }

    fn branch(cond: Operand, then_bb: usize, else_bb: usize) -> Inst {
        inst(
            InstKind::Branch {
                cond,
                then_bb: BlockId::new(then_bb),
                else_bb: BlockId::new(else_bb),
            },
            None,
        )
    }

    fn copy(val: Operand) -> Inst {
        inst(InstKind::Copy { val }, Some(Ty::I64))
    }

    fn phi(args: &[(usize, Operand)]) -> Inst {
        let args = args.iter().map(|&(b, v)| (BlockId::new(b), v)).collect();
        inst(InstKind::Phi { args }, Some(Ty::I64))
    }

    fn v(i: usize) -> Operand {
        Operand::Inst(InstId::new(i))
    }

    /// A function `f` with one `i64` parameter `c` (not materialised as a
    /// `Param` instruction) whose blocks hold `blocks`' instructions, with
    /// ids numbered in order.
    fn func(ret_ty: Option<Ty>, blocks: Vec<Vec<Inst>>) -> Function {
        let mut f = Function::new("f", vec![("c".into(), Ty::I64)], ret_ty);
        for (bb, insts) in blocks.into_iter().enumerate() {
            if bb > 0 {
                f.add_block();
            }
            for i in insts {
                f.append_inst(BlockId::new(bb), i);
            }
        }
        f
    }

    /// A module of one function.
    fn module(f: Function) -> Module {
        let mut m = Module::new();
        m.add_func(f);
        m
    }

    /// bb0 branches on 1 to bb1 or bb2, both of which jump to bb3.
    fn diamond(then_insts: Vec<Inst>, join_insts: Vec<Inst>) -> Function {
        let mut then_bb = then_insts;
        then_bb.push(jump(3));
        func(
            Some(Ty::I64),
            vec![
                vec![branch(Operand::const_i64(1), 1, 2)],
                then_bb,
                vec![jump(3)],
                join_insts,
            ],
        )
    }

    /// One hand-broken function per error the verifier can report, each
    /// with its exact message: the verifier's text is part of what a
    /// `CompileError` carries, so it may not drift.
    #[test]
    fn every_error_has_its_exact_message() {
        let c1 = Operand::const_i64(1);
        let f1 = Operand::const_f64(1.0);
        let cases: Vec<(Module, &str)> = vec![
            (
                {
                    let mut f = func(None, vec![vec![ret(None)]]);
                    f.blocks[0].insts.insert(0, InstId::new(5));
                    module(f)
                },
                "v5 out of range in bb0",
            ),
            (
                {
                    let mut f = func(None, vec![vec![ret(None)], vec![]]);
                    f.blocks[1].insts.push(InstId::new(0));
                    module(f)
                },
                "v0 placed in both bb0 and bb1",
            ),
            (
                module(func(None, vec![vec![jump(1)], vec![]])),
                "reachable bb1 is empty",
            ),
            (
                module(func(None, vec![vec![copy(c1)]])),
                "bb0 does not end in a terminator",
            ),
            (
                module(func(None, vec![vec![ret(None), ret(None)]])),
                "terminator v0 not at end of bb0",
            ),
            (
                module(func(None, vec![vec![copy(c1), phi(&[]), ret(None)]])),
                "phi v1 not at start of bb0",
            ),
            (
                module(func(
                    None,
                    vec![
                        vec![jump(1)],
                        vec![inst(InstKind::Param { index: 0 }, Some(Ty::I64)), ret(None)],
                    ],
                )),
                "param v1 outside entry block",
            ),
            (
                module(func(None, vec![vec![jump(7)]])),
                "bb0 targets out-of-range block bb7",
            ),
            (
                module(func(
                    Some(Ty::I64),
                    vec![
                        vec![jump(1)],
                        vec![phi(&[(0, c1), (1, c1)]), ret(Some(v(1)))],
                    ],
                )),
                "phi v1 in bb1 has arg from non-pred bb1",
            ),
            (
                module(func(
                    Some(Ty::I64),
                    vec![
                        vec![jump(1)],
                        vec![phi(&[(0, c1), (0, c1)]), ret(Some(v(1)))],
                    ],
                )),
                "phi v1 in bb1 has duplicate arg for bb0",
            ),
            (
                module(func(
                    Some(Ty::I64),
                    vec![vec![jump(1)], vec![phi(&[]), ret(Some(v(1)))]],
                )),
                "phi v1 in bb1 missing arg for pred bb0",
            ),
            (
                module(func(None, vec![vec![copy(v(9)), ret(None)]])),
                "v0 uses out-of-range value v9",
            ),
            (
                module(func(
                    None,
                    vec![
                        vec![ret(None)],
                        vec![
                            inst(
                                InstKind::Binary {
                                    op: BinOp::Add,
                                    lhs: v(99),
                                    rhs: c1,
                                },
                                Some(Ty::I64),
                            ),
                            ret(None),
                        ],
                    ],
                )),
                "v1 uses out-of-range value v99",
            ),
            (
                module(func(
                    None,
                    vec![vec![ret(None)], vec![copy(v(9)), ret(None)]],
                )),
                "v1 uses out-of-range value v9",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Store {
                                addr: c1,
                                val: c1,
                                region: RegionId::UNKNOWN,
                            },
                            None,
                        ),
                        copy(v(0)),
                        ret(None),
                    ]],
                )),
                "v1 uses non-value v0",
            ),
            (
                {
                    let mut f = func(None, vec![vec![copy(v(2)), ret(None)]]);
                    f.add_inst(copy(c1));
                    module(f)
                },
                "v0 uses unplaced value v2",
            ),
            (
                module(diamond(
                    vec![copy(c1)],
                    vec![phi(&[(1, v(1)), (2, v(1))]), ret(Some(v(4)))],
                )),
                "phi v4: def v1 in bb1 does not dominate edge from bb2",
            ),
            (
                module(func(
                    Some(Ty::I64),
                    vec![vec![copy(v(1)), copy(c1), ret(Some(v(0)))]],
                )),
                "v0 uses v1 before its definition in bb0",
            ),
            (
                module(diamond(vec![copy(c1)], vec![copy(v(1)), ret(Some(v(4)))])),
                "v4: def v1 in bb1 does not dominate use in bb3",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Binary {
                                op: BinOp::Add,
                                lhs: c1,
                                rhs: c1,
                            },
                            None,
                        ),
                        ret(None),
                    ]],
                )),
                "v0 untyped",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Binary {
                                op: BinOp::And,
                                lhs: f1,
                                rhs: f1,
                            },
                            Some(Ty::F64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: and unsupported on f64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Binary {
                                op: BinOp::Add,
                                lhs: c1,
                                rhs: f1,
                            },
                            Some(Ty::I64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: operand type f64 != result type i64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Unary {
                                op: UnOp::Not,
                                val: f1,
                            },
                            Some(Ty::F64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: not unsupported on f64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Unary {
                                op: UnOp::Neg,
                                val: c1,
                            },
                            Some(Ty::F64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: wrong unary result type",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Cmp {
                                op: CmpOp::Lt,
                                operand_ty: Ty::I64,
                                lhs: c1,
                                rhs: c1,
                            },
                            Some(Ty::F64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: cmp must produce i64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Cmp {
                                op: CmpOp::Lt,
                                operand_ty: Ty::I64,
                                lhs: c1,
                                rhs: f1,
                            },
                            Some(Ty::I64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: cmp operand type mismatch",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Load {
                                addr: f1,
                                region: RegionId::UNKNOWN,
                            },
                            Some(Ty::I64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: load address must be i64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Load {
                                addr: c1,
                                region: RegionId::UNKNOWN,
                            },
                            None,
                        ),
                        ret(None),
                    ]],
                )),
                "v0: load must produce a value",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Store {
                                addr: f1,
                                val: c1,
                                region: RegionId::UNKNOWN,
                            },
                            None,
                        ),
                        ret(None),
                    ]],
                )),
                "v0: store address must be i64",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Call {
                                callee: FuncId::new(3),
                                args: vec![],
                            },
                            None,
                        ),
                        ret(None),
                    ]],
                )),
                "v0: call to unknown fn3",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Call {
                                callee: FuncId::new(0),
                                args: vec![],
                            },
                            None,
                        ),
                        ret(None),
                    ]],
                )),
                "v0: call to `f` with 0 args, expected 1",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::Call {
                                callee: FuncId::new(0),
                                args: vec![c1],
                            },
                            Some(Ty::I64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: call result type mismatch",
            ),
            (
                module(func(None, vec![vec![branch(f1, 1, 1)], vec![ret(None)]])),
                "v0: branch condition must be i64",
            ),
            (
                module(func(Some(Ty::I64), vec![vec![ret(Some(f1))]])),
                "v0: return type mismatch",
            ),
            (
                module(func(None, vec![vec![ret(Some(c1))]])),
                "v0: value returned from void fn",
            ),
            (
                module(func(Some(Ty::I64), vec![vec![ret(None)]])),
                "v0: missing return value",
            ),
            (
                module(func(
                    None,
                    vec![vec![
                        inst(
                            InstKind::RegionBase {
                                region: RegionId::new(3),
                            },
                            Some(Ty::I64),
                        ),
                        ret(None),
                    ]],
                )),
                "v0: unknown region region3",
            ),
        ];
        assert_eq!(cases.len(), 37);
        for (m, want) in &cases {
            let e = verify_module(m).expect_err(want);
            assert_eq!(e.func, "f");
            assert_eq!(e.message, *want);
            assert_eq!(e.to_string(), format!("verify error in `f`: {want}"));
        }
    }
}
