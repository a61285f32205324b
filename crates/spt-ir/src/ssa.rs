//! SSA construction (`mem2reg`): promotes frontend variable slots
//! (`VarLoad`/`VarStore`) to SSA values with phi nodes.
//!
//! Classic algorithm: phi insertion at iterated dominance frontiers of the
//! definition blocks, then renaming along a dominator-tree walk. `VarLoad`s
//! are rewritten into `Copy`s of the reaching definition so existing operand
//! references stay valid; `VarStore`s are deleted. Run
//! [`crate::passes::copy_prop`] and [`crate::passes::dce`] afterwards to
//! clean up, as the paper does after its own transformations ("the code is
//! immediately cleaned and optimized by applying SSA renaming, copy
//! propagation and dead code elimination", §6.2).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::groups::Groups;
use crate::ids::{BlockId, InstId, VarId};
use crate::inst::{Inst, InstKind, Operand};
use crate::module::Function;
use crate::types::Ty;

/// Converts all variable slots of `func` into SSA form.
///
/// Returns the number of phi nodes inserted.
pub fn mem2reg(func: &mut Function) -> usize {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let frontiers = dom.frontiers(&cfg);
    let n = func.blocks.len();

    // Each variable's type, from its first access in block order.
    let mut var_ty: Vec<Option<Ty>> = vec![None; func.num_vars];
    for bb in func.block_ids() {
        for &i in &func.block(bb).insts {
            let inst = func.inst(i);
            let (var, ty) = match inst.kind {
                InstKind::VarLoad { var } => (var, inst.ty.unwrap_or(Ty::I64)),
                InstKind::VarStore { var, val } => (var, operand_ty(func, val).unwrap_or(Ty::I64)),
                _ => continue,
            };
            if var.index() >= var_ty.len() {
                var_ty.resize(var.index() + 1, None);
            }
            var_ty[var.index()].get_or_insert(ty);
        }
    }
    // The blocks that store each variable, in block order, one per store.
    let f: &Function = func;
    let stores = (0..n).map(BlockId::new).flat_map(|bb| {
        f.block(bb)
            .insts
            .iter()
            .filter_map(move |&i| match f.inst(i).kind {
                InstKind::VarStore { var, .. } => Some((var, bb)),
                _ => None,
            })
    });
    let defs = Groups::new(var_ty.len(), stores);

    // Phi insertion at iterated dominance frontiers, variable by variable.
    // The phis are new arena entries from `first_phi` on; `phi_var` and
    // `phi_block` say whose and where each is.
    let first_phi = func.insts.len();
    let mut phi_var: Vec<VarId> = Vec::new();
    let mut phi_block: Vec<BlockId> = Vec::new();
    // Per block, the last variable that placed a phi there or put the
    // block on the worklist.
    let mut placed = vec![u32::MAX; n];
    let mut ever_on_work = vec![u32::MAX; n];
    let mut work: Vec<BlockId> = Vec::new();
    for (v, ty) in var_ty.iter().enumerate() {
        let defs = defs.of(VarId::new(v));
        let (Some(ty), false) = (*ty, defs.is_empty()) else {
            continue;
        };
        let stamp = v as u32;
        work.clear();
        work.extend_from_slice(defs);
        for &bb in defs {
            ever_on_work[bb.index()] = stamp;
        }
        while let Some(bb) = work.pop() {
            if !cfg.is_reachable(bb) {
                continue;
            }
            for &df in frontiers.of(bb) {
                if placed[df.index()] != stamp {
                    placed[df.index()] = stamp;
                    let args = Vec::with_capacity(cfg.preds(df).len());
                    func.add_inst(Inst::new(InstKind::Phi { args }, Some(ty)));
                    phi_var.push(VarId::new(v));
                    phi_block.push(df);
                    if ever_on_work[df.index()] != stamp {
                        ever_on_work[df.index()] = stamp;
                        work.push(df);
                    }
                }
            }
        }
    }
    let num_phis = phi_var.len();

    // Each block's phis, in creation order, which is variable order;
    // prepend them to the block.
    let new_phis = phi_block
        .iter()
        .enumerate()
        .map(|(k, &bb)| (bb, InstId::new(first_phi + k)));
    let phis = Groups::new(n, new_phis);
    for (b, block) in func.blocks.iter_mut().enumerate() {
        let new = phis.of(BlockId::new(b));
        if !new.is_empty() {
            block.insts.splice(0..0, new.iter().copied());
        }
    }

    // Renaming along the dominator tree. `current[v]` is the top of
    // variable `v`'s definition stack; `undo` logs what each push hid, so
    // leaving a block pops its definitions by restoring them.
    let mut current: Vec<Option<Operand>> = vec![None; var_ty.len()];
    let mut undo: Vec<(VarId, Option<Operand>)> = Vec::new();
    let reaching = |current: &[Option<Operand>], var: VarId| -> Operand {
        current[var.index()].unwrap_or(match var_ty[var.index()] {
            Some(Ty::F64) => Operand::const_f64(0.0),
            _ => Operand::const_i64(0),
        })
    };

    enum Action {
        Enter(BlockId),
        /// Leave a block: undo the log back to this length.
        Exit(usize),
    }
    let children = dom.children();
    let mut stack = vec![Action::Enter(dom.entry())];
    while let Some(action) = stack.pop() {
        match action {
            Action::Exit(mark) => {
                while undo.len() > mark {
                    if let Some((var, hidden)) = undo.pop() {
                        current[var.index()] = hidden;
                    }
                }
            }
            Action::Enter(bb) => {
                let mark = undo.len();
                let mut stores = false;
                let Function { blocks, insts, .. } = &mut *func;
                for &i in &blocks[bb.index()].insts {
                    let def = match insts[i.index()].kind {
                        // Only the phis placed above belong to a variable.
                        InstKind::Phi { .. } if i.index() >= first_phi => {
                            Some((phi_var[i.index() - first_phi], Operand::Inst(i)))
                        }
                        InstKind::VarLoad { var } => {
                            let val = reaching(&current, var);
                            insts[i.index()].kind = InstKind::Copy { val };
                            None
                        }
                        InstKind::VarStore { var, val } => {
                            stores = true;
                            Some((var, val))
                        }
                        _ => None,
                    };
                    if let Some((var, val)) = def {
                        undo.push((var, current[var.index()].replace(val)));
                    }
                }
                if stores {
                    blocks[bb.index()]
                        .insts
                        .retain(|i| !matches!(insts[i.index()].kind, InstKind::VarStore { .. }));
                }

                // Fill phi operands of successors.
                for &succ in cfg.succs(bb) {
                    for &phi in phis.of(succ) {
                        let cur = reaching(&current, phi_var[phi.index() - first_phi]);
                        if let InstKind::Phi { args } = &mut insts[phi.index()].kind {
                            args.push((bb, cur));
                        }
                    }
                }

                stack.push(Action::Exit(mark));
                for &child in children.of(bb).iter().rev() {
                    stack.push(Action::Enter(child));
                }
            }
        }
    }

    num_phis
}

/// Returns `true` if the function contains no `VarLoad`/`VarStore`
/// instructions (i.e. is in SSA form with respect to variable slots).
pub fn is_ssa(func: &Function) -> bool {
    for bb in func.block_ids() {
        for &i in &func.block(bb).insts {
            if matches!(
                func.inst(i).kind,
                InstKind::VarLoad { .. } | InstKind::VarStore { .. }
            ) {
                return false;
            }
        }
    }
    true
}

fn operand_ty(func: &Function, op: Operand) -> Option<Ty> {
    match op {
        Operand::Inst(id) => func.inst(id).ty,
        Operand::ConstI64(_) => Some(Ty::I64),
        Operand::ConstF64Bits(_) => Some(Ty::F64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ops::{BinOp, CmpOp};
    use crate::passes;

    /// sum(n): s=0; i=0; while(i<n){s+=i; i+=1}; return s
    fn sum_func() -> Function {
        let mut b = FuncBuilder::new("sum", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let s = b.declare_var(Ty::I64);
        let i = b.declare_var(Ty::I64);
        b.var_store(s, Operand::const_i64(0));
        b.var_store(i, Operand::const_i64(0));
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.jump(header);
        b.switch_to(header);
        let iv = b.var_load(i, Ty::I64);
        let c = b.cmp(CmpOp::Lt, Ty::I64, iv, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let sv = b.var_load(s, Ty::I64);
        let iv2 = b.var_load(i, Ty::I64);
        let s2 = b.binary(BinOp::Add, sv, iv2);
        b.var_store(s, s2);
        let i2 = b.binary(BinOp::Add, iv2, Operand::const_i64(1));
        b.var_store(i, i2);
        b.jump(header);
        b.switch_to(exit);
        let out = b.var_load(s, Ty::I64);
        b.ret(Some(out));
        b.finish()
    }

    #[test]
    fn promotes_loop_variables() {
        let mut f = sum_func();
        assert!(!is_ssa(&f));
        let phis = mem2reg(&mut f);
        assert!(is_ssa(&f));
        // Two loop-carried variables => two phis at the header.
        assert_eq!(phis, 2);
        crate::verify::verify_func(&f).expect("ssa output verifies");
    }

    #[test]
    fn phi_args_cover_all_preds() {
        let mut f = sum_func();
        mem2reg(&mut f);
        let cfg = Cfg::compute(&f);
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                if let InstKind::Phi { args } = &f.inst(i).kind {
                    assert_eq!(
                        args.len(),
                        cfg.preds(bb).len(),
                        "phi {i} in {bb} must have one arg per pred"
                    );
                }
            }
        }
    }

    #[test]
    fn cleanup_after_mem2reg_leaves_lean_ir() {
        let mut f = sum_func();
        mem2reg(&mut f);
        passes::copy_prop(&mut f);
        let removed = passes::dce(&mut f);
        assert!(removed > 0, "copies should be cleaned up");
        // No Copy instructions should survive in blocks.
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                assert!(
                    !matches!(f.inst(i).kind, InstKind::Copy { .. }),
                    "copy survived cleanup"
                );
            }
        }
        crate::verify::verify_func(&f).expect("clean ir verifies");
    }

    #[test]
    fn uninitialized_var_reads_default() {
        let mut b = FuncBuilder::new("u", vec![], Some(Ty::I64));
        let x = b.declare_var(Ty::I64);
        let v = b.var_load(x, Ty::I64);
        b.ret(Some(v));
        let mut f = b.finish();
        mem2reg(&mut f);
        assert!(is_ssa(&f));
        // The load became a copy of the default constant 0.
        let has_zero_copy = f.insts.iter().any(|inst| {
            matches!(
                inst.kind,
                InstKind::Copy {
                    val: Operand::ConstI64(0)
                }
            )
        });
        assert!(has_zero_copy);
    }

    #[test]
    fn diamond_merge_gets_phi() {
        let mut b = FuncBuilder::new("d", vec![("c".into(), Ty::I64)], Some(Ty::I64));
        let c = b.param(0);
        let x = b.declare_var(Ty::I64);
        let t = b.add_block();
        let e = b.add_block();
        let j = b.add_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.var_store(x, Operand::const_i64(1));
        b.jump(j);
        b.switch_to(e);
        b.var_store(x, Operand::const_i64(2));
        b.jump(j);
        b.switch_to(j);
        let v = b.var_load(x, Ty::I64);
        b.ret(Some(v));
        let mut f = b.finish();
        let phis = mem2reg(&mut f);
        assert_eq!(phis, 1);
        crate::verify::verify_func(&f).expect("verifies");
    }
}
