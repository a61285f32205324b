//! Scalar and CFG cleanup passes.
//!
//! These are the passes the paper relies on around the SPT transformation:
//! after code motion "the code is immediately cleaned and optimized by
//! applying SSA renaming, copy propagation and dead code elimination in ORC"
//! (§6.2). [`loop_simplify`] canonicalizes loops (dedicated preheader and a
//! single latch) before partitioning, which the SPT transformation assumes.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::{BlockId, InstId};
use crate::inst::{Inst, InstKind, Operand};
use crate::loops::LoopForest;
use crate::module::Function;

/// Replaces every use of a `Copy` instruction with the copied operand,
/// chasing copy chains. The copies themselves become dead and are removed by
/// [`dce`]. Returns the number of rewritten operands.
pub fn copy_prop(func: &mut Function) -> usize {
    let copies = func
        .insts
        .iter()
        .filter(|inst| matches!(inst.kind, InstKind::Copy { .. }))
        .count();
    if copies == 0 {
        return 0;
    }
    // The final source of an operand (chains are finite in SSA). Copies
    // themselves are never rewritten below, so every chain reads the same
    // throughout the pass.
    let resolve = |insts: &[Inst], mut op: Operand| -> Operand {
        let mut fuel = copies + 1;
        while let Operand::Inst(id) = op {
            match insts.get(id.index()).map(|inst| &inst.kind) {
                Some(&InstKind::Copy { val }) if fuel > 0 => {
                    op = val;
                    fuel -= 1;
                }
                _ => break,
            }
        }
        op
    };
    let is_copy = |insts: &[Inst], op: Operand| {
        op.as_inst().is_some_and(|id| {
            matches!(
                insts.get(id.index()).map(|inst| &inst.kind),
                Some(InstKind::Copy { .. })
            )
        })
    };

    let mut rewritten = 0;
    for k in 0..func.insts.len() {
        let kind = &func.insts[k].kind;
        if matches!(kind, InstKind::Copy { .. }) {
            continue;
        }
        let mut uses_copy = false;
        kind.for_each_operand(|op| uses_copy |= is_copy(&func.insts, op));
        if !uses_copy {
            continue;
        }
        // Take the instruction out while its operands resolve through the
        // arena; a non-copy stands in, as the instruction itself is one.
        let mut kind = std::mem::replace(&mut func.insts[k].kind, InstKind::Ret { val: None });
        kind.map_operands(|op| {
            let new = resolve(&func.insts, op);
            if new != op {
                rewritten += 1;
            }
            new
        });
        func.insts[k].kind = kind;
    }
    rewritten
}

/// Dead-code elimination: removes value-producing instructions whose values
/// are never used, transitively. Side-effecting instructions (stores, calls,
/// terminators, SPT markers) are always live roots. Returns the number of
/// removed instructions.
pub fn dce(func: &mut Function) -> usize {
    let mut live = vec![false; func.insts.len()];
    let mut work: Vec<InstId> = Vec::with_capacity(func.insts.len());

    for block in &func.blocks {
        for &i in &block.insts {
            if func.inst(i).kind.has_side_effect() && !live[i.index()] {
                live[i.index()] = true;
                work.push(i);
            }
        }
    }
    while let Some(i) = work.pop() {
        func.inst(i).kind.for_each_operand(|op| {
            if let Operand::Inst(def) = op {
                if !live[def.index()] {
                    live[def.index()] = true;
                    work.push(def);
                }
            }
        });
    }

    let mut removed = 0;
    for block in &mut func.blocks {
        let before = block.insts.len();
        block.insts.retain(|i| live[i.index()]);
        removed += before - block.insts.len();
    }
    removed
}

/// Folds constant expressions: binary/unary/cmp instructions whose operands
/// are all immediates become `Copy`s of the folded constant; single-operand
/// phis become copies. Returns the number of folded instructions. Run
/// [`copy_prop`] + [`dce`] afterwards.
pub fn const_fold(func: &mut Function) -> usize {
    use crate::types::Ty;
    let mut folded = 0;
    for idx in 0..func.insts.len() {
        let inst = &func.insts[idx];
        let new_kind = match &inst.kind {
            InstKind::Binary { op, lhs, rhs } => match (inst.ty, lhs, rhs) {
                (Some(Ty::I64), Operand::ConstI64(a), Operand::ConstI64(b)) => {
                    Some(InstKind::Copy {
                        val: Operand::ConstI64(op.eval_i64(*a, *b)),
                    })
                }
                (Some(Ty::F64), Operand::ConstF64Bits(a), Operand::ConstF64Bits(b)) => {
                    Some(InstKind::Copy {
                        val: Operand::const_f64(
                            op.eval_f64(f64::from_bits(*a), f64::from_bits(*b)),
                        ),
                    })
                }
                _ => None,
            },
            InstKind::Unary { op, val } => match (inst.ty, val) {
                (Some(Ty::I64), Operand::ConstI64(a)) => Some(InstKind::Copy {
                    val: Operand::ConstI64(op.eval_i64(*a)),
                }),
                (Some(Ty::F64), Operand::ConstF64Bits(a)) => Some(InstKind::Copy {
                    val: Operand::const_f64(op.eval_f64(f64::from_bits(*a))),
                }),
                (Some(Ty::F64), Operand::ConstI64(a)) => Some(InstKind::Copy {
                    val: Operand::const_f64(*a as f64),
                }),
                (Some(Ty::I64), Operand::ConstF64Bits(a)) => Some(InstKind::Copy {
                    val: Operand::ConstI64(f64::from_bits(*a) as i64),
                }),
                _ => None,
            },
            InstKind::Cmp {
                op,
                operand_ty,
                lhs,
                rhs,
            } => match (operand_ty, lhs, rhs) {
                (Ty::I64, Operand::ConstI64(a), Operand::ConstI64(b)) => Some(InstKind::Copy {
                    val: Operand::ConstI64(op.eval_i64(*a, *b) as i64),
                }),
                (Ty::F64, Operand::ConstF64Bits(a), Operand::ConstF64Bits(b)) => {
                    Some(InstKind::Copy {
                        val: Operand::ConstI64(
                            op.eval_f64(f64::from_bits(*a), f64::from_bits(*b)) as i64
                        ),
                    })
                }
                _ => None,
            },
            InstKind::Phi { args } if args.len() == 1 => Some(InstKind::Copy { val: args[0].1 }),
            _ => None,
        };
        if let Some(kind) = new_kind {
            func.insts[idx].kind = kind;
            folded += 1;
        }
    }
    folded
}

/// CFG simplification:
/// 1. folds conditional branches with constant conditions or identical
///    targets into jumps,
/// 2. removes unreachable blocks (emptied, so ids stay stable),
/// 3. merges a block into its unique predecessor when that predecessor has a
///    single successor (keeping loop headers intact is the caller's concern;
///    this pass never merges a block that has a phi).
///
/// After each merge the pass starts over from step 1. Returns `true` if
/// anything changed.
pub fn simplify_cfg(func: &mut Function) -> bool {
    let mut changed_any = false;
    // Kept current: recomputed, in place, after every edit to the CFG.
    let mut cfg = Cfg::compute(func);
    loop {
        let mut changed = false;

        // 1. Fold trivial branches.
        for bb in (0..func.blocks.len()).map(BlockId::new) {
            let Some(term) = func.terminator(bb) else {
                continue;
            };
            let new_kind = match func.inst(term).kind {
                InstKind::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    if then_bb == else_bb {
                        Some(InstKind::Jump { target: then_bb })
                    } else if let Operand::ConstI64(c) = cond {
                        let target = if c != 0 { then_bb } else { else_bb };
                        let dead = if c != 0 { else_bb } else { then_bb };
                        remove_phi_edges(func, dead, bb);
                        Some(InstKind::Jump { target })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(kind) = new_kind {
                func.inst_mut(term).kind = kind;
                changed = true;
            }
        }

        if changed {
            cfg.recompute(func);
        }

        // 2. Drop unreachable blocks (empty them; remove phi edges from them).
        let mut dropped = false;
        for bb in (0..func.blocks.len()).map(BlockId::new) {
            if !cfg.is_reachable(bb) && !func.block(bb).insts.is_empty() {
                for &succ in cfg.succs(bb) {
                    remove_phi_edges(func, succ, bb);
                }
                func.block_mut(bb).insts.clear();
                dropped = true;
            }
        }
        if dropped {
            cfg.recompute(func);
            changed = true;
        }

        // 3. Merge straight-line chains: pred --jump--> bb, bb's only pred.
        for bb in (0..func.blocks.len()).map(BlockId::new) {
            if bb == func.entry || !cfg.is_reachable(bb) {
                continue;
            }
            let &[pred] = cfg.preds(bb) else {
                continue;
            };
            if cfg.succs(pred).len() != 1 || pred == bb {
                continue;
            }
            // Don't merge blocks containing phis (they'd need rewriting; after
            // a merge the single-pred phi is degenerate anyway and const_fold
            // turns it into a copy first).
            let has_phi = func
                .block(bb)
                .insts
                .iter()
                .any(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }));
            if has_phi {
                continue;
            }
            // Splice bb's instructions into pred, replacing pred's jump.
            let Some(term) = func.terminator(pred) else {
                continue;
            };
            if !matches!(func.inst(term).kind, InstKind::Jump { .. }) {
                continue;
            }
            let mut moved = std::mem::take(&mut func.block_mut(bb).insts);
            let pred_block = func.block_mut(pred);
            pred_block.insts.pop(); // remove jump
            pred_block.insts.append(&mut moved);
            // Successor phis referring to bb must now refer to pred.
            for s in func.successors(pred) {
                rename_phi_edges(func, s, bb, pred);
            }
            cfg.recompute(func);
            changed = true;
            break; // CFG changed; start over
        }

        if changed {
            changed_any = true;
        } else {
            break;
        }
    }
    changed_any
}

/// Removes phi incoming edges in `block` that come from `from_pred`.
fn remove_phi_edges(func: &mut Function, block: BlockId, from_pred: BlockId) {
    let Function { blocks, insts, .. } = func;
    for &i in &blocks[block.index()].insts {
        if let InstKind::Phi { args } = &mut insts[i.index()].kind {
            args.retain(|(bb, _)| *bb != from_pred);
        }
    }
}

/// Renames phi incoming edges in `block` from `old_pred` to `new_pred`.
pub fn rename_phi_edges(func: &mut Function, block: BlockId, old_pred: BlockId, new_pred: BlockId) {
    let Function { blocks, insts, .. } = func;
    for &i in &blocks[block.index()].insts {
        if let InstKind::Phi { args } = &mut insts[i.index()].kind {
            for (bb, _) in args.iter_mut() {
                if *bb == old_pred {
                    *bb = new_pred;
                }
            }
        }
    }
}

/// Canonicalizes every natural loop of the function:
///
/// * inserts a **dedicated preheader** if the header has multiple outside
///   predecessors or its outside predecessor has other successors;
/// * merges multiple **latches** into a single latch block.
///
/// The SPT transformation requires both. After each edit the pass starts
/// over on the new CFG. Returns `true` if the CFG changed.
pub fn loop_simplify(func: &mut Function) -> bool {
    let mut changed_any = false;
    let mut cfg = Cfg::compute(func);
    loop {
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let mut changed = false;

        for l in &forest.loops {
            // Preheader.
            if l.preheader(&cfg).is_none() {
                let outside_preds: Vec<BlockId> = cfg
                    .preds(l.header)
                    .iter()
                    .copied()
                    .filter(|&p| !l.contains(p))
                    .collect();
                if !outside_preds.is_empty() {
                    let pre = func.add_block();
                    func.append_inst(pre, Inst::new(InstKind::Jump { target: l.header }, None));
                    for p in &outside_preds {
                        retarget(func, *p, l.header, pre);
                    }
                    // Split header phis: incoming from outside preds now merge
                    // in the preheader.
                    split_phis(func, l.header, &outside_preds, pre);
                    changed = true;
                    break;
                }
            }

            // Single latch.
            if l.latches.len() > 1 {
                let latch = func.add_block();
                func.append_inst(latch, Inst::new(InstKind::Jump { target: l.header }, None));
                for p in &l.latches {
                    retarget(func, *p, l.header, latch);
                }
                split_phis(func, l.header, &l.latches, latch);
                changed = true;
                break;
            }
        }

        if changed {
            cfg.recompute(func);
            changed_any = true;
        } else {
            break;
        }
    }
    changed_any
}

/// Redirects `pred`'s terminator edges pointing at `old` to `new`.
fn retarget(func: &mut Function, pred: BlockId, old: BlockId, new: BlockId) {
    if let Some(term) = func.terminator(pred) {
        func.inst_mut(term)
            .kind
            .map_blocks(|b| if b == old { new } else { b });
    }
}

/// For each phi in `block`, moves the incoming entries from `from_preds` into
/// a new phi placed in `via` (the new intermediate block), and replaces them
/// with a single incoming entry `(via, new_phi)`.
fn split_phis(func: &mut Function, block: BlockId, from_preds: &[BlockId], via: BlockId) {
    let phi_ids: Vec<InstId> = func
        .block(block)
        .insts
        .iter()
        .copied()
        .filter(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
        .collect();
    for phi in phi_ids {
        let ty = func.inst(phi).ty;
        type PhiArgs = Vec<(BlockId, Operand)>;
        let (moved, kept): (PhiArgs, PhiArgs) = match &func.inst(phi).kind {
            InstKind::Phi { args } => args
                .iter()
                .copied()
                .partition(|(bb, _)| from_preds.contains(bb)),
            _ => unreachable!(),
        };
        if moved.is_empty() {
            continue;
        }
        let incoming = if moved.len() == 1 {
            moved[0].1
        } else {
            let new_phi = func.add_inst(Inst::new(InstKind::Phi { args: moved }, ty));
            // Phis go at the top of `via`.
            let via_block = func.block_mut(via);
            via_block.insts.insert(0, new_phi);
            Operand::Inst(new_phi)
        };
        if let InstKind::Phi { args } = &mut func.inst_mut(phi).kind {
            *args = kept;
            args.push((via, incoming));
        }
    }
}

/// Runs the standard cleanup pipeline: constant folding, copy propagation,
/// DCE and CFG simplification, to fixpoint (bounded). Returns the number of
/// iterations performed.
pub fn cleanup(func: &mut Function) -> usize {
    let mut iters = 0;
    loop {
        iters += 1;
        let f1 = const_fold(func);
        let c = copy_prop(func);
        let d = dce(func);
        let s = simplify_cfg(func);
        if (f1 == 0 && c == 0 && d == 0 && !s) || iters >= 10 {
            return iters;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ops::{BinOp, CmpOp};
    use crate::types::Ty;

    #[test]
    fn copy_chains_resolve() {
        let mut b = FuncBuilder::new("c", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = b.param(0);
        let c1 = b.copy(x, Ty::I64);
        let c2 = b.copy(c1, Ty::I64);
        let y = b.binary(BinOp::Add, c2, Operand::const_i64(1));
        b.ret(Some(y));
        let mut f = b.finish();
        let n = copy_prop(&mut f);
        assert!(n >= 1);
        let removed = dce(&mut f);
        assert_eq!(removed, 2, "both copies die");
        crate::verify::verify_func(&f).unwrap();
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut b = FuncBuilder::new("s", vec![], None);
        let r = crate::ids::RegionId::new(0);
        let base = b.region_base(r);
        b.store(base, Operand::const_i64(1), r);
        let dead = b.binary(BinOp::Add, Operand::const_i64(1), Operand::const_i64(2));
        let _ = dead;
        b.ret(None);
        let mut f = b.finish();
        let removed = dce(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(f.placed_inst_count(), 3);
    }

    #[test]
    fn const_fold_arithmetic() {
        let mut b = FuncBuilder::new("k", vec![], Some(Ty::I64));
        let v = b.binary(BinOp::Mul, Operand::const_i64(6), Operand::const_i64(7));
        let c = b.cmp(CmpOp::Eq, Ty::I64, v, Operand::const_i64(42));
        b.ret(Some(c));
        let mut f = b.finish();
        let folded = const_fold(&mut f);
        assert_eq!(folded, 1);
        copy_prop(&mut f);
        let folded2 = const_fold(&mut f);
        assert_eq!(folded2, 1, "cmp folds after mul's copy propagates");
        copy_prop(&mut f);
        // Now the ret returns constant 1.
        let term = f.terminator(f.entry).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { val } => assert_eq!(*val, Some(Operand::ConstI64(1))),
            _ => panic!("expected ret"),
        }
    }

    #[test]
    fn simplify_folds_constant_branch() {
        let mut b = FuncBuilder::new("b", vec![], Some(Ty::I64));
        let t = b.add_block();
        let e = b.add_block();
        b.branch(Operand::const_i64(1), t, e);
        b.switch_to(t);
        b.ret(Some(Operand::const_i64(10)));
        b.switch_to(e);
        b.ret(Some(Operand::const_i64(20)));
        let mut f = b.finish();
        assert!(simplify_cfg(&mut f));
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(e));
        // Entry merged with t: entry now returns directly.
        let term = f.terminator(f.entry).unwrap();
        assert!(matches!(f.inst(term).kind, InstKind::Ret { .. }));
    }

    #[test]
    fn loop_simplify_inserts_preheader() {
        // Header with two outside predecessors.
        let mut b = FuncBuilder::new("p", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let a1 = b.add_block();
        let a2 = b.add_block();
        let header = b.add_block();
        let exit = b.add_block();
        b.branch(c, a1, a2);
        b.switch_to(a1);
        b.jump(header);
        b.switch_to(a2);
        b.jump(header);
        b.switch_to(header);
        b.branch(c, header, exit); // self-loop
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        assert!(loop_simplify(&mut f));
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        assert_eq!(forest.len(), 1);
        let l = forest.get(crate::loops::LoopId::new(0));
        assert!(l.preheader(&cfg).is_some(), "preheader inserted");
        crate::verify::verify_func(&f).unwrap();
    }

    #[test]
    fn loop_simplify_merges_latches() {
        // Loop with two back edges.
        let mut b = FuncBuilder::new("m", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let header = b.add_block();
        let l1 = b.add_block();
        let l2 = b.add_block();
        let exit = b.add_block();
        b.jump(header);
        b.switch_to(header);
        b.branch(c, l1, exit);
        b.switch_to(l1);
        b.branch(c, header, l2); // back edge 1
        b.switch_to(l2);
        b.jump(header); // back edge 2
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        assert!(loop_simplify(&mut f));
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        let l = forest
            .ids()
            .map(|i| forest.get(i))
            .find(|l| l.header == header)
            .unwrap();
        assert_eq!(l.latches.len(), 1, "latches merged");
        crate::verify::verify_func(&f).unwrap();
    }

    #[test]
    fn cleanup_reaches_fixpoint() {
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let v = b.binary(BinOp::Add, Operand::const_i64(1), Operand::const_i64(2));
        let w = b.binary(BinOp::Mul, v, Operand::const_i64(0));
        let t = b.add_block();
        let e = b.add_block();
        b.branch(w, t, e);
        b.switch_to(t);
        b.ret(Some(Operand::const_i64(1)));
        b.switch_to(e);
        b.ret(Some(Operand::const_i64(2)));
        let mut f = b.finish();
        let iters = cleanup(&mut f);
        assert!(iters < 10);
        let term = f.terminator(f.entry).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { val } => assert_eq!(*val, Some(Operand::ConstI64(2))),
            k => panic!("expected folded ret, got {k:?}"),
        }
    }
}
