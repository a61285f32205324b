//! Software value prediction (§7.2, Fig. 13).
//!
//! For a loop-carried scalar whose value sequence is predictable (constant,
//! stride, or last-value — found by value profiling), the carried value is
//! rerouted through a dedicated *predictor cell*:
//!
//! * at the top of the body, the current value is **loaded** from the cell
//!   and the *next* iteration's prediction is **stored** into it — both
//!   movable into the pre-fork region, so the speculative thread picks up
//!   the prediction at fork time;
//! * the original (expensive/pinned) definition still executes in the
//!   post-fork region, followed by **check-and-recovery** code: if the
//!   actual value differs from the prediction, the cell is corrected — a
//!   rarely-executed store, so the remaining cross-iteration dependence
//!   fires only at the misprediction rate (exactly Fig. 13's
//!   `if (x != pred_x) pred_x = x;`).
//!
//! The misprediction rate is supplied to the cost model as an execution
//! probability override on the recovery store.

use crate::TransformError;
use spt_ir::loops::LoopId;
use spt_ir::{
    BlockId, Cfg, CmpOp, DomTree, FuncId, Inst, InstId, InstKind, LoopForest, Module, Operand,
    RegionId, Ty,
};
use spt_profile::ValuePattern;

/// Description of a performed SVP rewrite, consumed by the cost model.
#[derive(Clone, Debug)]
pub struct SvpRewrite {
    /// The predictor cell's region.
    pub region: RegionId,
    /// The load of the current value at the body top (movable).
    pub carrier_load: InstId,
    /// The store of the next-iteration prediction (movable).
    pub predict_store: InstId,
    /// The rare recovery store in the misprediction arm.
    pub recovery_store: InstId,
    /// Misprediction rate: execution probability of the recovery store.
    pub miss_rate: f64,
}

/// Applies SVP to the loop-carried value of header phi `phi` in `loop_id` of
/// `func`, predicting with `pattern` (measured to mispredict at
/// `miss_rate`).
///
/// # Errors
///
/// * [`TransformError::NoSuchLoop`] — stale ids;
/// * [`TransformError::NotCanonical`] — no preheader / multiple latches;
/// * [`TransformError::Precondition`] — `phi` is not an integer-typed header
///   phi of the loop with an in-loop latch definition, that definition is
///   itself a header phi (a swap recurrence), or the pattern is
///   [`ValuePattern::Unpredictable`].
///
/// Every error leaves `module` unchanged.
pub fn apply_svp(
    module: &mut Module,
    func_id: FuncId,
    loop_id: LoopId,
    phi: InstId,
    pattern: ValuePattern,
    miss_rate: f64,
) -> Result<SvpRewrite, TransformError> {
    if matches!(pattern, ValuePattern::Unpredictable) {
        return Err(TransformError::Precondition(
            "cannot predict an unpredictable value".into(),
        ));
    }
    let func = module.func(func_id);
    let phi_ty = func
        .inst(phi)
        .ty
        .ok_or_else(|| TransformError::Precondition("phi must be typed".into()))?;
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    if loop_id.index() >= forest.len() {
        return Err(TransformError::NoSuchLoop);
    }
    let l = forest.get(loop_id).clone();
    let header = l.header;
    let preheader = l
        .preheader(&cfg)
        .ok_or(TransformError::NotCanonical("preheader"))?;
    if l.latches.len() != 1 {
        return Err(TransformError::NotCanonical("single latch"));
    }
    let latch = l.latches[0];

    // Validate the phi and find its operands.
    if !func.block(header).insts.contains(&phi)
        || !matches!(func.inst(phi).kind, InstKind::Phi { .. })
    {
        return Err(TransformError::Precondition(
            "phi must live in the loop header".into(),
        ));
    }
    let (init_val, latch_val) = {
        let InstKind::Phi { args } = &func.inst(phi).kind else {
            unreachable!()
        };
        let mut init = None;
        let mut lv = None;
        for (pred, v) in args {
            if *pred == latch {
                lv = Some(*v);
            } else {
                init = Some(*v);
            }
        }
        match (init, lv) {
            (Some(i), Some(l)) => (i, l),
            _ => {
                return Err(TransformError::Precondition(
                    "phi must have init and latch operands".into(),
                ))
            }
        }
    };
    let Operand::Inst(carrier_def) = latch_val else {
        return Err(TransformError::Precondition(
            "latch value must be an instruction".into(),
        ));
    };
    let inst_blocks = func.inst_blocks();
    let carrier_block = *inst_blocks
        .get(&carrier_def)
        .ok_or_else(|| TransformError::Precondition("carrier not placed".into()))?;
    if !l.contains(carrier_block) {
        return Err(TransformError::Precondition(
            "carrier must be defined in the loop".into(),
        ));
    }
    // A carrier that is another header phi (a swap recurrence) would need
    // its check-and-recovery code in the header, ahead of the prediction it
    // compares against.
    if carrier_block == header && matches!(func.inst(carrier_def).kind, InstKind::Phi { .. }) {
        return Err(TransformError::Precondition(
            "carrier must not be a header phi".into(),
        ));
    }

    // Validated: add a fresh predictor cell, then rewrite.
    let cell_name = format!("__svp_{}_{}", func_id.index(), phi.index());
    let region = module.add_global(cell_name, 1, phi_ty);
    let func = module.func_mut(func_id);

    // --- Preheader: seed the cell with the initial value.
    let base0 = func.add_inst(Inst::new(InstKind::RegionBase { region }, Some(Ty::I64)));
    let seed = func.add_inst(Inst::new(
        InstKind::Store {
            addr: Operand::Inst(base0),
            val: init_val,
            region,
        },
        None,
    ));
    {
        let block = func.block_mut(preheader);
        let at = block.insts.len().saturating_sub(1);
        block.insts.splice(at..at, [base0, seed]);
    }

    // --- Header, after phis: load current value, predict, store prediction.
    let base1 = func.add_inst(Inst::new(InstKind::RegionBase { region }, Some(Ty::I64)));
    let carrier_load = func.add_inst(Inst::new(
        InstKind::Load {
            addr: Operand::Inst(base1),
            region,
        },
        Some(phi_ty),
    ));
    let (prediction, extra_pred_insts): (Operand, Vec<InstId>) = match pattern {
        ValuePattern::Constant(bits) => {
            let op = match phi_ty {
                Ty::I64 => Operand::const_i64(bits as i64),
                Ty::F64 => Operand::ConstF64Bits(bits),
            };
            (op, Vec::new())
        }
        ValuePattern::Stride(k) => {
            let add = func.add_inst(Inst::new(
                InstKind::Binary {
                    op: spt_ir::BinOp::Add,
                    lhs: Operand::Inst(carrier_load),
                    rhs: Operand::const_i64(k),
                },
                Some(phi_ty),
            ));
            (Operand::Inst(add), vec![add])
        }
        ValuePattern::LastValue => (Operand::Inst(carrier_load), Vec::new()),
        ValuePattern::Unpredictable => unreachable!("rejected above"),
    };
    let predict_store = func.add_inst(Inst::new(
        InstKind::Store {
            addr: Operand::Inst(base1),
            val: prediction,
            region,
        },
        None,
    ));
    {
        let pos = func
            .block(header)
            .insts
            .iter()
            .position(|&i| !matches!(func.inst(i).kind, InstKind::Phi { .. }))
            .unwrap_or(func.block(header).insts.len());
        let mut seq = vec![base1, carrier_load];
        seq.extend(extra_pred_insts);
        seq.push(predict_store);
        func.block_mut(header).insts.splice(pos..pos, seq);
    }

    // --- Rewrite all uses of the phi to the loaded value, then delete it.
    for bb in func.block_ids().collect::<Vec<_>>() {
        for &i in &func.block(bb).insts.clone() {
            if i == carrier_load {
                continue;
            }
            func.inst_mut(i).kind.map_operands(|op| {
                if op == Operand::Inst(phi) {
                    Operand::Inst(carrier_load)
                } else {
                    op
                }
            });
        }
    }
    func.block_mut(header).insts.retain(|&i| i != phi);

    // --- Check-and-recovery after the carrier definition.
    // Split the carrier's block: [.., carrier, miss?] -> fixup | cont.
    let cont = func.add_block();
    let fixup = func.add_block();
    let carrier_pos = {
        let insts = &func.block(carrier_block).insts;
        let pos = insts
            .iter()
            .position(|&i| i == carrier_def)
            .expect("carrier in its block");
        // If the carrier is a phi, split after the whole phi group so the
        // continuation block does not start with orphaned phis.
        let last_phi = insts
            .iter()
            .rposition(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }));
        match last_phi {
            Some(lp) if matches!(func.inst(carrier_def).kind, InstKind::Phi { .. }) => pos.max(lp),
            _ => pos,
        }
    };
    let tail: Vec<InstId> = func
        .block(carrier_block)
        .insts
        .split_at(carrier_pos + 1)
        .1
        .to_vec();
    func.block_mut(carrier_block)
        .insts
        .truncate(carrier_pos + 1);
    func.block_mut(cont).insts = tail;

    let miss = func.add_inst(Inst::new(
        InstKind::Cmp {
            op: CmpOp::Ne,
            operand_ty: phi_ty,
            lhs: Operand::Inst(carrier_def),
            rhs: prediction,
        },
        Some(Ty::I64),
    ));
    let br = func.add_inst(Inst::new(
        InstKind::Branch {
            cond: Operand::Inst(miss),
            then_bb: fixup,
            else_bb: cont,
        },
        None,
    ));
    func.block_mut(carrier_block).insts.extend([miss, br]);

    let base2 = func.add_inst(Inst::new(InstKind::RegionBase { region }, Some(Ty::I64)));
    let recovery_store = func.add_inst(Inst::new(
        InstKind::Store {
            addr: Operand::Inst(base2),
            val: Operand::Inst(carrier_def),
            region,
        },
        None,
    ));
    let jmp = func.add_inst(Inst::new(InstKind::Jump { target: cont }, None));
    func.block_mut(fixup)
        .insts
        .extend([base2, recovery_store, jmp]);

    // Successor phis that referenced the carrier block now come from `cont`
    // (the block holding the original terminator).
    let succs_of_cont: Vec<BlockId> = func.successors(cont);
    for s in succs_of_cont {
        for &i in &func.block(s).insts.clone() {
            if let InstKind::Phi { args } = &mut func.inst_mut(i).kind {
                for (pred, _) in args.iter_mut() {
                    if *pred == carrier_block {
                        *pred = cont;
                    }
                }
            }
        }
    }

    Ok(SvpRewrite {
        region,
        carrier_load,
        predict_store,
        recovery_store,
        miss_rate: miss_rate.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_profile::{Interp, NoProfiler, Val};

    /// Finds the single header phi whose latch update matches `want_users`
    /// usage; here: the loop has exactly the carried vars of the source, so
    /// pick by position.
    fn header_phis(module: &Module, fname: &str) -> (FuncId, LoopId, Vec<InstId>) {
        let fid = module.func_by_name(fname).unwrap();
        let func = module.func(fid);
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let lid = LoopId::new(0);
        let header = forest.get(lid).header;
        let phis = func
            .block(header)
            .insts
            .iter()
            .copied()
            .filter(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
            .collect();
        (fid, lid, phis)
    }

    const STRIDE_LOOP: &str = "
        fn f(n: int) -> int {
            let x = 0;
            let s = 0;
            while (x < n) {
                s = s + x;
                x = x + 2;
            }
            return s;
        }
    ";

    #[test]
    fn svp_stride_preserves_semantics() {
        let mut m = spt_frontend::compile(STRIDE_LOOP).unwrap();
        let (fid, lid, phis) = header_phis(&m, "f");
        assert_eq!(phis.len(), 2);
        // Apply SVP to every carried phi that matches a stride-2 pattern;
        // applying to `x` is the interesting one, but applying to both must
        // stay correct (recovery handles mispredictions).
        let phi = phis[1];
        let rewrite = apply_svp(&mut m, fid, lid, phi, ValuePattern::Stride(2), 0.01);
        // Some phis carry `s` (stride varies) — try the other if this one
        // isn't legal for stride 2; recovery keeps it correct either way.
        let rewrite = match rewrite {
            Ok(r) => r,
            Err(_) => apply_svp(&mut m, fid, lid, phis[0], ValuePattern::Stride(2), 0.01).unwrap(),
        };
        spt_ir::passes::cleanup(m.func_mut(fid));
        spt_ir::verify::verify_module(&m).expect("verifies");
        assert!(rewrite.miss_rate <= 1.0);
        for n in [0i64, 1, 2, 10, 101] {
            let expected: i64 = (0..).map(|k| 2 * k).take_while(|&x| x < n).sum();
            let got = Interp::new(&m)
                .run("f", &[Val::from_i64(n)], &mut NoProfiler)
                .unwrap()
                .ret
                .unwrap()
                .as_i64();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn svp_with_wrong_pattern_still_correct() {
        // Predicting a stride of 999 is always wrong; recovery must fix
        // every iteration and keep the program exact.
        let mut m = spt_frontend::compile(STRIDE_LOOP).unwrap();
        let (fid, lid, phis) = header_phis(&m, "f");
        if let Some(&phi) = phis.first() {
            let _ = apply_svp(&mut m, fid, lid, phi, ValuePattern::Stride(999), 1.0);
        }
        spt_ir::passes::cleanup(m.func_mut(fid));
        spt_ir::verify::verify_module(&m).expect("verifies");
        for n in [0i64, 5, 40] {
            let expected: i64 = (0..).map(|k| 2 * k).take_while(|&x| x < n).sum();
            let got = Interp::new(&m)
                .run("f", &[Val::from_i64(n)], &mut NoProfiler)
                .unwrap()
                .ret
                .unwrap()
                .as_i64();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn svp_constant_pattern() {
        // A flag that stays 1 throughout: constant-predictable.
        let src = "
            fn f(n: int) -> int {
                let flag = 1;
                let s = 0;
                let i = 0;
                while (i < n) {
                    s = s + flag;
                    if (s > 1000000) { flag = 0; }
                    i = i + 1;
                }
                return s;
            }
        ";
        let mut m = spt_frontend::compile(src).unwrap();
        let (fid, lid, phis) = header_phis(&m, "f");
        // Find an i64 phi we can constant-predict as 1; recovery guards
        // correctness regardless of which phi this lands on.
        let mut applied = false;
        for &phi in &phis {
            if apply_svp(&mut m, fid, lid, phi, ValuePattern::Constant(1), 0.0).is_ok() {
                applied = true;
                break;
            }
        }
        assert!(applied);
        spt_ir::passes::cleanup(m.func_mut(fid));
        spt_ir::verify::verify_module(&m).expect("verifies");
        let got = Interp::new(&m)
            .run("f", &[Val::from_i64(50)], &mut NoProfiler)
            .unwrap()
            .ret
            .unwrap()
            .as_i64();
        assert_eq!(got, 50);
    }

    #[test]
    fn svp_adds_predictor_cell() {
        let mut m = spt_frontend::compile(STRIDE_LOOP).unwrap();
        let before = m.globals.len();
        let (fid, lid, phis) = header_phis(&m, "f");
        apply_svp(&mut m, fid, lid, phis[0], ValuePattern::LastValue, 0.5).unwrap();
        assert_eq!(m.globals.len(), before + 1);
        assert!(m.globals.last().unwrap().name.starts_with("__svp_"));
    }

    #[test]
    fn rejects_unpredictable() {
        let mut m = spt_frontend::compile(STRIDE_LOOP).unwrap();
        let (fid, lid, phis) = header_phis(&m, "f");
        let e = apply_svp(&mut m, fid, lid, phis[0], ValuePattern::Unpredictable, 1.0).unwrap_err();
        assert!(matches!(e, TransformError::Precondition(_)));
    }
}
