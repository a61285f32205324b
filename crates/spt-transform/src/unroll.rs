//! Loop unrolling (§7.1).
//!
//! The paper unrolls loops before partitioning so loop bodies are large
//! enough to amortize the fork/commit overheads, and notes that ORC's LNO
//! "can only unroll DO loops", leaving 34% of candidate loops (small-bodied
//! `while` loops) untransformed — fixing that is the headline "anticipated"
//! enabling technique.
//!
//! This implementation unrolls in the *general* (while-loop) way: the body
//! is replicated with its exit test intact in every copy, so no trip-count
//! information is needed and any canonical loop qualifies. [`UnrollKind`]
//! records whether a loop would also qualify for classic counted (DO-loop)
//! unrolling, which is what the *basic*/*best* configurations are limited
//! to, mirroring the paper's ORC restriction.
//!
//! Requirements: canonical loop (dedicated preheader, single latch) whose
//! only exiting block is the header. Loops with `break`/`return` exits are
//! skipped (reported via [`TransformError`]).

use crate::TransformError;
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, Cfg, CmpOp, DomTree, Function, Inst, InstId, InstKind, LoopForest, Operand};
use std::collections::{HashMap, HashSet};

/// Classification of a loop for unrolling decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnrollKind {
    /// A counted (DO) loop: header test compares an affine induction
    /// variable against a loop-invariant bound. ORC-style unrolling applies.
    Counted,
    /// Any other canonical loop (a general `while` loop).
    While,
}

/// Classifies a loop as counted or general.
///
/// A loop is counted when its header terminator is a branch on an integer
/// comparison between a header phi whose latch update is `phi ± constant`
/// and a loop-invariant operand.
pub fn classify_loop(func: &Function, forest: &LoopForest, loop_id: LoopId) -> UnrollKind {
    let l = forest.get(loop_id);
    let header = l.header;
    let Some(term) = func.terminator(header) else {
        return UnrollKind::While;
    };
    let InstKind::Branch { cond, .. } = &func.inst(term).kind else {
        return UnrollKind::While;
    };
    let Operand::Inst(cmp) = cond else {
        return UnrollKind::While;
    };
    let InstKind::Cmp { op, lhs, rhs, .. } = &func.inst(*cmp).kind else {
        return UnrollKind::While;
    };
    if !matches!(
        op,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge | CmpOp::Ne
    ) {
        return UnrollKind::While;
    }
    let in_loop: HashSet<BlockId> = l.blocks.iter().copied().collect();
    let inst_blocks = func.inst_blocks();
    let defined_in_loop = |op: &Operand| match op {
        Operand::Inst(d) => inst_blocks.get(d).is_some_and(|b| in_loop.contains(b)),
        _ => false,
    };
    // One side: header phi with affine latch update; other side: invariant.
    let is_affine_iv = |op: &Operand| -> bool {
        let Operand::Inst(d) = op else { return false };
        let Some(b) = inst_blocks.get(d) else {
            return false;
        };
        if *b != header {
            return false;
        }
        let InstKind::Phi { args } = &func.inst(*d).kind else {
            return false;
        };
        // Latch operand must be phi +- const.
        for (pred, v) in args {
            if l.latches.contains(pred) {
                if let Operand::Inst(upd) = v {
                    if let InstKind::Binary {
                        op: spt_ir::BinOp::Add | spt_ir::BinOp::Sub,
                        lhs,
                        rhs,
                    } = &func.inst(*upd).kind
                    {
                        let uses_phi = *lhs == Operand::Inst(*d) || *rhs == Operand::Inst(*d);
                        let has_const = lhs.is_const() || rhs.is_const();
                        return uses_phi && has_const;
                    }
                }
                return false;
            }
        }
        false
    };
    if (is_affine_iv(lhs) && !defined_in_loop(rhs)) || (is_affine_iv(rhs) && !defined_in_loop(lhs))
    {
        UnrollKind::Counted
    } else {
        UnrollKind::While
    }
}

/// Unrolls `loop_id` of `func` by `factor` (total body copies; `factor >= 2`).
///
/// Every copy keeps the exit test, so correctness does not depend on the
/// trip count. Returns the ids of the blocks added.
///
/// # Errors
///
/// * [`TransformError::NoSuchLoop`] — stale loop id;
/// * [`TransformError::NotCanonical`] — no preheader / multiple latches /
///   exits outside the header;
/// * [`TransformError::Precondition`] — `factor < 2`.
pub fn unroll_loop(
    func: &mut Function,
    loop_id: LoopId,
    factor: usize,
) -> Result<Vec<BlockId>, TransformError> {
    if factor < 2 {
        return Err(TransformError::Precondition("factor must be >= 2".into()));
    }
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    if loop_id.index() >= forest.len() {
        return Err(TransformError::NoSuchLoop);
    }
    let l = forest.get(loop_id).clone();
    let header = l.header;
    if l.preheader(&cfg).is_none() {
        return Err(TransformError::NotCanonical("preheader"));
    }
    if l.latches.len() != 1 {
        return Err(TransformError::NotCanonical("single latch"));
    }
    // Only the header may exit.
    let exiting = l.exiting_blocks(&cfg);
    if exiting != [header] {
        return Err(TransformError::NotCanonical("header-only exit"));
    }
    // Exit targets must be dedicated (their only predecessor is the header)
    // so live-out phis can be inserted.
    for e in l.exit_targets(&cfg) {
        if cfg.preds(e) != [header] {
            return Err(TransformError::NotCanonical("dedicated exit"));
        }
    }

    // LCSSA-style exit phis: every loop-defined value used outside the loop
    // flows through a phi at the exit target, so each body copy's exit can
    // supply its own (fresher) value.
    insert_exit_phis(func, loop_id);

    let mut added = Vec::new();
    // Unroll factor-1 times: each step appends one more body copy.
    for _ in 1..factor {
        let new_blocks = clone_once(func, loop_id)?;
        added.extend(new_blocks);
    }
    Ok(added)
}

/// Rewrites outside-the-loop uses of loop-defined values to go through phis
/// in the (dedicated) exit targets.
fn insert_exit_phis(func: &mut Function, loop_id: LoopId) {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    let l = forest.get(loop_id).clone();
    let in_loop: HashSet<BlockId> = l.blocks.iter().copied().collect();

    // Loop-defined values used outside.
    let mut defs_in_loop: HashSet<InstId> = HashSet::new();
    for &bb in &l.blocks {
        for &i in &func.block(bb).insts {
            if func.inst(i).produces_value() {
                defs_in_loop.insert(i);
            }
        }
    }
    let mut live_outs: Vec<InstId> = Vec::new();
    for bb in func.block_ids() {
        if in_loop.contains(&bb) {
            continue;
        }
        for &i in &func.block(bb).insts {
            func.inst(i).kind.for_each_operand(|op| {
                if let Operand::Inst(d) = op {
                    if defs_in_loop.contains(&d) && !live_outs.contains(&d) {
                        live_outs.push(d);
                    }
                }
            });
        }
    }
    if live_outs.is_empty() {
        return;
    }

    for e in l.exit_targets(&cfg) {
        let mut rewrite: HashMap<InstId, InstId> = HashMap::new();
        let mut new_phis: Vec<InstId> = Vec::new();
        for &d in &live_outs {
            let ty = func.inst(d).ty;
            let phi = func.add_inst(Inst::new(
                InstKind::Phi {
                    args: cfg
                        .preds(e)
                        .iter()
                        .map(|&p| (p, Operand::Inst(d)))
                        .collect(),
                },
                ty,
            ));
            rewrite.insert(d, phi);
            new_phis.push(phi);
        }
        // Prepend the phis.
        {
            let block = func.block_mut(e);
            let old = std::mem::take(&mut block.insts);
            block.insts = new_phis.clone();
            block.insts.extend(old);
        }
        // Rewrite uses outside the loop (skipping the new phis themselves).
        let phi_set: HashSet<InstId> = new_phis.into_iter().collect();
        for bb in func.block_ids().collect::<Vec<_>>() {
            if in_loop.contains(&bb) {
                continue;
            }
            for &i in &func.block(bb).insts.clone() {
                // Skip the new phis, and any pre-existing phi of the exit
                // block itself (its args flow along in-loop edges).
                if phi_set.contains(&i)
                    || (bb == e && matches!(func.inst(i).kind, InstKind::Phi { .. }))
                {
                    continue;
                }
                func.inst_mut(i).kind.map_operands(|op| match op {
                    Operand::Inst(d) => match rewrite.get(&d) {
                        Some(&phi) => Operand::Inst(phi),
                        None => op,
                    },
                    other => other,
                });
            }
        }
    }
}

/// Appends one body copy to the loop: original latch jumps into the copy;
/// the copy's latch becomes the loop's latch.
fn clone_once(func: &mut Function, loop_id: LoopId) -> Result<Vec<BlockId>, TransformError> {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    if loop_id.index() >= forest.len() {
        return Err(TransformError::NoSuchLoop);
    }
    let l = forest.get(loop_id).clone();
    let header = l.header;
    let latch = l.latches[0];
    let in_loop: HashSet<BlockId> = l.blocks.iter().copied().collect();

    // Header phi bookkeeping: phi -> (init, latch value).
    let header_phis: Vec<InstId> = func
        .block(header)
        .insts
        .iter()
        .copied()
        .filter(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
        .collect();
    let mut phi_latch_val: HashMap<InstId, Operand> = HashMap::new();
    for &phi in &header_phis {
        if let InstKind::Phi { args } = &func.inst(phi).kind {
            for (pred, v) in args {
                if *pred == latch {
                    phi_latch_val.insert(phi, *v);
                }
            }
        }
    }

    // Allocate clone blocks.
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    for &bb in &l.blocks {
        block_map.insert(bb, func.add_block());
    }
    // Allocate clone instruction ids (two-phase to allow forward refs).
    let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
    let mut plan: Vec<(BlockId, InstId)> = Vec::new();
    for &bb in &l.blocks {
        for &i in &func.block(bb).insts {
            plan.push((bb, i));
        }
    }
    for &(_, i) in &plan {
        let id = func.add_inst(Inst::new(InstKind::SptKill { loop_tag: 0 }, None));
        inst_map.insert(i, id);
    }

    // Value mapping: header phi clones are *copies of the latch value* (one
    // path in), everything else clones structurally.
    let map_op = |op: Operand, inst_map: &HashMap<InstId, InstId>| -> Operand {
        match op {
            Operand::Inst(d) => inst_map.get(&d).map(|&c| Operand::Inst(c)).unwrap_or(op),
            other => other,
        }
    };

    for &(bb, i) in &plan {
        let clone_id = inst_map[&i];
        let orig = func.inst(i).clone();
        let mut kind = orig.kind.clone();
        let is_header_phi = bb == header && header_phis.contains(&i);
        if is_header_phi {
            // x_k = value at start of copy k = latch value of previous copy.
            let latch_val = phi_latch_val
                .get(&i)
                .copied()
                .unwrap_or(Operand::const_i64(0));
            kind = InstKind::Copy { val: latch_val };
        } else {
            kind.map_operands(|op| map_op(op, &inst_map));
            kind.map_blocks(|t| {
                if t == header {
                    // The copy's back edge goes to the *original* header.
                    header
                } else {
                    block_map.get(&t).copied().unwrap_or(t)
                }
            });
        }
        *func.inst_mut(clone_id) = Inst::new(kind, orig.ty);
        func.block_mut(block_map[&bb]).insts.push(clone_id);
    }

    let new_header = block_map[&header];
    let new_latch = block_map[&latch];

    // Original latch now enters the copy instead of the header.
    if let Some(term) = func.terminator(latch) {
        func.inst_mut(term)
            .kind
            .map_blocks(|t| if t == header { new_header } else { t });
    }

    // Original header phis: the latch incoming now comes from the copy's
    // latch with the copy's value.
    for &phi in &header_phis {
        let latch_val = phi_latch_val[&phi];
        let mapped = map_op(latch_val, &inst_map);
        if let InstKind::Phi { args } = &mut func.inst_mut(phi).kind {
            for (pred, v) in args.iter_mut() {
                if *pred == latch {
                    *pred = new_latch;
                    *v = mapped;
                }
            }
        }
    }

    // Exit-target phis gain incoming edges from every cloned exiting block.
    let exit_targets: Vec<BlockId> = l.exit_targets(&cfg);
    for &e in &exit_targets {
        for &i in &func.block(e).insts.clone() {
            let new_args = if let InstKind::Phi { args } = &func.inst(i).kind {
                let mut extra = Vec::new();
                for (pred, v) in args {
                    if in_loop.contains(pred) {
                        extra.push((block_map[pred], map_op(*v, &inst_map)));
                    }
                }
                extra
            } else {
                continue;
            };
            if let InstKind::Phi { args } = &mut func.inst_mut(i).kind {
                args.extend(new_args);
            }
        }
    }

    Ok(l.blocks.iter().map(|bb| block_map[bb]).collect())
}

/// Chooses an unroll factor so the unrolled body reaches `min_size` latency
/// units, capped at `max_factor`.
pub fn choose_unroll_factor(body_size: u64, min_size: u64, max_factor: usize) -> usize {
    if body_size == 0 || body_size >= min_size {
        return 1;
    }
    let needed = min_size.div_ceil(body_size) as usize;
    needed.clamp(1, max_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_profile::{Interp, NoProfiler, Val};

    fn compile(src: &str) -> spt_ir::Module {
        spt_frontend::compile(src).unwrap()
    }

    fn forest_of(func: &Function) -> LoopForest {
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        LoopForest::compute(func, &cfg, &dom)
    }

    fn run_ret(module: &spt_ir::Module, entry: &str, args: &[Val]) -> i64 {
        Interp::new(module)
            .run(entry, args, &mut NoProfiler)
            .unwrap()
            .ret
            .unwrap()
            .as_i64()
    }

    const FOR_SUM: &str = "
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
    ";

    const WHILE_COLLATZ: &str = "
        fn f(x: int) -> int {
            let steps = 0;
            while (x != 1) {
                if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
                steps = steps + 1;
            }
            return steps;
        }
    ";

    #[test]
    fn classifies_counted_vs_while() {
        let m = compile(FOR_SUM);
        let f = &m.funcs[0];
        let forest = forest_of(f);
        assert_eq!(
            classify_loop(f, &forest, LoopId::new(0)),
            UnrollKind::Counted
        );

        let m2 = compile(WHILE_COLLATZ);
        let f2 = &m2.funcs[0];
        let forest2 = forest_of(f2);
        assert_eq!(
            classify_loop(f2, &forest2, LoopId::new(0)),
            UnrollKind::While
        );
    }

    #[test]
    fn unroll_preserves_counted_loop_semantics() {
        for factor in [2usize, 3, 4] {
            let mut m = compile(FOR_SUM);
            let fid = m.func_by_name("f").unwrap();
            unroll_loop(m.func_mut(fid), LoopId::new(0), factor).expect("unrolls");
            spt_ir::passes::cleanup(m.func_mut(fid));
            spt_ir::verify::verify_module(&m).expect("verifies");
            for n in [0i64, 1, 2, 3, 7, 100, 101] {
                let expected: i64 = (0..n).sum();
                assert_eq!(
                    run_ret(&m, "f", &[Val::from_i64(n)]),
                    expected,
                    "factor={factor}, n={n}"
                );
            }
        }
    }

    #[test]
    fn unroll_preserves_while_loop_semantics() {
        let mut m = compile(WHILE_COLLATZ);
        let fid = m.func_by_name("f").unwrap();
        unroll_loop(m.func_mut(fid), LoopId::new(0), 3).expect("unrolls");
        spt_ir::passes::cleanup(m.func_mut(fid));
        spt_ir::verify::verify_module(&m).expect("verifies");
        let collatz = |mut x: i64| {
            let mut steps = 0;
            while x != 1 {
                x = if x % 2 == 0 { x / 2 } else { 3 * x + 1 };
                steps += 1;
            }
            steps
        };
        for x in [1i64, 2, 3, 6, 7, 27] {
            assert_eq!(run_ret(&m, "f", &[Val::from_i64(x)]), collatz(x), "x={x}");
        }
    }

    #[test]
    fn unroll_preserves_memory_semantics() {
        let src = "
            global a[512]: int;
            fn f(n: int) -> int {
                a[0] = 1;
                for (let i = 1; i < n; i = i + 1) { a[i] = a[i - 1] * 2 + 1; }
                return a[n - 1];
            }
        ";
        let mut m = compile(src);
        let fid = m.func_by_name("f").unwrap();
        unroll_loop(m.func_mut(fid), LoopId::new(0), 4).expect("unrolls");
        spt_ir::passes::cleanup(m.func_mut(fid));
        spt_ir::verify::verify_module(&m).expect("verifies");
        let check = |n: i64| {
            let mut a = vec![0i64; 512];
            a[0] = 1;
            for i in 1..n as usize {
                a[i] = a[i - 1] * 2 + 1;
            }
            a[n as usize - 1]
        };
        for n in [2i64, 3, 9, 33] {
            assert_eq!(run_ret(&m, "f", &[Val::from_i64(n)]), check(n), "n={n}");
        }
    }

    #[test]
    fn unroll_grows_body() {
        let mut m = compile(FOR_SUM);
        let fid = m.func_by_name("f").unwrap();
        let before = m.func(fid).placed_inst_count();
        unroll_loop(m.func_mut(fid), LoopId::new(0), 2).unwrap();
        let after = m.func(fid).placed_inst_count();
        assert!(after > before);
        // Still exactly one loop.
        let forest = forest_of(m.func(fid));
        assert_eq!(forest.len(), 1);
    }

    #[test]
    fn loops_with_break_are_rejected() {
        let src = "
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i == 5) { break; }
                    s = s + i;
                }
                return s;
            }
        ";
        let mut m = compile(src);
        let fid = m.func_by_name("f").unwrap();
        // Find the loop (break adds an extra exiting block).
        let forest = forest_of(m.func(fid));
        assert_eq!(forest.len(), 1);
        let err = unroll_loop(m.func_mut(fid), LoopId::new(0), 2).unwrap_err();
        assert!(matches!(err, TransformError::NotCanonical(_)));
    }

    #[test]
    fn factor_choice() {
        assert_eq!(choose_unroll_factor(100, 50, 8), 1);
        assert_eq!(choose_unroll_factor(10, 50, 8), 5);
        assert_eq!(choose_unroll_factor(3, 100, 8), 8);
        assert_eq!(choose_unroll_factor(0, 100, 8), 1);
    }

    #[test]
    fn factor_below_two_rejected() {
        let mut m = compile(FOR_SUM);
        let fid = m.func_by_name("f").unwrap();
        assert!(matches!(
            unroll_loop(m.func_mut(fid), LoopId::new(0), 1),
            Err(TransformError::Precondition(_))
        ));
    }
}
