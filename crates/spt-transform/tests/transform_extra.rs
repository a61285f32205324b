//! Additional transformation integration tests: high unroll factors,
//! SVP on conditional carriers and the loops SVP must decline, promotion
//! around while loops, SPT emission specs that leave a cloned
//! instruction's operand post-fork, and emission robustness.

use spt_ir::loops::LoopId;
use spt_ir::{BinOp, BlockId, CmpOp, FuncBuilder, FuncId, InstId, InstKind, Module, Operand, Ty};
use spt_profile::{Interp, NoProfiler, Val, ValuePattern};
use spt_transform::{
    apply_svp, classify_loop, emit_spt_loop, promote_global_scalars, unroll_loop, SptLoopSpec,
    TransformError, UnrollKind,
};
use std::collections::HashSet;

fn run_ret(module: &spt_ir::Module, entry: &str, arg: i64) -> i64 {
    Interp::new(module)
        .run(entry, &[Val::from_i64(arg)], &mut NoProfiler)
        .unwrap()
        .ret
        .unwrap()
        .as_i64()
}

#[test]
fn unroll_factor_eight_with_memory_and_branches() {
    let src = "
        global a[512]: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                if (i % 3 == 0) { a[i % 512] = i; } else { a[(i + 1) % 512] = s % 97; }
                s = s + a[i % 512] % 7;
            }
            return s;
        }
    ";
    let native = |n: i64| {
        let mut a = [0i64; 512];
        let mut s = 0i64;
        for i in 0..n {
            if i % 3 == 0 {
                a[(i % 512) as usize] = i;
            } else {
                a[((i + 1) % 512) as usize] = s % 97;
            }
            s += a[(i % 512) as usize] % 7;
        }
        s
    };
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 8).expect("unrolls");
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 1, 7, 8, 9, 63, 64, 65, 200] {
        assert_eq!(run_ret(&m, "f", n), native(n), "n={n}");
    }
}

#[test]
fn unrolling_is_a_one_shot_transformation() {
    // Each unrolled copy keeps its own exit test, so the unrolled loop has
    // multiple exiting blocks — a second unroll must be rejected (the
    // pipeline unrolls each loop at most once, picking the factor up
    // front).
    let src = "fn f(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 2).unwrap();
    spt_ir::passes::cleanup(m.func_mut(fid));
    let err = unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 2).unwrap_err();
    assert!(matches!(
        err,
        spt_transform::TransformError::NotCanonical(_)
    ));
    // The once-unrolled loop still computes correctly.
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 3, 4, 5, 17] {
        assert_eq!(run_ret(&m, "f", n), (0..n).sum::<i64>(), "n={n}");
    }
}

#[test]
fn unrolled_loops_classify_as_while() {
    // After unrolling, the IV's latch update is a chain of adds rather than
    // `phi + const`, so the loop is no longer *re*-classified as counted —
    // consistent with the one-shot unrolling policy above.
    let src = "fn f(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 3).unwrap();
    spt_ir::passes::cleanup(m.func_mut(fid));
    let f = m.func(fid);
    let cfg = spt_ir::Cfg::compute(f);
    let dom = spt_ir::DomTree::compute(&cfg);
    let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
    assert_eq!(forest.len(), 1);
    assert_eq!(
        classify_loop(f, &forest, spt_ir::loops::LoopId::new(0)),
        UnrollKind::While
    );
}

#[test]
fn promotion_handles_read_only_globals() {
    // A global that is only *read* in the loop: promotion still moves the
    // load out (loop-invariant), and the store-back writes the same value.
    let src = "
        global k: int = 7;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + k; }
            return s;
        }
    ";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let promoted = promote_global_scalars(&m.globals.clone(), m.func_mut(fid));
    assert_eq!(promoted, 1);
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    assert_eq!(run_ret(&m, "f", 10), 70);
}

#[test]
fn promotion_respects_loads_through_computed_addresses() {
    // The scalar is also accessed via a computed address (base + 0 computed
    // through arithmetic the analysis cannot prove): promotion must skip it.
    let src = "
        global x: int;
        global a[4]: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                x = x + 1;
                s = s + a[x % 4];
            }
            return s;
        }
    ";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let before = run_ret(&m, "f", 10);
    promote_global_scalars(&m.globals.clone(), m.func_mut(fid));
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    assert_eq!(
        run_ret(&m, "f", 10),
        before,
        "semantics preserved either way"
    );
}

#[test]
fn svp_on_conditionally_updated_carrier() {
    // The carrier is updated through a diamond (phi join): SVP must split
    // after the whole phi group and keep semantics.
    let src = "
        fn f(n: int) -> int {
            let x = 0;
            let s = 0;
            let i = 0;
            while (i < n) {
                if (i % 16 == 15) { x = x + 2; } else { x = x + 1; }
                s = s + x % 7;
                i = i + 1;
            }
            return s;
        }
    ";
    let native = |n: i64| {
        let (mut x, mut s) = (0i64, 0i64);
        for i in 0..n {
            if i % 16 == 15 {
                x += 2;
            } else {
                x += 1;
            }
            s += x % 7;
        }
        s
    };
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    // Find the loop header and its phis.
    let (lid, phis) = {
        let f = m.func(fid);
        let cfg = spt_ir::Cfg::compute(f);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
        let lid = forest
            .ids()
            .find(|&l| forest.get(l).depth == 1)
            .expect("loop");
        let header = forest.get(lid).header;
        let phis: Vec<spt_ir::InstId> = f
            .block(header)
            .insts
            .iter()
            .copied()
            .filter(|&i| matches!(f.inst(i).kind, spt_ir::InstKind::Phi { .. }))
            .collect();
        (lid, phis)
    };
    let mut applied = false;
    for phi in phis {
        if spt_transform::apply_svp(
            &mut m,
            fid,
            lid,
            phi,
            spt_profile::ValuePattern::Stride(1),
            0.07,
        )
        .is_ok()
        {
            applied = true;
            break;
        }
    }
    assert!(applied, "at least one carrier rewritable");
    for func in &mut m.funcs {
        spt_ir::passes::cleanup(func);
    }
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 15, 16, 17, 100] {
        assert_eq!(run_ret(&m, "f", n), native(n), "n={n}");
    }
}

/// Runs `apply_svp` on `phi` of loop `lid` and requires an error naming
/// `why` that leaves the module exactly as it was: no orphan predictor
/// cell in `globals` and no partial rewrite of the function.
fn assert_svp_declines(m: &Module, lid: LoopId, phi: InstId, why: &str) {
    let mut after = m.clone();
    let e = apply_svp(
        &mut after,
        FuncId::new(0),
        lid,
        phi,
        ValuePattern::LastValue,
        0.5,
    )
    .expect_err(why);
    assert!(e.to_string().contains(why), "{why}: got {e}");
    assert_eq!(after.globals.len(), m.globals.len(), "{why}: orphan global");
    assert!(after == *m, "{why}: the module changed");
}

/// The latch operand of `x` in [`svp_loop`], given the loop's `i + 1`,
/// a value defined before the loop, and the header phi `i`.
type Carry = fn(Operand, Operand, Operand) -> Option<Operand>;

/// A hand-built `f(n)` for SVP's preconditions, returning the module and
/// its header phi `x`: `entries` blocks jump to a header holding
/// `i` (counting to `n`) and `x` (latch operand from `carry`); the body
/// increments `i` and jumps back, with a second backedge when `latches` is
/// 2; the exit returns `x`.
fn svp_loop(entries: usize, latches: usize, carry: Carry) -> (Module, InstId) {
    let mut b = FuncBuilder::new("f", vec![("n".into(), Ty::I64)], Some(Ty::I64));
    let n = b.param(0);
    let outside = b.binary(BinOp::Mul, n, Operand::const_i64(2));
    let preds: Vec<BlockId> = (0..entries).map(|_| b.add_block()).collect();
    let (header, body, exit) = (b.add_block(), b.add_block(), b.add_block());
    if entries == 1 {
        b.jump(preds[0]);
    } else {
        let c = b.cmp(CmpOp::Gt, Ty::I64, n, Operand::const_i64(0));
        b.branch(c, preds[0], preds[1]);
    }
    for &p in &preds {
        b.switch_to(p);
        b.jump(header);
    }
    b.switch_to(header);
    let init = |k| preds.iter().map(|&p| (p, Operand::const_i64(k))).collect();
    let i = b.phi(Ty::I64, init(0));
    let x = b.phi(Ty::I64, init(1));
    let c = b.cmp(CmpOp::Lt, Ty::I64, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let next = b.binary(BinOp::Add, i, Operand::const_i64(1));
    let mut latch_blocks = vec![body];
    if latches == 2 {
        let second = b.add_block();
        let odd = b.binary(BinOp::And, next, Operand::const_i64(1));
        b.branch(odd, header, second);
        b.switch_to(second);
        b.jump(header);
        latch_blocks.push(second);
    } else {
        b.jump(header);
    }
    b.switch_to(exit);
    b.ret(Some(x));
    let mut func = b.finish();
    let (Some(iid), Some(xid)) = (i.as_inst(), x.as_inst()) else {
        unreachable!("phis are instructions")
    };
    for &l in &latch_blocks {
        for (phi, val) in [(iid, Some(next)), (xid, carry(next, outside, i))] {
            if let (InstKind::Phi { args }, Some(v)) = (&mut func.insts[phi.index()].kind, val) {
                args.push((l, v));
            }
        }
    }
    let mut m = Module::new();
    m.add_func(func);
    (m, xid)
}

#[test]
fn svp_declines_without_touching_the_module() {
    let lid = LoopId::new(0);
    let (m, x) = svp_loop(1, 1, |next, _, _| Some(next));
    assert_svp_declines(&m, LoopId::new(9), x, "no such loop");
    // Instruction 1 is the entry block's `n * 2`.
    assert_svp_declines(&m, lid, InstId::new(1), "phi must live in the loop header");
    let (m, x) = svp_loop(2, 1, |next, _, _| Some(next));
    assert_svp_declines(&m, lid, x, "preheader");
    let (m, x) = svp_loop(1, 2, |next, _, _| Some(next));
    assert_svp_declines(&m, lid, x, "single latch");
    let (m, x) = svp_loop(1, 1, |_, _, _| None);
    assert_svp_declines(&m, lid, x, "phi must have init and latch operands");
    let (m, x) = svp_loop(1, 1, |_, _, _| Some(Operand::const_i64(5)));
    assert_svp_declines(&m, lid, x, "latch value must be an instruction");
    let (m, x) = svp_loop(1, 1, |_, outside, _| Some(outside));
    assert_svp_declines(&m, lid, x, "carrier must be defined in the loop");
    let (m, x) = svp_loop(1, 1, |_, _, i| Some(i));
    assert_svp_declines(&m, lid, x, "carrier must not be a header phi");
    // The canonical shape itself is accepted.
    let (mut m, x) = svp_loop(1, 1, |next, _, _| Some(next));
    assert!(apply_svp(&mut m, FuncId::new(0), lid, x, ValuePattern::LastValue, 0.5).is_ok());
}

/// SVP where the carrier definition (the phi's latch value) is itself
/// another header phi, a swap-style recurrence: the rewrite would put the
/// miss compare in the header ahead of the prediction it reads, so
/// `apply_svp` declines it and leaves the module untouched.
#[test]
fn svp_carrier_is_header_phi() {
    let src = "
        fn f(n: int) -> int {
            let x = 0;
            let y = 1;
            let i = 0;
            while (i < n) {
                let t = x + y;
                x = y;
                y = t;
                i = i + 1;
            }
            return x;
        }
    ";
    let m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let func = m.func(fid);
    let cfg = spt_ir::Cfg::compute(func);
    let dom = spt_ir::DomTree::compute(&cfg);
    let forest = spt_ir::LoopForest::compute(func, &cfg, &dom);
    let header = forest.get(LoopId::new(0)).header;
    let latch = forest.get(LoopId::new(0)).latches[0];
    let phis: Vec<InstId> = func
        .block(header)
        .insts
        .iter()
        .copied()
        .filter(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
        .collect();
    // `x`'s latch operand is `y`'s header phi.
    let target = phis
        .iter()
        .copied()
        .find(|&p| {
            let InstKind::Phi { args } = &func.inst(p).kind else {
                return false;
            };
            args.iter().any(|(pred, v)| {
                *pred == latch && matches!(v, Operand::Inst(d) if phis.contains(d))
            })
        })
        .expect("the frontend lowers the swap to a phi-to-phi recurrence");
    let mut after = m.clone();
    let e = apply_svp(
        &mut after,
        fid,
        LoopId::new(0),
        target,
        ValuePattern::LastValue,
        0.5,
    )
    .expect_err("a header-phi carrier is declined");
    assert!(
        matches!(e, spt_transform::TransformError::Precondition(_)),
        "{e}"
    );
    assert!(after == m, "the module changed");
    assert_eq!(run_ret(&after, "f", 10), 55);
}

/// Runs `emit_spt_loop` on loop 0 of `f` in `m` with the given sets and
/// requires a precondition error that leaves the function exactly as it
/// was.
fn assert_emit_declines(m: &Module, move_insts: HashSet<InstId>, replicate_insts: HashSet<InstId>) {
    let fid = m.func_by_name("f").unwrap();
    let mut after = m.clone();
    let spec = SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts,
        replicate_insts,
        loop_tag: 1,
    };
    let e = emit_spt_loop(after.func_mut(fid), &spec).expect_err("the spec is not closed");
    assert!(matches!(e, TransformError::Precondition(_)), "{e}");
    assert!(after == *m, "the function changed");
}

/// An empty spec: the auto-replicated header test would read its compare,
/// which stays post-fork.
#[test]
fn emit_declines_an_unclosed_header_test() {
    let src = "
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                s = s + i;
                i = i + 1;
            }
            return s;
        }
    ";
    let m = spt_frontend::compile(src).unwrap();
    assert_emit_declines(&m, HashSet::new(), HashSet::new());
}

/// The header test's closure moves, but a replicated in-body branch's
/// condition does not.
#[test]
fn emit_declines_a_replicated_branch_with_a_post_fork_condition() {
    let src = "
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                if (i % 3 == 0) { s = s + 1; }
                i = i + 1;
            }
            return s;
        }
    ";
    let m = spt_frontend::compile(src).unwrap();
    let func = m.func(m.func_by_name("f").unwrap());
    let cfg = spt_ir::Cfg::compute(func);
    let dom = spt_ir::DomTree::compute(&cfg);
    let l = spt_ir::LoopForest::compute(func, &cfg, &dom)
        .get(LoopId::new(0))
        .clone();
    let cond = |term: InstId| match func.inst(term).kind {
        InstKind::Branch {
            cond: Operand::Inst(c),
            ..
        } => c,
        _ => panic!("a conditional branch"),
    };
    let header_test = cond(func.terminator(l.header).unwrap());
    let inner = l
        .blocks
        .iter()
        .filter(|&&b| b != l.header)
        .filter_map(|&b| func.terminator(b))
        .find(|&t| matches!(func.inst(t).kind, InstKind::Branch { .. }))
        .expect("the in-body branch");
    assert!(!matches!(func.inst(cond(inner)).kind, InstKind::Phi { .. }));
    assert_emit_declines(&m, HashSet::from([header_test]), HashSet::from([inner]));
    // With its condition's closure moved as well, the same spec emits and
    // verifies.
    let mut closure = HashSet::from([header_test]);
    let mut work = vec![cond(inner)];
    while let Some(i) = work.pop() {
        if matches!(func.inst(i).kind, InstKind::Phi { .. }) || !closure.insert(i) {
            continue;
        }
        func.inst(i).kind.for_each_operand(|op| {
            if let Operand::Inst(d) = op {
                work.push(d);
            }
        });
    }
    let mut ok = m.clone();
    let fid = ok.func_by_name("f").unwrap();
    let spec = SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts: closure,
        replicate_insts: HashSet::from([inner]),
        loop_tag: 1,
    };
    emit_spt_loop(ok.func_mut(fid), &spec).expect("a closed spec emits");
    spt_ir::verify::verify_module(&ok).expect("verifies");
    for n in [0, 1, 7, 30] {
        assert_eq!(run_ret(&ok, "f", n), run_ret(&m, "f", n), "n={n}");
    }
}
