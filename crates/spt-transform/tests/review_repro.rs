//! Temporary review repros (not part of the suite).

use spt_ir::loops::LoopId;
use spt_ir::{BinOp, Cfg, DomTree, InstId, InstKind, LoopForest};
use spt_profile::{Interp, NoProfiler, Val};
use spt_transform::{emit_spt_loop, SptLoopSpec};
use std::collections::HashSet;

// Repro 1: moved def inside a replicated branch arm, used post-fork by a
// NON-moved store. The cross-region repair places the merge phi at the fork
// block; the fork pred is the join/latch clone, which the arm clone does not
// dominate, so the phi arg is the placeholder 0 and the store writes 0.
#[test]
fn fork_phi_placeholder_reaches_live_use() {
    let src = "
        global a[256]: int;
        fn f(n: int) -> int {
            let i = 0;
            while (i < n) {
                if (i % 2 == 0) {
                    let t = i * 3;
                    a[i] = t;
                }
                i = i + 1;
            }
            return a[2];
        }
    ";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let func = m.func(fid);
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    let l = forest.get(LoopId::new(0)).clone();
    let header = l.header;

    let mut move_insts: HashSet<InstId> = HashSet::new();
    let mut replicate_insts: HashSet<InstId> = HashSet::new();
    let mut mul_inst = None;
    for &bb in &l.blocks {
        for &i in &func.block(bb).insts {
            match &func.inst(i).kind {
                InstKind::Binary { op: BinOp::Mul, .. } => {
                    // t = i * 3 (moved). Also the i%2 mul/div chain matches;
                    // move them all, they're pure scalar ops.
                    move_insts.insert(i);
                    mul_inst = Some(i);
                }
                InstKind::Binary { .. } | InstKind::Cmp { .. } => {
                    move_insts.insert(i);
                }
                InstKind::Branch { .. } if bb != header => {
                    replicate_insts.insert(i);
                }
                _ => {}
            }
        }
    }
    assert!(mul_inst.is_some());
    // NOTE: the store a[i] = t is deliberately NOT moved.

    let spec = SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts,
        replicate_insts,
        loop_tag: 1,
    };
    emit_spt_loop(m.func_mut(fid), &spec).expect("emit");
    spt_ir::verify::verify_module(&m).expect("verifies");

    let r = Interp::new(&m)
        .run("f", &[Val::from_i64(10)], &mut NoProfiler)
        .unwrap();
    assert_eq!(r.ret.unwrap().as_i64(), 6, "a[2] must be 2*3");
}

// Repro 3: emit_spt_loop auto-replicates the header terminator even when the
// caller's sets don't include the closure of its condition; the cloned
// branch then references the original (post-fork) compare.
#[test]
fn header_test_closure_not_enforced() {
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
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let spec = SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts: HashSet::new(),
        replicate_insts: HashSet::new(),
        loop_tag: 1,
    };
    emit_spt_loop(m.func_mut(fid), &spec).expect("emit");
    let v = spt_ir::verify::verify_module(&m);
    eprintln!("verify result: {v:?}");
    v.expect("verifies");
}
