//! Additional profiling integration tests: host-provided memory images,
//! multi-run accumulation, float value patterns, and profiler composition.

use spt_ir::Ty;
use spt_profile::{
    DepKind, EdgeProfile, Interp, LoopProfile, NoProfiler, ProfileCollector, Val, ValuePattern,
    ValueProfile,
};

#[test]
fn run_with_memory_seeds_inputs_from_host() {
    let src = "
        global data[8]: int;
        fn sum() -> int {
            let s = 0;
            for (let i = 0; i < 8; i = i + 1) { s = s + data[i]; }
            return s;
        }
    ";
    let module = spt_frontend::compile(src).unwrap();
    let interp = Interp::new(&module);
    let mut memory = module.initial_memory();
    for (k, cell) in memory.iter_mut().enumerate() {
        *cell = (k as u64) * 10;
    }
    let r = interp
        .run_with_memory("sum", &[], memory, &mut NoProfiler)
        .unwrap();
    assert_eq!(r.ret.unwrap().as_i64(), (0..8).map(|k| k * 10).sum::<i64>());
}

#[test]
fn edge_profile_accumulates_across_runs() {
    let src = "fn f(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
    let module = spt_frontend::compile(src).unwrap();
    let interp = Interp::new(&module);
    let mut prof = EdgeProfile::new();
    for n in [10i64, 20, 30] {
        interp.run("f", &[Val::from_i64(n)], &mut prof).unwrap();
    }
    let func = module.func_by_name("f").unwrap();
    assert_eq!(prof.entry_count(func), 3);
    // Header executed (10+1)+(20+1)+(30+1) = 63 times.
    let f = module.func(func);
    let cfg = spt_ir::Cfg::compute(f);
    let header = cfg
        .rpo
        .iter()
        .copied()
        .max_by_key(|&bb| prof.block_count(func, bb))
        .unwrap();
    assert_eq!(prof.block_count(func, header), 63);
}

#[test]
fn float_values_classify_constant_and_lastvalue() {
    // Feed a float def via a real loop: constant first.
    let src = "
        fn f(n: int) -> float {
            let x = 0.0;
            let i = 0;
            while (i < n) {
                x = x + 1.5;
                i = i + 1;
            }
            return x;
        }
    ";
    let module = spt_frontend::compile(src).unwrap();
    let func = module.func_by_name("f").unwrap();
    let f = module.func(func);
    // Target every float-typed binary: the x update.
    let targets: Vec<(spt_ir::FuncId, spt_ir::InstId, Ty)> = f
        .block_ids()
        .flat_map(|bb| f.block(bb).insts.clone())
        .filter(|&i| {
            f.inst(i).ty == Some(Ty::F64)
                && matches!(f.inst(i).kind, spt_ir::InstKind::Binary { .. })
        })
        .map(|i| (func, i, Ty::F64))
        .collect();
    assert!(!targets.is_empty());
    let mut vp = ValueProfile::new(targets.clone());
    Interp::new(&module)
        .run("f", &[Val::from_i64(100)], &mut vp)
        .unwrap();
    // Float strides are not detected (integer-only), so the additive float
    // chain must be unpredictable — not misclassified as constant.
    for &(fid, inst, _) in &targets {
        let (pat, _) = vp.pattern(fid, inst);
        assert!(
            matches!(pat, ValuePattern::Unpredictable),
            "float arithmetic sequence misclassified as {pat:?}"
        );
    }
}

#[test]
fn loop_profile_coverage_sums_sensibly() {
    let src = "
        fn work(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + i * i; }
            return s;
        }
        fn main(n: int) -> int {
            let t = 0;
            for (let r = 0; r < 4; r = r + 1) { t = t + work(n) % 1000; }
            return t;
        }
    ";
    let module = spt_frontend::compile(src).unwrap();
    let mut prof = LoopProfile::new();
    Interp::new(&module)
        .run("main", &[Val::from_i64(50)], &mut prof)
        .unwrap();
    let main_id = module.func_by_name("main").unwrap();
    let work_id = module.func_by_name("work").unwrap();
    // main's loop subsumes work's loop: its coverage must be >= work's.
    let cover = |fid| {
        let f = module.func(fid);
        let cfg = spt_ir::Cfg::compute(f);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
        forest
            .ids()
            .map(|l| prof.coverage(fid, l))
            .fold(0.0f64, f64::max)
    };
    let main_cov = cover(main_id);
    let work_cov = cover(work_id);
    assert!(main_cov >= work_cov, "{main_cov} vs {work_cov}");
    assert!(main_cov > 0.9, "outer loop dominates the run: {main_cov}");
    // work invoked 4 times, 50 iters each.
    let f = module.func(work_id);
    let cfg = spt_ir::Cfg::compute(f);
    let dom = spt_ir::DomTree::compute(&cfg);
    let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
    let stats = prof.stats(work_id, forest.ids().next().unwrap());
    assert_eq!(stats.invocations, 4);
    assert_eq!(stats.total_iters, 200);
}

#[test]
fn collector_dep_and_edge_profiles_agree_on_counts() {
    let src = "
        global cell: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                cell = i;
                s = s + cell;
            }
            return s;
        }
    ";
    let module = spt_frontend::compile(src).unwrap();
    let mut collector = ProfileCollector::new();
    Interp::new(&module)
        .run("f", &[Val::from_i64(25)], &mut collector)
        .unwrap();
    let func = module.func_by_name("f").unwrap();
    let f = module.func(func);
    let store = f
        .block_ids()
        .flat_map(|bb| f.block(bb).insts.clone())
        .find(|&i| matches!(f.inst(i).kind, spt_ir::InstKind::Store { .. }))
        .unwrap();
    assert_eq!(collector.deps.store_count(func, store), 25);
    // The same-iteration read is intra with probability 1.
    let pairs = collector
        .deps
        .pairs_for_loop(func, spt_ir::loops::LoopId::new(0));
    let (intra, cross, _far) = pairs.values().fold((0, 0, 0), |acc, &(a, b, c)| {
        (acc.0 + a, acc.1 + b, acc.2 + c)
    });
    assert_eq!(intra, 25);
    assert_eq!(cross, 0);
    let _ = DepKind::Intra; // type is part of the public API
}

#[test]
fn interp_result_cycles_track_latency_model() {
    let src = "fn f() -> int { return 2 * 3 + 4 / 2; }";
    let module = spt_frontend::compile(src).unwrap();
    let r = Interp::new(&module).run("f", &[], &mut NoProfiler).unwrap();
    // Constant folding collapses everything to `ret 8`.
    assert_eq!(r.ret.unwrap().as_i64(), 8);
    assert!(r.insts_retired <= 2);
}
