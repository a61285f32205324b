//! Differential oracle for the execution engines.
//!
//! The profiling interpreter (`spt::profile::Interp`) and the simulator
//! (`spt::sim::SptSimulator`) execute superblock code, lowered straight from
//! the IR, through one shared op evaluator and one set of phi rows; the
//! original match-per-step engines are retained verbatim as
//! `ReferenceInterp`/`ReferenceSimulator`. Every observable output must be
//! **bit-identical** between each engine and its reference: interpreter
//! results, the full profiler event stream, the edge, loop and value
//! profiles, and every `SimResult` field (floats compared via
//! `f64::to_bits`); the engine's dependence and loop profiles must equal
//! `ReferenceDepProfile` and `ReferenceLoopProfile`, the profiles'
//! definitions, run on the reference interpreter. Every `spt-bench-suite` program goes through both (its
//! transformed modules too, for the dependence profile), a proptest differential
//! replays randomly generated programs through the same pin, and targeted
//! cases cover the shapes a resumable executor could get wrong: calls
//! inside speculated loops, validation stopping after any instruction, fuel
//! running out on every instruction, phi-heavy merges, unencodable
//! constants, malformed phis and a fork whose speculative thread enters
//! phis along no edge. The engines' superblock code itself is pinned
//! against the IR: one op per instruction, in block order.

use spt::ir::{
    BinOp, BlockId, CmpOp, FuncBuilder, FuncId, Function, InstId, InstKind, Module, Operand,
    RegionId, SOpc, SuperblockModule, Ty,
};
use spt::pipeline::{compile_and_transform, CompilerConfig, ProfilingInput};
use spt::profile::{
    DepProfile, Interp, InterpError, InterpResult, LoopActivation, LoopEvent, NoProfiler,
    ProfileCollector, Profiler, ReferenceDepProfile, ReferenceInterp, ReferenceLoopProfile, Val,
};
use spt::sim::{MachineConfig, ReferenceSimulator, SimError, SimResult, SptSimulator};

/// Value-profiling targets: every I64-producing instruction, so the value
/// profile is exercised on real data rather than an empty target set.
fn value_targets(module: &Module) -> Vec<(FuncId, InstId, Ty)> {
    let mut targets = Vec::new();
    for func_id in module.func_ids() {
        let func = module.func(func_id);
        for (i, inst) in func.insts.iter().enumerate() {
            if inst.ty == Some(Ty::I64) {
                targets.push((func_id, InstId::new(i), Ty::I64));
            }
        }
    }
    targets
}

fn assert_interp_eq(name: &str, engine: &InterpResult, reference: &InterpResult) {
    assert_eq!(engine.ret, reference.ret, "{name}: return value");
    assert_eq!(
        engine.insts_retired, reference.insts_retired,
        "{name}: insts_retired"
    );
    assert_eq!(
        engine.weighted_cycles, reference.weighted_cycles,
        "{name}: weighted_cycles"
    );
    assert_eq!(engine.memory, reference.memory, "{name}: memory image");
}

/// What the reference interpreter's run feeds: the engine's collectors,
/// and the dependence and loop profiles' definitions.
type ReferenceProfiles = (
    ProfileCollector,
    (ReferenceDepProfile, ReferenceLoopProfile),
);

fn reference_profiles(targets: &[(FuncId, InstId, Ty)]) -> ReferenceProfiles {
    (
        ProfileCollector::with_value_targets(targets.iter().copied()),
        (ReferenceDepProfile::new(), ReferenceLoopProfile::new()),
    )
}

fn assert_profiles_eq(
    name: &str,
    module: &Module,
    targets: &[(FuncId, InstId, Ty)],
    engine: &ProfileCollector,
    (reference, (reference_deps, reference_loops)): &ReferenceProfiles,
) {
    // Edge profile: entry counts, block counts, and every CFG edge.
    for func_id in module.func_ids() {
        let func = module.func(func_id);
        assert_eq!(
            engine.edges.entry_count(func_id),
            reference.edges.entry_count(func_id),
            "{name}/{}: entry count",
            func.name
        );
        for bb in func.block_ids() {
            assert_eq!(
                engine.edges.block_count(func_id, bb),
                reference.edges.block_count(func_id, bb),
                "{name}/{}: block count {bb}",
                func.name
            );
            for succ in func.successors(bb) {
                assert_eq!(
                    engine.edges.edge_count(func_id, bb, succ),
                    reference.edges.edge_count(func_id, bb, succ),
                    "{name}/{}: edge count {bb}->{succ}",
                    func.name
                );
                assert_eq!(
                    engine.edges.edge_prob(func_id, bb, succ).map(f64::to_bits),
                    reference
                        .edges
                        .edge_prob(func_id, bb, succ)
                        .map(f64::to_bits),
                    "{name}/{}: edge prob {bb}->{succ}",
                    func.name
                );
            }
        }
    }

    // Dependence profile, against the reference profiler's definition:
    // the full dep-count table, the interprocedural tally, and
    // per-instruction store/load execution counts.
    if let Some(diff) = reference_deps.first_difference(module, &engine.deps) {
        panic!("{name}: {diff}");
    }

    // Loop profile, against the reference profiler's definition (per-loop
    // stats and the run totals), then field-exact against the reference
    // interpreter's run of the same collector.
    if let Some(diff) = reference_loops.first_difference(&engine.loops) {
        panic!("{name}: loop profile: {diff}");
    }
    assert_eq!(
        engine.loops.iter(),
        reference.loops.iter(),
        "{name}: loop stats"
    );
    assert_eq!(
        engine.loops.total_insts, reference.loops.total_insts,
        "{name}: total insts"
    );
    assert_eq!(
        engine.loops.total_cycles, reference.loops.total_cycles,
        "{name}: total cycles"
    );

    // Value profile: every target's sample count, pattern, and confidence.
    for &(func_id, inst, _) in targets {
        assert_eq!(
            engine.values.samples(func_id, inst),
            reference.values.samples(func_id, inst),
            "{name}: value samples for {inst}"
        );
        let (ep, er) = engine.values.pattern(func_id, inst);
        let (rp, rr) = reference.values.pattern(func_id, inst);
        assert_eq!(ep, rp, "{name}: value pattern for {inst}");
        assert_eq!(
            er.to_bits(),
            rr.to_bits(),
            "{name}: value-pattern ratio for {inst}"
        );
    }
}

fn assert_sim_eq(name: &str, engine: &SimResult, reference: &SimResult) {
    assert_eq!(engine.ret, reference.ret, "{name}: return bits");
    assert_eq!(engine.cycles, reference.cycles, "{name}: cycles");
    assert_eq!(engine.insts, reference.insts, "{name}: insts");
    assert_eq!(engine.memory, reference.memory, "{name}: memory image");
    assert_eq!(engine.loops, reference.loops, "{name}: per-loop sim stats");
    assert_eq!(
        engine.cache_hit_rate.to_bits(),
        reference.cache_hit_rate.to_bits(),
        "{name}: cache hit rate"
    );
    assert_eq!(
        engine.branch_miss_rate.to_bits(),
        reference.branch_miss_rate.to_bits(),
        "{name}: branch miss rate"
    );
}

/// A profiler that folds every event, with all its arguments and the depth
/// and innermost activation of the loop stack, into a running fingerprint:
/// two runs with equal logs delivered the same event stream.
#[derive(Debug, Default, PartialEq)]
struct EventLog {
    events: u64,
    hash: u64,
}

impl EventLog {
    fn mix(&mut self, words: &[u64]) {
        self.events += 1;
        for &w in words {
            self.hash = (self.hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stack(loops: &[LoopActivation]) -> [u64; 4] {
        let top = loops.last();
        [
            loops.len() as u64,
            top.map_or(u64::MAX, |a| a.loop_id.index() as u64),
            top.map_or(u64::MAX, |a| a.activation),
            top.map_or(u64::MAX, |a| a.iter),
        ]
    }
}

impl Profiler for EventLog {
    fn on_block(&mut self, func: FuncId, from: Option<BlockId>, to: BlockId) {
        let from = from.map_or(u64::MAX, |b| u64::from(b.0));
        self.mix(&[1, u64::from(func.0), from, u64::from(to.0)]);
    }
    fn on_inst(&mut self, func: FuncId, inst: InstId, latency: u64, loops: &[LoopActivation]) {
        self.mix(&[2, u64::from(func.0), u64::from(inst.0), latency]);
        self.mix(&Self::stack(loops));
    }
    fn on_load(&mut self, func: FuncId, inst: InstId, addr: i64, v: Val, loops: &[LoopActivation]) {
        self.mix(&[3, u64::from(func.0), u64::from(inst.0), addr as u64, v.0]);
        self.mix(&Self::stack(loops));
    }
    fn on_store(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        v: Val,
        loops: &[LoopActivation],
    ) {
        self.mix(&[4, u64::from(func.0), u64::from(inst.0), addr as u64, v.0]);
        self.mix(&Self::stack(loops));
    }
    fn on_def(&mut self, func: FuncId, inst: InstId, v: Val, loops: &[LoopActivation]) {
        self.mix(&[5, u64::from(func.0), u64::from(inst.0), v.0]);
        self.mix(&Self::stack(loops));
    }
    fn on_loop(&mut self, func: FuncId, event: LoopEvent, loops: &[LoopActivation]) {
        let (kind, l) = match event {
            LoopEvent::Enter(l) => (0, l),
            LoopEvent::Iterate(l) => (1, l),
            LoopEvent::Exit(l) => (2, l),
        };
        self.mix(&[6, u64::from(func.0), kind, l.index() as u64]);
        self.mix(&Self::stack(loops));
    }
    fn on_call_enter(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {
        self.mix(&[
            7,
            u64::from(caller.0),
            u64::from(inst.0),
            u64::from(callee.0),
        ]);
    }
    fn on_call_exit(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {
        self.mix(&[
            8,
            u64::from(caller.0),
            u64::from(inst.0),
            u64::from(callee.0),
        ]);
    }
}

/// Runs `entry(args)` on the interpreter and its reference with `fuel`,
/// unprofiled and under an [`EventLog`], and pins outcome and event stream
/// (including the events delivered before an error).
fn assert_interp_matches(name: &str, module: &Module, entry: &str, args: &[Val], fuel: u64) {
    let mut engine = Interp::new(module);
    engine.fuel = fuel;
    let mut reference = ReferenceInterp::new(module);
    reference.fuel = fuel;
    let (mut el, mut rl) = (EventLog::default(), EventLog::default());
    let e = engine.run(entry, args, &mut el);
    let r = reference.run(entry, args, &mut rl);
    assert_eq!(e, r, "{name}: observed outcome");
    assert_eq!(el, rl, "{name}: event stream");
    let quiet = engine.run(entry, args, &mut NoProfiler);
    assert_eq!(quiet, r, "{name}: unobserved outcome");
}

/// Runs `entry(args)` on the simulator and its reference under `config`
/// and pins the outcome.
fn assert_sim_matches(
    name: &str,
    module: &Module,
    entry: &str,
    args: &[i64],
    config: &MachineConfig,
) {
    let e = SptSimulator::with_config(config.clone()).run(module, entry, args);
    let r = ReferenceSimulator::with_config(config.clone()).run(module, entry, args);
    match (&e, &r) {
        (Ok(e), Ok(r)) => assert_sim_eq(name, e, r),
        _ => assert_eq!(e.as_ref().err(), r.as_ref().err(), "{name}: outcome"),
    }
}

/// Hand-transforms loop 0 of `fname` with an empty partition: only the
/// forced header-test closure moves pre-fork, so every carried value stays
/// speculative and each episode forks, validates, re-executes part of its
/// trace and commits.
fn force_transform(src: &str, fname: &str) -> Module {
    use spt::cost::dep_graph::{DepGraph, DepGraphConfig, NodeClass, Profiles};
    use spt::ir::loops::LoopId;
    use spt::transform::{emit_spt_loop, SptLoopSpec};
    let mut module = spt::frontend::compile(src).expect("compiles");
    let fid = module.func_by_name(fname).expect("function");
    let graph = DepGraph::build(
        &module,
        fid,
        LoopId::new(0),
        Profiles::default(),
        &DepGraphConfig::default(),
    );
    let func = module.func(fid);
    let header = {
        let cfg = spt::ir::Cfg::compute(func);
        let dom = spt::ir::DomTree::compute(&cfg);
        spt::ir::LoopForest::compute(func, &cfg, &dom)
            .get(LoopId::new(0))
            .header
    };
    let term = func.terminator(header).expect("header terminator");
    let mut move_insts = std::collections::HashSet::new();
    let mut replicate_insts = std::collections::HashSet::new();
    if let Some(&tnode) = graph.index.get(&term) {
        for n in graph.closure(&[tnode]) {
            if graph.class[n] == NodeClass::Branch {
                replicate_insts.insert(graph.nodes[n]);
            } else {
                move_insts.insert(graph.nodes[n]);
            }
        }
    }
    let spec = SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts,
        replicate_insts,
        loop_tag: 9,
    };
    emit_spt_loop(module.func_mut(fid), &spec).expect("emit");
    spt::ir::passes::cleanup(module.func_mut(fid));
    spt::ir::verify::verify_module(&module).expect("verifies");
    module
}

/// `(call, load, store)`: whether the loop that `func`'s `SPT_FORK`
/// speculates contains each kind of instruction, so the cases below stop
/// validation and fuel around all three.
fn speculated_loop_kinds(module: &Module, func: FuncId) -> (bool, bool, bool) {
    let f = module.func(func);
    let cfg = spt::ir::Cfg::compute(f);
    let dom = spt::ir::DomTree::compute(&cfg);
    let forest = spt::ir::LoopForest::compute(f, &cfg, &dom);
    let target = f
        .insts
        .iter()
        .find_map(|i| match i.kind {
            InstKind::SptFork { spawn_target, .. } => Some(spawn_target),
            _ => None,
        })
        .expect("an SPT_FORK");
    let l = forest
        .ids()
        .map(|l| forest.get(l))
        .find(|l| l.header == target)
        .expect("the speculated loop");
    let kinds: Vec<&InstKind> = l
        .blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter().map(|&i| &f.inst(i).kind))
        .collect();
    let has = |p: fn(&InstKind) -> bool| kinds.iter().any(|k| p(k));
    (
        has(|k| matches!(k, InstKind::Call { .. })),
        has(|k| matches!(k, InstKind::Load { .. })),
        has(|k| matches!(k, InstKind::Store { .. })),
    )
}

/// The number of leading phis of `block` in `func`.
fn leading_phis(func: &Function, block: BlockId) -> usize {
    func.block(block)
        .insts
        .iter()
        .take_while(|&&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
        .count()
}

/// The superblock lowering invariant, checked against the IR: every body
/// instruction is exactly one op, ops follow block order (so every
/// instruction is an op start), a block ends in a fall-off sentinel exactly
/// when its body does not end in a terminator, the block's leading phis are
/// the ones its phi rows write, and the per-block retire accounting covers
/// the block's instructions (frontend code has no stray phis and no
/// mid-body terminators).
fn assert_one_op_per_instruction(name: &str, module: &Module) {
    let sup = SuperblockModule::build(module);
    for (func, sf) in module.funcs.iter().zip(&sup.funcs) {
        assert_eq!(sf.meta.len(), sf.ops.len(), "{name}/{}", func.name);
        let mut next = 0;
        for (bi, sb) in sf.blocks.iter().enumerate() {
            let at = format!("{name}/{} block {bi}", func.name);
            let insts = &func.block(BlockId(bi as u32)).insts;
            let (phis, body) = insts.split_at(leading_phis(func, BlockId(bi as u32)));
            assert_eq!(&sb.phis[..], phis, "{at}: leading phis");
            let (start, end) = (sb.range.0 as usize, sb.range.1 as usize);
            assert_eq!(start, next, "{at}: blocks lower in order");
            let terminated = body
                .last()
                .is_some_and(|&i| func.inst(i).kind.is_terminator());
            let ops = body.len() + usize::from(!terminated);
            assert_eq!(end - start, ops, "{at}: one op per instruction");
            assert_eq!(sf.ops[end - 1].opc == SOpc::FallOff, !terminated, "{at}");
            next = end;
            for (k, &inst) in body.iter().enumerate() {
                let idx = sf.op_at(BlockId(bi as u32), k as u32);
                assert_eq!(idx, start + k, "{at}: position {k} starts an op");
                assert_eq!(sf.meta[idx].inst, inst, "{at}: op {k}'s instruction");
                let lat = func.inst(inst).latency();
                assert_eq!(u64::from(sf.meta[idx].lat), lat, "{at}: op {k}'s latency");
            }
            assert_eq!(sb.retires, (phis.len() + body.len()) as u64, "{at}");
            let cycles: u64 = body.iter().map(|&i| func.inst(i).latency()).sum();
            assert_eq!(sb.cycles, cycles, "{at}: cycles");
            let calls = sf.ops[start..end].iter().any(|s| s.opc == SOpc::Call);
            assert_eq!(sb.has_call, calls, "{at}: has_call");
        }
        assert_eq!(
            next,
            sf.ops.len(),
            "{name}/{}: every op is in a block",
            func.name
        );
    }
}

#[test]
fn superblock_lowering_is_one_op_per_instruction() {
    for b in spt::bench_suite::suite() {
        let module = spt::frontend::compile(b.source).expect("compiles");
        assert_one_op_per_instruction(b.name, &module);
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let compiled = compile_and_transform(b.source, &input, &CompilerConfig::best())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_one_op_per_instruction(&format!("{}/spt", b.name), &compiled.module);
    }
    assert_one_op_per_instruction("call-in-loop", &force_transform(CALL_IN_LOOP, "f"));
}

#[test]
fn interpreter_and_profiles_match_reference() {
    for b in spt::bench_suite::suite() {
        let module = spt::frontend::compile(b.source).expect("compiles");
        let targets = value_targets(&module);
        let args = [Val::from_i64(b.train_arg)];

        // The tree-walking engine, run directly, is the oracle, and the
        // reference dependence and loop profilers ride along.
        let mut ref_prof = reference_profiles(&targets);
        let ref_r = ReferenceInterp::new(&module)
            .run(b.entry, &args, &mut ref_prof)
            .expect("reference interp runs");

        let interp = Interp::new(&module);
        let mut prof = ProfileCollector::with_value_targets(targets.iter().copied());
        let r = interp.run(b.entry, &args, &mut prof).expect("interp runs");
        assert_interp_eq(b.name, &r, &ref_r);
        assert_profiles_eq(b.name, &module, &targets, &prof, &ref_prof);

        // The raw event stream, not just its summaries.
        let (mut el, mut rl) = (EventLog::default(), EventLog::default());
        interp.run(b.entry, &args, &mut el).expect("interp runs");
        ReferenceInterp::new(&module)
            .run(b.entry, &args, &mut rl)
            .expect("reference interp runs");
        assert_eq!(el, rl, "{}: event stream", b.name);

        // The non-observing fast path batches accounting per block; its
        // results must still be bit-identical.
        let nr = interp
            .run(b.entry, &args, &mut NoProfiler)
            .expect("interp runs unprofiled");
        assert_interp_eq(&format!("{}/noprofile", b.name), &nr, &ref_r);
    }
}

/// The profiling run the pipeline makes, on every module it profiles or
/// emits: each suite program's baseline and its transformed module under
/// all three configurations, at the train and the ref argument, profiled
/// with a pre-sized `DepProfile` on the engine and with the reference
/// dependence profiler on the reference interpreter.
#[test]
fn dep_profile_matches_reference_on_compiled_suite() {
    let configs = [
        CompilerConfig::basic(),
        CompilerConfig::anticipated(),
        CompilerConfig::best(),
    ];
    for b in spt::bench_suite::suite() {
        let mut modules = vec![(
            "baseline",
            spt::frontend::compile(b.source).expect("compiles"),
        )];
        for config in &configs {
            let input = ProfilingInput::new(b.entry, [b.train_arg]);
            let compiled = compile_and_transform(b.source, &input, config)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            modules.push((config.name, compiled.module));
        }
        for (label, module) in &modules {
            for arg in [b.train_arg, b.ref_arg] {
                let args = [Val::from_i64(arg)];
                let mut engine = DepProfile::with_cells(module.memory_layout().1);
                Interp::new(module)
                    .run(b.entry, &args, &mut engine)
                    .expect("interp runs");
                let mut reference = ReferenceDepProfile::new();
                ReferenceInterp::new(module)
                    .run(b.entry, &args, &mut reference)
                    .expect("reference interp runs");
                if let Some(diff) = reference.first_difference(module, &engine) {
                    panic!("{}/{label} at {arg}: {diff}", b.name);
                }
            }
        }
    }
}

#[test]
fn simulator_matches_reference() {
    let sim = SptSimulator::new();
    let reference = ReferenceSimulator::new();
    let mut spt_loops_seen = 0usize;
    for b in spt::bench_suite::suite() {
        // Baseline (non-speculative) module.
        let module = spt::frontend::compile(b.source).expect("compiles");
        let base_r = reference
            .run(&module, b.entry, &[b.train_arg])
            .expect("reference sim runs");
        let base_e = sim
            .run(&module, b.entry, &[b.train_arg])
            .expect("sim runs baseline");
        assert_sim_eq(b.name, &base_e, &base_r);

        // Transformed module: exercises fork/validate/commit, the spec
        // buffer, and per-loop stats.
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let compiled = compile_and_transform(b.source, &input, &CompilerConfig::best())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let spt_r = reference
            .run(&compiled.module, b.entry, &[b.train_arg])
            .expect("reference sim runs spt");
        let spt_e = sim
            .run(&compiled.module, b.entry, &[b.train_arg])
            .expect("sim runs spt");
        assert_sim_eq(&format!("{}/spt", b.name), &spt_e, &spt_r);
        spt_loops_seen += spt_e.loops.len();
    }
    assert!(
        spt_loops_seen > 0,
        "suite produced no SPT loops: speculative paths untested"
    );
}

#[test]
fn simulator_matches_reference_with_preset_memory() {
    // run_with_memory drives the overlay/spec-buffer path from a non-zero
    // image; equivalence must hold there too.
    let b = spt::bench_suite::benchmark("gcc_s").expect("exists");
    let module = spt::frontend::compile(b.source).expect("compiles");
    let (_, n) = module.memory_layout();
    let image: Vec<u64> = (0..n.max(64) as u64)
        .map(|i| i.wrapping_mul(0x9E37))
        .collect();
    let reference = ReferenceSimulator::new()
        .run_with_memory(&module, b.entry, &[b.train_arg / 2], image.clone())
        .expect("reference");
    let engine = SptSimulator::new()
        .run_with_memory(&module, b.entry, &[b.train_arg / 2], image)
        .expect("engine");
    assert_sim_eq("gcc_s+memory", &engine, &reference);
}

/// A speculated loop whose body calls a function with its own branches and
/// a loop: each episode's speculative thread and its validation replay
/// cross a call and a return.
const CALL_IN_LOOP: &str = "
    global a[256]: int;
    fn step(x: int, i: int) -> int {
        let t = 0;
        for (let k = 0; k < x % 4; k = k + 1) { t = t + a[(x + k) % 256] % 5; }
        if (x % 3 == 0) { return t + x / 3 + i; }
        return t + x * 2 + 1;
    }
    fn f(n: int) -> int {
        let i = 0;
        let s = 0;
        while (i < n) {
            let x = (i * 13 + 5) % 256;
            s = s + step(a[x] + s % 7, i) % 11;
            a[(x + 1) % 256] = s % 251;
            i = i + 1;
        }
        return s;
    }
";

#[test]
fn speculated_loop_with_a_call_matches_reference() {
    let module = force_transform(CALL_IN_LOOP, "f");
    let engine = SptSimulator::new()
        .run(&module, "f", &[300])
        .expect("engine");
    let reference = ReferenceSimulator::new()
        .run(&module, "f", &[300])
        .expect("reference");
    assert_sim_eq("call-in-loop", &engine, &reference);
    let stats = &engine.loops[&9];
    assert!(stats.forks > 0 && stats.commits > 0, "{stats:?}");
    assert!(stats.free_insts > 0, "{stats:?}");
    assert_interp_matches(
        "call-in-loop",
        &module,
        "f",
        &[Val::from_i64(300)],
        u64::MAX,
    );
}

/// Capping the speculative trace at every length from one record up cuts
/// each episode's trace — and so its validation replay — at every
/// instruction boundary of the first iterations: around every load, store
/// and call, inside the callee, and among the header phis. The main thread
/// then resumes exactly there.
#[test]
fn validation_stopping_anywhere_matches_reference() {
    for (name, src, entry, has_call) in [
        ("call-in-loop", CALL_IN_LOOP, "f", true),
        (
            "straight-loop",
            "
            global a[128]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    let x = (i * 13 + 5) % 128;
                    if (s % 3 == 0) { s = s + a[x] % 7 + x; } else { s = s + 1; }
                    a[(x + 1) % 128] = s % 251;
                    i = i + 1;
                }
                return s;
            }
            ",
            "f",
            false,
        ),
    ] {
        let module = force_transform(src, entry);
        let fid = module.func_by_name(entry).expect("entry");
        assert_eq!(
            speculated_loop_kinds(&module, fid),
            (has_call, true, true),
            "{name}: the speculated loop's calls, loads and stores"
        );
        for cap in 1..=48 {
            let config = MachineConfig {
                max_spec_ops: cap,
                ..MachineConfig::default()
            };
            assert_sim_matches(&format!("{name}/cap{cap}"), &module, entry, &[120], &config);
        }
    }
}

/// Sweeping the fuel budget one instruction at a time lands the abort on
/// every instruction (loads, stores, calls, phis and region-base
/// constants among them), in both engines, baseline and speculated — at the
/// start of the run and over its last instructions, where an abort point
/// off by one instruction turns into a run that completes.
#[test]
fn fuel_exhaustion_on_every_instruction_matches_reference() {
    let src = "
        global a[64]: int;
        fn g(x: int) -> int { return a[x % 64] * 3 + x; }
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                let x = (i * 7 + 3) % 64;
                a[x] = a[(x + 1) % 64] + i;
                if (a[x] % 3 < 2) { s = s + g(x); } else { s = s - 1; }
            }
            a[s % 64] = s * 5;
            return s * 3 + a[(s + 7) % 64] % 11;
        }
    ";
    let module = spt::frontend::compile(src).expect("compiles");
    let speculated = force_transform(src, "f");
    let fid = speculated.func_by_name("f").expect("f");
    assert_eq!(speculated_loop_kinds(&speculated, fid), (true, true, true));
    let near_end = |total: u64| (0..160).chain(total.saturating_sub(80)..=total + 1);
    let args = [Val::from_i64(40)];
    let total = ReferenceInterp::new(&module)
        .run("f", &args, &mut NoProfiler)
        .expect("reference runs")
        .insts_retired;
    for fuel in near_end(total) {
        assert_interp_matches(&format!("interp/fuel{fuel}"), &module, "f", &args, fuel);
    }
    for m in [&module, &speculated] {
        let total = ReferenceSimulator::new()
            .run(m, "f", &[40])
            .expect("reference runs")
            .insts;
        for fuel in near_end(total) {
            let config = MachineConfig {
                fuel,
                ..MachineConfig::default()
            };
            assert_sim_matches(&format!("sim/fuel{fuel}"), m, "f", &[40], &config);
        }
    }
}

#[test]
fn phi_heavy_merges_match_reference() {
    // Eighteen loop-carried values: the loop header carries 19 leading
    // phis (with the induction variable).
    let mut src = String::from("fn f(n: int) -> int {\n");
    for k in 0..18 {
        src.push_str(&format!("  let v{k} = {};\n", k + 1));
    }
    src.push_str("  for (let i = 0; i < n; i = i + 1) {\n");
    for k in 0..18 {
        src.push_str(&format!(
            "    v{k} = v{} + i * {} % 17;\n",
            (k + 1) % 18,
            k + 2
        ));
    }
    src.push_str("  }\n  return v0");
    for k in 1..18 {
        src.push_str(&format!(" + v{k}"));
    }
    src.push_str(";\n}\n");
    let module = spt::frontend::compile(&src).expect("compiles");
    let func = &module.funcs[0];
    let max_phis = func
        .block_ids()
        .map(|b| leading_phis(func, b))
        .max()
        .unwrap_or(0);
    assert!(max_phis >= 17, "only {max_phis} leading phis");
    assert_interp_matches("phis", &module, "f", &[Val::from_i64(50)], u64::MAX);
    assert_sim_matches("phis", &module, "f", &[50], &MachineConfig::default());

    // Fuel running out on every instruction of a short run, baseline and
    // speculated: among them every fuel value at which the header, entered
    // with its 19 phis inside a batched walk, stops fitting the budget.
    let speculated = force_transform(&src, "f");
    for (label, m) in [("baseline", &module), ("speculated", &speculated)] {
        let args = [Val::from_i64(5)];
        let total = ReferenceInterp::new(m)
            .run("f", &args, &mut NoProfiler)
            .expect("reference runs")
            .insts_retired;
        for fuel in 0..=total + 1 {
            let name = format!("phis/{label}/interp/fuel{fuel}");
            assert_interp_matches(&name, m, "f", &args, fuel);
        }
        let total = ReferenceSimulator::new()
            .run(m, "f", &[5])
            .expect("reference runs")
            .insts;
        for fuel in 0..=total + 1 {
            let config = MachineConfig {
                fuel,
                ..MachineConfig::default()
            };
            let name = format!("phis/{label}/sim/fuel{fuel}");
            assert_sim_matches(&name, m, "f", &[5], &config);
        }
    }
    let r = SptSimulator::new()
        .run(&speculated, "f", &[5])
        .expect("runs");
    let stats = &r.loops[&9];
    assert!(stats.forks > 0 && stats.commits > 0, "{stats:?}");
}

#[test]
fn out_of_range_constant_store_matches_reference() {
    for addr in [-7i64, 1 << 40, i64::MIN] {
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        b.store(
            Operand::const_i64(addr),
            Operand::const_i64(42),
            RegionId::UNKNOWN,
        );
        b.ret(Some(Operand::const_i64(1)));
        let mut module = Module::new();
        module.add_func(b.finish());
        let name = format!("store@{addr}");
        let e = Interp::new(&module).run("f", &[], &mut NoProfiler);
        assert_eq!(e, Err(InterpError::OutOfBounds { addr }), "{name}");
        assert_interp_matches(&name, &module, "f", &[], u64::MAX);
        let s = SptSimulator::new().run(&module, "f", &[]);
        assert!(matches!(s, Err(SimError::Exec(_))), "{name}: {s:?}");
        assert_sim_matches(&name, &module, "f", &[], &MachineConfig::default());
    }
}

#[test]
fn phi_row_missing_a_source_matches_reference() {
    // entry: n > 0 ? a : b; both jump to merge, whose phi names only `a`.
    let mut b = FuncBuilder::new("f", vec![("n".into(), Ty::I64)], Some(Ty::I64));
    let n = b.param(0);
    let entry = b.entry();
    let (left, right, merge) = (b.add_block(), b.add_block(), b.add_block());
    b.switch_to(entry);
    let c = b.cmp(CmpOp::Gt, Ty::I64, n, Operand::const_i64(0));
    b.branch(c, left, right);
    b.switch_to(left);
    let l = b.binary(BinOp::Add, n, Operand::const_i64(10));
    b.jump(merge);
    b.switch_to(right);
    b.jump(merge);
    b.switch_to(merge);
    let p = b.phi(Ty::I64, vec![(left, l)]);
    let r = b.binary(BinOp::Mul, p, Operand::const_i64(3));
    b.ret(Some(r));
    let mut module = Module::new();
    module.add_func(b.finish());
    for arg in [5i64, -5] {
        let name = format!("missing-phi({arg})");
        assert_interp_matches(&name, &module, "f", &[Val::from_i64(arg)], u64::MAX);
        assert_sim_matches(&name, &module, "f", &[arg], &MachineConfig::default());
    }
    // Through the edge the phi does not name, the interpreter faults and
    // the simulator reads 0.
    let e = Interp::new(&module).run("f", &[Val::from_i64(-5)], &mut NoProfiler);
    assert!(matches!(e, Err(InterpError::Malformed(_))), "{e:?}");
    let s = SptSimulator::new()
        .run(&module, "f", &[-5])
        .expect("sim runs");
    assert_eq!(s.ret, Some(0));
}

/// An `SPT_FORK` whose spawn target is a merge block with leading phis but
/// no back-edge predecessor: the speculative thread restarts there along no
/// CFG edge, so no phi row matches and every phi reads 0 (both engines).
/// The main thread then validates against the real edge's values, so each
/// episode re-executes the phis and what they feed.
#[test]
fn fork_into_phis_along_no_edge_matches_reference() {
    // f(n): for i in 0..n { (p, q) = i % 2 == 0 ? (fork; (i * 3, 7)) : (i, 9);
    //                       a[i % 16] = p; s += p + q }; return s
    let mut b = FuncBuilder::new("f", vec![("n".into(), Ty::I64)], Some(Ty::I64));
    let n = b.param(0);
    let entry = b.entry();
    let (header, body, left) = (b.add_block(), b.add_block(), b.add_block());
    let (right, merge, exit) = (b.add_block(), b.add_block(), b.add_block());
    b.switch_to(entry);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(Ty::I64, vec![(entry, Operand::const_i64(0))]);
    let s = b.phi(Ty::I64, vec![(entry, Operand::const_i64(0))]);
    let c = b.cmp(CmpOp::Lt, Ty::I64, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let odd = b.binary(BinOp::Rem, i, Operand::const_i64(2));
    b.branch(odd, right, left);
    b.switch_to(left);
    b.spt_fork(5, merge);
    let y = b.binary(BinOp::Mul, i, Operand::const_i64(3));
    b.jump(merge);
    b.switch_to(right);
    b.jump(merge);
    b.switch_to(merge);
    let p = b.phi(Ty::I64, vec![(left, y), (right, i)]);
    let seven_or_nine = vec![
        (left, Operand::const_i64(7)),
        (right, Operand::const_i64(9)),
    ];
    let q = b.phi(Ty::I64, seven_or_nine);
    let cell = b.binary(BinOp::Rem, i, Operand::const_i64(16));
    b.store(cell, p, RegionId::UNKNOWN);
    let pq = b.binary(BinOp::Add, p, q);
    let s2 = b.binary(BinOp::Add, s, pq);
    let i2 = b.binary(BinOp::Add, i, Operand::const_i64(1));
    b.jump(header);
    b.switch_to(exit);
    b.spt_kill(5);
    b.ret(Some(s));
    let mut func = b.finish();
    for (phi, v) in [(i, i2), (s, s2)] {
        if let InstKind::Phi { args } = &mut func.inst_mut(phi.as_inst().expect("phi")).kind {
            args.push((merge, v));
        }
    }
    let mut module = Module::new();
    module.add_global("a", 16, Ty::I64);
    module.add_func(func);
    let sb = &SuperblockModule::build(&module).funcs[0].blocks[merge.index()];
    assert_eq!(sb.phis.len(), 2);
    assert_eq!(sb.back_pred, None, "the spawn target has no back edge");
    assert!(
        sb.phi_rows.iter().all(|r| r.pred != merge),
        "no row for the restart"
    );

    for arg in [1i64, 9, 40] {
        let name = format!("fork-into-phis({arg})");
        assert_interp_matches(&name, &module, "f", &[Val::from_i64(arg)], u64::MAX);
        assert_sim_matches(&name, &module, "f", &[arg], &MachineConfig::default());
    }
    let r = SptSimulator::new().run(&module, "f", &[40]).expect("runs");
    let stats = &r.loops[&5];
    assert!(stats.forks > 0 && stats.commits > 0, "{stats:?}");
    assert!(stats.reexec_insts > 0, "zeroed phis re-execute: {stats:?}");
}

// ---------------------------------------------------------------------------
// Proptest differential: random programs through the same pin.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// A random but well-formed two-function program (same shape family as
/// `pipeline_robustness`: guarded stores, array traffic, division by
/// possibly-zero subexpressions, optional nested loop).
#[derive(Debug, Clone)]
struct ProgSpec {
    updates: Vec<(usize, u8, i64)>, // (accumulator, op selector, constant)
    guard_mod: i64,
    stride: i64,
    inner_trip: i64,
    with_inner: u8,
}

fn arb_prog() -> impl Strategy<Value = ProgSpec> {
    (
        proptest::collection::vec((0usize..4, 0u8..7, 1i64..11), 1..7),
        (2i64..8, 1i64..6, 2i64..6),
        0u8..2,
    )
        .prop_map(
            |(updates, (guard_mod, stride, inner_trip), with_inner)| ProgSpec {
                updates,
                guard_mod,
                stride,
                inner_trip,
                with_inner,
            },
        )
}

fn render(spec: &ProgSpec) -> String {
    let mut decls = String::new();
    for v in 0..4 {
        decls.push_str(&format!("    let x{v} = {};\n", 2 * v + 1));
    }
    let mut body = String::new();
    for (k, &(v, op, c)) in spec.updates.iter().enumerate() {
        let expr = match op {
            0 => format!("x{v} + {c}"),
            1 => format!("x{v} * {c} % 1013"),
            2 => format!("x{v} + a[(i * {} + {k}) % 256]", spec.stride),
            3 => format!("x{v} ^ (i << {})", c % 5),
            4 => format!("x{v} + x{} / (x{} % {c})", (v + 1) % 4, (v + 2) % 4),
            5 => format!("x{v} % (i % {c} - 1)"),
            _ => format!("x{v} + i % {c} + b[(i + {k}) % 256]"),
        };
        body.push_str(&format!("      x{v} = {expr};\n"));
    }
    let inner = if spec.with_inner == 1 {
        format!(
            "      for (let j = 0; j < {}; j = j + 1) {{\n\
             \x20       x2 = x2 + a[(i + j) % 256] % 13;\n\
             \x20     }}\n",
            spec.inner_trip
        )
    } else {
        String::new()
    };
    format!(
        "global a[256]: int;\n\
         global b[256]: int;\n\
         fn seed() {{\n\
         \x20 for (let k = 0; k < 256; k = k + 1) {{\n\
         \x20   a[k] = (k * 31 + 7) % 97;\n\
         \x20   b[k] = (k * 17 + 3) % 89;\n\
         \x20 }}\n\
         }}\n\
         fn kernel(n: int) -> int {{\n\
         {decls}\
         \x20 for (let i = 0; i < n; i = i + 1) {{\n\
         {body}\
         {inner}\
         \x20   if (i % {guard} == 0) {{ b[(i * {stride}) % 256] = x1 % 509; }}\n\
         \x20 }}\n\
         \x20 return x0 + x1 * 3 + x2 * 5 + x3 * 7 + b[{probe}];\n\
         }}\n\
         fn main(n: int) -> int {{\n\
         \x20 seed();\n\
         \x20 return kernel(n);\n\
         }}\n",
        guard = spec.guard_mod,
        stride = spec.stride,
        probe = (spec.stride * 7) % 256,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn random_programs_match_reference(spec in arb_prog()) {
        let src = render(&spec);
        let module = spt::frontend::compile(&src).expect("generated program compiles");
        let targets = value_targets(&module);
        let args = [Val::from_i64(120)];

        let mut ref_prof = reference_profiles(&targets);
        let ref_r = ReferenceInterp::new(&module)
            .run("main", &args, &mut ref_prof)
            .expect("reference interp runs");
        let sim_r = ReferenceSimulator::new()
            .run(&module, "main", &[120])
            .expect("reference sim runs");

        let mut prof = ProfileCollector::with_value_targets(targets.iter().copied());
        let r = Interp::new(&module)
            .run("main", &args, &mut prof)
            .expect("interp runs");
        prop_assert_eq!(r.ret, ref_r.ret, "return diverged:\n{}", src);
        prop_assert_eq!(r.insts_retired, ref_r.insts_retired, "insts diverged:\n{}", src);
        prop_assert_eq!(
            r.weighted_cycles, ref_r.weighted_cycles,
            "cycles diverged:\n{}", src
        );
        prop_assert_eq!(&r.memory, &ref_r.memory, "memory diverged:\n{}", src);
        prop_assert_eq!(
            format!("{:?}", prof.loops.iter()),
            format!("{:?}", ref_prof.0.loops.iter()),
            "loop profile diverged:\n{}", src
        );
        prop_assert_eq!(
            ref_prof.1.1.first_difference(&prof.loops),
            None,
            "loop profile diverged from its definition:\n{}", src
        );
        prop_assert_eq!(
            ref_prof.1.0.first_difference(&module, &prof.deps),
            None,
            "dependence profile diverged:\n{}", src
        );
        let (mut el, mut rl) = (EventLog::default(), EventLog::default());
        Interp::new(&module).run("main", &args, &mut el).expect("interp runs");
        ReferenceInterp::new(&module).run("main", &args, &mut rl).expect("reference runs");
        prop_assert_eq!(el, rl, "event stream diverged:\n{}", src);

        let s = SptSimulator::new()
            .run(&module, "main", &[120])
            .expect("sim runs");
        prop_assert_eq!(s.ret, sim_r.ret, "sim ret diverged:\n{}", src);
        prop_assert_eq!(s.cycles, sim_r.cycles, "sim cycles diverged:\n{}", src);
        prop_assert_eq!(s.insts, sim_r.insts, "sim insts diverged:\n{}", src);
        prop_assert_eq!(&s.memory, &sim_r.memory, "sim memory diverged:\n{}", src);
    }
}
