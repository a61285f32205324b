//! The retained reference interpreter.
//!
//! This is the original tree-walking engine, kept verbatim as the oracle the
//! superblock interpreter in [`crate::interp`] is differentially tested
//! against (`tests/engine_equivalence.rs` at the workspace root): it
//! re-inspects [`InstKind`]/[`Operand`]/`Ty` on every step, exactly as before
//! pre-decoding, and must produce bit-identical [`InterpResult`]s and
//! profiler event streams. Do not optimize this module — its value is that it
//! stays slow and obviously faithful to the IR's semantics.

use crate::interp::{InterpError, InterpResult, LoopActivation, LoopEvent, Profiler, Val};
use spt_ir::{BlockId, Cfg, DomTree, FuncId, InstId, InstKind, LoopForest, Module, Operand, Ty};

/// Per-function static analysis cache used by the reference interpreter.
#[derive(Clone, Debug)]
pub struct FuncInfo {
    /// The function's loop forest.
    pub forest: LoopForest,
}

/// The reference interpreter. Same public surface as [`crate::Interp`],
/// same semantics, no pre-decoding.
pub struct ReferenceInterp<'m> {
    module: &'m Module,
    infos: Vec<FuncInfo>,
    /// Base cell address of each region.
    pub region_bases: Vec<usize>,
    memory_size: usize,
    /// Maximum instructions to retire before aborting (default 500M).
    pub fuel: u64,
    /// Maximum call depth (default 256).
    pub max_depth: usize,
}

struct RunState<'p, P: Profiler> {
    profiler: &'p mut P,
    memory: Vec<u64>,
    insts_retired: u64,
    weighted_cycles: u64,
    fuel: u64,
    next_activation: u64,
}

impl<'m> ReferenceInterp<'m> {
    /// Prepares a reference interpreter for `module`.
    pub fn new(module: &'m Module) -> Self {
        let infos = module
            .funcs
            .iter()
            .map(|f| {
                let cfg = Cfg::compute(f);
                let dom = DomTree::compute(&cfg);
                FuncInfo {
                    forest: LoopForest::compute(f, &cfg, &dom),
                }
            })
            .collect();
        let (region_bases, memory_size) = module.memory_layout();
        ReferenceInterp {
            module,
            infos,
            region_bases,
            memory_size,
            fuel: 500_000_000,
            max_depth: 256,
        }
    }

    /// Builds the initial memory image (globals' initializers applied).
    pub fn initial_memory(&self) -> Vec<u64> {
        let mut memory = vec![0u64; self.memory_size];
        for (gi, g) in self.module.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let base = self.region_bases[gi];
                for (k, &bits) in init.iter().take(g.size).enumerate() {
                    memory[base + k] = bits;
                }
            }
        }
        memory
    }

    /// Runs function `name` with `args`, profiling into `profiler`.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on unknown entry, fuel exhaustion, stack
    /// overflow or out-of-bounds memory access.
    pub fn run<P: Profiler>(
        &self,
        name: &str,
        args: &[Val],
        profiler: &mut P,
    ) -> Result<InterpResult, InterpError> {
        self.run_with_memory(name, args, self.initial_memory(), profiler)
    }

    /// Runs with a caller-provided initial memory image.
    ///
    /// # Errors
    ///
    /// Same as [`ReferenceInterp::run`].
    pub fn run_with_memory<P: Profiler>(
        &self,
        name: &str,
        args: &[Val],
        memory: Vec<u64>,
        profiler: &mut P,
    ) -> Result<InterpResult, InterpError> {
        let func = self
            .module
            .func_by_name(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_string()))?;
        let mut state = RunState {
            profiler,
            memory,
            insts_retired: 0,
            weighted_cycles: 0,
            fuel: self.fuel,
            next_activation: 0,
        };
        let ret = self.call(func, args, &mut state, 0)?;
        Ok(InterpResult {
            ret,
            insts_retired: state.insts_retired,
            weighted_cycles: state.weighted_cycles,
            memory: state.memory,
        })
    }

    fn call<P: Profiler>(
        &self,
        func_id: FuncId,
        args: &[Val],
        state: &mut RunState<'_, P>,
        depth: usize,
    ) -> Result<Option<Val>, InterpError> {
        if depth >= self.max_depth {
            return Err(InterpError::StackOverflow);
        }
        let func = self.module.func(func_id);
        let info = &self.infos[func_id.index()];
        let mut values: Vec<Val> = vec![Val(0); func.insts.len()];
        let mut loop_stack: Vec<LoopActivation> = Vec::new();

        let mut block = func.entry;
        let mut from: Option<BlockId> = None;
        state.profiler.on_block(func_id, None, block);

        'blocks: loop {
            // Loop bookkeeping for the transfer `from -> block`.
            self.update_loops(func_id, info, from, block, &mut loop_stack, state);

            // Phase 1: evaluate phis atomically against the incoming edge.
            let insts = &func.block(block).insts;
            let mut phi_vals: Vec<(InstId, Val)> = Vec::new();
            for &i in insts {
                if let InstKind::Phi { args: phi_args } = &func.inst(i).kind {
                    let Some(pred) = from else {
                        return Err(InterpError::Malformed(format!(
                            "phi {i} in entry block of {}",
                            func.name
                        )));
                    };
                    let Some((_, op)) = phi_args.iter().find(|(bb, _)| *bb == pred) else {
                        return Err(InterpError::Malformed(format!(
                            "phi {i} missing arg for pred {pred}"
                        )));
                    };
                    phi_vals.push((i, self.operand(*op, &values)));
                } else {
                    break;
                }
            }
            for (i, v) in phi_vals {
                values[i.index()] = v;
                state.profiler.on_def(func_id, i, v, &loop_stack);
                self.retire(func_id, i, 0, &loop_stack, state)?;
            }

            // Phase 2: execute remaining instructions.
            for &i in insts {
                let inst = func.inst(i);
                if matches!(inst.kind, InstKind::Phi { .. }) {
                    continue;
                }
                let latency = inst.latency();
                match &inst.kind {
                    InstKind::Param { index } => {
                        let v = args.get(*index).copied().unwrap_or(Val(0));
                        values[i.index()] = v;
                    }
                    InstKind::Binary { op, lhs, rhs } => {
                        let a = self.operand(*lhs, &values);
                        let b = self.operand(*rhs, &values);
                        let v = match inst.ty.unwrap_or(Ty::I64) {
                            Ty::I64 => Val::from_i64(op.eval_i64(a.as_i64(), b.as_i64())),
                            Ty::F64 => Val::from_f64(op.eval_f64(a.as_f64(), b.as_f64())),
                        };
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    InstKind::Unary { op, val } => {
                        let a = self.operand(*val, &values);
                        let v = match (inst.ty.unwrap_or(Ty::I64), op) {
                            (Ty::F64, spt_ir::UnOp::IntToFloat) => Val::from_f64(a.as_i64() as f64),
                            (Ty::I64, spt_ir::UnOp::FloatToInt) => Val::from_i64(a.as_f64() as i64),
                            (Ty::I64, _) => Val::from_i64(op.eval_i64(a.as_i64())),
                            (Ty::F64, _) => Val::from_f64(op.eval_f64(a.as_f64())),
                        };
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    InstKind::Cmp {
                        op,
                        operand_ty,
                        lhs,
                        rhs,
                    } => {
                        let a = self.operand(*lhs, &values);
                        let b = self.operand(*rhs, &values);
                        let t = match operand_ty {
                            Ty::I64 => op.eval_i64(a.as_i64(), b.as_i64()),
                            Ty::F64 => op.eval_f64(a.as_f64(), b.as_f64()),
                        };
                        let v = Val::from_i64(t as i64);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    InstKind::Copy { val } => {
                        let v = self.operand(*val, &values);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    InstKind::RegionBase { region } => {
                        let base = if region.is_unknown() {
                            0
                        } else {
                            self.region_bases[region.index()]
                        };
                        values[i.index()] = Val::from_i64(base as i64);
                    }
                    InstKind::Load { addr, .. } => {
                        let a = self.operand(*addr, &values).as_i64();
                        let cell = self.check_addr(a, &state.memory)?;
                        let v = Val(state.memory[cell]);
                        values[i.index()] = v;
                        state.profiler.on_load(func_id, i, a, v, &loop_stack);
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    InstKind::Store { addr, val, .. } => {
                        let a = self.operand(*addr, &values).as_i64();
                        let v = self.operand(*val, &values);
                        let cell = self.check_addr(a, &state.memory)?;
                        state.memory[cell] = v.0;
                        state.profiler.on_store(func_id, i, a, v, &loop_stack);
                    }
                    InstKind::Call { callee, args } => {
                        let mut call_args = Vec::with_capacity(args.len());
                        for a in args {
                            call_args.push(self.operand(*a, &values));
                        }
                        state.profiler.on_call_enter(func_id, i, *callee);
                        let ret = self.call(*callee, &call_args, state, depth + 1)?;
                        state.profiler.on_call_exit(func_id, i, *callee);
                        if let Some(v) = ret {
                            values[i.index()] = v;
                            state.profiler.on_def(func_id, i, v, &loop_stack);
                        }
                    }
                    InstKind::VarLoad { .. } | InstKind::VarStore { .. } => {
                        return Err(InterpError::Malformed(
                            "interpreter requires SSA form (run mem2reg first)".into(),
                        ));
                    }
                    InstKind::Jump { target } => {
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        state.profiler.on_block(func_id, Some(block), *target);
                        from = Some(block);
                        block = *target;
                        continue 'blocks;
                    }
                    InstKind::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.operand(*cond, &values);
                        let taken = c.is_truthy();
                        let target = if taken { *then_bb } else { *else_bb };
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        state.profiler.on_block(func_id, Some(block), target);
                        from = Some(block);
                        block = target;
                        continue 'blocks;
                    }
                    InstKind::Ret { val } => {
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        // Exit all remaining loops.
                        while let Some(act) = loop_stack.pop() {
                            state.profiler.on_loop(
                                func_id,
                                LoopEvent::Exit(act.loop_id),
                                &loop_stack,
                            );
                        }
                        return Ok(val.map(|v| self.operand(v, &values)));
                    }
                    InstKind::SptFork { .. } | InstKind::SptKill { .. } => {
                        // Sequential semantics: SPT markers are no-ops.
                    }
                    InstKind::Phi { .. } => unreachable!("handled in phase 1"),
                }
                self.retire(func_id, i, latency, &loop_stack, state)?;
            }
            return Err(InterpError::Malformed(format!(
                "block {block} of {} fell through without terminator",
                func.name
            )));
        }
    }

    fn retire<P: Profiler>(
        &self,
        func: FuncId,
        inst: InstId,
        latency: u64,
        loops: &[LoopActivation],
        state: &mut RunState<'_, P>,
    ) -> Result<(), InterpError> {
        state.insts_retired += 1;
        state.weighted_cycles += latency;
        state.profiler.on_inst(func, inst, latency, loops);
        if state.insts_retired > state.fuel {
            return Err(InterpError::OutOfFuel);
        }
        Ok(())
    }

    fn update_loops<P: Profiler>(
        &self,
        func_id: FuncId,
        info: &FuncInfo,
        from: Option<BlockId>,
        to: BlockId,
        loop_stack: &mut Vec<LoopActivation>,
        state: &mut RunState<'_, P>,
    ) {
        // Pop loops that do not contain `to`.
        while let Some(top) = loop_stack.last() {
            if info.forest.get(top.loop_id).contains(to) {
                break;
            }
            let act = loop_stack.pop().expect("nonempty");
            state
                .profiler
                .on_loop(func_id, LoopEvent::Exit(act.loop_id), loop_stack);
        }
        // Header transitions: iterate (back edge from inside) or enter.
        if let Some(lid) = info.forest.ids().find(|&l| info.forest.get(l).header == to) {
            let is_active_top = loop_stack.last().map(|a| a.loop_id) == Some(lid);
            let from_inside = from.is_some_and(|f| info.forest.get(lid).contains(f));
            if is_active_top && from_inside {
                let top = loop_stack.last_mut().expect("active loop on stack");
                top.iter += 1;
                state
                    .profiler
                    .on_loop(func_id, LoopEvent::Iterate(lid), loop_stack);
            } else {
                let act = LoopActivation {
                    loop_id: lid,
                    activation: state.next_activation,
                    iter: 0,
                };
                state.next_activation += 1;
                loop_stack.push(act);
                state
                    .profiler
                    .on_loop(func_id, LoopEvent::Enter(lid), loop_stack);
            }
        }
    }

    #[inline]
    fn operand(&self, op: Operand, values: &[Val]) -> Val {
        match op {
            Operand::Inst(id) => values[id.index()],
            Operand::ConstI64(v) => Val::from_i64(v),
            Operand::ConstF64Bits(bits) => Val(bits),
        }
    }

    #[inline]
    fn check_addr(&self, addr: i64, memory: &[u64]) -> Result<usize, InterpError> {
        if addr < 0 || addr as usize >= memory.len() {
            Err(InterpError::OutOfBounds { addr })
        } else {
            Ok(addr as usize)
        }
    }
}
