//! The profiling interpreter's executor: threaded-code dispatch of the
//! module's superblock code ([`spt_ir::superblock`]), its only executable
//! form.
//!
//! A walk runs a call's [`SInst`](spt_ir::SInst) ops, block after block,
//! dispatched by one flat opcode match that the compiler lowers to a jump
//! table with every arm inlined (the stable-Rust equivalent of threaded code
//! — an indirect-call handler table defeats register allocation across ops
//! and measures ~2.5x slower). The compact encoding keeps every operand a
//! pre-resolved slot index (constants live in `imm`), so the hot loop never
//! re-discriminates operand kinds. Calls recurse into [`Interp::call`].
//!
//! The walk is monomorphized twice per profiler:
//!
//! * **stepwise** (`STEP = true`): every op — one IR instruction — fires its
//!   profiler hooks and retires individually, in the reference
//!   interpreter's order, with the fuel check after each retire. Observed
//!   runs always walk this way, so their event streams are bit-identical to
//!   [`crate::ReferenceInterp`]'s;
//! * **batched** (`STEP = false`, [`crate::NoProfiler`] only): hooks and
//!   loop-stack bookkeeping vanish and a block's retirement accounting is
//!   added once per entry ([`SBlock::retires`](spt_ir::SBlock)/`cycles`).
//!   A block takes this walk only when it makes no call and its full retire
//!   count fits the fuel budget, so no abort point can fall inside it;
//!   otherwise it walks stepwise with no-op hooks.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::interp::{
    dval, Interp, InterpError, LoopActivation, LoopEvent, Profiler, RunState, Val,
};
use spt_ir::decoded::DecodedFunc;
use spt_ir::superblock::{SMeta, SOpc, SuperblockFunc, NO_SLOT};
use spt_ir::{BlockId, FuncId, InstId};

/// How a walk ended.
enum Flow {
    /// The function returns.
    Ret(Option<Val>),
    /// The op at index `at` is a call; the walk resumes at the next op once
    /// the callee returns. Calls are made from [`Interp::call`], so the
    /// walk's frame is not live during the callee.
    Call { at: usize },
    /// Control entered a block that takes the other walk (batched or
    /// stepwise, as given); the block's entry work is already done.
    Switch { batch: bool },
}

/// Placeholder metadata for batched walks, which never read it.
const NO_META: SMeta = SMeta {
    inst: InstId(NO_SLOT),
    lat: 0,
};

/// One call's state: the function, its values and loop stack, and the
/// current block with the edge it was entered by.
struct Frame<'a> {
    func: FuncId,
    df: &'a DecodedFunc,
    sf: &'a SuperblockFunc,
    args: &'a [Val],
    values: Vec<Val>,
    loops: Vec<LoopActivation>,
    block: BlockId,
    from: Option<BlockId>,
}

impl Frame<'_> {
    /// The first op of the current block.
    #[inline(always)]
    fn block_start(&self) -> usize {
        self.sf.blocks[self.block.index()].range.0 as usize
    }
}

impl<'m> Interp<'m> {
    /// Runs one call of `func_id` to completion.
    pub(crate) fn call<P: Profiler>(
        &self,
        func_id: FuncId,
        args: &[Val],
        state: &mut RunState<'_, P>,
        depth: usize,
    ) -> Result<Option<Val>, InterpError> {
        if depth >= self.max_depth {
            return Err(InterpError::StackOverflow);
        }
        let df = self.decoded.func(func_id);
        let mut values: Vec<Val> = state.frame_pool.pop().unwrap_or_default();
        values.clear();
        values.resize(df.num_values(), Val(0));
        let mut f = Frame {
            func: func_id,
            df,
            sf: self.superblock().func(func_id),
            args,
            values,
            loops: Vec::new(),
            block: df.entry,
            from: None,
        };
        state.profiler.on_block(func_id, None, f.block);
        let mut batch = self.enter(&mut f, state)?;
        let mut idx = f.block_start();
        loop {
            let flow = if batch {
                self.walk::<P, false>(&mut f, idx, state)?
            } else {
                self.walk::<P, true>(&mut f, idx, state)?
            };
            match flow {
                Flow::Switch { batch: b } => {
                    batch = b;
                    idx = f.block_start();
                }
                // Only stepwise walks reach calls (`SBlock::has_call`), and
                // the call retires after its callee, as in the reference.
                Flow::Call { at } => {
                    let (s, m) = (&f.sf.ops[at], &f.sf.meta[at]);
                    let callee = FuncId(s.aux);
                    let cargs: Vec<Val> = f.sf.args[s.a as usize..(s.a + s.b) as usize]
                        .iter()
                        .map(|&dv| dval(dv, &f.values))
                        .collect();
                    state.profiler.on_call_enter(func_id, m.inst, callee);
                    let ret = self.call(callee, &cargs, state, depth + 1)?;
                    state.profiler.on_call_exit(func_id, m.inst, callee);
                    if let Some(v) = ret {
                        f.values[s.dst as usize] = v;
                        state.profiler.on_def(func_id, m.inst, v, &f.loops);
                    }
                    self.retire(func_id, m.inst, u64::from(m.lat), &f.loops, state)?;
                    idx = at + 1;
                }
                Flow::Ret(r) => {
                    if P::OBSERVES {
                        while let Some(act) = f.loops.pop() {
                            state
                                .profiler
                                .on_loop(func_id, LoopEvent::Exit(act.loop_id), &f.loops);
                        }
                    }
                    state.frame_pool.push(f.values);
                    return Ok(r);
                }
            }
        }
    }

    /// Enters `f.block` from `f.from`: loop bookkeeping and the leading phis
    /// (every source read against the incoming edge, then every
    /// destination committed and, stepwise, defined and retired in block
    /// order). Returns whether the block runs batched — only when the run
    /// does not observe, the block makes no call, and its full retire count
    /// fits the fuel budget — in which case its accounting is added here.
    #[inline(always)]
    fn enter<P: Profiler>(
        &self,
        f: &mut Frame<'_>,
        state: &mut RunState<'_, P>,
    ) -> Result<bool, InterpError> {
        // Loop bookkeeping only feeds profiler hooks; a non-observing run
        // needs none of it.
        if P::OBSERVES {
            self.update_loops(f.func, f.df, f.from, f.block, &mut f.loops, state);
        }
        let sb = &f.sf.blocks[f.block.index()];
        let batch = !P::OBSERVES && !sb.has_call && state.insts_retired + sb.retires <= state.fuel;
        let phis = &f.df.blocks[f.block.index()].phis;
        if !phis.is_empty() {
            let Some(pred) = f.from else {
                return Err(InterpError::Malformed(format!(
                    "phi {} in entry block of {}",
                    phis[0], f.df.name
                )));
            };
            let Some(row) = sb.phis.iter().find(|r| r.pred == pred) else {
                return Err(InterpError::Malformed(format!(
                    "phi {} missing arg for pred {pred}",
                    phis[0]
                )));
            };
            if let Some(phi) = row.missing {
                return Err(InterpError::Malformed(format!(
                    "phi {phi} missing arg for pred {pred}"
                )));
            }
            state.phi_scratch.clear();
            for &(dst, src) in row.moves.iter() {
                state.phi_scratch.push((InstId(dst), dval(src, &f.values)));
            }
            for k in 0..state.phi_scratch.len() {
                let (i, v) = state.phi_scratch[k];
                f.values[i.index()] = v;
                if !batch {
                    state.profiler.on_def(f.func, i, v, &f.loops);
                    self.retire(f.func, i, 0, &f.loops, state)?;
                }
            }
        }
        if batch {
            state.insts_retired += sb.retires;
            state.weighted_cycles += sb.cycles;
        }
        Ok(batch)
    }

    /// Executes the frame's ops from op `idx` — across block transfers while
    /// the entered blocks take this walk — to a return, a call, or a block
    /// that takes the other walk (see the module docs for the two walks).
    #[inline]
    fn walk<P: Profiler, const STEP: bool>(
        &self,
        f: &mut Frame<'_>,
        mut idx: usize,
        state: &mut RunState<'_, P>,
    ) -> Result<Flow, InterpError> {
        let (func_id, sf, df, args) = (f.func, f.sf, f.df, f.args);
        loop {
            let values = &mut f.values[..];
            let loops = &f.loops[..];
            // The current op's metadata, read only by stepwise walks.
            let mut m = &NO_META;
            // Stepwise hooks and retirement.
            macro_rules! retire {
                () => {
                    if STEP {
                        self.retire(func_id, m.inst, u64::from(m.lat), loops, state)?;
                    }
                };
            }
            macro_rules! def {
                ($v:expr) => {
                    if STEP {
                        state.profiler.on_def(func_id, m.inst, $v, loops);
                    }
                    retire!();
                };
            }
            macro_rules! on_mem {
                ($hook:ident, $addr:expr, $v:expr) => {
                    if STEP {
                        state.profiler.$hook(func_id, m.inst, $addr, $v, loops);
                    }
                };
            }
            macro_rules! cell {
                ($addr:expr) => {{
                    let a: i64 = $addr;
                    if a < 0 || a as usize >= state.memory.len() {
                        return Err(InterpError::OutOfBounds { addr: a });
                    }
                    a as usize
                }};
            }
            let target = 'ops: loop {
                let at = idx;
                let s = &sf.ops[at];
                idx += 1;
                if STEP {
                    m = &sf.meta[at];
                }
                // Pure ops share the write-back and def/retire tail;
                // every other op completes in its own arm.
                let v = match s.opc {
                    SOpc::FoldedDef => Val(s.imm),
                    SOpc::AddRR => Val::from_i64(
                        values[s.a as usize]
                            .as_i64()
                            .wrapping_add(values[s.b as usize].as_i64()),
                    ),
                    SOpc::AddImm => {
                        Val::from_i64(values[s.a as usize].as_i64().wrapping_add(s.imm as i64))
                    }
                    SOpc::SubRR => Val::from_i64(
                        values[s.a as usize]
                            .as_i64()
                            .wrapping_sub(values[s.b as usize].as_i64()),
                    ),
                    SOpc::SubImm => {
                        Val::from_i64(values[s.a as usize].as_i64().wrapping_sub(s.imm as i64))
                    }
                    SOpc::RsbImm => {
                        Val::from_i64((s.imm as i64).wrapping_sub(values[s.a as usize].as_i64()))
                    }
                    SOpc::MulRR => Val::from_i64(
                        values[s.a as usize]
                            .as_i64()
                            .wrapping_mul(values[s.b as usize].as_i64()),
                    ),
                    SOpc::MulImm => {
                        Val::from_i64(values[s.a as usize].as_i64().wrapping_mul(s.imm as i64))
                    }
                    SOpc::BinRR => Val::from_i64(
                        s.bin
                            .eval_i64(values[s.a as usize].as_i64(), values[s.b as usize].as_i64()),
                    ),
                    SOpc::BinImm => {
                        Val::from_i64(s.bin.eval_i64(values[s.a as usize].as_i64(), s.imm as i64))
                    }
                    SOpc::BinImmL => {
                        Val::from_i64(s.bin.eval_i64(s.imm as i64, values[s.a as usize].as_i64()))
                    }
                    SOpc::BinF64RR => Val::from_f64(
                        s.bin
                            .eval_f64(values[s.a as usize].as_f64(), values[s.b as usize].as_f64()),
                    ),
                    SOpc::BinF64Imm => Val::from_f64(
                        s.bin
                            .eval_f64(values[s.a as usize].as_f64(), f64::from_bits(s.imm)),
                    ),
                    SOpc::BinF64ImmL => Val::from_f64(
                        s.bin
                            .eval_f64(f64::from_bits(s.imm), values[s.a as usize].as_f64()),
                    ),
                    SOpc::UnI64 => Val::from_i64(s.un.eval_i64(values[s.a as usize].as_i64())),
                    SOpc::UnF64 => Val::from_f64(s.un.eval_f64(values[s.a as usize].as_f64())),
                    SOpc::IntToFloat => Val::from_f64(values[s.a as usize].as_i64() as f64),
                    SOpc::FloatToInt => Val::from_i64(values[s.a as usize].as_f64() as i64),
                    SOpc::Copy => values[s.a as usize],
                    SOpc::CmpRR => Val::from_i64(
                        s.cmp
                            .eval_i64(values[s.a as usize].as_i64(), values[s.b as usize].as_i64())
                            as i64,
                    ),
                    SOpc::CmpImm => Val::from_i64(
                        s.cmp.eval_i64(values[s.a as usize].as_i64(), s.imm as i64) as i64,
                    ),
                    SOpc::CmpF64RR => Val::from_i64(
                        s.cmp
                            .eval_f64(values[s.a as usize].as_f64(), values[s.b as usize].as_f64())
                            as i64,
                    ),
                    SOpc::CmpF64Imm => Val::from_i64(
                        s.cmp
                            .eval_f64(values[s.a as usize].as_f64(), f64::from_bits(s.imm))
                            as i64,
                    ),
                    // Parameter reads and constants retire without a def hook.
                    SOpc::Param => {
                        values[s.dst as usize] =
                            args.get(s.imm as usize).copied().unwrap_or(Val(0));
                        retire!();
                        continue;
                    }
                    SOpc::ConstV => {
                        values[s.dst as usize] = Val(s.imm);
                        retire!();
                        continue;
                    }
                    SOpc::Load | SOpc::LoadImm => {
                        let a = if s.opc == SOpc::Load {
                            values[s.a as usize].as_i64()
                        } else {
                            s.imm as i64
                        };
                        let v = Val(state.memory[cell!(a)]);
                        values[s.dst as usize] = v;
                        on_mem!(on_load, a, v);
                        def!(v);
                        continue;
                    }
                    SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                        let (a, v) = match s.opc {
                            SOpc::StoreRR => (values[s.a as usize].as_i64(), values[s.b as usize]),
                            SOpc::StoreRI => (values[s.a as usize].as_i64(), Val(s.imm)),
                            SOpc::StoreIR => (s.imm as i64, values[s.b as usize]),
                            _ => (s.imm as i64, Val(u64::from(s.a) | (u64::from(s.b) << 32))),
                        };
                        let c = cell!(a);
                        state.memory[c] = v.0;
                        on_mem!(on_store, a, v);
                        retire!();
                        continue;
                    }
                    SOpc::Jump => {
                        retire!();
                        break 'ops s.t1;
                    }
                    SOpc::Branch => {
                        let t = values[s.a as usize].is_truthy();
                        retire!();
                        break 'ops if t { s.t1 } else { s.t2 };
                    }
                    SOpc::BranchImm => {
                        retire!();
                        break 'ops if s.imm != 0 { s.t1 } else { s.t2 };
                    }
                    SOpc::RetVal => {
                        let v = values[s.a as usize];
                        retire!();
                        return Ok(Flow::Ret(Some(v)));
                    }
                    SOpc::RetImm => {
                        retire!();
                        return Ok(Flow::Ret(Some(Val(s.imm))));
                    }
                    SOpc::RetVoid => {
                        retire!();
                        return Ok(Flow::Ret(None));
                    }
                    // Sequential semantics: SPT markers are no-ops.
                    SOpc::SptFork | SOpc::SptKill => {
                        retire!();
                        continue;
                    }
                    SOpc::Call => return Ok(Flow::Call { at }),
                    // A non-leading phi: silently skipped, exactly like the
                    // reference engine (no retire).
                    SOpc::SkipPhi => continue,
                    SOpc::Unsupported => {
                        return Err(InterpError::Malformed(
                            "interpreter requires SSA form (run mem2reg first)".into(),
                        ));
                    }
                    SOpc::FallOff => {
                        return Err(InterpError::Malformed(format!(
                            "block {} of {} fell through without terminator",
                            f.block, df.name
                        )));
                    }
                };
                values[s.dst as usize] = v;
                def!(v);
            };
            state.profiler.on_block(func_id, Some(f.block), target);
            f.from = Some(f.block);
            f.block = target;
            if self.enter(f, state)? == STEP {
                return Ok(Flow::Switch { batch: STEP });
            }
            idx = f.block_start();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::{Interp, InterpError, NoProfiler, Val};
    use crate::reference::ReferenceInterp;
    use crate::ProfileCollector;

    /// Runs `entry(args)` on the engine and the reference oracle, unprofiled
    /// and profiled, and returns the engine's unprofiled result after
    /// checking all four runs agree.
    fn run_both(src: &str, entry: &str, args: &[Val]) -> Result<crate::InterpResult, InterpError> {
        let module = spt_frontend::compile(src).expect("compiles");
        let engine = Interp::new(&module).run(entry, args, &mut NoProfiler);
        let oracle = ReferenceInterp::new(&module).run(entry, args, &mut NoProfiler);
        assert_eq!(engine, oracle);
        let mut p = ProfileCollector::new();
        let mut q = ProfileCollector::new();
        let observed = Interp::new(&module).run(entry, args, &mut p);
        let reference = ReferenceInterp::new(&module).run(entry, args, &mut q);
        assert_eq!(observed, reference);
        assert_eq!(p.loops.iter(), q.loops.iter());
        assert_eq!(p.deps.dep_counts_map(), q.deps.dep_counts_map());
        engine
    }

    #[test]
    fn matches_reference_on_loops_and_memory() {
        let src = "
            global buf[64]: int;
            fn fill(n: int) -> int {
                let k = 0;
                let s = 0;
                while (k < n) { buf[k] = k * 3; s = s + buf[k]; k = k + 1; }
                return s;
            }
            fn main(n: int) -> int { return fill(n) + fill(n / 2); }
        ";
        run_both(src, "main", &[Val::from_i64(40)]).expect("runs");
    }

    #[test]
    fn matches_reference_on_recursion_and_floats() {
        let src = "
            fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            fn main(n: int) -> int { return fib(n); }
        ";
        run_both(src, "main", &[Val::from_i64(14)]).expect("runs");
    }

    #[test]
    fn preserves_fuel_abort() {
        let src = "fn f() -> int { let x = 1; while (x > 0) { x = x + 1; } return x; }";
        let module = spt_frontend::compile(src).expect("compiles");
        let mut interp = Interp::new(&module);
        interp.fuel = 10_000;
        let e = interp
            .run("f", &[], &mut NoProfiler)
            .expect_err("out of fuel");
        assert_eq!(e, InterpError::OutOfFuel);
    }

    #[test]
    fn preserves_oob_abort() {
        let src = "global a[2]: int; fn f(i: int) -> int { return a[i]; }";
        let e = run_both(src, "f", &[Val::from_i64(5000)]).expect_err("oob");
        assert!(matches!(e, InterpError::OutOfBounds { .. }));
    }
}
