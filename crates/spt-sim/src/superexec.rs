//! The main thread's executor: threaded-code dispatch of the module's
//! superblock code ([`spt_ir::superblock`]).
//!
//! [`Run::run_super`] advances the main thread through whole blocks,
//! calls and returns included, and comes back to the driver only at the
//! control events the episode machinery must observe (`SPT_FORK`,
//! `SPT_KILL`, a transfer matching the watched iteration boundary, program
//! finish) or when the retired-instruction budget is crossed
//! ([`SuperStop::Fuel`]). It can resume at any instruction — after a call
//! returns, or wherever a validation replay stopped — because every
//! instruction is an op start ([`spt_ir::superblock`]).
//!
//! **Exactness contract**: every op is one IR instruction and charges the
//! same cycle latency, retire count, loop attribution and cache/branch-
//! predictor accesses, in the same order, as the reference simulator's
//! per-instruction stepper — the shared cache and predictor are stateful, so
//! identical access sequences are what make the engines produce
//! bit-identical [`SimResult`](crate::SimResult)s. Each walk runs one of two
//! ways:
//!
//! * **batched**, when the block's full retire count fits under the fuel
//!   budget: cycle/retire/attribution charges accumulate per walk and are
//!   flushed at every exit (event, call, transfer). Nothing the walk
//!   executes reads the global clock, so the batch is unobservable;
//! * **stepwise** otherwise: every instruction charges immediately, so an
//!   out-of-fuel stop lands on exactly the instruction it would in the
//!   reference.
//!
//! A fault ends the run with an error, so neither walk settles its charges
//! before returning one.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sim::Run;
use crate::specexec::store_operands;
use crate::thread::{transfer, ExecError, StepEvent, Thread};
use spt_ir::{BlockId, FuncId, InstId, SOpc};

/// Why [`Run::run_super`] returned to the driver.
pub(crate) enum SuperStop {
    /// A control event the driver's episode machinery must handle.
    Event(StepEvent),
    /// The retired-instruction count crossed the fuel budget; the driver's
    /// loop-top check turns this into `OutOfFuel`.
    Fuel,
}

impl Run<'_> {
    /// Per-retired-instruction accounting: one main-thread instruction of
    /// `latency` cycles, attributed to every active loop. Returns `true`
    /// when the fuel budget is now crossed.
    #[inline(always)]
    fn charge(&mut self, latency: u64) -> bool {
        self.flush_charges(latency, 1);
        self.insts > self.config.fuel
    }

    /// Flushes a batched walk's accounting: `dinsts` retired instructions
    /// summing `dcycle` cycles, attributed exactly as `dinsts` individual
    /// [`Run::charge`] calls (the active-tag set cannot change mid-walk —
    /// fork/kill events end the walk).
    #[inline(always)]
    pub(crate) fn flush_charges(&mut self, dcycle: u64, dinsts: u64) {
        self.cycle += dcycle;
        self.insts += dinsts;
        for &(_, _, slot) in &self.active_tags {
            let s = &mut self.loops[slot as usize].1;
            s.main_insts += dinsts;
            s.seq_cycles += dcycle;
        }
    }

    /// Advances the main thread until a driver-visible event or fuel
    /// exhaustion.
    ///
    /// `watch` is the active episode's `(spawn_func, spawn_target, depth)`
    /// iteration boundary: transfers matching it are returned as events for
    /// validation, all others are handled inline.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on program faults, exactly where the reference
    /// stepper faults.
    pub(crate) fn run_super(
        &mut self,
        thread: &mut Thread,
        watch: Option<(FuncId, BlockId, usize)>,
    ) -> Result<SuperStop, ExecError> {
        loop {
            let frame = thread
                .frames
                .last_mut()
                .ok_or_else(|| ExecError::Malformed("step on finished thread".into()))?;
            // Deferred phi writes from the last transfer: each is one
            // retired instruction at latency 0.
            while frame.pending_head < frame.pending.len() {
                let (phi, bits) = frame.pending[frame.pending_head];
                frame.pending_head += 1;
                frame.values[phi.index()] = bits;
                if self.charge(0) {
                    return Ok(SuperStop::Fuel);
                }
            }
            let sb = &self.sup.func(frame.func).blocks[frame.block.index()];
            let stop = if self.insts + sb.retires <= self.config.fuel {
                self.walk_main::<false>(thread, watch)?
            } else {
                self.walk_main::<true>(thread, watch)?
            };
            if let Some(stop) = stop {
                return Ok(stop);
            }
        }
    }

    /// Runs the innermost frame from its current position to the next
    /// block transfer, call or return (`Ok(None)`: the caller continues
    /// with the new position) or driver-visible stop.
    #[inline(always)]
    fn walk_main<const STEP: bool>(
        &mut self,
        thread: &mut Thread,
        watch: Option<(FuncId, BlockId, usize)>,
    ) -> Result<Option<SuperStop>, ExecError> {
        let depth = thread.frames.len();
        let Some(frame) = thread.frames.last_mut() else {
            return Err(ExecError::Malformed("step on finished thread".into()));
        };
        let func_id = frame.func;
        let df = self.decoded.func(func_id);
        let sf = self.sup.func(func_id);
        let mut idx = sf.op_at(frame.block, frame.pos);
        // Batched accounting, flushed at every exit from the walk.
        let mut dcycle: u64 = 0;
        let mut dinsts: u64 = 0;
        // One retired instruction that cannot end the walk.
        macro_rules! charge {
            ($lat:expr) => {
                let lat: u64 = $lat;
                if STEP {
                    if self.charge(lat) {
                        return Ok(Some(SuperStop::Fuel));
                    }
                } else {
                    dcycle += lat;
                    dinsts += 1;
                }
            };
        }
        // The walk's last retired instruction; yields whether the fuel
        // budget is now crossed.
        macro_rules! settle {
            ($lat:expr) => {
                if STEP {
                    self.charge($lat)
                } else {
                    self.flush_charges(dcycle + $lat, dinsts + 1);
                    false
                }
            };
        }
        // A block transfer: events first, then the fuel stop.
        macro_rules! goto {
            ($target:expr, $lat:expr) => {{
                let target = $target;
                transfer(frame, df, target);
                let crossed = settle!($lat);
                if watch == Some((func_id, target, depth)) {
                    return Ok(Some(SuperStop::Event(StepEvent::Transfer {
                        to: target,
                        func: func_id,
                    })));
                }
                return Ok(crossed.then_some(SuperStop::Fuel));
            }};
        }
        macro_rules! cell {
            ($cell:expr) => {{
                let cell: i64 = $cell;
                match usize::try_from(cell)
                    .ok()
                    .filter(|&i| i < self.memory.len())
                {
                    Some(i) => i,
                    None => return Err(ExecError::OutOfBounds(cell)),
                }
            }};
        }
        loop {
            let s = &sf.ops[idx];
            let m = &sf.meta[idx];
            // Pure ops share the write-back/accounting tail.
            let def: u64 = match s.opc {
                SOpc::Param => frame.args.get(s.imm as usize).copied().unwrap_or(0),
                SOpc::ConstV | SOpc::FoldedDef => s.imm,
                SOpc::AddRR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    (a as i64).wrapping_add(b as i64) as u64
                }
                SOpc::AddImm => {
                    (frame.values[s.a as usize] as i64).wrapping_add(s.imm as i64) as u64
                }
                SOpc::SubRR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    (a as i64).wrapping_sub(b as i64) as u64
                }
                SOpc::SubImm => {
                    (frame.values[s.a as usize] as i64).wrapping_sub(s.imm as i64) as u64
                }
                SOpc::RsbImm => {
                    (s.imm as i64).wrapping_sub(frame.values[s.a as usize] as i64) as u64
                }
                SOpc::MulRR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    (a as i64).wrapping_mul(b as i64) as u64
                }
                SOpc::MulImm => {
                    (frame.values[s.a as usize] as i64).wrapping_mul(s.imm as i64) as u64
                }
                SOpc::BinRR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    s.bin.eval_i64(a as i64, b as i64) as u64
                }
                SOpc::BinImm => s
                    .bin
                    .eval_i64(frame.values[s.a as usize] as i64, s.imm as i64)
                    as u64,
                SOpc::BinImmL => s
                    .bin
                    .eval_i64(s.imm as i64, frame.values[s.a as usize] as i64)
                    as u64,
                SOpc::BinF64RR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    s.bin
                        .eval_f64(f64::from_bits(a), f64::from_bits(b))
                        .to_bits()
                }
                SOpc::BinF64Imm => s
                    .bin
                    .eval_f64(
                        f64::from_bits(frame.values[s.a as usize]),
                        f64::from_bits(s.imm),
                    )
                    .to_bits(),
                SOpc::BinF64ImmL => s
                    .bin
                    .eval_f64(
                        f64::from_bits(s.imm),
                        f64::from_bits(frame.values[s.a as usize]),
                    )
                    .to_bits(),
                SOpc::UnI64 => s.un.eval_i64(frame.values[s.a as usize] as i64) as u64,
                SOpc::UnF64 => {
                    s.un.eval_f64(f64::from_bits(frame.values[s.a as usize]))
                        .to_bits()
                }
                SOpc::IntToFloat => ((frame.values[s.a as usize] as i64) as f64).to_bits(),
                SOpc::FloatToInt => (f64::from_bits(frame.values[s.a as usize]) as i64) as u64,
                SOpc::Copy => frame.values[s.a as usize],
                SOpc::CmpRR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    s.cmp.eval_i64(a as i64, b as i64) as u64
                }
                SOpc::CmpImm => s
                    .cmp
                    .eval_i64(frame.values[s.a as usize] as i64, s.imm as i64)
                    as u64,
                SOpc::CmpF64RR => {
                    let (a, b) = (frame.values[s.a as usize], frame.values[s.b as usize]);
                    s.cmp.eval_f64(f64::from_bits(a), f64::from_bits(b)) as u64
                }
                SOpc::CmpF64Imm => s.cmp.eval_f64(
                    f64::from_bits(frame.values[s.a as usize]),
                    f64::from_bits(s.imm),
                ) as u64,

                SOpc::Load | SOpc::LoadImm => {
                    let cell = if s.opc == SOpc::Load {
                        frame.values[s.a as usize] as i64
                    } else {
                        s.imm as i64
                    };
                    frame.values[s.dst as usize] = self.memory[cell!(cell)];
                    charge!(self.cache.access(cell as u64).max(1));
                    frame.pos += 1;
                    idx += 1;
                    continue;
                }
                SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                    let (cell, bits) = store_operands(s, &frame.values);
                    let i = cell!(cell);
                    self.memory[i] = bits;
                    charge!(self.cache.access(cell as u64).clamp(1, 4));
                    frame.pos += 1;
                    idx += 1;
                    continue;
                }

                SOpc::Jump => goto!(s.t1, u64::from(m.lat)),
                SOpc::Branch | SOpc::BranchImm => {
                    let taken = if s.opc == SOpc::Branch {
                        frame.values[s.a as usize] != 0
                    } else {
                        s.imm != 0
                    };
                    let mut lat = u64::from(m.lat);
                    if self.predictor.mispredicted(func_id, m.inst, taken) {
                        lat += self.config.branch_mispredict_penalty;
                    }
                    goto!(if taken { s.t1 } else { s.t2 }, lat)
                }

                SOpc::RetVal | SOpc::RetImm | SOpc::RetVoid => {
                    let bits = match s.opc {
                        SOpc::RetVal => Some(frame.values[s.a as usize]),
                        SOpc::RetImm => Some(s.imm),
                        _ => None,
                    };
                    let ret_slot = frame.ret_slot;
                    let crossed = settle!(u64::from(m.lat));
                    if let Some(done) = thread.frames.pop() {
                        thread.pool.push(done);
                    }
                    let Some(parent) = thread.frames.last_mut() else {
                        return Ok(Some(SuperStop::Event(StepEvent::Finished { value: bits })));
                    };
                    if let (Some(slot), Some(v)) = (ret_slot, bits) {
                        parent.values[slot.index()] = v;
                    }
                    let (to, pf) = (parent.block, parent.func);
                    if watch == Some((pf, to, depth - 1)) {
                        return Ok(Some(SuperStop::Event(StepEvent::Transfer { to, func: pf })));
                    }
                    return Ok(crossed.then_some(SuperStop::Fuel));
                }
                SOpc::Call => {
                    frame.pos += 1;
                    let callee = FuncId(s.aux);
                    let args = &sf.args[s.a as usize..(s.a + s.b) as usize];
                    thread.push_call(self.decoded, callee, args, InstId(s.dst))?;
                    let crossed = settle!(u64::from(m.lat));
                    let entry = self.decoded.func(callee).entry;
                    if watch == Some((callee, entry, depth + 1)) {
                        return Ok(Some(SuperStop::Event(StepEvent::Transfer {
                            to: entry,
                            func: callee,
                        })));
                    }
                    return Ok(crossed.then_some(SuperStop::Fuel));
                }
                SOpc::SptFork => {
                    frame.pos += 1;
                    settle!(u64::from(m.lat));
                    return Ok(Some(SuperStop::Event(StepEvent::Fork {
                        tag: s.imm as u32,
                        target: s.t1,
                        func: func_id,
                    })));
                }
                SOpc::SptKill => {
                    frame.pos += 1;
                    settle!(u64::from(m.lat));
                    return Ok(Some(SuperStop::Event(StepEvent::Kill {
                        tag: s.imm as u32,
                    })));
                }
                SOpc::SkipPhi => {
                    return Err(ExecError::Malformed(format!(
                        "unscheduled phi {} executed directly",
                        m.inst
                    )));
                }
                SOpc::Unsupported => {
                    return Err(ExecError::Malformed("non-SSA IR in simulator".into()));
                }
                SOpc::FallOff => {
                    return Err(ExecError::Malformed(format!(
                        "fell off block {} in {}",
                        frame.block, df.name
                    )));
                }
            };
            frame.values[s.dst as usize] = def;
            charge!(u64::from(m.lat));
            frame.pos += 1;
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::MachineConfig;
    use crate::reference::ReferenceSimulator;
    use crate::sim::{SimError, SptSimulator};
    use spt_ir::Module;

    fn compile(src: &str) -> Module {
        spt_frontend::compile(src).unwrap()
    }

    fn assert_identical(a: &crate::SimResult, b: &crate::SimResult) {
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.cache_hit_rate.to_bits(), b.cache_hit_rate.to_bits());
        assert_eq!(a.branch_miss_rate.to_bits(), b.branch_miss_rate.to_bits());
        assert_eq!(a.loops, b.loops);
    }

    /// The engine and the reference oracle on the same run.
    fn both(module: &Module, entry: &str, args: &[i64]) -> crate::SimResult {
        let engine = SptSimulator::new().run(module, entry, args).unwrap();
        let oracle = ReferenceSimulator::new().run(module, entry, args).unwrap();
        assert_identical(&engine, &oracle);
        engine
    }

    #[test]
    fn matches_reference_on_plain_loops_and_calls() {
        let src = "
            global a[256]: int;
            fn helper(x: int) -> int { return x * 3 + 1; }
            fn main(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    a[i % 256] = i * i;
                    s = s + a[(i + 13) % 256] % 7 + helper(i) % 5;
                }
                return s;
            }
        ";
        let r = both(&compile(src), "main", &[400]);
        assert!(r.cycles > 0);
    }

    #[test]
    fn matches_reference_on_float_and_branchy_code() {
        let src = "
            global f[64]: float;
            fn main(n: int) -> int {
                let s = 0;
                let x = 1.5;
                for (let i = 0; i < n; i = i + 1) {
                    x = x * 1.001 + 0.25;
                    if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
                    f[i % 64] = x;
                }
                return s + int(f[0]);
            }
        ";
        both(&compile(src), "main", &[500]);
    }

    /// Hand-transforms loop 0 of `fname` with an empty partition (only the
    /// forced header-test closure moves), the same shape the sim tests use:
    /// every episode misspeculates part of its trace, exercising fork,
    /// validation, re-execution and kill.
    fn force_transform(src: &str, fname: &str) -> Module {
        use spt_cost::dep_graph::{DepGraph, DepGraphConfig, NodeClass, Profiles};
        use spt_transform::{emit_spt_loop, SptLoopSpec};
        let mut module = spt_frontend::compile(src).unwrap();
        let fid = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            fid,
            spt_ir::loops::LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let func = module.func(fid);
        let header = {
            let cfg = spt_ir::Cfg::compute(func);
            let dom = spt_ir::DomTree::compute(&cfg);
            let forest = spt_ir::LoopForest::compute(func, &cfg, &dom);
            forest.get(spt_ir::loops::LoopId::new(0)).header
        };
        let term = func.terminator(header).unwrap();
        let mut move_insts = std::collections::HashSet::new();
        let mut replicate_insts = std::collections::HashSet::new();
        if let Some(&tnode) = graph.index.get(&term) {
            for n in graph.closure(&[tnode]) {
                let inst = graph.nodes[n];
                if graph.class[n] == NodeClass::Branch {
                    replicate_insts.insert(inst);
                } else {
                    move_insts.insert(inst);
                }
            }
        }
        let spec = SptLoopSpec {
            loop_id: spt_ir::loops::LoopId::new(0),
            move_insts,
            replicate_insts,
            loop_tag: 9,
        };
        emit_spt_loop(module.func_mut(fid), &spec).expect("emit");
        spt_ir::passes::cleanup(module.func_mut(fid));
        spt_ir::verify::verify_module(&module).expect("verifies");
        module
    }

    #[test]
    fn matches_reference_under_speculation() {
        let src = "
            global a[128]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    let x = (i * 13 + 5) % 128;
                    if (s % 3 == 0) {
                        s = s + a[x] % 7 + x;
                    } else {
                        s = s + 1;
                    }
                    a[(x + 1) % 128] = s % 251;
                    i = i + 1;
                }
                return s;
            }
        ";
        let module = force_transform(src, "f");
        let r = both(&module, "f", &[400]);
        let stats = &r.loops[&9];
        assert!(stats.forks > 0 && stats.commits > 0, "{stats:?}");
        assert!(stats.free_insts > 0, "{stats:?}");
        assert!(
            stats.wasted_insts > 0,
            "divergence path must be exercised: {stats:?}"
        );
    }

    #[test]
    fn preserves_fuel_exhaustion() {
        let src = "fn main() -> int { let x = 1; while (x > 0) { x = x + 1; } return x; }";
        let module = compile(src);
        let config = MachineConfig {
            fuel: 5000,
            ..MachineConfig::default()
        };
        let err = SptSimulator::with_config(config.clone())
            .run(&module, "main", &[])
            .unwrap_err();
        assert_eq!(err, SimError::OutOfFuel);
        let oracle = ReferenceSimulator::with_config(config)
            .run(&module, "main", &[])
            .unwrap_err();
        assert_eq!(err, oracle);
    }

    #[test]
    fn preserves_oob_fault() {
        let src = "
            global a[8]: int;
            fn main(i: int) -> int { a[i] = 7; return a[i]; }
        ";
        let module = compile(src);
        let engine = SptSimulator::new()
            .run(&module, "main", &[1000])
            .unwrap_err();
        let oracle = ReferenceSimulator::new()
            .run(&module, "main", &[1000])
            .unwrap_err();
        assert_eq!(engine, oracle);
    }
}
