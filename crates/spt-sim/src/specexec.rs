//! The episode machinery's executors: speculative spawn and validation
//! replay over the module's superblock code ([`spt_ir::superblock`]).
//!
//! [`Run::spawn_super`] runs the speculative core (timed, overlay memory),
//! pushing one [`ExecRecord`] per instruction; [`Run::validate_super`]
//! replays the trace on the main core (untimed, direct memory), comparing
//! one record per instruction. Both walk the superblock ops, one dispatch
//! per op and one op per IR instruction, calls and returns included, while
//! emitting records, comparisons, buffer/cap checks and cache/predictor
//! accesses in the reference stepper's order. Validation can stop between
//! any two instructions, and the main thread resumes exactly there. Both
//! evaluate pure ops through [`SInst::eval`] (with `Param` read from the
//! frame's arguments), the evaluator the main thread's walk and the
//! interpreter share.
//!
//! Their bookkeeping stays off the per-instruction path. The speculative
//! core's clock is a local of the spawn walk. It never decreases, so the
//! records a validation may replay — those finished by the main core's
//! arrival — are a prefix of the trace, cut once before the replay starts.
//! The replay counts its instructions, free commits and committed latency
//! in locals and flushes them at every exit and before a `deactivate`.
//!
//! **Exactness contract** (same as [`superexec`](crate::superexec)): every
//! instruction produces the record fields, memory/cache/predictor accesses,
//! cycle charges and stat attributions of the reference simulator, in the
//! same order — episode traces and replay statistics are part of the pinned
//! bit-identical [`SimResult`](crate::SimResult).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sim::Run;
use crate::thread::{transfer, ExecError, ExecRecord, Frame, MemView, Thread};
use spt_ir::{pure_ops, BlockId, FuncId, InstId, SInst, SOpc};

/// Mutable state of one validation replay.
pub(crate) struct ReplayState {
    /// Next unconsumed trace record.
    pub(crate) k: usize,
    /// Stats slot of the episode's loop tag.
    pub(crate) ti: usize,
    /// Main-core cycle at validation start: only records that finished by
    /// then are eligible to commit.
    pub(crate) arrival: u64,
    /// The episode's loop tag.
    pub(crate) tag: u32,
    /// An `SPT_FORK` for the same tag was replayed (next episode spawns at
    /// commit).
    pub(crate) pending_fork: bool,
    /// An `SPT_KILL` for the same tag was replayed.
    pub(crate) killed: bool,
    /// The program finished during replay.
    pub(crate) finished: Option<Option<u64>>,
}

/// The value a defining non-memory op computes: `Param` reads the frame's
/// arguments, every other op is [`SInst::eval`].
#[inline(always)]
fn def_of(s: &SInst, frame: &Frame) -> u64 {
    match s.opc {
        SOpc::Param => frame.args.get(s.imm as usize).copied().unwrap_or(0),
        _ => s.eval(&frame.values),
    }
}

impl Run<'_> {
    /// A replayed instruction that re-executes at `latency` cycles and
    /// discards the `wasted` trace records after it: a value mismatch, or a
    /// control divergence.
    #[cold]
    fn reexec(&mut self, slot: usize, latency: u64, wasted: u64) {
        let s = &mut self.loops[slot].1;
        s.reexec_insts += 1;
        s.reexec_cycles += latency;
        s.wasted_insts += wasted;
        self.cycle += latency;
    }

    /// Runs the speculative core, pushing one record per executed
    /// instruction, until speculation must stop: the iteration boundary is
    /// reached, the episode's own `SPT_KILL` executes (it is re-executed by
    /// the main thread, so it gets no record), the spawning frame returns,
    /// a fault, or the trace hits `max_spec_ops`.
    ///
    /// `bfunc`/`btarget`/`depth0` identify the iteration boundary (the spawn
    /// header at the spawn depth); `tag` is the episode's loop tag. The
    /// speculative core's clock starts at the main core's.
    pub(crate) fn spawn_super(
        &mut self,
        spec: &mut Thread,
        bfunc: FuncId,
        btarget: BlockId,
        depth0: usize,
        tag: u32,
        trace: &mut Vec<ExecRecord>,
    ) {
        let mut clock = self.cycle;
        let mut view = MemView {
            base: &self.memory,
            buf: &mut self.spec_buf,
        };
        let cap = self.config.max_spec_ops;
        // Every record is preceded by the cap check.
        macro_rules! full {
            () => {
                if trace.len() >= cap {
                    return;
                }
            };
        }
        'outer: loop {
            let depth = spec.frames.len();
            let Some(frame) = spec.frames.last_mut() else {
                return;
            };
            let func_id = frame.func;
            let sf = self.sup.func(func_id);
            // One record per executed instruction, at the speculative core's
            // clock after charging `lat`.
            macro_rules! record {
                ($inst:expr, $result:expr, $store:expr, $lat:expr) => {{
                    let lat: u64 = $lat;
                    clock += lat;
                    trace.push(ExecRecord {
                        func: func_id,
                        inst: $inst,
                        result: $result,
                        store: $store,
                        latency: lat,
                        cycle_end: clock,
                    });
                }};
            }
            // Deferred phi writes from the last transfer: one record each at
            // latency 0.
            while frame.pending_head < frame.pending.len() {
                full!();
                let (phi, bits) = frame.pending[frame.pending_head];
                frame.pending_head += 1;
                frame.values[phi.index()] = bits;
                record!(phi, Some(bits), None, 0);
            }
            let mut idx = sf.op_at(frame.block, frame.pos);
            loop {
                let s = &sf.ops[idx];
                let m = &sf.meta[idx];
                full!();
                match s.opc {
                    SOpc::Param | SOpc::ConstV | pure_ops!() => {
                        let def = def_of(s, frame);
                        frame.values[m.inst.index()] = def;
                        frame.pos += 1;
                        record!(m.inst, Some(def), None, u64::from(m.lat));
                        idx += 1;
                    }
                    SOpc::Load | SOpc::LoadImm => {
                        let cell = s.load_addr(&frame.values);
                        let Ok(v) = view.read(cell) else { return };
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        record!(m.inst, Some(v), None, self.cache.access(cell as u64).max(1));
                        idx += 1;
                    }
                    SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                        let (cell, bits) = s.store(&frame.values);
                        if view.write(cell, bits).is_err() {
                            return;
                        }
                        frame.pos += 1;
                        let lat = self.cache.access(cell as u64).clamp(1, 4);
                        record!(m.inst, None, Some((cell, bits)), lat);
                        idx += 1;
                    }
                    SOpc::Jump => {
                        transfer(frame, sf, s.t1);
                        record!(m.inst, None, None, u64::from(m.lat));
                        if func_id == bfunc && s.t1 == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::Branch | SOpc::BranchImm => {
                        let taken = s.taken(&frame.values);
                        let target = if taken { s.t1 } else { s.t2 };
                        let mut lat = u64::from(m.lat);
                        if self.predictor.mispredicted(func_id, m.inst, taken) {
                            lat += self.config.branch_mispredict_penalty;
                        }
                        transfer(frame, sf, target);
                        record!(m.inst, None, None, lat);
                        if func_id == bfunc && target == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::RetVal | SOpc::RetImm | SOpc::RetVoid => {
                        let bits = s.ret_value(&frame.values);
                        let ret_slot = frame.ret_slot;
                        if let Some(done) = spec.frames.pop() {
                            spec.pool.push(done);
                        }
                        // Returning out of the spawning frame ends
                        // speculation; that return is not recorded.
                        let Some(parent) = spec.frames.last_mut() else {
                            return;
                        };
                        if let (Some(slot), Some(v)) = (ret_slot, bits) {
                            parent.values[slot.index()] = v;
                        }
                        let (to, pf) = (parent.block, parent.func);
                        record!(m.inst, None, None, u64::from(m.lat));
                        if pf == bfunc && to == btarget && depth - 1 == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::Call => {
                        frame.pos += 1;
                        let callee = FuncId(s.aux);
                        let args = &sf.args[s.a as usize..(s.a + s.b) as usize];
                        if spec
                            .push_call(self.sup, callee, args, InstId(s.dst))
                            .is_err()
                        {
                            return;
                        }
                        record!(m.inst, None, None, u64::from(m.lat));
                        let entry = self.sup.func(callee).entry;
                        if callee == bfunc && entry == btarget && depth + 1 == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::SptFork => {
                        // Speculative forks are recorded (no-ops) and become
                        // effective at commit via the validation replay.
                        frame.pos += 1;
                        record!(m.inst, None, None, u64::from(m.lat));
                        idx += 1;
                    }
                    SOpc::SptKill => {
                        frame.pos += 1;
                        if s.imm as u32 == tag {
                            // The speculative thread left the loop; the kill
                            // itself is re-executed by the main thread.
                            return;
                        }
                        record!(m.inst, None, None, u64::from(m.lat));
                        idx += 1;
                    }
                    // Faults silently stop speculation.
                    SOpc::SkipPhi | SOpc::Unsupported | SOpc::FallOff => return,
                }
            }
        }
    }

    /// Replays trace records on the main core, one comparison per executed
    /// instruction, for as long as the reference replay loop would: while
    /// the program has not finished and the next record is unconsumed and
    /// finished by the arrival cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on main-thread faults, exactly as the
    /// reference replay would.
    pub(crate) fn validate_super(
        &mut self,
        thread: &mut Thread,
        trace: &[ExecRecord],
        rp: &mut ReplayState,
    ) -> Result<(), ExecError> {
        debug_assert!(trace.windows(2).all(|w| w[0].cycle_end <= w[1].cycle_end));
        let cut = trace.partition_point(|r| r.cycle_end <= rp.arrival);
        let mut k = rp.k;
        // Replayed instructions, free commits and committed latency.
        let (mut insts, mut free, mut seq) = (0u64, 0u64, 0u64);
        macro_rules! flush {
            () => {
                rp.k = k;
                self.insts += insts;
                self.loops[rp.ti].1.free_insts += free;
                self.seq_cycles += seq;
            };
        }
        // Checked before every replayed instruction.
        macro_rules! guard {
            () => {
                if k >= cut {
                    flush!();
                    return Ok(());
                }
            };
        }
        // One comparison against `trace[k]`: exactly the accounting of one
        // reference validation step (free commit on a matching record,
        // re-execution on a value mismatch, trace discard on a control
        // divergence).
        macro_rules! commit {
            ($func:expr, $inst:expr, $result:expr, $store:expr, $lat:expr) => {{
                let expected = &trace[k];
                insts += 1;
                if $func == expected.func && $inst == expected.inst {
                    let lat = expected.latency.max(1);
                    seq += lat;
                    if $result == expected.result && $store == expected.store {
                        free += 1;
                    } else {
                        self.reexec(rp.ti, lat, 0);
                    }
                    k += 1;
                } else {
                    // Control divergence: this instruction and everything
                    // after is executed non-speculatively.
                    let lat = u64::max($lat, 1);
                    seq += lat;
                    self.reexec(rp.ti, lat, (trace.len() - k) as u64);
                    k = trace.len();
                }
            }};
        }
        'outer: loop {
            guard!();
            let Some(frame) = thread.frames.last_mut() else {
                flush!();
                return Ok(());
            };
            let func_id = frame.func;
            let sf = self.sup.func(func_id);

            while frame.pending_head < frame.pending.len() {
                guard!();
                let (phi, bits) = frame.pending[frame.pending_head];
                frame.pending_head += 1;
                frame.values[phi.index()] = bits;
                commit!(func_id, phi, Some(bits), None, 0);
            }
            let mut idx = sf.op_at(frame.block, frame.pos);
            loop {
                let s = &sf.ops[idx];
                let m = &sf.meta[idx];
                guard!();
                let lat = u64::from(m.lat);
                match s.opc {
                    SOpc::Param | SOpc::ConstV | pure_ops!() => {
                        let def = def_of(s, frame);
                        frame.values[m.inst.index()] = def;
                        frame.pos += 1;
                        commit!(func_id, m.inst, Some(def), None, lat);
                        idx += 1;
                    }
                    SOpc::Load | SOpc::LoadImm => {
                        let cell = s.load_addr(&frame.values);
                        let v = self.read(cell)?;
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        commit!(func_id, m.inst, Some(v), None, lat);
                        idx += 1;
                    }
                    SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                        let (cell, bits) = s.store(&frame.values);
                        self.write(cell, bits)?;
                        frame.pos += 1;
                        commit!(func_id, m.inst, None, Some((cell, bits)), lat);
                        idx += 1;
                    }
                    SOpc::Jump => {
                        transfer(frame, sf, s.t1);
                        commit!(func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::Branch | SOpc::BranchImm => {
                        let taken = s.taken(&frame.values);
                        transfer(frame, sf, if taken { s.t1 } else { s.t2 });
                        commit!(func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::RetVal | SOpc::RetImm | SOpc::RetVoid => {
                        let bits = s.ret_value(&frame.values);
                        let ret_slot = frame.ret_slot;
                        if let Some(done) = thread.frames.pop() {
                            thread.pool.push(done);
                        }
                        let finished = match thread.frames.last_mut() {
                            Some(parent) => {
                                if let (Some(slot), Some(v)) = (ret_slot, bits) {
                                    parent.values[slot.index()] = v;
                                }
                                false
                            }
                            None => true,
                        };
                        commit!(func_id, m.inst, None, None, lat);
                        if finished {
                            rp.finished = Some(bits);
                            flush!();
                            return Ok(());
                        }
                        continue 'outer;
                    }
                    SOpc::Call => {
                        frame.pos += 1;
                        let args = &sf.args[s.a as usize..(s.a + s.b) as usize];
                        thread.push_call(self.sup, FuncId(s.aux), args, InstId(s.dst))?;
                        commit!(func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::SptFork => {
                        frame.pos += 1;
                        commit!(func_id, m.inst, None, None, lat);
                        if s.imm as u32 == rp.tag {
                            rp.pending_fork = true;
                        }
                        idx += 1;
                    }
                    SOpc::SptKill => {
                        frame.pos += 1;
                        commit!(func_id, m.inst, None, None, lat);
                        let kt = s.imm as u32;
                        // The deactivated loop takes the run's totals.
                        flush!();
                        (insts, free, seq) = (0, 0, 0);
                        self.deactivate(kt);
                        if kt == rp.tag {
                            rp.killed = true;
                            self.loops[rp.ti].1.wasted_insts += (trace.len() - k) as u64;
                            k = trace.len();
                        }
                        idx += 1;
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
                            frame.block, sf.name
                        )));
                    }
                }
            }
        }
    }

    /// Reads committed memory (the validation replay's view).
    #[inline(always)]
    fn read(&self, cell: i64) -> Result<u64, ExecError> {
        usize::try_from(cell)
            .ok()
            .and_then(|i| self.memory.get(i))
            .copied()
            .ok_or(ExecError::OutOfBounds(cell))
    }

    /// Writes committed memory (the validation replay's view).
    #[inline(always)]
    fn write(&mut self, cell: i64, bits: u64) -> Result<(), ExecError> {
        let slot = usize::try_from(cell)
            .ok()
            .and_then(|i| self.memory.get_mut(i))
            .ok_or(ExecError::OutOfBounds(cell))?;
        *slot = bits;
        Ok(())
    }
}
