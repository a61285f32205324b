//! The episode machinery's executors: speculative spawn and validation
//! replay over the module's superblock code ([`spt_ir::superblock`]).
//!
//! [`Run::spawn_super`] runs the speculative core (timed, overlay memory),
//! pushing one [`ExecRecord`] per instruction; [`Run::validate_super`]
//! replays the trace on the main core (untimed, direct memory), comparing
//! one record per instruction. Both walk the fused ops with one dispatch per
//! superinstruction, calls and returns included, while emitting records,
//! comparisons, buffer/cap checks and cache/predictor accesses *per
//! constituent* in the reference stepper's order. Validation can stop
//! between any two constituents — mid-pair too; it writes every
//! constituent's slot, register-window-elided ones included, so the main
//! thread resumes exactly there.
//!
//! **Exactness contract** (same as [`superexec`](crate::superexec)): every
//! constituent produces the record fields, memory/cache/predictor accesses,
//! cycle charges and stat attributions of the reference simulator, in the
//! same order — episode traces and replay statistics are part of the pinned
//! bit-identical [`SimResult`](crate::SimResult). Elided zero-latency
//! constant defs are replayed from the stream-position gaps, their values
//! read back from the slots block entry wrote, so their records and
//! comparisons appear exactly where the reference produces them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sim::Run;
use crate::thread::{transfer, ExecError, ExecRecord, MemView, Thread};
use spt_ir::superblock::{SInst, F2_IMM1, F2_IMM2, F2_OP1_REV, F2_R_RIGHT, F_SWAP};
use spt_ir::{BlockId, FuncId, InstId, SOpc};

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

/// Evaluates a pure single-def superinstruction (no memory, no control, no
/// fused pair).
#[inline(always)]
fn pure_def(s: &SInst, vals: &[u64], args: &[u64]) -> u64 {
    match s.opc {
        SOpc::Param => args.get(s.imm as usize).copied().unwrap_or(0),
        SOpc::ConstV | SOpc::FoldedDef => s.imm,
        SOpc::AddRR => (vals[s.a as usize] as i64).wrapping_add(vals[s.b as usize] as i64) as u64,
        SOpc::AddImm => (vals[s.a as usize] as i64).wrapping_add(s.imm as i64) as u64,
        SOpc::SubRR => (vals[s.a as usize] as i64).wrapping_sub(vals[s.b as usize] as i64) as u64,
        SOpc::SubImm => (vals[s.a as usize] as i64).wrapping_sub(s.imm as i64) as u64,
        SOpc::RsbImm => (s.imm as i64).wrapping_sub(vals[s.a as usize] as i64) as u64,
        SOpc::MulRR => (vals[s.a as usize] as i64).wrapping_mul(vals[s.b as usize] as i64) as u64,
        SOpc::MulImm => (vals[s.a as usize] as i64).wrapping_mul(s.imm as i64) as u64,
        SOpc::BinRR => {
            s.bin
                .eval_i64(vals[s.a as usize] as i64, vals[s.b as usize] as i64) as u64
        }
        SOpc::BinImm => s.bin.eval_i64(vals[s.a as usize] as i64, s.imm as i64) as u64,
        SOpc::BinImmL => s.bin.eval_i64(s.imm as i64, vals[s.a as usize] as i64) as u64,
        SOpc::BinF64RR => s
            .bin
            .eval_f64(
                f64::from_bits(vals[s.a as usize]),
                f64::from_bits(vals[s.b as usize]),
            )
            .to_bits(),
        SOpc::BinF64Imm => s
            .bin
            .eval_f64(f64::from_bits(vals[s.a as usize]), f64::from_bits(s.imm))
            .to_bits(),
        SOpc::BinF64ImmL => s
            .bin
            .eval_f64(f64::from_bits(s.imm), f64::from_bits(vals[s.a as usize]))
            .to_bits(),
        SOpc::UnI64 => s.un.eval_i64(vals[s.a as usize] as i64) as u64,
        SOpc::UnF64 => s.un.eval_f64(f64::from_bits(vals[s.a as usize])).to_bits(),
        SOpc::IntToFloat => ((vals[s.a as usize] as i64) as f64).to_bits(),
        SOpc::FloatToInt => (f64::from_bits(vals[s.a as usize]) as i64) as u64,
        SOpc::Copy => vals[s.a as usize],
        SOpc::CmpRR => {
            s.cmp
                .eval_i64(vals[s.a as usize] as i64, vals[s.b as usize] as i64) as u64
        }
        SOpc::CmpImm => s.cmp.eval_i64(vals[s.a as usize] as i64, s.imm as i64) as u64,
        SOpc::CmpF64RR => s.cmp.eval_f64(
            f64::from_bits(vals[s.a as usize]),
            f64::from_bits(vals[s.b as usize]),
        ) as u64,
        SOpc::CmpF64Imm => s
            .cmp
            .eval_f64(f64::from_bits(vals[s.a as usize]), f64::from_bits(s.imm))
            as u64,
        // The callers only route the pure single-def opcodes here.
        _ => 0,
    }
}

/// First-constituent result of the `Fuse2` family (flags are preserved on
/// the specialized opcodes, so the generic decode covers all of them).
#[inline(always)]
pub(crate) fn fuse2_r(s: &SInst, vals: &[u64]) -> i64 {
    let x = vals[s.a as usize] as i64;
    let y = if s.flags & F2_IMM1 != 0 {
        s.imm as u32 as i32 as i64
    } else {
        vals[s.b as usize] as i64
    };
    if s.flags & F2_OP1_REV != 0 {
        s.bin.eval_i64(y, x)
    } else {
        s.bin.eval_i64(x, y)
    }
}

/// Second-constituent result of the `Fuse2` family given `r`.
#[inline(always)]
pub(crate) fn fuse2_v(s: &SInst, vals: &[u64], r: i64) -> i64 {
    let z = if s.flags & F2_IMM2 != 0 {
        (s.imm >> 32) as u32 as i32 as i64
    } else {
        vals[s.aux as usize] as i64
    };
    if s.flags & F2_R_RIGHT != 0 {
        s.bin2.eval_i64(z, r)
    } else {
        s.bin2.eval_i64(r, z)
    }
}

/// The integer comparison of a `CmpBr`/`CmpBrImm` pair.
#[inline(always)]
pub(crate) fn cmp_br(s: &SInst, vals: &[u64]) -> bool {
    let b = if s.opc == SOpc::CmpBr {
        vals[s.b as usize] as i64
    } else {
        s.imm as i64
    };
    s.cmp.eval_i64(vals[s.a as usize] as i64, b)
}

/// The binary op of an address-generation, backedge or `BinStore` pair:
/// slots `a`/`b` for the register form, else `a` and `imm` ([`F_SWAP`] puts
/// the constant on the left).
#[inline(always)]
pub(crate) fn bin_ri(s: &SInst, vals: &[u64], rr: bool) -> u64 {
    let x = vals[s.a as usize] as i64;
    let v = if rr {
        s.bin.eval_i64(x, vals[s.b as usize] as i64)
    } else if s.flags & F_SWAP != 0 {
        s.bin.eval_i64(s.imm as i64, x)
    } else {
        s.bin.eval_i64(x, s.imm as i64)
    };
    v as u64
}

/// The second constituent of a `LoadBin`/`LoadBinImm` pair given the
/// loaded value `v`.
#[inline(always)]
pub(crate) fn load_bin(s: &SInst, vals: &[u64], v: u64) -> u64 {
    let other = if s.opc == SOpc::LoadBin {
        vals[s.b as usize] as i64
    } else {
        s.imm as i64
    };
    let r = if s.flags & F_SWAP != 0 {
        s.bin.eval_i64(other, v as i64)
    } else {
        s.bin.eval_i64(v as i64, other)
    };
    r as u64
}

/// `(cell, bits)` of a single store op.
#[inline(always)]
pub(crate) fn store_operands(s: &SInst, vals: &[u64]) -> (i64, u64) {
    match s.opc {
        SOpc::StoreRR => (vals[s.a as usize] as i64, vals[s.b as usize]),
        SOpc::StoreRI => (vals[s.a as usize] as i64, s.imm),
        SOpc::StoreIR => (s.imm as i64, vals[s.b as usize]),
        _ => (s.imm as i64, u64::from(s.a) | (u64::from(s.b) << 32)),
    }
}

impl Run<'_> {
    /// One replay comparison against `trace[rp.k]`: exactly the accounting
    /// of one reference validation step (free commit on a matching record,
    /// re-execution charge on a value mismatch, trace discard on a control
    /// divergence). The caller has already checked the arrival guard.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_commit(
        &mut self,
        trace: &[ExecRecord],
        rp: &mut ReplayState,
        func: FuncId,
        inst: InstId,
        result: Option<u64>,
        store: Option<(i64, u64)>,
        latency: u64,
    ) {
        let expected = &trace[rp.k];
        self.insts += 1;
        let same_site = func == expected.func && inst == expected.inst;
        if same_site {
            let equal = result == expected.result && store == expected.store;
            let s = &mut self.loops[rp.ti].1;
            if equal {
                s.free_insts += 1;
            } else {
                s.reexec_insts += 1;
                s.reexec_cycles += expected.latency.max(1);
                self.cycle += expected.latency.max(1);
            }
            self.attribute_committed(expected.latency.max(1));
            rp.k += 1;
        } else {
            // Control divergence: this instruction and everything after is
            // executed non-speculatively.
            let s = &mut self.loops[rp.ti].1;
            s.reexec_insts += 1;
            s.reexec_cycles += latency.max(1);
            s.wasted_insts += (trace.len() - rp.k) as u64;
            self.cycle += latency.max(1);
            self.attribute_committed(latency.max(1));
            rp.k = trace.len();
        }
    }

    /// Runs the speculative core, pushing one record per executed
    /// instruction, until speculation must stop: the iteration boundary is
    /// reached, the episode's own `SPT_KILL` executes (it is re-executed by
    /// the main thread, so it gets no record), the spawning frame returns,
    /// a fault, or the trace hits `max_spec_ops`.
    ///
    /// `bfunc`/`btarget`/`depth0` identify the iteration boundary (the spawn
    /// header at the spawn depth); `tag` is the episode's loop tag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn_super(
        &mut self,
        spec: &mut Thread,
        bfunc: FuncId,
        btarget: BlockId,
        depth0: usize,
        tag: u32,
        spec_cycle: &mut u64,
        trace: &mut Vec<ExecRecord>,
    ) {
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
            let df = self.decoded.func(func_id);
            let sf = self.sup.func(func_id);
            let sb = &sf.blocks[frame.block.index()];
            // One record per executed instruction, at the speculative core's
            // clock after charging `lat`.
            macro_rules! record {
                ($inst:expr, $result:expr, $store:expr, $lat:expr) => {{
                    let lat: u64 = $lat;
                    *spec_cycle += lat;
                    trace.push(ExecRecord {
                        func: func_id,
                        inst: $inst,
                        result: $result,
                        store: $store,
                        latency: lat,
                        cycle_end: *spec_cycle,
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
            for &(slot, bits) in sb.consts.iter() {
                frame.values[slot as usize] = bits;
            }
            let mut idx = if frame.pos < frame.end {
                sf.op_at[frame.pos as usize] as usize
            } else {
                sb.range.1 as usize - 1
            };
            loop {
                let s = &sf.ops[idx];
                let m = &sf.meta[idx];
                // Elided constant defs in body order: the gap to each op's
                // stream position is the run crossed before it.
                while frame.pos < m.pos {
                    full!();
                    let inst = df.stream[frame.pos as usize];
                    frame.pos += 1;
                    record!(inst, Some(frame.values[inst.index()]), None, 0);
                }
                full!();
                match s.opc {
                    SOpc::Param
                    | SOpc::ConstV
                    | SOpc::FoldedDef
                    | SOpc::AddRR
                    | SOpc::AddImm
                    | SOpc::SubRR
                    | SOpc::SubImm
                    | SOpc::RsbImm
                    | SOpc::MulRR
                    | SOpc::MulImm
                    | SOpc::BinRR
                    | SOpc::BinImm
                    | SOpc::BinImmL
                    | SOpc::BinF64RR
                    | SOpc::BinF64Imm
                    | SOpc::BinF64ImmL
                    | SOpc::UnI64
                    | SOpc::UnF64
                    | SOpc::IntToFloat
                    | SOpc::FloatToInt
                    | SOpc::Copy
                    | SOpc::CmpRR
                    | SOpc::CmpImm
                    | SOpc::CmpF64RR
                    | SOpc::CmpF64Imm => {
                        let def = pure_def(s, &frame.values, &frame.args);
                        frame.values[m.inst.index()] = def;
                        frame.pos += 1;
                        record!(m.inst, Some(def), None, u64::from(m.lat));
                        idx += 1;
                    }
                    SOpc::Fuse2 | SOpc::Fuse2II | SOpc::Fuse2IR | SOpc::Fuse2IRr => {
                        let r = fuse2_r(s, &frame.values);
                        frame.values[m.inst.index()] = r as u64;
                        frame.pos += 1;
                        record!(m.inst, Some(r as u64), None, u64::from(m.lat));
                        full!();
                        let v = fuse2_v(s, &frame.values, r) as u64;
                        frame.values[m.inst2.index()] = v;
                        frame.pos += 1;
                        record!(m.inst2, Some(v), None, u64::from(m.lat2));
                        idx += 2;
                    }
                    SOpc::Load | SOpc::LoadImm => {
                        let cell = if s.opc == SOpc::Load {
                            frame.values[s.a as usize] as i64
                        } else {
                            s.imm as i64
                        };
                        let Ok(v) = view.read(cell) else { return };
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        record!(m.inst, Some(v), None, self.cache.access(cell as u64).max(1));
                        idx += 1;
                    }
                    SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                        let (cell, bits) = store_operands(s, &frame.values);
                        if view.write(cell, bits).is_err() {
                            return;
                        }
                        frame.pos += 1;
                        let lat = self.cache.access(cell as u64).clamp(1, 4);
                        record!(m.inst, None, Some((cell, bits)), lat);
                        idx += 1;
                    }
                    SOpc::LoadBin | SOpc::LoadBinImm => {
                        let cell = frame.values[s.a as usize] as i64;
                        let Ok(v) = view.read(cell) else { return };
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        record!(m.inst, Some(v), None, self.cache.access(cell as u64).max(1));
                        full!();
                        let r = load_bin(s, &frame.values, v);
                        frame.values[m.inst2.index()] = r;
                        frame.pos += 1;
                        record!(m.inst2, Some(r), None, u64::from(m.lat2));
                        idx += 2;
                    }
                    SOpc::BinStore | SOpc::BinStoreImm => {
                        let r = bin_ri(s, &frame.values, s.opc == SOpc::BinStore);
                        frame.values[m.inst.index()] = r;
                        frame.pos += 1;
                        record!(m.inst, Some(r), None, u64::from(m.lat));
                        full!();
                        let cell = frame.values[s.aux as usize] as i64;
                        if view.write(cell, r).is_err() {
                            return;
                        }
                        frame.pos += 1;
                        let lat2 = self.cache.access(cell as u64).clamp(1, 4);
                        record!(m.inst2, None, Some((cell, r)), lat2);
                        idx += 2;
                    }
                    SOpc::AgenLoad | SOpc::AgenLoadImm => {
                        let cell = bin_ri(s, &frame.values, s.opc == SOpc::AgenLoad);
                        frame.values[m.inst.index()] = cell;
                        frame.pos += 1;
                        record!(m.inst, Some(cell), None, u64::from(m.lat));
                        full!();
                        let Ok(v) = view.read(cell as i64) else {
                            return;
                        };
                        frame.values[m.inst2.index()] = v;
                        frame.pos += 1;
                        record!(m.inst2, Some(v), None, self.cache.access(cell).max(1));
                        idx += 2;
                    }
                    SOpc::AgenStore | SOpc::AgenStoreImm => {
                        let cell = bin_ri(s, &frame.values, s.opc == SOpc::AgenStore);
                        frame.values[m.inst.index()] = cell;
                        frame.pos += 1;
                        record!(m.inst, Some(cell), None, u64::from(m.lat));
                        full!();
                        let bits = frame.values[s.aux as usize];
                        if view.write(cell as i64, bits).is_err() {
                            return;
                        }
                        frame.pos += 1;
                        let lat2 = self.cache.access(cell).clamp(1, 4);
                        record!(m.inst2, None, Some((cell as i64, bits)), lat2);
                        idx += 2;
                    }
                    SOpc::Jump => {
                        transfer(frame, df, s.t1);
                        record!(m.inst, None, None, u64::from(m.lat));
                        if func_id == bfunc && s.t1 == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::BinJump | SOpc::BinImmJump => {
                        let v = bin_ri(s, &frame.values, s.opc == SOpc::BinJump);
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        record!(m.inst, Some(v), None, u64::from(m.lat));
                        full!();
                        transfer(frame, df, s.t1);
                        record!(m.inst2, None, None, u64::from(m.lat2));
                        if func_id == bfunc && s.t1 == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::Branch | SOpc::BranchImm => {
                        let taken = if s.opc == SOpc::Branch {
                            frame.values[s.a as usize] != 0
                        } else {
                            s.imm != 0
                        };
                        let target = if taken { s.t1 } else { s.t2 };
                        let mut lat = u64::from(m.lat);
                        if self.predictor.mispredicted(func_id, m.inst, taken) {
                            lat += self.config.branch_mispredict_penalty;
                        }
                        transfer(frame, df, target);
                        record!(m.inst, None, None, lat);
                        if func_id == bfunc && target == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::CmpBr | SOpc::CmpBrImm => {
                        let taken = cmp_br(s, &frame.values);
                        frame.values[m.inst.index()] = taken as u64;
                        frame.pos += 1;
                        record!(m.inst, Some(taken as u64), None, u64::from(m.lat));
                        full!();
                        let target = if taken { s.t1 } else { s.t2 };
                        let mut lat2 = u64::from(m.lat2);
                        if self.predictor.mispredicted(func_id, m.inst2, taken) {
                            lat2 += self.config.branch_mispredict_penalty;
                        }
                        transfer(frame, df, target);
                        record!(m.inst2, None, None, lat2);
                        if func_id == bfunc && target == btarget && depth == depth0 {
                            return;
                        }
                        continue 'outer;
                    }
                    SOpc::RetVal | SOpc::RetImm | SOpc::RetVoid => {
                        let bits = match s.opc {
                            SOpc::RetVal => Some(frame.values[s.a as usize]),
                            SOpc::RetImm => Some(s.imm),
                            _ => None,
                        };
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
                            .push_call(self.decoded, callee, args, InstId(s.dst))
                            .is_err()
                        {
                            return;
                        }
                        record!(m.inst, None, None, u64::from(m.lat));
                        let entry = self.decoded.func(callee).entry;
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
        // Checked before every replayed instruction.
        macro_rules! guard {
            () => {
                if rp.finished.is_some()
                    || rp.k >= trace.len()
                    || trace[rp.k].cycle_end > rp.arrival
                {
                    return Ok(());
                }
            };
        }
        'outer: loop {
            guard!();
            let Some(frame) = thread.frames.last_mut() else {
                return Ok(());
            };
            let func_id = frame.func;
            let df = self.decoded.func(func_id);
            let sf = self.sup.func(func_id);
            let sb = &sf.blocks[frame.block.index()];

            while frame.pending_head < frame.pending.len() {
                guard!();
                let (phi, bits) = frame.pending[frame.pending_head];
                frame.pending_head += 1;
                frame.values[phi.index()] = bits;
                self.replay_commit(trace, rp, func_id, phi, Some(bits), None, 0);
            }
            for &(slot, bits) in sb.consts.iter() {
                frame.values[slot as usize] = bits;
            }
            let mut idx = if frame.pos < frame.end {
                sf.op_at[frame.pos as usize] as usize
            } else {
                sb.range.1 as usize - 1
            };
            loop {
                let s = &sf.ops[idx];
                let m = &sf.meta[idx];
                while frame.pos < m.pos {
                    guard!();
                    let inst = df.stream[frame.pos as usize];
                    frame.pos += 1;
                    let bits = frame.values[inst.index()];
                    self.replay_commit(trace, rp, func_id, inst, Some(bits), None, 0);
                }
                guard!();
                let lat = u64::from(m.lat);
                let lat2 = u64::from(m.lat2);
                match s.opc {
                    SOpc::Param
                    | SOpc::ConstV
                    | SOpc::FoldedDef
                    | SOpc::AddRR
                    | SOpc::AddImm
                    | SOpc::SubRR
                    | SOpc::SubImm
                    | SOpc::RsbImm
                    | SOpc::MulRR
                    | SOpc::MulImm
                    | SOpc::BinRR
                    | SOpc::BinImm
                    | SOpc::BinImmL
                    | SOpc::BinF64RR
                    | SOpc::BinF64Imm
                    | SOpc::BinF64ImmL
                    | SOpc::UnI64
                    | SOpc::UnF64
                    | SOpc::IntToFloat
                    | SOpc::FloatToInt
                    | SOpc::Copy
                    | SOpc::CmpRR
                    | SOpc::CmpImm
                    | SOpc::CmpF64RR
                    | SOpc::CmpF64Imm => {
                        let def = pure_def(s, &frame.values, &frame.args);
                        frame.values[m.inst.index()] = def;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(def), None, lat);
                        idx += 1;
                    }
                    SOpc::Fuse2 | SOpc::Fuse2II | SOpc::Fuse2IR | SOpc::Fuse2IRr => {
                        let r = fuse2_r(s, &frame.values);
                        frame.values[m.inst.index()] = r as u64;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(r as u64), None, lat);
                        guard!();
                        let v = fuse2_v(s, &frame.values, r) as u64;
                        frame.values[m.inst2.index()] = v;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst2, Some(v), None, lat2);
                        idx += 2;
                    }
                    SOpc::Load | SOpc::LoadImm => {
                        let cell = if s.opc == SOpc::Load {
                            frame.values[s.a as usize] as i64
                        } else {
                            s.imm as i64
                        };
                        let v = self.read(cell)?;
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(v), None, lat);
                        idx += 1;
                    }
                    SOpc::StoreRR | SOpc::StoreRI | SOpc::StoreIR | SOpc::StoreII => {
                        let (cell, bits) = store_operands(s, &frame.values);
                        self.write(cell, bits)?;
                        frame.pos += 1;
                        self.replay_commit(
                            trace,
                            rp,
                            func_id,
                            m.inst,
                            None,
                            Some((cell, bits)),
                            lat,
                        );
                        idx += 1;
                    }
                    SOpc::LoadBin | SOpc::LoadBinImm => {
                        let v = self.read(frame.values[s.a as usize] as i64)?;
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(v), None, lat);
                        guard!();
                        let r = load_bin(s, &frame.values, v);
                        frame.values[m.inst2.index()] = r;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst2, Some(r), None, lat2);
                        idx += 2;
                    }
                    SOpc::BinStore | SOpc::BinStoreImm => {
                        let r = bin_ri(s, &frame.values, s.opc == SOpc::BinStore);
                        frame.values[m.inst.index()] = r;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(r), None, lat);
                        guard!();
                        let cell = frame.values[s.aux as usize] as i64;
                        self.write(cell, r)?;
                        frame.pos += 1;
                        self.replay_commit(
                            trace,
                            rp,
                            func_id,
                            m.inst2,
                            None,
                            Some((cell, r)),
                            lat2,
                        );
                        idx += 2;
                    }
                    SOpc::AgenLoad | SOpc::AgenLoadImm => {
                        let cell = bin_ri(s, &frame.values, s.opc == SOpc::AgenLoad);
                        frame.values[m.inst.index()] = cell;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(cell), None, lat);
                        guard!();
                        let v = self.read(cell as i64)?;
                        frame.values[m.inst2.index()] = v;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst2, Some(v), None, lat2);
                        idx += 2;
                    }
                    SOpc::AgenStore | SOpc::AgenStoreImm => {
                        let cell = bin_ri(s, &frame.values, s.opc == SOpc::AgenStore);
                        frame.values[m.inst.index()] = cell;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(cell), None, lat);
                        guard!();
                        let bits = frame.values[s.aux as usize];
                        self.write(cell as i64, bits)?;
                        frame.pos += 1;
                        let store = Some((cell as i64, bits));
                        self.replay_commit(trace, rp, func_id, m.inst2, None, store, lat2);
                        idx += 2;
                    }
                    SOpc::Jump => {
                        transfer(frame, df, s.t1);
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::BinJump | SOpc::BinImmJump => {
                        let v = bin_ri(s, &frame.values, s.opc == SOpc::BinJump);
                        frame.values[m.inst.index()] = v;
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, Some(v), None, lat);
                        guard!();
                        transfer(frame, df, s.t1);
                        self.replay_commit(trace, rp, func_id, m.inst2, None, None, lat2);
                        continue 'outer;
                    }
                    SOpc::Branch | SOpc::BranchImm => {
                        let taken = if s.opc == SOpc::Branch {
                            frame.values[s.a as usize] != 0
                        } else {
                            s.imm != 0
                        };
                        transfer(frame, df, if taken { s.t1 } else { s.t2 });
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::CmpBr | SOpc::CmpBrImm => {
                        let taken = cmp_br(s, &frame.values);
                        frame.values[m.inst.index()] = taken as u64;
                        frame.pos += 1;
                        self.replay_commit(
                            trace,
                            rp,
                            func_id,
                            m.inst,
                            Some(taken as u64),
                            None,
                            lat,
                        );
                        guard!();
                        transfer(frame, df, if taken { s.t1 } else { s.t2 });
                        self.replay_commit(trace, rp, func_id, m.inst2, None, None, lat2);
                        continue 'outer;
                    }
                    SOpc::RetVal | SOpc::RetImm | SOpc::RetVoid => {
                        let bits = match s.opc {
                            SOpc::RetVal => Some(frame.values[s.a as usize]),
                            SOpc::RetImm => Some(s.imm),
                            _ => None,
                        };
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
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        if finished {
                            rp.finished = Some(bits);
                        }
                        continue 'outer;
                    }
                    SOpc::Call => {
                        frame.pos += 1;
                        let args = &sf.args[s.a as usize..(s.a + s.b) as usize];
                        thread.push_call(self.decoded, FuncId(s.aux), args, InstId(s.dst))?;
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        continue 'outer;
                    }
                    SOpc::SptFork => {
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        if s.imm as u32 == rp.tag {
                            rp.pending_fork = true;
                        }
                        idx += 1;
                    }
                    SOpc::SptKill => {
                        frame.pos += 1;
                        self.replay_commit(trace, rp, func_id, m.inst, None, None, lat);
                        let kt = s.imm as u32;
                        self.deactivate(kt);
                        if kt == rp.tag {
                            rp.killed = true;
                            self.loops[rp.ti].1.wasted_insts += (trace.len() - rp.k) as u64;
                            rp.k = trace.len();
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
                            frame.block, df.name
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
