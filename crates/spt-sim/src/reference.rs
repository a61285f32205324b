//! Reference SPT simulator: the original straight-from-the-IR engine, kept
//! as a differential oracle for the superblock engine in
//! [`crate::sim`].
//!
//! Do not optimize this module. Its value is that it walks `InstKind`
//! operands and recomputes loop facts exactly the way the engine did before
//! pre-decoding, so `tests/engine_equivalence.rs` can pin the engine's
//! [`SimResult`] bit-for-bit against it. Everything here is self-contained:
//! it has its own thread, cache, predictor and driver copies, sharing only
//! the public leaf types ([`ExecError`], [`ExecRecord`], [`StepEvent`],
//! [`SimResult`], [`MachineConfig`], [`CacheConfig`]) so results are
//! directly comparable.

use crate::cache::CacheConfig;
use crate::machine::MachineConfig;
use crate::sim::{SimError, SimResult};
use crate::stats::LoopSimStats;
use crate::thread::{ExecError, ExecRecord, StepEvent};
use spt_ir::{BlockId, Cfg, DomTree, FuncId, InstId, InstKind, Module, Operand, Ty};
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// Cache (reference copy)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Level {
    line_cells: usize,
    sets: usize,
    ways: usize,
    /// `tags[set]` = lines in LRU order (front = most recent).
    tags: Vec<Vec<u64>>,
}

impl Level {
    fn new(line_cells: usize, sets: usize, ways: usize) -> Self {
        Level {
            line_cells,
            sets,
            ways,
            tags: vec![Vec::new(); sets],
        }
    }

    fn access(&mut self, cell: u64) -> bool {
        let line = cell / self.line_cells as u64;
        let set = (line % self.sets as u64) as usize;
        let lines = &mut self.tags[set];
        if let Some(pos) = lines.iter().position(|&t| t == line) {
            let t = lines.remove(pos);
            lines.insert(0, t);
            true
        } else {
            lines.insert(0, line);
            lines.truncate(self.ways);
            false
        }
    }
}

#[derive(Clone, Debug)]
struct RefCache {
    l1: Level,
    l2: Level,
    config: CacheConfig,
    accesses: u64,
    l1_hits: u64,
    l2_hits: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            l1: Level::new(config.l1_line_cells, config.l1_sets, config.l1_ways),
            l2: Level::new(config.l2_line_cells, config.l2_sets, config.l2_ways),
            config,
            accesses: 0,
            l1_hits: 0,
            l2_hits: 0,
        }
    }

    fn access(&mut self, cell: u64) -> u64 {
        self.accesses += 1;
        if self.l1.access(cell) {
            self.l1_hits += 1;
            self.config.l1_latency
        } else if self.l2.access(cell) {
            self.l2_hits += 1;
            self.config.l2_latency
        } else {
            self.config.memory_latency
        }
    }

    fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / self.accesses as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Branch predictor (reference copy)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct RefPredictor {
    table: HashMap<(FuncId, InstId), u8>,
    predictions: u64,
    mispredictions: u64,
}

impl RefPredictor {
    fn mispredicted(&mut self, func: FuncId, inst: InstId, taken: bool) -> bool {
        let counter = self.table.entry((func, inst)).or_insert(2);
        let predicted_taken = *counter >= 2;
        if taken && *counter < 3 {
            *counter += 1;
        } else if !taken && *counter > 0 {
            *counter -= 1;
        }
        self.predictions += 1;
        let miss = predicted_taken != taken;
        if miss {
            self.mispredictions += 1;
        }
        miss
    }

    fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Thread (reference copy)
// ---------------------------------------------------------------------------

enum MemView<'a> {
    Direct(&'a mut Vec<u64>),
    Overlay {
        base: &'a [u64],
        buf: &'a mut HashMap<u64, u64>,
        cap: usize,
    },
}

impl MemView<'_> {
    fn read(&self, cell: i64) -> Result<u64, ExecError> {
        let idx = usize::try_from(cell).map_err(|_| ExecError::OutOfBounds(cell))?;
        match self {
            MemView::Direct(m) => m.get(idx).copied().ok_or(ExecError::OutOfBounds(cell)),
            MemView::Overlay { base, buf, .. } => match buf.get(&(idx as u64)) {
                Some(&v) => Ok(v),
                None => base.get(idx).copied().ok_or(ExecError::OutOfBounds(cell)),
            },
        }
    }

    fn write(&mut self, cell: i64, bits: u64) -> Result<(), ExecError> {
        let idx = usize::try_from(cell).map_err(|_| ExecError::OutOfBounds(cell))?;
        match self {
            MemView::Direct(m) => {
                let slot = m.get_mut(idx).ok_or(ExecError::OutOfBounds(cell))?;
                *slot = bits;
                Ok(())
            }
            MemView::Overlay { base, buf, cap } => {
                if idx >= base.len() {
                    return Err(ExecError::OutOfBounds(cell));
                }
                if buf.len() >= *cap && !buf.contains_key(&(idx as u64)) {
                    return Err(ExecError::SpecBufferFull);
                }
                buf.insert(idx as u64, bits);
                Ok(())
            }
        }
    }
}

struct Timing<'a> {
    cycle: &'a mut u64,
    cache: &'a mut RefCache,
    predictor: &'a mut RefPredictor,
    mispredict_penalty: u64,
}

#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    values: Vec<u64>,
    args: Vec<u64>,
    block: BlockId,
    pos: usize,
    ret_slot: Option<InstId>,
    pending_phis: VecDeque<(InstId, u64)>,
}

struct Thread {
    frames: Vec<Frame>,
    max_depth: usize,
}

impl Thread {
    fn start(module: &Module, func: FuncId, args: Vec<u64>) -> Self {
        let f = module.func(func);
        Thread {
            frames: vec![Frame {
                func,
                values: vec![0; f.insts.len()],
                args,
                block: f.entry,
                pos: 0,
                ret_slot: None,
                pending_phis: VecDeque::new(),
            }],
            max_depth: 256,
        }
    }

    fn start_spec(
        module: &Module,
        func: FuncId,
        context: &[u64],
        args: Vec<u64>,
        header: BlockId,
        latch: BlockId,
    ) -> Self {
        let f = module.func(func);
        let mut frame = Frame {
            func,
            values: context.to_vec(),
            args,
            block: header,
            pos: 0,
            ret_slot: None,
            pending_phis: VecDeque::new(),
        };
        let mut nphis = 0;
        let mut pending = Vec::new();
        for &i in &f.block(header).insts {
            if let InstKind::Phi { args } = &f.inst(i).kind {
                nphis += 1;
                let v = args
                    .iter()
                    .find(|(p, _)| *p == latch)
                    .map(|(_, op)| read_operand(*op, &frame.values))
                    .unwrap_or(0);
                pending.push((i, v));
            } else {
                break;
            }
        }
        frame.pos = nphis;
        frame.pending_phis = pending.into();
        Thread {
            frames: vec![frame],
            max_depth: 256,
        }
    }

    fn current_func(&self) -> FuncId {
        self.frames.last().expect("live thread").func
    }

    fn depth(&self) -> usize {
        self.frames.len()
    }

    fn context(&self) -> (Vec<u64>, Vec<u64>) {
        let f = self.frames.last().expect("live thread");
        (f.values.clone(), f.args.clone())
    }

    fn step(
        &mut self,
        module: &Module,
        region_bases: &[usize],
        mem: &mut MemView<'_>,
        mut timing: Option<&mut Timing<'_>>,
    ) -> Result<(ExecRecord, StepEvent), ExecError> {
        let depth = self.frames.len();
        let frame = self
            .frames
            .last_mut()
            .ok_or_else(|| ExecError::Malformed("step on finished thread".into()))?;
        let func_id = frame.func;
        let f = module.func(func_id);

        if let Some((phi, bits)) = frame.pending_phis.pop_front() {
            frame.values[phi.index()] = bits;
            let cycle_end = timing.as_ref().map(|t| *t.cycle).unwrap_or(0);
            return Ok((
                ExecRecord {
                    func: func_id,
                    inst: phi,
                    result: Some(bits),
                    store: None,
                    latency: 0,
                    cycle_end,
                },
                StepEvent::Continue,
            ));
        }

        let insts = &f.block(frame.block).insts;
        let inst_id = *insts.get(frame.pos).ok_or_else(|| {
            ExecError::Malformed(format!("fell off block {} in {}", frame.block, f.name))
        })?;
        frame.pos += 1;
        let inst = f.inst(inst_id);
        let mut latency = inst.latency();
        let mut result: Option<u64> = None;
        let mut store: Option<(i64, u64)> = None;
        let mut event = StepEvent::Continue;

        macro_rules! op {
            ($o:expr) => {
                read_operand($o, &frame.values)
            };
        }

        match &inst.kind {
            InstKind::Param { index } => {
                let v = frame.args.get(*index).copied().unwrap_or(0);
                frame.values[inst_id.index()] = v;
                result = Some(v);
            }
            InstKind::Binary { op, lhs, rhs } => {
                let (a, b) = (op!(*lhs), op!(*rhs));
                let v = match inst.ty.unwrap_or(Ty::I64) {
                    Ty::I64 => op.eval_i64(a as i64, b as i64) as u64,
                    Ty::F64 => op.eval_f64(f64::from_bits(a), f64::from_bits(b)).to_bits(),
                };
                frame.values[inst_id.index()] = v;
                result = Some(v);
            }
            InstKind::Unary { op, val } => {
                let a = op!(*val);
                let v = match (inst.ty.unwrap_or(Ty::I64), op) {
                    (Ty::F64, spt_ir::UnOp::IntToFloat) => ((a as i64) as f64).to_bits(),
                    (Ty::I64, spt_ir::UnOp::FloatToInt) => (f64::from_bits(a) as i64) as u64,
                    (Ty::I64, _) => op.eval_i64(a as i64) as u64,
                    (Ty::F64, _) => op.eval_f64(f64::from_bits(a)).to_bits(),
                };
                frame.values[inst_id.index()] = v;
                result = Some(v);
            }
            InstKind::Cmp {
                op,
                operand_ty,
                lhs,
                rhs,
            } => {
                let (a, b) = (op!(*lhs), op!(*rhs));
                let t = match operand_ty {
                    Ty::I64 => op.eval_i64(a as i64, b as i64),
                    Ty::F64 => op.eval_f64(f64::from_bits(a), f64::from_bits(b)),
                };
                let v = t as u64;
                frame.values[inst_id.index()] = v;
                result = Some(v);
            }
            InstKind::Copy { val } => {
                let v = op!(*val);
                frame.values[inst_id.index()] = v;
                result = Some(v);
            }
            InstKind::Phi { .. } => {
                return Err(ExecError::Malformed(format!(
                    "unscheduled phi {inst_id} executed directly"
                )));
            }
            InstKind::RegionBase { region } => {
                let base = if region.is_unknown() {
                    0
                } else {
                    region_bases[region.index()] as u64
                };
                frame.values[inst_id.index()] = base;
                result = Some(base);
            }
            InstKind::Load { addr, .. } => {
                let cell = op!(*addr) as i64;
                let v = mem.read(cell)?;
                frame.values[inst_id.index()] = v;
                result = Some(v);
                if let Some(t) = timing.as_mut() {
                    latency = t.cache.access(cell as u64).max(1);
                }
            }
            InstKind::Store { addr, val, .. } => {
                let cell = op!(*addr) as i64;
                let bits = op!(*val);
                mem.write(cell, bits)?;
                store = Some((cell, bits));
                if let Some(t) = timing.as_mut() {
                    latency = t.cache.access(cell as u64).clamp(1, 4);
                }
            }
            InstKind::Call { callee, args } => {
                if depth >= self.max_depth {
                    return Err(ExecError::StackOverflow);
                }
                let callee_func = module.func(*callee);
                let call_args: Vec<u64> = args.iter().map(|a| op!(*a)).collect();
                let new_frame = Frame {
                    func: *callee,
                    values: vec![0; callee_func.insts.len()],
                    args: call_args,
                    block: callee_func.entry,
                    pos: 0,
                    ret_slot: Some(inst_id),
                    pending_phis: VecDeque::new(),
                };
                self.frames.push(new_frame);
                event = StepEvent::Transfer {
                    to: callee_func.entry,
                    func: *callee,
                };
            }
            InstKind::VarLoad { .. } | InstKind::VarStore { .. } => {
                return Err(ExecError::Malformed("non-SSA IR in simulator".into()));
            }
            InstKind::Jump { target } => {
                let target = *target;
                transfer(frame, f, target);
                event = StepEvent::Transfer {
                    to: target,
                    func: func_id,
                };
            }
            InstKind::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = op!(*cond) != 0;
                let target = if taken { *then_bb } else { *else_bb };
                if let Some(t) = timing.as_mut() {
                    if t.predictor.mispredicted(func_id, inst_id, taken) {
                        latency += t.mispredict_penalty;
                    }
                }
                transfer(frame, f, target);
                event = StepEvent::Transfer {
                    to: target,
                    func: func_id,
                };
            }
            InstKind::Ret { val } => {
                let bits = val.map(|v| op!(v));
                let ret_slot = frame.ret_slot;
                self.frames.pop();
                match self.frames.last_mut() {
                    Some(parent) => {
                        if let (Some(slot), Some(bits)) = (ret_slot, bits) {
                            parent.values[slot.index()] = bits;
                        }
                        event = StepEvent::Transfer {
                            to: parent.block,
                            func: parent.func,
                        };
                    }
                    None => {
                        event = StepEvent::Finished { value: bits };
                    }
                }
            }
            InstKind::SptFork {
                loop_tag,
                spawn_target,
            } => {
                event = StepEvent::Fork {
                    tag: *loop_tag,
                    target: *spawn_target,
                    func: func_id,
                };
            }
            InstKind::SptKill { loop_tag } => {
                event = StepEvent::Kill { tag: *loop_tag };
            }
        }

        let cycle_end = match timing.as_mut() {
            Some(t) => {
                *t.cycle += latency;
                *t.cycle
            }
            None => 0,
        };
        Ok((
            ExecRecord {
                func: func_id,
                inst: inst_id,
                result,
                store,
                latency,
                cycle_end,
            },
            event,
        ))
    }
}

fn transfer(frame: &mut Frame, f: &spt_ir::Function, target: BlockId) {
    let from = frame.block;
    let mut pending = Vec::new();
    let mut nphis = 0;
    for &i in &f.block(target).insts {
        if let InstKind::Phi { args } = &f.inst(i).kind {
            nphis += 1;
            let v = args
                .iter()
                .find(|(p, _)| *p == from)
                .map(|(_, op)| read_operand(*op, &frame.values))
                .unwrap_or(0);
            pending.push((i, v));
        } else {
            break;
        }
    }
    frame.block = target;
    frame.pos = nphis;
    frame.pending_phis = pending.into();
}

#[inline]
fn read_operand(op: Operand, values: &[u64]) -> u64 {
    match op {
        Operand::Inst(id) => values[id.index()],
        Operand::ConstI64(v) => v as u64,
        Operand::ConstF64Bits(b) => b,
    }
}

// ---------------------------------------------------------------------------
// Driver (reference copy)
// ---------------------------------------------------------------------------

struct Episode {
    tag: u32,
    spawn_func: FuncId,
    spawn_target: BlockId,
    depth: usize,
    trace: Vec<ExecRecord>,
}

/// The reference SPT machine simulator, behaviorally identical to
/// [`SptSimulator`](crate::SptSimulator) before pre-decoding.
pub struct ReferenceSimulator {
    /// Machine parameters.
    pub config: MachineConfig,
}

impl ReferenceSimulator {
    /// A reference simulator with the paper's default machine.
    pub fn new() -> Self {
        ReferenceSimulator {
            config: MachineConfig::default(),
        }
    }

    /// A reference simulator with custom parameters.
    pub fn with_config(config: MachineConfig) -> Self {
        ReferenceSimulator { config }
    }

    /// Runs `entry(args)` with the module's initial memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on unknown entry, program faults or fuel
    /// exhaustion.
    pub fn run(&self, module: &Module, entry: &str, args: &[i64]) -> Result<SimResult, SimError> {
        let (bases, size) = module.memory_layout();
        let mut memory = vec![0u64; size];
        for (gi, g) in module.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                for (k, &b) in init.iter().take(g.size).enumerate() {
                    memory[bases[gi] + k] = b;
                }
            }
        }
        self.run_with_memory(module, entry, args, memory)
    }

    /// Runs with a caller-provided memory image.
    ///
    /// # Errors
    ///
    /// See [`ReferenceSimulator::run`].
    pub fn run_with_memory(
        &self,
        module: &Module,
        entry: &str,
        args: &[i64],
        memory: Vec<u64>,
    ) -> Result<SimResult, SimError> {
        let func = module
            .func_by_name(entry)
            .ok_or_else(|| SimError::NoSuchFunction(entry.to_string()))?;
        let (bases, _) = module.memory_layout();
        Run {
            module,
            bases,
            config: &self.config,
            memory,
            cycle: 0,
            insts: 0,
            cache: RefCache::new(self.config.cache.clone()),
            predictor: RefPredictor::default(),
            loops: HashMap::new(),
            active_tags: Vec::new(),
            latch_cache: HashMap::new(),
        }
        .run(func, args)
    }
}

impl Default for ReferenceSimulator {
    fn default() -> Self {
        Self::new()
    }
}

struct Run<'m> {
    module: &'m Module,
    bases: Vec<usize>,
    config: &'m MachineConfig,
    memory: Vec<u64>,
    cycle: u64,
    insts: u64,
    cache: RefCache,
    predictor: RefPredictor,
    loops: HashMap<u32, LoopSimStats>,
    active_tags: Vec<(u32, u64)>,
    latch_cache: HashMap<(FuncId, BlockId), Option<BlockId>>,
}

impl Run<'_> {
    fn run(mut self, func: FuncId, args: &[i64]) -> Result<SimResult, SimError> {
        let mut thread = Thread::start(self.module, func, args.iter().map(|&a| a as u64).collect());
        thread.max_depth = self.config.max_depth;
        let mut episode: Option<Episode> = None;

        let ret = loop {
            if self.insts > self.config.fuel {
                return Err(SimError::OutOfFuel);
            }
            let rec_event = {
                let mut view = MemView::Direct(&mut self.memory);
                let mut timing = Timing {
                    cycle: &mut self.cycle,
                    cache: &mut self.cache,
                    predictor: &mut self.predictor,
                    mispredict_penalty: self.config.branch_mispredict_penalty,
                };
                thread.step(self.module, &self.bases, &mut view, Some(&mut timing))?
            };
            let (rec, event) = rec_event;
            self.insts += 1;
            self.attribute_main(&rec);

            match event {
                StepEvent::Continue => {}
                StepEvent::Fork { tag, target, func } => {
                    if episode.is_none() {
                        self.activate(tag);
                        episode = Some(self.spawn(&thread, func, target, tag));
                    }
                }
                StepEvent::Kill { tag } => {
                    if let Some(ep) = &episode {
                        if ep.tag == tag {
                            let wasted = ep.trace.len() as u64;
                            let s = self.loops.entry(tag).or_default();
                            s.kills += 1;
                            s.wasted_insts += wasted;
                            episode = None;
                        }
                    }
                    self.deactivate(tag);
                }
                StepEvent::Transfer { to, func } => {
                    let matches = episode.as_ref().is_some_and(|ep| {
                        ep.spawn_func == func && ep.spawn_target == to && ep.depth == thread.depth()
                    });
                    if matches {
                        let ep = episode.take().expect("matched episode");
                        let (next, finished) = self.validate(&mut thread, ep)?;
                        episode = next;
                        if let Some(value) = finished {
                            break value;
                        }
                    }
                }
                StepEvent::Finished { value } => break value,
            }
        };

        let cycle = self.cycle;
        while let Some((tag, entered)) = self.active_tags.pop() {
            self.loops.entry(tag).or_default().loop_cycles += cycle - entered;
        }

        Ok(SimResult {
            ret,
            cycles: self.cycle,
            insts: self.insts,
            memory: self.memory,
            loops: self.loops,
            cache_hit_rate: self.cache.hit_rate(),
            branch_miss_rate: self.predictor.miss_rate(),
        })
    }

    fn activate(&mut self, tag: u32) {
        if !self.active_tags.iter().any(|&(t, _)| t == tag) {
            self.active_tags.push((tag, self.cycle));
            self.loops.entry(tag).or_default();
        }
    }

    fn deactivate(&mut self, tag: u32) {
        if let Some(pos) = self.active_tags.iter().position(|&(t, _)| t == tag) {
            let (_, entered) = self.active_tags.remove(pos);
            self.loops.entry(tag).or_default().loop_cycles += self.cycle - entered;
        }
    }

    fn attribute_main(&mut self, rec: &ExecRecord) {
        for &(tag, _) in &self.active_tags {
            let s = self.loops.entry(tag).or_default();
            s.main_insts += 1;
            s.seq_cycles += rec.latency;
        }
    }

    fn attribute_committed(&mut self, latency: u64) {
        for &(tag, _) in &self.active_tags {
            self.loops.entry(tag).or_default().seq_cycles += latency;
        }
    }

    fn latch_of(&mut self, func: FuncId, header: BlockId) -> Option<BlockId> {
        let module = self.module;
        *self.latch_cache.entry((func, header)).or_insert_with(|| {
            let f = module.func(func);
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            cfg.preds(header)
                .iter()
                .copied()
                .find(|&p| dom.dominates(header, p))
        })
    }

    fn spawn(&mut self, main: &Thread, func: FuncId, target: BlockId, tag: u32) -> Episode {
        self.cycle += self.config.fork_overhead;
        self.loops.entry(tag).or_default().forks += 1;

        let main_depth = main.depth();
        let (context, args) = main.context();
        let latch = self.latch_of(func, target).unwrap_or(target);
        let mut spec = Thread::start_spec(self.module, func, &context, args, target, latch);
        spec.max_depth = self.config.max_depth;

        let mut buf: HashMap<u64, u64> = HashMap::new();
        let mut spec_cycle = self.cycle;
        let mut trace: Vec<ExecRecord> = Vec::new();
        let depth0 = spec.depth();

        loop {
            if trace.len() >= self.config.max_spec_ops {
                break;
            }
            let step = {
                let mut view = MemView::Overlay {
                    base: &self.memory,
                    buf: &mut buf,
                    cap: self.config.spec_buffer_entries,
                };
                let mut timing = Timing {
                    cycle: &mut spec_cycle,
                    cache: &mut self.cache,
                    predictor: &mut self.predictor,
                    mispredict_penalty: self.config.branch_mispredict_penalty,
                };
                spec.step(self.module, &self.bases, &mut view, Some(&mut timing))
            };
            match step {
                Ok((rec, event)) => match event {
                    StepEvent::Transfer { to, func: tf }
                        if tf == func && to == target && spec.depth() == depth0 =>
                    {
                        trace.push(rec);
                        break;
                    }
                    StepEvent::Kill { tag: kt } if kt == tag => {
                        break;
                    }
                    StepEvent::Fork { .. } => {
                        trace.push(rec);
                    }
                    StepEvent::Finished { .. } => {
                        break;
                    }
                    _ => trace.push(rec),
                },
                Err(_) => break,
            }
        }
        Episode {
            tag,
            spawn_func: func,
            spawn_target: target,
            depth: main_depth,
            trace,
        }
    }

    #[allow(clippy::type_complexity)]
    fn validate(
        &mut self,
        thread: &mut Thread,
        ep: Episode,
    ) -> Result<(Option<Episode>, Option<Option<u64>>), SimError> {
        let arrival = self.cycle;
        let stats = self.loops.entry(ep.tag).or_default();
        stats.commits += 1;

        let mut k = 0usize;
        let mut pending_fork = false;
        let mut killed = false;
        let mut finished: Option<Option<u64>> = None;

        while k < ep.trace.len() && ep.trace[k].cycle_end <= arrival {
            let expected = &ep.trace[k];
            let step = {
                let mut view = MemView::Direct(&mut self.memory);
                thread.step(self.module, &self.bases, &mut view, None)?
            };
            let (rec, event) = step;
            self.insts += 1;

            let same_site = rec.func == expected.func && rec.inst == expected.inst;
            if same_site {
                let equal = rec.result == expected.result && rec.store == expected.store;
                let s = self.loops.entry(ep.tag).or_default();
                if equal {
                    s.free_insts += 1;
                } else {
                    s.reexec_insts += 1;
                    s.reexec_cycles += expected.latency.max(1);
                    self.cycle += expected.latency.max(1);
                }
                self.attribute_committed(expected.latency.max(1));
                k += 1;
            } else {
                let s = self.loops.entry(ep.tag).or_default();
                s.reexec_insts += 1;
                s.reexec_cycles += rec.latency.max(1);
                s.wasted_insts += (ep.trace.len() - k) as u64;
                self.cycle += rec.latency.max(1);
                self.attribute_committed(rec.latency.max(1));
                k = ep.trace.len();
            }

            match event {
                StepEvent::Fork { tag, .. } if tag == ep.tag => pending_fork = true,
                StepEvent::Kill { tag } => {
                    if tag == ep.tag {
                        killed = true;
                    }
                    self.deactivate(tag);
                    if killed {
                        let s = self.loops.entry(ep.tag).or_default();
                        s.wasted_insts += (ep.trace.len() - k) as u64;
                        k = ep.trace.len();
                    }
                }
                StepEvent::Finished { value } => {
                    finished = Some(value);
                    break;
                }
                _ => {}
            }
            if k >= ep.trace.len() {
                break;
            }
        }

        if k < ep.trace.len() {
            let s = self.loops.entry(ep.tag).or_default();
            s.wasted_insts += (ep.trace.len() - k) as u64;
        }

        self.cycle += self.config.commit_overhead;

        if let Some(value) = finished {
            return Ok((None, Some(value)));
        }

        if pending_fork
            && !killed
            && thread.depth() == ep.depth
            && thread.current_func() == ep.spawn_func
        {
            let ep2 = self.spawn(thread, ep.spawn_func, ep.spawn_target, ep.tag);
            return Ok((Some(ep2), None));
        }
        Ok((None, None))
    }
}
