//! The SPT machine simulation driver: episodes, validation and commit.
//!
//! One *episode* is the life of a speculative thread: spawned at `SPT_FORK`
//! with a copy of the main thread's context, it executes the next iteration
//! against the fork-time memory snapshot, buffering writes. Its trace is
//! produced eagerly (deterministically) on the speculative core's own clock.
//! When the main thread arrives at the iteration boundary, the trace prefix
//! that fits the elapsed wall-clock is *validated*: the main thread steps
//! through the same instructions, committing value-identical results for
//! free and re-executing mismatches at full cost; a control divergence
//! discards the rest of the trace. Commit costs
//! [`MachineConfig::commit_overhead`] cycles; if the speculative thread had
//! passed the next `SPT_FORK`, the next episode spawns at commit.
//!
//! A run lowers the module once ([`SuperblockModule::build`]) and every
//! core executes that code; the spawn target's back-edge predecessor and
//! phi rows, lowered beside it, start each speculative thread.

use crate::cache::Cache;
use crate::machine::MachineConfig;
use crate::predictor::BranchPredictor;
use crate::specexec::ReplayState;
use crate::stats::LoopSimStats;
use crate::superexec::SuperStop;
use crate::thread::{ExecError, ExecRecord, SpecBuf, StepEvent, Thread};
use spt_ir::{BlockId, FuncId, Module, SuperblockModule};
use std::collections::HashMap;
use std::fmt;

/// Simulation failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Unknown entry function.
    NoSuchFunction(String),
    /// The (non-speculative) program faulted.
    Exec(ExecError),
    /// Retired-instruction budget exhausted.
    OutOfFuel,
    /// The machine configuration is outside what the simulator can run
    /// ([`MachineConfig::check`]); the message names the field.
    BadMachine(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            SimError::Exec(e) => write!(f, "execution fault: {e}"),
            SimError::OutOfFuel => write!(f, "out of fuel"),
            SimError::BadMachine(msg) => write!(f, "invalid machine configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// The final memory of a run, in one of two forms. The simulators return
/// the whole image; past them — in a store memo, in a daemon reply — only
/// its digest travels, since nothing that reads a result past the
/// simulator reads the image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FinalMemory {
    /// Every word of the final memory, as a direct run returns it.
    Image(Vec<u64>),
    /// The image's [`FinalMemory::digest`].
    Digest(u64),
}

impl FinalMemory {
    /// `spt_ir::codec::word_hash` of the image's little-endian bytes,
    /// whichever form this holds.
    pub fn digest(&self) -> u64 {
        match self {
            FinalMemory::Image(words) => spt_ir::codec::word_hash_words(words),
            FinalMemory::Digest(digest) => *digest,
        }
    }

    /// The image, when this holds one.
    pub fn image(&self) -> Option<&[u64]> {
        match self {
            FinalMemory::Image(words) => Some(words),
            FinalMemory::Digest(_) => None,
        }
    }
}

/// The outcome of a simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Entry function's return value bits.
    pub ret: Option<u64>,
    /// Total main-core cycles.
    pub cycles: u64,
    /// Instructions retired (committed), including free speculative ones.
    pub insts: u64,
    /// Final memory: an image from the simulators, a digest from a memo.
    pub memory: FinalMemory,
    /// Per-loop-tag statistics.
    pub loops: HashMap<u32, LoopSimStats>,
    /// Shared-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Branch-predictor miss rate over the run.
    pub branch_miss_rate: f64,
}

impl SimResult {
    /// Instructions per cycle (the paper's Table 1 metric, at IR-op
    /// granularity).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

struct Episode {
    tag: u32,
    spawn_func: FuncId,
    spawn_target: BlockId,
    depth: usize,
    trace: Vec<ExecRecord>,
}

/// The SPT machine simulator.
pub struct SptSimulator {
    /// Machine parameters.
    pub config: MachineConfig,
}

impl SptSimulator {
    /// A simulator with the paper's default machine.
    pub fn new() -> Self {
        SptSimulator {
            config: MachineConfig::default(),
        }
    }

    /// A simulator with custom parameters.
    pub fn with_config(config: MachineConfig) -> Self {
        SptSimulator { config }
    }

    /// Runs `entry(args)` with the module's initial memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on a machine configuration that fails
    /// [`MachineConfig::check`], unknown entry, program faults or fuel
    /// exhaustion.
    pub fn run(&self, module: &Module, entry: &str, args: &[i64]) -> Result<SimResult, SimError> {
        self.run_with_memory(module, entry, args, module.initial_memory())
    }

    /// Runs with a caller-provided memory image. Every core executes the
    /// module's superblock code; results are bit-identical to
    /// [`ReferenceSimulator`](crate::ReferenceSimulator).
    ///
    /// # Errors
    ///
    /// See [`SptSimulator::run`].
    pub fn run_with_memory(
        &self,
        module: &Module,
        entry: &str,
        args: &[i64],
        memory: Vec<u64>,
    ) -> Result<SimResult, SimError> {
        self.config.check()?;
        let func = module
            .func_by_name(entry)
            .ok_or_else(|| SimError::NoSuchFunction(entry.to_string()))?;
        let sup = SuperblockModule::build(module);
        let run = Run {
            sup: &sup,
            config: &self.config,
            memory,
            cycle: 0,
            insts: 0,
            cache: Cache::new(self.config.cache.clone()),
            predictor: BranchPredictor::new(),
            loops: Vec::new(),
            active_tags: Vec::new(),
            spec_buf: SpecBuf::new(self.config.spec_buffer_entries),
            trace_pool: Vec::new(),
            spec_thread: None,
        };
        run.run(func, args)
    }
}

impl Default for SptSimulator {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) struct Run<'m> {
    /// The module's superblock code, which every core executes.
    pub(crate) sup: &'m SuperblockModule,
    pub(crate) config: &'m MachineConfig,
    pub(crate) memory: Vec<u64>,
    pub(crate) cycle: u64,
    pub(crate) insts: u64,
    pub(crate) cache: Cache,
    pub(crate) predictor: BranchPredictor,
    /// Per-tag loop stats. Tags are few (one per SPT loop), so a
    /// linear-scanned vector beats a hash map in the per-instruction
    /// accounting paths; the final [`SimResult`] map is built once at the
    /// end.
    pub(crate) loops: Vec<(u32, LoopSimStats)>,
    /// `(tag, entry cycle, stats slot)` of loops the main thread is
    /// currently inside. The cached slot index into `loops` makes the
    /// per-instruction attribution a direct indexed add (slots are stable:
    /// `loops` only appends).
    pub(crate) active_tags: Vec<(u32, u64, u32)>,
    /// The speculative store buffer, reset and reused across episodes.
    pub(crate) spec_buf: SpecBuf,
    /// Retired episode traces, recycled to avoid a fresh allocation (and
    /// regrowth) on every fork.
    pub(crate) trace_pool: Vec<Vec<ExecRecord>>,
    /// The speculative core's thread, reused (allocations and all) across
    /// episodes.
    pub(crate) spec_thread: Option<Thread>,
}

impl Run<'_> {
    /// Stats slot for `tag`, created on first touch (insertion-ordered, like
    /// the map it replaced — the final HashMap conversion erases order).
    fn loop_stats(&mut self, tag: u32) -> &mut LoopSimStats {
        match self.loops.iter().position(|&(t, _)| t == tag) {
            Some(i) => &mut self.loops[i].1,
            None => {
                self.loops.push((tag, LoopSimStats::default()));
                &mut self.loops.last_mut().expect("just pushed").1
            }
        }
    }

    /// Returns an episode's trace buffer to the pool for the next fork.
    fn recycle_trace(&mut self, mut trace: Vec<ExecRecord>) {
        trace.clear();
        self.trace_pool.push(trace);
    }
    /// The simulation driver: the main thread advances through
    /// [`Run::run_super`](crate::superexec), which returns only at control
    /// events the episode machinery must see (fork, kill, watched
    /// iteration-boundary transfers, finish) or when the fuel budget is
    /// crossed; speculative spawn and validation replay run through
    /// [`Run::spawn_super`](crate::specexec) and
    /// [`Run::validate_super`](crate::specexec).
    fn run(mut self, func: FuncId, args: &[i64]) -> Result<SimResult, SimError> {
        let mut thread = Thread::start(self.sup, func, args.iter().map(|&a| a as u64).collect());
        thread.max_depth = self.config.max_depth;
        let mut episode: Option<Episode> = None;

        let ret = loop {
            if self.insts > self.config.fuel {
                return Err(SimError::OutOfFuel);
            }
            let watch = episode
                .as_ref()
                .map(|ep| (ep.spawn_func, ep.spawn_target, ep.depth));
            let event = match self.run_super(&mut thread, watch)? {
                SuperStop::Fuel => continue,
                SuperStop::Event(event) => event,
            };

            match event {
                StepEvent::Continue => {}
                StepEvent::Fork { tag, target, func } => {
                    if episode.is_none() {
                        self.activate(tag);
                        episode = Some(self.spawn(&thread, func, target, tag));
                    }
                }
                StepEvent::Kill { tag } => {
                    if episode.as_ref().is_some_and(|ep| ep.tag == tag) {
                        let ep = episode.take().expect("matched episode");
                        let wasted = ep.trace.len() as u64;
                        let s = self.loop_stats(tag);
                        s.kills += 1;
                        s.wasted_insts += wasted;
                        self.recycle_trace(ep.trace);
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

        // Close any still-active loop attributions.
        let cycle = self.cycle;
        while let Some((_, entered, slot)) = self.active_tags.pop() {
            self.loops[slot as usize].1.loop_cycles += cycle - entered;
        }

        Ok(SimResult {
            ret,
            cycles: self.cycle,
            insts: self.insts,
            memory: FinalMemory::Image(self.memory),
            loops: self.loops.into_iter().collect(),
            cache_hit_rate: self.cache.hit_rate(),
            branch_miss_rate: self.predictor.miss_rate(),
        })
    }

    fn activate(&mut self, tag: u32) {
        if !self.active_tags.iter().any(|&(t, _, _)| t == tag) {
            self.loop_stats(tag);
            let slot = self
                .loops
                .iter()
                .position(|&(t, _)| t == tag)
                .expect("slot just touched") as u32;
            self.active_tags.push((tag, self.cycle, slot));
        }
    }

    pub(crate) fn deactivate(&mut self, tag: u32) {
        if let Some(pos) = self.active_tags.iter().position(|&(t, _, _)| t == tag) {
            let (_, entered, slot) = self.active_tags.remove(pos);
            self.loops[slot as usize].1.loop_cycles += self.cycle - entered;
        }
    }

    /// Adds validated (free or re-executed) work to active loops.
    #[inline]
    pub(crate) fn attribute_committed(&mut self, latency: u64) {
        for &(_, _, slot) in &self.active_tags {
            self.loops[slot as usize].1.seq_cycles += latency;
        }
    }

    /// Finds the latch predecessor of `header` in `func` (the in-loop
    /// predecessor), for speculative-thread phi startup: the block's
    /// back-edge fact, lowered with its superblock code.
    fn latch_of(&self, func: FuncId, header: BlockId) -> Option<BlockId> {
        self.sup.func(func).blocks[header.index()].back_pred
    }

    /// Spawns an episode: runs the speculative core eagerly against the
    /// current memory snapshot through [`Run::spawn_super`](crate::specexec),
    /// producing its trace on its own clock.
    fn spawn(&mut self, main: &Thread, func: FuncId, target: BlockId, tag: u32) -> Episode {
        self.cycle += self.config.fork_overhead;
        self.loop_stats(tag).forks += 1;

        let main_depth = main.depth();
        let (context, args) = main.context_ref();
        let latch = self.latch_of(func, target).unwrap_or(target);
        let mut spec = self
            .spec_thread
            .take()
            .unwrap_or_else(|| Thread::start(self.sup, func, Vec::new()));
        spec.restart_spec(self.sup, func, context, args, target, latch);
        spec.max_depth = self.config.max_depth;

        self.spec_buf.reset(self.config.spec_buffer_entries);
        let mut spec_cycle = self.cycle;
        let mut trace: Vec<ExecRecord> = self.trace_pool.pop().unwrap_or_default();
        let depth0 = spec.depth();
        self.spawn_super(
            &mut spec,
            func,
            target,
            depth0,
            tag,
            &mut spec_cycle,
            &mut trace,
        );
        self.spec_thread = Some(spec);
        Episode {
            tag,
            spawn_func: func,
            spawn_target: target,
            depth: main_depth,
            trace,
        }
    }

    /// Validates an episode at the iteration boundary: steps the main thread
    /// through the trace, committing matches for free. Returns the next
    /// episode (if the speculative thread had passed the fork point) and the
    /// program's return value if the thread finished during validation.
    /// The replay itself is [`Run::validate_super`](crate::specexec).
    #[allow(clippy::type_complexity)]
    fn validate(
        &mut self,
        thread: &mut Thread,
        ep: Episode,
    ) -> Result<(Option<Episode>, Option<Option<u64>>), SimError> {
        self.loop_stats(ep.tag).commits += 1;
        let mut rp = ReplayState {
            k: 0,
            // Slot index of `ep.tag`, valid for the whole replay: the stats
            // vector only ever appends.
            ti: self
                .loops
                .iter()
                .position(|&(t, _)| t == ep.tag)
                .expect("slot just touched"),
            arrival: self.cycle,
            tag: ep.tag,
            pending_fork: false,
            killed: false,
            finished: None,
        };

        self.validate_super(thread, &ep.trace, &mut rp)?;

        // Work the speculative core did beyond the catch-up point is wasted.
        if rp.k < ep.trace.len() {
            self.loops[rp.ti].1.wasted_insts += (ep.trace.len() - rp.k) as u64;
        }

        self.cycle += self.config.commit_overhead;
        self.recycle_trace(ep.trace);

        if let Some(value) = rp.finished {
            return Ok((None, Some(value)));
        }

        // Spawn the next episode only when the main thread is back in the
        // loop's own frame (validation may have stopped inside a callee, in
        // which case the context is not the loop's and the fork is dropped).
        if rp.pending_fork
            && !rp.killed
            && thread.depth() == ep.depth
            && thread.current_func() == ep.spawn_func
        {
            let ep2 = self.spawn(thread, ep.spawn_func, ep.spawn_target, ep.tag);
            return Ok((Some(ep2), None));
        }
        Ok((None, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        spt_frontend::compile(src).unwrap()
    }

    #[test]
    fn baseline_module_runs_and_matches_interpreter() {
        let src = "
            global a[64]: int;
            fn main(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    a[i % 64] = i * i;
                    s = s + a[i % 64] % 7;
                }
                return s;
            }
        ";
        let module = compile(src);
        let sim = SptSimulator::new();
        let r = sim.run(&module, "main", &[100]).unwrap();
        let expected = spt_profile::Interp::new(&module)
            .run(
                "main",
                &[spt_profile::Val::from_i64(100)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap(), expected.ret.unwrap().0);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
        assert_eq!(r.memory, FinalMemory::Image(expected.memory));
    }

    #[test]
    fn fuel_guard() {
        let src = "fn main() -> int { let x = 1; while (x > 0) { x = x + 1; } return x; }";
        let module = compile(src);
        let sim = SptSimulator::with_config(MachineConfig {
            fuel: 5000,
            ..MachineConfig::default()
        });
        assert_eq!(
            sim.run(&module, "main", &[]).unwrap_err(),
            SimError::OutOfFuel
        );
    }

    #[test]
    fn unknown_entry() {
        let module = compile("fn main() -> int { return 1; }");
        let sim = SptSimulator::new();
        assert!(matches!(
            sim.run(&module, "nope", &[]),
            Err(SimError::NoSuchFunction(_))
        ));
    }

    /// Hand-transforms a loop with an *empty* partition (only the forced
    /// header-test closure moves): the carried accumulator stays post-fork,
    /// so every speculative iteration misspeculates its accumulator chain —
    /// and validation must both catch it and keep results exact.
    fn force_transform(src: &str, fname: &str) -> Module {
        use spt_cost::dep_graph::{DepGraph, DepGraphConfig, NodeClass, Profiles};
        use spt_transform::{emit_spt_loop, SptLoopSpec};
        let mut module = spt_frontend::compile(src).unwrap();
        let fid = module.func_by_name(fname).unwrap();
        // Minimal pre-fork set: the header-test closure (as the pipeline
        // forces) and nothing else, so every other carried value stays
        // speculative.
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
    fn forced_misspeculation_is_detected_and_repaired() {
        // `s` is carried and stays post-fork: the speculative thread always
        // reads a stale `s`, so its accumulator chain re-executes. The `i`
        // chain is carried too but the header-test closure moves it.
        let src = "
            global sink[64]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    let a = (i * 17 + 3) % 97;
                    let b = (a * a + i) % 211;
                    sink[i % 64] = b;
                    s = s + b % 13;
                    i = i + 1;
                }
                return s;
            }
        ";
        let module = force_transform(src, "f");
        let sim = SptSimulator::new();
        let r = sim.run(&module, "f", &[300]).unwrap();
        // Exactness first.
        let expected = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(300)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap()
            .ret
            .unwrap()
            .0;
        assert_eq!(r.ret.unwrap(), expected);
        let stats = r.loops.get(&9).expect("loop stats");
        assert!(stats.commits > 100, "{stats:?}");
        assert!(
            stats.reexec_insts > 0,
            "stale accumulator must be re-executed: {stats:?}"
        );
        // With only the exit test pre-forked, both the accumulator and the
        // induction chain are stale in the speculative thread, so most
        // instructions re-execute — but the header phi evaluations and the
        // iteration-independent fragments still commit free.
        assert!(stats.free_insts > 0, "{stats:?}");
        assert!(
            stats.misspec_ratio() > 0.3 && stats.misspec_ratio() < 0.95,
            "mostly misspeculating: {stats:?}"
        );
        assert_eq!(stats.forks, stats.commits, "every episode validates");
    }

    #[test]
    fn tiny_spec_buffer_limits_but_never_breaks() {
        let src = "
            global a[512]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    a[i % 512] = i * 3;
                    a[(i + 7) % 512] = i * 5;
                    a[(i + 13) % 512] = i * 7;
                    s = s + a[(i + 1) % 512] % 11;
                    i = i + 1;
                }
                return s;
            }
        ";
        let module = force_transform(src, "f");
        // Overflow on the second store.
        let sim = SptSimulator::with_config(MachineConfig {
            spec_buffer_entries: 1,
            ..MachineConfig::default()
        });
        let r = sim.run(&module, "f", &[200]).unwrap();
        let expected = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(200)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap()
            .ret
            .unwrap()
            .0;
        assert_eq!(
            r.ret.unwrap(),
            expected,
            "overflow must only stop, not corrupt"
        );
    }

    #[test]
    fn spec_ops_cap_shortens_traces() {
        let src = "
            global a[256]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    let x = (i * 31 + 7) % 256;
                    a[x] = x;
                    s = s + a[(x + 3) % 256] % 7 + (x * x) % 13;
                    i = i + 1;
                }
                return s;
            }
        ";
        let module = force_transform(src, "f");
        let run_with_cap = |cap: usize| {
            SptSimulator::with_config(MachineConfig {
                max_spec_ops: cap,
                ..MachineConfig::default()
            })
            .run(&module, "f", &[300])
            .unwrap()
        };
        let tight = run_with_cap(4);
        let loose = run_with_cap(4000);
        assert_eq!(tight.ret, loose.ret);
        let tight_free: u64 = tight.loops.values().map(|s| s.free_insts).sum();
        let loose_free: u64 = loose.loops.values().map(|s| s.free_insts).sum();
        assert!(
            loose_free > tight_free,
            "more headroom commits more: {tight_free} vs {loose_free}"
        );
        assert!(loose.cycles <= tight.cycles, "headroom never slows the run");
    }

    #[test]
    fn control_divergence_discards_speculative_tail() {
        // The branch direction depends on the carried `s` (post-fork), so
        // the speculative thread frequently guesses the wrong arm; the
        // divergence must be caught and the tail discarded.
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
        let sim = SptSimulator::new();
        let r = sim.run(&module, "f", &[400]).unwrap();
        let expected = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(400)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap()
            .ret
            .unwrap()
            .0;
        assert_eq!(r.ret.unwrap(), expected);
        let stats = r.loops.get(&9).expect("stats");
        assert!(
            stats.wasted_insts > 0,
            "wrong-arm speculation must be discarded: {stats:?}"
        );
    }
}
