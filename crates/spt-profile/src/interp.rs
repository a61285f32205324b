//! The IR interpreter.
//!
//! Executes a [`Module`] starting from a named function, with a [`Profiler`]
//! receiving events: block transfers, instruction retirements, memory
//! accesses and loop enter/iterate/exit transitions. The sequential
//! interpreter is the profiling substrate (the paper profiles on hardware;
//! see DESIGN.md) and also produces the reference outputs that the SPT
//! simulator's results are validated against.
//!
//! Every run executes the module's superblock code
//! ([`spt_ir::SuperblockModule`], lowered once per interpreter straight from
//! the IR); the executor lives in `fused.rs`. Results — return value, retired
//! counts, weighted cycles, memory image and the full profiler event stream —
//! are bit-identical to the retained [`crate::reference::ReferenceInterp`]
//! oracle; `tests/engine_equivalence.rs` pins that equivalence over the whole
//! bench suite.

use spt_ir::loops::LoopId;
use spt_ir::superblock::{SuperblockFunc, SuperblockModule};
use spt_ir::{BlockId, FuncId, InstId, Module};
use std::fmt;

/// A dynamic value: raw 64 bits, interpreted per the defining instruction's
/// type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Val(pub u64);

impl Val {
    /// Creates a value from an `i64`.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        Val(v as u64)
    }

    /// Creates a value from an `f64`.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        Val(v.to_bits())
    }

    /// Reads the value as `i64`.
    #[inline]
    pub fn as_i64(self) -> i64 {
        self.0 as i64
    }

    /// Reads the value as `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Interprets per type: non-zero means true.
    #[inline]
    pub fn is_truthy(self) -> bool {
        self.0 != 0
    }
}

/// Interpreter failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The requested entry function does not exist.
    NoSuchFunction(String),
    /// Executed more instructions than the fuel budget allows.
    OutOfFuel,
    /// Call depth exceeded the limit.
    StackOverflow,
    /// A memory access fell outside the module's memory.
    OutOfBounds {
        /// The offending cell address.
        addr: i64,
    },
    /// An instruction was used before being defined (verifier should have
    /// caught this).
    Malformed(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::StackOverflow => write!(f, "call depth limit exceeded"),
            InterpError::OutOfBounds { addr } => write!(f, "memory access out of bounds: {addr}"),
            InterpError::Malformed(m) => write!(f, "malformed IR at runtime: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The outcome of a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct InterpResult {
    /// Return value of the entry function, if any.
    pub ret: Option<Val>,
    /// Total instructions retired.
    pub insts_retired: u64,
    /// Total latency-weighted cycles (static latency model; the SPT
    /// simulator refines this with its cache model).
    pub weighted_cycles: u64,
    /// Final memory image (cell bits).
    pub memory: Vec<u64>,
}

/// An active loop on the interpreter's loop stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopActivation {
    /// Which loop (within the current function).
    pub loop_id: LoopId,
    /// Globally unique activation number (increments on every loop entry).
    pub activation: u64,
    /// Zero-based iteration counter within this activation.
    pub iter: u64,
}

/// Loop transition events delivered to profilers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopEvent {
    /// Control entered the loop (iteration 0 begins).
    Enter(LoopId),
    /// The back edge was taken; a new iteration begins.
    Iterate(LoopId),
    /// Control left the loop.
    Exit(LoopId),
}

/// Instrumentation callbacks. All methods default to no-ops so collectors
/// override only what they need.
#[allow(unused_variables)]
pub trait Profiler {
    /// Whether this profiler observes events at all. When `false` (only
    /// [`NoProfiler`] sets it), the interpreter skips hook delivery and
    /// loop-stack maintenance entirely and batches retirement accounting per
    /// block — results stay bit-identical because no observer exists.
    /// Profilers that collect anything must leave this `true`.
    const OBSERVES: bool = true;

    /// Control transferred from `from` (`None` on function entry) to block
    /// `to` in `func`.
    fn on_block(&mut self, func: FuncId, from: Option<BlockId>, to: BlockId) {}

    /// Instruction `inst` of `func` retired with the given static latency.
    /// `loops` is the active loop stack, innermost last.
    fn on_inst(&mut self, func: FuncId, inst: InstId, latency: u64, loops: &[LoopActivation]) {}

    /// A load read `value` from cell `addr`.
    fn on_load(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        value: Val,
        loops: &[LoopActivation],
    ) {
    }

    /// A store wrote `value` to cell `addr`.
    fn on_store(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        value: Val,
        loops: &[LoopActivation],
    ) {
    }

    /// A value-producing instruction defined `value`.
    fn on_def(&mut self, func: FuncId, inst: InstId, value: Val, loops: &[LoopActivation]) {}

    /// A loop transition occurred in `func`.
    fn on_loop(&mut self, func: FuncId, event: LoopEvent, loops: &[LoopActivation]) {}

    /// `caller` is about to transfer control to `callee` via call inst
    /// `inst`. Lets collectors attribute callee work to the caller's active
    /// loops.
    fn on_call_enter(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {}

    /// The call issued at `inst` returned to `caller`.
    fn on_call_exit(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {}
}

/// A no-op profiler for plain execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProfiler;

impl Profiler for NoProfiler {
    const OBSERVES: bool = false;
}

/// The interpreter. Holds the module's superblock code; reusable across
/// runs of the same module.
pub struct Interp<'m> {
    pub(crate) module: &'m Module,
    sup: SuperblockModule,
    /// Base cell address of each region.
    pub region_bases: Vec<usize>,
    memory_size: usize,
    /// Maximum instructions to retire before aborting (default 500M).
    pub fuel: u64,
    /// Maximum call depth (default 256).
    pub max_depth: usize,
}

pub(crate) struct RunState<'p, P: Profiler> {
    pub(crate) profiler: &'p mut P,
    pub(crate) memory: Vec<u64>,
    pub(crate) insts_retired: u64,
    pub(crate) weighted_cycles: u64,
    pub(crate) fuel: u64,
    pub(crate) next_activation: u64,
    /// Recycled frame value arrays (raw value bits), so calls do not
    /// allocate in steady state.
    pub(crate) frame_pool: Vec<Vec<u64>>,
    /// Scratch for the atomic phi-evaluation phase. Only live between the
    /// evaluate and commit sub-phases of one block entry (never across a
    /// call), so a single buffer serves all recursion depths.
    pub(crate) phi_scratch: Vec<(InstId, u64)>,
}

impl<'m> Interp<'m> {
    /// Prepares an interpreter for `module`: its superblock code, lowered
    /// once and shared by every run.
    pub fn new(module: &'m Module) -> Self {
        let (region_bases, memory_size) = module.memory_layout();
        Interp {
            module,
            sup: SuperblockModule::build(module),
            region_bases,
            memory_size,
            fuel: 500_000_000,
            max_depth: 256,
        }
    }

    /// The module's superblock code, which every run executes.
    pub fn superblock(&self) -> &SuperblockModule {
        &self.sup
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

    /// Runs with a caller-provided initial memory image (used by workload
    /// drivers that fill input arrays from the host).
    ///
    /// # Errors
    ///
    /// Same as [`Interp::run`].
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
            frame_pool: Vec::new(),
            phi_scratch: Vec::new(),
        };
        let ret = self.call(func, args, &mut state, 0)?;
        Ok(InterpResult {
            ret,
            insts_retired: state.insts_retired,
            weighted_cycles: state.weighted_cycles,
            memory: state.memory,
        })
    }

    pub(crate) fn retire<P: Profiler>(
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

    pub(crate) fn update_loops<P: Profiler>(
        &self,
        func_id: FuncId,
        sf: &SuperblockFunc,
        from: Option<BlockId>,
        to: BlockId,
        loop_stack: &mut Vec<LoopActivation>,
        state: &mut RunState<'_, P>,
    ) {
        // Pop loops that do not contain `to`.
        while let Some(top) = loop_stack.last() {
            if sf.loop_contains(top.loop_id, to) {
                break;
            }
            let act = loop_stack.pop().expect("nonempty");
            state
                .profiler
                .on_loop(func_id, LoopEvent::Exit(act.loop_id), loop_stack);
        }
        // Header transitions: iterate (back edge from inside) or enter.
        if let Some(lid) = sf.blocks[to.index()].header_loop {
            let is_active_top = loop_stack.last().map(|a| a.loop_id) == Some(lid);
            let from_inside = from.is_some_and(|f| sf.loop_contains(lid, f));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, entry: &str, args: &[Val]) -> InterpResult {
        let module = spt_frontend::compile(src).expect("compiles");
        let interp = Interp::new(&module);
        interp.run(entry, args, &mut NoProfiler).expect("runs")
    }

    #[test]
    fn arithmetic_and_return() {
        let r = run("fn f() -> int { return 6 * 7; }", "f", &[]);
        assert_eq!(r.ret.unwrap().as_i64(), 42);
    }

    #[test]
    fn loops_compute_sums() {
        let src = "fn sum(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
        let r = run(src, "sum", &[Val::from_i64(100)]);
        assert_eq!(r.ret.unwrap().as_i64(), 4950);
    }

    #[test]
    fn recursion() {
        let src = "fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }";
        let r = run(src, "fib", &[Val::from_i64(15)]);
        assert_eq!(r.ret.unwrap().as_i64(), 610);
    }

    #[test]
    fn float_math() {
        let src = "fn f(x: float) -> float { return sqrt(x) + fabs(0.0 - 1.5); }";
        let r = run(src, "f", &[Val::from_f64(9.0)]);
        assert!((r.ret.unwrap().as_f64() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn global_memory_and_init() {
        let src = "
            global seed: int = 7;
            global out[4]: int;
            fn f() -> int {
                out[0] = seed * 2;
                out[1] = out[0] + 1;
                return out[1];
            }
        ";
        let r = run(src, "f", &[]);
        assert_eq!(r.ret.unwrap().as_i64(), 15);
        // seed at cell 0, out at cells 1..5
        assert_eq!(r.memory[1], 14);
        assert_eq!(r.memory[2], 15);
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "global a[2]: int; fn f() -> int { return a[5000]; }";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let e = interp.run("f", &[], &mut NoProfiler).unwrap_err();
        assert!(matches!(e, InterpError::OutOfBounds { .. }));
    }

    #[test]
    fn fuel_limit() {
        let src = "fn f() -> int { let x = 1; while (x > 0) { x = x + 1; } return x; }";
        let module = spt_frontend::compile(src).unwrap();
        let mut interp = Interp::new(&module);
        interp.fuel = 10_000;
        let e = interp.run("f", &[], &mut NoProfiler).unwrap_err();
        assert_eq!(e, InterpError::OutOfFuel);
    }

    #[test]
    fn stack_overflow_detected() {
        let src = "fn f(n: int) -> int { return f(n + 1); }";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let e = interp
            .run("f", &[Val::from_i64(0)], &mut NoProfiler)
            .unwrap_err();
        assert_eq!(e, InterpError::StackOverflow);
    }

    #[test]
    fn loop_events_fire() {
        #[derive(Default)]
        struct LoopCounter {
            enters: u64,
            iters: u64,
            exits: u64,
        }
        impl Profiler for LoopCounter {
            fn on_loop(&mut self, _f: FuncId, event: LoopEvent, _loops: &[LoopActivation]) {
                match event {
                    LoopEvent::Enter(_) => self.enters += 1,
                    LoopEvent::Iterate(_) => self.iters += 1,
                    LoopEvent::Exit(_) => self.exits += 1,
                }
            }
        }
        let src = "
            fn f() -> int {
                let t = 0;
                for (let j = 0; j < 3; j = j + 1) {
                    for (let i = 0; i < 4; i = i + 1) { t = t + 1; }
                }
                return t;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut p = LoopCounter::default();
        let r = interp.run("f", &[], &mut p).unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), 12);
        // Outer entered once, inner entered 3 times.
        assert_eq!(p.enters, 4);
        assert_eq!(p.exits, 4);
        // Iterate fires on every back-edge arrival at the header, i.e. trip
        // count times: outer 3, inner 4 per activation x 3 activations.
        assert_eq!(p.iters, 3 + 4 * 3);
    }

    #[test]
    fn nested_calls_profile_memory() {
        #[derive(Default)]
        struct MemCounter {
            loads: u64,
            stores: u64,
        }
        impl Profiler for MemCounter {
            fn on_load(&mut self, _f: FuncId, _i: InstId, _a: i64, _v: Val, _l: &[LoopActivation]) {
                self.loads += 1;
            }
            fn on_store(
                &mut self,
                _f: FuncId,
                _i: InstId,
                _a: i64,
                _v: Val,
                _l: &[LoopActivation],
            ) {
                self.stores += 1;
            }
        }
        let src = "
            global buf[16]: int;
            fn put(i: int, v: int) { buf[i] = v; }
            fn get(i: int) -> int { return buf[i]; }
            fn main() -> int {
                let k = 0;
                while (k < 8) { put(k, k * k); k = k + 1; }
                return get(3);
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut p = MemCounter::default();
        let r = interp.run("main", &[], &mut p).unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), 9);
        assert_eq!(p.stores, 8);
        assert_eq!(p.loads, 1);
    }

    #[test]
    fn engine_matches_reference_on_recursion_and_memory() {
        let src = "
            global buf[32]: int;
            fn fill(n: int) -> int {
                let k = 0;
                while (k < n) { buf[k] = k * 3; k = k + 1; }
                return buf[n - 1];
            }
            fn main(n: int) -> int { return fill(n) + fill(n / 2); }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let engine = Interp::new(&module);
        let reference = crate::reference::ReferenceInterp::new(&module);
        let a = engine
            .run("main", &[Val::from_i64(20)], &mut NoProfiler)
            .unwrap();
        let b = reference
            .run("main", &[Val::from_i64(20)], &mut NoProfiler)
            .unwrap();
        assert_eq!(a, b);
    }
}
