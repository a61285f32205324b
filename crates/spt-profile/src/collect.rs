//! One-pass composition of all profile collectors.
//!
//! The paper runs profiling offline and feeds the results into pass-1
//! compilation. [`ProfileCollector`] gathers the edge, dependence, loop and
//! (optionally) value profiles in a single interpreter run.

use crate::dep_profile::DepProfile;
use crate::edge_profile::EdgeProfile;
use crate::interp::{LoopActivation, LoopEvent, Profiler, Val};
use crate::loop_profile::LoopProfile;
use crate::value_profile::ValueProfile;
use spt_ir::{BlockId, FuncId, InstId, Ty};

/// Collects every profile kind in one run.
#[derive(Clone, Debug)]
pub struct ProfileCollector {
    /// Control-flow edge profile.
    pub edges: EdgeProfile,
    /// Data-dependence profile.
    pub deps: DepProfile,
    /// Loop trip-count/coverage profile.
    pub loops: LoopProfile,
    /// Value-pattern profile (empty target set unless configured).
    pub values: ValueProfile,
}

impl ProfileCollector {
    /// Creates a collector with no value-profiling targets.
    pub fn new() -> Self {
        ProfileCollector {
            edges: EdgeProfile::new(),
            deps: DepProfile::new(),
            loops: LoopProfile::new(),
            values: ValueProfile::new(std::iter::empty::<(FuncId, InstId, Ty)>()),
        }
    }

    /// Creates a collector that additionally value-profiles `targets`.
    pub fn with_value_targets(targets: impl IntoIterator<Item = (FuncId, InstId, Ty)>) -> Self {
        ProfileCollector {
            edges: EdgeProfile::new(),
            deps: DepProfile::new(),
            loops: LoopProfile::new(),
            values: ValueProfile::new(targets),
        }
    }
}

impl Default for ProfileCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler for ProfileCollector {
    fn on_block(&mut self, func: FuncId, from: Option<BlockId>, to: BlockId) {
        self.edges.on_block(func, from, to);
        self.deps.on_block(func, from, to);
        self.loops.on_block(func, from, to);
        self.values.on_block(func, from, to);
    }

    fn on_inst(&mut self, func: FuncId, inst: InstId, latency: u64, loops: &[LoopActivation]) {
        self.edges.on_inst(func, inst, latency, loops);
        self.deps.on_inst(func, inst, latency, loops);
        self.loops.on_inst(func, inst, latency, loops);
        self.values.on_inst(func, inst, latency, loops);
    }

    fn on_load(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        value: Val,
        loops: &[LoopActivation],
    ) {
        self.edges.on_load(func, inst, addr, value, loops);
        self.deps.on_load(func, inst, addr, value, loops);
        self.loops.on_load(func, inst, addr, value, loops);
        self.values.on_load(func, inst, addr, value, loops);
    }

    fn on_store(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        value: Val,
        loops: &[LoopActivation],
    ) {
        self.edges.on_store(func, inst, addr, value, loops);
        self.deps.on_store(func, inst, addr, value, loops);
        self.loops.on_store(func, inst, addr, value, loops);
        self.values.on_store(func, inst, addr, value, loops);
    }

    fn on_def(&mut self, func: FuncId, inst: InstId, value: Val, loops: &[LoopActivation]) {
        self.edges.on_def(func, inst, value, loops);
        self.deps.on_def(func, inst, value, loops);
        self.loops.on_def(func, inst, value, loops);
        self.values.on_def(func, inst, value, loops);
    }

    fn on_loop(&mut self, func: FuncId, event: LoopEvent, loops: &[LoopActivation]) {
        self.edges.on_loop(func, event, loops);
        self.deps.on_loop(func, event, loops);
        self.loops.on_loop(func, event, loops);
        self.values.on_loop(func, event, loops);
    }

    fn on_call_enter(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {
        self.edges.on_call_enter(caller, inst, callee);
        self.deps.on_call_enter(caller, inst, callee);
        self.loops.on_call_enter(caller, inst, callee);
        self.values.on_call_enter(caller, inst, callee);
    }

    fn on_call_exit(&mut self, caller: FuncId, inst: InstId, callee: FuncId) {
        self.edges.on_call_exit(caller, inst, callee);
        self.deps.on_call_exit(caller, inst, callee);
        self.loops.on_call_exit(caller, inst, callee);
        self.values.on_call_exit(caller, inst, callee);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn collects_all_profiles_in_one_run() {
        let src = "
            global a[32]: int;
            fn f(n: int) -> int {
                a[0] = 1;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = a[i - 1] + 1;
                }
                return a[n - 1];
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut collector = ProfileCollector::new();
        let r = interp
            .run("f", &[Val::from_i64(20)], &mut collector)
            .unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), 20);
        assert!(!collector.edges.is_empty());
        assert!(!collector.deps.is_empty());
        assert!(collector.loops.total_insts > 0);
        let all = collector.loops.iter();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].2.total_iters, 19);
    }
}
