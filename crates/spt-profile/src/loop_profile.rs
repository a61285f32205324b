//! Per-loop dynamic statistics: trip counts, dynamic body sizes and cycle
//! coverage.
//!
//! Feeds three parts of the paper:
//! * selection criterion 4 (§6.1) — loops with average trip count < 2 are
//!   rejected;
//! * Figure 16 — runtime coverage: the fraction of total program cycles
//!   spent inside (selected) loops, *including* cycles in called functions;
//! * Figure 17 — average dynamic loop body size (instructions per
//!   iteration).
//!
//! Stats live in a flat arena; the active loop context carries arena indices
//! so the per-instruction hot path ([`Profiler::on_inst`]) is a plain slice
//! walk with direct indexing — the `(FuncId, LoopId)` map is consulted only
//! on loop-enter events.

use crate::interp::{LoopActivation, LoopEvent, Profiler};
use spt_ir::loops::LoopId;
use spt_ir::{FuncId, InstId};
use std::collections::HashMap;

/// Aggregated statistics for one loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Number of times the loop was entered.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub total_iters: u64,
    /// Instructions retired while the loop was active (including callees).
    pub insts: u64,
    /// Latency-weighted cycles while the loop was active (including callees).
    pub cycles: u64,
}

impl LoopStats {
    /// Average trip count per invocation.
    pub fn avg_trip_count(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_iters as f64 / self.invocations as f64
        }
    }

    /// Average dynamic body size in instructions per iteration.
    pub fn body_insts_per_iter(&self) -> f64 {
        if self.total_iters == 0 {
            0.0
        } else {
            self.insts as f64 / self.total_iters as f64
        }
    }
}

/// Loop statistics for a whole run. Cycles spent in callees are attributed
/// to every loop active in the calling frames (a per-run "global loop
/// context" maintained across call boundaries).
#[derive(Clone, Debug, Default)]
pub struct LoopProfile {
    /// Flat stats arena, paralleled by `keys`.
    arena: Vec<LoopStats>,
    keys: Vec<(FuncId, LoopId)>,
    /// `(func, loop) -> arena index`; touched only on loop events.
    index: HashMap<(FuncId, LoopId), u32>,
    /// Active loop context across frames: loops of the current frame are
    /// pushed/popped by loop events, a call pushes a frame marker. Each
    /// entry carries its arena index for the `on_inst` fast path.
    context: Vec<(FuncId, LoopId, u32)>,
    frame_marks: Vec<usize>,
    /// Total instructions retired in the run.
    pub total_insts: u64,
    /// Total latency-weighted cycles in the run.
    pub total_cycles: u64,
}

impl LoopProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&mut self, func: FuncId, loop_id: LoopId) -> u32 {
        *self.index.entry((func, loop_id)).or_insert_with(|| {
            self.arena.push(LoopStats::default());
            self.keys.push((func, loop_id));
            (self.arena.len() - 1) as u32
        })
    }

    /// Stats for one loop.
    pub fn stats(&self, func: FuncId, loop_id: LoopId) -> LoopStats {
        self.index
            .get(&(func, loop_id))
            .map(|&i| self.arena[i as usize])
            .unwrap_or_default()
    }

    /// Fraction of total run cycles spent inside `loop_id` (including nested
    /// loops and callees).
    pub fn coverage(&self, func: FuncId, loop_id: LoopId) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.stats(func, loop_id).cycles as f64 / self.total_cycles as f64
        }
    }

    /// Iterates over all `(func, loop, stats)` entries, sorted.
    pub fn iter(&self) -> Vec<(FuncId, LoopId, LoopStats)> {
        let mut out: Vec<_> = self
            .keys
            .iter()
            .zip(&self.arena)
            .map(|(&(f, l), &s)| (f, l, s))
            .collect();
        out.sort_by_key(|&(f, l, _)| (f, l));
        out
    }
}

impl Profiler for LoopProfile {
    fn on_inst(&mut self, _func: FuncId, _inst: InstId, latency: u64, _loops: &[LoopActivation]) {
        self.total_insts += 1;
        self.total_cycles += latency;
        for &(_, _, idx) in &self.context {
            let s = &mut self.arena[idx as usize];
            s.insts += 1;
            s.cycles += latency;
        }
    }

    fn on_loop(&mut self, func: FuncId, event: LoopEvent, _loops: &[LoopActivation]) {
        match event {
            LoopEvent::Enter(l) => {
                let idx = self.slot(func, l);
                self.context.push((func, l, idx));
                // `total_iters` counts Iterate events only: for a loop that
                // exits at its header after t body executions, the header
                // runs t+1 times — one Enter plus t Iterates — so Iterates
                // alone equal the trip count.
                self.arena[idx as usize].invocations += 1;
            }
            LoopEvent::Iterate(l) => {
                // The iterating loop is the innermost active one in almost
                // every case; fall back to the map otherwise.
                let idx = match self.context.last() {
                    Some(&(f, ll, idx)) if f == func && ll == l => idx,
                    _ => self.slot(func, l),
                };
                self.arena[idx as usize].total_iters += 1;
            }
            LoopEvent::Exit(l) => {
                // Pop the matching entry (must be the innermost of this
                // frame, i.e. the last element past the frame mark).
                if let Some(pos) = self
                    .context
                    .iter()
                    .rposition(|&(f, ll, _)| f == func && ll == l)
                {
                    self.context.remove(pos);
                }
            }
        }
    }

    fn on_call_enter(&mut self, _caller: FuncId, _inst: InstId, _callee: FuncId) {
        self.frame_marks.push(self.context.len());
    }

    fn on_call_exit(&mut self, _caller: FuncId, _inst: InstId, _callee: FuncId) {
        // Defensive: drop any loop context the callee leaked (it exits its
        // loops on return, so normally a no-op).
        if let Some(mark) = self.frame_marks.pop() {
            self.context.truncate(mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Val};

    fn run(src: &str, entry: &str, args: &[Val]) -> (spt_ir::Module, LoopProfile) {
        let module = spt_frontend::compile(src).unwrap();
        let mut prof = LoopProfile::new();
        {
            let interp = Interp::new(&module);
            interp.run(entry, args, &mut prof).unwrap();
        }
        (module, prof)
    }

    #[test]
    fn trip_counts_and_invocations() {
        let src = "
            fn f() -> int {
                let t = 0;
                for (let j = 0; j < 5; j = j + 1) {
                    for (let i = 0; i < 10; i = i + 1) { t = t + 1; }
                }
                return t;
            }
        ";
        let (module, prof) = run(src, "f", &[]);
        let func = module.func_by_name("f").unwrap();
        let all = prof.iter();
        assert_eq!(all.len(), 2);
        // Identify inner vs outer by invocation counts.
        let inner = all.iter().find(|(_, _, s)| s.invocations == 5).unwrap();
        let outer = all.iter().find(|(_, _, s)| s.invocations == 1).unwrap();
        assert_eq!(inner.2.total_iters, 50);
        assert_eq!(outer.2.total_iters, 5);
        assert!((inner.2.avg_trip_count() - 10.0).abs() < 1e-9);
        assert!(prof.coverage(func, outer.1) > prof.coverage(func, inner.1) * 0.9);
        assert!(prof.total_insts > 0);
    }

    #[test]
    fn callee_cycles_attributed_to_caller_loop() {
        let src = "
            global acc: int;
            fn heavy(k: int) -> int {
                let s = 0;
                for (let i = 0; i < k; i = i + 1) { s = s + i * i; }
                return s;
            }
            fn f() -> int {
                let t = 0;
                for (let j = 0; j < 4; j = j + 1) {
                    t = t + heavy(100);
                }
                return t;
            }
        ";
        let (module, prof) = run(src, "f", &[]);
        let func = module.func_by_name("f").unwrap();
        // The caller's loop coverage must include heavy()'s work: nearly all
        // of the run.
        let caller_loops: Vec<_> = prof
            .iter()
            .into_iter()
            .filter(|(f, _, _)| *f == func)
            .collect();
        assert_eq!(caller_loops.len(), 1);
        let (_, lid, stats) = caller_loops[0];
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.total_iters, 4);
        assert!(
            prof.coverage(func, lid) > 0.9,
            "coverage = {}",
            prof.coverage(func, lid)
        );
        // Dynamic body size per iteration is large because of the callee.
        assert!(stats.body_insts_per_iter() > 300.0);
    }

    #[test]
    fn empty_profile() {
        let prof = LoopProfile::new();
        assert_eq!(
            prof.stats(FuncId::new(0), LoopId::new(0)),
            LoopStats::default()
        );
        assert_eq!(prof.coverage(FuncId::new(0), LoopId::new(0)), 0.0);
    }
}
