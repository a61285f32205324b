//! Control-flow edge profiling.
//!
//! Counts block executions and edge traversals. The SPT cost model uses
//! these as *reaching probabilities*: the probability that a statement
//! executes in a given loop iteration is approximated by
//! `count(block) / count(header)` (§4.2.3, "violation probability ... how
//! often the main thread will reach it").
//!
//! Counters are dense: per-function `Vec<u64>` rows indexed by block id for
//! block counts and entries, and per-source-block adjacency lists for edge
//! counts (block out-degree is almost always ≤ 2, so a linear scan beats a
//! hash lookup).

use crate::interp::{LoopActivation, Profiler};
use spt_ir::{BlockId, FuncId};

/// One function's edge counts: `rows[from]` is a `(to, count)` adjacency
/// list.
pub type EdgeRows = Vec<Vec<(u32, u64)>>;

/// Block and edge execution counts for a whole module run.
#[derive(Clone, Debug, Default)]
pub struct EdgeProfile {
    /// `block_counts[func][block]`, lazily grown.
    block_counts: Vec<Vec<u64>>,
    /// `edge_counts[func]`, lazily grown.
    edge_counts: Vec<EdgeRows>,
    func_entries: Vec<u64>,
}

impl EdgeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times `bb` of `func` executed.
    pub fn block_count(&self, func: FuncId, bb: BlockId) -> u64 {
        self.block_counts
            .get(func.index())
            .and_then(|r| r.get(bb.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Number of times the edge `from -> to` was traversed.
    pub fn edge_count(&self, func: FuncId, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts
            .get(func.index())
            .and_then(|rows| rows.get(from.index()))
            .and_then(|list| {
                list.iter()
                    .find(|&&(t, _)| t == to.index() as u32)
                    .map(|&(_, c)| c)
            })
            .unwrap_or(0)
    }

    /// Number of invocations of `func`.
    pub fn entry_count(&self, func: FuncId) -> u64 {
        self.func_entries.get(func.index()).copied().unwrap_or(0)
    }

    /// Probability of taking the edge `from -> to` given `from` executed.
    /// Returns `None` when `from` was never executed.
    pub fn edge_prob(&self, func: FuncId, from: BlockId, to: BlockId) -> Option<f64> {
        let fc = self.block_count(func, from);
        if fc == 0 {
            None
        } else {
            Some(self.edge_count(func, from, to) as f64 / fc as f64)
        }
    }

    /// Execution frequency of `bb` relative to `base` (typically a loop
    /// header): `count(bb) / count(base)`. May exceed 1 when `bb` sits in a
    /// nested loop. Returns `None` when `base` never executed.
    pub fn relative_freq(&self, func: FuncId, bb: BlockId, base: BlockId) -> Option<f64> {
        let bc = self.block_count(func, base);
        if bc == 0 {
            None
        } else {
            Some(self.block_count(func, bb) as f64 / bc as f64)
        }
    }

    /// Execution probability of `bb` per execution of `base`, clamped to
    /// `[0, 1]`; defaults to `default` when `base` has no profile.
    pub fn exec_prob(&self, func: FuncId, bb: BlockId, base: BlockId, default: f64) -> f64 {
        self.relative_freq(func, bb, base)
            .map(|p| p.clamp(0.0, 1.0))
            .unwrap_or(default)
    }

    /// Returns `true` if the profile saw no events at all.
    pub fn is_empty(&self) -> bool {
        self.block_counts.is_empty()
    }
}

impl Profiler for EdgeProfile {
    fn on_block(&mut self, func: FuncId, from: Option<BlockId>, to: BlockId) {
        let fi = func.index();
        if self.block_counts.len() <= fi {
            self.block_counts.resize_with(fi + 1, Vec::new);
        }
        let row = &mut self.block_counts[fi];
        if row.len() <= to.index() {
            row.resize(to.index() + 1, 0);
        }
        row[to.index()] += 1;
        match from {
            Some(f) => {
                if self.edge_counts.len() <= fi {
                    self.edge_counts.resize_with(fi + 1, Vec::new);
                }
                let rows = &mut self.edge_counts[fi];
                if rows.len() <= f.index() {
                    rows.resize_with(f.index() + 1, Vec::new);
                }
                let list = &mut rows[f.index()];
                let t = to.index() as u32;
                match list.iter_mut().find(|(tt, _)| *tt == t) {
                    Some((_, c)) => *c += 1,
                    None => list.push((t, 1)),
                }
            }
            None => {
                if self.func_entries.len() <= fi {
                    self.func_entries.resize(fi + 1, 0);
                }
                self.func_entries[fi] += 1;
            }
        }
    }

    fn on_inst(
        &mut self,
        _func: FuncId,
        _inst: spt_ir::InstId,
        _latency: u64,
        _loops: &[LoopActivation],
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Val};

    #[test]
    fn counts_blocks_and_edges() {
        let src = "
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; }
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut prof = EdgeProfile::new();
        interp.run("f", &[Val::from_i64(10)], &mut prof).unwrap();

        let func = module.func_by_name("f").unwrap();
        assert_eq!(prof.entry_count(func), 1);

        // Find the loop header: the block with max count (10 body + 1 exit check = 11).
        let cfg = spt_ir::Cfg::compute(module.func(func));
        let header = cfg
            .rpo
            .iter()
            .copied()
            .max_by_key(|&bb| prof.block_count(func, bb))
            .unwrap();
        assert_eq!(prof.block_count(func, header), 11);

        // The then-arm of the even-check runs 5 of 10 iterations.
        let then_prob_exists = cfg.rpo.iter().any(|&bb| {
            prof.block_count(func, bb) == 5
                && prof.exec_prob(func, bb, header, 0.0) > 0.44
                && prof.exec_prob(func, bb, header, 0.0) < 0.46
        });
        assert!(then_prob_exists, "even-branch arm profiled at ~5/11");
    }

    #[test]
    fn edge_prob_sums_to_one() {
        let src = "fn f(n: int) -> int { if (n > 3) { return 1; } return 0; }";
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut prof = EdgeProfile::new();
        for k in 0..10 {
            interp.run("f", &[Val::from_i64(k)], &mut prof).unwrap();
        }
        let func = module.func_by_name("f").unwrap();
        let f = module.func(func);
        let entry = f.entry;
        let succs = f.successors(entry);
        if succs.len() == 2 {
            let p0 = prof.edge_prob(func, entry, succs[0]).unwrap();
            let p1 = prof.edge_prob(func, entry, succs[1]).unwrap();
            assert!((p0 + p1 - 1.0).abs() < 1e-12);
        }
        assert_eq!(prof.entry_count(func), 10);
    }

    #[test]
    fn empty_profile_defaults() {
        let prof = EdgeProfile::new();
        assert!(prof.is_empty());
        assert_eq!(
            prof.exec_prob(FuncId::new(0), BlockId::new(1), BlockId::new(0), 0.5),
            0.5
        );
        assert_eq!(
            prof.edge_prob(FuncId::new(0), BlockId::new(0), BlockId::new(1)),
            None
        );
    }
}
