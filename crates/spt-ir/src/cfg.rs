//! Control-flow graph utilities: predecessor/successor maps, reachability
//! and reverse postorder.

use crate::groups::Groups;
use crate::ids::BlockId;
use crate::module::{Function, Successors};

/// A snapshot of a function's control-flow graph.
///
/// The CFG is computed once from the function and does not track subsequent
/// mutations; recompute after CFG surgery. Successors sit inline per block
/// and predecessors in one flat list, so a computation allocates the same
/// handful of buffers whatever the block count, and [`Cfg::recompute`]
/// reuses them.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Successors per block.
    succs: Vec<Successors>,
    /// Predecessors per block, in block order.
    preds: Groups<BlockId, BlockId>,
    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// absent).
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` for unreachable blocks).
    pub rpo_index: Vec<usize>,
    entry: BlockId,
}

impl Cfg {
    /// Computes the CFG of a function.
    pub fn compute(func: &Function) -> Self {
        let mut cfg = Cfg {
            succs: Vec::new(),
            preds: Groups::default(),
            rpo: Vec::new(),
            rpo_index: Vec::new(),
            entry: func.entry,
        };
        cfg.recompute(func);
        cfg
    }

    /// Recomputes the CFG of `func` in place, reusing this snapshot's
    /// buffers; the result equals [`Cfg::compute`]'s.
    pub fn recompute(&mut self, func: &Function) {
        let n = func.blocks.len();
        self.entry = func.entry;
        self.succs.clear();
        // An out-of-range target is no edge here; the verifier reports it.
        self.succs.extend(func.block_ids().map(|bb| {
            let mut succs = func.successors(bb);
            succs.retain(|s| s.index() < n);
            succs
        }));

        let edges = self
            .succs
            .iter()
            .enumerate()
            .flat_map(|(bb, succs)| succs.iter().map(move |&s| (s, BlockId::new(bb))));
        self.preds.rebuild(n, edges);

        // Iterative DFS computing postorder into `rpo`, reversed below. The
        // DFS stack shares `rpo`'s buffer: it grows down from the end while
        // the postorder grows up from the start, and a block is in at most
        // one of them. `rpo_index` holds a stacked block's next successor;
        // `usize::MAX` marks an unvisited block.
        self.rpo_index.clear();
        self.rpo_index.resize(n, usize::MAX);
        self.rpo.clear();
        self.rpo.resize(n, func.entry);
        let (mut post, mut top) = (0, n);
        if func.entry.index() < n {
            top -= 1;
            self.rpo[top] = func.entry;
            self.rpo_index[func.entry.index()] = 0;
        }
        while top < n {
            let bb = self.rpo[top];
            let next = self.rpo_index[bb.index()];
            if let Some(&s) = self.succs[bb.index()].get(next) {
                self.rpo_index[bb.index()] = next + 1;
                if self.rpo_index[s.index()] == usize::MAX {
                    self.rpo_index[s.index()] = 0;
                    top -= 1;
                    self.rpo[top] = s;
                }
            } else {
                top += 1;
                self.rpo[post] = bb;
                post += 1;
            }
        }
        self.rpo.truncate(post);
        self.rpo.reverse();
        for (i, &bb) in self.rpo.iter().enumerate() {
            self.rpo_index[bb.index()] = i;
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        &self.succs[bb.index()]
    }

    /// Predecessors of `bb`.
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        self.preds.of(bb)
    }

    /// Returns `true` if `bb` is reachable from the entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index[bb.index()] != usize::MAX
    }

    /// Number of blocks (including unreachable ones).
    pub fn num_blocks(&self) -> usize {
        self.succs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Operand;
    use crate::types::Ty;

    /// entry -> (a | b) -> join -> ret, plus an unreachable block.
    fn diamond() -> Function {
        let mut b = FuncBuilder::new("d", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let a_bb = b.add_block();
        let b_bb = b.add_block();
        let join = b.add_block();
        let dead = b.add_block();
        b.branch(c, a_bb, b_bb);
        b.switch_to(a_bb);
        b.jump(join);
        b.switch_to(b_bb);
        b.jump(join);
        b.switch_to(join);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_cfg() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(f.entry).len(), 2);
        let join = BlockId::new(3);
        assert_eq!(cfg.preds(join).len(), 2);
        assert!(cfg.is_reachable(join));
        assert!(!cfg.is_reachable(BlockId::new(4)));
        // RPO starts at entry, and join comes after both arms.
        assert_eq!(cfg.rpo[0], f.entry);
        let ij = cfg.rpo_index[join.index()];
        assert!(ij > cfg.rpo_index[BlockId::new(1).index()]);
        assert!(ij > cfg.rpo_index[BlockId::new(2).index()]);
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn loop_rpo() {
        // entry -> header <-> body; header -> exit
        let mut b = FuncBuilder::new("l", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.jump(header);
        b.switch_to(header);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.preds(header).len(), 2);
        assert!(cfg.rpo_index[header.index()] < cfg.rpo_index[body.index()]);
        // self-check: rpo visits all 4 blocks
        assert_eq!(cfg.rpo.len(), 4);
        let _ = Operand::const_i64(0);
    }
}
