//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).
//!
//! Used by SSA construction (iterated dominance frontiers for phi placement)
//! and by natural-loop detection (a back edge is an edge whose target
//! dominates its source).

use crate::cfg::Cfg;
use crate::groups::Groups;
use crate::ids::BlockId;

/// Immediate-dominator tree. The tree's child lists and the dominance
/// frontiers are derived on request ([`DomTree::children`],
/// [`DomTree::frontiers`]): SSA construction needs them, the dominance
/// queries do not.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry and unreachable
    /// blocks).
    pub idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl DomTree {
    /// Computes dominators for the reachable portion of `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let entry = cfg.entry();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        // Iterate to fixed point over reverse postorder.
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(bb) {
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(&idom, &cfg.rpo_index, p, cur),
                        });
                    }
                }
                if let Some(ni) = new_idom {
                    if idom[bb.index()] != Some(ni) {
                        idom[bb.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // By convention the entry has no immediate dominator.
        idom[entry.index()] = None;

        DomTree { idom, entry }
    }

    /// The dominance frontier of every block, each in discovery order.
    /// `cfg` must be the CFG this tree was computed from.
    pub fn frontiers(&self, cfg: &Cfg) -> Groups<BlockId, BlockId> {
        let idom = &self.idom;
        // (block, frontier member) pairs in discovery order. Every pair
        // naming `bb` is found while `bb` is the join being walked, so
        // `last_join` spots a repeat.
        let mut pairs: Vec<(BlockId, BlockId)> = Vec::new();
        let mut last_join = vec![u32::MAX; idom.len()];
        for &bb in &cfg.rpo {
            let preds = cfg.preds(bb);
            if preds.len() >= 2 {
                for &p in preds {
                    if !cfg.is_reachable(p) {
                        continue;
                    }
                    let mut runner = p;
                    while Some(runner) != idom[bb.index()] {
                        if last_join[runner.index()] != bb.0 {
                            last_join[runner.index()] = bb.0;
                            pairs.push((runner, bb));
                        }
                        match idom[runner.index()] {
                            Some(next) => runner = next,
                            None => break,
                        }
                    }
                }
            }
        }
        Groups::new(idom.len(), pairs.iter().copied())
    }

    /// Every block's children in the dominator tree, in block order.
    pub fn children(&self) -> Groups<BlockId, BlockId> {
        let children = self
            .idom
            .iter()
            .enumerate()
            .filter_map(|(bb, &id)| Some((id?, BlockId::new(bb))));
        Groups::new(self.idom.len(), children)
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// The immediate dominator of `bb` (`None` for the entry).
    pub fn idom(&self, bb: BlockId) -> Option<BlockId> {
        self.idom[bb.index()]
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Dominator-tree preorder of reachable blocks, starting at the entry.
    pub fn preorder(&self) -> Vec<BlockId> {
        let children = self.children();
        let mut out = Vec::new();
        let mut stack = vec![self.entry];
        while let Some(bb) = stack.pop() {
            out.push(bb);
            for &c in children.of(bb).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block must have idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block must have idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Function;
    use crate::types::Ty;

    fn diamond() -> Function {
        let mut b = FuncBuilder::new("d", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let t = b.add_block();
        let e = b.add_block();
        let j = b.add_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let entry = f.entry;
        let t = BlockId::new(1);
        let e = BlockId::new(2);
        let j = BlockId::new(3);
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(t), Some(entry));
        assert_eq!(dom.idom(e), Some(entry));
        assert_eq!(dom.idom(j), Some(entry));
        assert!(dom.dominates(entry, j));
        assert!(!dom.dominates(t, j));
        assert!(dom.dominates(j, j));
    }

    #[test]
    fn diamond_frontiers() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let frontiers = dom.frontiers(&cfg);
        let t = BlockId::new(1);
        let e = BlockId::new(2);
        let j = BlockId::new(3);
        assert_eq!(frontiers.of(t), vec![j]);
        assert_eq!(frontiers.of(e), vec![j]);
        assert!(frontiers.of(f.entry).is_empty());
        assert!(frontiers.of(j).is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        // entry -> header; header -> body|exit; body -> header
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
        let dom = DomTree::compute(&cfg);
        let frontiers = dom.frontiers(&cfg);
        assert!(dom.dominates(header, body));
        assert!(frontiers.of(body).contains(&header));
        assert!(frontiers.of(header).contains(&header));
    }

    #[test]
    fn preorder_visits_all_reachable() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let pre = dom.preorder();
        assert_eq!(pre.len(), 4);
        assert_eq!(pre[0], f.entry);
    }
}
