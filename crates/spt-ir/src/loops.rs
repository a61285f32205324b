//! Natural-loop discovery and the loop-nest forest.
//!
//! Loops are the unit of speculative parallelization in the paper: pass 1
//! evaluates *every nesting level* of every loop nest as an SPT candidate, so
//! the forest records parent/child relations and per-loop block membership.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::BlockId;
use crate::module::Function;
use std::collections::HashSet;
use std::fmt;

/// Identifies a loop within a [`LoopForest`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Creates a loop id from a raw index.
    pub fn new(index: usize) -> Self {
        LoopId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// A natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge(s); dominates all blocks in
    /// the loop).
    pub header: BlockId,
    /// Source blocks of back edges (`latch -> header`).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, header first; the rest in discovery order.
    pub blocks: Vec<BlockId>,
    /// Parent loop in the nest, if any.
    pub parent: Option<LoopId>,
    /// Immediate child loops.
    pub children: Vec<LoopId>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// Returns `true` if `bb` belongs to the loop.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.blocks.contains(&bb)
    }

    /// Blocks outside the loop that are targets of edges leaving the loop.
    pub fn exit_targets(&self, cfg: &Cfg) -> Vec<BlockId> {
        let inside: HashSet<BlockId> = self.blocks.iter().copied().collect();
        let mut out = Vec::new();
        for &bb in &self.blocks {
            for &s in cfg.succs(bb) {
                if !inside.contains(&s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Blocks inside the loop with an edge leaving the loop.
    pub fn exiting_blocks(&self, cfg: &Cfg) -> Vec<BlockId> {
        let inside: HashSet<BlockId> = self.blocks.iter().copied().collect();
        let mut out = Vec::new();
        for &bb in &self.blocks {
            if cfg.succs(bb).iter().any(|s| !inside.contains(s)) && !out.contains(&bb) {
                out.push(bb);
            }
        }
        out
    }

    /// The unique block outside the loop that jumps to the header, if there
    /// is exactly one (the preheader).
    pub fn preheader(&self, cfg: &Cfg) -> Option<BlockId> {
        let mut outside_preds = cfg
            .preds(self.header)
            .iter()
            .copied()
            .filter(|&p| !self.contains(p));
        let single = outside_preds.next()?;
        if outside_preds.next().is_some() {
            return None;
        }
        // A true preheader has the header as its only successor.
        (cfg.succs(single) == [self.header]).then_some(single)
    }
}

/// All natural loops of a function, with nesting structure.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// Loop arena indexed by [`LoopId`].
    pub loops: Vec<Loop>,
    /// Innermost loop containing each block (`None` if not in any loop).
    pub block_loop: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Discovers all natural loops of `func`.
    ///
    /// Irreducible control flow (a cycle whose entry does not dominate its
    /// other blocks) produces no loop entry, matching the paper's restriction
    /// to well-structured loops.
    pub fn compute(func: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        // Find back edges: bb -> header where header dominates bb.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        for &bb in &cfg.rpo {
            for &s in cfg.succs(bb) {
                if dom.dominates(s, bb) {
                    back_edges.push((bb, s));
                    if !headers.contains(&s) {
                        headers.push(s);
                    }
                }
            }
        }
        // Deterministic order: headers by RPO, so outer loops (earlier
        // headers) get smaller ids only coincidentally; nesting is computed
        // explicitly below.
        headers.sort_by_key(|h| cfg.rpo_index[h.index()]);

        let mut loops: Vec<Loop> = Vec::new();
        // `seen[b] == k + 1` marks block `b` as found for the `k`-th loop.
        let mut seen = vec![0u32; cfg.num_blocks()];
        let mut stack: Vec<BlockId> = Vec::new();
        for (k, &header) in headers.iter().enumerate() {
            let stamp = k as u32 + 1;
            let latches: Vec<BlockId> = back_edges
                .iter()
                .filter(|(_, h)| *h == header)
                .map(|(l, _)| *l)
                .collect();
            // Standard natural-loop body computation: walk predecessors
            // backwards from each latch until the header.
            let mut body: Vec<BlockId> = vec![header];
            seen[header.index()] = stamp;
            // A self-loop's latch is the header, already seen.
            for &l in &latches {
                if seen[l.index()] != stamp {
                    seen[l.index()] = stamp;
                    body.push(l);
                    stack.push(l);
                }
            }
            while let Some(bb) = stack.pop() {
                for &p in cfg.preds(bb) {
                    if cfg.is_reachable(p) && seen[p.index()] != stamp {
                        seen[p.index()] = stamp;
                        body.push(p);
                        stack.push(p);
                    }
                }
            }
            loops.push(Loop {
                header,
                latches,
                blocks: body,
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }

        // Nesting: loop A is an ancestor of loop B iff A contains B's header
        // and A != B. The parent is the smallest such container.
        let n = loops.len();
        for i in 0..n {
            let mut best: Option<(usize, usize)> = None; // (loop index, size)
            for j in 0..n {
                if i == j {
                    continue;
                }
                if loops[j].contains(loops[i].header) && loops[j].header != loops[i].header {
                    let size = loops[j].blocks.len();
                    if best.is_none_or(|(_, bs)| size < bs) {
                        best = Some((j, size));
                    }
                }
            }
            if let Some((j, _)) = best {
                loops[i].parent = Some(LoopId::new(j));
            }
        }
        for i in 0..n {
            if let Some(p) = loops[i].parent {
                let child = LoopId::new(i);
                loops[p.index()].children.push(child);
            }
        }
        // Depths.
        for i in 0..n {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = depth;
        }

        // Innermost loop per block: the containing loop with the greatest
        // depth.
        let mut block_loop: Vec<Option<LoopId>> = vec![None; func.blocks.len()];
        for (i, l) in loops.iter().enumerate() {
            for &bb in &l.blocks {
                let cur = block_loop[bb.index()];
                let replace = match cur {
                    None => true,
                    Some(c) => loops[c.index()].depth < l.depth,
                };
                if replace {
                    block_loop[bb.index()] = Some(LoopId::new(i));
                }
            }
        }

        LoopForest { loops, block_loop }
    }

    /// Borrow a loop.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// Iterates over all loop ids.
    pub fn ids(&self) -> impl Iterator<Item = LoopId> + '_ {
        (0..self.loops.len()).map(LoopId::new)
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Returns `true` if the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// The innermost loop containing `bb`, if any.
    pub fn innermost(&self, bb: BlockId) -> Option<LoopId> {
        self.block_loop.get(bb.index()).copied().flatten()
    }

    /// Loop ids ordered innermost-first (children before parents).
    pub fn inner_to_outer(&self) -> Vec<LoopId> {
        let mut ids: Vec<LoopId> = self.ids().collect();
        ids.sort_by_key(|l| std::cmp::Reverse(self.get(*l).depth));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Ty;

    /// Builds a double nest:
    /// entry -> oh; oh -> ob|oexit; ob -> ih; ih -> ib|olatch; ib -> ih; olatch -> oh
    fn nest() -> (Function, BlockId, BlockId) {
        let mut b = FuncBuilder::new("n", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let oh = b.add_block();
        let ob = b.add_block();
        let ih = b.add_block();
        let ib = b.add_block();
        let olatch = b.add_block();
        let oexit = b.add_block();
        b.jump(oh);
        b.switch_to(oh);
        b.branch(c, ob, oexit);
        b.switch_to(ob);
        b.jump(ih);
        b.switch_to(ih);
        b.branch(c, ib, olatch);
        b.switch_to(ib);
        b.jump(ih);
        b.switch_to(olatch);
        b.jump(oh);
        b.switch_to(oexit);
        b.ret(None);
        (b.finish(), oh, ih)
    }

    #[test]
    fn finds_nested_loops() {
        let (f, oh, ih) = nest();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        assert_eq!(forest.len(), 2);

        let outer = forest
            .ids()
            .find(|&l| forest.get(l).header == oh)
            .expect("outer loop");
        let inner = forest
            .ids()
            .find(|&l| forest.get(l).header == ih)
            .expect("inner loop");
        assert_eq!(forest.get(outer).depth, 1);
        assert_eq!(forest.get(inner).depth, 2);
        assert_eq!(forest.get(inner).parent, Some(outer));
        assert!(forest.get(outer).children.contains(&inner));
        assert!(forest.get(outer).contains(ih));
        assert!(!forest.get(inner).contains(oh));
    }

    #[test]
    fn innermost_lookup() {
        let (f, oh, ih) = nest();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        let inner = forest.innermost(ih).unwrap();
        assert_eq!(forest.get(inner).header, ih);
        let outer = forest.innermost(oh).unwrap();
        assert_eq!(forest.get(outer).header, oh);
        assert_eq!(forest.innermost(f.entry), None);
    }

    #[test]
    fn exits_and_preheader() {
        let (f, oh, _) = nest();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        let outer = forest.ids().find(|&l| forest.get(l).header == oh).unwrap();
        let l = forest.get(outer);
        assert_eq!(l.exit_targets(&cfg).len(), 1);
        assert_eq!(l.exiting_blocks(&cfg), vec![oh]);
        assert_eq!(l.preheader(&cfg), Some(f.entry));
        assert_eq!(l.latches.len(), 1);
    }

    #[test]
    fn inner_to_outer_order() {
        let (f, _, _) = nest();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        let order = forest.inner_to_outer();
        assert_eq!(forest.get(order[0]).depth, 2);
        assert_eq!(forest.get(order[1]).depth, 1);
    }

    #[test]
    fn self_loop() {
        let mut b = FuncBuilder::new("s", vec![("c".into(), Ty::I64)], None);
        let c = b.param(0);
        let h = b.add_block();
        let exit = b.add_block();
        b.jump(h);
        b.switch_to(h);
        b.branch(c, h, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&f, &cfg, &dom);
        assert_eq!(forest.len(), 1);
        let l = forest.get(LoopId::new(0));
        assert_eq!(l.blocks, vec![h]);
        assert_eq!(l.latches, vec![h]);
    }
}
