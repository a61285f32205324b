//! Per-loop data-dependence graphs with probability annotations (§4.1).
//!
//! Nodes are the instructions of the loop body in a fixed topological
//! (program) order. Edges are *true* dependences only — the SPT hardware
//! buffers speculative writes, so anti- and output-dependences cannot cause
//! misspeculation:
//!
//! * **register** edges follow SSA def–use chains; a use reached through a
//!   loop-header phi is a cross-iteration dependence (the φ's latch operand
//!   is the violation candidate);
//! * **memory** edges connect stores to loads. Without a dependence profile
//!   they come from type-based disambiguation (two accesses may depend iff
//!   their regions may alias) with conservative probability; with a profile
//!   (§7.3) each `(store, load)` pair carries its measured intra- and
//!   cross-iteration probabilities, and unobserved pairs carry none;
//! * **call-effect** edges conservatively connect calls that may read/write
//!   memory with every aliasing access — the source of the cost
//!   over-estimation the paper reports around Figure 19.
//!
//! The graph also records, per node, its execution probability per iteration
//! (from the edge profile, §4.2.3 step 1), its static cost, its movability
//! class, and the *intra-iteration dependence closure* used to form legal
//! partitions (§5: a legal partition preserves all forward intra-iteration
//! dependences).

use spt_ir::loops::LoopId;
use spt_ir::{
    BlockId, Cfg, DomTree, FuncId, InstId, InstKind, LoopForest, Module, Operand, RegionId,
};
use spt_profile::{DepProfile, EdgeProfile};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Kinds of true-dependence edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepEdgeKind {
    /// SSA def–use.
    Register,
    /// Store-to-load through memory.
    Memory,
    /// Conservative dependence due to a call's memory effects.
    CallEffect,
}

/// A dependence edge between node indices of a [`DepGraph`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DepEdge {
    /// Source node (the producer; for cross edges, the violation candidate).
    pub src: usize,
    /// Destination node (the consumer in the speculative iteration).
    pub dst: usize,
    /// Dependence probability (§4.1's `p`).
    pub prob: f64,
    /// Edge kind.
    pub kind: DepEdgeKind,
}

/// Node classification for movability decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeClass {
    /// Ordinary computation, loads, stores, phis: freely movable into the
    /// pre-fork region (subject to closure legality).
    Movable,
    /// Conditional branches: never *moved*, but *replicable* into the
    /// pre-fork region when code control-dependent on them moves (§6.2,
    /// Fig. 12).
    Branch,
    /// Calls with memory effects: pinned in the post-fork region. This is
    /// the legality constraint that stops `x = bar(x)` from moving in the
    /// paper's Fig. 13 discussion.
    Pinned,
}

/// Profile inputs to graph construction. Either may be absent: the *basic*
/// compilation of §8 has only the edge profile; the *best* adds the
/// dependence profile.
#[derive(Clone, Copy, Debug, Default)]
pub struct Profiles<'a> {
    /// Control-flow edge profile.
    pub edges: Option<&'a EdgeProfile>,
    /// Data-dependence profile.
    pub deps: Option<&'a DepProfile>,
}

/// Probability of a may-alias store→load pair, within an iteration or
/// across iterations, when no dependence profile is available: certain, as
/// type-based analysis alone can tell no more.
const STATIC_ALIAS_PROB: f64 = 1.0;

/// Probability of a call-effect edge. The dependence profiler sees no
/// callee accesses, so these stay certain in both modes.
const CALL_DEP_PROB: f64 = 1.0;

/// Tunables for static (profile-less) dependence estimation.
#[derive(Clone, Debug)]
pub struct DepGraphConfig {
    /// Static probability of taking either arm of an unprofiled branch.
    pub static_branch_prob: f64,
}

impl Default for DepGraphConfig {
    fn default() -> Self {
        DepGraphConfig {
            static_branch_prob: 0.5,
        }
    }
}

/// The annotated dependence graph of one loop.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// The function containing the loop.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// Loop-body instructions in topological (program) order.
    pub nodes: Vec<InstId>,
    /// Inverse of `nodes`.
    pub index: HashMap<InstId, usize>,
    /// Containing block of each node.
    pub node_block: Vec<BlockId>,
    /// Execution probability per iteration of each node (§4.2.3 step 1).
    pub exec_prob: Vec<f64>,
    /// Static cost (latency) of each node.
    pub cost: Vec<u64>,
    /// Movability class of each node.
    pub class: Vec<NodeClass>,
    /// Immediate controlling branch of each node (a chain towards the
    /// header gives the full control-dependence over-approximation).
    pub ctrl: Vec<Option<usize>>,
    /// Intra-iteration forward dependence edges (`src < dst`).
    pub intra_edges: Vec<DepEdge>,
    /// Cross-iteration dependence edges (source = violation candidate).
    pub cross_edges: Vec<DepEdge>,
    /// Intra-iteration *ordering* edges (`src < dst`): anti- (load→store)
    /// and output- (store→store) dependences between may-aliasing accesses,
    /// plus call-effect ordering. They never cause misspeculation (the SPT
    /// hardware buffers speculative writes) so they are excluded from the
    /// cost graph, but code motion must respect them, so the closure
    /// includes them.
    pub order_edges: Vec<(usize, usize)>,
    /// Static loop body size: `Σ cost`.
    pub body_size: u64,
}

impl DepGraph {
    /// Builds the dependence graph for `loop_id` of `func` in `module`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range for the module.
    pub fn build(
        module: &Module,
        func_id: FuncId,
        loop_id: LoopId,
        profiles: Profiles<'_>,
        config: &DepGraphConfig,
    ) -> DepGraph {
        let func = module.func(func_id);
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let l = forest.get(loop_id);
        let header = l.header;
        let body_blocks: Vec<BlockId> = program_order_blocks(&cfg, &forest, loop_id);
        let in_loop: HashSet<BlockId> = body_blocks.iter().copied().collect();

        // --- Node collection, program order. Header phis are excluded as
        // nodes (they are the cross-iteration carriers, modeled as edges).
        let mut nodes: Vec<InstId> = Vec::new();
        let mut node_block: Vec<BlockId> = Vec::new();
        let mut header_phis: Vec<InstId> = Vec::new();
        for &bb in &body_blocks {
            for &i in &func.block(bb).insts {
                let is_header_phi =
                    bb == header && matches!(func.inst(i).kind, InstKind::Phi { .. });
                if is_header_phi {
                    header_phis.push(i);
                } else {
                    nodes.push(i);
                    node_block.push(bb);
                }
            }
        }
        let index: HashMap<InstId, usize> =
            nodes.iter().enumerate().map(|(k, &i)| (i, k)).collect();

        // --- Execution probabilities.
        let exec_prob_block = block_exec_probs(
            func,
            &cfg,
            header,
            &body_blocks,
            &in_loop,
            profiles.edges.map(|e| (func_id, e)),
            config.static_branch_prob,
        );
        let exec_prob: Vec<f64> = node_block
            .iter()
            .map(|bb| exec_prob_block.get(bb).copied().unwrap_or(1.0))
            .collect();

        // --- Cost and class.
        let summaries = module.effect_summaries();
        let mut cost = Vec::with_capacity(nodes.len());
        let mut class = Vec::with_capacity(nodes.len());
        for (k, &i) in nodes.iter().enumerate() {
            let inst = func.inst(i);
            cost.push(inst.latency().max(1));
            // Instructions inside *inner* loops are pinned: their
            // intra-iteration dependences form cycles (through the inner
            // back edge) that the forward closure cannot legalize, and
            // hoisting an inner loop into the pre-fork region would defeat
            // the size threshold anyway.
            if forest.innermost(node_block[k]) != Some(loop_id) {
                class.push(NodeClass::Pinned);
                continue;
            }
            class.push(match &inst.kind {
                InstKind::Branch { .. } => NodeClass::Branch,
                InstKind::Call { callee, .. } => {
                    if summaries[callee.index()].is_pure() {
                        NodeClass::Movable
                    } else {
                        NodeClass::Pinned
                    }
                }
                InstKind::Jump { .. } => NodeClass::Branch,
                _ => NodeClass::Movable,
            });
        }
        let body_size: u64 = cost.iter().sum();

        // --- Control dependence (over-approximation): each node's
        // controlling branch is the terminator of its block's immediate
        // dominator within the loop, if that terminator is conditional.
        let mut ctrl: Vec<Option<usize>> = vec![None; nodes.len()];
        for (k, &bb) in node_block.iter().enumerate() {
            if bb == header {
                continue;
            }
            let mut cur = dom.idom(bb);
            while let Some(d) = cur {
                if !in_loop.contains(&d) {
                    break;
                }
                if let Some(term) = func.terminator(d) {
                    // An inner-loop exit test does not control blocks after
                    // the inner loop (they run once the inner loop
                    // terminates), so skip it unless the node is inside that
                    // inner loop.
                    let inner_exit_only = match forest.innermost(d) {
                        Some(il) if il != loop_id => !forest.get(il).contains(bb),
                        _ => false,
                    };
                    if matches!(func.inst(term).kind, InstKind::Branch { .. }) && !inner_exit_only {
                        ctrl[k] = index.get(&term).copied();
                        break;
                    }
                }
                if d == header {
                    break;
                }
                cur = dom.idom(d);
            }
        }

        let mut intra_edges: Vec<DepEdge> = Vec::new();
        let mut cross_edges: Vec<DepEdge> = Vec::new();

        // --- Register edges.
        // Map each header phi to the body definition feeding it from the
        // latch (the cross-iteration carrier).
        let latch: HashSet<BlockId> = l.latches.iter().copied().collect();
        let mut phi_source: HashMap<InstId, InstId> = HashMap::new();
        for &phi in &header_phis {
            if let InstKind::Phi { args } = &func.inst(phi).kind {
                for (pred, op) in args {
                    if latch.contains(pred) {
                        if let Operand::Inst(def) = op {
                            if index.contains_key(def) {
                                phi_source.insert(phi, *def);
                            }
                        }
                    }
                }
            }
        }
        let edge_r = |src: usize, dst: usize, exec_prob: &[f64]| -> f64 {
            if exec_prob[src] <= 0.0 {
                1.0
            } else {
                (exec_prob[dst] / exec_prob[src]).clamp(0.0, 1.0)
            }
        };
        for (dst, &i) in nodes.iter().enumerate() {
            func.inst(i).kind.for_each_operand(|op| {
                let Operand::Inst(def) = op else { return };
                if let Some(&src) = index.get(&def) {
                    // Plain intra-iteration def-use.
                    if src < dst {
                        intra_edges.push(DepEdge {
                            src,
                            dst,
                            prob: edge_r(src, dst, &exec_prob),
                            kind: DepEdgeKind::Register,
                        });
                    }
                    // src >= dst would be a cycle through an inner loop or a
                    // non-canonical shape; dropped (documented approximation).
                } else if let Some(&carrier) = phi_source.get(&def) {
                    // Use of a header phi: value produced by `carrier` in
                    // the previous iteration — a cross-iteration dependence.
                    if let Some(&src) = index.get(&carrier) {
                        cross_edges.push(DepEdge {
                            src,
                            dst,
                            prob: exec_prob[dst].clamp(0.0, 1.0),
                            kind: DepEdgeKind::Register,
                        });
                    }
                }
            });
        }

        // --- Memory edges.
        let mut stores: Vec<(usize, RegionId)> = Vec::new();
        let mut loads: Vec<(usize, RegionId)> = Vec::new();
        let mut effect_calls: Vec<(usize, bool, bool)> = Vec::new(); // (node, reads, writes)
        for (k, &i) in nodes.iter().enumerate() {
            match &func.inst(i).kind {
                InstKind::Store { region, .. } => stores.push((k, *region)),
                InstKind::Load { region, .. } => loads.push((k, *region)),
                InstKind::Call { callee, .. } => {
                    let s = summaries[callee.index()];
                    if s.reads_memory || s.writes_memory {
                        effect_calls.push((k, s.reads_memory, s.writes_memory));
                    }
                }
                _ => {}
            }
        }

        if let Some(deps) = profiles.deps {
            // Profiled memory dependences: exact pairs with measured
            // probabilities; unobserved pairs carry no edge.
            let pairs = deps.pairs_for_loop(func_id, loop_id);
            for ((store, load), (intra, cross_adj, _far)) in pairs {
                let (Some(&src), Some(&dst)) = (index.get(&store), index.get(&load)) else {
                    continue;
                };
                let writes = deps.store_count(func_id, store);
                if writes == 0 {
                    continue;
                }
                if intra > 0 && src < dst {
                    intra_edges.push(DepEdge {
                        src,
                        dst,
                        prob: (intra as f64 / writes as f64).clamp(0.0, 1.0),
                        kind: DepEdgeKind::Memory,
                    });
                }
                if cross_adj > 0 {
                    cross_edges.push(DepEdge {
                        src,
                        dst,
                        prob: (cross_adj as f64 / writes as f64).clamp(0.0, 1.0),
                        kind: DepEdgeKind::Memory,
                    });
                }
            }
        } else {
            // Static type-based disambiguation: may-alias iff same region or
            // either unknown.
            let alias = |a: RegionId, b: RegionId| a == b || a.is_unknown() || b.is_unknown();
            for &(s, rs) in &stores {
                for &(ld, rl) in &loads {
                    if !alias(rs, rl) {
                        continue;
                    }
                    if s < ld {
                        intra_edges.push(DepEdge {
                            src: s,
                            dst: ld,
                            prob: STATIC_ALIAS_PROB,
                            kind: DepEdgeKind::Memory,
                        });
                    }
                    cross_edges.push(DepEdge {
                        src: s,
                        dst: ld,
                        prob: STATIC_ALIAS_PROB,
                        kind: DepEdgeKind::Memory,
                    });
                }
            }
        }

        // Ordering edges (anti/output) are purely structural and always
        // static: the dependence profile only measures *true* dependences.
        let mut order_edges: Vec<(usize, usize)> = Vec::new();
        {
            let alias = |a: RegionId, b: RegionId| a == b || a.is_unknown() || b.is_unknown();
            // store -> store (output) and load -> store (anti).
            for &(s, rs) in &stores {
                for &(s2, rs2) in &stores {
                    if s < s2 && alias(rs, rs2) {
                        order_edges.push((s, s2));
                    }
                }
                for &(ld, rl) in &loads {
                    if ld < s && alias(rl, rs) {
                        order_edges.push((ld, s));
                    }
                }
            }
            // Calls with effects order against every access and each other.
            for &(c, reads, writes) in &effect_calls {
                for &(s, _) in &stores {
                    if reads || writes {
                        if s < c {
                            order_edges.push((s, c));
                        } else if c < s {
                            order_edges.push((c, s));
                        }
                    }
                }
                for &(ld, _) in &loads {
                    if writes {
                        if ld < c {
                            order_edges.push((ld, c));
                        } else if c < ld {
                            order_edges.push((c, ld));
                        }
                    }
                }
                for &(c2, _, _) in &effect_calls {
                    if c < c2 {
                        order_edges.push((c, c2));
                    }
                }
            }
        }

        // Calls with memory effects stay conservative in *both* modes: the
        // dependence profiler classifies same-frame accesses only, so callee
        // effects are unknown to the caller loop (the paper's Fig. 19
        // discussion).
        for &(c, reads, writes) in &effect_calls {
            if writes {
                for &(ld, _) in &loads {
                    if c < ld {
                        intra_edges.push(DepEdge {
                            src: c,
                            dst: ld,
                            prob: CALL_DEP_PROB,
                            kind: DepEdgeKind::CallEffect,
                        });
                    }
                    cross_edges.push(DepEdge {
                        src: c,
                        dst: ld,
                        prob: CALL_DEP_PROB,
                        kind: DepEdgeKind::CallEffect,
                    });
                }
            }
            if reads {
                for &(s, _) in &stores {
                    if s < c {
                        intra_edges.push(DepEdge {
                            src: s,
                            dst: c,
                            prob: CALL_DEP_PROB,
                            kind: DepEdgeKind::CallEffect,
                        });
                    }
                    cross_edges.push(DepEdge {
                        src: s,
                        dst: c,
                        prob: CALL_DEP_PROB,
                        kind: DepEdgeKind::CallEffect,
                    });
                }
            }
            // Calls both reading and writing depend on each other across
            // iterations.
            for &(c2, reads2, _w2) in &effect_calls {
                if writes && reads2 && c != c2 {
                    cross_edges.push(DepEdge {
                        src: c,
                        dst: c2,
                        prob: CALL_DEP_PROB,
                        kind: DepEdgeKind::CallEffect,
                    });
                }
            }
        }

        DepGraph {
            func: func_id,
            loop_id,
            nodes,
            index,
            node_block,
            exec_prob,
            cost,
            class,
            ctrl,
            intra_edges,
            cross_edges,
            order_edges,
            body_size,
        }
    }

    /// The violation candidates: unique sources of cross-iteration edges, in
    /// node order (§4.2.1).
    pub fn violation_candidates(&self) -> Vec<usize> {
        let mut set = BTreeSet::new();
        for e in &self.cross_edges {
            set.insert(e.src);
        }
        set.into_iter().collect()
    }

    /// The intra-iteration dependence closure of `seed` nodes: everything
    /// that must accompany them into the pre-fork region — transitive data
    /// predecessors plus (replicated) controlling branches and *their*
    /// operand closures. The result includes the seeds and is sorted.
    ///
    /// One-shot convenience over [`DepGraph::closure_with`]; callers that
    /// compute many closures of the same graph should build
    /// [`DepGraph::closure_preds`] once and reuse scratch buffers.
    pub fn closure(&self, seeds: &[usize]) -> Vec<usize> {
        let preds = self.closure_preds();
        let mut in_set = vec![false; self.nodes.len()];
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.closure_with(&preds, seeds, &mut in_set, &mut work, &mut out);
        out
    }

    /// The predecessor adjacency closure computations walk: intra-iteration
    /// dependence edges plus ordering (anti/output) edges, reversed. Ordering
    /// dependences matter because moving a memory operation requires moving
    /// the accesses it must stay after.
    pub fn closure_preds(&self) -> Vec<Vec<usize>> {
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.intra_edges {
            preds[e.dst].push(e.src);
        }
        for &(src, dst) in &self.order_edges {
            preds[dst].push(src);
        }
        preds
    }

    /// Scratch-buffer variant of [`DepGraph::closure`]: writes the sorted
    /// closure of `seeds` into `out`. `preds` must come from
    /// [`DepGraph::closure_preds`]; `in_set` must be an all-false mask of
    /// `nodes.len()` entries and is restored to all-false before returning,
    /// so the same buffers serve any number of calls without reallocation.
    pub fn closure_with(
        &self,
        preds: &[Vec<usize>],
        seeds: &[usize],
        in_set: &mut [bool],
        work: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        debug_assert!(in_set.iter().all(|&b| !b), "in_set must start clear");
        work.clear();
        out.clear();
        for &s in seeds {
            if !in_set[s] {
                in_set[s] = true;
                work.push(s);
            }
        }
        while let Some(n) = work.pop() {
            out.push(n);
            for &p in &preds[n] {
                if !in_set[p] {
                    in_set[p] = true;
                    work.push(p);
                }
            }
            // Control dependence: the chain of controlling branches.
            let mut c = self.ctrl[n];
            while let Some(b) = c {
                if !in_set[b] {
                    in_set[b] = true;
                    work.push(b);
                }
                c = self.ctrl[b];
            }
        }
        out.sort_unstable();
        for &n in out.iter() {
            in_set[n] = false;
        }
    }

    /// Returns `true` if every node of `set` may enter the pre-fork region
    /// (movable, or a replicable branch).
    pub fn closure_is_legal(&self, set: &[usize]) -> bool {
        set.iter().all(|&n| self.class[n] != NodeClass::Pinned)
    }

    /// Static size (Σ cost) of a node set.
    pub fn set_size(&self, set: &[usize]) -> u64 {
        set.iter().map(|&n| self.cost[n]).sum()
    }
}

/// Blocks of `loop_id` in *program order*: a topological order of the
/// forward CFG in which each inner loop is contiguous and precedes every
/// block that executes after it within one iteration of `loop_id`.
///
/// Plain RPO does not have that property: a DFS may explore an inner loop's
/// exit continuation only after fully finishing the loop body, which puts
/// the continuation *before* the body in reverse postorder. The graph's
/// forward (`src < dst`) dependence tests would then disagree with dynamic
/// intra-iteration execution order — most dangerously, a store in the
/// continuation would lose its anti-dependence (load→store) ordering edges
/// against loads inside the inner loop, letting the partitioner hoist the
/// store into the pre-fork region above same-iteration reads.
///
/// Construction: the loop's direct blocks and its immediate inner loops are
/// ordered by RPO index (an inner loop is keyed by its header, which any
/// RPO places before everything the loop dominates and before its exit
/// continuations); each inner loop then expands recursively in place.
fn program_order_blocks(cfg: &Cfg, forest: &LoopForest, loop_id: LoopId) -> Vec<BlockId> {
    /// The immediate child loop of `loop_id` containing `bb`, or `None`
    /// when `bb` belongs to `loop_id` directly.
    fn child_of(forest: &LoopForest, loop_id: LoopId, bb: BlockId) -> Option<LoopId> {
        let mut il = forest.innermost(bb)?;
        while il != loop_id {
            match forest.get(il).parent {
                Some(p) if p == loop_id => return Some(il),
                Some(p) => il = p,
                None => return None, // not nested under loop_id; treat as direct
            }
        }
        None
    }

    enum Item {
        Block(BlockId),
        Child(LoopId),
    }
    let l = forest.get(loop_id);
    let mut items: Vec<(usize, Item)> = Vec::new();
    let mut child_seen: HashSet<LoopId> = HashSet::new();
    for &bb in &l.blocks {
        match child_of(forest, loop_id, bb) {
            None => items.push((cfg.rpo_index[bb.index()], Item::Block(bb))),
            Some(child) => {
                if child_seen.insert(child) {
                    let h = forest.get(child).header;
                    items.push((cfg.rpo_index[h.index()], Item::Child(child)));
                }
            }
        }
    }
    items.sort_by_key(|&(k, _)| k);
    let mut out = Vec::with_capacity(l.blocks.len());
    for (_, item) in items {
        match item {
            Item::Block(bb) => out.push(bb),
            Item::Child(c) => out.extend(program_order_blocks(cfg, forest, c)),
        }
    }
    out
}

/// Per-block execution probability relative to the header, from profile or
/// static estimation.
fn block_exec_probs(
    func: &spt_ir::Function,
    cfg: &Cfg,
    header: BlockId,
    body_blocks: &[BlockId],
    in_loop: &HashSet<BlockId>,
    profile: Option<(FuncId, &EdgeProfile)>,
    static_branch_prob: f64,
) -> HashMap<BlockId, f64> {
    let mut out = HashMap::new();
    if let Some((func_id, edges)) = profile {
        if edges.block_count(func_id, header) > 0 {
            for &bb in body_blocks {
                out.insert(bb, edges.exec_prob(func_id, bb, header, 1.0));
            }
            return out;
        }
    }
    // Static: forward propagation from the header, skipping back edges.
    out.insert(header, 1.0);
    for &bb in body_blocks {
        out.entry(bb).or_insert(0.0);
    }
    for &bb in body_blocks {
        let p = out[&bb];
        if p <= 0.0 {
            continue;
        }
        let succs: Vec<BlockId> = func
            .successors(bb)
            .into_iter()
            .filter(|s| in_loop.contains(s) && *s != header)
            .collect();
        if succs.is_empty() {
            continue;
        }
        let share = if succs.len() > 1 {
            static_branch_prob
        } else {
            // A single in-loop successor still may share with a loop exit.
            let total_succs = func.successors(bb).len();
            if total_succs > 1 {
                static_branch_prob
            } else {
                1.0
            }
        };
        for s in succs {
            // Blocks are visited in program order (a forward-edge
            // topological order), so forward propagation sees final
            // predecessor values (back edges skipped).
            if cfg.rpo_index[s.index()] > cfg.rpo_index[bb.index()] {
                let e = out.entry(s).or_insert(0.0);
                *e = (*e + p * share).min(1.0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_profile::{Interp, ProfileCollector, Val};

    fn build(src: &str, fname: &str) -> (Module, DepGraph) {
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        (module, graph)
    }

    fn build_profiled(src: &str, fname: &str, entry: &str, args: &[Val]) -> (Module, DepGraph) {
        let module = spt_frontend::compile(src).unwrap();
        let mut collector = ProfileCollector::new();
        {
            let interp = Interp::new(&module);
            interp.run(entry, args, &mut collector).unwrap();
        }
        let func = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles {
                edges: Some(&collector.edges),
                deps: Some(&collector.deps),
            },
            &DepGraphConfig::default(),
        );
        (module, graph)
    }

    const INDUCTION: &str = "
        global out[128]: int;
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                s = s + i * 3;
                i = i + 1;
            }
            return s;
        }
    ";

    #[test]
    fn induction_updates_are_violation_candidates() {
        let (module, g) = build(INDUCTION, "f");
        let func = module.func_by_name("f").unwrap();
        let f = module.func(func);
        let vcs = g.violation_candidates();
        // `i = i + 1` and `s = s + i*3` both feed the next iteration.
        assert_eq!(vcs.len(), 2, "two loop-carried scalar defs");
        for &vc in &vcs {
            assert!(matches!(f.inst(g.nodes[vc]).kind, InstKind::Binary { .. }));
        }
        assert!(!g.cross_edges.is_empty());
    }

    #[test]
    fn closure_includes_data_predecessors() {
        let (_m, g) = build(INDUCTION, "f");
        let vcs = g.violation_candidates();
        for &vc in &vcs {
            let cl = g.closure(&[vc]);
            assert!(cl.contains(&vc));
            // Closure legality: pure arithmetic — movable.
            assert!(g.closure_is_legal(&cl));
            // Closure size bounded by body.
            assert!(g.set_size(&cl) <= g.body_size);
        }
    }

    #[test]
    fn static_memory_deps_are_conservative() {
        // a[i] written, a[j] read: same region, no profile => assumed
        // cross-iteration dependent with probability 1.
        let src = "
            global a[64]: int;
            global b[64]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = i;
                    s = s + b[i];
                }
                return s;
            }
        ";
        let (_m, g) = build(src, "f");
        // The store to `a` and the load of `b` are in different regions: no
        // memory cross edge between them.
        let mem_cross: Vec<&DepEdge> = g
            .cross_edges
            .iter()
            .filter(|e| e.kind == DepEdgeKind::Memory)
            .collect();
        assert!(
            mem_cross.is_empty(),
            "different regions must not alias: {mem_cross:?}"
        );
    }

    #[test]
    fn same_region_static_dep_appears() {
        let src = "
            global a[64]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = i;
                    s = s + a[i - 1];
                }
                return s;
            }
        ";
        let (_m, g) = build(src, "f");
        let mem_cross = g
            .cross_edges
            .iter()
            .filter(|e| e.kind == DepEdgeKind::Memory)
            .count();
        assert!(
            mem_cross >= 1,
            "same-region store->load must be a candidate"
        );
        let vcs = g.violation_candidates();
        assert!(!vcs.is_empty());
    }

    #[test]
    fn profiling_removes_false_deps() {
        // Store a[i], load a[i] of the SAME iteration: profiled as intra
        // only, so the cross edge disappears versus the static graph.
        let src = "
            global a[256]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    a[i] = i * 2;
                    s = s + a[i];
                }
                return s;
            }
        ";
        let (_m, static_g) = build(src, "f");
        let (_m2, prof_g) = build_profiled(src, "f", "f", &[Val::from_i64(200)]);
        let static_mem_cross = static_g
            .cross_edges
            .iter()
            .filter(|e| e.kind == DepEdgeKind::Memory)
            .count();
        let prof_mem_cross = prof_g
            .cross_edges
            .iter()
            .filter(|e| e.kind == DepEdgeKind::Memory)
            .count();
        assert!(static_mem_cross >= 1);
        assert_eq!(prof_mem_cross, 0, "profile proves the dep is intra-only");
        // And the intra edge exists with probability ~1.
        let intra = prof_g
            .intra_edges
            .iter()
            .find(|e| e.kind == DepEdgeKind::Memory)
            .expect("profiled intra edge");
        assert!(intra.prob > 0.95);
    }

    #[test]
    fn profiled_cross_probability_measured() {
        // a[i] reads a[i-1]: always cross-adjacent => prob ~1.
        let src = "
            global a[256]: int;
            fn f(n: int) -> int {
                a[0] = 1;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = a[i - 1] + 1;
                }
                return a[n - 1];
            }
        ";
        let (_m, g) = build_profiled(src, "f", "f", &[Val::from_i64(200)]);
        let cross = g
            .cross_edges
            .iter()
            .find(|e| e.kind == DepEdgeKind::Memory)
            .expect("cross memory edge");
        assert!(cross.prob > 0.95, "prob = {}", cross.prob);
    }

    #[test]
    fn store_after_inner_loop_keeps_anti_dependence() {
        // Found by corpus fuzzing (seed 900): the guarded store executes
        // AFTER the inner loop's loads within one outer iteration, but raw
        // RPO ordered its block before the inner-loop body, dropping the
        // load→store anti-dependence. Without that ordering edge the
        // partitioner may hoist the store into the pre-fork region above
        // same-iteration reads of the same array — a miscompile.
        let src = "
            global b[256]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    for (let j = 0; j < 4; j = j + 1) {
                        s = s + b[j];
                    }
                    if (i % 6 == 0) { b[(i * 2) % 256] = 3; }
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let fid = module.func_by_name("f").unwrap();
        let func = module.func(fid);
        let cfg = spt_ir::Cfg::compute(func);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(func, &cfg, &dom);
        let outer = forest.ids().find(|&l| forest.get(l).depth == 1).unwrap();
        let g = DepGraph::build(
            &module,
            fid,
            outer,
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let store = g
            .nodes
            .iter()
            .position(|&i| matches!(func.inst(i).kind, InstKind::Store { .. }))
            .expect("store in body");
        let load = g
            .nodes
            .iter()
            .position(|&i| matches!(func.inst(i).kind, InstKind::Load { .. }))
            .expect("load in body");
        // Program order: the inner-loop load precedes the store.
        assert!(
            load < store,
            "node order must reflect intra-iteration execution order \
             (load at {load}, store at {store})"
        );
        // The anti-dependence ordering edge exists...
        assert!(
            g.order_edges.contains(&(load, store)),
            "anti-dependence load->store missing: {:?}",
            g.order_edges
        );
        // ...so the store's closure reaches the pinned inner-loop load and
        // the store can never move into the pre-fork region.
        let cl = g.closure(&[store]);
        assert!(cl.contains(&load));
        assert!(!g.closure_is_legal(&cl));
    }

    #[test]
    fn impure_calls_are_pinned() {
        let src = "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    s = s + bump(i);
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name("f").unwrap();
        let g = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let f = module.func(func);
        let call_node = g
            .nodes
            .iter()
            .position(|&i| matches!(f.inst(i).kind, InstKind::Call { .. }))
            .expect("call in body");
        assert_eq!(g.class[call_node], NodeClass::Pinned);
        // The call is a violation candidate (writes memory read next
        // iteration) but its closure is illegal to move.
        let cl = g.closure(&[call_node]);
        assert!(!g.closure_is_legal(&cl));
    }

    #[test]
    fn exec_prob_reflects_branches_statically() {
        let src = "
            global a[64]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + a[i]; }
                }
                return s;
            }
        ";
        let (_m, g) = build(src, "f");
        // Some node (the guarded add/load) has exec prob 0.5 statically.
        assert!(
            g.exec_prob.iter().any(|&p| (p - 0.5).abs() < 1e-9),
            "probs: {:?}",
            g.exec_prob
        );
    }

    #[test]
    fn exec_prob_uses_profile_when_present() {
        let src = "
            global a[1024]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 10 == 0) { s = s + a[i]; }
                }
                return s;
            }
        ";
        let (_m, g) = build_profiled(src, "f", "f", &[Val::from_i64(1000)]);
        assert!(
            g.exec_prob.iter().any(|&p| (p - 0.1).abs() < 0.02),
            "profiled rare branch ~0.1: {:?}",
            g.exec_prob
        );
    }
}
