//! The SPT loop transformation (§6.2).
//!
//! Given an optimal partition, the loop body's CFG is duplicated as the
//! *pre-fork region*: the partition's statements (and the loop-header phis,
//! which carry the cross-iteration values) move into the duplicate; branches
//! they are control-dependent on are replicated (Fig. 12); everything else
//! is dropped from the duplicate. An `SPT_FORK` connects the regions and
//! `SPT_KILL`s guard the exits.
//!
//! Transformed shape (H = original header, H' = its pre-fork clone):
//!
//! ```text
//! preheader ──► H' (phis + moved code + replicated exit test)
//!                 │ exit                        │ continue
//!                 ▼                             ▼
//!               E (SPT_KILL)          …pre-fork blocks… ──► FORK ──► H
//!                                                                    │
//!                LT (latch) ──► H'  ◄───────── post-fork body ◄──────┘
//! ```
//!
//! The speculative thread spawns at `H'` — "the start address of the next
//! iteration" (§1) — with a copy of the forking thread's context.

use crate::TransformError;
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, Cfg, DomTree, Function, Inst, InstId, InstKind, LoopForest, Operand};
use std::collections::{HashMap, HashSet};

/// What to transform and how.
#[derive(Clone, Debug)]
pub struct SptLoopSpec {
    /// The loop to transform (id within the function's current forest).
    pub loop_id: LoopId,
    /// Instructions to *move* into the pre-fork region (a dependence-closed
    /// set; the partition). Terminators in this set are treated as
    /// replications.
    pub move_insts: HashSet<InstId>,
    /// Conditional branches to *replicate* into the pre-fork region.
    pub replicate_insts: HashSet<InstId>,
    /// Tag stamped on the emitted `SPT_FORK`/`SPT_KILL`.
    pub loop_tag: u32,
}

/// Result of a successful transformation.
#[derive(Clone, Debug)]
pub struct SptEmitInfo {
    /// The new loop header (entry of the pre-fork region; fork spawn target).
    pub new_header: BlockId,
    /// The block holding the `SPT_FORK`.
    pub fork_block: BlockId,
    /// Clone map: original loop block → pre-fork block.
    pub block_map: HashMap<BlockId, BlockId>,
    /// Clone map: moved/replicated instruction → its pre-fork clone.
    pub inst_map: HashMap<InstId, InstId>,
    /// The loop tag used.
    pub loop_tag: u32,
}

/// Applies the SPT transformation to one loop of `func`.
///
/// Requirements: the function is in SSA form, the loop has a dedicated
/// preheader and a single latch (run `loop_simplify` first), and
/// `move_insts` is a legal dependence-closed set whose control dependences
/// are covered by `replicate_insts` (both produced by the partition search
/// driver).
///
/// # Errors
///
/// Returns [`TransformError`] if the loop id is stale or the loop is not in
/// canonical form, and [`TransformError::Precondition`] — before touching
/// `func` — if a header definition live outside the loop stays post-fork,
/// or if an instruction the pre-fork region clones (moved, replicated, or
/// the header's exit test) reads an in-loop value that is neither moved nor
/// a header phi.
pub fn emit_spt_loop(
    func: &mut Function,
    spec: &SptLoopSpec,
) -> Result<SptEmitInfo, TransformError> {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    if spec.loop_id.index() >= forest.len() {
        return Err(TransformError::NoSuchLoop);
    }
    let l = forest.get(spec.loop_id).clone();
    let header = l.header;
    let preheader = l
        .preheader(&cfg)
        .ok_or(TransformError::NotCanonical("preheader"))?;
    if l.latches.len() != 1 {
        return Err(TransformError::NotCanonical("single latch"));
    }
    let latch = l.latches[0];
    let in_loop: HashSet<BlockId> = l.blocks.iter().copied().collect();

    // Normalize the sets: terminators from move_insts become replications.
    let mut moved: HashSet<InstId> = HashSet::new();
    let mut replicated: HashSet<InstId> = spec.replicate_insts.clone();
    for &i in &spec.move_insts {
        if func.inst(i).kind.is_terminator() {
            replicated.insert(i);
        } else {
            moved.insert(i);
        }
    }
    // The header's terminator (the per-iteration exit test) is always
    // replicated: the pre-fork region decides whether the iteration exists.
    if let Some(term) = func.terminator(header) {
        replicated.insert(term);
    }

    let header_phis: Vec<InstId> = func
        .block(header)
        .insts
        .iter()
        .copied()
        .filter(|&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
        .collect();

    // Precondition: every non-phi header definition that is live outside the
    // loop must be in the pre-fork set. After the transformation the loop
    // exits from the *cloned* header, so the exiting iteration's value of a
    // header definition only exists if the clone computes it.
    {
        let mut used_outside: HashSet<InstId> = HashSet::new();
        for bb in func.block_ids() {
            if in_loop.contains(&bb) {
                continue;
            }
            for &i in &func.block(bb).insts {
                func.inst(i).kind.for_each_operand(|op| {
                    if let Operand::Inst(d) = op {
                        used_outside.insert(d);
                    }
                });
            }
        }
        for &i in &func.block(header).insts {
            let inst = func.inst(i);
            if inst.produces_value()
                && !matches!(inst.kind, InstKind::Phi { .. })
                && used_outside.contains(&i)
                && !moved.contains(&i)
                && !replicated.contains(&i)
            {
                return Err(TransformError::Precondition(format!(
                    "header definition {i} is live outside the loop but not in the pre-fork set"
                )));
            }
        }
        // The pre-fork region clones every moved and replicated instruction
        // (the header's exit test included), so each may read only what the
        // clone has: values from outside the loop, header phis and other
        // moved instructions. Any other in-loop def is post-fork. (Header
        // phis themselves are rewired by the cross-region repair below.)
        let inst_blocks = func.inst_blocks();
        let mut cloned: Vec<InstId> = moved.union(&replicated).copied().collect();
        cloned.sort();
        for i in cloned {
            if header_phis.contains(&i) {
                continue;
            }
            let mut post_fork = None;
            func.inst(i).kind.for_each_operand(|op| {
                if let Operand::Inst(d) = op {
                    if inst_blocks.get(&d).is_some_and(|b| in_loop.contains(b))
                        && !moved.contains(&d)
                        && !header_phis.contains(&d)
                    {
                        post_fork.get_or_insert(d);
                    }
                }
            });
            if let Some(d) = post_fork {
                return Err(TransformError::Precondition(format!(
                    "pre-fork instruction {i} reads {d}, an in-loop value that is neither moved nor a header phi"
                )));
            }
        }
    }

    // ---- Phase 1: allocate clone ids.
    // Cloned instructions: header phis, moved insts, replicated branches and
    // every terminator of a loop block (to preserve the CFG skeleton).
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    for &bb in &l.blocks {
        block_map.insert(bb, func.add_block());
    }
    let fork_block = func.add_block();
    let new_header = block_map[&header];

    let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
    let mut clone_plan: Vec<(BlockId, InstId)> = Vec::new(); // (orig block, orig inst)
    for &bb in &l.blocks {
        for &i in &func.block(bb).insts {
            let kind = &func.inst(i).kind;
            let is_phi_of_header = bb == header && matches!(kind, InstKind::Phi { .. });
            let cloned = is_phi_of_header
                || moved.contains(&i)
                || replicated.contains(&i)
                || kind.is_terminator();
            if cloned {
                clone_plan.push((bb, i));
            }
        }
    }
    for &(_, i) in &clone_plan {
        // Placeholder kind, overwritten in phase 2.
        let id = func.add_inst(Inst::new(InstKind::SptKill { loop_tag: 0 }, None));
        inst_map.insert(i, id);
    }

    // Innermost-loop lookup for branch folding.
    let inner_of = |bb: BlockId| -> Option<LoopId> {
        let il = forest.innermost(bb)?;
        if il == spec.loop_id {
            None
        } else {
            Some(il)
        }
    };

    // Target resolution inside the clone.
    let resolve_target = |from: BlockId, t: BlockId| -> BlockId {
        if t == header {
            fork_block // the clone's back edge ends the pre-fork region
        } else if in_loop.contains(&t) {
            block_map[&t]
        } else if from == header {
            t // the replicated exit test really exits
        } else {
            fork_block // breaks/returns defer to the post-fork region
        }
    };

    // ---- Phase 2: fill clone bodies.
    for &(bb, i) in &clone_plan {
        let clone_id = inst_map[&i];
        let orig = func.inst(i).clone();
        let mut kind = orig.kind.clone();
        let is_header_phi = bb == header && matches!(kind, InstKind::Phi { .. });

        if is_header_phi {
            // Header phi: preds stay (preheader, latch); operand values are
            // rewritten later via the cross-region replacement map (the
            // latch value may need to route through a fork-block phi).
        } else {
            match &mut kind {
                InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. } => {
                    if matches!(kind, InstKind::Branch { .. }) && !replicated.contains(&i) {
                        // Fold: this branch guards nothing that moved.
                        let arm = fold_arm(&cfg, &forest, bb, &kind, &in_loop, &inner_of);
                        kind = InstKind::Jump { target: arm };
                    } else if matches!(kind, InstKind::Ret { .. }) {
                        // A return inside the loop: the pre-fork region
                        // simply ends; the post-fork copy performs the
                        // actual return.
                        kind = InstKind::Jump { target: header };
                        // (header target resolves to fork_block below)
                    } else {
                        kind.map_operands(|op| remap(op, &inst_map));
                    }
                    kind.map_blocks(|t| resolve_target(bb, t));
                }
                InstKind::Phi { .. } => {
                    // Interior phi: preds and values both remap.
                    kind.map_operands(|op| remap(op, &inst_map));
                    kind.map_blocks(|b| block_map.get(&b).copied().unwrap_or(b));
                }
                _ => {
                    kind.map_operands(|op| remap(op, &inst_map));
                }
            }
        }
        *func.inst_mut(clone_id) = Inst::new(kind, orig.ty);
        func.block_mut(block_map[&bb]).insts.push(clone_id);
    }

    // Fork block: SPT_FORK then fall through to the post-fork region.
    func.append_inst(
        fork_block,
        Inst::new(
            InstKind::SptFork {
                loop_tag: spec.loop_tag,
                spawn_target: new_header,
            },
            None,
        ),
    );
    func.append_inst(
        fork_block,
        Inst::new(InstKind::Jump { target: header }, None),
    );

    // ---- Phase 3: rewire the original loop.
    // Preheader now enters the pre-fork region.
    retarget_terminator(func, preheader, header, new_header);

    // Original header: drop phis, fold the (replicated) exit test into a
    // jump to the in-loop arm; record the exit edge it used to own.
    let mut header_exit: Option<(BlockId, BlockId)> = None; // (old pred H, exit target)
    {
        let block = func.block_mut(header);
        block.insts.retain(|i| !header_phis.contains(i));
        if let Some(term) = func.terminator(header) {
            if let InstKind::Branch {
                then_bb, else_bb, ..
            } = func.inst(term).kind
            {
                let (stay, leave) = if in_loop.contains(&then_bb) {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                if !in_loop.contains(&leave) {
                    header_exit = Some((header, leave));
                    func.inst_mut(term).kind = InstKind::Jump { target: stay };
                }
            }
        }
    }

    // Latch loops back to the new header.
    retarget_terminator(func, latch, header, new_header);

    // Fix phi args in clones now that all edges are final: drop args whose
    // predecessor edge no longer exists (folded branches).
    fix_clone_phis(func, &block_map);

    // Delete moved instructions from the original body.
    for &bb in &l.blocks {
        func.block_mut(bb).insts.retain(|i| !moved.contains(i));
    }

    // ---- Cross-region SSA repair.
    //
    // Post-fork (and after-loop) uses of a moved definition must read its
    // pre-fork clone. When the clone sits on a conditional pre-fork path
    // (inside a replicated branch), it does not statically dominate the
    // post-fork region, even though the replicated branch makes the dynamic
    // paths agree. This is the paper's overlapping-live-range problem
    // (Figs. 10–11); its value-SSA equivalent is a phi wherever pre-fork
    // paths that computed the clone merge with paths that did not — at the
    // join of the replicated branch's arms, or at the fork block — carrying
    // a type-correct placeholder from the paths that did not. Only the
    // placeholder is dynamically dead: the post-fork region re-takes the
    // same branch decisions, so a use that reads it never executes.
    let clone_blocks: HashSet<BlockId> = block_map.values().copied().collect();
    let region: HashSet<BlockId> = clone_blocks.iter().copied().chain([fork_block]).collect();
    let cfg2 = Cfg::compute(func);
    let dom2 = DomTree::compute(&cfg2);
    let inst_blocks2 = func.inst_blocks();
    let mut replacement: HashMap<InstId, Operand> = HashMap::new();
    let mut ordered: Vec<(InstId, InstId)> = inst_map.iter().map(|(&o, &c)| (o, c)).collect();
    ordered.sort_by_key(|&(o, _)| o);
    for (orig, c) in ordered {
        if !func.inst(c).produces_value() {
            continue;
        }
        let Some(&cb) = inst_blocks2.get(&c) else {
            continue;
        };
        let value = if dom2.dominates(cb, fork_block) {
            Operand::Inst(c)
        } else {
            let mut repair = Repair::new(func, &cfg2, &dom2, &region, new_header, cb, c);
            repair.value_at_entry(func, fork_block)
        };
        replacement.insert(orig, value);
    }
    let apply = |op: Operand, replacement: &HashMap<InstId, Operand>| -> Operand {
        match op {
            Operand::Inst(d) => replacement.get(&d).copied().unwrap_or(op),
            other => other,
        }
    };
    for bb in func.block_ids().collect::<Vec<_>>() {
        if bb == fork_block {
            continue; // fork phis already reference clones directly
        }
        let is_clone = clone_blocks.contains(&bb);
        for &i in &func.block(bb).insts.clone() {
            // Inside the clone region only the header-phi clones need the
            // replacement map (their operands were left untouched in phase
            // 2); everything else was remapped at clone time.
            if is_clone && !(bb == new_header && matches!(func.inst(i).kind, InstKind::Phi { .. }))
            {
                continue;
            }
            let kind = &mut func.inst_mut(i).kind;
            kind.map_operands(|op| apply(op, &replacement));
        }
    }

    // Exit-target phi surgery: the exit edge from H moved to H'.
    if let Some((old_pred, exit_target)) = header_exit {
        for &i in &func.block(exit_target).insts.clone() {
            if let InstKind::Phi { args } = &mut func.inst_mut(i).kind {
                for (pred, _val) in args.iter_mut() {
                    if *pred == old_pred {
                        *pred = new_header;
                    }
                }
            }
        }
    }

    // SPT_KILL at every loop exit target, after its phis; and before any
    // in-loop return.
    let exit_targets: HashSet<BlockId> = {
        // Recompute: exits of the transformed loop.
        let mut outs = HashSet::new();
        if let Some((_, e)) = header_exit {
            outs.insert(e);
        }
        for &bb in &l.blocks {
            for t in func.successors(bb) {
                if !in_loop.contains(&t) && t != new_header && !clone_blocks.contains(&t) {
                    outs.insert(t);
                }
            }
        }
        outs
    };
    for &e in &exit_targets {
        let kill = func.add_inst(Inst::new(
            InstKind::SptKill {
                loop_tag: spec.loop_tag,
            },
            None,
        ));
        let pos = func
            .block(e)
            .insts
            .iter()
            .position(|&i| !matches!(func.inst(i).kind, InstKind::Phi { .. }))
            .unwrap_or(func.block(e).insts.len());
        func.block_mut(e).insts.insert(pos, kill);
    }
    for &bb in &l.blocks {
        if let Some(term) = func.terminator(bb) {
            if matches!(func.inst(term).kind, InstKind::Ret { .. }) {
                let kill = func.add_inst(Inst::new(
                    InstKind::SptKill {
                        loop_tag: spec.loop_tag,
                    },
                    None,
                ));
                let block = func.block_mut(bb);
                let at = block.insts.len() - 1;
                block.insts.insert(at, kill);
            }
        }
    }

    Ok(SptEmitInfo {
        new_header,
        fork_block,
        block_map,
        inst_map,
        loop_tag: spec.loop_tag,
    })
}

/// The pre-fork value of one moved definition, block by block through the
/// pre-fork region (the clone blocks and the fork block): its clone `c` (in
/// block `cb`) where every path from the region entry `new_header` computed
/// it, the placeholder where none did, and a phi where both kinds of path
/// merge. Phis are created on demand and memoized per block.
struct Repair<'a> {
    cfg: &'a Cfg,
    dom: &'a DomTree,
    new_header: BlockId,
    cb: BlockId,
    c: InstId,
    ty: Option<spt_ir::Ty>,
    placeholder: Operand,
    /// Blocks of the pre-fork region (and the fork block) whose end the
    /// clone may reach, and those the placeholder may reach.
    clone_reaches: HashSet<BlockId>,
    placeholder_reaches: HashSet<BlockId>,
    phis: HashMap<BlockId, Operand>,
}

impl<'a> Repair<'a> {
    fn new(
        func: &Function,
        cfg: &'a Cfg,
        dom: &'a DomTree,
        region: &HashSet<BlockId>,
        new_header: BlockId,
        cb: BlockId,
        c: InstId,
    ) -> Self {
        let ty = func.inst(c).ty;
        let placeholder = match ty {
            Some(spt_ir::Ty::F64) => Operand::const_f64(0.0),
            _ => Operand::const_i64(0),
        };
        // Forward reachability from `start` inside the region, never
        // through `stop` or back into `new_header`.
        let reach = |start: BlockId, stop: BlockId| {
            let mut seen: HashSet<BlockId> = HashSet::new();
            let mut work = vec![start];
            while let Some(bb) = work.pop() {
                if seen.insert(bb) {
                    work.extend(
                        cfg.succs(bb)
                            .iter()
                            .copied()
                            .filter(|&s| region.contains(&s) && s != new_header && s != stop),
                    );
                }
            }
            seen
        };
        Repair {
            cfg,
            dom,
            new_header,
            cb,
            c,
            ty,
            placeholder,
            clone_reaches: reach(cb, new_header),
            placeholder_reaches: reach(new_header, cb),
            phis: HashMap::new(),
        }
    }

    /// The value at the end of `bb`.
    fn value_at_end(&mut self, func: &mut Function, bb: BlockId) -> Operand {
        if bb == self.cb {
            Operand::Inst(self.c)
        } else {
            self.value_at_entry(func, bb)
        }
    }

    /// The value on entry to `bb`.
    fn value_at_entry(&mut self, func: &mut Function, bb: BlockId) -> Operand {
        if !self.cfg.is_reachable(bb) {
            return self.placeholder;
        }
        let preds = self.cfg.preds(bb);
        let from_clone =
            bb != self.new_header && preds.iter().any(|p| self.clone_reaches.contains(p));
        let from_placeholder =
            bb == self.new_header || preds.iter().any(|p| self.placeholder_reaches.contains(p));
        if !from_placeholder && self.dom.dominates(self.cb, bb) {
            return Operand::Inst(self.c);
        }
        if !from_clone {
            return self.placeholder;
        }
        if let [single] = *preds {
            return self.value_at_end(func, single);
        }
        if let Some(&phi) = self.phis.get(&bb) {
            return phi;
        }
        // Memoize before filling the arguments: a cycle through an inner
        // loop of the region comes back to this phi.
        let phi = func.add_inst(Inst::new(InstKind::Phi { args: Vec::new() }, self.ty));
        self.phis.insert(bb, Operand::Inst(phi));
        let args = preds
            .iter()
            .map(|&p| (p, self.value_at_end(func, p)))
            .collect();
        func.inst_mut(phi).kind = InstKind::Phi { args };
        func.block_mut(bb).insts.insert(0, phi);
        Operand::Inst(phi)
    }
}

fn remap(op: Operand, inst_map: &HashMap<InstId, InstId>) -> Operand {
    match op {
        Operand::Inst(id) => match inst_map.get(&id) {
            Some(&c) => Operand::Inst(c),
            None => op,
        },
        other => other,
    }
}

fn retarget_terminator(func: &mut Function, block: BlockId, old: BlockId, new: BlockId) {
    if let Some(term) = func.terminator(block) {
        func.inst_mut(term)
            .kind
            .map_blocks(|t| if t == old { new } else { t });
    }
}

/// Chooses the arm a folded (non-replicated) branch jumps to inside the
/// pre-fork clone: leave inner loops, otherwise make forward progress.
fn fold_arm(
    cfg: &Cfg,
    forest: &LoopForest,
    bb: BlockId,
    kind: &InstKind,
    in_loop: &HashSet<BlockId>,
    inner_of: &impl Fn(BlockId) -> Option<LoopId>,
) -> BlockId {
    let InstKind::Branch {
        then_bb, else_bb, ..
    } = kind
    else {
        unreachable!("fold_arm on non-branch");
    };
    let arms = [*then_bb, *else_bb];
    // Prefer leaving the innermost inner loop containing this block.
    if let Some(il) = inner_of(bb) {
        for a in arms {
            if !forest.get(il).contains(a) {
                return a;
            }
        }
    }
    // Prefer a forward, in-loop arm.
    for a in arms {
        if in_loop.contains(&a) && cfg.rpo_index[a.index()] > cfg.rpo_index[bb.index()] {
            return a;
        }
    }
    // Otherwise any in-loop arm; fall back to the first.
    arms.into_iter()
        .find(|a| in_loop.contains(a))
        .unwrap_or(arms[0])
}

/// Drops phi args in cloned blocks whose predecessor edge disappeared
/// (because a branch was folded during cloning).
fn fix_clone_phis(func: &mut Function, block_map: &HashMap<BlockId, BlockId>) {
    let clone_blocks: Vec<BlockId> = block_map.values().copied().collect();
    // Recompute predecessors among clone blocks.
    let mut preds: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    for bb in func.block_ids() {
        for s in func.successors(bb) {
            preds.entry(s).or_default().insert(bb);
        }
    }
    for &cb in &clone_blocks {
        let ps = preds.get(&cb).cloned().unwrap_or_default();
        for &i in &func.block(cb).insts.clone() {
            if let InstKind::Phi { args } = &mut func.inst_mut(i).kind {
                args.retain(|(p, _)| ps.contains(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_cost::LoopCostModel;
    use spt_ir::Module;
    use spt_partition::{optimal_partition, SearchConfig};
    use spt_profile::{Interp, NoProfiler, Val};

    /// Runs the whole flow on loop 0 of `fname`: build model, search optimal
    /// partition, emit, cleanup, verify. Returns the transformed module.
    fn transform(src: &str, fname: &str) -> (Module, SptEmitInfo) {
        let mut module = spt_frontend::compile(src).unwrap();
        let func_id = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            func_id,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let model = LoopCostModel::new(graph);
        let result = optimal_partition(&model, &SearchConfig::default());

        let mut move_insts = HashSet::new();
        let mut replicate_insts = HashSet::new();
        for n in result.partition.nodes() {
            let inst = model.graph.nodes[n];
            if model.graph.class[n] == spt_cost::dep_graph::NodeClass::Branch {
                replicate_insts.insert(inst);
            } else {
                move_insts.insert(inst);
            }
        }
        // Include the header test closure, as the pipeline driver does.
        let func = module.func(func_id);
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let header = forest.get(LoopId::new(0)).header;
        if let Some(term) = func.terminator(header) {
            if let Some(&tnode) = model.graph.index.get(&term) {
                for n in model.graph.closure(&[tnode]) {
                    let inst = model.graph.nodes[n];
                    if model.graph.class[n] == spt_cost::dep_graph::NodeClass::Branch {
                        replicate_insts.insert(inst);
                    } else {
                        move_insts.insert(inst);
                    }
                }
            }
        }

        let spec = SptLoopSpec {
            loop_id: LoopId::new(0),
            move_insts,
            replicate_insts,
            loop_tag: 7,
        };
        let info = emit_spt_loop(module.func_mut(func_id), &spec).expect("emit");
        spt_ir::passes::cleanup(module.func_mut(func_id));
        spt_ir::verify::verify_module(&module).expect("transformed IR verifies");
        (module, info)
    }

    fn run_ret(module: &Module, entry: &str, args: &[Val]) -> i64 {
        let interp = Interp::new(module);
        interp
            .run(entry, args, &mut NoProfiler)
            .expect("runs")
            .ret
            .expect("ret")
            .as_i64()
    }

    const SUM: &str = "
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
    fn transform_preserves_semantics() {
        let (module, _info) = transform(SUM, "f");
        for n in [0i64, 1, 2, 10, 100] {
            let expected: i64 = (0..n).map(|i| i * 3).sum();
            assert_eq!(
                run_ret(&module, "f", &[Val::from_i64(n)]),
                expected,
                "n={n}"
            );
        }
    }

    #[test]
    fn fork_and_kill_emitted() {
        let (module, info) = transform(SUM, "f");
        let f = module.func(module.func_by_name("f").unwrap());
        let mut forks = 0;
        let mut kills = 0;
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                match f.inst(i).kind {
                    InstKind::SptFork {
                        loop_tag,
                        spawn_target,
                    } => {
                        forks += 1;
                        assert_eq!(loop_tag, 7);
                        assert_eq!(spawn_target, info.new_header);
                    }
                    InstKind::SptKill { loop_tag } => {
                        kills += 1;
                        assert_eq!(loop_tag, 7);
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(forks, 1);
        assert!(kills >= 1);
    }

    #[test]
    fn prefork_contains_moved_induction() {
        let (module, info) = transform(SUM, "f");
        let f = module.func(module.func_by_name("f").unwrap());
        // The new header must contain phis (the carried values moved there).
        let phis = f
            .block(info.new_header)
            .insts
            .iter()
            .filter(|&&i| matches!(f.inst(i).kind, InstKind::Phi { .. }))
            .count();
        assert!(phis >= 1, "carried values live in the pre-fork header");
        // A fork instruction survives cleanup (its block may have been
        // merged into a predecessor).
        let fork_found = f.block_ids().any(|bb| {
            f.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i).kind, InstKind::SptFork { .. }))
        });
        assert!(fork_found);
    }

    #[test]
    fn transform_with_branches_preserves_semantics() {
        let src = "
            global a[256]: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    if (i % 3 == 0) {
                        s = s + i;
                    } else {
                        s = s + 1;
                    }
                    a[i] = s;
                    i = i + 1;
                }
                return s + a[n / 2];
            }
        ";
        let (module, _) = transform(src, "f");
        let check = |n: i64| {
            let mut s = 0i64;
            let mut a = vec![0i64; 256];
            for i in 0..n {
                if i % 3 == 0 {
                    s += i;
                } else {
                    s += 1;
                }
                a[i as usize] = s;
            }
            s + a[(n / 2) as usize]
        };
        for n in [0i64, 1, 5, 50, 200] {
            assert_eq!(
                run_ret(&module, "f", &[Val::from_i64(n)]),
                check(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn transform_with_memory_recurrence_preserves_semantics() {
        let src = "
            global a[512]: int;
            fn f(n: int) -> int {
                a[0] = 1;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = a[i - 1] + i;
                }
                return a[n - 1];
            }
        ";
        let (module, _) = transform(src, "f");
        let check = |n: i64| {
            let mut a = vec![0i64; 512];
            a[0] = 1;
            for i in 1..n {
                a[i as usize] = a[(i - 1) as usize] + i;
            }
            a[(n - 1) as usize]
        };
        for n in [2i64, 3, 17, 300] {
            assert_eq!(
                run_ret(&module, "f", &[Val::from_i64(n)]),
                check(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn transform_with_break_preserves_semantics() {
        let src = "
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    s = s + i;
                    if (s > 100) { break; }
                    i = i + 1;
                }
                return s;
            }
        ";
        let (module, _) = transform(src, "f");
        let check = |n: i64| {
            let mut i = 0i64;
            let mut s = 0i64;
            while i < n {
                s += i;
                if s > 100 {
                    break;
                }
                i += 1;
            }
            s
        };
        for n in [0i64, 5, 20, 1000] {
            assert_eq!(
                run_ret(&module, "f", &[Val::from_i64(n)]),
                check(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn transform_nested_loop_outer_preserves_semantics() {
        // Transform the OUTER loop of a nest.
        let src = "
            global acc: int;
            fn f(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    let j = 0;
                    let t = 0;
                    while (j < 10) {
                        t = t + j * i;
                        j = j + 1;
                    }
                    s = s + t;
                    i = i + 1;
                }
                return s;
            }
        ";
        // Find the outer loop id.
        let mut module = spt_frontend::compile(src).unwrap();
        let func_id = module.func_by_name("f").unwrap();
        let (outer, header_term) = {
            let func = module.func(func_id);
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            let outer = forest.ids().find(|&l| forest.get(l).depth == 1).unwrap();
            (outer, func.terminator(forest.get(outer).header).unwrap())
        };
        let graph = DepGraph::build(
            &module,
            func_id,
            outer,
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let model = LoopCostModel::new(graph);
        let result = optimal_partition(&model, &SearchConfig::default());
        let mut move_insts = HashSet::new();
        let mut replicate_insts = HashSet::new();
        let add_nodes = |nodes: &[usize],
                         move_insts: &mut HashSet<InstId>,
                         replicate_insts: &mut HashSet<InstId>| {
            for &n in nodes {
                let inst = model.graph.nodes[n];
                if model.graph.class[n] == spt_cost::dep_graph::NodeClass::Branch {
                    replicate_insts.insert(inst);
                } else {
                    move_insts.insert(inst);
                }
            }
        };
        add_nodes(
            &result.partition.nodes(),
            &mut move_insts,
            &mut replicate_insts,
        );
        if let Some(&tnode) = model.graph.index.get(&header_term) {
            let cl = model.graph.closure(&[tnode]);
            add_nodes(&cl, &mut move_insts, &mut replicate_insts);
        }
        let spec = SptLoopSpec {
            loop_id: outer,
            move_insts,
            replicate_insts,
            loop_tag: 3,
        };
        emit_spt_loop(module.func_mut(func_id), &spec).expect("emit outer");
        spt_ir::passes::cleanup(module.func_mut(func_id));
        spt_ir::verify::verify_module(&module).expect("verifies");

        let check = |n: i64| {
            let mut s = 0i64;
            for i in 0..n {
                let mut t = 0i64;
                for j in 0..10 {
                    t += j * i;
                }
                s += t;
            }
            s
        };
        for n in [0i64, 1, 4, 40] {
            assert_eq!(
                run_ret(&module, "f", &[Val::from_i64(n)]),
                check(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn missing_preheader_is_an_error() {
        // Hand-build a loop without preheader: entry branches straight into
        // a self-loop header from two places.
        let mut b = spt_ir::FuncBuilder::new("f", vec![("c".into(), spt_ir::Ty::I64)], None);
        let c = b.param(0);
        let h = b.add_block();
        let e = b.add_block();
        b.branch(c, h, e);
        b.switch_to(h);
        b.branch(c, h, e);
        b.switch_to(e);
        b.ret(None);
        let mut f = b.finish();
        let spec = SptLoopSpec {
            loop_id: LoopId::new(0),
            move_insts: HashSet::new(),
            replicate_insts: HashSet::new(),
            loop_tag: 0,
        };
        let err = emit_spt_loop(&mut f, &spec).unwrap_err();
        assert!(matches!(err, TransformError::NotCanonical(_)));
    }
}
