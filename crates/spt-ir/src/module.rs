//! Functions, blocks, globals and modules.

use crate::ids::{BlockId, FuncId, InstId, RegionId};
use crate::inst::{Inst, InstKind, Operand};
use crate::types::Ty;
use std::collections::HashMap;

/// A basic block: an ordered list of instruction ids ending in a terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Instructions in execution order. The final instruction must be a
    /// terminator once the function is complete.
    pub insts: Vec<InstId>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Block::default()
    }
}

/// A function: an instruction arena plus a CFG of basic blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name (unique within the module).
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, Ty)>,
    /// Return type, if any.
    pub ret_ty: Option<Ty>,
    /// Instruction arena indexed by [`InstId`].
    pub insts: Vec<Inst>,
    /// Block arena indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of frontend variable slots (pre-SSA only; informational after
    /// `mem2reg`).
    pub num_vars: usize,
}

impl Function {
    /// Creates an empty function with a single (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<(String, Ty)>, ret_ty: Option<Ty>) -> Self {
        Function {
            name: name.into(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: vec![Block::new()],
            entry: BlockId::new(0),
            num_vars: 0,
        }
    }

    /// Borrow an instruction.
    #[inline]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutably borrow an instruction.
    #[inline]
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Borrow a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(Block::new());
        id
    }

    /// Adds an instruction to the arena (not yet placed in a block).
    pub fn add_inst(&mut self, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len());
        self.insts.push(inst);
        id
    }

    /// Adds an instruction to the arena and appends it to `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = self.add_inst(inst);
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Iterates over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// The terminator instruction id of a block, if the block is non-empty
    /// and properly terminated.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.block(block).insts.last()?;
        if self.inst(last).kind.is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    /// Successor blocks of `block` (empty for `ret`-terminated blocks).
    pub fn successors(&self, block: BlockId) -> Successors {
        let mut out = Successors::NONE;
        if let Some(term) = self.terminator(block) {
            match &self.inst(term).kind {
                InstKind::Jump { target } => out.push(*target),
                InstKind::Branch {
                    then_bb, else_bb, ..
                } => {
                    out.push(*then_bb);
                    if then_bb != else_bb {
                        out.push(*else_bb);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Total number of instructions placed in blocks.
    pub fn placed_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Maps each placed instruction to its containing block.
    pub fn inst_blocks(&self) -> HashMap<InstId, BlockId> {
        let mut map = HashMap::new();
        for bb in self.block_ids() {
            for &i in &self.block(bb).insts {
                map.insert(i, bb);
            }
        }
        map
    }

    /// The ids of the `Param` instructions, in parameter order.
    pub fn param_insts(&self) -> Vec<InstId> {
        let mut params = vec![None; self.params.len()];
        for &i in &self.block(self.entry).insts {
            if let InstKind::Param { index } = self.inst(i).kind {
                params[index] = Some(i);
            }
        }
        params.into_iter().flatten().collect()
    }

    /// A content hash of this function alone ([`crate::codec::word_hash`]
    /// over its canonical encoding, [`crate::codec::encode_function`]): two
    /// functions hash equal exactly when they are structurally equal, up to
    /// 64-bit collisions. This is the Merkle *leaf* of
    /// [`Module::content_hash`] and the key half of every function-granular
    /// cache entry — editing one function changes only its own leaf.
    pub fn content_hash(&self) -> u64 {
        crate::codec::hash_encoding(|out| crate::codec::encode_function(out, self))
    }
}

/// The successors of one block, in terminator order: none, one, or a
/// branch's two distinct targets. A value, so walking them borrows nothing
/// from the function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl Successors {
    const NONE: Successors = Successors {
        blocks: [BlockId(0); 2],
        len: 0,
    };

    fn push(&mut self, bb: BlockId) {
        self.blocks[usize::from(self.len)] = bb;
        self.len += 1;
    }

    /// Keeps only the successors `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(BlockId) -> bool) {
        let mut kept = Successors::NONE;
        for bb in *self {
            if keep(bb) {
                kept.push(bb);
            }
        }
        *self = kept;
    }

    /// The successors as a slice.
    pub fn as_slice(&self) -> &[BlockId] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        self.as_slice()
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(usize::from(self.len))
    }
}

/// A module-level memory region: a global scalar cell or array.
///
/// All globals live in one flat cell-addressed memory; a global occupies
/// `size` consecutive cells starting at a base assigned at layout time.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Global name (unique within the module).
    pub name: String,
    /// Number of 8-byte cells.
    pub size: usize,
    /// Element type stored in the region.
    pub elem_ty: Ty,
    /// Optional initial cell values (raw bits); zero-filled when `None` or
    /// shorter than `size`.
    pub init: Option<Vec<u64>>,
}

/// Conservative memory-effect summary of a function, used when analyzing
/// calls inside candidate loops. The paper observes (Fig. 19 discussion) that
/// calls which "modify and use some global variables unknown to the caller"
/// are the main source of cost-model inaccuracy; this summary is how the
/// compiler approximates callee effects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// The callee (or its transitive callees) may read global memory.
    pub reads_memory: bool,
    /// The callee (or its transitive callees) may write global memory.
    pub writes_memory: bool,
}

impl EffectSummary {
    /// A pure summary: no memory effects.
    pub const PURE: EffectSummary = EffectSummary {
        reads_memory: false,
        writes_memory: false,
    };

    /// Returns `true` when the function has no memory effects at all.
    pub fn is_pure(self) -> bool {
        !self.reads_memory && !self.writes_memory
    }
}

/// A compilation unit: functions plus global memory regions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Function arena indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Global/region arena indexed by [`RegionId`].
    pub globals: Vec<Global>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        let id = FuncId::new(self.funcs.len());
        self.funcs.push(func);
        id
    }

    /// Adds a zero-initialized global region, returning its id.
    pub fn add_global(&mut self, name: impl Into<String>, size: usize, elem_ty: Ty) -> RegionId {
        let id = RegionId::new(self.globals.len());
        self.globals.push(Global {
            name: name.into(),
            size,
            elem_ty,
            init: None,
        });
        id
    }

    /// Borrow a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutably borrow a function.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::new)
    }

    /// Looks a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<RegionId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(RegionId::new)
    }

    /// Iterates over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len()).map(FuncId::new)
    }

    /// Assigns each global a base cell address (in arena order) and returns
    /// the bases plus the total memory size in cells.
    pub fn memory_layout(&self) -> (Vec<usize>, usize) {
        let mut bases = Vec::with_capacity(self.globals.len());
        let mut next = 0usize;
        for g in &self.globals {
            bases.push(next);
            next += g.size;
        }
        (bases, next)
    }

    /// The memory image a run starts from: [`Module::memory_layout`]'s
    /// cells, zeroed, with every global's initializer applied.
    pub fn initial_memory(&self) -> Vec<u64> {
        let (bases, size) = self.memory_layout();
        let mut memory = vec![0u64; size];
        for (g, base) in self.globals.iter().zip(bases) {
            if let Some(init) = &g.init {
                for (k, &bits) in init.iter().take(g.size).enumerate() {
                    memory[base + k] = bits;
                }
            }
        }
        memory
    }

    /// Computes a conservative memory-effect summary for every function by a
    /// fixed-point walk over the call graph.
    pub fn effect_summaries(&self) -> Vec<EffectSummary> {
        let mut summaries = vec![EffectSummary::PURE; self.funcs.len()];
        // Local effects first.
        for (fi, func) in self.funcs.iter().enumerate() {
            for bb in func.block_ids() {
                for &i in &func.block(bb).insts {
                    match &func.inst(i).kind {
                        InstKind::Load { .. } => summaries[fi].reads_memory = true,
                        InstKind::Store { .. } => summaries[fi].writes_memory = true,
                        _ => {}
                    }
                }
            }
        }
        // Propagate through calls until fixed point.
        let mut changed = true;
        while changed {
            changed = false;
            for fi in 0..self.funcs.len() {
                let func = &self.funcs[fi];
                let mut acc = summaries[fi];
                for bb in func.block_ids() {
                    for &i in &func.block(bb).insts {
                        if let InstKind::Call { callee, .. } = &func.inst(i).kind {
                            let callee_sum = summaries[callee.index()];
                            acc.reads_memory |= callee_sum.reads_memory;
                            acc.writes_memory |= callee_sum.writes_memory;
                        }
                    }
                }
                if acc != summaries[fi] {
                    summaries[fi] = acc;
                    changed = true;
                }
            }
        }
        summaries
    }

    /// A content hash of the whole module: a Merkle root folding every
    /// function's [`Function::content_hash`] (in index order) with a hash of
    /// the globals table's canonical encoding. Two modules hash equal
    /// exactly when they are structurally equal, and — the property the
    /// incremental pipeline relies on — editing one function perturbs only
    /// that function's leaf hash, so per-function cache keys derived from
    /// the leaves survive the edit while the root (and every whole-module
    /// artifact key) changes.
    pub fn content_hash(&self) -> u64 {
        let globals =
            crate::codec::hash_encoding(|out| crate::codec::encode_globals(out, &self.globals));
        let mut words = Vec::with_capacity(self.funcs.len() + 2);
        words.push(self.funcs.len() as u64);
        words.extend(self.funcs.iter().map(Function::content_hash));
        words.push(globals);
        crate::codec::word_hash_words(&words)
    }
}

/// Convenience helper: an operand referring to instruction `id`.
pub fn val(id: InstId) -> Operand {
    Operand::Inst(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ops::BinOp;

    #[test]
    fn content_hash_tracks_structure() {
        let mut m1 = Module::new();
        m1.add_global("g", 4, Ty::I64);
        let mut m2 = m1.clone();
        assert_eq!(m1.content_hash(), m2.content_hash());
        m2.add_global("h", 1, Ty::I64);
        assert_ne!(m1.content_hash(), m2.content_hash());
        m1.add_global("h", 2, Ty::I64);
        assert_ne!(m1.content_hash(), m2.content_hash());
    }

    #[test]
    fn function_hash_is_a_merkle_leaf() {
        let mut m = Module::new();
        m.add_func(Function::new("a", vec![], None));
        m.add_func(Function::new("b", vec![], None));
        let before_root = m.content_hash();
        let before_leaves: Vec<u64> = m.funcs.iter().map(Function::content_hash).collect();

        // Editing one function changes its leaf and the root, but no other
        // leaf — the property per-function cache keys rely on.
        let fb = m.func_by_name("b").unwrap();
        let bb = m.func_mut(fb).add_block();
        m.func_mut(fb)
            .append_inst(bb, Inst::new(InstKind::Ret { val: None }, None));
        let after_leaves: Vec<u64> = m.funcs.iter().map(Function::content_hash).collect();
        assert_ne!(m.content_hash(), before_root);
        assert_eq!(after_leaves[0], before_leaves[0]);
        assert_ne!(after_leaves[1], before_leaves[1]);

        // Structurally equal functions hash equal regardless of the module
        // around them.
        let solo = Function::new("a", vec![], None);
        assert_eq!(solo.content_hash(), after_leaves[0]);
    }

    /// Changing any one field of a function or a global changes the module
    /// hash; a function-level change also changes exactly that function's
    /// leaf, and a global-level change none.
    #[test]
    fn content_hash_sees_every_field() {
        let mut m = Module::new();
        let g = m.add_global("g", 4, Ty::I64);
        m.globals[0].init = Some(vec![1, 2]);
        let mut b = FuncBuilder::new("main", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let base = b.region_base(g);
        let x = b.binary(BinOp::Add, n, Operand::const_i64(3));
        let y = b.binary(BinOp::Mul, x, Operand::const_f64(0.5));
        b.store(base, y, g);
        b.ret(Some(x));
        m.add_func(b.finish());
        m.add_func(Function::new("other", vec![], None));
        let leaves = |m: &Module| {
            m.funcs
                .iter()
                .map(Function::content_hash)
                .collect::<Vec<_>>()
        };
        let (root, before) = (m.content_hash(), leaves(&m));

        type Edit = fn(&mut Module);
        let func_edits: [(&str, Edit); 11] = [
            ("name", |m| m.funcs[0].name.push('2')),
            ("param name", |m| m.funcs[0].params[0].0.push('2')),
            ("param type", |m| m.funcs[0].params[0].1 = Ty::F64),
            ("ret_ty", |m| m.funcs[0].ret_ty = None),
            ("operand", |m| {
                m.funcs[0].insts[2].kind.map_operands(|op| match op {
                    Operand::Inst(_) => Operand::Inst(InstId::new(1)),
                    other => other,
                })
            }),
            ("integer immediate", |m| {
                m.funcs[0].insts[2].kind.map_operands(|op| match op {
                    Operand::ConstI64(v) => Operand::ConstI64(v + 1),
                    other => other,
                })
            }),
            ("float immediate bits", |m| {
                m.funcs[0].insts[3].kind.map_operands(|op| match op {
                    Operand::ConstF64Bits(bits) => Operand::ConstF64Bits(bits ^ 1),
                    other => other,
                })
            }),
            ("instruction order", |m| {
                m.funcs[0].blocks[0].insts.swap(2, 3)
            }),
            ("entry", |m| {
                m.funcs[0].add_block();
                m.funcs[0].entry = BlockId::new(1);
            }),
            ("num_vars", |m| m.funcs[0].num_vars += 1),
            ("result type", |m| m.funcs[0].insts[2].ty = Some(Ty::F64)),
        ];
        let global_edits: [(&str, Edit); 4] = [
            ("global size", |m| m.globals[0].size += 1),
            ("global type", |m| m.globals[0].elem_ty = Ty::F64),
            ("global init word", |m| m.globals[0].init = Some(vec![1, 3])),
            ("global name", |m| m.globals[0].name.push('2')),
        ];
        for (what, edit) in func_edits.iter().chain(&global_edits) {
            let mut changed = m.clone();
            edit(&mut changed);
            assert_ne!(changed, m, "{what}: the edit changed nothing");
            assert_ne!(changed.content_hash(), root, "{what}: module hash");
            let after = leaves(&changed);
            let moved = (0..2).filter(|&i| after[i] != before[i]).count();
            let want = usize::from(func_edits.iter().any(|(w, _)| w == what));
            assert_eq!(moved, want, "{what}: leaves that changed");
        }
    }

    #[test]
    fn function_arena_basics() {
        let mut f = Function::new("f", vec![], None);
        let bb = f.add_block();
        assert_eq!(bb, BlockId::new(1));
        let id = f.append_inst(f.entry, Inst::new(InstKind::Jump { target: bb }, None));
        assert_eq!(f.terminator(f.entry), Some(id));
        assert_eq!(*f.successors(f.entry), [bb]);
        assert_eq!(f.placed_inst_count(), 1);
    }

    #[test]
    fn successors_dedup_same_target_branch() {
        let mut f = Function::new("f", vec![], None);
        let bb = f.add_block();
        f.append_inst(
            f.entry,
            Inst::new(
                InstKind::Branch {
                    cond: Operand::const_i64(1),
                    then_bb: bb,
                    else_bb: bb,
                },
                None,
            ),
        );
        assert_eq!(*f.successors(f.entry), [bb]);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let g = m.add_global("table", 16, Ty::I64);
        let f = m.add_func(Function::new("main", vec![], None));
        assert_eq!(m.func_by_name("main"), Some(f));
        assert_eq!(m.global_by_name("table"), Some(g));
        assert_eq!(m.func_by_name("nope"), None);
        let (bases, total) = m.memory_layout();
        assert_eq!(bases, vec![0]);
        assert_eq!(total, 16);
    }

    #[test]
    fn memory_layout_is_contiguous() {
        let mut m = Module::new();
        m.add_global("a", 4, Ty::I64);
        m.add_global("b", 8, Ty::F64);
        let c = m.add_global("c", 1, Ty::I64);
        let (bases, total) = m.memory_layout();
        assert_eq!(bases, vec![0, 4, 12]);
        assert_eq!(total, 13);
        // Initializers land at their global's base; extra cells are dropped.
        m.globals[c.index()].init = Some(vec![7, 8]);
        let mut want = vec![0u64; 13];
        want[12] = 7;
        assert_eq!(m.initial_memory(), want);
    }

    #[test]
    fn effect_summaries_propagate_through_calls() {
        let mut m = Module::new();
        let g = m.add_global("g", 1, Ty::I64);

        // leaf: writes memory
        let mut leaf = FuncBuilder::new("leaf", vec![], None);
        let base = leaf.region_base(g);
        leaf.store(base, Operand::const_i64(1), g);
        leaf.ret(None);
        let leaf_id = m.add_func(leaf.finish());

        // mid: calls leaf
        let mut mid = FuncBuilder::new("mid", vec![], None);
        mid.call(leaf_id, vec![], None);
        mid.ret(None);
        let mid_id = m.add_func(mid.finish());

        // pure
        let mut pure = FuncBuilder::new("pure", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = pure.param(0);
        let y = pure.binary(BinOp::Add, x, Operand::const_i64(1));
        pure.ret(Some(y));
        let pure_id = m.add_func(pure.finish());

        let sums = m.effect_summaries();
        assert!(sums[leaf_id.index()].writes_memory);
        assert!(sums[mid_id.index()].writes_memory);
        assert!(sums[pure_id.index()].is_pure());
    }
}
