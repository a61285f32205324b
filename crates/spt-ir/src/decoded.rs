//! Pre-decoded execution form shared by the profiling interpreter and the
//! SPT simulator.
//!
//! Both engines used to re-inspect [`InstKind`]/[`Ty`]/[`Operand`] on every
//! executed instruction: a nested `match` over the instruction kind, a second
//! over the result type, and an `Operand` match per operand read — plus
//! per-transfer scans for leading phis and per-block loop-forest probes.
//! [`DecodedModule`] does all of that resolution once per module:
//!
//! * every instruction becomes a [`DInst`] — one flat opcode ([`DKind`]) with
//!   the type already folded in (`BinI64` vs `BinF64`), operands pre-resolved
//!   to value slots or constant bits ([`DVal`]), `RegionBase` folded to its
//!   concrete base address, and the static latency precomputed;
//! * every block becomes a [`DBlock`] with its leading phis split off, its
//!   predecessor list materialized, and one pre-decoded phi-source row per
//!   incoming edge, so a control transfer is an indexed copy instead of a
//!   per-phi argument search;
//! * per-function loop facts ([`DLoopFacts`]) — a flat loop×block membership
//!   table, the header→loop map, and the dominance-derived back-edge
//!   predecessor of every block — replace repeated `LoopForest` scans and the
//!   simulator's lazily cached dominator queries.
//!
//! Decoding is semantics-preserving by construction: each `DKind` variant is
//! in one-to-one correspondence with an `(InstKind, Ty)` case of the original
//! interpreters, including the degenerate ones (non-leading phis are kept as
//! [`DKind::SkippedPhi`], pre-SSA variable accesses as [`DKind::Unsupported`])
//! so the engines can reproduce the exact legacy behavior for them.
//!
//! The engines do not dispatch on `DKind`: [`crate::superblock`] lowers every
//! block into the ops they execute, one per instruction, and they read the
//! decoded blocks and loop facts alongside that code.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{Inst, InstKind, Operand};
use crate::loops::{LoopForest, LoopId};
use crate::module::{Function, Module};
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::types::Ty;

/// A pre-resolved operand: a value slot of a defining instruction, or
/// constant bits (`i64` reinterpreted, or raw IEEE-754 `f64` bits — exactly
/// the representation both engines use for register values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DVal {
    /// Value slot of the defining instruction (its `InstId` index).
    Slot(u32),
    /// Immediate constant bits.
    Bits(u64),
}

impl DVal {
    fn decode(op: Operand) -> DVal {
        match op {
            Operand::Inst(id) => DVal::Slot(id.0),
            Operand::ConstI64(v) => DVal::Bits(v as u64),
            Operand::ConstF64Bits(bits) => DVal::Bits(bits),
        }
    }

    /// Reads the operand against a frame's value array.
    #[inline(always)]
    pub fn read(self, values: &[u64]) -> u64 {
        match self {
            DVal::Slot(i) => values[i as usize],
            DVal::Bits(b) => b,
        }
    }
}

/// A fully decoded opcode: instruction kind and result type merged, operands
/// pre-resolved. One variant per `(InstKind, Ty)` case the engines execute.
#[derive(Clone, Debug)]
pub enum DKind {
    /// Function parameter read.
    Param {
        /// Zero-based parameter index.
        index: u32,
    },
    /// Integer binary op.
    BinI64 {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: DVal,
        /// Right operand.
        rhs: DVal,
    },
    /// Float binary op (operands and result are `f64` bits).
    BinF64 {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: DVal,
        /// Right operand.
        rhs: DVal,
    },
    /// Integer unary op.
    UnI64 {
        /// Operator.
        op: UnOp,
        /// Operand.
        val: DVal,
    },
    /// Float unary op.
    UnF64 {
        /// Operator.
        op: UnOp,
        /// Operand.
        val: DVal,
    },
    /// `i64 -> f64` conversion (`Unary(IntToFloat)` with `F64` result).
    IntToFloat {
        /// Operand (integer bits).
        val: DVal,
    },
    /// `f64 -> i64` conversion (`Unary(FloatToInt)` with `I64` result).
    FloatToInt {
        /// Operand (float bits).
        val: DVal,
    },
    /// Integer comparison; result is 0/1 as `i64`.
    CmpI64 {
        /// Comparison.
        op: CmpOp,
        /// Left operand.
        lhs: DVal,
        /// Right operand.
        rhs: DVal,
    },
    /// Float comparison; result is 0/1 as `i64`.
    CmpF64 {
        /// Comparison.
        op: CmpOp,
        /// Left operand.
        lhs: DVal,
        /// Right operand.
        rhs: DVal,
    },
    /// Value copy.
    Copy {
        /// Copied operand.
        val: DVal,
    },
    /// Pre-resolved constant: `RegionBase` folded to its base cell address
    /// (0 for [`crate::ids::RegionId::UNKNOWN`], matching both engines).
    Const {
        /// Constant bits.
        bits: u64,
    },
    /// Memory load.
    Load {
        /// Cell address operand (an `i64`).
        addr: DVal,
    },
    /// Memory store.
    Store {
        /// Cell address operand (an `i64`).
        addr: DVal,
        /// Stored bits.
        val: DVal,
    },
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Pre-resolved argument operands.
        args: Box<[DVal]>,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch (non-zero condition = taken).
    Branch {
        /// Condition operand.
        cond: DVal,
        /// Taken target.
        then_bb: BlockId,
        /// Fall-through target.
        else_bb: BlockId,
    },
    /// Function return.
    Ret {
        /// Returned operand, if any.
        val: Option<DVal>,
    },
    /// Speculative-thread spawn marker.
    SptFork {
        /// SPT loop tag.
        tag: u32,
        /// Spawn target (the loop header).
        target: BlockId,
    },
    /// Speculative-thread kill marker.
    SptKill {
        /// SPT loop tag.
        tag: u32,
    },
    /// A phi that is *not* in its block's leading phi group. The reference
    /// interpreter silently skips these (no retire, no events); the reference
    /// simulator reports them as malformed when fetched. Both behaviors are
    /// reproduced by the superblock engines.
    SkippedPhi,
    /// Pre-SSA `VarLoad`/`VarStore`: rejected with the legacy "requires SSA
    /// form" error when executed.
    Unsupported,
}

/// A decoded instruction: opcode plus precomputed static latency.
#[derive(Clone, Debug)]
pub struct DInst {
    /// The decoded opcode.
    pub kind: DKind,
    /// Static latency in cycles ([`Inst::latency`]).
    pub latency: u64,
}

/// A decoded basic block.
#[derive(Clone, Debug)]
pub struct DBlock {
    /// The block's leading phis, in block order.
    pub phis: Box<[InstId]>,
    /// Everything after the leading phis, in block order (stray non-leading
    /// phis stay in place as [`DKind::SkippedPhi`]).
    pub body: Box<[InstId]>,
    /// Predecessor blocks, in CFG order.
    pub preds: Box<[BlockId]>,
    /// Per predecessor (parallel to `preds`), per leading phi (parallel to
    /// `phis`): the phi's incoming operand along that edge, or `None` when
    /// the phi has no argument for it (the interpreter faults on this; the
    /// simulator reads 0 — both behaviors are preserved by the engines).
    pub phi_srcs: Box<[Box<[Option<DVal>]>]>,
}

/// Precomputed loop/dominator facts for one function.
#[derive(Clone, Debug)]
pub struct DLoopFacts {
    num_loops: usize,
    num_blocks: usize,
    /// Flat loop×block membership: `contains[l * num_blocks + b]`.
    contains: Box<[bool]>,
    /// For each block: the first loop (in id order) headed by it, matching
    /// `forest.ids().find(|l| get(l).header == b)`.
    pub header_loop: Box<[Option<LoopId>]>,
    /// For each block: its first CFG predecessor that it dominates — the
    /// latch of a natural-loop header, `None` for ordinary blocks. Replaces
    /// the simulator's per-query dominator walks.
    pub back_pred: Box<[Option<BlockId>]>,
}

impl DLoopFacts {
    /// Whether loop `l` contains block `b`.
    #[inline(always)]
    pub fn loop_contains(&self, l: LoopId, b: BlockId) -> bool {
        self.contains[l.index() * self.num_blocks + b.index()]
    }

    /// Number of loops in the function's forest.
    #[inline]
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }
}

/// One decoded function.
#[derive(Clone, Debug)]
pub struct DecodedFunc {
    /// Function name (diagnostics only).
    pub name: Box<str>,
    /// Entry block.
    pub entry: BlockId,
    /// Decoded instructions, indexed by [`InstId`].
    pub insts: Box<[DInst]>,
    /// Decoded blocks, indexed by [`BlockId`].
    pub blocks: Box<[DBlock]>,
    /// Loop and dominator facts.
    pub facts: DLoopFacts,
}

impl DecodedFunc {
    /// Number of value slots a frame for this function needs.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.insts.len()
    }

    /// Decodes one function against already-computed analyses.
    pub fn decode(
        func: &Function,
        cfg: &Cfg,
        dom: &DomTree,
        forest: &LoopForest,
        region_bases: &[usize],
    ) -> DecodedFunc {
        let insts: Box<[DInst]> = func
            .insts
            .iter()
            .map(|inst| decode_inst(inst, region_bases))
            .collect();

        let nblocks = func.blocks.len();
        let blocks: Box<[DBlock]> = (0..nblocks)
            .map(|bi| {
                let block = &func.blocks[bi];
                let nphis = block
                    .insts
                    .iter()
                    .take_while(|&&i| matches!(func.inst(i).kind, InstKind::Phi { .. }))
                    .count();
                let phis: Box<[InstId]> = block.insts[..nphis].into();
                let body: Box<[InstId]> = block.insts[nphis..].into();
                let preds: Box<[BlockId]> = cfg.preds(BlockId::new(bi)).into();
                let phi_srcs: Box<[Box<[Option<DVal>]>]> = preds
                    .iter()
                    .map(|&pred| {
                        phis.iter()
                            .map(|&p| match &func.inst(p).kind {
                                InstKind::Phi { args } => args
                                    .iter()
                                    .find(|(b, _)| *b == pred)
                                    .map(|(_, v)| DVal::decode(*v)),
                                _ => unreachable!("leading phi is a phi"),
                            })
                            .collect()
                    })
                    .collect();
                DBlock {
                    phis,
                    body,
                    preds,
                    phi_srcs,
                }
            })
            .collect();

        let nloops = forest.len();
        let mut contains = vec![false; nloops * nblocks].into_boxed_slice();
        let mut header_loop = vec![None; nblocks].into_boxed_slice();
        for lid in forest.ids() {
            let l = forest.get(lid);
            for &b in &l.blocks {
                contains[lid.index() * nblocks + b.index()] = true;
            }
            let slot = &mut header_loop[l.header.index()];
            if slot.is_none() {
                *slot = Some(lid);
            }
        }
        let back_pred: Box<[Option<BlockId>]> = (0..nblocks)
            .map(|bi| {
                let b = BlockId::new(bi);
                cfg.preds(b).iter().copied().find(|&p| dom.dominates(b, p))
            })
            .collect();

        DecodedFunc {
            name: func.name.as_str().into(),
            entry: func.entry,
            insts,
            blocks,
            facts: DLoopFacts {
                num_loops: nloops,
                num_blocks: nblocks,
                contains,
                header_loop,
                back_pred,
            },
        }
    }
}

fn decode_inst(inst: &Inst, region_bases: &[usize]) -> DInst {
    let latency = inst.latency();
    let d = DVal::decode;
    let kind = match &inst.kind {
        InstKind::Param { index } => DKind::Param {
            index: *index as u32,
        },
        InstKind::Binary { op, lhs, rhs } => match inst.ty.unwrap_or(Ty::I64) {
            Ty::I64 => DKind::BinI64 {
                op: *op,
                lhs: d(*lhs),
                rhs: d(*rhs),
            },
            Ty::F64 => DKind::BinF64 {
                op: *op,
                lhs: d(*lhs),
                rhs: d(*rhs),
            },
        },
        InstKind::Unary { op, val } => {
            // Mirrors the interpreters' `(ty, op)` match order: the two
            // conversions first, then dispatch on the result type.
            match (inst.ty.unwrap_or(Ty::I64), op) {
                (Ty::F64, UnOp::IntToFloat) => DKind::IntToFloat { val: d(*val) },
                (Ty::I64, UnOp::FloatToInt) => DKind::FloatToInt { val: d(*val) },
                (Ty::I64, _) => DKind::UnI64 {
                    op: *op,
                    val: d(*val),
                },
                (Ty::F64, _) => DKind::UnF64 {
                    op: *op,
                    val: d(*val),
                },
            }
        }
        InstKind::Cmp {
            op,
            operand_ty,
            lhs,
            rhs,
        } => match operand_ty {
            Ty::I64 => DKind::CmpI64 {
                op: *op,
                lhs: d(*lhs),
                rhs: d(*rhs),
            },
            Ty::F64 => DKind::CmpF64 {
                op: *op,
                lhs: d(*lhs),
                rhs: d(*rhs),
            },
        },
        // Leading phis execute through `DBlock::phi_srcs`; a phi fetched from
        // a block body is by construction non-leading.
        InstKind::Phi { .. } => DKind::SkippedPhi,
        InstKind::Copy { val } => DKind::Copy { val: d(*val) },
        InstKind::RegionBase { region } => {
            let base = if region.is_unknown() {
                0i64
            } else {
                region_bases.get(region.index()).copied().unwrap_or(0) as i64
            };
            DKind::Const { bits: base as u64 }
        }
        InstKind::Load { addr, .. } => DKind::Load { addr: d(*addr) },
        InstKind::Store { addr, val, .. } => DKind::Store {
            addr: d(*addr),
            val: d(*val),
        },
        InstKind::Call { callee, args } => DKind::Call {
            callee: *callee,
            args: args.iter().map(|a| d(*a)).collect(),
        },
        InstKind::VarLoad { .. } | InstKind::VarStore { .. } => DKind::Unsupported,
        InstKind::Jump { target } => DKind::Jump { target: *target },
        InstKind::Branch {
            cond,
            then_bb,
            else_bb,
        } => DKind::Branch {
            cond: d(*cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        InstKind::Ret { val } => DKind::Ret { val: val.map(d) },
        InstKind::SptFork {
            loop_tag,
            spawn_target,
        } => DKind::SptFork {
            tag: *loop_tag,
            target: *spawn_target,
        },
        InstKind::SptKill { loop_tag } => DKind::SptKill { tag: *loop_tag },
    };
    DInst { kind, latency }
}

/// A whole module in decoded form, plus the resolved memory layout.
#[derive(Clone, Debug)]
pub struct DecodedModule {
    /// Decoded functions, indexed by [`FuncId`].
    pub funcs: Vec<DecodedFunc>,
    /// Base cell address per region ([`Module::memory_layout`]).
    pub region_bases: Vec<usize>,
    /// Total memory size in cells.
    pub memory_size: usize,
}

impl DecodedModule {
    /// Decodes a module, computing CFG/dominator/loop analyses per function.
    pub fn new(module: &Module) -> DecodedModule {
        let (region_bases, memory_size) = module.memory_layout();
        let funcs = module
            .funcs
            .iter()
            .map(|func| {
                let cfg = Cfg::compute(func);
                let dom = DomTree::compute(&cfg);
                let forest = LoopForest::compute(func, &cfg, &dom);
                DecodedFunc::decode(func, &cfg, &dom, &forest, &region_bases)
            })
            .collect();
        DecodedModule {
            funcs,
            region_bases,
            memory_size,
        }
    }

    /// Borrow a decoded function.
    #[inline(always)]
    pub fn func(&self, id: FuncId) -> &DecodedFunc {
        &self.funcs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    fn loop_func() -> Module {
        // fn count(n): s = 0; for i in 0..n { s += i }; return s
        let mut module = Module::new();
        let mut b = FuncBuilder::new("count", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.jump(header);
        b.switch_to(header);
        let i_op = b.phi(Ty::I64, vec![(BlockId::new(0), Operand::const_i64(0))]);
        let s_op = b.phi(Ty::I64, vec![(BlockId::new(0), Operand::const_i64(0))]);
        let cond = b.cmp(CmpOp::Lt, Ty::I64, i_op, n);
        b.branch(cond, body, exit);
        b.switch_to(body);
        let s2 = b.binary(BinOp::Add, s_op, i_op);
        let i2 = b.binary(BinOp::Add, i_op, Operand::const_i64(1));
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s_op));
        let mut func = b.finish();
        // Patch in the back-edge phi arguments (forward references).
        for (phi, v) in [(i_op, i2), (s_op, s2)] {
            let id = phi.as_inst().unwrap();
            if let InstKind::Phi { args } = &mut func.inst_mut(id).kind {
                args.push((body, v));
            }
        }
        module.add_func(func);
        module
    }

    #[test]
    fn decodes_loop_function() {
        let module = loop_func();
        let dm = DecodedModule::new(&module);
        let df = dm.func(FuncId::new(0));
        assert_eq!(df.blocks.len(), 4);

        // Header has two leading phis with one pre-decoded source row per
        // predecessor.
        let header = &df.blocks[1];
        assert_eq!(header.phis.len(), 2);
        assert_eq!(header.preds.len(), 2);
        for row in header.phi_srcs.iter() {
            assert_eq!(row.len(), 2);
            assert!(row.iter().all(Option::is_some));
        }

        // Loop facts: one loop over {header, body}; header maps to it; the
        // body block is the header's dominated (back-edge) predecessor.
        let facts = &df.facts;
        assert_eq!(facts.num_loops(), 1);
        let lid = facts.header_loop[1].expect("header heads a loop");
        assert!(facts.loop_contains(lid, BlockId::new(1)));
        assert!(facts.loop_contains(lid, BlockId::new(2)));
        assert!(!facts.loop_contains(lid, BlockId::new(3)));
        assert_eq!(facts.back_pred[1], Some(BlockId::new(2)));
        assert_eq!(facts.back_pred[0], None);
    }

    #[test]
    fn decodes_opcodes_and_latencies() {
        let module = loop_func();
        let dm = DecodedModule::new(&module);
        let df = dm.func(FuncId::new(0));
        let mut saw_cmp = false;
        let mut saw_bin = false;
        for di in df.insts.iter() {
            match &di.kind {
                DKind::CmpI64 { .. } => {
                    saw_cmp = true;
                    assert_eq!(di.latency, 1);
                }
                DKind::BinI64 { op: BinOp::Add, .. } => {
                    saw_bin = true;
                    assert_eq!(di.latency, 1);
                }
                DKind::SkippedPhi => assert_eq!(di.latency, 0),
                _ => {}
            }
        }
        assert!(saw_cmp && saw_bin);
    }
}
