//! Superblock lowering: threaded-code compilation of the IR, and the one
//! evaluator of its pure ops.
//!
//! [`SuperblockModule::build`] compiles every function of a [`Module`] once
//! into an array of ops ([`SInst`]) that the profiling interpreter and the
//! SPT simulator execute by threaded-code dispatch. It is their only
//! executable form, lowered straight from each `(InstKind, Ty)`: every body
//! instruction becomes exactly one op, in block order.
//!
//! * **constant folding** — pure ops whose operands are all immediates
//!   collapse to a single pre-computed [`SOpc::FoldedDef`];
//! * **immediate specialization** — every opcode comes in slot/slot and
//!   slot/immediate forms (`AddRR`/`AddImm`, `CmpRR`/`CmpImm`, `StoreRR`/
//!   `StoreRI`/…), so the hot dispatch loop never re-discriminates operand
//!   kinds: an [`SInst`] operand (`a`, `b`, `aux`) is always a value-array
//!   slot index, and constants live pre-extracted in `imm`. A `RegionBase`
//!   lowers to a [`SOpc::ConstV`] of its base address (0 for
//!   [`RegionId::UNKNOWN`]), and op operands that read such a zero-latency
//!   def fold into `imm` too.
//!
//! **Lowering is total.** Every instruction of every block lowers: calls
//! ([`SOpc::Call`], arguments in [`SuperblockFunc::args`]), stray non-leading
//! phis ([`SOpc::SkipPhi`]), pre-SSA variable accesses
//! ([`SOpc::Unsupported`]) and constant/constant stores at any address
//! ([`SOpc::StoreII`]) each become one op, and a block whose body does not
//! end in a terminator (including an empty one) ends in a [`SOpc::FallOff`]
//! sentinel. Leading phis, however many, lower to one [`PhiRow`] per
//! predecessor edge; a row records a missing source instead of refusing it,
//! so each engine reproduces its own runtime behavior for malformed merges
//! (the interpreter faults, the simulator reads 0).
//!
//! **Every instruction is an op start.** Body instruction `k` of a block is
//! op `range.0 + k` of its [`SBlock`] ([`SuperblockFunc::op_at`]), so an
//! engine resumes at any instruction — after a call returns, or wherever a
//! validation replay stopped — by block-offset arithmetic.
//!
//! **One place for what the engines read.** Besides the ops, each
//! [`SuperblockFunc`] carries the function's name, entry block and value
//! slot count, and the loop facts the engines need per block entry, all
//! computed from one CFG, dominator tree and loop forest per function: the
//! loop×block membership table ([`SuperblockFunc::loop_contains`]) and each
//! block's [`SBlock::header_loop`] and [`SBlock::back_pred`].
//!
//! **One evaluator.** The pure opcodes
//! ([`pure_ops!`](crate::pure_ops)) have their semantics written once, in
//! [`SInst::eval`], and a load's, store's, branch's or return's operands in
//! [`SInst::load_addr`]/[`SInst::store`]/[`SInst::taken`]/
//! [`SInst::ret_value`]; every executor walk calls them on a frame of raw
//! `u64` value bits. What a walk does around an op — retire order, profiler
//! events, timing, memory views — is its own.
//!
//! The hot [`SInst`] is a compact `Copy` record; the cold per-op metadata
//! engines need for accounting and event replay (the instruction's
//! [`InstId`] and static latency) lives in a parallel [`SMeta`] array.
//! [`SBlock::retires`]/[`SBlock::cycles`] additionally pre-aggregate a
//! block's retirement accounting so non-observing runs can batch it per
//! block entry.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::{BlockId, FuncId, InstId, RegionId};
use crate::inst::{InstKind, Operand};
use crate::loops::{LoopForest, LoopId};
use crate::module::{Function, Module};
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::types::Ty;

/// Slot sentinel: the op defines no slot.
pub const NO_SLOT: u32 = u32::MAX;

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
    /// The operand as written: a slot per instruction reference, bits per
    /// constant.
    fn of(op: Operand) -> DVal {
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

/// Op codes. Field usage per opcode is documented on [`SInst`]. `RR`
/// suffixes read both operands from slots, `Imm` forms carry one constant in
/// [`SInst::imm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SOpc {
    /// Parameter read: `dst = args[imm]` (missing arg reads 0). No def hook.
    Param,
    /// Constant materialization: `dst = imm`. No def hook.
    ConstV,
    /// Constant-folded pure op: `dst = imm`, def hook fires.
    FoldedDef,
    /// `dst = a + b` (wrapping `i64`).
    AddRR,
    /// `dst = a + imm` (wrapping `i64`).
    AddImm,
    /// `dst = a - b` (wrapping `i64`).
    SubRR,
    /// `dst = a - imm` (wrapping `i64`).
    SubImm,
    /// `dst = imm - a` (wrapping `i64`).
    RsbImm,
    /// `dst = a * b` (wrapping `i64`).
    MulRR,
    /// `dst = a * imm` (wrapping `i64`).
    MulImm,
    /// Generic integer binary op: `dst = bin(a, b)`.
    BinRR,
    /// Generic integer binary op: `dst = bin(a, imm)`.
    BinImm,
    /// Generic integer binary op, immediate on the left: `dst = bin(imm, a)`.
    BinImmL,
    /// Float binary op: `dst = bin(a, b)`.
    BinF64RR,
    /// Float binary op: `dst = bin(a, imm)`.
    BinF64Imm,
    /// Float binary op, immediate on the left: `dst = bin(imm, a)`.
    BinF64ImmL,
    /// Integer unary op `un` on `a`.
    UnI64,
    /// Float unary op `un` on `a`.
    UnF64,
    /// `i64 -> f64` conversion of `a`.
    IntToFloat,
    /// `f64 -> i64` conversion of `a`.
    FloatToInt,
    /// Value copy of slot `a`.
    Copy,
    /// Integer comparison: `dst = cmp(a, b)` as 0/1.
    CmpRR,
    /// Integer comparison: `dst = cmp(a, imm)` as 0/1. A constant left
    /// operand is canonicalized here via [`cmp_swapped`].
    CmpImm,
    /// Float comparison: `dst = cmp(a, b)` as 0/1.
    CmpF64RR,
    /// Float comparison: `dst = cmp(a, imm)` as 0/1 (left constants
    /// canonicalized via [`cmp_swapped`]; exact for NaN, which compares
    /// false under every ordering either way).
    CmpF64Imm,
    /// Memory load from address slot `a`.
    Load,
    /// Memory load from constant address `imm`.
    LoadImm,
    /// Store value slot `b` to address slot `a`.
    StoreRR,
    /// Store constant `imm` to address slot `a`.
    StoreRI,
    /// Store value slot `b` to constant address `imm`.
    StoreIR,
    /// Store the constant `a | b << 32` to constant address `imm`.
    StoreII,
    /// Unconditional jump to `t1`.
    Jump,
    /// Conditional branch on slot `a`: `t1` when non-zero, else `t2`.
    Branch,
    /// Branch on the constant condition `imm`.
    BranchImm,
    /// Return with value slot `a`.
    RetVal,
    /// Return with constant value `imm`.
    RetImm,
    /// Return without value.
    RetVoid,
    /// `SPT_FORK` marker: tag `imm`, spawn target `t1`.
    SptFork,
    /// `SPT_KILL` marker: tag `imm`.
    SptKill,
    /// Direct call of function `aux` with the `b` arguments starting at
    /// [`SuperblockFunc::args`]`[a]`; a returned value lands in `dst`.
    Call,
    /// A phi outside its block's leading group: the interpreter skips it
    /// (no retire, no events), the simulator faults on it.
    SkipPhi,
    /// A pre-SSA variable access: both engines fault on it.
    Unsupported,
    /// Sentinel ending a block whose body has no terminator: executing it
    /// faults. It has no instruction ([`SMeta::inst`] is [`NO_SLOT`]).
    FallOff,
}

/// The pure opcodes, as a pattern: the ops that define a value from their
/// slots and immediate alone, with no memory access and no control effect.
/// [`SInst::eval`] is their only semantics. Executor walks name them with
/// this pattern rather than a catch-all arm, so a new opcode fails to
/// compile until every walk decides how to run it.
#[macro_export]
macro_rules! pure_ops {
    () => {
        $crate::superblock::SOpc::FoldedDef
            | $crate::superblock::SOpc::AddRR
            | $crate::superblock::SOpc::AddImm
            | $crate::superblock::SOpc::SubRR
            | $crate::superblock::SOpc::SubImm
            | $crate::superblock::SOpc::RsbImm
            | $crate::superblock::SOpc::MulRR
            | $crate::superblock::SOpc::MulImm
            | $crate::superblock::SOpc::BinRR
            | $crate::superblock::SOpc::BinImm
            | $crate::superblock::SOpc::BinImmL
            | $crate::superblock::SOpc::BinF64RR
            | $crate::superblock::SOpc::BinF64Imm
            | $crate::superblock::SOpc::BinF64ImmL
            | $crate::superblock::SOpc::UnI64
            | $crate::superblock::SOpc::UnF64
            | $crate::superblock::SOpc::IntToFloat
            | $crate::superblock::SOpc::FloatToInt
            | $crate::superblock::SOpc::Copy
            | $crate::superblock::SOpc::CmpRR
            | $crate::superblock::SOpc::CmpImm
            | $crate::superblock::SOpc::CmpF64RR
            | $crate::superblock::SOpc::CmpF64Imm
    };
}

/// One op: a compact `Copy` record. `a`/`b`/`aux` are always value-array
/// slot indices (constants are pre-extracted into `imm` by lowering), so the
/// hot loops never re-discriminate operand kinds. Unused fields hold inert
/// defaults. The op's instruction id and static latency live in the
/// parallel cold array [`SuperblockFunc::meta`].
#[derive(Clone, Copy, Debug)]
pub struct SInst {
    /// Opcode.
    pub opc: SOpc,
    /// Binary operator, for the generic binary opcodes.
    pub bin: BinOp,
    /// Comparison operator, for the compare opcodes.
    pub cmp: CmpOp,
    /// Unary operator, for `UnI64`/`UnF64`.
    pub un: UnOp,
    /// Destination slot ([`NO_SLOT`] = none).
    pub dst: u32,
    /// First operand slot.
    pub a: u32,
    /// Second operand slot.
    pub b: u32,
    /// Third slot: `Call`'s callee.
    pub aux: u32,
    /// Immediate payload (folded bits, specialized-op immediate, parameter
    /// index, or SPT tag).
    pub imm: u64,
    /// Primary control target.
    pub t1: BlockId,
    /// Secondary control target (`Branch` else-target).
    pub t2: BlockId,
}

impl SInst {
    fn new(opc: SOpc) -> SInst {
        SInst {
            opc,
            bin: BinOp::Add,
            cmp: CmpOp::Eq,
            un: UnOp::Neg,
            dst: NO_SLOT,
            a: 0,
            b: 0,
            aux: 0,
            imm: 0,
            t1: BlockId(0),
            t2: BlockId(0),
        }
    }

    /// The value a [`pure_ops!`](crate::pure_ops) op (or a
    /// [`SOpc::ConstV`]) defines, its slot operands read from `vals`.
    #[inline(always)]
    pub fn eval(&self, vals: &[u64]) -> u64 {
        let a = || vals[self.a as usize];
        let b = || vals[self.b as usize];
        let (ai, bi, ii) = (|| a() as i64, || b() as i64, self.imm as i64);
        let (af, bf, fi) = (
            || f64::from_bits(a()),
            || f64::from_bits(b()),
            f64::from_bits(self.imm),
        );
        match self.opc {
            SOpc::AddRR => ai().wrapping_add(bi()) as u64,
            SOpc::AddImm => ai().wrapping_add(ii) as u64,
            SOpc::SubRR => ai().wrapping_sub(bi()) as u64,
            SOpc::SubImm => ai().wrapping_sub(ii) as u64,
            SOpc::RsbImm => ii.wrapping_sub(ai()) as u64,
            SOpc::MulRR => ai().wrapping_mul(bi()) as u64,
            SOpc::MulImm => ai().wrapping_mul(ii) as u64,
            SOpc::BinRR => self.bin.eval_i64(ai(), bi()) as u64,
            SOpc::BinImm => self.bin.eval_i64(ai(), ii) as u64,
            SOpc::BinImmL => self.bin.eval_i64(ii, ai()) as u64,
            SOpc::BinF64RR => self.bin.eval_f64(af(), bf()).to_bits(),
            SOpc::BinF64Imm => self.bin.eval_f64(af(), fi).to_bits(),
            SOpc::BinF64ImmL => self.bin.eval_f64(fi, af()).to_bits(),
            SOpc::UnI64 => self.un.eval_i64(ai()) as u64,
            SOpc::UnF64 => self.un.eval_f64(af()).to_bits(),
            SOpc::IntToFloat => (ai() as f64).to_bits(),
            SOpc::FloatToInt => (af() as i64) as u64,
            SOpc::Copy => a(),
            SOpc::CmpRR => u64::from(self.cmp.eval_i64(ai(), bi())),
            SOpc::CmpImm => u64::from(self.cmp.eval_i64(ai(), ii)),
            SOpc::CmpF64RR => u64::from(self.cmp.eval_f64(af(), bf())),
            SOpc::CmpF64Imm => u64::from(self.cmp.eval_f64(af(), fi)),
            // `FoldedDef` and `ConstV` define their immediate; the walks
            // route no other opcode here.
            _ => self.imm,
        }
    }

    /// The cell address a [`SOpc::Load`]/[`SOpc::LoadImm`] reads.
    #[inline(always)]
    pub fn load_addr(&self, vals: &[u64]) -> i64 {
        if self.opc == SOpc::Load {
            vals[self.a as usize] as i64
        } else {
            self.imm as i64
        }
    }

    /// Whether a [`SOpc::Branch`]/[`SOpc::BranchImm`] is taken (goes to
    /// `t1`).
    #[inline(always)]
    pub fn taken(&self, vals: &[u64]) -> bool {
        if self.opc == SOpc::Branch {
            vals[self.a as usize] != 0
        } else {
            self.imm != 0
        }
    }

    /// The bits a [`SOpc::RetVal`]/[`SOpc::RetImm`] returns; `None` for
    /// [`SOpc::RetVoid`].
    #[inline(always)]
    pub fn ret_value(&self, vals: &[u64]) -> Option<u64> {
        match self.opc {
            SOpc::RetVal => Some(vals[self.a as usize]),
            SOpc::RetImm => Some(self.imm),
            _ => None,
        }
    }

    /// `(cell, bits)` of a store op.
    #[inline(always)]
    pub fn store(&self, vals: &[u64]) -> (i64, u64) {
        match self.opc {
            SOpc::StoreRR => (vals[self.a as usize] as i64, vals[self.b as usize]),
            SOpc::StoreRI => (vals[self.a as usize] as i64, self.imm),
            SOpc::StoreIR => (self.imm as i64, vals[self.b as usize]),
            _ => (
                self.imm as i64,
                u64::from(self.a) | (u64::from(self.b) << 32),
            ),
        }
    }
}

/// Cold per-op metadata, parallel to [`SuperblockFunc::ops`]: the op's
/// instruction and its static latency, read by the simulator and the
/// stepwise interpreter for per-instruction event replay and accounting.
#[derive(Clone, Copy, Debug)]
pub struct SMeta {
    /// The instruction.
    pub inst: InstId,
    /// Its static latency.
    pub lat: u32,
}

impl SMeta {
    fn new(inst: InstId, lat: u64) -> SMeta {
        SMeta {
            inst,
            lat: u32::try_from(lat).unwrap_or(u32::MAX),
        }
    }
}

/// The leading-phi sources along one incoming edge of a block.
#[derive(Clone, Debug)]
pub struct PhiRow {
    /// The predecessor this row applies to.
    pub pred: BlockId,
    /// One source per leading phi, parallel to [`SBlock::phis`]; all are
    /// read before any phi is written. A missing source reads as the
    /// constant 0 (the simulator's semantics).
    pub srcs: Box<[DVal]>,
    /// The first phi with no source along this edge, if any (the
    /// interpreter faults on it).
    pub missing: Option<InstId>,
}

/// One block's superblock view.
#[derive(Clone, Debug)]
pub struct SBlock {
    /// `[start, end)` into [`SuperblockFunc::ops`]: one op per body
    /// instruction, then a [`SOpc::FallOff`] sentinel when the body does not
    /// end in a terminator.
    pub range: (u32, u32),
    /// Instructions the interpreter retires on one entry (leading phis plus
    /// the body up to its first terminator, stray phis excluded).
    pub retires: u64,
    /// Summed static latency of the same instructions.
    pub cycles: u64,
    /// Whether those instructions include a call.
    pub has_call: bool,
    /// The first loop (in id order) this block heads, if any.
    pub header_loop: Option<LoopId>,
    /// The first CFG predecessor this block dominates — the latch of a
    /// natural-loop header, `None` for ordinary blocks.
    pub back_pred: Option<BlockId>,
    /// The block's leading phis, in block order.
    pub phis: Box<[InstId]>,
    /// One row of phi sources per predecessor edge, in CFG order; empty when
    /// the block has no leading phis. When no row matches the edge a block
    /// is entered by, every phi reads 0 in the simulator.
    pub phi_rows: Box<[PhiRow]>,
}

/// One function's superblock code.
#[derive(Clone, Debug)]
pub struct SuperblockFunc {
    /// Function name (diagnostics only).
    pub name: Box<str>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of value slots a frame for this function needs (one per
    /// instruction).
    pub num_values: usize,
    /// Per-block code and facts, indexed by [`BlockId`].
    pub blocks: Box<[SBlock]>,
    /// All ops, grouped per block.
    pub ops: Box<[SInst]>,
    /// Cold per-op metadata, parallel to `ops`.
    pub meta: Box<[SMeta]>,
    /// Call arguments, referenced by [`SOpc::Call`] ops.
    pub args: Box<[DVal]>,
    /// Flat loop×block membership: `in_loop[l * blocks.len() + b]`.
    in_loop: Box<[bool]>,
}

impl SuperblockFunc {
    /// The op that executes body instruction `k` of `block`; `k` equal to
    /// the body's length names its [`SOpc::FallOff`] sentinel.
    #[inline(always)]
    pub fn op_at(&self, block: BlockId, k: u32) -> usize {
        (self.blocks[block.index()].range.0 + k) as usize
    }

    /// Whether loop `l` contains block `b`.
    #[inline(always)]
    pub fn loop_contains(&self, l: LoopId, b: BlockId) -> bool {
        self.in_loop[l.index() * self.blocks.len() + b.index()]
    }
}

/// The superblock code for a whole module, built once per module.
#[derive(Clone, Debug)]
pub struct SuperblockModule {
    /// Per-function code, indexed by [`FuncId`].
    pub funcs: Vec<SuperblockFunc>,
}

impl SuperblockModule {
    /// Lowers every function of `module`, computing each one's CFG,
    /// dominator tree and loop forest once.
    pub fn build(module: &Module) -> SuperblockModule {
        let (region_bases, _) = module.memory_layout();
        SuperblockModule {
            funcs: module
                .funcs
                .iter()
                .map(|func| lower_func(func, &region_bases))
                .collect(),
        }
    }

    /// The superblock code for `func`.
    #[inline]
    pub fn func(&self, func: FuncId) -> &SuperblockFunc {
        &self.funcs[func.index()]
    }
}

/// The comparison that computes `cmp(a, b)` as `swapped(b, a)`. Exact for
/// integers and floats alike: `Eq`/`Ne` are symmetric and the orderings
/// mirror (`<` ↔ `>`), including NaN operands, for which every ordered
/// comparison is false in both orders.
pub fn cmp_swapped(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

fn lower_func(func: &Function, region_bases: &[usize]) -> SuperblockFunc {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    let nblocks = func.blocks.len();
    let mut in_loop = vec![false; forest.len() * nblocks].into_boxed_slice();
    let mut header_loop = vec![None; nblocks];
    for lid in forest.ids() {
        let l = forest.get(lid);
        for &b in &l.blocks {
            in_loop[lid.index() * nblocks + b.index()] = true;
        }
        header_loop[l.header.index()].get_or_insert(lid);
    }
    let mut lw = Lower {
        func,
        region_bases,
        ops: Vec::new(),
        meta: Vec::new(),
        args: Vec::new(),
    };
    let blocks: Box<[SBlock]> = (0..nblocks)
        .map(|bi| {
            let b = BlockId::new(bi);
            let preds = cfg.preds(b);
            let back_pred = preds.iter().copied().find(|&p| dom.dominates(b, p));
            lw.block(b, preds, header_loop[bi], back_pred)
        })
        .collect();
    SuperblockFunc {
        name: func.name.as_str().into(),
        entry: func.entry,
        num_values: func.insts.len(),
        blocks,
        ops: lw.ops.into_boxed_slice(),
        meta: lw.meta.into_boxed_slice(),
        args: lw.args.into_boxed_slice(),
        in_loop,
    }
}

/// One function's lowering: the op/meta/argument arrays its blocks lower
/// into.
struct Lower<'f> {
    func: &'f Function,
    region_bases: &'f [usize],
    ops: Vec<SInst>,
    meta: Vec<SMeta>,
    args: Vec<DVal>,
}

impl Lower<'_> {
    /// The base address a `RegionBase` of `region` defines.
    fn region_base(&self, region: RegionId) -> u64 {
        if region.is_unknown() {
            0
        } else {
            self.region_bases.get(region.index()).copied().unwrap_or(0) as u64
        }
    }

    /// An op operand: constants, and reads of a (zero-latency) `RegionBase`
    /// def, become immediate bits; every other def is its slot.
    fn val(&self, op: Operand) -> DVal {
        match op {
            Operand::Inst(id) => match self.func.insts.get(id.index()).map(|i| &i.kind) {
                Some(InstKind::RegionBase { region }) => DVal::Bits(self.region_base(*region)),
                _ => DVal::Slot(id.0),
            },
            _ => DVal::of(op),
        }
    }

    fn block(
        &mut self,
        b: BlockId,
        preds: &[BlockId],
        header_loop: Option<LoopId>,
        back_pred: Option<BlockId>,
    ) -> SBlock {
        let func = self.func;
        let insts = &func.block(b).insts;
        let is_phi = |i: &InstId| matches!(func.inst(*i).kind, InstKind::Phi { .. });
        let (phis, body) = insts.split_at(insts.iter().take_while(|i| is_phi(i)).count());
        // A phi source is the slot as written: the simulator's speculative
        // restart reads it against a copied context, where a def may not
        // have run yet.
        let phi_rows: Box<[PhiRow]> = if phis.is_empty() {
            Box::new([])
        } else {
            let src = |phi: InstId, pred: BlockId| match &func.inst(phi).kind {
                InstKind::Phi { args } => args.iter().find(|(p, _)| *p == pred).map(|a| a.1),
                _ => None,
            };
            preds
                .iter()
                .map(|&pred| PhiRow {
                    pred,
                    srcs: phis
                        .iter()
                        .map(|&phi| src(phi, pred).map_or(DVal::Bits(0), DVal::of))
                        .collect(),
                    missing: phis.iter().copied().find(|&phi| src(phi, pred).is_none()),
                })
                .collect()
        };

        let start = self.ops.len() as u32;
        for &i in body {
            let (op, m) = self.inst(i);
            self.ops.push(op);
            self.meta.push(m);
        }
        let is_term = |i: &InstId| func.inst(*i).kind.is_terminator();
        if !body.last().is_some_and(is_term) {
            self.ops.push(SInst::new(SOpc::FallOff));
            self.meta.push(SMeta::new(InstId(NO_SLOT), 0));
        }
        // Straight-line accounting up to the first terminator (anything after
        // it never executes); stray phis retire nothing.
        let live = match body.iter().position(is_term) {
            Some(t) => &body[..=t],
            None => body,
        };
        SBlock {
            range: (start, self.ops.len() as u32),
            retires: (phis.len() + live.iter().filter(|i| !is_phi(i)).count()) as u64,
            cycles: live.iter().map(|&i| func.inst(i).latency()).sum(),
            has_call: live
                .iter()
                .any(|&i| matches!(func.inst(i).kind, InstKind::Call { .. })),
            header_loop,
            back_pred,
            phis: phis.into(),
            phi_rows,
        }
    }

    /// Lowers one instruction to its op. Total: pure ops whose operands are
    /// all immediates fold to [`SOpc::FoldedDef`], and every other shape has
    /// an encoding. Call arguments are appended to `args`.
    fn inst(&mut self, i: InstId) -> (SInst, SMeta) {
        let inst = self.func.inst(i);
        let m = SMeta::new(i, inst.latency());
        let ty = inst.ty.unwrap_or(Ty::I64);
        let def = |mut s: SInst| {
            s.dst = i.0;
            (s, m)
        };
        let folded = |bits: u64| {
            let mut s = SInst::new(SOpc::FoldedDef);
            s.imm = bits;
            def(s)
        };
        let unary = |opc: SOpc, val: DVal, fold: &dyn Fn(u64) -> u64| match val {
            DVal::Slot(x) => {
                let mut s = SInst::new(opc);
                s.a = x;
                s
            }
            DVal::Bits(c) => {
                let mut s = SInst::new(SOpc::FoldedDef);
                s.imm = fold(c);
                s
            }
        };
        match &inst.kind {
            InstKind::Param { index } => {
                let mut s = SInst::new(SOpc::Param);
                s.imm = *index as u64;
                def(s)
            }
            InstKind::RegionBase { region } => {
                let mut s = SInst::new(SOpc::ConstV);
                s.imm = self.region_base(*region);
                def(s)
            }
            InstKind::Binary { op, lhs, rhs } if ty == Ty::I64 => {
                // Specialized shapes for the dominant operators; a constant on
                // either side becomes an immediate form (reverse-subtract and
                // generic left-immediate opcodes keep non-commutative operators
                // exact).
                let mut s = SInst::new(SOpc::BinRR);
                s.bin = *op;
                match (self.val(*lhs), self.val(*rhs)) {
                    (DVal::Slot(x), DVal::Slot(y)) => {
                        s.opc = match op {
                            BinOp::Add => SOpc::AddRR,
                            BinOp::Sub => SOpc::SubRR,
                            BinOp::Mul => SOpc::MulRR,
                            _ => SOpc::BinRR,
                        };
                        s.a = x;
                        s.b = y;
                    }
                    (DVal::Slot(x), DVal::Bits(c)) => {
                        s.opc = match op {
                            BinOp::Add => SOpc::AddImm,
                            BinOp::Sub => SOpc::SubImm,
                            BinOp::Mul => SOpc::MulImm,
                            _ => SOpc::BinImm,
                        };
                        s.a = x;
                        s.imm = c;
                    }
                    (DVal::Bits(c), DVal::Slot(y)) => {
                        s.opc = match op {
                            BinOp::Add => SOpc::AddImm,
                            BinOp::Sub => SOpc::RsbImm,
                            BinOp::Mul => SOpc::MulImm,
                            _ => SOpc::BinImmL,
                        };
                        s.a = y;
                        s.imm = c;
                    }
                    (DVal::Bits(x), DVal::Bits(y)) => {
                        return folded(op.eval_i64(x as i64, y as i64) as u64)
                    }
                }
                def(s)
            }
            InstKind::Binary { op, lhs, rhs } => {
                let mut s = SInst::new(SOpc::BinF64RR);
                s.bin = *op;
                match (self.val(*lhs), self.val(*rhs)) {
                    (DVal::Slot(x), DVal::Slot(y)) => {
                        s.a = x;
                        s.b = y;
                    }
                    (DVal::Slot(x), DVal::Bits(c)) => {
                        s.opc = SOpc::BinF64Imm;
                        s.a = x;
                        s.imm = c;
                    }
                    (DVal::Bits(c), DVal::Slot(y)) => {
                        s.opc = SOpc::BinF64ImmL;
                        s.a = y;
                        s.imm = c;
                    }
                    (DVal::Bits(x), DVal::Bits(y)) => {
                        return folded(op.eval_f64(f64::from_bits(x), f64::from_bits(y)).to_bits())
                    }
                }
                def(s)
            }
            InstKind::Cmp {
                op,
                operand_ty,
                lhs,
                rhs,
            } => {
                let float = *operand_ty == Ty::F64;
                let (rr, imm) = if float {
                    (SOpc::CmpF64RR, SOpc::CmpF64Imm)
                } else {
                    (SOpc::CmpRR, SOpc::CmpImm)
                };
                let mut s = SInst::new(rr);
                s.cmp = *op;
                match (self.val(*lhs), self.val(*rhs)) {
                    (DVal::Slot(x), DVal::Slot(y)) => {
                        s.a = x;
                        s.b = y;
                    }
                    (DVal::Slot(x), DVal::Bits(c)) => {
                        s.opc = imm;
                        s.a = x;
                        s.imm = c;
                    }
                    (DVal::Bits(c), DVal::Slot(y)) => {
                        s.opc = imm;
                        s.cmp = cmp_swapped(*op);
                        s.a = y;
                        s.imm = c;
                    }
                    (DVal::Bits(x), DVal::Bits(y)) => {
                        let t = if float {
                            op.eval_f64(f64::from_bits(x), f64::from_bits(y))
                        } else {
                            op.eval_i64(x as i64, y as i64)
                        };
                        return folded(t as u64);
                    }
                }
                def(s)
            }
            // The two conversions first, then dispatch on the result type.
            InstKind::Unary { op, val } => {
                let val = self.val(*val);
                match (ty, op) {
                    (Ty::F64, UnOp::IntToFloat) => def(unary(SOpc::IntToFloat, val, &|c| {
                        ((c as i64) as f64).to_bits()
                    })),
                    (Ty::I64, UnOp::FloatToInt) => def(unary(SOpc::FloatToInt, val, &|c| {
                        (f64::from_bits(c) as i64) as u64
                    })),
                    (Ty::I64, _) => {
                        let mut s = unary(SOpc::UnI64, val, &|c| op.eval_i64(c as i64) as u64);
                        s.un = *op;
                        def(s)
                    }
                    (Ty::F64, _) => {
                        let mut s = unary(SOpc::UnF64, val, &|c| {
                            op.eval_f64(f64::from_bits(c)).to_bits()
                        });
                        s.un = *op;
                        def(s)
                    }
                }
            }
            InstKind::Copy { val } => def(unary(SOpc::Copy, self.val(*val), &|c| c)),
            InstKind::Load { addr, .. } => {
                let mut s = SInst::new(SOpc::Load);
                match self.val(*addr) {
                    DVal::Slot(x) => s.a = x,
                    DVal::Bits(c) => {
                        s.opc = SOpc::LoadImm;
                        s.imm = c;
                    }
                }
                def(s)
            }
            InstKind::Store { addr, val, .. } => {
                let mut s = SInst::new(SOpc::StoreRR);
                match (self.val(*addr), self.val(*val)) {
                    (DVal::Slot(x), DVal::Slot(y)) => {
                        s.a = x;
                        s.b = y;
                    }
                    (DVal::Slot(x), DVal::Bits(c)) => {
                        s.opc = SOpc::StoreRI;
                        s.a = x;
                        s.imm = c;
                    }
                    (DVal::Bits(c), DVal::Slot(y)) => {
                        s.opc = SOpc::StoreIR;
                        s.imm = c;
                        s.b = y;
                    }
                    (DVal::Bits(c), DVal::Bits(v)) => {
                        s.opc = SOpc::StoreII;
                        s.imm = c;
                        s.a = v as u32;
                        s.b = (v >> 32) as u32;
                    }
                }
                (s, m)
            }
            InstKind::Call { callee, args } => {
                let mut s = SInst::new(SOpc::Call);
                s.aux = callee.0;
                s.a = self.args.len() as u32;
                s.b = args.len() as u32;
                for &a in args {
                    let v = self.val(a);
                    self.args.push(v);
                }
                def(s)
            }
            InstKind::Jump { target } => {
                let mut s = SInst::new(SOpc::Jump);
                s.t1 = *target;
                (s, m)
            }
            InstKind::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let mut s = SInst::new(SOpc::Branch);
                match self.val(*cond) {
                    DVal::Slot(x) => s.a = x,
                    DVal::Bits(c) => {
                        s.opc = SOpc::BranchImm;
                        s.imm = c;
                    }
                }
                s.t1 = *then_bb;
                s.t2 = *else_bb;
                (s, m)
            }
            InstKind::Ret { val } => match val.map(|v| self.val(v)) {
                Some(DVal::Slot(x)) => {
                    let mut s = SInst::new(SOpc::RetVal);
                    s.a = x;
                    (s, m)
                }
                Some(DVal::Bits(c)) => {
                    let mut s = SInst::new(SOpc::RetImm);
                    s.imm = c;
                    (s, m)
                }
                None => (SInst::new(SOpc::RetVoid), m),
            },
            InstKind::SptFork {
                loop_tag,
                spawn_target,
            } => {
                let mut s = SInst::new(SOpc::SptFork);
                s.imm = u64::from(*loop_tag);
                s.t1 = *spawn_target;
                (s, m)
            }
            InstKind::SptKill { loop_tag } => {
                let mut s = SInst::new(SOpc::SptKill);
                s.imm = u64::from(*loop_tag);
                (s, m)
            }
            // Leading phis execute through `SBlock::phi_rows`; a phi lowered
            // from a block body is by construction non-leading.
            InstKind::Phi { .. } => (SInst::new(SOpc::SkipPhi), m),
            InstKind::VarLoad { .. } | InstKind::VarStore { .. } => {
                (SInst::new(SOpc::Unsupported), m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    /// One op per body instruction, in block order, then a fall-off
    /// sentinel exactly when the body does not end in a terminator.
    fn assert_total(module: &Module, sup: &SuperblockModule) {
        for (func, sf) in module.funcs.iter().zip(&sup.funcs) {
            assert_eq!(sf.meta.len(), sf.ops.len());
            for (block, sb) in func.blocks.iter().zip(sf.blocks.iter()) {
                let (start, end) = (sb.range.0 as usize, sb.range.1 as usize);
                let ops: Vec<InstId> = sf.meta[start..end].iter().map(|m| m.inst).collect();
                let falls_off = sf.ops[end - 1].opc == SOpc::FallOff;
                let body = &block.insts[sb.phis.len()..];
                assert_eq!(&ops[..end - start - usize::from(falls_off)], body);
            }
        }
    }

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
    fn lowers_loop_facts_and_phi_rows() {
        let module = loop_func();
        let sup = SuperblockModule::build(&module);
        let sf = sup.func(FuncId::new(0));
        assert_eq!(sf.blocks.len(), 4);
        assert_eq!(&*sf.name, "count");
        assert_eq!(sf.entry, BlockId::new(0));
        assert_eq!(sf.num_values, module.funcs[0].insts.len());

        // The header has two leading phis and one complete source row per
        // predecessor: the entry's constants, the body's back-edge values.
        let header = &sf.blocks[1];
        assert_eq!(header.phis.len(), 2);
        let preds: Vec<BlockId> = header.phi_rows.iter().map(|r| r.pred).collect();
        assert_eq!(preds, [BlockId::new(0), BlockId::new(2)]);
        for row in header.phi_rows.iter() {
            assert_eq!(row.srcs.len(), 2);
            assert_eq!(row.missing, None);
        }
        assert_eq!(&*header.phi_rows[0].srcs, [DVal::Bits(0), DVal::Bits(0)]);
        assert!(header.phi_rows[1]
            .srcs
            .iter()
            .all(|s| matches!(s, DVal::Slot(_))));
        assert!(sf
            .blocks
            .iter()
            .filter(|b| b.phis.is_empty())
            .all(|b| b.phi_rows.is_empty()));

        // Loop facts: one loop over {header, body}; the header heads it;
        // the body block is the header's dominated (back-edge) predecessor.
        let headers: Vec<usize> = (0..4)
            .filter(|&b| sf.blocks[b].header_loop.is_some())
            .collect();
        assert_eq!(headers, [1], "one loop, headed by block 1");
        let lid = header.header_loop.expect("header heads a loop");
        assert!(sf.loop_contains(lid, BlockId::new(1)));
        assert!(sf.loop_contains(lid, BlockId::new(2)));
        assert!(!sf.loop_contains(lid, BlockId::new(0)));
        assert!(!sf.loop_contains(lid, BlockId::new(3)));
        assert_eq!(header.back_pred, Some(BlockId::new(2)));
        assert_eq!(sf.blocks[0].back_pred, None);
        assert_eq!(sf.blocks[2].header_loop, None);
        assert_total(&module, &sup);
    }

    #[test]
    fn ops_carry_each_instruction_and_its_latency() {
        let module = loop_func();
        let func = &module.funcs[0];
        let sup = SuperblockModule::build(&module);
        let sf = sup.func(FuncId::new(0));
        let (mut saw_cmp, mut saw_add) = (false, false);
        for (s, m) in sf.ops.iter().zip(sf.meta.iter()) {
            assert_eq!(u64::from(m.lat), func.inst(m.inst).latency());
            match s.opc {
                SOpc::CmpRR => {
                    saw_cmp = true;
                    assert_eq!(m.lat, 1);
                }
                SOpc::AddRR | SOpc::AddImm => {
                    saw_add = true;
                    assert_eq!(m.lat, 1);
                }
                _ => {}
            }
        }
        assert!(saw_cmp && saw_add);
        // Header: two phis at latency 0, then a compare and a branch.
        assert_eq!((sf.blocks[1].retires, sf.blocks[1].cycles), (4, 2));
    }

    #[test]
    fn sinst_stays_compact() {
        // The hot dispatch loop's working set: one 40-byte record per op.
        assert!(std::mem::size_of::<SInst>() <= 40, "SInst grew");
        assert!(std::mem::size_of::<SMeta>() <= 8, "SMeta grew");
    }

    #[test]
    fn blocks_with_calls_lower() {
        let mut m = Module::new();
        let mut cal = FuncBuilder::new("leaf", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = cal.param(0);
        let r = cal.binary(BinOp::Mul, x, Operand::const_i64(3));
        cal.ret(Some(r));
        let leaf = m.add_func(cal.finish());
        let mut b = FuncBuilder::new("main", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let r = b
            .call(leaf, vec![n, Operand::const_i64(7)], Some(Ty::I64))
            .expect("call");
        b.ret(Some(r));
        m.add_func(b.finish());
        let sup = SuperblockModule::build(&m);
        let caller = sup.func(FuncId::new(1));
        assert!(caller.blocks[0].has_call);
        let call = caller
            .ops
            .iter()
            .find(|o| o.opc == SOpc::Call)
            .expect("call op");
        assert_eq!(call.aux, leaf.0);
        let args = &caller.args[call.a as usize..(call.a + call.b) as usize];
        assert_eq!(args[1], DVal::Bits(7));
        assert_total(&m, &sup);
    }

    #[test]
    fn irregular_blocks_lower() {
        // 20 leading phis, a phi row with a missing source, an out-of-range
        // constant store and a block that falls off its end.
        let mut b = FuncBuilder::new("irregular", vec![], Some(Ty::I64));
        let entry = b.entry();
        let merge = b.add_block();
        let dead = b.add_block();
        b.switch_to(entry);
        b.jump(merge);
        b.switch_to(merge);
        let mut phis = Vec::new();
        for k in 0..20 {
            phis.push(b.phi(Ty::I64, vec![(entry, Operand::const_i64(k))]));
        }
        let orphan = b.phi(Ty::I64, vec![(dead, Operand::const_i64(1))]);
        b.store(
            Operand::const_i64(-5),
            Operand::const_i64(i64::MIN + 3),
            RegionId::UNKNOWN,
        );
        b.ret(Some(orphan));
        b.switch_to(dead);
        let _ = b.binary(BinOp::Add, phis[0], Operand::const_i64(1));
        let mut m = Module::new();
        m.add_func(b.finish());
        let sup = SuperblockModule::build(&m);
        let sf = sup.func(FuncId::new(0));
        let merge_sb = &sf.blocks[merge.index()];
        assert_eq!(merge_sb.phis.len(), 21);
        assert_eq!(merge_sb.phi_rows.len(), 1);
        assert_eq!(merge_sb.phi_rows[0].srcs.len(), 21);
        assert_eq!(merge_sb.phi_rows[0].srcs[20], DVal::Bits(0));
        assert_eq!(merge_sb.phi_rows[0].missing, orphan.as_inst());
        let store = sf
            .ops
            .iter()
            .find(|o| o.opc == SOpc::StoreII)
            .expect("const/const store");
        assert_eq!(store.store(&[]), (-5, (i64::MIN + 3) as u64));
        let (_, end) = sf.blocks[dead.index()].range;
        assert_eq!(sf.ops[end as usize - 1].opc, SOpc::FallOff);
        assert_total(&m, &sup);
    }

    #[test]
    fn region_bases_fold_into_immediates() {
        let mut m = Module::new();
        m.add_global("pad", 5, Ty::I64);
        let r = m.add_global("a", 8, Ty::I64);
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let base = b.region_base(r);
        let addr = b.binary(BinOp::Add, base, Operand::const_i64(2));
        let v = b.load(addr, r);
        b.ret(Some(v));
        m.add_func(b.finish());
        let sup = SuperblockModule::build(&m);
        let ops = &sup.funcs[0].ops;
        assert_eq!((ops[0].opc, ops[0].imm), (SOpc::ConstV, 5));
        // `base + 2` folds to the address 7.
        assert_eq!((ops[1].opc, ops[1].imm), (SOpc::FoldedDef, 7));
    }

    #[test]
    fn constant_operands_fold_to_a_single_def() {
        let mut b = FuncBuilder::new("k", vec![], Some(Ty::I64));
        let v = b.binary(BinOp::Mul, Operand::const_i64(6), Operand::const_i64(7));
        b.ret(Some(v));
        let mut m = Module::new();
        m.add_func(b.finish());
        let sup = SuperblockModule::build(&m);
        let folded = sup.funcs[0]
            .ops
            .iter()
            .find(|o| o.opc == SOpc::FoldedDef)
            .expect("folded def");
        assert_eq!(folded.imm, 42);
    }

    /// Every pure opcode, evaluated on slots and immediates, agrees with the
    /// IR operators it specializes, and each operand helper reads the
    /// operands its opcodes name.
    #[test]
    fn eval_matches_the_ir_operators() {
        let (x, y) = (-7i64, 3i64);
        let (fx, fy) = (2.5f64, -0.75f64);
        let vals = [x as u64, y as u64, fx.to_bits(), fy.to_bits()];
        let op = |opc: SOpc, a: u32, b: u32, imm: u64| {
            let mut s = SInst::new(opc);
            (s.a, s.b, s.imm) = (a, b, imm);
            s
        };
        let i = |opc: SOpc, bin: BinOp| {
            let mut s = op(opc, 0, 1, y as u64);
            s.bin = bin;
            s.eval(&vals) as i64
        };
        assert_eq!(i(SOpc::AddRR, BinOp::Add), x + y);
        assert_eq!(i(SOpc::AddImm, BinOp::Add), x + y);
        assert_eq!(i(SOpc::SubRR, BinOp::Sub), x - y);
        assert_eq!(i(SOpc::SubImm, BinOp::Sub), x - y);
        assert_eq!(i(SOpc::RsbImm, BinOp::Sub), y - x);
        assert_eq!(i(SOpc::MulRR, BinOp::Mul), x * y);
        assert_eq!(i(SOpc::MulImm, BinOp::Mul), x * y);
        for bin in [BinOp::Div, BinOp::Rem, BinOp::Shl, BinOp::Min] {
            assert_eq!(i(SOpc::BinRR, bin), bin.eval_i64(x, y));
            assert_eq!(i(SOpc::BinImm, bin), bin.eval_i64(x, y));
            assert_eq!(i(SOpc::BinImmL, bin), bin.eval_i64(y, x));
        }
        let f = |opc: SOpc| {
            let mut s = op(opc, 2, 3, fy.to_bits());
            s.bin = BinOp::Div;
            f64::from_bits(s.eval(&vals))
        };
        assert_eq!(f(SOpc::BinF64RR), fx / fy);
        assert_eq!(f(SOpc::BinF64Imm), fx / fy);
        assert_eq!(f(SOpc::BinF64ImmL), fy / fx);
        let mut s = op(SOpc::UnI64, 0, 0, 0);
        s.un = UnOp::Abs;
        assert_eq!(s.eval(&vals), 7);
        let mut s = op(SOpc::UnF64, 2, 0, 0);
        s.un = UnOp::Neg;
        assert_eq!(f64::from_bits(s.eval(&vals)), -fx);
        assert_eq!(
            f64::from_bits(op(SOpc::IntToFloat, 0, 0, 0).eval(&vals)),
            -7.0
        );
        assert_eq!(op(SOpc::FloatToInt, 2, 0, 0).eval(&vals), 2);
        assert_eq!(op(SOpc::Copy, 1, 0, 0).eval(&vals), 3);
        let mut s = op(SOpc::CmpRR, 0, 1, 0);
        s.cmp = CmpOp::Lt;
        assert_eq!(s.eval(&vals), 1);
        s.opc = SOpc::CmpImm;
        s.imm = (x - 1) as u64;
        assert_eq!(s.eval(&vals), 0);
        let mut s = op(SOpc::CmpF64RR, 3, 2, 0);
        s.cmp = CmpOp::Lt;
        assert_eq!(s.eval(&vals), 1);
        s.opc = SOpc::CmpF64Imm;
        s.imm = f64::NAN.to_bits();
        assert_eq!(s.eval(&vals), 0);
        assert_eq!(op(SOpc::FoldedDef, 0, 0, 42).eval(&vals), 42);
        assert_eq!(op(SOpc::ConstV, 0, 0, 9).eval(&vals), 9);
        assert_eq!(op(SOpc::Load, 1, 0, 0).load_addr(&vals), 3);
        assert_eq!(op(SOpc::LoadImm, 0, 0, 11).load_addr(&vals), 11);
        assert_eq!(op(SOpc::StoreRR, 1, 0, 0).store(&vals), (3, x as u64));
        assert_eq!(op(SOpc::StoreRI, 1, 0, 5).store(&vals), (3, 5));
        assert_eq!(op(SOpc::StoreIR, 0, 1, 5).store(&vals), (5, 3));
        assert!(op(SOpc::Branch, 1, 0, 0).taken(&vals));
        assert!(!op(SOpc::BranchImm, 1, 0, 0).taken(&vals));
        assert_eq!(op(SOpc::RetVal, 1, 0, 0).ret_value(&vals), Some(3));
        assert_eq!(op(SOpc::RetImm, 1, 0, 4).ret_value(&vals), Some(4));
        assert_eq!(op(SOpc::RetVoid, 1, 0, 4).ret_value(&vals), None);
    }

    #[test]
    fn swapped_comparisons_stay_exact() {
        let vals: [i64; 4] = [-3, 0, 7, i64::MIN];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(op.eval_i64(a, b), cmp_swapped(op).eval_i64(b, a));
                }
            }
            let fvals = [-1.5, 0.0, 2.25, f64::NAN, f64::INFINITY];
            for &a in &fvals {
                for &b in &fvals {
                    assert_eq!(op.eval_f64(a, b), cmp_swapped(op).eval_f64(b, a));
                }
            }
        }
    }
}
